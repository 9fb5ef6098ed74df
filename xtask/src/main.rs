//! Workspace task runner: `cargo xtask lint [--json <path>]`.
//!
//! One static-analysis pass over the workspace (DESIGN.md §Concurrency
//! model & static analysis). It walks the files once, builds one token
//! model per source file ([`analyze::extract`]) and runs every rule on
//! it once:
//!
//! | rule            | scope                               | requirement |
//! |-----------------|-------------------------------------|-------------|
//! | `crate-attrs`   | first-party crate roots             | `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` |
//! | `sync-facade`   | `crates/engine/src` (non-test)      | no direct `std::sync`/`std::thread`/`std::hint` — use `flowlut_core::sync` |
//! | `ordering-doc`  | `crates/*/src` (non-test)           | every `Ordering::` site has an adjacent `// ordering:` justification |
//! | `no-panic`      | engine/core/cam/hash src (non-test) | no `.unwrap()`/`.expect(`/`panic!(` outside `xtask/lint_allow.txt` |
//! | `hot-alloc`     | fns reachable from the entry points | no allocation outside `xtask/analyze_allow.txt` |
//! | `hot-panic`     | fns reachable from the entry points | no panic site outside `xtask/lint_allow.txt` |
//! | `stale-allow`   | both allow-lists                    | every entry vetted ≥1 site (or pruned ≥1 edge) in this pass |
//! | `bench-schema`  | committed `BENCH_*.json`            | parses as JSON and keeps its schema keys |
//! | `entry-missing` | [`analyze::ENTRY_POINTS`]           | every entry point resolves to a function |
//! | `allow-syntax`  | `xtask/analyze_allow.txt`           | every line parses as an entry |
//!
//! The entry points are the steady-state ones (`FlowLutSim::tick`,
//! `Session::offer`, `ShardedFlowLut::tick`, `FlowService::pump`, and
//! the `FlowPipeline` impls' `push`/`poll`). `--json <path>`
//! additionally writes a machine-readable report (CI uploads it as an
//! artifact; its `vetted_hot_sites` array is the zero-alloc work list).
//!
//! Pure `std` — no external dependencies — so the pass runs in the
//! offline build like everything else. The rules live in [`lint`] and
//! [`analyze`] as pure functions over file contents; this binary only
//! discovers files and reports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analyze;
mod lexer;
mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("lint") {
        eprintln!("usage: cargo xtask lint [--json <path>]");
        return ExitCode::from(2);
    }
    let mut json_out: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--json", Some(p)) => json_out = Some(PathBuf::from(p)),
            (other, _) => {
                eprintln!("xtask lint: unknown or incomplete flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let res = run(&repo_root());
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, analyze::report_json(&res)) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for f in &res.findings {
        eprintln!("{f}");
    }
    println!(
        "xtask lint: {} files, {} fns, {} call edges, {} reachable from {} entry points; {} vetted hot site(s), {} finding(s)",
        res.files,
        res.functions,
        res.edges,
        res.reachable,
        analyze::ENTRY_POINTS.len(),
        res.vetted.len(),
        res.findings.len()
    );
    if res.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root (xtask always lives one level below it).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

/// Runs the whole pass over the workspace at `root`.
fn run(root: &Path) -> analyze::AnalyzeResult {
    // Every non-test source of `crates/*/src`, read once.
    let mut sources: Vec<(String, String)> = Vec::new();
    for dir in crate_dirs(root) {
        for path in rust_files(&dir.join("src")) {
            let rp = rel(root, &path);
            if !lint::is_test_file(&rp) {
                sources.push((rp, read(&path)));
            }
        }
    }
    let allow = analyze::parse_analyze_allow(&read(&root.join("xtask/analyze_allow.txt")));
    let panic_allow = lint::parse_allowlist(&read(&root.join("xtask/lint_allow.txt")));
    let mut res = analyze::analyze_sources(&sources, analyze::ENTRY_POINTS, &allow, &panic_allow);

    // crate-attrs: first-party crate roots (workspace crates, the
    // first-party vendored model checker, and this task runner; the
    // remaining vendor/ shims are ports of external crates and exempt).
    for (rp, src) in &sources {
        if rp.ends_with("/src/lib.rs") && rp.matches('/').count() == 3 {
            res.findings.extend(lint::check_crate_attrs(rp, src));
        }
    }
    // The two first-party roots outside `crates/` (crate-attrs) and the
    // committed perf snapshots at the repo root (bench-schema).
    let mut extra: Vec<PathBuf> = vec![
        root.join("vendor/loomlite/src/lib.rs"),
        root.join("xtask/src/main.rs"),
    ];
    let mut bench_files: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("read workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    bench_files.sort();
    extra.extend(bench_files);
    for path in &extra {
        let (rp, text) = (rel(root, path), read(path));
        res.findings.extend(if rp.ends_with(".json") {
            lint::check_bench_schema(&rp, &text)
        } else {
            lint::check_crate_attrs(&rp, &text)
        });
    }
    res.files += extra.len();
    res
}

/// The workspace's crate directories (`crates/*`), sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("xtask: cannot read {}: {e}", path.display()))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined(findings: &[&analyze::Finding]) -> String {
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The committed workspace must pass clean: this is the same check
    /// CI's static-analysis job runs, pinned as a test so a finding
    /// fails `cargo test` even without the job.
    #[test]
    fn workspace_lints_clean() {
        let res = run(&repo_root());
        assert!(res.files > 40, "suspiciously few files: {}", res.files);
        let all: Vec<_> = res.findings.iter().collect();
        assert!(all.is_empty(), "workspace findings:\n{}", joined(&all));
    }

    /// Same pin for the call-graph rules of that pass: no hot-path
    /// finding, with a plausibly-sized item model underneath (guards
    /// against the extractor silently recovering nothing).
    #[test]
    fn workspace_analyzes_clean() {
        let res = run(&repo_root());
        assert!(
            res.functions > 300,
            "suspiciously few fns recovered: {}",
            res.functions
        );
        assert!(
            res.reachable > 20,
            "suspiciously small hot set: {}",
            res.reachable
        );
        let hot: Vec<_> = res
            .findings
            .iter()
            .filter(|f| f.rule.starts_with("hot-"))
            .collect();
        assert!(hot.is_empty(), "hot-path findings:\n{}", joined(&hot));
    }
}
