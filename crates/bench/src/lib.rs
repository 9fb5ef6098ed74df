//! # flowlut-bench — harness regenerating every table and figure
//!
//! One binary per paper artefact, each printing the paper's values next
//! to the reproduction's measurements:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table I — FPGA resource usage (resource-model estimate) |
//! | `table2a` | Table II(A) — load balance & bank selection |
//! | `table2b` | Table II(B) — flow-match miss-rate sweep |
//! | `fig3` | Figure 3 — DQ bus utilization vs burst count |
//! | `fig6` | Figure 6 — new-flow ratio vs packet window |
//! | `discussion` | §V-B — 40 GbE feasibility and product comparison |
//! | `multipath` | future work: multi-path multi-hashing study |
//! | `ablations` | DESIGN.md §Ablations: early exit, bank selection, BWr_Gen threshold, bucket size K |
//! | `engine` | beyond the paper: multi-channel scaling sweep, writes `BENCH_engine.json` |
//! | `parallel` | beyond the paper: threaded vs inline shard execution, writes `BENCH_parallel.json` |
//! | `memory` | beyond the paper: memory-technology headroom, writes `BENCH_memory.json` |
//! | `service` | beyond the paper: sustained churn through the flow service, writes `BENCH_service.json` |
//! | `scenarios` | beyond the paper: scenario matrix over every backend, writes `BENCH_scenarios.json` |
//!
//! The bins report simulated results; the one host-clock figure among
//! them is `parallel`'s threaded-over-inline speedup. What the Rust code
//! costs to run, end to end and per layer, is measured by the
//! `hostbench` package at the repository root.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (test description).
    pub label: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64) -> Self {
        Row {
            label: label.into(),
            paper,
            measured,
        }
    }

    /// measured / paper.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }
}

/// True when the binary was invoked with `--smoke`: CI smoke mode, where
/// every experiment runs on a drastically scaled-down workload so every
/// bin can be run-checked in seconds. Output in smoke mode is *not*
/// comparable to the paper.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// True when the binary was invoked with `--quick`: the mode the
/// committed `BENCH_*.json` snapshots and CI's perf-snapshot job use.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Where `BENCH_<name>.json` goes; see [`save_snapshot`].
fn json_path(name: &str, quick: bool) -> PathBuf {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json-out" {
            if let Some(path) = args.next() {
                return PathBuf::from(path);
            }
        }
    }
    let dir = std::env::var_os("FLOWLUT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            if quick {
                PathBuf::new()
            } else {
                PathBuf::from("paper-results")
            }
        });
    dir.join(format!("BENCH_{name}.json"))
}

/// Writes the `BENCH_<name>.json` perf snapshot through `write`,
/// creating the file's directory first.
///
/// Path resolution order: `--json-out PATH`, then
/// `$FLOWLUT_RESULTS_DIR/`. Without either, only `--quick` writes to the
/// working directory; smoke/full runs land in `./paper-results` with
/// the CSVs, so a casual `--smoke` from the repo root cannot clobber a
/// committed snapshot with not-comparable numbers.
///
/// Prints the saved path. On an I/O error, reports it and exits with
/// status 1: a sweep whose snapshot is missing has failed.
pub fn save_snapshot(
    name: &str,
    quick: bool,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) {
    let path = json_path(name, quick);
    let result = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| write(&mut f));
    match result {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("error: could not save {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Scales a workload size down in smoke mode (×1/100, floor 64),
/// passing it through untouched otherwise.
pub fn scaled(n: usize) -> usize {
    if smoke_mode() {
        (n / 100).max(64)
    } else {
        n
    }
}

/// Prints a standard comparison table.
pub fn print_comparison(title: &str, unit: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "test",
        format!("paper ({unit})"),
        "measured",
        "ratio"
    );
    println!("{}", "-".repeat(80));
    for r in rows {
        println!(
            "{:<44} {:>12.2} {:>12.2} {:>7.2}x",
            r.label,
            r.paper,
            r.measured,
            r.ratio()
        );
    }
}

/// Renders a crude ASCII plot of a monotone series (x, y in `[0, 1]`),
/// so figure shapes are eyeballable without external tooling.
pub fn ascii_plot(points: &[(f64, f64)], width: usize) {
    for &(x, y) in points {
        let bars = (y.clamp(0.0, 1.0) * width as f64).round() as usize;
        println!(
            "{x:>8.0} | {}{} {:.1}%",
            "#".repeat(bars),
            " ".repeat(width - bars),
            y * 100.0
        );
    }
}

/// Writes a CSV result file under the results directory
/// (`$FLOWLUT_RESULTS_DIR` or `./paper-results`) and returns its path.
/// Fields containing commas or quotes are quoted.
///
/// # Errors
///
/// Propagates I/O errors (directory creation, file write).
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::env::var_os("FLOWLUT_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("paper-results"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(path)
}

/// Saves a paper-vs-measured comparison as CSV next to printing it.
/// I/O failures are reported to stderr but do not abort the experiment.
pub fn save_comparison(name: &str, rows: &[Row]) {
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}", r.paper),
                format!("{}", r.measured),
                format!("{:.4}", r.ratio()),
            ]
        })
        .collect();
    match write_csv(name, &["test", "paper", "measured", "ratio"], &csv_rows) {
        Ok(path) => println!("(saved {})", path.display()),
        Err(e) => eprintln!("warning: could not save {name}.csv: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_computed() {
        let r = Row::new("x", 50.0, 55.0);
        assert!((r.ratio() - 1.1).abs() < 1e-12);
        assert!(Row::new("y", 0.0, 1.0).ratio().is_nan());
    }

    #[test]
    fn csv_written_and_quoted() {
        let dir = std::env::temp_dir().join("flowlut-csv-test");
        std::env::set_var("FLOWLUT_RESULTS_DIR", &dir);
        let path = write_csv(
            "unit_test",
            &["a", "b"],
            &[vec!["plain".into(), "with,comma \"q\"".into()]],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("\"with,comma \"\"q\"\"\""));
        std::env::remove_var("FLOWLUT_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
