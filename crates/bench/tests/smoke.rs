//! CI smoke tests for the paper-artefact harness: every bench binary is
//! executed in `--smoke` mode (drastically scaled-down workloads), so
//! every `[[bin]]` target in this crate's manifest is run-checked — not
//! just compiled — on every `cargo test`. Each test asserts a successful
//! exit and the report heading that proves the artefact was actually
//! constructed; `every_bin_has_a_smoke_case` keeps the list complete.

use std::process::Command;

fn run_smoke(exe: &str, expect: &str) {
    let out = Command::new(exe)
        .arg("--smoke")
        .env(
            "FLOWLUT_RESULTS_DIR",
            std::env::temp_dir().join("flowlut-smoke-results"),
        )
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(expect),
        "{exe} output missing {expect:?}; got:\n{stdout}"
    );
}

#[test]
fn table1_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table1"), "Table I");
}

#[test]
fn table2a_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table2a"), "Table II(A)");
}

#[test]
fn table2b_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_table2b"), "Table II(B)");
}

#[test]
fn fig3_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_fig3"), "Figure 3");
}

#[test]
fn fig6_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_fig6"), "Figure 6");
}

#[test]
fn discussion_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_discussion"), "40GbE feasibility");
}

#[test]
fn ablations_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_ablations"), "Ablations");
}

#[test]
fn multipath_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_multipath"), "Multi-path multi-hashing");
}

#[test]
fn engine_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_engine"), "Sharded flow-LUT engine");
}

#[test]
fn parallel_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_parallel"), "Threaded shard execution");
}

#[test]
fn memory_smoke() {
    run_smoke(
        env!("CARGO_BIN_EXE_memory"),
        "Memory-technology headroom study",
    );
}

#[test]
fn service_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_service"), "Flow service");
}

#[test]
fn scenarios_smoke() {
    run_smoke(env!("CARGO_BIN_EXE_scenarios"), "Scenario matrix");
}

/// Every `[[bin]]` in the manifest must have a smoke case above, so a
/// new bin cannot ship without being run-checked.
#[test]
fn every_bin_has_a_smoke_case() {
    let manifest = include_str!("../Cargo.toml");
    let this_file = include_str!("smoke.rs");
    let mut lines = manifest.lines();
    let mut bins = Vec::new();
    while let Some(line) = lines.next() {
        if line.trim() == "[[bin]]" {
            let name = lines
                .find_map(|l| l.trim().strip_prefix("name = "))
                .expect("every [[bin]] has a name");
            bins.push(name.trim_matches('"'));
        }
    }
    assert!(!bins.is_empty(), "no [[bin]] targets parsed");
    let missing: Vec<_> = bins
        .iter()
        .filter(|bin| !this_file.contains(&format!("CARGO_BIN_EXE_{bin}\")")))
        .collect();
    assert!(missing.is_empty(), "bins without a smoke case: {missing:?}");
}
