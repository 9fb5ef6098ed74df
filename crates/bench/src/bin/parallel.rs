//! Threaded shard execution: wall-clock scaling sweep.
//!
//! The `engine` binary records *simulated* throughput (cycles × clock
//! period) — a number host threading cannot change, because threaded
//! execution is bit-identical by construction. This sweep records what
//! threading *does* change: **host wall-clock** throughput. For 1 / 2 /
//! 4 / 8 shards it runs the same workload through an inline engine and
//! a threaded one (`min(shards, 4)` executor threads), times both, and
//! cross-checks that the two reports are byte-identical while timing
//! them.
//!
//! Writes the machine-readable `BENCH_parallel.json` consumed by the
//! perf-snapshot CI step, which gates on ≥ 1.5× wall-clock speedup at
//! 4 shards. The gate only means something on a multicore host, so the
//! JSON also records `host_parallelism` and an `acceptance_applicable`
//! flag — a single-core container (like the one that generated the
//! committed snapshot) reports its honest slowdown and marks the gate
//! not applicable.
//!
//! Modes: default (full sweep), `--quick` (CI perf snapshot), `--smoke`
//! (run-check only; numbers not meaningful).

use std::io::Write;
use std::time::Instant;

use flowlut_bench::{quick_mode, save_snapshot, smoke_mode};
use flowlut_core::backend::RunReport;
use flowlut_engine::{EngineConfig, EngineSnapshot, ExecutionMode, ShardedFlowLut};
use flowlut_traffic::workloads::MatchRateWorkload;

/// One sweep point: the same workload, inline versus threaded.
struct Point {
    shards: usize,
    threads: usize,
    inline_wall_mdesc_per_s: f64,
    threaded_wall_mdesc_per_s: f64,
    sim_mdesc_per_s: f64,
    completed: u64,
    reports_identical: bool,
}

impl Point {
    fn wall_speedup(&self) -> f64 {
        if self.inline_wall_mdesc_per_s > 0.0 {
            self.threaded_wall_mdesc_per_s / self.inline_wall_mdesc_per_s
        } else {
            0.0
        }
    }
}

/// Builds an engine, preloads the workload, runs it, and returns the
/// report and post-run engine state plus the wall-clock seconds of the
/// run itself (preload and construction excluded).
fn timed_run_once(
    shards: usize,
    execution: ExecutionMode,
    set: &flowlut_traffic::workloads::MatchRateSet,
) -> ((RunReport, EngineSnapshot), f64) {
    let mut engine = ShardedFlowLut::new(EngineConfig {
        execution,
        ..EngineConfig::prototype(shards)
    });
    engine
        .preload(set.preload.iter().copied())
        .expect("preload fits the prototype table");
    let start = Instant::now();
    let report = engine.run(&set.queries);
    let secs = start.elapsed().as_secs_f64();
    ((report, engine.snapshot()), secs)
}

/// Best-of-`reps` wall time on a fresh engine each rep (first rep's
/// report returned — every rep computes the identical one). One sample
/// of a ~0.1 s run is hostage to scheduler noise on a shared CI
/// runner; the minimum over a few reps is the honest "how fast can
/// this host actually execute it" number a gate can hold.
fn timed_run(
    shards: usize,
    execution: ExecutionMode,
    set: &flowlut_traffic::workloads::MatchRateSet,
    reps: u32,
) -> ((RunReport, EngineSnapshot), f64) {
    let (report, mut best) = timed_run_once(shards, execution, set);
    for _ in 1..reps {
        let (_, secs) = timed_run_once(shards, execution, set);
        best = best.min(secs);
    }
    (report, best)
}

fn main() {
    let (mode, table_size, queries) = if smoke_mode() {
        ("smoke", 1_000, 800)
    } else if quick_mode() {
        ("quick", 10_000, 16_000)
    } else {
        ("full", 10_000, 40_000)
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Threaded shard execution: wall-clock scaling sweep ({mode} mode)");
    println!(
        "workload: {table_size}-flow preload, {queries} queries at 75% match; \
         host parallelism: {host_parallelism}\n"
    );

    let workload = MatchRateWorkload {
        table_size,
        queries,
        match_rate: 0.75,
        seed: 40,
    };
    let set = workload.build();

    // Smoke only run-checks; the measured modes take best-of-3.
    let reps = if mode == "smoke" { 1 } else { 3 };
    let mut points: Vec<Point> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let threads = shards.min(4);
        let ((inline_report, inline_state), inline_secs) =
            timed_run(shards, ExecutionMode::Inline, &set, reps);
        let ((threaded_report, threaded_state), threaded_secs) =
            timed_run(shards, ExecutionMode::Threaded(threads), &set, reps);
        // Determinism cross-check while we have both runs in hand:
        // threading must never change what the engine computes, down to
        // every per-shard counter.
        let reports_identical = inline_report == threaded_report && inline_state == threaded_state;
        assert!(
            reports_identical,
            "threaded report diverged from inline at {shards} shards — determinism bug"
        );
        points.push(Point {
            shards,
            threads,
            inline_wall_mdesc_per_s: inline_report.completed as f64 / inline_secs / 1e6,
            threaded_wall_mdesc_per_s: threaded_report.completed as f64 / threaded_secs / 1e6,
            sim_mdesc_per_s: inline_report.mdesc_per_s,
            completed: inline_report.completed,
            reports_identical,
        });
    }

    println!(
        "{:>6} {:>8} {:>16} {:>18} {:>9} {:>10}",
        "shards", "threads", "inline (Md/s)", "threaded (Md/s)", "speedup", "identical"
    );
    println!("{}", "-".repeat(72));
    for p in &points {
        println!(
            "{:>6} {:>8} {:>16.3} {:>18.3} {:>8.2}x {:>10}",
            p.shards,
            p.threads,
            p.inline_wall_mdesc_per_s,
            p.threaded_wall_mdesc_per_s,
            p.wall_speedup(),
            if p.reports_identical { "yes" } else { "NO" },
        );
    }

    let speedup_4 = points
        .iter()
        .find(|p| p.shards == 4)
        .map_or(0.0, Point::wall_speedup);
    let applicable = host_parallelism >= 2;
    let meets = speedup_4 >= 1.5;
    println!(
        "\n4-shard threaded wall-clock speedup: {speedup_4:.2}x (gate 1.5x: {})",
        if !applicable {
            "not applicable on a single-core host"
        } else if meets {
            "met"
        } else {
            "NOT met"
        }
    );

    save_snapshot("parallel", mode == "quick", |f| {
        write_json(
            f,
            mode,
            &workload,
            host_parallelism,
            &points,
            applicable,
            meets,
        )
    });
}

/// Serialises the sweep by hand — the workspace has no JSON dependency,
/// and the schema is flat enough that formatting beats vendoring one.
#[allow(clippy::too_many_arguments)]
fn write_json(
    f: &mut impl Write,
    mode: &str,
    w: &MatchRateWorkload,
    host_parallelism: usize,
    points: &[Point],
    applicable: bool,
    meets: bool,
) -> std::io::Result<()> {
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"parallel\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(f, "  \"host_parallelism\": {host_parallelism},")?;
    writeln!(
        f,
        "  \"workload\": {{\"table_size\": {}, \"queries\": {}, \"match_rate\": {}, \"seed\": {}}},",
        w.table_size, w.queries, w.match_rate, w.seed
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, p) in points.iter().enumerate() {
        writeln!(
            f,
            "    {{\"shards\": {}, \"threads\": {}, \"inline_wall_mdesc_per_s\": {:.4}, \
             \"threaded_wall_mdesc_per_s\": {:.4}, \"wall_speedup\": {:.4}, \
             \"sim_mdesc_per_s\": {:.4}, \"completed\": {}, \"reports_identical\": {}}}{}",
            p.shards,
            p.threads,
            p.inline_wall_mdesc_per_s,
            p.threaded_wall_mdesc_per_s,
            p.wall_speedup(),
            p.sim_mdesc_per_s,
            p.completed,
            p.reports_identical,
            if i + 1 == points.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"acceptance_applicable\": {applicable},")?;
    writeln!(f, "  \"acceptance_threaded_4_shards_ge_1p5x\": {meets}")?;
    writeln!(f, "}}")?;
    Ok(())
}
