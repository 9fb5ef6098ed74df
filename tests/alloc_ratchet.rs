//! Steady-state allocation ratchet (dynamic counterpart of
//! `cargo xtask lint`'s hot-alloc rule).
//!
//! Installs a counting global allocator and measures the heap
//! allocations performed while streaming a fixed descriptor batch
//! through each steady-state surface — the single-channel simulator,
//! the two-shard inline engine, and the service pump — after a warm-up
//! batch has filled every lazily-grown buffer. The counts are pinned
//! in `analysis/alloc_baseline.json`, within a small slack band
//! (`workload.pin_slack_allocs`, ±0.03%):
//!
//! * measured > pinned + slack — a hot-path allocation regression: fix it.
//! * measured < pinned − slack — an improvement: lower the committed
//!   baseline so the gain is locked in (the ratchet only turns one way).
//!
//! The slack exists because `HashMap` growth under churn is not fully
//! deterministic: whether an insert reuses a tombstone or consumes an
//! empty slot depends on the per-process random hash seed, so a resize
//! occasionally lands one insert earlier or later (observed spread on
//! the engine surface: ±1 allocation over 16 000 descriptors). The
//! band is three orders of magnitude tighter than any real regression.
//!
//! The pin holds in release builds (CI's static-analysis job runs this
//! test with `--release`). Debug builds only sanity-check the harness:
//! rustc is permitted to elide paired allocations, so optimisation
//! level can legitimately shift the exact count.
//!
//! Everything here runs on one thread and the workload is a seeded
//! fabric trace, so the per-thread counts are deterministic; the
//! warm-up batch is sized so steady state (buffer high-water marks,
//! hash-table capacity) is reached before measurement starts.

use std::alloc::System;

use stats_alloc::StatsAlloc;

use flowlut::core::{FlowLutSim, SimConfig};
use flowlut::engine::{EngineConfig, ExecutionMode, ShardedFlowLut};
use flowlut::service::{FlowService, ServiceConfig};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{FlowPipeline, Session};

#[global_allocator]
static ALLOC: StatsAlloc<System> = StatsAlloc::new(System);

/// Descriptors streamed before measurement starts (reaches steady
/// state: scratch high-water marks, table fill comparable to the
/// measured window).
const WARMUP: usize = 4_000;
/// Descriptors streamed inside the measured window.
const MEASURED: usize = 16_000;

const BASELINE: &str = include_str!("../analysis/alloc_baseline.json");

/// Extracts the pinned integer at `section.key` from the committed
/// baseline JSON (flat two-level document; a full parser would be
/// overkill for a file this repo formats itself).
fn pinned(section: &str, key: &str) -> u64 {
    let doc = BASELINE;
    let s = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("baseline JSON lacks section {section:?}"));
    let rest = &doc[s..];
    let k = rest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("baseline section {section:?} lacks key {key:?}"));
    let after = &rest[k..];
    let colon = after.find(':').expect("key without value");
    after[colon + 1..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-integer value at {section}.{key}"))
}

fn trace() -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(WARMUP + MEASURED)
}

/// Offers the warm-up slice, then counts this thread's allocations
/// while the measured slice streams through `pipe` at the configured
/// input rate.
fn measure_pipeline(pipe: &mut dyn FlowPipeline, descs: &[PacketDescriptor]) -> u64 {
    let (warm, meas) = descs.split_at(WARMUP);
    let mut session = Session::new(pipe);
    session.offer(warm).expect("fresh session accepts input");
    let before = ALLOC.thread_allocations();
    session.offer(meas).expect("session stays open");
    ALLOC.thread_allocations() - before
}

/// Feeds `descs` through the service's ingest queue, pumping on the
/// same thread whenever the queue fills, until the batch has fully
/// drained out of the pipeline.
fn service_feed(svc: &mut FlowService, descs: &[PacketDescriptor]) {
    let handle = svc.handle();
    for d in descs {
        while !handle.try_send(*d).expect("service open") {
            svc.pump(64);
        }
    }
    while svc.backlog() > 0 || svc.poll().in_pipeline > 0 {
        svc.pump(64);
    }
}

fn check(name: &str, measured: u64) {
    let pin = pinned("baseline_allocs", name);
    let slack = pinned("workload", "pin_slack_allocs");
    let per_1m = measured * 1_000_000 / MEASURED as u64;
    eprintln!("alloc_ratchet {name}: {measured} allocs / {MEASURED} descriptors ({per_1m} per 1M)");
    if cfg!(debug_assertions) {
        // Debug builds: harness sanity only (see module docs).
        return;
    }
    assert!(
        measured <= pin + slack,
        "{name}: {measured} steady-state allocations, baseline pins {pin} (+{slack} slack) — \
         a hot-path allocation crept in; run `cargo xtask lint` and fix or vet it"
    );
    assert!(
        measured + slack >= pin,
        "{name}: {measured} steady-state allocations, baseline pins {pin} (−{slack} slack) — \
         improvement! lower baseline_allocs.{name} (and per_1m_descriptors) in \
         analysis/alloc_baseline.json so the ratchet locks it in"
    );
}

#[test]
fn sim_steady_state_allocations_match_baseline() {
    let descs = trace();
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    check("sim", measure_pipeline(&mut sim, &descs));
}

#[test]
fn engine_2shard_steady_state_allocations_match_baseline() {
    let descs = trace();
    let mut engine = ShardedFlowLut::new(EngineConfig {
        execution: ExecutionMode::Inline,
        ..EngineConfig::test_small()
    });
    check("engine_2shard", measure_pipeline(&mut engine, &descs));
}

#[test]
fn service_pump_steady_state_allocations_match_baseline() {
    let descs = trace();
    let mut svc = FlowService::new(ServiceConfig::new(EngineConfig {
        execution: ExecutionMode::Inline,
        ..EngineConfig::test_small()
    }))
    .expect("test_small service config is valid");
    service_feed(&mut svc, &descs[..WARMUP]);
    let before = ALLOC.thread_allocations();
    service_feed(&mut svc, &descs[WARMUP..]);
    check("service_pump", ALLOC.thread_allocations() - before);
}

/// The committed baseline document itself stays well-formed: every
/// section the ratchet reads is present with integer pins, and the
/// derived per-1M figures agree with the raw pins and the measured
/// window recorded in the document.
#[test]
fn baseline_document_is_consistent() {
    assert_eq!(
        pinned("workload", "measured_descriptors"),
        MEASURED as u64,
        "baseline was produced for a different measured window"
    );
    assert_eq!(pinned("workload", "warmup_descriptors"), WARMUP as u64);
    // The jitter band must stay negligible relative to the pins —
    // anything wider would let real regressions hide inside it.
    let slack = pinned("workload", "pin_slack_allocs");
    assert!(
        slack <= 64,
        "pin_slack_allocs ({slack}) is wide enough to mask real regressions"
    );
    for name in ["sim", "engine_2shard", "service_pump"] {
        let pin = pinned("baseline_allocs", name);
        let per_1m = pinned("per_1m_descriptors", name);
        assert_eq!(
            per_1m,
            pin * 1_000_000 / MEASURED as u64,
            "per_1m_descriptors.{name} out of sync with baseline_allocs.{name}"
        );
        // The acceptance bar for this PR: the recorded pre-PR counts
        // must not be beaten upward by the committed baseline.
        let pre = pinned("pre_pr_allocs", name);
        assert!(
            pin <= pre,
            "baseline_allocs.{name} ({pin}) exceeds the recorded pre-PR count ({pre})"
        );
    }
}
