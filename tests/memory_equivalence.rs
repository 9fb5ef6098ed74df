//! Refactor-equivalence pins for the `MemoryModel` trait extraction.
//!
//! The pluggable-memory refactor (PR 7) rebuilt `FlowLutSim` on
//! `Box<dyn MemoryModel>` instead of the concrete `MemoryController`.
//! The golden values below were captured by running the *pre-refactor*
//! tree (commit 15cb8af) on fixed seeded fabric traces; these tests
//! prove the default DDR3 paths — the 1066E preset, the DDR3-1600
//! default, and the sharded engine — produce bit-identical
//! [`RunReport`]s after the extraction, the same bar
//! `tests/session_equivalence.rs` sets for the session API.

use flowlut::core::{FlowLutSim, SimConfig, SimStats};
use flowlut::ddr3::{MemoryKind, MemorySpec, TimingPreset};
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{FlowPipeline, RunReport};

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

/// The pre-refactor report of `SimConfig::test_small()` with the
/// DDR3-1066E preset on a 2 000-packet european_2012 trace.
fn golden_1066e() -> RunReport {
    RunReport {
        backend: "hashcam-sim",
        channels: 1,
        sys_cycles: 6400,
        elapsed_ns: 47999.99999999999,
        completed: 2000,
        mdesc_per_s: 41.66666666666667,
        mean_latency_ns: 3414.6449999999995,
        stats: SimStats {
            offered: 2000,
            admitted: 2000,
            completed: 2000,
            cam_hits: 3,
            lu1_hits: 17,
            lu2_hits: 938,
            inserted_mem: 866,
            inserted_cam: 16,
            duplicate_races: 0,
            drops: 160,
            lu1_per_path: [968, 1029],
            reads_issued: 3977,
            writes_issued: 862,
            filter_hold_cycles: 1425,
            input_stall_cycles: 2381,
            same_key_holds: 785,
            bwr_count_releases: 68,
            bwr_timeout_releases: 62,
            deletes: 0,
            expired_ttl: 0,
            pressure_evicted: 0,
            total_latency_sys: 910572,
            max_latency_sys: 1466,
        },
        occupancy: flowlut::core::Occupancy {
            mem_a: 418,
            mem_b: 448,
            cam: 16,
        },
    }
}

/// The pre-refactor report of plain `SimConfig::test_small()`
/// (DDR3-1600 default) on the same trace.
fn golden_default() -> RunReport {
    RunReport {
        backend: "hashcam-sim",
        channels: 1,
        sys_cycles: 7548,
        elapsed_ns: 37740.0,
        completed: 2000,
        mdesc_per_s: 52.99417064122946,
        mean_latency_ns: 2187.37,
        stats: SimStats {
            offered: 2000,
            admitted: 2000,
            completed: 2000,
            cam_hits: 3,
            lu1_hits: 18,
            lu2_hits: 937,
            inserted_mem: 865,
            inserted_cam: 16,
            duplicate_races: 0,
            drops: 161,
            lu1_per_path: [968, 1029],
            reads_issued: 3976,
            writes_issued: 854,
            filter_hold_cycles: 3426,
            input_stall_cycles: 0,
            same_key_holds: 753,
            bwr_count_releases: 56,
            bwr_timeout_releases: 80,
            deletes: 0,
            expired_ttl: 0,
            pressure_evicted: 0,
            total_latency_sys: 874948,
            max_latency_sys: 1634,
        },
        occupancy: flowlut::core::Occupancy {
            mem_a: 418,
            mem_b: 447,
            cam: 16,
        },
    }
}

/// The pre-refactor report of `ShardedFlowLut::new(EngineConfig::
/// test_small())` (2 channels) on the same trace.
fn golden_engine() -> RunReport {
    RunReport {
        backend: "hashcam-sharded",
        channels: 2,
        sys_cycles: 5379,
        elapsed_ns: 26895.0,
        completed: 2000,
        mdesc_per_s: 74.36326454731363,
        mean_latency_ns: 1209.205,
        stats: SimStats {
            offered: 2000,
            admitted: 2000,
            completed: 2000,
            cam_hits: 0,
            lu1_hits: 9,
            lu2_hits: 955,
            inserted_mem: 1013,
            inserted_cam: 23,
            duplicate_races: 0,
            drops: 0,
            lu1_per_path: [970, 1030],
            reads_issued: 3991,
            writes_issued: 1004,
            filter_hold_cycles: 9871,
            input_stall_cycles: 0,
            same_key_holds: 773,
            bwr_count_releases: 75,
            bwr_timeout_releases: 75,
            deletes: 0,
            expired_ttl: 0,
            pressure_evicted: 0,
            total_latency_sys: 483682,
            max_latency_sys: 943,
        },
        occupancy: flowlut::core::Occupancy {
            mem_a: 471,
            mem_b: 542,
            cam: 23,
        },
    }
}

#[test]
fn ddr3_1066e_path_bit_identical_to_pre_refactor() {
    let mut cfg = SimConfig::test_small();
    if let MemorySpec::Ddr3 { timing, .. } = &mut cfg.memory {
        *timing = TimingPreset::Ddr3_1066E;
    }
    let mut sim = FlowLutSim::new(cfg);
    let report = sim.start_run().run(&trace(2_000)).unwrap();
    assert_eq!(report, golden_1066e());
}

#[test]
fn ddr3_default_path_bit_identical_to_pre_refactor() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let report = sim.start_run().run(&trace(2_000)).unwrap();
    assert_eq!(report, golden_default());
}

#[test]
fn engine_path_bit_identical_to_pre_refactor() {
    let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
    let report = engine.start_run().run(&trace(2_000)).unwrap();
    assert_eq!(report, golden_engine());
}

#[test]
fn non_ddr3_models_run_the_same_workload() {
    // Every alternative technology completes the identical trace with
    // near-identical functional outcome. (Exact occupancy can differ by
    // a flow or two: which insert a full bucket drops depends on
    // completion order, which is timing-dependent.)
    let descs = trace(1_000);
    let mut baseline: Option<u64> = None;
    for kind in MemoryKind::ALL {
        let mut cfg = SimConfig::test_small();
        cfg.memory = kind.default_spec();
        let mut sim = FlowLutSim::new(cfg);
        let report = sim.start_run().run(&descs).unwrap();
        assert_eq!(report.completed, 1_000, "{}", kind.name());
        let total = report.occupancy.total();
        match baseline {
            None => baseline = Some(total),
            Some(b) => assert!(
                total.abs_diff(b) <= 5,
                "{}: occupancy {total} far from ddr3's {b}",
                kind.name()
            ),
        }
    }
}

#[test]
fn sram_is_at_least_as_fast_as_ddr3() {
    // The idealized bound must not lose to the technology it bounds.
    let descs = trace(2_000);
    let mut ddr3 = FlowLutSim::new(SimConfig::test_small());
    let ddr3_cycles = ddr3.start_run().run(&descs).unwrap().sys_cycles;
    let mut cfg = SimConfig::test_small();
    cfg.memory = MemoryKind::Sram.default_spec();
    let mut sram = FlowLutSim::new(cfg);
    let sram_cycles = sram.start_run().run(&descs).unwrap().sys_cycles;
    assert!(
        sram_cycles <= ddr3_cycles,
        "sram took {sram_cycles} cycles vs ddr3 {ddr3_cycles}"
    );
}
