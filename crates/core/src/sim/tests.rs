use flowlut_traffic::workloads::{HashPattern, HashPatternWorkload, MatchRateWorkload};
use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};

use super::*;
use crate::config::{LoadBalancerPolicy, SimConfig};

fn key(i: u64) -> FlowKey {
    FlowKey::from(FiveTuple::from_index(i))
}

fn descs(range: std::ops::Range<u64>) -> Vec<PacketDescriptor> {
    range
        .enumerate()
        .map(|(seq, i)| PacketDescriptor::new(seq as u64, key(i)))
        .collect()
}

/// Offers `descs` in order until the sequencer refuses one; returns how
/// many were taken.
fn offer_all(sim: &mut FlowLutSim, descs: &[PacketDescriptor]) -> usize {
    descs.iter().take_while(|&&d| sim.offer(d)).count()
}

#[test]
fn preloaded_key_hits_on_lookup() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    sim.preload([key(1), key(2), key(3)]).unwrap();
    let report = sim.run(&descs(1..4));
    assert_eq!(report.completed, 3);
    let s = report.stats;
    assert_eq!(s.lu1_hits + s.lu2_hits + s.cam_hits, 3, "{s:?}");
    assert_eq!(s.inserted_mem + s.inserted_cam, 0);
}

#[test]
fn preload_stamps_flows_at_the_current_cycle() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    sim.tick_many(1_000);
    let t = sim.now_sys();
    sim.preload([key(7)]).unwrap();
    let fid = sim
        .table()
        .peek(&key(7))
        .expect("preloaded key is resident");
    assert_eq!(sim.flow_state().get(fid).unwrap().first_touch_sys, t);

    sim.run(&descs(7..8));
    let record = sim.flow_state().get(fid).unwrap();
    assert_eq!(record.packets, 2, "the preload plus one resolved packet");
    assert_eq!(record.first_touch_sys, t);
    assert_eq!(record.duration_sys(), record.last_touch_sys - t);
}

#[test]
fn miss_inserts_and_reports_new_flow() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let report = sim.run(&descs(0..5));
    assert_eq!(report.completed, 5);
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 5);
    assert_eq!(sim.table().len(), 5);
    // Every descriptor got a flow ID and the table agrees.
    for d in sim.descriptors() {
        let fid = d.fid.expect("no drops expected");
        assert_eq!(sim.table().peek(&d.desc.key), Some(fid));
    }
}

#[test]
fn second_packet_of_flow_matches_first_insert() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let two = vec![
        PacketDescriptor::new(0, key(9)),
        PacketDescriptor::new(1, key(9)),
    ];
    let report = sim.run(&two);
    assert_eq!(report.completed, 2);
    let d = sim.descriptors();
    assert!(d[0].via.unwrap().is_new_flow(), "{:?}", d[0].via);
    assert!(!d[1].via.unwrap().is_new_flow(), "{:?}", d[1].via);
    assert_eq!(d[0].fid, d[1].fid, "same flow, same ID");
    // Per-flow order: completion times ordered.
    assert!(d[0].t_done.unwrap() <= d[1].t_done.unwrap());
    // The flow record has folded both packets.
    let rec = sim.flow_state().get(d[0].fid.unwrap()).unwrap();
    assert_eq!(rec.packets, 2);
}

#[test]
fn many_packets_same_flow_complete_in_order() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let burst: Vec<PacketDescriptor> = (0..20).map(|s| PacketDescriptor::new(s, key(7))).collect();
    let report = sim.run(&burst);
    assert_eq!(report.completed, 20);
    let times: Vec<u64> = sim
        .descriptors()
        .iter()
        .map(|d| d.t_done.unwrap())
        .collect();
    for w in times.windows(2) {
        assert!(w[0] <= w[1], "same-flow completion reordered: {times:?}");
    }
    assert_eq!(sim.table().len(), 1);
    assert!(report.stats.same_key_holds > 0, "waiting list unused");
}

#[test]
fn cam_hit_completes_without_memory_reads() {
    let mut cfg = SimConfig::test_small();
    cfg.table.entries_per_bucket = 1;
    let mut sim = FlowLutSim::new(cfg);
    // Three keys forced into the same single-slot bucket pair: the first
    // two fill Mem A and Mem B, the third spills to the CAM at insert.
    let ds: Vec<PacketDescriptor> = (0..3)
        .map(|i| PacketDescriptor::new(i, key(i)).with_hash_override(0, 0))
        .collect();
    sim.run(&ds);
    assert_eq!(sim.stats().inserted_cam, 1);
    let spilled = sim
        .descriptors()
        .iter()
        .find(|d| d.via == Some(ResolvedVia::InsertedCam))
        .expect("one CAM insert")
        .desc
        .key;
    let reads_before = sim.stats().reads_issued;
    // A repeat of the CAM-resident key must hit at stage 1 with no DDR
    // traffic.
    let c = PacketDescriptor::new(3, spilled).with_hash_override(0, 0);
    let report = sim.run(&[c]);
    assert_eq!(report.stats.cam_hits, 1);
    assert_eq!(sim.stats().reads_issued, reads_before);
}

#[test]
fn lu2_hit_when_key_lives_on_other_path() {
    // Force all LU1 to path A; a key resident in Mem B then requires LU2.
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
        path_a_permille: 1000,
    };
    cfg.table.entries_per_bucket = 1;
    let mut sim = FlowLutSim::new(cfg);
    // With LU1 forced to A, the final miss lands on path B, whose Updt
    // inserts into Mem B.
    let k1 = PacketDescriptor::new(0, key(1)).with_hash_override(77, 77);
    sim.run(&[k1]);
    assert_eq!(
        sim.descriptors()[0].via,
        Some(ResolvedVia::InsertedMem(crate::fid::PathId::B))
    );
    // Re-query the Mem-B resident: LU1 on A misses, LU2 on B hits.
    let q = PacketDescriptor::new(1, key(1)).with_hash_override(77, 77);
    let report = sim.run(&[q]);
    assert_eq!(report.stats.lu2_hits, 1, "{:?}", report.stats);
}

#[test]
fn table_full_drops_are_reported() {
    let mut cfg = SimConfig::test_small();
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 2;
    let mut sim = FlowLutSim::new(cfg);
    // 5 distinct keys into one bucket pair: 1 in Mem A, 1 in Mem B, 2 in
    // CAM, 1 dropped.
    let ds: Vec<PacketDescriptor> = (0..5)
        .map(|i| PacketDescriptor::new(i, key(i)).with_hash_override(3, 3))
        .collect();
    let report = sim.run(&ds);
    assert_eq!(report.stats.drops, 1);
    assert_eq!(report.stats.inserted_cam, 2);
    assert_eq!(report.stats.inserted_mem, 2);
    let dropped: Vec<_> = sim
        .descriptors()
        .iter()
        .filter(|d| d.fid.is_none())
        .collect();
    assert_eq!(dropped.len(), 1);
}

#[test]
fn fixed_ratio_zero_sends_everything_to_b() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio { path_a_permille: 0 };
    let mut sim = FlowLutSim::new(cfg);
    let report = sim.run(&descs(0..100));
    assert_eq!(report.stats.lu1_per_path[0], 0);
    assert_eq!(report.stats.lu1_per_path[1], 100);
    assert_eq!(report.stats.load_share_a(), 0.0);
}

#[test]
fn fixed_ratio_quarter_realised() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
        path_a_permille: 250,
    };
    let mut sim = FlowLutSim::new(cfg);
    let report = sim.run(&descs(0..1000));
    let share = report.stats.load_share_a();
    // Bernoulli split: allow ~3 sigma around the target.
    assert!((share - 0.25).abs() < 0.05, "load share {share}");
}

#[test]
fn hash_split_near_half_on_random_traffic() {
    let mut cfg = SimConfig::test_small();
    cfg.load_balancer = LoadBalancerPolicy::HashSplit;
    let mut sim = FlowLutSim::new(cfg);
    let report = sim.run(&descs(0..1000));
    let share = report.stats.load_share_a();
    assert!((share - 0.5).abs() < 0.06, "load share {share}");
}

#[test]
fn balanced_load_outperforms_single_path() {
    // The Table II(A) trend: all-on-one-path must be measurably slower
    // than a balanced split under an insert-heavy workload.
    let run_with = |permille: u16| {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 1024;
        cfg.load_balancer = LoadBalancerPolicy::FixedRatio {
            path_a_permille: permille,
        };
        let mut sim = FlowLutSim::new(cfg);
        let w = HashPatternWorkload {
            pattern: HashPattern::RandomHash,
            count: 2000,
            buckets: 1024,
            banks: 8,
            seed: 42,
        };
        sim.run(&w.build()).mdesc_per_s
    };
    let balanced = run_with(500);
    let skewed = run_with(0);
    assert!(
        balanced > skewed * 1.05,
        "balanced {balanced:.1} Mdesc/s vs all-on-B {skewed:.1}"
    );
}

#[test]
fn low_miss_rate_is_faster_than_high_miss_rate() {
    // The Table II(B) trend.
    let run_at = |match_rate: f64| {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 4096;
        cfg.table.cam_capacity = 64;
        let mut sim = FlowLutSim::new(cfg);
        let w = MatchRateWorkload {
            table_size: 1000,
            queries: 2000,
            match_rate,
            seed: 7,
        };
        let set = w.build();
        sim.preload(set.preload.iter().copied()).unwrap();
        sim.run(&set.queries).mdesc_per_s
    };
    let all_hit = run_at(1.0);
    let all_miss = run_at(0.0);
    assert!(
        all_hit > all_miss * 1.3,
        "0% miss {all_hit:.1} Mdesc/s vs 100% miss {all_miss:.1}"
    );
}

#[test]
fn bank_selection_ablation_hurts_throughput() {
    let run_with = |enabled: bool| {
        let mut cfg = SimConfig::test_small();
        cfg.bank_select_enabled = enabled;
        let mut sim = FlowLutSim::new(cfg);
        let mut sim_descs = descs(0..500);
        for d in &mut sim_descs {
            d.hash_override = None;
        }
        sim.run(&sim_descs).mdesc_per_s
    };
    let with = run_with(true);
    let without = run_with(false);
    assert!(
        with > without * 1.5,
        "bank selection on {with:.1} vs off {without:.1} Mdesc/s"
    );
}

#[test]
fn delete_flow_frees_the_entry() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    sim.run(&descs(0..3));
    assert_eq!(sim.table().len(), 3);
    sim.delete_flow(key(1));
    // Drive the pipeline until the delete (and its write-back) settles.
    for _ in 0..500 {
        sim.tick();
    }
    assert_eq!(sim.table().len(), 2);
    assert_eq!(sim.table().peek(&key(1)), None);
    // The freed slot is reusable and the key misses then re-inserts.
    let report = sim.run(&[PacketDescriptor::new(0, key(1))]);
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 1);
}

#[test]
fn report_throughput_is_positive_and_bounded() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let report = sim.run(&descs(0..200));
    assert!(report.mdesc_per_s > 0.0);
    // Cannot exceed the offered rate materially (one descriptor per
    // admission cycle; offered at 100 MHz).
    assert!(
        report.mdesc_per_s <= sim.config().input_rate_mhz * 1.05,
        "{} Mdesc/s exceeds offered rate",
        report.mdesc_per_s
    );
    assert!(report.elapsed_ns > 0.0);
    assert_eq!(report.completed, 200);
    assert!(report.mean_latency_ns > 0.0);
}

#[test]
fn report_counts_descriptors_offered_before_run() {
    // Offers pending when `run` starts drain inside the run: the report
    // must count them, exactly as a session opened at that point does.
    let pending = descs(1_000..1_008);
    let batch = descs(0..50);
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let mut twin = FlowLutSim::new(SimConfig::test_small());
    let k = offer_all(&mut sim, &pending);
    assert_eq!(k, pending.len());
    assert_eq!(offer_all(&mut twin, &pending), k);

    let report = sim.run(&batch);
    let n = batch.len() as u64 + k as u64;
    assert_eq!(report.completed, n);
    assert_eq!(report.stats.completed, n);
    let session = twin.start_run().run(&batch).expect("fresh session");
    assert_eq!(RunReport::from(report), session);
}

#[test]
fn storage_and_table_agree_after_mixed_run() {
    // End-to-end consistency: after inserts and deletes settle, the
    // bytes in simulated DRAM decode to exactly the table's contents.
    let mut cfg = SimConfig::test_small();
    cfg.bwr_timeout_sys = 8; // flush writes promptly
    let mut sim = FlowLutSim::new(cfg);
    sim.run(&descs(0..50));
    sim.delete_flow(key(3));
    sim.delete_flow(key(7));
    for _ in 0..1_000 {
        sim.tick();
    }
    // Re-run lookups for every remaining key: all must hit.
    let remaining: Vec<PacketDescriptor> = (0..50u64)
        .filter(|i| ![3, 7].contains(i))
        .enumerate()
        .map(|(s, i)| PacketDescriptor::new(s as u64, key(i)))
        .collect();
    let report = sim.run(&remaining);
    let s = report.stats;
    assert_eq!(
        s.cam_hits + s.lu1_hits + s.lu2_hits,
        48,
        "all surviving flows must match: {s:?}"
    );
}

#[test]
fn input_rate_limits_throughput() {
    let run_at = |mhz: f64| {
        let mut cfg = SimConfig::test_small();
        cfg.input_rate_mhz = mhz;
        let mut sim = FlowLutSim::new(cfg);
        let w = MatchRateWorkload {
            table_size: 500,
            queries: 1000,
            match_rate: 1.0,
            seed: 3,
        };
        let set = w.build();
        sim.preload(set.preload.iter().copied()).unwrap();
        sim.run(&set.queries).mdesc_per_s
    };
    let at_60 = run_at(60.0);
    let at_100 = run_at(100.0);
    // At 100% match the engine keeps up with the input, so the measured
    // rate tracks the offered rate.
    assert!((at_60 - 60.0).abs() < 6.0, "at 60 MHz: {at_60}");
    assert!(
        at_100 > at_60,
        "rate must scale with input: {at_100} vs {at_60}"
    );
}

#[test]
fn bwr_timeout_flushes_stragglers() {
    let mut cfg = SimConfig::test_small();
    cfg.bwr_threshold = 100; // count threshold unreachable
    cfg.bwr_timeout_sys = 32;
    let mut sim = FlowLutSim::new(cfg);
    let report = sim.run(&descs(0..3));
    assert_eq!(report.completed, 3);
    // Completion happens at the insert decision; the batched writes may
    // still be waiting in BWr_Gen. The timeout must flush them.
    for _ in 0..200 {
        sim.tick();
    }
    assert!(sim.stats().bwr_timeout_releases > 0);
    assert_eq!(sim.stats().bwr_count_releases, 0);
}

#[test]
fn preload_duplicate_fails() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let err = sim.preload([key(1), key(1)]).unwrap_err();
    assert!(matches!(err.cause, InsertError::Duplicate(_)));
    assert_eq!(err.inserted, 1);
}

#[test]
fn run_twice_accumulates() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    sim.run(&descs(0..10));
    let r2 = sim.run(&descs(10..20));
    assert_eq!(r2.completed, 10);
    assert_eq!(sim.stats().completed, 20);
    assert_eq!(sim.table().len(), 20);
}

#[test]
fn offer_and_tick_drive_the_pipeline_without_run() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let work = descs(0..20);
    let mut next = 0usize;
    let mut guard = 0u64;
    while sim.stats().completed < 20 {
        if next < work.len() && sim.offer(work[next]) {
            next += 1;
        }
        sim.tick();
        guard += 1;
        assert!(guard < 1_000_000, "externally driven pipeline stalled");
    }
    assert_eq!(sim.stats().offered, 20);
    assert_eq!(sim.in_pipeline(), 0);
    assert_eq!(sim.table().len(), 20);
}

#[test]
fn offer_respects_sequencer_depth() {
    let mut cfg = SimConfig::test_small();
    cfg.sequencer_depth = 8;
    let mut sim = FlowLutSim::new(cfg);
    let work = descs(0..20);
    let taken = offer_all(&mut sim, &work);
    assert_eq!(taken, 8, "sequencer depth bounds the batch");
    assert!(!sim.offer(work[taken]), "queue full rejects single offers");
    // Drain, then the remainder fits.
    let mut rest = taken;
    let mut guard = 0u64;
    while sim.stats().completed < 20 {
        rest += offer_all(&mut sim, &work[rest..]);
        sim.tick();
        guard += 1;
        assert!(guard < 1_000_000, "externally driven pipeline stalled");
    }
    assert_eq!(sim.stats().completed, 20);
}

#[test]
fn snapshot_tracks_live_state() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let before = sim.snapshot();
    assert_eq!(before.now_sys, 0);
    assert_eq!(before.in_pipeline, 0);
    sim.run(&descs(0..10));
    let after = sim.snapshot();
    assert_eq!(after.stats.completed, 10);
    assert_eq!(after.in_pipeline, 0);
    assert_eq!(after.occupancy.total(), sim.table().len());
    assert!(after.now_sys > before.now_sys);
}

#[test]
fn sim_is_send() {
    // The threaded multi-channel engine moves whole simulator instances
    // onto worker threads; this pins the auto-derived bound.
    fn assert_send<T: Send>() {}
    assert_send::<FlowLutSim>();
}

#[test]
fn tick_many_equals_repeated_tick() {
    let mut one_by_one = FlowLutSim::new(SimConfig::test_small());
    let mut batched = FlowLutSim::new(SimConfig::test_small());
    offer_all(&mut one_by_one, &descs(0..8));
    offer_all(&mut batched, &descs(0..8));
    for _ in 0..500 {
        one_by_one.tick();
    }
    batched.tick_many(500);
    assert_eq!(one_by_one.now_sys(), batched.now_sys());
    assert_eq!(one_by_one.snapshot(), batched.snapshot());
}

#[test]
fn max_latency_is_per_run_not_lifetime() {
    // Run 1 queues 400 descriptors at the full offered rate, so its
    // worst admission→completion latency is large. Run 2 is a single
    // warm hit on an idle pipeline: before the per-run watermark reset,
    // delta_since reported run 1's lifetime maximum here.
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let r1 = sim.run(&descs(0..400));
    assert!(r1.stats.max_latency_sys > 0);
    let r2 = sim.run(&[PacketDescriptor::new(10_000, key(0))]);
    assert_eq!(r2.completed, 1);
    assert!(
        r2.stats.max_latency_sys < r1.stats.max_latency_sys,
        "run 2 max {} should not inherit run 1 max {}",
        r2.stats.max_latency_sys,
        r1.stats.max_latency_sys
    );
}

#[test]
fn preload_partial_failure_reports_inserted_count() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    // The third key duplicates the first: preload stops there and says
    // exactly how much of the batch landed.
    let err = sim
        .preload([key(1), key(2), key(1), key(3)])
        .expect_err("duplicate key must stop the preload");
    assert_eq!(err.inserted, 2);
    assert!(matches!(err.cause, InsertError::Duplicate(_)));
    assert_eq!(sim.table().len(), 2, "earlier keys remain loaded");
    // The partial load is consistent end to end: the loaded keys hit in
    // DRAM (no inserts), so the bucket flush ran despite the failure.
    let report = sim.run(&descs(1..3));
    assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 0);
    assert_eq!(sim.table().len(), 2);
}

// ---------------------------------------------------------------------
// Flow lifecycle: TTL expiry, pressure eviction, checkpoint/restore.
// ---------------------------------------------------------------------

use crate::backend::{FlowEventKind, FlowPipeline};
use crate::checkpoint::CheckpointError;
use crate::config::{ExpiryPolicy, PressurePolicy};

#[test]
fn ttl_expiry_removes_idle_flows_and_raises_events() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 500,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg);
    sim.run(&descs(0..6));
    assert_eq!(sim.table().len(), 6);
    // Idle well past the timeout: the incremental scan must find and
    // expire every flow.
    for _ in 0..3_000 {
        sim.tick();
    }
    assert_eq!(sim.stats().expired_ttl, 6);
    assert_eq!(sim.table().len(), 0);
    assert!(sim.flow_state().is_empty());
    let events = FlowPipeline::poll_events(&mut sim);
    assert_eq!(events.len(), 6);
    assert!(events
        .iter()
        .all(|e| e.kind == FlowEventKind::ExpiredTtl && e.now_sys > 500));
    // A second poll drains nothing new.
    assert!(FlowPipeline::poll_events(&mut sim).is_empty());
}

#[test]
fn ttl_expiry_spares_recently_touched_flows() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 800,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg);
    sim.run(&descs(0..4));
    // Keep key 0 warm with periodic traffic while the others idle out.
    for round in 0u64..6 {
        for _ in 0..500 {
            sim.tick();
        }
        sim.run(&[PacketDescriptor::new(round, key(0))]);
    }
    assert_eq!(sim.stats().expired_ttl, 3, "{:?}", sim.stats());
    assert!(
        sim.table().peek(&key(0)).is_some(),
        "warm flow must survive"
    );
    for i in 1..4 {
        assert!(sim.table().peek(&key(i)).is_none(), "idle flow {i} kept");
    }
}

#[test]
fn expiry_scan_is_amortized_not_stop_the_world() {
    // With a stride of 1 and many flows, at most one expiry nomination
    // can happen per cycle — the scan never walks the whole table at
    // once.
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 100,
        scan_stride: 1,
    });
    let mut sim = FlowLutSim::new(cfg);
    sim.run(&descs(0..20));
    let t0 = sim.now_sys();
    let mut last = sim.stats().expired_ttl;
    let mut per_cycle_max = 0u64;
    for _ in 0..5_000 {
        sim.tick();
        let now = sim.stats().expired_ttl;
        per_cycle_max = per_cycle_max.max(now - last);
        last = now;
    }
    assert_eq!(sim.stats().expired_ttl, 20);
    assert!(
        per_cycle_max <= 1,
        "stride-1 scan expired {per_cycle_max}/cycle"
    );
    assert!(sim.now_sys() > t0 + 20, "expiries spread over many cycles");
}

#[test]
fn pressure_eviction_sheds_coldest_flows_to_victim_list() {
    // A tiny table whose CAM fills quickly: every key collides into one
    // bucket pair, so keys 2.. land in the CAM.
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 1;
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 8;
    cfg.pressure = Some(PressurePolicy {
        cam_high_water: 4,
        scan_batch: 8,
        victim_cap: 16,
    });
    let mut sim = FlowLutSim::new(cfg);
    // 2 keys land in memory, the rest spill to the CAM, crossing the
    // high-water mark mid-run — the scan starts shedding immediately.
    sim.run(&descs(0..8));
    for _ in 0..2_000 {
        sim.tick();
    }
    let evicted = sim.stats().pressure_evicted;
    assert!(evicted > 0, "{:?}", sim.stats());
    // Eviction stops once occupancy falls back below the mark.
    assert!(sim.table().occupancy().cam < 4);
    let victims = sim.take_victims();
    assert_eq!(victims.len() as u64, evicted);
    assert!(sim.take_victims().is_empty(), "take drains the list");
    let events = FlowPipeline::poll_events(&mut sim);
    assert!(events
        .iter()
        .any(|e| e.kind == FlowEventKind::EvictedPressure));
}

#[test]
fn pressure_eviction_respects_victim_cap() {
    let mut cfg = SimConfig::test_small();
    cfg.table.buckets_per_mem = 1;
    cfg.table.entries_per_bucket = 1;
    cfg.table.cam_capacity = 16;
    cfg.pressure = Some(PressurePolicy {
        cam_high_water: 1,
        scan_batch: 8,
        victim_cap: 3,
    });
    let mut sim = FlowLutSim::new(cfg);
    sim.run(&descs(0..14));
    for _ in 0..20_000 {
        sim.tick();
    }
    let evicted = sim.stats().pressure_evicted;
    assert!(evicted > 3, "want enough evictions to overflow the cap");
    let victims = sim.take_victims();
    assert_eq!(victims.len(), 3, "victim list bounded at the cap");
    // Oldest were discarded: the survivors are the most recent victims.
    assert!(victims
        .windows(2)
        .all(|w| w[0].last_touch_sys <= w[1].last_touch_sys));
}

#[test]
fn checkpoint_requires_quiescence() {
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    offer_all(&mut sim, &descs(0..8));
    let err = sim.checkpoint().unwrap_err();
    assert!(matches!(err, CheckpointError::NotQuiescent { .. }), "{err}");
    sim.quiesce();
    assert!(sim.checkpoint().is_ok());
}

#[test]
fn checkpoint_restore_roundtrip_preserves_state() {
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 100_000,
        scan_stride: 4,
    });
    let mut sim = FlowLutSim::new(cfg.clone());
    sim.run(&descs(0..40));
    sim.quiesce();
    let blob = sim.checkpoint().unwrap();
    let restored = FlowLutSim::restore(cfg, &blob).unwrap();
    assert_eq!(restored.now_sys(), sim.now_sys());
    assert_eq!(restored.stats(), sim.stats());
    assert_eq!(restored.table().len(), sim.table().len());
    for i in 0..40 {
        assert_eq!(restored.table().peek(&key(i)), sim.table().peek(&key(i)));
    }
    assert_eq!(restored.snapshot(), sim.snapshot());
}

#[test]
fn checkpoint_restore_replay_is_bit_identical() {
    // The core warm-restart guarantee at sim level: continuing the live
    // instance and continuing the restored instance produce identical
    // reports and snapshots on the same tail workload.
    let cfg = SimConfig::test_small();
    let mut live = FlowLutSim::new(cfg.clone());
    live.run(&descs(0..30));
    live.quiesce();
    let blob = live.checkpoint().unwrap();
    let mut restored = FlowLutSim::restore(cfg, &blob).unwrap();

    let tail: Vec<PacketDescriptor> = descs(15..45);
    let a = live.run(&tail);
    let b = restored.run(&tail);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "reports diverged");
    assert_eq!(live.snapshot(), restored.snapshot(), "state diverged");
}

#[test]
fn restore_rejects_mismatched_config_and_garbage() {
    let cfg = SimConfig::test_small();
    let mut sim = FlowLutSim::new(cfg.clone());
    sim.run(&descs(0..5));
    sim.quiesce();
    let blob = sim.checkpoint().unwrap();

    let mut other = cfg.clone();
    other.table.hash_seed ^= 1;
    assert!(matches!(
        FlowLutSim::restore(other, &blob),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    assert!(matches!(
        FlowLutSim::restore(cfg.clone(), &blob[..blob.len() - 1]),
        Err(CheckpointError::Truncated)
    ));
    assert!(matches!(
        FlowLutSim::restore(cfg, b"not a checkpoint blob"),
        Err(CheckpointError::BadMagic) | Err(CheckpointError::Truncated)
    ));
}

#[test]
fn adopt_flow_rehomes_a_record_under_new_geometry() {
    let mut source = FlowLutSim::new(SimConfig::test_small());
    source.run(&descs(0..10));
    source.quiesce();
    let records: Vec<FlowRecord> = source.flow_state().iter().map(|(_, r)| *r).collect();
    assert_eq!(records.len(), 10);

    let mut dest = FlowLutSim::warm_start(SimConfig::test_small(), source.now_sys());
    assert_eq!(dest.now_sys(), source.now_sys());
    for r in &records {
        dest.adopt_flow(*r).unwrap();
    }
    assert_eq!(dest.table().len(), 10);
    // Adopted flows hit — with per-flow history intact.
    let report = dest.run(&descs(0..10));
    let s = report.stats;
    assert_eq!(s.cam_hits + s.lu1_hits + s.lu2_hits, 10, "{s:?}");
    for (_, r) in dest.flow_state().iter() {
        assert!(r.packets >= 2, "preserved packet count plus the re-hit");
    }
}
