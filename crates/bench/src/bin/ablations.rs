//! Ablations of the design choices DESIGN.md §Ablations calls out:
//!
//! * early-exit pipeline vs conventional simultaneous Hash-CAM
//!   (DRAM reads per lookup);
//! * bank selection on/off (simulated throughput);
//! * BWr_Gen write-burst threshold sweep;
//! * bucket size K sweep (CAM spill at 75 % load).
//!
//! Every output is a *simulated* or counted quantity (reads, Mdesc/s of
//! modelled hardware time, spilled keys), so a run is deterministic.
//!
//! Modes: default (full sizes), `--smoke` (run-check only; numbers not
//! meaningful).

use flowlut_baselines::SimultaneousHashCam;
use flowlut_bench::scaled;
use flowlut_core::backend::FlowStore;
use flowlut_core::{FlowLutSim, HashCamTable, LookupStage, SimConfig, TableConfig};
use flowlut_traffic::workloads::MatchRateWorkload;
use flowlut_traffic::{FiveTuple, FlowKey};

fn keys(range: std::ops::Range<u64>) -> Vec<FlowKey> {
    range
        .map(|i| FlowKey::from(FiveTuple::from_index(i)))
        .collect()
}

/// Early exit vs simultaneous: average DRAM reads per lookup at a 50%
/// hit rate — the bandwidth the paper's three-stage pipeline saves.
fn early_exit() {
    let n = scaled(2048) as u64;
    let resident = keys(0..n);
    let absent = keys(100_000..100_000 + n);

    let mut ours = HashCamTable::new(TableConfig {
        buckets_per_mem: 2048,
        entries_per_bucket: 2,
        cam_capacity: 256,
        entry_slot_bytes: 16,
        hash_seed: 5,
    });
    let mut simul = SimultaneousHashCam::new(2048, 2, 256, 5);
    for k in &resident {
        ours.insert(*k).expect("2048 keys fit 8192 slots");
        simul.insert(*k).expect("2048 keys fit 8192 slots");
    }

    // Early-exit read count: stage 2 suffices when the first bucket
    // holds the key, stage 3 otherwise; misses read both.
    let mut early_reads = 0u64;
    let mut lookups = 0u64;
    for k in resident.iter().chain(&absent) {
        lookups += 1;
        early_reads += match ours.lookup(k) {
            Some((_, LookupStage::Cam)) => 0,
            Some((_, LookupStage::MemA)) => 1,
            Some((_, LookupStage::MemB)) | None => 2,
        };
    }
    let before = simul.op_stats().mem_reads;
    for k in resident.iter().chain(&absent) {
        simul.contains(k);
    }
    let simul_reads = simul.op_stats().mem_reads - before;
    println!(
        "early-exit ablation: {:.3} reads/lookup (early exit) vs {:.3} (simultaneous)",
        early_reads as f64 / lookups as f64,
        simul_reads as f64 / lookups as f64,
    );
}

fn sim_mdesc(cfg: SimConfig, miss: f64) -> f64 {
    let mut sim = FlowLutSim::new(cfg);
    let w = MatchRateWorkload {
        table_size: scaled(2_000),
        queries: scaled(2_000),
        match_rate: 1.0 - miss,
        seed: 9,
    };
    let set = w.build();
    sim.preload(set.preload.iter().copied())
        .expect("preload fits the default table");
    sim.run(&set.queries).mdesc_per_s
}

/// Bank selection on/off: simulated throughput at 50% miss.
fn bank_selection() {
    for enabled in [true, false] {
        let cfg = SimConfig {
            bank_select_enabled: enabled,
            ..SimConfig::default()
        };
        let rate = sim_mdesc(cfg, 0.5);
        println!(
            "bank selection {}: {rate:.2} Mdesc/s at 50% miss",
            if enabled { "ON " } else { "OFF" }
        );
    }
}

/// BWr_Gen threshold sweep: burst-write grouping vs throughput at 100%
/// miss (insert-heavy — where write bursts matter).
fn bwr_threshold() {
    for threshold in [1usize, 4, 8, 16, 32] {
        let cfg = SimConfig {
            bwr_threshold: threshold,
            ..SimConfig::default()
        };
        let rate = sim_mdesc(cfg, 1.0);
        println!("bwr_threshold {threshold:>2}: {rate:.2} Mdesc/s at 100% miss");
    }
}

/// Bucket size K: spill behaviour of the functional table at 75% load.
fn bucket_size() {
    let slots = scaled(8192) as u32;
    for k in [1u8, 2, 4] {
        let buckets = slots / u32::from(k) / 2;
        let mut t = HashCamTable::new(TableConfig {
            buckets_per_mem: buckets,
            entries_per_bucket: k,
            cam_capacity: 1024,
            entry_slot_bytes: 16,
            hash_seed: 11,
        });
        let n = (f64::from(buckets) * 2.0 * f64::from(k) * 0.75) as u64;
        for key in keys(0..n) {
            let _ = t.insert(key);
        }
        println!(
            "K={k}: {} of {} keys spilled to CAM at 75% load ({:.3}%)",
            t.occupancy().cam,
            n,
            100.0 * t.occupancy().cam as f64 / n as f64
        );
    }
}

fn main() {
    println!("\n=== Ablations (DESIGN.md §Ablations) ===");
    early_exit();
    bank_selection();
    bwr_threshold();
    bucket_size();
}
