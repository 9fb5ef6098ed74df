//! Warm-restart and online-rescale guarantees of the sharded engine:
//!
//! * a [`ShardedFlowLut::checkpoint`] blob restores to an engine whose
//!   replay is **bit-identical** to the live instance continuing past
//!   the checkpoint — every snapshot field, every report counter;
//! * the blob itself round-trips byte-identically (restore → checkpoint
//!   is a fixed point), so checkpoint chains never drift;
//! * [`ShardedFlowLut::rescale_double`] rehomes every resident flow
//!   onto the doubled shard set with zero descriptor loss — including
//!   descriptors still in flight when the rescale is requested — and
//!   lands each flow on **exactly one** shard, the one the widened
//!   router owns it under.

use std::collections::HashSet;

use flowlut::core::{ExpiryPolicy, FlowLutSim, PressurePolicy, SimConfig};
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::{FlowKey, PacketDescriptor};
use flowlut::{CheckpointError, FlowPipeline, Session};

/// Two shards, fast test geometry, both lifecycle policies on — the
/// checkpoint must capture aging cursors and victim lists, not just the
/// table.
fn config() -> EngineConfig {
    let mut shard = SimConfig::test_small();
    shard.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 30_000,
        scan_stride: 8,
    });
    shard.pressure = Some(PressurePolicy {
        cam_high_water: 12,
        scan_batch: 8,
        victim_cap: 256,
    });
    let mut cfg = EngineConfig::test_small();
    cfg.shard = shard;
    cfg
}

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

/// Resident flow keys, collected shard by shard.
fn resident_keys(engine: &ShardedFlowLut) -> HashSet<FlowKey> {
    let mut keys = HashSet::new();
    for i in 0..engine.shard_count() {
        keys.extend(engine.shard(i).flow_state().iter().map(|(_, r)| r.key));
    }
    keys
}

#[test]
fn restored_engine_replays_bit_identically() {
    let descs = trace(4_000);
    let (prefix, tail) = descs.split_at(2_000);

    // Live instance: stream the prefix, settle, checkpoint.
    let mut live = ShardedFlowLut::new(config());
    Session::new(&mut live).run(prefix).expect("fresh session");
    live.quiesce();
    let blob = live.checkpoint().expect("quiescent engine checkpoints");

    let mut restored = ShardedFlowLut::restore(config(), &blob).expect("own blob restores");
    assert_eq!(
        live.snapshot(),
        restored.snapshot(),
        "restore must reproduce the checkpointed state exactly"
    );

    // Replay the identical tail on both instances: the restored engine
    // must shadow the live one counter for counter, cycle for cycle.
    let report_live = Session::new(&mut live).run(tail).expect("fresh session");
    let report_restored = Session::new(&mut restored)
        .run(tail)
        .expect("fresh session");
    assert_eq!(
        report_live, report_restored,
        "replay reports must be bit-identical"
    );
    assert_eq!(
        live.snapshot(),
        restored.snapshot(),
        "replay snapshots must be bit-identical"
    );
    assert!(
        report_live.completed == tail.len() as u64,
        "the replay must resolve every descriptor"
    );
}

#[test]
fn checkpoint_blob_round_trips_byte_identically() {
    let mut engine = ShardedFlowLut::new(config());
    Session::new(&mut engine)
        .run(&trace(1_500))
        .expect("fresh session");
    engine.quiesce();
    let blob = engine.checkpoint().expect("quiescent engine checkpoints");

    let mut restored = ShardedFlowLut::restore(config(), &blob).expect("own blob restores");
    let again = restored
        .checkpoint()
        .expect("restored engine is quiescent by construction");
    assert_eq!(blob, again, "restore -> checkpoint must be a fixed point");
}

#[test]
fn checkpoint_rejects_a_busy_engine_and_restore_rejects_bad_blobs() {
    let mut engine = ShardedFlowLut::new(config());
    engine.begin_run();
    for d in trace(64) {
        engine.push(d);
    }
    // Descriptors are mid-pipeline: a consistent cut does not exist.
    assert!(matches!(
        engine.checkpoint(),
        Err(CheckpointError::NotQuiescent { .. })
    ));
    engine.quiesce();
    let blob = engine.checkpoint().expect("quiescent engine checkpoints");

    // Truncated blob.
    assert!(ShardedFlowLut::restore(config(), &blob[..blob.len() - 1]).is_err());
    // Garbage magic.
    assert!(matches!(
        ShardedFlowLut::restore(config(), &[0u8; 64]),
        Err(CheckpointError::BadMagic)
    ));
    // Config with the wrong shard count.
    let mut wrong = config();
    wrong.shards = 4;
    assert!(matches!(
        ShardedFlowLut::restore(wrong, &blob),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    // Blobs in the version-1 record and stats layout are refused, for
    // the engine and for a single shard.
    let patch_v1 = |mut bytes: Vec<u8>| {
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes
    };
    assert!(matches!(
        ShardedFlowLut::restore(config(), &patch_v1(blob)),
        Err(CheckpointError::BadVersion(1))
    ));
    let mut sim = FlowLutSim::new(config().shard);
    let sim_blob = sim.checkpoint().expect("fresh sim is quiescent");
    assert!(matches!(
        FlowLutSim::restore(config().shard, &patch_v1(sim_blob)),
        Err(CheckpointError::BadVersion(1))
    ));
}

#[test]
fn rescale_rehomes_every_flow_onto_exactly_one_shard_with_zero_loss() {
    let descs = trace(3_000);
    let (batch, in_flight) = descs.split_at(2_936);

    let mut engine = ShardedFlowLut::new(config());
    Session::new(&mut engine).run(batch).expect("fresh session");

    // Leave real work in flight when the rescale is requested: the
    // drain inside rescale_double must resolve it, not drop it.
    engine.begin_run();
    for &d in in_flight {
        while !engine.push(d) {
            engine.tick();
        }
    }
    assert!(engine.in_pipeline() > 0, "descriptors must be mid-pipeline");

    let drops_before = engine.poll().stats.drops;

    let report = engine.rescale_double().expect("doubled capacity fits");
    assert_eq!(report.old_shards, 2);
    assert_eq!(report.new_shards, 4);
    assert_eq!(engine.shard_count(), 4);

    // Zero descriptor loss: everything offered has resolved, and the
    // rescale introduced no drops.
    let progress = engine.poll();
    assert_eq!(progress.stats.completed, descs.len() as u64);
    assert_eq!(progress.in_pipeline, 0);
    assert_eq!(progress.stats.drops, drops_before);

    // The drain resolves the in-flight tail, which may age or insert
    // flows — membership is judged against the post-drain population.
    let after_keys = resident_keys(&engine);
    assert_eq!(report.migrated_flows, engine.len());
    assert_eq!(after_keys.len() as u64, engine.len());

    // Exactly-one-shard membership, and it is the router's shard.
    for key in &after_keys {
        let owners: Vec<usize> = (0..engine.shard_count())
            .filter(|&i| engine.shard(i).table().peek(key).is_some())
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "flow {key:?} must live on exactly one shard"
        );
        assert_eq!(
            owners[0],
            engine.router().route(key),
            "flow {key:?} must live where the widened router points"
        );
    }

    // The widened engine keeps serving: replaying resident traffic hits
    // without growing occupancy.
    let occupancy = engine.len();
    let report2 = Session::new(&mut engine).run(batch).expect("fresh session");
    assert_eq!(report2.completed, batch.len() as u64);
    assert!(
        engine.len() >= occupancy,
        "replayed flows re-enter or hit; none may be lost"
    );

    // Rescaling again keeps the same guarantees (4 -> 8).
    let report3 = engine.rescale_double().expect("doubled capacity fits");
    assert_eq!(report3.old_shards, 4);
    assert_eq!(report3.new_shards, 8);
    assert_eq!(report3.migrated_flows, engine.len());
    for key in &resident_keys(&engine) {
        let owners = (0..8)
            .filter(|&i| engine.shard(i).table().peek(key).is_some())
            .count();
        assert_eq!(owners, 1, "flow {key:?} must live on exactly one shard");
    }
}

#[test]
fn single_shard_sim_checkpoint_survives_lifecycle_state() {
    // The embedded per-shard blob must carry aging cursors, stats, and
    // the victim list — restore mid-lifecycle, then verify expiry
    // continues identically on both instances.
    let mut cfg = SimConfig::test_small();
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 10_000,
        scan_stride: 4,
    });
    let mut live = FlowLutSim::new(cfg.clone());
    Session::new(&mut live)
        .run(&trace(400))
        .expect("fresh session");

    let blob = {
        live.quiesce();
        live.checkpoint().expect("quiescent sim checkpoints")
    };
    let mut restored = FlowLutSim::restore(cfg, &blob).expect("own blob restores");

    // Idle both past the TTL: the same flows must expire at the same
    // cycles, leaving identical stats and event streams.
    live.tick_many(60_000);
    restored.tick_many(60_000);
    assert_eq!(live.stats(), restored.stats());
    assert_eq!(
        FlowPipeline::poll_events(&mut live),
        FlowPipeline::poll_events(&mut restored)
    );
    assert_eq!(live.table().len(), restored.table().len());
}
