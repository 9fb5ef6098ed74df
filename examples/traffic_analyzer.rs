//! The Figure 7 system: a real-time traffic analyzer around the flow
//! processor — packet buffer, event engine and stats engine — assembled
//! from what [`FlowService`] already provides:
//!
//! * packet buffer: the service's bounded ingest queue; a refused
//!   `try_send` is a buffer drop;
//! * event engine: the lifecycle [`FlowEvent`]s from
//!   [`FlowService::events`] plus detectors on each phase's
//!   [`SessionProgress`] deltas (new-flow surge, table pressure, drops);
//! * stats engine: the offered descriptors (protocol mix, size
//!   histogram) and the per-shard flow records (flow-size distribution,
//!   top flows).
//!
//! Streams normal fabric traffic, then injects a port-scan-like surge of
//! single-packet flows, shows the event engine catching it, and lets the
//! table idle until every flow ages out.
//!
//! Run with: `cargo run --release --example traffic_analyzer`

use std::collections::BTreeMap;

use flowlut::core::{ExpiryPolicy, FlowRecord, SimConfig};
use flowlut::ddr3::MemorySpec;
use flowlut::engine::EngineConfig;
use flowlut::service::{FlowService, ServiceConfig};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
use flowlut::{FlowEvent, FlowEventKind, SessionProgress};

/// Event-engine threshold: a phase whose new-flow share exceeds this is
/// a surge (scan / DDoS symptom; Figure 6 keeps steady traffic far below).
const SURGE_NEW_FLOW_FRACTION: f64 = 0.7;
/// Event-engine threshold: table load factor that counts as pressure.
const PRESSURE_LOAD_FACTOR: f64 = 0.9;
/// Arrivals are offered in slices of this many system cycles (320 ns).
const SLICE_CYCLES: u64 = 64;
/// Idle TTL of the flow table, in system cycles (300 us at 5 ns).
const IDLE_TIMEOUT_CYCLES: u64 = 60_000;

fn config() -> ServiceConfig {
    let mut shard = SimConfig::test_small();
    shard.table.buckets_per_mem = 16_384;
    shard.table.cam_capacity = 512;
    if let MemorySpec::Ddr3 { geometry, .. } = &mut shard.memory {
        geometry.rows = 1024;
    }
    shard.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: IDLE_TIMEOUT_CYCLES,
        scan_stride: 8,
    });
    let mut engine = EngineConfig::test_small();
    engine.shard = shard;
    ServiceConfig {
        ingest_depth: 1024,
        ..ServiceConfig::new(engine)
    }
}

/// The event engine over one phase: prints the phase's lifecycle events
/// and runs the detectors on its counter deltas. Returns `true` when the
/// new-flow surge detector fired.
fn detect(
    phase: &str,
    before: &SessionProgress,
    after: &SessionProgress,
    events: &[FlowEvent],
    capacity: u64,
) -> bool {
    let d = after.stats.delta_since(&before.stats);
    let new_flows = d.inserted_mem + d.inserted_cam;
    let new_share = new_flows as f64 / d.completed.max(1) as f64;
    let load = after.occupancy.total() as f64 / capacity as f64;
    let expired = events
        .iter()
        .filter(|e| e.kind == FlowEventKind::ExpiredTtl)
        .count();
    println!(
        "{phase}: {} processed, {new_flows} new flows ({:.0}%), load {:.1}%, \
         {expired} idle-TTL expiries",
        d.completed,
        new_share * 100.0,
        load * 100.0
    );
    let surge = new_share > SURGE_NEW_FLOW_FRACTION;
    if surge {
        println!(
            "  !! NEW-FLOW SURGE: {:.0}% of the phase created flows (scan symptom)",
            new_share * 100.0
        );
    }
    if load > PRESSURE_LOAD_FACTOR {
        println!("  !! TABLE PRESSURE: load factor {load:.2}");
    }
    if d.drops > 0 {
        println!(
            "  !! FLOW DROPS: {} descriptors found the table full",
            d.drops
        );
    }
    surge
}

/// Runs one traffic phase through the packet buffer — `per_slice`
/// arrivals offered to the ingest queue every [`SLICE_CYCLES`] cycles,
/// then a drain — and the event engine. Returns whether it tripped the
/// surge detector.
fn phase(
    svc: &mut FlowService,
    name: &str,
    packets: &[PacketDescriptor],
    per_slice: usize,
    capacity: u64,
) -> bool {
    let before = svc.poll();
    let handle = svc.handle();
    let mut buffer_drops = 0;
    for slice in packets.chunks(per_slice) {
        for &d in slice {
            if !handle.try_send(d).expect("queue open") {
                buffer_drops += 1;
            }
        }
        svc.pump(SLICE_CYCLES);
    }
    svc.drain();
    let after = svc.poll();
    let completed = after.stats.completed - before.stats.completed;
    assert_eq!(
        completed + buffer_drops,
        packets.len() as u64,
        "{name}: every offered descriptor is processed or counted as a buffer drop"
    );
    println!(
        "\n{name}: {} packets offered, {buffer_drops} dropped at the packet buffer",
        packets.len()
    );
    detect(name, &before, &after, &svc.events(), capacity)
}

fn main() {
    let cfg = config();
    let capacity = cfg.engine.shards as u64 * cfg.engine.shard.table.capacity();
    let period_ns = cfg.engine.sys_period_ns();
    let mut svc = FlowService::new(cfg).expect("valid config");

    // Phase 1: normal fabric traffic at ~40 Mpps (13 per 320 ns).
    let normal = FabricTraceProfile::european_2012().generate(15_000);
    let surge = phase(&mut svc, "normal", &normal, 13, capacity);
    assert!(!surge, "steady fabric traffic must not look like a scan");

    // Phase 2: a scan at line rate — thousands of single-packet flows.
    let scan: Vec<PacketDescriptor> = PacketDescriptor::sequence(
        (0..4_000).map(|i| FlowKey::from(FiveTuple::from_index(1_000_000 + i))),
    );
    let surge = phase(&mut svc, "scan", &scan, SLICE_CYCLES as usize, capacity);
    assert!(surge, "the scan must trip the surge detector");

    // Stats engine, part 1: the offered descriptors.
    let offered = || normal.iter().chain(&scan);
    let mut protocols: BTreeMap<u8, u64> = BTreeMap::new();
    let mut sizes = [0u64; 5];
    for d in offered() {
        // The canonical wire layout stores the protocol in the last byte.
        let proto = *d.key.as_bytes().last().expect("keys are non-empty");
        *protocols.entry(proto).or_default() += 1;
        sizes[[127, 255, 511, 1023]
            .iter()
            .take_while(|&&hi| d.frame_bytes > hi)
            .count()] += 1;
    }
    println!("\n== stats engine ==");
    println!(
        "  packets: {}, bytes: {}",
        offered().count(),
        offered().map(|d| u64::from(d.frame_bytes)).sum::<u64>()
    );
    println!("  protocol mix: {protocols:?}");
    println!(
        "  frame sizes (B) <=127: {}, 128-255: {}, 256-511: {}, 512-1023: {}, >=1024: {}",
        sizes[0], sizes[1], sizes[2], sizes[3], sizes[4]
    );

    // Stats engine, part 2: the live flow records of every shard.
    let mut records: Vec<FlowRecord> = Vec::new();
    for i in 0..svc.engine().shard_count() {
        records.extend(svc.engine().shard(i).flow_state().iter().map(|(_, r)| *r));
    }
    let mut classes = [0u64; 5];
    for r in &records {
        classes[[1, 10, 100, 1000]
            .iter()
            .take_while(|&&hi| r.packets > hi)
            .count()] += 1;
    }
    println!(
        "  flow sizes (packets) 1: {}, 2-10: {}, 11-100: {}, 101-1000: {}, >1000: {}",
        classes[0], classes[1], classes[2], classes[3], classes[4]
    );
    records.sort_by_key(|r| std::cmp::Reverse(r.packets));
    println!("  top flows:");
    for r in records.iter().take(3) {
        println!(
            "    {:?}: {} packets, {} bytes over {:.1} us",
            r.key,
            r.packets,
            r.bytes,
            r.duration_sys() as f64 * period_ns / 1000.0
        );
    }

    // Phase 3: no arrivals for two idle timeouts — the aging scan
    // expires every flow and the event stream reports each one.
    let before = svc.poll();
    svc.pump(2 * IDLE_TIMEOUT_CYCLES);
    let events = svc.events();
    println!();
    detect("idle", &before, &svc.poll(), &events, capacity);
    assert!(
        events.iter().any(|e| e.kind == FlowEventKind::ExpiredTtl),
        "idle flows must age out through the event stream"
    );
}
