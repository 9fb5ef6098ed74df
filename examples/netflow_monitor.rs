//! NetFlow-style traffic monitor — the paper's motivating application.
//!
//! Streams a synthetic switch-fabric trace (the Figure 6 stand-in)
//! through the timed flow engine with the engine-level idle-TTL
//! [`ExpiryPolicy`] enabled, then prints a NetFlow-style report: top
//! flows by packet count, expiry statistics, and the typed
//! [`FlowEvent`] stream a collector would export records from.
//!
//! Run with: `cargo run --release --example netflow_monitor`

use flowlut::core::{ExpiryPolicy, FlowLutSim, SimConfig};
use flowlut::ddr3::MemorySpec;
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::{FlowEventKind, FlowPipeline};

fn main() {
    let mut cfg = SimConfig::test_small();
    // A mid-size table and an aggressive idle timeout so expiry is
    // visible within a short example run. The expiry scan is incremental
    // — `scan_stride` records per cycle, never a stop-the-world sweep.
    cfg.table.buckets_per_mem = 16_384;
    cfg.table.cam_capacity = 512;
    if let MemorySpec::Ddr3 { geometry, .. } = &mut cfg.memory {
        geometry.rows = 1024;
    }
    cfg.expiry = Some(ExpiryPolicy {
        idle_timeout_cycles: 40_000, // 200 us at the 5 ns system clock
        scan_stride: 8,
    });
    let mut sim = FlowLutSim::new(cfg);

    let trace = FabricTraceProfile::european_2012().generate(30_000);
    println!(
        "streaming {} packets from the synthetic fabric trace...",
        trace.len()
    );
    let report = sim.run(&trace);

    println!("\n== engine report ==");
    println!("  processing rate : {:.2} Mdesc/s", report.mdesc_per_s);
    println!(
        "  new flows       : {} ({} to CAM)",
        report.stats.inserted_mem + report.stats.inserted_cam,
        report.stats.inserted_cam
    );
    println!(
        "  matches         : {} LU1, {} LU2, {} CAM",
        report.stats.lu1_hits, report.stats.lu2_hits, report.stats.cam_hits
    );
    println!("  expired (idle TTL)     : {}", report.stats.expired_ttl);
    println!("  drops (table full)     : {}", report.stats.drops);

    // NetFlow-style top talkers.
    let mut records: Vec<_> = sim.flow_state().iter().map(|(id, r)| (id, *r)).collect();
    records.sort_by_key(|(_, r)| std::cmp::Reverse(r.packets));
    println!("\n== top 10 live flows by packets ==");
    println!(
        "{:<14} {:>8} {:>10} {:>12}",
        "flow id", "packets", "bytes", "duration us"
    );
    // Records are stamped in system cycles; convert on export.
    let period_ns = sim.config().sys_period_ns();
    for (id, r) in records.iter().take(10) {
        println!(
            "{:<14} {:>8} {:>10} {:>12.1}",
            id.to_string(),
            r.packets,
            r.bytes,
            r.duration_sys() as f64 * period_ns / 1000.0
        );
    }

    let live = sim.flow_state().len();
    let table = sim.table().len();
    println!("\nlive flows: {live} (table holds {table})");
    assert_eq!(live as u64, table, "records and table must agree");

    // Idle-time advance: no packets arrive, so every flow ages past the
    // 200 us idle timeout and the incremental scan sweeps them out,
    // raising one typed event per expiry — the export trigger a NetFlow
    // collector keys on.
    sim.tick_many(200_000);
    let events = FlowPipeline::poll_events(&mut sim);
    let expiries = events
        .iter()
        .filter(|e| e.kind == FlowEventKind::ExpiredTtl)
        .count();
    println!(
        "after 1 ms idle: {} live flows, {} expiry events delivered, {} expired in total",
        sim.flow_state().len(),
        expiries,
        sim.stats().expired_ttl
    );
    if let Some(e) = events.first() {
        println!(
            "first event: {:?} key {:?} at cycle {}",
            e.kind, e.key, e.now_sys
        );
    }
    assert!(
        sim.flow_state().len() < live,
        "idle flows must expire during the idle stretch"
    );
    assert_eq!(sim.flow_state().len() as u64, sim.table().len());
}
