//! Wide-key (multi-burst bucket) coverage: the paper claims the system
//! is "scalable with respect to … number of tuples for lookup". An IPv6
//! 5-tuple (37 bytes) needs 40-byte entry slots, making each K=2 bucket
//! span three BL8 bursts — exercising the read-assembly and multi-burst
//! write paths of the simulator.

use flowlut::core::{FlowLutSim, HashCamTable, SimConfig, TableConfig};
use flowlut::ddr3::MemorySpec;
use flowlut::traffic::{FlowKey, PacketDescriptor};

/// A synthetic IPv6-style 37-byte tuple.
fn wide_key(i: u64) -> FlowKey {
    let mut bytes = [0u8; 37];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    bytes[8..16].copy_from_slice(&(!i).to_be_bytes());
    bytes[16..24].copy_from_slice(&i.rotate_left(17).to_be_bytes());
    bytes[36] = 6;
    FlowKey::new(&bytes).unwrap()
}

fn wide_config() -> SimConfig {
    let mut cfg = SimConfig::test_small();
    cfg.table = TableConfig {
        buckets_per_mem: 1024,
        entries_per_bucket: 2,
        cam_capacity: 64,
        entry_slot_bytes: 40, // 1 + 37 rounded up: IPv6 5-tuple slots
        hash_seed: 0x1991,
    };
    if let MemorySpec::Ddr3 { geometry, .. } = &mut cfg.memory {
        geometry.rows = 512;
    }
    cfg
}

#[test]
fn bucket_spans_three_bursts() {
    let cfg = wide_config();
    assert_eq!(cfg.table.bucket_bytes(), 80);
    assert_eq!(cfg.table.bursts_per_bucket(32), 3);
    cfg.validate().unwrap();
}

#[test]
fn functional_table_handles_wide_keys() {
    let mut t = HashCamTable::new(wide_config().table);
    for i in 0..500 {
        t.insert(wide_key(i)).unwrap();
    }
    for i in 0..500 {
        assert!(t.lookup(&wide_key(i)).is_some(), "key {i}");
    }
    assert_eq!(t.lookup(&wide_key(1000)), None);
    for i in (0..500).step_by(2) {
        assert!(t.delete(&wide_key(i)).is_some());
    }
    assert_eq!(t.len(), 250);
}

#[test]
fn sim_handles_multi_burst_buckets() {
    let mut sim = FlowLutSim::new(wide_config());
    let descs: Vec<PacketDescriptor> = (0..300)
        .map(|i| PacketDescriptor::new(i, wide_key(i % 100)))
        .collect();
    let report = sim.run(&descs);
    assert_eq!(report.completed, 300);
    assert_eq!(report.stats.drops, 0);
    assert_eq!(sim.table().len(), 100);
    // 3 bursts per bucket read: read count is a multiple of 3.
    assert_eq!(report.stats.reads_issued % 3, 0);
    assert!(report.stats.reads_issued >= 300);
    // Every flow resolved consistently.
    for d in sim.descriptors() {
        assert_eq!(sim.table().peek(&d.desc.key), d.fid);
    }
}

#[test]
fn sim_preload_and_requery_wide_keys() {
    let mut sim = FlowLutSim::new(wide_config());
    let keys: Vec<FlowKey> = (0..200).map(wide_key).collect();
    sim.preload(keys.iter().copied()).unwrap();
    let descs: Vec<PacketDescriptor> = keys
        .iter()
        .enumerate()
        .map(|(s, k)| PacketDescriptor::new(s as u64, *k))
        .collect();
    let report = sim.run(&descs);
    let s = report.stats;
    assert_eq!(
        s.cam_hits + s.lu1_hits + s.lu2_hits,
        200,
        "preloaded wide keys must all match: {s:?}"
    );
    assert_eq!(s.inserted_mem + s.inserted_cam, 0);
}

#[test]
fn wide_and_narrow_tables_have_comparable_throughput_shape() {
    // The wide configuration moves 3x the data per lookup; its
    // throughput must be lower but the engine must stay correct.
    let narrow = {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 1024;
        if let MemorySpec::Ddr3 { geometry, .. } = &mut cfg.memory {
            geometry.rows = 512;
        }
        let mut sim = FlowLutSim::new(cfg);
        let descs: Vec<PacketDescriptor> = (0..1000)
            .map(|i| {
                PacketDescriptor::new(i, FlowKey::from(flowlut::traffic::FiveTuple::from_index(i)))
            })
            .collect();
        sim.run(&descs).mdesc_per_s
    };
    let wide = {
        let mut sim = FlowLutSim::new(wide_config());
        let descs: Vec<PacketDescriptor> = (0..1000)
            .map(|i| PacketDescriptor::new(i, wide_key(i)))
            .collect();
        sim.run(&descs).mdesc_per_s
    };
    assert!(
        wide < narrow,
        "3-burst buckets must cost bandwidth: wide {wide:.1} vs narrow {narrow:.1}"
    );
    assert!(wide > narrow / 6.0, "but not pathologically: {wide:.1}");
}
