//! Property-based invariants spanning the workspace: the Hash-CAM table
//! against a reference model, wire-format round trips, flow-ID packing,
//! and DDR3 data integrity under random schedules.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use flowlut::core::codec;
use flowlut::core::fid::{FlowId, Location, PathId};
use flowlut::core::{HashCamTable, InsertError, TableConfig};
use flowlut::ddr3::{
    ControllerConfig, Geometry, MemRequest, MemoryController, MemoryModel, TimingPreset,
};
use flowlut::traffic::{FiveTuple, FlowKey};

fn key_strategy() -> impl Strategy<Value = FlowKey> {
    // Small index space so sequences revisit keys (exercising duplicate
    // and delete paths).
    (0u64..64).prop_map(|i| FlowKey::from(FiveTuple::from_index(i)))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(FlowKey),
    Delete(FlowKey),
    Lookup(FlowKey),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Delete),
        key_strategy().prop_map(Op::Lookup),
    ]
}

proptest! {
    /// The Hash-CAM table behaves exactly like a set, for any operation
    /// sequence, as long as capacity is not exhausted.
    #[test]
    fn table_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut table = HashCamTable::new(TableConfig {
            buckets_per_mem: 64,
            entries_per_bucket: 2,
            cam_capacity: 64, // roomy: 64-key universe cannot overflow
            entry_slot_bytes: 16,
            hash_seed: 99,
        });
        let mut model: HashSet<FlowKey> = HashSet::new();
        let mut ids: HashMap<FlowKey, FlowId> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(k) => match table.insert(k) {
                    Ok(fid) => {
                        prop_assert!(model.insert(k), "table accepted duplicate");
                        ids.insert(k, fid);
                    }
                    Err(InsertError::Duplicate(fid)) => {
                        prop_assert!(model.contains(&k));
                        prop_assert_eq!(ids[&k], fid);
                    }
                    Err(InsertError::TableFull) => {
                        prop_assert!(false, "capacity exceeded with 64-key universe");
                    }
                },
                Op::Delete(k) => {
                    let table_had = table.delete(&k).is_some();
                    let model_had = model.remove(&k);
                    ids.remove(&k);
                    prop_assert_eq!(table_had, model_had);
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(table.lookup(&k).is_some(), model.contains(&k));
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(table.len(), model.len() as u64);
            prop_assert_eq!(table.occupancy().total(), table.len());
        }
        // Every resident key is found exactly where its ID says.
        for (k, loc) in table.iter() {
            let fid = table.peek(&k).unwrap();
            prop_assert_eq!(fid.decode(2), loc);
            prop_assert!(model.contains(&k));
        }
    }

    /// Bucket serialisation round-trips arbitrary slot patterns.
    #[test]
    fn codec_roundtrip(
        present in prop::collection::vec(any::<bool>(), 1..8),
        base in 0u64..1_000_000,
        slot_bytes in 16usize..32,
    ) {
        let slots: Vec<Option<FlowKey>> = present
            .iter()
            .enumerate()
            .map(|(i, p)| p.then(|| FlowKey::from(FiveTuple::from_index(base + i as u64))))
            .collect();
        let total = (slots.len() * slot_bytes).next_multiple_of(32);
        let bytes = codec::serialize_bucket(&slots, slot_bytes, total);
        let back = codec::deserialize_bucket(&bytes, slot_bytes, slots.len());
        prop_assert_eq!(&back, &slots);
        // find_key agrees with the slot array.
        for (i, slot) in slots.iter().enumerate() {
            if let Some(k) = slot {
                prop_assert_eq!(codec::find_key(&bytes, slot_bytes, slots.len(), k), Some(i as u8));
            }
        }
        let absent = FlowKey::from(FiveTuple::from_index(base + 1_000_000));
        prop_assert_eq!(codec::find_key(&bytes, slot_bytes, slots.len(), &absent), None);
    }

    /// Flow-ID packing round-trips every representable location.
    #[test]
    fn flow_id_roundtrip(
        cam_slot in 0u32..(1 << 20),
        bucket in 0u32..(1 << 22),
        slot in 0u8..4,
        path_b in any::<bool>(),
    ) {
        let k = 4u8;
        let cam = Location::Cam(cam_slot);
        prop_assert_eq!(FlowId::encode(cam, k).decode(k), cam);
        let mem = Location::Mem {
            path: if path_b { PathId::B } else { PathId::A },
            bucket,
            slot,
        };
        prop_assert_eq!(FlowId::encode(mem, k).decode(k), mem);
    }

    /// DDR3 controller data integrity: for any interleaving of writes and
    /// reads over a small address space, every read returns the most
    /// recent prior write to that address (per-bank FIFO guarantees
    /// same-address ordering).
    #[test]
    fn controller_read_your_writes(
        ops in prop::collection::vec((0u64..32, any::<bool>(), any::<u8>()), 1..60),
    ) {
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: Geometry::tiny(),
            queue_capacity: 256,
            refresh_enabled: false,
            ..ControllerConfig::default()
        });
        let mut shadow: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new(); // read id -> data
        for (id, (addr, is_write, fill)) in ops.into_iter().enumerate() {
            let id = id as u64;
            if is_write {
                let data = vec![fill; 32];
                shadow.insert(addr, data.clone());
                ctrl.enqueue(MemRequest::write(id, addr, data)).unwrap();
            } else {
                expected.insert(
                    id,
                    shadow.get(&addr).cloned().unwrap_or_else(|| vec![0u8; 32]),
                );
                ctrl.enqueue(MemRequest::read(id, addr)).unwrap();
            }
        }
        let done = ctrl.drain(1_000_000);
        for c in done {
            if let Some(want) = expected.get(&c.id) {
                prop_assert_eq!(c.data.as_ref(), Some(want), "read {} at {}", c.id, c.addr);
            }
        }
    }

    /// The DDR3 device's JEDEC checks never reject what the controller
    /// schedules (no panics), and every request completes, for arbitrary
    /// address mixes.
    #[test]
    fn controller_always_drains(addrs in prop::collection::vec(0u64..4096, 1..100)) {
        let mut ctrl = MemoryController::new(ControllerConfig {
            timing: TimingPreset::Ddr3_1600.params(),
            geometry: Geometry::tiny(),
            queue_capacity: 512,
            refresh_enabled: true,
            ..ControllerConfig::default()
        });
        let n = addrs.len();
        for (i, a) in addrs.into_iter().enumerate() {
            ctrl.enqueue(MemRequest::read(i as u64, a % Geometry::tiny().total_bursts()))
                .unwrap();
        }
        let done = ctrl.drain(2_000_000);
        prop_assert_eq!(done.len(), n);
    }
}

mod sim_properties {
    use super::*;
    use flowlut::core::{FlowLutSim, SimConfig};
    use flowlut::traffic::PacketDescriptor;

    fn sim_cfg() -> SimConfig {
        let mut cfg = SimConfig::test_small();
        cfg.table.buckets_per_mem = 2048;
        cfg.table.cam_capacity = 128;
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any packet sequence over a small key universe resolves to the
        /// set semantics of the functional table: one entry per distinct
        /// key, every packet attributed, per-flow order preserved.
        #[test]
        fn sim_matches_set_semantics(
            key_ids in prop::collection::vec(0u64..40, 1..120),
        ) {
            let mut sim = FlowLutSim::new(sim_cfg());
            let descs: Vec<PacketDescriptor> = key_ids
                .iter()
                .enumerate()
                .map(|(s, &i)| PacketDescriptor::new(
                    s as u64,
                    FlowKey::from(FiveTuple::from_index(i)),
                ))
                .collect();
            let report = sim.run(&descs);
            prop_assert_eq!(report.completed, descs.len() as u64);
            prop_assert_eq!(report.stats.drops, 0);

            let distinct: HashSet<u64> = key_ids.iter().copied().collect();
            prop_assert_eq!(sim.table().len(), distinct.len() as u64);
            prop_assert_eq!(
                report.stats.inserted_mem + report.stats.inserted_cam,
                distinct.len() as u64
            );
            // Packet conservation in the flow records.
            let packets: u64 = sim.flow_state().iter().map(|(_, r)| r.packets).sum();
            prop_assert_eq!(packets, key_ids.len() as u64);
            // Per-flow completion order == arrival order.
            let mut last_done: HashMap<FlowKey, u64> = HashMap::new();
            for d in sim.descriptors() {
                let done = d.t_done.unwrap();
                if let Some(prev) = last_done.insert(d.desc.key, done) {
                    prop_assert!(prev <= done);
                }
            }
        }

        /// Deleting an arbitrary subset after a run leaves exactly the
        /// complement resident.
        #[test]
        fn sim_deletes_leave_complement(
            keys in prop::collection::hash_set(0u64..60, 1..40),
            delete_mask in prop::collection::vec(any::<bool>(), 60),
        ) {
            let mut sim = FlowLutSim::new(sim_cfg());
            let keys: Vec<u64> = keys.into_iter().collect();
            let descs: Vec<PacketDescriptor> = keys
                .iter()
                .enumerate()
                .map(|(s, &i)| PacketDescriptor::new(
                    s as u64,
                    FlowKey::from(FiveTuple::from_index(i)),
                ))
                .collect();
            sim.run(&descs);
            let mut kept = 0u64;
            for &i in &keys {
                if delete_mask[i as usize] {
                    sim.delete_flow(FlowKey::from(FiveTuple::from_index(i)));
                } else {
                    kept += 1;
                }
            }
            for _ in 0..5_000 {
                sim.tick();
            }
            prop_assert_eq!(sim.table().len(), kept);
            for &i in &keys {
                let resident = sim
                    .table()
                    .peek(&FlowKey::from(FiveTuple::from_index(i)))
                    .is_some();
                prop_assert_eq!(resident, !delete_mask[i as usize]);
            }
        }
    }
}
