//! Property tests: the CAM against a reference set model and against a
//! linear-scan reference that answers every search by `position`.

use std::collections::HashMap;

use proptest::prelude::*;

use flowlut_cam::{Cam, CamFullError, CamStats};

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Delete(u16),
    Search(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..48).prop_map(Op::Insert),
        (0u16..48).prop_map(Op::Delete),
        (0u16..48).prop_map(Op::Search),
    ]
}

/// Every public `Cam` operation, with a key universe small enough that
/// duplicates and a full CAM are common.
#[derive(Debug, Clone)]
enum FullOp {
    Insert(u8),
    Delete(u8),
    DeleteSlot(usize),
    RestoreAt(usize, u8),
    /// Drains keys that are multiples of the operand; 0 means `clear`.
    DrainOrClear(u8),
    Search(u8),
    Peek(u8),
}

const LINEAR_CAPACITY: usize = 12;

fn full_op_strategy() -> impl Strategy<Value = FullOp> {
    prop_oneof![
        (0u8..8).prop_map(FullOp::Insert),
        (0u8..8).prop_map(FullOp::Insert),
        (0u8..8).prop_map(FullOp::Delete),
        (0..LINEAR_CAPACITY).prop_map(FullOp::DeleteSlot),
        (0..LINEAR_CAPACITY + 1, 0u8..8).prop_map(|(s, k)| FullOp::RestoreAt(s, k)),
        (0u8..5).prop_map(FullOp::DrainOrClear),
        (0u8..8).prop_map(FullOp::Search),
        (0u8..8).prop_map(FullOp::Peek),
    ]
}

/// The CAM as the hardware describes it: a slot array searched by a
/// linear priority scan, with the statistics `Cam` documents.
struct LinearCam {
    slots: Vec<Option<u8>>,
    stats: CamStats,
}

impl LinearCam {
    fn new(capacity: usize) -> Self {
        LinearCam {
            slots: vec![None; capacity],
            stats: CamStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn peek(&self, key: u8) -> Option<usize> {
        self.slots.iter().position(|s| *s == Some(key))
    }

    fn search(&mut self, key: u8) -> Option<usize> {
        self.stats.searches += 1;
        let hit = self.peek(key);
        self.stats.hits += u64::from(hit.is_some());
        hit
    }

    fn insert(&mut self, key: u8) -> Result<usize, CamFullError> {
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            self.stats.insert_failures += 1;
            return Err(CamFullError {
                capacity: self.slots.len(),
            });
        };
        self.slots[slot] = Some(key);
        self.stats.inserts += 1;
        self.stats.high_watermark = self.stats.high_watermark.max(self.len());
        Ok(slot)
    }

    fn restore_at(&mut self, slot: usize, key: u8) -> Result<(), &'static str> {
        match self.slots.get(slot) {
            None => Err("CAM slot out of range"),
            Some(Some(_)) => Err("CAM slot already occupied"),
            Some(None) => {
                self.slots[slot] = Some(key);
                Ok(())
            }
        }
    }

    fn delete_slot(&mut self, slot: usize) -> Option<u8> {
        let key = self.slots[slot].take()?;
        self.stats.deletes += 1;
        Some(key)
    }

    fn delete(&mut self, key: u8) -> Option<usize> {
        let slot = self.peek(key)?;
        self.delete_slot(slot);
        Some(slot)
    }

    fn drain_filter(&mut self, pred: impl Fn(&u8) -> bool) -> Vec<u8> {
        (0..self.slots.len())
            .filter(|&s| self.slots[s].as_ref().is_some_and(&pred))
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|s| self.delete_slot(s))
            .collect()
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

proptest! {
    /// With duplicates allowed and every operation in play, the indexed
    /// CAM answers exactly as a linear priority scan over its slots:
    /// same returned slots and keys, same contents slot by slot, same
    /// iteration order and same statistics after every step.
    #[test]
    fn cam_matches_linear_reference(ops in prop::collection::vec(full_op_strategy(), 1..200)) {
        let mut cam: Cam<u8> = Cam::new(LINEAR_CAPACITY);
        let mut reference = LinearCam::new(LINEAR_CAPACITY);
        for op in ops {
            match op {
                FullOp::Insert(k) => prop_assert_eq!(cam.insert(k), reference.insert(k)),
                FullOp::Delete(k) => prop_assert_eq!(cam.delete(&k), reference.delete(k)),
                FullOp::DeleteSlot(s) => {
                    prop_assert_eq!(cam.delete_slot(s), reference.delete_slot(s));
                }
                FullOp::RestoreAt(s, k) => {
                    prop_assert_eq!(cam.restore_at(s, k), reference.restore_at(s, k));
                }
                FullOp::DrainOrClear(0) => {
                    cam.clear();
                    reference.clear();
                }
                FullOp::DrainOrClear(m) => {
                    let pred = |k: &u8| k.is_multiple_of(m);
                    prop_assert_eq!(cam.drain_filter(pred), reference.drain_filter(pred));
                }
                FullOp::Search(k) => prop_assert_eq!(cam.search(&k), reference.search(k)),
                FullOp::Peek(k) => prop_assert_eq!(cam.peek(&k), reference.peek(k)),
            }
            prop_assert_eq!(cam.len(), reference.len());
            for slot in 0..LINEAR_CAPACITY {
                prop_assert_eq!(cam.entry(slot), reference.slots[slot].as_ref());
            }
            let iter: Vec<(usize, u8)> = cam.iter().map(|(s, k)| (s, *k)).collect();
            let expected: Vec<(usize, u8)> = reference
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, k)| k.map(|k| (s, k)))
                .collect();
            prop_assert_eq!(iter, expected);
            prop_assert_eq!(cam.stats(), &reference.stats);
        }
    }

    /// For unique-key usage (the flow table's contract) the CAM matches
    /// a map model, and slot indices remain stable until deletion.
    #[test]
    fn cam_matches_model(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut cam: Cam<u16> = Cam::new(48);
        let mut model: HashMap<u16, usize> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if model.contains_key(&k) {
                        continue; // caller contract: search before insert
                    }
                    let slot = cam.insert(k).expect("48-key universe fits");
                    model.insert(k, slot);
                }
                Op::Delete(k) => {
                    let cam_slot = cam.delete(&k);
                    let model_slot = model.remove(&k);
                    prop_assert_eq!(cam_slot, model_slot);
                }
                Op::Search(k) => {
                    prop_assert_eq!(cam.search(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(cam.len(), model.len());
        }
        // The allocator never double-books: all occupied slots distinct.
        let mut seen = std::collections::HashSet::new();
        for (slot, _) in cam.iter() {
            prop_assert!(seen.insert(slot));
        }
    }

    /// Lowest-free-slot allocation: after any interleaving, a fresh
    /// insert takes the smallest free index.
    #[test]
    fn lowest_free_slot(
        inserts in prop::collection::vec(0u16..32, 1..32),
        delete_idx in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut cam: Cam<u16> = Cam::new(64);
        let mut resident: Vec<u16> = Vec::new();
        for k in inserts {
            if cam.peek(&k).is_none() {
                cam.insert(k).unwrap();
                resident.push(k);
            }
        }
        for idx in delete_idx {
            if resident.is_empty() {
                break;
            }
            let k = resident.remove(idx.index(resident.len()));
            cam.delete(&k);
        }
        // Compute the expected lowest free slot.
        let occupied: std::collections::HashSet<usize> =
            cam.iter().map(|(s, _)| s).collect();
        let expected = (0..cam.capacity()).find(|s| !occupied.contains(s)).unwrap();
        let got = cam.insert(999).unwrap();
        prop_assert_eq!(got, expected);
    }
}
