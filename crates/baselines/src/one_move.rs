//! Kirsch–Mitzenmacher "power of one move" hashing.

use flowlut_cam::Cam;
use flowlut_core::backend::{FlowBackend, FlowStore, FullError, OpStats};
use flowlut_hash::H3Hash;
use flowlut_traffic::FlowKey;

use crate::traits::full_error;

/// The single-move multiple-choice hash table of the paper's reference
/// \[9\] (Kirsch & Mitzenmacher, "The Power of One Move: Hashing Schemes
/// for Hardware").
///
/// Insertion places the key in the emptiest candidate bucket; if all are
/// full it attempts **exactly one** relocation — moving one resident of a
/// candidate bucket either to one of *its* alternate buckets or, failing
/// that, into the small overflow CAM (64 entries in \[9\]) — and takes
/// the freed slot. The paper's concern, "the additional move during
/// insertion is impractical for high speed requirements", is measurable
/// here via [`OpStats::relocations`] and the extra reads/writes moves
/// cost.
#[derive(Debug)]
pub struct OneMoveTable {
    hashes: Vec<H3Hash>,
    tables: Vec<Vec<Vec<Option<FlowKey>>>>,
    k: usize,
    cam: Cam<FlowKey>,
    len: usize,
    stats: OpStats,
    tie_break: usize,
}

impl OneMoveTable {
    /// Creates a table with `d` choices, `buckets_per_table` buckets of
    /// `k` slots each, and a `cam_capacity`-entry overflow list.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(d: usize, buckets_per_table: u32, k: usize, cam_capacity: usize, seed: u64) -> Self {
        assert!(d > 0 && buckets_per_table > 0 && k > 0 && cam_capacity > 0);
        OneMoveTable {
            hashes: (0..d)
                .map(|i| {
                    H3Hash::with_seed(
                        8 * flowlut_traffic::MAX_KEY_BYTES,
                        seed ^ (0x100 + i as u64),
                    )
                })
                .collect(),
            tables: (0..d)
                .map(|_| (0..buckets_per_table).map(|_| vec![None; k]).collect())
                .collect(),
            k,
            cam: Cam::new(cam_capacity),
            len: 0,
            stats: OpStats::default(),
            tie_break: 0,
        }
    }

    fn bucket_of(&self, table: usize, key: &FlowKey) -> usize {
        self.hashes[table].bucket(key.as_bytes(), self.tables[table].len() as u32) as usize
    }

    /// Entries currently in the overflow CAM.
    pub fn cam_len(&self) -> usize {
        self.cam.len()
    }

    fn try_direct_insert(&mut self, key: &FlowKey) -> Option<()> {
        // Balanced multiple-choice placement (\[9\] builds on the MHT of
        // balanced allocations): take the emptiest candidate bucket, and
        // break ties round-robin so no table saturates ahead of the
        // others — a saturated table starves the one-move stage of free
        // alternate slots.
        let d = self.hashes.len();
        let mut best: Option<(usize, usize, usize)> = None;
        for offset in 0..d {
            let t = (self.tie_break + offset) % d;
            let b = self.bucket_of(t, key);
            let free = self.tables[t][b].iter().filter(|s| s.is_none()).count();
            if free > 0 && best.is_none_or(|(best_free, _, _)| free > best_free) {
                best = Some((free, t, b));
            }
        }
        let (_, t, b) = best?;
        self.tie_break = (self.tie_break + 1) % d;
        let slot = self.tables[t][b]
            .iter()
            .position(|s| s.is_none())
            .expect("bucket with free > 0 has an empty slot");
        self.tables[t][b][slot] = Some(*key);
        self.stats.mem_writes += 1;
        Some(())
    }

    /// Attempts the single move: find a resident of one of `key`'s
    /// candidate buckets whose alternate bucket has space, move it, and
    /// place `key` in the freed slot.
    fn try_one_move(&mut self, key: &FlowKey) -> Option<()> {
        let d = self.hashes.len();
        for t in 0..d {
            let b = self.bucket_of(t, key);
            for slot in 0..self.k {
                let Some(resident) = self.tables[t][b][slot] else {
                    continue;
                };
                // Try every alternate table of the resident.
                for alt in 0..d {
                    if alt == t {
                        continue;
                    }
                    let ab = self.bucket_of(alt, &resident);
                    self.stats.mem_reads += 1;
                    if let Some(free) = self.tables[alt][ab].iter().position(|s| s.is_none()) {
                        self.tables[alt][ab][free] = Some(resident);
                        self.tables[t][b][slot] = Some(*key);
                        self.stats.mem_writes += 2;
                        self.stats.relocations += 1;
                        return Some(());
                    }
                }
            }
        }
        None
    }

    /// Last-resort single move: every alternate bucket is full, so move
    /// one resident of a candidate bucket into the overflow CAM (the
    /// stash absorbing failed moves in \[9\]) and give `key` its DRAM
    /// slot. Keeps new flows in the hash memories, where lookups are
    /// cheapest, and still counts as exactly one move.
    fn try_move_to_cam(&mut self, key: &FlowKey) -> Option<()> {
        if self.cam.len() == self.cam.capacity() {
            return None;
        }
        let t = self.tie_break % self.hashes.len();
        let b = self.bucket_of(t, key);
        let slot = (0..self.k).find(|&s| self.tables[t][b][s].is_some())?;
        let resident = self.tables[t][b][slot]
            .take()
            .expect("slot checked occupied");
        self.cam
            .insert(resident)
            .expect("CAM capacity checked above");
        self.tables[t][b][slot] = Some(*key);
        self.stats.mem_writes += 1;
        self.stats.relocations += 1;
        self.stats.cam_spills += 1;
        Some(())
    }

    /// Places `key`, which the caller has checked is not resident.
    fn place(&mut self, key: FlowKey) -> Result<(), FullError> {
        self.stats.inserts += 1;
        self.stats.mem_reads += self.hashes.len() as u64;
        if self.try_direct_insert(&key).is_some()
            || self.try_one_move(&key).is_some()
            || self.try_move_to_cam(&key).is_some()
        {
            self.len += 1;
            Ok(())
        } else {
            // try_move_to_cam only fails when the CAM itself is full, so
            // there is nowhere left to place the key.
            self.stats.rejected += 1;
            Err(full_error(self, key))
        }
    }
}

impl FlowStore for OneMoveTable {
    fn name(&self) -> &'static str {
        "one-move"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.place(key).map(|()| true)
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        self.stats.cam_searches += 1;
        if self.cam.search(key).is_some() {
            return true;
        }
        self.stats.mem_reads += self.hashes.len() as u64;
        (0..self.hashes.len()).any(|t| {
            let b = self.bucket_of(t, key);
            self.tables[t][b].iter().any(|s| s.as_ref() == Some(key))
        })
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        if self.cam.delete(key).is_some() {
            self.len -= 1;
            return true;
        }
        self.stats.mem_reads += self.hashes.len() as u64;
        for t in 0..self.hashes.len() {
            let b = self.bucket_of(t, key);
            if let Some(slot) = self.tables[t][b]
                .iter()
                .position(|s| s.as_ref() == Some(key))
            {
                self.tables[t][b][slot] = None;
                self.stats.mem_writes += 1;
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    fn capacity(&self) -> u64 {
        (self.tables.iter().map(|t| t.len() * self.k).sum::<usize>() + self.cam.capacity()) as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

impl FlowBackend for OneMoveTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = OneMoveTable::new(2, 64, 1, 64, 4);
        t.insert(key(3)).unwrap();
        assert!(t.contains(&key(3)));
        assert!(t.remove(&key(3)));
        assert!(!t.contains(&key(3)));
    }

    #[test]
    fn one_move_defers_cam_usage() {
        // Same geometry, with vs without moves isn't separable via the
        // public API, but vs d-left at the same load the CAM should stay
        // small thanks to the move. Load to 75% and check.
        let mut t = OneMoveTable::new(2, 128, 1, 64, 5);
        for i in 0..192 {
            t.insert(key(i)).unwrap();
        }
        assert!(t.op_stats().relocations > 0, "moves should have happened");
        assert!(
            t.cam_len() < 40,
            "one-move should keep most overflow out of the CAM, used {}",
            t.cam_len()
        );
        // All keys still findable.
        for i in 0..192 {
            assert!(t.contains(&key(i)), "key {i}");
        }
    }

    #[test]
    fn full_table_errors() {
        let mut t = OneMoveTable::new(2, 2, 1, 2, 6);
        let mut failed = false;
        for i in 0..16 {
            if t.insert(key(i)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }

    #[test]
    fn moves_cost_extra_writes() {
        let mut t = OneMoveTable::new(2, 128, 1, 64, 5);
        for i in 0..192 {
            t.insert(key(i)).unwrap();
        }
        let s = t.op_stats();
        assert!(
            s.mem_writes > s.inserts,
            "relocations must add writes: {} writes for {} inserts",
            s.mem_writes,
            s.inserts
        );
    }
}
