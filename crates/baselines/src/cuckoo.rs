//! Two-function cuckoo hashing with kick-out insertion.

use flowlut_core::backend::{FlowBackend, FlowStore, FullError, OpStats};
use flowlut_hash::H3Hash;
use flowlut_traffic::FlowKey;

use crate::traits::full_error;

/// A two-table cuckoo hash (Thinh et al., the paper's reference \[7\]).
///
/// Lookup probes exactly two buckets — the O(1) guarantee that makes
/// cuckoo attractive — but insertion may *displace* resident keys in a
/// chain of kicks, bounded by `max_kicks`. The paper's stated drawback,
/// "the nondeterministic time to build up a hash table", is directly
/// observable here via [`OpStats::relocations`] and
/// [`CuckooTable::worst_insert_kicks`].
#[derive(Debug)]
pub struct CuckooTable {
    hashes: [H3Hash; 2],
    tables: [Vec<Option<FlowKey>>; 2],
    /// Homeless victims of aborted kick chains (a small on-chip stash,
    /// as practical cuckoo implementations keep).
    stash: Vec<FlowKey>,
    stash_capacity: usize,
    max_kicks: usize,
    len: usize,
    stats: OpStats,
    worst_insert_kicks: u64,
}

impl CuckooTable {
    /// Creates a cuckoo table with two sub-tables of `buckets_per_table`
    /// single-entry cells each. `_k` is accepted for interface symmetry
    /// with the bucketised baselines but classic cuckoo uses one cell per
    /// bucket, so it must be ≥ 1 and only 1 is modelled.
    ///
    /// # Panics
    ///
    /// Panics if `buckets_per_table`, `_k` or `max_kicks` is zero.
    pub fn new(buckets_per_table: u32, _k: usize, max_kicks: usize, seed: u64) -> Self {
        assert!(buckets_per_table > 0 && _k > 0 && max_kicks > 0);
        CuckooTable {
            hashes: [
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0xA5A5),
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0x5A5A),
            ],
            tables: [
                vec![None; buckets_per_table as usize],
                vec![None; buckets_per_table as usize],
            ],
            stash: Vec::new(),
            stash_capacity: 8,
            max_kicks,
            len: 0,
            stats: OpStats::default(),
            worst_insert_kicks: 0,
        }
    }

    fn cell_of(&self, table: usize, key: &FlowKey) -> usize {
        self.hashes[table].bucket(key.as_bytes(), self.tables[table].len() as u32) as usize
    }

    /// The longest kick chain any single insert has needed — the
    /// build-time nondeterminism metric.
    pub fn worst_insert_kicks(&self) -> u64 {
        self.worst_insert_kicks
    }

    /// Places `key`, which the caller has checked is not resident.
    fn place(&mut self, key: FlowKey) -> Result<(), FullError> {
        self.stats.inserts += 1;
        let mut cur = key;
        let mut table = 0usize;
        let mut kicks = 0u64;
        for _ in 0..=self.max_kicks {
            let cell = self.cell_of(table, &cur);
            self.stats.mem_reads += 1;
            match self.tables[table][cell] {
                None => {
                    self.tables[table][cell] = Some(cur);
                    self.stats.mem_writes += 1;
                    self.len += 1;
                    self.worst_insert_kicks = self.worst_insert_kicks.max(kicks);
                    return Ok(());
                }
                Some(resident) => {
                    // Kick the resident out and continue with it in the
                    // other table.
                    self.tables[table][cell] = Some(cur);
                    self.stats.mem_writes += 1;
                    self.stats.relocations += 1;
                    kicks += 1;
                    cur = resident;
                    table ^= 1;
                }
            }
        }
        // Kick budget exhausted: `cur` is the homeless victim of the
        // chain. Park it in the stash so no resident key is ever lost;
        // a full stash means the structure has genuinely failed.
        self.worst_insert_kicks = self.worst_insert_kicks.max(kicks);
        if self.stash.len() < self.stash_capacity {
            self.stash.push(cur);
            self.stats.cam_spills += 1;
            self.len += 1; // the new key landed; the victim stays resident
            Ok(())
        } else {
            // Stash full: undo the chain so the table is exactly as it
            // was and `key` is the one left out. Every cell on the chain
            // holds the key moved into it, and the key it evicted hashes
            // to that same cell, so each swap back restores one kick.
            table ^= 1;
            for _ in 0..kicks {
                let cell = self.cell_of(table, &cur);
                if let Some(moved) = self.tables[table][cell].replace(cur) {
                    cur = moved;
                }
                self.stats.mem_writes += 1;
                table ^= 1;
            }
            debug_assert_eq!(cur, key, "the unwound chain ends at the rejected key");
            self.stats.rejected += 1;
            Err(full_error(self, key))
        }
    }
}

impl FlowStore for CuckooTable {
    fn name(&self) -> &'static str {
        "cuckoo"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.place(key).map(|()| true)
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        self.stats.mem_reads += 2;
        if self.stash.contains(key) {
            return true;
        }
        (0..2).any(|t| {
            let cell = self.cell_of(t, key);
            self.tables[t][cell].as_ref() == Some(key)
        })
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        self.stats.mem_reads += 2;
        if let Some(i) = self.stash.iter().position(|k| k == key) {
            self.stash.swap_remove(i);
            self.len -= 1;
            return true;
        }
        for t in 0..2 {
            let cell = self.cell_of(t, key);
            if self.tables[t][cell].as_ref() == Some(key) {
                self.tables[t][cell] = None;
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
        (self.tables[0].len() + self.tables[1].len() + self.stash_capacity) as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

impl FlowBackend for CuckooTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = CuckooTable::new(128, 1, 100, 1);
        t.insert(key(1)).unwrap();
        assert!(t.contains(&key(1)));
        assert!(t.remove(&key(1)));
        assert!(!t.contains(&key(1)));
    }

    #[test]
    fn lookup_is_exactly_two_probes() {
        let mut t = CuckooTable::new(128, 1, 100, 1);
        for i in 0..50 {
            t.insert(key(i)).unwrap();
        }
        let before = t.op_stats().mem_reads;
        for i in 0..50 {
            assert!(t.contains(&key(i)));
        }
        assert_eq!(t.op_stats().mem_reads - before, 100);
    }

    #[test]
    fn kicks_happen_and_membership_survives() {
        let mut t = CuckooTable::new(64, 1, 500, 3);
        let mut inserted = Vec::new();
        for i in 0..60 {
            if t.insert(key(i)).is_ok() {
                inserted.push(i);
            }
        }
        assert!(
            t.op_stats().relocations > 0,
            "50%-loaded cuckoo should have kicked at least once"
        );
        for &i in &inserted {
            assert!(t.contains(&key(i)), "key {i} lost after kicks");
        }
    }

    #[test]
    fn build_time_is_nondeterministic_in_load() {
        // The paper's criticism: kick chains grow with load. Compare the
        // relocation count for the first vs the last quarter of inserts.
        let mut t = CuckooTable::new(256, 1, 1000, 9);
        let mut early = 0;
        let mut late = 0;
        for i in 0..200 {
            let before = t.op_stats().relocations;
            let _ = t.insert(key(i));
            let kicks = t.op_stats().relocations - before;
            if i < 50 {
                early += kicks;
            } else if i >= 150 {
                late += kicks;
            }
        }
        assert!(
            late > early,
            "kick pressure must rise with load: early {early}, late {late}"
        );
    }

    #[test]
    fn insert_fails_when_kick_budget_exhausted() {
        // Tiny table, force failure: a rejected insert must leave the
        // rejected key out and every accepted key in.
        let mut t = CuckooTable::new(4, 1, 8, 2);
        let mut accepted = Vec::new();
        let mut failed = false;
        for i in 0..40 {
            let len = t.len();
            match t.insert(key(i)) {
                Ok(_) => accepted.push(i),
                Err(e) => {
                    failed = true;
                    assert_eq!(e.key, key(i));
                    assert!(!t.contains(&key(i)), "rejected key {i} is resident");
                    assert_eq!(t.len(), len, "a rejected insert changed len");
                }
            }
            for &a in &accepted {
                assert!(
                    t.contains(&key(a)),
                    "accepted key {a} lost after insert {i}"
                );
            }
        }
        assert!(failed, "overloading an 8-cell cuckoo must fail");
        assert_eq!(t.len(), accepted.len() as u64);
    }
}
