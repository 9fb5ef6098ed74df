//! Multi-choice (d-left / balanced allocations) hashing.

use flowlut_core::backend::{FlowBackend, FlowStore, FullError, OpStats};
use flowlut_hash::H3Hash;
use flowlut_traffic::FlowKey;

use crate::traits::full_error;

/// A d-choice hash table: `d` independent sub-tables, insertion into the
/// least-loaded candidate bucket (ties to the leftmost sub-table — the
/// classic *d-left* rule).
///
/// This is the paper's reference \[6\] (Azar, Broder, Karlin & Upfal,
/// "Balanced Allocations"): the power of d choices keeps the maximum
/// bucket load near `ln ln n / ln d`. Lookup must probe all `d`
/// sub-tables (no early exit in the hardware analogue, since they are
/// searched in parallel), which is the memory-bandwidth cost the paper's
/// two-choice + CAM + early-exit design trims.
#[derive(Debug)]
pub struct DLeftTable {
    hashes: Vec<H3Hash>,
    /// `d` sub-tables of `buckets_per_table` buckets of `k` slots.
    tables: Vec<Vec<Vec<Option<FlowKey>>>>,
    k: usize,
    len: usize,
    stats: OpStats,
}

impl DLeftTable {
    /// Creates a d-left table.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(d: usize, buckets_per_table: u32, k: usize, seed: u64) -> Self {
        assert!(
            d > 0 && buckets_per_table > 0 && k > 0,
            "dimensions must be non-zero"
        );
        DLeftTable {
            hashes: (0..d)
                .map(|i| {
                    H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ (i as u64 + 1))
                })
                .collect(),
            tables: (0..d)
                .map(|_| (0..buckets_per_table).map(|_| vec![None; k]).collect())
                .collect(),
            k,
            len: 0,
            stats: OpStats::default(),
        }
    }

    /// Number of hash choices.
    pub fn d(&self) -> usize {
        self.hashes.len()
    }

    fn bucket_of(&self, table: usize, key: &FlowKey) -> usize {
        self.hashes[table].bucket(key.as_bytes(), self.tables[table].len() as u32) as usize
    }

    /// Highest bucket occupancy across all sub-tables (the balanced-
    /// allocations quality metric).
    pub fn max_bucket_load(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| t.iter())
            .map(|b| b.iter().filter(|s| s.is_some()).count())
            .max()
            .unwrap_or(0)
    }

    /// Places `key`, which the caller has checked is not resident.
    fn place(&mut self, key: FlowKey) -> Result<(), FullError> {
        self.stats.inserts += 1;
        // Read all candidate buckets (parallel in hardware, d probes of
        // bandwidth), pick the least loaded; ties go left.
        self.stats.mem_reads += self.hashes.len() as u64;
        let mut best: Option<(usize, usize, usize)> = None; // (load, table, bucket)
        for t in 0..self.hashes.len() {
            let b = self.bucket_of(t, &key);
            let load = self.tables[t][b].iter().filter(|s| s.is_some()).count();
            if best.is_none_or(|(bl, _, _)| load < bl) {
                best = Some((load, t, b));
            }
        }
        let (load, t, b) = best.expect("d >= 1");
        if load == self.k {
            self.stats.rejected += 1;
            return Err(full_error(self, key));
        }
        let slot = self.tables[t][b]
            .iter()
            .position(|s| s.is_none())
            .expect("load < k");
        self.tables[t][b][slot] = Some(key);
        self.stats.mem_writes += 1;
        self.len += 1;
        Ok(())
    }
}

impl FlowStore for DLeftTable {
    fn name(&self) -> &'static str {
        "d-left"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.place(key).map(|()| true)
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        self.stats.mem_reads += self.hashes.len() as u64;
        (0..self.hashes.len()).any(|t| {
            let b = self.bucket_of(t, key);
            self.tables[t][b].iter().any(|s| s.as_ref() == Some(key))
        })
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
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
        self.tables.iter().map(|t| t.len() * self.k).sum::<usize>() as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

impl FlowBackend for DLeftTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = DLeftTable::new(2, 64, 2, 3);
        t.insert(key(5)).unwrap();
        assert!(t.contains(&key(5)));
        assert!(t.remove(&key(5)));
        assert!(!t.contains(&key(5)));
    }

    #[test]
    fn two_choices_beat_one_choice_on_load() {
        // Same capacity: single hash with 128x2 vs d-left 2x64x2. Insert
        // until failure; d-left must last longer.
        let mut single = crate::SingleHashTable::new(128, 2, 7);
        let mut dleft = DLeftTable::new(2, 64, 2, 7);
        let fail_point = |t: &mut dyn FlowStore| {
            for i in 0..256 {
                if t.insert(key(i)).is_err() {
                    return i;
                }
            }
            256
        };
        let s = fail_point(&mut single);
        let d = fail_point(&mut dleft);
        assert!(d > s, "d-left failed at {d}, single at {s}");
    }

    #[test]
    fn lookup_costs_d_probes() {
        let mut t = DLeftTable::new(3, 64, 2, 1);
        t.insert(key(1)).unwrap();
        let before = t.op_stats().mem_reads;
        t.contains(&key(1));
        assert_eq!(t.op_stats().mem_reads - before, 3);
    }

    #[test]
    fn max_load_stays_low() {
        let mut t = DLeftTable::new(2, 256, 4, 9);
        for i in 0..512 {
            t.insert(key(i)).unwrap();
        }
        // 50% load factor: balanced allocations keep buckets well below
        // their 4-slot capacity.
        assert!(t.max_bucket_load() <= 4);
        assert_eq!(t.len(), 512);
    }
}
