//! Conventional simultaneous-lookup Hash-CAM (the early-exit ablation).

use flowlut_cam::Cam;
use flowlut_core::backend::{FlowBackend, FlowStore, FullError, OpStats};
use flowlut_hash::H3Hash;
use flowlut_traffic::FlowKey;

use crate::traits::full_error;

/// The *conventional* Hash-CAM table: identical storage layout to the
/// paper's scheme (two-choice buckets in two memories plus an overflow
/// CAM), but "the CAM and hash tables operate simultaneously on a
/// request" — every lookup reads **both** memory buckets regardless of
/// where (or whether) the key matches.
///
/// Comparing [`OpStats::reads_per_lookup`] between this table and the
/// paper's early-exit pipeline quantifies the bandwidth the three-stage
/// early exit saves: 2.0 reads/lookup here versus `1 + miss-ish` there —
/// the difference that lets "subsequent searches be processed ahead of
/// time if the current search completes at an earlier stage".
#[derive(Debug)]
pub struct SimultaneousHashCam {
    hashes: [H3Hash; 2],
    mems: [Vec<Vec<Option<FlowKey>>>; 2],
    k: usize,
    cam: Cam<FlowKey>,
    len: usize,
    stats: OpStats,
}

impl SimultaneousHashCam {
    /// Creates the table: two memories of `buckets_per_mem` buckets with
    /// `k` slots, plus a `cam_capacity` overflow CAM.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(buckets_per_mem: u32, k: usize, cam_capacity: usize, seed: u64) -> Self {
        assert!(buckets_per_mem > 0 && k > 0 && cam_capacity > 0);
        SimultaneousHashCam {
            hashes: [
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0x11),
                H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0x22),
            ],
            mems: [
                (0..buckets_per_mem).map(|_| vec![None; k]).collect(),
                (0..buckets_per_mem).map(|_| vec![None; k]).collect(),
            ],
            k,
            cam: Cam::new(cam_capacity),
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn bucket_of(&self, mem: usize, key: &FlowKey) -> usize {
        self.hashes[mem].bucket(key.as_bytes(), self.mems[mem].len() as u32) as usize
    }

    /// Places `key`, which the caller has checked is not resident.
    fn place(&mut self, key: FlowKey) -> Result<(), FullError> {
        self.stats.inserts += 1;
        for mem in 0..2 {
            let b = self.bucket_of(mem, &key);
            self.stats.mem_reads += 1;
            if let Some(slot) = self.mems[mem][b].iter().position(|s| s.is_none()) {
                self.mems[mem][b][slot] = Some(key);
                self.stats.mem_writes += 1;
                self.len += 1;
                return Ok(());
            }
        }
        match self.cam.insert(key) {
            Ok(_) => {
                self.stats.cam_spills += 1;
                self.len += 1;
                Ok(())
            }
            Err(_) => {
                self.stats.rejected += 1;
                Err(full_error(self, key))
            }
        }
    }
}

impl FlowStore for SimultaneousHashCam {
    fn name(&self) -> &'static str {
        "simultaneous-hashcam"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        if self.contains(&key) {
            return Ok(false);
        }
        self.place(key).map(|()| true)
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.stats.lookups += 1;
        // Simultaneous dispatch: CAM and BOTH memories are always read.
        self.stats.cam_searches += 1;
        self.stats.mem_reads += 2;
        if self.cam.search(key).is_some() {
            return true;
        }
        (0..2).any(|mem| {
            let b = self.bucket_of(mem, key);
            self.mems[mem][b].iter().any(|s| s.as_ref() == Some(key))
        })
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        if self.cam.delete(key).is_some() {
            self.len -= 1;
            return true;
        }
        self.stats.mem_reads += 2;
        for mem in 0..2 {
            let b = self.bucket_of(mem, key);
            if let Some(slot) = self.mems[mem][b]
                .iter()
                .position(|s| s.as_ref() == Some(key))
            {
                self.mems[mem][b][slot] = None;
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
        (2 * self.mems[0].len() * self.k + self.cam.capacity()) as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

impl FlowBackend for SimultaneousHashCam {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = SimultaneousHashCam::new(64, 2, 16, 1);
        t.insert(key(1)).unwrap();
        assert!(t.contains(&key(1)));
        assert!(t.remove(&key(1)));
        assert!(!t.contains(&key(1)));
    }

    #[test]
    fn every_lookup_costs_two_reads() {
        let mut t = SimultaneousHashCam::new(64, 2, 16, 2);
        for i in 0..32 {
            t.insert(key(i)).unwrap();
        }
        let before = t.op_stats().mem_reads;
        for i in 0..32 {
            t.contains(&key(i)); // hits
        }
        for i in 100..132 {
            t.contains(&key(i)); // misses
        }
        assert_eq!(
            t.op_stats().mem_reads - before,
            128,
            "simultaneous lookup always reads both memories"
        );
    }

    #[test]
    fn overflow_reaches_cam_and_stays_findable() {
        let mut t = SimultaneousHashCam::new(2, 1, 16, 3);
        for i in 0..10 {
            t.insert(key(i)).unwrap();
        }
        for i in 0..10 {
            assert!(t.contains(&key(i)), "key {i}");
        }
        assert!(!t.cam.is_empty());
    }
}
