//! Non-collision hashing via Bloom filter + CAM (Li, reference \[8\]).

use flowlut_cam::Cam;
use flowlut_core::backend::{FlowBackend, FlowStore, FullError, OpStats};
use flowlut_hash::H3Hash;
use flowlut_traffic::FlowKey;

use crate::traits::full_error;

/// Li's collision-free hash table: a single hash memory with
/// single-entry cells, a Bloom-style occupancy summary kept on chip, and
/// a CAM absorbing every colliding key.
///
/// Insertion consults the on-chip occupancy vector: if the key's cell is
/// already taken, the key goes straight to the CAM without touching DRAM
/// — the memory is "collision-free" by construction, so lookups probe at
/// most one DRAM cell. The cost is CAM pressure: the CAM must hold every
/// collision, which grows quadratically with load — the scaling problem
/// the paper's two-choice scheme mitigates.
#[derive(Debug)]
pub struct BloomCamTable {
    hash: H3Hash,
    /// On-chip occupancy bit per cell (the degenerate-but-exact Bloom
    /// summary used by the scheme at one bit per cell).
    occupied: Vec<bool>,
    cells: Vec<Option<FlowKey>>,
    cam: Cam<FlowKey>,
    len: usize,
    stats: OpStats,
}

impl BloomCamTable {
    /// Creates a table with `cells` single-entry cells and a
    /// `cam_capacity`-entry CAM.
    ///
    /// # Panics
    ///
    /// Panics if `cells` or `cam_capacity` is zero.
    pub fn new(cells: u32, cam_capacity: usize, seed: u64) -> Self {
        assert!(cells > 0 && cam_capacity > 0);
        BloomCamTable {
            hash: H3Hash::with_seed(8 * flowlut_traffic::MAX_KEY_BYTES, seed ^ 0xB10C),
            occupied: vec![false; cells as usize],
            cells: vec![None; cells as usize],
            cam: Cam::new(cam_capacity),
            len: 0,
            stats: OpStats::default(),
        }
    }

    fn cell_of(&self, key: &FlowKey) -> usize {
        self.hash.bucket(key.as_bytes(), self.cells.len() as u32) as usize
    }

    /// Keys absorbed by the CAM (the scheme's scaling pressure point).
    pub fn cam_len(&self) -> usize {
        self.cam.len()
    }

    /// Places `key`, which the caller has checked is not resident.
    fn place(&mut self, key: FlowKey) -> Result<(), FullError> {
        self.stats.inserts += 1;
        let c = self.cell_of(&key);
        if self.occupied[c] {
            // Collision: straight to the CAM, no DRAM access.
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
        } else {
            self.occupied[c] = true;
            self.cells[c] = Some(key);
            self.stats.mem_writes += 1;
            self.len += 1;
            Ok(())
        }
    }
}

impl FlowStore for BloomCamTable {
    fn name(&self) -> &'static str {
        "bloom+cam"
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
        let c = self.cell_of(key);
        if !self.occupied[c] {
            // On-chip summary says empty: no DRAM probe at all.
            return false;
        }
        self.stats.mem_reads += 1;
        self.cells[c].as_ref() == Some(key)
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        if self.cam.delete(key).is_some() {
            self.len -= 1;
            return true;
        }
        let c = self.cell_of(key);
        if !self.occupied[c] {
            return false;
        }
        self.stats.mem_reads += 1;
        if self.cells[c].as_ref() == Some(key) {
            self.cells[c] = None;
            self.occupied[c] = false;
            self.stats.mem_writes += 1;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    fn capacity(&self) -> u64 {
        (self.cells.len() + self.cam.capacity()) as u64
    }

    fn op_stats(&self) -> OpStats {
        self.stats
    }
}

impl FlowBackend for BloomCamTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn roundtrip() {
        let mut t = BloomCamTable::new(128, 32, 1);
        t.insert(key(1)).unwrap();
        assert!(t.contains(&key(1)));
        assert!(t.remove(&key(1)));
        assert!(!t.contains(&key(1)));
        assert!(t.is_empty());
    }

    #[test]
    fn at_most_one_dram_probe_per_lookup() {
        let mut t = BloomCamTable::new(256, 64, 2);
        for i in 0..128 {
            t.insert(key(i)).unwrap();
        }
        let before = t.op_stats().mem_reads;
        for i in 0..128 {
            assert!(t.contains(&key(i)));
        }
        let probes = t.op_stats().mem_reads - before;
        assert!(probes <= 128, "collision-free promise broken: {probes}");
    }

    #[test]
    fn absent_key_in_empty_cell_needs_no_dram() {
        let mut t = BloomCamTable::new(4096, 16, 3);
        t.insert(key(0)).unwrap();
        let before = t.op_stats().mem_reads;
        // Most absent keys map to unoccupied cells.
        let mut zero_probe = 0;
        for i in 1000..1100 {
            let r = t.op_stats().mem_reads;
            t.contains(&key(i));
            if t.op_stats().mem_reads == r {
                zero_probe += 1;
            }
        }
        assert!(zero_probe > 90, "summary should shortcut: {zero_probe}");
        let _ = before;
    }

    #[test]
    fn cam_pressure_grows_superlinearly() {
        // Collisions ∝ n²/cells: doubling the load should much more than
        // double the CAM population.
        let load = |n: u64| {
            let mut t = BloomCamTable::new(512, 512, 4);
            for i in 0..n {
                t.insert(key(i)).unwrap();
            }
            t.cam_len()
        };
        let at_128 = load(128);
        let at_256 = load(256);
        assert!(
            at_256 >= 3 * at_128,
            "CAM pressure should grow superlinearly: {at_128} -> {at_256}"
        );
    }

    #[test]
    fn full_cam_errors() {
        let mut t = BloomCamTable::new(2, 2, 5);
        let mut failed = false;
        for i in 0..16 {
            if t.insert(key(i)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }
}
