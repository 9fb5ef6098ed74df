//! The functional Hash-CAM flow lookup table (Figure 1 of the paper).
//!
//! This layer implements the *semantics* of the paper's table — a
//! two-choice hash table whose halves live in two separate memories, with
//! bucket overflow spilling to a small CAM — independent of timing. The
//! cycle-level simulator ([`sim`](crate::sim)) drives the same structure
//! through the DDR3 model; downstream users who just want a
//! memory-efficient flow table use this type directly.
//!
//! Lookup follows the paper's three pipeline stages with early exit:
//! CAM first, then `Hash1 → Mem1`, then `Hash2 → Mem2`. Insertion places
//! a key in the first free slot of its Mem1 bucket, then its Mem2 bucket,
//! then the CAM; [`InsertError::TableFull`] reports exhaustion of all
//! three.

use std::collections::HashMap;

use flowlut_cam::Cam;
use flowlut_hash::PairHasher;
use flowlut_traffic::FlowKey;

use crate::error::{ConfigError, InsertError};
use crate::fid::{FlowId, Location, PathId};

/// Sizing and hashing parameters of a [`HashCamTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Buckets in each memory half.
    pub buckets_per_mem: u32,
    /// Entry slots per bucket (the paper's `K`).
    pub entries_per_bucket: u8,
    /// Overflow CAM capacity.
    pub cam_capacity: usize,
    /// Bytes per entry slot in the DDR3 wire format
    /// (`1 + max key bytes`, rounded to hardware-friendly widths).
    pub entry_slot_bytes: usize,
    /// Seed for the two H3 hash functions.
    pub hash_seed: u64,
}

impl TableConfig {
    /// The FPGA prototype's sizing: 8 M entry capacity (2 memories ×
    /// 2 Mi buckets × K = 2), a 1 Ki-entry overflow CAM, 16-byte slots
    /// (IPv4 5-tuples), so one bucket = one 32-byte BL8 burst.
    pub fn prototype_8m() -> Self {
        TableConfig {
            buckets_per_mem: 1 << 21,
            entries_per_bucket: 2,
            cam_capacity: 1024,
            entry_slot_bytes: 16,
            hash_seed: 0x5EED,
        }
    }

    /// A small configuration for tests: 256 buckets × K = 2 per memory,
    /// 16-entry CAM.
    pub fn test_small() -> Self {
        TableConfig {
            buckets_per_mem: 256,
            entries_per_bucket: 2,
            cam_capacity: 16,
            entry_slot_bytes: 16,
            hash_seed: 0x5EED,
        }
    }

    /// Total entry slots across both memories plus the CAM.
    pub fn capacity(&self) -> u64 {
        2 * u64::from(self.buckets_per_mem) * u64::from(self.entries_per_bucket)
            + self.cam_capacity as u64
    }

    /// Bucket size in bytes (before burst padding).
    pub fn bucket_bytes(&self) -> usize {
        usize::from(self.entries_per_bucket) * self.entry_slot_bytes
    }

    /// Bursts per bucket for a given burst payload size.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn bursts_per_bucket(&self, burst_bytes: usize) -> u32 {
        assert!(burst_bytes > 0);
        (self.bucket_bytes().div_ceil(burst_bytes)) as u32
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero dimensions or slots too narrow to
    /// hold any key.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buckets_per_mem == 0 {
            return Err(ConfigError::new("buckets_per_mem must be non-zero"));
        }
        if self.entries_per_bucket == 0 {
            return Err(ConfigError::new("entries_per_bucket must be non-zero"));
        }
        if self.cam_capacity == 0 {
            return Err(ConfigError::new(
                "cam_capacity must be non-zero (the scheme requires an overflow CAM)",
            ));
        }
        if self.entry_slot_bytes < 2 {
            return Err(ConfigError::new(
                "entry_slot_bytes must hold a length byte plus at least one key byte",
            ));
        }
        Ok(())
    }
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig::prototype_8m()
    }
}

/// At which pipeline stage a lookup matched — drives both statistics and
/// the simulator's early-exit timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupStage {
    /// Stage 1: overflow CAM.
    Cam,
    /// Stage 2: Hash1 bucket in Mem1 (path A).
    MemA,
    /// Stage 3: Hash2 bucket in Mem2 (path B).
    MemB,
}

/// Occupancy breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Entries resident in Mem1 (path A) buckets.
    pub mem_a: u64,
    /// Entries resident in Mem2 (path B) buckets.
    pub mem_b: u64,
    /// Entries resident in the overflow CAM.
    pub cam: u64,
}

impl Occupancy {
    /// Total resident entries.
    pub fn total(&self) -> u64 {
        self.mem_a + self.mem_b + self.cam
    }
}

impl std::ops::AddAssign for Occupancy {
    /// Region-wise accumulation — multi-channel aggregators sum
    /// per-shard occupancies into one system-level view.
    fn add_assign(&mut self, other: Occupancy) {
        self.mem_a += other.mem_a;
        self.mem_b += other.mem_b;
        self.cam += other.cam;
    }
}

/// Table statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Hits per stage.
    pub hits_cam: u64,
    /// Hits in Mem1.
    pub hits_mem_a: u64,
    /// Hits in Mem2.
    pub hits_mem_b: u64,
    /// Lookups that missed all three stages.
    pub misses: u64,
    /// Successful insertions.
    pub inserts: u64,
    /// Insertions that spilled to the CAM (both buckets full).
    pub cam_spills: u64,
    /// Insertions rejected with `TableFull`.
    pub full_rejections: u64,
    /// Deletions.
    pub deletes: u64,
}

impl TableStats {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits_cam + self.hits_mem_a + self.hits_mem_b) as f64 / self.lookups as f64
        }
    }
}

/// One bucket: `K` optional entry slots.
type Bucket = Vec<Option<FlowKey>>;

/// The Hash-CAM table (functional layer).
///
/// Buckets are stored sparsely, so an 8 M-entry configuration costs
/// memory proportional to its *resident* flows, not its capacity.
#[derive(Debug)]
pub struct HashCamTable {
    cfg: TableConfig,
    hasher: PairHasher,
    mems: [HashMap<u32, Bucket>; 2],
    mem_counts: [u64; 2],
    cam: Cam<FlowKey>,
    stats: TableStats,
}

impl HashCamTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`TableConfig::validate`] first for fallible handling.
    pub fn new(cfg: TableConfig) -> Self {
        cfg.validate().expect("invalid table configuration");
        let key_bits = 8 * (cfg.entry_slot_bytes - 1);
        HashCamTable {
            cfg,
            hasher: PairHasher::h3_pair(key_bits, cfg.hash_seed),
            mems: [HashMap::new(), HashMap::new()],
            mem_counts: [0, 0],
            cam: Cam::new(cfg.cam_capacity),
            stats: TableStats::default(),
        }
    }

    /// Configuration in force.
    #[inline]
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Number of resident flows.
    pub fn len(&self) -> u64 {
        self.mem_counts[0] + self.mem_counts[1] + self.cam.len() as u64
    }

    /// `true` when no flows are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy breakdown per region.
    pub fn occupancy(&self) -> Occupancy {
        Occupancy {
            mem_a: self.mem_counts[0],
            mem_b: self.mem_counts[1],
            cam: self.cam.len() as u64,
        }
    }

    /// Load factor over total capacity.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.cfg.capacity() as f64
    }

    /// The bucket pair `(Mem1 bucket, Mem2 bucket)` for `key`.
    pub fn hash_pair(&self, key: &FlowKey) -> (u32, u32) {
        self.hasher
            .bucket_pair(key.as_bytes(), self.cfg.buckets_per_mem)
    }

    /// The raw 32-bit hash pair for `key`, before bucket reduction.
    ///
    /// [`bucket_pair_from_hashes`](Self::bucket_pair_from_hashes) applied
    /// to these values equals [`hash_pair`](Self::hash_pair); the timed
    /// simulator keeps raw hashes around because the load balancer uses
    /// hash bits directly.
    pub fn raw_hashes(&self, key: &FlowKey) -> (u32, u32) {
        self.hasher.hashes(key.as_bytes())
    }

    /// The bucket pair derived from externally supplied raw hashes
    /// (Table II(A)'s hash-override stimulus).
    pub fn bucket_pair_from_hashes(&self, h1: u32, h2: u32) -> (u32, u32) {
        let b = u64::from(self.cfg.buckets_per_mem);
        (
            ((u64::from(h1) * b) >> 32) as u32,
            ((u64::from(h2) * b) >> 32) as u32,
        )
    }

    /// Three-stage lookup with early exit.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<(FlowId, LookupStage)> {
        let (b1, b2) = self.hash_pair(key);
        self.lookup_with_buckets(key, b1, b2)
    }

    /// Stage-1-only search: is `key` resident in the overflow CAM?
    ///
    /// The timed simulator drives the three lookup stages separately (the
    /// CAM is on-chip and answers in one system cycle, the memory stages
    /// go through DDR3), so it needs the CAM stage in isolation. Does not
    /// touch [`TableStats`] — the simulator keeps its own counters.
    pub fn cam_peek(&self, key: &FlowKey) -> Option<FlowId> {
        self.cam
            .peek(key)
            .map(|slot| FlowId::encode(Location::Cam(slot as u32), self.cfg.entries_per_bucket))
    }

    /// Lookup without statistics (for assertions).
    pub fn peek(&self, key: &FlowKey) -> Option<FlowId> {
        let (b1, b2) = self.hash_pair(key);
        self.peek_with_buckets(key, b1, b2)
    }

    /// [`peek`](Self::peek) with externally supplied bucket indices: the
    /// CAM, then bucket `b1` of Mem1, then bucket `b2` of Mem2. Callers
    /// that already hold a key's bucket pair (the timed simulator's
    /// descriptors, hash-override flows) search without rehashing.
    pub fn peek_with_buckets(&self, key: &FlowKey, b1: u32, b2: u32) -> Option<FlowId> {
        if let Some(fid) = self.cam_peek(key) {
            return Some(fid);
        }
        for (path, bucket) in [(PathId::A, b1), (PathId::B, b2)] {
            if let Some(slot) = self.find_in_bucket(path, bucket, key) {
                return Some(FlowId::encode(
                    Location::Mem { path, bucket, slot },
                    self.cfg.entries_per_bucket,
                ));
            }
        }
        None
    }

    /// Inserts `key`, preferring its Mem1 bucket, then Mem2, then the CAM
    /// ("Mem Updt" in Figure 1).
    ///
    /// # Errors
    ///
    /// [`InsertError::Duplicate`] if the key is already resident (with
    /// its existing ID); [`InsertError::TableFull`] if both buckets and
    /// the CAM are full.
    pub fn insert(&mut self, key: FlowKey) -> Result<FlowId, InsertError> {
        let (b1, b2) = self.hash_pair(&key);
        self.insert_with_buckets(key, b1, b2)
    }

    /// Inserts with externally supplied bucket indices (hash-override
    /// stimulus). Same semantics as [`insert`](Self::insert), with the
    /// duplicate check made against the CAM and the given buckets.
    ///
    /// # Errors
    ///
    /// As for [`insert`](Self::insert).
    ///
    /// # Panics
    ///
    /// Panics if a bucket index is out of range.
    pub fn insert_with_buckets(
        &mut self,
        key: FlowKey,
        b1: u32,
        b2: u32,
    ) -> Result<FlowId, InsertError> {
        assert!(
            b1 < self.cfg.buckets_per_mem && b2 < self.cfg.buckets_per_mem,
            "bucket index out of range"
        );
        if let Some(existing) = self.peek_with_buckets(&key, b1, b2) {
            return Err(InsertError::Duplicate(existing));
        }
        self.insert_at(key, b1, b2)
    }

    /// Inserts with externally supplied bucket indices, trying `prefer`'s
    /// bucket first. The timed simulator uses this to model the paper's
    /// per-path update blocks: the Flow Match that detects the final miss
    /// (on the LU2 path) raises `Ins_req` to *its own* path's Updt, so
    /// new flows land on the second-lookup path when space permits.
    ///
    /// # Errors
    ///
    /// As for [`insert`](Self::insert).
    ///
    /// # Panics
    ///
    /// Panics if a bucket index is out of range.
    pub fn insert_with_buckets_preferring(
        &mut self,
        key: FlowKey,
        b1: u32,
        b2: u32,
        prefer: PathId,
    ) -> Result<FlowId, InsertError> {
        assert!(
            b1 < self.cfg.buckets_per_mem && b2 < self.cfg.buckets_per_mem,
            "bucket index out of range"
        );
        if let Some(existing) = self.peek_with_buckets(&key, b1, b2) {
            return Err(InsertError::Duplicate(existing));
        }
        match prefer {
            PathId::A => self.insert_at(key, b1, b2),
            PathId::B => self.insert_at_order(key, [(PathId::B, b2), (PathId::A, b1)]),
        }
    }

    /// Three-stage lookup with externally supplied bucket indices (for
    /// flows inserted via hash overrides, whose buckets differ from
    /// `hash_pair`); [`lookup`](Self::lookup) is this at the hashed pair.
    pub fn lookup_with_buckets(
        &mut self,
        key: &FlowKey,
        b1: u32,
        b2: u32,
    ) -> Option<(FlowId, LookupStage)> {
        self.stats.lookups += 1;
        if let Some(slot) = self.cam.search(key) {
            self.stats.hits_cam += 1;
            return Some((
                FlowId::encode(Location::Cam(slot as u32), self.cfg.entries_per_bucket),
                LookupStage::Cam,
            ));
        }
        for (path, bucket) in [(PathId::A, b1), (PathId::B, b2)] {
            if let Some(slot) = self.find_in_bucket(path, bucket, key) {
                let stage = match path {
                    PathId::A => {
                        self.stats.hits_mem_a += 1;
                        LookupStage::MemA
                    }
                    PathId::B => {
                        self.stats.hits_mem_b += 1;
                        LookupStage::MemB
                    }
                };
                return Some((
                    FlowId::encode(
                        Location::Mem { path, bucket, slot },
                        self.cfg.entries_per_bucket,
                    ),
                    stage,
                ));
            }
        }
        self.stats.misses += 1;
        None
    }

    fn insert_at(&mut self, key: FlowKey, b1: u32, b2: u32) -> Result<FlowId, InsertError> {
        self.insert_at_order(key, [(PathId::A, b1), (PathId::B, b2)])
    }

    fn insert_at_order(
        &mut self,
        key: FlowKey,
        order: [(PathId, u32); 2],
    ) -> Result<FlowId, InsertError> {
        let k = usize::from(self.cfg.entries_per_bucket);
        for (path, bucket) in order {
            let slots = self.mems[path.index()]
                .entry(bucket)
                .or_insert_with(|| vec![None; k]);
            if let Some(free) = slots.iter().position(|s| s.is_none()) {
                slots[free] = Some(key);
                self.mem_counts[path.index()] += 1;
                self.stats.inserts += 1;
                return Ok(FlowId::encode(
                    Location::Mem {
                        path,
                        bucket,
                        slot: free as u8,
                    },
                    self.cfg.entries_per_bucket,
                ));
            }
        }
        // Both buckets full: spill to the CAM.
        match self.cam.insert(key) {
            Ok(slot) => {
                self.stats.inserts += 1;
                self.stats.cam_spills += 1;
                Ok(FlowId::encode(
                    Location::Cam(slot as u32),
                    self.cfg.entries_per_bucket,
                ))
            }
            Err(_) => {
                self.stats.full_rejections += 1;
                Err(InsertError::TableFull)
            }
        }
    }

    /// Looks `key` up and inserts it on miss — the paper's per-packet
    /// flow processing operation.
    ///
    /// Returns the flow ID and `true` if the key was newly inserted.
    ///
    /// # Errors
    ///
    /// [`InsertError::TableFull`] as for [`insert`](Self::insert).
    pub fn lookup_or_insert(&mut self, key: FlowKey) -> Result<(FlowId, bool), InsertError> {
        let (b1, b2) = self.hash_pair(&key);
        if let Some((id, _)) = self.lookup_with_buckets(&key, b1, b2) {
            return Ok((id, false));
        }
        self.insert_at(key, b1, b2).map(|id| (id, true))
    }

    /// Removes `key`, returning its former ID.
    pub fn delete(&mut self, key: &FlowKey) -> Option<FlowId> {
        if let Some(slot) = self.cam.delete(key) {
            self.stats.deletes += 1;
            return Some(FlowId::encode(
                Location::Cam(slot as u32),
                self.cfg.entries_per_bucket,
            ));
        }
        let (b1, b2) = self.hash_pair(key);
        for (path, bucket) in [(PathId::A, b1), (PathId::B, b2)] {
            if let Some(slots) = self.mems[path.index()].get_mut(&bucket) {
                if let Some(slot) = slots.iter().position(|s| s.as_ref() == Some(key)) {
                    slots[slot] = None;
                    if slots.iter().all(|s| s.is_none()) {
                        self.mems[path.index()].remove(&bucket);
                    }
                    self.mem_counts[path.index()] -= 1;
                    self.stats.deletes += 1;
                    return Some(FlowId::encode(
                        Location::Mem {
                            path,
                            bucket,
                            slot: slot as u8,
                        },
                        self.cfg.entries_per_bucket,
                    ));
                }
            }
        }
        None
    }

    /// Places `key` at an exact `location`: the checkpoint-restore path.
    ///
    /// Bypasses hashing and statistics — the caller guarantees the
    /// placement came from an identically configured table, so the
    /// bucket pair would hash the same anyway; validation here is purely
    /// structural (bounds, double occupancy).
    ///
    /// # Errors
    ///
    /// Returns a static description when the location is out of range or
    /// already occupied.
    pub fn restore_at(&mut self, key: FlowKey, loc: Location) -> Result<FlowId, &'static str> {
        match loc {
            Location::Cam(slot) => {
                self.cam.restore_at(slot as usize, key)?;
            }
            Location::Mem { path, bucket, slot } => {
                if bucket >= self.cfg.buckets_per_mem {
                    return Err("bucket index out of range");
                }
                if slot >= self.cfg.entries_per_bucket {
                    return Err("bucket slot out of range");
                }
                let k = usize::from(self.cfg.entries_per_bucket);
                let slots = self.mems[path.index()]
                    .entry(bucket)
                    .or_insert_with(|| vec![None; k]);
                if slots[usize::from(slot)].is_some() {
                    return Err("bucket slot already occupied");
                }
                slots[usize::from(slot)] = Some(key);
                self.mem_counts[path.index()] += 1;
            }
        }
        Ok(FlowId::encode(loc, self.cfg.entries_per_bucket))
    }

    /// The slots of a bucket (all-`None` for never-touched buckets).
    pub fn bucket_slots(&self, path: PathId, bucket: u32) -> Bucket {
        self.bucket_slots_ref(path, bucket)
            .map(<[Option<FlowKey>]>::to_vec)
            .unwrap_or_else(|| vec![None; usize::from(self.cfg.entries_per_bucket)])
    }

    /// Borrowing variant of [`bucket_slots`](Self::bucket_slots):
    /// `None` for never-touched buckets (every slot empty — DRAM's
    /// all-zero reset state), so steady-state readers never allocate.
    pub fn bucket_slots_ref(&self, path: PathId, bucket: u32) -> Option<&[Option<FlowKey>]> {
        self.mems[path.index()].get(&bucket).map(Vec::as_slice)
    }

    /// Iterates over every resident key with its location.
    pub fn iter(&self) -> impl Iterator<Item = (FlowKey, Location)> + '_ {
        let mem_iter = [PathId::A, PathId::B].into_iter().flat_map(move |path| {
            self.mems[path.index()]
                .iter()
                .flat_map(move |(&bucket, slots)| {
                    slots.iter().enumerate().filter_map(move |(slot, s)| {
                        s.map(|key| {
                            (
                                key,
                                Location::Mem {
                                    path,
                                    bucket,
                                    slot: slot as u8,
                                },
                            )
                        })
                    })
                })
        });
        let cam_iter = self
            .cam
            .iter()
            .map(|(slot, key)| (*key, Location::Cam(slot as u32)));
        mem_iter.chain(cam_iter)
    }

    /// Removes every flow.
    pub fn clear(&mut self) {
        self.mems = [HashMap::new(), HashMap::new()];
        self.mem_counts = [0, 0];
        self.cam.clear();
    }

    fn find_in_bucket(&self, path: PathId, bucket: u32, key: &FlowKey) -> Option<u8> {
        self.mems[path.index()]
            .get(&bucket)?
            .iter()
            .position(|s| s.as_ref() == Some(key))
            .map(|s| s as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_traffic::FiveTuple;
    use std::collections::HashSet;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn table() -> HashCamTable {
        HashCamTable::new(TableConfig::test_small())
    }

    #[test]
    fn insert_then_lookup() {
        let mut t = table();
        let id = t.insert(key(1)).unwrap();
        let (found, stage) = t.lookup(&key(1)).unwrap();
        assert_eq!(found, id);
        assert!(matches!(stage, LookupStage::MemA | LookupStage::MemB));
        assert_eq!(t.lookup(&key(2)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_rejected_with_existing_id() {
        let mut t = table();
        let id = t.insert(key(1)).unwrap();
        assert_eq!(t.insert(key(1)), Err(InsertError::Duplicate(id)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_rejected_under_override_buckets() {
        let mut t = table();
        let k = key(1);
        // Buckets the key does not hash to, so the duplicate check must
        // use the buckets it is given rather than rehash.
        let (h1, h2) = t.hash_pair(&k);
        let (b1, b2) = ((h1 + 1) % 256, (h2 + 1) % 256);
        let first = t.insert_with_buckets(k, b1, b2).unwrap();
        assert_eq!(
            t.insert_with_buckets(k, b1, b2),
            Err(InsertError::Duplicate(first))
        );
        assert_eq!(
            t.insert_with_buckets_preferring(k, b1, b2, PathId::B),
            Err(InsertError::Duplicate(first))
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.peek_with_buckets(&k, b1, b2), Some(first));
        assert_eq!(t.peek(&k), None, "not resident at its hashed buckets");
    }

    #[test]
    fn lookup_or_insert_reports_novelty() {
        let mut t = table();
        let (id1, new1) = t.lookup_or_insert(key(7)).unwrap();
        assert!(new1);
        let (id2, new2) = t.lookup_or_insert(key(7)).unwrap();
        assert!(!new2);
        assert_eq!(id1, id2);
    }

    #[test]
    fn delete_makes_room() {
        let mut t = table();
        t.insert(key(1)).unwrap();
        let id = t.delete(&key(1)).unwrap();
        assert_eq!(t.peek(&key(1)), None);
        assert!(t.is_empty());
        // Re-insert lands in the same location (bucket unchanged).
        assert_eq!(t.insert(key(1)).unwrap(), id);
        assert_eq!(t.delete(&key(999)), None);
    }

    #[test]
    fn collision_overflow_reaches_cam() {
        // Force every key into bucket (0, 0): both buckets fill at K = 2
        // each, the rest spill to the CAM.
        let mut t = table();
        for i in 0..6 {
            t.insert_with_buckets(key(i), 0, 0).unwrap();
        }
        let occ = t.occupancy();
        assert_eq!(occ.mem_a, 2);
        assert_eq!(occ.mem_b, 2);
        assert_eq!(occ.cam, 2);
        assert_eq!(t.stats().cam_spills, 2);
        // All six keys findable via their forced buckets; CAM entries hit
        // at stage 1 (plain `lookup` would re-hash and miss the memory
        // residents, which is why override flows use bucket-aware lookup).
        for i in 0..6 {
            assert!(t.lookup_with_buckets(&key(i), 0, 0).is_some(), "key {i}");
        }
    }

    #[test]
    fn table_full_when_cam_exhausted() {
        let mut t = table();
        let spill = 4 + t.config().cam_capacity as u64;
        for i in 0..spill {
            t.insert_with_buckets(key(i), 3, 7).unwrap();
        }
        assert_eq!(
            t.insert_with_buckets(key(spill), 3, 7),
            Err(InsertError::TableFull)
        );
        assert_eq!(t.stats().full_rejections, 1);
    }

    #[test]
    fn early_exit_stage_order() {
        let mut t = table();
        // A CAM-resident key must report stage Cam even though it would
        // also match nothing in memory.
        for i in 0..4 {
            t.insert_with_buckets(key(i), 5, 5).unwrap();
        }
        t.insert_with_buckets(key(4), 5, 5).unwrap(); // spills to CAM
        let (_, stage) = t.lookup(&key(4)).unwrap();
        assert_eq!(stage, LookupStage::Cam);
    }

    #[test]
    fn occupancy_accumulates_region_wise() {
        let mut a = Occupancy {
            mem_a: 1,
            mem_b: 2,
            cam: 3,
        };
        a += Occupancy {
            mem_a: 10,
            mem_b: 20,
            cam: 30,
        };
        assert_eq!(
            a,
            Occupancy {
                mem_a: 11,
                mem_b: 22,
                cam: 33,
            }
        );
        assert_eq!(a.total(), 66);
    }

    #[test]
    fn occupancy_sums_to_len() {
        let mut t = table();
        for i in 0..100 {
            t.insert(key(i)).unwrap();
        }
        assert_eq!(t.occupancy().total(), t.len());
        assert_eq!(t.len(), 100);
        assert!(t.load_factor() > 0.0);
    }

    #[test]
    fn iter_yields_every_key_once() {
        let mut t = table();
        let mut expect = HashSet::new();
        for i in 0..50 {
            t.insert(key(i)).unwrap();
            expect.insert(key(i));
        }
        let got: HashSet<FlowKey> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn iter_locations_match_peek() {
        let mut t = table();
        for i in 0..20 {
            t.insert(key(i)).unwrap();
        }
        for (k, loc) in t.iter() {
            let id = t.peek(&k).unwrap();
            assert_eq!(id.decode(t.config().entries_per_bucket), loc);
        }
    }

    #[test]
    fn two_choice_balances_better_than_single_bucket() {
        // Statistical smoke test: with 400 keys into 2×256 buckets of
        // K = 2 (cap 1024 + CAM), two-choice should produce few CAM
        // spills.
        let mut t = table();
        for i in 0..400 {
            let _ = t.insert(key(i));
        }
        let occ = t.occupancy();
        assert!(
            occ.cam <= 8,
            "two-choice spilled {} of 400 keys to CAM",
            occ.cam
        );
    }

    #[test]
    fn clear_resets() {
        let mut t = table();
        for i in 0..10 {
            t.insert(key(i)).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.peek(&key(3)), None);
    }

    #[test]
    fn stats_hit_rate() {
        let mut t = table();
        t.insert(key(1)).unwrap();
        t.lookup(&key(1));
        t.lookup(&key(2));
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn bucket_slots_default_empty() {
        let t = table();
        assert_eq!(t.bucket_slots(PathId::A, 9), vec![None, None]);
    }

    #[test]
    fn invalid_configs_rejected() {
        for bad in [
            TableConfig {
                buckets_per_mem: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                entries_per_bucket: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                cam_capacity: 0,
                ..TableConfig::test_small()
            },
            TableConfig {
                entry_slot_bytes: 1,
                ..TableConfig::test_small()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn prototype_capacity_is_8m_plus_cam() {
        let c = TableConfig::prototype_8m();
        assert_eq!(c.capacity(), (1 << 23) + 1024);
        assert_eq!(c.bursts_per_bucket(32), 1);
    }

    #[test]
    fn restore_at_rebuilds_identical_placements() {
        let mut live = table();
        for i in 0..20 {
            let _ = live.insert(key(i));
        }
        let mut placements: Vec<(FlowKey, Location)> = live.iter().collect();
        placements.sort_by_key(|&(_, loc)| FlowId::encode(loc, 2).raw());

        let mut restored = table();
        for &(k, loc) in &placements {
            let fid = restored.restore_at(k, loc).expect("placement valid");
            assert_eq!(fid, FlowId::encode(loc, 2));
        }
        assert_eq!(restored.occupancy().total(), live.occupancy().total());
        for (k, loc) in placements {
            assert_eq!(restored.peek(&k), Some(FlowId::encode(loc, 2)));
        }
        // Double restore at the same location is rejected.
        let (k0, loc0) = restored.iter().next().expect("non-empty");
        assert!(restored.restore_at(k0, loc0).is_err());
    }

    #[test]
    fn restore_at_rejects_out_of_range() {
        let mut t = table();
        let bad_bucket = Location::Mem {
            path: PathId::A,
            bucket: t.config().buckets_per_mem,
            slot: 0,
        };
        assert!(t.restore_at(key(1), bad_bucket).is_err());
        let bad_slot = Location::Mem {
            path: PathId::B,
            bucket: 0,
            slot: t.config().entries_per_bucket,
        };
        assert!(t.restore_at(key(1), bad_slot).is_err());
    }
}
