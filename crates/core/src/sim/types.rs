//! Data types shared by the simulator stages.

use flowlut_traffic::PacketDescriptor;

use crate::fid::{FlowId, PathId};
use crate::table::Occupancy;

/// Which lookup stage a memory read serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuStage {
    /// First lookup, on the load-balancer-chosen path.
    Lu1,
    /// Second lookup, on the other path after an LU1 miss.
    Lu2,
}

/// How a descriptor's processing resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedVia {
    /// Matched in the overflow CAM at the sequencer stage.
    CamHit,
    /// Matched on the first memory lookup, on the given path.
    Lu1Hit(PathId),
    /// Matched on the second memory lookup, on the given path.
    Lu2Hit(PathId),
    /// Missed everywhere; inserted into a memory bucket on the given
    /// path.
    InsertedMem(PathId),
    /// Missed everywhere; inserted into the overflow CAM.
    InsertedCam,
    /// A racing packet of the same flow inserted the key while this one
    /// was in flight; resolved to the existing entry at update time.
    DuplicateRace,
    /// Missed everywhere and the table was full: the flow was dropped.
    Dropped,
}

impl ResolvedVia {
    /// `true` if the flow was newly created by this descriptor.
    pub fn is_new_flow(self) -> bool {
        matches!(self, ResolvedVia::InsertedMem(_) | ResolvedVia::InsertedCam)
    }

    /// `true` if a flow ID was produced (everything except `Dropped`).
    pub fn has_fid(self) -> bool {
        !matches!(self, ResolvedVia::Dropped)
    }
}

/// Lifecycle of one descriptor inside the simulator.
#[derive(Debug, Clone)]
pub struct DescState {
    /// The offered descriptor.
    pub desc: PacketDescriptor,
    /// Raw 32-bit hash pair (from the hasher or the override).
    pub hashes: (u32, u32),
    /// Bucket indices: `.0` in Mem1/path A, `.1` in Mem2/path B.
    pub buckets: (u32, u32),
    /// Path chosen by the load balancer for LU1 (set at dispatch).
    pub first_path: Option<PathId>,
    /// System cycle the descriptor entered the sequencer queue.
    pub t_offer: u64,
    /// System cycle it passed admission (same-key ordering released).
    pub t_admit: u64,
    /// System cycle its flow ID was produced.
    pub t_done: Option<u64>,
    /// Resolution.
    pub via: Option<ResolvedVia>,
    /// Produced flow ID.
    pub fid: Option<FlowId>,
}

/// Simulator-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Descriptors offered by the source.
    pub offered: u64,
    /// Descriptors past admission (same-key ordering enforced).
    pub admitted: u64,
    /// Descriptors resolved.
    pub completed: u64,
    /// Resolved via CAM hit at stage 1.
    pub cam_hits: u64,
    /// Resolved via first-lookup match.
    pub lu1_hits: u64,
    /// Resolved via second-lookup match.
    pub lu2_hits: u64,
    /// New flows placed in memory buckets.
    pub inserted_mem: u64,
    /// New flows spilled into the CAM.
    pub inserted_cam: u64,
    /// Same-flow insert races resolved to the existing entry.
    pub duplicate_races: u64,
    /// Flows dropped because the table was full.
    pub drops: u64,
    /// LU1 dispatches per path (load-balance measurement: A, B).
    pub lu1_per_path: [u64; 2],
    /// Bucket-read bursts issued.
    pub reads_issued: u64,
    /// Bucket-write bursts issued.
    pub writes_issued: u64,
    /// Read intents held by the request filter (cycle-counts).
    pub filter_hold_cycles: u64,
    /// Cycles input was stalled by a full sequencer queue.
    pub input_stall_cycles: u64,
    /// Descriptors held for same-key ordering.
    pub same_key_holds: u64,
    /// BWr_Gen releases triggered by the count threshold.
    pub bwr_count_releases: u64,
    /// BWr_Gen releases triggered by timeout.
    pub bwr_timeout_releases: u64,
    /// Deletions processed by the update unit.
    pub deletes: u64,
    /// Flows expired by the incremental idle-TTL scan
    /// (`SimConfig::expiry`).
    pub expired_ttl: u64,
    /// Flows evicted to the victim list by occupancy pressure
    /// (`SimConfig::pressure`).
    pub pressure_evicted: u64,
    /// Sum of admission→completion latency over completed descriptors,
    /// in system cycles.
    pub total_latency_sys: u64,
    /// Maximum admission→completion latency — a *per-run* high-water
    /// mark, reset by `FlowPipeline::start_run` at each session start
    /// (unlike every other field, which is cumulative), so repeated runs
    /// on one instance each report their own worst case.
    pub max_latency_sys: u64,
}

impl SimStats {
    /// Counter-wise difference `self − earlier`, for per-run reporting on
    /// a simulator that has already processed other work. `max_latency_sys`
    /// is not differenced (it is a high-water mark, not a counter) and is
    /// taken from `self` — correct per-run because the mark is reset by
    /// `FlowPipeline::start_run` at each session start.
    pub fn delta_since(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            offered: self.offered - earlier.offered,
            admitted: self.admitted - earlier.admitted,
            completed: self.completed - earlier.completed,
            cam_hits: self.cam_hits - earlier.cam_hits,
            lu1_hits: self.lu1_hits - earlier.lu1_hits,
            lu2_hits: self.lu2_hits - earlier.lu2_hits,
            inserted_mem: self.inserted_mem - earlier.inserted_mem,
            inserted_cam: self.inserted_cam - earlier.inserted_cam,
            duplicate_races: self.duplicate_races - earlier.duplicate_races,
            drops: self.drops - earlier.drops,
            lu1_per_path: [
                self.lu1_per_path[0] - earlier.lu1_per_path[0],
                self.lu1_per_path[1] - earlier.lu1_per_path[1],
            ],
            reads_issued: self.reads_issued - earlier.reads_issued,
            writes_issued: self.writes_issued - earlier.writes_issued,
            filter_hold_cycles: self.filter_hold_cycles - earlier.filter_hold_cycles,
            input_stall_cycles: self.input_stall_cycles - earlier.input_stall_cycles,
            same_key_holds: self.same_key_holds - earlier.same_key_holds,
            bwr_count_releases: self.bwr_count_releases - earlier.bwr_count_releases,
            bwr_timeout_releases: self.bwr_timeout_releases - earlier.bwr_timeout_releases,
            deletes: self.deletes - earlier.deletes,
            expired_ttl: self.expired_ttl - earlier.expired_ttl,
            pressure_evicted: self.pressure_evicted - earlier.pressure_evicted,
            total_latency_sys: self.total_latency_sys - earlier.total_latency_sys,
            max_latency_sys: self.max_latency_sys,
        }
    }

    /// Fraction of LU1 dispatches sent to path A.
    pub fn load_share_a(&self) -> f64 {
        let total = self.lu1_per_path[0] + self.lu1_per_path[1];
        if total == 0 {
            0.0
        } else {
            self.lu1_per_path[0] as f64 / total as f64
        }
    }

    /// Fraction of completions that required creating a flow (the
    /// realised miss rate).
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            (self.inserted_mem + self.inserted_cam + self.drops) as f64 / self.completed as f64
        }
    }

    /// Mean admission→completion latency in system cycles.
    pub fn mean_latency_sys(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency_sys as f64 / self.completed as f64
        }
    }

    /// Accumulates `other` into `self`, counter-wise. `max_latency_sys`
    /// takes the maximum (it is a high-water mark); `lu1_per_path` adds
    /// element-wise. Multi-channel aggregators use this to fold per-shard
    /// statistics into one system-level view.
    pub fn merge(&mut self, other: &SimStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.cam_hits += other.cam_hits;
        self.lu1_hits += other.lu1_hits;
        self.lu2_hits += other.lu2_hits;
        self.inserted_mem += other.inserted_mem;
        self.inserted_cam += other.inserted_cam;
        self.duplicate_races += other.duplicate_races;
        self.drops += other.drops;
        self.lu1_per_path[0] += other.lu1_per_path[0];
        self.lu1_per_path[1] += other.lu1_per_path[1];
        self.reads_issued += other.reads_issued;
        self.writes_issued += other.writes_issued;
        self.filter_hold_cycles += other.filter_hold_cycles;
        self.input_stall_cycles += other.input_stall_cycles;
        self.same_key_holds += other.same_key_holds;
        self.bwr_count_releases += other.bwr_count_releases;
        self.bwr_timeout_releases += other.bwr_timeout_releases;
        self.deletes += other.deletes;
        self.expired_ttl += other.expired_ttl;
        self.pressure_evicted += other.pressure_evicted;
        self.total_latency_sys += other.total_latency_sys;
        self.max_latency_sys = self.max_latency_sys.max(other.max_latency_sys);
    }
}

/// A point-in-time view of one simulator instance, cheap to take every
/// cycle. Its counters are cumulative, unlike a [`SimReport`], which
/// covers one finished run: the multi-channel engine's snapshot holds
/// one per shard, and live dashboards poll it between runs.
///
/// [`SimReport`]: crate::sim::SimReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Current system cycle of this instance.
    pub now_sys: u64,
    /// Counters accumulated since construction.
    pub stats: SimStats,
    /// Current table occupancy.
    pub occupancy: Occupancy,
    /// Descriptors offered but not yet resolved (in the sequencer queue
    /// or in flight).
    pub in_pipeline: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_via_classification() {
        assert!(ResolvedVia::InsertedMem(PathId::A).is_new_flow());
        assert!(ResolvedVia::InsertedCam.is_new_flow());
        assert!(!ResolvedVia::CamHit.is_new_flow());
        assert!(!ResolvedVia::Dropped.has_fid());
        assert!(ResolvedVia::Lu2Hit(PathId::B).has_fid());
    }

    #[test]
    fn load_share() {
        let s = SimStats {
            lu1_per_path: [30, 70],
            ..SimStats::default()
        };
        assert!((s.load_share_a() - 0.3).abs() < 1e-12);
        assert_eq!(SimStats::default().load_share_a(), 0.0);
    }

    #[test]
    fn miss_rate() {
        let s = SimStats {
            completed: 10,
            inserted_mem: 2,
            inserted_cam: 1,
            drops: 1,
            ..SimStats::default()
        };
        assert!((s.miss_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_latency() {
        let s = SimStats {
            completed: 4,
            total_latency_sys: 100,
            ..SimStats::default()
        };
        assert!((s.mean_latency_sys() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_maxes_high_water() {
        let mut a = SimStats {
            completed: 10,
            lu1_per_path: [3, 7],
            total_latency_sys: 100,
            max_latency_sys: 40,
            ..SimStats::default()
        };
        let b = SimStats {
            completed: 5,
            lu1_per_path: [1, 2],
            total_latency_sys: 50,
            max_latency_sys: 90,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.completed, 15);
        assert_eq!(a.lu1_per_path, [4, 9]);
        assert_eq!(a.total_latency_sys, 150);
        assert_eq!(a.max_latency_sys, 90);
    }
}
