//! The cycle-stepped dual-path flow-LUT simulator (Figure 2 of the
//! paper).
//!
//! [`FlowLutSim`] models the prototype end to end: a rate-limited
//! descriptor source feeds a **sequencer** whose load balancer picks the
//! first lookup path; the overflow **CAM** answers in one system cycle;
//! each path's **DLU** forwards bucket reads to its own memory, modelled
//! behind the object-safe [`flowlut_ddr3::MemoryModel`] trait (the
//! paper's DDR3 controller by default; DDR4/HBM2/SRAM via
//! [`SimConfig::memory`](crate::config::SimConfig)); **Flow Match**
//! compares returned bucket bytes against the descriptor's tuple; a miss
//! redirects to the other path (LU2), and a second miss raises an
//! insertion to the **update unit**, whose per-path **BWr_Gen** batches
//! bucket writes into bursts. **FID_GEN** semantics are realised by
//! completing each descriptor with the [`FlowId`] of its match or insert
//! location.
//!
//! Two invariants from DESIGN.md are enforced structurally:
//!
//! * **Per-flow order**: the sequencer holds a descriptor whose key has
//!   an in-flight predecessor (the Request Filter's "waiting list"), so
//!   same-flow completions leave in arrival order.
//! * **No stale reads**: a bucket with a pending (batched or in-flight)
//!   write blocks lookup reads to that bucket until the write lands.

mod types;

pub use types::{DescState, LuStage, ResolvedVia, SimSnapshot, SimStats};

use std::collections::{HashMap, HashSet, VecDeque};

use flowlut_ddr3::model::MemoryModel;
use flowlut_ddr3::{AccessKind, Completion, MemRequest, MemStats};
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::backend::{
    FlowBackend, FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, RunReport,
    Session, SessionProgress,
};
use crate::checkpoint::{self, ByteReader, ByteWriter, CheckpointError, Fnv64};
use crate::codec;
use crate::config::{LoadBalancerPolicy, SimConfig};
use crate::error::{InsertError, PreloadError};
use crate::fid::{FlowId, Location, PathId};
use crate::flow_state::{FlowRecord, FlowStateStore};
use crate::table::{HashCamTable, Occupancy};

/// A lookup read waiting in a DLU.
#[derive(Debug, Clone, Copy)]
struct ReadIntent {
    desc: usize,
    stage: LuStage,
    bucket: u32,
}

/// A released bucket write waiting for controller room.
#[derive(Debug, Clone, Copy)]
struct WriteIntent {
    bucket: u32,
    /// Number of update intents this write retires (coalesced).
    covers: u32,
}

/// A deletion request queued for the update unit.
#[derive(Debug, Clone, Copy)]
enum DelReq {
    /// TTL-expiry nominated by the incremental [`ExpiryPolicy`] scan:
    /// re-validated at processing (the flow may have been touched since
    /// the scan stride visited it).
    ///
    /// [`ExpiryPolicy`]: crate::config::ExpiryPolicy
    ExpireTtl(FlowKey),
    /// Pressure eviction nominated by the [`PressurePolicy`] scan when
    /// CAM occupancy crossed the high-water mark; the victim's record is
    /// preserved on the bounded victim list.
    ///
    /// [`PressurePolicy`]: crate::config::PressurePolicy
    Evict(FlowKey),
    /// Unconditional user deletion (the Figure 2 "Flow delete" input).
    User(FlowKey),
}

/// Context attached to an outstanding memory request.
#[derive(Debug, Clone, Copy)]
enum MemTag {
    /// One burst of a bucket read for a lookup.
    LookupPart { asm: usize, part: u32 },
    /// One burst of a bucket write; `last` carries the filter release.
    WritePart {
        path: usize,
        bucket: u32,
        covers: u32,
        last: bool,
    },
}

/// Reassembly of a multi-burst bucket read.
#[derive(Debug)]
struct ReadAssembly {
    desc: usize,
    stage: LuStage,
    path: usize,
    bucket: u32,
    parts: Vec<Option<Vec<u8>>>,
    got: u32,
}

/// One lookup path: its memory model plus the DLU state in front of it.
#[derive(Debug)]
struct PathSim {
    ctrl: Box<dyn MemoryModel>,
    read_q: VecDeque<ReadIntent>,
    write_q: VecDeque<WriteIntent>,
    /// Buckets with pending (batched or in-flight) writes → outstanding
    /// update-intent count. Reads to these buckets are held (Req Filter).
    pending_write_buckets: HashMap<u32, u32>,
    /// BWr_Gen accumulation: one entry per update intent (bucket index).
    bwr_pending: Vec<u32>,
    bwr_first_cycle: Option<u64>,
}

/// The end-to-end performance report of one simulated run: the run's
/// [`RunReport`] plus the per-path memory statistics.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// System-clock cycles simulated.
    pub sys_cycles: u64,
    /// Wall-clock time simulated, in nanoseconds.
    pub elapsed_ns: f64,
    /// Descriptors resolved (including drops).
    pub completed: u64,
    /// Processing rate in million descriptors per second — the unit of
    /// Table II.
    pub mdesc_per_s: f64,
    /// Simulator counters.
    pub stats: SimStats,
    /// Final table occupancy.
    pub table_occupancy: Occupancy,
    /// Per-path memory statistics (A, B): scheduler and device counters
    /// of whichever [`MemoryModel`] backed the run.
    pub mem_stats: [MemStats; 2],
    /// Mean admission→completion latency in nanoseconds.
    pub mean_latency_ns: f64,
}

/// The timed flow lookup engine.
#[derive(Debug)]
pub struct FlowLutSim {
    cfg: SimConfig,
    bursts_per_bucket: u32,
    burst_bytes: usize,
    mem_ticks_per_sys: u32,
    table: HashCamTable,
    flow_state: FlowStateStore,
    paths: [PathSim; 2],
    // Sequencer.
    seq_q: VecDeque<usize>,
    cam_pipe: VecDeque<(u64, usize)>,
    wait_by_key: HashMap<FlowKey, VecDeque<usize>>,
    inflight_keys: HashSet<FlowKey>,
    lb_acc: u32,
    in_flight: usize,
    // Update unit.
    ins_q: VecDeque<usize>,
    del_q: VecDeque<DelReq>,
    // Flow-lifecycle layer (all inert unless the policies are set).
    /// Resume point of the incremental TTL scan (`None` = start over).
    expiry_cursor: Option<FlowId>,
    /// Resume point of the pressure scan.
    pressure_cursor: Option<FlowId>,
    /// Keys with a queued lifecycle deletion, so repeated scan passes
    /// don't grow `del_q` without bound.
    lifecycle_pending: HashSet<FlowKey>,
    /// Bounded list of pressure-eviction victims awaiting collection.
    victims: VecDeque<FlowRecord>,
    /// Bounded queue of lifecycle events awaiting [`FlowPipeline::poll_events`].
    events: VecDeque<FlowEvent>,
    // Descriptor slab and memory bookkeeping.
    descs: Vec<DescState>,
    mem_tags: HashMap<u64, MemTag>,
    assemblies: HashMap<usize, ReadAssembly>,
    next_mem_id: u64,
    next_asm_id: usize,
    now_sys: u64,
    stats: SimStats,
    last_completion_cycle: u64,
    // Steady-state scratch (reused across cycles so the hot path stays
    // allocation-free; pure transients, never part of simulator state).
    /// Per-tick memory-completion staging buffer.
    completions_scratch: Vec<(usize, Completion)>,
    /// Flow Match bucket-assembly byte buffer.
    match_bytes: Vec<u8>,
    /// Recycled `ReadAssembly::parts` buffers.
    parts_pool: Vec<Vec<Option<Vec<u8>>>>,
    /// DLU bucket-serialisation buffer.
    write_buf: Vec<u8>,
    /// Lifecycle scan batch buffer.
    scan_scratch: Vec<(FlowId, FlowRecord)>,
}

impl FlowLutSim {
    /// Builds a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`SimConfig::validate`] first for fallible handling.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        let burst_bytes = cfg.mem_burst_bytes();
        let bursts_per_bucket = cfg.table.bursts_per_bucket(burst_bytes);
        let mem_ticks_per_sys = cfg.mem_ticks_per_sys();
        let mk_path = || PathSim {
            ctrl: cfg.build_memory(),
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            pending_write_buckets: HashMap::new(),
            bwr_pending: Vec::new(),
            bwr_first_cycle: None,
        };
        FlowLutSim {
            table: HashCamTable::new(cfg.table),
            flow_state: FlowStateStore::new(),
            paths: [mk_path(), mk_path()],
            seq_q: VecDeque::new(),
            cam_pipe: VecDeque::new(),
            wait_by_key: HashMap::new(),
            inflight_keys: HashSet::new(),
            lb_acc: 0x9E37_79B9, // xorshift state; any non-zero seed
            in_flight: 0,
            ins_q: VecDeque::new(),
            del_q: VecDeque::new(),
            expiry_cursor: None,
            pressure_cursor: None,
            lifecycle_pending: HashSet::new(),
            victims: VecDeque::new(),
            events: VecDeque::new(),
            descs: Vec::new(),
            mem_tags: HashMap::new(),
            assemblies: HashMap::new(),
            next_mem_id: 0,
            next_asm_id: 0,
            now_sys: 0,
            stats: SimStats::default(),
            last_completion_cycle: 0,
            completions_scratch: Vec::new(),
            match_bytes: Vec::new(),
            parts_pool: Vec::new(),
            write_buf: Vec::new(),
            scan_scratch: Vec::new(),
            bursts_per_bucket,
            burst_bytes,
            mem_ticks_per_sys,
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The functional table (ground truth of resident flows).
    pub fn table(&self) -> &HashCamTable {
        &self.table
    }

    /// Per-flow records.
    pub fn flow_state(&self) -> &FlowStateStore {
        &self.flow_state
    }

    /// Simulator counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current system cycle.
    pub fn now_sys(&self) -> u64 {
        self.now_sys
    }

    /// Completed descriptor states (resolution, timing, flow IDs), in
    /// slab order (= offer order).
    pub fn descriptors(&self) -> &[DescState] {
        &self.descs
    }

    /// Preloads flows into the table *and* the simulated DRAM contents
    /// without spending simulated cycles — the "table occupied with 10K
    /// entries" setup of Table II(B).
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] wrapping the first [`InsertError`]
    /// encountered (duplicate key or table full) and the number of keys
    /// loaded before it. Preload is not transactional: those earlier
    /// keys remain fully loaded — in the table *and* in the simulated
    /// DRAM, so a partially preloaded simulator still answers lookups
    /// for them consistently.
    pub fn preload<I>(&mut self, keys: I) -> Result<usize, PreloadError>
    where
        I: IntoIterator<Item = FlowKey>,
    {
        let mut touched: [HashSet<u32>; 2] = [HashSet::new(), HashSet::new()];
        let mut n = 0usize;
        let mut failure: Option<InsertError> = None;
        for key in keys {
            let fid = match self.table.insert(key) {
                Ok(fid) => fid,
                Err(cause) => {
                    failure = Some(cause);
                    break;
                }
            };
            if let Location::Mem { path, bucket, .. } =
                fid.decode(self.cfg.table.entries_per_bucket)
            {
                touched[path.index()].insert(bucket);
            }
            self.flow_state.on_new_flow(fid, key, self.now_sys, 0);
            n += 1;
        }
        // Flush even on failure: the keys accepted so far must be
        // readable from DRAM, or later lookups would see stale buckets.
        for (p, buckets) in touched.iter().enumerate() {
            for &bucket in buckets {
                self.write_bucket_to_storage(p, bucket);
            }
        }
        match failure {
            Some(cause) => Err(PreloadError { inserted: n, cause }),
            None => Ok(n),
        }
    }

    fn write_bucket_to_storage(&mut self, path: usize, bucket: u32) {
        let slots = self.table.bucket_slots(PathId::from_index(path), bucket);
        let total = self.bursts_per_bucket as usize * self.burst_bytes;
        let bytes = codec::serialize_bucket(&slots, self.cfg.table.entry_slot_bytes, total);
        for j in 0..self.bursts_per_bucket {
            let addr = u64::from(bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            let chunk = &bytes[j as usize * self.burst_bytes..(j as usize + 1) * self.burst_bytes];
            self.paths[path].ctrl.storage_mut().write_burst(addr, chunk);
        }
    }

    /// Requests deletion of `key` (the Figure 2 "Flow delete" input).
    /// Processed asynchronously by the update unit.
    pub fn delete_flow(&mut self, key: FlowKey) {
        self.del_q.push_back(DelReq::User(key));
    }

    /// Offers one descriptor directly into the sequencer queue, bypassing
    /// the configured input-rate shaping — external drivers (the
    /// multi-channel engine) provide their own pacing and call
    /// [`tick`](Self::tick) themselves.
    ///
    /// Returns `false` (and leaves the descriptor untaken) when the
    /// sequencer queue is full.
    pub fn offer(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= self.cfg.sequencer_depth {
            return false;
        }
        self.push_desc(desc);
        true
    }

    /// Descriptors offered but not yet resolved (queued or in flight).
    pub fn in_pipeline(&self) -> u64 {
        self.stats.offered - self.stats.completed
    }

    /// A point-in-time statistics snapshot of this instance, for external
    /// aggregators stepping several instances in lockstep.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            now_sys: self.now_sys,
            stats: self.stats,
            occupancy: self.table.occupancy(),
            in_pipeline: self.in_pipeline(),
        }
    }

    /// Runs `descs` through the engine at the configured input rate and
    /// returns the performance report. Completes when every offered
    /// descriptor has resolved, including any offered before the call.
    ///
    /// This batch entry point is `start_run().run(descs)` on the
    /// streaming session API (a [`Session`] driving this simulator as a
    /// [`FlowPipeline`]): the [`SimReport`] is that session's
    /// [`RunReport`] plus the per-path memory statistics, which only the
    /// single-channel simulator has.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no progress for an implausibly long
    /// time (a scheduler deadlock — a bug, not a workload condition).
    pub fn run(&mut self, descs: &[PacketDescriptor]) -> SimReport {
        let run = match Session::new(self).run(descs) {
            Ok(report) => report,
            Err(_) => unreachable!("a freshly opened session is never drained"),
        };
        SimReport {
            sys_cycles: run.sys_cycles,
            elapsed_ns: run.elapsed_ns,
            completed: run.completed,
            mdesc_per_s: run.mdesc_per_s,
            stats: run.stats,
            table_occupancy: run.occupancy,
            mem_stats: [
                self.paths[0].ctrl.mem_stats(),
                self.paths[1].ctrl.mem_stats(),
            ],
            mean_latency_ns: run.mean_latency_ns,
        }
    }

    fn push_desc(&mut self, desc: PacketDescriptor) {
        let hashes = match desc.hash_override {
            Some(pair) => pair,
            None => self.table.raw_hashes(&desc.key),
        };
        let buckets = self.table.bucket_pair_from_hashes(hashes.0, hashes.1);
        let idx = self.descs.len();
        self.descs.push(DescState {
            desc,
            hashes,
            buckets,
            first_path: None,
            t_offer: self.now_sys,
            t_admit: 0,
            t_done: None,
            via: None,
            fid: None,
        });
        self.seq_q.push_back(idx);
        self.stats.offered += 1;
    }

    /// Advances one system-clock cycle.
    pub fn tick(&mut self) {
        self.now_sys += 1;

        // 1. Memory clocks (model-specific ratio per system cycle,
        //    both paths). The staging buffer is a reused scratch field:
        //    it must be out of `self` while completions are handled
        //    (handle_mem_completion takes `&mut self`).
        let mut completions = std::mem::take(&mut self.completions_scratch);
        for p in 0..2 {
            for _ in 0..self.mem_ticks_per_sys {
                for c in self.paths[p].ctrl.tick() {
                    completions.push((p, c));
                }
            }
        }
        // 2. Flow Match / write retirement.
        for (p, c) in completions.drain(..) {
            self.handle_mem_completion(p, c);
        }
        self.completions_scratch = completions;
        // 3. Flow-lifecycle scans (inert unless the policies are set):
        //     amortized incremental strides, never a stop-the-world walk.
        self.expiry_scan();
        self.pressure_scan();
        // 4. Update unit (Req_Arb: one deletion, one insertion per cycle).
        self.process_delete();
        self.process_insert();
        // 5. BWr_Gen release check.
        for p in 0..2 {
            self.bwr_release(p);
        }
        // 6. Sequencer: CAM stage then admission.
        self.cam_stage_pop();
        self.admit_from_queue();
        // 7. DLUs push work into the controllers.
        for p in 0..2 {
            self.dlu_issue(p);
        }
    }

    /// Advances `cycles` system-clock cycles in one call — the
    /// epoch-batched form of [`tick`](Self::tick) for drivers that know
    /// no input will arrive for a stretch (idle-time advancement for
    /// flow aging, fixed-length warm-up, coarse-grained co-simulation).
    pub fn tick_many(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    fn handle_mem_completion(&mut self, path: usize, c: Completion) {
        let tag = self
            .mem_tags
            .remove(&c.id)
            .expect("completion for unknown request");
        match tag {
            MemTag::LookupPart { asm, part } => {
                let done = {
                    let a = self.assemblies.get_mut(&asm).expect("live assembly");
                    debug_assert_eq!(a.path, path);
                    debug_assert_eq!(c.kind, AccessKind::Read);
                    a.parts[part as usize] = Some(c.data.expect("reads carry data"));
                    a.got += 1;
                    a.got == self.bursts_per_bucket
                };
                if done {
                    let a = self.assemblies.remove(&asm).expect("live assembly");
                    self.flow_match(a);
                }
            }
            MemTag::WritePart {
                path: wpath,
                bucket,
                covers,
                last,
            } => {
                debug_assert_eq!(wpath, path);
                if last {
                    let remaining = self.paths[path]
                        .pending_write_buckets
                        .get_mut(&bucket)
                        .expect("write completion for unmarked bucket");
                    *remaining = remaining.saturating_sub(covers);
                    if *remaining == 0 {
                        self.paths[path].pending_write_buckets.remove(&bucket);
                    }
                }
            }
        }
    }

    /// The Flow Match block: compare the assembled bucket against the
    /// descriptor's key; on LU1 miss redirect to the other path, on LU2
    /// miss raise an insertion.
    fn flow_match(&mut self, mut a: ReadAssembly) {
        let mut bytes = std::mem::take(&mut self.match_bytes);
        bytes.clear();
        for part in &a.parts {
            bytes.extend_from_slice(part.as_deref().expect("assembly complete"));
        }
        // Recycle the parts buffer for the next issue_bucket_read.
        let mut parts = std::mem::take(&mut a.parts);
        parts.clear();
        self.parts_pool.push(parts);
        let ds = &self.descs[a.desc];
        let key = ds.desc.key;
        let k = usize::from(self.cfg.table.entries_per_bucket);
        match codec::find_key(&bytes, self.cfg.table.entry_slot_bytes, k, &key) {
            Some(slot) => {
                let path = PathId::from_index(a.path);
                let fid = FlowId::encode(
                    Location::Mem {
                        path,
                        bucket: a.bucket,
                        slot,
                    },
                    self.cfg.table.entries_per_bucket,
                );
                let via = match a.stage {
                    LuStage::Lu1 => ResolvedVia::Lu1Hit(path),
                    LuStage::Lu2 => ResolvedVia::Lu2Hit(path),
                };
                self.complete(a.desc, via, Some(fid));
            }
            None => match a.stage {
                LuStage::Lu1 => {
                    let other = a.path ^ 1;
                    let bucket = if other == 0 {
                        self.descs[a.desc].buckets.0
                    } else {
                        self.descs[a.desc].buckets.1
                    };
                    self.paths[other].read_q.push_back(ReadIntent {
                        desc: a.desc,
                        stage: LuStage::Lu2,
                        bucket,
                    });
                }
                LuStage::Lu2 => {
                    self.ins_q.push_back(a.desc);
                }
            },
        }
        self.match_bytes = bytes;
    }

    fn complete(&mut self, desc: usize, via: ResolvedVia, fid: Option<FlowId>) {
        let now = self.now_sys;
        let key;
        {
            let ds = &mut self.descs[desc];
            debug_assert!(ds.t_done.is_none(), "descriptor completed twice");
            ds.t_done = Some(now);
            ds.via = Some(via);
            ds.fid = fid;
            key = ds.desc.key;
            let latency = now - ds.t_admit;
            self.stats.total_latency_sys += latency;
            self.stats.max_latency_sys = self.stats.max_latency_sys.max(latency);
        }
        self.stats.completed += 1;
        self.last_completion_cycle = now;
        match via {
            ResolvedVia::CamHit => self.stats.cam_hits += 1,
            ResolvedVia::Lu1Hit(_) => self.stats.lu1_hits += 1,
            ResolvedVia::Lu2Hit(_) => self.stats.lu2_hits += 1,
            ResolvedVia::InsertedMem(_) => self.stats.inserted_mem += 1,
            ResolvedVia::InsertedCam => self.stats.inserted_cam += 1,
            ResolvedVia::DuplicateRace => self.stats.duplicate_races += 1,
            ResolvedVia::Dropped => self.stats.drops += 1,
        }
        // Flow-state records.
        let frame = u64::from(self.descs[desc].desc.frame_bytes);
        if let Some(fid) = fid {
            if via.is_new_flow() {
                self.flow_state.on_new_flow(fid, key, now, frame);
            } else {
                self.flow_state.on_packet(fid, now, frame);
            }
        }
        self.in_flight -= 1;
        // Release the next same-key waiter into the CAM stage.
        self.inflight_keys.remove(&key);
        if let Some(waiters) = self.wait_by_key.get_mut(&key) {
            if let Some(next) = waiters.pop_front() {
                if waiters.is_empty() {
                    self.wait_by_key.remove(&key);
                }
                self.admit(next);
            } else {
                self.wait_by_key.remove(&key);
            }
        }
    }

    fn admit(&mut self, desc: usize) {
        let key = self.descs[desc].desc.key;
        debug_assert!(!self.inflight_keys.contains(&key));
        self.inflight_keys.insert(key);
        self.descs[desc].t_admit = self.now_sys;
        self.stats.admitted += 1;
        self.in_flight += 1;
        self.cam_pipe
            .push_back((self.now_sys + self.cfg.cam_latency_sys, desc));
    }

    fn admit_from_queue(&mut self) {
        if self.in_flight >= self.cfg.max_in_flight {
            return;
        }
        let Some(idx) = self.seq_q.pop_front() else {
            return;
        };
        let key = self.descs[idx].desc.key;
        if self.inflight_keys.contains(&key) {
            // Request Filter waiting list: same-flow order preservation.
            self.stats.same_key_holds += 1;
            self.wait_by_key.entry(key).or_default().push_back(idx);
            return;
        }
        self.admit(idx);
    }

    /// Pops at most one descriptor whose CAM-stage latency has elapsed:
    /// CAM hits complete here; misses are dispatched to a path.
    ///
    /// Dispatch applies DLU back-pressure: a descriptor whose target
    /// path's LU1 queue is at [`SimConfig::dlu_queue_depth`] stalls in
    /// the CAM pipe (head-of-line, as a hardware FIFO would). LU2
    /// redirects are exempt — they drain existing work and blocking them
    /// could deadlock the pipeline.
    fn cam_stage_pop(&mut self) {
        let ready = self
            .cam_pipe
            .front()
            .is_some_and(|&(t, _)| t <= self.now_sys);
        if !ready {
            return;
        }
        let (_, idx) = *self.cam_pipe.front().expect("checked non-empty");
        let key = self.descs[idx].desc.key;
        if let Some(fid) = self.table.cam_peek(&key) {
            self.cam_pipe.pop_front();
            self.complete(idx, ResolvedVia::CamHit, Some(fid));
            return;
        }
        // The load balancer decides once; a full DLU stalls the pipe
        // rather than re-routing (hardware honours the configured split).
        let path = match self.descs[idx].first_path {
            Some(p) => p,
            None => {
                let p = self.choose_path(idx);
                self.descs[idx].first_path = Some(p);
                p
            }
        };
        if self.paths[path.index()]
            .read_q
            .iter()
            .filter(|r| r.stage == LuStage::Lu1)
            .count()
            >= self.cfg.dlu_queue_depth
        {
            // DLU full: stall the sequencer this cycle.
            self.stats.input_stall_cycles += 1;
            return;
        }
        self.cam_pipe.pop_front();
        self.stats.lu1_per_path[path.index()] += 1;
        let bucket = match path {
            PathId::A => self.descs[idx].buckets.0,
            PathId::B => self.descs[idx].buckets.1,
        };
        self.paths[path.index()].read_q.push_back(ReadIntent {
            desc: idx,
            stage: LuStage::Lu1,
            bucket,
        });
    }

    fn choose_path(&mut self, desc: usize) -> PathId {
        match self.cfg.load_balancer {
            LoadBalancerPolicy::HashSplit => {
                if self.descs[desc].hashes.0 & 1 == 0 {
                    PathId::A
                } else {
                    PathId::B
                }
            }
            LoadBalancerPolicy::FixedRatio { path_a_permille } => {
                // Bernoulli split from a private xorshift stream rather
                // than strict interleave: deterministic alternation would
                // correlate with periodic stimulus patterns (e.g. the
                // bank-increment hashes) and skew per-path bank coverage.
                self.lb_acc ^= self.lb_acc << 13;
                self.lb_acc ^= self.lb_acc >> 17;
                self.lb_acc ^= self.lb_acc << 5;
                let threshold = (u64::from(u32::MAX) + 1) * u64::from(path_a_permille) / 1000;
                if u64::from(self.lb_acc) < threshold {
                    PathId::A
                } else {
                    PathId::B
                }
            }
            LoadBalancerPolicy::QueueDepth => {
                let load = |p: usize| self.paths[p].read_q.len() + self.paths[p].ctrl.queued_len();
                if load(0) <= load(1) {
                    PathId::A
                } else {
                    PathId::B
                }
            }
        }
    }

    /// One stride of the incremental TTL scan ([`ExpiryPolicy`]): visits
    /// up to `scan_stride` records per cycle in ID order and nominates
    /// the cycle-idle ones for deletion. Nominations are re-validated by
    /// the update unit, so a flow touched between scan and processing
    /// survives.
    ///
    /// [`ExpiryPolicy`]: crate::config::ExpiryPolicy
    fn expiry_scan(&mut self) {
        let Some(policy) = self.cfg.expiry else {
            return;
        };
        let mut batch = std::mem::take(&mut self.scan_scratch);
        self.expiry_cursor =
            self.flow_state
                .scan_after_into(self.expiry_cursor, policy.scan_stride, &mut batch);
        for (_, record) in batch.drain(..) {
            if self.now_sys.saturating_sub(record.last_touch_sys) <= policy.idle_timeout_cycles {
                continue;
            }
            if self.inflight_keys.contains(&record.key)
                || self.lifecycle_pending.contains(&record.key)
            {
                continue;
            }
            self.lifecycle_pending.insert(record.key);
            self.del_q.push_back(DelReq::ExpireTtl(record.key));
        }
        self.scan_scratch = batch;
    }

    /// One batch of the occupancy-pressure scan ([`PressurePolicy`]):
    /// while CAM occupancy sits at or above the high-water mark, walk
    /// `scan_batch` records per cycle and nominate the coldest for
    /// eviction onto the bounded victim list — graceful degradation
    /// instead of a hard `TableFull`.
    ///
    /// [`PressurePolicy`]: crate::config::PressurePolicy
    fn pressure_scan(&mut self) {
        let Some(policy) = self.cfg.pressure else {
            return;
        };
        if self.table.occupancy().cam < u64::from(policy.cam_high_water) {
            return;
        }
        let mut batch = std::mem::take(&mut self.scan_scratch);
        self.pressure_cursor =
            self.flow_state
                .scan_after_into(self.pressure_cursor, policy.scan_batch, &mut batch);
        let coldest = batch
            .drain(..)
            .filter(|(_, r)| {
                !self.inflight_keys.contains(&r.key) && !self.lifecycle_pending.contains(&r.key)
            })
            .min_by_key(|(id, r)| (r.last_touch_sys, id.raw()));
        if let Some((_, record)) = coldest {
            self.lifecycle_pending.insert(record.key);
            self.del_q.push_back(DelReq::Evict(record.key));
        }
        self.scan_scratch = batch;
    }

    /// Queues a lifecycle event for [`FlowPipeline::poll_events`],
    /// dropping the oldest when the bounded queue is full (an unpolled
    /// long run must not grow memory without bound).
    fn push_event(&mut self, kind: FlowEventKind, key: FlowKey) {
        const EVENT_QUEUE_CAP: usize = 4096;
        if self.events.len() >= EVENT_QUEUE_CAP {
            self.events.pop_front();
        }
        self.events.push_back(FlowEvent {
            kind,
            key,
            now_sys: self.now_sys,
        });
    }

    /// Takes the accumulated pressure-eviction victims (oldest first),
    /// leaving the list empty. The list is bounded by
    /// [`PressurePolicy::victim_cap`](crate::config::PressurePolicy) —
    /// when full, the oldest victim record is discarded.
    pub fn take_victims(&mut self) -> Vec<FlowRecord> {
        self.victims.drain(..).collect()
    }

    fn process_delete(&mut self) {
        let Some(req) = self.del_q.pop_front() else {
            return;
        };
        let key = match req {
            DelReq::ExpireTtl(key) => {
                self.lifecycle_pending.remove(&key);
                let Some(policy) = self.cfg.expiry else {
                    return;
                };
                // Re-validate: the flow may have been touched (or
                // completed against) since the scan stride.
                if self.inflight_keys.contains(&key) {
                    return;
                }
                let Some(fid) = self.table.peek(&key) else {
                    return; // already gone
                };
                match self.flow_state.get(fid) {
                    Some(r)
                        if self.now_sys.saturating_sub(r.last_touch_sys)
                            > policy.idle_timeout_cycles => {}
                    _ => return, // re-activated or record already gone
                }
                self.stats.expired_ttl += 1;
                self.push_event(FlowEventKind::ExpiredTtl, key);
                key
            }
            DelReq::Evict(key) => {
                self.lifecycle_pending.remove(&key);
                let Some(policy) = self.cfg.pressure else {
                    return;
                };
                if self.inflight_keys.contains(&key) {
                    return;
                }
                let Some(fid) = self.table.peek(&key) else {
                    return;
                };
                // Pressure may have eased since the nomination.
                if self.table.occupancy().cam < u64::from(policy.cam_high_water) {
                    return;
                }
                let Some(record) = self.flow_state.get(fid).copied() else {
                    return;
                };
                if self.victims.len() >= policy.victim_cap {
                    self.victims.pop_front();
                }
                self.victims.push_back(record);
                self.stats.pressure_evicted += 1;
                self.push_event(FlowEventKind::EvictedPressure, key);
                key
            }
            DelReq::User(key) => key,
        };
        if let Some(fid) = self.table.delete(&key) {
            self.stats.deletes += 1;
            let _ = self.flow_state.remove(fid);
            if let Location::Mem { path, bucket, .. } =
                fid.decode(self.cfg.table.entries_per_bucket)
            {
                self.add_update_intent(path.index(), bucket);
            }
        }
    }

    fn process_insert(&mut self) {
        let Some(idx) = self.ins_q.pop_front() else {
            return;
        };
        let key = self.descs[idx].desc.key;
        let (b1, b2) = self.descs[idx].buckets;
        // The final miss was detected by the LU2 path's Flow Match, whose
        // Ins_req goes to its own Updt block: prefer that path's bucket.
        let prefer = self.descs[idx]
            .first_path
            .expect("inserting descriptor was dispatched")
            .other();
        match self
            .table
            .insert_with_buckets_preferring(key, b1, b2, prefer)
        {
            Ok(fid) => match fid.decode(self.cfg.table.entries_per_bucket) {
                Location::Mem { path, bucket, .. } => {
                    self.add_update_intent(path.index(), bucket);
                    self.complete(idx, ResolvedVia::InsertedMem(path), Some(fid));
                }
                Location::Cam(_) => {
                    self.complete(idx, ResolvedVia::InsertedCam, Some(fid));
                }
            },
            Err(InsertError::TableFull) => self.complete(idx, ResolvedVia::Dropped, None),
            // Duplicate-race backstop: unreachable under the same-key
            // waiting list, but a resident copy completes the descriptor
            // rather than inserting twice.
            Err(InsertError::Duplicate(fid)) => {
                self.complete(idx, ResolvedVia::DuplicateRace, Some(fid));
            }
        }
    }

    fn add_update_intent(&mut self, path: usize, bucket: u32) {
        let p = &mut self.paths[path];
        p.bwr_pending.push(bucket);
        *p.pending_write_buckets.entry(bucket).or_insert(0) += 1;
        p.bwr_first_cycle.get_or_insert(self.now_sys);
    }

    /// BWr_Gen: releases the accumulated updates as a burst of writes
    /// when the count threshold is reached or the oldest update times
    /// out.
    fn bwr_release(&mut self, path: usize) {
        let now = self.now_sys;
        let (by_count, by_timeout) = {
            let p = &self.paths[path];
            if p.bwr_pending.is_empty() {
                return;
            }
            let by_count = p.bwr_pending.len() >= self.cfg.bwr_threshold;
            let by_timeout = p
                .bwr_first_cycle
                .is_some_and(|t| now - t >= self.cfg.bwr_timeout_sys);
            (by_count, by_timeout)
        };
        if !by_count && !by_timeout {
            return;
        }
        if by_count {
            self.stats.bwr_count_releases += 1;
        } else {
            self.stats.bwr_timeout_releases += 1;
        }
        let p = &mut self.paths[path];
        // Coalesce intents per bucket: one write retires them all.
        // Sort then run-length encode in place — same ascending-bucket
        // release order as the former map-and-sort, without the
        // per-release map and pair vector.
        p.bwr_pending.sort_unstable();
        let mut i = 0;
        while i < p.bwr_pending.len() {
            let bucket = p.bwr_pending[i];
            let mut covers = 0u32;
            while i < p.bwr_pending.len() && p.bwr_pending[i] == bucket {
                covers += 1;
                i += 1;
            }
            p.write_q.push_back(WriteIntent { bucket, covers });
        }
        p.bwr_pending.clear();
        p.bwr_first_cycle = None;
    }

    /// The DLU: moves held writes and reads into the memory controller,
    /// respecting the request filter and the bank-selection ablation.
    fn dlu_issue(&mut self, path: usize) {
        // Ablation: without bank selection the path keeps a single
        // request outstanding — no bank-level parallelism.
        let serialize = !self.cfg.bank_select_enabled;
        if serialize && !self.paths[path].ctrl.is_drained() {
            return;
        }
        let bursts = self.bursts_per_bucket as usize;

        // Writes first: they unblock held reads.
        while let Some(&w) = self.paths[path].write_q.front() {
            let room = self.cfg.controller_queue >= self.paths[path].ctrl.queued_len() + bursts;
            if !room {
                break;
            }
            self.paths[path].write_q.pop_front();
            self.issue_bucket_write(path, w);
            if serialize {
                return;
            }
        }

        // Reads: scan the queue once, holding filtered buckets.
        let n = self.paths[path].read_q.len();
        for _ in 0..n {
            let Some(r) = self.paths[path].read_q.pop_front() else {
                break;
            };
            if self.paths[path]
                .pending_write_buckets
                .contains_key(&r.bucket)
            {
                // Request Filter: a write to this bucket is pending.
                self.stats.filter_hold_cycles += 1;
                self.paths[path].read_q.push_back(r);
                continue;
            }
            let room = self.cfg.controller_queue >= self.paths[path].ctrl.queued_len() + bursts;
            if !room {
                self.paths[path].read_q.push_front(r);
                break;
            }
            self.issue_bucket_read(path, r);
            if serialize {
                return;
            }
        }
    }

    fn issue_bucket_read(&mut self, path: usize, r: ReadIntent) {
        let asm = self.next_asm_id;
        self.next_asm_id += 1;
        // Reuse a retired assembly's parts buffer when one is pooled
        // (pooled buffers are cleared; resize refills with `None`).
        let mut parts = self.parts_pool.pop().unwrap_or_default();
        parts.resize(self.bursts_per_bucket as usize, None);
        self.assemblies.insert(
            asm,
            ReadAssembly {
                desc: r.desc,
                stage: r.stage,
                path,
                bucket: r.bucket,
                parts,
                got: 0,
            },
        );
        for j in 0..self.bursts_per_bucket {
            let id = self.next_mem_id;
            self.next_mem_id += 1;
            let addr = u64::from(r.bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            self.mem_tags
                .insert(id, MemTag::LookupPart { asm, part: j });
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::read(id, addr))
                .expect("DLU checked controller room");
            self.stats.reads_issued += 1;
        }
    }

    fn issue_bucket_write(&mut self, path: usize, w: WriteIntent) {
        let total = self.bursts_per_bucket as usize * self.burst_bytes;
        let mut bytes = std::mem::take(&mut self.write_buf);
        let slots = self
            .table
            .bucket_slots_ref(PathId::from_index(path), w.bucket)
            .unwrap_or(&[]);
        codec::serialize_bucket_into(&mut bytes, slots, self.cfg.table.entry_slot_bytes, total);
        for j in 0..self.bursts_per_bucket {
            let id = self.next_mem_id;
            self.next_mem_id += 1;
            let addr = u64::from(w.bucket) * u64::from(self.bursts_per_bucket) + u64::from(j);
            let chunk =
                bytes[j as usize * self.burst_bytes..(j as usize + 1) * self.burst_bytes].to_vec();
            let last = j + 1 == self.bursts_per_bucket;
            self.mem_tags.insert(
                id,
                MemTag::WritePart {
                    path,
                    bucket: w.bucket,
                    covers: w.covers,
                    last,
                },
            );
            self.paths[path]
                .ctrl
                .enqueue(MemRequest::write(id, addr, chunk))
                .expect("DLU checked controller room");
            self.stats.writes_issued += 1;
        }
        self.write_buf = bytes;
    }
}

/// Magic bytes of a single-channel simulator checkpoint ("FLUT" LE).
const SIM_CHECKPOINT_MAGIC: u32 = 0x54554C46;
/// Current checkpoint format version.
const SIM_CHECKPOINT_VERSION: u32 = 2;

/// FNV-1a digest over the behaviour-relevant configuration, recorded in
/// checkpoints so a restore into a mismatched configuration fails loudly.
fn sim_config_digest(cfg: &SimConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(cfg.table.buckets_per_mem));
    h.write_u64(u64::from(cfg.table.entries_per_bucket));
    h.write_u64(cfg.table.cam_capacity as u64);
    h.write_u64(cfg.table.entry_slot_bytes as u64);
    h.write_u64(cfg.table.hash_seed);
    h.write_bytes(cfg.memory.name().as_bytes());
    h.write_u64(u64::from(cfg.mem_ticks_per_sys()));
    h.write_u64(cfg.sys_period_ns().to_bits());
    h.finish()
}

impl FlowLutSim {
    /// `true` when nothing is queued, staged, batched, or in flight —
    /// the state [`checkpoint`](Self::checkpoint) requires.
    pub fn is_quiescent(&self) -> bool {
        self.in_pipeline() == 0
            && self.del_q.is_empty()
            && self.mem_tags.is_empty()
            && self.paths.iter().all(|p| {
                p.read_q.is_empty()
                    && p.write_q.is_empty()
                    && p.pending_write_buckets.is_empty()
                    && p.bwr_pending.is_empty()
            })
    }

    /// Drains the pipeline and then keeps ticking until every internal
    /// queue (update unit, BWr_Gen batches, outstanding memory requests)
    /// has settled. Returns the cycles spent.
    ///
    /// # Panics
    ///
    /// Panics if the queues fail to settle in an implausibly long time
    /// (a scheduler deadlock — a bug, not a workload condition).
    pub fn quiesce(&mut self) -> u64 {
        let start = self.now_sys;
        if self.in_pipeline() > 0 {
            FlowPipeline::drain(self);
        }
        let mut guard = 0u64;
        while !self.is_quiescent() {
            FlowLutSim::tick(self);
            guard += 1;
            assert!(
                guard < 2_000_000,
                "internal queues did not settle for 2M cycles — quiesce deadlock"
            );
        }
        self.now_sys - start
    }

    /// Rebuilds both memory controllers in the *canonical* phase for the
    /// current cycle: a fresh controller idle-ticked to `now_sys`, with
    /// the storage re-flushed from the functional table.
    ///
    /// Controller-internal device state (refresh countdowns, bus
    /// turnaround history) is traffic-dependent and not serializable
    /// through the object-safe [`MemoryModel`] trait; instead both the
    /// live side (at checkpoint) and the restored side rebuild this
    /// canonical phase, so the two are bit-identical by construction.
    /// Requires quiescence (no outstanding requests may be dropped).
    fn canonicalize_memory(&mut self) {
        debug_assert!(self.is_quiescent());
        let ticks = self.now_sys * u64::from(self.mem_ticks_per_sys);
        for p in 0..2 {
            let mut ctrl = self.cfg.build_memory();
            for _ in 0..ticks {
                let done = ctrl.tick();
                debug_assert!(done.is_empty(), "idle controller completed a request");
            }
            self.paths[p].ctrl = ctrl;
        }
        let mut touched: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for (_, loc) in self.table.iter() {
            if let Location::Mem { path, bucket, .. } = loc {
                touched[path.index()].push(bucket);
            }
        }
        for (p, buckets) in touched.iter_mut().enumerate() {
            buckets.sort_unstable();
            buckets.dedup();
            for &bucket in buckets.iter() {
                self.write_bucket_to_storage(p, bucket);
            }
        }
    }

    /// Serializes a consistent checkpoint of this (quiescent) simulator.
    ///
    /// The checkpoint captures resident placements, per-flow records,
    /// cumulative statistics, lifecycle cursors/victims/events, and the
    /// load-balancer PRNG state; [`restore`](Self::restore) rebuilds an
    /// instance whose replay is bit-identical to continuing this one
    /// (`tests/checkpoint_restore.rs`). As a side effect the live
    /// instance's memory controllers are re-phased canonically — a
    /// behaviour-preserving normalization that makes live and restored
    /// instances indistinguishable.
    ///
    /// Not captured: completed-descriptor history
    /// ([`descriptors`](Self::descriptors)) and table/CAM
    /// micro-statistics, which do not influence future behaviour.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] unless [`quiesce`](Self::quiesce)
    /// (or a drained, settled pipeline) came first.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent {
                in_pipeline: self.in_pipeline(),
            });
        }
        self.canonicalize_memory();
        let k = self.cfg.table.entries_per_bucket;
        let mut w = ByteWriter::new();
        w.put_u32(SIM_CHECKPOINT_MAGIC);
        w.put_u32(SIM_CHECKPOINT_VERSION);
        w.put_u64(sim_config_digest(&self.cfg));
        w.put_u64(self.now_sys);
        w.put_u32(self.lb_acc);
        w.put_u64(self.next_mem_id);
        w.put_u64(self.next_asm_id as u64);
        w.put_u64(self.last_completion_cycle);
        checkpoint::write_stats(&mut w, &self.stats);
        // Resident placements, sorted by encoded ID for a canonical
        // byte stream (the table iterates in hash-map order).
        let mut placements: Vec<(FlowKey, Location)> = self.table.iter().collect();
        placements.sort_by_key(|&(_, loc)| FlowId::encode(loc, k).raw());
        w.put_u64(placements.len() as u64);
        for &(key, loc) in &placements {
            checkpoint::write_location(&mut w, loc);
            checkpoint::write_key(&mut w, &key);
        }
        // Per-flow records (BTreeMap order is already canonical).
        w.put_u64(self.flow_state.len() as u64);
        for (id, record) in self.flow_state.iter() {
            checkpoint::write_location(&mut w, id.decode(k));
            checkpoint::write_record(&mut w, record);
        }
        // Lifecycle scan cursors.
        for cursor in [self.expiry_cursor, self.pressure_cursor] {
            match cursor {
                Some(id) => {
                    w.put_u8(1);
                    checkpoint::write_location(&mut w, id.decode(k));
                }
                None => w.put_u8(0),
            }
        }
        // Pending victims and events.
        w.put_u64(self.victims.len() as u64);
        for record in &self.victims {
            checkpoint::write_record(&mut w, record);
        }
        w.put_u64(self.events.len() as u64);
        for event in &self.events {
            w.put_u8(match event.kind {
                FlowEventKind::ExpiredTtl => 0,
                FlowEventKind::EvictedPressure => 1,
            });
            checkpoint::write_key(&mut w, &event.key);
            w.put_u64(event.now_sys);
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds a simulator from a [`checkpoint`](Self::checkpoint) blob.
    ///
    /// `cfg` must describe the same behaviour-relevant configuration the
    /// checkpoint was taken under (guarded by an FNV digest); lifecycle
    /// policies may differ — they are re-read from `cfg`, so a restore
    /// can e.g. tighten the TTL.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`.
    pub fn restore(cfg: SimConfig, bytes: &[u8]) -> Result<FlowLutSim, CheckpointError> {
        cfg.validate()
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let mut r = ByteReader::new(bytes);
        if r.u32()? != SIM_CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != SIM_CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let found = r.u64()?;
        let expected = sim_config_digest(&cfg);
        if found != expected {
            return Err(CheckpointError::ConfigMismatch { expected, found });
        }
        let table_cfg = cfg.table;
        let k = table_cfg.entries_per_bucket;
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = r.u64()?;
        sim.lb_acc = r.u32()?;
        sim.next_mem_id = r.u64()?;
        sim.next_asm_id = usize::try_from(r.u64()?)
            .map_err(|_| CheckpointError::Corrupt("assembly counter overflow"))?;
        sim.last_completion_cycle = r.u64()?;
        sim.stats = checkpoint::read_stats(&mut r)?;
        if sim.stats.offered != sim.stats.completed {
            return Err(CheckpointError::Corrupt("checkpointed mid-pipeline"));
        }
        let placements = r.u64()?;
        for _ in 0..placements {
            let loc = checkpoint::read_location(&mut r, &table_cfg)?;
            let key = checkpoint::read_key(&mut r)?;
            sim.table
                .restore_at(key, loc)
                .map_err(CheckpointError::Corrupt)?;
        }
        let records = r.u64()?;
        for _ in 0..records {
            let loc = checkpoint::read_location(&mut r, &table_cfg)?;
            let record = checkpoint::read_record(&mut r)?;
            let fid = FlowId::encode(loc, k);
            if sim.flow_state.get(fid).is_some() {
                return Err(CheckpointError::Corrupt("duplicate flow record"));
            }
            sim.flow_state.adopt(fid, record);
        }
        let mut cursors = [None, None];
        for cursor in &mut cursors {
            *cursor = match r.u8()? {
                0 => None,
                1 => Some(FlowId::encode(
                    checkpoint::read_location(&mut r, &table_cfg)?,
                    k,
                )),
                _ => return Err(CheckpointError::Corrupt("unknown cursor tag")),
            };
        }
        sim.expiry_cursor = cursors[0];
        sim.pressure_cursor = cursors[1];
        let victims = r.u64()?;
        for _ in 0..victims {
            let record = checkpoint::read_record(&mut r)?;
            sim.victims.push_back(record);
        }
        let events = r.u64()?;
        for _ in 0..events {
            let kind = match r.u8()? {
                0 => FlowEventKind::ExpiredTtl,
                1 => FlowEventKind::EvictedPressure,
                _ => return Err(CheckpointError::Corrupt("unknown event tag")),
            };
            let key = checkpoint::read_key(&mut r)?;
            let now_sys = r.u64()?;
            sim.events.push_back(FlowEvent { kind, key, now_sys });
        }
        r.finish()?;
        sim.canonicalize_memory();
        Ok(sim)
    }

    /// Builds an *empty* simulator already advanced to `now_sys`, with
    /// its memory controllers in the canonical phase for that cycle —
    /// the starting point for rescale destination shards, which adopt
    /// flows at the cycle the drained source shards stopped at.
    pub fn warm_start(cfg: SimConfig, now_sys: u64) -> FlowLutSim {
        let mut sim = FlowLutSim::new(cfg);
        sim.now_sys = now_sys;
        sim.last_completion_cycle = now_sys;
        sim.canonicalize_memory();
        sim
    }

    /// Adopts a migrating flow: inserts `record.key` through the
    /// functional table (fresh placement under *this* instance's
    /// geometry), flushes the touched bucket to storage, and installs
    /// the preserved record under the new ID — the rescale rehoming
    /// primitive.
    ///
    /// # Errors
    ///
    /// [`InsertError`] when the key is already resident or the table is
    /// full.
    pub fn adopt_flow(&mut self, record: FlowRecord) -> Result<FlowId, InsertError> {
        let fid = self.table.insert(record.key)?;
        if let Location::Mem { path, bucket, .. } = fid.decode(self.cfg.table.entries_per_bucket) {
            self.write_bucket_to_storage(path.index(), bucket);
        }
        self.flow_state.adopt(fid, record);
        Ok(fid)
    }
}

/// Backend name of the single-channel timed simulator, shared by the
/// [`FlowStore`] impl and the [`SimReport`] → [`RunReport`] conversion.
pub(crate) const SIM_BACKEND_NAME: &str = "hashcam-sim";

impl From<SimReport> for RunReport {
    /// Projects the rich single-channel report onto the unified shape
    /// (dropping the per-path controller/device detail).
    fn from(r: SimReport) -> RunReport {
        RunReport {
            backend: SIM_BACKEND_NAME,
            channels: 1,
            sys_cycles: r.sys_cycles,
            elapsed_ns: r.elapsed_ns,
            completed: r.completed,
            mdesc_per_s: r.mdesc_per_s,
            mean_latency_ns: r.mean_latency_ns,
            stats: r.stats,
            occupancy: r.table_occupancy,
        }
    }
}

impl FlowLutSim {
    /// Runs one descriptor through the timed pipeline to completion and
    /// returns how it resolved — the primitive behind the functional
    /// [`FlowStore`] view of the simulator.
    fn run_one(&mut self, desc: PacketDescriptor) -> ResolvedVia {
        let idx = self.descs.len();
        self.last_completion_cycle = self.now_sys;
        while !self.offer(desc) {
            self.tick();
        }
        while self.descs[idx].t_done.is_none() {
            self.tick();
            assert!(
                self.now_sys - self.last_completion_cycle < 2_000_000,
                "functional op made no progress for 2M cycles — pipeline deadlock",
            );
        }
        self.descs[idx]
            .via
            .expect("completed descriptor has resolution")
    }
}

impl FlowStore for FlowLutSim {
    fn name(&self) -> &'static str {
        SIM_BACKEND_NAME
    }

    /// Upsert through the real pipeline: offers a descriptor and ticks
    /// until it resolves, so the insert pays the same sequencing, DRAM
    /// and update-unit costs a streamed descriptor would.
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        let seq = self.descs.len() as u64;
        match self.run_one(PacketDescriptor::new(seq, key)) {
            via if via.is_new_flow() => Ok(true),
            ResolvedVia::Dropped => Err(FullError {
                table: SIM_BACKEND_NAME,
                key,
                occupancy: self.table.len(),
                capacity: self.cfg.table.capacity(),
            }),
            _ => Ok(false),
        }
    }

    /// Answers from the functional ground truth (the table the pipeline
    /// maintains) without spending simulated cycles: a timed lookup of an
    /// absent key would *insert* it, which a membership query must not.
    fn contains(&mut self, key: &FlowKey) -> bool {
        self.table.peek(key).is_some()
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        if self.table.peek(key).is_none() {
            return false;
        }
        self.delete_flow(*key);
        let start = self.now_sys;
        while self.table.peek(key).is_some() {
            self.tick();
            assert!(
                self.now_sys - start < 2_000_000,
                "deletion not processed for 2M cycles — update unit deadlock",
            );
        }
        true
    }

    fn len(&self) -> u64 {
        self.table.len()
    }

    fn capacity(&self) -> u64 {
        self.cfg.table.capacity()
    }

    /// Unified accounting from the simulator counters: one `mem_read` /
    /// `mem_write` is one *bucket* access (burst counts divided by
    /// bursts-per-bucket), every admitted descriptor searches the CAM
    /// once, and nothing relocates (a full table drops the new flow).
    fn op_stats(&self) -> OpStats {
        let s = &self.stats;
        let bpb = u64::from(self.bursts_per_bucket);
        OpStats {
            mem_reads: s.reads_issued / bpb,
            mem_writes: s.writes_issued / bpb,
            cam_searches: s.admitted,
            relocations: 0,
            lookups: s.completed,
            inserts: s.inserted_mem + s.inserted_cam + s.drops,
            rejected: s.drops,
            cam_spills: s.inserted_cam,
        }
    }
}

impl FlowPipeline for FlowLutSim {
    fn begin_run(&mut self) {
        self.stats.max_latency_sys = 0;
    }

    fn push(&mut self, desc: PacketDescriptor) -> bool {
        if self.seq_q.len() >= self.cfg.sequencer_depth {
            self.stats.input_stall_cycles += 1;
            return false;
        }
        self.push_desc(desc);
        true
    }

    fn tick(&mut self) {
        FlowLutSim::tick(self);
    }

    fn tick_many(&mut self, cycles: u64) {
        FlowLutSim::tick_many(self, cycles);
    }

    fn poll(&self) -> SessionProgress {
        SessionProgress {
            now_sys: self.now_sys,
            stats: self.stats,
            in_pipeline: self.in_pipeline(),
            occupancy: self.table.occupancy(),
        }
    }

    fn poll_events(&mut self) -> Vec<FlowEvent> {
        self.events.drain(..).collect()
    }

    fn drain(&mut self) -> u64 {
        let start = self.now_sys;
        self.last_completion_cycle = self.now_sys;
        while self.in_pipeline() > 0 {
            FlowLutSim::tick(self);
            assert!(
                self.now_sys - self.last_completion_cycle < 2_000_000,
                "no completion for 2M cycles: {} in flight, {} queued, {} waiting, \
                 {} in insert queue — pipeline deadlock",
                self.in_flight,
                self.seq_q.len(),
                self.wait_by_key.values().map(VecDeque::len).sum::<usize>(),
                self.ins_q.len(),
            );
        }
        self.now_sys - start
    }

    fn sys_period_ns(&self) -> f64 {
        self.cfg.sys_period_ns()
    }

    fn input_rate_per_cycle(&self) -> f64 {
        self.cfg.input_rate_mhz / self.cfg.sys_clock_mhz()
    }
}

impl FlowBackend for FlowLutSim {
    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        Some(self)
    }
}

#[cfg(test)]
mod tests;
