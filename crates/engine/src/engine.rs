//! The lockstep multi-channel engine, with optional host-parallel shard
//! execution.

use std::collections::VecDeque;
use std::ops::Deref;

use flowlut_core::backend::{
    FlowBackend, FlowEvent, FlowPipeline, FlowStore, FullError, OpStats, RunReport, Session,
    SessionProgress,
};
use flowlut_core::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use flowlut_core::sync::{Arc, Mutex, MutexGuard};
use flowlut_core::{
    FlowLutSim, FlowRecord, Occupancy, PreloadError, RescaleError, SimSnapshot, SimStats,
};
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::config::{EngineConfig, ExecutionMode};
use crate::pool::WorkerPool;
use crate::router::ShardRouter;

/// A point-in-time view of the whole engine. Counters are cumulative
/// since construction (a restore resumes the checkpointed values); a
/// rescale starts fresh per-shard counters on the new shard set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Engine cycle (equals every shard's cycle — lockstep).
    pub now_sys: u64,
    /// Descriptors accepted by the splitter so far.
    pub offered: u64,
    /// Descriptors currently staged at the splitter.
    pub staged: u64,
    /// Cycles the splitter stalled input because a shard's staging was
    /// full (that channel was the bottleneck).
    pub splitter_stall_cycles: u64,
    /// Per-shard snapshots.
    pub per_shard: Vec<SimSnapshot>,
}

impl EngineSnapshot {
    /// Largest per-shard completion count over the mean — `1.0` is a
    /// perfectly balanced engine, `N` (the shard count) one where one
    /// shard did everything. An all-idle (or empty) engine reports
    /// `1.0`, so short runs with idle shards stay finite and comparable.
    pub fn imbalance(&self) -> f64 {
        let completed = || self.per_shard.iter().map(|s| s.stats.completed);
        let total: u64 = completed().sum();
        if total == 0 {
            return 1.0;
        }
        let max = completed().max().unwrap_or(0);
        max as f64 * self.per_shard.len() as f64 / total as f64
    }
}

/// Per-shard ingest batch: the splitter hands descriptors to a channel
/// in groups of this size, preserving the paper's burst-grouping within
/// each channel.
const BATCH: usize = 8;
/// A partially filled batch is flushed after this many system cycles
/// (bounds latency on shard-quiet traffic, like BWr_Gen's timeout).
const BATCH_TIMEOUT_SYS: u64 = 32;
/// Per-shard staging capacity at the splitter. When one shard's staging
/// fills (its channel is saturated), the splitter stalls the whole input
/// — head-of-line, as a hardware distributor would.
const STAGING_CAP: usize = 64;
const _: () = assert!(STAGING_CAP >= BATCH, "staging must hold at least one batch");

/// One channel of the engine: the shard's simulator plus the splitter's
/// per-shard staging queue. Lanes share no state with each other, which
/// is what makes threaded execution bit-identical to inline execution.
#[derive(Debug)]
struct ShardLane {
    sim: FlowLutSim,
    staging: VecDeque<PacketDescriptor>,
    staged_first_cycle: Option<u64>,
}

impl ShardLane {
    /// Advances this lane one engine cycle: flushes the staged batch
    /// into the channel's sequencer when due, then steps the channel.
    /// A batch is *due* when it reaches `BATCH`, when its oldest
    /// descriptor times out, or when end of input has been declared.
    /// This is the one per-cycle body both execution modes run, so the
    /// threaded engine is bit-identical by construction.
    fn step(&mut self, now_sys: u64, draining: bool) {
        let due = self.staging.len() >= BATCH
            || (draining && !self.staging.is_empty())
            || self
                .staged_first_cycle
                .is_some_and(|t| now_sys - t >= BATCH_TIMEOUT_SYS);
        if due {
            while let Some(&d) = self.staging.front() {
                if self.sim.offer(d) {
                    self.staging.pop_front();
                } else {
                    break; // sequencer full; retry next cycle
                }
            }
            self.staged_first_cycle = if self.staging.is_empty() {
                None
            } else {
                Some(now_sys)
            };
        }
        self.sim.tick();
    }

    /// Splitter side of the lane: descriptors staged plus descriptors
    /// anywhere inside the channel.
    fn in_pipeline(&self) -> u64 {
        self.staging.len() as u64 + self.sim.in_pipeline()
    }
}

/// A locked read handle onto one shard's simulator, returned by
/// [`ShardedFlowLut::shard`]. Dereferences to [`FlowLutSim`]; the lane
/// lock is held for the guard's lifetime, so keep it short-lived.
#[derive(Debug)]
pub struct ShardRef<'a>(MutexGuard<'a, ShardLane>);

impl Deref for ShardRef<'_> {
    type Target = FlowLutSim;

    fn deref(&self) -> &FlowLutSim {
        &self.0.sim
    }
}

/// Locks a lane, surfacing worker-thread panics instead of silently
/// continuing on half-stepped state.
fn lock(lane: &Mutex<ShardLane>) -> MutexGuard<'_, ShardLane> {
    lane.lock().expect("shard lane poisoned by a worker panic")
}

/// N single-channel flow-LUT prototypes ([`FlowLutSim`]) behind a
/// hash-based [`ShardRouter`], stepped in lockstep on one system clock.
///
/// The splitter routes each descriptor to the shard owning its key and
/// stages it; staged descriptors are handed to the channel's sequencer
/// in batches (preserving the paper's burst-grouping within each
/// channel). Because routing is a pure function of the key, all packets
/// of a flow traverse one channel and the paper's per-flow ordering
/// invariant holds system-wide.
///
/// Under [`ExecutionMode::Threaded`] the per-cycle shard work is
/// partitioned across a persistent worker pool behind a generation
/// barrier; because shards share no state, the reports are bit-identical
/// to [`ExecutionMode::Inline`] (pinned by the parallel-equivalence
/// proptest).
#[derive(Debug)]
pub struct ShardedFlowLut {
    cfg: EngineConfig,
    router: ShardRouter,
    lanes: Vec<Arc<Mutex<ShardLane>>>,
    /// Executor threads stepping shards each cycle (the caller plus the
    /// pool's workers); 1 in inline mode.
    executors: usize,
    pool: Option<WorkerPool>,
    now_sys: u64,
    offered: u64,
    splitter_stall_cycles: u64,
    /// End-of-input declared ([`FlowPipeline::drain`] in progress):
    /// staged batches flush regardless of the batch threshold.
    draining: bool,
    /// Counters accumulated by lanes that no longer exist (retired by
    /// [`rescale_double`](Self::rescale_double)), so engine-level
    /// statistics stay cumulative and monotone across rescales.
    carried_stats: SimStats,
}

/// Outcome of an online shard rescale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleReport {
    /// Shard count before the rescale.
    pub old_shards: usize,
    /// Shard count after the rescale.
    pub new_shards: usize,
    /// Flows rehomed onto the new shard set.
    pub migrated_flows: u64,
    /// Cycles spent draining and settling the old shards before the
    /// migration.
    pub drained_cycles: u64,
}

impl ShardedFlowLut {
    /// Builds an engine (spawning the worker pool when the configured
    /// [`ExecutionMode`] asks for one).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`EngineConfig::validate`] first for fallible handling.
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate().expect("invalid engine configuration");
        let sims: Vec<FlowLutSim> = (0..cfg.shards)
            .map(|_| FlowLutSim::new(cfg.shard.clone()))
            .collect();
        Self::assemble(cfg, sims)
    }

    /// Wires pre-built shard simulators into a full engine (router,
    /// lanes, worker pool) — the shared tail of [`new`](Self::new),
    /// [`restore`](Self::restore), and
    /// [`rescale_double`](Self::rescale_double).
    fn assemble(cfg: EngineConfig, sims: Vec<FlowLutSim>) -> Self {
        debug_assert_eq!(sims.len(), cfg.shards);
        let router = ShardRouter::new(cfg.shards, cfg.router_seed);
        let lanes: Vec<Arc<Mutex<ShardLane>>> = sims
            .into_iter()
            .map(|sim| {
                Arc::new(Mutex::new(ShardLane {
                    sim,
                    staging: VecDeque::new(),
                    staged_first_cycle: None,
                }))
            })
            .collect();
        let executors = match cfg.execution {
            ExecutionMode::Inline => 1,
            ExecutionMode::Threaded(n) => n.clamp(1, cfg.shards),
        };
        // Worker `e` owns the lanes whose index is `e` modulo
        // `executors`; the engine's `tick` (executor 0) steps the
        // remainder between `start_round` and `finish_round`.
        let pool = (executors > 1).then(|| {
            let workers: Vec<_> = (1..executors)
                .map(|e| {
                    let my_lanes: Vec<Arc<Mutex<ShardLane>>> = lanes
                        .iter()
                        .skip(e)
                        .step_by(executors)
                        .map(Arc::clone)
                        .collect();
                    move |now_sys: u64, draining: bool| {
                        for lane in &my_lanes {
                            lock(lane).step(now_sys, draining);
                        }
                    }
                })
                .collect();
            WorkerPool::spawn(workers)
        });
        ShardedFlowLut {
            router,
            lanes,
            executors,
            pool,
            now_sys: 0,
            offered: 0,
            splitter_stall_cycles: 0,
            draining: false,
            carried_stats: SimStats::default(),
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shard router (pure key → shard function).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Executor threads stepping shards each cycle: 1 in inline mode,
    /// the (clamped) configured count in threaded mode.
    pub fn executor_count(&self) -> usize {
        self.executors
    }

    /// One shard's simulator, for inspection. The returned guard holds
    /// that shard's lane lock — keep it short-lived.
    pub fn shard(&self, i: usize) -> ShardRef<'_> {
        ShardRef(lock(&self.lanes[i]))
    }

    /// Current engine cycle.
    pub fn now_sys(&self) -> u64 {
        self.now_sys
    }

    /// Total resident flows across all shards.
    pub fn len(&self) -> u64 {
        self.lanes.iter().map(|l| lock(l).sim.table().len()).sum()
    }

    /// `true` when no flows are resident anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy summed over shards.
    pub fn occupancy(&self) -> Occupancy {
        self.lanes.iter().fold(Occupancy::default(), |mut acc, l| {
            acc += lock(l).sim.table().occupancy();
            acc
        })
    }

    /// A point-in-time view of all shards.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut staged = 0u64;
        let mut per_shard = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let lane = lock(lane);
            staged += lane.staging.len() as u64;
            per_shard.push(lane.sim.snapshot());
        }
        EngineSnapshot {
            now_sys: self.now_sys,
            offered: self.offered,
            staged,
            splitter_stall_cycles: self.splitter_stall_cycles,
            per_shard,
        }
    }

    /// Preloads flows into the owning shards' tables and simulated DRAM
    /// without spending cycles (the Table II(B) setup, sharded).
    ///
    /// # Errors
    ///
    /// Returns a [`PreloadError`] carrying the total number of keys
    /// loaded before the failure (summed across shards, including the
    /// failing shard's partial batch). Preload is not transactional:
    /// those keys remain loaded on their owning shards; the keys routed
    /// after the failing one are not attempted. Callers that need
    /// all-or-nothing semantics should rebuild the engine on error.
    pub fn preload<I>(&mut self, keys: I) -> Result<usize, PreloadError>
    where
        I: IntoIterator<Item = FlowKey>,
    {
        let mut per_shard: Vec<Vec<FlowKey>> = vec![Vec::new(); self.lanes.len()];
        for key in keys {
            per_shard[self.router.route(&key)].push(key);
        }
        let mut n = 0;
        for (lane, keys) in self.lanes.iter().zip(per_shard) {
            match lock(lane).sim.preload(keys) {
                Ok(k) => n += k,
                Err(e) => {
                    return Err(PreloadError {
                        inserted: n + e.inserted,
                        cause: e.cause,
                    })
                }
            }
        }
        Ok(n)
    }

    /// Requests deletion of `key` on its owning shard (processed
    /// asynchronously by that channel's update unit).
    pub fn delete_flow(&mut self, key: FlowKey) {
        let s = self.router.route(&key);
        lock(&self.lanes[s]).sim.delete_flow(key);
    }

    /// Advances the whole engine one system-clock cycle: per shard,
    /// flushes due staged batches into the channel's sequencer, then
    /// steps the channel (lockstep). A batch is *due* when it reaches the
    /// batch size, when its oldest descriptor times out, or when end
    /// of input has been declared ([`FlowPipeline::drain`]).
    ///
    /// Inline mode steps every lane on the calling thread; threaded mode
    /// fans the lanes out across the worker pool and waits at the
    /// per-cycle barrier. Each lane runs the identical per-cycle body
    /// either way, so the two modes are bit-identical.
    pub fn tick(&mut self) {
        self.now_sys += 1;
        match &self.pool {
            None => {
                for lane in &self.lanes {
                    lock(lane).step(self.now_sys, self.draining);
                }
            }
            Some(pool) => {
                pool.start_round(self.now_sys, self.draining);
                // The caller is executor 0: step its own lane share
                // while the workers run theirs.
                for lane in self.lanes.iter().step_by(self.executors) {
                    lock(lane).step(self.now_sys, self.draining);
                }
                pool.finish_round();
            }
        }
    }

    /// Descriptors staged at the splitter, queued at a sequencer, or in
    /// flight anywhere in the engine.
    pub fn in_pipeline(&self) -> u64 {
        self.lanes.iter().map(|l| lock(l).in_pipeline()).sum()
    }

    /// Simulator counters merged across all shards (cumulative),
    /// including counters carried over from lanes retired by a rescale —
    /// so the view stays monotone across the engine's whole life.
    fn merged_stats(&self) -> SimStats {
        let mut agg = self.carried_stats;
        for lane in &self.lanes {
            agg.merge(lock(lane).sim.stats());
        }
        agg
    }

    /// Runs `descs` through the engine at the configured aggregate input
    /// rate and returns the run's report. Completes when every offered
    /// descriptor has resolved.
    ///
    /// This batch entry point is exactly `start_run().run(descs)` on the
    /// streaming session API (a [`Session`] driving this engine as a
    /// [`FlowPipeline`]). Per-shard counters, splitter stalls and
    /// imbalance are cumulative in [`snapshot`](Self::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if no shard makes progress for an implausibly long time
    /// (a scheduler deadlock — a bug, not a workload condition).
    pub fn run(&mut self, descs: &[PacketDescriptor]) -> RunReport {
        match Session::new(self).run(descs) {
            Ok(report) => report,
            Err(_) => unreachable!("a freshly opened session is never drained"),
        }
    }

    /// `true` when every lane's staging is empty and every shard's
    /// internal queues have settled — the state
    /// [`checkpoint`](Self::checkpoint) and
    /// [`rescale_double`](Self::rescale_double) require.
    pub fn is_quiescent(&self) -> bool {
        self.lanes.iter().all(|l| {
            let lane = lock(l);
            lane.staging.is_empty() && lane.sim.is_quiescent()
        })
    }

    /// Drains the whole engine and keeps ticking (lockstep, so shard
    /// clocks never diverge) until every shard's internal queues have
    /// settled. Returns the cycles spent.
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
            ShardedFlowLut::tick(self);
            guard += 1;
            assert!(
                guard < 2_000_000,
                "internal queues did not settle for 2M cycles — quiesce deadlock"
            );
        }
        self.now_sys - start
    }

    /// Pressure-eviction victims accumulated across all shards (shard
    /// order, oldest first within a shard); each shard's list is left
    /// empty. See [`FlowLutSim::take_victims`].
    pub fn take_victims(&mut self) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.extend(lock(lane).sim.take_victims());
        }
        out
    }

    /// Serializes a consistent checkpoint of the whole (quiescent)
    /// engine: the splitter state plus one embedded
    /// [`FlowLutSim::checkpoint`] blob per shard.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotQuiescent`] unless [`quiesce`](Self::quiesce)
    /// came first.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, CheckpointError> {
        if !self.is_quiescent() {
            return Err(CheckpointError::NotQuiescent {
                in_pipeline: self.in_pipeline(),
            });
        }
        let mut w = ByteWriter::new();
        w.put_u32(ENGINE_CHECKPOINT_MAGIC);
        w.put_u32(ENGINE_CHECKPOINT_VERSION);
        w.put_u64(self.lanes.len() as u64);
        w.put_u64(self.cfg.router_seed);
        w.put_u64(self.now_sys);
        w.put_u64(self.offered);
        w.put_u64(self.splitter_stall_cycles);
        checkpoint::write_stats(&mut w, &self.carried_stats);
        for lane in &self.lanes {
            let blob = lock(lane).sim.checkpoint()?;
            w.put_u64(blob.len() as u64);
            w.put_bytes(&blob);
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds an engine from a [`checkpoint`](Self::checkpoint) blob.
    /// `cfg` must match the checkpointed shard count, router seed, and
    /// per-shard configuration; replay from the restored engine is
    /// bit-identical to continuing the checkpointed one
    /// (`tests/checkpoint_restore.rs`).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a malformed blob or mismatched `cfg`.
    pub fn restore(cfg: EngineConfig, bytes: &[u8]) -> Result<Self, CheckpointError> {
        cfg.validate()
            .map_err(|_| CheckpointError::Corrupt("invalid configuration"))?;
        let mut r = ByteReader::new(bytes);
        if r.u32()? != ENGINE_CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != ENGINE_CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let shards = r.u64()?;
        if shards != cfg.shards as u64 {
            return Err(CheckpointError::ConfigMismatch {
                expected: cfg.shards as u64,
                found: shards,
            });
        }
        let router_seed = r.u64()?;
        if router_seed != cfg.router_seed {
            return Err(CheckpointError::ConfigMismatch {
                expected: cfg.router_seed,
                found: router_seed,
            });
        }
        let now_sys = r.u64()?;
        let offered = r.u64()?;
        let splitter_stall_cycles = r.u64()?;
        let carried_stats = checkpoint::read_stats(&mut r)?;
        let mut sims = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards {
            let len = usize::try_from(r.u64()?)
                .map_err(|_| CheckpointError::Corrupt("shard blob length overflow"))?;
            let blob = r.take(len)?;
            let sim = FlowLutSim::restore(cfg.shard.clone(), blob)?;
            if sim.now_sys() != now_sys {
                return Err(CheckpointError::Corrupt("shard clock diverged from engine"));
            }
            sims.push(sim);
        }
        r.finish()?;
        let mut engine = Self::assemble(cfg, sims);
        engine.now_sys = now_sys;
        engine.offered = offered;
        engine.splitter_stall_cycles = splitter_stall_cycles;
        engine.carried_stats = carried_stats;
        Ok(engine)
    }

    /// Online shard rescale N→2N: drains in-flight work, settles every
    /// shard, then rehomes each resident flow onto the doubled shard set
    /// via the pure [`ShardRouter`] partition — no descriptor is dropped
    /// (the drain resolves them all first) and every flow lands on
    /// exactly one new shard, at the engine's current cycle.
    ///
    /// The new lanes, router, and worker pool are fully built and
    /// populated *before* being committed, so the engine is unchanged on
    /// error. Old-lane counters fold into the carried statistics, keeping
    /// engine-level views monotone.
    ///
    /// # Errors
    ///
    /// [`RescaleError::ShardFull`] when a flow cannot be placed on its
    /// destination shard (the doubled capacity makes this pathological:
    /// it requires an adversarial hash collision set).
    pub fn rescale_double(&mut self) -> Result<RescaleReport, RescaleError> {
        let drained_cycles = self.quiesce();
        let old_shards = self.lanes.len();
        let new_shards = old_shards * 2;
        let now_sys = self.now_sys;
        // Collect migrating flows in deterministic order (shard-major,
        // flow-ID order within a shard) and fold old-lane counters.
        let mut migrating: Vec<FlowRecord> = Vec::new();
        let mut retired_stats = SimStats::default();
        for lane in &self.lanes {
            let lane = lock(lane);
            retired_stats.merge(lane.sim.stats());
            migrating.extend(lane.sim.flow_state().iter().map(|(_, r)| *r));
        }
        // Build the doubled partition and warm destination shards at the
        // current cycle (canonical memory phase, clocks in lockstep).
        let router = ShardRouter::new(new_shards, self.cfg.router_seed);
        let mut sims: Vec<FlowLutSim> = (0..new_shards)
            .map(|_| FlowLutSim::warm_start(self.cfg.shard.clone(), now_sys))
            .collect();
        let mut migrated_flows = 0u64;
        for record in migrating {
            let dest = router.route(&record.key);
            if sims[dest].adopt_flow(record).is_err() {
                return Err(RescaleError::ShardFull {
                    shard: dest,
                    cause: FullError {
                        table: ENGINE_BACKEND_NAME,
                        key: record.key,
                        occupancy: sims[dest].table().len(),
                        capacity: self.cfg.shard.table.capacity(),
                    },
                });
            }
            migrated_flows += 1;
        }
        // Commit: swap in the doubled engine (dropping the old engine
        // joins its worker pool).
        let mut cfg = self.cfg.clone();
        cfg.shards = new_shards;
        let mut rebuilt = Self::assemble(cfg, sims);
        rebuilt.now_sys = now_sys;
        rebuilt.offered = self.offered;
        rebuilt.splitter_stall_cycles = self.splitter_stall_cycles;
        rebuilt.carried_stats = self.carried_stats;
        rebuilt.carried_stats.merge(&retired_stats);
        *self = rebuilt;
        Ok(RescaleReport {
            old_shards,
            new_shards,
            migrated_flows,
            drained_cycles,
        })
    }
}

/// Magic bytes of an engine checkpoint ("FENG" LE).
const ENGINE_CHECKPOINT_MAGIC: u32 = 0x474E4546;
/// Current engine checkpoint format version.
const ENGINE_CHECKPOINT_VERSION: u32 = 2;

/// Backend name of the sharded engine.
const ENGINE_BACKEND_NAME: &str = "hashcam-sharded";

impl FlowStore for ShardedFlowLut {
    fn name(&self) -> &'static str {
        ENGINE_BACKEND_NAME
    }

    /// Upsert on the owning channel's timed pipeline (the shard runs the
    /// descriptor to completion). Only that channel's clock advances;
    /// lockstep across channels is an invariant of *streamed* sessions,
    /// not of functional access.
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        let s = self.router.route(&key);
        // Drop the lane guard before building the error: the aggregate
        // occupancy query locks every lane.
        let result = FlowStore::insert(&mut lock(&self.lanes[s]).sim, key);
        match result {
            Ok(created) => Ok(created),
            // Re-label with engine-level context: the caller sees the
            // aggregate structure, not the shard that actually rejected.
            Err(e) => Err(FullError {
                table: ENGINE_BACKEND_NAME,
                key: e.key,
                occupancy: self.len(),
                capacity: FlowStore::capacity(self),
            }),
        }
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        let s = self.router.route(key);
        lock(&self.lanes[s]).sim.table().peek(key).is_some()
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        let s = self.router.route(key);
        FlowStore::remove(&mut lock(&self.lanes[s]).sim, key)
    }

    fn len(&self) -> u64 {
        ShardedFlowLut::len(self)
    }

    fn capacity(&self) -> u64 {
        self.lanes.len() as u64 * self.cfg.shard.table.capacity()
    }

    fn op_stats(&self) -> OpStats {
        let mut agg = OpStats::default();
        for lane in &self.lanes {
            agg.merge(&FlowStore::op_stats(&lock(lane).sim));
        }
        agg
    }
}

impl FlowPipeline for ShardedFlowLut {
    fn begin_run(&mut self) {
        // Retired lanes' high-water mark must not leak into the new run.
        self.carried_stats.max_latency_sys = 0;
        for lane in &self.lanes {
            FlowPipeline::begin_run(&mut lock(lane).sim);
        }
    }

    /// The splitter: routes the descriptor to the shard owning its key
    /// and stages it. `false` (plus a recorded splitter stall) when that
    /// shard's staging is full — head-of-line, as a hardware distributor
    /// would.
    fn push(&mut self, desc: PacketDescriptor) -> bool {
        let s = self.router.route(&desc.key);
        let mut lane = lock(&self.lanes[s]);
        if lane.staging.len() >= STAGING_CAP {
            self.splitter_stall_cycles += 1;
            return false;
        }
        lane.staging.push_back(desc);
        // Staged for the cycle the next tick will process (tick
        // increments the clock before flushing).
        lane.staged_first_cycle.get_or_insert(self.now_sys + 1);
        self.offered += 1;
        true
    }

    fn tick(&mut self) {
        ShardedFlowLut::tick(self);
    }

    fn poll(&self) -> SessionProgress {
        SessionProgress {
            now_sys: self.now_sys,
            stats: self.merged_stats(),
            in_pipeline: self.in_pipeline(),
            occupancy: self.occupancy(),
        }
    }

    /// Lifecycle events drained from every shard, in shard order (each
    /// shard's events are already in cycle order).
    fn poll_events(&mut self) -> Vec<FlowEvent> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.extend(FlowPipeline::poll_events(&mut lock(lane).sim));
        }
        out
    }

    fn drain(&mut self) -> u64 {
        // Completed-only view for the per-cycle watchdog (one u64 per
        // shard; the full statistics merge is reserved for poll()).
        fn completed_total(lanes: &[Arc<Mutex<ShardLane>>]) -> u64 {
            lanes.iter().map(|l| lock(l).sim.stats().completed).sum()
        }
        let start = self.now_sys;
        self.draining = true;
        let mut completed = completed_total(&self.lanes);
        let mut last_progress_cycle = self.now_sys;
        while self.in_pipeline() > 0 {
            ShardedFlowLut::tick(self);
            let c = completed_total(&self.lanes);
            if c > completed {
                completed = c;
                last_progress_cycle = self.now_sys;
            }
            assert!(
                self.now_sys - last_progress_cycle < 2_000_000,
                "no completion for 2M cycles: {} offered, {completed} done, {} staged \
                 — engine deadlock",
                self.offered,
                self.lanes
                    .iter()
                    .map(|l| lock(l).staging.len())
                    .sum::<usize>(),
            );
        }
        self.draining = false;
        self.now_sys - start
    }

    fn sys_period_ns(&self) -> f64 {
        self.cfg.sys_period_ns()
    }

    fn input_rate_per_cycle(&self) -> f64 {
        self.cfg.input_rate_mhz / self.cfg.sys_clock_mhz()
    }

    fn burst_cap(&self) -> f64 {
        8.0 * self.lanes.len() as f64
    }

    fn channels(&self) -> usize {
        self.lanes.len()
    }
}

impl FlowBackend for ShardedFlowLut {
    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowlut_core::InsertError;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    fn descs(range: std::ops::Range<u64>) -> Vec<PacketDescriptor> {
        range
            .enumerate()
            .map(|(seq, i)| PacketDescriptor::new(seq as u64, key(i)))
            .collect()
    }

    #[test]
    fn run_completes_everything_and_partitions_flows() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = engine.run(&descs(0..400));
        assert_eq!(report.completed, 400);
        assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 400);
        assert_eq!(engine.len(), 400);
        // Every key is resident exactly on its routed shard.
        for i in 0..400 {
            let owner = engine.router().route(&key(i));
            for s in 0..engine.shard_count() {
                assert_eq!(
                    engine.shard(s).table().peek(&key(i)).is_some(),
                    s == owner,
                    "key {i} on shard {s}, owner {owner}"
                );
            }
        }
    }

    #[test]
    fn shards_step_in_lockstep() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        engine.run(&descs(0..100));
        let snap = engine.snapshot();
        for s in &snap.per_shard {
            assert_eq!(s.now_sys, snap.now_sys, "channel clocks diverged");
        }
        assert_eq!(snap.staged, 0);
    }

    #[test]
    fn preload_routes_keys_to_owners() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let keys: Vec<FlowKey> = (0..200).map(key).collect();
        assert_eq!(engine.preload(keys.iter().copied()).unwrap(), 200);
        assert_eq!(engine.occupancy().total(), 200);
        // A run over the same keys produces only hits, no new flows.
        let report = engine.run(&descs(0..200));
        assert_eq!(report.stats.inserted_mem + report.stats.inserted_cam, 0);
        assert_eq!(engine.len(), 200);
    }

    #[test]
    fn preload_partial_failure_reports_total_inserted() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        // A duplicate planted mid-batch stops the preload on the owning
        // shard; the error must count every key loaded engine-wide
        // before the failure, not just the failing shard's progress.
        let mut keys: Vec<FlowKey> = (0..100).map(key).collect();
        keys.push(key(50));
        keys.extend((100..150).map(key));
        let err = engine
            .preload(keys.iter().copied())
            .expect_err("duplicate key must stop the preload");
        assert!(matches!(err.cause, InsertError::Duplicate(_)));
        assert_eq!(
            err.inserted as u64,
            engine.len(),
            "inserted count must equal the keys actually resident"
        );
        assert!(err.inserted > 0, "keys before the duplicate were loaded");
        assert!(
            (err.inserted as u64) < engine.capacity(),
            "the failure stopped the batch early"
        );
        // The partial load is live: every key the engine reports
        // resident hits without a new insert.
        let probe: Vec<PacketDescriptor> =
            PacketDescriptor::sequence((0..150).map(key).filter(|k| {
                let s = engine.router().route(k);
                engine.shard(s).table().peek(k).is_some()
            }));
        assert_eq!(probe.len() as u64, engine.len());
        let report = engine.run(&probe);
        assert_eq!(
            report.stats.inserted_mem + report.stats.inserted_cam,
            0,
            "keys loaded before the failure must be resident and readable"
        );
    }

    #[test]
    fn delete_flow_reaches_the_owning_shard() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        engine.run(&descs(0..50));
        assert_eq!(engine.len(), 50);
        engine.delete_flow(key(7));
        // Deletions are asynchronous: give the update units some cycles
        // by running unrelated traffic.
        engine.run(&descs(1000..1001));
        assert_eq!(engine.len(), 50, "delete of 7 offset by insert of 1000");
        let owner = engine.router().route(&key(7));
        assert!(engine.shard(owner).table().peek(&key(7)).is_none());
    }

    #[test]
    fn per_flow_order_holds_across_the_engine() {
        // Many packets of few flows: completions of one flow must leave
        // in arrival order even though shards race each other.
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let work: Vec<PacketDescriptor> = (0..300)
            .map(|i| PacketDescriptor::new(i, key(i % 7)))
            .collect();
        let report = engine.run(&work);
        assert_eq!(report.completed, 300);
        for s in 0..engine.shard_count() {
            let shard = engine.shard(s);
            let mut last_done: std::collections::HashMap<FlowKey, u64> = Default::default();
            for d in shard.descriptors() {
                let done = d.t_done.expect("all completed");
                if let Some(&prev) = last_done.get(&d.desc.key) {
                    assert!(prev <= done, "per-flow order violated");
                }
                last_done.insert(d.desc.key, done);
            }
        }
    }

    #[test]
    fn report_decomposes_by_shard() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = engine.run(&descs(0..500));
        let snap = engine.snapshot();
        let sum: u64 = snap.per_shard.iter().map(|s| s.stats.completed).sum();
        assert_eq!(sum, report.completed);
        assert_eq!(report.occupancy.total(), engine.len());
        assert!(report.mdesc_per_s > 0.0);
        assert!(snap.imbalance() < 2.0, "imbalance {}", snap.imbalance());
    }

    #[test]
    fn repeated_runs_report_independently() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let r1 = engine.run(&descs(0..100));
        let r2 = engine.run(&descs(100..200));
        assert_eq!(r1.completed, 100);
        assert_eq!(r2.completed, 100);
        assert_eq!(engine.len(), 200);
    }

    #[test]
    fn max_latency_does_not_leak_across_runs() {
        // Run 1 saturates the engine (high queueing latency); run 2 is a
        // single warm hit. Before the per-run watermark, run 2's report
        // carried run 1's lifetime maximum.
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let r1 = engine.run(&descs(0..400));
        assert!(r1.stats.max_latency_sys > 0);
        let r2 = engine.run(&descs(0..1));
        assert!(
            r2.stats.max_latency_sys < r1.stats.max_latency_sys,
            "run 2 max {} should not inherit run 1 max {}",
            r2.stats.max_latency_sys,
            r1.stats.max_latency_sys
        );
    }

    #[test]
    fn max_latency_does_not_leak_across_a_rescale() {
        // The retired lanes' high-water mark is carried with their
        // counters; the next run must not report it as its own.
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let r1 = engine.run(&descs(0..400));
        engine.rescale_double().expect("doubled capacity fits");
        let r2 = engine.start_run().run(&descs(0..1)).expect("fresh session");
        assert!(r2.stats.max_latency_sys < r1.stats.max_latency_sys);
    }

    #[test]
    fn empty_run_returns_zeroes() {
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        let report = engine.run(&[]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.sys_cycles, 0);
        assert_eq!(report.mdesc_per_s, 0.0);
    }

    fn snapshot_with_completions(completions: &[u64]) -> EngineSnapshot {
        EngineSnapshot {
            now_sys: 100,
            offered: completions.iter().sum(),
            staged: 0,
            splitter_stall_cycles: 0,
            per_shard: completions
                .iter()
                .map(|&completed| SimSnapshot {
                    now_sys: 100,
                    stats: SimStats {
                        completed,
                        ..SimStats::default()
                    },
                    occupancy: Occupancy::default(),
                    in_pipeline: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let r = snapshot_with_completions(&[100, 100, 100, 100]);
        assert!((r.imbalance() - 1.0).abs() < 1e-12);
        let r = snapshot_with_completions(&[300, 100, 100, 100]);
        // max 300, mean 150 → 2.0
        assert!((r.imbalance() - 2.0).abs() < 1e-12, "{}", r.imbalance());
    }

    #[test]
    fn imbalance_stays_finite_with_idle_shards() {
        // One shard idle: the old max/min definition collapsed to +inf.
        let r = snapshot_with_completions(&[90, 0, 90]);
        assert!(r.imbalance().is_finite());
        assert!((r.imbalance() - 1.5).abs() < 1e-12, "{}", r.imbalance());
        // One shard did everything: imbalance equals the shard count.
        let r = snapshot_with_completions(&[0, 0, 120]);
        assert!((r.imbalance() - 3.0).abs() < 1e-12, "{}", r.imbalance());
    }

    #[test]
    fn imbalance_of_an_empty_run_is_one() {
        let r = snapshot_with_completions(&[0, 0]);
        assert_eq!(r.imbalance(), 1.0);
        let mut engine = ShardedFlowLut::new(EngineConfig::test_small());
        engine.run(&[]);
        let live = engine.snapshot();
        assert_eq!(live.imbalance(), 1.0, "empty run must stay comparable");
    }

    #[test]
    #[should_panic(expected = "engine deadlock")]
    fn drain_watchdog_fires_on_a_stalled_pipeline() {
        // A CAM stage that never becomes ready wedges the sequencer with
        // one descriptor in flight forever: the drain watchdog must
        // panic (diagnosably) rather than hang the process.
        let mut cfg = EngineConfig::test_small();
        cfg.shards = 1;
        cfg.input_rate_mhz = 100.0;
        cfg.shard.cam_latency_sys = u64::MAX / 4;
        let mut engine = ShardedFlowLut::new(cfg);
        assert!(FlowPipeline::push(
            &mut engine,
            PacketDescriptor::new(0, key(1))
        ));
        FlowPipeline::drain(&mut engine);
    }

    #[test]
    fn threaded_engine_spawns_and_clamps_executors() {
        let mut cfg = EngineConfig::test_small();
        cfg.execution = ExecutionMode::Threaded(8);
        let engine = ShardedFlowLut::new(cfg);
        assert_eq!(
            engine.executor_count(),
            engine.shard_count(),
            "executors clamp to the shard count"
        );
        // Dropping the engine joins the pool (hang here = shutdown bug).
    }

    #[test]
    fn threaded_run_matches_inline_run() {
        let inline_cfg = EngineConfig::test_small();
        let mut threaded_cfg = EngineConfig::test_small();
        threaded_cfg.execution = ExecutionMode::Threaded(2);
        let mut inline_engine = ShardedFlowLut::new(inline_cfg);
        let mut threaded_engine = ShardedFlowLut::new(threaded_cfg);
        let work = descs(0..300);
        let a = inline_engine.run(&work);
        let b = threaded_engine.run(&work);
        assert_eq!(a, b, "reports diverged");
        assert_eq!(inline_engine.snapshot(), threaded_engine.snapshot());
    }
}
