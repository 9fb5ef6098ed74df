//! The unified flow-backend API.
//!
//! Every flow structure in the workspace — the paper's functional
//! [`HashCamTable`], the cycle-stepped [`FlowLutSim`](crate::FlowLutSim),
//! the sharded
//! multi-channel engine, and all related-work baselines — plugs into one
//! object-safe trait family, so comparisons (the paper's whole argument)
//! are expressed as one generic loop instead of per-structure driver
//! code:
//!
//! * [`FlowStore`] — functional lookup/insert/remove with unified
//!   memory-probe accounting ([`OpStats`]). Every backend implements it.
//! * [`FlowPipeline`] — the cycle-stepped streaming session
//!   (`push`/`tick`/`poll`/`drain`) for the timed backends.
//! * [`FlowBackend`] — the object-safe capability union: a store that
//!   *may* expose a pipeline ([`FlowBackend::as_pipeline`]).
//!
//! Timed backends are driven through a typed [`Session`] handle opened
//! by [`FlowPipeline::start_run`] (or [`Session::new`] on a
//! `&mut dyn FlowPipeline`): `push`/`tick`/`poll`/`drain`/`events` live
//! on the handle, lifecycle misuse is either a compile error (the
//! borrow prevents a second concurrent session; [`Session::finish`]
//! consumes the handle) or a typed [`SessionError`] (push after drain).
//! Every run produces a [`RunReport`], the common report both
//! `SimReport` and the engine's report convert into.
//!
//! ```
//! use flowlut_core::backend::{FlowPipeline, RunReport};
//! use flowlut_core::{FlowLutSim, SimConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut sim = FlowLutSim::new(SimConfig::test_small());
//! let descs: Vec<PacketDescriptor> =
//!     PacketDescriptor::sequence((0..50).map(|i| FlowKey::from(FiveTuple::from_index(i))));
//! let report: RunReport = sim.start_run().run(&descs)?;
//! assert_eq!(report.completed, 50);
//! # Ok::<(), flowlut_core::backend::SessionError>(())
//! ```

use std::error::Error;
use std::fmt;

use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::sim::SimStats;
use crate::table::{HashCamTable, Occupancy};

/// Insertion failed: the structure could not place the key.
///
/// Carries the rejected key and how full the structure was at the time,
/// so callers can log *what* failed and *at what load* without another
/// round-trip into the table. For cuckoo-style tables this is an
/// insertion-loop abort; for bounded-bucket tables it means every
/// candidate slot (and any overflow CAM) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullError {
    /// Name of the structure that rejected the key.
    pub table: &'static str,
    /// The key that could not be placed.
    pub key: FlowKey,
    /// Keys resident when the insertion was rejected.
    pub occupancy: u64,
    /// Total key capacity of the structure (including any overflow CAM).
    pub capacity: u64,
}

impl fmt::Display for FullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} could not place key {:?} at occupancy {}/{} ({:.1}% full)",
            self.table,
            self.key,
            self.occupancy,
            self.capacity,
            if self.capacity == 0 {
                100.0
            } else {
                100.0 * self.occupancy as f64 / self.capacity as f64
            }
        )
    }
}

impl Error for FullError {}

/// Memory-access accounting: the currency all backends are compared in.
///
/// One `mem_read`/`mem_write` equals one bucket-sized DRAM access (a BL8
/// burst on the paper's hardware). On-chip events (CAM searches, cuckoo
/// relocations) are tallied separately because they are cheap on-die but
/// are the scaling bottleneck of the respective schemes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OpStats {
    /// Bucket reads issued.
    pub mem_reads: u64,
    /// Bucket writes issued.
    pub mem_writes: u64,
    /// On-chip CAM searches.
    pub cam_searches: u64,
    /// Entries relocated (cuckoo kicks / one-move moves).
    pub relocations: u64,
    /// Lookup operations performed.
    pub lookups: u64,
    /// Insert operations attempted.
    pub inserts: u64,
    /// Insert attempts the structure refused (table full / kick budget
    /// exhausted / overflow CAM full). Every backend counts these — the
    /// scenario runner turns them into drop rates.
    pub rejected: u64,
    /// Keys placed in the overflow CAM / stash instead of a main-table
    /// bucket. Zero for structures without an overflow path.
    pub cam_spills: u64,
}

impl OpStats {
    /// Mean DRAM reads per lookup — the paper's headline comparison
    /// metric (its scheme achieves < 2 with early exit).
    pub fn reads_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mem_reads as f64 / self.lookups as f64
        }
    }

    /// Accumulates `other` into `self`, counter-wise. Aggregators (the
    /// sharded engine, multi-backend sweeps) fold per-instance stats into
    /// one view with this; the conformance suite checks that per-op
    /// deltas merged in sequence equal the final counters.
    pub fn merge(&mut self, other: &OpStats) {
        self.mem_reads += other.mem_reads;
        self.mem_writes += other.mem_writes;
        self.cam_searches += other.cam_searches;
        self.relocations += other.relocations;
        self.lookups += other.lookups;
        self.inserts += other.inserts;
        self.rejected += other.rejected;
        self.cam_spills += other.cam_spills;
    }

    /// Counter-wise difference `self − earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds the
    /// corresponding counter of `self` (counters are monotone).
    pub fn delta_since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            mem_reads: self.mem_reads - earlier.mem_reads,
            mem_writes: self.mem_writes - earlier.mem_writes,
            cam_searches: self.cam_searches - earlier.cam_searches,
            relocations: self.relocations - earlier.relocations,
            lookups: self.lookups - earlier.lookups,
            inserts: self.inserts - earlier.inserts,
            rejected: self.rejected - earlier.rejected,
            cam_spills: self.cam_spills - earlier.cam_spills,
        }
    }

    /// `true` when every counter of `self` is ≥ the corresponding counter
    /// of `earlier` — the monotonicity the conformance suite pins.
    pub fn dominates(&self, earlier: &OpStats) -> bool {
        self.mem_reads >= earlier.mem_reads
            && self.mem_writes >= earlier.mem_writes
            && self.cam_searches >= earlier.cam_searches
            && self.relocations >= earlier.relocations
            && self.lookups >= earlier.lookups
            && self.inserts >= earlier.inserts
            && self.rejected >= earlier.rejected
            && self.cam_spills >= earlier.cam_spills
    }
}

/// An exact-membership flow store: the functional capability every
/// backend provides.
///
/// All implementations are deterministic given their construction seed,
/// store [`FlowKey`]s exactly (no false positives), and count their
/// memory traffic in [`OpStats`]. `insert` has *upsert* semantics —
/// inserting a resident key is a no-op reporting `Ok(false)` — so one
/// generated operation sequence produces identical membership answers on
/// every backend, which the cross-backend conformance suite relies on.
///
/// Every store is [`Send`]: backends are plain owned data, and the
/// multi-channel engine's threaded execution mode moves complete
/// [`FlowLutSim`](crate::FlowLutSim) instances onto worker threads.
pub trait FlowStore: fmt::Debug + Send {
    /// Human-readable structure name for reports.
    fn name(&self) -> &'static str;

    /// Ensures `key` is resident. Returns `Ok(true)` if the key was newly
    /// inserted, `Ok(false)` if it was already present.
    ///
    /// # Errors
    ///
    /// [`FullError`] if the structure cannot place the key; the error
    /// carries the rejected key and the occupancy at rejection time.
    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError>;

    /// Membership query. Takes `&mut self` because most backends count
    /// the probes the query cost (timed backends instead answer from
    /// their functional ground truth — a streamed lookup of an absent
    /// key would insert it, which a membership query must not).
    fn contains(&mut self, key: &FlowKey) -> bool;

    /// Removes `key`; returns whether it was present.
    fn remove(&mut self, key: &FlowKey) -> bool;

    /// Number of resident keys.
    fn len(&self) -> u64;

    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total key capacity (including any overflow CAM).
    fn capacity(&self) -> u64;

    /// Memory-access accounting so far. Monotone: every counter is
    /// non-decreasing over the store's lifetime.
    fn op_stats(&self) -> OpStats;
}

/// A point-in-time view of a streaming session, returned by
/// [`FlowPipeline::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProgress {
    /// Current system cycle of the pipeline.
    pub now_sys: u64,
    /// Cumulative simulator counters (merged across channels for
    /// multi-channel backends).
    pub stats: SimStats,
    /// Descriptors accepted but not yet resolved — staged at a splitter,
    /// queued at a sequencer, or in flight.
    pub in_pipeline: u64,
    /// Current table occupancy (summed across channels).
    pub occupancy: Occupancy,
}

/// What happened to a resident flow, as surfaced by the service layer
/// through [`FlowPipeline::poll_events`] / [`Session::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowEventKind {
    /// The flow exceeded the configured idle TTL
    /// ([`ExpiryPolicy`](crate::config::ExpiryPolicy)) and was removed by
    /// the amortized aging scan.
    ExpiredTtl,
    /// The flow was the coldest candidate when occupancy crossed the
    /// [`PressurePolicy`](crate::config::PressurePolicy) high-water mark
    /// and was evicted to the victim list.
    EvictedPressure,
}

impl fmt::Display for FlowEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowEventKind::ExpiredTtl => write!(f, "expired (idle TTL)"),
            FlowEventKind::EvictedPressure => write!(f, "evicted (occupancy pressure)"),
        }
    }
}

/// One flow-lifecycle event (expiry or eviction) raised by a timed
/// backend. Drained in deterministic order via
/// [`FlowPipeline::poll_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// What happened to the flow.
    pub kind: FlowEventKind,
    /// The affected flow's key.
    pub key: FlowKey,
    /// System cycle (of the raising channel) when the event fired.
    pub now_sys: u64,
}

/// Lifecycle misuse of a [`Session`] handle that the type system cannot
/// rule out statically.
///
/// Most misuse *is* ruled out statically: a second concurrent session
/// cannot be opened (the handle holds the `&mut` borrow), and nothing can
/// be pushed after [`Session::finish`]/[`Session::run`] (they consume the
/// handle). What remains — interleaving input with an explicit
/// [`Session::drain`] — is reported as this typed error instead of a
/// panic or silent misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// `push`/`offer` after `drain`: the session already declared end of
    /// input.
    Drained,
    /// `drain` called twice on one session.
    AlreadyDrained,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Drained => {
                write!(
                    f,
                    "session already drained: no further input may be offered"
                )
            }
            SessionError::AlreadyDrained => write!(f, "session drained twice"),
        }
    }
}

impl Error for SessionError {}

/// The cycle-stepped streaming capability of the timed backends.
///
/// A session interleaves [`push`](Self::push) (offer one descriptor,
/// honouring backpressure), [`tick`](Self::tick) (advance one system
/// cycle), and [`poll`](Self::poll) (observe progress); when input ends,
/// [`drain`](Self::drain) runs the pipeline dry. The typed [`Session`]
/// handle opened by [`start_run`](Self::start_run) wraps exactly these
/// verbs with compile-time lifecycle enforcement, and its
/// [`Session::run`] is the canonical paced driver — the loop the batch
/// `run` entry points wrap.
pub trait FlowPipeline: FlowStore {
    /// Per-run reset hook: clears per-run watermarks (currently the
    /// [`SimStats::max_latency_sys`] high-water mark) so each run
    /// reports its own worst case instead of the pipeline's lifetime
    /// worst. Called by [`Session::new`] when a session opens; cumulative
    /// counters are untouched. Prefer opening a [`Session`] over calling
    /// this directly.
    fn begin_run(&mut self) {}

    /// Opens a typed streaming [`Session`] on this pipeline. The handle
    /// holds the `&mut` borrow for its lifetime, so a second concurrent
    /// session is a compile error, and push-after-finish is ruled out by
    /// move semantics.
    fn start_run(&mut self) -> Session<'_>
    where
        Self: Sized,
    {
        Session::new(self)
    }

    /// Offers one descriptor. Returns `false` (leaving the descriptor
    /// untaken, and recording an input-stall in the backend's statistics)
    /// when the input stage is full; the caller retries after a tick.
    fn push(&mut self, desc: PacketDescriptor) -> bool;

    /// Advances one system-clock cycle.
    fn tick(&mut self);

    /// Advances `cycles` system-clock cycles in one call — the
    /// epoch-batched form of [`tick`](Self::tick) for callers that know
    /// no input arrives during the stretch (idle-time advancement,
    /// warm-up). Backends may override the per-cycle loop with a
    /// batched implementation.
    fn tick_many(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Observes cumulative progress without advancing time.
    fn poll(&self) -> SessionProgress;

    /// Drains pending flow-lifecycle events (idle-TTL expiries,
    /// pressure evictions) raised since the previous call, in
    /// deterministic order. Backends without aging/eviction support
    /// return an empty vec (the default).
    fn poll_events(&mut self) -> Vec<FlowEvent> {
        Vec::new()
    }

    /// Declares end of input and ticks until nothing is staged, queued,
    /// or in flight. Returns the number of cycles spent draining.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no progress for an implausibly long
    /// time (a scheduler deadlock — a bug, not a workload condition).
    fn drain(&mut self) -> u64;

    /// System-clock period in nanoseconds (for converting cycles to
    /// wall-clock time in reports).
    fn sys_period_ns(&self) -> f64;

    /// Configured input pacing, in descriptors per system cycle.
    fn input_rate_per_cycle(&self) -> f64;

    /// Burst headroom of the paced input: the accumulator cap, in
    /// descriptor credits.
    fn burst_cap(&self) -> f64 {
        8.0
    }

    /// Number of lockstep channels (1 for single-channel backends).
    fn channels(&self) -> usize {
        1
    }
}

/// A typed handle on one streaming run of a [`FlowPipeline`].
///
/// Opened by [`FlowPipeline::start_run`] (or [`Session::new`] when
/// holding a `&mut dyn FlowPipeline`). The handle owns the `&mut`
/// borrow, so the lifecycle is enforced by the type system:
///
/// * **double-start** — a second concurrent session cannot be opened
///   while the handle lives (borrow check);
/// * **push-after-finish** — [`finish`](Self::finish)/[`run`](Self::run)
///   consume the handle (move semantics);
/// * **push-after-drain** — the one temporal rule the borrow checker
///   cannot see is a typed [`SessionError`] instead of a panic.
///
/// ```
/// use flowlut_core::backend::FlowPipeline;
/// use flowlut_core::{FlowLutSim, SimConfig};
/// use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
///
/// let mut sim = FlowLutSim::new(SimConfig::test_small());
/// let mut session = sim.start_run();
/// let desc = PacketDescriptor::new(0, FlowKey::from(FiveTuple::from_index(1)));
/// while !session.push(desc)? {
///     session.tick();
/// }
/// session.drain()?;
/// assert!(session.push(desc).is_err(), "push after drain is a typed error");
/// let report = session.finish();
/// assert_eq!(report.completed, 1);
/// # Ok::<(), flowlut_core::backend::SessionError>(())
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    pipe: &'a mut dyn FlowPipeline,
    start: SessionProgress,
    drained: bool,
}

impl<'a> Session<'a> {
    /// Opens a session: calls [`FlowPipeline::begin_run`] (per-run
    /// watermark reset) and snapshots the starting progress that the
    /// final [`RunReport`] is measured against.
    pub fn new(pipe: &'a mut dyn FlowPipeline) -> Session<'a> {
        pipe.begin_run();
        let start = pipe.poll();
        Session {
            pipe,
            start,
            drained: false,
        }
    }

    /// Offers one descriptor. `Ok(false)` means backpressure (the
    /// descriptor was not taken; retry after a [`tick`](Self::tick)).
    ///
    /// # Errors
    ///
    /// [`SessionError::Drained`] if the session already declared end of
    /// input via [`drain`](Self::drain).
    pub fn push(&mut self, desc: PacketDescriptor) -> Result<bool, SessionError> {
        if self.drained {
            return Err(SessionError::Drained);
        }
        Ok(self.pipe.push(desc))
    }

    /// Advances one system-clock cycle.
    pub fn tick(&mut self) {
        self.pipe.tick();
    }

    /// Advances `cycles` system-clock cycles (batched idle advancement).
    pub fn tick_many(&mut self, cycles: u64) {
        self.pipe.tick_many(cycles);
    }

    /// Observes cumulative progress without advancing time.
    pub fn poll(&self) -> SessionProgress {
        self.pipe.poll()
    }

    /// Drains pending flow-lifecycle events (idle-TTL expiries, pressure
    /// evictions) raised since the previous call, in deterministic order.
    pub fn events(&mut self) -> Vec<FlowEvent> {
        self.pipe.poll_events()
    }

    /// Declares end of input and ticks the pipeline dry. Returns the
    /// number of cycles spent draining.
    ///
    /// # Errors
    ///
    /// [`SessionError::AlreadyDrained`] on a second call.
    pub fn drain(&mut self) -> Result<u64, SessionError> {
        if self.drained {
            return Err(SessionError::AlreadyDrained);
        }
        self.drained = true;
        Ok(self.pipe.drain())
    }

    /// Offers `descs` at the pipeline's configured input rate, ticking
    /// every cycle, until all are accepted. This is the paced intake
    /// loop of the canonical driver; the session stays open for more
    /// input afterwards.
    ///
    /// Pacing: an input-credit accumulator gains
    /// [`input_rate_per_cycle`](FlowPipeline::input_rate_per_cycle)
    /// credits per cycle (capped at
    /// [`burst_cap`](FlowPipeline::burst_cap)); each accepted descriptor
    /// spends one credit. A rejected push (backpressure) stops this
    /// cycle's intake; the descriptor is re-offered after the next tick.
    /// The accumulator does not carry across `offer` calls.
    ///
    /// # Errors
    ///
    /// [`SessionError::Drained`] if the session already declared end of
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline completes nothing for an implausibly long
    /// time (a scheduler deadlock — a bug, not a workload condition).
    pub fn offer(&mut self, descs: &[PacketDescriptor]) -> Result<(), SessionError> {
        if self.drained {
            return Err(SessionError::Drained);
        }
        let rate = self.pipe.input_rate_per_cycle();
        let cap = self.pipe.burst_cap();
        let baseline = self.pipe.poll();
        let mut next = 0usize;
        let mut accum = 0.0f64;
        let mut completed = baseline.stats.completed;
        let mut last_progress_cycle = baseline.now_sys;
        let mut cycles = 0u64;
        // Watchdog sampling period: polling merged statistics is
        // O(channels) per call, so the deadlock check reads them every so
        // often rather than every cycle (detection latency is immaterial
        // against the 2M cycle threshold).
        const WATCHDOG_PERIOD: u64 = 1024;
        while next < descs.len() {
            accum = (accum + rate).min(cap);
            while accum >= 1.0 && next < descs.len() {
                if !self.pipe.push(descs[next]) {
                    break;
                }
                next += 1;
                accum -= 1.0;
            }
            self.pipe.tick();
            cycles += 1;
            if cycles.is_multiple_of(WATCHDOG_PERIOD) {
                let p = self.pipe.poll();
                if p.stats.completed > completed {
                    completed = p.stats.completed;
                    last_progress_cycle = p.now_sys;
                }
                assert!(
                    p.now_sys - last_progress_cycle < 2_000_000,
                    "no completion for 2M cycles with input pending: {} offered, {} in pipeline \
                     — pipeline deadlock",
                    next,
                    p.in_pipeline,
                );
            }
        }
        Ok(())
    }

    /// Ends the session: drains the pipeline if not already drained, and
    /// builds the [`RunReport`] covering everything since the session
    /// opened. Consumes the handle, so nothing can be pushed afterwards.
    pub fn finish(mut self) -> RunReport {
        if !self.drained {
            self.drained = true;
            self.pipe.drain();
        }
        let end = self.pipe.poll();
        RunReport::from_progress(
            self.pipe.name(),
            self.pipe.channels(),
            &self.start,
            &end,
            self.pipe.sys_period_ns(),
        )
    }

    /// The canonical one-shot driver: [`offer`](Self::offer)s all of
    /// `descs` paced at the configured input rate, then
    /// [`finish`](Self::finish)es. Batch `run` entry points and benches
    /// wrap exactly this.
    ///
    /// # Errors
    ///
    /// [`SessionError::Drained`] if [`drain`](Self::drain) was already
    /// called on this session.
    ///
    /// # Panics
    ///
    /// Panics on pipeline deadlock (see [`offer`](Self::offer)).
    pub fn run(mut self, descs: &[PacketDescriptor]) -> Result<RunReport, SessionError> {
        self.offer(descs)?;
        Ok(self.finish())
    }
}

/// The object-safe capability union every backend implements: a
/// [`FlowStore`] that may additionally expose its streaming pipeline.
///
/// Functional structures (the baselines, [`HashCamTable`]) return `None`
/// from [`as_pipeline`](Self::as_pipeline); the timed backends return
/// themselves. Generic harnesses hold `Box<dyn FlowBackend>` and branch
/// on the capability, never on the concrete type.
pub trait FlowBackend: FlowStore {
    /// The streaming session capability, if this backend simulates time.
    fn as_pipeline(&mut self) -> Option<&mut dyn FlowPipeline> {
        None
    }
}

/// The unified end-to-end report of one streaming session, produced by
/// [`Session::finish`]. Both `SimReport` and the multi-channel engine's
/// report convert into it (`From` impls), so sweeps over heterogeneous
/// backends tabulate one shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: &'static str,
    /// Number of lockstep channels (1 for the single-channel simulator).
    pub channels: usize,
    /// System-clock cycles simulated.
    pub sys_cycles: u64,
    /// Wall-clock time simulated, in nanoseconds.
    pub elapsed_ns: f64,
    /// Descriptors resolved (including drops).
    pub completed: u64,
    /// Processing rate in million descriptors per second.
    pub mdesc_per_s: f64,
    /// Mean admission→completion latency in nanoseconds.
    pub mean_latency_ns: f64,
    /// Simulator counters over the run (merged across channels).
    pub stats: SimStats,
    /// Final table occupancy (summed across channels).
    pub occupancy: Occupancy,
}

impl RunReport {
    /// Builds a report from start/end progress snapshots.
    pub(crate) fn from_progress(
        backend: &'static str,
        channels: usize,
        start: &SessionProgress,
        end: &SessionProgress,
        sys_period_ns: f64,
    ) -> RunReport {
        let stats = end.stats.delta_since(&start.stats);
        let sys_cycles = end.now_sys - start.now_sys;
        let elapsed_ns = sys_cycles as f64 * sys_period_ns;
        RunReport {
            backend,
            channels,
            sys_cycles,
            elapsed_ns,
            completed: stats.completed,
            mdesc_per_s: if elapsed_ns > 0.0 {
                stats.completed as f64 / (elapsed_ns / 1000.0)
            } else {
                0.0
            },
            mean_latency_ns: stats.mean_latency_sys() * sys_period_ns,
            stats,
            occupancy: end.occupancy,
        }
    }
}

// ---------------------------------------------------------------------
// HashCamTable: the functional backend.
// ---------------------------------------------------------------------

impl FlowStore for HashCamTable {
    fn name(&self) -> &'static str {
        "hashcam (this paper)"
    }

    fn insert(&mut self, key: FlowKey) -> Result<bool, FullError> {
        match self.lookup_or_insert(key) {
            Ok((_, created)) => Ok(created),
            Err(_) => Err(FullError {
                table: FlowStore::name(self),
                key,
                occupancy: self.len(),
                capacity: self.config().capacity(),
            }),
        }
    }

    fn contains(&mut self, key: &FlowKey) -> bool {
        self.lookup(key).is_some()
    }

    fn remove(&mut self, key: &FlowKey) -> bool {
        self.delete(key).is_some()
    }

    fn len(&self) -> u64 {
        HashCamTable::len(self)
    }

    fn capacity(&self) -> u64 {
        self.config().capacity()
    }

    /// Early-exit probe accounting, from [`TableStats`]: a CAM hit costs
    /// 0 DRAM reads, a Mem1 hit 1, a Mem2 hit or full miss 2; every
    /// lookup searches the CAM once. A memory insert or delete rewrites
    /// one bucket.
    ///
    /// [`TableStats`]: crate::table::TableStats
    fn op_stats(&self) -> OpStats {
        let s = self.stats();
        OpStats {
            mem_reads: s.hits_mem_a + 2 * (s.hits_mem_b + s.misses),
            mem_writes: (s.inserts - s.cam_spills) + s.deletes,
            cam_searches: s.lookups,
            relocations: 0,
            lookups: s.lookups,
            inserts: s.inserts + s.full_rejections,
            rejected: s.full_rejections,
            cam_spills: s.cam_spills,
        }
    }
}

impl FlowBackend for HashCamTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use flowlut_traffic::FiveTuple;

    fn key(i: u64) -> FlowKey {
        FlowKey::from(FiveTuple::from_index(i))
    }

    #[test]
    fn reads_per_lookup() {
        let s = OpStats {
            mem_reads: 30,
            lookups: 20,
            ..OpStats::default()
        };
        assert!((s.reads_per_lookup() - 1.5).abs() < 1e-12);
        assert_eq!(OpStats::default().reads_per_lookup(), 0.0);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = OpStats {
            mem_reads: 5,
            mem_writes: 3,
            cam_searches: 7,
            relocations: 1,
            lookups: 4,
            inserts: 2,
            rejected: 6,
            cam_spills: 8,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.delta_since(&a), a);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn full_error_display() {
        let e = FullError {
            table: "cuckoo",
            key: key(3),
            occupancy: 50,
            capacity: 100,
        };
        let s = e.to_string();
        assert!(s.contains("cuckoo"), "{s}");
        assert!(s.contains("50/100"), "{s}");
        assert!(s.contains("50.0%"), "{s}");
    }

    #[test]
    fn hashcam_store_roundtrip() {
        let mut t = HashCamTable::new(TableConfig::test_small());
        let b: &mut dyn FlowBackend = &mut t;
        assert!(b.insert(key(1)).unwrap());
        assert!(!b.insert(key(1)).unwrap(), "upsert semantics");
        assert!(b.contains(&key(1)));
        assert!(!b.contains(&key(2)));
        assert_eq!(b.len(), 1);
        assert!(b.remove(&key(1)));
        assert!(!b.remove(&key(1)));
        assert!(b.is_empty());
        assert!(b.as_pipeline().is_none(), "functional table has no clock");
        let s = b.op_stats();
        assert!(s.lookups > 0 && s.cam_searches == s.lookups);
    }

    #[test]
    fn hashcam_full_error_carries_context() {
        let mut t = HashCamTable::new(TableConfig {
            buckets_per_mem: 1,
            entries_per_bucket: 1,
            cam_capacity: 1,
            entry_slot_bytes: 16,
            hash_seed: 7,
        });
        let mut i = 0u64;
        let err = loop {
            match FlowStore::insert(&mut t, key(i)) {
                Ok(_) => i += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err.occupancy, HashCamTable::len(&t));
        assert_eq!(err.capacity, t.config().capacity());
        assert_eq!(err.key, key(i));
        assert!(err.occupancy <= err.capacity);
    }
}
