//! The memory-technology abstraction: [`MemoryModel`] and its
//! selection types.
//!
//! The paper's flow LUT is DDR3-bound by construction; everything the
//! pipeline needs from a memory, though, is a small transactional
//! surface: enqueue burst-granular read/write requests, advance cycles,
//! drain, expose occupancy and statistics, and allow zero-cost preload
//! into the backing storage. [`MemoryModel`] captures exactly that
//! surface as an object-safe trait — mirroring how `FlowBackend`
//! unified the workspace's flow structures — so the simulator, engine
//! and facade can ask the 2026 question ("which memory technology holds
//! 400GbE, at how many shards?") without re-plumbing a concrete type
//! through every layer.
//!
//! Implementations:
//!
//! * [`MemoryController`] — the paper's cycle-level DDR3 model, the
//!   reference behaviour.
//! * [`GroupedDramModel`] — a
//!   closed-page, bank-grouped, multi-channel DRAM engine configured as
//!   DDR4-2400 or an HBM2-style stack via [`DramParams`].
//! * [`SramModel`] — an idealized fixed-latency
//!   SRAM bound.

use crate::address::{AddressMapping, Geometry};
use crate::controller::{Completion, ControllerConfig, MemRequest, MemoryController, PagePolicy};
use crate::dram::{DramParams, GroupedDramModel};
use crate::error::{ConfigError, EnqueueError};
use crate::sram::{SramModel, SramParams};
use crate::stats::{ControllerStats, DeviceStats};
use crate::storage::SparseStorage;
use crate::timing::TimingPreset;

/// Unified statistics of one memory model: scheduler-level counters
/// plus device-level command counters. Models without a command-level
/// device (SRAM) report zeroed [`DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemStats {
    /// Request-level scheduler counters.
    pub controller: ControllerStats,
    /// Command-level device counters.
    pub device: DeviceStats,
}

/// An object-safe cycle-stepped memory: the transactional surface the
/// flow-LUT pipeline needs from any memory technology.
///
/// Contract shared by every implementation:
///
/// * [`enqueue`](Self::enqueue) applies back-pressure via
///   [`EnqueueError`]; the caller retries on a later cycle.
/// * [`tick`](Self::tick) advances one **memory** clock cycle and
///   returns finished requests sorted by `(enqueued_at, id)`, so
///   completion order is deterministic.
/// * Same-address requests complete in arrival order (no stale data).
/// * [`storage_mut`](Self::storage_mut) bypasses timing for preload.
pub trait MemoryModel: std::fmt::Debug + Send {
    /// Short technology name (e.g. `"ddr3"`).
    fn name(&self) -> &'static str;

    /// Current memory-clock cycle.
    fn now(&self) -> u64;

    /// Queues a burst-granular request.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError`] when the request queue is at capacity;
    /// the caller should retry on a later cycle (back-pressure).
    fn enqueue(&mut self, req: MemRequest) -> Result<(), EnqueueError>;

    /// Advances one memory-clock cycle, returning any completions.
    fn tick(&mut self) -> Vec<Completion>;

    /// Requests queued but not yet issued.
    fn queued_len(&self) -> usize;

    /// Issued requests whose data phase has not finished.
    fn in_flight_len(&self) -> usize;

    /// Total outstanding requests (queued + in flight).
    fn occupancy(&self) -> usize {
        self.queued_len() + self.in_flight_len()
    }

    /// `true` when no work is queued or in flight.
    fn is_drained(&self) -> bool {
        self.occupancy() == 0
    }

    /// Runs until every queued request completes or `max_cycles`
    /// elapse, returning all completions produced.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted before draining (a scheduler
    /// deadlock — a bug, not a workload condition).
    fn drain(&mut self, max_cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            out.extend(self.tick());
            if self.is_drained() {
                return out;
            }
        }
        panic!(
            "memory model `{}` failed to drain within {max_cycles} cycles \
             ({} queued, {} in flight)",
            self.name(),
            self.queued_len(),
            self.in_flight_len()
        );
    }

    /// Read-only view of the backing storage.
    fn storage(&self) -> &SparseStorage;

    /// Direct access to the backing storage, bypassing timing — used to
    /// preload table contents without paying simulated cycles.
    fn storage_mut(&mut self) -> &mut SparseStorage;

    /// Unified statistics snapshot.
    fn mem_stats(&self) -> MemStats;
}

/// Named memory technologies — the sweep axis of the line-rate headroom
/// study (`BENCH_memory.json`) and the facade builder's coarse dial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemoryKind {
    /// JEDEC DDR3, the paper's technology.
    Ddr3,
    /// DDR4-2400-class device with bank groups (tCCD_S/tCCD_L).
    Ddr4,
    /// HBM2-style stack: many narrow channels, low tRC.
    Hbm2,
    /// Idealized fixed-latency SRAM bound.
    Sram,
}

impl MemoryKind {
    /// Every kind, in the headroom study's sweep order.
    pub const ALL: [MemoryKind; 4] = [
        MemoryKind::Ddr3,
        MemoryKind::Ddr4,
        MemoryKind::Hbm2,
        MemoryKind::Sram,
    ];

    /// Short lower-case name (bench/JSON identifier).
    pub fn name(self) -> &'static str {
        match self {
            MemoryKind::Ddr3 => "ddr3",
            MemoryKind::Ddr4 => "ddr4",
            MemoryKind::Hbm2 => "hbm2",
            MemoryKind::Sram => "sram",
        }
    }

    /// The calibrated default parameter set for this technology (see
    /// DESIGN.md §Calibration); DDR3 is the prototype's DDR3-1600
    /// 512 MB memory set.
    pub fn default_spec(self) -> MemorySpec {
        match self {
            MemoryKind::Ddr3 => MemorySpec::Ddr3 {
                timing: TimingPreset::Ddr3_1600,
                geometry: Geometry::prototype_512mb(),
            },
            MemoryKind::Ddr4 => MemorySpec::Ddr4(DramParams::ddr4_2400()),
            MemoryKind::Hbm2 => MemorySpec::Hbm2(DramParams::hbm2_2gbps()),
            MemoryKind::Sram => MemorySpec::Sram(SramParams::ideal_200mhz()),
        }
    }
}

/// The prototype's quarter-rate DDR3 controller: memory-clock cycles
/// per system cycle (800 MHz DDR3-1600 clock, 200 MHz user logic), and
/// the command interval in memory cycles (one command per user cycle).
const DDR3_CLOCK_RATIO: u32 = 4;

/// Consecutive same-direction column commands the DDR3 controller
/// issues before it considers a bus turnaround.
const DDR3_GROUP_LIMIT: u32 = 16;

/// Full memory-technology selection: which model to build, with its
/// parameters. Every variant carries its whole part, so a consumer's
/// configuration needs nothing beyond this value, a queue capacity and
/// a refresh switch.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemorySpec {
    /// The paper's DDR3 part behind a [`MemoryController`] set up as
    /// the prototype's quarter-rate controller: four memory cycles and
    /// one command per system cycle, and [`AddressMapping::RowColBank`]
    /// so consecutive bursts land in consecutive banks (the interleave
    /// the Bank Selector exploits).
    Ddr3 {
        /// JEDEC speed grade.
        timing: TimingPreset,
        /// Geometry of each memory set.
        geometry: Geometry,
    },
    /// DDR4 with bank groups, from explicit [`DramParams`].
    Ddr4(DramParams),
    /// HBM2-style multi-channel stack, from explicit [`DramParams`].
    Hbm2(DramParams),
    /// Idealized SRAM, from explicit [`SramParams`].
    Sram(SramParams),
}

impl Default for MemorySpec {
    /// The FPGA prototype's memory set: DDR3-1600, 512 MB.
    fn default() -> Self {
        MemoryKind::Ddr3.default_spec()
    }
}

impl MemorySpec {
    /// The coarse technology tag of this spec.
    pub fn kind(&self) -> MemoryKind {
        match self {
            MemorySpec::Ddr3 { .. } => MemoryKind::Ddr3,
            MemorySpec::Ddr4(_) => MemoryKind::Ddr4,
            MemorySpec::Hbm2(_) => MemoryKind::Hbm2,
            MemorySpec::Sram(_) => MemoryKind::Sram,
        }
    }

    /// Short lower-case technology name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Validates the carried parameters. DDR3 checks its geometry; a
    /// [`TimingPreset`] is a datasheet speed grade and always valid.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an internally inconsistent
    /// parameter set (see [`Geometry::validate`],
    /// [`DramParams::validate`] and [`SramParams::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MemorySpec::Ddr3 { geometry, .. } => geometry.validate(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.validate(),
            MemorySpec::Sram(p) => p.validate(),
        }
    }

    /// Memory clock in MHz.
    pub fn clock_mhz(&self) -> f64 {
        match self {
            MemorySpec::Ddr3 { timing, .. } => timing.params().clock_mhz(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_mhz(),
            MemorySpec::Sram(p) => p.clock_mhz(),
        }
    }

    /// Memory-clock cycles per consumer (system) cycle.
    pub fn ticks_per_sys(&self) -> u32 {
        match self {
            MemorySpec::Ddr3 { .. } => DDR3_CLOCK_RATIO,
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.clock_ratio,
            MemorySpec::Sram(_) => 1,
        }
    }

    /// Bytes moved by one burst.
    pub fn burst_bytes(&self) -> usize {
        match self {
            MemorySpec::Ddr3 { geometry, .. } => geometry.burst_bytes(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.burst_bytes(),
            MemorySpec::Sram(p) => p.burst_bytes,
        }
    }

    /// Burst-aligned capacity.
    pub fn total_bursts(&self) -> u64 {
        match self {
            MemorySpec::Ddr3 { geometry, .. } => geometry.total_bursts(),
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.total_bursts(),
            MemorySpec::Sram(p) => p.total_bursts,
        }
    }

    /// Independently schedulable banks: DDR3's geometry banks, every
    /// bank of every DRAM channel, and one for SRAM.
    pub fn banks(&self) -> u32 {
        match self {
            MemorySpec::Ddr3 { geometry, .. } => geometry.banks,
            MemorySpec::Ddr4(p) | MemorySpec::Hbm2(p) => p.channels * p.banks_per_channel(),
            MemorySpec::Sram(_) => 1,
        }
    }

    /// Builds the model behind the trait with `queue_capacity` queued
    /// requests and periodic refresh when `refresh_enabled` (SRAM has
    /// no refresh).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; call
    /// [`validate`](Self::validate) first for fallible handling.
    pub fn build(&self, queue_capacity: usize, refresh_enabled: bool) -> Box<dyn MemoryModel> {
        match self {
            MemorySpec::Ddr3 { timing, geometry } => {
                Box::new(MemoryController::new(ControllerConfig {
                    timing: timing.params(),
                    geometry: *geometry,
                    mapping: AddressMapping::RowColBank,
                    page_policy: PagePolicy::Closed,
                    queue_capacity,
                    group_limit: DDR3_GROUP_LIMIT,
                    refresh_enabled,
                    cmd_interval: u64::from(DDR3_CLOCK_RATIO),
                    ..ControllerConfig::default()
                }))
            }
            MemorySpec::Ddr4(p) => Box::new(GroupedDramModel::new(
                "ddr4",
                *p,
                queue_capacity,
                refresh_enabled,
            )),
            MemorySpec::Hbm2(p) => Box::new(GroupedDramModel::new(
                "hbm2",
                *p,
                queue_capacity,
                refresh_enabled,
            )),
            MemorySpec::Sram(p) => Box::new(SramModel::new(*p, queue_capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ControllerConfig {
        ControllerConfig {
            timing: TimingPreset::Ddr3_1066E.params(),
            geometry: Geometry::tiny(),
            refresh_enabled: false,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn controller_behaves_identically_through_the_trait() {
        // Drive one instance concretely and one through Box<dyn …> with
        // the same request stream: identical completions and stats.
        let mut concrete = MemoryController::new(tiny_cfg());
        let mut boxed: Box<dyn MemoryModel> = Box::new(MemoryController::new(tiny_cfg()));
        for i in 0..8u64 {
            concrete.enqueue(MemRequest::read(i, i * 3)).unwrap();
            boxed.enqueue(MemRequest::read(i, i * 3)).unwrap();
        }
        let a = concrete.drain(100_000);
        let b = boxed.drain(100_000);
        assert_eq!(a, b);
        assert_eq!(
            MemStats {
                controller: *concrete.stats(),
                device: *concrete.device().stats()
            },
            boxed.mem_stats()
        );
        assert_eq!(concrete.now(), boxed.now());
    }

    #[test]
    fn every_kind_builds_and_completes_a_read() {
        for kind in MemoryKind::ALL {
            let spec = kind.default_spec();
            spec.validate().unwrap();
            let mut m = spec.build(32, false);
            assert_eq!(m.name(), kind.name());
            assert!(m.is_drained());
            m.enqueue(MemRequest::read(1, 0)).unwrap();
            assert_eq!(m.occupancy(), 1);
            let done = m.drain(1_000_000);
            assert_eq!(done.len(), 1, "{}", kind.name());
            assert_eq!(done[0].id, 1);
            assert_eq!(m.mem_stats().controller.reads_done, 1);
        }
    }

    #[test]
    fn preload_via_storage_is_visible_to_reads() {
        for kind in MemoryKind::ALL {
            let mut m = kind.default_spec().build(32, false);
            let burst = vec![0xA5u8; m.storage().burst_bytes()];
            m.storage_mut().write_burst(5, &burst);
            m.enqueue(MemRequest::read(9, 5)).unwrap();
            let done = m.drain(1_000_000);
            assert_eq!(done[0].data.as_deref(), Some(&burst[..]), "{}", kind.name());
        }
    }

    #[test]
    fn spec_reports_kind_and_ratio() {
        let ddr3 = MemorySpec::default();
        assert_eq!(ddr3, MemoryKind::Ddr3.default_spec());
        assert_eq!(ddr3.kind(), MemoryKind::Ddr3);
        assert_eq!(ddr3.ticks_per_sys(), 4);
        let ddr4 = MemoryKind::Ddr4.default_spec();
        assert_eq!(ddr4.ticks_per_sys(), DramParams::ddr4_2400().clock_ratio);
        assert_eq!(MemoryKind::Sram.default_spec().ticks_per_sys(), 1);
        for kind in MemoryKind::ALL {
            assert_eq!(kind.default_spec().name(), kind.name());
        }
    }
}
