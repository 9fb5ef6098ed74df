//! # flowlut-ddr3 — a cycle-level DDR3 SDRAM model
//!
//! This crate is the memory substrate for the `flowlut` reproduction of
//! *"A Hardware Acceleration Scheme for Memory-Efficient Flow Processing"*
//! (Yang, Sezer & O'Neill, IEEE SOCC 2014). The paper's entire argument is
//! that commodity DDR3 SDRAM can back a line-rate flow lookup table **if**
//! the logic in front of it hides row-cycle latency and bus-turnaround
//! penalties. Reproducing the paper therefore requires a DDR3 model that is
//! faithful to exactly those effects:
//!
//! * a multi-**bank** device where each bank has at most one open row, and
//!   switching rows costs the row cycle time `tRC`;
//! * **burst-oriented** column accesses (BL8: one read or write command
//!   moves four memory-clock cycles of data on the DQ bus);
//! * JEDEC **timing constraints** between commands (`tRCD`, `tRP`, `tRAS`,
//!   `tCCD`, `tWTR`, `tWR`, `tRTP`, `tRRD`, `tFAW`, `tREFI`, `tRFC`);
//! * the **read/write turnaround** penalty on the shared DQ bus — the
//!   effect Figure 3 of the paper quantifies.
//!
//! The crate provides three layers:
//!
//! 1. [`device::Ddr3Device`]: a command-level device model that
//!    accepts `ACT`/`RD`/`WR`/`PRE`/`REF` commands, *rejects illegal ones*
//!    (so a buggy scheduler cannot silently cheat), and tracks DQ-bus
//!    occupancy and row hit/miss statistics.
//! 2. [`controller::MemoryController`]: a cycle-stepped
//!    scheduler in the spirit of the quarter-rate controller used by the
//!    paper's FPGA prototype — per-bank queues, open-page policy, FR-FCFS
//!    style candidate selection, same-direction grouping to amortise
//!    turnaround, and periodic refresh.
//! 3. [`bus`]: a closed-form DQ-utilization model used to regenerate
//!    Figure 3, cross-validated against the simulated device.
//!
//! On top of the DDR3 reference sits the [`model`] layer: the
//! object-safe [`MemoryModel`] trait abstracting *any* burst-granular
//! memory behind the same transactional surface, with alternative
//! technologies in [`dram`] (bank-grouped DDR4-2400 and multi-channel
//! HBM2-style models) and [`sram`] (an idealized fixed-latency bound),
//! selected via [`MemorySpec`]/[`MemoryKind`]. These power the
//! line-rate headroom study (`BENCH_memory.json`).
//!
//! ## Example
//!
//! ```
//! use flowlut_ddr3::{ControllerConfig, MemRequest, MemoryController, MemoryModel};
//! use flowlut_ddr3::timing::TimingPreset;
//!
//! let mut ctrl = MemoryController::new(ControllerConfig {
//!     timing: TimingPreset::Ddr3_1066E.params(),
//!     ..ControllerConfig::default()
//! });
//! ctrl.enqueue(MemRequest::read(1, 0x40)).unwrap();
//! let mut done = Vec::new();
//! while done.is_empty() {
//!     done.extend(ctrl.tick());
//! }
//! assert_eq!(done[0].id, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod bank;
pub mod bus;
pub mod controller;
pub mod device;
pub mod dram;
pub mod error;
pub mod model;
pub mod sram;
pub mod stats;
pub mod storage;
pub mod timing;

pub use address::{AddressMapping, Geometry, MemAddress};
pub use bank::{Bank, BankState};
pub use controller::{
    AccessKind, Completion, ControllerConfig, MemRequest, MemoryController, PagePolicy,
};
pub use device::{Command, CommandOutcome, Ddr3Device};
pub use dram::{DramParams, GroupedDramModel};
pub use error::{ConfigError, EnqueueError, TimingViolation};
pub use model::{MemStats, MemoryKind, MemoryModel, MemorySpec};
pub use sram::{SramModel, SramParams};
pub use stats::{ControllerStats, DeviceStats};
pub use storage::SparseStorage;
pub use timing::{TimingParams, TimingPreset};
