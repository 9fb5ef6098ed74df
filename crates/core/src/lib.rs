//! # flowlut-core — the memory-efficient flow lookup table
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"A Hardware Acceleration Scheme for Memory-Efficient Flow
//! Processing"* (Yang, Sezer & O'Neill, IEEE SOCC 2014): a flow lookup
//! table that reaches 40 GbE-class lookup rates out of commodity DDR3
//! SDRAM by combining
//!
//! 1. a **two-choice Hash-CAM table** split over two independent
//!    memories, with bucket overflow in a small on-chip CAM and a
//!    three-stage early-exit lookup pipeline ([`table::HashCamTable`]);
//! 2. a **dual-path lookup architecture** with load balancing, per-bank
//!    request reordering (DLU), RAW-hazard filtering, and burst-grouped
//!    update writes ([`sim::FlowLutSim`], cycle-accurate against the
//!    [`flowlut_ddr3`] memory model);
//! 3. **per-flow state** with idle-TTL aging and bounded-loss pressure
//!    eviction that keep the table absorbing new flows ([`flow_state`],
//!    [`ExpiryPolicy`], [`PressurePolicy`]).
//!
//! Use the functional layer if you want the data structure; use the
//! simulator if you want the paper's performance experiments.
//!
//! ## Quick start (functional layer)
//!
//! ```
//! use flowlut_core::{HashCamTable, TableConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey};
//!
//! let mut table = HashCamTable::new(TableConfig::test_small());
//! let key = FlowKey::from(FiveTuple::new([10, 0, 0, 1], [10, 0, 0, 2], 80, 443, 6));
//! let (fid, created) = table.lookup_or_insert(key)?;
//! assert!(created);
//! assert_eq!(table.lookup(&key).map(|(id, _)| id), Some(fid));
//! # Ok::<(), flowlut_core::InsertError>(())
//! ```
//!
//! ## Quick start (timed simulator)
//!
//! ```
//! use flowlut_core::{FlowLutSim, SimConfig};
//! use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut sim = FlowLutSim::new(SimConfig::test_small());
//! let descs: Vec<PacketDescriptor> = (0..100)
//!     .map(|i| PacketDescriptor::new(i, FlowKey::from(FiveTuple::from_index(i))))
//!     .collect();
//! let report = sim.run(&descs);
//! assert_eq!(report.completed, 100);
//! println!("{:.2} Mdesc/s", report.mdesc_per_s);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod error;
pub mod fid;
pub mod flow_state;
pub mod multipath;
pub mod resource;
pub mod sim;
pub mod sync;
pub mod table;

pub use backend::{
    FlowBackend, FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, RunReport,
    Session, SessionError, SessionProgress,
};
pub use checkpoint::CheckpointError;
pub use config::{ExpiryPolicy, LoadBalancerPolicy, PressurePolicy, SimConfig};
pub use error::{ConfigError, FlowError, InsertError, PreloadError, RescaleError};
pub use fid::{FlowId, Location, PathId};
pub use flow_state::{FlowRecord, FlowStateStore};
pub use multipath::{MultiHashConfig, MultiHashStats, MultiHashTable, MultiLocation};
pub use resource::{ResourceEstimate, ResourceModel};
pub use sim::{FlowLutSim, SimReport, SimSnapshot, SimStats};
pub use table::{HashCamTable, LookupStage, Occupancy, TableConfig, TableStats};
