//! # flowlut — memory-efficient flow processing on simulated DDR3 SDRAM
//!
//! A full reproduction of *"A Hardware Acceleration Scheme for
//! Memory-Efficient Flow Processing"* (Xin Yang, Sakir Sezer, Shane
//! O'Neill — IEEE SOCC 2014): a network-flow lookup table that reaches
//! 40 GbE-class lookup rates out of commodity DDR3 SDRAM via two-choice
//! Hash-CAM hashing, a dual-path lookup pipeline with early exit, bank
//! aware request scheduling, and burst-grouped updates.
//!
//! The whole workspace speaks one API: every structure — the functional
//! table, the cycle-stepped prototype, the sharded engine, and every
//! related-work baseline — implements the object-safe
//! [`FlowBackend`]/[`FlowStore`] traits (plus [`FlowPipeline`] for the
//! timed ones), is constructed by [`Builder`], and reports runs in one
//! [`RunReport`] shape via the typed [`Session`] handle. Failures fold
//! into the unified [`FlowError`] hierarchy.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the paper's contribution: the functional
//!   [`HashCamTable`](flowlut_core::HashCamTable) and the cycle-stepped
//!   [`FlowLutSim`](flowlut_core::FlowLutSim);
//! * [`ddr3`] — the DDR3 device + controller timing model;
//! * [`cam`] — the exact-match overflow CAM model;
//! * [`hash`] — CRC-32 / H3 hardware hashes and the two-choice pair;
//! * [`traffic`] — flow keys, workloads, the synthetic
//!   fabric trace, and Ethernet line-rate arithmetic;
//! * [`baselines`] — related-work comparators;
//! * [`engine`] — the multi-channel sharded engine: N complete
//!   prototypes behind a hash-based shard router, stepped in lockstep —
//!   the scale-out path past a single channel's ≈44 Mdesc/s saturation;
//! * [`service`] — the long-running flow service: the engine behind a
//!   bounded multi-producer ingest queue with blocking backpressure,
//!   plus checkpoint/restore warm restart and online N→2N rescale.
//!   The paper's Figure 7 traffic analyzer is built on it in
//!   `examples/traffic_analyzer.rs`: the ingest queue is the packet
//!   buffer, [`FlowEvent`]s plus [`SessionProgress`] deltas are the
//!   event engine, and the flow records are the stats engine;
//! * [`scenarios`] — declarative workload scenarios: builder/TOML specs
//!   composing Zipf, elephant/mice, churn, burst and adversarial
//!   collision stages, executed against any backend by one generic
//!   runner (or in one call via [`Builder::scenario`]).
//!
//! ## Quick start
//!
//! Build any backend with [`Builder`]; the functional [`FlowStore`] verbs
//! work on all of them:
//!
//! ```
//! use flowlut::{Builder, FlowStore};
//! use flowlut::core::TableConfig;
//! use flowlut::traffic::{FiveTuple, FlowKey};
//!
//! let mut table = Builder::new().table(TableConfig::test_small()).build()?;
//! let key = FlowKey::from(FiveTuple::new([10, 0, 0, 1], [10, 0, 0, 2], 80, 443, 6));
//! assert!(table.insert(key)?, "new flow");
//! assert!(table.contains(&key));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Timed backends additionally stream descriptors through a typed,
//! paced [`Session`] (`push`/`tick`/`poll`/`events`/`drain` by hand, or
//! [`Session::run`] for the whole batch):
//!
//! ```
//! use flowlut::{Builder, Session};
//! use flowlut::core::SimConfig;
//! use flowlut::traffic::{FiveTuple, FlowKey, PacketDescriptor};
//!
//! let mut engine = Builder::new()
//!     .sim_config(SimConfig::test_small())
//!     .shards(2)
//!     .build()?;
//! let descs: Vec<PacketDescriptor> =
//!     PacketDescriptor::sequence((0..200).map(|i| FlowKey::from(FiveTuple::from_index(i))));
//! let pipe = engine.as_pipeline().expect("timed backend");
//! let report = Session::new(pipe).run(&descs)?;
//! assert_eq!(report.completed, 200);
//! println!("{} ch x {:.1} Mdesc/s", report.channels, report.mdesc_per_s);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;

pub use builder::{BaselineKind, Builder};
pub use flowlut_core::backend::{
    FlowBackend, FlowEvent, FlowEventKind, FlowPipeline, FlowStore, FullError, OpStats, RunReport,
    Session, SessionError, SessionProgress,
};
pub use flowlut_core::{CheckpointError, ExpiryPolicy, FlowError, PressurePolicy, RescaleError};
pub use flowlut_scenarios::{Scenario, ScenarioReport, ScenarioRunner, StageSpec};

pub use flowlut_baselines as baselines;
pub use flowlut_cam as cam;
pub use flowlut_core as core;
pub use flowlut_ddr3 as ddr3;
pub use flowlut_engine as engine;
pub use flowlut_hash as hash;
pub use flowlut_scenarios as scenarios;
pub use flowlut_service as service;
pub use flowlut_traffic as traffic;
