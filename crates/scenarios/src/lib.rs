//! # flowlut-scenarios — declarative adversarial + realistic workloads
//!
//! The scenario matrix layer: a declarative [`Scenario`] spec (builder
//! API or the hand-rolled TOML loader in [`toml`]) composed of generator
//! stages — Zipf-skewed flow popularity, elephant/mice mixes, flow churn
//! at controlled birth/death rates, burst trains/microbursts, and an
//! adversarial collision stage ([`CollisionMiner`]) that mines keys
//! colliding under the Hash-CAM's H3 bucket functions to force the CAM
//! overflow path (a SYN-flood analogue).
//!
//! One generic [`ScenarioRunner`] executes any scenario against any
//! `dyn FlowBackend` — the paper's functional table, the cycle-stepped
//! prototype, the sharded engine, and every related-work baseline —
//! through the typed `Session` API, recording simulated throughput
//! (timed backends), drop/overflow/expiry rates and CAM high-water occupancy into a
//! [`ScenarioReport`]. Generated streams are plain
//! `flowlut_traffic::PacketDescriptor` vectors, so they replay to disk
//! via `flowlut_traffic::trace_io` and every run is reproducible from a
//! committed trace.
//!
//! ```
//! use flowlut_core::HashCamTable;
//! use flowlut_core::table::TableConfig;
//! use flowlut_scenarios::{Scenario, ScenarioRunner};
//!
//! let scenario = Scenario::new("zipf-skew", 42).zipf(500, 0.98, 2_000);
//! let mut table = HashCamTable::new(TableConfig::test_small());
//! let report = ScenarioRunner::new().run(&scenario, &mut table);
//! assert_eq!(report.offered, 2_000);
//! assert!(report.drop_rate() == 0.0, "well within capacity");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversarial;
pub mod runner;
pub mod spec;
pub mod toml;

pub use adversarial::CollisionMiner;
pub use runner::{ScenarioReport, ScenarioRunner};
pub use spec::{Scenario, StageSpec};
pub use toml::ScenarioParseError;
