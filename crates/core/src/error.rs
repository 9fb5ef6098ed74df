//! Error types for the flow lookup table.
//!
//! The individual failure types ([`InsertError`], [`PreloadError`],
//! [`FullError`], …) stay precise at their
//! call sites; [`FlowError`] is the one non-exhaustive hierarchy they
//! all fold into for callers that route heterogeneous failures (the
//! facade, the service layer), with `source()` chains preserved.

use std::error::Error;
use std::fmt;

use crate::backend::{FullError, SessionError};
use crate::checkpoint::CheckpointError;
use crate::fid::FlowId;

/// Insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The key is already resident; carries its existing [`FlowId`].
    Duplicate(FlowId),
    /// Both candidate buckets and the CAM are full. The paper's scheme
    /// relies on flow expiry keeping this rare; callers typically drop
    /// the flow or evict.
    TableFull,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::Duplicate(id) => write!(f, "key already present as {id}"),
            InsertError::TableFull => {
                write!(f, "both hash buckets and the overflow CAM are full")
            }
        }
    }
}

impl Error for InsertError {}

/// Preloading stopped early.
///
/// Preload is *not* transactional: the keys accepted before the failing
/// one remain loaded (in the table **and** in the simulated DRAM
/// contents), and `inserted` says exactly how many those are, so callers
/// can log the partial load, top up, or tear down deliberately instead
/// of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreloadError {
    /// Keys successfully loaded before the failure. They remain
    /// resident — preload does not roll back.
    pub inserted: usize,
    /// The insertion failure that stopped the preload.
    pub cause: InsertError,
}

impl fmt::Display for PreloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preload stopped after {} keys: {}",
            self.inserted, self.cause
        )
    }
}

impl Error for PreloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.cause)
    }
}

/// Configuration rejected by [`TableConfig::validate`](crate::table::TableConfig::validate)
/// or [`SimConfig::validate`](crate::config::SimConfig::validate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Description of the inconsistency.
    pub reason: String,
}

impl ConfigError {
    /// Creates a configuration error.
    pub fn new(reason: impl Into<String>) -> Self {
        ConfigError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.reason)
    }
}

impl Error for ConfigError {}

impl From<flowlut_ddr3::ConfigError> for ConfigError {
    fn from(e: flowlut_ddr3::ConfigError) -> Self {
        ConfigError { reason: e.reason }
    }
}

/// Online shard rescale (N→2N) failed. The engine is left unchanged —
/// new lanes are fully built and populated before being committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RescaleError {
    /// The engine still has staged or in-flight descriptors after the
    /// drain step — rescale requires quiescence.
    NotQuiescent {
        /// Descriptors still staged or in flight.
        in_pipeline: u64,
    },
    /// A migrating flow could not be placed on its destination shard.
    ShardFull {
        /// Destination shard index that rejected the flow.
        shard: usize,
        /// The underlying placement failure.
        cause: FullError,
    },
}

impl fmt::Display for RescaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RescaleError::NotQuiescent { in_pipeline } => write!(
                f,
                "rescale requires a quiescent engine: {in_pipeline} descriptors still in pipeline"
            ),
            RescaleError::ShardFull { shard, cause } => {
                write!(
                    f,
                    "rescale could not rehome a flow onto shard {shard}: {cause}"
                )
            }
        }
    }
}

impl Error for RescaleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RescaleError::NotQuiescent { .. } => None,
            RescaleError::ShardFull { cause, .. } => Some(cause),
        }
    }
}

/// The unified error surface of the workspace: every failure a flow
/// backend, checkpoint, or rescale operation can report, in one
/// non-exhaustive hierarchy with [`source()`](Error::source) chains.
///
/// Call sites keep returning the precise variant type; `From` impls
/// fold each into `FlowError` for callers that handle them uniformly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// A store could not place a key ([`FullError`]).
    Full(FullError),
    /// A table-level insertion failure ([`InsertError`]).
    Insert(InsertError),
    /// Preload stopped early ([`PreloadError`]).
    Preload(PreloadError),
    /// A configuration was rejected ([`ConfigError`]).
    Config(ConfigError),
    /// Streaming-session lifecycle misuse ([`SessionError`]).
    Session(SessionError),
    /// Checkpoint serialization or restore failed ([`CheckpointError`]).
    Checkpoint(CheckpointError),
    /// Online shard rescale failed ([`RescaleError`]).
    Rescale(RescaleError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Full(_) => write!(f, "flow store full"),
            FlowError::Insert(_) => write!(f, "insertion failed"),
            FlowError::Preload(_) => write!(f, "preload failed"),
            FlowError::Config(_) => write!(f, "configuration rejected"),
            FlowError::Session(_) => write!(f, "session misuse"),
            FlowError::Checkpoint(_) => write!(f, "checkpoint failed"),
            FlowError::Rescale(_) => write!(f, "rescale failed"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Full(e) => Some(e),
            FlowError::Insert(e) => Some(e),
            FlowError::Preload(e) => Some(e),
            FlowError::Config(e) => Some(e),
            FlowError::Session(e) => Some(e),
            FlowError::Checkpoint(e) => Some(e),
            FlowError::Rescale(e) => Some(e),
        }
    }
}

impl From<FullError> for FlowError {
    fn from(e: FullError) -> Self {
        FlowError::Full(e)
    }
}

impl From<InsertError> for FlowError {
    fn from(e: InsertError) -> Self {
        FlowError::Insert(e)
    }
}

impl From<PreloadError> for FlowError {
    fn from(e: PreloadError) -> Self {
        FlowError::Preload(e)
    }
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> Self {
        FlowError::Config(e)
    }
}

impl From<SessionError> for FlowError {
    fn from(e: SessionError) -> Self {
        FlowError::Session(e)
    }
}

impl From<CheckpointError> for FlowError {
    fn from(e: CheckpointError) -> Self {
        FlowError::Checkpoint(e)
    }
}

impl From<RescaleError> for FlowError {
    fn from(e: RescaleError) -> Self {
        FlowError::Rescale(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::{FlowId, Location};

    #[test]
    fn displays() {
        let id = FlowId::encode(Location::Cam(3), 2);
        assert!(InsertError::Duplicate(id)
            .to_string()
            .contains("already present"));
        assert!(InsertError::TableFull.to_string().contains("full"));
        assert!(ConfigError::new("bad").to_string().contains("bad"));
        let p = PreloadError {
            inserted: 7,
            cause: InsertError::TableFull,
        };
        assert!(p.to_string().contains("after 7 keys"), "{p}");
        assert!(std::error::Error::source(&p).is_some());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InsertError>();
        assert_send_sync::<ConfigError>();
        assert_send_sync::<PreloadError>();
        assert_send_sync::<RescaleError>();
        assert_send_sync::<FlowError>();
    }

    #[test]
    fn flow_error_chains_to_the_precise_cause() {
        let p = PreloadError {
            inserted: 7,
            cause: InsertError::TableFull,
        };
        let e = FlowError::from(p);
        let src = std::error::Error::source(&e).expect("FlowError carries its cause");
        assert!(src.to_string().contains("after 7 keys"), "{src}");
        let deeper = src.source().expect("PreloadError chains to InsertError");
        assert!(deeper.to_string().contains("full"), "{deeper}");
    }

    #[test]
    fn rescale_error_displays_and_chains() {
        use flowlut_traffic::{FiveTuple, FlowKey};
        let full = crate::backend::FullError {
            table: "hashcam-sim",
            key: FlowKey::from(FiveTuple::from_index(9)),
            occupancy: 4,
            capacity: 4,
        };
        let e = RescaleError::ShardFull {
            shard: 3,
            cause: full,
        };
        assert!(e.to_string().contains("shard 3"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
        let nq = RescaleError::NotQuiescent { in_pipeline: 12 };
        assert!(nq.to_string().contains("12"), "{nq}");
        assert!(std::error::Error::source(&nq).is_none());
    }
}
