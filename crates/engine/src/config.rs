//! Configuration of the multi-channel engine.

use flowlut_core::{ConfigError, SimConfig};

/// How the engine advances its shards each system-clock cycle.
///
/// Shards share no state by construction — the
/// [`ShardRouter`](crate::ShardRouter) partition is a pure function of
/// the key bytes — so they can be stepped on any schedule that keeps
/// each shard's own cycle sequence intact. Both modes produce
/// **bit-identical** reports; `Threaded` only changes which host thread
/// executes each shard's cycle (pinned by the parallel-equivalence
/// proptest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Every shard stepped by the calling thread, in shard order — the
    /// reference mode.
    #[default]
    Inline,
    /// Shards partitioned round-robin across `n` executor threads (the
    /// calling thread plus `n − 1` long-lived workers), synchronised by
    /// a per-cycle generation barrier. `n` is clamped to the shard
    /// count; `Threaded(1)` degenerates to `Inline`.
    Threaded(usize),
}

/// Full configuration of [`ShardedFlowLut`](crate::ShardedFlowLut).
///
/// Each shard is one complete paper prototype ([`SimConfig`]) — a
/// dual-path lookup engine over two DDR3 memories — so an N-shard
/// engine drives 2 N independent DDR3 channels. The engine paces the
/// *aggregate* input; the per-shard `input_rate_mhz` inside
/// [`shard`](Self::shard) is ignored (the engine offers descriptors
/// directly into each channel's sequencer).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of channels (shards). Need not be a power of two.
    pub shards: usize,
    /// Per-channel simulator configuration (table sizing, DDR3 timing,
    /// queue depths). All channels are identical, as hardware would be.
    pub shard: SimConfig,
    /// Seed of the shard router's key hash.
    pub router_seed: u64,
    /// Aggregate offered descriptor rate in MHz, across all shards.
    pub input_rate_mhz: f64,
    /// Which host threads step the shards each cycle (bit-identical
    /// either way; see [`ExecutionMode`]).
    pub execution: ExecutionMode,
}

impl EngineConfig {
    /// An engine of `shards` paper prototypes, each offered the paper's
    /// maximum 100 MHz, i.e. an aggregate of `shards × 100 MHz`.
    pub fn prototype(shards: usize) -> Self {
        EngineConfig {
            shards,
            shard: SimConfig::default(),
            router_seed: 0x5EED_C4A7,
            input_rate_mhz: shards as f64 * 100.0,
            execution: ExecutionMode::Inline,
        }
    }

    /// A scaled-down two-shard configuration for fast unit tests.
    pub fn test_small() -> Self {
        EngineConfig {
            shards: 2,
            shard: SimConfig::test_small(),
            input_rate_mhz: 200.0,
            ..EngineConfig::prototype(2)
        }
    }

    /// System-clock frequency in MHz (all channels share one clock).
    pub fn sys_clock_mhz(&self) -> f64 {
        self.shard.sys_clock_mhz()
    }

    /// System-clock period in nanoseconds.
    pub fn sys_period_ns(&self) -> f64 {
        self.shard.sys_period_ns()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the per-shard configuration is invalid,
    /// the shard count is zero, or the aggregate rate exceeds one
    /// descriptor per shard per system cycle.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.shard.validate()?;
        if self.shards == 0 {
            return Err(ConfigError::new("shards must be non-zero"));
        }
        let max_rate = self.shards as f64 * self.sys_clock_mhz();
        if self.input_rate_mhz <= 0.0 || self.input_rate_mhz > max_rate {
            return Err(ConfigError::new(format!(
                "aggregate input rate {} MHz must be in (0, {max_rate}] \
                 (one descriptor per shard per system cycle max)",
                self.input_rate_mhz
            )));
        }
        if self.execution == ExecutionMode::Threaded(0) {
            return Err(ConfigError::new("Threaded executor count must be non-zero"));
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    /// Four paper prototypes (8 DDR3 channels) at 400 MHz aggregate.
    fn default() -> Self {
        EngineConfig::prototype(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        EngineConfig::default().validate().unwrap();
        EngineConfig::test_small().validate().unwrap();
        EngineConfig::prototype(8).validate().unwrap();
    }

    #[test]
    fn zero_counts_rejected() {
        let mut c = EngineConfig::test_small();
        c.shards = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn aggregate_rate_bounded_by_shard_count() {
        let mut c = EngineConfig::test_small();
        c.input_rate_mhz = c.shards as f64 * c.sys_clock_mhz() + 1.0;
        assert!(c.validate().is_err());
        c.input_rate_mhz = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn prototype_scales_rate_with_shards() {
        assert!((EngineConfig::prototype(8).input_rate_mhz - 800.0).abs() < 1e-9);
    }

    #[test]
    fn zero_threaded_executors_rejected() {
        let mut c = EngineConfig::test_small();
        c.execution = ExecutionMode::Threaded(0);
        assert!(c.validate().is_err());
        c.execution = ExecutionMode::Threaded(1);
        c.validate().unwrap();
        c.execution = ExecutionMode::Threaded(16);
        c.validate().unwrap();
    }
}
