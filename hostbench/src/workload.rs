//! The three workloads: their parameters, seeded inputs, service
//! configuration and the timed set-up (build, preload, warm start).

use flowlut_core::{ExpiryPolicy, PressurePolicy, SimConfig, TableConfig};
use flowlut_ddr3::{DramParams, MemorySpec};
use flowlut_engine::{EngineConfig, ExecutionMode, ShardedFlowLut};
use flowlut_service::{FlowService, ServiceConfig};
use flowlut_traffic::fabric::FabricTraceProfile;
use flowlut_traffic::workloads::MatchRateWorkload;
use flowlut_traffic::{FiveTuple, FlowKey, PacketDescriptor};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table II(B) set-up: one DDR3 shard, 8M-entry table,
    /// 10k preloaded flows, a 75%-match query stream offered at 100 MHz.
    Ddr3Paper,
    /// Two small-table shards with idle-TTL expiry and CAM-pressure
    /// eviction on, fed a sliding window of fresh flows with idle gaps.
    ServiceChurn,
    /// Four HBM2 shards stepped by two executor threads, fed the Zipf
    /// fabric law at 200 MHz per shard.
    Hbm2Fabric,
}

/// How much input one measured round carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size: roughly one second of host time per round.
    Full,
    /// A few thousand descriptors at most, for the benchmark's own tests.
    Tiny,
}

/// Every workload, in the order the benchmark lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::Ddr3Paper,
    Workload::ServiceChurn,
    Workload::Hbm2Fabric,
];

/// Cycles per `pump` call when the ingest queue is full.
pub const PUMP_SLICE: u64 = 64;

/// Idle gaps are pumped in slices of this many cycles, so lifecycle
/// events are collected before a shard's bounded event queue can wrap.
pub const GAP_SLICE: u64 = 1024;

/// `ddr3_paper`: flows preloaded before the warm start.
const DDR3_PRELOAD: usize = 10_000;
/// `ddr3_paper`: share of queries that hit a preloaded flow.
const DDR3_MATCH_RATE: f64 = 0.75;

/// `service_churn`: flows touched per epoch.
const CHURN_WINDOW: usize = 1024;
/// `service_churn`: window advance per epoch.
const CHURN_SHIFT: usize = 512;
/// `service_churn`: packets per flow per epoch (round-robin passes).
const CHURN_PACKETS_PER_FLOW: usize = 4;
/// `service_churn`: idle cycles pumped between epochs.
const CHURN_GAP_SYS: u64 = 10_000;
/// `service_churn`: idle TTL, about one and a half epochs of stream time.
const CHURN_IDLE_TIMEOUT_SYS: u64 = 15_000;

/// `hbm2_fabric`: shards and executor threads.
const HBM2_SHARDS: usize = 4;
const HBM2_EXECUTORS: usize = 2;
/// `hbm2_fabric`: the paper's Figure 6 fabric law.
const FABRIC_FLOWS: u64 = 20_000;
const FABRIC_EXPONENT: f64 = 0.98;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ddr3Paper => "ddr3_paper",
            Workload::ServiceChurn => "service_churn",
            Workload::Hbm2Fabric => "hbm2_fabric",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Descriptors in one measured round.
    fn round_len(self, size: Size) -> usize {
        match (self, size) {
            (Workload::Ddr3Paper, Size::Full) => 80_000,
            (Workload::Ddr3Paper, Size::Tiny) => 4_000,
            (Workload::ServiceChurn, Size::Full) => 24 * CHURN_WINDOW * CHURN_PACKETS_PER_FLOW,
            (Workload::ServiceChurn, Size::Tiny) => 3 * CHURN_WINDOW * CHURN_PACKETS_PER_FLOW,
            (Workload::Hbm2Fabric, Size::Full) => 48_000,
            (Workload::Hbm2Fabric, Size::Tiny) => 600,
        }
    }

    /// The parameters behind [`service_config`](Self::service_config)
    /// and [`inputs`](Self::inputs), as `(name, value)` pairs for the
    /// run record.
    pub fn params(self, size: Size) -> Vec<(&'static str, String)> {
        let n = self.round_len(size).to_string();
        match self {
            Workload::Ddr3Paper => vec![
                ("shards", "1".into()),
                ("memory", "ddr3-1600".into()),
                ("table", "prototype_8m".into()),
                ("offered_mhz_per_shard", "100".into()),
                ("preload_flows", DDR3_PRELOAD.to_string()),
                ("match_rate", DDR3_MATCH_RATE.to_string()),
                ("descs_per_round", n),
            ],
            Workload::ServiceChurn => vec![
                ("shards", "2".into()),
                ("buckets_per_mem", "256".into()),
                ("entries_per_bucket", "2".into()),
                ("cam_capacity", "64".into()),
                ("cam_high_water", "16".into()),
                ("idle_timeout_sys", CHURN_IDLE_TIMEOUT_SYS.to_string()),
                ("window_flows", CHURN_WINDOW.to_string()),
                ("window_shift", CHURN_SHIFT.to_string()),
                ("packets_per_flow", CHURN_PACKETS_PER_FLOW.to_string()),
                ("gap_sys", CHURN_GAP_SYS.to_string()),
                ("offered_mhz_per_shard", "100".into()),
                ("descs_per_round", n),
            ],
            Workload::Hbm2Fabric => vec![
                ("shards", HBM2_SHARDS.to_string()),
                ("executors", HBM2_EXECUTORS.to_string()),
                ("memory", "hbm2_2gbps".into()),
                ("offered_mhz_per_shard", "200".into()),
                ("zipf_flows", FABRIC_FLOWS.to_string()),
                ("zipf_exponent", FABRIC_EXPONENT.to_string()),
                ("descs_per_round", n),
            ],
        }
    }

    /// The service this workload runs.
    pub fn service_config(self) -> ServiceConfig {
        let engine = match self {
            Workload::Ddr3Paper => EngineConfig::prototype(1),
            Workload::ServiceChurn => {
                let shard = SimConfig {
                    table: TableConfig {
                        buckets_per_mem: 256,
                        entries_per_bucket: 2,
                        cam_capacity: 64,
                        entry_slot_bytes: 16,
                        hash_seed: 99,
                    },
                    expiry: Some(ExpiryPolicy {
                        idle_timeout_cycles: CHURN_IDLE_TIMEOUT_SYS,
                        scan_stride: 8,
                    }),
                    pressure: Some(PressurePolicy {
                        cam_high_water: 16,
                        scan_batch: 8,
                        victim_cap: 4096,
                    }),
                    ..SimConfig::test_small()
                };
                EngineConfig {
                    shard,
                    ..EngineConfig::prototype(2)
                }
            }
            Workload::Hbm2Fabric => {
                let mut cfg = EngineConfig::prototype(HBM2_SHARDS);
                cfg.shard.memory = MemorySpec::Hbm2(DramParams::hbm2_2gbps());
                cfg.input_rate_mhz = HBM2_SHARDS as f64 * 200.0;
                cfg.execution = ExecutionMode::Threaded(HBM2_EXECUTORS);
                cfg
            }
        };
        ServiceConfig::new(engine)
    }

    /// The seeded inputs of one round. `seq` numbers every descriptor by
    /// its position in the stream.
    pub fn inputs(self, size: Size, seed: u64) -> Inputs {
        let n = self.round_len(size);
        let mut inputs = match self {
            Workload::Ddr3Paper => {
                let set = MatchRateWorkload {
                    table_size: DDR3_PRELOAD,
                    queries: n,
                    match_rate: DDR3_MATCH_RATE,
                    seed,
                }
                .build();
                Inputs {
                    preload: set.preload,
                    epochs: vec![Epoch {
                        descs: set.queries,
                        gap_sys: 0,
                    }],
                }
            }
            Workload::ServiceChurn => {
                let salt = splitmix64(seed);
                let per_epoch = CHURN_WINDOW * CHURN_PACKETS_PER_FLOW;
                let epochs = (0..n / per_epoch)
                    .map(|e| {
                        let base = e * CHURN_SHIFT;
                        let mut descs = Vec::with_capacity(per_epoch);
                        for _ in 0..CHURN_PACKETS_PER_FLOW {
                            for f in base..base + CHURN_WINDOW {
                                let key = FlowKey::from(FiveTuple::from_index(f as u64 ^ salt));
                                descs.push(PacketDescriptor::new(0, key));
                            }
                        }
                        Epoch {
                            descs,
                            gap_sys: CHURN_GAP_SYS,
                        }
                    })
                    .collect();
                Inputs {
                    preload: Vec::new(),
                    epochs,
                }
            }
            Workload::Hbm2Fabric => {
                let profile = FabricTraceProfile {
                    flows: FABRIC_FLOWS,
                    exponent: FABRIC_EXPONENT,
                    seed,
                };
                Inputs {
                    preload: Vec::new(),
                    epochs: vec![Epoch {
                        descs: profile.generate(n),
                        gap_sys: 0,
                    }],
                }
            }
        };
        let mut seq = 0u64;
        for e in &mut inputs.epochs {
            for d in &mut e.descs {
                d.seq = seq;
                seq += 1;
            }
        }
        inputs
    }
}

/// A stretch of input offered back to back, then `gap_sys` idle cycles.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Descriptors, in stream order.
    pub descs: Vec<PacketDescriptor>,
    /// Idle cycles pumped after the epoch.
    pub gap_sys: u64,
}

/// Everything one round feeds the service.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Flows loaded into the table before the warm start.
    pub preload: Vec<FlowKey>,
    /// The descriptor stream.
    pub epochs: Vec<Epoch>,
}

impl Inputs {
    /// Descriptors in the stream.
    pub fn len(&self) -> u64 {
        self.epochs.iter().map(|e| e.descs.len() as u64).sum()
    }

    /// `true` when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stream, in order.
    pub fn descs(&self) -> impl Iterator<Item = &PacketDescriptor> {
        self.epochs.iter().flat_map(|e| e.descs.iter())
    }
}

/// SplitMix64 finaliser: spreads a seed over all 64 bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The warm-start checkpoint of a workload: an engine built from `cfg`,
/// preloaded and quiesced.
pub fn checkpoint(cfg: &ServiceConfig, preload: &[FlowKey]) -> Vec<u8> {
    cfg.validate()
        .expect("benchmark service configuration is valid");
    let mut engine = ShardedFlowLut::new(cfg.engine.clone());
    engine
        .preload(preload.iter().copied())
        .expect("preload fits the table");
    engine.quiesce();
    engine.checkpoint().expect("a quiesced engine checkpoints")
}

/// The timed set-up: configuration check, engine build, preload and
/// warm start of the service from the checkpoint. Returns the service
/// and the checkpoint it started from.
pub fn setup(cfg: &ServiceConfig, preload: &[FlowKey]) -> (FlowService, Vec<u8>) {
    let blob = checkpoint(cfg, preload);
    let svc = FlowService::restore(cfg.clone(), &blob).expect("checkpoint restores");
    (svc, blob)
}
