//! Outside-in replays for the traced run.
//!
//! Each replay feeds one layer, through its public functions, exactly
//! the input that layer saw in the traced end-to-end run, with a span
//! around every call. Nothing is traced inside the program, so the
//! difference between a layer's replay total and its children's replay
//! totals is that layer's own host time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use flowlut_cam::Cam;
use flowlut_core::backend::FlowPipeline;
use flowlut_core::{codec, FlowLutSim, HashCamTable, InsertError, PathId, SimConfig, SimStats};
use flowlut_ddr3::{MemRequest, MemStats};
use flowlut_engine::{ShardRouter, ShardedFlowLut};
use flowlut_hash::PairHasher;
use flowlut_service::ServiceConfig;
use flowlut_traffic::{FlowKey, PacketDescriptor};

use crate::drive::{Front, Op, Recorder};
use crate::workload::Inputs;

/// The engine driven directly through its `FlowPipeline` methods, with
/// `FlowService`'s ingest queue, intake credit and drain rule mirrored
/// outside it.
#[derive(Debug)]
pub struct EngineReplay<'r> {
    /// The replayed engine.
    pub engine: ShardedFlowLut,
    queue: VecDeque<PacketDescriptor>,
    depth: usize,
    pending: Option<PacketDescriptor>,
    accum: f64,
    rec: &'r mut Recorder,
    /// Pushes the splitter refused (each is one splitter stall cycle).
    pub refused_pushes: u64,
    /// Cycles advanced by `tick` outside the final drain.
    pub tick_cycles: u64,
    /// Cycles advanced by the final drain.
    pub drain_cycles: u64,
}

impl<'r> EngineReplay<'r> {
    /// Restores the engine from the workload's warm-start checkpoint.
    pub fn new(cfg: &ServiceConfig, blob: &[u8], rec: &'r mut Recorder) -> EngineReplay<'r> {
        EngineReplay {
            engine: ShardedFlowLut::restore(cfg.engine.clone(), blob)
                .expect("warm-start checkpoint restores"),
            queue: VecDeque::new(),
            depth: cfg.ingest_depth,
            pending: None,
            accum: 0.0,
            rec,
            refused_pushes: 0,
            tick_cycles: 0,
            drain_cycles: 0,
        }
    }
}

impl Front for EngineReplay<'_> {
    fn try_send(&mut self, desc: PacketDescriptor) -> bool {
        if self.queue.len() >= self.depth {
            return false;
        }
        self.queue.push_back(desc);
        true
    }

    /// `FlowService::pump`'s intake rule, call for call.
    fn pump(&mut self, cycles: u64) {
        let rate = self.engine.input_rate_per_cycle();
        let cap = self.engine.burst_cap();
        for _ in 0..cycles {
            self.accum = (self.accum + rate).min(cap);
            while self.accum >= 1.0 {
                let Some(desc) = self.pending.take().or_else(|| self.queue.pop_front()) else {
                    break;
                };
                let engine = &mut self.engine;
                if self.rec.span(Op::EnginePush, || engine.push(desc)) {
                    self.accum -= 1.0;
                } else {
                    self.refused_pushes += 1;
                    self.pending = Some(desc);
                    break;
                }
            }
            let engine = &mut self.engine;
            self.rec.span(Op::EngineTick, || engine.tick());
            self.tick_cycles += 1;
        }
    }

    /// `FlowService::drain`: pump until the queue is empty, then run the
    /// engine dry.
    fn drain(&mut self) {
        while !self.queue.is_empty() || self.pending.is_some() {
            self.pump(crate::workload::PUMP_SLICE);
        }
        let engine = &mut self.engine;
        let before = engine.now_sys();
        self.rec
            .span(Op::EngineDrain, || FlowPipeline::drain(engine));
        self.drain_cycles = self.engine.now_sys() - before;
    }
}

/// What one shard did in the end-to-end run: its input schedule, its
/// counters and its final cycle.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// `(t_offer, descriptor)` in the order the shard accepted them.
    pub offers: Vec<(u64, PacketDescriptor)>,
    /// Cumulative counters at the end of the run.
    pub stats: SimStats,
    /// Final cycle.
    pub now_sys: u64,
}

/// What a per-shard simulator replay did.
#[derive(Debug, Clone)]
pub struct SimReplay {
    /// Counters at the end of the replay.
    pub stats: SimStats,
    /// Final cycle.
    pub now_sys: u64,
    /// Cycles ticked.
    pub ticks: u64,
    /// Ticks on an empty pipeline with nothing offered.
    pub idle_ticks: u64,
    /// Statistics of the shard's two memories.
    pub mem: [MemStats; 2],
}

/// A standalone shard simulator in the state the engine's warm start
/// gives that shard: `keys` preloaded, checkpointed and restored.
pub fn warm_sim(cfg: &SimConfig, keys: Vec<FlowKey>) -> FlowLutSim {
    let mut sim = FlowLutSim::new(cfg.clone());
    sim.preload(keys).expect("preload fits the shard");
    sim.quiesce();
    let blob = sim.checkpoint().expect("a quiesced simulator checkpoints");
    FlowLutSim::restore(cfg.clone(), &blob).expect("checkpoint restores")
}

/// Feeds `sim` the shard's exact input schedule, offering each
/// descriptor on the cycle it was offered in the end-to-end run, and
/// ticks it to the run's final cycle.
pub fn replay_sim(mut sim: FlowLutSim, run: &ShardRun, rec: &mut Recorder) -> SimReplay {
    let mut next = 0;
    let mut ticks = 0;
    let mut idle_ticks = 0;
    while sim.now_sys() < run.now_sys {
        let now = sim.now_sys();
        let was_empty = sim.in_pipeline() == 0;
        let mut offered = false;
        while let Some(&(t, desc)) = run.offers.get(next) {
            if t != now {
                break;
            }
            let accepted = rec.span(Op::SimOffer, || sim.offer(desc));
            assert!(accepted, "replayed offer refused on cycle {now}");
            offered = true;
            next += 1;
        }
        let idle = was_empty && !offered;
        let op = if idle {
            Op::SimIdleTick
        } else {
            Op::SimBusyTick
        };
        rec.span(op, || sim.tick());
        ticks += 1;
        idle_ticks += u64::from(idle);
    }
    assert_eq!(next, run.offers.len(), "replay ended with offers left");
    let stats = *sim.stats();
    let now_sys = sim.now_sys();
    // An empty run reports the memories' statistics without ticking.
    let mem = sim.run(&[]).mem_stats;
    SimReplay {
        stats,
        now_sys,
        ticks,
        idle_ticks,
        mem,
    }
}

/// Feeds one standalone memory model the shard's bucket bursts at the
/// read and write rates `replay` issued per cycle, for as many cycles.
pub fn replay_memory(cfg: &SimConfig, run: &ShardRun, replay: &SimReplay, rec: &mut Recorder) {
    let mut mem = cfg.build_memory();
    let burst_bytes = cfg.mem_burst_bytes();
    let bursts = u64::from(cfg.table.bursts_per_bucket(burst_bytes));
    let ticks_per_sys = cfg.mem_ticks_per_sys();
    let table = HashCamTable::new(cfg.table);
    let addrs: Vec<u64> = run
        .offers
        .iter()
        .flat_map(|(_, d)| {
            let bucket = u64::from(table.hash_pair(&d.key).0);
            (0..bursts).map(move |j| bucket * bursts + j)
        })
        .collect();
    if addrs.is_empty() {
        return;
    }
    // Each shard spreads its bursts over two memories; this one takes
    // half of them.
    let cycles = replay.ticks.max(1) as f64;
    let read_rate = replay.stats.reads_issued as f64 / 2.0 / cycles;
    let write_rate = replay.stats.writes_issued as f64 / 2.0 / cycles;
    let payload = vec![0u8; burst_bytes];
    let (mut reads, mut writes) = (0.0f64, 0.0f64);
    let (mut next_read, mut next_write, mut id) = (0usize, addrs.len() / 2, 0u64);
    let mut pending: Option<MemRequest> = None;
    for _ in 0..replay.ticks {
        reads += read_rate;
        writes += write_rate;
        loop {
            let req = match pending.take() {
                Some(r) => r,
                None if reads >= 1.0 => {
                    reads -= 1.0;
                    next_read = (next_read + 1) % addrs.len();
                    MemRequest::read(id, addrs[next_read])
                }
                None if writes >= 1.0 => {
                    writes -= 1.0;
                    next_write = (next_write + 1) % addrs.len();
                    MemRequest::write(id, addrs[next_write], payload.clone())
                }
                None => break,
            };
            let start = Instant::now();
            let result = mem.enqueue(req.clone());
            rec.push(Op::MemEnqueue, 1, start, Instant::now());
            if result.is_err() {
                pending = Some(req);
                break;
            }
            id += 1;
        }
        for _ in 0..ticks_per_sys {
            rec.span(Op::MemTick, || mem.tick());
        }
    }
}

/// Replays the key stream through the functional layers: the hash pair,
/// the table, the CAM, the bucket codec and the shard router.
pub fn replay_functional(
    cfg: &ServiceConfig,
    inputs: &Inputs,
    cam_high_water: u64,
    rec: &mut Recorder,
) {
    let tcfg = cfg.engine.shard.table;
    let keys: Vec<FlowKey> = inputs.descs().map(|d| d.key).collect();
    let n = keys.len() as u32;

    let hasher = PairHasher::h3_pair(8 * (tcfg.entry_slot_bytes - 1), tcfg.hash_seed);
    rec.span_n(Op::HashPair, n, || {
        for k in &keys {
            black_box(hasher.hashes(black_box(k.as_bytes())));
        }
    });

    let router = ShardRouter::new(cfg.engine.shards, cfg.engine.router_seed);
    rec.span_n(Op::Route, n, || {
        for k in &keys {
            black_box(router.route(black_box(k)));
        }
    });

    // The table sees the stream as one shard would: lookup, insert on a
    // miss, and when full delete the oldest resident flow first.
    let mut table = HashCamTable::new(tcfg);
    let mut resident: VecDeque<FlowKey> = VecDeque::new();
    for &k in &inputs.preload {
        table.insert(k).expect("preload fits the table");
        resident.push_back(k);
    }
    for k in &keys {
        if rec.span(Op::TableLookup, || table.lookup(k)).is_some() {
            continue;
        }
        loop {
            match rec.span(Op::TableInsert, || table.insert(*k)) {
                Ok(_) => break,
                Err(InsertError::TableFull) => {
                    let victim = resident.pop_front().expect("a full table has residents");
                    rec.span(Op::TableDelete, || table.delete(&victim));
                }
                Err(e) => panic!("functional insert after a miss failed: {e}"),
            }
        }
        resident.push_back(*k);
    }

    // The codec works on the buckets the stream's keys hash to, as the
    // table holds them at the end of the stream.
    let slot = tcfg.entry_slot_bytes;
    let entries = usize::from(tcfg.entries_per_bucket);
    let total = tcfg.bursts_per_bucket(cfg.engine.shard.mem_burst_bytes()) as usize
        * cfg.engine.shard.mem_burst_bytes();
    let buckets: Vec<_> = keys
        .iter()
        .map(|k| table.bucket_slots(PathId::A, table.hash_pair(k).0))
        .collect();
    let mut buf = Vec::with_capacity(total);
    rec.span_n(Op::CodecSerialize, n, || {
        for slots in &buckets {
            codec::serialize_bucket_into(&mut buf, black_box(slots), slot, total);
            black_box(&buf);
        }
    });
    let bytes: Vec<u8> = buckets
        .iter()
        .flat_map(|slots| codec::serialize_bucket(slots, slot, total))
        .collect();
    rec.span_n(Op::CodecFindKey, n, || {
        for (k, b) in keys.iter().zip(bytes.chunks_exact(total)) {
            black_box(codec::find_key(black_box(b), slot, entries, k));
        }
    });

    for victim in resident.drain(..) {
        rec.span(Op::TableDelete, || table.delete(&victim));
    }

    // The CAM filled to the run's high-water mark, searched for every key.
    let mut cam: Cam<FlowKey> = Cam::new(tcfg.cam_capacity);
    let fill = (cam_high_water.max(1) as usize).min(tcfg.cam_capacity);
    let mut seen = std::collections::HashSet::new();
    for k in keys.iter().filter(|k| seen.insert(**k)).take(fill) {
        cam.insert(*k).expect("fill stays within capacity");
    }
    rec.span_n(Op::CamSearch, n, || {
        for k in &keys {
            black_box(cam.search(black_box(k)));
        }
    });
}
