//! Host-time benchmark of the flow service.
//!
//! A timed run drives one workload end to end through `FlowService`
//! (service → engine → simulator → memory model) in rounds: each round
//! warm-starts a fresh service and feeds it the same seeded input, until
//! the measured phases have lasted the requested time. Set-up is timed
//! on its own, before the rounds. It reports host time, set-up time,
//! peak memory and the simulated results, and fails when the
//! correctness gate finds a wrong output.
//!
//! A traced run measures each layer from outside: spans around the
//! end-to-end calls, then replays of the same input into the engine,
//! each shard's simulator, a standalone memory model and the functional
//! layers, each replay cross-checked against the end-to-end run.
//!
//! Every `host_*` metric and every `*_ns` per-layer timing is host wall
//! time; every `sim_*` metric is modelled hardware time.

use std::time::{Duration, Instant};

use flowlut_core::backend::{FlowPipeline, SessionProgress};
use flowlut_core::SimStats;
use flowlut_engine::ShardRouter;
use flowlut_service::ServiceConfig;
use flowlut_traffic::FlowKey;

pub mod drive;
pub mod gate;
pub mod replay;
pub mod report;
pub mod workload;

use drive::{drive, Op, Plain, Recorder, Segmented, Traced};
use gate::{Observed, Verdict};
use replay::{EngineReplay, ShardRun, SimReplay};
use report::{json_str, median, metric, p50, tail, Metric};
use workload::{Inputs, Size, Workload};

/// End-to-end metrics of a timed run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_ns_per_desc", "ns"),
    ("host_ns_per_cycle", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mdesc_per_s", "Mdesc/sim_s"),
    ("sim_latency_mean_ns", "sim_ns"),
    ("sim_latency_tail_ns", "sim_ns"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("service.try_send_ns", "ns"),
    ("service.refused_frac", "ratio"),
    ("service.pump_ns_per_cycle", "ns"),
    ("service.self_ns_per_desc", "ns"),
    ("engine.push_ns", "ns"),
    ("engine.route_ns", "ns"),
    ("engine.tick_ns_per_cycle", "ns"),
    ("engine.tick_tail_ns", "ns"),
    ("engine.self_ns_per_cycle", "ns"),
    ("engine.splitter_stall_cycles", "count"),
    ("engine.imbalance", "ratio"),
    ("sim.offer_ns", "ns"),
    ("sim.busy_tick_ns", "ns"),
    ("sim.idle_tick_ns", "ns"),
    ("sim.idle_cycle_frac", "ratio"),
    ("sim.cam_hits", "count"),
    ("sim.lu1_hits", "count"),
    ("sim.lu2_hits", "count"),
    ("sim.inserted_mem", "count"),
    ("sim.inserted_cam", "count"),
    ("sim.duplicate_races", "count"),
    ("sim.reads_issued", "count"),
    ("sim.writes_issued", "count"),
    ("sim.same_key_holds", "count"),
    ("sim.input_stall_cycles", "count"),
    ("sim.filter_hold_cycles", "count"),
    ("sim.deletes", "count"),
    ("sim.expired_ttl", "count"),
    ("sim.pressure_evicted", "count"),
    ("sim.lu1_hit_share", "ratio"),
    ("sim.reads_per_desc", "ratio"),
    ("sim.latency_p50_ns", "sim_ns"),
    ("sim.admit_wait_p50_ns", "sim_ns"),
    ("sim.lookup_p50_ns", "sim_ns"),
    ("memory.tick_ns", "ns"),
    ("memory.enqueue_ns", "ns"),
    ("memory.row_hit_rate", "ratio"),
    ("memory.dq_utilization", "ratio"),
    ("memory.rejected_frac", "ratio"),
    ("memory.mean_latency_cycles", "mem_cycles"),
    ("memory.activates", "count"),
    ("hash.pair_ns", "ns"),
    ("table.lookup_ns", "ns"),
    ("table.insert_ns", "ns"),
    ("table.delete_ns", "ns"),
    ("table.cam_high_water", "count"),
    ("cam.search_ns", "ns"),
    ("codec.find_key_ns", "ns"),
    ("codec.serialize_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// A timed run measures whole rounds; it runs at least this many.
const MIN_ROUNDS: usize = 3;

/// A timed run first samples the set-up this many times, or for this
/// long, whichever ends first.
const SETUP_SAMPLES: usize = 30;
const SETUP_SAMPLING: Duration = Duration::from_secs(2);

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// `true` when every output was correct.
    pub correct: bool,
    /// Descriptors offered.
    pub attempted: u64,
    /// Descriptors (and run-level invariants) that failed.
    pub failed: u64,
    /// The metrics, in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
}

/// Per-descriptor simulated latencies of a finished round, in cycles:
/// `(offer → done, offer → admit, admit → done)`, each sorted.
fn latencies(obs: &Observed) -> [Vec<u64>; 3] {
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for d in &obs.descs {
        if let Some(done) = d.t_done {
            out[0].push(done - d.t_offer);
            out[1].push(d.t_admit - d.t_offer);
            out[2].push(done - d.t_admit);
        }
    }
    for v in &mut out {
        v.sort_unstable();
    }
    out
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn verdict_notes(v: &Verdict, notes: &mut Vec<String>) {
    notes.push(format!(
        "gate: {} offered, {} dropped, {} never completed, {} wrong, {} invariants broken",
        v.offered, v.dropped, v.never_completed, v.wrong, v.broken
    ));
    notes.extend(v.problems.iter().map(|p| format!("gate problem: {p}")));
}

/// One timed run of `w`: set-up samples, then rounds of set-up plus
/// measured phase until the measured phases add up to `seconds`. Host
/// time is the sum of each stream segment's fastest time, set-up is the
/// median sample, and peak memory is the high-water mark after the first
/// round.
pub fn timed(w: Workload, size: Size, seed: u64, seconds: f64) -> Outcome {
    let inputs = w.inputs(size, seed);
    let cfg = w.service_config();
    let expect = gate::expected(&inputs);
    let period_ns = cfg.engine.sys_period_ns();
    let offered = inputs.len();

    let mut ns_per_desc = Vec::new();
    let mut measured = Duration::ZERO;
    let mut first: Option<(SimStats, u64)> = None;
    let mut verdict = Verdict::default();
    let mut diverged = 0u64;
    let mut sim = Vec::new();
    let mut notes = Vec::new();
    // Set-up is short next to a round: sample it on its own, back to
    // back, so its median rests on enough samples taken alike.
    let mut setup_s = Vec::new();
    let sampling = Instant::now();
    while setup_s.len() < SETUP_SAMPLES && sampling.elapsed() < SETUP_SAMPLING {
        let t = Instant::now();
        drop(workload::setup(&cfg, &inputs.preload));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rounds = 0usize;
    let mut peak_rss = 0.0;
    let mut best: Vec<u64> = Vec::new();
    while rounds < MIN_ROUNDS || measured.as_secs_f64() < seconds {
        rounds += 1;
        let (svc, _) = workload::setup(&cfg, &inputs.preload);

        let fids = if first.is_none() {
            gate::preload_fids(&svc, &inputs.preload)
        } else {
            Default::default()
        };
        let start = svc.poll();
        let mut front = Segmented::new(svc);
        drive(&inputs, &mut front);
        let segments = front.segments_ns();
        let wall = Duration::from_nanos(segments.iter().sum());
        measured += wall;
        if best.is_empty() {
            best = segments;
        } else {
            for (b, s) in best.iter_mut().zip(segments) {
                *b = (*b).min(s);
            }
        }

        if first.is_none() {
            // The first round's high-water mark, taken before the gate
            // copies anything: later rounds only add allocator
            // fragmentation, which grows with their number and so with
            // host speed.
            peak_rss = peak_rss_mb();
        }
        let (svc, out) = front.inner.finish();
        let end = svc.poll();
        let stats = end.stats.delta_since(&start.stats);
        let cycles = end.now_sys - start.now_sys;
        ns_per_desc.push(wall.as_nanos() as f64 / stats.completed.max(1) as f64);
        match first {
            None => {
                let obs = Observed::collect(&svc, &start, fids, out);
                verdict = gate::check(w, &inputs, &obs, &expect);
                let [total, _, _] = latencies(&obs);
                let (label, tail_cycles) = tail(&total);
                let deciles: Vec<u64> = (1..10)
                    .filter_map(|d| total.get(total.len() * d / 10).copied())
                    .collect();
                notes.push(format!(
                    "sim latency: {} samples, tail is {label}, p50 {} sim_ns; deciles in cycles \
                     {deciles:?}",
                    total.len(),
                    p50(&total) as f64 * period_ns
                ));
                sim = vec![
                    metric(
                        "sim_mdesc_per_s",
                        "Mdesc/sim_s",
                        stats.completed as f64 / (cycles as f64 * period_ns) * 1e3,
                    ),
                    metric(
                        "sim_latency_mean_ns",
                        "sim_ns",
                        total.iter().sum::<u64>() as f64 / total.len().max(1) as f64 * period_ns,
                    ),
                    metric(
                        "sim_latency_tail_ns",
                        "sim_ns",
                        tail_cycles as f64 * period_ns,
                    ),
                ];
                first = Some((stats, cycles));
            }
            Some(f) if f != (stats, cycles) => {
                diverged += 1;
                notes.push(format!(
                    "round {rounds} diverged from round 1 on identical input"
                ));
            }
            Some(_) => {}
        }
    }

    let rounds = rounds as u64;
    let failed = verdict.failed() + diverged;
    let ok_frac = 1.0 - (verdict.failed().min(offered) as f64 / offered.max(1) as f64);
    verdict_notes(&verdict, &mut notes);
    notes.push(format!(
        "rounds: {rounds} of {offered} descriptors; measured {:.3} s; failed_frac {} ratio",
        measured.as_secs_f64(),
        1.0 - ok_frac
    ));
    notes.push(format!(
        "host ns/desc by round: {ns_per_desc:.0?}, median {:.0}",
        median(&ns_per_desc)
    ));
    notes.push(format!("set-up s by sample: {setup_s:.6?}"));
    // Host time sums, over the fixed segments of the stream, each
    // segment's fastest time in any round. Interference on a shared host
    // only ever slows work down and comes and goes within a round, so
    // this is steady where the median round moves with the load a run
    // happens to meet.
    let (completed, cycles) = first.map_or((0, 0), |(s, c)| (s.completed, c));
    let best_ns = best.iter().sum::<u64>() as f64;
    let mut metrics = vec![
        metric("host_ns_per_desc", "ns", best_ns / completed.max(1) as f64),
        metric("host_ns_per_cycle", "ns", best_ns / cycles.max(1) as f64),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss),
    ];
    metrics.extend(sim);
    metrics.push(metric("ok_frac", "ratio", ok_frac));
    Outcome {
        correct: failed == 0,
        attempted: offered * rounds,
        failed,
        metrics,
        notes,
        spans: None,
    }
}

/// Sums the memory statistics of every replayed shard and path into the
/// `memory.*` model metrics.
fn memory_model_metrics(replays: &[SimReplay], ticks_per_sys: u32) -> Vec<Metric> {
    let (mut col, mut hits, mut dq, mut act) = (0u64, 0u64, 0u64, 0u64);
    let (mut accepted, mut rejected, mut lat, mut done) = (0u64, 0u64, 0u64, 0u64);
    let mut elapsed = 0u64;
    for r in replays {
        for m in &r.mem {
            col += m.device.reads + m.device.writes;
            hits += m.device.row_hits;
            dq += m.device.dq_busy_cycles;
            act += m.device.activates;
            accepted += m.controller.accepted;
            rejected += m.controller.rejected;
            lat += m.controller.total_latency_cycles;
            done += m.controller.reads_done + m.controller.writes_done;
            elapsed += r.ticks * u64::from(ticks_per_sys);
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        metric("memory.row_hit_rate", "ratio", ratio(hits, col)),
        metric("memory.dq_utilization", "ratio", ratio(dq, elapsed)),
        metric(
            "memory.rejected_frac",
            "ratio",
            ratio(rejected, accepted + rejected),
        ),
        metric("memory.mean_latency_cycles", "mem_cycles", ratio(lat, done)),
        metric("memory.activates", "count", act as f64),
    ]
}

/// Repetitions of the traced run's paired phases; self times and the
/// tracing overhead are medians over them.
const TRACE_REPS: usize = 3;

/// What one traced end-to-end round left behind.
struct TracedRound {
    verdict: Verdict,
    obs: Observed,
    end: SessionProgress,
    runs: Vec<ShardRun>,
    executors: usize,
    cam_high_water: u64,
    pump_cycles: u64,
    wall_s: f64,
}

fn traced_round(
    w: Workload,
    cfg: &ServiceConfig,
    inputs: &Inputs,
    expect: &[gate::Expect],
    rec: &mut Recorder,
) -> TracedRound {
    let (svc, _) = workload::setup(cfg, &inputs.preload);
    let fids = gate::preload_fids(&svc, &inputs.preload);
    let start = svc.poll();
    let mut front = Traced::new(svc, rec);
    let t = Instant::now();
    drive(inputs, &mut front);
    let wall_s = t.elapsed().as_secs_f64();
    let (cam_high_water, pump_cycles) = (front.cam_high_water, front.pump_cycles);
    let (svc, out) = front.inner.finish();
    let obs = Observed::collect(&svc, &start, fids, out);
    let verdict = gate::check(w, inputs, &obs, expect);
    let engine = svc.engine();
    let runs = (0..engine.shard_count())
        .map(|s| {
            let sim = engine.shard(s);
            ShardRun {
                offers: sim
                    .descriptors()
                    .iter()
                    .map(|d| (d.t_offer, d.desc))
                    .collect(),
                stats: *sim.stats(),
                now_sys: sim.now_sys(),
            }
        })
        .collect();
    TracedRound {
        verdict,
        obs,
        end: svc.poll(),
        runs,
        executors: engine.executor_count(),
        cam_high_water,
        pump_cycles,
        wall_s,
    }
}

/// The engine replay: its final progress, refused pushes and cycles.
fn engine_replay(
    cfg: &ServiceConfig,
    blob: &[u8],
    inputs: &Inputs,
    rec: &mut Recorder,
) -> (SessionProgress, u64, u64) {
    let mut replay = EngineReplay::new(cfg, blob, rec);
    drive(inputs, &mut replay);
    (
        FlowPipeline::poll(&replay.engine),
        replay.refused_pushes,
        replay.tick_cycles + replay.drain_cycles,
    )
}

/// The per-shard simulator replays, each from the shard's warm start.
fn sim_replays(
    cfg: &ServiceConfig,
    inputs: &Inputs,
    runs: &[ShardRun],
    rec: &mut Recorder,
) -> Vec<SimReplay> {
    let router = ShardRouter::new(cfg.engine.shards, cfg.engine.router_seed);
    let mut shard_keys: Vec<Vec<FlowKey>> = vec![Vec::new(); cfg.engine.shards];
    for k in &inputs.preload {
        shard_keys[router.route(k)].push(*k);
    }
    runs.iter()
        .zip(shard_keys)
        .map(|(run, keys)| replay::replay_sim(replay::warm_sim(&cfg.engine.shard, keys), run, rec))
        .collect()
}

/// Net ns of `ops` in `rec`, summed.
fn total_ns(rec: &Recorder, ops: &[Op]) -> f64 {
    ops.iter().map(|&op| rec.total(op).0 as f64).sum()
}

const SERVICE_OPS: [Op; 4] = [
    Op::TrySendAccepted,
    Op::TrySendRefused,
    Op::Pump,
    Op::ServiceDrain,
];
const ENGINE_OPS: [Op; 3] = [Op::EnginePush, Op::EngineTick, Op::EngineDrain];
const SIM_OPS: [Op; 3] = [Op::SimOffer, Op::SimBusyTick, Op::SimIdleTick];

/// The traced run of `w`. After a warm-up round it repeats, paired, an
/// untraced round, a traced round, the engine replay and the per-shard
/// simulator replays; then it replays the memory model and the
/// functional layers once. Every replay is cross-checked against the
/// end-to-end run it mirrors.
pub fn traced(w: Workload, size: Size, seed: u64) -> Outcome {
    let inputs = w.inputs(size, seed);
    let cfg = w.service_config();
    let expect = gate::expected(&inputs);
    let period_ns = cfg.engine.sys_period_ns();
    let offered = inputs.len();
    let blob = workload::checkpoint(&cfg, &inputs.preload);
    let untraced_round = || {
        let (svc, _) = workload::setup(&cfg, &inputs.preload);
        let mut plain = Plain::new(svc);
        let t = Instant::now();
        drive(&inputs, &mut plain);
        t.elapsed().as_secs_f64()
    };
    untraced_round();

    // Repetition 0 keeps its spans; later ones only their totals.
    let mut rec = Recorder::default();
    let mut first: Option<TracedRound> = None;
    let mut engine_out = (0, 0);
    let mut sims = Vec::new();
    let (mut untraced, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut service_self, mut engine_self) = (Vec::new(), Vec::new());
    let mut diverged = Vec::new();
    for rep in 0..TRACE_REPS {
        let mut scratch = Recorder::default();
        let r = if rep == 0 { &mut rec } else { &mut scratch };
        untraced.push(untraced_round());
        let round = traced_round(w, &cfg, &inputs, &expect, r);
        traced_wall.push(round.wall_s);
        let eng = engine_replay(&cfg, &blob, &inputs, r);
        if eng.0.stats != round.end.stats || eng.0.now_sys != round.end.now_sys {
            diverged.push(format!(
                "engine replay {rep} diverged from the end-to-end run"
            ));
        }
        let shard_replays = sim_replays(&cfg, &inputs, &round.runs, r);
        for (s, (sr, run)) in shard_replays.iter().zip(&round.runs).enumerate() {
            if sr.stats != run.stats || sr.now_sys != run.now_sys {
                diverged.push(format!("simulator replay {rep} of shard {s} diverged"));
            }
        }
        if let Some(f) = &first {
            if f.end.stats != round.end.stats || f.end.now_sys != round.end.now_sys {
                diverged.push(format!("traced round {rep} diverged from round 0"));
            }
        }
        let (service_ns, engine_ns, sim_ns) = (
            total_ns(r, &SERVICE_OPS),
            total_ns(r, &ENGINE_OPS),
            total_ns(r, &SIM_OPS),
        );
        service_self.push((service_ns - engine_ns) / offered.max(1) as f64);
        // The shards' simulator work is split across the executors.
        engine_self.push((engine_ns - sim_ns / round.executors as f64) / eng.2.max(1) as f64);
        if rep == 0 {
            first = Some(round);
            engine_out = (eng.1, eng.2);
            sims = shard_replays;
        }
    }
    let round = first.expect("at least one repetition");
    replay::replay_memory(&cfg.engine.shard, &round.runs[0], &sims[0], &mut rec);
    replay::replay_functional(&cfg, &inputs, round.cam_high_water, &mut rec);

    // Per-layer numbers.
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let sends = rec.total(Op::TrySendAccepted).1 + rec.total(Op::TrySendRefused).1;
    let refused = rec.total(Op::TrySendRefused).1;
    let (splitter_stalls, engine_cycles) = engine_out;
    let mut ticks = rec.durations(Op::EngineTick);
    ticks.sort_unstable();
    let (tail_label, tick_tail) = tail(&ticks);
    let sim_ticks: u64 = sims.iter().map(|r| r.ticks).sum();
    let idle_ticks: u64 = sims.iter().map(|r| r.idle_ticks).sum();
    let completed: Vec<f64> = round
        .runs
        .iter()
        .map(|r| r.stats.completed as f64)
        .collect();
    let mean_completed = completed.iter().sum::<f64>() / completed.len() as f64;
    let s = round.obs.stats;
    let [total, admit, lookup] = latencies(&round.obs);

    let mut metrics = vec![
        metric(
            "service.try_send_ns",
            "ns",
            per(total_ns(&rec, &SERVICE_OPS[..2]), sends),
        ),
        metric("service.refused_frac", "ratio", per(refused as f64, sends)),
        metric(
            "service.pump_ns_per_cycle",
            "ns",
            per(total_ns(&rec, &[Op::Pump]), round.pump_cycles),
        ),
        metric("service.self_ns_per_desc", "ns", median(&service_self)),
        metric("engine.push_ns", "ns", rec.mean(Op::EnginePush)),
        metric("engine.route_ns", "ns", rec.mean(Op::Route)),
        metric(
            "engine.tick_ns_per_cycle",
            "ns",
            per(total_ns(&rec, &ENGINE_OPS[1..]), engine_cycles),
        ),
        metric("engine.tick_tail_ns", "ns", tick_tail as f64),
        metric("engine.self_ns_per_cycle", "ns", median(&engine_self)),
        metric(
            "engine.splitter_stall_cycles",
            "count",
            splitter_stalls as f64,
        ),
        metric(
            "engine.imbalance",
            "ratio",
            completed.iter().copied().fold(0.0, f64::max) / mean_completed.max(1.0),
        ),
        metric("sim.offer_ns", "ns", rec.mean(Op::SimOffer)),
        metric("sim.busy_tick_ns", "ns", rec.mean(Op::SimBusyTick)),
        metric("sim.idle_tick_ns", "ns", rec.mean(Op::SimIdleTick)),
        metric(
            "sim.idle_cycle_frac",
            "ratio",
            per(idle_ticks as f64, sim_ticks),
        ),
    ];
    for (name, v) in [
        ("sim.cam_hits", s.cam_hits),
        ("sim.lu1_hits", s.lu1_hits),
        ("sim.lu2_hits", s.lu2_hits),
        ("sim.inserted_mem", s.inserted_mem),
        ("sim.inserted_cam", s.inserted_cam),
        ("sim.duplicate_races", s.duplicate_races),
        ("sim.reads_issued", s.reads_issued),
        ("sim.writes_issued", s.writes_issued),
        ("sim.same_key_holds", s.same_key_holds),
        ("sim.input_stall_cycles", s.input_stall_cycles),
        ("sim.filter_hold_cycles", s.filter_hold_cycles),
        ("sim.deletes", s.deletes),
        ("sim.expired_ttl", s.expired_ttl),
        ("sim.pressure_evicted", s.pressure_evicted),
    ] {
        metrics.push(metric(name, "count", v as f64));
    }
    metrics.extend([
        metric(
            "sim.lu1_hit_share",
            "ratio",
            per(s.lu1_hits as f64, s.lu1_hits + s.lu2_hits),
        ),
        metric(
            "sim.reads_per_desc",
            "ratio",
            per(s.reads_issued as f64, s.completed),
        ),
        metric(
            "sim.latency_p50_ns",
            "sim_ns",
            p50(&total) as f64 * period_ns,
        ),
        metric(
            "sim.admit_wait_p50_ns",
            "sim_ns",
            p50(&admit) as f64 * period_ns,
        ),
        metric(
            "sim.lookup_p50_ns",
            "sim_ns",
            p50(&lookup) as f64 * period_ns,
        ),
        metric("memory.tick_ns", "ns", rec.mean(Op::MemTick)),
        metric("memory.enqueue_ns", "ns", rec.mean(Op::MemEnqueue)),
    ]);
    metrics.extend(memory_model_metrics(
        &sims,
        cfg.engine.shard.mem_ticks_per_sys(),
    ));
    metrics.extend([
        metric("hash.pair_ns", "ns", rec.mean(Op::HashPair)),
        metric("table.lookup_ns", "ns", rec.mean(Op::TableLookup)),
        metric("table.insert_ns", "ns", rec.mean(Op::TableInsert)),
        metric("table.delete_ns", "ns", rec.mean(Op::TableDelete)),
        metric("table.cam_high_water", "count", round.cam_high_water as f64),
        metric("cam.search_ns", "ns", rec.mean(Op::CamSearch)),
        metric("codec.find_key_ns", "ns", rec.mean(Op::CodecFindKey)),
        metric("codec.serialize_ns", "ns", rec.mean(Op::CodecSerialize)),
        metric(
            "trace.overhead_frac",
            "ratio",
            median(&traced_wall) / median(&untraced) - 1.0,
        ),
    ]);

    let mut verdict = round.verdict;
    verdict.broken += diverged.len() as u64;
    verdict.problems.extend(diverged);
    let mut notes = Vec::new();
    verdict_notes(&verdict, &mut notes);
    notes.push(format!(
        "{TRACE_REPS} repetitions: traced rounds {traced_wall:.3?} s, untraced {untraced:.3?} s; \
         service self {service_self:.0?} ns/desc, engine self {engine_self:.0?} ns/cycle"
    ));
    notes.push(format!(
        "engine tick tail is {tail_label} of {} ticks; span clock cost {} ns, taken off every \
         span",
        ticks.len(),
        rec.empty_ns
    ));
    Outcome {
        correct: verdict.ok(),
        attempted: offered,
        failed: verdict.failed(),
        metrics,
        notes,
        spans: Some(rec),
    }
}

/// What each workload is for and which end-to-end metric each of its
/// layer metrics should move, as JSON (`hostbench/workloads.json`).
pub fn describe() -> String {
    type Moves = &'static [(&'static str, &'static str)];
    let links: [(Workload, &str, Moves); 3] = [
        (
            Workload::Ddr3Paper,
            "Table II(B): read-dominant and saturating; busy ticks, the DDR3 controller, hash, \
             table and codec carry the cost while splitter, pool and lifecycle scans idle",
            &[
                ("sim.busy_tick_ns", "host_ns_per_desc"),
                ("hash.pair_ns", "host_ns_per_desc (all three workloads a little)"),
                ("table.lookup_ns", "host_ns_per_desc"),
                ("table.insert_ns", "host_ns_per_desc"),
                ("codec.find_key_ns", "host_ns_per_desc"),
                ("codec.serialize_ns", "host_ns_per_desc"),
                ("memory.tick_ns", "host_ns_per_desc"),
                ("memory.enqueue_ns", "host_ns_per_desc"),
                ("engine.*", "no change: 1 shard inline, no pool"),
                ("service.*", "no change: lifecycle off, queue nearly free"),
                (
                    "sim.* counters, memory.* model rates",
                    "sim_mdesc_per_s, sim_latency_*; identical under a host-only change",
                ),
            ],
        ),
        (
            Workload::ServiceChurn,
            "write-heavy lifecycle: inserts, expiry and eviction deletes and bucket writes, \
             plus the ingest queue and lifecycle scans",
            &[
                ("service.try_send_ns", "host_ns_per_desc"),
                ("service.refused_frac", "host_ns_per_desc"),
                ("service.pump_ns_per_cycle", "host_ns_per_desc"),
                ("service.self_ns_per_desc", "host_ns_per_desc"),
                ("table.delete_ns", "host_ns_per_desc"),
                ("table.cam_high_water", "host_ns_per_desc"),
                ("descriptor slab (FlowLutSim::descs never shrinks)", "peak_rss_mb"),
                (
                    "sim.* counters, memory.* model rates",
                    "sim_mdesc_per_s, sim_latency_*; identical under a host-only change",
                ),
                (
                    "predicted no change",
                    "ddr3_paper, hbm2_fabric: lifecycle policies off, queue nearly free",
                ),
            ],
        ),
        (
            Workload::Hbm2Fabric,
            "the only multi-shard, threaded workload: splitter, router and pool barrier, with \
             Zipf skew creating same-key holds; idle HBM2 memory ticks dominate. Not listed in \
             BENCHMARK.json: on a shared 2-vCPU host its host time moved 31-35% (IQR over \
             median) between runs; run it by name",
            &[
                ("sim.idle_tick_ns", "host_ns_per_cycle, host_ns_per_desc"),
                ("sim.idle_cycle_frac", "host_ns_per_cycle, host_ns_per_desc"),
                ("memory.tick_ns", "host_ns_per_cycle, host_ns_per_desc"),
                ("engine.self_ns_per_cycle", "host_ns_per_desc"),
                ("engine.tick_ns_per_cycle", "host_ns_per_desc"),
                ("engine.tick_tail_ns", "host_ns_per_desc (barrier stalls)"),
                ("engine.push_ns", "host_ns_per_desc"),
                ("engine.route_ns", "host_ns_per_desc"),
                (
                    "sim.* counters, memory.* model rates",
                    "sim_mdesc_per_s, sim_latency_*; identical under a host-only change",
                ),
                (
                    "predicted no change",
                    "ddr3_paper: an idle DDR3 memory tick costs about 15 ns; 1 shard inline, no pool",
                ),
            ],
        ),
    ];
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, (w, why, map)) in links.iter().enumerate() {
        let params: Vec<String> = w
            .params(Size::Full)
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let moves: Vec<String> = map
            .iter()
            .map(|(layer, e2e)| format!("        {}: {}", json_str(layer), json_str(e2e)))
            .collect();
        out.push_str(&format!(
            "    {{\n      \"name\": {},\n      \"why\": {},\n      \"params\": {{{}}},\n      \
             \"layer_moves\": {{\n{}\n      }}\n    }}{}\n",
            json_str(w.name()),
            json_str(why),
            params.join(", "),
            moves.join(",\n"),
            if i + 1 < links.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
