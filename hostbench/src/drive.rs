//! The closed-loop driver and the span recorder.
//!
//! One driver thread offers each descriptor with `try_send` and pumps
//! the service whenever the ingest queue refuses it. The same schedule
//! drives the untimed, timed and traced runs and the engine replay, so
//! every one of them feeds the program identical input on identical
//! simulated cycles.

use std::time::Instant;

use flowlut_core::backend::{FlowEvent, FlowEventKind};
use flowlut_service::{FlowService, IngestHandle};
use flowlut_traffic::PacketDescriptor;

use crate::workload::{Inputs, GAP_SLICE, PUMP_SLICE};

/// The calls the driver makes on a flow service front end.
pub trait Front {
    /// Offers one descriptor; `false` when the ingest queue is full.
    fn try_send(&mut self, desc: PacketDescriptor) -> bool;
    /// Advances the service `cycles` system cycles.
    fn pump(&mut self, cycles: u64);
    /// Flushes the ingest queue and runs the service dry.
    fn drain(&mut self);
}

/// Feeds `inputs` to `front` on the benchmark's fixed schedule.
pub fn drive(inputs: &Inputs, front: &mut impl Front) {
    for epoch in &inputs.epochs {
        for &desc in &epoch.descs {
            while !front.try_send(desc) {
                front.pump(PUMP_SLICE);
            }
        }
        let mut left = epoch.gap_sys;
        while left > 0 {
            let cycles = left.min(GAP_SLICE);
            front.pump(cycles);
            left -= cycles;
        }
    }
    front.drain();
}

/// What the service reported while running: lifecycle events and the
/// number of pressure-eviction victim records handed back.
#[derive(Debug, Default)]
pub struct Outputs {
    /// Every lifecycle event, in the order the service delivered them.
    pub events: Vec<FlowEvent>,
    /// Victim records taken from the service.
    pub victims: u64,
}

impl Outputs {
    /// Events of one kind.
    pub fn count(&self, kind: FlowEventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    fn collect(&mut self, svc: &mut FlowService) {
        self.events.extend(svc.events());
        self.victims += svc.take_victims().len() as u64;
    }
}

/// The service as a user drives it: pump, then consume what it reports.
#[derive(Debug)]
pub struct Plain {
    /// The running service.
    pub svc: FlowService,
    handle: IngestHandle,
    /// Events and victims collected so far.
    pub out: Outputs,
}

impl Plain {
    /// Wraps a warm-started service.
    pub fn new(svc: FlowService) -> Plain {
        let handle = svc.handle();
        Plain {
            svc,
            handle,
            out: Outputs::default(),
        }
    }

    /// Ends the run: the service and what it reported.
    pub fn finish(self) -> (FlowService, Outputs) {
        (self.svc, self.out)
    }
}

impl Front for Plain {
    fn try_send(&mut self, desc: PacketDescriptor) -> bool {
        self.handle.try_send(desc).expect("ingest queue stays open")
    }

    fn pump(&mut self, cycles: u64) {
        self.svc.pump(cycles);
        self.out.collect(&mut self.svc);
    }

    fn drain(&mut self) {
        self.svc.drain();
        self.out.collect(&mut self.svc);
    }
}

/// [`Plain`] with a timestamp after every `SEGMENT` accepted
/// descriptors and at the end of the drain. The driver's schedule is
/// fixed, so segment `k` holds the same work in every round.
#[derive(Debug)]
pub struct Segmented {
    /// The wrapped front end.
    pub inner: Plain,
    sent: u64,
    /// Segment boundaries, starting with the round's start.
    pub marks: Vec<Instant>,
}

/// Accepted descriptors per timed segment.
pub const SEGMENT: u64 = 1024;

impl Segmented {
    /// Wraps a warm-started service; the round starts now.
    pub fn new(svc: FlowService) -> Segmented {
        Segmented {
            inner: Plain::new(svc),
            sent: 0,
            marks: vec![Instant::now()],
        }
    }

    /// Duration of each segment, in ns.
    pub fn segments_ns(&self) -> Vec<u64> {
        self.marks
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_nanos() as u64)
            .collect()
    }
}

impl Front for Segmented {
    fn try_send(&mut self, desc: PacketDescriptor) -> bool {
        let ok = self.inner.try_send(desc);
        if ok {
            self.sent += 1;
            if self.sent.is_multiple_of(SEGMENT) {
                self.marks.push(Instant::now());
            }
        }
        ok
    }

    fn pump(&mut self, cycles: u64) {
        self.inner.pump(cycles);
    }

    fn drain(&mut self) {
        self.inner.drain();
        self.marks.push(Instant::now());
    }
}

/// The call a span covers. The discriminant is the record's tag in the
/// trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// `IngestHandle::try_send` that was accepted.
    TrySendAccepted,
    /// `IngestHandle::try_send` that the full queue refused.
    TrySendRefused,
    /// `FlowService::pump`.
    Pump,
    /// `FlowService::drain`.
    ServiceDrain,
    /// `FlowPipeline::push` on the engine.
    EnginePush,
    /// `ShardedFlowLut::tick`.
    EngineTick,
    /// `FlowPipeline::drain` on the engine.
    EngineDrain,
    /// `FlowLutSim::offer`.
    SimOffer,
    /// `FlowLutSim::tick` with work in the pipeline or offered.
    SimBusyTick,
    /// `FlowLutSim::tick` on an empty pipeline with nothing offered.
    SimIdleTick,
    /// `MemoryModel::enqueue`.
    MemEnqueue,
    /// `MemoryModel::tick`.
    MemTick,
    /// `PairHasher::hashes` over the key stream.
    HashPair,
    /// `HashCamTable::lookup`.
    TableLookup,
    /// `HashCamTable::insert`.
    TableInsert,
    /// `HashCamTable::delete`.
    TableDelete,
    /// `Cam::search` over the key stream.
    CamSearch,
    /// `codec::serialize_bucket_into` over the key stream's buckets.
    CodecSerialize,
    /// `codec::find_key` over the key stream.
    CodecFindKey,
    /// `ShardRouter::route` over the key stream.
    Route,
}

impl Op {
    /// Every op, in tag order.
    pub const ALL: [Op; 20] = [
        Op::TrySendAccepted,
        Op::TrySendRefused,
        Op::Pump,
        Op::ServiceDrain,
        Op::EnginePush,
        Op::EngineTick,
        Op::EngineDrain,
        Op::SimOffer,
        Op::SimBusyTick,
        Op::SimIdleTick,
        Op::MemEnqueue,
        Op::MemTick,
        Op::HashPair,
        Op::TableLookup,
        Op::TableInsert,
        Op::TableDelete,
        Op::CamSearch,
        Op::CodecSerialize,
        Op::CodecFindKey,
        Op::Route,
    ];

    /// `layer.call` name of the op.
    pub fn name(self) -> &'static str {
        match self {
            Op::TrySendAccepted => "service.try_send_accepted",
            Op::TrySendRefused => "service.try_send_refused",
            Op::Pump => "service.pump",
            Op::ServiceDrain => "service.drain",
            Op::EnginePush => "engine.push",
            Op::EngineTick => "engine.tick",
            Op::EngineDrain => "engine.drain",
            Op::SimOffer => "sim.offer",
            Op::SimBusyTick => "sim.busy_tick",
            Op::SimIdleTick => "sim.idle_tick",
            Op::MemEnqueue => "memory.enqueue",
            Op::MemTick => "memory.tick",
            Op::HashPair => "hash.pair",
            Op::TableLookup => "table.lookup",
            Op::TableInsert => "table.insert",
            Op::TableDelete => "table.delete",
            Op::CamSearch => "cam.search",
            Op::CodecSerialize => "codec.serialize",
            Op::CodecFindKey => "codec.find_key",
            Op::Route => "engine.route",
        }
    }
}

/// One recorded span: an op, its start relative to the recorder's
/// creation, its duration, and how many calls it covers (1, except for
/// the loop spans of the functional replays).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub op: Op,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Calls covered.
    pub calls: u32,
}

/// Spans kept in memory until the benchmark writes them out.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    /// What an empty span measures: the clock's own cost, taken off
    /// every span when totals are computed.
    pub empty_ns: u64,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        let mut empty: Vec<u64> = (0..10_000)
            .map(|_| {
                let start = Instant::now();
                let end = Instant::now();
                end.duration_since(start).as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        Recorder {
            t0: Instant::now(),
            empty_ns: empty[empty.len() / 2],
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span for `op`.
    #[inline]
    pub fn span<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        self.span_n(op, 1, f)
    }

    /// Runs `f`, which makes `calls` calls of `op`, inside one span.
    #[inline]
    pub fn span_n<R>(&mut self, op: Op, calls: u32, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.push(op, calls, start, end);
        r
    }

    /// Records a span measured by the caller.
    #[inline]
    pub fn push(&mut self, op: Op, calls: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            op,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            calls,
        });
    }

    /// Total duration, net of the clock's cost, and calls of `op`.
    pub fn total(&self, op: Op) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.op == op)
            .fold((0, 0), |(ns, n), s| {
                (
                    ns + s.dur_ns.saturating_sub(self.empty_ns),
                    n + u64::from(s.calls),
                )
            })
    }

    /// Mean ns per call of `op` (0 when it never ran).
    pub fn mean(&self, op: Op) -> f64 {
        let (ns, n) = self.total(op);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Durations, net of the clock's cost, of the single-call spans of
    /// `op`.
    pub fn durations(&self, op: Op) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.calls == 1)
            .map(|s| s.dur_ns.saturating_sub(self.empty_ns))
            .collect()
    }

    /// Serialises the spans: a text header line naming the ops by tag,
    /// then one 21-byte little-endian record per span
    /// (`tag: u8, start_ns: u64, dur_ns: u64, calls: u32`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let names: Vec<String> = Op::ALL
            .iter()
            .map(|op| format!("{}={}", *op as u8, op.name()))
            .collect();
        let mut out = format!(
            "hostbench-spans v1 empty_ns={} {}\n",
            self.empty_ns,
            names.join(",")
        )
        .into_bytes();
        out.reserve(self.spans.len() * 21);
        for s in &self.spans {
            out.push(s.op as u8);
            out.extend_from_slice(&s.start_ns.to_le_bytes());
            out.extend_from_slice(&s.dur_ns.to_le_bytes());
            out.extend_from_slice(&s.calls.to_le_bytes());
        }
        out
    }
}

/// [`Plain`] with a span around every `try_send`, `pump` and `drain`,
/// and the per-shard CAM occupancy sampled after every pump.
#[derive(Debug)]
pub struct Traced<'r> {
    /// The wrapped front end.
    pub inner: Plain,
    rec: &'r mut Recorder,
    /// Highest CAM occupancy of any shard seen after a pump.
    pub cam_high_water: u64,
    /// Cycles advanced by `pump` calls.
    pub pump_cycles: u64,
}

impl<'r> Traced<'r> {
    /// Wraps a warm-started service.
    pub fn new(svc: FlowService, rec: &'r mut Recorder) -> Traced<'r> {
        Traced {
            inner: Plain::new(svc),
            rec,
            cam_high_water: 0,
            pump_cycles: 0,
        }
    }

    fn sample_cam(&mut self) {
        let engine = self.inner.svc.engine();
        for s in 0..engine.shard_count() {
            let cam = engine.shard(s).table().occupancy().cam;
            self.cam_high_water = self.cam_high_water.max(cam);
        }
    }
}

impl Front for Traced<'_> {
    fn try_send(&mut self, desc: PacketDescriptor) -> bool {
        let start = Instant::now();
        let ok = self.inner.try_send(desc);
        let end = Instant::now();
        let op = if ok {
            Op::TrySendAccepted
        } else {
            Op::TrySendRefused
        };
        self.rec.push(op, 1, start, end);
        ok
    }

    fn pump(&mut self, cycles: u64) {
        let svc = &mut self.inner.svc;
        self.rec.span(Op::Pump, || svc.pump(cycles));
        self.pump_cycles += cycles;
        self.inner.out.collect(&mut self.inner.svc);
        self.sample_cam();
    }

    fn drain(&mut self) {
        let svc = &mut self.inner.svc;
        self.rec.span(Op::ServiceDrain, || svc.drain());
        self.inner.out.collect(&mut self.inner.svc);
        self.sample_cam();
    }
}
