//! Determinism of threaded shard execution.
//!
//! `ExecutionMode::Threaded(n)` only changes which host thread runs each
//! shard's per-cycle body; shards share no state, so every observable —
//! the unified [`RunReport`] and the complete post-run
//! [`EngineSnapshot`] with every per-shard counter and the splitter
//! stalls — must be **bit-identical** to inline execution. These tests (including a property test over shard
//! counts, thread counts and trace lengths on the seeded fabric trace)
//! are the acceptance bar for the threaded engine: any scheduling-order
//! dependence, shared-state leak, or barrier bug shows up as a diverging
//! report.

use proptest::prelude::*;

use flowlut::engine::{EngineConfig, ExecutionMode, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{Builder, Session};

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

fn engine(shards: usize, execution: ExecutionMode) -> ShardedFlowLut {
    ShardedFlowLut::new(EngineConfig {
        shards,
        input_rate_mhz: shards as f64 * 100.0,
        execution,
        ..EngineConfig::test_small()
    })
}

/// Runs the same descriptors through an inline and a threaded engine
/// and asserts every observable is bit-identical.
fn assert_bit_identical(shards: usize, threads: usize, descs: &[PacketDescriptor]) {
    let mut inline_engine = engine(shards, ExecutionMode::Inline);
    let mut threaded_engine = engine(shards, ExecutionMode::Threaded(threads));
    let a = inline_engine.run(descs);
    let b = threaded_engine.run(descs);
    assert_eq!(
        a, b,
        "RunReport diverged at {shards} shards / {threads} threads"
    );
    assert_eq!(
        inline_engine.snapshot(),
        threaded_engine.snapshot(),
        "post-run engine state diverged"
    );
}

#[test]
fn threaded_is_bit_identical_on_the_fabric_trace() {
    let descs = trace(2_000);
    assert_bit_identical(4, 2, &descs);
    assert_bit_identical(4, 4, &descs);
}

#[test]
fn threaded_is_bit_identical_with_more_threads_than_shards() {
    // Threaded(8) on 2 shards clamps to 2 executors and must still match.
    let descs = trace(1_000);
    assert_bit_identical(2, 8, &descs);
}

#[test]
fn threaded_is_bit_identical_across_repeated_runs() {
    let first = trace(800);
    let second: Vec<PacketDescriptor> = trace(1_600).split_off(800);
    let mut inline_engine = engine(3, ExecutionMode::Inline);
    let mut threaded_engine = engine(3, ExecutionMode::Threaded(3));
    let a1 = inline_engine.run(&first);
    let b1 = threaded_engine.run(&first);
    assert_eq!(a1, b1);
    assert_eq!(inline_engine.snapshot(), threaded_engine.snapshot());
    let a2 = inline_engine.run(&second);
    let b2 = threaded_engine.run(&second);
    assert_eq!(a2, b2);
    assert_eq!(inline_engine.snapshot(), threaded_engine.snapshot());
}

#[test]
fn threaded_is_bit_identical_with_preload_and_sessions() {
    // The builder path end to end: preload on both engines, then the
    // generic streaming session over `dyn FlowBackend`.
    let descs = trace(1_200);
    let keys: Vec<_> = descs.iter().take(300).map(|d| d.key).collect();
    let mk = |threads: usize| {
        let mut backend = Builder::new()
            .sim_config(flowlut::core::SimConfig::test_small())
            .shards(4)
            .threads(threads)
            .build()
            .expect("valid engine");
        let mut loaded = 0;
        for &k in &keys {
            if backend.insert(k).expect("capacity suffices") {
                loaded += 1;
            }
        }
        assert!(loaded > 0);
        backend
    };
    let mut inline_backend = mk(1);
    let mut threaded_backend = mk(4);
    let ra = Session::new(inline_backend.as_pipeline().expect("timed"))
        .run(&descs)
        .expect("fresh session");
    let rb = Session::new(threaded_backend.as_pipeline().expect("timed"))
        .run(&descs)
        .expect("fresh session");
    assert_eq!(ra, rb, "session reports diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance property: on the seeded fabric trace, any
    /// (shards, threads, length) combination reports bit-identically
    /// under threaded and inline execution.
    #[test]
    fn threaded_equals_inline(
        shards in 1usize..=4,
        threads in 2usize..=4,
        packets in 100usize..600,
    ) {
        assert_bit_identical(shards, threads, &trace(packets));
    }
}
