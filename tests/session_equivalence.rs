//! The legacy batch entry points (`FlowLutSim::run`,
//! `ShardedFlowLut::run`) are thin wrappers over the typed streaming
//! [`Session`]. These tests pin the behavioural equivalence: on a fixed
//! seeded fabric trace, the wrapper and a hand-driven session produce
//! *identical* [`RunReport`]s — same cycle counts, same counters, same
//! occupancy — for both the single-channel simulator and the sharded
//! engine.

use flowlut::core::{FlowLutSim, SimConfig};
use flowlut::engine::{EngineConfig, ShardedFlowLut};
use flowlut::traffic::fabric::FabricTraceProfile;
use flowlut::traffic::PacketDescriptor;
use flowlut::{FlowPipeline, RunReport, Session, SessionError};

fn trace(packets: usize) -> Vec<PacketDescriptor> {
    FabricTraceProfile::european_2012().generate(packets)
}

#[test]
fn sim_legacy_run_equals_streaming_session() {
    let descs = trace(2_000);
    let mut legacy = FlowLutSim::new(SimConfig::test_small());
    let mut session = FlowLutSim::new(SimConfig::test_small());

    let legacy_report: RunReport = legacy.run(&descs).into();
    // Hand-driven: offer the batch, then finish (which drains).
    let mut s = session.start_run();
    s.offer(&descs).expect("fresh session");
    let session_report = s.finish();

    assert_eq!(legacy_report, session_report);
    assert_eq!(legacy_report.channels, 1);
    assert_eq!(legacy_report.completed, 2_000);
    assert!(legacy_report.sys_cycles > 0);
}

#[test]
fn engine_legacy_run_equals_streaming_session() {
    let descs = trace(2_000);
    let mut legacy = ShardedFlowLut::new(EngineConfig::test_small());
    let mut session = ShardedFlowLut::new(EngineConfig::test_small());

    let legacy_report = legacy.run(&descs);
    let session_report = session.start_run().run(&descs).expect("fresh session");

    assert_eq!(legacy_report, session_report);
    assert_eq!(legacy_report.channels, 2);
    assert_eq!(legacy_report.completed, 2_000);
}

#[test]
fn equivalence_holds_across_repeated_runs() {
    // The session differences statistics against the run start; a second
    // session on a warm instance must report the second run alone, just
    // as the legacy wrapper does.
    let first = trace(1_000);
    let second: Vec<PacketDescriptor> = trace(2_000).split_off(1_000);

    let mut legacy = FlowLutSim::new(SimConfig::test_small());
    let mut session = FlowLutSim::new(SimConfig::test_small());
    legacy.run(&first);
    session.start_run().run(&first).expect("fresh session");

    let legacy_report: RunReport = legacy.run(&second).into();
    let session_report = session.start_run().run(&second).expect("fresh session");
    assert_eq!(legacy_report, session_report);
    assert_eq!(legacy_report.completed, 1_000);
}

#[test]
fn drained_session_rejects_further_use() {
    // Lifecycle misuse is a typed error, not a panic or silent no-op.
    let descs = trace(200);
    let mut sim = FlowLutSim::new(SimConfig::test_small());
    let mut s = Session::new(&mut sim);
    s.offer(&descs).expect("fresh session");
    s.drain().expect("first drain");
    assert_eq!(s.drain(), Err(SessionError::AlreadyDrained));
    assert_eq!(s.push(descs[0]), Err(SessionError::Drained));
    assert_eq!(s.offer(&descs), Err(SessionError::Drained));
    // finish() still produces the report for the completed work.
    let report = s.finish();
    assert_eq!(report.completed, 200);
}
