//! The benchmark's own checks, at a tiny input size: every metric named
//! in `BENCHMARK.json` is emitted with its unit, the committed
//! `workloads.json` matches the code, and the correctness gate fails on
//! a wrong expectation.

use flowlut_core::backend::{FlowEvent, FlowEventKind};
use flowlut_hostbench::drive::{drive, Plain};
use flowlut_hostbench::gate::{self, Expect, Observed};
use flowlut_hostbench::workload::{self, Size, Workload, WORKLOADS};
use flowlut_hostbench::{describe, timed, traced, END_TO_END, PER_LAYER};
use flowlut_traffic::{FiveTuple, FlowKey};

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// `(name, unit)` of every entry in one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = read("../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = json[start..].find(']').expect("list ends") + start;
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string ends")].to_string()
    };
    json[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    assert_eq!(listed("end_to_end"), names(&END_TO_END));
    assert_eq!(listed("per_layer"), names(&PER_LAYER));
    let json = read("../BENCHMARK.json");
    let listed = &json[json.find("\"workloads\"").expect("workloads listed")..];
    let listed = &listed[..listed.find(']').expect("list ends")];
    for entry in listed.split("{\"name\": \"").skip(1) {
        let name = &entry[..entry.find('"').expect("name ends")];
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn workloads_json_matches_the_code() {
    assert_eq!(read("workloads.json"), describe());
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in WORKLOADS {
        let run = timed(w, Size::Tiny, 7, 0.0);
        assert!(run.correct, "{}: {:?}", w.name(), run.notes);
        assert_eq!(run.failed, 0);
        let got: Vec<(&str, &str)> = run.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, END_TO_END, "{}", w.name());
        for m in &run.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }

        let run = traced(w, Size::Tiny, 7);
        assert!(run.correct, "{}: {:?}", w.name(), run.notes);
        let got: Vec<(&str, &str)> = run.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, PER_LAYER, "{}", w.name());
        assert!(run.spans.is_some_and(|r| !r.spans.is_empty()));
    }
}

/// One tiny round of `w`, observed.
fn observe(w: Workload, seed: u64) -> (workload::Inputs, Observed) {
    let inputs = w.inputs(Size::Tiny, seed);
    let (svc, _) = workload::setup(&w.service_config(), &inputs.preload);
    let fids = gate::preload_fids(&svc, &inputs.preload);
    let start = svc.poll();
    let mut front = Plain::new(svc);
    drive(&inputs, &mut front);
    let (svc, out) = front.finish();
    let obs = Observed::collect(&svc, &start, fids, out);
    (inputs, obs)
}

#[test]
fn a_wrong_expected_resolution_fails_the_gate() {
    let w = Workload::Ddr3Paper;
    let (inputs, obs) = observe(w, 3);
    let mut expect = gate::expected(&inputs);
    assert!(gate::check(w, &inputs, &obs, &expect).ok());
    let i = expect.len() / 2;
    expect[i] = match expect[i] {
        Expect::Hit => Expect::New,
        Expect::New => Expect::Hit,
    };
    let v = gate::check(w, &inputs, &obs, &expect);
    assert_eq!(v.wrong, 1, "{:?}", v.problems);
    assert!(!v.ok());
}

#[test]
fn a_removal_of_a_flow_never_inserted_fails_the_gate() {
    let w = Workload::ServiceChurn;
    let (inputs, mut obs) = observe(w, 3);
    assert!(gate::check(w, &inputs, &obs, &[]).ok());
    obs.out.events.push(FlowEvent {
        kind: FlowEventKind::ExpiredTtl,
        key: FlowKey::from(FiveTuple::from_index(u64::MAX)),
        now_sys: 0,
    });
    let v = gate::check(w, &inputs, &obs, &[]);
    assert!(v.wrong >= 1 && !v.ok(), "{:?}", v.problems);
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for w in WORKLOADS {
        let a = w.inputs(Size::Tiny, 11);
        let b = w.inputs(Size::Tiny, 11);
        let c = w.inputs(Size::Tiny, 12);
        let keys = |i: &workload::Inputs| i.descs().map(|d| d.key).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c), "{}", w.name());
    }
}
