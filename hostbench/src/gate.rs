//! The correctness gate: every descriptor must complete, and its
//! resolution must agree with what a plain set of keys predicts.

use std::collections::{HashMap, HashSet};

use flowlut_core::backend::{FlowEventKind, SessionProgress};
use flowlut_core::sim::{DescState, ResolvedVia};
use flowlut_core::{FlowId, SimStats};
use flowlut_service::FlowService;
use flowlut_traffic::FlowKey;

use crate::drive::Outputs;
use crate::workload::{Inputs, Workload};

/// What the oracle predicts for one descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The key was preloaded or seen earlier in the stream.
    Hit,
    /// The key is new: the descriptor inserts it.
    New,
}

/// The oracle for workloads without flow removal: a descriptor hits iff
/// its key was preloaded or seen earlier in the stream. Indexed by
/// `seq`.
pub fn expected(inputs: &Inputs) -> Vec<Expect> {
    let mut seen: HashSet<FlowKey> = inputs.preload.iter().copied().collect();
    inputs
        .descs()
        .map(|d| {
            if seen.insert(d.key) {
                Expect::New
            } else {
                Expect::Hit
            }
        })
        .collect()
}

/// The flow ID each preloaded key has in the warm-started service.
pub fn preload_fids(svc: &FlowService, preload: &[FlowKey]) -> HashMap<FlowKey, FlowId> {
    let engine = svc.engine();
    preload
        .iter()
        .map(|k| {
            let shard = engine.router().route(k);
            let fid = engine
                .shard(shard)
                .table()
                .peek(k)
                .expect("preloaded key is resident");
            (*k, fid)
        })
        .collect()
}

/// Everything the gate reads from one finished round.
#[derive(Debug)]
pub struct Observed {
    /// Every shard's descriptor states, sorted by `seq`.
    pub descs: Vec<DescState>,
    /// Counters over the round, merged across shards.
    pub stats: SimStats,
    /// Resident flows before and after the round.
    pub live_before: u64,
    /// Resident flows after the round.
    pub live_after: u64,
    /// Flow IDs of the preloaded keys.
    pub preload_fids: HashMap<FlowKey, FlowId>,
    /// Lifecycle events and victim records the service delivered.
    pub out: Outputs,
    /// Executor threads the engine ran on.
    pub executors: usize,
}

impl Observed {
    /// Collects the round's results from the service.
    pub fn collect(
        svc: &FlowService,
        start: &SessionProgress,
        preload_fids: HashMap<FlowKey, FlowId>,
        out: Outputs,
    ) -> Observed {
        let engine = svc.engine();
        let mut descs: Vec<DescState> = (0..engine.shard_count())
            .flat_map(|s| engine.shard(s).descriptors().to_vec())
            .collect();
        descs.sort_by_key(|d| d.desc.seq);
        let end = svc.poll();
        Observed {
            descs,
            stats: end.stats.delta_since(&start.stats),
            live_before: start.occupancy.total(),
            live_after: end.occupancy.total(),
            preload_fids,
            out,
            executors: engine.executor_count(),
        }
    }
}

/// The gate's finding.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Descriptors offered.
    pub offered: u64,
    /// Descriptors dropped because the table was full.
    pub dropped: u64,
    /// Descriptors offered but never completed.
    pub never_completed: u64,
    /// Descriptors whose resolution disagrees with the oracle.
    pub wrong: u64,
    /// Broken run-level invariants (conservation, event counts, the
    /// workload's purpose).
    pub broken: u64,
    /// One line per problem found.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Failed descriptors plus broken invariants.
    pub fn failed(&self) -> u64 {
        self.dropped + self.never_completed + self.wrong + self.broken
    }

    /// `true` when nothing failed.
    pub fn ok(&self) -> bool {
        self.failed() == 0
    }

    fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken += 1;
            self.problems.push(what());
        }
    }

    fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.problems.len() < 20 {
            self.problems.push(what());
        }
    }
}

fn is_hit(via: ResolvedVia) -> bool {
    matches!(
        via,
        ResolvedVia::CamHit
            | ResolvedVia::Lu1Hit(_)
            | ResolvedVia::Lu2Hit(_)
            | ResolvedVia::DuplicateRace
    )
}

/// Checks one round. `expect` is [`expected`] for workloads without
/// flow removal and is ignored for `service_churn`.
pub fn check(w: Workload, inputs: &Inputs, obs: &Observed, expect: &[Expect]) -> Verdict {
    let offered = inputs.len();
    let s = &obs.stats;
    let mut v = Verdict {
        offered,
        never_completed: offered.saturating_sub(s.completed),
        ..Verdict::default()
    };
    v.require(s.offered == offered && s.completed == offered, || {
        format!(
            "offered {offered}, engine took {} and completed {}",
            s.offered, s.completed
        )
    });
    v.require(obs.descs.len() as u64 == offered, || {
        format!(
            "{} descriptor states for {offered} descriptors",
            obs.descs.len()
        )
    });
    for d in &obs.descs {
        if d.via == Some(ResolvedVia::Dropped) {
            v.dropped += 1;
        }
    }

    if w == Workload::ServiceChurn {
        check_churn(obs, &mut v);
    } else {
        check_resolutions(obs, expect, &mut v);
        v.require(s.deletes == 0 && obs.out.events.is_empty(), || {
            format!(
                "{} deletes and {} lifecycle events with lifecycle policies off",
                s.deletes,
                obs.out.events.len()
            )
        });
    }

    // The workload must still exercise the layer it was chosen for.
    match w {
        Workload::Ddr3Paper => {
            v.require(s.input_stall_cycles > 0, || {
                "ddr3_paper must back-pressure its input: no input stall cycles".into()
            });
        }
        Workload::ServiceChurn => {
            v.require(s.expired_ttl > 0 && s.pressure_evicted > 0, || {
                format!(
                    "service_churn must expire and evict flows: {} expired, {} evicted",
                    s.expired_ttl, s.pressure_evicted
                )
            });
        }
        Workload::Hbm2Fabric => {
            v.require(obs.executors == 2, || {
                format!(
                    "hbm2_fabric must run on 2 executors, ran on {}",
                    obs.executors
                )
            });
        }
    }
    v
}

/// Without flow removal every descriptor's class is fixed by the oracle,
/// and every packet of a flow must get the flow's one ID.
fn check_resolutions(obs: &Observed, expect: &[Expect], v: &mut Verdict) {
    let mut fids = obs.preload_fids.clone();
    for d in &obs.descs {
        let Some(via) = d.via else { continue };
        if via == ResolvedVia::Dropped {
            continue;
        }
        let seq = d.desc.seq;
        let Some(&want) = usize::try_from(seq).ok().and_then(|i| expect.get(i)) else {
            v.wrong(|| format!("descriptor {seq} is not in the stream"));
            continue;
        };
        let got = if is_hit(via) {
            Expect::Hit
        } else {
            Expect::New
        };
        if got != want {
            v.wrong(|| format!("descriptor {seq}: expected {want:?}, resolved {via:?}"));
            continue;
        }
        match (want, fids.get(&d.desc.key)) {
            (Expect::Hit, Some(&fid)) if d.fid != Some(fid) => v.wrong(|| {
                format!(
                    "descriptor {seq}: hit returned {:?}, flow has {fid:?}",
                    d.fid
                )
            }),
            (Expect::New, _) => {
                if let Some(fid) = d.fid {
                    fids.insert(d.desc.key, fid);
                }
            }
            _ => {}
        }
    }
}

/// With expiry and eviction on, a key's first packet must insert it;
/// each removal must hit a resident key; a key is never inserted while
/// resident; and occupancy must balance.
fn check_churn(obs: &Observed, v: &mut Verdict) {
    let s = &obs.stats;
    let mut inserts: HashMap<FlowKey, u64> = HashMap::new();
    for d in &obs.descs {
        let Some(via) = d.via else { continue };
        let first = !inserts.contains_key(&d.desc.key);
        let n = inserts.entry(d.desc.key).or_insert(0);
        if via.is_new_flow() {
            *n += 1;
        } else if first && via != ResolvedVia::Dropped {
            let seq = d.desc.seq;
            v.wrong(|| format!("descriptor {seq}: first packet of its flow resolved {via:?}"));
        }
    }
    let mut removals: HashMap<FlowKey, u64> = HashMap::new();
    for e in &obs.out.events {
        *removals.entry(e.key).or_insert(0) += 1;
    }
    for (key, &removed) in &removals {
        let inserted = inserts.get(key).copied().unwrap_or(0);
        if removed > inserted {
            v.wrong(|| format!("{key:?} removed {removed} times, inserted {inserted}"));
        }
    }
    for (key, &inserted) in &inserts {
        let removed = removals.get(key).copied().unwrap_or(0);
        if inserted > removed + 1 {
            v.wrong(|| format!("{key:?} inserted {inserted} times, removed {removed}"));
        }
    }
    let inserted = s.inserted_mem + s.inserted_cam;
    v.require(
        obs.live_before + inserted == obs.live_after + s.deletes,
        || {
            format!(
                "occupancy not conserved: {} before + {inserted} inserted - {} deleted != {} after",
                obs.live_before, s.deletes, obs.live_after
            )
        },
    );
    let expired = obs.out.count(FlowEventKind::ExpiredTtl);
    let evicted = obs.out.count(FlowEventKind::EvictedPressure);
    v.require(
        expired == s.expired_ttl
            && evicted == s.pressure_evicted
            && obs.out.victims == s.pressure_evicted
            && s.expired_ttl + s.pressure_evicted <= s.deletes,
        || {
            format!(
                "lifecycle counts disagree: {expired}/{} expiry events, {evicted}/{} eviction \
                 events, {} victims, {} deletes",
                s.expired_ttl, s.pressure_evicted, obs.out.victims, s.deletes
            )
        },
    );
}
