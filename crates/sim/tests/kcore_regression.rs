//! K-core byte-identity and golden regression tests.
//!
//! `K = 1` is the degenerate single-switch case: a
//! [`MultiSunflowBackend`] with one core routes every flow to core 0
//! (every placement policy must — there is nowhere else), and the
//! replay must be *byte-identical* to the single-switch path under
//! every configuration the replay goldens pin. These tests replay the
//! exact 40-Coflow fixture of `replay_regression.rs` through the K-core
//! path and assert the very same golden fingerprints.
//!
//! A separate golden pins the `K = 4` least-loaded replay, so placement
//! and multi-shard planning changes are caught too, and two more pin the
//! non-preemptive [`KCoreBackend`] on the same fixture.

mod common;

use common::{
    arb_workload, fabric, fingerprint_replay as fingerprint, fingerprint_with, in_input_order,
    policies, workload,
};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, KCoreFabric, Reservation, ScheduleOutcome, Time};
use ocs_sim::{
    simulate_circuit, ActiveCircuitPolicy, BackendKind, FullService, KCoreBackend,
    MultiSunflowBackend, OnlineConfig, ReplayResult, SchedulingBackend, SettleHook, SettleVerdict,
};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::{
    schedule_demands_on, CoreAssignKind, Demand, FirstComeFirstServed, GuardConfig, PriorityPolicy,
    Prt, ScheduleScratch, ShortestFirst, SunflowConfig,
};

/// Replay `coflows` on a `K`-core fabric under `assign`, reassembling a
/// [`ReplayResult`] with outcomes in input order.
fn run_multicore(
    coflows: &[Coflow],
    base: &Fabric,
    cores: usize,
    assign: CoreAssignKind,
    cfg: &OnlineConfig,
    prio: &dyn PriorityPolicy,
) -> ReplayResult {
    let k = KCoreFabric::new(*base, cores);
    let mut backend = MultiSunflowBackend::new(&k, cfg, Box::new(prio), assign.build());
    for c in coflows {
        backend.submit(c.clone()).expect("fixture fits the fabric");
    }
    backend.advance_to(Time::MAX, &mut FullService);
    assert!(backend.status().idle, "replay must drain");
    let outcomes = backend
        .drain_completions()
        .into_iter()
        .map(|c| c.outcome)
        .collect();
    let status = backend.status();
    ReplayResult {
        outcomes: in_input_order(coflows, outcomes),
        guard_windows: status.guard_windows,
        stats: status.stats.expect("sunflow keeps stats"),
    }
}

/// Shorts every third settlement to half its offered service with a
/// 7 ms backoff: deterministic, so the retry path replays identically.
struct ShortEveryThird(u64);

impl SettleHook for ShortEveryThird {
    fn on_settle(&mut self, _r: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.0 += 1;
        if self.0.is_multiple_of(3) {
            SettleVerdict::shorted(available / 2, Dur::from_millis(7))
        } else {
            SettleVerdict::full(available)
        }
    }
}

/// Replay the fixture on a `K = 4` [`KCoreBackend`] under rank-pack
/// placement, compacting the table every 200 ms, and fingerprint the
/// outcomes (input order), the reservations made in total and per core,
/// and the number of reservations compaction retired.
fn kcore_fingerprint(hook: &mut dyn SettleHook) -> u64 {
    let coflows = workload();
    let k = KCoreFabric::new(fabric(), 4);
    let mut backend = KCoreBackend::new(&k, SunflowConfig::default(), CoreAssignKind::RankPack);
    for c in &coflows {
        backend.submit(c.clone()).expect("fixture fits the fabric");
    }
    let mut compacted = 0;
    let mut t = Time::ZERO;
    while !backend.status().idle {
        t += Dur::from_millis(200);
        backend.advance_to(t, hook);
        compacted += backend.compact_history() as u64;
    }
    let outcomes = backend
        .drain_completions()
        .into_iter()
        .map(|c| c.outcome)
        .collect();
    let mut tail = vec![
        backend
            .status()
            .stats
            .expect("kcore keeps stats")
            .reservations_made,
        compacted,
    ];
    tail.extend((0..4).map(|c| backend.core_status(c).expect("core").reservations_made));
    fingerprint_with(&in_input_order(&coflows, outcomes), &tail)
}

/// The `K = 4` rank-pack [`KCoreBackend`] replay, clean and under a
/// shorting hook, pinned.
#[test]
fn kcore_backend_matches_golden() {
    assert_eq!(kcore_fingerprint(&mut FullService), GOLDEN_KCORE_CLEAN);
    assert_eq!(
        kcore_fingerprint(&mut ShortEveryThird(0)),
        GOLDEN_KCORE_SHORTED
    );
}

/// Passes every settlement to `inner` and keeps, per Coflow, the
/// earliest transmit begin (`start + δ`) of a circuit it credited.
struct FirstCredit<'h> {
    inner: &'h mut dyn SettleHook,
    delta: Dur,
    first: HashMap<u64, Time>,
}

impl SettleHook for FirstCredit<'_> {
    fn on_settle(&mut self, r: &Reservation, available: Dur, now: Time) -> SettleVerdict {
        let verdict = self.inner.on_settle(r, available, now);
        if !verdict.served.min(available).is_zero() {
            let svc = r.start + self.delta;
            let first = self.first.entry(r.flow.coflow).or_insert(svc);
            *first = (*first).min(svc);
        }
        verdict
    }
}

/// A `kcore:<K>` Coflow first receives service when the earliest of
/// its credited circuits begins transmitting, not when the first of
/// them settles: a short circuit that starts late can settle before a
/// long one that started early. Checked on `kcore:2` and on the `K = 4`
/// rank-pack fixture, clean and shorted.
#[test]
fn kcore_first_service_is_the_earliest_credited_circuit() {
    let coflows = workload();
    // `kcore:4` is the rank-pack fixture of `kcore_backend_matches_golden`.
    for selector in ["kcore:2", "kcore:4"] {
        let kind: BackendKind = selector.parse().expect("valid selector");
        let hooks: [(&str, &mut dyn SettleHook); 2] = [
            ("clean", &mut FullService),
            ("shorted", &mut ShortEveryThird(0)),
        ];
        for (faults, inner) in hooks {
            let mut backend =
                kind.build(&fabric(), &OnlineConfig::default(), Box::new(ShortestFirst));
            for c in &coflows {
                backend.submit(c.clone()).expect("fixture fits the fabric");
            }
            let mut hook = FirstCredit {
                inner,
                delta: fabric().delta(),
                first: HashMap::new(),
            };
            backend.advance_to(Time::MAX, &mut hook);
            let done = backend.drain_completions();
            assert_eq!(done.len(), coflows.len(), "{selector} {faults}");
            for c in &done {
                let id = c.outcome.coflow;
                assert_eq!(
                    c.first_service,
                    hook.first.get(&id).copied(),
                    "{selector} {faults}: coflow {id}"
                );
            }
        }
    }
}

/// Fails the first settlement outright with no backoff, serves the rest
/// in full, and logs every settlement with its instant.
#[derive(Default)]
struct FailFirstNoBackoff(Vec<(Reservation, Time)>);

impl SettleHook for FailFirstNoBackoff {
    fn on_settle(&mut self, r: &Reservation, available: Dur, now: Time) -> SettleVerdict {
        self.0.push((*r, now));
        if self.0.len() == 1 {
            SettleVerdict {
                served: Dur::ZERO,
                retry_after: None,
            }
        } else {
            SettleVerdict::full(available)
        }
    }
}

/// `SettleVerdict::retry_after` of `None` retries "at the next
/// representable instant": the circuit re-planned for the shorted flow
/// starts strictly after the settle that shorted it, on the stepper and
/// on `kcore:<K>` alike.
#[test]
fn zero_backoff_retry_starts_after_the_settle() {
    let c = Coflow::builder(0).flow(0, 1, 2_000_000).build();
    for selector in ["sunflow", "kcore:1", "kcore:2"] {
        let kind: BackendKind = selector.parse().expect("valid selector");
        let mut backend = kind.build(&fabric(), &OnlineConfig::default(), Box::new(ShortestFirst));
        backend.submit(c.clone()).expect("fits the fabric");
        let mut hook = FailFirstNoBackoff::default();
        backend.advance_to(Time::MAX, &mut hook);
        assert!(backend.status().idle, "{selector}: must drain");
        assert_eq!(backend.drain_completions().len(), 1, "{selector}");
        let (shorted, at) = hook.0[0];
        let retry = hook.0[1..]
            .iter()
            .map(|(r, _)| r)
            .find(|r| r.flow == shorted.flow)
            .expect("the shorted flow is re-planned");
        assert!(
            retry.start > at,
            "{selector}: retry circuit starts at {}, the shorted settle was at {at}",
            retry.start
        );
    }
}

/// Replay the lone Coflow `c` on a `cores`-core rank-pack
/// [`KCoreBackend`] over `base`; returns the drained backend and the
/// Coflow's outcome.
fn kcore_alone(c: &Coflow, base: Fabric, cores: usize) -> (KCoreBackend, ScheduleOutcome) {
    let k = KCoreFabric::new(base, cores);
    let mut backend = KCoreBackend::new(&k, SunflowConfig::default(), CoreAssignKind::RankPack);
    backend.submit(c.clone()).expect("fits the fabric");
    backend.advance_to(Time::MAX, &mut FullService);
    assert!(backend.status().idle, "replay must drain");
    let mut done = backend.drain_completions();
    assert_eq!(done.len(), 1);
    let outcome = done.pop().expect("one completion").outcome;
    (backend, outcome)
}

/// With one core the shared table is a plain `N`-port [`Prt`]: a lone
/// Coflow is served by exactly the circuits Algorithm 1 plans on a plain
/// table, each flow finishing when its circuit is released.
#[test]
fn k1_core_plan_matches_a_plain_prt() {
    let fabric = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
    let c = Coflow::builder(7)
        .flow(0, 1, 5_000_000)
        .flow(1, 0, 3_000_000)
        .flow(2, 3, 9_000_000)
        .flow(0, 2, 1_000_000)
        .build();
    let demands: Vec<Demand> = c
        .flows()
        .iter()
        .enumerate()
        .map(|(flow_idx, f)| Demand {
            flow_idx,
            src: f.src,
            dst: f.dst,
            remaining: fabric.processing_time(f.bytes),
        })
        .collect();
    let (plain, _) = schedule_demands_on(
        &mut Prt::new(4),
        7,
        &demands,
        Time::ZERO,
        fabric.delta(),
        SunflowConfig::default(),
        &mut ScheduleScratch::new(),
    );
    let mut released = vec![Time::ZERO; c.num_flows()];
    for r in &plain {
        let fi = r.flow.flow_idx;
        released[fi] = released[fi].max(r.end);
    }

    let (backend, outcome) = kcore_alone(&c, fabric, 1);
    assert_eq!(outcome.flow_finish, released);
    assert_eq!(outcome.circuit_setups, plain.len() as u64);
    let core = backend.core_status(0).expect("core 0");
    assert_eq!(core.reservations_made, plain.len() as u64);
}

/// Two equal flows out of one src port, placed on different cores, sit
/// on different ports of the shared table: both circuits start at once
/// and the Coflow finishes after one circuit, where a single core
/// serialises them.
#[test]
fn cross_core_demands_plan_independently() {
    let fabric = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
    let c = Coflow::builder(1)
        .flow(0, 1, 5_000_000)
        .flow(0, 2, 5_000_000)
        .build();
    let circuit = fabric.delta() + fabric.processing_time(5_000_000);

    let (two_cores, outcome) = kcore_alone(&c, fabric, 2);
    assert_eq!(outcome.flow_finish, vec![Time::ZERO + circuit; 2]);
    for core in 0..2 {
        let status = two_cores.core_status(core).expect("core");
        assert_eq!(status.reservations_made, 1, "core {core}");
    }

    let (_, serial) = kcore_alone(&c, fabric, 1);
    assert_eq!(serial.finish, Time::ZERO + circuit + circuit);
}

/// Every golden configuration of `replay_regression.rs`, as
/// (name, online config, golden fingerprint) rows; FCFS swaps the
/// priority policy instead.
fn golden_configs() -> [(&'static str, OnlineConfig, u64); 4] {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    [
        (
            "yield",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Yield),
            GOLDEN_YIELD,
        ),
        (
            "keep",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep),
            GOLDEN_KEEP,
        ),
        (
            "preempt",
            OnlineConfig::default().active_policy(ActiveCircuitPolicy::Preempt),
            GOLDEN_PREEMPT,
        ),
        (
            "guarded",
            OnlineConfig::default()
                .active_policy(ActiveCircuitPolicy::Yield)
                .guard(Some(guard)),
            GOLDEN_GUARDED,
        ),
    ]
}

/// `K = 1` replays byte-identical to every single-switch golden, under
/// every placement policy — placement is vacuous with one core, and the
/// sharded backend must not perturb a single event.
#[test]
fn k1_reproduces_every_golden_under_every_placement() {
    let coflows = workload();
    let f = fabric();
    for assign in CoreAssignKind::ALL {
        for (name, cfg, golden) in golden_configs() {
            let r = run_multicore(&coflows, &f, 1, assign, &cfg, &ShortestFirst);
            assert_eq!(
                fingerprint(&r),
                golden,
                "K=1 {assign} diverged from the {name} golden"
            );
        }
        let fcfs = run_multicore(
            &coflows,
            &f,
            1,
            assign,
            &OnlineConfig::default(),
            &FirstComeFirstServed,
        );
        assert_eq!(
            fingerprint(&fcfs),
            GOLDEN_FCFS,
            "K=1 {assign} diverged from the fcfs golden"
        );
    }
}

/// The `K = 4` least-loaded replay on the fixture, pinned: a placement
/// or shard-planning change that shifts one timestamp fails here.
#[test]
fn k4_least_loaded_matches_golden() {
    let r = run_multicore(
        &workload(),
        &fabric(),
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    assert_eq!(fingerprint(&r), GOLDEN_K4_LEAST_LOADED);
}

/// More cores can only help this contended fixture: aggregate CCT under
/// `K = 4` must beat `K = 1` (each core is a full-bandwidth plane).
#[test]
fn k4_improves_total_cct_on_the_fixture() {
    let coflows = workload();
    let f = fabric();
    let total = |r: &ReplayResult| -> Dur {
        r.outcomes
            .iter()
            .map(|o| o.finish.since(o.start))
            .sum::<Dur>()
    };
    let k1 = run_multicore(
        &coflows,
        &f,
        1,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    let k4 = run_multicore(
        &coflows,
        &f,
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    assert!(
        total(&k4) < total(&k1),
        "K=4 total CCT {:?} must beat K=1 {:?}",
        total(&k4),
        total(&k1)
    );
}

/// Prints the K-core fingerprints so they can be (re)captured:
/// `cargo test -p ocs-sim --test kcore_regression capture -- --ignored --nocapture`.
#[test]
#[ignore = "golden capture helper, not a check"]
fn capture() {
    let r = run_multicore(
        &workload(),
        &fabric(),
        4,
        CoreAssignKind::LeastLoaded,
        &OnlineConfig::default(),
        &ShortestFirst,
    );
    println!("GOLDEN_K4_LEAST_LOADED: {:#018x}", fingerprint(&r));
    println!(
        "GOLDEN_KCORE_CLEAN: {:#018x}",
        kcore_fingerprint(&mut FullService)
    );
    println!(
        "GOLDEN_KCORE_SHORTED: {:#018x}",
        kcore_fingerprint(&mut ShortEveryThird(0))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `K = 1` equivalence, property-tested: on random workloads, every
    /// placement policy × every priority policy replays the K-core path
    /// byte-identical to `simulate_circuit`.
    #[test]
    fn k1_equivalence(coflows in arb_workload()) {
        let f = fabric();
        let cfg = OnlineConfig::default();
        for (pname, prio) in policies(&coflows) {
            let single = simulate_circuit(&coflows, &f, &cfg, prio.as_ref());
            for assign in CoreAssignKind::ALL {
                let multi = run_multicore(&coflows, &f, 1, assign, &cfg, prio.as_ref());
                prop_assert_eq!(
                    fingerprint(&multi),
                    fingerprint(&single),
                    "K=1 {} diverged from simulate_circuit under {}",
                    assign,
                    pname
                );
            }
        }
    }
}

// Golden fingerprints: the five single-switch constants are copied from
// `replay_regression.rs` (same fixture, same hash); the K=4 constant was
// captured from the `capture` test above, and so were the two
// `KCoreBackend` constants.
const GOLDEN_YIELD: u64 = 0x99c7ea2f62e9f5a6;
const GOLDEN_KEEP: u64 = 0x1f488db3af7cffdc;
const GOLDEN_PREEMPT: u64 = 0xac667ca4f8f67d86;
const GOLDEN_GUARDED: u64 = 0x4824bb0ab880aa60;
const GOLDEN_FCFS: u64 = 0xba96a2fc5cd01dc5;
const GOLDEN_K4_LEAST_LOADED: u64 = 0x9c508101fa3f204a;
const GOLDEN_KCORE_CLEAN: u64 = 0x23f0ee991f8d7533;
const GOLDEN_KCORE_SHORTED: u64 = 0x4849200ebbabe632;
