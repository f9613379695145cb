//! Helpers shared by the integration suites: the 40-Coflow regression
//! fixture and its FNV fingerprint (every golden constant was captured
//! on them), random workloads and policy rosters for the equivalence
//! properties, a time-stretch for the replan suites, and the reference
//! online replay ([`ref_replay`]) with the stepper run it is compared to.

// Each suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

pub mod ref_replay;

pub use ref_replay::{ref_replay, Replay};

use ocs_model::{Bandwidth, Coflow, Dur, Fabric, ScheduleOutcome, Time};
use ocs_sim::{
    ActiveCircuitPolicy, OnlineConfig, OnlineStepper, ReplayResult, ReplayStats, SchedulingBackend,
    SettleHook,
};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::{
    ClassThenShortest, ExplicitOrder, FirstComeFirstServed, LongestFirst, PriorityPolicy,
    ShortestFirst,
};

/// Every in-flight circuit policy: the replan suites run all three
/// against the reference replay.
pub const ACTIVE_POLICIES: [ActiveCircuitPolicy; 3] = [
    ActiveCircuitPolicy::Yield,
    ActiveCircuitPolicy::Keep,
    ActiveCircuitPolicy::Preempt,
];

/// The fixture fabric: 8 ports, 1 Gbps, δ = 10 ms.
pub fn fabric() -> Fabric {
    Fabric::new(8, Bandwidth::GBPS, Dur::from_millis(10))
}

/// xorshift64* so the workload is deterministic without pulling `rand`
/// into the fixture.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// A dense, overlapping 40-Coflow workload on 8 ports: 1–4 flows each,
/// 1–24 MB per flow, arrivals spread over ~2 s so the replay sees long
/// chains of arrival/completion events with real contention.
pub fn workload() -> Vec<Coflow> {
    let mut s = 0x5af1_0e5e_ed00_0001u64;
    let mut coflows = Vec::new();
    for id in 0..40u64 {
        let arrival = Time::from_millis(xorshift(&mut s) % 2_000);
        let mut b = Coflow::builder(id).arrival(arrival);
        let flows = 1 + (xorshift(&mut s) % 4) as usize;
        for _ in 0..flows {
            let src = (xorshift(&mut s) % 8) as usize;
            let dst = (xorshift(&mut s) % 8) as usize;
            let bytes = (1 + xorshift(&mut s) % 24) * 1_000_000;
            b = b.flow(src, dst, bytes);
        }
        coflows.push(b.build());
    }
    coflows
}

/// `coflows` with every Coflow folded into one half of the 8-port
/// fabric (ports 0–3 or 4–7, alternating by id): what `portgroups:2`
/// accepts.
pub fn group_local(coflows: &[Coflow]) -> Vec<Coflow> {
    coflows
        .iter()
        .map(|c| {
            let base = (c.id() % 2) as usize * 4;
            c.flows()
                .iter()
                .fold(Coflow::builder(c.id()).arrival(c.arrival()), |b, f| {
                    b.flow(base + f.src % 4, base + f.dst % 4, f.bytes)
                })
                .build()
        })
        .collect()
}

/// A random workload on `ports` ports: `n` Coflows, 1–4 flows of
/// 1–24 MB each, arrivals spread over `window_ms`.
pub fn random_workload(seed: u64, n: u64, ports: u64, window_ms: u64) -> Vec<Coflow> {
    let mut s = seed | 1;
    let mut coflows = Vec::new();
    for id in 0..n {
        let arrival = Time::from_millis(xorshift(&mut s) % window_ms);
        let mut b = Coflow::builder(id).arrival(arrival);
        for _ in 0..1 + (xorshift(&mut s) % 4) as usize {
            let src = (xorshift(&mut s) % ports) as usize;
            let dst = (xorshift(&mut s) % ports) as usize;
            let bytes = (1 + xorshift(&mut s) % 24) * 1_000_000;
            b = b.flow(src, dst, bytes);
        }
        coflows.push(b.build());
    }
    coflows
}

fn eat(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over every observable field of the outcomes.
pub fn fingerprint(outcomes: &[ScheduleOutcome]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for o in outcomes {
        eat(&mut h, o.coflow);
        eat(&mut h, o.start.as_ps());
        eat(&mut h, o.finish.as_ps());
        eat(&mut h, o.circuit_setups);
        for f in &o.flow_finish {
            eat(&mut h, f.as_ps());
        }
    }
    h
}

/// [`fingerprint`] of `outcomes`, then every value of `extra`.
pub fn fingerprint_with(outcomes: &[ScheduleOutcome], extra: &[u64]) -> u64 {
    let mut h = fingerprint(outcomes);
    for &v in extra {
        eat(&mut h, v);
    }
    h
}

/// [`fingerprint`] of a replay's outcomes, then its guard-window count.
pub fn fingerprint_replay(r: &ReplayResult) -> u64 {
    fingerprint_with(&r.outcomes, &[r.guard_windows])
}

/// `outcomes` sorted into the order `coflows` lists their ids.
pub fn in_input_order(
    coflows: &[Coflow],
    mut outcomes: Vec<ScheduleOutcome>,
) -> Vec<ScheduleOutcome> {
    let input_pos: HashMap<u64, usize> = coflows
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id(), i))
        .collect();
    outcomes.sort_by_key(|o| input_pos[&o.coflow]);
    outcomes
}

/// A small random workload: up to 12 Coflows, 1–4 flows each, on the
/// 8-port fixture fabric.
pub fn arb_workload() -> impl Strategy<Value = Vec<Coflow>> {
    proptest::collection::vec(
        (
            0u64..500,
            proptest::collection::vec((0usize..8, 0usize..8, 1u64..20_000_000), 1..=4),
        ),
        1..=12,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(id, (arrival_ms, flows))| {
                let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(arrival_ms));
                for (s, d, z) in flows {
                    b = b.flow(s, d, z);
                }
                b.build()
            })
            .collect()
    })
}

/// The five priority policies, boxed for uniform iteration.
pub fn policies(coflows: &[Coflow]) -> Vec<(&'static str, Box<dyn PriorityPolicy>)> {
    let classes: HashMap<u64, u32> = coflows
        .iter()
        .map(|c| (c.id(), (c.id() % 3) as u32))
        .collect();
    let order: Vec<u64> = coflows.iter().map(|c| c.id()).rev().collect();
    vec![
        ("shortest", Box::new(ShortestFirst)),
        ("longest", Box::new(LongestFirst)),
        ("fcfs", Box::new(FirstComeFirstServed)),
        ("class", Box::new(ClassThenShortest::new(classes, 9))),
        ("explicit", Box::new(ExplicitOrder::new(order))),
    ]
}

/// The same workload `k` times slower and larger: arrivals and flow sizes
/// both scale, so it keeps its shape while spanning `k` times the time —
/// long enough for a sparse guard's windows to come round.
pub fn stretch(coflows: &[Coflow], k: u64) -> Vec<Coflow> {
    coflows
        .iter()
        .map(|c| {
            let arrival = Time::ZERO + c.arrival().since(Time::ZERO) * k;
            let mut b = Coflow::builder(c.id()).arrival(arrival);
            for f in c.flows() {
                b = b.flow(f.src, f.dst, f.bytes * k);
            }
            b.build()
        })
        .collect()
}

/// How a replay hands its Coflows to the stepper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submission {
    /// Every Coflow before the first event, as a batch replay does: each
    /// round plans only up to the next queued arrival.
    UpFront,
    /// Each Coflow at its arrival instant, before that instant's event,
    /// as a service does: no arrival is ever queued ahead, so every
    /// round plans each walk to its end.
    AtArrival,
}

/// Both [`Submission`] modes.
pub const SUBMISSIONS: [Submission; 2] = [Submission::UpFront, Submission::AtArrival];

/// Run an [`OnlineStepper`] over `coflows` to idle under `hook`, in the
/// shape [`ref_replay`] reports, with the stepper's work counters.
pub fn stepper_replay(
    coflows: &[Coflow],
    f: &Fabric,
    config: &OnlineConfig,
    policy: &dyn PriorityPolicy,
    hook: &mut dyn SettleHook,
    submission: Submission,
) -> (Replay, ReplayStats) {
    let mut s = OnlineStepper::new(f, config, Box::new(policy));
    match submission {
        Submission::UpFront => {
            for c in coflows {
                s.submit(c.clone()).expect("submit");
            }
        }
        Submission::AtArrival => {
            let mut due: Vec<&Coflow> = coflows.iter().collect();
            due.sort_by_key(|c| c.arrival());
            let mut due = due.into_iter().peekable();
            loop {
                let next = s.next_event_time();
                let arrival = due.peek().map(|c| c.arrival());
                let Some(t) = next.into_iter().chain(arrival).min() else {
                    break;
                };
                while let Some(c) = due.next_if(|c| c.arrival() <= t) {
                    s.submit(c.clone()).expect("submit");
                }
                s.advance_to(t, hook);
            }
        }
    }
    s.advance_to(Time::MAX, hook);
    let mut done: HashMap<u64, _> = s
        .drain_completions()
        .into_iter()
        .map(|d| (d.outcome.coflow, d))
        .collect();
    let (outcomes, first_service) = coflows
        .iter()
        .map(|c| {
            let d = done.remove(&c.id()).expect("every Coflow completes");
            (d.outcome, d.first_service)
        })
        .unzip();
    let status = s.status();
    let stats = status.stats.expect("the stepper keeps stats");
    let replay = Replay {
        outcomes,
        first_service,
        guard_windows: status.guard_windows,
        events: stats.events,
        cuts: stats.cuts,
        yield_rounds: stats.yield_rounds,
    };
    (replay, stats)
}

/// Assert two replays agree on every outcome, first service and event
/// counter, naming the first field that differs.
pub fn assert_replays_agree(got: &Replay, want: &Replay, label: &str) {
    assert_eq!(got.outcomes.len(), want.outcomes.len(), "{label}: counts");
    for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
        assert_eq!(g.coflow, w.coflow, "{label}: order");
        assert_eq!(g.finish, w.finish, "{label}: coflow {} finish", g.coflow);
        assert_eq!(
            g.flow_finish, w.flow_finish,
            "{label}: coflow {} flow finishes",
            g.coflow
        );
        assert_eq!(
            g.circuit_setups, w.circuit_setups,
            "{label}: coflow {} setups",
            g.coflow
        );
    }
    assert_eq!(
        got.first_service, want.first_service,
        "{label}: first service"
    );
    assert_eq!(
        got.guard_windows, want.guard_windows,
        "{label}: guard windows"
    );
    assert_eq!(got.events, want.events, "{label}: events");
    assert_eq!(got.cuts, want.cuts, "{label}: cuts");
    assert_eq!(got.yield_rounds, want.yield_rounds, "{label}: yield rounds");
}

/// Replay `coflows` on [`ref_replay`] and on the stepper in both
/// [`Submission`] modes, each with a fresh hook from `hook`, assert the
/// stepper's runs agree with the reference, and hand back the up-front
/// run.
pub fn check_against_reference<H: SettleHook>(
    coflows: &[Coflow],
    f: &Fabric,
    config: &OnlineConfig,
    policy: &dyn PriorityPolicy,
    hook: impl Fn() -> H,
    label: &str,
) -> (Replay, ReplayStats) {
    let want = ref_replay(coflows, f, config, policy, &mut hook());
    let mut up_front = None;
    for submission in SUBMISSIONS {
        let label = format!("{label}, {submission:?}");
        let (got, stats) = stepper_replay(coflows, f, config, policy, &mut hook(), submission);
        assert_replays_agree(&got, &want, &label);
        up_front.get_or_insert((got, stats));
    }
    up_front.expect("two submission modes")
}
