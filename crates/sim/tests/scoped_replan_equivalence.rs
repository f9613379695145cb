//! Affected-set rescheduling must be invisible in every outcome: for any
//! workload and active-circuit policy, the stepper — which re-plans only
//! the Coflows an event can have touched, on the delta view of its
//! table — must reproduce the reference replay ([`common::ref_replay`]),
//! which re-plans every Coflow at every round from the paper on a flat
//! reservation list: byte-identical completions, finish times, setup
//! counts, first service and displacement decisions, while the stepper
//! demonstrably skips re-planning work.

mod common;

use common::{
    check_against_reference, policies, random_workload as workload, stretch, ACTIVE_POLICIES,
};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Reservation, Time};
use ocs_sim::{
    simulate_circuit, ActiveCircuitPolicy, FullService, OnlineConfig, OnlineStepper, ReplayStats,
    SchedulingBackend, SettleHook, SettleVerdict,
};
use sunflow_core::{GuardConfig, ShortestFirst};

fn fabric(ports: usize) -> Fabric {
    Fabric::new(ports, Bandwidth::GBPS, Dur::from_millis(10))
}

/// Unguarded, and under the §4.2 starvation guard, where the stepper
/// plans around the guard timetable and re-plans at a window's end only
/// the Coflows the window credited and whoever they free ports for: the
/// dense guard of the goldens and the sparse one of the benchmark (on
/// the workload stretched to span several of its minute-long
/// intervals). Under every active-circuit policy, against the reference
/// replay: same completions, same setups, same guard-window count.
#[test]
fn stepper_matches_the_reference_replay() {
    let dense = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    let sparse = GuardConfig::new(Dur::from_secs(60), Dur::from_millis(100));
    for (name, guard, k) in [
        ("no", None, 1),
        ("dense", Some(dense), 1),
        ("sparse", Some(sparse), 100),
    ] {
        let mut skipped = 0;
        for seed in [3, 0x5eed, 0xdead_beef, 0x1234_5678_9abc] {
            for policy in ACTIVE_POLICIES {
                for ports in [4u64, 8, 16] {
                    let coflows = stretch(&workload(seed, 30, ports, 2_000), k);
                    let f = fabric(ports as usize);
                    let label = format!("{name} guard, seed {seed:#x}, {policy:?}, {ports} ports");
                    let (got, stats) = check(&coflows, &f, policy, guard, &label);
                    assert_eq!(
                        got.guard_windows > 0,
                        guard.is_some(),
                        "{label}: windows elapsed"
                    );
                    skipped += stats.coflows_skipped;
                }
            }
        }
        assert!(skipped > 0, "{name} guard: scoped replays skipped nothing");
    }
}

/// Replay `coflows` fault-free under shortest-first on the stepper and
/// the reference, assert the two agree, and hand back the stepper's run.
fn check(
    coflows: &[Coflow],
    f: &Fabric,
    policy: ActiveCircuitPolicy,
    guard: Option<GuardConfig>,
    label: &str,
) -> (common::Replay, ReplayStats) {
    let cfg = OnlineConfig::default().active_policy(policy).guard(guard);
    check_against_reference(coflows, f, &cfg, &ShortestFirst, || FullService, label)
}

/// A guard period barely longer than δ splits every flow at every window
/// and each piece pays δ again, so plans run many times the summed
/// demand — past any horizon estimated from it, which is how far windows
/// stood while they were reservations. The timetable has no horizon:
/// however far a plan runs, `Prt::reserve` would refuse a circuit that
/// crossed a window, skipping or not.
#[test]
fn plans_far_longer_than_their_demand_stop_at_every_window() {
    let guard = GuardConfig::new(Dur::from_millis(12), Dur::from_millis(12));
    for seed in [1, 2] {
        for ports in [4u64, 8] {
            let coflows = workload(seed, 10, ports, 400);
            // 2-48 ms a flow, through 2 ms a window gap.
            let f = fabric(ports as usize).with_bandwidth(Bandwidth::from_gbps(4));
            for policy in ACTIVE_POLICIES {
                let label = format!("tight guard, seed {seed}, {policy:?}, {ports} ports");
                check(&coflows, &f, policy, Some(guard), &label);
            }
        }
    }
}

/// A window under way when an arrival ends an idle gap is an obstacle
/// like any other: were it passed over, a Coflow arriving inside it
/// would be planned straight through it, the window would credit the
/// flow in full at its end, and the Coflow would complete and leave the
/// priority order with a circuit still in flight — one port in two
/// circuits, and an owner the scoped re-plan can no longer rank.
#[test]
fn an_arrival_inside_a_window_under_way_waits_for_it_to_end() {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    let f = fabric(4);
    // Window 10 is [2600, 2640) ms on A_2 (in.i -> out.(i+2)); the
    // fabric has been idle since Coflow 0 finished, long before.
    let at = Time::from_millis(2_610);
    let coflows = vec![
        Coflow::builder(0).flow(0, 0, 1_000_000).build(),
        // Shares both ports of Coflow 2's circuit.
        Coflow::builder(1)
            .arrival(at)
            .flow(0, 1, 60_000_000)
            .flow(3, 2, 60_000_000)
            .build(),
        // 24 ms of demand on one of the window's own circuits: the
        // window serves all of it.
        Coflow::builder(2).arrival(at).flow(0, 2, 3_000_000).build(),
        // 24 ms on a circuit the window does not make.
        Coflow::builder(3).arrival(at).flow(1, 0, 3_000_000).build(),
    ];
    for policy in ACTIVE_POLICIES {
        let label = format!("{policy:?}");
        let (got, _) = check(&coflows, &f, policy, Some(guard), &label);
        let of = |id| got.outcomes.iter().find(|o| o.coflow == id).unwrap();
        assert_eq!(of(2).finish, Time::from_millis(2_640), "{label}");
        assert_eq!(of(2).circuit_setups, 0, "{label}: served by the window");
        // δ + 24 ms from the window's end, not from the arrival.
        assert_eq!(of(3).finish, Time::from_millis(2_674), "{label}");
    }
}

/// The same at random: one early Coflow, an idle gap of ten guard
/// intervals, then a burst of arrivals inside a guard window.
#[test]
fn stepper_and_reference_agree_on_a_burst_inside_a_window_after_an_idle_gap() {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    for seed in 1..=40u64 {
        for ports in [4u64, 8] {
            let mut coflows = vec![Coflow::builder(1_000).flow(0, 0, 1_000_000).build()];
            for c in workload(seed, 12, ports, 35) {
                let arrival = c.arrival() + Dur::from_millis(2_602);
                let mut b = Coflow::builder(c.id()).arrival(arrival);
                for fl in c.flows() {
                    b = b.flow(fl.src, fl.dst, fl.bytes / 4);
                }
                coflows.push(b.build());
            }
            let f = fabric(ports as usize);
            for policy in ACTIVE_POLICIES {
                let label = format!("burst seed {seed}, {policy:?}, {ports} ports");
                check(&coflows, &f, policy, Some(guard), &label);
            }
        }
    }
}

/// Wide fabrics under moderate load have many port-disjoint Coflows, so
/// the skip ratio must be substantial there — the point of the whole
/// exercise.
#[test]
fn scoped_replay_skips_most_coflows_on_wide_fabrics() {
    let coflows = workload(0xfeed, 60, 24, 8_000);
    let f = fabric(24);
    let r = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
    let visited = r.stats.coflows_rescheduled + r.stats.coflows_skipped;
    assert!(
        r.stats.coflows_skipped * 2 > visited,
        "expected most planning visits skipped, got {}/{}",
        r.stats.coflows_skipped,
        visited
    );
}

/// A fault hook that shorts every third settlement to half its service
/// with a 7 ms backoff, until `faults_left` runs out.
struct ShortEveryThird {
    n: u64,
    faults_left: u64,
}

impl ShortEveryThird {
    /// As many faults as `policy` lets a replay drain: a 7 ms backoff is
    /// below δ, so under Preempt every retry event cuts each circuit
    /// still setting up, whose settlements feed the hook its next fault,
    /// and an unbounded hook never lets go.
    fn for_policy(policy: ActiveCircuitPolicy) -> ShortEveryThird {
        let faults_left = match policy {
            ActiveCircuitPolicy::Preempt => 12,
            _ => u64::MAX,
        };
        ShortEveryThird { n: 0, faults_left }
    }
}

impl SettleHook for ShortEveryThird {
    fn on_settle(&mut self, _r: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.n += 1;
        if self.n.is_multiple_of(3) && self.faults_left > 0 {
            self.faults_left -= 1;
            SettleVerdict::shorted(available / 2, Dur::from_millis(7))
        } else {
            SettleVerdict::full(available)
        }
    }
}

/// A hook that shorts every third settlement (deferral + retry events)
/// exercises the shortfall and backoff-expiry seeds of the affected set;
/// the stepper and the reference, each under its own copy of the hook,
/// must still agree on everything — the hook sees the same calls in the
/// same order — under every priority and active-circuit policy,
/// unguarded and under the dense and the sparse guard.
#[test]
fn stepper_and_reference_agree_under_injected_faults() {
    let clustered = workload(0xabcd, 25, 8, 2_000);
    let f = fabric(8);
    let dense = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    let sparse = GuardConfig::new(Dur::from_secs(60), Dur::from_millis(100));
    let stretched = stretch(&clustered, 100);
    for (guard, coflows) in [
        (None, &clustered),
        (Some(dense), &clustered),
        (Some(sparse), &stretched),
    ] {
        for (name, priority) in policies(coflows) {
            for policy in ACTIVE_POLICIES {
                let label = format!("{name}, {policy:?}, guard {guard:?}");
                let cfg = OnlineConfig::default().active_policy(policy).guard(guard);
                let hook = || ShortEveryThird::for_policy(policy);
                let (_, stats) =
                    check_against_reference(coflows, &f, &cfg, priority.as_ref(), hook, &label);
                assert!(
                    stats.coflows_skipped > 0,
                    "{label}: faulty run must still skip"
                );
            }
        }
    }
}

/// A Coflow the guard finishes ahead of its plan leaves no circuit
/// behind, whichever circuits the policy cuts:
/// window 0 ([200, 240) ms, in.i -> out.i) serves Coflow 1 whole while
/// its own circuit is planned for [240, 274) ms. Left in the table, that
/// circuit holds in.0 against Coflow 2 until 274 ms.
#[test]
fn a_coflow_the_guard_finishes_leaves_no_circuit_behind() {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    let f = fabric(4);
    for policy in ACTIVE_POLICIES {
        let label = format!("{policy:?}");
        let cfg = OnlineConfig::default().active_policy(policy).guard(guard);
        let mut s = OnlineStepper::new(&f, &cfg, Box::new(ShortestFirst));
        s.submit(Coflow::builder(0).flow(0, 1, 23_000_000).build())
            .expect("submit");
        let early = Coflow::builder(1)
            .arrival(Time::from_millis(195))
            .flow(0, 0, 3_000_000)
            .build();
        s.submit(early).expect("submit");
        s.advance_to(Time::from_millis(245), &mut FullService);
        assert!(s.status().idle, "{label}: both served by 240 ms");
        assert_eq!(s.prt().all_reservations(), vec![], "{label}: ghost circuit");
        let late = Coflow::builder(2)
            .arrival(Time::from_millis(250))
            .flow(0, 2, 1_000_000)
            .build();
        s.submit(late).expect("submit");
        s.advance_to(Time::MAX, &mut FullService);
        let mut done = s.drain_completions();
        done.sort_by_key(|c| c.outcome.coflow);
        let finishes: Vec<Time> = done.iter().map(|c| c.outcome.finish).collect();
        let setups: Vec<u64> = done.iter().map(|c| c.outcome.circuit_setups).collect();
        assert_eq!(finishes, [194, 240, 268].map(Time::from_millis), "{label}");
        assert_eq!(setups, [1, 0, 1], "{label}");
    }
}
