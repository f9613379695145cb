//! Delta-PRT replanning must be invisible in every outcome: for any
//! workload, any priority policy and any active-circuit policy, the
//! stepper (affected-set skipping + reservation reuse, one planning view
//! per round) must reproduce the reference replay
//! ([`common::ref_replay`]), which re-plans every Coflow at every round
//! on a flat reservation list, byte-for-byte. Driven in slices, the same
//! stepper must leave nothing behind: whenever no Coflow is active its
//! table is empty, and once idle no demand is outstanding.

mod common;

use common::{check_against_reference, stretch, Replay, ACTIVE_POLICIES};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::{simulate_circuit, FullService, OnlineConfig, OnlineStepper, SchedulingBackend};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::{
    ClassThenShortest, ExplicitOrder, FirstComeFirstServed, GuardConfig, LongestFirst,
    PriorityPolicy, ShortestFirst,
};

fn fabric(ports: usize) -> Fabric {
    Fabric::new(ports, Bandwidth::GBPS, Dur::from_millis(10))
}

/// One generated flow: (src, dst, megabytes).
type GenFlow = (usize, usize, u64);

fn arb_workload(ports: usize, n: usize) -> impl Strategy<Value = Vec<Coflow>> {
    proptest::collection::vec(
        (
            0u64..2_000,
            proptest::collection::vec((0..ports, 0..ports, 1u64..24), 1..=4),
        ),
        n,
    )
    .prop_map(|specs: Vec<(u64, Vec<GenFlow>)>| {
        specs
            .into_iter()
            .enumerate()
            .map(|(id, (arrival_ms, flows))| {
                let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(arrival_ms));
                for (src, dst, mb) in flows {
                    b = b.flow(src, dst, mb * 1_000_000);
                }
                b.build()
            })
            .collect()
    })
}

/// The stepper against the reference for one priority policy, with or
/// without a starvation guard, under every active-circuit policy; each
/// configuration's stepper also driven in slices.
fn check_policy(
    coflows: &[Coflow],
    f: &Fabric,
    policy: &dyn PriorityPolicy,
    guard: Option<GuardConfig>,
    label: &str,
) {
    for active in ACTIVE_POLICIES {
        let cfg = OnlineConfig::default().active_policy(active).guard(guard);
        let label = format!("{label}, {active:?}");
        let (got, _) = check_against_reference(coflows, f, &cfg, policy, || FullService, &label);
        check_idle_table(coflows, f, &cfg, policy, &got, &label);
    }
}

/// Drive a stepper in 37 ms `advance_to` slices: whenever no Coflow is
/// active the table must hold no circuit, once idle no demand may be
/// outstanding, and the sliced run must finish every Coflow when the
/// batch replay `want` does.
fn check_idle_table(
    coflows: &[Coflow],
    f: &Fabric,
    config: &OnlineConfig,
    policy: &dyn PriorityPolicy,
    want: &Replay,
    label: &str,
) {
    let mut s = OnlineStepper::new(f, config, Box::new(policy));
    for c in coflows {
        s.submit(c.clone()).expect("submit");
    }
    let mut t = Time::ZERO;
    while !s.status().idle {
        t += Dur::from_millis(37);
        s.advance_to(t, &mut FullService);
        if s.status().active_coflows == 0 {
            assert_eq!(
                s.prt().all_reservations(),
                vec![],
                "{label}: circuits left with no Coflow active at {t}"
            );
        }
    }
    s.advance_to(Time::MAX, &mut FullService);
    assert_eq!(
        s.status().outstanding_demand,
        Dur::ZERO,
        "{label}: demand left"
    );
    let mut done: Vec<_> = s
        .drain_completions()
        .into_iter()
        .map(|c| c.outcome)
        .collect();
    done.sort_by_key(|o| o.coflow);
    assert_eq!(done, want.outcomes, "{label}: sliced vs batch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_replay_matches_the_reference_under_every_policy(coflows in arb_workload(8, 18)) {
        let f = fabric(8);
        let explicit = ExplicitOrder::new(coflows.iter().map(|c| c.id()).rev());
        let classes: HashMap<u64, u32> =
            coflows.iter().map(|c| (c.id(), (c.id() % 3) as u32)).collect();
        let policies: [(&str, &dyn PriorityPolicy); 5] = [
            ("ShortestFirst", &ShortestFirst),
            ("LongestFirst", &LongestFirst),
            ("FirstComeFirstServed", &FirstComeFirstServed),
            ("ClassThenShortest", &ClassThenShortest::new(classes, 9)),
            ("ExplicitOrder", &explicit),
        ];
        // Unguarded, under the dense guard of the goldens, and — on the
        // workload stretched to span several minute-long intervals —
        // under the sparse guard of the benchmark.
        let dense = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
        let sparse = GuardConfig::new(Dur::from_secs(60), Dur::from_millis(100));
        let stretched = stretch(&coflows, 100);
        for (name, policy) in policies {
            check_policy(&coflows, &f, policy, None, name);
            check_policy(&coflows, &f, policy, Some(dense), &format!("{name}, dense guard"));
            check_policy(&stretched, &f, policy, Some(sparse), &format!("{name}, sparse guard"));
        }
    }
}

/// A dense deterministic workload must actually exercise the machinery
/// this suite pins — confirmed (reused) reservations — on the one
/// calling thread.
#[test]
fn dense_workload_exercises_reuse() {
    // Four port-disjoint clusters of four ports each; four Coflows (one
    // per cluster) arrive at every instant, so a single arrival event
    // dirties four disconnected footprints, all planned in one view.
    let mut coflows = Vec::new();
    for id in 0..40u64 {
        let cluster = (id % 4) * 4;
        let mut b = Coflow::builder(id).arrival(Time::from_millis((id / 4) * 37));
        for k in 0..3u64 {
            let src = (cluster + (id + k) % 4) as usize;
            let dst = (cluster + (id * 5 + k * 3) % 4) as usize;
            b = b.flow(src, dst, (1 + (id + k) % 9) * 2_000_000);
        }
        coflows.push(b.build());
    }
    let f = fabric(16);
    let run = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
    assert!(
        run.stats.reservations_reused > 0,
        "delta replans confirmed no reservations"
    );
    assert_eq!(run.stats.parallel_replans, 0, "the stepper went wide");
}
