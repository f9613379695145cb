//! Checkpoint/resume property of the resumable replay: interrupting an
//! [`OnlineStepper`] at an arbitrary instant with `snapshot`, rebuilding
//! it with `restore` and continuing must produce exactly the completion
//! sequence (and guard-window count) of the run that never stopped —
//! under every priority policy and in-flight-circuit policy.

use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::{ActiveCircuitPolicy, Completion, OnlineConfig, OnlineStepper};
use proptest::prelude::*;
use sunflow_core::{
    ClassThenShortest, ExplicitOrder, FirstComeFirstServed, GuardConfig, LongestFirst,
    PriorityPolicy, ShortestFirst,
};

const PORTS: usize = 4;

fn fabric() -> Fabric {
    Fabric::new(PORTS, Bandwidth::GBPS, Dur::from_millis(10))
}

/// `(arrival_ms, flows[(src, dst, megabytes)])` per Coflow.
type Spec = Vec<(u64, Vec<(usize, usize, u64)>)>;

fn arb_workload() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(
        (
            0u64..400,
            proptest::collection::vec((0..PORTS, 0..PORTS, 1u64..12), 1..4),
        ),
        1..10,
    )
}

fn build(spec: &Spec) -> Vec<Coflow> {
    spec.iter()
        .enumerate()
        .map(|(id, (arrival_ms, flows))| {
            let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(*arrival_ms));
            for &(src, dst, mb) in flows {
                b = b.flow(src, dst, mb * 1_000_000);
            }
            b.build()
        })
        .collect()
}

/// Every priority policy the workspace ships, type-erased.
fn policies(n: usize) -> Vec<(&'static str, Box<dyn PriorityPolicy>)> {
    vec![
        ("shortest", Box::new(ShortestFirst)),
        ("longest", Box::new(LongestFirst)),
        ("fcfs", Box::new(FirstComeFirstServed)),
        (
            "class",
            Box::new(ClassThenShortest::new(
                (0..n as u64).map(|id| (id, (id % 3) as u32)).collect(),
                0,
            )),
        ),
        (
            "explicit",
            // Reverse id order so the policy disagrees with the others.
            Box::new(ExplicitOrder::new((0..n as u64).rev())),
        ),
    ]
}

fn observable(done: Vec<Completion>) -> Vec<(u64, u64, u64, u64, Option<u64>)> {
    done.into_iter()
        .map(|c| {
            (
                c.outcome.coflow,
                c.outcome.start.as_ps(),
                c.outcome.finish.as_ps(),
                c.outcome.circuit_setups,
                c.first_service.map(|t| t.as_ps()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot → restore → continue == never interrupted, for all five
    /// priority policies, all three in-flight-circuit policies and an
    /// arbitrary interruption instant (possibly mid-trace, possibly past
    /// the end).
    #[test]
    fn snapshot_restore_continue_is_invisible(
        spec in arb_workload(),
        cut_ms in 0u64..1_200,
        active_ix in 0usize..3,
        guarded in any::<bool>(),
    ) {
        let coflows = build(&spec);
        let f = fabric();
        let active = [
            ActiveCircuitPolicy::Yield,
            ActiveCircuitPolicy::Keep,
            ActiveCircuitPolicy::Preempt,
        ][active_ix];
        let cfg = OnlineConfig::default().active_policy(active).guard(
            guarded.then_some(GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40))),
        );
        for (name, policy) in policies(coflows.len()) {
            let policy: &dyn PriorityPolicy = policy.as_ref();

            // The uninterrupted reference run.
            let mut whole = OnlineStepper::new(&f, &cfg);
            for c in &coflows {
                whole.submit(c.clone()).expect("submit");
            }
            whole.run_to_idle(policy);

            // Interrupted run: stop at `cut_ms`, checkpoint, resume from
            // the snapshot (completions drained *before* the checkpoint
            // stay with the first half).
            let mut first = OnlineStepper::new(&f, &cfg);
            for c in &coflows {
                first.submit(c.clone()).expect("submit");
            }
            first.run_until(Time::from_millis(cut_ms), policy);
            let mut done = first.drain_completions();
            let snap = first.snapshot();
            drop(first);
            let mut second = OnlineStepper::restore(&snap);
            second.run_to_idle(policy);
            done.extend(second.drain_completions());

            prop_assert_eq!(
                observable(whole.drain_completions()),
                observable(done),
                "policy {} diverged after restore", name
            );
            prop_assert_eq!(whole.guard_windows(), second.guard_windows());
            prop_assert_eq!(whole.stats().events, second.stats().events);
            prop_assert!(second.is_idle());
        }
    }
}
