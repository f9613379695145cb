//! Property tests for the assignment-based schedulers and their executor:
//! every scheduler's output, executed under every switch model, drains
//! exactly the requested demand, never beats the lower bound, and the
//! all-stop model is never faster than not-all-stop.

use ocs_baselines::{execute, CircuitScheduler, ExecConfig, SwitchModel};
use ocs_model::{circuit_lower_bound, Bandwidth, Coflow, DemandMatrix, Dur, Fabric, Time};
use proptest::prelude::*;

fn arb_coflow() -> impl Strategy<Value = Coflow> {
    proptest::collection::btree_set((0usize..5, 0usize..5), 1..=10).prop_flat_map(|pairs| {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        let len = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(1u64..16_000_000, len),
        )
            .prop_map(|(pairs, sizes)| {
                let mut b = Coflow::builder(0);
                for (&(s, d), &z) in pairs.iter().zip(&sizes) {
                    b = b.flow(s, d, z);
                }
                b.build()
            })
    })
}

fn arb_fabric() -> impl Strategy<Value = Fabric> {
    prop_oneof![
        Just(Dur::ZERO),
        Just(Dur::from_millis(1)),
        Just(Dur::from_millis(10)),
    ]
    .prop_map(|delta| Fabric::new(5, Bandwidth::GBPS, delta))
}

const SCHEDULERS: [CircuitScheduler; 3] = [
    CircuitScheduler::Solstice,
    CircuitScheduler::Tms,
    CircuitScheduler::Edmond {
        slot: Dur::from_millis(50),
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The schedule covers the demand matrix: scheduled time on each
    /// circuit is at least the demand on it.
    #[test]
    fn schedules_cover_demand(coflow in arb_coflow(), fabric in arb_fabric()) {
        let demand = DemandMatrix::from_coflow(&coflow, &fabric);
        for sched in SCHEDULERS {
            let plan = sched.schedule(&demand);
            for (i, j, p) in demand.nonzero() {
                let scheduled: Dur = plan
                    .iter()
                    .filter(|ta| ta.assignment.contains(i, j))
                    .map(|ta| ta.duration)
                    .sum();
                prop_assert!(scheduled >= p, "{}: ({i},{j}) under-covered", sched.name());
            }
        }
    }

    /// Execution drains everything, reports a finish per entry, and never
    /// beats the theoretical lower bound.
    #[test]
    fn execution_is_sound(coflow in arb_coflow(), fabric in arb_fabric()) {
        for sched in SCHEDULERS {
            let o = sched.service_coflow(&coflow, &fabric, Time::ZERO);
            prop_assert_eq!(o.flow_finish.len(), coflow.num_flows());
            prop_assert!(o.finish >= *o.flow_finish.iter().max().expect("non-empty"));
            prop_assert!(
                o.cct(Time::ZERO) >= circuit_lower_bound(&coflow, &fabric),
                "{} beat T_cL",
                sched.name()
            );
        }
    }

    /// The all-stop switch model can only be slower: the same schedule
    /// executed with all circuits pausing on every reconfiguration.
    #[test]
    fn all_stop_is_never_faster(coflow in arb_coflow(), fabric in arb_fabric()) {
        for sched in SCHEDULERS {
            let nas = sched.service_coflow_with(
                &coflow, &fabric, Time::ZERO,
                ExecConfig { switch: SwitchModel::NotAllStop, early_advance: true },
            );
            let als = sched.service_coflow_with(
                &coflow, &fabric, Time::ZERO,
                ExecConfig { switch: SwitchModel::AllStop, early_advance: true },
            );
            prop_assert!(
                als.finish >= nas.finish,
                "{}: all-stop {} < not-all-stop {}",
                sched.name(), als.finish, nas.finish
            );
        }
    }

    /// Early-advance can only help (it removes idle tails; the demand is
    /// served either way).
    #[test]
    fn early_advance_never_hurts(coflow in arb_coflow(), fabric in arb_fabric()) {
        for sched in SCHEDULERS {
            let eager = sched.service_coflow_with(
                &coflow, &fabric, Time::ZERO,
                ExecConfig { switch: SwitchModel::NotAllStop, early_advance: true },
            );
            let strict = sched.service_coflow_with(
                &coflow, &fabric, Time::ZERO,
                ExecConfig { switch: SwitchModel::NotAllStop, early_advance: false },
            );
            prop_assert!(eager.finish <= strict.finish, "{}", sched.name());
        }
    }

    /// Raw executor conservation: a hand-fed square demand matrix is
    /// drained exactly once — each entry's segments add up to its demand
    /// and the last of them ends at its reported finish.
    #[test]
    fn executor_reports_consistent_segments(coflow in arb_coflow(), fabric in arb_fabric()) {
        let demand = DemandMatrix::from_coflow(&coflow, &fabric);
        let plan = CircuitScheduler::Solstice.schedule(&demand);
        let r = execute(&plan, &demand, fabric.delta(), ExecConfig::default(), Time::ZERO);
        prop_assert_eq!(r.entry_finish.len(), demand.num_nonzero());
        for (i, j, p) in demand.nonzero() {
            let segs: Vec<_> = r.segments.iter().filter(|s| (s.src, s.dst) == (i, j)).collect();
            let served: Dur = segs.iter().map(|s| s.tx_end.since(s.tx_start)).sum();
            prop_assert_eq!(served, p);
            prop_assert_eq!(segs.last().map(|s| s.tx_end), Some(r.entry_finish[&(i, j)]));
            // Segments on one circuit are ordered and disjoint.
            for w in segs.windows(2) {
                prop_assert!(w[0].tx_end <= w[1].tx_start);
            }
        }
    }
}
