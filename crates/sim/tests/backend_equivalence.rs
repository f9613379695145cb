//! Equivalence of the unified engine's aggregated circuit replay with
//! the offline per-Coflow service path (satellite of the
//! `SchedulingBackend` refactor): for a *singleton* workload there is
//! nothing to aggregate, so `simulate_circuit_aggregated` — a
//! `CircuitBackend` run through the unified loop — must reproduce
//! `CircuitScheduler::service_coflow` exactly: same compaction, same
//! plan, same switch arithmetic, same drain instants.
//!
//! Flows are generated on *distinct* (src, dst) pairs: when two flows of
//! one Coflow share a circuit, the offline path reports one combined
//! drain time for both while FIFO attribution orders them — the replays
//! still agree on the Coflow's finish, but not per flow.
//!
//! The Coflows are wide (up to 40 circuits on 10 ports) and heavy-tailed
//! (one flow in five up to 400 MB, the rest up to 16 MB): that is where
//! an early-advanced window ends before a newly set-up circuit can
//! transmit, and both paths must then agree that the port holds the new
//! circuit (a later assignment returning to the old one pays `δ`).

use ocs_baselines::CircuitScheduler;
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::simulate_circuit_aggregated;
use proptest::prelude::*;

const PORTS: usize = 10;

fn arb_singleton() -> impl Strategy<Value = Coflow> {
    (
        proptest::collection::btree_set((0..PORTS, 0..PORTS), 1..=40),
        proptest::collection::vec((0u8..5, 1u64..400_000_000, 1u64..16_000_000), 40),
    )
        .prop_map(|(pairs, sizes)| {
            let mut b = Coflow::builder(0);
            for (&(s, d), &(tail, big, small)) in pairs.iter().zip(&sizes) {
                b = b.flow(s, d, if tail == 0 { big } else { small });
            }
            b.build()
        })
}

fn fabric() -> Fabric {
    Fabric::new(PORTS, Bandwidth::GBPS, Dur::from_millis(10))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn aggregated_singleton_matches_service_coflow(c in arb_singleton()) {
        let f = fabric();
        for sched in [
            CircuitScheduler::Solstice,
            CircuitScheduler::Tms,
            CircuitScheduler::edmond_default(),
        ] {
            let agg = simulate_circuit_aggregated(std::slice::from_ref(&c), &f, sched);
            let svc = sched.service_coflow(&c, &f, Time::ZERO);
            prop_assert_eq!(
                agg[0].finish, svc.finish,
                "{}: finish diverged", sched.name()
            );
            prop_assert_eq!(
                &agg[0].flow_finish, &svc.flow_finish,
                "{}: flow finishes diverged", sched.name()
            );
        }
    }
}
