//! Property-based tests of Sunflow's proven guarantees.
//!
//! Lemma 1 of the paper: `T_S <= 2 * T_cL` for any bandwidth `B`, any
//! reconfiguration delay `δ`, any Coflow and any ordering of scheduled
//! circuits. Because the whole circuit-side pipeline uses exact integer
//! picoseconds, the bound is asserted with no epsilon.

use ocs_model::{
    circuit_lower_bound, lemma1_holds, lemma2_holds, served_per_flow, validate_port_constraints,
    Bandwidth, Coflow, Dur, Fabric, FlowRef,
};
use proptest::prelude::*;
use sunflow_core::{FlowOrder, IntraScheduler, SunflowConfig};

/// A generated Coflow: up to 8x8 ports, 1..=16 flows, 1 byte..64 MB each.
fn arb_coflow(id: u64) -> impl Strategy<Value = Coflow> {
    proptest::collection::btree_set((0usize..8, 0usize..8), 1..=16).prop_flat_map(move |pairs| {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        let len = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(1u64..64_000_000, len),
        )
            .prop_map(move |(pairs, sizes)| {
                let mut b = Coflow::builder(id);
                for (&(s, d), &z) in pairs.iter().zip(&sizes) {
                    b = b.flow(s, d, z);
                }
                b.build()
            })
    })
}

fn arb_fabric() -> impl Strategy<Value = Fabric> {
    (
        prop_oneof![
            Just(Dur::ZERO),
            Just(Dur::from_micros(10)),
            Just(Dur::from_millis(1)),
            Just(Dur::from_millis(10)),
            Just(Dur::from_millis(100)),
        ],
        prop_oneof![Just(1u64), Just(10), Just(100)],
    )
        .prop_map(|(delta, gbps)| Fabric::new(8, Bandwidth::from_gbps(gbps), delta))
}

fn arb_order() -> impl Strategy<Value = FlowOrder> {
    prop_oneof![
        Just(FlowOrder::OrderedPort),
        Just(FlowOrder::SortedDemand),
        any::<u64>().prop_map(|seed| FlowOrder::Random { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 1 + schedule validity + exact demand satisfaction, across
    /// bandwidths, deltas and orderings.
    #[test]
    fn lemma1_and_validity(coflow in arb_coflow(0), fabric in arb_fabric(), order in arb_order()) {
        let s = IntraScheduler::new(&fabric, SunflowConfig::default().order(order)).schedule(&coflow);

        // The optical port constraint always holds.
        prop_assert!(validate_port_constraints(s.reservations()).is_ok());

        // Lemma 1, exactly.
        prop_assert!(lemma1_holds(s.cct(), &coflow, &fabric),
            "CCT {} > 2 * T_cL {}", s.cct(), circuit_lower_bound(&coflow, &fabric));

        // And the trivial lower bound: no schedule beats T_cL.
        prop_assert!(s.cct() >= circuit_lower_bound(&coflow, &fabric));

        // Lemma 2 (via alpha).
        prop_assert!(lemma2_holds(s.cct(), &coflow, &fabric));

        // Every flow receives exactly its processing time.
        let served = served_per_flow(s.reservations(), fabric.delta());
        for (idx, f) in coflow.flows().iter().enumerate() {
            let key = FlowRef { coflow: 0, flow_idx: idx };
            prop_assert_eq!(served[&key], fabric.processing_time(f.bytes));
        }
    }

    /// Offline, every subflow costs exactly one circuit setup — the
    /// Figure 5 optimality of Sunflow's switching count.
    #[test]
    fn offline_switching_is_minimal(coflow in arb_coflow(0), fabric in arb_fabric()) {
        let s = IntraScheduler::new(&fabric, SunflowConfig::default()).schedule(&coflow);
        prop_assert_eq!(s.circuit_setups(), coflow.num_flows() as u64);
    }
}
