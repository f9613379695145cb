//! Equivalence tests for the port-scoped Algorithm 1 engine: the
//! wake-subscription `schedule_demands` must reproduce the
//! rescan-everything reference loop ([`ref_schedule_demands`], planning
//! on the [`RefTable`] model) byte for byte, on a table holding the same
//! higher-priority obstacles.

mod common;

use common::{ref_schedule_demands, RefTable};
use ocs_model::{Dur, FlowRef, Time};
use proptest::prelude::*;
use sunflow_core::{
    schedule_demands, schedule_demands_counted, Demand, FlowOrder, Prt, ResvKind, SunflowConfig,
};

const PORTS: usize = 4;

/// A [`Prt`] and a [`RefTable`] holding the same obstacles of Coflow 99:
/// each `(src, dst, start_ms, len_ms)` the model finds legal.
fn obstacle_tables(ports: usize, obstacles: &[(usize, usize, u64, u64)]) -> (Prt, RefTable) {
    let mut prt = Prt::new(ports);
    let mut model = RefTable::default();
    for (flow_idx, &(src, dst, t, l)) in obstacles.iter().enumerate() {
        let (start, end) = (Time::from_millis(t), Time::from_millis(t + l));
        if model.legal(src, dst, start, end) {
            let flow = FlowRef {
                coflow: 99,
                flow_idx,
            };
            prt.reserve(src, dst, start, end, ResvKind::Flow(flow));
            model.reserve(src, dst, start, end, flow);
        }
    }
    (prt, model)
}

fn demands_of(demands: &[(usize, usize, u64)]) -> Vec<Demand> {
    demands
        .iter()
        .enumerate()
        .map(|(flow_idx, &(src, dst, ms))| Demand {
            flow_idx,
            src,
            dst,
            remaining: Dur::from_millis(ms),
        })
        .collect()
}

/// A fixed contended table — gaps shorter than δ, releases on ports no
/// demand uses — under every demand ordering.
#[test]
fn indexed_and_naive_schedules_are_byte_identical() {
    let delta = Dur::from_millis(10);
    let obstacles = [(0, 1, 5, 30), (1, 0, 20, 6), (2, 2, 0, 90), (5, 5, 3, 4)];
    let demands = demands_of(&[
        (0, 1, 40),
        (0, 2, 15),
        (1, 0, 25),
        (2, 1, 10),
        (3, 3, 30),
        (1, 1, 5),
    ]);
    for order in [
        FlowOrder::OrderedPort,
        FlowOrder::SortedDemand,
        FlowOrder::Random { seed: 11 },
    ] {
        let cfg = SunflowConfig::default().order(order);
        let (mut prt, mut model) = obstacle_tables(6, &obstacles);
        let (fast, counters) =
            schedule_demands_counted(&mut prt, 7, &demands, Time::ZERO, delta, cfg);
        let reference = ref_schedule_demands(&mut model, 7, &demands, Time::ZERO, delta, cfg);
        assert_eq!(fast, reference, "reservations diverge under {order:?}");
        assert_eq!(
            prt.all_reservations(),
            model.table(),
            "tables diverge under {order:?}"
        );
        assert!(counters.demands_scanned > 0 && counters.releases_visited > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The port-scoped Algorithm 1 must produce byte-identical
    /// reservations (same order, same starts, same ends) and leave the
    /// table in the same state as the reference loop, for every demand
    /// ordering and with or without quantized demands.
    #[test]
    fn indexed_schedule_matches_naive(
        obstacles in proptest::collection::vec(
            (0usize..PORTS, 0usize..PORTS, 0u64..150, 1u64..50),
            0..12,
        ),
        demands in proptest::collection::vec(
            (0usize..PORTS, 0usize..PORTS, 1u64..40),
            1..8,
        ),
        start_ms in 0u64..100,
        order_pick in 0usize..3,
        quantum_ms in 0u64..20, // 0 = exact demands, otherwise the quantum
    ) {
        let (mut prt, mut model) = obstacle_tables(PORTS, &obstacles);
        let demands = demands_of(&demands);
        let order = [
            FlowOrder::OrderedPort,
            FlowOrder::SortedDemand,
            FlowOrder::Random { seed: 7 },
        ][order_pick];
        let config = SunflowConfig::default()
            .order(order)
            .quantum((quantum_ms > 0).then(|| Dur::from_millis(quantum_ms)));
        let start = Time::from_millis(start_ms);
        let delta = Dur::from_millis(10);

        let made = schedule_demands(&mut prt, 0, &demands, start, delta, config);
        let reference = ref_schedule_demands(&mut model, 0, &demands, start, delta, config);
        prop_assert_eq!(made, reference, "reservation streams diverged");
        prop_assert_eq!(
            prt.all_reservations(),
            model.table(),
            "engine and reference loop left different tables"
        );
    }
}
