//! Equivalence property tests for the port-scoped scheduling machinery:
//! the per-port release queries and the dirty-port indexed
//! `schedule_demands` must answer exactly like their scan-everything
//! `naive_*` twins after any legal mutation sequence.
//!
//! Compiled against the `naive-twins` feature via the crate's
//! self-dev-dependency, like `prt_index_equivalence.rs`.

use ocs_model::{Dur, FlowRef, Time};
use proptest::prelude::*;
use sunflow_core::{schedule_demands, Demand, FlowOrder, Prt, ResvKind, SunflowConfig};

const COFLOWS: u64 = 5;
const PORTS: usize = 4;

#[derive(Clone, Debug)]
enum Op {
    /// Try to reserve (coflow, src, dst, start_ms, len_ms); skipped if
    /// illegal.
    Reserve(u64, usize, usize, u64, u64),
    /// Truncate the future at now_ms; the flag keeps in-flight circuits.
    Truncate(u64, bool),
    /// Cut the k-th in-flight reservation (if any) at now_ms.
    Cut(usize, u64),
    /// Truncate only one Coflow's future at now_ms.
    TruncateOf(u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (
                0u64..COFLOWS,
                0usize..PORTS,
                0usize..PORTS,
                0u64..200,
                1u64..60
            )
                .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l)),
            (
                0u64..COFLOWS,
                0usize..PORTS,
                0usize..PORTS,
                0u64..200,
                1u64..60
            )
                .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l)),
            (
                0u64..COFLOWS,
                0usize..PORTS,
                0usize..PORTS,
                0u64..200,
                1u64..60
            )
                .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l)),
            (0u64..250, any::<bool>()).prop_map(|(t, k)| Op::Truncate(t, k)),
            (0usize..8, 1u64..250).prop_map(|(k, t)| Op::Cut(k, t)),
            (0u64..COFLOWS, 0u64..250).prop_map(|(c, t)| Op::TruncateOf(c, t)),
        ],
        1..50,
    )
}

fn legal_reserve(prt: &Prt, src: usize, dst: usize, start: Time, end: Time) -> bool {
    prt.in_free_at(src, start)
        && prt.out_free_at(dst, start)
        && end <= prt.in_next_start_after(src, start)
        && end <= prt.out_next_start_after(dst, start)
}

/// Per-port release queries must agree with the full scans at a spread
/// of probe times.
fn assert_scoped_queries_agree(prt: &Prt) -> Result<(), TestCaseError> {
    let probes = [0u64, 1, 50, 100, 199, 260].map(Time::from_millis);
    for p in 0..PORTS {
        for t in probes {
            prop_assert_eq!(
                prt.in_next_release_after(p, t),
                prt.naive_in_next_release_after(p, t),
                "in-release query diverged on port {} at {:?}",
                p,
                t
            );
            prop_assert_eq!(
                prt.out_next_release_after(p, t),
                prt.naive_out_next_release_after(p, t),
                "out-release query diverged on port {} at {:?}",
                p,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-port release queries stay in sync with the table through
    /// reserves, truncations (global and per-Coflow) and cuts.
    #[test]
    fn scoped_queries_match_naive(ops in arb_ops()) {
        let mut prt = Prt::new(PORTS);
        let mut flow_counter = 0usize;
        for op in ops {
            match op {
                Op::Reserve(coflow, src, dst, t, l) => {
                    let start = Time::from_millis(t);
                    let end = Time::from_millis(t + l);
                    if legal_reserve(&prt, src, dst, start, end) {
                        flow_counter += 1;
                        prt.reserve(
                            src,
                            dst,
                            start,
                            end,
                            ResvKind::Flow(FlowRef { coflow, flow_idx: flow_counter }),
                        );
                    }
                }
                Op::Truncate(t, keep_active) => {
                    prt.truncate_future(Time::from_millis(t), keep_active);
                }
                Op::Cut(k, t) => {
                    let now = Time::from_millis(t);
                    let in_flight: Vec<_> = prt
                        .flow_reservations()
                        .into_iter()
                        .filter(|r| r.start < now && now < r.end)
                        .collect();
                    if !in_flight.is_empty() {
                        let r = &in_flight[k % in_flight.len()];
                        prt.cut_reservation(r.src, r.start, now);
                    }
                }
                Op::TruncateOf(coflow, t) => {
                    let now = Time::from_millis(t);
                    let before = prt.flow_reservations();
                    let removed = prt.truncate_future_of(coflow, now);
                    // Scoped truncation drops exactly this Coflow's
                    // future reservations and nothing else.
                    for r in &removed {
                        let ResvKind::Flow(f) = r.kind;
                        prop_assert_eq!(f.coflow, coflow);
                        prop_assert!(r.start >= now);
                    }
                    let survivors = prt.flow_reservations();
                    prop_assert_eq!(
                        survivors.len() + removed.len(),
                        before.len(),
                        "scoped truncation lost or duplicated reservations"
                    );
                    prop_assert!(
                        survivors.iter().all(|r| r.flow.coflow != coflow || r.start < now),
                        "a future reservation of the truncated coflow survived"
                    );
                    let foreign = |rs: &[ocs_model::Reservation]| {
                        let mut v: Vec<_> =
                            rs.iter().filter(|r| r.flow.coflow != coflow).copied().collect();
                        v.sort_by_key(|r| (r.src, r.start));
                        v
                    };
                    prop_assert_eq!(
                        foreign(&survivors),
                        foreign(&before),
                        "scoped truncation touched another coflow"
                    );
                }
            }
            assert_scoped_queries_agree(&prt).unwrap();
        }
    }

    /// The dirty-port indexed Algorithm 1 must produce byte-identical
    /// reservations (same order, same starts, same ends) and leave the
    /// table in the same state as the scan-everything reference, for
    /// every demand ordering and with or without quantized demands.
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
        let mut prt = Prt::new(PORTS);
        let mut flow_counter = 0usize;
        for (src, dst, t, l) in obstacles {
            let s = Time::from_millis(t);
            let e = Time::from_millis(t + l);
            if legal_reserve(&prt, src, dst, s, e) {
                flow_counter += 1;
                prt.reserve(
                    src,
                    dst,
                    s,
                    e,
                    ResvKind::Flow(FlowRef { coflow: 99, flow_idx: flow_counter }),
                );
            }
        }
        let demands: Vec<Demand> = demands
            .into_iter()
            .enumerate()
            .map(|(fi, (src, dst, ms))| Demand {
                flow_idx: fi,
                src,
                dst,
                remaining: Dur::from_millis(ms),
            })
            .collect();
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

        let mut fast = prt.clone();
        let mut naive = prt;
        let made_fast = schedule_demands(&mut fast, 0, &demands, start, delta, config);
        let made_naive =
            sunflow_core::intra::naive_schedule_demands(&mut naive, 0, &demands, start, delta, config);
        prop_assert_eq!(made_fast, made_naive, "reservation streams diverged");
        prop_assert_eq!(
            fast.all_reservations(),
            naive.all_reservations(),
            "indexed and naive schedulers left different tables"
        );
    }
}
