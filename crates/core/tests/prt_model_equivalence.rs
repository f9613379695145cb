//! The Port Reservation Table against its reference model: one random
//! operation sequence drives a [`Prt`] and a [`RefTable`] together. The
//! model decides which reservations are legal. After every operation
//! every port's probe (tail cache and map walks), the per-Coflow index
//! (`last_end_of`, `future_reservations_of`), the removed lists and the
//! whole table must answer exactly as the model's linear scans do.
//!
//! Three op mixes share that check: every operation across five Coflows,
//! one Coflow's reserves and global truncations (the tail-cache regime),
//! and longer reserve-heavy runs across Coflows with no retirement (the
//! per-Coflow index and backward-walking truncation on larger tables).

mod common;

use common::RefTable;
use ocs_model::{FlowRef, Time};
use proptest::prelude::*;
use sunflow_core::{Prt, ResvKind};

const COFLOWS: u64 = 5;
const PORTS: usize = 4;

#[derive(Clone, Debug)]
enum Op {
    /// Try to reserve (coflow, src, dst, start_ms, len_ms); skipped if
    /// the model finds it illegal.
    Reserve(u64, usize, usize, u64, u64),
    /// Truncate the future at now_ms; the first flag keeps in-flight
    /// circuits, the second asks only for the count.
    Truncate(u64, bool, bool),
    /// Truncate one Coflow's future at now_ms.
    TruncateOf(u64, u64),
    /// Cut the k-th in-flight reservation (if any) at now_ms.
    Cut(usize, u64),
    /// Retire the history that ended by cutoff_ms.
    Forget(u64),
}

fn arb_reserve(coflows: u64) -> impl Strategy<Value = Op> {
    (0..coflows, 0..PORTS, 0..PORTS, 0u64..200, 1u64..60)
        .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l))
}

/// Every operation, across all Coflows.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_reserve(COFLOWS),
            arb_reserve(COFLOWS),
            arb_reserve(COFLOWS),
            (0u64..250, any::<bool>(), any::<bool>()).prop_map(|(t, k, n)| Op::Truncate(t, k, n)),
            (0..COFLOWS, 0u64..250).prop_map(|(c, t)| Op::TruncateOf(c, t)),
            (0usize..8, 1u64..250).prop_map(|(k, t)| Op::Cut(k, t)),
            (0u64..250).prop_map(Op::Forget),
        ],
        1..50,
    )
}

/// One Coflow's reserves against global truncations (keep and cut),
/// cuts and retirement: every port's answer comes from the tail cache
/// or a map walk, never from the per-Coflow index.
fn arb_single_coflow_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_reserve(1),
            (0u64..250).prop_map(|t| Op::Truncate(t, true, false)),
            (0u64..250).prop_map(|t| Op::Truncate(t, false, false)),
            (0usize..8, 1u64..250).prop_map(|(k, t)| Op::Cut(k, t)),
            (0u64..250).prop_map(Op::Forget),
        ],
        1..50,
    )
}

/// Longer reserve-heavy runs across Coflows with global truncations and
/// cuts but no retirement, so the index and the truncation walk meet
/// fuller tables.
fn arb_index_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            arb_reserve(COFLOWS),
            arb_reserve(COFLOWS),
            (0u64..250, any::<bool>()).prop_map(|(t, k)| Op::Truncate(t, k, false)),
            (0usize..8, 1u64..250).prop_map(|(k, t)| Op::Cut(k, t)),
        ],
        1..60,
    )
}

/// Every query of `prt` against `model`: both probes of every port on a
/// grid over the reachable range and at every reservation boundary (the
/// half-open edges, where an off-by-one hides), the per-Coflow queries
/// from several instants, and the whole table.
fn assert_agree(prt: &Prt, model: &RefTable) {
    let table = model.table();
    let boundaries = table.iter().flat_map(|r| [r.start, r.end]);
    let instants: Vec<Time> = (0..=280)
        .step_by(7)
        .map(Time::from_millis)
        .chain(boundaries)
        .collect();
    for p in 0..PORTS {
        for &t in &instants {
            assert_eq!(
                prt.in_probe(p, t),
                model.in_probe(p, t),
                "in_probe({}, {:?})",
                p,
                t
            );
            assert_eq!(
                prt.out_probe(p, t),
                model.out_probe(p, t),
                "out_probe({}, {:?})",
                p,
                t
            );
        }
    }
    for c in 0..COFLOWS {
        assert_eq!(
            prt.last_end_of(c),
            model.last_end_of(c),
            "last_end_of({})",
            c
        );
        for now in [0u64, 60, 120, 200].map(Time::from_millis) {
            let fast: Vec<_> = prt.future_reservations_of(c, now).collect();
            assert_eq!(
                fast,
                model.future_reservations_of(c, now),
                "future_reservations_of({}, {:?})",
                c,
                now
            );
        }
    }
    assert_eq!(prt.all_reservations(), table, "whole table");
}

/// Apply `ops` to a [`Prt`] and a [`RefTable`] in step, reserving only
/// what the model finds legal, and check that every mutation removes
/// what the model removes and that every query agrees afterwards.
fn run(ops: Vec<Op>) {
    let mut prt = Prt::new(PORTS);
    let mut model = RefTable::default();
    for (flow_idx, op) in ops.into_iter().enumerate() {
        match op {
            Op::Reserve(coflow, src, dst, t, l) => {
                let (start, end) = (Time::from_millis(t), Time::from_millis(t + l));
                if model.legal(src, dst, start, end) {
                    let flow = FlowRef { coflow, flow_idx };
                    prt.reserve(src, dst, start, end, ResvKind::Flow(flow));
                    model.reserve(src, dst, start, end, flow);
                }
            }
            Op::Truncate(t, keep_active, count_only) => {
                let now = Time::from_millis(t);
                let expect = model.truncate_future(now, keep_active);
                if count_only {
                    let n = prt.truncate_future_count(now, keep_active);
                    assert_eq!(n, expect.len() as u64, "truncate_future_count");
                } else {
                    let got = prt.truncate_future(now, keep_active);
                    assert_eq!(got, expect, "truncate_future({:?}, {})", now, keep_active);
                }
            }
            Op::TruncateOf(coflow, t) => {
                let now = Time::from_millis(t);
                assert_eq!(
                    prt.truncate_future_of(coflow, now),
                    model.truncate_future_of(coflow, now),
                    "truncate_future_of({}, {:?})",
                    coflow,
                    now
                );
            }
            Op::Cut(k, t) => {
                let now = Time::from_millis(t);
                let in_flight = model.in_flight(now);
                if !in_flight.is_empty() {
                    let (src, _, start, _, _) = in_flight[k % in_flight.len()];
                    prt.cut_reservation(src, start, now);
                    model.cut(src, start, now);
                }
            }
            Op::Forget(t) => {
                let cutoff = Time::from_millis(t);
                assert_eq!(
                    prt.forget_before(cutoff),
                    model.forget_before(cutoff),
                    "forget_before({:?})",
                    cutoff
                );
            }
        }
        assert_agree(&prt, &model);
    }
}

fn t(ms: u64) -> Time {
    Time::from_millis(ms)
}

fn flow_of(coflow: u64, flow_idx: usize) -> FlowRef {
    FlowRef { coflow, flow_idx }
}

/// Past, straddling and future reservations truncated at 20 ms, keeping
/// and cutting the in-flight one: the table removes and keeps exactly
/// what the model does.
#[test]
fn fast_and_naive_truncation_agree() {
    let rows = [
        (0, 0, 0, 10, flow_of(1, 0)),  // past
        (0, 1, 12, 40, flow_of(1, 1)), // straddles 20
        (1, 2, 20, 30, flow_of(2, 0)), // future
        (1, 3, 35, 45, flow_of(2, 1)), // future
        (2, 2, 50, 60, flow_of(3, 0)), // future
    ];
    for keep in [true, false] {
        let mut prt = Prt::new(PORTS);
        let mut model = RefTable::default();
        for &(src, dst, start, end, flow) in &rows {
            prt.reserve(src, dst, t(start), t(end), ResvKind::Flow(flow));
            model.reserve(src, dst, t(start), t(end), flow);
        }
        assert_eq!(
            prt.truncate_future(t(20), keep),
            model.truncate_future(t(20), keep),
            "removed lists diverge (keep_active={keep})"
        );
        assert_agree(&prt, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reserves, global and per-Coflow truncations, cuts and history
    /// retirement leave the table answering exactly like the model, and
    /// each mutation reports exactly what the model removed.
    #[test]
    fn prt_matches_the_reference_table(ops in arb_ops()) {
        run(ops);
    }

    /// One Coflow's table: the cached probes answer like the model's
    /// scans after every reserve, truncation, cut and retirement.
    #[test]
    fn cached_queries_match_naive_scan(ops in arb_single_coflow_ops()) {
        run(ops);
    }

    /// Fuller multi-Coflow tables: the per-Coflow index and the
    /// truncation walk answer like the model op for op.
    #[test]
    fn index_and_truncation_match_naive(ops in arb_index_ops()) {
        run(ops);
    }
}
