//! Equivalence property tests for the per-Coflow reservation index and
//! the tail-walking `truncate_future` fast path: after any legal
//! sequence of reserves, truncations and cuts across several Coflows,
//!
//! * the union of `future_reservations_of` from the origin over all
//!   Coflows must equal `flow_reservations()` (the full-table scan),
//! * `last_end_of` must agree with the naive max-scan, and
//! * `truncate_future` must leave the table in exactly the state the
//!   naive collect-every-key reference (`naive_truncate_future`) does,
//!   reporting the same removed set.

use ocs_model::{FlowRef, Reservation, Time};
use proptest::prelude::*;
use sunflow_core::{Prt, ResvKind};

const COFLOWS: u64 = 5;

#[derive(Clone, Debug)]
enum Op {
    /// Try to reserve (coflow, src, dst, start_ms, len_ms); skipped if
    /// illegal.
    Reserve(u64, usize, usize, u64, u64),
    /// Truncate the future at now_ms; the flag keeps in-flight circuits.
    Truncate(u64, bool),
    /// Cut the k-th in-flight reservation (if any) at now_ms.
    Cut(usize, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..COFLOWS, 0usize..4, 0usize..4, 0u64..200, 1u64..60)
                .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l)),
            (0u64..COFLOWS, 0usize..4, 0usize..4, 0u64..200, 1u64..60)
                .prop_map(|(c, s, d, t, l)| Op::Reserve(c, s, d, t, l)),
            (0u64..250, any::<bool>()).prop_map(|(t, k)| Op::Truncate(t, k)),
            (0usize..8, 1u64..250).prop_map(|(k, t)| Op::Cut(k, t)),
        ],
        1..60,
    )
}

fn legal_reserve(prt: &Prt, src: usize, dst: usize, start: Time, end: Time) -> bool {
    prt.in_free_at(src, start)
        && prt.out_free_at(dst, start)
        && end <= prt.in_next_start_after(src, start)
        && end <= prt.out_next_start_after(dst, start)
}

fn by_port_order(mut v: Vec<Reservation>) -> Vec<Reservation> {
    v.sort_by_key(|r| (r.src, r.start));
    v
}

/// The index must partition the full scan: per-Coflow slices contain only
/// that Coflow, their union is everything, and the latest-end shortcut
/// agrees with the naive max.
fn assert_index_agreement(prt: &Prt) -> Result<(), TestCaseError> {
    let mut union: Vec<Reservation> = Vec::new();
    for c in 0..COFLOWS {
        let of_c: Vec<Reservation> = prt.future_reservations_of(c, Time::ZERO).collect();
        for r in &of_c {
            prop_assert_eq!(r.flow.coflow, c, "index leaked a foreign reservation");
        }
        prop_assert_eq!(
            prt.last_end_of(c),
            prt.naive_last_end_of(c),
            "last_end_of({}) diverged from the naive max",
            c
        );
        union.extend(of_c);
    }
    prop_assert_eq!(
        by_port_order(union),
        by_port_order(prt.flow_reservations()),
        "union over coflows is not the whole table"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every mutation the incremental per-Coflow index answers
    /// exactly like the full-table scans, and the backward-walking
    /// truncation matches the naive reference op-for-op (same removed
    /// list, same surviving table).
    #[test]
    fn index_and_truncation_match_naive(ops in arb_ops()) {
        let mut prt = Prt::new(4);
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
                    let now = Time::from_millis(t);
                    let mut reference = prt.clone();
                    let removed_naive = reference.naive_truncate_future(now, keep_active);
                    let removed_fast = prt.truncate_future(now, keep_active);
                    prop_assert_eq!(
                        removed_fast,
                        removed_naive,
                        "truncate_future({:?}, {}) removed a different set",
                        now,
                        keep_active
                    );
                    prop_assert_eq!(
                        prt.all_reservations(),
                        reference.all_reservations(),
                        "fast and naive truncation left different tables"
                    );
                }
                Op::Cut(k, t) => {
                    let now = Time::from_millis(t);
                    let in_flight: Vec<Reservation> = prt
                        .flow_reservations()
                        .into_iter()
                        .filter(|r| r.start < now && now < r.end)
                        .collect();
                    if !in_flight.is_empty() {
                        let r = &in_flight[k % in_flight.len()];
                        prt.cut_reservation(r.src, r.start, now);
                    }
                }
            }
            assert_index_agreement(&prt).unwrap();
        }
    }
}
