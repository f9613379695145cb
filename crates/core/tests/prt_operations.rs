//! Property tests over randomized Port Reservation Table operation
//! sequences: the PRT's invariants must survive any legal interleaving of
//! reserves and truncations. The [`RefTable`] model, kept in step, decides
//! which reservations are legal.

mod common;

use common::RefTable;
use ocs_model::{validate_port_constraints, FlowRef, Reservation, Time};
use proptest::prelude::*;
use sunflow_core::{Prt, ResvKind};

#[derive(Clone, Debug)]
enum Op {
    /// Try to reserve (src, dst, start_ms, len_ms); skipped if illegal.
    Reserve(usize, usize, u64, u64),
    /// Truncate the future at now_ms, keeping in-flight circuits.
    TruncateKeep(u64),
    /// Truncate the future at now_ms, cutting in-flight circuits.
    TruncateCut(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..4, 0usize..4, 0u64..200, 1u64..60)
                .prop_map(|(s, d, t, l)| Op::Reserve(s, d, t, l)),
            (0u64..250).prop_map(Op::TruncateKeep),
            (0u64..250).prop_map(Op::TruncateCut),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any operation sequence, the set of flow reservations still
    /// satisfies the optical port constraint, and the PRT's queries are
    /// consistent with its contents.
    #[test]
    fn invariants_survive_random_operations(ops in arb_ops()) {
        let mut prt = Prt::new(4);
        let mut model = RefTable::default();
        for (flow_idx, op) in ops.into_iter().enumerate() {
            match op {
                Op::Reserve(src, dst, t, l) => {
                    let start = Time::from_millis(t);
                    let end = Time::from_millis(t + l);
                    if model.legal(src, dst, start, end) {
                        let flow = FlowRef { coflow: 1, flow_idx };
                        prt.reserve(src, dst, start, end, ResvKind::Flow(flow));
                        model.reserve(src, dst, start, end, flow);
                    }
                }
                Op::TruncateKeep(t) => {
                    prt.truncate_future(Time::from_millis(t), true);
                    model.truncate_future(Time::from_millis(t), true);
                }
                Op::TruncateCut(t) => {
                    prt.truncate_future(Time::from_millis(t), false);
                    model.truncate_future(Time::from_millis(t), false);
                }
            }
            // Core invariant: non-overlap on every port.
            let rs: Vec<Reservation> = prt.iter_reservations().collect();
            prop_assert!(validate_port_constraints(&rs).is_ok());

            // Query consistency: every reservation blocks its ports at
            // its start and frees them at its end.
            for r in &rs {
                prop_assert!(!prt.in_probe(r.src, r.start).free);
                prop_assert!(!prt.out_probe(r.dst, r.start).free);
            }

            // Release bookkeeping: the earliest release after t over all
            // ports is the minimum end > t over the actual reservations.
            let t0 = Time::from_millis(100);
            let expect = rs.iter().map(|r| r.end).filter(|&e| e > t0).min();
            let got = (0..4).filter_map(|p| prt.in_probe(p, t0).next_release).min();
            prop_assert_eq!(got, expect);
        }
    }

    /// truncate_future reports exactly what it removed: re-adding the
    /// removed future reservations restores legality (they were legal
    /// before, nothing else occupies their slots).
    #[test]
    fn truncation_report_is_faithful(ops in arb_ops(), cut_ms in 0u64..250) {
        let mut prt = Prt::new(4);
        let mut model = RefTable::default();
        for (flow_idx, op) in ops.iter().enumerate() {
            if let Op::Reserve(src, dst, t, l) = *op {
                let start = Time::from_millis(t);
                let end = Time::from_millis(t + l);
                if model.legal(src, dst, start, end) {
                    let flow = FlowRef { coflow: 1, flow_idx };
                    prt.reserve(src, dst, start, end, ResvKind::Flow(flow));
                    model.reserve(src, dst, start, end, flow);
                }
            }
        }
        let before = prt.iter_reservations().count();
        let now = Time::from_millis(cut_ms);
        let removed = prt.truncate_future(now, true);
        let after = prt.iter_reservations().count();
        prop_assert_eq!(before, after + removed.len());
        // Everything reported as removed was indeed entirely in the future.
        for r in &removed {
            prop_assert!(r.start >= now);
        }
        // And the removed slots are free again.
        for r in &removed {
            prop_assert!(prt.in_probe(r.src, r.start).free);
            prop_assert!(prt.out_probe(r.dst, r.start).free);
        }
    }
}
