//! The §4.2 guard timetable as arithmetic must be indistinguishable from
//! the representation it replaced: every window written into the table
//! as a reservation on each of its circuits.
//!
//! The oracle is an *unguarded* [`Prt`] into which the test reserves the
//! windows of [`StarvationGuard::window`] as ordinary flow reservations
//! of a reserved Coflow id. Against it, a guarded table must
//!
//! * make Algorithm 1 lay byte-identical plans,
//! * answer every port probe identically at random instants and at the
//!   window edges, and
//! * do both again through a [`DeltaView`] with one Coflow hidden — the
//!   masked-port path, which answers from a compacted copy of the base's
//!   entries rather than from the base itself.

use ocs_model::{Dur, FlowRef, Time};
use proptest::prelude::*;
use sunflow_core::{
    schedule_demands_on, DeltaStorage, DeltaView, Demand, GuardConfig, PlanTable, Prt, ResvKind,
    ScheduleScratch, StarvationGuard, SunflowConfig,
};

/// The Coflow id the oracle's window reservations are filed under.
const WINDOWS: u64 = u64::MAX;
const DELTA: Dur = Dur::from_millis(1);
/// The oracle's windows stand this far; every plan must end well before.
const UNTIL: Time = Time::from_millis(8_000);

fn ms(v: u64) -> Time {
    Time::from_millis(v)
}

/// The unguarded table holding `guard`'s windows through [`UNTIL`].
fn oracle_table(ports: usize, guard: &StarvationGuard) -> Prt {
    let mut prt = Prt::new(ports);
    for m in 0.. {
        let w = guard.window(m);
        if w.start >= UNTIL {
            break;
        }
        for &(i, j) in w.assignment.pairs() {
            let flow = FlowRef {
                coflow: WINDOWS,
                flow_idx: m as usize * ports + i,
            };
            prt.reserve(i, j, w.start, w.end, ResvKind::Flow(flow));
        }
    }
    prt
}

/// A view over `base` at `now` with `hidden`'s future masked.
fn sealed_view(base: &Prt, now: Time, hidden: u64) -> DeltaView<'_> {
    let mut view = DeltaView::new(base, now, DeltaStorage::default());
    view.hide_future_of(hidden);
    view.seal();
    view
}

fn assert_probes_agree<A: PlanTable, B: PlanTable>(
    guarded: &A,
    oracle: &B,
    ports: usize,
    instants: &[Time],
) -> Result<(), TestCaseError> {
    for &t in instants {
        for p in 0..ports {
            prop_assert_eq!(
                guarded.in_probe(p, t),
                oracle.in_probe(p, t),
                "in.{} at {:?}",
                p,
                t
            );
            prop_assert_eq!(
                guarded.out_probe(p, t),
                oracle.out_probe(p, t),
                "out.{} at {:?}",
                p,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guarded_table_probes_like_a_table_holding_the_windows(
        ports in 2usize..=6,
        period_ms in 12u64..150,
        (tau_pick, hidden_pick, now_ms) in (0u64..1_000, 0usize..4, 0u64..300),
        coflows in proptest::collection::vec(
            (0u64..400, proptest::collection::vec((0usize..6, 0usize..6, 1u64..40), 1..6)),
            2..5,
        ),
        instants in proptest::collection::vec(0u64..3_000, 1..40),
    ) {
        // δ < τ <= T.
        let tau_ms = 2 + tau_pick % (period_ms - 1);
        let config = GuardConfig::new(Dur::from_millis(period_ms), Dur::from_millis(tau_ms));
        prop_assert_eq!(config.validate(DELTA), Ok(()));
        let guard = StarvationGuard::new(ports, config);
        let mut guarded = Prt::with_guard(ports, Some(guard));
        let mut oracle = oracle_table(ports, &guard);

        // Lay each Coflow's plan on both tables, in priority (id) order.
        let cfg = SunflowConfig::default();
        let mut scratch = ScheduleScratch::new();
        let demands_of = |flows: &[(usize, usize, u64)]| -> Vec<Demand> {
            flows
                .iter()
                .enumerate()
                .map(|(flow_idx, &(src, dst, rem))| Demand {
                    flow_idx,
                    src: src % ports,
                    dst: dst % ports,
                    remaining: Dur::from_millis(rem),
                })
                .collect()
        };
        for (id, (start_ms, flows)) in coflows.iter().enumerate() {
            let (id, at, demands) = (id as u64, ms(*start_ms), demands_of(flows));
            let (made, _) =
                schedule_demands_on(&mut guarded, id, &demands, at, DELTA, cfg, &mut scratch);
            let (expect, _) =
                schedule_demands_on(&mut oracle, id, &demands, at, DELTA, cfg, &mut scratch);
            prop_assert_eq!(&made, &expect, "plans of coflow {} diverged", id);
            let end = made.iter().map(|r| r.end).max().expect("non-empty plan");
            prop_assert!(end + guard.interval_len() * 2 < UNTIL, "plan outran the oracle");
        }

        // Random instants plus both edges of the first few windows.
        let mut at: Vec<Time> = instants.iter().map(|&v| ms(v)).collect();
        for m in 0..4 {
            let w = guard.window(m);
            at.extend([w.start - Dur::from_ps(1), w.start, w.end - Dur::from_ps(1), w.end]);
        }
        assert_probes_agree(&guarded, &oracle, ports, &at).unwrap();

        // The same through a view hiding one Coflow's future from `now`.
        let now = ms(now_ms);
        let hidden = (hidden_pick % coflows.len()) as u64;
        let (mut view_g, mut view_o) =
            (sealed_view(&guarded, now, hidden), sealed_view(&oracle, now, hidden));
        prop_assert_eq!(view_g.masked_len(), view_o.masked_len());
        at.retain(|&t| t >= now);
        assert_probes_agree(&view_g, &view_o, ports, &at).unwrap();

        // ... and a re-plan of the hidden Coflow through it.
        let demands = demands_of(&coflows[hidden as usize].1);
        let (made, _) =
            schedule_demands_on(&mut view_g, hidden, &demands, now, DELTA, cfg, &mut scratch);
        let (expect, _) =
            schedule_demands_on(&mut view_o, hidden, &demands, now, DELTA, cfg, &mut scratch);
        prop_assert_eq!(made, expect, "re-plans through the views diverged");
        assert_probes_agree(&view_g, &view_o, ports, &at).unwrap();
    }
}
