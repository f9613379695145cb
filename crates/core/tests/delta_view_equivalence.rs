//! Re-planning through a [`DeltaView`] and applying the diff must leave
//! the table exactly as sweeping and rebuilding would.
//!
//! The online replay has one replan path, and it plans every affected
//! Coflow through hide / seal / plan / `finish` / `apply`. The oracle it
//! replaced lives here, at the layer it checks: on a clone of the same
//! table, truncate each re-planned Coflow's future
//! ([`Prt::truncate_future_of`]) and plan it directly. When the
//! re-planned set is every Coflow in the table, the whole-table sweep
//! ([`Prt::truncate_future`]) followed by direct planning — the state
//! the full re-plan used to produce — must be that same table again.

use ocs_model::{Dur, Reservation, Time};
use proptest::prelude::*;
use sunflow_core::{
    schedule_demands_on, DeltaView, Demand, GuardConfig, PlanTable, Prt, ScheduleScratch,
    StarvationGuard, SunflowConfig,
};

const DELTA: Dur = Dur::from_millis(1);

/// One generated flow: (src, dst, planned ms, re-planned ms — 40 and up
/// stands for "whatever the plan has not begun serving by `now`", the
/// remainder that lets a re-plan reproduce reservations).
type GenFlow = (usize, usize, u64, u64);

/// Plan each `(coflow, demands)` on `table` — the table itself or a view
/// over it — from `now`, in the order given, and return what each made.
fn plan_on<T: PlanTable>(
    table: &mut T,
    members: &[(u64, Vec<Demand>)],
    now: Time,
) -> Vec<Vec<Reservation>> {
    let mut scratch = ScheduleScratch::new();
    let cfg = SunflowConfig::default();
    members
        .iter()
        .map(|(id, demands)| {
            schedule_demands_on(table, *id, demands, now, DELTA, cfg, &mut scratch).0
        })
        .collect()
}

/// Re-plan `members` (in priority order) on `prt` at `now` through a
/// delta view, and check the applied result against truncate-each-then-
/// rebuild on a clone; `everyone` adds the whole-table sweep.
fn check_replan(prt: &Prt, members: &[(u64, Vec<Demand>)], now: Time, everyone: bool) {
    let mut reference = prt.clone();
    for (id, _) in members {
        reference.truncate_future_of(*id, now);
    }
    let expect = plan_on(&mut reference, members, now);

    let mut view = DeltaView::new(prt, now);
    for (id, _) in members {
        view.hide_future_of(*id);
    }
    view.seal();
    let made = plan_on(&mut view, members, now);
    let plan = view.finish();
    let mut subject = prt.clone();
    plan.apply(&mut subject, &mut Vec::new());

    assert_eq!(made, expect, "plans through the view diverged");
    assert_eq!(subject.snapshot(), reference.snapshot(), "tables diverged");
    let total: usize = made.iter().map(Vec::len).sum();
    assert_eq!(plan.reused() + plan.fresh_len(), total as u64);

    if everyone {
        let mut swept = prt.clone();
        swept.truncate_future(now, true);
        plan_on(&mut swept, members, now);
        assert_eq!(subject.snapshot(), swept.snapshot(), "sweep diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_replan_equals_truncate_then_rebuild(
        ports in 2usize..=8,
        guard in (any::<bool>(), 12u64..150, 0u64..1_000),
        coflows in proptest::collection::vec(
            (
                0u64..100,
                proptest::collection::vec((0usize..8, 0usize..8, 1u64..40, 0u64..200), 1..6),
            ),
            2..=6,
        ),
        now_ms in 0u64..200,
        subset in 1u32..64,
    ) {
        // δ < τ <= T.
        let (guarded, period_ms, tau_pick) = guard;
        let guard = guarded.then(|| {
            let tau_ms = 2 + tau_pick % (period_ms - 1);
            let config = GuardConfig::new(Dur::from_millis(period_ms), Dur::from_millis(tau_ms));
            prop_assert_eq!(config.validate(DELTA), Ok(()));
            StarvationGuard::new(ports, config)
        });
        let planned_of = |flows: &[GenFlow]| -> Vec<Demand> {
            flows
                .iter()
                .enumerate()
                .map(|(flow_idx, &(src, dst, planned, _))| Demand {
                    flow_idx,
                    src: src % ports,
                    dst: dst % ports,
                    remaining: Dur::from_millis(planned),
                })
                .collect()
        };

        // Lay each Coflow's plan in priority (id) order, and derive the
        // remainders it would re-plan with at `now`: what its circuits
        // begun by then leave unserved, or a perturbed value (zero drops
        // a flow; all zero re-plans nothing and retires the rest).
        let now = Time::from_millis(now_ms);
        let mut prt = Prt::with_guard(ports, guard);
        let mut scratch = ScheduleScratch::new();
        let mut all: Vec<(u64, Vec<Demand>)> = Vec::new();
        for (id, (start_ms, flows)) in coflows.iter().enumerate() {
            let mut demands = planned_of(flows);
            let (made, _) = schedule_demands_on(
                &mut prt,
                id as u64,
                &demands,
                Time::from_millis(*start_ms),
                DELTA,
                SunflowConfig::default(),
                &mut scratch,
            );
            for r in made.iter().filter(|r| r.start < now) {
                let d = &mut demands[r.flow.flow_idx];
                d.remaining = d.remaining.saturating_sub(r.end.since(r.start) - DELTA);
            }
            for (d, &(_, _, _, again)) in demands.iter_mut().zip(flows) {
                if again < 40 {
                    d.remaining = Dur::from_millis(again);
                }
            }
            all.push((id as u64, demands));
        }
        let picked: Vec<(u64, Vec<Demand>)> = all
            .iter()
            .filter(|(id, _)| subset & (1 << id) != 0)
            .cloned()
            .collect();
        if !picked.is_empty() {
            check_replan(&prt, &picked, now, picked.len() == all.len());
        }
        check_replan(&prt, &all, now, true);
    }
}
