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
//!
//! The replay recycles one [`DeltaStorage`] from view to view, so a view
//! over reused storage must be indistinguishable from one over fresh
//! storage, whatever the previous view hid and planned.

use ocs_model::{Dur, Reservation, Time};
use proptest::prelude::*;
use sunflow_core::{
    schedule_demands_on, DeltaStorage, DeltaView, Demand, GuardConfig, PlanTable, Prt,
    ScheduleScratch, StarvationGuard, SunflowConfig,
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

    let mut view = DeltaView::new(prt, now, DeltaStorage::default());
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

/// One generated table: ports, an optional guard `(guarded, period
/// ms, τ pick)`, the Coflows `(plan start ms, flows)` laid in id order,
/// and the replan instant in ms.
type GenTable = (usize, (bool, u64, u64), Vec<(u64, Vec<GenFlow>)>, u64);

fn gen_table() -> impl Strategy<Value = GenTable> {
    (
        2usize..=8,
        (any::<bool>(), 12u64..150, 0u64..1_000),
        proptest::collection::vec(
            (
                0u64..100,
                proptest::collection::vec((0usize..8, 0usize..8, 1u64..40, 0u64..200), 1..6),
            ),
            2..=6,
        ),
        0u64..200,
    )
}

/// Lay each generated Coflow's plan on a fresh table in priority (id)
/// order, and derive the remainders it would re-plan with at `now`:
/// what its circuits begun by then leave unserved, or a perturbed value
/// (zero drops a flow; all zero re-plans nothing and retires the rest).
fn lay_table((ports, guard, coflows, now_ms): &GenTable) -> (Prt, Vec<(u64, Vec<Demand>)>, Time) {
    let ports = *ports;
    // δ < τ <= T.
    let &(guarded, period_ms, tau_pick) = guard;
    let guard = if guarded {
        let tau_ms = 2 + tau_pick % (period_ms - 1);
        let config = GuardConfig::new(Dur::from_millis(period_ms), Dur::from_millis(tau_ms));
        assert_eq!(config.validate(DELTA), Ok(()));
        Some(StarvationGuard::new(ports, config))
    } else {
        None
    };
    let now = Time::from_millis(*now_ms);
    let mut prt = Prt::with_guard(ports, guard);
    let mut scratch = ScheduleScratch::new();
    let mut all: Vec<(u64, Vec<Demand>)> = Vec::new();
    for (id, (start_ms, flows)) in coflows.iter().enumerate() {
        let mut demands: Vec<Demand> = flows
            .iter()
            .enumerate()
            .map(|(flow_idx, &(src, dst, planned, _))| Demand {
                flow_idx,
                src: src % ports,
                dst: dst % ports,
                remaining: Dur::from_millis(planned),
            })
            .collect();
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
    (prt, all, now)
}

/// The members of `all` whose id bit is set in `subset`.
fn pick(all: &[(u64, Vec<Demand>)], subset: u32) -> Vec<(u64, Vec<Demand>)> {
    all.iter()
        .filter(|(id, _)| subset & (1 << id) != 0)
        .cloned()
        .collect()
}

/// Hide `members`' futures in `view` and seal it.
fn hide_and_seal(view: &mut DeltaView<'_>, members: &[(u64, Vec<Demand>)]) {
    for (id, _) in members {
        view.hide_future_of(*id);
    }
    view.seal();
}

/// Every probe of both tables at every instant from `now` to past the
/// last reservation: each reservation edge, the picosecond before it and
/// a 1 ms grid (probes are constant between edges; the grid crosses the
/// guard windows).
fn assert_same_probes<A: PlanTable, B: PlanTable>(a: &A, b: &B, edges: &[Time], now: Time) {
    const MS: u64 = 1_000_000_000;
    let last = edges.iter().copied().max().unwrap_or(now).max(now);
    let grid = (0..=last.since(now).as_ps() / MS + 300).map(|ms| now + Dur::from_millis(ms));
    let near_edges = edges
        .iter()
        .flat_map(|&e| [e, Time::from_ps(e.as_ps().saturating_sub(1))])
        .filter(|&e| e >= now);
    for t in grid.chain(near_edges) {
        for p in 0..a.ports() {
            assert_eq!(a.in_probe(p, t), b.in_probe(p, t), "in.{p} at {t:?}");
            assert_eq!(a.out_probe(p, t), b.out_probe(p, t), "out.{p} at {t:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_replan_equals_truncate_then_rebuild(
        table in gen_table(),
        subset in 1u32..64,
    ) {
        let (prt, all, now) = lay_table(&table);
        let picked = pick(&all, subset);
        if !picked.is_empty() {
            check_replan(&prt, &picked, now, picked.len() == all.len());
        }
        check_replan(&prt, &all, now, true);
    }

    /// One [`DeltaStorage`] carried through a run of replans, each on a
    /// different table, port count, replan instant and hidden set: at
    /// every probe before and after planning, in the plan and in the
    /// applied table, the recycled view must be indistinguishable from
    /// a view over fresh storage.
    #[test]
    fn a_recycled_view_answers_like_a_fresh_one(
        rounds in proptest::collection::vec((gen_table(), 1u32..64), 2..6),
    ) {
        let mut storage = DeltaStorage::default();
        for (table, subset) in &rounds {
            let (prt, all, now) = lay_table(table);
            let members = pick(&all, *subset);
            let mut fresh = DeltaView::new(&prt, now, DeltaStorage::default());
            let mut recycled = DeltaView::new(&prt, now, std::mem::take(&mut storage));
            hide_and_seal(&mut fresh, &members);
            hide_and_seal(&mut recycled, &members);
            prop_assert_eq!(fresh.masked_len(), recycled.masked_len());
            let mut edges: Vec<Time> = prt
                .all_reservations()
                .iter()
                .flat_map(|r| [r.start, r.end])
                .collect();
            assert_same_probes(&fresh, &recycled, &edges, now);

            let made = plan_on(&mut fresh, &members, now);
            prop_assert_eq!(&plan_on(&mut recycled, &members, now), &made);
            edges.extend(made.iter().flatten().flat_map(|r| [r.start, r.end]));
            assert_same_probes(&fresh, &recycled, &edges, now);

            let (fresh, recycled) = (fresh.finish(), recycled.finish());
            prop_assert_eq!(fresh.reused(), recycled.reused());
            prop_assert_eq!(fresh.stale_len(), recycled.stale_len());
            prop_assert!(fresh.fresh().eq(recycled.fresh()));
            let (mut a, mut b) = (prt.clone(), prt.clone());
            let (mut removed_a, mut removed_b) = (Vec::new(), Vec::new());
            fresh.apply(&mut a, &mut removed_a);
            recycled.apply(&mut b, &mut removed_b);
            prop_assert_eq!(removed_a, removed_b);
            prop_assert_eq!(a.snapshot(), b.snapshot());
            storage = recycled.into_storage();
        }
    }
}
