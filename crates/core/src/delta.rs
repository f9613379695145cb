//! Delta-PRT replanning: plan against the old table, apply only the diff.
//!
//! The online replay's affected-set replanner used to truncate every
//! dirty Coflow's future reservations and rebuild them from scratch —
//! and the fig10 counters show ~84% of the rebuilt reservations are
//! byte-identical to the ones just removed. [`DeltaView`] turns that
//! churn into no-ops: it is a *planning view* over an immutable
//! [`Prt`] in which the dirty Coflows' future reservations are hidden
//! (the **mask**) and newly planned ones accumulate on the side (the
//! **overlay**). Planning through the view makes exactly the decisions
//! a truncate-then-rebuild planner would make, because at every instant
//! the visible reservation state — base minus mask plus overlay — is
//! identical to the sequential table's.
//!
//! When a planned reservation matches a hidden one exactly (same ports,
//! interval, and flow), the view *confirms* the old entry instead of
//! recording a new one: the reservation survives in place and the
//! eventual apply step never touches it. [`DeltaView::finish`] closes
//! the view into a [`DeltaPlan`] — the undo log of the replan — whose
//! [`DeltaPlan::apply`] retires only the *stale* reservations (hidden
//! but not reproduced) and inserts only the *fresh* ones (planned but
//! not matching). The undo-log invariants:
//!
//! 1. every masked reservation ends up either confirmed (untouched in
//!    the table) or stale (removed by `apply`) — never both;
//! 2. `apply` removes all stale entries before inserting any fresh one,
//!    so the non-overlap assertions in [`Prt::reserve`] re-validate the
//!    plan against the live table;
//! 3. after `apply`, the table is byte-identical to what
//!    truncate-then-rebuild would have produced (pinned by this module's
//!    remove-everything-then-replay test and the
//!    `delta_replan_equivalence` property test).

use crate::intra::PlanTable;
use crate::prt::{Entry, PortProbe, Prt, RemovedResv, ResvKind};
use ocs_model::{CoflowId, InPort, OutPort, Reservation, Time};
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// One hidden base reservation: a dirty Coflow's future circuit the
/// replan may confirm (reuse in place) or leave stale (retire).
#[derive(Clone, Copy, Debug)]
struct MaskEntry {
    resv: Reservation,
    confirmed: bool,
}

/// The recyclable working memory of a [`DeltaView`] and the
/// [`DeltaPlan`] it closes into: the mask, the planning log, and per
/// port the mask index, the compacted base intervals and the overlay.
///
/// A view takes the storage by value ([`DeltaView::new`]) and the plan
/// hands it back ([`DeltaPlan::into_storage`]), so a caller planning
/// round after round keeps one, and a round allocates only where it
/// needs more room than the rounds before it left. Reuse clears only
/// the ports the previous view touched: a round costs its masked and
/// planned ports, never the fabric's width.
#[derive(Clone, Debug, Default)]
pub struct DeltaStorage {
    mask: Vec<MaskEntry>,
    /// Per input port, indices into `mask` sorted by reservation start.
    in_mask: Vec<Vec<u32>>,
    /// Same index for output ports.
    out_mask: Vec<Vec<u32>>,
    /// Per *masked* input port, the visible base intervals with
    /// `end > now` — the in-flight circuit (if any) plus unhidden future
    /// reservations — sorted by start. Built by [`DeltaView::seal`];
    /// empty for unmasked ports (they delegate to the base's probes).
    in_future: Vec<Vec<(Time, Time)>>,
    /// Same intervals for output ports.
    out_future: Vec<Vec<(Time, Time)>>,
    /// Per input port, the overlay's `(start, end)` intervals, sorted by
    /// start (reservations on a port never overlap, so ends too). Holds
    /// fresh *and* confirmed reservations — both are visible.
    in_overlay: Vec<Vec<(Time, Time)>>,
    /// Same intervals for output ports.
    out_overlay: Vec<Vec<(Time, Time)>>,
    /// Input ports whose mask or overlay list is non-empty, each once:
    /// the masked ones (all listed before [`DeltaView::seal`]), then the
    /// ones a reservation first reached.
    touched_in: Vec<usize>,
    /// Same list for output ports.
    touched_out: Vec<usize>,
    /// Every reservation the planner made through this view, in creation
    /// order.
    log: Vec<Logged>,
}

/// One reservation made through a [`DeltaView`]: the caller's tag for
/// its owner ([`DeltaView::plan_for`]) and whether it confirmed a masked
/// entry. Walks that pause and resume interleave their reservations, so
/// the owner is recorded, not inferred from the order.
#[derive(Clone, Copy, Debug)]
struct Logged {
    resv: Reservation,
    owner: usize,
    reused: bool,
}

impl DeltaStorage {
    /// Empty every list the last view filled and size the per-port
    /// lists for `ports` ports.
    fn reset(&mut self, ports: usize) {
        for &i in &self.touched_in {
            reuse(&mut self.in_mask[i]);
            reuse(&mut self.in_future[i]);
            reuse(&mut self.in_overlay[i]);
        }
        for &j in &self.touched_out {
            reuse(&mut self.out_mask[j]);
            reuse(&mut self.out_future[j]);
            reuse(&mut self.out_overlay[j]);
        }
        self.touched_in.clear();
        self.touched_out.clear();
        reuse(&mut self.mask);
        reuse(&mut self.log);
        for lists in [&mut self.in_mask, &mut self.out_mask] {
            lists.resize_with(ports, Vec::new);
        }
        for lists in [
            &mut self.in_future,
            &mut self.out_future,
            &mut self.in_overlay,
            &mut self.out_overlay,
        ] {
            lists.resize_with(ports, Vec::new);
        }
    }
}

/// Empty `list` for the next view, keeping room for at most four times
/// what the last view put in it (and never less than 16 entries): a
/// steady load reuses it without growing, and one heavy round does not
/// hold its memory for the rest of the replay.
fn reuse<T>(list: &mut Vec<T>) {
    let room = 4 * list.len().max(4);
    if list.capacity() > room {
        list.shrink_to(room);
    }
    list.clear();
}

/// A planning view over an immutable [`Prt`]: base reservations minus a
/// mask of hidden (to-be-replanned) ones, plus an overlay of freshly
/// planned ones. Implements [`PlanTable`], so
/// [`crate::schedule_demands_on`] runs Algorithm 1 against it unchanged.
///
/// Build one per planning round over recycled [`DeltaStorage`]:
/// [`DeltaView::hide_future_of`] each dirty Coflow, [`DeltaView::seal`],
/// plan the members in priority order, then [`DeltaView::finish`] into
/// the [`DeltaPlan`] to apply, and take the storage back with
/// [`DeltaPlan::into_storage`].
///
/// Every planning query happens at `t >= now` (Algorithm 1 walks time
/// forward from the replan instant), so [`DeltaView::seal`] compacts
/// each masked port's *visible* reservations still live past `now` —
/// typically a handful of planned circuits — into a flat sorted
/// interval list. Queries on a masked port never descend the base
/// `BTreeMap`s: both the compacted base intervals and the overlay
/// answer in `O(log F)` of the port's *future* depth, and the base's
/// guard timetable — arithmetic, never an entry — is merged in as the
/// base itself would. Unmasked ports delegate to the base's cached
/// probes. Confirmed entries re-enter the visible state through the
/// overlay, exactly as a fresh reservation would.
#[derive(Debug)]
pub struct DeltaView<'a> {
    base: &'a Prt,
    /// The replan instant: every query and reservation is at `t >= now`.
    now: Time,
    store: DeltaStorage,
    reused: u64,
    sealed: bool,
    /// The tag [`DeltaView::reserve`] logs reservations under.
    owner: usize,
}

impl<'a> DeltaView<'a> {
    /// An empty view over `base` for a replan at instant `now`, nothing
    /// hidden and nothing planned, working in `store` (whatever a
    /// previous view left there is cleared).
    pub fn new(base: &'a Prt, now: Time, mut store: DeltaStorage) -> DeltaView<'a> {
        store.reset(base.ports());
        DeltaView {
            base,
            now,
            store,
            reused: 0,
            sealed: false,
            owner: 0,
        }
    }

    /// Log the reservations made from here on under `owner` (any tag the
    /// caller chooses, `0` until set); [`DeltaPlan::fresh`] reports it.
    /// Returns the tag it replaces, so a nested planner can restore it.
    pub fn plan_for(&mut self, owner: usize) -> usize {
        std::mem::replace(&mut self.owner, owner)
    }

    /// Hide `coflow`'s reservations with `start >= now` from the view —
    /// the replan will re-derive them. Call once per dirty Coflow,
    /// before [`DeltaView::seal`].
    ///
    /// # Panics
    /// Panics if the view is already sealed.
    pub fn hide_future_of(&mut self, coflow: CoflowId) {
        assert!(!self.sealed, "hide_future_of after seal");
        let s = &mut self.store;
        for resv in self.base.future_reservations_of(coflow, self.now) {
            let idx = s.mask.len() as u32;
            s.mask.push(MaskEntry {
                resv,
                confirmed: false,
            });
            if s.in_mask[resv.src].is_empty() {
                s.touched_in.push(resv.src);
            }
            s.in_mask[resv.src].push(idx);
            if s.out_mask[resv.dst].is_empty() {
                s.touched_out.push(resv.dst);
            }
            s.out_mask[resv.dst].push(idx);
        }
    }

    /// Finish mask construction: sort each masked port's indices by
    /// start (so [`DeltaView::reserve`] can binary-search for confirm
    /// matches) and compact its visible live-past-`now` intervals. Walks
    /// the masked ports only. Must be called before planning.
    pub fn seal(&mut self) {
        let s = &mut self.store;
        let mask = &s.mask;
        for &i in &s.touched_in {
            let list = &mut s.in_mask[i];
            list.sort_unstable_by_key(|&m| mask[m as usize].resv.start);
            Self::build_future(
                self.base.in_entries(i),
                mask,
                list,
                self.now,
                &mut s.in_future[i],
            );
        }
        for &j in &s.touched_out {
            let list = &mut s.out_mask[j];
            list.sort_unstable_by_key(|&m| mask[m as usize].resv.start);
            Self::build_future(
                self.base.out_entries(j),
                mask,
                list,
                self.now,
                &mut s.out_future[j],
            );
        }
        self.sealed = true;
    }

    /// Compact one masked port: the covering entry at `now` plus every
    /// later one, skipping hidden starts. Entries ending at or before
    /// `now` can never answer a `t >= now` query — a covering entry that
    /// already ended leaves the port free, and only ends strictly after
    /// `t` are releases.
    fn build_future(
        map: &BTreeMap<Time, Entry>,
        mask: &[MaskEntry],
        list: &[u32],
        now: Time,
        out: &mut Vec<(Time, Time)>,
    ) {
        let hidden = |s: Time| {
            list.binary_search_by_key(&s, |&i| mask[i as usize].resv.start)
                .is_ok()
        };
        if let Some((&s, e)) = map.range(..=now).next_back() {
            if e.end > now && !hidden(s) {
                out.push((s, e.end));
            }
        }
        for (&s, e) in map.range((Excluded(now), Unbounded)) {
            if !hidden(s) {
                out.push((s, e.end));
            }
        }
    }

    /// Number of reservations currently hidden by the mask.
    pub fn masked_len(&self) -> usize {
        self.store.mask.len()
    }

    /// Find the mask index of the entry starting at `start` in a sorted
    /// per-port list, if any.
    fn mask_at(&self, list: &[u32], start: Time) -> Option<usize> {
        let mask = &self.store.mask;
        list.binary_search_by_key(&start, |&i| mask[i as usize].resv.start)
            .ok()
            .map(|pos| list[pos] as usize)
    }

    /// Fused probe of one sorted interval list: freeness, next start,
    /// and next release at `t` from a single `partition_point`.
    fn overlay_probe(list: &[(Time, Time)], t: Time) -> PortProbe {
        let idx = list.partition_point(|iv| iv.0 <= t);
        let covered = idx > 0 && list[idx - 1].1 > t;
        let next = list.get(idx);
        PortProbe {
            free: !covered,
            next_start: next.map_or(Time::MAX, |iv| iv.0),
            next_release: if covered {
                Some(list[idx - 1].1)
            } else {
                next.map(|iv| iv.1)
            },
        }
    }

    /// Record `(start, end)` in the overlays of `src` and `dst`, listing
    /// either port as touched if it had neither mask nor overlay yet.
    fn overlay_both(&mut self, src: InPort, dst: OutPort, start: Time, end: Time) {
        let s = &mut self.store;
        if s.in_overlay[src].is_empty() && s.in_mask[src].is_empty() {
            s.touched_in.push(src);
        }
        Self::overlay_insert(&mut s.in_overlay[src], start, end);
        if s.out_overlay[dst].is_empty() && s.out_mask[dst].is_empty() {
            s.touched_out.push(dst);
        }
        Self::overlay_insert(&mut s.out_overlay[dst], start, end);
    }

    /// Insert `(start, end)` into a port's overlay, keeping it sorted.
    /// Planning time is non-decreasing within one member but restarts at
    /// `now` for the next, so appends dominate but are not guaranteed.
    fn overlay_insert(list: &mut Vec<(Time, Time)>, start: Time, end: Time) {
        if list.last().is_none_or(|&(s, _)| s < start) {
            list.push((start, end));
        } else {
            let idx = list.partition_point(|iv| iv.0 < start);
            list.insert(idx, (start, end));
        }
    }

    /// Close the view into the plan to apply. Hidden entries the planner
    /// reproduced exactly are confirmed (kept in place); the rest are
    /// stale. The view's borrow of the base table ends here, so the plan
    /// can be applied to it mutably.
    pub fn finish(self) -> DeltaPlan {
        DeltaPlan {
            store: self.store,
            reused: self.reused,
        }
    }
}

impl PlanTable for DeltaView<'_> {
    fn ports(&self) -> usize {
        self.base.ports()
    }

    fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        debug_assert!(t >= self.now, "planning query before the replan instant");
        let s = &self.store;
        let base = if s.in_mask[i].is_empty() {
            self.base.in_probe(i, t)
        } else {
            // The compacted list holds reservations only: the guard
            // timetable is the base's to add, here as on the other arm.
            self.base
                .merge_guard(Self::overlay_probe(&s.in_future[i], t), t)
        };
        base.merge(Self::overlay_probe(&s.in_overlay[i], t))
    }

    fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        debug_assert!(t >= self.now, "planning query before the replan instant");
        let s = &self.store;
        let base = if s.out_mask[j].is_empty() {
            self.base.out_probe(j, t)
        } else {
            self.base
                .merge_guard(Self::overlay_probe(&s.out_future[j], t), t)
        };
        base.merge(Self::overlay_probe(&s.out_overlay[j], t))
    }

    fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind) {
        debug_assert!(self.sealed, "planning against an unsealed DeltaView");
        let ResvKind::Flow(flow) = kind;
        let resv = Reservation {
            src,
            dst,
            start,
            end,
            flow,
        };
        // Confirm: the plan reproduced a hidden reservation exactly —
        // keep it in place. The entry re-enters the visible state via
        // the overlay, exactly as a fresh reservation would.
        if let Some(i) = self.mask_at(&self.store.in_mask[src], start) {
            let m = &mut self.store.mask[i];
            if !m.confirmed && m.resv.dst == dst && m.resv.end == end && m.resv.flow == flow {
                m.confirmed = true;
                self.reused += 1;
                self.store.log.push(Logged {
                    resv,
                    owner: self.owner,
                    reused: true,
                });
                self.overlay_both(src, dst, start, end);
                return;
            }
        }
        debug_assert!(
            self.in_probe(src, start).free && self.out_probe(dst, start).free,
            "fresh reservation overlaps the visible state"
        );
        self.overlay_both(src, dst, start, end);
        self.store.log.push(Logged {
            resv,
            owner: self.owner,
            reused: false,
        });
    }
}

/// The closed-out diff of one planning round: which hidden reservations
/// survived (confirmed), which are stale, and which are fresh, in
/// creation order. It owns the view's storage until
/// [`DeltaPlan::into_storage`] hands it back for the next view.
#[derive(Clone, Debug)]
pub struct DeltaPlan {
    store: DeltaStorage,
    reused: u64,
}

impl DeltaPlan {
    /// Number of hidden reservations the plan reproduced and kept in
    /// place.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Number of hidden reservations the plan did *not* reproduce —
    /// removed from the table by [`DeltaPlan::apply`].
    pub fn stale_len(&self) -> u64 {
        self.store.mask.len() as u64 - self.reused
    }

    /// Number of newly planned reservations — inserted by
    /// [`DeltaPlan::apply`].
    pub fn fresh_len(&self) -> u64 {
        self.store.log.len() as u64 - self.reused
    }

    /// Number of reservations planned through the view, confirmed or
    /// fresh.
    pub fn made_len(&self) -> u64 {
        self.store.log.len() as u64
    }

    /// The newly planned reservations, in creation order, each with the
    /// owner tag it was planned under ([`DeltaView::plan_for`]).
    pub fn fresh(&self) -> impl Iterator<Item = (usize, &Reservation)> {
        self.store
            .log
            .iter()
            .filter(|l| !l.reused)
            .map(|l| (l.owner, &l.resv))
    }

    /// Apply the diff to the table the view was built over: remove every
    /// stale reservation (appending each to `removed`, which is *not*
    /// cleared — the caller owns and recycles the buffer), then insert
    /// the fresh ones in creation order. [`Prt::reserve`]'s non-overlap
    /// assertions re-validate the plan against the live table.
    pub fn apply(&self, prt: &mut Prt, removed: &mut Vec<RemovedResv>) {
        for m in &self.store.mask {
            if !m.confirmed {
                let r = &m.resv;
                let rem = prt.remove_reservation(r.src, r.start);
                debug_assert_eq!(rem.end, r.end, "stale entry changed under the view");
                removed.push(rem);
            }
        }
        for (_, r) in self.fresh() {
            prt.reserve(r.src, r.dst, r.start, r.end, ResvKind::Flow(r.flow));
        }
    }

    /// Hand the storage back for the next [`DeltaView::new`].
    pub fn into_storage(self) -> DeltaStorage {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::{schedule_demands_on, Demand, ScheduleScratch, SunflowConfig};
    use ocs_model::{Dur, FlowRef};

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    fn d(ms: u64) -> Dur {
        Dur::from_millis(ms)
    }

    fn demand(src: InPort, dst: OutPort, flow_idx: usize, rem: u64) -> Demand {
        Demand {
            src,
            dst,
            flow_idx,
            remaining: d(rem),
        }
    }

    /// The reference for [`DeltaPlan::apply`]: remove *every* masked
    /// reservation — confirmed ones included — then re-make the full
    /// plan in creation order, exactly as truncate-then-rebuild would.
    fn naive_apply(plan: &DeltaPlan, prt: &mut Prt, removed: &mut Vec<RemovedResv>) {
        for m in &plan.store.mask {
            let rem = prt.remove_reservation(m.resv.src, m.resv.start);
            if !m.confirmed {
                removed.push(rem);
            }
        }
        for Logged { resv: r, .. } in &plan.store.log {
            prt.reserve(r.src, r.dst, r.start, r.end, ResvKind::Flow(r.flow));
        }
    }

    /// A table with two coflows interleaved on overlapping ports.
    fn two_coflow_table() -> Prt {
        let mut prt = Prt::new(4);
        let f = |coflow, flow_idx| ResvKind::Flow(FlowRef { coflow, flow_idx });
        prt.reserve(0, 1, t(0), t(10), f(1, 0));
        prt.reserve(1, 2, t(0), t(8), f(2, 0));
        prt.reserve(0, 1, t(10), t(20), f(2, 1));
        prt.reserve(2, 3, t(5), t(15), f(1, 1));
        prt.reserve(1, 2, t(8), t(30), f(1, 2));
        prt
    }

    #[test]
    fn delta_plan_matches_truncate_then_rebuild() {
        let now = t(6);
        let demands = [demand(0, 1, 1, 12), demand(1, 2, 2, 22)];
        let cfg = SunflowConfig::default();
        let mut scratch = ScheduleScratch::new();

        // Sequential reference: truncate coflow 1's future, plan anew.
        let mut seq = two_coflow_table();
        seq.truncate_future_of(1, now);
        let (seq_made, _) =
            schedule_demands_on(&mut seq, 1, &demands, now, Dur::ZERO, cfg, &mut scratch);

        // Delta path: plan against the masked view, then apply the diff.
        let mut prt = two_coflow_table();
        let mut view = DeltaView::new(&prt, now, DeltaStorage::default());
        view.hide_future_of(1);
        view.seal();
        let (delta_made, _) =
            schedule_demands_on(&mut view, 1, &demands, now, Dur::ZERO, cfg, &mut scratch);
        let plan = view.finish();
        let mut removed = Vec::new();
        plan.apply(&mut prt, &mut removed);

        assert_eq!(seq_made, delta_made, "plans must be byte-identical");
        assert_eq!(seq.snapshot(), prt.snapshot(), "tables must agree");
        assert_eq!(
            plan.reused() + plan.fresh_len(),
            delta_made.len() as u64,
            "every planned reservation is either a confirm or fresh"
        );
    }

    #[test]
    fn replanning_unchanged_priorities_reuses_everything() {
        // Coflow 1 replanned with the same demands it was planned with:
        // the view must confirm rather than churn. Reconstruct its exact
        // remaining demands at `now = 5`: flow 1 holds [5,15) on (2,3)
        // and flow 2 holds [8,30) on (1,2); both started in the past or
        // future such that replanning from their own start reproduces
        // them. Use now = 0 with the original demands instead.
        let mut prt = Prt::new(4);
        let f = |coflow, flow_idx| ResvKind::Flow(FlowRef { coflow, flow_idx });
        prt.reserve(0, 1, t(0), t(10), f(1, 0));
        prt.reserve(2, 3, t(0), t(15), f(1, 1));
        let demands = [demand(0, 1, 0, 10), demand(2, 3, 1, 15)];
        let cfg = SunflowConfig::default();
        let mut scratch = ScheduleScratch::new();

        let mut view = DeltaView::new(&prt, t(0), DeltaStorage::default());
        view.hide_future_of(1);
        view.seal();
        assert_eq!(view.masked_len(), 2);
        let (made, _) =
            schedule_demands_on(&mut view, 1, &demands, t(0), Dur::ZERO, cfg, &mut scratch);
        assert_eq!(made.len(), 2);
        let plan = view.finish();
        assert_eq!(plan.reused(), 2, "identical replan must confirm all");
        assert_eq!(plan.stale_len(), 0);
        assert_eq!(plan.fresh_len(), 0);

        let before = prt.snapshot();
        let mut removed = Vec::new();
        plan.apply(&mut prt, &mut removed);
        assert!(removed.is_empty());
        assert_eq!(prt.snapshot(), before, "all-confirmed apply is a no-op");
    }

    #[test]
    fn apply_and_naive_apply_agree() {
        let now = t(6);
        let demands = [demand(0, 1, 1, 7), demand(1, 2, 2, 22), demand(2, 3, 0, 4)];
        let cfg = SunflowConfig::default();
        let mut scratch = ScheduleScratch::new();

        let mut fast = two_coflow_table();
        let mut view = DeltaView::new(&fast, now, DeltaStorage::default());
        view.hide_future_of(1);
        view.seal();
        schedule_demands_on(&mut view, 1, &demands, now, d(1), cfg, &mut scratch);
        let plan = view.finish();

        let mut naive = fast.clone();
        let mut removed_fast = Vec::new();
        let mut removed_naive = Vec::new();
        plan.apply(&mut fast, &mut removed_fast);
        naive_apply(&plan, &mut naive, &mut removed_naive);
        assert_eq!(fast.snapshot(), naive.snapshot());
        assert_eq!(removed_fast, removed_naive);
    }

    #[test]
    fn view_queries_match_truncated_table() {
        assert_view_matches_truncation(two_coflow_table(), 40);
    }

    /// Visible reservations past a masked port's last hidden one (a third
    /// Coflow's here) answer from the compacted list like the ones
    /// before it, in agreement with the truncated table.
    #[test]
    fn view_queries_see_reservations_past_the_last_hidden_entry() {
        let mut prt = two_coflow_table();
        for (k, w) in [32, 50, 68].into_iter().enumerate() {
            for i in 0..4 {
                let flow = FlowRef {
                    coflow: 3,
                    flow_idx: 4 * k + i,
                };
                prt.reserve(i, (i + 1) % 4, t(w), t(w + 4), ResvKind::Flow(flow));
            }
        }
        assert_view_matches_truncation(prt, 80);
    }

    /// On a guarded base a masked port's compacted list and an unmasked
    /// port's delegation to the base both carry the timetable.
    #[test]
    fn view_queries_of_a_guarded_table_match_truncation() {
        use crate::starvation::{GuardConfig, StarvationGuard};
        // Windows [34, 38), [72, 76): clear of the two-Coflow table.
        let guard = StarvationGuard::new(4, GuardConfig::new(d(34), d(4)));
        let mut prt = Prt::with_guard(4, Some(guard));
        for r in two_coflow_table().all_reservations() {
            prt.reserve(r.src, r.dst, r.start, r.end, r.kind);
        }
        let f = |flow_idx| {
            ResvKind::Flow(FlowRef {
                coflow: 3,
                flow_idx,
            })
        };
        prt.reserve(1, 2, t(40), t(44), f(0));
        prt.reserve(0, 1, t(60), t(64), f(1));
        assert_view_matches_truncation(prt, 90);
    }

    /// Hide coflow 1's future at `now = 6` and compare every query of the
    /// view against the table with that future truncated, over
    /// `[now, until_ms)`.
    fn assert_view_matches_truncation(prt: Prt, until_ms: u64) {
        let now = t(6);
        let mut seq = prt.clone();
        seq.truncate_future_of(1, now);

        let mut view = DeltaView::new(&prt, now, DeltaStorage::default());
        view.hide_future_of(1);
        view.seal();

        // The view's contract covers `t >= now` only — Algorithm 1
        // never probes behind the replan instant.
        for p in 0..4 {
            for ms in 6..until_ms {
                let q = t(ms);
                assert_eq!(view.in_probe(p, q), seq.in_probe(p, q), "in_probe {p} {ms}");
                assert_eq!(
                    view.out_probe(p, q),
                    seq.out_probe(p, q),
                    "out_probe {p} {ms}"
                );
            }
        }
    }
}
