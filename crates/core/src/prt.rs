//! The Port Reservation Table (PRT) — the data structure at the heart of
//! Sunflow (§4.1.1 of the paper).
//!
//! The PRT records, for every input and output port, the time intervals
//! during which the port is taken by a circuit. Scheduling a circuit means
//! making a reservation on both its ports; a reservation tells when the
//! port is taken and released and which peer port the circuit connects to.
//!
//! Reservations are half-open intervals `[start, end)`. Two reservations
//! may touch but never overlap on a port; this *is* the optical-switch
//! port constraint of §2.1, and [`Prt::reserve`] enforces it.
//!
//! The table supports exactly the queries Algorithm 1 needs:
//!
//! * `*_free_at` — line 15, "both in.i and out.j are free at t";
//! * `next_start_after` — line 16, "earliest next-reserv-time", which
//!   bounds the reservation length when a higher-priority Coflow already
//!   holds the port later (inter-Coflow scheduling, Figure 2);
//! * [`Prt::next_release_after`] — line 10, "advance t to next circuit
//!   release time";
//! * [`Prt::truncate_future`] — discard every not-yet-started
//!   reservation, as when priorities change on a Coflow arrival or
//!   completion. The online replay no longer sweeps: it retires per
//!   Coflow ([`Prt::truncate_future_of`]) and by diff
//!   ([`crate::DeltaPlan::apply`]); the sweep stays as the oracle those
//!   are tested against.
//!
//! All three per-port answers come from one fused [`PortProbe`]
//! ([`Prt::in_probe`] / [`Prt::out_probe`]); the scalar queries are
//! projections of it. A table built with a [`StarvationGuard`]
//! ([`Prt::with_guard`]) merges the §4.2 timetable into every probe —
//! the guard windows are obstacles of this table without ever being
//! reservations in it.

use crate::starvation::StarvationGuard;
use ocs_model::{CoflowId, FlowRef, InPort, OutPort, Reservation, Time};
use std::collections::{BTreeMap, HashMap};

/// What a reservation serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResvKind {
    /// A circuit transmitting one flow of one Coflow.
    Flow(FlowRef),
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) end: Time,
    pub(crate) peer: usize,
    pub(crate) kind: ResvKind,
}

/// Fused snapshot of one port's planning state at an instant `t`: the
/// answers of `in_free_at`, `in_next_start_after`, and
/// `in_next_release_after` (or their output-side twins) resolved from a
/// single lookup position. Algorithm 1's demand examination needs two or
/// three of these per port side; probing answers all of them for the
/// price of one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortProbe {
    /// Is the port free at `t`?
    pub free: bool,
    /// Earliest reservation start strictly after `t` (`Time::MAX` if the
    /// port is unreserved beyond `t`).
    pub next_start: Time,
    /// Earliest circuit release (reservation end) strictly after `t`.
    pub next_release: Option<Time>,
}

impl PortProbe {
    /// The snapshot of a port with no reservation at or after `t`.
    pub const IDLE: PortProbe = PortProbe {
        free: true,
        next_start: Time::MAX,
        next_release: None,
    };

    /// The probe, at the same port and instant, of the union of the two
    /// non-overlapping reservation sets `self` and `other` were taken
    /// from: free when both are, and the earliest start and release win.
    #[inline]
    pub fn merge(self, other: PortProbe) -> PortProbe {
        PortProbe {
            free: self.free && other.free,
            next_start: self.next_start.min(other.next_start),
            next_release: match (self.next_release, other.next_release) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

/// A reservation removed or shortened by [`Prt::truncate_future`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemovedResv {
    /// Input port of the circuit.
    pub src: InPort,
    /// Output port of the circuit.
    pub dst: OutPort,
    /// Original start of the reservation.
    pub start: Time,
    /// Original end of the reservation.
    pub end: Time,
    /// What it served.
    pub kind: ResvKind,
}

/// A point-in-time capture of a whole [`Prt`], produced by
/// [`Prt::snapshot`] and consumed by [`Prt::from_snapshot`]. Plain data:
/// the port count, the guard timetable (if any) and every reservation,
/// so two tables compare by their snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrtSnapshot {
    ports: usize,
    guard: Option<StarvationGuard>,
    resvs: Vec<RemovedResv>,
}

impl PrtSnapshot {
    /// Number of ports on each side of the snapshotted switch.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The captured reservations, ordered by `(src, start)`.
    pub fn reservations(&self) -> &[RemovedResv] {
        &self.resvs
    }

    /// Number of captured reservations.
    pub fn len(&self) -> usize {
        self.resvs.len()
    }

    /// True if the snapshotted table held no reservations.
    pub fn is_empty(&self) -> bool {
        self.resvs.is_empty()
    }
}

/// The Port Reservation Table. One instance is shared by all Coflows being
/// scheduled (global `PRT[.]` in Algorithm 1).
///
/// ```
/// use sunflow_core::{Prt, ResvKind};
/// use ocs_model::{FlowRef, Time};
///
/// let mut prt = Prt::new(4);
/// let flow = ResvKind::Flow(FlowRef { coflow: 0, flow_idx: 0 });
/// prt.reserve(0, 2, Time::from_millis(10), Time::from_millis(30), flow);
///
/// // Both ports are taken for the interval, all others unaffected
/// // (the not-all-stop model).
/// assert!(!prt.in_free_at(0, Time::from_millis(15)));
/// assert!(!prt.out_free_at(2, Time::from_millis(15)));
/// assert!(prt.in_free_at(1, Time::from_millis(15)));
///
/// // The queries Algorithm 1 is built from:
/// assert_eq!(prt.in_next_start_after(0, Time::ZERO), Time::from_millis(10));
/// assert_eq!(prt.next_release_after(Time::ZERO), Some(Time::from_millis(30)));
/// ```
#[derive(Clone, Debug)]
pub struct Prt {
    ins: Vec<BTreeMap<Time, Entry>>,
    outs: Vec<BTreeMap<Time, Entry>>,
    /// Fast-path cache: per input port, the `(start, end)` of its
    /// *latest-starting* reservation. Reservations on a port never
    /// overlap, so this entry also carries the port's horizon: the port
    /// is free at any `t >= end`, busy in `[start, end)`, and has no
    /// reservation starting after `start`. Algorithm 1 overwhelmingly
    /// queries at-or-past the tail (it appends reservations in
    /// increasing `t`), so these three answers cover the hot path
    /// without touching the `BTreeMap`.
    in_tail: Vec<Option<(Time, Time)>>,
    /// Same cache for output ports.
    out_tail: Vec<Option<(Time, Time)>>,
    /// Per-Coflow reservation index, maintained incrementally by
    /// `reserve` / `truncate_future` / `cut_reservation`. The online
    /// replay's per-event queries (`future_reservations_of`,
    /// `last_end_of`) touch only the owning Coflow's entries instead of
    /// rescanning the whole table, whose history grows without bound
    /// over a replay.
    by_coflow: HashMap<CoflowId, CoflowIndex>,
    /// The §4.2 timetable merged into every probe, if this table serves
    /// a guarded scheduler.
    guard: Option<StarvationGuard>,
}

/// Index entries of one Coflow's reservations.
#[derive(Clone, Debug, Default)]
struct CoflowIndex {
    /// `(start, src)` → `(dst, end, flow_idx)`. `(start, src)` is unique:
    /// a port holds at most one reservation starting at a given instant.
    resvs: BTreeMap<(Time, InPort), (OutPort, Time, usize)>,
    /// Multiset of this Coflow's reservation end times, so
    /// [`Prt::last_end_of`] is O(1) even after cuts re-key ends.
    ends: BTreeMap<Time, u32>,
}

impl CoflowIndex {
    fn insert(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, flow_idx: usize) {
        self.resvs.insert((start, src), (dst, end, flow_idx));
        *self.ends.entry(end).or_insert(0) += 1;
    }

    fn drop_end(&mut self, end: Time) {
        let c = self
            .ends
            .get_mut(&end)
            .expect("coflow end multiset out of sync");
        *c -= 1;
        if *c == 0 {
            self.ends.remove(&end);
        }
    }

    fn remove(&mut self, src: InPort, start: Time) {
        let (_, end, _) = self
            .resvs
            .remove(&(start, src))
            .expect("coflow index out of sync: missing reservation");
        self.drop_end(end);
    }

    /// Re-key a reservation's end to `now` (a cut in-flight circuit).
    fn cut(&mut self, src: InPort, start: Time, now: Time) {
        let entry = self
            .resvs
            .get_mut(&(start, src))
            .expect("coflow index out of sync: missing cut target");
        let old_end = entry.1;
        entry.1 = now;
        self.drop_end(old_end);
        *self.ends.entry(now).or_insert(0) += 1;
    }
}

impl Prt {
    /// An empty table for an `n`-port switch with no starvation guard.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Prt {
        Prt::with_guard(n, None)
    }

    /// An empty table for an `n`-port switch whose ports are, besides
    /// their reservations, taken during every window of `guard`'s
    /// timetable: each probe merges [`StarvationGuard::probe`], and
    /// [`Prt::reserve`] refuses a circuit that touches a window.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn with_guard(n: usize, guard: Option<StarvationGuard>) -> Prt {
        assert!(n > 0, "PRT needs at least one port");
        Prt {
            ins: vec![BTreeMap::new(); n],
            outs: vec![BTreeMap::new(); n],
            in_tail: vec![None; n],
            out_tail: vec![None; n],
            by_coflow: HashMap::new(),
            guard,
        }
    }

    /// Number of ports on each side.
    pub fn ports(&self) -> usize {
        self.ins.len()
    }

    /// True if the table holds no reservations.
    pub fn is_empty(&self) -> bool {
        self.ins.iter().all(|m| m.is_empty())
    }

    fn free_at(map: &BTreeMap<Time, Entry>, t: Time) -> bool {
        match map.range(..=t).next_back() {
            Some((_, e)) => e.end <= t,
            None => true,
        }
    }

    fn next_start_after(map: &BTreeMap<Time, Entry>, t: Time) -> Time {
        match map
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next()
        {
            Some((&s, _)) => s,
            None => Time::MAX,
        }
    }

    /// Is input port `i` free at instant `t`?
    pub fn in_free_at(&self, i: InPort, t: Time) -> bool {
        self.in_probe(i, t).free
    }

    /// Is output port `j` free at instant `t`?
    pub fn out_free_at(&self, j: OutPort, t: Time) -> bool {
        self.out_probe(j, t).free
    }

    /// The earliest reservation start strictly after `t` on input port
    /// `i`, or `Time::MAX` if the port is unreserved beyond `t`.
    pub fn in_next_start_after(&self, i: InPort, t: Time) -> Time {
        self.in_probe(i, t).next_start
    }

    /// The earliest reservation start strictly after `t` on output port
    /// `j`, or `Time::MAX` if the port is unreserved beyond `t`.
    pub fn out_next_start_after(&self, j: OutPort, t: Time) -> Time {
        self.out_probe(j, t).next_start
    }

    /// Reference implementation of [`Prt::in_free_at`] that always walks
    /// the `BTreeMap`, bypassing the tail cache (and, like every
    /// `naive_*` query, seeing reservations only — not a guard
    /// timetable). Kept for the equivalence property tests and the
    /// fast-path micro-benchmarks; compiled only under the `naive-twins`
    /// feature (or `cfg(test)`) so release consumers carry no dead
    /// reference code.
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_in_free_at(&self, i: InPort, t: Time) -> bool {
        Self::free_at(&self.ins[i], t)
    }

    /// Reference implementation of [`Prt::out_free_at`] (see
    /// [`Prt::naive_in_free_at`]).
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_out_free_at(&self, j: OutPort, t: Time) -> bool {
        Self::free_at(&self.outs[j], t)
    }

    /// Reference implementation of [`Prt::in_next_start_after`] (see
    /// [`Prt::naive_in_free_at`]).
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_in_next_start_after(&self, i: InPort, t: Time) -> Time {
        Self::next_start_after(&self.ins[i], t)
    }

    /// Reference implementation of [`Prt::out_next_start_after`] (see
    /// [`Prt::naive_in_free_at`]).
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_out_next_start_after(&self, j: OutPort, t: Time) -> Time {
        Self::next_start_after(&self.outs[j], t)
    }

    /// The earliest circuit release (reservation end) strictly after `t`,
    /// across all ports — Algorithm 1 line 10. Answered as the minimum
    /// over per-input-port release queries (every reservation ends on its
    /// input port); only the naive rescan-everything loop advances its
    /// clock through this global view.
    pub fn next_release_after(&self, t: Time) -> Option<Time> {
        (0..self.ins.len())
            .filter_map(|i| self.in_next_release_after(i, t))
            .min()
    }

    /// The earliest circuit release strictly after `t` on input port `i`.
    pub fn in_next_release_after(&self, i: InPort, t: Time) -> Option<Time> {
        self.in_probe(i, t).next_release
    }

    /// The earliest circuit release strictly after `t` on output port `j`.
    pub fn out_next_release_after(&self, j: OutPort, t: Time) -> Option<Time> {
        self.out_probe(j, t).next_release
    }

    /// Fused planning snapshot of input port `i` at `t` — freeness, next
    /// start, and next release answered from one tail-cache consultation
    /// (or, before the tail's start, one pair of map walks), merged with
    /// the guard timetable if the table has one. See
    /// [`crate::PlanTable::in_probe`].
    pub fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        self.merge_guard(Self::probe_cached(&self.ins[i], self.in_tail[i], t), t)
    }

    /// Fused planning snapshot of output port `j` at `t` (see
    /// [`Prt::in_probe`]).
    pub fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        self.merge_guard(Self::probe_cached(&self.outs[j], self.out_tail[j], t), t)
    }

    /// `probe`, taken at `t` from (a subset of) this table's
    /// reservations on some port, completed with the guard timetable.
    /// An unguarded table pays one branch.
    #[inline]
    pub(crate) fn merge_guard(&self, probe: PortProbe, t: Time) -> PortProbe {
        match &self.guard {
            None => probe,
            Some(g) => probe.merge(g.probe(t)),
        }
    }

    fn probe_cached(map: &BTreeMap<Time, Entry>, tail: Option<(Time, Time)>, t: Time) -> PortProbe {
        let Some((tail_start, tail_end)) = tail else {
            return PortProbe::IDLE;
        };
        if t >= tail_end {
            return PortProbe::IDLE;
        }
        if t >= tail_start {
            // Inside the latest-starting reservation: busy, nothing
            // starts later, and the release is the tail's end.
            return PortProbe {
                free: false,
                next_start: Time::MAX,
                next_release: Some(tail_end),
            };
        }
        // Before the tail's start a later entry always exists, so both
        // walks resolve the full snapshot.
        let covering = map.range(..=t).next_back();
        let next = map
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next();
        match covering {
            Some((_, e)) if e.end > t => PortProbe {
                free: false,
                next_start: next.map_or(Time::MAX, |(&s, _)| s),
                next_release: Some(e.end),
            },
            _ => {
                let (&s, e) = next.expect("tail cache implies a future entry");
                PortProbe {
                    free: true,
                    next_start: s,
                    next_release: Some(e.end),
                }
            }
        }
    }

    /// Reference implementation of [`Prt::in_next_release_after`] via a
    /// full scan of the port's entries (see [`Prt::naive_in_free_at`] for
    /// the twin pattern).
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_in_next_release_after(&self, i: InPort, t: Time) -> Option<Time> {
        self.ins[i].values().map(|e| e.end).filter(|&e| e > t).min()
    }

    /// Reference implementation of [`Prt::out_next_release_after`].
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_out_next_release_after(&self, j: OutPort, t: Time) -> Option<Time> {
        self.outs[j]
            .values()
            .map(|e| e.end)
            .filter(|&e| e > t)
            .min()
    }

    /// Reserve the circuit `[in.src, out.dst]` during `[start, end)`.
    ///
    /// # Panics
    /// Panics if the interval is empty, overlaps an existing reservation
    /// on either port, or (on a guarded table) starts inside a guard
    /// window or reaches the next one — those are scheduler bugs, not
    /// input conditions.
    pub fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind) {
        assert!(end > start, "reservation interval must be non-empty");
        if let Some(g) = &self.guard {
            let window = g.probe(start);
            assert!(window.free, "a guard window is under way at {start}");
            assert!(
                end <= window.next_start,
                "reservation would overlap the guard window at {}",
                window.next_start
            );
        }
        for (map, tail, port, side) in [
            (&self.ins[src], self.in_tail[src], src, "input"),
            (&self.outs[dst], self.out_tail[dst], dst, "output"),
        ] {
            // Append-at-tail fast path: starting at or after the port's
            // horizon can neither land on a busy instant nor overlap a
            // later reservation — skip both map walks.
            if tail.is_none_or(|(_, tail_end)| start >= tail_end) {
                continue;
            }
            assert!(
                Self::free_at(map, start),
                "{side} port {port} is busy at {start}"
            );
            let next = Self::next_start_after(map, start);
            assert!(
                end <= next,
                "reservation on {side} port {port} would overlap the next one at {next}"
            );
        }
        let entry_in = Entry {
            end,
            peer: dst,
            kind,
        };
        let entry_out = Entry {
            end,
            peer: src,
            kind,
        };
        self.ins[src].insert(start, entry_in);
        self.outs[dst].insert(start, entry_out);
        if self.in_tail[src].is_none_or(|(s, _)| start > s) {
            self.in_tail[src] = Some((start, end));
        }
        if self.out_tail[dst].is_none_or(|(s, _)| start > s) {
            self.out_tail[dst] = Some((start, end));
        }
        let ResvKind::Flow(flow) = kind;
        self.by_coflow
            .entry(flow.coflow)
            .or_default()
            .insert(src, dst, start, end, flow.flow_idx);
    }

    /// Reference implementation of [`Prt::reserve`] that always runs both
    /// overlap scans and skips the tail-cache bookkeeping. Kept for the
    /// fast-path micro-benchmarks; a table built through it must only be
    /// queried through the `naive_*` accessors.
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_reserve(
        &mut self,
        src: InPort,
        dst: OutPort,
        start: Time,
        end: Time,
        kind: ResvKind,
    ) {
        assert!(end > start, "reservation interval must be non-empty");
        for (map, port, side) in [
            (&self.ins[src], src, "input"),
            (&self.outs[dst], dst, "output"),
        ] {
            assert!(
                Self::free_at(map, start),
                "{side} port {port} is busy at {start}"
            );
            let next = Self::next_start_after(map, start);
            assert!(
                end <= next,
                "reservation on {side} port {port} would overlap the next one at {next}"
            );
        }
        self.ins[src].insert(
            start,
            Entry {
                end,
                peer: dst,
                kind,
            },
        );
        self.outs[dst].insert(
            start,
            Entry {
                end,
                peer: src,
                kind,
            },
        );
        let ResvKind::Flow(flow) = kind;
        self.by_coflow
            .entry(flow.coflow)
            .or_default()
            .insert(src, dst, start, end, flow.flow_idx);
    }

    /// All flow reservations currently in the table, ordered by
    /// `(src, start)`.
    pub fn flow_reservations(&self) -> Vec<Reservation> {
        self.iter_reservations().collect()
    }

    /// Non-allocating iterator over all flow reservations, ordered by
    /// `(src, start)`.
    pub fn iter_reservations(&self) -> impl Iterator<Item = Reservation> + '_ {
        self.ins.iter().enumerate().flat_map(|(src, map)| {
            map.iter().map(move |(&start, e)| {
                let ResvKind::Flow(flow) = e.kind;
                Reservation {
                    src,
                    dst: e.peer,
                    start,
                    end: e.end,
                    flow,
                }
            })
        })
    }

    /// The latest reservation end among `coflow`'s reservations, or
    /// `None` if it has none. O(1) from the per-Coflow index; the online
    /// replay derives each active Coflow's planned completion from it.
    pub fn last_end_of(&self, coflow: CoflowId) -> Option<Time> {
        self.by_coflow
            .get(&coflow)
            .and_then(|idx| idx.ends.keys().next_back().copied())
    }

    /// Iterator over `coflow`'s reservations with `start >= now` — the
    /// candidates a delta replan may reuse or retire — ordered by
    /// `(start, src)`, answered from the per-Coflow index.
    pub fn future_reservations_of(
        &self,
        coflow: CoflowId,
        now: Time,
    ) -> impl Iterator<Item = Reservation> + '_ {
        self.by_coflow
            .get(&coflow)
            .into_iter()
            .flat_map(move |idx| {
                idx.resvs
                    .range((now, 0)..)
                    .map(move |(&(start, src), &(dst, end, flow_idx))| Reservation {
                        src,
                        dst,
                        start,
                        end,
                        flow: FlowRef { coflow, flow_idx },
                    })
            })
    }

    /// Input port `i`'s reservation map, for the crate-internal delta
    /// planning view ([`crate::delta::DeltaView`]), which overlays masked
    /// queries on the raw entries.
    pub(crate) fn in_entries(&self, i: InPort) -> &BTreeMap<Time, Entry> {
        &self.ins[i]
    }

    /// Output port `j`'s reservation map (see [`Prt::in_entries`]).
    pub(crate) fn out_entries(&self, j: OutPort) -> &BTreeMap<Time, Entry> {
        &self.outs[j]
    }

    /// Remove the single reservation keyed `(src, start)`, refreshing the
    /// tail caches and per-Coflow index. The delta
    /// replanner's apply step retires exactly the stale reservations a new
    /// plan did not reproduce, so — unlike [`Prt::truncate_future`] — it
    /// removes by key, not by time horizon.
    ///
    /// # Panics
    /// Panics if no reservation starts at `start` on input port `src`.
    pub(crate) fn remove_reservation(&mut self, src: InPort, start: Time) -> RemovedResv {
        let e = self.ins[src]
            .remove(&start)
            .expect("remove_reservation: no reservation at this key");
        self.outs[e.peer].remove(&start).expect("peer entry exists");
        self.unindex(e.kind, src, start);
        self.in_tail[src] = Self::tail_of(&self.ins[src]);
        self.out_tail[e.peer] = Self::tail_of(&self.outs[e.peer]);
        RemovedResv {
            src,
            dst: e.peer,
            start,
            end: e.end,
            kind: e.kind,
        }
    }

    /// Reference implementation of [`Prt::last_end_of`] via the full
    /// table scan (see [`Prt::naive_in_free_at`] for the twin pattern).
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_last_end_of(&self, coflow: CoflowId) -> Option<Time> {
        self.iter_reservations()
            .filter(|r| r.flow.coflow == coflow)
            .map(|r| r.end)
            .max()
    }

    /// All reservations as `(src, dst, start, end, kind)`, ordered by
    /// `(src, start)`.
    pub fn all_reservations(&self) -> Vec<RemovedResv> {
        let mut out = Vec::new();
        for (src, map) in self.ins.iter().enumerate() {
            for (&start, e) in map {
                out.push(RemovedResv {
                    src,
                    dst: e.peer,
                    start,
                    end: e.end,
                    kind: e.kind,
                });
            }
        }
        out
    }

    /// Capture the full reservation state as a flat, order-independent
    /// value. A snapshot is plain data (port count, guard timetable and
    /// reservation list), so it can be serialized by callers that
    /// checkpoint a long-running scheduler and fed back through
    /// [`Prt::from_snapshot`].
    pub fn snapshot(&self) -> PrtSnapshot {
        PrtSnapshot {
            ports: self.ports(),
            guard: self.guard,
            resvs: self.all_reservations(),
        }
    }

    /// Rebuild a table from a [`PrtSnapshot`]. The result answers every
    /// query identically to the snapshotted table: reservations are
    /// replayed through [`Prt::reserve`] in ascending start order, so the
    /// tail caches and per-Coflow index come out in their canonical
    /// states.
    ///
    /// # Panics
    /// Panics if the snapshot is inconsistent (empty intervals,
    /// reservations overlapping on a port or touching a guard window) —
    /// snapshots taken from a live table are always consistent.
    pub fn from_snapshot(snap: &PrtSnapshot) -> Prt {
        let mut prt = Prt::with_guard(snap.ports, snap.guard);
        let mut resvs: Vec<&RemovedResv> = snap.resvs.iter().collect();
        resvs.sort_by_key(|r| (r.start, r.src));
        for r in resvs {
            prt.reserve(r.src, r.dst, r.start, r.end, r.kind);
        }
        prt
    }

    /// Drop every reservation that ended at or before `cutoff`, returning
    /// how many were forgotten. A long-lived online scheduler calls this
    /// periodically so the table's memory stays proportional to its
    /// *future*, not its history.
    ///
    /// Only strictly-past state is touched: queries at any `t >= cutoff`
    /// (port freeness, next starts, releases, per-Coflow last ends) are
    /// unaffected. History-dependent accessors ([`Prt::flow_reservations`],
    /// [`Prt::all_reservations`]) lose the forgotten intervals — callers
    /// must account for served demand before pruning.
    pub fn forget_before(&mut self, cutoff: Time) -> usize {
        let mut dropped = 0;
        for src in 0..self.ins.len() {
            // Reservations on a port never overlap, so ascending starts
            // imply ascending ends: pop from the front while dead.
            while let Some((&start, e)) = self.ins[src].iter().next() {
                if e.end > cutoff {
                    break;
                }
                let e = *e;
                self.ins[src].remove(&start);
                self.outs[e.peer].remove(&start);
                self.unindex(e.kind, src, start);
                dropped += 1;
            }
            // The tail is the latest-starting (hence latest-ending)
            // reservation; it was dropped only if the port emptied.
            if self.ins[src].is_empty() {
                self.in_tail[src] = None;
            }
        }
        for (p, map) in self.outs.iter().enumerate() {
            if map.is_empty() {
                self.out_tail[p] = None;
            }
        }
        dropped
    }

    /// Remove reservations scheduled for the future so the table can be
    /// re-derived under new priorities (online inter-Coflow scheduling).
    ///
    /// * Reservations with `start >= now` are removed entirely.
    /// * Reservations straddling `now` (`start < now < end`) are kept if
    ///   `keep_active` (the circuit continues transmitting — intra-Coflow
    ///   non-preemption), otherwise cut short to end at `now`, paying back
    ///   the unfinished tail.
    ///
    /// Returns the removed reservations and, for each shortened one, its
    /// original extent (with `end` still the *original* end; the new end is
    /// `now`), ordered by `(src, start)`.
    ///
    /// Cost is O(removed + ports): each input port's map is walked
    /// *backwards from its tail* and the walk stops at the first
    /// reservation with `start < now` — of which at most one (the
    /// straddling one) can need a cut, since reservations on a port never
    /// overlap. The table's past is never visited, so truncating a
    /// long-running replay's table does not pay for its history.
    pub fn truncate_future(&mut self, now: Time, keep_active: bool) -> Vec<RemovedResv> {
        let mut removed = Vec::new();
        self.truncate_future_sink(now, keep_active, Some(&mut removed));
        // The backward walks discovered entries in descending-start order;
        // report them in the canonical (src, start) order.
        removed.sort_by_key(|r| (r.src, r.start));
        removed
    }

    /// [`Prt::truncate_future`] for callers that only need the count
    /// (e.g. stats): no `Vec<RemovedResv>` is built at all.
    pub fn truncate_future_count(&mut self, now: Time, keep_active: bool) -> u64 {
        self.truncate_future_sink(now, keep_active, None)
    }

    fn truncate_future_sink(
        &mut self,
        now: Time,
        keep_active: bool,
        mut out: Option<&mut Vec<RemovedResv>>,
    ) -> u64 {
        let mut count = 0u64;
        let n = self.ports();
        // Out ports whose tail cache must be refreshed; in tails are
        // refreshed inline per source port.
        let mut out_touched = vec![false; n];
        for src in 0..n {
            let mut touched = false;
            while let Some((&start, e)) = self.ins[src].iter().next_back() {
                let e = *e;
                if start >= now {
                    // Entirely in the future: drop.
                    self.ins[src].remove(&start);
                    self.outs[e.peer].remove(&start);
                    self.unindex(e.kind, src, start);
                    touched = true;
                    out_touched[e.peer] = true;
                    count += 1;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(RemovedResv {
                            src,
                            dst: e.peer,
                            start,
                            end: e.end,
                            kind: e.kind,
                        });
                    }
                } else {
                    if e.end > now && !keep_active {
                        // Straddles `now` and preemption is allowed: cut.
                        self.shorten(src, start, e, now);
                        touched = true;
                        out_touched[e.peer] = true;
                        count += 1;
                        if let Some(out) = out.as_deref_mut() {
                            out.push(RemovedResv {
                                src,
                                dst: e.peer,
                                start,
                                end: e.end,
                                kind: e.kind,
                            });
                        }
                    }
                    // First reservation starting before `now`: everything
                    // earlier on this port is strictly in the past.
                    break;
                }
            }
            if touched {
                self.in_tail[src] = Self::tail_of(&self.ins[src]);
            }
        }
        for (p, touched) in out_touched.into_iter().enumerate() {
            if touched {
                self.out_tail[p] = Self::tail_of(&self.outs[p]);
            }
        }
        count
    }

    /// Reference implementation of [`Prt::truncate_future`]: the original
    /// collect-every-key full scan. Kept (per the `naive_*` twin pattern,
    /// see [`Prt::naive_in_free_at`]) for the equivalence property tests
    /// and micro-benchmarks.
    #[cfg(any(test, feature = "naive-twins"))]
    #[doc(hidden)]
    pub fn naive_truncate_future(&mut self, now: Time, keep_active: bool) -> Vec<RemovedResv> {
        let mut removed = Vec::new();
        let n = self.ports();
        let mut touched = false;
        for src in 0..n {
            let starts: Vec<Time> = self.ins[src].keys().copied().collect();
            for start in starts {
                let e = self.ins[src][&start];
                if start >= now {
                    self.ins[src].remove(&start);
                    self.outs[e.peer].remove(&start);
                    self.unindex(e.kind, src, start);
                    touched = true;
                    removed.push(RemovedResv {
                        src,
                        dst: e.peer,
                        start,
                        end: e.end,
                        kind: e.kind,
                    });
                } else if e.end > now && !keep_active {
                    self.shorten(src, start, e, now);
                    touched = true;
                    removed.push(RemovedResv {
                        src,
                        dst: e.peer,
                        start,
                        end: e.end,
                        kind: e.kind,
                    });
                }
            }
        }
        if touched {
            for p in 0..n {
                self.in_tail[p] = Self::tail_of(&self.ins[p]);
                self.out_tail[p] = Self::tail_of(&self.outs[p]);
            }
        }
        removed
    }

    /// Remove only `coflow`'s reservations with `start >= now`
    /// (keep-active semantics: a straddling circuit keeps transmitting).
    /// The affected-set replanner uses this to truncate exactly the
    /// Coflows it is about to reschedule, leaving every other Coflow's
    /// plan — and its tail caches on untouched ports — alone.
    ///
    /// Returns the removed reservations ordered by `(src, start)`, like
    /// [`Prt::truncate_future`].
    pub fn truncate_future_of(&mut self, coflow: CoflowId, now: Time) -> Vec<RemovedResv> {
        let mut removed = Vec::new();
        self.truncate_future_of_into(coflow, now, &mut removed);
        removed
    }

    /// [`Prt::truncate_future_of`] into a caller-owned scratch buffer
    /// (cleared, filled in `(src, start)` order); returns the count. A
    /// replanning loop reuses one buffer across calls so steady-state
    /// truncation allocates nothing.
    pub fn truncate_future_of_into(
        &mut self,
        coflow: CoflowId,
        now: Time,
        out: &mut Vec<RemovedResv>,
    ) -> u64 {
        out.clear();
        let Some(idx) = self.by_coflow.get(&coflow) else {
            return 0;
        };
        out.extend(
            idx.resvs
                .range((now, 0)..)
                .map(|(&(start, src), &(dst, end, flow_idx))| RemovedResv {
                    src,
                    dst,
                    start,
                    end,
                    kind: ResvKind::Flow(FlowRef { coflow, flow_idx }),
                }),
        );
        for r in out.iter() {
            self.ins[r.src].remove(&r.start).expect("entry exists");
            self.outs[r.dst]
                .remove(&r.start)
                .expect("peer entry exists");
            self.unindex(r.kind, r.src, r.start);
            self.in_tail[r.src] = Self::tail_of(&self.ins[r.src]);
            self.out_tail[r.dst] = Self::tail_of(&self.outs[r.dst]);
        }
        out.sort_by_key(|r| (r.src, r.start));
        out.len() as u64
    }

    /// Drop a removed reservation from the per-Coflow index.
    fn unindex(&mut self, kind: ResvKind, src: InPort, start: Time) {
        let ResvKind::Flow(flow) = kind;
        let idx = self
            .by_coflow
            .get_mut(&flow.coflow)
            .expect("coflow index out of sync");
        idx.remove(src, start);
        if idx.resvs.is_empty() {
            self.by_coflow.remove(&flow.coflow);
        }
    }

    /// Shorten the reservation `e` keyed `(src, start)` to end at `now`,
    /// on both ports and in the per-Coflow index. The tail caches are the
    /// caller's to refresh.
    fn shorten(&mut self, src: InPort, start: Time, e: Entry, now: Time) {
        self.ins[src].get_mut(&start).expect("entry exists").end = now;
        self.outs[e.peer]
            .get_mut(&start)
            .expect("peer entry exists")
            .end = now;
        let ResvKind::Flow(flow) = e.kind;
        self.by_coflow
            .get_mut(&flow.coflow)
            .expect("coflow index out of sync")
            .cut(src, start, now);
    }

    fn tail_of(map: &BTreeMap<Time, Entry>) -> Option<(Time, Time)> {
        map.iter().next_back().map(|(&s, e)| (s, e.end))
    }

    /// Cut one in-flight reservation short so it releases its ports at
    /// `now`. Used by the online replay's inter-Coflow preemption
    /// policies: a higher-priority Coflow may displace a lower-priority
    /// circuit (the displaced flow's remainder is rescheduled and pays a
    /// fresh `δ`).
    ///
    /// # Panics
    /// Panics unless a reservation keyed by `(src, start)` exists and is
    /// in flight (`start < now < end`).
    pub fn cut_reservation(&mut self, src: InPort, start: Time, now: Time) {
        let e = *self.ins[src]
            .get(&start)
            .expect("cut_reservation: no reservation at this key");
        assert!(
            start < now && now < e.end,
            "cut_reservation: reservation is not in flight at {now}"
        );
        self.shorten(src, start, e, now);
        if self.in_tail[src].is_some_and(|(s, _)| s == start) {
            self.in_tail[src] = Some((start, now));
        }
        if self.out_tail[e.peer].is_some_and(|(s, _)| s == start) {
            self.out_tail[e.peer] = Some((start, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::starvation::GuardConfig;
    use ocs_model::Dur;

    fn flow(idx: usize) -> ResvKind {
        ResvKind::Flow(FlowRef {
            coflow: 1,
            flow_idx: idx,
        })
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn fresh_ports_are_free_forever() {
        let prt = Prt::new(4);
        assert!(prt.in_free_at(0, Time::ZERO));
        assert!(prt.out_free_at(3, t(1000)));
        assert_eq!(prt.in_next_start_after(0, Time::ZERO), Time::MAX);
        assert_eq!(prt.next_release_after(Time::ZERO), None);
    }

    #[test]
    fn reservation_blocks_both_ports_half_open() {
        let mut prt = Prt::new(4);
        prt.reserve(0, 2, t(10), t(20), flow(0));
        assert!(prt.in_free_at(0, t(9)));
        assert!(!prt.in_free_at(0, t(10)));
        assert!(!prt.out_free_at(2, t(19)));
        // Half-open: free again exactly at the end.
        assert!(prt.in_free_at(0, t(20)));
        assert!(prt.out_free_at(2, t(20)));
        // Other ports unaffected (not-all-stop).
        assert!(prt.in_free_at(1, t(15)));
        assert!(prt.out_free_at(0, t(15)));
    }

    #[test]
    fn queries_for_algorithm_one() {
        let mut prt = Prt::new(4);
        prt.reserve(0, 0, t(10), t(20), flow(0));
        prt.reserve(1, 1, t(5), t(8), flow(1));
        assert_eq!(prt.in_next_start_after(0, Time::ZERO), t(10));
        assert_eq!(prt.in_next_start_after(0, t(10)), Time::MAX);
        assert_eq!(prt.next_release_after(Time::ZERO), Some(t(8)));
        assert_eq!(prt.next_release_after(t(8)), Some(t(20)));
        assert_eq!(prt.next_release_after(t(20)), None);
    }

    #[test]
    fn touching_reservations_are_legal() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(10), flow(0));
        prt.reserve(0, 1, t(10), t(20), flow(1));
        prt.reserve(1, 0, t(10), t(20), flow(2));
        assert_eq!(prt.flow_reservations().len(), 3);
    }

    #[test]
    #[should_panic(expected = "busy at")]
    fn overlap_on_input_port_panics() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(10), flow(0));
        prt.reserve(0, 1, t(5), t(15), flow(1));
    }

    #[test]
    #[should_panic(expected = "would overlap the next")]
    fn overlap_with_later_reservation_panics() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(10), t(20), flow(0));
        prt.reserve(0, 1, t(5), t(15), flow(1));
    }

    #[test]
    fn truncate_future_removes_and_cuts() {
        let mut prt = Prt::new(3);
        prt.reserve(0, 0, t(0), t(10), flow(0)); // past
        prt.reserve(1, 1, t(5), t(25), flow(1)); // active at 15
        prt.reserve(2, 2, t(20), t(30), flow(2)); // future

        let removed = prt.truncate_future(t(15), true);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].src, 2);
        // Active reservation kept intact.
        assert!(!prt.in_free_at(1, t(20)));
        assert_eq!(prt.next_release_after(t(15)), Some(t(25)));

        let removed = prt.truncate_future(t(15), false);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].src, 1);
        assert_eq!(removed[0].end, t(25)); // reports the original end
                                           // The active reservation was cut at 15.
        assert!(prt.in_free_at(1, t(15)));
        assert_eq!(prt.next_release_after(t(14)), Some(t(15)));
    }

    #[test]
    fn truncate_future_is_noop_on_past_only_table() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(10), flow(0));
        assert!(prt.truncate_future(t(10), true).is_empty());
        assert_eq!(prt.flow_reservations().len(), 1);
    }

    #[test]
    fn reservation_starting_exactly_now_is_future() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(10), t(20), flow(0));
        let removed = prt.truncate_future(t(10), true);
        assert_eq!(removed.len(), 1);
        assert!(prt.is_empty());
    }

    /// T = 100 ms, τ = 20 ms: windows [100, 120), [220, 240), ...
    fn guarded(n: usize) -> Prt {
        let config = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(20));
        Prt::with_guard(n, Some(StarvationGuard::new(n, config)))
    }

    #[test]
    fn guard_windows_take_every_port_without_being_reservations() {
        let mut prt = guarded(2);
        prt.reserve(1, 1, t(0), t(10), flow(0));
        for p in 0..2 {
            assert!(prt.in_free_at(p, t(50)));
            assert!(!prt.in_free_at(p, t(110)));
            assert!(!prt.out_free_at(p, t(110)));
            assert!(prt.out_free_at(p, t(120)));
        }
        // The window and the reservation answer as one obstacle set.
        assert_eq!(
            prt.in_probe(1, t(5)),
            PortProbe {
                free: false,
                next_start: t(100),
                next_release: Some(t(10)),
            }
        );
        assert_eq!(prt.in_next_start_after(0, t(110)), t(220));
        assert_eq!(prt.next_release_after(t(10)), Some(t(120)));
        assert_eq!(prt.all_reservations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "a guard window is under way")]
    fn reserving_inside_a_guard_window_panics() {
        guarded(2).reserve(0, 0, t(105), t(110), flow(0));
    }

    #[test]
    #[should_panic(expected = "would overlap the guard window at")]
    fn reserving_into_the_next_guard_window_panics() {
        guarded(2).reserve(0, 0, t(90), t(101), flow(0));
    }

    #[test]
    fn reservations_may_touch_a_guard_window_on_both_sides() {
        let mut prt = guarded(2);
        prt.reserve(0, 0, t(90), t(100), flow(0));
        prt.reserve(0, 0, t(120), t(220), flow(1));
        assert_eq!(prt.all_reservations().len(), 2);
    }

    #[test]
    fn cut_reservation_releases_ports_early() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 1, t(0), t(100), flow(0));
        prt.cut_reservation(0, t(0), t(40));
        assert!(prt.in_free_at(0, t(40)));
        assert!(prt.out_free_at(1, t(40)));
        assert!(!prt.in_free_at(0, t(39)));
        assert_eq!(prt.next_release_after(t(0)), Some(t(40)));
        let rs = prt.flow_reservations();
        assert_eq!(rs[0].end, t(40));
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn cutting_a_future_reservation_panics() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 1, t(50), t(100), flow(0));
        prt.cut_reservation(0, t(50), t(40));
    }

    fn flow_of(cf: u64, idx: usize) -> ResvKind {
        ResvKind::Flow(FlowRef {
            coflow: cf,
            flow_idx: idx,
        })
    }

    #[test]
    fn coflow_index_tracks_reservations() {
        let mut prt = Prt::new(4);
        prt.reserve(0, 0, t(0), t(10), flow_of(1, 0));
        prt.reserve(1, 1, t(5), t(30), flow_of(2, 0));
        prt.reserve(2, 2, t(0), t(20), flow_of(1, 1));

        let of1: Vec<_> = prt.future_reservations_of(1, Time::ZERO).collect();
        assert_eq!(of1.len(), 2);
        // (start, src) order.
        assert_eq!((of1[0].src, of1[0].start), (0, t(0)));
        assert_eq!((of1[1].src, of1[1].start), (2, t(0)));
        assert_eq!(prt.last_end_of(1), Some(t(20)));
        assert_eq!(prt.last_end_of(2), Some(t(30)));
        assert_eq!(prt.last_end_of(99), None);
        assert_eq!(prt.iter_reservations().count(), 3);
        assert_eq!(prt.naive_last_end_of(1), Some(t(20)));
    }

    #[test]
    fn coflow_index_follows_truncation_and_cuts() {
        let mut prt = Prt::new(4);
        prt.reserve(0, 0, t(0), t(40), flow_of(1, 0)); // in flight at 20
        prt.reserve(1, 1, t(25), t(60), flow_of(1, 1)); // future at 20
        prt.reserve(2, 2, t(30), t(50), flow_of(2, 0)); // future at 20

        prt.truncate_future(t(20), true);
        assert_eq!(prt.last_end_of(1), Some(t(40)));
        assert_eq!(prt.last_end_of(2), None, "fully-future coflow unindexed");
        assert_eq!(prt.future_reservations_of(2, Time::ZERO).count(), 0);

        prt.cut_reservation(0, t(0), t(20));
        assert_eq!(prt.last_end_of(1), Some(t(20)));
        let rs: Vec<_> = prt.future_reservations_of(1, Time::ZERO).collect();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].end, t(20));
        assert_eq!(prt.naive_last_end_of(1), Some(t(20)));
    }

    #[test]
    fn truncate_cut_rekeys_coflow_end() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(100), flow_of(7, 0));
        let removed = prt.truncate_future(t(30), false);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].end, t(100));
        assert_eq!(prt.last_end_of(7), Some(t(30)));
    }

    #[test]
    fn fast_and_naive_truncation_agree() {
        let build = || {
            let mut prt = Prt::new(4);
            prt.reserve(0, 0, t(0), t(10), flow_of(1, 0)); // past
            prt.reserve(0, 1, t(12), t(40), flow_of(1, 1)); // straddles 20
            prt.reserve(1, 2, t(20), t(30), flow_of(2, 0)); // future
            prt.reserve(1, 3, t(35), t(45), flow_of(2, 1)); // future
            prt.reserve(2, 2, t(50), t(60), flow_of(3, 0)); // future
            prt
        };
        for keep in [true, false] {
            let mut fast = build();
            let mut naive = build();
            let rf = fast.truncate_future(t(20), keep);
            let rn = naive.naive_truncate_future(t(20), keep);
            assert_eq!(rf, rn, "removed lists diverge (keep_active={keep})");
            assert_eq!(fast.flow_reservations(), naive.flow_reservations());
            assert_eq!(fast.all_reservations(), naive.all_reservations());
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries_and_index() {
        // Guarded: the timetable must come back with the reservations.
        let mut prt = guarded(4);
        prt.reserve(0, 0, t(0), t(10), flow_of(1, 0));
        prt.reserve(0, 1, t(12), t(40), flow_of(1, 1));
        prt.reserve(1, 2, t(20), t(30), flow_of(2, 0));
        prt.reserve(2, 2, t(50), t(60), flow_of(3, 0));
        prt.cut_reservation(0, t(12), t(25));

        let snap = prt.snapshot();
        assert_eq!(snap.ports(), 4);
        assert_eq!(snap.len(), 4);
        let back = Prt::from_snapshot(&snap);

        assert_eq!(back.all_reservations(), prt.all_reservations());
        assert_eq!(back.flow_reservations(), prt.flow_reservations());
        assert_eq!(back.last_end_of(1), prt.last_end_of(1));
        assert_eq!(back.last_end_of(2), prt.last_end_of(2));
        for p in 0..4 {
            for ms in [0u64, 5, 12, 24, 25, 30, 55, 60, 100, 119, 120] {
                assert_eq!(back.in_free_at(p, t(ms)), prt.in_free_at(p, t(ms)));
                assert_eq!(back.out_free_at(p, t(ms)), prt.out_free_at(p, t(ms)));
                assert_eq!(
                    back.in_next_start_after(p, t(ms)),
                    prt.in_next_start_after(p, t(ms))
                );
            }
        }
        // The timetable's releases never end: walk them through 500 ms.
        let releases_of = |table: &Prt| {
            let mut releases = Vec::new();
            let mut cursor = Time::ZERO;
            while let Some(r) = table.next_release_after(cursor).filter(|&r| r < t(500)) {
                releases.push(r);
                cursor = r;
            }
            releases
        };
        let (releases, expect) = (releases_of(&back), releases_of(&prt));
        assert!(releases.contains(&t(25)) && releases.contains(&t(360)));
        assert_eq!(releases, expect);
    }

    #[test]
    fn restored_table_accepts_new_reservations() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(10), flow_of(1, 0));
        let mut back = Prt::from_snapshot(&prt.snapshot());
        // Tail caches must be live: appending after the horizon works,
        // overlapping the restored reservation still panics elsewhere.
        back.reserve(0, 1, t(10), t(20), flow_of(2, 0));
        assert_eq!(back.last_end_of(2), Some(t(20)));
    }

    #[test]
    fn forget_before_prunes_only_the_past() {
        let mut prt = Prt::new(3);
        prt.reserve(0, 0, t(0), t(10), flow_of(1, 0)); // dead at 20
        prt.reserve(0, 1, t(12), t(20), flow_of(1, 1)); // ends exactly at 20: dead
        prt.reserve(1, 1, t(25), t(40), flow_of(2, 0)); // future
        prt.reserve(2, 2, t(15), t(30), flow_of(3, 0)); // straddles 20: kept

        assert_eq!(prt.forget_before(t(20)), 2);
        assert_eq!(prt.all_reservations().len(), 2);
        // Future queries unaffected.
        assert!(!prt.in_free_at(1, t(30)));
        assert_eq!(prt.next_release_after(t(20)), Some(t(30)));
        assert_eq!(prt.last_end_of(2), Some(t(40)));
        // Forgotten coflow's index entries are gone.
        assert_eq!(prt.last_end_of(1), None);
        assert_eq!(prt.future_reservations_of(1, Time::ZERO).count(), 0);
        // Pruning is idempotent.
        assert_eq!(prt.forget_before(t(20)), 0);
    }

    #[test]
    fn per_port_release_queries_see_only_their_port() {
        let mut prt = Prt::new(4);
        prt.reserve(0, 1, t(0), t(10), flow_of(1, 0));
        prt.reserve(0, 2, t(15), t(30), flow_of(1, 1));
        prt.reserve(3, 1, t(10), t(20), flow_of(2, 0));

        assert_eq!(prt.in_next_release_after(0, Time::ZERO), Some(t(10)));
        assert_eq!(prt.in_next_release_after(0, t(10)), Some(t(30)));
        assert_eq!(prt.in_next_release_after(0, t(30)), None);
        assert_eq!(prt.out_next_release_after(1, Time::ZERO), Some(t(10)));
        assert_eq!(prt.out_next_release_after(1, t(10)), Some(t(20)));
        assert_eq!(prt.in_next_release_after(2, Time::ZERO), None);

        // Twins agree.
        for p in 0..4 {
            for ms in [0u64, 5, 10, 15, 20, 30] {
                assert_eq!(
                    prt.in_next_release_after(p, t(ms)),
                    prt.naive_in_next_release_after(p, t(ms))
                );
                assert_eq!(
                    prt.out_next_release_after(p, t(ms)),
                    prt.naive_out_next_release_after(p, t(ms))
                );
            }
        }
    }

    #[test]
    fn release_queues_follow_cuts_and_truncation() {
        let mut prt = Prt::new(3);
        prt.reserve(0, 1, t(0), t(100), flow_of(1, 0));
        prt.reserve(2, 2, t(0), t(50), flow_of(2, 0));
        prt.cut_reservation(0, t(0), t(40));
        assert_eq!(prt.in_next_release_after(0, Time::ZERO), Some(t(40)));
        assert_eq!(prt.out_next_release_after(1, t(40)), None);

        let mut prt = Prt::new(2);
        prt.reserve(0, 0, t(0), t(100), flow_of(1, 0)); // straddles 30
        prt.reserve(1, 1, t(40), t(60), flow_of(2, 0)); // future
        prt.truncate_future(t(30), false);
        assert_eq!(prt.in_next_release_after(0, Time::ZERO), Some(t(30)));
        assert_eq!(prt.in_next_release_after(1, Time::ZERO), None);
        assert_eq!(prt.out_next_release_after(1, Time::ZERO), None);
    }

    #[test]
    fn truncate_future_of_is_scoped_to_one_coflow() {
        let build = || {
            let mut prt = Prt::new(4);
            prt.reserve(0, 0, t(0), t(40), flow_of(1, 0)); // in flight at 20: kept
            prt.reserve(1, 1, t(25), t(60), flow_of(1, 1)); // future: dropped
            prt.reserve(1, 2, t(70), t(90), flow_of(1, 2)); // future: dropped
            prt.reserve(2, 3, t(30), t(50), flow_of(2, 0)); // other coflow: kept
            prt
        };
        let mut scoped = build();
        let removed = scoped.truncate_future_of(1, t(20));
        assert_eq!(removed.len(), 2);
        assert_eq!(
            removed.iter().map(|r| (r.src, r.start)).collect::<Vec<_>>(),
            vec![(1, t(25)), (1, t(70))]
        );
        // Equivalent to a global keep-active truncation restricted to
        // coflow 1, given coflow 2's future survives.
        assert_eq!(scoped.last_end_of(1), Some(t(40)));
        assert_eq!(scoped.last_end_of(2), Some(t(50)));
        assert!(scoped.in_free_at(1, t(25)));
        assert!(!scoped.in_free_at(2, t(35)));
        assert_eq!(scoped.in_next_release_after(1, Time::ZERO), None);
        // Tail caches refreshed: port 1 accepts a fresh reservation.
        scoped.reserve(1, 1, t(25), t(35), flow_of(3, 0));
        assert_eq!(scoped.last_end_of(3), Some(t(35)));
        // No-op on unknown coflows.
        assert!(build().truncate_future_of(99, t(20)).is_empty());
    }

    #[test]
    fn forget_before_clears_emptied_tails() {
        let mut prt = Prt::new(2);
        prt.reserve(0, 1, t(0), t(10), flow_of(1, 0));
        assert_eq!(prt.forget_before(t(10)), 1);
        assert!(prt.is_empty());
        // Tail caches were reset: the port is free and reusable.
        assert!(prt.in_free_at(0, t(0)));
        assert!(prt.out_free_at(1, t(0)));
        prt.reserve(0, 1, t(5), t(8), flow_of(2, 0));
        assert_eq!(prt.last_end_of(2), Some(t(8)));
    }
}
