//! The reference model the equivalence suites check [`Prt`] against: a
//! flat list of reservations that answers every query by linear scan and
//! applies every mutation by filtering. It shares no code with the table
//! — no maps, tail caches, per-Coflow index or probes — so a fast path
//! that drifts from it is wrong, not merely different.
//!
//! [`ref_schedule_demands`] is Algorithm 1 in its original
//! rescan-everything form, planning on a [`RefTable`].
//!
//! [`Prt`]: sunflow_core::Prt

// Each suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

use ocs_model::{CoflowId, Dur, FlowRef, InPort, OutPort, Reservation, Time};
use sunflow_core::{Demand, PortProbe, RemovedResv, ResvKind, SunflowConfig};

/// One reservation: `(src, dst, start, end, flow)`.
pub type Row = (InPort, OutPort, Time, Time, FlowRef);

/// The reference Port Reservation Table (unguarded).
#[derive(Debug, Default)]
pub struct RefTable {
    rows: Vec<Row>,
}

/// The probe of one port at `t` over its reservations' `(start, end)`.
fn probe(spans: impl Iterator<Item = (Time, Time)>, t: Time) -> PortProbe {
    let mut p = PortProbe::IDLE;
    for (start, end) in spans {
        if start <= t && t < end {
            p.free = false;
        }
        if start > t {
            p.next_start = p.next_start.min(start);
        }
        if end > t {
            p.next_release = Some(p.next_release.map_or(end, |r| r.min(end)));
        }
    }
    p
}

fn removed(&(src, dst, start, end, flow): &Row) -> RemovedResv {
    RemovedResv {
        src,
        dst,
        start,
        end,
        kind: ResvKind::Flow(flow),
    }
}

fn by_port(mut v: Vec<RemovedResv>) -> Vec<RemovedResv> {
    v.sort_by_key(|r| (r.src, r.start));
    v
}

impl RefTable {
    /// Input port `i` at `t`.
    pub fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        let spans = self.rows.iter().filter(|r| r.0 == i).map(|r| (r.2, r.3));
        probe(spans, t)
    }

    /// Output port `j` at `t`.
    pub fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        let spans = self.rows.iter().filter(|r| r.1 == j).map(|r| (r.2, r.3));
        probe(spans, t)
    }

    /// The earliest reservation end strictly after `t` on any port.
    pub fn next_release_after(&self, t: Time) -> Option<Time> {
        self.rows.iter().map(|r| r.3).filter(|&e| e > t).min()
    }

    /// May `[src, dst]` be reserved during `[start, end)`: a non-empty
    /// interval overlapping no reservation on either port.
    pub fn legal(&self, src: InPort, dst: OutPort, start: Time, end: Time) -> bool {
        start < end
            && self
                .rows
                .iter()
                .filter(|r| r.0 == src || r.1 == dst)
                .all(|r| end <= r.2 || r.3 <= start)
    }

    /// Add a reservation.
    ///
    /// # Panics
    /// Panics unless [`RefTable::legal`].
    pub fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, flow: FlowRef) {
        assert!(self.legal(src, dst, start, end), "illegal reservation");
        self.rows.push((src, dst, start, end, flow));
    }

    /// The latest end among `coflow`'s reservations.
    pub fn last_end_of(&self, coflow: CoflowId) -> Option<Time> {
        self.rows
            .iter()
            .filter(|r| r.4.coflow == coflow)
            .map(|r| r.3)
            .max()
    }

    /// `coflow`'s reservations with `start >= now`, by `(start, src)`.
    pub fn future_reservations_of(&self, coflow: CoflowId, now: Time) -> Vec<Reservation> {
        let mut v: Vec<Reservation> = self
            .rows
            .iter()
            .filter(|r| r.4.coflow == coflow && r.2 >= now)
            .map(|&(src, dst, start, end, flow)| Reservation {
                src,
                dst,
                start,
                end,
                flow,
            })
            .collect();
        v.sort_by_key(|r| (r.start, r.src));
        v
    }

    /// Every reservation, by `(src, start)`.
    pub fn table(&self) -> Vec<RemovedResv> {
        by_port(self.rows.iter().map(removed).collect())
    }

    /// The reservations in flight at `now` (`start < now < end`), by
    /// `(src, start)`.
    pub fn in_flight(&self, now: Time) -> Vec<Row> {
        let mut v: Vec<Row> = self
            .rows
            .iter()
            .copied()
            .filter(|r| r.2 < now && now < r.3)
            .collect();
        v.sort_by_key(|r| (r.0, r.2));
        v
    }

    /// Drop every reservation with `start >= now`; cut the ones in
    /// flight at `now` to end there unless `keep_active`. Returns the
    /// dropped and cut reservations with their original extents, by
    /// `(src, start)`.
    pub fn truncate_future(&mut self, now: Time, keep_active: bool) -> Vec<RemovedResv> {
        let hit = |r: &Row| r.2 >= now || (!keep_active && now < r.3);
        let out = by_port(self.rows.iter().filter(|r| hit(r)).map(removed).collect());
        self.rows.retain(|r| r.2 < now);
        if !keep_active {
            for r in &mut self.rows {
                r.3 = r.3.min(now);
            }
        }
        out
    }

    /// Drop `coflow`'s reservations with `start >= now`, by `(src, start)`.
    pub fn truncate_future_of(&mut self, coflow: CoflowId, now: Time) -> Vec<RemovedResv> {
        let hit = |r: &Row| r.4.coflow == coflow && r.2 >= now;
        let out = by_port(self.rows.iter().filter(|r| hit(r)).map(removed).collect());
        self.rows.retain(|r| !hit(r));
        out
    }

    /// Cut the reservation keyed `(src, start)` to end at `now`.
    pub fn cut(&mut self, src: InPort, start: Time, now: Time) {
        for r in &mut self.rows {
            if r.0 == src && r.2 == start {
                r.3 = now;
            }
        }
    }

    /// Drop every reservation that ended at or before `cutoff`; returns
    /// how many.
    pub fn forget_before(&mut self, cutoff: Time) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| r.3 > cutoff);
        before - self.rows.len()
    }
}

/// Algorithm 1 as the paper writes it: at each instant, examine every
/// pending demand in order and reserve what fits, then advance `t` to the
/// next circuit release anywhere in the table. The engine under test must
/// reproduce its reservation stream byte for byte.
pub fn ref_schedule_demands(
    table: &mut RefTable,
    coflow_id: u64,
    demands: &[Demand],
    start: Time,
    delta: Dur,
    config: SunflowConfig,
) -> Vec<Reservation> {
    let mut pending: Vec<Demand> = demands
        .iter()
        .filter(|d| d.remaining > Dur::ZERO)
        .map(|&d| Demand {
            remaining: config.quantize(d.remaining),
            ..d
        })
        .collect();
    config.order.apply(&mut pending);

    let mut made = Vec::new();
    let mut t = start;
    while !pending.is_empty() {
        for d in pending.iter_mut() {
            let (ip, op) = (table.in_probe(d.src, t), table.out_probe(d.dst, t));
            if !(ip.free && op.free) {
                continue;
            }
            let tm = ip.next_start.min(op.next_start);
            let lm = if tm == Time::MAX {
                Dur::MAX
            } else {
                tm.since(t)
            };
            let ld = delta + d.remaining;
            let l = if lm < delta { Dur::ZERO } else { lm.min(ld) };
            if l > Dur::ZERO {
                let flow = FlowRef {
                    coflow: coflow_id,
                    flow_idx: d.flow_idx,
                };
                table.reserve(d.src, d.dst, t, t + l, flow);
                made.push(Reservation {
                    src: d.src,
                    dst: d.dst,
                    start: t,
                    end: t + l,
                    flow,
                });
                d.remaining = ld - l;
            }
        }
        pending.retain(|d| d.remaining > Dur::ZERO);
        if !pending.is_empty() {
            t = table
                .next_release_after(t)
                .expect("a pending demand waits on a release");
        }
    }
    made
}
