//! Intra-Coflow scheduling — Algorithm 1 of the paper.
//!
//! Sunflow is **non-preemptive at the intra-Coflow level**: once a circuit
//! is reserved it is never preempted by another subflow of the same
//! Coflow. Offline (one Coflow, empty PRT) this means every subflow gets
//! exactly one reservation — the minimum possible number of circuit
//! switchings — and the resulting CCT is provably within a factor of two
//! of the circuit-switched optimum (Lemma 1), for *any* ordering of the
//! scheduled circuits.
//!
//! The same routine is the building block of inter-Coflow scheduling:
//! when the PRT already holds reservations of higher-priority Coflows,
//! `MakeReservation` truncates new reservations so they never displace
//! them (line 16 of Algorithm 1, illustrated by Figure 2).

use crate::portset::PortSet;
use crate::prt::{PortProbe, Prt, ResvKind};
use ocs_model::{Coflow, Dur, Fabric, FlowRef, InPort, OutPort, Reservation, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The order in which Algorithm 1 considers the demand entries of a
/// Coflow. Lemma 1 holds for every ordering; §5.3.1 of the paper measures
/// the (small) performance differences between these three.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FlowOrder {
    /// Sort by `(src, dst)` port label — the paper's default.
    #[default]
    OrderedPort,
    /// Deterministic pseudo-random shuffle from the given seed.
    Random {
        /// Shuffle seed; the same seed always yields the same order.
        seed: u64,
    },
    /// Sort by demand size, largest first.
    SortedDemand,
}

/// Configuration of the Sunflow scheduler.
///
/// Construct it fluently from the default:
///
/// ```
/// use sunflow_core::{FlowOrder, SunflowConfig};
/// use ocs_model::Dur;
///
/// let cfg = SunflowConfig::default()
///     .order(FlowOrder::SortedDemand)
///     .quantum(Dur::from_millis(10));
/// assert_eq!(cfg.order, FlowOrder::SortedDemand);
/// ```
///
/// The struct is `#[non_exhaustive]`: new knobs may appear without a
/// breaking change, so downstream code must use the builder methods
/// rather than struct literals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SunflowConfig {
    /// Demand-consideration order (Algorithm 1 line 3, "shuffle P if
    /// desired").
    pub order: FlowOrder,
    /// §6's approximation knob: round every per-flow demand *up* to a
    /// multiple of this quantum before scheduling. Coarser demands mean
    /// fewer distinct circuit-release instants, pruning the loop of
    /// Algorithm 1 line 10 and cutting scheduler compute time — at the
    /// cost of holding circuits slightly longer than needed ("could
    /// reduce the optimality of the resulting schedules"). `None`
    /// schedules exact demands.
    pub quantum: Option<Dur>,
}

impl SunflowConfig {
    /// Set the demand-consideration order.
    pub fn order(mut self, order: FlowOrder) -> SunflowConfig {
        self.order = order;
        self
    }

    /// Set (or clear, with `None`) the §6 demand quantum.
    pub fn quantum(mut self, quantum: impl Into<Option<Dur>>) -> SunflowConfig {
        self.quantum = quantum.into();
        self
    }

    /// Round a demand up per the configured quantum.
    pub fn quantize(&self, p: Dur) -> Dur {
        match self.quantum {
            Some(q) if !q.is_zero() => Dur::from_ps(p.as_ps().div_ceil(q.as_ps()) * q.as_ps()),
            _ => p,
        }
    }
}

/// One pending demand entry `(i, j, p_ij)` of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// Index of the flow within its Coflow (`Coflow::flows()` order).
    pub flow_idx: usize,
    /// Input port.
    pub src: InPort,
    /// Output port.
    pub dst: OutPort,
    /// Remaining processing time `p_ij`.
    pub remaining: Dur,
}

/// xorshift64* — tiny deterministic generator for the `Random` order so
/// the core crate stays dependency-free.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

impl FlowOrder {
    /// Permute `demands` into this consideration order.
    pub fn apply(self, demands: &mut [Demand]) {
        match self {
            FlowOrder::OrderedPort => {
                demands.sort_by_key(|d| (d.src, d.dst));
            }
            FlowOrder::SortedDemand => {
                demands.sort_by(|a, b| b.remaining.cmp(&a.remaining).then(a.src.cmp(&b.src)));
            }
            FlowOrder::Random { seed } => {
                // Fisher–Yates with a fixed seed (never zero, which would
                // be a fixed point of xorshift).
                let mut s = seed | 1;
                for i in (1..demands.len()).rev() {
                    let j = (xorshift64star(&mut s) % (i as u64 + 1)) as usize;
                    demands.swap(i, j);
                }
            }
        }
    }
}

/// Counters describing the work one [`schedule_demands_counted`] call
/// performed — the evidence the port-scoped rewrite actually prunes the
/// Algorithm 1 inner loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleCounters {
    /// Release instants `t` was advanced through (Algorithm 1 line 10).
    pub releases_visited: u64,
    /// Demand entries examined across all passes (line 15 loop body).
    pub demands_scanned: u64,
}

impl ScheduleCounters {
    /// Accumulate another call's counters into this one.
    pub fn absorb(&mut self, other: ScheduleCounters) {
        self.releases_visited += other.releases_visited;
        self.demands_scanned += other.demands_scanned;
    }
}

/// The message scheduling dies with when a pending demand faces no future
/// circuit release — unreachable through the safe API (every blocked
/// demand's blocker ends at a release on its own port), kept structured so
/// a corrupted-PRT bug report carries enough context to localize.
fn no_release_message(coflow_id: u64, t: Time, pending: usize) -> String {
    format!(
        "coflow {coflow_id}: scheduling cannot progress at t={t}: \
         {pending} pending demand(s) but no future circuit release"
    )
}

/// The reservation table Algorithm 1 plans against: the four calls
/// [`schedule_demands_on`] makes, and nothing else.
///
/// [`Prt`] is the canonical implementation; `DeltaView`
/// ([`crate::delta`]) implements the same surface over a *read-only*
/// base table plus a mask-and-overlay diff, which is how the delta
/// re-planner computes a new plan against the old one without mutating
/// the shared table until the diff is applied. The planner core is
/// generic (and monomorphized) over this trait, so every path runs the
/// identical loop and produces byte-identical reservations.
///
/// A port's state at an instant is one fused [`PortProbe`] — freeness,
/// next start and next release resolved from a single lookup position.
/// Every obstacle a planner must respect is in that answer: the table's
/// reservations and, for a guarded table, the §4.2 timetable
/// ([`crate::StarvationGuard::probe`]); `reserve` re-validates both.
pub trait PlanTable {
    /// Number of ports on each side of the table.
    fn ports(&self) -> usize;
    /// Fused snapshot of input port `i` at `t`.
    fn in_probe(&self, i: InPort, t: Time) -> PortProbe;
    /// Fused snapshot of output port `j` at `t`.
    fn out_probe(&self, j: OutPort, t: Time) -> PortProbe;
    /// Reserve the circuit `[in.src, out.dst]` during `[start, end)`.
    fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind);
}

impl PlanTable for Prt {
    fn ports(&self) -> usize {
        Prt::ports(self)
    }
    fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        Prt::in_probe(self, i, t)
    }
    fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        Prt::out_probe(self, j, t)
    }
    fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind) {
        Prt::reserve(self, src, dst, start, end, kind)
    }
}

/// Reusable working memory of one [`schedule_demands_on`] call: the
/// pending list, the wake heap, the same-instant candidate buffer, and
/// the fresh-port busy mask. A caller that re-plans in a loop (the
/// online stepper) keeps one scratch per planning thread and recycles it
/// across calls, so the steady-state planner allocates nothing.
#[derive(Clone, Debug)]
pub struct ScheduleScratch {
    pending: Vec<Demand>,
    wake: BinaryHeap<Reverse<(Time, usize)>>,
    candidates: Vec<usize>,
    /// Two-sided bitset of ports this call has already reserved on — the
    /// first-level mask of the demand scan: a demand whose port is set
    /// here (and whose busy horizon covers `t`) is re-subscribed without
    /// a counted examination.
    fresh: PortSet,
    /// Per-port end of the latest reservation this call made there
    /// (valid only where [`ScheduleScratch::fresh`] has the bit set).
    busy_in: Vec<Time>,
    busy_out: Vec<Time>,
    /// Demands parked behind a fresh port's busy horizon. Instead of one
    /// wake subscription per parked demand per covering reservation
    /// (O(flows × reservations) heap churn on a shared port), the port
    /// itself holds a single chain token in the wake heap that re-arms
    /// while the horizon keeps extending and releases every parked
    /// demand at the first instant the port is genuinely free.
    parked_in: Vec<Vec<u32>>,
    parked_out: Vec<Vec<u32>>,
}

impl Default for ScheduleScratch {
    fn default() -> ScheduleScratch {
        ScheduleScratch {
            pending: Vec::new(),
            wake: BinaryHeap::new(),
            candidates: Vec::new(),
            fresh: PortSet::new(1),
            busy_in: vec![Time::ZERO; 1],
            busy_out: vec![Time::ZERO; 1],
            parked_in: vec![Vec::new(); 1],
            parked_out: vec![Vec::new(); 1],
        }
    }
}

impl ScheduleScratch {
    /// A scratch sized lazily on first use.
    pub fn new() -> ScheduleScratch {
        ScheduleScratch::default()
    }

    fn reset(&mut self, ports: usize) {
        self.pending.clear();
        self.wake.clear();
        self.candidates.clear();
        if self.fresh.ports() != ports {
            self.fresh = PortSet::new(ports);
            self.busy_in = vec![Time::ZERO; ports];
            self.busy_out = vec![Time::ZERO; ports];
            self.parked_in = vec![Vec::new(); ports];
            self.parked_out = vec![Vec::new(); ports];
        } else {
            self.fresh.clear();
            // The run loop drains every parked list before returning;
            // clearing here only guards against a prior panicked call.
            for list in &mut self.parked_in {
                list.clear();
            }
            for list in &mut self.parked_out {
                list.clear();
            }
        }
    }
}

/// Run Algorithm 1 (`IntraCoflow`) for one Coflow against the shared PRT.
///
/// `demands` lists the Coflow's remaining per-flow processing times (only
/// positive entries are considered); `start` is the scheduling origin
/// (line 4's `t = 0`, or "now" in the online replay); `delta` is the
/// circuit reconfiguration delay `δ`.
///
/// Returns the reservations made, in creation order. Reservation lengths
/// include the leading `δ`; a reservation of length `l` delivers `l − δ`
/// of processing time. A reservation may be shorter than `δ + p` only when
/// an existing (higher-priority) reservation on one of its ports forces
/// truncation; the remainder is rescheduled later, paying another `δ`.
///
/// # Panics
/// Panics if a demand references a port outside the PRT.
pub fn schedule_demands(
    prt: &mut Prt,
    coflow_id: u64,
    demands: &[Demand],
    start: Time,
    delta: Dur,
    config: SunflowConfig,
) -> Vec<Reservation> {
    schedule_demands_counted(prt, coflow_id, demands, start, delta, config).0
}

/// [`schedule_demands`] with its work counters — the port-scoped engine.
///
/// The loop is driven by per-demand *wake subscriptions* over the PRT's
/// per-port release queues: each unsatisfied demand, when examined,
/// subscribes to the single port release that can next change its state —
/// its blocked port's blocker end, the binding (earliest-next-start) port
/// of a gap shorter than `δ`, or its own truncated reservation's end —
/// and `t` advances straight to the earliest subscription. Each pass
/// then re-examines only the demands waking exactly at the new `t`.
/// Releases a rescan-everything loop would have visited in between are
/// provably no-ops — mid-call the table only *gains* reservations of
/// this Coflow, so a demand's state cannot improve before its subscribed
/// instant — and same-instant wakes are scanned in pending order, so the
/// reservations produced are byte-identical to that loop's (same order,
/// same starts, same ends; the reference loop lives in this crate's
/// `port_scoped_equivalence` tests), at O(wakes × log) instead of
/// O(global releases × pending demands).
pub fn schedule_demands_counted(
    prt: &mut Prt,
    coflow_id: u64,
    demands: &[Demand],
    start: Time,
    delta: Dur,
    config: SunflowConfig,
) -> (Vec<Reservation>, ScheduleCounters) {
    let mut scratch = ScheduleScratch::new();
    schedule_demands_on(prt, coflow_id, demands, start, delta, config, &mut scratch)
}

/// [`schedule_demands_counted`] generic over the [`PlanTable`] and with
/// caller-recycled [`ScheduleScratch`] — the engine both the offline
/// schedulers (against [`Prt`]) and the online replay's re-planner
/// (against `DeltaView`) run.
///
/// The fresh-port mask short-circuits the dominant blocked-demand churn:
/// when a candidate wakes on a port this call already reserved past `t`,
/// the covering reservation *is* that port's next release (reservations
/// on a port never overlap), so the demand is parked on the port without
/// a full examination. Parked demands share the port's single chain
/// token in the wake heap, which re-arms while the busy horizon keeps
/// extending and wakes the whole list at the first instant the port is
/// genuinely free — a demand's first *full* examination still lands at
/// the first wake instant past both of its ports' fresh horizons, so
/// every reservation produced is byte-identical to the unmasked loop's.
/// `demands_scanned` counts only full examinations; `releases_visited`
/// counts instants at which a candidate pass actually ran.
pub fn schedule_demands_on<T: PlanTable>(
    table: &mut T,
    coflow_id: u64,
    demands: &[Demand],
    start: Time,
    delta: Dur,
    config: SunflowConfig,
    scratch: &mut ScheduleScratch,
) -> (Vec<Reservation>, ScheduleCounters) {
    scratch.reset(table.ports());
    scratch.pending.extend(
        demands
            .iter()
            .copied()
            .filter(|d| d.remaining > Dur::ZERO)
            .map(|d| Demand {
                remaining: config.quantize(d.remaining),
                ..d
            }),
    );
    let pending = &mut scratch.pending;
    config.order.apply(pending);

    let mut counters = ScheduleCounters::default();
    let mut made = Vec::new();
    let mut t = start;
    let mut live = pending.len();
    let nd = pending.len();
    let ports = table.ports();

    // Every live demand is either in the current candidate pass, holds
    // exactly one wake subscription `(instant, index)`, or is parked
    // behind a fresh port whose chain token holds the subscription for
    // the whole list. Heap entries `nd..nd+ports` are input-port chain
    // tokens, `nd+ports..nd+2·ports` output-port chain tokens.
    let wake = &mut scratch.wake;
    // The first pass examines every demand, in the configured order.
    let candidates = &mut scratch.candidates;
    candidates.extend(0..pending.len());

    while live > 0 {
        for &i in candidates.iter() {
            let (src, dst) = (pending[i].src, pending[i].dst);
            // Fresh-port mask: a reservation this call made on `src`
            // still covering `t` blocks the demand until the port's busy
            // horizon stops extending — park it on the port's chain
            // without a counted examination.
            if scratch.fresh.contains_in(src) && scratch.busy_in[src] > t {
                if scratch.parked_in[src].is_empty() {
                    wake.push(Reverse((scratch.busy_in[src], nd + src)));
                }
                scratch.parked_in[src].push(i as u32);
                continue;
            }
            if scratch.fresh.contains_out(dst) && scratch.busy_out[dst] > t {
                // The examination checks the input side first; when an
                // existing table reservation blocks `src`, reproduce its
                // direct subscription exactly.
                let ip = table.in_probe(src, t);
                if !ip.free {
                    let w = ip
                        .next_release
                        .unwrap_or_else(|| panic!("{}", no_release_message(coflow_id, t, live)));
                    wake.push(Reverse((w, i)));
                } else {
                    if scratch.parked_out[dst].is_empty() {
                        wake.push(Reverse((scratch.busy_out[dst], nd + ports + dst)));
                    }
                    scratch.parked_out[dst].push(i as u32);
                }
                continue;
            }
            counters.demands_scanned += 1;
            // One fused probe per side answers the whole examination.
            // A blocked demand cannot start before its blocking port
            // frees — the blocker's end, that port's next release.
            let ip = table.in_probe(src, t);
            if !ip.free {
                let w = ip
                    .next_release
                    .unwrap_or_else(|| panic!("{}", no_release_message(coflow_id, t, live)));
                wake.push(Reverse((w, i)));
                continue;
            }
            let op = table.out_probe(dst, t);
            if !op.free {
                let w = op
                    .next_release
                    .unwrap_or_else(|| panic!("{}", no_release_message(coflow_id, t, live)));
                wake.push(Reverse((w, i)));
                continue;
            }
            // Earliest next reservation on either port bounds the length
            // (needed by inter-Coflow scheduling, Algorithm 1 line 16).
            let tm_src = ip.next_start;
            let tm_dst = op.next_start;
            let tm = tm_src.min(tm_dst);
            let lm = if tm == Time::MAX {
                Dur::MAX
            } else {
                tm.since(t)
            };
            let ld = delta + pending[i].remaining; // desired length
            let l = if lm < delta { Dur::ZERO } else { lm.min(ld) };
            if l.is_zero() {
                // Gap-limited: the free window before the binding port's
                // next reservation is shorter than δ, and only shrinks as
                // t approaches it. State can change only once that
                // reservation releases.
                let w = if tm_src <= tm_dst {
                    ip.next_release
                } else {
                    op.next_release
                };
                let w = w.unwrap_or_else(|| panic!("{}", no_release_message(coflow_id, t, live)));
                wake.push(Reverse((w, i)));
                continue;
            }
            let flow = FlowRef {
                coflow: coflow_id,
                flow_idx: pending[i].flow_idx,
            };
            table.reserve(src, dst, t, t + l, ResvKind::Flow(flow));
            scratch.fresh.insert_in(src);
            scratch.busy_in[src] = t + l;
            scratch.fresh.insert_out(dst);
            scratch.busy_out[dst] = t + l;
            made.push(Reservation {
                src,
                dst,
                start: t,
                end: t + l,
                flow,
            });
            // Remaining demand after this reservation (line 22). A
            // truncated demand resumes no earlier than its own circuit's
            // release.
            pending[i].remaining = ld - l;
            if pending[i].remaining.is_zero() {
                live -= 1;
            } else {
                wake.push(Reverse((t + l, i)));
            }
        }
        if live == 0 {
            break;
        }
        // Advance t to the earliest subscribed release (line 10, scoped).
        // One always exists while demand is pending: every unsatisfied
        // examined demand re-subscribed or parked above. A chain token
        // for a port whose horizon kept extending re-arms without waking
        // anyone, so an instant can come up empty; keep draining until a
        // demand actually wakes.
        candidates.clear();
        while candidates.is_empty() {
            let Reverse((w, first)) = wake
                .pop()
                .unwrap_or_else(|| panic!("{}", no_release_message(coflow_id, t, live)));
            t = w;
            wake_token(
                first,
                t,
                nd,
                ports,
                &scratch.busy_in,
                &scratch.busy_out,
                &mut scratch.parked_in,
                &mut scratch.parked_out,
                wake,
                candidates,
            );
            while let Some(&Reverse((w2, x))) = wake.peek() {
                if w2 != t {
                    break;
                }
                wake.pop();
                wake_token(
                    x,
                    t,
                    nd,
                    ports,
                    &scratch.busy_in,
                    &scratch.busy_out,
                    &mut scratch.parked_in,
                    &mut scratch.parked_out,
                    wake,
                    candidates,
                );
            }
        }
        counters.releases_visited += 1;
        // Ascending index order matches the rescan loop's scan order.
        candidates.sort_unstable();
    }
    (made, counters)
}

/// Wake-heap token dispatch for [`schedule_demands_on`]: demand indices
/// join the candidate pass directly; a port chain token re-arms at the
/// port's new busy horizon while it still extends past `t`, and
/// otherwise releases every demand parked behind the port.
#[allow(clippy::too_many_arguments)]
fn wake_token(
    x: usize,
    t: Time,
    nd: usize,
    ports: usize,
    busy_in: &[Time],
    busy_out: &[Time],
    parked_in: &mut [Vec<u32>],
    parked_out: &mut [Vec<u32>],
    wake: &mut BinaryHeap<Reverse<(Time, usize)>>,
    candidates: &mut Vec<usize>,
) {
    if x < nd {
        candidates.push(x);
    } else if x < nd + ports {
        let p = x - nd;
        if busy_in[p] > t {
            wake.push(Reverse((busy_in[p], x)));
        } else {
            candidates.extend(parked_in[p].drain(..).map(|i| i as usize));
        }
    } else {
        let p = x - nd - ports;
        if busy_out[p] > t {
            wake.push(Reverse((busy_out[p], x)));
        } else {
            candidates.extend(parked_out[p].drain(..).map(|i| i as usize));
        }
    }
}

/// The schedule Sunflow produced for one Coflow.
#[derive(Clone, Debug)]
pub struct CoflowSchedule {
    coflow: u64,
    start: Time,
    reservations: Vec<Reservation>,
    flow_finish: Vec<Time>,
    finish: Time,
}

impl CoflowSchedule {
    /// Assemble from the reservations made for a Coflow with `num_flows`
    /// subflows. Every subflow must be served by at least one reservation.
    pub fn new(
        coflow: u64,
        start: Time,
        num_flows: usize,
        reservations: Vec<Reservation>,
    ) -> CoflowSchedule {
        let mut flow_finish: Vec<Option<Time>> = vec![None; num_flows];
        for r in &reservations {
            debug_assert_eq!(r.flow.coflow, coflow);
            let slot = &mut flow_finish[r.flow.flow_idx];
            *slot = Some(slot.map_or(r.end, |t| t.max(r.end)));
        }
        let flow_finish: Vec<Time> = flow_finish
            .into_iter()
            .enumerate()
            .map(|(idx, t)| t.unwrap_or_else(|| panic!("flow {idx} received no reservation")))
            .collect();
        let finish = flow_finish
            .iter()
            .copied()
            .max()
            .expect("coflows are non-empty");
        CoflowSchedule {
            coflow,
            start,
            reservations,
            flow_finish,
            finish,
        }
    }

    /// The scheduled Coflow's id.
    pub fn coflow(&self) -> u64 {
        self.coflow
    }

    /// When scheduling began (the Coflow's release time).
    pub fn start(&self) -> Time {
        self.start
    }

    /// When the last subflow finished.
    pub fn finish(&self) -> Time {
        self.finish
    }

    /// Per-subflow finish times, indexed like `Coflow::flows()`.
    pub fn flow_finish(&self) -> &[Time] {
        &self.flow_finish
    }

    /// The reservations, in creation order.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Coflow completion time measured from the scheduling origin.
    pub fn cct(&self) -> Dur {
        self.finish.since(self.start)
    }

    /// Total circuit establishments (one per reservation). Offline this is
    /// exactly `|C|`, the minimum possible (Figure 5).
    pub fn circuit_setups(&self) -> u64 {
        self.reservations.len() as u64
    }

    /// Convert to the scheduler-agnostic outcome type.
    pub fn to_outcome(&self) -> ocs_model::ScheduleOutcome {
        ocs_model::ScheduleOutcome {
            coflow: self.coflow,
            start: self.start,
            finish: self.finish,
            flow_finish: self.flow_finish.clone(),
            circuit_setups: self.circuit_setups(),
        }
    }
}

/// The user-facing intra-Coflow scheduler: services one Coflow on an
/// otherwise idle fabric (the paper's intra-Coflow evaluation setting,
/// §5.3).
#[derive(Clone, Copy, Debug)]
pub struct IntraScheduler<'f> {
    fabric: &'f Fabric,
    config: SunflowConfig,
}

impl<'f> IntraScheduler<'f> {
    /// Create a scheduler for `fabric`.
    pub fn new(fabric: &'f Fabric, config: SunflowConfig) -> IntraScheduler<'f> {
        IntraScheduler { fabric, config }
    }

    /// Schedule `coflow` from time zero on an empty PRT and return its
    /// schedule.
    ///
    /// # Panics
    /// Panics if the Coflow does not fit the fabric.
    pub fn schedule(&self, coflow: &Coflow) -> CoflowSchedule {
        let mut prt = Prt::new(self.fabric.ports());
        self.schedule_on(&mut prt, coflow, Time::ZERO)
    }

    /// Schedule `coflow` from `start` against an existing PRT (used by the
    /// inter-Coflow framework).
    pub fn schedule_on(&self, prt: &mut Prt, coflow: &Coflow, start: Time) -> CoflowSchedule {
        assert!(
            self.fabric.fits(coflow),
            "coflow {} does not fit the {}-port fabric",
            coflow.id(),
            self.fabric.ports()
        );
        let demands: Vec<Demand> = coflow
            .flows()
            .iter()
            .enumerate()
            .map(|(flow_idx, f)| Demand {
                flow_idx,
                src: f.src,
                dst: f.dst,
                remaining: self.fabric.processing_time(f.bytes),
            })
            .collect();
        let reservations = schedule_demands(
            prt,
            coflow.id(),
            &demands,
            start,
            self.fabric.delta(),
            self.config,
        );
        CoflowSchedule::new(coflow.id(), start, coflow.num_flows(), reservations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{lemma1_holds, lemma2_holds, validate_port_constraints, Bandwidth};

    fn fabric(ports: usize) -> Fabric {
        Fabric::new(ports, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn schedule(coflow: &Coflow, fabric: &Fabric) -> CoflowSchedule {
        IntraScheduler::new(fabric, SunflowConfig::default()).schedule(coflow)
    }

    #[test]
    fn single_flow_takes_delta_plus_processing() {
        let f = fabric(2);
        let c = Coflow::builder(0).flow(0, 1, 1_000_000).build(); // 8 ms
        let s = schedule(&c, &f);
        assert_eq!(s.cct(), Dur::from_millis(18));
        assert_eq!(s.circuit_setups(), 1);
    }

    /// Offline, Sunflow sets up each circuit exactly once (Figure 5:
    /// switching count equals |C|).
    #[test]
    fn offline_switching_count_is_optimal() {
        let f = fabric(4);
        let c = Coflow::builder(0)
            .flow(0, 0, 3_000_000)
            .flow(0, 1, 1_000_000)
            .flow(1, 0, 2_000_000)
            .flow(2, 3, 5_000_000)
            .flow(3, 2, 1_000_000)
            .build();
        let s = schedule(&c, &f);
        assert_eq!(s.circuit_setups(), c.num_flows() as u64);
        validate_port_constraints(s.reservations()).unwrap();
    }

    /// One-to-one, one-to-many and many-to-one Coflows are scheduled
    /// optimally: CCT equals the circuit lower bound T_cL (§5.3.1).
    #[test]
    fn single_row_or_column_coflows_hit_the_lower_bound() {
        let f = fabric(8);
        let cases = [
            Coflow::builder(0).flow(0, 5, 2_000_000).build(),
            Coflow::builder(1)
                .flow(0, 1, 1_000_000)
                .flow(0, 2, 2_000_000)
                .flow(0, 3, 3_000_000)
                .build(),
            Coflow::builder(2)
                .flow(1, 7, 4_000_000)
                .flow(2, 7, 1_000_000)
                .flow(5, 7, 9_000_000)
                .build(),
        ];
        for c in &cases {
            let s = schedule(c, &f);
            assert_eq!(
                s.cct(),
                ocs_model::circuit_lower_bound(c, &f),
                "coflow {} should be optimal",
                c.id()
            );
        }
    }

    /// A 2x2 shuffle cannot avoid serializing two flows per port, but
    /// stays within the Lemma 1 bound.
    #[test]
    fn square_shuffle_meets_lemma1() {
        let f = fabric(2);
        let c = Coflow::builder(0)
            .flow(0, 0, 1_000_000)
            .flow(0, 1, 1_000_000)
            .flow(1, 0, 1_000_000)
            .flow(1, 1, 1_000_000)
            .build();
        let s = schedule(&c, &f);
        // Perfectly pipelined: two sequential (delta + 8 ms) per port.
        assert_eq!(s.cct(), Dur::from_millis(36));
        assert!(lemma1_holds(s.cct(), &c, &f));
        assert!(lemma2_holds(s.cct(), &c, &f));
    }

    /// The circuits interleave with no synchronized setup/teardown: the
    /// paper's Figure 1c example structure — skewed demand where
    /// non-preemption shines.
    #[test]
    fn skewed_demand_stays_non_preempted() {
        let f = fabric(5);
        // Figure 1-like: 5 inputs, 2 outputs.
        let mut b = Coflow::builder(0);
        for i in 0..5 {
            b = b.flow(i, 0, 2_000_000 + i as u64 * 500_000);
            b = b.flow(i, 1, 1_000_000 + i as u64 * 250_000);
        }
        let c = b.build();
        let s = schedule(&c, &f);
        validate_port_constraints(s.reservations()).unwrap();
        assert_eq!(s.circuit_setups(), 10);
        assert!(lemma1_holds(s.cct(), &c, &f));
    }

    #[test]
    fn all_orderings_satisfy_lemma1_and_demand() {
        let f = fabric(6);
        let mut b = Coflow::builder(0);
        for (i, j, mb) in [
            (0, 0, 7),
            (0, 3, 2),
            (1, 3, 9),
            (2, 1, 1),
            (3, 3, 4),
            (4, 2, 11),
            (5, 5, 3),
            (1, 5, 2),
        ] {
            b = b.flow(i, j, mb * 1_000_000);
        }
        let c = b.build();
        for order in [
            FlowOrder::OrderedPort,
            FlowOrder::SortedDemand,
            FlowOrder::Random { seed: 1 },
            FlowOrder::Random { seed: 99 },
        ] {
            let s = IntraScheduler::new(&f, SunflowConfig::default().order(order)).schedule(&c);
            validate_port_constraints(s.reservations()).unwrap();
            assert!(lemma1_holds(s.cct(), &c, &f), "order {order:?}");
            // Demand satisfied exactly: each flow's reservations deliver
            // its processing time.
            let served = ocs_model::served_per_flow(s.reservations(), f.delta());
            for (idx, fl) in c.flows().iter().enumerate() {
                let want = f.processing_time(fl.bytes);
                let key = FlowRef {
                    coflow: 0,
                    flow_idx: idx,
                };
                assert_eq!(served[&key], want, "flow {idx} under {order:?}");
            }
        }
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let f = fabric(4);
        let mut b = Coflow::builder(0);
        for i in 0..4 {
            for j in 0..4 {
                b = b.flow(i, j, 1_000_000 * (1 + i as u64 + j as u64));
            }
        }
        let c = b.build();
        let cfg = SunflowConfig::default().order(FlowOrder::Random { seed: 7 });
        let a = IntraScheduler::new(&f, cfg).schedule(&c);
        let b2 = IntraScheduler::new(&f, cfg).schedule(&c);
        assert_eq!(a.reservations(), b2.reservations());
    }

    #[test]
    fn zero_delta_still_schedules() {
        let f = Fabric::new(3, Bandwidth::GBPS, Dur::ZERO);
        let c = Coflow::builder(0)
            .flow(0, 0, 1_000_000)
            .flow(0, 1, 1_000_000)
            .flow(1, 1, 1_000_000)
            .build();
        let s = schedule(&c, &f);
        assert_eq!(s.cct(), Dur::from_millis(16));
        validate_port_constraints(s.reservations()).unwrap();
    }

    /// Inter-Coflow truncation: a pre-existing reservation forces a
    /// later-priority flow to split, exactly like C2 on [in.5, out.7] in
    /// Figure 2.
    #[test]
    fn lower_priority_demand_is_truncated_not_displacing() {
        let f = fabric(2);
        let delta = f.delta();
        let mut prt = Prt::new(2);
        // Higher-priority Coflow holds in.0 from 30 ms to 60 ms.
        prt.reserve(
            0,
            1,
            Time::from_millis(30),
            Time::from_millis(60),
            ResvKind::Flow(FlowRef {
                coflow: 9,
                flow_idx: 0,
            }),
        );
        // Lower-priority flow on in.0 wants 40 ms of processing.
        let demands = [Demand {
            flow_idx: 0,
            src: 0,
            dst: 0,
            remaining: Dur::from_millis(40),
        }];
        let rs = schedule_demands(
            &mut prt,
            1,
            &demands,
            Time::ZERO,
            delta,
            SunflowConfig::default(),
        );
        // First reservation truncated at 30 ms (delivers 20 ms of data),
        // second starts at 60 ms for the remaining 20 ms + delta.
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].start, Time::ZERO);
        assert_eq!(rs[0].end, Time::from_millis(30));
        assert_eq!(rs[1].start, Time::from_millis(60));
        assert_eq!(rs[1].end, Time::from_millis(90));
        validate_port_constraints(&rs).unwrap();
    }

    /// A gap shorter than delta is useless: Algorithm 1 line 19 sets
    /// l = 0 and waits for the blocking reservation to clear.
    #[test]
    fn gap_shorter_than_delta_is_skipped() {
        let f = fabric(2);
        let mut prt = Prt::new(2);
        prt.reserve(
            0,
            1,
            Time::from_millis(5),
            Time::from_millis(50),
            ResvKind::Flow(FlowRef {
                coflow: 9,
                flow_idx: 0,
            }),
        );
        let demands = [Demand {
            flow_idx: 0,
            src: 0,
            dst: 0,
            remaining: Dur::from_millis(10),
        }];
        let rs = schedule_demands(
            &mut prt,
            1,
            &demands,
            Time::ZERO,
            f.delta(),
            SunflowConfig::default(),
        );
        assert_eq!(rs.len(), 1);
        // Not scheduled in the 5 ms gap (< delta = 10 ms); starts at 50 ms.
        assert_eq!(rs[0].start, Time::from_millis(50));
        assert_eq!(rs[0].end, Time::from_millis(70));
    }

    /// §6 approximation: quantized demands still yield valid schedules,
    /// never finish earlier than exact ones, and overshoot by at most one
    /// quantum per flow on the busiest port.
    #[test]
    fn quantized_demands_bound_the_overshoot() {
        let f = fabric(4);
        let c = Coflow::builder(0)
            .flow(0, 0, 3_141_592)
            .flow(0, 1, 2_718_281)
            .flow(1, 0, 1_414_213)
            .flow(1, 1, 1_732_050)
            .build();
        let exact = IntraScheduler::new(&f, SunflowConfig::default()).schedule(&c);
        let q = Dur::from_millis(10);
        let approx = IntraScheduler::new(&f, SunflowConfig::default().quantum(q)).schedule(&c);
        validate_port_constraints(approx.reservations()).unwrap();
        assert!(approx.cct() >= exact.cct());
        // Two flows per port: at most 2 quanta of overshoot.
        assert!(approx.cct() <= exact.cct() + q * 2);
        // Every reservation length (minus delta) is a whole quantum.
        for r in approx.reservations() {
            assert_eq!(r.transmit_time(f.delta()).as_ps() % q.as_ps(), 0);
        }
    }

    #[test]
    fn quantize_rounds_up_to_multiples() {
        let cfg = SunflowConfig::default().quantum(Dur::from_millis(10));
        assert_eq!(cfg.quantize(Dur::from_millis(1)), Dur::from_millis(10));
        assert_eq!(cfg.quantize(Dur::from_millis(10)), Dur::from_millis(10));
        assert_eq!(cfg.quantize(Dur::from_millis(11)), Dur::from_millis(20));
        assert_eq!(
            SunflowConfig::default().quantize(Dur::from_millis(11)),
            Dur::from_millis(11)
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_coflow_is_rejected() {
        let f = fabric(2);
        let c = Coflow::builder(0).flow(5, 0, 1).build();
        let _ = schedule(&c, &f);
    }

    /// The cannot-progress panic names the Coflow, the stuck instant and
    /// the number of stranded demands — the context a corrupted-PRT bug
    /// report needs. The condition itself is unreachable through the safe
    /// API, so the message path is tested directly.
    #[test]
    fn no_release_message_carries_context() {
        let msg = no_release_message(42, Time::from_millis(17), 3);
        assert!(msg.contains("coflow 42"), "{msg}");
        assert!(msg.contains(&format!("{}", Time::from_millis(17))), "{msg}");
        assert!(msg.contains("3 pending demand(s)"), "{msg}");
        assert!(msg.contains("no future circuit release"), "{msg}");
    }
}
