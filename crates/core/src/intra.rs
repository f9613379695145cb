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
/// (or one [`Walk`] since its restart) performed — the evidence the port-scoped rewrite actually prunes the
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

/// Reusable working memory of [`schedule_demands_on`]: one [`Walk`]
/// whose buffers are recycled across calls. A caller that re-plans in a
/// loop keeps one scratch and passes it to every call, so the
/// steady-state planner allocates only the plans it returns.
#[derive(Clone, Debug, Default)]
pub struct ScheduleScratch {
    walk: Walk,
}

impl ScheduleScratch {
    /// A scratch sized lazily on first use.
    pub fn new() -> ScheduleScratch {
        ScheduleScratch::default()
    }
}

/// What a [`Walk`] must see before it probes the table: the
/// reservations of every walk that outranks it.
///
/// Planned one Coflow after another, a Coflow finds every higher-ranked
/// plan complete in the table. Walks that pause and resume interleave,
/// so before a walk examines a demand it asks for the part of the
/// higher-ranked plans that examination can read: every reservation on
/// the demand's ports that starts before `until`. An implementation
/// advances the higher-ranked walks whose Coflows touch the port to at
/// least `until` (DESIGN §4, "Plan only as far as the next arrival").
/// [`Alone`] is the implementation for a walk nothing outranks, or one
/// whose outranking plans are already complete.
pub trait Outranking<T: PlanTable> {
    /// Put into `table` every higher-ranked reservation on input port
    /// `src` that starts before `until`. Returns `false` only if the
    /// table is unchanged.
    fn reveal_in(&mut self, table: &mut T, src: InPort, until: Time) -> bool;
    /// Same for output port `dst`.
    fn reveal_out(&mut self, table: &mut T, dst: OutPort, until: Time) -> bool;
}

/// Nothing outranks the walk, or every plan that does is complete.
#[derive(Clone, Copy, Debug, Default)]
pub struct Alone;

impl<T: PlanTable> Outranking<T> for Alone {
    #[inline]
    fn reveal_in(&mut self, _: &mut T, _: InPort, _: Time) -> bool {
        false
    }
    #[inline]
    fn reveal_out(&mut self, _: &mut T, _: OutPort, _: Time) -> bool {
        false
    }
}

/// Algorithm 1 for one Coflow as a value that can stop at an instant and
/// resume later.
///
/// [`Walk::restart`] loads the Coflow's demands at a start instant;
/// [`Walk::advance`] runs every candidate pass at an instant before
/// `until` and stops. The walk's *frontier* ([`Walk::frontier`]) is the
/// instant of the pass due next: every reservation it has yet to make
/// starts there or later. [`schedule_demands_on`] is a walk advanced to
/// `Time::MAX` in one call, so a walk advanced in any number of steps
/// makes the same reservations, in the same order, with the same
/// counters, as long as nothing it reads changes between its steps:
/// whatever the table gains meanwhile ends by its frontier or lies on
/// ports it does not touch.
///
/// Everything it holds is sized by its own Coflow: per-port state is
/// indexed by the Coflow's own ports, so a paused walk costs its
/// Coflow's footprint, not the fabric's width.
///
/// The loop is driven by per-demand *wake subscriptions* over the
/// table's per-port releases: each unsatisfied demand, when examined,
/// subscribes to the single release that can next change its state —
/// its blocked port's blocker end, the binding (earliest-next-start)
/// port of a gap shorter than `δ`, or its own truncated reservation's
/// end — and time advances straight to the earliest subscription.
/// Releases in between are provably no-ops: the table only gains
/// obstacles, so a demand's state cannot improve before its subscribed
/// instant. A demand that wakes on a port this walk already reserved
/// past the instant is parked on the port without a counted
/// examination; the port holds one *chain token* in the wake heap that
/// re-arms while its busy horizon keeps extending and wakes the whole
/// list at the first instant the port is genuinely free.
#[derive(Clone, Debug, Default)]
pub struct Walk {
    coflow: u64,
    delta: Dur,
    /// The instant of the pass due next (the frontier), while demand is
    /// live.
    t: Time,
    /// The demands in consideration order, with what each still needs.
    pending: Vec<Demand>,
    /// Per pending demand, the slots of its input and output port in
    /// `in_ports` / `out_ports`.
    slots: Vec<(u32, u32)>,
    /// The Coflow's distinct input and output ports, sorted: slot `k`
    /// is port `in_ports[k]`.
    in_ports: Vec<InPort>,
    out_ports: Vec<OutPort>,
    /// Demands not yet fully reserved.
    live: usize,
    /// Every live demand is either in the pass due next, holds exactly
    /// one subscription `(instant, index)`, or is parked behind a port
    /// whose chain token holds the subscription for the whole list.
    /// Entries `nd..nd+n_in` are input-slot chain tokens,
    /// `nd+n_in..nd+n_in+n_out` output-slot chain tokens.
    wake: BinaryHeap<Reverse<(Time, usize)>>,
    /// The pass due next at `t`, in ascending pending order.
    candidates: Vec<usize>,
    /// Per slot, the end of the latest reservation this walk made on
    /// the port (`Time::ZERO`: none yet).
    busy_in: Vec<Time>,
    busy_out: Vec<Time>,
    /// Per slot, the demands parked behind the port's busy horizon (at
    /// least one list per slot).
    parked_in: Vec<Vec<u32>>,
    parked_out: Vec<Vec<u32>>,
    counters: ScheduleCounters,
}

impl Walk {
    /// A finished walk holding nothing.
    pub fn new() -> Walk {
        Walk::default()
    }

    /// Load `coflow_id`'s `demands` (positive entries only, quantized
    /// and ordered per `config`) to be planned from `start` with
    /// reconfiguration delay `delta`, discarding whatever the walk held.
    /// Buffers keep their capacity.
    pub fn restart(
        &mut self,
        coflow_id: u64,
        demands: &[Demand],
        start: Time,
        delta: Dur,
        config: SunflowConfig,
    ) {
        self.coflow = coflow_id;
        self.delta = delta;
        self.t = start;
        self.counters = ScheduleCounters::default();
        self.pending.clear();
        self.pending.extend(
            demands
                .iter()
                .copied()
                .filter(|d| d.remaining > Dur::ZERO)
                .map(|d| Demand {
                    remaining: config.quantize(d.remaining),
                    ..d
                }),
        );
        config.order.apply(&mut self.pending);
        self.live = self.pending.len();
        self.in_ports.clear();
        self.in_ports.extend(self.pending.iter().map(|d| d.src));
        self.in_ports.sort_unstable();
        self.in_ports.dedup();
        self.out_ports.clear();
        self.out_ports.extend(self.pending.iter().map(|d| d.dst));
        self.out_ports.sort_unstable();
        self.out_ports.dedup();
        let (ins, outs) = (&self.in_ports, &self.out_ports);
        self.slots.clear();
        self.slots.extend(self.pending.iter().map(|d| {
            let si = ins.binary_search(&d.src).expect("own port");
            let so = outs.binary_search(&d.dst).expect("own port");
            (si as u32, so as u32)
        }));
        self.busy_in.clear();
        self.busy_in.resize(ins.len(), Time::ZERO);
        self.busy_out.clear();
        self.busy_out.resize(outs.len(), Time::ZERO);
        // Parked lists are only ever added: a reused walk keeps the
        // lists (and their room) of every Coflow it planned before.
        for (lists, n) in [
            (&mut self.parked_in, ins.len()),
            (&mut self.parked_out, outs.len()),
        ] {
            for list in lists.iter_mut() {
                list.clear();
            }
            if lists.len() < n {
                lists.resize_with(n, Vec::new);
            }
        }
        self.wake.clear();
        // The first pass examines every demand, in the configured order.
        self.candidates.clear();
        self.candidates.extend(0..self.pending.len());
    }

    /// Has every demand been reserved?
    pub fn is_finished(&self) -> bool {
        self.live == 0
    }

    /// The instant of the pass due next — every reservation the walk has
    /// yet to make starts there or later — or `None` once finished.
    pub fn frontier(&self) -> Option<Time> {
        (self.live > 0).then_some(self.t)
    }

    /// The work this walk performed since its last restart.
    pub fn counters(&self) -> ScheduleCounters {
        self.counters
    }

    /// Run every candidate pass at an instant before `until` against
    /// `table` (every pass, when `until` is `Time::MAX`), reserving
    /// through [`PlanTable::reserve`]. Before probing for a demand the
    /// walk asks `above` to reveal the outranking reservations that
    /// examination can read.
    ///
    /// # Panics
    /// Panics if a pending demand faces no future circuit release (a
    /// corrupted table), or a demand references a port outside it.
    pub fn advance<T: PlanTable, O: Outranking<T>>(
        &mut self,
        table: &mut T,
        until: Time,
        above: &mut O,
    ) {
        let Walk {
            coflow,
            delta,
            t,
            pending,
            slots,
            live,
            wake,
            candidates,
            busy_in,
            busy_out,
            parked_in,
            parked_out,
            counters,
            ..
        } = self;
        let (coflow_id, delta) = (*coflow, *delta);
        let stuck =
            |t: Time, live: usize| -> Time { panic!("{}", no_release_message(coflow_id, t, live)) };
        let nd = pending.len();
        let n_in = busy_in.len();
        while *live > 0 {
            if until != Time::MAX && *t >= until {
                return;
            }
            let now = *t;
            for &i in candidates.iter() {
                let (src, dst) = (pending[i].src, pending[i].dst);
                let (si, so) = (slots[i].0 as usize, slots[i].1 as usize);
                // Fresh-port mask: a reservation this walk made on `src`
                // still covering `now` blocks the demand until the
                // port's busy horizon stops extending — park it on the
                // port's chain without a counted examination.
                if busy_in[si] > now {
                    if parked_in[si].is_empty() {
                        wake.push(Reverse((busy_in[si], nd + si)));
                    }
                    parked_in[si].push(i as u32);
                    continue;
                }
                if busy_out[so] > now {
                    // The examination checks the input side first; when
                    // a table reservation blocks `src`, reproduce its
                    // direct subscription exactly. Only a reservation
                    // covering `now` can, and it starts by `now`.
                    above.reveal_in(table, src, now.saturating_add(Dur::from_ps(1)));
                    let ip = table.in_probe(src, now);
                    if !ip.free {
                        let w = ip.next_release.unwrap_or_else(|| stuck(now, *live));
                        wake.push(Reverse((w, i)));
                    } else {
                        if parked_out[so].is_empty() {
                            wake.push(Reverse((busy_out[so], nd + n_in + so)));
                        }
                        parked_out[so].push(i as u32);
                    }
                    continue;
                }
                counters.demands_scanned += 1;
                let ld = delta + pending[i].remaining;
                // One fused probe per side answers the whole examination.
                // A blocked demand cannot start before its blocking port
                // frees — the blocker's end, that port's next release.
                // Blocking reads only reservations covering `now`, which
                // start by `now`; a free pair also reads every start
                // that could cut the chunk (of desired length `ld`), all
                // before `now + ld`.
                let next = now.saturating_add(Dur::from_ps(1));
                above.reveal_in(table, src, next);
                above.reveal_out(table, dst, next);
                let mut ip = table.in_probe(src, now);
                if !ip.free {
                    let w = ip.next_release.unwrap_or_else(|| stuck(now, *live));
                    wake.push(Reverse((w, i)));
                    continue;
                }
                let mut op = table.out_probe(dst, now);
                if !op.free {
                    let w = op.next_release.unwrap_or_else(|| stuck(now, *live));
                    wake.push(Reverse((w, i)));
                    continue;
                }
                let reach = now.saturating_add(ld);
                // A revealed reservation starts after `now`: the pair
                // stays free, only the next starts and releases move.
                if above.reveal_in(table, src, reach) | above.reveal_out(table, dst, reach) {
                    ip = table.in_probe(src, now);
                    op = table.out_probe(dst, now);
                }
                // Earliest next reservation on either port bounds the
                // length (needed by inter-Coflow scheduling, Algorithm 1
                // line 16).
                let tm_src = ip.next_start;
                let tm_dst = op.next_start;
                let tm = tm_src.min(tm_dst);
                let lm = if tm == Time::MAX {
                    Dur::MAX
                } else {
                    tm.since(now)
                };
                let l = if lm < delta { Dur::ZERO } else { lm.min(ld) };
                if l.is_zero() {
                    // Gap-limited: the free window before the binding
                    // port's next reservation is shorter than δ, and only
                    // shrinks as time approaches it. State can change
                    // only once that reservation releases.
                    let w = if tm_src <= tm_dst {
                        ip.next_release
                    } else {
                        op.next_release
                    };
                    let w = w.unwrap_or_else(|| stuck(now, *live));
                    wake.push(Reverse((w, i)));
                    continue;
                }
                let flow = FlowRef {
                    coflow: coflow_id,
                    flow_idx: pending[i].flow_idx,
                };
                let end = now + l;
                table.reserve(src, dst, now, end, ResvKind::Flow(flow));
                busy_in[si] = end;
                busy_out[so] = end;
                // Remaining demand after this reservation (line 22). A
                // truncated demand resumes no earlier than its own
                // circuit's release.
                pending[i].remaining = ld - l;
                if pending[i].remaining.is_zero() {
                    *live -= 1;
                } else {
                    wake.push(Reverse((end, i)));
                }
            }
            candidates.clear();
            if *live == 0 {
                break;
            }
            // Advance to the earliest subscribed release (line 10,
            // scoped). One always exists while demand is pending: every
            // unsatisfied examined demand re-subscribed or parked above.
            // A chain token for a port whose horizon kept extending
            // re-arms without waking anyone, so an instant can come up
            // empty; keep draining until a demand actually wakes. The
            // pass collected here depends on the walk's own state only,
            // so it is due whenever the walk resumes.
            while candidates.is_empty() {
                let Some(Reverse((w, first))) = wake.pop() else {
                    panic!("{}", no_release_message(coflow_id, now, *live))
                };
                *t = w;
                wake_token(
                    first, w, nd, busy_in, busy_out, parked_in, parked_out, wake, candidates,
                );
                while let Some(&Reverse((w2, x))) = wake.peek() {
                    if w2 != w {
                        break;
                    }
                    wake.pop();
                    wake_token(
                        x, w, nd, busy_in, busy_out, parked_in, parked_out, wake, candidates,
                    );
                }
            }
            counters.releases_visited += 1;
            // Ascending index order matches the rescan loop's scan order.
            candidates.sort_unstable();
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

/// [`schedule_demands`] with its work counters.
///
/// Reservations are byte-identical to the rescan-everything loop's
/// (same order, same starts, same ends; the reference loop lives in this
/// crate's `port_scoped_equivalence` tests), at O(wakes × log) instead
/// of O(global releases × pending demands); see [`Walk`].
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
/// caller-recycled [`ScheduleScratch`]: the scratch's [`Walk`] restarted
/// and advanced to `Time::MAX` against a table nothing else plans on.
/// `demands_scanned` counts only full examinations (not demands parked
/// behind a port this call already holds); `releases_visited` counts
/// instants at which a candidate pass actually ran.
pub fn schedule_demands_on<T: PlanTable>(
    table: &mut T,
    coflow_id: u64,
    demands: &[Demand],
    start: Time,
    delta: Dur,
    config: SunflowConfig,
    scratch: &mut ScheduleScratch,
) -> (Vec<Reservation>, ScheduleCounters) {
    let walk = &mut scratch.walk;
    walk.restart(coflow_id, demands, start, delta, config);
    let mut recorder = Recorder {
        table,
        made: Vec::new(),
    };
    walk.advance(&mut recorder, Time::MAX, &mut Alone);
    (recorder.made, walk.counters())
}

/// A table that also lists every reservation made through it, in
/// creation order: how the one-shot entry points return their plan.
struct Recorder<'t, T> {
    table: &'t mut T,
    made: Vec<Reservation>,
}

impl<T: PlanTable> PlanTable for Recorder<'_, T> {
    fn ports(&self) -> usize {
        self.table.ports()
    }
    #[inline]
    fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        self.table.in_probe(i, t)
    }
    #[inline]
    fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        self.table.out_probe(j, t)
    }
    fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind) {
        self.table.reserve(src, dst, start, end, kind);
        let ResvKind::Flow(flow) = kind;
        self.made.push(Reservation {
            src,
            dst,
            start,
            end,
            flow,
        });
    }
}

/// Wake-heap token dispatch for [`Walk::advance`]: demand indices join
/// the candidate pass directly; a port chain token re-arms at the port's
/// new busy horizon while it still extends past `t`, and otherwise
/// releases every demand parked behind the port.
#[allow(clippy::too_many_arguments)]
fn wake_token(
    x: usize,
    t: Time,
    nd: usize,
    busy_in: &[Time],
    busy_out: &[Time],
    parked_in: &mut [Vec<u32>],
    parked_out: &mut [Vec<u32>],
    wake: &mut BinaryHeap<Reverse<(Time, usize)>>,
    candidates: &mut Vec<usize>,
) {
    let n_in = busy_in.len();
    if x < nd {
        candidates.push(x);
    } else if x < nd + n_in {
        let s = x - nd;
        if busy_in[s] > t {
            wake.push(Reverse((busy_in[s], x)));
        } else {
            candidates.extend(parked_in[s].drain(..).map(|i| i as usize));
        }
    } else {
        let s = x - nd - n_in;
        if busy_out[s] > t {
            wake.push(Reverse((busy_out[s], x)));
        } else {
            candidates.extend(parked_out[s].drain(..).map(|i| i as usize));
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
