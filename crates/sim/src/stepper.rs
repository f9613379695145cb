//! A resumable, event-at-a-time driver for the online Sunflow replay.
//!
//! [`crate::online::simulate_circuit`] consumes a fully known arrival
//! list and returns after the fact. A long-running scheduling service
//! needs the same unsettled-reservation event loop *opened up*: feed
//! Coflow arrivals as they are admitted, advance the virtual clock to a
//! deadline, collect completions as they happen. [`OnlineStepper`] is
//! that shape; `simulate_circuit` is a thin batch wrapper over it, and
//! the golden fingerprint tests in `replay_regression.rs` pin the two to
//! byte-identical results.
//!
//! One addition beyond the batch loop: a [`SettleHook`] observes every
//! circuit settlement and may withhold part (or all) of the service it
//! would have delivered — the seam a fault injector plugs into. A
//! shorted flow is *deferred* (excluded from planning) until the hook's
//! `retry_after` backoff elapses, at which point a retry event re-plans
//! it; no demand is ever lost.
//!
//! Checkpointing is the caller's: the daemon records its commands and
//! replays them into a fresh backend (`ocs_daemon::Daemon::checkpoint`),
//! which works for this stepper as for every other backend.

use crate::online::{ActiveCircuitPolicy, OnlineConfig, ReplayStats};
use ocs_model::{
    Coflow, Dur, Fabric, FlowRef, InPort, OutPort, Reservation, ScheduleOutcome, Time,
};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};
use sunflow_core::{
    schedule_demands_on, DeltaView, Demand, PortSet, PriorityPolicy, Prt, RemovedResv, ResvKind,
    ScheduleScratch, StarvationGuard, SunflowConfig,
};

/// A not-yet-settled flow reservation, mirrored out of the PRT so the
/// event loop can settle, credit and displace circuits without rescanning
/// the table's ever-growing history. Ordered by `(end, src)` — the settle
/// order — which is unique because a port's reservations never overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    end: Time,
    src: InPort,
    start: Time,
    dst: OutPort,
    flow: FlowRef,
}

impl Pending {
    fn transmit_time(&self, delta: Dur) -> Dur {
        self.end.since(self.start).saturating_sub(delta)
    }
}

/// Recycled working memory of one replan: priority buffers, the
/// affected-set walk's port sets and crossing counters, the demand
/// buffer, the truncation sink, and the intra-Coflow planning
/// scratch (wake heap included). Owned by the stepper
/// and reset — never reallocated — per replan, so the steady-state
/// event loop's planning path allocates only the plans themselves.
/// Everything is sized by the *active* Coflows, never by how many were
/// ever submitted.
#[derive(Debug, Default)]
struct ReplanScratch {
    /// Active Coflow indices in the policy's total order.
    prio: Vec<usize>,
    /// Coflow id → rank (position in `prio`).
    rank: HashMap<u64, usize>,
    /// Affected-set seeds, indexed by rank.
    seed: Vec<bool>,
    /// The affected set (Coflow indices), in priority order.
    dirty: Vec<usize>,
    /// `dirty_flag[rank]` ⇔ `prio[rank] ∈ dirty` (this round).
    dirty_flag: Vec<bool>,
    /// `(owner rank, src, dst)` of newly in-flight reservations.
    crossings: Vec<(usize, InPort, OutPort)>,
    cross_in: Vec<u32>,
    cross_out: Vec<u32>,
    cross_ports: Option<PortSet>,
    dirty_ports: Option<PortSet>,
    /// In-flight service credit per flow of the dirty Coflows.
    pending: HashMap<FlowRef, Dur>,
    /// The plannable demands of the Coflow being planned.
    demands: Vec<Demand>,
    /// Sink buffer for truncations and delta-apply removals.
    removed: Vec<RemovedResv>,
    /// The intra-Coflow planning scratch every member plans with.
    planner: ScheduleScratch,
    /// Guard settlement: `(coflow idx, flow idx, src)` of every flow
    /// riding the window being settled.
    takers: Vec<(usize, usize, InPort)>,
    /// Guard settlement: takers per circuit, by source port.
    sharers: Vec<u64>,
    /// Guard settlement: the output port the window connects each input
    /// port to (`usize::MAX` for none).
    window_peer: Vec<OutPort>,
}

impl ReplanScratch {
    /// Clear every buffer and load the priority order: `prio` becomes
    /// `order`, `rank` its inverse by Coflow id.
    fn reset(&mut self, ports: usize, order: &[usize], coflows: &[Coflow]) {
        self.prio.clear();
        self.prio.extend_from_slice(order);
        self.rank.clear();
        self.rank
            .extend(order.iter().enumerate().map(|(r, &i)| (coflows[i].id(), r)));
        self.seed.clear();
        self.seed.resize(order.len(), false);
        self.dirty.clear();
        self.dirty_flag.clear();
        self.dirty_flag.resize(order.len(), false);
        self.crossings.clear();
        self.cross_in.clear();
        self.cross_in.resize(ports, 0);
        self.cross_out.clear();
        self.cross_out.resize(ports, 0);
        match &mut self.cross_ports {
            Some(p) if p.ports() == ports => p.clear(),
            p => *p = Some(PortSet::new(ports)),
        }
        match &mut self.dirty_ports {
            Some(p) if p.ports() == ports => p.clear(),
            p => *p = Some(PortSet::new(ports)),
        }
        self.pending.clear();
        self.demands.clear();
        self.removed.clear();
    }
}

#[derive(Debug)]
struct CoflowState {
    /// Remaining processing time per flow.
    remaining: Vec<Dur>,
    /// Finish time per flow.
    finish: Vec<Option<Time>>,
    /// Executed circuit establishments.
    setups: u64,
    /// Instant the Coflow first received service (circuit transmit
    /// begin, i.e. reservation start + δ), for queue-latency telemetry.
    first_service: Option<Time>,
}

impl CoflowState {
    fn done(&self) -> bool {
        self.remaining.iter().all(|r| r.is_zero())
    }

    /// Credit `served` to flow `fi` from a circuit that began
    /// transmitting at `svc` and released its ports at `end`.
    fn credit(&mut self, fi: usize, served: Dur, svc: Time, end: Time) {
        self.remaining[fi] -= served;
        if !served.is_zero() && self.first_service.is_none_or(|f| svc < f) {
            self.first_service = Some(svc);
        }
        if self.remaining[fi].is_zero() && self.finish[fi].is_none() {
            self.finish[fi] = Some(end);
        }
    }

    fn completion(&self) -> Time {
        self.finish
            .iter()
            .map(|f| f.expect("completion of unfinished coflow"))
            .max()
            .expect("coflows are non-empty")
    }
}

/// What a [`SettleHook`] decided about one settling circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettleVerdict {
    /// Service actually delivered; clamped to the offered `available`.
    pub served: Dur,
    /// If the circuit under-delivered, how long to back off before the
    /// shorted flow may be re-planned. `None` (or zero) retries at the
    /// next representable instant.
    pub retry_after: Option<Dur>,
}

impl SettleVerdict {
    /// The circuit delivered everything it was reserved for.
    pub fn full(available: Dur) -> SettleVerdict {
        SettleVerdict {
            served: available,
            retry_after: None,
        }
    }

    /// The circuit delivered `served < available`; retry after `backoff`.
    pub fn shorted(served: Dur, backoff: Dur) -> SettleVerdict {
        SettleVerdict {
            served,
            retry_after: Some(backoff),
        }
    }
}

/// Observer of circuit settlements, consulted once per settling flow
/// reservation with the service the circuit would deliver (`available` =
/// transmit time capped by the flow's remaining demand).
///
/// Returning [`SettleVerdict::full`] reproduces the fault-free replay
/// byte-for-byte. Returning less models a misbehaving switch (setup
/// failure, port flap, inflated δ): the shortfall stays on the flow's
/// remaining demand and is re-planned after `retry_after`.
///
/// Starvation-guard windows are *not* routed through the hook — the
/// guard is the §4.2 liveness floor and stays immune to injected faults.
pub trait SettleHook {
    /// Judge one settling circuit. `now` is the event time doing the
    /// settling (`resv.end <= now`).
    fn on_settle(&mut self, resv: &Reservation, available: Dur, now: Time) -> SettleVerdict;

    /// Read by nothing: every settlement reaches the hook on the calling
    /// thread. Kept only because the `benchmark/` crate implements it.
    fn is_inert(&self) -> bool {
        false
    }
}

/// The default [`SettleHook`]: every circuit delivers in full.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullService;

impl SettleHook for FullService {
    fn on_settle(&mut self, _resv: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        SettleVerdict::full(available)
    }
}

/// Why [`OnlineStepper::submit`] refused a Coflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// A Coflow with this id was already submitted.
    DuplicateId(u64),
    /// The Coflow's arrival precedes the stepper's clock — the event
    /// would have to be processed in the past.
    ArrivalInPast {
        /// The rejected arrival time.
        arrival: Time,
        /// The stepper's current clock.
        now: Time,
    },
    /// The Coflow references a port outside the fabric.
    ExceedsFabric {
        /// Id of the rejected Coflow.
        id: u64,
        /// Ports on the fabric it was submitted to.
        ports: usize,
    },
    /// A flow's endpoints fall in different port groups of a partitioned
    /// backend ([`crate::PortGroupBackend`]), which schedules each group
    /// independently and cannot carry cross-group traffic.
    CrossesPortGroups {
        /// Id of the rejected Coflow.
        id: u64,
        /// Source port of the first offending flow.
        src: usize,
        /// Destination port of the first offending flow.
        dst: usize,
        /// Ports per group of the partitioned backend.
        group_ports: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::DuplicateId(id) => write!(f, "coflow ids must be unique (id {id})"),
            SubmitError::ArrivalInPast { arrival, now } => {
                write!(f, "arrival {arrival} precedes the stepper clock {now}")
            }
            SubmitError::ExceedsFabric { id, ports } => {
                write!(f, "coflow {id} exceeds fabric ports ({ports})")
            }
            SubmitError::CrossesPortGroups {
                id,
                src,
                dst,
                group_ports,
            } => {
                write!(
                    f,
                    "coflow {id}: flow {src}->{dst} crosses port groups \
                     ({group_ports} ports per group)"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One finished Coflow, drained via [`OnlineStepper::drain_completions`].
#[derive(Clone, Debug)]
pub struct Completion {
    /// The Coflow's schedule outcome (`start` is its arrival time).
    pub outcome: ScheduleOutcome,
    /// When the Coflow first received service (first circuit transmit
    /// begin), for queue-latency histograms. `None` only for degenerate
    /// zero-demand Coflows.
    pub first_service: Option<Time>,
}

/// The online replay's event loop as a resumable state machine.
///
/// ```
/// use ocs_sim::{OnlineConfig, OnlineStepper};
/// use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
/// use sunflow_core::ShortestFirst;
///
/// let fabric = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
/// let mut s = OnlineStepper::new(&fabric, &OnlineConfig::default());
/// s.submit(Coflow::builder(0).flow(0, 1, 1_000_000).build())
///     .unwrap();
/// s.run_until(Time::from_millis(500), &ShortestFirst);
/// let done = s.drain_completions();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].outcome.finish, Time::from_millis(18));
/// ```
///
/// The same `policy` must be passed to every call that takes one — the
/// stepper memoizes the policy's total order incrementally (a property
/// of the Coflow alone; see `replay_regression.rs`), so switching
/// policies mid-run would scramble the memo.
pub struct OnlineStepper {
    fabric: Fabric,
    config: OnlineConfig,
    guard: Option<StarvationGuard>,
    prt: Prt,
    /// Every Coflow ever submitted, by internal index.
    coflows: Vec<Coflow>,
    states: Vec<Option<CoflowState>>,
    id_to_idx: HashMap<u64, usize>,
    /// Indices of arrived, not-yet-completed Coflows (admission order).
    active: Vec<usize>,
    /// `is_active[idx]` ⇔ `idx ∈ active`.
    is_active: Vec<bool>,
    /// The active Coflow indices in the policy's total order: binary
    /// insertion at arrival, removal at completion, so each event reads
    /// its priority walk off this list instead of sorting — and a deep
    /// queue of future arrivals costs the walk nothing.
    priority_order: Vec<usize>,
    /// `(arrival, id, idx)` of submitted, not-yet-arrived Coflows.
    pending_arrivals: BTreeSet<(Time, u64, usize)>,
    /// Every not-yet-settled flow reservation, mirrored out of the PRT.
    unsettled: BTreeSet<Pending>,
    /// Flows shorted by the [`SettleHook`], excluded from planning until
    /// their backoff expires (values are strictly in the future).
    deferred: HashMap<FlowRef, Time>,
    completions: Vec<Completion>,
    now: Time,
    /// True when state changed at (or before) `now` without an event
    /// being processed there — set at construction and by same-instant
    /// submissions, cleared by `process_event`.
    dirty: bool,
    stats: ReplayStats,
    resched_wall: Duration,
    next_guard_window: u64,
    guard_windows_elapsed: u64,
    fuel: u64,
    /// Per-Coflow port footprint (every `(src, dst)` any of its flows
    /// touches), indexed like `coflows`. Static once submitted.
    footprints: Vec<PortSet>,
    /// Coflow indices whose *state* changed at the event being processed
    /// (arrivals, settle shortfalls, deferral expiries) — the seeds of
    /// the affected set. Always drained within the same event: by
    /// `replan`, or at the idle early return of `process_event`.
    event_dirty: Vec<usize>,
    /// Ports on which planned circuits were retired outside a re-plan at
    /// the event being processed (a Coflow the guard finished ahead of
    /// its plan): any Coflow sharing one may move up. Drained like
    /// `event_dirty`.
    event_ports: PortSet,
    /// Clock value of the most recent re-plan; reservations whose start
    /// crossed it since are newly in flight and dirty their ports.
    last_replan_at: Time,
    /// Recycled replanning buffers.
    scratch: ReplanScratch,
}

impl OnlineStepper {
    /// A stepper at `t = 0` with no Coflows.
    ///
    /// # Panics
    /// Panics if `config.guard` violates `T ≫ τ > δ` for this fabric.
    pub fn new(fabric: &Fabric, config: &OnlineConfig) -> OnlineStepper {
        let guard = config.guard.map(|g| {
            g.validate(fabric.delta()).unwrap_or_else(|e| panic!("{e}"));
            StarvationGuard::new(fabric.ports(), g)
        });
        OnlineStepper {
            fabric: *fabric,
            config: *config,
            guard,
            prt: Prt::with_guard(fabric.ports(), guard),
            coflows: Vec::new(),
            states: Vec::new(),
            id_to_idx: HashMap::new(),
            active: Vec::new(),
            is_active: Vec::new(),
            priority_order: Vec::new(),
            pending_arrivals: BTreeSet::new(),
            unsettled: BTreeSet::new(),
            deferred: HashMap::new(),
            completions: Vec::new(),
            now: Time::ZERO,
            // Process an event at t=0 on the first run even if the first
            // arrival is later: the batch loop's first iteration ran at
            // the origin, and byte-identity with it depends on
            // replicating that.
            dirty: true,
            stats: ReplayStats::default(),
            resched_wall: Duration::ZERO,
            next_guard_window: 0,
            guard_windows_elapsed: 0,
            fuel: 10_000,
            footprints: Vec::new(),
            event_dirty: Vec::new(),
            event_ports: PortSet::new(fabric.ports()),
            last_replan_at: Time::ZERO,
            scratch: ReplanScratch::default(),
        }
    }

    /// The stepper's virtual clock: all events up to here are processed.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Event-loop counters so far (`reschedule_micros` included).
    pub fn stats(&self) -> ReplayStats {
        let mut s = self.stats;
        s.reschedule_micros = self.resched_wall.as_micros() as u64;
        s
    }

    /// Starvation-guard windows elapsed so far.
    pub fn guard_windows(&self) -> u64 {
        self.guard_windows_elapsed
    }

    /// Arrived, not-yet-completed Coflows.
    pub fn active_coflows(&self) -> usize {
        self.active.len()
    }

    /// Submitted Coflows whose arrival is still in the future.
    pub fn queued_arrivals(&self) -> usize {
        self.pending_arrivals.len()
    }

    /// Flows currently in fault backoff.
    pub fn deferred_flows(&self) -> usize {
        self.deferred.len()
    }

    /// True when no work remains: every submitted Coflow has completed.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.pending_arrivals.is_empty()
    }

    /// Total unserved processing time across active Coflows — the
    /// admission-control "outstanding demand" gauge.
    pub fn outstanding_demand(&self) -> Dur {
        let mut total = Dur::ZERO;
        for &idx in &self.active {
            let st = self.states[idx].as_ref().expect("active implies state");
            for r in &st.remaining {
                total += *r;
            }
        }
        total
    }

    /// The shared Port Reservation Table (read-only).
    pub fn prt(&self) -> &Prt {
        &self.prt
    }

    /// Per-port unserved demand of active Coflows that would outrank a
    /// new arrival whose remaining bottleneck is `key` under
    /// shortest-remaining-first — the circuit-side queue such an
    /// arrival waits behind. Unlike the PRT (which only holds the
    /// planned head of the queue), this counts each outranking Coflow's
    /// *full* remaining demand; per port, the larger of the transmit
    /// and receive totals is returned. Ties count as outranking
    /// (earlier arrivals win them).
    pub fn outranking_backlog(&self, key: Dur) -> Vec<Dur> {
        let ports = self.fabric.ports();
        let mut tx = vec![Dur::ZERO; ports];
        let mut rx = vec![Dur::ZERO; ports];
        let mut ctx = vec![Dur::ZERO; ports];
        let mut crx = vec![Dur::ZERO; ports];
        for &idx in &self.active {
            let st = self.states[idx].as_ref().expect("active implies state");
            let flows = self.coflows[idx].flows();
            for p in 0..ports {
                ctx[p] = Dur::ZERO;
                crx[p] = Dur::ZERO;
            }
            let mut bottleneck = Dur::ZERO;
            for (f, &rem) in flows.iter().zip(&st.remaining) {
                ctx[f.src] += rem;
                crx[f.dst] += rem;
                bottleneck = bottleneck.max(ctx[f.src]).max(crx[f.dst]);
            }
            if bottleneck <= key {
                for f in flows {
                    if !ctx[f.src].is_zero() || !crx[f.dst].is_zero() {
                        tx[f.src] += ctx[f.src];
                        rx[f.dst] += crx[f.dst];
                        ctx[f.src] = Dur::ZERO;
                        crx[f.dst] = Dur::ZERO;
                    }
                }
            }
        }
        tx.iter().zip(&rx).map(|(&t, &r)| t.max(r)).collect()
    }

    /// Drop PRT history that ended at or before `now`, returning how many
    /// reservations were forgotten. Safe at any point between runs: only
    /// settled reservations can have ended by `now`.
    pub fn compact_history(&mut self) -> usize {
        self.prt.forget_before(self.now)
    }

    /// Submit one Coflow for scheduling. Its arrival must not precede
    /// the stepper's clock; it becomes an arrival event at that time.
    /// The Coflow is ranked by the policy of the run that processes its
    /// arrival.
    pub fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        if !self.fabric.fits(&coflow) {
            return Err(SubmitError::ExceedsFabric {
                id: coflow.id(),
                ports: self.fabric.ports(),
            });
        }
        if self.id_to_idx.contains_key(&coflow.id()) {
            return Err(SubmitError::DuplicateId(coflow.id()));
        }
        if coflow.arrival() < self.now {
            return Err(SubmitError::ArrivalInPast {
                arrival: coflow.arrival(),
                now: self.now,
            });
        }
        let idx = self.coflows.len();
        let (arrival, id) = (coflow.arrival(), coflow.id());
        self.id_to_idx.insert(id, idx);
        self.fuel += 1_000 * (1 + coflow.num_flows() as u64);
        self.footprints.push(footprint_of(&coflow, &self.fabric));
        self.coflows.push(coflow);
        self.states.push(None);
        self.is_active.push(false);
        self.pending_arrivals.insert((arrival, id, idx));
        if arrival <= self.now {
            self.dirty = true;
        }
        Ok(())
    }

    /// When the next event is due, or `None` when idle. Events are
    /// Coflow arrivals, planned completions, guard-window ends and fault
    /// retries; a pending same-instant submission reports `now`.
    pub fn next_event_time(&self) -> Option<Time> {
        if self.dirty {
            return Some(self.now);
        }
        let t_arrival = self.pending_arrivals.iter().next().map(|&(t, _, _)| t);
        let t_completion = self
            .active
            .iter()
            .map(|&idx| {
                // A coflow completes when its last planned reservation
                // ends (plans always cover all remaining demand). If it
                // has none, all residual demand is pending in kept
                // reservations or will be served by guard windows; fall
                // back to the guard end.
                match self.prt.last_end_of(self.coflows[idx].id()) {
                    Some(end) if end > self.now => end,
                    _ => self
                        .guard
                        .as_ref()
                        .map(|g| g.next_window_end_after(self.now))
                        .unwrap_or(Time::MAX),
                }
            })
            .min();
        let t_guard = self
            .guard
            .as_ref()
            .filter(|_| !self.active.is_empty())
            .map(|g| g.next_window_end_after(self.now));
        let t_retry = self.deferred.values().copied().min();
        [t_arrival, t_completion, t_guard, t_retry]
            .into_iter()
            .flatten()
            .min()
    }

    /// Process every event up to and including `deadline` under the
    /// default fault-free [`FullService`] hook, then advance the clock to
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time, policy: &dyn PriorityPolicy) -> u64 {
        self.run_until_with(deadline, policy, &mut FullService)
    }

    /// Like [`OnlineStepper::run_until`] with an explicit [`SettleHook`].
    pub fn run_until_with(
        &mut self,
        deadline: Time,
        policy: &dyn PriorityPolicy,
        hook: &mut dyn SettleHook,
    ) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            assert!(t != Time::MAX, "no progress possible: deadlock");
            self.process_event(t, policy, hook);
            processed += 1;
        }
        if deadline > self.now && deadline != Time::MAX {
            // Nothing happens strictly between events; float the clock
            // up so later submissions cannot rewrite this span.
            self.now = deadline;
        }
        processed
    }

    /// Run until every submitted Coflow has completed.
    pub fn run_to_idle(&mut self, policy: &dyn PriorityPolicy) -> u64 {
        self.run_until(Time::MAX, policy)
    }

    /// Like [`OnlineStepper::run_to_idle`] with an explicit hook.
    pub fn run_to_idle_with(
        &mut self,
        policy: &dyn PriorityPolicy,
        hook: &mut dyn SettleHook,
    ) -> u64 {
        self.run_until_with(Time::MAX, policy, hook)
    }

    /// Take every Coflow completion recorded since the last drain, in
    /// completion order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// The full event body: settle, admit, complete, re-plan.
    fn process_event(&mut self, t: Time, policy: &dyn PriorityPolicy, hook: &mut dyn SettleHook) {
        assert!(t >= self.now, "events must be processed in time order");
        self.now = t;
        self.dirty = false;
        // A flow leaving fault backoff becomes plannable again; its
        // Coflow seeds the affected set.
        for (fref, &until) in self.deferred.iter() {
            if until <= t {
                self.event_dirty.push(self.id_to_idx[&fref.coflow]);
            }
        }
        self.deferred.retain(|_, until| *until > t);

        // ---- Settle everything that ended by `t`. ----
        self.settle_flows(t, hook);
        self.settle_guard(t);
        // Settled circuits are dead to every planning query (all run at
        // instants >= now) — retire them so the PRT holds the working
        // set, not the whole replay history.
        self.stats.reservations_retired += self.prt.forget_before(t) as u64;

        // ---- Arrivals at `t`. ----
        while let Some(&(arrival, _, idx)) = self.pending_arrivals.iter().next() {
            if arrival > t {
                break;
            }
            self.pending_arrivals.pop_first();
            let (coflows, fabric) = (&self.coflows, &self.fabric);
            let c = &coflows[idx];
            let st = CoflowState {
                remaining: c
                    .flows()
                    .iter()
                    .map(|f| fabric.processing_time(f.bytes))
                    .collect(),
                finish: vec![None; c.num_flows()],
                setups: 0,
                first_service: None,
            };
            self.states[idx] = Some(st);
            self.active.push(idx);
            self.is_active[idx] = true;
            // Binary-insert into the policy's total order (ties broken
            // by arrival then id, exactly like `PriorityPolicy::sort`).
            let pos = self.priority_order.partition_point(|&i| {
                let o = &coflows[i];
                policy
                    .compare(o, c, fabric)
                    .then_with(|| o.arrival().cmp(&c.arrival()))
                    .then_with(|| o.id().cmp(&c.id()))
                    == Ordering::Less
            });
            self.priority_order.insert(pos, idx);
            self.event_dirty.push(idx);
        }

        // ---- Completions. ----
        let mut any_done = false;
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&idx| {
            let st = self.states[idx].as_ref().expect("active implies state");
            if st.done() {
                let finish = st.completion();
                self.completions.push(Completion {
                    outcome: ScheduleOutcome {
                        coflow: self.coflows[idx].id(),
                        start: self.coflows[idx].arrival(),
                        finish,
                        flow_finish: st.finish.iter().map(|f| f.expect("done")).collect(),
                        circuit_setups: st.setups,
                    },
                    first_service: st.first_service,
                });
                self.is_active[idx] = false;
                any_done = true;
                // Only the guard finishes a Coflow ahead of its plan;
                // the circuits it no longer needs go, and whoever shares
                // their ports may move up.
                if self.prt.truncate_future_of_into(
                    self.coflows[idx].id(),
                    t,
                    &mut self.scratch.removed,
                ) > 0
                {
                    self.stats.reservations_truncated +=
                        untrack(&mut self.unsettled, &self.scratch.removed);
                    self.event_ports.union_with(&self.footprints[idx]);
                }
                false
            } else {
                true
            }
        });
        self.active = active;
        if any_done {
            let is_active = &self.is_active;
            self.priority_order.retain(|&i| is_active[i]);
        }

        if self.active.is_empty() && self.pending_arrivals.is_empty() {
            // Idle: nothing to plan, so nothing to seed either.
            self.event_dirty.clear();
            self.event_ports.clear();
            return;
        }
        self.stats.events += 1;
        let t0 = Instant::now();
        self.replan(hook);
        self.resched_wall += t0.elapsed();
        self.fuel = self
            .fuel
            .checked_sub(1)
            .expect("online replay event-count fuel exhausted");
    }

    /// Settle every flow reservation with `end <= t` exactly once,
    /// routing each through the hook.
    fn settle_flows(&mut self, t: Time, hook: &mut dyn SettleHook) {
        let delta = self.fabric.delta();
        while let Some(&r) = self.unsettled.first() {
            if r.end > t {
                break;
            }
            self.unsettled.pop_first();
            let idx = self.id_to_idx[&r.flow.coflow];
            let st = self.states[idx]
                .as_mut()
                .expect("reservation for unseen coflow");
            st.setups += 1;
            let available = r.transmit_time(delta).min(st.remaining[r.flow.flow_idx]);
            let resv = Reservation {
                src: r.src,
                dst: r.dst,
                start: r.start,
                end: r.end,
                flow: r.flow,
            };
            let served = hook.on_settle(&resv, available, t);
            let credited = served.served.min(available);
            st.credit(r.flow.flow_idx, credited, r.start + delta, r.end);
            if credited < available {
                // Shortfall: hold the flow out of planning until the
                // hook's backoff elapses, then a retry event re-plans it.
                let mut until = t + served.retry_after.unwrap_or(Dur::ZERO);
                if until <= t {
                    until = t + Dur::from_ps(1);
                }
                self.deferred.insert(r.flow, until);
                // The shortfall stays on the flow's remaining demand; its
                // Coflow must re-plan once the backoff elapses — and
                // right now, to stop planning the deferred flow.
                self.event_dirty.push(idx);
            }
        }
    }

    /// Settle guard windows whose end has passed: equal share of the
    /// window's transmit time among active flows on each circuit. Every
    /// Coflow credited has changed state and seeds the affected set.
    fn settle_guard(&mut self, t: Time) {
        let Some(g) = self.guard else { return };
        let delta = self.fabric.delta();
        let n = self.fabric.ports();
        loop {
            let w = g.window(self.next_guard_window);
            if w.end > t {
                break;
            }
            self.next_guard_window += 1;
            self.guard_windows_elapsed += 1;
            let tx = w.transmit_time(delta);
            if tx.is_zero() {
                continue;
            }
            // An assignment gives each input port at most one circuit,
            // so a flow rides the window iff its destination is its
            // source's peer: one pass over the active flows collects the
            // takers and counts them per circuit (by source port).
            let ReplanScratch {
                takers,
                sharers,
                window_peer,
                ..
            } = &mut self.scratch;
            takers.clear();
            sharers.clear();
            sharers.resize(n, 0);
            window_peer.clear();
            window_peer.resize(n, usize::MAX);
            for &(i, j) in w.assignment.pairs() {
                window_peer[i] = j;
            }
            for &idx in &self.active {
                let st = self.states[idx].as_ref().expect("active implies state");
                for (fi, f) in self.coflows[idx].flows().iter().enumerate() {
                    if window_peer[f.src] == f.dst && !st.remaining[fi].is_zero() {
                        takers.push((idx, fi, f.src));
                        sharers[f.src] += 1;
                    }
                }
            }
            let svc = w.start + delta;
            for &(idx, fi, src) in takers.iter() {
                let st = self.states[idx].as_mut().expect("active implies state");
                let served = (tx / sharers[src]).min(st.remaining[fi]);
                // A Coflow that arrived with the window under way is
                // served from its arrival, not from before it.
                let svc = svc.max(self.coflows[idx].arrival());
                st.credit(fi, served, svc, w.end);
                if !served.is_zero() && self.event_dirty.last() != Some(&idx) {
                    self.event_dirty.push(idx);
                }
            }
        }
    }

    /// Re-derive plans at the current event: re-plan only the Coflows
    /// the event can have touched, keep everyone else's plans in place.
    ///
    /// The three [`ActiveCircuitPolicy`] values differ only in the
    /// in-flight circuits cut (`cut_circuits`) before a round plans:
    /// `Keep` none, `Preempt` every one, once, up front, `Yield` the ones
    /// the previous round showed blocking a higher-priority Coflow.
    ///
    /// The affected set starts from the Coflows whose state changed at
    /// this event (`event_dirty`: arrivals, settle shortfalls, deferral
    /// expiries, guard credit, cut circuits — every active Coflow under
    /// [`OnlineConfig::full_replan`]) plus the ports of every cut circuit
    /// and of every reservation that went in flight since the last
    /// re-plan (a kept plan predates those circuits becoming unremovable
    /// obstacles). It is then closed downward over the priority order: a
    /// re-planned Coflow may move reservations on any port of its
    /// footprint, which can displace any lower-priority Coflow sharing
    /// one, transitively. A Coflow outside the closure has a footprint
    /// disjoint from every port that changed, so its kept plan is
    /// byte-identical to what re-planning everyone would re-derive (see
    /// DESIGN §4). Starvation-guard windows are a fixed timetable every
    /// probe of the table (and of the delta view over it) carries: the
    /// same obstacles to a kept plan and to its re-derivation. What a
    /// window changes is the state of the Coflows it credits, and those
    /// arrive here as seeds.
    fn replan(&mut self, hook: &mut dyn SettleHook) {
        let delta = self.fabric.delta();
        let now = self.now;
        let ports = self.fabric.ports();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(ports, &self.priority_order, &self.coflows);
        let prio = std::mem::take(&mut scratch.prio);
        let rank = std::mem::take(&mut scratch.rank);
        let mut cross_ports = scratch.cross_ports.take().expect("reset populates");
        let mut dirty_ports = scratch.dirty_ports.take().expect("reset populates");

        // The cut set before round one. Cutting comes first: a cut
        // circuit is settled, so it is no crossing below, and a shortfall
        // verdict on it is one more seed of this event.
        if self.config.active_policy == ActiveCircuitPolicy::Preempt {
            let cuts: Vec<Pending> = self
                .unsettled
                .iter()
                .filter(|r| r.start < now)
                .copied()
                .collect();
            self.stats.reservations_truncated += cuts.len() as u64;
            self.cut_circuits(&cuts, &rank, &mut scratch.seed, &mut dirty_ports, hook);
        }
        dirty_ports.union_with(&self.event_ports);
        self.event_ports.clear();
        // Reservations that went in flight since the last re-plan, tagged
        // with their owner's rank. Such a circuit is news only to Coflows
        // *outranking* the owner: they planned before the owner created
        // it (re-planning everyone hides lower-ranked futures while they
        // plan), while everyone at or below the owner already planned
        // around it. Sorted by rank; the walk below visits Coflows in
        // increasing rank, so it sheds each crossing from a counted port
        // set as it passes the owner. An in-flight circuit's owner is
        // always ranked: a Coflow completes when its last circuit ends,
        // or when a guard window credits the rest of it — and a window
        // shares a port with any circuit of a flow it credits, so no
        // such circuit can be in flight when the window ends.
        for r in self.unsettled.iter() {
            if r.start >= self.last_replan_at && r.start < now {
                scratch.crossings.push((rank[&r.flow.coflow], r.src, r.dst));
            }
        }
        scratch.crossings.sort_unstable_by_key(|&(rk, _, _)| rk);
        for &(_, src, dst) in &scratch.crossings {
            if scratch.cross_in[src] == 0 {
                cross_ports.insert_in(src);
            }
            scratch.cross_in[src] += 1;
            if scratch.cross_out[dst] == 0 {
                cross_ports.insert_out(dst);
            }
            scratch.cross_out[dst] += 1;
        }
        let mut next_cross = 0usize;

        loop {
            for idx in self.event_dirty.drain(..) {
                // Seeds that completed at this very event have no rank left.
                if let Some(&r) = rank.get(&self.coflows[idx].id()) {
                    scratch.seed[r] = true;
                }
            }
            if self.config.full_replan {
                scratch.seed.fill(true);
            }
            // Close the affected set down the priority order.
            scratch.dirty_flag.fill(false);
            scratch.dirty.clear();
            for (my_rank, &idx) in prio.iter().enumerate() {
                // Crossings owned at or above this rank are no longer
                // news from here down.
                while next_cross < scratch.crossings.len()
                    && scratch.crossings[next_cross].0 <= my_rank
                {
                    let (_, src, dst) = scratch.crossings[next_cross];
                    scratch.cross_in[src] -= 1;
                    if scratch.cross_in[src] == 0 {
                        cross_ports.remove_in(src);
                    }
                    scratch.cross_out[dst] -= 1;
                    if scratch.cross_out[dst] == 0 {
                        cross_ports.remove_out(dst);
                    }
                    next_cross += 1;
                }
                if scratch.seed[my_rank]
                    || self.footprints[idx].intersects(&dirty_ports)
                    || self.footprints[idx].intersects(&cross_ports)
                {
                    dirty_ports.union_with(&self.footprints[idx]);
                    scratch.dirty.push(idx);
                    scratch.dirty_flag[my_rank] = true;
                }
            }
            self.stats.coflows_rescheduled += scratch.dirty.len() as u64;
            self.stats.coflows_skipped += (prio.len() - scratch.dirty.len()) as u64;

            if self.config.active_policy == ActiveCircuitPolicy::Yield {
                self.stats.yield_rounds += 1;
            }

            // Pending in-flight service of the *dirty* Coflows, credited
            // at circuit end — don't schedule that demand twice. Their
            // future entries are excluded (the delta view hides those
            // futures from planning); other Coflows' credit is never
            // looked up.
            scratch.pending.clear();
            for r in self.unsettled.iter() {
                if r.start < now && scratch.dirty_flag[rank[&r.flow.coflow]] {
                    *scratch.pending.entry(r.flow).or_insert(Dur::ZERO) += r.transmit_time(delta);
                }
            }

            // Plan the affected set against one masked view of the
            // (unmodified) table, the paper's sequential walk: hide every
            // member's future plan (even a member with no remaining demand
            // — its stale future must go), plan the members in priority
            // order, then apply the diff — retire stale reservations, keep
            // confirmed ones in place, insert fresh ones — leaving the
            // table (and the unsettled mirror) byte-identical to what
            // truncating the members' futures and rebuilding them would
            // produce, at the cost of only the actual diff. The view is
            // O(ports) to build, so an empty round builds none.
            if !scratch.dirty.is_empty() {
                let mut view = DeltaView::new(&self.prt, now);
                for &idx in &scratch.dirty {
                    view.hide_future_of(self.coflows[idx].id());
                }
                view.seal();
                for &idx in &scratch.dirty {
                    let c = &self.coflows[idx];
                    let st = self.states[idx].as_ref().expect("active implies state");
                    scratch.demands.clear();
                    for (fi, f) in c.flows().iter().enumerate() {
                        let fref = FlowRef {
                            coflow: c.id(),
                            flow_idx: fi,
                        };
                        if self.deferred.contains_key(&fref) {
                            continue; // in fault backoff
                        }
                        let committed = scratch.pending.get(&fref).copied().unwrap_or(Dur::ZERO);
                        let rem = st.remaining[fi].saturating_sub(committed);
                        if !rem.is_zero() {
                            scratch.demands.push(Demand {
                                flow_idx: fi,
                                src: f.src,
                                dst: f.dst,
                                remaining: rem,
                            });
                        }
                    }
                    if scratch.demands.is_empty() {
                        continue;
                    }
                    let (resvs, counters) = schedule_demands_on(
                        &mut view,
                        c.id(),
                        &scratch.demands,
                        now,
                        delta,
                        SunflowConfig::default(),
                        &mut scratch.planner,
                    );
                    self.stats.releases_visited += counters.releases_visited;
                    self.stats.demands_scanned += counters.demands_scanned;
                    self.stats.reservations_made += resvs.len() as u64;
                }
                let plan = view.finish();
                self.stats.count_view(&plan);
                scratch.removed.clear();
                plan.apply(&mut self.prt, &mut scratch.removed);
                self.stats.reservations_truncated += untrack(&mut self.unsettled, &scratch.removed);
                for r in plan.fresh() {
                    self.unsettled.insert(Pending {
                        end: r.end,
                        src: r.src,
                        start: r.start,
                        dst: r.dst,
                        flow: r.flow,
                    });
                }
            }

            if self.config.active_policy != ActiveCircuitPolicy::Yield {
                break;
            }

            // Yield displacement, over the whole queue: in-flight
            // circuits (`start < now`) against kept plans and this
            // round's plans (`start >= now`).
            let mut holds: HashMap<(bool, usize, Time), (usize, Pending)> = HashMap::new();
            for r in self.unsettled.iter().filter(|r| r.start < now) {
                if let Some(&owner_rank) = rank.get(&r.flow.coflow) {
                    holds.insert((true, r.src, r.end), (owner_rank, *r));
                    holds.insert((false, r.dst, r.end), (owner_rank, *r));
                }
            }
            let mut cuts: Vec<Pending> = Vec::new();
            if !holds.is_empty() {
                for r in self.unsettled.iter().filter(|r| r.start >= now) {
                    let waiter_rank = rank[&r.flow.coflow];
                    for key in [(true, r.src, r.start), (false, r.dst, r.start)] {
                        if let Some(&(owner_rank, p)) = holds.get(&key) {
                            if waiter_rank < owner_rank {
                                cuts.push(p);
                            }
                        }
                    }
                }
            }
            cuts.sort_unstable();
            cuts.dedup();
            if cuts.is_empty() {
                break;
            }
            self.stats.cuts += cuts.len() as u64;
            // Next round's affected set is the cut's alone: the
            // crossings were consumed by round one — its plans absorbed
            // them.
            scratch.crossings.clear();
            scratch.cross_in.fill(0);
            scratch.cross_out.fill(0);
            cross_ports.clear();
            next_cross = 0;
            scratch.seed.fill(false);
            dirty_ports.clear();
            self.cut_circuits(&cuts, &rank, &mut scratch.seed, &mut dirty_ports, hook);
        }

        scratch.prio = prio;
        scratch.rank = rank;
        scratch.cross_ports = Some(cross_ports);
        scratch.dirty_ports = Some(dirty_ports);
        self.scratch = scratch;
        self.last_replan_at = now;
    }

    /// Cut in-flight circuits short at `now`, ahead of a planning round:
    /// each releases its ports in the table, re-keys in the settle queue
    /// to end now, seeds its owner (the unserved remainder must re-plan)
    /// and dirties both ports (the freed time may pull any Coflow sharing
    /// one earlier). Settling then credits the partial service; a
    /// shortfall verdict there seeds its Coflow through `event_dirty`.
    fn cut_circuits(
        &mut self,
        cuts: &[Pending],
        rank: &HashMap<u64, usize>,
        seed: &mut [bool],
        dirty_ports: &mut PortSet,
        hook: &mut dyn SettleHook,
    ) {
        let now = self.now;
        for p in cuts {
            self.prt.cut_reservation(p.src, p.start, now);
            self.unsettled.remove(p);
            self.unsettled.insert(Pending { end: now, ..*p });
            seed[rank[&p.flow.coflow]] = true;
            dirty_ports.insert_in(p.src);
            dirty_ports.insert_out(p.dst);
        }
        self.settle_flows(now, hook);
    }
}

/// The set of ports any of the Coflow's flows touches.
fn footprint_of(coflow: &Coflow, fabric: &Fabric) -> PortSet {
    let mut fp = PortSet::new(fabric.ports());
    for f in coflow.flows() {
        fp.insert_in(f.src);
        fp.insert_out(f.dst);
    }
    fp
}

/// Mirror a list of not-yet-started reservations removed from the table
/// (a finished Coflow's leftover plan, a delta apply's stale entries)
/// into the unsettled queue. Returns how many there were.
fn untrack(unsettled: &mut BTreeSet<Pending>, removed: &[RemovedResv]) -> u64 {
    for r in removed {
        let ResvKind::Flow(flow) = r.kind;
        let was_pending = unsettled.remove(&Pending {
            end: r.end,
            src: r.src,
            start: r.start,
            dst: r.dst,
            flow,
        });
        debug_assert!(was_pending, "removed reservation missing from queue");
    }
    removed.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::Bandwidth;
    use sunflow_core::{GuardConfig, ShortestFirst};

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn mb(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn incremental_submission_matches_batch() {
        let f = fabric();
        let coflows: Vec<Coflow> = (0..6)
            .map(|i| {
                Coflow::builder(i)
                    .arrival(Time::from_millis(i * 40))
                    .flow((i as usize) % 4, (i as usize * 3 + 1) % 4, mb(1 + i % 3))
                    .build()
            })
            .collect();
        let batch =
            crate::online::simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);

        let mut s = OnlineStepper::new(&f, &OnlineConfig::default());
        // Feed arrivals just-in-time, advancing in 50 ms slices.
        let mut fed = 0usize;
        for slice in 0..20u64 {
            let deadline = Time::from_millis(slice * 50);
            while fed < coflows.len() && coflows[fed].arrival() <= deadline {
                s.submit(coflows[fed].clone()).unwrap();
                fed += 1;
            }
            s.run_until(deadline, &ShortestFirst);
        }
        assert_eq!(fed, coflows.len());
        s.run_to_idle(&ShortestFirst);
        assert!(s.is_idle());

        let mut done = s.drain_completions();
        done.sort_by_key(|c| c.outcome.coflow);
        assert_eq!(done.len(), batch.outcomes.len());
        for (c, b) in done.iter().zip(batch.outcomes.iter()) {
            assert_eq!(c.outcome.coflow, b.coflow);
            assert_eq!(c.outcome.finish, b.finish);
            assert_eq!(c.outcome.circuit_setups, b.circuit_setups);
            assert_eq!(c.outcome.flow_finish, b.flow_finish);
        }
    }

    #[test]
    fn submit_rejections() {
        let f = fabric();
        let mut s = OnlineStepper::new(&f, &OnlineConfig::default());
        s.submit(Coflow::builder(1).flow(0, 0, mb(1)).build())
            .unwrap();
        assert_eq!(
            s.submit(Coflow::builder(1).flow(1, 1, mb(1)).build()),
            Err(SubmitError::DuplicateId(1))
        );
        assert!(matches!(
            s.submit(Coflow::builder(2).flow(0, 9, mb(1)).build()),
            Err(SubmitError::ExceedsFabric { id: 2, .. })
        ));
        s.run_until(Time::from_millis(500), &ShortestFirst);
        assert!(matches!(
            s.submit(
                Coflow::builder(3)
                    .arrival(Time::from_millis(100))
                    .flow(0, 0, mb(1))
                    .build()
            ),
            Err(SubmitError::ArrivalInPast { .. })
        ));
    }

    #[test]
    fn completions_report_queue_latency() {
        let f = fabric();
        let mut s = OnlineStepper::new(&f, &OnlineConfig::default());
        // Two coflows contending for in.0: the second waits for the first.
        s.submit(Coflow::builder(0).flow(0, 0, mb(10)).build())
            .unwrap();
        s.submit(Coflow::builder(1).flow(0, 1, mb(20)).build())
            .unwrap();
        s.run_to_idle(&ShortestFirst);
        let mut done = s.drain_completions();
        done.sort_by_key(|c| c.outcome.coflow);
        let d = f.delta();
        // The shorter coflow is served first: service at arrival + δ.
        assert_eq!(done[0].first_service, Some(Time::ZERO + d));
        // The longer one waits for the first circuit to release in.0.
        assert!(done[1].first_service.unwrap() > done[0].first_service.unwrap());
    }

    /// A hook that shorts the very first settlement to nothing (with a
    /// backoff) must not lose demand: the flow is re-planned and the
    /// coflow still completes, later than fault-free.
    #[test]
    fn shorted_settlement_is_replanned() {
        struct FailFirst {
            failed: u64,
        }
        impl SettleHook for FailFirst {
            fn on_settle(&mut self, _r: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
                if self.failed == 0 {
                    self.failed += 1;
                    SettleVerdict::shorted(Dur::ZERO, Dur::from_millis(5))
                } else {
                    SettleVerdict::full(available)
                }
            }
        }
        let f = fabric();
        let c = Coflow::builder(0).flow(0, 0, mb(1)).build();

        let mut clean = OnlineStepper::new(&f, &OnlineConfig::default());
        clean.submit(c.clone()).unwrap();
        clean.run_to_idle(&ShortestFirst);
        let clean_finish = clean.drain_completions()[0].outcome.finish;

        let mut faulty = OnlineStepper::new(&f, &OnlineConfig::default());
        faulty.submit(c).unwrap();
        let mut hook = FailFirst { failed: 0 };
        faulty.run_to_idle_with(&ShortestFirst, &mut hook);
        let done = faulty.drain_completions();
        assert_eq!(done.len(), 1, "coflow must still complete");
        let o = &done[0].outcome;
        assert!(o.finish > clean_finish, "retry must cost time");
        assert!(o.circuit_setups >= 2, "retry pays a fresh setup");
    }

    /// One giant Coflow behind a stream of small ones: its plan runs
    /// through a hundred guard intervals, and at every instant we look,
    /// no circuit in the table touches any window between the clock and
    /// the end of that plan — though no window is ever reserved.
    #[test]
    fn no_plan_crosses_a_guard_window_however_long() {
        let f = fabric();
        let config = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(20));
        let guard = StarvationGuard::new(f.ports(), config);
        let mut s = OnlineStepper::new(&f, &OnlineConfig::default().guard(config));
        // 4 x 4 s of transfers, all out of in.0: at least 16 s of plan.
        let mut giant = Coflow::builder(0);
        for dst in 0..4 {
            giant = giant.flow(0, dst, mb(500));
        }
        s.submit(giant.build()).unwrap();
        for i in 1..=40u64 {
            let small = Coflow::builder(i)
                .arrival(Time::from_millis(i * 25))
                .flow((i % 4) as usize, (i % 3) as usize, mb(1))
                .build();
            s.submit(small).unwrap();
        }
        for at_ms in [0, 30, 500, 2_000, 9_000] {
            s.run_until(Time::from_millis(at_ms), &ShortestFirst);
            let plan_end = s.prt().last_end_of(0).expect("giant is planned");
            assert!(plan_end > s.now() + guard.interval_len() * 50);
            // The table holds circuits only (`ResvKind` has no other
            // kind), and none of them touches a window.
            let circuits = s.prt().all_reservations();
            let mut m = 0;
            while guard.window(m).start < plan_end {
                let w = guard.window(m);
                for r in &circuits {
                    assert!(
                        r.end <= w.start || r.start >= w.end,
                        "at {at_ms} ms: {r:?} crosses the window of interval {m}"
                    );
                }
                m += 1;
            }
        }
        s.run_to_idle(&ShortestFirst);
        assert_eq!(s.drain_completions().len(), 41);
    }

    /// A Coflow arriving with a guard window under way shares the whole
    /// window's transmit time, but its service cannot predate its arrival.
    #[test]
    fn guard_service_never_predates_arrival() {
        let f = fabric();
        let config = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(40));
        let mut s = OnlineStepper::new(&f, &OnlineConfig::default().guard(config));
        // Window 0 is [100, 140) ms and configures in.i -> out.i.
        let arrival = Time::from_millis(125);
        let late = Coflow::builder(0)
            .arrival(arrival)
            .flow(1, 1, mb(1))
            .build();
        s.submit(late).unwrap();
        s.run_to_idle(&ShortestFirst);
        let done = s.drain_completions();
        assert_eq!(done[0].first_service, Some(arrival));
    }

    #[test]
    fn compact_history_preserves_future() {
        let f = fabric();
        let mut s = OnlineStepper::new(&f, &OnlineConfig::default());
        for i in 0..4u64 {
            s.submit(
                Coflow::builder(i)
                    .arrival(Time::from_millis(i * 100))
                    .flow((i as usize) % 4, (i as usize + 1) % 4, mb(2))
                    .build(),
            )
            .unwrap();
        }
        s.run_until(Time::from_millis(150), &ShortestFirst);
        // The event loop retires settled circuits on its own; by 150 ms
        // some must have ended, and the explicit compaction that used to
        // find them now has nothing left to do.
        assert!(
            s.stats().reservations_retired > 0,
            "some circuits must have ended by 150 ms"
        );
        assert_eq!(s.compact_history(), 0, "event loop already retired history");
        s.run_to_idle(&ShortestFirst);
        assert_eq!(s.drain_completions().len(), 4);
    }
}
