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

use crate::arrivals::ArrivalQueue;
use crate::backend::{BackendStatus, SchedulingBackend};
use crate::book::{FlowBook, Settled};
use crate::online::{ActiveCircuitPolicy, OnlineConfig, ReplayStats};
use ocs_model::{
    Coflow, Dur, Fabric, FlowRef, InPort, OutPort, Reservation, ScheduleOutcome, Time,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};
use sunflow_core::{
    DeltaStorage, DeltaView, Demand, Outranking, PortSet, PriorityKey, PriorityPolicy, Prt,
    RemovedResv, ResvKind, StarvationGuard, SunflowConfig, Walk,
};

/// A not-yet-settled flow reservation, mirrored out of the PRT so the
/// event loop can settle, credit and displace circuits without rescanning
/// the table's ever-growing history. Ordered by `(end, src)` first — the
/// settle order, and the key of the unsettled queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    end: Time,
    src: InPort,
    start: Time,
    dst: OutPort,
    flow: FlowRef,
    /// The owning Coflow's index (its id is `flow.coflow`).
    idx: usize,
}

impl Pending {
    fn transmit_time(&self, delta: Dur) -> Dur {
        self.end.since(self.start).saturating_sub(delta)
    }
}

/// Walks kept for reuse. Boxed like `OnlineStepper::walks`, so a walk
/// moves between the two without copying its fields.
#[allow(clippy::vec_box)]
type SpareWalks = Vec<Box<Walk>>;

/// Recycled working memory of one replan: priority buffers, the
/// affected-set walk's port sets and crossing counters, the pending
/// credit, the Yield holds and cut list, the demand buffer, the
/// truncation sink, the delta view's storage and the finished walks
/// kept for reuse. Owned by the stepper and reset
/// — never reallocated — per replan, so the steady-state event loop's
/// planning path allocates only the plans themselves and looks no
/// Coflow id up. `rank` is sized by every Coflow ever admitted (one word
/// each), the per-port buffers by the fabric, the rest by the *active*
/// Coflows and their circuits.
#[derive(Debug, Default)]
struct ReplanScratch {
    /// Active Coflow indices in the policy's total order.
    prio: Vec<usize>,
    /// Coflow index → rank (position in `prio`); meaningful only for
    /// active Coflows, stale for the rest.
    rank: Vec<usize>,
    /// Affected-set seeds, indexed by rank.
    seed: Vec<bool>,
    /// The affected set (Coflow indices), in priority order.
    dirty: Vec<usize>,
    /// By rank: where a member of the affected set keeps its per-flow
    /// credit in `credit`; `None` outside the set (this round).
    credit_at: Vec<Option<usize>>,
    /// In-flight service credit per flow of the affected set, member by
    /// member in `dirty` order.
    credit: Vec<Dur>,
    /// `(owner rank, src, dst)` of newly in-flight reservations.
    crossings: Vec<(usize, InPort, OutPort)>,
    cross_in: Vec<u32>,
    cross_out: Vec<u32>,
    cross_ports: Option<PortSet>,
    dirty_ports: Option<PortSet>,
    /// Yield: per input port, the `(owner rank, circuit)` in flight on
    /// it (a port carries at most one); `None` elsewhere.
    hold_in: Vec<Option<(usize, Pending)>>,
    /// Same per output port.
    hold_out: Vec<Option<(usize, Pending)>>,
    /// Yield: the circuits entered in `hold_in` / `hold_out`, to reset
    /// just those entries.
    held: Vec<Pending>,
    /// The in-flight circuits a round cuts.
    cuts: Vec<Pending>,
    /// The plannable demands of the Coflow being planned.
    demands: Vec<Demand>,
    /// Sink buffer for truncations and delta-apply removals.
    removed: Vec<RemovedResv>,
    /// The delta view's recycled storage.
    view: DeltaStorage,
    /// Finished walks, whose buffers the next restarts reuse.
    spare: SpareWalks,
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
    /// `order`'s Coflow indices, `rank` its inverse over the `admitted`
    /// Coflow indices.
    fn reset(&mut self, ports: usize, order: &[(Option<PriorityKey>, usize)], admitted: usize) {
        self.prio.clear();
        self.prio.extend(order.iter().map(|&(_, i)| i));
        self.rank.resize(admitted, usize::MAX);
        for (r, &i) in self.prio.iter().enumerate() {
            self.rank[i] = r;
        }
        self.seed.clear();
        self.seed.resize(order.len(), false);
        self.dirty.clear();
        self.credit_at.clear();
        self.credit_at.resize(order.len(), None);
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
        self.hold_in.resize(ports, None);
        self.hold_out.resize(ports, None);
        self.demands.clear();
        self.removed.clear();
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

/// Why [`SchedulingBackend::submit`] refused a Coflow.
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

/// One finished Coflow, drained via [`SchedulingBackend::drain_completions`].
#[derive(Clone, Debug)]
pub struct Completion {
    /// The Coflow's schedule outcome (`start` is its arrival time).
    pub outcome: ScheduleOutcome,
    /// When the Coflow first received service (first circuit transmit
    /// begin), for queue-latency histograms. `None` only for degenerate
    /// zero-demand Coflows.
    pub first_service: Option<Time>,
}

/// The online replay's event loop as a resumable state machine: Sunflow
/// as a [`SchedulingBackend`] (exported as [`crate::SunflowBackend`]).
///
/// ```
/// use ocs_sim::{FullService, OnlineConfig, SchedulingBackend, SunflowBackend};
/// use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
/// use sunflow_core::ShortestFirst;
///
/// let fabric = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
/// let mut s = SunflowBackend::new(&fabric, &OnlineConfig::default(), Box::new(ShortestFirst));
/// s.submit(Coflow::builder(0).flow(0, 1, 1_000_000).build())
///     .unwrap();
/// s.advance_to(Time::from_millis(500), &mut FullService);
/// let done = s.drain_completions();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].outcome.finish, Time::from_millis(18));
/// ```
///
/// The stepper is built with its [`PriorityPolicy`] and keeps it for
/// life: it memoizes the policy's total order incrementally (a property
/// of the Coflow alone; see `replay_regression.rs`).
pub struct OnlineStepper<'p> {
    fabric: Fabric,
    config: OnlineConfig,
    /// The inter-Coflow order every admission is ranked by; one `Rc`
    /// shared by the circuit planes of a fan-out backend.
    policy: Rc<dyn PriorityPolicy + 'p>,
    guard: Option<StarvationGuard>,
    prt: Prt,
    /// Submitted Coflows whose arrival has not been processed yet.
    arrivals: ArrivalQueue,
    /// Every Coflow ever admitted, by internal index (admission order).
    coflows: Vec<Coflow>,
    /// The arrived, unfinished Coflows' accounts, slotted by index.
    book: FlowBook,
    /// Indices of arrived, not-yet-completed Coflows (admission order).
    active: Vec<usize>,
    /// `is_active[idx]` ⇔ `idx ∈ active`.
    is_active: Vec<bool>,
    /// The active Coflow indices in the policy's total order, each with
    /// its [`PriorityPolicy::key`] computed once at admission: binary
    /// insertion at arrival, removal at completion, so each event reads
    /// its priority walk off this list instead of sorting — and a deep
    /// queue of future arrivals costs the walk nothing.
    priority_order: Vec<(Option<PriorityKey>, usize)>,
    /// Every not-yet-settled flow reservation, mirrored out of the PRT,
    /// keyed by `(end, src)`: the settle order, unique because a port's
    /// reservations never overlap.
    unsettled: BTreeMap<(Time, InPort), Pending>,
    /// Flows shorted by the [`SettleHook`], by `(Coflow index, flow
    /// index)`, excluded from planning until their backoff expires
    /// (values are strictly in the future).
    deferred: HashMap<(usize, usize), Time>,
    completions: Vec<Completion>,
    now: Time,
    /// True until the first event is processed: the batch loop's first
    /// iteration ran at the origin even if the first arrival is later,
    /// and byte-identity with it depends on replicating that.
    dirty: bool,
    stats: ReplayStats,
    resched_wall: Duration,
    next_guard_window: u64,
    guard_windows_elapsed: u64,
    fuel: u64,
    /// Per-Coflow port footprint (every `(src, dst)` any of its flows
    /// touches), indexed like `coflows`. Static once admitted.
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
    /// Each active Coflow's paused Algorithm 1 walk, by Coflow index;
    /// `None` once its walk finished (its whole plan is in the table)
    /// and outside the active set. A round leaves every walk paused at
    /// the horizon or finished (DESIGN §4, "Plan only as far as the
    /// next arrival"). Boxed, so the list costs one word per Coflow ever
    /// admitted.
    walks: Vec<Option<Box<Walk>>>,
    /// The frontier of `walks[idx]`, `Time::MAX` where there is none.
    frontier: Vec<Time>,
    /// How many entries of `walks` hold a walk.
    paused: usize,
    /// Per input port, the active Coflows whose footprint includes it:
    /// the walks a demand on the port may have to force.
    sharers_in: Vec<Vec<u32>>,
    /// Same per output port.
    sharers_out: Vec<Vec<u32>>,
}

impl<'p> OnlineStepper<'p> {
    /// A stepper at `t = 0` with no Coflows, ranking them by `policy`.
    ///
    /// # Panics
    /// Panics if `config.guard` violates `T ≫ τ > δ` for this fabric.
    pub fn new(
        fabric: &Fabric,
        config: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
    ) -> OnlineStepper<'p> {
        OnlineStepper::sharing(fabric, config, Rc::from(policy))
    }

    /// Like [`OnlineStepper::new`], with a policy the caller shares
    /// among several steppers (a fan-out backend's planes).
    pub(crate) fn sharing(
        fabric: &Fabric,
        config: &OnlineConfig,
        policy: Rc<dyn PriorityPolicy + 'p>,
    ) -> OnlineStepper<'p> {
        let guard = config.guard.map(|g| {
            g.validate(fabric.delta()).unwrap_or_else(|e| panic!("{e}"));
            StarvationGuard::new(fabric.ports(), g)
        });
        OnlineStepper {
            fabric: *fabric,
            config: *config,
            policy,
            guard,
            prt: Prt::with_guard(fabric.ports(), guard),
            arrivals: ArrivalQueue::default(),
            coflows: Vec::new(),
            book: FlowBook::default(),
            active: Vec::new(),
            is_active: Vec::new(),
            priority_order: Vec::new(),
            unsettled: BTreeMap::new(),
            deferred: HashMap::new(),
            completions: Vec::new(),
            now: Time::ZERO,
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
            walks: Vec::new(),
            frontier: Vec::new(),
            paused: 0,
            sharers_in: vec![Vec::new(); fabric.ports()],
            sharers_out: vec![Vec::new(); fabric.ports()],
        }
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
            let flows = self.coflows[idx].flows();
            for p in 0..ports {
                ctx[p] = Dur::ZERO;
                crx[p] = Dur::ZERO;
            }
            let mut bottleneck = Dur::ZERO;
            for (f, &rem) in flows.iter().zip(self.book.remaining(idx)) {
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

    /// The full event body: settle, admit, complete, re-plan.
    fn process_event(&mut self, t: Time, hook: &mut dyn SettleHook) {
        assert!(t >= self.now, "events must be processed in time order");
        self.now = t;
        self.dirty = false;
        // A flow leaving fault backoff becomes plannable again; its
        // Coflow seeds the affected set.
        for (&(idx, _), &until) in self.deferred.iter() {
            if until <= t {
                self.event_dirty.push(idx);
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

        // ---- Arrivals at `t`, indexed in admission order. ----
        while let Some(c) = self.arrivals.pop_due(t) {
            let idx = self.coflows.len();
            self.book.admit(idx, &c, &self.fabric);
            let footprint = footprint_of(&c, &self.fabric);
            for p in footprint.ins() {
                self.sharers_in[p].push(idx as u32);
            }
            for p in footprint.outs() {
                self.sharers_out[p].push(idx as u32);
            }
            self.footprints.push(footprint);
            self.active.push(idx);
            self.is_active.push(true);
            self.walks.push(None);
            self.frontier.push(Time::MAX);
            // Binary-insert into the policy's total order (ties broken
            // by arrival then id, exactly like `PriorityPolicy::sort`),
            // by key where the policy has one.
            let (coflows, fabric, policy) = (&self.coflows, &self.fabric, &self.policy);
            let key = policy.key(&c, fabric);
            let pos = self.priority_order.partition_point(|&(k, i)| {
                let o = &coflows[i];
                let by_policy = match (k, key) {
                    (Some(a), Some(b)) => a.cmp(&b),
                    _ => policy.compare(o, &c, fabric),
                };
                by_policy
                    .then_with(|| o.arrival().cmp(&c.arrival()))
                    .then_with(|| o.id().cmp(&c.id()))
                    == Ordering::Less
            });
            self.priority_order.insert(pos, (key, idx));
            self.coflows.push(c);
            self.event_dirty.push(idx);
        }

        // ---- Completions. ----
        let mut any_done = false;
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&idx| {
            if self.book.is_done(idx) {
                self.completions.push(self.book.complete(idx));
                self.is_active[idx] = false;
                any_done = true;
                let fp = &self.footprints[idx];
                for p in fp.ins() {
                    unshare(&mut self.sharers_in[p], idx);
                }
                for p in fp.outs() {
                    unshare(&mut self.sharers_out[p], idx);
                }
                // Only the guard finishes a Coflow whose walk is still
                // paused; the walk goes with the plan.
                if let Some(walk) = self.walks[idx].take() {
                    self.frontier[idx] = Time::MAX;
                    self.paused -= 1;
                    retire(walk, &mut self.stats, &mut self.scratch.spare);
                }
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
            self.priority_order.retain(|&(_, i)| is_active[i]);
        }

        if self.active.is_empty() && self.arrivals.is_empty() {
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
        while let Some((_, &r)) = self.unsettled.first_key_value() {
            if r.end > t {
                break;
            }
            self.unsettled.pop_first();
            let idx = r.idx;
            let resv = Reservation {
                src: r.src,
                dst: r.dst,
                start: r.start,
                end: r.end,
                flow: r.flow,
            };
            if let Settled::Short(until) = self.book.settle(idx, &resv, delta, t, hook) {
                // Shortfall: hold the flow out of planning until the
                // hook's backoff elapses, then a retry event re-plans it.
                self.deferred.insert((idx, r.flow.flow_idx), until);
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
                let remaining = self.book.remaining(idx);
                for (fi, f) in self.coflows[idx].flows().iter().enumerate() {
                    if window_peer[f.src] == f.dst && !remaining[fi].is_zero() {
                        takers.push((idx, fi, f.src));
                        sharers[f.src] += 1;
                    }
                }
            }
            let svc = w.start + delta;
            for &(idx, fi, src) in takers.iter() {
                let served = (tx / sharers[src]).min(self.book.remaining(idx)[fi]);
                // A Coflow that arrived with the window under way is
                // served from its arrival, not from before it.
                let svc = svc.max(self.coflows[idx].arrival());
                self.book.credit(idx, fi, served, svc, w.end);
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
    /// expiries, guard credit, cut circuits) plus the ports of every cut
    /// circuit and of every reservation that went in flight since the
    /// last re-plan (a kept plan predates those circuits becoming
    /// unremovable obstacles). It is then closed downward over the
    /// priority order: a re-planned Coflow may move reservations on any
    /// port of its footprint, which can displace any lower-priority
    /// Coflow sharing one, transitively. A Coflow outside the closure has
    /// a footprint disjoint from every port that changed, so its kept
    /// plan is byte-identical to what re-planning everyone would
    /// re-derive (see DESIGN §4). Starvation-guard windows are a fixed
    /// timetable every probe of the table (and of the delta view over it)
    /// carries: the same obstacles to a kept plan and to its
    /// re-derivation. What a window changes is the state of the Coflows
    /// it credits, and those arrive here as seeds.
    fn replan(&mut self, hook: &mut dyn SettleHook) {
        let delta = self.fabric.delta();
        let now = self.now;
        let horizon = self.arrivals.next_arrival().unwrap_or(Time::MAX);
        let ports = self.fabric.ports();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(ports, &self.priority_order, self.coflows.len());
        let prio = std::mem::take(&mut scratch.prio);
        let rank = std::mem::take(&mut scratch.rank);
        let mut cross_ports = scratch.cross_ports.take().expect("reset populates");
        let mut dirty_ports = scratch.dirty_ports.take().expect("reset populates");

        // The cut set before round one. Cutting comes first: a cut
        // circuit is settled, so it is no crossing below, and a shortfall
        // verdict on it is one more seed of this event.
        if self.config.active_policy == ActiveCircuitPolicy::Preempt {
            scratch.cuts.clear();
            scratch
                .cuts
                .extend(self.unsettled.values().filter(|r| r.start < now));
            self.stats.reservations_truncated += scratch.cuts.len() as u64;
            self.cut_circuits(
                &scratch.cuts,
                &rank,
                &mut scratch.seed,
                &mut dirty_ports,
                hook,
            );
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
        for r in self.unsettled.values() {
            if r.start >= self.last_replan_at && r.start < now {
                debug_assert!(
                    self.is_active[r.idx],
                    "in-flight circuit of no ranked Coflow"
                );
                scratch.crossings.push((rank[r.idx], r.src, r.dst));
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
                if self.is_active[idx] {
                    scratch.seed[rank[idx]] = true;
                }
            }
            // Close the affected set down the priority order, laying out
            // each member's per-flow credit as it joins.
            scratch.credit_at.fill(None);
            scratch.dirty.clear();
            let mut credit_len = 0;
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
                    scratch.credit_at[my_rank] = Some(credit_len);
                    credit_len += self.coflows[idx].num_flows();
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
            scratch.credit.clear();
            scratch.credit.resize(credit_len, Dur::ZERO);
            for r in self.unsettled.values().filter(|r| r.start < now) {
                debug_assert!(
                    self.is_active[r.idx],
                    "in-flight circuit of no ranked Coflow"
                );
                if let Some(at) = scratch.credit_at[rank[r.idx]] {
                    scratch.credit[at + r.flow.flow_idx] += r.transmit_time(delta);
                }
            }

            // Plan the round against one masked view of the (unmodified)
            // table, the paper's sequential walk: hide every member's
            // future plan (even a member with no remaining demand — its
            // stale future must go), then visit the walks in priority
            // order — members restart at `now`, paused outsiders resume —
            // each up to the horizon, the next queued arrival, where a
            // re-plan is due anyway. A walk that must read a
            // higher-ranked plan past its frontier forces that walk on
            // first (`RankedWalks`), so every walk decides exactly what
            // planning everyone to completion would. Then apply the diff
            // — retire stale reservations, keep confirmed ones in place,
            // insert fresh ones — leaving the table (and the unsettled
            // mirror) byte-identical to what truncating the members'
            // futures and rebuilding them would produce, at the cost of
            // only the actual diff. The view works in recycled storage
            // and costs the ports it touches; a round with nothing to
            // re-plan and no walk to resume builds none.
            if !scratch.dirty.is_empty() || self.paused > 0 {
                let mut view = DeltaView::new(&self.prt, now, std::mem::take(&mut scratch.view));
                for &idx in &scratch.dirty {
                    view.hide_future_of(self.coflows[idx].id());
                }
                view.seal();
                let mut walks = RankedWalks {
                    walks: &mut self.walks,
                    frontier: &mut self.frontier,
                    paused: &mut self.paused,
                    rank: &rank,
                    sharers_in: &self.sharers_in,
                    sharers_out: &self.sharers_out,
                    horizon,
                    caller: 0,
                    stats: &mut self.stats,
                    spare: &mut scratch.spare,
                };
                for (my_rank, &idx) in prio.iter().enumerate() {
                    if let Some(at) = scratch.credit_at[my_rank] {
                        let c = &self.coflows[idx];
                        let remaining = self.book.remaining(idx);
                        let credit = &scratch.credit[at..at + c.num_flows()];
                        scratch.demands.clear();
                        for (fi, f) in c.flows().iter().enumerate() {
                            if self.deferred.contains_key(&(idx, fi)) {
                                continue; // in fault backoff
                            }
                            let rem = remaining[fi].saturating_sub(credit[fi]);
                            if !rem.is_zero() {
                                scratch.demands.push(Demand {
                                    flow_idx: fi,
                                    src: f.src,
                                    dst: f.dst,
                                    remaining: rem,
                                });
                            }
                        }
                        walks.restart(idx, c.id(), &scratch.demands, now, delta);
                    }
                    walks.advance(&mut view, idx, horizon);
                }
                if self.config.active_policy == ActiveCircuitPolicy::Yield {
                    // The displacement scan below looks for a plan starting
                    // exactly where an in-flight circuit ends: every walk
                    // that outranks the owner on the circuit's ports must be
                    // past that instant.
                    for r in self.unsettled.values().filter(|r| r.start < now) {
                        walks.caller = rank[r.idx];
                        let past = r.end.saturating_add(Dur::from_ps(1));
                        walks.reveal_in(&mut view, r.src, past);
                        walks.reveal_out(&mut view, r.dst, past);
                    }
                }
                let plan = view.finish();
                self.stats.count_view(&plan);
                self.stats.reservations_made += plan.made_len();
                scratch.removed.clear();
                plan.apply(&mut self.prt, &mut scratch.removed);
                self.stats.reservations_truncated += untrack(&mut self.unsettled, &scratch.removed);
                for (idx, r) in plan.fresh() {
                    track(
                        &mut self.unsettled,
                        Pending {
                            end: r.end,
                            src: r.src,
                            start: r.start,
                            dst: r.dst,
                            flow: r.flow,
                            idx,
                        },
                    );
                }
                scratch.view = plan.into_storage();
            }

            if self.config.active_policy != ActiveCircuitPolicy::Yield {
                break;
            }

            // Yield displacement, over the whole queue: in-flight
            // circuits (`start < now`) against kept plans and this
            // round's plans (`start >= now`). A planned circuit waits on
            // the one in flight on its input or output port if it starts
            // exactly where that one ends.
            let ReplanScratch {
                hold_in,
                hold_out,
                held,
                cuts,
                ..
            } = &mut scratch;
            held.clear();
            for r in self.unsettled.values().filter(|r| r.start < now) {
                debug_assert!(
                    hold_in[r.src].is_none() && hold_out[r.dst].is_none(),
                    "two circuits in flight on one port: {r:?}"
                );
                hold_in[r.src] = Some((rank[r.idx], *r));
                hold_out[r.dst] = Some((rank[r.idx], *r));
                held.push(*r);
            }
            cuts.clear();
            if !held.is_empty() {
                for r in self.unsettled.values().filter(|r| r.start >= now) {
                    debug_assert!(self.is_active[r.idx], "planned circuit of no ranked Coflow");
                    let waiter_rank = rank[r.idx];
                    for &(owner_rank, p) in
                        [&hold_in[r.src], &hold_out[r.dst]].into_iter().flatten()
                    {
                        if p.end == r.start && waiter_rank < owner_rank {
                            cuts.push(p);
                        }
                    }
                }
                for r in held.iter() {
                    hold_in[r.src] = None;
                    hold_out[r.dst] = None;
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
            self.cut_circuits(
                &scratch.cuts,
                &rank,
                &mut scratch.seed,
                &mut dirty_ports,
                hook,
            );
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
        rank: &[usize],
        seed: &mut [bool],
        dirty_ports: &mut PortSet,
        hook: &mut dyn SettleHook,
    ) {
        let now = self.now;
        for p in cuts {
            self.prt.cut_reservation(p.src, p.start, now);
            self.unsettled.remove(&(p.end, p.src));
            track(&mut self.unsettled, Pending { end: now, ..*p });
            seed[rank[p.idx]] = true;
            dirty_ports.insert_in(p.src);
            dirty_ports.insert_out(p.dst);
        }
        self.settle_flows(now, hook);
    }
}

impl SchedulingBackend for OnlineStepper<'_> {
    /// The Coflow becomes an arrival event at its arrival time; the fuel
    /// budget grows by its share.
    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        let fuel = 1_000 * (1 + coflow.num_flows() as u64);
        self.arrivals
            .submit(coflow, &self.fabric, self.now, |_| Ok(()))?;
        self.fuel += fuel;
        Ok(())
    }

    /// Events are Coflow arrivals, planned completions, guard-window
    /// ends and fault retries.
    fn next_event_time(&self) -> Option<Time> {
        if self.dirty {
            return Some(self.now);
        }
        let t_completion = self
            .active
            .iter()
            // A paused walk's frontier is at or past the next queued
            // arrival, so its Coflow completes after that event.
            .filter(|&&idx| self.walks[idx].is_none())
            .map(|&idx| {
                // A coflow whose walk finished completes when its last
                // planned reservation ends (the plan covers all remaining
                // demand). If it has none, all residual demand is pending
                // in kept reservations or will be served by guard
                // windows; fall back to the guard end.
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
        [self.arrivals.next_arrival(), t_completion, t_guard, t_retry]
            .into_iter()
            .flatten()
            .min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            assert!(t != Time::MAX, "no progress possible: deadlock");
            self.process_event(t, hook);
            processed += 1;
        }
        if deadline > self.now && deadline != Time::MAX {
            // Nothing happens strictly between events; float the clock
            // up so later submissions cannot rewrite this span.
            self.now = deadline;
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// The event-loop counters include `reschedule_micros`.
    fn status(&self) -> BackendStatus {
        BackendStatus {
            now: self.now,
            idle: self.active.is_empty() && self.arrivals.is_empty(),
            active_coflows: self.active.len(),
            queued_arrivals: self.arrivals.len(),
            outstanding_demand: self.book.outstanding(),
            deferred_flows: self.deferred.len(),
            guard_windows: self.guard_windows_elapsed,
            stats: Some(ReplayStats {
                reschedule_micros: self.resched_wall.as_micros() as u64,
                ..self.stats
            }),
        }
    }

    /// Drop PRT history that ended at or before `now`. Safe at any point
    /// between runs: only settled reservations can have ended by `now`.
    fn compact_history(&mut self) -> usize {
        self.prt.forget_before(self.now)
    }
}

/// The stepper's walks during one planning round, as the [`Outranking`]
/// each of them plans against: before a walk of rank `caller` reads a
/// port up to `until`, every walk ranked above it on that port is
/// advanced to at least `until`, recursively upward (DESIGN §4, "Plan
/// only as far as the next arrival").
struct RankedWalks<'a> {
    walks: &'a mut [Option<Box<Walk>>],
    frontier: &'a mut [Time],
    paused: &'a mut usize,
    rank: &'a [usize],
    sharers_in: &'a [Vec<u32>],
    sharers_out: &'a [Vec<u32>],
    /// The round's horizon. The round visits walks in rank order and
    /// leaves each at or past it, so every walk ranked above a caller
    /// is there already.
    horizon: Time,
    /// Rank of the walk being advanced (or of the circuit owner Yield's
    /// coverage pass reveals for).
    caller: usize,
    stats: &'a mut ReplayStats,
    spare: &'a mut SpareWalks,
}

impl RankedWalks<'_> {
    /// Restart Coflow `idx`'s walk at `now` over `demands`, retiring the
    /// walk it had; with no demand it gets none.
    fn restart(&mut self, idx: usize, coflow: u64, demands: &[Demand], now: Time, delta: Dur) {
        if let Some(old) = self.walks[idx].take() {
            *self.paused -= 1;
            retire(old, self.stats, self.spare);
        }
        self.frontier[idx] = Time::MAX;
        if demands.is_empty() {
            return;
        }
        let mut walk = self.spare.pop().unwrap_or_default();
        walk.restart(coflow, demands, now, delta, SunflowConfig::default());
        self.frontier[idx] = now;
        self.walks[idx] = Some(walk);
        *self.paused += 1;
    }

    /// Advance Coflow `h`'s walk, if it has one, to `until`, logging its
    /// reservations under `h`; a finished walk is retired.
    fn advance(&mut self, view: &mut DeltaView<'_>, h: usize, until: Time) {
        let Some(mut walk) = self.walks[h].take() else {
            return;
        };
        let caller = std::mem::replace(&mut self.caller, self.rank[h]);
        let owner = view.plan_for(h);
        walk.advance(view, until, self);
        view.plan_for(owner);
        self.caller = caller;
        match walk.frontier() {
            Some(f) => {
                self.frontier[h] = f;
                self.walks[h] = Some(walk);
            }
            None => {
                self.frontier[h] = Time::MAX;
                *self.paused -= 1;
                retire(walk, self.stats, self.spare);
            }
        }
    }

    /// Advance every walk in `sharers` ranked above the caller and short
    /// of `until` to `until`; `true` if there was one.
    fn reveal(&mut self, view: &mut DeltaView<'_>, sharers: &[u32], until: Time) -> bool {
        if until <= self.horizon {
            return false;
        }
        let mut any = false;
        for &h in sharers {
            let h = h as usize;
            if self.frontier[h] < until && self.rank[h] < self.caller {
                self.advance(view, h, until);
                any = true;
            }
        }
        any
    }
}

impl<'v> Outranking<DeltaView<'v>> for RankedWalks<'_> {
    fn reveal_in(&mut self, view: &mut DeltaView<'v>, src: InPort, until: Time) -> bool {
        let sharers = self.sharers_in;
        self.reveal(view, &sharers[src], until)
    }

    fn reveal_out(&mut self, view: &mut DeltaView<'v>, dst: OutPort, until: Time) -> bool {
        let sharers = self.sharers_out;
        self.reveal(view, &sharers[dst], until)
    }
}

/// Put away a walk that finished or was dropped: its work joins the
/// replay's counters, its buffers the spare pool.
fn retire(walk: Box<Walk>, stats: &mut ReplayStats, spare: &mut SpareWalks) {
    let c = walk.counters();
    stats.releases_visited += c.releases_visited;
    stats.demands_scanned += c.demands_scanned;
    spare.push(walk);
}

/// Remove Coflow `idx` from a port's sharer list.
fn unshare(sharers: &mut Vec<u32>, idx: usize) {
    let pos = sharers.iter().position(|&i| i as usize == idx);
    sharers.swap_remove(pos.expect("an active Coflow shares its own ports"));
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

/// Enter `p` in the unsettled queue under its `(end, src)` key, which no
/// other unsettled reservation holds.
fn track(unsettled: &mut BTreeMap<(Time, InPort), Pending>, p: Pending) {
    let displaced = unsettled.insert((p.end, p.src), p);
    debug_assert!(
        displaced.is_none(),
        "two unsettled circuits end on in.{} at {}",
        p.src,
        p.end
    );
}

/// Mirror a list of not-yet-started reservations removed from the table
/// (a finished Coflow's leftover plan, a delta apply's stale entries)
/// into the unsettled queue. Returns how many there were.
fn untrack(unsettled: &mut BTreeMap<(Time, InPort), Pending>, removed: &[RemovedResv]) -> u64 {
    for r in removed {
        let was = unsettled.remove(&(r.end, r.src));
        debug_assert!(
            was.is_some_and(|p| p.start == r.start
                && p.dst == r.dst
                && ResvKind::Flow(p.flow) == r.kind),
            "removed reservation missing from queue"
        );
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

    fn stepper(config: &OnlineConfig) -> OnlineStepper<'static> {
        OnlineStepper::new(&fabric(), config, Box::new(ShortestFirst))
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

        let mut s = stepper(&OnlineConfig::default());
        // Feed arrivals just-in-time, advancing in 50 ms slices.
        let mut fed = 0usize;
        for slice in 0..20u64 {
            let deadline = Time::from_millis(slice * 50);
            while fed < coflows.len() && coflows[fed].arrival() <= deadline {
                s.submit(coflows[fed].clone()).unwrap();
                fed += 1;
            }
            s.advance_to(deadline, &mut FullService);
        }
        assert_eq!(fed, coflows.len());
        s.advance_to(Time::MAX, &mut FullService);
        assert!(s.status().idle);

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

    /// A Coflow submitted at the instant the clock was floated to is
    /// the queue's next arrival: the next advance to that same instant
    /// admits and plans it there, and the replay ends as the batch one.
    #[test]
    fn same_instant_submission_is_admitted_at_the_floated_clock() {
        let coflows = [
            Coflow::builder(0).flow(0, 1, mb(5)).build(),
            Coflow::builder(1)
                .arrival(Time::from_millis(30))
                .flow(0, 2, mb(1))
                .build(),
        ];
        let batch = crate::online::simulate_circuit(
            &coflows,
            &fabric(),
            &OnlineConfig::default(),
            &ShortestFirst,
        );

        let mut s = stepper(&OnlineConfig::default());
        s.submit(coflows[0].clone()).unwrap();
        let t = Time::from_millis(30);
        s.advance_to(t, &mut FullService);
        assert_eq!(
            s.status().now,
            t,
            "no event at 30 ms: the clock floats there"
        );
        assert_eq!(s.prt().last_end_of(1), None);
        s.submit(coflows[1].clone()).unwrap();
        assert_eq!(s.status().queued_arrivals, 1);
        assert_eq!(s.next_event_time(), Some(t));
        assert_eq!(s.advance_to(t, &mut FullService), 1);
        let st = s.status();
        assert_eq!((st.now, st.queued_arrivals, st.active_coflows), (t, 0, 2));
        assert!(
            s.prt().last_end_of(1).is_some_and(|end| end > t),
            "planned at 30 ms"
        );

        s.advance_to(Time::MAX, &mut FullService);
        let mut done = s.drain_completions();
        done.sort_by_key(|c| c.outcome.coflow);
        assert_eq!(done.len(), batch.outcomes.len());
        for (c, b) in done.iter().zip(&batch.outcomes) {
            assert_eq!(c.outcome.coflow, b.coflow);
            assert_eq!(c.outcome.finish, b.finish);
            assert_eq!(c.outcome.circuit_setups, b.circuit_setups);
            assert_eq!(c.outcome.flow_finish, b.flow_finish);
        }
    }

    #[test]
    fn submit_rejections() {
        let mut s = stepper(&OnlineConfig::default());
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
        s.advance_to(Time::from_millis(500), &mut FullService);
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
        let mut s = stepper(&OnlineConfig::default());
        // Two coflows contending for in.0: the second waits for the first.
        s.submit(Coflow::builder(0).flow(0, 0, mb(10)).build())
            .unwrap();
        s.submit(Coflow::builder(1).flow(0, 1, mb(20)).build())
            .unwrap();
        s.advance_to(Time::MAX, &mut FullService);
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
        let c = Coflow::builder(0).flow(0, 0, mb(1)).build();

        let mut clean = stepper(&OnlineConfig::default());
        clean.submit(c.clone()).unwrap();
        clean.advance_to(Time::MAX, &mut FullService);
        let clean_finish = clean.drain_completions()[0].outcome.finish;

        let mut faulty = stepper(&OnlineConfig::default());
        faulty.submit(c).unwrap();
        let mut hook = FailFirst { failed: 0 };
        faulty.advance_to(Time::MAX, &mut hook);
        let done = faulty.drain_completions();
        assert_eq!(done.len(), 1, "coflow must still complete");
        let o = &done[0].outcome;
        assert!(o.finish > clean_finish, "retry must cost time");
        assert!(o.circuit_setups >= 2, "retry pays a fresh setup");
    }

    /// One giant Coflow behind a stream of small ones: its plan runs
    /// through a hundred guard intervals, and at every instant we look,
    /// no circuit in the table touches any window between the clock and
    /// the end of that plan — though no window is ever reserved. The
    /// small ones are submitted as a service would, at their arrivals:
    /// with no arrival queued the stepper plans every walk to its end,
    /// so the whole plan is in the table to look at.
    #[test]
    fn no_plan_crosses_a_guard_window_however_long() {
        let f = fabric();
        let config = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(20));
        let guard = StarvationGuard::new(f.ports(), config);
        let mut s = stepper(&OnlineConfig::default().guard(config));
        // 4 x 4 s of transfers, all out of in.0: at least 16 s of plan.
        let mut giant = Coflow::builder(0);
        for dst in 0..4 {
            giant = giant.flow(0, dst, mb(500));
        }
        s.submit(giant.build()).unwrap();
        let mut smalls = (1..=40u64).map(|i| {
            Coflow::builder(i)
                .arrival(Time::from_millis(i * 25))
                .flow((i % 4) as usize, (i % 3) as usize, mb(1))
                .build()
        });
        let mut next = smalls.next();
        for at_ms in [0, 30, 500, 2_000, 9_000] {
            let at = Time::from_millis(at_ms);
            while let Some(small) = next.take_if(|c| c.arrival() <= at) {
                s.advance_to(small.arrival(), &mut FullService);
                s.submit(small).unwrap();
                next = smalls.next();
            }
            s.advance_to(at, &mut FullService);
            let plan_end = s.prt().last_end_of(0).expect("giant is planned");
            assert!(plan_end > s.status().now + guard.interval_len() * 50);
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
        s.advance_to(Time::MAX, &mut FullService);
        assert_eq!(s.drain_completions().len(), 41);
    }

    /// A Coflow arriving with a guard window under way shares the whole
    /// window's transmit time, but its service cannot predate its arrival.
    #[test]
    fn guard_service_never_predates_arrival() {
        let config = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(40));
        let mut s = stepper(&OnlineConfig::default().guard(config));
        // Window 0 is [100, 140) ms and configures in.i -> out.i.
        let arrival = Time::from_millis(125);
        let late = Coflow::builder(0)
            .arrival(arrival)
            .flow(1, 1, mb(1))
            .build();
        s.submit(late).unwrap();
        s.advance_to(Time::MAX, &mut FullService);
        let done = s.drain_completions();
        assert_eq!(done[0].first_service, Some(arrival));
    }

    #[test]
    fn compact_history_preserves_future() {
        let mut s = stepper(&OnlineConfig::default());
        for i in 0..4u64 {
            s.submit(
                Coflow::builder(i)
                    .arrival(Time::from_millis(i * 100))
                    .flow((i as usize) % 4, (i as usize + 1) % 4, mb(2))
                    .build(),
            )
            .unwrap();
        }
        s.advance_to(Time::from_millis(150), &mut FullService);
        // The event loop retires settled circuits on its own; by 150 ms
        // some must have ended, and the explicit compaction that used to
        // find them now has nothing left to do.
        assert!(
            s.status()
                .stats
                .expect("the stepper keeps stats")
                .reservations_retired
                > 0,
            "some circuits must have ended by 150 ms"
        );
        assert_eq!(s.compact_history(), 0, "event loop already retired history");
        s.advance_to(Time::MAX, &mut FullService);
        assert_eq!(s.drain_completions().len(), 4);
    }
}
