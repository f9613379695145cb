//! The unified scheduling engine: one `SchedulingBackend` trait over the
//! three scheduler families of the paper's evaluation, so every
//! cross-cutting feature (the daemon, fault injection, telemetry,
//! checkpointing, golden-fingerprint guards) lands once instead of three
//! times.
//!
//! A backend is a resumable event-driven simulation of one scheduler on
//! one fabric: it receives arrivals ([`SchedulingBackend::submit`]), is
//! polled for its next internal event
//! ([`SchedulingBackend::next_event_time`]), and advances through timed
//! port occupancies ([`SchedulingBackend::advance_to`]), emitting
//! [`Completion`]s; everything else it reports is one
//! [`BackendStatus`] snapshot ([`SchedulingBackend::status`]). Advancing
//! to a finite deadline raises the clock and nothing else, so a live
//! service that slices the clock, and submits each Coflow any time
//! before its arrival, replays the batch run: the same outcomes and the
//! same event counters. Three implementations cover the paper:
//!
//! * [`SunflowBackend`] — Sunflow with a pluggable [`PriorityPolicy`]:
//!   the [`OnlineStepper`] (§4–5).
//! * [`CircuitBackend`] — the §3.2 aggregated-demand straw man over any
//!   [`CircuitScheduler`] (Solstice / TMS / Edmond), executed by the
//!   same [`Switch`] as the offline per-Coflow service path.
//! * [`PacketBackend`] — the event-driven fluid packet simulation over
//!   any [`RateScheduler`] (Varys / Aalo / fair sharing).
//!
//! The batch entry points (`simulate_circuit`,
//! `simulate_circuit_aggregated`, `simulate_packet`) are thin
//! constructors over these backends plus the event loop in
//! [`crate::engine`]; their replays are bit-identical to the historical
//! standalone loops (pinned by the golden fingerprints in
//! `replay_regression.rs` and `backend_regression.rs`).

use crate::arrivals::ArrivalQueue;
use crate::book::FlowBook;
use crate::online::{OnlineConfig, ReplayStats};
use crate::stepper::{Completion, OnlineStepper, SettleHook, SubmitError};
use ocs_baselines::{compact, CircuitScheduler, KeptPlan, Segment, Switch};
use ocs_model::KCoreFabric;
use ocs_model::{
    Assignment, Coflow, DemandMatrix, Dur, Fabric, FlowRef, Reservation, ScheduleOutcome, Time,
};
use ocs_packet::{Aalo, ActiveCoflow, FairSharing, RateScheduler, Varys};
use std::collections::{HashMap, VecDeque};
use sunflow_core::{CoreAssignKind, PriorityPolicy, SplitKind};

/// A resumable, event-driven simulation of one Coflow scheduler.
///
/// All three scheduler families implement this trait, so the layers
/// above (batch replays, the hybrid composition, `ocs-bench`, the
/// `ocs-daemon` service) drive a `&mut dyn SchedulingBackend` instead of
/// branching per family. A backend writes five calls: four that move it
/// (`submit`, `next_event_time`, `advance_to`, `drain_completions`) and
/// one [`status`](SchedulingBackend::status) snapshot that reports
/// everything else. Its name and switch model are its [`BackendKind`]'s.
///
/// The contract: `submit` queues an arrival at or after the backend
/// clock, `advance_to(deadline, hook)` processes every internal event up
/// to and including `deadline` (then raises the clock to `deadline`
/// unless it is [`Time::MAX`]), and completed Coflows accumulate until
/// [`SchedulingBackend::drain_completions`]. Raising the clock is all a
/// finite deadline does: which events a run processes, and what they
/// decide, depend on the submitted trace alone.
pub trait SchedulingBackend {
    /// Submit one Coflow; it becomes an arrival event at its arrival
    /// time (which must not precede the clock).
    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError>;

    /// When the next internal event is due, or `None` when idle.
    /// `Some(Time::MAX)` is the unbounded-work sentinel: the backend has
    /// drainable demand and no internal boundary before it finishes.
    fn next_event_time(&self) -> Option<Time>;

    /// Process every event up to and including `deadline`, consulting
    /// `hook` at each circuit settlement (packet backends never settle
    /// circuits, so their hook is unused). Returns events processed.
    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64;

    /// Take every Coflow completion recorded since the last drain, in
    /// completion order.
    fn drain_completions(&mut self) -> Vec<Completion>;

    /// The backend's clock, gauges and counters, read at once.
    fn status(&self) -> BackendStatus;

    /// Drop bookkeeping history no longer reachable from the clock;
    /// returns how many records were forgotten.
    fn compact_history(&mut self) -> usize {
        0
    }

    /// Number of parallel switch cores this backend schedules (1 for
    /// every single-switch backend).
    fn cores(&self) -> usize {
        1
    }

    /// Telemetry for one core of a multi-core backend; `None` when
    /// `core` is out of range or the backend is single-switch. Not part
    /// of [`status`](SchedulingBackend::status): a row costs O(active)
    /// on `kcore:<K>`.
    fn core_status(&self, _core: usize) -> Option<CoreStatus> {
        None
    }

    /// [`BackendStatus::stats`]; kept only because `benchmark/` calls it.
    fn stats(&self) -> Option<ReplayStats> {
        self.status().stats
    }

    /// [`BackendStatus::guard_windows`]; kept only because `benchmark/`
    /// calls it.
    fn guard_windows(&self) -> u64 {
        self.status().guard_windows
    }
}

/// A backend's state at one instant ([`SchedulingBackend::status`]):
/// the inputs of admission control, the daemon's gauges and every
/// report's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStatus {
    /// The virtual clock: all events up to here are processed.
    pub now: Time,
    /// No work remains: every submitted Coflow has completed.
    pub idle: bool,
    /// Arrived, not-yet-completed Coflows.
    pub active_coflows: usize,
    /// Submitted Coflows whose arrival is still in the future.
    pub queued_arrivals: usize,
    /// Total unserved processing time across active Coflows — the
    /// admission-control "outstanding demand" gauge.
    pub outstanding_demand: Dur,
    /// Flows currently in fault backoff (zero without a fault seam).
    pub deferred_flows: usize,
    /// Starvation-guard windows elapsed (zero without a guard).
    pub guard_windows: u64,
    /// Replay work counters, for backends that keep them.
    pub stats: Option<ReplayStats>,
}

/// Per-core telemetry of a multi-core backend
/// ([`SchedulingBackend::core_status`]): the inputs of the daemon's
/// per-core utilization gauges and reservation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStatus {
    /// Coflows with unfinished flows placed on this core.
    pub active_coflows: usize,
    /// Unserved processing time currently placed on this core.
    pub outstanding_demand: Dur,
    /// Total processing time ever admitted to this core (so
    /// `demand_admitted - outstanding_demand` is the served gauge).
    pub demand_admitted: Dur,
    /// Circuit reservations planned on this core's PRT shard.
    pub reservations_made: u64,
}

// ---------------------------------------------------------------------
// Sunflow
// ---------------------------------------------------------------------

/// Sunflow as a [`SchedulingBackend`]: the [`OnlineStepper`] itself,
/// built with the [`PriorityPolicy`] it ranks Coflows by.
pub type SunflowBackend<'p> = OnlineStepper<'p>;

// ---------------------------------------------------------------------
// Aggregated circuit baselines
// ---------------------------------------------------------------------

/// One FIFO attribution queue: the book slot and flow of each queued
/// flow on a circuit.
type FifoQueue = VecDeque<(usize, FlowRef)>;

/// The §3.2 aggregated-demand straw man as a [`SchedulingBackend`]: on
/// every Coflow arrival all outstanding demand is summed into one
/// matrix, the baseline ([`CircuitScheduler`]) recomputes its assignment
/// sequence, and the sequence executes on the switch until the next
/// arrival invalidates it (or it runs out with demand left, when the
/// aggregate is planned again). An `advance_to` deadline pauses the
/// sequence mid-window; the next call resumes it there. Service on a
/// circuit is attributed to the Coflows demanding it in arrival (FIFO)
/// order — the scheduler itself cannot express any other preference,
/// which is precisely its limitation. A transmission is settled (and
/// the settle hook consulted) once its window ends, and a shortfall
/// rejoins the aggregate when the sequence ends, so where a deadline
/// falls changes no settlement either.
///
/// `circuit_setups` in emitted outcomes is zero: with aggregation,
/// reconfigurations cannot be attributed to any single Coflow — exactly
/// the observability the aggregation destroys.
pub struct CircuitBackend {
    scheduler: CircuitScheduler,
    fabric: Fabric,
    now: Time,
    arrivals: ArrivalQueue,
    /// The active Coflows' accounts, in admission slots.
    book: FlowBook,
    /// Aggregate outstanding demand across active Coflows.
    remaining: DemandMatrix,
    /// FIFO attribution queues per circuit.
    fifo: HashMap<(usize, usize), FifoQueue>,
    /// The physical switch the plans execute on.
    switch: Switch,
    /// The assignment sequence in execution, from the window under way.
    plan: KeptPlan,
    /// Demand the settle hook shorted during the sequence in execution;
    /// it rejoins the aggregate when the sequence ends.
    shortfall: Vec<(usize, usize, Dur)>,
    completions: Vec<Completion>,
}

impl CircuitBackend {
    /// An aggregated-baseline backend for `scheduler` on `fabric`, under
    /// the scheduler's own execution config (not-all-stop switch).
    pub fn new(fabric: &Fabric, scheduler: CircuitScheduler) -> CircuitBackend {
        let n = fabric.ports();
        CircuitBackend {
            scheduler,
            fabric: *fabric,
            now: Time::ZERO,
            arrivals: ArrivalQueue::default(),
            book: FlowBook::default(),
            remaining: DemandMatrix::zero(n),
            fifo: HashMap::new(),
            switch: Switch::new(n, fabric.delta(), scheduler.exec_config()),
            plan: KeptPlan::default(),
            shortfall: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// True while the switch has work: demand left, or a window a
    /// deadline cut short.
    fn busy(&self) -> bool {
        !self.remaining.is_zero() || self.plan.is_cut()
    }

    /// End the sequence in execution: settle what its cut window has
    /// transmitted and return the shorted demand to the aggregate.
    fn end_plan(&mut self, hook: &mut dyn SettleHook) {
        let held = std::mem::take(&mut self.plan).held;
        self.apply_segments(held, hook);
        for (src, dst, short) in self.shortfall.drain(..) {
            self.remaining.add(src, dst, short);
        }
    }

    /// Admit every pending Coflow whose arrival is at or before `now`.
    fn admit_due(&mut self, hook: &mut dyn SettleHook) -> u64 {
        let mut admitted = 0u64;
        while let Some(c) = self.arrivals.pop_due(self.now) {
            if admitted == 0 {
                // The aggregate changes: the sequence in execution is void.
                self.end_plan(hook);
            }
            let slot = self.book.next_slot();
            self.book.admit(slot, &c, &self.fabric);
            for (flow_idx, f) in c.flows().iter().enumerate() {
                self.remaining
                    .add(f.src, f.dst, self.fabric.processing_time(f.bytes));
                let flow = FlowRef {
                    coflow: c.id(),
                    flow_idx,
                };
                self.fifo
                    .entry((f.src, f.dst))
                    .or_default()
                    .push_back((slot, flow));
            }
            admitted += 1;
        }
        admitted
    }

    /// Replay the plan/execute/attribute loop until `limit` or until the
    /// aggregate drains; returns the sequences planned.
    fn execute_until(&mut self, limit: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut rounds = 0u64;
        while self.busy() && self.now < limit {
            if self.plan.windows.is_empty() {
                rounds += 1;
                // Plan on the aggregate compacted to its active ports,
                // then translate back to real ports: padding circuits
                // map to no port and are dropped (see `Compacted`).
                let c = compact(self.remaining.nonzero());
                let mut plan = self.scheduler.schedule(&c.demand);
                for ta in &mut plan {
                    let real = |&(i, j): &(usize, usize)| Some((*c.srcs.get(i)?, *c.dsts.get(j)?));
                    ta.assignment =
                        Assignment::new(ta.assignment.pairs().iter().filter_map(real).collect());
                }
                self.plan.windows = plan.into();
            }
            let mut segments = Vec::new();
            let stopped = self.switch.resume(
                &mut self.plan,
                &mut self.remaining,
                self.now,
                limit,
                &mut segments,
            );
            self.apply_segments(segments, hook);
            if self.plan.windows.is_empty() || (self.remaining.is_zero() && !self.plan.is_cut()) {
                // Ran out, or drained the aggregate — at the limit too:
                // re-plan what is left.
                self.end_plan(hook);
            }
            assert!(
                stopped > self.now || self.remaining.is_zero() || stopped >= limit,
                "aggregate replay failed to progress at {}",
                self.now
            );
            self.now = stopped;
        }
        rounds
    }

    /// Attribute transmission segments to Coflow flows in FIFO order,
    /// consulting `hook` once per settled chunk. A shorted chunk leaves
    /// the shortfall on the flow's account and holds it for the
    /// aggregate, to be re-planned once the sequence ends. The
    /// completions this round records are queued in finish order.
    fn apply_segments(&mut self, mut segs: Vec<Segment>, hook: &mut dyn SettleHook) {
        let first_completion = self.completions.len();
        segs.sort_by_key(|s| (s.tx_start, s.src, s.dst));
        for s in segs {
            let mut done_slots: Vec<usize> = Vec::new();
            let queue = self
                .fifo
                .get_mut(&(s.src, s.dst))
                .expect("segment on circuit without demand");
            let mut cursor = s.tx_start;
            let mut budget = s.tx_end.since(s.tx_start);
            let mut shortfall = Dur::ZERO;
            while budget > Dur::ZERO {
                let (slot, flow) = *queue.front().expect("served beyond queued demand");
                let take = self.book.remaining(slot)[flow.flow_idx].min(budget);
                budget -= take;
                let chunk_start = cursor;
                cursor += take;
                let resv = Reservation {
                    src: s.src,
                    dst: s.dst,
                    start: chunk_start,
                    end: cursor,
                    flow,
                };
                let verdict = hook.on_settle(&resv, take, cursor);
                let credited = verdict.served.min(take);
                shortfall += take - credited;
                if self
                    .book
                    .credit(slot, flow.flow_idx, credited, chunk_start, cursor)
                {
                    queue.pop_front();
                    if self.book.is_done(slot) {
                        done_slots.push(slot);
                    }
                }
            }
            for slot in done_slots {
                self.completions.push(self.book.complete(slot));
            }
            if shortfall > Dur::ZERO {
                self.shortfall.push((s.src, s.dst, shortfall));
            }
        }
        // Segments start in order but end out of it: a Coflow finishing
        // on a long segment was recorded before one finishing earlier on
        // a later, shorter segment.
        self.completions[first_completion..].sort_by_key(|c| c.outcome.finish);
    }
}

impl SchedulingBackend for CircuitBackend {
    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        self.arrivals
            .submit(coflow, &self.fabric, self.now, |_| Ok(()))
    }

    fn next_event_time(&self) -> Option<Time> {
        if self.busy() {
            // Drainable demand: work proceeds continuously until the
            // next arrival re-plans it (or forever — the sentinel).
            Some(self.arrivals.next_arrival().unwrap_or(Time::MAX))
        } else {
            self.arrivals.next_arrival()
        }
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        loop {
            // Run the current plan window: until the next arrival
            // invalidates the aggregate, or to the deadline.
            let limit = self.arrivals.next_arrival().filter(|&a| a < deadline);
            let limit = limit.unwrap_or(deadline);
            processed += self.execute_until(limit, hook);
            if self.now < limit && limit != Time::MAX {
                // Nothing happens strictly between events; float the
                // clock so later submissions cannot rewrite this span.
                self.now = limit;
            }
            processed += self.admit_due(hook);
            if limit >= deadline {
                break;
            }
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn status(&self) -> BackendStatus {
        BackendStatus {
            now: self.now,
            idle: self.arrivals.is_empty() && self.book.open() == 0 && !self.busy(),
            active_coflows: self.book.open(),
            queued_arrivals: self.arrivals.len(),
            outstanding_demand: self.book.outstanding(),
            ..BackendStatus::default()
        }
    }
}

// ---------------------------------------------------------------------
// Packet-switched fluid simulation
// ---------------------------------------------------------------------

/// Bytes below which a fluid flow counts as finished (floating-point
/// slack; real flows are at least one byte).
const DONE_EPS: f64 = 1e-3;

/// The event-driven fluid packet simulation as a [`SchedulingBackend`]:
/// between scheduling events every flow drains linearly at its allocated
/// rate, so the next interesting instant (flow completion, Coflow
/// arrival, scheduler-specific event) is computable in closed form — the
/// backend jumps from event to event.
///
/// Faithful to the systems being modelled (§6 of the Sunflow paper and
/// the Varys design), **rates are recomputed only on Coflow arrivals and
/// completions** (plus Aalo's queue-crossing events) — *not* on
/// individual flow completions. A flow that finishes early leaves its
/// bandwidth idle until the next rescheduling event, an inefficiency the
/// Sunflow paper leverages in its Figure 9 analysis.
///
/// The packet switch configures no circuits, so the [`SettleHook`] fault
/// seam never fires for this backend.
///
/// The fluids stay at the instant of the last event (`at`): a finite
/// deadline raises only the clock, so slicing the clock at any deadlines
/// replays the batch exactly — no extra `progress` step perturbs the
/// floating-point remainders.
pub struct PacketBackend<'s> {
    scheduler: Box<dyn RateScheduler + 's>,
    fabric: Fabric,
    now: Time,
    /// The instant of the last event, where `acts` was last progressed
    /// to; at most `now`.
    at: Time,
    arrivals: ArrivalQueue,
    acts: Vec<ActiveCoflow>,
    /// The earliest fluid-finish instant over `acts` ([`Self::fluid_finish`]),
    /// recomputed wherever `acts` or `at` change so that polling
    /// [`next_event_time`](SchedulingBackend::next_event_time) does not
    /// rescan every flow.
    next_finish: Option<Time>,
    /// Parallel to `acts`: first instant each Coflow held a positive
    /// aggregate rate, for queue-latency telemetry.
    first_service: Vec<Option<Time>>,
    completions: Vec<Completion>,
    fuel: u64,
    /// Fluid events processed (the packet side's `ReplayStats::events`).
    events: u64,
    /// Wall-clock microseconds spent in the rate scheduler's `allocate`
    /// (the packet side's `ReplayStats::reschedule_micros`).
    alloc_micros: u64,
}

impl<'s> PacketBackend<'s> {
    /// A packet backend on `fabric` under `scheduler` (borrowed
    /// schedulers coerce via the blanket `impl RateScheduler for &mut S`).
    pub fn new(fabric: &Fabric, scheduler: Box<dyn RateScheduler + 's>) -> PacketBackend<'s> {
        PacketBackend {
            scheduler,
            fabric: *fabric,
            now: Time::ZERO,
            at: Time::ZERO,
            arrivals: ArrivalQueue::default(),
            acts: Vec::new(),
            next_finish: None,
            first_service: Vec::new(),
            completions: Vec::new(),
            fuel: 100_000,
            events: 0,
            alloc_micros: 0,
        }
    }

    /// Per-port unserved processing time at the full link rate — the
    /// larger of each port's transmit and receive queues, counting both
    /// active fluids and not-yet-admitted submissions. The congestion
    /// signal behind load-aware hybrid split policies: it resolves
    /// *where* the backlog sits, which the aggregate
    /// [`BackendStatus::outstanding_demand`] cannot.
    pub fn port_backlog(&self) -> Vec<Dur> {
        let ports = self.fabric.ports();
        let mut tx = vec![0.0f64; ports];
        let mut rx = vec![0.0f64; ports];
        for f in self.acts.iter().flat_map(|a| a.flows.iter()) {
            let b = f.remaining.max(0.0);
            tx[f.src] += b;
            rx[f.dst] += b;
        }
        for f in self.arrivals.coflows().flat_map(|c| c.flows().iter()) {
            tx[f.src] += f.bytes as f64;
            rx[f.dst] += f.bytes as f64;
        }
        tx.iter()
            .zip(&rx)
            .map(|(&t, &r)| self.fabric.processing_time(t.max(r).ceil() as u64))
            .collect()
    }

    /// The earliest instant an active flow drains at its current rate.
    fn fluid_finish(&self) -> Option<Time> {
        self.acts
            .iter()
            .flat_map(|a| a.flows.iter())
            .filter(|f| !f.done() && f.rate > 1e-3)
            .filter_map(|f| {
                // A near-epsilon rate on a large flow can put the finish
                // beyond the representable horizon (u64 picoseconds
                // ≈ 213 days); an earlier event always re-rates the flow
                // first, so the candidate is simply not due — don't
                // overflow the clock computing it.
                let dt = (f.remaining / f.rate).max(0.0);
                ((dt * 1e12) < (u64::MAX - self.at.as_ps()) as f64).then(|| {
                    // Round the finish instant *up* one picosecond: at
                    // high rates the clock quantum exceeds the byte
                    // epsilon, and rounding down would strand a sliver
                    // of the flow.
                    self.at + Dur::from_secs_f64(dt) + Dur::from_ps(1)
                })
            })
            .min()
    }

    /// Next candidate events: (arrival, flow finish, scheduler event).
    fn candidates(&self) -> (Option<Time>, Option<Time>, Option<Time>) {
        let t_arrival = self.arrivals.next_arrival().map(|a| a.max(self.at));
        let t_sched = self
            .scheduler
            .next_event(&self.acts, self.at)
            .filter(|&t| t > self.at);
        (t_arrival, self.next_finish, t_sched)
    }
}

impl SchedulingBackend for PacketBackend<'_> {
    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        let fuel = 1_000 * (1 + coflow.num_flows() as u64);
        self.arrivals
            .submit(coflow, &self.fabric, self.now, |_| Ok(()))?;
        self.fuel += fuel;
        Ok(())
    }

    fn next_event_time(&self) -> Option<Time> {
        let (t_arrival, t_finish, t_sched) = self.candidates();
        [t_arrival, t_finish, t_sched].into_iter().flatten().min()
    }

    fn advance_to(&mut self, deadline: Time, _hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        loop {
            let (t_arrival, t_finish, t_sched) = self.candidates();
            let t_next = [t_arrival, t_finish, t_sched].into_iter().flatten().min();

            let Some(t_next) = t_next else {
                // No event will ever fire again. In a batch run that is
                // a stall unless everything finished; online, a future
                // submission may still create events.
                if deadline == Time::MAX {
                    assert!(
                        self.acts.iter().all(|a| a.done()),
                        "packet simulation stalled with unfinished coflows at {}",
                        self.now
                    );
                }
                break;
            };
            if t_next > deadline {
                break;
            }

            self.fuel = self
                .fuel
                .checked_sub(1)
                .expect("packet simulation event-count fuel exhausted");
            processed += 1;
            self.events += 1;

            // Advance fluids to t_next.
            let dt = t_next.since(self.at).as_secs_f64();
            if dt > 0.0 {
                for a in self.acts.iter_mut() {
                    a.progress(dt);
                }
            }
            self.at = t_next;
            self.now = t_next;

            // Mark flow completions.
            for a in self.acts.iter_mut() {
                for f in a.flows.iter_mut() {
                    // A flow is done when its residue is below the byte
                    // epsilon or below what its rate moves in a nanosecond
                    // (sub-clock-resolution dust at high bandwidth).
                    if !f.done() && f.remaining <= DONE_EPS.max(f.rate * 1e-9) {
                        f.remaining = 0.0;
                        f.finish = Some(self.now);
                    }
                }
            }

            // Coflow completions.
            let mut topology_changed = false;
            let mut k = 0;
            while k < self.acts.len() {
                if self.acts[k].done() {
                    let a = self.acts.remove(k);
                    let first_service = self.first_service.remove(k);
                    self.completions.push(Completion {
                        outcome: ScheduleOutcome {
                            coflow: a.id,
                            start: a.arrival,
                            finish: self.now,
                            flow_finish: a.flows.iter().map(|f| f.finish.expect("done")).collect(),
                            circuit_setups: 0,
                        },
                        first_service,
                    });
                    topology_changed = true;
                } else {
                    k += 1;
                }
            }

            // Arrivals at (or before) now.
            while let Some(c) = self.arrivals.pop_due(self.now) {
                self.acts.push(ActiveCoflow::new(&c));
                self.first_service.push(None);
                topology_changed = true;
            }

            // Reschedule on arrivals/completions (unless the scheduler is
            // epoch-coordinated), and on scheduler events.
            let sched_fired = t_sched == Some(self.now);
            let topology_triggers = topology_changed && !self.scheduler.epoch_only();
            if (topology_triggers || sched_fired) && !self.acts.is_empty() {
                let t0 = std::time::Instant::now();
                self.scheduler
                    .allocate(&mut self.acts, &self.fabric, self.now);
                self.alloc_micros += t0.elapsed().as_micros() as u64;
                for (a, fs) in self.acts.iter().zip(self.first_service.iter_mut()) {
                    if fs.is_none() && a.total_rate() > 0.0 {
                        *fs = Some(self.now);
                    }
                }
            }
            self.next_finish = self.fluid_finish();

            if self.acts.is_empty() && self.arrivals.is_empty() {
                break;
            }
        }

        if deadline != Time::MAX && self.now < deadline {
            // Nothing happens strictly between events; raise the clock
            // so later submissions cannot rewrite this span. The fluids
            // stay at `at`: the next event progresses them in one step.
            self.now = deadline;
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Outstanding demand reads the fluids as of the last event.
    fn status(&self) -> BackendStatus {
        let bytes: f64 = self
            .acts
            .iter()
            .flat_map(|a| a.flows.iter())
            .map(|f| f.remaining.max(0.0))
            .sum();
        BackendStatus {
            now: self.now,
            idle: self.arrivals.is_empty() && self.acts.is_empty(),
            active_coflows: self.acts.len(),
            queued_arrivals: self.arrivals.len(),
            outstanding_demand: self.fabric.processing_time(bytes.ceil() as u64),
            // The packet side keeps the two counters that exist for a
            // fluid simulation: events processed and time spent
            // re-rating. The circuit-specific counters stay zero — but
            // the stats are `Some`, so hybrid compositions can merge
            // both sides instead of dropping this one.
            stats: Some(ReplayStats {
                events: self.events,
                reschedule_micros: self.alloc_micros,
                ..ReplayStats::default()
            }),
            ..BackendStatus::default()
        }
    }
}

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

/// A `--backend` value that no [`BackendKind`] answers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBackendError {
    /// The rejected selector.
    pub input: String,
}

impl std::fmt::Display for UnknownBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend '{}' (expected one of: sunflow, sunflow:<K>[:<assign>], \
             kcore:<K>, portgroups:<G>, hybrid:<split>[:<frac>], solstice, tms, edmond, \
             varys, aalo, fair)",
            self.input
        )
    }
}

impl std::error::Error for UnknownBackendError {}

/// Every scheduler the unified engine can run, by name — the
/// `--backend` selector of `ocs-daemond` and the constructor used by
/// `ocs-bench`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Sunflow on the circuit switch ([`SunflowBackend`]).
    Sunflow,
    /// Solstice over aggregated demand ([`CircuitBackend`]).
    Solstice,
    /// TMS over aggregated demand ([`CircuitBackend`]).
    Tms,
    /// Edmond (default slot) over aggregated demand ([`CircuitBackend`]).
    Edmond,
    /// Varys on the packet switch ([`PacketBackend`]).
    Varys,
    /// Aalo on the packet switch ([`PacketBackend`]).
    Aalo,
    /// Coflow-agnostic max-min fair sharing on the packet switch
    /// ([`PacketBackend`]).
    FairSharing,
    /// Sunflow sharded across `cores` parallel switch cores with the
    /// `assign` placement policy ([`crate::MultiSunflowBackend`]);
    /// selector `sunflow:<K>[:<assign>]`. `sunflow:1` replays
    /// byte-identically to [`BackendKind::Sunflow`].
    MultiSunflow {
        /// Number of parallel switch cores, `K` (≥ 1).
        cores: u32,
        /// The subflow→core placement policy.
        assign: CoreAssignKind,
    },
    /// The O(K)-approximation multi-core list scheduler
    /// ([`crate::KCoreBackend`]); selector `kcore:<K>`.
    KCore {
        /// Number of parallel switch cores, `K` (≥ 1).
        cores: u32,
    },
    /// The §6 hybrid fabric ([`crate::HybridBackend`]): Sunflow
    /// circuits beside a slim fair-shared packet network, with a
    /// [`SplitKind`] policy routing each arriving Coflow's bytes;
    /// selector `hybrid:<split>[:<frac>]` (e.g. `hybrid:solver:0.1`).
    Hybrid {
        /// The demand-routing policy.
        split: SplitKind,
        /// Packet-network bandwidth in thousandths of the link rate
        /// (1..=1000; the selector spells it as a fraction).
        packet_bw_permille: u32,
    },
    /// Sunflow sharded across `groups` disjoint contiguous port groups
    /// ([`crate::PortGroupBackend`]); selector `portgroups:<G>`.
    /// Deliberately absent from [`BackendKind::ALL`]: it refuses
    /// cross-group flows by design, so it cannot serve the
    /// arbitrary-traffic contract the `ALL` roster promises.
    PortGroups {
        /// Number of disjoint port groups, `G` (≥ 1).
        groups: u32,
    },
}

impl BackendKind {
    /// Every selectable backend (the parameterized kinds appear once,
    /// with representative parameters).
    pub const ALL: [BackendKind; 10] = [
        BackendKind::Sunflow,
        BackendKind::Solstice,
        BackendKind::Tms,
        BackendKind::Edmond,
        BackendKind::Varys,
        BackendKind::Aalo,
        BackendKind::FairSharing,
        BackendKind::MultiSunflow {
            cores: 2,
            assign: CoreAssignKind::LeastLoaded,
        },
        BackendKind::KCore { cores: 2 },
        BackendKind::Hybrid {
            split: SplitKind::Threshold,
            packet_bw_permille: 100,
        },
    ];

    /// The canonical scheduler name — the single source every report
    /// label and metric routes through.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sunflow
            | BackendKind::MultiSunflow { .. }
            | BackendKind::PortGroups { .. } => "Sunflow",
            BackendKind::Solstice => CircuitScheduler::Solstice.name(),
            BackendKind::Tms => CircuitScheduler::Tms.name(),
            BackendKind::Edmond => CircuitScheduler::edmond_default().name(),
            BackendKind::Varys => RateScheduler::name(&Varys),
            BackendKind::Aalo => RateScheduler::name(&Aalo::default()),
            BackendKind::FairSharing => RateScheduler::name(&FairSharing),
            BackendKind::KCore { .. } => "KCore",
            BackendKind::Hybrid { .. } => "Hybrid",
        }
    }

    /// The switch model the backend schedules for: `"not-all-stop"` for
    /// circuits, `"packet"` (δ = 0) for the rate schedulers, `"hybrid"`
    /// for circuits beside a packet network.
    pub fn switch_model(&self) -> &'static str {
        match self {
            BackendKind::Varys | BackendKind::Aalo | BackendKind::FairSharing => "packet",
            BackendKind::Hybrid { .. } => "hybrid",
            _ => "not-all-stop",
        }
    }

    /// The canonical `--backend` selector spelling: what
    /// [`BackendKind::from_str`](std::str::FromStr) round-trips, with
    /// the parameters of the multi-core kinds included
    /// (`sunflow:4:least-loaded`, `kcore:2`).
    pub fn selector(&self) -> String {
        match self {
            BackendKind::MultiSunflow { cores, assign } => format!("sunflow:{cores}:{assign}"),
            BackendKind::KCore { cores } => format!("kcore:{cores}"),
            BackendKind::Hybrid {
                split,
                packet_bw_permille,
            } => format!("hybrid:{split}:{}", *packet_bw_permille as f64 / 1000.0),
            BackendKind::PortGroups { groups } => format!("portgroups:{groups}"),
            BackendKind::FairSharing => "fair".to_string(),
            other => other.name().to_ascii_lowercase(),
        }
    }

    /// Construct the backend on `fabric`. `online` and `policy` drive
    /// the Sunflow backend and are ignored by the others (their
    /// schedulers take no priority policy).
    pub fn build<'p>(
        &self,
        fabric: &Fabric,
        online: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
    ) -> Box<dyn SchedulingBackend + 'p> {
        match self {
            BackendKind::Sunflow => Box::new(SunflowBackend::new(fabric, online, policy)),
            BackendKind::Solstice => {
                Box::new(CircuitBackend::new(fabric, CircuitScheduler::Solstice))
            }
            BackendKind::Tms => Box::new(CircuitBackend::new(fabric, CircuitScheduler::Tms)),
            BackendKind::Edmond => Box::new(CircuitBackend::new(
                fabric,
                CircuitScheduler::edmond_default(),
            )),
            BackendKind::Varys => Box::new(PacketBackend::new(fabric, Box::new(Varys))),
            BackendKind::Aalo => Box::new(PacketBackend::new(fabric, Box::new(Aalo::default()))),
            BackendKind::FairSharing => Box::new(PacketBackend::new(fabric, Box::new(FairSharing))),
            BackendKind::MultiSunflow { cores, assign } => {
                let k = KCoreFabric::new(*fabric, *cores as usize);
                Box::new(crate::MultiSunflowBackend::new(
                    &k,
                    online,
                    policy,
                    assign.build(),
                ))
            }
            BackendKind::KCore { cores } => {
                let k = KCoreFabric::new(*fabric, *cores as usize);
                Box::new(crate::KCoreBackend::new(&k))
            }
            BackendKind::Hybrid {
                split,
                packet_bw_permille,
            } => {
                let config = crate::HybridConfig {
                    online: *online,
                    packet_bandwidth_fraction: *packet_bw_permille as f64 / 1000.0,
                    ..crate::HybridConfig::default()
                };
                let split = split.build(config.small_flow_threshold);
                Box::new(
                    crate::HybridBackend::new(fabric, &config, policy, split)
                        .expect("permille selector keeps the fraction in (0, 1]"),
                )
            }
            BackendKind::PortGroups { groups } => Box::new(crate::PortGroupBackend::new(
                fabric,
                *groups as usize,
                online,
                policy,
            )),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = UnknownBackendError;

    fn from_str(s: &str) -> Result<BackendKind, UnknownBackendError> {
        let lower = s.to_ascii_lowercase();
        let unknown = || UnknownBackendError {
            input: s.to_string(),
        };
        // The parameterized selectors: `sunflow:<K>[:<assign>]`,
        // `kcore:<K>` (K ≥ 1) and `hybrid:<split>[:<frac>]`.
        if let Some((head, params)) = lower.split_once(':') {
            if head == "hybrid" {
                let (split_str, frac_str) = match params.split_once(':') {
                    Some((p, f)) => (p, Some(f)),
                    None => (params, None),
                };
                let split: SplitKind = split_str.parse().map_err(|_| unknown())?;
                let packet_bw_permille = match frac_str {
                    Some(fs) => fs
                        .parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && *f <= 1.0)
                        .map(|f| (f * 1000.0).round() as u32)
                        .filter(|&p| p >= 1)
                        .ok_or_else(unknown)?,
                    None => 100,
                };
                return Ok(BackendKind::Hybrid {
                    split,
                    packet_bw_permille,
                });
            }
            let (cores_str, assign_str) = match params.split_once(':') {
                Some((c, a)) => (c, Some(a)),
                None => (params, None),
            };
            let cores: u32 = cores_str
                .parse()
                .ok()
                .filter(|&k| k >= 1)
                .ok_or_else(unknown)?;
            return match (head, assign_str) {
                ("sunflow", assign) => Ok(BackendKind::MultiSunflow {
                    cores,
                    assign: match assign {
                        Some(a) => a.parse().map_err(|_| unknown())?,
                        None => CoreAssignKind::LeastLoaded,
                    },
                }),
                ("kcore", None) => Ok(BackendKind::KCore { cores }),
                ("portgroups", None) => Ok(BackendKind::PortGroups { groups: cores }),
                _ => Err(unknown()),
            };
        }
        match lower.as_str() {
            "sunflow" => Ok(BackendKind::Sunflow),
            "solstice" => Ok(BackendKind::Solstice),
            "tms" => Ok(BackendKind::Tms),
            "edmond" => Ok(BackendKind::Edmond),
            "varys" => Ok(BackendKind::Varys),
            "aalo" => Ok(BackendKind::Aalo),
            "fair" | "fairsharing" => Ok(BackendKind::FairSharing),
            _ => Err(unknown()),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::FullService;
    use ocs_model::Bandwidth;
    use proptest::prelude::*;
    use sunflow_core::ShortestFirst;

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    #[test]
    fn backend_kind_parses_and_rejects() {
        for kind in BackendKind::ALL {
            let parsed: BackendKind = kind.selector().parse().expect("canonical selector parses");
            assert_eq!(parsed, kind);
        }
        assert_eq!("fair".parse::<BackendKind>(), Ok(BackendKind::FairSharing));
        assert_eq!(
            "sunflow:4".parse::<BackendKind>(),
            Ok(BackendKind::MultiSunflow {
                cores: 4,
                assign: CoreAssignKind::LeastLoaded,
            })
        );
        assert_eq!(
            "sunflow:2:rank-pack".parse::<BackendKind>(),
            Ok(BackendKind::MultiSunflow {
                cores: 2,
                assign: CoreAssignKind::RankPack,
            })
        );
        assert_eq!(
            "kcore:8".parse::<BackendKind>(),
            Ok(BackendKind::KCore { cores: 8 })
        );
        // `hybrid:<split>[:<frac>]`: the fraction defaults to 0.1 and
        // round-trips through thousandths.
        assert_eq!(
            "hybrid:solver".parse::<BackendKind>(),
            Ok(BackendKind::Hybrid {
                split: SplitKind::Solver,
                packet_bw_permille: 100,
            })
        );
        assert_eq!(
            "hybrid:non-splitting:0.25".parse::<BackendKind>(),
            Ok(BackendKind::Hybrid {
                split: SplitKind::NonSplitting,
                packet_bw_permille: 250,
            })
        );
        // `portgroups:<G>` round-trips but stays out of ALL: it refuses
        // cross-group flows, so it cannot serve arbitrary traffic.
        let pg = BackendKind::PortGroups { groups: 4 };
        assert_eq!("portgroups:4".parse::<BackendKind>(), Ok(pg));
        assert_eq!(pg.selector(), "portgroups:4");
        assert_eq!(pg.name(), "Sunflow");
        assert!(!BackendKind::ALL.contains(&pg));
        for bad in [
            "warp-drive",
            "sunflow:0",
            "kcore:two",
            "kcore:2:hash",
            "sunflow:2:warp",
            "portgroups:0",
            "portgroups:2:hash",
            "hybrid:bogus",
            "hybrid:threshold:0",
            "hybrid:threshold:1.5",
            "hybrid:solver:0.0001",
        ] {
            let err = bad.parse::<BackendKind>().unwrap_err();
            assert!(err.to_string().contains(bad), "{bad}");
        }
        assert!("warp-drive"
            .parse::<BackendKind>()
            .unwrap_err()
            .to_string()
            .contains("solstice"));
    }

    #[test]
    fn every_backend_reports_name_and_switch_model() {
        let f = fabric();
        let expect = [
            (BackendKind::Sunflow, "Sunflow", "not-all-stop"),
            (BackendKind::Solstice, "Solstice", "not-all-stop"),
            (BackendKind::Tms, "TMS", "not-all-stop"),
            (BackendKind::Edmond, "Edmond", "not-all-stop"),
            (BackendKind::Varys, "Varys", "packet"),
            (BackendKind::Aalo, "Aalo", "packet"),
            (BackendKind::FairSharing, "FairSharing", "packet"),
            (
                BackendKind::MultiSunflow {
                    cores: 2,
                    assign: CoreAssignKind::LeastLoaded,
                },
                "Sunflow",
                "not-all-stop",
            ),
            (BackendKind::KCore { cores: 2 }, "KCore", "not-all-stop"),
            (
                BackendKind::Hybrid {
                    split: SplitKind::Threshold,
                    packet_bw_permille: 100,
                },
                "Hybrid",
                "hybrid",
            ),
        ];
        for (kind, name, switch) in expect {
            let b = kind.build(&f, &OnlineConfig::default(), Box::new(ShortestFirst));
            assert_eq!(kind.name(), name);
            assert_eq!(kind.switch_model(), switch);
            let status = b.status();
            assert!(status.idle);
            assert_eq!(status.now, Time::ZERO);
        }
    }

    #[test]
    fn submit_errors_are_typed_for_every_backend() {
        let f = fabric();
        // `portgroups:2` is not in ALL (it refuses cross-group flows);
        // every flow below stays inside one of its two-port groups.
        let kinds = BackendKind::ALL
            .into_iter()
            .chain([BackendKind::PortGroups { groups: 2 }]);
        for kind in kinds {
            let mut b = kind.build(&f, &OnlineConfig::default(), Box::new(ShortestFirst));
            b.submit(Coflow::builder(1).flow(0, 0, 1_000).build())
                .expect("fits");
            assert_eq!(
                b.submit(Coflow::builder(1).flow(1, 1, 1_000).build()),
                Err(SubmitError::DuplicateId(1)),
                "{}",
                kind.name()
            );
            assert!(
                matches!(
                    b.submit(Coflow::builder(2).flow(7, 0, 1_000).build()),
                    Err(SubmitError::ExceedsFabric { id: 2, .. })
                ),
                "{}",
                kind.name()
            );
            // Once the clock has moved, an arrival behind it is refused
            // — and leaves no trace: the same id, arriving later, is
            // accepted.
            let now = Time::from_millis(50);
            b.advance_to(now, &mut FullService);
            let at = |ms| {
                Coflow::builder(3)
                    .arrival(Time::from_millis(ms))
                    .flow(1, 1, 1_000)
                    .build()
            };
            assert_eq!(
                b.submit(at(10)),
                Err(SubmitError::ArrivalInPast {
                    arrival: Time::from_millis(10),
                    now,
                }),
                "{}",
                kind.selector()
            );
            assert_eq!(b.submit(at(60)), Ok(()), "{}", kind.selector());
        }
    }

    /// Up to ten Coflows of one to four flows on four ports, arriving in
    /// the first 300 ms, 10 KB to 20 MB per flow.
    fn arb_packet_workload() -> impl Strategy<Value = Vec<Coflow>> {
        let flow = (0usize..4, 0usize..4, 10_000u64..20_000_000);
        let coflow = (0u64..300, proptest::collection::vec(flow, 1..5));
        proptest::collection::vec(coflow, 1..10).prop_map(|cs| {
            cs.into_iter()
                .enumerate()
                .map(|(id, (at, flows))| {
                    let b = Coflow::builder(id as u64).arrival(Time::from_millis(at));
                    flows
                        .into_iter()
                        .fold(b, |b, (s, d, z)| b.flow(s, d, z))
                        .build()
                })
                .collect()
        })
    }

    fn rate_schedulers() -> [Box<dyn RateScheduler>; 3] {
        [
            Box::new(Varys),
            Box::new(Aalo::default()),
            Box::new(FairSharing),
        ]
    }

    /// Advance `b` to `t`, submitting first every Coflow of `pending`
    /// due by then, and check the cached fluid finish against a fresh
    /// scan of the flows.
    fn advance_checked(b: &mut PacketBackend<'_>, pending: &mut Vec<Coflow>, t: Time) {
        let due = pending.iter().take_while(|c| c.arrival() <= t).count();
        for c in pending.drain(..due) {
            b.submit(c).expect("arrives at or after the clock");
        }
        b.advance_to(t, &mut FullService);
        assert_eq!(b.next_finish, b.fluid_finish(), "stale fluid finish at {t}");
    }

    /// Outcomes by Coflow id.
    fn drained(b: &mut PacketBackend<'_>) -> Vec<ScheduleOutcome> {
        let mut out: Vec<_> = b
            .drain_completions()
            .into_iter()
            .map(|c| c.outcome)
            .collect();
        out.sort_by_key(|o| o.coflow);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The packet plane's cached next fluid finish equals a fresh
        /// scan after every `advance_to`, for Varys, Aalo and fair
        /// sharing: in one batch call to `Time::MAX`, in slices at a
        /// random subset of the batch's own event instants, and in
        /// slices at arbitrary deadlines. With just-in-time submission
        /// every slicing replays the batch outcomes exactly: a deadline
        /// raises the clock and leaves the fluids at the last event.
        #[test]
        fn fluid_finish_cache_matches_a_fresh_scan(
            mut coflows in arb_packet_workload(),
            keep in proptest::collection::vec(0u8..3, 64),
            cuts in proptest::collection::vec(1u64..400, 1..12),
        ) {
            coflows.sort_by_key(|c| c.arrival());
            for (k, _) in rate_schedulers().iter().enumerate() {
                let build = || PacketBackend::new(&fabric(), rate_schedulers().into_iter().nth(k).expect("three"));
                let mut batch = build();
                advance_checked(&mut batch, &mut coflows.clone(), Time::MAX);
                let expect = drained(&mut batch);
                prop_assert_eq!(expect.len(), coflows.len());

                // Every event instant, one call each.
                let mut stepped = build();
                let mut pending = coflows.clone();
                let mut instants = Vec::new();
                loop {
                    let next = [stepped.next_event_time(), pending.first().map(Coflow::arrival)];
                    match next.into_iter().flatten().min() {
                        Some(t) if t != Time::MAX => {
                            advance_checked(&mut stepped, &mut pending, t);
                            instants.push(t);
                        }
                        _ => break,
                    }
                }
                advance_checked(&mut stepped, &mut pending, Time::MAX);
                prop_assert_eq!(&drained(&mut stepped), &expect);

                // About a third of those instants as slice deadlines.
                let mut sliced = build();
                let mut pending = coflows.clone();
                for (i, &t) in instants.iter().enumerate() {
                    if keep[i % keep.len()] == 0 {
                        advance_checked(&mut sliced, &mut pending, t);
                    }
                }
                advance_checked(&mut sliced, &mut pending, Time::MAX);
                prop_assert_eq!(&drained(&mut sliced), &expect);

                // Arbitrary deadlines, `cuts` ms apart.
                let mut floated = build();
                let mut pending = coflows.clone();
                let mut t = Time::ZERO;
                for &ms in &cuts {
                    t += Dur::from_millis(ms);
                    advance_checked(&mut floated, &mut pending, t);
                }
                advance_checked(&mut floated, &mut pending, Time::MAX);
                prop_assert_eq!(&drained(&mut floated), &expect);
            }
        }
    }

    /// Chunked advancement (many small deadlines) completes the same
    /// workload as one shot for every backend family.
    #[test]
    fn chunked_advance_drains_every_backend() {
        let f = fabric();
        for kind in BackendKind::ALL {
            let mut b = kind.build(&f, &OnlineConfig::default(), Box::new(ShortestFirst));
            for i in 0..4u64 {
                b.submit(
                    Coflow::builder(i)
                        .arrival(Time::from_millis(i * 20))
                        .flow((i as usize) % 4, (i as usize + 1) % 4, 2_000_000)
                        .build(),
                )
                .expect("fits");
            }
            let mut hook = FullService;
            let mut t = Time::ZERO;
            for _ in 0..400 {
                if b.status().idle {
                    break;
                }
                t += Dur::from_millis(25);
                b.advance_to(t, &mut hook);
            }
            if !b.status().idle {
                b.advance_to(Time::MAX, &mut hook);
            }
            assert!(b.status().idle, "{}", kind.name());
            let done = b.drain_completions();
            assert_eq!(done.len(), 4, "{}", kind.name());
            for c in &done {
                assert!(c.first_service.is_some(), "{}", kind.name());
                assert!(c.outcome.finish >= c.outcome.start);
            }
        }
    }
}
