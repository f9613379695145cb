//! The reference online replay: PAPER §3–4's InterCoflow re-run from
//! scratch at every event, on the test-side [`RefTable`] with
//! [`ref_schedule_demands`] as IntraCoflow. It shares no planning code
//! with the stepper it checks — no `Prt`, delta view, port sets,
//! affected-set closure or guard timetable — and re-plans every active
//! Coflow at every round, so a defect in any of those shows up as a
//! difference rather than passing both arms.
//!
//! An event is a Coflow arrival, a Coflow's planned completion (the end
//! of its last reservation), a guard-window end while any Coflow is
//! active, or a fault-retry expiry. Each event settles, admits and
//! completes; an event that leaves a Coflow active then plans, in four
//! steps, and one that leaves none plans nothing and counts for nothing
//! (whatever is queued behind it):
//!
//! 1. settle every circuit that has ended, in `(end, src)` order, then
//!    every guard window that has ended;
//! 2. truncate every future reservation;
//! 3. cut in-flight circuits by the [`ActiveCircuitPolicy`]: `Keep`
//!    none, `Preempt` all, `Yield` each one whose end is where a
//!    higher-ranked plan starts on the same port — then re-plan, and
//!    repeat until no such circuit remains;
//! 4. plan every active Coflow in priority order: remaining service
//!    minus in-flight credit, flows in fault backoff skipped.
//!
//! Guard windows are §4.2's formula, `[m(T+τ)+T, (m+1)(T+τ))` on the
//! cyclic assignment `A_(m mod N)`, held as `RefTable` rows under the
//! sentinel Coflow [`WINDOW`] (`guard_timetable_equivalence.rs` shows
//! such rows are the timetable). They stand up to a horizon that
//! doubles, and the round re-plans, whenever a plan reaches past it.
//!
//! Where the paper leaves a rule open, the stepper's rule is copied and
//! its place in `crates/sim/src/stepper.rs` (or in `book.rs`, where the
//! stepper keeps its Coflows' accounts) cited.

#[path = "../../../core/tests/common/mod.rs"]
mod refmodel;

pub use refmodel::{ref_schedule_demands, RefTable};

use ocs_model::{Coflow, Dur, Fabric, FlowRef, Reservation, ScheduleOutcome, Time};
use ocs_sim::{ActiveCircuitPolicy, OnlineConfig, SettleHook};
use refmodel::Row;
use std::collections::HashMap;
use sunflow_core::{Demand, GuardConfig, PriorityPolicy, ResvKind, SunflowConfig};

/// The Coflow id guard-window rows are filed under.
const WINDOW: u64 = u64::MAX;

/// What one replay produced, everything in input order.
#[derive(Debug)]
pub struct Replay {
    /// One outcome per Coflow.
    pub outcomes: Vec<ScheduleOutcome>,
    /// When each Coflow first received service.
    pub first_service: Vec<Option<Time>>,
    /// Guard windows that ended by the last event.
    pub guard_windows: u64,
    /// Events that planned (those that left no Coflow active do not
    /// count).
    pub events: u64,
    /// In-flight circuits Yield cut.
    pub cuts: u64,
    /// Planning rounds under Yield.
    pub yield_rounds: u64,
}

/// Replay `coflows` on `fabric` under `config`, ranking Coflows by
/// `policy` and judging every settling circuit by `hook`.
///
/// # Panics
/// Panics if a Coflow never completes.
pub fn ref_replay(
    coflows: &[Coflow],
    fabric: &Fabric,
    config: &OnlineConfig,
    policy: &dyn PriorityPolicy,
    hook: &mut dyn SettleHook,
) -> Replay {
    let mut r = Replayer::new(coflows, fabric, config, policy);
    let mut next = r.next_event();
    while let Some(t) = next {
        assert!(t != Time::MAX, "no progress possible");
        r.event(t, hook);
        next = r.next_event();
    }
    let (outcomes, first_service) = r
        .done
        .into_iter()
        .map(|d| d.expect("every Coflow completes"))
        .unzip();
    Replay {
        outcomes,
        first_service,
        guard_windows: r.windows_settled,
        events: r.events,
        cuts: r.cuts,
        yield_rounds: r.yield_rounds,
    }
}

struct State {
    remaining: Vec<Dur>,
    finish: Vec<Option<Time>>,
    setups: u64,
    first_service: Option<Time>,
}

impl State {
    /// Credit `served` to flow `fi` from a circuit that began
    /// transmitting at `svc` and released its ports at `end`: the
    /// earliest such `svc` is first service, the `end` that empties a
    /// flow its finish (book.rs `FlowBook::credit`).
    fn credit(&mut self, fi: usize, served: Dur, svc: Time, end: Time) {
        self.remaining[fi] -= served;
        if !served.is_zero() && self.first_service.is_none_or(|f| svc < f) {
            self.first_service = Some(svc);
        }
        if self.remaining[fi].is_zero() && self.finish[fi].is_none() {
            self.finish[fi] = Some(end);
        }
    }
}

struct Replayer<'a> {
    coflows: &'a [Coflow],
    fabric: Fabric,
    active_policy: ActiveCircuitPolicy,
    guard: Option<GuardConfig>,
    policy: &'a dyn PriorityPolicy,
    table: RefTable,
    index: HashMap<u64, usize>,
    /// Not yet arrived, latest `(arrival, id)` last.
    arrivals: Vec<usize>,
    /// Arrived and not complete, in arrival order.
    active: Vec<usize>,
    states: Vec<Option<State>>,
    /// Flows in fault backoff, and until when.
    deferred: HashMap<FlowRef, Time>,
    done: Vec<Option<(ScheduleOutcome, Option<Time>)>>,
    now: Time,
    /// Guard windows starting before this stand in the table.
    horizon: Time,
    windows_made: u64,
    windows_settled: u64,
    events: u64,
    cuts: u64,
    yield_rounds: u64,
}

impl<'a> Replayer<'a> {
    fn new(
        coflows: &'a [Coflow],
        fabric: &Fabric,
        config: &OnlineConfig,
        policy: &'a dyn PriorityPolicy,
    ) -> Replayer<'a> {
        let mut arrivals: Vec<usize> = (0..coflows.len()).collect();
        arrivals.sort_by_key(|&i| std::cmp::Reverse((coflows[i].arrival(), coflows[i].id())));
        Replayer {
            coflows,
            fabric: *fabric,
            active_policy: config.active_policy,
            guard: config.guard,
            policy,
            table: RefTable::default(),
            index: coflows
                .iter()
                .enumerate()
                .map(|(i, c)| (c.id(), i))
                .collect(),
            arrivals,
            active: Vec::new(),
            states: coflows.iter().map(|_| None).collect(),
            deferred: HashMap::new(),
            done: vec![None; coflows.len()],
            now: Time::ZERO,
            horizon: config
                .guard
                .map_or(Time::MAX, |g| Time::ZERO + g.period + g.tau),
            windows_made: 0,
            windows_settled: 0,
            events: 0,
            cuts: 0,
            yield_rounds: 0,
        }
    }

    fn event(&mut self, t: Time, hook: &mut dyn SettleHook) {
        self.now = t;
        self.deferred.retain(|_, until| *until > t);
        // 1. Settle: circuits first, then windows (stepper.rs
        // `process_event`).
        self.settle(hook);
        self.settle_windows();
        while let Some(&i) = self.arrivals.last() {
            let c = &self.coflows[i];
            if c.arrival() > t {
                break;
            }
            self.arrivals.pop();
            let remaining: Vec<Dur> = c
                .flows()
                .iter()
                .map(|f| self.fabric.processing_time(f.bytes))
                .collect();
            self.states[i] = Some(State {
                finish: vec![None; remaining.len()],
                remaining,
                setups: 0,
                first_service: None,
            });
            self.active.push(i);
        }
        // A Coflow completes at the event that finds all of it served, at
        // the latest of its flows' finishes (stepper.rs `process_event`).
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&i| {
            let st = self.states[i].as_ref().expect("arrived");
            if !st.remaining.iter().all(|r| r.is_zero()) {
                return true;
            }
            let flow_finish: Vec<Time> = st.finish.iter().map(|f| f.expect("served")).collect();
            let c = &self.coflows[i];
            let outcome = ScheduleOutcome {
                coflow: c.id(),
                start: c.arrival(),
                finish: flow_finish.iter().copied().max().expect("non-empty"),
                flow_finish,
                circuit_setups: st.setups,
            };
            self.done[i] = Some((outcome, st.first_service));
            false
        });
        self.active = active;
        // Nothing to plan, however many arrivals are queued (stepper.rs
        // `process_event`).
        if self.active.is_empty() {
            return;
        }
        self.events += 1;
        // 3. Preempt cuts everything in flight once, up front.
        if self.active_policy == ActiveCircuitPolicy::Preempt {
            let all = self.in_flight();
            self.cut(&all, hook);
        }
        loop {
            if self.active_policy == ActiveCircuitPolicy::Yield {
                self.yield_rounds += 1;
            }
            // 2 and 4.
            self.plan();
            if self.active_policy != ActiveCircuitPolicy::Yield {
                break;
            }
            let blockers = self.blockers();
            if blockers.is_empty() {
                break;
            }
            self.cuts += blockers.len() as u64;
            self.cut(&blockers, hook);
        }
    }

    /// The next arrival, planned completion (a Coflow's last
    /// reservation end), window end while anyone is active, or retry
    /// expiry (stepper.rs `next_event_time`).
    fn next_event(&self) -> Option<Time> {
        let arrival = self.arrivals.last().map(|&i| self.coflows[i].arrival());
        let completion = self
            .active
            .iter()
            .filter_map(|&i| self.table.last_end_of(self.coflows[i].id()))
            .filter(|&end| end > self.now)
            .min();
        // The first window end strictly after now.
        let window_end = self.guard.filter(|_| !self.active.is_empty()).map(|g| {
            let len = (g.period + g.tau).as_ps();
            Time::from_ps((self.now.as_ps() / len + 1).saturating_mul(len))
        });
        let retry = self.deferred.values().copied().min();
        [arrival, completion, window_end, retry]
            .into_iter()
            .flatten()
            .min()
    }

    /// Settle every circuit that ended by now, in `(end, src)` order,
    /// through `hook`, and forget everything that ended (stepper.rs
    /// `settle_flows`: the event at or after a circuit's end settles it).
    fn settle(&mut self, hook: &mut dyn SettleHook) {
        let delta = self.fabric.delta();
        let mut ended: Vec<(Time, usize, usize, Time, FlowRef)> = self
            .table
            .table()
            .into_iter()
            .filter_map(|r| {
                let ResvKind::Flow(flow) = r.kind;
                (r.end <= self.now && flow.coflow != WINDOW)
                    .then_some((r.end, r.src, r.dst, r.start, flow))
            })
            .collect();
        ended.sort_by_key(|&(end, src, ..)| (end, src));
        for (end, src, dst, start, flow) in ended {
            let st = self.states[self.index[&flow.coflow]]
                .as_mut()
                .expect("a circuit's owner has arrived");
            st.setups += 1;
            // The hook is offered the transmit time capped by the flow's
            // remaining demand, and judges at the settling instant
            // (book.rs `FlowBook::settle`).
            let available = end
                .since(start)
                .saturating_sub(delta)
                .min(st.remaining[flow.flow_idx]);
            let resv = Reservation {
                src,
                dst,
                start,
                end,
                flow,
            };
            let verdict = hook.on_settle(&resv, available, self.now);
            let served = verdict.served.min(available);
            st.credit(flow.flow_idx, served, start + delta, end);
            if served < available {
                // A zero backoff retries 1 ps later (book.rs
                // `FlowBook::settle`).
                let mut until = self.now + verdict.retry_after.unwrap_or(Dur::ZERO);
                if until <= self.now {
                    until = self.now + Dur::from_ps(1);
                }
                self.deferred.insert(flow, until);
            }
        }
        self.table.forget_before(self.now);
    }

    /// §4.2's window `m`: `[m(T+τ)+T, (m+1)(T+τ))`, and the shift `k`
    /// of its assignment `A_k`, `in.i → out.(i+k mod N)`.
    fn window(&self, m: u64) -> (Time, Time, usize) {
        let g = self.guard.expect("a guarded replay");
        let start = Time::ZERO + (g.period + g.tau) * m + g.period;
        let n = self.fabric.ports() as u64;
        (start, start + g.tau, (m % n) as usize)
    }

    /// Every active flow on one of an ended window's circuits takes an
    /// equal share of its transmit time with the others on that circuit
    /// (stepper.rs `settle_guard`). The guard bypasses the hook
    /// (`SettleHook`).
    fn settle_windows(&mut self) {
        let Some(g) = self.guard else { return };
        let (n, delta) = (self.fabric.ports(), self.fabric.delta());
        loop {
            let (start, end, shift) = self.window(self.windows_settled);
            if end > self.now {
                return;
            }
            self.windows_settled += 1;
            let mut takers = Vec::new();
            let mut sharers = vec![0u64; n];
            for &i in &self.active {
                let st = self.states[i].as_ref().expect("arrived");
                for (fi, f) in self.coflows[i].flows().iter().enumerate() {
                    if f.dst == (f.src + shift) % n && !st.remaining[fi].is_zero() {
                        takers.push((i, fi, f.src));
                        sharers[f.src] += 1;
                    }
                }
            }
            for (i, fi, src) in takers {
                let st = self.states[i].as_mut().expect("arrived");
                let served = (g.tau.saturating_sub(delta) / sharers[src]).min(st.remaining[fi]);
                // No service before arrival (stepper.rs `settle_guard`).
                let svc = (start + delta).max(self.coflows[i].arrival());
                st.credit(fi, served, svc, end);
            }
        }
    }

    /// The flow circuits in flight now (`start < now < end`).
    fn in_flight(&self) -> Vec<Row> {
        let mut rows = self.table.in_flight(self.now);
        rows.retain(|r| r.4.coflow != WINDOW);
        rows
    }

    /// End `rows` now and settle them.
    fn cut(&mut self, rows: &[Row], hook: &mut dyn SettleHook) {
        for &(src, _, start, _, _) in rows {
            self.table.cut(src, start, self.now);
        }
        self.settle(hook);
    }

    /// Active Coflows, highest priority first: the policy, ties broken
    /// by arrival, then id (stepper.rs `process_event`).
    fn priority_order(&self) -> Vec<usize> {
        let mut order = self.active.clone();
        let (cs, f) = (self.coflows, &self.fabric);
        order.sort_by(|&a, &b| {
            let (a, b) = (&cs[a], &cs[b]);
            self.policy
                .compare(a, b, f)
                .then_with(|| a.arrival().cmp(&b.arrival()))
                .then_with(|| a.id().cmp(&b.id()))
        });
        order
    }

    /// Steps 2 and 4: truncate every future reservation and plan every
    /// active Coflow in priority order — again with the horizon doubled
    /// while a plan reaches past the windows standing.
    fn plan(&mut self) {
        loop {
            self.truncate_future();
            if self.plan_in_order() <= self.horizon {
                return;
            }
            self.horizon = Time::from_ps(self.horizon.as_ps().saturating_mul(2));
        }
    }

    /// Drop every future flow reservation and stand every window that
    /// has not ended and starts before the horizon.
    fn truncate_future(&mut self) {
        for c in self.coflows {
            self.table.truncate_future_of(c.id(), self.now);
        }
        if self.guard.is_none() {
            return;
        }
        // After an idle gap the horizon first catches up with the clock.
        while self.horizon <= self.now {
            self.horizon = Time::from_ps(self.horizon.as_ps().saturating_mul(2));
        }
        let n = self.fabric.ports();
        loop {
            let m = self.windows_made;
            let (start, end, shift) = self.window(m);
            if start >= self.horizon {
                return;
            }
            self.windows_made += 1;
            if end <= self.now {
                continue;
            }
            for i in 0..n {
                let flow = FlowRef {
                    coflow: WINDOW,
                    flow_idx: m as usize * n + i,
                };
                self.table.reserve(i, (i + shift) % n, start, end, flow);
            }
        }
    }

    /// Plan every active Coflow in priority order; returns the latest
    /// end planned.
    fn plan_in_order(&mut self) -> Time {
        let delta = self.fabric.delta();
        // Service in flight is credited at circuit end; do not plan it
        // twice (stepper.rs `replan`).
        let mut in_flight: HashMap<FlowRef, Dur> = HashMap::new();
        for (_, _, start, end, flow) in self.in_flight() {
            *in_flight.entry(flow).or_default() += end.since(start).saturating_sub(delta);
        }
        let mut reach = Time::ZERO;
        for i in self.priority_order() {
            let c = &self.coflows[i];
            let st = self.states[i].as_ref().expect("arrived");
            let mut demands = Vec::new();
            for (fi, f) in c.flows().iter().enumerate() {
                let flow = FlowRef {
                    coflow: c.id(),
                    flow_idx: fi,
                };
                if self.deferred.contains_key(&flow) {
                    continue;
                }
                let credit = in_flight.get(&flow).copied().unwrap_or_default();
                let remaining = st.remaining[fi].saturating_sub(credit);
                if !remaining.is_zero() {
                    demands.push(Demand {
                        flow_idx: fi,
                        src: f.src,
                        dst: f.dst,
                        remaining,
                    });
                }
            }
            let config = SunflowConfig::default();
            for r in
                ref_schedule_demands(&mut self.table, c.id(), &demands, self.now, delta, config)
            {
                reach = reach.max(r.end);
            }
        }
        reach
    }

    /// Yield's blockers: in-flight circuits whose end is where a
    /// higher-ranked plan starts on the same port, by `(end, src)`.
    fn blockers(&self) -> Vec<Row> {
        let rank: HashMap<u64, usize> = self
            .priority_order()
            .into_iter()
            .enumerate()
            .map(|(r, i)| (self.coflows[i].id(), r))
            .collect();
        let in_flight = self.in_flight();
        let mut cut: Vec<Row> = Vec::new();
        for r in self.table.table() {
            let ResvKind::Flow(flow) = r.kind;
            if r.start < self.now || flow.coflow == WINDOW {
                continue;
            }
            for &p in &in_flight {
                if p.3 == r.start
                    && (p.0 == r.src || p.1 == r.dst)
                    && rank[&p.4.coflow] > rank[&flow.coflow]
                {
                    cut.push(p);
                }
            }
        }
        cut.sort_by_key(|p| (p.3, p.0));
        cut.dedup();
        cut
    }
}
