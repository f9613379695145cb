//! Multi-core OCS backends: Sunflow sharded across `K` cores, and the
//! O(K)-approximation list scheduler of the multi-core OCS papers.
//!
//! Both backends model the fabric of [`KCoreFabric`]: `K` parallel
//! circuit planes over the same `N` hosts, each plane a full switch.
//!
//! * [`MultiSunflowBackend`] — one [`OnlineStepper`] per core. Arriving
//!   Coflows are split subflow-by-subflow across cores by a pluggable
//!   [`CoreAssign`] placement policy (consulted *at arrival time*, so
//!   load-aware policies see the live per-core byte loads), and each
//!   part replays independently on its core's stepper. The parts share
//!   one virtual clock — the backend advances each stepper only at its
//!   own event instants, exactly like the engine composes backends —
//!   and a Coflow completes when its last part does. With `K = 1`
//!   every placement policy routes everything to core 0 and the replay
//!   is byte-identical to the single-switch [`SunflowBackend`]
//!   (pinned by the goldens in `kcore_regression.rs`).
//! * [`KCoreBackend`] — the non-preemptive multi-core list scheduler in
//!   the spirit of the Wang et al. O(K)-approximation analysis:
//!   Coflows are processed shortest-effective-bottleneck first, each
//!   placed across cores by bottleneck-balancing rank-packing and
//!   planned in one [`schedule_demands_on`] call against a
//!   [`CorePlan`] of `K` PRT shards. Reservations are never truncated
//!   once made (strict non-preemption, the property the approximation
//!   bound needs); a shorted settlement re-plans only the shortfall.
//!
//! [`SunflowBackend`]: crate::backend::SunflowBackend

use crate::backend::{CoreStatus, SchedulingBackend};
use crate::online::{OnlineConfig, ReplayStats};
use crate::stepper::{Completion, OnlineStepper, SettleHook, SubmitError};
use ocs_model::{
    packet_lower_bound, Coflow, Dur, Fabric, Flow, FlowRef, KCoreFabric, Reservation,
    ScheduleOutcome, Time,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use sunflow_core::{
    partition_by_core, schedule_demands_on, CoreAssign, CoreAssignKind, CoreLoad, CorePlan, Demand,
    PriorityPolicy, ScheduleScratch, SunflowConfig,
};

// ---------------------------------------------------------------------
// MultiSunflowBackend
// ---------------------------------------------------------------------

/// Per-Coflow reassembly state while its parts run on their cores.
struct MergeState {
    arrival: Time,
    /// Per original flow: `(core, index within that core's part)`.
    map: Vec<(usize, usize)>,
    /// Per original flow: `(core, src, dst, bytes)` — released from the
    /// load gauge when the Coflow completes.
    placed: Vec<(usize, usize, usize, u64)>,
    parts_left: usize,
    flow_finish: Vec<Time>,
    finish: Time,
    setups: u64,
    first_service: Option<Time>,
}

/// Sunflow generalized to a [`KCoreFabric`]: `K` independent
/// [`OnlineStepper`]s (one PRT shard each) behind one clock, with a
/// [`CoreAssign`] policy splitting every arriving Coflow across them.
///
/// Cross-core replans are port-disjoint by construction — each stepper
/// owns its shard outright — so they compose with the stepper's own
/// parallel rank segments without coordination.
pub struct MultiSunflowBackend<'p> {
    fabric: Fabric,
    steppers: Vec<OnlineStepper>,
    policy: Box<dyn PriorityPolicy + 'p>,
    assign: Box<dyn CoreAssign + Send>,
    load: CoreLoad,
    now: Time,
    /// Future arrivals, split at admission time: (arrival, id) order
    /// matches the stepper's own arrival queue, so splitting at arrival
    /// admits Coflows in exactly the order batch submission would.
    pending: BTreeMap<(Time, u64), Coflow>,
    ids: HashSet<u64>,
    merge: HashMap<u64, MergeState>,
    completions: Vec<Completion>,
    /// Per-core processing time admitted so far (telemetry gauge).
    admitted: Vec<Dur>,
}

impl<'p> MultiSunflowBackend<'p> {
    /// A `K`-core Sunflow backend under `config`, `policy` and the
    /// placement policy `assign`.
    pub fn new(
        fabric: &KCoreFabric,
        config: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
        assign: Box<dyn CoreAssign + Send>,
    ) -> MultiSunflowBackend<'p> {
        let core = fabric.core();
        MultiSunflowBackend {
            fabric: core,
            steppers: (0..fabric.cores())
                .map(|_| OnlineStepper::new(&core, config))
                .collect(),
            policy,
            assign,
            load: CoreLoad::new(fabric.cores(), core.ports()),
            now: Time::ZERO,
            pending: BTreeMap::new(),
            ids: HashSet::new(),
            merge: HashMap::new(),
            completions: Vec::new(),
            admitted: vec![Dur::ZERO; fabric.cores()],
        }
    }

    /// One core's stepper (read-only), e.g. for PRT inspection.
    pub fn stepper(&self, core: usize) -> &OnlineStepper {
        &self.steppers[core]
    }

    /// The placement policy's name.
    pub fn assign_name(&self) -> &'static str {
        self.assign.name()
    }

    /// Split and admit every pending Coflow due at or before `t`.
    fn admit_due(&mut self, t: Time) -> u64 {
        let mut n = 0u64;
        while let Some(&(arrival, id)) = self.pending.keys().next() {
            if arrival > t {
                break;
            }
            let c = self.pending.remove(&(arrival, id)).expect("peeked");
            let cores = self.steppers.len();
            let assignment = self.assign.assign(&c, cores, &self.load);
            let (parts, map) = partition_by_core(&c, &assignment, cores);
            let mut placed = Vec::with_capacity(c.num_flows());
            for (f, &core) in c.flows().iter().zip(&assignment) {
                self.load.add(core, f.src, f.dst, f.bytes);
                placed.push((core, f.src, f.dst, f.bytes));
            }
            self.merge.insert(
                id,
                MergeState {
                    arrival,
                    map,
                    placed,
                    parts_left: parts.iter().flatten().count(),
                    flow_finish: vec![Time::ZERO; c.num_flows()],
                    finish: arrival,
                    setups: 0,
                    first_service: None,
                },
            );
            for (core, part) in parts.into_iter().enumerate() {
                let Some(part) = part else { continue };
                self.admitted[core] += part
                    .flows()
                    .iter()
                    .map(|f| self.fabric.processing_time(f.bytes))
                    .sum::<Dur>();
                self.steppers[core]
                    .submit(part)
                    .expect("part was validated at submission");
                n += 1;
            }
        }
        n
    }

    /// Drain per-core completions into the per-Coflow merge states,
    /// emitting a merged [`Completion`] once the last part lands.
    fn absorb_completions(&mut self) {
        for core in 0..self.steppers.len() {
            for part in self.steppers[core].drain_completions() {
                let id = part.outcome.coflow;
                let st = self
                    .merge
                    .get_mut(&id)
                    .expect("completion for an unknown part");
                for (orig, &(pc, pi)) in st.map.iter().enumerate() {
                    if pc == core {
                        st.flow_finish[orig] = part.outcome.flow_finish[pi];
                    }
                }
                st.finish = st.finish.max(part.outcome.finish);
                st.setups += part.outcome.circuit_setups;
                st.first_service = match (st.first_service, part.first_service) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                st.parts_left -= 1;
                if st.parts_left == 0 {
                    let st = self.merge.remove(&id).expect("present");
                    for &(c, src, dst, bytes) in &st.placed {
                        self.load.remove(c, src, dst, bytes);
                    }
                    self.completions.push(Completion {
                        outcome: ScheduleOutcome {
                            coflow: id,
                            start: st.arrival,
                            finish: st.finish,
                            flow_finish: st.flow_finish,
                            circuit_setups: st.setups,
                        },
                        first_service: st.first_service,
                    });
                }
            }
        }
    }
}

impl SchedulingBackend for MultiSunflowBackend<'_> {
    fn name(&self) -> &'static str {
        "Sunflow"
    }

    fn switch_model(&self) -> &'static str {
        "not-all-stop"
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        if !self.fabric.fits(&coflow) {
            return Err(SubmitError::ExceedsFabric {
                id: coflow.id(),
                ports: self.fabric.ports(),
            });
        }
        if !self.ids.insert(coflow.id()) {
            return Err(SubmitError::DuplicateId(coflow.id()));
        }
        if coflow.arrival() < self.now {
            self.ids.remove(&coflow.id());
            return Err(SubmitError::ArrivalInPast {
                arrival: coflow.arrival(),
                now: self.now,
            });
        }
        self.pending.insert((coflow.arrival(), coflow.id()), coflow);
        Ok(())
    }

    fn next_event_time(&self) -> Option<Time> {
        let arrival = self.pending.keys().next().map(|&(a, _)| a);
        let inner = self
            .steppers
            .iter()
            .filter_map(OnlineStepper::next_event_time)
            .min();
        [arrival, inner].into_iter().flatten().min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        loop {
            let arrival = self.pending.keys().next().map(|&(a, _)| a);
            let inner = self
                .steppers
                .iter()
                .filter_map(OnlineStepper::next_event_time)
                .min();
            let Some(t) = [arrival, inner].into_iter().flatten().min() else {
                break;
            };
            if t > deadline {
                break;
            }
            // Admit first so a stepper sees arrivals due at `t` before
            // it plans at `t` — identical to batch submission, where the
            // arrival already sits in its queue.
            processed += self.admit_due(t);
            for s in &mut self.steppers {
                if s.next_event_time().is_some_and(|e| e <= t) {
                    processed += s.run_until_with(t, self.policy.as_ref(), hook);
                }
            }
            self.absorb_completions();
            self.now = self.now.max(t);
        }
        if deadline != Time::MAX {
            // Nothing happens strictly between events; float every core
            // to the deadline so later submissions cannot rewrite the
            // span (the steppers float their own clocks the same way).
            for s in &mut self.steppers {
                s.run_until_with(deadline, self.policy.as_ref(), hook);
            }
            self.absorb_completions();
            self.now = self.now.max(deadline);
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.merge.is_empty()
    }

    fn active_coflows(&self) -> usize {
        self.merge.len()
    }

    fn queued_arrivals(&self) -> usize {
        self.pending.len()
            + self
                .steppers
                .iter()
                .map(OnlineStepper::queued_arrivals)
                .sum::<usize>()
    }

    fn outstanding_demand(&self) -> Dur {
        self.steppers
            .iter()
            .map(OnlineStepper::outstanding_demand)
            .sum()
    }

    fn deferred_flows(&self) -> usize {
        self.steppers
            .iter()
            .map(OnlineStepper::deferred_flows)
            .sum()
    }

    fn guard_windows(&self) -> u64 {
        self.steppers.iter().map(OnlineStepper::guard_windows).sum()
    }

    fn stats(&self) -> Option<ReplayStats> {
        let mut total = ReplayStats::default();
        for s in &self.steppers {
            total.absorb(&s.stats());
        }
        Some(total)
    }

    fn compact_history(&mut self) -> usize {
        self.steppers
            .iter_mut()
            .map(OnlineStepper::compact_history)
            .sum()
    }

    fn cores(&self) -> usize {
        self.steppers.len()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        let s = self.steppers.get(core)?;
        Some(CoreStatus {
            active_coflows: s.active_coflows(),
            outstanding_demand: s.outstanding_demand(),
            demand_admitted: self.admitted[core],
            reservations_made: s.stats().reservations_made,
        })
    }
}

// ---------------------------------------------------------------------
// KCoreBackend
// ---------------------------------------------------------------------

/// Per-Coflow state of the [`KCoreBackend`] replay.
struct ActiveKc {
    arrival: Time,
    flows: Vec<Flow>,
    /// Fixed at admission: the core carrying each flow.
    core_of: Vec<usize>,
    remaining: Vec<Dur>,
    finish: Vec<Option<Time>>,
    unfinished: usize,
    first_service: Option<Time>,
    setups: u64,
}

/// One planned circuit awaiting settlement.
struct SettleItem {
    /// The reservation with **global** (core-mapped) ports.
    resv: Reservation,
    /// Transmit time the circuit was planned to deliver.
    planned: Dur,
}

/// The O(K)-approximation multi-core scheduler as a
/// [`SchedulingBackend`].
///
/// The algorithm, following the structure of the Wang et al. K-core
/// analyses: Coflows are admitted in shortest-effective-bottleneck
/// order (the K-core effective length — the single-switch bottleneck
/// divided by `K` — ranks identically to `T_pL`); each Coflow's flows
/// are placed across cores by the configured placement policy
/// (bottleneck-balancing [`CoreAssignKind::RankPack`] by default, the
/// rule the approximation bound analyses) and planned **once**,
/// non-preemptively, against the `K`-shard [`CorePlan`]. Existing
/// reservations are never truncated — later Coflows schedule around
/// them, which is what makes the sequential charging argument of the
/// O(K) bound go through. A settlement shorted by the fault hook
/// re-plans only the shortfall, after the verdict's backoff.
pub struct KCoreBackend {
    fabric: Fabric,
    plan: CorePlan,
    config: SunflowConfig,
    assign: Box<dyn CoreAssign + Send>,
    load: CoreLoad,
    now: Time,
    pending: BTreeMap<(Time, u64), Coflow>,
    ids: HashSet<u64>,
    active: HashMap<u64, ActiveKc>,
    /// Planned circuits keyed by (settle instant, sequence).
    settle: BTreeMap<(Time, u64), SettleItem>,
    /// Shorted flows waiting out a fault backoff: (retry instant, seq)
    /// → (coflow, flow index).
    retries: BTreeMap<(Time, u64), (u64, usize)>,
    seq: u64,
    scratch: ScheduleScratch,
    completions: Vec<Completion>,
    stats: ReplayStats,
    resv_per_core: Vec<u64>,
    admitted: Vec<Dur>,
}

impl KCoreBackend {
    /// A `K`-core backend for `fabric` under the Sunflow planning
    /// `config` (demand order / quantum) and placement policy `assign`.
    pub fn new(
        fabric: &KCoreFabric,
        config: SunflowConfig,
        assign: CoreAssignKind,
    ) -> KCoreBackend {
        let core = fabric.core();
        KCoreBackend {
            fabric: core,
            plan: CorePlan::new(fabric.cores(), core.ports()),
            config,
            assign: assign.build(),
            load: CoreLoad::new(fabric.cores(), core.ports()),
            now: Time::ZERO,
            pending: BTreeMap::new(),
            ids: HashSet::new(),
            active: HashMap::new(),
            settle: BTreeMap::new(),
            retries: BTreeMap::new(),
            seq: 0,
            scratch: ScheduleScratch::new(),
            completions: Vec::new(),
            stats: ReplayStats::default(),
            resv_per_core: vec![0; fabric.cores()],
            admitted: vec![Dur::ZERO; fabric.cores()],
        }
    }

    /// The shared K-shard plan (read-only), e.g. for skew inspection.
    pub fn plan(&self) -> &CorePlan {
        &self.plan
    }

    /// Plan `demands` (already on global ports) for `id` at `start`,
    /// queueing one settle entry per reservation made.
    fn plan_demands(&mut self, id: u64, demands: &[Demand], start: Time) {
        let t0 = std::time::Instant::now();
        let (resvs, counters) = schedule_demands_on(
            &mut self.plan,
            id,
            demands,
            start,
            self.fabric.delta(),
            self.config,
            &mut self.scratch,
        );
        self.stats.releases_visited += counters.releases_visited;
        self.stats.demands_scanned += counters.demands_scanned;
        self.stats.reservations_made += resvs.len() as u64;
        let delta = self.fabric.delta();
        let act = self.active.get_mut(&id).expect("planning an active coflow");
        act.setups += resvs.len() as u64;
        for r in resvs {
            let (core, _) = self.plan.split(r.src);
            self.resv_per_core[core] += 1;
            self.seq += 1;
            self.settle.insert(
                (r.end, self.seq),
                SettleItem {
                    planned: r.end.since(r.start).saturating_sub(delta),
                    resv: r,
                },
            );
        }
        self.stats.reschedule_micros += t0.elapsed().as_micros() as u64;
    }

    /// Admit every pending Coflow due at or before `t`, shortest
    /// effective bottleneck first.
    fn admit_due(&mut self, t: Time) -> u64 {
        let mut due: Vec<Coflow> = Vec::new();
        while let Some(&(arrival, id)) = self.pending.keys().next() {
            if arrival > t {
                break;
            }
            due.push(self.pending.remove(&(arrival, id)).expect("peeked"));
        }
        if due.is_empty() {
            return 0;
        }
        // The O(K) list order: effective length ascending. Dividing the
        // bottleneck by K rescales every Coflow identically, so T_pL
        // ranks the same; ties break by arrival then id.
        let fabric = self.fabric;
        due.sort_by(|a, b| {
            packet_lower_bound(a, &fabric)
                .cmp(&packet_lower_bound(b, &fabric))
                .then_with(|| a.arrival().cmp(&b.arrival()))
                .then_with(|| a.id().cmp(&b.id()))
        });
        let n = due.len() as u64;
        for c in due {
            self.stats.events += 1;
            let cores = self.plan.cores();
            let assignment = self.assign.assign(&c, cores, &self.load);
            let mut demands = Vec::new();
            let mut act = ActiveKc {
                arrival: c.arrival(),
                flows: c.flows().to_vec(),
                core_of: assignment.clone(),
                remaining: Vec::with_capacity(c.num_flows()),
                finish: vec![None; c.num_flows()],
                unfinished: 0,
                first_service: None,
                setups: 0,
            };
            for (fi, (f, &core)) in c.flows().iter().zip(&assignment).enumerate() {
                let p = self.fabric.processing_time(f.bytes);
                act.remaining.push(p);
                if p.is_zero() {
                    // A zero-byte flow needs no circuit: done on arrival.
                    act.finish[fi] = Some(self.now.max(c.arrival()));
                } else {
                    self.load.add(core, f.src, f.dst, f.bytes);
                    self.admitted[core] += p;
                    act.unfinished += 1;
                    demands.push(Demand {
                        flow_idx: fi,
                        src: self.plan.global(core, f.src),
                        dst: self.plan.global(core, f.dst),
                        remaining: p,
                    });
                }
            }
            let id = c.id();
            let all_done = act.unfinished == 0;
            self.active.insert(id, act);
            if all_done {
                self.complete(id);
            } else {
                self.plan_demands(id, &demands, t);
            }
        }
        n
    }

    fn complete(&mut self, id: u64) {
        let act = self
            .active
            .remove(&id)
            .expect("completing an active coflow");
        let flow_finish: Vec<Time> = act
            .finish
            .iter()
            .map(|f| f.expect("all flows drained"))
            .collect();
        let finish = flow_finish.iter().copied().max().unwrap_or(act.arrival);
        self.completions.push(Completion {
            outcome: ScheduleOutcome {
                coflow: id,
                start: act.arrival,
                finish,
                flow_finish,
                circuit_setups: act.setups,
            },
            first_service: act.first_service,
        });
    }

    /// Settle every circuit ending at or before `t` and re-plan expired
    /// fault backoffs; returns events processed.
    fn settle_due(&mut self, t: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut n = 0u64;
        loop {
            let next_settle = self.settle.keys().next().copied();
            let next_retry = self.retries.keys().next().copied();
            // Interleave settles and retries in time order (sequence
            // numbers order same-instant events by creation).
            let take_settle = match (next_settle, next_retry) {
                (Some(s), Some(r)) => {
                    if s <= r {
                        true
                    } else if r.0 > t {
                        break;
                    } else {
                        false
                    }
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_settle {
                let (key, item) = self.settle.pop_first().expect("peeked");
                if key.0 > t {
                    self.settle.insert(key, item);
                    break;
                }
                n += 1;
                self.stats.events += 1;
                self.settle_one(key.0, item, hook);
            } else {
                let (key, (id, fi)) = self.retries.pop_first().expect("peeked");
                if key.0 > t {
                    self.retries.insert(key, (id, fi));
                    break;
                }
                n += 1;
                self.stats.events += 1;
                self.replan_flow(id, fi, key.0);
            }
        }
        n
    }

    /// Settle one circuit: consult the hook, credit service, finish the
    /// flow or queue the shortfall for re-planning.
    fn settle_one(&mut self, at: Time, item: SettleItem, hook: &mut dyn SettleHook) {
        let id = item.resv.flow.coflow;
        let fi = item.resv.flow.flow_idx;
        let Some(act) = self.active.get_mut(&id) else {
            return; // over-planned leftovers of an already-done coflow
        };
        if act.finish[fi].is_some() {
            return;
        }
        let remaining = act.remaining[fi];
        let available = item.planned.min(remaining);
        if available.is_zero() {
            return;
        }
        // The hook sees the physical (per-core local) ports.
        let (_, src) = self.plan.split(item.resv.src);
        let (_, dst) = self.plan.split(item.resv.dst);
        let local = Reservation {
            src,
            dst,
            start: item.resv.start,
            end: item.resv.end,
            flow: FlowRef {
                coflow: id,
                flow_idx: fi,
            },
        };
        let verdict = hook.on_settle(&local, available, at);
        let credited = verdict.served.min(available);
        let delta = self.fabric.delta();
        if !credited.is_zero() && act.first_service.is_none() {
            act.first_service = Some(item.resv.start + delta);
        }
        act.remaining[fi] = remaining - credited;
        if act.remaining[fi].is_zero() {
            act.finish[fi] = Some(item.resv.start + delta + credited);
            let core = act.core_of[fi];
            let f = act.flows[fi];
            self.load.remove(core, f.src, f.dst, f.bytes);
            act.unfinished -= 1;
            if act.unfinished == 0 {
                self.complete(id);
            }
        } else if credited < available {
            // Shorted: re-plan the shortfall after the backoff. Later
            // already-planned chunks of this flow still settle and
            // credit normally; the retry covers only what is left when
            // it fires.
            let backoff = verdict.retry_after.unwrap_or(Dur::ZERO);
            self.seq += 1;
            self.retries.insert((at + backoff, self.seq), (id, fi));
        }
    }

    /// Re-plan one flow's remaining demand at `t` (fault recovery).
    fn replan_flow(&mut self, id: u64, fi: usize, t: Time) {
        let Some(act) = self.active.get(&id) else {
            return;
        };
        if act.finish[fi].is_some() || act.remaining[fi].is_zero() {
            return;
        }
        // Skip if a future planned circuit still covers this flow — the
        // shortfall retry raced a truncation-split sibling reservation.
        let covered = self
            .settle
            .values()
            .any(|s| s.resv.flow.coflow == id && s.resv.flow.flow_idx == fi && s.resv.end > t);
        if covered {
            return;
        }
        let core = act.core_of[fi];
        let f = act.flows[fi];
        let demand = Demand {
            flow_idx: fi,
            src: self.plan.global(core, f.src),
            dst: self.plan.global(core, f.dst),
            remaining: act.remaining[fi],
        };
        self.plan_demands(id, &[demand], t);
    }
}

impl SchedulingBackend for KCoreBackend {
    fn name(&self) -> &'static str {
        "KCore"
    }

    fn switch_model(&self) -> &'static str {
        "not-all-stop"
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        if !self.fabric.fits(&coflow) {
            return Err(SubmitError::ExceedsFabric {
                id: coflow.id(),
                ports: self.fabric.ports(),
            });
        }
        if !self.ids.insert(coflow.id()) {
            return Err(SubmitError::DuplicateId(coflow.id()));
        }
        if coflow.arrival() < self.now {
            self.ids.remove(&coflow.id());
            return Err(SubmitError::ArrivalInPast {
                arrival: coflow.arrival(),
                now: self.now,
            });
        }
        self.pending.insert((coflow.arrival(), coflow.id()), coflow);
        Ok(())
    }

    fn next_event_time(&self) -> Option<Time> {
        let arrival = self.pending.keys().next().map(|&(a, _)| a);
        let settle = self.settle.keys().next().map(|&(t, _)| t);
        let retry = self.retries.keys().next().map(|&(t, _)| t);
        [arrival, settle, retry].into_iter().flatten().min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            // Settles first: circuits releasing at `t` free their ports
            // before anything arriving at `t` plans against the table.
            processed += self.settle_due(t, hook);
            processed += self.admit_due(t);
            self.now = self.now.max(t);
        }
        if deadline != Time::MAX {
            self.now = self.now.max(deadline);
        }
        processed
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    fn active_coflows(&self) -> usize {
        self.active.len()
    }

    fn queued_arrivals(&self) -> usize {
        self.pending.len()
    }

    fn outstanding_demand(&self) -> Dur {
        self.active
            .values()
            .flat_map(|a| a.remaining.iter().copied())
            .sum()
    }

    fn deferred_flows(&self) -> usize {
        self.retries.len()
    }

    fn stats(&self) -> Option<ReplayStats> {
        Some(self.stats)
    }

    fn compact_history(&mut self) -> usize {
        self.plan.forget_before(self.now)
    }

    fn cores(&self) -> usize {
        self.plan.cores()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        if core >= self.plan.cores() {
            return None;
        }
        let outstanding = self
            .active
            .values()
            .flat_map(|a| {
                a.core_of
                    .iter()
                    .zip(&a.remaining)
                    .filter(move |&(&c, _)| c == core)
                    .map(|(_, &r)| r)
            })
            .sum();
        Some(CoreStatus {
            active_coflows: self
                .active
                .values()
                .filter(|a| {
                    a.core_of
                        .iter()
                        .zip(&a.finish)
                        .any(|(&c, f)| c == core && f.is_none())
                })
                .count(),
            outstanding_demand: outstanding,
            demand_admitted: self.admitted[core],
            reservations_made: self.resv_per_core[core],
        })
    }
}
