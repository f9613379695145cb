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
//!   one virtual clock — the fan-out compositor advances each stepper
//!   only at its own event instants, exactly like the engine composes
//!   backends — and a Coflow completes when its last part does. With `K = 1`
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

use crate::arrivals::ArrivalQueue;
use crate::backend::{CoreStatus, SchedulingBackend};
use crate::compositor::{partition, Compositor, Part, Plane, Router};
use crate::online::{OnlineConfig, ReplayStats};
use crate::stepper::{Completion, OnlineStepper, SettleHook, SubmitError};
use ocs_model::{
    packet_lower_bound, Coflow, Dur, Fabric, Flow, FlowRef, KCoreFabric, Reservation,
    ScheduleOutcome, Time,
};
use std::collections::{BTreeMap, HashMap};
use sunflow_core::{
    schedule_demands_on, CoreAssign, CoreAssignKind, CoreLoad, CorePlan, Demand, PriorityPolicy,
    ScheduleScratch, SunflowConfig,
};

// ---------------------------------------------------------------------
// MultiSunflowBackend
// ---------------------------------------------------------------------

/// Sunflow generalized to a [`KCoreFabric`]: `K` independent
/// [`OnlineStepper`]s (one PRT shard each) behind the compositor's one
/// clock, with a [`CoreAssign`] policy splitting every arriving Coflow
/// across them.
///
/// Cross-core replans are port-disjoint by construction — each stepper
/// owns its shard outright and re-plans it on its own, one planning view
/// per round — so cores never coordinate.
pub type MultiSunflowBackend<'p> = Compositor<'p, CoreRouter>;

/// The K-core `Router`: whole flows placed on cores by a
/// [`CoreAssign`] policy that sees the live per-core byte loads.
pub struct CoreRouter {
    assign: Box<dyn CoreAssign + Send>,
    load: CoreLoad,
    /// Per in-flight Coflow, per flow: `(core, src, dst, bytes)` —
    /// released from the load gauge when the Coflow completes.
    placed: HashMap<u64, Vec<(usize, usize, usize, u64)>>,
}

impl Router for CoreRouter {
    fn route(&mut self, coflow: &Coflow, planes: &[Plane]) -> Vec<Part> {
        let assignment = self.assign.assign(coflow, planes.len(), &self.load);
        assert_eq!(
            assignment.len(),
            coflow.num_flows(),
            "placement must cover every flow"
        );
        let placed = coflow
            .flows()
            .iter()
            .zip(&assignment)
            .map(|(f, &core)| {
                self.load.add(core, f.src, f.dst, f.bytes);
                (core, f.src, f.dst, f.bytes)
            })
            .collect();
        self.placed.insert(coflow.id(), placed);
        partition(coflow, planes.len(), |i, f| (assignment[i], f.src, f.dst))
    }

    fn release(&mut self, id: u64) {
        for (core, src, dst, bytes) in self.placed.remove(&id).expect("routed") {
            self.load.remove(core, src, dst, bytes);
        }
    }
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
        let planes = (0..fabric.cores())
            .map(|_| Plane::Circuit(OnlineStepper::new(&core, config)))
            .collect();
        let router = CoreRouter {
            assign,
            load: CoreLoad::new(fabric.cores(), core.ports()),
            placed: HashMap::new(),
        };
        Compositor::over(core, planes, policy, router)
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
    arrivals: ArrivalQueue,
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
            arrivals: ArrivalQueue::default(),
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
        let mut due: Vec<Coflow> = std::iter::from_fn(|| self.arrivals.pop_due(t)).collect();
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
        // A future planned circuit still covers this flow — the shortfall
        // retry raced a truncation-split sibling reservation. Retry again
        // once the last such circuit has settled: it may leave less than
        // the shortfall, but never more.
        let covered = self
            .settle
            .values()
            .filter(|s| s.resv.flow.coflow == id && s.resv.flow.flow_idx == fi && s.resv.end > t)
            .map(|s| s.resv.end)
            .max();
        if let Some(end) = covered {
            self.seq += 1;
            self.retries.insert((end, self.seq), (id, fi));
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
        self.arrivals
            .submit(coflow, &self.fabric, self.now, |_| Ok(()))
    }

    fn next_event_time(&self) -> Option<Time> {
        let arrival = self.arrivals.next_arrival();
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
        self.arrivals.is_empty() && self.active.is_empty()
    }

    fn active_coflows(&self) -> usize {
        self.active.len()
    }

    fn queued_arrivals(&self) -> usize {
        self.arrivals.len()
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
