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
//!   planned in one [`schedule_demands_on`] call against one [`Prt`]
//!   over all `K·N` ports. Reservations are never truncated
//!   once made (strict non-preemption, the property the approximation
//!   bound needs); a shorted settlement re-plans only the shortfall.
//!
//! [`SunflowBackend`]: crate::backend::SunflowBackend

use crate::arrivals::ArrivalQueue;
use crate::backend::{BackendStatus, CoreStatus, SchedulingBackend};
use crate::book::{FlowBook, Settled};
use crate::compositor::{partition, Compositor, Part, Plane, Router};
use crate::online::{OnlineConfig, ReplayStats};
use crate::stepper::{Completion, OnlineStepper, SettleHook, SubmitError};
use ocs_model::{
    packet_lower_bound, Coflow, Dur, Fabric, Flow, FlowRef, KCoreFabric, Reservation, Time,
};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use sunflow_core::{
    schedule_demands_on, CoreAssign, CoreLoad, Demand, PriorityPolicy, Prt, RankPack,
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
    fn route(&mut self, coflow: &Coflow, planes: &[Plane<'_>]) -> Vec<Part> {
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
        let policy: Rc<dyn PriorityPolicy + 'p> = Rc::from(policy);
        let planes = (0..fabric.cores())
            .map(|_| Plane::Circuit(OnlineStepper::sharing(&core, config, Rc::clone(&policy))))
            .collect();
        let router = CoreRouter {
            assign,
            load: CoreLoad::new(fabric.cores(), core.ports()),
            placed: HashMap::new(),
        };
        Compositor::over(core, planes, router)
    }
}

// ---------------------------------------------------------------------
// KCoreBackend
// ---------------------------------------------------------------------

/// Where an active Coflow of the [`KCoreBackend`] replay lives: its
/// book slot, and each flow with the core it was placed on at
/// admission.
struct Placement {
    slot: usize,
    flows: Vec<(usize, Flow)>,
}

/// The O(K)-approximation multi-core scheduler as a
/// [`SchedulingBackend`].
///
/// The algorithm, following the structure of the Wang et al. K-core
/// analyses: Coflows are admitted in shortest-effective-bottleneck
/// order (the K-core effective length — the single-switch bottleneck
/// divided by `K` — ranks identically to `T_pL`); each Coflow's flows
/// are placed across cores by bottleneck-balancing [`RankPack`] (the
/// rule the approximation bound analyses) and planned **once**, by
/// Algorithm 1 under its default [`SunflowConfig`],
/// non-preemptively, against one [`Prt`] over the `K·N` ports of all
/// cores (local port `p` of core `c` is port `c·N + p`). Existing
/// reservations are never truncated — later Coflows schedule around
/// them, which is what makes the sequential charging argument of the
/// O(K) bound go through. A settlement shorted by the fault hook
/// re-plans only the shortfall, after the verdict's backoff.
pub struct KCoreBackend {
    /// One core's fabric: `N` ports, bandwidth and `δ`.
    fabric: Fabric,
    /// The table of every core: core `c`'s ports are `c·N..(c+1)·N`.
    prt: Prt,
    load: CoreLoad,
    now: Time,
    arrivals: ArrivalQueue,
    active: HashMap<u64, Placement>,
    /// The active Coflows' accounts, in admission slots.
    book: FlowBook,
    /// Planned circuits, on **global** (core-mapped) ports, keyed by
    /// (settle instant, sequence).
    settle: BTreeMap<(Time, u64), Reservation>,
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
    /// A `K`-core backend for `fabric`.
    pub fn new(fabric: &KCoreFabric) -> KCoreBackend {
        let core = fabric.core();
        KCoreBackend {
            fabric: core,
            prt: Prt::new(fabric.cores() * core.ports()),
            load: CoreLoad::new(fabric.cores(), core.ports()),
            now: Time::ZERO,
            arrivals: ArrivalQueue::default(),
            active: HashMap::new(),
            book: FlowBook::default(),
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

    /// The demand of flow `fi` (`src → dst`) placed on `core`, on that
    /// core's ports of the shared table.
    fn demand_on(&self, core: usize, fi: usize, src: usize, dst: usize, remaining: Dur) -> Demand {
        let n = self.fabric.ports();
        Demand {
            flow_idx: fi,
            src: core * n + src,
            dst: core * n + dst,
            remaining,
        }
    }

    /// Plan `demands` (already on global ports) for `id` at `start`,
    /// queueing one settle entry per reservation made.
    fn plan_demands(&mut self, id: u64, demands: &[Demand], start: Time) {
        let n = self.fabric.ports();
        debug_assert!(
            demands.iter().all(|d| d.src / n == d.dst / n),
            "a circuit cannot span cores"
        );
        let t0 = std::time::Instant::now();
        let (resvs, counters) = schedule_demands_on(
            &mut self.prt,
            id,
            demands,
            start,
            self.fabric.delta(),
            SunflowConfig::default(),
            &mut self.scratch,
        );
        self.stats.releases_visited += counters.releases_visited;
        self.stats.demands_scanned += counters.demands_scanned;
        self.stats.reservations_made += resvs.len() as u64;
        for r in resvs {
            self.resv_per_core[r.src / n] += 1;
            self.seq += 1;
            self.settle.insert((r.end, self.seq), r);
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
            let assignment = RankPack.assign(&c, self.load.cores(), &self.load);
            let slot = self.book.next_slot();
            self.book.admit(slot, &c, &self.fabric);
            let mut demands = Vec::with_capacity(c.num_flows());
            for (fi, (f, &core)) in c.flows().iter().zip(&assignment).enumerate() {
                let p = self.fabric.processing_time(f.bytes);
                self.load.add(core, f.src, f.dst, f.bytes);
                self.admitted[core] += p;
                demands.push(self.demand_on(core, fi, f.src, f.dst, p));
            }
            let flows = assignment
                .into_iter()
                .zip(c.flows().iter().copied())
                .collect();
            self.active.insert(c.id(), Placement { slot, flows });
            self.plan_demands(c.id(), &demands, t);
        }
        n
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
                let (key, resv) = self.settle.pop_first().expect("peeked");
                if key.0 > t {
                    self.settle.insert(key, resv);
                    break;
                }
                n += 1;
                self.stats.events += 1;
                let FlowRef { coflow, flow_idx } = resv.flow;
                let slot = self.active[&coflow].slot;
                // The hook sees the physical (per-core local) ports.
                let ports = self.fabric.ports();
                let local = Reservation {
                    src: resv.src % ports,
                    dst: resv.dst % ports,
                    ..resv
                };
                match self
                    .book
                    .settle(slot, &local, self.fabric.delta(), key.0, hook)
                {
                    Settled::Served => {}
                    Settled::Finished => {
                        let (core, f) = self.active[&coflow].flows[flow_idx];
                        self.load.remove(core, f.src, f.dst, f.bytes);
                        if self.book.is_done(slot) {
                            self.active.remove(&coflow);
                            self.completions.push(self.book.complete(slot));
                        }
                    }
                    Settled::Short(at) => {
                        // Re-plan the shortfall after the backoff. Later
                        // already-planned chunks of this flow still settle
                        // and credit normally; the retry covers only what
                        // is left when it fires.
                        self.seq += 1;
                        self.retries.insert((at, self.seq), (coflow, flow_idx));
                    }
                }
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

    /// Re-plan one flow's remaining demand at `t` (fault recovery).
    fn replan_flow(&mut self, id: u64, fi: usize, t: Time) {
        let Some(placed) = self.active.get(&id) else {
            return;
        };
        let remaining = self.book.remaining(placed.slot)[fi];
        if remaining.is_zero() {
            return;
        }
        // A future planned circuit still covers this flow — the shortfall
        // retry raced a truncation-split sibling reservation. Retry again
        // once the last such circuit has settled: it may leave less than
        // the shortfall, but never more.
        let flow = FlowRef {
            coflow: id,
            flow_idx: fi,
        };
        let covered = self
            .settle
            .values()
            .filter(|r| r.flow == flow && r.end > t)
            .map(|r| r.end)
            .max();
        if let Some(end) = covered {
            self.seq += 1;
            self.retries.insert((end, self.seq), (id, fi));
            return;
        }
        let (core, f) = placed.flows[fi];
        let demand = self.demand_on(core, fi, f.src, f.dst, remaining);
        self.plan_demands(id, &[demand], t);
    }
}

impl SchedulingBackend for KCoreBackend {
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

    fn status(&self) -> BackendStatus {
        BackendStatus {
            now: self.now,
            idle: self.arrivals.is_empty() && self.active.is_empty(),
            active_coflows: self.active.len(),
            queued_arrivals: self.arrivals.len(),
            outstanding_demand: self.book.outstanding(),
            deferred_flows: self.retries.len(),
            stats: Some(self.stats),
            ..BackendStatus::default()
        }
    }

    fn compact_history(&mut self) -> usize {
        self.prt.forget_before(self.now)
    }

    fn cores(&self) -> usize {
        self.load.cores()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        if core >= self.load.cores() {
            return None;
        }
        // Each active Coflow's unserved time on this core.
        let on_core: Vec<Dur> = self
            .active
            .values()
            .map(|p| {
                p.flows
                    .iter()
                    .zip(self.book.remaining(p.slot))
                    .filter(|&(&(c, _), _)| c == core)
                    .map(|(_, &r)| r)
                    .sum()
            })
            .collect();
        Some(CoreStatus {
            active_coflows: on_core.iter().filter(|r| !r.is_zero()).count(),
            outstanding_demand: on_core.iter().copied().sum(),
            demand_admitted: self.admitted[core],
            reservations_made: self.resv_per_core[core],
        })
    }
}
