//! The fan-out compositor: one admit / advance / merge machine behind
//! `sunflow:<K>`, `portgroups:<G>` and `hybrid:<split>`.
//!
//! The paper's §6 hybrid deployment and the K-core fabrics of the
//! multi-core OCS papers are the same construction: hold an arriving
//! Coflow until its instant, route its flows (whole or carved) to `N`
//! independent [`Plane`]s, advance the planes on one clock, and finish
//! the Coflow when its last part does. [`Compositor`] is that machine,
//! written once; a [`Router`] owns only what differs between the three
//! fabrics — the submit-time check, the admission-time routing decision
//! and its live-state inputs, and the bookkeeping at completion.
//!
//! Rules the machine encodes from what it can observe:
//!
//! * Coflows are admitted in `(arrival, id)` order, before any plane
//!   due at the same instant is advanced — identical to batch
//!   submission, where the arrival already sits in the plane's queue.
//! * A plane is advanced only at its own due instants (the engine's
//!   rule), so it observes exactly the `advance_to` sequence it would
//!   produce running alone; planes are drained in index order.
//! * Due planes advance on scoped worker threads when there are at
//!   least two of them, the thread budget allows, the hook is inert
//!   ([`SettleHook::is_inert`]) and every plane has its own policy copy
//!   ([`PriorityPolicy::clone_box`]); otherwise in index order against
//!   the shared policy and hook. Planes share nothing, so both orders
//!   replay byte-identically.
//! * Circuit planes float to a finite deadline; the packet plane does
//!   not — its fluids drain at rates that only change at its own
//!   events, and cutting a span into more `progress` steps would
//!   perturb the floating-point remainders.
//! * A compositor of circuit planes only is a multi-core fabric and
//!   reports [`SchedulingBackend::cores`] / `core_status`; one with a
//!   packet plane is the hybrid fabric and does not.

use crate::arrivals::ArrivalQueue;
use crate::backend::{CoreStatus, PacketBackend, SchedulingBackend};
use crate::online::ReplayStats;
use crate::stepper::{Completion, FullService, OnlineStepper, SettleHook, SubmitError};
use ocs_model::{Coflow, CoflowBuilder, Dur, Fabric, Flow, ScheduleOutcome, Time};
use std::collections::HashMap;
use sunflow_core::PriorityPolicy;

/// One independent scheduling plane under the compositor's clock.
// All but at most one plane are the large variant: boxing it saves nothing.
#[allow(clippy::large_enum_variant)]
pub enum Plane {
    /// A Sunflow-scheduled circuit switch: one stepper over one PRT,
    /// driven under the compositor's policy.
    Circuit(OnlineStepper),
    /// The fair-shared packet network of the hybrid fabric.
    Packet(PacketBackend<'static>),
}

impl Plane {
    fn next_event_time(&self) -> Option<Time> {
        match self {
            Plane::Circuit(s) => s.next_event_time(),
            Plane::Packet(b) => b.next_event_time(),
        }
    }

    /// The plane's replay counters.
    pub fn stats(&self) -> ReplayStats {
        match self {
            Plane::Circuit(s) => s.stats(),
            Plane::Packet(b) => b.stats().unwrap_or_default(),
        }
    }

    fn stepper(&self) -> Option<&OnlineStepper> {
        match self {
            Plane::Circuit(s) => Some(s),
            Plane::Packet(_) => None,
        }
    }

    fn stepper_mut(&mut self) -> Option<&mut OnlineStepper> {
        match self {
            Plane::Circuit(s) => Some(s),
            Plane::Packet(_) => None,
        }
    }
}

/// One routed piece of an arriving Coflow.
pub struct Part {
    /// The plane it runs on.
    pub plane: usize,
    /// The piece itself: same id and arrival as the original, ports in
    /// the plane's own numbering.
    pub coflow: Coflow,
    /// Per flow of `coflow`, the index of the original flow it carries
    /// (all or some bytes of).
    pub back: Vec<u32>,
}

/// What differs between the fan-out fabrics.
pub trait Router {
    /// The submit-time check beyond port range, id and clock.
    fn check(&self, _coflow: &Coflow) -> Result<(), SubmitError> {
        Ok(())
    }

    /// Route `coflow`, at its arrival instant, against the live
    /// `planes`: at most one part per plane, in plane order.
    fn route(&mut self, coflow: &Coflow, planes: &[Plane]) -> Vec<Part>;

    /// The Coflow `id` has completed on every plane.
    fn release(&mut self, _id: u64) {}

    /// Fold the router's own counters into the merged replay stats.
    fn fold_stats(&self, _total: &mut ReplayStats) {}
}

/// Carve `coflow` into one part per plane. `place` names each flow's
/// plane and its `(src, dst)` ports there; flow order within a part
/// follows the original, planes that receive nothing get no part.
pub fn partition(
    coflow: &Coflow,
    planes: usize,
    place: impl Fn(usize, &Flow) -> (usize, usize, usize),
) -> Vec<Part> {
    let mut slots: Vec<(Option<CoflowBuilder>, Vec<u32>)> = vec![(None, Vec::new()); planes];
    for (i, f) in coflow.flows().iter().enumerate() {
        let (plane, src, dst) = place(i, f);
        let (builder, back) = &mut slots[plane];
        let part = builder
            .take()
            .unwrap_or_else(|| Coflow::builder(coflow.id()).arrival(coflow.arrival()));
        *builder = Some(part.flow(src, dst, f.bytes));
        back.push(u32::try_from(i).expect("flow count fits u32"));
    }
    slots
        .into_iter()
        .enumerate()
        .filter_map(|(plane, (builder, back))| {
            Some(Part {
                plane,
                coflow: builder?.build(),
                back,
            })
        })
        .collect()
}

/// Per-Coflow reassembly state while its parts run on their planes.
struct MergeState {
    /// Parts still running: `(plane, back-map)`.
    parts: Vec<(usize, Vec<u32>)>,
    /// The completion to emit, accumulated part by part.
    merged: Completion,
}

/// `N` independent planes behind one clock and one submission surface,
/// with a [`Router`] splitting every arriving Coflow across them.
pub struct Compositor<'p, R> {
    /// The full fabric: submission validation and the admitted gauge.
    fabric: Fabric,
    pub(crate) planes: Vec<Plane>,
    /// The shared policy, used on every sequential path.
    policy: Box<dyn PriorityPolicy + 'p>,
    /// Thread-safe policy copies for parallel advancement, one per
    /// plane; empty keeps every plane on the sequential path.
    own: Vec<Box<dyn PriorityPolicy + Send + Sync>>,
    /// Worker budget for parallel plane advancement.
    advance_threads: usize,
    router: R,
    now: Time,
    arrivals: ArrivalQueue,
    merge: HashMap<u64, MergeState>,
    completions: Vec<Completion>,
    /// Per-plane processing time admitted so far (telemetry gauge).
    admitted: Vec<Dur>,
    parallel_advances: u64,
    /// Scratch: planes due in the current round.
    due: Vec<usize>,
}

impl<'p, R: Router> Compositor<'p, R> {
    /// A compositor over `planes` on `fabric`, every plane advanced in
    /// turn under `policy`.
    pub(crate) fn over(
        fabric: Fabric,
        planes: Vec<Plane>,
        policy: Box<dyn PriorityPolicy + 'p>,
        router: R,
    ) -> Compositor<'p, R> {
        Compositor {
            fabric,
            admitted: vec![Dur::ZERO; planes.len()],
            planes,
            policy,
            own: Vec::new(),
            advance_threads: 1,
            router,
            now: Time::ZERO,
            arrivals: ArrivalQueue::default(),
            merge: HashMap::new(),
            completions: Vec::new(),
            parallel_advances: 0,
            due: Vec::new(),
        }
    }

    /// Let up to `threads` due planes advance at once, each under its
    /// own copy of the policy — if every plane is a circuit plane and
    /// the policy can be copied ([`PriorityPolicy::clone_box`]);
    /// otherwise nothing changes.
    pub(crate) fn advancing_in_parallel(mut self, threads: usize) -> Compositor<'p, R> {
        let copy = |p: &Plane| p.stepper().and(self.policy.clone_box());
        self.own = self.planes.iter().map_while(copy).collect();
        self.advance_threads = threads;
        self
    }

    fn steppers(&self) -> impl Iterator<Item = &OnlineStepper> {
        self.planes.iter().filter_map(Plane::stepper)
    }

    /// True for the hybrid fabric: a packet plane beside the circuits.
    fn has_packet_plane(&self) -> bool {
        self.planes.iter().any(|p| matches!(p, Plane::Packet(_)))
    }

    /// Route and admit every queued Coflow due at or before `t`.
    fn admit_due(&mut self, t: Time) -> u64 {
        let mut n = 0u64;
        while let Some(c) = self.arrivals.pop_due(t) {
            let mut st = MergeState {
                parts: Vec::new(),
                merged: Completion {
                    outcome: ScheduleOutcome {
                        coflow: c.id(),
                        start: c.arrival(),
                        finish: c.arrival(),
                        flow_finish: vec![Time::ZERO; c.num_flows()],
                        circuit_setups: 0,
                    },
                    first_service: None,
                },
            };
            for part in self.router.route(&c, &self.planes) {
                let flows = part.coflow.flows().iter();
                let demand = flows.map(|f| self.fabric.processing_time(f.bytes));
                self.admitted[part.plane] += demand.sum::<Dur>();
                let accepted = match &mut self.planes[part.plane] {
                    Plane::Circuit(s) => s.submit(part.coflow),
                    Plane::Packet(b) => b.submit(part.coflow),
                };
                accepted.expect("part was validated at submission");
                st.parts.push((part.plane, part.back));
                n += 1;
            }
            self.merge.insert(c.id(), st);
        }
        n
    }

    /// Advance every plane with an event due at or before `t`.
    fn advance_planes(&mut self, t: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.extend(
            (0..self.planes.len())
                .filter(|&i| self.planes[i].next_event_time().is_some_and(|e| e <= t)),
        );
        let parallel = due.len() >= 2
            && self.advance_threads >= 2
            && hook.is_inert()
            && self.own.len() == self.planes.len();
        let processed = if parallel {
            self.parallel_advances += 1;
            let mut owned: Vec<_> = self
                .planes
                .iter_mut()
                .zip(&self.own)
                .enumerate()
                .filter(|(i, _)| due.contains(i))
                .filter_map(|(_, (p, own))| Some((p.stepper_mut()?, own.as_ref())))
                .collect();
            let per = owned.len().div_ceil(self.advance_threads.min(owned.len()));
            std::thread::scope(|scope| {
                let handles: Vec<_> = owned
                    .chunks_mut(per)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|(s, own)| s.run_until_with(t, *own, &mut FullService))
                                .sum::<u64>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("plane advance worker panicked"))
                    .sum()
            })
        } else {
            let policy = self.policy.as_ref();
            due.iter()
                .map(|&i| match &mut self.planes[i] {
                    Plane::Circuit(s) => s.run_until_with(t, policy, hook),
                    Plane::Packet(b) => b.advance_to(t, hook),
                })
                .sum()
        };
        self.due = due;
        processed
    }

    /// Drain per-plane completions into the per-Coflow merge states,
    /// emitting one merged [`Completion`] once the last part lands. A
    /// flow carved across planes finishes when its last piece does.
    fn absorb_completions(&mut self) {
        for plane in 0..self.planes.len() {
            let drained = match &mut self.planes[plane] {
                Plane::Circuit(s) => s.drain_completions(),
                Plane::Packet(b) => b.drain_completions(),
            };
            for part in drained {
                let id = part.outcome.coflow;
                let st = self
                    .merge
                    .get_mut(&id)
                    .expect("completion for an unknown part");
                let at = st.parts.iter().position(|part| part.0 == plane);
                let (_, back) = st.parts.swap_remove(at.expect("one part per plane"));
                let out = &mut st.merged.outcome;
                for (&orig, &finish) in back.iter().zip(&part.outcome.flow_finish) {
                    let slot = &mut out.flow_finish[orig as usize];
                    *slot = (*slot).max(finish);
                }
                out.finish = out.finish.max(part.outcome.finish);
                out.circuit_setups += part.outcome.circuit_setups;
                let first = [st.merged.first_service, part.first_service];
                st.merged.first_service = first.into_iter().flatten().min();
                if st.parts.is_empty() {
                    let st = self.merge.remove(&id).expect("present");
                    self.router.release(id);
                    self.completions.push(st.merged);
                }
            }
        }
    }
}

impl<R: Router> SchedulingBackend for Compositor<'_, R> {
    fn name(&self) -> &'static str {
        if self.has_packet_plane() {
            "Hybrid"
        } else {
            "Sunflow"
        }
    }

    fn switch_model(&self) -> &'static str {
        if self.has_packet_plane() {
            "hybrid"
        } else {
            "not-all-stop"
        }
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, coflow: Coflow) -> Result<(), SubmitError> {
        let router = &self.router;
        self.arrivals
            .submit(coflow, &self.fabric, self.now, |c| router.check(c))
    }

    fn next_event_time(&self) -> Option<Time> {
        let planes = self.planes.iter().filter_map(Plane::next_event_time);
        planes.chain(self.arrivals.next_arrival()).min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            processed += self.admit_due(t);
            processed += self.advance_planes(t, hook);
            self.absorb_completions();
            self.now = self.now.max(t);
        }
        if deadline != Time::MAX {
            // Nothing happens strictly between events; float the
            // circuit clocks to the deadline so later submissions
            // cannot rewrite the span.
            for s in self.planes.iter_mut().filter_map(Plane::stepper_mut) {
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
        self.arrivals.is_empty() && self.merge.is_empty()
    }

    fn active_coflows(&self) -> usize {
        self.merge.len()
    }

    fn queued_arrivals(&self) -> usize {
        // A part reaches its plane at its arrival instant and the plane
        // is advanced past it in the same round: planes queue nothing.
        self.arrivals.len()
    }

    fn outstanding_demand(&self) -> Dur {
        let demand = |p: &Plane| match p {
            Plane::Circuit(s) => s.outstanding_demand(),
            Plane::Packet(b) => b.outstanding_demand(),
        };
        self.planes.iter().map(demand).sum()
    }

    fn deferred_flows(&self) -> usize {
        self.steppers().map(OnlineStepper::deferred_flows).sum()
    }

    fn guard_windows(&self) -> u64 {
        self.steppers().map(OnlineStepper::guard_windows).sum()
    }

    fn stats(&self) -> Option<ReplayStats> {
        let mut total = ReplayStats::default();
        for p in &self.planes {
            total.absorb(&p.stats());
        }
        total.parallel_shard_advances += self.parallel_advances;
        self.router.fold_stats(&mut total);
        Some(total)
    }

    fn compact_history(&mut self) -> usize {
        let steppers = self.planes.iter_mut().filter_map(Plane::stepper_mut);
        steppers.map(OnlineStepper::compact_history).sum()
    }

    fn cores(&self) -> usize {
        self.steppers().count()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        if self.has_packet_plane() {
            return None;
        }
        let s = self.planes.get(core)?.stepper()?;
        Some(CoreStatus {
            active_coflows: s.active_coflows(),
            outstanding_demand: s.outstanding_demand(),
            demand_admitted: self.admitted[core],
            reservations_made: s.stats().reservations_made,
        })
    }
}
