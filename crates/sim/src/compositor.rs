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
//!   produce running alone; due planes advance in index order on the
//!   calling thread, under the shared hook, and are drained in index
//!   order. (The circuit planes share one priority policy, which each
//!   holds from construction.)
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
use crate::stepper::{Completion, OnlineStepper, SettleHook, SubmitError};
use ocs_model::{Coflow, CoflowBuilder, Dur, Fabric, Flow, ScheduleOutcome, Time};
use std::collections::HashMap;

/// One independent scheduling plane under the compositor's clock.
// All but at most one plane are the large variant: boxing it saves nothing.
#[allow(clippy::large_enum_variant)]
pub enum Plane<'p> {
    /// A Sunflow-scheduled circuit switch: one stepper over one PRT.
    Circuit(OnlineStepper<'p>),
    /// The fair-shared packet network of the hybrid fabric.
    Packet(PacketBackend<'static>),
}

impl Plane<'_> {
    fn backend(&self) -> &dyn SchedulingBackend {
        match self {
            Plane::Circuit(s) => s,
            Plane::Packet(b) => b,
        }
    }

    fn backend_mut(&mut self) -> &mut dyn SchedulingBackend {
        match self {
            Plane::Circuit(s) => s,
            Plane::Packet(b) => b,
        }
    }

    /// The plane's replay counters.
    pub fn stats(&self) -> ReplayStats {
        self.backend().stats().unwrap_or_default()
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
    fn route(&mut self, coflow: &Coflow, planes: &[Plane<'_>]) -> Vec<Part>;

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
    pub(crate) planes: Vec<Plane<'p>>,
    router: R,
    now: Time,
    arrivals: ArrivalQueue,
    merge: HashMap<u64, MergeState>,
    completions: Vec<Completion>,
    /// Per-plane processing time admitted so far (telemetry gauge).
    admitted: Vec<Dur>,
}

impl<'p, R: Router> Compositor<'p, R> {
    /// A compositor over `planes` on `fabric`, every plane advanced in
    /// turn.
    pub(crate) fn over(fabric: Fabric, planes: Vec<Plane<'p>>, router: R) -> Compositor<'p, R> {
        Compositor {
            fabric,
            admitted: vec![Dur::ZERO; planes.len()],
            planes,
            router,
            now: Time::ZERO,
            arrivals: ArrivalQueue::default(),
            merge: HashMap::new(),
            completions: Vec::new(),
        }
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
                let plane = self.planes[part.plane].backend_mut();
                let accepted = plane.submit(part.coflow);
                accepted.expect("part was validated at submission");
                st.parts.push((part.plane, part.back));
                n += 1;
            }
            self.merge.insert(c.id(), st);
        }
        n
    }

    /// Advance every plane with an event due at or before `t`, in index
    /// order. Planes share nothing, so advancing one never moves
    /// another's next event.
    fn advance_planes(&mut self, t: Time, hook: &mut dyn SettleHook) -> u64 {
        self.planes
            .iter_mut()
            .map(Plane::backend_mut)
            .filter(|p| p.next_event_time().is_some_and(|e| e <= t))
            .map(|p| p.advance_to(t, hook))
            .sum()
    }

    /// Drain per-plane completions into the per-Coflow merge states,
    /// emitting one merged [`Completion`] once the last part lands. A
    /// flow carved across planes finishes when its last piece does.
    fn absorb_completions(&mut self) {
        for plane in 0..self.planes.len() {
            let drained = self.planes[plane].backend_mut().drain_completions();
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
        let planes = self.planes.iter().map(Plane::backend);
        let due = planes.filter_map(|p| p.next_event_time());
        due.chain(self.arrivals.next_arrival()).min()
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
            for p in &mut self.planes {
                if let Plane::Circuit(s) = p {
                    s.advance_to(deadline, hook);
                }
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
        let planes = self.planes.iter().map(Plane::backend);
        planes.map(|p| p.outstanding_demand()).sum()
    }

    fn deferred_flows(&self) -> usize {
        let planes = self.planes.iter().map(Plane::backend);
        planes.map(|p| p.deferred_flows()).sum()
    }

    fn guard_windows(&self) -> u64 {
        let planes = self.planes.iter().map(Plane::backend);
        planes.map(|p| p.guard_windows()).sum()
    }

    fn stats(&self) -> Option<ReplayStats> {
        let mut total = ReplayStats::default();
        for p in &self.planes {
            total.absorb(&p.stats());
        }
        self.router.fold_stats(&mut total);
        Some(total)
    }

    fn compact_history(&mut self) -> usize {
        let planes = self.planes.iter_mut().map(Plane::backend_mut);
        planes.map(|p| p.compact_history()).sum()
    }

    fn cores(&self) -> usize {
        let circuits = self.planes.iter();
        circuits.filter(|p| matches!(p, Plane::Circuit(_))).count()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        if self.has_packet_plane() {
            return None;
        }
        let plane = self.planes.get(core)?;
        let p = plane.backend();
        Some(CoreStatus {
            active_coflows: p.active_coflows(),
            outstanding_demand: p.outstanding_demand(),
            demand_admitted: self.admitted[core],
            reservations_made: plane.stats().reservations_made,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{ActiveCircuitPolicy, OnlineConfig};
    use crate::stepper::FullService;
    use crate::{BackendKind, HybridBackend, HybridConfig, MultiSunflowBackend, PortGroupBackend};
    use ocs_model::{Bandwidth, KCoreFabric};
    use sunflow_core::{GuardConfig, ShortestFirst};

    fn fabric() -> Fabric {
        Fabric::new(8, Bandwidth::GBPS, Dur::from_millis(10))
    }

    /// Forty Coflows, each inside one half of the fabric (ports 0–3 or
    /// 4–7), so `portgroups:2` accepts them too; arrivals in bursts with
    /// idle gaps between them.
    fn workload() -> Vec<Coflow> {
        (0..40u64)
            .map(|id| {
                let base = (id % 2) as usize * 4;
                let burst = id / 8;
                let mut b = Coflow::builder(id).arrival(Time::from_millis(burst * 900 + id * 7));
                for k in 0..1 + id % 3 {
                    let src = base + ((id + k) % 4) as usize;
                    let dst = base + ((id * 3 + k * 5) % 4) as usize;
                    b = b.flow(src, dst, (1 + (id + k) % 5) * 1_500_000);
                }
                b.build()
            })
            .collect()
    }

    /// Drive `c` in 37 ms slices with every Coflow submitted up front:
    /// whenever a circuit plane has no Coflow active its table must hold
    /// no circuit, and the slices must finish every Coflow.
    fn check_idle_planes<R: Router>(mut c: Compositor<'_, R>, label: &str) {
        let coflows = workload();
        for co in &coflows {
            c.submit(co.clone())
                .expect("group-local Coflows fit every fabric");
        }
        let mut t = Time::ZERO;
        let mut idle_reads = 0;
        while !c.is_idle() {
            t += Dur::from_millis(37);
            c.advance_to(t, &mut FullService);
            let steppers = c.planes.iter().filter_map(|p| match p {
                Plane::Circuit(s) => Some(s),
                Plane::Packet(_) => None,
            });
            for (i, s) in steppers.enumerate() {
                if s.active_coflows() == 0 {
                    idle_reads += 1;
                    let left = s.prt().all_reservations();
                    assert_eq!(
                        left,
                        vec![],
                        "{label}: plane {i} idle at {t} holds circuits"
                    );
                }
            }
        }
        assert!(idle_reads > 0, "{label}: no plane was ever idle mid-run");
        assert_eq!(c.drain_completions().len(), coflows.len(), "{label}");
    }

    #[test]
    fn idle_fan_out_planes_hold_empty_tables() {
        let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
        for active in [
            ActiveCircuitPolicy::Keep,
            ActiveCircuitPolicy::Yield,
            ActiveCircuitPolicy::Preempt,
        ] {
            for guard in [None, Some(guard)] {
                let online = OnlineConfig::default().active_policy(active).guard(guard);
                let label = |name| format!("{name}, {active:?}, guard {}", guard.is_some());
                let f = fabric();

                let Ok(BackendKind::MultiSunflow { cores, assign }) = "sunflow:2".parse() else {
                    unreachable!("sunflow:2 is a multi-core selector")
                };
                let k = KCoreFabric::new(f, cores as usize);
                let multi =
                    MultiSunflowBackend::new(&k, &online, Box::new(ShortestFirst), assign.build());
                check_idle_planes(multi, &label("sunflow:2"));

                let groups = PortGroupBackend::new(&f, 2, &online, Box::new(ShortestFirst));
                check_idle_planes(groups, &label("portgroups:2"));

                let Ok(BackendKind::Hybrid {
                    split,
                    packet_bw_permille,
                }) = "hybrid:threshold".parse()
                else {
                    unreachable!("hybrid:threshold is a hybrid selector")
                };
                let config = HybridConfig {
                    online,
                    packet_bandwidth_fraction: packet_bw_permille as f64 / 1000.0,
                    ..HybridConfig::default()
                };
                let split = split.build(config.small_flow_threshold);
                let hybrid = HybridBackend::new(&f, &config, Box::new(ShortestFirst), split)
                    .expect("valid fraction");
                check_idle_planes(hybrid, &label("hybrid:threshold"));
            }
        }
    }
}
