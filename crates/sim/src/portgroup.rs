//! Port-group sharded serving: Sunflow over disjoint host partitions.
//!
//! [`PortGroupBackend`] partitions the fabric's hosts into `G`
//! contiguous **port groups** and runs one independent [`OnlineStepper`]
//! per group over a sub-fabric of that group's ports. Traffic must be
//! group-local — a flow whose endpoints fall in different groups is
//! refused with the typed [`SubmitError::CrossesPortGroups`] — which is
//! exactly the regime of rack-, pod- or tenant-partitioned clusters
//! where arrivals never cross the partition boundary.
//!
//! What the partition buys is *coarse-grained* parallelism on the
//! serving path: the groups share nothing (no PRT, no priority rank
//! interleaving, no load gauge), so when several groups have events due
//! at the same instant the backend advances them on scoped worker
//! threads — one whole stepper per worker, not just the port-disjoint
//! rank segments the stepper itself parallelizes. The result is
//! byte-identical to sequential advancement because the shards are
//! independent by construction; the parallel path additionally requires
//!
//! * an inert settle hook ([`SettleHook::is_inert`]) — fault injection
//!   funnels every settlement through one `&mut` hook and stays
//!   sequential, and
//! * a cloneable priority policy ([`PriorityPolicy::clone_box`]) so
//!   each shard owns a thread-safe copy.
//!
//! Selector: `portgroups:<G>`. The selector is intentionally **not** in
//! [`BackendKind::ALL`]: every entry there must accept arbitrary
//! cross-port traffic, which a partitioned backend refuses by design.
//!
//! [`BackendKind::ALL`]: crate::BackendKind::ALL

use crate::backend::{CoreStatus, SchedulingBackend};
use crate::online::{OnlineConfig, ReplayStats};
use crate::stepper::{
    resolve_replan_threads, Completion, FullService, OnlineStepper, SettleHook, SubmitError,
};
use ocs_model::{Coflow, Dur, Fabric, ScheduleOutcome, Time};
use std::collections::{BTreeMap, HashMap, HashSet};
use sunflow_core::PriorityPolicy;

/// One port group: an independent stepper over the group's sub-fabric.
struct Shard {
    stepper: OnlineStepper,
    /// Thread-safe policy copy for parallel advancement; `None` when the
    /// configured policy does not support [`PriorityPolicy::clone_box`]
    /// (the backend then always advances sequentially).
    policy: Option<Box<dyn PriorityPolicy + Send + Sync>>,
    /// First global port of the group.
    base: usize,
}

/// Per-Coflow reassembly state while its group parts replay.
struct MergeState {
    arrival: Time,
    /// Per original flow: `(group, index within that group's part)`.
    map: Vec<(usize, usize)>,
    parts_left: usize,
    flow_finish: Vec<Time>,
    finish: Time,
    setups: u64,
    first_service: Option<Time>,
}

/// Sunflow sharded across `G` disjoint port groups — the daemon's
/// scale-out serving backend (selector `portgroups:<G>`).
///
/// With `G = 1` the single shard covers the whole fabric and the replay
/// is byte-identical to [`SunflowBackend`](crate::SunflowBackend)
/// (pinned by `one_group_matches_single_sunflow` below).
pub struct PortGroupBackend<'p> {
    fabric: Fabric,
    /// Ports per group (`ceil(ports / G)`); `group_of = port / group_ports`.
    group_ports: usize,
    shards: Vec<Shard>,
    /// The shared policy, used on every sequential path.
    policy: Box<dyn PriorityPolicy + 'p>,
    /// Worker budget for parallel shard advancement (resolved from
    /// [`OnlineConfig::replan_threads`]; 1 disables the parallel path).
    advance_threads: usize,
    now: Time,
    /// Future arrivals in (arrival, id) order, split at admission time —
    /// identical admission order to batch submission.
    pending: BTreeMap<(Time, u64), Coflow>,
    ids: HashSet<u64>,
    merge: HashMap<u64, MergeState>,
    completions: Vec<Completion>,
    /// Per-group processing time admitted so far (telemetry gauge).
    admitted: Vec<Dur>,
    parallel_advances: u64,
}

impl<'p> PortGroupBackend<'p> {
    /// A `groups`-way partitioned backend over `fabric`. `groups` is
    /// clamped to `[1, ports]`; uneven divisions give the last group the
    /// remainder.
    pub fn new(
        fabric: &Fabric,
        groups: usize,
        config: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
    ) -> PortGroupBackend<'p> {
        let groups = groups.clamp(1, fabric.ports());
        let group_ports = fabric.ports().div_ceil(groups);
        let shards: Vec<Shard> = (0..fabric.ports())
            .step_by(group_ports)
            .map(|base| {
                let ports = group_ports.min(fabric.ports() - base);
                let sub = Fabric::new(ports, fabric.bandwidth(), fabric.delta());
                Shard {
                    stepper: OnlineStepper::new(&sub, config),
                    policy: policy.clone_box(),
                    base,
                }
            })
            .collect();
        let admitted = vec![Dur::ZERO; shards.len()];
        PortGroupBackend {
            fabric: *fabric,
            group_ports,
            shards,
            policy,
            advance_threads: resolve_replan_threads(config),
            now: Time::ZERO,
            pending: BTreeMap::new(),
            ids: HashSet::new(),
            merge: HashMap::new(),
            completions: Vec::new(),
            admitted,
            parallel_advances: 0,
        }
    }

    /// Number of port groups.
    pub fn groups(&self) -> usize {
        self.shards.len()
    }

    /// The group a global port belongs to.
    pub fn group_of(&self, port: usize) -> usize {
        port / self.group_ports
    }

    /// Rounds that advanced two or more shards on worker threads.
    pub fn parallel_advances(&self) -> u64 {
        self.parallel_advances
    }

    /// Split and admit every pending Coflow due at or before `t`.
    fn admit_due(&mut self, t: Time) -> u64 {
        let mut n = 0u64;
        while let Some(&(arrival, id)) = self.pending.keys().next() {
            if arrival > t {
                break;
            }
            let c = self.pending.remove(&(arrival, id)).expect("peeked");
            // Partition flows by group, renumbering ports to the group's
            // local space (global - base).
            let mut parts: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); self.shards.len()];
            let mut map = Vec::with_capacity(c.num_flows());
            for f in c.flows() {
                let g = self.group_of(f.src);
                let base = self.shards[g].base;
                map.push((g, parts[g].len()));
                parts[g].push((f.src - base, f.dst - base, f.bytes));
            }
            self.merge.insert(
                id,
                MergeState {
                    arrival,
                    map,
                    parts_left: parts.iter().filter(|p| !p.is_empty()).count(),
                    flow_finish: vec![Time::ZERO; c.num_flows()],
                    finish: arrival,
                    setups: 0,
                    first_service: None,
                },
            );
            for (g, flows) in parts.into_iter().enumerate() {
                if flows.is_empty() {
                    continue;
                }
                let mut b = Coflow::builder(id).arrival(arrival);
                for (src, dst, bytes) in flows {
                    self.admitted[g] += self.fabric.processing_time(bytes);
                    b = b.flow(src, dst, bytes);
                }
                self.shards[g]
                    .stepper
                    .submit(b.build())
                    .expect("part was validated at submission");
                n += 1;
            }
        }
        n
    }

    /// Advance every shard with an event due at or before `t`. Runs the
    /// due shards on scoped worker threads when that is provably
    /// equivalent (independent shards + inert hook + owned policies);
    /// otherwise advances them in group order against the shared policy
    /// and hook.
    fn advance_shards(&mut self, t: Time, hook: &mut dyn SettleHook) -> u64 {
        let due: Vec<usize> = (0..self.shards.len())
            .filter(|&g| {
                self.shards[g]
                    .stepper
                    .next_event_time()
                    .is_some_and(|e| e <= t)
            })
            .collect();
        let parallel = due.len() >= 2
            && self.advance_threads >= 2
            && hook.is_inert()
            && self.shards.iter().all(|s| s.policy.is_some());
        if !parallel {
            let mut processed = 0u64;
            for g in due {
                processed += self.shards[g]
                    .stepper
                    .run_until_with(t, self.policy.as_ref(), hook);
            }
            return processed;
        }
        self.parallel_advances += 1;
        let mut refs: Vec<&mut Shard> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(g, _)| due.contains(g))
            .map(|(_, s)| s)
            .collect();
        let per = refs.len().div_ceil(self.advance_threads.min(refs.len()));
        std::thread::scope(|scope| {
            let handles: Vec<_> = refs
                .chunks_mut(per)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut processed = 0u64;
                        for shard in chunk.iter_mut() {
                            let policy = shard.policy.as_deref().expect("checked above");
                            let mut hk = FullService;
                            processed += shard.stepper.run_until_with(t, policy, &mut hk);
                        }
                        processed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard advance worker panicked"))
                .sum()
        })
    }

    /// Drain per-group completions into the merge states, emitting one
    /// merged [`Completion`] per Coflow once its last part lands. Groups
    /// drain in index order so emission order is deterministic.
    fn absorb_completions(&mut self) {
        for g in 0..self.shards.len() {
            for part in self.shards[g].stepper.drain_completions() {
                let id = part.outcome.coflow;
                let st = self
                    .merge
                    .get_mut(&id)
                    .expect("completion for an unknown part");
                for (orig, &(pg, pi)) in st.map.iter().enumerate() {
                    if pg == g {
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

impl SchedulingBackend for PortGroupBackend<'_> {
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
        for f in coflow.flows() {
            if self.group_of(f.src) != self.group_of(f.dst) {
                return Err(SubmitError::CrossesPortGroups {
                    id: coflow.id(),
                    src: f.src,
                    dst: f.dst,
                    group_ports: self.group_ports,
                });
            }
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
            .shards
            .iter()
            .filter_map(|s| s.stepper.next_event_time())
            .min();
        [arrival, inner].into_iter().flatten().min()
    }

    fn advance_to(&mut self, deadline: Time, hook: &mut dyn SettleHook) -> u64 {
        let mut processed = 0u64;
        loop {
            let arrival = self.pending.keys().next().map(|&(a, _)| a);
            let inner = self
                .shards
                .iter()
                .filter_map(|s| s.stepper.next_event_time())
                .min();
            let Some(t) = [arrival, inner].into_iter().flatten().min() else {
                break;
            };
            if t > deadline {
                break;
            }
            // Admit first so a shard sees arrivals due at `t` before it
            // plans at `t` — identical to batch submission.
            processed += self.admit_due(t);
            processed += self.advance_shards(t, hook);
            self.absorb_completions();
            self.now = self.now.max(t);
        }
        if deadline != Time::MAX {
            // Nothing happens strictly between events; float every group
            // to the deadline so later submissions cannot rewrite the
            // span.
            for s in &mut self.shards {
                s.stepper
                    .run_until_with(deadline, self.policy.as_ref(), hook);
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
                .shards
                .iter()
                .map(|s| s.stepper.queued_arrivals())
                .sum::<usize>()
    }

    fn outstanding_demand(&self) -> Dur {
        self.shards
            .iter()
            .map(|s| s.stepper.outstanding_demand())
            .sum()
    }

    fn deferred_flows(&self) -> usize {
        self.shards.iter().map(|s| s.stepper.deferred_flows()).sum()
    }

    fn guard_windows(&self) -> u64 {
        self.shards.iter().map(|s| s.stepper.guard_windows()).sum()
    }

    fn stats(&self) -> Option<ReplayStats> {
        let mut total = ReplayStats::default();
        for s in &self.shards {
            total.absorb(&s.stepper.stats());
        }
        total.parallel_shard_advances = self.parallel_advances;
        Some(total)
    }

    fn compact_history(&mut self) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.stepper.compact_history())
            .sum()
    }

    fn cores(&self) -> usize {
        self.shards.len()
    }

    fn core_status(&self, core: usize) -> Option<CoreStatus> {
        let s = self.shards.get(core)?;
        Some(CoreStatus {
            active_coflows: s.stepper.active_coflows(),
            outstanding_demand: s.stepper.outstanding_demand(),
            demand_admitted: self.admitted[core],
            reservations_made: s.stepper.stats().reservations_made,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_trace;
    use crate::online::simulate_circuit;
    use ocs_model::Bandwidth;
    use sunflow_core::ShortestFirst;

    fn fabric(ports: usize) -> Fabric {
        Fabric::new(ports, Bandwidth::from_gbps(1), Dur::from_micros(20))
    }

    /// A deterministic group-local workload: every Coflow's flows stay
    /// inside one group of `group_ports` consecutive ports.
    fn group_local_trace(ports: usize, group_ports: usize, n: u64) -> Vec<Coflow> {
        let groups = ports / group_ports;
        (0..n)
            .map(|i| {
                let g = (i as usize * 7 + 3) % groups;
                let base = g * group_ports;
                let s = base + (i as usize) % group_ports;
                let d = base + (i as usize + 1 + (i as usize / group_ports)) % group_ports;
                let d = if d == s {
                    base + (s - base + 1) % group_ports
                } else {
                    d
                };
                let mut b = Coflow::builder(i).arrival(Time::from_millis(i * 3)).flow(
                    s,
                    d,
                    1_000_000 + i * 50_000,
                );
                if i % 3 == 0 {
                    let s2 = base + (i as usize + 2) % group_ports;
                    let d2 = base + (i as usize + 3) % group_ports;
                    if s2 != d2 {
                        b = b.flow(s2, d2, 500_000);
                    }
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn one_group_matches_single_sunflow() {
        let f = fabric(8);
        let trace = group_local_trace(8, 8, 24);
        let config = OnlineConfig::default();
        let want = simulate_circuit(&trace, &f, &config, &ShortestFirst);
        let mut pg = PortGroupBackend::new(&f, 1, &config, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut pg);
        assert_eq!(want.outcomes, got);
    }

    #[test]
    fn grouped_trace_matches_per_group_independent_replays() {
        let f = fabric(12);
        let trace = group_local_trace(12, 4, 30);
        let config = OnlineConfig::default();
        let mut pg = PortGroupBackend::new(&f, 3, &config, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut pg);

        // Reference: each group is an independent Sunflow fabric.
        let sub = fabric(4);
        for g in 0..3 {
            let base = g * 4;
            let local: Vec<Coflow> = trace
                .iter()
                .filter(|c| c.flows().iter().all(|fl| fl.src / 4 == g))
                .map(|c| {
                    let mut b = Coflow::builder(c.id()).arrival(c.arrival());
                    for fl in c.flows() {
                        b = b.flow(fl.src - base, fl.dst - base, fl.bytes);
                    }
                    b.build()
                })
                .collect();
            let want = simulate_circuit(&local, &sub, &config, &ShortestFirst);
            for (w, c) in want.outcomes.iter().zip(&local) {
                let g_out = got
                    .iter()
                    .find(|o| o.coflow == c.id())
                    .expect("every coflow completes");
                assert_eq!(w.finish, g_out.finish, "coflow {}", c.id());
                assert_eq!(w.flow_finish, g_out.flow_finish, "coflow {}", c.id());
                assert_eq!(w.circuit_setups, g_out.circuit_setups, "coflow {}", c.id());
            }
        }
    }

    #[test]
    fn cross_group_flows_get_a_typed_reject() {
        let f = fabric(8);
        let config = OnlineConfig::default();
        let mut pg = PortGroupBackend::new(&f, 2, &config, Box::new(ShortestFirst));
        let crossing = Coflow::builder(1).flow(0, 5, 1_000).build();
        assert_eq!(
            pg.submit(crossing),
            Err(SubmitError::CrossesPortGroups {
                id: 1,
                src: 0,
                dst: 5,
                group_ports: 4,
            })
        );
        // The id was not retained: a corrected resubmission succeeds.
        let local = Coflow::builder(1).flow(0, 3, 1_000).build();
        assert_eq!(pg.submit(local), Ok(()));
    }

    #[test]
    fn parallel_advance_is_byte_identical_to_sequential() {
        let f = fabric(16);
        let trace = group_local_trace(16, 4, 48);
        let sequential = OnlineConfig::default().replan_threads(1);
        let parallel = OnlineConfig::default().replan_threads(4);

        let mut seq = PortGroupBackend::new(&f, 4, &sequential, Box::new(ShortestFirst));
        let want = run_trace(&trace, &mut seq);
        assert_eq!(seq.parallel_advances(), 0);

        let mut par = PortGroupBackend::new(&f, 4, &parallel, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut par);
        assert!(
            par.parallel_advances() > 0,
            "expected at least one multi-shard parallel round"
        );
        assert_eq!(want, got);
        assert_eq!(
            par.stats().unwrap().parallel_shard_advances,
            par.parallel_advances()
        );
    }

    #[test]
    fn non_inert_hooks_advance_sequentially() {
        struct Spy(u64);
        impl SettleHook for Spy {
            fn on_settle(
                &mut self,
                _resv: &ocs_model::Reservation,
                available: Dur,
                _now: Time,
            ) -> crate::SettleVerdict {
                self.0 += 1;
                crate::SettleVerdict::full(available)
            }
        }
        let f = fabric(8);
        let trace = group_local_trace(8, 4, 16);
        let config = OnlineConfig::default().replan_threads(4);
        let mut pg = PortGroupBackend::new(&f, 2, &config, Box::new(ShortestFirst));
        for c in &trace {
            pg.submit(c.clone()).unwrap();
        }
        let mut spy = Spy(0);
        pg.advance_to(Time::MAX, &mut spy);
        assert_eq!(pg.parallel_advances(), 0, "stateful hook must serialize");
        assert!(spy.0 > 0, "every settlement funneled through the hook");
    }
}
