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
//! threads, one whole stepper per worker (each stepper plans
//! sequentially). This is the one place the replay runs in parallel:
//! independent planes, not pieces of one plane's replan. The result is
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
//! [`SettleHook::is_inert`]: crate::SettleHook::is_inert

use crate::compositor::{partition, Compositor, Part, Plane, Router};
use crate::online::OnlineConfig;
use crate::stepper::{OnlineStepper, SubmitError};
use ocs_model::{Coflow, Fabric};
use sunflow_core::PriorityPolicy;

/// Sunflow sharded across `G` disjoint port groups — the daemon's
/// scale-out serving backend (selector `portgroups:<G>`).
///
/// With `G = 1` the single shard covers the whole fabric and the replay
/// is byte-identical to [`SunflowBackend`](crate::SunflowBackend)
/// (pinned by `one_group_matches_single_sunflow` below).
pub type PortGroupBackend<'p> = Compositor<'p, GroupRouter>;

/// The port-group `Router`: a flow rides the group its endpoints fall
/// in, with ports renumbered to the group's local space.
pub struct GroupRouter {
    /// Ports per group (`ceil(ports / G)`); `group = port / group_ports`.
    group_ports: usize,
}

impl Router for GroupRouter {
    fn check(&self, coflow: &Coflow) -> Result<(), SubmitError> {
        let group = |port| port / self.group_ports;
        match coflow.flows().iter().find(|f| group(f.src) != group(f.dst)) {
            None => Ok(()),
            Some(f) => Err(SubmitError::CrossesPortGroups {
                id: coflow.id(),
                src: f.src,
                dst: f.dst,
                group_ports: self.group_ports,
            }),
        }
    }

    fn route(&mut self, coflow: &Coflow, planes: &[Plane]) -> Vec<Part> {
        partition(coflow, planes.len(), |_, f| {
            let group = f.src / self.group_ports;
            let base = group * self.group_ports;
            (group, f.src - base, f.dst - base)
        })
    }
}

impl<'p> PortGroupBackend<'p> {
    /// A `groups`-way partitioned backend over `fabric`. `groups` is
    /// clamped to `[1, ports]`; uneven divisions give the last group the
    /// remainder. Every group gets its own copy of `policy` when the
    /// policy supports [`PriorityPolicy::clone_box`], which is what lets
    /// due groups advance on worker threads (up to
    /// [`OnlineConfig::replan_threads`] of them).
    pub fn new(
        fabric: &Fabric,
        groups: usize,
        config: &OnlineConfig,
        policy: Box<dyn PriorityPolicy + 'p>,
    ) -> PortGroupBackend<'p> {
        let groups = groups.clamp(1, fabric.ports());
        let group_ports = fabric.ports().div_ceil(groups);
        let planes = (0..fabric.ports())
            .step_by(group_ports)
            .map(|base| {
                let ports = group_ports.min(fabric.ports() - base);
                let sub = Fabric::new(ports, fabric.bandwidth(), fabric.delta());
                Plane::Circuit(OnlineStepper::new(&sub, config))
            })
            .collect();
        Compositor::over(*fabric, planes, policy, GroupRouter { group_ports })
            .advancing_in_parallel(resolve_replan_threads(config))
    }
}

/// Resolve [`OnlineConfig::replan_threads`], the number of shards
/// advanced at once: `0` means one per available core (falling back to
/// sequential if the count is opaque).
fn resolve_replan_threads(config: &OnlineConfig) -> usize {
    match config.replan_threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_trace;
    use crate::online::simulate_circuit;
    use crate::{SchedulingBackend, SettleHook};
    use ocs_model::{Bandwidth, Dur, Time};
    use sunflow_core::ShortestFirst;

    fn fabric(ports: usize) -> Fabric {
        Fabric::new(ports, Bandwidth::from_gbps(1), Dur::from_micros(20))
    }

    /// Rounds that advanced two or more groups on worker threads.
    fn parallel_advances(pg: &PortGroupBackend<'_>) -> u64 {
        pg.stats()
            .expect("sunflow keeps stats")
            .parallel_shard_advances
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
        assert_eq!(parallel_advances(&seq), 0);

        let mut par = PortGroupBackend::new(&f, 4, &parallel, Box::new(ShortestFirst));
        let got = run_trace(&trace, &mut par);
        assert!(
            parallel_advances(&par) > 0,
            "expected at least one multi-shard parallel round"
        );
        assert_eq!(want, got);
    }

    #[test]
    fn replan_threads_zero_means_one_shard_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_replan_threads(&OnlineConfig::default()), cores);
        assert_eq!(
            resolve_replan_threads(&OnlineConfig::default().replan_threads(0)),
            cores
        );
        for n in [1, 2, 7] {
            assert_eq!(
                resolve_replan_threads(&OnlineConfig::default().replan_threads(n)),
                n
            );
        }
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
        assert_eq!(parallel_advances(&pg), 0, "stateful hook must serialize");
        assert!(spy.0 > 0, "every settlement funneled through the hook");
    }
}
