//! Online inter-Coflow circuit replay: the trace-driven simulation of a
//! Sunflow-scheduled optical circuit switch (§5.1 "In inter-Coflow
//! evaluation, we perform detailed trace replay including arrival time").
//!
//! Like Varys, Sunflow reschedules **only upon Coflow arrivals and
//! completions** (§6). At every such event the replay:
//!
//! 1. settles all circuit reservations that have ended (crediting the
//!    data they carried and recording flow finish times);
//! 2. cuts short the in-flight circuits its [`ActiveCircuitPolicy`]
//!    names — by default ([`ActiveCircuitPolicy::Yield`]) those with a
//!    higher-priority Coflow waiting on one of their ports; `Keep` and
//!    `Preempt` are the never/always extremes;
//! 3. re-runs `IntraCoflow`, in priority order against the shared PRT,
//!    for the Coflows the event can have touched — those whose state
//!    changed and, transitively down the priority order, whoever shares
//!    a port with one — hiding their not-yet-started reservations while
//!    they plan and applying only the difference. Every other Coflow's
//!    plan is what re-planning it would re-derive, and stays.
//!
//! With the optional starvation guard (§4.2) enabled, the stepper's PRT
//! is built with the recurring `(T, τ)` timetable
//! ([`sunflow_core::Prt::with_guard`]): every port probe answers as if
//! each window were reserved on all of its circuits, however far ahead
//! a plan reaches, so every scheduling pass plans around the windows
//! while the table holds flow reservations only. During a guard window
//! every active Coflow with demand on the window's circuits receives an
//! equal share of its transmit time, and each guard-window end is an
//! additional rescheduling point (for the Coflows the window credited,
//! and whoever they free ports for).

use crate::backend::{SchedulingBackend, SunflowBackend};
use ocs_model::{Coflow, Fabric, ScheduleOutcome};
use sunflow_core::{DeltaPlan, GuardConfig, PriorityPolicy};

/// What happens to circuits that are mid-transmission when priorities
/// change at a rescheduling event: each value names the set of in-flight
/// circuits cut short before the event's plans are derived, and that is
/// all the three differ in.
///
/// Sunflow is non-preemptive *within* a Coflow; across Coflows, §4.2
/// gives the operator "flexible preemption policies" whose goal is "to
/// minimize the time when more prioritized Coflows are blocked by less
/// prioritized ones". [`ActiveCircuitPolicy::Yield`] realizes that goal
/// and is the default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActiveCircuitPolicy {
    /// Cut nothing: an in-flight circuit finishes its reserved
    /// interval. Maximally frugal with reconfigurations, but a newly
    /// arrived high-priority Coflow can be held up for the entire
    /// residual length of a low-priority giant's circuit.
    Keep,
    /// Cut every in-flight circuit at each rescheduling event, before
    /// anything is planned; all remainders are re-planned (and pay `δ`
    /// again). Maximally responsive, needlessly wasteful when nothing
    /// contends.
    Preempt,
    /// Cut an in-flight circuit only when the fresh plan shows a
    /// *higher-priority* Coflow waiting on one of its ports, then plan
    /// again around the freed ports, until a plan exposes no such
    /// blocker (default). High-priority Coflows are never blocked by
    /// lower-priority ones, and uncontended circuits keep their
    /// already-paid `δ`.
    Yield,
}

/// Configuration of the online replay.
///
/// Construct it fluently from the default (the struct is
/// `#[non_exhaustive]`, so struct literals do not compile outside this
/// crate):
///
/// ```
/// use ocs_sim::{ActiveCircuitPolicy, OnlineConfig};
/// use sunflow_core::GuardConfig;
/// use ocs_model::Dur;
///
/// let cfg = OnlineConfig::default()
///     .active_policy(ActiveCircuitPolicy::Keep)
///     .guard(GuardConfig::new(Dur::from_millis(100), Dur::from_millis(30)));
/// assert!(cfg.guard.is_some());
/// ```
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct OnlineConfig {
    /// In-flight circuit handling at rescheduling events.
    pub active_policy: ActiveCircuitPolicy,
    /// Optional starvation guard (§4.2).
    pub guard: Option<GuardConfig>,
}

impl Default for OnlineConfig {
    fn default() -> OnlineConfig {
        OnlineConfig {
            active_policy: ActiveCircuitPolicy::Yield,
            guard: None,
        }
    }
}

impl OnlineConfig {
    /// Set the in-flight circuit policy at rescheduling events.
    pub fn active_policy(mut self, policy: ActiveCircuitPolicy) -> OnlineConfig {
        self.active_policy = policy;
        self
    }

    /// Enable (or disable, with `None`) the §4.2 starvation guard.
    pub fn guard(mut self, guard: impl Into<Option<GuardConfig>>) -> OnlineConfig {
        self.guard = guard.into();
        self
    }

    /// Does nothing: every replay advances on the calling thread. Kept
    /// only because the `benchmark/` crate still calls it.
    pub fn replan_threads(self, _threads: usize) -> OnlineConfig {
        self
    }
}

/// Result of an online replay.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Per-Coflow outcomes, in input order.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Number of starvation-guard windows that elapsed during the replay
    /// (zero when the guard is disabled).
    pub guard_windows: u64,
    /// Observability counters of the replay engine.
    pub stats: ReplayStats,
}

/// Observability counters of one online replay: how much event-loop work
/// the trace cost. Purely informational — identical traces under the
/// same configuration produce identical counters except for
/// `reschedule_micros`, which is wall-clock and feeds the `compute_s`
/// field of the `BENCH_<id>.json` records. There is one replan path, so
/// every counter is live in every configuration. The outcome-bearing
/// counters (`events`, `yield_rounds`, `cuts`) are what the test-side
/// reference replay re-derives; the *work* counters — Coflows
/// re-planned or skipped, reservations reused — have no reference
/// value, since the reference re-plans every Coflow at every round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReplayStats {
    /// Rescheduling events processed (Coflow arrivals, completions and
    /// guard-window ends that triggered a re-plan).
    pub events: u64,
    /// Planning rounds run under [`ActiveCircuitPolicy::Yield`] (at least
    /// one per event; one extra per displacement round).
    pub yield_rounds: u64,
    /// In-flight circuits displaced by the Yield policy.
    pub cuts: u64,
    /// Reservations created by the intra-Coflow scheduler.
    pub reservations_made: u64,
    /// Flow reservations dropped or shortened at rescheduling events:
    /// planned circuits a re-plan did not reproduce, the leftover plan of
    /// a Coflow the guard finished early, and the in-flight circuits
    /// [`ActiveCircuitPolicy::Preempt`] cut (Yield's are in `cuts`).
    pub reservations_truncated: u64,
    /// Wall-clock microseconds spent rescheduling (truncation, priority
    /// sorting, intra-Coflow planning, displacement analysis).
    pub reschedule_micros: u64,
    /// Circuit-release instants the intra-Coflow scheduler advanced its
    /// clock through (Algorithm 1 line 10), summed over all planning
    /// calls — the port-scoped engine visits only releases on ports the
    /// planned Coflow still needs.
    pub releases_visited: u64,
    /// Demand entries the intra-Coflow scheduler examined across all
    /// planning passes — the port-scoped engine re-examines only demands
    /// touching a just-released port.
    pub demands_scanned: u64,
    /// Coflows actually re-planned at rescheduling events.
    pub coflows_rescheduled: u64,
    /// Coflows skipped by affected-set rescheduling: their port
    /// footprint was disjoint from the event's transitively-dirtied port
    /// set, so their existing plans were provably identical to what a
    /// re-plan would produce.
    pub coflows_skipped: u64,
    /// Reservations a delta replan reproduced byte-for-byte and kept in
    /// place instead of truncating and re-making (the ~84%
    /// truncate-then-identically-rebuild churn turned into no-ops).
    pub reservations_reused: u64,
    /// Table mutations delta replans actually applied: stale removals
    /// plus fresh insertions (the diff the old truncate-and-rebuild path
    /// would have paid in full).
    pub delta_applied: u64,
    /// Planning views built: one per planning round that re-planned at
    /// least one Coflow.
    pub replan_segments: u64,
    /// Always zero: the replanner plans one view per round on the
    /// calling thread. Kept only because the `benchmark/` crate reads it.
    pub parallel_replans: u64,
    /// Fully-released flow reservations retired from the PRT once
    /// settled — the table holds only the working set (active and
    /// planned circuits) instead of the whole trace history. Guard
    /// windows are never in the table, so they are not counted here.
    pub reservations_retired: u64,
    /// Subflows a hybrid backend carved off to the packet fabric
    /// (whole-flow routing and byte-level carving both count). Zero for
    /// single-fabric backends.
    pub subflows_split: u64,
    /// Bytes a hybrid backend routed to the packet fabric.
    pub bytes_to_packet: u64,
    /// Candidate splits a hybrid backend's
    /// [`SplitPolicy`](sunflow_core::SplitPolicy) evaluated at
    /// admission time (one per Coflow for the cheap policies; one per
    /// fraction probed for the solver).
    pub split_evals: u64,
    /// Circuit plans those evaluations ran against the live PRT (zero
    /// for the cheap policies; for the solver, only the evaluations its
    /// cheap bounds could not decide).
    pub split_plans: u64,
}

impl ReplayStats {
    /// Add every counter of `other` into `self` — the merge the sharded
    /// and hybrid backends apply across their sub-replays' stats. The
    /// exhaustive destructure keeps this in sync with the field list:
    /// a new counter that is not absorbed here fails to compile.
    pub fn absorb(&mut self, other: &ReplayStats) {
        let ReplayStats {
            events,
            yield_rounds,
            cuts,
            reservations_made,
            reservations_truncated,
            reschedule_micros,
            releases_visited,
            demands_scanned,
            coflows_rescheduled,
            coflows_skipped,
            reservations_reused,
            delta_applied,
            replan_segments,
            parallel_replans,
            reservations_retired,
            subflows_split,
            bytes_to_packet,
            split_evals,
            split_plans,
        } = *other;
        self.events += events;
        self.yield_rounds += yield_rounds;
        self.cuts += cuts;
        self.reservations_made += reservations_made;
        self.reservations_truncated += reservations_truncated;
        self.reschedule_micros += reschedule_micros;
        self.releases_visited += releases_visited;
        self.demands_scanned += demands_scanned;
        self.coflows_rescheduled += coflows_rescheduled;
        self.coflows_skipped += coflows_skipped;
        self.reservations_reused += reservations_reused;
        self.delta_applied += delta_applied;
        self.replan_segments += replan_segments;
        self.parallel_replans += parallel_replans;
        self.reservations_retired += reservations_retired;
        self.subflows_split += subflows_split;
        self.bytes_to_packet += bytes_to_packet;
        self.split_evals += split_evals;
        self.split_plans += split_plans;
    }

    /// Count one planning view closed into `plan`: the view, the
    /// reservations it confirmed in place, and the diff it applies.
    pub(crate) fn count_view(&mut self, plan: &DeltaPlan) {
        self.replan_segments += 1;
        self.reservations_reused += plan.reused();
        self.delta_applied += plan.stale_len() + plan.fresh_len();
    }
}

/// Simulate `coflows` on the circuit-switched `fabric` under Sunflow with
/// the given inter-Coflow `policy`. Returns per-Coflow outcomes in input
/// order.
///
/// This is the batch entry point: a thin constructor of a
/// [`SunflowBackend`] run to idle through the unified engine
/// ([`crate::engine::run_trace`]). Feeding the same trace incrementally
/// through a stepper produces byte-identical results (pinned by the
/// golden fingerprints in `replay_regression.rs`).
pub fn simulate_circuit(
    coflows: &[Coflow],
    fabric: &Fabric,
    config: &OnlineConfig,
    policy: &dyn PriorityPolicy,
) -> ReplayResult {
    let mut backend = SunflowBackend::new(fabric, config, Box::new(policy));
    let outcomes = crate::engine::run_trace(coflows, &mut backend);
    let status = backend.status();
    ReplayResult {
        outcomes,
        guard_windows: status.guard_windows,
        stats: status.stats.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{circuit_lower_bound, Bandwidth, Dur, Time};
    use sunflow_core::{ShortestFirst, SunflowConfig};

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn mb(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn lone_coflow_matches_offline_intra_schedule() {
        let f = fabric();
        let c = Coflow::builder(0)
            .flow(0, 0, mb(4))
            .flow(0, 1, mb(2))
            .flow(1, 0, mb(3))
            .build();
        let r = simulate_circuit(
            std::slice::from_ref(&c),
            &f,
            &OnlineConfig::default(),
            &ShortestFirst,
        );
        let offline = sunflow_core::IntraScheduler::new(&f, SunflowConfig::default()).schedule(&c);
        assert_eq!(r.outcomes[0].cct(Time::ZERO), offline.cct());
        assert_eq!(r.outcomes[0].circuit_setups, 3);
    }

    #[test]
    fn arrival_respects_clock() {
        let f = fabric();
        let c = Coflow::builder(0)
            .arrival(Time::from_millis(100))
            .flow(0, 0, mb(1))
            .build();
        let r = simulate_circuit(
            std::slice::from_ref(&c),
            &f,
            &OnlineConfig::default(),
            &ShortestFirst,
        );
        assert_eq!(r.outcomes[0].finish, Time::from_millis(118));
        assert_eq!(r.outcomes[0].cct(c.arrival()), Dur::from_millis(18));
    }

    /// A short coflow arriving mid-flight of a long one: with Keep, the
    /// active circuit finishes; future reservations of the long coflow are
    /// re-derived around the newcomer.
    #[test]
    fn newcomer_preempts_future_reservations() {
        let f = fabric();
        let long = Coflow::builder(0)
            .flow(0, 0, mb(50)) // 400 ms + delta
            .flow(0, 1, mb(50))
            .build();
        let short = Coflow::builder(1)
            .arrival(Time::from_millis(100))
            .flow(0, 2, mb(1))
            .build();
        let r = simulate_circuit(
            &[long.clone(), short.clone()],
            &f,
            &OnlineConfig::default(),
            &ShortestFirst,
        );
        // The short coflow (higher priority on arrival) is not made to
        // wait for the long coflow's *entire* remaining plan: it waits at
        // most for the in-flight circuit on in.0, i.e. finishes well
        // before the long coflow.
        assert!(r.outcomes[1].finish < r.outcomes[0].finish);
        let short_cct = r.outcomes[1].cct(short.arrival());
        // Bounded by the first circuit's residual (410ms - 100ms) + own.
        assert!(short_cct <= Dur::from_millis(310 + 18));
    }

    #[test]
    fn preempt_policy_cuts_inflight_circuits() {
        let f = fabric();
        let long = Coflow::builder(0).flow(0, 0, mb(50)).build();
        let short = Coflow::builder(1)
            .arrival(Time::from_millis(100))
            .flow(0, 1, mb(1))
            .build();
        let run = |policy: ActiveCircuitPolicy| {
            simulate_circuit(
                &[long.clone(), short.clone()],
                &f,
                &OnlineConfig::default().active_policy(policy),
                &ShortestFirst,
            )
        };
        let keep = run(ActiveCircuitPolicy::Keep);
        let preempt = run(ActiveCircuitPolicy::Preempt);
        let yielded = run(ActiveCircuitPolicy::Yield);
        // Under Preempt and Yield the short coflow starts immediately at
        // 100 ms: the long coflow's in-flight circuit on in.0 is
        // displaced because the (higher-priority) short coflow needs
        // that input port.
        assert_eq!(
            preempt.outcomes[1].cct(short.arrival()),
            Dur::from_millis(18)
        );
        assert_eq!(
            yielded.outcomes[1].cct(short.arrival()),
            Dur::from_millis(18)
        );
        // Under Keep it waits for the long circuit to finish first.
        assert!(keep.outcomes[1].cct(short.arrival()) > Dur::from_millis(18));
        // Displacement costs the long coflow an extra setup.
        assert!(preempt.outcomes[0].circuit_setups > keep.outcomes[0].circuit_setups);
        assert!(yielded.outcomes[0].circuit_setups > keep.outcomes[0].circuit_setups);
    }

    #[test]
    fn all_demand_is_served_exactly() {
        let f = fabric();
        let coflows: Vec<Coflow> = (0..5)
            .map(|i| {
                Coflow::builder(i)
                    .arrival(Time::from_millis(i * 30))
                    .flow((i as usize) % 4, (i as usize + 1) % 4, mb(1 + i % 3))
                    .flow((i as usize + 1) % 4, (i as usize + 2) % 4, mb(2))
                    .build()
            })
            .collect();
        let r = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
        for (c, o) in coflows.iter().zip(&r.outcomes) {
            assert_eq!(o.flow_finish.len(), c.num_flows());
            assert!(o.finish >= c.arrival());
            assert!(o.cct(c.arrival()) >= circuit_lower_bound(c, &f));
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let f = fabric();
        let coflows: Vec<Coflow> = (0..8)
            .map(|i| {
                Coflow::builder(i)
                    .arrival(Time::from_millis((i * 13) % 50))
                    .flow((i as usize) % 4, (i as usize * 3 + 1) % 4, mb(1 + i % 4))
                    .build()
            })
            .collect();
        let a = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
        let b = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.circuit_setups, y.circuit_setups);
        }
    }

    /// With the starvation guard enabled, a permanently lowest-priority
    /// Coflow makes progress even while an *overloading* stream of small
    /// high-priority Coflows keeps pushing its future reservations back.
    #[test]
    fn guard_prevents_starvation() {
        let f = fabric();
        // The victim: two 10 MB flows from in.0 to out.0 / out.1.
        let victim_coflow = Coflow::builder(0)
            .flow(0, 0, mb(10))
            .flow(0, 1, mb(10))
            .build();
        // Adversaries: a continuous stream of 1 MB coflows (≈18 ms of
        // service each) hitting out.0 and out.1 every 16 ms from
        // in.1..in.3, so both output ports the victim needs are
        // *oversubscribed* (18 ms of work per 16 ms) and always have
        // higher-priority demand queued. The victim's circuits (0, 0) and
        // (0, 1) are used by nobody else, so its guard-window share is
        // undiluted.
        let mk = |guarded: bool| {
            let mut coflows = vec![victim_coflow.clone()];
            let mut id = 1u64;
            for i in 0..300u64 {
                for out in 0..2usize {
                    coflows.push(
                        Coflow::builder(id)
                            .arrival(Time::from_millis(i * 16))
                            .flow(1 + ((i as usize + out) % 3), out, mb(1))
                            .build(),
                    );
                    id += 1;
                }
            }
            let cfg = OnlineConfig::default().guard(guarded.then_some(GuardConfig::new(
                Dur::from_millis(100),
                Dur::from_millis(30),
            )));
            simulate_circuit(&coflows, &f, &cfg, &ShortestFirst)
        };
        let unguarded = mk(false);
        let guarded = mk(true);
        assert!(guarded.guard_windows > 0);
        // Unguarded, the victim is starved for as long as the adversary
        // stream lasts (300 * 16 ms = 4.8 s of arrivals).
        assert!(
            unguarded.outcomes[0].finish.as_secs_f64() > 4.0,
            "victim was not starved: {}",
            unguarded.outcomes[0].finish
        );
        // Guarded, the round-robin windows deliver ~20 ms per (N(T+τ))
        // cycle to each victim flow, completing it mid-stream.
        assert!(
            guarded.outcomes[0].finish.as_secs_f64() < 3.5,
            "guard did not rescue the victim: {}",
            guarded.outcomes[0].finish
        );
    }

    /// Reservations across the whole replay never violate port
    /// constraints (sampled via the PRT invariants — the replay would
    /// panic inside `Prt::reserve` otherwise; this test exercises a dense
    /// overlapping workload to stress that path).
    #[test]
    fn dense_overlap_respects_port_constraints() {
        let f = fabric();
        let mut coflows = Vec::new();
        for i in 0..12u64 {
            let mut b = Coflow::builder(i).arrival(Time::from_millis(i * 5));
            for k in 0..3usize {
                b = b.flow(
                    (i as usize + k) % 4,
                    (i as usize + 2 * k) % 4,
                    mb(1 + (i % 4)),
                );
            }
            coflows.push(b.build());
        }
        let r = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
        assert_eq!(r.outcomes.len(), 12);
        // Validate the final PRT contents as a whole.
        // (All reservations live in the PRT's history.)
        for o in &r.outcomes {
            assert!(o.circuit_setups >= coflows[o.coflow as usize].num_flows() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_are_rejected() {
        let f = fabric();
        let a = Coflow::builder(7).flow(0, 0, 1).build();
        let b = Coflow::builder(7).flow(1, 1, 1).build();
        let _ = simulate_circuit(&[a, b], &f, &OnlineConfig::default(), &ShortestFirst);
    }
}
