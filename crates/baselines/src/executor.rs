//! Execution of assignment-sequence schedules on the optical switch.
//!
//! The baselines (Solstice, TMS, Edmond) all emit a sequence of circuit
//! assignments `{A_1, …, A_m}` with durations `{t_1, …, t_m}` (§3.1.1).
//! This module plays such a sequence against the demand matrix and
//! reports when each entry drains — under either switch model:
//!
//! * **Not-all-stop** (the accurate model, and what the paper's Figure 1b
//!   depicts): only *changed* circuits pause for `δ` at an assignment
//!   boundary; circuits present in consecutive assignments keep
//!   transmitting straight through the reconfiguration of the others.
//! * **All-stop** (the conventional model of prior work): every circuit
//!   stops whenever anything is reconfigured.
//!
//! [`Switch`] is the executor, resumable at a limit: the aggregated replay
//! of `ocs_sim::CircuitBackend` re-plans at every Coflow arrival and
//! keeps its plan across any other limit ([`Switch::resume`]);
//! [`execute`] runs it to completion for the offline per-Coflow path.
//! Both read the same per-circuit transmission [`Segment`]s.
//!
//! With `early_advance` enabled the executor moves to the next assignment
//! as soon as every circuit of the current one has gone idle (no real
//! demand left), mirroring the paper's account of Solstice execution
//! ("a new assignment may be scheduled when a circuit becomes idle").
//! Without it, each assignment holds for its full nominal duration — the
//! behaviour of fixed-slot systems like the Edmond-based designs.

use ocs_model::{Assignment, DemandMatrix, Dur, Time};
use std::collections::{HashMap, VecDeque};

/// An assignment with its nominal duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedAssignment {
    /// The circuit configuration.
    pub assignment: Assignment,
    /// Nominal transmission duration (excludes reconfiguration).
    pub duration: Dur,
}

/// Which switch model governs reconfiguration stalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchModel {
    /// Only changed circuits stall for `δ`; persistent circuits keep
    /// transmitting (§2.1's accurate optical-switch model).
    NotAllStop,
    /// All circuits stall for `δ` whenever the configuration changes.
    AllStop,
}

/// Execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Switch model.
    pub switch: SwitchModel,
    /// Cut an assignment short once all of its circuits are idle.
    pub early_advance: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            switch: SwitchModel::NotAllStop,
            early_advance: true,
        }
    }
}

/// One transmission interval on one circuit: `(src, dst)` carried demand
/// over `[tx_start, tx_end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Input port.
    pub src: usize,
    /// Output port.
    pub dst: usize,
    /// First instant of transmission.
    pub tx_start: Time,
    /// Instant transmission stopped.
    pub tx_end: Time,
}

/// The physical switch an assignment sequence runs on: which circuit
/// each input port holds, and how many circuits were ever set up (the
/// switching count [`execute`] reports). It is resumable —
/// [`Switch::run`] may stop at a limit, and a later call with a fresh
/// plan continues from the circuits left standing.
///
/// This is the one place the assignment arithmetic lives: the stall,
/// the ride-through of persistent circuits, early advance, all-stop and
/// teardown. A circuit charged a setup is a circuit recorded, even when
/// its window ends before it could transmit: a later assignment reusing
/// it rides through, one replacing it pays `δ`. A setup the limit cuts
/// short still completes — a plan reusing that circuit waits out the
/// rest of its `δ` (and on the all-stop switch, so does every circuit).
#[derive(Clone, Debug)]
pub struct Switch {
    delta: Dur,
    cfg: ExecConfig,
    /// Peer of each input port, and the instant that circuit is up.
    cur: Vec<Option<(usize, Time)>>,
    setups: u64,
}

impl Switch {
    /// A switch of `ports` ports with no circuit up.
    pub fn new(ports: usize, delta: Dur, cfg: ExecConfig) -> Switch {
        Switch {
            delta,
            cfg,
            cur: vec![None; ports],
            setups: 0,
        }
    }

    /// Execute `plan` against `remaining` from `t`, stopping at `limit`
    /// or when the demand drains. Drains `remaining`, appends every
    /// transmission to `segments` and returns the instant execution
    /// stopped.
    pub fn run(
        &mut self,
        plan: &[TimedAssignment],
        remaining: &mut DemandMatrix,
        t: Time,
        limit: Time,
        segments: &mut Vec<Segment>,
    ) -> Time {
        let mut plan = KeptPlan::new(plan.iter().cloned());
        let stopped = self.resume(&mut plan, remaining, t, limit, segments);
        segments.append(&mut plan.held);
        stopped
    }

    /// [`Switch::run`] on a plan kept across limits: the windows that
    /// finish leave `plan`, and a window the limit cuts short stays at
    /// its head, shortened by the transmit time it ran, its stall
    /// remembered. Every circuit of that window is up (or being set up)
    /// at the limit, so resuming there pays no second setup and ends
    /// each circuit where one uninterrupted run would. The cut window's
    /// transmissions stay in `plan` until it ends, then reach `segments`
    /// whole: each call appends exactly the segments of the windows it
    /// finished, as one uninterrupted run would have written them.
    pub fn resume(
        &mut self,
        plan: &mut KeptPlan,
        remaining: &mut DemandMatrix,
        mut t: Time,
        limit: Time,
        segments: &mut Vec<Segment>,
    ) -> Time {
        // A window a limit cut short stalls on to its old stall's end;
        // every later window starts after that. It runs on to its end
        // even once the demand is gone, as it would have uncut.
        let held = plan.stall_until.take();
        let mut cut = held.is_some();
        while let Some(ta) = plan.windows.front_mut() {
            if t >= limit || (remaining.is_zero() && !cut) {
                break;
            }
            cut = false;
            let pairs = ta.assignment.pairs();

            // A circuit persists if its port already holds it (`Some`: how
            // long until it is up, should a limit have cut its setup
            // short). Nothing changes iff every circuit up persists.
            let persistent: Vec<Option<Dur>> = pairs
                .iter()
                .map(|&(i, j)| {
                    self.cur[i]
                        .filter(|c| c.0 == j)
                        .map(|c| c.1.saturating_since(t))
                })
                .collect();
            let changed_any =
                persistent.contains(&None) || persistent.len() != self.cur.iter().flatten().count();
            self.setups += persistent.iter().filter(|p| p.is_none()).count() as u64;

            // Reconfiguration stall at the head of the window, until every
            // circuit is up; a circuit transmits from `t + offset(k)`.
            let pending = persistent.iter().flatten().fold(
                held.map_or(Dur::ZERO, |h| h.saturating_since(t)),
                |a, &b| a.max(b),
            );
            let stall = pending.max(if changed_any { self.delta } else { Dur::ZERO });
            let offset = |k: usize| match (self.cfg.switch, persistent[k]) {
                (SwitchModel::NotAllStop, Some(up_in)) => up_in,
                _ => stall,
            };

            // Effective transmission duration beyond the stall: with early
            // advance, until the last circuit drains (an idle circuit needs
            // nothing, as `offset(k) <= stall`).
            let t_eff = if self.cfg.early_advance {
                let needed = pairs
                    .iter()
                    .enumerate()
                    .map(|(k, &(i, j))| (offset(k) + remaining.get(i, j)).saturating_sub(stall));
                needed.max().unwrap_or(Dur::ZERO).min(ta.duration)
            } else {
                ta.duration
            };
            let natural_end = t + stall + t_eff;
            let window_end = natural_end.min(limit);

            // Circuits not in this assignment are torn down.
            let mut next = vec![None; self.cur.len()];
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let tx_start = t + offset(k);
                next[i] = Some((j, tx_start));
                let served = remaining.drain(i, j, window_end.saturating_since(tx_start));
                if served > Dur::ZERO {
                    // A circuit transmitting at the cut carries on.
                    match plan
                        .held
                        .iter_mut()
                        .find(|s| (s.src, s.dst, s.tx_end) == (i, j, tx_start))
                    {
                        Some(s) => s.tx_end += served,
                        None => plan.held.push(Segment {
                            src: i,
                            dst: j,
                            tx_start,
                            tx_end: tx_start + served,
                        }),
                    }
                }
            }
            self.cur = next;
            if natural_end > limit {
                ta.duration -= limit.saturating_since(t + stall);
                plan.stall_until = Some(t + stall);
                return limit;
            }
            segments.append(&mut plan.held);
            plan.windows.pop_front();
            t = window_end;
        }
        t
    }
}

/// An assignment sequence part-way through execution on a [`Switch`]
/// ([`Switch::resume`]).
#[derive(Clone, Debug, Default)]
pub struct KeptPlan {
    /// The windows still to run, the first possibly cut short by a limit.
    pub windows: VecDeque<TimedAssignment>,
    /// Set when a limit cut the first window short: where its stall
    /// ends (its reconfiguration outlives the cut).
    pub stall_until: Option<Time>,
    /// What the cut window has transmitted so far, one segment per
    /// circuit; handed out when the window ends.
    pub held: Vec<Segment>,
}

impl KeptPlan {
    /// A fresh sequence, none of it run.
    pub fn new(windows: impl IntoIterator<Item = TimedAssignment>) -> KeptPlan {
        KeptPlan {
            windows: windows.into_iter().collect(),
            ..KeptPlan::default()
        }
    }

    /// True when a limit cut the first window short.
    pub fn is_cut(&self) -> bool {
        self.stall_until.is_some()
    }
}

/// The result of executing a schedule to completion.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// When the last demand entry drained.
    pub finish: Time,
    /// Drain time of every originally non-zero entry `(i, j)`.
    pub entry_finish: HashMap<(usize, usize), Time>,
    /// Total circuit establishments paid (the switching count of
    /// Figure 5, including circuits configured for dummy demand).
    pub circuit_setups: u64,
    /// Every transmission performed, in window order.
    pub segments: Vec<Segment>,
}

/// Execute `assignments` against `demand` starting at `start`, on a
/// switch with no circuit up, until the demand drains.
///
/// # Panics
/// Panics if the assignment sequence fails to drain all demand — the
/// schedulers in this crate stuff and decompose the full matrix, so
/// leftover demand indicates a scheduler bug.
pub fn execute(
    assignments: &[TimedAssignment],
    demand: &DemandMatrix,
    delta: Dur,
    cfg: ExecConfig,
    start: Time,
) -> ExecResult {
    let mut remaining = demand.clone();
    let mut switch = Switch::new(demand.n(), delta, cfg);
    let mut segments = Vec::new();
    switch.run(assignments, &mut remaining, start, Time::MAX, &mut segments);
    assert!(
        remaining.is_zero(),
        "assignment sequence failed to drain {} entries (scheduler bug)",
        remaining.num_nonzero()
    );
    ExecResult {
        finish: segments.iter().map(|s| s.tx_end).fold(start, Time::max),
        // An entry drains at the end of its last segment.
        entry_finish: segments
            .iter()
            .map(|s| ((s.src, s.dst), s.tx_end))
            .collect(),
        circuit_setups: switch.setups,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::DemandMatrix;
    use proptest::prelude::*;

    fn ms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    fn tms(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn demand_2x2() -> DemandMatrix {
        // p(0,0)=8ms, p(1,1)=8ms, p(0,1)=4ms, p(1,0)=4ms
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(8));
        d.set(1, 1, ms(8));
        d.set(0, 1, ms(4));
        d.set(1, 0, ms(4));
        d
    }

    fn two_assignments() -> Vec<TimedAssignment> {
        vec![
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 1)]),
                duration: ms(8),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 1), (1, 0)]),
                duration: ms(4),
            },
        ]
    }

    #[test]
    fn not_all_stop_executes_with_per_window_stalls() {
        let r = execute(
            &two_assignments(),
            &demand_2x2(),
            ms(10),
            ExecConfig::default(),
            Time::ZERO,
        );
        // Window 1: stall 10 + 8 ms; window 2: stall 10 + 4 ms.
        assert_eq!(r.finish, tms(32));
        assert_eq!(r.circuit_setups, 4);
        assert_eq!(r.entry_finish[&(0, 0)], tms(18));
        assert_eq!(r.entry_finish[&(0, 1)], tms(32));
        let seg = |src, dst, a, b| Segment {
            src,
            dst,
            tx_start: tms(a),
            tx_end: tms(b),
        };
        assert_eq!(
            r.segments,
            vec![
                seg(0, 0, 10, 18),
                seg(1, 1, 10, 18),
                seg(0, 1, 28, 32),
                seg(1, 0, 28, 32)
            ]
        );
    }

    #[test]
    fn persistent_circuit_transmits_through_reconfiguration() {
        // A circuit present in both assignments keeps transmitting while
        // the other port reconfigures — the not-all-stop advantage.
        let mut d = DemandMatrix::zero(3);
        d.set(0, 0, ms(30)); // long flow on a persistent circuit
        d.set(1, 1, ms(5));
        d.set(1, 2, ms(5));
        let schedule = vec![
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 1)]),
                duration: ms(5),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 2)]),
                duration: ms(25),
            },
        ];
        let r = execute(&schedule, &d, ms(10), ExecConfig::default(), Time::ZERO);
        // Window 1: [0, 15): (0,0) serves 5 of 30.
        // Window 2: stall 10 for (1,0) but (0,0) persists and transmits
        // through it: finishes remaining 25 at 15+25 = 40.
        assert_eq!(r.entry_finish[&(0, 0)], tms(40));
        assert_eq!(r.finish, tms(40));
        // Setups: 2 in window 1 + 1 new in window 2.
        assert_eq!(r.circuit_setups, 3);
    }

    #[test]
    fn all_stop_pauses_persistent_circuits() {
        let mut d = DemandMatrix::zero(3);
        d.set(0, 0, ms(30));
        d.set(1, 1, ms(5));
        d.set(1, 2, ms(5));
        let schedule = vec![
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 1)]),
                duration: ms(5),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 2)]),
                duration: ms(25),
            },
        ];
        let cfg = ExecConfig {
            switch: SwitchModel::AllStop,
            early_advance: true,
        };
        let r = execute(&schedule, &d, ms(10), cfg, Time::ZERO);
        // (0,0) pauses during window 2's reconfiguration: 15+10+25 = 50.
        assert_eq!(r.entry_finish[&(0, 0)], tms(50));
    }

    #[test]
    fn early_advance_cuts_idle_tails() {
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(2));
        let schedule = vec![TimedAssignment {
            assignment: Assignment::new(vec![(0, 0)]),
            duration: ms(100),
        }];
        let r = execute(&schedule, &d, ms(10), ExecConfig::default(), Time::ZERO);
        assert_eq!(r.finish, tms(12));
        assert_eq!(r.segments[0].tx_end, tms(12));
    }

    #[test]
    fn strict_slots_hold_the_full_duration() {
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(2));
        d.set(1, 1, ms(2));
        let schedule = vec![
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0)]),
                duration: ms(100),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(1, 1)]),
                duration: ms(100),
            },
        ];
        let cfg = ExecConfig {
            switch: SwitchModel::NotAllStop,
            early_advance: false,
        };
        let r = execute(&schedule, &d, ms(10), cfg, Time::ZERO);
        // Second slot starts only at 110 despite the first draining at 12.
        assert_eq!(r.entry_finish[&(1, 1)], tms(122));
    }

    #[test]
    fn identical_consecutive_assignments_pay_no_stall() {
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(20));
        let a = Assignment::new(vec![(0, 0)]);
        let schedule = vec![
            TimedAssignment {
                assignment: a.clone(),
                duration: ms(10),
            },
            TimedAssignment {
                assignment: a,
                duration: ms(10),
            },
        ];
        let r = execute(&schedule, &d, ms(10), ExecConfig::default(), Time::ZERO);
        // 10 stall + 10 + 10 with no second stall.
        assert_eq!(r.finish, tms(30));
        assert_eq!(r.circuit_setups, 1);
    }

    #[test]
    fn a_circuit_set_up_without_transmitting_replaces_the_old_one() {
        // (0,0) runs its full slot with demand left; (0,1)+(1,0) then
        // carries nothing but still replaces both circuits; when (0,0)
        // comes back it is a new circuit and pays δ again.
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(20));
        d.set(1, 1, ms(5));
        let schedule = vec![
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0), (1, 1)]),
                duration: ms(10),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 1), (1, 0)]),
                duration: ms(5),
            },
            TimedAssignment {
                assignment: Assignment::new(vec![(0, 0)]),
                duration: ms(10),
            },
        ];
        let r = execute(&schedule, &d, ms(10), ExecConfig::default(), Time::ZERO);
        // Window 1: [0, 20), (0,0) serves 10 of 20. Window 2: stall only,
        // [20, 30). Window 3: stall to 40, the last 10 of (0,0) to 50.
        assert_eq!(r.entry_finish[&(0, 0)], tms(50));
        assert_eq!(r.circuit_setups, 5);
    }

    #[test]
    fn a_run_stopped_at_a_limit_resumes_on_the_circuits_left_up() {
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(20));
        let plan = vec![TimedAssignment {
            assignment: Assignment::new(vec![(0, 0)]),
            duration: ms(20),
        }];
        let mut switch = Switch::new(2, ms(10), ExecConfig::default());
        let mut segments = Vec::new();
        let stop = switch.run(&plan, &mut d, Time::ZERO, tms(15), &mut segments);
        assert_eq!(stop, tms(15));
        assert_eq!(d.get(0, 0), ms(15));
        // Re-planned from the limit: (0,0) is still up, so no stall.
        let stop = switch.run(&plan, &mut d, stop, Time::MAX, &mut segments);
        assert_eq!(stop, tms(30));
        assert!(d.is_zero());
        assert_eq!(switch.setups, 1);
        assert_eq!(segments[1].tx_start, tms(15));
    }

    #[test]
    fn a_setup_cut_short_by_the_limit_completes_before_the_circuit_transmits() {
        for switch in [SwitchModel::NotAllStop, SwitchModel::AllStop] {
            let mut d = DemandMatrix::zero(2);
            d.set(0, 0, ms(20));
            let plan = vec![TimedAssignment {
                assignment: Assignment::new(vec![(0, 0)]),
                duration: ms(20),
            }];
            let cfg = ExecConfig {
                switch,
                early_advance: true,
            };
            let mut sw = Switch::new(2, ms(10), cfg);
            let mut segments = Vec::new();
            // Stopped 5 ms into the 10 ms setup: nothing transmitted.
            let stop = sw.run(&plan, &mut d, Time::ZERO, tms(5), &mut segments);
            assert_eq!(stop, tms(5));
            assert!(segments.is_empty());
            // Re-planned at 5: the circuit is the one being set up, so it
            // pays no second setup but waits out the first until 10.
            sw.run(&plan, &mut d, stop, Time::MAX, &mut segments);
            let seg = Segment {
                src: 0,
                dst: 0,
                tx_start: tms(10),
                tx_end: tms(30),
            };
            assert_eq!(segments, vec![seg], "{switch:?}");
            assert_eq!(sw.setups, 1);
        }
    }

    /// Up to eight windows of partial matchings on four ports (some
    /// empty, some a subset of the one before, so some stall only to
    /// tear circuits down), 1–60 ms each.
    fn arb_plan() -> impl Strategy<Value = Vec<TimedAssignment>> {
        let window = (
            0usize..24,
            proptest::collection::vec(any::<bool>(), 4),
            1u64..60,
        );
        proptest::collection::vec(window, 1..8).prop_map(|ws| {
            ws.into_iter()
                .map(|(perm, keep, dur)| {
                    // The `perm`-th permutation of four outputs.
                    let mut outs = [0usize, 1, 2, 3];
                    let mut code = perm;
                    for i in 0..4 {
                        outs.swap(i, i + code % (4 - i));
                        code /= 4 - i;
                    }
                    let pairs = (0..4).filter(|&i| keep[i]).map(|i| (i, outs[i])).collect();
                    TimedAssignment {
                        assignment: Assignment::new(pairs),
                        duration: ms(dur),
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A plan resumed at arbitrary limits writes the segments, sets
        /// up and drains exactly what one uninterrupted run does, under
        /// every execution config — limits inside stalls included.
        #[test]
        fn a_plan_resumed_at_any_limits_runs_as_one(
            plan in arb_plan(),
            demand in proptest::collection::vec(0u64..80, 16),
            steps in proptest::collection::vec(1u64..25_000, 1..16),
        ) {
            let mut d = DemandMatrix::zero(4);
            for (k, &v) in demand.iter().enumerate() {
                d.set(k / 4, k % 4, ms(v));
            }
            for switch in [SwitchModel::NotAllStop, SwitchModel::AllStop] {
                for early_advance in [true, false] {
                    let cfg = ExecConfig { switch, early_advance };
                    let mut whole = Switch::new(4, ms(10), cfg);
                    let (mut left, mut segs) = (d.clone(), Vec::new());
                    whole.run(&plan, &mut left, Time::ZERO, Time::MAX, &mut segs);

                    let mut sliced = Switch::new(4, ms(10), cfg);
                    let mut kept = KeptPlan::new(plan.clone());
                    let (mut rest, mut pieces) = (d.clone(), Vec::new());
                    let mut t = Time::ZERO;
                    for k in 0.. {
                        if kept.windows.is_empty() || (rest.is_zero() && !kept.is_cut()) {
                            break;
                        }
                        let limit = t + Dur::from_micros(steps[k % steps.len()]);
                        t = sliced.resume(&mut kept, &mut rest, t, limit, &mut pieces);
                        if t < limit {
                            break;
                        }
                    }
                    // The same segments; a window may write its own in
                    // another order.
                    let key = |s: &Segment| (s.tx_start, s.src, s.dst);
                    pieces.sort_by_key(key);
                    segs.sort_by_key(key);
                    prop_assert!(kept.held.is_empty(), "{:?}", cfg);
                    prop_assert_eq!(pieces, segs, "{:?}", cfg);
                    prop_assert_eq!(sliced.setups, whole.setups, "{:?}", cfg);
                    prop_assert_eq!(rest, left, "{:?}", cfg);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed to drain")]
    fn uncovered_demand_panics() {
        let mut d = DemandMatrix::zero(2);
        d.set(0, 0, ms(20));
        let schedule = vec![TimedAssignment {
            assignment: Assignment::new(vec![(0, 0)]),
            duration: ms(5),
        }];
        let _ = execute(&schedule, &d, ms(10), ExecConfig::default(), Time::ZERO);
    }

    #[test]
    fn zero_demand_matrix_finishes_immediately() {
        let d = DemandMatrix::zero(2);
        let r = execute(&[], &d, ms(10), ExecConfig::default(), tms(7));
        assert_eq!(r.finish, tms(7));
        assert_eq!(r.circuit_setups, 0);
    }
}
