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
//! [`Switch`] is the executor, resumable at a limit (the aggregated replay
//! of `ocs_sim::CircuitBackend` re-plans at every Coflow arrival);
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
use std::collections::HashMap;

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
        mut t: Time,
        limit: Time,
        segments: &mut Vec<Segment>,
    ) -> Time {
        for ta in plan {
            if remaining.is_zero() || t >= limit {
                break;
            }
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
            let pending = persistent
                .iter()
                .flatten()
                .fold(Dur::ZERO, |a, &b| a.max(b));
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
            let window_end = (t + stall + t_eff).min(limit);

            // Circuits not in this assignment are torn down.
            let mut next = vec![None; self.cur.len()];
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let tx_start = t + offset(k);
                next[i] = Some((j, tx_start));
                let served = remaining.drain(i, j, window_end.saturating_since(tx_start));
                if served > Dur::ZERO {
                    segments.push(Segment {
                        src: i,
                        dst: j,
                        tx_start,
                        tx_end: tx_start + served,
                    });
                }
            }
            self.cur = next;
            t = window_end;
        }
        t
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
