//! Starvation avoidance (§4.2 of the paper).
//!
//! Strict priority lets high-priority Coflows block low-priority ones
//! indefinitely — a problem if, say, a malicious tenant keeps submitting
//! small Coflows. The paper's lightweight fix: a fixed list of `N`
//! assignments `Φ = {A_1, …, A_N}` that together cover all `N²` circuits,
//! and two parameters `T ≫ τ > δ`. Time is divided into recurring
//! `(T + τ)` intervals: during the `T` part, normal inter-Coflow
//! scheduling runs; during the `τ` part, the assignment `A_k` (round
//! robin over `Φ`) is configured and **all** Coflows with demand on its
//! circuits share the link bandwidth. Every Coflow therefore receives
//! non-zero service within every `N·(T + τ)` of its lifetime.
//!
//! We realize `Φ` as the `N` cyclic-shift permutations
//! (`in.i → out.(i+k mod N)`), which provably cover every circuit.
//! Guard windows stand in the PRT as [`ResvKind::Guard`] reservations
//! ([`StarvationGuard::seed_prt`]); Algorithm 1 then schedules around
//! them without any modification — to the intra-Coflow routine they are
//! simply port reservations it must not displace.

use crate::prt::{Prt, ResvKind};
use ocs_model::{Assignment, Dur, Time};

/// Parameters of the starvation guard: `T` (normal scheduling) and `τ`
/// (shared round-robin window) per recurring interval.
///
/// Construct with [`GuardConfig::new`] (the struct is
/// `#[non_exhaustive]`, so struct literals do not compile outside this
/// crate):
///
/// ```
/// use sunflow_core::GuardConfig;
/// use ocs_model::Dur;
///
/// let g = GuardConfig::new(Dur::from_millis(100), Dur::from_millis(30));
/// assert_eq!(g.tau, Dur::from_millis(30));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct GuardConfig {
    /// Length of the priority-scheduled part of each interval (`T`).
    pub period: Dur,
    /// Length of the shared round-robin window (`τ`). Must exceed the
    /// reconfiguration delay `δ` or the window could transmit nothing.
    pub tau: Dur,
}

impl GuardConfig {
    /// A guard running normal scheduling for `period` (`T`) followed by
    /// a `tau` (`τ`) shared window, per recurring interval.
    pub fn new(period: Dur, tau: Dur) -> GuardConfig {
        GuardConfig { period, tau }
    }

    /// Set the priority-scheduled part (`T`).
    pub fn period(mut self, period: Dur) -> GuardConfig {
        self.period = period;
        self
    }

    /// Set the shared-window length (`τ`).
    pub fn tau(mut self, tau: Dur) -> GuardConfig {
        self.tau = tau;
        self
    }

    /// Validate against a fabric's `δ`: the paper requires `T ≫ τ > δ`.
    ///
    /// # Panics
    /// Panics if `τ <= δ` or `T < τ`.
    pub fn validate(&self, delta: Dur) {
        assert!(self.tau > delta, "guard window τ must exceed δ");
        assert!(self.period >= self.tau, "T must dominate τ");
    }
}

/// One concrete guard window on the timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardWindow {
    /// Window start (ports taken, reconfiguration begins).
    pub start: Time,
    /// Window end (ports released).
    pub end: Time,
    /// Index of the interval this window belongs to.
    pub interval: u64,
    /// The assignment `A_k` configured during the window.
    pub assignment: Assignment,
}

impl GuardWindow {
    /// Transmit time available on each circuit of the window:
    /// `τ − δ`.
    pub fn transmit_time(&self, delta: Dur) -> Dur {
        self.end.since(self.start).saturating_sub(delta)
    }
}

/// Generator of guard windows for an `n`-port fabric.
#[derive(Clone, Copy, Debug)]
pub struct StarvationGuard {
    config: GuardConfig,
    ports: usize,
}

impl StarvationGuard {
    /// Create a guard for an `n`-port fabric.
    ///
    /// # Panics
    /// Panics if `n` is zero or the configuration is degenerate
    /// (`τ` or `T` zero).
    pub fn new(ports: usize, config: GuardConfig) -> StarvationGuard {
        assert!(ports > 0, "guard needs at least one port");
        assert!(!config.tau.is_zero() && !config.period.is_zero());
        StarvationGuard { config, ports }
    }

    /// The guard's configuration.
    pub fn config(&self) -> GuardConfig {
        self.config
    }

    /// Length of one full interval, `T + τ`.
    pub fn interval_len(&self) -> Dur {
        self.config.period + self.config.tau
    }

    /// The guard window of interval `m`:
    /// `[m(T+τ) + T, (m+1)(T+τ))` with assignment `A_(m mod N)`.
    pub fn window(&self, m: u64) -> GuardWindow {
        let start = self.window_start(m);
        let end = start + self.config.tau;
        GuardWindow {
            start,
            end,
            interval: m,
            assignment: Assignment::cyclic_shift(self.ports, (m % self.ports as u64) as usize),
        }
    }

    /// When the guard window of interval `m` starts: `m(T+τ) + T`.
    pub fn window_start(&self, m: u64) -> Time {
        Time::ZERO + self.interval_len() * m + self.config.period
    }

    /// The first guard-window end at or after `t` (the next natural
    /// rescheduling point for the online replay).
    pub fn next_window_end_after(&self, t: Time) -> Time {
        let m = self.interval_at(t);
        let w = self.window(m);
        if w.end > t {
            w.end
        } else {
            self.window(m + 1).end
        }
    }

    /// The interval `t` falls in. Its window is the earliest one not
    /// over at `t`: still to come, or under way.
    pub fn interval_at(&self, t: Time) -> u64 {
        t.as_ps() / self.interval_len().as_ps()
    }

    /// Reserve the windows of intervals `first..` that start before
    /// `until` on all of their circuits, as `Guard` reservations, and
    /// return the first interval left unreserved — the cursor to pass as
    /// `first` next time. The windows are a fixed timetable, so a caller
    /// keeps them as *standing* obstacles: reserved once, extended by the
    /// returned cursor as its planning horizon grows, never re-derived.
    /// A caller whose cursor has fallen behind its clock resumes from
    /// [`StarvationGuard::interval_at`] the clock, so that a window under
    /// way then stands like any other and nothing is planned through it.
    pub fn seed_prt(&self, prt: &mut Prt, first: u64, until: Time) -> u64 {
        assert_eq!(prt.ports(), self.ports, "PRT port count mismatch");
        let mut m = first;
        while self.window_start(m) < until {
            let w = self.window(m);
            for &(i, j) in w.assignment.pairs() {
                prt.reserve(i, j, w.start, w.end, ResvKind::Guard);
            }
            m += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> StarvationGuard {
        StarvationGuard::new(
            4,
            GuardConfig::new(Dur::from_millis(100), Dur::from_millis(20)),
        )
    }

    #[test]
    fn windows_tile_the_timeline() {
        let g = guard();
        let w0 = g.window(0);
        assert_eq!(w0.start, Time::from_millis(100));
        assert_eq!(w0.end, Time::from_millis(120));
        let w1 = g.window(1);
        assert_eq!(w1.start, Time::from_millis(220));
        assert_eq!(w1.interval, 1);
    }

    #[test]
    fn round_robin_covers_all_circuits_in_n_intervals() {
        let g = guard();
        let mut seen = [false; 16];
        for m in 0..4 {
            for &(i, j) in g.window(m).assignment.pairs() {
                seen[i * 4 + j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // And the cycle repeats.
        assert_eq!(g.window(0).assignment, g.window(4).assignment);
    }

    #[test]
    fn next_window_end() {
        let g = guard();
        assert_eq!(g.next_window_end_after(Time::ZERO), Time::from_millis(120));
        assert_eq!(
            g.next_window_end_after(Time::from_millis(120)),
            Time::from_millis(240)
        );
        assert_eq!(
            g.next_window_end_after(Time::from_millis(119)),
            Time::from_millis(120)
        );
    }

    #[test]
    fn seeding_blocks_all_ports_during_window() {
        let g = guard();
        let mut prt = Prt::new(4);
        assert_eq!(g.seed_prt(&mut prt, 0, Time::from_millis(240)), 2);
        for p in 0..4 {
            assert!(!prt.in_free_at(p, Time::from_millis(110)));
            assert!(!prt.out_free_at(p, Time::from_millis(110)));
            assert!(prt.in_free_at(p, Time::from_millis(50)));
        }
        // Guard reservations are not flow reservations.
        assert!(prt.flow_reservations().is_empty());
    }

    #[test]
    fn seeding_extends_from_the_cursor_and_stands_a_window_under_way() {
        let g = guard();
        let mut prt = Prt::new(4);
        // A clock inside window 0 is still in interval 0: resuming there
        // stands the window under way, then window 1.
        let first = g.interval_at(Time::from_millis(110));
        assert_eq!(first, 0);
        let next = g.seed_prt(&mut prt, first, Time::from_millis(300));
        assert_eq!(next, 2);
        assert!(!prt.in_free_at(0, Time::from_millis(115)));
        assert!(!prt.in_free_at(0, Time::from_millis(230)));
        // Once window 0 is over the clock is in interval 1.
        assert_eq!(g.interval_at(Time::from_millis(120)), 1);
        // A shorter horizon neither moves the cursor back nor reserves twice.
        assert_eq!(g.seed_prt(&mut prt, next, Time::from_millis(200)), next);
        // Extending picks up exactly where the cursor stopped.
        assert_eq!(g.seed_prt(&mut prt, next, Time::from_millis(500)), 4);
        assert_eq!(prt.all_reservations().len(), 4 * 4);
    }

    #[test]
    fn transmit_time_subtracts_delta() {
        let g = guard();
        let w = g.window(0);
        assert_eq!(w.transmit_time(Dur::from_millis(10)), Dur::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn tau_not_exceeding_delta_is_rejected() {
        GuardConfig::new(Dur::from_millis(100), Dur::from_millis(5)).validate(Dur::from_millis(10));
    }
}
