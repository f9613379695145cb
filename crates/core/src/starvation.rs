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
//! Every `A_k` is a perfect matching, so a window takes *every* port:
//! whether a port is inside one at `t`, and when the next one starts or
//! ends, is arithmetic on `t mod (T + τ)` ([`StarvationGuard::probe`]),
//! the same for all ports. A guarded [`Prt`](crate::Prt) merges that
//! answer into every port probe, so Algorithm 1 schedules around the
//! windows without any modification — to the intra-Coflow routine they
//! are simply port reservations it must not displace — and no window is
//! ever written into the table.

use crate::prt::PortProbe;
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

    /// Validate against a fabric's `δ`: the paper requires `T ≫ τ > δ`,
    /// and the interval `T + τ` must fit the picosecond clock.
    pub fn validate(&self, delta: Dur) -> Result<(), GuardError> {
        if self.tau <= delta {
            return Err(GuardError::TauNotAboveDelta {
                tau: self.tau,
                delta,
            });
        }
        if self.period < self.tau {
            return Err(GuardError::PeriodBelowTau {
                period: self.period,
                tau: self.tau,
            });
        }
        if self.period.as_ps().checked_add(self.tau.as_ps()).is_none() {
            return Err(GuardError::IntervalOverflow);
        }
        Ok(())
    }
}

/// Why a [`GuardConfig`] cannot run on a fabric ([`GuardConfig::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardError {
    /// `τ <= δ`: a window would end before its circuits are set up.
    TauNotAboveDelta {
        /// The rejected window length.
        tau: Dur,
        /// The fabric's reconfiguration delay.
        delta: Dur,
    },
    /// `T < τ`: the shared windows would outweigh priority scheduling.
    PeriodBelowTau {
        /// The rejected period.
        period: Dur,
        /// The window length it falls below.
        tau: Dur,
    },
    /// `T + τ` overflows the picosecond clock.
    IntervalOverflow,
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::TauNotAboveDelta { tau, delta } => {
                write!(f, "guard window τ ({tau}) must exceed δ ({delta})")
            }
            GuardError::PeriodBelowTau { period, tau } => {
                write!(f, "guard period T ({period}) must not be below τ ({tau})")
            }
            GuardError::IntervalOverflow => {
                write!(f, "guard interval T + τ overflows the picosecond clock")
            }
        }
    }
}

impl std::error::Error for GuardError {}

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

/// The guard's timetable on an `n`-port fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
        let start = Time::ZERO + self.interval_len() * m + self.config.period;
        GuardWindow {
            start,
            end: start + self.config.tau,
            interval: m,
            assignment: Assignment::cyclic_shift(self.ports, (m % self.ports as u64) as usize),
        }
    }

    /// The first guard-window end strictly after `t` (the next natural
    /// rescheduling point for the online replay).
    pub fn next_window_end_after(&self, t: Time) -> Time {
        self.probe(t)
            .next_release
            .expect("the timetable never ends")
    }

    /// What the timetable contributes to a probe of any port at `t`, as
    /// if every window stood in the table as a reservation on each of
    /// its circuits. With `L = T + τ` and `m = ⌊t / L⌋`, window `m` is
    /// `[mL + T, (m+1)L)`: inside it the port is busy until `(m+1)L` and
    /// the next window starts at `(m+1)L + T`; before it the port is
    /// free, window `m` starts next and its end is the next release. An
    /// instant past the end of the clock saturates to `Time::MAX`
    /// ("never").
    #[inline]
    pub fn probe(&self, t: Time) -> PortProbe {
        let (period, len) = (self.config.period.as_ps(), self.interval_len().as_ps());
        let origin = t.as_ps() / len * len;
        let start = origin.saturating_add(period);
        let end = origin.saturating_add(len);
        let inside = t.as_ps() >= start;
        PortProbe {
            free: !inside,
            next_start: Time::from_ps(if inside {
                end.saturating_add(period)
            } else {
                start
            }),
            next_release: Some(Time::from_ps(end)),
        }
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

    /// The probe is the probe of a table holding every window as a
    /// reservation: busy exactly inside `[mL + T, (m+1)L)`, the next
    /// start and release those of the window under way or to come.
    #[test]
    fn probe_answers_as_if_every_window_stood_in_the_table() {
        let g = guard();
        let at = |ms| g.probe(Time::from_millis(ms));
        let probe = |free, start, release| PortProbe {
            free,
            next_start: Time::from_millis(start),
            next_release: Some(Time::from_millis(release)),
        };
        assert_eq!(at(0), probe(true, 100, 120));
        assert_eq!(at(99), probe(true, 100, 120));
        // Half-open: busy from the start, free again exactly at the end.
        assert_eq!(at(100), probe(false, 220, 120));
        assert_eq!(at(119), probe(false, 220, 120));
        assert_eq!(at(120), probe(true, 220, 240));
        assert_eq!(at(230), probe(false, 340, 240));
    }

    /// Past the end of the clock a window never starts or ends.
    #[test]
    fn probe_saturates_at_the_end_of_the_clock() {
        let p = guard().probe(Time::from_ps(u64::MAX - 1));
        assert_eq!(p.next_start, Time::MAX);
        assert_eq!(p.next_release, Some(Time::MAX));
    }

    #[test]
    fn transmit_time_subtracts_delta() {
        let g = guard();
        let w = g.window(0);
        assert_eq!(w.transmit_time(Dur::from_millis(10)), Dur::from_millis(10));
    }

    #[test]
    fn validate_names_the_violated_constraint() {
        let ms = Dur::from_millis;
        let check = |t, tau| GuardConfig::new(t, tau).validate(ms(10));
        assert_eq!(check(ms(100), ms(30)), Ok(()));
        let tau_low = GuardError::TauNotAboveDelta {
            tau: ms(10),
            delta: ms(10),
        };
        assert_eq!(check(ms(100), ms(10)), Err(tau_low));
        assert!(tau_low.to_string().contains("must exceed δ"));
        let period_low = GuardError::PeriodBelowTau {
            period: ms(20),
            tau: ms(30),
        };
        assert_eq!(check(ms(20), ms(30)), Err(period_low));
        assert!(check(Dur::ZERO, Dur::ZERO).is_err());
        assert_eq!(check(Dur::MAX, ms(30)), Err(GuardError::IntervalOverflow));
    }
}
