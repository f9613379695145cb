//! Simulation time, durations and link bandwidth.
//!
//! All circuit-side arithmetic in this workspace is exact integer
//! arithmetic over **picoseconds**. This is deliberate: the paper's
//! Lemma 1 (`CCT <= 2 * T_cL`) is an exact statement about quantities
//! derived from the same `p_ij = d_ij / B` values, so with a consistent
//! integer clock the bound can be asserted in tests without any epsilon.
//! Picoseconds also keep the paper's bandwidth settings exact: one byte at
//! 100 Gbps is exactly 80 ps, and one byte at 1 Gbps is exactly 8000 ps.
//!
//! A `u64` of picoseconds covers about 213 days, far beyond the one-hour
//! trace horizon plus any queueing the simulations produce. Arithmetic is
//! checked (panics on overflow) rather than wrapping, so a corrupted
//! schedule fails loudly instead of silently producing nonsense.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// The latest arrival, in milliseconds, an input (a trace file, a wire
/// line) may carry: 2^32 ms, about 49.7 days. The clock ends after about
/// 213 days, so every instant planned from such an arrival — plus its
/// backlog and the reconfiguration delays on the way — still fits.
pub const MAX_ARRIVAL_MS: u64 = 1 << 32;

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulation time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// A sentinel far in the future; used as "no such event".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Construct from seconds (must be non-negative and finite).
    pub fn from_secs_f64(secs: f64) -> Time {
        Time(Dur::from_secs_f64(secs).as_ps())
    }

    /// Construct from integral milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }

    /// `self + d`, or [`Time::MAX`] past the end of the clock.
    pub const fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; a negative elapsed time
    /// always indicates a scheduling bug.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self
            .0
            .checked_sub(earlier.0)
            .expect("Time::since: earlier instant is later than self"))
    }

    /// `self - earlier` if non-negative, else `Dur::ZERO`.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);
    /// A sentinel duration longer than any schedule; used as "unbounded".
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }

    /// Construct from integral microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * PS_PER_US)
    }

    /// Construct from integral milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * PS_PER_MS)
    }

    /// Construct from integral milliseconds, or `None` when the duration
    /// does not fit the clock — the constructor for values read from
    /// flags and files.
    pub const fn checked_from_millis(ms: u64) -> Option<Dur> {
        match ms.checked_mul(PS_PER_MS) {
            Some(ps) => Some(Dur(ps)),
            None => None,
        }
    }

    /// Construct from integral seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * PS_PER_SEC)
    }

    /// Construct from seconds expressed as a float; rounds to the nearest
    /// picosecond.
    ///
    /// # Panics
    /// Panics on negative, NaN or out-of-range input.
    pub fn from_secs_f64(secs: f64) -> Dur {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Dur::from_secs_f64: invalid seconds {secs}"
        );
        let ps = secs * PS_PER_SEC as f64;
        assert!(ps <= u64::MAX as f64, "Dur::from_secs_f64: overflow");
        Dur(ps.round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The shorter of two durations.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// `self - other` if non-negative, else `Dur::ZERO`.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Ratio `self / other` as a float (for reporting only).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Dur) -> f64 {
        assert!(!other.is_zero(), "Dur::ratio: division by zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("Time + Dur overflow"))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("Time - Dur underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur + Dur overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur - Dur underflow"))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("Dur * u64 overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == u64::MAX {
        return write!(f, "inf");
    }
    if ps >= PS_PER_SEC {
        write!(f, "{:.6}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
    } else {
        write!(f, "{}ps", ps)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

/// Link bandwidth in bits per second.
///
/// The paper evaluates `B` from 1 Gbps to 100 Gbps; any positive rate is
/// supported. Transfer times are computed with ceiling division so a
/// non-empty flow never has a zero processing time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// One gigabit per second, the native rate of the Facebook trace.
    pub const GBPS: Bandwidth = Bandwidth(1_000_000_000);

    /// Construct from bits per second.
    ///
    /// # Panics
    /// Panics if `bps` is zero; a zero-rate link can never drain demand.
    pub fn from_bps(bps: u64) -> Bandwidth {
        assert!(bps > 0, "Bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Construct from gigabits per second.
    pub fn from_gbps(gbps: u64) -> Bandwidth {
        Bandwidth::from_bps(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Bytes per second, as a float (used by the fluid packet simulator).
    pub fn bytes_per_sec_f64(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// The time needed to move `bytes` bytes over this link at full rate:
    /// `p = ceil(bytes * 8 / B)`, expressed in picoseconds.
    ///
    /// This is Equation (1) of the paper, `p_ij = d_ij / B`.
    ///
    /// # Panics
    /// Panics if the time does not fit the picosecond clock; see
    /// [`Bandwidth::checked_transfer_time`].
    pub fn transfer_time(self, bytes: u64) -> Dur {
        self.checked_transfer_time(bytes)
            .expect("transfer time overflows u64 ps")
    }

    /// [`Bandwidth::transfer_time`], or `None` when it exceeds
    /// [`Dur::MAX`] (about 2.3 PB at 1 Gbps).
    pub fn checked_transfer_time(self, bytes: u64) -> Option<Dur> {
        let bits = (bytes as u128) * 8 * (PS_PER_SEC as u128);
        let ps = bits.div_ceil(self.0 as u128);
        u64::try_from(ps).ok().map(Dur::from_ps)
    }

    /// Inverse of [`Bandwidth::transfer_time`]: the number of bytes fully
    /// delivered in `dur` at this rate (floor).
    pub fn bytes_in(self, dur: Dur) -> u64 {
        let bits = (dur.as_ps() as u128) * (self.0 as u128) / (PS_PER_SEC as u128);
        let bytes = bits / 8;
        bytes.min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_exact_for_paper_rates() {
        // 1 MB at 1 Gbps = 8 ms.
        assert_eq!(
            Bandwidth::GBPS.transfer_time(1_000_000),
            Dur::from_millis(8)
        );
        // 1 byte at 100 Gbps = 80 ps.
        assert_eq!(Bandwidth::from_gbps(100).transfer_time(1), Dur::from_ps(80));
        // 1 MB at 10 Gbps = 0.8 ms.
        assert_eq!(
            Bandwidth::from_gbps(10).transfer_time(1_000_000),
            Dur::from_micros(800)
        );
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666...s must round up.
        let b = Bandwidth::from_bps(3);
        let t = b.transfer_time(1);
        assert!(t > Dur::from_secs_f64(8.0 / 3.0 - 1e-9));
        assert_eq!(t.as_ps(), (8 * PS_PER_SEC as u128).div_ceil(3) as u64);
    }

    #[test]
    fn nonzero_flow_has_nonzero_processing_time() {
        let b = Bandwidth::from_gbps(100_000);
        assert!(b.transfer_time(1) > Dur::ZERO);
    }

    #[test]
    fn bytes_in_inverts_transfer_time() {
        let b = Bandwidth::GBPS;
        for bytes in [1u64, 1_000_000, 123_456_789] {
            let t = b.transfer_time(bytes);
            assert!(b.bytes_in(t) >= bytes);
            // The ceiling adds less than one extra byte's worth of time.
            assert!(b.bytes_in(t) <= bytes + 1);
        }
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_millis(5) + Dur::from_micros(3);
        assert_eq!(t.since(Time::from_millis(5)), Dur::from_micros(3));
        assert_eq!(t.saturating_since(Time::MAX), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier instant is later")]
    fn negative_elapsed_panics() {
        let _ = Time::ZERO.since(Time::from_millis(1));
    }

    #[test]
    fn duration_ordering_and_display() {
        assert!(Dur::from_millis(1) < Dur::from_secs(1));
        assert_eq!(format!("{}", Dur::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", Dur::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Dur::from_ps(42)), "42ps");
        assert_eq!(format!("{}", Time::MAX), "inf");
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::from_millis(1), Dur::from_millis(2)].into_iter().sum();
        assert_eq!(total, Dur::from_millis(3));
    }
}
