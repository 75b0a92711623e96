//! Simulated time as integer picoseconds.
//!
//! All models in this workspace express latencies either in nanoseconds or
//! in CPU cycles at the paper's 2 GHz clock (Table 1). Picosecond integer
//! resolution represents both exactly (1 cycle @ 2 GHz = 500 ps) while
//! keeping event ordering total and reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// The chip clock frequency assumed by the paper's Table 1, in GHz.
pub const DEFAULT_CLOCK_GHZ: f64 = 2.0;

const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per cycle at the default 2 GHz clock.
const PS_PER_CYCLE: u64 = 500;

/// An absolute point in simulated time (picoseconds since simulation start).
///
/// `SimTime` is ordered, copyable, and cheap; arithmetic with
/// [`SimDuration`] is exact integer arithmetic.
///
/// # Example
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(10);
/// assert_eq!(t.as_ns(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (picoseconds).
///
/// # Example
/// ```
/// use simkit::SimDuration;
/// let d = SimDuration::from_cycles(6); // LLC hit latency in Table 1
/// assert_eq!(d.as_ns_f64(), 3.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Constructs an instant `ns` nanoseconds after the origin.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Raw picoseconds since the origin.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since the origin (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Nanoseconds since the origin as a float.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds since the origin as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier <= self,
            "duration_since: earlier ({earlier:?}) is after self ({self:?})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating version of [`SimTime::duration_since`]: returns zero when
    /// `earlier` is later than `self`.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Constructs a duration from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Constructs a duration from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Constructs a duration from CPU cycles at the default 2 GHz clock.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimDuration(cycles * PS_PER_CYCLE)
    }

    /// Constructs a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(ns * PS_PER_NS as f64))
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Nanoseconds as a float.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Whole cycles at the default 2 GHz clock (truncating).
    #[inline]
    pub const fn as_cycles(self) -> u64 {
        self.0 / PS_PER_CYCLE
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a float factor, rounding to the nearest
    /// picosecond. Negative factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

/// `x.round() as u64` — half away from zero, NaN and negatives to 0,
/// saturating at `u64::MAX` — without `f64::round`, which is a libm call
/// on the baseline x86-64 target. Below 2⁵² truncation is exact and so is
/// the fraction `x - t` (Sterbenz: `t ≤ x < 2t`, or `t = 0`), so one
/// compare with 0.5 rounds exactly; at or above 2⁵² every `f64` is an
/// integer and the saturating cast is already exact. NaN fails the first
/// test and casts to 0.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const INTEGRAL_FROM: f64 = (1u64 << 52) as f64;
    if x < INTEGRAL_FROM {
        let t = x as u64;
        t + (x - t as f64 >= 0.5) as u64
    } else {
        x as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({} ns)", self.as_ns_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({} ns)", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cycle_conversion_is_exact_at_2ghz() {
        assert_eq!(SimDuration::from_cycles(1).as_ps(), 500);
        assert_eq!(SimDuration::from_cycles(2).as_ns(), 1);
        assert_eq!(SimDuration::from_cycles(600).as_ns(), 300);
    }

    #[test]
    fn ns_and_us_roundtrip() {
        let d = SimDuration::from_us(3);
        assert_eq!(d.as_ns(), 3_000);
        assert_eq!(d.as_us_f64(), 3.0);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_ns(100);
        let t2 = t1 + SimDuration::from_ns(50);
        assert_eq!(t2 - t0, SimDuration::from_ns(150));
        assert_eq!(t2.duration_since(t1).as_ns(), 50);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_ns(10);
        let late = SimTime::from_ns(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_duration_since(early).as_ns(), 10);
    }

    #[test]
    fn from_ns_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_ns_f64(1.4994).as_ps(), 1_499);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(0.0005).as_ps(), 1);
    }

    fn check_round(x: f64) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            round_to_u64(x),
            x.round() as u64,
            "x = {:e} (bits {:#018x})",
            x,
            x.to_bits()
        );
        Ok(())
    }

    #[test]
    fn round_to_u64_matches_round_on_named_edges() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5f64.next_down(),
            0.5f64.next_up(),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            two52 - 0.5,
            (two52 - 0.5).next_down(),
            u64::MAX as f64,
            (u64::MAX as f64).next_down(),
            (u64::MAX as f64).next_up(),
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
            -1.5,
            -1e300,
        ];
        for x in [two52, two53] {
            edges.extend([x.next_down(), x, x.next_up()]);
        }
        for x in edges {
            check_round(x).unwrap();
        }
        assert_eq!(round_to_u64(f64::NAN), 0);
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn round_to_u64_matches_round_on_any_bits(bits in any::<u64>()) {
            // Every sign, magnitude and class: subnormals, NaNs, ±∞.
            check_round(f64::from_bits(bits))?;
        }

        #[test]
        fn round_to_u64_matches_round_on_finite_positives(
            x in 0.0..1.0f64,
            scale in 0..64i32,
        ) {
            check_round(x * 2f64.powi(scale))?;
        }

        #[test]
        fn round_to_u64_matches_round_around_every_half(k in any::<u64>(), shift in 0..64u32) {
            // k + 0.5 exists for k < 2⁵²; check it and one ulp either side.
            let k = (k >> shift) & ((1 << 52) - 1);
            let half = k as f64 + 0.5;
            for x in [half.next_down(), half, half.next_up()] {
                check_round(x)?;
            }
        }
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_ns(100);
        assert_eq!(d.mul_f64(0.5).as_ns(), 50);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::from_ns(5)).is_empty());
        assert!(!format!("{:?}", SimDuration::from_ns(5)).is_empty());
    }

    #[test]
    fn ordering_matches_picoseconds() {
        assert!(SimTime::from_ps(1) < SimTime::from_ps(2));
        assert!(SimDuration::from_ns(1) < SimDuration::from_us(1));
        assert_eq!(SimTime::from_ns(3).max(SimTime::from_ns(7)).as_ns(), 7);
    }
}
