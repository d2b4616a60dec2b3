//! Physical-quantity newtypes used throughout the workspace.
//!
//! The schedulability analysis in the paper manipulates three kinds of
//! quantities: *time* (busy periods, response times, inter-arrival times,
//! jitter), *data sizes* in bits (payloads, Ethernet frame sizes) and *link
//! speeds* in bits per second.  Mixing these up is a classic source of silent
//! errors (the paper itself switches between µs, ms and seconds), so each is
//! wrapped in a dedicated newtype with only the physically meaningful
//! arithmetic implemented.
//!
//! Times are stored as signed 64-bit integer picoseconds (one bit at
//! 10 Gbit/s is 100 ps; the range is about ±106 days).  The response-time
//! equations only add, multiply and floor/ceil-divide times, so every bound
//! is computed exactly: fixed-point iterations stop on equality and
//! soundness checks are a plain `<=`.  `+`, `-`, negation and `* u64`
//! saturate at [`Time::MIN`]/[`Time::MAX`] instead of wrapping.
//!
//! Floats appear only at the boundary: the `from_secs`-style constructors
//! round a literal input to the nearest tick (that rounded value *is* the
//! model, for the analysis and the simulator alike), the `as_secs`-style
//! accessors and `Time / Time` return `f64` for telemetry, and every
//! *derived* cost rounds up ([`BitRate::transmission_time`], `Time * f64`),
//! so rounding never makes a bound optimistic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Ticks (picoseconds) per second.
const TICKS_PER_SEC: u64 = 1_000_000_000_000;

/// A span of time, stored as integer picoseconds.
///
/// `Time` is used both for durations (transmission times, busy periods) and
/// for instants on the simulator timeline (where the origin is the start of
/// the simulation).  It serialises as its integer picosecond count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Time(i64);

/// Round a float tick count to the nearest tick; out-of-range values
/// saturate (`as` from a float saturates, and maps NaN to zero).
// tidy-allow: float the f64 boundary: literal inputs round to the nearest tick
fn round_ticks(ticks: f64) -> Time {
    Time(ticks.round() as i64)
}

impl Time {
    /// The zero duration.
    pub const ZERO: Time = Time(0);

    /// The largest representable time (about 106 days): the value every
    /// overflowing sum or product saturates at.  Any analysis quantity that
    /// reaches it has long since exceeded every horizon.
    pub const MAX: Time = Time(i64::MAX);

    /// The most negative representable time.
    pub const MIN: Time = Time(i64::MIN);

    /// Construct a time from integer picoseconds (ticks).
    #[inline]
    pub const fn from_ps(ps: i64) -> Self {
        Time(ps)
    }

    /// The value in integer picoseconds (ticks).
    #[inline]
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// Construct a time from seconds, rounded to the nearest picosecond.
    #[inline]
    // tidy-allow: float the f64 boundary: literal inputs round to the nearest tick
    pub fn from_secs(secs: f64) -> Self {
        round_ticks(secs * 1e12)
    }

    /// Construct a time from milliseconds, rounded to the nearest picosecond.
    #[inline]
    // tidy-allow: float the f64 boundary: literal inputs round to the nearest tick
    pub fn from_millis(ms: f64) -> Self {
        round_ticks(ms * 1e9)
    }

    /// Construct a time from microseconds, rounded to the nearest picosecond.
    #[inline]
    // tidy-allow: float the f64 boundary: literal inputs round to the nearest tick
    pub fn from_micros(us: f64) -> Self {
        round_ticks(us * 1e6)
    }

    /// Construct a time from nanoseconds, rounded to the nearest picosecond.
    #[inline]
    // tidy-allow: float the f64 boundary: literal inputs round to the nearest tick
    pub fn from_nanos(ns: f64) -> Self {
        round_ticks(ns * 1e3)
    }

    /// The value in seconds.
    #[inline]
    // tidy-allow: float the f64 boundary: telemetry accessor
    pub fn as_secs(self) -> f64 {
        self.in_units(1e12)
    }

    /// The value in milliseconds.
    #[inline]
    // tidy-allow: float the f64 boundary: telemetry accessor
    pub fn as_millis(self) -> f64 {
        self.in_units(1e9)
    }

    /// The value in microseconds.
    #[inline]
    // tidy-allow: float the f64 boundary: telemetry accessor
    pub fn as_micros(self) -> f64 {
        self.in_units(1e6)
    }

    /// The value in nanoseconds.
    #[inline]
    // tidy-allow: float the f64 boundary: telemetry accessor
    pub fn as_nanos(self) -> f64 {
        self.in_units(1e3)
    }

    /// The value in units of `ticks_per_unit` picoseconds (one correctly
    /// rounded division).
    #[inline]
    // tidy-allow: float the f64 boundary: telemetry accessor
    fn in_units(self, ticks_per_unit: f64) -> f64 {
        // tidy-allow: float the f64 boundary: telemetry accessor
        self.0 as f64 / ticks_per_unit
    }

    /// `true` if this time is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if this time is negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Clamp a possibly-negative time at zero.
    #[inline]
    pub fn clamp_non_negative(self) -> Time {
        Time(self.0.max(0))
    }

    /// Checked addition: `None` if the sum is not representable.
    #[inline]
    #[must_use]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Checked subtraction: `None` if the difference is not representable.
    #[inline]
    #[must_use]
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// Checked multiplication by an instance/cycle count: `None` if the
    /// product is not representable.  This is the checked form of the
    /// `CSUM · q` / `TSUM · q` products of the response-time equations.
    #[inline]
    #[must_use]
    pub fn checked_mul(self, rhs: u64) -> Option<Time> {
        i64::try_from(i128::from(self.0) * i128::from(rhs))
            .ok()
            .map(Time)
    }

    /// Integer division of `self` by a strictly positive period: `floor(self / period)`.
    ///
    /// Used by the interference functions `MX`/`NX` which splice whole GMF
    /// cycles with a residual window.  Negative `self` returns 0 whole
    /// periods (the analysis never needs negative windows).
    #[inline]
    pub fn div_floor(self, period: Time) -> u64 {
        assert!(
            period.0 > 0,
            "div_floor requires a strictly positive period, got {period:?}"
        );
        self.0.max(0).unsigned_abs() / period.0.unsigned_abs()
    }

    /// Ceiling division of `self` by a strictly positive period:
    /// `ceil(self / period)`, 0 for non-positive `self`.
    #[inline]
    pub fn div_ceil(self, period: Time) -> u64 {
        assert!(
            period.0 > 0,
            "div_ceil requires a strictly positive period, got {period:?}"
        );
        self.0
            .max(0)
            .unsigned_abs()
            .div_ceil(period.0.unsigned_abs())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0.unsigned_abs();
        if ps == 0 {
            write!(f, "0 s")
        } else if ps < 1_000_000 {
            write!(f, "{:.3} ns", self.as_nanos())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3} µs", self.as_micros())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.4} ms", self.as_millis())
        } else {
            write!(f, "{:.6} s", self.as_secs())
        }
    }
}

impl Add for Time {
    type Output = Time;
    /// Saturating: an overflowing sum clamps at [`Time::MAX`] (or
    /// [`Time::MIN`]).  Saturating *upward* keeps interference
    /// accumulations sound (the result is still an upper bound) and
    /// monotone, so a saturated busy-period iterate deterministically trips
    /// the horizon check and surfaces as a loud `HorizonExceeded`.
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Saturating, like `+`.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Neg for Time {
    type Output = Time;
    /// Saturating: `-Time::MIN` is [`Time::MAX`].
    #[inline]
    fn neg(self) -> Time {
        Time(self.0.saturating_neg())
    }
}

// tidy-allow: float the f64 boundary: scaling by a ratio rounds up
impl Mul<f64> for Time {
    type Output = Time;
    /// Scale by a non-integer factor (a CPU slow-down, a horizon
    /// fraction), rounded *up* to the next tick so a scaled cost is never
    /// optimistic.  Out-of-range products saturate.
    #[inline]
    // tidy-allow: float the f64 boundary: scaling by a ratio rounds up
    fn mul(self, rhs: f64) -> Time {
        // tidy-allow: float the f64 boundary: scaling by a ratio rounds up
        Time((self.0 as f64 * rhs).ceil() as i64)
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    /// Saturating multiplication by an instance/cycle count, like `+`.
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        match i64::try_from(rhs) {
            Ok(rhs) => Time(self.0.saturating_mul(rhs)),
            Err(_) if self.0 < 0 => Time::MIN,
            Err(_) if self.0 == 0 => Time::ZERO,
            Err(_) => Time::MAX,
        }
    }
}

// tidy-allow: float the f64 boundary: a dimensionless telemetry ratio
impl Div<Time> for Time {
    // tidy-allow: float the f64 boundary: a dimensionless telemetry ratio
    type Output = f64;
    /// The dimensionless ratio of two times (utilisations, telemetry).
    #[inline]
    // tidy-allow: float the f64 boundary: a dimensionless telemetry ratio
    fn div(self, rhs: Time) -> f64 {
        // tidy-allow: float the f64 boundary: a dimensionless telemetry ratio
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

/// A data size in bits.
///
/// Exact integer arithmetic: payload sizes, header sizes and Ethernet frame
/// sizes are all whole numbers of bits in the paper's model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bits(u64);

impl Bits {
    /// Zero bits.
    pub const ZERO: Bits = Bits(0);

    /// Construct from a number of bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Bits(bits)
    }

    /// Construct from a number of bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        Bits(bytes * 8)
    }

    /// The value in bits.
    #[inline]
    pub const fn as_bits(self) -> u64 {
        self.0
    }

    /// The value in whole bytes, rounding up.
    #[inline]
    pub const fn as_bytes_ceil(self) -> u64 {
        self.0.div_ceil(8)
    }

    /// `true` if zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Bits) -> Bits {
        Bits(self.0.saturating_sub(rhs.0))
    }

    /// The time needed to serialise this many bits on a link of the given
    /// speed.
    #[inline]
    pub fn transmission_time(self, speed: BitRate) -> Time {
        speed.transmission_time(self)
    }

    /// The larger of two sizes.
    #[inline]
    pub fn max(self, other: Bits) -> Bits {
        Bits(self.0.max(other.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: Bits) -> Bits {
        Bits(self.0.min(other.0))
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(8) {
            write!(f, "{} B", self.0 / 8)
        } else {
            write!(f, "{} bit", self.0)
        }
    }
}

impl Add for Bits {
    type Output = Bits;
    #[inline]
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    #[inline]
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sub for Bits {
    type Output = Bits;
    #[inline]
    fn sub(self, rhs: Bits) -> Bits {
        debug_assert!(self.0 >= rhs.0, "Bits subtraction underflow");
        Bits(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bits {
    type Output = Bits;
    #[inline]
    fn mul(self, rhs: u64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        iter.fold(Bits::ZERO, |acc, b| acc + b)
    }
}

/// A link bit rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
// tidy-allow: float the f64 boundary: rates are configured as floats
pub struct BitRate(f64);

impl BitRate {
    /// Construct from bits per second (at least 1 bit/s, finite).
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn from_bps(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 1.0,
            "link speed must be a finite bit rate of at least 1 bit/s, got {bps}"
        );
        BitRate(bps)
    }

    /// Construct from kilobits per second (10^3 bit/s).
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn from_kbps(kbps: f64) -> Self {
        BitRate::from_bps(kbps * 1e3)
    }

    /// Construct from megabits per second (10^6 bit/s).
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn from_mbps(mbps: f64) -> Self {
        BitRate::from_bps(mbps * 1e6)
    }

    /// Construct from gigabits per second (10^9 bit/s).
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn from_gbps(gbps: f64) -> Self {
        BitRate::from_bps(gbps * 1e9)
    }

    /// The value in bits per second.
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// The value in megabits per second.
    #[inline]
    // tidy-allow: float the f64 boundary: rates are configured as floats
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Time needed to serialise `bits` at this rate, rounded *up* twice
    /// over so it is never optimistic: the rate down to whole bits per
    /// second, then the exact integer quotient up to the next picosecond.
    #[inline]
    pub fn transmission_time(self, bits: Bits) -> Time {
        // `as` from a float truncates (and saturates), rounding the rate down.
        let bps = (self.0 as u64).max(1);
        let ticks = match bits.as_bits().checked_mul(TICKS_PER_SEC) {
            Some(scaled) => u128::from(scaled.div_ceil(bps)),
            // Beyond ~18 Mbit in one frame: widen rather than overflow.
            None => {
                (u128::from(bits.as_bits()) * u128::from(TICKS_PER_SEC)).div_ceil(u128::from(bps))
            }
        };
        Time(i64::try_from(ticks).unwrap_or(i64::MAX))
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{} Gbit/s", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{} Mbit/s", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{} kbit/s", self.0 / 1e3)
        } else {
            write!(f, "{} bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_roundtrip() {
        assert_eq!(Time::from_millis(30.0), Time::from_ps(30_000_000_000));
        assert_eq!(Time::from_micros(2.7), Time::from_ps(2_700_000));
        assert_eq!(Time::from_secs(1.5).as_millis(), 1500.0);
        assert_eq!(Time::from_nanos(250.0).as_micros(), 0.25);
        assert_eq!(Time::from_nanos(0.0004), Time::ZERO);
        assert_eq!(Time::from_nanos(0.0006), Time::from_ps(1));
        assert_eq!(Time::from_secs(1e300), Time::MAX);
        assert_eq!(Time::from_secs(-1e300), Time::MIN);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_millis(10.0);
        let b = Time::from_millis(4.0);
        assert_eq!(a + b, Time::from_millis(14.0));
        assert_eq!(a - b, Time::from_millis(6.0));
        assert_eq!(a * 3u64, Time::from_millis(30.0));
        assert_eq!(a * 0.5, Time::from_millis(5.0));
        assert_eq!(a / b, 2.5);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scaling_by_a_float_rounds_up() {
        assert_eq!(Time::from_ps(10) * (1.0 / 3.0), Time::from_ps(4));
        assert_eq!(Time::from_ps(9) * (1.0 / 3.0), Time::from_ps(3));
    }

    #[test]
    fn time_ordering_and_sum() {
        let mut v = vec![
            Time::from_millis(3.0),
            Time::from_millis(1.0),
            Time::from_millis(2.0),
        ];
        v.sort();
        assert_eq!(v[0], Time::from_millis(1.0));
        assert_eq!(v[2], Time::from_millis(3.0));
        let total: Time = v.into_iter().sum();
        assert_eq!(total, Time::from_millis(6.0));
    }

    #[test]
    fn time_sum_matches_iterator_sum() {
        let v = [Time::MAX, Time::from_millis(1.0), -Time::MAX];
        let by_fold = v.into_iter().fold(Time::ZERO, |acc, t| acc + t);
        let by_trait: Time = v.into_iter().sum();
        assert_eq!(by_fold, by_trait);
        // The saturated partial sum stays saturated: MAX + 1 ms - MAX = 0.
        assert_eq!(by_trait, Time::ZERO);
    }

    #[test]
    fn time_div_floor_and_ceil() {
        let t = Time::from_millis(270.0);
        let p = Time::from_millis(30.0);
        assert_eq!(t.div_floor(p), 9);
        assert_eq!(t.div_ceil(p), 9);
        assert_eq!(Time::from_millis(271.0).div_floor(p), 9);
        assert_eq!(Time::from_millis(271.0).div_ceil(p), 10);
        assert_eq!(Time::ZERO.div_floor(p), 0);
        assert_eq!(Time::ZERO.div_ceil(p), 0);
        assert_eq!((-p).div_floor(p), 0);
        assert_eq!((-p).div_ceil(p), 0);
    }

    #[test]
    fn div_ceil_counts_a_window_just_past_a_whole_multiple() {
        // A window a hair past ten periods reaches into the eleventh: the
        // quotient is never snapped to a nearby whole number.
        let period = Time::from_millis(100.0);
        for excess_secs in [1e-9, 5e-10] {
            let window = Time::from_secs(1.0 + excess_secs);
            assert_eq!(window.div_ceil(period), 11, "excess {excess_secs} s");
            assert_eq!(window.div_floor(period), 10, "excess {excess_secs} s");
        }
        assert_eq!((period * 10u64 + Time::from_ps(1)).div_ceil(period), 11);
    }

    #[test]
    fn checked_arithmetic_agrees_with_plain_ops_when_finite() {
        let a = Time::from_millis(10.0);
        let b = Time::from_millis(4.0);
        assert_eq!(a.checked_add(b), Some(a + b));
        assert_eq!(a.checked_sub(b), Some(a - b));
        assert_eq!(a.checked_mul(7), Some(a * 7u64));
    }

    #[test]
    fn checked_arithmetic_detects_overflow() {
        assert_eq!(Time::MAX.checked_add(Time::MAX), None);
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert_eq!(Time::MIN.checked_sub(Time::MAX), None);
        assert_eq!(Time::MAX.checked_add(Time::ZERO), Some(Time::MAX));
        assert_eq!(Time::MAX.checked_mul(1), Some(Time::MAX));
        assert_eq!(Time::ZERO.checked_mul(u64::MAX), Some(Time::ZERO));
    }

    #[test]
    fn saturating_arithmetic_clamps_at_max() {
        assert_eq!(Time::MAX + Time::MAX, Time::MAX);
        assert_eq!(Time::MAX * u64::MAX, Time::MAX);
        assert_eq!(Time::MIN + Time::MIN, Time::MIN);
        assert_eq!(Time::MIN - Time::MAX, Time::MIN);
        assert_eq!(-Time::MIN, Time::MAX);
        assert_eq!(-Time::from_ps(1) * u64::MAX, Time::MIN);
        assert_eq!(Time::ZERO * u64::MAX, Time::ZERO);
        // Saturation keeps ordering: MAX stays the top element.
        assert!(Time::MAX + Time::from_secs(1.0) >= Time::from_secs(1.0));
    }

    #[test]
    fn div_floor_saturates_on_astronomical_quotients() {
        // Astronomic inputs saturate at `Time::MAX`; its quotient by one
        // tick is still exact.
        let p = Time::from_ps(1);
        assert_eq!(Time::from_secs(1e300), Time::MAX);
        assert_eq!(Time::MAX.div_floor(p), i64::MAX.unsigned_abs());
        assert_eq!(Time::MAX.div_ceil(p), i64::MAX.unsigned_abs());
    }

    #[test]
    fn time_clamp_non_negative() {
        assert_eq!((-Time::from_millis(3.0)).clamp_non_negative(), Time::ZERO);
        assert_eq!(
            Time::from_millis(3.0).clamp_non_negative(),
            Time::from_millis(3.0)
        );
    }

    #[test]
    fn time_display_scales() {
        assert_eq!(format!("{}", Time::ZERO), "0 s");
        assert_eq!(format!("{}", Time::from_micros(2.7)), "2.700 µs");
        assert_eq!(format!("{}", Time::from_millis(30.0)), "30.0000 ms");
        assert_eq!(format!("{}", Time::from_secs(2.0)), "2.000000 s");
        assert_eq!(format!("{}", Time::from_nanos(12.0)), "12.000 ns");
    }

    #[test]
    fn time_serde_roundtrip() {
        let t = Time::from_micros(2.7);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "2700000");
        assert_eq!(serde_json::from_str::<Time>(&json).unwrap(), t);
    }

    /// Tick counts beyond 2^53 (about 2.5 h) survive a JSON round trip
    /// exactly: a multi-hour horizon and the saturation point both read
    /// back as written.
    #[test]
    fn time_serde_roundtrip_beyond_f64_integers() {
        for t in [Time::from_secs(3.0 * 3600.0), Time::MAX, Time::MIN] {
            let json = serde_json::to_string(&t).unwrap();
            assert_eq!(json, t.as_ps().to_string());
            assert_eq!(serde_json::from_str::<Time>(&json).unwrap(), t);
        }
    }

    #[test]
    fn bits_conversions() {
        assert_eq!(Bits::from_bytes(1500).as_bits(), 12000);
        assert_eq!(Bits::from_bits(12).as_bytes_ceil(), 2);
        assert_eq!(Bits::from_bits(16).as_bytes_ceil(), 2);
        assert_eq!(
            Bits::from_bytes(8) + Bits::from_bits(4),
            Bits::from_bits(68)
        );
        assert_eq!(
            Bits::from_bytes(10) - Bits::from_bytes(4),
            Bits::from_bytes(6)
        );
        assert_eq!(Bits::from_bytes(2) * 3, Bits::from_bytes(6));
        assert_eq!(
            Bits::from_bytes(10).saturating_sub(Bits::from_bytes(20)),
            Bits::ZERO
        );
    }

    #[test]
    fn bits_display() {
        assert_eq!(format!("{}", Bits::from_bytes(1500)), "1500 B");
        assert_eq!(format!("{}", Bits::from_bits(13)), "13 bit");
    }

    #[test]
    fn bitrate_transmission_time() {
        // The paper's MFT example: 12304 bits at 10^7 bit/s = 1.2304 ms.
        let speed = BitRate::from_bps(1e7);
        let mft = speed.transmission_time(Bits::from_bits(12304));
        assert_eq!(mft, Time::from_millis(1.2304));
        assert_eq!(BitRate::from_mbps(10.0).as_bps(), 1e7);
        assert_eq!(BitRate::from_gbps(1.0).as_bps(), 1e9);
        assert_eq!(BitRate::from_kbps(64.0).as_bps(), 64_000.0);
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 bit at 3 bit/s is 333_333_333_333.33.. ps: rounded up.
        let t = BitRate::from_bps(3.0).transmission_time(Bits::from_bits(1));
        assert_eq!(t, Time::from_ps(333_333_333_334));
        // A fractional rate is rounded down to whole bits per second.
        let t = BitRate::from_bps(3.9).transmission_time(Bits::from_bits(3));
        assert_eq!(t, Time::from_secs(1.0));
        // A frame too large for the 64-bit fast path is still exact.
        let t = BitRate::from_gbps(1.0).transmission_time(Bits::from_bits(1 << 40));
        assert_eq!(t, Time::from_ps((1i64 << 40) * 1000));
    }

    #[test]
    fn bitrate_display() {
        assert_eq!(format!("{}", BitRate::from_mbps(100.0)), "100 Mbit/s");
        assert_eq!(format!("{}", BitRate::from_gbps(1.0)), "1 Gbit/s");
        assert_eq!(format!("{}", BitRate::from_kbps(64.0)), "64 kbit/s");
        assert_eq!(format!("{}", BitRate::from_bps(500.0)), "500 bit/s");
    }

    #[test]
    #[should_panic]
    fn bitrate_rejects_zero() {
        let _ = BitRate::from_bps(0.0);
    }
}
