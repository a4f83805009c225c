//! Exact rational arithmetic for utilizations, densities and speedup factors.
//!
//! Schedulability tests must not be subject to floating-point rounding: a task
//! with density exactly 1 is *high-density* in the paper's classification, and
//! a partitioning test that admits a task due to a `1e-16` error is unsound.
//! [`Rational`] is a minimal exact fraction over `i128`, always stored in
//! lowest terms with a positive denominator.
//!
//! # Examples
//!
//! ```
//! use fedsched_dag::rational::Rational;
//!
//! let density = Rational::new(9, 16); // paper Example 1: δ₁ = 9/16
//! assert!(density < Rational::ONE);
//! assert_eq!(density + Rational::new(7, 16), Rational::ONE);
//! assert_eq!(density.to_f64(), 0.5625);
//! ```
//!
//! [`Affine`] keeps an exact affine function over one shared denominator:
//! the form the shared-processor `DBF*` test caches, so each test is two
//! integer comparisons instead of a sum of reduced rationals.
//!
//! # Overflow
//!
//! Comparisons are exact for *all* representable rationals (cross products
//! are evaluated in 256 bits), and addition uses least-common-multiple
//! denominators to keep intermediates small. [`Rational`] arithmetic still
//! panics (debug) or wraps (release) if a reduced result genuinely exceeds
//! `i128`; task parameters in this workspace are `u64` ticks and generated
//! periods are grid-rounded (see `fedsched-gen`), which keeps every
//! quantity the analyses sum far inside that range. [`Affine`] accumulates
//! with checked arithmetic instead, because the periods it sums come from
//! clients: a sum it cannot represent is reported as `None`.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::time::Duration;

/// An exact rational number `num / den`, always reduced, `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Rational {
    /// Exactly zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// Exactly one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub const fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        // gcd(0, den) = |den|, so 0/den normalizes to 0/1.
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The ratio of two durations, `num / den`.
    ///
    /// This is the form used for utilization (`vol / T`) and density
    /// (`vol / min(D, T)`).
    ///
    /// # Panics
    ///
    /// Panics if `den` is the zero duration.
    #[must_use]
    pub fn ratio(num: Duration, den: Duration) -> Rational {
        Rational::new(num.ticks() as i128, den.ticks() as i128)
    }

    /// Creates the integer rational `n / 1`.
    #[must_use]
    pub const fn from_integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The numerator of the reduced form (sign lives here).
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the reduced form (always positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Converts to the nearest `f64`. For *reporting only* — never used in
    /// admission decisions.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `⌈self⌉` as an integer.
    ///
    /// ```
    /// use fedsched_dag::rational::Rational;
    /// assert_eq!(Rational::new(9, 4).ceil(), 3);
    /// assert_eq!(Rational::new(8, 4).ceil(), 2);
    /// assert_eq!(Rational::new(-9, 4).ceil(), -2);
    /// ```
    #[must_use]
    pub const fn ceil(self) -> i128 {
        self.num.div_euclid(self.den)
            + if self.num.rem_euclid(self.den) != 0 {
                1
            } else {
                0
            }
    }

    /// `⌊self⌋` as an integer.
    #[must_use]
    pub const fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Returns `true` if `self < 0`.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if `self == 0`.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// The reciprocal `1 / self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub const fn recip(self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        let sign = if self.num < 0 { -1 } else { 1 };
        Rational {
            num: sign * self.den,
            den: sign * self.num,
        }
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full 128×128 → 256-bit unsigned multiplication, returned as (hi, lo).
const fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (ll & MASK) | (mid << 64);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves
        // order. The products can exceed i128 for rationals with large
        // reduced denominators (e.g. long sums of utilizations), so compare
        // through a full 256-bit multiply instead of trusting i128.
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => a.cmp(&b),
            (0, 0) => Ordering::Equal,
            (sign, _) => {
                let lhs = wide_mul(self.num.unsigned_abs(), other.den.unsigned_abs());
                let rhs = wide_mul(other.num.unsigned_abs(), self.den.unsigned_abs());
                if sign > 0 {
                    lhs.cmp(&rhs)
                } else {
                    rhs.cmp(&lhs)
                }
            }
        }
    }
}

/// A 256-bit two's-complement integer: just enough to evaluate the
/// [`Affine`] comparisons, whose operands stay far below `2^255`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct I256 {
    hi: u128,
    lo: u128,
}

impl I256 {
    const fn from_i128(n: i128) -> I256 {
        I256 {
            hi: if n < 0 { u128::MAX } else { 0 },
            lo: n as u128,
        }
    }

    /// The exact product `a·b`.
    const fn product(a: i128, b: u128) -> I256 {
        let (hi, lo) = wide_mul(a.unsigned_abs(), b);
        let p = I256 { hi, lo };
        if a < 0 {
            p.neg()
        } else {
            p
        }
    }

    const fn neg(self) -> I256 {
        let (lo, carry) = (!self.lo).overflowing_add(1);
        I256 {
            hi: (!self.hi).wrapping_add(carry as u128),
            lo,
        }
    }

    const fn add(self, other: I256) -> I256 {
        let (lo, carry) = self.lo.overflowing_add(other.lo);
        I256 {
            hi: self.hi.wrapping_add(other.hi).wrapping_add(carry as u128),
            lo,
        }
    }
}

impl PartialOrd for I256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for I256 {
    fn cmp(&self, other: &Self) -> Ordering {
        // The sign lives in the high word: compare it signed, the low
        // word unsigned.
        (self.hi as i128, self.lo).cmp(&(other.hi as i128, other.lo))
    }
}

/// An exact affine function `f(x) = (slope·x + intercept) / den` whose two
/// coefficients share one positive denominator.
///
/// It is built term by term with [`Affine::checked_add`], which keeps the
/// denominator at the least common multiple of the terms' denominators and
/// reports `None` instead of panicking or wrapping when a coefficient
/// leaves `i128`. Evaluations against integers ([`Affine::at_least`],
/// [`Affine::slope_at_least`]) cross-multiply in 256 bits, so they neither
/// reduce nor allocate and are exact for every representable function.
///
/// # Examples
///
/// ```
/// use fedsched_dag::rational::{Affine, Rational};
///
/// // f(x) = x − (x/4 − 1/2) = (3/4)·x + 1/2
/// let f = Affine::IDENTITY.checked_add(-1, 2, 4).unwrap();
/// assert_eq!(f.slope(), Rational::new(3, 4));
/// assert!(f.at_least(2, 2)); // f(2) = 2
/// assert!(!f.at_least(2, 3));
/// assert!(f.slope_at_least(3, 4));
/// assert!(!f.slope_at_least(4, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affine {
    slope: i128,
    intercept: i128,
    den: i128,
}

impl Affine {
    /// `f(x) = x`.
    pub const IDENTITY: Affine = Affine {
        slope: 1,
        intercept: 0,
        den: 1,
    };

    /// `self + (slope·x + intercept) / den`, over the least common multiple
    /// of the two denominators; `None` if the result does not fit `i128`.
    ///
    /// # Panics
    ///
    /// Panics if `den ≤ 0`.
    #[must_use]
    pub fn checked_add(self, slope: i128, intercept: i128, den: i128) -> Option<Affine> {
        assert!(den > 0, "affine term with non-positive denominator");
        let g = gcd(self.den, den);
        let (scale_self, scale_term) = (den / g, self.den / g);
        Some(Affine {
            slope: self
                .slope
                .checked_mul(scale_self)?
                .checked_add(slope.checked_mul(scale_term)?)?,
            intercept: self
                .intercept
                .checked_mul(scale_self)?
                .checked_add(intercept.checked_mul(scale_term)?)?,
            den: self.den.checked_mul(scale_self)?,
        })
    }

    /// The slope, reduced.
    #[must_use]
    pub const fn slope(self) -> Rational {
        Rational::new(self.slope, self.den)
    }

    /// Whether `f(x) ≥ y`, exactly: `slope·x + intercept ≥ y·den`.
    #[must_use]
    pub fn at_least(self, x: u64, y: u64) -> bool {
        let lhs = I256::product(self.slope, u128::from(x)).add(I256::from_i128(self.intercept));
        let rhs = I256::product(self.den, u128::from(y));
        lhs >= rhs
    }

    /// Whether the slope is at least `num / den`, exactly:
    /// `slope·den ≥ num·self.den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn slope_at_least(self, num: u64, den: u64) -> bool {
        assert!(den != 0, "rational with zero denominator");
        I256::product(self.slope, u128::from(den)) >= I256::product(self.den, u128::from(num))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Least-common-multiple addition keeps intermediates as small as
        // possible (important when summing many task utilizations).
        let g = gcd(self.den, rhs.den);
        let scale_l = rhs.den / g;
        let scale_r = self.den / g;
        Rational::new(self.num * scale_l + rhs.num * scale_r, self.den * scale_l)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rational::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_integer(n)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert!(Rational::new(-1, 2).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 7) == Rational::ONE);
        assert_eq!(
            Rational::new(1, 3).max(Rational::new(1, 2)),
            Rational::new(1, 2)
        );
        assert_eq!(
            Rational::new(1, 3).min(Rational::new(1, 2)),
            Rational::new(1, 3)
        );
    }

    #[test]
    fn ceil_floor() {
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
        assert_eq!(Rational::from_integer(5).floor(), 5);
    }

    #[test]
    fn ratio_of_durations() {
        // Paper Example 1: vol = 9, min(D, T) = 16 ⇒ δ = 9/16.
        let r = Rational::ratio(Duration::new(9), Duration::new(16));
        assert_eq!(r, Rational::new(9, 16));
        assert!(r < Rational::ONE);
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn sum_and_display() {
        let s: Rational = [
            Rational::new(1, 4),
            Rational::new(1, 4),
            Rational::new(1, 2),
        ]
        .iter()
        .sum();
        assert_eq!(s, Rational::ONE);
        assert_eq!(Rational::new(9, 16).to_string(), "9/16");
        assert_eq!(Rational::from_integer(3).to_string(), "3");
    }

    #[test]
    fn comparison_survives_huge_denominators() {
        // Cross products here exceed i128 by far; the 256-bit comparison
        // must still get the order right.
        let n: i128 = 10i128.pow(37);
        let a = Rational::new(n + 1, n); // 1 + 1/n
        let b = Rational::new(n, n - 1); // 1 + 1/(n-1)
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
        // Negative side mirrors.
        assert!(-b < -a);
    }

    #[test]
    fn lcm_addition_keeps_denominators_small() {
        // Summing k copies of 1/(2^40) must keep den = 2^40, not (2^40)^k.
        let step = Rational::new(1, 1 << 40);
        let mut acc = Rational::ZERO;
        for _ in 0..100 {
            acc += step;
        }
        assert_eq!(acc, Rational::new(100, 1 << 40));
        assert_eq!(acc.denom(), (1i128 << 40) / gcd(100, 1 << 40));
    }

    #[test]
    fn affine_terms_accumulate_over_the_lcm() {
        // x − x/6 − x/4 + 1/3 = (7/12)·x + 1/3
        let f = Affine::IDENTITY
            .checked_add(-1, 0, 6)
            .and_then(|f| f.checked_add(-1, 1, 4))
            .and_then(|f| f.checked_add(0, 1, 12))
            .unwrap();
        assert_eq!(f.den, 12);
        assert_eq!(f.slope(), Rational::new(7, 12));
        assert_eq!(Rational::new(f.intercept, f.den), Rational::new(1, 3));
        // Subtracting a term over a dividing denominator keeps the lcm.
        let g = f.checked_add(1, 0, 6).unwrap();
        assert_eq!(g.den, 12);
        assert_eq!(g.slope(), Rational::new(3, 4));
    }

    #[test]
    fn affine_comparisons_are_exact_at_the_boundary() {
        // f(x) = (2/3)·x − 1/3: f(2) = 1 exactly.
        let f = Affine::IDENTITY.checked_add(-1, -1, 3).unwrap();
        assert!(f.at_least(2, 1));
        assert!(!f.at_least(2, 2));
        assert!(!f.at_least(0, 0), "f(0) = −1/3");
        assert!(f.slope_at_least(2, 3));
        assert!(!f.slope_at_least(5, 7));
        // A negative slope (an over-utilized sum) compares below zero.
        let over = Affine::IDENTITY.checked_add(-3, 0, 2).unwrap();
        assert_eq!(over.slope(), Rational::new(-1, 2));
        assert!(!over.slope_at_least(0, 1));
        assert!(!over.at_least(1, 0));
    }

    #[test]
    fn affine_survives_products_beyond_i128() {
        // Denominator near 2^123 and x, y near 2^64: the cross products
        // need about 190 bits.
        let (p, q): (i128, i128) = (2_305_843_009_213_693_967, 3_458_764_513_820_540_933);
        let f = Affine::IDENTITY
            .checked_add(-(p / 8), 0, p)
            .and_then(|f| f.checked_add(-(q / 8), 0, q))
            .unwrap();
        assert_eq!(f.den, p * q);
        let x = u64::MAX;
        // The slope is just above 3/4, so f(x) ≥ ⌊3x/4⌋ but f(x) < x.
        assert!(f.at_least(x, x / 4 * 3));
        assert!(!f.at_least(x, x));
        assert!(f.slope_at_least(3, 4));
        assert!(!f.slope_at_least(7, 8));
    }

    #[test]
    fn affine_overflow_is_reported_not_wrapped() {
        let (p, q, r): (i128, i128, i128) = (
            2_305_843_009_213_693_967,
            3_458_764_513_820_540_933,
            4_035_225_266_123_964_469,
        );
        let two = Affine::IDENTITY
            .checked_add(-(p / 8), 0, p)
            .and_then(|f| f.checked_add(-(q / 8), 0, q))
            .unwrap();
        assert_eq!(two.checked_add(-(r / 8), 0, r), None);
        assert_eq!(
            Affine::IDENTITY
                .checked_add(0, i128::MAX, 1)
                .and_then(|f| f.checked_add(0, 1, 1)),
            None
        );
    }

    #[test]
    fn f64_is_reporting_only_but_accurate_here() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(-1, 4).to_f64(), -0.25);
    }
}
