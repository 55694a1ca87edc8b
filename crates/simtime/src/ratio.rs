//! Exact rational arithmetic.
//!
//! All scheduler state in this reproduction — virtual times, start/finish
//! tags, transmission times — is kept as exact rationals. The theorems of
//! the SFQ paper are exact inequalities; floating point would force every
//! test to reason about rounding slop. `Ratio` is a reduced `i128`
//! fraction with a strictly positive denominator.
//!
//! Arithmetic panics on overflow: in this simulation domain (times up to
//! thousands of seconds, rates up to hundreds of Gb/s, nanosecond
//! quantization of random inputs) intermediate products stay far below
//! `i128::MAX`, and a panic is a correctness signal, not an expected
//! runtime condition.
//!
//! # The 64-bit road
//!
//! `i128` is what keeps the arithmetic from overflowing, but it is not
//! what most values need: a nanosecond arrival time, a transmission
//! time `l / C`, a policer's theoretical arrival time all have
//! numerators and denominators far below `2^63`. On x86-64 a 128-bit
//! `%`, `/` or `checked_mul` is a library call (`__modti3`,
//! `__divti3`, `__muloti4`); the same operation on 64-bit operands is
//! one instruction. So [`Ratio::new`], [`Ratio::checked_add`] (hence
//! `checked_sub`), [`Ratio::checked_mul`] and [`Ord::cmp`] first ask
//! whether every numerator and denominator involved fits an `i64`. If
//! so they take gcds on machine words (`gcd64`), divide with the
//! hardware `div` and form every product as `i64 × i64 → i128`, which
//! cannot overflow — so the road needs no overflow checks and never
//! returns `None`. If not, they fall through to the wide code
//! (`new_wide`, `add_wide`, `mul_wide`, `cmp_wide`), which is the only
//! code there used to be.
//!
//! The two roads compute the same thing, not two approximations of it:
//! both return *the* reduced fraction with a positive denominator,
//! which is unique, and the unit tests check the 64-bit road against
//! the wide one exhaustively on a small domain and by property test on
//! operands straddling `i64::MAX`, `i64::MIN` and `u64::MAX`. Nothing
//! selects between them but the size of the operands.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number: `num / den`, always reduced, `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor of operands of any width and sign, by
/// Euclid: every step is a 128-bit `%`. Magnitudes are taken unsigned
/// so that `i128::MIN`, a legal numerator, is an ordinary operand; the
/// result fits unless it is `2^127` itself.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    i128::try_from(a).expect("Ratio gcd overflow")
}

/// [`gcd`] on machine words, by the binary algorithm: shifts and
/// subtractions only, which beats even the hardware `div` of Euclid on
/// the 30- to 50-bit denominators exact times have.
fn gcd64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    // Both odd from here on: their difference is even, and its odd
    // part replaces the larger.
    while a != b {
        let d = a.abs_diff(b);
        b = a.min(b);
        a = d >> d.trailing_zeros();
    }
    a << shift
}

/// `x * y` of two machine words; an `i128` holds every such product.
#[inline]
pub(crate) fn wide(x: i64, y: i64) -> i128 {
    x as i128 * y as i128
}

/// `v / g` for a divisor `0 < g`, in 64 bits when `v` fits.
#[inline]
fn div64(v: i128, g: i64) -> i128 {
    match i64::try_from(v) {
        Ok(v) => (v / g) as i128,
        Err(_) => v / g as i128,
    }
}

/// `num / den` reduced, for `den != 0`. `g >= 1` because `den != 0`,
/// and the magnitudes divide as unsigned words, so `i64::MIN` is an
/// ordinary operand here.
fn new64(num: i64, den: i64) -> Ratio {
    let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
    let g = gcd64(n, d);
    let n = (n / g) as i128;
    Ratio {
        num: if (num < 0) != (den < 0) { -n } else { n },
        den: (d / g) as i128,
    }
}

/// `a/b + c/d` for reduced operands with `b, d > 0`: the algorithm of
/// [`Ratio::add_wide`] (sum over the lcm, then one gcd against
/// `g = gcd(b, d)`, which every common factor of the sum's numerator
/// and denominator divides) with `b == d` as the case `g = b`. The two
/// products in the numerator are below `2^126` in magnitude, so their
/// sum fits; the reduction stays in 64 bits unless the numerator
/// itself outgrew them.
fn add64((a, b): (i64, i64), (c, d): (i64, i64)) -> Ratio {
    let (num, den, g) = if b == d {
        (a as i128 + c as i128, b as i128, b)
    } else {
        let g = gcd64(b as u64, d as u64) as i64;
        let (lb, ld) = (d / g, b / g);
        (wide(a, lb) + wide(c, ld), wide(b, lb), g)
    };
    if g == 1 {
        return Ratio::raw(num, den);
    }
    let rem = match i64::try_from(num) {
        Ok(n) => (n % g).unsigned_abs(),
        Err(_) => (num % g as i128).unsigned_abs() as u64,
    };
    // gcd(g, 0) = g covers a zero sum: equal denominators, 0/b -> 0/1.
    let g2 = gcd64(g as u64, rem) as i64;
    Ratio::raw(div64(num, g2), div64(den, g2))
}

/// `a/b * c/d` for reduced non-zero operands with `b, d > 0`,
/// cross-reduced before multiplying like [`Ratio::mul_wide`].
fn mul64((a, b): (i64, i64), (c, d): (i64, i64)) -> Ratio {
    let g1 = gcd64(a.unsigned_abs(), d as u64) as i64;
    let g2 = gcd64(c.unsigned_abs(), b as u64) as i64;
    Ratio::raw(wide(a / g1, c / g2), wide(b / g2, d / g1))
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Construct `num / den`. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        if den == 1 {
            // Integer fast path: already reduced.
            return Ratio { num, den: 1 };
        }
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(num), Ok(den)) => new64(num, den),
            _ => Self::new_wide(num, den),
        }
    }

    /// [`Ratio::new`] for operands of any width (`den` neither 0 nor 1).
    fn new_wide(num: i128, den: i128) -> Self {
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Ratio { num: 0, den: 1 };
        }
        Ratio {
            num: sign * (num / g),
            den: (den / g).abs(),
        }
    }

    /// Construct a fraction the caller guarantees is already reduced
    /// with `den > 0` — the fast-path constructor that skips the gcd of
    /// [`Ratio::new`]. Invariants are checked in debug builds.
    #[inline]
    pub(crate) fn raw(num: i128, den: i128) -> Self {
        debug_assert!(den > 0, "Ratio::raw requires den > 0");
        debug_assert!(
            gcd(num, den) == 1 && (num != 0 || den == 1),
            "Ratio::raw requires a reduced fraction: {num}/{den}"
        );
        Ratio { num, den }
    }

    /// Numerator and denominator as machine words, when both fit: the
    /// question every operation asks to choose the 64-bit road.
    #[inline]
    pub(crate) fn narrow(self) -> Option<(i64, i64)> {
        Some((i64::try_from(self.num).ok()?, i64::try_from(self.den).ok()?))
    }

    /// Construct from an integer.
    pub const fn from_int(v: i128) -> Self {
        Ratio { num: v, den: 1 }
    }

    /// Numerator of the reduced fraction.
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Absolute value. Panics on overflow (`i128::MIN` numerator).
    pub fn abs(self) -> Self {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Lossy conversion for reporting/plotting only — never used in
    /// scheduler logic.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact minimum.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Exact maximum.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Floor division to an integer.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling division to an integer.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Checked addition (None on overflow).
    ///
    /// Layered fast paths for the shapes scheduler arithmetic actually
    /// produces (tag chains repeatedly add spans with one of a few
    /// denominators): a zero operand returns the other; integers add
    /// without any gcd; equal denominators need one gcd and no
    /// multiplications; coprime denominators skip the final reduction
    /// entirely (the cross sum is provably already reduced). Operands
    /// that fit machine words do all of it on the 64-bit road (module
    /// docs), which cannot overflow.
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        if self.num == 0 {
            return Some(rhs);
        }
        if rhs.num == 0 {
            return Some(self);
        }
        match (self.narrow(), rhs.narrow()) {
            (Some(a), Some(b)) => Some(add64(a, b)),
            _ => self.add_wide(rhs),
        }
    }

    /// [`Ratio::checked_add`] for operands of any width.
    fn add_wide(self, rhs: Self) -> Option<Self> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Ratio::raw(self.num.checked_add(rhs.num)?, 1));
        }
        if self.den == rhs.den {
            // a/b + c/b = (a + c)/b; reduce by gcd(a + c, b) only.
            let num = self.num.checked_add(rhs.num)?;
            if num == 0 {
                return Some(Ratio::ZERO);
            }
            let g = gcd(num, self.den);
            return Some(Ratio::raw(num / g, self.den / g));
        }
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den, rhs.den);
        let lb = rhs.den / g;
        let ld = self.den / g;
        let num = self
            .num
            .checked_mul(lb)?
            .checked_add(rhs.num.checked_mul(ld)?)?;
        let den = self.den.checked_mul(lb)?;
        if g == 1 {
            // Coprime denominators: gcd(a*d + c*b, b*d) = 1 when both
            // inputs are reduced, so the sum needs no reduction.
            return Some(Ratio::raw(num, den));
        }
        // gcd(num, den) divides g here, so one gcd against g suffices.
        if num == 0 {
            return Some(Ratio::ZERO);
        }
        let g2 = gcd(num, g);
        Some(Ratio::raw(num / g2, den / g2))
    }

    /// Checked multiplication (None on overflow).
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        if self.num == 0 || rhs.num == 0 {
            return Some(Ratio::ZERO);
        }
        match (self.narrow(), rhs.narrow()) {
            (Some(a), Some(b)) => Some(mul64(a, b)),
            _ => self.mul_wide(rhs),
        }
    }

    /// [`Ratio::checked_mul`] for non-zero operands of any width.
    fn mul_wide(self, rhs: Self) -> Option<Self> {
        if self.den == 1 && rhs.den == 1 {
            // Integer fast path: no gcds at all.
            return Some(Ratio::raw(self.num.checked_mul(rhs.num)?, 1));
        }
        // Cross-reduce before multiplying to keep magnitudes small; the
        // cross-reduced product of reduced fractions is itself reduced,
        // so no final gcd is needed.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Ratio::raw(num, den))
    }

    /// Checked subtraction (None on overflow).
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        let neg = Ratio {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        };
        self.checked_add(neg)
    }

    /// Checked comparison.
    ///
    /// Comparison of reduced fractions with positive denominators is
    /// overflow-free by construction ([`Ord::cmp`] falls back to a
    /// continued-fraction expansion that never multiplies large
    /// operands), so this always returns `Some`. It exists so that
    /// fully-checked tag pipelines can thread `?` through every
    /// arithmetic step uniformly instead of special-casing comparisons.
    pub fn checked_cmp(self, other: Self) -> Option<Ordering> {
        Some(self.cmp(&other))
    }

    /// Bits needed to represent the larger of `|numerator|` and
    /// `denominator` — the growth measure that eager virtual-time
    /// rebasing tests against its threshold. Never below 1 (the
    /// denominator is at least 1).
    pub fn magnitude_bits(self) -> u32 {
        let m = self.num.unsigned_abs().max(self.den as u128);
        u128::BITS - m.leading_zeros()
    }

    /// Exact reciprocal; panics on zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "Ratio::recip of zero");
        Ratio::new(self.den, self.num)
    }

    /// Quantize to the picosecond grid (round to nearest multiple of
    /// 1e-12) — a **no-op whenever the denominator is already ≤ 1e12**,
    /// so values built from nanosecond times and ordinary rates pass
    /// through exact.
    ///
    /// Self-clocked schedulers read another flow's tag as the virtual
    /// time; kept fully exact, a workload mixing many coprime weights
    /// with idle-flow reactivations or live weight changes grows tag
    /// denominators like the lcm of every weight crossed and eventually
    /// overflows `i128`. The one rule: snap every tag where it is
    /// written. `v` is always a tag already written (or a clock's
    /// reading), so it is read as stored, and each written tag moves by
    /// at most 5e-13 — eleven orders of magnitude below the quantities
    /// the paper's bounds compare.
    pub fn snap_pico(self) -> Self {
        const PICO: i128 = 1_000_000_000_000;
        if self.den <= PICO {
            return self;
        }
        let q = self.num.div_euclid(self.den);
        let rem = self - Ratio::from_int(q);
        // rem in [0, 1): f64's 2^-52 relative error is far below the
        // half-pico rounding step.
        let pico = (rem.to_f64() * PICO as f64).round() as i128;
        Ratio::from_int(q) + Ratio::new(pico, PICO)
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<i128> for Ratio {
    fn from(v: i128) -> Self {
        Ratio::from_int(v)
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_int(v as i128)
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Self {
        Ratio::from_int(v as i128)
    }
}

impl From<u32> for Ratio {
    fn from(v: u32) -> Self {
        Ratio::from_int(v as i128)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("Ratio add overflow")
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Self {
        Ratio {
            num: self.num.checked_neg().expect("Ratio neg overflow"),
            den: self.den,
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs).expect("Ratio mul overflow")
    }
}

impl Div for Ratio {
    type Output = Ratio;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b == a * (1/b) by definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal denominators (the common case along a tag chain, and
        // all integer-valued tags): compare numerators directly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d (b,d > 0)  <=>  a*d vs c*b.
        match (self.narrow(), other.narrow()) {
            (Some((a, b)), Some((c, d))) => wide(a, d).cmp(&wide(c, b)),
            _ => self.cmp_wide(other),
        }
    }
}

impl Ratio {
    /// [`Ord::cmp`] for unequal denominators of any width.
    fn cmp_wide(&self, other: &Self) -> Ordering {
        if let (Some(lhs), Some(rhs)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return lhs.cmp(&rhs);
        }
        cmp_frac(self.num, self.den, other.num, other.den)
    }
}

/// Overflow-free exact comparison of `a/b` vs `c/d` (`b, d > 0`) by
/// continued-fraction expansion: compare integer parts; on a tie,
/// compare the reciprocals of the fractional parts with the order
/// reversed (`ra/b < rc/d  <=>  d/rc < b/ra`). Terminates like the
/// Euclidean algorithm and never multiplies large operands.
pub(crate) fn cmp_frac(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    loop {
        let qa = a.div_euclid(b);
        let qc = c.div_euclid(d);
        if qa != qc {
            return qa.cmp(&qc);
        }
        let ra = a.rem_euclid(b);
        let rc = c.rem_euclid(d);
        match (ra == 0, rc == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                // Compare ra/b vs rc/d via reversed reciprocals.
                let (na, nb, nc, nd) = (d, rc, b, ra);
                a = na;
                b = nb;
                c = nc;
                d = nd;
            }
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn reduces_on_construction() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(2, 4).numer(), 1);
        assert_eq!(r(2, 4).denom(), 2);
    }

    #[test]
    fn normalizes_sign_to_denominator() {
        assert_eq!(r(1, -2), r(-1, 2));
        assert!(r(1, -2).is_negative());
        assert!(r(-1, -2).is_positive());
    }

    #[test]
    fn zero_from_zero_numerator() {
        assert_eq!(r(0, 5), Ratio::ZERO);
        assert!(r(0, -7).is_zero());
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = r(1, 3);
        let b = r(1, 6);
        assert_eq!(a + b, r(1, 2));
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = r(22, 7);
        let b = r(3, 5);
        assert_eq!(a * b, r(66, 35));
        assert_eq!((a * b) / b, a);
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Ratio::ONE);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(4, 2).floor(), 2);
        assert_eq!(r(4, 2).ceil(), 2);
    }

    #[test]
    fn min_max_exact() {
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn recip_inverts() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
    }

    #[test]
    #[should_panic(expected = "recip of zero")]
    fn recip_zero_panics() {
        let _ = Ratio::ZERO.recip();
    }

    #[test]
    fn to_f64_matches() {
        assert!((r(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", r(3, 1)), "3");
        assert_eq!(format!("{}", r(3, 2)), "3/2");
        assert_eq!(format!("{}", r(-3, 2)), "-3/2");
    }

    #[test]
    fn snap_pico_is_noop_on_coarse_grids() {
        let r = Ratio::new(123_456, 1_000_000_007); // den just above 1e9
        assert_eq!(r.snap_pico(), r);
        let t = Ratio::new(1, 3);
        assert_eq!(t.snap_pico(), t);
    }

    #[test]
    fn snap_pico_bounds_denominator_and_error() {
        // A denominator beyond the grid gets quantized.
        let big = Ratio::new(10i128.pow(20) + 1, 3 * 10i128.pow(19));
        let s = big.snap_pico();
        assert!(s.denom() <= 1_000_000_000_000);
        let err = (s - big).abs();
        assert!(err <= Ratio::new(1, 1_000_000_000_000), "err={err:?}");
    }

    #[test]
    fn cmp_survives_huge_coprime_denominators() {
        // Denominators whose product overflows i128: the fast path
        // fails and the continued-fraction path must take over.
        let d1: i128 = 1_000_000_007; // prime
        let d2: i128 = 998_244_353; // prime
        let big = 10i128.pow(20);
        let a = Ratio::new(big * d1 + 1, d1 * d2); // slightly above big/d2
        let b = Ratio::new(big * d1, d1 * d2);
        assert!(a > b);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
        // Cross-denominator comparison with overflow-scale operands.
        let x = Ratio::new(10i128.pow(30) + 1, 10i128.pow(30));
        let y = Ratio::new(10i128.pow(29) + 1, 10i128.pow(29));
        assert!(x < y);
    }

    #[test]
    fn cmp_frac_agrees_with_fast_path_on_small_values() {
        for an in -20i128..20 {
            for ad in 1i128..8 {
                for cn in -20i128..20 {
                    for cd in 1i128..8 {
                        let fast = (an * cd).cmp(&(cn * ad));
                        assert_eq!(
                            super::cmp_frac(an, ad, cn, cd),
                            fast,
                            "{an}/{ad} vs {cn}/{cd}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_paths_agree_with_naive_reference() {
        // Exhaustive small-range check that the layered fast paths in
        // checked_add / checked_mul / cmp (integer short-circuits,
        // equal-denominator, coprime-skip) are behaviour-preserving
        // against the textbook formulas, and preserve the reduced /
        // positive-denominator invariants.
        let mut vals = Vec::new();
        for n in -8i128..=8 {
            for d in 1i128..=8 {
                vals.push(r(n, d));
            }
        }
        for &a in &vals {
            for &b in &vals {
                let sum = a + b;
                assert_eq!(
                    sum,
                    r(
                        a.numer() * b.denom() + b.numer() * a.denom(),
                        a.denom() * b.denom()
                    ),
                    "{a} + {b}"
                );
                let prod = a * b;
                assert_eq!(
                    prod,
                    r(a.numer() * b.numer(), a.denom() * b.denom()),
                    "{a} * {b}"
                );
                assert_eq!(
                    a.cmp(&b),
                    (a.numer() * b.denom()).cmp(&(b.numer() * a.denom())),
                    "{a} vs {b}"
                );
                for v in [sum, prod] {
                    assert!(v.denom() > 0);
                    assert!(
                        super::gcd(v.numer(), v.denom()) == 1 || (v.numer() == 0 && v.denom() == 1),
                        "unreduced result {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn checked_ops_agree_with_panicking_ops_on_small_domain() {
        // Exhaustive small-domain equivalence: wherever the panicking
        // operators succeed, the checked variants must return Some of
        // the identical value (the operators are thin `.expect`
        // wrappers, so this pins that relationship bidirectionally).
        let mut vals = Vec::new();
        for n in -8i128..=8 {
            for d in 1i128..=8 {
                vals.push(r(n, d));
            }
        }
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a.checked_add(b), Some(a + b), "{a} + {b}");
                assert_eq!(a.checked_sub(b), Some(a - b), "{a} - {b}");
                assert_eq!(a.checked_mul(b), Some(a * b), "{a} * {b}");
                assert_eq!(a.checked_cmp(b), Some(a.cmp(&b)), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn checked_ops_refuse_max_adjacent_numerators() {
        // i128::MAX-adjacent numerators: one unit of headroom is
        // honoured, the next step over the edge returns None.
        let max = Ratio::from_int(i128::MAX);
        let almost = Ratio::from_int(i128::MAX - 1);
        assert_eq!(almost.checked_add(Ratio::ONE), Some(max));
        assert_eq!(max.checked_add(Ratio::ONE), None);
        assert_eq!(max.checked_sub(-Ratio::ONE), None);
        assert_eq!(max.checked_mul(Ratio::from_int(2)), None);
        let min = Ratio::from_int(i128::MIN);
        // MIN's numerator cannot be negated, so subtracting it must
        // refuse rather than wrap.
        assert_eq!(Ratio::ZERO.checked_sub(min), None);
        assert_eq!(min.checked_sub(Ratio::ONE), None);
        // Comparison never overflows even at the extremes.
        assert_eq!(max.checked_cmp(min), Some(Ordering::Greater));
        assert_eq!(
            Ratio::new(i128::MAX, 3).checked_cmp(Ratio::new(i128::MAX, 4)),
            Some(Ordering::Greater)
        );
        // Fractional MAX-adjacent numerator: the cross-multiply in the
        // unequal-denominator add overflows.
        let frac = Ratio::new(i128::MAX - 2, 3);
        assert_eq!(frac.checked_add(Ratio::new(1, 2)), None);
    }

    #[test]
    fn checked_ops_refuse_coprime_giant_denominators() {
        // Coprime giant denominators: lcm = product overflows i128
        // even though each operand is individually representable.
        let p1: i128 = i128::MAX; // 2^127 - 1, prime
        let p2: i128 = (1i128 << 126) - 1; // coprime with p1: gcd(2^127-1, 2^126-1) = 2^gcd(127,126)-1 = 1
        let a = Ratio::new(1, p1);
        let b = Ratio::new(1, p2);
        assert_eq!(a.checked_add(b), None, "den lcm must overflow");
        assert_eq!(a.checked_sub(b), None);
        // Multiplication of the same pair also overflows the
        // denominator product (numerators are 1, nothing cross-reduces).
        assert_eq!(a.checked_mul(b), None);
        // But comparison of the very same operands stays total.
        assert_eq!(a.checked_cmp(b), Some(p2.cmp(&p1)));
        // Equal giant denominators stay on the no-multiply fast path
        // and succeed.
        assert_eq!(a.checked_add(a), Some(Ratio::new(2, p1)));
    }

    #[test]
    #[should_panic(expected = "Ratio neg overflow")]
    fn neg_of_min_numerator_panics() {
        let _ = -Ratio::from_int(i128::MIN);
    }

    #[test]
    #[should_panic(expected = "Ratio neg overflow")]
    fn sub_of_min_numerator_panics() {
        // A release build used to wrap `-i128::MIN` back to itself and
        // return 0 - MIN = MIN.
        let _ = Ratio::ZERO - Ratio::from_int(i128::MIN);
    }

    #[test]
    #[should_panic(expected = "Ratio neg overflow")]
    fn abs_of_min_numerator_panics() {
        let _ = Ratio::from_int(i128::MIN).abs();
    }

    // The operations as they were before the 64-bit road existed: the
    // public entry points' shortcuts, then the wide code.

    fn new_ref(num: i128, den: i128) -> Ratio {
        if den == 1 {
            Ratio { num, den }
        } else {
            Ratio::new_wide(num, den)
        }
    }

    fn sub_ref(a: Ratio, b: Ratio) -> Option<Ratio> {
        a.add_wide(Ratio {
            num: b.num.checked_neg()?,
            den: b.den,
        })
    }

    fn mul_ref(a: Ratio, b: Ratio) -> Option<Ratio> {
        if a.is_zero() || b.is_zero() {
            Some(Ratio::ZERO)
        } else {
            a.mul_wide(b)
        }
    }

    fn cmp_ref(a: Ratio, b: Ratio) -> Ordering {
        if a.den == b.den {
            a.num.cmp(&b.num)
        } else {
            a.cmp_wide(&b)
        }
    }

    /// Every operation with a 64-bit road returns what the wide code
    /// returns: the same `(numer, denom)`, the same `None`.
    fn assert_roads_agree(a: Ratio, b: Ratio) {
        assert_eq!(a.checked_add(b), a.add_wide(b), "{a} + {b}");
        assert_eq!(a.checked_sub(b), sub_ref(a, b), "{a} - {b}");
        assert_eq!(a.checked_mul(b), mul_ref(a, b), "{a} * {b}");
        assert_eq!(a.cmp(&b), cmp_ref(a, b), "{a} vs {b}");
    }

    /// Every fraction over `parts` through `new`, then every pair of
    /// them through the other operations, road against wide code.
    fn assert_roads_agree_over(parts: &[i128]) {
        let mut vals = Vec::new();
        for &n in parts {
            for &d in parts.iter().filter(|&&d| d != 0) {
                assert_eq!(r(n, d), new_ref(n, d), "{n}/{d}");
                vals.push(r(n, d));
            }
        }
        for &a in &vals {
            for &b in &vals {
                assert_roads_agree(a, b);
            }
        }
    }

    #[test]
    fn narrow_road_agrees_with_wide_on_small_domain() {
        let small: Vec<i128> = (-8..=8).collect();
        assert_roads_agree_over(&small);
        for &a in &small {
            for &b in &small {
                let word = |v: i128| v.unsigned_abs() as u64;
                assert_eq!(gcd64(word(a), word(b)) as i128, gcd(a, b), "gcd({a}, {b})");
            }
        }
    }

    #[test]
    fn narrow_road_agrees_with_wide_at_the_word_boundary() {
        // Every pairing of the values where an operand stops fitting
        // an i64 (and, for magnitudes, a u64), both signs.
        let edges: Vec<i128> = [i64::MAX as i128, -(i64::MIN as i128), u64::MAX as i128]
            .iter()
            .flat_map(|&e| [e - 1, e, e + 1, -(e - 1), -e, -(e + 1)])
            .chain([1, 2, 3, -1, -2, 1 << 62, 1 << 32, 6_700_417, 0])
            .collect();
        assert_roads_agree_over(&edges);
    }

    #[test]
    fn magnitude_bits_tracks_growth() {
        assert_eq!(Ratio::ZERO.magnitude_bits(), 1);
        assert_eq!(Ratio::ONE.magnitude_bits(), 1);
        assert_eq!(Ratio::from_int(-4).magnitude_bits(), 3);
        assert_eq!(r(1, 1 << 40).magnitude_bits(), 41);
        assert_eq!(Ratio::from_int(i128::MAX).magnitude_bits(), 127);
        assert_eq!(Ratio::from_int(i128::MIN).magnitude_bits(), 128);
    }

    #[test]
    fn large_rate_arithmetic_stays_exact() {
        // 1500 bytes at 100 Mb/s: 12000 bits / 1e8 bps = 3/25000 s.
        let t = r(12000, 100_000_000);
        assert_eq!(t, r(3, 25_000));
        // One thousand of those transmissions:
        let total = (0..1000).fold(Ratio::ZERO, |acc, _| acc + t);
        assert_eq!(total, r(3000, 25_000));
    }

    /// Integers that straddle the widths the 64-bit road tests for,
    /// mixed with small, random narrow and random wide ones.
    fn part() -> impl Strategy<Value = i128> {
        let around = |e: i128| (e - 1)..(e + 2);
        prop_oneof![
            around(i64::MAX as i128),
            around(i64::MIN as i128),
            around(u64::MAX as i128),
            -8i128..9,
            (i64::MIN as i128)..(i64::MAX as i128 + 1),
            -(1i128 << 100)..(1i128 << 100),
        ]
    }

    fn ratio() -> impl Strategy<Value = Ratio> {
        (part(), part()).prop_map(|(n, d)| Ratio::new(n, if d == 0 { 1 } else { d }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Narrow, wide and mixed pairs: the public operations return
        /// the wide code's `(numer, denom)` and its `None`s.
        #[test]
        fn roads_agree_across_the_word_boundary(a in ratio(), b in ratio()) {
            assert_roads_agree(a, b);
        }

        #[test]
        fn new_agrees_across_the_word_boundary(n in part(), d in part()) {
            let d = if d == 0 { 1 } else { d };
            prop_assert_eq!(Ratio::new(n, d), new_ref(n, d));
        }

        /// The binary algorithm against Euclid, on whole words and on
        /// operands sharing a large power of two.
        #[test]
        fn gcd64_agrees_with_euclid(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX, k in 0u32..64) {
            for (a, b) in [(a, b), (a << k, b << k), (a >> k, b), (a, a)] {
                prop_assert_eq!(super::gcd64(a, b) as i128, super::gcd(a as i128, b as i128));
            }
        }
    }
}
