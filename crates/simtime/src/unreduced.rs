//! Exact time, reduced on read.
//!
//! A [`Ratio`] pays a gcd or three for every addition so that it is
//! always *the* reduced fraction. Time does not need that: lowest terms
//! matter only to whoever prints a value or reads its numerator and
//! denominator, and a reader can reduce for itself. So an instant — a
//! [`SimTime`](crate::SimTime), a policer's TAT, an arbiter's tag — is
//! an [`Unreduced`] `num / den`, the exact value on the lattice it was
//! made on. Equality, order and hash are those of the value
//! (`1/2 == 2/4`, and the two hash alike), and [`Unreduced::reduce`]
//! gives the reduced [`Ratio`]. What is saved is the gcd:
//!
//! - `from_nanos` and its siblings store `ns / 10⁹` as given;
//! - a sum whose denominators are equal, or one of which divides the
//!   other, is integer adds on the larger of them;
//! - a step of `bits / rate` on the lattice `den = unit · rate` adds
//!   `bits · unit` to the numerator: one divisibility test and one
//!   multiply-add, the HFSC trick of dividing when the class is set
//!   up. A value off that lattice is *seated* on it first,
//!   `(num · rate) / (den · rate)`, and a link's next finish time is on
//!   it again.
//!
//! Anything else — a sum over unrelated denominators, integers that no
//! longer fit, a seat past a machine word — reduces once and goes on
//! from there, and when even that does not fit it is done in [`Ratio`]
//! arithmetic. So an `Unreduced` computes what reduced arithmetic
//! computes and fails (`None`, or the same panic) exactly where it does.

// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ratio::{cmp_frac, wide, Ratio};
use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Add, Sub};

/// An exact `num / den` with `den > 0`, not kept in lowest terms. See
/// the module docs.
#[derive(Clone, Copy)]
pub struct Unreduced {
    num: i128,
    den: i128,
}

/// `a * b`, in one instruction when both are machine words (an `i128`
/// holds every such product) and checked otherwise.
#[inline]
fn mul(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(a as i128 * b as i128),
        _ => a.checked_mul(b),
    }
}

/// `a / b` when `b` divides `a`, for `a, b > 0`: one division, on
/// machine words when both are.
#[inline]
fn quotient(a: i128, b: i128) -> Option<i128> {
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => a.is_multiple_of(b).then(|| (a / b) as i128),
        _ => (a % b == 0).then(|| a / b),
    }
}

impl Unreduced {
    /// Zero.
    pub const ZERO: Unreduced = Unreduced { num: 0, den: 1 };

    /// `num / den` as given, for `den > 0`.
    #[inline]
    pub(crate) const fn over(num: i128, den: i128) -> Unreduced {
        debug_assert!(den > 0, "Unreduced requires den > 0");
        Unreduced { num, den }
    }

    /// Numerator and denominator as stored: `den > 0`, not necessarily
    /// in lowest terms.
    #[inline]
    pub(crate) fn parts(self) -> (i128, i128) {
        (self.num, self.den)
    }

    /// The stored parts as machine words, when both fit.
    #[inline]
    pub(crate) fn narrow(self) -> Option<(i64, i64)> {
        Some((i64::try_from(self.num).ok()?, i64::try_from(self.den).ok()?))
    }

    /// `self + bits · unit / den`, which is `self + bits / rate` when
    /// `den == unit · rate`.
    #[inline]
    fn step(self, bits: i128, unit: i128) -> Option<Unreduced> {
        let num = self.num.checked_add(mul(bits, unit)?)?;
        Some(Unreduced { num, den: self.den })
    }

    /// `self + bits / rate`, exactly; `bits` may be negative.
    ///
    /// On the lattice of `rate` — a denominator `rate` divides — this is
    /// one multiplication and one addition of integers. Off it the
    /// value is seated there first: as stored while the seated
    /// denominator stays a machine word, and reduced first otherwise,
    /// so that lattices do not compound. Where the integers run out the
    /// sum is taken in [`Ratio`] arithmetic. `None` only where
    /// `self.reduce().checked_add(bits / rate)` is `None`, and for a
    /// zero `rate`.
    pub fn advance(self, bits: i128, rate: u64) -> Option<Unreduced> {
        if rate == 0 {
            return None;
        }
        // On the lattice, `den / rate` is the numerator's ticks per
        // `1 / rate`.
        let unit = quotient(self.den, rate as i128);
        if let Some(next) = unit.and_then(|unit| self.step(bits, unit)) {
            return Some(next);
        }
        let seated = |at: Unreduced| {
            let on = Unreduced {
                num: mul(at.num, rate as i128)?,
                den: mul(at.den, rate as i128)?,
            };
            on.step(bits, at.den)
        };
        let word = mul(self.den, rate as i128).is_some_and(|d| i64::try_from(d).is_ok());
        word.then(|| seated(self))
            .flatten()
            .or_else(|| seated(self.reduce().into()))
            .or_else(|| {
                let step = Ratio::new(bits, rate as i128);
                self.reduce().checked_add(step).map(Unreduced::from)
            })
    }

    /// `self + rhs` when the denominators are equal or one divides the
    /// other: integer adds on the larger one. `None` otherwise, and when
    /// the integers overflow.
    #[inline]
    fn add_on_lattice(self, rhs: Unreduced) -> Option<Unreduced> {
        if self.den == rhs.den {
            let num = self.num.checked_add(rhs.num)?;
            return Some(Unreduced { num, den: self.den });
        }
        let (hi, lo) = if self.den > rhs.den {
            (self, rhs)
        } else {
            (rhs, self)
        };
        hi.step(lo.num, quotient(hi.den, lo.den)?)
    }

    /// `self + rhs`, exactly. Over one lattice no gcd is taken; over
    /// two unrelated ones the sum is [`Ratio`]'s, of the reduced
    /// operands. `None` exactly where that addition is `None`.
    fn checked_add(self, rhs: Unreduced) -> Option<Unreduced> {
        self.add_on_lattice(rhs)
            .or_else(|| self.reduce().checked_add(rhs.reduce()).map(Unreduced::from))
    }

    /// `self − rhs`, exactly; `None` exactly where
    /// [`Ratio::checked_sub`] of the reduced operands is `None`.
    fn checked_sub(self, rhs: Unreduced) -> Option<Unreduced> {
        let neg = rhs.num.checked_neg().map(|num| Unreduced { num, ..rhs });
        neg.and_then(|neg| self.add_on_lattice(neg))
            .or_else(|| self.reduce().checked_sub(rhs.reduce()).map(Unreduced::from))
    }

    /// The value as the reduced fraction it equals: one gcd, none for
    /// an integer.
    pub fn reduce(self) -> Ratio {
        Ratio::new(self.num, self.den)
    }

    /// `true` if the value is strictly negative.
    pub(crate) fn is_negative(self) -> bool {
        self.num < 0
    }

    /// [`Ratio::magnitude_bits`] of the fraction *as stored*: never
    /// below the reduced value's, and what the checked integer steps
    /// have to fit.
    pub fn magnitude_bits(self) -> u32 {
        let m = self.num.unsigned_abs().max(self.den as u128);
        u128::BITS - m.leading_zeros()
    }
}

impl Default for Unreduced {
    fn default() -> Self {
        Unreduced::ZERO
    }
}

/// The value of `r`, stored as its reduced parts.
impl From<Ratio> for Unreduced {
    fn from(r: Ratio) -> Self {
        Unreduced {
            num: r.numer(),
            den: r.denom(),
        }
    }
}

/// Equality and order are those of the values: `1/2 == 2/4`.
impl PartialEq for Unreduced {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.den == other.den {
            return self.num == other.num;
        }
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Unreduced {}

impl PartialOrd for Unreduced {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Unreduced {
    /// By cross-multiplication, of machine words when all four parts
    /// are (`cmp_wide` otherwise).
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        match (self.narrow(), other.narrow()) {
            (Some((a, b)), Some((c, d))) => wide(a, d).cmp(&wide(c, b)),
            _ => self.cmp_wide(other),
        }
    }
}

impl Unreduced {
    /// [`Ord::cmp`] for parts of any width: `i128` cross products, and
    /// when one leaves `i128` the continued-fraction expansion
    /// [`Ratio`] falls back to, which multiplies nothing and needs no
    /// reduced operands.
    #[cold]
    #[inline(never)]
    fn cmp_wide(&self, other: &Self) -> Ordering {
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_frac(self.num, self.den, other.num, other.den),
        }
    }
}

/// The reduced value's hash, so that equal values hash alike whatever
/// lattice they are on — and as a reduced [`Ratio`] of that value does.
impl Hash for Unreduced {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.reduce().hash(state);
    }
}

impl PartialEq<Ratio> for Unreduced {
    fn eq(&self, other: &Ratio) -> bool {
        *self == Unreduced::from(*other)
    }
}

impl PartialOrd<Ratio> for Unreduced {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(&Unreduced::from(*other)))
    }
}

impl Add for Unreduced {
    type Output = Unreduced;
    /// Panics where [`Ratio`] addition of the reduced values does, with
    /// its message.
    fn add(self, rhs: Unreduced) -> Unreduced {
        self.checked_add(rhs)
            .unwrap_or_else(|| (self.reduce() + rhs.reduce()).into())
    }
}

impl Sub for Unreduced {
    type Output = Unreduced;
    /// Panics where [`Ratio`] subtraction of the reduced values does,
    /// with its message.
    fn sub(self, rhs: Unreduced) -> Unreduced {
        self.checked_sub(rhs)
            .unwrap_or_else(|| (self.reduce() - rhs.reduce()).into())
    }
}

/// The reduced value.
impl fmt::Debug for Unreduced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.reduce(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    /// Integers around the widths the paths branch on — a machine
    /// word, where `mul` stops being one instruction, and `i128`
    /// itself, where the lattice's integers run out — mixed with small
    /// and random ones.
    fn part() -> impl Strategy<Value = i128> {
        let around = |e: i128| (e - 2)..(e + 3);
        prop_oneof![
            -8i128..9,
            around(i64::MAX as i128),
            around(i64::MIN as i128),
            (i64::MIN as i128)..(i64::MAX as i128 + 1),
            -(1i128 << 100)..(1i128 << 100),
            (i128::MAX - 9)..i128::MAX,
        ]
    }

    fn ratio() -> impl Strategy<Value = Ratio> {
        (part(), part()).prop_map(|(n, d)| Ratio::new(n, if d == 0 { 1 } else { d }))
    }

    fn rate() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..9,
            64_000u64..100_000_000_000,
            (i64::MAX as u64 - 2)..(i64::MAX as u64 + 3),
            (u64::MAX - 4)..=u64::MAX,
        ]
    }

    /// `u` is `r`: equal as a value, equal once reduced, ordered
    /// against `other` as `r` is — also through `Unreduced::cmp`, with
    /// `other` both on no lattice and seated on one.
    fn assert_is(u: Unreduced, r: Ratio, other: Ratio) {
        assert_eq!(u.reduce(), r);
        assert!(u == r && u == Unreduced::from(r));
        assert_eq!(
            u.partial_cmp(&other),
            Some(r.cmp(&other)),
            "{u:?} vs {other}"
        );
        assert_eq!(u.cmp(&Unreduced::from(other)), r.cmp(&other));
        if let Some(seated) = Unreduced::from(other).advance(0, 7) {
            assert_eq!(u.cmp(&seated), r.cmp(&other), "{u:?} vs {seated:?}");
        }
        assert!(u.magnitude_bits() >= r.magnitude_bits());
    }

    #[test]
    fn a_seated_value_steps_by_integer_adds_and_stays_put() {
        // 1/3 s on the lattice of 1000 b/s is 1000/3000; 125 bytes
        // more is 3000 ticks, with the denominator untouched.
        let t = Unreduced::from(Ratio::new(1, 3)).advance(0, 1_000).unwrap();
        assert_eq!(t.parts(), (1_000, 3_000));
        let t = t.advance(1_000, 1_000).unwrap();
        assert_eq!(t.parts(), (4_000, 3_000));
        assert_eq!(t.reduce(), Ratio::new(4, 3));
        // Another rate: seated as stored while that stays a word.
        let t = t.advance(1, 7).unwrap();
        assert_eq!(t.parts(), (31_000, 21_000));
        assert_eq!(t.advance(1, 0), None, "a zero rate has no lattice");
        // A nanosecond instant on a link whose rate divides 10^9 is
        // already on its lattice.
        let ns = Unreduced::over(5, 1_000_000_000);
        let step = ns.advance(3, 1_000).unwrap();
        assert_eq!(step.parts(), (3_000_005, 1_000_000_000));
        // 2/4 at 2^62 - 57: stored, the seat would be ≈ 2^64, past an
        // i64, so 1/2 is seated instead.
        let rate = (1u64 << 62) - 57;
        let t = Unreduced::over(2, 4).advance(1, rate).unwrap();
        assert_eq!(t.parts(), (rate as i128 + 2, 2 * rate as i128));
    }

    #[test]
    fn an_exhausted_lattice_falls_back_to_reduced_arithmetic() {
        // 2/R + 5/R at R = 2^64 - 1: 2/R is already on R's lattice, so
        // the sum is 7/R by one add, where a seat would need R^2.
        let rate = u64::MAX;
        let at = Ratio::new(2, rate as i128);
        let sum = Unreduced::from(at).advance(5, rate).map(Unreduced::reduce);
        assert_eq!(sum, Some(Ratio::new(7, rate as i128)));
        // 1/(9·2^60) + 5/(15·2^60): neither denominator divides the
        // other and the seat, 135·2^120, is past i128, but the lcm is
        // not: the sum is taken in `Ratio` arithmetic.
        let (den, rate) = (9i128 << 60, 15u64 << 60);
        let at = Ratio::new(1, den);
        assert_eq!(den.checked_mul(rate as i128), None);
        let sum = Unreduced::from(at).advance(5, rate).map(Unreduced::reduce);
        assert_eq!(sum, at.checked_add(Ratio::new(5, rate as i128)));
        assert!(sum.is_some());
        // A running lattice whose numerator runs out does the same.
        let quarter = Ratio::from_int(i128::MAX / 4);
        let near = Unreduced::from(quarter).advance(0, 3).unwrap();
        assert_eq!(near.parts(), (3 * (i128::MAX / 4), 3));
        let sum = near.advance(i128::MAX / 2, 3).unwrap();
        let exact = quarter.checked_add(Ratio::new(i128::MAX / 2, 3));
        assert_eq!(Some(sum.reduce()), exact);
        // And where reduced arithmetic gives up, so does this.
        let max = Unreduced::from(Ratio::from_int(i128::MAX));
        assert_eq!(max.advance(1, 1), None);
        let under = max.advance(-1, 1).map(Unreduced::reduce);
        assert_eq!(under, Some(Ratio::from_int(i128::MAX - 1)));
    }

    #[test]
    fn comparison_survives_products_past_i128() {
        // Both seats fit (123- and 125-bit denominators); neither
        // cross product does.
        let a = Ratio::new((1 << 40) + 1, (1 << 62) - 57);
        let b = Ratio::new(1 << 40, (1 << 62) - 57);
        let ua = Unreduced::from(a).advance(0, (1 << 61) - 1).unwrap();
        let ub = Unreduced::from(b).advance(0, (1 << 63) - 25).unwrap();
        let ((an, ad), (bn, bd)) = (ua.parts(), ub.parts());
        assert_eq!((an.checked_mul(bd), bn.checked_mul(ad)), (None, None));
        assert_eq!(ua.cmp(&ub), Ordering::Greater);
        assert_eq!(ub.cmp(&ua), Ordering::Less);
        assert_eq!(ua.cmp(&ua), Ordering::Equal);
        // Equal values on different lattices, past i128 the same way.
        assert_eq!(ua, Unreduced::from(a));
        assert_eq!(Unreduced::from(b), ub);
        let wide = Ratio::new(1, i128::MAX);
        assert_eq!(ua.partial_cmp(&wide), Some(Ordering::Greater));
    }

    #[test]
    fn sums_on_one_lattice_take_no_gcd() {
        let ns = Unreduced::over(7, 1_000_000_000);
        let us = Unreduced::over(3, 1_000_000);
        assert_eq!((ns + us).parts(), (3_007, 1_000_000_000));
        assert_eq!((us + ns).parts(), (3_007, 1_000_000_000));
        assert_eq!((ns - us).parts(), (-2_993, 1_000_000_000));
        assert_eq!((ns + ns).parts(), (14, 1_000_000_000));
        // Unrelated denominators: the reduced sum.
        let third = Unreduced::over(2, 6);
        assert_eq!((third + Unreduced::over(2, 4)).parts(), (5, 6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every chain of steps, at a fixed rate or a changing one,
        /// computes what `Ratio` addition computes and stops where it
        /// stops.
        #[test]
        fn advance_is_ratio_addition(
            start in ratio(),
            other in ratio(),
            steps in prop::collection::vec((part(), rate(), 0u8..4), 1..12),
        ) {
            let (mut u, mut r) = (Unreduced::from(start), start);
            let mut held = 1;
            for (bits, rate, change) in steps {
                // Three steps in four stay on the lattice they are on.
                if change == 0 {
                    held = rate;
                }
                let sum = r.checked_add(Ratio::new(bits, held as i128));
                let next = u.advance(bits, held);
                prop_assert_eq!(next.map(Unreduced::reduce), sum, "{:?} + {}/{}", u, bits, held);
                let (Some(next), Some(sum)) = (next, sum) else {
                    continue;
                };
                (u, r) = (next, sum);
                assert_is(u, r, other);
            }
        }

        /// Small steps on one lattice from a seat near the top of
        /// `i128`: the walk crosses from integer adds to the reduced
        /// fallback and, with luck, back.
        #[test]
        fn advance_crosses_the_overflow_edge(
            below in 0i128..1_000,
            den in 1i128..1_000,
            rate in 1u64..1_000,
            steps in prop::collection::vec(-400i128..400, 1..40),
        ) {
            let start = Ratio::new(i128::MAX / (rate as i128 * den) - below, den);
            let (mut u, mut r) = (Unreduced::from(start), start);
            for bits in steps {
                let sum = r.checked_add(Ratio::new(bits, rate as i128));
                let next = u.advance(bits, rate);
                prop_assert_eq!(next.map(Unreduced::reduce), sum);
                if let (Some(next), Some(sum)) = (next, sum) {
                    (u, r) = (next, sum);
                    assert_is(u, r, start);
                }
            }
        }
    }

    /// A value as `from_nanos`, `from_micros`, `from_millis`, a third
    /// of a second or a whole second makes it: any numerator, down to
    /// `i128::MIN`, which has no negation.
    fn on_a_lattice() -> impl Strategy<Value = Unreduced> {
        const LATTICES: [i128; 5] = [1_000_000_000, 1_000_000, 1_000, 3, 1];
        let num = prop_oneof![part(), Just(i128::MIN)];
        (num, 0..LATTICES.len()).prop_map(|(n, i)| Unreduced::over(n, LATTICES[i]))
    }

    /// An operand of the differential test: a value on one of the
    /// lattices time lives on — also seated on a 24- to 63-bit rate
    /// after a step, stored as a multiple of its reduced parts, or
    /// reduced — and the reduced `Ratio` it equals. Negative values
    /// come with the numerators, negative spans with the steps.
    fn operand() -> impl Strategy<Value = (Unreduced, Ratio)> {
        let rate = (24u32..64).prop_flat_map(|k| (1u64 << (k - 1))..=(u64::MAX >> (64 - k)));
        let seated = (on_a_lattice(), -(1i128 << 40)..(1i128 << 40), rate)
            .prop_map(|(at, bits, rate)| at.advance(bits, rate).unwrap_or(at));
        let scaled = (ratio(), 1i128..(1 << 40)).prop_map(|(r, k)| {
            let parts = mul(r.numer(), k).zip(mul(r.denom(), k));
            parts.map_or(r.into(), |(n, d)| Unreduced::over(n, d))
        });
        prop_oneof![
            on_a_lattice(),
            seated,
            scaled,
            ratio().prop_map(Unreduced::from)
        ]
        .prop_map(|u| (u, u.reduce()))
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Runs `f`, turning a panic into `Err(message)`.
    fn caught<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, String> {
        let text = |e: Box<dyn std::any::Any + Send>| e.downcast::<String>().map(|m| *m);
        std::panic::catch_unwind(f).map_err(|e| text(e).unwrap_or_default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lazily reduced time against reduced `Ratio` arithmetic, over
        /// mixed lattices: the same sums, differences, order, equality,
        /// extrema and hashes, lowest terms on every read, and `None`
        /// or a panic, with the same message, exactly where the reduced
        /// arithmetic has them.
        #[test]
        fn lazily_reduced_time_is_reduced_arithmetic(a in operand(), b in operand()) {
            let ((ua, ra), (ub, rb)) = (a, b);
            for (u, r) in [(ua, ra), (ub, rb)] {
                // `Ratio`'s `Eq` is by field: the read is in lowest terms.
                prop_assert_eq!(u.reduce(), r);
                prop_assert_eq!(hash_of(&u), hash_of(&r));
                prop_assert_eq!(u.is_negative(), r.is_negative());
            }
            prop_assert_eq!(ua.cmp(&ub), ra.cmp(&rb));
            prop_assert_eq!(ua == ub, ra == rb);
            if ua == ub {
                prop_assert_eq!(hash_of(&ua), hash_of(&ub));
            }
            prop_assert_eq!(ua.max(ub).reduce(), ra.max(rb));
            prop_assert_eq!(ua.min(ub).reduce(), ra.min(rb));
            prop_assert_eq!(ua.checked_add(ub).map(Unreduced::reduce), ra.checked_add(rb));
            prop_assert_eq!(ua.checked_sub(ub).map(Unreduced::reduce), ra.checked_sub(rb));
            prop_assert_eq!(ub.checked_sub(ua).map(Unreduced::reduce), rb.checked_sub(ra));
            let sum = caught(|| (ua + ub).reduce());
            prop_assert_eq!(sum, caught(|| ra + rb));
            let diff = caught(|| (ua - ub).reduce());
            prop_assert_eq!(diff, caught(|| ra - rb));
        }
    }
}
