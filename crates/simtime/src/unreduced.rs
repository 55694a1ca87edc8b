//! An exact fraction that is allowed to stay unreduced.
//!
//! A [`Ratio`] pays a gcd or three for every addition so that it is
//! always *the* reduced fraction — which is what lets `Eq` and `Hash`
//! be derived and what an event time, printed and hashed by every
//! golden, must be. Some exact values are never read that way. A
//! policer's theoretical arrival time and an arbiter's finish tags
//! advance by `bits / rate` once per packet and are only ever
//! *compared*: nothing sees their numerator or denominator, so nothing
//! needs them in lowest terms.
//!
//! [`Unreduced`] is such a value. It is seated on a lattice: from an
//! instant `a/q` and a rate `ρ` it becomes `(a·ρ)/(q·ρ)`, and on that
//! denominator a step of `bits/ρ` is the integer `bits·q` added to the
//! numerator — no gcd, no division, the HFSC trick of doing the
//! division when the class is set up. Comparison is by
//! cross-multiplication. Leaving the lattice — another rate, or
//! integers that no longer fit — reduces once and seats again, and
//! when even that does not fit the step is done in [`Ratio`]
//! arithmetic, so an `Unreduced` computes exactly what a `Ratio` would
//! have and returns `None` exactly where it would have.

// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ratio::Ratio;
use core::cmp::Ordering;

/// An exact `num / den` with `den > 0`, not kept in lowest terms. See
/// the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Unreduced {
    num: i128,
    den: i128,
    /// Numerator ticks per `1 / rate`: `den == unit * rate`. Zero with
    /// `rate`, for a value on no lattice.
    unit: i128,
    /// Rate of the lattice the value is seated on; `0` when it is on
    /// none, in which case `num / den` is in lowest terms.
    rate: u64,
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

/// `a/b` against `c/d` for `b, d > 0` by cross-multiplication; `None`
/// when a product leaves `i128`.
#[inline]
fn cross_cmp((a, b): (i128, i128), (c, d): (i128, i128)) -> Option<Ordering> {
    if b == d {
        return Some(a.cmp(&c));
    }
    Some(mul(a, d)?.cmp(&mul(c, b)?))
}

impl Unreduced {
    /// Zero.
    pub const ZERO: Unreduced = Unreduced {
        num: 0,
        den: 1,
        unit: 0,
        rate: 0,
    };

    /// `at` on the lattice of `rate`: `(a·rate) / (q·rate)` for
    /// `at = a/q`. `None` when a product leaves `i128`.
    fn seat(at: Ratio, rate: u64) -> Option<Unreduced> {
        Some(Unreduced {
            num: mul(at.numer(), rate as i128)?,
            den: mul(at.denom(), rate as i128)?,
            unit: at.denom(),
            rate,
        })
    }

    /// `self + bits / rate`, exactly; `bits` may be negative.
    ///
    /// On the lattice of `rate` this is one multiplication and one
    /// addition of integers. Anywhere else — a value seated at another
    /// rate or at none, or a lattice whose integers ran out — the value
    /// is reduced once and seated at `rate` first, and failing that the
    /// sum is taken in [`Ratio`] arithmetic and left on no lattice.
    /// `None` only where `self.reduce().checked_add(bits / rate)` is
    /// `None`, and for a zero `rate`.
    pub fn advance(self, bits: i128, rate: u64) -> Option<Unreduced> {
        if rate == 0 {
            return None;
        }
        let step = |s: Unreduced| {
            let num = s.num.checked_add(mul(bits, s.unit)?)?;
            Some(Unreduced { num, ..s })
        };
        if self.rate == rate {
            if let Some(next) = step(self) {
                return Some(next);
            }
        }
        let at = self.reduce();
        Self::seat(at, rate).and_then(step).or_else(|| {
            at.checked_add(Ratio::new(bits, rate as i128))
                .map(Unreduced::from)
        })
    }

    /// The value as the reduced fraction it equals: one gcd, or none
    /// for a value on no lattice.
    pub fn reduce(self) -> Ratio {
        if self.rate == 0 {
            Ratio::raw(self.num, self.den)
        } else {
            Ratio::new(self.num, self.den)
        }
    }

    /// [`Ratio::magnitude_bits`] of the fraction *as stored*: never
    /// below the reduced value's, and what the checked integer steps
    /// have to fit.
    pub fn magnitude_bits(self) -> u32 {
        let m = self.num.unsigned_abs().max(self.den as u128);
        u128::BITS - m.leading_zeros()
    }
}

/// The value of `r`, on no lattice.
impl From<Ratio> for Unreduced {
    fn from(r: Ratio) -> Self {
        Unreduced {
            num: r.numer(),
            den: r.denom(),
            unit: 0,
            rate: 0,
        }
    }
}

/// Equality and order are those of the values: `1/2 == 2/4`.
impl PartialEq for Unreduced {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Unreduced {}

impl PartialOrd for Unreduced {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Unreduced {
    /// By cross-multiplication; when a product leaves `i128` both
    /// sides are reduced and compared as [`Ratio`]s, which cannot
    /// overflow.
    fn cmp(&self, other: &Self) -> Ordering {
        cross_cmp((self.num, self.den), (other.num, other.den))
            .unwrap_or_else(|| self.reduce().cmp(&other.reduce()))
    }
}

impl PartialEq<Ratio> for Unreduced {
    fn eq(&self, other: &Ratio) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd<Ratio> for Unreduced {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        let ord = cross_cmp((self.num, self.den), (other.numer(), other.denom()))
            .unwrap_or_else(|| self.reduce().cmp(other));
        Some(ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!((t.num, t.den, t.unit, t.rate), (1_000, 3_000, 3, 1_000));
        let t = t.advance(1_000, 1_000).unwrap();
        assert_eq!((t.num, t.den), (4_000, 3_000));
        assert_eq!(t.reduce(), Ratio::new(4, 3));
        // Another rate leaves the lattice: reduced, then seated again.
        let t = t.advance(1, 7).unwrap();
        assert_eq!((t.num, t.den, t.unit, t.rate), (31, 21, 3, 7));
        assert_eq!(t.advance(1, 0), None, "a zero rate has no lattice");
    }

    #[test]
    fn an_exhausted_lattice_falls_back_to_reduced_arithmetic() {
        // 2/R + 5/R is 7/R in lowest terms, but seated on R = 2^64 - 1
        // its denominator would be R^2, past i128: the sum is taken in
        // `Ratio` arithmetic and left on no lattice.
        let rate = u64::MAX;
        let at = Ratio::new(2, rate as i128);
        assert!(Unreduced::seat(at, rate).is_none());
        let sum = Unreduced::from(at).advance(5, rate).unwrap();
        assert_eq!((sum.rate, sum.reduce()), (0, Ratio::new(7, rate as i128)));
        // A running lattice whose numerator runs out does the same.
        let quarter = Ratio::from_int(i128::MAX / 4);
        let near = Unreduced::from(quarter).advance(0, 3).unwrap();
        assert_eq!(near.rate, 3);
        let sum = near.advance(i128::MAX / 2, 3).unwrap();
        let exact = quarter.checked_add(Ratio::new(i128::MAX / 2, 3));
        assert_eq!((sum.rate, Some(sum.reduce())), (0, exact));
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
        let ua = Unreduced::seat(a, (1 << 61) - 1).unwrap();
        let ub = Unreduced::seat(b, (1 << 63) - 25).unwrap();
        assert_eq!(cross_cmp((ua.num, ua.den), (ub.num, ub.den)), None);
        assert_eq!(ua.cmp(&ub), Ordering::Greater);
        assert_eq!(ub.cmp(&ua), Ordering::Less);
        assert_eq!(ua.cmp(&ua), Ordering::Equal);
        let wide = Ratio::new(1, i128::MAX);
        assert_eq!(ua.partial_cmp(&wide), Some(Ordering::Greater));
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
}
