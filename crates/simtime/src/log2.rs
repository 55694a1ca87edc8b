//! `⌊log2⌋` of a span in whole nanoseconds, in integers.
//!
//! A log2 histogram of sojourn times needs one small number per
//! packet: the position of the top bit of `⌊(now − arrival)·10⁹⌋`.
//! Getting it by way of the span — an exact-rational subtraction (a
//! gcd or three), a lossy division to `f64`, a `log2` — costs more
//! than the scheduler the histogram watches, and is only approximately
//! the quantity it names. [`SimTime::log2_nanos_since`] reads it off
//! the two fractions as stored instead. For `now = a/b` and
//! `arrival = c/d` the span in nanoseconds is `n/m` with
//! `n = (a·d − c·b)·10⁹` and `m = b·d`; the bit lengths of `n` and `m`
//! place `⌊log2(n/m)⌋` within one, and a single comparison of `n`
//! against `m` shifted settles it. Nothing is reduced, divided or
//! rounded, so the result is exact for every pair of instants.
//!
//! Like [`Ratio`](crate::Ratio)'s own arithmetic it has a word-sized road and a wide
//! one, chosen by the size of the operands and by nothing else. When
//! all four parts fit an `i64` the cross products are single
//! multiplications that cannot overflow, and when their difference is
//! below `2^97` — every span on a nanosecond or microsecond lattice
//! is — `n` fits a `u128`. Anything else goes limb by limb through 320
//! bits, which hold the widest `n` two `i128` fractions can produce.
//! The tests check both roads against the reduced arithmetic
//! (`⌊((now − arrival)·10⁹)⌋`, then `ilog2`) and against each other.

// Panic-free outside tests: it runs on the scheduler's data path.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ratio::wide;
use crate::time::SimTime;

const NANOS: u64 = 1_000_000_000;

impl SimTime {
    /// `⌊log2 ⌊(self − earlier)·10⁹⌋⌋`: the index of the power-of-two
    /// bucket `[2^i, 2^(i+1))` ns that the span since `earlier` falls
    /// in. `0` for a span under 2 ns, and for `self <= earlier`. Exact,
    /// total, and on machine-word operands division-free; see the
    /// module docs.
    #[inline]
    pub fn log2_nanos_since(self, earlier: SimTime) -> u32 {
        if let (Some((a, b)), Some((c, d))) = (self.0.narrow(), earlier.0.narrow()) {
            let span = wide(a, d) - wide(c, b);
            if span <= 0 {
                return 0;
            }
            // Times 10^9 < 2^30 it stays below 2^127.
            if span < 1 << 97 {
                let n = span as u128 * NANOS as u128;
                let m = wide(b, d) as u128;
                return log2_quotient(bits(n), bits(m), |k| n >= (m << k));
            }
        }
        log2_nanos_wide(self, earlier)
    }
}

/// Bits needed to write `x`: 0 for 0.
fn bits(x: u128) -> u32 {
    u128::BITS - x.leading_zeros()
}

/// `⌊log2 ⌊n / m⌋⌋` for `m > 0` (0 when the quotient is below 2), from
/// the operands' bit lengths and `ge(k)`, which answers `n >= m·2^k`.
/// With `2^(n_bits − 1) <= n < 2^n_bits` and the same for `m`, the
/// quotient lies strictly between `2^(k − 1)` and `2^(k + 1)` for
/// `k = n_bits − m_bits`, so one comparison decides; it is only asked
/// for `m·2^k` of `n`'s own bit length, which fits wherever `n` does.
#[inline]
fn log2_quotient(n_bits: u32, m_bits: u32, ge: impl FnOnce(u32) -> bool) -> u32 {
    match n_bits.checked_sub(m_bits) {
        None => 0,
        Some(k) if ge(k) => k,
        Some(k) => k.saturating_sub(1),
    }
}

/// A magnitude of up to 320 bits, least significant limb first: room
/// for `(|a|·d + |c|·b)·10⁹ < 2^286` over `i128` parts.
type Limbs = [u64; 5];

fn limbs(x: u128) -> Limbs {
    [x as u64, (x >> 64) as u64, 0, 0, 0]
}

/// `x · m`. Every caller's product fits (see [`Limbs`]).
fn scale(x: Limbs, m: u64) -> Limbs {
    let mut carry = 0u128;
    let out = x.map(|limb| {
        let t = limb as u128 * m as u128 + carry;
        carry = t >> 64;
        t as u64
    });
    debug_assert_eq!(carry, 0, "limb product past 320 bits");
    out
}

fn add(x: Limbs, y: Limbs) -> Limbs {
    let mut carry = 0u128;
    core::array::from_fn(|i| {
        let t = x[i] as u128 + y[i] as u128 + carry;
        carry = t >> 64;
        t as u64
    })
}

/// `x − y` for `x >= y`.
fn sub(x: Limbs, y: Limbs) -> Limbs {
    let mut borrow = false;
    core::array::from_fn(|i| {
        let (t, under) = x[i].overflowing_sub(y[i]);
        let (t, under2) = t.overflowing_sub(borrow as u64);
        borrow = under | under2;
        t
    })
}

/// `x · 2^k`.
fn shl(x: Limbs, k: u32) -> Limbs {
    let x = scale(x, 1 << (k % 64));
    let whole = (k / 64) as usize;
    core::array::from_fn(|i| if i < whole { 0 } else { x[i - whole] })
}

/// `x · y` for `x` below `2^128`.
fn times(x: Limbs, y: u128) -> Limbs {
    add(scale(x, y as u64), shl(scale(x, (y >> 64) as u64), 64))
}

fn limb_bits(x: &Limbs) -> u32 {
    x.iter().rposition(|&limb| limb != 0).map_or(0, |top| {
        (top as u32 + 1) * u64::BITS - x[top].leading_zeros()
    })
}

/// [`SimTime::log2_nanos_since`] for operands of any width and sign.
#[cold]
fn log2_nanos_wide(now: SimTime, then: SimTime) -> u32 {
    if now <= then {
        return 0;
    }
    let ((a, b), (c, d)) = (now.parts(), then.parts());
    let cross = |num: i128, den: i128| scale(times(limbs(num.unsigned_abs()), den as u128), NANOS);
    let (ad, cb) = (cross(a, d), cross(c, b));
    // `now > then`: the signs say whether the two magnitudes add up to
    // the span or which of them is the larger.
    let n = match (a < 0, c < 0) {
        (false, false) => sub(ad, cb),
        (true, true) => sub(cb, ad),
        _ => add(ad, cb),
    };
    let m = times(limbs(b as u128), d as u128);
    log2_quotient(limb_bits(&n), limb_bits(&m), |k| {
        n.iter().rev().ge(shl(m, k).iter().rev())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use proptest::prelude::*;

    /// The definition, in the reduced arithmetic this module replaces:
    /// `None` where that arithmetic leaves `i128`. Whole seconds and
    /// the rest are scaled apart, so it holds out until the span or
    /// its denominator reaches 2^97.
    fn oracle(now: SimTime, then: SimTime) -> Option<u32> {
        let nanos = Ratio::from_int(NANOS as i128);
        let span = now.as_ratio().checked_sub(then.as_ratio())?;
        let whole = Ratio::from_int(span.floor());
        let rest = span.checked_sub(whole)?.checked_mul(nanos)?.floor();
        let ns = whole.checked_mul(nanos)?.floor().checked_add(rest)?;
        Some(if ns < 2 { 0 } else { ns.ilog2() })
    }

    /// Both roads give the oracle's answer (wherever it has one), and
    /// each other's.
    fn check(now: SimTime, then: SimTime) -> u32 {
        let got = now.log2_nanos_since(then);
        assert_eq!(
            got,
            log2_nanos_wide(now, then),
            "roads disagree: {now:?} since {then:?}"
        );
        if let Some(want) = oracle(now, then) {
            assert_eq!(got, want, "{now:?} since {then:?}");
        }
        got
    }

    fn at(num: i128, den: i128) -> SimTime {
        SimTime::from_ratio(Ratio::new(num, den))
    }

    /// Arrival instants on the lattices exact times live on: the
    /// origin, nanoseconds, microseconds, a third of a second, two
    /// large coprime denominators, a negative instant.
    fn offsets() -> Vec<SimTime> {
        vec![
            SimTime::ZERO,
            SimTime::from_nanos(1),
            SimTime::from_nanos(999_999_937),
            SimTime::from_micros(12_345_679),
            at(1, 3),
            at(22, 7),
            at(123_456_789, 1_000_003),
            at((1 << 50) + 5, (1 << 50) - 27),
            at(-5, 11),
            // Stored unreduced, on a link's lattice: 10^9 · 13 511 111.
            SimTime::from_nanos(999_999_937)
                .advance(12_000, crate::Rate::bps(13_511_111))
                .expect("fits"),
        ]
    }

    #[test]
    fn log2_nanos_edges_of_every_bucket() {
        for then in offsets() {
            for k in 1..=62u32 {
                for (ns, want) in [((1i128 << k) - 1, k - 1), (1 << k, k), ((1 << k) + 1, k)] {
                    let now = SimTime::from_ratio(then.as_ratio() + Ratio::new(ns, NANOS as i128));
                    assert_eq!(check(now, then), want, "{ns} ns after {then:?}");
                }
            }
        }
    }

    #[test]
    fn log2_nanos_fractions_of_a_nanosecond_do_not_round_up() {
        // One part in 2^20 of a nanosecond short of each edge, on a
        // denominator no lattice shares: still the bucket below.
        for then in offsets() {
            for k in 2..=40u32 {
                let short = Ratio::new((1 << (k + 20)) - 1, (NANOS as i128) << 20);
                let now = SimTime::from_ratio(then.as_ratio() + short);
                assert_eq!(check(now, then), k - 1, "just under 2^{k} ns");
            }
        }
    }

    #[test]
    fn log2_nanos_is_zero_up_to_two_nanoseconds_and_backwards() {
        for then in offsets() {
            assert_eq!(check(then, then), 0);
            for later in [
                Ratio::new(1, 1 << 60),
                Ratio::new(1, NANOS as i128),
                Ratio::new(1_999_999_999, 1_000_000_000 * NANOS as i128),
            ] {
                let now = SimTime::from_ratio(then.as_ratio() + later);
                assert_eq!(check(now, then), 0);
                assert_eq!(check(then, now), 0, "now < arrival");
            }
            let later = SimTime::from_ratio(then.as_ratio() + Ratio::from_int(9));
            assert_eq!(check(then, later), 0);
        }
    }

    #[test]
    fn log2_nanos_agrees_across_the_word_boundary() {
        // Numerators and denominators where a part stops fitting an
        // i64 (the road's first condition), in every pairing.
        let edge = i64::MAX as i128;
        let parts = [edge - 1, edge, edge + 1, edge + 2, 1, 2, 3, 1 << 40];
        for &a in &parts {
            for &b in &parts {
                for &c in &parts {
                    for &d in &parts {
                        check(at(a, b), at(c, d));
                        check(at(a, b), at(-c, d));
                        check(at(-a, b), at(-c, d));
                    }
                }
            }
        }
    }

    #[test]
    fn log2_nanos_agrees_across_the_span_bound() {
        // Word-sized parts whose cross difference `a·d − c·b` sits
        // around 2^97 — the last span the u128 is trusted with times
        // 10^9, and the first handed to the limbs — and on up to where
        // the product would not fit a u128 at all.
        let now = at(1 << 62, 1);
        let cases = [
            (at(1, 1 << 35), (1i128 << 97) - 1),
            (at(1 << 62, (1 << 35) + 1), 1 << 97),
            (at(-1, 1 << 35), (1 << 97) + 1),
            (at(1, (3 << 35) + 1), (3 << 97) + (1 << 62) - 1),
            (at(1, (1 << 37) + 1), (1 << 99) + (1 << 62) - 1),
            (at(-7, (5 << 48) + 1), (5 << 110) + (1 << 62) + 7),
            (at(1, (1 << 62) + 1), (1 << 124) + (1 << 62) - 1),
        ];
        for (then, span) in cases {
            let (a, b) = now.as_ratio().narrow().expect("word-sized");
            let (c, d) = then.as_ratio().narrow().expect("word-sized");
            assert_eq!(wide(a, d) - wide(c, b), span);
            assert!(oracle(now, then).is_some());
            check(now, then);
        }
    }

    #[test]
    fn log2_nanos_is_total_past_i128() {
        // Spans the reduced arithmetic cannot hold: whole-second
        // instants whose nanosecond count leaves i128 ...
        let far = SimTime::from_secs(i128::MAX);
        assert_eq!(oracle(far, SimTime::ZERO), None);
        assert_eq!(check(far, SimTime::ZERO), 156);
        assert_eq!(check(far, SimTime::from_secs(-i128::MAX)), 157);
        assert_eq!(check(far, SimTime::from_secs(i128::MAX - 1)), 29);
        assert_eq!(check(SimTime::from_secs(i128::MIN), far), 0);
        // ... and fractions over coprime giants, whose difference has
        // no i128 denominator: 3/p − 1/q is just under 3/p, p = 2^127 − 1.
        let (p, q) = (i128::MAX, (1i128 << 126) - 1);
        assert_eq!(oracle(at(3, p), at(1, q)), None);
        assert_eq!(check(at(3, p), at(1, q)), 0);
        assert_eq!(check(at(1, q), at(3, p)), 0);
        // 2^124 + 1/3 seconds since 1/q: 2^124 · 10^9 ns and a bit.
        assert_eq!(check(at((3 << 124) + 1, 3), at(1, q)), 153);
    }

    /// Integers around the widths the roads branch on, mixed with small
    /// and random ones.
    fn part() -> impl Strategy<Value = i128> {
        let around = |e: i128| (e - 2)..(e + 3);
        prop_oneof![
            -8i128..9,
            0i128..2_000_000_000,
            around(i64::MAX as i128),
            around(i64::MIN as i128),
            (i64::MIN as i128)..(i64::MAX as i128 + 1),
            -(1i128 << 100)..(1i128 << 100),
            (i128::MAX - 9)..i128::MAX,
        ]
    }

    fn instant() -> impl Strategy<Value = SimTime> {
        (part(), part()).prop_map(|(n, d)| at(n, if d == 0 { 1 } else { d }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn log2_nanos_matches_the_reduced_arithmetic(now in instant(), then in instant()) {
            check(now, then);
            check(then, now);
        }

        /// A known span on top of an arbitrary word-sized arrival: the
        /// answer is the span's own top bit whatever the offset.
        #[test]
        fn log2_nanos_of_a_known_span(
            num in (i64::MIN as i128)..(i64::MAX as i128),
            den in 1i128..(1 << 40),
            ns in 2i128..(1 << 62),
        ) {
            let then = at(num, den);
            let now = SimTime::from_ratio(then.as_ratio() + Ratio::new(ns, NANOS as i128));
            prop_assert_eq!(check(now, then), ns.ilog2());
        }
    }
}
