//! # simtime — exact arithmetic substrate for the SFQ reproduction
//!
//! Every quantity the Start-time Fair Queuing paper reasons about —
//! packet lengths, rates/weights, real time, virtual time — is
//! represented exactly:
//!
//! - [`Ratio`]: `i128` rationals, always in lowest terms (no floats in
//!   scheduler logic),
//! - [`Unreduced`]: the representation of time — the same exact values,
//!   kept on the lattice they were made on and reduced only when
//!   somebody reads them. A step of `bits / rate` on that rate's
//!   lattice is one multiply-add; equality, order and hash are by
//!   value. It holds every instant and span, a policer's TAT and the
//!   root arbiter's tags,
//! - [`SimTime`] / [`SimDuration`]: absolute instants and spans in exact
//!   rational seconds, over [`Unreduced`],
//! - [`Bytes`] / [`Rate`]: integer bytes and integer bits-per-second.
//!
//! This makes the discrete-event simulation deterministic and lets the
//! test suite check the paper's theorems as *exact* inequalities.

#![warn(missing_docs)]

mod log2;
mod ratio;
mod time;
mod units;
mod unreduced;

pub use ratio::Ratio;
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, Rate};
pub use unreduced::Unreduced;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_ratio() -> impl Strategy<Value = Ratio> {
        (-1_000_000i128..1_000_000, 1i128..1_000_000).prop_map(|(n, d)| Ratio::new(n, d))
    }

    proptest! {
        #[test]
        fn add_commutes(a in small_ratio(), b in small_ratio()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn add_associates(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn mul_distributes(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_is_add_neg(a in small_ratio(), b in small_ratio()) {
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn ordering_total(a in small_ratio(), b in small_ratio()) {
            // Exactly one of <, ==, > holds.
            let lt = a < b;
            let eq = a == b;
            let gt = a > b;
            prop_assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
        }

        #[test]
        fn ordering_consistent_with_f64(a in small_ratio(), b in small_ratio()) {
            // When f64 values differ clearly, exact ordering agrees.
            let (fa, fb) = (a.to_f64(), b.to_f64());
            if (fa - fb).abs() > 1e-6 {
                prop_assert_eq!(a < b, fa < fb);
            }
        }

        #[test]
        fn floor_ceil_bracket(a in small_ratio()) {
            let f = Ratio::from_int(a.floor());
            let c = Ratio::from_int(a.ceil());
            prop_assert!(f <= a && a <= c);
            prop_assert!((c - f) <= Ratio::ONE);
        }

        #[test]
        fn recip_roundtrip(a in small_ratio()) {
            if !a.is_zero() {
                prop_assert_eq!(a.recip().recip(), a);
                prop_assert_eq!(a * a.recip(), Ratio::ONE);
            }
        }

        #[test]
        fn tx_time_positive_and_linear(len in 1u64..100_000, bps in 1u64..10_000_000_000) {
            let r = Rate::bps(bps);
            let one = r.tx_time(Bytes::new(len));
            let two = r.tx_time(Bytes::new(len * 2));
            prop_assert!(one.as_ratio().is_positive());
            prop_assert_eq!(one + one, two);
        }

        #[test]
        fn time_ordering_preserved_by_shift(
            a in 0i128..1_000_000, b in 0i128..1_000_000, s in 0i128..1_000_000
        ) {
            let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
            let shift = SimDuration::from_micros(s);
            prop_assert_eq!(ta < tb, ta + shift < tb + shift);
        }
    }
}
