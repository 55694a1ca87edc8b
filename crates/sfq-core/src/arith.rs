//! The tag-arithmetic seam of [`TagSched`](crate::TagSched).
//!
//! Eqs. 4/5 need five operations on tags — read `v(t)`, `max`, add a
//! packet's span `l/r`, compare, and (for long-running servers) shift
//! everything down by a baseline. [`TagArith`] names them; the
//! scheduler core is written once against the trait and instantiated
//! with
//!
//! - [`Exact`] (here): reduced `i128` rationals ([`simtime::Ratio`]),
//!   the foundation the paper's theorems are checked on as exact
//!   inequalities, and
//! - [`Fixed`](crate::fixed::Fixed) (in [`crate::fixed`]): u64 fixed
//!   point with a precomputed per-flow inverse rate.
//!
//! The two implementations share nothing but this trait's signatures,
//! which is what keeps the exact-vs-fixed differential suites
//! (`tests/fixed_point_identity.rs`, the conformance `fast` preset) a
//! comparison of two independent arithmetics.

use crate::packet::FlowId;
use crate::sched::{SchedError, TieBreak};
use core::fmt;
use simtime::{Bytes, Rate, Ratio};

/// A tie-break component of the heap key: how a [`TieBreak`] rule and a
/// weight become the secondary sort key between equal tags.
pub trait TieKey: Copy + Ord + fmt::Debug {
    /// The key for a packet charged at `weight`; smaller is served
    /// first.
    fn of(rule: TieBreak, weight: Rate) -> Self;
}

impl TieKey for i128 {
    fn of(rule: TieBreak, weight: Rate) -> Self {
        rule.key(weight)
    }
}

impl TieKey for i64 {
    fn of(rule: TieBreak, weight: Rate) -> Self {
        rule.key64(weight)
    }
}

/// No tie-break component: equal tags fall straight through to the
/// packet uid (the finish-ordered disciplines, which have no tie rule).
impl TieKey for () {
    fn of(_rule: TieBreak, _weight: Rate) -> Self {}
}

/// Tag arithmetic for the Eq. 4/5 recurrence. See the module docs.
pub trait TagArith: fmt::Debug {
    /// A virtual-time tag.
    type Tag: Copy + Ord + fmt::Debug;
    /// What charging a packet needs beyond its rate and length,
    /// computed once per flow registration: nothing for [`Exact`], the
    /// inverse-rate increment for the fixed-point arithmetic.
    type Inc: Copy + fmt::Debug;
    /// Width of the tie-break key.
    type Tie: TieKey;

    /// The zero tag (`F(p_f^0)` and the initial `v`).
    const ZERO: Self::Tag;
    /// Whether this is the fixed-point arithmetic (selects the `-FAST`
    /// discipline name).
    const FIXED: bool;
    /// Whether [`TagArith::rebased`] can refuse, so a rebase needs a
    /// dry pass over every live tag before it mutates any.
    const CHECKED_REBASE: bool;

    /// Validate `rate` for `flow` and precompute its increment:
    /// [`SchedError::ZeroWeight`] for a zero rate.
    fn inc(&self, flow: FlowId, rate: Rate) -> Result<Self::Inc, SchedError>;

    /// `v(t)` as Eq. 4 reads it at an arrival.
    fn snap(v: Self::Tag) -> Self::Tag;

    /// Eq. 5: `start + len / rate`, or `None` when the sum leaves the
    /// tag range.
    fn advance(start: Self::Tag, rate: Rate, inc: Self::Inc, len: Bytes) -> Option<Self::Tag>;

    /// The larger tag.
    fn max(a: Self::Tag, b: Self::Tag) -> Self::Tag;

    /// The lazy-GC safety horizon for virtual time `v`: an idle flow
    /// whose last finish tag is at or below it can never again win
    /// Eq. 4's `max`, so forgetting the flow changes no future tag.
    fn gc_horizon(v: Self::Tag) -> Self::Tag;

    /// Whether `v` has grown past the eager-rebase threshold.
    fn outgrown(v: Self::Tag, threshold_bits: u32) -> bool;

    /// The rebase baseline for virtual time `v` — its whole-unit part —
    /// or `None` while that is still zero.
    fn rebase_base(&self, v: Self::Tag) -> Option<Self::Tag>;

    /// `tag` shifted down by a rebase baseline, or `None` if the result
    /// does not fit (only when [`TagArith::CHECKED_REBASE`]).
    fn rebased(tag: Self::Tag, base: Self::Tag) -> Option<Self::Tag>;

    /// The tag's exact rational value, for observer events and the
    /// diagnostic accessors.
    fn to_ratio(&self, tag: Self::Tag) -> Ratio;
}

/// Exact rational tag arithmetic.
///
/// - The virtual time is snapped to the pico grid at its read point,
///   which bounds tag denominators under adversarial weight mixes and
///   is a no-op at the scales the theorem tests run at (see
///   [`Ratio::snap_pico`]).
/// - The GC horizon is floored: `⌊v⌋ ≤ snap(v')` for every `v' ≥ v`, so
///   the horizon stays safe under later snaps.
/// - A rebase subtracts `⌊v⌋`. An integer shift commutes exactly with
///   `max`, `+`, comparison and the snap, so dequeue order and every
///   observer-visible lag are bit-identical to the un-rebased run; it
///   is all-or-nothing (each subtraction is verified to fit first).
#[derive(Clone, Copy, Debug, Default)]
pub struct Exact;

impl TagArith for Exact {
    type Tag = Ratio;
    type Inc = ();
    type Tie = i128;

    const ZERO: Ratio = Ratio::ZERO;
    const FIXED: bool = false;
    const CHECKED_REBASE: bool = true;

    fn inc(&self, flow: FlowId, rate: Rate) -> Result<(), SchedError> {
        if rate.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        Ok(())
    }

    #[inline]
    fn snap(v: Ratio) -> Ratio {
        v.snap_pico()
    }

    #[inline]
    fn advance(start: Ratio, rate: Rate, (): (), len: Bytes) -> Option<Ratio> {
        start.checked_add(rate.tag_span(len))
    }

    #[inline]
    fn max(a: Ratio, b: Ratio) -> Ratio {
        a.max(b)
    }

    fn gc_horizon(v: Ratio) -> Ratio {
        Ratio::from_int(v.floor())
    }

    #[inline]
    fn outgrown(v: Ratio, threshold_bits: u32) -> bool {
        v.magnitude_bits() > threshold_bits
    }

    fn rebase_base(&self, v: Ratio) -> Option<Ratio> {
        let base = Ratio::from_int(v.floor());
        base.is_positive().then_some(base)
    }

    fn rebased(tag: Ratio, base: Ratio) -> Option<Ratio> {
        tag.checked_sub(base)
    }

    #[inline]
    fn to_ratio(&self, tag: Ratio) -> Ratio {
        tag
    }
}
