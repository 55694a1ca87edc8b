//! Fixed-point u64 tag arithmetic: [`Fixed`], the [`TagArith`] that
//! turns the one scheduler core ([`crate::TagSched`]) into the
//! fast-path [`SfqFast`](crate::SfqFast) / [`ScfqFast`](crate::ScfqFast).
//!
//! The exact schedulers ([`crate::Sfq`], [`crate::Scfq`]) compute every
//! start/finish tag in reduced `i128` rational arithmetic. That is the
//! right foundation for proving the paper's theorems, but each tag update
//! costs gcd reductions and 128-bit multiplies. Production schedulers
//! (cf. the kernel HFSC `SM_SHIFT`/`ISM_SHIFT` idiom) instead keep tags
//! as shifted integers: a virtual-time unit is split into `2^SHIFT`
//! sub-units, and the per-flow inverse rate is precomputed once at flow
//! registration so the per-packet tag delta is a single multiply and
//! shift.
//!
//! # Representation
//!
//! A [`FixedTag`] holds `raw / 2^shift` virtual-time units in a bare
//! `u64`; the shift is carried by the scheduler, not the tag, so tag
//! comparison is native integer comparison. [`DEFAULT_SHIFT`] is 24
//! bits of fraction, leaving 40 integer bits of virtual time — with the
//! eager rebase threshold clamped to [`MAX_REBASE_BITS`] the scheduler
//! re-zeroes long before wraparound (see the wraparound rule below).
//!
//! # The split multiply
//!
//! The per-flow increment ([`FixedInc`]) stores
//! `ism = floor(2^(shift + ISM_SHIFT) / rate_bps)`, the inverse rate in
//! a *higher* precision than the tag grid. A packet of `b` bits then
//! spans `(b * ism) >> ISM_SHIFT` tag sub-units. Overflow is impossible
//! for any packet up to 64 KB at any rate down to 1 bit/s:
//! `b ≤ 2^19` (64 KB = 2^16 bytes = 2^19 bits) and
//! `ism ≤ 2^(shift + ISM_SHIFT) ≤ 2^44` for `shift ≤` [`MAX_SHIFT`],
//! so the product is `≤ 2^63 < 2^64` — which is exactly why
//! [`MAX_SHIFT`] is 24. Larger packets are handled with a widening
//! multiply and a checked narrowing that surfaces
//! [`SchedError::TagOverflow`](crate::SchedError) instead of wrapping.
//!
//! # Error bound
//!
//! Two truncations happen per packet: `ism` loses `< 1` unit of
//! `2^-(shift + ISM_SHIFT)` against the exact `1/r`, and the final
//! `>> ISM_SHIFT` loses `< 1` tag sub-unit (`2^-shift`). The per-packet
//! span error against the exact `l/r` is therefore bounded by
//!
//! ```text
//! err < b · 2^-(shift + ISM_SHIFT) + 2^-shift ≤ 1.5 · 2^-shift
//! ```
//!
//! for `b ≤ 2^19 = 2^ISM_SHIFT / 2`. Tag errors accumulate only along a
//! single flow's finish-tag chain (start tags re-synchronize to v(t),
//! which is another flow's quantized tag, never an accumulation), so
//! after a flow dequeues `N` packets its tag error is `< 1.5·N·2^-shift`
//! virtual-time units — the bound docs/fixed_point.md derives and the
//! differential tests check against the FlowMetrics lag watermark.
//!
//! # Wraparound rule
//!
//! Tags are compared as plain `u64`s, which is only sound while all live
//! tags sit in a window well below `2^64`. Rather than serial-number
//! arithmetic (RFC 1982-style windowed comparison is not transitive, so
//! it cannot back a `BinaryHeap`'s total order), the fast schedulers
//! reuse the PR 4 rebasing hook: when the virtual time's magnitude
//! crosses the threshold, every live tag is shifted down by
//! `v.floor_to_base(shift)` — an integer number of virtual-time units,
//! mirroring the exact scheduler's `floor` rebase so relative order (and
//! even sub-unit fractions) are untouched. A [`seq_cmp`] helper
//! implementing the windowed comparison is provided for tests and
//! debug assertions documenting why it was rejected for the heap path.

use crate::arith::TagArith;
use crate::packet::FlowId;
use crate::sched::SchedError;
use core::cmp::Ordering;
use core::fmt;
use simtime::{Bytes, Rate, Ratio};

/// Default fractional bits of a [`FixedTag`] (the `SM_SHIFT` analogue).
pub const DEFAULT_SHIFT: u32 = 24;

/// Extra precision bits carried by the inverse-rate increment over the
/// tag grid (the `ISM_SHIFT` analogue).
pub const ISM_SHIFT: u32 = 20;

/// Largest supported fractional shift. At `shift = 24` the split
/// multiply `bits · ism` peaks at `2^19 · 2^44 = 2^63` for 64 KB packets
/// at 1 bit/s; one more bit of shift would overflow u64.
pub const MAX_SHIFT: u32 = 24;

/// Effective ceiling for the eager-rebase threshold on u64 tags: rebase
/// whenever the virtual time needs more than this many bits. The exact
/// schedulers accept thresholds up to 127 (i128 headroom); a u64 tag at
/// [`DEFAULT_SHIFT`] has only 40 integer bits, so thresholds above 48
/// are clamped here — far below wraparound, far above any single busy
/// period's growth.
pub const MAX_REBASE_BITS: u32 = 48;

/// A virtual-time tag in fixed point: `raw / 2^shift` virtual-time
/// units. The shift lives in the owning scheduler; tags from schedulers
/// with different shifts must never be compared (nothing in the
/// workspace does).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FixedTag(u64);

impl FixedTag {
    /// The zero tag.
    pub const ZERO: FixedTag = FixedTag(0);

    /// Construct from a raw sub-unit count.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        FixedTag(raw)
    }

    /// The raw sub-unit count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Quantize an exact rational to the `2^shift` grid, rounding
    /// half-up (ties away from zero for the non-negative tags used
    /// here). Returns `None` for negative values or values that do not
    /// fit the 64-bit raw range — tag space is non-negative by
    /// construction in every scheduler.
    pub fn from_ratio(r: Ratio, shift: u32) -> Option<Self> {
        if r.is_negative() {
            return None;
        }
        let num = r
            .numer()
            .checked_shl(shift)
            .filter(|s| s >> shift == r.numer())?;
        let den = r.denom();
        // Round half-up: floor((2·num + den) / (2·den)).
        let q = (num.checked_mul(2)?.checked_add(den)?).div_euclid(den.checked_mul(2)?);
        u64::try_from(q).ok().map(FixedTag)
    }

    /// The exact rational value `raw / 2^shift`.
    pub fn to_ratio(self, shift: u32) -> Ratio {
        Ratio::new(self.0 as i128, 1i128 << shift)
    }

    /// Checked tag advance by `delta` sub-units.
    #[inline]
    pub fn checked_add(self, delta: u64) -> Option<Self> {
        self.0.checked_add(delta).map(FixedTag)
    }

    /// Saturating tag retreat, used by the scalar rebase: live tags are
    /// all `≥ base` within a busy period, so saturation only ever fires
    /// on idle flows' stale finish tags, where clamping to zero
    /// preserves the `max(v, last_finish)` start-tag rule (`v ≥ base`
    /// after the rebase, so the max picks `v` either way).
    #[inline]
    pub fn saturating_sub(self, base: Self) -> Self {
        FixedTag(self.0.saturating_sub(base.0))
    }

    /// Exact maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Bits needed to represent the raw value — the growth measure the
    /// eager rebase tests against its (clamped) threshold. Never below
    /// 1, mirroring `Ratio::magnitude_bits`.
    #[inline]
    pub fn magnitude_bits(self) -> u32 {
        (u64::BITS - self.0.leading_zeros()).max(1)
    }

    /// The largest whole-unit tag `≤ self`: raw value with the
    /// fractional bits cleared. This is the fast-path analogue of the
    /// exact rebase base `Ratio::from_int(v.floor())` — subtracting it
    /// shifts every tag by an integer number of virtual-time units and
    /// leaves all fractions (hence all orderings) intact.
    #[inline]
    pub fn floor_to_base(self, shift: u32) -> Self {
        FixedTag((self.0 >> shift) << shift)
    }
}

impl fmt::Debug for FixedTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedTag({:#x})", self.0)
    }
}

/// Windowed ("serial number") comparison of two raw tags: `a` is deemed
/// less than `b` when the wrapped distance `b - a` is below half the
/// u64 range. Correct for any pair of live tags less than `2^63`
/// sub-units apart **but not transitive** (three tags spaced `2^63`
/// apart order cyclically), which is why the heap path uses plain `Ord`
/// plus periodic rebasing instead. Exposed for tests and for debug
/// assertions that document that choice.
pub fn seq_cmp(a: FixedTag, b: FixedTag) -> Ordering {
    if a.0 == b.0 {
        Ordering::Equal
    } else if b.0.wrapping_sub(a.0) < (1u64 << 63) {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Precomputed per-flow inverse-rate increment: turns a packet length
/// into a fixed-point tag delta with one widening multiply and a shift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedInc {
    /// `floor(2^(shift + ISM_SHIFT) / rate_bps)`.
    ism: u64,
}

impl FixedInc {
    /// Precompute the increment for `flow` of weight `rate` on a
    /// `2^shift` tag grid.
    ///
    /// Fails with [`SchedError::ZeroWeight`] on a zero rate and
    /// [`SchedError::TagOverflow`] on a zero shift or one above
    /// [`MAX_SHIFT`] (the overflow-freedom proof in the module docs
    /// holds only up to there). Rates above `2^(shift + ISM_SHIFT)`
    /// bits/s truncate the increment to zero; [`FixedInc::span`] clamps
    /// every delta to at least one sub-unit so finish-tag chains stay
    /// strictly increasing even then.
    pub fn new(flow: FlowId, rate: Rate, shift: u32) -> Result<Self, SchedError> {
        if rate.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        if shift == 0 || shift > MAX_SHIFT {
            return Err(SchedError::TagOverflow);
        }
        Ok(FixedInc {
            ism: (1u64 << (shift + ISM_SHIFT)) / rate.as_bps(),
        })
    }

    /// The raw inverse-rate increment (for tests and diagnostics).
    pub const fn ism(self) -> u64 {
        self.ism
    }

    /// The tag delta spanned by a packet of length `len`:
    /// `(len.bits() · ism) >> ISM_SHIFT`, clamped to at least one
    /// sub-unit so per-flow finish tags are strictly increasing.
    ///
    /// The multiply widens to u128 (a single `mul` on 64-bit targets)
    /// so packets beyond the 64 KB proof envelope degrade to a checked
    /// [`SchedError::TagOverflow`] instead of wrapping.
    #[inline]
    pub fn span(self, len: Bytes) -> Result<u64, SchedError> {
        let wide = (len.bits() as u128 * self.ism as u128) >> ISM_SHIFT;
        match u64::try_from(wide) {
            Ok(d) => Ok(d.max(1)),
            Err(_) => Err(SchedError::TagOverflow),
        }
    }
}

/// Fixed-point tag arithmetic on a `2^shift` grid: the [`TagArith`]
/// behind [`SfqFast`](crate::SfqFast) and [`ScfqFast`](crate::ScfqFast).
///
/// - Tags are [`FixedTag`]s, the per-flow increment a [`FixedInc`], the
///   tie-break key an `i64`: a start-ordered heap key is 24 bytes
///   against the exact arithmetic's 64.
/// - No snap at the `v(t)` read point: tags already live on the grid.
/// - A rebase subtracts the whole-unit part of `v(t)` and saturates
///   instead of dry-checking: every tag live in the current busy period
///   is `≥ base`, and an idle flow's stale `last_finish < base` clamps
///   to zero, which preserves Eq. 4's `max(v, last_finish)` because the
///   rebased `v` is `≥` the rebased stale finish either way.
/// - The eager-rebase threshold is clamped to [`MAX_REBASE_BITS`]:
///   callers tuned for `i128` tags pass thresholds (e.g. 96) a u64
///   would wrap long before reaching.
#[derive(Clone, Copy, Debug)]
pub struct Fixed {
    shift: u32,
}

impl Fixed {
    /// Arithmetic on a `2^shift` tag grid. Rejects `shift == 0` and
    /// `shift >` [`MAX_SHIFT`] with [`SchedError::TagOverflow`] — the
    /// u64 overflow-freedom proof only covers that range. Small shifts
    /// are for experiments: the pinned adversarial witness in the test
    /// suite uses `shift = 4` to show the quantization bound has teeth.
    pub fn new(shift: u32) -> Result<Self, SchedError> {
        if shift == 0 || shift > MAX_SHIFT {
            return Err(SchedError::TagOverflow);
        }
        Ok(Fixed { shift })
    }

    /// The tag grid's fractional bit count.
    pub fn shift(self) -> u32 {
        self.shift
    }
}

impl Default for Fixed {
    /// The [`DEFAULT_SHIFT`] grid.
    fn default() -> Self {
        Fixed {
            shift: DEFAULT_SHIFT,
        }
    }
}

impl TagArith for Fixed {
    type Tag = FixedTag;
    type Inc = FixedInc;
    type Tie = i64;

    const ZERO: FixedTag = FixedTag::ZERO;
    const FIXED: bool = true;
    const CHECKED_REBASE: bool = false;

    fn inc(&self, flow: FlowId, rate: Rate) -> Result<FixedInc, SchedError> {
        FixedInc::new(flow, rate, self.shift)
    }

    #[inline]
    fn snap(v: FixedTag) -> FixedTag {
        v
    }

    #[inline]
    fn advance(start: FixedTag, _rate: Rate, inc: FixedInc, len: Bytes) -> Option<FixedTag> {
        start.checked_add(inc.span(len).ok()?)
    }

    #[inline]
    fn max(a: FixedTag, b: FixedTag) -> FixedTag {
        a.max(b)
    }

    fn add(tag: FixedTag, offset: FixedTag) -> Option<FixedTag> {
        tag.checked_add(offset.raw())
    }

    #[inline]
    fn outgrown(v: FixedTag, threshold_bits: u32) -> bool {
        v.magnitude_bits() > threshold_bits.min(MAX_REBASE_BITS)
    }

    fn rebase_base(&self, v: FixedTag) -> Option<FixedTag> {
        let base = v.floor_to_base(self.shift);
        (base.raw() != 0).then_some(base)
    }

    #[inline]
    fn rebased(tag: FixedTag, base: FixedTag) -> Option<FixedTag> {
        Some(tag.saturating_sub(base))
    }

    fn to_ratio(&self, tag: FixedTag) -> Ratio {
        tag.to_ratio(self.shift)
    }

    fn tag(&self, r: Ratio) -> Option<FixedTag> {
        FixedTag::from_ratio(r, self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ratio_rounds_half_up() {
        // 5/2 at shift 1 → raw 5 exactly (no rounding).
        assert_eq!(
            FixedTag::from_ratio(Ratio::new(5, 2), 1),
            Some(FixedTag::from_raw(5))
        );
        // 1/3 at shift 1 → 2/3 raw → rounds to 1.
        assert_eq!(
            FixedTag::from_ratio(Ratio::new(1, 3), 1),
            Some(FixedTag::from_raw(1))
        );
        // Exactly-half ULP rounds up: 1/2 sub-unit at shift 2 is 1/8.
        assert_eq!(
            FixedTag::from_ratio(Ratio::new(1, 8), 2),
            Some(FixedTag::from_raw(1))
        );
        // Just below half rounds down.
        assert_eq!(
            FixedTag::from_ratio(Ratio::new(1, 9), 2),
            Some(FixedTag::from_raw(0))
        );
        // Negative values are rejected.
        assert_eq!(FixedTag::from_ratio(Ratio::new(-1, 2), 4), None);
    }

    #[test]
    fn from_ratio_rejects_out_of_range() {
        // u64::MAX fits at shift 0-ish scale; beyond it must refuse.
        let max = Ratio::from_int(u64::MAX as i128);
        assert_eq!(
            FixedTag::from_ratio(max, 1),
            None,
            "u64::MAX << 1 exceeds the raw range"
        );
        let huge = Ratio::from_int(i128::MAX >> DEFAULT_SHIFT);
        assert_eq!(FixedTag::from_ratio(huge, DEFAULT_SHIFT), None);
        // The shl-overflow guard: a numerator whose top bits would be
        // shifted out is refused, not silently truncated.
        let top = Ratio::from_int(i128::MAX);
        assert_eq!(FixedTag::from_ratio(top, DEFAULT_SHIFT), None);
    }

    #[test]
    fn ratio_roundtrip_is_exact_on_grid_values() {
        for shift in [1, 4, 12, DEFAULT_SHIFT] {
            for raw in [0u64, 1, 7, 1 << 30, (1 << 40) + 3] {
                let t = FixedTag::from_raw(raw);
                assert_eq!(
                    FixedTag::from_ratio(t.to_ratio(shift), shift),
                    Some(t),
                    "raw={raw} shift={shift}"
                );
            }
        }
    }

    #[test]
    fn cmp_add_agree_with_ratio_on_small_domain() {
        // Exhaustive small-domain equivalence of FixedTag cmp/add
        // against exact Ratio arithmetic on on-grid values (same style
        // as the PR 1 Ratio fast-path checks): for values that are
        // exactly representable, fixed point is not an approximation.
        let shift = 4u32;
        for a in 0u64..64 {
            for b in 0u64..64 {
                let (fa, fb) = (FixedTag::from_raw(a), FixedTag::from_raw(b));
                let (ra, rb) = (fa.to_ratio(shift), fb.to_ratio(shift));
                assert_eq!(fa.cmp(&fb), ra.cmp(&rb), "{a} vs {b}");
                assert_eq!(fa.max(fb).to_ratio(shift), ra.max(rb));
                let sum = fa.checked_add(b).unwrap();
                assert_eq!(sum.to_ratio(shift), ra + rb, "{a} + {b}");
            }
        }
    }

    #[test]
    fn span_matches_exact_on_power_of_two_rates() {
        // Quantization-safe regime: rate 2^k with k ≤ shift makes every
        // delta exactly representable — span == l/r on the grid.
        let shift = DEFAULT_SHIFT;
        for k in [10u32, 14, 17, 20, 24] {
            let rate = Rate::bps(1 << k);
            let inc = FixedInc::new(FlowId(1), rate, shift).unwrap();
            for len in [1u64, 40, 576, 1500, 65_536] {
                let d = inc.span(Bytes::new(len)).unwrap();
                let exact = rate.tag_span(Bytes::new(len));
                assert_eq!(
                    FixedTag::from_raw(d).to_ratio(shift),
                    exact,
                    "k={k} len={len}"
                );
            }
        }
    }

    #[test]
    fn span_truncation_error_is_bounded() {
        // Arbitrary rates: fixed span ≤ exact span, short by strictly
        // less than 1.5 ULP of 2^-shift (module-doc bound) for packets
        // within the 64 KB envelope.
        let shift = DEFAULT_SHIFT;
        let ulp = Ratio::new(1, 1i128 << shift);
        let bound = Ratio::new(3, 1i128 << (shift + 1));
        for rate_bps in [1u64, 3, 7, 999, 64_000, 1_000_000, 123_456_789] {
            let rate = Rate::bps(rate_bps);
            let inc = FixedInc::new(FlowId(1), rate, shift).unwrap();
            for len in [1u64, 39, 200, 1500, 65_536] {
                let d = inc.span(Bytes::new(len)).unwrap();
                let fixed = FixedTag::from_raw(d).to_ratio(shift);
                let exact = rate.tag_span(Bytes::new(len));
                let err = exact - fixed;
                // The ≥1 clamp can push tiny spans above exact by < 1 ULP.
                assert!(err > -ulp, "rate={rate_bps} len={len} err={err:?}");
                assert!(err < bound, "rate={rate_bps} len={len} err={err:?}");
            }
        }
    }

    #[test]
    fn one_bit_packet_at_minimum_rate_does_not_overflow() {
        // The extreme corner of the proof envelope: 64 KB at 1 bit/s,
        // the largest product the split multiply can see in-envelope.
        let inc = FixedInc::new(FlowId(1), Rate::bps(1), MAX_SHIFT).unwrap();
        assert_eq!(inc.ism(), 1u64 << (MAX_SHIFT + ISM_SHIFT));
        let d = inc.span(Bytes::from_kib(64)).unwrap();
        // 2^19 bits · 2^44 >> 20 = 2^43 sub-units = 2^19 units: exact.
        assert_eq!(d, 1u64 << (19 + MAX_SHIFT));
        // And the smallest: one byte (the sub-byte "1-bit packet" isn't
        // representable — Bytes is the length unit) still spans > 0.
        let tiny = inc.span(Bytes::new(1)).unwrap();
        assert_eq!(tiny, 8u64 << MAX_SHIFT); // 8 bits at 1 b/s = 8 units
    }

    #[test]
    fn span_clamps_to_one_ulp_at_extreme_rates() {
        // Rate above 2^(shift+ISM_SHIFT): ism truncates to zero, so the
        // clamp is what keeps finish chains strictly increasing.
        let inc = FixedInc::new(FlowId(1), Rate::bps(1u64 << 50), DEFAULT_SHIFT).unwrap();
        assert_eq!(inc.ism(), 0);
        assert_eq!(inc.span(Bytes::new(1500)).unwrap(), 1);
    }

    #[test]
    fn span_overflow_is_checked_beyond_envelope() {
        // A pathological jumbo "packet" far beyond 64 KB at minimum
        // rate: must surface TagOverflow, not wrap.
        let inc = FixedInc::new(FlowId(1), Rate::bps(1), MAX_SHIFT).unwrap();
        let jumbo = Bytes::new(1u64 << 40);
        assert_eq!(inc.span(jumbo), Err(SchedError::TagOverflow));
    }

    #[test]
    fn inc_rejects_bad_parameters() {
        assert_eq!(
            FixedInc::new(FlowId(1), Rate::bps(0), DEFAULT_SHIFT),
            Err(SchedError::ZeroWeight(FlowId(1)))
        );
        assert_eq!(
            FixedInc::new(FlowId(1), Rate::kbps(64), MAX_SHIFT + 1),
            Err(SchedError::TagOverflow)
        );
        assert_eq!(
            FixedInc::new(FlowId(1), Rate::kbps(64), 0),
            Err(SchedError::TagOverflow)
        );
    }

    #[test]
    fn ism_near_u64_increment_overflow_edges() {
        // The ism computation itself peaks at 2^44 (shift 24, rate 1);
        // confirm the boundary rates round the right way.
        let inc = FixedInc::new(FlowId(1), Rate::bps(2), MAX_SHIFT).unwrap();
        assert_eq!(inc.ism(), 1u64 << 43);
        let inc = FixedInc::new(FlowId(1), Rate::bps(3), MAX_SHIFT).unwrap();
        assert_eq!(inc.ism(), (1u64 << 44) / 3); // floor division
                                                 // u64::MAX rate: ism floors to zero, span clamps.
        let inc = FixedInc::new(FlowId(1), Rate::bps(u64::MAX), MAX_SHIFT).unwrap();
        assert_eq!(inc.ism(), 0);
        assert_eq!(inc.span(Bytes::new(64_000)).unwrap(), 1);
    }

    #[test]
    fn seq_cmp_windows_but_is_not_transitive() {
        let a = FixedTag::from_raw(u64::MAX - 10);
        let b = FixedTag::from_raw(5); // wrapped past zero: "after" a
        assert_eq!(seq_cmp(a, b), Ordering::Less);
        assert_eq!(seq_cmp(b, a), Ordering::Greater);
        assert_eq!(seq_cmp(a, a), Ordering::Equal);
        // The non-transitivity witness that rules it out for the heap:
        // three tags a third of the ring apart order cyclically —
        // x < y, y < z, but z < x.
        let third = u64::MAX / 3;
        let x = FixedTag::from_raw(0);
        let y = FixedTag::from_raw(third);
        let z = FixedTag::from_raw(2 * third);
        assert_eq!(seq_cmp(x, y), Ordering::Less);
        assert_eq!(seq_cmp(y, z), Ordering::Less);
        assert_eq!(seq_cmp(z, x), Ordering::Less, "cyclic: not transitive");
    }

    #[test]
    fn floor_to_base_mirrors_exact_floor() {
        let shift = DEFAULT_SHIFT;
        for raw in [0u64, 1, (1 << 24) - 1, 1 << 24, (5 << 24) + 12_345] {
            let t = FixedTag::from_raw(raw);
            let base = t.floor_to_base(shift);
            assert_eq!(
                base.to_ratio(shift),
                Ratio::from_int(t.to_ratio(shift).floor()),
                "raw={raw}"
            );
            // Subtracting the base preserves the fraction.
            assert_eq!(t.raw() - base.raw(), raw & ((1 << shift) - 1));
        }
    }

    #[test]
    fn saturating_sub_clamps_stale_tags() {
        let base = FixedTag::from_raw(1000);
        assert_eq!(
            FixedTag::from_raw(1500).saturating_sub(base),
            FixedTag::from_raw(500)
        );
        assert_eq!(FixedTag::from_raw(10).saturating_sub(base), FixedTag::ZERO);
    }

    #[test]
    fn magnitude_bits_tracks_growth() {
        assert_eq!(FixedTag::ZERO.magnitude_bits(), 1);
        assert_eq!(FixedTag::from_raw(1).magnitude_bits(), 1);
        assert_eq!(FixedTag::from_raw(2).magnitude_bits(), 2);
        assert_eq!(FixedTag::from_raw(1 << 47).magnitude_bits(), 48);
        assert_eq!(FixedTag::from_raw(u64::MAX).magnitude_bits(), 64);
    }
}
