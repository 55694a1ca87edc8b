//! Best-effort software prefetch for the scheduler hot paths.
//!
//! Two callers, one instruction (x86-64 `prefetcht0`; nothing on other
//! targets, where both callers simply run without look-ahead):
//!
//! **The pooled dequeue's look-ahead** ([`prefetch_value`]). Per-flow
//! FIFOs scatter a flow's slot, its head packet and the packet behind it
//! over three places that were last touched when the packets were
//! enqueued — a full revolution of the backlog ago, long out of every
//! cache at a million flows. After each heap refill the dequeue asks
//! for the lines the *next* pop will read and for the flow slots the pop
//! after that may start from (see `docs/pooling.md`, "Dequeue
//! look-ahead").
//!
//! **The head-of-flow heap's own descent** ([`prefetch_span`]). A `pop`
//! on a heap far larger than cache knows, several levels ahead, the
//! contiguous run of entries its walk will pass through (see
//! [`crate::flowq::HeadHeap`]), and asks for the whole run.
//!
//! A prefetch is only a hint: issuing one for a stale heap entry or a
//! line that is about to change is harmless, so callers need no
//! precision here, and it retires at once whether or not the line is
//! home, so asking never delays the work it runs ahead of. This module
//! is the crate's only `unsafe`.

/// Cache-line size assumed by both primitives.
const LINE: usize = 64;

/// Call `touch` with byte offsets into a value of `size` bytes aligned
/// to `align` such that every 64-byte line the value overlaps is hit,
/// wherever the alignment lets it sit: one offset per `LINE` from the
/// first byte, plus the last byte when the value can straddle one line
/// more than `size / LINE` rounds to (a 96-byte, 8-aligned slab slot
/// at line offset 40 covers three lines, not two). Both conditions are
/// compile-time constants at every call site.
#[inline(always)]
fn for_each_line_offset(size: usize, align: usize, mut touch: impl FnMut(usize)) {
    let mut off = 0usize;
    while off < size {
        touch(off);
        off += LINE;
    }
    if size > 0 && (size - 1) % LINE >= align {
        touch(size - 1);
    }
}

/// Hint every line of the `size` bytes at `base`, which is aligned to
/// `align`.
///
/// # Safety
///
/// `base..base + size` must lie inside one live allocation.
#[inline(always)]
unsafe fn hint_lines(base: *const u8, size: usize, align: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        for_each_line_offset(size, align, |off| {
            // SAFETY: `off < size`, so by the caller's guarantee the
            // address is inside a live allocation (and the instruction
            // cannot fault).
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off) as *const i8) };
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (base, size, align);
}

/// Ask for every cache line `*v` overlaps (see `for_each_line_offset`
/// for the one a value that is not line-aligned adds).
#[inline]
pub fn prefetch_value<T>(v: &T) {
    // SAFETY: the range is exactly the live `&T`.
    unsafe {
        hint_lines(
            v as *const T as *const u8,
            core::mem::size_of::<T>(),
            core::mem::align_of::<T>(),
        )
    };
}

/// Ask for every cache line of `s`.
#[inline]
pub fn prefetch_span<T>(s: &[T]) {
    // SAFETY: the range is exactly the live slice, which starts where
    // a `T` may.
    unsafe {
        hint_lines(
            s.as_ptr() as *const u8,
            core::mem::size_of_val(s),
            core::mem::align_of::<T>(),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line a value of `(size, align)` overlaps is touched, at
    /// every offset into a line its alignment allows.
    fn covers_every_line(size: usize, align: usize) {
        for start in (0..LINE).step_by(align.min(LINE)) {
            let mut hit = Vec::new();
            for_each_line_offset(size, align, |off| {
                assert!(off < size, "out-of-bounds offset {off}");
                hit.push((start + off) / LINE);
            });
            hit.dedup();
            let covered: Vec<usize> = (start / LINE..=(start + size - 1) / LINE).collect();
            assert_eq!(hit, covered, "{size}/{align} value at line offset {start}");
        }
    }

    /// The shapes that get hinted, as `SfqFast` really lays them out
    /// (pinned in `tagsched.rs`), and two that are not line-friendly.
    #[test]
    fn every_line_a_value_overlaps_is_touched() {
        let l = crate::tagsched::sfq_fast_layout();
        for (size, align) in [l.slab_slot, l.flow_slot, l.heap_entry, (104, 8), (1, 1)] {
            covers_every_line(size, align);
        }
    }

    #[test]
    fn values_that_cannot_straddle_get_no_extra_touch() {
        let count = |size, align| {
            let mut n = 0;
            for_each_line_offset(size, align, |_| n += 1);
            n
        };
        assert_eq!(count(8, 8), 1);
        assert_eq!(count(64, 64), 1);
        assert_eq!(count(128, 64), 2);
        assert_eq!(count(32, 8), 2); // a 32-byte heap entry can straddle
        assert_eq!(count(64, 8), 2); // a flow slot can straddle
        assert_eq!(count(96, 8), 3); // and so can a slab slot
        assert_eq!(count(0, 1), 0);
    }

    #[test]
    fn primitives_accept_any_value() {
        prefetch_span::<u64>(&[]);
        prefetch_span(&[1u8]);
        prefetch_span(&[0u64; 100]);
        prefetch_value(&[0u8; 104]);
        prefetch_value(&());
    }
}
