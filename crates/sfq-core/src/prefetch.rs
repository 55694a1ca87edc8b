//! Best-effort software prefetch for the scheduler hot paths.
//!
//! Two callers, two primitives:
//!
//! **The next winner's head packet** ([`prefetch_read`]). With per-flow
//! FIFO rings, the line holding a flow's head packet was written when
//! the packet was enqueued — one full ring revolution ago. At deep
//! backlogs that write-to-read reuse distance exceeds the L2 working set
//! and, unlike a single global FIFO, hundreds of scattered rings defeat
//! the hardware stride prefetcher. The schedulers therefore issue an
//! explicit prefetch for the *next* dequeue candidate's head (known from
//! the top of the head-of-flow heap) while finishing the current
//! dequeue, buying roughly one operation of lead time to cover the miss.
//!
//! **The head-of-flow heap's own descent** ([`prefetch_span`]). A `pop`
//! on a heap far larger than cache knows, several levels ahead, the
//! contiguous run of entries its walk will pass through (see
//! [`crate::flowq::HeadHeap`]), and asks for the whole run.
//!
//! A prefetch is only a hint: issuing one for a stale heap entry or a
//! line that is about to change is harmless, so callers need no
//! precision here. This module is the crate's only `unsafe`.

/// Cache-line size assumed by both primitives.
const LINE: usize = 64;

/// Call `touch` with byte offsets into a value of `size` bytes aligned
/// to `align` such that every 64-byte line the value overlaps is hit,
/// wherever the alignment lets it sit: one offset per `LINE` from the
/// first byte, plus the last byte when the value can straddle one line
/// more than `size / LINE` rounds to (a 104-byte, 8-aligned record at
/// line offset 32 covers three lines, not two). Both conditions are
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

/// Pull the cache lines holding `*v` toward L1 by issuing real
/// (discarded) loads, one per 64-byte line the value overlaps (see
/// `for_each_line_offset` for the one a value that is not
/// line-aligned adds).
///
/// A demand load rather than a prefetch hint on purpose: x86 `prefetch`
/// instructions are dropped on a dTLB miss, and a deep backlog spans
/// enough pages that the translation itself is usually the cold part.
/// The loads' results feed nothing, so out-of-order execution retires
/// surrounding work while the miss (and page walk) resolves.
#[inline]
pub fn prefetch_read<T>(v: &T) {
    let base = v as *const T as *const u8;
    for_each_line_offset(
        core::mem::size_of::<T>(),
        core::mem::align_of::<T>(),
        |off| {
            // SAFETY: `off < size_of::<T>()`, so this is an in-bounds
            // read of a live `&T`; volatile so the otherwise-dead load
            // is not elided.
            core::hint::black_box(unsafe { core::ptr::read_volatile(base.add(off)) });
        },
    );
}

/// Ask for every cache line of `s` with a prefetch *hint* (x86-64
/// `prefetcht0`; nothing on other targets, where the heap simply runs
/// without look-ahead).
///
/// A hint rather than [`prefetch_read`]'s demand load, by measurement:
/// the heap issues nine of these per level and uses one, and a hint
/// retires at once whereas a load holds its reorder-buffer slot until
/// the line arrives, so eight useless loads per level stall the very
/// descent they were meant to run ahead of (`sched_scale`, 1 M flows:
/// see EXPERIMENTS.md for both figures).
#[inline]
pub fn prefetch_span<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = s.as_ptr() as *const i8;
        // `align` 1: a slice can start anywhere in its first line.
        for_each_line_offset(core::mem::size_of_val(s), 1, |off| {
            // SAFETY: `off < size_of_val(s)`, so the address is inside
            // the live slice (and the instruction cannot fault).
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off)) };
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = s;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pooled `Entry` shape: bigger than one line, 8-aligned.
    #[repr(align(8))]
    #[allow(dead_code)]
    struct Rec([u8; 104]);

    #[test]
    fn every_line_a_value_overlaps_is_touched() {
        let (size, align) = (core::mem::size_of::<Rec>(), core::mem::align_of::<Rec>());
        assert_eq!((size, align), (104, 8));
        for start in (0..LINE).step_by(align) {
            let mut hit = Vec::new();
            for_each_line_offset(size, align, |off| {
                assert!(off < size, "out-of-bounds offset {off}");
                hit.push((start + off) / LINE);
            });
            hit.dedup();
            let covered: Vec<usize> = (start / LINE..=(start + size - 1) / LINE).collect();
            assert_eq!(hit, covered, "value at line offset {start}");
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
        assert_eq!(count(0, 1), 0);
    }

    #[test]
    fn primitives_accept_any_slice() {
        prefetch_span::<u64>(&[]);
        prefetch_span(&[1u8]);
        prefetch_span(&[0u64; 100]);
        prefetch_read(&Rec([0; 104]));
    }
}
