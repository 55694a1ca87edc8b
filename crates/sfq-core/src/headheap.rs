//! The head-of-flow heap: a binary min-heap whose `pop` overlaps the
//! cache misses of its own descent.
//!
//! [`FlowFifos`](crate::flowq::FlowFifos) keeps one entry per backlogged
//! flow here, so at a million flows the array is tens of megabytes and a
//! `pop` walks ~20 levels of it. Each level's address depends on the
//! previous level's comparison, so with `std::collections::BinaryHeap`
//! the bottom levels cost one full memory latency *each*, back to back.
//! The array is contiguous, though, and the `2^d` entries `d` levels
//! under any position sit side by side: while the hole is still `d`
//! levels above them, a removal ([`HeadHeap::pop`],
//! [`HeadHeap::pop_refill`]) asks for all of them at once, so by the
//! time the descent arrives the line it needs is in flight or home. Only lines past `COLD_BYTES` are asked for — the prefix before
//! it stays cache-resident by being touched on most pops — and the
//! prefetching loop is a separate, outlined function, so a heap that
//! fits in cache runs the same instructions as it would without it.
//!
//! Layout and comparison count are exactly std's (implicit binary tree,
//! hole moved to the bottom, replacement sifted up from there); what a
//! small heap saves against std is the second sift of a dequeue's
//! pop-then-push, which `pop_refill` folds into the first. See
//! `docs/pooling.md` ("Head-of-flow heap") for the measurements behind
//! binary-not-4-ary, the two constants and the fused operation.
//!
//! The pop *order* does not depend on any of this: it is the sorted
//! order of the elements, and ties may come out in any order. There are
//! none in `FlowFifos`, whose entries pair each head's key with its
//! packet's uid.

use crate::prefetch::prefetch_span;

/// Byte offset into the array past which `pop` prefetches lines ahead
/// of its descent. Everything before it (the top 13 levels at 32-byte
/// entries) is read often enough to stay in L2 on its own.
const COLD_BYTES: usize = 256 * 1024;

/// How many levels below the hole `pop` prefetches: all `2^AHEAD`
/// descendants at that depth, contiguous in the array. So the hole
/// starts asking once it is itself past `COLD_BYTES >> AHEAD`.
const AHEAD: u32 = 4;

/// A binary min-heap of `Copy` elements. See the module docs.
#[derive(Clone, Debug)]
pub struct HeadHeap<T> {
    data: Vec<T>,
}

impl<T> Default for HeadHeap<T> {
    fn default() -> Self {
        HeadHeap { data: Vec::new() }
    }
}

impl<T: Ord + Copy> HeadHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the heap holds nothing.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The minimum element, if any.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// The root's children (none, one or two elements, in no particular
    /// order): together with the element a removal re-admits, the only
    /// candidates for the minimum after next.
    #[inline]
    pub fn root_children(&self) -> &[T] {
        self.data.get(1..self.data.len().min(3)).unwrap_or(&[])
    }

    /// Remove every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Insert `v`.
    pub fn push(&mut self, v: T) {
        let pos = self.data.len();
        self.data.push(v);
        sift_up(&mut self.data, pos, v);
    }

    /// Remove and return the minimum element.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_refill(|_, _| None)
    }

    /// Remove the minimum element and, if `refill` returns one, insert
    /// that in the same pass — what a scheduler does on every dequeue:
    /// the flow that just won is re-admitted under its next packet's
    /// key. `refill` is shown the element removed and the minimum of
    /// what remains (`None` if nothing does), which is what a batch
    /// dequeue needs to decide whether the same flow wins again.
    ///
    /// The hole the minimum leaves is walked to the bottom *first* and
    /// `refill` runs afterwards, so whatever memory it has to read to
    /// produce the new element is not waited for ahead of the descent;
    /// the new element (or, without one, the last element of the array)
    /// then goes into the hole and is sifted up. Against `pop` + `push`
    /// this saves re-inserting the last element and one sift from the
    /// end of the array. Returns `None`, without calling `refill`, when
    /// the heap is empty.
    pub fn pop_refill(&mut self, refill: impl FnOnce(&T, Option<&T>) -> Option<T>) -> Option<T> {
        let data = &mut self.data[..];
        let min = *data.first()?;
        let hole = descend_to_bottom(data);
        // The descent moved the root's smaller child — the minimum of
        // the rest — into the root, unless the root was all there was.
        let rest_min = if hole == 0 { None } else { data.first() };
        match refill(&min, rest_min) {
            Some(v) => sift_up(data, hole, v),
            None => {
                // The array shrinks by one: its last element fills the
                // hole, unless the hole *is* the last position.
                let last = data.len() - 1;
                if hole != last {
                    sift_up(data, hole, data[last]);
                }
                self.data.truncate(last);
            }
        }
        Some(min)
    }

    /// Replace the contents with `items`, in `O(n)`: fill the array,
    /// then heapify bottom-up (Floyd) instead of one `push` per item.
    pub fn rebuild(&mut self, items: impl Iterator<Item = T>) {
        self.data.clear();
        self.data.extend(items);
        let n = self.data.len();
        for pos in (0..n / 2).rev() {
            sift_down(&mut self.data, pos);
        }
    }
}

/// Put `elt` where it belongs on the path from the hole at `pos` to
/// the root: parents greater than it move down, it lands above them.
fn sift_up<T: Ord + Copy>(data: &mut [T], mut pos: usize, elt: T) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if data[parent] <= elt {
            break;
        }
        data[pos] = data[parent];
        pos = parent;
    }
    data[pos] = elt;
}

/// Index of the smaller of the sibling pair `child`, `child + 1`,
/// chosen without a branch (the outcome is a coin flip to the
/// predictor). The right sibling wins ties, as in std.
#[inline(always)]
fn smaller_child<T: Ord>(data: &[T], child: usize) -> usize {
    child + usize::from(data[child + 1] <= data[child])
}

/// Treat the root as a hole and move it all the way down along the
/// smaller children; returns the leaf position where it stops. Going
/// to the bottom unconditionally (and sifting the replacement up from
/// there) does about half the comparisons of stopping at the first
/// level the replacement fits, because replacements are large: the
/// last element of the array, or a served flow's next, later, key.
fn descend_to_bottom<T: Ord + Copy>(data: &mut [T]) -> usize {
    let end = data.len();
    // Positions before this have every descendant `AHEAD` levels down
    // inside the warm prefix: they descend with no look-ahead.
    let warm_end = end.min((COLD_BYTES >> AHEAD) / std::mem::size_of::<T>().max(1));
    let mut pos = 0;
    let mut child = 1;
    while child + 1 < warm_end {
        child = smaller_child(data, child);
        data[pos] = data[child];
        pos = child;
        child = 2 * pos + 1;
    }
    if warm_end < end {
        pos = descend_cold(data, pos);
        child = 2 * pos + 1;
    }
    if child + 1 == end {
        data[pos] = data[child];
        pos = child;
    }
    pos
}

/// The part of [`descend_to_bottom`] that runs towards memory no cache
/// holds: the same hole walk from `pos`, except that each step first
/// requests the `2^AHEAD` descendants `AHEAD` levels down, one of which
/// the walk will need `AHEAD` steps from now. Returns where the hole
/// stopped (no sibling pair left under it).
///
/// Outlined so that the warm loop stays as small as std's however
/// much code the prefetching adds here.
#[inline(never)]
fn descend_cold<T: Ord + Copy>(data: &mut [T], mut pos: usize) -> usize {
    let end = data.len();
    let mut child = 2 * pos + 1;
    while child + 1 < end {
        // The descendants of `pos` that are `AHEAD` levels down start
        // at `(pos + 1) * 2^AHEAD - 1`.
        let first = ((pos + 1) << AHEAD) - 1;
        if first < end {
            prefetch_span(&data[first..end.min(first + (1 << AHEAD))]);
        }
        child = smaller_child(data, child);
        data[pos] = data[child];
        pos = child;
        child = 2 * pos + 1;
    }
    pos
}

/// Move the element at `pos` down to where both children are not
/// smaller (the classic sift, used by `rebuild`'s heapify, where most
/// elements move zero or one level).
fn sift_down<T: Ord + Copy>(data: &mut [T], mut pos: usize) {
    let end = data.len();
    let elt = data[pos];
    let mut child = 2 * pos + 1;
    while child + 1 < end {
        child = smaller_child(data, child);
        if elt <= data[child] {
            break;
        }
        data[pos] = data[child];
        pos = child;
        child = 2 * pos + 1;
    }
    if child + 1 == end && data[child] < elt {
        data[pos] = data[child];
        pos = child;
    }
    data[pos] = elt;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;
    use std::fmt::Debug;

    /// 32 bytes, like the scheduler's `((key, uid), slot)` entry.
    type Elt = [u64; 4];

    /// Heap length past which `pop` takes the prefetching branch for
    /// [`Elt`]: the tests size their heaps on both sides of it.
    const COLD_LEN: usize = (COLD_BYTES >> AHEAD) / std::mem::size_of::<Elt>();

    /// Ordered by `key` alone, so equal keys are distinguishable: the
    /// duplicate-key half of the differential test.
    #[derive(Clone, Copy, Debug)]
    struct Dup {
        key: u8,
        id: u64,
    }
    impl PartialEq for Dup {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Dup {}
    impl PartialOrd for Dup {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Dup {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key.cmp(&other.key)
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push(u64),
        Pop,
        /// `pop_refill` re-admitting the given draw, or nothing.
        Refill(Option<u64>),
        Peek,
        Clear,
        /// `rebuild` from this many fresh elements.
        Rebuild(usize),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            // The shim's prop_oneof! is unweighted: repeat the common arms.
            prop_oneof![
                (0u64..1 << 20).prop_map(Op::Push),
                (0u64..1 << 20).prop_map(Op::Push),
                Just(Op::Pop),
                Just(Op::Pop),
                prop::option::of(0u64..1 << 20).prop_map(Op::Refill),
                prop::option::of(0u64..1 << 20).prop_map(Op::Refill),
                Just(Op::Peek),
                Just(Op::Clear),
                (0usize..2 * COLD_LEN).prop_map(Op::Rebuild),
            ],
            1..300,
        )
    }

    /// A `HeadHeap` and the `BinaryHeap<Reverse<_>>` it must match, with
    /// everything that has left each so far.
    struct Pair<T> {
        heap: HeadHeap<T>,
        model: BinaryHeap<Reverse<T>>,
        ours: Vec<T>,
        theirs: Vec<T>,
    }

    impl<T: Ord + Copy + Debug> Pair<T> {
        /// One element left each side: they must be `==` (so: the same
        /// element for unique keys, the same key for [`Dup`]).
        fn popped(&mut self, a: Option<T>, b: Option<Reverse<T>>) -> Result<(), TestCaseError> {
            let b = b.map(|r| r.0);
            prop_assert_eq!(a, b);
            self.ours.extend(a);
            self.theirs.extend(b);
            Ok(())
        }

        /// Replace both sides' contents, booking what they held as gone
        /// (with ties, the two need not have held the same elements).
        fn reset(&mut self, next: Vec<T>) {
            let mut old = self.heap.clone();
            while let Some(e) = old.pop() {
                self.ours.push(e);
            }
            self.theirs.extend(self.model.drain().map(|r| r.0));
            if next.is_empty() {
                self.heap.clear();
            } else {
                self.heap.rebuild(next.iter().copied());
            }
            self.model.extend(next.into_iter().map(Reverse));
        }
    }

    /// Drive a `HeadHeap` and a `BinaryHeap<Reverse<_>>` through the
    /// same operations, elements made by `mk(draw, serial)`, checking
    /// every observation. Returns everything that left either side,
    /// final drain included.
    fn differential<T: Ord + Copy + Debug>(
        preload: usize,
        by_rebuild: bool,
        ops: &[Op],
        mk: impl Fn(u64, u64) -> T,
    ) -> Result<(Vec<T>, Vec<T>), TestCaseError> {
        let mut rng = preload as u64;
        let mut serial = 0u64;
        let mut fresh = |draw: Option<u64>| {
            serial += 1;
            mk(draw.unwrap_or_else(|| splitmix(&mut rng) >> 44), serial)
        };
        let mut p = Pair {
            heap: HeadHeap::new(),
            model: BinaryHeap::new(),
            ours: Vec::new(),
            theirs: Vec::new(),
        };
        let first: Vec<T> = (0..preload).map(|_| fresh(None)).collect();
        if by_rebuild {
            p.reset(first);
        } else {
            first.iter().for_each(|&e| p.heap.push(e));
            p.model.extend(first.into_iter().map(Reverse));
        }
        for op in ops {
            match *op {
                Op::Push(d) => {
                    let e = fresh(Some(d));
                    p.heap.push(e);
                    p.model.push(Reverse(e));
                }
                Op::Pop => {
                    let (a, b) = (p.heap.pop(), p.model.pop());
                    p.popped(a, b)?;
                }
                Op::Refill(d) => {
                    let e = d.map(|d| fresh(Some(d)));
                    let mut shown = None;
                    let a = p.heap.pop_refill(|min, rest| {
                        shown = Some((*min, rest.copied()));
                        e
                    });
                    let b = p.model.pop();
                    let rest = p.model.peek().map(|r| r.0);
                    prop_assert_eq!(shown, a.map(|a| (a, rest)), "what refill is shown");
                    if b.is_some() {
                        p.model.extend(e.map(Reverse));
                    }
                    p.popped(a, b)?;
                }
                Op::Peek => prop_assert_eq!(p.heap.peek(), p.model.peek().map(|r| &r.0)),
                Op::Clear => p.reset(Vec::new()),
                Op::Rebuild(n) => p.reset((0..n).map(|_| fresh(None)).collect()),
            }
            prop_assert_eq!(p.heap.len(), p.model.len());
            prop_assert_eq!(p.heap.is_empty(), p.model.is_empty());
        }
        while !p.model.is_empty() {
            let (a, b) = (p.heap.pop(), p.model.pop());
            p.popped(a, b)?;
        }
        prop_assert_eq!(p.heap.pop(), None);
        Ok((p.ours, p.theirs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Unique keys: the pop sequence is the sorted order, whatever
        /// the layout — identical to std's, element for element.
        #[test]
        fn head_heap_matches_binary_heap_on_unique_keys(
            preload in 0usize..3 * COLD_LEN,
            by_rebuild in (0u8..2).prop_map(|b| b == 1),
            ops in ops(),
        ) {
            differential(preload, by_rebuild, &ops, |draw, serial| -> Elt {
                [draw, serial, 0, 0]
            })?;
        }

        /// Duplicate keys: ties may leave in any order, so the two pop
        /// sequences agree key by key (checked inside `differential`)
        /// and as multisets of whole elements.
        #[test]
        fn head_heap_matches_binary_heap_on_duplicate_keys(
            preload in 0usize..3 * COLD_LEN,
            by_rebuild in (0u8..2).prop_map(|b| b == 1),
            ops in ops(),
        ) {
            let (mut ours, mut theirs) = differential(preload, by_rebuild, &ops, |draw, serial| {
                Dup { key: (draw % 8) as u8, id: serial }
            })?;
            ours.sort_unstable_by_key(|d| (d.key, d.id));
            theirs.sort_unstable_by_key(|d| (d.key, d.id));
            let ids = |v: &[Dup]| v.iter().map(|d| (d.key, d.id)).collect::<Vec<_>>();
            prop_assert_eq!(ids(&ours), ids(&theirs));
        }

        /// Element sizes other than the scheduler's 32 bytes — 16 (four
        /// to a line) and 56 (no two entries sit alike in their lines) —
        /// cross their own cold thresholds inside the same preload range:
        /// the look-ahead counts in bytes, and the pop order is none of
        /// its business.
        #[test]
        fn head_heap_matches_binary_heap_at_other_element_sizes(
            preload in 0usize..3 * COLD_LEN,
            by_rebuild in (0u8..2).prop_map(|b| b == 1),
            ops in ops(),
        ) {
            differential(preload, by_rebuild, &ops, |draw, serial| -> [u64; 2] {
                [draw, serial]
            })?;
            differential(preload, by_rebuild, &ops, |draw, serial| -> [u64; 7] {
                [draw, serial, 0, 0, 0, 0, 0]
            })?;
        }
    }

    /// 2^18 entries (8 MB): every level the look-ahead can reach, in
    /// one deterministic fill, refill and drain against `sort_unstable`.
    #[test]
    fn head_heap_drains_2_pow_18_entries_in_sorted_order() {
        const N: usize = 1 << 18;
        let mut rng = 18;
        let mut heap = HeadHeap::new();
        let mut all: Vec<Elt> = (0..N as u64)
            .map(|i| [splitmix(&mut rng) >> 24, i, 0, 0])
            .collect();
        all.iter().for_each(|&e| heap.push(e));
        assert_eq!(heap.len(), N);
        // A quarter of the heap is served and re-admitted the way a
        // scheduler dequeues, under keys later than every original one.
        let later: Vec<Elt> = (0..N as u64 / 4)
            .map(|i| [(1 << 40) + (splitmix(&mut rng) >> 24), N as u64 + i, 0, 0])
            .collect();
        let served: Vec<Elt> = later
            .iter()
            .map(|&e| heap.pop_refill(|_, _| Some(e)).expect("heap is full"))
            .collect();
        assert_eq!(heap.len(), N);
        all.sort_unstable();
        assert!(served == all[..N / 4], "the smallest quarter leaves first");
        let mut rest = [&all[N / 4..], &later[..]].concat();
        rest.sort_unstable();
        for want in rest {
            assert_eq!(heap.pop(), Some(want));
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn head_heap_edge_sizes() {
        let mut h: HeadHeap<u32> = HeadHeap::new();
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek(), None);
        let mut called = false;
        assert_eq!(
            h.pop_refill(|_, _| {
                called = true;
                Some(1)
            }),
            None
        );
        assert!(!called, "nothing removed, nothing to refill");
        for n in 0..8u32 {
            h.rebuild((0..n).rev());
            assert_eq!(h.len(), n as usize);
            for want in 0..n {
                assert_eq!(h.peek(), Some(&want));
                assert_eq!(h.pop(), Some(want));
            }
            assert!(h.is_empty());
        }
        // Refill into a one-element heap (nothing else remains to show),
        // with something smaller and something larger than it held.
        h.push(5);
        let refilled = h.pop_refill(|&min, rest| {
            assert_eq!(rest, None);
            Some(min - 1)
        });
        assert_eq!(refilled, Some(5));
        assert_eq!(h.pop_refill(|&min, _| Some(min + 9)), Some(4));
        assert_eq!((h.pop(), h.pop()), (Some(13), None));
    }

    /// Every length up to 33, odd and even — so the last parent has one
    /// child or two, and the hole a removal walks down ends on the last
    /// position or beside it — filled by `rebuild` and by `push`, then
    /// emptied through `pop_refill` returning nothing.
    #[test]
    fn head_heap_shrinks_to_empty_from_every_small_length() {
        for n in 0..=33u64 {
            let scrambled = |i: u64| (i * 19 + 7) % 37;
            let mut rebuilt: HeadHeap<u64> = HeadHeap::new();
            rebuilt.rebuild((0..n).map(scrambled));
            let mut pushed: HeadHeap<u64> = HeadHeap::new();
            (0..n).map(scrambled).for_each(|v| pushed.push(v));
            let mut want: Vec<u64> = (0..n).map(scrambled).collect();
            want.sort_unstable();
            for (i, &w) in want.iter().enumerate() {
                let rest = want.get(i + 1);
                for h in [&mut rebuilt, &mut pushed] {
                    assert_eq!(h.root_children().len(), (want.len() - i - 1).min(2));
                    let got = h.pop_refill(|&min, shown| {
                        assert_eq!((min, shown), (w, rest), "n = {n}");
                        None
                    });
                    assert_eq!(got, Some(w), "n = {n}");
                    assert_eq!(h.len(), want.len() - i - 1);
                }
            }
            assert_eq!((rebuilt.pop(), pushed.pop()), (None, None));
        }
        // The hole stops on the last position itself: 1's smaller child
        // is 2, whose only child, 9, is the array's last element.
        let mut h: HeadHeap<u32> = HeadHeap::new();
        h.rebuild([1, 2, 5, 9].into_iter());
        assert_eq!(h.root_children(), [2, 5]);
        assert_eq!(h.pop(), Some(1));
        assert_eq!(
            (h.pop(), h.pop(), h.pop(), h.pop()),
            (Some(2), Some(5), Some(9), None)
        );
    }
}
