//! Slab packet pools, dense flow indexes, and pool accounting.
//!
//! PR 7 replaces the owned data path — a `VecDeque` of packets per flow
//! inside a `HashMap` — with a zero-allocation one modelled on R2's
//! pooled-packet design (ROADMAP open item 2): packets live in
//! pre-allocated fixed-capacity arenas ([`SlabPool`]), are addressed by
//! `u32` handles ([`PktRef`]), and chain into per-flow FIFOs through an
//! intrusive `next` index stored *in the slab slot itself* — so a flow
//! queue is just a `(head, tail, len)` triple and enqueue/dequeue touch
//! no allocator at all in steady state.
//!
//! Layout and invariants (see `docs/pooling.md` for the full story):
//!
//! - The slab is a vector of fixed-size chunks (`Vec<Vec<Slot>>`), each
//!   allocated once at full capacity, so growing the pool appends a
//!   chunk and relocates nothing. The one exception is the first chunk
//!   of a pool told it will never hold a chunk's worth
//!   ([`SlabPool::preallocate`]): it starts empty and doubles with use.
//!   Either way a slot's *index* never changes, so a `PktRef` stays
//!   valid until freed.
//! - Each slot carries one `next: u32` field doing double duty: the
//!   freelist chain while the slot is free, the intrusive per-flow FIFO
//!   link while it is allocated. `NIL` (`u32::MAX`) terminates both.
//! - The freelist is LIFO: a just-freed slot is the next one reused, so
//!   under steady service the working set of hot slots stays resident —
//!   the memory-locality effect the deep-backlog benches measure.
//! - Exhaustion (optional slot cap, or the `u32` index space) is
//!   reported by `try_alloc` returning `None`; nothing panics.
//!
//! [`FlowMap`] is the dense companion for *control-plane* per-flow
//! state (weights, drop counters): a slotmap-lite keyed by [`FlowId`]
//! with `O(1)` lookup through a flow-id index and cache-friendly
//! iteration over a dense entry vector, in place of a `HashMap` per
//! table.

use crate::packet::FlowId;
use std::collections::HashMap;

/// Chain terminator for freelist and intrusive FIFO links.
pub(crate) const NIL: u32 = u32::MAX;

/// Slots per arena chunk (2^13). Chunks are allocated at exactly this
/// capacity, except a growing first chunk, which doubles up to it.
const CHUNK_BITS: u32 = 13;
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u32 = (CHUNK as u32) - 1;

/// Slots a growing first chunk starts at (see [`SlabPool::preallocate`]).
const FIRST_GROWTH: usize = 16;

/// Opaque handle to a pooled packet slot.
///
/// A `PktRef` is valid from the `try_alloc` that produced it until the
/// `free` that consumes it; the pool's generation-free contract is
/// upheld by the flow table above it (a stale head-of-flow entry is
/// caught there by its head's uid, and packet handles are never shared
/// outside the owning queue structure).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PktRef(pub(crate) u32);

impl PktRef {
    /// Raw slab index — diagnostics and telemetry only.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Allocation interface of a packet pool.
///
/// `T` is the pooled record (for the schedulers: packet + heap key +
/// metadata, a `Copy` value). The intrusive link accessors expose the
/// slot's `next` field so an owner can chain allocated slots into
/// FIFOs without touching any other storage.
pub trait PktPool<T: Copy> {
    /// Allocate a slot holding `val`, or `None` when the pool is
    /// exhausted (slot cap reached and no free slots).
    fn try_alloc(&mut self, val: T) -> Option<PktRef>;
    /// Release a slot back to the freelist, returning its value.
    fn free(&mut self, r: PktRef) -> T;
    /// Read an allocated slot.
    fn get(&self, r: PktRef) -> &T;
    /// Mutate an allocated slot.
    fn get_mut(&mut self, r: PktRef) -> &mut T;
    /// The slot's intrusive successor, if chained.
    fn link(&self, r: PktRef) -> Option<PktRef>;
    /// Chain (or unchain) the slot's intrusive successor.
    fn set_link(&mut self, r: PktRef, next: Option<PktRef>);
    /// Slots currently allocated.
    fn in_use(&self) -> usize;
    /// Total slots ever created (the pool's reserved footprint).
    fn slots(&self) -> usize;
}

/// One pooled record plus its intrusive chain link.
#[derive(Clone, Copy, Debug)]
struct Slot<T> {
    val: T,
    /// Freelist successor while free; FIFO successor while allocated.
    next: u32,
}

/// Slab-backed packet pool: chunked fixed-capacity arenas, a LIFO
/// freelist and an optional slot cap. See the module docs for layout
/// and invariants.
#[derive(Debug)]
pub struct SlabPool<T> {
    chunks: Vec<Vec<Slot<T>>>,
    free_head: u32,
    /// Total slots ever created; also the next fresh index.
    slots: u32,
    in_use: u32,
    hwm: u32,
    limit: Option<u32>,
    /// The first chunk grows from empty ([`SlabPool::preallocate`]).
    grow_first: bool,
}

impl<T: Copy> SlabPool<T> {
    /// Empty unbounded pool.
    pub fn new() -> Self {
        SlabPool {
            chunks: Vec::new(),
            free_head: NIL,
            slots: 0,
            in_use: 0,
            hwm: 0,
            limit: None,
            grow_first: false,
        }
    }

    /// Cap (or uncap) the number of slots the pool may ever create.
    /// Lowering the cap below the current footprint stops growth but
    /// does not reclaim existing slots.
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit.map(|l| u32::try_from(l).unwrap_or(NIL - 1));
    }

    /// Pre-create `additional` free slots seeded with a bit-copy of
    /// `seed` (pooled records carry no `Default`), so steady-state
    /// allocation never grows a chunk. Respects the slot cap: stops
    /// early at the limit. Returns the number actually created.
    pub fn reserve_with(&mut self, additional: usize, seed: T) -> usize {
        let mut made = 0;
        for _ in 0..additional {
            if !self.can_grow() {
                break;
            }
            let idx = self.grow_one(seed);
            // Freshly created straight onto the freelist.
            self.slot_mut(idx).next = self.free_head;
            self.free_head = idx;
            made += 1;
        }
        made
    }

    /// Told to expect up to `slots` live slots, before the first
    /// allocation. If that fills a chunk, allocate the first chunk now
    /// (untouched, so it costs address space only) rather than in the
    /// middle of the data path; if not, start the first chunk empty and
    /// double it with use, so a pool that holds a few dozen packets
    /// allocates a few dozen slots (docs/pooling.md).
    pub fn preallocate(&mut self, slots: usize) {
        if !self.chunks.is_empty() {
            return;
        }
        if slots >= CHUNK {
            self.chunks.push(Vec::with_capacity(CHUNK));
        } else {
            self.grow_first = true;
        }
    }

    /// High-water mark of allocated slots.
    pub fn high_water(&self) -> usize {
        self.hwm as usize
    }

    fn can_grow(&self) -> bool {
        if self.slots >= NIL - 1 {
            return false; // u32 index space (NIL reserved)
        }
        match self.limit {
            Some(cap) => self.slots < cap,
            None => true,
        }
    }

    /// Create one fresh slot (caller checked [`SlabPool::can_grow`]);
    /// returns its index. The slot is *not* put on the freelist.
    fn grow_one(&mut self, val: T) -> u32 {
        let idx = self.slots;
        if self
            .chunks
            .last()
            .is_none_or(|c: &Vec<Slot<T>>| c.len() == CHUNK)
        {
            let first = self.chunks.is_empty() && self.grow_first;
            self.chunks
                .push(Vec::with_capacity(if first { 0 } else { CHUNK }));
        }
        if let Some(c) = self.chunks.last_mut() {
            if c.len() == c.capacity() {
                // Only a growing first chunk is ever full below CHUNK:
                // double it, moving its values, never past CHUNK.
                c.reserve_exact(c.len().max(FIRST_GROWTH).min(CHUNK - c.len()));
            }
            c.push(Slot { val, next: NIL });
        }
        self.slots += 1;
        idx
    }

    #[inline(always)]
    fn slot(&self, idx: u32) -> &Slot<T> {
        &self.chunks[(idx >> CHUNK_BITS) as usize][(idx & CHUNK_MASK) as usize]
    }

    #[inline(always)]
    fn slot_mut(&mut self, idx: u32) -> &mut Slot<T> {
        &mut self.chunks[(idx >> CHUNK_BITS) as usize][(idx & CHUNK_MASK) as usize]
    }

    /// Allocate, preferring the freelist, then a fresh slot. `None`
    /// only on exhaustion (cap or index space).
    #[inline]
    pub(crate) fn alloc_raw(&mut self, val: T) -> Option<u32> {
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let s = self.slot_mut(idx);
            let next_free = s.next;
            s.val = val;
            s.next = NIL;
            self.free_head = next_free;
            idx
        } else {
            if !self.can_grow() {
                return None;
            }
            self.grow_one(val)
        };
        self.in_use += 1;
        if self.in_use > self.hwm {
            self.hwm = self.in_use;
        }
        Some(idx)
    }

    /// True when the *next* `alloc_raw` is guaranteed to succeed —
    /// lets callers order the capacity check before fallible tag
    /// arithmetic so an error leaves no state behind.
    #[inline]
    pub(crate) fn can_alloc(&self) -> bool {
        self.free_head != NIL || self.can_grow()
    }

    #[inline]
    pub(crate) fn free_raw(&mut self, idx: u32) -> T {
        let fh = self.free_head;
        let s = self.slot_mut(idx);
        let val = s.val;
        s.next = fh;
        self.free_head = idx;
        self.in_use -= 1;
        val
    }

    #[inline(always)]
    pub(crate) fn val_raw(&self, idx: u32) -> &T {
        &self.slot(idx).val
    }

    #[inline(always)]
    pub(crate) fn val_mut_raw(&mut self, idx: u32) -> &mut T {
        &mut self.slot_mut(idx).val
    }

    #[inline(always)]
    pub(crate) fn link_raw(&self, idx: u32) -> u32 {
        self.slot(idx).next
    }

    #[inline(always)]
    pub(crate) fn set_link_raw(&mut self, idx: u32, next: u32) {
        self.slot_mut(idx).next = next;
    }

    /// Ask for the cache lines of slot `idx` — record and link — ahead
    /// of a read (see [`crate::prefetch`]). `NIL` or any other index
    /// with no slot behind it asks for nothing.
    #[inline(always)]
    pub(crate) fn prefetch_raw(&self, idx: u32) {
        let chunk = self.chunks.get((idx >> CHUNK_BITS) as usize);
        if let Some(slot) = chunk.and_then(|c| c.get((idx & CHUNK_MASK) as usize)) {
            crate::prefetch::prefetch_value(slot);
        }
    }

    /// `(size, align)` of one slot, for the layout-pinning tests.
    #[cfg(test)]
    pub(crate) fn slot_layout() -> (usize, usize) {
        (
            std::mem::size_of::<Slot<T>>(),
            std::mem::align_of::<Slot<T>>(),
        )
    }

    pub(crate) fn in_use_raw(&self) -> usize {
        self.in_use as usize
    }

    pub(crate) fn slots_raw(&self) -> usize {
        self.slots as usize
    }
}

impl<T: Copy> Default for SlabPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> PktPool<T> for SlabPool<T> {
    fn try_alloc(&mut self, val: T) -> Option<PktRef> {
        self.alloc_raw(val).map(PktRef)
    }

    fn free(&mut self, r: PktRef) -> T {
        self.free_raw(r.0)
    }

    fn get(&self, r: PktRef) -> &T {
        self.val_raw(r.0)
    }

    fn get_mut(&mut self, r: PktRef) -> &mut T {
        self.val_mut_raw(r.0)
    }

    fn link(&self, r: PktRef) -> Option<PktRef> {
        match self.link_raw(r.0) {
            NIL => None,
            n => Some(PktRef(n)),
        }
    }

    fn set_link(&mut self, r: PktRef, next: Option<PktRef>) {
        self.set_link_raw(r.0, next.map_or(NIL, |n| n.0));
    }

    fn in_use(&self) -> usize {
        self.in_use_raw()
    }

    fn slots(&self) -> usize {
        self.slots_raw()
    }
}

/// Fast `FlowId -> u32` index: direct vector for small ids (the common
/// dense case — conformance and bench flows count up from zero), spill
/// `HashMap` beyond [`DIRECT_LIMIT`], so adversarially sparse ids cost
/// a hash lookup instead of unbounded memory.
#[derive(Debug, Default)]
pub(crate) struct IdIndex {
    direct: Vec<u32>,
    spill: HashMap<u32, u32>,
}

/// Ids below this are indexed by a direct vector (≤ 16 MiB of index
/// for the full range); ids at or above it go to the spill map.
const DIRECT_LIMIT: u32 = 1 << 22;

/// Sentinel for "absent" in the direct vector.
const ABSENT: u32 = u32::MAX;

impl IdIndex {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn get(&self, flow: FlowId) -> Option<u32> {
        if flow.0 < DIRECT_LIMIT {
            match self.direct.get(flow.0 as usize) {
                Some(&v) if v != ABSENT => Some(v),
                _ => None,
            }
        } else {
            self.spill.get(&flow.0).copied()
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, flow: FlowId, idx: u32) {
        if flow.0 < DIRECT_LIMIT {
            let want = flow.0 as usize + 1;
            if self.direct.len() < want {
                self.direct.resize(want, ABSENT);
            }
            self.direct[flow.0 as usize] = idx;
        } else {
            self.spill.insert(flow.0, idx);
        }
    }

    #[inline]
    pub(crate) fn remove(&mut self, flow: FlowId) -> Option<u32> {
        if flow.0 < DIRECT_LIMIT {
            let slot = self.direct.get_mut(flow.0 as usize)?;
            match *slot {
                ABSENT => None,
                v => {
                    *slot = ABSENT;
                    Some(v)
                }
            }
        } else {
            self.spill.remove(&flow.0)
        }
    }
}

/// Dense per-flow map for control-plane state (weights, drop counts,
/// engagement flags): `O(1)` keyed access via a flow-id index,
/// contiguous iteration, `swap_remove` deletion. Replaces the `HashMap<FlowId,_>`
/// tables in `netsim::SwitchCore` and the engine drivers.
#[derive(Debug, Default)]
pub struct FlowMap<T> {
    ids: IdIndex,
    entries: Vec<(FlowId, T)>,
}

impl<T> FlowMap<T> {
    /// Empty map.
    pub fn new() -> Self {
        FlowMap {
            ids: IdIndex::new(),
            entries: Vec::new(),
        }
    }

    /// Insert or replace, returning the previous value if any.
    pub fn insert(&mut self, flow: FlowId, val: T) -> Option<T> {
        if let Some(i) = self.ids.get(flow) {
            return Some(std::mem::replace(&mut self.entries[i as usize].1, val));
        }
        let i = self.entries.len() as u32;
        self.entries.push((flow, val));
        self.ids.set(flow, i);
        None
    }

    /// Keyed read.
    #[inline]
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.ids.get(flow).map(|i| &self.entries[i as usize].1)
    }

    /// Keyed write.
    #[inline]
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        match self.ids.get(flow) {
            Some(i) => Some(&mut self.entries[i as usize].1),
            None => None,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, flow: FlowId) -> bool {
        self.ids.get(flow).is_some()
    }

    /// Remove, returning the value. `swap_remove` keeps the entry
    /// vector dense; the moved entry's index is re-pointed.
    pub fn remove(&mut self, flow: FlowId) -> Option<T> {
        let i = self.ids.remove(flow)? as usize;
        let (_, val) = self.entries.swap_remove(i);
        if let Some(&(moved, _)) = self.entries.get(i) {
            self.ids.set(moved, i as u32);
        }
        Some(val)
    }

    /// Registered flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(flow, value)` in dense (insertion-then-swap) order.
    /// Order is an implementation detail — callers needing determinism
    /// sort, exactly as they did with the hash maps this replaces.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.entries.iter().map(|(f, v)| (*f, v))
    }

    /// Iterate with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut T)> {
        self.entries.iter_mut().map(|(f, v)| (*f, v))
    }
}

/// Point-in-time pool accounting, surfaced by the schedulers for the
/// leak-freedom invariant suite: after a full drain,
/// `pkts_in_use == 0`; under any workload, `pkts_in_use` equals the
/// scheduler's queued-packet count exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Packet slots currently allocated.
    pub pkts_in_use: usize,
    /// Packet slots ever created (reserved footprint).
    pub pkt_slots: usize,
    /// High-water mark of allocated packet slots.
    pub pkts_hwm: usize,
    /// Flow-table slots currently live (registered flows).
    pub flows_live: usize,
    /// Flow-table slots ever created.
    pub flow_slots: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_alloc_free_reuses_lifo() {
        let mut p: SlabPool<u64> = SlabPool::new();
        let a = p.try_alloc(1).unwrap();
        let b = p.try_alloc(2).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.free(a), 1);
        // LIFO: the freed slot is the next one handed out.
        let c = p.try_alloc(3).unwrap();
        assert_eq!(c, a);
        assert_eq!(*p.get(c), 3);
        assert_eq!(*p.get(b), 2);
        assert_eq!(p.slots(), 2);
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn slab_limit_exhausts_cleanly_and_recovers() {
        let mut p: SlabPool<u32> = SlabPool::new();
        p.set_limit(Some(2));
        let a = p.try_alloc(0).unwrap();
        let _b = p.try_alloc(1).unwrap();
        assert_eq!(p.try_alloc(2), None);
        p.free(a);
        assert!(p.try_alloc(3).is_some());
        p.set_limit(None);
        assert!(p.try_alloc(4).is_some());
        assert_eq!(p.slots(), 3);
    }

    #[test]
    fn slab_links_chain_and_clear() {
        let mut p: SlabPool<u8> = SlabPool::new();
        let a = p.try_alloc(1).unwrap();
        let b = p.try_alloc(2).unwrap();
        assert_eq!(p.link(a), None);
        p.set_link(a, Some(b));
        assert_eq!(p.link(a), Some(b));
        p.set_link(a, None);
        assert_eq!(p.link(a), None);
    }

    #[test]
    fn slab_grows_across_chunk_boundary_with_stable_values() {
        let mut p: SlabPool<u32> = SlabPool::new();
        let n = (CHUNK + 10) as u32;
        let refs: Vec<_> = (0..n).map(|i| p.try_alloc(i).unwrap()).collect();
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(*p.get(*r), i as u32);
        }
        assert_eq!(p.slots(), n as usize);
        for r in refs {
            p.free(r);
        }
        assert_eq!(p.in_use(), 0);
        // The footprint stays; reuse does not grow.
        for i in 0..n {
            p.try_alloc(i).unwrap();
        }
        assert_eq!(p.slots(), n as usize);
    }

    #[test]
    fn reserve_prewarms_freelist_within_limit() {
        let mut p: SlabPool<u16> = SlabPool::new();
        p.set_limit(Some(4));
        assert_eq!(p.reserve_with(10, 0), 4);
        assert_eq!(p.slots(), 4);
        assert_eq!(p.in_use(), 0);
        for i in 0..4 {
            assert!(p.try_alloc(i).is_some());
        }
        assert_eq!(p.try_alloc(9), None);
        assert_eq!(p.slots(), 4); // no growth past the prewarm
    }

    #[test]
    fn preallocate_moves_the_first_chunk_forward_and_nothing_else() {
        let mut p: SlabPool<u16> = SlabPool::new();
        p.preallocate(CHUNK - 1); // a backlog that cannot fill a chunk
        assert!(p.chunks.is_empty());
        p.preallocate(CHUNK);
        p.preallocate(4 * CHUNK); // only ever the first chunk
        assert_eq!((p.chunks.len(), p.chunks[0].capacity()), (1, CHUNK));
        assert_eq!((p.slots(), p.in_use()), (0, 0));
        let h = p.try_alloc(7).unwrap();
        assert_eq!((p.slots(), p.in_use(), p.chunks.len()), (1, 1, 1));
        assert_eq!(*p.get(h), 7);
    }

    /// Told its bound is under a chunk, a pool grows its first chunk by
    /// doubling up to CHUNK, every value surviving each move, and then
    /// appends full chunks as usual.
    #[test]
    fn preallocate_under_a_chunk_grows_the_first_chunk_in_place() {
        let mut p: SlabPool<u32> = SlabPool::new();
        p.preallocate(64);
        let mut caps = vec![0];
        for i in 0..(CHUNK + CHUNK / 2) as u32 {
            assert_eq!(p.try_alloc(i), Some(PktRef(i)));
            if p.chunks[0].capacity() != caps[caps.len() - 1] {
                caps.push(p.chunks[0].capacity());
                assert!((0..=i).all(|j| *p.get(PktRef(j)) == j), "moved at {i}");
            }
        }
        assert!(caps[1] == FIRST_GROWTH && caps[1..].windows(2).all(|w| w[1] == 2 * w[0]));
        assert_eq!((caps.last(), p.chunks[1].capacity()), (Some(&CHUNK), CHUNK));
        assert!((0..p.slots() as u32).all(|j| *p.get(PktRef(j)) == j));
    }

    #[test]
    fn id_index_direct_and_spill() {
        let mut ix = IdIndex::new();
        let lo = FlowId(3);
        let hi = FlowId(DIRECT_LIMIT + 5);
        ix.set(lo, 10);
        ix.set(hi, 20);
        assert_eq!(ix.get(lo), Some(10));
        assert_eq!(ix.get(hi), Some(20));
        assert_eq!(ix.get(FlowId(4)), None);
        assert_eq!(ix.remove(lo), Some(10));
        assert_eq!(ix.remove(lo), None);
        assert_eq!(ix.remove(hi), Some(20));
        assert_eq!(ix.get(hi), None);
    }

    #[test]
    fn flow_map_swap_remove_repoints_moved_entry() {
        let mut m: FlowMap<u64> = FlowMap::new();
        assert!(m.is_empty());
        m.insert(FlowId(1), 100);
        m.insert(FlowId(2), 200);
        m.insert(FlowId(3), 300);
        assert_eq!(m.insert(FlowId(2), 201), Some(200));
        assert_eq!(m.remove(FlowId(1)), Some(100));
        // FlowId(3) was swapped into slot 0; lookups must still hit.
        assert_eq!(m.get(FlowId(3)), Some(&300));
        assert_eq!(m.get(FlowId(2)), Some(&201));
        assert_eq!(m.len(), 2);
        *m.get_mut(FlowId(3)).unwrap() += 1;
        assert_eq!(m.get(FlowId(3)), Some(&301));
        assert!(!m.contains(FlowId(1)));
        let mut got: Vec<_> = m.iter().map(|(f, &v)| (f.0, v)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 201), (3, 301)]);
    }
}
