//! Shared head-of-flow scheduling structure.
//!
//! Per-flow FIFO queues plus a priority heap holding **one entry per
//! backlogged flow** (the key of that flow's head packet): the storage
//! under the one tag core, [`crate::TagSched`], and so under every
//! discipline that is one of its rules — SFQ, SCFQ, Virtual Clock and
//! Delay EDD.
//!
//! The structure is sound for any discipline whose per-flow key
//! sequence is strictly increasing in arrival order (true of the
//! Eq. 4/5 tag recurrence, of Virtual Clock stamps, since the `l/r`
//! span term is positive, and of Delay EDD deadlines while a flow's
//! `d_f` stands): a flow's minimum-key packet is always its FIFO head,
//! so the global minimum is always some flow's head. Dequeue order is
//! identical to a heap over all packets, but heap operations cost
//! `O(log Q)` in *backlogged flows* rather than `O(log N)` in *queued
//! packets*.
//!
//! The container is generic over three per-discipline types:
//!
//! - `K` — the heap ordering key. Keys need not be unique: the heap
//!   orders entries by `(K, uid)`, the uid read off the packet's
//!   record, so equal keys leave in ascending uid order
//!   and a stale heap entry is one whose `(K, uid)` is not the flow's
//!   current head's (uids are never reused),
//! - `E` — per-flow extension state (weight, `F(p_f^{j-1})`, `d_f` …),
//! - `M` — per-packet metadata carried alongside the key (e.g. the
//!   finish tag for SFQ, whose key orders by start tag).
//!
//! Tag arithmetic, virtual-time bookkeeping, and observer events stay
//! in `TagSched` — only the FIFO + heap mechanics live here. Packets
//! sit in a slab pool ([`crate::pool::SlabPool`]) chained into per-flow
//! FIFOs by intrusive next-indexes, flows in a dense table of reused
//! slots behind an id index: no allocation in steady state
//! (`docs/pooling.md`). A flow leaves the table only through
//! [`FlowFifos::remove_flow`] (idle) or [`FlowFifos::force_remove_flow`].
//!
//! ## The heap
//!
//! The head-of-flow entries live in a [`HeadHeap`] (`headheap.rs`): an
//! implicit binary min-heap that costs
//! what `std::collections::BinaryHeap` costs while it fits in cache and,
//! once it does not — a million backlogged flows is 32 MB of entries —
//! prefetches the contiguous descendants four levels under the hole so
//! that the bottom levels' misses overlap instead of queueing behind
//! one another. This is the paper's `O(log Q)` term; it is the only
//! heap in the crate's per-packet path and has no tuning surface. A
//! dequeue goes through its fused [`HeadHeap::pop_refill`] (the served
//! flow's entry leaves and returns under its next head's key in one
//! descent).
//!
//! ## The dequeue look-ahead
//!
//! What a dequeue reads outside the heap — the winner's flow
//! slot, its head packet's record, the key of the packet behind it — is
//! a chain of dependent loads from memory last touched a backlog ago.
//! Every dequeue therefore ends by asking (prefetch hints, see
//! [`crate::prefetch`]) for what the next one will read: the new heap
//! root's flow slot names its head record and, through
//! `FlowSlot::second`, the record behind it without loading anything
//! else, and the flow slots of the root's two children are asked for so
//! that the slot read here next time is already home. It changes no
//! decision; `docs/pooling.md` ("Dequeue look-ahead") has the details.

use crate::packet::{FlowId, Packet};
use crate::pool::{IdIndex, PoolStats, SlabPool, NIL};
use crate::prefetch::prefetch_value;
use crate::sched::SchedError;
use simtime::{Bytes, SimTime};
use std::fmt;

pub use crate::headheap::HeadHeap;

/// A packet in its flow's FIFO with the key/metadata assigned at
/// arrival, so dequeue needs no recomputation: the slab record.
///
/// The packet is stored without its flow id, which the FIFO holding the
/// record already names ([`FlowSlot::id`]): [`Entry::packet`] puts it back on every
/// way out. Its fields are flattened in rather than nested, because a
/// nested `Packet` keeps its 64 bytes with or without the id.
///
/// Packed to 8: `arrival` is 16-aligned (`SimTime` holds `i128`s), and
/// at 16 the slab slot — this record plus a 4-byte link — rounds up to
/// 96 bytes for `SfqFast` where 88 hold it. The 16-aligned field is
/// therefore only ever read and written by value, never borrowed.
#[derive(Clone, Copy)]
#[repr(C, packed(8))]
struct Entry<K, M> {
    seq: u64,
    len: Bytes,
    arrival: SimTime,
    uid: u64,
    key: K,
    meta: M,
}

/// Shows the packet's uid only: a packed record's fields are read by
/// copy, and the containers that derive `Debug` do not bound `K` and
/// `M` by `Copy`.
impl<K, M> fmt::Debug for Entry<K, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let uid = self.uid;
        f.debug_struct("Entry")
            .field("uid", &uid)
            .finish_non_exhaustive()
    }
}

/// What the head-of-flow heaps order by: a head packet's key, then its
/// uid.
type HeadKey<K> = (K, u64);

impl<K: Copy, M: Copy> Entry<K, M> {
    /// `pkt`'s record, its flow id left to the FIFO it joins.
    #[inline(always)]
    fn new(pkt: Packet, key: K, meta: M) -> Self {
        Entry {
            seq: pkt.seq,
            len: pkt.len,
            arrival: pkt.arrival,
            uid: pkt.uid,
            key,
            meta,
        }
    }

    /// The packet as it entered, given the flow whose FIFO holds it.
    #[inline(always)]
    fn packet(&self, flow: FlowId) -> Packet {
        Packet {
            flow,
            seq: self.seq,
            len: self.len,
            arrival: self.arrival,
            uid: self.uid,
        }
    }

    /// The packet of `flow`'s FIFO with its key and metadata: what every
    /// exit hands back.
    #[inline(always)]
    fn into_parts(self, flow: FlowId) -> (Packet, K, M) {
        (self.packet(flow), self.key, self.meta)
    }

    fn head_key(&self) -> HeadKey<K> {
        (self.key, self.uid)
    }

    /// Let `f` rewrite the key and metadata, through copies.
    fn retag(&mut self, f: impl FnOnce(&mut K, &mut M)) {
        let (mut key, mut meta) = (self.key, self.meta);
        f(&mut key, &mut meta);
        (self.key, self.meta) = (key, meta);
    }
}

/// One slot of the dense flow table. A free slot has `ext == None`
/// and sits on the `free_flows` list. A heap entry left by a previous
/// occupant is stale by its `(key, uid)`, like any other: no later head
/// carries its uid.
///
/// Five words and the extension state: 64 bytes for `SfqFast`, one
/// cache line's worth (pinned by a test in `tagsched.rs`). `id` is also
/// the flow of every packet in the FIFO: the records do not repeat it.
#[derive(Debug)]
struct FlowSlot<E> {
    id: FlowId,
    /// Slab index of the FIFO head packet, or `NIL` when idle.
    head: u32,
    /// Slab index of the packet behind the head — always the head
    /// record's link, `NIL` when fewer than two packets are queued — so
    /// that a dequeue (and the look-ahead before it) finds the record
    /// it needs second without loading the first.
    second: u32,
    tail: u32,
    /// Queued packets.
    len: u32,
    ext: Option<E>,
}

impl<E> FlowSlot<E> {
    /// Unlink the head packet, whose record the caller frees: the
    /// second packet becomes the head and its link the new second.
    /// Returns the new head's heap key, `None` when the flow drained.
    #[inline(always)]
    fn advance<K: Copy, M: Copy>(&mut self, slab: &SlabPool<Entry<K, M>>) -> Option<HeadKey<K>> {
        let next = self.second;
        self.head = next;
        self.len -= 1;
        if next == NIL {
            self.tail = NIL;
            return None;
        }
        self.second = slab.link_raw(next);
        Some(slab.val_raw(next).head_key())
    }

    /// Debug builds: `second` is the head record's link. Called
    /// wherever a slot's FIFO ends were just written.
    #[inline(always)]
    fn debug_check_second<K: Copy, M: Copy>(&self, slab: &SlabPool<Entry<K, M>>) {
        debug_assert_eq!(
            self.second,
            match self.head {
                NIL => NIL,
                head => slab.link_raw(head),
            },
            "flow slot's `second` is not its head's link"
        );
    }
}

/// Per-flow FIFOs plus a head-of-flow heap. See the module docs for
/// the soundness argument and the meaning of `K`/`E`/`M`.
#[derive(Debug)]
pub struct FlowFifos<K, E, M = ()> {
    /// Discipline name used in panic messages ("SFQ: unregistered …").
    name: &'static str,
    slab: SlabPool<Entry<K, M>>,
    flows: Vec<FlowSlot<E>>,
    free_flows: Vec<u32>,
    ids: IdIndex,
    /// `((head key, head uid), flow slot)` — at most one live entry per
    /// backlogged flow; stale entries are skipped by `(key, uid)`
    /// mismatch.
    heap: HeadHeap<(HeadKey<K>, u32)>,
    queued: usize,
}

impl<K: Ord + Copy, E, M: Copy> FlowFifos<K, E, M> {
    /// Empty structure; `name` prefixes unregistered-flow panics.
    pub fn new(name: &'static str) -> Self {
        FlowFifos {
            name,
            slab: SlabPool::new(),
            flows: Vec::new(),
            free_flows: Vec::new(),
            ids: IdIndex::new(),
            heap: HeadHeap::new(),
            queued: 0,
        }
    }

    /// Told to expect up to `packets` queued packets: size the first
    /// packet chunk — allocated now for a deep backlog, grown from
    /// empty for a shallow one (see [`SlabPool::preallocate`]).
    pub fn preallocate(&mut self, packets: usize) {
        self.slab.preallocate(packets);
    }

    /// Cap the packet-slot footprint: once `limit` slots exist and all
    /// are in use, further pushes fail with [`SchedError::BufferFull`].
    pub fn set_pool_limit(&mut self, limit: Option<usize>) {
        self.slab.set_limit(limit);
    }

    /// Pool accounting for the leak-freedom invariant suite.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            pkts_in_use: self.slab.in_use_raw(),
            pkt_slots: self.slab.slots_raw(),
            pkts_hwm: self.slab.high_water(),
            flows_live: self.live_flows(),
            flow_slots: self.flows.len(),
        }
    }

    /// Currently registered flows.
    pub fn live_flows(&self) -> usize {
        self.flows.len() - self.free_flows.len()
    }

    /// Register `flow` if absent (with `make()` as its initial
    /// extension state) and return its extension state for the caller
    /// to update — the `entry().and_modify().or_insert()` shape every
    /// discipline's `add_flow` used.
    pub fn upsert_flow(&mut self, flow: FlowId, make: impl FnOnce() -> E) -> &mut E {
        let idx = match self.ids.get(flow) {
            Some(i) => i,
            None => {
                let i = match self.free_flows.pop() {
                    Some(i) => i,
                    None => {
                        let i = self.flows.len() as u32;
                        self.flows.push(FlowSlot {
                            id: flow,
                            head: NIL,
                            second: NIL,
                            tail: NIL,
                            len: 0,
                            ext: None,
                        });
                        i
                    }
                };
                let s = &mut self.flows[i as usize];
                s.id = flow;
                s.head = NIL;
                s.second = NIL;
                s.tail = NIL;
                s.len = 0;
                s.ext = Some(make());
                self.ids.set(flow, i);
                i
            }
        };
        // The slot was just (re)initialized with Some ext; the match
        // below is the panic-free way to hand out the reference.
        match self.flows[idx as usize].ext.as_mut() {
            Some(e) => e,
            None => unreachable!("flow slot initialized above"),
        }
    }

    /// The flow's extension state, if registered.
    pub fn ext(&self, flow: FlowId) -> Option<&E> {
        self.ids
            .get(flow)
            .and_then(|i| self.flows[i as usize].ext.as_ref())
    }

    /// Append `pkt` to its flow's FIFO. `tag` computes the heap key and
    /// per-packet metadata from the flow's extension state (updating
    /// the state, e.g. advancing `F(p_f^{j-1})`) in the same flow-table
    /// access — the hot path touches the table exactly once. The heap
    /// is touched only when the flow was idle (its head changed).
    /// Returns the assigned `(key, meta)` so the discipline can report
    /// the event. Panics if the flow is unregistered.
    pub fn push_with(&mut self, pkt: Packet, tag: impl FnOnce(&mut E) -> (K, M)) -> (K, M) {
        let name = self.name;
        self.try_push_with(pkt, |ext| Some(tag(ext)))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// Fallible [`FlowFifos::push_with`]: an unregistered flow returns
    /// [`SchedError::UnknownFlow`], a `tag` closure that returns `None`
    /// (checked tag arithmetic overflowed) maps to
    /// [`SchedError::TagOverflow`], and an exhausted pool (slot cap
    /// reached) returns [`SchedError::BufferFull`] — in all cases no
    /// state changes, provided `tag` defers its extension-state update
    /// until after its last fallible step. The pool-capacity check runs
    /// *before* `tag`, so exhaustion never advances a flow's tag chain.
    pub fn try_push_with(
        &mut self,
        pkt: Packet,
        tag: impl FnOnce(&mut E) -> Option<(K, M)>,
    ) -> Result<(K, M), SchedError> {
        let idx = self
            .ids
            .get(pkt.flow)
            .ok_or(SchedError::UnknownFlow(pkt.flow))? as usize;
        // A backlog whose count would overflow counts as exhaustion.
        let s = &mut self.flows[idx];
        if !self.slab.can_alloc() || s.len == u32::MAX {
            return Err(SchedError::BufferFull(pkt.flow));
        }
        let Some(ext) = s.ext.as_mut() else {
            return Err(SchedError::UnknownFlow(pkt.flow));
        };
        let (key, meta) = tag(ext).ok_or(SchedError::TagOverflow)?;
        let Some(slot) = self.slab.alloc_raw(Entry::new(pkt, key, meta)) else {
            // can_alloc() above guarantees success; fail closed anyway.
            return Err(SchedError::BufferFull(pkt.flow));
        };
        let s = &mut self.flows[idx];
        if s.head == NIL {
            // The flow joins the backlogged set: its head (this packet)
            // enters the heap. A non-idle flow's head is unchanged.
            s.head = slot;
            s.tail = slot;
            self.heap.push(((key, pkt.uid), idx as u32));
        } else {
            let tail = s.tail;
            s.tail = slot;
            self.slab.set_link_raw(tail, slot);
            if s.second == NIL {
                s.second = slot; // the backlog just became two
            }
        }
        s.len += 1;
        s.debug_check_second(&self.slab);
        self.queued += 1;
        Ok((key, meta))
    }

    /// Remove and return the minimum-key head packet (the lowest uid
    /// among equal keys), with its key and metadata. Stale heap entries
    /// — left behind by [`FlowFifos::force_remove_flow`] or
    /// [`FlowFifos::drop_front`] — are detected by a `(key, uid)`
    /// mismatch against the flow's current head (uids are never reused,
    /// so a leftover entry can never match a later head) and skipped
    /// without disturbing the exact `queued` count.
    pub fn pop_min(&mut self) -> Option<(Packet, K, M)> {
        loop {
            let FlowFifos {
                heap,
                flows,
                slab,
                queued,
                ..
            } = self;
            let mut served = None;
            // One pass over the heap per packet: the winner's entry
            // leaves and, unless the flow drained, comes back under its
            // next head's key (`HeadHeap::pop_refill`). A stale entry
            // just leaves. This is `pop_min_batch(1, …)` written out:
            // routed through the batch loop, `sched_hot` read 2–4 %
            // slower.
            heap.pop_refill(|&(key, fidx), _| {
                let s = &mut flows[fidx as usize];
                let head = s.head;
                if head == NIL || slab.val_raw(head).head_key() != key {
                    return None; // head served, dropped or released since the push
                }
                let e = slab.free_raw(head);
                *queued -= 1;
                served = Some(e.into_parts(s.id));
                let next_key = s.advance(slab);
                s.debug_check_second(slab);
                next_key.map(|k| (k, fidx))
            })?;
            look_ahead(heap, flows, slab);
            if served.is_some() {
                return served;
            }
        }
    }

    /// Remove up to `max` minimum-key head packets in exact key order,
    /// invoking `each` for every one. Returns the number popped.
    ///
    /// Order is bit-identical to `max` successive [`FlowFifos::pop_min`]
    /// calls (`(key, uid)` is unique among live packets, so the
    /// comparison is total), but consecutive wins by the *same* flow are
    /// detected without heap traffic: after serving a flow's head, if
    /// its next head key precedes every heap entry it is served directly
    /// — the push+pop pair the per-packet path would have paid is
    /// skipped. Under bursty or skewed backlogs most of the batch rides
    /// this path. Stale heap entries are skipped exactly as in
    /// [`FlowFifos::pop_min`].
    pub fn pop_min_batch(&mut self, max: usize, mut each: impl FnMut(Packet, K, M)) -> usize {
        let FlowFifos {
            heap,
            flows,
            slab,
            queued,
            ..
        } = self;
        let mut n = 0;
        while n < max {
            // One pass over the heap per winning flow: its entry leaves
            // and, unless the flow drained, comes back under the key of
            // the first packet not served (`HeadHeap::pop_refill`). A
            // stale entry just leaves.
            let popped = heap.pop_refill(|&(key, fidx), top| {
                let s = &mut flows[fidx as usize];
                if s.head == NIL || slab.val_raw(s.head).head_key() != key {
                    return None; // head served, dropped or released since the push
                }
                // Run path: serve this flow's head, then keep serving it
                // while its next head beats the rest of the heap (live
                // entries' `(key, uid)` are unique, so a strict
                // comparison decides; a stale top that compares lower
                // only sends us back through the heap path).
                loop {
                    let e = slab.free_raw(s.head);
                    let next_key = s.advance(slab);
                    s.debug_check_second(slab);
                    *queued -= 1;
                    n += 1;
                    let (pkt, key, meta) = e.into_parts(s.id);
                    each(pkt, key, meta);
                    let next_key = next_key?;
                    if n >= max || top.is_some_and(|&(top, _)| next_key >= top) {
                        // Re-admit the flow's head and return to the
                        // heap path (or stop, leaving the invariant
                        // restored).
                        return Some((next_key, fidx));
                    }
                }
            });
            if popped.is_none() {
                break;
            }
            look_ahead(heap, flows, slab);
        }
        n
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued packets of one flow.
    pub fn backlog(&self, flow: FlowId) -> usize {
        self.ids
            .get(flow)
            .map_or(0, |i| self.flows[i as usize].len as usize)
    }

    /// Entries currently in the head-of-flow heap. Diagnostic: at most
    /// one live entry per backlogged flow, plus stale entries awaiting
    /// lazy reclamation.
    pub fn head_heap_len(&self) -> usize {
        self.heap.len()
    }

    /// `flow`'s queued records, from its head.
    fn chain(&self, flow: FlowId) -> impl Iterator<Item = &Entry<K, M>> + '_ {
        let mut cur = self
            .ids
            .get(flow)
            .map_or(NIL, |i| self.flows[i as usize].head);
        std::iter::from_fn(move || {
            let e = (cur != NIL).then(|| self.slab.val_raw(cur))?;
            cur = self.slab.link_raw(cur);
            Some(e)
        })
    }

    /// Key and metadata of a still-queued packet, if present.
    /// Diagnostic accessor (tests/telemetry): scans the per-flow FIFOs
    /// rather than taxing the hot path with a uid index.
    pub fn find(&self, uid: u64) -> Option<(K, M)> {
        let live = self.flows.iter().filter(|s| s.ext.is_some());
        live.flat_map(|s| self.chain(s.id))
            .find(|e| e.uid == uid)
            .map(|e| (e.key, e.meta))
    }

    /// `flow`'s packet `n` places behind its head (`0`: the head), in
    /// `O(n)`.
    pub(crate) fn nth(&self, flow: FlowId, n: usize) -> Option<Packet> {
        self.chain(flow).nth(n).map(|e| e.packet(flow))
    }

    /// Discard `flow`'s head-of-line packet, returning it. The new head
    /// (if any) is pushed into the heap; the dropped head's entry —
    /// whether still in the heap or not — becomes stale and is skipped
    /// by key mismatch like any other. Used by the head-drop overload
    /// policy: the flow's tag chain is left intact, so the dropped
    /// packet's virtual-time span stays charged to the flow.
    pub fn drop_front(&mut self, flow: FlowId) -> Option<(Packet, K, M)> {
        let fidx = self.ids.get(flow)?;
        let s = &mut self.flows[fidx as usize];
        if s.head == NIL {
            return None;
        }
        let e = self.slab.free_raw(s.head);
        self.queued -= 1;
        if let Some(key) = s.advance(&self.slab) {
            self.heap.push((key, fidx));
        }
        s.debug_check_second(&self.slab);
        Some(e.into_parts(flow))
    }

    /// Apply `entry` to every queued packet's key and metadata and
    /// `ext` to every registered flow's extension state, then rebuild
    /// the head-of-flow heap from the updated heads (dropping any stale
    /// entries as a side effect). The caller must preserve relative key
    /// order — virtual-time rebasing shifts every tag by the same
    /// baseline, which does. Cost is `O(packets + flows)`; disciplines
    /// call this only at rebase points, never on the per-packet path.
    pub fn retag_all(
        &mut self,
        mut entry: impl FnMut(&mut K, &mut M),
        mut ext: impl FnMut(&mut E),
    ) {
        let (flows, slab) = (&mut self.flows, &mut self.slab);
        self.heap
            .rebuild(flows.iter_mut().enumerate().filter_map(|(fidx, s)| {
                ext(s.ext.as_mut()?);
                let mut cur = s.head;
                while cur != NIL {
                    slab.val_mut_raw(cur).retag(&mut entry);
                    cur = slab.link_raw(cur);
                }
                (s.head != NIL).then(|| (slab.val_raw(s.head).head_key(), fidx as u32))
            }));
    }

    /// Apply `entry` to one flow's queued packets in FIFO order —
    /// `entry(position, &packet, &mut key, &mut meta)` — and `ext` to
    /// its extension state. The live-reconfiguration primitive behind
    /// `Scheduler::try_set_weight`.
    ///
    /// **The closure must leave the head's (position 0) key unchanged**
    /// (checked by a debug assertion): the flow's heap entry carries
    /// the head key, and keeping it intact means no heap surgery — the
    /// whole rewrite is `O(backlog)` with zero heap traffic, and a
    /// flow whose backlog is untouched contributes nothing. Non-head
    /// keys may change freely as long as the flow's key sequence stays
    /// strictly increasing (the container invariant).
    ///
    /// Returns `false` (with no state change) if the flow is unknown.
    pub fn retag_flow(
        &mut self,
        flow: FlowId,
        mut entry: impl FnMut(usize, &Packet, &mut K, &mut M),
        ext: impl FnOnce(&mut E),
    ) -> bool {
        let Some(fidx) = self.ids.get(flow) else {
            return false;
        };
        let s = &mut self.flows[fidx as usize];
        let Some(e) = s.ext.as_mut() else {
            return false;
        };
        ext(e);
        let (mut cur, mut pos) = (s.head, 0);
        while cur != NIL {
            retag_at(pos, flow, self.slab.val_mut_raw(cur), &mut entry);
            cur = self.slab.link_raw(cur);
            pos += 1;
        }
        true
    }

    /// Remove an **idle** flow; returns false if the flow is unknown or
    /// still backlogged.
    pub fn remove_flow(&mut self, flow: FlowId) -> bool {
        match self.ids.get(flow) {
            Some(i) if self.flows[i as usize].head == NIL => {
                self.release_slot(i);
                true
            }
            _ => false,
        }
    }

    /// Drop a flow and all of its queued packets immediately, without
    /// the idle-only guard. Returns the number of packets discarded,
    /// or `None` if the flow was never registered (so callers can
    /// report a flow-change event only when something was removed).
    /// The flow's heap entry (if any) is left behind as stale and
    /// skipped by the next [`FlowFifos::pop_min`] that reaches it;
    /// `len`/`backlog` accounting stays exact, and every discarded
    /// packet's slot returns to the freelist.
    pub fn force_remove_flow(&mut self, flow: FlowId) -> Option<usize> {
        let fidx = self.ids.get(flow)?;
        let s = &self.flows[fidx as usize];
        let dropped = s.len as usize;
        let mut cur = s.head;
        while cur != NIL {
            let next = self.slab.link_raw(cur);
            self.slab.free_raw(cur);
            cur = next;
        }
        self.queued -= dropped;
        self.release_slot(fidx);
        Some(dropped)
    }

    /// Free a flow slot: drop the extension state and the FIFO ends
    /// (staling any heap entry of the old occupancy), unlink the id, and
    /// push the slot onto the flow freelist.
    fn release_slot(&mut self, fidx: u32) {
        let s = &mut self.flows[fidx as usize];
        s.ext = None;
        s.head = NIL;
        s.second = NIL;
        s.tail = NIL;
        s.len = 0;
        let id = s.id;
        self.ids.remove(id);
        self.free_flows.push(fidx);
    }
}

/// `(size, align)` of the three records the per-packet path reads and
/// hints, for the layout-pinning tests.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PooledLayout {
    pub flow_slot: (usize, usize),
    pub slab_slot: (usize, usize),
    pub heap_entry: (usize, usize),
}

#[cfg(test)]
impl<K: Ord + Copy, E, M: Copy> FlowFifos<K, E, M> {
    pub(crate) fn pooled_layout() -> PooledLayout {
        PooledLayout {
            flow_slot: (
                std::mem::size_of::<FlowSlot<E>>(),
                std::mem::align_of::<FlowSlot<E>>(),
            ),
            slab_slot: SlabPool::<Entry<K, M>>::slot_layout(),
            heap_entry: (
                std::mem::size_of::<(HeadKey<K>, u32)>(),
                std::mem::align_of::<(HeadKey<K>, u32)>(),
            ),
        }
    }
}

/// [`FlowFifos::retag_flow`]'s step for `flow`'s packet at `pos`,
/// which (debug builds check) must keep the head's key.
fn retag_at<K: Copy + PartialEq, M: Copy>(
    pos: usize,
    flow: FlowId,
    e: &mut Entry<K, M>,
    entry: &mut impl FnMut(usize, &Packet, &mut K, &mut M),
) {
    let before = e.key;
    let pkt = e.packet(flow);
    e.retag(|key, meta| entry(pos, &pkt, key, meta));
    let after = e.key;
    debug_assert!(
        pos > 0 || after == before,
        "retag_flow must keep the head key"
    );
}

/// The end of every dequeue: ask for what the next one will read
/// — the new root's head record and the record behind it — and for the
/// flow slots of the root's children, one of which is what this
/// function reads a dequeue from now (the only other candidate, the
/// flow just served, is warm). Hints only: a stale or changing entry
/// costs nothing, and nothing is loaded that was not asked for a
/// dequeue ago.
#[inline(always)]
fn look_ahead<K: Ord + Copy, E, M: Copy>(
    heap: &HeadHeap<(HeadKey<K>, u32)>,
    flows: &[FlowSlot<E>],
    slab: &SlabPool<Entry<K, M>>,
) {
    let Some(&(_, fidx)) = heap.peek() else {
        return;
    };
    if let Some(s) = flows.get(fidx as usize) {
        slab.prefetch_raw(s.head);
        slab.prefetch_raw(s.second);
    }
    for &(_, child) in heap.root_children() {
        if let Some(s) = flows.get(child as usize) {
            prefetch_value(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{Bytes, SimTime};
    use std::collections::VecDeque;

    fn pkt(flow: u32, uid: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            seq: uid,
            len: Bytes::new(100),
            arrival: SimTime::ZERO,
            uid,
        }
    }

    #[test]
    fn heads_pop_in_key_order() {
        let mut q: FlowFifos<u64, u64, ()> = FlowFifos::new("t");
        for f in 0..4u32 {
            q.upsert_flow(FlowId(f), || 0u64);
        }
        // Keys interleave flows and are unique here.
        let mut uid = 0u64;
        for round in 0..5u64 {
            for f in 0..4u32 {
                let key = round * 10 + f as u64;
                q.push_with(pkt(f, uid), |_| (key, ()));
                uid += 1;
            }
        }
        assert_eq!(q.len(), 20);
        let mut last = None;
        while let Some((_, k, ())) = q.pop_min() {
            if let Some(prev) = last {
                assert!(k > prev);
            }
            last = Some(k);
        }
        assert!(q.is_empty());
    }

    /// Two flows whose heads share `(tag, tie)`: the lower uid leaves
    /// first, though it was queued second, one at a time and in a batch.
    #[test]
    fn equal_heads_serve_the_lower_uid_first() {
        for batch in [false, true] {
            let mut q: FlowFifos<(u64, i64), u64, ()> = FlowFifos::new("t");
            q.upsert_flow(FlowId(1), || 0);
            q.upsert_flow(FlowId(2), || 0);
            q.push_with(pkt(1, 9), |_| ((5, -1), ()));
            q.push_with(pkt(2, 4), |_| ((5, -1), ()));
            let mut uids = Vec::new();
            if batch {
                q.pop_min_batch(2, |p, _, ()| uids.push(p.uid));
            } else {
                while let Some((p, _, ())) = q.pop_min() {
                    uids.push(p.uid);
                }
            }
            assert_eq!(uids, [4, 9], "batch {batch}");
        }
    }

    #[test]
    fn pooled_slots_recycle_and_account_exactly() {
        let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
        q.upsert_flow(FlowId(1), || ());
        for uid in 0..100u64 {
            q.push_with(pkt(1, uid), |_| (uid, ()));
            if uid % 2 == 1 {
                q.pop_min();
                q.pop_min();
            }
        }
        let st = q.pool_stats();
        assert_eq!(st.pkts_in_use, q.len());
        while q.pop_min().is_some() {}
        let st = q.pool_stats();
        assert_eq!(st.pkts_in_use, 0);
        // Steady alternation never needed more than a couple of slots.
        assert!(st.pkts_hwm <= 3, "hwm {}", st.pkts_hwm);
    }

    #[test]
    fn pool_limit_surfaces_buffer_full_without_state_change() {
        let mut q: FlowFifos<u64, u64, ()> = FlowFifos::new("t");
        q.set_pool_limit(Some(2));
        q.upsert_flow(FlowId(1), || 0);
        q.push_with(pkt(1, 0), |_| (0, ()));
        q.push_with(pkt(1, 1), |_| (1, ()));
        let err = q.try_push_with(pkt(1, 2), |e| {
            *e += 1; // would corrupt state if capacity failed after tag
            Some((2, ()))
        });
        assert_eq!(err, Err(SchedError::BufferFull(FlowId(1))));
        assert_eq!(*q.ext(FlowId(1)).unwrap(), 0, "tag closure must not run");
        assert_eq!(q.len(), 2);
        // Freeing a slot makes room again.
        q.pop_min();
        assert!(q.try_push_with(pkt(1, 2), |_| Some((2, ()))).is_ok());
    }

    #[test]
    fn generation_check_stales_old_heap_entries_across_reuse() {
        let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
        q.upsert_flow(FlowId(1), || ());
        q.push_with(pkt(1, 0), |_| (10, ()));
        assert_eq!(q.force_remove_flow(FlowId(1)), Some(1));
        // Re-register; the old heap entry must not resurrect anything.
        q.upsert_flow(FlowId(1), || ());
        q.push_with(pkt(1, 1), |_| (99, ()));
        let (p, k, ()) = q.pop_min().unwrap();
        assert_eq!((p.uid, k), (1, 99));
        assert!(q.pop_min().is_none());
        assert_eq!(q.pool_stats().pkts_in_use, 0);
    }

    #[test]
    fn flow_slot_reuse_after_gc_keeps_table_dense() {
        let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
        for round in 0..50u32 {
            let f = FlowId(round);
            q.upsert_flow(f, || ());
            q.push_with(pkt(round, round as u64), |_| (round as u64, ()));
            q.pop_min();
            assert!(q.remove_flow(f), "drained flow {round} is idle");
        }
        let st = q.pool_stats();
        assert_eq!(st.flow_slots, 1, "table grew to {}", st.flow_slots);
        assert_eq!(st.pkts_in_use, 0);
    }

    /// `retag_all` rebuilds the heap bottom-up (`HeadHeap::rebuild`)
    /// instead of pushing flow by flow. At 100 000 flows — 3 MB of heap,
    /// deep into the prefetching levels — the rebuilt heap must serve
    /// exactly what a push-built heap over the same keys serves.
    #[test]
    fn head_heap_rebuilt_by_retag_all_dequeues_like_a_push_built_one() {
        const FLOWS: u32 = 100_000;
        const SHIFT: u64 = 1 << 40;
        let fill = |shift: u64| {
            let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
            let mut uid = 0u64;
            for depth in 0..2u64 {
                for f in 0..FLOWS {
                    q.upsert_flow(FlowId(f), || ());
                    // Scrambled across flows, increasing per flow,
                    // unique through the uid in the low bits.
                    let key = ((f as u64).wrapping_mul(0x9E37_79B9) % 1_000_003
                        + depth * 1_000_003)
                        << 20
                        | uid;
                    q.push_with(pkt(f, uid), |_| (key + shift, ()));
                    uid += 1;
                }
            }
            q
        };
        let mut pushed = fill(SHIFT);
        let mut rebuilt = fill(0);
        rebuilt.retag_all(|key, _| *key += SHIFT, |_| ());
        assert_eq!(rebuilt.head_heap_len(), FLOWS as usize);
        assert_eq!(pushed.head_heap_len(), FLOWS as usize);
        let mut last = 0;
        for _ in 0..2 * FLOWS {
            let (a, b) = (pushed.pop_min(), rebuilt.pop_min());
            let (pa, ka, ()) = a.expect("both hold every packet");
            let (pb, kb, ()) = b.expect("both hold every packet");
            assert_eq!((pa.uid, ka), (pb.uid, kb));
            assert!(ka > last, "keys leave in increasing order");
            last = ka;
        }
        assert!(pushed.is_empty() && rebuilt.is_empty());
    }

    /// The record stores a packet without its flow id, and every exit
    /// puts one back: these check that it is the id the packet entered
    /// with, and that the other fields come back bit for bit.
    mod round_trip {
        use super::*;
        use proptest::prelude::*;
        use simtime::Ratio;

        /// Flow ids in play: more than the flows usually registered at
        /// once, so a released slot is often taken by another id.
        const IDS: u32 = 6;

        /// What `retag_all` adds to every key.
        const SHIFT: u64 = 1 << 32;

        #[derive(Clone, Debug)]
        enum Op {
            Register(u32),
            /// Queue a packet: flow, seq, len, and the arrival's stored
            /// pair (numerator, lattice index).
            Push(u32, u64, u64, i128, usize),
            Pop,
            Batch(usize),
            DropFront(u32),
            /// Read the flow's packet this many places behind its head.
            Nth(u32, usize),
            ForceRemove(u32),
            RetagAll,
            RetagFlow(u32),
            /// `remove_flow` on every flow id: registered idle flows go.
            RemoveIdle,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let push = (
                0..IDS,
                0..u64::MAX,
                0u64..70_000,
                -1_000_000i128..1_000_000,
                0usize..4,
            )
                .prop_map(|(f, seq, len, n, d)| Op::Push(f, seq, len, n, d));
            prop::collection::vec(
                // The shim's prop_oneof! is unweighted: repeat the
                // common arms.
                prop_oneof![
                    (0..IDS).prop_map(Op::Register),
                    (0..IDS).prop_map(Op::Register),
                    push.clone(),
                    push.clone(),
                    push,
                    Just(Op::Pop),
                    (1usize..6).prop_map(Op::Batch),
                    (0..IDS).prop_map(Op::DropFront),
                    (0..IDS, 0usize..4).prop_map(|(f, n)| Op::Nth(f, n)),
                    (0..IDS).prop_map(Op::ForceRemove),
                    Just(Op::RetagAll),
                    (0..IDS).prop_map(Op::RetagFlow),
                    Just(Op::RemoveIdle),
                ],
                1..200,
            )
        }

        /// An arrival stored on one of four lattices, left unreduced.
        fn arrival(n: i128, lattice: usize) -> SimTime {
            match lattice {
                0 => SimTime::from_nanos(n),
                1 => SimTime::from_millis(n),
                2 => SimTime::from_secs(n),
                _ => SimTime::from_ratio(Ratio::new(n, 7)),
            }
        }

        /// The packets queued per flow id (`None` while unregistered),
        /// and what `retag_all` has added to every key so far: a packet
        /// is keyed `uid + offset`, with metadata `!uid`.
        struct Model {
            flows: Vec<Option<VecDeque<Packet>>>,
            offset: u64,
        }

        impl Model {
            /// The head the container must serve: the least uid.
            fn pop(&mut self) -> Option<Packet> {
                let f = (0..self.flows.len())
                    .filter_map(|f| Some((self.flows[f].as_ref()?.front()?.uid, f)))
                    .min()?
                    .1;
                self.flows[f].as_mut()?.pop_front()
            }

            fn len(&self) -> usize {
                self.flows.iter().flatten().map(VecDeque::len).sum()
            }
        }

        /// `got` is `want` with the key and metadata it was queued
        /// under, the arrival stored exactly as it entered.
        fn check(
            got: Option<(Packet, u64, u64)>,
            want: Option<Packet>,
            offset: u64,
        ) -> Result<(), TestCaseError> {
            let got_pkt = got.map(|(p, _, _)| p);
            prop_assert_eq!(got_pkt, want);
            if let (Some((p, key, meta)), Some(w)) = (got, want) {
                prop_assert_eq!(p.arrival.parts(), w.arrival.parts());
                prop_assert_eq!((key, meta), (w.uid + offset, !w.uid));
            }
            Ok(())
        }

        /// Runs `ops` against the model; returns the pool stats at the
        /// end.
        fn run(ops: &[Op]) -> Result<PoolStats, TestCaseError> {
            let mut q: FlowFifos<u64, FlowId, u64> = FlowFifos::new("t");
            let mut m = Model {
                flows: vec![None; IDS as usize],
                offset: 0,
            };
            let mut uid = 0u64;
            for op in ops {
                match *op {
                    Op::Register(f) => {
                        let id = FlowId(f);
                        prop_assert_eq!(*q.upsert_flow(id, || id), id);
                        m.flows[f as usize].get_or_insert_with(VecDeque::new);
                    }
                    Op::Push(f, seq, len, n, lattice) => {
                        let pkt = Packet {
                            flow: FlowId(f),
                            seq,
                            len: Bytes::new(len),
                            arrival: arrival(n, lattice),
                            uid,
                        };
                        let (key, meta) = (uid + m.offset, !uid);
                        let got = q.try_push_with(pkt, |ext| {
                            assert_eq!(*ext, FlowId(f), "pushed into another flow's slot");
                            Some((key, meta))
                        });
                        match m.flows[f as usize].as_mut() {
                            Some(fifo) => {
                                prop_assert_eq!(got, Ok((key, meta)));
                                fifo.push_back(pkt);
                                uid += 1;
                            }
                            None => prop_assert_eq!(got, Err(SchedError::UnknownFlow(FlowId(f)))),
                        }
                    }
                    Op::Pop => check(q.pop_min(), m.pop(), m.offset)?,
                    Op::Batch(n) => {
                        let mut got = Vec::new();
                        q.pop_min_batch(n, |p, k, meta| got.push((p, k, meta)));
                        let want: Vec<_> = (0..n).map_while(|_| m.pop()).collect();
                        prop_assert_eq!(got.len(), want.len());
                        for (g, w) in got.into_iter().zip(want) {
                            check(Some(g), Some(w), m.offset)?;
                        }
                    }
                    Op::DropFront(f) => {
                        let want = m.flows[f as usize].as_mut().and_then(VecDeque::pop_front);
                        check(q.drop_front(FlowId(f)), want, m.offset)?;
                    }
                    Op::Nth(f, n) => {
                        let want = m.flows[f as usize].as_ref().and_then(|q| q.get(n));
                        let got = q.nth(FlowId(f), n);
                        prop_assert_eq!(got.as_ref(), want);
                        if let (Some(g), Some(w)) = (got, want) {
                            prop_assert_eq!(g.arrival.parts(), w.arrival.parts());
                        }
                    }
                    Op::ForceRemove(f) => {
                        let want = m.flows[f as usize].take().map(|fifo| fifo.len());
                        prop_assert_eq!(q.force_remove_flow(FlowId(f)), want);
                    }
                    Op::RetagAll => {
                        m.offset += SHIFT;
                        q.retag_all(|key, _| *key += SHIFT, |_| ());
                    }
                    Op::RetagFlow(f) => {
                        let mut seen = Vec::new();
                        let known = q.retag_flow(FlowId(f), |_, p, _, _| seen.push(*p), |_| ());
                        let want = m.flows[f as usize].as_ref();
                        prop_assert_eq!(known, want.is_some());
                        let want: Vec<_> = want.into_iter().flatten().copied().collect();
                        prop_assert_eq!(&seen, &want);
                        for (s, w) in seen.iter().zip(&want) {
                            prop_assert_eq!(s.arrival.parts(), w.arrival.parts());
                        }
                    }
                    Op::RemoveIdle => {
                        for f in 0..IDS {
                            let fifo = &mut m.flows[f as usize];
                            let idle = fifo.as_ref().is_some_and(VecDeque::is_empty);
                            prop_assert_eq!(q.remove_flow(FlowId(f)), idle, "flow {}", f);
                            if idle {
                                *fifo = None;
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), m.len());
            }
            let drain: Vec<_> = std::iter::from_fn(|| q.pop_min()).collect();
            let want: Vec<_> = std::iter::from_fn(|| m.pop()).collect();
            prop_assert_eq!(drain.len(), want.len());
            for (g, w) in drain.into_iter().zip(want) {
                check(Some(g), Some(w), m.offset)?;
            }
            Ok(q.pool_stats())
        }

        /// A flow force-removed, and an idle one removed, each leave a
        /// slot that a different flow id takes next: its packets leave
        /// under their own id, not the slot's previous occupant's.
        #[test]
        fn a_reused_slot_hands_out_its_new_flow_id() {
            let push = |f, uid: i128| Op::Push(f, 7, 100, uid, 1);
            let ops = [
                Op::Register(1),
                push(1, 0),
                push(1, 1),
                Op::ForceRemove(1),
                Op::Register(2),
                push(2, 2),
                Op::Pop,
                Op::RemoveIdle,
                Op::Register(3),
                push(3, 3),
                push(3, 4),
                Op::RetagFlow(3),
                Op::Batch(2),
            ];
            let st = run(&ops).expect("round trip");
            assert_eq!(st.flow_slots, 1, "{st:?}");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every packet leaves — served one at a time or in a batch,
            /// head-dropped, or seen by a retag or by `nth` — with
            /// exactly the flow, seq, len, arrival and uid it entered
            /// with, through force-removals, idle removals and slot
            /// reuse.
            #[test]
            fn packets_leave_as_they_entered(ops in ops()) {
                run(&ops)?;
            }
        }
    }

    mod ties {
        use super::*;
        use proptest::prelude::*;

        const FLOWS: u32 = 4;

        #[derive(Clone, Debug)]
        enum Op {
            /// Queue a packet on the flow, its key this much past the
            /// least it may take (see [`Model::key`]).
            Push(u32, u64),
            Pop,
            Batch(usize),
            DropFront(u32),
            /// Move every key behind the flow's head down by the gap
            /// behind the head, then drop the head: the next packet
            /// leaves under the head's key, as after
            /// `TagSched::take_head_inheriting` (`retag_flow`, then
            /// `drop_front`).
            Inherit(u32),
            /// Force-remove the flow and register it again: its keys
            /// start over, under its stale heap entry's.
            Reset(u32),
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            prop::collection::vec(
                // The shim's prop_oneof! is unweighted: repeat the common
                // arms. Mostly `d = 0`, the key every waiting flow shares.
                prop_oneof![
                    (0..FLOWS).prop_map(|f| Op::Push(f, 0)),
                    (0..FLOWS).prop_map(|f| Op::Push(f, 0)),
                    (0..FLOWS, 0u64..2).prop_map(|(f, d)| Op::Push(f, d)),
                    (0..FLOWS, 0u64..2).prop_map(|(f, d)| Op::Push(f, d)),
                    Just(Op::Pop),
                    (1usize..5).prop_map(Op::Batch),
                    (0..FLOWS).prop_map(Op::DropFront),
                    (0..FLOWS).prop_map(Op::Inherit),
                    (0..FLOWS).prop_map(Op::Reset),
                ],
                1..200,
            )
        }

        /// The packets queued, as `(key, uid)` per flow.
        struct Model {
            flows: Vec<VecDeque<(u64, u64)>>,
            /// The least key each flow may take next (its keys rise).
            next: Vec<u64>,
            /// The key last served.
            v: u64,
        }

        impl Model {
            /// An SFQ-shaped key: `max(v, next) + d`, `d` in `{0, 1}`.
            /// Flows that wait for service all key at or just past `v`,
            /// so heads with equal keys on different flows are the rule.
            fn key(&mut self, f: u32, d: u64) -> u64 {
                let key = self.v.max(self.next[f as usize]) + d;
                self.next[f as usize] = key + 1;
                key
            }

            /// The head the container must serve: least `(key, uid)`.
            fn pop(&mut self) -> Option<(u64, u64)> {
                let f = (0..self.flows.len())
                    .filter(|&f| !self.flows[f].is_empty())
                    .min_by_key(|&f| self.flows[f][0])?;
                let head = self.flows[f].pop_front()?;
                self.v = head.0;
                Some(head)
            }
        }

        /// Runs `ops`, checking every departure against the model.
        fn run(ops: &[Op]) -> Result<(), TestCaseError> {
            let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
            let mut m = Model {
                flows: vec![VecDeque::new(); FLOWS as usize],
                next: vec![0; FLOWS as usize],
                v: 0,
            };
            for f in 0..FLOWS {
                q.upsert_flow(FlowId(f), || ());
            }
            let mut uid = 0u64;
            for op in ops {
                match *op {
                    Op::Push(f, d) => {
                        let key = m.key(f, d);
                        q.push_with(pkt(f, uid), |_| (key, ()));
                        m.flows[f as usize].push_back((key, uid));
                        uid += 1;
                    }
                    Op::Pop => {
                        let got = q.pop_min().map(|(p, k, ())| (k, p.uid));
                        prop_assert_eq!(got, m.pop());
                    }
                    Op::Batch(n) => {
                        let mut got = Vec::new();
                        q.pop_min_batch(n, |p, k, ()| got.push((k, p.uid)));
                        let want: Vec<_> = (0..n).map_while(|_| m.pop()).collect();
                        prop_assert_eq!(&got, &want);
                    }
                    Op::DropFront(f) => {
                        let got = q.drop_front(FlowId(f)).map(|(p, k, ())| (k, p.uid));
                        prop_assert_eq!(got, m.flows[f as usize].pop_front());
                    }
                    Op::Inherit(f) => {
                        let fifo = &mut m.flows[f as usize];
                        let want = fifo.pop_front();
                        if let (Some((head, _)), Some(&(next, _))) = (want, fifo.front()) {
                            fifo.iter_mut().for_each(|e| e.0 -= next - head);
                            m.next[f as usize] -= next - head;
                        }
                        let (mut head, mut gap) = (0, 0);
                        q.retag_flow(
                            FlowId(f),
                            |pos, _, key, ()| match pos {
                                0 => head = *key,
                                _ => {
                                    if pos == 1 {
                                        gap = *key - head;
                                    }
                                    *key -= gap;
                                }
                            },
                            |_| (),
                        );
                        let got = q.drop_front(FlowId(f)).map(|(p, k, ())| (k, p.uid));
                        prop_assert_eq!(got, want);
                    }
                    Op::Reset(f) => {
                        q.force_remove_flow(FlowId(f));
                        q.upsert_flow(FlowId(f), || ());
                        m.flows[f as usize].clear();
                        m.next[f as usize] = 0;
                    }
                }
                prop_assert_eq!(q.len(), m.flows.iter().map(VecDeque::len).sum::<usize>());
            }
            // Drained with nothing arriving, departures rise strictly in
            // `(key, uid)`: equal keys leave in ascending uid order.
            let drain: Vec<_> = std::iter::from_fn(|| q.pop_min())
                .map(|(p, k, ())| (k, p.uid))
                .collect();
            prop_assert!(drain.windows(2).all(|w| w[0] < w[1]), "{:?}", drain);
            prop_assert_eq!(&drain, &std::iter::from_fn(|| m.pop()).collect::<Vec<_>>());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Keys from a tiny domain: the store serves the model's
            /// least `(key, uid)` at every departure.
            #[test]
            fn equal_keys_leave_in_uid_order(ops in ops()) {
                run(&ops)?;
            }
        }
    }
}
