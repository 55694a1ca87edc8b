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
//! - `K` — the heap ordering key (must embed the packet uid so that a
//!   full-key comparison against the current FIFO head identifies
//!   stale heap entries exactly; uids are never reused),
//! - `E` — per-flow extension state (weight, `F(p_f^{j-1})`, `d_f` …),
//! - `M` — per-packet metadata carried alongside the key (e.g. the
//!   finish tag for SFQ, whose key orders by start tag).
//!
//! Tag arithmetic, virtual-time bookkeeping, and observer events stay
//! in `TagSched` — only the FIFO + heap mechanics live here.
//!
//! ## Backends
//!
//! Since PR 7 the container has two interchangeable backends behind
//! one API (see `docs/pooling.md`):
//!
//! - [`FifoBackend::Pooled`] (the default) keeps packets in a slab
//!   pool ([`crate::pool::SlabPool`]) chained into per-flow FIFOs by
//!   intrusive next-indexes, with flows in a dense generation-checked
//!   table addressed through a [`crate::pool::IdIndex`] — zero
//!   allocation in steady state, and optional lazy flow GC
//!   ([`FlowFifos::gc_step`]) for flow-churn workloads.
//! - [`FifoBackend::Owned`] is the original `HashMap` +
//!   `VecDeque`-per-flow layout, retained as the oracle the pooled
//!   path is differenced against (`tests/pool_identity.rs`, the
//!   conformance `pool` preset).
//!
//! Dequeue order is bit-identical across backends: keys embed the
//! packet uid so every live key is unique, the heap therefore pops a
//! totally-ordered sequence regardless of internal layout, and stale
//! entries are skipped by exact key (owned) or generation + key
//! (pooled) mismatch — conditions that hold in exactly the same cases.
//!
//! ## The heap
//!
//! Both backends keep their head-of-flow entries in the same
//! [`HeadHeap`] (`headheap.rs`): an implicit binary min-heap that costs
//! what `std::collections::BinaryHeap` costs while it fits in cache and,
//! once it does not — a million backlogged flows is 32 MB of entries —
//! prefetches the contiguous descendants four levels under the hole so
//! that the bottom levels' misses overlap instead of queueing behind
//! one another. This is the paper's `O(log Q)` term; it is the only
//! heap in the crate's per-packet path and has no tuning surface. The
//! pooled backend dequeues through its fused [`HeadHeap::pop_refill`]
//! (the served flow's entry leaves and returns under its next head's
//! key in one descent); the owned oracle uses plain `pop` + `push`, so
//! the identity suites check one against the other.
//!
//! ## The dequeue look-ahead
//!
//! What a pooled dequeue reads outside the heap — the winner's flow
//! slot, its head packet's record, the key of the packet behind it — is
//! a chain of dependent loads from memory last touched a backlog ago.
//! Every pooled dequeue therefore ends by asking (prefetch hints, see
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
use std::collections::{HashMap, VecDeque};

pub use crate::headheap::HeadHeap;

/// GC candidates examined per dequeue-side hook when lazy flow GC is
/// enabled: amortizes reclamation (at most one flow drains per
/// departure, so a budget of 2 keeps the candidate list bounded)
/// without adding a scan to the hot path.
pub const GC_BUDGET: usize = 2;

/// Which internal layout a [`FlowFifos`] uses. Selectable per
/// instance so differential tests can run both side by side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FifoBackend {
    /// Slab pool + intrusive links + dense generation-checked flow
    /// table. Zero allocation in steady state; the default.
    #[default]
    Pooled,
    /// `HashMap` of `VecDeque`s — the pre-PR-7 layout, kept as the
    /// differential oracle.
    Owned,
}

/// A packet in its flow's FIFO with the key/metadata assigned at
/// arrival, so dequeue needs no recomputation. Also the pooled
/// backend's slab record.
#[derive(Clone, Copy, Debug)]
struct Entry<K, M> {
    pkt: Packet,
    key: K,
    meta: M,
}

/// One flow's backlog plus the discipline's extension state (owned
/// backend).
#[derive(Debug)]
struct FlowQ<K, E, M> {
    ext: E,
    /// Backlogged packets in arrival (= service) order.
    queue: VecDeque<Entry<K, M>>,
}

/// Owned backend: the original `HashMap` + `VecDeque` layout.
#[derive(Debug)]
struct OwnedFifos<K, E, M> {
    flows: HashMap<FlowId, FlowQ<K, E, M>>,
    /// At most one live entry per backlogged flow, keyed by the flow's
    /// head packet. Entries for force-removed flows are stale and
    /// skipped lazily in `pop_min`.
    heap: HeadHeap<(K, FlowId)>,
    queued: usize,
}

/// One slot of the pooled backend's dense flow table.
///
/// `gen` increments every time the slot is released (idle removal,
/// force-remove, GC), so heap entries — which carry the generation
/// they were pushed under — from a previous occupant are recognized
/// as stale even after the slot is reused by another flow. A free
/// slot has `ext == None` and sits on the `free_flows` list.
///
/// Six words and the extension state: 64 bytes for `SfqFast`, one
/// cache line's worth (pinned by a test in `tagsched.rs`).
#[derive(Debug)]
struct FlowSlot<E> {
    id: FlowId,
    gen: u32,
    /// Slab index of the FIFO head packet, or `NIL` when idle.
    head: u32,
    /// Slab index of the packet behind the head — always the head
    /// record's link, `NIL` when fewer than two packets are queued — so
    /// that a dequeue (and the look-ahead before it) finds the record
    /// it needs second without loading the first.
    second: u32,
    tail: u32,
    /// Queued packets in the low 31 bits; [`LISTED`] on top.
    len: u32,
    ext: Option<E>,
}

/// Bit of [`FlowSlot::len`]: already queued as a GC candidate (avoids
/// duplicate hints).
const LISTED: u32 = 1 << 31;

impl<E> FlowSlot<E> {
    fn backlog(&self) -> u32 {
        self.len & !LISTED
    }

    /// Unlink the head packet, whose record the caller frees: the
    /// second packet becomes the head and its link the new second.
    /// Returns the new head's key, `None` when the flow drained.
    #[inline(always)]
    fn advance<K: Copy, M: Copy>(&mut self, slab: &SlabPool<Entry<K, M>>) -> Option<K> {
        let next = self.second;
        self.head = next;
        self.len -= 1;
        if next == NIL {
            self.tail = NIL;
            return None;
        }
        self.second = slab.link_raw(next);
        Some(slab.val_raw(next).key)
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

/// Pooled backend: slab packets, intrusive FIFOs, dense flow table.
#[derive(Debug)]
struct PooledFifos<K, E, M> {
    slab: SlabPool<Entry<K, M>>,
    flows: Vec<FlowSlot<E>>,
    free_flows: Vec<u32>,
    ids: IdIndex,
    /// `(head key, flow slot, slot generation)` — at most one live
    /// entry per backlogged flow; stale entries are skipped by
    /// generation or key mismatch.
    heap: HeadHeap<(K, u32, u32)>,
    queued: usize,
    /// GC candidate hints `(slot, generation)`, present only once
    /// [`FlowFifos::enable_gc`] has been called.
    gc: Option<VecDeque<(u32, u32)>>,
    reclaimed: u64,
}

/// Per-flow FIFOs plus a head-of-flow heap. See the module docs for
/// the soundness argument, the meaning of `K`/`E`/`M`, and the two
/// backends.
#[derive(Debug)]
pub struct FlowFifos<K, E, M = ()> {
    /// Discipline name used in panic messages ("SFQ: unregistered …").
    name: &'static str,
    inner: Inner<K, E, M>,
}

#[derive(Debug)]
enum Inner<K, E, M> {
    Owned(OwnedFifos<K, E, M>),
    Pooled(PooledFifos<K, E, M>),
}

impl<K: Ord + Copy, E, M: Copy> FlowFifos<K, E, M> {
    /// Empty structure on the default (pooled) backend; `name`
    /// prefixes unregistered-flow panics.
    pub fn new(name: &'static str) -> Self {
        Self::new_with(name, FifoBackend::default())
    }

    /// Empty structure on an explicit backend.
    pub fn new_with(name: &'static str, backend: FifoBackend) -> Self {
        let inner = match backend {
            FifoBackend::Owned => Inner::Owned(OwnedFifos {
                flows: HashMap::new(),
                heap: HeadHeap::new(),
                queued: 0,
            }),
            FifoBackend::Pooled => Inner::Pooled(PooledFifos {
                slab: SlabPool::new(),
                flows: Vec::new(),
                free_flows: Vec::new(),
                ids: IdIndex::new(),
                heap: HeadHeap::new(),
                queued: 0,
                gc: None,
                reclaimed: 0,
            }),
        };
        FlowFifos { name, inner }
    }

    /// Told to expect up to `packets` queued packets: lets the pooled
    /// backend size its first packet chunk — allocated now for a deep
    /// backlog, grown from empty for a shallow one (see
    /// [`SlabPool::preallocate`]). No-op on the owned backend.
    pub fn preallocate(&mut self, packets: usize) {
        if let Inner::Pooled(p) = &mut self.inner {
            p.slab.preallocate(packets);
        }
    }

    /// Which backend this instance runs on.
    pub fn backend(&self) -> FifoBackend {
        match &self.inner {
            Inner::Owned(_) => FifoBackend::Owned,
            Inner::Pooled(_) => FifoBackend::Pooled,
        }
    }

    /// Cap the pooled backend's packet-slot footprint: once `limit`
    /// slots exist and all are in use, further pushes fail with
    /// [`SchedError::BufferFull`]. No-op on the owned backend (its
    /// buffers are unbounded; caps live in `netsim` admission).
    pub fn set_pool_limit(&mut self, limit: Option<usize>) {
        if let Inner::Pooled(p) = &mut self.inner {
            p.slab.set_limit(limit);
        }
    }

    /// Turn on lazy flow GC (pooled backend only): flows that drain to
    /// empty are listed as candidates, and [`FlowFifos::gc_step`]
    /// releases them once the discipline's safety predicate holds.
    pub fn enable_gc(&mut self) {
        if let Inner::Pooled(p) = &mut self.inner {
            if p.gc.is_none() {
                p.gc = Some(VecDeque::new());
            }
        }
    }

    /// Examine up to `budget` GC candidates, releasing each empty flow
    /// whose extension state satisfies `safe` (the discipline's
    /// bit-identity condition — e.g. "last finish tag ≤ current
    /// virtual time", so a revived flow starting from fresh state
    /// computes exactly the tags it would have anyway). Unsafe
    /// candidates are re-queued for a later step. Returns the number
    /// of flows released. Always 0 on the owned backend or before
    /// [`FlowFifos::enable_gc`].
    pub fn gc_step(&mut self, budget: usize, safe: impl FnMut(&E) -> bool) -> usize {
        match &mut self.inner {
            Inner::Owned(_) => 0,
            Inner::Pooled(p) => p.gc_step(budget, safe),
        }
    }

    /// Pool accounting for the leak-freedom invariant suite; `None` on
    /// the owned backend.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.inner {
            Inner::Owned(_) => None,
            Inner::Pooled(p) => Some(p.stats()),
        }
    }

    /// Currently registered flows (both backends).
    pub fn live_flows(&self) -> usize {
        match &self.inner {
            Inner::Owned(o) => o.flows.len(),
            Inner::Pooled(p) => p.flows.len() - p.free_flows.len(),
        }
    }

    /// Register `flow` if absent (with `make()` as its initial
    /// extension state) and return its extension state for the caller
    /// to update — the `entry().and_modify().or_insert()` shape every
    /// discipline's `add_flow` used. Re-registering also withdraws any
    /// pending GC candidacy, so a flow the control plane just touched
    /// cannot be reclaimed before its next packet arrives.
    pub fn upsert_flow(&mut self, flow: FlowId, make: impl FnOnce() -> E) -> &mut E {
        match &mut self.inner {
            Inner::Owned(o) => {
                &mut o
                    .flows
                    .entry(flow)
                    .or_insert_with(|| FlowQ {
                        ext: make(),
                        queue: VecDeque::new(),
                    })
                    .ext
            }
            Inner::Pooled(p) => p.upsert_flow(flow, make),
        }
    }

    /// The flow's extension state, if registered.
    pub fn ext(&self, flow: FlowId) -> Option<&E> {
        match &self.inner {
            Inner::Owned(o) => o.flows.get(&flow).map(|f| &f.ext),
            Inner::Pooled(p) => p
                .ids
                .get(flow)
                .and_then(|i| p.flows[i as usize].ext.as_ref()),
        }
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
    /// [`SchedError::TagOverflow`], and an exhausted pooled backend
    /// (slot cap reached) returns [`SchedError::BufferFull`] — in all
    /// cases no state changes, provided `tag` defers its
    /// extension-state update until after its last fallible step. The
    /// pool-capacity check runs *before* `tag`, so exhaustion never
    /// advances a flow's tag chain.
    pub fn try_push_with(
        &mut self,
        pkt: Packet,
        tag: impl FnOnce(&mut E) -> Option<(K, M)>,
    ) -> Result<(K, M), SchedError> {
        match &mut self.inner {
            Inner::Owned(o) => {
                let fq = o
                    .flows
                    .get_mut(&pkt.flow)
                    .ok_or(SchedError::UnknownFlow(pkt.flow))?;
                let (key, meta) = tag(&mut fq.ext).ok_or(SchedError::TagOverflow)?;
                let was_idle = fq.queue.is_empty();
                fq.queue.push_back(Entry { pkt, key, meta });
                if was_idle {
                    // The flow joins the backlogged set: its head (this
                    // packet) enters the heap. A non-idle flow's head
                    // is unchanged.
                    o.heap.push((key, pkt.flow));
                }
                o.queued += 1;
                Ok((key, meta))
            }
            Inner::Pooled(p) => p.try_push_with(pkt, tag),
        }
    }

    /// Remove and return the minimum-key head packet, with its key and
    /// metadata. Stale heap entries — left behind by
    /// [`FlowFifos::force_remove_flow`] or flow GC — are detected by a
    /// full-key mismatch against the flow's current head (uids are
    /// never reused, so a leftover key can never equal a later head's;
    /// the pooled backend additionally checks the slot generation) and
    /// skipped without disturbing the exact `queued` count.
    pub fn pop_min(&mut self) -> Option<(Packet, K, M)> {
        match &mut self.inner {
            Inner::Owned(o) => loop {
                let (key, flow) = o.heap.pop()?;
                let Some(fq) = o.flows.get_mut(&flow) else {
                    continue;
                };
                if fq.queue.front().map(|e| e.key) != Some(key) {
                    continue;
                }
                let Some(e) = fq.queue.pop_front() else {
                    // Unreachable: the front was just matched against `key`.
                    continue;
                };
                if let Some(next) = fq.queue.front() {
                    o.heap.push((next.key, flow));
                }
                o.queued -= 1;
                return Some((e.pkt, e.key, e.meta));
            },
            Inner::Pooled(p) => p.pop_min(),
        }
    }

    /// Remove up to `max` minimum-key head packets in exact key order,
    /// invoking `each` for every one. Returns the number popped.
    ///
    /// Order is bit-identical to `max` successive [`FlowFifos::pop_min`]
    /// calls (keys embed the packet uid, so live keys are unique and the
    /// comparison is total), but consecutive wins by the *same* flow are
    /// detected without heap traffic: after serving a flow's head, if
    /// its next head key precedes every heap entry it is served directly
    /// — the push+pop pair the per-packet path would have paid is
    /// skipped. Under bursty or skewed backlogs most of the batch rides
    /// this path. Stale heap entries are skipped exactly as in
    /// [`FlowFifos::pop_min`].
    pub fn pop_min_batch(&mut self, max: usize, mut each: impl FnMut(Packet, K, M)) -> usize {
        match &mut self.inner {
            Inner::Owned(o) => {
                let mut n = 0;
                while n < max {
                    // Heap path: find the live global-minimum head.
                    let Some((key, flow)) = o.heap.pop() else {
                        break;
                    };
                    let Some(fq) = o.flows.get_mut(&flow) else {
                        continue;
                    };
                    if fq.queue.front().map(|e| e.key) != Some(key) {
                        continue;
                    }
                    let Some(e) = fq.queue.pop_front() else {
                        // Unreachable: the front was just matched.
                        continue;
                    };
                    o.queued -= 1;
                    n += 1;
                    each(e.pkt, e.key, e.meta);
                    // Run path: keep serving this flow while its head
                    // beats the heap top (live entries' keys are
                    // unique, so a strict comparison decides; a stale
                    // top with a smaller key only sends us back through
                    // the heap path, which skips it).
                    while let Some(next_key) = fq.queue.front().map(|e| e.key) {
                        let beats_heap = match o.heap.peek() {
                            Some(&(top, _)) => next_key < top,
                            None => true,
                        };
                        if n >= max || !beats_heap {
                            // Re-admit the flow's head and return to
                            // the heap path (or stop, leaving the
                            // invariant restored).
                            o.heap.push((next_key, flow));
                            break;
                        }
                        let Some(e) = fq.queue.pop_front() else {
                            break; // unreachable: front() was Some above
                        };
                        o.queued -= 1;
                        n += 1;
                        each(e.pkt, e.key, e.meta);
                    }
                }
                n
            }
            Inner::Pooled(p) => p.pop_min_batch(max, each),
        }
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Owned(o) => o.queued,
            Inner::Pooled(p) => p.queued,
        }
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued packets of one flow.
    pub fn backlog(&self, flow: FlowId) -> usize {
        match &self.inner {
            Inner::Owned(o) => o.flows.get(&flow).map_or(0, |f| f.queue.len()),
            Inner::Pooled(p) => p
                .ids
                .get(flow)
                .map_or(0, |i| p.flows[i as usize].backlog() as usize),
        }
    }

    /// Entries currently in the head-of-flow heap. Diagnostic: at most
    /// one live entry per backlogged flow, plus stale entries awaiting
    /// lazy reclamation.
    pub fn head_heap_len(&self) -> usize {
        match &self.inner {
            Inner::Owned(o) => o.heap.len(),
            Inner::Pooled(p) => p.heap.len(),
        }
    }

    /// Key and metadata of a still-queued packet, if present.
    /// Diagnostic accessor (tests/telemetry): scans the per-flow FIFOs
    /// rather than taxing the hot path with a uid index.
    pub fn find(&self, uid: u64) -> Option<(&K, &M)> {
        match &self.inner {
            Inner::Owned(o) => o
                .flows
                .values()
                .flat_map(|f| f.queue.iter())
                .find(|e| e.pkt.uid == uid)
                .map(|e| (&e.key, &e.meta)),
            Inner::Pooled(p) => {
                for s in &p.flows {
                    if s.ext.is_none() {
                        continue;
                    }
                    let mut cur = s.head;
                    while cur != NIL {
                        let e = p.slab.val_raw(cur);
                        if e.pkt.uid == uid {
                            return Some((&e.key, &e.meta));
                        }
                        cur = p.slab.link_raw(cur);
                    }
                }
                None
            }
        }
    }

    /// Discard `flow`'s head-of-line packet, returning it. The new head
    /// (if any) is pushed into the heap; the dropped head's entry —
    /// whether still in the heap or not — becomes stale and is skipped
    /// by key mismatch like any other. Used by the head-drop overload
    /// policy: the flow's tag chain is left intact, so the dropped
    /// packet's virtual-time span stays charged to the flow.
    pub fn drop_front(&mut self, flow: FlowId) -> Option<(Packet, K, M)> {
        match &mut self.inner {
            Inner::Owned(o) => {
                let fq = o.flows.get_mut(&flow)?;
                let e = fq.queue.pop_front()?;
                if let Some(next) = fq.queue.front() {
                    o.heap.push((next.key, flow));
                }
                o.queued -= 1;
                Some((e.pkt, e.key, e.meta))
            }
            Inner::Pooled(p) => p.drop_front(flow),
        }
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
        match &mut self.inner {
            Inner::Owned(o) => {
                let OwnedFifos { flows, heap, .. } = o;
                heap.rebuild(flows.iter_mut().filter_map(|(&flow, fq)| {
                    ext(&mut fq.ext);
                    for e in fq.queue.iter_mut() {
                        entry(&mut e.key, &mut e.meta);
                    }
                    fq.queue.front().map(|front| (front.key, flow))
                }));
            }
            Inner::Pooled(p) => p.retag_all(entry, ext),
        }
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
        match &mut self.inner {
            Inner::Owned(o) => {
                let Some(fq) = o.flows.get_mut(&flow) else {
                    return false;
                };
                ext(&mut fq.ext);
                for (pos, e) in fq.queue.iter_mut().enumerate() {
                    #[cfg(debug_assertions)]
                    let before = e.key;
                    entry(pos, &e.pkt, &mut e.key, &mut e.meta);
                    #[cfg(debug_assertions)]
                    debug_assert!(
                        pos > 0 || e.key == before,
                        "retag_flow must keep the head key"
                    );
                }
                true
            }
            Inner::Pooled(p) => {
                let Some(fidx) = p.ids.get(flow) else {
                    return false;
                };
                let head = {
                    let s = &mut p.flows[fidx as usize];
                    let Some(e) = s.ext.as_mut() else {
                        return false;
                    };
                    ext(e);
                    s.head
                };
                let mut cur = head;
                let mut pos = 0usize;
                while cur != NIL {
                    let e = p.slab.val_mut_raw(cur);
                    #[cfg(debug_assertions)]
                    let before = e.key;
                    entry(pos, &e.pkt, &mut e.key, &mut e.meta);
                    #[cfg(debug_assertions)]
                    debug_assert!(
                        pos > 0 || e.key == before,
                        "retag_flow must keep the head key"
                    );
                    cur = p.slab.link_raw(cur);
                    pos += 1;
                }
                true
            }
        }
    }

    /// Remove an **idle** flow; returns false if the flow is unknown or
    /// still backlogged.
    pub fn remove_flow(&mut self, flow: FlowId) -> bool {
        match &mut self.inner {
            Inner::Owned(o) => match o.flows.get(&flow) {
                Some(fq) if fq.queue.is_empty() => {
                    o.flows.remove(&flow);
                    true
                }
                _ => false,
            },
            Inner::Pooled(p) => match p.ids.get(flow) {
                Some(i) if p.flows[i as usize].head == NIL => {
                    p.release_slot(i);
                    true
                }
                _ => false,
            },
        }
    }

    /// Drop a flow and all of its queued packets immediately, without
    /// the idle-only guard. Returns the number of packets discarded,
    /// or `None` if the flow was never registered (so callers can
    /// report a flow-change event only when something was removed).
    /// The flow's heap entry (if any) is left behind as stale and
    /// skipped by the next [`FlowFifos::pop_min`] that reaches it;
    /// `len`/`backlog` accounting stays exact, and on the pooled
    /// backend every discarded packet's slot returns to the freelist.
    pub fn force_remove_flow(&mut self, flow: FlowId) -> Option<usize> {
        match &mut self.inner {
            Inner::Owned(o) => {
                let fq = o.flows.remove(&flow)?;
                o.queued -= fq.queue.len();
                Some(fq.queue.len())
            }
            Inner::Pooled(p) => p.force_remove_flow(flow),
        }
    }
}

/// `(size, align)` of the three records the pooled per-packet path
/// reads and hints, for the layout-pinning tests.
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
                std::mem::size_of::<(K, u32, u32)>(),
                std::mem::align_of::<(K, u32, u32)>(),
            ),
        }
    }
}

impl<K: Ord + Copy, E, M: Copy> PooledFifos<K, E, M> {
    fn upsert_flow(&mut self, flow: FlowId, make: impl FnOnce() -> E) -> &mut E {
        let idx = match self.ids.get(flow) {
            Some(i) => {
                // Re-registration withdraws GC candidacy: the control
                // plane just touched this flow, so reclaiming it
                // before its next packet would turn a valid enqueue
                // into UnknownFlow.
                self.flows[i as usize].len &= !LISTED;
                i
            }
            None => {
                let i = match self.free_flows.pop() {
                    Some(i) => i,
                    None => {
                        let i = self.flows.len() as u32;
                        self.flows.push(FlowSlot {
                            id: flow,
                            gen: 0,
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
        // The slot was just (re)initialized with Some ext; the loop
        // below is the panic-free way to hand out the reference.
        match self.flows[idx as usize].ext.as_mut() {
            Some(e) => e,
            None => unreachable!("flow slot initialized above"),
        }
    }

    fn try_push_with(
        &mut self,
        pkt: Packet,
        tag: impl FnOnce(&mut E) -> Option<(K, M)>,
    ) -> Result<(K, M), SchedError> {
        let idx = self
            .ids
            .get(pkt.flow)
            .ok_or(SchedError::UnknownFlow(pkt.flow))? as usize;
        // Capacity check BEFORE tag arithmetic: pool exhaustion must
        // leave the flow's tag chain untouched (no-state-change-on-
        // error, like every other failure of this method). A backlog
        // that would carry into the `LISTED` bit counts as exhaustion.
        let s = &mut self.flows[idx];
        if !self.slab.can_alloc() || s.backlog() == !LISTED {
            return Err(SchedError::BufferFull(pkt.flow));
        }
        let Some(ext) = s.ext.as_mut() else {
            return Err(SchedError::UnknownFlow(pkt.flow));
        };
        let (key, meta) = tag(ext).ok_or(SchedError::TagOverflow)?;
        let Some(slot) = self.slab.alloc_raw(Entry { pkt, key, meta }) else {
            // can_alloc() above guarantees success; fail closed anyway.
            return Err(SchedError::BufferFull(pkt.flow));
        };
        let s = &mut self.flows[idx];
        if s.head == NIL {
            s.head = slot;
            s.tail = slot;
            self.heap.push((key, idx as u32, s.gen));
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

    fn pop_min(&mut self) -> Option<(Packet, K, M)> {
        loop {
            let PooledFifos {
                heap,
                flows,
                slab,
                queued,
                gc,
                ..
            } = self;
            let mut served = None;
            // One pass over the heap per packet: the winner's entry
            // leaves and, unless the flow drained, comes back under its
            // next head's key (`HeadHeap::pop_refill`). A stale entry
            // just leaves. This is `pop_min_batch(1, …)` written out:
            // routed through the batch loop, `sched_hot` read 2–4 %
            // slower.
            heap.pop_refill(|&(key, fidx, gen), _| {
                let s = &mut flows[fidx as usize];
                if s.gen != gen || s.head == NIL {
                    return None; // slot released/reused since the push
                }
                let head = s.head;
                if slab.val_raw(head).key != key {
                    return None; // head changed (drop_front) since the push
                }
                let e = slab.free_raw(head);
                *queued -= 1;
                served = Some((e.pkt, e.key, e.meta));
                let next_key = s.advance(slab);
                s.debug_check_second(slab);
                if next_key.is_none() {
                    note_drained(gc, s, fidx);
                }
                next_key.map(|k| (k, fidx, gen))
            })?;
            look_ahead(heap, flows, slab);
            if served.is_some() {
                return served;
            }
        }
    }

    fn pop_min_batch(&mut self, max: usize, mut each: impl FnMut(Packet, K, M)) -> usize {
        let PooledFifos {
            heap,
            flows,
            slab,
            queued,
            gc,
            ..
        } = self;
        let mut n = 0;
        while n < max {
            // One pass over the heap per winning flow: its entry leaves
            // and, unless the flow drained, comes back under the key of
            // the first packet not served (`HeadHeap::pop_refill`). A
            // stale entry just leaves.
            let popped = heap.pop_refill(|&(key, fidx, gen), top| {
                let s = &mut flows[fidx as usize];
                if s.gen != gen || s.head == NIL {
                    return None; // slot released/reused since the push
                }
                if slab.val_raw(s.head).key != key {
                    return None; // head changed (drop_front) since the push
                }
                // Run path: serve this flow's head, then keep serving it
                // while its next head beats the rest of the heap —
                // identical decisions to the owned backend (keys are
                // unique).
                loop {
                    let e = slab.free_raw(s.head);
                    let next_key = s.advance(slab);
                    s.debug_check_second(slab);
                    *queued -= 1;
                    n += 1;
                    each(e.pkt, e.key, e.meta);
                    let Some(next_key) = next_key else {
                        note_drained(gc, s, fidx);
                        return None;
                    };
                    if n >= max || top.is_some_and(|&(top, _, _)| next_key >= top) {
                        // Re-admit the flow's head and return to the
                        // heap path (or stop, leaving the invariant
                        // restored).
                        return Some((next_key, fidx, gen));
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

    fn drop_front(&mut self, flow: FlowId) -> Option<(Packet, K, M)> {
        let fidx = self.ids.get(flow)?;
        let s = &mut self.flows[fidx as usize];
        if s.head == NIL {
            return None;
        }
        let e = self.slab.free_raw(s.head);
        self.queued -= 1;
        match s.advance(&self.slab) {
            Some(key) => self.heap.push((key, fidx, s.gen)),
            None => note_drained(&mut self.gc, s, fidx),
        }
        s.debug_check_second(&self.slab);
        Some((e.pkt, e.key, e.meta))
    }

    fn retag_all(&mut self, mut entry: impl FnMut(&mut K, &mut M), mut ext_f: impl FnMut(&mut E)) {
        let (flows, slab) = (&mut self.flows, &mut self.slab);
        self.heap
            .rebuild(flows.iter_mut().enumerate().filter_map(|(fidx, s)| {
                ext_f(s.ext.as_mut()?);
                let mut cur = s.head;
                while cur != NIL {
                    let e = slab.val_mut_raw(cur);
                    entry(&mut e.key, &mut e.meta);
                    cur = slab.link_raw(cur);
                }
                (s.head != NIL).then(|| (slab.val_raw(s.head).key, fidx as u32, s.gen))
            }));
    }

    fn force_remove_flow(&mut self, flow: FlowId) -> Option<usize> {
        let fidx = self.ids.get(flow)?;
        let s = &self.flows[fidx as usize];
        let dropped = s.backlog() as usize;
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

    /// Free a flow slot: bump the generation (staling any heap entries
    /// or GC hints that reference the old occupancy), drop the
    /// extension state, unlink the id, and push the slot onto the
    /// flow freelist.
    fn release_slot(&mut self, fidx: u32) {
        let s = &mut self.flows[fidx as usize];
        s.ext = None;
        s.gen = s.gen.wrapping_add(1);
        s.head = NIL;
        s.second = NIL;
        s.tail = NIL;
        s.len = 0; // not listed either
        let id = s.id;
        self.ids.remove(id);
        self.free_flows.push(fidx);
    }

    fn gc_step(&mut self, budget: usize, mut safe: impl FnMut(&E) -> bool) -> usize {
        let mut reclaimed = 0;
        for _ in 0..budget {
            let Some((fidx, gen)) = self.gc.as_mut().and_then(|gc| gc.pop_front()) else {
                break;
            };
            let s = &self.flows[fidx as usize];
            if s.gen != gen || s.len & LISTED == 0 {
                continue; // slot released/reused or candidacy withdrawn
            }
            if s.head != NIL {
                // Re-backlogged since listed: drop the hint (a future
                // drain re-lists it).
                self.flows[fidx as usize].len &= !LISTED;
                continue;
            }
            let is_safe = s.ext.as_ref().is_some_and(&mut safe);
            if !is_safe {
                // Tags still ahead of virtual time: re-queue behind
                // the other candidates and try again later.
                if let Some(gc) = self.gc.as_mut() {
                    gc.push_back((fidx, gen));
                }
                continue;
            }
            self.release_slot(fidx);
            self.reclaimed += 1;
            reclaimed += 1;
        }
        reclaimed
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            pkts_in_use: self.slab.in_use_raw(),
            pkt_slots: self.slab.slots_raw(),
            pkts_hwm: self.slab.high_water(),
            flows_live: self.flows.len() - self.free_flows.len(),
            flow_slots: self.flows.len(),
            flows_reclaimed: self.reclaimed,
        }
    }
}

/// Flow slot `fidx` (`s`) just drained to empty: list it as a GC
/// candidate (once), when GC is on.
fn note_drained<E>(gc: &mut Option<VecDeque<(u32, u32)>>, s: &mut FlowSlot<E>, fidx: u32) {
    let Some(gc) = gc.as_mut() else {
        return;
    };
    if s.ext.is_some() && s.len & LISTED == 0 {
        s.len |= LISTED;
        gc.push_back((fidx, s.gen));
    }
}

/// The end of every pooled dequeue: ask for what the next one will read
/// — the new root's head record and the record behind it — and for the
/// flow slots of the root's children, one of which is what this
/// function reads a dequeue from now (the only other candidate, the
/// flow just served, is warm). Hints only: a stale or changing entry
/// costs nothing, and nothing is loaded that was not asked for a
/// dequeue ago.
#[inline(always)]
fn look_ahead<K: Ord + Copy, E, M: Copy>(
    heap: &HeadHeap<(K, u32, u32)>,
    flows: &[FlowSlot<E>],
    slab: &SlabPool<Entry<K, M>>,
) {
    let Some(&(_, fidx, _)) = heap.peek() else {
        return;
    };
    if let Some(s) = flows.get(fidx as usize) {
        slab.prefetch_raw(s.head);
        slab.prefetch_raw(s.second);
    }
    for &(_, child, _) in heap.root_children() {
        if let Some(s) = flows.get(child as usize) {
            prefetch_value(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{Bytes, SimTime};

    fn pkt(flow: u32, uid: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            seq: uid,
            len: Bytes::new(100),
            arrival: SimTime::ZERO,
            uid,
        }
    }

    fn both() -> [FlowFifos<u64, u64, ()>; 2] {
        [
            FlowFifos::new_with("t", FifoBackend::Pooled),
            FlowFifos::new_with("t", FifoBackend::Owned),
        ]
    }

    #[test]
    fn both_backends_pop_in_key_order() {
        for mut q in both() {
            for f in 0..4u32 {
                q.upsert_flow(FlowId(f), || 0u64);
            }
            // Keys interleave flows; uid embedded in key keeps them
            // unique.
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
        let st = q.pool_stats().unwrap();
        assert_eq!(st.pkts_in_use, q.len());
        while q.pop_min().is_some() {}
        let st = q.pool_stats().unwrap();
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
        assert_eq!(q.pool_stats().unwrap().pkts_in_use, 0);
    }

    #[test]
    fn gc_reclaims_only_safe_empty_flows_and_respects_revival() {
        let mut q: FlowFifos<u64, u64, ()> = FlowFifos::new("t");
        q.enable_gc();
        q.upsert_flow(FlowId(1), || 7);
        q.upsert_flow(FlowId(2), || 7);
        q.push_with(pkt(1, 0), |_| (0, ()));
        q.push_with(pkt(2, 1), |_| (1, ()));
        q.pop_min();
        q.pop_min();
        // Both flows drained; ext == 7. An unsafe predicate keeps them.
        assert_eq!(q.gc_step(10, |_| false), 0);
        assert_eq!(q.live_flows(), 2);
        // Candidates were re-queued; a safe predicate reclaims both.
        assert_eq!(q.gc_step(10, |&e| e == 7), 2);
        assert_eq!(q.live_flows(), 0);
        assert_eq!(q.pool_stats().unwrap().flows_reclaimed, 2);
        // A reclaimed flow is unknown until re-registered.
        assert!(matches!(
            q.try_push_with(pkt(1, 2), |_| Some((2, ()))),
            Err(SchedError::UnknownFlow(_))
        ));
        // upsert_flow between listing and gc_step withdraws candidacy.
        q.upsert_flow(FlowId(3), || 7);
        q.push_with(pkt(3, 3), |_| (3, ()));
        q.pop_min();
        q.upsert_flow(FlowId(3), || 7); // control plane touch
        assert_eq!(q.gc_step(10, |_| true), 0, "withdrawn candidate");
        assert_eq!(q.live_flows(), 1);
    }

    #[test]
    fn flow_slot_reuse_after_gc_keeps_table_dense() {
        let mut q: FlowFifos<u64, (), ()> = FlowFifos::new("t");
        q.enable_gc();
        for round in 0..50u32 {
            let f = FlowId(round);
            q.upsert_flow(f, || ());
            q.push_with(pkt(round, round as u64), |_| (round as u64, ()));
            q.pop_min();
            q.gc_step(4, |_| true);
        }
        let st = q.pool_stats().unwrap();
        assert!(st.flow_slots <= 3, "table grew to {}", st.flow_slots);
        assert!(st.flows_reclaimed >= 47);
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
        for backend in [FifoBackend::Pooled, FifoBackend::Owned] {
            let fill = |shift: u64| {
                let mut q: FlowFifos<u64, (), ()> = FlowFifos::new_with("t", backend);
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
                assert_eq!((pa.uid, ka), (pb.uid, kb), "{backend:?}");
                assert!(ka > last, "keys leave in increasing order");
                last = ka;
            }
            assert!(pushed.is_empty() && rebuilt.is_empty());
        }
    }
}
