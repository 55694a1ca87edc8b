//! The one tag-scheduler core: SFQ (Section 2 of the paper) and SCFQ as
//! two virtual-time rules over one machine.
//!
//! Each arriving packet `p_f^j` is stamped with
//!
//! ```text
//! S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }          (Eq. 4)
//! F(p_f^j) = S(p_f^j) + l_f^j / r_f^j                  (Eq. 5 / Eq. 36)
//! ```
//!
//! with `F(p_f^0) = 0`. The paper's own framing is that SFQ *is* SCFQ's
//! machinery with a different definition of `v(t)`; [`TagSched`] is
//! that machinery, written once, with two seams:
//!
//! - `V:`[`VtRule`] — what `v(t)` is and which tag orders service.
//!   [`StartClock`] is SFQ: serve in increasing **start**-tag order,
//!   `v(t)` = start tag of the packet in service, and at the end of a
//!   busy period `v` becomes the maximum finish tag served.
//!   [`FinishClock`] is SCFQ: serve in increasing **finish**-tag order,
//!   `v(t)` = finish tag of the packet in service, kept after service.
//!   Either way `v(t)` is O(1) to compute.
//! - `A:`[`TagArith`] — how tags are represented: [`Exact`] rationals
//!   or the [`Fixed`] u64 grid (see [`crate::arith`], [`crate::fixed`]).
//!
//! The four disciplines are aliases: [`Sfq`], [`SfqFast`], [`Scfq`],
//! [`ScfqFast`]. Everything else — per-flow FIFOs with a head-of-flow
//! heap ([`FlowFifos`]: heap cost is `O(log Q)` in *backlogged flows*,
//! not queued packets), batch tagging, virtual-time rebasing, the
//! tag-rewrite reconfiguration, lazy flow GC, counter-page telemetry,
//! observer events ([`crate::obs`]; the default [`NoopObserver`]
//! compiles away) and the fallible control plane — exists here exactly
//! once.

use crate::arith::{Exact, TagArith, TieKey};
use crate::fixed::{Fixed, FixedTag};
use crate::flowq::{FifoBackend, FlowFifos, GC_BUDGET};
use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::pool::PoolStats;
use crate::sched::{SchedError, Scheduler, TieBreak};
use core::fmt;
use sfq_telemetry::{DequeueTally, EnqueueTally, TelemetrySink};
use simtime::{Rate, Ratio, SimTime};
use std::cell::Cell;

/// The virtual-time rule of a [`TagSched`]: which of a packet's two
/// tags orders service and defines `v(t)`. See the module docs.
pub trait VtRule: fmt::Debug {
    /// Discipline name over the exact arithmetic.
    const NAME: &'static str;
    /// Discipline name over the fixed-point arithmetic.
    const FAST_NAME: &'static str;
    /// Whether a packet's departure bookkeeping (busy-period end,
    /// drain-time rebase, GC) runs inside `dequeue` — the rule has no
    /// use for the departure instant, so `on_departure` is a no-op — or
    /// waits for `on_departure`.
    const SETTLES_IN_DEQUEUE: bool;

    /// Tie-break component of the heap key, given the arithmetic's key
    /// width `X`.
    type Tie<X: TieKey>: TieKey;

    /// Split a packet's `(start, finish)` tags into `(heap key tag,
    /// per-packet metadata)`. Each rule's mapping is its own inverse,
    /// so the same call recovers `(start, finish)` from a popped
    /// `(key tag, metadata)`.
    fn key_meta<T>(start: T, finish: T) -> (T, T);

    /// A packet tagged `(start, finish)` enters service: advance `v`
    /// and the maximum finish tag served so far.
    fn serve<A: TagArith>(
        v: &mut A::Tag,
        max_finish_served: &mut A::Tag,
        start: A::Tag,
        finish: A::Tag,
    );
}

/// SFQ's rule: start-tag order, `v(t)` = start tag of the packet in
/// service (Section 2, step 2), tie-break rule applied (Section 2.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct StartClock;

impl VtRule for StartClock {
    const NAME: &'static str = "SFQ";
    const FAST_NAME: &'static str = "SFQ-FAST";
    const SETTLES_IN_DEQUEUE: bool = false;

    type Tie<X: TieKey> = X;

    #[inline]
    fn key_meta<T>(start: T, finish: T) -> (T, T) {
        (start, finish)
    }

    #[inline]
    fn serve<A: TagArith>(v: &mut A::Tag, mfs: &mut A::Tag, start: A::Tag, finish: A::Tag) {
        *v = start;
        *mfs = A::max(*mfs, finish);
    }
}

/// SCFQ's rule (Golestani '94): finish-tag order, `v(t)` = finish tag
/// of the packet in service, no tie-break rule. Finish tags leave in
/// non-decreasing order, so the last one served *is* the maximum
/// finish tag served and the busy-period-end step `v := max finish
/// served` leaves `v` where it is — arrivals after a drain see the last
/// served packet's tag.
#[derive(Clone, Copy, Debug, Default)]
pub struct FinishClock;

impl VtRule for FinishClock {
    const NAME: &'static str = "SCFQ";
    const FAST_NAME: &'static str = "SCFQ-FAST";
    const SETTLES_IN_DEQUEUE: bool = true;

    type Tie<X: TieKey> = ();

    #[inline]
    fn key_meta<T>(start: T, finish: T) -> (T, T) {
        (finish, start)
    }

    #[inline]
    fn serve<A: TagArith>(v: &mut A::Tag, mfs: &mut A::Tag, _start: A::Tag, finish: A::Tag) {
        *v = finish;
        *mfs = finish;
    }
}

/// Heap ordering key: the rule's primary tag, then the tie-break key,
/// then packet uid for full determinism.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key<T, X> {
    tag: T,
    tie: X,
    uid: u64,
}

/// What tagging a packet takes from its flow: the charging rate `r_f`,
/// the arithmetic's precomputation of it, and the tie-break key. Built
/// once per registration or reconfiguration, not per packet.
#[derive(Clone, Copy, Debug)]
struct Charge<I, X> {
    rate: Rate,
    inc: I,
    tie: X,
}

#[derive(Debug)]
struct FlowExt<A: TagArith, X> {
    charge: Charge<A::Inc, X>,
    /// `F(p_f^{j-1})`: finish tag of the flow's previous packet (zero
    /// before the first packet, per the paper).
    last_finish: A::Tag,
}

type TieOf<A, V> = <V as VtRule>::Tie<<A as TagArith>::Tie>;
type ChargeOf<A, V> = Charge<<A as TagArith>::Inc, TieOf<A, V>>;
type ExtOf<A, V> = FlowExt<A, TieOf<A, V>>;
type Fifos<A, V> =
    FlowFifos<Key<<A as TagArith>::Tag, TieOf<A, V>>, ExtOf<A, V>, <A as TagArith>::Tag>;

/// A tag-based fair-queueing scheduler: the Eq. 4/5 recurrence under
/// virtual-time rule `V`, in tag arithmetic `A`, reporting to observer
/// `O`. See the module docs; use it through the [`Sfq`], [`SfqFast`],
/// [`Scfq`] and [`ScfqFast`] aliases.
#[derive(Debug)]
pub struct TagSched<A: TagArith, V: VtRule, O: SchedObserver = NoopObserver> {
    q: Fifos<A, V>,
    arith: A,
    tie: TieBreak,
    /// The server virtual time `v(t)`: the rule's tag of the packet in
    /// service or last served, or the max finish tag served once a
    /// busy period has ended.
    v: A::Tag,
    /// Maximum finish tag assigned to any packet serviced so far.
    max_finish_served: A::Tag,
    /// Virtual-time rebasing threshold in magnitude bits, or `None`
    /// when rebasing is disabled (tags grow without bound and
    /// arithmetic reports `TagOverflow` at the edge of the tag range).
    rebase_bits: Option<u32>,
    /// Number of rebases applied so far.
    rebases: u64,
    obs: O,
    /// Counter-page sink (see [`TagSched::attach_telemetry`]); `None`
    /// costs one branch per operation.
    tele: Option<TelemetrySink>,
}

impl<A: TagArith, V: VtRule, O: SchedObserver> TagSched<A, V, O> {
    /// The discipline name: `name()`, the panic prefix, and the
    /// [`FlowFifos`] label.
    const NAME: &'static str = if A::FIXED { V::FAST_NAME } else { V::NAME };

    fn build(arith: A, tie: TieBreak, obs: O, backend: FifoBackend) -> Self {
        TagSched {
            q: FlowFifos::new_with(Self::NAME, backend),
            arith,
            tie,
            v: A::ZERO,
            max_finish_served: A::ZERO,
            rebase_bits: None,
            rebases: 0,
            obs,
            tele: None,
        }
    }

    /// Attach a plain-write counter-page sink: every enqueue, dequeue,
    /// head drop, refusal-shaped error, and force-removal from now on
    /// is counted into the sink's [`sfq_telemetry::StatPage`] with
    /// relaxed stores (no tag conversions, no observer machinery — see
    /// `docs/telemetry.md` for when to prefer this over
    /// [`SchedObserver`]).
    pub fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.tele = Some(sink);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.tele.as_ref()
    }

    /// Enable lazy flow GC (pooled backend only): a flow whose backlog
    /// drains is reclaimed — id unlinked, table slot recycled — once
    /// its `last_finish` tag falls at or below the arithmetic's safety
    /// horizon ([`TagArith::gc_horizon`]: `⌊v(t)⌋` exact, `v(t)` fixed),
    /// the point after which a revived flow starting from fresh state
    /// (Eq. 4's `max` with `F(p_f^0) = 0`) computes exactly the tags it
    /// would have computed anyway: dequeue order stays bit-identical
    /// while the flow table stays bounded by the *live* flow set under
    /// churn. A reclaimed flow must be re-registered before it can
    /// enqueue again, matching [`Scheduler::remove_flow`] semantics.
    pub fn enable_flow_gc(&mut self) {
        self.q.enable_gc();
    }

    /// Cap the pooled backend's packet-slot footprint; see
    /// [`FlowFifos::set_pool_limit`]. Exhaustion surfaces as
    /// [`SchedError::BufferFull`] from the `try_enqueue` family.
    pub fn set_pool_limit(&mut self, limit: Option<usize>) {
        self.q.set_pool_limit(limit);
    }

    /// Pool accounting (`None` on the owned backend).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.q.pool_stats()
    }

    /// Currently registered flows.
    pub fn live_flows(&self) -> usize {
        self.q.live_flows()
    }

    /// Enable virtual-time rebasing: at every busy-period boundary, and
    /// eagerly (checked at enqueue) whenever `v(t)`'s magnitude exceeds
    /// `threshold_bits`, the whole-unit part of the current `v(t)` is
    /// subtracted from every live start/finish tag, every flow's
    /// `last_finish`, and the virtual-time state itself.
    ///
    /// Because the baseline is an integer and Eqs. 4/5 are built from
    /// `max`, `+`, comparisons, and the exact arithmetic's pico-grid
    /// snap — all of which commute exactly with an integer shift — the
    /// rebased scheduler's dequeue order and observer-visible
    /// normalized-service lags are bit-identical to the un-rebased
    /// one, while tag magnitudes stay bounded by the active backlog's
    /// virtual span instead of the server's lifetime.
    /// `threshold_bits = 0` forces a rebase attempt on every enqueue
    /// (useful in tests); ~96 is a practical production margin for the
    /// exact arithmetic (rebases long before the 127-bit edge), and the
    /// fixed-point arithmetic clamps whatever it is given to
    /// [`MAX_REBASE_BITS`](crate::MAX_REBASE_BITS).
    pub fn enable_rebasing(&mut self, threshold_bits: u32) {
        self.rebase_bits = Some(threshold_bits);
    }

    /// Told to expect a backlog of up to `packets`: if that fills a
    /// chunk of the packet store, allocate the first chunk now instead
    /// of at the first enqueue — for a scheduler built right before its
    /// load arrives (an engine shard), so the one large allocation sits
    /// with the rest of the set-up. Costs address space only until used.
    /// A smaller bound makes the first chunk start empty and double with
    /// use (see [`SlabPool::preallocate`](crate::SlabPool::preallocate)).
    pub fn preallocate(&mut self, packets: usize) {
        self.q.preallocate(packets);
    }

    /// Number of rebases applied so far (0 unless
    /// [`TagSched::enable_rebasing`] was called).
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the scheduler, returning the observer (e.g. to read a
    /// trace back out after a run).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The server virtual time `v(t)` right now, as an exact rational.
    pub fn virtual_time(&self) -> Ratio {
        self.arith.to_ratio(self.v)
    }

    /// Start/finish tags assigned to a still-queued packet, if present,
    /// as exact rationals. Diagnostic accessor (tests/telemetry): scans
    /// the per-flow FIFOs rather than taxing the enqueue/dequeue hot
    /// path with a uid index.
    pub fn tags_of(&self, uid: u64) -> Option<(Ratio, Ratio)> {
        self.q.find(uid).map(|(key, &meta)| {
            let (start, finish) = V::key_meta(key.tag, meta);
            (self.arith.to_ratio(start), self.arith.to_ratio(finish))
        })
    }

    /// The finish tag `F(p_f^{j-1})` state of a flow (0 before its first
    /// packet), as an exact rational.
    pub fn flow_last_finish(&self, flow: FlowId) -> Option<Ratio> {
        self.q.ext(flow).map(|e| self.arith.to_ratio(e.last_finish))
    }

    /// Number of entries currently in the head-of-flow heap. Diagnostic:
    /// at most one live entry per backlogged flow (plus stale entries
    /// left by [`Scheduler::force_remove_flow`], reclaimed lazily).
    pub fn head_heap_len(&self) -> usize {
        self.q.head_heap_len()
    }

    /// Rebase immediately: subtract the whole-unit part of the current
    /// `v(t)` from every live start/finish tag, every flow's
    /// `last_finish`, and the virtual-time state. Under a
    /// [`TagArith::CHECKED_REBASE`] arithmetic this is all-or-nothing —
    /// a dry pass verifies every subtraction fits (it always does for
    /// an integer baseline below `v(t)` at sane magnitudes) before any
    /// state is mutated. Returns the baseline subtracted, zero when the
    /// whole-unit part is not yet positive or the shift would not fit.
    pub fn rebase(&mut self) -> A::Tag {
        let Some(base) = self.arith.rebase_base(self.v) else {
            return A::ZERO;
        };
        if A::CHECKED_REBASE {
            let ok = Cell::new(true);
            self.for_each_tag(|tag| {
                if A::rebased(*tag, base).is_none() {
                    ok.set(false);
                }
            });
            if !ok.get() {
                return A::ZERO;
            }
        }
        self.for_each_tag(|tag| *tag = A::rebased(*tag, base).unwrap_or(*tag));
        self.rebases += 1;
        base
    }

    /// Visit every tag a rebase must shift. Rebuilds the head heap (see
    /// [`FlowFifos::retag_all`]), so `f` must preserve relative order.
    fn for_each_tag(&mut self, f: impl Fn(&mut A::Tag)) {
        f(&mut self.v);
        f(&mut self.max_finish_served);
        self.q.retag_all(
            |key, meta| {
                f(&mut key.tag);
                f(meta);
            },
            |ext| f(&mut ext.last_finish),
        );
    }

    /// `v(t)` as an arriving packet reads it, after the eager-rebase
    /// check. `v(t)` changes only at dequeues, so across a
    /// pure-enqueue run both are constants: one call serves a whole
    /// batch, bit-identically to one call per packet (if the check
    /// fires, the per-packet loop's first check would have fired
    /// identically and its later ones would see the shrunk `v` and
    /// stay quiet).
    #[inline]
    fn arrival_v(&mut self) -> A::Tag {
        if let Some(bits) = self.rebase_bits {
            if A::outgrown(self.v, bits) {
                self.rebase();
            }
        }
        A::snap(self.v)
    }

    /// Validate `rate` for `flow` and build its [`Charge`].
    fn charge(&self, flow: FlowId, rate: Rate) -> Result<ChargeOf<A, V>, SchedError> {
        Ok(Charge {
            rate,
            inc: self.arith.inc(flow, rate)?,
            tie: TieKey::of(self.tie, rate),
        })
    }

    /// One enqueue call: `pkts` all read `v(t)` once
    /// ([`TagSched::arrival_v`]) and are stamped and queued in order,
    /// stopping at the first one refused. The counter page takes the
    /// whole call in one write section, opened after the last push —
    /// never held across heap work — and a call refused half-way still
    /// books the packets it queued.
    ///
    /// Always inlined: the single-packet callers pass a one-element
    /// slice, and only inlined does the loop fold away and, with no
    /// page attached, the tally with it (out of line the bare
    /// scheduler's `enqueue` read ≈ 4 % slower on `sched_hot`).
    #[inline(always)]
    fn push_run(
        &mut self,
        now: SimTime,
        pkts: &[Packet],
        explicit: Option<ChargeOf<A, V>>,
    ) -> Result<(), SchedError> {
        let v_now = self.arrival_v();
        let mut tally = self.tele.as_ref().map(|_| EnqueueTally::new());
        let res = pkts
            .iter()
            .try_for_each(|&pkt| self.push_tagged(now, pkt, v_now, explicit, tally.as_mut()));
        if let (Some(sink), Some(tally)) = (&self.tele, &tally) {
            sink.book_enqueues(tally);
        }
        res
    }

    /// Eqs. 4/5 for one arrival that read virtual time `v_now`: stamp
    /// `pkt` — charged as its flow is registered, or at `explicit` —
    /// and queue it. State is untouched on every error.
    #[inline]
    fn push_tagged(
        &mut self,
        now: SimTime,
        pkt: Packet,
        v_now: A::Tag,
        explicit: Option<ChargeOf<A, V>>,
        tally: Option<&mut EnqueueTally>,
    ) -> Result<(), SchedError> {
        let (key, meta) = self.q.try_push_with(pkt, |ext| {
            let c = explicit.unwrap_or(ext.charge);
            let start = A::max(v_now, ext.last_finish);
            let finish = A::advance(start, c.rate, c.inc, pkt.len)?;
            ext.last_finish = finish;
            let (tag, meta) = V::key_meta(start, finish);
            let key = Key {
                tag,
                tie: c.tie,
                uid: pkt.uid,
            };
            Some((key, meta))
        })?;
        if let Some(tally) = tally {
            tally.add(pkt.len.as_u64(), self.q.len());
        }
        if self.obs.active() {
            let ev = event(&self.arith, now, &pkt, V::key_meta(key.tag, meta), v_now);
            self.obs.on_enqueue(&ev);
        }
        Ok(())
    }

    /// The packet handed to the server has departed: close the busy
    /// period if it emptied the queue (step 2 of the algorithm
    /// definition — `v` becomes the max finish tag served — and the
    /// cheapest rebase point: no queued packets, only per-flow
    /// `last_finish` state), then do a slice of GC work (a no-op until
    /// [`TagSched::enable_flow_gc`]).
    fn settle(&mut self) {
        if self.q.is_empty() {
            self.v = self.max_finish_served;
            if self.rebase_bits.is_some() {
                self.rebase();
            }
        }
        let v = self.v;
        self.q
            .gc_step(GC_BUDGET, |ext| ext.last_finish <= A::gc_horizon(v));
    }

    /// Walk `flow`'s queue re-chaining every packet after the head at
    /// `c`: `S_j := F_{j-1}`, `F_j := S_j + l_j / r`, starting from the
    /// head's (untouched) finish tag. Stores the new tags only when
    /// `write`; `ext` runs on the flow's state first. Returns the tail
    /// finish tag, or `None` if a step left the tag range.
    fn rechain(
        &mut self,
        flow: FlowId,
        c: ChargeOf<A, V>,
        write: bool,
        ext: impl FnOnce(&mut ExtOf<A, V>),
    ) -> Option<A::Tag> {
        let ok = Cell::new(true);
        let prev = Cell::new(A::ZERO);
        self.q.retag_flow(
            flow,
            |pos, pkt, key, meta| {
                if pos == 0 {
                    prev.set(V::key_meta(key.tag, *meta).1);
                    return;
                }
                let start = prev.get();
                let Some(finish) = A::advance(start, c.rate, c.inc, pkt.len) else {
                    ok.set(false);
                    return;
                };
                if write {
                    (key.tag, *meta) = V::key_meta(start, finish);
                    key.tie = c.tie;
                }
                prev.set(finish);
            },
            ext,
        );
        ok.get().then(|| prev.get())
    }
}

/// Build the observer event for `pkt` tagged `(start, finish)`.
fn event<A: TagArith>(
    arith: &A,
    time: SimTime,
    pkt: &Packet,
    (start, finish): (A::Tag, A::Tag),
    v: A::Tag,
) -> SchedEvent {
    SchedEvent {
        time,
        flow: pkt.flow,
        uid: pkt.uid,
        len: pkt.len,
        start_tag: arith.to_ratio(start),
        finish_tag: arith.to_ratio(finish),
        v: arith.to_ratio(v),
    }
}

impl<A: TagArith, V: VtRule, O: SchedObserver> Scheduler for TagSched<A, V, O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.try_add_flow(flow, weight)
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        let charge = self.charge(flow, weight)?;
        self.q
            .upsert_flow(flow, || FlowExt {
                charge,
                last_finish: A::ZERO,
            })
            .charge = charge;
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
        Ok(())
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.push_run(now, core::slice::from_ref(&pkt), None)
    }

    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) {
        self.try_enqueue_batch(now, pkts)
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        self.push_run(now, pkts, None)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let (pkt, key, meta) = self.q.pop_min()?;
        let (start, finish) = V::key_meta(key.tag, meta);
        V::serve::<A>(&mut self.v, &mut self.max_finish_served, start, finish);
        if let Some(t) = &self.tele {
            t.record_dequeue(pkt.flow.0, pkt.len.as_u64(), pkt.arrival, now);
        }
        if self.obs.active() {
            let ev = event(&self.arith, now, &pkt, (start, finish), self.v);
            self.obs.on_dequeue(&ev);
        }
        if V::SETTLES_IN_DEQUEUE {
            self.settle();
        }
        Some(pkt)
    }

    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        let TagSched {
            q,
            arith,
            v,
            max_finish_served,
            obs,
            tele,
            ..
        } = self;
        // The page takes the batch in one write section, opened once
        // the heap work is done.
        let mut tally = tele.as_ref().map(|_| DequeueTally::new(now));
        let n = q.pop_min_batch(max, |pkt, key, meta| {
            let (start, finish) = V::key_meta(key.tag, meta);
            V::serve::<A>(v, max_finish_served, start, finish);
            if let Some(tally) = &mut tally {
                tally.add(pkt.flow.0, pkt.len.as_u64(), pkt.arrival);
            }
            if obs.active() {
                obs.on_dequeue(&event(arith, now, &pkt, (start, finish), *v));
            }
            out.push(pkt);
        });
        if let (Some(sink), Some(tally)) = (tele, &tally) {
            sink.book_dequeues(tally);
        }
        // Each packet's departure was reported before the next was
        // selected, so only the final state matters: settling once is
        // what the last per-packet departure would have done (a rebase
        // or busy-period end can only follow the packet that emptied
        // the queue, and events carry pre-rebase tags either way).
        if n > 0 {
            self.settle();
        }
        n
    }

    fn on_departure(&mut self, _now: SimTime) {
        if !V::SETTLES_IN_DEQUEUE {
            self.settle();
        }
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.q.backlog(flow)
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        let removed = self.q.remove_flow(flow);
        if removed {
            self.obs.on_flow_change(flow, &FlowChange::Removed);
        }
        removed
    }

    /// The flow's heap entry (if any) is left behind as stale and
    /// skipped by the next `dequeue` that reaches it; `len`/`backlog`
    /// accounting stays exact.
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some(dropped) = self.q.force_remove_flow(flow) else {
            return 0;
        };
        if let Some(t) = &self.tele {
            t.record_force_removed(dropped);
        }
        self.obs
            .on_flow_change(flow, &FlowChange::ForceRemoved { dropped });
        dropped
    }

    /// The tag-rewrite rule of [`Scheduler::try_set_weight`], in
    /// `O(flow backlog)` with zero heap traffic (the head's heap entry
    /// stays valid). Tie keys are rebuilt for the new weight, the
    /// flow's `last_finish` becomes the rewritten tail finish, and an
    /// idle flow only has its registered weight updated.
    ///
    /// Because a backlogged flow's queued chain already satisfies
    /// `S_j = F_{j-1}` (Eq. 4's `max` resolves to the flow term while
    /// backlogged), re-applying the rule at the *same* weight
    /// reproduces every tag bit for bit — under [`FinishClock`] only
    /// while `v`, a *finish*-tag clock, has not overtaken the chain.
    ///
    /// All-or-nothing: a dry pass verifies every rewritten finish tag
    /// fits in range before any state is mutated.
    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        let charge = self.charge(flow, weight)?;
        if self.q.ext(flow).is_none() {
            return Err(SchedError::UnknownFlow(flow));
        }
        let tail_finish = if self.q.backlog(flow) > 0 {
            let dry = self.rechain(flow, charge, false, |_| {});
            Some(dry.ok_or(SchedError::TagOverflow)?)
        } else {
            None
        };
        self.rechain(flow, charge, true, |ext| {
            ext.charge = charge;
            if let Some(finish) = tail_finish {
                ext.last_finish = finish;
            }
        });
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
        Ok(())
    }

    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let (pkt, key, meta) = self.q.drop_front(flow)?;
        if let Some(t) = &self.tele {
            t.record_head_drop();
        }
        if self.obs.active() {
            let tags = V::key_meta(key.tag, meta);
            let ev = event(&self.arith, pkt.arrival, &pkt, tags, self.v);
            self.obs.on_drop(&ev);
        }
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        Self::NAME
    }
}

impl<A: TagArith + Default, V: VtRule, O: SchedObserver + Default> Default for TagSched<A, V, O> {
    /// FIFO tie-breaking, the arithmetic's default grid, the pooled
    /// backend.
    fn default() -> Self {
        Self::build(
            A::default(),
            TieBreak::Fifo,
            O::default(),
            FifoBackend::default(),
        )
    }
}

impl<V: VtRule, O: SchedObserver> TagSched<Fixed, V, O> {
    /// The tag grid's fractional bit count.
    pub fn shift(&self) -> u32 {
        self.arith.shift()
    }

    /// The server virtual time `v(t)` right now, in fixed point.
    pub fn virtual_time_fixed(&self) -> FixedTag {
        self.v
    }
}

/// The Start-time Fair Queuing scheduler, exact arithmetic.
///
/// Supports the generalized per-packet variable-rate form (Eq. 36) via
/// [`Sfq::enqueue_with_rate`]; plain [`Scheduler::enqueue`] charges each
/// packet at its flow's registered weight.
///
/// ```
/// use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq};
/// use simtime::{Bytes, Rate, SimTime};
///
/// let mut sched = Sfq::new();
/// sched.add_flow(FlowId(1), Rate::kbps(64));
/// sched.add_flow(FlowId(2), Rate::kbps(64));
///
/// let mut pf = PacketFactory::new();
/// let t0 = SimTime::ZERO;
/// // Flow 1 bursts two packets; flow 2 sends one. SFQ interleaves by
/// // start tags: flow 2's first packet (tag 0) beats flow 1's second
/// // (tag l/r).
/// sched.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// sched.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// sched.enqueue(t0, pf.make(FlowId(2), Bytes::new(200), t0));
///
/// let order: Vec<u32> = std::iter::from_fn(|| {
///     let p = sched.dequeue(t0)?;
///     sched.on_departure(t0);
///     Some(p.flow.0)
/// })
/// .collect();
/// assert_eq!(order, vec![1, 2, 1]);
/// ```
pub type Sfq<O = NoopObserver> = TagSched<Exact, StartClock, O>;

/// Fixed-point Start-time Fair Queuing: the algorithm and observable
/// contract of [`Sfq`] over u64 tags, so the per-packet tag update is
/// one widening multiply, one shift, one max and one add instead of
/// rational gcd arithmetic.
///
/// - On *quantization-safe* workloads (every `l/r` exactly representable
///   on the `2^shift` grid — e.g. power-of-two rates `2^k`, `k ≤ shift`)
///   the dequeue order, every assigned tag, and every observer event are
///   **bit-identical** to `Sfq` — enforced by the `fast` conformance
///   preset and `tests/fixed_point_identity.rs`.
/// - On arbitrary workloads tags are truncated by `< 1.5·2^-shift` per
///   packet ([`crate::fixed`]), so a flow's tag error after `N`
///   dequeues is `< 1.5·N·2^-shift` virtual-time units and the observed
///   fairness watermark inflates by at most that bound — see
///   docs/fixed_point.md for the derivation and when to prefer the
///   exact scheduler.
///
/// Tags are compared as plain `u64`s; [`TagSched::enable_rebasing`]
/// keeps raw values far below wraparound.
pub type SfqFast<O = NoopObserver> = TagSched<Fixed, StartClock, O>;

/// Self-Clocked Fair Queuing (Golestani '94; analyzed in \[8\] of the
/// paper), exact arithmetic.
///
/// SCFQ approximates the GPS virtual time with the *finish* tag of the
/// packet currently in service. Its fairness measure equals SFQ's
/// (`l_f^max/r_f + l_m^max/r_m`), but its maximum delay exceeds SFQ's by
/// `l_f^j/r_f^j − l_f^j/C` (Eqs. 56–57) — the gap the paper quantifies
/// as 24.4 ms for a 64 Kb/s flow with 200-byte packets on a 100 Mb/s
/// link.
pub type Scfq<O = NoopObserver> = TagSched<Exact, FinishClock, O>;

/// Fixed-point Self-Clocked Fair Queuing: [`Scfq`] over u64 tags, proven
/// bit-identical to it on quantization-safe workloads just as
/// [`SfqFast`] is to [`Sfq`].
pub type ScfqFast<O = NoopObserver> = TagSched<Fixed, FinishClock, O>;

impl Sfq {
    /// New SFQ scheduler with FIFO tie-breaking.
    pub fn new() -> Self {
        Self::default()
    }

    /// New SFQ scheduler with an explicit tie-break rule (Section 2.3).
    pub fn with_tiebreak(tie: TieBreak) -> Self {
        Self::with_observer(tie, NoopObserver)
    }
}

impl<O: SchedObserver> Sfq<O> {
    /// New SFQ scheduler reporting events to `obs` (see
    /// [`crate::obs::SchedObserver`]).
    pub fn with_observer(tie: TieBreak, obs: O) -> Self {
        Self::with_parts(tie, obs, FifoBackend::default())
    }

    /// New SFQ scheduler with every knob explicit: tie-break rule,
    /// observer, and [`FifoBackend`]. The owned backend exists as the
    /// differential oracle (`tests/pool_identity.rs`); production
    /// callers take the pooled default.
    pub fn with_parts(tie: TieBreak, obs: O, backend: FifoBackend) -> Self {
        Self::build(Exact, tie, obs, backend)
    }

    /// Enqueue charging the packet at an explicit rate `r_f^j`
    /// (generalized SFQ, Eq. 36). The weight registered via `add_flow`
    /// is ignored for this packet's finish tag and tie-break key.
    pub fn enqueue_with_rate(&mut self, now: SimTime, pkt: Packet, rate: Rate) {
        self.try_enqueue_with_rate(now, pkt, rate)
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    /// Fallible [`Sfq::enqueue_with_rate`]: [`SchedError::UnknownFlow`]
    /// for an unregistered flow, [`SchedError::ZeroWeight`] for a zero
    /// charging rate, and [`SchedError::TagOverflow`] when the Eq. 5
    /// finish tag would leave `i128` range — the scheduler state is
    /// untouched on every error path.
    pub fn try_enqueue_with_rate(
        &mut self,
        now: SimTime,
        pkt: Packet,
        rate: Rate,
    ) -> Result<(), SchedError> {
        let charge = self.charge(pkt.flow, rate)?;
        self.push_run(now, core::slice::from_ref(&pkt), Some(charge))
    }
}

impl SfqFast {
    /// New fixed-point SFQ with FIFO tie-breaking at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn new() -> Self {
        Self::default()
    }

    /// New fixed-point SFQ with an explicit tie-break rule at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_tiebreak(tie: TieBreak) -> Self {
        Self::with_observer(tie, NoopObserver)
    }

    /// New fixed-point SFQ on a custom `2^shift` tag grid; see
    /// [`Fixed::new`] for the accepted shift range.
    pub fn with_shift(tie: TieBreak, shift: u32) -> Result<Self, SchedError> {
        Self::with_shift_observer(tie, shift, NoopObserver)
    }
}

impl<O: SchedObserver> SfqFast<O> {
    /// New fixed-point SFQ reporting events to `obs` at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_observer(tie: TieBreak, obs: O) -> Self {
        Self::build(Fixed::default(), tie, obs, FifoBackend::default())
    }

    /// New fixed-point SFQ with custom shift and observer; see
    /// [`Fixed::new`] for the accepted shift range.
    pub fn with_shift_observer(tie: TieBreak, shift: u32, obs: O) -> Result<Self, SchedError> {
        Self::with_parts(tie, shift, obs, FifoBackend::default())
    }

    /// New fixed-point SFQ with every knob explicit, including the
    /// [`FifoBackend`] (the owned backend is the differential oracle;
    /// production callers take the pooled default).
    pub fn with_parts(
        tie: TieBreak,
        shift: u32,
        obs: O,
        backend: FifoBackend,
    ) -> Result<Self, SchedError> {
        Ok(Self::build(Fixed::new(shift)?, tie, obs, backend))
    }
}

impl Scfq {
    /// New SCFQ scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<O: SchedObserver> Scfq<O> {
    /// New SCFQ scheduler reporting events to `obs`.
    pub fn with_observer(obs: O) -> Self {
        Self::with_parts(obs, FifoBackend::default())
    }

    /// New SCFQ scheduler with an explicit [`FifoBackend`] (owned =
    /// differential oracle).
    pub fn with_parts(obs: O, backend: FifoBackend) -> Self {
        Self::build(Exact, TieBreak::Fifo, obs, backend)
    }
}

impl ScfqFast {
    /// New fixed-point SCFQ at [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn new() -> Self {
        Self::default()
    }

    /// New fixed-point SCFQ on a custom `2^shift` tag grid; see
    /// [`Fixed::new`] for the accepted shift range.
    pub fn with_shift(shift: u32) -> Result<Self, SchedError> {
        Self::with_shift_observer(shift, NoopObserver)
    }
}

impl<O: SchedObserver> ScfqFast<O> {
    /// New fixed-point SCFQ reporting events to `obs` at
    /// [`DEFAULT_SHIFT`](crate::DEFAULT_SHIFT).
    pub fn with_observer(obs: O) -> Self {
        Self::build(
            Fixed::default(),
            TieBreak::Fifo,
            obs,
            FifoBackend::default(),
        )
    }

    /// New fixed-point SCFQ with custom shift and observer.
    pub fn with_shift_observer(shift: u32, obs: O) -> Result<Self, SchedError> {
        Self::with_parts(shift, obs, FifoBackend::default())
    }

    /// New fixed-point SCFQ with every knob explicit, including the
    /// [`FifoBackend`] (owned = differential oracle).
    pub fn with_parts(shift: u32, obs: O, backend: FifoBackend) -> Result<Self, SchedError> {
        Ok(Self::build(
            Fixed::new(shift)?,
            TieBreak::Fifo,
            obs,
            backend,
        ))
    }
}

/// The pooled hot-path record shapes of [`SfqFast`], the scheduler the
/// scale workloads run.
#[cfg(test)]
pub(crate) fn sfq_fast_layout() -> crate::flowq::PooledLayout {
    Fifos::<Fixed, StartClock>::pooled_layout()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowq::PooledLayout;

    /// The dequeue look-ahead is written against these numbers
    /// (docs/pooling.md): a flow slot is one line's worth, a slab slot
    /// at most three lines, two heap entries one line's worth. A
    /// toolchain that moves them (the alignment of `i128` already did
    /// once) should fail here, not cost a line silently.
    #[test]
    fn sfq_fast_hot_records_have_the_layout_the_look_ahead_is_written_against() {
        assert_eq!(
            sfq_fast_layout(),
            PooledLayout {
                flow_slot: (64, 8),
                slab_slot: (112, 16),
                heap_entry: (32, 8),
            }
        );
    }
}
