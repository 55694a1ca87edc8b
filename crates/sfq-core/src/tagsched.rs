//! The one tag-scheduler core: SFQ (Section 2 of the paper), SCFQ,
//! Virtual Clock, Delay EDD, WFQ and FQS as six virtual-time rules over
//! one machine.
//!
//! Each arriving packet `p_f^j` is stamped with
//!
//! ```text
//! S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }          (Eq. 4)
//! F(p_f^j) = S(p_f^j) + l_f^j / r_f^j                  (Eq. 5 / Eq. 36)
//! ```
//!
//! with `F(p_f^0) = 0`. The paper's own framing is that SFQ *is* SCFQ's
//! machinery with a different definition of `v(t)`, and WFQ's Eqs. 1–2
//! are the same recurrence again; [`TagSched`] is that machinery,
//! written once, with two seams:
//!
//! - `V:`[`VtRule`] — what `v(t)` is and which tag orders service.
//!   [`StartClock`] is SFQ: serve in increasing **start**-tag order,
//!   `v(t)` = start tag of the packet in service, and at the end of a
//!   busy period `v` becomes the maximum finish tag served.
//!   [`FinishClock`] is SCFQ: serve in increasing **finish**-tag order,
//!   `v(t)` = finish tag of the packet in service, kept after service.
//!   Either way `v(t)` is O(1) to compute. The other four rules read
//!   `v(t)` off a clock outside the scheduler ([`VtRule::Clock`]). The
//!   two *wall-clock* rules take the caller's `now`: under it Eq. 4/5
//!   is Virtual Clock's stamp ([`WallClock`]) and Eq. 37's expected
//!   arrival time, which Delay EDD offsets by the flow's `d_f`
//!   ([`Deadline`]). The two *GPS* rules take Eq. 3's fluid clock
//!   ([`GpsClock`]) advanced to the arrival, and serve by finish tag
//!   (WFQ, [`GpsFinish`]) or by start tag (FQS, [`GpsStart`]).
//! - `A:`[`TagArith`] — how tags are represented: [`Exact`] rationals
//!   or the [`Fixed`] u64 grid (see [`crate::arith`], [`crate::fixed`]).
//!
//! The eight disciplines are aliases: [`Sfq`], [`SfqFast`], [`Scfq`],
//! [`ScfqFast`], and, over the exact arithmetic only, [`VirtualClock`],
//! [`DelayEdd`], [`Wfq`] and [`Fqs`]. Everything else — per-flow FIFOs
//! with a head-of-flow heap ([`FlowFifos`]: heap cost is `O(log Q)` in
//! *backlogged flows*, not queued packets), batch tagging, virtual-time
//! rebasing, the tag-rewrite reconfiguration, counter-page telemetry,
//! observer events ([`crate::obs`]; the default [`NoopObserver`]
//! compiles away) and the fallible control plane — exists here exactly
//! once.

use crate::arith::{Exact, TagArith, TieKey};
use crate::fixed::Fixed;
use crate::flowq::FlowFifos;
use crate::gps::GpsClock;
use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::pool::PoolStats;
use crate::sched::{SchedError, Scheduler, TieBreak};
use core::fmt;
use sfq_telemetry::{DequeueTally, EnqueueTally, TelemetrySink};
use simtime::{Rate, Ratio, SimDuration, SimTime};
use std::cell::Cell;

/// Where a [`VtRule`]'s `v(t)` comes from: `()` for a rule that keeps
/// its own (SFQ, SCFQ), [`WallTime`] for the wall-clock rules,
/// [`GpsClock`] for the GPS rules.
///
/// An **external** clock ([`VtClock::EXTERNAL`]) is read once per
/// arriving packet, never once per batch: the fluid clock read twice at
/// one instant moves when a fluid exit lies under half a picosecond
/// ahead of `v`. Under it the scheduler keeps no virtual time of its
/// own: `serve` leaves `v` at zero and a rebase finds no baseline. It
/// refuses [`Scheduler::try_set_weight`] with
/// [`SchedError::Unsupported`]: the tag-rewrite rule assumes a
/// backlogged flow's chain has `S_j = F_{j-1}`, and under an external
/// clock a packet arriving after its predecessor's finish starts at
/// `v(A)` instead.
pub trait VtClock: fmt::Debug {
    /// Whether `v(t)` is read off this clock (see the trait docs).
    const EXTERNAL: bool;

    /// `v(A)` for a packet arriving at `now`, read only when
    /// [`VtClock::EXTERNAL`]: by default `now` itself.
    #[inline]
    fn arrival(&mut self, now: SimTime) -> Ratio {
        now.as_ratio()
    }

    /// A packet of `flow`, charged at `rate`, was queued and moved the
    /// flow's last finish tag from `prev` to `finish`. A no-op but for
    /// the fluid clock, whose flow backlog it extends.
    #[inline]
    fn extend(&mut self, _flow: FlowId, _rate: Rate, _prev: Ratio, _finish: Ratio) {}

    /// The `v` an observer event at `time` reports, given the
    /// scheduler's own `v`.
    #[inline]
    fn event_v(&self, own: Ratio, _time: SimTime) -> Ratio {
        own
    }

    /// [`TagSched::virtual_time`], given the scheduler's own `v`.
    #[inline]
    fn virtual_time(&self, own: Ratio) -> Ratio {
        own
    }
}

/// No clock: the rule keeps `v(t)` itself, in `serve`.
impl VtClock for () {
    const EXTERNAL: bool = false;
}

/// The wall clock: `v(A)` is the arrival instant, exactly — packets
/// reach a tandem hop off any fixed grid, and only the tags written
/// from it are snapped — and every observer event reports its own
/// instant as `v`, a head drop's being the dropped packet's arrival.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallTime;

impl VtClock for WallTime {
    const EXTERNAL: bool = true;

    #[inline]
    fn event_v(&self, _own: Ratio, time: SimTime) -> Ratio {
        time.as_ratio()
    }
}

/// The virtual-time rule of a [`TagSched`]: which of a packet's two
/// tags orders service and defines `v(t)`, and which clock `v(t)` is
/// read off. See the module docs.
pub trait VtRule: fmt::Debug {
    /// Discipline name over the exact arithmetic.
    const NAME: &'static str;
    /// Discipline name over the fixed-point arithmetic.
    const FAST_NAME: &'static str;
    /// Whether a packet's departure bookkeeping (busy-period end,
    /// drain-time rebase) runs inside `dequeue` — the rule has no
    /// use for the departure instant, so `on_departure` is a no-op — or
    /// waits for `on_departure`.
    const SETTLES_IN_DEQUEUE: bool;

    /// Where `v(t)` comes from (see [`VtClock`]).
    type Clock: VtClock;

    /// Tie-break component of the heap key, given the arithmetic's key
    /// width `X`.
    type Tie<X: TieKey>: TieKey;

    /// Per-flow rule state in tags `T`, set at every registration (to
    /// the default by [`Scheduler::add_flow`]): Delay EDD's deadline
    /// offset `d_f`; zero-sized for every other rule.
    type FlowState<T: Copy + Default + fmt::Debug>: Copy + Default + fmt::Debug;

    /// Split a packet's `(start, finish)` tags into `(heap key tag,
    /// per-packet metadata)` for a flow in rule state `flow`, or `None`
    /// when the key leaves the tag range: by default the finish tag
    /// orders service.
    #[inline]
    fn stamp<A: TagArith>(
        start: A::Tag,
        finish: A::Tag,
        _flow: Self::FlowState<A::Tag>,
    ) -> Option<(A::Tag, A::Tag)> {
        Some((finish, start))
    }

    /// The `(start, finish)` pair a queued packet's `(key tag,
    /// metadata)` reports to observers and [`TagSched::tags_of`]: by
    /// default the key is reported as the finish tag — the packet's own
    /// finish tag, except under Delay EDD, whose key is the deadline.
    #[inline]
    fn tags<T>(key: T, meta: T) -> (T, T) {
        (meta, key)
    }

    /// A packet reporting `(start, finish)` enters service: advance `v`
    /// and the maximum finish tag served so far. By default neither
    /// moves: a rule on an external clock keeps no `v`.
    #[inline]
    fn serve<A: TagArith>(
        _v: &mut A::Tag,
        _max_finish_served: &mut A::Tag,
        _start: A::Tag,
        _finish: A::Tag,
    ) {
    }
}

/// SFQ's rule: start-tag order, `v(t)` = start tag of the packet in
/// service (Section 2, step 2), tie-break rule applied (Section 2.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct StartClock;

impl VtRule for StartClock {
    const NAME: &'static str = "SFQ";
    const FAST_NAME: &'static str = "SFQ-FAST";
    const SETTLES_IN_DEQUEUE: bool = false;

    type Clock = ();
    type Tie<X: TieKey> = X;
    type FlowState<T: Copy + Default + fmt::Debug> = ();

    #[inline]
    fn stamp<A: TagArith>(start: A::Tag, finish: A::Tag, (): ()) -> Option<(A::Tag, A::Tag)> {
        Some((start, finish))
    }

    #[inline]
    fn tags<T>(key: T, meta: T) -> (T, T) {
        (key, meta)
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

    type Clock = ();
    type Tie<X: TieKey> = ();
    type FlowState<T: Copy + Default + fmt::Debug> = ();

    #[inline]
    fn serve<A: TagArith>(v: &mut A::Tag, mfs: &mut A::Tag, _start: A::Tag, finish: A::Tag) {
        *v = finish;
        *mfs = finish;
    }
}

/// Virtual Clock's rule (Zhang '90), a wall-clock rule: a packet's
/// stamp is Eq. 4/5's finish tag with `v(t)` = its arrival time,
/// `max(A, F_prev) + l/r` — when it would leave had its flow streamed at
/// exactly its reserved rate — and stamps order service, uid breaking
/// ties. Events report `max(A, F_prev)` as the start tag.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClock;

impl VtRule for WallClock {
    const NAME: &'static str = "VirtualClock";
    const FAST_NAME: &'static str = "VirtualClock-FAST";
    const SETTLES_IN_DEQUEUE: bool = true;

    type Clock = WallTime;
    type Tie<X: TieKey> = ();
    type FlowState<T: Copy + Default + fmt::Debug> = ();
}

/// Delay EDD's rule (Eq. 66), a wall-clock rule: under it Eq. 4/5 is
/// Eq. 37's recurrence, so a packet's start tag is its expected arrival
/// time `EAT = max(A, EAT_prev + l_prev/r)`, and its deadline
/// `EAT + d_f` orders service, uid breaking ties. `d_f` is the flow's
/// rule state, in seconds. Events report the deadline as the finish
/// tag.
#[derive(Clone, Copy, Debug, Default)]
pub struct Deadline;

impl VtRule for Deadline {
    const NAME: &'static str = "DelayEDD";
    const FAST_NAME: &'static str = "DelayEDD-FAST";
    const SETTLES_IN_DEQUEUE: bool = true;

    type Clock = WallTime;
    type Tie<X: TieKey> = ();
    type FlowState<T: Copy + Default + fmt::Debug> = T;

    #[inline]
    fn stamp<A: TagArith>(start: A::Tag, _: A::Tag, d: A::Tag) -> Option<(A::Tag, A::Tag)> {
        Some((A::add(start, d)?, start))
    }
}

/// WFQ's rule (PGPS, Section 1.2), a GPS rule: Eqs. 1–2 are Eq. 4/5
/// with `v(t)` = Eq. 3's fluid clock ([`GpsClock`]) advanced to the
/// arrival, and finish tags order service, uid breaking ties.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpsFinish;

impl VtRule for GpsFinish {
    const NAME: &'static str = "WFQ";
    const FAST_NAME: &'static str = "WFQ-FAST";
    const SETTLES_IN_DEQUEUE: bool = true;

    type Clock = GpsClock;
    type Tie<X: TieKey> = ();
    type FlowState<T: Copy + Default + fmt::Debug> = ();
}

/// FQS's rule (Greenberg & Madras), a GPS rule: [`GpsFinish`]'s tags,
/// served in start-tag order, uid breaking ties.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpsStart;

impl VtRule for GpsStart {
    const NAME: &'static str = "FQS";
    const FAST_NAME: &'static str = "FQS-FAST";
    const SETTLES_IN_DEQUEUE: bool = true;

    type Clock = GpsClock;
    type Tie<X: TieKey> = ();
    type FlowState<T: Copy + Default + fmt::Debug> = ();

    #[inline]
    fn stamp<A: TagArith>(start: A::Tag, finish: A::Tag, (): ()) -> Option<(A::Tag, A::Tag)> {
        Some((start, finish))
    }

    #[inline]
    fn tags<T>(key: T, meta: T) -> (T, T) {
        (key, meta)
    }
}

/// Heap ordering key: the rule's primary tag, then the tie-break key.
/// [`FlowFifos`] breaks the ties left with the packet uid, for full
/// determinism.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key<T, X> {
    tag: T,
    tie: X,
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
struct FlowExt<A: TagArith, V: VtRule> {
    charge: ChargeOf<A, V>,
    /// `F(p_f^{j-1})`: finish tag of the flow's previous packet (zero
    /// before the first packet, per the paper).
    last_finish: A::Tag,
    rule: V::FlowState<A::Tag>,
}

type TieOf<A, V> = <V as VtRule>::Tie<<A as TagArith>::Tie>;
type ChargeOf<A, V> = Charge<<A as TagArith>::Inc, TieOf<A, V>>;
type Fifos<A, V> =
    FlowFifos<Key<<A as TagArith>::Tag, TieOf<A, V>>, FlowExt<A, V>, <A as TagArith>::Tag>;

/// A tag-based fair-queueing scheduler: the Eq. 4/5 recurrence under
/// virtual-time rule `V`, in tag arithmetic `A`, reporting to observer
/// `O`. See the module docs; use it through the [`Sfq`], [`SfqFast`],
/// [`Scfq`], [`ScfqFast`], [`VirtualClock`], [`DelayEdd`], [`Wfq`] and
/// [`Fqs`] aliases.
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
    /// The rule's clock (zero-sized unless it is the fluid clock).
    clock: V::Clock,
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

    fn build(arith: A, tie: TieBreak, obs: O, clock: V::Clock) -> Self {
        TagSched {
            q: FlowFifos::new(Self::NAME),
            arith,
            tie,
            v: A::ZERO,
            max_finish_served: A::ZERO,
            clock,
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

    /// Cap the flow store's packet-slot footprint; see
    /// [`FlowFifos::set_pool_limit`]. Exhaustion surfaces as
    /// [`SchedError::BufferFull`] from the `try_enqueue` family.
    pub fn set_pool_limit(&mut self, limit: Option<usize>) {
        self.q.set_pool_limit(limit);
    }

    /// Pool accounting.
    pub fn pool_stats(&self) -> PoolStats {
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

    /// The server virtual time `v(t)` right now, as an exact rational:
    /// the fluid clock's under a GPS rule, zero under a wall-clock rule
    /// (see [`VtClock`]).
    pub fn virtual_time(&self) -> Ratio {
        self.clock.virtual_time(self.arith.to_ratio(self.v))
    }

    /// Start/finish tags assigned to a still-queued packet, if present,
    /// as exact rationals (as [`VtRule::tags`] reports them).
    /// Diagnostic accessor (tests/telemetry): scans the per-flow FIFOs
    /// rather than taxing the enqueue/dequeue hot path with a uid index.
    pub fn tags_of(&self, uid: u64) -> Option<(Ratio, Ratio)> {
        self.q.find(uid).map(|(key, meta)| {
            let (start, finish) = V::tags(key.tag, meta);
            (self.arith.to_ratio(start), self.arith.to_ratio(finish))
        })
    }

    /// `flow`'s packet `n` places behind its head (`0`: the head), in
    /// `O(n)`.
    pub(crate) fn queued(&self, flow: FlowId, n: usize) -> Option<Packet> {
        self.q.nth(flow, n)
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
    /// stay quiet) — unless a checked rebase was refused, which
    /// [`TagSched::push_run`] retries where the loop would.
    #[inline]
    fn arrival_v(&mut self) -> A::Tag {
        if self.rebase_due() {
            self.rebase();
        }
        self.v
    }

    /// The eager-rebase check: rebasing is on and `v(t)` has outgrown
    /// its threshold.
    #[inline]
    fn rebase_due(&self) -> bool {
        self.rebase_bits
            .is_some_and(|bits| A::outgrown(self.v, bits))
    }

    /// Register `flow` — or re-register it, keeping its tag chain — at
    /// `weight` in rule state `rule`.
    fn register(
        &mut self,
        flow: FlowId,
        weight: Rate,
        rule: V::FlowState<A::Tag>,
    ) -> Result<(), SchedError> {
        let charge = self.charge(flow, weight)?;
        let ext = self.q.upsert_flow(flow, || FlowExt {
            charge,
            last_finish: A::ZERO,
            rule: Default::default(),
        });
        ext.charge = charge;
        ext.rule = rule;
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
        Ok(())
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
    /// ([`TagSched::arrival_v`]), or each reads it off an external clock
    /// ([`TagSched::push_clocked`]), and are stamped and queued in order,
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
        let mut v_now = if <V::Clock as VtClock>::EXTERNAL {
            A::ZERO
        } else {
            self.arrival_v()
        };
        let mut tally = self.tele.as_ref().map(|_| EnqueueTally::new());
        let res = pkts.iter().enumerate().try_for_each(|(i, &pkt)| {
            if <V::Clock as VtClock>::EXTERNAL {
                self.push_clocked(now, pkt, explicit, tally.as_mut())
            } else {
                // A checked rebase refused at the read (a tag would not
                // fit shifted) may fit once a queued packet has moved
                // its flow's last finish tag on: the per-packet loop
                // retries before every packet, and so does a batch.
                if i > 0 && A::CHECKED_REBASE && self.rebase_due() {
                    v_now = self.arrival_v();
                }
                self.push_tagged(now, pkt, v_now, explicit, tally.as_mut())
            }
        });
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
            let (tag, meta) = V::stamp::<A>(start, finish, ext.rule)?;
            ext.last_finish = finish;
            Some((Key { tag, tie: c.tie }, meta))
        })?;
        if let Some(tally) = tally {
            tally.add(pkt.len.as_u64(), self.q.len());
        }
        if self.obs.active() {
            let v = self.clock.event_v(self.arith.to_ratio(v_now), now);
            let ev = event(&self.arith, now, &pkt, V::tags(key.tag, meta), v);
            self.obs.on_enqueue(&ev);
        }
        Ok(())
    }

    /// [`TagSched::push_tagged`] under an external clock: `pkt` reads
    /// `v(A)` off the clock for itself alone, and the clock is told
    /// the flow's new last finish tag once the packet is queued. An
    /// unregistered flow is refused before the clock is read; a packet
    /// refused later leaves the clock advanced to `now`.
    #[inline]
    fn push_clocked(
        &mut self,
        now: SimTime,
        pkt: Packet,
        explicit: Option<ChargeOf<A, V>>,
        tally: Option<&mut EnqueueTally>,
    ) -> Result<(), SchedError> {
        let flow = pkt.flow;
        let prev = self
            .flow_last_finish(flow)
            .ok_or(SchedError::UnknownFlow(flow))?;
        let v_now = self.clock.arrival(now);
        let v_now = self.arith.tag(v_now).ok_or(SchedError::TagOverflow)?;
        self.push_tagged(now, pkt, v_now, explicit, tally)?;
        if let Some(ext) = self.q.ext(flow) {
            let rate = explicit.unwrap_or(ext.charge).rate;
            self.clock
                .extend(flow, rate, prev, self.arith.to_ratio(ext.last_finish));
        }
        Ok(())
    }

    /// The packet handed to the server has departed: close the busy
    /// period if it emptied the queue (step 2 of the algorithm
    /// definition — `v` becomes the max finish tag served — and the
    /// cheapest rebase point: no queued packets, only per-flow
    /// `last_finish` state).
    fn settle(&mut self) {
        if self.q.is_empty() {
            self.v = self.max_finish_served;
            if self.rebase_bits.is_some() {
                self.rebase();
            }
        }
    }

    /// Walk `flow`'s queue re-chaining every packet after the head at
    /// `c`: `S_j := F_{j-1}`, `F_j := S_j + l_j / r`, starting from the
    /// head's (untouched) finish tag — or, when `INHERIT`, from its
    /// start tag, so that the packet behind the head takes the head's
    /// start (a constant, so that each caller gets the walk it needs and
    /// no other). Stores the new tags only when `write`; `ext` runs on
    /// the flow's state first. Returns the tail finish tag, or `None`
    /// if a step left the tag range.
    fn rechain<const INHERIT: bool>(
        &mut self,
        flow: FlowId,
        c: ChargeOf<A, V>,
        rule: V::FlowState<A::Tag>,
        write: bool,
        ext: impl FnOnce(&mut FlowExt<A, V>),
    ) -> Option<A::Tag> {
        let ok = Cell::new(true);
        let prev = Cell::new(A::ZERO);
        self.q.retag_flow(
            flow,
            |pos, pkt, key, meta| {
                if pos == 0 {
                    let (start, finish) = V::tags(key.tag, *meta);
                    prev.set(if INHERIT { start } else { finish });
                    return;
                }
                let start = prev.get();
                let stamped = A::advance(start, c.rate, c.inc, pkt.len)
                    .and_then(|finish| Some((finish, V::stamp::<A>(start, finish, rule)?)));
                let Some((finish, (tag, m))) = stamped else {
                    ok.set(false);
                    return;
                };
                if write {
                    (key.tag, *meta) = (tag, m);
                    key.tie = c.tie;
                }
                prev.set(finish);
            },
            ext,
        );
        ok.get().then(|| prev.get())
    }

    /// Appendix B's rule 5, the one rule Fair Airport's auxiliary queue
    /// adds to SFQ: remove `flow`'s head as served elsewhere (by the
    /// guaranteed queue). The head's finish tag joins the maximum
    /// finish tag served but `v` does not move, and the observer sees
    /// a dequeue event. The packet behind the head inherits the head's
    /// start tag, and the rest of the flow is re-chained behind it at
    /// the registered weight (`S_j := F_{j-1}`, as
    /// [`Scheduler::try_set_weight`] re-chains) in `O(flow backlog)`;
    /// should a re-chained tag leave the tag range, the chain stays as
    /// it was. `None` when the flow has no backlog.
    pub fn take_head_inheriting(&mut self, now: SimTime, flow: FlowId) -> Option<Packet> {
        let ext = self.q.ext(flow)?;
        let (charge, rule) = (ext.charge, ext.rule);
        if self.q.backlog(flow) > 1 {
            if let Some(tail) = self.rechain::<true>(flow, charge, rule, false, |_| {}) {
                self.rechain::<true>(flow, charge, rule, true, |e| e.last_finish = tail);
            }
        }
        // The new head's rewritten key enters the heap; the old head's
        // entry goes stale.
        let (pkt, key, meta) = self.q.drop_front(flow)?;
        let (start, finish) = V::tags(key.tag, meta);
        self.max_finish_served = A::max(self.max_finish_served, finish);
        if let Some(t) = &self.tele {
            t.record_dequeue(pkt.flow.0, pkt.len.as_u64(), pkt.arrival, now);
        }
        if self.obs.active() {
            let v = self.clock.event_v(self.arith.to_ratio(self.v), now);
            let ev = event(&self.arith, now, &pkt, (start, finish), v);
            self.obs.on_dequeue(&ev);
        }
        if V::SETTLES_IN_DEQUEUE {
            self.settle();
        }
        Some(pkt)
    }
}

/// Build the observer event for `pkt` reporting `(start, finish)` and
/// `v(t)` = `v` at `time`.
fn event<A: TagArith>(
    arith: &A,
    time: SimTime,
    pkt: &Packet,
    (start, finish): (A::Tag, A::Tag),
    v: Ratio,
) -> SchedEvent {
    SchedEvent {
        time,
        flow: pkt.flow,
        uid: pkt.uid,
        len: pkt.len,
        start_tag: arith.to_ratio(start),
        finish_tag: arith.to_ratio(finish),
        v,
    }
}

impl<A: TagArith, V: VtRule, O: SchedObserver> Scheduler for TagSched<A, V, O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.try_add_flow(flow, weight)
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        self.register(flow, weight, Default::default())
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

    /// An empty batch is no call at all: it must not run the
    /// eager-rebase check that reading `v(t)` does.
    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        if pkts.is_empty() {
            return Ok(());
        }
        self.push_run(now, pkts, None)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let (pkt, key, meta) = self.q.pop_min()?;
        let (start, finish) = V::tags(key.tag, meta);
        V::serve::<A>(&mut self.v, &mut self.max_finish_served, start, finish);
        if let Some(t) = &self.tele {
            t.record_dequeue(pkt.flow.0, pkt.len.as_u64(), pkt.arrival, now);
        }
        if self.obs.active() {
            let v = self.clock.event_v(self.arith.to_ratio(self.v), now);
            let ev = event(&self.arith, now, &pkt, (start, finish), v);
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
            clock,
            obs,
            tele,
            ..
        } = self;
        // The page takes the batch in one write section, opened once
        // the heap work is done.
        let mut tally = tele.as_ref().map(|_| DequeueTally::new(now));
        let n = if <V::Clock as VtClock>::EXTERNAL {
            // No `v` to serve, and the clock's stands still within the
            // call. Captured below, the clock would grow every closure.
            let v = clock.event_v(arith.to_ratio(*v), now);
            q.pop_min_batch(max, |pkt, key, meta| {
                if let Some(tally) = &mut tally {
                    tally.add(pkt.flow.0, pkt.len.as_u64(), pkt.arrival);
                }
                if obs.active() {
                    obs.on_dequeue(&event(arith, now, &pkt, V::tags(key.tag, meta), v));
                }
                out.push(pkt);
            })
        } else {
            q.pop_min_batch(max, |pkt, key, meta| {
                let (start, finish) = V::tags(key.tag, meta);
                V::serve::<A>(v, max_finish_served, start, finish);
                if let Some(tally) = &mut tally {
                    tally.add(pkt.flow.0, pkt.len.as_u64(), pkt.arrival);
                }
                if obs.active() {
                    let ev_v = arith.to_ratio(*v);
                    obs.on_dequeue(&event(arith, now, &pkt, (start, finish), ev_v));
                }
                out.push(pkt);
            })
        };
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
    /// fits in range before any state is mutated. A rule on an external
    /// clock refuses with [`SchedError::Unsupported`] (see [`VtClock`]).
    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if <V::Clock as VtClock>::EXTERNAL {
            return Err(SchedError::Unsupported);
        }
        let charge = self.charge(flow, weight)?;
        let Some(rule) = self.q.ext(flow).map(|ext| ext.rule) else {
            return Err(SchedError::UnknownFlow(flow));
        };
        let tail_finish = if self.q.backlog(flow) > 0 {
            let dry = self.rechain::<false>(flow, charge, rule, false, |_| {});
            Some(dry.ok_or(SchedError::TagOverflow)?)
        } else {
            None
        };
        self.rechain::<false>(flow, charge, rule, true, |ext| {
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
            let tags = V::tags(key.tag, meta);
            let v = self.clock.event_v(self.arith.to_ratio(self.v), pkt.arrival);
            let ev = event(&self.arith, pkt.arrival, &pkt, tags, v);
            self.obs.on_drop(&ev);
        }
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        Self::NAME
    }
}

impl<A: TagArith + Default, V: VtRule, O: SchedObserver + Default> Default for TagSched<A, V, O>
where
    V::Clock: Default,
{
    /// FIFO tie-breaking, the arithmetic's default grid.
    fn default() -> Self {
        Self::build(
            A::default(),
            TieBreak::Fifo,
            O::default(),
            Default::default(),
        )
    }
}

impl<V: VtRule, O: SchedObserver> TagSched<Fixed, V, O> {
    /// The tag grid's fractional bit count.
    pub fn shift(&self) -> u32 {
        self.arith.shift()
    }
}

/// The Start-time Fair Queuing scheduler, exact arithmetic. It is also
/// the ASQ inside [`FairAirport`](crate::FairAirport).
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
///   **bit-identical** to `Sfq` — enforced by the fixed ≡ exact row of
///   the twin table (`conformance::twin`).
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
        Self::build(Exact, tie, obs, ())
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
        Self::build(Fixed::default(), tie, obs, ())
    }

    /// New fixed-point SFQ with custom shift and observer; see
    /// [`Fixed::new`] for the accepted shift range.
    pub fn with_shift_observer(tie: TieBreak, shift: u32, obs: O) -> Result<Self, SchedError> {
        Ok(Self::build(Fixed::new(shift)?, tie, obs, ()))
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
        Self::build(Exact, TieBreak::Fifo, obs, ())
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
        Self::build(Fixed::default(), TieBreak::Fifo, obs, ())
    }

    /// New fixed-point SCFQ with custom shift and observer.
    pub fn with_shift_observer(shift: u32, obs: O) -> Result<Self, SchedError> {
        Ok(Self::build(Fixed::new(shift)?, TieBreak::Fifo, obs, ()))
    }
}

/// Virtual Clock (Zhang '90): the [`WallClock`] rule, exact arithmetic.
///
/// Each packet is stamped `max(A, VC_prev) + l/r` — its departure time
/// had the flow streamed at exactly its reserved rate — and stamps
/// order service. Virtual Clock gives WFQ's delay guarantee but is
/// *unfair*: a flow that used idle bandwidth carries stamps far into
/// the future and is punished for it later, which the paper cites to
/// motivate fair schedulers for VBR video. It is also the GSQ inside
/// [`FairAirport`](crate::FairAirport).
pub type VirtualClock<O = NoopObserver> = TagSched<Exact, WallClock, O>;

/// Delay Earliest-Due-Date (Section 3, Eq. 66; Theorem 7 over
/// Fluctuation Constrained servers): the [`Deadline`] rule, exact
/// arithmetic.
///
/// Packet `p_f^j` is due at `EAT(p_f^j, r_f) + d_f` — Eq. 37's expected
/// arrival time plus the flow's deadline offset — and packets are
/// served earliest deadline first. Delay EDD separates delay from
/// throughput allocation (a small `d_f` with a small `r_f`), which flat
/// SFQ cannot; the paper nests it inside a hierarchical SFQ class to add
/// that capability. The schedulability condition (Eq. 67) lives in the
/// `analysis` crate.
pub type DelayEdd<O = NoopObserver> = TagSched<Exact, Deadline, O>;

impl VirtualClock {
    /// New Virtual Clock scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<O: SchedObserver> VirtualClock<O> {
    /// New Virtual Clock scheduler reporting events to `obs`: the
    /// stamp as the finish tag, `max(A, VC_prev)` as the start tag and
    /// the wall clock as `v`.
    pub fn with_observer(obs: O) -> Self {
        Self::build(Exact, TieBreak::Fifo, obs, WallTime)
    }

    /// Timestamp of a still-queued packet (diagnostic, like
    /// [`TagSched::tags_of`]).
    pub fn stamp_of(&self, uid: u64) -> Option<SimTime> {
        self.q
            .find(uid)
            .map(|(key, _)| SimTime::from_ratio(key.tag))
    }
}

impl DelayEdd {
    /// New Delay EDD scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<O: SchedObserver> DelayEdd<O> {
    /// Register a flow with rate `r_f` and deadline offset `d_f`, or
    /// re-register it, keeping its EAT chain; [`Scheduler::add_flow`]
    /// registers with `d_f = 0`. A new `d_f` applies to later arrivals:
    /// a flow's packets always leave in arrival order.
    pub fn add_flow_with_deadline(&mut self, flow: FlowId, rate: Rate, d: SimDuration) {
        self.register(flow, rate, d.as_ratio())
            .unwrap_or_else(|e| panic!("{}: {e}", Self::NAME));
    }

    /// Deadline of a still-queued packet (diagnostic, like
    /// [`TagSched::tags_of`]).
    pub fn deadline_of(&self, uid: u64) -> Option<SimTime> {
        self.q
            .find(uid)
            .map(|(key, _)| SimTime::from_ratio(key.tag))
    }
}

/// Weighted Fair Queuing (PGPS): the [`GpsFinish`] rule, exact
/// arithmetic.
///
/// Packets carry Eqs. 1–2's GPS tags and leave in finish-tag order.
/// `v(t)` is the fluid clock of a server of fixed capacity `C`, the
/// assumption Example 2 of the paper exploits to show WFQ's unfairness
/// on variable-rate servers. Events report the fluid clock as `v`, as
/// it stood at the last arrival.
pub type Wfq<O = NoopObserver> = TagSched<Exact, GpsFinish, O>;

/// Fair Queuing based on Start-time (Greenberg & Madras): the
/// [`GpsStart`] rule, exact arithmetic — [`Wfq`]'s tags, served in
/// start-tag order.
pub type Fqs<O = NoopObserver> = TagSched<Exact, GpsStart, O>;

impl<V: VtRule<Clock = GpsClock>> TagSched<Exact, V> {
    /// WFQ or FQS emulating a fluid server of capacity
    /// `assumed_capacity`.
    pub fn new(assumed_capacity: Rate) -> Self {
        Self::with_observer(assumed_capacity, NoopObserver)
    }
}

impl<V: VtRule<Clock = GpsClock>, O: SchedObserver> TagSched<Exact, V, O> {
    /// WFQ or FQS emulating a fluid server of capacity
    /// `assumed_capacity`, reporting events to `obs`.
    pub fn with_observer(assumed_capacity: Rate, obs: O) -> Self {
        let clock = GpsClock::new(assumed_capacity);
        Self::build(Exact, TieBreak::Fifo, obs, clock)
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
    use crate::packet::PacketFactory;
    use simtime::Bytes;

    /// The dequeue look-ahead is written against these numbers
    /// (docs/pooling.md): a flow slot is a line's worth, a slab slot at
    /// most three lines, two heap entries a line's worth. A toolchain
    /// that moves them (the alignment of `i128` already did once)
    /// should fail here, not cost a line silently. The slab slot holds
    /// a packet without its flow id: a new packet field, or an
    /// alignment that rounds the packet up, fails on its own line.
    #[test]
    fn sfq_fast_hot_records_have_the_layout_the_look_ahead_is_written_against() {
        assert_eq!(std::mem::size_of::<Packet>(), 64, "packet");
        assert_eq!(
            sfq_fast_layout(),
            PooledLayout {
                flow_slot: (64, 8),
                slab_slot: (88, 8),
                heap_entry: (32, 8),
            }
        );
    }

    const T0: SimTime = SimTime::ZERO;

    /// 125 B at 1 000 bit/s: one second per packet.
    fn pkt(pf: &mut PacketFactory, flow: u32, at: SimTime) -> Packet {
        pf.make(FlowId(flow), Bytes::new(125), at)
    }

    #[test]
    fn vc_stamps_follow_reserved_rate() {
        let mut vc = VirtualClock::new();
        vc.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let (a, b) = (pkt(&mut pf, 1, T0), pkt(&mut pf, 1, T0));
        vc.enqueue(T0, a);
        vc.enqueue(T0, b);
        assert_eq!(vc.stamp_of(a.uid), Some(SimTime::from_secs(1)));
        assert_eq!(vc.stamp_of(b.uid), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn vc_punishes_idle_bandwidth_usage() {
        // The unfairness the paper cites: flow 1 bursts while alone and
        // stamps 1..10 s. Flow 2 arriving at 1.5 s is stamped 2.5 s and
        // jumps every flow-1 packet stamped 3 s and later.
        let mut vc = VirtualClock::new();
        vc.add_flow(FlowId(1), Rate::bps(1_000));
        vc.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        for _ in 0..10 {
            vc.enqueue(T0, pkt(&mut pf, 1, T0));
        }
        let t = SimTime::from_millis(1500);
        let p2 = pkt(&mut pf, 2, t);
        vc.enqueue(t, p2);
        assert_eq!(vc.stamp_of(p2.uid), Some(SimTime::from_millis(2500)));
        let order: Vec<u32> = std::iter::from_fn(|| vc.dequeue(t).map(|p| p.flow.0)).collect();
        assert_eq!(order.iter().position(|&f| f == 2), Some(2));
    }

    #[test]
    fn vc_arrival_after_idle_stamps_from_real_time() {
        let mut vc = VirtualClock::new();
        vc.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        vc.enqueue(T0, pkt(&mut pf, 1, T0));
        let _ = vc.dequeue(T0);
        let t9 = SimTime::from_secs(9);
        let b = pkt(&mut pf, 1, t9);
        vc.enqueue(t9, b);
        assert_eq!(vc.stamp_of(b.uid), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn edd_deadline_is_eat_plus_offset() {
        let mut e = DelayEdd::new();
        e.add_flow_with_deadline(FlowId(1), Rate::bps(1_000), SimDuration::from_millis(50));
        let mut pf = PacketFactory::new();
        let (a, b) = (pkt(&mut pf, 1, T0), pkt(&mut pf, 1, T0)); // EAT 0 s, 1 s
        e.enqueue(T0, a);
        e.enqueue(T0, b);
        assert_eq!(e.deadline_of(a.uid), Some(SimTime::from_millis(50)));
        assert_eq!(e.deadline_of(b.uid), Some(SimTime::from_millis(1_050)));
    }

    #[test]
    fn edd_small_deadline_flow_preempts_large() {
        let mut e = DelayEdd::new();
        e.add_flow_with_deadline(FlowId(1), Rate::bps(1_000), SimDuration::from_secs(10));
        e.add_flow_with_deadline(FlowId(2), Rate::bps(1_000), SimDuration::from_millis(1));
        let mut pf = PacketFactory::new();
        e.enqueue(T0, pkt(&mut pf, 1, T0));
        let urgent = pkt(&mut pf, 2, T0);
        e.enqueue(T0, urgent);
        assert_eq!(e.dequeue(T0).unwrap().uid, urgent.uid);
    }

    #[test]
    fn edd_eat_follows_reserved_rate_not_arrival_burst() {
        let mut e = DelayEdd::new();
        e.add_flow_with_deadline(FlowId(1), Rate::bps(1_000), SimDuration::ZERO);
        let mut pf = PacketFactory::new();
        // A burst of 3 at t = 0: EATs 0, 1, 2 s.
        let eats: Vec<SimTime> = (0..3)
            .map(|_| {
                let p = pkt(&mut pf, 1, T0);
                e.enqueue(T0, p);
                e.deadline_of(p.uid).unwrap()
            })
            .collect();
        assert_eq!(eats, vec![T0, SimTime::from_secs(1), SimTime::from_secs(2)]);
    }

    /// A flow re-registered while fluid-backlogged leaves the fluid
    /// system at the rate it entered with. C = 2 000 b/s: flow 1's span
    /// of 10 drains by 5 s, flow 2's span of 100 from v = 10 at 100 s
    /// runs at slope C / r_2 = 2, so flow 3 arriving at 101 s starts at
    /// 12. Draining at the new rate started it at 110.
    #[test]
    fn wfq_reregistration_applies_from_the_next_arrival() {
        let mut w = Wfq::new(Rate::bps(2_000));
        for flow in 1..=3 {
            w.add_flow(FlowId(flow), Rate::bps(1_000));
        }
        let mut pf = PacketFactory::new();
        w.enqueue(T0, pf.make(FlowId(1), Bytes::new(1_250), T0));
        w.add_flow(FlowId(1), Rate::bps(4_000));
        let t = SimTime::from_secs(100);
        w.enqueue(t, pf.make(FlowId(2), Bytes::new(12_500), t));
        let t = SimTime::from_secs(101);
        let p3 = pkt(&mut pf, 3, t);
        w.enqueue(t, p3);
        assert_eq!(w.tags_of(p3.uid).map(|t| t.0), Some(Ratio::from_int(12)));
    }
}
