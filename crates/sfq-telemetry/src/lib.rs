//! # sfq-telemetry — plain-write counter pages, read off-thread
//!
//! Production telemetry for the scheduling data path. The synchronous
//! [`SchedObserver`](https://docs.rs/) layer in `sfq-obs` is exact but
//! in-process: every event call runs on the forwarding thread, and the
//! exact-rational tag conversions its events carry are precisely the
//! cost the fixed-point fast path exists to avoid. This crate follows
//! router practice instead (the R2-style counters design): each shard
//! owns a [`StatPage`] of counters its thread updates with **plain
//! relaxed stores** — single writer, no read-modify-write, no lock
//! prefix on the hot path — and a control-plane [`Aggregator`] folds
//! the pages into engine totals from another thread, using a
//! seqlock-style epoch stamp per page to detect and retry torn reads.
//!
//! ## Coherence contract
//!
//! Counters are monotone, and the whole page has exactly one writer
//! (the thread driving the engine the page belongs to). A snapshot
//! taken at a quiescent point — no writer mid-update — is
//! exact, which is what the differential stats oracle in the
//! conformance `telemetry` preset proves against the
//! `CountingObserver`/conservation-ledger ground truth. A snapshot
//! taken mid-write is either consistent (the epoch did not move) or
//! reported as [`SnapshotError::Torn`] and retried; with a finite
//! workload the retry terminates because the writer performs finitely
//! many epoch bumps.
//!
//! See `docs/telemetry.md` for the page layout and the snapshot
//! protocol.

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use simtime::SimTime;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Flow-class count for the per-class service counters. Classes are a
/// coarse production-style rollup: flow id modulo [`FLOW_CLASSES`].
pub const FLOW_CLASSES: usize = 8;

/// Log2 buckets of the queueing-delay histogram. Bucket `i` counts
/// delays in `[2^i, 2^(i+1))` nanoseconds; bucket 0 also absorbs
/// zero/sub-nanosecond delays and the last bucket absorbs everything
/// beyond `2^40` ns (~18 minutes).
///
/// Exactly: a departure at `now` of a packet that arrived at `arrival`
/// counts in bucket `min(39, ⌊log2 ⌊(now − arrival)·10⁹⌋⌋)`, and in
/// bucket 0 when the delay is under 2 ns or `now <= arrival`. The
/// index is computed in integers from the two exact instants
/// ([`SimTime::log2_nanos_since`]) — no rounding, so a delay of
/// exactly `2^i` ns is in bucket `i` and one a hair short of it is not.
pub const DELAY_BUCKETS: usize = 40;

/// Log2 buckets of the backlog histogram, sampled at enqueue: bucket
/// `i` counts enqueues that left the shard backlog in
/// `[2^i, 2^(i+1))` packets (saturating at the last bucket).
pub const BACKLOG_BUCKETS: usize = 24;

/// Why an arrival was refused before reaching a scheduler queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuseCause {
    /// A buffer cap or ingress ring was full (backpressure).
    BufferFull,
    /// The flow was not registered.
    UnknownFlow,
    /// Any other refusal.
    Other,
}

/// Refusal causes, in slot order.
pub const REFUSE_CAUSES: [RefuseCause; 3] = [
    RefuseCause::BufferFull,
    RefuseCause::UnknownFlow,
    RefuseCause::Other,
];

impl RefuseCause {
    fn index(self) -> usize {
        match self {
            RefuseCause::BufferFull => 0,
            RefuseCause::UnknownFlow => 1,
            RefuseCause::Other => 2,
        }
    }
}

/// Coarse flow class of a raw flow id (`flow mod FLOW_CLASSES`).
pub fn flow_class(flow: u32) -> usize {
    flow as usize & (FLOW_CLASSES - 1)
}

// Slot indices of the counter array. Scalar counters first, then the
// fixed-width vector sections.
const ENQUEUES: usize = 0;
const ENQ_BYTES: usize = 1;
const DEQUEUES: usize = 2;
const DEQ_BYTES: usize = 3;
const HEAD_DROPS: usize = 4;
const FORCE_DROPS: usize = 5;
const FORCE_REMOVALS: usize = 6;
const OFFERED: usize = 7;
const REFUSED: usize = 8; // ..+REFUSE_CAUSES.len()
const CLASS_BYTES: usize = REFUSED + REFUSE_CAUSES.len(); // ..+FLOW_CLASSES
const DELAY_HIST: usize = CLASS_BYTES + FLOW_CLASSES; // ..+DELAY_BUCKETS
const BACKLOG_HIST: usize = DELAY_HIST + DELAY_BUCKETS; // ..+BACKLOG_BUCKETS
const SLOTS: usize = BACKLOG_HIST + BACKLOG_BUCKETS;

/// One shard's (or the engine's) counter page.
///
/// Cache-line aligned so adjacent pages never share a line; within a
/// page there is no false sharing to avoid because the page has a
/// single writer. All writer methods take `&self` and use
/// `Relaxed` loads + stores only — on every mainstream ISA these
/// compile to plain `mov`s, never a locked read-modify-write. The
/// epoch stamp ([`StatPage::try_snapshot`]) is what makes concurrent
/// off-thread reads sound.
#[derive(Debug)]
#[repr(align(64))]
pub struct StatPage {
    /// Seqlock epoch: odd while the writer is mid-update.
    seq: AtomicU64,
    slots: [AtomicU64; SLOTS],
}

impl Default for StatPage {
    fn default() -> Self {
        Self::new()
    }
}

impl StatPage {
    /// Fresh zeroed page.
    pub fn new() -> Self {
        StatPage {
            seq: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Open a write section: bump the epoch to odd. Single writer only.
    #[inline(always)]
    fn begin(&self) -> u64 {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // Counter stores below must not become visible before the odd
        // epoch; a release fence orders the epoch store before them
        // from any acquire reader's point of view.
        fence(Ordering::Release);
        s
    }

    /// Close the write section: bump the epoch back to even.
    #[inline(always)]
    fn end(&self, s: u64) {
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Plain single-writer increment: load + store, no RMW.
    #[inline(always)]
    fn bump(&self, slot: usize, by: u64) {
        let v = self.slots[slot].load(Ordering::Relaxed);
        self.slots[slot].store(v.wrapping_add(by), Ordering::Relaxed);
    }

    /// Book a call's worth of scheduler enqueues in one write section
    /// (none for an empty tally).
    #[inline]
    pub fn book_enqueues(&self, tally: &EnqueueTally) {
        if tally.count == 0 {
            return;
        }
        let s = self.begin();
        self.bump(ENQUEUES, tally.count);
        self.bump(ENQ_BYTES, tally.bytes);
        self.bump_each(BACKLOG_HIST, &tally.backlog);
        self.end(s);
    }

    /// Book a call's worth of departures in one write section (none
    /// for an empty tally).
    #[inline]
    pub fn book_dequeues(&self, tally: &DequeueTally) {
        if tally.count == 0 {
            return;
        }
        let s = self.begin();
        self.bump(DEQUEUES, tally.count);
        self.bump(DEQ_BYTES, tally.bytes);
        self.bump_each(CLASS_BYTES, &tally.class_bytes);
        self.bump_each(DELAY_HIST, &tally.delay);
        self.end(s);
    }

    /// Bump the slots from `base` that `sums` touched.
    #[inline(always)]
    fn bump_each<const N: usize>(&self, base: usize, sums: &Sums<N>) {
        let mut touched = sums.touched;
        while touched != 0 {
            let i = touched.trailing_zeros() as usize;
            self.bump(base + i, sums.by_index[i]);
            touched &= touched - 1;
        }
    }

    /// Record one departure from the scheduler: a tally of one. See
    /// [`DequeueTally::add`].
    ///
    /// Never inlined: the tally is ≈ 400 bytes of stack, and inlined it
    /// lands in the frame of the scheduler's per-packet `dequeue`, which
    /// the bare scheduler (no page attached) then pays for too.
    #[inline(never)]
    pub fn record_dequeue(&self, flow: u32, len_bytes: u64, arrival: SimTime, now: SimTime) {
        let mut tally = DequeueTally::new(now);
        tally.add(flow, len_bytes, arrival);
        self.book_dequeues(&tally);
    }

    /// Record a head-of-line eviction (`drop_head`).
    #[inline]
    pub fn record_head_drop(&self) {
        let s = self.begin();
        self.bump(HEAD_DROPS, 1);
        self.end(s);
    }

    /// Record a `force_remove_flow` that discarded `dropped` queued
    /// packets.
    #[inline]
    pub fn record_force_removed(&self, dropped: usize) {
        let s = self.begin();
        self.bump(FORCE_REMOVALS, 1);
        self.bump(FORCE_DROPS, dropped as u64);
        self.end(s);
    }

    /// Engine page: a packet was offered to the engine.
    #[inline]
    pub fn record_offered(&self, n: u64) {
        let s = self.begin();
        self.bump(OFFERED, n);
        self.end(s);
    }

    /// Engine page: an arrival was refused, by cause.
    #[inline]
    pub fn record_refusal(&self, cause: RefuseCause) {
        let s = self.begin();
        self.bump(REFUSED + cause.index(), 1);
        self.end(s);
    }

    /// The seqlock word: odd while a write section is open, advanced by
    /// 2 per section closed — so the difference between two reads
    /// counts the sections written in between.
    pub fn epoch(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// One optimistic snapshot attempt. Returns [`SnapshotError::Torn`]
    /// if a write section overlapped the read.
    pub fn try_snapshot(&self) -> Result<PageSnapshot, SnapshotError> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return Err(SnapshotError::Torn { attempts: 1 });
        }
        let mut raw = [0u64; SLOTS];
        for (i, slot) in self.slots.iter().enumerate() {
            raw[i] = slot.load(Ordering::Relaxed);
        }
        // Pairs with the writer's release fence/stores: if the epoch is
        // unchanged after an acquire fence, no write section overlapped
        // and the relaxed reads above are mutually consistent.
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            return Err(SnapshotError::Torn { attempts: 1 });
        }
        Ok(PageSnapshot::from_raw(&raw))
    }

    /// Snapshot with bounded retry: at most `budget` attempts, then
    /// [`SnapshotError::Torn`] carrying the count. That is the whole
    /// guarantee: a reader never blocks and never returns a torn page
    /// as `Ok`, but it is not wait-free. A writer preempted inside a
    /// write section fails every attempt made meanwhile, so a reader
    /// beside a live writer can exhaust any budget; the conformance
    /// `telemetry` preset's reader-thread leg reproduces that
    /// starvation. A protocol without it is ROADMAP item 2.
    pub fn snapshot(&self, budget: usize) -> Result<PageSnapshot, SnapshotError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.try_snapshot() {
                Ok(snap) => return Ok(snap),
                Err(_) if attempts < budget => std::hint::spin_loop(),
                Err(_) => return Err(SnapshotError::Torn { attempts }),
            }
        }
    }
}

/// Bucket index for a backlog depth (log2, saturating).
#[inline]
fn backlog_bucket(backlog: usize) -> usize {
    (backlog.max(1).ilog2() as usize).min(BACKLOG_BUCKETS - 1)
}

/// Bucket index for a queueing delay (log2 nanoseconds, saturating);
/// see [`DELAY_BUCKETS`] for the exact definition.
#[inline]
fn delay_bucket(arrival: SimTime, now: SimTime) -> usize {
    (now.log2_nanos_since(arrival) as usize).min(DELAY_BUCKETS - 1)
}

/// Sums by slot index collected outside a write section, with a bitmap
/// of the indices touched so that booking them visits only those.
#[derive(Clone, Debug)]
struct Sums<const N: usize> {
    touched: u64,
    by_index: [u64; N],
}

impl<const N: usize> Sums<N> {
    const ZERO: Self = {
        assert!(N <= u64::BITS as usize);
        Sums {
            touched: 0,
            by_index: [0; N],
        }
    };

    #[inline(always)]
    fn add(&mut self, i: usize, by: u64) {
        self.touched |= 1 << i;
        self.by_index[i] = self.by_index[i].wrapping_add(by);
    }
}

/// The enqueues of one scheduler call, summed on the caller's stack and
/// booked by [`StatPage::book_enqueues`] in a single write section: the
/// page then changes once per call, and a reader is locked out for the
/// length of a dozen stores however long the call's heap work ran.
#[derive(Clone, Debug)]
pub struct EnqueueTally {
    count: u64,
    bytes: u64,
    backlog: Sums<BACKLOG_BUCKETS>,
}

impl Default for EnqueueTally {
    fn default() -> Self {
        Self::new()
    }
}

impl EnqueueTally {
    /// An empty tally.
    #[inline]
    pub fn new() -> Self {
        EnqueueTally {
            count: 0,
            bytes: 0,
            backlog: Sums::ZERO,
        }
    }

    /// Count one successful scheduler enqueue. `backlog_after` is the
    /// shard's total queued packets after the push (feeds the backlog
    /// histogram).
    #[inline]
    pub fn add(&mut self, len_bytes: u64, backlog_after: usize) {
        self.count += 1;
        self.bytes = self.bytes.wrapping_add(len_bytes);
        self.backlog.add(backlog_bucket(backlog_after), 1);
    }
}

/// The departures of one scheduler call at one instant `now`: the
/// dequeue-side twin of [`EnqueueTally`], booked by
/// [`StatPage::book_dequeues`].
#[derive(Clone, Debug)]
pub struct DequeueTally {
    now: SimTime,
    count: u64,
    bytes: u64,
    class_bytes: Sums<FLOW_CLASSES>,
    delay: Sums<DELAY_BUCKETS>,
}

impl DequeueTally {
    /// An empty tally of departures at `now`.
    #[inline]
    pub fn new(now: SimTime) -> Self {
        DequeueTally {
            now,
            count: 0,
            bytes: 0,
            class_bytes: Sums::ZERO,
            delay: Sums::ZERO,
        }
    }

    /// Count one departure. Queueing delay is `now - arrival`, bucketed
    /// log2 in nanoseconds ([`DELAY_BUCKETS`]).
    #[inline]
    pub fn add(&mut self, flow: u32, len_bytes: u64, arrival: SimTime) {
        self.count += 1;
        self.bytes = self.bytes.wrapping_add(len_bytes);
        self.class_bytes.add(flow_class(flow), len_bytes);
        self.delay.add(delay_bucket(arrival, self.now), 1);
    }
}

/// A snapshot-time error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The page's write epoch moved during every read attempt.
    Torn {
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Torn { attempts } => {
                write!(f, "torn snapshot after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A consistent copy of one [`StatPage`], plain integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSnapshot {
    /// Successful scheduler enqueues.
    pub enqueues: u64,
    /// Bytes enqueued.
    pub enq_bytes: u64,
    /// Departures from the scheduler.
    pub dequeues: u64,
    /// Bytes departed.
    pub deq_bytes: u64,
    /// Head-of-line evictions (`drop_head`).
    pub head_drops: u64,
    /// Packets discarded by `force_remove_flow`.
    pub force_drops: u64,
    /// `force_remove_flow` calls that discarded a flow.
    pub force_removals: u64,
    /// Packets offered to the engine (engine page only).
    pub offered: u64,
    /// Refusals by cause, in [`REFUSE_CAUSES`] order.
    pub refused: [u64; REFUSE_CAUSES.len()],
    /// Bytes served per flow class (`flow mod FLOW_CLASSES`).
    pub class_bytes: [u64; FLOW_CLASSES],
    /// Log2 queueing-delay histogram (nanoseconds).
    pub delay_hist: [u64; DELAY_BUCKETS],
    /// Log2 backlog histogram (packets, sampled at enqueue).
    pub backlog_hist: [u64; BACKLOG_BUCKETS],
}

impl Default for PageSnapshot {
    fn default() -> Self {
        PageSnapshot {
            enqueues: 0,
            enq_bytes: 0,
            dequeues: 0,
            deq_bytes: 0,
            head_drops: 0,
            force_drops: 0,
            force_removals: 0,
            offered: 0,
            refused: [0; REFUSE_CAUSES.len()],
            class_bytes: [0; FLOW_CLASSES],
            delay_hist: [0; DELAY_BUCKETS],
            backlog_hist: [0; BACKLOG_BUCKETS],
        }
    }
}

impl PageSnapshot {
    fn from_raw(raw: &[u64; SLOTS]) -> Self {
        let mut snap = PageSnapshot {
            enqueues: raw[ENQUEUES],
            enq_bytes: raw[ENQ_BYTES],
            dequeues: raw[DEQUEUES],
            deq_bytes: raw[DEQ_BYTES],
            head_drops: raw[HEAD_DROPS],
            force_drops: raw[FORCE_DROPS],
            force_removals: raw[FORCE_REMOVALS],
            offered: raw[OFFERED],
            ..PageSnapshot::default()
        };
        snap.refused.copy_from_slice(&raw[REFUSED..CLASS_BYTES]);
        snap.class_bytes
            .copy_from_slice(&raw[CLASS_BYTES..CLASS_BYTES + FLOW_CLASSES]);
        snap.delay_hist
            .copy_from_slice(&raw[DELAY_HIST..DELAY_HIST + DELAY_BUCKETS]);
        snap.backlog_hist
            .copy_from_slice(&raw[BACKLOG_HIST..BACKLOG_HIST + BACKLOG_BUCKETS]);
        snap
    }

    /// Total refusals across causes.
    pub fn refused_total(&self) -> u64 {
        self.refused.iter().sum()
    }

    /// Packets still resident in the scheduler per this page's books:
    /// `enqueues - dequeues - head_drops - force_drops`.
    pub fn resident(&self) -> i128 {
        self.enqueues as i128
            - self.dequeues as i128
            - self.head_drops as i128
            - self.force_drops as i128
    }

    /// Fold another page's counters into this one (histograms and
    /// vectors add element-wise).
    pub fn merge(&mut self, other: &PageSnapshot) {
        self.enqueues += other.enqueues;
        self.enq_bytes += other.enq_bytes;
        self.dequeues += other.dequeues;
        self.deq_bytes += other.deq_bytes;
        self.head_drops += other.head_drops;
        self.force_drops += other.force_drops;
        self.force_removals += other.force_removals;
        self.offered += other.offered;
        for i in 0..REFUSE_CAUSES.len() {
            self.refused[i] += other.refused[i];
        }
        for i in 0..FLOW_CLASSES {
            self.class_bytes[i] += other.class_bytes[i];
        }
        for i in 0..DELAY_BUCKETS {
            self.delay_hist[i] += other.delay_hist[i];
        }
        for i in 0..BACKLOG_BUCKETS {
            self.backlog_hist[i] += other.backlog_hist[i];
        }
    }

    /// Approximate delay percentile (0–100) as the upper bound of the
    /// bucket containing it, in nanoseconds. `None` when no delays were
    /// recorded.
    pub fn delay_percentile_ns(&self, pct: f64) -> Option<u64> {
        let total: u64 = self.delay_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (pct.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.delay_hist.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        Some(1u64 << DELAY_BUCKETS.min(63))
    }
}

/// A cloneable writer handle on a [`StatPage`].
///
/// Cloning shares the page; the single-writer discipline is the
/// *caller's* contract — exactly one thread calls the record methods at
/// a time (scheduler shards satisfy it by construction: an engine and
/// all its shards are driven by one thread).
#[derive(Clone, Debug)]
pub struct TelemetrySink {
    page: Arc<StatPage>,
}

impl Default for TelemetrySink {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetrySink {
    /// Sink over a fresh page.
    pub fn new() -> Self {
        TelemetrySink {
            page: Arc::new(StatPage::new()),
        }
    }

    /// The underlying page, for readers.
    pub fn page(&self) -> &Arc<StatPage> {
        &self.page
    }
}

impl std::ops::Deref for TelemetrySink {
    type Target = StatPage;
    fn deref(&self) -> &StatPage {
        &self.page
    }
}

/// The page set of one engine: one engine-level page (offered /
/// refusals, written at ingest) plus one page per shard (written by
/// the shard's scheduler). Shared with the off-thread [`Aggregator`]
/// through an `Arc`.
#[derive(Debug)]
pub struct TelemetryHub {
    engine: TelemetrySink,
    shards: Vec<TelemetrySink>,
}

impl TelemetryHub {
    /// Hub for an engine with `shards` shards.
    pub fn new(shards: usize) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            engine: TelemetrySink::new(),
            shards: (0..shards).map(|_| TelemetrySink::new()).collect(),
        })
    }

    /// The engine-level sink.
    pub fn engine(&self) -> &TelemetrySink {
        &self.engine
    }

    /// Shard `i`'s sink.
    pub fn shard(&self, i: usize) -> &TelemetrySink {
        &self.shards[i]
    }

    /// All shard sinks.
    pub fn shards(&self) -> &[TelemetrySink] {
        &self.shards
    }
}

/// Everything one aggregation pass produced.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// The engine page.
    pub engine: PageSnapshot,
    /// Every shard page, in shard order.
    pub shards: Vec<PageSnapshot>,
    /// Shard pages folded together.
    pub totals: PageSnapshot,
}

impl EngineSnapshot {
    /// The drained-state conservation identity, as read purely from the
    /// pages: `offered - (refusals + dequeues + force_drops +
    /// head_drops)`. Zero at any quiescent point where
    /// the engine has fully drained (`pending() == 0`); the difference
    /// equals the packets still resident in the schedulers otherwise.
    pub fn conservation_gap(&self) -> i128 {
        self.engine.offered as i128
            - (self.engine.refused_total() as i128
                + self.totals.dequeues as i128
                + self.totals.force_drops as i128
                + self.totals.head_drops as i128)
    }
}

/// Off-thread reader folding a [`TelemetryHub`]'s pages into engine
/// totals without touching the engine.
#[derive(Clone, Debug)]
pub struct Aggregator {
    hub: Arc<TelemetryHub>,
}

impl Aggregator {
    /// Aggregator over `hub`.
    pub fn new(hub: Arc<TelemetryHub>) -> Self {
        Aggregator { hub }
    }

    /// Snapshot every page (each with up to `budget` seqlock retries)
    /// and fold the shard pages into totals.
    pub fn snapshot(&self, budget: usize) -> Result<EngineSnapshot, SnapshotError> {
        let engine = self.hub.engine.snapshot(budget)?;
        let mut shards = Vec::with_capacity(self.hub.shards.len());
        let mut totals = PageSnapshot::default();
        for s in &self.hub.shards {
            let snap = s.snapshot(budget)?;
            totals.merge(&snap);
            shards.push(snap);
        }
        Ok(EngineSnapshot {
            engine,
            shards,
            totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One enqueue, booked the way `TagSched` books it: a tally of one.
    fn record_enqueue(page: &StatPage, len_bytes: u64, backlog_after: usize) {
        let mut tally = EnqueueTally::new();
        tally.add(len_bytes, backlog_after);
        page.book_enqueues(&tally);
    }

    #[test]
    fn single_writer_counts_are_exact() {
        let sink = TelemetrySink::new();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_micros(3);
        for i in 0..100u32 {
            record_enqueue(&sink, 200, (i + 1) as usize);
        }
        for i in 0..60u32 {
            sink.record_dequeue(i % 4, 200, t0, t1);
        }
        sink.record_head_drop();
        sink.record_force_removed(7);
        let snap = sink.snapshot(8).expect("no writer running");
        assert_eq!(snap.enqueues, 100);
        assert_eq!(snap.enq_bytes, 20_000);
        assert_eq!(snap.dequeues, 60);
        assert_eq!(snap.deq_bytes, 12_000);
        assert_eq!(snap.head_drops, 1);
        assert_eq!(snap.force_drops, 7);
        assert_eq!(snap.force_removals, 1);
        assert_eq!(snap.resident(), 100 - 60 - 1 - 7);
        assert_eq!(snap.class_bytes.iter().sum::<u64>(), 12_000);
        assert_eq!(snap.delay_hist.iter().sum::<u64>(), 60);
        assert_eq!(snap.backlog_hist.iter().sum::<u64>(), 100);
    }

    #[test]
    fn torn_read_is_detected_and_retried() {
        let page = StatPage::new();
        // Hold a write section open: every snapshot attempt must
        // report Torn, none may return half-updated counters.
        let s = page.begin();
        page.bump(super::ENQUEUES, 1);
        assert!(matches!(
            page.try_snapshot(),
            Err(SnapshotError::Torn { .. })
        ));
        assert!(matches!(
            page.snapshot(4),
            Err(SnapshotError::Torn { attempts: 4 })
        ));
        page.end(s);
        let snap = page.try_snapshot().expect("write section closed");
        assert_eq!(snap.enqueues, 1);
    }

    #[test]
    fn delay_buckets_are_log2_ns() {
        let t0 = SimTime::ZERO;
        assert_eq!(delay_bucket(t0, t0), 0);
        assert_eq!(delay_bucket(t0, SimTime::from_nanos(1)), 0);
        assert_eq!(delay_bucket(t0, SimTime::from_nanos(2)), 1);
        assert_eq!(delay_bucket(t0, SimTime::from_nanos(1024)), 10);
        assert_eq!(delay_bucket(t0, SimTime::from_micros(1)), 9);
        assert_eq!(
            delay_bucket(t0, SimTime::from_secs(10_000_000)),
            DELAY_BUCKETS - 1
        );
    }

    #[test]
    fn backlog_buckets_saturate() {
        assert_eq!(backlog_bucket(0), 0);
        assert_eq!(backlog_bucket(1), 0);
        assert_eq!(backlog_bucket(2), 1);
        assert_eq!(backlog_bucket(3), 1);
        assert_eq!(backlog_bucket(1024), 10);
        assert_eq!(backlog_bucket(usize::MAX), BACKLOG_BUCKETS - 1);
    }

    #[test]
    fn aggregator_folds_shard_pages() {
        let hub = TelemetryHub::new(3);
        let t0 = SimTime::ZERO;
        for (i, s) in hub.shards().iter().enumerate() {
            for _ in 0..=i {
                record_enqueue(s, 100, 1);
                s.record_dequeue(i as u32, 100, t0, t0);
            }
        }
        hub.engine().record_offered(6);
        let agg = Aggregator::new(Arc::clone(&hub));
        let snap = agg.snapshot(8).unwrap();
        assert_eq!(snap.totals.enqueues, 6);
        assert_eq!(snap.totals.dequeues, 6);
        assert_eq!(snap.engine.offered, 6);
        assert_eq!(snap.conservation_gap(), 0);
        assert_eq!(snap.shards.len(), 3);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_totals() {
        // The writer keeps enqueue/dequeue in lockstep inside write
        // sections; a racing reader must only ever observe equal
        // counts (or report Torn), never a half-applied update.
        let sink = TelemetrySink::new();
        let page = Arc::clone(sink.page());
        let stop = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let reading = Arc::new(AtomicU64::new(0));
        let reading2 = Arc::clone(&reading);
        let reader = std::thread::spawn(move || {
            let mut seen = 0u64;
            let mut torn = 0u64;
            while stop2.load(Ordering::Relaxed) == 0 {
                match page.try_snapshot() {
                    Ok(s) => {
                        assert_eq!(
                            s.enqueues, s.dequeues,
                            "torn page slipped past the epoch check"
                        );
                        seen += 1;
                        reading2.store(1, Ordering::Relaxed);
                    }
                    Err(_) => torn += 1,
                }
            }
            (seen, torn)
        });
        // The race is only a race once the reader runs: an optimized
        // writer is otherwise done before the thread is scheduled.
        while reading.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        let t0 = SimTime::ZERO;
        for _ in 0..200_000 {
            let s = sink.begin();
            sink.bump(super::ENQUEUES, 1);
            sink.bump(super::DEQUEUES, 1);
            sink.end(s);
        }
        let _ = t0;
        stop.store(1, Ordering::Relaxed);
        let (seen, _torn) = reader.join().unwrap();
        assert!(seen > 0, "reader never got a consistent snapshot");
        let snap = sink.snapshot(64).unwrap();
        assert_eq!(snap.enqueues, 200_000);
        assert_eq!(snap.dequeues, 200_000);
    }

    #[test]
    fn delay_percentiles_walk_the_histogram() {
        let mut snap = PageSnapshot::default();
        assert_eq!(snap.delay_percentile_ns(99.0), None);
        snap.delay_hist[0] = 90;
        snap.delay_hist[10] = 10;
        assert_eq!(snap.delay_percentile_ns(50.0), Some(2));
        assert_eq!(snap.delay_percentile_ns(99.0), Some(1 << 11));
    }

    #[test]
    fn a_tally_books_what_the_single_records_book_in_one_section() {
        let (singles, batched) = (TelemetrySink::new(), TelemetrySink::new());
        let now = SimTime::from_micros(5_000);
        // Arrivals from 5 ms back to the departure instant itself, some
        // repeated back to back, over every flow class.
        let arrivals: Vec<SimTime> = (0..40i128)
            .map(|i| SimTime::from_micros(5_000 - (5_000 >> (i / 3))))
            .collect();
        let mut enq = EnqueueTally::new();
        let mut deq = DequeueTally::new(now);
        for (i, &arrival) in arrivals.iter().enumerate() {
            let (flow, len) = (i as u32 * 3, 64 + 17 * i as u64);
            record_enqueue(&singles, len, i + 1);
            singles.record_dequeue(flow, len, arrival, now);
            enq.add(len, i + 1);
            deq.add(flow, len, arrival);
        }
        assert_eq!(singles.epoch(), 4 * arrivals.len() as u64);
        batched.book_enqueues(&enq);
        assert_eq!(batched.epoch(), 2, "one section for the whole tally");
        batched.book_dequeues(&deq);
        assert_eq!(batched.epoch(), 4);
        let snap = batched.snapshot(1).unwrap();
        assert_eq!(snap, singles.snapshot(1).unwrap());
        assert!(snap.delay_hist.iter().filter(|&&n| n > 0).count() >= 5);
        assert!(snap.backlog_hist.iter().filter(|&&n| n > 0).count() >= 5);
        // Nothing counted, nothing written: the epoch does not move.
        batched.book_enqueues(&EnqueueTally::new());
        batched.book_dequeues(&DequeueTally::new(now));
        assert_eq!(batched.epoch(), 4);
    }

    /// `delay_bucket` as it was computed before it became an integer
    /// expression: an exact-rational subtraction, a division in `f64`,
    /// a `log2`. Kept as the oracle for the lattices real arrival times
    /// sit on.
    fn delay_bucket_f64(arrival: SimTime, now: SimTime) -> usize {
        if now <= arrival {
            return 0;
        }
        let ns = (now - arrival).as_secs_f64() * 1e9;
        if ns < 2.0 {
            return 0;
        }
        ((ns.log2()) as usize).min(DELAY_BUCKETS - 1)
    }

    /// A delay in lattice ticks: any, or within one tick of a power of
    /// two — where a rounded logarithm would slip a bucket.
    fn ticks() -> impl Strategy<Value = i128> {
        prop_oneof![
            0i128..(1 << 46),
            0i128..4096,
            (0u32..46, -1i128..2).prop_map(|(k, d)| (1i128 << k) + d),
        ]
    }

    proptest! {
        /// No sample moves bucket: on the nanosecond and microsecond
        /// lattices, up to days of delay on top of days of clock, the
        /// integer bucket is the one the float expression chose.
        #[test]
        fn delay_bucket_agrees_with_the_float_expression_on_the_ns_and_us_lattices(
            arrival in 0i128..(1 << 50),
            delay in ticks(),
        ) {
            for at in [SimTime::from_nanos, SimTime::from_micros] {
                let (arrival, now) = (at(arrival), at(arrival + delay));
                prop_assert_eq!(delay_bucket(arrival, now), delay_bucket_f64(arrival, now));
                prop_assert_eq!(delay_bucket(now, arrival), 0);
            }
        }
    }
}
