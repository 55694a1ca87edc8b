//! Differential stats oracle for the telemetry plane (see
//! `docs/telemetry.md`): the plain-write counter pages of
//! `sfq-telemetry` must agree *bit for bit* with the synchronous
//! [`CountingObserver`] ground truth — the observer sits inside the
//! scheduler's event path, the page is written with relaxed stores and
//! read through a seqlock, and any divergence means a recording hook is
//! missing, double-firing, or torn.
//!
//! Three layers:
//!
//! 1. **Core schedulers.** `Sfq`, `SfqFast`, `ScfqFast`, and the SCFQ
//!    baseline run the same seeded op schedule (enqueues, dequeues,
//!    head drops, force-removals, weight churn) with both a counting
//!    observer and a telemetry page attached; every shared counter must
//!    match exactly, and the page's internal identities (histogram
//!    masses, per-class byte split, resident count) must close.
//! 2. **Engine.** `SyncEngine` runs the same call sequence with pages
//!    attached; the aggregated `EngineSnapshot` must reproduce the
//!    driver-side ledger (offered, refusals, departures, force drops)
//!    and close the conservation identity at quiescence.
//! 3. **Reconfig churn.** Weight changes and force-removals are part of
//!    the op alphabet throughout, so the identities hold across live
//!    reconfiguration, not just steady-state forwarding.
//! 4. **Per packet vs per batch.** A batch call books its packets in one
//!    write section from a stack tally; a single call books a tally of
//!    one. The same schedule driven through `enqueue`/`dequeue` and
//!    through `enqueue_batch`/`dequeue_batch`, on a clock that moves
//!    between calls so sojourns spread over the delay histogram, must
//!    leave equal pages after every call.

use proptest::prelude::*;
use sfq_engine::{EngineConfig, SyncEngine};
use sfq_repro::core::{ReconfigCmd, TagArith, TagSched, VtRule};
use sfq_repro::prelude::*;
use sfq_telemetry::{Aggregator, EngineSnapshot, PageSnapshot, TelemetryHub, TelemetrySink};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const FLOWS: u32 = 6;
const SNAP_BUDGET: usize = 1024;

#[derive(Clone, Debug)]
enum Op {
    /// Enqueue a packet of the given length for flow index `0..FLOWS`.
    Enq(u32, u64),
    /// Dequeue (drain) up to the given number of packets.
    Deq(u8),
    /// Evict the flow's head-of-line packet.
    DropHead(u32),
    /// Force-remove the flow mid-backlog (the churn fault).
    ForceRemove(u32),
    /// (Re-)register the flow at a fresh weight.
    AddFlow(u32, u64),
    /// Live weight change (tag-rewrite reconfiguration).
    SetWeight(u32, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            // Enqueues and dequeues repeated so the schedule is mostly
            // forwarding with occasional churn.
            (0..FLOWS, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0..FLOWS, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0..FLOWS, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0..FLOWS, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (1u8..8).prop_map(Op::Deq),
            (1u8..8).prop_map(Op::Deq),
            (0..FLOWS).prop_map(Op::DropHead),
            (0..FLOWS).prop_map(Op::ForceRemove),
            (0..FLOWS, 1u64..64).prop_map(|(f, k)| Op::AddFlow(f, k)),
            (0..FLOWS, 1u64..64).prop_map(|(f, k)| Op::SetWeight(f, k)),
        ],
        1..250,
    )
}

/// What the test driver itself observed — the ledger every page must
/// reproduce.
#[derive(Debug, Default, PartialEq, Eq)]
struct Ledger {
    offered: u64,
    refused: u64,
    departures: u64,
    head_drops: u64,
    force_drops: u64,
}

/// Check the identities a single scheduler page must satisfy on its
/// own: histogram masses equal the event counts, the per-class byte
/// split sums to the byte total, and the resident derivation matches
/// the live queue length.
fn check_page_self_consistency(snap: &PageSnapshot, live_len: usize, ctx: &str) {
    assert_eq!(
        snap.delay_hist.iter().sum::<u64>(),
        snap.dequeues,
        "{ctx}: delay histogram mass != dequeues"
    );
    assert_eq!(
        snap.backlog_hist.iter().sum::<u64>(),
        snap.enqueues,
        "{ctx}: backlog histogram mass != enqueues"
    );
    assert_eq!(
        snap.class_bytes.iter().sum::<u64>(),
        snap.deq_bytes,
        "{ctx}: per-class service bytes != dequeued bytes"
    );
    assert_eq!(
        snap.resident(),
        live_len as i128,
        "{ctx}: page resident count != scheduler len"
    );
}

/// Drive one core scheduler (counting observer attached at
/// construction, telemetry page via `attach`) through `ops` at a
/// slowly advancing clock, then reconcile page against observer.
fn check_core_scheduler<S: Scheduler>(
    mut sched: S,
    counts: Rc<RefCell<CountingObserver>>,
    sink: TelemetrySink,
    ops: &[Op],
    ctx: &str,
) {
    let mut pf = PacketFactory::new();
    let mut now = SimTime::ZERO;
    for f in 0..FLOWS {
        sched.add_flow(FlowId(f + 1), Rate::kbps(8 * (f as u64 + 1)));
    }
    for op in ops {
        now += SimDuration::from_micros(50);
        match *op {
            Op::Enq(f, len) => {
                let pkt = pf.make(FlowId(f + 1), Bytes::new(len), now);
                let _ = sched.try_enqueue(now, pkt);
            }
            Op::Deq(k) => {
                for _ in 0..k {
                    if sched.dequeue(now).is_some() {
                        sched.on_departure(now);
                    }
                }
            }
            Op::DropHead(f) => {
                sched.drop_head(FlowId(f + 1));
            }
            Op::ForceRemove(f) => {
                sched.force_remove_flow(FlowId(f + 1));
            }
            Op::AddFlow(f, k) => {
                let _ = sched.try_reconfig(ReconfigCmd::AddFlow(FlowId(f + 1), Rate::kbps(k)));
            }
            Op::SetWeight(f, k) => {
                let _ = sched.try_reconfig(ReconfigCmd::SetWeight(FlowId(f + 1), Rate::kbps(k)));
            }
        }
    }
    let snap = sink.page().snapshot(SNAP_BUDGET).expect("snapshot");
    let truth = counts.borrow();
    assert_eq!(snap.enqueues, truth.enqueued, "{ctx}: enqueues");
    assert_eq!(snap.dequeues, truth.dequeued, "{ctx}: dequeues");
    assert_eq!(snap.head_drops, truth.dropped, "{ctx}: head drops");
    assert_eq!(snap.force_drops, truth.force_dropped, "{ctx}: force drops");
    assert_eq!(
        snap.force_removals, truth.flows_force_removed,
        "{ctx}: force removals"
    );
    check_page_self_consistency(&snap, sched.len(), ctx);
}

/// Drive an engine through `ops` via its `Scheduler` facade, recording
/// the driver-side ledger.
fn drive_engine<S: Scheduler>(eng: &mut S, ops: &[Op]) -> Ledger {
    let mut pf = PacketFactory::new();
    let mut now = SimTime::ZERO;
    let mut ledger = Ledger::default();
    for f in 0..FLOWS {
        eng.add_flow(FlowId(f + 1), Rate::kbps(8 * (f as u64 + 1)));
    }
    for op in ops {
        now += SimDuration::from_micros(50);
        match *op {
            Op::Enq(f, len) => {
                let pkt = pf.make(FlowId(f + 1), Bytes::new(len), now);
                ledger.offered += 1;
                match eng.try_enqueue(now, pkt) {
                    Ok(()) => {}
                    Err(_) => ledger.refused += 1,
                }
            }
            Op::Deq(k) => {
                for _ in 0..k {
                    if let Ok(Some(_)) = eng.try_dequeue(now) {
                        ledger.departures += 1;
                    }
                }
            }
            Op::DropHead(f) => {
                if eng.drop_head(FlowId(f + 1)).is_some() {
                    ledger.head_drops += 1;
                }
            }
            Op::ForceRemove(f) => {
                ledger.force_drops += eng.force_remove_flow(FlowId(f + 1)) as u64;
            }
            Op::AddFlow(f, k) => {
                let _ = eng.try_reconfig(ReconfigCmd::AddFlow(FlowId(f + 1), Rate::kbps(k)));
            }
            Op::SetWeight(f, k) => {
                let _ = eng.try_reconfig(ReconfigCmd::SetWeight(FlowId(f + 1), Rate::kbps(k)));
            }
        }
    }
    // Drain to quiescence so the conservation identity closes exactly.
    while let Ok(Some(_)) = eng.try_dequeue(now) {
        ledger.departures += 1;
    }
    ledger
}

/// Reconcile an engine snapshot against the driver ledger.
fn check_engine_snapshot(snap: &EngineSnapshot, ledger: &Ledger, ctx: &str) {
    assert_eq!(snap.engine.offered, ledger.offered, "{ctx}: offered");
    assert_eq!(
        snap.engine.refused_total(),
        ledger.refused,
        "{ctx}: refusals"
    );
    assert_eq!(snap.totals.dequeues, ledger.departures, "{ctx}: departures");
    assert_eq!(
        snap.totals.head_drops, ledger.head_drops,
        "{ctx}: head drops"
    );
    assert_eq!(
        snap.totals.force_drops, ledger.force_drops,
        "{ctx}: force drops"
    );
    // Accepted packets all reached a shard scheduler (quiescent), and
    // every one of them departed or was dropped by an eviction hook.
    assert_eq!(
        snap.totals.enqueues,
        ledger.offered - ledger.refused,
        "{ctx}: accepted != shard enqueues"
    );
    assert_eq!(snap.conservation_gap(), 0, "{ctx}: conservation gap");
}

fn engine_snapshot(hub: &Arc<TelemetryHub>) -> EngineSnapshot {
    Aggregator::new(Arc::clone(hub))
        .snapshot(SNAP_BUDGET)
        .expect("engine snapshot")
}

fn check_all(ops: &[Op]) {
    // Layer 1: the four core schedulers against the counting observer.
    {
        let c = Rc::new(RefCell::new(CountingObserver::new()));
        let sink = TelemetrySink::new();
        let mut s = Sfq::with_observer(TieBreak::default(), Rc::clone(&c));
        s.attach_telemetry(sink.clone());
        check_core_scheduler(s, c, sink, ops, "Sfq");
    }
    {
        let c = Rc::new(RefCell::new(CountingObserver::new()));
        let sink = TelemetrySink::new();
        let mut s = SfqFast::with_observer(TieBreak::default(), Rc::clone(&c));
        s.attach_telemetry(sink.clone());
        check_core_scheduler(s, c, sink, ops, "SfqFast");
    }
    {
        let c = Rc::new(RefCell::new(CountingObserver::new()));
        let sink = TelemetrySink::new();
        let mut s = ScfqFast::with_observer(Rc::clone(&c));
        s.attach_telemetry(sink.clone());
        check_core_scheduler(s, c, sink, ops, "ScfqFast");
    }
    {
        let c = Rc::new(RefCell::new(CountingObserver::new()));
        let sink = TelemetrySink::new();
        let mut s = Scfq::with_observer(Rc::clone(&c));
        s.attach_telemetry(sink.clone());
        check_core_scheduler(s, c, sink, ops, "Scfq");
    }

    // Layer 2: the engine, small rings so backpressure refusals
    // actually fire.
    let cfg = EngineConfig::new(3).batch(4).ring_capacity(16);
    let mut sync = SyncEngine::new(cfg);
    let sync_hub = sync.attach_telemetry();
    assert!(
        Arc::ptr_eq(&sync_hub, &sync.attach_telemetry()),
        "a second attach returns the same hub"
    );
    let sync_ledger = drive_engine(&mut sync, ops);
    check_engine_snapshot(&engine_snapshot(&sync_hub), &sync_ledger, "SyncEngine");
}

/// One round of the per-packet-vs-per-batch schedule: the clock steps,
/// a burst of `(flow index, length)` arrives at one instant, the clock
/// steps again, and up to `take` packets leave at one instant.
#[derive(Clone, Debug)]
struct Round {
    gap_ns: [i128; 2],
    burst: Vec<(u32, u64)>,
    take: usize,
}

fn rounds() -> impl Strategy<Value = Vec<Round>> {
    // Steps from a nanosecond to tens of milliseconds, so the sojourn of
    // a packet that waits a few rounds can land anywhere in between.
    let gap = || (0u32..26, 1i128..8).prop_map(|(k, m)| m << k);
    let burst = prop::collection::vec((0..FLOWS, 64u64..1500), 0..12);
    prop::collection::vec(
        (gap(), gap(), burst, 0usize..10).prop_map(|(g0, g1, burst, take)| Round {
            gap_ns: [g0, g1],
            burst,
            take,
        }),
        1..60,
    )
}

/// Drive two copies of one scheduler through `rounds` — one a packet at
/// a time, one a batch at a time — comparing their pages after every
/// call. Returns the final page.
fn check_batch_identity<S: Scheduler>(
    mk: impl Fn() -> (S, Rc<RefCell<CountingObserver>>, TelemetrySink),
    rounds: &[Round],
    ctx: &str,
) -> PageSnapshot {
    let (mut single, single_counts, single_page) = mk();
    let (mut batched, batched_counts, batched_page) = mk();
    for s in [&mut single, &mut batched] {
        for f in 0..FLOWS {
            s.add_flow(FlowId(f + 1), Rate::kbps(8 * (f as u64 + 1)));
        }
    }
    let pages_agree = |call: &str, round: usize| {
        let snap = batched_page.snapshot(SNAP_BUDGET).expect("snapshot");
        assert_eq!(
            single_page.snapshot(SNAP_BUDGET).expect("snapshot"),
            snap,
            "{ctx}: pages differ after the {call} of round {round}"
        );
        snap
    };
    let (mut pf, mut now) = (PacketFactory::new(), SimTime::ZERO);
    let mut out = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        now += SimDuration::from_nanos(r.gap_ns[0]);
        let burst: Vec<Packet> = r
            .burst
            .iter()
            .map(|&(f, len)| pf.make(FlowId(f + 1), Bytes::new(len), now))
            .collect();
        for &p in &burst {
            single.enqueue(now, p);
        }
        batched.enqueue_batch(now, &burst);
        pages_agree("enqueue", i);

        now += SimDuration::from_nanos(r.gap_ns[1]);
        out.clear();
        batched.dequeue_batch(now, r.take, &mut out);
        for p in &out {
            assert_eq!(single.dequeue(now).map(|q| q.uid), Some(p.uid), "{ctx}");
            single.on_departure(now);
        }
        pages_agree("dequeue", i);
    }
    let snap = pages_agree("last call", rounds.len());
    for counts in [single_counts, batched_counts] {
        let truth = counts.borrow();
        assert_eq!(snap.enqueues, truth.enqueued, "{ctx}: enqueues");
        assert_eq!(snap.dequeues, truth.dequeued, "{ctx}: dequeues");
    }
    check_page_self_consistency(&snap, batched.len(), ctx);
    snap
}

/// [`check_batch_identity`] over `SfqFast`, `ScfqFast` and `Sfq`.
/// Returns the `Sfq` page.
fn check_batch_identity_on_all(rounds: &[Round]) -> PageSnapshot {
    type Counts = Rc<RefCell<CountingObserver>>;
    /// `mk(observer)` with a fresh counting observer and a fresh page.
    fn paged<A: TagArith, V: VtRule>(
        mk: impl Fn(Counts) -> TagSched<A, V, Counts>,
    ) -> impl Fn() -> (TagSched<A, V, Counts>, Counts, TelemetrySink) {
        move || {
            let counts = Rc::new(RefCell::new(CountingObserver::new()));
            let sink = TelemetrySink::new();
            let mut s = mk(Rc::clone(&counts));
            s.attach_telemetry(sink.clone());
            (s, counts, sink)
        }
    }
    let tie = TieBreak::default();
    check_batch_identity(paged(|c| SfqFast::with_observer(tie, c)), rounds, "SfqFast");
    check_batch_identity(paged(ScfqFast::with_observer), rounds, "ScfqFast");
    check_batch_identity(paged(|c| Sfq::with_observer(tie, c)), rounds, "Sfq")
}

proptest! {
    #[test]
    fn telemetry_matches_counting_observer(ops in ops()) {
        check_all(&ops);
    }

    #[test]
    fn batch_calls_leave_the_pages_single_calls_leave(rounds in rounds()) {
        check_batch_identity_on_all(&rounds);
    }
}

/// Pinned per-packet-vs-per-batch schedule: always runs, with gaps
/// growing from nanoseconds to milliseconds and back so that the
/// sojourns fill a good part of the delay histogram.
#[test]
fn pinned_batches_leave_the_pages_single_calls_leave() {
    let rounds: Vec<Round> = (0..48u32)
        .map(|i| Round {
            gap_ns: [3i128.pow(i % 13), 5i128.pow((i + 4) % 11)],
            burst: (0..(i * 7) % 11)
                .map(|j| ((i + j) % FLOWS, 64 + ((i * 131 + j * 17) % 1400) as u64))
                .collect(),
            take: ((i * 5) % 9) as usize,
        })
        .collect();
    let snap = check_batch_identity_on_all(&rounds);
    assert!(snap.dequeues > 100, "{} departures", snap.dequeues);
    let filled = snap.delay_hist.iter().filter(|&&n| n > 0).count();
    assert!(filled >= 5, "only {filled} delay buckets filled");
}

/// Pinned schedule: always runs, exercising every op kind including
/// refusals (ring capacity 16 with a 40-packet burst) and churn.
#[test]
fn pinned_schedule_holds_the_identities() {
    let mut ops = Vec::new();
    for i in 0..40u32 {
        ops.push(Op::Enq(i % FLOWS, 700 + i as u64));
    }
    ops.push(Op::SetWeight(1, 13));
    ops.push(Op::Deq(6));
    ops.push(Op::DropHead(2));
    ops.push(Op::ForceRemove(3));
    ops.push(Op::Enq(3, 900)); // refused: flow 4 was just removed
    ops.push(Op::AddFlow(3, 21));
    ops.push(Op::Enq(3, 901));
    ops.push(Op::Deq(50));
    check_all(&ops);
}
