//! The zero-allocation data path's correctness contract (see
//! `docs/pooling.md`), checked differentially: every scheduler built
//! on the pooled `FlowFifos` backend (slab packet pool + intrusive
//! per-flow links + generation-checked dense flow table) must be **bit
//! identical** to the same scheduler on the owned backend (`HashMap` +
//! `VecDeque` per flow) — same dequeue order, same fallible-enqueue
//! outcomes, and, via trace-collecting observers, identical event
//! streams, tags included.
//!
//! Unlike the fixed-point suite, the obligation here is unconditional:
//! the two backends run the *same* tag arithmetic, so identity must
//! hold for arbitrary weights, any tie-break rule, with virtual-time
//! rebasing on or off, and across flow churn (`force_remove_flow` and
//! re-registration, which exercises the pooled backend's generation
//! checks).
//!
//! The `*_reregistration_is_bit_identical` tests hold callers that
//! re-register a flow before every enqueue and reweigh (an `add_flow`
//! on a registered flow keeps its tag state) to the same identity.
//!
//! Failures replay through the conformance `pool` preset
//! (`conformance replay: preset=pool seed=N`).

use proptest::prelude::*;
use sfq_repro::core::DEFAULT_SHIFT;
use sfq_repro::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded observer event, tags as exact rationals.
type Event = (u8, SimTime, u32, u64, u64, Ratio, Ratio, Ratio);

#[derive(Debug, Default)]
struct Trace {
    events: Vec<Event>,
}

impl Trace {
    fn record(&mut self, kind: u8, ev: &SchedEvent) {
        self.events.push((
            kind,
            ev.time,
            ev.flow.0,
            ev.uid,
            ev.len.as_u64(),
            ev.start_tag,
            ev.finish_tag,
            ev.v,
        ));
    }
}

impl SchedObserver for Trace {
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        self.record(0, ev);
    }
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        self.record(1, ev);
    }
    fn on_drop(&mut self, ev: &SchedEvent) {
        self.record(2, ev);
    }
    fn on_flow_change(&mut self, flow: FlowId, _change: &sfq_repro::core::obs::FlowChange) {
        // Record flow lifecycle as a pseudo-event so force-remove /
        // revive sequencing is part of the differential contract too.
        self.events.push((
            3,
            SimTime::ZERO,
            flow.0,
            0,
            0,
            Ratio::ZERO,
            Ratio::ZERO,
            Ratio::ZERO,
        ));
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Enqueue a packet of the given length for flow index `0..4`.
    Enq(usize, u64),
    /// Dequeue one packet (if any) and complete its transmission.
    Deq,
    /// Force-remove flow index `0..4` mid-backlog (the churn fault).
    ForceRemove(usize),
    /// Re-register flow index `0..4` (revives a removed flow; for a
    /// live flow this is the idempotent weight refresh).
    Revive(usize),
    /// Discard the head-of-line packet of flow index `0..4` (the
    /// head-drop overload policy; leaves a stale heap entry behind).
    DropHead(usize),
    /// Dequeue up to this many packets through `dequeue_batch`.
    DeqBatch(usize),
    /// Live-reweigh flow index `0..4` (rewrites its queued tags behind
    /// the head).
    SetWeight(usize, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        // The shim's prop_oneof! is unweighted; repeating the hot arms
        // biases toward enqueue/dequeue with occasional churn faults.
        prop_oneof![
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            Just(Op::Deq),
            Just(Op::Deq),
            Just(Op::Deq),
            (0usize..4).prop_map(Op::ForceRemove),
            (0usize..4).prop_map(Op::Revive),
            (0usize..4).prop_map(Op::DropHead),
            (1usize..6).prop_map(Op::DeqBatch),
            (0usize..4, 500u64..50_000).prop_map(|(f, w)| Op::SetWeight(f, w)),
        ],
        1..200,
    )
}

fn weights() -> impl Strategy<Value = [u64; 4]> {
    (
        500u64..50_000,
        500u64..50_000,
        500u64..50_000,
        500u64..50_000,
    )
        .prop_map(|(a, b, c, d)| [a, b, c, d])
}

fn rebasing() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn ties() -> impl Strategy<Value = TieBreak> {
    prop_oneof![
        Just(TieBreak::Fifo),
        Just(TieBreak::LowWeightFirst),
        Just(TieBreak::HighWeightFirst),
    ]
}

/// Drive `sched` through `ops` (flow ids 1..=4 at rates `ws[i]`),
/// returning the departure order (drops marked), per-op enqueue and
/// reweigh outcomes, and the full observer trace.
fn run_ops<S: Scheduler>(
    sched: S,
    trace: Rc<RefCell<Trace>>,
    ws: &[u64; 4],
    ops: &[Op],
) -> (Vec<u64>, Vec<bool>, Vec<Event>) {
    drive(sched, trace, ws, ops, false)
}

fn drive<S: Scheduler>(
    mut sched: S,
    trace: Rc<RefCell<Trace>>,
    ws: &[u64; 4],
    ops: &[Op],
    reregister: bool,
) -> (Vec<u64>, Vec<bool>, Vec<Event>) {
    let mut pf = PacketFactory::new();
    let now = SimTime::ZERO;
    for (i, &w) in ws.iter().enumerate() {
        sched.add_flow(FlowId(i as u32 + 1), Rate::bps(w));
    }
    let mut order = Vec::new();
    let mut outcomes = Vec::new();
    for op in ops {
        match *op {
            Op::Enq(f, len) => {
                if reregister {
                    sched.add_flow(FlowId(f as u32 + 1), Rate::bps(ws[f]));
                }
                let pkt = pf.make(FlowId(f as u32 + 1), Bytes::new(len), now);
                outcomes.push(sched.try_enqueue(now, pkt).is_ok());
            }
            Op::Deq => {
                if let Some(p) = sched.dequeue(now) {
                    sched.on_departure(now);
                    order.push(p.uid);
                }
            }
            Op::ForceRemove(f) => {
                sched.force_remove_flow(FlowId(f as u32 + 1));
            }
            Op::Revive(f) => {
                sched.add_flow(FlowId(f as u32 + 1), Rate::bps(ws[f]));
            }
            Op::DropHead(f) => {
                // A dropped packet leaves like a served one, marked.
                let dropped = sched.drop_head(FlowId(f as u32 + 1));
                order.extend(dropped.map(|p| !p.uid));
            }
            Op::DeqBatch(max) => {
                let mut out = Vec::new();
                sched.dequeue_batch(now, max, &mut out);
                order.extend(out.iter().map(|p| p.uid));
            }
            Op::SetWeight(f, w) => {
                let flow = FlowId(f as u32 + 1);
                if reregister {
                    sched.add_flow(flow, Rate::bps(ws[f]));
                }
                outcomes.push(sched.try_set_weight(flow, Rate::bps(w)).is_ok());
            }
        }
    }
    while let Some(p) = sched.dequeue(now) {
        sched.on_departure(now);
        order.push(p.uid);
    }
    let events = std::mem::take(&mut trace.borrow_mut().events);
    (order, outcomes, events)
}

fn assert_identical(
    a: (Vec<u64>, Vec<bool>, Vec<Event>),
    b: (Vec<u64>, Vec<bool>, Vec<Event>),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.0, &b.0, "dequeue orders diverged");
    prop_assert_eq!(&a.1, &b.1, "enqueue outcomes diverged");
    prop_assert_eq!(a.2.len(), b.2.len(), "event counts diverged");
    for (i, (x, y)) in a.2.iter().zip(&b.2).enumerate() {
        prop_assert_eq!(x, y, "event #{} diverged", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sfq pooled vs owned: identity across tie-break rules, rebasing
    /// and churn.
    #[test]
    fn sfq_pooled_is_bit_identical_to_owned(
        tie in ties(), rebase in rebasing(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let mut pooled = Sfq::with_parts(tie, Rc::clone(&tp), FifoBackend::Pooled);
        let mut owned = Sfq::with_parts(tie, Rc::clone(&to), FifoBackend::Owned);
        if rebase {
            pooled.enable_rebasing(8);
            owned.enable_rebasing(8);
        }
        let rp = run_ops(pooled, tp, &ws, &ops);
        let ro = run_ops(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// SfqFast pooled vs owned, same obligation on the fixed-point
    /// path.
    #[test]
    fn sfq_fast_pooled_is_bit_identical_to_owned(
        tie in ties(), rebase in rebasing(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let mut pooled =
            SfqFast::with_parts(tie, DEFAULT_SHIFT, Rc::clone(&tp), FifoBackend::Pooled)
                .expect("default shift is valid");
        let mut owned =
            SfqFast::with_parts(tie, DEFAULT_SHIFT, Rc::clone(&to), FifoBackend::Owned)
                .expect("default shift is valid");
        if rebase {
            pooled.enable_rebasing(8);
            owned.enable_rebasing(8);
        }
        let rp = run_ops(pooled, tp, &ws, &ops);
        let ro = run_ops(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// Scfq pooled vs owned.
    #[test]
    fn scfq_pooled_is_bit_identical_to_owned(
        rebase in rebasing(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let mut pooled = Scfq::with_parts(Rc::clone(&tp), FifoBackend::Pooled);
        let mut owned = Scfq::with_parts(Rc::clone(&to), FifoBackend::Owned);
        if rebase {
            pooled.enable_rebasing(8);
            owned.enable_rebasing(8);
        }
        let rp = run_ops(pooled, tp, &ws, &ops);
        let ro = run_ops(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// ScfqFast pooled vs owned.
    #[test]
    fn scfq_fast_pooled_is_bit_identical_to_owned(
        rebase in rebasing(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let mut pooled = ScfqFast::with_parts(DEFAULT_SHIFT, Rc::clone(&tp), FifoBackend::Pooled)
            .expect("default shift is valid");
        let mut owned = ScfqFast::with_parts(DEFAULT_SHIFT, Rc::clone(&to), FifoBackend::Owned)
            .expect("default shift is valid");
        if rebase {
            pooled.enable_rebasing(8);
            owned.enable_rebasing(8);
        }
        let rp = run_ops(pooled, tp, &ws, &ops);
        let ro = run_ops(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// The sharded engine facade with pooled shards vs owned shards:
    /// the backend choice must be invisible through ingest → pump →
    /// drain too (churn ops are no-ops here — the facade's
    /// `force_remove_flow` is the trait default — so this closes over
    /// the enqueue/dequeue surface).
    #[test]
    fn engine_facade_pooled_is_bit_identical_to_owned(
        ws in weights(), ops in ops()
    ) {
        use sfq_engine::{EngineConfig, SyncEngine};
        let mk = |backend: FifoBackend, trace: Rc<RefCell<Trace>>| {
            SyncEngine::from_factory(
                EngineConfig::new(3).batch(4).ring_capacity(64),
                move |_| Sfq::with_parts(TieBreak::Fifo, Rc::clone(&trace), backend),
            )
        };
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let pooled = mk(FifoBackend::Pooled, Rc::clone(&tp));
        let owned = mk(FifoBackend::Owned, Rc::clone(&to));
        // Reweighing is left to the four scheduler-level tests: every
        // one re-prices a shard at the root arbiter, whose exact tags
        // leave `i128` under a script of arbitrary weights (`dequeue`
        // panics on that `TagOverflow`, on either backend).
        let ops: Vec<Op> = ops
            .into_iter()
            .filter(|op| !matches!(op, Op::SetWeight(..)))
            .collect();
        let rp = run_ops(pooled, tp, &ws, &ops);
        let ro = run_ops(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// Sfq pooled vs owned under register-before-enqueue discipline.
    #[test]
    fn sfq_reregistration_is_bit_identical(
        tie in ties(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let pooled = Sfq::with_parts(tie, Rc::clone(&tp), FifoBackend::Pooled);
        let owned = Sfq::with_parts(tie, Rc::clone(&to), FifoBackend::Owned);
        let rp = run_ops_reregistering(pooled, tp, &ws, &ops);
        let ro = run_ops_reregistering(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// SfqFast, same obligation on the fixed-point path.
    #[test]
    fn sfq_fast_reregistration_is_bit_identical(
        tie in ties(), ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let pooled = SfqFast::with_parts(tie, DEFAULT_SHIFT, Rc::clone(&tp), FifoBackend::Pooled)
            .expect("default shift is valid");
        let owned = SfqFast::with_parts(tie, DEFAULT_SHIFT, Rc::clone(&to), FifoBackend::Owned)
            .expect("default shift is valid");
        let rp = run_ops_reregistering(pooled, tp, &ws, &ops);
        let ro = run_ops_reregistering(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// Scfq, same obligation.
    #[test]
    fn scfq_reregistration_is_bit_identical(
        ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let pooled = Scfq::with_parts(Rc::clone(&tp), FifoBackend::Pooled);
        let owned = Scfq::with_parts(Rc::clone(&to), FifoBackend::Owned);
        let rp = run_ops_reregistering(pooled, tp, &ws, &ops);
        let ro = run_ops_reregistering(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }

    /// ScfqFast, same obligation.
    #[test]
    fn scfq_fast_reregistration_is_bit_identical(
        ws in weights(), ops in ops()
    ) {
        let tp = Rc::new(RefCell::new(Trace::default()));
        let to = Rc::new(RefCell::new(Trace::default()));
        let pooled = ScfqFast::with_parts(DEFAULT_SHIFT, Rc::clone(&tp), FifoBackend::Pooled)
            .expect("default shift is valid");
        let owned = ScfqFast::with_parts(DEFAULT_SHIFT, Rc::clone(&to), FifoBackend::Owned)
            .expect("default shift is valid");
        let rp = run_ops_reregistering(pooled, tp, &ws, &ops);
        let ro = run_ops_reregistering(owned, to, &ws, &ops);
        assert_identical(rp, ro)?;
    }
}

/// Like [`run_ops`], but re-registers a flow immediately before every
/// enqueue and reweigh.
fn run_ops_reregistering<S: Scheduler>(
    sched: S,
    trace: Rc<RefCell<Trace>>,
    ws: &[u64; 4],
    ops: &[Op],
) -> (Vec<u64>, Vec<bool>, Vec<Event>) {
    drive(sched, trace, ws, ops, true)
}

/// The same obligation as the proptests, reproduced from a conformance
/// replay line — the failure-message round trip every pooled-backend
/// report promises.
#[test]
fn pool_preset_replay_line_reproduces_the_differential_check() {
    use conformance::{run_pool_conformance, Preset, Scenario};
    let sc = Scenario::from_seed(Preset::Pool, 5);
    assert_eq!(sc.replay_line(), "conformance replay: preset=pool seed=5");
    let back = Scenario::from_replay_line(&sc.replay_line()).expect("round trip");
    assert_eq!(back.preset, Preset::Pool);
    assert_eq!(back.seed, 5);
    let out = run_pool_conformance(&back).unwrap_or_else(|d| panic!("{d}"));
    assert!(out.compared > 0);
}

/// The proptests above never hold more than a few hundred heap
/// entries; the head-of-flow heap only prefetches ahead of its descent
/// once it outgrows cache (`sfq_core::flowq::HeadHeap`, docs/pooling.md).
/// This drives that branch through the real scheduler: 200 000 flows
/// two packets deep (6 MB of heap), a closed loop of served-then-
/// re-offered flows, and every source of stale heap entries —
/// `force_remove_flow` handing its freed slot (generation bumped) to the
/// flow registered next, `drop_head`, and `remove_flow` on flows that
/// drained — with the pooled backend held to the owned oracle's exact
/// departure order.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows() {
    pooled_matches_owned_at_200k_flows(None);
}

/// The same scenario served 32 at a time through `dequeue_batch`, so
/// the batch path's dequeue look-ahead (and its run path, which moves a
/// flow slot's `head`/`second` several packets per heap pass) works past
/// the heap's cold threshold against the oracle too.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows_in_batches() {
    pooled_matches_owned_at_200k_flows(Some(32));
}

/// `batch`: `None` serves through `dequeue` + `on_departure`, `Some(n)`
/// through `dequeue_batch(n)`.
fn pooled_matches_owned_at_200k_flows(batch: Option<usize>) {
    const FLOWS: u32 = 200_000;
    let weight = |f: u32| Rate::kbps(64 + (f % 512) as u64);
    let len = |uid: u64| Bytes::new(64 + uid.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1437);
    let run = |backend: FifoBackend| {
        let mut s = SfqFast::with_parts(TieBreak::Fifo, DEFAULT_SHIFT, NoopObserver, backend)
            .expect("default shift is valid");
        let now = SimTime::ZERO;
        let mut uid = 0u64;
        let mut offer = |s: &mut SfqFast, f: u32| {
            // Register-before-enqueue: a removed flow comes back.
            s.add_flow(FlowId(f), weight(f));
            let p = Packet {
                flow: FlowId(f),
                seq: uid + 1,
                len: len(uid),
                arrival: now,
                uid,
            };
            uid += 1;
            s.enqueue(now, p);
        };
        for _ in 0..2 {
            for f in 0..FLOWS {
                offer(&mut s, f);
            }
        }
        // Stale entries: a removed flow's entry stays behind, and so
        // does a dropped head's while the new head gets its own.
        let mut dropped = 0;
        for f in (0..FLOWS).step_by(97) {
            dropped += s.force_remove_flow(FlowId(f));
            offer(&mut s, f);
        }
        for f in (0..FLOWS).step_by(89) {
            dropped += usize::from(s.drop_head(FlowId(f)).is_some());
        }
        let stale_after_faults = s.head_heap_len() - FLOWS as usize;
        // Closed loop: every third departure's flow is re-offered, the
        // others drain towards empty and are removed once idle.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut served = 0usize;
        let mut out = Vec::new();
        let mut serve = |s: &mut SfqFast, out: &mut Vec<Packet>| {
            out.clear();
            match batch {
                Some(max) => {
                    s.dequeue_batch(now, max, out);
                }
                None => {
                    if let Some(p) = s.dequeue(now) {
                        s.on_departure(now);
                        out.push(p);
                    }
                }
            }
            for p in out.iter() {
                digest = (digest ^ p.uid).wrapping_mul(0x0100_0000_01b3);
            }
            served += out.len();
            !out.is_empty()
        };
        let mut i = 0;
        let mut removed = 0usize;
        while i < 300_000 {
            assert!(serve(&mut s, &mut out), "backlog outlasts the loop");
            for p in &out {
                if i % 3 == 0 {
                    offer(&mut s, p.flow.0);
                } else {
                    removed += usize::from(s.remove_flow(p.flow));
                }
                i += 1;
            }
        }
        while serve(&mut s, &mut out) {}
        assert_eq!(served + dropped, uid as usize, "every packet accounted for");
        (digest, served, stale_after_faults, removed)
    };
    let (dp, np, stale_p, removed_p) = run(FifoBackend::Pooled);
    let (d_o, n_o, stale_o, removed_o) = run(FifoBackend::Owned);
    assert_eq!((dp, np), (d_o, n_o), "departure order diverged");
    assert_eq!(stale_p, stale_o, "stale heap entries diverged");
    assert!(stale_p > 2_000, "the faults left stale entries: {stale_p}");
    assert_eq!(removed_p, removed_o, "idle removals diverged");
    assert!(removed_p > 1_000, "idle flows were removed: {removed_p}");
}
