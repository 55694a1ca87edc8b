//! The tag-scheduler core, checked once per instantiation.
//!
//! `Sfq`, `SfqFast`, `Scfq`, `ScfqFast`, `VirtualClock`, `DelayEdd`,
//! `Wfq` and `Fqs` are eight aliases of one `TagSched<A, V>`, so their
//! unit tests are one table: every check is a function generic over the
//! arithmetic `A` and the virtual-time rule `V`, stamped out as
//! `#[test]`s by [`table!`] over the SFQ and SCFQ aliases, or over all
//! eight. Where the expected value depends on the rule (which tag orders
//! service, what `v(t)` reads during service, whether its clock is
//! external) or on the arithmetic (whether the eager-rebase threshold is
//! clamped), the check says so through [`finish_ordered`] /
//! `VtClock::EXTERNAL` / `A::FIXED` instead of being copied per type.
//!
//! Weights are powers of two and lengths multiples of 128 bytes, so
//! every `l/r` sits on the fixed-point grid and both arithmetics must
//! produce the *same* tags: 128 B at 1024 bit/s spans exactly 1.

use proptest::prelude::*;
use sfq_core::obs::{NoopObserver, SchedEvent, SchedObserver};
use sfq_core::{
    Deadline, Exact, FinishClock, Fixed, FlowId, Fqs, GpsFinish, GpsStart, Packet, PacketFactory,
    ScfqFast, SchedError, Scheduler, Sfq, SfqFast, StartClock, TagArith, TagSched, TelemetrySink,
    TieBreak, VtClock, VtRule, WallClock, Wfq, DEFAULT_SHIFT, MAX_REBASE_BITS, MAX_SHIFT,
};
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

const T0: SimTime = SimTime::ZERO;

/// Stamp each generic check `fn name<A, V>()` out as one `#[test]` per
/// row `row: A V` of the bracketed list.
macro_rules! table {
    ($rows:tt $($name:ident),+ $(,)?) => {$( table!(@check $rows $name); )+};
    (@check [$($row:ident: $a:ident $v:ident),+] $name:ident) => {
        mod $name {
            use super::*;
            $( #[test] fn $row() { super::$name::<$a, $v>() } )+
        }
    };
}

/// How a check builds its scheduler under rule `V`: by default, or
/// around a fluid server for a GPS rule.
trait Fresh<A: TagArith>: VtRule + Sized {
    fn fresh<O: SchedObserver + Default>() -> TagSched<A, Self, O>;
}

macro_rules! fresh_by_default {
    ($($v:ident),+) => {$(
        impl<A: TagArith + Default> Fresh<A> for $v {
            fn fresh<O: SchedObserver + Default>() -> TagSched<A, Self, O> {
                TagSched::default()
            }
        }
    )+};
}

fresh_by_default!(StartClock, FinishClock, WallClock, Deadline);

/// The GPS rules' fluid server. Their checks run at `T0`, so the fluid
/// clock reads zero throughout.
const CAPACITY: Rate = Rate::bps(1 << 14);

impl Fresh<Exact> for GpsFinish {
    fn fresh<O: SchedObserver + Default>() -> Wfq<O> {
        Wfq::with_observer(CAPACITY, O::default())
    }
}

impl Fresh<Exact> for GpsStart {
    fn fresh<O: SchedObserver + Default>() -> Fqs<O> {
        Fqs::with_observer(CAPACITY, O::default())
    }
}

fn fresh<A: TagArith, V: Fresh<A>>() -> TagSched<A, V> {
    V::fresh::<NoopObserver>()
}

/// Whether rule `V` serves in finish-tag order (SCFQ) rather than
/// start-tag order (SFQ): read off the rule's own key mapping.
fn finish_ordered<V: VtRule>() -> bool {
    V::tags("key", "meta").1 == "key"
}

fn int(n: i128) -> Ratio {
    Ratio::from_int(n)
}

/// Scheduler with flows 1 and 2 at 1024 bit/s (span of 128 B = 1).
fn setup2<A: TagArith, V: Fresh<A>>() -> (TagSched<A, V>, PacketFactory) {
    let mut s = fresh::<A, V>();
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    s.add_flow(FlowId(2), Rate::bps(1 << 10));
    (s, PacketFactory::new())
}

fn pkt(pf: &mut PacketFactory, flow: u32, len: u64) -> Packet {
    pf.make(FlowId(flow), Bytes::new(len), T0)
}

/// Dequeue + depart until empty, returning the uid order.
fn drain<S: Scheduler>(s: &mut S) -> Vec<u64> {
    std::iter::from_fn(|| {
        let p = s.dequeue(T0)?;
        s.on_departure(T0);
        Some(p.uid)
    })
    .collect()
}

fn name_and_panic_prefix_come_from_the_instantiation<A: TagArith, V: Fresh<A>>() {
    let expected = match (A::FIXED, finish_ordered::<V>()) {
        (false, false) => "SFQ",
        (true, false) => "SFQ-FAST",
        (false, true) => "SCFQ",
        (true, true) => "SCFQ-FAST",
    };
    let mut s = fresh::<A, V>();
    assert_eq!(s.name(), expected);
    let mut pf = PacketFactory::new();
    let p = pkt(&mut pf, 9, 10);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.enqueue(T0, p)));
    let msg = *panic.unwrap_err().downcast::<String>().unwrap();
    assert_eq!(msg, format!("{expected}: unregistered flow {}", FlowId(9)));
}

fn tags_follow_eq4_eq5<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let p1 = pkt(&mut pf, 1, 128);
    let p2 = pkt(&mut pf, 1, 128);
    s.enqueue(T0, p1);
    s.enqueue(T0, p2);
    // First packet: S = max(v=0, F0=0) = 0, F = 1.
    assert_eq!(s.tags_of(p1.uid), Some((int(0), int(1))));
    // Second: S = F(p1) = 1, F = 2.
    assert_eq!(s.tags_of(p2.uid), Some((int(1), int(2))));
}

fn serves_in_key_tag_order_across_flows<A: TagArith, V: Fresh<A>>() {
    // Equal weights: flow 1 holds tags (0,1),(1,2), flow 2 (0,1). By
    // start tag or by finish tag, a and c tie (uid decides) and b is
    // last.
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128);
    let b = pkt(&mut pf, 1, 128);
    let c = pkt(&mut pf, 2, 128);
    for p in [a, b, c] {
        s.enqueue(T0, p);
    }
    assert_eq!(drain(&mut s), vec![a.uid, c.uid, b.uid]);
    // Unequal weights separate the rules: a = (0,1), b = (0,1/2). Start
    // order ties on 0 and serves a (older uid) first; finish order
    // serves b first.
    let mut s = fresh::<A, V>();
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    s.add_flow(FlowId(2), Rate::bps(1 << 11));
    let a = pkt(&mut pf, 1, 128);
    let b = pkt(&mut pf, 2, 128);
    s.enqueue(T0, a);
    s.enqueue(T0, b);
    let expected = if finish_ordered::<V>() {
        vec![b.uid, a.uid]
    } else {
        vec![a.uid, b.uid]
    };
    assert_eq!(drain(&mut s), expected);
}

fn virtual_time_is_key_tag_of_packet_in_service<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128); // (0, 1)
    let b = pkt(&mut pf, 1, 128); // (1, 2)
    s.enqueue(T0, a);
    s.enqueue(T0, b);
    assert_eq!(s.virtual_time(), int(0));
    let (v_a, v_b) = if finish_ordered::<V>() {
        (1, 2)
    } else {
        (0, 1)
    };
    s.dequeue(T0).unwrap();
    assert_eq!(s.virtual_time(), int(v_a));
    s.on_departure(T0);
    assert_eq!(s.virtual_time(), int(v_a), "kept between services");
    s.dequeue(T0).unwrap();
    assert_eq!(s.virtual_time(), int(v_b));
    // A flow 2 packet arriving now reads v(t), not flow 1's chain end:
    // S = max(v, 0).
    let c = pkt(&mut pf, 2, 128);
    s.enqueue(T0, c);
    assert_eq!(s.tags_of(c.uid).unwrap().0, int(v_b));
}

fn busy_period_end_sets_v_to_max_finish_served<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128);
    s.enqueue(T0, a);
    s.dequeue(T0).unwrap();
    s.on_departure(SimTime::from_secs(1));
    // Busy period over: v = F(a) = 1.
    assert_eq!(s.virtual_time(), int(1));
    // A later packet starts from that virtual time.
    let t5 = SimTime::from_secs(5);
    let b = pf.make(FlowId(2), Bytes::new(128), t5);
    s.enqueue(t5, b);
    assert_eq!(s.tags_of(b.uid).unwrap().0, int(1));
}

/// A slow flow's lone packet against a fast flow's burst: SFQ serves it
/// first (start tag 0, older uid); SCFQ's pathology makes it wait
/// behind every later arrival with a smaller finish tag.
fn slow_flow_packet_position_depends_on_the_rule<A: TagArith, V: Fresh<A>>() {
    let mut s = fresh::<A, V>();
    s.add_flow(FlowId(1), Rate::bps(1 << 7)); // slow: span 8
    s.add_flow(FlowId(2), Rate::bps(1 << 10)); // fast: span 1
    let mut pf = PacketFactory::new();
    let slow = pkt(&mut pf, 1, 128); // (0, 8)
    s.enqueue(T0, slow);
    let fast: Vec<u64> = (0..5)
        .map(|_| {
            let p = pkt(&mut pf, 2, 128); // F = 1..5
            s.enqueue(T0, p);
            p.uid
        })
        .collect();
    let order = drain(&mut s);
    if finish_ordered::<V>() {
        assert_eq!(order[..5], fast[..]);
        assert_eq!(order[5], slow.uid);
    } else {
        assert_eq!(order[0], slow.uid);
        assert_eq!(order[1..], fast[..]);
    }
}

fn backlog_counts_per_flow<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    assert!(s.dequeue(T0).is_none());
    assert!(s.is_empty());
    for flow in [1, 1, 2] {
        s.enqueue(T0, pkt(&mut pf, flow, 128));
    }
    assert_eq!(s.backlog(FlowId(1)), 2);
    assert_eq!(s.backlog(FlowId(2)), 1);
    assert_eq!(s.len(), 3);
    s.dequeue(T0).unwrap();
    assert_eq!(s.len(), 2);
    assert!(!s.is_empty());
}

fn heap_holds_one_entry_per_backlogged_flow<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    for _ in 0..10 {
        s.enqueue(T0, pkt(&mut pf, 1, 128));
    }
    for _ in 0..5 {
        s.enqueue(T0, pkt(&mut pf, 2, 128));
    }
    // 15 packets queued, but only 2 backlogged flows → 2 heap entries.
    assert_eq!(s.len(), 15);
    assert_eq!(s.head_heap_len(), 2);
    s.dequeue(T0).unwrap();
    s.on_departure(T0);
    assert_eq!(s.head_heap_len(), 2, "flow 1 still backlogged");
}

fn unregistered_flow_is_refused_and_panics<A: TagArith, V: Fresh<A>>() {
    let mut s = fresh::<A, V>();
    let mut pf = PacketFactory::new();
    let p = pkt(&mut pf, 9, 10);
    assert_eq!(
        s.try_enqueue(T0, p),
        Err(SchedError::UnknownFlow(FlowId(9)))
    );
    assert!(s.is_empty());
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.enqueue(T0, p)));
    let msg = *panic.unwrap_err().downcast::<String>().unwrap();
    assert!(
        msg.ends_with(&format!("unregistered flow {}", FlowId(9))),
        "{msg}"
    );
}

fn remove_flow_only_when_idle<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    s.enqueue(T0, pkt(&mut pf, 1, 128));
    assert!(!s.remove_flow(FlowId(1)), "backlogged flow stays");
    s.dequeue(T0).unwrap();
    s.on_departure(T0);
    assert_eq!(s.flow_last_finish(FlowId(1)), Some(int(1)));
    assert!(s.remove_flow(FlowId(1)));
    assert!(!s.remove_flow(FlowId(1)), "already gone");
    assert!(!s.remove_flow(FlowId(9)), "unknown flow");
    assert_eq!(s.flow_last_finish(FlowId(1)), None);
    // Re-registering starts a fresh tag chain.
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    assert_eq!(s.flow_last_finish(FlowId(1)), Some(int(0)));
}

fn force_remove_discards_backlog_and_keeps_counts_exact<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128);
    s.enqueue(T0, a);
    s.enqueue(T0, pkt(&mut pf, 1, 128));
    let b = pkt(&mut pf, 2, 128);
    s.enqueue(T0, b);
    assert_eq!(s.force_remove_flow(FlowId(1)), 2);
    assert_eq!(s.len(), 1);
    assert_eq!(s.backlog(FlowId(1)), 0);
    assert_eq!(s.tags_of(a.uid), None);
    // The stale heap entry for flow 1 is skipped; flow 2's packet
    // comes out and the scheduler drains cleanly.
    assert_eq!(drain(&mut s), vec![b.uid]);
    assert!(s.is_empty());
    assert_eq!(s.force_remove_flow(FlowId(9)), 0, "unknown flow is a no-op");
}

fn drop_head_then_force_remove<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128);
    s.enqueue(T0, a);
    s.enqueue(T0, pkt(&mut pf, 1, 128));
    let b = pkt(&mut pf, 2, 128);
    s.enqueue(T0, b);
    assert_eq!(s.drop_head(FlowId(1)).unwrap().uid, a.uid);
    // The dropped packet's span stays charged to the flow.
    assert_eq!(s.flow_last_finish(FlowId(1)), Some(int(2)));
    assert_eq!(s.force_remove_flow(FlowId(1)), 1);
    assert_eq!(s.len(), 1);
    assert_eq!(drain(&mut s), vec![b.uid]);
}

/// A zero weight is refused with a typed error — from registration and
/// from reconfiguration alike (which a wall-clock rule refuses as such)
/// — and leaves no trace.
fn zero_weight_is_a_typed_strict_noop<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let a = pkt(&mut pf, 1, 128);
    let b = pkt(&mut pf, 1, 128);
    s.enqueue(T0, a);
    s.enqueue(T0, b);
    let before = (s.tags_of(a.uid), s.tags_of(b.uid));
    let zero = Rate::bps(0);
    assert_eq!(
        s.try_add_flow(FlowId(1), zero),
        Err(SchedError::ZeroWeight(FlowId(1)))
    );
    assert_eq!(
        s.try_add_flow(FlowId(7), zero),
        Err(SchedError::ZeroWeight(FlowId(7)))
    );
    assert_eq!(
        s.try_set_weight(FlowId(1), zero),
        Err(if <V::Clock as VtClock>::EXTERNAL {
            SchedError::Unsupported
        } else {
            SchedError::ZeroWeight(FlowId(1))
        })
    );
    assert_eq!(s.live_flows(), 2, "refused flow was registered");
    assert_eq!((s.tags_of(a.uid), s.tags_of(b.uid)), before);
    // The registered weight still charges the next packet: span 1.
    let c = pkt(&mut pf, 1, 128);
    s.enqueue(T0, c);
    assert_eq!(s.tags_of(c.uid).map(|t| t.0), Some(int(2)));
    assert_eq!(s.flow_last_finish(FlowId(1)), Some(int(3)));
}

/// The observer sees every tag assignment with the same values the
/// diagnostic accessors report.
fn observer_reports_assigned_tags<A: TagArith, V: Fresh<A>>() {
    #[derive(Default)]
    struct Last(Vec<SchedEvent>);
    impl SchedObserver for Last {
        fn on_enqueue(&mut self, ev: &SchedEvent) {
            self.0.push(*ev);
        }
    }
    let mut s = V::fresh::<Last>();
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    let mut pf = PacketFactory::new();
    let p = pkt(&mut pf, 1, 128);
    s.enqueue(T0, p);
    let tags = s.tags_of(p.uid).unwrap();
    let ev = s.observer().0.last().unwrap();
    assert_eq!((ev.start_tag, ev.finish_tag), tags);
    assert_eq!(ev.uid, p.uid);
    assert_eq!(ev.v, int(0));
}

fn rebasing_shifts_tags_without_reordering<A: TagArith, V: Fresh<A>>() {
    let mut plain = fresh::<A, V>();
    let mut rebased = fresh::<A, V>();
    rebased.enable_rebasing(0); // rebase at every opportunity
    for s in [&mut plain, &mut rebased] {
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        s.add_flow(FlowId(2), Rate::bps(1 << 12));
    }
    let mut pf1 = PacketFactory::new();
    let mut pf2 = PacketFactory::new();
    // Alternate bursts and drains so busy periods end and v grows.
    for round in 0..20u64 {
        for _ in 0..3 {
            let (flow, len) = (1 + (round % 2) as u32, 128 + 32 * round);
            plain.enqueue(T0, pkt(&mut pf1, flow, len));
            rebased.enqueue(T0, pkt(&mut pf2, flow, len));
        }
        assert_eq!(drain(&mut plain), drain(&mut rebased), "order diverged");
    }
    assert!(rebased.rebases() > 0, "rebasing never fired");
    assert_eq!(plain.rebases(), 0);
    // The rebased scheduler's virtual time stays below one whole unit
    // after each drain; the plain one has accumulated all 20 rounds.
    assert!(rebased.virtual_time() < int(1));
    assert!(plain.virtual_time() > int(20));
}

/// `enable_rebasing(96)` — the engine's production threshold, tuned for
/// i128 tags — on a queue that never drains, so only the *eager* check
/// can fire. The fixed arithmetic clamps the threshold to
/// `MAX_REBASE_BITS` (a u64 tag would wrap long before 96 bits) and
/// must rebase; the exact arithmetic takes it at face value and is
/// nowhere near it.
fn eager_rebase_threshold_is_clamped_for_u64_tags_only<A: TagArith, V: Fresh<A>>() {
    let mut s = fresh::<A, V>();
    s.enable_rebasing(96);
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    let mut pf = PacketFactory::new();
    // Run v(t) past 2^48 raw at the default shift (2^24 virtual-time
    // units; each 2 MB packet at 2^10 bps spans 2^14 units).
    s.enqueue(T0, pkt(&mut pf, 1, 2 << 20));
    for _ in 0..1_100 {
        s.enqueue(T0, pkt(&mut pf, 1, 2 << 20));
        s.dequeue(T0).unwrap();
        s.on_departure(T0);
        assert!(!s.is_empty(), "queue must stay backlogged");
    }
    if A::FIXED {
        assert!(s.rebases() > 0, "clamped threshold must trigger rebases");
        let cap = Ratio::from_int(1i128 << (MAX_REBASE_BITS + 1 - sfq_core::DEFAULT_SHIFT));
        assert!(s.virtual_time() < cap);
    } else {
        assert_eq!(s.rebases(), 0);
        assert!(s.virtual_time() > int(1 << 24));
    }
}

/// An empty batch is no call: with eager rebasing on and a packet in
/// service it leaves virtual time and the rebase count as they were
/// (the per-packet loop it stands for makes no call that could rebase;
/// under the start-tag rule `v(t)` sits past the threshold here).
fn an_empty_batch_is_no_call<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    s.enable_rebasing(0);
    for _ in 0..2 {
        s.enqueue(T0, pkt(&mut pf, 1, 1500));
    }
    s.dequeue(T0).unwrap();
    s.on_departure(T0);
    s.dequeue(T0).unwrap();
    let before = (s.virtual_time(), s.rebases());
    assert_eq!(s.try_enqueue_batch(T0, &[]), Ok(()));
    assert_eq!((s.virtual_time(), s.rebases()), before);
}

fn batch_api_is_bit_identical_to_singles<A: TagArith, V: Fresh<A>>() {
    let mk = || {
        let mut s = fresh::<A, V>();
        s.add_flow(FlowId(1), Rate::bps(1 << 10));
        s.add_flow(FlowId(2), Rate::bps(1 << 13));
        s
    };
    let (mut single, mut batched) = (mk(), mk());
    let mut pf1 = PacketFactory::new();
    let mut pf2 = PacketFactory::new();
    for round in 0..10u64 {
        let burst = |pf: &mut PacketFactory| -> Vec<Packet> {
            (0..8)
                .map(|i| pkt(pf, 1 + ((round + i) % 2) as u32, 100 + 37 * i))
                .collect()
        };
        for p in burst(&mut pf1) {
            single.enqueue(T0, p);
        }
        batched.enqueue_batch(T0, &burst(&mut pf2));
        let mut out_b = Vec::new();
        let n = batched.dequeue_batch(T0, 5, &mut out_b);
        let out_s: Vec<u64> = (0..n)
            .map(|_| {
                let p = single.dequeue(T0).unwrap();
                single.on_departure(T0);
                p.uid
            })
            .collect();
        assert_eq!(out_s, out_b.iter().map(|p| p.uid).collect::<Vec<_>>());
        assert_eq!(single.virtual_time(), batched.virtual_time());
    }
}

/// An attached counter page is written in one seqlock section per
/// scheduler call — the epoch moves by 2 — whether the call moved one
/// packet or thirty-two, and not at all by a call that moved none.
fn counter_page_takes_one_write_section_per_call<A: TagArith, V: Fresh<A>>() {
    let (mut s, mut pf) = setup2::<A, V>();
    let sink = TelemetrySink::new();
    s.attach_telemetry(sink.clone());
    let burst: Vec<Packet> = (0..32).map(|i| pkt(&mut pf, 1 + i % 2, 128)).collect();
    let mut out = Vec::new();

    assert_eq!(s.try_enqueue_batch(T0, &burst), Ok(()));
    assert_eq!(sink.epoch(), 2);
    assert_eq!(s.dequeue_batch(T0, 32, &mut out), 32);
    assert_eq!(sink.epoch(), 4);

    s.enqueue(T0, pkt(&mut pf, 1, 128));
    assert_eq!(sink.epoch(), 6);
    assert!(s.dequeue(T0).is_some());
    assert_eq!(sink.epoch(), 8);
    s.on_departure(T0);

    assert_eq!(s.try_enqueue_batch(T0, &[]), Ok(()));
    assert_eq!(s.dequeue_batch(T0, 32, &mut out), 0, "nothing queued");
    s.enqueue(T0, pkt(&mut pf, 2, 128));
    assert_eq!(s.dequeue_batch(T0, 0, &mut out), 0, "nothing asked for");
    assert_eq!(sink.epoch(), 10, "only the enqueue wrote");

    let snap = sink.snapshot(1).expect("no writer running");
    assert_eq!((snap.enqueues, snap.dequeues), (34, 33));
    assert_eq!(snap.resident(), s.len() as i128);
}

// SFQ/SCFQ only: these read virtual time — Eq. 4/5 tags off `v`, the
// busy-period end, rebasing — which a rule on an external clock does not
// keep, or name the rule by its key order alone.
table!(
    [sfq: Exact StartClock, sfq_fast: Fixed StartClock, scfq: Exact FinishClock, scfq_fast: Fixed FinishClock]
    name_and_panic_prefix_come_from_the_instantiation,
    tags_follow_eq4_eq5,
    serves_in_key_tag_order_across_flows,
    virtual_time_is_key_tag_of_packet_in_service,
    busy_period_end_sets_v_to_max_finish_served,
    slow_flow_packet_position_depends_on_the_rule,
    rebasing_shifts_tags_without_reordering,
    eager_rebase_threshold_is_clamped_for_u64_tags_only,
    an_empty_batch_is_no_call,
);

table!(
    [
        sfq: Exact StartClock, sfq_fast: Fixed StartClock, scfq: Exact FinishClock,
        scfq_fast: Fixed FinishClock, vc: Exact WallClock, edd: Exact Deadline,
        wfq: Exact GpsFinish, fqs: Exact GpsStart
    ]
    counter_page_takes_one_write_section_per_call,
    backlog_counts_per_flow,
    heap_holds_one_entry_per_backlogged_flow,
    unregistered_flow_is_refused_and_panics,
    remove_flow_only_when_idle,
    force_remove_discards_backlog_and_keeps_counts_exact,
    drop_head_then_force_remove,
    zero_weight_is_a_typed_strict_noop,
    observer_reports_assigned_tags,
    batch_api_is_bit_identical_to_singles,
);

/// A batch refused at packet k keeps packets 0..k queued, so it must
/// keep them booked: the tally collected so far is written before the
/// error returns.
#[test]
fn a_batch_refused_half_way_books_what_it_queued() {
    let mut s = SfqFast::new();
    s.add_flow(FlowId(1), Rate::bps(1 << 10));
    // At 1 bit/s a 1 TiB packet spans 2^43 units: past the u64 grid.
    s.add_flow(FlowId(2), Rate::bps(1));
    let sink = TelemetrySink::new();
    s.attach_telemetry(sink.clone());
    let mut pf = PacketFactory::new();
    let mut batch: Vec<Packet> = (0..9).map(|i| pkt(&mut pf, 1, 128 + i)).collect();
    batch.insert(5, pkt(&mut pf, 2, 1 << 40));
    assert_eq!(
        s.try_enqueue_batch(T0, &batch),
        Err(SchedError::TagOverflow)
    );
    assert_eq!(s.len(), 5);
    let snap = sink.snapshot(1).expect("no writer running");
    assert_eq!(snap.enqueues, 5);
    assert_eq!(snap.enq_bytes, (0..5).map(|i| 128 + i).sum::<u64>());
    assert_eq!(snap.backlog_hist.iter().sum::<u64>(), snap.enqueues);
    assert_eq!(snap.resident(), 5);
    assert_eq!(sink.epoch(), 2, "still one write section");
}

/// Deterministic smoke version of the twin table's fixed ≡ exact rows
/// (`conformance::twin`): interleaved enqueues/dequeues
/// across 4 flows with 2^k weights must dequeue bit-identically under
/// the two arithmetics, whichever rule orders service.
fn fixed_matches_exact_on_power_of_two_weights<V: Fresh<Fixed> + Fresh<Exact>>() {
    let mut fast = fresh::<Fixed, V>();
    let mut exact = fresh::<Exact, V>();
    for (i, k) in [10u32, 12, 14, 17].iter().enumerate() {
        let w = Rate::bps(1 << k);
        fast.add_flow(FlowId(i as u32), w);
        exact.add_flow(FlowId(i as u32), w);
    }
    let mut pf1 = PacketFactory::new();
    let mut pf2 = PacketFactory::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..500 {
        if next() % 3 < 2 {
            let (flow, len) = ((next() % 4) as u32, 64 + next() % 1400);
            fast.enqueue(T0, pkt(&mut pf1, flow, len));
            exact.enqueue(T0, pkt(&mut pf2, flow, len));
        } else {
            let a = fast.dequeue(T0);
            let b = exact.dequeue(T0);
            assert_eq!(a.map(|p| p.uid), b.map(|p| p.uid), "order diverged");
            if a.is_some() {
                fast.on_departure(T0);
                exact.on_departure(T0);
            }
        }
        assert_eq!(fast.virtual_time(), exact.virtual_time());
    }
    assert_eq!(drain(&mut fast), drain(&mut exact));
}

#[test]
fn sfq_fast_matches_sfq_on_power_of_two_weights() {
    fixed_matches_exact_on_power_of_two_weights::<StartClock>();
}

#[test]
fn scfq_fast_matches_scfq_on_power_of_two_weights() {
    fixed_matches_exact_on_power_of_two_weights::<FinishClock>();
}

// What only some aliases have: the shift and tie-break constructors and
// the Eq. 36 per-packet rate.

#[test]
fn shift_bounds_are_enforced() {
    for shift in [0, MAX_SHIFT + 1] {
        assert_eq!(Fixed::new(shift).err(), Some(SchedError::TagOverflow));
        assert!(SfqFast::with_shift(TieBreak::Fifo, shift).is_err());
        assert!(ScfqFast::with_shift(shift).is_err());
    }
    for shift in [4, MAX_SHIFT] {
        assert_eq!(
            SfqFast::with_shift(TieBreak::Fifo, shift).unwrap().shift(),
            shift
        );
        assert_eq!(ScfqFast::with_shift(shift).unwrap().shift(), shift);
    }
}

#[test]
fn low_weight_first_tiebreak() {
    fn check<S: Scheduler>(mut s: S) {
        s.add_flow(FlowId(1), Rate::bps(1 << 20));
        s.add_flow(FlowId(2), Rate::bps(1 << 15));
        let mut pf = PacketFactory::new();
        // Both first packets have S = 0; low-weight flow 2 must win even
        // though flow 1's packet has the smaller uid.
        let a = pkt(&mut pf, 1, 128);
        let b = pkt(&mut pf, 2, 128);
        s.enqueue(T0, a);
        s.enqueue(T0, b);
        assert_eq!(s.dequeue(T0).unwrap().uid, b.uid);
    }
    check(Sfq::with_tiebreak(TieBreak::LowWeightFirst));
    check(SfqFast::with_tiebreak(TieBreak::LowWeightFirst));
}

#[test]
fn variable_rate_packets_use_given_rate() {
    let mut s = Sfq::with_tiebreak(TieBreak::LowWeightFirst);
    s.add_flow(FlowId(1), Rate::bps(1_000));
    s.add_flow(FlowId(2), Rate::bps(1_500));
    let mut pf = PacketFactory::new();
    let p = pkt(&mut pf, 1, 125);
    let q = pkt(&mut pf, 2, 125);
    // Charge at 2000 bps instead of the registered 1000 bps: the finish
    // tag and the tie-break key both follow the given rate, so flow 2
    // (1500 bps) now counts as the lower weight.
    s.enqueue_with_rate(T0, p, Rate::bps(2_000));
    s.enqueue(T0, q);
    assert_eq!(s.tags_of(p.uid), Some((int(0), Ratio::new(1, 2))));
    assert_eq!(s.dequeue(T0).unwrap().uid, q.uid);
    assert_eq!(
        s.try_enqueue_with_rate(T0, pkt(&mut pf, 1, 125), Rate::bps(0)),
        Err(SchedError::ZeroWeight(FlowId(1)))
    );
    assert_eq!(s.flow_last_finish(FlowId(1)), Some(Ratio::new(1, 2)));
}

/// A random interleaving of operations against a scheduler.
#[derive(Debug, Clone)]
enum Op {
    /// Enqueue (flow index, length).
    Enq(u8, u64),
    /// Dequeue one packet and complete its transmission.
    Deq,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            Just(Op::Deq),
        ],
        1..200,
    )
}

/// Structural tag invariants under arbitrary interleavings: v(t) is
/// non-decreasing; every assigned start tag is >= the virtual time at
/// its assignment; finish > start; dequeues come out in non-decreasing
/// key-tag order within a busy period (v(t) during service *is* the
/// served packet's key tag).
fn tag_invariants<A: TagArith, V: Fresh<A>>(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut s = fresh::<A, V>();
    for f in 0..4u32 {
        s.add_flow(FlowId(f), Rate::bps(1_000 + 500 * f as u64));
    }
    let mut pf = PacketFactory::new();
    let mut last_v = s.virtual_time();
    let mut last_key_in_busy: Option<Ratio> = None;
    for op in ops {
        match *op {
            Op::Enq(f, l) => {
                let p = pkt(&mut pf, f as u32, l);
                let v_before = s.virtual_time();
                s.enqueue(T0, p);
                let (start, finish) = s.tags_of(p.uid).expect("queued");
                prop_assert!(start >= v_before, "S below v at assignment");
                prop_assert!(finish > start, "F must exceed S");
            }
            Op::Deq => {
                if s.dequeue(T0).is_some() {
                    let v = s.virtual_time();
                    if let Some(prev) = last_key_in_busy {
                        prop_assert!(v >= prev, "key tags served out of order");
                    }
                    last_key_in_busy = Some(v);
                    s.on_departure(T0);
                    if s.is_empty() {
                        last_key_in_busy = None;
                    }
                }
            }
        }
        let v_now = s.virtual_time();
        prop_assert!(v_now >= last_v, "virtual time went backwards");
        last_v = v_now;
    }
    Ok(())
}

/// Flow finish-tag chains are strictly increasing per flow.
fn per_flow_finish_chain_increases<A: TagArith, V: Fresh<A>>(
    lens: &[u64],
) -> Result<(), TestCaseError> {
    let mut s = fresh::<A, V>();
    s.add_flow(FlowId(1), Rate::bps(8_000));
    let mut pf = PacketFactory::new();
    let mut prev = Ratio::ZERO;
    for &l in lens {
        s.enqueue(T0, pkt(&mut pf, 1, l));
        let f = s.flow_last_finish(FlowId(1)).expect("registered");
        prop_assert!(f > prev);
        prev = f;
    }
    Ok(())
}

/// The seed implementation PR 1 restructured away from: a single global
/// heap holding *every* queued packet, with the same Eq. 4/5 tag
/// recurrence and the same (start, tie, uid) ordering key. Kept as a
/// test oracle: the head-of-flow `Sfq` must reproduce its dequeue
/// sequence bit for bit. Every key carries the tie key of the rate its
/// packet was charged at, computed when the key is: at arrival, or when
/// the tag-rewrite rule restamps it.
struct GlobalHeapSfq {
    flows: HashMap<FlowId, (Rate, Ratio)>,
    heap: BinaryHeap<Reverse<(OracleKey, OraclePkt)>>,
    tie: TieBreak,
    v: Ratio,
    in_service: Option<Ratio>,
    max_finish_served: Ratio,
}

/// The seed's ordering key: (start tag, tie-break key, uid).
type OracleKey = (Ratio, i128, u64);

/// Packet + finish tag with the seed's dummy uid ordering (keys are
/// always distinct, so this ordering is never consulted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct OraclePkt {
    pkt: Packet,
    finish: Ratio,
}

impl PartialOrd for OraclePkt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OraclePkt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pkt.uid.cmp(&other.pkt.uid)
    }
}

impl GlobalHeapSfq {
    fn new(tie: TieBreak) -> Self {
        GlobalHeapSfq {
            flows: HashMap::new(),
            heap: BinaryHeap::new(),
            tie,
            v: Ratio::ZERO,
            in_service: None,
            max_finish_served: Ratio::ZERO,
        }
    }

    /// Register `flow`, or re-register it at `weight` keeping its tag
    /// chain.
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.flows.entry(flow).or_insert((weight, Ratio::ZERO)).0 = weight;
    }

    fn enqueue(&mut self, pkt: Packet) {
        let weight = self.flows[&pkt.flow].0;
        self.enqueue_with_rate(pkt, weight);
    }

    /// Eq. 36: `pkt` charged at `rate` for its finish tag and its tie
    /// key, whatever its flow's weight.
    fn enqueue_with_rate(&mut self, pkt: Packet, rate: Rate) {
        let v_now = self.in_service.unwrap_or(self.v).snap_pico();
        let last_finish = self.flows[&pkt.flow].1;
        let start = v_now.max(last_finish);
        let finish = start + rate.tag_span(pkt.len);
        self.flows.get_mut(&pkt.flow).unwrap().1 = finish;
        let key = (start, self.tie.key(rate), pkt.uid);
        self.heap.push(Reverse((key, OraclePkt { pkt, finish })));
    }

    /// The tag-rewrite rule of `Scheduler::try_set_weight`: every queued
    /// packet of `flow` behind its head is restamped at `weight` —
    /// `S_j := F_{j-1}`, `F_j := S_j + l_j / weight`, tie key at
    /// `weight` — and the flow's last finish tag becomes the tail's.
    fn set_weight(&mut self, flow: FlowId, weight: Rate) {
        let mut all = std::mem::take(&mut self.heap).into_vec();
        let mut mine: Vec<_> = all
            .iter_mut()
            .map(|Reverse(entry)| entry)
            .filter(|(_, rec)| rec.pkt.flow == flow)
            .collect();
        mine.sort_by_key(|(_, rec)| rec.pkt.uid);
        if let Some(((_, head), rest)) = mine.split_first_mut() {
            let mut prev = head.finish;
            for (key, rec) in rest.iter_mut() {
                let finish = prev + weight.tag_span(rec.pkt.len);
                *key = (prev, self.tie.key(weight), rec.pkt.uid);
                rec.finish = finish;
                prev = finish;
            }
            self.flows.get_mut(&flow).unwrap().1 = prev;
        }
        self.flows.get_mut(&flow).unwrap().0 = weight;
        self.heap = all.into();
    }

    fn dequeue(&mut self) -> Option<Packet> {
        self.dequeue_tagged().map(|(pkt, ..)| pkt)
    }

    /// The next packet with its start and finish tags.
    fn dequeue_tagged(&mut self) -> Option<(Packet, Ratio, Ratio)> {
        let Reverse(((start, _, _), rec)) = self.heap.pop()?;
        self.in_service = Some(start);
        self.v = start;
        self.max_finish_served = self.max_finish_served.max(rec.finish);
        Some((rec.pkt, start, rec.finish))
    }

    fn on_departure(&mut self) {
        self.in_service = None;
        if self.heap.is_empty() {
            self.v = self.max_finish_served;
        }
    }

    /// Serve and complete up to `n` packets, returning them as `(uid,
    /// start tag, finish tag)`.
    fn serve(&mut self, n: usize) -> Vec<(u64, Ratio, Ratio)> {
        let mut out = Vec::new();
        while out.len() < n {
            let Some((p, start, finish)) = self.dequeue_tagged() else {
                break;
            };
            self.on_departure();
            out.push((p.uid, start, finish));
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tag_invariants_hold_on_all_four(ops in ops()) {
        tag_invariants::<Exact, StartClock>(&ops)?;
        tag_invariants::<Fixed, StartClock>(&ops)?;
        tag_invariants::<Exact, FinishClock>(&ops)?;
        tag_invariants::<Fixed, FinishClock>(&ops)?;
    }

    #[test]
    fn per_flow_finish_chain_increases_on_all_four(
        lens in prop::collection::vec(1u64..2000, 1..50),
    ) {
        per_flow_finish_chain_increases::<Exact, StartClock>(&lens)?;
        per_flow_finish_chain_increases::<Fixed, StartClock>(&lens)?;
        per_flow_finish_chain_increases::<Exact, FinishClock>(&lens)?;
        per_flow_finish_chain_increases::<Fixed, FinishClock>(&lens)?;
    }

    /// The head-of-flow restructure is observationally identical to
    /// the seed global-heap implementation: on any random operation
    /// interleaving (and any tie-break rule) both produce the same
    /// dequeue uid sequence. Also checks the two structural gains:
    /// the heap never exceeds the number of backlogged flows, and
    /// each flow's packets leave in FIFO (uid) order.
    #[test]
    fn sfq_matches_seed_global_heap_implementation(
        ops in ops(),
        tie_sel in 0u8..3,
    ) {
        let tie = match tie_sel {
            0 => TieBreak::Fifo,
            1 => TieBreak::LowWeightFirst,
            _ => TieBreak::HighWeightFirst,
        };
        let mut fast = Sfq::with_tiebreak(tie);
        let mut oracle = GlobalHeapSfq::new(tie);
        for f in 0..4u32 {
            let w = Rate::bps(1_000 + 777 * f as u64);
            fast.add_flow(FlowId(f), w);
            oracle.add_flow(FlowId(f), w);
        }
        let mut pf = PacketFactory::new();
        let mut last_uid_per_flow: HashMap<FlowId, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Enq(f, l) => {
                    let p = pkt(&mut pf, f as u32, l);
                    fast.enqueue(T0, p);
                    oracle.enqueue(p);
                }
                Op::Deq => {
                    let a = fast.dequeue(T0);
                    let b = oracle.dequeue();
                    prop_assert_eq!(
                        a.map(|p| p.uid),
                        b.map(|p| p.uid),
                        "dequeue order diverged from seed implementation"
                    );
                    if let Some(p) = a {
                        if let Some(&prev) = last_uid_per_flow.get(&p.flow) {
                            prop_assert!(p.uid > prev, "per-flow FIFO violated");
                        }
                        last_uid_per_flow.insert(p.flow, p.uid);
                        fast.on_departure(T0);
                        oracle.on_departure();
                    }
                }
            }
            // Head-only invariant: one heap entry per backlogged
            // flow (no force-removals here, so no stale entries).
            let backlogged =
                (0..4u32).filter(|&f| fast.backlog(FlowId(f)) > 0).count();
            prop_assert_eq!(fast.head_heap_len(), backlogged);
        }
    }
}

/// What tie keys are made of: the rate a packet is charged at, which
/// registration, re-registration, `try_set_weight` and Eq. 36's
/// per-packet rate each set.
#[derive(Clone, Debug)]
enum RateOp {
    /// Enqueue (flow index, length in 128-byte units).
    Enq(u8, u64),
    /// Enqueue charged at `2^w` bit/s (`Sfq::enqueue_with_rate`).
    EnqAt(u8, u64, u32),
    /// Reweigh to `2^w` bit/s through the tag-rewrite rule.
    SetWeight(u8, u32),
    /// Register again at `2^w` bit/s, keeping the tag chain.
    Reregister(u8, u32),
    /// Dequeue one packet and complete its transmission.
    Deq,
    /// Dequeue up to this many through `dequeue_batch`.
    DeqBatch(usize),
}

/// Rates are powers of two and lengths multiples of 128 bytes, so the
/// fixed-point scheduler's tags equal the oracle's exact ones.
fn rate_ops() -> impl Strategy<Value = Vec<RateOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 1u64..12).prop_map(|(f, k)| RateOp::Enq(f, k)),
            (0u8..4, 1u64..12).prop_map(|(f, k)| RateOp::Enq(f, k)),
            (0u8..4, 1u64..12, 10u32..14).prop_map(|(f, k, w)| RateOp::EnqAt(f, k, w)),
            (0u8..4, 10u32..14).prop_map(|(f, w)| RateOp::SetWeight(f, w)),
            (0u8..4, 10u32..14).prop_map(|(f, w)| RateOp::Reregister(f, w)),
            Just(RateOp::Deq),
            Just(RateOp::Deq),
            (1usize..5).prop_map(RateOp::DeqBatch),
        ],
        1..150,
    )
}

/// Departures as `(uid, start tag, finish tag)`.
#[derive(Debug, Default)]
struct Departures(Vec<(u64, Ratio, Ratio)>);

impl SchedObserver for Departures {
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        self.0.push((ev.uid, ev.start_tag, ev.finish_tag));
    }
}

/// Drive `s` and the global-heap oracle through `ops`, serving `EnqAt`
/// through `enq_at`; after every op the departures so far must match the
/// oracle's. Returns the oracle's departures with their tags.
fn against_global_heap<A: TagArith>(
    s: &mut TagSched<A, StartClock, Departures>,
    tie: TieBreak,
    ops: &[RateOp],
    mut enq_at: impl FnMut(&mut TagSched<A, StartClock, Departures>, Packet, Rate),
) -> Result<Vec<(u64, Ratio, Ratio)>, TestCaseError> {
    let mut oracle = GlobalHeapSfq::new(tie);
    for f in 0..4u32 {
        let w = Rate::bps(1 << (10 + f));
        s.add_flow(FlowId(f), w);
        oracle.add_flow(FlowId(f), w);
    }
    let mut pf = PacketFactory::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for op in ops {
        match *op {
            RateOp::Enq(f, k) => {
                let p = pkt(&mut pf, f.into(), 128 * k);
                s.enqueue(T0, p);
                oracle.enqueue(p);
            }
            RateOp::EnqAt(f, k, w) => {
                let p = pkt(&mut pf, f.into(), 128 * k);
                enq_at(s, p, Rate::bps(1 << w));
                oracle.enqueue_with_rate(p, Rate::bps(1 << w));
            }
            RateOp::SetWeight(f, w) => {
                let flow = FlowId(f.into());
                prop_assert_eq!(s.try_set_weight(flow, Rate::bps(1 << w)), Ok(()));
                oracle.set_weight(flow, Rate::bps(1 << w));
            }
            RateOp::Reregister(f, w) => {
                s.add_flow(FlowId(f.into()), Rate::bps(1 << w));
                oracle.add_flow(FlowId(f.into()), Rate::bps(1 << w));
            }
            RateOp::Deq => {
                got.extend(s.dequeue(T0).map(|p| p.uid));
                s.on_departure(T0);
                want.extend(oracle.serve(1));
            }
            RateOp::DeqBatch(n) => {
                let mut out = Vec::new();
                s.dequeue_batch(T0, n, &mut out);
                got.extend(out.iter().map(|p| p.uid));
                want.extend(oracle.serve(n));
            }
        }
        let want_uids: Vec<u64> = want.iter().map(|d| d.0).collect();
        prop_assert_eq!(
            &got,
            &want_uids,
            "departures diverged from the global-heap oracle"
        );
    }
    while let Some(p) = s.dequeue(T0) {
        s.on_departure(T0);
        got.push(p.uid);
    }
    want.extend(oracle.serve(usize::MAX));
    let want_uids: Vec<u64> = want.iter().map(|d| d.0).collect();
    prop_assert_eq!(&got, &want_uids, "drains diverged");
    Ok(want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A packet's tie key is that of the rate it is charged at: under
    /// every tie-break rule, with reweighing (the tag rewrite restamps
    /// ties), re-registration (later arrivals tie at the new rate,
    /// queued ones keep theirs) and Eq. 36's per-packet rate in the mix,
    /// `Sfq` and `SfqFast` serve the global-heap
    /// oracle's order and report its tags. `SfqFast` has no per-packet
    /// rate: its runs leave `EnqAt` out.
    #[test]
    fn tie_keys_follow_the_charged_rate_through_rate_changes(
        ops in rate_ops(),
        tie_sel in 0u8..3,
    ) {
        let tie = match tie_sel {
            0 => TieBreak::Fifo,
            1 => TieBreak::LowWeightFirst,
            _ => TieBreak::HighWeightFirst,
        };
        let fixed_ops: Vec<RateOp> =
            ops.iter().filter(|op| !matches!(op, RateOp::EnqAt(..))).cloned().collect();
        let mut exact = Sfq::with_observer(tie, Departures::default());
        let want = against_global_heap(&mut exact, tie, &ops, |s, p, r| {
            s.enqueue_with_rate(T0, p, r)
        })?;
        prop_assert_eq!(&exact.observer().0, &want, "Sfq tags");

        let mut fixed = SfqFast::with_shift_observer(tie, DEFAULT_SHIFT, Departures::default())
            .expect("default shift");
        let want = against_global_heap(&mut fixed, tie, &fixed_ops, |_, _, _| {
            unreachable!("no per-packet rate on SfqFast")
        })?;
        prop_assert_eq!(&fixed.observer().0, &want, "SfqFast tags");
    }
}
