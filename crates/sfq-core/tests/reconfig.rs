//! Live weight reconfiguration: the tag-rewrite rule.
//!
//! `try_set_weight` on a backlogged flow must leave the head packet's
//! tags untouched (its heap entry stays valid) and re-chain every
//! subsequent queued packet at the new rate: `S_j := F_{j-1}`,
//! `F_j := S_j + l_j / r_new`. Three consequences are pinned here,
//! across the exact scheduler and both fixed-point fast paths:
//!
//! - **Chain shape.** After a rewrite the queued chain satisfies
//!   `S_j = F_{j-1}` exactly, per-flow FIFO order survives, and (for
//!   the exact scheduler) every rewritten span equals `l_j / r_new`
//!   bit for bit.
//! - **No-op fixed point.** Re-applying the current weight is
//!   invisible: every queued tag, the flow's `last_finish`, and the
//!   entire subsequent dequeue sequence are bit-identical to a twin
//!   scheduler that never saw the call. This is Eq. 4's doing — while
//!   a flow stays backlogged the `max` resolves to the flow term, so
//!   the chain already satisfies the rewrite rule at its own rate.
//! - **Reconvergence.** After a real weight change the scheduler is
//!   still a valid SFQ instance: virtual time stays monotone through
//!   the remaining drain and nothing is lost or reordered within a
//!   flow.

use proptest::prelude::*;
use sfq_core::{FlowId, PacketFactory, ScfqFast, SchedError, Scheduler, Sfq, SfqFast};
use simtime::{Bytes, Rate, SimTime};

const T0: SimTime = SimTime::ZERO;

/// Structural suite stamped out per scheduler type: the bodies only
/// use the `Scheduler` trait plus the identically-named inherent
/// `tags_of` / `try_set_weight`, so one textual expansion covers the
/// exact and both fixed-point disciplines.
macro_rules! rewrite_suite {
    ($modname:ident, $mk:expr) => {
        mod $modname {
            use super::*;

            #[test]
            fn head_keeps_tags_and_tail_rechains() {
                let mut s = $mk;
                let f = FlowId(7);
                s.add_flow(f, Rate::bps(8_000));
                s.add_flow(FlowId(9), Rate::bps(16_000));
                let mut pf = PacketFactory::new();
                let lens = [400u64, 900, 300, 1200, 700];
                let mut uids = Vec::new();
                for &l in &lens {
                    let p = pf.make(f, Bytes::new(l), T0);
                    uids.push(p.uid);
                    s.enqueue(T0, p);
                }
                for _ in 0..3 {
                    s.enqueue(T0, pf.make(FlowId(9), Bytes::new(600), T0));
                }
                let before: Vec<_> = uids.iter().map(|&u| s.tags_of(u).unwrap()).collect();
                s.try_set_weight(f, Rate::bps(32_000)).unwrap();
                let after: Vec<_> = uids.iter().map(|&u| s.tags_of(u).unwrap()).collect();
                assert_eq!(after[0], before[0], "head tags must survive the rewrite");
                for j in 1..lens.len() {
                    assert_eq!(after[j].0, after[j - 1].1, "S_j must equal F_(j-1)");
                    assert!(after[j].1 > after[j].0, "finish must exceed start");
                }
                // Per-flow FIFO order survives the rewrite.
                let mut served = Vec::new();
                while let Some(p) = s.dequeue(T0) {
                    served.push(p);
                    s.on_departure(T0);
                }
                let flow_uids: Vec<u64> = served
                    .iter()
                    .filter(|p| p.flow == f)
                    .map(|p| p.uid)
                    .collect();
                assert_eq!(flow_uids, uids, "rewrite reordered the flow's queue");
            }

            #[test]
            fn noop_rewrite_is_bit_invisible() {
                // Twin runs of the same schedule; one re-applies the
                // current weights mid-backlog. Queued tags and the full
                // dequeue sequence must match bit for bit.
                let run = |noop: bool| {
                    let mut s = $mk;
                    s.add_flow(FlowId(1), Rate::bps(12_000));
                    s.add_flow(FlowId(2), Rate::bps(20_000));
                    let mut pf = PacketFactory::new();
                    let mut queued = Vec::new();
                    for i in 0..8u64 {
                        let f = FlowId(1 + (i % 2) as u32);
                        let p = pf.make(f, Bytes::new(200 + 173 * i), T0);
                        queued.push(p.uid);
                        s.enqueue(T0, p);
                    }
                    let mut order = Vec::new();
                    for _ in 0..2 {
                        let p = s.dequeue(T0).unwrap();
                        queued.retain(|&u| u != p.uid);
                        order.push(p.uid);
                        s.on_departure(T0);
                    }
                    if noop {
                        s.try_set_weight(FlowId(1), Rate::bps(12_000)).unwrap();
                        s.try_set_weight(FlowId(2), Rate::bps(20_000)).unwrap();
                    }
                    let tags: Vec<_> = queued.iter().map(|&u| s.tags_of(u).unwrap()).collect();
                    while let Some(p) = s.dequeue(T0) {
                        order.push(p.uid);
                        s.on_departure(T0);
                    }
                    (tags, order)
                };
                assert_eq!(run(false), run(true), "no-op rewrite was visible");
            }

            #[test]
            fn errors_leave_tags_untouched() {
                let mut s = $mk;
                let f = FlowId(3);
                s.add_flow(f, Rate::bps(10_000));
                let mut pf = PacketFactory::new();
                let mut uids = Vec::new();
                for _ in 0..4 {
                    let p = pf.make(f, Bytes::new(500), T0);
                    uids.push(p.uid);
                    s.enqueue(T0, p);
                }
                let before: Vec<_> = uids.iter().map(|&u| s.tags_of(u).unwrap()).collect();
                assert_eq!(
                    s.try_set_weight(f, Rate::bps(0)),
                    Err(SchedError::ZeroWeight(f))
                );
                assert_eq!(
                    s.try_set_weight(FlowId(99), Rate::bps(5_000)),
                    Err(SchedError::UnknownFlow(FlowId(99)))
                );
                let after: Vec<_> = uids.iter().map(|&u| s.tags_of(u).unwrap()).collect();
                assert_eq!(after, before, "failed reconfig mutated tags");
            }
        }
    };
}

rewrite_suite!(sfq_exact, Sfq::new());
rewrite_suite!(sfq_fast, SfqFast::new());
rewrite_suite!(scfq_fast, ScfqFast::new());

/// Exact-rational only: the rewritten spans are exactly `l_j / r_new`,
/// the flow's `last_finish` becomes the rewritten tail finish, and the
/// next arrival chains from it.
#[test]
fn exact_rewrite_spans_and_tail_chain() {
    let mut s = Sfq::new();
    let f = FlowId(1);
    let (old_w, new_w) = (Rate::bps(8_000), Rate::bps(20_000));
    s.add_flow(f, old_w);
    let mut pf = PacketFactory::new();
    let lens = [400u64, 900, 300, 1200];
    let mut uids = Vec::new();
    for &l in &lens {
        let p = pf.make(f, Bytes::new(l), T0);
        uids.push(p.uid);
        s.enqueue(T0, p);
    }
    s.try_set_weight(f, new_w).unwrap();
    let mut prev_finish = None;
    for (j, (&u, &l)) in uids.iter().zip(&lens).enumerate() {
        let (start, finish) = s.tags_of(u).unwrap();
        if j == 0 {
            assert_eq!(finish - start, old_w.tag_span(Bytes::new(l)));
        } else {
            assert_eq!(Some(start), prev_finish);
            assert_eq!(finish - start, new_w.tag_span(Bytes::new(l)));
        }
        prev_finish = Some(finish);
    }
    assert_eq!(s.flow_last_finish(f), prev_finish);
    // A packet arriving while the flow is still backlogged starts at
    // the rewritten tail finish.
    let p = pf.make(f, Bytes::new(640), T0);
    s.enqueue(T0, p);
    let (start, finish) = s.tags_of(p.uid).unwrap();
    assert_eq!(Some(start), prev_finish);
    assert_eq!(finish - start, new_w.tag_span(Bytes::new(640)));
}

/// An idle flow's reconfiguration is pure bookkeeping: the next packet
/// is tagged at the new rate.
#[test]
fn idle_reconfig_applies_to_future_arrivals() {
    let mut s = Sfq::new();
    let f = FlowId(4);
    s.add_flow(f, Rate::bps(8_000));
    let new_w = Rate::bps(64_000);
    s.try_set_weight(f, new_w).unwrap();
    let mut pf = PacketFactory::new();
    let p = pf.make(f, Bytes::new(1000), T0);
    s.enqueue(T0, p);
    let (start, finish) = s.tags_of(p.uid).unwrap();
    assert_eq!(finish - start, new_w.tag_span(Bytes::new(1000)));
}

/// Decode a raw word into one schedule step over 3 flows.
fn decode(raw: u64) -> (FlowId, u64, bool) {
    let flow = FlowId(1 + (raw % 3) as u32);
    let len = 64 + (raw >> 3) % 1400;
    let deq = raw & 7 == 7;
    (flow, len, deq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No-op fixed point under arbitrary schedules, exact and
    /// fixed-point: re-applying every flow's current weight at a random
    /// point never changes a single departure.
    ///
    /// SFQ-family only: the proof needs `queued start >= v` (true when
    /// `v` is the in-service *start* tag), which makes Eq. 4's max
    /// resolve to the flow term at every backlogged enqueue. SCFQ's
    /// `v` tracks *finish* tags and can overtake a backlogged chain,
    /// so its rewrite — while still the documented rule — is only a
    /// fixed point when `v` never passed the chain (covered by the
    /// static suite above).
    #[test]
    fn noop_rewrite_identity_random(
        raw in prop::collection::vec(0u64..u64::MAX, 4..100),
        at in 0usize..100,
    ) {
        macro_rules! run {
            ($mk:expr, $noop:expr) => {{
                let mut s = $mk;
                for f in 1..=3u32 {
                    s.add_flow(FlowId(f), Rate::bps(4_000 * f as u64));
                }
                let mut pf = PacketFactory::new();
                let mut order = Vec::new();
                for (i, &w) in raw.iter().enumerate() {
                    if $noop && i == at.min(raw.len() - 1) {
                        for f in 1..=3u32 {
                            s.try_set_weight(FlowId(f), Rate::bps(4_000 * f as u64))
                                .unwrap();
                        }
                    }
                    let (flow, len, deq) = decode(w);
                    if deq {
                        if let Some(p) = s.dequeue(T0) {
                            order.push(p.uid);
                            s.on_departure(T0);
                        }
                    } else {
                        s.enqueue(T0, pf.make(flow, Bytes::new(len), T0));
                    }
                }
                while let Some(p) = s.dequeue(T0) {
                    order.push(p.uid);
                    s.on_departure(T0);
                }
                order
            }};
        }
        prop_assert_eq!(run!(Sfq::new(), false), run!(Sfq::new(), true));
        prop_assert_eq!(run!(SfqFast::new(), false), run!(SfqFast::new(), true));
    }

    /// Reconvergence: after a real mid-backlog weight change the
    /// scheduler remains a valid SFQ instance — the queued chain obeys
    /// the rewrite rule, virtual time stays monotone through the
    /// remaining drain, per-flow FIFO order holds, and every packet
    /// still departs.
    #[test]
    fn real_rewrite_reconverges(
        raw in prop::collection::vec(0u64..u64::MAX, 8..120),
        mults in prop::collection::vec(1u64..9, 3..4),
    ) {
        let mut s = Sfq::new();
        for f in 1..=3u32 {
            s.add_flow(FlowId(f), Rate::bps(4_000 * f as u64));
        }
        let mut pf = PacketFactory::new();
        let mut enq: Vec<Vec<u64>> = vec![Vec::new(); 4]; // per-flow uid FIFO
        let mut served = Vec::new();
        for &w in &raw {
            let (flow, len, deq) = decode(w);
            if deq {
                if let Some(p) = s.dequeue(T0) {
                    served.push(p);
                    s.on_departure(T0);
                }
            } else {
                let p = pf.make(flow, Bytes::new(len), T0);
                enq[flow.0 as usize].push(p.uid);
                s.enqueue(T0, p);
            }
        }
        let offered: usize = enq.iter().map(Vec::len).sum();
        // The reconfiguration: every flow's rate scaled by mult/2.
        for f in 1..=3u32 {
            let w = Rate::bps((4_000 * f as u64 * mults[f as usize - 1] / 2).max(1_000));
            s.try_set_weight(FlowId(f), w).unwrap();
        }
        // The rewrite rule's chain shape holds on what remains of every
        // flow: S_j = F_(j-1) along the queued FIFO.
        for f in 1..=3u32 {
            let flow = FlowId(f);
            let dequeued = served.iter().filter(|p| p.flow == flow).count();
            let remaining = &enq[f as usize][dequeued..];
            prop_assert_eq!(s.backlog(flow), remaining.len());
            let mut prev: Option<simtime::Ratio> = None;
            for &uid in remaining {
                let (start, finish) = s.tags_of(uid).expect("still queued");
                if let Some(pf_) = prev {
                    prop_assert_eq!(start, pf_, "S_j != F_(j-1) after rewrite");
                }
                prop_assert!(finish > start);
                prev = Some(finish);
            }
            if s.backlog(flow) > 0 {
                prop_assert_eq!(s.flow_last_finish(flow), prev);
            }
        }
        // Monotone virtual time through the rest of the busy period,
        // and full conservation.
        let mut last_v = s.virtual_time();
        while let Some(p) = s.dequeue(T0) {
            served.push(p);
            let v = s.virtual_time();
            prop_assert!(v >= last_v, "virtual time went backwards after rewrite");
            last_v = v;
            s.on_departure(T0);
        }
        prop_assert_eq!(served.len(), offered, "packets lost across the rewrite");
        // Per-flow FIFO order end to end.
        for f in 1..=3u32 {
            let uids: Vec<u64> = served
                .iter()
                .filter(|p| p.flow == FlowId(f))
                .map(|p| p.uid)
                .collect();
            let mut sorted = uids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(uids, sorted, "flow served out of FIFO order");
        }
    }
}

/// Two backlogged flows on the exact scheduler, one enqueue and one
/// dequeue per µs, and every fiftieth step a live weight change to a
/// random rate between 1 kb/s and 2 Mb/s. Each change re-chains a
/// queue at a new rate; written exactly, the chain's denominators grow
/// like the lcm of every rate crossed. Written on the picosecond grid,
/// every call succeeds.
#[test]
fn exact_chains_survive_repeated_live_weight_changes() {
    let mut s = Sfq::new();
    let flows = [FlowId(1), FlowId(2)];
    for (f, bps) in flows.iter().zip([1_000, 2_000]) {
        s.add_flow(*f, Rate::bps(bps));
    }
    // A 64-bit LCG (Knuth's MMIX constants): draws without a
    // dependency.
    let mut state = 46u64;
    let mut draw = |lo: u64, hi: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lo + (state >> 33) % (hi - lo + 1)
    };
    let mut pf = PacketFactory::new();
    for &f in &flows {
        for _ in 0..8 {
            s.enqueue(T0, pf.make(f, Bytes::new(draw(64, 1_500)), T0));
        }
    }
    for step in 0..20_000usize {
        let now = SimTime::from_micros(step as i128);
        let f = flows[step % 2];
        let pkt = pf.make(f, Bytes::new(draw(64, 1_500)), now);
        if let Err(e) = s.try_enqueue(now, pkt) {
            panic!("step {step}: enqueue refused: {e}");
        }
        assert!(
            s.dequeue(now).is_some(),
            "step {step}: both flows backlogged"
        );
        s.on_departure(now);
        if step % 50 == 49 {
            let rate = Rate::bps(draw(1_000, 2_000_000));
            if let Err(e) = s.try_set_weight(flows[step / 50 % 2], rate) {
                panic!("step {step}: try_set_weight to {rate} refused: {e}");
            }
        }
    }
}
