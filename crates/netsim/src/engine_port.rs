//! Engine-backed switch port: a [`SwitchCore`] whose scheduled class
//! is the sharded [`sfq_engine::SyncEngine`] instead of a single leaf
//! discipline.
//!
//! The engine implements [`sfq_core::Scheduler`] through its
//! per-packet facade (every `try_enqueue` pumps the ingress rings
//! eagerly, so `len`/`backlog` stay exact for the port's cap
//! accounting), which means the whole switch machinery — strict
//! priority class, drop policies, buffer caps, drop observers — works
//! over a sharded port unchanged. Scale-out drain throughput comes
//! from the engine's native batch API (`SyncEngine::drain`), which the
//! switch does not use: a port transmits one packet at a time by
//! construction.

use crate::SwitchCore;
use servers::RateProfile;
use sfq_engine::{EngineConfig, SyncEngine};

/// An output port scheduling its non-priority class with a sharded
/// engine of `cfg.shards` SFQ leaves behind a hierarchical root
/// drainer, draining over `link`, tail-dropping a flow at
/// `per_flow_cap` queued packets (`None` = unbounded).
pub fn engine_port(
    cfg: EngineConfig,
    link: RateProfile,
    per_flow_cap: Option<usize>,
) -> SwitchCore {
    SwitchCore::new(Box::new(SyncEngine::new(cfg)), link, per_flow_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{FlowId, PacketFactory};
    use simtime::{Bytes, Rate, SimTime};

    fn port(shards: usize, cap: Option<usize>) -> (SwitchCore, PacketFactory) {
        let mut sw = engine_port(
            EngineConfig::new(shards),
            RateProfile::constant(Rate::bps(8_000)),
            cap,
        );
        for f in 1..=4u32 {
            sw.add_flow(FlowId(f), Rate::bps(1_000 * f as u64));
        }
        (sw, PacketFactory::new())
    }

    #[test]
    fn engine_port_transmits_every_offered_packet() {
        let (mut sw, mut pf) = port(3, None);
        let t0 = SimTime::ZERO;
        for round in 0..5 {
            for f in 1..=4u32 {
                let pkt = pf.make(FlowId(f), Bytes::new(100 + 10 * round), t0);
                assert!(sw.offer(t0, pkt), "port refused with no cap set");
            }
        }
        assert_eq!(sw.queued(), 20);
        assert_eq!(sw.discipline(), "SFQ-ENGINE");
        let mut now = t0;
        let mut served = 0;
        while let Some((_, done)) = sw.try_start(now) {
            sw.complete(done);
            now = done;
            served += 1;
        }
        assert_eq!(served, 20, "packets lost inside the sharded port");
        assert_eq!(sw.queued(), 0);
    }

    #[test]
    fn per_flow_cap_sees_the_exact_sharded_backlog() {
        // The cap check reads `Scheduler::backlog`, which is only
        // correct if the facade pumps rings eagerly — a packet parked
        // in an ingress ring must still count.
        let (mut sw, mut pf) = port(2, Some(2));
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert_eq!(sw.drops(FlowId(1)), 1);
        // A flow on another shard is unaffected by flow 1's cap.
        assert!(sw.offer(t0, pf.make(FlowId(2), Bytes::new(10), t0)));
        assert_eq!(sw.queued(), 3);
    }

    #[test]
    fn single_shard_port_degenerates_to_plain_sfq_order() {
        // With one shard the root arbiter has a single class, so the
        // port must transmit in exactly the order a bare `Sfq` port
        // would.
        let mk_arrivals = |pf: &mut PacketFactory| {
            let t0 = SimTime::ZERO;
            (0..12)
                .map(|i| pf.make(FlowId(1 + (i % 4)), Bytes::new(200 + 50 * i as u64), t0))
                .collect::<Vec<_>>()
        };
        let drive = |sw: &mut SwitchCore, pkts: &[sfq_core::Packet]| {
            let mut now = SimTime::ZERO;
            for &p in pkts {
                assert!(sw.offer(now, p));
            }
            let mut uids = Vec::new();
            while let Some((p, done)) = sw.try_start(now) {
                sw.complete(done);
                now = done;
                uids.push(p.uid);
            }
            uids
        };

        let (mut engine, mut pf_a) = port(1, None);
        let got = drive(&mut engine, &mk_arrivals(&mut pf_a));

        let mut plain = SwitchCore::new(
            Box::new(sfq_core::Sfq::new()),
            RateProfile::constant(Rate::bps(8_000)),
            None,
        );
        for f in 1..=4u32 {
            plain.add_flow(FlowId(f), Rate::bps(1_000 * f as u64));
        }
        let mut pf_b = PacketFactory::new();
        let want = drive(&mut plain, &mk_arrivals(&mut pf_b));
        assert_eq!(got, want, "1-shard engine port diverged from bare SFQ");
    }

    #[derive(Default)]
    struct DropLog {
        uids: Vec<u64>,
    }

    impl sfq_core::obs::SchedObserver for DropLog {
        fn on_drop(&mut self, ev: &sfq_core::obs::SchedEvent) {
            self.uids.push(ev.uid);
        }
    }

    #[test]
    fn scheduler_level_refusal_hits_drop_books() {
        // Regression (incast fan-in): when the engine's ingress ring —
        // not a switch cap — refuses the packet, the refusal must still
        // bump the port's drop counter and fire the drop observer.
        // Previously the scheduler-level BufferFull propagated silently.
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sw = engine_port(
            EngineConfig::new(1).ring_capacity(2),
            RateProfile::constant(Rate::bps(8_000)),
            None, // no switch caps: only the ring can refuse
        );
        sw.add_flow(FlowId(1), Rate::bps(1_000));
        let log = Rc::new(RefCell::new(DropLog::default()));
        sw.set_drop_observer(Box::new(Rc::clone(&log)));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // The eager-pump facade empties the ring on every offer, so the
        // pending count alone can't trip the cap; park the link on a
        // packet and only then overfill. With the link busy nothing
        // drains, so the third offer finds pending == ring capacity.
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        let started = sw.try_start(t0);
        assert!(started.is_some());
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        let refused = pf.make(FlowId(1), Bytes::new(125), t0);
        let uid = refused.uid;
        assert!(!sw.offer(t0, refused), "ring should be at capacity");
        assert_eq!(
            sw.drops(FlowId(1)),
            1,
            "ring refusal missing from drop books"
        );
        assert_eq!(log.borrow().uids, vec![uid], "drop observer not fired");
    }

    #[test]
    fn incast_fan_in_preserves_per_flow_fifo() {
        // Regression pin for the incast-reordering case: one flow's
        // packets reaching the port via two upstream nodes arrive as
        // interleaved bursts whose upstream seq numbers are non-
        // monotone at the merge point. The port must serve the flow in
        // exactly its *port-arrival* order (per-flow FIFO over what the
        // merge delivered — never re-sorting by seq, never dropping).
        let mut interleaved = Vec::new();
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Upstream A mints even bursts, upstream B odd bursts; the
        // merge alternates B-then-A so uids arrive out of order.
        let a: Vec<_> = (0..8)
            .map(|_| pf.make(FlowId(1), Bytes::new(125), t0))
            .collect();
        let b: Vec<_> = (0..8)
            .map(|_| pf.make(FlowId(1), Bytes::new(250), t0))
            .collect();
        for i in 0..4 {
            interleaved.extend_from_slice(&b[2 * i..2 * i + 2]);
            interleaved.extend_from_slice(&a[2 * i..2 * i + 2]);
        }
        let mut sw = engine_port(
            EngineConfig::new(3),
            RateProfile::constant(Rate::bps(8_000)),
            None,
        );
        sw.add_flow(FlowId(1), Rate::bps(1_000));
        sw.add_flow(FlowId(2), Rate::bps(1_000));
        let mut now = t0;
        for &p in &interleaved {
            assert!(sw.offer(now, p));
            // Cross traffic from a second ingress keeps the port
            // from degenerating to a single-flow FIFO.
            let cross = pf.make(FlowId(2), Bytes::new(125), now);
            assert!(sw.offer(now, cross));
        }
        let mut served = Vec::new();
        while let Some((p, done)) = sw.try_start(now) {
            sw.complete(done);
            now = done;
            if p.flow == FlowId(1) {
                served.push(p.uid);
            }
        }
        let offered: Vec<u64> = interleaved.iter().map(|p| p.uid).collect();
        assert_eq!(
            served,
            offered,
            "{}: flow 1 not served in port-arrival order under incast fan-in",
            sw.discipline()
        );
    }
}
