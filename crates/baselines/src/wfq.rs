//! WFQ / PGPS and FQS — the tag core's GPS rules, re-exported at the
//! crate root — checked on the paper's Examples 1 and 2.

#[cfg(test)]
mod tests {
    use crate::{Fqs, Wfq};
    use sfq_core::{FlowId, PacketFactory, Scheduler};
    use simtime::{Bytes, Rate, Ratio, SimTime};

    /// Example 1 of the paper: flows f and m with l^max/r equal; f sends
    /// 2 full-size packets, m sends one full-size and two half-size; a
    /// valid WFQ order is f1, m1, m2, m3, f2.
    #[test]
    fn example1_wfq_order() {
        let t0 = SimTime::ZERO;
        // Full-size packets are 250 bytes (span 2), halves 125 (span 1).
        let mut w = Wfq::new(Rate::bps(2_000));
        w.add_flow(FlowId(1), Rate::bps(1_000));
        w.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let f1 = pf.make(FlowId(1), Bytes::new(250), t0);
        let f2 = pf.make(FlowId(1), Bytes::new(250), t0);
        let m1 = pf.make(FlowId(2), Bytes::new(250), t0);
        let m2 = pf.make(FlowId(2), Bytes::new(125), t0);
        let m3 = pf.make(FlowId(2), Bytes::new(125), t0);
        for p in [f1, f2, m1, m2, m3] {
            w.enqueue(t0, p);
        }
        // Finish tags: F(f1)=2, F(f2)=4, F(m1)=2, F(m2)=3, F(m3)=4.
        assert_eq!(w.tags_of(f1.uid).unwrap().1, Ratio::from_int(2));
        assert_eq!(w.tags_of(f2.uid).unwrap().1, Ratio::from_int(4));
        assert_eq!(w.tags_of(m1.uid).unwrap().1, Ratio::from_int(2));
        assert_eq!(w.tags_of(m2.uid).unwrap().1, Ratio::from_int(3));
        assert_eq!(w.tags_of(m3.uid).unwrap().1, Ratio::from_int(4));
        let order: Vec<u64> = std::iter::from_fn(|| w.dequeue(t0).map(|p| p.uid)).collect();
        // Ties broken by uid: f1 before m1 (uid), f2 before m3? f2.uid=1 <
        // m3.uid=4, so order is f1, m1, m2, f2, m3 — uid tie-break picks
        // f2 at tag 4. Example 1 allows any tie-break; the unfairness
        // interval [start(m1), finish(m3)] still contains no f service
        // in the paper's chosen order. Here we just verify tag ordering.
        assert_eq!(order[0], f1.uid);
        assert_eq!(order[1], m1.uid);
        assert_eq!(order[2], m2.uid);
        assert!(order[3] == f2.uid || order[3] == m3.uid);
    }

    #[test]
    fn fqs_serves_by_start_tag() {
        let mut q = Fqs::new(Rate::bps(2_000));
        q.add_flow(FlowId(1), Rate::bps(1_000));
        q.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0); // S=0,F=1
        let b = pf.make(FlowId(1), Bytes::new(125), t0); // S=1,F=2
        let c = pf.make(FlowId(2), Bytes::new(125), t0); // S=0,F=1
        q.enqueue(t0, a);
        q.enqueue(t0, b);
        q.enqueue(t0, c);
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue(t0).map(|p| p.uid)).collect();
        assert_eq!(order, vec![a.uid, c.uid, b.uid]);
    }

    #[test]
    fn wfq_backlog_and_len() {
        let mut w = Wfq::new(Rate::mbps(1));
        w.add_flow(FlowId(1), Rate::kbps(500));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        w.enqueue(t0, pf.make(FlowId(1), Bytes::new(100), t0));
        assert_eq!(w.len(), 1);
        assert_eq!(w.backlog(FlowId(1)), 1);
        assert!(!w.is_empty());
        let _ = w.dequeue(t0);
        assert!(w.is_empty());
        assert!(w.dequeue(t0).is_none());
    }

    /// Example 2: WFQ computes v(t) against its assumed capacity, so a
    /// flow arriving after a slow real-server interval gets a huge
    /// finish tag and is starved — the schedule itself shows the bias.
    #[test]
    fn example2_late_flow_gets_large_tags() {
        // Assumed capacity C = 10 unit packets/s (packets of 125 bytes
        // at 10_000 bps); weights 1 pkt/s = 1_000 bps.
        let c = 10i128;
        let mut w = Wfq::new(Rate::bps(10_000));
        w.add_flow(FlowId(1), Rate::bps(1_000));
        w.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Flow 1 sends C+1 packets at t=0: F(p^j) = j.
        let mut pkts = Vec::new();
        for _ in 0..=c {
            let p = pf.make(FlowId(1), Bytes::new(125), t0);
            w.enqueue(t0, p);
            pkts.push(p);
        }
        assert_eq!(w.tags_of(pkts[0].uid).unwrap().1, Ratio::ONE);
        // Real server was slow: only 1 packet served in [0,1). At t=1 the
        // GPS clock nevertheless advanced at slope C/1 = 10: v(1) = C.
        let t1 = SimTime::from_secs(1);
        let m1 = pf.make(FlowId(2), Bytes::new(125), t1);
        w.enqueue(t1, m1);
        // F(m1) = v(1) + 1 = C + 1, behind all of flow 1's backlog.
        assert_eq!(w.tags_of(m1.uid).unwrap().1, Ratio::from_int(c + 1));
    }
}
