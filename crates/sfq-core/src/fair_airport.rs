//! Fair Airport scheduling (Appendix B of the paper).
//!
//! Fair Airport (FA) combines three components to get WFQ's delay
//! guarantee *and* fairness over variable-rate servers at O(log Q) cost:
//!
//! 1. a per-flow **rate regulator** releasing packet `p_f^j` at its
//!    expected arrival time `EAT^RC(p_f^j, r_f)` (Eq. 120), computed
//!    over the subsequence of packets serviced through the GSQ;
//! 2. a **Guaranteed Service Queue (GSQ)** running Virtual Clock over
//!    regulated packets, timestamping with `EAT^GSQ + l/r` — it *is* a
//!    [`VirtualClock`], fed each released packet at its original
//!    arrival, so its stamp `max(A, F_prev) + l/r` is exactly that and
//!    its per-flow finish state is the regulator's chain;
//! 3. an **Auxiliary Service Queue (ASQ)** running SFQ over *all*
//!    unserved packets — it *is* an [`Sfq`], and carries the observer.
//!
//! The server gives (non-preemptive) priority to the GSQ. A packet that
//! became eligible in the GSQ is only removed from the ASQ once the GSQ
//! serves it; on such a removal, the flow's next ASQ packet inherits the
//! removed packet's start tag (rule 5,
//! [`take_head_inheriting`](crate::TagSched::take_head_inheriting)),
//! which is what keeps Lemmas 1–2 valid for the ASQ and yields the
//! fairness bound of Theorem 8.
//!
//! Every unserved packet is in the ASQ, and the oldest ones of a flow
//! that have passed the regulator are in the GSQ as well: a flow's
//! *front held* packet, the first the regulator still holds, is its ASQ
//! packet at the position its GSQ backlog names, and an eligibility
//! heap announces it. The scheduler keeps no tags and no packets of its
//! own. An ASQ service costs O(log Q): the ASQ's heap, plus announcing
//! the flow's next packet. A GSQ service costs O(log Q + flow backlog):
//! the heaps, the re-chain of the flow's ASQ tags behind the inherited
//! start, and finding each held packet behind the admitted ones.

use crate::obs::{NoopObserver, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::sched::{SchedError, Scheduler, TieBreak};
use crate::tagsched::{Sfq, VirtualClock};
use simtime::{Rate, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which queue served a packet — exposed for telemetry and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedVia {
    /// Served by the Virtual Clock guaranteed-service queue.
    Gsq,
    /// Served by the SFQ auxiliary queue (ahead of its eligibility).
    Asq,
}

/// The Fair Airport scheduler.
///
/// ```
/// use sfq_core::{FairAirport, FlowId, PacketFactory, Scheduler, ServedVia};
/// use simtime::{Bytes, Rate, SimTime};
///
/// let mut fa = FairAirport::new();
/// fa.add_flow(FlowId(1), Rate::kbps(64));
/// let mut pf = PacketFactory::new();
/// let t0 = SimTime::ZERO;
/// // Two back-to-back packets: the first is eligible immediately and
/// // goes through the guaranteed queue; the second's expected arrival
/// // time is one l/r in the future, so the work-conserving auxiliary
/// // (SFQ) queue serves it early.
/// fa.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// fa.enqueue(t0, pf.make(FlowId(1), Bytes::new(200), t0));
/// let _ = fa.dequeue(t0).unwrap();
/// assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq));
/// fa.on_departure(t0);
/// let _ = fa.dequeue(t0).unwrap();
/// assert_eq!(fa.last_served_via(), Some(ServedVia::Asq));
/// ```
#[derive(Debug)]
pub struct FairAirport<O: SchedObserver = NoopObserver> {
    /// ASQ: every unserved packet, registered at the flow's weight.
    asq: Sfq<O>,
    /// GSQ: every flow's admitted packets, registered at the flow's
    /// weight.
    gsq: VirtualClock,
    /// Eligibility heap over each flow's *front held* packet: (EAT,
    /// uid, flow). Entries are lazily invalidated — an entry whose uid
    /// no longer matches the flow's current front held packet is
    /// discarded at pop time. Makes the regulator O(log Q) per dequeue
    /// instead of a full flow scan.
    pending: BinaryHeap<Reverse<(SimTime, u64, FlowId)>>,
    last_served_via: Option<ServedVia>,
}

impl FairAirport {
    /// New, empty Fair Airport scheduler.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: SchedObserver> FairAirport<O> {
    /// New Fair Airport scheduler reporting events to `obs`, all of them
    /// the ASQ's (an [`Sfq`]'s): every enqueue reports the packet's ASQ
    /// start and finish tags and `v` as the arrival read it; every
    /// dequeue, through either queue, reports the packet's ASQ tags as
    /// they stood when it left and `v` after the service — moved by an
    /// ASQ service, left alone by a GSQ one (which re-chains the flow's
    /// later tags, and reports nothing for them). Flow changes report
    /// as [`Sfq`]'s do.
    pub fn with_observer(obs: O) -> Self {
        FairAirport {
            asq: Sfq::with_observer(TieBreak::Fifo, obs),
            gsq: VirtualClock::new(),
            pending: BinaryHeap::new(),
            last_served_via: None,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        self.asq.observer()
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        self.asq.observer_mut()
    }

    /// Consume the scheduler, returning the observer.
    pub fn into_observer(self) -> O {
        self.asq.into_observer()
    }

    /// Which queue the most recently dequeued packet came from.
    pub fn last_served_via(&self) -> Option<ServedVia> {
        self.last_served_via
    }

    /// `flow`'s front held packet — the oldest not yet admitted to the
    /// GSQ — and its `EAT^GSQ`: its arrival, or the GSQ stamp of the
    /// flow's last admitted packet if that is later.
    fn front_held(&self, flow: FlowId) -> Option<(Packet, SimTime)> {
        let p = self.asq.queued(flow, self.gsq.backlog(flow))?;
        let chain = self.gsq.flow_last_finish(flow).unwrap_or_default();
        Some((p, p.arrival.max(SimTime::from_ratio(chain))))
    }

    /// (Re)announce `flow`'s current front held packet on the
    /// eligibility heap. Stale announcements are skipped at pop time.
    fn announce(&mut self, flow: FlowId) {
        if let Some((p, eat)) = self.front_held(flow) {
            self.pending.push(Reverse((eat, p.uid, flow)));
        }
    }

    /// Move every packet whose EAT has passed into the GSQ.
    fn release_regulator(&mut self, now: SimTime) {
        while let Some(&Reverse((eat, uid, flow))) = self.pending.peek() {
            if eat > now {
                break;
            }
            let _ = self.pending.pop();
            // Skip stale announcements: the flow was force-removed, or
            // the packet was ASQ-served or already admitted since.
            let Some((p, _)) = self.front_held(flow).filter(|(p, _)| p.uid == uid) else {
                continue;
            };
            // Rule 3: fed at its arrival, the GSQ stamps it
            // EAT^GSQ + l/r. A stamp off the tag range leaves the packet
            // to the ASQ.
            if self.gsq.try_enqueue(p.arrival, p).is_ok() {
                // The next held packet (if any) becomes announceable.
                self.announce(flow);
            }
        }
    }

    /// Drop a flow and all of its queued packets immediately, without
    /// the idle-only guard of [`Scheduler::remove_flow`] — the "flow
    /// churn" fault of the conformance harness. Returns the number of
    /// packets discarded. The GSQ drops the flow's admitted packets with
    /// it; regulator announcements for the flow are left behind as
    /// stale entries and skipped lazily (by flow-absence or uid
    /// mismatch) on later dequeues; the ASQ virtual-time state is
    /// untouched, so removal is safe even while one of the flow's
    /// packets is in service.
    pub fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        self.gsq.force_remove_flow(flow);
        self.asq.force_remove_flow(flow)
    }
}

impl Default for FairAirport {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: SchedObserver> Scheduler for FairAirport<O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.asq
            .try_add_flow(flow, weight)
            .unwrap_or_else(|e| panic!("FA: {e}"));
        self.gsq.add_flow(flow, weight);
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("FA: {e}"));
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.asq.try_enqueue(now, pkt)?;
        if self.asq.backlog(pkt.flow) - self.gsq.backlog(pkt.flow) == 1 {
            // The flow's only held packet.
            self.announce(pkt.flow);
        }
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        if self.asq.is_empty() {
            return None;
        }
        self.release_regulator(now);
        // Priority to the GSQ (rule 6). It holds the admitted prefix of
        // each flow's packets, so what it serves is its flow's ASQ head.
        let (pkt, via) = if let Some(p) = self.gsq.dequeue(now) {
            let pkt = self.asq.take_head_inheriting(now, p.flow)?;
            debug_assert_eq!(pkt.uid, p.uid);
            (pkt, ServedVia::Gsq)
        } else {
            // GSQ empty: serve the ASQ in SFQ order. With nothing
            // admitted, the served packet was its flow's front held one,
            // its EAT still in the future: it leaves the regulator
            // (rule 4) and never enters the GSQ chain.
            let pkt = self.asq.dequeue(now)?;
            self.announce(pkt.flow);
            (pkt, ServedVia::Asq)
        };
        self.last_served_via = Some(via);
        Some(pkt)
    }

    fn on_departure(&mut self, now: SimTime) {
        self.asq.on_departure(now);
    }

    fn is_empty(&self) -> bool {
        self.asq.is_empty()
    }

    fn len(&self) -> usize {
        self.asq.len()
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.asq.backlog(flow)
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        let removed = self.asq.remove_flow(flow);
        if removed {
            self.gsq.remove_flow(flow);
        }
        removed
    }

    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        FairAirport::force_remove_flow(self, flow)
    }

    fn name(&self) -> &'static str {
        "FairAirport"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SchedEvent;
    use crate::packet::PacketFactory;
    use simtime::{Bytes, Ratio};

    /// 125-byte packets, 1000 b/s weights: tag span and tx time both 1s.
    fn fa2() -> (FairAirport, PacketFactory) {
        let mut fa = FairAirport::new();
        fa.add_flow(FlowId(1), Rate::bps(1_000));
        fa.add_flow(FlowId(2), Rate::bps(1_000));
        (fa, PacketFactory::new())
    }

    #[test]
    fn eligible_packet_served_via_gsq() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        let p = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, p);
        // EAT = arrival = 0 <= now: passes regulator immediately.
        let got = fa.dequeue(t0).unwrap();
        assert_eq!(got.uid, p.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq));
    }

    #[test]
    fn future_packets_served_via_asq_when_gsq_empty() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        // Two back-to-back packets: first has EAT 0, second EAT 1s.
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, a);
        fa.enqueue(t0, b);
        let first = fa.dequeue(t0).unwrap();
        assert_eq!(first.uid, a.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq));
        fa.on_departure(t0);
        // Still t=0: b's EAT is 1s, GSQ empty — work conservation sends
        // it through the ASQ.
        let second = fa.dequeue(t0).unwrap();
        assert_eq!(second.uid, b.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Asq));
    }

    #[test]
    fn asq_served_packet_does_not_advance_regulator_chain() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        let c = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, a);
        fa.enqueue(t0, b);
        fa.enqueue(t0, c);
        // a via GSQ (EAT 0, chain -> 1s).
        assert_eq!(fa.dequeue(t0).unwrap().uid, a.uid);
        fa.on_departure(t0);
        // b via ASQ at t=0 (EAT 1s): chain must stay at 1s.
        assert_eq!(fa.dequeue(t0).unwrap().uid, b.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Asq));
        fa.on_departure(t0);
        // At t=1s, c's EAT = max(A=0, chain=1s) = 1s: eligible via GSQ.
        let t1 = SimTime::from_secs(1);
        assert_eq!(fa.dequeue(t1).unwrap().uid, c.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq));
    }

    #[test]
    fn gsq_removal_inherits_start_tag_in_asq() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, a);
        fa.enqueue(t0, b);
        // b is stamped S = 1 behind a. Serve a via GSQ: b inherits S = 0.
        assert_eq!(
            fa.asq.tags_of(b.uid),
            Some((Ratio::ONE, Ratio::from_int(2)))
        );
        let _ = fa.dequeue(t0).unwrap();
        assert_eq!(fa.asq.tags_of(b.uid), Some((Ratio::ZERO, Ratio::ONE)));
    }

    #[test]
    fn asq_removal_advances_start_tag_normally() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        let b = pf.make(FlowId(1), Bytes::new(125), t0);
        let c = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, a);
        fa.enqueue(t0, b);
        fa.enqueue(t0, c);
        let _ = fa.dequeue(t0); // a via GSQ; b inherits S=0
        fa.on_departure(t0);
        let _ = fa.dequeue(t0); // b via ASQ at S=0; c keeps S = F(b) = 1
        assert_eq!(fa.asq.tags_of(c.uid).map(|t| t.0), Some(Ratio::ONE));
    }

    #[test]
    fn gsq_priority_over_asq_across_flows() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        // Flow 1: one eligible packet. Flow 2: packet with smaller ASQ
        // start tag cannot jump the GSQ.
        let a = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, a);
        let b = pf.make(FlowId(2), Bytes::new(125), t0);
        fa.enqueue(t0, b);
        let first = fa.dequeue(t0).unwrap();
        // Both are eligible (EAT = 0); GSQ orders by timestamp then uid:
        // equal timestamps, a has the smaller uid.
        assert_eq!(first.uid, a.uid);
        assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq));
    }

    #[test]
    fn paced_flow_is_always_served_via_gsq() {
        // A flow paced at exactly l/r is always eligible on arrival:
        // every service must come from the guaranteed queue.
        let (mut fa, mut pf) = fa2();
        for k in 0..10 {
            let t = SimTime::from_secs(k);
            let p = pf.make(FlowId(1), Bytes::new(125), t);
            fa.enqueue(t, p);
            let now = t;
            let got = fa.dequeue(now).unwrap();
            assert_eq!(got.uid, p.uid);
            assert_eq!(fa.last_served_via(), Some(ServedVia::Gsq), "k={k}");
            fa.on_departure(now + simtime::SimDuration::from_secs(1));
        }
    }

    #[test]
    fn asq_backlog_drains_fairly_between_flows() {
        // Both flows burst 6 packets at t=0; only the first of each is
        // GSQ-eligible. The rest drain via the ASQ in SFQ order:
        // alternation between the flows.
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        for _ in 0..6 {
            fa.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            fa.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        }
        let mut order = Vec::new();
        while let Some(p) = fa.dequeue(t0) {
            order.push(p.flow.0);
            fa.on_departure(t0);
        }
        assert_eq!(order.len(), 12);
        // Prefix balance: flows never diverge by more than one packet.
        let mut c = [0i32; 3];
        for f in &order {
            c[*f as usize] += 1;
            assert!((c[1] - c[2]).abs() <= 1, "imbalance in {order:?}");
        }
    }

    /// The observer's enqueue ('E') and dequeue ('D') events, as
    /// (kind, uid, (start tag, finish tag)).
    #[derive(Default)]
    struct Events(Vec<(char, u64, (Ratio, Ratio))>);

    impl SchedObserver for Events {
        fn on_enqueue(&mut self, ev: &SchedEvent) {
            self.0.push(('E', ev.uid, (ev.start_tag, ev.finish_tag)));
        }
        fn on_dequeue(&mut self, ev: &SchedEvent) {
            self.0.push(('D', ev.uid, (ev.start_tag, ev.finish_tag)));
        }
    }

    fn traced() -> (FairAirport<Events>, PacketFactory) {
        let mut fa = FairAirport::with_observer(Events::default());
        fa.add_flow(FlowId(1), Rate::bps(1_000));
        fa.add_flow(FlowId(2), Rate::bps(1_000));
        (fa, PacketFactory::new())
    }

    fn tags(start: i128, finish: i128) -> (Ratio, Ratio) {
        (Ratio::from_int(start), Ratio::from_int(finish))
    }

    /// ASQ heads that tie on their start tag leave in uid order, the
    /// tag core's rule, not in flow-id order.
    #[test]
    fn asq_ties_go_by_uid() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        let [a2, a1, b2, b1] = [2, 1, 2, 1].map(|f| pf.make(FlowId(f), Bytes::new(125), t0));
        for p in [a2, a1, b2, b1] {
            fa.enqueue(t0, p);
        }
        // a2 and a1 leave through the GSQ; b2 and b1 each inherit S = 0
        // and wait for an EAT of 1 s.
        for want in [a2, a1] {
            assert_eq!(fa.dequeue(t0).map(|p| p.uid), Some(want.uid));
            fa.on_departure(t0);
        }
        // Flow 2's head holds the lower uid.
        assert_eq!(fa.dequeue(t0).map(|p| p.uid), Some(b2.uid));
        assert_eq!(fa.last_served_via(), Some(ServedVia::Asq));
    }

    /// A packet queued behind its flow's head is stamped on arrival,
    /// and its enqueue event carries those ASQ tags.
    #[test]
    fn enqueue_behind_the_head_reports_its_asq_tags() {
        let (mut fa, mut pf) = traced();
        let t0 = SimTime::ZERO;
        let [a, b] = [(); 2].map(|()| pf.make(FlowId(1), Bytes::new(125), t0));
        fa.enqueue(t0, a);
        fa.enqueue(t0, b);
        let want = [('E', a.uid, tags(0, 1)), ('E', b.uid, tags(1, 2))];
        assert_eq!(fa.observer().0, want);
    }

    /// Re-registering a backlogged flow at a new weight follows
    /// `Scheduler::add_flow`'s rule: the new weight charges the packets
    /// that arrive afterwards. Queued packets keep the tags they were
    /// stamped with (here, the ones the GSQ service before the
    /// re-registration re-chained).
    #[test]
    fn reregistration_reweights_only_later_arrivals() {
        let (mut fa, mut pf) = traced();
        let t0 = SimTime::ZERO;
        let [a, b, c] = [(); 3].map(|()| pf.make(FlowId(1), Bytes::new(125), t0));
        for p in [a, b, c] {
            fa.enqueue(t0, p);
        }
        // a leaves through the GSQ: b inherits S = 0, c follows at S = 1.
        assert_eq!(fa.dequeue(t0).map(|p| p.uid), Some(a.uid));
        fa.on_departure(t0);
        // Half the weight: 2 s of virtual time per packet from now on.
        fa.add_flow(FlowId(1), Rate::bps(500));
        let d = pf.make(FlowId(1), Bytes::new(125), t0);
        fa.enqueue(t0, d);
        while fa.dequeue(t0).is_some() {
            assert_eq!(fa.last_served_via(), Some(ServedVia::Asq));
            fa.on_departure(t0);
        }
        let departed: Vec<_> = fa
            .observer()
            .0
            .iter()
            .filter(|e| e.0 == 'D')
            .copied()
            .collect();
        let want = [
            (a, tags(0, 1)),
            (b, tags(0, 1)),
            (c, tags(1, 2)),
            (d, tags(2, 4)),
        ];
        assert_eq!(departed, want.map(|(p, tags)| ('D', p.uid, tags)));
    }

    #[test]
    fn counts_and_empty() {
        let (mut fa, mut pf) = fa2();
        let t0 = SimTime::ZERO;
        assert!(fa.dequeue(t0).is_none());
        fa.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        fa.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        assert_eq!(fa.len(), 2);
        assert_eq!(fa.backlog(FlowId(1)), 1);
        let _ = fa.dequeue(t0);
        fa.on_departure(t0);
        let _ = fa.dequeue(t0);
        fa.on_departure(t0);
        assert!(fa.is_empty());
    }
}
