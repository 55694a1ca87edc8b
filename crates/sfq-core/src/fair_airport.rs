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
//!    unserved packets.
//!
//! The server gives (non-preemptive) priority to the GSQ. A packet that
//! became eligible in the GSQ is only removed from the ASQ once the GSQ
//! serves it; on such a removal, the flow's next ASQ packet inherits the
//! removed packet's start tag (rule 5), which is what keeps Lemmas 1–2
//! valid for the ASQ and yields the fairness bound of Theorem 8.

use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::sched::{SchedError, Scheduler};
use crate::tagsched::VirtualClock;
use simtime::{Rate, Ratio, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

#[derive(Debug)]
struct FaFlow {
    weight: Rate,
    /// Unserved packets, FIFO. The first `gsq.backlog(flow)` of them
    /// have passed the regulator and wait in the GSQ as well.
    queue: VecDeque<Packet>,
    /// ASQ (SFQ) start tag of the front unserved packet; valid while
    /// `queue` is non-empty.
    front_start: Ratio,
    /// ASQ finish-tag state for arrivals to an idle flow.
    last_finish: Ratio,
}

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
    flows: HashMap<FlowId, FaFlow>,
    /// ASQ ready set: (front start tag, flow).
    asq_ready: BTreeSet<(Ratio, FlowId)>,
    /// GSQ: every flow's admitted packets, registered at the flow's
    /// weight.
    gsq: VirtualClock,
    /// Eligibility heap over each flow's *front pending* packet (the
    /// oldest packet not yet admitted to the GSQ): (EAT, uid, flow).
    /// Entries are lazily invalidated — an entry whose uid no longer
    /// matches the flow's current front pending packet is discarded at
    /// pop time. Makes the regulator O(log Q) per dequeue instead of a
    /// full flow scan.
    pending: BinaryHeap<Reverse<(SimTime, u64, FlowId)>>,
    /// ASQ virtual time state (SFQ rules).
    v: Ratio,
    in_service: Option<Ratio>,
    max_finish_served: Ratio,
    queued: usize,
    last_served_via: Option<ServedVia>,
    obs: O,
}

impl FairAirport {
    /// New, empty Fair Airport scheduler.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: SchedObserver> FairAirport<O> {
    /// New Fair Airport scheduler reporting events to `obs`. Events
    /// carry ASQ (SFQ) tags: dequeues report the removed packet's ASQ
    /// start tag and natural finish tag with `v` = the ASQ virtual
    /// time; enqueues report the flow-head tag when the arrival starts
    /// a new head (tags of deeper packets are assigned lazily and
    /// reported as zero).
    pub fn with_observer(obs: O) -> Self {
        FairAirport {
            flows: HashMap::new(),
            asq_ready: BTreeSet::new(),
            gsq: VirtualClock::new(),
            pending: BinaryHeap::new(),
            v: Ratio::ZERO,
            in_service: None,
            max_finish_served: Ratio::ZERO,
            queued: 0,
            last_served_via: None,
            obs,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the scheduler, returning the observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The ASQ's virtual time `v(t)` (SFQ semantics).
    pub fn asq_virtual_time(&self) -> Ratio {
        self.in_service.unwrap_or(self.v)
    }

    /// Which queue the most recently dequeued packet came from.
    pub fn last_served_via(&self) -> Option<ServedVia> {
        self.last_served_via
    }

    /// `flow`'s front pending packet — the oldest not yet admitted to
    /// the GSQ — and its `EAT^GSQ`: its arrival, or the GSQ stamp of the
    /// flow's last admitted packet if that is later.
    fn front_pending(&self, flow: FlowId) -> Option<(Packet, SimTime)> {
        let &p = self.flows.get(&flow)?.queue.get(self.gsq.backlog(flow))?;
        let chain = self.gsq.flow_last_finish(flow).unwrap_or_default();
        Some((p, p.arrival.max(SimTime::from_ratio(chain))))
    }

    /// (Re)announce `flow`'s current front pending packet on the
    /// eligibility heap. Stale announcements are skipped at pop time.
    fn announce_pending(&mut self, flow: FlowId) {
        if let Some((p, eat)) = self.front_pending(flow) {
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
            let Some((p, _)) = self.front_pending(flow).filter(|(p, _)| p.uid == uid) else {
                continue;
            };
            // Rule 3: fed at its arrival, the GSQ stamps it
            // EAT^GSQ + l/r. A stamp off the tag range leaves the packet
            // to the ASQ.
            if self.gsq.try_enqueue(p.arrival, p).is_ok() {
                // The next pending packet (if any) becomes announceable.
                self.announce_pending(flow);
            }
        }
    }

    /// Remove the front unserved packet of `flow` and fix up the ASQ
    /// bookkeeping, applying start-tag inheritance on GSQ removals.
    fn remove_front(&mut self, now: SimTime, flow: FlowId, via: ServedVia) -> Packet {
        let Some(fs) = self.flows.get_mut(&flow) else {
            unreachable!("remove_front on unknown flow {flow}")
        };
        let removed_start = fs.front_start;
        let Some(p) = fs.queue.pop_front() else {
            unreachable!("remove_front on empty flow {flow}")
        };
        let natural_finish = removed_start + fs.weight.tag_span(p.len);
        self.asq_ready.remove(&(removed_start, flow));
        if let Some(_next) = fs.queue.front() {
            fs.front_start = match via {
                // Rule 5: the next packet inherits the removed packet's
                // start tag.
                ServedVia::Gsq => removed_start,
                // Ordinary SFQ continuation: S = F of the predecessor.
                ServedVia::Asq => natural_finish,
            };
            let new_start = fs.front_start;
            self.asq_ready.insert((new_start, flow));
        } else {
            fs.last_finish = natural_finish;
        }
        self.max_finish_served = self.max_finish_served.max(natural_finish);
        self.queued -= 1;
        self.last_served_via = Some(via);
        self.obs.on_dequeue(&SchedEvent {
            time: now,
            flow,
            uid: p.uid,
            len: p.len,
            start_tag: removed_start,
            finish_tag: natural_finish,
            v: self.asq_virtual_time(),
        });
        if via == ServedVia::Asq {
            // The served packet was the flow's front *pending* packet
            // (GSQ priority guarantees nothing is admitted here):
            // announce the successor's eligibility.
            debug_assert_eq!(self.gsq.backlog(flow), 0);
            self.announce_pending(flow);
        }
        p
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
        let Some(fs) = self.flows.remove(&flow) else {
            return 0;
        };
        self.gsq.force_remove_flow(flow);
        let dropped = fs.queue.len();
        self.queued -= dropped;
        if !fs.queue.is_empty() {
            self.asq_ready.remove(&(fs.front_start, flow));
        }
        self.obs
            .on_flow_change(flow, &FlowChange::ForceRemoved { dropped });
        dropped
    }
}

impl Default for FairAirport {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: SchedObserver> Scheduler for FairAirport<O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        assert!(weight.as_bps() > 0, "FA: flow weight must be positive");
        self.gsq.add_flow(flow, weight);
        self.flows
            .entry(flow)
            .and_modify(|fs| fs.weight = weight)
            .or_insert_with(|| FaFlow {
                weight,
                queue: VecDeque::new(),
                front_start: Ratio::ZERO,
                last_finish: Ratio::ZERO,
            });
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("FA: {e}"));
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        // Snapped at the read point (see Ratio::snap_pico).
        let v_now = self.asq_virtual_time().snap_pico();
        let fs = self
            .flows
            .get_mut(&pkt.flow)
            .ok_or(SchedError::UnknownFlow(pkt.flow))?;
        let was_empty = fs.queue.is_empty();
        let mut tags = (Ratio::ZERO, Ratio::ZERO);
        if was_empty {
            // SFQ arrival to an idle flow: S = max(v(A), F_prev).
            // Checked before any state changes so a tag overflow
            // leaves no trace.
            let s = v_now.max(fs.last_finish);
            let f = s
                .checked_add(fs.weight.tag_span(pkt.len))
                .ok_or(SchedError::TagOverflow)?;
            fs.front_start = s;
            tags = (s, f);
        }
        fs.queue.push_back(pkt);
        let is_front_pending = fs.queue.len() - self.gsq.backlog(pkt.flow) == 1;
        if was_empty {
            self.asq_ready.insert((tags.0, pkt.flow));
        }
        self.queued += 1;
        if is_front_pending {
            self.announce_pending(pkt.flow);
        }
        self.obs.on_enqueue(&SchedEvent {
            time: now,
            flow: pkt.flow,
            uid: pkt.uid,
            len: pkt.len,
            start_tag: tags.0,
            finish_tag: tags.1,
            v: v_now,
        });
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        if self.queued == 0 {
            return None;
        }
        self.release_regulator(now);
        // Priority to the GSQ (rule 6). It holds the admitted prefix of
        // each flow's queue, so what it serves is its flow's front.
        if let Some(p) = self.gsq.dequeue(now) {
            let pkt = self.remove_front(now, p.flow, ServedVia::Gsq);
            debug_assert_eq!(pkt.uid, p.uid);
            return Some(pkt);
        }
        // GSQ empty: serve the ASQ in SFQ order. The served packet is
        // necessarily still in the regulator (its EAT is in the future),
        // so it is removed from the regulator (rule 4) and never enters
        // the GSQ chain.
        let &(start, flow) = self.asq_ready.iter().next()?;
        self.in_service = Some(start);
        self.v = start;
        Some(self.remove_front(now, flow, ServedVia::Asq))
    }

    fn on_departure(&mut self, _now: SimTime) {
        self.in_service = None;
        if self.queued == 0 {
            self.v = self.max_finish_served;
        }
    }

    fn is_empty(&self) -> bool {
        self.queued == 0
    }

    fn len(&self) -> usize {
        self.queued
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).map_or(0, |f| f.queue.len())
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        match self.flows.get(&flow) {
            Some(fs) if fs.queue.is_empty() => {
                self.flows.remove(&flow);
                self.gsq.remove_flow(flow);
                self.obs.on_flow_change(flow, &FlowChange::Removed);
                true
            }
            _ => false,
        }
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
    use crate::packet::PacketFactory;
    use simtime::Bytes;

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
        // Front start tag is 0. Serve a via GSQ: b inherits S = 0.
        let _ = fa.dequeue(t0).unwrap();
        let fs_start = fa.flows.get(&FlowId(1)).unwrap().front_start;
        assert_eq!(fs_start, Ratio::ZERO);
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
        let _ = fa.dequeue(t0); // b via ASQ at S=0; c gets S = F(b) = 1
        let fs_start = fa.flows.get(&FlowId(1)).unwrap().front_start;
        assert_eq!(fs_start, Ratio::ONE);
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
