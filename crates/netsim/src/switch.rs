//! Output-queued switch port: strict-priority class + pluggable
//! scheduler, drained by a (possibly variable-rate) link.
//!
//! This models the switch of Figure 1: source 1's packets get strict
//! priority; sources 2 and 3 are scheduled by WFQ or SFQ. To the
//! scheduled class, the link therefore *is* a variable-rate server —
//! the situation SFQ handles and WFQ does not.

use servers::RateProfile;
use sfq_core::obs::{Backpressure, SchedEvent, SchedObserver};
use sfq_core::{FlowId, FlowMap, Packet, ReconfigCmd, SchedError, Scheduler, TelemetrySink};
use sfq_telemetry::RefuseCause;
use simtime::{Rate, Ratio, SimTime};
use std::collections::VecDeque;

/// How a port responds when an arrival finds its buffer full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DropPolicy {
    /// Refuse the arriving packet (the seed behaviour).
    #[default]
    TailDrop,
    /// Evict the arriving flow's oldest queued packet to admit the
    /// arrival — favours fresh data over stale (interactive/real-time
    /// traffic). Needs [`Scheduler::drop_head`] support; disciplines
    /// without it fall back to tail drop.
    HeadDrop,
    /// On a *shared*-cap overflow, evict the head packet of the flow
    /// with the largest buffer pressure `backlog/weight` — sheds from
    /// whoever occupies the most buffer relative to its reservation,
    /// protecting conforming flows. Per-flow-cap overflows still evict
    /// the arriving flow's own head (no other eviction can make room
    /// under its own cap). Falls back to tail drop without
    /// `drop_head` support.
    LowestWeightPressure,
}

/// One switch output port.
pub struct SwitchCore {
    sched: Box<dyn Scheduler>,
    priority: VecDeque<Packet>,
    link: RateProfile,
    /// Per-flow buffer cap for scheduled flows (`None` = unbounded).
    per_flow_cap: Option<usize>,
    /// Shared buffer cap across all scheduled flows (`None` =
    /// unbounded).
    shared_cap: Option<usize>,
    policy: DropPolicy,
    /// Registered weights, for the pressure victim search. Dense
    /// (`FlowMap`) so a port tracks flows without hashing; iteration
    /// order is insertion-dependent, so the victim search breaks ties
    /// by id.
    weights: FlowMap<Rate>,
    /// Flows currently under backpressure (cap reached and a packet
    /// shed since the backlog last drained below the cap).
    engaged: FlowMap<()>,
    /// Scratch of [`SwitchCore::release_drained`], kept across calls.
    released: Vec<FlowId>,
    busy: bool,
    drops: FlowMap<u64>,
    /// Drop hook: fires for packets the port refuses before the
    /// scheduler ever sees them (so a scheduler-attached observer
    /// cannot report them), for head-drop evictions, and for
    /// [`Backpressure`] transitions. Enqueue/dequeue events come from
    /// the scheduler's own observer, attached at construction.
    drop_obs: Option<Box<dyn SchedObserver>>,
    /// Port-level counter page (offered arrivals, cap refusals, policy
    /// evictions), written with plain single-writer stores. Enqueue and
    /// dequeue counters for admitted packets live on the scheduler's
    /// own page — attach one there for the full picture (engines do
    /// this per shard via `attach_telemetry`).
    tele: Option<TelemetrySink>,
}

impl SwitchCore {
    /// New port draining `sched` over `link`, tail-dropping when a
    /// flow's backlog reaches `per_flow_cap`.
    pub fn new(sched: Box<dyn Scheduler>, link: RateProfile, per_flow_cap: Option<usize>) -> Self {
        SwitchCore {
            sched,
            priority: VecDeque::new(),
            link,
            per_flow_cap,
            shared_cap: None,
            policy: DropPolicy::TailDrop,
            weights: FlowMap::new(),
            engaged: FlowMap::new(),
            released: Vec::new(),
            busy: false,
            drops: FlowMap::new(),
            drop_obs: None,
            tele: None,
        }
    }

    /// Attach a port-level telemetry page: every later offered arrival,
    /// cap refusal, and policy eviction is recorded on `sink` (see the
    /// `sfq-telemetry` crate and `docs/telemetry.md`).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.tele = Some(sink);
    }

    /// The attached port telemetry page, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.tele.as_ref()
    }

    /// Select the overflow response (default [`DropPolicy::TailDrop`]).
    pub fn set_drop_policy(&mut self, policy: DropPolicy) {
        self.policy = policy;
    }

    /// The port's overflow response.
    pub fn drop_policy(&self) -> DropPolicy {
        self.policy
    }

    /// Cap the *total* scheduled backlog (on top of any per-flow cap).
    pub fn set_shared_cap(&mut self, cap: Option<usize>) {
        self.shared_cap = cap;
    }

    /// Attach an observer for packets this port refuses (buffer-cap
    /// drops, head-drop evictions) and for backpressure transitions.
    /// Dropped packets carry zero tags — they were never tagged, or
    /// their tags already belong to the scheduler's own observer.
    pub fn set_drop_observer(&mut self, obs: Box<dyn SchedObserver>) {
        self.drop_obs = Some(obs);
    }

    /// Register a scheduled flow.
    pub fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.weights.insert(flow, weight);
        self.sched.add_flow(flow, weight);
    }

    /// The registered weight of a scheduled flow, if any.
    pub fn flow_weight(&self, flow: FlowId) -> Option<Rate> {
        self.weights.get(flow).copied()
    }

    /// Force-remove a scheduled flow mid-backlog (the churn fault):
    /// delegates to [`Scheduler::force_remove_flow`], returning the
    /// number of queued packets discarded (0 if the discipline does
    /// not support removal). Any backpressure on the flow is released,
    /// stamped at `now` — fan-in surfaced that the old zero-argument
    /// form stamped these observer events at `SimTime::ZERO`, making
    /// multi-port backpressure timelines regress mid-run.
    pub fn force_remove_flow(&mut self, now: SimTime, flow: FlowId) -> usize {
        let dropped = self.sched.force_remove_flow(flow);
        self.weights.remove(flow);
        self.release_drained(now);
        if self.engaged.remove(flow).is_some() {
            if let Some(obs) = &mut self.drop_obs {
                obs.on_backpressure(now, flow, Backpressure::Release);
            }
        }
        dropped
    }

    /// Apply a live reconfiguration command to the scheduled class
    /// (see [`Scheduler::try_reconfig`]), keeping the port's own flow
    /// table — which feeds the pressure-victim search — in sync on
    /// success. `RemoveFlow` is forceful mid-backlog on engine-backed
    /// ports and releases any backpressure the flow held, stamped at
    /// `now`, exactly like [`SwitchCore::force_remove_flow`]; callers
    /// tracking conservation should read the flow's backlog first.
    pub fn try_reconfig(&mut self, now: SimTime, cmd: ReconfigCmd) -> Result<(), SchedError> {
        self.sched.try_reconfig(cmd)?;
        match cmd {
            ReconfigCmd::SetWeight(flow, rate)
            | ReconfigCmd::SetRate(flow, rate)
            | ReconfigCmd::AddFlow(flow, rate) => {
                self.weights.insert(flow, rate);
            }
            ReconfigCmd::RemoveFlow(flow) => {
                self.weights.remove(flow);
                self.release_drained(now);
                if self.engaged.remove(flow).is_some() {
                    if let Some(obs) = &mut self.drop_obs {
                        obs.on_backpressure(now, flow, Backpressure::Release);
                    }
                }
            }
            ReconfigCmd::SetShardWeight(..) => {}
        }
        Ok(())
    }

    /// Offer a packet to the strict-priority class (never dropped).
    pub fn offer_priority(&mut self, _now: SimTime, pkt: Packet) {
        self.priority.push_back(pkt);
    }

    /// Offer a packet to the scheduled class; returns `false` (drop) if
    /// the buffer refused it. Panics on scheduler errors other than a
    /// full buffer (unregistered flow, tag overflow) — use
    /// [`SwitchCore::try_offer`] to handle those gracefully.
    pub fn offer(&mut self, now: SimTime, pkt: Packet) -> bool {
        match self.try_offer(now, pkt) {
            Ok(()) => true,
            Err(SchedError::BufferFull(_)) => false,
            Err(e) => panic!("{}: {e}", self.sched.name()),
        }
    }

    /// Fallible admission: applies the buffer caps under the configured
    /// [`DropPolicy`], then hands the packet to the scheduler's
    /// fallible enqueue. [`SchedError::BufferFull`] means the packet
    /// was shed (tail drop, or an eviction could not make room); other
    /// errors propagate from the discipline with the port state
    /// untouched.
    pub fn try_offer(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let flow = pkt.flow;
        if let Some(t) = &self.tele {
            t.record_offered(1);
        }
        if let Some(cap) = self.per_flow_cap {
            if self.sched.backlog(flow) >= cap {
                self.engage(now, flow);
                // Under the flow's own cap only its own head can make
                // room, whatever the policy.
                if self.policy == DropPolicy::TailDrop || self.evict_head(now, flow).is_none() {
                    return self.refuse(now, pkt);
                }
            }
        }
        if let Some(cap) = self.shared_cap {
            if self.sched.len() >= cap {
                self.engage(now, flow);
                let victim = match self.policy {
                    DropPolicy::TailDrop => None,
                    DropPolicy::HeadDrop => (self.sched.backlog(flow) > 0).then_some(flow),
                    DropPolicy::LowestWeightPressure => self.pressure_victim(),
                };
                if victim.and_then(|v| self.evict_head(now, v)).is_none() {
                    return self.refuse(now, pkt);
                }
            }
        }
        match self.sched.try_enqueue(now, pkt) {
            // A scheduler-level refusal (e.g. an engine ingress ring at
            // capacity) is a shed packet like any other: it must hit
            // the drop counters and the drop observer, not silently
            // propagate. Surfaced by incast fan-in onto engine ports,
            // where the ring cap trips before the switch caps do.
            Err(SchedError::BufferFull(_)) => {
                self.engage(now, pkt.flow);
                self.refuse(now, pkt)
            }
            other => other,
        }
    }

    /// The flow whose backlog is largest relative to its weight
    /// (`argmax backlog/weight`, compared by cross products so the
    /// search stays exact). Ties break toward the smaller flow id, so
    /// one pass in the table's own order decides, allocating nothing.
    fn pressure_victim(&self) -> Option<FlowId> {
        let mut best: Option<(FlowId, u128, u128)> = None;
        for (flow, &w) in self.weights.iter() {
            let backlog = self.sched.backlog(flow) as u128;
            if backlog == 0 {
                continue;
            }
            let wbps = u128::from(w.as_bps().max(1));
            let better = best.is_none_or(|(b_flow, b_backlog, b_w)| {
                let (ours, theirs) = (backlog * b_w, b_backlog * wbps);
                ours > theirs || (ours == theirs && flow < b_flow)
            });
            if better {
                best = Some((flow, backlog, wbps));
            }
        }
        best.map(|(f, _, _)| f)
    }

    /// Evict `victim`'s head-of-line packet, recording the drop.
    fn evict_head(&mut self, now: SimTime, victim: FlowId) -> Option<Packet> {
        let evicted = self.sched.drop_head(victim)?;
        self.count_drop(evicted.flow);
        if let Some(t) = &self.tele {
            t.record_head_drop();
        }
        if let Some(obs) = &mut self.drop_obs {
            obs.on_drop(&SchedEvent {
                time: now,
                flow: evicted.flow,
                uid: evicted.uid,
                len: evicted.len,
                start_tag: Ratio::ZERO,
                finish_tag: Ratio::ZERO,
                v: Ratio::ZERO,
            });
        }
        Some(evicted)
    }

    /// Record a refused arrival and report [`SchedError::BufferFull`].
    fn refuse(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.count_drop(pkt.flow);
        if let Some(t) = &self.tele {
            t.record_refusal(RefuseCause::BufferFull);
        }
        if let Some(obs) = &mut self.drop_obs {
            obs.on_drop(&SchedEvent {
                time: now,
                flow: pkt.flow,
                uid: pkt.uid,
                len: pkt.len,
                start_tag: Ratio::ZERO,
                finish_tag: Ratio::ZERO,
                v: Ratio::ZERO,
            });
        }
        Err(SchedError::BufferFull(pkt.flow))
    }

    /// Bump the per-flow drop counter.
    fn count_drop(&mut self, flow: FlowId) {
        match self.drops.get_mut(flow) {
            Some(n) => *n += 1,
            None => {
                self.drops.insert(flow, 1);
            }
        }
    }

    /// Mark `flow` as under backpressure, signalling the transition.
    fn engage(&mut self, now: SimTime, flow: FlowId) {
        if self.engaged.insert(flow, ()).is_none() {
            if let Some(obs) = &mut self.drop_obs {
                obs.on_backpressure(now, flow, Backpressure::Engage);
            }
        }
    }

    /// Release backpressure on every engaged flow whose backlog has
    /// drained back below the caps.
    fn release_drained(&mut self, now: SimTime) {
        if self.engaged.is_empty() {
            return;
        }
        let mut released = std::mem::take(&mut self.released);
        let shared_ok = self.shared_cap.is_none_or(|c| self.sched.len() < c);
        let drained = |f: &FlowId| self.per_flow_cap.is_none_or(|c| self.sched.backlog(*f) < c);
        let engaged = self.engaged.iter().map(|(f, _)| f);
        released.extend(engaged.filter(|f| shared_ok && drained(f)));
        // Flow ids are unique: the unstable sort is the stable order
        // and, unlike the stable one, never allocates.
        released.sort_unstable_by_key(|f| f.0);
        for &flow in &released {
            self.engaged.remove(flow);
            if let Some(obs) = &mut self.drop_obs {
                obs.on_backpressure(now, flow, Backpressure::Release);
            }
        }
        released.clear();
        self.released = released;
    }

    /// If the link is free and a packet is queued, start transmitting:
    /// returns the packet and its exact completion time.
    pub fn try_start(&mut self, now: SimTime) -> Option<(Packet, SimTime)> {
        if self.busy {
            return None;
        }
        let pkt = if let Some(p) = self.priority.pop_front() {
            Some(p)
        } else {
            let p = self.sched.dequeue(now);
            if p.is_some() {
                self.release_drained(now);
            }
            p
        }?;
        self.busy = true;
        let done = self.link.finish_time(now, pkt.len);
        Some((pkt, done))
    }

    /// The in-flight transmission completed.
    pub fn complete(&mut self, now: SimTime) {
        debug_assert!(self.busy, "completion while idle");
        self.busy = false;
        self.sched.on_departure(now);
        self.release_drained(now);
    }

    /// Total packets dropped for a flow.
    pub fn drops(&self, flow: FlowId) -> u64 {
        self.drops.get(flow).copied().unwrap_or(0)
    }

    /// Every per-flow drop counter (flows with at least one drop).
    pub fn all_drops(&self) -> impl Iterator<Item = (FlowId, u64)> + '_ {
        self.drops.iter().map(|(f, &n)| (f, n))
    }

    /// Queued packets (both classes).
    pub fn queued(&self) -> usize {
        self.priority.len() + self.sched.len()
    }

    /// Name of the scheduled-class discipline.
    pub fn discipline(&self) -> &'static str {
        self.sched.name()
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use servers::RateProfile;
    use sfq_core::{PacketFactory, Sfq};
    use simtime::{Bytes, Rate};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Shared drop counter (the `Rc<RefCell<_>>` observer pattern).
    #[derive(Default)]
    struct DropLog {
        drops: Vec<(u32, u64)>,
    }

    impl SchedObserver for DropLog {
        fn on_drop(&mut self, ev: &SchedEvent) {
            self.drops.push((ev.flow.0, ev.uid));
        }
    }

    #[test]
    fn drop_observer_sees_refused_packets() {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut sw = SwitchCore::new(
            Box::new(s),
            RateProfile::constant(Rate::bps(1_000)),
            Some(1),
        );
        let log = Rc::new(RefCell::new(DropLog::default()));
        sw.set_drop_observer(Box::new(Rc::clone(&log)));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(10), t0);
        let b = pf.make(FlowId(1), Bytes::new(10), t0);
        assert!(sw.offer(t0, a));
        assert!(!sw.offer(t0, b));
        assert_eq!(log.borrow().drops, vec![(1, b.uid)]);
        assert_eq!(sw.drops(FlowId(1)), 1);
    }

    #[test]
    fn scheduler_level_refusal_hits_drop_books() {
        // No switch caps: only the scheduler's one-slot pool refuses.
        // Its BufferFull is a shed packet like a cap refusal — counted
        // and observed, not passed through silently.
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        s.set_pool_limit(Some(1));
        let mut sw = SwitchCore::new(Box::new(s), RateProfile::constant(Rate::bps(1_000)), None);
        let log = Rc::new(RefCell::new(DropLog::default()));
        sw.set_drop_observer(Box::new(Rc::clone(&log)));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        let refused = pf.make(FlowId(1), Bytes::new(10), t0);
        assert!(!sw.offer(t0, refused));
        assert_eq!(sw.drops(FlowId(1)), 1, "refusal missing from drop books");
        assert_eq!(log.borrow().drops, vec![(1, refused.uid)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use servers::RateProfile;
    use sfq_core::{PacketFactory, Sfq};
    use simtime::{Bytes, Rate};

    fn core(cap: Option<usize>) -> (SwitchCore, PacketFactory) {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        s.add_flow(FlowId(2), Rate::bps(1_000));
        (
            SwitchCore::new(Box::new(s), RateProfile::constant(Rate::bps(1_000)), cap),
            PacketFactory::new(),
        )
    }

    #[test]
    fn priority_class_preempts_scheduled_order() {
        let (mut sw, mut pf) = core(None);
        let t0 = SimTime::ZERO;
        let low = pf.make(FlowId(1), Bytes::new(125), t0);
        assert!(sw.offer(t0, low));
        let hi = pf.make(FlowId(9), Bytes::new(125), t0);
        sw.offer_priority(t0, hi);
        let (first, done) = sw.try_start(t0).unwrap();
        assert_eq!(first.uid, hi.uid);
        assert_eq!(done, SimTime::from_secs(1));
        // Busy: no second start until complete.
        assert!(sw.try_start(t0).is_none());
        sw.complete(done);
        let (second, _) = sw.try_start(done).unwrap();
        assert_eq!(second.uid, low.uid);
    }

    #[test]
    fn per_flow_cap_drops_excess() {
        let (mut sw, mut pf) = core(Some(2));
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert_eq!(sw.drops(FlowId(1)), 1);
        // Other flow unaffected.
        assert!(sw.offer(t0, pf.make(FlowId(2), Bytes::new(10), t0)));
        assert_eq!(sw.queued(), 3);
    }

    #[test]
    fn try_offer_reports_buffer_full_and_unknown_flow() {
        let (mut sw, mut pf) = core(Some(1));
        let t0 = SimTime::ZERO;
        assert_eq!(
            sw.try_offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)),
            Ok(())
        );
        assert_eq!(
            sw.try_offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)),
            Err(SchedError::BufferFull(FlowId(1)))
        );
        // Unregistered flow propagates from the discipline, not counted
        // as a buffer drop.
        assert_eq!(
            sw.try_offer(t0, pf.make(FlowId(7), Bytes::new(10), t0)),
            Err(SchedError::UnknownFlow(FlowId(7)))
        );
        assert_eq!(sw.drops(FlowId(1)), 1);
        assert_eq!(sw.drops(FlowId(7)), 0);
    }

    #[test]
    fn head_drop_evicts_own_oldest_packet() {
        let (mut sw, mut pf) = core(Some(2));
        sw.set_drop_policy(DropPolicy::HeadDrop);
        let t0 = SimTime::ZERO;
        let a = pf.make(FlowId(1), Bytes::new(10), t0);
        let b = pf.make(FlowId(1), Bytes::new(10), t0);
        let c = pf.make(FlowId(1), Bytes::new(10), t0);
        assert!(sw.offer(t0, a));
        assert!(sw.offer(t0, b));
        // Cap reached: the arrival evicts `a` (the flow's head) and is
        // admitted itself.
        assert!(sw.offer(t0, c));
        assert_eq!(sw.drops(FlowId(1)), 1);
        assert_eq!(sw.queued(), 2);
        let (first, _) = sw.try_start(t0).unwrap();
        assert_eq!(first.uid, b.uid, "oldest survivor serves first");
    }

    #[test]
    fn shared_cap_lwp_evicts_highest_pressure_flow() {
        // Register flows through the port so the victim search sees the
        // weights: flow 1 heavy (high weight), flow 2 light.
        let mut sw = SwitchCore::new(
            Box::new(Sfq::new()),
            RateProfile::constant(Rate::bps(1_000)),
            None,
        );
        sw.add_flow(FlowId(1), Rate::bps(4_000));
        sw.add_flow(FlowId(2), Rate::bps(1_000));
        sw.set_shared_cap(Some(4));
        sw.set_drop_policy(DropPolicy::LowestWeightPressure);
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Flow 2 hogs 3 of the 4 shared slots; flow 1 takes 1.
        let hog = pf.make(FlowId(2), Bytes::new(10), t0);
        assert!(sw.offer(t0, hog));
        assert!(sw.offer(t0, pf.make(FlowId(2), Bytes::new(10), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(2), Bytes::new(10), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        // Shared cap full. Flow 1 arrival: pressure(2) = 3/1000 beats
        // pressure(1) = 1/4000, so flow 2's head is shed.
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert_eq!(sw.drops(FlowId(2)), 1);
        assert_eq!(sw.drops(FlowId(1)), 0);
        assert_eq!(sw.queued(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass victim search picks what the sort-based rule it
        /// replaced picks: scan every flow in id order, keep the first
        /// strictly greater `backlog/weight`. Backlogs and weights come
        /// from small ranges, so equal pressures (2/2 against 1/1) are
        /// common, and flows register in random id order.
        #[test]
        fn pressure_victim_matches_the_sorted_scan(
            flows in prop::collection::vec((0u32..12, 0u64..4, 1u64..5), 1..10),
        ) {
            let mut sw = SwitchCore::new(
                Box::new(Sfq::new()),
                RateProfile::constant(Rate::bps(1_000)),
                None,
            );
            let mut pf = PacketFactory::new();
            let t0 = SimTime::ZERO;
            let mut registered: Vec<(u32, u64, u64)> = Vec::new();
            for &(id, backlog, w) in &flows {
                if registered.iter().any(|r| r.0 == id) {
                    continue;
                }
                sw.add_flow(FlowId(id), Rate::bps(w * 1_000));
                for _ in 0..backlog {
                    prop_assert!(sw.offer(t0, pf.make(FlowId(id), Bytes::new(10), t0)));
                }
                registered.push((id, backlog, w * 1_000));
            }
            registered.sort_by_key(|r| r.0);
            let mut want: Option<(u32, u64, u64)> = None;
            for (id, backlog, w) in registered {
                if backlog == 0 {
                    continue;
                }
                if want.is_none_or(|(_, b, bw)| backlog * bw > b * w) {
                    want = Some((id, backlog, w));
                }
            }
            prop_assert_eq!(sw.pressure_victim(), want.map(|(id, _, _)| FlowId(id)));
        }
    }

    #[test]
    fn tail_drop_refuses_on_shared_cap() {
        let (mut sw, mut pf) = core(None);
        sw.set_shared_cap(Some(2));
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(2), Bytes::new(10), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert_eq!(sw.drops(FlowId(1)), 1);
        assert_eq!(sw.queued(), 2);
    }

    #[test]
    fn head_drop_falls_back_to_tail_drop_without_support() {
        // DRR-style disciplines return None from drop_head; the policy
        // must degrade to refusing the arrival, never panic.
        let mut d = baselines_stub::NoEvict::default();
        d.add_flow(FlowId(1), Rate::bps(1_000));
        let mut sw = SwitchCore::new(
            Box::new(d),
            RateProfile::constant(Rate::bps(1_000)),
            Some(1),
        );
        sw.set_drop_policy(DropPolicy::HeadDrop);
        sw.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(10), t0)));
        assert_eq!(sw.drops(FlowId(1)), 1);
    }

    /// Minimal FIFO discipline without `drop_head` support.
    mod baselines_stub {
        use super::*;
        use std::collections::VecDeque;

        #[derive(Default)]
        pub struct NoEvict {
            q: VecDeque<Packet>,
        }

        impl Scheduler for NoEvict {
            fn add_flow(&mut self, _flow: FlowId, _weight: Rate) {}
            fn enqueue(&mut self, _now: SimTime, pkt: Packet) {
                self.q.push_back(pkt);
            }
            fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
                self.q.pop_front()
            }
            fn is_empty(&self) -> bool {
                self.q.is_empty()
            }
            fn len(&self) -> usize {
                self.q.len()
            }
            fn backlog(&self, flow: FlowId) -> usize {
                self.q.iter().filter(|p| p.flow == flow).count()
            }
            fn name(&self) -> &'static str {
                "no-evict"
            }
        }
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use servers::RateProfile;
    use sfq_core::{PacketFactory, Sfq};
    use simtime::{Bytes, Rate};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct BpLog {
        events: Vec<(u32, Backpressure)>,
    }

    impl SchedObserver for BpLog {
        fn on_backpressure(&mut self, _time: SimTime, flow: FlowId, state: Backpressure) {
            self.events.push((flow.0, state));
        }
    }

    #[test]
    fn backpressure_engages_on_shed_and_releases_on_drain() {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut sw = SwitchCore::new(
            Box::new(s),
            RateProfile::constant(Rate::bps(1_000)),
            Some(2),
        );
        let log = Rc::new(RefCell::new(BpLog::default()));
        sw.set_drop_observer(Box::new(Rc::clone(&log)));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert!(log.borrow().events.is_empty(), "no signal before a shed");
        // Cap reached: engage fires once, even across repeated sheds.
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert_eq!(log.borrow().events, vec![(1, Backpressure::Engage)]);
        // Dequeue drains the backlog below the cap: release fires.
        let (_, done) = sw.try_start(t0).unwrap();
        assert_eq!(
            log.borrow().events,
            vec![(1, Backpressure::Engage), (1, Backpressure::Release)]
        );
        sw.complete(done);
        // Admission resumes; a fresh overflow re-engages.
        assert!(sw.offer(done, pf.make(FlowId(1), Bytes::new(125), done)));
        assert!(!sw.offer(done, pf.make(FlowId(1), Bytes::new(125), done)));
        assert_eq!(log.borrow().events.len(), 3);
        assert_eq!(log.borrow().events[2], (1, Backpressure::Engage));
    }

    #[test]
    fn force_remove_releases_backpressure() {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut sw = SwitchCore::new(
            Box::new(s),
            RateProfile::constant(Rate::bps(1_000)),
            Some(1),
        );
        let log = Rc::new(RefCell::new(BpLog::default()));
        sw.set_drop_observer(Box::new(Rc::clone(&log)));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        assert!(sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert!(!sw.offer(t0, pf.make(FlowId(1), Bytes::new(125), t0)));
        assert_eq!(sw.force_remove_flow(t0, FlowId(1)), 1);
        assert_eq!(
            log.borrow().events,
            vec![(1, Backpressure::Engage), (1, Backpressure::Release)]
        );
    }
}
