//! The paper oracle: SFQ (Section 2, Eqs. 4–5) and SCFQ as the paper and
//! the docs state them, over exact `simtime::Ratio` tags and the
//! `Scheduler` trait alone. One map ordered by `(tag, tie key, uid)` holds
//! every queued packet, so service takes the least tag over all of them;
//! a flow's FIFO finds its head for a drop and checks that the least key
//! is its flow's oldest packet. docs/pooling.md ("The paper oracle") lists
//! each rule and where it was taken from.

use sfq_core::obs::FlowChange::{Added, ForceRemoved, Removed};
use sfq_core::obs::{SchedEvent, SchedObserver};
use sfq_core::{FlowId, Packet, SchedError, Scheduler, TieBreak};
use simtime::{Rate, Ratio, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A queued packet, its service-order key and its enqueue event (tags).
#[derive(Clone, Copy)]
struct Tagged {
    pkt: Packet,
    key: (Ratio, i128, u64),
    ev: SchedEvent,
}

#[derive(Default)]
struct Flow {
    bps: u64,
    last_finish: Ratio,
    queue: VecDeque<Tagged>,
}

/// SFQ or SCFQ as the paper states it; see the module docs.
pub struct Paper<O: SchedObserver> {
    /// The tag that orders service and is `v`: 0 (start), 1 (finish).
    clock: usize,
    tie: TieBreak,
    flows: HashMap<FlowId, Flow>,
    /// Every queued packet's flow, by `(tag, tie key, uid)`.
    order: BTreeMap<(Ratio, i128, u64), FlowId>,
    v: Ratio,
    max_finish: Ratio,
    rebase_bits: Option<u32>,
    obs: O,
}

impl<O: SchedObserver> Paper<O> {
    /// SFQ with tie-break rule `tie`, or SCFQ (no tie-break rule: the uid
    /// decides) if `scfq`, reporting to `obs`.
    pub fn new(scfq: bool, tie: TieBreak, obs: O) -> Self {
        let (clock, flows, order) = (usize::from(scfq), HashMap::new(), BTreeMap::new());
        let (v, tie) = (Ratio::ZERO, [tie, TieBreak::Fifo][clock]);
        Paper {
            clock,
            tie,
            flows,
            order,
            v,
            max_finish: v,
            rebase_bits: None,
            obs,
        }
    }

    /// Rebase at every busy-period end and at an enqueue whose `v` has
    /// more than `threshold_bits` magnitude bits (`0`: every enqueue).
    pub fn enable_rebasing(&mut self, threshold_bits: u32) {
        self.rebase_bits = Some(threshold_bits);
    }

    /// The observer, to read a trace back out.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Take `flow`'s packets out of the service order, or put them in.
    fn order(&mut self, flow: FlowId, insert: bool) {
        for p in self.flows.get(&flow).into_iter().flat_map(|f| &f.queue) {
            match insert {
                true => self.order.insert(p.key, flow),
                false => self.order.remove(&p.key),
            };
        }
    }

    /// Apply `f` to every tag: `v`, `max_finish`, `last_finish`s, packets'.
    fn each_tag(&mut self, mut f: impl FnMut(&mut Ratio)) {
        f(&mut self.v);
        f(&mut self.max_finish);
        for flow in self.flows.values_mut() {
            let tags = (flow.queue.iter_mut())
                .flat_map(|p| [&mut p.key.0, &mut p.ev.start_tag, &mut p.ev.finish_tag]);
            tags.chain([&mut flow.last_finish]).for_each(&mut f);
        }
    }

    /// With rebasing on, subtract `⌊v⌋` from every tag, or from none.
    fn rebase(&mut self) {
        let base = Ratio::from_int(self.v.floor());
        let mut fits = base.is_positive() && self.rebase_bits.is_some();
        self.each_tag(|t| fits &= t.checked_sub(base).is_some());
        if fits {
            self.each_tag(|t| *t -= base);
            self.order.clear();
            let ids: Vec<FlowId> = self.flows.keys().copied().collect();
            ids.into_iter().for_each(|id| self.order(id, true));
        }
    }

    /// Close the busy period if nothing is queued.
    fn settle(&mut self) {
        if self.order.is_empty() {
            self.v = self.max_finish;
            self.rebase();
        }
    }
}

impl<O: SchedObserver> Scheduler for Paper<O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.try_add_flow(flow, weight).expect("a positive weight");
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        self.flows.entry(flow).or_default().bps = weight.as_bps();
        self.obs.on_flow_change(flow, &Added { weight });
        Ok(())
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt).expect("a registered flow");
    }

    fn try_enqueue(&mut self, time: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let bits = self.v.magnitude_bits();
        if self.rebase_bits.is_some_and(|most| bits > most) {
            self.rebase();
        }
        let (v, Packet { flow, len, uid, .. }) = (self.v, pkt);
        let unknown = SchedError::UnknownFlow(flow);
        let f = self.flows.get_mut(&flow).ok_or(unknown)?;
        let (start_tag, rate) = (v.max(f.last_finish), Rate::bps(f.bps));
        let finish = start_tag.checked_add(rate.tag_span(len));
        let finish_tag = finish.ok_or(SchedError::TagOverflow)?.snap_pico();
        let ev = SchedEvent {
            time,
            flow,
            uid,
            len,
            start_tag,
            finish_tag,
            v,
        };
        let key = ([start_tag, finish_tag][self.clock], self.tie.key(rate), uid);
        f.last_finish = finish_tag;
        f.queue.push_back(Tagged { pkt, key, ev });
        self.order.insert(key, flow);
        self.obs.on_enqueue(&ev);
        Ok(())
    }

    fn dequeue(&mut self, time: SimTime) -> Option<Packet> {
        let (key, flow) = self.order.pop_first()?;
        let p = self.flows.get_mut(&flow).and_then(|f| f.queue.pop_front());
        let p = p
            .filter(|p| p.key == key)
            .expect("the least key is its flow's oldest");
        (self.v, self.max_finish) = (p.key.0, self.max_finish.max(p.ev.finish_tag));
        let v = self.v;
        self.obs.on_dequeue(&SchedEvent { time, v, ..p.ev });
        (self.clock == 1).then(|| self.settle());
        Some(p.pkt)
    }

    fn on_departure(&mut self, _now: SimTime) {
        (self.clock == 0).then(|| self.settle());
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).map_or(0, |f| f.queue.len())
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        let idle = self.backlog(flow) == 0 && self.flows.remove(&flow).is_some();
        idle.then(|| self.obs.on_flow_change(flow, &Removed))
            .is_some()
    }

    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        self.order(flow, false);
        let Some(dropped) = self.flows.remove(&flow).map(|f| f.queue.len()) else {
            return 0;
        };
        self.obs.on_flow_change(flow, &ForceRemoved { dropped });
        dropped
    }

    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        let f = self.flows.get(&flow).ok_or(SchedError::UnknownFlow(flow))?;
        let mut queue = f.queue.clone();
        let mut last = queue
            .front()
            .map_or(f.last_finish, |head| head.ev.finish_tag);
        for p in queue.iter_mut().skip(1) {
            let finish = last.checked_add(weight.tag_span(p.pkt.len));
            let finish = finish.ok_or(SchedError::TagOverflow)?.snap_pico();
            (p.ev.start_tag, p.ev.finish_tag) = (last, finish);
            let tag = [p.ev.start_tag, p.ev.finish_tag][self.clock];
            (last, p.key) = (p.ev.finish_tag, (tag, self.tie.key(weight), p.pkt.uid));
        }
        self.order(flow, false);
        let f = self.flows.get_mut(&flow).expect("checked above");
        (f.bps, f.last_finish, f.queue) = (weight.as_bps(), last, queue);
        self.order(flow, true);
        self.obs.on_flow_change(flow, &Added { weight });
        Ok(())
    }

    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let p = self.flows.get_mut(&flow)?.queue.pop_front()?;
        self.order.remove(&p.key);
        let (time, v) = (p.pkt.arrival, self.v);
        self.obs.on_drop(&SchedEvent { time, v, ..p.ev });
        Some(p.pkt)
    }

    fn name(&self) -> &'static str {
        ["SFQ (paper)", "SCFQ (paper)"][self.clock]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::work_in_interval;
    use proptest::prelude::*;
    use servers::{run_server, Departure, RateProfile, Segment};
    use sfq_core::PacketFactory;
    use sfq_obs::{EventKind, FlowMetrics, RingTracer};
    use simtime::Bytes;

    const T0: SimTime = SimTime::ZERO;

    type Arrival = (u32, u64, SimTime);

    /// Serve `(flow, bytes, arrival)`s on `server` by SFQ over flows 1 and
    /// 2 at 1 kb/s: the departures and the start tags served.
    fn serve(arrivals: &[Arrival], server: RateProfile) -> (Vec<Departure>, Vec<f64>) {
        let mut s = Paper::new(false, TieBreak::Fifo, RingTracer::with_capacity(64));
        (1..3).for_each(|f| s.add_flow(FlowId(f), Rate::bps(1_000)));
        let mut pf = PacketFactory::new();
        let make = |&(f, l, at): &Arrival| pf.make(FlowId(f), Bytes::new(l), at);
        let pkts: Vec<Packet> = arrivals.iter().map(make).collect();
        let deps = run_server(&mut s, &server, &pkts, SimTime::from_secs(20));
        let trace = s.into_observer();
        let served = trace.records().filter(|r| r.kind == EventKind::Dequeue);
        (deps, served.map(|r| r.start_tag).collect())
    }

    /// Example 1 as `tests/paper_examples.rs` pins it: start tags f 0, 2
    /// and m 0, 2, 3 serve f1, m1, f2, m2, m3.
    #[test]
    fn example1_interleaves_by_start_tag() {
        let sizes = [(1, 250), (1, 250), (2, 250), (2, 125), (2, 125)];
        let link = RateProfile::constant(Rate::bps(2_000));
        let (deps, starts) = serve(&sizes.map(|(f, l)| (f, l, T0)), link);
        let flows: Vec<u32> = deps.iter().map(|d| d.pkt.flow.0).collect();
        assert_eq!(flows, [1, 2, 1, 2, 2]);
        assert_eq!(starts, [0.0, 0.0, 2.0, 2.0, 3.0]);
    }

    /// Example 2 (1 packet/s, then C = 10): SFQ splits [1, 2] into C/2
    /// packets each, within one packet.
    #[test]
    fn example2_splits_the_fast_second_fairly() {
        let (c, one, two) = (10, SimTime::from_secs(1), SimTime::from_secs(2));
        let speed = [(T0, 1_000), (one, 1_000 * c)].map(|(start, r)| (start, Rate::bps(r)));
        let segments = speed.map(|(start, rate)| Segment { start, rate }).to_vec();
        let f = (0..=c).map(|_| (1, 125, T0));
        let arrivals: Vec<Arrival> = f.chain((0..c).map(|_| (2, 125, one))).collect();
        let (deps, _) = serve(&arrivals, RateProfile::from_segments(segments));
        let work = [1, 2].map(|f| work_in_interval(&deps, FlowId(f), one, two).as_u64());
        let fair = work.iter().all(|w| w.abs_diff(c * 125 / 2) <= 125);
        assert!(fair, "{work:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rebasing forced at every enqueue is invisible (robustness.md):
        /// same departures, normalized service and Theorem 1 spreads as
        /// with it off. The first busy period leaves `v = 2`: it fires.
        #[test]
        fn forced_rebasing_is_observationally_invisible(
            ops in prop::collection::vec((0u8..5, 1u32..4, 64u64..1500), 1..150),
            scfq in 0u8..2,
        ) {
            let run = |rebase: bool| {
                let mut s = Paper::new(scfq == 1, TieBreak::Fifo, FlowMetrics::new());
                rebase.then(|| s.enable_rebasing(0));
                (1..4).for_each(|f| s.add_flow(FlowId(f), Rate::bps(1_000 + 613 * f as u64)));
                let (mut pf, mut served) = (PacketFactory::new(), Vec::new());
                for &(kind, f, len) in [(0, 1, 250), (4, 1, 0)].iter().chain(&ops) {
                    if kind < 3 {
                        s.enqueue(T0, pf.make(FlowId(f), Bytes::new(len), T0));
                    } else {
                        s.on_departure(T0);
                        served.extend(s.dequeue(T0).map(|p| p.uid));
                    }
                }
                s.on_departure(T0);
                served.extend(std::iter::from_fn(|| s.dequeue(T0)).map(|p| p.uid));
                let (m, id) = (s.into_observer(), FlowId);
                let lag = |a, b| (m.normalized_service(id(a)), m.worst_spread_between(id(a), id(b)));
                (served, [lag(1, 2), lag(1, 3), lag(2, 3)])
            };
            prop_assert_eq!(run(false), run(true));
        }
    }
}
