//! Per-layer probes of the traced run: layers the end-to-end loops
//! cannot see into, measured standalone from outside.
//!
//! Two kinds. *Replays* rebuild the batches one `graph_path` pass
//! feeds each node and push them through that node alone. *Pair
//! probes* run a discipline, a ring or an arithmetic type through the
//! `sched_hot` cycle shape. Either way the number is the mean over the
//! fastest quartile of repetitions, like the in-situ rows.
//!
//! This module reaches far wider into the program's API than the
//! end-to-end loops do; only `sfqtrace` calls it.

use crate::closed::{Closed, Discard, SchedLoop};
use crate::graph_path::{GraphInputs, EGRESSES};
use crate::inputs::{weight, ClosedInputs, CYCLE, UNIT_PKTS};
use crate::stats::fastest_quarter_mean;
use crate::tracer::NoTrace;
use des::{EventQueue, SimRng};
use graph::{
    Classifier, GraphNode, GraphReport, NodeSpec, OutPort, PktArena, Policer, PortNode, PortSpec,
};
use netsim::SwitchCore;
use sfq_core::{
    FlowId, HierSfq, Packet, PktPool, PktRef, ReconfigCmd, SchedError, Scheduler, SlabPool,
};
use sfq_engine::{spsc, RootSfq};
use simtime::{Bytes, Rate, Ratio, SimDuration, SimTime};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use traffic::{ParetoOnOffSource, Source};

/// Repetitions of a probe; the fastest quarter is averaged.
const REPS: usize = 24;

/// Mean of the fastest quartile of `REPS` timings of `f`, nanoseconds.
fn fastest_quartile_ns(mut f: impl FnMut()) -> f64 {
    let ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    fastest_quarter_mean(&ns)
}

// ---------------------------------------------------------------- pairs

/// ns per packet of `sched` on the closed-loop cycle (64 in, 64 out)
/// of `inputs`: the oracle disciplines on the `sched_hot` shape.
pub fn pair_ns<S: Scheduler>(mut sched: S, inputs: &ClosedInputs) -> f64 {
    for f in 0..inputs.flows {
        sched.add_flow(FlowId(f), weight(f));
    }
    let mut st = Closed::preloaded(SchedLoop(sched), inputs);
    const UNITS: u64 = 16;
    let ns = fastest_quartile_ns(|| {
        for _ in 0..UNITS {
            st.unit(inputs, &mut NoTrace, &mut Discard);
        }
    });
    ns / (UNITS * UNIT_PKTS) as f64
}

/// A three-level link-sharing tree with 64 leaf classes, `flows`
/// spread round-robin over them.
pub fn hier_tree(flows: u32) -> HierSfq {
    let mut h = HierSfq::new();
    let root = h.root();
    let mut leaves = Vec::new();
    for a in 0..8u64 {
        let mid = h.add_class(root, Rate::mbps(10 + a));
        for b in 0..8u64 {
            leaves.push(h.add_class(mid, Rate::mbps(1 + b)));
        }
    }
    for f in 0..flows {
        h.add_flow_to(leaves[f as usize % leaves.len()], FlowId(f), weight(f));
    }
    h
}

/// [`pair_ns`] for a `HierSfq`, whose flows are bound to classes up
/// front rather than registered through `add_flow`.
pub fn hier_pair_ns(inputs: &ClosedInputs) -> f64 {
    /// `HierSfq` refuses re-registration; the tree already holds every
    /// flow, so the generic probe's `add_flow` must not reach it.
    struct Prebound(HierSfq);
    impl Scheduler for Prebound {
        fn add_flow(&mut self, _flow: FlowId, _weight: Rate) {}
        fn enqueue(&mut self, now: SimTime, pkt: Packet) {
            self.0.enqueue(now, pkt)
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.0.dequeue(now)
        }
        fn on_departure(&mut self, now: SimTime) {
            self.0.on_departure(now)
        }
        fn is_empty(&self) -> bool {
            self.0.is_empty()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn backlog(&self, flow: FlowId) -> usize {
            self.0.backlog(flow)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }
    pair_ns(Prebound(hier_tree(inputs.flows)), inputs)
}

/// ns per `Ratio` add-and-compare: the exact schedulers' tag step.
pub fn ratio_add_cmp_ns() -> f64 {
    const N: u64 = 1 << 14;
    let spans: Vec<Ratio> = (0..64u32)
        .map(|f| weight(f).tag_span(Bytes::new(576)))
        .collect();
    let ns = fastest_quartile_ns(|| {
        let mut v = Ratio::ZERO;
        let mut wins = 0u64;
        for i in 0..N {
            let t = v + spans[i as usize % spans.len()];
            if t > v {
                wins += 1;
            }
            // Unlike denominators multiply; the schedulers snap tags to
            // a grid to stop that, the probe starts over.
            v = if i % 4 == 3 { Ratio::ZERO } else { t };
        }
        black_box(wins);
    });
    ns / N as f64
}

/// ns per packet slot allocated and freed in a `SlabPool`, 64 at a time.
pub fn pool_alloc_free_ns() -> f64 {
    const ROUNDS: usize = 256;
    let mut pool: SlabPool<Packet> = SlabPool::new();
    let pkt = crate::inputs::packet(0, 576, 0, SimTime::ZERO);
    let mut held: Vec<PktRef> = Vec::with_capacity(CYCLE);
    let ns = fastest_quartile_ns(|| {
        for _ in 0..ROUNDS {
            for _ in 0..CYCLE {
                held.push(pool.try_alloc(pkt).expect("unbounded pool"));
            }
            for h in held.drain(..) {
                black_box(pool.free(h));
            }
        }
    });
    ns / (ROUNDS * CYCLE) as f64
}

/// ns per packet pushed through and popped from an SPSC ingress ring,
/// 64 at a time (the engine's ingest-then-pump shape).
pub fn ring_push_pop_ns() -> f64 {
    const ROUNDS: usize = 256;
    let (tx, rx) = spsc::<Packet>(4096);
    let pkt = crate::inputs::packet(0, 576, 0, SimTime::ZERO);
    let ns = fastest_quartile_ns(|| {
        for _ in 0..ROUNDS {
            for _ in 0..CYCLE {
                tx.push(pkt).expect("ring drained every round");
            }
            while let Some(p) = rx.pop() {
                black_box(p.uid);
            }
        }
    });
    ns / (ROUNDS * CYCLE) as f64
}

/// ns per packet of the root arbiter: one `pick` and one `charge` per
/// 32-packet batch over `shards` backlogged shards.
pub fn root_pick_charge_ns(shards: usize, batch: usize) -> f64 {
    const PICKS: usize = 4096;
    let mut root = RootSfq::new(shards, Some(96));
    for s in 0..shards {
        root.reweigh(s, 0, 40_000_000 + s as u64 * 1_000_000);
    }
    let backlogged = vec![true; shards];
    let bits = (batch * 505 * 8) as u64;
    let ns = fastest_quartile_ns(|| {
        for _ in 0..PICKS {
            let s = root.pick(&backlogged).expect("every shard backlogged");
            root.charge(s, bits).expect("rebasing keeps tags in range");
        }
    });
    ns / (PICKS * batch) as f64
}

/// ns per `add_flow` on a fresh `SfqFast` taking `flows`
/// registrations (fastest of five tables).
pub fn add_flow_ns(flows: u32) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut s = sfq_core::SfqFast::new();
            for f in 0..flows {
                s.add_flow(FlowId(f), weight(f));
            }
            let ns = t.elapsed().as_nanos() as f64;
            black_box(&s);
            ns / flows as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per arrival drawn from a `ParetoOnOffSource`.
pub fn traffic_gen_ns() -> f64 {
    const N: usize = 4096;
    let ns = fastest_quartile_ns(|| {
        let mut src = ParetoOnOffSource::new(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            Bytes::new(505),
            0.004,
            0.004,
            crate::graph_path::SHAPE,
            SimRng::new(7),
        );
        for _ in 0..N {
            black_box(src.next_arrival());
        }
    });
    ns / N as f64
}

// ------------------------------------------------------- sched adapter

/// Time and call count a [`TimedSched`] accumulated.
#[derive(Default)]
pub struct Meter {
    /// Nanoseconds inside the wrapped scheduler, timer cost included.
    pub ns: Cell<u64>,
    /// Trait calls forwarded.
    pub calls: Cell<u64>,
}

impl Meter {
    /// Read and reset.
    pub fn take(&self) -> (u64, u64) {
        (self.ns.replace(0), self.calls.replace(0))
    }
}

/// Forwarding `Scheduler` handed to `GraphSpec::build_with`: times and
/// counts every trait call a port makes into its engine. Every method
/// forwards, defaulted ones too, so the engine's overrides stay in
/// force.
pub struct TimedSched {
    inner: Box<dyn Scheduler>,
    meter: Rc<Meter>,
}

impl TimedSched {
    /// Wrap `inner`, reporting to `meter`.
    pub fn new(inner: Box<dyn Scheduler>, meter: Rc<Meter>) -> Self {
        TimedSched { inner, meter }
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut *self.inner);
        self.book(t);
        r
    }

    #[inline]
    fn timed_ref<R>(&self, f: impl FnOnce(&dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let r = f(&*self.inner);
        self.book(t);
        r
    }

    #[inline]
    fn book(&self, t: Instant) {
        self.meter
            .ns
            .set(self.meter.ns.get() + t.elapsed().as_nanos() as u64);
        self.meter.calls.set(self.meter.calls.get() + 1);
    }
}

impl Scheduler for TimedSched {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.timed(|s| s.add_flow(flow, weight))
    }
    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.timed(|s| s.enqueue(now, pkt))
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.timed(|s| s.dequeue(now))
    }
    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        self.timed(|s| s.try_add_flow(flow, weight))
    }
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.timed(|s| s.try_enqueue(now, pkt))
    }
    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) {
        self.timed(|s| s.enqueue_batch(now, pkts))
    }
    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        self.timed(|s| s.try_enqueue_batch(now, pkts))
    }
    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        self.timed(|s| s.dequeue_batch(now, max, out))
    }
    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        self.timed(|s| s.try_dequeue(now))
    }
    fn on_departure(&mut self, now: SimTime) {
        self.timed(|s| s.on_departure(now))
    }
    fn is_empty(&self) -> bool {
        self.timed_ref(|s| s.is_empty())
    }
    fn len(&self) -> usize {
        self.timed_ref(|s| s.len())
    }
    fn backlog(&self, flow: FlowId) -> usize {
        self.timed_ref(|s| s.backlog(flow))
    }
    fn remove_flow(&mut self, flow: FlowId) -> bool {
        self.timed(|s| s.remove_flow(flow))
    }
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        self.timed(|s| s.force_remove_flow(flow))
    }
    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        self.timed(|s| s.try_set_weight(flow, weight))
    }
    fn try_reconfig(&mut self, cmd: ReconfigCmd) -> Result<(), SchedError> {
        self.timed(|s| s.try_reconfig(cmd))
    }
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        self.timed(|s| s.drop_head(flow))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// -------------------------------------------------------------- replays

/// One ingress batch of a pass: what the executor injects in one event.
struct Batch {
    at: SimTime,
    /// Policer node the batch enters at.
    entry: usize,
    pkts: Vec<Packet>,
}

/// The batches of one pass, in the executor's injection order
/// (`(time, entry node, uid)`, uids minted in `add_source` order).
fn batches(inputs: &GraphInputs) -> Vec<Batch> {
    let mut uid = 0u64;
    let mut all: Vec<(usize, Packet)> = Vec::with_capacity(inputs.offered as usize);
    for s in &inputs.sources {
        for (j, &(at, len)) in s.arrivals.iter().enumerate() {
            all.push((
                s.entry,
                Packet {
                    flow: s.flow,
                    seq: j as u64 + 1,
                    len,
                    arrival: at,
                    uid,
                },
            ));
            uid += 1;
        }
    }
    all.sort_by_key(|&(entry, ref p)| (p.arrival, entry, p.uid));
    let mut out: Vec<Batch> = Vec::new();
    for (entry, p) in all {
        match out.last_mut() {
            Some(b) if b.at == p.arrival && b.entry == entry => b.pkts.push(p),
            _ => out.push(Batch {
                at: p.arrival,
                entry,
                pkts: vec![p],
            }),
        }
    }
    out
}

/// Per-node costs of one pass, each in nanoseconds per pass, from
/// replaying the pass's own batches through that node alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// `Policer::dispatch` over every ingress batch.
    pub policer_ns: f64,
    /// `Classifier::dispatch` over every conforming batch.
    pub classifier_ns: f64,
    /// `PktArena::try_alloc` + `free` of every offered packet.
    pub arena_ns: f64,
    /// `PortNode::{dispatch, try_start, complete}` at every port, the
    /// switch and the engine underneath included.
    pub port_ns: f64,
    /// `SwitchCore::{try_offer, try_start, complete}` on the same
    /// packets, the engine underneath included.
    pub switch_ns: f64,
    /// `EventQueue::{schedule, pop}` at the pass's events and times.
    pub des_ns: f64,
    /// Mean packets per ingress batch.
    pub batch_mean: f64,
}

fn port_specs(inputs: &GraphInputs) -> Vec<&PortSpec> {
    inputs
        .spec
        .nodes
        .iter()
        .filter_map(|n| match n {
            NodeSpec::Port(p) => Some(p),
            _ => None,
        })
        .collect()
}

/// Replay one pass of `inputs` node by node. `reference` is the report
/// of a real pass: it supplies the transmission times the event-queue
/// replay re-enacts.
pub fn replay(inputs: &GraphInputs, reference: &GraphReport) -> Replay {
    let bs = batches(inputs);
    let specs = port_specs(inputs);
    let mut r = Replay {
        batch_mean: inputs.offered as f64 / bs.len().max(1) as f64,
        ..Replay::default()
    };

    // Arena: every offered packet takes a slot and gives it back.
    let mut held: Vec<PktRef> = Vec::with_capacity(inputs.offered as usize);
    r.arena_ns = fastest_quartile_ns(|| {
        let mut arena = PktArena::new();
        for b in &bs {
            for &p in &b.pkts {
                held.push(arena.try_alloc(p).expect("unbounded arena"));
            }
        }
        for h in held.drain(..) {
            black_box(arena.free(h));
        }
    });

    // Policers and classifiers share one slot-filled arena per
    // repetition; only the dispatch loops are timed. What the policers
    // let through is what the classifiers then see, as in the graph.
    let mut emitted: Vec<(OutPort, PktRef)> = Vec::new();
    let mut survivors: Vec<Vec<PktRef>> = Vec::new();
    let mut routed: Vec<Vec<(usize, Packet)>> = Vec::new();
    let mut police_ns = Vec::with_capacity(REPS);
    let mut classify_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut arena = PktArena::new();
        let handles: Vec<Vec<PktRef>> = bs
            .iter()
            .map(|b| {
                b.pkts
                    .iter()
                    .map(|&p| arena.try_alloc(p).expect("unbounded arena"))
                    .collect()
            })
            .collect();
        let mut policers: Vec<(usize, Policer)> = Vec::new();
        let mut classifiers: Vec<Classifier> = Vec::new();
        for (n, node) in inputs.spec.nodes.iter().enumerate() {
            match node {
                NodeSpec::Police(rules) => {
                    let mut p = Policer::new();
                    for &(flow, tb) in rules {
                        p.contract(flow, tb);
                    }
                    policers.push((n, p));
                }
                NodeSpec::Classify { routes, .. } => {
                    let mut c = Classifier::new();
                    for &(flow, port) in routes {
                        c.route(flow, port);
                    }
                    classifiers.push(c);
                }
                _ => {}
            }
        }
        survivors.clear();
        let t = Instant::now();
        for (b, hs) in bs.iter().zip(&handles) {
            let policer = policers
                .iter_mut()
                .find(|(n, _)| *n == b.entry)
                .map(|(_, p)| p)
                .expect("every source enters at a policer");
            emitted.clear();
            policer.dispatch(b.at, &mut arena, hs, &mut emitted);
            survivors.push(emitted.iter().map(|&(_, h)| h).collect());
        }
        police_ns.push(t.elapsed().as_nanos() as f64);

        // Policer `i` feeds classifier `i`.
        routed.clear();
        let t = Instant::now();
        for (b, hs) in bs.iter().zip(&survivors) {
            let i = policers
                .iter()
                .position(|(n, _)| *n == b.entry)
                .expect("every source enters at a policer");
            emitted.clear();
            classifiers[i].dispatch(b.at, &mut arena, hs, &mut emitted);
            routed.push(
                emitted
                    .iter()
                    .map(|&(port, h)| (port.0, *arena.get(h)))
                    .collect(),
            );
        }
        classify_ns.push(t.elapsed().as_nanos() as f64);
    }
    r.policer_ns = fastest_quarter_mean(&police_ns);
    r.classifier_ns = fastest_quarter_mean(&classify_ns);

    // Per port: the sub-batches the classifiers routed to it, in
    // injection order.
    let mut per_port: Vec<Vec<(SimTime, Vec<Packet>)>> = vec![Vec::new(); EGRESSES];
    for (b, out) in bs.iter().zip(&routed) {
        for (j, arrivals) in per_port.iter_mut().enumerate() {
            let sub: Vec<Packet> = out
                .iter()
                .filter(|(p, _)| *p == j)
                .map(|&(_, p)| p)
                .collect();
            if !sub.is_empty() {
                arrivals.push((b.at, sub));
            }
        }
    }

    r.port_ns = fastest_quartile_ns(|| {
        for (spec, arrivals) in specs.iter().zip(&per_port) {
            replay_port(spec, arrivals);
        }
    });
    r.switch_ns = fastest_quartile_ns(|| {
        for (spec, arrivals) in specs.iter().zip(&per_port) {
            replay_switch(spec, arrivals);
        }
    });
    r.des_ns = replay_events(&bs, reference);
    r
}

/// Drive one `PortNode` the way the executor does: admit each
/// sub-batch, start the link when it is free, complete transmissions
/// in time order.
fn replay_port(spec: &PortSpec, arrivals: &[(SimTime, Vec<Packet>)]) {
    let mut arena = PktArena::new();
    let mut port = PortNode::new(
        crate::run::port_engine(0),
        spec.link.clone(),
        spec.per_flow_cap,
        spec.shared_cap,
        spec.policy,
    );
    for &(flow, w) in &spec.flows {
        port.add_flow(flow, w);
    }
    let mut none = Vec::new();
    let mut handles: Vec<PktRef> = Vec::new();
    // The transmission on the link: (slot, completion time).
    let mut link: Option<(PktRef, SimTime)> = None;
    /// Complete every transmission due by `upto` (all, if `None`).
    fn finish(
        port: &mut PortNode,
        arena: &mut PktArena,
        link: &mut Option<(PktRef, SimTime)>,
        upto: Option<SimTime>,
    ) {
        while let Some((h, done)) = *link {
            if upto.is_some_and(|t| done > t) {
                break;
            }
            port.complete(done);
            arena.free(h);
            *link = port.try_start(done).map(|(_, h, d)| (h, d));
        }
    }
    for (at, pkts) in arrivals {
        finish(&mut port, &mut arena, &mut link, Some(*at));
        handles.clear();
        for &p in pkts {
            handles.push(arena.try_alloc(p).expect("unbounded arena"));
        }
        port.dispatch(*at, &mut arena, &handles, &mut none);
        if link.is_none() {
            link = port.try_start(*at).map(|(_, h, d)| (h, d));
        }
    }
    finish(&mut port, &mut arena, &mut link, None);
    black_box(port.drops_total());
}

/// [`replay_port`] one layer down: the same packets through a bare
/// `SwitchCore`, no arena and no side table.
fn replay_switch(spec: &PortSpec, arrivals: &[(SimTime, Vec<Packet>)]) {
    let mut core = SwitchCore::new(
        crate::run::port_engine(0),
        spec.link.clone(),
        spec.per_flow_cap,
    );
    core.set_shared_cap(spec.shared_cap);
    core.set_drop_policy(spec.policy);
    for &(flow, w) in &spec.flows {
        core.add_flow(flow, w);
    }
    // Completion time of the transmission on the link.
    let mut link: Option<SimTime> = None;
    fn finish(core: &mut SwitchCore, link: &mut Option<SimTime>, upto: Option<SimTime>) {
        while let Some(done) = *link {
            if upto.is_some_and(|t| done > t) {
                break;
            }
            core.complete(done);
            *link = core.try_start(done).map(|(_, d)| d);
        }
    }
    for (at, pkts) in arrivals {
        finish(&mut core, &mut link, Some(*at));
        for &p in pkts {
            let mut p = p;
            p.arrival = *at;
            black_box(core.try_offer(*at, p).is_ok());
        }
        if link.is_none() {
            link = core.try_start(*at).map(|(_, d)| d);
        }
    }
    finish(&mut core, &mut link, None);
    black_box(core.queued());
}

/// Re-enact the executor's event queue for one pass: every injection
/// scheduled up front, a transmission-done scheduled when its port's
/// link starts the packet, a zero-delay arrival at the sink scheduled
/// when it completes. Returns nanoseconds per pass.
fn replay_events(bs: &[Batch], reference: &GraphReport) -> f64 {
    #[derive(Clone, Copy)]
    enum Ev {
        Inject,
        TxDone(usize),
        Arrive,
    }
    // Per port (by node id): (arrival, completion) of every transmitted
    // packet, in transmission order.
    let mut nodes: Vec<usize> = reference.port_drops.iter().map(|&(n, _)| n).collect();
    nodes.sort_unstable();
    let mut sent: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nodes.len()];
    for t in &reference.transits {
        if let Some(&(node, done)) = t.port_departures.first() {
            let j = nodes.binary_search(&node).expect("a port of the report");
            sent[j].push((t.pkt.arrival, done));
        }
    }
    for s in &mut sent {
        s.sort_by_key(|&(_, done)| done);
    }
    fastest_quartile_ns(|| {
        let mut q: EventQueue<Ev> = EventQueue::new();
        for b in bs {
            q.schedule(b.at, Ev::Inject);
        }
        let mut next = vec![0usize; sent.len()];
        let mut busy = vec![false; sent.len()];
        while let Some((now, ev)) = q.pop() {
            if let Ev::TxDone(j) = ev {
                busy[j] = false;
                next[j] += 1;
                q.schedule(now, Ev::Arrive);
            }
            if matches!(ev, Ev::Arrive) {
                continue;
            }
            for j in 0..sent.len() {
                if !busy[j] {
                    if let Some(&(arrived, done)) = sent[j].get(next[j]) {
                        if arrived <= now {
                            busy[j] = true;
                            q.schedule(done, Ev::TxDone(j));
                        }
                    }
                }
            }
        }
        black_box(q.processed());
    })
}
