//! The engine's contract, as one table: every generic check below is
//! stamped out over the two shipped shard schedulers — `Sfq` and
//! `SfqFast` — because `Engine<S>` is one implementation and must
//! behave as one whatever leaf discipline it runs over. The hand-rolled
//! smoke tests at the bottom predate the table. The heavy coverage
//! (seeded scenarios against a bare `Sfq`, proptest op interleavings)
//! lives in the workspace-level `tests/engine_interleaving.rs` and the
//! conformance `engine` preset.

use proptest::prelude::*;
use proptest::TestRng;
use sfq_core::SchedError::{BufferFull, TagOverflow, UnknownFlow};
use sfq_core::{
    FlowId, Packet, PacketFactory, ReconfigCmd, ScfqFast, SchedError, Scheduler, Sfq, SfqFast,
};
use sfq_engine::{shard_of, Engine, EngineConfig, ShardSched, SyncEngine};
use sfq_obs::RingTracer;
use sfq_telemetry::Aggregator;
use simtime::{Bytes, Rate, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const T0: SimTime = SimTime::ZERO;

/// One row of the table: a shard scheduler and how to build an engine
/// over it.
trait Kind {
    type Sched: ShardSched;
    fn engine(cfg: EngineConfig) -> Engine<Self::Sched>;
}

struct OverSfq;
struct OverFast;

impl Kind for OverSfq {
    type Sched = Sfq;
    fn engine(cfg: EngineConfig) -> SyncEngine {
        SyncEngine::new(cfg)
    }
}
impl Kind for OverFast {
    type Sched = SfqFast;
    fn engine(cfg: EngineConfig) -> SyncEngine<SfqFast> {
        SyncEngine::new_fast(cfg)
    }
}

/// Stamp each generic check `fn name<K: Kind>()` out over the two rows.
macro_rules! on_both {
    ($($name:ident),+ $(,)?) => {$(
        mod $name {
            use super::*;
            #[test]
            fn sfq() { super::$name::<OverSfq>() }
            #[test]
            fn sfq_fast() { super::$name::<OverFast>() }
        }
    )+};
}

on_both!(
    refusals_are_strict_no_ops,
    buffer_full_fires_exactly_at_ring_capacity,
    re_registration_reweighs_the_root,
    reconfig_commands_reach_the_right_place,
    facade_counts_are_exact,
    forced_removal_folds_ring_residue,
    ingest_schedules_at_once,
);

fn mk_cfg() -> EngineConfig {
    EngineConfig::new(4).batch(3).ring_capacity(512)
}

fn weight(id: u32) -> Rate {
    Rate::kbps(64 * (1 + id as u64 % 5))
}

/// 16 flows × 20 rounds of mixed-length packets, all at `T0`.
fn fixed_packets(fac: &mut PacketFactory) -> Vec<Packet> {
    let mut pkts = Vec::new();
    for round in 0..20 {
        for id in 0..16u32 {
            let len = Bytes::new(200 + 37 * ((round + id as u64) % 7));
            pkts.push(fac.make(FlowId(id), len, T0));
        }
    }
    pkts
}

/// Register the 16 fixed flows, ingest `pkts`, and drain in uneven
/// chunks so batch boundaries get exercised; returns the uid order.
fn run_fixed<S: ShardSched>(eng: &mut Engine<S>, pkts: &[Packet]) -> Vec<u64> {
    for id in 0..16u32 {
        eng.try_add_flow(FlowId(id), weight(id)).unwrap();
    }
    for &p in pkts {
        eng.try_ingest(p).unwrap();
    }
    let mut out = Vec::new();
    for chunk in [7usize, 1, 13, 40, 400] {
        eng.drain(T0, chunk, &mut out).unwrap();
    }
    assert!(eng.is_empty());
    out.iter().map(|p| p.uid).collect()
}

/// Drain everything; returns the uid order.
fn drain_all<S: ShardSched>(eng: &mut Engine<S>) -> Vec<u64> {
    let mut out = Vec::new();
    while eng.pending() > 0 {
        assert!(eng.drain(T0, 64, &mut out).unwrap() > 0, "engine stalled");
    }
    out.iter().map(|p| p.uid).collect()
}

/// The first two flow ids that hash to shard `shard` of `shards`.
fn two_flows_on(shard: usize, shards: usize) -> (FlowId, FlowId) {
    let mut on = (0..).map(FlowId).filter(|&f| shard_of(f, shards) == shard);
    (on.next().unwrap(), on.next().unwrap())
}

fn root_weights<S: ShardSched>(eng: &Engine<S>) -> Vec<u64> {
    (0..eng.shards())
        .map(|s| eng.root().weight_bps(s))
        .collect()
}

/// `ZeroWeight`, `UnknownFlow` and `UnknownShard` refusals change
/// nothing: counts, root weights and the departures that follow are
/// those of an engine that never saw the refused calls.
fn refusals_are_strict_no_ops<K: Kind>() {
    let mut fac = PacketFactory::new();
    let pkts = fixed_packets(&mut fac);
    let stranger = FlowId(99);
    let stray = fac.make(stranger, Bytes::new(100), T0);
    let mut eng = K::engine(mk_cfg());
    let mut control = K::engine(mk_cfg());
    for e in [&mut eng, &mut control] {
        for id in 0..16u32 {
            e.try_add_flow(FlowId(id), weight(id)).unwrap();
        }
        for &p in &pkts[..100] {
            e.try_ingest(p).unwrap();
        }
    }
    let zero = Rate::bps(0);
    let refused = [
        eng.try_add_flow(FlowId(3), zero),
        eng.try_add_flow(stranger, zero),
        eng.try_set_weight(FlowId(3), zero),
        eng.try_set_weight(stranger, Rate::kbps(64)),
        eng.try_reconfig(ReconfigCmd::SetWeight(stranger, Rate::kbps(64))),
        eng.try_reconfig(ReconfigCmd::SetRate(FlowId(3), zero)),
        eng.try_reconfig(ReconfigCmd::RemoveFlow(stranger)),
        eng.try_reconfig(ReconfigCmd::SetShardWeight(4, None)),
        eng.try_set_shard_weight(17, Some(Rate::kbps(1))),
        eng.try_ingest(stray),
    ];
    assert_eq!(
        refused.map(Result::unwrap_err),
        [
            SchedError::ZeroWeight(FlowId(3)),
            SchedError::ZeroWeight(stranger),
            SchedError::ZeroWeight(FlowId(3)),
            SchedError::UnknownFlow(stranger),
            SchedError::UnknownFlow(stranger),
            SchedError::ZeroWeight(FlowId(3)),
            SchedError::UnknownFlow(stranger),
            SchedError::UnknownShard(4),
            SchedError::UnknownShard(17),
            SchedError::UnknownFlow(stranger),
        ]
    );
    assert_eq!(eng.force_remove_flow(stranger), 0);
    assert!(eng.drop_head(stranger).is_none());
    assert_eq!(eng.pending(), control.pending());
    assert_eq!(root_weights(&eng), root_weights(&control));
    for e in [&mut eng, &mut control] {
        for &p in &pkts[100..] {
            e.try_ingest(p).unwrap();
        }
    }
    assert_eq!(drain_all(&mut eng), drain_all(&mut control));
}

/// The refusal rule is a count: `BufferFull` exactly when the shard's
/// pending count equals the ring capacity, wherever the packets sit.
fn buffer_full_fires_exactly_at_ring_capacity<K: Kind>() {
    let mut eng = K::engine(EngineConfig::new(2).ring_capacity(8));
    let mut fac = PacketFactory::new();
    let f = FlowId(1);
    eng.try_add_flow(f, Rate::kbps(64)).unwrap();
    let mut offer = |eng: &mut Engine<K::Sched>| eng.try_ingest(fac.make(f, Bytes::new(100), T0));
    for _ in 0..8 {
        assert_eq!(offer(&mut eng), Ok(()));
    }
    assert_eq!(offer(&mut eng), Err(SchedError::BufferFull(f)));
    // Moving the backlog from the ring into the scheduler frees nothing.
    eng.pump(T0).unwrap();
    assert_eq!(offer(&mut eng), Err(SchedError::BufferFull(f)));
    let mut out = Vec::new();
    assert_eq!(eng.drain(T0, 3, &mut out), Ok(3));
    for _ in 0..3 {
        assert_eq!(offer(&mut eng), Ok(()));
    }
    assert_eq!(offer(&mut eng), Err(SchedError::BufferFull(f)));
    assert_eq!(eng.pending(), 8);
}

/// Registering a flow again replaces its rate in the root aggregate of
/// its shard; it does not add to it.
fn re_registration_reweighs_the_root<K: Kind>() {
    let mut eng = K::engine(mk_cfg());
    let (a, b) = two_flows_on(2, 4);
    eng.try_add_flow(a, Rate::kbps(64)).unwrap();
    assert_eq!(root_weights(&eng), [0, 0, 64_000, 0]);
    eng.try_add_flow(a, Rate::kbps(256)).unwrap();
    assert_eq!(root_weights(&eng), [0, 0, 256_000, 0]);
    eng.try_add_flow(b, Rate::kbps(10)).unwrap();
    eng.add_flow(a, Rate::kbps(30));
    assert_eq!(root_weights(&eng), [0, 0, 40_000, 0]);
}

/// Each `ReconfigCmd` lands where it should: flow commands on the flow
/// table and the home shard's root aggregate, `SetShardWeight` on the
/// root override, `RemoveFlow` unregistering the flow for ingest.
fn reconfig_commands_reach_the_right_place<K: Kind>() {
    let mut eng = K::engine(mk_cfg());
    let mut fac = PacketFactory::new();
    let (a, b) = two_flows_on(1, 4);
    let kbps = Rate::kbps;
    eng.try_reconfig(ReconfigCmd::AddFlow(a, kbps(64))).unwrap();
    eng.try_reconfig(ReconfigCmd::AddFlow(b, kbps(64))).unwrap();
    assert_eq!(eng.shard_of(a), 1);
    assert_eq!(root_weights(&eng), [0, 128_000, 0, 0]);
    eng.try_ingest(fac.make(a, Bytes::new(100), T0)).unwrap();
    eng.try_reconfig(ReconfigCmd::SetWeight(a, kbps(32)))
        .unwrap();
    assert_eq!(root_weights(&eng), [0, 96_000, 0, 0]);
    eng.try_reconfig(ReconfigCmd::SetRate(b, kbps(8))).unwrap();
    assert_eq!(root_weights(&eng), [0, 40_000, 0, 0]);
    eng.try_reconfig(ReconfigCmd::SetShardWeight(1, Some(kbps(500))))
        .unwrap();
    assert_eq!(eng.root().shard_weight_override(1), Some(500_000));
    eng.try_reconfig(ReconfigCmd::SetShardWeight(1, None))
        .unwrap();
    assert_eq!(eng.root().shard_weight_override(1), None);
    eng.try_reconfig(ReconfigCmd::RemoveFlow(a)).unwrap();
    assert_eq!(root_weights(&eng), [0, 8_000, 0, 0]);
    assert_eq!(eng.pending(), 0, "removal is forceful");
    let late = fac.make(a, Bytes::new(100), T0);
    assert_eq!(eng.try_ingest(late), Err(SchedError::UnknownFlow(a)));
    assert_eq!(
        eng.try_reconfig(ReconfigCmd::RemoveFlow(a)),
        Err(SchedError::UnknownFlow(a))
    );
    // A removed flow can come back, with fresh state.
    eng.try_reconfig(ReconfigCmd::AddFlow(a, kbps(16))).unwrap();
    eng.try_ingest(late).unwrap();
    assert_eq!(drain_all(&mut eng), [late.uid]);
}

/// Through the `Scheduler` facade `len`, `backlog` and `is_empty` are
/// exact after every call, evictions and removals included.
fn facade_counts_are_exact<K: Kind>() {
    let mut eng = K::engine(mk_cfg());
    let mut fac = PacketFactory::new();
    assert_eq!(eng.name(), "SFQ-ENGINE");
    let flows = [FlowId(7), FlowId(9), FlowId(12)];
    for (i, &f) in flows.iter().enumerate() {
        eng.add_flow(f, Rate::kbps(64 << i));
    }
    assert!(Scheduler::is_empty(&eng));
    for round in 0..6 {
        for (i, &f) in flows.iter().enumerate() {
            eng.enqueue(T0, fac.make(f, Bytes::new(500), T0));
            assert_eq!(eng.backlog(f), round + 1);
            assert_eq!(eng.len(), 3 * round + i + 1);
        }
    }
    let head = eng.drop_head(flows[0]).expect("backlogged");
    assert_eq!(
        (head.flow, eng.backlog(flows[0]), eng.len()),
        (flows[0], 5, 17)
    );
    assert_eq!(eng.force_remove_flow(flows[1]), 6);
    assert_eq!((eng.backlog(flows[1]), eng.len()), (0, 11));
    let mut left = [5, 0, 6];
    while let Some(p) = eng.dequeue(T0) {
        eng.on_departure(T0);
        let i = flows.iter().position(|&f| f == p.flow).unwrap();
        left[i] -= 1;
        assert_eq!(eng.backlog(p.flow), left[i]);
        assert_eq!(eng.len(), left.iter().sum::<usize>());
    }
    assert_eq!(left, [0, 0, 0]);
    assert!(Scheduler::is_empty(&eng));
}

/// Regression: removing a flow while another flow's packets are
/// pending on the same shard discards only the removed flow's packet.
/// An engine that buffered ingests until a pump once lost the *other*
/// flow's two packets here (`pump -> Err(UnknownFlow)`, then an empty
/// drain); ingest now schedules each packet at once, so the removal
/// finds them already queued and leaves them.
fn forced_removal_folds_ring_residue<K: Kind>() {
    let run = |reconfig: bool| {
        let mut eng = K::engine(EngineConfig::new(1));
        let mut fac = PacketFactory::new();
        let (a, b) = (FlowId(1), FlowId(2));
        eng.try_add_flow(a, Rate::kbps(64)).unwrap();
        eng.try_add_flow(b, Rate::kbps(64)).unwrap();
        for f in [a, b, b] {
            eng.try_ingest(fac.make(f, Bytes::new(100), T0)).unwrap();
        }
        let discarded = if reconfig {
            eng.try_reconfig(ReconfigCmd::RemoveFlow(a)).unwrap();
            3 - eng.pending()
        } else {
            eng.force_remove_flow(a)
        };
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.pump(T0), Ok(()));
        let departed = drain_all(&mut eng).len();
        assert_eq!(3, departed + discarded, "ingested == departed + discarded");
        discarded
    };
    assert_eq!((run(false), run(true)), (1, 1));
}

/// A packet is scheduled the moment `try_ingest` accepts it: with no
/// `pump` anywhere, `backlog` counts it, `drop_head` evicts it and
/// `force_remove_flow` returns it.
fn ingest_schedules_at_once<K: Kind>() {
    let mut eng = K::engine(mk_cfg());
    let mut fac = PacketFactory::new();
    let (a, b) = two_flows_on(1, 4);
    eng.try_add_flow(a, Rate::kbps(64)).unwrap();
    eng.try_add_flow(b, Rate::kbps(64)).unwrap();
    let mut offer = |eng: &mut Engine<K::Sched>, f| {
        let pkt = fac.make(f, Bytes::new(100), T0);
        eng.try_ingest(pkt).unwrap();
        pkt.uid
    };
    let ours: Vec<u64> = (0..3).map(|_| offer(&mut eng, a)).collect();
    let theirs = offer(&mut eng, b);
    assert_eq!((eng.backlog(a), eng.backlog(b)), (3, 1));
    assert_eq!(eng.drop_head(a).map(|p| p.uid), Some(ours[0]));
    assert_eq!(eng.backlog(a), 2);
    assert_eq!(eng.force_remove_flow(a), 2);
    assert_eq!((eng.backlog(a), eng.pending()), (0, 1));
    assert_eq!(drain_all(&mut eng), [theirs]);
}

/// One call of [`facade_is_ingest_then_pump`]; packets are
/// `(flow, bytes)`.
#[derive(Clone, Copy, Debug)]
enum Call {
    Enqueue(u32, u64),
    Ingest(u32, u64),
    Dequeue,
    Pump,
    Drain(usize),
}

/// Registered flows are `0..FLOWS`; flow `FLOWS` is not.
const FLOWS: u32 = 6;
const CAP: usize = 8;

/// The facade is ingest + pump: random mixes of facade and native calls
/// at 1, 2 and 4 shards give the results, departures, observer events
/// and pages of a copy whose facade enqueue is `try_ingest` + `pump` and
/// facade dequeue a one-packet `drain` (`pump` is a no-op: ingest
/// schedules at once). Every run ends in a tour: a facade enqueue right
/// after an ingest, an unknown flow, one flow past its shard's
/// `ring_capacity`, and, through the facade, a packet its shard refuses
/// with its own error (`POISON_LEN`), which changes nothing else.
#[test]
fn facade_is_ingest_then_pump() {
    check_facade(|obs| Marked(Sfq::with_observer(Default::default(), obs)));
    check_facade(|obs| Marked(SfqFast::with_observer(Default::default(), obs)));
}

fn check_facade<S: ShardSched>(shard: impl Fn(Rc<RefCell<RingTracer>>) -> S) {
    use Call::*;
    let pkt = || (0..=FLOWS, prop_oneof![Just(64u64), Just(576), Just(1500)]);
    // Repeated arms stand in for weights: packets about half the calls.
    let call = prop_oneof![
        pkt().prop_map(|(f, l)| Enqueue(f, l)),
        pkt().prop_map(|(f, l)| Enqueue(f, l)),
        pkt().prop_map(|(f, l)| Ingest(f, l)),
        Just(Dequeue),
        Just(Dequeue),
        Just(Pump),
        (1usize..6).prop_map(Drain),
    ];
    let tour: Vec<Call> = [Drain(64), Ingest(0, 300), Enqueue(1, 300)]
        .into_iter()
        .chain([Enqueue(FLOWS, 300)])
        .chain([Enqueue(2, 100); CAP + 1])
        .chain([Drain(64), Enqueue(3, POISON_LEN), Enqueue(3, 100)])
        .chain([Ingest(3, 100), Dequeue, Pump, Drain(64)])
        .collect();
    let run = |shards: usize, calls: &[Call], facade: bool| {
        let tracer = Rc::new(RefCell::new(RingTracer::with_capacity(1 << 12)));
        let cfg = EngineConfig::new(shards).batch(3).ring_capacity(CAP);
        let mut eng = Engine::from_factory(cfg, |_| shard(Rc::clone(&tracer)));
        let hub = eng.attach_telemetry();
        for f in 0..FLOWS {
            eng.try_add_flow(FlowId(f), Rate::kbps(64 << (f % 3)))
                .unwrap();
        }
        let mut fac = PacketFactory::new();
        let mut results = Vec::new();
        for (i, &call) in calls.iter().chain(&tour).enumerate() {
            let now = SimTime::from_micros(i as i128);
            let mut pkt = |f, len| fac.make(FlowId(f), Bytes::new(len), now);
            let mut out = Vec::new();
            let res = match call {
                Enqueue(f, l) if facade => eng.try_enqueue(now, pkt(f, l)),
                Enqueue(f, l) => eng.try_ingest(pkt(f, l)).and_then(|()| eng.pump(now)),
                Ingest(f, l) => eng.try_ingest(pkt(f, l)),
                Dequeue if facade => eng.try_dequeue(now).map(|p| out.extend(p)),
                Dequeue => eng.drain(now, 1, &mut out).map(drop),
                Pump => eng.pump(now),
                Drain(n) => eng.drain(now, n, &mut out).map(drop),
            };
            results.push(res.map(|()| out.iter().map(|p| p.uid).collect::<Vec<_>>()));
        }
        let pages = Aggregator::new(hub).snapshot(1).unwrap();
        let trace: Vec<_> = tracer.borrow().records().cloned().collect();
        (results, trace, pages.engine, pages.shards, eng.pending())
    };
    let mut rng = TestRng::deterministic(std::any::type_name::<S>());
    let script = proptest::collection::vec(call, 0..64);
    for shards in [1, 2, 4].repeat(32) {
        let calls = script.generate(&mut rng);
        let got = run(shards, &calls, true);
        assert_eq!(got, run(shards, &calls, false), "{calls:?}");
        let errs: Vec<_> = got.0.into_iter().filter_map(Result::err).collect();
        let met = |e| errs.contains(&e);
        let toured = met(BufferFull(FlowId(2))) && met(UnknownFlow(FlowId(FLOWS)));
        assert!(toured && met(TagOverflow), "{errs:?}");
    }
}

/// The fixed sequence drains completely over both shipped shard
/// schedulers, every packet exactly once. (The smoke weights are
/// multiples of 64 kbps but not powers of two, so this also runs the
/// quantized-tag path of `SfqFast`, where fast and exact may
/// legitimately order differently.)
#[test]
fn fixed_sequence_drains_completely() {
    let pkts = fixed_packets(&mut PacketFactory::new());
    let exact = run_fixed(&mut SyncEngine::new(mk_cfg()), &pkts);
    let fast = run_fixed(&mut SyncEngine::new_fast(mk_cfg()), &pkts);
    for mut got in [exact, fast] {
        assert_eq!(got.len(), pkts.len());
        got.sort_unstable();
        assert!(got.iter().zip(&pkts).all(|(uid, p)| *uid == p.uid));
    }
}

/// `from_factory` accepts any `ShardSched` — here a per-shard mix is
/// pointless semantically but proves the plumbing compiles and runs;
/// the rebase threshold from the config is applied to every shard.
#[test]
fn from_factory_builds_scfq_fast_shards() {
    let mut eng = SyncEngine::from_factory(mk_cfg(), |_| ScfqFast::new());
    let mut fac = PacketFactory::new();
    for id in 0..8u32 {
        eng.try_add_flow(FlowId(id), Rate::kbps(128)).unwrap();
    }
    for _ in 0..10 {
        for id in 0..8u32 {
            eng.try_ingest(fac.make(FlowId(id), Bytes::new(400), T0))
                .unwrap();
        }
    }
    let mut out = Vec::new();
    eng.drain(T0, usize::MAX, &mut out).unwrap();
    assert_eq!(out.len(), 80);
    assert!(eng.is_empty());
}

#[test]
fn backpressure_is_deterministic() {
    let mut eng = SyncEngine::new(EngineConfig::new(2).ring_capacity(8));
    let mut fac = PacketFactory::new();
    eng.try_add_flow(FlowId(1), Rate::kbps(64)).unwrap();
    let refusals = (0..20)
        .filter(|_| {
            eng.try_ingest(fac.make(FlowId(1), Bytes::new(100), T0))
                .is_err()
        })
        .count();
    // One flow -> one shard -> capacity 8: exactly 12 refusals.
    assert_eq!(refusals, 12);
}

#[test]
fn engine_implements_scheduler() {
    let mut eng = SyncEngine::new(mk_cfg());
    let mut fac = PacketFactory::new();
    eng.add_flow(FlowId(7), Rate::kbps(64));
    eng.add_flow(FlowId(9), Rate::kbps(192));
    assert_eq!(eng.name(), "SFQ-ENGINE");
    for _ in 0..6 {
        eng.enqueue(T0, fac.make(FlowId(7), Bytes::new(500), T0));
        eng.enqueue(T0, fac.make(FlowId(9), Bytes::new(500), T0));
    }
    assert_eq!(eng.len(), 12);
    assert_eq!(eng.backlog(FlowId(7)), 6);
    let mut got = 0;
    while let Some(_p) = eng.dequeue(T0) {
        eng.on_departure(T0);
        got += 1;
    }
    assert_eq!(got, 12);
    assert!(eng.is_empty());
}

/// `S`, except that it refuses one marked packet length with
/// `TagOverflow` — the only enqueue error a registered flow can meet,
/// and not one a test can provoke cheaply in a real `Sfq`. Every call
/// the engine makes is forwarded, batches included.
#[derive(Default)]
struct Marked<S>(S);

const POISON_LEN: u64 = 666;

impl<S: ShardSched> Scheduler for Marked<S> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.0.add_flow(flow, weight)
    }
    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt).unwrap()
    }
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.try_enqueue_batch(now, &[pkt])
    }
    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        let good = pkts.iter().take_while(|p| p.len != Bytes::new(POISON_LEN));
        let good = good.count();
        self.0.try_enqueue_batch(now, &pkts[..good])?;
        if good < pkts.len() {
            return Err(TagOverflow);
        }
        Ok(())
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.0.dequeue(now)
    }
    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        self.0.dequeue_batch(now, max, out)
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
        "MARKED"
    }
}

impl<S: ShardSched> ShardSched for Marked<S> {
    fn enable_rebasing(&mut self, bits: u32) {
        self.0.enable_rebasing(bits)
    }
    fn attach_telemetry(&mut self, sink: sfq_core::TelemetrySink) {
        self.0.attach_telemetry(sink)
    }
}

/// The one enqueue-error rule (`engine.rs` module docs): a
/// `TagOverflow` refuses that one packet and changes nothing else. A
/// 1 TiB packet of a 1 b/s flow spans past `SfqFast`'s u64 tag grid;
/// the packets of another flow on the same shard, before and after it,
/// all drain, nothing stays pending, and the counter pages close. The
/// `Scheduler` facade gives the same result, and its `len` never counts
/// the refused packet.
#[test]
fn a_tag_overflow_refuses_one_packet_and_nothing_else() {
    let run = |facade: bool| {
        let mut eng = SyncEngine::new_fast(EngineConfig::new(2));
        let hub = eng.attach_telemetry();
        let (slow, fast) = two_flows_on(0, 2);
        eng.try_add_flow(slow, Rate::bps(1)).unwrap();
        eng.try_add_flow(fast, Rate::kbps(64)).unwrap();
        let mut fac = PacketFactory::new();
        let mut results = Vec::new();
        for i in 0..7 {
            let pkt = match i {
                3 => fac.make(slow, Bytes::new(1 << 40), T0),
                _ => fac.make(fast, Bytes::new(500), T0),
            };
            results.push(match facade {
                true => eng.try_enqueue(T0, pkt),
                false => eng.try_ingest(pkt),
            });
            assert_eq!(eng.len(), i + usize::from(i < 3), "after offer {i}");
        }
        let mut departed = Vec::new();
        while let Some(p) = eng.try_dequeue(T0).unwrap() {
            departed.push(p.uid);
        }
        assert_eq!(eng.pending(), 0);
        let pages = Aggregator::new(hub).snapshot(1).unwrap();
        assert_eq!(pages.conservation_gap(), 0);
        // Booked under `RefuseCause::Other`, the third slot.
        assert_eq!(pages.engine.refused, [0, 0, 1]);
        (results, departed)
    };
    let (results, departed) = run(false);
    let mut want = vec![Ok(()); 7];
    want[3] = Err(TagOverflow);
    assert_eq!(results, want);
    assert_eq!(departed, [0, 1, 2, 4, 5, 6]);
    assert_eq!(run(true), (results, departed));
}
