//! The engine: one flow table, one root arbiter, one backpressure rule
//! and one pick → pull-batch → charge loop over `N` shards, each a leaf
//! scheduler behind a FIFO of ingested, not yet scheduled packets, all
//! run in place on the calling thread.
//!
//! # Backpressure
//!
//! Ingest refuses a packet (`SchedError::BufferFull`) when the shard's
//! *pending* count — packets ingested but not yet drained, wherever
//! they physically sit — has reached `ring_capacity`, so refusals
//! depend only on the API call sequence, never on where a pump happened
//! to fall. Size `ring_capacity` as "maximum un-drained backlog per
//! shard".
//!
//! # Enqueue errors
//!
//! Once a flow is registered only `TagOverflow` can refuse its packets.
//! Such an error never panics: it poisons the shard — its queue is
//! still consumed, nothing more is enqueued — the pump that hit it
//! returns it, and every later drain that picks that shard reports it
//! again.

use crate::{shard_of, EngineConfig, ShardSched};
use sfq_core::obs::SchedObserver;
use sfq_core::{
    FlowId, FlowMap, NoopObserver, Packet, ReconfigCmd, RootSfq, SchedError, Scheduler, Sfq,
    SfqFast,
};
use sfq_telemetry::{RefuseCause, TelemetryHub};
use simtime::{Rate, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// One shard: a leaf scheduler, the packets ingested into it but not
/// yet pumped, and the counts the refusal rule and the pump read.
struct Shard<S> {
    sched: S,
    /// Ingested, not yet pumped, in ingest order. Reserved at
    /// `ring_capacity` by the first push.
    queue: VecDeque<Packet>,
    /// First enqueue error; see the module docs on poisoning.
    poisoned: Option<SchedError>,
    /// Packets ingested but not yet drained or discarded: queue residue
    /// plus scheduler backlog.
    pending: usize,
    /// Packets pushed since [`Engine::pump`] last visited this shard:
    /// zero means the queue holds nothing a pump could move. Only
    /// [`Shard::push`] raises it and only the pump clears it, so a
    /// forced removal that folded the residue first leaves it
    /// stale-high, which costs the next pump one empty visit.
    unpumped: usize,
}

impl<S: ShardSched> Shard<S> {
    /// A shard around `sched` (rebasing enabled per `cfg`, packet store
    /// sized) with an empty queue and nothing pending.
    fn new(cfg: &EngineConfig, mut sched: S) -> Self {
        if let Some(bits) = cfg.rebase_bits {
            sched.enable_rebasing(bits);
        }
        sched.preallocate(cfg.ring_capacity);
        Shard {
            sched,
            queue: VecDeque::new(),
            poisoned: None,
            pending: 0,
            unpumped: 0,
        }
    }

    /// Push one accepted packet; the caller has checked `pending`
    /// against `cap`, which the queue reserves on first use.
    fn push(&mut self, pkt: Packet, cap: usize) {
        if self.queue.capacity() == 0 {
            self.queue.reserve_exact(cap);
        }
        self.queue.push_back(pkt);
        self.pending += 1;
        self.unpumped += 1;
    }

    /// Move the queue residue into the scheduler as one batch, stamping
    /// tags against the shard's current virtual time. Returns the
    /// enqueue error, if any, that this very call hit.
    fn pump(&mut self, now: SimTime) -> Result<(), SchedError> {
        let mut queue = std::mem::take(&mut self.queue);
        let res = self.enqueue_batch(now, queue.make_contiguous());
        queue.clear();
        self.queue = queue;
        res
    }

    /// Hand `pkts` to the scheduler as one batch unless the shard is
    /// poisoned, poisoning it on the error this call hits.
    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        if self.poisoned.is_some() {
            return Ok(());
        }
        let res = self.sched.try_enqueue_batch(now, pkts);
        self.poisoned = res.err();
        res
    }

    /// The single forced-removal rule: fold the queue residue into the
    /// scheduler, each packet at its own arrival instant, *then*
    /// discard `flow`'s backlog and unregister it, so the returned
    /// count covers every packet of the flow ingest ever accepted and
    /// no residue of an unregistered flow is left behind to fail a
    /// later pump. Ingest order is preserved and virtual time cannot
    /// have moved since the last dequeue, so the other flows' tags are
    /// what a lazy pump would have stamped.
    fn force_remove(&mut self, flow: FlowId) -> usize {
        while let Some(pkt) = self.queue.pop_front() {
            if self.poisoned.is_none() {
                self.poisoned = self.sched.try_enqueue(pkt.arrival, pkt).err();
            }
        }
        self.sched.force_remove_flow(flow)
    }
}

/// What the engine knows about a registered flow: one lookup answers
/// both "is it registered" and "where does it live".
#[derive(Clone, Copy, Debug)]
struct FlowRec {
    weight: Rate,
    /// [`shard_of`] the flow, kept so that ingest does not rehash.
    home: usize,
}

/// Sharded SFQ engine whose every shard runs the leaf discipline `S` in
/// place on the calling thread, statically dispatched (exact-rational
/// [`Sfq`] by default; [`Engine::new_fast`] swaps in the fixed-point
/// [`SfqFast`]). The root arbiter is exact, up to the same picosecond
/// snap as [`Sfq`], for every `S`. Every method
/// is a deterministic function of the API call sequence. See the module
/// docs and `docs/engine.md`.
pub struct Engine<S: ShardSched> {
    cfg: EngineConfig,
    shards: Vec<Shard<S>>,
    root: RootSfq,
    flows: FlowMap<FlowRec>,
    backlogged: Vec<bool>,
    /// Counter pages: shard page `i` written by shard `i`'s scheduler,
    /// engine page written here (offered / refusals). `None` until
    /// [`Engine::attach_telemetry`].
    tele: Option<Arc<TelemetryHub>>,
    /// Scratch for the single-packet `Scheduler` facade.
    one: Vec<Packet>,
}

impl Engine<Sfq> {
    /// Engine with exact-rational shards and no observers attached.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_observer(cfg, NoopObserver)
    }
}

impl Engine<SfqFast> {
    /// Engine whose shards run the fixed-point [`SfqFast`] fast path at
    /// the default tag shift; the root arbiter stays exact.
    pub fn new_fast(cfg: EngineConfig) -> Self {
        Self::from_factory(cfg, |_| SfqFast::new())
    }
}

impl<O: SchedObserver + Clone> Engine<Sfq<O>> {
    /// Engine whose every shard scheduler carries a clone of `obs`.
    /// Pass an `Rc<RefCell<...>>` observer to aggregate events from all
    /// shards into one sink (as the fairness tests do with
    /// `sfq_obs::FlowMetrics`).
    pub fn with_observer(cfg: EngineConfig, obs: O) -> Self {
        Self::from_factory(cfg, |_| Sfq::with_observer(Default::default(), obs.clone()))
    }
}

impl<S: ShardSched> Engine<S> {
    /// Engine whose shard scheduler `i` is built by `mk(i)`; the config
    /// rebase threshold is then applied to each. This is the one
    /// construction path — the named constructors all delegate here.
    pub fn from_factory(cfg: EngineConfig, mut mk: impl FnMut(usize) -> S) -> Self {
        let cfg = cfg.validated();
        Engine {
            cfg,
            shards: (0..cfg.shards).map(|i| Shard::new(&cfg, mk(i))).collect(),
            root: RootSfq::new(cfg.shards, cfg.rebase_bits),
            flows: FlowMap::new(),
            backlogged: vec![false; cfg.shards],
            tele: None,
            one: Vec::new(),
        }
    }

    /// Allocate one [`sfq_telemetry::StatPage`] per shard plus an
    /// engine page, attach each shard page to its scheduler, and
    /// return the hub an off-thread [`sfq_telemetry::Aggregator`] can
    /// snapshot without touching the shards. Idempotent: a second call
    /// returns the existing hub unchanged, so counters are never reset
    /// mid-run.
    pub fn attach_telemetry(&mut self) -> Arc<TelemetryHub> {
        if let Some(hub) = &self.tele {
            return Arc::clone(hub);
        }
        let hub = TelemetryHub::new(self.shards.len());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.sched.attach_telemetry(hub.shard(i).clone());
        }
        self.tele = Some(Arc::clone(&hub));
        hub
    }

    /// The telemetry hub, if [`Engine::attach_telemetry`] ran.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.tele.as_ref()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Drain batch size.
    pub fn batch(&self) -> usize {
        self.cfg.batch
    }

    /// Shard owning `flow`: its hash home, [`shard_of`].
    pub fn shard_of(&self, flow: FlowId) -> usize {
        shard_of(flow, self.shards.len())
    }

    /// Root arbiter state, for tests and diagnostics.
    pub fn root(&self) -> &RootSfq {
        &self.root
    }

    /// Total packets pending across all shards (ingest residue plus
    /// scheduler backlog).
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending).sum()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Register `flow` at rate `weight` on its home shard and fold the
    /// rate into the root arbiter's aggregate for that shard.
    /// Re-registration updates the weight, as for the leaf discipline.
    pub fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        let home = self.shard_of(flow);
        self.shards[home].sched.try_add_flow(flow, weight)?;
        let old = self.flows.insert(flow, FlowRec { weight, home });
        self.root
            .reweigh(home, old.map_or(0, |r| r.weight.as_bps()), weight.as_bps());
        Ok(())
    }

    /// Live weight change for `flow` on its home shard, under the leaf
    /// discipline's tag-rewrite rule (see `Sfq::try_set_weight` and
    /// `docs/robustness.md`), with the flow table and the root
    /// arbiter's shard aggregate updated to match. Nothing changes on
    /// any error path.
    pub fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        let Some(rec) = self.flows.get_mut(flow) else {
            return Err(SchedError::UnknownFlow(flow));
        };
        self.shards[rec.home].sched.try_set_weight(flow, weight)?;
        let old = std::mem::replace(&mut rec.weight, weight);
        self.root.reweigh(rec.home, old.as_bps(), weight.as_bps());
        Ok(())
    }

    /// Override shard `shard`'s effective aggregate weight at the root
    /// arbiter, or clear the override with `None` — the
    /// [`ReconfigCmd::SetShardWeight`] command. Pure root state. See
    /// [`RootSfq::set_shard_weight`].
    pub fn try_set_shard_weight(
        &mut self,
        shard: usize,
        rate: Option<Rate>,
    ) -> Result<(), SchedError> {
        if shard >= self.shards.len() {
            return Err(SchedError::UnknownShard(shard));
        }
        self.root.set_shard_weight(shard, rate)
    }

    /// Hand `pkt` to its home shard's queue. Refuses with
    /// [`SchedError::UnknownFlow`] for unregistered flows and
    /// [`SchedError::BufferFull`] when the shard's pending count has
    /// reached the ring capacity (see the module docs on backpressure).
    /// The packet is *not yet scheduled*: tags are stamped at the next
    /// [`Engine::pump`] or drain.
    pub fn try_ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        let home = self.admit(pkt.flow)?;
        self.shards[home].push(pkt, self.cfg.ring_capacity);
        Ok(())
    }

    /// The admission rule of ingest and of the `Scheduler` facade: the
    /// home shard of a packet of `flow`, or the refusal. Every arrival
    /// is booked as offered on the engine page — accepted or refused —
    /// and every refusal with its cause, so the pages close the
    /// conservation identity `offered == departures + refusals + drops`.
    fn admit(&mut self, flow: FlowId) -> Result<usize, SchedError> {
        if let Some(hub) = &self.tele {
            hub.engine().record_offered(1);
        }
        let (cause, err) = match self.flows.get(flow) {
            None => (RefuseCause::UnknownFlow, SchedError::UnknownFlow(flow)),
            Some(rec) if self.shards[rec.home].pending >= self.cfg.ring_capacity => {
                (RefuseCause::BufferFull, SchedError::BufferFull(flow))
            }
            Some(rec) => return Ok(rec.home),
        };
        if let Some(hub) = &self.tele {
            hub.engine().record_refusal(cause);
        }
        Err(err)
    }

    /// Move every queued packet into its shard scheduler as one batch
    /// per shard, stamping tags against each shard's current virtual
    /// time. Tags do not depend on `now` (Eq. 4 reads only the virtual
    /// time, which moves at dequeues), so deferring a pump never changes
    /// an ordering decision — only observer timestamps.
    ///
    /// Only shards pushed to since the last pump are visited.
    pub fn pump(&mut self, now: SimTime) -> Result<(), SchedError> {
        for shard in &mut self.shards {
            if std::mem::take(&mut shard.unpumped) > 0 {
                shard.pump(now)?;
            }
        }
        Ok(())
    }

    /// Drain up to `max` packets at `now` into `out`, batch by batch:
    /// pump all queues, then repeatedly let the root arbiter pick the
    /// backlogged shard with the least start tag, pull up to
    /// [`EngineConfig::batch`] packets from it, and charge the root
    /// with the actual bits pulled. Returns the number drained.
    pub fn drain(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, SchedError> {
        // The pump is load-bearing for reconfiguration: the tag-rewrite
        // rule of a later `SetWeight` treats queued packets (head keeps
        // its tags) differently from ingest residue (enqueued wholly at
        // the new rate), so what a drain leaves in the scheduler must
        // not depend on whether the caller pumped first.
        self.pump(now)?;
        let mut n = 0;
        while n < max {
            for (flag, shard) in self.backlogged.iter_mut().zip(&self.shards) {
                *flag = shard.pending > 0;
            }
            let Some(s) = self.root.pick(&self.backlogged) else {
                break;
            };
            let take = self.cfg.batch.min(max - n);
            let before = out.len();
            let shard = &mut self.shards[s];
            if let Some(e) = shard.poisoned {
                return Err(e);
            }
            let k = shard.sched.dequeue_batch(now, take, out);
            if k == 0 {
                break;
            }
            // The batch has left the shard whatever the charge says.
            self.shards[s].pending -= k;
            n += k;
            let bits: u64 = out[before..].iter().map(|p| p.len.bits()).sum();
            self.root.charge(s, bits)?;
        }
        if self.is_empty() {
            self.root.on_idle();
        }
        Ok(n)
    }
}

/// The switch-port facade: lets `netsim`'s `SwitchCore` run a port
/// whose scheduled class is a sharded engine.
impl<S: ShardSched> Scheduler for Engine<S> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        if let Err(e) = self.try_add_flow(flow, weight) {
            panic!("sfq-engine: {e}");
        }
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        Engine::try_add_flow(self, flow, weight)
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        if let Err(e) = self.try_enqueue(now, pkt) {
            panic!("sfq-engine: {e}");
        }
    }

    /// Ingest and immediately pump, so no packet sits uncounted in a
    /// queue and `backlog` stays exact for the switch's admission
    /// logic. With no residue anywhere (the native API alone leaves
    /// any), that pump is one batch of this packet to its home shard,
    /// made here without the queue.
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let home = self.admit(pkt.flow)?;
        if self.shards.iter().all(|s| s.unpumped == 0) {
            let shard = &mut self.shards[home];
            shard.pending += 1;
            return shard.enqueue_batch(now, std::slice::from_ref(&pkt));
        }
        self.shards[home].push(pkt, self.cfg.ring_capacity);
        self.pump(now)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        match self.try_dequeue(now) {
            Ok(p) => p,
            Err(e) => panic!("sfq-engine: {e}"),
        }
    }

    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        let mut one = std::mem::take(&mut self.one);
        one.clear();
        let res = self.drain(now, 1, &mut one);
        let pkt = one.pop();
        self.one = one;
        res.map(|_| pkt)
    }

    // The batch methods are deliberately NOT overridden: the engine's
    // amortized path is the native `drain`, which charges the root
    // arbiter per *batch* — a coarser root granularity than the
    // per-packet facade, so overriding `dequeue_batch` with it would
    // break the trait's bit-identity contract (and the switch drives
    // per-packet transmissions anyway). The trait defaults delegate to
    // `enqueue`/`dequeue` above, which are identical by construction.

    /// No-op: batch draining folds transmission completion into
    /// [`Engine::drain`], and the root arbiter is charged there.
    fn on_departure(&mut self, _now: SimTime) {}

    fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    fn len(&self) -> usize {
        self.pending()
    }

    /// The home scheduler's own count: queue residue is not included,
    /// so it is exact whenever the queue has been pumped, which the
    /// facade's eager pump guarantees.
    fn backlog(&self, flow: FlowId) -> usize {
        self.flows
            .get(flow)
            .map_or(0, |rec| self.shards[rec.home].sched.backlog(flow))
    }

    /// Discard `flow`'s backlog on its home shard — queue residue
    /// included, folded in first (the forced-removal rule of
    /// `docs/engine.md`) — then unregister the flow and subtract its
    /// rate from the root aggregate (the churn fault). Returns the
    /// number of packets discarded; `0` for an unknown flow.
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some(rec) = self.flows.remove(flow) else {
            return 0;
        };
        let shard = &mut self.shards[rec.home];
        let dropped = shard.force_remove(flow);
        shard.pending -= dropped;
        self.root.reweigh(rec.home, rec.weight.as_bps(), 0);
        dropped
    }

    /// Evict the oldest scheduler-resident packet of `flow` from its
    /// home shard (the HeadDrop/pressure eviction hook); queue residue
    /// is never evicted.
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let shard = &mut self.shards[self.flows.get(flow)?.home];
        let evicted = shard.sched.drop_head(flow)?;
        shard.pending -= 1;
        Some(evicted)
    }

    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        Engine::try_set_weight(self, flow, weight)
    }

    /// Apply a typed reconfiguration command. `SetRate` and `AddFlow`
    /// both route through [`Engine::try_add_flow`] (re-registration
    /// updates the weight lazily — queued tags keep the old rate);
    /// `SetWeight` rewrites queued tags eagerly; `RemoveFlow` removes
    /// the flow *forcefully*, discarding any backlog — engine removal
    /// is forceful by contract, so callers tracking conservation should
    /// call [`Scheduler::force_remove_flow`] themselves and count what
    /// it returns as drops.
    fn try_reconfig(&mut self, cmd: ReconfigCmd) -> Result<(), SchedError> {
        match cmd {
            ReconfigCmd::SetWeight(flow, weight) => self.try_set_weight(flow, weight),
            ReconfigCmd::SetRate(flow, weight) | ReconfigCmd::AddFlow(flow, weight) => {
                Engine::try_add_flow(self, flow, weight)
            }
            ReconfigCmd::RemoveFlow(flow) => {
                if !self.flows.contains(flow) {
                    return Err(SchedError::UnknownFlow(flow));
                }
                self.force_remove_flow(flow);
                Ok(())
            }
            ReconfigCmd::SetShardWeight(shard, rate) => self.try_set_shard_weight(shard, rate),
        }
    }

    fn name(&self) -> &'static str {
        "SFQ-ENGINE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{PacketFactory, TelemetrySink};
    use simtime::Bytes;

    /// A shard scheduler that counts the batch enqueues reaching it:
    /// one per pump visit, and none from anything else the engine does.
    #[derive(Default)]
    struct Counting {
        inner: Sfq,
        pumps: usize,
    }

    impl Scheduler for Counting {
        fn add_flow(&mut self, flow: FlowId, weight: Rate) {
            self.inner.add_flow(flow, weight)
        }
        fn enqueue(&mut self, now: SimTime, pkt: Packet) {
            self.inner.enqueue(now, pkt)
        }
        fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
            self.pumps += 1;
            self.inner.try_enqueue_batch(now, pkts)
        }
        fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            self.inner.dequeue(now)
        }
        fn is_empty(&self) -> bool {
            self.inner.is_empty()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn backlog(&self, flow: FlowId) -> usize {
            self.inner.backlog(flow)
        }
        fn force_remove_flow(&mut self, flow: FlowId) -> usize {
            self.inner.force_remove_flow(flow)
        }
        fn name(&self) -> &'static str {
            "COUNTING"
        }
    }

    impl ShardSched for Counting {
        fn enable_rebasing(&mut self, bits: u32) {
            self.inner.enable_rebasing(bits)
        }
        fn attach_telemetry(&mut self, sink: TelemetrySink) {
            self.inner.attach_telemetry(sink)
        }
    }

    /// The engine pumps a shard only when it pushed to that shard since
    /// its last pump, and a pump it does make moves everything pushed
    /// before it.
    #[test]
    fn a_pump_visits_only_the_shards_pushed_to_since_the_last_one() {
        let mut eng = Engine::from_factory(EngineConfig::new(4), |_| Counting::default());
        let pumps = |eng: &Engine<Counting>| -> Vec<usize> {
            eng.shards.iter().map(|s| s.sched.pumps).collect()
        };
        let flows: Vec<FlowId> = (0..16).map(FlowId).collect();
        for &f in &flows {
            eng.try_add_flow(f, Rate::kbps(64)).unwrap();
        }
        let t0 = SimTime::ZERO;
        let mut pf = PacketFactory::new();
        let mut make = |f: FlowId| pf.make(f, Bytes::new(100), t0);

        // Nothing pushed: no shard is visited, by `pump` or by the pump
        // inside `drain`.
        eng.pump(t0).unwrap();
        let mut out = Vec::new();
        assert_eq!(eng.drain(t0, 8, &mut out), Ok(0));
        assert_eq!(pumps(&eng), [0; 4]);

        // One packet: its home shard is visited, once, and no other.
        let home = eng.shard_of(flows[0]);
        eng.try_ingest(make(flows[0])).unwrap();
        eng.pump(t0).unwrap();
        eng.pump(t0).unwrap();
        let mut want = [0; 4];
        want[home] = 1;
        assert_eq!(pumps(&eng), want);
        assert_eq!(eng.shards[home].sched.len(), 1);

        // The facade pumps on every enqueue and again in every
        // dequeue: one visit per packet, not two per shard.
        let before: usize = pumps(&eng).iter().sum();
        for &f in &flows {
            eng.try_enqueue(t0, make(f)).unwrap();
        }
        while eng.try_dequeue(t0).unwrap().is_some() {}
        assert_eq!(pumps(&eng).iter().sum::<usize>(), before + flows.len());
        assert!(eng.is_empty());

        // A forced removal folds the residue itself and leaves the
        // count stale-high: the next pump pays one empty visit.
        eng.try_ingest(make(flows[1])).unwrap();
        let home = eng.shard_of(flows[1]);
        let before = eng.shards[home].sched.pumps;
        assert_eq!(eng.force_remove_flow(flows[1]), 1);
        eng.pump(t0).unwrap();
        eng.pump(t0).unwrap();
        assert_eq!(eng.shards[home].sched.pumps, before + 1);
        assert!(eng.is_empty());
    }

    /// The poisoned-shard path keeps the page's books closed: a pump
    /// whose batch is refused half-way has queued — and booked — the
    /// packets before the refusal, and nothing after it.
    #[test]
    fn a_poisoned_pump_books_what_it_queued() {
        let mut shard = Shard::new(&EngineConfig::new(1), SfqFast::new());
        let sink = TelemetrySink::new();
        shard.sched.attach_telemetry(sink.clone());
        shard.sched.try_add_flow(FlowId(1), Rate::kbps(64)).unwrap();
        // At 1 bit/s a 1 TiB packet spans past the u64 tag grid.
        shard.sched.try_add_flow(FlowId(2), Rate::bps(1)).unwrap();
        let t0 = SimTime::ZERO;
        let mut fac = PacketFactory::new();
        let mut pkts: Vec<Packet> = (0..9)
            .map(|_| fac.make(FlowId(1), Bytes::new(500), t0))
            .collect();
        pkts.insert(5, fac.make(FlowId(2), Bytes::new(1 << 40), t0));
        for p in pkts {
            shard.push(p, 16);
        }
        assert_eq!(shard.pump(t0), Err(SchedError::TagOverflow));
        shard.push(fac.make(FlowId(1), Bytes::new(500), t0), 16);
        assert_eq!(shard.pump(t0), Ok(()));
        assert!(
            shard.queue.is_empty(),
            "a poisoned shard still consumes its queue"
        );

        let snap = sink.snapshot(1).expect("no writer running");
        assert_eq!(snap.enqueues, 5);
        assert_eq!(snap.enqueues, shard.sched.len() as u64);
        assert_eq!(snap.resident(), 5);
        // What `conformance::telemetry::check_self_consistency` asks of
        // the folded pages.
        assert_eq!(snap.backlog_hist.iter().sum::<u64>(), snap.enqueues);
        assert_eq!(snap.delay_hist.iter().sum::<u64>(), snap.dequeues);
        assert_eq!(snap.class_bytes.iter().sum::<u64>(), snap.deq_bytes);
    }
}
