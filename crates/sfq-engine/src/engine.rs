//! The engine: a depth-1 `HierSfq` over `N` shard schedulers — its flow
//! table, root server and pick → pull-batch → charge loop — plus one
//! backpressure rule, all run in place on the calling thread.
//!
//! # Admission and backpressure
//!
//! [`Engine::try_ingest`] and the `Scheduler` facade's `try_enqueue` are
//! one routine: look the flow up, refuse the packet
//! (`SchedError::BufferFull`) if its home shard already holds
//! `ring_capacity` packets, and otherwise enqueue it there at once, its
//! tags stamped against the shard's virtual time (Eq. 4). Refusals
//! depend only on the API call sequence: size `ring_capacity` as
//! "maximum un-drained backlog per shard". A packet the engine accepted
//! is scheduled; nothing sits between ingest and drain.
//!
//! # Enqueue errors
//!
//! Once a flow is registered only `TagOverflow` can refuse its packets.
//! Such an error refuses that one packet: it is returned to the caller,
//! booked on the engine page as `RefuseCause::Other`, and changes
//! nothing else.

use crate::{shard_of, EngineConfig, ShardSched, REBASE_BITS};
use sfq_core::obs::SchedObserver;
use sfq_core::{
    ClassId, FlowId, HierSfq, NoopObserver, Packet, ReconfigCmd, RootSfq, SchedError, Scheduler,
    Sfq, SfqFast,
};
use sfq_telemetry::{RefuseCause, TelemetryHub};
use simtime::{Rate, SimTime};
use std::sync::Arc;

/// Sharded SFQ engine whose every shard runs the leaf discipline `S` in
/// place on the calling thread, statically dispatched (exact-rational
/// [`Sfq`] by default; [`Engine::new_fast`] swaps in the fixed-point
/// [`SfqFast`]). The shards are the scheduler classes of a depth-1
/// [`HierSfq`], whose root server is exact, up to the same picosecond
/// snap as [`Sfq`], for every `S`. Every method is a deterministic
/// function of the API call sequence. See the module docs and
/// `docs/engine.md`.
pub struct Engine<S: ShardSched> {
    cfg: EngineConfig,
    /// Shard `i` is class `i + 1` under the root, weighted at the root
    /// with the sum of its flows' rates; the tree's flow table routes
    /// each flow to its [`shard_of`] home.
    tree: HierSfq<NoopObserver, S>,
    /// Counter pages: shard page `i` written by shard `i`'s scheduler,
    /// engine page written here (offered / refusals). `None` until
    /// [`Engine::attach_telemetry`].
    tele: Option<Arc<TelemetryHub>>,
}

/// The tree class of shard `shard`.
fn class(shard: usize) -> ClassId {
    ClassId(shard as u32 + 1)
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
    /// Engine whose shard scheduler `i` is built by `mk(i)`; each is
    /// then set to rebase at [`REBASE_BITS`] and told its backlog bound
    /// ([`ShardSched::preallocate`]). This is the one
    /// construction path — the named constructors all delegate here.
    pub fn from_factory(cfg: EngineConfig, mut mk: impl FnMut(usize) -> S) -> Self {
        let cfg = cfg.validated();
        let mut tree = HierSfq::nesting(NoopObserver);
        let root = tree.root();
        *tree.server_mut(root) = RootSfq::new(0, Some(REBASE_BITS));
        for i in 0..cfg.shards {
            let mut sched = mk(i);
            sched.enable_rebasing(REBASE_BITS);
            sched.preallocate(cfg.ring_capacity);
            tree.add_scheduler_class(root, Rate::bps(0), sched);
        }
        Engine {
            cfg,
            tree,
            tele: None,
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
        let hub = TelemetryHub::new(self.cfg.shards);
        for i in 0..self.cfg.shards {
            if let Ok(shard) = self.shard(i) {
                shard.attach_telemetry(hub.shard(i).clone());
            }
        }
        self.tele = Some(Arc::clone(&hub));
        hub
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Drain batch size.
    pub fn batch(&self) -> usize {
        self.cfg.batch
    }

    /// Shard owning `flow`: its hash home, [`shard_of`].
    pub fn shard_of(&self, flow: FlowId) -> usize {
        shard_of(flow, self.cfg.shards)
    }

    /// The root server's state, for tests and diagnostics.
    pub fn root(&self) -> &RootSfq {
        self.tree.server(self.tree.root())
    }

    /// Total packets pending across all shards.
    pub fn pending(&self) -> usize {
        self.tree.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Shard `i`'s scheduler.
    fn shard(&mut self, i: usize) -> Result<&mut S, SchedError> {
        self.tree
            .scheduler_mut(class(i))
            .ok_or(SchedError::UnknownShard(i))
    }

    /// Move `flow`'s rate in its home shard's aggregate weight at the
    /// root from `old_bps` to `new_bps`.
    fn reweigh(&mut self, flow: FlowId, old_bps: u64, new_bps: u64) {
        let (home, root) = (self.shard_of(flow), self.tree.root());
        self.tree.server_mut(root).reweigh(home, old_bps, new_bps);
    }

    /// Register `flow` at rate `weight` on its home shard and fold the
    /// rate into that shard's aggregate weight at the root.
    /// Re-registration updates the weight, as for the leaf discipline.
    pub fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        let home = self.shard_of(flow);
        self.shard(home)?.try_add_flow(flow, weight)?;
        let old = self.tree.route_flow(class(home), flow, weight);
        self.reweigh(flow, old.map_or(0, Rate::as_bps), weight.as_bps());
        Ok(())
    }

    /// Live weight change for `flow` on its home shard, under the leaf
    /// discipline's tag-rewrite rule (see `Sfq::try_set_weight` and
    /// `docs/robustness.md`), with the flow table and the shard's
    /// aggregate weight at the root updated to match. Nothing changes
    /// on any error path.
    pub fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        let home = self.shard_of(flow);
        self.shard(home)?.try_set_weight(flow, weight)?;
        let old = self.tree.route_flow(class(home), flow, weight);
        self.reweigh(flow, old.map_or(0, Rate::as_bps), weight.as_bps());
        Ok(())
    }

    /// Override shard `shard`'s effective aggregate weight at the root,
    /// or clear the override with `None` — the
    /// [`ReconfigCmd::SetShardWeight`] command. Pure root state. See
    /// [`RootSfq::set_shard_weight`].
    pub fn try_set_shard_weight(
        &mut self,
        shard: usize,
        rate: Option<Rate>,
    ) -> Result<(), SchedError> {
        let root = self.tree.root();
        self.tree.server_mut(root).set_shard_weight(shard, rate)
    }

    /// Schedule `pkt` on its home shard at once, stamped at
    /// `pkt.arrival`. Refuses with [`SchedError::UnknownFlow`] for
    /// unregistered flows, [`SchedError::BufferFull`] when the shard
    /// holds `ring_capacity` packets (see the module docs on
    /// admission), and with the shard's own enqueue error, which
    /// changes nothing else. Once accepted, the packet counts in
    /// [`Engine::pending`] and `backlog`, and `drop_head` and
    /// `force_remove_flow` reach it.
    pub fn try_ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        self.admit(pkt.arrival, pkt)
    }

    /// The one admit-and-enqueue routine of ingest and of the
    /// `Scheduler` facade. Every arrival is booked as offered on the
    /// engine page — accepted or refused — and every refusal with its
    /// cause, so the pages close the conservation identity
    /// `offered == departures + refusals + drops`.
    fn admit(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let page = self.tele.as_deref().map(TelemetryHub::engine);
        if let Some(page) = page {
            page.record_offered(1);
        }
        let res = self
            .tree
            .try_enqueue_within(now, pkt, self.cfg.ring_capacity);
        if let (Some(page), Err(e)) = (page, &res) {
            page.record_refusal(match e {
                SchedError::UnknownFlow(_) => RefuseCause::UnknownFlow,
                SchedError::BufferFull(_) => RefuseCause::BufferFull,
                _ => RefuseCause::Other,
            });
        }
        res
    }

    /// No-op, kept for callers of the ingest / pump / drain API: since
    /// [`Engine::try_ingest`] schedules each packet as it accepts it,
    /// there is nothing left to pump. Always `Ok(())`.
    pub fn pump(&mut self, _now: SimTime) -> Result<(), SchedError> {
        Ok(())
    }

    /// Drain up to `max` packets at `now` into `out`: the tree's batch
    /// loop ([`HierSfq::drain`]), which lets the root pick the
    /// backlogged shard with the least start tag, pulls up to
    /// [`EngineConfig::batch`] packets from it and charges the root
    /// with the bits pulled. A drain that leaves the engine empty ends
    /// the root's busy period. Returns the number drained.
    pub fn drain(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, SchedError> {
        let n = self.tree.drain(now, max, self.cfg.batch, out)?;
        // Nothing is in service: the walk is the root's alone.
        self.tree.on_departure(now);
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

    /// [`Engine::try_ingest`] stamped at `now`: the same admission,
    /// refusals and booking.
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.admit(now, pkt)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        match self.try_dequeue(now) {
            Ok(p) => p,
            Err(e) => panic!("sfq-engine: {e}"),
        }
    }

    /// A drain of one packet: it departs at once, so `on_departure`
    /// is the trait's no-op.
    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        let pkt = self.tree.try_dequeue(now)?;
        self.tree.on_departure(now);
        Ok(pkt)
    }

    // The batch methods are deliberately NOT overridden: the engine's
    // amortized path is the native `drain`, which charges the root
    // per *batch* — a coarser root granularity than the per-packet
    // facade, so overriding `dequeue_batch` with it would break the
    // trait's bit-identity contract (and the switch drives per-packet
    // transmissions anyway). The trait defaults delegate to
    // `enqueue`/`dequeue` above, which are identical by construction.

    fn is_empty(&self) -> bool {
        Engine::is_empty(self)
    }

    fn len(&self) -> usize {
        self.pending()
    }

    /// The home scheduler's own count: every accepted, undrained
    /// packet of `flow`.
    fn backlog(&self, flow: FlowId) -> usize {
        self.tree.backlog(flow)
    }

    /// Discard `flow`'s backlog on its home shard, then unregister the
    /// flow and subtract its rate from the shard's aggregate (the churn
    /// fault). Returns the number of packets discarded — every packet
    /// of the flow ingest accepted and no drain took; `0` for an
    /// unknown flow.
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some((_, weight)) = self.tree.route(flow) else {
            return 0;
        };
        let dropped = self.tree.force_remove_flow(flow);
        if self.tree.route(flow).is_none() {
            self.reweigh(flow, weight.as_bps(), 0);
        }
        dropped
    }

    /// Evict the oldest packet of `flow` from its home shard (the
    /// HeadDrop/pressure eviction hook).
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        self.tree.drop_head(flow)
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
                if self.tree.route(flow).is_none() {
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
