//! The engine coordinator: one flow table, one root arbiter, one
//! backpressure rule and one pick → pull-batch → charge loop, generic
//! over the one decision that differs between deployments — *how a
//! coordinator command reaches a shard's scheduler, and whether that
//! can fail* ([`ShardLink`]).
//!
//! # Backpressure determinism
//!
//! Ingest refuses a packet (`SchedError::BufferFull`) when the shard's
//! *pending* count — packets ingested but not yet drained, wherever
//! they physically sit — has reached `ring_capacity`. The physical ring
//! occupancy never exceeds the pending count (a drained packet was
//! necessarily consumed from the ring first), so under this rule a
//! `push` can never find the ring full, and — crucially — refusals
//! depend only on the API call sequence, never on how far a worker
//! thread happens to have progressed. The count lives here, not in a
//! link, so refusal counts are part of the differential contract
//! between links. Size `ring_capacity` as "maximum un-drained backlog
//! per shard".

use crate::ring::SpscProducer;
use crate::root::RootSfq;
use crate::worker::RecoveryStats;
use crate::{shard_of, DegradedMode, EngineConfig, RecoveryPolicy};
use sfq_core::{FlowId, FlowMap, Packet, ReconfigCmd, SchedError, Scheduler, TelemetrySink};
use sfq_telemetry::{RefuseCause, TelemetryHub};
use simtime::{Rate, SimTime};
use std::sync::Arc;

/// Why a [`ShardLink`] call did not produce its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The far end is gone (its worker died). Nothing was applied; the
    /// coordinator answers by calling [`ShardLink::recover`].
    Down,
    /// The shard's scheduler refused the operation.
    Sched(SchedError),
}

impl From<SchedError> for LinkError {
    fn from(e: SchedError) -> Self {
        LinkError::Sched(e)
    }
}

/// How the coordinator reaches one shard's scheduler. The coordinator
/// owns the producer end of the shard's ingress ring and every count
/// the refusal rule reads; the link owns the scheduler and the
/// consumer end, wherever they live.
///
/// Two rules make a link's departures a pure function of the call
/// sequence, and any new link must keep them:
///
/// 1. **Count-bounded consumption.** `pump`, `drain_into` and
///    `force_remove` move into the scheduler exactly the packets the
///    coordinator reported through [`ShardLink::pushed`] before the
///    call — never one pushed later, however threads interleave.
/// 2. **Synchronous drains.** `drain_into` returns the batch itself, so
///    the coordinator charges the root with the actual bits before it
///    picks again.
///
/// **Enqueue errors.** Once a flow is registered only `TagOverflow` can
/// refuse its packets. Such an error never panics: it poisons the
/// shard — the ring is still consumed, nothing more is enqueued — and
/// every later `drain_into` of that shard reports it, which the
/// coordinator's `drain` passes up. A link that pumps in place also
/// returns it from the `pump` that hit it.
///
/// **Link down.** Only the calls that wait for an answer
/// (`set_weight`, `drain_into`, `force_remove`, `drop_head`) can find
/// the link down; the fire-and-forget ones are rebuilt from
/// coordinator state when [`ShardLink::recover`] runs.
pub trait ShardLink: Sized {
    /// [`Scheduler::name`] of an engine over this link.
    const NAME: &'static str;

    /// Register `flow` (or update its rate, queued tags untouched).
    fn add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError>;

    /// Live weight change under the leaf tag-rewrite rule.
    fn set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), LinkError>;

    /// The coordinator pushed one packet of `flow` onto this shard's
    /// ring. Called once per accepted ingest, so it must stay trivial.
    fn pushed(&mut self, flow: FlowId);

    /// Move the ring residue into the scheduler as one batch, stamping
    /// tags against the shard's current virtual time. `scratch` is the
    /// coordinator's batch buffer, lent to a link that pumps in place.
    fn pump(&mut self, now: SimTime, scratch: &mut Vec<Packet>) -> Result<(), SchedError>;

    /// Move in whatever was reported since the last pump — the
    /// coordinator pumps before it drains, so only residue a recovery
    /// re-pushed — then append up to `max` departures to `out`; returns
    /// how many.
    fn drain_into(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, LinkError>;

    /// The single forced-removal rule: fold the ring residue into the
    /// scheduler, *then* discard `flow`'s backlog and unregister it, so
    /// the returned count covers every packet of the flow ingest ever
    /// accepted and no residue of an unregistered flow is left behind
    /// to fail a later pump. Ring order is preserved and virtual time
    /// cannot have moved since the last dequeue, so the other flows'
    /// tags are what a lazy pump would have stamped.
    fn force_remove(&mut self, flow: FlowId) -> Result<usize, LinkError>;

    /// Evict `flow`'s oldest scheduler-resident packet; ring residue is
    /// never evicted.
    fn drop_head(&mut self, flow: FlowId) -> Result<Option<Packet>, LinkError>;

    /// Packets of `flow` the link can vouch for without a round trip:
    /// exact whenever the ring has been pumped, which the `Scheduler`
    /// facade's eager pump guarantees.
    fn backlog(&self, flow: FlowId) -> usize;

    /// Record every later scheduler event of this shard on `sink`.
    fn attach_telemetry(&mut self, sink: TelemetrySink);

    /// `true` once the link was left down by a degraded recovery.
    fn is_down(&self) -> bool {
        false
    }

    /// The coordinator's reaction to [`LinkError::Down`] from shard
    /// `shard`. Links that cannot go down keep the default.
    fn recover(_engine: &mut Engine<Self>, _shard: usize) {
        unreachable!("{} links never report down", Self::NAME)
    }
}

/// One shard as the coordinator sees it.
pub(crate) struct Shard<L> {
    pub(crate) link: L,
    pub(crate) prod: SpscProducer<Packet>,
    /// Packets ingested but not yet drained, discarded or lost: ring
    /// residue plus scheduler backlog at every synchronous point.
    pub(crate) pending: usize,
    /// Packets pushed since [`Engine::pump`] last visited this shard:
    /// zero means the ring holds nothing a pump could move. Only
    /// [`Shard::push`] raises it and only the pump clears it, so a
    /// drain or a forced removal that folded the residue first leaves
    /// it stale-high, which costs the next pump one empty visit.
    unpumped: usize,
}

impl<L: ShardLink> Shard<L> {
    /// A shard with nothing pending, over `link` and the producer end
    /// of its ring.
    pub(crate) fn new(link: L, prod: SpscProducer<Packet>) -> Self {
        Shard {
            link,
            prod,
            pending: 0,
            unpumped: 0,
        }
    }

    /// Push one accepted packet; the caller has checked `pending`.
    pub(crate) fn push(&mut self, pkt: Packet) {
        let flow = pkt.flow;
        self.prod
            .push(pkt)
            .unwrap_or_else(|_| unreachable!("pending < capacity implies ring has room"));
        self.pending += 1;
        self.unpumped += 1;
        self.link.pushed(flow);
    }
}

/// What the coordinator knows about a registered flow: one lookup
/// answers both "is it registered" and "where does it live".
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowRec {
    pub(crate) weight: Rate,
    /// Current home shard: [`shard_of`] until a degraded-mode
    /// redistribution re-homes the flow.
    pub(crate) home: usize,
}

/// Sharded SFQ engine over shard links of type `L`. [`SyncEngine`]
/// (`Engine<Inline<S>>`) runs every shard in place on the calling
/// thread; [`ThreadedEngine`] (`Engine<Worker>`) runs one worker thread
/// per shard. Given the same API call sequence their departures,
/// refusals and discard counts are identical. See the module docs and
/// `docs/engine.md`.
///
/// [`SyncEngine`]: crate::SyncEngine
/// [`ThreadedEngine`]: crate::ThreadedEngine
pub struct Engine<L: ShardLink> {
    pub(crate) cfg: EngineConfig,
    pub(crate) shards: Vec<Shard<L>>,
    pub(crate) root: RootSfq,
    pub(crate) flows: FlowMap<FlowRec>,
    pub(crate) stats: RecoveryStats,
    backlogged: Vec<bool>,
    /// Batch buffer for [`Engine::pump`], shared by all shards.
    scratch: Vec<Packet>,
    /// Counter pages: shard page `i` written by shard `i`'s scheduler,
    /// engine page written here (offered / refusals / recovery ledger).
    /// `None` until [`Engine::attach_telemetry`]. Pages survive shard
    /// rebuilds — the supervisor bumps the page generation instead of
    /// replacing the page, so restart recovery never double-counts.
    pub(crate) tele: Option<Arc<TelemetryHub>>,
    /// Scratch for the single-packet `Scheduler` facade.
    one: Vec<Packet>,
}

impl<L: ShardLink> Engine<L> {
    /// Coordinator over `cfg.shards` links, link `i` and the producer
    /// end of its ring built by `link(i)`.
    pub(crate) fn assemble(
        cfg: EngineConfig,
        mut link: impl FnMut(usize) -> (L, SpscProducer<Packet>),
    ) -> Self {
        let cfg = cfg.validated();
        let shards = (0..cfg.shards).map(|i| {
            let (link, prod) = link(i);
            Shard::new(link, prod)
        });
        Engine {
            cfg,
            shards: shards.collect(),
            root: RootSfq::new(cfg.shards, cfg.rebase_bits),
            flows: FlowMap::new(),
            stats: RecoveryStats::default(),
            backlogged: vec![false; cfg.shards],
            scratch: Vec::new(),
            tele: None,
            one: Vec::new(),
        }
    }

    /// Allocate one [`sfq_telemetry::StatPage`] per shard plus an
    /// engine page, attach each shard page to its live scheduler, and
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
            if !shard.link.is_down() {
                shard.link.attach_telemetry(hub.shard(i).clone());
            }
        }
        self.tele = Some(Arc::clone(&hub));
        hub
    }

    /// The telemetry hub, if [`Engine::attach_telemetry`] ran.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.tele.as_ref()
    }

    /// Number of shards (a shard left down by a degraded policy still
    /// counts).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Drain batch size.
    pub fn batch(&self) -> usize {
        self.cfg.batch
    }

    /// Shard owning `flow` right now: the hash home, unless a
    /// degraded-mode redistribution re-homed it.
    pub fn shard_of(&self, flow: FlowId) -> usize {
        self.flows
            .get(flow)
            .map_or_else(|| shard_of(flow, self.shards.len()), |rec| rec.home)
    }

    /// `true` when `shard`'s link went down under a degraded policy and
    /// was not rebuilt.
    pub fn shard_is_down(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|s| s.link.is_down())
    }

    /// Supervisor ledger: recoveries handled, packets salvaged, packets
    /// lost. All zero on a link that cannot go down.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Root arbiter state, for tests and diagnostics.
    pub fn root(&self) -> &RootSfq {
        &self.root
    }

    /// Total packets pending across all shards (rings plus queues).
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
    /// A new flow whose hash home is down is re-homed (redistribute) or
    /// refused with [`SchedError::ShardDown`] (park).
    pub fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        let (home, old) = match self.flows.get(flow) {
            Some(rec) => (rec.home, rec.weight.as_bps()),
            None => (self.initial_home(flow)?, 0),
        };
        let link = &mut self.shards[home].link;
        if link.is_down() {
            return Err(SchedError::ShardDown(flow));
        }
        link.add_flow(flow, weight)?;
        self.flows.insert(flow, FlowRec { weight, home });
        self.root.reweigh(home, old, weight.as_bps());
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
        let (home, ()) = self
            .on_home(flow, |link| link.set_weight(flow, weight))
            .map_err(|e| match e {
                LinkError::Sched(e) => e,
                LinkError::Down => SchedError::ShardDown(flow),
            })?;
        let old = self.flows.insert(flow, FlowRec { weight, home });
        self.root
            .reweigh(home, old.map_or(0, |r| r.weight.as_bps()), weight.as_bps());
        Ok(())
    }

    /// Override shard `shard`'s effective aggregate weight at the root
    /// arbiter, or clear the override with `None` — the
    /// [`ReconfigCmd::SetShardWeight`] command. Pure coordinator state.
    /// See [`RootSfq::set_shard_weight`].
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

    /// Hand `pkt` to its home shard's ingress ring. Refuses with
    /// [`SchedError::UnknownFlow`] for unregistered flows,
    /// [`SchedError::ShardDown`] for flows parked on a dead shard, and
    /// [`SchedError::BufferFull`] when the shard's pending count has
    /// reached the ring capacity (see the module docs on backpressure
    /// determinism). The packet is *not yet scheduled*: tags are
    /// stamped at the next [`Engine::pump`] or drain.
    pub fn try_ingest(&mut self, pkt: Packet) -> Result<(), SchedError> {
        // Every arrival is booked as offered on the engine page —
        // accepted or refused — so the pages close the conservation
        // identity `offered == departures + refusals + drops`.
        if let Some(hub) = &self.tele {
            hub.engine().record_offered(1);
        }
        let (cause, err) = match self.flows.get(pkt.flow) {
            None => (RefuseCause::UnknownFlow, SchedError::UnknownFlow(pkt.flow)),
            Some(rec) => {
                let shard = &mut self.shards[rec.home];
                if shard.link.is_down() {
                    (RefuseCause::ShardDown, SchedError::ShardDown(pkt.flow))
                } else if shard.pending >= self.cfg.ring_capacity {
                    (RefuseCause::BufferFull, SchedError::BufferFull(pkt.flow))
                } else {
                    shard.push(pkt);
                    return Ok(());
                }
            }
        };
        if let Some(hub) = &self.tele {
            hub.engine().record_refusal(cause);
        }
        Err(err)
    }

    /// Move every ring-resident packet into its shard scheduler as one
    /// batch per shard, stamping tags against each shard's current
    /// virtual time. Tags do not depend on `now` (Eq. 4 reads only the
    /// virtual time, which moves at dequeues), so deferring a pump
    /// never changes an ordering decision — only observer timestamps.
    /// A link that runs its shard elsewhere returns without waiting.
    ///
    /// Only shards pushed to since the last pump are visited: the
    /// `Scheduler` facade pumps on every enqueue and again inside every
    /// dequeue, and all but one of those visits would find an empty
    /// ring (or, over a worker link, send a command that moves
    /// nothing).
    pub fn pump(&mut self, now: SimTime) -> Result<(), SchedError> {
        for shard in &mut self.shards {
            if std::mem::take(&mut shard.unpumped) > 0 {
                shard.link.pump(now, &mut self.scratch)?;
            }
        }
        Ok(())
    }

    /// Drain up to `max` packets at `now` into `out`, batch by batch:
    /// pump all rings, then repeatedly let the root arbiter pick the
    /// backlogged shard with the least start tag, pull up to
    /// [`EngineConfig::batch`] packets from it, and charge the root
    /// with the actual bits pulled. Returns the number drained. A link
    /// found down is recovered inline and the loop goes on with the
    /// shards that remain — no global stall.
    pub fn drain(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, SchedError> {
        // The pump is load-bearing for reconfiguration identity: a
        // later `SetWeight` must find the same scheduler-resident
        // packet set on every link, and the tag-rewrite rule treats
        // queued packets (head keeps its tags) differently from ring
        // residue (enqueued wholly at the new rate).
        self.pump(now)?;
        let mut n = 0;
        // Backstop against a shard whose rebuilt link keeps dying
        // (impossible for injected faults, which are one-shot, but a
        // deterministic scheduler bug could re-panic on re-ingest).
        let mut recoveries = 0;
        while n < max {
            for (flag, shard) in self.backlogged.iter_mut().zip(&self.shards) {
                *flag = shard.pending > 0;
            }
            let Some(s) = self.root.pick(&self.backlogged) else {
                break;
            };
            let take = self.cfg.batch.min(max - n);
            let before = out.len();
            let k = match self.shards[s].link.drain_into(now, take, out) {
                Ok(0) => break,
                Ok(k) => k,
                Err(LinkError::Sched(e)) => return Err(e),
                Err(LinkError::Down) => {
                    L::recover(self, s);
                    recoveries += 1;
                    if recoveries > self.shards.len() * 4 {
                        break;
                    }
                    continue;
                }
            };
            let bits: u64 = out[before..].iter().map(|p| p.len.bits()).sum();
            self.root.charge(s, bits)?;
            self.shards[s].pending -= k;
            n += k;
        }
        if self.is_empty() {
            self.root.on_idle();
        }
        Ok(n)
    }

    /// Run `call` on `flow`'s home link; if the link is found down, let
    /// it recover and retry once on the new topology. Returns the home
    /// shard the call succeeded on; `Err(Down)` when both attempts
    /// found the link dead, `Err(Sched(ShardDown))` for a parked flow.
    fn on_home<T>(
        &mut self,
        flow: FlowId,
        mut call: impl FnMut(&mut L) -> Result<T, LinkError>,
    ) -> Result<(usize, T), LinkError> {
        for _attempt in 0..2 {
            let Some(rec) = self.flows.get(flow) else {
                return Err(SchedError::UnknownFlow(flow).into());
            };
            let home = rec.home;
            let link = &mut self.shards[home].link;
            if link.is_down() {
                return Err(SchedError::ShardDown(flow).into());
            }
            match call(link) {
                Ok(v) => return Ok((home, v)),
                Err(LinkError::Down) => L::recover(self, home),
                Err(e) => return Err(e),
            }
        }
        Err(LinkError::Down)
    }

    /// Hash home for a not-yet-registered flow, re-homed when the hash
    /// target is down under a redistributing degraded policy.
    fn initial_home(&self, flow: FlowId) -> Result<usize, SchedError> {
        let s = shard_of(flow, self.shards.len());
        if !self.shards[s].link.is_down() {
            return Ok(s);
        }
        match self.cfg.recovery {
            RecoveryPolicy::Degrade(DegradedMode::Redistribute) => self.rehome(flow),
            _ => Err(SchedError::ShardDown(flow)),
        }
    }

    /// Deterministic re-hash of `flow` over the surviving shards.
    pub(crate) fn rehome(&self, flow: FlowId) -> Result<usize, SchedError> {
        let alive: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].link.is_down())
            .collect();
        if alive.is_empty() {
            return Err(SchedError::UnknownShard(shard_of(flow, self.shards.len())));
        }
        Ok(alive[shard_of(flow, alive.len())])
    }
}

/// The switch-port facade: lets `netsim`'s `SwitchCore` run a port
/// whose scheduled class is a sharded engine over any link. Every
/// method is a deterministic function of the API call sequence
/// (count-bounded pumps, synchronous drains/evictions, coordinator-side
/// refusals), so a threaded port's departures, refusals, and evictions
/// are bit-identical to a sync port's for the same offered load — the
/// property the graph conformance preset checks end to end.
impl<L: ShardLink> Scheduler for Engine<L> {
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
    /// ring and `backlog` stays exact for the switch's admission logic.
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.try_ingest(pkt)?;
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

    fn backlog(&self, flow: FlowId) -> usize {
        self.flows
            .get(flow)
            .map_or(0, |rec| self.shards[rec.home].link.backlog(flow))
    }

    /// Discard `flow`'s backlog on its home shard — ring residue
    /// included, see [`ShardLink::force_remove`] — then unregister the
    /// flow and subtract its rate from the root aggregate (the churn
    /// fault). Returns the number of packets discarded; `0` for an
    /// unknown flow, and for a flow parked on a dead shard, whose
    /// backlog is already in the drop ledger.
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let dropped = match self.on_home(flow, |link| link.force_remove(flow)) {
            Ok((home, n)) => {
                self.shards[home].pending -= n;
                n
            }
            // Parked on a dead shard: just unregister.
            Err(LinkError::Sched(SchedError::ShardDown(_))) => 0,
            // Unknown flow, or its link died under both attempts: the
            // flow stays as it is and nothing was removed.
            Err(_) => return 0,
        };
        if let Some(rec) = self.flows.remove(flow) {
            self.root.reweigh(rec.home, rec.weight.as_bps(), 0);
        }
        dropped
    }

    /// Evict the oldest scheduler-resident packet of `flow` from its
    /// home shard (the HeadDrop/pressure eviction hook).
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let (home, evicted) = self.on_home(flow, |link| link.drop_head(flow)).ok()?;
        self.shards[home].pending -= evicted.is_some() as usize;
        evicted
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
        L::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{spsc, SpscConsumer};
    use sfq_core::PacketFactory;
    use simtime::Bytes;

    /// A link that keeps the ring's consumer end and a log of the
    /// calls that reach it: `(pumps, packets those pumps moved)`.
    struct Tally {
        cons: SpscConsumer<Packet>,
        queued: Vec<Packet>,
        pumps: usize,
    }

    impl ShardLink for Tally {
        const NAME: &'static str = "TALLY";

        fn add_flow(&mut self, _flow: FlowId, _weight: Rate) -> Result<(), SchedError> {
            Ok(())
        }

        fn set_weight(&mut self, _flow: FlowId, _weight: Rate) -> Result<(), LinkError> {
            Ok(())
        }

        fn pushed(&mut self, _flow: FlowId) {}

        fn pump(&mut self, _now: SimTime, _scratch: &mut Vec<Packet>) -> Result<(), SchedError> {
            self.pumps += 1;
            self.queued.extend(std::iter::from_fn(|| self.cons.pop()));
            Ok(())
        }

        fn drain_into(
            &mut self,
            _now: SimTime,
            max: usize,
            out: &mut Vec<Packet>,
        ) -> Result<usize, LinkError> {
            let n = max.min(self.queued.len());
            out.extend(self.queued.drain(..n));
            Ok(n)
        }

        fn force_remove(&mut self, flow: FlowId) -> Result<usize, LinkError> {
            self.queued.extend(std::iter::from_fn(|| self.cons.pop()));
            let before = self.queued.len();
            self.queued.retain(|p| p.flow != flow);
            Ok(before - self.queued.len())
        }

        fn drop_head(&mut self, _flow: FlowId) -> Result<Option<Packet>, LinkError> {
            Ok(None)
        }

        fn backlog(&self, flow: FlowId) -> usize {
            self.queued.iter().filter(|p| p.flow == flow).count()
        }

        fn attach_telemetry(&mut self, _sink: TelemetrySink) {}
    }

    /// The coordinator calls a link's `pump` only when it pushed to
    /// that shard since its last pump — whichever link it is, since the
    /// coordinator is `pump`'s only caller — and a pump it does make
    /// moves everything pushed before it.
    #[test]
    fn a_pump_visits_only_the_shards_pushed_to_since_the_last_one() {
        let cfg = EngineConfig::new(4);
        let mut eng = Engine::assemble(cfg, |_| {
            let (prod, cons) = spsc(cfg.validated().ring_capacity);
            let link = Tally {
                cons,
                queued: Vec::new(),
                pumps: 0,
            };
            (link, prod)
        });
        let pumps = |eng: &Engine<Tally>| -> Vec<usize> {
            eng.shards.iter().map(|s| s.link.pumps).collect()
        };
        let flows: Vec<FlowId> = (0..16).map(FlowId).collect();
        for &f in &flows {
            eng.try_add_flow(f, Rate::kbps(64)).unwrap();
        }
        let t0 = SimTime::ZERO;
        let mut pf = PacketFactory::new();
        let mut make = |f: FlowId| pf.make(f, Bytes::new(100), t0);

        // Nothing pushed: no link is called, by `pump` or by the pump
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
        assert_eq!(eng.shards[home].link.queued.len(), 1);

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
        let before = eng.shards[home].link.pumps;
        assert_eq!(eng.force_remove_flow(flows[1]), 1);
        eng.pump(t0).unwrap();
        eng.pump(t0).unwrap();
        assert_eq!(eng.shards[home].link.pumps, before + 1);
        assert!(eng.is_empty());
    }
}
