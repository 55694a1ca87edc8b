//! The threaded link: one worker thread per shard, determinism by
//! construction, supervised recovery when a worker dies.
//!
//! # Why the departures cannot depend on thread timing
//!
//! Each worker thread owns its shard — the same [`Inline`] struct the
//! sync engine drives in place — and the coordinator (the thread
//! calling the `ThreadedEngine` API) owns every ring producer and is
//! the only command source. Two rules pin the execution:
//!
//! 1. **Count-bounded consumption.** Every `Pump`/`Drain`/`ForceRemove`
//!    command carries `n`: how many packets the coordinator had pushed
//!    to that shard's ring since the last such command. The worker pops
//!    *exactly* `n` packets — never a packet pushed after the command
//!    was sent, no matter how the threads interleave. (The mpsc
//!    send/recv pair orders the ring writes before the worker's reads.)
//! 2. **Synchronous drains.** `Drain` round-trips: the coordinator
//!    blocks for the worker's packet batch, charges the root arbiter
//!    with the actual bits, and only then picks the next shard. The
//!    root's pick/charge sequence is therefore a pure function of the
//!    API call sequence.
//!
//! Since tag stamping inside a shard depends only on the shard's own
//! enqueue/dequeue sequence (Eq. 4 reads the virtual time, which moves
//! only at that shard's dequeues), the departures for a given API call
//! sequence are identical to [`SyncEngine`](crate::SyncEngine)'s — the
//! property `tests/engine_interleaving.rs` and the conformance `engine`
//! preset check differentially. Backpressure refusals are coordinator-
//! side and count-based (see [`Engine`]'s module docs), so they are
//! part of the same deterministic contract.
//!
//! # Shard supervision
//!
//! Every worker loop runs its command steps under `catch_unwind`. When
//! a step panics — a real scheduler bug, or a fault injected with
//! [`ThreadedEngine::inject_worker_panic`] — the dying worker deposits
//! its ring-consumer handle into a salvage slot shared with the
//! coordinator and exits without replying. The coordinator detects the
//! death at its next synchronous round trip with that shard (a failed
//! command send or reply receive: [`LinkError::Down`]), and the
//! supervisor ([`ShardLink::recover`]) runs:
//!
//! 1. **Draining.** Join the dead thread (guaranteeing the deposit has
//!    happened), then pop every packet still in the ingress ring
//!    through the salvaged consumer. These packets were ingested but
//!    never tag-stamped, so they are fully recoverable. Packets that
//!    were already inside the dead worker's scheduler are not — their
//!    tag state died with the thread — and are counted as drops in
//!    [`RecoveryStats`].
//! 2. **Rebuilding** ([`RecoveryPolicy::Restart`], the default): spawn
//!    a fresh worker from the construction factory, re-register every
//!    flow homed on the shard from the coordinator's authoritative flow
//!    table, and re-ingest the salvaged residue in arrival order.
//! 3. **Degraded** ([`RecoveryPolicy::Degrade`]): leave the shard down
//!    and either re-home its flows over the survivors
//!    ([`DegradedMode::Redistribute`]) or park them so later ingests
//!    refuse with [`SchedError::ShardDown`] ([`DegradedMode::Park`]).
//!
//! Throughout, the other shards keep draining — the supervisor runs
//! inline on the coordinator and never blocks on the dead thread beyond
//! the (already-exited) join. Packet conservation is exact:
//! `offered == departures + refusals + RecoveryStats::dropped` at every
//! fully-drained point, the invariant the conformance `chaos` preset
//! replays under seeded kills.

use crate::engine::{Engine, LinkError, Shard, ShardLink};
use crate::inline::Inline;
use crate::ring::{SpscConsumer, SpscProducer};
use crate::{DegradedMode, EngineConfig, RecoveryPolicy, ShardSched, ThreadedEngine};
use sfq_core::{FlowId, FlowMap, Packet, SchedError, Scheduler, Sfq, SfqFast, TelemetrySink};
use simtime::{Rate, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

enum Cmd {
    AddFlow(FlowId, Rate),
    /// Live weight change under the leaf tag-rewrite rule. Synchronous:
    /// replies [`Resp::Reconfigured`] so rewrite errors (tag overflow)
    /// propagate without poisoning the shard.
    SetWeight(FlowId, Rate),
    Pump {
        n: usize,
        now: SimTime,
    },
    Drain {
        n: usize,
        now: SimTime,
        max: usize,
    },
    /// Fold `n` ring packets, then discard the flow's backlog and
    /// unregister it (the churn fault). Synchronous: replies
    /// [`Resp::Removed`].
    ForceRemove {
        n: usize,
        flow: FlowId,
    },
    /// Evict the flow's oldest scheduler-resident packet (the
    /// HeadDrop/pressure eviction hook). Synchronous: replies
    /// [`Resp::Evicted`].
    DropHead(FlowId),
    /// Attach a telemetry counter page to the worker's scheduler.
    /// Asynchronous, like `AddFlow`: the channel FIFO orders it before
    /// any later `Pump`, so every enqueue after the coordinator-side
    /// attach is recorded. (The page itself is shared: the sink is a
    /// clone of the coordinator's hub entry for this shard.)
    AttachTelemetry(TelemetrySink),
    /// Fault injection: panic inside the worker step, exercising the
    /// exact unwind-salvage-recover path a real scheduler bug would.
    Crash,
    Stop,
}

/// Worker → coordinator replies. Each synchronous command has exactly
/// one reply variant; the coordinator matches on it and treats any
/// other variant as a protocol violation (unreachable by construction:
/// one command source, one FIFO channel pair per shard).
enum Resp {
    Drained(Result<Vec<Packet>, SchedError>),
    Removed(usize),
    Evicted(Option<Packet>),
    Reconfigured(Result<(), SchedError>),
}

/// Private panic payload for [`Cmd::Crash`]: the global quiet hook
/// suppresses the default stderr report for exactly this type, so chaos
/// runs do not spray backtraces while real panics stay loud.
struct InjectedFault;

/// Slot through which a dying worker hands its ring consumer back to
/// the coordinator for salvage.
type SalvageSlot = Arc<Mutex<Option<SpscConsumer<Packet>>>>;

/// The shard factory, type-erased and shared by every link of one
/// engine so the supervisor can rebuild any shard after a crash.
type Factory = Arc<Mutex<dyn FnMut(usize) -> Box<dyn ShardSched + Send> + Send>>;

/// The shard a worker thread owns.
type Owned = Inline<Box<dyn ShardSched + Send>>;

/// Install (once, process-wide) a panic hook that silences only
/// [`InjectedFault`] panics and delegates everything else to the
/// previous hook.
fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The worker thread's loop.
fn run(mut shard: Owned, cmds: Receiver<Cmd>, resp: Sender<Resp>, salvage: SalvageSlot) {
    let mut scratch = Vec::new();
    while let Ok(cmd) = cmds.recv() {
        match catch_unwind(AssertUnwindSafe(|| {
            step(&mut shard, &mut scratch, cmd, &resp)
        })) {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                // The worker is dying (injected fault or real
                // scheduler panic). Deposit the ring consumer so
                // the supervisor can salvage in-flight ingress;
                // the scheduler's own state is untrusted mid-panic
                // and dies with the thread. Dropping `resp` (as
                // this frame unwinds out) is the coordinator's
                // detection signal.
                if let Ok(mut slot) = salvage.lock() {
                    *slot = Some(shard.cons);
                }
                drop(payload);
                return;
            }
        }
    }
}

/// Apply one command; `false` ends the worker loop cleanly.
fn step(shard: &mut Owned, scratch: &mut Vec<Packet>, cmd: Cmd, resp: &Sender<Resp>) -> bool {
    match cmd {
        Cmd::AddFlow(flow, weight) => {
            if let Err(e) = shard.sched.try_add_flow(flow, weight) {
                shard.poisoned.get_or_insert(e);
            }
            true
        }
        Cmd::SetWeight(flow, weight) => {
            let res = shard.sched.try_set_weight(flow, weight);
            resp.send(Resp::Reconfigured(res)).is_ok()
        }
        Cmd::Pump { n, now } => {
            // No reply to carry an error: it stays parked for `Drain`.
            let _ = shard.pump_n(n, now, scratch);
            true
        }
        Cmd::Drain { n, now, max } => {
            let _ = shard.pump_n(n, now, scratch);
            let mut pkts = Vec::new();
            let out = shard.take_batch(now, max, &mut pkts).map(|_| pkts);
            resp.send(Resp::Drained(out)).is_ok()
        }
        Cmd::ForceRemove { n, flow } => {
            let dropped = shard.force_remove_n(n, flow);
            resp.send(Resp::Removed(dropped)).is_ok()
        }
        Cmd::DropHead(flow) => {
            let evicted = shard.sched.drop_head(flow);
            resp.send(Resp::Evicted(evicted)).is_ok()
        }
        Cmd::AttachTelemetry(sink) => {
            shard.sched.attach_telemetry(sink);
            true
        }
        Cmd::Crash => std::panic::panic_any(InjectedFault),
        Cmd::Stop => false,
    }
}

/// The coordinator's handle on one shard's worker thread: a command
/// channel, a reply channel, and the counts that answer
/// [`ShardLink::backlog`] and bound the worker's ring consumption
/// without a round trip.
pub struct Worker {
    cmd: Sender<Cmd>,
    resp: Receiver<Resp>,
    /// Packets pushed to the ring since the last consuming command.
    unsent: usize,
    /// Per-flow pending counts (ingested, not yet departed). Every
    /// departure passes through a synchronous round trip, so the counts
    /// are exact at every API boundary without asking the worker — they
    /// back the `&self` [`Scheduler::backlog`] the switch admission
    /// path needs.
    flow_pending: FlowMap<usize>,
    /// Where a dying worker deposits its ring consumer for salvage.
    salvage: SalvageSlot,
    join: Option<JoinHandle<()>>,
    mk: Factory,
    /// Set when a degraded policy left the shard down.
    down: bool,
}

impl Worker {
    /// Spawn shard `index`'s worker: fresh ring, fresh channel pair,
    /// fresh scheduler from the factory. Used at construction and again
    /// by the supervisor when rebuilding a dead shard.
    fn spawn(index: usize, cfg: &EngineConfig, mk: &Factory) -> (Self, SpscProducer<Packet>) {
        let sched = (mk.lock().expect("shard factory panicked earlier"))(index);
        let (shard, prod) = Inline::new(cfg, sched);
        let (cmd, cmd_rx) = channel();
        let (resp_tx, resp) = channel();
        let salvage: SalvageSlot = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&salvage);
        let join = std::thread::Builder::new()
            .name(format!("sfq-engine-shard-{index}"))
            .spawn(move || run(shard, cmd_rx, resp_tx, slot))
            .expect("spawn sfq-engine shard worker");
        let link = Worker {
            cmd,
            resp,
            unsent: 0,
            flow_pending: FlowMap::new(),
            salvage,
            join: Some(join),
            mk: Arc::clone(mk),
            down: false,
        };
        (link, prod)
    }

    /// Fire-and-forget command. A dead worker has dropped its receiver,
    /// so the send simply fails; losing the command is safe because
    /// every async command (`AddFlow`/`Pump`/`AttachTelemetry`/`Crash`)
    /// is reconstructed from coordinator state when the supervisor
    /// recovers the shard at the next synchronous round trip.
    fn send(&self, cmd: Cmd) {
        let _ = self.cmd.send(cmd);
    }

    /// Synchronous command round trip; [`LinkError::Down`] means the
    /// worker died before replying.
    fn roundtrip(&self, cmd: Cmd) -> Result<Resp, LinkError> {
        self.cmd.send(cmd).map_err(|_| LinkError::Down)?;
        self.resp.recv().map_err(|_| LinkError::Down)
    }

    fn departed(&mut self, flow: FlowId) {
        if let Some(c) = self.flow_pending.get_mut(flow) {
            *c -= 1;
        }
    }
}

impl ShardLink for Worker {
    const NAME: &'static str = "SFQ-ENGINE-MT";

    /// Ordered before any later packet of the flow because both travel
    /// through the same per-shard channels.
    fn add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        self.send(Cmd::AddFlow(flow, weight));
        Ok(())
    }

    fn set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), LinkError> {
        match self.roundtrip(Cmd::SetWeight(flow, weight))? {
            Resp::Reconfigured(res) => Ok(res?),
            _ => unreachable!("set-weight reply out of protocol"),
        }
    }

    fn pushed(&mut self, flow: FlowId) {
        self.unsent += 1;
        match self.flow_pending.get_mut(flow) {
            Some(n) => *n += 1,
            None => {
                self.flow_pending.insert(flow, 1);
            }
        }
    }

    /// Asynchronous: returns without waiting.
    fn pump(&mut self, now: SimTime, _scratch: &mut Vec<Packet>) -> Result<(), SchedError> {
        let n = std::mem::take(&mut self.unsent);
        self.send(Cmd::Pump { n, now });
        Ok(())
    }

    fn drain_into(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, LinkError> {
        let n = std::mem::take(&mut self.unsent);
        let pkts = match self.roundtrip(Cmd::Drain { n, now, max })? {
            Resp::Drained(res) => res?,
            _ => unreachable!("drain reply out of protocol"),
        };
        for p in &pkts {
            self.departed(p.flow);
        }
        out.extend_from_slice(&pkts);
        Ok(pkts.len())
    }

    fn force_remove(&mut self, flow: FlowId) -> Result<usize, LinkError> {
        let n = std::mem::take(&mut self.unsent);
        match self.roundtrip(Cmd::ForceRemove { n, flow })? {
            Resp::Removed(dropped) => {
                self.flow_pending.remove(flow);
                Ok(dropped)
            }
            _ => unreachable!("force-remove reply out of protocol"),
        }
    }

    fn drop_head(&mut self, flow: FlowId) -> Result<Option<Packet>, LinkError> {
        match self.roundtrip(Cmd::DropHead(flow))? {
            Resp::Evicted(evicted) => {
                if evicted.is_some() {
                    self.departed(flow);
                }
                Ok(evicted)
            }
            _ => unreachable!("drop-head reply out of protocol"),
        }
    }

    /// The coordinator-side count: ring residue is included.
    fn backlog(&self, flow: FlowId) -> usize {
        self.flow_pending.get(flow).copied().unwrap_or(0)
    }

    fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.send(Cmd::AttachTelemetry(sink));
    }

    fn is_down(&self) -> bool {
        self.down
    }

    /// The supervisor: Running → Draining → Rebuilding/Degraded (see
    /// the module docs and `docs/robustness.md`). Joins the dead
    /// thread, salvages the ingress ring through the deposited
    /// consumer, and applies the recovery policy.
    fn recover(eng: &mut Engine<Self>, s: usize) {
        // Draining. Join first: guarantees the dying worker finished
        // depositing its ring consumer (or dropped it) before the slot
        // is inspected.
        let link = &mut eng.shards[s].link;
        if let Some(join) = link.join.take() {
            let _ = join.join(); // Err carries the panic payload; dropped here
        }
        let slot = match link.salvage.lock() {
            Ok(mut g) => g.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        let salvaged: Vec<Packet> = slot
            .map(|cons| std::iter::from_fn(|| cons.pop()).collect())
            .unwrap_or_default();
        // Per-flow books: scheduler-resident packets died with the
        // worker; only the salvaged residue can still be pending, and
        // it is re-counted as it is re-pushed.
        link.flow_pending = FlowMap::new();
        link.unsent = 0;
        let lost = std::mem::take(&mut eng.shards[s].pending);
        eng.stats.recoveries += 1;
        // The shard's page survives the death (cumulative counters);
        // bumping its generation marks the restart so readers can tell
        // "counted before the crash" from "counted after" without the
        // supervisor ever zeroing — which is what prevents recovery
        // from double-counting. Safe to store from the coordinator:
        // the old writer is joined, the new one not yet spawned.
        if let Some(hub) = &eng.tele {
            hub.shard(s).bump_generation();
        }
        let homed: Vec<(FlowId, Rate)> = eng
            .flows
            .iter()
            .filter(|(_, rec)| rec.home == s)
            .map(|(f, rec)| (f, rec.weight))
            .collect();
        let kept = match eng.cfg.recovery {
            RecoveryPolicy::Restart => rebuild(eng, s, &homed, salvaged),
            RecoveryPolicy::Degrade(mode) => degrade(eng, s, mode, &homed, salvaged),
        };
        eng.stats.recovered += kept as u64;
        eng.stats.dropped += (lost - kept) as u64;
        if let Some(hub) = &eng.tele {
            hub.engine().record_recovered(kept as u64);
            hub.engine().record_recovery_dropped((lost - kept) as u64);
        }
    }
}

/// Rebuilding: fresh worker from the factory, flows re-registered from
/// the authoritative flow table, salvaged residue re-pushed in arrival
/// order. Returns how many salvaged packets were kept (all of them).
fn rebuild(
    eng: &mut Engine<Worker>,
    s: usize,
    homed: &[(FlowId, Rate)],
    salvaged: Vec<Packet>,
) -> usize {
    let (mut link, prod) = Worker::spawn(s, &eng.cfg, &eng.shards[s].link.mk);
    // Hand the fresh worker the *same* page (next generation): the
    // salvaged residue below was never enqueued pre-crash (it sat in
    // the ring), so its re-ingest books each packet exactly once.
    if let Some(hub) = &eng.tele {
        link.attach_telemetry(hub.shard(s).clone());
    }
    for &(flow, weight) in homed {
        link.send(Cmd::AddFlow(flow, weight));
    }
    let shard = &mut eng.shards[s];
    *shard = Shard::new(link, prod);
    let kept = salvaged.len();
    for p in salvaged {
        shard.push(p); // the fresh ring holds the old ring's residue
    }
    kept
}

/// Degraded: the shard stays down; its flows are re-homed over the
/// survivors (redistribute) or parked behind `ShardDown` refusals.
/// Returns how many salvaged packets found a new home.
fn degrade(
    eng: &mut Engine<Worker>,
    s: usize,
    mode: DegradedMode,
    homed: &[(FlowId, Rate)],
    salvaged: Vec<Packet>,
) -> usize {
    eng.shards[s].link.down = true;
    if mode == DegradedMode::Park {
        // Salvaged residue has nowhere to go: the whole pending count
        // is dropped. Flows stay registered (the flow table is the
        // rebuild source if the policy ever changes) but the shard
        // never reports backlog, so the root skips it.
        return 0;
    }
    for &(flow, weight) in homed {
        let Ok(new) = eng.rehome(flow) else {
            continue; // no survivors: flow stays parked
        };
        if let Some(rec) = eng.flows.get_mut(flow) {
            rec.home = new;
        }
        eng.shards[new].link.send(Cmd::AddFlow(flow, weight));
        eng.root.reweigh(s, weight.as_bps(), 0);
        eng.root.reweigh(new, 0, weight.as_bps());
    }
    // Re-ingest the salvaged residue at the new homes, subject to the
    // survivors' ring capacity.
    let mut kept = 0;
    for p in salvaged {
        let Some(shard) = eng.flows.get(p.flow).map(|rec| &mut eng.shards[rec.home]) else {
            continue;
        };
        if !shard.link.down && shard.pending < eng.cfg.ring_capacity {
            shard.push(p);
            kept += 1;
        }
    }
    kept
}

/// Supervisor bookkeeping: worker deaths handled and the packet fate
/// ledger that closes the conservation equation
/// `offered == departures + refusals + dropped`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Worker deaths detected and recovered from (any policy).
    pub recoveries: u64,
    /// Ring-resident packets salvaged from dead shards and re-queued.
    pub recovered: u64,
    /// Packets lost to dead workers: scheduler-resident state, plus
    /// salvaged residue the active policy had to discard.
    pub dropped: u64,
}

/// The shard scheduler type is chosen at construction
/// ([`ThreadedEngine::new`], [`ThreadedEngine::new_fast`], or the
/// general [`ThreadedEngine::from_factory`]) and then erased: each
/// worker thread owns its scheduler boxed, and the links share the
/// factory so the supervisor can rebuild a shard after a crash.
impl ThreadedEngine {
    /// Spawn one worker thread per shard, each running an
    /// exact-rational [`Sfq`].
    pub fn new(cfg: EngineConfig) -> Self {
        Self::from_factory(cfg, |_| Sfq::new())
    }

    /// Spawn one worker thread per shard, each running the fixed-point
    /// [`SfqFast`] fast path at the default tag shift; the root arbiter
    /// stays exact-rational.
    pub fn new_fast(cfg: EngineConfig) -> Self {
        Self::from_factory(cfg, |_| SfqFast::new())
    }

    /// Spawn one worker thread per shard, shard `i`'s scheduler built
    /// by `mk(i)` on the coordinator thread and then moved into the
    /// worker; the config rebase threshold is applied to each. The
    /// factory is retained so the supervisor can rebuild a shard whose
    /// worker died (hence the `Send + 'static` bounds). This is the
    /// one construction path — the named constructors delegate here.
    pub fn from_factory<S>(
        cfg: EngineConfig,
        mut mk: impl FnMut(usize) -> S + Send + 'static,
    ) -> Self
    where
        S: ShardSched + Send + 'static,
    {
        let mk: Factory = Arc::new(Mutex::new(move |i| {
            Box::new(mk(i)) as Box<dyn ShardSched + Send>
        }));
        Engine::assemble(cfg, |i| Worker::spawn(i, &cfg, &mk))
    }

    /// Inject a panic into `shard`'s worker (the chaos-conformance
    /// fault hook): the worker panics inside its command step on the
    /// next command it processes, exercising the exact unwind → salvage
    /// → supervise path a real scheduler bug would. The death is
    /// detected — and recovery runs — at the coordinator's next
    /// synchronous round trip with the shard. Errors with
    /// [`SchedError::UnknownShard`] for an out-of-range or
    /// already-dead shard.
    pub fn inject_worker_panic(&mut self, shard: usize) -> Result<(), SchedError> {
        match self.shards.get(shard) {
            Some(s) if !s.link.down => {
                install_quiet_panic_hook();
                s.link.send(Cmd::Crash);
                Ok(())
            }
            _ => Err(SchedError::UnknownShard(shard)),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A send to a dead worker fails harmlessly (its receiver is
        // gone), and joining an exited thread returns immediately —
        // with the panic payload as `Err`, which is dropped, so the
        // coordinator never re-panics on shutdown.
        self.send(Cmd::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::PacketFactory;
    use simtime::Bytes;

    /// A pump with nothing pushed sends no command: every worker's
    /// command channel is swapped for one the test reads, and after the
    /// flow registrations the only traffic on them is one `Pump` to the
    /// shard that was pushed to.
    #[test]
    fn an_idle_pump_sends_no_command() {
        let mut eng = ThreadedEngine::new(EngineConfig::new(4));
        let taps: Vec<Receiver<Cmd>> = eng
            .shards
            .iter_mut()
            .map(|s| {
                // The worker sees its channel close and exits; `Drop`
                // joins it.
                let (tx, rx) = channel();
                s.link.cmd = tx;
                rx
            })
            .collect();
        let flow = FlowId(7);
        eng.try_add_flow(flow, Rate::kbps(64)).unwrap();
        let home = eng.shard_of(flow);
        assert!(matches!(taps[home].try_recv(), Ok(Cmd::AddFlow(..))));

        let t0 = SimTime::ZERO;
        eng.pump(t0).unwrap();
        assert!(taps.iter().all(|rx| rx.try_recv().is_err()));

        let pkt = PacketFactory::new().make(flow, Bytes::new(100), t0);
        eng.try_ingest(pkt).unwrap();
        eng.pump(t0).unwrap();
        eng.pump(t0).unwrap();
        assert!(matches!(taps[home].try_recv(), Ok(Cmd::Pump { n: 1, .. })));
        assert!(taps.iter().all(|rx| rx.try_recv().is_err()));
    }
}
