//! The in-place link: a shard scheduler and the consumer end of its
//! ingress ring, driven by direct, statically dispatched calls.
//!
//! [`SyncEngine`] — the coordinator over `Inline` links — runs the full
//! sharded layout on one thread. It exists for three reasons:
//!
//! 1. **Oracle.** Its departures define the expected output of
//!    [`ThreadedEngine`](crate::ThreadedEngine) for the same API call
//!    sequence; the conformance `engine` preset diffs the two.
//! 2. **Switch port.** It implements [`Scheduler`](sfq_core::Scheduler),
//!    so `netsim`'s `SwitchCore` can run a sharded port unchanged
//!    (`netsim::engine_port`).
//! 3. **Measurement.** Deterministic single-thread execution is what
//!    the fairness tests instrument with `sfq-obs` observers (no `Send`
//!    bound, so `Rc<RefCell<_>>` observers work).
//!
//! The same struct is what a [`Worker`](crate::Worker) thread owns and
//! drives on the far side of its channel, so both links stamp, fold and
//! discard with one piece of code.

use crate::engine::{Engine, LinkError, ShardLink};
use crate::ring::{spsc, SpscConsumer, SpscProducer};
use crate::{EngineConfig, ShardSched, SyncEngine};
use sfq_core::obs::SchedObserver;
use sfq_core::{FlowId, NoopObserver, Packet, SchedError, Sfq, SfqFast, TelemetrySink};
use simtime::{Rate, SimTime};

/// A shard run in place: scheduler `S` plus the consumer end of the
/// shard's ingress ring. Never down.
pub struct Inline<S> {
    pub(crate) sched: S,
    pub(crate) cons: SpscConsumer<Packet>,
    /// First enqueue error; see [`ShardLink`] on poisoning.
    pub(crate) poisoned: Option<SchedError>,
}

impl<S: ShardSched> Inline<S> {
    /// A shard around `sched` (rebasing enabled per `cfg`, packet store
    /// preallocated) with a fresh ring; returns the producer end for
    /// the coordinator.
    pub(crate) fn new(cfg: &EngineConfig, mut sched: S) -> (Self, SpscProducer<Packet>) {
        if let Some(bits) = cfg.rebase_bits {
            sched.enable_rebasing(bits);
        }
        sched.preallocate(cfg.ring_capacity);
        let (prod, cons) = spsc(cfg.ring_capacity);
        let shard = Inline {
            sched,
            cons,
            poisoned: None,
        };
        (shard, prod)
    }

    /// [`ShardLink::pump`] bounded to the next `limit` ring packets,
    /// batched through `scratch`. Returns the enqueue error, if any,
    /// that this very call hit.
    pub(crate) fn pump_n(
        &mut self,
        limit: usize,
        now: SimTime,
        scratch: &mut Vec<Packet>,
    ) -> Result<(), SchedError> {
        scratch.clear();
        scratch.extend(std::iter::from_fn(|| self.cons.pop()).take(limit));
        if self.poisoned.is_some() {
            return Ok(());
        }
        let res = self.sched.try_enqueue_batch(now, scratch);
        self.poisoned = res.err();
        res
    }

    /// Append up to `max` departures to `out`, or report the error the
    /// shard is poisoned with.
    pub(crate) fn take_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, SchedError> {
        match self.poisoned {
            Some(e) => Err(e),
            None => Ok(self.sched.dequeue_batch(now, max, out)),
        }
    }

    /// [`ShardLink::force_remove`] folding the next `limit` ring
    /// packets, each enqueued at its own arrival instant.
    pub(crate) fn force_remove_n(&mut self, limit: usize, flow: FlowId) -> usize {
        for pkt in std::iter::from_fn(|| self.cons.pop()).take(limit) {
            if self.poisoned.is_none() {
                self.poisoned = self.sched.try_enqueue(pkt.arrival, pkt).err();
            }
        }
        self.sched.force_remove_flow(flow)
    }
}

impl<S: ShardSched> ShardLink for Inline<S> {
    const NAME: &'static str = "SFQ-ENGINE";

    fn add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        self.sched.try_add_flow(flow, weight)
    }

    fn set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), LinkError> {
        Ok(self.sched.try_set_weight(flow, weight)?)
    }

    #[inline]
    fn pushed(&mut self, _flow: FlowId) {}

    fn pump(&mut self, now: SimTime, scratch: &mut Vec<Packet>) -> Result<(), SchedError> {
        self.pump_n(usize::MAX, now, scratch)
    }

    /// Nothing to move in: only a recovery re-pushes behind the
    /// coordinator's pump, and this link never recovers.
    fn drain_into(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, LinkError> {
        Ok(self.take_batch(now, max, out)?)
    }

    fn force_remove(&mut self, flow: FlowId) -> Result<usize, LinkError> {
        Ok(self.force_remove_n(usize::MAX, flow))
    }

    fn drop_head(&mut self, flow: FlowId) -> Result<Option<Packet>, LinkError> {
        Ok(self.sched.drop_head(flow))
    }

    /// The scheduler's own count: ring residue is not included.
    fn backlog(&self, flow: FlowId) -> usize {
        self.sched.backlog(flow)
    }

    fn attach_telemetry(&mut self, sink: TelemetrySink) {
        self.sched.attach_telemetry(sink);
    }
}

impl SyncEngine<Sfq> {
    /// Engine with exact-rational shards and no observers attached.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_observer(cfg, NoopObserver)
    }
}

impl SyncEngine<SfqFast> {
    /// Engine whose shards run the fixed-point [`SfqFast`] fast path at
    /// the default tag shift; the root arbiter stays exact-rational.
    pub fn new_fast(cfg: EngineConfig) -> Self {
        Self::from_factory(cfg, |_| SfqFast::new())
    }
}

impl<O: SchedObserver + Clone> SyncEngine<Sfq<O>> {
    /// Engine whose every shard scheduler carries a clone of `obs`.
    /// Pass an `Rc<RefCell<...>>` observer to aggregate events from all
    /// shards into one sink (as the fairness tests do with
    /// `sfq_obs::FlowMetrics`).
    pub fn with_observer(cfg: EngineConfig, obs: O) -> Self {
        Self::from_factory(cfg, |_| Sfq::with_observer(Default::default(), obs.clone()))
    }
}

impl<S: ShardSched> SyncEngine<S> {
    /// Engine whose shard scheduler `i` is built by `mk(i)`; the config
    /// rebase threshold is then applied to each. This is the one
    /// construction path — the named constructors all delegate here.
    pub fn from_factory(cfg: EngineConfig, mut mk: impl FnMut(usize) -> S) -> Self {
        Engine::assemble(cfg, |i| Inline::new(&cfg, mk(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{PacketFactory, Scheduler};
    use simtime::Bytes;

    /// The poisoned-shard path keeps the page's books closed: a pump
    /// whose batch is refused half-way has queued — and booked — the
    /// packets before the refusal, and nothing after it.
    #[test]
    fn a_poisoned_pump_books_what_it_queued() {
        let (mut shard, ring) = Inline::new(&EngineConfig::new(1), SfqFast::new());
        let sink = TelemetrySink::new();
        ShardLink::attach_telemetry(&mut shard, sink.clone());
        shard.add_flow(FlowId(1), Rate::kbps(64)).unwrap();
        // At 1 bit/s a 1 TiB packet spans past the u64 tag grid.
        shard.add_flow(FlowId(2), Rate::bps(1)).unwrap();
        let t0 = SimTime::ZERO;
        let mut fac = PacketFactory::new();
        let mut pkts: Vec<Packet> = (0..9)
            .map(|_| fac.make(FlowId(1), Bytes::new(500), t0))
            .collect();
        pkts.insert(5, fac.make(FlowId(2), Bytes::new(1 << 40), t0));
        for p in pkts {
            ring.push(p).unwrap();
        }
        let mut scratch = Vec::new();
        assert_eq!(
            shard.pump_n(usize::MAX, t0, &mut scratch),
            Err(SchedError::TagOverflow)
        );
        ring.push(fac.make(FlowId(1), Bytes::new(500), t0)).unwrap();
        assert_eq!(shard.pump_n(usize::MAX, t0, &mut scratch), Ok(()));
        assert!(ring.is_empty(), "a poisoned shard still consumes its ring");

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
