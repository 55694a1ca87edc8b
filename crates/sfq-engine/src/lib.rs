//! Sharded, batch-oriented SFQ scheduling engine.
//!
//! A single [`sfq_core::Sfq`] instance is a sequential data structure:
//! every enqueue reads the virtual time and every dequeue updates it, so
//! a multi-queue line card cannot simply call one scheduler from many
//! ingress threads. This crate scales the discipline out the way the
//! paper itself suggests: hierarchically (Section 4). Flows are
//! hash-partitioned across `N` independent `Sfq` shards, each fed by a
//! bounded single-producer/single-consumer ring, and a cross-shard
//! drainer allocates link capacity among the shards with a top-level
//! SFQ node ([`RootSfq`]) whose "packets" are the batches it pulls from
//! each shard. Because SFQ guarantees fairness on any Fluctuation
//! Constrained server and itself *provides* an FC server to each class
//! (Theorem 10), the composition inherits a two-level fairness bound:
//! within a shard the per-flow Theorem 1 bound, across shards the root
//! bound with batch-sized "packets". `docs/engine.md` states the
//! composed inequality and the tests in `tests/engine_fairness.rs`
//! measure it.
//!
//! That composition is one machine — [`Engine`], the coordinator: the
//! flow table, the root arbiter, the pending-count backpressure rule
//! and the pick → pull-batch → charge drain loop — generic over a
//! [`ShardLink`], the one thing that differs between deployments: how
//! a coordinator command reaches a shard's scheduler.
//!
//! * [`SyncEngine`] = `Engine<`[`Inline`]`<S>>` — every shard run in
//!   place on the calling thread, statically dispatched. Doubles as the
//!   differential oracle for the threaded mode and as a drop-in
//!   [`sfq_core::Scheduler`] so `netsim`'s switch can run a sharded
//!   port (see `netsim::engine_port`).
//! * [`ThreadedEngine`] = `Engine<`[`Worker`]`>` — one worker thread
//!   per shard behind a command channel, supervised. Commands that
//!   consume the ring carry explicit packet counts, which pins the
//!   exact set of packets each worker consumes per command; given the
//!   same API call sequence its departures are byte-identical to
//!   `SyncEngine`'s under any OS interleaving. The conformance `engine`
//!   preset replays seeded call sequences against both and diffs them.

#![warn(missing_docs)]

mod engine;
mod inline;
pub mod ring;
pub mod root;
mod worker;

pub use engine::{Engine, LinkError, ShardLink};
pub use inline::Inline;
pub use ring::{spsc, SpscConsumer, SpscProducer};
pub use root::RootSfq;
pub use worker::{RecoveryStats, Worker};

/// Deterministic single-threaded sharded engine, generic over the leaf
/// discipline `S` running in each shard (exact-rational [`Sfq`] by
/// default; [`SyncEngine::new_fast`] swaps in the fixed-point
/// [`sfq_core::SfqFast`]). The root arbiter is exact-rational for every
/// `S`. See [`Inline`].
pub type SyncEngine<S = Sfq> = Engine<Inline<S>>;

/// Multi-threaded sharded engine: same API, one worker thread per
/// shard. See [`Worker`]'s module docs for the determinism protocol and
/// the supervision state machine.
pub type ThreadedEngine = Engine<Worker>;

use sfq_core::obs::SchedObserver;
use sfq_core::{FlowId, Scheduler, Sfq, TagArith, TagSched, TelemetrySink, VtRule};

/// A scheduling discipline that can serve as an engine shard: the full
/// [`sfq_core::Scheduler`] contract plus opt-in virtual-time rebasing,
/// which both links wire to [`EngineConfig::rebase_bits`] at
/// construction time.
///
/// The root arbiter stays exact-rational regardless of the shard type —
/// it charges batch-sized "packets" at a far lower rate than the leaf
/// schedulers stamp tags, so it is never the bottleneck the fixed-point
/// fast path exists to remove.
pub trait ShardSched: Scheduler {
    /// Enable periodic virtual-time rebasing once tag magnitudes exceed
    /// `threshold_bits`. Fixed-point shards clamp the threshold to
    /// their u64 envelope (`sfq_core::MAX_REBASE_BITS`), so the exact
    /// schedulers' default of 96 bits is safe to pass to any shard.
    fn enable_rebasing(&mut self, threshold_bits: u32);

    /// The shard will never hold more than `packets` packets (the
    /// engine's refusal rule bounds it by [`EngineConfig::ring_capacity`]):
    /// a discipline may allocate its packet store for a deep backlog
    /// now, at construction, rather than in the middle of the first
    /// burst. Both links call this once per shard; the default does
    /// nothing.
    fn preallocate(&mut self, _packets: usize) {}

    /// Attach a telemetry counter page: every later enqueue, dequeue,
    /// head drop, and forced removal is recorded on `sink` with plain
    /// single-writer stores (see the `sfq-telemetry` crate and
    /// `docs/telemetry.md`). [`Engine::attach_telemetry`] calls this
    /// through each link so each shard writes its own page.
    fn attach_telemetry(&mut self, sink: TelemetrySink);
}

impl<A: TagArith, V: VtRule, O: SchedObserver> ShardSched for TagSched<A, V, O> {
    fn enable_rebasing(&mut self, threshold_bits: u32) {
        TagSched::enable_rebasing(self, threshold_bits);
    }

    fn preallocate(&mut self, packets: usize) {
        TagSched::preallocate(self, packets);
    }

    fn attach_telemetry(&mut self, sink: TelemetrySink) {
        TagSched::attach_telemetry(self, sink);
    }
}

// Boxed shards forward the whole contract (the `Scheduler` supertrait
// already forwards through `Box` in sfq-core); this is what lets the
// `Worker` link type-erase heterogeneous shard factories so a
// supervisor can rebuild a worker's scheduler after a crash.
impl<T: ShardSched + ?Sized> ShardSched for Box<T> {
    fn enable_rebasing(&mut self, threshold_bits: u32) {
        (**self).enable_rebasing(threshold_bits);
    }

    fn preallocate(&mut self, packets: usize) {
        (**self).preallocate(packets);
    }

    fn attach_telemetry(&mut self, sink: TelemetrySink) {
        (**self).attach_telemetry(sink);
    }
}

/// What the [`ThreadedEngine`] supervisor does with a shard whose
/// worker thread died (panic or injected fault). Either way the
/// supervisor first salvages the dead shard's ingress-ring residue
/// through the deposited consumer handle, so those packets are never
/// silently lost — only scheduler-resident packets (whose tag state
/// died with the worker) are unrecoverable and counted as drops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Rebuild the shard in place: spawn a fresh worker from the
    /// construction factory, re-register every flow homed on the shard
    /// from the coordinator's authoritative weight table, and re-ingest
    /// the salvaged ring residue. The default.
    Restart,
    /// Leave the shard down and degrade per the given mode.
    Degrade(DegradedMode),
}

/// Degraded operation for a dead shard when restarts are disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedMode {
    /// Re-home the dead shard's flows onto the surviving shards
    /// (deterministic rehash over the alive set), moving their weights
    /// in the root arbiter and re-ingesting the salvaged ring residue
    /// at the new homes. Flows keep flowing at the cost of fresh tag
    /// state.
    Redistribute,
    /// Park the dead shard's flows: every later ingest or
    /// reconfiguration of a parked flow is refused with
    /// [`sfq_core::SchedError::ShardDown`], and the salvaged ring
    /// residue is counted as dropped. Nothing moves between shards, so
    /// surviving flows keep their exact schedule.
    Park,
}

/// Construction parameters of an [`Engine`], whatever its link.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of scheduler shards (and, for [`ThreadedEngine`], worker
    /// threads). Must be at least 1.
    pub shards: usize,
    /// Preferred batch size: how many packets the drainer pulls from
    /// the shard it selects before re-running root selection, and the
    /// maximum root "packet" size in the cross-shard fairness bound.
    pub batch: usize,
    /// Capacity of each shard's ingress ring; a full ring refuses the
    /// packet with `SchedError::BufferFull` (backpressure, not loss —
    /// the caller decides whether to drop).
    pub ring_capacity: usize,
    /// When `Some(bits)`, enable virtual-time rebasing on every shard
    /// scheduler and on the root node once tag magnitudes exceed
    /// `bits` (see `docs/robustness.md`).
    pub rebase_bits: Option<u32>,
    /// What the supervisor does when a shard's link goes down:
    /// consulted only when a link can go down ([`Worker`]).
    pub recovery: RecoveryPolicy,
}

impl EngineConfig {
    /// Config with `shards` shards and the defaults used throughout the
    /// test-suite: batch 32, ring capacity 4096, rebasing at 96 bits.
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards,
            batch: 32,
            ring_capacity: 4096,
            rebase_bits: Some(96),
            recovery: RecoveryPolicy::Restart,
        }
    }

    /// Replace the drain batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Replace the per-shard ingress ring capacity.
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }

    /// Replace the rebase threshold (`None` disables rebasing).
    pub fn rebase_bits(mut self, bits: Option<u32>) -> Self {
        self.rebase_bits = bits;
        self
    }

    /// Replace the shard-failure recovery policy.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    fn validated(self) -> Self {
        assert!(self.shards >= 1, "sfq-engine: need at least one shard");
        assert!(self.batch >= 1, "sfq-engine: batch size must be >= 1");
        assert!(
            self.ring_capacity >= 1,
            "sfq-engine: ring capacity must be >= 1"
        );
        self
    }
}

/// Shard index owning `flow` in an engine with `shards` shards.
///
/// SplitMix64 over the flow id: adjacent flow ids land on unrelated
/// shards, and the mapping is a pure function shared by the
/// coordinator, the conformance harness, and the fairness tests.
pub fn shard_of(flow: FlowId, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut z = (flow.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=8 {
            for id in 0..256u32 {
                let s = shard_of(FlowId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(FlowId(id), shards));
            }
        }
    }

    #[test]
    fn shard_of_spreads_flows() {
        let shards = 4;
        let mut counts = [0usize; 4];
        for id in 0..1024u32 {
            counts[shard_of(FlowId(id), shards)] += 1;
        }
        for &c in &counts {
            assert!(c > 128, "degenerate shard distribution: {counts:?}");
        }
    }
}
