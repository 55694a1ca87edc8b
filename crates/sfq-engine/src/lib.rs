//! Sharded, batch-oriented SFQ scheduling engine.
//!
//! A single [`sfq_core::Sfq`] instance is a sequential data structure:
//! every enqueue reads the virtual time and every dequeue updates it.
//! This crate scales the discipline out the way the paper itself
//! suggests: hierarchically (Section 4). Flows are hash-partitioned
//! across `N` independent leaf schedulers (*shards*), each holding at
//! most a bounded backlog, and a drainer allocates link capacity among
//! the shards with a top-level SFQ node ([`RootSfq`], the class-level
//! server `sfq_core::HierSfq` runs at every interior class) whose
//! "packets" are the batches it pulls from each shard. Because SFQ guarantees
//! fairness on any Fluctuation Constrained server and itself *provides*
//! an FC server to each class (Theorem 10), the composition inherits a
//! two-level fairness bound: within a shard the per-flow Theorem 1
//! bound, across shards the root bound with batch-sized "packets".
//! `docs/engine.md` states the composed inequality and the tests in
//! `tests/engine_fairness.rs` measure it.
//!
//! That composition is one type, [`Engine`]`<S>` (also spelled
//! [`SyncEngine`]): a depth-1 [`sfq_core::HierSfq`] — flow table, root
//! server, pick → pull-batch → charge drain loop — whose scheduler
//! classes are shards of leaf discipline `S`, plus the backlog-bound
//! backpressure rule, every one run in place on the calling thread and
//! statically dispatched. It is a drop-in
//! [`sfq_core::Scheduler`], so `netsim`'s switch can run a sharded port
//! (`graph::PortKind::EngineSync`), and carries no `Send` bound, so
//! `Rc<RefCell<_>>` observers work. Nothing in it crosses a thread: to
//! use more cores, run one engine per thread over a partition of the
//! flows (`examples/engine_per_thread.rs`) — fairness is then per
//! engine — and watch them all from one more thread through their
//! counter pages ([`Engine::attach_telemetry`]).

// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod engine;
pub mod ring;

pub use engine::Engine;
pub use ring::{spsc, SpscConsumer, SpscProducer};
pub use sfq_core::RootSfq;

/// [`Engine`] under the name it has always been built by, with the
/// exact-rational [`Sfq`] as the default leaf discipline.
pub type SyncEngine<S = Sfq> = Engine<S>;

use sfq_core::obs::SchedObserver;
use sfq_core::{FlowId, Scheduler, Sfq, TagArith, TagSched, TelemetrySink, VtRule};

/// A scheduling discipline that can serve as an engine shard: the full
/// [`sfq_core::Scheduler`] contract plus opt-in virtual-time rebasing,
/// which the engine turns on at [`REBASE_BITS`] at construction time.
///
/// The root arbiter is exact (up to the same picosecond snap as `Sfq`)
/// regardless of the shard type — it charges batch-sized "packets" at a
/// far lower rate than the leaf schedulers stamp tags, so it is never
/// the bottleneck the fixed-point fast path exists to remove.
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
    /// burst, and size it to a shallow one. Called once per shard; the
    /// default does nothing.
    fn preallocate(&mut self, _packets: usize) {}

    /// Attach a telemetry counter page: every later enqueue, dequeue,
    /// head drop, and forced removal is recorded on `sink` with plain
    /// single-writer stores (see the `sfq-telemetry` crate and
    /// `docs/telemetry.md`). [`Engine::attach_telemetry`] calls this
    /// on each shard so each writes its own page.
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

/// Construction parameters of an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of scheduler shards. Must be at least 1.
    pub shards: usize,
    /// Preferred batch size: how many packets the drainer pulls from
    /// the shard it selects before re-running root selection, and the
    /// maximum root "packet" size in the cross-shard fairness bound.
    pub batch: usize,
    /// Bound on each shard's un-drained backlog: an ingest that finds
    /// it reached is refused with `SchedError::BufferFull`
    /// (backpressure, not loss). The name is that of the ingress ring
    /// the bound once sized; the engine passes it to each shard's
    /// [`ShardSched::preallocate`] and reserves nothing else by it.
    pub ring_capacity: usize,
}

/// Every engine rebases virtual time, on every shard scheduler and on
/// the root node, once tag magnitudes exceed this many bits (see
/// `docs/robustness.md`): far from the exact arithmetic's 127-bit edge,
/// and clamped by fixed-point shards to their own envelope.
pub const REBASE_BITS: u32 = 96;

impl EngineConfig {
    /// Config with `shards` shards and the defaults used throughout the
    /// test-suite: batch 32, backlog bound 4096.
    pub fn new(shards: usize) -> Self {
        EngineConfig {
            shards,
            batch: 32,
            ring_capacity: 4096,
        }
    }

    /// Replace the drain batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Replace the per-shard backlog bound (see
    /// [`EngineConfig::ring_capacity`]).
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
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
/// shards, and the mapping is a pure function shared by the engine,
/// the conformance harness, and the fairness tests.
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
