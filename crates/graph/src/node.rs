//! The graph node contract.
//!
//! A forwarding graph is a statically wired DAG of nodes, each
//! processing one *batch* of pooled packet handles per invocation and
//! emitting `(out-port, handle)` pairs for the executor to route along
//! the node's wires — the R2-style per-node dispatch-vector shape. The
//! contract every node upholds:
//!
//! - **Every input handle is either emitted exactly once or freed back
//!   into the arena.** A handle that is neither is a slot leak; one
//!   emitted twice is a double spend. The pool-accounting suite
//!   catches both through [`ArenaAudit::balanced`](crate::ArenaAudit).
//! - **Dispatch is deterministic**: output order is a pure function of
//!   input order and node state. The executor's determinism rests on
//!   it (see `docs/graph.md`).
//! - **Emissions preserve batch locality**: the executor keeps pairs
//!   emitted to the same out-port in one downstream batch, so a burst
//!   stays a burst across a wire.
//!
//! Scheduler ports and transmit sinks implement the same trait but
//! emit nothing from `dispatch`: a port's output leaves via timed
//! transmission-done events (the executor drives its `SwitchCore`),
//! and a sink is terminal by definition.

use crate::arena::PktArena;
use sfq_core::PktRef;
use simtime::SimTime;

/// A node's local output port index; the executor maps it to a wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutPort(pub usize);

/// One node of the forwarding graph. See the module docs for the
/// dispatch contract.
pub trait GraphNode {
    /// Process the batch `pkts` arriving at `now`, pushing
    /// `(out-port, handle)` emissions onto `out` in service order.
    fn dispatch(
        &mut self,
        now: SimTime,
        arena: &mut PktArena,
        pkts: &[PktRef],
        out: &mut Vec<(OutPort, PktRef)>,
    );

    /// Short node-kind label for diagnostics.
    fn kind(&self) -> &'static str;
}
