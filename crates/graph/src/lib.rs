//! # graph — run-to-completion forwarding graph, the one executor
//!
//! Turns the single-port `netsim` switch into a multi-port router and
//! is the only event loop that drives more than one of them: a
//! statically wired DAG of [`GraphNode`]s — classification
//! ([`Classifier`]), token-bucket regulation ([`Policer`]), scheduler
//! ports ([`PortNode`]: a `SwitchCore` over any [`sfq_core::Scheduler`],
//! including the sharded `sfq-engine`), and transmit sinks
//! ([`TxSink`]) — executed run-to-completion per ingress batch by the
//! deterministic [`Graph`] executor, with pooled packets
//! ([`PktArena`]: slab slots, each freed in place by the node that
//! ends its packet) handed node-to-node without copies.
//!
//! Every topology of the reproduction is a [`GraphSpec`]: the paper's
//! Figure 1 bottleneck (strict-priority VBR via
//! [`Graph::add_priority_source`], TCP Reno feedback via
//! [`Graph::add_tcp_source`]), the Section 2.4 tandem
//! ([`GraphSpec::chain`]) and routed meshes with MTU fragmentation
//! ([`GraphSpec::routed`], [`PortSpec::mtu`]), plus the scenario
//! classes the paper only gestures at: asymmetric fan-in incast
//! ([`GraphSpec::incast`]), port-to-port traffic matrices
//! ([`GraphSpec::matrix`]), and multi-hop paths that share
//! intermediate ports with cross traffic.
//! Every execution step is ordered, so a run is a deterministic
//! function of (topology, sources, churns): two builds of one spec
//! give the same departures, refusals, and drop books — the property
//! the conformance `graph` preset and `tests/graph_*.rs` check,
//! alongside live Theorem 6 / Corollary 1 delay-bound checks across
//! every multi-hop path. See `docs/graph.md`.

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod exec;
mod node;
mod nodes;
mod port;
pub mod topo;

pub use arena::{ArenaAudit, PktArena};
pub use exec::{Edge, Graph, GraphReport, Hops, NodeKind, Transit};
pub use node::{GraphNode, OutPort};
pub use nodes::{Classifier, Departure, Policer, TokenBucket, TxSink};
pub use port::PortNode;
pub use topo::{GraphSpec, NodeSpec, PortKind, PortSpec};
