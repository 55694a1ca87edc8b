//! Topology builders and the traffic-matrix DSL.
//!
//! A [`GraphSpec`] is a declarative node/wire description that can be
//! built any number of times — with bare-`Sfq` oracle ports, with
//! engine ports — which is what makes two runs comparable: both graphs
//! see byte-identical topologies and scripts, so any difference is the
//! port scheduler's, not a wiring artifact.
//!
//! Four canonical shapes cover the paper's network-level experiments
//! and the scenario classes it only gestures at:
//!
//! - [`GraphSpec::incast`] — N ingress classifiers fanning into one
//!   scheduler port (the asymmetric fan-in incast scenario);
//! - [`GraphSpec::matrix`] — N ingress classifiers routing a flow →
//!   egress-port traffic matrix over M ports, one sink each;
//! - [`GraphSpec::routed`] — one port plus one exit classifier per
//!   link and a per-flow route across them: the Figure 1 bottleneck
//!   (one link), the parking lot, any mesh of crossing paths;
//! - [`GraphSpec::chain`] — the Section 2.4 tandem as a routed spec:
//!   K ports in sequence with per-flow entry/exit hops and propagation
//!   delay between hops, shared intermediate ports with genuine fan-in.

use crate::exec::{Edge, Graph, NodeKind};
use crate::nodes::{Classifier, Policer, TokenBucket, TxSink};
use crate::port::PortNode;
use netsim::DropPolicy;
use servers::RateProfile;
use sfq_core::{FlowId, Scheduler, Sfq, SfqFast};
use sfq_engine::{EngineConfig, SyncEngine};
use simtime::{Bytes, Rate, SimDuration};

/// Which scheduler runs inside every port of a built graph.
#[derive(Clone, Copy, Debug)]
pub enum PortKind {
    /// Bare exact-rational [`Sfq`].
    Sfq,
    /// Bare fixed-point [`SfqFast`].
    SfqFast,
    /// Sharded [`SyncEngine`] over exact-rational shards.
    EngineSync(EngineConfig),
}

impl PortKind {
    fn build(self) -> Box<dyn Scheduler> {
        match self {
            PortKind::Sfq => Box::new(Sfq::new()),
            PortKind::SfqFast => Box::new(SfqFast::new()),
            PortKind::EngineSync(cfg) => Box::new(SyncEngine::new(cfg)),
        }
    }
}

/// One scheduler port's declarative configuration.
#[derive(Clone, Debug)]
pub struct PortSpec {
    /// Output link rate profile.
    pub link: RateProfile,
    /// Per-flow buffer cap (`None` = unbounded).
    pub per_flow_cap: Option<usize>,
    /// Shared buffer cap across the scheduled class.
    pub shared_cap: Option<usize>,
    /// Overflow response.
    pub policy: DropPolicy,
    /// Scheduled flows and their weights.
    pub flows: Vec<(FlowId, Rate)>,
    /// Maximum transmission unit: a larger packet is split into
    /// MTU-sized fragments on entry to this port and reassembled
    /// before sink delivery (`None` = never fragment). Section 2.4
    /// notes the end-to-end analysis survives fragmentation.
    pub mtu: Option<Bytes>,
}

impl PortSpec {
    /// Uncapped tail-drop port over `link` scheduling `flows`.
    pub fn new(link: RateProfile, flows: Vec<(FlowId, Rate)>) -> Self {
        PortSpec {
            link,
            per_flow_cap: None,
            shared_cap: None,
            policy: DropPolicy::TailDrop,
            flows,
            mtu: None,
        }
    }
}

/// A node in declarative form.
#[derive(Clone, Debug)]
pub enum NodeSpec {
    /// Classifier: explicit `(flow, out-port)` routes plus an optional
    /// default out-port.
    Classify {
        /// Explicit per-flow routes.
        routes: Vec<(FlowId, usize)>,
        /// Fallback out-port for unlisted flows.
        default: Option<usize>,
    },
    /// Ingress policer with per-flow token-bucket contracts.
    Police(Vec<(FlowId, TokenBucket)>),
    /// Scheduler port.
    Port(PortSpec),
    /// Terminal transmit sink.
    Sink,
}

/// Declarative graph: nodes plus `wires[n][p]` = node `n`'s out-port
/// `p`. Build into an executable [`Graph`] with [`GraphSpec::build`].
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// The nodes, index == node id.
    pub nodes: Vec<NodeSpec>,
    /// Out-port wire table, outer index == node id.
    pub wires: Vec<Vec<Edge>>,
}

impl GraphSpec {
    /// Node indices of every port, in node order.
    pub fn ports(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, NodeSpec::Port(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Node indices of every sink, in node order.
    pub fn sinks(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, NodeSpec::Sink))
            .map(|(i, _)| i)
            .collect()
    }

    /// Materialize the spec with every port running `kind`.
    pub fn build(&self, kind: PortKind) -> Graph {
        self.build_with(&mut |_ordinal| kind.build())
    }

    /// Materialize over a caller-configured arena (e.g. slot-capped via
    /// [`crate::PktArena::with_limit`]), every port running `kind`.
    pub fn build_pooled(&self, kind: PortKind, arena: crate::PktArena) -> Graph {
        let nodes = self.make_nodes(&mut |_ordinal| kind.build());
        Graph::with_arena(nodes, self.wires.clone(), arena)
    }

    /// Materialize with a custom scheduler per port: `mk` receives the
    /// port's ordinal (0-based, in node order) — the hook the
    /// conformance layer uses to attach observers.
    pub fn build_with(&self, mk: &mut dyn FnMut(usize) -> Box<dyn Scheduler>) -> Graph {
        let nodes = self.make_nodes(mk);
        Graph::new(nodes, self.wires.clone())
    }

    fn make_nodes(&self, mk: &mut dyn FnMut(usize) -> Box<dyn Scheduler>) -> Vec<NodeKind> {
        let mut ordinal = 0usize;
        self.nodes
            .iter()
            .map(|spec| match spec {
                NodeSpec::Classify { routes, default } => {
                    let mut c = Classifier::new();
                    for &(flow, port) in routes {
                        c.route(flow, port);
                    }
                    if let Some(p) = default {
                        c.set_default(*p);
                    }
                    NodeKind::Classify(c)
                }
                NodeSpec::Police(rules) => {
                    let mut p = Policer::new();
                    for &(flow, tb) in rules {
                        p.contract(flow, tb);
                    }
                    NodeKind::Police(p)
                }
                NodeSpec::Port(ps) => {
                    let sched = mk(ordinal);
                    ordinal += 1;
                    let mut port = PortNode::new(
                        sched,
                        ps.link.clone(),
                        ps.per_flow_cap,
                        ps.shared_cap,
                        ps.policy,
                    );
                    for &(flow, weight) in &ps.flows {
                        port.add_flow(flow, weight);
                    }
                    assert!(ps.mtu != Some(Bytes::ZERO), "MTU must be positive");
                    port.mtu = ps.mtu;
                    NodeKind::Port(Box::new(port))
                }
                NodeSpec::Sink => NodeKind::Sink(TxSink::new()),
            })
            .collect()
    }

    /// Incast fan-in: `fan_in` ingress classifiers all routing into one
    /// scheduler `port`, which transmits into a single sink. Layout:
    /// nodes `0..fan_in` are the ingress classifiers (inject here),
    /// `fan_in` is the port, `fan_in + 1` the sink.
    pub fn incast(fan_in: usize, port: PortSpec) -> GraphSpec {
        assert!(fan_in >= 1);
        let port_node = fan_in;
        let sink_node = fan_in + 1;
        let mut nodes = Vec::with_capacity(fan_in + 2);
        let mut wires = Vec::with_capacity(fan_in + 2);
        for _ in 0..fan_in {
            nodes.push(NodeSpec::Classify {
                routes: Vec::new(),
                default: Some(0),
            });
            wires.push(vec![Edge {
                to: port_node,
                prop: SimDuration::ZERO,
            }]);
        }
        nodes.push(NodeSpec::Port(port));
        wires.push(vec![Edge {
            to: sink_node,
            prop: SimDuration::ZERO,
        }]);
        nodes.push(NodeSpec::Sink);
        wires.push(Vec::new());
        GraphSpec { nodes, wires }
    }

    /// Port-to-port traffic matrix: `ingresses` classifiers route each
    /// flow to its egress port per `routes` (`(flow, egress ordinal)`),
    /// over `ports.len()` scheduler ports with one sink each. Layout:
    /// nodes `0..ingresses` are classifiers (inject here), then port
    /// `j` at `ingresses + j`, then sink `j` at
    /// `ingresses + ports.len() + j`.
    pub fn matrix(
        ingresses: usize,
        ports: Vec<PortSpec>,
        routes: Vec<(FlowId, usize)>,
    ) -> GraphSpec {
        assert!(ingresses >= 1 && !ports.is_empty());
        let m = ports.len();
        let port_base = ingresses;
        let sink_base = ingresses + m;
        let mut nodes = Vec::new();
        let mut wires = Vec::new();
        for _ in 0..ingresses {
            nodes.push(NodeSpec::Classify {
                routes: routes.clone(),
                default: None,
            });
            // Classifier out-port j wires to egress port j.
            wires.push(
                (0..m)
                    .map(|j| Edge {
                        to: port_base + j,
                        prop: SimDuration::ZERO,
                    })
                    .collect(),
            );
        }
        for (j, ps) in ports.into_iter().enumerate() {
            nodes.push(NodeSpec::Port(ps));
            wires.push(vec![Edge {
                to: sink_base + j,
                prop: SimDuration::ZERO,
            }]);
        }
        for _ in 0..m {
            nodes.push(NodeSpec::Sink);
            wires.push(Vec::new());
        }
        GraphSpec { nodes, wires }
    }

    /// Routed topology: one scheduler port per link, each followed by
    /// an exit classifier holding the per-flow next hop, and one shared
    /// sink. `links[l]` is the port plus the propagation delay of every
    /// wire leaving it; `routes` lists, per flow, the links it crosses
    /// in order (no link twice). Layout: port `l` at node `l`, exit
    /// classifier `E_l` at node `k + l` (`k = links.len()`), sink at
    /// node `2k`. `P_l → E_l` is a zero-delay wire; `E_l` sends a flow
    /// whose route ends at `l` to the sink (out-port 0) and every
    /// other to its next link's port (out-ports 1.. in order of first
    /// use), both across `links[l].1`. Inject a flow at its first
    /// link's node index (or at a policer added with
    /// [`GraphSpec::add_policer`]); a flow may also enter mid-route.
    pub fn routed(
        links: Vec<(PortSpec, SimDuration)>,
        routes: &[(FlowId, Vec<usize>)],
    ) -> GraphSpec {
        let k = links.len();
        assert!(k >= 1, "a routed graph needs at least one link");
        let sink_node = 2 * k;
        let mut nodes = Vec::with_capacity(2 * k + 1);
        let mut wires = Vec::with_capacity(2 * k + 1);
        let mut exits = Vec::with_capacity(k);
        for (l, (ps, prop)) in links.into_iter().enumerate() {
            nodes.push(NodeSpec::Port(ps));
            wires.push(vec![Edge {
                to: k + l,
                prop: SimDuration::ZERO,
            }]);
            exits.push((
                Vec::new(),
                vec![Edge {
                    to: sink_node,
                    prop,
                }],
            ));
        }
        for (flow, route) in routes {
            assert!(!route.is_empty(), "route needs at least one link");
            assert!(
                route.iter().all(|&l| l < k),
                "route references unknown link"
            );
            for (i, &l) in route.iter().enumerate() {
                let (table, out): &mut (Vec<(FlowId, usize)>, Vec<Edge>) = &mut exits[l];
                assert!(
                    table.iter().all(|&(f, _)| f != *flow),
                    "flow {flow} crosses link {l} twice"
                );
                let out_port = match route.get(i + 1) {
                    None => 0,
                    Some(&next) => out.iter().position(|e| e.to == next).unwrap_or_else(|| {
                        let prop = out[0].prop;
                        out.push(Edge { to: next, prop });
                        out.len() - 1
                    }),
                };
                table.push((*flow, out_port));
            }
        }
        for (routes, out) in exits {
            nodes.push(NodeSpec::Classify {
                routes,
                default: None,
            });
            wires.push(out);
        }
        nodes.push(NodeSpec::Sink);
        wires.push(Vec::new());
        GraphSpec { nodes, wires }
    }

    /// Multi-hop chain with shared intermediate ports — the Section 2.4
    /// tandem: [`GraphSpec::routed`] over `hops` in sequence, where a
    /// flow listed in `exits` leaves after hop `exits[flow]` and rides
    /// every hop from wherever it is injected up to that one (inject it
    /// at its entry port's node index). `prop` separates consecutive
    /// hops; the wires into the sink are zero-delay, so a packet's
    /// delivery instant is its last hop's transmission completion —
    /// the departure Theorem 6 bounds.
    pub fn chain(hops: Vec<PortSpec>, exits: &[(FlowId, usize)], prop: SimDuration) -> GraphSpec {
        let k = hops.len();
        let routes: Vec<(FlowId, Vec<usize>)> = exits
            .iter()
            .map(|&(flow, exit)| {
                assert!(
                    exit < k,
                    "invalid path: flow {flow} exits at hop {exit} of {k}"
                );
                (flow, (0..=exit).collect())
            })
            .collect();
        let mut spec = Self::routed(hops.into_iter().map(|ps| (ps, prop)).collect(), &routes);
        for exit in &mut spec.wires[k..2 * k] {
            exit[0].prop = SimDuration::ZERO;
        }
        spec
    }

    /// Append an ingress [`Policer`](crate::Policer) node wired into
    /// `target` with zero delay, returning the new node's index.
    /// Sources whose flows are under contract inject at the returned
    /// node instead of at `target`.
    pub fn add_policer(&mut self, target: usize, rules: Vec<(FlowId, TokenBucket)>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(NodeSpec::Police(rules));
        self.wires.push(vec![Edge {
            to: target,
            prop: SimDuration::ZERO,
        }]);
        idx
    }
}
