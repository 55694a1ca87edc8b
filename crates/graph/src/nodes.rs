//! Concrete forwarding nodes: classification, token-bucket policing,
//! and transmit sinks. Scheduler ports live in [`crate::port`].

use crate::arena::PktArena;
use crate::node::{GraphNode, OutPort};
use sfq_core::{FlowId, FlowMap, PktRef, ReturnQueue};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use std::sync::Arc;

/// Flow-id → out-port classification (the paper's per-flow path
/// binding). Packets of unrouted flows with no default route are
/// freed and counted — the graph analogue of an unknown-destination
/// drop.
pub struct Classifier {
    routes: FlowMap<usize>,
    default: Option<usize>,
    unrouted: u64,
}

impl Classifier {
    /// Classifier with no routes and no default.
    pub fn new() -> Self {
        Classifier {
            routes: FlowMap::new(),
            default: None,
            unrouted: 0,
        }
    }

    /// Route `flow` to local out-port `port`.
    pub fn route(&mut self, flow: FlowId, port: usize) {
        self.routes.insert(flow, port);
    }

    /// Out-port for flows with no explicit route.
    pub fn set_default(&mut self, port: usize) {
        self.default = Some(port);
    }

    /// Packets freed for lack of a route.
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }

    /// Every out-port some route or the default names, for the
    /// executor's construction-time wiring check.
    pub(crate) fn out_ports(&self) -> impl Iterator<Item = usize> + '_ {
        self.routes.iter().map(|(_, &p)| p).chain(self.default)
    }
}

impl Default for Classifier {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphNode for Classifier {
    fn dispatch(
        &mut self,
        _now: SimTime,
        arena: &mut PktArena,
        pkts: &[PktRef],
        out: &mut Vec<(OutPort, PktRef)>,
    ) {
        for &h in pkts {
            let flow = arena.get(h).flow;
            match self.routes.get(flow).copied().or(self.default) {
                Some(p) => out.push((OutPort(p), h)),
                None => {
                    arena.free(h);
                    self.unrouted += 1;
                }
            }
        }
    }

    fn kind(&self) -> &'static str {
        "classify"
    }
}

/// A `(σ, ρ)` token-bucket contract for one flow: burst `sigma` bytes
/// on top of sustained rate `rho` — exactly the regulator Corollary 1
/// assumes at the network entrance.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    /// Burst allowance σ in bytes.
    pub sigma: Bytes,
    /// Sustained rate ρ.
    pub rho: Rate,
}

/// Ingress policer enforcing per-flow [`TokenBucket`] contracts with
/// the exact GCRA (virtual-scheduling) formulation: a packet of length
/// `l` arriving at `t` conforms iff `t ≥ TAT − σ/ρ`, and on
/// conformance `TAT ← max(TAT, t) + l/ρ`. All arithmetic is exact
/// rational time ([`Rate::tx_time`]), so conformance decisions are
/// deterministic and driver-independent. Non-conforming packets are
/// freed and counted; flows without a contract pass through untouched.
/// Conforming traffic leaves on out-port 0.
pub struct Policer {
    contracts: FlowMap<Contract>,
    total_dropped: u64,
}

/// One flow's contract and its running state, together so that a
/// packet costs one lookup.
struct Contract {
    rho: Rate,
    /// τ = σ/ρ, the burst tolerance, computed when the contract is set.
    tau: SimDuration,
    /// Theoretical arrival time of the flow's next conforming packet.
    tat: SimTime,
    dropped: u64,
}

impl Policer {
    /// Policer with no contracts (everything conforms).
    pub fn new() -> Self {
        Policer {
            contracts: FlowMap::new(),
            total_dropped: 0,
        }
    }

    /// Enforce `bucket` on `flow`. Re-contracting a flow changes its
    /// rate and tolerance and keeps its TAT and drop count.
    pub fn contract(&mut self, flow: FlowId, bucket: TokenBucket) {
        let (rho, tau) = (bucket.rho, bucket.rho.tx_time(bucket.sigma));
        match self.contracts.get_mut(flow) {
            Some(c) => (c.rho, c.tau) = (rho, tau),
            None => {
                let fresh = Contract {
                    rho,
                    tau,
                    tat: SimTime::ZERO,
                    dropped: 0,
                };
                self.contracts.insert(flow, fresh);
            }
        }
    }

    /// Non-conforming packets dropped for `flow`.
    pub fn dropped(&self, flow: FlowId) -> u64 {
        self.contracts.get(flow).map_or(0, |c| c.dropped)
    }

    /// Non-conforming packets dropped across all flows.
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }
}

impl Default for Policer {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphNode for Policer {
    fn dispatch(
        &mut self,
        now: SimTime,
        arena: &mut PktArena,
        pkts: &[PktRef],
        out: &mut Vec<(OutPort, PktRef)>,
    ) {
        for &h in pkts {
            let pkt = *arena.get(h);
            let Some(c) = self.contracts.get_mut(pkt.flow) else {
                out.push((OutPort(0), h));
                continue;
            };
            // Conform iff now ≥ TAT − τ with τ = σ/ρ, rearranged to
            // avoid negative times: TAT ≤ now + τ. A flow whose TAT
            // has passed conforms whatever τ is.
            let idle = c.tat <= now;
            if idle || c.tat <= now + c.tau {
                let from = if idle { now } else { c.tat };
                c.tat = from + c.rho.tx_time(pkt.len);
                out.push((OutPort(0), h));
            } else {
                arena.free(h);
                c.dropped += 1;
                self.total_dropped += 1;
            }
        }
    }

    fn kind(&self) -> &'static str {
        "police"
    }
}

/// One transmitted packet as a sink saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Departure {
    /// Packet uid.
    pub uid: u64,
    /// Owning flow.
    pub flow: FlowId,
    /// Packet length.
    pub len: Bytes,
    /// Time the packet reached the sink (== last-hop transmission
    /// completion when the final wire has zero delay).
    pub at: SimTime,
}

/// Terminal transmit sink: records the departure and frees the slot
/// through the arena's cross-thread [`ReturnQueue`] lane — the path a
/// NIC completion ring would use — rather than a synchronous free, so
/// graph runs exercise the pool's foreign-free accounting end to end.
pub struct TxSink {
    lane: Arc<ReturnQueue>,
    departures: Vec<Departure>,
}

impl TxSink {
    /// Sink freeing into `lane` (use [`PktArena::lane`]).
    pub fn new(lane: Arc<ReturnQueue>) -> Self {
        TxSink {
            lane,
            departures: Vec::new(),
        }
    }

    /// Everything transmitted so far, in service order.
    pub fn departures(&self) -> &[Departure] {
        &self.departures
    }

    /// Re-point the sink at another return lane. The executor calls
    /// this at graph construction so every sink frees into the graph
    /// arena's lane, whatever placeholder it was built with.
    pub(crate) fn set_lane(&mut self, lane: Arc<ReturnQueue>) {
        self.lane = lane;
    }
}

impl GraphNode for TxSink {
    fn dispatch(
        &mut self,
        now: SimTime,
        arena: &mut PktArena,
        pkts: &[PktRef],
        _out: &mut Vec<(OutPort, PktRef)>,
    ) {
        for &h in pkts {
            let pkt = *arena.get(h);
            self.departures.push(Departure {
                uid: pkt.uid,
                flow: pkt.flow,
                len: pkt.len,
                at: now,
            });
            self.lane.give(h);
        }
    }

    fn kind(&self) -> &'static str {
        "sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::PacketFactory;

    #[test]
    fn classifier_routes_and_counts_unrouted() {
        let mut arena = PktArena::new();
        let mut pf = PacketFactory::new();
        let mut c = Classifier::new();
        c.route(FlowId(1), 2);
        let a = arena
            .try_alloc(pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO))
            .unwrap();
        let b = arena
            .try_alloc(pf.make(FlowId(9), Bytes::new(100), SimTime::ZERO))
            .unwrap();
        let mut out = Vec::new();
        c.dispatch(SimTime::ZERO, &mut arena, &[a, b], &mut out);
        assert_eq!(out, vec![(OutPort(2), a)]);
        assert_eq!(c.unrouted(), 1);
        assert!(arena.audit().balanced());
    }

    #[test]
    fn gcra_admits_burst_then_enforces_rate() {
        // σ = 2 packets of 125 B, ρ = 1000 bps → one 125 B packet
        // (1000 bits) per second sustained; τ = 2 s.
        let mut arena = PktArena::new();
        let mut pf = PacketFactory::new();
        let mut p = Policer::new();
        p.contract(
            FlowId(1),
            TokenBucket {
                sigma: Bytes::new(250),
                rho: Rate::bps(1_000),
            },
        );
        let mut out = Vec::new();
        let mut send_at =
            |p: &mut Policer, arena: &mut PktArena, pf: &mut PacketFactory, t: SimTime| {
                let h = arena
                    .try_alloc(pf.make(FlowId(1), Bytes::new(125), t))
                    .unwrap();
                out.clear();
                p.dispatch(t, arena, &[h], &mut out);
                !out.is_empty()
            };
        let t0 = SimTime::ZERO;
        // Back-to-back burst: exactly ⌊σ/l⌋ + (pipeline slack) conform.
        assert!(send_at(&mut p, &mut arena, &mut pf, t0));
        assert!(send_at(&mut p, &mut arena, &mut pf, t0));
        assert!(send_at(&mut p, &mut arena, &mut pf, t0)); // TAT = 2s ≤ 0 + τ(2s)
        assert!(!send_at(&mut p, &mut arena, &mut pf, t0)); // TAT = 3s > 2s
        assert_eq!(p.dropped(FlowId(1)), 1);
        // At the sustained rate the flow conforms forever.
        for k in 1..=5 {
            let t = t0 + SimDuration::from_millis(1_000 * k);
            assert!(
                send_at(&mut p, &mut arena, &mut pf, t),
                "conforming packet {k} dropped"
            );
        }
        assert_eq!(p.total_dropped(), 1);
        assert!(arena.audit().balanced());
    }
}
