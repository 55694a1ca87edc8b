//! Concrete forwarding nodes: classification, token-bucket policing,
//! and transmit sinks. Scheduler ports live in [`crate::port`].

use crate::arena::PktArena;
use crate::node::{GraphNode, OutPort};
use sfq_core::{FlowId, FlowMap, PktRef};
use simtime::{Bytes, Rate, SimTime};

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
/// conformance `TAT ← max(TAT, t) + l/ρ`. All arithmetic is exact, so
/// conformance decisions are deterministic and driver-independent.
/// Non-conforming packets are freed and counted; flows without a
/// contract pass through untouched. Conforming traffic leaves on
/// out-port 0.
///
/// A TAT is a [`SimTime`] on the lattice of `ρ`, seated at the instant
/// the flow last went from idle to busy: a busy flow's update is an
/// integer add and both tests are cross-multiplications with the clock,
/// with no gcd on any branch (docs/graph.md, "What a packet costs").
pub struct Policer {
    contracts: FlowMap<Contract>,
    total_dropped: u64,
}

/// One flow's contract and its running state, together so that a
/// packet costs one lookup.
struct Contract {
    rho: Rate,
    /// σ in bits: stepping back by it takes TAT to `TAT − σ/ρ`.
    sigma_bits: i128,
    /// Theoretical arrival time of the flow's next conforming packet.
    tat: SimTime,
    dropped: u64,
}

impl Contract {
    /// The TAT after a packet of `len` arriving at `now`, if it
    /// conforms: iff `now ≥ TAT − σ/ρ`; a flow whose TAT has passed
    /// conforms whatever σ is. Arithmetic that leaves `i128` — no
    /// instant or rate a simulation can hold gets there — reads as
    /// non-conforming: the policer fails closed rather than panic.
    fn admit(&self, now: SimTime, len: Bytes) -> Option<SimTime> {
        let from = if self.tat <= now {
            now
        } else if self.tat.advance(-self.sigma_bits, self.rho)? <= now {
            self.tat
        } else {
            return None;
        };
        from.advance(len.bits() as i128, self.rho)
    }
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
    /// rate and tolerance and keeps its TAT and drop count. Panics on a
    /// zero `rho`, under which nothing would ever conform again.
    pub fn contract(&mut self, flow: FlowId, bucket: TokenBucket) {
        assert!(bucket.rho.as_bps() > 0, "transmission at zero rate");
        let prior = self.contracts.get(flow);
        let tat = prior.map_or(SimTime::ZERO, |c| c.tat);
        let fresh = Contract {
            rho: bucket.rho,
            sigma_bits: bucket.sigma.bits() as i128,
            // Seat the TAT on the new rate's lattice now (a step of
            // nothing), so that no packet pays for the move.
            tat: tat.advance(0, bucket.rho).unwrap_or(tat),
            dropped: prior.map_or(0, |c| c.dropped),
        };
        self.contracts.insert(flow, fresh);
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
            match c.admit(now, pkt.len) {
                Some(tat) => {
                    c.tat = tat;
                    out.push((OutPort(0), h));
                }
                None => {
                    arena.free(h);
                    c.dropped += 1;
                    self.total_dropped += 1;
                }
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

/// Terminal transmit sink: records the departure and frees the slot in
/// place, booked as a sink free ([`PktArena::free_sink`]).
#[derive(Default)]
pub struct TxSink {
    departures: Vec<Departure>,
}

impl TxSink {
    /// Sink with an empty departure log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything transmitted so far, in service order.
    pub fn departures(&self) -> &[Departure] {
        &self.departures
    }

    /// Move the departure log out, leaving it empty: the executor's
    /// report takes it when the run ends.
    pub(crate) fn take_departures(&mut self) -> Vec<Departure> {
        std::mem::take(&mut self.departures)
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
            arena.free_sink(h);
        }
    }

    fn kind(&self) -> &'static str {
        "sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sfq_core::PacketFactory;
    use simtime::{Ratio, SimDuration};

    /// The GCRA as it was while a TAT was a reduced [`SimTime`]: what
    /// [`Policer`] has to stay indistinguishable from.
    struct ReducedGcra {
        rho: Rate,
        tau: SimDuration,
        tat: SimTime,
    }

    impl ReducedGcra {
        fn contract(&mut self, bucket: TokenBucket) {
            (self.rho, self.tau) = (bucket.rho, bucket.rho.tx_time(bucket.sigma));
        }

        fn conforms(&mut self, now: SimTime, len: Bytes) -> bool {
            let idle = self.tat <= now;
            let conforms = idle || self.tat <= now + self.tau;
            if conforms {
                let from = if idle { now } else { self.tat };
                self.tat = from + self.rho.tx_time(len);
            }
            conforms
        }
    }

    /// A link rate with no factor in common with a nanosecond.
    const LINK_BPS: i128 = 45_511_111;

    /// Contracts from σ = 0 up, at rates from 7 b/s to 100 Gb/s whose
    /// least common multiple stays small, so that the oracle's reduced
    /// arithmetic never leaves `i128` however often a run re-contracts.
    fn bucket() -> impl Strategy<Value = TokenBucket> {
        const RHO: [u64; 6] = [7, 1_000, 64_000, 1_250_000, 45_511_111, 100_000_000_000];
        let sigma = prop_oneof![Just(0u64), 1u64..3_000, 3_000u64..100_000];
        (sigma, 0..RHO.len()).prop_map(|(sigma, i)| TokenBucket {
            sigma: Bytes::new(sigma),
            rho: Rate::bps(RHO[i]),
        })
    }

    /// Time to the next arrival: nothing (a same-instant burst), or a
    /// step on the nanosecond lattice, on the lattice a packet leaves a
    /// [`LINK_BPS`] port on, or on thirds of a microsecond.
    fn gap() -> impl Strategy<Value = Ratio> {
        let on = |den: i128| (1i128..2_000_000_000).prop_map(move |k| Ratio::new(k, den));
        prop_oneof![
            Just(Ratio::ZERO),
            on(1_000_000_000),
            on(1_000_000_000),
            on(1_000_000_000 * LINK_BPS),
            on(3_000_000),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Unreduced TAT against the reduced one: the same verdict on
        /// every packet and the same TAT after it, on mixed arrival
        /// lattices, from the origin and from an hour in (numerators
        /// past `i64`), re-contracted mid-burst.
        #[test]
        fn unreduced_tat_matches_the_reduced_gcra(
            first in bucket(),
            hours in 0i128..3,
            pkts in prop::collection::vec((gap(), 0u64..9_000, prop::option::of(bucket())), 1..80),
        ) {
            let flow = FlowId(1);
            let mut arena = PktArena::new();
            let mut pf = PacketFactory::new();
            let mut p = Policer::new();
            p.contract(flow, first);
            let mut old = ReducedGcra {
                rho: first.rho,
                tau: first.rho.tx_time(first.sigma),
                tat: SimTime::ZERO,
            };
            let mut now = Ratio::from_int(3_600 * hours);
            let mut out = Vec::new();
            let mut dropped = 0;
            for (i, (gap, len, recontract)) in pkts.into_iter().enumerate() {
                // One re-contract in four lands between two packets.
                if let Some(b) = recontract.filter(|_| i % 4 == 3) {
                    p.contract(flow, b);
                    old.contract(b);
                }
                now += gap;
                let (at, len) = (SimTime::from_ratio(now), Bytes::new(len));
                let h = arena.try_alloc(pf.make(flow, len, at)).unwrap();
                out.clear();
                p.dispatch(at, &mut arena, &[h], &mut out);
                let conforms = old.conforms(at, len);
                prop_assert_eq!(!out.is_empty(), conforms, "packet {} at {:?}", i, at);
                let tat = p.contracts.get(flow).map(|c| c.tat.as_ratio());
                prop_assert_eq!(tat, Some(old.tat.as_ratio()), "TAT after packet {}", i);
                dropped += !conforms as u64;
            }
            prop_assert_eq!(p.dropped(flow), dropped);
            prop_assert_eq!(p.total_dropped(), dropped);
        }
    }

    #[test]
    #[should_panic(expected = "transmission at zero rate")]
    fn zero_rate_contract_is_rejected_when_set() {
        let never = TokenBucket {
            sigma: Bytes::new(1_500),
            rho: Rate::bps(0),
        };
        Policer::new().contract(FlowId(1), never);
    }

    #[test]
    fn tat_past_i128_fails_closed() {
        // A clock within a step of i128::MAX seconds: the flow's TAT
        // cannot be stepped, so its packets read as non-conforming
        // where reduced arithmetic would have panicked.
        let flow = FlowId(1);
        let mut arena = PktArena::new();
        let mut pf = PacketFactory::new();
        let mut p = Policer::new();
        let slow = TokenBucket {
            sigma: Bytes::new(100),
            rho: Rate::bps(1),
        };
        p.contract(flow, slow);
        let at = SimTime::from_ratio(Ratio::from_int(i128::MAX - 8));
        let h = arena.try_alloc(pf.make(flow, Bytes::new(2), at)).unwrap();
        let mut out = Vec::new();
        p.dispatch(at, &mut arena, &[h], &mut out);
        assert!(out.is_empty());
        assert_eq!((p.dropped(flow), p.total_dropped()), (1, 1));
        assert!(arena.audit().balanced());
    }

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
