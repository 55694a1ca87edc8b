//! Run-to-completion graph executor.
//!
//! The graph is a statically wired DAG over [`NodeKind`]s. Execution
//! is event-driven at the boundaries (packet injections, transmission
//! completions, propagation delays, churn faults, TCP endpoint timers)
//! and run-to-completion in between: an ingress batch chains
//! synchronously through classifiers and policers until every
//! surviving handle rests in a scheduler port, with zero intermediate
//! queues — the R2 dispatch model. Port output is timed: the executor
//! drives each port's busy-link transmission (`try_start`/
//! transmission-done events) and forwards completed packets along the
//! port's single output wire, honouring the wire's propagation delay.
//!
//! This is the only event loop that drives more than one
//! `netsim::SwitchCore`: open-loop scripted sources, strict-priority
//! injection ([`Graph::add_priority_source`]), closed-loop TCP Reno
//! endpoints ([`Graph::add_tcp_source`]) and per-port MTU
//! fragmentation with reassembly at the sink all run on it.
//!
//! # Determinism
//!
//! Everything is ordered: the [`des::EventQueue`] delivers equal-time
//! events FIFO by schedule order, injections are sorted by
//! `(time, entry node, uid)` before scheduling (then churns, then TCP
//! starts), node dispatch is batch-order-preserving, and no step
//! iterates an unordered map. The executor is therefore a
//! deterministic function of (topology, sources, churns) — the
//! property that makes a sync-port graph the *oracle* for the
//! identical graph built on threaded ports (see `docs/graph.md` for
//! the full identity argument and the same-instant ordering rules).

use crate::arena::{ArenaAudit, PktArena};
use crate::node::{GraphNode, OutPort};
use crate::nodes::{Classifier, Departure, Policer, TxSink};
use crate::port::PortNode;
use des::EventQueue;
use netsim::{TcpConfig, TcpReceiver, TcpSender};
use sfq_core::{FlowId, FlowMap, Packet, PacketFactory, PktRef};
use simtime::{Bytes, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

/// One node of the wired graph.
pub enum NodeKind {
    /// Flow-id → out-port classification.
    Classify(Classifier),
    /// Token-bucket ingress policing.
    Police(Policer),
    /// A scheduler port (boxed: it dominates the enum's size).
    Port(Box<PortNode>),
    /// Terminal transmit sink.
    Sink(TxSink),
}

/// A directed wire from some node's out-port to `to`, adding `prop`
/// propagation delay (zero keeps the handoff in the same event).
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Downstream node index.
    pub to: usize,
    /// Propagation delay across the wire.
    pub prop: SimDuration,
}

/// What a TCP endpoint event delivers to its sender.
enum TcpEv {
    Start,
    /// Cumulative ACK number.
    Ack(u64),
    /// Retransmission timer generation.
    Rto(u64),
}

enum Ev {
    /// Inject pre-grouped script range `groups[i]`.
    Inject(usize),
    /// One packet crossing a wire lands at `node`: every port's
    /// transmission hand-off, and any lone emission on a delayed wire.
    Arrive { node: usize, h: PktRef },
    /// A batch of two or more crossing a delayed wire lands at `node`.
    ArriveBatch { node: usize, pkts: Box<[PktRef]> },
    /// `node`'s link finishes transmitting the packet in slot `h`.
    TxDone { node: usize, h: PktRef },
    /// Churn fault: force-remove `flow` at `node`.
    Churn { node: usize, flow: FlowId },
    /// A TCP endpoint's connection start, ACK arrival or timer expiry.
    Tcp(FlowId, TcpEv),
}

/// One packet's journey through the graph.
#[derive(Clone, Debug)]
pub struct Transit {
    /// The packet as minted (original arrival stamp): a scripted
    /// injection, a TCP segment, or an MTU fragment.
    pub pkt: Packet,
    /// `(port node, transmission-completion time)` per traversed port,
    /// in path order.
    pub port_departures: Vec<(usize, SimTime)>,
    /// Terminal sink and the time the packet reached it, if it
    /// survived to one. Fragments never do: they are absorbed by
    /// reassembly and the original packet is delivered in their place.
    pub delivered: Option<(usize, SimTime)>,
}

/// Everything a graph run produced.
pub struct GraphReport {
    /// Per-packet journeys, indexed by uid (== mint order: scripted
    /// sources in `add_*_source` order, then run-time TCP segments and
    /// fragments in event order).
    pub transits: Vec<Transit>,
    /// Per sink node: departures in service order (identity surface).
    pub sink_departures: Vec<(usize, Vec<Departure>)>,
    /// Per port node: refused uids in arrival order (identity surface).
    pub port_refusals: Vec<(usize, Vec<u64>)>,
    /// Per port node: total shed packets per the switch books.
    pub port_drops: Vec<(usize, u64)>,
    /// Packets evicted (previously admitted) across all ports.
    pub evicted: u64,
    /// Packets a port released without a slot on record, across all
    /// ports ([`PortNode::strays`]): zero unless a port has a bug.
    pub port_strays: u64,
    /// Packets killed by policers.
    pub policer_dropped: u64,
    /// Packets freed for lack of a classifier route.
    pub unrouted: u64,
    /// Queued packets discarded by churn faults.
    pub churn_discarded: u64,
    /// Straggler packets refused at a port after their flow churned.
    pub churn_refused: u64,
    /// Injections refused because the arena slot cap was reached.
    pub arena_refused: u64,
    /// Arena disposition books after folding lane returns.
    pub audit: ArenaAudit,
}

/// A closed-loop source: TCP Reno sender and receiver state machines
/// (`netsim::tcp`) plus the glue the executor needs to turn segment
/// numbers into packets and sink deliveries into ACKs.
struct TcpEndpoint {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// uid → segment number for segments in flight.
    seg_of: HashMap<u64, u64>,
    mss: Bytes,
    /// Node the segments enter the graph at.
    entry: usize,
    /// Sink → source ACK path delay.
    ack_prop: SimDuration,
    start: SimTime,
}

/// The packet mint: the factory plus the per-uid journey table, so
/// `transits[uid]` is every packet's record however and whenever it
/// was minted. Scripted packets are minted up front and their journeys
/// opened in one allocation when the run starts; [`Mint::make`] is the
/// run-time path (TCP segments, fragments) and extends the table.
struct Mint {
    pf: PacketFactory,
    transits: Vec<Transit>,
}

impl Mint {
    fn open(pkt: Packet) -> Transit {
        Transit {
            pkt,
            port_departures: Vec::new(),
            delivered: None,
        }
    }

    fn make(&mut self, flow: FlowId, len: Bytes, at: SimTime) -> Packet {
        let pkt = self.pf.make(flow, len, at);
        debug_assert_eq!(pkt.uid as usize, self.transits.len());
        self.transits.push(Self::open(pkt));
        pkt
    }
}

/// One scripted injection: `(entry node, strict priority?, packet)`.
type Scripted = (usize, bool, Packet);

/// Order a script, still in mint order, by `(arrival, entry node,
/// uid)`.
///
/// Comparing exact times cross-multiplies rationals tens of thousands
/// of times over 72-byte tuples, so the arrivals are first put on one
/// integer lattice ([`lattice_keys`]) and the 16-byte keys sorted
/// instead; mint order is uid order, so a key's script index stands in
/// for the uid and makes every key distinct. A script no `u64` lattice
/// holds is ordered by comparing the times themselves. Which of the
/// two runs depends on the arrivals' denominators and on nothing else,
/// and both produce the same order.
fn sort_script(script: &mut Vec<Scripted>) {
    debug_assert!(script.windows(2).all(|w| w[0].2.uid < w[1].2.uid));
    match lattice_keys(script) {
        Some(mut keys) => {
            keys.sort_unstable();
            *script = keys.iter().map(|&(_, _, i)| script[i as usize]).collect();
        }
        None => script.sort_by_key(|&(entry, _, ref p)| (p.arrival, entry, p.uid)),
    }
}

/// `(arrival in ticks of 1/L, entry node, script index)` per scripted
/// packet, where `L` is the least common multiple of the arrivals'
/// denominators. `None` when `L` or a tick count does not fit a `u64`
/// (or an arrival is negative, or an index does not fit a `u32`).
fn lattice_keys(script: &[Scripted]) -> Option<Vec<(u64, u32, u32)>> {
    u32::try_from(script.len()).ok()?;
    let mut lattice = 1u64;
    for (_, _, p) in script {
        let den = u64::try_from(p.arrival.as_ratio().denom()).ok()?;
        // Nearly always true: a nanosecond script settles on 10^9
        // within its first few packets.
        if !lattice.is_multiple_of(den) {
            let (mut a, mut b) = (lattice, den);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            lattice = (lattice / a).checked_mul(den)?;
        }
    }
    script
        .iter()
        .enumerate()
        .map(|(i, &(entry, _, ref p))| {
            let at = p.arrival.as_ratio();
            let per_unit = lattice / at.denom() as u64;
            let ticks = u64::try_from(at.numer()).ok()?.checked_mul(per_unit)?;
            Some((ticks, u32::try_from(entry).ok()?, i as u32))
        })
        .collect()
}

/// A wired forwarding graph plus its traffic script. Build by hand or
/// through [`crate::topo::GraphSpec`].
pub struct Graph {
    nodes: Vec<NodeKind>,
    wires: Vec<Vec<Edge>>,
    arena: PktArena,
    mint: Mint,
    /// The scripted injections, in mint order until the run sorts them.
    script: Vec<Scripted>,
    churns: Vec<(SimTime, usize, FlowId)>,
    removed: HashSet<(usize, FlowId)>,
    tcp: FlowMap<TcpEndpoint>,
    /// Fragment uid → original uid, for reassembly at the sink.
    fragment_of: HashMap<u64, u64>,
    /// Original uid → (its parked handle, fragments outstanding).
    reassembly: HashMap<u64, (PktRef, usize)>,
    churn_refused: u64,
    arena_refused: u64,
    ran: bool,
    scratch: Scratch,
}

/// Run-to-completion scratch, reused across events so that a dispatch
/// allocates only when a buffer grows past its high-water mark.
#[derive(Default)]
struct Scratch {
    /// The ingress batch of an `Inject` or TCP event.
    ingress: Vec<PktRef>,
    /// Pending `(node, batch)` work of the dispatch in flight; a batch
    /// is a range of `batches`.
    work: VecDeque<(usize, Range<usize>)>,
    /// The batches of the dispatch in flight, back to back.
    batches: Vec<PktRef>,
    /// A batch after the executor's own pass over it: at a port,
    /// churned flows out and fragments in; at a sink, fragments out
    /// and reassembled originals in.
    staged: Vec<PktRef>,
    /// What the node being dispatched emitted, until routed.
    emissions: Vec<(OutPort, PktRef)>,
}

impl Graph {
    /// Graph over `nodes` wired by `wires` (`wires[n][p]` is node `n`'s
    /// out-port `p`), with an unbounded packet arena. Panics on a
    /// mis-wired graph, see [`Graph::with_arena`].
    pub fn new(nodes: Vec<NodeKind>, wires: Vec<Vec<Edge>>) -> Self {
        Self::with_arena(nodes, wires, PktArena::new())
    }

    /// Same, but over a caller-configured arena (e.g. slot-capped).
    ///
    /// The wiring is validated here, once, so the run loop never meets
    /// a dangling wire: panics unless there is one wire vector per
    /// node, every wire lands on an existing node, every port has
    /// exactly one out-wire, every policer has its out-port 0, and
    /// every classifier route (and default) names an existing
    /// out-wire.
    pub fn with_arena(mut nodes: Vec<NodeKind>, wires: Vec<Vec<Edge>>, arena: PktArena) -> Self {
        assert_eq!(nodes.len(), wires.len(), "one wire vector per node");
        for (n, (node, out)) in nodes.iter_mut().zip(&wires).enumerate() {
            if let Some(e) = out.iter().find(|e| e.to >= wires.len()) {
                panic!("node {n}: wire to missing node {}", e.to);
            }
            match node {
                NodeKind::Port(_) => {
                    assert_eq!(out.len(), 1, "port {n} needs exactly one out-wire")
                }
                NodeKind::Police(_) => assert!(!out.is_empty(), "policer {n} is unwired"),
                NodeKind::Classify(c) => {
                    if let Some(p) = c.out_ports().find(|&p| p >= out.len()) {
                        panic!("classifier {n} routes to unwired out-port {p}");
                    }
                }
                // Every sink must free into *this* graph's arena lane,
                // whatever lane it was constructed with.
                NodeKind::Sink(s) => s.set_lane(arena.lane()),
            }
        }
        Graph {
            nodes,
            wires,
            arena,
            mint: Mint {
                pf: PacketFactory::new(),
                transits: Vec::new(),
            },
            script: Vec::new(),
            churns: Vec::new(),
            removed: HashSet::new(),
            tcp: FlowMap::new(),
            fragment_of: HashMap::new(),
            reassembly: HashMap::new(),
            churn_refused: 0,
            arena_refused: 0,
            ran: false,
            scratch: Scratch::default(),
        }
    }

    /// The port at node `n`; panics if `n` is not a port. Over the
    /// node slice alone, so callers can lend the arena alongside.
    fn port_of(nodes: &mut [NodeKind], n: usize) -> &mut PortNode {
        match nodes.get_mut(n) {
            Some(NodeKind::Port(p)) => p,
            _ => panic!("node {n} is not a port"),
        }
    }

    fn add_script(
        &mut self,
        entry: usize,
        priority: bool,
        flow: FlowId,
        arrivals: &[(SimTime, Bytes)],
    ) {
        for &(at, len) in arrivals {
            let pkt = self.mint.pf.make(flow, len, at);
            self.script.push((entry, priority, pkt));
        }
    }

    /// Mint and script one source: `flow`'s packets enter the graph at
    /// node `entry` at the given `(arrival, length)` times. Panics if
    /// `entry` is not a node.
    pub fn add_source(&mut self, entry: usize, flow: FlowId, arrivals: &[(SimTime, Bytes)]) {
        assert!(entry < self.nodes.len(), "entry {entry} is not a node");
        self.add_script(entry, false, flow, arrivals);
    }

    /// Script a strict-priority source at `port` (Figure 1's VBR
    /// class): its packets bypass the port's scheduler and caps, are
    /// never dropped, and pre-empt the scheduled class at every
    /// transmission start — to the scheduled flows the link becomes a
    /// variable-rate server. After transmission they follow the port's
    /// out-wire like any packet, so `flow` needs a route downstream.
    /// Panics if `port` is not a port.
    pub fn add_priority_source(
        &mut self,
        port: usize,
        flow: FlowId,
        arrivals: &[(SimTime, Bytes)],
    ) {
        Self::port_of(&mut self.nodes, port);
        self.add_script(port, true, flow, arrivals);
    }

    /// Attach a closed-loop TCP Reno source: from `start` the sender
    /// injects `cfg.mss`-byte segments of `flow` at node `entry`, every
    /// sink delivery of one feeds the receiver, and the resulting
    /// cumulative ACK reaches the sender `ack_prop` later. Losses
    /// anywhere on the path recover through duplicate ACKs or the
    /// retransmission timer. Panics if `entry` is not a node or `flow`
    /// already has an endpoint.
    pub fn add_tcp_source(
        &mut self,
        entry: usize,
        flow: FlowId,
        cfg: TcpConfig,
        ack_prop: SimDuration,
        start: SimTime,
    ) {
        assert!(entry < self.nodes.len(), "entry {entry} is not a node");
        let ep = TcpEndpoint {
            sender: TcpSender::new(cfg),
            receiver: TcpReceiver::new(),
            seg_of: HashMap::new(),
            mss: cfg.mss,
            entry,
            ack_prop,
            start,
        };
        assert!(
            self.tcp.insert(flow, ep).is_none(),
            "flow {flow} already has a TCP endpoint"
        );
    }

    /// Schedule a churn fault: force-remove `flow` from the port at
    /// `node` at time `at`. Stragglers of the flow reaching that port
    /// afterwards are refused at the graph level. Panics if `node` is
    /// not a port.
    pub fn schedule_churn(&mut self, node: usize, flow: FlowId, at: SimTime) {
        Self::port_of(&mut self.nodes, node);
        self.churns.push((at, node, flow));
    }

    /// Run the script to `horizon` (events at exactly `horizon` still
    /// fire) and report. Packets still queued at the horizon stay
    /// allocated and show up in the audit's `in_use`. A graph runs
    /// once: the run consumes the script and hands the journey table
    /// to the report, so a second call panics instead of re-injecting
    /// on top of the first run's leftovers.
    pub fn run(&mut self, horizon: SimTime) -> GraphReport {
        assert!(
            !std::mem::replace(&mut self.ran, true),
            "Graph::run called twice on the same graph"
        );
        // The script is still in mint (uid) order: open its journeys.
        let mut script = std::mem::take(&mut self.script);
        self.mint.transits = script.iter().map(|&(_, _, p)| Mint::open(p)).collect();
        // Group injections by (time, entry, class) so each group is
        // one run-to-completion ingress batch.
        sort_script(&mut script);
        let mut groups: Vec<Range<usize>> = Vec::new();
        let mut q = EventQueue::new();
        let mut i = 0;
        while i < script.len() {
            let (entry, priority, Packet { arrival, .. }) = script[i];
            let start = i;
            while script.get(i).is_some_and(|&(e, p, ref pkt)| {
                e == entry && p == priority && pkt.arrival == arrival
            }) {
                i += 1;
            }
            q.schedule(arrival, Ev::Inject(groups.len()));
            groups.push(start..i);
        }
        self.churns
            .sort_by_key(|&(at, node, flow)| (at, node, flow.0));
        for &(at, node, flow) in &self.churns {
            q.schedule(at, Ev::Churn { node, flow });
        }
        let mut starts: Vec<(SimTime, FlowId)> =
            self.tcp.iter().map(|(f, ep)| (ep.start, f)).collect();
        starts.sort_by_key(|&(at, f)| (at, f.0));
        for (at, flow) in starts {
            q.schedule(at, Ev::Tcp(flow, TcpEv::Start));
        }

        let mut churn_discarded = 0u64;
        while let Some((now, ev)) = q.pop_through(horizon) {
            match ev {
                Ev::Inject(g) => {
                    let range = groups[g].clone();
                    let (entry, priority, _) = script[range.start];
                    let mut batch = std::mem::take(&mut self.scratch.ingress);
                    batch.clear();
                    for &(_, _, pkt) in &script[range] {
                        match self.arena.try_alloc(pkt) {
                            Some(h) => batch.push(h),
                            None => self.arena_refused += 1,
                        }
                    }
                    if priority {
                        let port = Self::port_of(&mut self.nodes, entry);
                        for &h in &batch {
                            port.offer_priority(now, &mut self.arena, h);
                        }
                        self.kick(entry, now, &mut q);
                    } else {
                        self.dispatch_into(now, entry, &batch, &mut q);
                    }
                    self.scratch.ingress = batch;
                }
                Ev::Arrive { node, h } => self.dispatch_into(now, node, &[h], &mut q),
                Ev::ArriveBatch { node, pkts } => self.dispatch_into(now, node, &pkts, &mut q),
                Ev::TxDone { node, h } => {
                    let uid = self.arena.get(h).uid;
                    Self::port_of(&mut self.nodes, node).complete(now);
                    self.mint.transits[uid as usize]
                        .port_departures
                        .push((node, now));
                    let edge = self.wires[node][0];
                    q.schedule(now + edge.prop, Ev::Arrive { node: edge.to, h });
                    self.kick(node, now, &mut q);
                }
                Ev::Churn { node, flow } => {
                    let port = Self::port_of(&mut self.nodes, node);
                    churn_discarded += port.force_remove(now, &mut self.arena, flow) as u64;
                    self.removed.insert((node, flow));
                }
                Ev::Tcp(flow, ev) => self.tcp_event(now, flow, ev, &mut q),
            }
        }

        self.arena.fold_returns();
        self.build_report(churn_discarded)
    }

    /// The one copy of the TCP glue: hand `ev` to `flow`'s sender,
    /// mint a packet per segment number it wants on the wire, inject
    /// them at the endpoint's entry node as one batch, and (re)arm the
    /// retransmission timer event for the sender's current timer
    /// generation (stale generations are ignored by the sender). A
    /// segment dropped anywhere downstream is simply never delivered;
    /// duplicate ACKs or the timer recover it.
    fn tcp_event(&mut self, now: SimTime, flow: FlowId, ev: TcpEv, q: &mut EventQueue<Ev>) {
        let Some(ep) = self.tcp.get_mut(flow) else {
            return;
        };
        let segs = match ev {
            TcpEv::Start => ep.sender.on_start(now),
            TcpEv::Ack(ackno) => ep.sender.on_ack(now, ackno),
            TcpEv::Rto(gen) => ep.sender.on_rto(now, gen),
        };
        let mut batch = std::mem::take(&mut self.scratch.ingress);
        batch.clear();
        for seg in segs {
            let pkt = self.mint.make(flow, ep.mss, now);
            match self.arena.try_alloc(pkt) {
                Some(h) => {
                    ep.seg_of.insert(pkt.uid, seg);
                    batch.push(h);
                }
                None => self.arena_refused += 1,
            }
        }
        let (entry, timer) = (ep.entry, ep.sender.timer());
        self.dispatch_into(now, entry, &batch, q);
        self.scratch.ingress = batch;
        if let Some((deadline, gen)) = timer {
            q.schedule(deadline.max(now), Ev::Tcp(flow, TcpEv::Rto(gen)));
        }
    }

    /// Run-to-completion: chain `batch` through nodes along zero-queue
    /// hops until every handle rests in a port, a sink, or the arena
    /// freelist. FIFO work order keeps sibling emissions in dispatch
    /// order. Every buffer is [`Scratch`]: the only allocations here
    /// are buffer growth, fragments' journeys, and the boxed batch of a
    /// multi-packet delayed crossing.
    fn dispatch_into(
        &mut self,
        now: SimTime,
        node: usize,
        batch: &[PktRef],
        q: &mut EventQueue<Ev>,
    ) {
        self.scratch.batches.clear();
        self.scratch.batches.extend_from_slice(batch);
        self.scratch.work.push_back((node, 0..batch.len()));
        while let Some((n, range)) = self.scratch.work.pop_front() {
            if range.is_empty() {
                continue;
            }
            let pkts = &self.scratch.batches[range];
            let emissions = &mut self.scratch.emissions;
            let staged = &mut self.scratch.staged;
            let mut kick_port = false;
            match &mut self.nodes[n] {
                NodeKind::Classify(c) => c.dispatch(now, &mut self.arena, pkts, emissions),
                NodeKind::Police(p) => p.dispatch(now, &mut self.arena, pkts, emissions),
                NodeKind::Port(p) => {
                    staged.clear();
                    for &h in pkts {
                        let Packet { flow, len, uid, .. } = *self.arena.get(h);
                        if self.removed.contains(&(n, flow)) {
                            self.arena.free(h);
                            self.churn_refused += 1;
                            continue;
                        }
                        match p.mtu {
                            // Whole packets fragment on entry (a
                            // fragment meeting a smaller MTU later
                            // passes unchanged). The original's slot
                            // stays parked until its last fragment
                            // reaches a sink.
                            Some(mtu) if len > mtu && !self.fragment_of.contains_key(&uid) => {
                                let mut left = len.as_u64();
                                let mut outstanding = 0;
                                while left > 0 {
                                    let take = left.min(mtu.as_u64());
                                    left -= take;
                                    let frag = self.mint.make(flow, Bytes::new(take), now);
                                    self.fragment_of.insert(frag.uid, uid);
                                    outstanding += 1;
                                    match self.arena.try_alloc(frag) {
                                        Some(fh) => staged.push(fh),
                                        None => self.arena_refused += 1,
                                    }
                                }
                                self.reassembly.insert(uid, (h, outstanding));
                            }
                            _ => staged.push(h),
                        }
                    }
                    p.dispatch(now, &mut self.arena, staged, emissions);
                    kick_port = true;
                }
                NodeKind::Sink(s) => {
                    staged.clear();
                    staged.extend_from_slice(pkts);
                    if !self.fragment_of.is_empty() {
                        // Reassembly: a fragment is absorbed; the last
                        // one of a packet is replaced by the parked
                        // original, which is what the sink delivers.
                        staged.retain_mut(|h| {
                            let Some(orig) = self.fragment_of.remove(&self.arena.get(*h).uid)
                            else {
                                return true;
                            };
                            self.arena.free(*h);
                            let Entry::Occupied(mut parked) = self.reassembly.entry(orig) else {
                                return false;
                            };
                            parked.get_mut().1 -= 1;
                            if parked.get().1 > 0 {
                                return false;
                            }
                            *h = parked.remove().0;
                            true
                        });
                    }
                    for &h in staged.iter() {
                        let Packet { flow, uid, .. } = *self.arena.get(h);
                        self.mint.transits[uid as usize].delivered = Some((n, now));
                        // Close the loop: a delivered TCP segment
                        // turns into an ACK at its sender.
                        if let Some(ep) = self.tcp.get_mut(flow) {
                            if let Some(seg) = ep.seg_of.remove(&uid) {
                                let ack = ep.receiver.on_segment(seg);
                                q.schedule(now + ep.ack_prop, Ev::Tcp(flow, TcpEv::Ack(ack)));
                            }
                        }
                    }
                    s.dispatch(now, &mut self.arena, staged, emissions);
                }
            }
            if kick_port {
                self.kick(n, now, q);
            }
            // Route emissions along wires, preserving order and batch
            // locality: each pass moves the first emission's whole
            // `(target, delay)` group, in emission order, to the end of
            // `batches`. Zero-delay groups stay one batch of this
            // dispatch; delayed ones cross as one event per group.
            let wires = &self.wires[n];
            while let Some(&(first, _)) = self.scratch.emissions.first() {
                let edge = wires[first.0];
                let batches = &mut self.scratch.batches;
                let start = batches.len();
                self.scratch.emissions.retain(|&(op, h)| {
                    let e = wires[op.0];
                    let grouped = e.to == edge.to && e.prop == edge.prop;
                    if grouped {
                        batches.push(h);
                    }
                    !grouped
                });
                if edge.prop == SimDuration::ZERO {
                    self.scratch.work.push_back((edge.to, start..batches.len()));
                    continue;
                }
                let ev = match batches[start..] {
                    [h] => Ev::Arrive { node: edge.to, h },
                    ref pkts => Ev::ArriveBatch {
                        node: edge.to,
                        pkts: pkts.into(),
                    },
                };
                batches.truncate(start);
                q.schedule(now + edge.prop, ev);
            }
        }
    }

    /// Start the port's link if it is free and work is queued.
    fn kick(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if let Some((_, h, done)) = Self::port_of(&mut self.nodes, node).try_start(now) {
            q.schedule(done, Ev::TxDone { node, h });
        }
    }

    fn build_report(&mut self, churn_discarded: u64) -> GraphReport {
        let mut sink_departures = Vec::new();
        let mut port_refusals = Vec::new();
        let mut port_drops = Vec::new();
        let mut evicted = 0u64;
        let mut port_strays = 0u64;
        let mut policer_dropped = 0u64;
        let mut unrouted = 0u64;
        for (n, node) in self.nodes.iter().enumerate() {
            match node {
                NodeKind::Sink(s) => sink_departures.push((n, s.departures().to_vec())),
                NodeKind::Port(p) => {
                    port_refusals.push((n, p.refusals().to_vec()));
                    port_drops.push((n, p.drops_total()));
                    evicted += p.evicted();
                    port_strays += p.strays();
                }
                NodeKind::Police(p) => policer_dropped += p.total_dropped(),
                NodeKind::Classify(c) => unrouted += c.unrouted(),
            }
        }
        GraphReport {
            transits: std::mem::take(&mut self.mint.transits),
            sink_departures,
            port_refusals,
            port_drops,
            evicted,
            port_strays,
            policer_dropped,
            unrouted,
            churn_discarded,
            churn_refused: self.churn_refused,
            arena_refused: self.arena_refused,
            audit: self.arena.audit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{GraphSpec, PortKind, PortSpec};
    use netsim::DropPolicy;
    use proptest::prelude::*;
    use servers::RateProfile;
    use simtime::{Rate, Ratio};

    /// A script in mint order over arrivals `num / den`: few distinct
    /// numerators and entries, so that ties at every level of the key
    /// are common.
    fn script_of(arrivals: &[(i128, i128, usize)]) -> Vec<Scripted> {
        let mut pf = PacketFactory::new();
        let script = arrivals.iter().map(|&(num, den, entry)| {
            let at = SimTime::from_ratio(Ratio::new(num, den));
            (entry, num % 2 == 0, pf.make(FlowId(7), Bytes::new(64), at))
        });
        script.collect()
    }

    fn assert_sorts_like_the_comparison(mut script: Vec<Scripted>) {
        let mut by_comparison = script.clone();
        by_comparison.sort_by_key(|&(entry, _, ref p)| (p.arrival, entry, p.uid));
        sort_script(&mut script);
        assert_eq!(script, by_comparison);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arrivals on the nanosecond lattice and a few coarser ones:
        /// one `u64` lattice holds them, the integer keys sort.
        #[test]
        fn lattice_sort_is_the_comparison_sort(
            arrivals in prop::collection::vec(
                (0i128..40, prop_oneof![Just(1_000_000_000i128), Just(1_000), Just(48), Just(1)], 0usize..3),
                0..200,
            ),
        ) {
            let script = script_of(&arrivals);
            prop_assert!(lattice_keys(&script).is_some());
            assert_sorts_like_the_comparison(script);
        }

        /// Pairwise coprime 21-bit denominators (no `u64` holds the
        /// product of four), numerators past `u64`, negative instants:
        /// whenever one of them is drawn the exact times are compared.
        #[test]
        fn fallback_sort_is_the_comparison_sort(
            arrivals in prop::collection::vec(
                (
                    prop_oneof![-3i128..40, (1i128 << 64)..(1 << 64) + 3],
                    prop_oneof![Just(1_000_003i128), Just(1_000_033), Just(1_000_037), Just(1_000_039), Just(1)],
                    0usize..3,
                ),
                0..200,
            ),
        ) {
            assert_sorts_like_the_comparison(script_of(&arrivals));
        }
    }

    #[test]
    fn the_sort_falls_back_exactly_when_no_u64_lattice_fits() {
        let fits = |arrivals: &[(i128, i128, usize)]| lattice_keys(&script_of(arrivals)).is_some();
        let dens = [1_000_003, 1_000_033, 1_000_037, 1_000_039];
        // Three coprime 21-bit denominators make a 60-bit lattice; the
        // fourth does not fit.
        assert!(fits(&[(1, dens[0], 0), (1, dens[1], 0), (1, dens[2], 0)]));
        assert!(!fits(&dens.map(|d| (1, d, 0))));
        // The lattice fits but an hour in ticks of it does not.
        assert!(fits(&[(1, 1 << 40, 0), ((1 << 40) * 3_600, 1 << 40, 0)]));
        assert!(!fits(&[(1, 1 << 60, 0), (3_600, 1, 0)]));
        // Before the origin, and past every word.
        assert!(!fits(&[(-1, 1_000, 0)]));
        assert!(!fits(&[(1, (1 << 64) + 1, 0)]));
        assert!(fits(&[]));
    }

    fn arrivals(n: usize, gap_ms: i128, len: u64) -> Vec<(SimTime, Bytes)> {
        (0..n)
            .map(|i| (SimTime::from_millis(gap_ms * i as i128), Bytes::new(len)))
            .collect()
    }

    fn incast_spec(cap: Option<usize>, policy: DropPolicy) -> GraphSpec {
        let flows = (1..=4u32).map(|f| (FlowId(f), Rate::bps(2_000))).collect();
        let mut port = PortSpec::new(RateProfile::constant(Rate::bps(8_000)), flows);
        port.shared_cap = cap;
        port.policy = policy;
        GraphSpec::incast(4, port)
    }

    #[test]
    fn incast_4_to_1_delivers_everything_unbounded() {
        let spec = incast_spec(None, DropPolicy::TailDrop);
        let mut g = spec.build(PortKind::Sfq);
        for f in 1..=4u32 {
            g.add_source((f - 1) as usize, FlowId(f), &arrivals(10, 500, 125));
        }
        let r = g.run(SimTime::from_millis(120_000));
        let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(delivered, 40);
        assert_eq!(r.audit.in_use, 0);
        assert!(r.audit.balanced());
        // Every transit records its port departure and delivery.
        for t in &r.transits {
            assert_eq!(t.port_departures.len(), 1);
            assert!(t.delivered.is_some());
        }
    }

    #[test]
    fn incast_overload_sheds_and_balances_books() {
        for policy in [
            DropPolicy::TailDrop,
            DropPolicy::HeadDrop,
            DropPolicy::LowestWeightPressure,
        ] {
            let spec = incast_spec(Some(3), policy);
            let mut g = spec.build(PortKind::Sfq);
            for f in 1..=4u32 {
                // Simultaneous bursts: 4 flows x 10 packets at t=0 into
                // a 3-packet shared buffer.
                g.add_source((f - 1) as usize, FlowId(f), &arrivals(10, 0, 125));
            }
            let r = g.run(SimTime::from_millis(600_000));
            let delivered: u64 = r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum();
            let shed: u64 = r.port_drops.iter().map(|&(_, n)| n).sum();
            assert!(shed > 0, "{policy:?}: overload must shed");
            assert_eq!(delivered + shed, 40, "{policy:?}: disposition mismatch");
            assert_eq!(r.audit.in_use, 0, "{policy:?}: slot leak");
            assert!(r.audit.balanced(), "{policy:?}: books unbalanced");
        }
    }

    #[test]
    fn matrix_routes_flows_to_their_egress() {
        let ports = (0..2)
            .map(|_| {
                PortSpec::new(
                    RateProfile::constant(Rate::bps(8_000)),
                    vec![(FlowId(1), Rate::bps(1_000)), (FlowId(2), Rate::bps(1_000))],
                )
            })
            .collect();
        let spec = GraphSpec::matrix(2, ports, vec![(FlowId(1), 0), (FlowId(2), 1)]);
        let mut g = spec.build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &arrivals(5, 200, 125));
        g.add_source(1, FlowId(2), &arrivals(5, 200, 125));
        let r = g.run(SimTime::from_millis(60_000));
        // Sink for port 0 sees only flow 1; sink for port 1 only flow 2.
        let sinks = &r.sink_departures;
        assert_eq!(sinks.len(), 2);
        assert!(sinks[0].1.iter().all(|d| d.flow == FlowId(1)));
        assert!(sinks[1].1.iter().all(|d| d.flow == FlowId(2)));
        assert_eq!(sinks[0].1.len(), 5);
        assert_eq!(sinks[1].1.len(), 5);
        assert!(r.audit.balanced());
    }

    #[test]
    fn chain_records_a_departure_per_hop() {
        let hops: Vec<PortSpec> = (0..3)
            .map(|_| {
                PortSpec::new(
                    RateProfile::constant(Rate::bps(8_000)),
                    vec![(FlowId(1), Rate::bps(4_000))],
                )
            })
            .collect();
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 2)], SimDuration::from_millis(5));
        let mut g = spec.build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &arrivals(6, 300, 125));
        let r = g.run(SimTime::from_millis(60_000));
        let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
        assert_eq!(delivered, 6);
        for t in &r.transits {
            assert_eq!(t.port_departures.len(), 3, "one departure per hop");
            // Hop order and inter-hop propagation are monotone.
            for w in t.port_departures.windows(2) {
                assert!(w[0].1 + SimDuration::from_millis(5) <= w[1].1);
            }
        }
        assert!(r.audit.balanced());
    }

    #[test]
    fn sync_and_threaded_ports_are_identical_end_to_end() {
        use sfq_engine::EngineConfig;
        let run = |kind: PortKind| {
            let spec = incast_spec(Some(4), DropPolicy::TailDrop);
            let mut g = spec.build(kind);
            for f in 1..=4u32 {
                g.add_source((f - 1) as usize, FlowId(f), &arrivals(12, 0, 125));
            }
            let r = g.run(SimTime::from_millis(600_000));
            let deps: Vec<Vec<(u64, SimTime)>> = r
                .sink_departures
                .iter()
                .map(|(_, d)| d.iter().map(|x| (x.uid, x.at)).collect())
                .collect();
            let refs: Vec<Vec<u64>> = r.port_refusals.iter().map(|(_, u)| u.clone()).collect();
            (deps, refs, r.churn_discarded, r.audit.balanced())
        };
        let cfg = EngineConfig::new(3);
        let (d_sync, r_sync, c_sync, b_sync) = run(PortKind::EngineSync(cfg));
        let (d_thr, r_thr, c_thr, b_thr) = run(PortKind::EngineThreaded(cfg));
        assert_eq!(d_sync, d_thr, "departure sequences diverged");
        assert_eq!(r_sync, r_thr, "refusal sequences diverged");
        assert_eq!(c_sync, c_thr);
        assert!(b_sync && b_thr);
    }

    #[test]
    fn churn_discards_and_refuses_stragglers() {
        let spec = incast_spec(None, DropPolicy::TailDrop);
        let mut g = spec.build(PortKind::Sfq);
        for f in 1..=4u32 {
            g.add_source((f - 1) as usize, FlowId(f), &arrivals(20, 100, 1_250));
        }
        // Remove flow 2 mid-script: queued backlog discarded, later
        // arrivals refused at the graph level.
        g.schedule_churn(4, FlowId(2), SimTime::from_millis(450));
        let r = g.run(SimTime::from_millis(600_000));
        assert!(r.churn_discarded > 0 || r.churn_refused > 0);
        let f2_delivered = r.sink_departures[0]
            .1
            .iter()
            .filter(|d| d.flow == FlowId(2))
            .count() as u64;
        assert_eq!(
            f2_delivered + r.churn_discarded + r.churn_refused,
            20,
            "flow 2 disposition mismatch"
        );
        assert_eq!(r.audit.in_use, 0);
        assert!(r.audit.balanced());
    }

    #[test]
    #[should_panic(expected = "port 4 needs exactly one out-wire")]
    fn miswired_spec_fails_at_build_not_at_run() {
        // A port whose output goes nowhere used to build fine and
        // panic mid-run at its first transmission completion.
        let mut spec = incast_spec(None, DropPolicy::TailDrop);
        spec.wires[4].clear();
        spec.build(PortKind::Sfq);
    }

    #[test]
    #[should_panic(expected = "classifier 0 routes to unwired out-port 3")]
    fn dangling_classifier_route_fails_at_build() {
        let mut spec = incast_spec(None, DropPolicy::TailDrop);
        spec.nodes[0] = crate::NodeSpec::Classify {
            routes: vec![(FlowId(1), 3)],
            default: Some(0),
        };
        spec.build(PortKind::Sfq);
    }

    #[test]
    #[should_panic(expected = "node 0 is not a port")]
    fn churn_target_is_checked_when_scheduled() {
        let mut g = incast_spec(None, DropPolicy::TailDrop).build(PortKind::Sfq);
        g.schedule_churn(0, FlowId(1), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "Graph::run called twice")]
    fn second_run_fails_loudly() {
        // `run` used to keep the script and the arena, so a second call
        // silently re-injected every packet on top of the first run's
        // leftovers and doubled the books.
        let mut g = incast_spec(None, DropPolicy::TailDrop).build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &arrivals(3, 500, 125));
        let r = g.run(SimTime::from_millis(60_000));
        assert_eq!(r.transits.len(), 3);
        g.run(SimTime::from_millis(120_000));
    }
}
