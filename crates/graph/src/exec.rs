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
//! Everything is ordered: scripted injections fire in
//! `(time, entry node, uid)` order and ahead of anything else due at
//! their instant, the [`des::EventQueue`] delivers equal-time events
//! FIFO by schedule order (churns, then TCP starts, then whatever the
//! run schedules), node dispatch is batch-order-preserving, and no step
//! iterates an unordered map. The executor is therefore a
//! deterministic function of (topology, sources, churns) (see
//! `docs/graph.md` for the same-instant ordering rules).
//!
//! # One record, one event
//!
//! A packet is stored once, in its [`Transit`], from the moment it is
//! scripted: the run orders 16-byte keys and walks the order, it never
//! copies the script. And a delivered packet costs the queue one event,
//! its transmission completion: injections are merged in by a cursor,
//! and a completed packet crossing a zero-delay wire is dispatched in
//! place whenever its arrival event would have been the next one
//! popped anyway (`docs/graph.md`, "Same-instant event order").

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
use std::fmt;
use std::ops::{Deref, Range};

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
    /// The pre-scheduling oracle's injection of the script group that
    /// starts at `order[i]`; [`Graph::run`] walks the order by cursor.
    #[cfg(test)]
    Inject(usize),
    /// One packet crossing a wire lands at `node`: a lone emission on a
    /// delayed wire, or a port's transmission hand-off that could not
    /// be done in place.
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

/// A journey's hops, `(port node, transmission-completion time)` in
/// path order: a slice, read through `Deref`. Most journeys cross one
/// port, and that hop lives in the record itself; the list moves to
/// the heap at the second.
#[derive(Clone, Default)]
pub struct Hops(HopList);

#[derive(Clone, Default)]
enum HopList {
    #[default]
    None,
    One((usize, SimTime)),
    Many(Vec<(usize, SimTime)>),
}

impl Hops {
    fn push(&mut self, hop: (usize, SimTime)) {
        match &mut self.0 {
            HopList::None => self.0 = HopList::One(hop),
            HopList::One(first) => self.0 = HopList::Many(vec![*first, hop]),
            HopList::Many(hops) => hops.push(hop),
        }
    }
}

impl Deref for Hops {
    type Target = [(usize, SimTime)];

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            HopList::None => &[],
            HopList::One(hop) => std::slice::from_ref(hop),
            HopList::Many(hops) => hops,
        }
    }
}

impl PartialEq for Hops {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Hops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One packet's journey through the graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Transit {
    /// The packet as minted (original arrival stamp): a scripted
    /// injection, a TCP segment, or an MTU fragment.
    pub pkt: Packet,
    /// `(port node, transmission-completion time)` per traversed port,
    /// in path order.
    pub port_departures: Hops,
    /// Terminal sink and the time the packet reached it, if it
    /// survived to one. Fragments never do: they are absorbed by
    /// reassembly and the original packet is delivered in their place.
    pub delivered: Option<(usize, SimTime)>,
}

/// Everything a graph run produced.
#[derive(Debug, PartialEq)]
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
/// `transits[uid]` is every packet's record — its one copy outside the
/// arena — however and whenever it was minted: scripted packets as
/// their source is added, TCP segments and fragments during the run.
struct Mint {
    pf: PacketFactory,
    transits: Vec<Transit>,
}

impl Mint {
    fn make(&mut self, flow: FlowId, len: Bytes, at: SimTime) -> Packet {
        let pkt = self.pf.make(flow, len, at);
        debug_assert_eq!(pkt.uid as usize, self.transits.len());
        self.transits.push(Transit {
            pkt,
            port_departures: Hops::default(),
            delivered: None,
        });
        pkt
    }
}

/// Where scripted packet `uid` enters: `(entry node, strict
/// priority?)`, the column beside `transits[uid]`.
type Origin = (u32, bool);

/// The order a script fires in: its packets' uids by `(arrival, entry
/// node, uid)`. `script` is the scripted head of the journey table,
/// which is in mint order, so a packet's index is its uid.
///
/// Comparing exact times cross-multiplies rationals tens of thousands
/// of times, so the arrivals are first put on one integer lattice
/// ([`lattice_keys`]) and the 16-byte keys sorted instead; the index
/// in a key makes every key distinct. A script no `u64` lattice holds
/// is ordered by comparing the times themselves. Which of the two runs
/// depends on the arrivals' denominators and on nothing else, and both
/// produce the same order.
fn sort_script(script: &[Transit], origins: &[Origin]) -> Vec<u32> {
    debug_assert_eq!(script.len(), origins.len());
    debug_assert!(script
        .iter()
        .enumerate()
        .all(|(i, t)| t.pkt.uid == i as u64));
    let Ok(n) = u32::try_from(script.len()) else {
        panic!("a script holds at most 2^32 packets");
    };
    match lattice_keys(script, origins) {
        Some(mut keys) => {
            keys.sort_unstable();
            keys.iter().map(|&(_, _, i)| i).collect()
        }
        None => {
            let mut order: Vec<u32> = (0..n).collect();
            order.sort_by_key(|&i| (script[i as usize].pkt.arrival, origins[i as usize].0, i));
            order
        }
    }
}

/// `(arrival in ticks of 1/L, entry node, script index)` per scripted
/// packet, where `L` is the least common multiple of the arrivals'
/// denominators as stored — equal instants are equal tick counts on
/// any common lattice, so none of them is reduced. `None` when `L` or a
/// tick count does not fit a `u64` (or an arrival is negative).
fn lattice_keys(script: &[Transit], origins: &[Origin]) -> Option<Vec<(u64, u32, u32)>> {
    let mut lattice = 1u64;
    for t in script {
        let den = u64::try_from(t.pkt.arrival.parts().1).ok()?;
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
        .zip(origins)
        .enumerate()
        .map(|(i, (t, &(entry, _)))| {
            let (num, den) = t.pkt.arrival.parts();
            let per_unit = lattice / den as u64;
            let ticks = u64::try_from(num).ok()?.checked_mul(per_unit)?;
            Some((ticks, entry, i as u32))
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
    /// Scripted packet `uid`'s origin; the scripted packets are the
    /// first `origins.len()` the mint made.
    origins: Vec<Origin>,
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
    /// The ingress batch of an injection or TCP event.
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
    pub fn with_arena(nodes: Vec<NodeKind>, wires: Vec<Vec<Edge>>, arena: PktArena) -> Self {
        assert_eq!(nodes.len(), wires.len(), "one wire vector per node");
        // A node index is a `u32` in the script's origin column.
        assert!(u32::try_from(nodes.len()).is_ok(), "over 2^32 nodes");
        for (n, (node, out)) in nodes.iter().zip(&wires).enumerate() {
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
                NodeKind::Sink(_) => {}
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
            origins: Vec::new(),
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
        // Scripted packets are the mint's first: the origin column
        // runs beside the head of the journey table.
        assert!(!self.ran, "sources are added before the run");
        debug_assert_eq!(self.origins.len(), self.mint.transits.len());
        self.origins.reserve(arrivals.len());
        self.mint.transits.reserve(arrivals.len());
        for &(at, len) in arrivals {
            self.mint.make(flow, len, at);
            // `entry` is a node index: checked by the caller, and
            // `with_arena` holds those to 32 bits.
            self.origins.push((entry as u32, priority));
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
    /// `node` at time `at`, discarding its queued packets in both of the
    /// port's classes. Stragglers of the flow reaching that port
    /// afterwards, scheduled or strict-priority, are refused at the
    /// graph level. Panics if `node` is not a port.
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
    ///
    /// The loop merges two sorted streams: the script, walked by a
    /// cursor, and the event queue. The script wins ties — had its
    /// injections been scheduled up front, ahead of everything else,
    /// each would carry a smaller sequence number than any queued event
    /// of its instant — so the merge fires exactly what one queue
    /// holding both would pop.
    pub fn run(&mut self, horizon: SimTime) -> GraphReport {
        let order = self.script_order();
        let mut q = EventQueue::new();
        self.schedule_faults_and_starts(&mut q);
        // When the group at the cursor is due: `None` once the script
        // is spent, or past the horizon — an injection out there never
        // fires, and nothing behind it in the order can.
        let due_at = |g: &Graph, cursor: usize| {
            let first = *order.get(cursor)?;
            Some(g.mint.transits[first as usize].pkt.arrival).filter(|&at| at <= horizon)
        };
        let mut cursor = 0;
        let mut due = due_at(self, cursor);
        let mut churn_discarded = 0u64;
        loop {
            let popped = match due {
                Some(at) => q.pop_before(at),
                None => q.pop_through(horizon),
            };
            match (popped, due) {
                (Some((now, ev)), _) => self.on_event(now, ev, &mut q, &mut churn_discarded),
                (None, Some(at)) => {
                    // The queue's clock follows the script too, so that
                    // scheduling behind this instant stays a panic.
                    q.advance_to(at);
                    cursor = self.inject(at, &order, cursor, &mut q);
                    due = due_at(self, cursor);
                }
                (None, None) => break,
            }
        }
        self.build_report(churn_discarded)
    }

    /// Start of a run: refuse a second one, and order the script.
    fn script_order(&mut self) -> Vec<u32> {
        assert!(
            !std::mem::replace(&mut self.ran, true),
            "Graph::run called twice on the same graph"
        );
        sort_script(&self.mint.transits, &self.origins)
    }

    /// Schedule every churn by `(time, node, flow)`, then every TCP
    /// start by `(time, flow)`: at any instant they fire in that order,
    /// after the script and before anything the run schedules.
    fn schedule_faults_and_starts(&mut self, q: &mut EventQueue<Ev>) {
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
    }

    /// End of the script group that starts at `order[start]`: the
    /// maximal run of one `(arrival, entry, class)`, which is one
    /// run-to-completion ingress batch.
    fn group_end(&self, order: &[u32], start: usize) -> usize {
        let of = |i: u32| {
            (
                self.mint.transits[i as usize].pkt.arrival,
                self.origins[i as usize],
            )
        };
        let group = of(order[start]);
        let more = order[start + 1..].iter().take_while(|&&i| of(i) == group);
        start + 1 + more.count()
    }

    /// Fire the script group at `order[start]`, due `now`; returns the
    /// start of the next one.
    fn inject(
        &mut self,
        now: SimTime,
        order: &[u32],
        start: usize,
        q: &mut EventQueue<Ev>,
    ) -> usize {
        let end = self.group_end(order, start);
        let (entry, priority) = self.origins[order[start] as usize];
        let entry = entry as usize;
        let mut batch = std::mem::take(&mut self.scratch.ingress);
        batch.clear();
        for &i in &order[start..end] {
            match self.arena.try_alloc(self.mint.transits[i as usize].pkt) {
                Some(h) => batch.push(h),
                None => self.arena_refused += 1,
            }
        }
        if priority {
            let port = Self::port_of(&mut self.nodes, entry);
            for &h in &batch {
                // A churned flow's later priority packets are refused
                // like its scheduled stragglers.
                if self.removed.contains(&(entry, self.arena.get(h).flow)) {
                    self.arena.free(h);
                    self.churn_refused += 1;
                } else {
                    port.offer_priority(now, &mut self.arena, h);
                }
            }
            self.kick(entry, now, q);
        } else {
            self.dispatch_into(now, entry, &batch, q);
        }
        self.scratch.ingress = batch;
        end
    }

    /// One queued event, run to completion.
    fn on_event(
        &mut self,
        now: SimTime,
        ev: Ev,
        q: &mut EventQueue<Ev>,
        churn_discarded: &mut u64,
    ) {
        match ev {
            #[cfg(test)]
            Ev::Inject(_) => unreachable!("the oracle loop fires its own injections"),
            Ev::Arrive { node, h } => self.dispatch_into(now, node, &[h], q),
            Ev::ArriveBatch { node, pkts } => self.dispatch_into(now, node, &pkts, q),
            Ev::TxDone { node, h } => {
                let edge = self.complete(now, node, h);
                // The hand-off is the packet's arrival at the next
                // node, an event of this instant scheduled here, ahead
                // of the restarted link's completion. If nothing else
                // is due by `now` it would be the next event popped —
                // the script is no rival: the merge pops a queued event
                // only once every injection up to its instant has fired
                // — so it is dispatched in place instead, once the link
                // is restarted, which is where the pop would have found
                // it. Judged before the kick: a zero-length packet's
                // completion lands at `now` too, but behind the arrival.
                debug_assert_eq!(q.now(), now);
                let in_place =
                    edge.prop == SimDuration::ZERO && q.peek_time().is_none_or(|due| due > now);
                if !in_place {
                    q.schedule(now + edge.prop, Ev::Arrive { node: edge.to, h });
                }
                self.kick(node, now, q);
                if in_place {
                    self.dispatch_into(now, edge.to, &[h], q);
                }
            }
            Ev::Churn { node, flow } => {
                let port = Self::port_of(&mut self.nodes, node);
                *churn_discarded += port.force_remove(now, &mut self.arena, flow) as u64;
                self.removed.insert((node, flow));
            }
            Ev::Tcp(flow, ev) => self.tcp_event(now, flow, ev, q),
        }
    }

    /// `node`'s link finished the packet in slot `h`: book the
    /// departure at the port and in the packet's journey, and return
    /// the wire it leaves on.
    fn complete(&mut self, now: SimTime, node: usize, h: PktRef) -> Edge {
        let uid = self.arena.get(h).uid;
        Self::port_of(&mut self.nodes, node).complete(now);
        self.mint.transits[uid as usize]
            .port_departures
            .push((node, now));
        self.wires[node][0]
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

    /// The logs move into the report: a graph runs once, and nothing
    /// reads them off the nodes after it.
    fn build_report(&mut self, churn_discarded: u64) -> GraphReport {
        let mut sink_departures = Vec::new();
        let mut port_refusals = Vec::new();
        let mut port_drops = Vec::new();
        let mut evicted = 0u64;
        let mut port_strays = 0u64;
        let mut policer_dropped = 0u64;
        let mut unrouted = 0u64;
        for (n, node) in self.nodes.iter_mut().enumerate() {
            match node {
                NodeKind::Sink(s) => sink_departures.push((n, s.take_departures())),
                NodeKind::Port(p) => {
                    port_refusals.push((n, p.take_refusals()));
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
    fn script_of(arrivals: &[(i128, i128, usize)]) -> (Vec<Transit>, Vec<Origin>) {
        let mut mint = Mint {
            pf: PacketFactory::new(),
            transits: Vec::new(),
        };
        let origins = arrivals.iter().map(|&(num, den, entry)| {
            let at = SimTime::from_ratio(Ratio::new(num, den));
            mint.make(FlowId(7), Bytes::new(64), at);
            (entry as u32, num % 2 == 0)
        });
        let origins = origins.collect();
        (mint.transits, origins)
    }

    fn assert_sorts_like_the_comparison((script, origins): (Vec<Transit>, Vec<Origin>)) {
        let mut by_comparison: Vec<u32> = (0..script.len() as u32).collect();
        by_comparison.sort_by_key(|&i| {
            let p = script[i as usize].pkt;
            (p.arrival, origins[i as usize].0, p.uid)
        });
        assert_eq!(sort_script(&script, &origins), by_comparison);
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
            let (script, origins) = script_of(&arrivals);
            prop_assert!(lattice_keys(&script, &origins).is_some());
            assert_sorts_like_the_comparison((script, origins));
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
        let fits = |arrivals: &[(i128, i128, usize)]| {
            let (script, origins) = script_of(arrivals);
            lattice_keys(&script, &origins).is_some()
        };
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

    impl Graph {
        /// The event loop [`Graph::run`] replaced, kept as its oracle:
        /// every script group is an event of its own, scheduled up
        /// front ahead of the churns and TCP starts, and every
        /// transmission hand-off is an arrival event, zero-delay wire
        /// or not. One queue, popped in `(time, seq)` order, is the
        /// definition of the order the merged loop has to produce.
        fn run_prescheduled(&mut self, horizon: SimTime) -> GraphReport {
            let order = self.script_order();
            let mut q = EventQueue::new();
            let mut start = 0;
            while let Some(&first) = order.get(start) {
                let at = self.mint.transits[first as usize].pkt.arrival;
                q.schedule(at, Ev::Inject(start));
                start = self.group_end(&order, start);
            }
            self.schedule_faults_and_starts(&mut q);
            let mut churn_discarded = 0u64;
            while let Some((now, ev)) = q.pop_through(horizon) {
                match ev {
                    Ev::Inject(start) => {
                        self.inject(now, &order, start, &mut q);
                    }
                    Ev::TxDone { node, h } => {
                        let edge = self.complete(now, node, h);
                        q.schedule(now + edge.prop, Ev::Arrive { node: edge.to, h });
                        self.kick(node, now, &mut q);
                    }
                    ev => self.on_event(now, ev, &mut q, &mut churn_discarded),
                }
            }
            self.build_report(churn_discarded)
        }
    }

    /// A routed spec and its traffic on a half-millisecond lattice —
    /// 2 Mb/s links, lengths in multiples of 125 B — so that
    /// injections, completions, delayed arrivals, churns and ACKs keep
    /// landing on one another's instants.
    /// `(arrival in half-milliseconds, length in 125 B units — zero
    /// included)` per packet.
    type Script = Vec<(i128, u64)>;

    /// `(shared cap, per-flow cap, policy, MTU in 125 B units, out-wire
    /// delay in half-milliseconds)`.
    type LinkCase = (Option<usize>, Option<usize>, DropPolicy, Option<u64>, i128);

    #[derive(Clone, Debug)]
    struct Case {
        links: Vec<LinkCase>,
        /// Per scripted flow: its route and its script.
        flows: Vec<(Vec<usize>, Script)>,
        /// A strict-priority script at link 0.
        priority: Script,
        /// TCP endpoint over every link: `(start, ACK delay)` in
        /// half-milliseconds.
        tcp: Option<(i128, i128)>,
        /// `(link, scripted flow index, instant)` churn faults.
        churns: Vec<(usize, usize, i128)>,
        horizon: i128,
        engine_ports: bool,
    }

    const HALF_MS_NS: i128 = 500_000;

    fn case() -> impl Strategy<Value = Case> {
        let cap = || prop_oneof![Just(None), (1usize..6).prop_map(Some)];
        let link = move || {
            let policy = prop_oneof![
                Just(DropPolicy::TailDrop),
                Just(DropPolicy::HeadDrop),
                Just(DropPolicy::LowestWeightPressure),
            ];
            let mtu = prop_oneof![Just(None), Just(None), (1u64..4).prop_map(Some)];
            (cap(), cap(), policy, mtu, 0i128..3)
        };
        let script = || prop::collection::vec((0i128..40, 0u64..5), 0..24);
        (1usize..4, 0u8..2).prop_flat_map(move |(k, engine_ports)| {
            let route = prop::collection::vec(0..k, 1..k + 1).prop_map(|mut r| {
                // No link twice; a route may skip links and run
                // against their numbering.
                let mut seen = HashSet::new();
                r.retain(|l| seen.insert(*l));
                r
            });
            (
                prop::collection::vec(link(), k),
                prop::collection::vec((route, script()), 1..5),
                script(),
                prop::option::of((0i128..10, 0i128..4)),
                prop::collection::vec((0..k, 0usize..4, 0i128..40), 0..3),
                20i128..120,
            )
                .prop_map(move |(links, flows, priority, tcp, churns, horizon)| Case {
                    links,
                    flows,
                    priority,
                    tcp,
                    churns,
                    horizon,
                    engine_ports: engine_ports == 1,
                })
        })
    }

    impl Case {
        fn at(half_ms: i128) -> SimTime {
            SimTime::from_nanos(half_ms * HALF_MS_NS)
        }

        fn arrivals(script: &[(i128, u64)]) -> Vec<(SimTime, Bytes)> {
            // Scripts are generated unsorted: same-instant packets and
            // out-of-order ones within a source are both legal.
            let arrival = |&(t, units): &(i128, u64)| (Self::at(t), Bytes::new(units * 125));
            script.iter().map(arrival).collect()
        }

        /// The case as a graph ready to run; building it twice gives
        /// two graphs in the same state.
        fn build(&self) -> Graph {
            const TCP_FLOW: FlowId = FlowId(100);
            let k = self.links.len();
            let mut routes: Vec<(FlowId, Vec<usize>)> = self
                .flows
                .iter()
                .enumerate()
                .map(|(f, (route, _))| (FlowId(f as u32 + 1), route.clone()))
                .collect();
            // The priority flow needs a way out of link 0.
            routes.push((FlowId(99), vec![0]));
            if self.tcp.is_some() {
                routes.push((TCP_FLOW, (0..k).collect()));
            }
            let links = self.links.iter().enumerate().map(|(l, link)| {
                let &(shared_cap, per_flow_cap, policy, mtu, prop) = link;
                let crossing = routes.iter().filter(|(f, r)| f.0 != 99 && r.contains(&l));
                let flows = crossing.map(|(f, _)| (*f, Rate::kbps(100 + 50 * (f.0 as u64 % 3))));
                let mut port = PortSpec::new(RateProfile::constant(Rate::mbps(2)), flows.collect());
                port.shared_cap = shared_cap;
                port.per_flow_cap = per_flow_cap;
                port.policy = policy;
                port.mtu = mtu.map(|units| Bytes::new(units * 125));
                (port, SimDuration::from_nanos(prop * HALF_MS_NS))
            });
            let spec = GraphSpec::routed(links.collect(), &routes);
            let kind = if self.engine_ports {
                PortKind::EngineSync(sfq_engine::EngineConfig::new(2))
            } else {
                PortKind::Sfq
            };
            let mut g = spec.build(kind);
            for (f, (route, script)) in self.flows.iter().enumerate() {
                g.add_source(route[0], FlowId(f as u32 + 1), &Self::arrivals(script));
            }
            g.add_priority_source(0, FlowId(99), &Self::arrivals(&self.priority));
            if let Some((start, ack)) = self.tcp {
                let cfg = TcpConfig {
                    mss: Bytes::new(125),
                    limit: Some(24),
                    ..TcpConfig::default()
                };
                let ack = SimDuration::from_nanos(ack * HALF_MS_NS);
                g.add_tcp_source(0, TCP_FLOW, cfg, ack, Self::at(start));
            }
            for &(link, f, at) in &self.churns {
                let flow = FlowId((f % self.flows.len()) as u32 + 1);
                g.schedule_churn(link, flow, Self::at(at));
            }
            g
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merged loop against the pre-scheduling one: random
        /// routed specs — caps, drop policies, MTUs, delayed and
        /// zero-delay wires, a priority source, a TCP endpoint, churn,
        /// zero-length packets, a horizon that cuts the run short — on
        /// one coarse lattice. The whole report is compared: every
        /// journey, sink sequence, refusal sequence and book.
        #[test]
        fn merged_loop_matches_the_prescheduled_loop(case in case()) {
            let horizon = Case::at(case.horizon);
            let merged = case.build().run(horizon);
            let prescheduled = case.build().run_prescheduled(horizon);
            prop_assert!(merged.audit.balanced());
            prop_assert_eq!(merged, prescheduled);
        }
    }

    /// The horizon rule at its edge: an injection exactly at the
    /// horizon fires — its packet is minted into the arena and is still
    /// queued, `in_use`, when the run stops — and one a nanosecond past
    /// it never allocates. Same books from the pre-scheduling loop.
    #[test]
    fn injection_at_the_horizon_fires_and_one_past_it_does_not() {
        // 125 B take the 8 kb/s link 125 ms.
        let horizon = SimTime::from_millis(200);
        let script = [
            (SimTime::from_millis(1), Bytes::new(125)),
            (horizon, Bytes::new(125)),
            (horizon + SimDuration::from_nanos(1), Bytes::new(125)),
            (SimTime::from_millis(300), Bytes::new(125)),
        ];
        let build = || {
            let mut g = incast_spec(None, DropPolicy::TailDrop).build(PortKind::Sfq);
            g.add_source(0, FlowId(1), &script);
            g
        };
        let r = build().run(horizon);
        assert_eq!(r.transits.len(), 4, "every scripted packet has a journey");
        assert_eq!((r.audit.allocated, r.audit.in_use), (2, 1));
        assert!(r.audit.balanced());
        assert_eq!(r.arena_refused, 0);
        let delivered: Vec<u64> = r.sink_departures[0].1.iter().map(|d| d.uid).collect();
        assert_eq!(delivered, [0]);
        assert_eq!(r, build().run_prescheduled(horizon));
    }

    /// A journey is the one per-packet record, so its size is what a
    /// scripted packet costs in memory. Its three fields are 16-aligned
    /// (they hold `i128`s): the packet's 52 bytes of fields, and a
    /// 40-byte `(node, time)` each for the hop kept in place and for the
    /// delivery plus a discriminant that no `usize` or `i128` has a
    /// spare bit pattern for. Each rounds up to 64; with the hop list a
    /// heap `Vec` it was 160.
    #[test]
    fn a_journey_is_192_bytes_and_its_first_hop_is_in_it() {
        assert_eq!(std::mem::size_of::<Transit>(), 192);
        assert_eq!(std::mem::size_of::<Hops>(), 64);
        let hop = |n: usize| (n, SimTime::from_millis(n as i128));
        let mut hops = Hops::default();
        assert!(hops.is_empty());
        hops.push(hop(4));
        assert!(matches!(hops.0, HopList::One(_)));
        assert_eq!(*hops, [hop(4)]);
        hops.push(hop(5));
        hops.push(hop(6));
        assert_eq!(*hops, [hop(4), hop(5), hop(6)]);
        // Equality is the slice's, whichever state holds it.
        let mut spilled = Hops(HopList::Many(vec![hop(4)]));
        assert_eq!(spilled, Hops(HopList::One(hop(4))));
        spilled.push(hop(5));
        assert_ne!(spilled, Hops(HopList::One(hop(4))));
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
    fn engine_ports_are_deterministic_end_to_end() {
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
        let first = run(PortKind::EngineSync(cfg));
        assert_eq!(first, run(PortKind::EngineSync(cfg)), "two builds diverged");
        let (deps, refs, _, balanced) = first;
        assert!(balanced);
        // A shared cap of 4 against 48 packets at once: both outcomes occur.
        assert!(deps.iter().any(|d| !d.is_empty()) && refs.iter().any(|r| !r.is_empty()));
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
