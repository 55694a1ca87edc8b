//! Hierarchical SFQ link sharing (Section 3 of the paper).
//!
//! The link-sharing structure is a tree of *classes*; each node uses SFQ
//! to schedule its children, treating every subclass as a flow. Flows
//! are leaf classes. Every interior class runs the one class-level SFQ
//! server, [`RootSfq`] — the server the sharded engine runs over its
//! shards — with a child's position among its siblings as its class
//! index, so ties go to the lower [`ClassId`]. Scheduling is recursive:
//! the root picks the backlogged child with the minimum start tag, that
//! child picks among its own children, and so on down to a leaf whose
//! head packet is transmitted. When the packet's length `l` is known,
//! every class on the path charges its chosen child `F = S + l /
//! r_child`; a child still backlogged competes next at `S = F` —
//! exactly the continuously-backlogged case of Eq. 4.
//!
//! Because SFQ is fair over servers of arbitrarily fluctuating rate
//! (Theorem 1 makes no assumption on service times), each interior class
//! — whose available rate fluctuates with its siblings' activity — still
//! divides its bandwidth between subclasses in proportion to weights.
//! This is the property Example 3 shows WFQ lacks.
//!
//! There are no ready sets. A class keeps one flag per child, raised
//! while the child's subtree holds a packet, and its server stamps the
//! flagged children when it picks (the start rule of [`RootSfq`]). Leaf
//! flows keep their packets in per-flow FIFOs ([`VecDeque`]), so a
//! dequeue costs the children scanned along the root-to-leaf path —
//! never anything that grows with queue depth — and allocates nothing.
//! Classes backed by a nested scheduler (`add_scheduler_class`) inherit
//! the head-of-flow behaviour of whatever discipline they wrap.

use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::root::RootSfq;
use crate::sched::{SchedError, Scheduler};
use simtime::{Rate, Ratio, SimTime};
use std::collections::{HashMap, VecDeque};

/// Identifier of a class in the link-sharing tree. The root is created
/// by [`HierSfq::new`] and returned by [`HierSfq::root`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

/// What a leaf class sends from.
enum Leaf {
    /// A flow's FIFO.
    Flow(VecDeque<Packet>),
    /// A nested discipline ordering the class's own packets (Section 3:
    /// different services may use different resource-allocation
    /// methods).
    Nested(Box<dyn Scheduler>),
}

impl std::fmt::Debug for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Flow(queue) => write!(f, "Flow({} queued)", queue.len()),
            Leaf::Nested(inner) => write!(f, "Nested({})", inner.name()),
        }
    }
}

#[derive(Debug)]
struct Node {
    /// Parent class and this class's index in the parent's server;
    /// `None` for the root.
    parent: Option<(ClassId, usize)>,
    /// Number of packets queued in this subtree.
    subtree_backlog: usize,
    /// SFQ server over the children, one class per child in `ClassId`
    /// order; classless at a leaf.
    server: RootSfq,
    children: Vec<ClassId>,
    /// Per child: its subtree holds a packet.
    backlogged: Vec<bool>,
    /// `None` for an interior class.
    leaf: Option<Leaf>,
}

impl Node {
    fn new(parent: Option<(ClassId, usize)>, leaf: Option<Leaf>) -> Self {
        Node {
            parent,
            subtree_backlog: 0,
            server: RootSfq::new(0, None),
            children: Vec::new(),
            backlogged: Vec::new(),
            leaf,
        }
    }
}

/// Hierarchical SFQ scheduler over a link-sharing tree.
///
/// ```
/// use sfq_core::{FlowId, HierSfq, PacketFactory, Scheduler};
/// use simtime::{Bytes, Rate, SimTime};
///
/// // root{ A{ f1 }, f2 } with equal weights: class A and flow 2
/// // alternate; inside A, flow 1 gets everything.
/// let mut h = HierSfq::new();
/// let a = h.add_class(h.root(), Rate::mbps(1));
/// h.add_flow_to(a, FlowId(1), Rate::mbps(1));
/// h.add_flow_to(h.root(), FlowId(2), Rate::mbps(1));
///
/// let mut pf = PacketFactory::new();
/// let t0 = SimTime::ZERO;
/// for _ in 0..2 {
///     h.enqueue(t0, pf.make(FlowId(1), Bytes::new(500), t0));
///     h.enqueue(t0, pf.make(FlowId(2), Bytes::new(500), t0));
/// }
/// let order: Vec<u32> = std::iter::from_fn(|| {
///     let p = h.dequeue(t0)?;
///     h.on_departure(t0);
///     Some(p.flow.0)
/// })
/// .collect();
/// assert_eq!(order, vec![1, 2, 1, 2]);
/// ```
///
/// # Observation
///
/// `HierSfq` reports *class-level* tags to its observer (see
/// [`crate::obs`]): events carry the leaf class's start tag and finish
/// tag in its parent's tag space, and `v` is the root server's virtual
/// time. Enqueue and drop events report the start tag the leaf would be
/// served at now and its last finish tag (`F_prev`) — the hierarchy
/// charges classes at dequeue time, so a queued packet has no
/// per-packet tag of its own.
#[derive(Debug)]
pub struct HierSfq<O: SchedObserver = NoopObserver> {
    nodes: Vec<Node>,
    flow_leaf: HashMap<FlowId, ClassId>,
    /// Leaf of the most recent dequeue: `on_departure` walks up from it
    /// to close the busy periods of the classes the packet emptied.
    served: Option<ClassId>,
    obs: O,
}

impl HierSfq {
    /// New tree containing only the root class.
    pub fn new() -> Self {
        Self::with_observer(NoopObserver)
    }
}

impl<O: SchedObserver> HierSfq<O> {
    /// New tree reporting events to `obs` (see [`crate::obs`]).
    pub fn with_observer(obs: O) -> Self {
        HierSfq {
            nodes: vec![Node::new(None, None)],
            flow_leaf: HashMap::new(),
            served: None,
            obs,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consume the scheduler, returning the observer.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The root class.
    pub fn root(&self) -> ClassId {
        ClassId(0)
    }

    /// Add a class of weight `weight` under `parent`, sending from
    /// `leaf` (`None` for an interior class).
    fn attach(&mut self, parent: ClassId, weight: Rate, leaf: Option<Leaf>) -> ClassId {
        assert!(weight.as_bps() > 0, "class weight must be positive");
        let id = ClassId(self.nodes.len() as u32);
        let p = self.node_mut(parent);
        assert!(p.leaf.is_none(), "cannot add a class under a flow leaf");
        let slot = p.server.add_class(weight.as_bps());
        p.children.push(id);
        p.backlogged.push(false);
        self.nodes.push(Node::new(Some((parent, slot)), leaf));
        id
    }

    /// Add an interior class under `parent` with the given weight.
    pub fn add_class(&mut self, parent: ClassId, weight: Rate) -> ClassId {
        self.attach(parent, weight, None)
    }

    /// Attach a flow as a leaf of `parent`.
    pub fn add_flow_to(&mut self, parent: ClassId, flow: FlowId, weight: Rate) {
        assert!(!self.flow_leaf.contains_key(&flow), "flow already attached");
        let id = self.attach(parent, weight, Some(Leaf::Flow(VecDeque::new())));
        self.flow_leaf.insert(flow, id);
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
    }

    /// Add a class under `parent` whose *internal* packet order is
    /// decided by an arbitrary nested discipline (e.g. Delay EDD for a
    /// service that separates delay from throughput, Section 3). The
    /// class still competes with its siblings under SFQ.
    pub fn add_scheduler_class(
        &mut self,
        parent: ClassId,
        weight: Rate,
        inner: Box<dyn Scheduler>,
    ) -> ClassId {
        self.attach(parent, weight, Some(Leaf::Nested(inner)))
    }

    /// The nested discipline of a scheduler class, panicking with
    /// `what` for any other class.
    fn nested_mut(&mut self, class: ClassId, what: &str) -> &mut dyn Scheduler {
        match &mut self.node_mut(class).leaf {
            Some(Leaf::Nested(inner)) => inner.as_mut(),
            _ => panic!("{what} requires a scheduler class"),
        }
    }

    /// Route a flow to a scheduler class *without* registering it —
    /// for nested disciplines configured before being handed to
    /// [`HierSfq::add_scheduler_class`] (e.g. Delay EDD with per-flow
    /// deadlines, which the plain `Scheduler::add_flow` cannot express).
    pub fn attach_configured_flow(&mut self, class: ClassId, flow: FlowId) {
        assert!(!self.flow_leaf.contains_key(&flow), "flow already attached");
        self.nested_mut(class, "attach_configured_flow");
        self.flow_leaf.insert(flow, class);
    }

    /// Virtual time of a class's own SFQ server (for tests/telemetry).
    pub fn class_virtual_time(&self, class: ClassId) -> Ratio {
        self.node(class).server.virtual_time()
    }

    /// Packets queued in a class's subtree.
    pub fn class_backlog(&self, class: ClassId) -> usize {
        self.node(class).subtree_backlog
    }

    /// Add `delta` packets to the backlog of `leaf` and of every
    /// ancestor, keeping each parent's flag for the child equal to
    /// "its subtree holds a packet".
    fn rebook(&mut self, leaf: ClassId, delta: isize) {
        let mut cur = leaf;
        loop {
            let node = self.node_mut(cur);
            node.subtree_backlog = node.subtree_backlog.wrapping_add_signed(delta);
            let busy = node.subtree_backlog > 0;
            let Some((parent, slot)) = node.parent else {
                return;
            };
            self.node_mut(parent).backlogged[slot] = busy;
            cur = parent;
        }
    }

    /// An event for `pkt` at `time` carrying `leaf`'s tags in its
    /// parent's server (its start if served now, and its last finish)
    /// and the root's virtual time.
    fn event(&self, time: SimTime, pkt: &Packet, leaf: ClassId) -> SchedEvent {
        let (start_tag, finish_tag) = match self.node(leaf).parent {
            Some((parent, slot)) => self.node(parent).server.tags(slot),
            None => (Ratio::ZERO, Ratio::ZERO),
        };
        SchedEvent {
            time,
            flow: pkt.flow,
            uid: pkt.uid,
            len: pkt.len,
            start_tag,
            finish_tag,
            v: self.class_virtual_time(self.root()),
        }
    }

    /// Drop a flow and all of its queued packets immediately, without
    /// the idle-only guard of [`Scheduler::remove_flow`] — including
    /// while a packet of the flow is mid-service (the in-flight packet
    /// has already been handed to the server and is unaffected).
    /// Returns the number of packets discarded.
    ///
    /// The flow's leaf node stays in the tree as a tombstone carrying
    /// its tag state (`ClassId`s are never reused), but the flow itself
    /// detaches: further packets are refused until it is re-registered.
    /// For flows routed to a nested scheduler class, the drop is
    /// delegated to the inner discipline; if the inner discipline does
    /// not support forced removal the flow stays attached.
    pub fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some(&leaf) = self.flow_leaf.get(&flow) else {
            return 0;
        };
        let dropped = match &mut self.node_mut(leaf).leaf {
            Some(Leaf::Nested(inner)) => {
                let dropped = inner.force_remove_flow(flow);
                if inner.backlog(flow) > 0 {
                    // Inner discipline refused: keep the routing intact
                    // so the retained packets stay reachable.
                    return 0;
                }
                dropped
            }
            Some(Leaf::Flow(queue)) => queue.drain(..).count(),
            None => 0,
        };
        self.flow_leaf.remove(&flow);
        self.rebook(leaf, -(dropped as isize));
        self.obs
            .on_flow_change(flow, &FlowChange::ForceRemoved { dropped });
        dropped
    }

    fn node(&self, id: ClassId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: ClassId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }
}

impl Default for HierSfq {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: SchedObserver> Scheduler for HierSfq<O> {
    /// Trait-level `add_flow` attaches the flow directly under the root,
    /// which makes a flat `HierSfq` behave exactly like [`crate::Sfq`].
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.add_flow_to(self.root(), flow, weight);
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("HierSfq: {e}"));
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        // A flow is bound to its leaf class: re-registration is refused
        // rather than treated as a weight update (the flat default).
        if self.flow_leaf.contains_key(&flow) {
            return Err(SchedError::DuplicateFlow(flow));
        }
        self.add_flow(flow, weight);
        Ok(())
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let Some(&leaf) = self.flow_leaf.get(&pkt.flow) else {
            return Err(SchedError::UnknownFlow(pkt.flow));
        };
        match &mut self.node_mut(leaf).leaf {
            // The nested discipline rejects before any tree state
            // changes, so a refused packet leaves the hierarchy intact.
            Some(Leaf::Nested(inner)) => inner.try_enqueue(now, pkt)?,
            Some(Leaf::Flow(queue)) => queue.push_back(pkt),
            None => unreachable!("flows are routed to leaf classes"),
        }
        self.rebook(leaf, 1);
        if self.obs.active() {
            let ev = self.event(now, &pkt, leaf);
            self.obs.on_enqueue(&ev);
        }
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        // Descend: each class serves the backlogged child with the
        // minimum start tag.
        let mut cur = self.root();
        let pkt = loop {
            let node = self.node_mut(cur);
            match &mut node.leaf {
                None => cur = node.children[node.server.pick(&node.backlogged)?],
                Some(Leaf::Flow(queue)) => break queue.pop_front(),
                Some(Leaf::Nested(inner)) => break inner.dequeue(now),
            }
        }?;
        self.rebook(cur, -1);
        self.served = Some(cur);
        // Unwind: every class on the path charges its chosen child for
        // the packet's actual length.
        let mut child = cur;
        while let Some((parent, slot)) = self.node(child).parent {
            self.node_mut(parent)
                .server
                .charge(slot, pkt.len.bits())
                .unwrap_or_else(|e| panic!("HierSfq: {e}"));
            child = parent;
        }
        if self.obs.active() {
            // The charge left the leaf's finish tag in place and moved
            // its parent's clock to the leaf's start tag.
            let mut ev = self.event(now, &pkt, cur);
            if let Some((parent, _)) = self.node(cur).parent {
                ev.start_tag = self.class_virtual_time(parent);
            }
            self.obs.on_dequeue(&ev);
        }
        Some(pkt)
    }

    fn on_departure(&mut self, now: SimTime) {
        let mut next = self.served.take();
        while let Some(id) = next {
            let node = self.node_mut(id);
            if node.subtree_backlog == 0 {
                // End of this class's busy period (algorithm step 2).
                node.server.on_idle();
            }
            if let Some(Leaf::Nested(inner)) = &mut node.leaf {
                inner.on_departure(now);
            }
            next = node.parent.map(|(parent, _)| parent);
        }
    }

    fn is_empty(&self) -> bool {
        self.node(self.root()).subtree_backlog == 0
    }

    fn len(&self) -> usize {
        self.node(self.root()).subtree_backlog
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.flow_leaf.get(&flow).map_or(0, |&leaf| {
            let node = self.node(leaf);
            match &node.leaf {
                Some(Leaf::Nested(inner)) => inner.backlog(flow),
                _ => node.subtree_backlog,
            }
        })
    }

    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        HierSfq::force_remove_flow(self, flow)
    }

    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let &leaf = self.flow_leaf.get(&flow)?;
        let pkt = match &mut self.node_mut(leaf).leaf {
            Some(Leaf::Nested(inner)) => inner.drop_head(flow)?,
            Some(Leaf::Flow(queue)) => queue.pop_front()?,
            None => return None,
        };
        self.rebook(leaf, -1);
        if self.obs.active() {
            let ev = self.event(pkt.arrival, &pkt, leaf);
            self.obs.on_drop(&ev);
        }
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        "H-SFQ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketFactory;
    use simtime::Bytes;

    /// Drain the scheduler completely, returning flow ids in service
    /// order (instantaneous service — order is what matters).
    fn drain(s: &mut HierSfq) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(p) = s.dequeue(SimTime::ZERO) {
            order.push(p.flow.0);
            s.on_departure(SimTime::ZERO);
        }
        order
    }

    #[test]
    fn flat_tree_matches_plain_sfq_order() {
        // Same scenario as the Sfq unit test: order must be identical.
        let mut h = HierSfq::new();
        h.add_flow(FlowId(1), Rate::bps(1_000));
        h.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        assert_eq!(drain(&mut h), vec![1, 2, 1]);
    }

    #[test]
    fn equal_weight_classes_interleave() {
        // root{A{f1}, B{f2}} with equal weights: strict alternation.
        let mut h = HierSfq::new();
        let a = h.add_class(h.root(), Rate::bps(1_000));
        let b = h.add_class(h.root(), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(1), Rate::bps(1_000));
        h.add_flow_to(b, FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..3 {
            h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        }
        assert_eq!(drain(&mut h), vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn weights_give_proportional_share() {
        // Flow 2 has twice the weight: in any service prefix it should
        // get about twice the packets of flow 1.
        let mut h = HierSfq::new();
        h.add_flow(FlowId(1), Rate::bps(1_000));
        h.add_flow(FlowId(2), Rate::bps(2_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..30 {
            h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        }
        let order = drain(&mut h);
        let first12 = &order[..12];
        let f2 = first12.iter().filter(|&&f| f == 2).count();
        let f1 = first12.iter().filter(|&&f| f == 1).count();
        assert_eq!(f1 + f2, 12);
        assert!((f2 as i32 - 2 * f1 as i32).abs() <= 2, "f1={f1} f2={f2}");
    }

    #[test]
    fn example3_subclass_fairness_when_sibling_activates() {
        // Example 3: root{A{C,D}, B}, all weights equal. While B is idle
        // C and D split the whole link; when B activates, A drops to 50%
        // but C and D must keep splitting A's share equally. We check
        // service-order fairness: in every window, C and D counts stay
        // within one packet of each other.
        let mut h = HierSfq::new();
        let a = h.add_class(h.root(), Rate::bps(1_000));
        h.add_flow_to(h.root(), FlowId(2), Rate::bps(1_000)); // class B = flow 2
        h.add_flow_to(a, FlowId(10), Rate::bps(1_000)); // C
        h.add_flow_to(a, FlowId(11), Rate::bps(1_000)); // D
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Phase 1: only C and D backlogged.
        for _ in 0..4 {
            h.enqueue(t0, pf.make(FlowId(10), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(11), Bytes::new(125), t0));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            let p = h.dequeue(t0).unwrap();
            order.push(p.flow.0);
            h.on_departure(t0);
        }
        // Phase 2: B activates with a burst; C, D also refilled.
        for _ in 0..6 {
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(10), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(11), Bytes::new(125), t0));
        }
        order.extend(drain(&mut h));
        // Across the whole run C and D must stay balanced in every prefix.
        let mut c = 0i32;
        let mut d = 0i32;
        for f in &order {
            match f {
                10 => c += 1,
                11 => d += 1,
                _ => {}
            }
            assert!((c - d).abs() <= 1, "C/D imbalance in prefix: c={c} d={d}");
        }
        // And B must get roughly half the link in phase 2 (12 A-packets
        // served against 6 B-packets would be 2:1 — equal class weights
        // mean alternation between A and B while both backlogged).
        let phase2 = &order[4..];
        let b_count = phase2.iter().filter(|&&f| f == 2).count();
        let a_count = phase2.iter().filter(|&&f| f == 10 || f == 11).count();
        // B stays backlogged until its 6 packets are done; during that
        // span A and B alternate.
        let first12 = &phase2[..12.min(phase2.len())];
        let b12 = first12.iter().filter(|&&f| f == 2).count();
        assert!(b12 >= 5, "B under-served while backlogged: {b12}/12");
        assert_eq!(b_count, 6);
        assert_eq!(a_count, phase2.len() - 6);
    }

    #[test]
    fn backlog_accounting() {
        let mut h = HierSfq::new();
        let a = h.add_class(h.root(), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        assert_eq!(h.len(), 2);
        assert_eq!(h.class_backlog(a), 2);
        assert_eq!(h.backlog(FlowId(1)), 2);
        let _ = h.dequeue(t0).unwrap();
        h.on_departure(t0);
        assert_eq!(h.len(), 1);
        let _ = h.dequeue(t0).unwrap();
        h.on_departure(t0);
        assert!(h.is_empty());
        assert!(h.dequeue(t0).is_none());
    }

    #[test]
    #[should_panic(expected = "unregistered flow")]
    fn unregistered_flow_panics() {
        let mut h = HierSfq::new();
        let mut pf = PacketFactory::new();
        let p = pf.make(FlowId(3), Bytes::new(10), SimTime::ZERO);
        h.enqueue(SimTime::ZERO, p);
    }

    #[test]
    #[should_panic(expected = "under a flow leaf")]
    fn cannot_nest_under_flow() {
        let mut h = HierSfq::new();
        h.add_flow(FlowId(1), Rate::bps(1));
        let leaf = ClassId(1);
        let _ = h.add_class(leaf, Rate::bps(1));
    }

    #[test]
    fn scheduler_class_orders_by_inner_discipline() {
        // A class whose inner discipline is plain SFQ but with inverted
        // weights relative to the outer tree: inner ordering must be
        // the inner scheduler's.
        let mut h = HierSfq::new();
        let mut inner = crate::Sfq::new();
        inner.add_flow(FlowId(1), Rate::bps(4_000)); // favored inside
        inner.add_flow(FlowId(2), Rate::bps(1_000));
        let class = h.add_scheduler_class(h.root(), Rate::bps(1_000), Box::new(inner));
        h.attach_configured_flow(class, FlowId(1));
        h.attach_configured_flow(class, FlowId(2));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        }
        assert_eq!(h.len(), 8);
        assert_eq!(h.backlog(FlowId(1)), 4);
        let order = drain(&mut h);
        // Inner SFQ with 4:1 weights: flow 1 gets ~4 of the first 5.
        let f1_first5 = order[..5].iter().filter(|&&f| f == 1).count();
        assert!(f1_first5 >= 3, "inner discipline ignored: {order:?}");
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn scheduler_class_competes_fairly_with_sibling_flow() {
        let mut h = HierSfq::new();
        let mut inner = crate::Sfq::new();
        inner.add_flow(FlowId(1), Rate::bps(1_000));
        let class = h.add_scheduler_class(h.root(), Rate::bps(1_000), Box::new(inner));
        h.attach_configured_flow(class, FlowId(1));
        h.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..3 {
            h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        }
        let order = drain(&mut h);
        // Equal outer weights: strict alternation between the class and
        // the plain flow.
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn hierarchy_nests_inside_scheduler_class() {
        // A HierSfq as the inner discipline of a class: three levels of
        // link sharing exercised through one dequeue path.
        let mut inner = HierSfq::new();
        let sub = inner.add_class(inner.root(), Rate::bps(1_000));
        inner.add_flow_to(sub, FlowId(1), Rate::bps(1_000));
        inner.add_flow_to(inner.root(), FlowId(2), Rate::bps(1_000));

        let mut outer = HierSfq::new();
        let class = outer.add_scheduler_class(outer.root(), Rate::bps(1_000), Box::new(inner));
        outer.attach_configured_flow(class, FlowId(1));
        outer.attach_configured_flow(class, FlowId(2));
        outer.add_flow(FlowId(3), Rate::bps(1_000));

        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..2 {
            outer.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            outer.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
            outer.enqueue(t0, pf.make(FlowId(3), Bytes::new(125), t0));
        }
        let order = drain(&mut outer);
        assert_eq!(order.len(), 6);
        // Outer alternates class vs flow 3; inner alternates 1 vs 2.
        let f3: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &f)| f == 3)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(f3, vec![1, 3], "flow 3 must interleave: {order:?}");
        let inner_order: Vec<u32> = order.iter().copied().filter(|&f| f != 3).collect();
        assert_eq!(inner_order, vec![1, 2, 1, 2], "inner unfair: {order:?}");
    }

    #[test]
    #[should_panic(expected = "requires a scheduler class")]
    fn attach_configured_flow_to_plain_class_panics() {
        let mut h = HierSfq::new();
        let c = h.add_class(h.root(), Rate::bps(1));
        h.attach_configured_flow(c, FlowId(1));
    }

    #[test]
    fn arrival_mid_service_gets_continuation_tag() {
        // A packet arriving while its flow's previous packet is in
        // service must continue from F_prev, not restart at v.
        let mut h = HierSfq::new();
        h.add_flow(FlowId(1), Rate::bps(1_000));
        h.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        let _ = h.dequeue(t0).unwrap(); // flow1 pkt in service
                                        // flow1 sends another while in service; flow2 sends one too.
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
        h.on_departure(t0);
        // flow2's S = v = 0 < flow1's continuation S = 1: flow2 first.
        let p = h.dequeue(t0).unwrap();
        assert_eq!(p.flow, FlowId(2));
    }
}
