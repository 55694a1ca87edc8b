//! Hierarchical SFQ link sharing (Section 3 of the paper).
//!
//! The link-sharing structure is a tree of *classes*; each node uses SFQ
//! to schedule its children, treating every subclass as a flow. Flows
//! are leaf classes. Every interior class runs the one class-level SFQ
//! server, [`RootSfq`], with a child's position among its siblings as
//! its class index, so ties go to the lower [`ClassId`]. Scheduling is
//! recursive: the root picks the backlogged child with the minimum start
//! tag, that child picks among its own children, and so on down to a
//! leaf. When the length `l` of what the leaf sent is known, every class
//! on the path charges its chosen child `F = S + l / r_child`; a child
//! still backlogged competes next at `S = F` — exactly the
//! continuously-backlogged case of Eq. 4.
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
//! One dense [`FlowMap`] routes each flow to its leaf class. A scheduler
//! class (`add_scheduler_class`) sends from a nested discipline of type
//! `L`: a `Box<dyn Scheduler>` by default, or one concrete type,
//! statically dispatched — the sharded engine is a depth-1 tree whose
//! scheduler classes are its shards.
//!
//! The tree has one dequeue: descend, pull up to `k` packets from the
//! leaf reached, and charge their summed bits up the path. At `k = 1`
//! it is [`Scheduler::dequeue`], whose departure
//! [`Scheduler::on_departure`] reports later; [`HierSfq::drain`] pulls
//! batches that depart at once, the engine's rule. A class server's
//! [`SchedError::TagOverflow`] comes back from `drain` and
//! `try_dequeue`; only `dequeue` panics on it.

use crate::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use crate::packet::{FlowId, Packet};
use crate::pool::FlowMap;
use crate::root::RootSfq;
use crate::sched::{SchedError, Scheduler};
use simtime::{Rate, Ratio, SimTime};
use std::collections::VecDeque;

/// Identifier of a class in the link-sharing tree. The root is created
/// by [`HierSfq::new`] and returned by [`HierSfq::root`]; the classes
/// added after it are numbered from 1 in the order they were added.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

/// What a leaf class sends from.
enum Leaf<L> {
    /// A flow's FIFO.
    Flow(VecDeque<Packet>),
    /// A nested discipline ordering the class's own packets (Section 3:
    /// different services may use different resource-allocation
    /// methods).
    Nested(L),
}

struct Node<L> {
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
    leaf: Option<Leaf<L>>,
}

impl<L> Node<L> {
    fn new(parent: Option<(ClassId, usize)>, leaf: Option<Leaf<L>>) -> Self {
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

/// A flow's leaf class and the weight it was routed at, packed so that
/// a flow-table entry is 16 bytes.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Route {
    class: ClassId,
    weight: Rate,
}

/// Hierarchical SFQ scheduler over a link-sharing tree, reporting to
/// the observer `O` and nesting disciplines of type `L` in its scheduler
/// classes.
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
/// per-packet tag of its own. Every packet of a batch carries the tags
/// of the batch's one charge.
pub struct HierSfq<O: SchedObserver = NoopObserver, L: Scheduler = Box<dyn Scheduler>> {
    nodes: Vec<Node<L>>,
    flows: FlowMap<Route>,
    /// Leaf of the most recent pull: `on_departure` walks up from it
    /// to close the busy periods of the classes the packets emptied.
    served: Option<ClassId>,
    /// Scratch for the single-packet `try_dequeue`.
    one: Vec<Packet>,
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
        Self::nesting(obs)
    }
}

impl<O: SchedObserver, L: Scheduler> HierSfq<O, L> {
    /// New tree reporting events to `obs` whose scheduler classes nest
    /// disciplines of type `L`.
    pub fn nesting(obs: O) -> Self {
        HierSfq {
            nodes: vec![Node::new(None, None)],
            flows: FlowMap::new(),
            served: None,
            one: Vec::new(),
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
    fn attach(&mut self, parent: ClassId, weight: Rate, leaf: Option<Leaf<L>>) -> ClassId {
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
        assert!(weight.as_bps() > 0, "class weight must be positive");
        self.attach(parent, weight, None)
    }

    /// Attach a flow as a leaf of `parent`, or move the weight of a flow
    /// attached there already: the tree charges a class at dequeue, so
    /// the new rate applies from the leaf's next charge on. Panics if
    /// the flow is attached to another class.
    pub fn add_flow_to(&mut self, parent: ClassId, flow: FlowId, weight: Rate) {
        assert!(weight.as_bps() > 0, "class weight must be positive");
        if let Some(&Route { class, .. }) = self.flows.get(flow) {
            let here = self.node(class).parent.is_some_and(|(p, _)| p == parent);
            assert!(
                here && matches!(self.node(class).leaf, Some(Leaf::Flow(_))),
                "flow already attached to another class"
            );
            _ = self.update_flow(flow, weight);
            return;
        }
        let class = self.attach(parent, weight, Some(Leaf::Flow(VecDeque::new())));
        self.flows.insert(flow, Route { class, weight });
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
    }

    /// Re-register a routed flow at `weight`, in place: a flow leaf's
    /// rate at its parent's server ([`RootSfq::reweigh`]), or a
    /// scheduler class's nested registration (its `try_add_flow`, whose
    /// error comes back with nothing changed); then the route.
    fn update_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        let Some(&Route { class, weight: old }) = self.flows.get(flow) else {
            return Err(SchedError::UnknownFlow(flow));
        };
        let node = self.node_mut(class);
        match (&mut node.leaf, node.parent) {
            (Some(Leaf::Nested(inner)), _) => inner.try_add_flow(flow, weight)?,
            (_, Some((parent, slot))) => {
                let server = self.server_mut(parent);
                server.reweigh(slot, old.as_bps(), weight.as_bps());
                self.obs.on_flow_change(flow, &FlowChange::Added { weight });
            }
            (_, None) => unreachable!("flows are routed to leaf classes"),
        }
        self.flows.insert(flow, Route { class, weight });
        Ok(())
    }

    /// Add a class under `parent` whose *internal* packet order is
    /// decided by an arbitrary nested discipline (e.g. Delay EDD for a
    /// service that separates delay from throughput, Section 3). The
    /// class still competes with its siblings under SFQ. A class of
    /// weight zero is never served until its parent's server gives it
    /// one ([`HierSfq::server_mut`]).
    pub fn add_scheduler_class(&mut self, parent: ClassId, weight: Rate, inner: L) -> ClassId {
        self.attach(parent, weight, Some(Leaf::Nested(inner)))
    }

    /// The nested discipline of a scheduler class; `None` for any other
    /// class.
    pub fn scheduler_mut(&mut self, class: ClassId) -> Option<&mut L> {
        match &mut self.node_mut(class).leaf {
            Some(Leaf::Nested(inner)) => Some(inner),
            _ => None,
        }
    }

    /// Route a flow to a scheduler class *without* registering it —
    /// for nested disciplines configured before being handed to
    /// [`HierSfq::add_scheduler_class`] (e.g. Delay EDD with per-flow
    /// deadlines, which the plain `Scheduler::add_flow` cannot express).
    pub fn attach_configured_flow(&mut self, class: ClassId, flow: FlowId) {
        assert!(!self.flows.contains(flow), "flow already attached");
        self.route_flow(class, flow, Rate::bps(0));
    }

    /// Route `flow` to the scheduler class `class`, recording `weight`
    /// as the rate its discipline was given for it (again, for a flow
    /// routed there before). Returns the weight it was routed at
    /// before, if it was. Registering the flow with the discipline is
    /// the caller's. Panics for any other class, or if the flow is
    /// attached to another class.
    pub fn route_flow(&mut self, class: ClassId, flow: FlowId, weight: Rate) -> Option<Rate> {
        assert!(
            self.scheduler_mut(class).is_some(),
            "routing a flow requires a scheduler class"
        );
        let old = self.flows.insert(flow, Route { class, weight });
        assert!(
            old.is_none_or(|r| r.class == class),
            "flow already attached to another class"
        );
        old.map(|r| r.weight)
    }

    /// The leaf class `flow` is routed to and the weight it was routed
    /// at (zero for [`HierSfq::attach_configured_flow`]).
    pub fn route(&self, flow: FlowId) -> Option<(ClassId, Rate)> {
        self.flows.get(flow).map(|r| (r.class, r.weight))
    }

    /// The SFQ server a class runs over its children.
    pub fn server(&self, class: ClassId) -> &RootSfq {
        &self.node(class).server
    }

    /// The SFQ server a class runs over its children, mutably: to move
    /// a child's weight ([`RootSfq::reweigh`]) or override it
    /// ([`RootSfq::set_shard_weight`]).
    pub fn server_mut(&mut self, class: ClassId) -> &mut RootSfq {
        &mut self.node_mut(class).server
    }

    /// The tree's one enqueue routine, with a backlog bound: refuse
    /// `pkt` with [`SchedError::UnknownFlow`] if its flow is not routed,
    /// with [`SchedError::BufferFull`] if its leaf class already holds
    /// `bound` packets, and otherwise queue it there. One flow-table
    /// lookup serves both checks. `Scheduler::try_enqueue` is this
    /// routine with no bound; the engine bounds each shard by its
    /// `ring_capacity`.
    pub fn try_enqueue_within(
        &mut self,
        now: SimTime,
        pkt: Packet,
        bound: usize,
    ) -> Result<(), SchedError> {
        let Some(&Route { class, .. }) = self.flows.get(pkt.flow) else {
            return Err(SchedError::UnknownFlow(pkt.flow));
        };
        if self.class_backlog(class) >= bound {
            return Err(SchedError::BufferFull(pkt.flow));
        }
        match &mut self.node_mut(class).leaf {
            // The nested discipline rejects before any tree state
            // changes, so a refused packet leaves the hierarchy intact.
            Some(Leaf::Nested(inner)) => inner.try_enqueue(now, pkt)?,
            Some(Leaf::Flow(queue)) => queue.push_back(pkt),
            None => unreachable!("flows are routed to leaf classes"),
        }
        self.rebook(class, 1);
        if self.obs.active() {
            let ev = self.event(now, &pkt, class);
            self.obs.on_enqueue(&ev);
        }
        Ok(())
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
            Some((parent, slot)) => self.server(parent).tags(slot),
            None => (Ratio::ZERO, Ratio::ZERO),
        };
        SchedEvent {
            time,
            flow: pkt.flow,
            uid: pkt.uid,
            len: pkt.len,
            start_tag,
            finish_tag,
            v: self.server(self.root()).virtual_time(),
        }
    }

    /// The one dequeue (module docs): pull up to `k` packets into `out`
    /// and return how many. A nested discipline gives one packet by
    /// `dequeue`, its departure left to `on_departure`, and more by
    /// `dequeue_batch`, which departs each. On a charge's error the
    /// packets are in `out`, off the books and departed, and no busy
    /// period closes.
    fn pull(&mut self, now: SimTime, k: usize, out: &mut Vec<Packet>) -> Result<usize, SchedError> {
        let before = out.len();
        let mut cur = self.root();
        loop {
            let node = self.node_mut(cur);
            match &mut node.leaf {
                None => match node.server.pick(&node.backlogged) {
                    Some(i) => cur = node.children[i],
                    None => return Ok(0),
                },
                Some(Leaf::Flow(queue)) => {
                    out.extend(queue.drain(..k.min(queue.len())));
                    break;
                }
                Some(Leaf::Nested(inner)) if k == 1 => {
                    out.extend(inner.dequeue(now));
                    break;
                }
                Some(Leaf::Nested(inner)) => {
                    inner.dequeue_batch(now, k, out);
                    break;
                }
            }
        }
        let n = out.len() - before;
        if n == 0 {
            return Ok(0);
        }
        self.rebook(cur, -(n as isize));
        let bits = out[before..].iter().map(|p| p.len.bits()).sum();
        let mut child = cur;
        while let Some((parent, slot)) = self.node(child).parent {
            if let Err(e) = self.server_mut(parent).charge(slot, bits) {
                // Nothing is in service: the packets depart at once.
                if let Some(Leaf::Nested(inner)) = &mut self.node_mut(cur).leaf {
                    inner.on_departure(now);
                }
                return Err(e);
            }
            child = parent;
        }
        self.served = Some(cur);
        if self.obs.active() {
            // The charge left the leaf's finish tag in place and moved
            // its parent's clock to the leaf's start tag.
            for pkt in &out[before..] {
                let mut ev = self.event(now, pkt, cur);
                if let Some((parent, _)) = self.node(cur).parent {
                    ev.start_tag = self.server(parent).virtual_time();
                }
                self.obs.on_dequeue(&ev);
            }
        }
        Ok(n)
    }

    /// Drain up to `max` packets at `now` into `out`, `batch` a pull,
    /// each pull charged as one "packet" and departing at once (the
    /// model of [`Scheduler::dequeue_batch`]): `batch = 1` is the
    /// per-packet schedule. Returns the number drained, or a pull's
    /// [`SchedError::TagOverflow`] (its packets are in `out`).
    pub fn drain(
        &mut self,
        now: SimTime,
        max: usize,
        batch: usize,
        out: &mut Vec<Packet>,
    ) -> Result<usize, SchedError> {
        let mut n = 0;
        while n < max {
            match self.pull(now, batch.min(max - n), out)? {
                0 => break,
                k => n += k,
            }
            self.on_departure(now);
        }
        Ok(n)
    }

    fn node(&self, id: ClassId) -> &Node<L> {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: ClassId) -> &mut Node<L> {
        &mut self.nodes[id.0 as usize]
    }
}

impl Default for HierSfq {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: SchedObserver, L: Scheduler> Scheduler for HierSfq<O, L> {
    /// Trait-level `add_flow` attaches a new flow directly under the
    /// root, which makes a flat `HierSfq` behave exactly like
    /// [`crate::Sfq`]; a registered flow keeps its class and takes the
    /// new weight in place.
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.try_add_flow(flow, weight)
            .unwrap_or_else(|e| panic!("HierSfq: {e}"));
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("HierSfq: {e}"));
    }

    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        if self.flows.contains(flow) {
            return self.update_flow(flow, weight);
        }
        self.add_flow_to(self.root(), flow, weight);
        Ok(())
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.try_enqueue_within(now, pkt, usize::MAX)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.try_dequeue(now)
            .unwrap_or_else(|e| panic!("HierSfq: {e}"))
    }

    /// A pull of one packet; see [`HierSfq::drain`] for the error.
    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        let mut one = std::mem::take(&mut self.one);
        let res = self.pull(now, 1, &mut one);
        let pkt = one.pop();
        self.one = one;
        res.map(|_| pkt)
    }

    /// Close the busy period of every class on the served path left
    /// empty (algorithm step 2), telling a nested discipline of the
    /// departure. With nothing served since, the walk is the root's.
    fn on_departure(&mut self, now: SimTime) {
        let mut next = Some(self.served.take().unwrap_or(self.root()));
        while let Some(id) = next {
            let node = self.node_mut(id);
            if node.subtree_backlog == 0 {
                node.server.on_idle();
            }
            if let Some(Leaf::Nested(inner)) = &mut node.leaf {
                inner.on_departure(now);
            }
            next = node.parent.map(|(parent, _)| parent);
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        self.class_backlog(self.root())
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.flows.get(flow).map_or(0, |&Route { class, .. }| {
            let node = self.node(class);
            match &node.leaf {
                Some(Leaf::Nested(inner)) => inner.backlog(flow),
                _ => node.subtree_backlog,
            }
        })
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
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        let Some(&Route { class, .. }) = self.flows.get(flow) else {
            return 0;
        };
        let dropped = match &mut self.node_mut(class).leaf {
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
        self.flows.remove(flow);
        self.rebook(class, -(dropped as isize));
        self.obs
            .on_flow_change(flow, &FlowChange::ForceRemoved { dropped });
        dropped
    }

    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        let &Route { class, .. } = self.flows.get(flow)?;
        let pkt = match &mut self.node_mut(class).leaf {
            Some(Leaf::Nested(inner)) => inner.drop_head(flow)?,
            Some(Leaf::Flow(queue)) => queue.pop_front()?,
            None => return None,
        };
        self.rebook(class, -1);
        if self.obs.active() {
            let ev = self.event(pkt.arrival, &pkt, class);
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
    use crate::SfqFast;
    use proptest::prelude::*;
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

    /// Re-registration is the trait's weight update: a flow leaf's rate
    /// at its parent's server moves in place (3:1 from the next charge
    /// on), and a flow routed to a scheduler class is re-registered with
    /// the nested discipline (4:1 the other way round inside it).
    #[test]
    fn re_registration_moves_the_weight_in_place() {
        let mut h = HierSfq::new();
        let a = h.add_class(h.root(), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(1), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(2), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(1), Rate::bps(3_000));
        assert_eq!(h.try_add_flow(FlowId(2), Rate::bps(1_000)), Ok(()));
        assert_eq!(h.route(FlowId(1)), Some((ClassId(2), Rate::bps(3_000))));
        let mut inner = crate::Sfq::new();
        inner.add_flow(FlowId(3), Rate::bps(4_000));
        inner.add_flow(FlowId(4), Rate::bps(1_000));
        let class = h.add_scheduler_class(h.root(), Rate::bps(1_000), Box::new(inner));
        h.attach_configured_flow(class, FlowId(3));
        h.attach_configured_flow(class, FlowId(4));
        h.add_flow(FlowId(3), Rate::bps(1_000));
        h.add_flow(FlowId(4), Rate::bps(4_000));
        assert_eq!(h.route(FlowId(4)), Some((class, Rate::bps(4_000))));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            for f in 1..=4 {
                h.enqueue(t0, pf.make(FlowId(f), Bytes::new(125), t0));
            }
        }
        let order = drain(&mut h);
        let count = |f, n: usize| order[..n].iter().filter(|&&g| g == f).count();
        assert_eq!((count(1, 8), count(2, 8)), (3, 1), "{order:?}");
        assert_eq!((count(4, 10), count(3, 10)), (4, 1), "{order:?}");
    }

    #[test]
    #[should_panic(expected = "attached to another class")]
    fn add_flow_to_refuses_a_flow_of_another_class() {
        let mut h = HierSfq::new();
        let a = h.add_class(h.root(), Rate::bps(1_000));
        h.add_flow_to(a, FlowId(1), Rate::bps(1_000));
        h.add_flow_to(h.root(), FlowId(1), Rate::bps(1_000));
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

    #[test]
    fn a_class_tag_overflow_comes_back_as_an_error() {
        // Flow 1 at 1 bps takes `v` past 2^64 with 2^63-bit packets;
        // flow 2's weight is a 63-bit prime, so its next finish tag
        // needs a numerator past `i128`.
        let (t0, huge) = (SimTime::ZERO, Bytes::new(1 << 60));
        let mut pf = PacketFactory::new();
        let mut tree = || {
            let mut h = HierSfq::new();
            h.add_flow(FlowId(1), Rate::bps(1));
            h.add_flow(FlowId(2), Rate::bps((1 << 63) - 25));
            for f in [1, 1, 1, 2] {
                h.enqueue(t0, pf.make(FlowId(f), huge, t0));
            }
            assert_eq!(drain(&mut h), vec![1, 2, 1, 1]);
            h.enqueue(t0, pf.make(FlowId(2), huge, t0));
            h
        };
        assert_eq!(tree().try_dequeue(t0), Err(SchedError::TagOverflow));
        let (mut h, mut out) = (tree(), Vec::new());
        assert_eq!(h.drain(t0, 1, 8, &mut out), Err(SchedError::TagOverflow));
        assert_eq!(out.len(), 1, "the pulled packet is handed out");
        assert!(h.is_empty());
    }

    /// Every event a tree reports, in order.
    #[derive(Default)]
    struct Events(Vec<(char, SchedEvent)>);

    impl SchedObserver for Events {
        fn on_enqueue(&mut self, ev: &SchedEvent) {
            self.0.push(('E', *ev));
        }
        fn on_dequeue(&mut self, ev: &SchedEvent) {
            self.0.push(('D', *ev));
        }
        fn on_drop(&mut self, ev: &SchedEvent) {
            self.0.push(('X', *ev));
        }
    }

    /// A class of a random tree: its parent (an index into the classes
    /// built so far, 0 the root), its weight, and what it is.
    #[derive(Clone, Debug)]
    enum Kind {
        Interior,
        Flow,
        /// A nested `SfqFast` over flows of these weights.
        Nested(Vec<u64>),
    }

    /// SplitMix64 step.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A tree of depth at most 3 and fan-out at most 8 from `seed`.
    fn random_tree(seed: u64) -> Vec<(usize, u64, Kind)> {
        let mut rng = seed;
        let mut pick = |n: u64| mix(&mut rng) % n;
        let mut classes = Vec::new();
        let mut open = vec![(0usize, 0u32)];
        while let Some((parent, depth)) = open.pop() {
            for _ in 0..=pick(8) {
                let kind = match pick(if depth < 2 { 3 } else { 2 }) {
                    0 => Kind::Flow,
                    1 => Kind::Nested((0..=pick(3)).map(|_| 1 + pick(5_000)).collect()),
                    _ => Kind::Interior,
                };
                if let Kind::Interior = kind {
                    open.push((classes.len() + 1, depth + 1));
                }
                classes.push((parent, 1 + pick(5_000), kind));
            }
        }
        classes
    }

    /// Build `spec` with nested leaves made by `leaf`; returns the tree
    /// and its flows.
    fn build<L: Scheduler>(
        spec: &[(usize, u64, Kind)],
        leaf: fn(SfqFast) -> L,
    ) -> (HierSfq<Events, L>, Vec<FlowId>) {
        let mut h = HierSfq::nesting(Events::default());
        let mut ids = vec![h.root()];
        let mut flows = Vec::new();
        for (parent, weight, kind) in spec {
            let (parent, weight) = (ids[*parent], Rate::bps(*weight));
            ids.push(match kind {
                Kind::Interior => h.add_class(parent, weight),
                Kind::Flow => {
                    let flow = FlowId(flows.len() as u32);
                    flows.push(flow);
                    h.add_flow_to(parent, flow, weight);
                    parent
                }
                Kind::Nested(rates) => {
                    let ids = flows.len()..flows.len() + rates.len();
                    let routes: Vec<_> = ids.map(|f| FlowId(f as u32)).zip(rates).collect();
                    let mut inner = SfqFast::new();
                    for &(flow, &r) in &routes {
                        inner.add_flow(flow, Rate::bps(r));
                    }
                    let class = h.add_scheduler_class(parent, weight, leaf(inner));
                    for (flow, &r) in routes {
                        flows.push(flow);
                        h.route_flow(class, flow, Rate::bps(r));
                    }
                    class
                }
            });
        }
        (h, flows)
    }

    #[derive(Clone, Debug)]
    enum Op {
        Enqueue(usize, u64),
        Dequeue,
        Depart,
        Drain(usize, usize),
        DropHead(usize),
        Remove(usize),
    }

    /// An op drawn six parts enqueue, three dequeue, three departure,
    /// two drain, one eviction and one removal.
    fn op() -> impl Strategy<Value = Op> {
        let draw = (
            0u8..16,
            0usize..1 << 16,
            40u64..1_500,
            1usize..40,
            1usize..9,
        );
        draw.prop_map(|(kind, f, len, max, batch)| match kind {
            0..=5 => Op::Enqueue(f, len),
            6..=8 => Op::Dequeue,
            9..=11 => Op::Depart,
            12 | 13 => Op::Drain(max, batch),
            14 => Op::DropHead(f),
            _ => Op::Remove(f),
        })
    }

    /// Departures by uid; refused and evicted uids and removal counts;
    /// every observer event; the root's clock.
    type Seen = (Vec<u64>, Vec<u64>, Vec<(char, SchedEvent)>, Ratio);

    /// Everything a run of `ops` shows.
    fn run<L: Scheduler>((mut h, flows): (HierSfq<Events, L>, Vec<FlowId>), ops: &[Op]) -> Seen {
        let mut pf = PacketFactory::new();
        let (mut out, mut gone) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for op in ops {
            now += simtime::SimDuration::from_nanos(1_000);
            match *op {
                Op::Enqueue(f, len) => {
                    let pkt = pf.make(flows[f % flows.len()], Bytes::new(len), now);
                    if h.try_enqueue(now, pkt).is_err() {
                        gone.push(pkt.uid);
                    }
                }
                Op::Dequeue => out.extend(h.dequeue(now)),
                Op::Depart => h.on_departure(now),
                Op::Drain(max, batch) => {
                    h.drain(now, max, batch, &mut out).unwrap();
                }
                Op::DropHead(f) => gone.extend(h.drop_head(flows[f % flows.len()]).map(|p| p.uid)),
                Op::Remove(f) => gone.push(h.force_remove_flow(flows[f % flows.len()]) as u64),
            }
        }
        let v = h.server(h.root()).virtual_time();
        let uids = out.iter().map(|p| p.uid).collect();
        (uids, gone, h.into_observer().0, v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random trees over monomorphic `SfqFast` leaves schedule and
        /// report exactly as the same trees over boxed ones, through
        /// per-packet dequeues, batch drains, evictions and removals.
        #[test]
        fn monomorphic_leaves_match_boxed_leaves(
            seed in 0u64..u64::MAX,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let spec = random_tree(seed);
            let mono = run(build(&spec, |s| s), &ops);
            let boxed = run(build(&spec, |s| Box::new(s) as Box<dyn Scheduler>), &ops);
            prop_assert_eq!(mono, boxed);
        }

        /// A depth-1 tree of `SfqFast` classes drained `batch` at a time
        /// is the hand-driven root it replaced: pick a class, pull a
        /// batch from it, charge the batch's bits, and end the busy
        /// period when a drain leaves every class empty.
        #[test]
        fn batch_pull_matches_a_hand_driven_root(
            classes in 1usize..5,
            batch in 2usize..9,
            rates in prop::collection::vec(1u64..5_000, 1..12),
            ops in prop::collection::vec(
                (0u8..4, 0usize..1 << 16, 40u64..1_500, 1usize..70).prop_map(|(kind, f, len, max)| {
                    if kind == 0 { Op::Drain(max, 0) } else { Op::Enqueue(f, len) }
                }),
                1..200,
            ),
        ) {
            let mut tree: HierSfq<NoopObserver, SfqFast> = HierSfq::nesting(NoopObserver);
            *tree.server_mut(ClassId(0)) = RootSfq::new(0, Some(96));
            let mut leaves: Vec<SfqFast> = (0..classes).map(|_| SfqFast::new()).collect();
            let mut root = RootSfq::new(classes, Some(96));
            for _ in 0..classes {
                tree.add_scheduler_class(tree.root(), Rate::bps(0), SfqFast::new());
            }
            for (f, &r) in rates.iter().enumerate() {
                let (flow, c) = (FlowId(f as u32), f % classes);
                let class = ClassId(c as u32 + 1);
                tree.scheduler_mut(class).unwrap().add_flow(flow, Rate::bps(r));
                tree.route_flow(class, flow, Rate::bps(r));
                tree.server_mut(ClassId(0)).reweigh(c, 0, r);
                leaves[c].add_flow(flow, Rate::bps(r));
                root.reweigh(c, 0, r);
            }
            let mut pf = PacketFactory::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for op in &ops {
                now += simtime::SimDuration::from_nanos(1_000);
                match *op {
                    Op::Enqueue(f, len) => {
                        let pkt = pf.make(FlowId((f % rates.len()) as u32), Bytes::new(len), now);
                        tree.enqueue(now, pkt);
                        leaves[f % rates.len() % classes].enqueue(now, pkt);
                    }
                    Op::Drain(max, _) => {
                        tree.drain(now, max, batch, &mut got).unwrap();
                        tree.on_departure(now);
                        let mut n = 0;
                        while n < max {
                            let busy: Vec<bool> = leaves.iter().map(|l| !l.is_empty()).collect();
                            let Some(c) = root.pick(&busy) else { break };
                            let before = want.len();
                            n += leaves[c].dequeue_batch(now, batch.min(max - n), &mut want);
                            let bits = want[before..].iter().map(|p: &Packet| p.len.bits()).sum();
                            root.charge(c, bits).unwrap();
                        }
                        if leaves.iter().all(SfqFast::is_empty) {
                            root.on_idle();
                        }
                    }
                    _ => unreachable!(),
                }
                prop_assert_eq!(&got, &want);
                let server = tree.server(tree.root());
                prop_assert_eq!(server.virtual_time(), root.virtual_time());
                prop_assert_eq!(server.rebases(), root.rebases());
            }
        }
    }
}
