//! Pooled packet storage for the forwarding graph.
//!
//! Every packet that enters the graph is allocated one slab slot
//! ([`sfq_core::SlabPool`]) and travels node-to-node as a [`PktRef`]
//! handle — no per-hop copies. A slot is freed synchronously by
//! whichever node ends its packet's life: a node that kills it
//! mid-graph (a policer, a full port, a churned flow) through
//! [`PktArena::free`], a transmit sink that delivers it through
//! [`PktArena::free_sink`]. The arena keeps the disposition books —
//! every allocation is eventually a local free, a sink free, or still
//! in use — and [`ArenaAudit`] states the balance, which the
//! pool-accounting suite checks after every graph run.

use sfq_core::{Packet, PktPool, PktRef, SlabPool};

/// Slab-backed packet arena shared by every node of one graph.
pub struct PktArena {
    pool: SlabPool<Packet>,
    allocated: u64,
    freed_local: u64,
    freed_sink: u64,
}

impl PktArena {
    /// Unbounded arena.
    pub fn new() -> Self {
        Self::with_limit(None)
    }

    /// Arena refusing allocations beyond `limit` slots (`None` =
    /// unbounded). A refused allocation is the graph-level analogue of
    /// a NIC running out of rx descriptors.
    pub fn with_limit(limit: Option<usize>) -> Self {
        let mut pool = SlabPool::new();
        pool.set_limit(limit);
        PktArena {
            pool,
            allocated: 0,
            freed_local: 0,
            freed_sink: 0,
        }
    }

    /// Allocate a slot for `pkt`, or `None` when the slot cap is
    /// reached.
    pub fn try_alloc(&mut self, pkt: Packet) -> Option<PktRef> {
        let h = self.pool.try_alloc(pkt)?;
        self.allocated += 1;
        Some(h)
    }

    /// Free a slot synchronously (mid-graph packet death), returning
    /// the packet that occupied it.
    pub fn free(&mut self, h: PktRef) -> Packet {
        self.freed_local += 1;
        self.pool.free(h)
    }

    /// Free the slot of a delivered packet (a transmit sink's free),
    /// returning the packet that occupied it.
    pub fn free_sink(&mut self, h: PktRef) -> Packet {
        self.freed_sink += 1;
        self.pool.free(h)
    }

    /// Read the packet in slot `h`.
    pub fn get(&self, h: PktRef) -> &Packet {
        self.pool.get(h)
    }

    /// Mutate the packet in slot `h` (ports re-stamp `arrival` here).
    pub fn get_mut(&mut self, h: PktRef) -> &mut Packet {
        self.pool.get_mut(h)
    }

    /// Snapshot the disposition books.
    pub fn audit(&self) -> ArenaAudit {
        ArenaAudit {
            allocated: self.allocated,
            freed_local: self.freed_local,
            freed_sink: self.freed_sink,
            in_use: self.pool.in_use(),
            slots: self.pool.slots(),
            high_water: self.pool.high_water(),
        }
    }
}

impl Default for PktArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The arena's disposition books at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaAudit {
    /// Slots ever handed out.
    pub allocated: u64,
    /// Slots freed synchronously by nodes (policer drops, port
    /// refusals/evictions, churn, unrouted packets).
    pub freed_local: u64,
    /// Slots freed by transmit sinks on delivery.
    pub freed_sink: u64,
    /// Slots currently allocated (queued or in-flight packets).
    pub in_use: usize,
    /// Total slots the pool ever created.
    pub slots: usize,
    /// Peak concurrent allocation.
    pub high_water: usize,
}

impl ArenaAudit {
    /// The balance identity: every allocation is a local free, a sink
    /// free, or still in use. Holds at *any* instant; a violation means
    /// a node leaked or double-freed a slot.
    pub fn balanced(&self) -> bool {
        self.allocated == self.freed_local + self.freed_sink + self.in_use as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{FlowId, PacketFactory};
    use simtime::{Bytes, SimTime};

    #[test]
    fn books_balance_across_both_free_paths() {
        let mut arena = PktArena::new();
        let mut pf = PacketFactory::new();
        let mk = |pf: &mut PacketFactory| pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO);
        let a = arena.try_alloc(mk(&mut pf)).unwrap();
        let b = arena.try_alloc(mk(&mut pf)).unwrap();
        let c = arena.try_alloc(mk(&mut pf)).unwrap();
        arena.free(a);
        arena.free_sink(b);
        arena.free(c);
        let audit = arena.audit();
        assert_eq!(audit.in_use, 0);
        assert_eq!(audit.freed_local, 2);
        assert_eq!(audit.freed_sink, 1);
        assert!(audit.balanced());
    }

    #[test]
    fn slot_cap_refuses_then_recovers() {
        let mut arena = PktArena::with_limit(Some(1));
        let mut pf = PacketFactory::new();
        let mk = |pf: &mut PacketFactory| pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO);
        let a = arena.try_alloc(mk(&mut pf)).unwrap();
        assert!(arena.try_alloc(mk(&mut pf)).is_none());
        // A sink free makes the slot allocatable again without growing
        // the pool.
        arena.free_sink(a);
        assert!(arena.try_alloc(mk(&mut pf)).is_some());
        assert_eq!(arena.audit().slots, 1);
    }
}
