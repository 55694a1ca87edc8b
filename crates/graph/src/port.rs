//! Scheduler port node: a [`SwitchCore`] (buffer caps, drop policies,
//! backpressure, busy-link transmission model) wrapped so pooled
//! handles flow through it without copying packet payloads per hop.
//!
//! The port keeps a uid → handle side table for packets the switch has
//! admitted: the switch queues `Packet` values (they are small and
//! `Copy`), while the slot stays allocated until the packet's fate is
//! known. Three exits per admitted packet:
//!
//! - **transmission start** — the handle is removed from the table and
//!   travels inside the executor's transmission-done event;
//! - **eviction** — HeadDrop/pressure policies drop a *previously
//!   admitted* packet; the switch reports it through its drop
//!   observer, and the port frees the matching slot;
//! - **churn** — `force_remove` discards the flow's whole backlog; the
//!   port frees every remaining slot of that flow.
//!
//! A refused arrival never enters the table: its slot is freed on the
//! spot and the uid recorded in the port's refusal sequence, which is
//! part of the run's determinism surface.

use crate::arena::PktArena;
use crate::node::{GraphNode, OutPort};
use netsim::{DropPolicy, SwitchCore};
use servers::RateProfile;
use sfq_core::obs::{SchedEvent, SchedObserver};
use sfq_core::{FlowId, PktRef, ReconfigCmd, SchedError, Scheduler, TelemetrySink};
use simtime::{Bytes, Rate, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Hasher of the uid side table: one multiply by the 64-bit golden
/// ratio. Uids are minted by the graph, so nothing outside it picks the
/// keys and SipHash's flooding resistance buys nothing.
#[derive(Default)]
struct UidHasher(u64);

impl Hasher for UidHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.iter().fold(self.0, |h, &b| h << 8 | b as u64));
    }

    fn write_u64(&mut self, uid: u64) {
        self.0 = uid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type UidMap = HashMap<u64, (FlowId, PktRef), BuildHasherDefault<UidHasher>>;

/// Drop-observer sink capturing the uids the switch sheds (refusals
/// *and* evictions both fire it), so the port can free the matching
/// slots.
#[derive(Default)]
struct ShedLog {
    uids: Vec<u64>,
}

impl SchedObserver for ShedLog {
    fn on_drop(&mut self, ev: &SchedEvent) {
        self.uids.push(ev.uid);
    }
}

/// Stamp slot `h`'s packet as arriving at this port `now` and return
/// the stamped copy the switch queues.
fn restamp(arena: &mut PktArena, h: PktRef, now: SimTime) -> sfq_core::Packet {
    let p = arena.get_mut(h);
    p.arrival = now;
    *p
}

/// A scheduler port of the forwarding graph. See the module docs.
pub struct PortNode {
    core: SwitchCore,
    inflight: UidMap,
    shed: Rc<RefCell<ShedLog>>,
    refused: Vec<u64>,
    evicted: u64,
    strays: u64,
    /// Maximum transmission unit ([`crate::PortSpec::mtu`]): the
    /// executor fragments larger packets on entry to this port.
    pub(crate) mtu: Option<Bytes>,
}

impl PortNode {
    /// Port scheduling with `sched` over `link`, with the switch caps
    /// and drop policy from PR 4.
    pub fn new(
        sched: Box<dyn Scheduler>,
        link: RateProfile,
        per_flow_cap: Option<usize>,
        shared_cap: Option<usize>,
        policy: DropPolicy,
    ) -> Self {
        let mut core = SwitchCore::new(sched, link, per_flow_cap);
        core.set_shared_cap(shared_cap);
        core.set_drop_policy(policy);
        let shed = Rc::new(RefCell::new(ShedLog::default()));
        core.set_drop_observer(Box::new(Rc::clone(&shed)));
        PortNode {
            core,
            inflight: UidMap::default(),
            shed,
            refused: Vec::new(),
            evicted: 0,
            strays: 0,
            mtu: None,
        }
    }

    /// Register a scheduled flow.
    pub fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.core.add_flow(flow, weight);
    }

    /// Attach a port-level telemetry page (offered arrivals, cap
    /// refusals, policy evictions) — the pass-through to
    /// [`SwitchCore::set_telemetry`], so graph ports report on the same
    /// counter pages the engines do.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.core.set_telemetry(sink);
    }

    /// The attached port telemetry page, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.core.telemetry()
    }

    /// Offer one handle: re-stamp its arrival to `now` (each hop is a
    /// fresh arrival, Eq. 4's `A(p)` is per-server), admit through the
    /// switch caps, and settle slot fates for anything shed.
    fn offer(&mut self, now: SimTime, arena: &mut PktArena, h: PktRef) {
        let pkt = restamp(arena, h, now);
        match self.core.try_offer(now, pkt) {
            Ok(()) => {
                self.inflight.insert(pkt.uid, (pkt.flow, h));
            }
            Err(SchedError::BufferFull(_)) => {
                self.refused.push(pkt.uid);
                arena.free(h);
            }
            Err(e) => panic!("graph port admission: {e}"),
        }
        // The switch reported every shed uid (refusal or eviction)
        // through the drop observer; evicted uids were previously
        // admitted, so their slots are in the side table.
        for uid in self.shed.borrow_mut().uids.drain(..) {
            if uid == pkt.uid {
                continue; // the refusal settled above
            }
            if let Some((_, eh)) = self.inflight.remove(&uid) {
                arena.free(eh);
                self.evicted += 1;
            }
        }
    }

    /// Offer one handle to the strict-priority class: never refused,
    /// never scheduled, served ahead of every scheduled packet (the
    /// switch's priority FIFO). The slot joins the side table like an
    /// admitted packet's and leaves it at transmission start.
    pub fn offer_priority(&mut self, now: SimTime, arena: &mut PktArena, h: PktRef) {
        let pkt = restamp(arena, h, now);
        self.core.offer_priority(now, pkt);
        self.inflight.insert(pkt.uid, (pkt.flow, h));
    }

    /// Start transmitting if the link is free and a packet is queued:
    /// returns the packet, its handle (removed from the side table),
    /// and the completion time.
    ///
    /// Every packet the switch holds has its handle in the side table:
    /// both offers insert it on admission, and an entry leaves only
    /// with its packet (here, on eviction, on churn). A packet found
    /// without one has no slot to forward, so it is counted a stray
    /// ([`PortNode::strays`]), its transmission ends where it began,
    /// and the next packet is tried.
    pub fn try_start(&mut self, now: SimTime) -> Option<(sfq_core::Packet, PktRef, SimTime)> {
        loop {
            let (pkt, done) = self.core.try_start(now)?;
            if let Some((_, h)) = self.inflight.remove(&pkt.uid) {
                return Some((pkt, h, done));
            }
            debug_assert!(false, "packet {} has no side-table entry", pkt.uid);
            self.strays += 1;
            self.core.complete(now);
        }
    }

    /// Transmission-done: advances the switch (departure bookkeeping,
    /// backpressure release).
    pub fn complete(&mut self, now: SimTime) {
        self.core.complete(now);
    }

    /// Churn fault: discard the flow's queued backlog, free the
    /// matching slots, and unregister the flow. Returns the number of
    /// packets discarded.
    pub fn force_remove(&mut self, now: SimTime, arena: &mut PktArena, flow: FlowId) -> usize {
        let dropped = self.core.force_remove_flow(now, flow);
        let mut uids: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, (f, _))| *f == flow)
            .map(|(uid, _)| *uid)
            .collect();
        uids.sort_unstable();
        debug_assert_eq!(
            uids.len(),
            dropped,
            "side table out of sync with the scheduler backlog"
        );
        for uid in uids {
            if let Some((_, h)) = self.inflight.remove(&uid) {
                arena.free(h);
            }
        }
        dropped
    }

    /// Apply a live reconfiguration command to this port's scheduled
    /// class (see [`SwitchCore::try_reconfig`]). `RemoveFlow` routes
    /// through [`PortNode::force_remove`] instead of the switch hook so
    /// the discarded backlog's arena slots are freed with it — the
    /// reason this method needs the arena.
    pub fn try_reconfig(
        &mut self,
        now: SimTime,
        arena: &mut PktArena,
        cmd: ReconfigCmd,
    ) -> Result<(), SchedError> {
        match cmd {
            ReconfigCmd::RemoveFlow(flow) => {
                if self.core.flow_weight(flow).is_none() {
                    return Err(SchedError::UnknownFlow(flow));
                }
                self.force_remove(now, arena, flow);
                Ok(())
            }
            other => self.core.try_reconfig(now, other),
        }
    }

    /// Uids refused at admission, in arrival order (identity surface).
    pub fn refusals(&self) -> &[u64] {
        &self.refused
    }

    /// Move the refusal sequence out, leaving it empty: the executor's
    /// report takes it when the run ends.
    pub(crate) fn take_refusals(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.refused)
    }

    /// Previously admitted packets evicted by a drop policy.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Packets the switch released that had no slot on record (see
    /// [`PortNode::try_start`]): zero unless the side table and the
    /// switch disagree, which is a bug in this port.
    pub fn strays(&self) -> u64 {
        self.strays
    }

    /// Total shed packets (refusals + evictions) for `flow` per the
    /// switch's own books.
    pub fn drops(&self, flow: FlowId) -> u64 {
        self.core.drops(flow)
    }

    /// Total shed packets across all flows per the switch books.
    pub fn drops_total(&self) -> u64 {
        self.core.all_drops().map(|(_, n)| n).sum()
    }

    /// Packets queued in the scheduled class.
    pub fn queued(&self) -> usize {
        self.core.queued()
    }

    /// The underlying discipline's name.
    pub fn discipline(&self) -> &'static str {
        self.core.discipline()
    }
}

impl GraphNode for PortNode {
    /// Admission only: a port emits nothing synchronously — its output
    /// leaves via the executor's timed transmission-done events.
    fn dispatch(
        &mut self,
        now: SimTime,
        arena: &mut PktArena,
        pkts: &[PktRef],
        _out: &mut Vec<(OutPort, PktRef)>,
    ) {
        for &h in pkts {
            self.offer(now, arena, h);
        }
    }

    fn kind(&self) -> &'static str {
        "port"
    }
}
