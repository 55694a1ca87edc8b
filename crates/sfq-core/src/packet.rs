//! Packet and flow vocabulary shared by every scheduling discipline.

use crate::pool::FlowMap;
use core::fmt;
use simtime::{Bytes, SimTime};

/// Identifier of a flow (the paper's `f`): the sequence of packets
/// emitted by one source.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A packet as seen by a scheduler: flow membership, length, arrival
/// time at this server, and identity.
///
/// Higher layers (e.g. the network simulator's TCP model) keep richer
/// per-packet metadata in side tables keyed by [`Packet::uid`]; the
/// schedulers themselves only ever need these four fields, exactly the
/// quantities `(f, j, l_f^j, A(p_f^j))` the paper manipulates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Owning flow `f`.
    pub flow: FlowId,
    /// Per-flow sequence number `j` (1-based, monotone per flow).
    pub seq: u64,
    /// Length `l_f^j` in bytes.
    pub len: Bytes,
    /// Arrival time `A(p_f^j)` at this server.
    pub arrival: SimTime,
    /// Globally unique id; used for deterministic tie-breaking and for
    /// joining scheduler events with higher-layer telemetry.
    pub uid: u64,
}

/// Monotone generator of packet uids and per-flow sequence numbers.
///
/// Sources share one `PacketFactory` per simulation so that uids are
/// globally unique and tie-breaking is reproducible.
#[derive(Debug, Default)]
pub struct PacketFactory {
    next_uid: u64,
    per_flow_seq: FlowMap<u64>,
}

impl PacketFactory {
    /// New factory with uid counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint the next packet of `flow` with the given length and arrival
    /// time, assigning `seq` and `uid` automatically.
    pub fn make(&mut self, flow: FlowId, len: Bytes, arrival: SimTime) -> Packet {
        let seq = match self.per_flow_seq.get_mut(flow) {
            Some(seq) => {
                *seq += 1;
                *seq
            }
            None => {
                self.per_flow_seq.insert(flow, 1);
                1
            }
        };
        let uid = self.next_uid;
        self.next_uid += 1;
        Packet {
            flow,
            seq,
            len,
            arrival,
            uid,
        }
    }

    /// Number of packets minted so far.
    pub fn minted(&self) -> u64 {
        self.next_uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_assigns_monotone_uids_and_seqs() {
        let mut pf = PacketFactory::new();
        let a = pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO);
        let b = pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO);
        let c = pf.make(FlowId(2), Bytes::new(100), SimTime::ZERO);
        assert_eq!((a.seq, b.seq, c.seq), (1, 2, 1));
        assert!(a.uid < b.uid && b.uid < c.uid);
        assert_eq!(pf.minted(), 3);
        // A sparse id numbers like any other: the dense table indexes
        // small ids directly and must not size itself by this one.
        let d = pf.make(FlowId(u32::MAX), Bytes::new(100), SimTime::ZERO);
        let e = pf.make(FlowId(u32::MAX), Bytes::new(100), SimTime::ZERO);
        let f = pf.make(FlowId(1), Bytes::new(100), SimTime::ZERO);
        assert_eq!((d.seq, e.seq, f.seq), (1, 2, 3));
        assert_eq!((d.uid, e.uid, f.uid), (3, 4, 5));
    }

    #[test]
    fn flow_display() {
        assert_eq!(FlowId(7).to_string(), "flow7");
    }
}
