//! Deficit Round Robin (Shreedhar & Varghese '95).
//!
//! O(1)-per-packet weighted round robin over variable-length packets:
//! each backlogged flow is visited in round-robin order; on each visit
//! its *deficit counter* grows by its quantum, and head packets are
//! served while they fit in the deficit. The paper's critique (Table 1,
//! Section 1.2): its fairness measure
//! `H(f,m) = 1 + l_f^max/r_f + l_m^max/r_m` (with min weight normalized
//! to 1) deviates unboundedly from the optimum as weights grow, and its
//! maximum delay depends on the sum of all other flows' quanta.

use sfq_core::obs::{FlowChange, NoopObserver, SchedEvent, SchedObserver};
use sfq_core::{FlowId, Packet, SchedError, Scheduler};
use simtime::{Rate, Ratio, SimTime};
use std::collections::{HashMap, VecDeque};

#[derive(Debug)]
struct FlowState {
    quantum: u64,
    deficit: u64,
    queue: VecDeque<Packet>,
    active: bool,
}

/// The Deficit Round Robin scheduler.
///
/// Quanta are derived from weights: `quantum_f = weight_bps * num / den`
/// bytes (minimum 1). The classic recommendation sets every quantum at
/// least as large as the maximum packet size so each visit serves at
/// least one packet.
///
/// Generic over an observer (see [`sfq_core::obs`]); DRR computes no
/// virtual-time tags, so events carry zero `start_tag`/`finish_tag`/`v`.
#[derive(Debug)]
pub struct Drr<O: SchedObserver = NoopObserver> {
    flows: HashMap<FlowId, FlowState>,
    /// Round-robin list of backlogged flows.
    active: VecDeque<FlowId>,
    /// Quantum scale: bytes per bps, as num/den.
    scale_num: u64,
    scale_den: u64,
    /// Whether the flow at the front of `active` has already received
    /// its quantum for this visit.
    front_credited: bool,
    queued: usize,
    obs: O,
}

impl Drr {
    /// DRR with the default quantum scale of one millisecond of traffic
    /// per visit: `quantum = weight_bps / 8000` bytes (min 1).
    pub fn new() -> Self {
        Self::with_quantum_scale(1, 8_000)
    }

    /// DRR with quantum `weight_bps * num / den` bytes (minimum 1).
    pub fn with_quantum_scale(num: u64, den: u64) -> Self {
        Self::with_observer(num, den, NoopObserver)
    }
}

impl<O: SchedObserver> Drr<O> {
    /// DRR with quantum `weight_bps * num / den` bytes (minimum 1),
    /// reporting events to `obs`.
    pub fn with_observer(num: u64, den: u64, obs: O) -> Self {
        assert!(den > 0, "DRR quantum scale denominator must be positive");
        Drr {
            flows: HashMap::new(),
            active: VecDeque::new(),
            scale_num: num,
            scale_den: den,
            front_credited: false,
            queued: 0,
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

    /// The quantum assigned to a flow (tests/telemetry).
    pub fn quantum_of(&self, flow: FlowId) -> Option<u64> {
        self.flows.get(&flow).map(|f| f.quantum)
    }

    /// Current deficit counter of a flow (tests/telemetry).
    pub fn deficit_of(&self, flow: FlowId) -> Option<u64> {
        self.flows.get(&flow).map(|f| f.deficit)
    }
}

impl Default for Drr {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: SchedObserver> Scheduler for Drr<O> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        assert!(weight.as_bps() > 0, "DRR: flow weight must be positive");
        let quantum =
            ((weight.as_bps() as u128 * self.scale_num as u128) / self.scale_den as u128).max(1);
        // A hostile giant rate saturates the quantum instead of
        // aborting: one round then serves the whole backlog, which is
        // the closest meaningful credit to "more than u64 bits".
        let quantum = u64::try_from(quantum).unwrap_or(u64::MAX);
        self.flows
            .entry(flow)
            .and_modify(|f| f.quantum = quantum)
            .or_insert(FlowState {
                quantum,
                deficit: 0,
                queue: VecDeque::new(),
                active: false,
            });
        self.obs.on_flow_change(flow, &FlowChange::Added { weight });
    }

    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.try_enqueue(now, pkt)
            .unwrap_or_else(|e| panic!("DRR: {e}"));
    }

    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        let fs = self
            .flows
            .get_mut(&pkt.flow)
            .ok_or(SchedError::UnknownFlow(pkt.flow))?;
        fs.queue.push_back(pkt);
        if !fs.active {
            fs.active = true;
            self.active.push_back(pkt.flow);
        }
        self.queued += 1;
        self.obs.on_enqueue(&SchedEvent {
            time: now,
            flow: pkt.flow,
            uid: pkt.uid,
            len: pkt.len,
            start_tag: Ratio::ZERO,
            finish_tag: Ratio::ZERO,
            v: Ratio::ZERO,
        });
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        loop {
            let &flow = self.active.front()?;
            // A flow on the active list always exists with a non-empty
            // queue; a stale entry (possible only through an invariant
            // break) is shed instead of panicking the round.
            let Some(fs) = self.flows.get_mut(&flow) else {
                self.active.pop_front();
                self.front_credited = false;
                continue;
            };
            let Some(head) = fs.queue.front() else {
                fs.active = false;
                self.active.pop_front();
                self.front_credited = false;
                continue;
            };
            let head_len = head.len.as_u64();
            if !self.front_credited {
                fs.deficit += fs.quantum;
                self.front_credited = true;
            }
            if head_len <= fs.deficit {
                let Some(pkt) = fs.queue.pop_front() else {
                    continue;
                };
                fs.deficit -= head_len;
                self.queued -= 1;
                if fs.queue.is_empty() {
                    // Leaving the active list resets the deficit (DRR
                    // rule: an idle flow keeps no credit).
                    fs.deficit = 0;
                    fs.active = false;
                    self.active.pop_front();
                    self.front_credited = false;
                }
                self.obs.on_dequeue(&SchedEvent {
                    time: now,
                    flow: pkt.flow,
                    uid: pkt.uid,
                    len: pkt.len,
                    start_tag: Ratio::ZERO,
                    finish_tag: Ratio::ZERO,
                    v: Ratio::ZERO,
                });
                return Some(pkt);
            }
            // Head does not fit: move this flow to the back of the
            // round and credit the next flow on its visit.
            self.active.rotate_left(1);
            self.front_credited = false;
        }
    }

    fn is_empty(&self) -> bool {
        self.queued == 0
    }

    fn len(&self) -> usize {
        self.queued
    }

    fn backlog(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).map_or(0, |f| f.queue.len())
    }

    fn remove_flow(&mut self, flow: FlowId) -> bool {
        match self.flows.get(&flow) {
            Some(fs) if fs.queue.is_empty() => {
                debug_assert!(!fs.active, "idle flow cannot be on the active list");
                self.flows.remove(&flow);
                self.obs.on_flow_change(flow, &FlowChange::Removed);
                true
            }
            _ => false,
        }
    }

    fn name(&self) -> &'static str {
        "DRR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::PacketFactory;
    use simtime::Bytes;

    fn drain(d: &mut Drr) -> Vec<u32> {
        std::iter::from_fn(|| d.dequeue(SimTime::ZERO).map(|p| p.flow.0)).collect()
    }

    #[test]
    fn equal_quanta_alternate_per_round() {
        // Quantum = packet size: one packet per flow per round.
        let mut d = Drr::with_quantum_scale(1, 8); // quantum = weight/8 bytes
        d.add_flow(FlowId(1), Rate::bps(800)); // quantum 100
        d.add_flow(FlowId(2), Rate::bps(800));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..3 {
            d.enqueue(t0, pf.make(FlowId(1), Bytes::new(100), t0));
            d.enqueue(t0, pf.make(FlowId(2), Bytes::new(100), t0));
        }
        assert_eq!(drain(&mut d), vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn double_quantum_serves_two_per_round() {
        let mut d = Drr::with_quantum_scale(1, 8);
        d.add_flow(FlowId(1), Rate::bps(1_600)); // quantum 200
        d.add_flow(FlowId(2), Rate::bps(800)); // quantum 100
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            d.enqueue(t0, pf.make(FlowId(1), Bytes::new(100), t0));
        }
        for _ in 0..2 {
            d.enqueue(t0, pf.make(FlowId(2), Bytes::new(100), t0));
        }
        assert_eq!(drain(&mut d), vec![1, 1, 2, 1, 1, 2]);
    }

    #[test]
    fn deficit_carries_over_when_head_does_not_fit() {
        let mut d = Drr::with_quantum_scale(1, 8);
        d.add_flow(FlowId(1), Rate::bps(800)); // quantum 100
        d.add_flow(FlowId(2), Rate::bps(800));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        // Flow 1 has a 150-byte packet: needs two visits (100, then 200).
        d.enqueue(t0, pf.make(FlowId(1), Bytes::new(150), t0));
        d.enqueue(t0, pf.make(FlowId(2), Bytes::new(100), t0));
        assert_eq!(drain(&mut d), vec![2, 1]);
    }

    #[test]
    fn deficit_resets_when_queue_drains() {
        let mut d = Drr::with_quantum_scale(1, 8);
        d.add_flow(FlowId(1), Rate::bps(1_600)); // quantum 200
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        d.enqueue(t0, pf.make(FlowId(1), Bytes::new(100), t0));
        let _ = d.dequeue(t0).unwrap();
        // 100 bytes of credit would remain; it must have been cleared.
        assert_eq!(d.deficit_of(FlowId(1)), Some(0));
    }

    #[test]
    fn quantum_from_weight_scale() {
        let mut d = Drr::new(); // 1/8000: 1 ms of traffic
        d.add_flow(FlowId(1), Rate::mbps(8)); // 8e6 bps -> 1000 B
        assert_eq!(d.quantum_of(FlowId(1)), Some(1_000));
        d.add_flow(FlowId(2), Rate::bps(1)); // floor 0 -> min 1
        assert_eq!(d.quantum_of(FlowId(2)), Some(1));
    }

    #[test]
    fn empty_and_counts() {
        let mut d = Drr::new();
        d.add_flow(FlowId(1), Rate::kbps(8));
        assert!(d.dequeue(SimTime::ZERO).is_none());
        let mut pf = PacketFactory::new();
        d.enqueue(
            SimTime::ZERO,
            pf.make(FlowId(1), Bytes::new(1), SimTime::ZERO),
        );
        assert_eq!((d.len(), d.backlog(FlowId(1))), (1, 1));
        assert!(!d.is_empty());
        let _ = d.dequeue(SimTime::ZERO).unwrap();
        assert!(d.is_empty());
    }

    /// An unregistered flow is refused with a typed error and leaves no
    /// trace; `enqueue` panics with the same message.
    #[test]
    fn unregistered_flow_is_a_typed_refusal() {
        let mut d = Drr::new();
        let p = PacketFactory::new().make(FlowId(9), Bytes::new(100), SimTime::ZERO);
        let err = d.try_enqueue(SimTime::ZERO, p);
        assert_eq!(err, Err(SchedError::UnknownFlow(FlowId(9))));
        assert!(d.is_empty());
        let panic = std::panic::catch_unwind(move || d.enqueue(SimTime::ZERO, p));
        let msg = *panic.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, format!("DRR: unregistered flow {}", FlowId(9)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sfq_core::PacketFactory;
    use simtime::Bytes;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With both flows continuously backlogged and quanta equal to
        /// one max packet, the byte-service difference between two
        /// equal-weight flows never exceeds quantum + l_max at any
        /// point of the drain (DRR's per-round fairness).
        #[test]
        fn equal_weight_service_gap_bounded(
            lens1 in prop::collection::vec(100u64..=250, 20..60),
            lens2 in prop::collection::vec(100u64..=250, 20..60),
        ) {
            let mut d = Drr::with_quantum_scale(1, 4); // 1000 bps -> 250 B
            d.add_flow(FlowId(1), Rate::bps(1_000));
            d.add_flow(FlowId(2), Rate::bps(1_000));
            let mut pf = PacketFactory::new();
            let t0 = SimTime::ZERO;
            for &l in &lens1 {
                d.enqueue(t0, pf.make(FlowId(1), Bytes::new(l), t0));
            }
            for &l in &lens2 {
                d.enqueue(t0, pf.make(FlowId(2), Bytes::new(l), t0));
            }
            let mut served = [0i64, 0];
            let min_total: u64 =
                lens1.iter().sum::<u64>().min(lens2.iter().sum());
            while let Some(p) = d.dequeue(t0) {
                served[(p.flow.0 - 1) as usize] += p.len.as_u64() as i64;
                // Only while both are plausibly backlogged.
                if (served[0] as u64) < min_total && (served[1] as u64) < min_total {
                    prop_assert!(
                        (served[0] - served[1]).abs() <= (250 + 250) as i64,
                        "gap {} exceeds quantum + lmax",
                        (served[0] - served[1]).abs()
                    );
                }
            }
        }
    }
}
