//! Long-horizon overload soak: graceful degradation and recovery.
//!
//! [`run_soak`] drives a [`Preset::Soak`](crate::Preset::Soak) scenario — a deliberately
//! overbooked single hop with tight buffer caps — through a
//! `netsim::SwitchCore` under the scenario's [`DropKind`], with the
//! churn/revive fault schedule applied, and checks the recovery
//! invariants:
//!
//! - **Fairness returns after overload.** Under tail drop, packets are
//!   refused at the door before tagging, so Theorem 1 keeps holding
//!   between the continuously backlogged flows even *during* overload.
//!   Head-drop/LWP evictions instead leave the evicted packet's tag
//!   span charged to its flow (freshness is bought with delivered
//!   service), so the overload-phase spread may exceed the bound — but
//!   once the overload backlog drains and the busy period ends, SFQ's
//!   start-at-v rule forgives the charge, and a fresh watermark window
//!   opened at the scenario's `recovery_at_ms` must come back under
//!   `l_f/r_f + l_m/r_m`.
//! - **Pressure is signalled and released.** Every
//!   [`Backpressure::Engage`] emitted while caps shed load is matched
//!   by a release once the run drains.
//! - **Churned flows recover.** The cross flow removed mid-overload
//!   completes packets again after its revive.
//!
//! Any scheduler error aborts with the scenario's replay line printed,
//! so a soak failure found by the fuzzer reproduces from the log alone.

use crate::exec::{faults_from, materialize_packets, FaultAction};
use crate::faults::hop_profile;
use crate::scenario::{DropKind, Scenario};
use analysis::sfq_fairness_bound;
use netsim::{DropPolicy, SwitchCore};
use sfq_core::obs::Backpressure;
use sfq_core::{FlowId, Packet, SchedError, SchedObserver, Sfq, TieBreak};
use sfq_obs::FlowMetrics;
use simtime::{Ratio, SimTime};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Map the DSL's drop policy onto the switch's.
pub fn drop_policy_of(kind: DropKind) -> DropPolicy {
    match kind {
        DropKind::Tail => DropPolicy::TailDrop,
        DropKind::Head => DropPolicy::HeadDrop,
        DropKind::Lwp => DropPolicy::LowestWeightPressure,
    }
}

/// Everything one soak run produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Replay line reproducing the run.
    pub replay: String,
    /// Packets injected (all flows).
    pub injected: usize,
    /// Packets fully transmitted.
    pub completed: u64,
    /// Packets shed by the buffer caps (refusals and evictions).
    pub shed: u64,
    /// Arrivals refused while their flow was churned out.
    pub refused: u64,
    /// Backlog discarded by force-removals.
    pub discarded: u64,
    /// `Backpressure::Engage` transitions observed.
    pub engages: u64,
    /// `Backpressure::Release` transitions observed.
    pub releases: u64,
    /// Completions of the churned flow after its revive instant.
    pub post_revive_completions: u64,
    /// Normalized-service spread watermark between the two heavy flows
    /// over the overload phase. Exceeds the bound by design under
    /// head-drop/LWP (evictions charge the flow); stays under it for
    /// tail drop.
    pub overload_spread: Ratio,
    /// Spread watermark over the fresh window opened at
    /// `recovery_at_ms` — must be under the bound for *every* policy.
    pub recovery_spread: Ratio,
    /// The Theorem 1 bound `l_1/r_1 + l_2/r_2` for the heavy pair.
    pub fairness_bound: Ratio,
    /// The drop policy the run used.
    pub policy: DropKind,
}

impl SoakOutcome {
    /// True when every recovery invariant held.
    pub fn healthy(&self) -> bool {
        self.recovery_spread <= self.fairness_bound
            && (self.policy != DropKind::Tail || self.overload_spread <= self.fairness_bound)
            && self.shed > 0
            && self.engages > 0
            && self.releases == self.engages
            && self.post_revive_completions > 0
    }
}

/// Counts backpressure transitions from the port's drop observer.
#[derive(Default)]
struct BpCount {
    engages: u64,
    releases: u64,
}

impl SchedObserver for BpCount {
    fn on_backpressure(&mut self, _time: SimTime, _flow: FlowId, state: Backpressure) {
        match state {
            Backpressure::Engage => self.engages += 1,
            Backpressure::Release => self.releases += 1,
        }
    }
}

/// Run the overload soak for a (single-hop) scenario. Panics with the
/// replay line on an unexpected scheduler error — buffer-full sheds are
/// the expected steady state, not errors.
pub fn run_soak(sc: &Scenario) -> SoakOutcome {
    assert_eq!(sc.hops, 1, "the soak runner drives a single hop");
    let replay = sc.replay_line();
    let horizon = sc.horizon();

    let metrics = Rc::new(RefCell::new(FlowMetrics::new()));
    let sched = Sfq::with_observer(TieBreak::Fifo, Rc::clone(&metrics));
    let mut sw = SwitchCore::new(
        Box::new(sched),
        hop_profile(sc, 0, horizon),
        sc.per_flow_cap,
    );
    sw.set_shared_cap(sc.shared_cap);
    sw.set_drop_policy(drop_policy_of(sc.drop_policy));
    let bp = Rc::new(RefCell::new(BpCount::default()));
    sw.set_drop_observer(Box::new(Rc::clone(&bp)));
    for f in &sc.flows {
        sw.add_flow(FlowId(f.id), f.weight());
    }

    let arrivals = materialize_packets(sc);
    let faults = faults_from(sc);
    let mut recovery_at: Option<SimTime> =
        sc.recovery_at_ms.map(|ms| SimTime::from_millis(ms as i128));
    let revive_at: Option<SimTime> = sc
        .churns
        .iter()
        .filter_map(|c| c.revive_ms.map(|ms| SimTime::from_millis(ms as i128)))
        .max();
    let churned: HashSet<u32> = sc.churns.iter().map(|c| c.flow).collect();

    let heavy = (FlowId(sc.flows[0].id), FlowId(sc.flows[1].id));
    let mut overload_spread = Ratio::ZERO;
    let mut next_arrival = 0usize;
    let mut next_fault = 0usize;
    let mut removed: HashSet<FlowId> = HashSet::new();
    let mut in_flight: Option<(Packet, SimTime)> = None;
    let mut completed = 0u64;
    let mut refused = 0u64;
    let mut discarded = 0u64;
    let mut post_revive_completions = 0u64;

    loop {
        let arr_t = arrivals.get(next_arrival).map(|p| p.arrival);
        let fault_t = faults.get(next_fault).map(|f| f.at);
        let dep_t = in_flight.as_ref().map(|&(_, d)| d);
        let now = match [arr_t, fault_t, dep_t].into_iter().flatten().min() {
            Some(t) => t,
            None => break, // arrivals exhausted, faults fired, drained
        };
        // Open the fresh recovery watermark window: reset the metrics
        // and re-register the weights (a weight update, not a tag
        // reset). Event-driven, so this fires at the first event past
        // the recovery instant — equivalent, since metrics only change
        // at events.
        if recovery_at.is_some_and(|r| now >= r) {
            recovery_at = None;
            overload_spread = {
                let m = metrics.borrow();
                m.worst_spread_between(heavy.0, heavy.1)
                    .unwrap_or(Ratio::ZERO)
            };
            *metrics.borrow_mut() = FlowMetrics::new();
            for f in &sc.flows {
                if !removed.contains(&FlowId(f.id)) {
                    sw.add_flow(FlowId(f.id), f.weight());
                }
            }
        }
        if dep_t == Some(now) {
            let Some((pkt, _)) = in_flight.take() else {
                unreachable!("dep_t comes from in_flight")
            };
            sw.complete(now);
            completed += 1;
            if churned.contains(&pkt.flow.0) && revive_at.is_some_and(|r| now >= r) {
                post_revive_completions += 1;
            }
        }
        while next_fault < faults.len() && faults[next_fault].at == now {
            match faults[next_fault].action {
                FaultAction::ForceRemove(flow) => {
                    discarded += sw.force_remove_flow(now, flow) as u64;
                    removed.insert(flow);
                }
                FaultAction::Revive(flow, weight) => {
                    sw.add_flow(flow, weight);
                    removed.remove(&flow);
                }
            }
            next_fault += 1;
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival == now {
            let pkt = arrivals[next_arrival];
            next_arrival += 1;
            if removed.contains(&pkt.flow) {
                refused += 1;
                continue;
            }
            match sw.try_offer(now, pkt) {
                Ok(()) | Err(SchedError::BufferFull(_)) => {}
                Err(e) => panic!("soak scheduler error ({e})\n  {replay}"),
            }
        }
        if in_flight.is_none() {
            if let Some((pkt, done)) = sw.try_start(now) {
                in_flight = Some((pkt, done));
            }
        }
    }

    let shed: u64 = sw.all_drops().map(|(_, n)| n).sum();
    let (f1, f2) = (&sc.flows[0], &sc.flows[1]);
    let recovery_spread = {
        let m = metrics.borrow();
        m.worst_spread_between(heavy.0, heavy.1)
            .unwrap_or(Ratio::ZERO)
    };
    // No recovery window configured: the whole run is one window.
    if sc.recovery_at_ms.is_none() {
        overload_spread = recovery_spread;
    }
    let fairness_bound = sfq_fairness_bound(f1.max_len(), f1.weight(), f2.max_len(), f2.weight());
    let bp = bp.borrow();
    SoakOutcome {
        replay,
        injected: arrivals.len(),
        completed,
        shed,
        refused,
        discarded,
        engages: bp.engages,
        releases: bp.releases,
        post_revive_completions,
        overload_spread,
        recovery_spread,
        fairness_bound,
        policy: sc.drop_policy,
    }
}
