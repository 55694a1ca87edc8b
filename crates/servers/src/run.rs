//! Single-server simulation harness.
//!
//! Couples a scheduling discipline with a rate profile, a scripted
//! arrival sequence and, optionally, timed flow faults, producing the
//! exact departure schedule. This is the workhorse behind the
//! fairness/delay experiments: Theorems 1–5 are statements about
//! precisely these outputs. One loop ([`run_server_faulted`]) serves
//! every entry point.

use crate::profile::RateProfile;
use sfq_core::{FlowId, Packet, SchedError, Scheduler};
use simtime::{Rate, SimTime};
use std::collections::HashSet;

/// One served packet: when it arrived, began service, and departed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Departure {
    /// The packet served.
    pub pkt: Packet,
    /// Time service began (dequeue instant).
    pub service_start: SimTime,
    /// Time the last bit left the server.
    pub departure: SimTime,
}

/// What a timed fault does.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// Force-remove the flow, discarding its backlog.
    ForceRemove(FlowId),
    /// Re-register the flow at the given weight; subsequent arrivals
    /// are accepted again (with fresh tag state, like a new flow).
    Revive(FlowId, Rate),
}

/// A fault at a point in time.
#[derive(Clone, Copy, Debug)]
pub struct TimedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What it does.
    pub action: FaultAction,
}

/// Outcome of a faulted run.
#[derive(Debug)]
pub struct ExecReport {
    /// Departure schedule of every packet served by the horizon.
    pub departures: Vec<Departure>,
    /// Backlogged packets discarded by force-removals.
    pub discarded: u64,
    /// Arrivals refused because their flow was removed at the time.
    pub refused: u64,
}

/// Run `scheduler` over `profile`, feeding it `arrivals` (must be
/// sorted by arrival time; each packet's `arrival` field is its arrival
/// instant). Returns the departure schedule of every packet that
/// finishes by `horizon` (packets still queued or in service at the
/// horizon are dropped from the result).
///
/// The server is work-conserving and non-preemptive: whenever the link
/// is free and the scheduler non-empty, the next packet starts service
/// immediately; its departure time is computed exactly from the rate
/// profile.
pub fn run_server<S: Scheduler + ?Sized>(
    scheduler: &mut S,
    profile: &RateProfile,
    arrivals: &[Packet],
    horizon: SimTime,
) -> Vec<Departure> {
    run_server_by(scheduler, profile, arrivals, horizon, |s, now, pkt| {
        s.enqueue(now, pkt)
    })
}

/// [`run_server`] with a custom enqueue action — e.g. to drive the
/// generalized variable-rate SFQ (Eq. 36) via
/// `Sfq::enqueue_with_rate`, assigning each packet its own rate.
pub fn run_server_by<S, F>(
    scheduler: &mut S,
    profile: &RateProfile,
    arrivals: &[Packet],
    horizon: SimTime,
    mut enqueue: F,
) -> Vec<Departure>
where
    S: Scheduler + ?Sized,
    F: FnMut(&mut S, SimTime, Packet),
{
    let run = run_server_faulted(scheduler, profile, arrivals, &[], horizon, |s, now, pkt| {
        enqueue(s, now, pkt);
        Ok(())
    });
    match run {
        Ok(report) => report.departures,
        Err(e) => panic!("{}: {e}", scheduler.name()),
    }
}

/// [`run_server_by`] with a third event stream: `faults`, sorted by
/// time. A `ForceRemove` discards the flow's backlog mid-run (the
/// scheduler's churn hook); until a matching `Revive`, further
/// arrivals of that flow are refused at the door — exactly what a real
/// switch does after tearing down a reservation. Event order at one
/// instant: completion, faults, arrivals, service start — so a packet
/// arriving at the removal instant is already refused. The first error
/// of `enqueue` or of [`Scheduler::try_dequeue`] ends the run and is
/// returned.
pub fn run_server_faulted<S, F>(
    scheduler: &mut S,
    profile: &RateProfile,
    arrivals: &[Packet],
    faults: &[TimedFault],
    horizon: SimTime,
    mut enqueue: F,
) -> Result<ExecReport, SchedError>
where
    S: Scheduler + ?Sized,
    F: FnMut(&mut S, SimTime, Packet) -> Result<(), SchedError>,
{
    for w in arrivals.windows(2) {
        debug_assert!(
            w[0].arrival <= w[1].arrival,
            "arrivals must be sorted by time"
        );
    }
    for w in faults.windows(2) {
        debug_assert!(w[0].at <= w[1].at, "faults must be sorted by time");
    }
    let mut departures = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;
    let mut next_fault = 0usize;
    let mut removed: HashSet<FlowId> = HashSet::new();
    let (mut discarded, mut refused) = (0u64, 0u64);
    // (service_start, departure, packet) of the in-flight transmission.
    let mut in_flight: Option<(SimTime, SimTime, Packet)> = None;

    loop {
        // Next events: completion, fault and/or arrival.
        let arr_t = arrivals.get(next_arrival).map(|p| p.arrival);
        let fault_t = faults.get(next_fault).map(|f| f.at);
        let dep_t = in_flight.as_ref().map(|&(_, d, _)| d);
        let now = match [arr_t, fault_t, dep_t].into_iter().flatten().min() {
            Some(t) if t <= horizon => t,
            _ => break,
        };
        // Completions strictly before new arrivals at the same instant:
        // the departing packet's transmission finished; an arrival at
        // the same time sees the server already free (and, for SFQ, the
        // post-departure virtual time).
        if let Some((s, d, pkt)) = in_flight.take_if(|&mut (_, d, _)| d == now) {
            scheduler.on_departure(now);
            departures.push(Departure {
                pkt,
                service_start: s,
                departure: d,
            });
        }
        while let Some(fault) = faults.get(next_fault).filter(|f| f.at == now) {
            match fault.action {
                FaultAction::ForceRemove(flow) => {
                    discarded += scheduler.force_remove_flow(flow) as u64;
                    removed.insert(flow);
                }
                FaultAction::Revive(flow, weight) => {
                    scheduler.add_flow(flow, weight);
                    removed.remove(&flow);
                }
            }
            next_fault += 1;
        }
        while let Some(&pkt) = arrivals.get(next_arrival).filter(|p| p.arrival == now) {
            next_arrival += 1;
            if !removed.is_empty() && removed.contains(&pkt.flow) {
                refused += 1;
            } else {
                enqueue(scheduler, now, pkt)?;
            }
        }
        // Work conservation: start the next transmission if free.
        if in_flight.is_none() {
            if let Some(pkt) = scheduler.try_dequeue(now)? {
                let dep = profile.finish_time(now, pkt.len);
                in_flight = Some((now, dep, pkt));
            }
        }
    }
    Ok(ExecReport {
        departures,
        discarded,
        refused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{FlowId, PacketFactory, Sfq};
    use simtime::{Bytes, Rate, SimDuration};

    #[test]
    fn single_flow_back_to_back_departures() {
        // 1000 bps link, 125-byte packets: 1 s each.
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let arrivals: Vec<Packet> = (0..3)
            .map(|_| pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO))
            .collect();
        let profile = RateProfile::constant(Rate::bps(1_000));
        let deps = run_server(&mut s, &profile, &arrivals, SimTime::from_secs(100));
        assert_eq!(deps.len(), 3);
        assert_eq!(deps[0].departure, SimTime::from_secs(1));
        assert_eq!(deps[1].departure, SimTime::from_secs(2));
        assert_eq!(deps[2].departure, SimTime::from_secs(3));
        assert_eq!(deps[1].service_start, SimTime::from_secs(1));
    }

    #[test]
    fn idle_gap_then_resume() {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let a = pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO);
        let b = pf.make(FlowId(1), Bytes::new(125), SimTime::from_secs(5));
        let profile = RateProfile::constant(Rate::bps(1_000));
        let deps = run_server(&mut s, &profile, &[a, b], SimTime::from_secs(100));
        assert_eq!(deps[0].departure, SimTime::from_secs(1));
        assert_eq!(deps[1].service_start, SimTime::from_secs(5));
        assert_eq!(deps[1].departure, SimTime::from_secs(6));
    }

    #[test]
    fn horizon_truncates_output() {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let arrivals: Vec<Packet> = (0..5)
            .map(|_| pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO))
            .collect();
        let profile = RateProfile::constant(Rate::bps(1_000));
        let deps = run_server(&mut s, &profile, &arrivals, SimTime::from_millis(2500));
        assert_eq!(deps.len(), 2);
    }

    #[test]
    fn variable_rate_profile_stretches_service() {
        // Rate halves at t = 0.5 s: a 125-byte packet started at 0
        // sends 500 bits by 0.5 s, the rest at 500 bps in 1 s.
        let profile = RateProfile::from_segments(vec![
            crate::profile::Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(1_000),
            },
            crate::profile::Segment {
                start: SimTime::from_millis(500),
                rate: Rate::bps(500),
            },
        ]);
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let a = pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO);
        let deps = run_server(&mut s, &profile, &[a], SimTime::from_secs(10));
        assert_eq!(
            deps[0].departure,
            SimTime::from_millis(500) + SimDuration::from_secs(1)
        );
    }

    #[test]
    fn arrival_and_departure_same_instant_departure_first() {
        // Packet b arrives exactly when a departs: b must start service
        // at that instant (no artificial idle), and SFQ's virtual time
        // seen by b reflects a's completed service.
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let a = pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO);
        let b = pf.make(FlowId(1), Bytes::new(125), SimTime::from_secs(1));
        let profile = RateProfile::constant(Rate::bps(1_000));
        let deps = run_server(&mut s, &profile, &[a, b], SimTime::from_secs(10));
        assert_eq!(deps[1].service_start, SimTime::from_secs(1));
        assert_eq!(deps[1].departure, SimTime::from_secs(2));
    }
}
