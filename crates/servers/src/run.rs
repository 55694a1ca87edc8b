//! Single-server simulation harness.
//!
//! Couples a scheduling discipline with a rate profile and a scripted
//! arrival sequence, producing the exact departure schedule. This is
//! the workhorse behind the fairness/delay experiments: Theorems 1–5
//! are statements about precisely these outputs.

use crate::profile::RateProfile;
use sfq_core::{Packet, Scheduler};
use simtime::SimTime;

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
    for w in arrivals.windows(2) {
        debug_assert!(
            w[0].arrival <= w[1].arrival,
            "arrivals must be sorted by time"
        );
    }
    let mut departures = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;
    // (service_start, departure, packet) of the in-flight transmission.
    let mut in_flight: Option<(SimTime, SimTime, Packet)> = None;

    loop {
        // Next events: arrival and/or completion.
        let arr_t = arrivals.get(next_arrival).map(|p| p.arrival);
        let dep_t = in_flight.as_ref().map(|&(_, d, _)| d);
        let next_t = match (arr_t, dep_t) {
            (Some(a), Some(d)) => a.min(d),
            (Some(a), None) => a,
            (None, Some(d)) => d,
            (None, None) => break,
        };
        if next_t > horizon {
            break;
        }
        let now = next_t;
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
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival == now {
            let pkt = arrivals[next_arrival];
            next_arrival += 1;
            enqueue(scheduler, now, pkt);
        }
        // Work conservation: start the next transmission if free.
        if in_flight.is_none() {
            if let Some(pkt) = scheduler.dequeue(now) {
                let dep = profile.finish_time(now, pkt.len);
                in_flight = Some((now, dep, pkt));
            }
        }
    }
    departures
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
