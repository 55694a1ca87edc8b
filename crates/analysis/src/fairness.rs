//! Measuring fairness from departure schedules.
//!
//! The paper's fairness criterion (Section 1.2): a packet is served in
//! `[t1, t2]` if it *starts and finishes* service within the interval,
//! and an algorithm is fair with measure `H(f, m)` if
//! `|W_f(t1,t2)/r_f − W_m(t1,t2)/r_m| <= H(f,m)` over every interval in
//! which both flows are backlogged.
//!
//! We evaluate intervals whose endpoints are *service boundaries*
//! (instants between transmissions): at a boundary no packet is
//! mid-service, so cumulative-work differences count exactly the
//! packets that start and finish inside the interval. The maximum gap
//! over all boundary pairs is then `max D − min D` of the normalized
//! service difference `D(t) = W_f(0,t)/r_f − W_m(0,t)/r_m`, computed in
//! one pass.

use servers::Departure;
use sfq_core::FlowId;
use simtime::{Bytes, Rate, Ratio, SimTime};

/// Work (aggregate bytes) of `flow` whose service starts and finishes
/// within `[t1, t2]` — the paper's `W_f(t1, t2)`.
pub fn work_in_interval(departures: &[Departure], flow: FlowId, t1: SimTime, t2: SimTime) -> Bytes {
    departures
        .iter()
        .filter(|d| d.pkt.flow == flow && d.service_start >= t1 && d.departure <= t2)
        .map(|d| d.pkt.len)
        .sum()
}

/// Normalized cumulative service `W_f(0, t)/r_f` sampled at every
/// service boundary in `departures` (which must be time-sorted, as
/// `run_server` produces them). Returns `(boundary, normalized_work)`
/// pairs; the first entry is `(0, 0)`.
pub fn normalized_service_curve(
    departures: &[Departure],
    flow: FlowId,
    rate: Rate,
) -> Vec<(SimTime, Ratio)> {
    let mut out = vec![(SimTime::ZERO, Ratio::ZERO)];
    let mut acc = Ratio::ZERO;
    for d in departures {
        if d.pkt.flow == flow {
            acc += rate.tag_span(d.pkt.len);
        }
        out.push((d.departure, acc));
    }
    out
}

/// Maximum fairness gap `max |W_f/r_f − W_m/r_m|` over all service-
/// boundary intervals within `[from, to]`. The caller must ensure both
/// flows are backlogged throughout `[from, to]` for the result to be
/// comparable against `H(f, m)`.
pub fn max_fairness_gap(
    departures: &[Departure],
    f: FlowId,
    rf: Rate,
    m: FlowId,
    rm: Rate,
    from: SimTime,
    to: SimTime,
) -> Ratio {
    let mut d_min: Option<Ratio> = None;
    let mut d_max: Option<Ratio> = None;
    let mut wf = Ratio::ZERO;
    let mut wm = Ratio::ZERO;
    let mut consider = |d: Ratio| {
        d_min = Some(d_min.map_or(d, |x| x.min(d)));
        d_max = Some(d_max.map_or(d, |x| x.max(d)));
    };
    // Boundary at `from` (or the first departure after it) with the
    // cumulative work at that point.
    let mut started = false;
    for dep in departures {
        if dep.departure > to {
            break;
        }
        if !started && dep.service_start >= from {
            started = true;
            consider(wf - wm);
        }
        if dep.pkt.flow == f {
            wf += rf.tag_span(dep.pkt.len);
        } else if dep.pkt.flow == m {
            wm += rm.tag_span(dep.pkt.len);
        }
        if started {
            consider(wf - wm);
        }
    }
    match (d_min, d_max) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => Ratio::ZERO,
    }
}

/// Throughput (bits/s, lossy for reporting) of a flow over `[t1, t2]`.
pub fn throughput_bps(departures: &[Departure], flow: FlowId, t1: SimTime, t2: SimTime) -> f64 {
    let w = work_in_interval(departures, flow, t1, t2);
    w.bits() as f64 / (t2 - t1).as_secs_f64()
}

/// Count of a flow's packets delivered by `t`.
pub fn packets_by(departures: &[Departure], flow: FlowId, t: SimTime) -> usize {
    departures
        .iter()
        .filter(|d| d.pkt.flow == flow && d.departure <= t)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use servers::{run_server, RateProfile};
    use sfq_core::{PacketFactory, Scheduler, Sfq};
    use simtime::SimDuration;

    /// Two equal-weight backlogged flows on a unit link.
    fn two_flow_run(n: usize) -> Vec<Departure> {
        let mut s = Sfq::new();
        s.add_flow(FlowId(1), Rate::bps(1_000));
        s.add_flow(FlowId(2), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let mut arrivals = Vec::new();
        for _ in 0..n {
            arrivals.push(pf.make(FlowId(1), Bytes::new(125), SimTime::ZERO));
            arrivals.push(pf.make(FlowId(2), Bytes::new(125), SimTime::ZERO));
        }
        let profile = RateProfile::constant(Rate::bps(2_000));
        run_server(&mut s, &profile, &arrivals, SimTime::from_secs(10_000))
    }

    #[test]
    fn work_counts_only_fully_contained_service() {
        let deps = two_flow_run(2);
        // Each packet takes 0.5 s on the 2000 bps link; four packets
        // total. Interval [0, 1s] contains exactly two services.
        let total = work_in_interval(&deps, FlowId(1), SimTime::ZERO, SimTime::from_secs(1))
            + work_in_interval(&deps, FlowId(2), SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(total, Bytes::new(250));
        // A window cutting a service in half counts neither endpoint
        // packet.
        let quarter = work_in_interval(
            &deps,
            FlowId(1),
            SimTime::from_millis(250),
            SimTime::from_millis(750),
        );
        assert_eq!(quarter, Bytes::ZERO);
    }

    #[test]
    fn equal_backlogged_flows_gap_bounded_by_theorem1() {
        let deps = two_flow_run(50);
        let gap = max_fairness_gap(
            &deps,
            FlowId(1),
            Rate::bps(1_000),
            FlowId(2),
            Rate::bps(1_000),
            SimTime::ZERO,
            SimTime::from_secs(50),
        );
        // H = l/r + l/r = 1 + 1 = 2 seconds of normalized service.
        assert!(gap <= Ratio::from_int(2), "gap={gap:?}");
        // And for an alternating schedule it is actually <= 1.
        assert!(gap <= Ratio::ONE, "gap={gap:?}");
    }

    #[test]
    fn normalized_curve_is_monotone() {
        let deps = two_flow_run(5);
        let curve = normalized_service_curve(&deps, FlowId(1), Rate::bps(1_000));
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(curve.last().unwrap().1, Ratio::from_int(5));
    }

    #[test]
    fn throughput_and_packet_counts() {
        let deps = two_flow_run(4);
        // 8 packets * 0.5s = 4s busy; each flow moves 4000 bits in 4s.
        let thr = throughput_bps(&deps, FlowId(1), SimTime::ZERO, SimTime::from_secs(4));
        assert!((thr - 1_000.0).abs() < 1e-9);
        assert_eq!(packets_by(&deps, FlowId(1), SimTime::from_secs(2)), 2);
        assert_eq!(packets_by(&deps, FlowId(1), SimTime::from_secs(4)), 4);
    }

    #[test]
    fn gap_detects_unfair_schedule() {
        // FIFO-like burst: flow 1 served 10 in a row, then flow 2.
        let mut pf = PacketFactory::new();
        let mut deps = Vec::new();
        let mut t = SimTime::ZERO;
        let dt = SimDuration::from_millis(500);
        for flow in [1u32, 1, 1, 1, 1, 2, 2, 2, 2, 2] {
            let p = pf.make(FlowId(flow), Bytes::new(125), SimTime::ZERO);
            deps.push(Departure {
                pkt: p,
                service_start: t,
                departure: t + dt,
            });
            t += dt;
        }
        let gap = max_fairness_gap(
            &deps,
            FlowId(1),
            Rate::bps(1_000),
            FlowId(2),
            Rate::bps(1_000),
            SimTime::ZERO,
            t,
        );
        assert_eq!(gap, Ratio::from_int(5));
    }
}
