//! Single-server execution with timed fault injection.
//!
//! [`run_faulted`] is `servers::run_server` plus a third event stream:
//! a sorted schedule of [`TimedFault`]s. A `ForceRemove` discards the
//! flow's backlog mid-run (the scheduler's churn hook); until a
//! matching `Revive`, further arrivals of that flow are refused at the
//! door — exactly what a real switch does after tearing down a
//! reservation. Event order at one instant: completion, faults,
//! arrivals, service start — so a packet arriving at the removal
//! instant is already refused, matching the `graph::Graph` executor
//! (churn events are scheduled ahead of any same-instant arrival).

use crate::scenario::{Scenario, SourceKind};
use servers::{Departure, RateProfile};
use sfq_core::{FlowId, Packet, PacketFactory, SchedError, Scheduler};
use simtime::{Rate, SimTime};
use std::collections::HashSet;
use traffic::{merge, to_packets};

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

/// Run `sched` over `profile` with `arrivals` (sorted by time) and the
/// fault schedule (sorted by time). Mirrors `servers::run_server` when
/// `faults` is empty.
///
/// Panics if the scheduler reports an error (unregistered flow, tag
/// overflow); [`run_faulted_checked`] is the fallible form.
pub fn run_faulted(
    sched: &mut dyn Scheduler,
    profile: &RateProfile,
    arrivals: &[Packet],
    faults: &[TimedFault],
    horizon: SimTime,
) -> ExecReport {
    run_faulted_checked(sched, profile, arrivals, faults, horizon, "")
        .unwrap_or_else(|e| panic!("{}: {e}", sched.name()))
}

/// Fallible [`run_faulted`]: a scheduler control-plane error
/// ([`SchedError::UnknownFlow`], [`SchedError::TagOverflow`], ...)
/// aborts the run and is returned instead of panicking. When `replay`
/// is non-empty (pass [`Scenario::replay_line`]), the error and the
/// replay line are printed to stderr first, so a failure deep inside a
/// fuzz run reproduces from the log alone.
pub fn run_faulted_checked(
    sched: &mut dyn Scheduler,
    profile: &RateProfile,
    arrivals: &[Packet],
    faults: &[TimedFault],
    horizon: SimTime,
    replay: &str,
) -> Result<ExecReport, SchedError> {
    run_faulted_inner(sched, profile, arrivals, faults, horizon).inspect_err(|e| {
        if !replay.is_empty() {
            eprintln!("scheduler error ({e})\n  {replay}");
        }
    })
}

fn run_faulted_inner(
    sched: &mut dyn Scheduler,
    profile: &RateProfile,
    arrivals: &[Packet],
    faults: &[TimedFault],
    horizon: SimTime,
) -> Result<ExecReport, SchedError> {
    for w in arrivals.windows(2) {
        debug_assert!(w[0].arrival <= w[1].arrival, "arrivals must be sorted");
    }
    for w in faults.windows(2) {
        debug_assert!(w[0].at <= w[1].at, "faults must be sorted");
    }
    let mut departures = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;
    let mut next_fault = 0usize;
    let mut removed: HashSet<FlowId> = HashSet::new();
    let mut discarded = 0u64;
    let mut refused = 0u64;
    let mut in_flight: Option<(SimTime, SimTime, Packet)> = None;

    loop {
        let arr_t = arrivals.get(next_arrival).map(|p| p.arrival);
        let fault_t = faults.get(next_fault).map(|f| f.at);
        let dep_t = in_flight.as_ref().map(|&(_, d, _)| d);
        let next_t = [arr_t, fault_t, dep_t].into_iter().flatten().min();
        let now = match next_t {
            Some(t) if t <= horizon => t,
            _ => break,
        };
        if dep_t == Some(now) {
            let (s, d, pkt) = in_flight.take().expect("in flight");
            sched.on_departure(now);
            departures.push(Departure {
                pkt,
                service_start: s,
                departure: d,
            });
        }
        while next_fault < faults.len() && faults[next_fault].at == now {
            match faults[next_fault].action {
                FaultAction::ForceRemove(flow) => {
                    discarded += sched.force_remove_flow(flow) as u64;
                    removed.insert(flow);
                }
                FaultAction::Revive(flow, weight) => {
                    sched.add_flow(flow, weight);
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
            } else {
                sched.try_enqueue(now, pkt)?;
            }
        }
        if in_flight.is_none() {
            if let Some(pkt) = sched.try_dequeue(now)? {
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

/// Materialize a single-server scenario's merged packet script.
/// Deterministic; the same `PacketFactory` minting order on every call.
pub fn materialize_packets(sc: &Scenario) -> Vec<Packet> {
    let mut pf = PacketFactory::new();
    let mut lists = Vec::new();
    for f in &sc.flows {
        let arrivals = sc.arrivals_for(f);
        lists.push(to_packets(&mut pf, FlowId(f.id), &arrivals));
    }
    merge(lists)
}

/// Translate a scenario's churn schedule into timed faults, sorted.
pub fn faults_from(sc: &Scenario) -> Vec<TimedFault> {
    let mut out = Vec::new();
    for c in &sc.churns {
        out.push(TimedFault {
            at: SimTime::from_millis(c.at_ms as i128),
            action: FaultAction::ForceRemove(FlowId(c.flow)),
        });
        if let Some(rv) = c.revive_ms {
            let weight = sc
                .flow(FlowId(c.flow))
                .map(|f| f.weight())
                .expect("churned flow has a spec");
            out.push(TimedFault {
                at: SimTime::from_millis(rv as i128),
                action: FaultAction::Revive(FlowId(c.flow), weight),
            });
        }
    }
    out.sort_by_key(|f| f.at);
    out
}

/// Register every flow of a single-server scenario on a scheduler.
pub fn register_flows(sc: &Scenario, sched: &mut dyn Scheduler) {
    for f in &sc.flows {
        sched.add_flow(FlowId(f.id), f.weight());
    }
}

/// True if this scenario's arrival script is burst-structured (the
/// Fair Airport workload); used by reports.
pub fn is_burst_scenario(sc: &Scenario) -> bool {
    sc.flows
        .iter()
        .any(|f| matches!(f.source, SourceKind::Bursts(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Preset, Scenario};
    use servers::run_server;
    use sfq_core::Sfq;

    #[test]
    fn no_faults_matches_run_server_exactly() {
        let sc = Scenario::from_seed(Preset::SingleFc, 21);
        let profile = crate::faults::hop_profile(&sc, 0, sc.horizon());
        let arrivals = materialize_packets(&sc);

        let mut a = Sfq::new();
        register_flows(&sc, &mut a);
        let plain = run_server(&mut a, &profile, &arrivals, sc.horizon());

        let mut b = Sfq::new();
        register_flows(&sc, &mut b);
        let faulted = run_faulted(&mut b, &profile, &arrivals, &[], sc.horizon());

        assert_eq!(plain, faulted.departures);
        assert_eq!(faulted.discarded, 0);
        assert_eq!(faulted.refused, 0);
    }

    #[test]
    fn checked_run_surfaces_scheduler_errors() {
        use simtime::Bytes;
        let sc = Scenario::from_seed(Preset::SingleFc, 33);
        let profile = crate::faults::hop_profile(&sc, 0, sc.horizon());
        // Register every flow but the first: its first arrival must
        // surface as UnknownFlow instead of a panic, replay line and
        // all (the same path a hostile/missing reservation takes).
        let mut sched = Sfq::new();
        for f in sc.flows.iter().skip(1) {
            sched.add_flow(FlowId(f.id), f.weight());
        }
        let arrivals = materialize_packets(&sc);
        let missing = FlowId(sc.flows[0].id);
        let err = run_faulted_checked(
            &mut sched,
            &profile,
            &arrivals,
            &[],
            sc.horizon(),
            &sc.replay_line(),
        )
        .expect_err("unregistered flow must fail the checked run");
        assert_eq!(err, SchedError::UnknownFlow(missing));

        // The panicking wrapper reports the same failure.
        let mut pf = PacketFactory::new();
        let one = vec![pf.make(FlowId(999), Bytes::new(100), SimTime::ZERO)];
        let mut bare = Sfq::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_faulted(&mut bare, &profile, &one, &[], SimTime::from_secs(1))
        }));
        assert!(caught.is_err(), "run_faulted must panic on UnknownFlow");
    }

    #[test]
    fn force_remove_discards_and_refuses_until_revive() {
        use simtime::Bytes;
        let mut pf = PacketFactory::new();
        let len = Bytes::new(125); // 1000 bits = 1 s at 1000 bps.
        let mut arrivals = Vec::new();
        // Flow 1 backlogs 5 packets at t=0; flow 2 keeps the server
        // honest. Removal at t=1.5s discards flow 1's backlog; an
        // arrival at t=2 is refused; revive at t=3 admits t=4 arrival.
        for _ in 0..5 {
            arrivals.push(pf.make(FlowId(1), len, SimTime::ZERO));
        }
        arrivals.push(pf.make(FlowId(2), len, SimTime::ZERO));
        arrivals.push(pf.make(FlowId(1), len, SimTime::from_secs(2)));
        arrivals.push(pf.make(FlowId(1), len, SimTime::from_secs(4)));
        arrivals.sort_by_key(|p| (p.arrival, p.uid));

        let mut sched = Sfq::new();
        sched.add_flow(FlowId(1), Rate::bps(500));
        sched.add_flow(FlowId(2), Rate::bps(500));
        let faults = vec![
            TimedFault {
                at: SimTime::from_millis(1_500),
                action: FaultAction::ForceRemove(FlowId(1)),
            },
            TimedFault {
                at: SimTime::from_secs(3),
                action: FaultAction::Revive(FlowId(1), Rate::bps(500)),
            },
        ];
        let profile = RateProfile::constant(Rate::bps(1_000));
        let rep = run_faulted(
            &mut sched,
            &profile,
            &arrivals,
            &faults,
            SimTime::from_secs(30),
        );
        assert_eq!(rep.refused, 1, "t=2 arrival refused");
        assert!(rep.discarded >= 3, "backlog discarded: {}", rep.discarded);
        // The post-revive packet is served.
        assert!(rep
            .departures
            .iter()
            .any(|d| d.pkt.flow == FlowId(1) && d.pkt.arrival == SimTime::from_secs(4)));
        // Nothing of flow 1 departs between the removal and the revive
        // beyond what was already in service at the removal instant.
        for d in &rep.departures {
            if d.pkt.flow == FlowId(1)
                && d.service_start > SimTime::from_millis(1_500)
                && d.service_start < SimTime::from_secs(3)
            {
                panic!("removed flow served mid-removal: {d:?}");
            }
        }
    }
}
