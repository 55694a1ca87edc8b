//! Differential oracle: run one scenario through two schedulers (or
//! one scheduler against an analytical bound from `crates/analysis`)
//! and report the *first* divergence as a minimized, human-readable
//! event trace assembled from the PR 2 observer layer.

use crate::exec::{faults_from, materialize_packets, register_flows, run_faulted};
use crate::faults::{effective_delta_bits, hop_profile};
use crate::scenario::{other_lmax_at, Scenario, OBSERVED_FLOW};
use analysis::{max_guarantee_violation, scfq_delay_term, sfq_delay_term, wfq_delay_term};
use baselines::{Fifo, Scfq, VirtualClock};
use servers::Departure;
use sfq_core::{FairAirport, Scheduler, Sfq, TieBreak};
use sfq_obs::RingTracer;
use simtime::{Bytes, Ratio, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Scheduling disciplines the oracle can instantiate (all with a
/// ring tracer attached, so divergences come with context).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// Start-time Fair Queueing (FIFO tie-break).
    Sfq,
    /// Self-Clocked Fair Queueing.
    Scfq,
    /// Virtual Clock.
    Vc,
    /// Fair Airport (Appendix B).
    FairAirport,
    /// FIFO — deliberately *not* fair; useful as a known-divergent peer.
    Fifo,
}

impl SchedKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Sfq => "sfq",
            SchedKind::Scfq => "scfq",
            SchedKind::Vc => "vc",
            SchedKind::FairAirport => "fair-airport",
            SchedKind::Fifo => "fifo",
        }
    }
}

/// Build a boxed scheduler of `kind` with a shared ring tracer
/// attached. The tracer handle stays readable after the run.
pub fn build_traced(
    kind: SchedKind,
    capacity: usize,
) -> (Box<dyn Scheduler>, Rc<RefCell<RingTracer>>) {
    let tracer = Rc::new(RefCell::new(RingTracer::with_capacity(capacity)));
    let sched: Box<dyn Scheduler> = match kind {
        SchedKind::Sfq => Box::new(Sfq::with_observer(TieBreak::Fifo, tracer.clone())),
        SchedKind::Scfq => Box::new(Scfq::with_observer(tracer.clone())),
        SchedKind::Vc => Box::new(VirtualClock::with_observer(tracer.clone())),
        SchedKind::FairAirport => Box::new(FairAirport::with_observer(tracer.clone())),
        SchedKind::Fifo => Box::new(Fifo::with_observer(tracer.clone())),
    };
    (sched, tracer)
}

/// One side of a differential run.
struct Side {
    name: &'static str,
    departures: Vec<Departure>,
    tracer: Rc<RefCell<RingTracer>>,
}

/// The first point where two runs disagree, with a minimized trace.
#[derive(Debug)]
pub struct Divergence {
    /// Index into the departure schedules.
    pub index: usize,
    /// Human-readable report: the disagreeing departures plus each
    /// side's observer events near the divergence, restricted to the
    /// implicated flows.
    pub detail: String,
}

/// Result of a differential run.
#[derive(Debug)]
pub struct DiffReport {
    /// Departures compared before divergence (or total, if none).
    pub compared: usize,
    /// First divergence, if the schedules disagree anywhere.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// True when both sides produced identical departure schedules.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Index of the first disagreement between two departure schedules
/// (packet identity, service start, or departure time), or the shorter
/// length if one is a strict prefix of the other. `None` if identical.
pub fn first_divergence(a: &[Departure], b: &[Departure]) -> Option<usize> {
    let n = a.len().min(b.len());
    for i in 0..n {
        let (x, y) = (&a[i], &b[i]);
        if x.pkt.uid != y.pkt.uid
            || x.service_start != y.service_start
            || x.departure != y.departure
        {
            return Some(i);
        }
    }
    (a.len() != b.len()).then_some(n)
}

fn fmt_departure(d: Option<&Departure>) -> String {
    match d {
        Some(d) => format!(
            "uid={} flow={} len={}B arr={:.6}s start={:.6}s dep={:.6}s",
            d.pkt.uid,
            d.pkt.flow.0,
            d.pkt.len.as_u64(),
            d.pkt.arrival.as_secs_f64(),
            d.service_start.as_secs_f64(),
            d.departure.as_secs_f64()
        ),
        None => "<schedule ended>".to_string(),
    }
}

fn render_side_trace(side: &Side, flows: &[u32], around: SimTime, window_s: f64) -> String {
    let t0 = around.as_secs_f64() - window_s;
    let t1 = around.as_secs_f64() + window_s;
    let tracer = side.tracer.borrow();
    let mut out = String::new();
    let mut shown = 0;
    for r in tracer.records() {
        if r.time_s < t0 || r.time_s > t1 {
            continue;
        }
        if !flows.is_empty() && !flows.contains(&r.flow) && r.flow != 0 {
            continue;
        }
        out.push_str(&format!(
            "    [{:<18}] t={:.6}s flow={} uid={} len={}B S={:.6} F={:.6} v={:.6}\n",
            r.kind.as_str(),
            r.time_s,
            r.flow,
            r.uid,
            r.len,
            r.start_tag,
            r.finish_tag,
            r.v
        ));
        shown += 1;
        if shown >= 24 {
            out.push_str("    ... (trace truncated)\n");
            break;
        }
    }
    if out.is_empty() {
        out.push_str("    (no retained events in window)\n");
    }
    out
}

fn render_divergence(sc: &Scenario, a: &Side, b: &Side, idx: usize) -> String {
    let da = a.departures.get(idx);
    let db = b.departures.get(idx);
    // Minimize: only the flows implicated at the divergence, in a
    // ±2 packet-transmission window around the earliest disagreeing
    // departure time.
    let mut flows: Vec<u32> = [da, db].iter().flatten().map(|d| d.pkt.flow.0).collect();
    flows.sort_unstable();
    flows.dedup();
    let around = [da, db]
        .iter()
        .flatten()
        .map(|d| d.departure)
        .min()
        .unwrap_or(SimTime::ZERO);
    let window_s = 2.0 * sc.link().tx_time(simtime::Bytes::new(500)).as_secs_f64() + 0.01;
    let mut out = String::new();
    out.push_str(&format!(
        "schedules diverge at departure #{idx} ({} vs {}):\n",
        a.name, b.name
    ));
    out.push_str(&format!("  {:<12}: {}\n", a.name, fmt_departure(da)));
    out.push_str(&format!("  {:<12}: {}\n", b.name, fmt_departure(db)));
    out.push_str(&format!("  {}\n", sc.replay_line()));
    out.push_str(&format!(
        "  trace {} (flows {:?}, ±{:.3}s):\n{}",
        a.name,
        flows,
        window_s,
        render_side_trace(a, &flows, around, window_s)
    ));
    out.push_str(&format!(
        "  trace {} (flows {:?}, ±{:.3}s):\n{}",
        b.name,
        flows,
        window_s,
        render_side_trace(b, &flows, around, window_s)
    ));
    out
}

fn run_side(sc: &Scenario, kind: SchedKind, horizon: SimTime) -> Side {
    let (mut sched, tracer) = build_traced(kind, 4_096);
    register_flows(sc, sched.as_mut());
    let profile = hop_profile(sc, 0, horizon);
    let arrivals = materialize_packets(sc);
    let faults = faults_from(sc);
    let rep = run_faulted(sched.as_mut(), &profile, &arrivals, &faults, horizon);
    Side {
        name: kind.name(),
        departures: rep.departures,
        tracer,
    }
}

/// Run a single-server scenario through two disciplines and report the
/// first divergence (identical fault schedule, arrivals, and server
/// profile on both sides).
pub fn diff_schedulers(sc: &Scenario, a: SchedKind, b: SchedKind) -> DiffReport {
    assert_eq!(sc.hops, 1, "differential oracle is single-server");
    // Drain slack: everything admitted by the horizon gets a chance to
    // depart before comparison cuts off.
    let horizon = sc.horizon() + SimDuration::from_secs(30);
    let sa = run_side(sc, a, horizon);
    let sb = run_side(sc, b, horizon);
    match first_divergence(&sa.departures, &sb.departures) {
        None => DiffReport {
            compared: sa.departures.len(),
            divergence: None,
        },
        Some(idx) => DiffReport {
            compared: idx,
            divergence: Some(Divergence {
                index: idx,
                detail: render_divergence(sc, &sa, &sb, idx),
            }),
        },
    }
}

/// Scheduler-vs-analytical-bound oracle: run `kind` on the scenario's
/// (possibly faulted) profile and measure the worst violation of its
/// own delay theorem for the observed flow. Droops are folded into the
/// effective δ. Supported for SFQ (Theorem 4), SCFQ (Eq. 56) and Fair
/// Airport (Theorem 9); returns `None` for disciplines without a
/// transcribed bound.
pub struct BoundCheck {
    /// Worst violation (zero = theorem holds).
    pub violation: SimDuration,
    /// The delay term used.
    pub term: SimDuration,
    /// Replay line for the failure message.
    pub replay: String,
}

/// See [`BoundCheck`].
pub fn check_against_bound(sc: &Scenario, kind: SchedKind) -> Option<BoundCheck> {
    assert_eq!(sc.hops, 1, "bound oracle is single-server");
    let horizon = sc.horizon() + SimDuration::from_secs(30);
    let profile = hop_profile(sc, 0, horizon);
    let obs = sc.observed();
    let others = other_lmax_at(sc, 0, OBSERVED_FLOW);
    let term = match kind {
        SchedKind::Sfq => {
            let delta = effective_delta_bits(sc, &profile, horizon);
            sfq_delay_term(&others, obs.max_len(), sc.link(), delta)
        }
        SchedKind::Scfq => {
            if !matches!(sc.server, crate::scenario::ServerSpec::Constant) || !sc.droops.is_empty()
            {
                return None; // Eq. 56 is a constant-rate statement.
            }
            scfq_delay_term(&others, obs.max_len(), obs.weight(), sc.link())
        }
        SchedKind::FairAirport => {
            // Theorem 9: WFQ's term `l/r + l_max/C`, plus `δ/C`.
            let lmax = others.iter().copied().fold(obs.max_len(), Bytes::max);
            let delta = effective_delta_bits(sc, &profile, horizon);
            let c = sc.link();
            wfq_delay_term(obs.max_len(), obs.weight(), lmax, c)
                + SimDuration::from_ratio(Ratio::new(delta as i128, c.as_bps() as i128))
        }
        _ => return None,
    };
    let side = run_side(sc, kind, horizon);
    let violation = max_guarantee_violation(&side.departures, OBSERVED_FLOW, obs.weight(), term);
    Some(BoundCheck {
        violation,
        term,
        replay: sc.replay_line(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn identical_kinds_never_diverge() {
        let sc = Scenario::from_seed(Preset::SingleFc, 14);
        let rep = diff_schedulers(&sc, SchedKind::Sfq, SchedKind::Sfq);
        assert!(rep.identical(), "{:?}", rep.divergence.map(|d| d.detail));
        assert!(rep.compared > 0, "scenario produced no departures");
    }

    #[test]
    fn sfq_vs_fifo_diverges_with_readable_report() {
        // A scenario with weighted flows: FIFO ignores weights, so the
        // schedules must part ways, and the report must carry the
        // replay line plus both traces.
        let mut seed = 3u64;
        let rep = loop {
            let sc = Scenario::from_seed(Preset::SingleFc, seed);
            let rep = diff_schedulers(&sc, SchedKind::Sfq, SchedKind::Fifo);
            if rep.divergence.is_some() {
                break rep;
            }
            seed += 1;
            assert!(seed < 20, "no divergence found in 17 seeds");
        };
        let d = rep.divergence.expect("diverged");
        assert!(d.detail.contains("conformance replay: preset=single-fc"));
        assert!(d.detail.contains("trace sfq"));
        assert!(d.detail.contains("trace fifo"));
        assert!(d.detail.contains("schedules diverge at departure"));
    }

    /// Theorem 9's term on the `fair-airport` preset: 250-byte packets,
    /// 1 kb/s flows on a 2 kb/s link, so `l/r + l/C` is 3 s, plus `δ/C`.
    #[test]
    fn fair_airport_bound_oracle_holds() {
        for seed in 0u64..8 {
            let sc = Scenario::from_seed(Preset::FairAirport, seed);
            let check = check_against_bound(&sc, SchedKind::FairAirport).expect("fa bound");
            let delta = match sc.server {
                crate::scenario::ServerSpec::Fc { delta_bits } => delta_bits,
                _ => 0,
            };
            let want = SimDuration::from_secs(3)
                + SimDuration::from_ratio(Ratio::new(delta as i128, 2_000));
            let in_range = SimDuration::from_secs(3) <= check.term && check.term <= want;
            assert!(
                in_range,
                "term {:?}, δ {delta}\n  {}",
                check.term, check.replay
            );
            assert_eq!(
                check.violation,
                SimDuration::ZERO,
                "Theorem 9\n  {}",
                check.replay
            );
        }
    }

    #[test]
    fn sfq_bound_oracle_holds_under_faults() {
        for seed in [1u64, 8, 33] {
            let sc = Scenario::from_seed(Preset::SingleFc, seed);
            let check = check_against_bound(&sc, SchedKind::Sfq).expect("sfq bound");
            assert_eq!(
                check.violation,
                SimDuration::ZERO,
                "Theorem 4 violated by {:?}\n  {}",
                check.violation,
                check.replay
            );
        }
    }
}
