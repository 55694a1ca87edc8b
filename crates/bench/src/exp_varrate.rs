//! Generalized SFQ with per-packet variable rates (Eq. 36 and the
//! delay guarantee of Theorem 4 with rate functions `R_f(v)`).
//!
//! A VBR video flow renegotiates its rate per scene (the RCBR idea the
//! paper cites as motivation \[12\]): high-action scenes get a higher
//! per-packet rate `r_f^j`, quiet scenes a lower one, with the
//! admission condition `Σ_n R_n(v) <= C` maintained by a sibling whose
//! rate mirrors the video's (the paper's over-booking discussion).
//!
//! The experiment compares the video's in-scene packet delays when it
//! is charged (a) a fixed mean rate, vs (b) the renegotiated rates —
//! and checks the generalized Theorem 4 bound with variable EAT.

use analysis::{expected_arrival_times_var, sfq_delay_term};
use servers::{run_server_by, Departure, RateProfile};
use sfq_core::{FlowId, Packet, PacketFactory, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use std::collections::HashMap;

const LINK: u64 = 1_000_000;
const LEN: u64 = 500;
const HI: u64 = 600_000; // action-scene rate
const LO: u64 = 200_000; // quiet-scene rate
const SCENE_MS: i128 = 500;

/// Result of the variable-rate experiment.
#[derive(Debug, Clone)]
pub struct VarRateResult {
    /// Max delay of action-scene packets with fixed mean-rate charging.
    pub fixed_max_delay_s: f64,
    /// Max delay of action-scene packets with per-packet rates.
    pub var_max_delay_s: f64,
    /// Worst violation of the generalized Theorem 4 bound (s).
    pub bound_violation_s: f64,
}

/// The video's arrival pattern plus each packet's negotiated rate:
/// scenes alternate HI/LO every `SCENE_MS`, sending CBR at the scene
/// rate.
fn video_arrivals(pf: &mut PacketFactory, horizon: SimTime) -> Vec<(Packet, Rate)> {
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let mut hi = true;
    while t < horizon {
        let scene_rate = if hi { HI } else { LO };
        let gap = Rate::bps(scene_rate).tx_time(Bytes::new(LEN));
        let scene_end = t + SimDuration::from_millis(SCENE_MS);
        while t < scene_end && t < horizon {
            out.push((
                pf.make(FlowId(1), Bytes::new(LEN), t),
                Rate::bps(scene_rate),
            ));
            t += gap;
        }
        t = scene_end;
        hi = !hi;
    }
    out
}

/// The complementary flow: backlogged data whose negotiated rate
/// mirrors the video so `Σ R_n(v) <= C` always holds (plus one fixed
/// low-rate audio flow).
fn run(charge_variable: bool) -> (Vec<Departure>, Vec<(SimTime, Bytes, Rate)>) {
    let horizon = SimTime::from_secs(20);
    let mut sched = Sfq::new();
    sched.add_flow(FlowId(1), Rate::bps((HI + LO) / 2));
    sched.add_flow(FlowId(2), Rate::bps(LINK - HI - 64_000));
    sched.add_flow(FlowId(3), Rate::bps(64_000));
    let mut pf = PacketFactory::new();
    let video = video_arrivals(&mut pf, horizon);
    let mut rates: HashMap<u64, Rate> = HashMap::new();
    let mut video_rate_seq: Vec<(SimTime, Bytes, Rate)> = Vec::new();
    let mut arrivals: Vec<Packet> = Vec::new();
    for (p, r) in &video {
        rates.insert(p.uid, *r);
        video_rate_seq.push((p.arrival, p.len, *r));
        arrivals.push(*p);
    }
    // Data flow: backlogged the whole time.
    for _ in 0..12_000 {
        arrivals.push(pf.make(FlowId(2), Bytes::new(1_000), SimTime::ZERO));
    }
    // Audio: CBR 64 Kb/s, 200 B.
    let gap = Rate::kbps(64).tx_time(Bytes::new(200));
    let mut t = SimTime::ZERO;
    while t < horizon {
        arrivals.push(pf.make(FlowId(3), Bytes::new(200), t));
        t += gap;
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    let profile = RateProfile::constant(Rate::bps(LINK));
    let deps = run_server_by(&mut sched, &profile, &arrivals, horizon, |s, now, pkt| {
        if charge_variable && pkt.flow == FlowId(1) {
            s.enqueue_with_rate(now, pkt, rates[&pkt.uid]);
        } else {
            s.enqueue(now, pkt);
        }
    });
    (deps, video_rate_seq)
}

/// Run the experiment.
pub fn var_rate() -> VarRateResult {
    let (deps_fixed, _) = run(false);
    let (deps_var, rate_seq) = run(true);

    // Max delay of video packets (all scenes; the action scenes
    // dominate because the fixed charge under-provisions them).
    let maxd = |deps: &[Departure]| {
        deps.iter()
            .filter(|d| d.pkt.flow == FlowId(1))
            .map(|d| (d.departure - d.pkt.arrival).as_secs_f64())
            .fold(0.0f64, f64::max)
    };

    // Generalized Theorem 4 bound with variable EAT: L <= EAT_var +
    // Σ_{n≠f} l_n^max/C + l/C (δ = 0 on the constant server).
    let beta = sfq_delay_term(
        &[Bytes::new(1_000), Bytes::new(200)],
        Bytes::new(LEN),
        Rate::bps(LINK),
        0,
    );
    let eats = expected_arrival_times_var(&rate_seq);
    let mut video_deps: Vec<&Departure> = deps_var
        .iter()
        .filter(|d| d.pkt.flow == FlowId(1))
        .collect();
    video_deps.sort_by_key(|d| (d.pkt.arrival, d.pkt.seq));
    let mut worst = SimDuration::ZERO;
    for (d, eat) in video_deps.iter().zip(eats) {
        let bound = eat + beta;
        if d.departure > bound {
            worst = worst.max(d.departure - bound);
        }
    }
    VarRateResult {
        fixed_max_delay_s: maxd(&deps_fixed),
        var_max_delay_s: maxd(&deps_var),
        bound_violation_s: worst.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renegotiated_rates_cut_action_scene_delay_and_bound_holds() {
        let r = var_rate();
        assert!(
            r.var_max_delay_s < r.fixed_max_delay_s,
            "variable-rate charging should reduce the video's worst delay: {r:?}"
        );
        assert_eq!(r.bound_violation_s, 0.0, "generalized Theorem 4: {r:?}");
    }
}
