//! Appendix B experiments: Fair Airport achieves (a) fairness — even
//! over variable-rate servers — where plain Virtual Clock does not
//! (Theorem 8), and (b) WFQ's delay guarantee (Theorem 9).

use analysis::{max_fairness_gap, max_guarantee_violation};
use baselines::VirtualClock;
use servers::{fc_on_off, run_server, FcParams, RateProfile};
use sfq_core::{FairAirport, FlowId, Packet, PacketFactory, Scheduler};
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// Fair Airport experiment result.
#[derive(Debug, Clone)]
pub struct FaResult {
    /// Measured fairness gap under Fair Airport (s).
    pub fa_gap_s: f64,
    /// Theorem 8 bound `3(l_f/r_f + l_m/r_m) + 2β` (s).
    pub fa_bound_s: f64,
    /// Measured fairness gap under plain Virtual Clock (s).
    pub vc_gap_s: f64,
    /// Worst violation of the Theorem 9 delay bound (s); 0 = holds.
    pub delay_violation_s: f64,
}

/// The "punished for using idle bandwidth" workload: flow 1 bursts
/// alone first, then flow 2 joins and both stay backlogged.
fn workload(pf: &mut PacketFactory) -> Vec<Packet> {
    let len = Bytes::new(250);
    let mut arrivals = Vec::new();
    // Phase 1 [0, ~25 s at 2000 bps]: flow 1 alone, 25 packets.
    for _ in 0..25 {
        arrivals.push(pf.make(FlowId(1), len, SimTime::ZERO));
    }
    // Phase 2: both flows heavily backlogged from t = 25 s.
    let t2 = SimTime::from_secs(25);
    for _ in 0..40 {
        arrivals.push(pf.make(FlowId(1), len, t2));
        arrivals.push(pf.make(FlowId(2), len, t2));
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    arrivals
}

/// Run the Fair Airport comparison on a constant or FC server.
pub fn fair_airport(fluctuating: bool) -> FaResult {
    let c = Rate::bps(2_000);
    let weight = Rate::bps(1_000);
    let len = Bytes::new(250); // span = 2 s at weight, tx = 1 s at link
    let horizon = SimTime::from_secs(200);
    let profile = if fluctuating {
        fc_on_off(
            FcParams {
                rate: c,
                delta_bits: 2_000,
            },
            horizon,
        )
    } else {
        RateProfile::constant(c)
    };
    // Both flows backlogged during [25 s, 85 s]: 40 packets each at a
    // fair 1000 bps is 80 s of drain.
    let gap_window = (SimTime::from_secs(26), SimTime::from_secs(80));

    let run = |sched: &mut dyn Scheduler| {
        sched.add_flow(FlowId(1), weight);
        sched.add_flow(FlowId(2), weight);
        let mut pf = PacketFactory::new();
        let arrivals = workload(&mut pf);
        run_server(&mut *sched, &profile, &arrivals, horizon)
    };
    let mut fa = FairAirport::new();
    let deps_fa = run(&mut fa);
    let mut vc = VirtualClock::new();
    let deps_vc = run(&mut vc);

    let gap = |deps: &[servers::Departure]| {
        max_fairness_gap(
            deps,
            FlowId(1),
            weight,
            FlowId(2),
            weight,
            gap_window.0,
            gap_window.1,
        )
        .to_f64()
    };
    // Theorem 8 bound: 3(l/r + l/r) + 2β, β = l_max / C_min. With the
    // FC profile the instantaneous rate dips to 0, so use the average
    // rate as the paper's "minimum capacity" stand-in and add δ/C.
    let beta = c.tag_span(len).to_f64() + (2_000.0 / c.as_bps() as f64);
    let bound = 3.0 * (2.0 * weight.tag_span(len).to_f64()) + 2.0 * beta;
    // Theorem 9: L <= EAT + l/r + β.
    let term = SimDuration::from_ratio(weight.tag_span(len)) + SimDuration::from_millis(2_000);
    let viol = max_guarantee_violation(&deps_fa, FlowId(2), weight, term)
        .max(max_guarantee_violation(&deps_fa, FlowId(1), weight, term));
    FaResult {
        fa_gap_s: gap(&deps_fa),
        fa_bound_s: bound,
        vc_gap_s: gap(&deps_vc),
        delay_violation_s: viol.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fa_fair_vc_unfair_constant_server() {
        let r = fair_airport(false);
        assert!(r.fa_gap_s <= r.fa_bound_s + 1e-9, "{r:?}");
        // Virtual Clock punishes flow 1's earlier burst: its gap blows
        // far past FA's.
        assert!(r.vc_gap_s > r.fa_gap_s * 2.0, "{r:?}");
        assert_eq!(r.delay_violation_s, 0.0, "{r:?}");
    }

    #[test]
    fn fa_fair_on_fluctuating_server() {
        let r = fair_airport(true);
        assert!(r.fa_gap_s <= r.fa_bound_s + 1e-9, "{r:?}");
        assert_eq!(r.delay_violation_s, 0.0, "{r:?}");
    }
}
