//! Figure 2(a): analytic reduction in maximum delay, SFQ vs WFQ.
//! Figure 2(b): simulated average delay of low-throughput Poisson
//! flows, WFQ vs SFQ.

use analysis::{delta_wfq_minus_sfq, packet_delays, DelaySummary};
use baselines::Wfq;
use des::SimRng;
use servers::{run_server, RateProfile};
use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimTime};
use traffic::{arrivals_until, merge, to_packets, ParetoOnOffSource, PoissonSource};

/// One point of Figure 2(a): Δ max-delay (WFQ − SFQ) for a flow of the
/// given rate among `n_flows` equal-packet flows.
#[derive(Debug, Clone)]
pub struct Fig2aPoint {
    /// Number of flows |Q| at the server.
    pub n_flows: usize,
    /// The observed flow's rate (b/s).
    pub rate_bps: u64,
    /// Δ(p) in seconds (positive: SFQ delivers earlier).
    pub delta_s: f64,
}

/// Figure 2(a): sweep flow counts and rates (200-byte packets,
/// C = 100 Mb/s as in the paper).
pub fn fig2a() -> Vec<Fig2aPoint> {
    let c = Rate::mbps(100);
    let l = Bytes::new(200);
    let mut out = Vec::new();
    for &rate in &[
        Rate::kbps(16),
        Rate::kbps(64),
        Rate::kbps(256),
        Rate::mbps(1),
    ] {
        for &n in &[10usize, 50, 100, 200, 300, 400, 500] {
            let others = vec![l; n - 1];
            let delta = delta_wfq_minus_sfq(l, rate, l, &others, c);
            out.push(Fig2aPoint {
                n_flows: n,
                rate_bps: rate.as_bps(),
                delta_s: delta.to_f64(),
            });
        }
    }
    out
}

/// Section 2.3's mixed population under Eq. 58: 70 flows at 1 Mb/s and
/// 200 at 64 Kb/s, 200-byte packets, C = 100 Mb/s. Returns Δ(p) in
/// seconds for a 64 Kb/s flow and for a 1 Mb/s flow (positive: SFQ
/// delivers earlier).
pub fn eq58_mix() -> (f64, f64) {
    let l = Bytes::new(200);
    let others = vec![l; 269];
    let delta = |rate| delta_wfq_minus_sfq(l, rate, l, &others, Rate::mbps(100)).to_f64();
    (delta(Rate::kbps(64)), delta(Rate::mbps(1)))
}

/// One point of Figure 2(b).
#[derive(Debug, Clone)]
pub struct Fig2bPoint {
    /// Number of low-throughput (32 Kb/s) flows.
    pub n_low: usize,
    /// Link utilization (offered load / capacity).
    pub utilization: f64,
    /// Average delay of low-throughput packets under WFQ (s).
    pub wfq_avg_delay_s: f64,
    /// Average delay of low-throughput packets under SFQ (s).
    pub sfq_avg_delay_s: f64,
}

/// Figure 2(b): 7 Poisson flows at 100 Kb/s plus `n_low` Poisson flows
/// at 32 Kb/s share a 1 Mb/s link; 200-byte packets. The paper runs
/// 1000 s; the paper record runs 60 s.
pub fn fig2b(n_lows: &[usize], horizon: SimTime, seed: u64) -> Vec<Fig2bPoint> {
    sweep(n_lows, horizon, seed, false)
}

/// Robustness variant of Figure 2(b): the low-throughput flows are
/// heavy-tailed Pareto on-off instead of Poisson. SFQ's start-tag
/// scheduling should keep its average-delay advantage for them.
pub fn fig2b_pareto(n_lows: &[usize], horizon: SimTime, seed: u64) -> Vec<Fig2bPoint> {
    sweep(n_lows, horizon, seed, true)
}

/// The Figure 2(b) sweep, its low-throughput flows Poisson or Pareto on-off.
fn sweep(n_lows: &[usize], horizon: SimTime, seed: u64, pareto: bool) -> Vec<Fig2bPoint> {
    let link = Rate::mbps(1);
    let len = Bytes::new(200);
    let high_rate = Rate::kbps(100);
    let low_rate = Rate::kbps(32);
    let mut out = Vec::new();
    for &n_low in n_lows {
        // Build one arrival schedule per point, shared by both
        // disciplines so the comparison is paired.
        let mut pf = PacketFactory::new();
        let mut rng = SimRng::new(seed ^ ((n_low as u64) << 32));
        let mut lists = Vec::new();
        let mut flows = Vec::new();
        for i in 0..7 {
            let flow = FlowId(i);
            flows.push((flow, high_rate));
            let src = PoissonSource::with_rate(SimTime::ZERO, high_rate, len, rng.fork(i as u64));
            lists.push(to_packets(&mut pf, flow, &arrivals_until(src, horizon)));
        }
        for i in 0..n_low {
            let (flow, rng) = (FlowId(100 + i as u32), rng.fork(100 + i as u64));
            flows.push((flow, low_rate));
            let arrivals = if pareto {
                // ~32 Kb/s mean: 64 Kb/s on-rate at 50% duty cycle, shape 1.5.
                let gap = Rate::kbps(64).tx_time(len);
                let src = ParetoOnOffSource::new(SimTime::ZERO, gap, len, 0.4, 0.4, 1.5, rng);
                arrivals_until(src, horizon)
            } else {
                arrivals_until(
                    PoissonSource::with_rate(SimTime::ZERO, low_rate, len, rng),
                    horizon,
                )
            };
            lists.push(to_packets(&mut pf, flow, &arrivals));
        }
        let arrivals = merge(lists);
        let run = |sched: &mut dyn Scheduler| -> f64 {
            for &(f, r) in &flows {
                sched.add_flow(f, r);
            }
            let profile = RateProfile::constant(link);
            let deps = run_server(&mut *sched, &profile, &arrivals, horizon);
            let mut low_delays = Vec::new();
            for i in 0..n_low {
                low_delays.extend(packet_delays(&deps, FlowId(100 + i as u32)));
            }
            let s = DelaySummary::from_durations(&low_delays).expect("low flows saw packets");
            s.mean_s
        };
        out.push(Fig2bPoint {
            n_low,
            utilization: (7.0 * 100_000.0 + n_low as f64 * 32_000.0) / 1_000_000.0,
            wfq_avg_delay_s: run(&mut Wfq::new(link)),
            sfq_avg_delay_s: run(&mut Sfq::new()),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_reduction_larger_for_lower_rates() {
        let pts = fig2a();
        // At fixed |Q| = 100, the 16 Kb/s flow gains more than the
        // 1 Mb/s flow.
        let at = |rate: u64, n: usize| {
            pts.iter()
                .find(|p| p.rate_bps == rate && p.n_flows == n)
                .expect("point")
                .delta_s
        };
        assert!(at(16_000, 100) > at(64_000, 100));
        assert!(at(64_000, 100) > at(1_000_000, 100));
        // Low-rate flows always gain (positive Δ) at moderate |Q|.
        assert!(at(16_000, 500) > 0.0);
        // High-rate flows can lose once |Q| is large (Eq. 60).
        assert!(at(1_000_000, 500) < 0.0);
    }

    #[test]
    fn fig2b_pareto_sfq_still_wins_on_average() {
        let pts = fig2b_pareto(&[5], SimTime::from_secs(60), 13);
        assert!(
            pts[0].sfq_avg_delay_s < pts[0].wfq_avg_delay_s,
            "SFQ advantage should survive heavy tails: {:?}",
            pts[0]
        );
    }

    #[test]
    fn fig2b_sfq_average_delay_below_wfq() {
        // Short horizon keeps the test fast; shape must already hold.
        let pts = fig2b(&[4, 8], SimTime::from_secs(60), 7);
        for p in &pts {
            assert!(
                p.sfq_avg_delay_s < p.wfq_avg_delay_s,
                "SFQ avg should be lower: {p:?}"
            );
        }
        // Delay grows with utilization.
        assert!(pts[1].sfq_avg_delay_s > pts[0].sfq_avg_delay_s);
    }
}
