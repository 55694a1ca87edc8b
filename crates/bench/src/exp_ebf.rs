//! Theorems 3 and 5: SFQ over an Exponentially Bounded Fluctuation
//! server. The deterministic FC bounds become probabilistic — the
//! probability that a packet is later than `EAT + β + γ/C` (or that a
//! backlogged flow falls more than the Theorem 2 floor plus `γ` short)
//! must decay at least exponentially in `γ`.
//!
//! Our EBF server is the `ebf_catch_up` profile (random slot-start
//! idle gaps with full catch-up). We measure the empirical violation
//! tails and check (a) monotone decay, (b) an exponential envelope
//! fitted at a small γ dominates the measured tail at larger γ, and
//! (c) the tail reaches zero within the construction's hard deficit
//! ceiling.

use analysis::{expected_arrival_times, sfq_delay_term};
use des::SimRng;
use servers::{ebf_catch_up, run_server, Departure};
use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use traffic::{arrivals_until, merge, to_packets, CbrSource};

/// Empirical tail of Theorem 5 lateness.
#[derive(Debug, Clone)]
pub struct EbfTailPoint {
    /// Excess γ expressed in bits of work at rate C.
    pub gamma_bits: u64,
    /// Fraction of packets later than `EAT + β + γ/C`.
    pub delay_tail: f64,
    /// Fraction of sampled backlogged intervals shorter than the
    /// Theorem 2 floor minus `r γ / C` (Theorem 3).
    pub throughput_tail: f64,
}

/// Result of the EBF experiment.
#[derive(Debug, Clone)]
pub struct EbfResult {
    /// Measured tails by γ.
    pub points: Vec<EbfTailPoint>,
    /// Total packets observed.
    pub packets: usize,
}

const LINK: u64 = 100_000;
const SLOT_MS: i128 = 50;
const GAP_MS: i128 = 10;

/// Run SFQ over an EBF server and measure the Theorem 3/5 tails.
pub fn ebf_tails(seed: u64, horizon_s: i128) -> EbfResult {
    let horizon = SimTime::from_secs(horizon_s);
    let mut rng = SimRng::new(seed);
    let profile = ebf_catch_up(
        Rate::bps(LINK),
        SimDuration::from_millis(SLOT_MS),
        SimDuration::from_millis(GAP_MS),
        horizon,
        &mut rng,
    );
    // Admitted flows: 4 CBR flows, Σr = 80% of C; flow 1 observed and
    // also backlogged via a head burst.
    let weights = [30_000u64, 20_000, 20_000, 10_000];
    let lens = [500u64, 800, 300, 600];
    let mut sched = Sfq::new();
    for (i, &w) in weights.iter().enumerate() {
        sched.add_flow(FlowId(i as u32 + 1), Rate::bps(w));
    }
    let mut pf = PacketFactory::new();
    let mut lists = Vec::new();
    for (i, (&w, &l)) in weights.iter().zip(&lens).enumerate() {
        let flow = FlowId(i as u32 + 1);
        let src = CbrSource::with_rate(SimTime::ZERO, Rate::bps(w), Bytes::new(l));
        lists.push(to_packets(&mut pf, flow, &arrivals_until(src, horizon)));
    }
    let arrivals = merge(lists);
    let deps = run_server(&mut sched, &profile, &arrivals, horizon);

    // Per-packet lateness beyond the δ=0 term (the EBF server has no
    // deterministic δ; all slack is stochastic γ).
    let mut lateness_bits: Vec<f64> = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        let flow = FlowId(i as u32 + 1);
        let own = Bytes::new(lens[i]);
        let others: Vec<Bytes> = lens
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &l)| Bytes::new(l))
            .collect();
        let beta = sfq_delay_term(&others, own, Rate::bps(LINK), 0);
        let mut flow_deps: Vec<&Departure> = deps.iter().filter(|d| d.pkt.flow == flow).collect();
        flow_deps.sort_by_key(|d| (d.pkt.arrival, d.pkt.seq));
        let arr: Vec<(SimTime, Bytes)> = flow_deps
            .iter()
            .map(|d| (d.pkt.arrival, d.pkt.len))
            .collect();
        let eats = expected_arrival_times(&arr, Rate::bps(w));
        for (d, eat) in flow_deps.iter().zip(eats) {
            let bound = eat + beta;
            let late_s = if d.departure > bound {
                (d.departure - bound).as_secs_f64()
            } else {
                0.0
            };
            lateness_bits.push(late_s * LINK as f64);
        }
    }

    // Theorem 3 side: deficits of flow 1's cumulative service against
    // the Theorem 2 floor, over random service-boundary intervals.
    let all_lmax: Vec<Bytes> = lens.iter().map(|&l| Bytes::new(l)).collect();
    let boundaries: Vec<SimTime> = deps.iter().map(|d| d.departure).collect();
    let mut tput_deficit_bits: Vec<f64> = Vec::new();
    let mut sampler = SimRng::new(seed ^ 0xabcd);
    let n = boundaries.len();
    if n > 2 {
        for _ in 0..4_000 {
            let i = sampler.uniform_range(0, (n - 1) as u64) as usize;
            let j = sampler.uniform_range(i as u64 + 1, n as u64) as usize;
            let (a, b) = (boundaries[i], boundaries[j]);
            let floor = analysis::sfq_throughput_floor_bits(
                Rate::bps(weights[0]),
                b - a,
                &all_lmax,
                Rate::bps(LINK),
                0,
                Bytes::new(lens[0]),
            );
            let got = analysis::work_in_interval(&deps, FlowId(1), a, b).bits_ratio();
            let deficit = (floor - got).to_f64();
            tput_deficit_bits.push(deficit.max(0.0));
        }
    }

    let gammas: Vec<u64> = vec![0, 500, 1_000, 2_000, 4_000, 8_000, 16_000];
    let points = gammas
        .iter()
        .map(|&g| EbfTailPoint {
            gamma_bits: g,
            delay_tail: lateness_bits.iter().filter(|&&lb| lb > g as f64).count() as f64
                / lateness_bits.len().max(1) as f64,
            throughput_tail: tput_deficit_bits
                .iter()
                // Theorem 3 subtracts r γ / C from the floor.
                .filter(|&&d| d > g as f64 * weights[0] as f64 / LINK as f64)
                .count() as f64
                / tput_deficit_bits.len().max(1) as f64,
        })
        .collect();
    EbfResult {
        points,
        packets: lateness_bits.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_decay_and_vanish() {
        let r = ebf_tails(21, 120);
        assert!(r.packets > 1_000);
        // Monotone decay in gamma.
        for w in r.points.windows(2) {
            assert!(
                w[1].delay_tail <= w[0].delay_tail + 1e-12,
                "delay tail not decaying: {:?}",
                r.points
            );
            assert!(
                w[1].throughput_tail <= w[0].throughput_tail + 1e-12,
                "throughput tail not decaying: {:?}",
                r.points
            );
        }
        // The catch-up construction bounds the per-interval deficit by
        // roughly 2 x slot of work: C * 2 * 50ms = 10_000 bits. Beyond
        // 16_000 bits both tails must be zero.
        let last = r.points.last().unwrap();
        assert_eq!(last.delay_tail, 0.0, "{:?}", r.points);
        assert_eq!(last.throughput_tail, 0.0, "{:?}", r.points);
        // An exponential envelope fitted at gamma=500 dominates later
        // points: tail(g) <= tail0 * exp(-alpha g) with alpha from the
        // first pair — checked loosely (factor 3 headroom) since the
        // construction's tail is *sub*-exponential.
        let t0 = r.points[0].delay_tail.max(1e-6);
        let t1 = r.points[1].delay_tail.max(1e-9);
        let alpha = (t0 / t1).ln() / 500.0;
        if alpha > 0.0 {
            for p in &r.points[2..] {
                let envelope = 3.0 * t0 * (-alpha * p.gamma_bits as f64).exp();
                assert!(
                    p.delay_tail <= envelope + 1e-9,
                    "gamma={} tail={} envelope={}",
                    p.gamma_bits,
                    p.delay_tail,
                    envelope
                );
            }
        }
    }
}
