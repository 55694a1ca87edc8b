//! Figure 3(b): SFQ on a network interface whose realizable bandwidth
//! fluctuates — three connections with weights 1:2:3, staggered
//! termination.
//!
//! The paper's testbed was a FORE ATM NIC under Solaris (48 Mb/s
//! realizable, fluctuating with host CPU load); our substitute is an
//! FC rate profile around the same mean (substitution documented in
//! DESIGN.md). Each connection transmits a fixed number of 4 KB
//! packets and terminates; while k connections remain active their
//! throughputs must stay in the ratio of their weights.

use analysis::throughput_bps;
use servers::{fc_on_off, run_server, FcParams, RateProfile};
use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimTime};

/// Result of the interface experiment.
#[derive(Debug, Clone)]
pub struct Fig3bResult {
    /// Completion time of each connection (s).
    pub completion_s: [f64; 3],
    /// Throughput ratios measured while all three were active
    /// (normalized to flow 1).
    pub ratio_all_active: [f64; 3],
    /// Ratio of flow2/flow1 throughput after flow 3 finished but
    /// before flow 2 finished.
    pub ratio_after_f3: f64,
}

/// Run Figure 3(b). `packets_per_conn` scales the experiment (the
/// paper used 500,000 4 KB packets per connection; the paper record
/// uses 5,000 to keep runtime sane — ratios are scale-free).
pub fn fig3b(packets_per_conn: u64, fluctuating: bool) -> Fig3bResult {
    let mean = Rate::mbps(48);
    let len = Bytes::from_kib(4);
    let horizon = SimTime::from_secs(3_600);
    let profile = if fluctuating {
        // δ = 20 average-rate-milliseconds of deficit.
        fc_on_off(
            FcParams {
                rate: mean,
                delta_bits: mean.as_bps() / 50,
            },
            horizon,
        )
    } else {
        RateProfile::constant(mean)
    };
    let weights = [1u64, 2, 3];
    let mut sched = Sfq::new();
    for (i, w) in weights.iter().enumerate() {
        sched.add_flow(FlowId(i as u32 + 1), Rate::mbps(*w));
    }
    let mut pf = PacketFactory::new();
    let mut arrivals = Vec::new();
    for i in 0..3u32 {
        for _ in 0..packets_per_conn {
            arrivals.push(pf.make(FlowId(i + 1), len, SimTime::ZERO));
        }
    }
    arrivals.sort_by_key(|p| p.uid);
    let deps = run_server(&mut sched, &profile, &arrivals, horizon);

    let completion = |flow: u32| -> SimTime {
        deps.iter()
            .filter(|d| d.pkt.flow == FlowId(flow))
            .map(|d| d.departure)
            .max()
            .expect("flow completed")
    };
    let completion_t = [completion(1), completion(2), completion(3)];
    // Ratios while all three active: measure over [0, 90% of first
    // completion].
    let first_done = completion_t[0].min(completion_t[1]).min(completion_t[2]);
    let until = SimTime::from_nanos((first_done.as_secs_f64() * 0.9 * 1e9) as i128);
    let base = throughput_bps(&deps, FlowId(1), SimTime::ZERO, until);
    let ratio_all = [
        1.0,
        throughput_bps(&deps, FlowId(2), SimTime::ZERO, until) / base,
        throughput_bps(&deps, FlowId(3), SimTime::ZERO, until) / base,
    ];
    // After flow 3 done, before flow 2 done: [c3, c3 + 0.9*(c2 - c3)].
    let a = completion_t[2];
    let span = completion_t[1] - a;
    let b = a + simtime::SimDuration::from_nanos((span.as_secs_f64() * 0.9 * 1e9) as i128);
    let ratio_after =
        throughput_bps(&deps, FlowId(2), a, b) / throughput_bps(&deps, FlowId(1), a, b).max(1.0);
    Fig3bResult {
        completion_s: [
            completion_t[0].as_secs_f64(),
            completion_t[1].as_secs_f64(),
            completion_t[2].as_secs_f64(),
        ],
        ratio_all_active: ratio_all,
        ratio_after_f3: ratio_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_follow_weights_then_reshare() {
        let r = fig3b(600, true);
        // While all three are active: 1 : 2 : 3 within 5%.
        assert!((r.ratio_all_active[1] - 2.0).abs() < 0.1, "{r:?}");
        assert!((r.ratio_all_active[2] - 3.0).abs() < 0.15, "{r:?}");
        // Flow 3 (highest weight) finishes first, then 2, then 1.
        assert!(r.completion_s[2] < r.completion_s[1]);
        assert!(r.completion_s[1] < r.completion_s[0]);
        // After flow 3 terminates, 2:1 ratio holds.
        assert!((r.ratio_after_f3 - 2.0).abs() < 0.2, "{r:?}");
    }

    #[test]
    fn constant_and_fluctuating_interface_agree_on_ratios() {
        let a = fig3b(300, false);
        let b = fig3b(300, true);
        for r in [&a, &b] {
            assert!((r.ratio_all_active[1] - 2.0).abs() < 0.15, "{r:?}");
            assert!((r.ratio_all_active[2] - 3.0).abs() < 0.2, "{r:?}");
        }
    }
}
