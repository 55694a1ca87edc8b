//! Figure 1(b): MPEG VBR priority flow + two TCP Reno flows through
//! one switch; WFQ vs SFQ for the scheduled (TCP) class.
//!
//! Topology (Fig. 1a): sources 1–3 → switch → destination, output link
//! 2.5 Mb/s. Source 1 is VBR video (1.21 Mb/s mean, 50-byte packets)
//! with strict priority, so the residual capacity seen by the TCP class
//! fluctuates. Source 2 starts at t = 0, source 3 at t = 0.5 s; the
//! run lasts 1 s (all per the paper; horizon configurable).
//!
//! Expected shape: under WFQ (which computes `v(t)` against the fixed
//! 2.5 Mb/s capacity) source 2 builds up a huge virtual-time lead and
//! source 3 is starved for most of [0.5, 1.0]; under SFQ both TCP
//! sources receive packets at comparable rates immediately.

use graph::{GraphSpec, PortSpec};
use jsonline::impl_to_json;
use netsim::TcpConfig;
use servers::RateProfile;
use sfq_core::{FlowId, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// Which discipline schedules the TCP class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Start-time Fair Queuing.
    Sfq,
    /// Weighted Fair Queuing emulating the full link capacity.
    Wfq,
}

/// Result of one Figure 1(b) run.
#[derive(Debug, Clone)]
pub struct Fig1bResult {
    /// "SFQ" or "WFQ".
    pub discipline: String,
    /// (time s, cumulative packets) samples for source 2.
    pub src2_series: Vec<(f64, usize)>,
    /// (time s, cumulative packets) samples for source 3.
    pub src3_series: Vec<(f64, usize)>,
    /// Source 2 packets delivered within [0.5 s, 1.0 s].
    pub src2_after_start3: usize,
    /// Source 3 packets delivered within [0.5 s, 1.0 s].
    pub src3_after_start3: usize,
    /// Source 3 packets delivered within [0.5 s, 0.935 s] (the paper's
    /// "first 435 ms after source 3 started").
    pub src3_first_435ms: usize,
}

impl_to_json!(Fig1bResult {
    discipline,
    src2_series,
    src3_series,
    src2_after_start3,
    src3_after_start3,
    src3_first_435ms
});

/// Run Figure 1(b) with the given discipline and seed.
pub fn fig1b(discipline: Discipline, seed: u64, horizon: SimTime) -> Fig1bResult {
    let link = Rate::bps(2_500_000);
    let tcp_weight = Rate::bps(1_250_000); // equal weights for 2 & 3
    let prop = SimDuration::from_millis(1); // each way

    // One bottleneck link; all three sources are routed across it, but
    // only the TCP class is scheduled.
    let mut port = PortSpec::new(
        RateProfile::constant(link),
        vec![(FlowId(2), tcp_weight), (FlowId(3), tcp_weight)],
    );
    port.per_flow_cap = Some(100);
    let routes: Vec<_> = (1..=3).map(|f| (FlowId(f), vec![0])).collect();
    let mut net =
        GraphSpec::routed(vec![(port, prop)], &routes).build_with(&mut |_| match discipline {
            Discipline::Sfq => Box::new(Sfq::new()) as Box<dyn Scheduler>,
            Discipline::Wfq => Box::new(baselines::Wfq::new(link)),
        });
    // Source 1: synthetic VBR video, strict priority.
    let vbr = traffic::VbrVideoSource::new(
        SimTime::ZERO,
        Rate::bps(1_210_000),
        Bytes::new(50),
        30,
        0.35,
        des::SimRng::new(seed),
    );
    net.add_priority_source(0, FlowId(1), &traffic::arrivals_until(vbr, horizon));
    // Sources 2 and 3: TCP Reno, 200-byte segments.
    let cfg = TcpConfig {
        mss: Bytes::new(200),
        min_rto: SimDuration::from_millis(100),
        ..TcpConfig::default()
    };
    net.add_tcp_source(0, FlowId(2), cfg, prop, SimTime::ZERO);
    net.add_tcp_source(0, FlowId(3), cfg, prop, SimTime::from_millis(500));

    let report = net.run(horizon);
    let deliveries = &report.sink_departures[0].1;
    let series = |flow: u32| -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        let mut n = 0usize;
        for d in deliveries {
            if d.flow == FlowId(flow) {
                n += 1;
                out.push((d.at.as_secs_f64(), n));
            }
        }
        // Decimate to at most ~100 points (keep the last), enough to
        // plot the Figure 1(b) curves without flooding reports.
        let stride = (out.len() / 100).max(1);
        let last = out.last().copied();
        let mut dec: Vec<(f64, usize)> = out.into_iter().step_by(stride).collect();
        if let (Some(l), Some(dl)) = (last, dec.last()) {
            if *dl != l {
                dec.push(l);
            }
        }
        dec
    };
    let count_in = |flow: u32, a: SimTime, b: SimTime| {
        deliveries
            .iter()
            .filter(|d| d.flow == FlowId(flow) && d.at >= a && d.at <= b)
            .count()
    };
    let t_half = SimTime::from_millis(500);
    Fig1bResult {
        discipline: match discipline {
            Discipline::Sfq => "SFQ",
            Discipline::Wfq => "WFQ",
        }
        .to_string(),
        src2_series: series(2),
        src3_series: series(3),
        src2_after_start3: count_in(2, t_half, SimTime::from_secs(1)),
        src3_after_start3: count_in(3, t_half, SimTime::from_secs(1)),
        src3_first_435ms: count_in(3, t_half, SimTime::from_millis(935)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sfq_shares_residual_capacity_wfq_starves_late_source() {
        let horizon = SimTime::from_secs(1);
        let sfq = fig1b(Discipline::Sfq, 42, horizon);
        let wfq = fig1b(Discipline::Wfq, 42, horizon);

        // SFQ: both TCP sources progress after 0.5 s at comparable
        // rates (paper: 189 vs 190 packets).
        assert!(sfq.src3_after_start3 > 0, "{sfq:?}");
        let ratio = sfq.src2_after_start3 as f64 / sfq.src3_after_start3.max(1) as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "SFQ should be roughly fair: {} vs {}",
            sfq.src2_after_start3,
            sfq.src3_after_start3
        );

        // WFQ: source 3 starved relative to source 2 (paper: 10 vs 205).
        assert!(
            wfq.src2_after_start3 >= 3 * wfq.src3_after_start3.max(1),
            "WFQ should starve source 3: {} vs {}",
            wfq.src2_after_start3,
            wfq.src3_after_start3
        );
        // And source 3 fares far better under SFQ than WFQ in its first
        // 435 ms (paper: 145 vs 2).
        assert!(
            sfq.src3_first_435ms > 3 * wfq.src3_first_435ms.max(1),
            "SFQ {} vs WFQ {}",
            sfq.src3_first_435ms,
            wfq.src3_first_435ms
        );
    }
}
