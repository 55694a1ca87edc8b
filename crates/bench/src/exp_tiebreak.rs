//! Section 2.3 ablation: the tie-breaking rule. Theorems 4/5 hold for
//! any rule, but giving priority to low-throughput (interactive) flows
//! among equal start tags reduces their average delay.
//!
//! Workload engineered for ties: all flows are CBR with identical
//! periods, so bursts of start tags collide at every epoch.

use analysis::{packet_delays, DelaySummary};
use servers::{run_server, RateProfile};
use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq, TieBreak};
use simtime::{Bytes, Rate, SimTime};

/// Result of the tie-break ablation.
#[derive(Debug, Clone)]
pub struct TieBreakResult {
    /// Average delay of the interactive flows under FIFO tie-break (s).
    pub fifo_avg_s: f64,
    /// Average delay under low-weight-first tie-break (s).
    pub low_first_avg_s: f64,
    /// Average delay of the bulk flows under low-weight-first (s).
    pub bulk_low_first_avg_s: f64,
}

/// Run the ablation: 4 bulk flows (200 Kb/s) + 8 interactive flows
/// (16 Kb/s) on a 1 Mb/s link, all emitting synchronized bursts.
pub fn tiebreak() -> TieBreakResult {
    let link = Rate::mbps(1);
    let horizon = SimTime::from_secs(30);
    let run = |tb: TieBreak| {
        let mut sched = Sfq::with_tiebreak(tb);
        let mut pf = PacketFactory::new();
        let mut arrivals = Vec::new();
        for f in 0..4u32 {
            sched.add_flow(FlowId(f), Rate::kbps(200));
            // 1000 B packets, synchronized every 40 ms.
            for j in 0..750u32 {
                arrivals.push(pf.make(
                    FlowId(f),
                    Bytes::new(1_000),
                    SimTime::from_millis(40 * j as i128),
                ));
            }
        }
        for f in 10..18u32 {
            sched.add_flow(FlowId(f), Rate::kbps(16));
            // 80 B packets, synchronized on the same epochs.
            for j in 0..750u32 {
                arrivals.push(pf.make(
                    FlowId(f),
                    Bytes::new(80),
                    SimTime::from_millis(40 * j as i128),
                ));
            }
        }
        arrivals.sort_by_key(|p| (p.arrival, p.uid));
        run_server(&mut sched, &RateProfile::constant(link), &arrivals, horizon)
    };
    let avg = |deps: &[servers::Departure], flows: std::ops::Range<u32>| {
        let mut all = Vec::new();
        for f in flows {
            all.extend(packet_delays(deps, FlowId(f)));
        }
        DelaySummary::from_durations(&all).expect("served").mean_s
    };
    let fifo = run(TieBreak::Fifo);
    let lwf = run(TieBreak::LowWeightFirst);
    TieBreakResult {
        fifo_avg_s: avg(&fifo, 10..18),
        low_first_avg_s: avg(&lwf, 10..18),
        bulk_low_first_avg_s: avg(&lwf, 0..4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_weight_first_reduces_interactive_delay() {
        let r = tiebreak();
        assert!(
            r.low_first_avg_s < r.fifo_avg_s,
            "tie-break should help interactive flows: {r:?}"
        );
    }
}
