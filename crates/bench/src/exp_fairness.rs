//! Table 1 and Examples 1–2: measured fairness of each discipline, and
//! the SCFQ-vs-SFQ worst-case delay gap (Section 2.3's numeric claim).

use analysis::{max_fairness_gap, packet_delays, sfq_fairness_bound};
use baselines::{Drr, Fifo, Fqs, Scfq, VirtualClock, Wfq};
use servers::{run_server, Departure, RateProfile, Segment};
use sfq_core::{FairAirport, FlowId, Packet, PacketFactory, Scheduler, Sfq};
use simtime::{Bytes, Rate, Ratio, SimTime};

/// Measured fairness of one discipline on the adversarial two-flow
/// backlogged workload.
#[derive(Debug, Clone)]
pub struct FairnessRow {
    /// Discipline name.
    pub discipline: String,
    /// Measured max normalized-service gap (seconds).
    pub measured_gap_s: f64,
    /// SFQ/SCFQ analytic bound `l_f/r_f + l_m/r_m` (seconds).
    pub sfq_bound_s: f64,
    /// Ratio measured / optimal-lower-bound (Golestani).
    pub vs_lower_bound: f64,
}

const LMAX: u64 = 250;
const WEIGHT: u64 = 1_000; // bps; 250 B => span 2 s

fn adversarial_arrivals(pf: &mut PacketFactory) -> Vec<Packet> {
    // Both flows backlogged from t = 0 for many packets: flow 1 sends
    // full-size packets, flow 2 alternates full and two halves
    // (Example 1's mix, repeated).
    let mut arrivals = Vec::new();
    for _ in 0..60 {
        arrivals.push(pf.make(FlowId(1), Bytes::new(LMAX), SimTime::ZERO));
    }
    for k in 0..40 {
        let len = if k % 3 == 0 { LMAX } else { LMAX / 2 };
        arrivals.push(pf.make(FlowId(2), Bytes::new(len), SimTime::ZERO));
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    arrivals
}

fn run_two_flow<S: Scheduler>(mut sched: S) -> Vec<Departure> {
    sched.add_flow(FlowId(1), Rate::bps(WEIGHT));
    sched.add_flow(FlowId(2), Rate::bps(WEIGHT));
    let mut pf = PacketFactory::new();
    let arrivals = adversarial_arrivals(&mut pf);
    // Serve at 2000 bps: ~80 packet-seconds of backlog each side.
    let profile = RateProfile::constant(Rate::bps(2_000));
    run_server(&mut sched, &profile, &arrivals, SimTime::from_secs(60))
}

fn gap_of(deps: &[Departure]) -> Ratio {
    // Both flows stay backlogged for at least 50 s of the run (flow 2's
    // 40 packets span 40+ virtual seconds at 2000 bps shared).
    max_fairness_gap(
        deps,
        FlowId(1),
        Rate::bps(WEIGHT),
        FlowId(2),
        Rate::bps(WEIGHT),
        SimTime::ZERO,
        SimTime::from_secs(50),
    )
}

/// Run the Table 1 fairness comparison across all disciplines.
pub fn table1() -> Vec<FairnessRow> {
    let bound = sfq_fairness_bound(
        Bytes::new(LMAX),
        Rate::bps(WEIGHT),
        Bytes::new(LMAX),
        Rate::bps(WEIGHT),
    );
    let lower = bound / Ratio::from_int(2);
    let mut rows = Vec::new();
    let mut push = |name: &str, deps: Vec<Departure>| {
        let gap = gap_of(&deps);
        rows.push(FairnessRow {
            discipline: name.to_string(),
            measured_gap_s: gap.to_f64(),
            sfq_bound_s: bound.to_f64(),
            vs_lower_bound: (gap / lower).to_f64(),
        });
    };
    push("SFQ", run_two_flow(Sfq::new()));
    push("SCFQ", run_two_flow(Scfq::new()));
    push("WFQ", run_two_flow(Wfq::new(Rate::bps(2_000))));
    push("FQS", run_two_flow(Fqs::new(Rate::bps(2_000))));
    push("VirtualClock", run_two_flow(VirtualClock::new()));
    // DRR quantum = one max packet per round (scale 250 B per 1000 bps).
    push("DRR", run_two_flow(Drr::with_quantum_scale(1, 4)));
    push("FairAirport", run_two_flow(FairAirport::new()));
    push("FIFO", run_two_flow(Fifo::new()));
    rows
}

/// Example 2 result: service received by each flow in `[1, 2]` seconds
/// on the variable-rate server, per discipline.
#[derive(Debug, Clone)]
pub struct Example2Row {
    /// Discipline name.
    pub discipline: String,
    /// Packets of the early (hog) flow served in [1s, 2s].
    pub early_flow_pkts: usize,
    /// Packets of the late flow served in [1s, 2s].
    pub late_flow_pkts: usize,
}

/// Example 2: actual server rate is 1 pkt/s during [0, 1) and C pkt/s
/// during [1, 2); WFQ (fed the fixed capacity C) starves the late
/// flow, SFQ splits evenly.
pub fn example2(c_pkts: u64) -> Vec<Example2Row> {
    // Unit packet = 125 bytes = 1000 bits; weight 1 pkt/s = 1000 bps;
    // assumed capacity C pkt/s.
    let len = Bytes::new(125);
    let weight = Rate::bps(1_000);
    let assumed = Rate::bps(1_000 * c_pkts);
    let profile = RateProfile::from_segments(vec![
        Segment {
            start: SimTime::ZERO,
            rate: Rate::bps(1_000), // 1 pkt/s
        },
        Segment {
            start: SimTime::from_secs(1),
            rate: assumed, // C pkt/s
        },
    ]);
    let window = |deps: &[Departure], flow: u32| {
        deps.iter()
            .filter(|d| {
                d.pkt.flow == FlowId(flow)
                    && d.service_start >= SimTime::from_secs(1)
                    && d.departure <= SimTime::from_secs(2)
            })
            .count()
    };
    let mut rows = Vec::new();
    let mut run = |name: &str, sched: &mut dyn Scheduler| {
        sched.add_flow(FlowId(1), weight);
        sched.add_flow(FlowId(2), weight);
        let mut pf = PacketFactory::new();
        let mut arrivals = Vec::new();
        // Flow 1: C+1 packets at t=0. Flow 2: backlogged from t=1.
        for _ in 0..=c_pkts {
            arrivals.push(pf.make(FlowId(1), len, SimTime::ZERO));
        }
        for _ in 0..c_pkts {
            arrivals.push(pf.make(FlowId(2), len, SimTime::from_secs(1)));
        }
        let deps = run_server(&mut *sched, &profile, &arrivals, SimTime::from_secs(3));
        rows.push(Example2Row {
            discipline: name.to_string(),
            early_flow_pkts: window(&deps, 1),
            late_flow_pkts: window(&deps, 2),
        });
    };
    run("WFQ", &mut Wfq::new(assumed));
    run("SFQ", &mut Sfq::new());
    rows
}

/// Measured worst packet delay of a low-rate flow under SCFQ vs SFQ
/// among many backlogged high-rate flows (Section 2.3 / Eq. 57).
#[derive(Debug, Clone)]
pub struct DelayGapResult {
    /// Max delay of the low-rate flow's packet under SCFQ (s).
    pub scfq_max_delay_s: f64,
    /// Max delay under SFQ (s).
    pub sfq_max_delay_s: f64,
    /// Analytic gap `l/r − l/C` (s).
    pub analytic_gap_s: f64,
}

/// SCFQ-vs-SFQ delay gap experiment: one 64 Kb/s flow sends a single
/// 200-byte packet into a server busy with backlogged fast flows.
pub fn scfq_delay_gap() -> DelayGapResult {
    let c = Rate::mbps(100);
    let len = Bytes::new(200);
    let slow = Rate::kbps(64);
    let run = |sched: &mut dyn Scheduler| -> f64 {
        sched.add_flow(FlowId(1), slow);
        let n_fast = 99u32;
        let fast_rate = Rate::mbps(1);
        for f in 2..2 + n_fast {
            sched.add_flow(FlowId(f), fast_rate);
        }
        let mut pf = PacketFactory::new();
        let mut arrivals = Vec::new();
        // Fast flows heavily backlogged from t=0.
        for _ in 0..200 {
            for f in 2..2 + n_fast {
                arrivals.push(pf.make(FlowId(f), len, SimTime::ZERO));
            }
        }
        // The probe packet arrives just after the busy period starts.
        arrivals.push(pf.make(FlowId(1), len, SimTime::from_nanos(1)));
        arrivals.sort_by_key(|p| (p.arrival, p.uid));
        let profile = RateProfile::constant(c);
        let deps = run_server(&mut *sched, &profile, &arrivals, SimTime::from_secs(10));
        packet_delays(&deps, FlowId(1))
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let scfq = run(&mut Scfq::new());
    let sfq = run(&mut Sfq::new());
    DelayGapResult {
        scfq_max_delay_s: scfq,
        sfq_max_delay_s: sfq,
        analytic_gap_s: analysis::scfq_sfq_delay_gap(len, slow, c).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_fair_disciplines_within_bound_unfair_exceed() {
        let rows = table1();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.discipline == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        // Fair family stays within the analytic bound.
        for name in ["SFQ", "SCFQ", "WFQ", "FQS"] {
            let r = get(name);
            assert!(
                r.measured_gap_s <= r.sfq_bound_s + 1e-12,
                "{name}: {} > {}",
                r.measured_gap_s,
                r.sfq_bound_s
            );
        }
        // FIFO on this workload is wildly unfair.
        assert!(get("FIFO").measured_gap_s > 10.0 * get("SFQ").sfq_bound_s);
        // SFQ no worse than lower bound x2 (Theorem 1).
        assert!(get("SFQ").vs_lower_bound <= 2.0 + 1e-9);
    }

    #[test]
    fn example2_wfq_starves_late_flow_sfq_splits() {
        let rows = example2(10);
        let wfq = &rows[0];
        let sfq = &rows[1];
        assert_eq!(wfq.discipline, "WFQ");
        assert!(
            wfq.late_flow_pkts <= 1,
            "WFQ should starve the late flow: {wfq:?}"
        );
        assert!(wfq.early_flow_pkts >= 9);
        let diff = (sfq.early_flow_pkts as i64 - sfq.late_flow_pkts as i64).abs();
        assert!(diff <= 1, "SFQ should split evenly: {sfq:?}");
    }

    #[test]
    fn scfq_gap_matches_eq57_shape() {
        let g = scfq_delay_gap();
        assert!(
            g.scfq_max_delay_s > g.sfq_max_delay_s,
            "SCFQ must delay the slow flow more: {g:?}"
        );
        let measured_gap = g.scfq_max_delay_s - g.sfq_max_delay_s;
        // Within 20% of the analytic l/r − l/C.
        assert!(
            (measured_gap - g.analytic_gap_s).abs() / g.analytic_gap_s < 0.2,
            "measured {measured_gap} vs analytic {}",
            g.analytic_gap_s
        );
    }
}
