//! Section 3 experiments: hierarchical link sharing (Example 3),
//! delay shifting (Eqs. 69–73), and separation of delay & throughput
//! via Delay EDD over an FC virtual server (Theorem 7).

use analysis::{delay_shift_improves, edd_schedulable, max_guarantee_violation, packet_delays};
use baselines::DelayEdd;
use servers::{fc_on_off, run_server, FcParams, RateProfile};
use sfq_core::{FlowId, HierSfq, PacketFactory, Scheduler};
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// Example 3 / hierarchical sharing result.
#[derive(Debug, Clone)]
pub struct HierShareResult {
    /// Throughput of C and D while B idle (b/s).
    pub phase1_c_bps: f64,
    /// Throughput of D while B idle.
    pub phase1_d_bps: f64,
    /// Throughputs (C, D, B) while B active.
    pub phase2_bps: (f64, f64, f64),
}

/// Example 3: root{A{C, D}, B}, equal weights; B idle during phase 1,
/// active during phase 2. C and D must split A's (changing) share
/// evenly in both phases.
pub fn hier_share() -> HierShareResult {
    let link = Rate::mbps(10);
    let len = Bytes::new(500);
    let mut h = HierSfq::new();
    let a = h.add_class(h.root(), Rate::mbps(1));
    h.add_flow_to(h.root(), FlowId(2), Rate::mbps(1)); // class B = flow 2
    h.add_flow_to(a, FlowId(10), Rate::mbps(1)); // C
    h.add_flow_to(a, FlowId(11), Rate::mbps(1)); // D
    let mut pf = PacketFactory::new();
    let mut arrivals = Vec::new();
    // C and D backlogged for the whole 2 s; B only in [1 s, 2 s].
    // 10 Mb/s * 2 s = 20 Mb = 5000 packets of 500 B; be generous.
    for _ in 0..3000 {
        arrivals.push(pf.make(FlowId(10), len, SimTime::ZERO));
        arrivals.push(pf.make(FlowId(11), len, SimTime::ZERO));
    }
    for _ in 0..2000 {
        arrivals.push(pf.make(FlowId(2), len, SimTime::from_secs(1)));
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    let profile = RateProfile::constant(link);
    let deps = run_server(&mut h, &profile, &arrivals, SimTime::from_secs(2));
    let tp = |flow: u32, a_s: i128, b_s: i128| {
        analysis::throughput_bps(
            &deps,
            FlowId(flow),
            SimTime::from_millis(a_s),
            SimTime::from_millis(b_s),
        )
    };
    HierShareResult {
        phase1_c_bps: tp(10, 0, 950),
        phase1_d_bps: tp(11, 0, 950),
        phase2_bps: (tp(10, 1050, 1950), tp(11, 1050, 1950), tp(2, 1050, 1950)),
    }
}

/// Delay shifting result: max delay of a probe flow under flat SFQ vs
/// hierarchically partitioned SFQ.
#[derive(Debug, Clone)]
pub struct DelayShiftResult {
    /// Eq. 73 predicts improvement for the favored partition.
    pub predicted_improvement: bool,
    /// Measured max delay of the favored flow, flat SFQ (s).
    pub flat_max_s: f64,
    /// Measured max delay of the favored flow, hierarchical (s).
    pub hier_max_s: f64,
}

/// Delay shifting: |Q| = 12 equal CBR flows on a 12 Mb/s link. Flat
/// SFQ vs a hierarchy with a small favored partition (2 flows, 50% of
/// bandwidth): Eq. 73 predicts the favored flows' worst-case delay
/// shrinks.
pub fn delay_shift() -> DelayShiftResult {
    let link = Rate::mbps(12);
    let len = Bytes::new(1_500);
    let q = 12usize;
    let fav = 2usize; // |Q_i|
    let k = 2usize;
    let ci = Rate::mbps(6);
    let predicted = delay_shift_improves(fav, q, k, ci, link);

    // Workload: every flow sends a synchronized burst of 4 packets at
    // t = 0 then goes CBR — the burst creates the worst-case backlog.
    let build_arrivals = |pf: &mut PacketFactory| {
        let mut arrivals = Vec::new();
        for f in 0..q as u32 {
            for _ in 0..4 {
                arrivals.push(pf.make(FlowId(f), len, SimTime::ZERO));
            }
            for j in 1..=200u32 {
                arrivals.push(pf.make(FlowId(f), len, SimTime::from_millis(12 * j as i128)));
            }
        }
        arrivals.sort_by_key(|p| (p.arrival, p.uid));
        arrivals
    };
    let profile = RateProfile::constant(link);
    let horizon = SimTime::from_secs(5);
    let weight = Rate::mbps(1);

    // Flat SFQ.
    let mut flat = sfq_core::Sfq::new();
    for f in 0..q as u32 {
        flat.add_flow(FlowId(f), weight);
    }
    let mut pf = PacketFactory::new();
    let deps_flat = run_server(&mut flat, &profile, &build_arrivals(&mut pf), horizon);

    // Hierarchy: favored partition {0, 1} with rate C_i = 6 Mb/s; the
    // other 10 flows share the rest.
    let mut h = HierSfq::new();
    let favored = h.add_class(h.root(), ci);
    let rest = h.add_class(h.root(), link - ci);
    for f in 0..q as u32 {
        let parent = if (f as usize) < fav { favored } else { rest };
        h.add_flow_to(parent, FlowId(f), weight);
    }
    let mut pf = PacketFactory::new();
    let deps_hier = run_server(&mut h, &profile, &build_arrivals(&mut pf), horizon);

    let max_delay = |deps: &[servers::Departure]| -> f64 {
        (0..fav as u32)
            .flat_map(|f| packet_delays(deps, FlowId(f)))
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    DelayShiftResult {
        predicted_improvement: predicted,
        flat_max_s: max_delay(&deps_flat),
        hier_max_s: max_delay(&deps_hier),
    }
}

/// Theorem 7 check: Delay EDD over an FC server.
#[derive(Debug, Clone)]
pub struct EddResult {
    /// Whether the flow set passed the Eq. 67 schedulability test.
    pub schedulable: bool,
    /// Worst violation of `D(p) + l_max/C + δ/C` (s); zero = bound
    /// holds.
    pub worst_violation_s: f64,
    /// Max delay of the tight-deadline flow (s).
    pub tight_flow_max_s: f64,
    /// Max delay of the loose-deadline flow (s).
    pub loose_flow_max_s: f64,
}

/// Separation of delay and throughput: two CBR flows with the *same*
/// rate but very different deadlines, scheduled by Delay EDD on an FC
/// server (the virtual server a hierarchical SFQ class provides,
/// Eq. 65).
pub fn edd_over_fc() -> EddResult {
    let c = Rate::mbps(1);
    let delta_bits = 20_000; // FC burstiness
    let len = Bytes::new(500);
    let r = Rate::kbps(200);
    let d_tight = SimDuration::from_millis(10);
    let d_loose = SimDuration::from_millis(200);
    let flows = vec![(r, len, d_tight), (r, len, d_loose)];
    let schedulable = edd_schedulable(&flows, c, SimDuration::from_secs(2));

    let mut sched = DelayEdd::new();
    sched.add_flow_with_deadline(FlowId(1), r, d_tight);
    sched.add_flow_with_deadline(FlowId(2), r, d_loose);
    let mut pf = PacketFactory::new();
    let mut arrivals = Vec::new();
    for f in [1u32, 2] {
        // CBR at the reserved rate, with an initial 3-packet burst.
        for _ in 0..3 {
            arrivals.push(pf.make(FlowId(f), len, SimTime::ZERO));
        }
        for j in 1..=300u32 {
            arrivals.push(pf.make(FlowId(f), len, SimTime::from_millis(20 * j as i128)));
        }
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    let horizon = SimTime::from_secs(10);
    let profile = fc_on_off(
        FcParams {
            rate: c,
            delta_bits,
        },
        horizon,
    );
    let deps = run_server(&mut sched, &profile, &arrivals, horizon);

    // Theorem 7: L <= D(p) + l_max/C + δ/C, with D = EAT + d_f. Check
    // via the EAT-based helper: term = d_f + l_max/C + δ/C.
    let slack = SimDuration::from_ratio(
        c.tag_span(len) + simtime::Ratio::new(delta_bits as i128, c.as_bps() as i128),
    );
    let v1 = max_guarantee_violation(&deps, FlowId(1), r, d_tight + slack);
    let v2 = max_guarantee_violation(&deps, FlowId(2), r, d_loose + slack);
    let worst = v1.max(v2);
    let maxd = |f: u32| {
        packet_delays(&deps, FlowId(f))
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    EddResult {
        schedulable,
        worst_violation_s: worst.as_secs_f64(),
        tight_flow_max_s: maxd(1),
        loose_flow_max_s: maxd(2),
    }
}

/// Theorem 7 inside the hierarchy: a Delay EDD class nested in
/// hierarchical SFQ (via `add_scheduler_class`), sharing the link with
/// a backlogged bulk class. The EDD class's virtual server is FC with
/// the Eq. 65 parameters, so Theorem 7 bounds every packet's departure
/// by `EAT + d_f + l^max/C_i + δ_i/C_i`.
#[derive(Debug, Clone)]
pub struct EddHierResult {
    /// Eq. 67 schedulability at the class rate.
    pub schedulable: bool,
    /// Eq. 65 virtual-server burstiness δ_i (bits).
    pub virtual_delta_bits: u64,
    /// Worst violation of the nested Theorem 7 bound (s).
    pub worst_violation_s: f64,
    /// Max delay of the tight-deadline flow (s).
    pub tight_flow_max_s: f64,
    /// Max delay of the loose-deadline flow (s).
    pub loose_flow_max_s: f64,
}

/// Run the nested-EDD experiment.
pub fn edd_in_hierarchy() -> EddHierResult {
    use analysis::virtual_server_fc;
    use sfq_core::HierSfq;

    let link = Rate::mbps(1);
    let class_rate = Rate::kbps(500);
    let edd_len = Bytes::new(500);
    let bulk_len = Bytes::new(1_000);
    let flow_rate = Rate::kbps(200);
    let d_tight = SimDuration::from_millis(30);
    let d_loose = SimDuration::from_millis(300);

    // Eq. 65: the virtual server the EDD class sees. The sibling-set
    // maximum packet sizes are the class's own and the bulk class's.
    let (vrate, vdelta) = virtual_server_fc(class_rate, &[edd_len, bulk_len], link, 0, edd_len);
    let schedulable = edd_schedulable(
        &[(flow_rate, edd_len, d_tight), (flow_rate, edd_len, d_loose)],
        vrate,
        SimDuration::from_secs(2),
    );

    // Build the hierarchy: EDD class + one backlogged bulk flow.
    let mut inner = DelayEdd::new();
    inner.add_flow_with_deadline(FlowId(1), flow_rate, d_tight);
    inner.add_flow_with_deadline(FlowId(2), flow_rate, d_loose);
    let mut h = HierSfq::new();
    let edd_class = h.add_scheduler_class(h.root(), class_rate, Box::new(inner));
    h.attach_configured_flow(edd_class, FlowId(1));
    h.attach_configured_flow(edd_class, FlowId(2));
    h.add_flow_to(h.root(), FlowId(3), class_rate);

    let horizon = SimTime::from_secs(10);
    let mut pf = PacketFactory::new();
    let mut arrivals = Vec::new();
    // EDD flows: CBR at the reserved rate with a 2-packet head burst.
    for f in [1u32, 2] {
        for _ in 0..2 {
            arrivals.push(pf.make(FlowId(f), edd_len, SimTime::ZERO));
        }
        // 500 B at 200 Kb/s = 20 ms spacing.
        for j in 1..=480u32 {
            arrivals.push(pf.make(FlowId(f), edd_len, SimTime::from_millis(20 * j as i128)));
        }
    }
    // Bulk: fully backlogged.
    for _ in 0..1_500 {
        arrivals.push(pf.make(FlowId(3), bulk_len, SimTime::ZERO));
    }
    arrivals.sort_by_key(|p| (p.arrival, p.uid));
    let deps = run_server(&mut h, &RateProfile::constant(link), &arrivals, horizon);

    // Nested Theorem 7 bound: d_f + l^max/C_i + δ_i/C_i.
    let slack = SimDuration::from_ratio(
        class_rate.tag_span(edd_len)
            + simtime::Ratio::new(vdelta as i128, class_rate.as_bps() as i128),
    );
    let v1 = max_guarantee_violation(&deps, FlowId(1), flow_rate, d_tight + slack);
    let v2 = max_guarantee_violation(&deps, FlowId(2), flow_rate, d_loose + slack);
    let maxd = |f: u32| {
        packet_delays(&deps, FlowId(f))
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    EddHierResult {
        schedulable,
        virtual_delta_bits: vdelta,
        worst_violation_s: v1.max(v2).as_secs_f64(),
        tight_flow_max_s: maxd(1),
        loose_flow_max_s: maxd(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example3_shares_track_hierarchy() {
        let r = hier_share();
        // Phase 1: C and D each get ~half the 10 Mb/s link.
        assert!((r.phase1_c_bps / 1e6 - 5.0).abs() < 0.3, "{r:?}");
        assert!((r.phase1_d_bps / 1e6 - 5.0).abs() < 0.3, "{r:?}");
        // Phase 2: B gets ~5 Mb/s; C and D ~2.5 each.
        assert!((r.phase2_bps.2 / 1e6 - 5.0).abs() < 0.3, "{r:?}");
        assert!((r.phase2_bps.0 / 1e6 - 2.5).abs() < 0.3, "{r:?}");
        assert!((r.phase2_bps.1 / 1e6 - 2.5).abs() < 0.3, "{r:?}");
    }

    #[test]
    fn delay_shift_reduces_favored_partition_delay() {
        let r = delay_shift();
        assert!(r.predicted_improvement, "Eq. 73 should predict a win");
        assert!(
            r.hier_max_s < r.flat_max_s,
            "hierarchy should shift delay: {r:?}"
        );
    }

    #[test]
    fn nested_edd_bound_holds_inside_hierarchy() {
        let r = edd_in_hierarchy();
        assert!(r.schedulable, "{r:?}");
        assert_eq!(r.worst_violation_s, 0.0, "{r:?}");
        assert!(r.tight_flow_max_s <= r.loose_flow_max_s + 0.05, "{r:?}");
    }

    #[test]
    fn edd_bound_holds_on_fc_server() {
        let r = edd_over_fc();
        assert!(r.schedulable, "{r:?}");
        assert_eq!(r.worst_violation_s, 0.0, "{r:?}");
        // The tight flow's max delay is far below the loose flow's
        // deadline-driven bound, demonstrating the separation.
        assert!(r.tight_flow_max_s < r.loose_flow_max_s + 0.2, "{r:?}");
    }
}
