//! The paper's worked examples, reproduced end-to-end as exact tests.

use sfq_repro::prelude::*;

/// Example 1: flows f, m with `l^max/r = c`; f sends two full packets,
/// m sends one full and two halves, all at t = 0. Under WFQ there is a
/// valid schedule in which m receives `2 l^max` while f receives
/// nothing over `[start(m1), finish(m3)]`, showing
/// `H(f,m) >= l_f^max/r_f + l_m^max/r_m` — twice the lower bound.
#[test]
fn example1_wfq_unfairness_reaches_twice_lower_bound() {
    // Full packet 250 B, weight 1000 b/s => span 2 s, c = 2.
    let w1 = Rate::bps(1_000);
    let mut sched = Wfq::new(Rate::bps(2_000));
    sched.add_flow(FlowId(1), w1);
    sched.add_flow(FlowId(2), w1);
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    let mut arrivals = vec![
        pf.make(FlowId(1), Bytes::new(250), t0),
        pf.make(FlowId(1), Bytes::new(250), t0),
        pf.make(FlowId(2), Bytes::new(250), t0),
        pf.make(FlowId(2), Bytes::new(125), t0),
        pf.make(FlowId(2), Bytes::new(125), t0),
    ];
    arrivals.sort_by_key(|p| p.uid);
    let profile = RateProfile::constant(Rate::bps(2_000));
    let deps = run_server(&mut sched, &profile, &arrivals, SimTime::from_secs(20));
    // The served order is f1, m1, m2, then a tie at finish tag 4
    // between f2 and m3 (uid tie-break picks f2; the paper's order
    // picks m3 — both are valid WFQ schedules).
    let flows: Vec<u32> = deps.iter().map(|d| d.pkt.flow.0).collect();
    assert_eq!(&flows[..3], &[1, 2, 2]);
    // Measure the gap over m's uninterrupted service run [t1, t2] =
    // [start of m1, end of m2]: W_m = 375 B (spans 3 s), W_f = 0.
    let t1 = deps[1].service_start;
    let t2 = deps[2].departure;
    let wf = work_in_interval(&deps, FlowId(1), t1, t2);
    let wm = work_in_interval(&deps, FlowId(2), t1, t2);
    assert_eq!(wf, Bytes::ZERO);
    assert_eq!(wm, Bytes::new(375));
    // Normalized gap = 3 s; the Golestani lower bound is (2+2)/2 = 2 s:
    // WFQ exceeds the lower bound even without the adversarial
    // tie-break (the paper's tie-break reaches the full 4 s = 2x).
    let gap = max_fairness_gap(&deps, FlowId(1), w1, FlowId(2), w1, t1, t2);
    assert_eq!(gap, Ratio::from_int(3));
    assert!(gap > Ratio::from_int(2));
}

/// Example 1 under SFQ: the same workload stays within one packet of
/// parity, because service interleaves by start tags.
#[test]
fn example1_under_sfq_interleaves() {
    let w1 = Rate::bps(1_000);
    let mut sched = Sfq::new();
    sched.add_flow(FlowId(1), w1);
    sched.add_flow(FlowId(2), w1);
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    let arrivals = vec![
        pf.make(FlowId(1), Bytes::new(250), t0),
        pf.make(FlowId(1), Bytes::new(250), t0),
        pf.make(FlowId(2), Bytes::new(250), t0),
        pf.make(FlowId(2), Bytes::new(125), t0),
        pf.make(FlowId(2), Bytes::new(125), t0),
    ];
    let profile = RateProfile::constant(Rate::bps(2_000));
    let deps = run_server(&mut sched, &profile, &arrivals, SimTime::from_secs(20));
    // Start tags: f: 0, 2; m: 0, 2, 3. Order: f1, m1, f2, m2, m3.
    let flows: Vec<u32> = deps.iter().map(|d| d.pkt.flow.0).collect();
    assert_eq!(flows, vec![1, 2, 1, 2, 2]);
    let gap = max_fairness_gap(
        &deps,
        FlowId(1),
        w1,
        FlowId(2),
        w1,
        SimTime::ZERO,
        deps[3].departure,
    );
    assert!(gap <= sfq_fairness_bound(Bytes::new(250), w1, Bytes::new(250), w1));
}

/// Example 2, exactly as stated: server runs at 1 pkt/s during [0, 1)
/// and C pkt/s during [1, 2); flow f sends C+1 unit packets at t = 0,
/// flow m is backlogged during [1, 2]. WFQ gives m at most one packet;
/// fair allocation would be C/2 each.
#[test]
fn example2_exact() {
    let c = 10u64;
    let len = Bytes::new(125); // 1000 bits = "unit packet"
    let weight = Rate::bps(1_000); // 1 pkt/s
    let profile = RateProfile::from_segments(vec![
        Segment {
            start: SimTime::ZERO,
            rate: Rate::bps(1_000),
        },
        Segment {
            start: SimTime::from_secs(1),
            rate: Rate::bps(1_000 * c),
        },
    ]);
    let run = |sched: &mut dyn Scheduler| -> (Bytes, Bytes) {
        sched.add_flow(FlowId(1), weight);
        sched.add_flow(FlowId(2), weight);
        let mut pf = PacketFactory::new();
        let mut arrivals = Vec::new();
        for _ in 0..=c {
            arrivals.push(pf.make(FlowId(1), len, SimTime::ZERO));
        }
        for _ in 0..c {
            arrivals.push(pf.make(FlowId(2), len, SimTime::from_secs(1)));
        }
        let deps = run_server(&mut *sched, &profile, &arrivals, SimTime::from_secs(3));
        (
            work_in_interval(
                &deps,
                FlowId(1),
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            ),
            work_in_interval(
                &deps,
                FlowId(2),
                SimTime::from_secs(1),
                SimTime::from_secs(2),
            ),
        )
    };
    let mut wfq = Wfq::new(Rate::bps(1_000 * c));
    let (wf, wm) = run(&mut wfq);
    // Paper: C-1 <= W_f(1,2) <= C and W_m(1,2) <= 1 (in packets).
    assert!(
        wf.as_u64() >= (c - 1) * 125 && wf.as_u64() <= c * 125,
        "{wf:?}"
    );
    assert!(wm.as_u64() <= 125, "{wm:?}");

    let mut sfq = Sfq::new();
    let (sf, sm) = run(&mut sfq);
    // Fair split: C/2 each (within one packet).
    let half = c * 125 / 2;
    assert!(sf.as_u64().abs_diff(half) <= 125, "{sf:?}");
    assert!(sm.as_u64().abs_diff(half) <= 125, "{sm:?}");
}

/// Section 2.3's residual-capacity claim: when higher-priority traffic
/// is (σ, ρ)-leaky-bucket-shaped on a constant-rate link C, the
/// residual service available to the low-priority class is FC
/// `(C − ρ, σ)` — checked by measuring the low-priority class's
/// worst-interval deficit.
#[test]
fn residual_capacity_of_priority_server_is_fc() {
    let link = Rate::kbps(100);
    let rho = Rate::kbps(40);
    let len = Bytes::new(250); // 2000 bits
    let sigma_bits = 3 * len.bits();
    // Priority: Poisson at rho shaped through (sigma, rho).
    let raw = arrivals_until(
        PoissonSource::with_rate(SimTime::ZERO, rho, len, SimRng::new(3)),
        SimTime::from_secs(120),
    );
    let shaped = LeakyBucket::new(sigma_bits, rho).shape(&raw);
    // Low priority: a single backlogged flow behind a strict-priority
    // class at one graph port (the netsim switch).
    let port = PortSpec::new(
        RateProfile::constant(link),
        vec![(FlowId(1), Rate::kbps(60))],
    );
    let routes = [(FlowId(1), vec![0]), (FlowId(9), vec![0])];
    let mut net = GraphSpec::routed(vec![(port, SimDuration::ZERO)], &routes).build(PortKind::Sfq);
    net.add_priority_source(0, FlowId(9), &shaped);
    let low: Vec<(SimTime, Bytes)> = vec![(SimTime::ZERO, Bytes::new(125)); 40_000];
    net.add_source(0, FlowId(1), &low);
    let report = net.run(SimTime::from_secs(100));
    assert!(report.audit.balanced());
    let deliveries = &report.sink_departures[0].1;
    // Cumulative low-priority service must satisfy
    // W(t1,t2) >= (C - rho)(t2 - t1) - sigma - packet slack over all
    // windows (extra packets of slack for non-preemption/quantization).
    let resid = (link.as_bps() - rho.as_bps()) as f64;
    let slack = (sigma_bits + len.bits() + 125 * 8) as f64;
    let mut worst: f64 = 0.0;
    let mut min_g = 0.0f64; // g(0) = 0
    let mut acc = 0.0;
    for d in deliveries.iter().filter(|d| d.flow == FlowId(1)) {
        acc += d.len.bits() as f64;
        let g = resid * d.at.as_secs_f64() - acc;
        worst = worst.max(g - min_g);
        min_g = min_g.min(g);
    }
    assert!(
        worst <= slack,
        "residual deficit {worst} exceeds sigma-based slack {slack}"
    );
}
