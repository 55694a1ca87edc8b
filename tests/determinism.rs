//! Bit-for-bit reproducibility: every stochastic experiment must yield
//! identical results for identical seeds, and different results for
//! different seeds (with overwhelming probability).

use sfq_repro::prelude::*;

/// Serialize a delivery list into a comparable fingerprint.
fn fingerprint(deliveries: &[graph::Departure]) -> Vec<(u32, u64, String)> {
    deliveries
        .iter()
        .map(|d| (d.flow.0, d.uid, format!("{:?}", d.at)))
        .collect()
}

/// The Figure 1(a) bottleneck: a strict-priority VBR source and two
/// TCP Reno flows over one 2 Mb/s SFQ port, 1 ms each way.
fn run_net(seed: u64) -> Vec<graph::Departure> {
    let mut port = PortSpec::new(
        RateProfile::constant(Rate::mbps(2)),
        vec![(FlowId(2), Rate::mbps(1)), (FlowId(3), Rate::mbps(1))],
    );
    port.per_flow_cap = Some(50);
    let prop = SimDuration::from_millis(1);
    let routes: Vec<_> = (1..=3).map(|f| (FlowId(f), vec![0])).collect();
    let mut net = GraphSpec::routed(vec![(port, prop)], &routes).build(PortKind::Sfq);
    let vbr = VbrVideoSource::new(
        SimTime::ZERO,
        Rate::kbps(800),
        Bytes::new(50),
        30,
        0.4,
        SimRng::new(seed),
    );
    let arrivals = arrivals_until(vbr, SimTime::from_millis(800));
    net.add_priority_source(0, FlowId(1), &arrivals);
    net.add_tcp_source(0, FlowId(2), TcpConfig::default(), prop, SimTime::ZERO);
    net.add_tcp_source(
        0,
        FlowId(3),
        TcpConfig::default(),
        prop,
        SimTime::from_millis(200),
    );
    let mut report = net.run(SimTime::from_millis(800));
    assert!(report.audit.balanced());
    report.sink_departures.remove(0).1
}

#[test]
fn same_seed_identical_network_run() {
    let a = run_net(1234);
    let b = run_net(1234);
    assert!(!a.is_empty());
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn different_seed_different_run() {
    let a = run_net(1);
    let b = run_net(2);
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn poisson_single_server_run_is_deterministic() {
    let run = |seed: u64| {
        let mut sched = Sfq::new();
        sched.add_flow(FlowId(1), Rate::kbps(100));
        sched.add_flow(FlowId(2), Rate::kbps(32));
        let mut pf = PacketFactory::new();
        let horizon = SimTime::from_secs(30);
        let lists = vec![
            to_packets(
                &mut pf,
                FlowId(1),
                &arrivals_until(
                    PoissonSource::with_rate(
                        SimTime::ZERO,
                        Rate::kbps(100),
                        Bytes::new(200),
                        SimRng::new(seed),
                    ),
                    horizon,
                ),
            ),
            to_packets(
                &mut pf,
                FlowId(2),
                &arrivals_until(
                    PoissonSource::with_rate(
                        SimTime::ZERO,
                        Rate::kbps(32),
                        Bytes::new(200),
                        SimRng::new(seed ^ 0xdead),
                    ),
                    horizon,
                ),
            ),
        ];
        let arrivals = merge(lists);
        run_server(
            &mut sched,
            &RateProfile::constant(Rate::kbps(200)),
            &arrivals,
            horizon,
        )
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.pkt.uid, y.pkt.uid);
        assert_eq!(x.departure, y.departure);
        assert_eq!(x.service_start, y.service_start);
    }
}

#[test]
fn fig_experiments_are_seed_stable() {
    use bench::exp_fig1b::{fig1b, Discipline};
    let a = fig1b(Discipline::Sfq, 9, SimTime::from_millis(700));
    let b = fig1b(Discipline::Sfq, 9, SimTime::from_millis(700));
    assert_eq!(a.src2_after_start3, b.src2_after_start3);
    assert_eq!(a.src3_after_start3, b.src3_after_start3);
    assert_eq!(a.src3_first_435ms, b.src3_first_435ms);
}
