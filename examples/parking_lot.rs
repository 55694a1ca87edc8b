//! End-to-end fairness across a routed network: the parking-lot
//! topology. One long TCP flow crosses three SFQ-scheduled links; each
//! link also carries a local TCP flow. With per-link fair scheduling
//! the long flow keeps its fair share at *every* hop instead of being
//! beaten down multiplicatively — the end-to-end story behind the
//! paper's Section 2.4 composition results.
//!
//! Run with: `cargo run --release --example parking_lot`

use sfq_repro::prelude::*;

/// A 1 Mb/s SFQ link (64-packet per-flow buffers, 1 ms downstream)
/// scheduling `flows` at equal weights.
fn link(flows: &[u32]) -> (PortSpec, SimDuration) {
    let flows = flows
        .iter()
        .map(|&f| (FlowId(f), Rate::kbps(500)))
        .collect();
    let mut port = PortSpec::new(RateProfile::constant(Rate::mbps(1)), flows);
    port.per_flow_cap = Some(64);
    (port, SimDuration::from_millis(1))
}

fn main() {
    // Links A, B, C in a row; flow 1 rides all three, flows 2-4 are
    // local to one link each.
    let (a, b, c) = (0, 1, 2);
    let spec = GraphSpec::routed(
        vec![link(&[1, 2]), link(&[1, 3]), link(&[1, 4])],
        &[
            (FlowId(1), vec![a, b, c]),
            (FlowId(2), vec![a]),
            (FlowId(3), vec![b]),
            (FlowId(4), vec![c]),
        ],
    );
    let mut g = spec.build(PortKind::Sfq);

    let cfg = TcpConfig::default();
    // The long flow's ACKs travel further.
    g.add_tcp_source(
        a,
        FlowId(1),
        cfg,
        SimDuration::from_millis(3),
        SimTime::ZERO,
    );
    for (f, entry) in [(2u32, a), (3, b), (4, c)] {
        g.add_tcp_source(
            entry,
            FlowId(f),
            cfg,
            SimDuration::from_millis(1),
            SimTime::ZERO,
        );
    }

    let horizon = SimTime::from_secs(10);
    let report = g.run(horizon);
    assert!(report.audit.balanced(), "packet arena leaked a slot");
    let deliveries = &report.sink_departures[0].1;
    println!("Parking lot: long TCP flow over links A->B->C vs one local TCP flow per link");
    println!("{:<22} {:>10} {:>12}", "flow", "packets", "Mb/s");
    let mut rates = Vec::new();
    for (f, label) in [
        (1u32, "long (3 hops)"),
        (2, "local on A"),
        (3, "local on B"),
        (4, "local on C"),
    ] {
        let bits: u64 = deliveries
            .iter()
            .filter(|d| d.flow == FlowId(f))
            .map(|d| d.len.bits())
            .sum();
        let rate = bits as f64 / horizon.as_secs_f64() / 1e6;
        rates.push(rate);
        println!(
            "{:<22} {:>10} {:>12.3}",
            label,
            deliveries.iter().filter(|d| d.flow == FlowId(f)).count(),
            rate
        );
    }
    println!(
        "\nWith SFQ at every link the long flow holds ~0.5 Mb/s — its fair share of\n\
         each 1 Mb/s bottleneck — despite competing at three places and having a\n\
         longer control loop."
    );
    assert!(rates[0] > 0.35, "long flow starved: {:.3} Mb/s", rates[0]);
    for (i, r) in rates.iter().enumerate().skip(1) {
        assert!(*r > 0.35, "local flow {i} starved: {r:.3} Mb/s");
    }
}
