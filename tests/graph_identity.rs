//! Graphs on engine ports. The twin table's graph row
//! (`conformance::twin`, `tests/twin_table.rs`) builds and runs a seeded
//! workload twice: equal reports, balanced arena books; the first two
//! tests are pinned views of that row. Beyond it: tight ingress rings
//! that refuse and still repeat, and a closed TCP loop.

use conformance::twin::{check_rows, Contract, GraphWorkload, Schedule};
use graph::{GraphSpec, PortKind, PortSpec};
use proptest::prelude::*;
use servers::RateProfile;
use sfq_core::FlowId;
use sfq_engine::EngineConfig;
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// The graph row on twin seed `seed`.
fn graph_row(seed: u64) -> Result<usize, String> {
    check_rows(&Schedule::pinned(seed, |_| {}), Contract::Graph, |_| true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arena books balance over random incast and matrix topologies
    /// with caps, drop policies, and churn.
    #[test]
    fn engine_port_graph_balances_its_books(seed in 0u64..1_000_000) {
        graph_row(seed).map_err(TestCaseError::fail)?;
    }
}

/// The engine-port graph build is deterministic run-to-run.
#[test]
fn sync_graph_is_deterministic() {
    let transits = graph_row(7).unwrap_or_else(|e| panic!("{e}"));
    assert!(transits > 0, "seed 7 carried no packet");
}

/// Tight ingress rings force scheduler-level refusals, on top of the
/// switch-cap drops: they repeat run to run and the books balance.
#[test]
fn tight_rings_refuse_deterministically_with_books_balanced() {
    let mut found = false;
    for seed in 0..30u64 {
        let mut w = GraphWorkload::of(seed);
        w.cfg = EngineConfig::new(2).ring_capacity(3);
        let first = w.run();
        let again = w.run();
        assert_eq!(first, again, "seed {seed}");
        assert!(first.audit.balanced(), "seed {seed}: {:?}", first.audit);
        found |= first.port_refusals.iter().any(|(_, u)| !u.is_empty());
    }
    assert!(found, "no seed ever refused at the ring — test is vacuous");
}

/// The closed loop over engine ports: a routed spec carrying a TCP
/// Reno endpoint (whose every send is a reaction to a port's output),
/// a strict-priority source and an MTU-fragmenting link makes progress,
/// sheds at the bounded ports and keeps its books.
#[test]
fn routed_tcp_endpoint_makes_progress_over_engine_ports() {
    let link = |flows: &[u32], kbps: u64| {
        let flows = flows
            .iter()
            .map(|&f| (FlowId(f), Rate::kbps(250)))
            .collect();
        let mut p = PortSpec::new(RateProfile::constant(Rate::kbps(kbps)), flows);
        p.per_flow_cap = Some(8);
        (p, SimDuration::from_millis(1))
    };
    // Flow 1: TCP over A → B. Flow 2: scripted 900 B packets over the
    // 400 B-MTU link A only. Flow 9: strict priority at B.
    let mut a = link(&[1, 2], 1_000);
    a.0.mtu = Some(Bytes::new(400));
    let spec = GraphSpec::routed(
        vec![a, link(&[1], 500)],
        &[
            (FlowId(1), vec![0, 1]),
            (FlowId(2), vec![0]),
            (FlowId(9), vec![1]),
        ],
    );
    let run = |kind: PortKind| {
        let mut g = spec.build(kind);
        let burst: Vec<(SimTime, Bytes)> = (0..200)
            .map(|i| (SimTime::from_millis(7 * i), Bytes::new(900)))
            .collect();
        g.add_source(0, FlowId(2), &burst);
        let video: Vec<(SimTime, Bytes)> = (0..600)
            .map(|i| (SimTime::from_millis(3 * i), Bytes::new(60)))
            .collect();
        g.add_priority_source(1, FlowId(9), &video);
        g.add_tcp_source(
            0,
            FlowId(1),
            netsim::TcpConfig::default(),
            SimDuration::from_millis(2),
            SimTime::ZERO,
        );
        g.run(SimTime::from_secs(2))
    };
    let cfg = EngineConfig::new(3).ring_capacity(16);
    let sync = run(PortKind::EngineSync(cfg));
    assert!(sync.audit.balanced());
    // The run exercised what it claims to: TCP made progress and lost
    // segments at the bounded ports, and packets were reassembled.
    let tcp = sync.sink_departures[0]
        .1
        .iter()
        .filter(|d| d.flow == FlowId(1))
        .count();
    assert!(tcp > 100, "TCP delivered only {tcp}");
    assert!(sync.port_drops.iter().any(|&(_, n)| n > 0));
    assert!(sync.transits.len() > 200 + 600 + tcp);
}
