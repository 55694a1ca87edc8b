//! Graphs on engine ports: the same topology and script built twice on
//! `SyncEngine` ports must give identical runs — sink sequences,
//! per-port refusal orders, drop/eviction books, churn counts — and
//! balanced arena books, under incast fan-in, traffic matrices, buffer
//! caps, every drop policy, mid-run churn, tight ingress rings and a
//! closed TCP loop.

use des::SimRng;
use graph::{Graph, GraphReport, GraphSpec, PortKind, PortSpec};
use netsim::DropPolicy;
use proptest::prelude::*;
use servers::RateProfile;
use sfq_core::FlowId;
use sfq_engine::EngineConfig;
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// One injected source: `(entry node, flow, arrival script)`.
type Source = (usize, FlowId, Vec<(SimTime, Bytes)>);

/// A seeded workload: topology spec, per-flow scripts, and churns —
/// everything needed to build the *identical* run twice.
struct Workload {
    spec: GraphSpec,
    /// Sources in add order (fixes uid minting).
    sources: Vec<Source>,
    churns: Vec<(usize, FlowId, SimTime)>,
    cfg: EngineConfig,
}

fn gen_workload(seed: u64) -> Workload {
    let mut rng = SimRng::new(seed ^ 0x64AF_11D0);
    let policy = match rng.uniform_range(0, 3) {
        0 => DropPolicy::TailDrop,
        1 => DropPolicy::HeadDrop,
        _ => DropPolicy::LowestWeightPressure,
    };
    let n_flows = rng.uniform_range(3, 9) as u32;
    let flows: Vec<(FlowId, Rate)> = (1..=n_flows)
        .map(|f| (FlowId(f), Rate::bps(1_000 * rng.uniform_range(8, 65))))
        .collect();

    // Alternate between incast fan-in and a square traffic matrix.
    let (spec, entries) = if rng.uniform() < 0.5 {
        let fan_in = rng.uniform_range(2, 6) as usize;
        let mut port = PortSpec::new(RateProfile::constant(Rate::bps(400_000)), flows.clone());
        port.per_flow_cap = Some(rng.uniform_range(2, 7) as usize);
        port.shared_cap = Some(rng.uniform_range(6, 15) as usize);
        port.policy = policy;
        (GraphSpec::incast(fan_in, port), fan_in)
    } else {
        let m = rng.uniform_range(2, 5) as usize;
        let ports: Vec<PortSpec> = (0..m)
            .map(|_| {
                let mut p = PortSpec::new(RateProfile::constant(Rate::bps(400_000)), flows.clone());
                p.per_flow_cap = Some(rng.uniform_range(2, 7) as usize);
                p.policy = policy;
                p
            })
            .collect();
        let routes: Vec<(FlowId, usize)> = flows
            .iter()
            .map(|&(f, _)| (f, rng.uniform_range(0, m as u64) as usize))
            .collect();
        (GraphSpec::matrix(m, ports, routes), m)
    };

    // Bursty scripts: tight enough to hit the caps and the engine
    // ingress rings.
    let mut sources = Vec::new();
    for &(flow, _) in &flows {
        let entry = (flow.0 as usize - 1) % entries;
        let mut t = SimTime::from_millis(rng.uniform_range(0, 30) as i128);
        let n = rng.uniform_range(10, 41) as usize;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            arrivals.push((t, Bytes::new(rng.uniform_range(64, 900))));
            t += SimDuration::from_millis(rng.uniform_range(0, 25) as i128);
        }
        sources.push((entry, flow, arrivals));
    }

    // Sometimes churn a flow at one of its ports mid-script.
    let mut churns = Vec::new();
    if rng.uniform() < 0.5 {
        let victim = FlowId(rng.uniform_range(1, n_flows as u64 + 1) as u32);
        for p in spec.ports() {
            churns.push((p, victim, SimTime::from_millis(150)));
        }
    }

    let cfg = EngineConfig::new(rng.uniform_range(2, 6) as usize)
        .ring_capacity(rng.uniform_range(4, 25) as usize);
    Workload {
        spec,
        sources,
        churns,
        cfg,
    }
}

fn run(w: &Workload, kind: PortKind) -> GraphReport {
    let mut g: Graph = w.spec.build(kind);
    for (entry, flow, arrivals) in &w.sources {
        g.add_source(*entry, *flow, arrivals);
    }
    for &(node, flow, at) in &w.churns {
        g.schedule_churn(node, flow, at);
    }
    g.run(SimTime::from_secs(120))
}

type Surface = (
    Vec<(usize, Vec<(u64, SimTime)>)>,
    Vec<(usize, Vec<u64>)>,
    Vec<(usize, u64)>,
    u64,
    u64,
    u64,
);

fn surface(r: &GraphReport) -> Surface {
    (
        r.sink_departures
            .iter()
            .map(|(n, d)| (*n, d.iter().map(|x| (x.uid, x.at)).collect()))
            .collect(),
        r.port_refusals.clone(),
        r.port_drops.clone(),
        r.evicted,
        r.churn_discarded,
        r.churn_refused,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arena books balance over random incast and matrix topologies
    /// with caps, drop policies, and churn.
    #[test]
    fn engine_port_graph_balances_its_books(seed in 0u64..1_000_000) {
        let w = gen_workload(seed);
        let r = run(&w, PortKind::EngineSync(w.cfg));
        prop_assert!(r.audit.balanced(), "workload seed {}: {:?}", seed, r.audit);
    }
}

/// The engine-port graph build is deterministic run-to-run.
#[test]
fn sync_graph_is_deterministic() {
    let w = gen_workload(7);
    let a = run(&w, PortKind::EngineSync(w.cfg));
    let b = run(&w, PortKind::EngineSync(w.cfg));
    assert_eq!(surface(&a), surface(&b));
}

/// Tight ingress rings force scheduler-level refusals, on top of the
/// switch-cap drops: they repeat run to run and the books balance.
#[test]
fn tight_rings_refuse_deterministically_with_books_balanced() {
    let mut found = false;
    for seed in 0..30u64 {
        let mut w = gen_workload(seed);
        w.cfg = EngineConfig::new(2).ring_capacity(3);
        let first = run(&w, PortKind::EngineSync(w.cfg));
        let again = run(&w, PortKind::EngineSync(w.cfg));
        assert_eq!(surface(&first), surface(&again), "seed {seed}");
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
