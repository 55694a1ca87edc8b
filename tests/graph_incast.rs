//! Acceptance scenarios from the forwarding-graph issue: a 4-ingress →
//! 1-egress incast and a 4×4 port-to-port traffic matrix, run end to
//! end with pooled packets, on bare SFQ and on the sharded engine.
//! Also pins the incast-reordering regression at graph level:
//! a flow fanning in from several ingress points is served in *port
//! arrival* order — never re-sorted, never dropped by the merge.

use graph::{Graph, GraphSpec, PortKind, PortSpec};
use servers::RateProfile;
use sfq_core::FlowId;
use sfq_engine::EngineConfig;
use simtime::{Bytes, Rate, SimTime};

fn saturating_burst(n: usize, len: u64) -> Vec<(SimTime, Bytes)> {
    (0..n).map(|_| (SimTime::ZERO, Bytes::new(len))).collect()
}

/// 4→1 incast: four flows with 1:2:3:4 weights, all backlogged from
/// t = 0. Every packet must be delivered (no caps), per-flow FIFO must
/// hold, and the early service split must respect the weights.
#[test]
fn incast_4_to_1_end_to_end() {
    let weights = [8_000u64, 16_000, 24_000, 32_000];
    let flows: Vec<(FlowId, Rate)> = (0..4)
        .map(|i| (FlowId(i as u32 + 1), Rate::bps(weights[i])))
        .collect();
    let port = PortSpec::new(RateProfile::constant(Rate::bps(100_000)), flows);
    let spec = GraphSpec::incast(4, port);

    for kind in [
        PortKind::Sfq,
        PortKind::SfqFast,
        PortKind::EngineSync(EngineConfig::new(2)),
    ] {
        let mut g: Graph = spec.build(kind);
        for f in 1..=4u32 {
            g.add_source((f - 1) as usize, FlowId(f), &saturating_burst(40, 250));
        }
        let r = g.run(SimTime::from_secs(600));
        let deps = &r.sink_departures[0].1;
        assert_eq!(deps.len(), 160, "{kind:?}: everything delivers");
        assert!(r.audit.balanced() && r.audit.in_use == 0, "{kind:?}");

        // Per-flow FIFO: uids within a flow depart in mint order.
        for f in 1..=4u32 {
            let uids: Vec<u64> = deps
                .iter()
                .filter(|d| d.flow == FlowId(f))
                .map(|d| d.uid)
                .collect();
            let mut sorted = uids.clone();
            sorted.sort_unstable();
            assert_eq!(uids, sorted, "{kind:?}: flow {f} reordered");
        }

        // While all four flows are backlogged (first half of the
        // departures), service splits by weight: flow 4 gets about 4×
        // flow 1's share.
        let window = &deps[..80];
        let count = |f: u32| window.iter().filter(|d| d.flow == FlowId(f)).count();
        let (c1, c4) = (count(1), count(4));
        assert!(
            c4 >= 3 * c1 && c4 <= 5 * c1.max(1),
            "{kind:?}: weighted split off: flow1={c1} flow4={c4}"
        );
    }
}

/// 4×4 traffic matrix: flow (i, j) enters at ingress i and exits at
/// egress j. Every sink must see exactly its column's flows, in full.
#[test]
fn matrix_4x4_end_to_end() {
    // Flow id encodes (ingress, egress): id = 1 + 4*i + j.
    let all_flows: Vec<(FlowId, Rate)> = (0..16)
        .map(|k| (FlowId(k as u32 + 1), Rate::bps(20_000)))
        .collect();
    let ports: Vec<PortSpec> = (0..4)
        .map(|_| PortSpec::new(RateProfile::constant(Rate::bps(400_000)), all_flows.clone()))
        .collect();
    let routes: Vec<(FlowId, usize)> = (0..16u32)
        .map(|k| (FlowId(k + 1), k as usize % 4))
        .collect();
    let spec = GraphSpec::matrix(4, ports, routes);

    for kind in [PortKind::Sfq, PortKind::EngineSync(EngineConfig::new(3))] {
        let mut g = spec.build(kind);
        for k in 0..16u32 {
            let ingress = (k / 4) as usize;
            g.add_source(ingress, FlowId(k + 1), &saturating_burst(10, 500));
        }
        let r = g.run(SimTime::from_secs(600));
        assert_eq!(r.sink_departures.len(), 4);
        for (j, (_, deps)) in r.sink_departures.iter().enumerate() {
            assert_eq!(deps.len(), 40, "{kind:?}: egress {j} short");
            assert!(
                deps.iter().all(|d| (d.flow.0 - 1) as usize % 4 == j),
                "{kind:?}: wrong-column flow at egress {j}"
            );
        }
        assert!(r.audit.balanced() && r.audit.in_use == 0, "{kind:?}");
        assert_eq!(r.unrouted, 0, "{kind:?}");
    }
}

/// Incast-reordering pin: one flow fanning in from two ingress points
/// with interleaved, non-monotone upstream sequence numbers is served
/// in exactly its port-arrival (merge) order on every port kind.
#[test]
fn incast_merge_preserves_arrival_order() {
    let flows = vec![(FlowId(1), Rate::bps(50_000))];
    let port = PortSpec::new(RateProfile::constant(Rate::bps(50_000)), flows);
    let spec = GraphSpec::incast(2, port);

    for kind in [PortKind::Sfq, PortKind::EngineSync(EngineConfig::new(2))] {
        let mut g = spec.build(kind);
        // Ingress 0 carries the odd milliseconds, ingress 1 the even
        // ones: the port sees a strict time-interleave of two streams.
        let a: Vec<(SimTime, Bytes)> = (0..12)
            .map(|i| (SimTime::from_millis(2 * i + 1), Bytes::new(125)))
            .collect();
        let b: Vec<(SimTime, Bytes)> = (0..12)
            .map(|i| (SimTime::from_millis(2 * i + 2), Bytes::new(250)))
            .collect();
        g.add_source(0, FlowId(1), &a);
        g.add_source(1, FlowId(1), &b);
        let r = g.run(SimTime::from_secs(600));

        // Expected order: transits sorted by original arrival time
        // (ties impossible here), i.e. the merge order at the port.
        let mut expect: Vec<(SimTime, u64)> = r
            .transits
            .iter()
            .map(|t| (t.pkt.arrival, t.pkt.uid))
            .collect();
        expect.sort_unstable();
        let served: Vec<u64> = r.sink_departures[0].1.iter().map(|d| d.uid).collect();
        let expect: Vec<u64> = expect.into_iter().map(|(_, uid)| uid).collect();
        assert_eq!(served, expect, "{kind:?}: merge order not preserved");
        assert!(r.audit.balanced() && r.audit.in_use == 0, "{kind:?}");
    }
}
