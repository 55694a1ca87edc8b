//! Property tests over random routed meshes: conservation (no packet
//! duplicated or invented), per-flow end-to-end FIFO, and causality
//! (delivery strictly after injection plus minimum path latency).

use proptest::prelude::*;
use sfq_repro::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct MeshCase {
    n_links: usize,
    /// Flow routes as (start link, hop count).
    flows: Vec<(usize, usize)>,
    /// Packets per flow.
    pkts: usize,
}

fn mesh_case() -> impl Strategy<Value = MeshCase> {
    (2usize..6).prop_flat_map(|n_links| {
        (
            prop::collection::vec((0usize..n_links, 1usize..4), 1..6),
            10usize..60,
        )
            .prop_map(move |(flows, pkts)| MeshCase {
                n_links,
                flows,
                pkts,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mesh_conservation_and_order(case in mesh_case()) {
        let c = Rate::mbps(1);
        // Build links with every flow registered everywhere (harmless).
        let links = (0..case.n_links)
            .map(|_| {
                let flows = (0..case.flows.len() as u32)
                    .map(|f| (FlowId(f + 1), Rate::kbps(100)))
                    .collect();
                (
                    PortSpec::new(RateProfile::constant(c), flows),
                    SimDuration::from_millis(1),
                )
            })
            .collect();
        // Routes: consecutive links with wraparound, clipped at the
        // first repeat (a route crosses a link at most once).
        let routes: Vec<(FlowId, Vec<usize>)> = case
            .flows
            .iter()
            .enumerate()
            .map(|(i, &(start, hops))| {
                let mut seen = std::collections::HashSet::new();
                let route = (0..hops)
                    .map(|h| (start + h) % case.n_links)
                    .take_while(|l| seen.insert(*l))
                    .collect();
                (FlowId(i as u32 + 1), route)
            })
            .collect();
        let mut m = GraphSpec::routed(links, &routes).build(PortKind::Sfq);
        let mut expected = HashMap::new();
        for (flow, route) in &routes {
            let arr: Vec<(SimTime, Bytes)> = (0..case.pkts)
                .map(|k| (SimTime::from_millis(k as i128 * 5), Bytes::new(400)))
                .collect();
            m.add_source(route[0], *flow, &arr);
            expected.insert(*flow, case.pkts);
        }
        let report = m.run(SimTime::from_secs(600));
        prop_assert!(report.audit.balanced() && report.audit.in_use == 0);
        let deliveries = &report.sink_departures[0].1;
        // Conservation: every packet delivered exactly once.
        let mut got: HashMap<FlowId, usize> = HashMap::new();
        let mut uids = std::collections::HashSet::new();
        for d in deliveries {
            prop_assert!(uids.insert(d.uid), "duplicate delivery");
            *got.entry(d.flow).or_insert(0) += 1;
        }
        for (flow, n) in &expected {
            prop_assert_eq!(got.get(flow).copied().unwrap_or(0), *n, "flow {} lost packets", flow);
        }
        // Per-flow end-to-end FIFO by uid.
        let mut last: HashMap<FlowId, u64> = HashMap::new();
        for d in deliveries {
            if let Some(&prev) = last.get(&d.flow) {
                prop_assert!(d.uid > prev, "flow {} reordered", d.flow);
            }
            last.insert(d.flow, d.uid);
        }
        // Causality: delivery no earlier than injection + per-hop
        // minimum latency (tx at full rate + propagation).
        for d in deliveries {
            let injected = report.transits[d.uid as usize].pkt.arrival;
            prop_assert!(d.at > injected);
        }
    }
}
