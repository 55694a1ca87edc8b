//! The unit tests of the three deleted `netsim` executors (`Net`,
//! `Tandem`, `Mesh`), ported one-to-one by name onto the graph with
//! their expected times and counts unchanged. Every run additionally
//! checks the arena books: the old executors had no arena, so TCP
//! retransmits, priority packets, fragments and mid-path drops get
//! slot-leak coverage here for the first time.

use graph::{Departure, GraphReport, GraphSpec, PortKind, PortSpec, Transit};
use netsim::TcpConfig;
use servers::RateProfile;
use sfq_core::FlowId;
use simtime::{Bytes, Rate, SimDuration, SimTime};

/// Uncapped-or-per-flow-capped SFQ port over a constant `link`.
fn port(flows: &[(u32, Rate)], link: Rate, cap: Option<usize>) -> PortSpec {
    let flows = flows.iter().map(|&(f, w)| (FlowId(f), w)).collect();
    let mut ps = PortSpec::new(RateProfile::constant(link), flows);
    ps.per_flow_cap = cap;
    ps
}

const MS: fn(i128) -> SimDuration = SimDuration::from_millis;

/// The single sink's deliveries, in time order.
fn deliveries(r: &GraphReport) -> &[Departure] {
    assert!(r.audit.balanced(), "arena books unbalanced: {:?}", r.audit);
    &r.sink_departures[0].1
}

fn delivered_of(r: &GraphReport, flow: u32) -> usize {
    deliveries(r)
        .iter()
        .filter(|d| d.flow == FlowId(flow))
        .count()
}

/// Packets that cleared their whole path, by uid.
fn completed(r: &GraphReport) -> Vec<&Transit> {
    assert!(r.audit.balanced(), "arena books unbalanced: {:?}", r.audit);
    r.transits
        .iter()
        .filter(|t| t.delivered.is_some())
        .collect()
}

fn hop_times(t: &Transit) -> Vec<SimTime> {
    t.port_departures.iter().map(|&(_, at)| at).collect()
}

/// Figure 1(a): sources → one switch → destination, TCP ACKs back.
mod net {
    use super::*;

    /// One bottleneck port with 1 ms to the destination; every listed
    /// flow (scheduled or priority) is routed across it.
    fn bottleneck(
        flows: &[(u32, Rate)],
        link: Rate,
        cap: Option<usize>,
        routed: &[u32],
    ) -> GraphSpec {
        let routes: Vec<_> = routed.iter().map(|&f| (FlowId(f), vec![0])).collect();
        GraphSpec::routed(vec![(port(flows, link, cap), MS(1))], &routes)
    }

    #[test]
    fn scripted_flow_delivers_all_packets() {
        let spec = bottleneck(&[(1, Rate::kbps(64))], Rate::mbps(1), None, &[1]);
        let mut g = spec.build(PortKind::Sfq);
        let arr: Vec<(SimTime, Bytes)> = (0..10)
            .map(|i| (SimTime::from_millis(i * 10), Bytes::new(200)))
            .collect();
        g.add_source(0, FlowId(1), &arr);
        let r = g.run(SimTime::from_secs(10));
        let deliveries = deliveries(&r);
        assert_eq!(deliveries.len(), 10);
        // 200 B at 1 Mb/s = 1.6 ms tx + 1 ms prop.
        assert_eq!(deliveries[0].at, SimTime::from_micros(1600) + MS(1));
        assert_eq!(r.audit.in_use, 0);
    }

    #[test]
    fn tcp_transfers_complete_and_in_order() {
        let spec = bottleneck(&[(1, Rate::mbps(1))], Rate::mbps(1), Some(64), &[1]);
        let mut g = spec.build(PortKind::Sfq);
        g.add_tcp_source(
            0,
            FlowId(1),
            TcpConfig {
                limit: Some(100),
                ..TcpConfig::default()
            },
            MS(1),
            SimTime::ZERO,
        );
        let r = g.run(SimTime::from_secs(60));
        // All 100 segments (plus possibly spurious retransmissions)
        // delivered.
        let n = deliveries(&r).len();
        assert!(n >= 100, "got {n}");
        assert_eq!(r.audit.in_use, 0, "finished transfer left slots behind");
    }

    #[test]
    fn two_tcp_flows_share_fairly_under_sfq() {
        let spec = bottleneck(
            &[(1, Rate::mbps(1)), (2, Rate::mbps(1))],
            Rate::mbps(2),
            Some(32),
            &[1, 2],
        );
        let mut g = spec.build(PortKind::Sfq);
        for f in [1u32, 2] {
            g.add_tcp_source(0, FlowId(f), TcpConfig::default(), MS(1), SimTime::ZERO);
        }
        let r = g.run(SimTime::from_secs(5));
        let (n1, n2) = (delivered_of(&r, 1), delivered_of(&r, 2));
        assert!(n1 > 100 && n2 > 100, "n1={n1} n2={n2}");
        let ratio = n1 as f64 / n2 as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "unfair: n1={n1} n2={n2}");
    }

    #[test]
    fn priority_traffic_steals_capacity_from_tcp() {
        // With a priority CBR flow using half the link, a single TCP
        // flow should deliver roughly half of what it gets on an idle
        // link over the same horizon.
        let horizon = SimTime::from_secs(5);
        let run = |with_priority: bool| -> usize {
            let spec = bottleneck(&[(1, Rate::mbps(1))], Rate::mbps(2), Some(64), &[1, 9]);
            let mut g = spec.build(PortKind::Sfq);
            if with_priority {
                let arr: Vec<(SimTime, Bytes)> = (0..5000)
                    .map(|i| (SimTime::from_micros(i * 1000), Bytes::new(125)))
                    .collect();
                g.add_priority_source(0, FlowId(9), &arr);
            }
            g.add_tcp_source(0, FlowId(1), TcpConfig::default(), MS(1), SimTime::ZERO);
            let r = g.run(horizon);
            if with_priority {
                assert!(delivered_of(&r, 9) > 4_900, "priority class starved");
            }
            delivered_of(&r, 1)
        };
        let idle = run(false);
        let contended = run(true);
        assert!(contended < idle, "idle={idle} contended={contended}");
        let frac = contended as f64 / idle as f64;
        assert!(frac > 0.3 && frac < 0.75, "frac={frac}");
    }
}

/// Section 2.4: a tandem of K scheduled servers.
mod tandem {
    use super::*;

    fn hop(flows: &[(u32, Rate)], link: Rate) -> PortSpec {
        port(flows, link, None)
    }

    const BOTH: [(u32, Rate); 2] = [(1, Rate::kbps(64)), (2, Rate::kbps(64))];

    #[test]
    fn single_packet_crosses_all_hops() {
        let hops = (0..3)
            .map(|_| hop(&[(1, Rate::kbps(64))], Rate::mbps(1)))
            .collect();
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 2)], MS(2));
        let mut g = spec.build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &[(SimTime::ZERO, Bytes::new(125))]);
        let r = g.run(SimTime::from_secs(1));
        let out = completed(&r);
        assert_eq!(out.len(), 1);
        // 125 B at 1 Mb/s = 1 ms per hop; + 2 ms propagation between.
        assert_eq!(
            hop_times(out[0]),
            vec![
                SimTime::from_millis(1),
                SimTime::from_millis(4),
                SimTime::from_millis(7),
            ]
        );
    }

    #[test]
    fn per_flow_order_is_preserved_end_to_end() {
        let hops = vec![hop(&BOTH, Rate::mbps(1)), hop(&BOTH, Rate::mbps(1))];
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 1), (FlowId(2), 1)], MS(1));
        let mut g = spec.build(PortKind::Sfq);
        let arr: Vec<(SimTime, Bytes)> = (0..20)
            .map(|i| (SimTime::from_micros(i * 100), Bytes::new(200)))
            .collect();
        g.add_source(0, FlowId(1), &arr);
        g.add_source(0, FlowId(2), &arr);
        let r = g.run(SimTime::from_secs(2));
        let out = completed(&r);
        assert_eq!(out.len(), 40);
        for f in [1u32, 2] {
            let mut last = SimTime::ZERO;
            for tr in out.iter().filter(|t| t.pkt.flow == FlowId(f)) {
                let fin = *hop_times(tr).last().unwrap();
                assert!(fin >= last, "reordering within flow {f}");
                last = fin;
            }
        }
    }

    #[test]
    fn path_source_enters_and_exits_mid_tandem() {
        let hops = (0..3).map(|_| hop(&BOTH, Rate::mbps(1))).collect();
        // Cross flow rides only hop 1 (the middle one).
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 2), (FlowId(2), 1)], MS(1));
        let mut g = spec.build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &[(SimTime::ZERO, Bytes::new(125))]);
        g.add_source(1, FlowId(2), &[(SimTime::ZERO, Bytes::new(125))]);
        let r = g.run(SimTime::from_secs(1));
        let out = completed(&r);
        assert_eq!(out.len(), 2);
        let cross = out.iter().find(|tr| tr.pkt.flow == FlowId(2)).unwrap();
        assert_eq!(cross.port_departures.len(), 1, "one hop only");
        let main = out.iter().find(|tr| tr.pkt.flow == FlowId(1)).unwrap();
        assert_eq!(main.port_departures.len(), 3);
    }

    #[test]
    fn churn_discards_backlog_and_refuses_stragglers() {
        // Slow hop 0 (1 kb/s) then fast hop 1; flow 2 is churned from
        // hop 1 while its packets are still queued at hop 0.
        let hops = vec![hop(&BOTH, Rate::bps(1_000)), hop(&BOTH, Rate::mbps(1))];
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 1), (FlowId(2), 1)], MS(1));
        let mut g = spec.build(PortKind::Sfq);
        let arr: Vec<(SimTime, Bytes)> = (0..6).map(|_| (SimTime::ZERO, Bytes::new(125))).collect();
        g.add_source(0, FlowId(1), &arr);
        g.add_source(0, FlowId(2), &arr);
        // At t = 1.5 s roughly one packet has cleared hop 0; remove
        // flow 2 from hop 1 so all later flow-2 packets are refused.
        g.schedule_churn(1, FlowId(2), SimTime::from_millis(1_500));
        let r = g.run(SimTime::from_secs(60));
        let out = completed(&r);
        let done = |f: u32| out.iter().filter(|tr| tr.pkt.flow == FlowId(f)).count();
        assert!(done(2) < 6, "some flow-2 packets must be cut off");
        assert_eq!(
            r.churn_discarded + r.churn_refused + done(2) as u64,
            6,
            "every flow-2 packet accounted for"
        );
        // Flow 1 is unaffected end to end.
        assert_eq!(done(1), 6);
        assert_eq!(r.audit.in_use, 0);
    }

    #[test]
    fn bounded_hop_drops_instead_of_panicking() {
        let run = |first_at: SimTime| {
            let hops = vec![port(&[(1, Rate::kbps(64))], Rate::bps(1_000), Some(2))];
            let spec = GraphSpec::chain(hops, &[(FlowId(1), 0)], SimDuration::ZERO);
            let mut g = spec.build(PortKind::Sfq);
            let mut arr = vec![(SimTime::from_micros(1), Bytes::new(125)); 5];
            arr[0].0 = first_at;
            g.add_source(0, FlowId(1), &arr);
            let r = g.run(SimTime::from_secs(30));
            assert_eq!(r.audit.in_use, 0);
            (completed(&r).len(), r.port_drops[0])
        };
        // Burst of 5 one-second packets into a cap-2 buffer behind an
        // idle link: the first starts transmitting, two queue, two
        // drop.
        assert_eq!(run(SimTime::ZERO), (3, (0, 2)));
        // The one same-instant rule that differs from the old `Tandem`
        // loop: it started the link after every single offer, so this
        // held for an all-at-one-instant burst too. The graph admits a
        // same-instant ingress batch whole and starts the link after
        // it, so such a burst meets the cap with nothing in
        // transmission yet: two queue, three drop.
        assert_eq!(run(SimTime::from_micros(1)), (2, (0, 3)));
    }

    #[test]
    #[should_panic(expected = "invalid path")]
    fn out_of_range_path_rejected() {
        let hops = vec![hop(&[(1, Rate::kbps(64))], Rate::mbps(1))];
        GraphSpec::chain(hops, &[(FlowId(1), 5)], SimDuration::ZERO);
    }

    #[test]
    fn incomplete_packets_excluded_at_horizon() {
        let hops = vec![hop(&[(1, Rate::bps(1_000))], Rate::bps(1_000))];
        let spec = GraphSpec::chain(hops, &[(FlowId(1), 0)], SimDuration::ZERO);
        let mut g = spec.build(PortKind::Sfq);
        // Two 1-second packets; horizon cuts off the second.
        g.add_source(
            0,
            FlowId(1),
            &[
                (SimTime::ZERO, Bytes::new(125)),
                (SimTime::ZERO, Bytes::new(125)),
            ],
        );
        let r = g.run(SimTime::from_millis(1500));
        assert_eq!(completed(&r).len(), 1);
        assert_eq!(r.audit.in_use, 1, "the cut-off packet still holds its slot");
    }
}

/// Arbitrary routed topologies.
mod mesh {
    use super::*;

    fn link(flows: &[(u32, Rate)], rate: Rate) -> (PortSpec, SimDuration) {
        (port(flows, rate, None), MS(1))
    }

    /// Parking lot: long flow 1 crosses links A, B, C; local flows 2-4
    /// each load one link. With SFQ everywhere and equal weights, the
    /// long flow gets ~half of every link, so its end-to-end throughput
    /// is ~C/2 — not crushed multiplicatively.
    #[test]
    fn parking_lot_long_flow_gets_per_link_fair_share() {
        let c = Rate::mbps(1);
        let w = Rate::kbps(500);
        let spec = GraphSpec::routed(
            vec![
                link(&[(1, w), (2, w)], c),
                link(&[(1, w), (3, w)], c),
                link(&[(1, w), (4, w)], c),
            ],
            &[
                (FlowId(1), vec![0, 1, 2]),
                (FlowId(2), vec![0]),
                (FlowId(3), vec![1]),
                (FlowId(4), vec![2]),
            ],
        );
        let mut g = spec.build(PortKind::Sfq);
        // All flows: saturating scripted arrivals for 2 s.
        let burst: Vec<(SimTime, Bytes)> = (0..2_000)
            .map(|i| (SimTime::from_millis(i), Bytes::new(500)))
            .collect();
        for (f, entry) in [(1u32, 0), (2, 0), (3, 1), (4, 2)] {
            g.add_source(entry, FlowId(f), &burst);
        }
        let r = g.run(SimTime::from_secs(2));
        // Offered load per flow is 2 Mb/s >> its 0.5 Mb/s share.
        // Long flow ~ c/2 = 125 pkt/s * 2 s = 250 packets.
        let long = delivered_of(&r, 1) as f64;
        assert!((long - 250.0).abs() < 30.0, "long flow got {long}");
        for f in 2..=4u32 {
            let local = delivered_of(&r, f) as f64;
            assert!((local - 250.0).abs() < 30.0, "local flow {f} got {local}");
        }
    }

    #[test]
    fn tcp_over_two_hops_completes_in_order() {
        let c = Rate::mbps(2);
        let w = Rate::mbps(1);
        let spec = GraphSpec::routed(
            vec![link(&[(1, w)], c), link(&[(1, w)], c)],
            &[(FlowId(1), vec![0, 1])],
        );
        let mut g = spec.build(PortKind::Sfq);
        g.add_tcp_source(
            0,
            FlowId(1),
            TcpConfig {
                limit: Some(200),
                ..TcpConfig::default()
            },
            MS(2),
            SimTime::ZERO,
        );
        let r = g.run(SimTime::from_secs(30));
        let n = delivered_of(&r, 1);
        assert!(n >= 200, "transfer incomplete: {n}");
        assert_eq!(r.audit.in_use, 0);
    }

    #[test]
    fn crossing_tcp_flows_share_their_common_link() {
        // Flow 1: links A->B; flow 2: links C->B. Common bottleneck B.
        let cb = Rate::mbps(1);
        let fast = Rate::mbps(10);
        let w = Rate::kbps(500);
        let (a, c, b) = (0, 1, 2);
        let spec = GraphSpec::routed(
            vec![
                link(&[(1, w)], fast),
                link(&[(2, w)], fast),
                link(&[(1, w), (2, w)], cb),
            ],
            &[(FlowId(1), vec![a, b]), (FlowId(2), vec![c, b])],
        );
        let mut g = spec.build(PortKind::Sfq);
        for (f, entry) in [(1u32, a), (2, c)] {
            g.add_tcp_source(entry, FlowId(f), TcpConfig::default(), MS(2), SimTime::ZERO);
        }
        let r = g.run(SimTime::from_secs(5));
        let (n1, n2) = (delivered_of(&r, 1), delivered_of(&r, 2));
        assert!(n1 > 200 && n2 > 200, "n1={n1} n2={n2}");
        let ratio = n1 as f64 / n2 as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "unfair at shared link: {n1} vs {n2}"
        );
    }

    #[test]
    fn fragmentation_and_reassembly_across_small_mtu_link() {
        // Hop A has a 400 B MTU; 1000 B packets split into 3 fragments
        // (400+400+200), cross hop B whole, and reassemble at the sink.
        let c = Rate::mbps(1);
        let w = Rate::kbps(500);
        let mut a = link(&[(1, w)], c);
        a.0.mtu = Some(Bytes::new(400));
        let spec = GraphSpec::routed(vec![a, link(&[(1, w)], c)], &[(FlowId(1), vec![0, 1])]);
        let mut g = spec.build(PortKind::Sfq);
        let arrivals: Vec<(SimTime, Bytes)> = (0..10)
            .map(|i| (SimTime::from_millis(i * 50), Bytes::new(1_000)))
            .collect();
        g.add_source(0, FlowId(1), &arrivals);
        let r = g.run(SimTime::from_secs(5));
        let deliveries = deliveries(&r);
        // Exactly the 10 ORIGINAL packets delivered, in order, at their
        // original 1000 B length.
        assert_eq!(deliveries.len(), 10);
        let mut last = SimTime::ZERO;
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.uid, i as u64, "an original, not a fragment");
            assert_eq!(d.len, Bytes::new(1_000));
            assert!(d.at >= last);
            last = d.at;
        }
        // Delivery of a reassembled packet waits for its LAST fragment:
        // 3 fragments at 1 Mb/s = (3200+3200+1600 bits) tx on hop A in
        // sequence, so strictly later than a whole-packet double hop.
        assert!(deliveries[0].at > SimTime::from_millis(8 + 2));
        // 10 originals + 30 fragments were minted; every fragment's
        // slot was freed at reassembly, every original's at the sink.
        assert_eq!(r.transits.len(), 40);
        assert_eq!((r.audit.freed_local, r.audit.freed_sink), (30, 10));
        assert_eq!(r.audit.in_use, 0);
    }

    #[test]
    fn small_packets_pass_mtu_link_unfragmented() {
        let mut a = link(&[(1, Rate::kbps(500))], Rate::mbps(1));
        a.0.mtu = Some(Bytes::new(400));
        let spec = GraphSpec::routed(vec![a], &[(FlowId(1), vec![0])]);
        let mut g = spec.build(PortKind::Sfq);
        g.add_source(0, FlowId(1), &[(SimTime::ZERO, Bytes::new(300))]);
        let r = g.run(SimTime::from_secs(1));
        let deliveries = deliveries(&r);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].len, Bytes::new(300));
        // 2400 bits at 1 Mb/s + 1 ms prop = 3.4 ms.
        assert_eq!(deliveries[0].at, SimTime::from_micros(2_400) + MS(1));
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_route_rejected() {
        GraphSpec::routed(
            vec![link(&[(1, Rate::kbps(500))], Rate::mbps(1))],
            &[(FlowId(1), vec![3])],
        );
    }
}
