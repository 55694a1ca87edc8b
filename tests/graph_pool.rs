//! Pool accounting across graph runs: every allocated slot's fate is
//! booked — delivered through the sink's return lane, freed at a
//! policer/classifier/port death, discarded by churn, or still queued
//! — and the books must balance *exactly* after any run, including
//! incast overload under each drop policy and a slot-capped arena.
//! A leak shows up as `in_use > 0` after a fully drained run, or as a
//! broken global conservation law over the report's counters.

use conformance::{run_graph_oracle, Preset, Scenario};
use graph::{GraphSpec, PktArena, PortKind, PortSpec};
use netsim::DropPolicy;
use proptest::prelude::*;
use servers::RateProfile;
use sfq_core::FlowId;
use simtime::{Bytes, Rate, SimTime};

fn incast_spec(policy: DropPolicy) -> GraphSpec {
    let flows = (1..=4u32).map(|f| (FlowId(f), Rate::bps(2_000))).collect();
    let mut port = PortSpec::new(RateProfile::constant(Rate::bps(8_000)), flows);
    port.shared_cap = Some(3);
    port.policy = policy;
    GraphSpec::incast(4, port)
}

fn burst(n: usize, len: u64) -> Vec<(SimTime, Bytes)> {
    (0..n).map(|_| (SimTime::ZERO, Bytes::new(len))).collect()
}

/// Incast overload: 40 packets into a 3-slot shared buffer, each drop
/// policy. Whatever dies (refused tails, evicted heads, pressure
/// victims), every slot must be freed by the time the run drains.
#[test]
fn incast_overload_balances_under_every_drop_policy() {
    for policy in [
        DropPolicy::TailDrop,
        DropPolicy::HeadDrop,
        DropPolicy::LowestWeightPressure,
    ] {
        let mut g = incast_spec(policy).build(PortKind::Sfq);
        for f in 1..=4u32 {
            g.add_source((f - 1) as usize, FlowId(f), &burst(10, 125));
        }
        let r = g.run(SimTime::from_secs(600));
        let delivered: u64 = r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum();
        let shed: u64 = r.port_drops.iter().map(|&(_, n)| n).sum();
        assert!(shed > 0, "{policy:?}: overload must shed");
        assert_eq!(delivered + shed, 40, "{policy:?}: disposition mismatch");
        assert_eq!(r.audit.in_use, 0, "{policy:?}: leaked slots");
        assert!(r.audit.balanced(), "{policy:?}: {:?}", r.audit);
        // Sink accounting really ran: deliveries free at the sink.
        assert_eq!(r.audit.freed_sink, delivered, "{policy:?}");
    }
}

/// Churn mid-overload: force-removing a flow frees its queued slots
/// and later stragglers die at the graph boundary — no leaks either
/// way.
#[test]
fn churn_mid_overload_frees_every_slot() {
    for policy in [DropPolicy::TailDrop, DropPolicy::HeadDrop] {
        let mut g = incast_spec(policy).build(PortKind::Sfq);
        for f in 1..=4u32 {
            let arrivals: Vec<(SimTime, Bytes)> = (0..20)
                .map(|i| (SimTime::from_millis(100 * i), Bytes::new(250)))
                .collect();
            g.add_source((f - 1) as usize, FlowId(f), &arrivals);
        }
        g.schedule_churn(4, FlowId(2), SimTime::from_millis(450));
        let r = g.run(SimTime::from_secs(600));
        assert!(r.churn_discarded + r.churn_refused > 0, "{policy:?}");
        assert_eq!(r.audit.in_use, 0, "{policy:?}: leaked slots");
        assert!(r.audit.balanced(), "{policy:?}: {:?}", r.audit);
    }
}

/// A slot-capped arena refuses injections while full, then recovers as
/// the sink's lane returns slots; refusals are counted, not leaked.
#[test]
fn slot_capped_arena_refuses_then_recovers() {
    let flows = vec![(FlowId(1), Rate::bps(8_000))];
    let port = PortSpec::new(RateProfile::constant(Rate::bps(8_000)), flows);
    let spec = GraphSpec::incast(1, port);
    let mut g = spec.build_pooled(PortKind::Sfq, PktArena::with_limit(Some(2)));
    // A 6-packet burst overwhelms the 2-slot arena; later spaced
    // packets find recycled slots.
    let mut arrivals = burst(6, 125);
    for i in 0..6 {
        arrivals.push((SimTime::from_secs(2 + i), Bytes::new(125)));
    }
    g.add_source(0, FlowId(1), &arrivals);
    let r = g.run(SimTime::from_secs(600));
    assert!(r.arena_refused > 0, "cap never bound");
    let delivered: u64 = r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum();
    assert_eq!(delivered + r.arena_refused, 12);
    assert!(delivered >= 6, "lane recycling never recovered");
    assert_eq!(r.audit.in_use, 0);
    assert!(r.audit.balanced(), "{:?}", r.audit);
    assert!(r.audit.high_water <= 2, "cap exceeded: {:?}", r.audit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Global conservation over random graph-preset scenarios (chains
    /// with policers, droops, churn, caps): every injected packet is
    /// accounted for exactly once across all exits, and the arena
    /// books balance.
    #[test]
    fn preset_runs_conserve_every_slot(seed in 0u64..1_000_000) {
        let sc = Scenario::from_seed(Preset::Graph, seed);
        let injected: u64 = sc.flows.iter().map(|f| sc.arrivals_for(f).len() as u64).sum();
        let r = run_graph_oracle(&sc);
        let delivered: u64 = r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum();
        let refused: u64 = r.port_refusals.iter().map(|(_, u)| u.len() as u64).sum();
        let exits = delivered
            + r.policer_dropped
            + r.unrouted
            + refused
            + r.evicted
            + r.churn_discarded
            + r.churn_refused
            + r.audit.in_use as u64;
        prop_assert_eq!(
            exits, injected,
            "conservation broken (delivered={} policed={} refused={} evicted={} churn={}+{} in_use={})\n  {}",
            delivered, r.policer_dropped, refused, r.evicted,
            r.churn_discarded, r.churn_refused, r.audit.in_use,
            sc.replay_line()
        );
        prop_assert!(r.audit.balanced(), "{:?}\n  {}", r.audit, sc.replay_line());
        prop_assert_eq!(r.arena_refused, 0);
    }
}
