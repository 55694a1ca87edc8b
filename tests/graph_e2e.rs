//! Theorem 6 + Corollary 1 over 2–5-hop forwarding-graph paths with
//! *shared* intermediate ports: unlike the tandem suite, cross flows
//! span multi-hop sub-paths, so the bound is exercised under genuine
//! fan-in, plus ingress policing, capacity droops, cross-flow churn,
//! and every drop policy. Survivors are embedded back into the
//! injected script by the shared reverse-greedy rule
//! (`conformance::embed_survivors`), so packets dropped mid-graph keep
//! the check conservative rather than vacuous. Any failure prints a
//! `conformance replay: preset=graph seed=..` line.

use conformance::{run_graph_conformance, Preset, Scenario};
use proptest::prelude::*;
use simtime::SimDuration;

fn assert_conforms(sc: &Scenario) -> Result<(), TestCaseError> {
    let out = match run_graph_conformance(sc) {
        Ok(out) => out,
        Err(e) => return Err(TestCaseError::fail(e)),
    };
    prop_assert!(
        out.completed > 0,
        "no observed packets delivered ({} injected)\n  {}",
        out.injected,
        out.replay
    );
    prop_assert_eq!(
        out.theorem6_violation,
        SimDuration::ZERO,
        "Theorem 6 violated by {:?} over {} hops\n  {}",
        out.theorem6_violation,
        out.hops,
        out.replay
    );
    prop_assert_eq!(
        out.corollary1_violation,
        SimDuration::ZERO,
        "Corollary 1 violated by {:?} (bound {:?}, max delay {:?})\n  {}",
        out.corollary1_violation,
        out.corollary1_bound,
        out.max_delay,
        out.replay
    );
    prop_assert!(out.max_delay <= out.corollary1_bound);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full graph conformance bundle — Theorem 6 along every
    /// flow's path, Corollary 1 for the shaped observed flow, per-port
    /// Theorem 1 under tail-drop, engine-port packet accounting, and
    /// arena book balance — holds over random scenarios.
    #[test]
    fn theorems_hold_over_random_graphs(seed in 0u64..1_000_000) {
        let sc = Scenario::from_seed(Preset::Graph, seed);
        assert_conforms(&sc)?;
    }

    /// Forcing tight per-flow caps onto the scenario (so packets are
    /// genuinely dropped mid-graph) must not break the bounds: the
    /// survivor embedding absorbs the drops.
    #[test]
    fn bounds_survive_forced_buffer_drops(seed in 0u64..1_000_000) {
        let mut sc = Scenario::from_seed(Preset::Graph, seed);
        sc.per_flow_cap = Some(3);
        assert_conforms(&sc)?;
    }
}

/// Acceptance pin: the bounds hold across >= 3 graph hops while both
/// a capacity droop and a cross-flow churn are in effect.
#[test]
fn three_plus_hops_under_churn_and_droop() {
    let mut checked = 0;
    for seed in 0..60u64 {
        let mut sc = Scenario::from_seed(Preset::Graph, seed);
        if sc.hops < 3 {
            continue;
        }
        // Force one droop and one cross-flow churn regardless of what
        // the seed drew.
        sc.droops = vec![conformance::Droop {
            hop: 1,
            at_ms: sc.horizon_ms / 3,
            dur_ms: 300,
            percent: 50,
        }];
        let victim = sc.flows[1].id;
        sc.churns = vec![conformance::Churn {
            flow: victim,
            at_ms: sc.horizon_ms / 2,
            revive_ms: None,
        }];
        let out = run_graph_conformance(&sc).unwrap_or_else(|e| panic!("{e}"));
        assert!(out.completed > 0, "{}", out.replay);
        assert_eq!(out.theorem6_violation, SimDuration::ZERO, "{}", out.replay);
        assert_eq!(
            out.corollary1_violation,
            SimDuration::ZERO,
            "{}",
            out.replay
        );
        checked += 1;
        if checked >= 3 {
            return;
        }
    }
    panic!("fewer than 3 scenarios with >= 3 hops in 60 seeds");
}

/// The preset must actually produce the topology class it advertises:
/// within a few seeds, some intermediate port carries a cross flow
/// that entered at an earlier hop (shared-port fan-in).
#[test]
fn cross_traffic_shares_intermediate_ports() {
    for seed in 0..40u64 {
        let sc = Scenario::from_seed(Preset::Graph, seed);
        let shared = sc.flows.iter().skip(1).any(|f| {
            f.exit > f.entry
                && sc
                    .flows
                    .iter()
                    .skip(1)
                    .any(|g| g.id != f.id && g.entry > f.entry && g.entry <= f.exit)
        });
        if shared {
            let out = run_graph_conformance(&sc).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(out.theorem6_violation, SimDuration::ZERO, "{}", out.replay);
            return;
        }
    }
    panic!("no seed produced overlapping multi-hop cross flows");
}
