//! End-to-end conformance: Theorem 6 and Corollary 1 over a tandem of
//! 2–5 FC servers — a `graph::GraphSpec::chain` in which every cross
//! flow is local to one hop — with the scenario's fault schedule
//! (capacity droop, cross-flow churn, per-flow buffer caps) applied.
//!
//! The chain is built, run and evaluated by the same helpers as the
//! forwarding-graph runner ([`crate::graph`], which also states why
//! the bounds stay sound under each fault); this runner differs only
//! in what it reports — the observed flow's outcome plus a departure
//! fingerprint for bit-identity comparisons — and in running without
//! ingress policers.

use crate::graph::{chain_spec, check_path, hop_deltas, run_once};
use crate::scenario::Scenario;
use sfq_core::{Sfq, TieBreak};
use sfq_obs::RingTracer;
use simtime::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything one tandem conformance run produced.
#[derive(Debug)]
pub struct E2eOutcome {
    /// Replay line reproducing the run.
    pub replay: String,
    /// Hops in the tandem.
    pub hops: usize,
    /// Observed packets injected at server 1.
    pub injected: usize,
    /// Observed packets that cleared every hop.
    pub completed: usize,
    /// Composed delay term `Σ_n β^n + Σ τ`.
    pub term: SimDuration,
    /// Worst Theorem 6 violation over completed observed packets
    /// (zero = conforms).
    pub theorem6_violation: SimDuration,
    /// Worst Corollary 1 violation (end-to-end delay vs the (σ, ρ)
    /// closed form; zero = conforms).
    pub corollary1_violation: SimDuration,
    /// Largest observed end-to-end delay.
    pub max_delay: SimDuration,
    /// Corollary 1 closed-form bound.
    pub corollary1_bound: SimDuration,
    /// Packets discarded by churn force-removals.
    pub churn_discarded: u64,
    /// In-flight packets refused at churned hops.
    pub churn_refused: u64,
    /// Packets dropped at buffer caps (all hops, all flows).
    pub buffer_dropped: u64,
    /// Per-hop departure fingerprint of the observed flow — `(uid,
    /// final-hop departure)` — for bit-identity comparisons.
    pub fingerprint: Vec<(u64, SimTime)>,
}

/// Run the full tandem conformance check for a [`Preset::Tandem`]
/// scenario (any scenario with FC/constant hops works).
///
/// `with_observers` attaches a ring tracer to every hop's scheduler;
/// the outcome must be bit-identical either way (the
/// observer-neutrality satellite checks exactly that via
/// [`E2eOutcome::fingerprint`]).
///
/// [`Preset::Tandem`]: crate::scenario::Preset::Tandem
pub fn run_tandem_conformance(sc: &Scenario, with_observers: bool) -> E2eOutcome {
    assert!(
        !matches!(sc.server, crate::scenario::ServerSpec::Ebf { .. }),
        "Theorem 6 harness needs FC hops"
    );
    let run_horizon = sc.horizon() + SimDuration::from_secs(10);
    let (spec, inject) = chain_spec(sc, run_horizon, false);
    let report = run_once(
        sc,
        &spec,
        &inject,
        &mut |_ordinal| {
            if with_observers {
                let tracer = Rc::new(RefCell::new(RingTracer::with_capacity(512)));
                Box::new(Sfq::with_observer(TieBreak::Fifo, tracer))
            } else {
                Box::new(Sfq::new())
            }
        },
        run_horizon,
    );
    assert!(
        report.audit.balanced(),
        "arena books unbalanced: {:?}\n  {}",
        report.audit,
        sc.replay_line()
    );
    let path = check_path(sc, &report, &hop_deltas(sc, run_horizon), sc.observed());

    E2eOutcome {
        replay: sc.replay_line(),
        hops: sc.hops,
        injected: path.injected,
        completed: path.done.len(),
        term: path.term,
        theorem6_violation: path.theorem6_violation,
        corollary1_violation: path.corollary1_violation,
        max_delay: path.max_delay,
        corollary1_bound: path.corollary1_bound,
        churn_discarded: report.churn_discarded,
        churn_refused: report.churn_refused,
        buffer_dropped: report.port_drops.iter().map(|&(_, n)| n).sum(),
        fingerprint: path
            .done
            .iter()
            .map(|&(uid, _, _, dep)| (uid, dep))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn clean_tandem_meets_both_bounds() {
        let mut sc = Scenario::from_seed(Preset::Tandem, 2);
        sc.droops.clear();
        sc.churns.clear();
        sc.per_flow_cap = None;
        let out = run_tandem_conformance(&sc, false);
        assert!(out.completed > 0, "no observed packets completed");
        assert_eq!(out.completed, out.injected);
        assert_eq!(
            out.theorem6_violation,
            SimDuration::ZERO,
            "Theorem 6 violated by {:?}\n  {}",
            out.theorem6_violation,
            out.replay
        );
        assert_eq!(
            out.corollary1_violation,
            SimDuration::ZERO,
            "Corollary 1 violated by {:?}\n  {}",
            out.corollary1_violation,
            out.replay
        );
        assert!(out.max_delay <= out.corollary1_bound);
    }

    #[test]
    fn faulted_tandem_still_meets_theorem6() {
        // Force a droop and a churn onto a known seed.
        let mut sc = Scenario::from_seed(Preset::Tandem, 4);
        sc.droops = vec![crate::scenario::Droop {
            hop: 0,
            at_ms: 2_000,
            dur_ms: 300,
            percent: 50,
        }];
        let victim = sc.flows[1].id;
        sc.churns = vec![crate::scenario::Churn {
            flow: victim,
            at_ms: 3_000,
            revive_ms: None,
        }];
        let out = run_tandem_conformance(&sc, false);
        assert!(out.completed > 0);
        assert!(out.churn_discarded + out.churn_refused > 0 || out.completed == out.injected);
        assert_eq!(
            out.theorem6_violation,
            SimDuration::ZERO,
            "Theorem 6 violated by {:?}\n  {}",
            out.theorem6_violation,
            out.replay
        );
    }

    #[test]
    fn observers_do_not_change_departures() {
        let sc = Scenario::from_seed(Preset::Tandem, 6);
        let plain = run_tandem_conformance(&sc, false);
        let traced = run_tandem_conformance(&sc, true);
        assert_eq!(plain.fingerprint, traced.fingerprint);
        assert_eq!(plain.churn_discarded, traced.churn_discarded);
        assert_eq!(plain.buffer_dropped, traced.buffer_dropped);
    }
}
