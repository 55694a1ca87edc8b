//! Forwarding-graph conformance: the [`Preset::Graph`] runner, plus
//! the chain builder and the one Theorem 6 / Corollary 1 evaluation
//! routine it shares with the tandem runner ([`crate::e2e`]).
//!
//! One scenario drives three checks over the same `graph::GraphSpec`
//! chain (ports shared by multi-hop cross flows, policers in front of
//! a deterministic subset of them, droops, churn, caps):
//!
//! 1. **Theorems, live.** The oracle build (bare exact-rational `Sfq`
//!    ports with `sfq_obs::FlowMetrics` attached) must satisfy
//!    Theorem 6 along *every* flow's path — per-hop β recomputed with
//!    the droop-faulted effective δ, survivors embedded back into the
//!    injected script by the reverse-greedy rule
//!    ([`embed_survivors`]) — plus Corollary 1 for the
//!    (σ, ρ)-shaped observed flow, and (under tail-drop, where
//!    delivered-service fairness is not sacrificed by evictions)
//!    Theorem 1 pairwise fairness at every port via the FlowMetrics
//!    watermarks.
//! 2. **Engine ports.** The same spec built on `SyncEngine` ports
//!    (config derived from the seed, rings tight enough to refuse)
//!    must account for every injected packet: delivered, policed,
//!    refused or evicted at a port, or churned — nothing unrouted,
//!    nothing stray.
//! 3. **Books.** After every run the packet arena's disposition books
//!    balance exactly — no slot leaks however packets died mid-graph.
//!
//! Soundness of the delay bounds under faults:
//!
//! - **Droop** makes a hop a worse-but-still FC server; the per-hop β
//!   is recomputed with the *exact* effective δ of the faulted profile,
//!   so the composed bound remains a theorem, not a heuristic.
//! - **Churn** only ever removes cross flows. Removing competing
//!   backlog can only advance the surviving flows, and β (computed
//!   from the cross flows' `l^max`) stays an upper bound.
//! - **Buffer caps and policers** drop packets. Dropped cross packets
//!   reduce load; a flow's own dropped packets are simply excluded
//!   from its check, while the EAT chain is still computed over the
//!   *full* injected sequence — later than the survivors' own chain,
//!   hence conservative.
//!
//! Every failure message ends with the scenario's replay line.

use crate::faults::{effective_delta_bits, hop_profile};
use crate::scenario::{other_lmax_at, DropKind, FlowSpec, Scenario, SourceKind, OBSERVED_FLOW};
use crate::soak::drop_policy_of;
use analysis::{e2e_delay_bound, max_e2e_violation, sfq_delay_term, sfq_fairness_bound};
use des::SimRng;
use graph::{GraphReport, GraphSpec, PortSpec, TokenBucket};
use sfq_core::{FlowId, Scheduler, Sfq, TieBreak};
use sfq_engine::EngineConfig;
use sfq_obs::FlowMetrics;
use simtime::{Bytes, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Domain separator for the engine config drawn for the engine-port leg,
/// so it never correlates with the scenario's own generation stream.
const GRAPH_CFG_DOMAIN: u64 = 0x6A4F_0C49;

/// Everything one graph conformance run produced.
#[derive(Debug)]
pub struct GraphOutcome {
    /// Replay line reproducing the run.
    pub replay: String,
    /// Ports in the chain.
    pub hops: usize,
    /// Observed packets injected.
    pub injected: usize,
    /// Observed packets delivered end to end.
    pub completed: usize,
    /// Flows whose path was checked against Theorem 6.
    pub checked_paths: usize,
    /// Worst Theorem 6 violation across all paths (zero = conforms).
    pub theorem6_violation: SimDuration,
    /// Corollary 1 violation for the observed flow (zero = conforms).
    pub corollary1_violation: SimDuration,
    /// Corollary 1 closed-form bound.
    pub corollary1_bound: SimDuration,
    /// Largest observed end-to-end delay of the observed flow.
    pub max_delay: SimDuration,
    /// Packets killed by ingress policers (oracle run).
    pub policer_dropped: u64,
    /// Packets shed at port buffers (oracle run, switch books).
    pub buffer_dropped: u64,
    /// Packets discarded or refused by churn (oracle run).
    pub churn_discarded: u64,
}

/// The per-flow injection node map: policed flows enter at their
/// policer, everything else at its entry port.
type InjectMap = BTreeMap<u32, usize>;

/// Build the scenario's chain spec plus the injection map: port `h`
/// schedules the flows whose path covers hop `h`, under the
/// scenario's droop-faulted link profile, caps and drop policy. With
/// `police`, cross flows with even ids get a `(σ = 3·l^max, ρ =
/// weight)` GCRA contract at a policer in front of their entry port —
/// generous enough that CBR conforms, tight enough that Poisson bursts
/// shed.
pub(crate) fn chain_spec(
    sc: &Scenario,
    run_horizon: SimTime,
    police: bool,
) -> (GraphSpec, InjectMap) {
    let mut ports = Vec::with_capacity(sc.hops);
    for h in 0..sc.hops {
        let flows = sc
            .flows
            .iter()
            .filter(|f| f.entry <= h && h <= f.exit)
            .map(|f| (FlowId(f.id), f.weight()))
            .collect();
        let mut ps = PortSpec::new(hop_profile(sc, h, run_horizon), flows);
        ps.per_flow_cap = sc.per_flow_cap;
        ps.shared_cap = sc.shared_cap;
        ps.policy = drop_policy_of(sc.drop_policy);
        ports.push(ps);
    }
    let exits: Vec<(FlowId, usize)> = sc.flows.iter().map(|f| (FlowId(f.id), f.exit)).collect();
    let mut spec = GraphSpec::chain(ports, &exits, sc.prop());

    let mut inject: InjectMap = sc.flows.iter().map(|f| (f.id, f.entry)).collect();
    let mut by_entry: BTreeMap<usize, Vec<(FlowId, TokenBucket)>> = BTreeMap::new();
    for f in sc
        .flows
        .iter()
        .filter(|f| police && f.id != OBSERVED_FLOW.0 && f.id % 2 == 0)
    {
        by_entry.entry(f.entry).or_default().push((
            FlowId(f.id),
            TokenBucket {
                sigma: Bytes::new(3 * f.size.max_bytes()),
                rho: f.weight(),
            },
        ));
    }
    for (entry, rules) in by_entry {
        let node = spec.add_policer(entry, rules.clone());
        for (flow, _) in rules {
            inject.insert(flow.0, node);
        }
    }
    (spec, inject)
}

/// Materialize and run the spec once. Sources are added in flow-spec
/// order, so packet uids are identical across every build of the same
/// scenario.
pub(crate) fn run_once(
    sc: &Scenario,
    spec: &GraphSpec,
    inject: &InjectMap,
    mk: &mut dyn FnMut(usize) -> Box<dyn Scheduler>,
    run_horizon: SimTime,
) -> GraphReport {
    let mut g = spec.build_with(mk);
    for f in &sc.flows {
        let arrivals = sc.arrivals_for(f);
        g.add_source(inject[&f.id], FlowId(f.id), &arrivals);
    }
    for c in &sc.churns {
        let path = sc.flow(FlowId(c.flow)).expect("churned flow has a spec");
        for h in path.entry..=path.exit {
            g.schedule_churn(h, FlowId(c.flow), SimTime::from_millis(c.at_ms as i128));
        }
    }
    g.run(run_horizon)
}

/// Per-hop effective δ (bits) under the scenario's droop schedule —
/// what keeps every flow's β terms theorems on faulted hops.
pub(crate) fn hop_deltas(sc: &Scenario, run_horizon: SimTime) -> Vec<u64> {
    (0..sc.hops)
        .map(|h| effective_delta_bits(sc, &hop_profile(sc, h, run_horizon), run_horizon))
        .collect()
}

/// One flow's path checked against Theorem 6 and Corollary 1.
pub(crate) struct PathCheck {
    /// Packets the flow injected.
    pub injected: usize,
    /// Its delivered packets as `(uid, injection time, length,
    /// last-hop departure)`, in injection order.
    pub done: Vec<(u64, SimTime, Bytes, SimTime)>,
    /// Composed delay term `Σ_n β^n + Σ τ` over the flow's path.
    pub term: SimDuration,
    /// Worst Theorem 6 violation over delivered packets (zero =
    /// conforms).
    pub theorem6_violation: SimDuration,
    /// Corollary 1 closed-form bound, reading the flow as (σ, ρ)-shaped
    /// (σ = the source's burst for `ShapedPoisson`, one packet
    /// otherwise — only meaningful for conforming sources).
    pub corollary1_bound: SimDuration,
    /// Largest end-to-end delay among delivered packets.
    pub max_delay: SimDuration,
    /// Worst excess of a delay over the Corollary 1 bound.
    pub corollary1_violation: SimDuration,
}

/// The Theorem 6 / Corollary 1 evaluation routine, shared by the tandem
/// and graph runners: flow `f`'s delivered transits in `report` (a run
/// of [`chain_spec`]) against the bounds composed from the per-hop
/// Theorem 4 terms β with the faulted `deltas`. Departure = last-hop
/// transmission completion (the wires into the exit classifier and the
/// sink are zero-delay). Theorem 6's EAT chain runs over the *full*
/// injected script with the survivors embedded by
/// [`embed_survivors`].
pub(crate) fn check_path(
    sc: &Scenario,
    report: &GraphReport,
    deltas: &[u64],
    f: &FlowSpec,
) -> PathCheck {
    let full = sc.arrivals_for(f);
    let mut done: Vec<(u64, SimTime, Bytes, SimTime)> = report
        .transits
        .iter()
        .filter(|t| t.pkt.flow == FlowId(f.id) && t.delivered.is_some())
        .map(|t| {
            let (_, dep) = *t.port_departures.last().expect("delivered => transmitted");
            (t.pkt.uid, t.pkt.arrival, t.pkt.len, dep)
        })
        .collect();
    done.sort_by_key(|&(uid, arr, _, _)| (arr, uid));
    let betas: Vec<SimDuration> = (f.entry..=f.exit)
        .map(|h| {
            sfq_delay_term(
                &other_lmax_at(sc, h, FlowId(f.id)),
                f.max_len(),
                sc.link(),
                deltas[h],
            )
        })
        .collect();
    let props = vec![sc.prop(); f.exit - f.entry];
    let term = betas
        .iter()
        .chain(&props)
        .fold(SimDuration::ZERO, |acc, &d| acc + d);
    let theorem6_violation = max_e2e_violation(&embed_survivors(&full, &done), f.weight(), term);

    let sigma_pkts = match f.source {
        SourceKind::ShapedPoisson { sigma_pkts } => sigma_pkts as u64,
        _ => 1,
    };
    let corollary1_bound = e2e_delay_bound(
        sigma_pkts * f.max_len().bits(),
        f.weight(),
        f.max_len(),
        &betas,
        &props,
    );
    let max_delay = done
        .iter()
        .map(|&(_, arr, _, dep)| dep - arr)
        .fold(SimDuration::ZERO, SimDuration::max);
    let corollary1_violation = if max_delay > corollary1_bound {
        max_delay - corollary1_bound
    } else {
        SimDuration::ZERO
    };
    PathCheck {
        injected: full.len(),
        done,
        term,
        theorem6_violation,
        corollary1_bound,
        max_delay,
        corollary1_violation,
    }
}

/// Embed a run's completed transits back into the full injected script,
/// producing the `(arrival, len, departure)` triples
/// [`analysis::max_e2e_violation`] consumes.
///
/// `done` must be the survivors sorted by `(arrival, uid)` — a
/// subsequence of the injected order, since drops only delete entries.
/// Non-survivors get `dep := arrival`, which trivially conforms
/// (`EAT >= arrival`, so `arrival <= EAT + term` always). Survivors are
/// matched from the *end*, so each takes the latest admissible slot:
/// among duplicate `(arrival, len)` entries with dropped siblings this
/// yields the largest EAT, keeping the check conservative rather than
/// strict. Panics if a survivor cannot be matched against the script.
pub fn embed_survivors(
    full: &[(SimTime, Bytes)],
    done: &[(u64, SimTime, Bytes, SimTime)],
) -> Vec<(SimTime, Bytes, SimTime)> {
    let mut triples: Vec<(SimTime, Bytes, SimTime)> =
        full.iter().map(|&(arr, len)| (arr, len, arr)).collect();
    let mut j = done.len();
    for i in (0..full.len()).rev() {
        if j == 0 {
            break;
        }
        let (arr, len) = full[i];
        let (_, a, l, dep) = done[j - 1];
        if a == arr && l == len {
            triples[i].2 = dep;
            j -= 1;
        }
    }
    // All survivors must have been matched against the injected script.
    assert_eq!(j, 0, "transit not present in injected script");
    triples
}

/// Run the full graph conformance check for a [`Preset::Graph`]
/// scenario. `Err` carries a human-readable reason ending with the
/// replay line.
pub fn run_graph_conformance(sc: &Scenario) -> Result<GraphOutcome, String> {
    let replay = sc.replay_line();
    let fail = |msg: String| format!("{msg}\n  {replay}");
    let run_horizon = sc.horizon() + SimDuration::from_secs(10);
    let (spec, inject) = chain_spec(sc, run_horizon, true);

    // --- Oracle run: bare Sfq ports with live FlowMetrics. ---
    let mut metrics: Vec<Rc<RefCell<FlowMetrics>>> = Vec::new();
    let report = run_once(
        sc,
        &spec,
        &inject,
        &mut |_ordinal| {
            let m = Rc::new(RefCell::new(FlowMetrics::new()));
            metrics.push(Rc::clone(&m));
            Box::new(Sfq::with_observer(TieBreak::Fifo, m))
        },
        run_horizon,
    );
    assert_eq!(metrics.len(), sc.hops, "one metrics observer per port");

    if !report.audit.balanced() {
        return Err(fail(format!(
            "oracle run arena books unbalanced: {:?}",
            report.audit
        )));
    }
    if report.unrouted != 0 {
        return Err(fail(format!(
            "{} packets had no route in a fully-wired chain",
            report.unrouted
        )));
    }

    // --- Theorem 6 along every flow's path, Corollary 1 for the
    // shaped observed flow. ---
    let deltas = hop_deltas(sc, run_horizon);
    let mut theorem6_violation = SimDuration::ZERO;
    let mut observed = None;
    for f in &sc.flows {
        let path = check_path(sc, &report, &deltas, f);
        theorem6_violation = theorem6_violation.max(path.theorem6_violation);
        if f.id == OBSERVED_FLOW.0 {
            observed = Some(path);
        }
    }
    if theorem6_violation > SimDuration::ZERO {
        return Err(fail(format!(
            "Theorem 6 violated by {theorem6_violation:?} on a {}-hop graph path",
            sc.hops
        )));
    }
    let observed = observed.expect("scenario has an observed flow");
    let (corollary1_violation, corollary1_bound) =
        (observed.corollary1_violation, observed.corollary1_bound);
    if corollary1_violation > SimDuration::ZERO {
        return Err(fail(format!(
            "Corollary 1 violated by {corollary1_violation:?} (bound {corollary1_bound:?})"
        )));
    }
    if observed.done.is_empty() {
        return Err(fail("no observed packets delivered end to end".into()));
    }

    // --- Theorem 1 fairness at every port, via the live FlowMetrics
    // watermarks. Only under tail-drop: head-drop/LWP evictions keep
    // the evicted spans charged to their flows, intentionally
    // sacrificing delivered-service fairness (see docs/robustness.md).
    if sc.drop_policy == DropKind::Tail {
        for (h, m) in metrics.iter().enumerate() {
            let m = m.borrow();
            let at_hop: Vec<_> = sc
                .flows
                .iter()
                .filter(|f| f.entry <= h && h <= f.exit)
                .collect();
            for (i, f) in at_hop.iter().enumerate() {
                for g in &at_hop[i + 1..] {
                    let Some(spread) = m.worst_spread_between(FlowId(f.id), FlowId(g.id)) else {
                        continue;
                    };
                    let bound =
                        sfq_fairness_bound(f.max_len(), f.weight(), g.max_len(), g.weight());
                    if spread > bound {
                        return Err(fail(format!(
                            "Theorem 1 violated at port {h} between flows {} and {}: \
                             spread {spread:?} > bound {bound:?}",
                            f.id, g.id
                        )));
                    }
                }
            }
        }
    }

    // --- Engine ports: every injected packet accounted for. ---
    let mut rng = SimRng::new(sc.seed).fork(GRAPH_CFG_DOMAIN);
    let shards = rng.uniform_range(2, 6) as usize;
    let ring = rng.uniform_range(12, 49) as usize;
    let cfg = EngineConfig::new(shards).ring_capacity(ring);
    let eng = run_once(
        sc,
        &spec,
        &inject,
        &mut |_| Box::new(sfq_engine::SyncEngine::new(cfg)),
        run_horizon,
    );
    let delivered: u64 = eng
        .sink_departures
        .iter()
        .map(|(_, d)| d.len() as u64)
        .sum();
    let refused: u64 = eng.port_refusals.iter().map(|(_, r)| r.len() as u64).sum();
    let churned = eng.churn_discarded + eng.churn_refused;
    let shed = eng.policer_dropped + refused + eng.evicted + churned;
    if !eng.audit.balanced()
        || eng.unrouted + eng.port_strays + eng.arena_refused != 0
        || delivered + shed != eng.transits.len() as u64
    {
        return Err(fail(format!(
            "engine-port build lost track of a packet (shards={shards} ring={ring}): \
             {} injected, {delivered} delivered, {} policed, {refused} refused, {} evicted, \
             {churned} churned, {} unrouted, {} stray, {} arena-refused, audit {:?}",
            eng.transits.len(),
            eng.policer_dropped,
            eng.evicted,
            eng.unrouted,
            eng.port_strays,
            eng.arena_refused,
            eng.audit
        )));
    }

    let buffer_dropped: u64 = report.port_drops.iter().map(|&(_, n)| n).sum();
    Ok(GraphOutcome {
        replay,
        hops: sc.hops,
        injected: observed.injected,
        completed: observed.done.len(),
        checked_paths: sc.flows.len(),
        theorem6_violation,
        corollary1_violation,
        corollary1_bound,
        max_delay: observed.max_delay,
        policer_dropped: report.policer_dropped,
        buffer_dropped,
        churn_discarded: report.churn_discarded + report.churn_refused,
    })
}

/// Build the scenario's spec and run it once on bare-Sfq ports,
/// returning the raw report — the hook `tests/graph_pool.rs` and the
/// nightly soak use for book-keeping checks without re-deriving the
/// topology.
pub fn run_graph_oracle(sc: &Scenario) -> GraphReport {
    let run_horizon = sc.horizon() + SimDuration::from_secs(10);
    let (spec, inject) = chain_spec(sc, run_horizon, true);
    run_once(
        sc,
        &spec,
        &inject,
        &mut |_| Box::new(Sfq::new()),
        run_horizon,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn graph_preset_passes_all_checks() {
        for seed in [1u64, 2, 3] {
            let sc = Scenario::from_seed(Preset::Graph, seed);
            let out = run_graph_conformance(&sc).unwrap_or_else(|e| panic!("{e}"));
            assert!(out.completed > 0);
            assert!(out.checked_paths >= 2, "observed + cross paths checked");
            assert_eq!(out.theorem6_violation, SimDuration::ZERO);
        }
    }

    #[test]
    fn policers_actually_shed_nonconforming_cross_traffic() {
        // Some seed in a small window must produce a policed Poisson
        // cross flow that exceeds its bucket.
        let shed: u64 = (0..12u64)
            .map(|s| run_graph_oracle(&Scenario::from_seed(Preset::Graph, s)).policer_dropped)
            .sum();
        assert!(shed > 0, "no policer ever dropped across 12 seeds");
    }
}
