//! Chaos conformance: live reconfiguration.
//!
//! A [`Preset::Chaos`](crate::scenario::Preset::Chaos) scenario fixes
//! the flow population; this module derives an *operational* schedule —
//! ingest chunks, pumps, partial drains and `SetWeight`
//! reconfigurations — from the same seed under [`CHAOS_DOMAIN`], and
//! checks three properties in one run:
//!
//! 1. **A no-op reconfiguration is a fixed point.** The schedule with
//!    every `SetWeight` made a *no-op* (the flow's current weight) must
//!    be bit-identical on `SyncEngine` to the schedule with the
//!    reconfigurations stripped — the tag-rewrite rule's fixed-point
//!    property: rewriting a backlogged chain at its own rate reproduces
//!    every tag exactly, because Eq. 4's max resolves to the flow term
//!    (`S_j = F_{j-1}`) while the flow stays backlogged (see
//!    `docs/robustness.md`).
//! 2. **Reconfigured runs keep their books.** The schedule with the
//!    real weight changes drains without stalling, every
//!    reconfiguration is accepted, every offered packet departs or was
//!    refused at ingest, and each flow departs in FIFO order.
//! 3. **Fairness reconvergence.** A two-flow leaf `Sfq` with
//!    `FlowMetrics` attached takes a mid-backlog weight change; after
//!    the settling window (one old-rate head packet per flow — the only
//!    tags the rewrite preserves), a fresh watermark window must come
//!    back under the Theorem 1 bound at the *new* weights.
//!
//! Every failure message ends with the scenario's replay line
//! (`preset=chaos seed=N`), so any fuzz hit reproduces from the log.

use crate::engine::{diff, flows_of, mint_packets, replay, seeded_config, Op, Trace};
use crate::scenario::Scenario;
use analysis::sfq_fairness_bound;
use des::SimRng;
use sfq_core::{FlowId, PacketFactory, ReconfigCmd, Scheduler, Sfq, TieBreak};
use sfq_engine::SyncEngine;
use sfq_obs::FlowMetrics;
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Domain separator for the chaos operational schedule, distinct from
/// the scenario-generation, arrival, and engine-schedule streams of the
/// same seed.
pub const CHAOS_DOMAIN: u64 = 0xC4A0_50C4;

/// How a replay treats the schedule's `SetWeight` reconfigurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WeightMode {
    /// Skip them entirely (the unreconfigured oracle).
    Strip,
    /// Apply them at the flow's current weight (the no-op schedule).
    Noop,
    /// Apply the real weight changes.
    Real,
}

/// Statistics of a passing chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOutcome {
    /// Shards the engine ran.
    pub shards: usize,
    /// Packets offered per replay.
    pub offered: usize,
    /// `SetWeight` reconfigurations in the schedule.
    pub reconfigs: usize,
    /// Departures of the real-reconfiguration leg.
    pub departures: usize,
    /// Ingest refusals of the real-reconfiguration leg.
    pub refusals: usize,
    /// Post-reconfiguration fairness spread of the reconvergence leg.
    pub recovery_spread: Ratio,
    /// The Theorem 1 bound at the new weights.
    pub fairness_bound: Ratio,
}

/// Run the full chaos conformance for a scenario. `Ok` carries run
/// statistics; `Err` is a human-readable report ending in the replay
/// line.
pub fn run_chaos_conformance(sc: &Scenario) -> Result<ChaosOutcome, String> {
    let fail = |msg: String| -> String { format!("{msg}\n  {}", sc.replay_line()) };
    let mut rng = SimRng::new(sc.seed ^ CHAOS_DOMAIN);
    let cfg = seeded_config(&mut rng);
    let (packets, _) = mint_packets(sc);
    let offered = packets.len();

    // Derive the operational schedule: ingest chunks interleaved with
    // pumps, partial drains, and weight reconfigurations. The real
    // target weight scales the original by 0.5x..2x (never zero), so
    // every reconfiguration is a legal Eq. 36 rate.
    let mut ops: Vec<Op> = Vec::new();
    let mut reconfigs = 0;
    let mut i = 0;
    while i < offered {
        let chunk = rng.uniform_range(1, 65) as usize;
        let end = (i + chunk).min(offered);
        ops.push(Op::Ingest(i, end));
        i = end;
        match rng.uniform_range(0, 6) {
            0 => ops.push(Op::Pump),
            1 | 2 => ops.push(Op::Drain(rng.uniform_range(1, 129) as usize)),
            3 => {
                let f = &sc.flows[rng.uniform_range(0, sc.flows.len() as u64) as usize];
                let real = Rate::bps((f.weight_bps * rng.uniform_range(1, 5) / 2).max(4_000));
                ops.push(Op::Reconfig(ReconfigCmd::SetWeight(FlowId(f.id), real)));
                reconfigs += 1;
            }
            _ => {} // let backlog build
        }
    }

    // Replay the schedule with its `SetWeight`s treated per `mode`; a
    // refused reconfiguration or unbalanced books fail the replay.
    let run = |mode: WeightMode| -> Result<Trace, String> {
        let ops: Vec<Op> = ops
            .iter()
            .filter_map(|&op| match (op, mode) {
                (Op::Reconfig(_), WeightMode::Strip) => None,
                (Op::Reconfig(ReconfigCmd::SetWeight(flow, _)), WeightMode::Noop) => {
                    let current = sc.flows.iter().find(|f| f.id == flow.0)?.weight();
                    Some(Op::Reconfig(ReconfigCmd::SetWeight(flow, current)))
                }
                _ => Some(op),
            })
            .collect();
        let mut eng = SyncEngine::new(cfg);
        let (flows, end) = (flows_of(sc), sc.horizon());
        let tr = replay(&mut eng, &flows, &packets, &ops, end, &mut || Ok(()))?;
        tr.expect_no_control_errors()?;
        tr.check_books(&packets)?;
        Ok(tr)
    };

    // --- Leg 1: no-op reconfigurations are bit-identical to the
    // unreconfigured oracle.
    let plain = run(WeightMode::Strip).map_err(|e| fail(format!("unreconfigured oracle: {e}")))?;
    let noop = run(WeightMode::Noop).map_err(|e| fail(format!("no-op replay: {e}")))?;
    diff(&plain, &noop).map_err(|e| {
        fail(format!(
            "no-op reconfiguration schedule diverged from the unreconfigured oracle \
             ({e}) — the tag rewrite is not a fixed point at the current weight"
        ))
    })?;

    // --- Leg 2: real reconfigurations keep the books.
    let real = run(WeightMode::Real).map_err(|e| fail(format!("reconfigured replay: {e}")))?;

    // --- Leg 3: fairness reconvergence after a mid-backlog weight
    // change on a leaf scheduler with metrics attached.
    let (recovery_spread, fairness_bound) = reconvergence_leg(&mut rng).map_err(fail)?;

    Ok(ChaosOutcome {
        shards: cfg.shards,
        offered,
        reconfigs,
        departures: real.departures.len(),
        refusals: real.refused.len(),
        recovery_spread,
        fairness_bound,
    })
}

/// Two flows, both continuously backlogged, take a mid-run weight
/// change; after the settling window a fresh watermark window must obey
/// Theorem 1 at the new weights. Returns `(spread, bound)`.
///
/// The settling window is exact, not heuristic: the tag rewrite leaves
/// only each flow's *head* packet carrying old-rate tags (the head
/// keeps its finish tag so the heap entry stays valid), so the schedule
/// is fully re-converged once one packet per flow has departed — at
/// most `Σ_f l^max_f / C` of service. The leg serves four packets
/// before opening the window, twice that bound.
fn reconvergence_leg(rng: &mut SimRng) -> Result<(Ratio, Ratio), String> {
    let metrics = Rc::new(RefCell::new(FlowMetrics::new()));
    let mut sfq = Sfq::with_observer(TieBreak::Fifo, Rc::clone(&metrics));
    let (f1, f2) = (FlowId(1), FlowId(2));
    let (l1, l2) = (
        Bytes::new(rng.uniform_range(200, 1_001)),
        Bytes::new(rng.uniform_range(200, 1_001)),
    );
    let w1 = Rate::bps(1_000 * rng.uniform_range(8, 65));
    let w2 = Rate::bps(1_000 * rng.uniform_range(8, 65));
    sfq.add_flow(f1, w1);
    sfq.add_flow(f2, w2);

    // Deep standing backlogs so both flows stay backlogged through the
    // change, the settling window, and the measurement window — 120
    // each covers the worst case where the post-change weight ratio
    // steers nearly all 94 dequeues to one flow.
    let mut fac = PacketFactory::new();
    let t = SimTime::ZERO;
    for _ in 0..120 {
        sfq.enqueue(t, fac.make(f1, l1, t));
        sfq.enqueue(t, fac.make(f2, l2, t));
    }
    for _ in 0..10 {
        sfq.dequeue(t);
    }
    // The reconfiguration: both flows change rate mid-backlog.
    let w1n = Rate::bps(w1.as_bps() * rng.uniform_range(1, 5) / 2).max(Rate::bps(4_000));
    let w2n = Rate::bps(w2.as_bps() * rng.uniform_range(1, 5) / 2).max(Rate::bps(4_000));
    sfq.try_set_weight(f1, w1n)
        .map_err(|e| format!("reconvergence SetWeight(f1) failed: {e}"))?;
    sfq.try_set_weight(f2, w2n)
        .map_err(|e| format!("reconvergence SetWeight(f2) failed: {e}"))?;
    // Settling: serve past the old-rate heads (one per flow; four
    // dequeues is twice the bound).
    for _ in 0..4 {
        sfq.dequeue(t);
    }
    // Fresh watermark window at the new weights (the soak pattern:
    // reset the metrics, refresh the registered weights so normalized
    // service uses the post-change rates).
    *metrics.borrow_mut() = FlowMetrics::new();
    sfq.add_flow(f1, w1n);
    sfq.add_flow(f2, w2n);
    for _ in 0..80 {
        sfq.dequeue(t);
    }
    debug_assert!(sfq.backlog(f1) > 0 && sfq.backlog(f2) > 0);
    let spread = metrics
        .borrow()
        .worst_spread_between(f1, f2)
        .unwrap_or(Ratio::ZERO);
    let bound = sfq_fairness_bound(l1, w1n, l2, w2n);
    if spread > bound {
        return Err(format!(
            "fairness did not reconverge after the weight change: spread {spread:?} \
             > bound {bound:?} over the post-settling window"
        ));
    }
    Ok((spread, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn chaos_preset_passes_across_seeds() {
        for seed in 0..6u64 {
            let sc = Scenario::from_seed(Preset::Chaos, seed);
            let out =
                run_chaos_conformance(&sc).unwrap_or_else(|e| panic!("seed {seed} failed:\n{e}"));
            assert!(out.offered > 0, "seed {seed} generated an empty workload");
            assert_eq!(out.departures + out.refusals, out.offered);
            assert!(
                out.recovery_spread <= out.fairness_bound,
                "seed {seed}: reconvergence leg leaked through"
            );
        }
    }

    #[test]
    fn chaos_replay_line_round_trips() {
        let sc = Scenario::from_seed(Preset::Chaos, 11);
        assert!(sc.replay_line().contains("preset=chaos seed=11"));
        let back = Scenario::from_replay_line(&sc.replay_line()).expect("parse");
        assert_eq!(back.preset, Preset::Chaos);
        assert_eq!(format!("{back:?}"), format!("{sc:?}"));
    }
}
