//! Chaos conformance: live reconfiguration and shard-failure recovery.
//!
//! A [`Preset::Chaos`](crate::scenario::Preset::Chaos) scenario fixes
//! the flow population; this module derives an *operational* schedule —
//! ingest chunks, pumps, partial drains, `SetWeight` reconfigurations,
//! and injected worker kills — from the same seed under
//! [`CHAOS_DOMAIN`], and checks three properties in one run:
//!
//! 1. **Reconfig-only identity.** With kills stripped, the schedule is
//!    replayed against `SyncEngine` (oracle) and `ThreadedEngine`:
//!    departures and refusals must be bit-identical. Additionally, the
//!    same schedule with every `SetWeight` made a *no-op* (the flow's
//!    current weight) must be bit-identical to an *unreconfigured*
//!    oracle on both drivers — the tag-rewrite rule's fixed-point
//!    property: rewriting a backlogged chain at its own rate reproduces
//!    every tag exactly, because Eq. 4's max resolves to the flow term
//!    (`S_j = F_{j-1}`) while the flow stays backlogged (see
//!    `docs/robustness.md`).
//! 2. **Conservation and liveness under kills.** The full schedule
//!    (reconfigs + seeded worker kills mid-backlog) runs on a
//!    `ThreadedEngine` under a seed-chosen [`RecoveryPolicy`]. At the
//!    drained end: no global stall (`pending == 0`), and exact packet
//!    conservation — `offered == departures + refusals +
//!    RecoveryStats::dropped` — including one post-recovery probe per
//!    flow, which under `Restart` must *depart* (the rebuilt shard
//!    serves its flows again).
//! 3. **Fairness reconvergence.** A two-flow leaf `Sfq` with
//!    `FlowMetrics` attached takes a mid-backlog weight change; after
//!    the settling window (one old-rate head packet per flow — the only
//!    tags the rewrite preserves), a fresh watermark window must come
//!    back under the Theorem 1 bound at the *new* weights.
//!
//! Every failure message ends with the scenario's replay line
//! (`preset=chaos seed=N`), so any fuzz hit reproduces from the log.

use crate::engine::{
    diff, flows_of, kill_worker, mint_packets, no_kills, replay, seeded_config, with_kills, Op,
    Trace,
};
use crate::scenario::Scenario;
use analysis::sfq_fairness_bound;
use des::SimRng;
use sfq_core::{FlowId, Packet, PacketFactory, ReconfigCmd, SchedError, Scheduler, Sfq, TieBreak};
use sfq_engine::{Engine, RecoveryPolicy, ShardLink, SyncEngine, ThreadedEngine};
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
    /// Shards each engine ran.
    pub shards: usize,
    /// Packets offered per replay (excluding post-recovery probes).
    pub offered: usize,
    /// `SetWeight` reconfigurations in the schedule.
    pub reconfigs: usize,
    /// Worker kills injected in the chaos leg.
    pub kills: usize,
    /// Departures of the real-reconfiguration identity leg (identical
    /// on both drivers by construction — or the run failed).
    pub departures: usize,
    /// Ingest refusals of the identity leg.
    pub refusals: usize,
    /// Recovery policy the chaos leg ran under.
    pub policy: RecoveryPolicy,
    /// Departures of the chaos (kill) leg, probes included.
    pub chaos_departures: usize,
    /// Packets the supervisor recorded as lost to dead workers.
    pub chaos_dropped: u64,
    /// Worker deaths detected and recovered from.
    pub recoveries: u64,
    /// Post-reconfiguration fairness spread of the reconvergence leg.
    pub recovery_spread: Ratio,
    /// The Theorem 1 bound at the new weights.
    pub fairness_bound: Ratio,
}

/// Replay the schedule on one engine with its `SetWeight`s treated per
/// `mode`. A reconfiguration refused because the flow's shard is down
/// (degraded chaos leg) is expected; any other control error fails.
fn replay_mode<L: ShardLink>(
    eng: &mut Engine<L>,
    sc: &Scenario,
    packets: &[Packet],
    ops: &[Op],
    mode: WeightMode,
    kill: &mut dyn FnMut(&mut Engine<L>, usize),
) -> Result<Trace, String> {
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
    let tr = replay(
        eng,
        &flows_of(sc),
        packets,
        &ops,
        sc.horizon(),
        kill,
        &mut || Ok(()),
    )?;
    tr.expect_no_control_errors(&ops)?;
    Ok(tr)
}

/// Run the full chaos conformance for a scenario. `Ok` carries run
/// statistics; `Err` is a human-readable report ending in the replay
/// line.
pub fn run_chaos_conformance(sc: &Scenario) -> Result<ChaosOutcome, String> {
    let fail = |msg: String| -> String { format!("{msg}\n  {}", sc.replay_line()) };
    let mut rng = SimRng::new(sc.seed ^ CHAOS_DOMAIN);
    let cfg = seeded_config(&mut rng);
    let shards = cfg.shards;
    let (packets, mut fac) = mint_packets(sc);
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

    // Kill-augmented copy of the schedule for the chaos leg.
    let (chaos_ops, policy, kills) = with_kills(&ops, shards, &mut rng);

    // --- Leg 1a: no-op reconfigurations are bit-identical to the
    // unreconfigured oracle, on both drivers.
    let sync = |mode| {
        replay_mode(
            &mut SyncEngine::new(cfg),
            sc,
            &packets,
            &ops,
            mode,
            &mut no_kills,
        )
    };
    let threaded = |mode| {
        replay_mode(
            &mut ThreadedEngine::new(cfg),
            sc,
            &packets,
            &ops,
            mode,
            &mut no_kills,
        )
    };
    let plain = sync(WeightMode::Strip).map_err(|e| fail(format!("unreconfigured oracle: {e}")))?;
    for (name, noop) in [
        ("sync", sync(WeightMode::Noop)),
        ("threaded", threaded(WeightMode::Noop)),
    ] {
        let noop = noop.map_err(|e| fail(format!("no-op {name} replay: {e}")))?;
        if noop.departures != plain.departures || noop.refused != plain.refused {
            let at = (noop.departures.iter().zip(&plain.departures)).position(|(a, b)| a != b);
            return Err(fail(format!(
                "no-op reconfiguration schedule diverged from the unreconfigured \
                 oracle on the {name} driver (first differing departure index {at:?}, \
                 refusals {} vs {}) — the tag rewrite is not a \
                 fixed point at the current weight",
                noop.refused.len(),
                plain.refused.len()
            )));
        }
    }

    // --- Leg 1b: real reconfigurations, sync vs threaded identity.
    let oracle = sync(WeightMode::Real).map_err(|e| fail(format!("reconfigured oracle: {e}")))?;
    let thr = threaded(WeightMode::Real)
        .map_err(|e| fail(format!("reconfigured threaded replay: {e}")))?;
    diff(&oracle, &thr).map_err(|e| {
        fail(format!(
            "reconfigured schedule diverged between drivers: {e}"
        ))
    })?;
    let (departures, sync_ref) = (oracle.departures.len(), oracle.refused.len());
    if departures + sync_ref != offered {
        return Err(fail(format!(
            "identity-leg conservation broken: {offered} offered != {departures} \
             departed + {sync_ref} refused"
        )));
    }

    // --- Leg 2: worker kills under the seeded recovery policy.
    let mut eng = ThreadedEngine::new(cfg.recovery(policy));
    let chaos = replay_mode(
        &mut eng,
        sc,
        &packets,
        &chaos_ops,
        WeightMode::Real,
        &mut kill_worker,
    )
    .map_err(|e| fail(format!("chaos replay ({policy:?}): {e}")))?;
    // Post-recovery probes: one fresh packet per flow. Under `Restart`
    // every shard is alive again, so every probe must depart; degraded
    // policies may refuse (parked flow) or drop (a kill detected by the
    // probe's own drain), but never strand a packet.
    let end = sc.horizon();
    let mut probe_refused = 0usize;
    let mut probes_in = 0usize;
    for f in &sc.flows {
        let p = fac.make(FlowId(f.id), f.max_len(), end);
        match eng.try_ingest(p) {
            Ok(()) => probes_in += 1,
            Err(SchedError::ShardDown(_)) => probe_refused += 1,
            Err(e) => return Err(fail(format!("probe ingest of flow {} failed: {e}", f.id))),
        }
    }
    let mut probe_out: Vec<Packet> = Vec::new();
    let mut guard = 0;
    while eng.pending() > 0 {
        let mut out = Vec::new();
        eng.drain(end, 4096, &mut out)
            .map_err(|e| fail(format!("probe drain failed: {e}")))?;
        probe_out.extend(out);
        guard += 1;
        if guard > probes_in + 16 {
            return Err(fail(format!(
                "probe drain stalled with {} pending ({policy:?})",
                eng.pending()
            )));
        }
    }
    let stats = eng.recovery_stats();
    if policy == RecoveryPolicy::Restart && (probe_out.len() != probes_in || probe_refused != 0) {
        return Err(fail(format!(
            "restart policy did not restore service: {} of {probes_in} probes \
             departed, {probe_refused} refused",
            probe_out.len()
        )));
    }
    // Conservation over the whole chaos leg, probes included: every
    // offered packet either departed, was refused at ingest, or is in
    // the supervisor's drop ledger. Anything else is a leak.
    let total_offered = offered + sc.flows.len();
    let total_departed = chaos.departures.len() + probe_out.len();
    let total_refused = chaos.refused.len() + probe_refused;
    if total_departed + total_refused + stats.dropped as usize != total_offered {
        return Err(fail(format!(
            "chaos conservation broken ({policy:?}, {kills} kills): {total_offered} \
             offered != {total_departed} departed + {total_refused} refused + {} dropped",
            stats.dropped
        )));
    }

    // --- Leg 3: fairness reconvergence after a mid-backlog weight
    // change on a leaf scheduler with metrics attached.
    let (recovery_spread, fairness_bound) = reconvergence_leg(&mut rng).map_err(fail)?;

    Ok(ChaosOutcome {
        shards,
        offered,
        reconfigs,
        kills,
        departures,
        refusals: sync_ref,
        policy,
        chaos_departures: total_departed,
        chaos_dropped: stats.dropped,
        recoveries: stats.recoveries,
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
            assert!(out.kills > 0);
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
