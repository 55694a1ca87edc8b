//! Telemetry conformance: the counter pages against a driver-side
//! ledger, with the snapshot protocol exercised under live writers.
//!
//! A [`Preset::Telemetry`](crate::scenario::Preset::Telemetry) scenario
//! fixes the flow population; this module derives an operational
//! schedule — ingest chunks, pumps, partial drains, flow churn
//! (force-remove + revive), and injected worker kills — from the same
//! seed under [`TELEMETRY_DOMAIN`], and checks four properties in one
//! run:
//!
//! 1. **Snapshot-vs-ledger conservation.** Every replay keeps its own
//!    ledger (offered, refused, departed, force-dropped) on the driving
//!    thread. At the drained end the pages alone must reproduce it:
//!    `offered == departures + refusals + recovery_drops + force_drops
//!    + head_drops` as read *purely from the pages*
//!    ([`EngineSnapshot::conservation_gap`] is zero), with every
//!    individual ledger field bit-equal to its page counterpart and the
//!    engine page's recovery ledger equal to the supervisor's
//!    [`RecoveryStats`].
//! 2. **Torn-snapshot retry termination.** A snapshot is taken after
//!    *every* operation. The seqlock retry loop is terminating by
//!    construction — each attempt either returns a consistent copy or
//!    consumes one unit of the finite budget, so `snapshot(budget)`
//!    returns after at most `budget` attempts — and the conformance
//!    check is the stronger operational claim: under live worker
//!    writers every mid-run snapshot *succeeds* within
//!    [`SNAP_BUDGET`] attempts, and on the single-threaded sync driver
//!    (no concurrent writer exists) within exactly one. Successive
//!    snapshots must also be monotone field-by-field (counters are
//!    cumulative plain stores; a torn read shows up as a counter going
//!    backwards) and respect `enqueues <= offered - refused` and
//!    `resident >= 0` per shard page at every observation point.
//! 3. **Driver identity.** The kill-free schedule replayed on
//!    `SyncEngine` and `ThreadedEngine` must leave bit-identical pages
//!    — engine page, every shard page, and the folded totals — the
//!    telemetry extension of the engines' determinism contract.
//! 4. **Coherence under kills.** The same schedule with seeded worker
//!    kills woven in, under a seed-chosen [`RecoveryPolicy`], must
//!    still close the conservation identity at quiescence: generation
//!    bumps instead of page resets, salvaged ring residue booked as an
//!    enqueue exactly once, dead-scheduler backlog balanced by the
//!    engine page's `recovery_drops`.
//!
//! Every failure message ends with the scenario's replay line
//! (`preset=telemetry seed=N`), so any fuzz hit reproduces from the
//! log.

use crate::engine::{
    flows_of, kill_worker, mint_packets, no_kills, replay, seeded_config, with_kills, Op,
};
use crate::scenario::Scenario;
use des::SimRng;
use sfq_core::{FlowId, Packet, ReconfigCmd};
use sfq_engine::{Engine, RecoveryPolicy, ShardLink, SyncEngine, ThreadedEngine};
use sfq_telemetry::{Aggregator, EngineSnapshot, PageSnapshot};
use simtime::Rate;

/// Domain separator for the telemetry operational schedule, distinct
/// from the scenario-generation, arrival, and chaos streams of the same
/// seed.
pub const TELEMETRY_DOMAIN: u64 = 0x7E1E_3E7B;

/// Seqlock retry budget for snapshots taken while workers may be
/// writing. Any snapshot still torn after this many attempts is a
/// conformance failure, not a retry candidate — a worker pins a page's
/// epoch for the few plain stores of one record bracket, so a reader
/// that loses this many races has found a liveness bug.
pub const SNAP_BUDGET: usize = 1 << 16;

/// What the driving thread itself observed — the ground truth every
/// page total is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Ledger {
    offered: u64,
    refused: u64,
    departed: u64,
    force_drops: u64,
}

/// Statistics of a passing telemetry run.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOutcome {
    /// Shards each engine ran.
    pub shards: usize,
    /// Packets offered per replay.
    pub offered: usize,
    /// Force-remove operations in the schedule.
    pub removals: usize,
    /// Worker kills injected in the kill leg.
    pub kills: usize,
    /// Recovery policy the kill leg ran under.
    pub policy: RecoveryPolicy,
    /// Departures of the kill leg.
    pub departures: u64,
    /// Ingest refusals of the kill leg.
    pub refusals: u64,
    /// Packets the supervisor recorded as lost to dead workers.
    pub recovery_drops: u64,
    /// Mid-run snapshots taken across all three legs, each proven to
    /// terminate within its retry budget.
    pub snapshots: usize,
}

/// `true` when every cumulative counter of `cur` is at least its value
/// in `prev` — the invariant plain-store counters guarantee to any
/// consistent reader.
fn monotone(prev: &PageSnapshot, cur: &PageSnapshot) -> bool {
    prev.generation <= cur.generation
        && prev.enqueues <= cur.enqueues
        && prev.enq_bytes <= cur.enq_bytes
        && prev.dequeues <= cur.dequeues
        && prev.deq_bytes <= cur.deq_bytes
        && prev.head_drops <= cur.head_drops
        && prev.force_drops <= cur.force_drops
        && prev.force_removals <= cur.force_removals
        && prev.offered <= cur.offered
        && prev.recovery_drops <= cur.recovery_drops
        && prev.recovered <= cur.recovered
        && prev.refused.iter().zip(&cur.refused).all(|(a, b)| a <= b)
        && prev
            .class_bytes
            .iter()
            .zip(&cur.class_bytes)
            .all(|(a, b)| a <= b)
        && prev
            .delay_hist
            .iter()
            .zip(&cur.delay_hist)
            .all(|(a, b)| a <= b)
        && prev
            .backlog_hist
            .iter()
            .zip(&cur.backlog_hist)
            .all(|(a, b)| a <= b)
}

/// Invariants every *mid-run* snapshot must satisfy, writers live or
/// not. All ops are issued from the snapshotting thread, so `offered`
/// and `refused` are stable while the pages are read; only worker-side
/// counters (enqueues, dequeues, ...) may trail the coordinator's.
fn check_midrun(prev: &Option<EngineSnapshot>, cur: &EngineSnapshot) -> Result<(), String> {
    if let Some(p) = prev {
        if !monotone(&p.engine, &cur.engine) {
            return Err("engine page counters went backwards between snapshots".into());
        }
        for (i, (a, b)) in p.shards.iter().zip(&cur.shards).enumerate() {
            if !monotone(a, b) {
                return Err(format!("shard {i} page counters went backwards"));
            }
        }
    }
    // Each accepted packet is enqueued at most once across all shard
    // pages (salvaged ring residue was never enqueued pre-crash, so its
    // re-push is that packet's only enqueue).
    if cur.totals.enqueues + cur.engine.refused_total() > cur.engine.offered {
        return Err(format!(
            "accounting overshoot: {} enqueues + {} refusals > {} offered",
            cur.totals.enqueues,
            cur.engine.refused_total(),
            cur.engine.offered
        ));
    }
    for (i, s) in cur.shards.iter().enumerate() {
        if s.resident() < 0 {
            return Err(format!(
                "shard {i} page books more departures+drops than enqueues (resident {})",
                s.resident()
            ));
        }
    }
    Ok(())
}

/// The quiescent self-consistency of one folded snapshot: each
/// histogram was written in lockstep with its counter by the same
/// single writer, so at rest the sums must tie out exactly.
fn check_self_consistency(snap: &EngineSnapshot) -> Result<(), String> {
    let delays: u64 = snap.totals.delay_hist.iter().sum();
    if delays != snap.totals.dequeues {
        return Err(format!(
            "delay histogram holds {delays} samples but the pages book {} dequeues",
            snap.totals.dequeues
        ));
    }
    let backlogs: u64 = snap.totals.backlog_hist.iter().sum();
    if backlogs != snap.totals.enqueues {
        return Err(format!(
            "backlog histogram holds {backlogs} samples but the pages book {} enqueues",
            snap.totals.enqueues
        ));
    }
    let class: u64 = snap.totals.class_bytes.iter().sum();
    if class != snap.totals.deq_bytes {
        return Err(format!(
            "per-class service books {class} bytes but the pages book {} departed bytes",
            snap.totals.deq_bytes
        ));
    }
    Ok(())
}

/// Replay one schedule on one engine with pages attached, snapshotting
/// after every operation. Returns the final quiescent snapshot (already
/// checked against the driver-side ledger) and the snapshot count.
fn replay_pages<L: ShardLink>(
    mut eng: Engine<L>,
    sc: &Scenario,
    packets: &[Packet],
    ops: &[Op],
    mid_budget: usize,
    kill: &mut dyn FnMut(&mut Engine<L>, usize),
) -> Result<(Ledger, EngineSnapshot, usize), String> {
    let agg = Aggregator::new(eng.attach_telemetry());
    let mut prev: Option<EngineSnapshot> = None;
    let mut snapshots = 0usize;
    // The after-every-op snapshot: must land within the retry budget no
    // matter what the workers are doing right now.
    let mut snap_check = || {
        let snap = agg
            .snapshot(mid_budget)
            .map_err(|e| format!("mid-run {e} (budget {mid_budget}) — retry did not settle"))?;
        snapshots += 1;
        check_midrun(&prev, &snap).map_err(|e| format!("mid-run snapshot incoherent: {e}"))?;
        prev = Some(snap);
        Ok(())
    };
    let flows = flows_of(sc);
    let tr = replay(
        &mut eng,
        &flows,
        packets,
        ops,
        sc.horizon(),
        kill,
        &mut snap_check,
    )?;
    // Backpressure, a removed flow, or a parked shard refuse a packet and
    // conservation counts it; re-registering onto a parked shard is
    // refused too — the flow simply stays gone. Nothing else may fail.
    tr.expect_no_control_errors(ops)?;
    let ledger = Ledger {
        offered: packets.len() as u64,
        refused: tr.refused.len() as u64,
        departed: tr.departures.len() as u64,
        force_drops: tr.discarded as u64,
    };

    // The quiescent differential: pages alone must reproduce the
    // driver-side ledger and the supervisor's recovery books.
    let snap = agg
        .snapshot(mid_budget)
        .map_err(|e| format!("quiescent {e}"))?;
    snapshots += 1;
    check_midrun(&prev, &snap).map_err(|e| format!("final snapshot incoherent: {e}"))?;
    let stats = eng.recovery_stats();
    let (recovered, dropped) = (stats.recovered, stats.dropped);
    if snap.engine.offered != ledger.offered || snap.engine.refused_total() != ledger.refused {
        return Err(format!(
            "arrival books diverge from the ledger: pages say {} offered / {} refused, \
             driver saw {} / {}",
            snap.engine.offered,
            snap.engine.refused_total(),
            ledger.offered,
            ledger.refused
        ));
    }
    if snap.totals.dequeues != ledger.departed {
        return Err(format!(
            "pages book {} dequeues but the driver drained {} packets",
            snap.totals.dequeues, ledger.departed
        ));
    }
    if snap.totals.force_drops != ledger.force_drops {
        return Err(format!(
            "pages book {} force-drops but force-remove returned {}",
            snap.totals.force_drops, ledger.force_drops
        ));
    }
    if snap.engine.recovered != recovered || snap.engine.recovery_drops != dropped {
        return Err(format!(
            "engine page recovery ledger ({} recovered / {} dropped) diverges from \
             RecoveryStats ({recovered} / {dropped})",
            snap.engine.recovered, snap.engine.recovery_drops
        ));
    }
    let gap = snap.conservation_gap();
    if gap != 0 {
        return Err(format!(
            "page conservation broken at quiescence: gap {gap} \
             ({} offered, {} refused, {} dequeued, {} recovery-dropped, {} force-dropped, \
             {} head-dropped)",
            snap.engine.offered,
            snap.engine.refused_total(),
            snap.totals.dequeues,
            snap.engine.recovery_drops,
            snap.totals.force_drops,
            snap.totals.head_drops
        ));
    }
    check_self_consistency(&snap)?;
    Ok((ledger, snap, snapshots))
}

/// Run the full telemetry conformance for a scenario. `Ok` carries run
/// statistics; `Err` is a human-readable report ending in the replay
/// line.
pub fn run_telemetry_conformance(sc: &Scenario) -> Result<TelemetryOutcome, String> {
    let fail = |msg: String| -> String { format!("{msg}\n  {}", sc.replay_line()) };
    let mut rng = SimRng::new(sc.seed ^ TELEMETRY_DOMAIN);
    let cfg = seeded_config(&mut rng);
    let shards = cfg.shards;
    let (packets, _) = mint_packets(sc);
    let offered = packets.len();

    // Derive the operational schedule: ingest chunks interleaved with
    // pumps, partial drains, and flow churn. Every removal is preceded
    // by a `Pump`, as this schedule always was (forced removal folds
    // ring residue by itself; `tests/engine_interleaving.rs` covers the
    // un-pumped case).
    let mut ops: Vec<Op> = Vec::new();
    let mut removals = 0usize;
    let mut i = 0;
    while i < offered {
        let chunk = rng.uniform_range(1, 65) as usize;
        let end = (i + chunk).min(offered);
        ops.push(Op::Ingest(i, end));
        i = end;
        match rng.uniform_range(0, 8) {
            0 => ops.push(Op::Pump),
            1 | 2 => ops.push(Op::Drain(rng.uniform_range(1, 129) as usize)),
            3 => {
                let f = &sc.flows[rng.uniform_range(0, sc.flows.len() as u64) as usize];
                ops.push(Op::Pump);
                ops.push(Op::ForceRemove(FlowId(f.id)));
                removals += 1;
            }
            4 => {
                let f = &sc.flows[rng.uniform_range(0, sc.flows.len() as u64) as usize];
                let bps = (f.weight_bps * rng.uniform_range(1, 5) / 2).max(4_000);
                ops.push(Op::Reconfig(ReconfigCmd::AddFlow(
                    FlowId(f.id),
                    Rate::bps(bps),
                )));
            }
            _ => {} // let backlog build
        }
    }

    // Kill-augmented copy of the schedule for the chaos leg.
    let (kill_ops, policy, kills) = with_kills(&ops, shards, &mut rng);

    // --- Leg 1: sync oracle. No concurrent writer exists, so every
    // snapshot must succeed on its first attempt (budget 1).
    let (sync_ledger, sync_snap, snaps1) =
        replay_pages(SyncEngine::new(cfg), sc, &packets, &ops, 1, &mut no_kills)
            .map_err(|e| fail(format!("sync leg: {e}")))?;

    // --- Leg 2: threaded, kill-free — the pages are part of the
    // drivers' determinism contract, so they must be bit-identical to
    // the sync oracle's.
    let (thr_ledger, thr_snap, snaps2) = replay_pages(
        ThreadedEngine::new(cfg),
        sc,
        &packets,
        &ops,
        SNAP_BUDGET,
        &mut no_kills,
    )
    .map_err(|e| fail(format!("threaded leg: {e}")))?;
    if thr_ledger != sync_ledger {
        return Err(fail(format!(
            "driver ledgers diverged on the kill-free schedule: sync {sync_ledger:?} \
             vs threaded {thr_ledger:?}"
        )));
    }
    if thr_snap.engine != sync_snap.engine {
        return Err(fail(
            "engine pages diverged between drivers on the kill-free schedule".to_string(),
        ));
    }
    if thr_snap.shards != sync_snap.shards {
        let at = thr_snap
            .shards
            .iter()
            .zip(&sync_snap.shards)
            .position(|(a, b)| a != b);
        return Err(fail(format!(
            "shard pages diverged between drivers on the kill-free schedule \
             (first differing shard {at:?})"
        )));
    }

    // --- Leg 3: threaded with seeded worker kills under the seeded
    // recovery policy. The replay's quiescent checks already prove the
    // conservation identity and the RecoveryStats mirror; the pages are
    // *not* compared to the oracle here (recovery is real divergence).
    let (kill_ledger, kill_snap, snaps3) = replay_pages(
        ThreadedEngine::new(cfg.recovery(policy)),
        sc,
        &packets,
        &kill_ops,
        SNAP_BUDGET,
        &mut kill_worker,
    )
    .map_err(|e| fail(format!("kill leg ({policy:?}): {e}")))?;

    Ok(TelemetryOutcome {
        shards,
        offered,
        removals,
        kills,
        policy,
        departures: kill_ledger.departed,
        refusals: kill_ledger.refused,
        recovery_drops: kill_snap.engine.recovery_drops,
        snapshots: snaps1 + snaps2 + snaps3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn telemetry_preset_passes_across_seeds() {
        for seed in 0..6u64 {
            let sc = Scenario::from_seed(Preset::Telemetry, seed);
            let out = run_telemetry_conformance(&sc)
                .unwrap_or_else(|e| panic!("seed {seed} failed:\n{e}"));
            assert!(out.offered > 0, "seed {seed} generated an empty workload");
            assert!(out.kills > 0);
            assert!(
                out.snapshots > out.offered / 64,
                "seed {seed}: the after-every-op snapshot discipline was not exercised"
            );
        }
    }

    #[test]
    fn telemetry_replay_line_round_trips() {
        let sc = Scenario::from_seed(Preset::Telemetry, 11);
        assert!(sc.replay_line().contains("preset=telemetry seed=11"));
        let back = Scenario::from_replay_line(&sc.replay_line()).expect("parse");
        assert_eq!(back.preset, Preset::Telemetry);
        assert_eq!(format!("{back:?}"), format!("{sc:?}"));
    }
}
