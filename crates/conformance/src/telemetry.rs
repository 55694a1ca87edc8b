//! Telemetry conformance: the counter pages against a driver-side
//! ledger, with the snapshot protocol exercised by an off-thread reader.
//!
//! A [`Preset::Telemetry`](crate::scenario::Preset::Telemetry) scenario
//! fixes the flow population; this module derives an operational
//! schedule — ingest chunks, pumps, partial drains and flow churn
//! (force-remove + revive) — from the same seed under
//! [`TELEMETRY_DOMAIN`], and replays it twice on a `SyncEngine` with
//! pages attached:
//!
//! 1. **Same thread.** A snapshot is taken after *every* operation by
//!    the driving thread itself. No concurrent writer exists, so each
//!    must succeed on its first attempt (budget 1), be monotone
//!    field-by-field against the previous one (counters are cumulative
//!    plain stores), and respect `enqueues + refused <= offered` and
//!    `resident >= 0` per shard page.
//! 2. **Reader thread.** The deployed shape: the driving thread replays
//!    the schedule while a second thread loops
//!    `Aggregator::snapshot(SNAP_BUDGET)` until told to stop. A
//!    snapshot still torn after [`SNAP_BUDGET`] attempts fails the run,
//!    as does any `Ok` snapshot that is non-monotone per page, has a
//!    page with `resident < 0`, or breaks the one cross-page inequality
//!    an off-thread reader can soundly assert (`check_off_thread`).
//!    The driver waits at mid-schedule until the reader has taken a
//!    snapshot there, so the leg cannot pass with a reader that never
//!    ran beside the writer.
//!
//! At the drained end of either replay the pages alone must reproduce
//! the ledger the driving thread kept (offered, refused, departed,
//! force-dropped): every field bit-equal to its page counterpart,
//! [`EngineSnapshot::conservation_gap`] zero, and each histogram
//! summing to its counter.
//!
//! Every failure message ends with the scenario's replay line
//! (`preset=telemetry seed=N`), so any fuzz hit reproduces from the
//! log.

use crate::engine::{flows_of, mint_packets, replay, seeded_config, Op};
use crate::scenario::Scenario;
use des::SimRng;
use sfq_core::{FlowId, Packet, ReconfigCmd};
use sfq_engine::{EngineConfig, SyncEngine};
use sfq_telemetry::{Aggregator, EngineSnapshot, PageSnapshot};
use simtime::Rate;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Domain separator for the telemetry operational schedule, distinct
/// from the scenario-generation, arrival, and chaos streams of the same
/// seed.
pub const TELEMETRY_DOMAIN: u64 = 0x7E1E_3E7B;

/// Seqlock retry budget for snapshots taken off-thread. Any snapshot
/// still torn after this many attempts is a conformance failure, not a
/// retry candidate — the writer pins a page's epoch for the few plain
/// stores of one write section, so a reader that loses this many races
/// has found a liveness bug.
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
    /// Shards the engine ran.
    pub shards: usize,
    /// Packets offered per replay.
    pub offered: usize,
    /// Force-remove operations in the schedule.
    pub removals: usize,
    /// Departures of each replay.
    pub departures: u64,
    /// Ingest refusals of each replay.
    pub refusals: u64,
    /// Snapshots taken across both legs.
    pub snapshots: usize,
    /// Snapshots the reader thread took while the driver was
    /// mid-schedule (at least one, by construction).
    pub live_snapshots: usize,
}

/// `true` when every cumulative counter of `cur` is at least its value
/// in `prev` — the invariant plain-store counters guarantee to any
/// consistent reader.
fn monotone(prev: &PageSnapshot, cur: &PageSnapshot) -> bool {
    fn all_le(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(a, b)| a <= b)
    }
    prev.enqueues <= cur.enqueues
        && prev.enq_bytes <= cur.enq_bytes
        && prev.dequeues <= cur.dequeues
        && prev.deq_bytes <= cur.deq_bytes
        && prev.head_drops <= cur.head_drops
        && prev.force_drops <= cur.force_drops
        && prev.force_removals <= cur.force_removals
        && prev.offered <= cur.offered
        && all_le(&prev.refused, &cur.refused)
        && all_le(&prev.class_bytes, &cur.class_bytes)
        && all_le(&prev.delay_hist, &cur.delay_hist)
        && all_le(&prev.backlog_hist, &cur.backlog_hist)
}

/// What any `Ok` snapshot must satisfy, wherever it was taken from:
/// each page is monotone against its predecessor and books no more
/// departures and drops than enqueues.
fn check_pages(prev: &Option<EngineSnapshot>, cur: &EngineSnapshot) -> Result<(), String> {
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

/// The cross-page bound of a snapshot taken by the driving thread, with
/// no op in flight: each accepted packet is enqueued at most once
/// across all shard pages.
fn check_same_thread(cur: &EngineSnapshot) -> Result<(), String> {
    if cur.totals.enqueues + cur.engine.refused_total() > cur.engine.offered {
        return Err(format!(
            "accounting overshoot: {} enqueues + {} refusals > {} offered",
            cur.totals.enqueues,
            cur.engine.refused_total(),
            cur.engine.offered
        ));
    }
    Ok(())
}

/// The cross-page bound of a snapshot taken off-thread. The aggregator
/// reads the engine page first and the shard pages after it, so every
/// shard counter is at least what it was when `offered` and `refused`
/// were read. That rules out `enqueues + refused <= offered` — the
/// enqueues may belong to arrivals offered after the engine page was
/// copied — and makes the opposite direction sound: what the engine
/// page says was accepted, less what the shard pages say has left, is
/// at most what the engine can hold (`shards × ring_capacity` pending)
/// plus the one arrival whose fate ingest has not booked yet.
fn check_off_thread(cur: &EngineSnapshot, cfg: EngineConfig) -> Result<(), String> {
    let held = (cfg.shards * cfg.ring_capacity + 1) as i128;
    if cur.conservation_gap() > held {
        return Err(format!(
            "the engine page is {} packets ahead of the shard pages read after it, \
             more than the {held} the engine can hold",
            cur.conservation_gap()
        ));
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

/// Replay `ops` on a fresh engine with pages attached, `after_op`
/// running after every operation, then check the drained pages against
/// the driver-side ledger. Returns the ledger.
fn replay_pages(
    sc: &Scenario,
    eng: &mut SyncEngine,
    agg: &Aggregator,
    packets: &[Packet],
    ops: &[Op],
    after_op: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Ledger, String> {
    let tr = replay(eng, &flows_of(sc), packets, ops, sc.horizon(), after_op)?;
    // Backpressure or a removed flow refuse a packet and conservation
    // counts it; no reconfiguration of the schedule may fail.
    tr.expect_no_control_errors()?;
    let ledger = Ledger {
        offered: packets.len() as u64,
        refused: tr.refused.len() as u64,
        departed: tr.departures.len() as u64,
        force_drops: tr.discarded as u64,
    };

    // The quiescent differential: pages alone must reproduce the
    // driver-side ledger. This thread is the only writer, so one
    // attempt suffices whoever else is reading.
    let snap = agg.snapshot(1).map_err(|e| format!("quiescent {e}"))?;
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
    let gap = snap.conservation_gap();
    if gap != 0 {
        return Err(format!(
            "page conservation broken at quiescence: gap {gap} \
             ({} offered, {} refused, {} dequeued, {} force-dropped, {} head-dropped)",
            snap.engine.offered,
            snap.engine.refused_total(),
            snap.totals.dequeues,
            snap.totals.force_drops,
            snap.totals.head_drops
        ));
    }
    check_self_consistency(&snap)?;
    Ok(ledger)
}

/// The reader thread: snapshot, check, yield, until the driver is
/// `done`. Returns the snapshots taken; those taken wholly while the
/// driver was mid-schedule are counted in `live` as they land.
fn read_until_done(
    agg: &Aggregator,
    cfg: EngineConfig,
    done: &AtomicBool,
    live: &AtomicUsize,
) -> Result<usize, String> {
    let mut prev: Option<EngineSnapshot> = None;
    let mut taken = 0;
    loop {
        let snap = agg
            .snapshot(SNAP_BUDGET)
            .map_err(|e| format!("off-thread {e} — retry did not settle"))?;
        taken += 1;
        check_pages(&prev, &snap)
            .and_then(|()| check_off_thread(&snap, cfg))
            .map_err(|e| format!("off-thread snapshot {taken} incoherent: {e}"))?;
        prev = Some(snap);
        // The flag only ever rises: still down after the snapshot
        // means the whole snapshot was taken mid-schedule.
        if done.load(Ordering::Acquire) {
            return Ok(taken);
        }
        live.fetch_add(1, Ordering::Release);
        std::thread::yield_now();
    }
}

/// Run the full telemetry conformance for a scenario. `Ok` carries run
/// statistics; `Err` is a human-readable report ending in the replay
/// line.
pub fn run_telemetry_conformance(sc: &Scenario) -> Result<TelemetryOutcome, String> {
    let fail = |msg: String| -> String { format!("{msg}\n  {}", sc.replay_line()) };
    let mut rng = SimRng::new(sc.seed ^ TELEMETRY_DOMAIN);
    let cfg = seeded_config(&mut rng);
    let (packets, _) = mint_packets(sc);
    let offered = packets.len();

    // Derive the operational schedule: ingest chunks interleaved with
    // pumps, partial drains, and flow churn. Every removal is preceded
    // by a `Pump`, as this schedule always was; pumps are no-ops now and
    // stay so that a seed replays the schedule it always did.
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

    // --- Leg 1: the driving thread snapshots after every operation.
    // No concurrent writer exists, so every snapshot must succeed on
    // its first attempt (budget 1).
    let mut eng = SyncEngine::new(cfg);
    let agg = Aggregator::new(eng.attach_telemetry());
    let mut prev: Option<EngineSnapshot> = None;
    let mut same_thread = 0usize;
    let ledger = replay_pages(sc, &mut eng, &agg, &packets, &ops, &mut || {
        let snap = agg
            .snapshot(1)
            .map_err(|e| format!("mid-run {e} with no writer running"))?;
        same_thread += 1;
        check_pages(&prev, &snap)
            .and_then(|()| check_same_thread(&snap))
            .map_err(|e| format!("mid-run snapshot incoherent: {e}"))?;
        prev = Some(snap);
        Ok(())
    })
    .map_err(|e| fail(format!("same-thread leg: {e}")))?;

    // --- Leg 2: the same schedule with a reader thread snapshotting
    // beside it. Half-way through, the driver waits for the reader to
    // have taken a snapshot with the schedule under way.
    let mut eng = SyncEngine::new(cfg);
    let agg = Aggregator::new(eng.attach_telemetry());
    let (done, live) = (AtomicBool::new(false), AtomicUsize::new(0));
    let (live_ledger, off_thread) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_until_done(&agg, cfg, &done, &live));
        let mut ops_done = 0;
        let ledger = replay_pages(sc, &mut eng, &agg, &packets, &ops, &mut || {
            ops_done += 1;
            while ops_done == ops.len().div_ceil(2)
                && live.load(Ordering::Acquire) == 0
                && !reader.is_finished()
            {
                std::thread::yield_now();
            }
            Ok(())
        });
        done.store(true, Ordering::Release);
        let read = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        (ledger, read.and_then(|r| r))
    });
    let off_thread = off_thread.map_err(|e| fail(format!("reader-thread leg: {e}")))?;
    live_ledger.map_err(|e| fail(format!("reader-thread leg: {e}")))?;
    let live_snapshots = live.into_inner();
    if live_snapshots == 0 {
        return Err(fail(
            "the reader thread took no snapshot while the driver was mid-schedule".into(),
        ));
    }

    Ok(TelemetryOutcome {
        shards: cfg.shards,
        offered,
        removals,
        departures: ledger.departed,
        refusals: ledger.refused,
        snapshots: same_thread + off_thread,
        live_snapshots,
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
            assert!(out.live_snapshots > 0);
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
