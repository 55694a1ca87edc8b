//! Differential conformance for the sharded engine: replay one seeded
//! API call schedule against `sfq_engine::SyncEngine` (single-threaded
//! deterministic oracle) and `sfq_engine::ThreadedEngine` (one worker
//! thread per shard) and require bit-identical behaviour.
//!
//! The [`Preset::Engine`] scenario fixes the flow population; this
//! module derives everything *operational* — shard count, batch size,
//! ring capacity, and the interleaving of ingest / pump / drain calls —
//! from the same seed under a separate domain separator, so one replay
//! line reproduces both the workload and the exact call schedule. The
//! threaded engine's claim (see its module docs) is that departures and
//! backpressure refusals are a pure function of that call schedule, no
//! matter how the OS schedules the shard workers; every run here is
//! therefore a fresh adversarial interleaving of the same expected
//! output.
//!
//! Both engines are one type, `sfq_engine::Engine<L>`, so the schedule
//! executor is one function generic over the link ([`replay`]): it runs
//! a list of [`Op`]s and returns a [`Trace`], and a differential is a
//! [`diff`] of two traces. The `chaos` and `telemetry` presets and the
//! proptests in `tests/engine_interleaving.rs` drive it too.
//!
//! [`Preset::Engine`]: crate::scenario::Preset::Engine

use crate::scenario::Scenario;
use des::SimRng;
use sfq_core::{FlowId, Packet, PacketFactory, ReconfigCmd, SchedError, Scheduler};
use sfq_engine::{
    DegradedMode, Engine, EngineConfig, RecoveryPolicy, ShardLink, SyncEngine, ThreadedEngine,
};
use simtime::{Bytes, Rate, SimTime};

/// Domain separator for the operational schedule, so it never reuses
/// the scenario-generation or arrival streams of the same seed.
const OP_DOMAIN: u64 = 0xE191_4E00;

/// One step of an operational schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Ingest `packets[a..b]` in arrival order.
    Ingest(usize, usize),
    /// Pump at the current time.
    Pump,
    /// Partial drain of up to this many packets.
    Drain(usize),
    /// Apply this command through `Scheduler::try_reconfig`.
    Reconfig(ReconfigCmd),
    /// `Scheduler::force_remove_flow`.
    ForceRemove(FlowId),
    /// `Scheduler::drop_head`.
    DropHead(FlowId),
    /// Kill this shard's worker, through the replay's `kill` hook.
    Kill(usize),
}

/// What one [`Op`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Packets the op moved: accepted (ingest), departed (drain),
    /// discarded (force-remove, `RemoveFlow`), evicted (drop-head).
    pub moved: usize,
    /// The error a control op returned, if any.
    pub err: Option<SchedError>,
    /// `Engine::pending` after the op.
    pub pending: usize,
}

/// Everything a replay observed. Two engines conform when their traces
/// are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Departure uids, in order.
    pub departures: Vec<u64>,
    /// Uid and cause of every ingest refusal, in order.
    pub refused: Vec<(u64, SchedError)>,
    /// Uids evicted by `DropHead`, in order.
    pub evicted: Vec<u64>,
    /// Packets discarded by `ForceRemove` and `Reconfig(RemoveFlow)`.
    pub discarded: usize,
    /// One entry per op, then one per drain of the final drain-to-empty.
    pub steps: Vec<Step>,
}

impl Trace {
    /// `Err` naming the first of `ops` that returned an error other than
    /// `ShardDown` — the one control error a degraded kill leg expects
    /// (a reconfiguration or re-registration aimed at a parked shard).
    pub(crate) fn expect_no_control_errors(&self, ops: &[Op]) -> Result<(), String> {
        for (op, step) in ops.iter().zip(&self.steps) {
            if let Some(e) = step.err.filter(|e| !matches!(e, SchedError::ShardDown(_))) {
                return Err(format!("{op:?} failed: {e}"));
            }
        }
        Ok(())
    }
}

/// Replay `ops` on `eng` after registering `flows`, then drain to empty
/// at `end`. `kill` runs the [`Op::Kill`] steps (only a caller holding a
/// `ThreadedEngine` has one); `after_op` runs after every op. A pump or
/// drain error, or an engine that cannot drain, is an `Err`; refusals
/// and control-op errors are recorded in the trace.
pub fn replay<L: ShardLink>(
    eng: &mut Engine<L>,
    flows: &[(FlowId, Rate)],
    packets: &[Packet],
    ops: &[Op],
    end: SimTime,
    kill: &mut dyn FnMut(&mut Engine<L>, usize),
    after_op: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Trace, String> {
    for &(flow, weight) in flows {
        eng.try_add_flow(flow, weight)
            .map_err(|e| format!("flow registration refused: {e}"))?;
    }
    let mut now = SimTime::ZERO;
    let mut tr = Trace::default();
    let mut out = Vec::new();
    let mut drain = |eng: &mut Engine<L>, tr: &mut Trace, now, max| -> Result<usize, String> {
        out.clear();
        let n = eng
            .drain(now, max, &mut out)
            .map_err(|e| format!("drain failed: {e}"))?;
        tr.departures.extend(out.iter().map(|p| p.uid));
        Ok(n)
    };
    for op in ops {
        let before = eng.pending();
        let mut err = None;
        let moved = match *op {
            Op::Ingest(a, b) => {
                for &pkt in &packets[a..b] {
                    now = pkt.arrival;
                    if let Err(e) = eng.try_ingest(pkt) {
                        tr.refused.push((pkt.uid, e));
                    }
                }
                eng.pending() - before
            }
            Op::Pump => {
                eng.pump(now).map_err(|e| format!("pump failed: {e}"))?;
                0
            }
            Op::Drain(max) => drain(eng, &mut tr, now, max)?,
            Op::Reconfig(cmd) => {
                err = eng.try_reconfig(cmd).err();
                before - eng.pending()
            }
            Op::ForceRemove(flow) => eng.force_remove_flow(flow),
            Op::DropHead(flow) => {
                let evicted = eng.drop_head(flow);
                tr.evicted.extend(evicted.map(|p| p.uid));
                evicted.is_some() as usize
            }
            Op::Kill(shard) => {
                kill(eng, shard);
                0
            }
        };
        if matches!(
            op,
            Op::Reconfig(ReconfigCmd::RemoveFlow(_)) | Op::ForceRemove(_)
        ) {
            tr.discarded += moved;
        }
        let pending = eng.pending();
        tr.steps.push(Step {
            moved,
            err,
            pending,
        });
        after_op()?;
    }
    let mut guard = 0;
    while eng.pending() > 0 {
        let moved = drain(eng, &mut tr, end, 4096)?;
        let pending = eng.pending();
        tr.steps.push(Step {
            moved,
            err: None,
            pending,
        });
        guard += 1;
        if guard > packets.len() + 16 {
            return Err(format!(
                "engine stalled: {pending} packets pending after {guard} full drains"
            ));
        }
    }
    Ok(tr)
}

/// Index of the first position where `a` and `b` differ.
fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let common = a.iter().zip(b).position(|(x, y)| x != y);
    common.or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// Where `got` first departs from `oracle`, as a human-readable report.
pub fn diff(oracle: &Trace, got: &Trace) -> Result<(), String> {
    fn check<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) -> Result<(), String> {
        let Some(at) = first_diff(a, b) else {
            return Ok(());
        };
        Err(format!(
            "{what} {at} diverged: oracle {:?}, got {:?} ({} vs {} in all)",
            a.get(at),
            b.get(at),
            a.len(),
            b.len()
        ))
    }
    check("ingest refusal", &oracle.refused, &got.refused)?;
    check("op", &oracle.steps, &got.steps)?;
    check("departure", &oracle.departures, &got.departures)?;
    check("eviction", &oracle.evicted, &got.evicted)
}

/// Shard count, batch size and ring capacity drawn from a preset's
/// operational stream (its first three draws).
pub(crate) fn seeded_config(rng: &mut SimRng) -> EngineConfig {
    let shards = rng.uniform_range(2, 6) as usize;
    let batch = rng.uniform_range(1, 33) as usize;
    let ring_capacity = 1usize << rng.uniform_range(5, 10); // 32..=512
    EngineConfig::new(shards)
        .batch(batch)
        .ring_capacity(ring_capacity)
}

/// The scenario's flows as the replay wants them.
pub(crate) fn flows_of(sc: &Scenario) -> Vec<(FlowId, Rate)> {
    sc.flows
        .iter()
        .map(|f| (FlowId(f.id), f.weight()))
        .collect()
}

/// Materialize all arrivals, in (time, flow, position) order, minting
/// packets once so every replay sees identical uids. The factory is
/// returned positioned after them.
pub(crate) fn mint_packets(sc: &Scenario) -> (Vec<Packet>, PacketFactory) {
    let mut arrivals: Vec<(SimTime, u32, Bytes)> = Vec::new();
    for f in &sc.flows {
        for (t, len) in sc.arrivals_for(f) {
            arrivals.push((t, f.id, len));
        }
    }
    arrivals.sort_by_key(|&(t, id, _)| (t, id));
    let mut fac = PacketFactory::new();
    let packets = arrivals
        .iter()
        .map(|&(t, id, len)| fac.make(FlowId(id), len, t))
        .collect();
    (packets, fac)
}

/// The kill leg of a schedule: a seed-chosen recovery policy and one to
/// three [`Op::Kill`]s woven into a copy of `ops`.
pub(crate) fn with_kills(
    ops: &[Op],
    shards: usize,
    rng: &mut SimRng,
) -> (Vec<Op>, RecoveryPolicy, usize) {
    let policy = match rng.uniform_range(0, 3) {
        0 => RecoveryPolicy::Restart,
        1 => RecoveryPolicy::Degrade(DegradedMode::Redistribute),
        _ => RecoveryPolicy::Degrade(DegradedMode::Park),
    };
    let kills = rng.uniform_range(1, 4) as usize;
    let mut ops = ops.to_vec();
    for _ in 0..kills {
        let pos = rng.uniform_range(0, ops.len() as u64 + 1) as usize;
        let shard = rng.uniform_range(0, shards as u64) as usize;
        ops.insert(pos, Op::Kill(shard));
    }
    (ops, policy, kills)
}

/// The `kill` hook of a replay that has a worker to kill.
pub(crate) fn kill_worker(eng: &mut ThreadedEngine, shard: usize) {
    let _ = eng.inject_worker_panic(shard);
}

/// The `kill` hook of a replay whose schedule holds no [`Op::Kill`].
pub fn no_kills<L: ShardLink>(_: &mut Engine<L>, _: usize) {
    unreachable!("kills are only scheduled on the threaded kill legs");
}

/// Statistics of a passing engine-differential run.
#[derive(Clone, Copy, Debug)]
pub struct EngineOutcome {
    /// Shards each engine ran.
    pub shards: usize,
    /// Drain batch size.
    pub batch: usize,
    /// Per-shard ring capacity.
    pub ring_capacity: usize,
    /// Packets offered to each engine.
    pub offered: usize,
    /// Packets that departed (identically) from both engines.
    pub departures: usize,
    /// Ingest refusals (identical in both engines).
    pub refusals: usize,
}

/// Replay the scenario's derived call schedule against both engine
/// drivers. `Ok` carries run statistics; `Err` is a human-readable
/// divergence report ending in the scenario's replay line.
pub fn run_engine_conformance(sc: &Scenario) -> Result<EngineOutcome, String> {
    let fail = |msg: String| -> String { format!("{msg}\n  {}", sc.replay_line()) };
    let mut rng = SimRng::new(sc.seed ^ OP_DOMAIN);
    let cfg = seeded_config(&mut rng);
    let (packets, _) = mint_packets(sc);
    let offered = packets.len();

    // Ingest packets in arrival order in randomly-sized chunks,
    // interleaved with pumps and partial drains at random points.
    let mut ops = Vec::new();
    let mut i = 0;
    while i < offered {
        let chunk = rng.uniform_range(1, 65) as usize;
        let end = (i + chunk).min(offered);
        ops.push(Op::Ingest(i, end));
        i = end;
        match rng.uniform_range(0, 4) {
            0 => ops.push(Op::Pump),
            1 | 2 => ops.push(Op::Drain(rng.uniform_range(1, 129) as usize)),
            _ => {} // let backlog build
        }
    }

    let (flows, end) = (flows_of(sc), sc.horizon());
    let oracle = replay(
        &mut SyncEngine::new(cfg),
        &flows,
        &packets,
        &ops,
        end,
        &mut no_kills,
        &mut || Ok(()),
    )
    .map_err(|e| fail(format!("oracle: {e}")))?;
    let threaded = replay(
        &mut ThreadedEngine::new(cfg),
        &flows,
        &packets,
        &ops,
        end,
        &mut no_kills,
        &mut || Ok(()),
    )
    .map_err(|e| fail(format!("threaded engine: {e}")))?;
    diff(&oracle, &threaded).map_err(|e| fail(format!("threaded engine vs oracle: {e}")))?;

    let (departures, refusals) = (oracle.departures.len(), oracle.refused.len());
    if departures + refusals != offered {
        return Err(fail(format!(
            "conservation broken: {offered} offered != {departures} departed + {refusals} refused"
        )));
    }
    Ok(EngineOutcome {
        shards: cfg.shards,
        batch: cfg.batch,
        ring_capacity: cfg.ring_capacity,
        offered,
        departures,
        refusals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn engine_preset_passes_across_seeds() {
        for seed in 0..8u64 {
            let sc = Scenario::from_seed(Preset::Engine, seed);
            let out = run_engine_conformance(&sc)
                .unwrap_or_else(|e| panic!("seed {seed} diverged:\n{e}"));
            assert_eq!(out.departures + out.refusals, out.offered);
            assert!(out.offered > 0, "seed {seed} generated an empty workload");
        }
    }

    #[test]
    fn failure_reports_carry_the_replay_line() {
        // Force a divergence-free run and check the outcome plumbing;
        // the replay-line formatting itself is exercised by building
        // the closure's message against a real scenario.
        let sc = Scenario::from_seed(Preset::Engine, 3);
        assert!(sc.replay_line().contains("preset=engine seed=3"));
        assert!(run_engine_conformance(&sc).is_ok());
    }

    #[test]
    fn diff_names_the_first_divergence() {
        let step = |moved| Step {
            moved,
            err: None,
            pending: 0,
        };
        let a = Trace {
            departures: vec![1, 2, 3],
            steps: vec![step(3)],
            ..Trace::default()
        };
        assert_eq!(diff(&a, &a), Ok(()));
        let mut b = a.clone();
        b.departures[1] = 9;
        assert!(diff(&a, &b)
            .unwrap_err()
            .starts_with("departure 1 diverged"));
        b.steps[0] = step(2);
        assert!(diff(&a, &b).unwrap_err().starts_with("op 0 diverged"));
        b = a.clone();
        b.departures.pop();
        assert!(diff(&a, &b)
            .unwrap_err()
            .starts_with("departure 2 diverged"));
    }
}
