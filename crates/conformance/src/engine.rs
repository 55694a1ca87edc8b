//! Conformance for the sharded engine: replay one seeded API call
//! schedule on `sfq_engine::SyncEngine` and check it against oracles
//! that are not the engine.
//!
//! The [`Preset::Engine`] scenario fixes the flow population; this
//! module derives everything *operational* — shard count, batch size,
//! ring capacity, and the interleaving of ingest / pump / drain calls —
//! from the same seed under a separate domain separator, so one replay
//! line reproduces both the workload and the exact call schedule. On
//! top of conservation, per-flow FIFO order and the stall guard, two
//! oracles judge the run:
//!
//! 1. **One shard is the leaf.** The schedule replayed on a one-shard
//!    engine (same batch, same ring capacity) must depart and refuse
//!    exactly as a bare `Sfq` driven by hand ([`leaf_model`]): with one
//!    class the root arbiter has nothing to decide, so all the engine
//!    may add is the ring's deferral and the pending-count refusal.
//! 2. **Pump placement is invisible.** At the seeded shard count, the
//!    schedule as generated, the schedule with every [`Op::Pump`]
//!    stripped, and the schedule with a pump after every ingest (what
//!    the `Scheduler` facade does) must give equal departures and
//!    refusals: Eq. 4 stamps against the virtual time, which moves only
//!    at dequeues, and every drain pumps first. This holds on the
//!    ingest / pump / drain alphabet only — a `SetWeight` or a
//!    `DropHead` legitimately treats ring residue and queued packets
//!    differently — so `chaos` and `telemetry` do not assert it.
//!
//! The schedule executor ([`replay`]) runs a list of [`Op`]s and
//! returns a [`Trace`]; the `chaos` and `telemetry` presets and the
//! proptests in `tests/engine_interleaving.rs` drive it too.
//!
//! [`Preset::Engine`]: crate::scenario::Preset::Engine

use crate::scenario::Scenario;
use des::SimRng;
use sfq_core::{FlowId, Packet, PacketFactory, ReconfigCmd, SchedError, Scheduler, Sfq};
use sfq_engine::{Engine, EngineConfig, ShardSched, SyncEngine};
use simtime::{Bytes, Rate, SimTime};
use std::collections::HashMap;

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
}

/// Everything a replay observed.
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
    /// Every `Reconfig` that returned an error, in order.
    pub control_errors: Vec<(ReconfigCmd, SchedError)>,
}

impl Trace {
    /// `Err` naming the first reconfiguration that was refused.
    pub(crate) fn expect_no_control_errors(&self) -> Result<(), String> {
        match self.control_errors.first() {
            Some((cmd, e)) => Err(format!("{cmd:?} failed: {e}")),
            None => Ok(()),
        }
    }

    /// The two properties every replay of `packets` must have, whatever
    /// its op alphabet. **Conservation:** each packet was refused,
    /// departed, was discarded by a removal, or was evicted. **Per-flow
    /// FIFO:** a flow's packets depart in the order they were offered
    /// (`packets` is in offer order with increasing uids).
    pub fn check_books(&self, packets: &[Packet]) -> Result<(), String> {
        let (offered, refused) = (packets.len(), self.refused.len());
        let (departed, evicted) = (self.departures.len(), self.evicted.len());
        if offered != refused + departed + self.discarded + evicted {
            return Err(format!(
                "conservation broken: {offered} offered != {refused} refused + {departed} \
                 departed + {} discarded + {evicted} evicted",
                self.discarded
            ));
        }
        let mut last: HashMap<FlowId, u64> = HashMap::new();
        for &uid in &self.departures {
            let at = packets
                .binary_search_by_key(&uid, |p| p.uid)
                .map_err(|_| format!("departure {uid} was never offered"))?;
            let flow = packets[at].flow;
            if last.insert(flow, uid).is_some_and(|prev| prev >= uid) {
                return Err(format!("flow {flow} departed out of order at uid {uid}"));
            }
        }
        Ok(())
    }
}

/// Replay `ops` on `eng` after registering `flows`, then drain to empty
/// at `end`; `after_op` runs after every op. A pump or drain error, or
/// an engine that cannot drain, is an `Err`; refusals and control-op
/// errors are recorded in the trace.
pub fn replay<S: ShardSched>(
    eng: &mut Engine<S>,
    flows: &[(FlowId, Rate)],
    packets: &[Packet],
    ops: &[Op],
    end: SimTime,
    after_op: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Trace, String> {
    for &(flow, weight) in flows {
        eng.try_add_flow(flow, weight)
            .map_err(|e| format!("flow registration refused: {e}"))?;
    }
    let mut now = SimTime::ZERO;
    let mut tr = Trace::default();
    let mut out = Vec::new();
    let mut drain = |eng: &mut Engine<S>, tr: &mut Trace, now, max| -> Result<(), String> {
        out.clear();
        eng.drain(now, max, &mut out)
            .map_err(|e| format!("drain failed: {e}"))?;
        tr.departures.extend(out.iter().map(|p| p.uid));
        Ok(())
    };
    for op in ops {
        match *op {
            Op::Ingest(a, b) => {
                for &pkt in &packets[a..b] {
                    now = pkt.arrival;
                    if let Err(e) = eng.try_ingest(pkt) {
                        tr.refused.push((pkt.uid, e));
                    }
                }
            }
            Op::Pump => eng.pump(now).map_err(|e| format!("pump failed: {e}"))?,
            Op::Drain(max) => drain(eng, &mut tr, now, max)?,
            Op::Reconfig(cmd) => {
                let before = eng.pending();
                if let Err(e) = eng.try_reconfig(cmd) {
                    tr.control_errors.push((cmd, e));
                }
                if matches!(cmd, ReconfigCmd::RemoveFlow(_)) {
                    tr.discarded += before - eng.pending();
                }
            }
            Op::ForceRemove(flow) => tr.discarded += eng.force_remove_flow(flow),
            Op::DropHead(flow) => tr.evicted.extend(eng.drop_head(flow).map(|p| p.uid)),
        }
        after_op()?;
    }
    let mut guard = 0;
    while eng.pending() > 0 {
        drain(eng, &mut tr, end, 4096)?;
        guard += 1;
        if guard > packets.len() + 16 {
            return Err(format!(
                "engine stalled: {} packets pending after {guard} full drains",
                eng.pending()
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

/// Where `got`'s refusals or departures first differ from `oracle`'s,
/// as a human-readable report.
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
    check("departure", &oracle.departures, &got.departures)
}

/// What a one-shard engine with `cfg`'s batch and ring capacity must do
/// with an ingest / pump / drain schedule, written without the engine:
/// a bare `Sfq` (rebasing as the engine enables it), a buffer standing
/// in for the ring, and the pending-count refusal. An ingest is
/// buffered unless `pending` has reached the ring capacity; a pump is
/// one `try_enqueue_batch` of the buffer; a drain of `max` pumps, then
/// takes `dequeue_batch` chunks of `min(batch, left)`.
fn leaf_model(
    cfg: EngineConfig,
    flows: &[(FlowId, Rate)],
    packets: &[Packet],
    ops: &[Op],
    end: SimTime,
) -> Result<Trace, String> {
    let mut sfq = Sfq::new();
    if let Some(bits) = cfg.rebase_bits {
        sfq.enable_rebasing(bits);
    }
    for &(flow, weight) in flows {
        sfq.add_flow(flow, weight);
    }
    let mut tr = Trace::default();
    let (mut ring, mut out) = (Vec::new(), Vec::new());
    let mut pending = 0usize;
    let mut now = SimTime::ZERO;
    let final_drain = [Op::Drain(usize::MAX)];
    for (i, op) in ops.iter().chain(&final_drain).enumerate() {
        match *op {
            Op::Ingest(a, b) => {
                for &pkt in &packets[a..b] {
                    now = pkt.arrival;
                    if pending >= cfg.ring_capacity {
                        tr.refused.push((pkt.uid, SchedError::BufferFull(pkt.flow)));
                    } else {
                        ring.push(pkt);
                        pending += 1;
                    }
                }
            }
            Op::Pump | Op::Drain(_) => {
                let at = if i == ops.len() { end } else { now };
                sfq.try_enqueue_batch(at, &ring)
                    .map_err(|e| format!("model enqueue failed: {e}"))?;
                ring.clear();
                let Op::Drain(max) = *op else { continue };
                let mut left = max;
                while left > 0 {
                    out.clear();
                    let k = sfq.dequeue_batch(at, cfg.batch.min(left), &mut out);
                    if k == 0 {
                        break;
                    }
                    tr.departures.extend(out.iter().map(|p| p.uid));
                    pending -= k;
                    left -= k;
                }
            }
            _ => return Err(format!("{op:?} is outside the leaf model's alphabet")),
        }
    }
    Ok(tr)
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

/// Statistics of a passing engine-conformance run.
#[derive(Clone, Copy, Debug)]
pub struct EngineOutcome {
    /// Shards of the seeded engine.
    pub shards: usize,
    /// Drain batch size.
    pub batch: usize,
    /// Per-shard ring capacity.
    pub ring_capacity: usize,
    /// Packets offered to each replay.
    pub offered: usize,
    /// Packets that departed from the seeded engine.
    pub departures: usize,
    /// Ingest refusals of the seeded engine.
    pub refusals: usize,
}

/// Replay the scenario's derived call schedule and judge it by the two
/// oracles of the module docs. `Ok` carries run statistics; `Err` is a
/// human-readable report ending in the scenario's replay line.
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
    let run = |name: &str, cfg: EngineConfig, ops: &[Op]| -> Result<Trace, String> {
        let mut eng = SyncEngine::new(cfg);
        let tr = replay(&mut eng, &flows, &packets, ops, end, &mut || Ok(()))
            .and_then(|tr| tr.check_books(&packets).map(|()| tr))
            .map_err(|e| fail(format!("{name}: {e}")))?;
        Ok(tr)
    };
    let seeded = run("seeded schedule", cfg, &ops)?;

    // Pump placement: none but the drains' own, and the facade's.
    let lazy: Vec<Op> = ops.iter().copied().filter(|op| *op != Op::Pump).collect();
    let eager: Vec<Op> = lazy
        .iter()
        .flat_map(|&op| match op {
            Op::Ingest(..) => vec![op, Op::Pump],
            _ => vec![op],
        })
        .collect();
    for (name, moved) in [("no pumps", &lazy), ("a pump after every ingest", &eager)] {
        let got = run(name, cfg, moved)?;
        diff(&seeded, &got)
            .map_err(|e| fail(format!("pump placement changed the output ({name}): {e}")))?;
    }

    // One shard against the hand-driven leaf.
    let one = EngineConfig::new(1)
        .batch(cfg.batch)
        .ring_capacity(cfg.ring_capacity);
    let model = leaf_model(one, &flows, &packets, &ops, end)
        .map_err(|e| fail(format!("leaf model: {e}")))?;
    let got = run("one-shard engine", one, &ops)?;
    diff(&model, &got).map_err(|e| fail(format!("one-shard engine vs a bare Sfq: {e}")))?;

    Ok(EngineOutcome {
        shards: cfg.shards,
        batch: cfg.batch,
        ring_capacity: cfg.ring_capacity,
        offered,
        departures: seeded.departures.len(),
        refusals: seeded.refused.len(),
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
        let a = Trace {
            departures: vec![1, 2, 3],
            ..Trace::default()
        };
        assert_eq!(diff(&a, &a), Ok(()));
        let mut b = a.clone();
        b.departures[1] = 9;
        assert!(diff(&a, &b)
            .unwrap_err()
            .starts_with("departure 1 diverged"));
        b.refused.push((7, SchedError::BufferFull(FlowId(1))));
        assert!(diff(&a, &b)
            .unwrap_err()
            .starts_with("ingest refusal 0 diverged"));
        b = a.clone();
        b.departures.pop();
        assert!(diff(&a, &b)
            .unwrap_err()
            .starts_with("departure 2 diverged"));
    }

    /// `check_books` catches what it exists for: a lost packet and a
    /// flow served out of order.
    #[test]
    fn check_books_rejects_a_leak_and_a_reordering() {
        let mut fac = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let packets: Vec<Packet> = [1, 2, 1]
            .map(|f| fac.make(FlowId(f), Bytes::new(100), t0))
            .to_vec();
        let trace = |departures: &[u64]| Trace {
            departures: departures.to_vec(),
            ..Trace::default()
        };
        assert_eq!(trace(&[1, 0, 2]).check_books(&packets), Ok(()));
        assert!(trace(&[0, 1])
            .check_books(&packets)
            .unwrap_err()
            .starts_with("conservation broken"));
        assert!(trace(&[2, 1, 0])
            .check_books(&packets)
            .unwrap_err()
            .contains("out of order"));
    }
}
