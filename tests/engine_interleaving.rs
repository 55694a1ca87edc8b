//! Seeded call-schedule conformance for the sharded engine: for *any*
//! seeded interleaving of ingest, pump and drain calls, `SyncEngine`
//! must depart and refuse as its two oracles say — a hand-driven bare
//! `Sfq` at one shard, and its own schedule with the pumps stripped or
//! made eager at the seeded shard count (`conformance::engine`; `pump`
//! is a no-op since ingest schedules each packet at once, so the second
//! oracle holds by construction). A failure panics with
//! the full report, which ends in the standard
//! `conformance replay: preset=engine seed=N` line for offline
//! reproduction via the conformance fuzzer.
//!
//! The second proptest drives the same replay with the op alphabet the
//! `engine` preset never generates: forced removals and head drops
//! issued *between ingest and drain*, re-adding a removed flow, weight
//! changes between ingest and drain. No oracle predicts what those ops
//! leave queued, so what must hold is the books: every packet is
//! refused, departs, is discarded by a removal or is evicted, and each
//! flow departs in the order it was offered.

use conformance::engine::{replay, Op};
use conformance::{run_engine_conformance, Preset, Scenario};
use proptest::prelude::*;
use sfq_core::{FlowId, PacketFactory, ReconfigCmd};
use sfq_engine::{EngineConfig, SyncEngine};
use simtime::{Bytes, Rate, SimTime};

const FLOWS: u32 = 6;

/// One generated action; `Ingest(seed, n)` mints `n` packets whose flows
/// and lengths are spun off `seed`.
#[derive(Clone, Debug)]
enum Act {
    Ingest(u32, usize),
    Op(Op),
}

fn act() -> impl Strategy<Value = Act> {
    let flow = || (0..FLOWS).prop_map(FlowId);
    let rate = || (8u64..=512).prop_map(Rate::kbps);
    let reconfig = prop_oneof![
        flow().prop_map(ReconfigCmd::RemoveFlow),
        (flow(), rate()).prop_map(|(f, r)| ReconfigCmd::AddFlow(f, r)),
        (flow(), rate()).prop_map(|(f, r)| ReconfigCmd::SetWeight(f, r)),
        (flow(), rate()).prop_map(|(f, r)| ReconfigCmd::SetRate(f, r)),
        (0usize..4, proptest::option::of(rate()))
            .prop_map(|(s, r)| ReconfigCmd::SetShardWeight(s, r)),
    ];
    let ingest = || (0..u32::MAX, 1usize..12).prop_map(|(seed, n)| Act::Ingest(seed, n));
    let drain = || (1usize..20).prop_map(|max| Act::Op(Op::Drain(max)));
    // Repeated arms stand in for weights: about a third ingests, a
    // quarter control ops.
    prop_oneof![
        ingest(),
        ingest(),
        ingest(),
        ingest(),
        Just(Act::Op(Op::Pump)),
        drain(),
        drain(),
        reconfig.prop_map(|cmd| Act::Op(Op::Reconfig(cmd))),
        flow().prop_map(|f| Act::Op(Op::ForceRemove(f))),
        flow().prop_map(|f| Act::Op(Op::DropHead(f))),
    ]
}

proptest! {
    #[test]
    fn control_ops_on_ring_residue_keep_the_books(
        shards in 1usize..=3,
        batch in 1usize..=8,
        ring in 4usize..=32,
        acts in proptest::collection::vec(act(), 1..60),
    ) {
        let cfg = EngineConfig::new(shards).batch(batch).ring_capacity(ring);
        let flows: Vec<_> = (0..FLOWS).map(|f| (FlowId(f), Rate::kbps(32 << (f % 3)))).collect();
        let mut fac = PacketFactory::new();
        let mut packets = Vec::new();
        let ops: Vec<Op> = acts
            .iter()
            .map(|a| match *a {
                Act::Op(op) => op,
                Act::Ingest(seed, n) => {
                    let from = packets.len();
                    for j in 0..n as u32 {
                        let flow = FlowId(seed.wrapping_add(7 * j) % FLOWS);
                        let len = Bytes::new(64 + 40 * (seed.wrapping_add(j) % 9) as u64);
                        let at = SimTime::from_micros(packets.len() as i128);
                        packets.push(fac.make(flow, len, at));
                    }
                    Op::Ingest(from, packets.len())
                }
            })
            .collect();
        let end = SimTime::from_secs(1);
        let mut eng = SyncEngine::new(cfg);
        let trace = replay(&mut eng, &flows, &packets, &ops, end, &mut || Ok(()))
            .unwrap_or_else(|e| panic!("replay failed: {e}\n  ops: {ops:?}"));
        if let Err(report) = trace.check_books(&packets) {
            panic!("{report}\n  ops: {ops:?}");
        }
    }
}

proptest! {
    #[test]
    fn seeded_schedules_match_the_engine_oracles(seed in 0u64..1_000_000) {
        let sc = Scenario::from_seed(Preset::Engine, seed);
        if let Err(report) = run_engine_conformance(&sc) {
            // The report's last line is the replay line; the panic
            // carries it into the proptest failure output.
            panic!("engine diverged from an oracle:\n{report}");
        }
    }
}

/// A pinned seed: always runs, independent of the random case stream,
/// and doubles as the replay-workflow round-trip check — the printed
/// replay line must regenerate the exact same scenario and pass again.
#[test]
fn pinned_seed_and_replay_line_round_trip() {
    let sc = Scenario::from_seed(Preset::Engine, 20_260_806);
    let out = run_engine_conformance(&sc).expect("pinned engine seed diverged");
    assert_eq!(out.departures + out.refusals, out.offered);

    let replayed = Scenario::from_replay_line(&sc.replay_line()).expect("replay line parses");
    assert_eq!(replayed.preset, Preset::Engine);
    assert_eq!(replayed.seed, sc.seed);
    let again = run_engine_conformance(&replayed).expect("replayed scenario diverged");
    // The whole pipeline is deterministic, so the replay reproduces the
    // run exactly — same offered/served/refused accounting.
    assert_eq!(
        (
            again.shards,
            again.batch,
            again.offered,
            again.departures,
            again.refusals
        ),
        (
            out.shards,
            out.batch,
            out.offered,
            out.departures,
            out.refusals
        ),
    );
}

/// Divergence reports must carry the replay line even when produced by
/// the fuzz driver's `check` path (a failing seed found at night must
/// be reproducible in the morning).
#[test]
fn reports_embed_the_replay_line() {
    let sc = Scenario::from_seed(Preset::Engine, 7);
    assert!(sc.replay_line().contains("preset=engine seed=7"));
    // No real divergence exists to format, but the accounting fields of
    // a passing run prove the differential actually executed.
    let out = run_engine_conformance(&sc).expect("seed 7 diverged");
    assert!(out.offered > 0);
}
