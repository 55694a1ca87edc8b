//! Regression: long runs mixing many pairwise-coprime weights with
//! idle-flow reactivation used to grow exact tag denominators like the
//! lcm of every weight crossed, overflowing `i128` after ~1M packets
//! (first seen in a per-packet cost benchmark at |Q| = 64). The fix
//! snaps every exact tag to a picosecond grid where it is written
//! (`Ratio::snap_pico`); these tests replay the offending pattern.

use sfq_repro::prelude::*;

/// The bench access pattern: round-robin arrivals, min-tag service —
/// high-weight flows repeatedly drain to idle and reactivate off `v`.
fn churn<S: Scheduler>(mut sched: S, q: u32, rounds: usize) {
    for f in 0..q {
        sched.add_flow(FlowId(f), Rate::kbps(64 + f as u64));
    }
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for f in 0..q {
        for _ in 0..4 {
            sched.enqueue(t0, pf.make(FlowId(f), Bytes::new(200), t0));
        }
    }
    for i in 0..rounds {
        let f = FlowId(i as u32 % q);
        sched.enqueue(t0, pf.make(f, Bytes::new(200), t0));
        let p = sched.dequeue(t0).expect("backlogged");
        sched.on_departure(t0);
        std::hint::black_box(p.uid);
    }
}

#[test]
fn sfq_survives_coprime_weight_churn() {
    churn(Sfq::new(), 64, 400_000);
}

#[test]
fn scfq_survives_coprime_weight_churn() {
    churn(Scfq::new(), 64, 400_000);
}

#[test]
fn fair_airport_survives_coprime_weight_churn() {
    churn(FairAirport::new(), 32, 150_000);
}

#[test]
fn hier_sfq_survives_coprime_weight_churn() {
    churn(HierSfq::new(), 64, 400_000);
}

#[test]
fn wide_weight_spread_also_survives() {
    // Weights spanning six orders of magnitude.
    let mut sched = Sfq::new();
    for f in 0..32u32 {
        sched.add_flow(FlowId(f), Rate::bps(1 + 7u64.pow(f % 8) + f as u64));
    }
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for f in 0..32u32 {
        sched.enqueue(t0, pf.make(FlowId(f), Bytes::new(100), t0));
    }
    for i in 0..200_000usize {
        let f = FlowId(i as u32 % 32);
        sched.enqueue(t0, pf.make(f, Bytes::new(100), t0));
        let p = sched.dequeue(t0).expect("backlogged");
        sched.on_departure(t0);
        std::hint::black_box(p.uid);
    }
}

/// The engine's root arbiter is the same kind of server: shards of
/// distinct 17-bit prime weights, each falling behind and restarting
/// from the root's virtual time every round. Unsnapped, the root's tags
/// grow like the product of the primes crossed, and a charge overflows
/// within a few dozen rounds.
#[test]
fn sync_engine_survives_coprime_shard_weights() {
    use sfq_engine::{shard_of, EngineConfig, SyncEngine};
    const SHARDS: usize = 8;
    const PRIMES: [u64; SHARDS] = [
        65_537, 65_539, 65_543, 65_551, 65_557, 65_563, 65_579, 65_581,
    ];
    let mut eng = SyncEngine::new_fast(EngineConfig::new(SHARDS));
    // One flow per shard: the first id that hashes there.
    let flows: Vec<FlowId> = (0..SHARDS)
        .map(|s| {
            (0..)
                .map(FlowId)
                .find(|&f| shard_of(f, SHARDS) == s)
                .expect("every shard owns some id")
        })
        .collect();
    for (&f, &bps) in flows.iter().zip(&PRIMES) {
        eng.try_add_flow(f, Rate::bps(bps)).unwrap();
    }
    let mut rng = SimRng::new(29);
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    let mut out = Vec::new();
    for round in 0..2_000 {
        let mask = rng.uniform_range(0, 1 << SHARDS);
        for (s, &f) in flows.iter().enumerate() {
            if mask >> s & 1 == 1 {
                let len = Bytes::new(rng.uniform_range(64, 1_464));
                eng.try_ingest(pf.make(f, len, t0)).unwrap();
            }
        }
        out.clear();
        let drained = eng.drain(t0, usize::MAX, &mut out);
        assert!(drained.is_ok(), "round {round}: {drained:?}");
    }
    assert_eq!(eng.pending(), 0);
}
