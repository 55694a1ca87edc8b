//! Live weight changes on a busy engine: every `try_set_weight` moves a
//! shard's aggregate weight at the root, so the root's tags cross a new
//! rate each time. A tag written exactly at every such rate grows its
//! denominator like the lcm of all the rates crossed; the root and the
//! exact shards keep every tag they write on the picosecond grid
//! instead, so no sequence of API calls runs them out of `i128`.

use sfq_core::{FlowId, PacketFactory};
use sfq_engine::{Engine, EngineConfig, ShardSched};
use simtime::{Bytes, Rate, SimTime};

/// SplitMix64: a fixed stream of draws, no dependency.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `lo..=hi`.
    fn within(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

const FLOWS: u32 = 8;
const ROUNDS: usize = 20_000;

/// Eight flows at `1 000 + 7 919·f` b/s on two shards, batch 4: each
/// round ingests one packet per flow and drains six, and every tenth
/// round moves one flow to a random rate between 1 kb/s and 2 Mb/s.
/// Every drain and every weight change must succeed.
fn reweigh_every_ten_rounds<S: ShardSched>(mut eng: Engine<S>) {
    for f in 0..FLOWS {
        let bps = 1_000 + 7_919 * u64::from(f);
        eng.try_add_flow(FlowId(f), Rate::bps(bps)).unwrap();
    }
    let mut draws = Draws(46);
    let mut pf = PacketFactory::new();
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        let now = SimTime::from_micros(round as i128);
        for f in 0..FLOWS {
            let len = Bytes::new(draws.within(64, 1_500));
            // A full shard refuses with `BufferFull`: backpressure, not
            // an error of the run.
            let _ = eng.try_ingest(pf.make(FlowId(f), len, now));
        }
        out.clear();
        if let Err(e) = eng.drain(now, 6, &mut out) {
            panic!("round {round}: drain failed: {e}");
        }
        if round % 10 == 9 {
            let flow = FlowId(draws.within(0, u64::from(FLOWS) - 1) as u32);
            let rate = Rate::bps(draws.within(1_000, 2_000_000));
            if let Err(e) = eng.try_set_weight(flow, rate) {
                panic!("round {round}: try_set_weight({flow}, {rate}) failed: {e}");
            }
        }
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(2).batch(4)
}

#[test]
fn fixed_point_shards_survive_live_weight_changes() {
    reweigh_every_ten_rounds(Engine::new_fast(config()));
}

#[test]
fn exact_shards_survive_live_weight_changes() {
    reweigh_every_ten_rounds(Engine::new(config()));
}
