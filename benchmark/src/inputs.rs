//! Seeded inputs shared by the closed-loop workloads. The program only
//! ever sees the `Packet`s generated from these.

use sfq_core::{FlowId, Packet};
use simtime::{Bytes, Rate, SimTime};

/// Packets in flight between a departure and the arrival it triggers
/// (the loop's delay line); a multiple of [`CYCLE`].
pub const IN_FLIGHT: usize = 1 << 14;
/// Arrivals (and departures) per cycle.
pub const CYCLE: usize = 64;
/// Cycles per timed unit: small enough (30–250 µs) that some units
/// fall wholly inside the gaps a noisy neighbour leaves.
pub const UNIT_CYCLES: usize = 4;
/// Packets delivered by one unit of a closed-loop workload.
pub const UNIT_PKTS: u64 = (CYCLE * UNIT_CYCLES) as u64;
/// Largest packet any flow sends, bytes.
pub const LEN_MAX: u64 = 1500;

/// SplitMix64 step: the harness's own generator, so scripts do not
/// depend on the program's `rand` stand-in.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trimodal packet length: 64 / 576 / 1500 bytes at 50 / 30 / 20 %.
pub fn trimodal(draw: u64) -> u16 {
    match draw % 100 {
        0..=49 => 64,
        50..=79 => 576,
        _ => LEN_MAX as u16,
    }
}

/// Weight of flow `f`: 64 + (f mod 512) kbit/s.
pub fn weight(f: u32) -> Rate {
    Rate::kbps(64 + (f % 512) as u64)
}

/// Inputs of one closed-loop workload for one seed.
///
/// Every flow is a window-limited source: a departure of flow `f`
/// releases `f`'s next packet, which arrives [`IN_FLIGHT`] packets
/// later. So every flow keeps `depth` packets plus its share of the
/// delay line in the system for the whole run — queues neither drain
/// nor pile up, whatever the run's length — and the arrival order is
/// the discipline's own weight-proportional departure order, delayed.
pub struct ClosedInputs {
    /// Number of flows.
    pub flows: u32,
    /// Packets preloaded per flow.
    pub depth: u32,
    seed: u64,
    /// Flows of the packets in flight at the start, drawn
    /// weight-proportionally: the stationary state of the loop.
    pub in_flight: Vec<u32>,
}

impl ClosedInputs {
    /// Generate the inputs for `flows` flows from `seed`.
    pub fn generate(flows: u32, depth: u32, seed: u64) -> ClosedInputs {
        let mut cum = Vec::with_capacity(flows as usize);
        let mut total = 0u64;
        for f in 0..flows {
            total += weight(f).as_bps();
            cum.push(total);
        }
        let mut rng = seed ^ 0x5F51_5F62_656E_6368;
        let in_flight = (0..IN_FLIGHT)
            .map(|_| {
                let x = splitmix64(&mut rng) % total;
                cum.partition_point(|&c| c <= x) as u32
            })
            .collect();
        ClosedInputs {
            flows,
            depth,
            seed,
            in_flight,
        }
    }

    /// Length of the packet with uid `uid`: a seeded hash, so no
    /// script competes with the program for cache.
    #[inline]
    pub fn len_of(&self, uid: u64) -> u16 {
        let mut s = self.seed ^ uid.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        trimodal(splitmix64(&mut s))
    }
}

/// The packet the program sees for one arrival. `seq` is monotone per
/// flow (the uid is), which is all the field promises.
#[inline]
pub fn packet(flow: u32, len: u16, uid: u64, now: SimTime) -> Packet {
    Packet {
        flow: FlowId(flow),
        seq: uid + 1,
        len: Bytes::new(len as u64),
        arrival: now,
        uid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_follow_the_weights() {
        let a = ClosedInputs::generate(512, 64, 7);
        let b = ClosedInputs::generate(512, 64, 7);
        let c = ClosedInputs::generate(512, 64, 8);
        assert_eq!(a.in_flight, b.in_flight);
        assert_ne!(a.in_flight, c.in_flight);
        assert_ne!(
            (0..64).map(|u| a.len_of(u)).collect::<Vec<_>>(),
            (0..64).map(|u| c.len_of(u)).collect::<Vec<_>>()
        );
        // The upper half of the flows holds about 70 % of the weight.
        let upper = a.in_flight.iter().filter(|&&f| f >= 256).count() as f64;
        let share = upper / IN_FLIGHT as f64;
        assert!((0.66..0.74).contains(&share), "share {share}");
        let small = (0..100_000).filter(|&u| a.len_of(u) == 64).count() as f64;
        assert!((small / 100_000.0 - 0.5).abs() < 0.01);
    }
}
