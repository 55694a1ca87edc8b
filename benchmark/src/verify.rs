//! Output checks every run makes before it reports a number.

use crate::closed::Sink;
use crate::inputs::{weight, LEN_MAX};
use sfq_core::Packet;

/// FNV-1a over 64-bit words: the digest of a departure sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Failed checks of one run. Any entry makes the run incorrect and
/// counts every packet it offered as failed.
#[derive(Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record `what()` unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// No check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The verification pass's sink: per-flow books for the Theorem 1
/// check and a digest of the departure order.
pub struct Verify {
    backlog: Vec<u32>,
    emptied: Vec<bool>,
    served_bits: Vec<u64>,
    /// Digest of `(uid, flow, length)` in departure order over the
    /// first `digest_len` departures.
    pub digest: Fnv,
    digest_left: u64,
}

impl Verify {
    /// Books for `flows` flows each holding `depth` packets.
    pub fn new(flows: u32, depth: u32, digest_len: u64) -> Verify {
        Verify {
            backlog: vec![depth; flows as usize],
            emptied: vec![false; flows as usize],
            served_bits: vec![0; flows as usize],
            digest: Fnv::new(),
            digest_left: digest_len,
        }
    }

    /// Normalized service `W_f / r_f` (seconds) over the flows that
    /// stayed backlogged for the whole pass: (max − min, smallest two
    /// weights among them in bit/s, how many there were).
    pub fn spread(&self) -> Option<Spread> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut slow = [u64::MAX; 2];
        let mut eligible = 0usize;
        for f in 0..self.backlog.len() {
            if self.emptied[f] {
                continue;
            }
            eligible += 1;
            let r = weight(f as u32).as_bps();
            let x = self.served_bits[f] as f64 / r as f64;
            lo = lo.min(x);
            hi = hi.max(x);
            if r < slow[0] {
                slow = [r, slow[0]];
            } else if r < slow[1] {
                slow[1] = r;
            }
        }
        (eligible >= 2).then_some(Spread {
            gap_s: hi - lo,
            slowest_bps: slow,
            eligible,
        })
    }
}

/// Result of [`Verify::spread`].
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    /// max − min of `W_f / r_f`, seconds of normalized service.
    pub gap_s: f64,
    /// The two smallest weights among the eligible flows.
    pub slowest_bps: [u64; 2],
    /// Flows that never emptied.
    pub eligible: usize,
}

impl Spread {
    /// Theorem 1's bound `l_f/r_f + l_m/r_m` for the pair of eligible
    /// flows it is loosest for. Every pair's gap is within its own
    /// bound, hence within this one.
    pub fn theorem1_bound_s(&self) -> f64 {
        let bits = (LEN_MAX * 8) as f64;
        bits / self.slowest_bps[0] as f64 + bits / self.slowest_bps[1] as f64
    }
}

impl Sink for Verify {
    fn offered(&mut self, p: &Packet) {
        self.backlog[p.flow.0 as usize] += 1;
    }

    fn delivered(&mut self, p: &Packet) {
        let f = p.flow.0 as usize;
        self.served_bits[f] += p.len.bits();
        self.backlog[f] -= 1;
        if self.backlog[f] == 0 {
            self.emptied[f] = true;
        }
        if self.digest_left > 0 {
            self.digest_left -= 1;
            self.digest.word(p.uid);
            self.digest.word(p.flow.0 as u64);
            self.digest.word(p.len.as_u64());
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(-1.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::packet;
    use simtime::SimTime;

    #[test]
    fn spread_skips_flows_that_emptied() {
        let mut v = Verify::new(3, 1, 8);
        let t = SimTime::ZERO;
        // Flow 2 drains to zero and is excluded; flows 0 and 1 stay.
        for (uid, f) in [(0u64, 0u32), (1, 1), (2, 2)] {
            v.offered(&packet(f, 1500, uid, t));
        }
        v.delivered(&packet(0, 1500, 0, t));
        v.delivered(&packet(2, 64, 2, t));
        v.delivered(&packet(2, 64, 3, t));
        let s = v.spread().unwrap();
        assert_eq!(s.eligible, 2);
        assert_eq!(s.slowest_bps, [64_000, 65_000]);
        assert!((s.gap_s - 12_000.0 / 64_000.0).abs() < 1e-12);
        assert!(s.gap_s <= s.theorem1_bound_s());
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Fnv::new();
        let mut b = Fnv::new();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}
