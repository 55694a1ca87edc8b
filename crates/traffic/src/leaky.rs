//! Leaky bucket shaping and conformance (σ, ρ).
//!
//! The paper uses leaky buckets in two places: Section 2.3 models the
//! residual capacity left to low-priority traffic as FC `(C − ρ, σ)`
//! when the high-priority class is `(σ, ρ)`-shaped, and Appendix A.5
//! derives end-to-end delay bounds for `(σ, ρ)`-conforming flows
//! (`e^j ≤ σ/r`).

use simtime::{Bytes, Rate, Ratio, SimDuration, SimTime};

/// Leaky bucket parameters: burst `σ` (bits) and rate `ρ`.
#[derive(Clone, Copy, Debug)]
pub struct LeakyBucket {
    /// Bucket depth `σ` in bits.
    pub sigma_bits: u64,
    /// Token rate `ρ`.
    pub rho: Rate,
}

impl LeakyBucket {
    /// New bucket. `σ` must hold at least one packet of the flow.
    pub fn new(sigma_bits: u64, rho: Rate) -> Self {
        assert!(rho.as_bps() > 0, "leaky bucket rate must be positive");
        LeakyBucket { sigma_bits, rho }
    }

    /// Shape an arrival sequence: delay each packet until the bucket
    /// holds enough tokens, consuming them on release. Input must be
    /// time-sorted; output is `(release time, len)`, also sorted, and
    /// conforming by construction.
    pub fn shape(&self, arrivals: &[(SimTime, Bytes)]) -> Vec<(SimTime, Bytes)> {
        let sigma = Ratio::from_int(self.sigma_bits as i128);
        let rho = self.rho.as_ratio();
        let mut out = Vec::with_capacity(arrivals.len());
        // Bucket state: tokens at `last` was `tokens` (bits).
        let mut tokens = sigma;
        let mut last = SimTime::ZERO;
        let mut prev_arrival = SimTime::ZERO;
        for &(t, len) in arrivals {
            assert!(t >= prev_arrival, "arrivals must be sorted");
            prev_arrival = t;
            let need = len.bits_ratio();
            assert!(
                need <= sigma,
                "packet larger than bucket depth cannot conform"
            );
            // Refill up to t (or release time if later).
            let mut release = t.max(last);
            tokens = (tokens + rho * (release - last).as_ratio()).min(sigma);
            if tokens < need {
                // Wait until tokens reach `need`.
                let wait = (need - tokens) / rho;
                release += SimDuration::from_ratio(wait);
                tokens = need;
            }
            tokens -= need;
            last = release;
            out.push((release, len));
        }
        out
    }

    /// Exact conformance check: `W(t1, t2) <= σ + ρ (t2 − t1)` for all
    /// interval choices with endpoints at arrival instants. Returns the
    /// worst violation in bits (zero if conforming).
    pub fn violation_bits(&self, arrivals: &[(SimTime, Bytes)]) -> Ratio {
        let sigma = Ratio::from_int(self.sigma_bits as i128);
        let rho = self.rho.as_ratio();
        let mut worst = Ratio::ZERO;
        // For each start index i, cumulative bits in [t_i, t_j] must be
        // <= sigma + rho*(t_j - t_i). Single pass per start: O(n^2) but
        // test-scale only. Equivalent single-pass trick: track max of
        // (prefix_j - rho*t_j) - min over i of (prefix_{i-1} - rho*t_i).
        let Some(&(t0, _)) = arrivals.first() else {
            return worst;
        };
        let mut prefix = Ratio::ZERO;
        let mut min_base = prefix - rho * t0.as_ratio();
        for &(t, len) in arrivals {
            min_base = min_base.min(prefix - rho * t.as_ratio());
            prefix += len.bits_ratio();
            let here = prefix - rho * t.as_ratio();
            let burst = here - min_base;
            if burst - sigma > worst {
                worst = burst - sigma;
            }
        }
        worst
    }

    /// `true` if the arrival sequence conforms to `(σ, ρ)`.
    pub fn conforms(&self, arrivals: &[(SimTime, Bytes)]) -> bool {
        self.violation_bits(arrivals).is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(n: usize, len: u64) -> Vec<(SimTime, Bytes)> {
        vec![(SimTime::ZERO, Bytes::new(len)); n]
    }

    #[test]
    fn conforming_stream_passes() {
        // 1000-bit bucket at 1000 bps; packets of 125 B (1000 bits)
        // spaced 1 s apart conform exactly.
        let lb = LeakyBucket::new(1_000, Rate::bps(1_000));
        let arr: Vec<_> = (0..5)
            .map(|i| (SimTime::from_secs(i), Bytes::new(125)))
            .collect();
        assert!(lb.conforms(&arr));
    }

    #[test]
    fn over_burst_detected() {
        let lb = LeakyBucket::new(1_000, Rate::bps(1_000));
        // Two 1000-bit packets at t=0: burst 2000 > sigma 1000.
        let v = lb.violation_bits(&burst(2, 125));
        assert_eq!(v, Ratio::from_int(1_000));
    }

    #[test]
    fn shaping_makes_conforming() {
        let lb = LeakyBucket::new(1_000, Rate::bps(1_000));
        let shaped = lb.shape(&burst(4, 125));
        assert!(lb.conforms(&shaped));
        // Releases at 0, 1, 2, 3 seconds.
        let times: Vec<SimTime> = shaped.iter().map(|a| a.0).collect();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3),
            ]
        );
    }

    #[test]
    fn bucket_refills_during_idle() {
        let lb = LeakyBucket::new(2_000, Rate::bps(1_000));
        // Burst of 2 at t=0 drains the bucket; after 2 s idle it is
        // full again, so a burst at t=4 passes undelayed.
        let arr = vec![
            (SimTime::ZERO, Bytes::new(125)),
            (SimTime::ZERO, Bytes::new(125)),
            (SimTime::from_secs(4), Bytes::new(125)),
            (SimTime::from_secs(4), Bytes::new(125)),
        ];
        let shaped = lb.shape(&arr);
        assert_eq!(shaped[2].0, SimTime::from_secs(4));
        assert_eq!(shaped[3].0, SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "larger than bucket depth")]
    fn oversized_packet_panics() {
        let lb = LeakyBucket::new(100, Rate::bps(1_000));
        let _ = lb.shape(&[(SimTime::ZERO, Bytes::new(125))]);
    }

    #[test]
    fn shaped_output_of_poisson_conforms() {
        use crate::sources::{arrivals_until, PoissonSource};
        use des::SimRng;
        let src = PoissonSource::with_rate(
            SimTime::ZERO,
            Rate::kbps(64),
            Bytes::new(200),
            SimRng::new(3),
        );
        let arr = arrivals_until(src, SimTime::from_secs(30));
        let lb = LeakyBucket::new(200 * 8 * 3, Rate::kbps(64));
        let shaped = lb.shape(&arr);
        assert!(lb.conforms(&shaped));
        assert_eq!(shaped.len(), arr.len());
    }
}
