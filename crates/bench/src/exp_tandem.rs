//! Section 2.4 / Corollary 1: end-to-end delay over a tandem of K SFQ
//! servers, measured against the deterministic bound for a leaky-
//! bucket-conforming flow (Appendix A.5).

use analysis::{e2e_delay_bound, scfq_delay_term, sfq_delay_term, wfq_delay_term};
use baselines::{Scfq, VirtualClock};
use graph::{GraphSpec, PortSpec};
use servers::RateProfile;
use sfq_core::{FlowId, Scheduler, Sfq};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use traffic::{arrivals_until, CbrSource, LeakyBucket, PoissonSource};

/// Result for one tandem length K.
#[derive(Debug, Clone)]
pub struct TandemResult {
    /// Number of servers K.
    pub k: usize,
    /// Measured max end-to-end delay of the observed flow (s).
    pub measured_max_s: f64,
    /// Corollary 1 + A.5 deterministic bound (s).
    pub bound_s: f64,
}

/// The shared setting of both experiments: the observed flow is
/// `(σ, ρ)`-leaky-bucket-shaped Poisson traffic (64 Kb/s, 200-byte
/// packets, σ = 3 packets) crossing every hop; each hop also carries
/// nine 100 Kb/s CBR cross-traffic flows on a 1 Mb/s link, 1 ms apart.
struct Setting {
    link: Rate,
    len: Bytes,
    rho: Rate,
    sigma_bits: u64,
    prop: SimDuration,
    n_cross: u32,
    cross_rate: Rate,
    horizon: SimTime,
    /// The observed flow's shaped arrivals.
    shaped: Vec<(SimTime, Bytes)>,
}

impl Setting {
    fn new(horizon: SimTime, seed: u64) -> Self {
        let (len, rho) = (Bytes::new(200), Rate::kbps(64));
        let sigma_bits = 3 * len.bits();
        // Shaped source: Poisson at ρ through a (σ, ρ) bucket.
        let raw = arrivals_until(
            PoissonSource::with_rate(SimTime::ZERO, rho, len, des::SimRng::new(seed)),
            horizon,
        );
        Setting {
            link: Rate::mbps(1),
            len,
            rho,
            sigma_bits,
            prop: SimDuration::from_millis(1),
            n_cross: 9,
            cross_rate: Rate::kbps(100),
            horizon,
            shaped: LeakyBucket::new(sigma_bits, rho).shape(&raw),
        }
    }

    fn cross_flow(&self, h: usize, cfid: u32) -> FlowId {
        FlowId(100 * (h as u32 + 1) + cfid)
    }

    /// Run a `k`-hop chain whose hop `h` schedules with `mk(h)` and
    /// return the observed flow's largest end-to-end delay (s).
    ///
    /// Fresh cross traffic at every hop: each hop h carries its own set
    /// of local CBR flows that enter and exit there, so the observed
    /// flow meets independent contention at each server — the setting
    /// Corollary 1 is really about.
    fn measure(&self, k: usize, mk: &mut dyn FnMut(usize) -> Box<dyn Scheduler>) -> f64 {
        let mut exits = vec![(FlowId(1), k - 1)];
        let mut hops = Vec::with_capacity(k);
        for h in 0..k {
            let mut flows = vec![(FlowId(1), self.rho)];
            for cfid in 0..self.n_cross {
                flows.push((self.cross_flow(h, cfid), self.cross_rate));
                exits.push((self.cross_flow(h, cfid), h));
            }
            hops.push(PortSpec::new(RateProfile::constant(self.link), flows));
        }
        let mut g = GraphSpec::chain(hops, &exits, self.prop).build_with(mk);
        g.add_source(0, FlowId(1), &self.shaped);
        for h in 0..k {
            for cfid in 0..self.n_cross {
                // Stagger CBR starts to avoid full synchronization.
                let start = SimTime::from_millis((h as i128) * 3 + cfid as i128);
                let src = CbrSource::with_rate(start, self.cross_rate, self.len);
                let arr = arrivals_until(src, self.horizon);
                g.add_source(h, self.cross_flow(h, cfid), &arr);
            }
        }
        let report = g.run(self.horizon + SimDuration::from_secs(5));
        report
            .transits
            .iter()
            .filter(|t| t.pkt.flow == FlowId(1))
            .filter_map(|t| {
                t.delivered
                    .map(|(_, done)| (done - t.pkt.arrival).as_secs_f64())
            })
            .fold(0.0, f64::max)
    }

    fn bound(&self, betas: &[SimDuration]) -> f64 {
        let props = vec![self.prop; betas.len().saturating_sub(1)];
        e2e_delay_bound(self.sigma_bits, self.rho, self.len, betas, &props).as_secs_f64()
    }
}

/// Run the tandem experiment for each K in `ks` (see [`Setting`]).
pub fn tandem(ks: &[usize], horizon: SimTime, seed: u64) -> Vec<TandemResult> {
    let s = Setting::new(horizon, seed);
    // Per-hop β: Theorem 4 term with δ = 0 and 9 cross flows.
    let beta = sfq_delay_term(&vec![s.len; s.n_cross as usize], s.len, s.link, 0);
    ks.iter()
        .map(|&k| TandemResult {
            k,
            measured_max_s: s.measure(k, &mut |_| Box::new(Sfq::new())),
            bound_s: s.bound(&vec![beta; k]),
        })
        .collect()
}

/// Result of the mixed-discipline tandem (Section 2.4's
/// interoperability claim: any scheduler satisfying Eq. 62 composes
/// under Corollary 1).
#[derive(Debug, Clone)]
pub struct MixedTandemResult {
    /// Disciplines, hop by hop.
    pub disciplines: Vec<String>,
    /// Measured max end-to-end delay (s).
    pub measured_max_s: f64,
    /// Corollary 1 bound composed from each discipline's own β (s).
    pub bound_s: f64,
}

/// A 3-hop tandem running SFQ, SCFQ, and Virtual Clock in sequence.
/// Each discipline contributes its own per-hop delay term β to the
/// Corollary 1 composition:
/// SFQ: `Σ_{n≠f} l_n^max/C + l/C`; SCFQ: `Σ_{n≠f} l_n^max/C + l/r`;
/// VC (and WFQ): `l/r + l_max/C`.
pub fn tandem_mixed(horizon: SimTime, seed: u64) -> MixedTandemResult {
    let s = Setting::new(horizon, seed);
    let mut names = Vec::new();
    let measured_max_s = s.measure(3, &mut |h| {
        let sched: Box<dyn Scheduler> = match h {
            0 => Box::new(Sfq::new()),
            1 => Box::new(Scfq::new()),
            _ => Box::new(VirtualClock::new()),
        };
        names.push(sched.name().to_string());
        sched
    });
    let others = vec![s.len; s.n_cross as usize];
    let betas = [
        sfq_delay_term(&others, s.len, s.link, 0),
        scfq_delay_term(&others, s.len, s.rho, s.link),
        wfq_delay_term(s.len, s.rho, s.len, s.link),
    ];
    MixedTandemResult {
        disciplines: names,
        measured_max_s,
        bound_s: s.bound(&betas),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_disciplines_compose_under_corollary1() {
        let r = tandem_mixed(SimTime::from_secs(30), 5);
        assert_eq!(r.disciplines, vec!["SFQ", "SCFQ", "VirtualClock"]);
        assert!(
            r.measured_max_s <= r.bound_s,
            "interoperability bound violated: {r:?}"
        );
        assert!(r.measured_max_s > 0.0);
    }

    #[test]
    fn bound_holds_and_grows_with_k() {
        let res = tandem(&[1, 3, 5], SimTime::from_secs(30), 11);
        for r in &res {
            assert!(
                r.measured_max_s <= r.bound_s,
                "Corollary 1 violated at K={}: {r:?}",
                r.k
            );
            assert!(r.measured_max_s > 0.0);
        }
        assert!(res[2].bound_s > res[0].bound_s);
        assert!(res[2].measured_max_s >= res[0].measured_max_s);
    }
}
