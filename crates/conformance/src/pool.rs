//! Pooled-backend conformance: the zero-allocation data path proven
//! against its owned oracle, packaged as a seeded scenario check.
//!
//! A [`Preset::Pool`](crate::scenario::Preset::Pool) scenario drives
//! churn-heavy traffic (flow removals and revivals mid-run) through the
//! default slab-pooled `FlowFifos` backend and the `HashMap`/`VecDeque`
//! owned backend on identical arrivals and server profiles. Unlike the
//! fixed-point differential, no quantization caveat applies: the pooled
//! backend changes *storage*, not *arithmetic*, so the two sides must
//! produce bit-identical departure schedules unconditionally — for the
//! exact rational schedulers and the u64 fast paths alike. Any
//! divergence (packet identity, service start, departure instant) is a
//! bug in the slab pool, the intrusive links, or the generation-checked
//! flow table. A failure message carries the first divergence's
//! minimized observer trace plus the
//! `conformance replay: preset=pool seed=N` line.

use crate::diff::{diff_schedulers, SchedKind};
use crate::scenario::Scenario;

/// Successful pooled-vs-owned differential run.
#[derive(Debug)]
pub struct PoolOutcome {
    /// Departures compared across all four scheduler pairs.
    pub compared: usize,
}

/// Replay `sc` through every scheduler on both `FlowFifos` backends
/// (pooled default vs owned oracle); `Err` carries the rendered first
/// divergence (replay line included) of whichever pair disagrees first.
pub fn run_pool_conformance(sc: &Scenario) -> Result<PoolOutcome, String> {
    let mut compared = 0;
    for (pooled, owned) in [
        (SchedKind::Sfq, SchedKind::SfqOwned),
        (SchedKind::Scfq, SchedKind::ScfqOwned),
        (SchedKind::SfqFast, SchedKind::SfqFastOwned),
        (SchedKind::ScfqFast, SchedKind::ScfqFastOwned),
    ] {
        let rep = diff_schedulers(sc, owned, pooled);
        if let Some(d) = rep.divergence {
            return Err(format!(
                "pooled {} diverged from owned-backend {}:\n{}",
                pooled.name(),
                owned.name(),
                d.detail
            ));
        }
        compared += rep.compared;
    }
    Ok(PoolOutcome { compared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn pool_preset_churns_by_construction() {
        for seed in 0..32u64 {
            let sc = Scenario::from_seed(Preset::Pool, seed);
            assert_eq!(sc.hops, 1, "seed {seed}");
            assert!(!sc.churns.is_empty(), "seed {seed}: no churn events");
            assert!(sc.flows.len() >= 4, "seed {seed}: {} flows", sc.flows.len());
            for c in &sc.churns {
                assert!(
                    sc.flows.iter().any(|f| f.id == c.flow),
                    "seed {seed}: churn targets unknown flow {:?}",
                    c.flow
                );
            }
        }
    }

    #[test]
    fn pooled_matches_owned_on_seeded_scenarios() {
        for seed in [1u64, 7, 42] {
            let sc = Scenario::from_seed(Preset::Pool, seed);
            let out = run_pool_conformance(&sc).unwrap_or_else(|d| panic!("seed {seed}:\n{d}"));
            assert!(out.compared > 0, "seed {seed} produced no departures");
        }
    }
}
