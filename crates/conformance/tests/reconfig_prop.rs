//! Property tests for live reconfiguration: Theorem-1 reconvergence
//! under random mid-backlog weight changes, and the chaos preset as a
//! property over random seeds. `PROPTEST_CASES` raises the case count
//! in CI; the replay line for any failing chaos seed is embedded in the
//! panic message.

use analysis::sfq_fairness_bound;
use conformance::{run_chaos_conformance, Preset, Scenario};
use proptest::prelude::*;
use sfq_core::{FlowId, PacketFactory, Scheduler, Sfq, TieBreak};
use sfq_obs::FlowMetrics;
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After an arbitrary mid-backlog weight change on both flows, the
    /// post-settling service spread obeys the Theorem 1 bound computed
    /// from the NEW weights. Settling serves past the two old-rate
    /// heads (the only packets the tag-rewrite rule leaves at the old
    /// rate); the measurement window then starts from fresh watermarks
    /// at the new weights.
    #[test]
    fn reconvergence_holds_for_random_weight_changes(
        l1_raw in 200u64..1_001,
        l2_raw in 200u64..1_001,
        w1_k in 8u64..65,
        w2_k in 8u64..65,
        m1 in 1u64..9,
        m2 in 1u64..9,
    ) {
        let metrics = Rc::new(RefCell::new(FlowMetrics::new()));
        let mut sfq = Sfq::with_observer(TieBreak::Fifo, Rc::clone(&metrics));
        let (f1, f2) = (FlowId(1), FlowId(2));
        let (l1, l2) = (Bytes::new(l1_raw), Bytes::new(l2_raw));
        let (w1, w2) = (Rate::bps(1_000 * w1_k), Rate::bps(1_000 * w2_k));
        sfq.add_flow(f1, w1);
        sfq.add_flow(f2, w2);

        // Deep standing backlogs: 200 per flow covers the worst case
        // where the post-change ratio (up to 4x:0.5x = 8:1 here, and
        // floored at 4 kbps) steers nearly every dequeue to one flow
        // through the 94 serviced packets.
        let mut fac = PacketFactory::new();
        let t = SimTime::ZERO;
        for _ in 0..200 {
            sfq.enqueue(t, fac.make(f1, l1, t));
            sfq.enqueue(t, fac.make(f2, l2, t));
        }
        for _ in 0..10 {
            sfq.dequeue(t);
        }
        let w1n = Rate::bps(w1.as_bps() * m1 / 2).max(Rate::bps(4_000));
        let w2n = Rate::bps(w2.as_bps() * m2 / 2).max(Rate::bps(4_000));
        sfq.try_set_weight(f1, w1n).unwrap();
        sfq.try_set_weight(f2, w2n).unwrap();
        // Settling: twice the one-head-per-flow bound.
        for _ in 0..4 {
            sfq.dequeue(t);
        }
        // Fresh watermark window at the new weights.
        *metrics.borrow_mut() = FlowMetrics::new();
        sfq.add_flow(f1, w1n);
        sfq.add_flow(f2, w2n);
        for _ in 0..80 {
            sfq.dequeue(t);
        }
        prop_assert!(sfq.backlog(f1) > 0 && sfq.backlog(f2) > 0,
            "both flows must stay backlogged through the measurement window");
        let spread = metrics
            .borrow()
            .worst_spread_between(f1, f2)
            .unwrap_or(Ratio::ZERO);
        let bound = sfq_fairness_bound(l1, w1n, l2, w2n);
        prop_assert!(
            spread <= bound,
            "spread {spread:?} > bound {bound:?} after reconvergence \
             (w1 {w1:?}->{w1n:?}, w2 {w2:?}->{w2n:?}, l1 {l1:?}, l2 {l2:?})"
        );
    }

    /// The chaos preset holds as a property over random seeds: every
    /// seed's no-op identity, conservation, and reconvergence legs
    /// pass, and the workload is never degenerate.
    #[test]
    fn chaos_conformance_over_random_seeds(seed in 0u64..1 << 48) {
        let sc = Scenario::from_seed(Preset::Chaos, seed);
        let out = run_chaos_conformance(&sc)
            .map_err(TestCaseError::fail)?;
        prop_assert!(out.offered > 0);
        prop_assert_eq!(out.departures + out.refusals, out.offered);
        prop_assert!(out.recovery_spread <= out.fairness_bound);
    }
}
