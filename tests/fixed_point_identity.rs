//! The fixed-point fast path (see `docs/fixed_point.md`).
//! Bit-identity on quantization-safe workloads — `SfqFast`/`ScfqFast`
//! against `Sfq`/`Scfq`, exact observer events — is the fixed ≡ exact
//! row of the twin table (`conformance::twin`, `tests/twin_table.rs`);
//! the first two proptests below are pinned views of those rows. The
//! rest of this suite checks what holds off that regime:
//!
//! 1. **Bounded lag watermark on arbitrary workloads.** With arbitrary
//!    (non-power-of-two) weights, spans quantize, so orders may
//!    legitimately diverge — but the `FlowMetrics` lag watermark of a
//!    fast scheduler must still obey Theorem 1 inflated by the
//!    documented quantization slack: after `N` dequeues each flow's
//!    tag error is below `1.5 N 2^-24`, so the pairwise spread bound
//!    `l_f/r_f + l_m/r_m` grows by at most `3 N 2^-24` seconds.
//! 2. **The bound has teeth.** A pinned adversarial workload run at
//!    `shift = 4` (spans of small packets collapse into the 1/16 s
//!    quantum) visibly violates the same bound that `shift = 24`
//!    satisfies, and breaks bit-identity on a quantization-safe
//!    workload.

use conformance::twin::{check_rows, Contract::Fixed, Schedule};
use conformance::{Preset, Scenario};
use proptest::prelude::*;
use sfq_repro::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// The fixed ≡ exact row of `product` on twin seed `seed`: every rate
/// mapped onto the powers of two `2^14..=2^19` b/s, rebasing off.
fn fixed_row(product: &str, seed: u64) -> Result<(), TestCaseError> {
    let sc = Schedule::pinned(seed, |_| {});
    check_rows(&sc, Fixed, |p| p == product).map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SfqFast vs exact Sfq: identical packets *and* identical observer
    /// event streams, exact tags, on quantization-safe workloads.
    #[test]
    fn sfq_fast_is_bit_identical_on_power_of_two_weights(seed in 0u64..u64::MAX) {
        fixed_row("SfqFast", seed)?;
    }

    /// ScfqFast vs exact Scfq, same obligation.
    #[test]
    fn scfq_fast_is_bit_identical_on_power_of_two_weights(seed in 0u64..u64::MAX) {
        fixed_row("ScfqFast", seed)?;
    }
}

/// A fixed row's failure ends in the twin preset's replay line (the
/// `fast` preset is folded into the twin table); the line round-trips
/// to the same schedule and reproduces the fixed rows' check.
#[test]
fn fast_preset_replay_line_reproduces_the_differential_check() {
    let sc = Scenario::from_seed(Preset::Twin, 5);
    assert_eq!(sc.replay_line(), "conformance replay: preset=twin seed=5");
    let back = Scenario::from_replay_line(&sc.replay_line()).expect("round trip");
    assert_eq!((back.preset, back.seed), (Preset::Twin, 5));
    let (first, again) = (Schedule::of(&sc), Schedule::of(&back));
    assert_eq!(first.ops, again.ops);
    let fixed = |sc| check_rows(sc, Fixed, |_| true).unwrap_or_else(|e| panic!("{e}"));
    let compared = fixed(&first);
    assert!(compared > 0);
    assert_eq!(compared, fixed(&again));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary (non-power-of-two) weights: orders may diverge, but
    /// the fast scheduler's FlowMetrics lag watermark stays within
    /// Theorem 1 plus the documented quantization slack.
    #[test]
    fn sfq_fast_lag_watermark_is_bounded_on_arbitrary_workloads(
        r1 in 500u64..50_000,
        r2 in 500u64..50_000,
        lens in prop::collection::vec((64u64..2000, 64u64..2000), 40..80),
    ) {
        let metrics = Rc::new(RefCell::new(FlowMetrics::new()));
        let mut sched = SfqFast::with_observer(TieBreak::Fifo, Rc::clone(&metrics));
        sched.add_flow(FlowId(1), Rate::bps(r1));
        sched.add_flow(FlowId(2), Rate::bps(r2));
        let mut pf = PacketFactory::new();
        let now = SimTime::ZERO;
        let (mut l1max, mut l2max) = (0, 0);
        for &(l1, l2) in &lens {
            sched.enqueue(now, pf.make(FlowId(1), Bytes::new(l1), now));
            sched.enqueue(now, pf.make(FlowId(2), Bytes::new(l2), now));
            l1max = l1max.max(l1);
            l2max = l2max.max(l2);
        }
        let mut n_deq = 0i128;
        while let Some(_p) = sched.dequeue(now) {
            sched.on_departure(now);
            n_deq += 1;
        }
        let spread = metrics
            .borrow()
            .worst_spread_between(FlowId(1), FlowId(2))
            .unwrap_or(Ratio::ZERO);
        let bound = sfq_fairness_bound(
            Bytes::new(l1max), Rate::bps(r1),
            Bytes::new(l2max), Rate::bps(r2),
        );
        // Each side's quantized tag drifts < 1.5 * N * 2^-24 from the
        // exact tag after N dequeues; the pairwise watermark inflates
        // by at most both drifts combined.
        let slack = Ratio::new(3 * n_deq, 1i128 << 24);
        prop_assert!(
            spread <= bound + slack,
            "spread {spread:?} > Theorem 1 bound {bound:?} + slack {slack:?}"
        );
    }
}

/// Build the adversarial two-flow workload of `docs/fixed_point.md`:
/// both flows at `2^14` b/s; flow 1 sends 300 x 100 B (exact span
/// 800/2^14 s ~ 0.0488), flow 2 sends 20 x 2048 B (span exactly 1 s).
/// At shift 4 the small span truncates to zero and clamps to the
/// 1/16 s quantum — a 28% overestimate that starves flow 1.
fn adversarial_run(sched: &mut dyn Scheduler) -> (Vec<u64>, i128) {
    let mut pf = PacketFactory::new();
    let now = SimTime::ZERO;
    let r = Rate::bps(1 << 14);
    sched.add_flow(FlowId(1), r);
    sched.add_flow(FlowId(2), r);
    let mut arrivals = Vec::new();
    for _ in 0..300 {
        arrivals.push(pf.make(FlowId(1), Bytes::new(100), now));
    }
    for _ in 0..20 {
        arrivals.push(pf.make(FlowId(2), Bytes::new(2048), now));
    }
    arrivals.sort_by_key(|p| p.uid);
    for &p in &arrivals {
        sched.enqueue(now, p);
    }
    let mut order = Vec::new();
    while let Some(p) = sched.dequeue(now) {
        sched.on_departure(now);
        order.push(p.uid);
    }
    (order, arrivals.len() as i128)
}

fn spread_of(metrics: &Rc<RefCell<FlowMetrics>>) -> Ratio {
    metrics
        .borrow()
        .worst_spread_between(FlowId(1), FlowId(2))
        .expect("both flows backlogged together")
}

/// Pinned witness: shift 4 visibly violates the bound that shift 24
/// (and the exact scheduler) satisfy, and breaks bit-identity on the
/// same quantization-safe weights. This proves the twin table's
/// fixed ≡ exact row would catch a fixed-point layer with too little
/// precision.
#[test]
fn shift_4_witness_violates_the_bound_that_shift_24_satisfies() {
    let bound = sfq_fairness_bound(
        Bytes::new(100),
        Rate::bps(1 << 14),
        Bytes::new(2048),
        Rate::bps(1 << 14),
    );

    let me = Rc::new(RefCell::new(FlowMetrics::new()));
    let mut exact = Sfq::with_observer(TieBreak::Fifo, Rc::clone(&me));
    let (exact_order, n) = adversarial_run(&mut exact);

    let m24 = Rc::new(RefCell::new(FlowMetrics::new()));
    let mut fast24 = SfqFast::with_observer(TieBreak::Fifo, Rc::clone(&m24));
    let (order24, _) = adversarial_run(&mut fast24);

    let m4 = Rc::new(RefCell::new(FlowMetrics::new()));
    let mut fast4 = SfqFast::with_shift_observer(TieBreak::Fifo, 4, Rc::clone(&m4))
        .expect("shift 4 is within the supported range");
    let (order4, _) = adversarial_run(&mut fast4);

    let slack24 = Ratio::new(3 * n, 1i128 << 24);
    // Shift 24: bit-identical to exact, and both obey Theorem 1.
    assert_eq!(exact_order, order24, "shift 24 must be bit-identical");
    assert!(spread_of(&me) <= bound + slack24);
    assert!(spread_of(&m24) <= bound + slack24);
    // Shift 4: same workload, same bound — visibly violated, and the
    // dequeue order diverges from exact.
    assert_ne!(exact_order, order4, "shift 4 must misorder this workload");
    let s4 = spread_of(&m4);
    assert!(
        s4 > bound + slack24,
        "shift-4 spread {s4:?} unexpectedly within bound {bound:?} + {slack24:?}"
    );
    // "Visibly": the violation is multiples of the bound, not epsilon.
    assert!(s4 > bound * Ratio::from_int(2), "spread {s4:?} not visible");
}
