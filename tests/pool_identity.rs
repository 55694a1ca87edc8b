//! The pooled flow store against the paper oracle (docs/pooling.md):
//! every tag scheduler on the slab-pooled `FlowFifos` against
//! `conformance::paper`, an SFQ / SCFQ that shares no code with it. The
//! contract is a row group of the twin table (`conformance::twin`,
//! `tests/twin_table.rs`) — exact observer events under every op of the
//! `Scheduler` surface. The proptests below are pinned views of those
//! rows, one per scheduler and per pinned knob (re-registration before
//! every enqueue); their names are older than the paper rows, from when
//! the pooled store's reference was an owned twin of it. The
//! 200 000-flow runs add the size the table's schedules never reach,
//! where the head-of-flow heap outgrows cache and prefetches ahead of
//! its descent (`sfq_core::flowq::HeadHeap`).

use conformance::paper::Paper;
use conformance::twin::{check_rows, Contract, Schedule};
use conformance::{Preset, Scenario};
use proptest::prelude::*;
use sfq_repro::prelude::*;

/// The paper row of `product` on twin seed `seed`, after `pin`.
fn pool_row(
    product: &str,
    seed: u64,
    pin: impl FnOnce(&mut Schedule),
) -> Result<(), TestCaseError> {
    let sc = Schedule::pinned(seed, pin);
    check_rows(&sc, Contract::Paper, |p| p == product).map_err(TestCaseError::fail)?;
    Ok(())
}

/// Re-register each packet's flow before every enqueue and weight
/// change: `add_flow` on a live flow must update it in place.
fn reregister(sc: &mut Schedule) {
    sc.reregister = true;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sfq vs the paper: identity across tie-break rules, rebasing and
    /// churn, as drawn.
    #[test]
    fn sfq_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("Sfq", seed, |_| {})?;
    }

    /// SfqFast vs the paper, on quantization-safe inputs.
    #[test]
    fn sfq_fast_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("SfqFast", seed, |_| {})?;
    }

    /// Scfq vs the paper.
    #[test]
    fn scfq_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("Scfq", seed, |_| {})?;
    }

    /// ScfqFast vs the paper, on quantization-safe inputs.
    #[test]
    fn scfq_fast_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("ScfqFast", seed, |_| {})?;
    }

    /// Sfq vs the paper under register-before-enqueue discipline.
    #[test]
    fn sfq_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("Sfq", seed, reregister)?;
    }

    /// SfqFast, same obligation on the fixed-point path.
    #[test]
    fn sfq_fast_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("SfqFast", seed, reregister)?;
    }

    /// Scfq, same obligation.
    #[test]
    fn scfq_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("Scfq", seed, reregister)?;
    }

    /// ScfqFast, same obligation.
    #[test]
    fn scfq_fast_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("ScfqFast", seed, reregister)?;
    }
}

/// A paper row's failure ends in the twin preset's replay line (the
/// `pool` preset is folded into the twin table); the line round-trips
/// to the same schedule and reproduces the paper rows' check.
#[test]
fn pool_preset_replay_line_reproduces_the_differential_check() {
    let sc = Scenario::from_seed(Preset::Twin, 5);
    assert_eq!(sc.replay_line(), "conformance replay: preset=twin seed=5");
    let back = Scenario::from_replay_line(&sc.replay_line()).expect("round trip");
    assert_eq!((back.preset, back.seed), (Preset::Twin, 5));
    let (first, again) = (Schedule::of(&sc), Schedule::of(&back));
    assert_eq!(first.ops, again.ops);
    let pool = |sc| check_rows(sc, Contract::Paper, |_| true).unwrap_or_else(|e| panic!("{e}"));
    let compared = pool(&first);
    assert!(compared > 0);
    assert_eq!(compared, pool(&again));
}

/// The twin table's schedules never hold more than a few hundred heap
/// entries; the head-of-flow heap only prefetches ahead of its descent
/// once it outgrows cache (`sfq_core::flowq::HeadHeap`, docs/pooling.md).
/// This drives that branch through the real scheduler: 200 000 flows
/// two packets deep (6 MB of heap), a closed loop of served-then-
/// re-offered flows, and every source of stale heap entries —
/// `force_remove_flow` handing its freed slot to the flow registered
/// next, `drop_head`, and `remove_flow` on flows that drained — with
/// `SfqFast` on quantization-safe weights held to the paper oracle's
/// exact departure order.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows() {
    matches_the_paper_at_200k_flows(None);
}

/// The same scenario served 32 at a time through `dequeue_batch`, so
/// the batch path's dequeue look-ahead (and its run path, which moves a
/// flow slot's `head`/`second` several packets per heap pass) works past
/// the heap's cold threshold against the oracle too, whose
/// `dequeue_batch` is the trait's per-packet loop that specifies it.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows_in_batches() {
    matches_the_paper_at_200k_flows(Some(32));
}

/// `batch`: `None` serves through `dequeue` + `on_departure`, `Some(n)`
/// through `dequeue_batch(n)`.
fn matches_the_paper_at_200k_flows(batch: Option<usize>) {
    let fast = run_200k(SfqFast::new(), batch, |s| s.head_heap_len());
    let paper = run_200k(
        Paper::new(false, TieBreak::Fifo, NoopObserver),
        batch,
        |_| 0,
    );
    assert_eq!(
        (fast.0, fast.1),
        (paper.0, paper.1),
        "departure order diverged"
    );
    assert!(fast.2 > 2_000, "the faults left stale entries: {}", fast.2);
    assert_eq!(fast.3, paper.3, "idle removals diverged");
    assert!(fast.3 > 1_000, "idle flows were removed: {}", fast.3);
}

/// Drive `s` through the 200 000-flow scenario; returns the departure
/// digest, the packets served, the heap entries `heap_len` counts past
/// one per flow after the faults, and the idle removals.
fn run_200k<S: Scheduler>(
    mut s: S,
    batch: Option<usize>,
    heap_len: impl Fn(&S) -> usize,
) -> (u64, usize, usize, usize) {
    const FLOWS: u32 = 200_000;
    // Quantization-safe: every span is exact on the fixed-point grid.
    let weight = |f: u32| Rate::bps(1 << (14 + f % 6));
    let len = |uid: u64| Bytes::new(64 + uid.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1437);
    let now = SimTime::ZERO;
    let mut uid = 0u64;
    let mut offer = |s: &mut S, f: u32| {
        // Register-before-enqueue: a removed flow comes back.
        s.add_flow(FlowId(f), weight(f));
        let p = Packet {
            flow: FlowId(f),
            seq: uid + 1,
            len: len(uid),
            arrival: now,
            uid,
        };
        uid += 1;
        s.enqueue(now, p);
    };
    for _ in 0..2 {
        for f in 0..FLOWS {
            offer(&mut s, f);
        }
    }
    // Stale entries: a removed flow's entry stays behind, and so does a
    // dropped head's while the new head gets its own.
    let mut dropped = 0;
    for f in (0..FLOWS).step_by(97) {
        dropped += s.force_remove_flow(FlowId(f));
        offer(&mut s, f);
    }
    for f in (0..FLOWS).step_by(89) {
        dropped += usize::from(s.drop_head(FlowId(f)).is_some());
    }
    let stale_after_faults = heap_len(&s).saturating_sub(FLOWS as usize);
    // Closed loop: every third departure's flow is re-offered, the
    // others drain towards empty and are removed once idle.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut served = 0usize;
    let mut out = Vec::new();
    let mut serve = |s: &mut S, out: &mut Vec<Packet>| {
        out.clear();
        match batch {
            Some(max) => {
                s.dequeue_batch(now, max, out);
            }
            None => {
                if let Some(p) = s.dequeue(now) {
                    s.on_departure(now);
                    out.push(p);
                }
            }
        }
        for p in out.iter() {
            digest = (digest ^ p.uid).wrapping_mul(0x0100_0000_01b3);
        }
        served += out.len();
        !out.is_empty()
    };
    let mut i = 0;
    let mut removed = 0usize;
    while i < 300_000 {
        assert!(serve(&mut s, &mut out), "backlog outlasts the loop");
        for p in &out {
            if i % 3 == 0 {
                offer(&mut s, p.flow.0);
            } else {
                removed += usize::from(s.remove_flow(p.flow));
            }
            i += 1;
        }
    }
    while serve(&mut s, &mut out) {}
    assert_eq!(served + dropped, uid as usize, "every packet accounted for");
    (digest, served, stale_after_faults, removed)
}
