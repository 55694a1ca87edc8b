//! The pooled ≡ owned contract (docs/pooling.md): the slab-pooled
//! `FlowFifos` backend against the owned one. The contract is a row group
//! of the twin table (`conformance::twin`, `tests/twin_table.rs`) —
//! every tag scheduler and the engine facade, exact observer events,
//! under every op of the `Scheduler` surface. The proptests below are
//! pinned views of those rows, one per scheduler and per pinned knob
//! (re-registration before every enqueue, a three-shard engine); the
//! 200 000-flow runs add the size the table's schedules never reach,
//! where the head-of-flow heap outgrows cache and prefetches ahead of
//! its descent (`sfq_core::flowq::HeadHeap`).

use conformance::twin::{check_rows, Contract::Pool, Schedule};
use conformance::{Preset, Scenario};
use proptest::prelude::*;
use sfq_repro::core::DEFAULT_SHIFT;
use sfq_repro::prelude::*;

/// The pool row of `product` on twin seed `seed`, after `pin`.
fn pool_row(
    product: &str,
    seed: u64,
    pin: impl FnOnce(&mut Schedule),
) -> Result<(), TestCaseError> {
    let sc = Schedule::pinned(seed, pin);
    check_rows(&sc, Pool, |p| p == product).map_err(TestCaseError::fail)?;
    Ok(())
}

/// Re-register each packet's flow before every enqueue and weight
/// change: `add_flow` on a live flow must update it in place.
fn reregister(sc: &mut Schedule) {
    sc.reregister = true;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sfq pooled vs owned: identity across tie-break rules, rebasing
    /// and churn, as drawn.
    #[test]
    fn sfq_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("Sfq pooled", seed, |_| {})?;
    }

    /// SfqFast pooled vs owned, same obligation on the fixed-point path.
    #[test]
    fn sfq_fast_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("SfqFast pooled", seed, |_| {})?;
    }

    /// Scfq pooled vs owned.
    #[test]
    fn scfq_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("Scfq pooled", seed, |_| {})?;
    }

    /// ScfqFast pooled vs owned.
    #[test]
    fn scfq_fast_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("ScfqFast pooled", seed, |_| {})?;
    }

    /// The engine facade on pooled shards vs owned ones, three shards.
    #[test]
    fn engine_facade_pooled_is_bit_identical_to_owned(seed in 0u64..u64::MAX) {
        pool_row("engine, pooled shards", seed, |sc| {
            sc.shards = 3;
            sc.ring = 64;
        })?;
    }

    /// Sfq pooled vs owned under register-before-enqueue discipline.
    #[test]
    fn sfq_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("Sfq pooled", seed, reregister)?;
    }

    /// SfqFast, same obligation on the fixed-point path.
    #[test]
    fn sfq_fast_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("SfqFast pooled", seed, reregister)?;
    }

    /// Scfq, same obligation.
    #[test]
    fn scfq_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("Scfq pooled", seed, reregister)?;
    }

    /// ScfqFast, same obligation.
    #[test]
    fn scfq_fast_reregistration_is_bit_identical(seed in 0u64..u64::MAX) {
        pool_row("ScfqFast pooled", seed, reregister)?;
    }
}

/// A pool row's failure ends in the twin preset's replay line (the
/// `pool` preset is folded into the twin table); the line round-trips
/// to the same schedule and reproduces the pool rows' check.
#[test]
fn pool_preset_replay_line_reproduces_the_differential_check() {
    let sc = Scenario::from_seed(Preset::Twin, 5);
    assert_eq!(sc.replay_line(), "conformance replay: preset=twin seed=5");
    let back = Scenario::from_replay_line(&sc.replay_line()).expect("round trip");
    assert_eq!((back.preset, back.seed), (Preset::Twin, 5));
    let (first, again) = (Schedule::of(&sc), Schedule::of(&back));
    assert_eq!(first.ops, again.ops);
    let pool = |sc| check_rows(sc, Pool, |_| true).unwrap_or_else(|e| panic!("{e}"));
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
/// `force_remove_flow` handing its freed slot (generation bumped) to the
/// flow registered next, `drop_head`, and `remove_flow` on flows that
/// drained — with the pooled backend held to the owned oracle's exact
/// departure order.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows() {
    pooled_matches_owned_at_200k_flows(None);
}

/// The same scenario served 32 at a time through `dequeue_batch`, so
/// the batch path's dequeue look-ahead (and its run path, which moves a
/// flow slot's `head`/`second` several packets per heap pass) works past
/// the heap's cold threshold against the oracle too.
#[test]
fn sfq_fast_pooled_is_bit_identical_to_owned_at_200k_flows_in_batches() {
    pooled_matches_owned_at_200k_flows(Some(32));
}

/// `batch`: `None` serves through `dequeue` + `on_departure`, `Some(n)`
/// through `dequeue_batch(n)`.
fn pooled_matches_owned_at_200k_flows(batch: Option<usize>) {
    const FLOWS: u32 = 200_000;
    let weight = |f: u32| Rate::kbps(64 + (f % 512) as u64);
    let len = |uid: u64| Bytes::new(64 + uid.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1437);
    let run = |backend: FifoBackend| {
        let mut s = SfqFast::with_parts(TieBreak::Fifo, DEFAULT_SHIFT, NoopObserver, backend)
            .expect("default shift is valid");
        let now = SimTime::ZERO;
        let mut uid = 0u64;
        let mut offer = |s: &mut SfqFast, f: u32| {
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
        // Stale entries: a removed flow's entry stays behind, and so
        // does a dropped head's while the new head gets its own.
        let mut dropped = 0;
        for f in (0..FLOWS).step_by(97) {
            dropped += s.force_remove_flow(FlowId(f));
            offer(&mut s, f);
        }
        for f in (0..FLOWS).step_by(89) {
            dropped += usize::from(s.drop_head(FlowId(f)).is_some());
        }
        let stale_after_faults = s.head_heap_len() - FLOWS as usize;
        // Closed loop: every third departure's flow is re-offered, the
        // others drain towards empty and are removed once idle.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut served = 0usize;
        let mut out = Vec::new();
        let mut serve = |s: &mut SfqFast, out: &mut Vec<Packet>| {
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
    };
    let (dp, np, stale_p, removed_p) = run(FifoBackend::Pooled);
    let (d_o, n_o, stale_o, removed_o) = run(FifoBackend::Owned);
    assert_eq!((dp, np), (d_o, n_o), "departure order diverged");
    assert_eq!(stale_p, stale_o, "stale heap entries diverged");
    assert!(stale_p > 2_000, "the faults left stale entries: {stale_p}");
    assert_eq!(removed_p, removed_o, "idle removals diverged");
    assert!(removed_p > 1_000, "idle flows were removed: {removed_p}");
}
