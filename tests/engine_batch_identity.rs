//! Batch calls ≡ the per-packet loops that specify them:
//! `try_enqueue_batch` must leave the scheduler exactly as `try_enqueue`
//! of each packet (stopping at the first error), and `dequeue_batch(n)`
//! exactly as `n` rounds of `dequeue` + `on_departure`. The contract is
//! a row group of the twin table (`conformance::twin`,
//! `tests/twin_table.rs`): packets, exact observer events and whole
//! pages after every call. The tests below are pinned views of those
//! rows — one per scheduler, with eager rebasing (threshold 0, the
//! adversarial case for one rebase check per batch) and the weight-
//! ordered tie-breaks pinned, and a three-shard engine.

use conformance::twin::{check_rows, Contract::Batch, Op, Schedule};
use proptest::prelude::*;
use sfq_repro::prelude::*;

/// The batch row of `product` on twin seed `seed`, after `pin`.
fn batch_row(
    product: &str,
    seed: u64,
    pin: impl FnOnce(&mut Schedule),
) -> Result<(), TestCaseError> {
    let sc = Schedule::pinned(seed, pin);
    check_rows(&sc, Batch, |p| p == product).map_err(TestCaseError::fail)?;
    Ok(())
}

/// Eager rebasing: the rebase predicate fires at every opportunity.
fn eager(sc: &mut Schedule) {
    sc.rebase = Some(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sfq_batch_is_bit_identical(seed in 0u64..u64::MAX) {
        batch_row("Sfq, batch calls", seed, |_| {})?;
    }

    #[test]
    fn sfq_batch_identity_survives_eager_rebasing(seed in 0u64..u64::MAX) {
        batch_row("Sfq, batch calls", seed, eager)?;
    }

    #[test]
    fn sfq_batch_identity_holds_under_tiebreaks(seed in 0u64..u64::MAX) {
        let tie = [TieBreak::LowWeightFirst, TieBreak::HighWeightFirst][seed as usize % 2];
        batch_row("Sfq, batch calls", seed, |sc| sc.tie = tie)?;
    }

    #[test]
    fn scfq_batch_is_bit_identical(seed in 0u64..u64::MAX) {
        batch_row("Scfq, batch calls", seed, |_| {})?;
    }

    #[test]
    fn scfq_batch_identity_survives_eager_rebasing(seed in 0u64..u64::MAX) {
        batch_row("Scfq, batch calls", seed, eager)?;
    }

    /// The sharded engine's `Scheduler` facade: its batch calls must
    /// match its own per-packet facade exactly.
    #[test]
    fn engine_scheduler_facade_batch_is_identical(seed in 0u64..u64::MAX) {
        batch_row("engine, batch calls", seed, |sc| {
            sc.shards = 3;
            sc.ring = 2048;
        })?;
    }
}

/// The trait's default `try_enqueue_batch`/`dequeue_batch` are per-packet
/// loops by definition: a discipline with no override (here: FIFO)
/// satisfies the identity through the defaults.
#[test]
fn default_batch_impls_match_per_packet_for_fifo() {
    let sc = Schedule {
        seed: 0,
        weights: vec![64_000, 128_000, 256_000, 8_000],
        tie: TieBreak::Fifo,
        rebase: None,
        reregister: false,
        shards: 1,
        ring: 64,
        ops: vec![
            Op::EnqBatch(vec![(0, 100), (1, 900), (0, 400)]),
            Op::DeqBatch(2),
            Op::EnqBatch(vec![(2, 700), (1, 120)]),
            Op::DeqBatch(10),
        ],
    };
    let compared = check_rows(&sc, Batch, |p| p == "Fifo, batch calls");
    assert!(compared.unwrap_or_else(|e| panic!("{e}")) >= sc.ops.len());
}
