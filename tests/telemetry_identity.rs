//! Counter pages ≡ the synchronous `CountingObserver` (see
//! `docs/telemetry.md`): a page is written with relaxed stores and read
//! through a seqlock, and any divergence from the observer inside the
//! scheduler's event path means a recording hook is missing,
//! double-firing, or torn. Both contracts — pages ≡ counts (core
//! schedulers and the engine, whose books must also match the driver's
//! offered / refused ledger) and batch calls ≡ single calls with whole
//! pages compared after every call — are row groups of the twin table
//! (`conformance::twin`, `tests/twin_table.rs`). The tests below are
//! views of those rows: seed walks, and two pinned schedules that always
//! run.

use conformance::twin::{check_rows, Contract, Op, Schedule};
use proptest::prelude::*;
use sfq_repro::prelude::*;

/// Six flows and the spare index the schedules never register.
const WEIGHTS: [u64; 7] = [64_000, 128_000, 32_000, 256_000, 96_000, 48_000, 8_000];

/// A hand-built schedule over [`WEIGHTS`] on engines of `shards`
/// shards with backlog bound `ring`.
fn pinned(shards: usize, ring: usize, ops: Vec<Op>) -> Schedule {
    Schedule {
        seed: 0,
        weights: WEIGHTS.to_vec(),
        tie: TieBreak::Fifo,
        rebase: None,
        reregister: false,
        shards,
        ring,
        ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn telemetry_matches_counting_observer(seed in 0u64..u64::MAX) {
        let sc = Schedule::pinned(seed, |_| {});
        check_rows(&sc, Contract::Telemetry, |_| true).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn batch_calls_leave_the_pages_single_calls_leave(seed in 0u64..u64::MAX) {
        let sc = Schedule::pinned(seed, |_| {});
        check_rows(&sc, Contract::Batch, |_| true).map_err(TestCaseError::fail)?;
    }
}

/// Pinned per-packet-vs-per-batch schedule: always runs, with gaps
/// growing from nanoseconds to milliseconds and back so that the
/// sojourns spread over the delay histogram.
#[test]
fn pinned_batches_leave_the_pages_single_calls_leave() {
    let mut ops = Vec::new();
    for i in 0..48u32 {
        ops.push(Op::Tick(3i128.pow(i % 13)));
        let burst = (0..(i * 7) % 11).map(|j| {
            (
                ((i + j) % 6) as usize,
                64 + ((i * 131 + j * 17) % 1400) as u64,
            )
        });
        ops.push(Op::EnqBatch(burst.collect()));
        ops.push(Op::Tick(5i128.pow((i + 4) % 11)));
        ops.push(Op::DeqBatch(((i * 5) % 9) as usize));
    }
    let served: usize = ops
        .iter()
        .map(|op| if let Op::DeqBatch(n) = op { *n } else { 0 })
        .sum();
    assert!(served > 100, "{served} departures asked for");
    let compared = check_rows(&pinned(2, 2048, ops), Contract::Batch, |_| true);
    assert!(compared.unwrap_or_else(|e| panic!("{e}")) > 0);
}

/// Pinned schedule: always runs, exercising every op kind including
/// refusals (backlog bound 16 per shard with a 40-packet burst) and
/// churn.
#[test]
fn pinned_schedule_holds_the_identities() {
    let mut ops: Vec<Op> = (0..40).map(|i| Op::Enq(i % 6, 700 + i as u64)).collect();
    ops.extend([
        Op::SetWeight(1, 13_000),
        Op::DeqBatch(6),
        Op::DropHead(2),
        Op::ForceRemove(3),
        Op::Enq(3, 900), // refused: flow 4 was just removed
        Op::AddFlow(3, 21_000),
        Op::Enq(3, 901),
        Op::DeqBatch(50),
    ]);
    let compared = check_rows(&pinned(2, 16, ops), Contract::Telemetry, |_| true);
    assert!(compared.unwrap_or_else(|e| panic!("{e}")) > 0);
}
