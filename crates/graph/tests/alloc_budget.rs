//! Allocation budget of the executor: how often, and how much.
//!
//! `Graph::run` used to build fresh `Vec`s at every dispatch — about
//! 10.5 heap allocations per packet — and, once those were scratch
//! buffers of the graph, still kept every scripted packet four times
//! over (script tuple, sorted copy, journey, pre-scheduled event) and
//! gave every transmitted packet a heap vector for its hops. A packet
//! is stored once now, in its journey, first hop included, and this
//! test keeps it so. It counts the calling thread's allocations and
//! the bytes they ask for across `add_source` and `Graph::run`, and
//! holds them to per-packet budgets: a per-dispatch or per-journey
//! allocation breaks the first, a second per-packet table the second.
//! What is left is tables that grow by doubling, which amortizes, so a
//! longer script must not cost more per packet on either count.
//!
//! One test only: the counter is per thread, but the allocator is the
//! whole test binary's.

use graph::{GraphSpec, PortKind, PortSpec, TokenBucket};
use servers::RateProfile;
use sfq_core::FlowId;
use sfq_engine::EngineConfig;
use simtime::{Bytes, Rate, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes asked for)`; a `realloc` is one allocation
    /// of its new size, so a table that doubles is counted at every
    /// size it passes through.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell`, so touching it allocates
// nothing and shares nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SIDE: u32 = 4;

/// A 4×4 matrix with a policer in front of every ingress, every port a
/// 2-shard `SyncEngine`; flow `f` enters at ingress `f / 4` and leaves
/// at egress `f % 4`, `per_flow` packets each at 80 % link load.
/// Returns `(offered, allocations, bytes)`, the last two counted from
/// the first `add_source` to the end of `Graph::run`.
fn run(per_flow: usize) -> (u64, u64, u64) {
    let flows: Vec<FlowId> = (0..SIDE * SIDE).map(FlowId).collect();
    let weight = Rate::kbps(200);
    let ports = (0..SIDE)
        .map(|j| {
            let mine = flows.iter().filter(|f| f.0 % SIDE == j);
            PortSpec::new(
                RateProfile::constant(Rate::mbps(1)),
                mine.map(|&f| (f, weight)).collect(),
            )
        })
        .collect();
    let routes = flows.iter().map(|&f| (f, (f.0 % SIDE) as usize)).collect();
    let mut spec = GraphSpec::matrix(SIDE as usize, ports, routes);
    let contract = TokenBucket {
        sigma: Bytes::new(3_000),
        rho: Rate::kbps(250),
    };
    let policers: Vec<usize> = (0..SIDE)
        .map(|i| {
            let mine = flows.iter().filter(|f| f.0 / SIDE == i);
            spec.add_policer(i as usize, mine.map(|&f| (f, contract)).collect())
        })
        .collect();
    let mut g = spec.build(PortKind::EngineSync(EngineConfig::new(2)));
    // 500 B every 20 ms is the flow's 200 kb/s; offsets keep the flows
    // from arriving in lockstep.
    let scripts: Vec<Vec<(SimTime, Bytes)>> = flows
        .iter()
        .map(|f| {
            (0..per_flow as i128)
                .map(|k| {
                    let at = SimTime::from_micros(20_000 * k + 1_237 * f.0 as i128);
                    (at, Bytes::new(500))
                })
                .collect()
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    for (&f, arrivals) in flows.iter().zip(&scripts) {
        g.add_source(policers[(f.0 / SIDE) as usize], f, arrivals);
    }
    let report = g.run(SimTime::from_secs(3_600));
    let after = ALLOCS.with(Cell::get);
    let offered = (flows.len() * per_flow) as u64;
    let delivered: u64 = report
        .sink_departures
        .iter()
        .map(|(_, d)| d.len() as u64)
        .sum();
    assert_eq!(delivered + report.policer_dropped, offered);
    assert!(report.audit.balanced());
    (offered, after.0 - before.0, after.1 - before.1)
}

/// Bytes per scripted packet on this count at the commit before a
/// packet was stored once (ISSUE 20; measured there with this file:
/// 1 008 at 2 048 packets and at 4 096), and the share of it allowed
/// now (this commit measures 551 at both).
const PARENT_BYTES_PER_PKT: u64 = 1_008;
const SHARE_PCT: u64 = 60;

#[test]
fn run_allocates_within_budget_and_amortizes() {
    // Capacity reservations are not per-packet memory: the arena's
    // packet pool takes a first chunk of 8 192 slots (0.6 MB) with the
    // first packet, and the engine shards' pools, told their bound is
    // under a chunk, grow from empty to what their backlog holds. They
    // cannot be told from tables by size, so they are told by what they
    // depend on: a script of one packet per flow reaches every pool the
    // long scripts do, so what *it* allocates — reservations, maps and
    // scratch at their first sizes — is subtracted, and the rest is
    // what scales with the script. That floor is held too: a port
    // allocates what it holds (≈ 10 MB when every shard took a ring and
    // a chunk).
    let (n0, a0, b0) = run(1);
    let (n1, a1, b1) = run(128);
    let (n2, a2, b2) = run(256);
    assert!(n0 == 16 && n1 >= 2_000 && n2 == 2 * n1);
    let per_pkt = |n: u64, b: u64| (b - b0) / (n - n0);
    println!(
        "allocations {a0}/{n0} {a1}/{n1} {a2}/{n2}; bytes per scripted packet {} {}",
        per_pkt(n1, b1),
        per_pkt(n2, b2)
    );
    assert!(b0 < 1_500_000, "{b0} bytes of reservations: over 1.5 MB");
    assert!(
        4 * a1 <= n1,
        "{a1} allocations for {n1} packets: over 0.25 per packet"
    );
    // Compared as a1/n1 >= a2/n2 without rounding.
    assert!(
        a2 * n1 <= a1 * n2,
        "per-packet allocations rose with the script: {a1}/{n1} -> {a2}/{n2}"
    );
    let budget = PARENT_BYTES_PER_PKT * SHARE_PCT / 100;
    for (n, b) in [(n1, b1), (n2, b2)] {
        assert!(
            per_pkt(n, b) <= budget,
            "{} bytes per scripted packet at {n} packets: over {budget}",
            per_pkt(n, b)
        );
    }
    assert!(
        per_pkt(n2, b2) <= per_pkt(n1, b1),
        "per-packet bytes rose with the script: {} -> {}",
        per_pkt(n1, b1),
        per_pkt(n2, b2)
    );
}
