//! Allocation budget of the executor's dispatch path.
//!
//! `Graph::run` used to build fresh `Vec`s at every dispatch — the
//! ingress batch, the work queue, a routing table and a one-element
//! batch per hop, the port's admit list, the `vec![h]` of every
//! transmission hand-off — about 10.5 heap allocations per packet.
//! Those are scratch buffers of the graph now, and this test keeps
//! them so: it counts the allocations of the calling thread inside
//! `Graph::run` and holds them to a per-packet budget that one
//! per-dispatch `Vec` would break. What is left is one
//! `port_departures` vector per transit plus buffer growth, which
//! amortizes, so a longer script must not cost more per packet.
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
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell`, so touching it allocates
// nothing and shares nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
/// Returns `(offered, allocations inside Graph::run)`.
fn run(per_flow: usize) -> (u64, u64) {
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
    for &f in &flows {
        // 500 B every 20 ms is the flow's 200 kb/s; offsets keep the
        // flows from arriving in lockstep.
        let arrivals: Vec<(SimTime, Bytes)> = (0..per_flow as i128)
            .map(|k| {
                let at = SimTime::from_micros(20_000 * k + 1_237 * f.0 as i128);
                (at, Bytes::new(500))
            })
            .collect();
        g.add_source(policers[(f.0 / SIDE) as usize], f, &arrivals);
    }
    let before = ALLOCS.with(Cell::get);
    let report = g.run(SimTime::from_secs(3_600));
    let allocs = ALLOCS.with(Cell::get) - before;
    let offered = (flows.len() * per_flow) as u64;
    let delivered: u64 = report
        .sink_departures
        .iter()
        .map(|(_, d)| d.len() as u64)
        .sum();
    assert_eq!(delivered + report.policer_dropped, offered);
    assert!(report.audit.balanced());
    (offered, allocs)
}

#[test]
fn dispatch_allocates_within_budget_and_amortizes() {
    let (n1, a1) = run(128);
    let (n2, a2) = run(256);
    assert!(n1 >= 2_000 && n2 == 2 * n1);
    assert!(
        a1 <= 3 * n1,
        "{a1} allocations for {n1} packets: over 3 per packet"
    );
    // Compared as a1/n1 >= a2/n2 without rounding.
    assert!(
        a2 * n1 <= a1 * n2,
        "per-packet allocations rose with the script: {a1}/{n1} -> {a2}/{n2}"
    );
}
