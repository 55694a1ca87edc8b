//! Memory budget of a backlogged `SfqFast`: live heap bytes per flow.
//!
//! At a million flows the scheduler's own records are most of a
//! process's memory: per flow, a 64-byte flow slot, a 32-byte heap
//! entry and one pooled record per queued packet (the packet without
//! its flow id, its heap key and its finish tag, plus the slab link).
//! This test preloads 2^17 flows with 2 packets each, as the
//! `sched_scale` benchmark workload does at 2^20, and holds the live
//! heap that state keeps to a per-flow budget. Measured on x86-64
//! Linux, debug and release alike: 276.0 bytes per flow with an
//! 88-byte pooled record (64 + 32 + 2 × 88 plus the 4-byte id index
//! entry); 292.0 with the 96-byte record it replaced (the flow id
//! stored in every record), which the budget of 280 fails; 324.0 with
//! the 112-byte record before that. A record that grows back, or a
//! second per-flow table, fails here and not only in the nightly
//! benchmark.
//!
//! One test only: the counter is per thread, but the allocator is the
//! whole test binary's.

use sfq_core::{FlowId, Packet, Scheduler, SfqFast};
use simtime::{Bytes, Rate, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell`, so touching it allocates
// nothing and shares nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FLOWS: u32 = 1 << 17;
const DEPTH: u64 = 2;

/// Bytes per flow the preloaded state may keep live: between this
/// layout's 276 and the 292 of the one before it.
const BUDGET: f64 = 280.0;

#[test]
fn preloaded_sfq_fast_keeps_within_its_bytes_per_flow_budget() {
    let before = LIVE.with(Cell::get);
    let mut s = SfqFast::new();
    for f in 0..FLOWS {
        s.add_flow(FlowId(f), Rate::bps(1_000));
    }
    let mut uid = 0;
    for f in 0..FLOWS {
        for seq in 1..=DEPTH {
            let pkt = Packet {
                flow: FlowId(f),
                seq,
                len: Bytes::new(500),
                arrival: SimTime::ZERO,
                uid,
            };
            s.enqueue(SimTime::ZERO, pkt);
            uid += 1;
        }
    }
    let live = LIVE.with(Cell::get) - before;
    let per_flow = live as f64 / f64::from(FLOWS);
    println!("{per_flow:.1} live bytes per flow ({live} over {FLOWS} flows x {DEPTH} packets)");
    assert_eq!(s.len(), FLOWS as usize * DEPTH as usize);
    assert!(
        per_flow < BUDGET,
        "{per_flow:.1} live bytes per flow, budget {BUDGET}"
    );
}
