//! Memory budget of a backlogged `SfqFast`, bare, as the shards of an
//! `Engine` and under a graph port, and of the schedulers built around
//! the tag core (`HierSfq`, `FairAirport`): live heap bytes per flow,
//! one budget row each.
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
//! benchmark. The engine's row (`engine_fast`) says what its layers add.
//!
//! One test only: the counter is per thread, but the allocator is the
//! whole test binary's.

use graph::{GraphNode, PktArena, PortNode};
use netsim::DropPolicy;
use servers::RateProfile;
use sfq_core::{FairAirport, FlowId, HierSfq, Packet, Scheduler, SfqFast};
use sfq_engine::{Engine, EngineConfig};
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

/// Preload `FLOWS` flows with `DEPTH` packets each, through `offer`.
fn preload(mut offer: impl FnMut(Packet)) {
    let mut uid = 0;
    for f in 0..FLOWS {
        for seq in 1..=DEPTH {
            offer(Packet {
                flow: FlowId(f),
                seq,
                len: Bytes::new(500),
                arrival: SimTime::ZERO,
                uid,
            });
            uid += 1;
        }
    }
}

/// A bare `SfqFast`: between this layout's 276 and the 292 of the one
/// before it.
fn sfq_fast() -> (usize, i64) {
    let before = live();
    let mut s = SfqFast::new();
    for f in 0..FLOWS {
        s.add_flow(FlowId(f), Rate::bps(1_000));
    }
    preload(|pkt| s.enqueue(SimTime::ZERO, pkt));
    (s.len(), live() - before)
}

/// `Engine::new_fast` over 4 shards, preloaded through `try_ingest`:
/// 380.0, budget 400. When ingest parked packets in a per-shard queue
/// reserved at `ring_capacity` 64-byte packets, the same state read
/// 636.0 once pumped (the queues' 256 bytes per flow stayed reserved)
/// and 423.0 before the pump. The 104 above the bare core's 276, all
/// measured by taking the layers apart:
/// - 28: the engine's flow table, a 4-byte id index entry and a 24-byte
///   `(FlowId, FlowRec)` record;
/// - 17: four id indexes instead of one, each over the whole id range
///   (12), grown from each shard's first id to just past 2^17 entries
///   (5);
/// - 32: the flow-slot vectors. The hash puts 33 068, 32 550, 32 680
///   and 32 774 of the flows on the shards, and a vector of just over
///   2^15 slots doubles to 2^16;
/// - 27: the packet side, 16 for the heap vectors doubling the same way
///   and 11 for each shard's last, part-filled slab chunk.
fn engine_fast() -> (usize, i64) {
    let before = live();
    let cfg = EngineConfig::new(4).ring_capacity(1 << 17);
    let mut eng = Engine::new_fast(cfg);
    for f in 0..FLOWS {
        eng.try_add_flow(FlowId(f), Rate::bps(1_000)).unwrap();
    }
    preload(|pkt| eng.try_ingest(pkt).unwrap());
    (eng.pending(), live() - before)
}

/// `Engine::new_fast` over 1 shard, `ring_capacity` 2^18 (the whole
/// preload), preloaded through `try_ingest`: 304.0, budget 310. The 28
/// above the bare core's 276 are the engine's flow table, as in the
/// 4-shard row; one shard needs no second id index, and its vectors
/// hold exactly 2^17 flows and 2^18 packets, so none doubles past what
/// the core alone allocates.
fn engine_fast_one_shard() -> (usize, i64) {
    let before = live();
    let mut eng = Engine::new_fast(EngineConfig::new(1).ring_capacity(1 << 18));
    for f in 0..FLOWS {
        eng.try_add_flow(FlowId(f), Rate::bps(1_000)).unwrap();
    }
    preload(|pkt| eng.try_ingest(pkt).unwrap());
    (eng.pending(), live() - before)
}

/// `HierSfq` with every flow a leaf of one class under the root: 823.0,
/// budget 830. Every leaf flow is a whole `Node` — its own empty
/// `RootSfq`, two empty `Vec`s and a `VecDeque<Packet>` of the two
/// 64-byte packets, grown to four — plus a class in its parent's
/// `RootSfq` and an entry in the flow-to-class map.
fn hier_one_class() -> (usize, i64) {
    let before = live();
    let mut h = HierSfq::new();
    let class = h.add_class(h.root(), Rate::mbps(1));
    for f in 0..FLOWS {
        h.add_flow_to(class, FlowId(f), Rate::bps(1_000));
    }
    preload(|pkt| h.enqueue(SimTime::ZERO, pkt));
    (h.len(), live() - before)
}

/// `HierSfq` with the flows spread over 64 classes under the root, flow
/// `f` in class `f % 64`: 823.0, budget 830, the same as one class.
/// The per-leaf `Node` of the one-class row dominates; the 63 more
/// classes add 4 392 bytes in all (their nodes and their places in the
/// root's `RootSfq`), nothing per flow.
fn hier_64_classes() -> (usize, i64) {
    let before = live();
    let mut h = HierSfq::new();
    let classes: Vec<_> = (0..64)
        .map(|_| h.add_class(h.root(), Rate::mbps(1)))
        .collect();
    for f in 0..FLOWS {
        h.add_flow_to(classes[f as usize % 64], FlowId(f), Rate::bps(1_000));
    }
    preload(|pkt| h.enqueue(SimTime::ZERO, pkt));
    (h.len(), live() - before)
}

/// A graph port over `SfqFast`, each packet allocated in a `PktArena`
/// and handed to `PortNode::dispatch` as the executor does, no caps, the
/// link never started: 524.0, budget 530. The 248 above the bare core's
/// 276, measured by building the parts alone:
/// - 160: the arena's slab, two 80-byte slots per flow (a 16-aligned
///   64-byte `Packet` and its 4-byte link, padded), while the core
///   holds its own 88-byte record of each packet too;
/// - 68: the port's uid side table (uid to flow and slot), 2^18
///   entries in 2^19 buckets of 16 bytes plus a control byte;
/// - 20: the switch's per-flow books, the weight table's 16-byte
///   `(FlowId, Rate)` entry and 4-byte id index entry.
fn graph_port() -> (usize, i64) {
    let before = live();
    let mut arena = PktArena::new();
    let link = RateProfile::constant(Rate::mbps(1));
    let sched = Box::new(SfqFast::new());
    let mut port = PortNode::new(sched, link, None, None, DropPolicy::TailDrop);
    for f in 0..FLOWS {
        port.add_flow(FlowId(f), Rate::bps(1_000));
    }
    let mut out = Vec::new();
    preload(|pkt| {
        let h = arena.try_alloc(pkt).unwrap();
        port.dispatch(SimTime::ZERO, &mut arena, &[h], &mut out);
    });
    assert!(out.is_empty(), "a port emits nothing from dispatch");
    (port.queued(), live() - before)
}

/// `FairAirport`, nothing dequeued: 632.0, budget 640 (754.9 when it
/// kept its own tags and a `VecDeque<Packet>` per flow). 484 are its
/// ASQ, an exact `Sfq` holding every packet; 100 its GSQ, a
/// `VirtualClock` with every flow registered and nothing yet admitted;
/// 48 the regulator's eligibility heap, one 48-byte entry per flow.
/// Held packets are not copied: the regulator reads them off the ASQ.
fn fair_airport() -> (usize, i64) {
    let before = live();
    let mut fa = FairAirport::new();
    for f in 0..FLOWS {
        fa.add_flow(FlowId(f), Rate::bps(1_000));
    }
    preload(|pkt| fa.enqueue(SimTime::ZERO, pkt));
    (fa.len(), live() - before)
}

/// Bytes this thread has allocated and not yet freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// A build of the preloaded state, returning the packets it holds and
/// the bytes it keeps live.
type Build = fn() -> (usize, i64);

/// Each row: a name, its build, and the live bytes per flow it may keep.
const ROWS: [(&str, Build, f64); 7] = [
    ("SfqFast", sfq_fast, 280.0),
    ("Engine::new_fast, 4 shards", engine_fast, 400.0),
    ("Engine::new_fast, 1 shard", engine_fast_one_shard, 310.0),
    ("HierSfq, one class", hier_one_class, 830.0),
    ("HierSfq, 64 classes", hier_64_classes, 830.0),
    ("graph port over SfqFast", graph_port, 530.0),
    ("FairAirport", fair_airport, 640.0),
];

#[test]
fn preloaded_sfq_fast_keeps_within_its_bytes_per_flow_budget() {
    let mut over = Vec::new();
    for (name, build, budget) in ROWS {
        let (held, live) = build();
        let per_flow = live as f64 / f64::from(FLOWS);
        println!("{name}: {per_flow:.1} live bytes per flow ({live} over {FLOWS} flows x {DEPTH} packets)");
        assert_eq!(held, FLOWS as usize * DEPTH as usize, "{name}");
        if per_flow >= budget {
            over.push(format!(
                "{name}: {per_flow:.1} live bytes per flow, budget {budget}"
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
