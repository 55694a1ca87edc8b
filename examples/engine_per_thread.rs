//! More cores without a threaded engine: one `SyncEngine` per thread,
//! run to completion (the shape of R2's per-core scheduler instances).
//!
//! Flows are partitioned over `THREADS` threads; each thread owns one
//! engine over its share and its own transmit loop, and wraps that loop
//! in `catch_unwind`: when it panics (thread 0 does, once, on purpose)
//! the thread rebuilds *its* engine from its flow list and goes on —
//! supervision is the few lines at the call site below, and what the
//! dead engine still held is lost with it. The main thread is the
//! operator: it folds every engine's counter pages off-thread.
//!
//! Fairness is per engine: Theorem 1 holds among the flows of one
//! thread and says nothing across threads. A global root arbiter over
//! per-thread shards is what the deleted threaded driver was, and every
//! departure it arbitrated cost a cross-thread round trip.
//!
//! ```text
//! cargo run --release --example engine_per_thread
//! ```

use sfq_core::{FlowId, PacketFactory, SfqFast};
use sfq_engine::{EngineConfig, SyncEngine};
use sfq_telemetry::Aggregator;
use simtime::{Bytes, Rate, SimTime};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;

const THREADS: u32 = 2;
const FLOWS: u32 = 64;
const ROUNDS: usize = 20_000;

/// One thread's transmit loop: a round of arrivals, a round of
/// departures. Returns the packets sent.
fn transmit(eng: &mut SyncEngine<SfqFast>, flows: &[FlowId], fault: &mut bool) -> u64 {
    let (mut pf, mut out, mut sent) = (PacketFactory::new(), Vec::new(), 0);
    for round in 0..ROUNDS {
        let now = SimTime::from_micros(100 * round as i128);
        for &f in flows {
            eng.try_ingest(pf.make(f, Bytes::new(200), now))
                .expect("the shard holds a round");
        }
        if round == ROUNDS / 2 && std::mem::take(fault) {
            resume_unwind(Box::new("injected fault")); // a panic, minus the stderr report
        }
        out.clear();
        sent += eng.drain(now, flows.len(), &mut out).expect("drain") as u64;
    }
    sent
}

fn main() {
    let (hubs, operator) = mpsc::channel();
    let threads: Vec<_> = (0..THREADS)
        .map(|id| {
            let hubs = hubs.clone();
            std::thread::spawn(move || {
                let flows: Vec<FlowId> =
                    (id..FLOWS).step_by(THREADS as usize).map(FlowId).collect();
                let mut fault = id == 0;
                loop {
                    let mut eng = SyncEngine::new_fast(EngineConfig::new(2));
                    for &f in &flows {
                        eng.try_add_flow(f, Rate::kbps(64 + f.0 as u64))
                            .expect("register");
                    }
                    hubs.send((id, eng.attach_telemetry())).expect("operator");
                    match catch_unwind(AssertUnwindSafe(|| transmit(&mut eng, &flows, &mut fault)))
                    {
                        Ok(sent) => return sent,
                        Err(_) => {
                            eprintln!("thread {id}: transmit loop died, rebuilding its engine")
                        }
                    }
                }
            })
        })
        .collect();
    drop(hubs);
    // The operator: every hub as it appears (one per engine ever
    // built), read while its thread is transmitting and again below.
    let mut watched = Vec::new();
    for (id, hub) in operator {
        let agg = Aggregator::new(hub);
        if let Ok(live) = agg.snapshot(1 << 16) {
            println!(
                "thread {id}: engine up, {} offered so far",
                live.engine.offered
            );
        }
        watched.push((id, agg));
    }
    for (id, t) in threads.into_iter().enumerate() {
        println!("thread {id}: sent {}", t.join().expect("supervised"));
    }
    for (id, agg) in &watched {
        let snap = agg.snapshot(1 << 16).expect("writer is done");
        println!(
            "thread {id} engine: offered {} dequeued {} lost with the engine {}",
            snap.engine.offered,
            snap.totals.dequeues,
            snap.conservation_gap()
        );
    }
}
