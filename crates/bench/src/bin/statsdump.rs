//! Live telemetry snapshot dump from a running [`SyncEngine`].
//!
//! Drives a 4-shard engine from the main thread while a separate
//! reader thread folds the counter pages through
//! `sfq_telemetry::Aggregator` once per tick — the production shape of
//! the telemetry plane: the engine's thread plain-writes the pages, the
//! aggregator snapshots them off-thread under the seqlock protocol, and
//! nothing the reader does can stall the data path. Each tick prints
//! cumulative totals, the dequeue rate over the tick, queueing-delay
//! percentiles from the log2 histogram, and per-shard residency; the
//! run ends with a drained-to-quiescence snapshot whose conservation
//! identity (`offered == refused + dequeues + drops`) must close
//! exactly. Run it with:
//!
//! ```text
//! cargo run --release -p bench --bin statsdump [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the tick count and period so CI can exercise the
//! whole path (live writer + off-thread reader + final conservation
//! check) in a fraction of a second.

use bench::report;
use sfq_core::{FlowId, PacketFactory};
use sfq_engine::{EngineConfig, SyncEngine};
use sfq_telemetry::{Aggregator, EngineSnapshot, TelemetryHub};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const BATCH: usize = 32;
const FLOWS: usize = 64;
const PKT: u64 = 200;
/// Ring capacity: sized past the deepest transient backlog the drive
/// loop can build, so nothing is refused and the final conservation
/// identity closes with zero refusals as well as zero gap.
const RING: usize = 1 << 16;
/// Seqlock retry budget per page snapshot — same figure the telemetry
/// conformance preset uses for its reader thread.
const SNAP_BUDGET: usize = 1 << 16;

/// One rendered tick line from the reader thread.
fn render_tick(t: Duration, prev: &EngineSnapshot, cur: &EngineSnapshot, wall: Duration) {
    let d_deq = cur.totals.dequeues - prev.totals.dequeues;
    let rate = d_deq as f64 / wall.as_secs_f64();
    let p50 = cur.totals.delay_percentile_ns(50.0);
    let p99 = cur.totals.delay_percentile_ns(99.0);
    let fmt_ns = |v: Option<u64>| match v {
        Some(ns) if ns >= 1_000_000 => format!("{:.1}ms", ns as f64 / 1e6),
        Some(ns) if ns >= 1_000 => format!("{:.1}us", ns as f64 / 1e3),
        Some(ns) => format!("{ns}ns"),
        None => "-".to_string(),
    };
    let resident: i128 = cur.shards.iter().map(|s| s.resident()).sum();
    println!(
        "t={:>6.0}ms offered={:>8} enq={:>8} deq={:>8} refused={:>4} resident={:>6} \
         rate={:>10.0} pkt/s delay_p50<={} p99<={}",
        t.as_secs_f64() * 1e3,
        cur.engine.offered,
        cur.totals.enqueues,
        cur.totals.dequeues,
        cur.engine.refused_total(),
        resident,
        rate,
        fmt_ns(p50),
        fmt_ns(p99),
    );
}

/// Reader thread body: snapshot the hub once per `tick` until `stop`,
/// rendering each snapshot as it lands. The budget is generous, so a
/// torn result here is a real seqlock bug — fail loudly.
fn reader(hub: Arc<TelemetryHub>, stop: Arc<AtomicBool>, tick: Duration) {
    let agg = Aggregator::new(hub);
    let started = Instant::now();
    let mut prev = agg
        .snapshot(SNAP_BUDGET)
        .expect("snapshot within budget beside a live writer");
    let mut last = Instant::now();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let cur = agg
            .snapshot(SNAP_BUDGET)
            .expect("snapshot within budget beside a live writer");
        let now = Instant::now();
        render_tick(started.elapsed(), &prev, &cur, now - last);
        prev = cur;
        last = now;
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ticks, tick) = if smoke {
        (4u32, Duration::from_millis(40))
    } else {
        (12u32, Duration::from_millis(250))
    };
    let run_for = tick * ticks;

    let mut eng = SyncEngine::new(EngineConfig::new(SHARDS).batch(BATCH).ring_capacity(RING));
    let hub = eng.attach_telemetry();
    for f in 0..FLOWS as u32 {
        eng.try_add_flow(FlowId(f), Rate::kbps(64 + f as u64))
            .expect("register");
    }

    eprintln!(
        "statsdump: {SHARDS}-shard engine, {FLOWS} flows, \
         off-thread aggregation every {}ms for {} ticks",
        tick.as_millis(),
        ticks
    );
    let stop = Arc::new(AtomicBool::new(false));
    let reader_handle = {
        let (hub, stop) = (hub.clone(), stop.clone());
        std::thread::spawn(move || reader(hub, stop, tick))
    };

    // Drive loop: bursts of arrivals at an advancing sim clock, drained
    // a beat behind so the delay histogram sees real queueing and every
    // tick finds shard backlogs to report. Sim time advances 100 us per
    // cycle; the wall clock just paces the run.
    let mut pf = PacketFactory::new();
    let mut out = Vec::with_capacity(BATCH * SHARDS);
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(100);
    let mut i = 0u32;
    let end = Instant::now() + run_for;
    while Instant::now() < end {
        for _ in 0..BATCH {
            let f = FlowId(i % FLOWS as u32);
            i = i.wrapping_add(1);
            eng.try_ingest(pf.make(f, Bytes::new(PKT), now))
                .expect("backlog bound sized for the backlog");
        }
        out.clear();
        // Drain slightly under the offered rate while the backlog is
        // shallow, slightly over it once it has built up: keeps
        // residency oscillating instead of pinned at zero.
        let want = if eng.pending() > (BATCH * SHARDS * 8) {
            BATCH + 8
        } else {
            BATCH - 8
        };
        eng.drain(now, want, &mut out).expect("drain");
        now += step;
    }

    // Drain to quiescence so the conservation identity closes.
    loop {
        out.clear();
        let n = eng.drain(now, BATCH * SHARDS, &mut out).expect("drain");
        if n == 0 && eng.pending() == 0 {
            break;
        }
        now += step;
    }
    stop.store(true, Ordering::Release);
    reader_handle.join().expect("reader thread");

    let agg = Aggregator::new(hub);
    let fin = agg.snapshot(SNAP_BUDGET).expect("quiescent snapshot");
    report::print_table(
        "statsdump final (per shard)",
        &["shard", "enqueues", "dequeues", "deq_bytes", "resident"],
        &fin.shards
            .iter()
            .enumerate()
            .map(|(s, p)| {
                vec![
                    s.to_string(),
                    p.enqueues.to_string(),
                    p.dequeues.to_string(),
                    p.deq_bytes.to_string(),
                    p.resident().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "totals: offered={} refused={} dequeues={} deq_bytes={} conservation_gap={}",
        fin.engine.offered,
        fin.engine.refused_total(),
        fin.totals.dequeues,
        fin.totals.deq_bytes,
        fin.conservation_gap(),
    );
    assert_eq!(
        fin.conservation_gap(),
        0,
        "pages must close the conservation identity at quiescence"
    );
    assert!(fin.totals.dequeues > 0, "drive loop never departed");
    println!("statsdump: conservation identity closed at quiescence");
}
