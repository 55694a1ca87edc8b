//! The traced run: the same loops as the end-to-end run, interleaved
//! with span-recording copies of themselves, plus the standalone
//! probes. Produces every per-layer metric of `BENCHMARK.json`.
//!
//! A layer a workload never calls spends no time there: its row reads
//! 0 on that workload (the README lists which rows belong to which).

use crate::alloc::Counts;
use crate::closed::{build_engine, build_sched, Closed, Cycle, Discard, EngineLoop};
use crate::graph_path::{self, Tally};
use crate::inputs::{ClosedInputs, UNIT_PKTS};
use crate::json::Metric;
use crate::probes::{self, Meter, TimedSched};
use crate::run::{self, Args, Outcome, Ready};
use crate::stats::UnitStats;
use crate::tracer::{Layer, NoTrace, QuartileMeans, SpanLog};
use sfq_telemetry::Aggregator;
use simtime::SimTime;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sfq_fast.enqueue_ns", "ns"),
    ("core.sfq_fast.dequeue_ns", "ns"),
    ("core.sfq_fast.add_flow_ns", "ns"),
    ("core.sfq_fast.bytes_per_flow", "B"),
    ("engine.sync.ingest_ns", "ns"),
    ("engine.sync.pump_ns", "ns"),
    ("engine.sync.drain_ns", "ns"),
    ("engine.sync.self_ns", "ns"),
    ("engine.ring.push_pop_ns", "ns"),
    ("engine.root.pick_charge_ns", "ns"),
    ("telemetry.on_off_pct", "%"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.conservation_gap", "count"),
    ("graph.total_ns", "ns"),
    ("graph.build_ns", "ns"),
    ("graph.exec.self_ns", "ns"),
    ("graph.policer.ns", "ns"),
    ("graph.classifier.ns", "ns"),
    ("graph.arena.alloc_free_ns", "ns"),
    ("graph.port.ns", "ns"),
    ("netsim.switch.ns", "ns"),
    ("graph.port.sched_ns", "ns"),
    ("graph.port.sched_calls_per_pkt", "count"),
    ("des.queue.ns", "ns"),
    ("graph.exec.allocs_per_pkt", "count"),
    ("graph.exec.alloc_bytes_per_pkt", "B"),
    ("graph.policer.drop_share", "%"),
    ("graph.port.refused_share", "%"),
    ("graph.port.evicted_share", "%"),
    ("graph.batch_mean", "count"),
    ("graph.offered_load_pct", "%"),
    ("graph.sim_delay_p99_us", "us"),
    ("core.sfq.pair_ns", "ns"),
    ("core.scfq_fast.pair_ns", "ns"),
    ("baselines.scfq.pair_ns", "ns"),
    ("core.hier.pair_ns", "ns"),
    ("simtime.ratio.add_cmp_ns", "ns"),
    ("core.pool.alloc_free_ns", "ns"),
    ("traffic.gen_ns", "ns"),
    ("harness.unit_pkts", "count"),
    ("harness.units", "count"),
    ("harness.unit_ns_floor", "ns"),
    ("harness.unit_ns_p05", "ns"),
    ("harness.unit_ns_p50", "ns"),
    ("harness.unit_ns_p99", "ns"),
    ("harness.unit_ns_mean", "ns"),
    ("harness.pps_sustained", "1/s"),
    ("harness.allocs_per_kpkt", "count"),
    ("harness.fair_gap_ratio", "ratio"),
    ("harness.timer_ns", "ns"),
    ("harness.trace_overhead_pct", "%"),
];

/// The per-layer rows of one traced run, all 0 until measured.
struct Rows(Vec<f64>);

impl Rows {
    fn new() -> Rows {
        Rows(vec![0.0; PER_LAYER.len()])
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(&self.0)
            .map(|(&(name, unit), &value)| Metric { name, value, unit })
            .collect()
    }
}

/// Units per turn of a lane. Lanes alternate so that slow drift of the
/// machine hits all of them alike; a turn is long enough (tens of
/// milliseconds) that reloading a lane's state into cache after the
/// others ran is a small part of it.
const BLOCK: usize = 256;
/// Most traced units whose per-layer totals are kept.
const MAX_ROWS: usize = 1 << 17;
/// Traced units whose full spans go to the trace file.
const KEEP_UNITS: u32 = 2048;

/// Take turns: call `turn(lane)` for each lane in order, round after
/// round, until `seconds` have passed or a turn returns `false`.
fn interleave(seconds: f64, lanes: usize, mut turn: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    loop {
        for lane in 0..lanes {
            if !turn(lane) {
                return;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// An untraced lane's readings.
#[derive(Default)]
struct Plain {
    unit_ns: Vec<u32>,
    heap: Counts,
}

impl Plain {
    fn with_room() -> Plain {
        Plain {
            unit_ns: Vec::with_capacity(MAX_ROWS * 4),
            heap: Counts::default(),
        }
    }

    /// One turn: `BLOCK` untraced units, one timestamp per boundary.
    fn turn(&mut self, mut unit: impl FnMut()) -> bool {
        if self.unit_ns.len() + BLOCK > self.unit_ns.capacity() {
            return false;
        }
        let before = Counts::now();
        let mut prev = Instant::now();
        for _ in 0..BLOCK {
            unit();
            let now = Instant::now();
            self.unit_ns.push((now - prev).as_nanos() as u32);
            prev = now;
        }
        let d = Counts::now().since(before);
        self.heap.calls += d.calls;
        self.heap.bytes += d.bytes;
        true
    }
}

/// One turn of a traced lane.
fn traced_turn(log: &mut SpanLog, mut unit: impl FnMut(&mut SpanLog)) -> bool {
    for _ in 0..BLOCK {
        if !log.has_room() {
            return false;
        }
        log.begin_unit();
        unit(log);
        log.end_unit();
    }
    true
}

/// Fastest-edge unit time of a traced lane, ns.
fn traced_floor(log: &SpanLog) -> f64 {
    let ns: Vec<u32> = log.units.iter().map(|u| u.ns as u32).collect();
    UnitStats::of(&ns).floor
}

fn pct_over(new: f64, base: f64) -> f64 {
    (new - base) / base * 100.0
}

/// Fill the `harness.*` rows from the untraced lane.
fn harness_rows(rows: &mut Rows, plain: &Plain, pkts_per_unit: u64, traced_floor_ns: f64) {
    let stats = UnitStats::of(&plain.unit_ns);
    let pkts = stats.units as f64 * pkts_per_unit as f64;
    let wall_s: f64 = plain.unit_ns.iter().map(|&x| x as f64).sum::<f64>() / 1e9;
    rows.set("harness.unit_pkts", pkts_per_unit as f64);
    rows.set("harness.units", stats.units as f64);
    rows.set("harness.unit_ns_floor", stats.floor);
    rows.set("harness.unit_ns_p05", stats.p05);
    rows.set("harness.unit_ns_p50", stats.p50);
    rows.set("harness.unit_ns_p99", stats.p99);
    rows.set("harness.unit_ns_mean", stats.mean);
    rows.set("harness.pps_sustained", pkts / wall_s);
    rows.set(
        "harness.allocs_per_kpkt",
        plain.heap.calls as f64 * 1000.0 / pkts,
    );
    rows.set("harness.timer_ns", crate::tracer::timer_ns());
    rows.set(
        "harness.trace_overhead_pct",
        pct_over(traced_floor_ns, stats.floor),
    );
}

fn write_trace(log: &SpanLog, args: &Args, suffix: &str) {
    let path = args.out.join(format!(
        "trace-{}-{}{suffix}.jsonl",
        args.workload, args.seed
    ));
    match log.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans written to {}", log.spans.len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// ns per packet of the two scheduler-core rows from a traced lane
/// over a `SchedLoop`.
fn core_rows(rows: &mut Rows, q: &QuartileMeans) -> f64 {
    let enq = q.ns(Layer::SfqFastEnqueue) / UNIT_PKTS as f64;
    let deq = q.ns(Layer::SfqFastDequeue) / UNIT_PKTS as f64;
    rows.set("core.sfq_fast.enqueue_ns", enq);
    rows.set("core.sfq_fast.dequeue_ns", deq);
    enq + deq
}

/// Warm a freshly built closed-loop state up for `seconds`.
fn warm<C: Cycle>(state: &mut Closed<C>, inputs: &ClosedInputs, seconds: f64) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        state.unit(inputs, &mut NoTrace, &mut Discard);
    }
}

fn trace_sched(args: &Args) -> Outcome {
    let mut rows = Rows::new();
    let mut ready: Ready<_> = run::prepare_closed(&args.workload, args.seed, build_sched);
    rows.set("harness.fair_gap_ratio", ready.fair_gap_ratio);
    let flows = ready.inputs.flows;

    // Heap the whole preloaded state holds, per flow.
    let before = Counts::now();
    let extra = build_sched(&ready.inputs);
    let live = Counts::now().since(before).live();
    drop(extra);
    rows.set("core.sfq_fast.bytes_per_flow", live as f64 / flows as f64);
    rows.set("core.sfq_fast.add_flow_ns", probes::add_flow_ns(flows));

    let mut plain = Plain::with_room();
    let mut log = SpanLog::new(KEEP_UNITS, 2, MAX_ROWS);
    {
        let Ready { inputs, state, .. } = &mut ready;
        warm(state, inputs, args.warmup());
        interleave(args.seconds, 2, |lane| match lane {
            0 => plain.turn(|| {
                state.unit(inputs, &mut NoTrace, &mut Discard);
            }),
            _ => traced_turn(&mut log, |log| {
                state.unit(inputs, log, &mut Discard);
            }),
        });
    }
    let q = log.fastest_quartile();
    let covered = core_rows(&mut rows, &q) * UNIT_PKTS as f64;
    eprintln!(
        "layer rows cover {:.1} % of the traced unit ({:.0} of {:.0} ns)",
        covered / q.unit_ns * 100.0,
        covered,
        q.unit_ns
    );
    harness_rows(&mut rows, &plain, UNIT_PKTS, traced_floor(&log));

    if args.workload == "sched_hot" {
        // Oracles and baselines on this workload's own cycle: predicted
        // to move no gated metric, needed to judge a shared core.
        let i = &ready.inputs;
        rows.set("core.sfq.pair_ns", probes::pair_ns(sfq_core::Sfq::new(), i));
        rows.set(
            "core.scfq_fast.pair_ns",
            probes::pair_ns(sfq_core::ScfqFast::new(), i),
        );
        rows.set(
            "baselines.scfq.pair_ns",
            probes::pair_ns(baselines::Scfq::new(), i),
        );
        rows.set("core.hier.pair_ns", probes::hier_pair_ns(i));
        rows.set("simtime.ratio.add_cmp_ns", probes::ratio_add_cmp_ns());
        rows.set("core.pool.alloc_free_ns", probes::pool_alloc_free_ns());
    }
    write_trace(&log, args, "");
    let st = &ready.state;
    Outcome::new(ready.checks, st.offered, st.refused, rows.metrics())
}

fn trace_engine(args: &Args) -> Outcome {
    let mut rows = Rows::new();
    let mut ready: Ready<EngineLoop> =
        run::prepare_closed(&args.workload, args.seed, |i| build_engine(i, true));
    rows.set("harness.fair_gap_ratio", ready.fair_gap_ratio);

    // The same inputs on an engine without counter pages, and on the
    // bare scheduler the shards run.
    let mut quiet = build_engine(&ready.inputs, false);
    let mut bare = build_sched(&ready.inputs);
    let mut plain = Plain::with_room();
    let mut plain_quiet = Plain::with_room();
    let mut log = SpanLog::new(KEEP_UNITS, 3, MAX_ROWS);
    let mut log_bare = SpanLog::new(KEEP_UNITS, 2, MAX_ROWS);
    {
        let Ready { inputs, state, .. } = &mut ready;
        warm(state, inputs, args.warmup());
        warm(&mut quiet, inputs, args.warmup() / 4.0);
        warm(&mut bare, inputs, args.warmup() / 4.0);
        interleave(args.seconds, 4, |lane| match lane {
            0 => plain.turn(|| {
                state.unit(inputs, &mut NoTrace, &mut Discard);
            }),
            1 => traced_turn(&mut log, |log| {
                state.unit(inputs, log, &mut Discard);
            }),
            2 => plain_quiet.turn(|| {
                quiet.unit(inputs, &mut NoTrace, &mut Discard);
            }),
            _ => traced_turn(&mut log_bare, |log| {
                bare.unit(inputs, log, &mut Discard);
            }),
        });
    }
    let q = log.fastest_quartile();
    let per = |l: Layer| q.ns(l) / UNIT_PKTS as f64;
    let engine = per(Layer::EngineIngest) + per(Layer::EnginePump) + per(Layer::EngineDrain);
    rows.set("engine.sync.ingest_ns", per(Layer::EngineIngest));
    rows.set("engine.sync.pump_ns", per(Layer::EnginePump));
    rows.set("engine.sync.drain_ns", per(Layer::EngineDrain));
    let core = core_rows(&mut rows, &log_bare.fastest_quartile());
    rows.set("engine.sync.self_ns", engine - core);
    eprintln!(
        "layer rows cover {:.1} % of the traced unit ({:.0} of {:.0} ns)",
        engine * UNIT_PKTS as f64 / q.unit_ns * 100.0,
        engine * UNIT_PKTS as f64,
        q.unit_ns
    );
    harness_rows(&mut rows, &plain, UNIT_PKTS, traced_floor(&log));
    rows.set(
        "telemetry.on_off_pct",
        pct_over(
            UnitStats::of(&plain.unit_ns).floor,
            UnitStats::of(&plain_quiet.unit_ns).floor,
        ),
    );

    let st = &mut ready.state;
    let hub = st.inner.hub.clone().expect("built with counter pages");
    let agg = Aggregator::new(Arc::clone(&hub));
    let snap_ns: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(agg.snapshot(8).expect("single thread: nothing tears"));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    rows.set(
        "telemetry.snapshot_us",
        crate::stats::fastest_quarter_mean(&snap_ns) / 1e3,
    );
    rows.set("engine.ring.push_pop_ns", probes::ring_push_pop_ns());
    rows.set(
        "engine.root.pick_charge_ns",
        probes::root_pick_charge_ns(crate::closed::ENGINE_SHARDS, crate::closed::ENGINE_BATCH),
    );

    let (drained, gap) = st.inner.settle(SimTime::from_secs(3600));
    st.delivered += drained;
    rows.set("telemetry.conservation_gap", gap.unwrap_or(-1) as f64);
    run::engine_end_checks(&mut ready.checks, st, gap);
    write_trace(&log, args, "");
    write_trace(&log_bare, args, "-core");
    let st = &ready.state;
    Outcome::new(
        ready.checks,
        st.offered,
        st.offered - st.delivered,
        rows.metrics(),
    )
}

fn trace_graph(args: &Args) -> Outcome {
    let mut rows = Rows::new();
    let mut ready = run::prepare_graph(args.seed);
    let inputs = &ready.inputs;
    let tally = ready.tally;
    let delivered = tally.delivered as f64;
    let timer = crate::tracer::timer_ns();

    let meter = Rc::new(Meter::default());
    let mut metered = |ordinal: usize| -> Box<dyn sfq_core::Scheduler> {
        Box::new(TimedSched::new(
            run::port_engine(ordinal),
            Rc::clone(&meter),
        ))
    };
    let mut plain = Plain::with_room();
    // Spans only: build and run, two per pass.
    let mut log = SpanLog::new(256, 2, MAX_ROWS);
    // Spans plus the forwarding adapter inside every port.
    let mut log_sched = SpanLog::new(256, 3, MAX_ROWS);
    let mut drifted = 0u64;
    let mut check = |r: &graph::GraphReport| {
        if Tally::of(inputs.offered, r) != tally {
            drifted += 1;
        }
    };
    let warm_until = Instant::now();
    while warm_until.elapsed().as_secs_f64() < args.warmup() {
        check(&graph_path::pass(
            inputs,
            &mut run::port_engine,
            &mut NoTrace,
        ));
    }
    // A pass is some ten milliseconds: one per turn keeps lanes close.
    let mut pass_plain = || {
        let r = graph_path::pass(inputs, &mut run::port_engine, &mut NoTrace);
        check(&r);
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds && log.has_room() {
        let before = Counts::now();
        let t = Instant::now();
        pass_plain();
        plain.unit_ns.push(t.elapsed().as_nanos() as u32);
        let d = Counts::now().since(before);
        plain.heap.calls += d.calls;
        plain.heap.bytes += d.bytes;

        log.begin_unit();
        let r = graph_path::pass(inputs, &mut run::port_engine, &mut log);
        drop(r);
        log.end_unit();

        log_sched.begin_unit();
        meter.take();
        let t0 = crate::tracer::Tracer::start(&mut log_sched);
        let r = graph_path::pass(inputs, &mut metered, &mut log_sched);
        let (ns, calls) = meter.take();
        let busy = (ns as f64 - calls as f64 * timer).max(0.0) as u64;
        log_sched.accumulated(Layer::GraphPortSched, t0, busy, calls as u32);
        drop(r);
        log_sched.end_unit();
    }
    ready.checks.require(drifted == 0, || {
        format!("{drifted} passes disagreed with the verified pass's books")
    });

    let q = log.fastest_quartile();
    let qs = log_sched.fastest_quartile();
    let total = q.unit_ns / delivered;
    let build = q.ns(Layer::GraphBuild) / delivered;
    rows.set("graph.total_ns", total);
    rows.set("graph.build_ns", build);
    rows.set(
        "graph.port.sched_ns",
        qs.ns(Layer::GraphPortSched) / delivered,
    );
    rows.set(
        "graph.port.sched_calls_per_pkt",
        qs.calls[Layer::GraphPortSched as usize] / delivered,
    );
    let run_l = Layer::GraphRun as usize;
    rows.set("graph.exec.allocs_per_pkt", q.allocs[run_l] / delivered);
    rows.set(
        "graph.exec.alloc_bytes_per_pkt",
        q.alloc_bytes[run_l] / delivered,
    );

    let reference = graph_path::pass(inputs, &mut run::port_engine, &mut NoTrace);
    let rp = probes::replay(inputs, &reference);
    let per = |ns: f64| ns / delivered;
    rows.set("graph.policer.ns", per(rp.policer_ns));
    rows.set("graph.classifier.ns", per(rp.classifier_ns));
    rows.set("graph.arena.alloc_free_ns", per(rp.arena_ns));
    rows.set("graph.port.ns", per(rp.port_ns));
    rows.set("netsim.switch.ns", per(rp.switch_ns));
    rows.set("des.queue.ns", per(rp.des_ns));
    rows.set("graph.batch_mean", rp.batch_mean);
    let nodes = per(rp.policer_ns + rp.classifier_ns + rp.arena_ns + rp.port_ns);
    rows.set("graph.exec.self_ns", total - build - nodes);
    eprintln!(
        "of {total:.0} ns per delivered packet: build {build:.0}, nodes replayed {nodes:.0}, executor itself {:.0}",
        total - build - nodes
    );

    let share = |n: u64| n as f64 / tally.offered as f64 * 100.0;
    rows.set("graph.policer.drop_share", share(tally.policed));
    rows.set("graph.port.refused_share", share(tally.refused));
    rows.set("graph.port.evicted_share", share(tally.evicted));
    rows.set(
        "graph.offered_load_pct",
        crate::stats::mean(&inputs.load) * 100.0,
    );
    rows.set("graph.sim_delay_p99_us", ready.sim_delay_p99_us);
    rows.set("traffic.gen_ns", probes::traffic_gen_ns());
    harness_rows(&mut rows, &plain, tally.delivered, traced_floor(&log_sched));
    write_trace(&log, args, "");
    write_trace(&log_sched, args, "-sched");

    let passes = (plain.unit_ns.len() * 3) as u64;
    let lost = tally.offered - tally.delivered - tally.policed - tally.refused - tally.evicted;
    Outcome::new(
        ready.checks,
        tally.offered * passes,
        lost * passes,
        rows.metrics(),
    )
}

/// The traced run of `args.workload`.
pub fn trace(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "engine_sync" => trace_engine(args),
        "graph_path" => trace_graph(args),
        _ => trace_sched(args),
    }
}
