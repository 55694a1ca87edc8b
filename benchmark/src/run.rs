//! What both binaries share: arguments, set-up with its checks, the
//! timed loop and the estimator.

use crate::alloc::Counts;
use crate::closed::{Closed, Cycle, Discard};
use crate::graph_path::{self, GraphInputs, Tally};
use crate::inputs::{ClosedInputs, UNIT_PKTS};
use crate::json::Metric;
use crate::stats::UnitStats;
use crate::tracer::NoTrace;
use crate::verify::{Checks, Fnv, Verify};
use sfq_core::Scheduler;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sched_hot", "sched_scale", "engine_sync", "graph_path"];

/// Flows and preloaded depth of a closed-loop workload.
pub fn closed_shape(workload: &str) -> (u32, u32) {
    match workload {
        "sched_scale" => (1_000_000, 2),
        _ => (512, 64),
    }
}

/// Packets of the untimed verification pass (closed-loop workloads).
pub const VERIFY_PKTS: u64 = 1 << 20;
/// Departures the order digest covers.
pub const DIGEST_PKTS: u64 = 1 << 16;

/// Command line of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed region lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Directory trace files go to.
    pub out: PathBuf,
    /// File the result line is appended to, tagged with workload and
    /// seed, for `sfqbench compare`.
    pub append: Option<PathBuf>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1
    /// [--out DIR] [--append FILE]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            out: PathBuf::from("benchmark/out"),
            append: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => a.workload = val()?,
                "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    a.trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out" => a.out = PathBuf::from(val()?),
                "--append" => a.append = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(a.seconds > 0.0 && a.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(a)
    }

    /// Warm-up before the timed region, seconds.
    pub fn warmup(&self) -> f64 {
        (self.seconds / 4.0).min(2.0)
    }
}

/// Most units one timed region records (8 MB of readings).
const MAX_UNITS: usize = 1 << 21;

/// Run `unit` back to back for `seconds`, pushing each unit's wall time
/// (ns) onto `unit_ns`: one timestamp per unit boundary, so no time
/// between units goes uncounted. Stops early rather than grow the
/// vector, which would allocate inside the timed region.
pub fn run_units(seconds: f64, unit_ns: &mut Vec<u32>, mut unit: impl FnMut()) {
    let start = Instant::now();
    let mut prev = start;
    while unit_ns.len() < unit_ns.capacity() {
        unit();
        let now = Instant::now();
        unit_ns.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        prev = now;
        if (now - start).as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Warm up, then time: returns per-unit wall times and the allocator
/// counts of the timed region. The readings go to a buffer of fixed
/// size touched beforehand, so the harness's own memory is the same on
/// a fast and on a slow machine and `peak_rss_mb` does not follow the
/// unit count.
pub fn warm_then_time(warmup: f64, seconds: f64, mut unit: impl FnMut()) -> (Vec<u32>, Counts) {
    let mut unit_ns = vec![1u32; MAX_UNITS];
    unit_ns.clear();
    run_units(warmup, &mut unit_ns, &mut unit);
    unit_ns.clear();
    let before = Counts::now();
    run_units(seconds, &mut unit_ns, &mut unit);
    let allocs = Counts::now().since(before);
    (unit_ns, allocs)
}

/// Time `build` `builds` times and keep the last state. The count is a
/// constant of the workload, never a measurement, so that the heap a
/// seed's timed region runs on is the same on every run. Only one state
/// is alive at a time, so peak memory is that of one.
pub fn timed_builds<S>(times: &mut Vec<f64>, builds: usize, mut build: impl FnMut() -> S) -> S {
    let mut state = None;
    for _ in 0..builds.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    state.expect("at least one build ran")
}

/// Builds of a closed-loop workload's state: about four million
/// preloaded packets' worth, so a millisecond-sized set-up is sampled
/// often and a quarter-second one eight times.
fn closed_builds(flows: u32, depth: u32) -> usize {
    ((1usize << 22) / (flows as usize * depth as usize)).clamp(8, 128)
}

/// Generations of the `graph_path` inputs (a few milliseconds each).
const GRAPH_BUILDS: usize = 128;

/// The set-up time reported from a run's builds: the fastest, for the
/// reason the unit estimator is the fast edge (see [`UnitStats`]).
pub fn setup_time(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A closed-loop workload set up, verified and ready for warm-up.
pub struct Ready<C> {
    /// The seed's arrival script.
    pub inputs: ClosedInputs,
    /// Program state, in steady state after the verification pass.
    pub state: Closed<C>,
    /// Wall time of the fastest set-up (construct, register, preload).
    pub setup_s: f64,
    /// Spread of normalized service over the verification pass divided
    /// by the fairness bound; above 1 the run is incorrect.
    pub fair_gap_ratio: f64,
    /// Checks made so far.
    pub checks: Checks,
}

/// Digest of the first [`DIGEST_PKTS`] departures of a fresh state.
pub fn order_digest<C: Cycle>(state: &mut Closed<C>, inputs: &ClosedInputs) -> Fnv {
    let mut v = Verify::new(inputs.flows, inputs.depth, DIGEST_PKTS);
    for _ in 0..DIGEST_PKTS / UNIT_PKTS {
        state.unit(inputs, &mut NoTrace, &mut v);
    }
    v.digest
}

/// Set a closed-loop workload up and run its output checks.
pub fn prepare_closed<C: Cycle>(
    workload: &str,
    seed: u64,
    build: impl Fn(&ClosedInputs) -> Closed<C>,
) -> Ready<C> {
    let (flows, depth) = closed_shape(workload);
    let mut checks = Checks::default();
    let mut times = Vec::new();

    // Another seed must give another departure order ...
    let other = ClosedInputs::generate(flows, depth, seed.wrapping_add(1));
    let t = Instant::now();
    let mut st = build(&other);
    times.push(t.elapsed().as_secs_f64());
    let d_other = order_digest(&mut st, &other);
    drop((st, other));

    // ... and the same seed the same one, from two independent builds.
    let inputs = ClosedInputs::generate(flows, depth, seed);
    let t = Instant::now();
    let mut st = build(&inputs);
    times.push(t.elapsed().as_secs_f64());
    let d_first = order_digest(&mut st, &inputs);
    drop(st);

    let mut state = timed_builds(&mut times, closed_builds(flows, depth), || build(&inputs));
    checks.require(state.refused == 0, || {
        format!("{} preloaded packets were refused", state.refused)
    });

    let mut v = Verify::new(flows, depth, DIGEST_PKTS);
    let mut delivered = 0;
    for _ in 0..VERIFY_PKTS / UNIT_PKTS {
        delivered += state.unit(&inputs, &mut NoTrace, &mut v);
    }
    checks.require(delivered == VERIFY_PKTS, || {
        format!("verification pass delivered {delivered} of {VERIFY_PKTS} packets")
    });
    checks.require(state.refused == 0, || {
        format!(
            "{} packets refused on a closed-loop workload",
            state.refused
        )
    });
    checks.require(v.digest == d_first, || {
        "two passes of the same seed departed in different orders".into()
    });
    checks.require(v.digest != d_other, || {
        "another seed gave the same departure order".into()
    });
    let fair_gap_ratio = match v.spread() {
        Some(s) => {
            let bound = state.inner.fair_bound_s(&s, flows);
            eprintln!(
                "fairness: {} of {flows} flows stayed backlogged; W/r spread {:.6} s, bound {:.6} s",
                s.eligible, s.gap_s, bound
            );
            s.gap_s / bound
        }
        None => {
            checks.require(false, || {
                "fewer than two flows stayed backlogged: fairness unchecked".into()
            });
            f64::NAN
        }
    };
    checks.require(fair_gap_ratio <= 1.0, || {
        format!("fairness bound violated: gap / bound = {fair_gap_ratio}")
    });

    Ready {
        inputs,
        state,
        setup_s: setup_time(&times),
        fair_gap_ratio,
        checks,
    }
}

/// Warm up and time a prepared closed-loop workload.
pub fn time_closed<C: Cycle>(ready: &mut Ready<C>, args: &Args) -> (Vec<u32>, Counts) {
    let Ready { inputs, state, .. } = ready;
    warm_then_time(args.warmup(), args.seconds, || {
        state.unit(inputs, &mut NoTrace, &mut Discard);
    })
}

/// The graph workload set up, verified and ready for warm-up.
pub struct GraphReady {
    /// Topology and traffic of the seed.
    pub inputs: GraphInputs,
    /// Wall time of the fastest generation of them.
    pub setup_s: f64,
    /// Where one pass's packets go (every pass of a seed is identical).
    pub tally: Tally,
    /// p99 simulated sojourn of delivered packets, µs.
    pub sim_delay_p99_us: f64,
    /// Checks made so far.
    pub checks: Checks,
}

/// Scheduler every port of `graph_path` runs: a 2-shard `SyncEngine`
/// over `SfqFast`, driven per packet through the `Scheduler` facade.
pub fn port_engine(_ordinal: usize) -> Box<dyn Scheduler> {
    Box::new(sfq_engine::SyncEngine::new_fast(
        sfq_engine::EngineConfig::new(graph_path::PORT_SHARDS),
    ))
}

/// Set `graph_path` up and run its output checks.
pub fn prepare_graph(seed: u64) -> GraphReady {
    let mut checks = Checks::default();
    let mut times = Vec::new();
    let other = GraphInputs::generate(seed.wrapping_add(1));
    let d_other = graph_path::digest(&graph_path::pass(&other, &mut port_engine, &mut NoTrace));
    drop(other);

    let inputs = timed_builds(&mut times, GRAPH_BUILDS, || GraphInputs::generate(seed));
    let first = graph_path::pass(&inputs, &mut port_engine, &mut NoTrace);
    let second = graph_path::pass(&inputs, &mut port_engine, &mut NoTrace);
    let tally = Tally::of(inputs.offered, &first);
    eprintln!(
        "graph pass: {tally:?}; offered load per egress {:?}",
        inputs.load
    );
    checks.require(tally.conserved(), || {
        format!("a pass lost packets or arena slots: {tally:?}")
    });
    checks.require(tally.delivered > 0, || "a pass delivered nothing".into());
    checks.require(
        graph_path::digest(&first) == graph_path::digest(&second),
        || "two passes of the same seed departed differently".into(),
    );
    checks.require(graph_path::digest(&first) != d_other, || {
        "another seed gave the same departures".into()
    });
    GraphReady {
        setup_s: setup_time(&times),
        sim_delay_p99_us: graph_path::sim_delay_p99_us(&first),
        inputs,
        tally,
        checks,
    }
}

/// Warm up and time `graph_path`: every pass is checked against the
/// first one's books.
pub fn time_graph(ready: &mut GraphReady, args: &Args) -> (Vec<u32>, Counts) {
    let GraphReady {
        inputs,
        tally,
        checks,
        ..
    } = ready;
    let mut drifted = 0u64;
    let timed = warm_then_time(args.warmup(), args.seconds, || {
        let report = graph_path::pass(inputs, &mut port_engine, &mut NoTrace);
        if Tally::of(inputs.offered, &report) != *tally {
            drifted += 1;
        }
    });
    checks.require(drifted == 0, || {
        format!("{drifted} passes disagreed with the verified pass's books")
    });
    timed
}

/// What a run reports: the contract's result line, unformatted.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Packets offered to the program.
    pub attempted: u64,
    /// Packets neither delivered, shed by design nor still queued by
    /// design — all of them when a check failed.
    pub failed: u64,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Outcome of a run that offered `attempted` packets and lost
    /// `lost` of them.
    pub fn new(checks: Checks, attempted: u64, lost: u64, metrics: Vec<Metric>) -> Outcome {
        let correct = checks.passed();
        Outcome {
            correct,
            attempted,
            failed: if correct { lost } else { attempted },
            metrics,
        }
    }
}

/// End of an `engine_sync` run, after `settle`: the counter pages must
/// close at the drained point and every offered packet must have come
/// back out.
pub fn engine_end_checks(
    checks: &mut Checks,
    st: &Closed<crate::closed::EngineLoop>,
    gap: Option<i128>,
) {
    checks.require(gap == Some(0), || {
        format!("counter pages do not close at the drained point: gap {gap:?}")
    });
    checks.require(st.offered == st.delivered + st.refused, || {
        format!(
            "offered {} != delivered {} + refused {}",
            st.offered, st.delivered, st.refused
        )
    });
}

/// The end-to-end metrics of one run, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ns_per_pkt", "ns"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

fn end_to_end(stats: &UnitStats, pkts_per_unit: u64, setup_s: f64) -> Vec<Metric> {
    let values = [
        stats.floor / pkts_per_unit as f64,
        crate::verify::peak_rss_mb(),
        setup_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// The end-to-end run of `args.workload`. The ungated statistics go to
/// stderr.
pub fn bench(args: &Args) -> Outcome {
    // (per-unit times, allocator counts, packets per unit, set-up time,
    //  checks, offered, lost)
    let (unit_ns, allocs, pkts_per_unit, setup_s, checks, attempted, lost) =
        match args.workload.as_str() {
            "engine_sync" => {
                let mut ready = prepare_closed(&args.workload, args.seed, |i| {
                    crate::closed::build_engine(i, true)
                });
                let (unit_ns, allocs) = time_closed(&mut ready, args);
                let st = &mut ready.state;
                let (drained, gap) = st.inner.settle(simtime::SimTime::from_secs(3600));
                st.delivered += drained;
                engine_end_checks(&mut ready.checks, st, gap);
                let lost = st.offered - st.delivered;
                (
                    unit_ns,
                    allocs,
                    UNIT_PKTS,
                    ready.setup_s,
                    ready.checks,
                    st.offered,
                    lost,
                )
            }
            "graph_path" => {
                let mut ready = prepare_graph(args.seed);
                let (unit_ns, allocs) = time_graph(&mut ready, args);
                let t = ready.tally;
                let passes = unit_ns.len() as u64;
                let lost = t.offered - t.delivered - t.policed - t.refused - t.evicted;
                eprintln!("sim_delay_p99_us {:.3}", ready.sim_delay_p99_us);
                (
                    unit_ns,
                    allocs,
                    t.delivered,
                    ready.setup_s,
                    ready.checks,
                    t.offered * passes,
                    lost * passes,
                )
            }
            _ => {
                let mut ready =
                    prepare_closed(&args.workload, args.seed, crate::closed::build_sched);
                let (unit_ns, allocs) = time_closed(&mut ready, args);
                let st = &ready.state;
                // The preloaded backlog is still queued, by design.
                (
                    unit_ns,
                    allocs,
                    UNIT_PKTS,
                    ready.setup_s,
                    ready.checks,
                    st.offered,
                    st.refused,
                )
            }
        };
    let stats = UnitStats::of(&unit_ns);
    let per = |ns: f64| ns / pkts_per_unit as f64;
    let timed_pkts = stats.units as f64 * pkts_per_unit as f64;
    eprintln!(
        "units {} of {pkts_per_unit} pkts; ns/pkt floor {:.2} p05 {:.2} p50 {:.2} p99 {:.2} mean {:.2}; allocs_per_kpkt {:.3} ({:.1} B/pkt)",
        stats.units,
        per(stats.floor),
        per(stats.p05),
        per(stats.p50),
        per(stats.p99),
        per(stats.mean),
        allocs.calls as f64 * 1000.0 / timed_pkts,
        allocs.bytes as f64 / timed_pkts,
    );
    Outcome::new(
        checks,
        attempted,
        lost,
        end_to_end(&stats, pkts_per_unit, setup_s),
    )
}

/// Print the result line (and append the tagged copy `compare` reads).
pub fn emit(args: &Args, outcome: &Outcome) {
    let line = crate::json::result_line(
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        &outcome.metrics,
    );
    if let Some(path) = &args.append {
        use std::io::Write;
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            args.workload, args.seed, args.trace as u8
        );
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()));
        if let Err(e) = res {
            eprintln!("cannot append to {}: {e}", path.display());
        }
    }
    println!("{line}");
}
