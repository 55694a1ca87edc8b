//! Sharded-engine throughput snapshot: sustained packets/sec over the
//! shards × batch axes at 512 flows under deep backlog, written as
//! machine-readable JSON to `BENCH_engine.json` at the repository
//! root. Run it from anywhere with:
//!
//! ```text
//! cargo run --release -p bench --bin enginesnap [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the axes and the measurement windows so CI can
//! exercise the whole path in well under a second of measured time;
//! the committed artifact should come from a full run.
//!
//! The headline figure is the amortization win of the engine's native
//! batch path: a 4-shard engine drained in batches against the same
//! engine architecture at 1 shard driven strictly per packet (one
//! `drain(now, 1)` per departure — the degenerate configuration every
//! packet of the per-packet facade pays for). The
//! plain single-`Sfq` per-packet loop is also recorded so the cost of
//! the engine indirection itself stays visible across commits.
//!
//! Every grid point is measured twice along a `sched` axis: exact
//! rational `Sfq` shards and u64 fixed-point `SfqFast` shards (the
//! root arbiter stays exact either way), so the artifact records how
//! much of the engine's budget the shard scheduler actually is.

use bench::meta::Meta;
use bench::report;
use graph::{GraphSpec, PortKind, PortSpec};
use jsonline::{impl_to_json, ToJson};
use servers::RateProfile;
use sfq_core::{FlowId, Packet, PacketFactory, Scheduler, Sfq};
use sfq_engine::{Engine, EngineConfig, ShardSched, SyncEngine};
use simtime::{Bytes, Rate, SimTime};
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const PKT: u64 = 200;
const FLOWS: usize = 512;
/// Packets per flow preloaded before measuring: deep backlog, so every
/// drain pick finds work and the root arbiter is always arbitrating.
const DEPTH: usize = 64;
/// Packets ingested+drained per steady-state cycle.
const CYCLE: usize = 64;
/// Ring capacity: must exceed the whole preload (the deterministic
/// backpressure rule refuses at `pending >= ring_capacity`, and with
/// one shard the entire backlog is pending on that shard).
const RING: usize = 1 << 16;
/// Backlog per flow on the flow-count scale axis: shallow, so the 1M
/// point preloads 2 M packets rather than 64 M.
const SCALE_DEPTH: usize = 2;
/// Shard count for the flow-count scale axis.
const SCALE_SHARDS: usize = 4;
/// Largest flow count the exact-rational shard scheduler runs on the
/// scale axis (the fixed-point rows cover the million-flow regime).
const EXACT_SCALE_CAP: usize = 100_000;

#[derive(Debug)]
struct EnginePoint {
    drive: String,
    /// Shard scheduler: `"sfq"` (exact rational) or `"sfq_fast"`
    /// (u64 fixed-point). The root arbiter is exact in both cases.
    sched: String,
    shards: usize,
    batch: usize,
    flows: usize,
    backlog_per_flow: usize,
    pkts_per_sec: f64,
    ns_per_pkt: f64,
}
impl_to_json!(EnginePoint {
    drive,
    sched,
    shards,
    batch,
    flows,
    backlog_per_flow,
    pkts_per_sec,
    ns_per_pkt
});

/// One forwarding-graph point: a full run-to-completion pass over a
/// fixed topology + script, measured end to end (ingress classify →
/// schedule → transmit → pooled-slot return), wall clock per packet.
#[derive(Debug)]
struct GraphPoint {
    /// `"incast_4to1"` or `"matrix_4x4"`.
    topology: String,
    /// Port scheduler: `"sfq"`, `"sfq_fast"`, `"engine_sync"`.
    port: String,
    ports: usize,
    flows: usize,
    /// Packets injected (== delivered: the bench topologies are
    /// uncapped) per run-to-completion pass.
    pkts_per_run: u64,
    pkts_per_sec: f64,
    ns_per_pkt: f64,
}
impl_to_json!(GraphPoint {
    topology,
    port,
    ports,
    flows,
    pkts_per_run,
    pkts_per_sec,
    ns_per_pkt
});

#[derive(Debug)]
struct Snapshot {
    meta: Meta,
    smoke: bool,
    pkt_bytes: u64,
    flows: usize,
    backlog_per_flow: usize,
    warmup_ms: u64,
    measure_ms: u64,
    plain_sfq_per_packet_pps: f64,
    single_shard_per_packet_pps: f64,
    four_shard_batched_pps: f64,
    four_shard_batched_fast_pps: f64,
    speedup_4shard_batched_vs_single_shard_per_packet: f64,
    speedup_4shard_fast_vs_exact: f64,
    points: Vec<EnginePoint>,
    /// Flow-count scale axis (512 → 100k → 1M flows, shallow backlog):
    /// the 4-shard batched sync engine as the pooled flow tables grow.
    /// The exact shard scheduler stops at [`EXACT_SCALE_CAP`].
    flow_scale: Vec<EnginePoint>,
    /// Forwarding-graph axis: incast 4→1 and a 4×4 traffic matrix run
    /// to completion through the whole node pipeline, per port kind.
    graph_points: Vec<GraphPoint>,
}
impl_to_json!(Snapshot {
    meta,
    smoke,
    pkt_bytes,
    flows,
    backlog_per_flow,
    warmup_ms,
    measure_ms,
    plain_sfq_per_packet_pps,
    single_shard_per_packet_pps,
    four_shard_batched_pps,
    four_shard_batched_fast_pps,
    speedup_4shard_batched_vs_single_shard_per_packet,
    speedup_4shard_fast_vs_exact,
    points,
    flow_scale,
    graph_points
});

fn weight_of(f: usize) -> Rate {
    Rate::kbps(64 + f as u64)
}

/// Steady-state cycles (ingest `CYCLE`, drain `CYCLE`) against a deep
/// preloaded backlog; returns sustained drained packets per second.
/// `per_packet` issues one `drain(now, 1)` per departure instead of
/// one batched drain per cycle.
fn measure_driver<S: ShardSched>(
    mut eng: Engine<S>,
    per_packet: bool,
    warmup: Duration,
    win: Duration,
) -> f64 {
    measure_driver_at(
        eng_preloaded(&mut eng, FLOWS, DEPTH),
        eng,
        per_packet,
        warmup,
        win,
    )
}

/// Register `flows` flows and preload `depth` packets each; returns the
/// packet factory positioned after the preload.
fn eng_preloaded<S: ShardSched>(
    eng: &mut Engine<S>,
    flows: usize,
    depth: usize,
) -> (PacketFactory, usize) {
    let t0 = SimTime::ZERO;
    let mut pf = PacketFactory::new();
    for f in 0..flows {
        eng.try_add_flow(FlowId(f as u32), weight_of(f))
            .expect("register");
    }
    for _ in 0..depth {
        for f in 0..flows {
            eng.try_ingest(pf.make(FlowId(f as u32), Bytes::new(PKT), t0))
                .expect("ring sized for the backlog");
        }
    }
    (pf, flows)
}

fn measure_driver_at<S: ShardSched>(
    (mut pf, flows): (PacketFactory, usize),
    mut eng: Engine<S>,
    per_packet: bool,
    warmup: Duration,
    win: Duration,
) -> f64 {
    let t0 = SimTime::ZERO;
    let mut out = Vec::with_capacity(CYCLE);
    let mut i = 0u32;
    let mut cycle = |eng: &mut Engine<S>, pf: &mut PacketFactory, out: &mut Vec<Packet>| {
        for _ in 0..CYCLE {
            let f = FlowId(i % flows as u32);
            i = i.wrapping_add(1);
            eng.try_ingest(pf.make(f, Bytes::new(PKT), t0))
                .expect("ring sized for the backlog");
        }
        out.clear();
        let mut drain_n = |max| eng.drain(t0, max, out).expect("drain");
        let drained = if per_packet {
            (0..CYCLE).map(|_| drain_n(1)).sum::<usize>()
        } else {
            drain_n(CYCLE)
        };
        assert_eq!(drained, CYCLE, "under-drain against a deep backlog");
        black_box(out.last().map(|p| p.uid));
    };
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        cycle(&mut eng, &mut pf, &mut out);
    }
    let mut served = 0u64;
    let start = Instant::now();
    let end = start + win;
    while Instant::now() < end {
        cycle(&mut eng, &mut pf, &mut out);
        served += CYCLE as u64;
    }
    served as f64 / start.elapsed().as_secs_f64()
}

/// Plain single-`Sfq` per-packet loop, for the engine-overhead
/// comparison (same workload shape as `perfsnap`'s `measure`).
fn measure_plain_sfq(warmup: Duration, win: Duration) -> f64 {
    let t0 = SimTime::ZERO;
    let mut s = Sfq::new();
    let mut pf = PacketFactory::new();
    for f in 0..FLOWS {
        s.add_flow(FlowId(f as u32), weight_of(f));
    }
    for _ in 0..DEPTH {
        for f in 0..FLOWS {
            s.enqueue(t0, pf.make(FlowId(f as u32), Bytes::new(PKT), t0));
        }
    }
    let mut i = 0u32;
    let mut pair = |s: &mut Sfq, pf: &mut PacketFactory| {
        let f = FlowId(i % FLOWS as u32);
        i = i.wrapping_add(1);
        s.enqueue(t0, pf.make(f, Bytes::new(PKT), t0));
        let p = s.dequeue(t0).expect("backlogged");
        s.on_departure(t0);
        black_box(p.uid);
    };
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        for _ in 0..CYCLE {
            pair(&mut s, &mut pf);
        }
    }
    let mut served = 0u64;
    let start = Instant::now();
    let end = start + win;
    while Instant::now() < end {
        for _ in 0..CYCLE {
            pair(&mut s, &mut pf);
        }
        served += CYCLE as u64;
    }
    served as f64 / start.elapsed().as_secs_f64()
}

fn cfg(shards: usize, batch: usize) -> EngineConfig {
    EngineConfig::new(shards).batch(batch).ring_capacity(RING)
}

/// One injected source: `(entry node, flow, arrival script)`.
type GraphSource = (usize, FlowId, Vec<(SimTime, Bytes)>);

/// A graph-axis workload: named topology plus its sources, both
/// reusable across port kinds and passes.
struct GraphWorkload {
    topology: &'static str,
    spec: GraphSpec,
    sources: Vec<GraphSource>,
    ports: usize,
    flows: usize,
}

/// The two acceptance topologies under saturating t = 0 bursts: every
/// packet traverses classify → (schedule + transmit) → sink and rides
/// a pooled slot end to end.
fn graph_workloads(pkts_per_flow: usize) -> Vec<GraphWorkload> {
    let burst: Vec<(SimTime, Bytes)> = (0..pkts_per_flow)
        .map(|_| (SimTime::ZERO, Bytes::new(PKT)))
        .collect();

    // Incast 4→1: four weighted flows fanning into one port.
    let flows: Vec<(FlowId, Rate)> = (1..=4u32)
        .map(|f| (FlowId(f), Rate::kbps(64 * f as u64)))
        .collect();
    let port = PortSpec::new(RateProfile::constant(Rate::kbps(10_000)), flows);
    let incast = GraphWorkload {
        topology: "incast_4to1",
        spec: GraphSpec::incast(4, port),
        sources: (1..=4u32)
            .map(|f| ((f - 1) as usize, FlowId(f), burst.clone()))
            .collect(),
        ports: 1,
        flows: 4,
    };

    // 4×4 matrix: flow 1 + 4i + j enters at ingress i, exits at port j.
    let all_flows: Vec<(FlowId, Rate)> = (0..16)
        .map(|k| (FlowId(k as u32 + 1), Rate::kbps(64)))
        .collect();
    let ports: Vec<PortSpec> = (0..4)
        .map(|_| PortSpec::new(RateProfile::constant(Rate::kbps(10_000)), all_flows.clone()))
        .collect();
    let routes: Vec<(FlowId, usize)> = (0..16u32)
        .map(|k| (FlowId(k + 1), k as usize % 4))
        .collect();
    let matrix = GraphWorkload {
        topology: "matrix_4x4",
        spec: GraphSpec::matrix(4, ports, routes),
        sources: (0..16u32)
            .map(|k| ((k / 4) as usize, FlowId(k + 1), burst.clone()))
            .collect(),
        ports: 4,
        flows: 16,
    };
    vec![incast, matrix]
}

/// Wall-clock throughput of full run-to-completion passes over `w`
/// with every port built as `kind`: repeated build + inject + run
/// until the window closes, packets delivered per second of wall
/// time. Build cost is included deliberately — it is part of what a
/// run-to-completion batch pays.
fn measure_graph(w: &GraphWorkload, kind: PortKind, warmup: Duration, win: Duration) -> f64 {
    let pass = || {
        let mut g = w.spec.build(kind);
        for (entry, flow, arrivals) in &w.sources {
            g.add_source(*entry, *flow, arrivals);
        }
        let r = g.run(SimTime::from_secs(600));
        let delivered: u64 = r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum();
        assert!(
            r.audit.balanced() && r.audit.in_use == 0,
            "graph bench leaked slots"
        );
        black_box(delivered)
    };
    let expect = (w.flows * w.sources[0].2.len()) as u64;
    assert_eq!(pass(), expect, "bench topology must deliver everything");
    let warm_end = Instant::now() + warmup;
    while Instant::now() < warm_end {
        pass();
    }
    let mut served = 0u64;
    let start = Instant::now();
    let end = start + win;
    while Instant::now() < end {
        served += pass();
    }
    served as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (warmup, win) = if smoke {
        (Duration::from_millis(10), Duration::from_millis(30))
    } else {
        (Duration::from_millis(60), Duration::from_millis(180))
    };
    let shards_axis: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let batch_axis: &[usize] = if smoke { &[1, 32] } else { &[1, 8, 32] };

    eprintln!("enginesnap: sharded-engine steady-state drain throughput");
    let mut points = Vec::new();
    let push = |points: &mut Vec<EnginePoint>, drive: &str, sched: &str, sh, ba, pps: f64| {
        eprintln!("  {drive:>10} {sched:>9}  {sh} shard(s)  batch {ba:>2}  {pps:>12.0} pkt/s");
        points.push(EnginePoint {
            drive: drive.to_string(),
            sched: sched.to_string(),
            shards: sh,
            batch: ba,
            flows: FLOWS,
            backlog_per_flow: DEPTH,
            pkts_per_sec: pps,
            ns_per_pkt: 1e9 / pps,
        });
    };

    for &sh in shards_axis {
        for &ba in batch_axis {
            let pps = measure_driver(SyncEngine::new(cfg(sh, ba)), false, warmup, win);
            push(&mut points, "batched", "sfq", sh, ba, pps);
            let pps = measure_driver(SyncEngine::new_fast(cfg(sh, ba)), false, warmup, win);
            push(&mut points, "batched", "sfq_fast", sh, ba, pps);
        }
    }

    // The acceptance comparison: 4-shard batched engine vs the same
    // architecture at 1 shard driven strictly per packet.
    let single_pp = measure_driver(SyncEngine::new(cfg(1, 1)), true, warmup, win);
    push(&mut points, "per_packet", "sfq", 1, 1, single_pp);
    let point_of = |points: &Vec<EnginePoint>, sched: &str| {
        points
            .iter()
            .find(|p| p.drive == "batched" && p.sched == sched && p.shards == 4 && p.batch == 32)
            .map(|p| p.pkts_per_sec)
            .expect("axis includes (4, 32)")
    };
    let four_batched = point_of(&points, "sfq");
    let four_batched_fast = point_of(&points, "sfq_fast");

    // Flow-count scale axis: the batched sync engine with the default
    // pooled shard backends as the flow tables grow from hundreds to a
    // million registered flows. Rings are sized to the preload (with
    // 2x headroom over an even flow->shard split) instead of the fixed
    // RING so the million-flow point doesn't refuse at ingest.
    let flow_axis: &[usize] = if smoke {
        &[512, 4_096]
    } else {
        &[512, 100_000, 1_000_000]
    };
    let batch = *batch_axis.last().expect("nonempty axis");
    let mut flow_scale = Vec::new();
    eprintln!("enginesnap: flow-count scale axis (depth {SCALE_DEPTH}, {SCALE_SHARDS} shards, batch {batch})");
    for &q in flow_axis {
        let ring = (q * SCALE_DEPTH * 2) / SCALE_SHARDS + 4_096;
        let scale_cfg = EngineConfig::new(SCALE_SHARDS)
            .batch(batch)
            .ring_capacity(ring);
        let mut runs = vec![("sfq_fast", {
            let mut eng = SyncEngine::new_fast(scale_cfg);
            measure_driver_at(
                eng_preloaded(&mut eng, q, SCALE_DEPTH),
                eng,
                false,
                warmup,
                win,
            )
        })];
        if q <= EXACT_SCALE_CAP {
            runs.push(("sfq", {
                let mut eng = SyncEngine::new(scale_cfg);
                measure_driver_at(
                    eng_preloaded(&mut eng, q, SCALE_DEPTH),
                    eng,
                    false,
                    warmup,
                    win,
                )
            }));
        }
        for (sched, pps) in runs {
            eprintln!(
                "  {:>10} {sched:>9}  {q:>9} flows  {pps:>12.0} pkt/s",
                "batched"
            );
            flow_scale.push(EnginePoint {
                drive: "batched".to_string(),
                sched: sched.to_string(),
                shards: SCALE_SHARDS,
                batch,
                flows: q,
                backlog_per_flow: SCALE_DEPTH,
                pkts_per_sec: pps,
                ns_per_pkt: 1e9 / pps,
            });
        }
    }
    // Forwarding-graph axis: the full node pipeline (classify →
    // schedule → transmit → slot return) run to completion per pass,
    // on the two acceptance topologies, per port kind.
    let pkts_per_flow = if smoke { 200 } else { 2_000 };
    let mut graph_points = Vec::new();
    eprintln!("enginesnap: forwarding-graph axis ({pkts_per_flow} pkts/flow per pass)");
    for w in &graph_workloads(pkts_per_flow) {
        // Rings sized past the whole t = 0 burst (like RING on the main
        // axes): this axis measures pipeline cost, not backpressure.
        let ecfg = EngineConfig::new(2).ring_capacity(RING);
        let kinds: [(&str, PortKind); 3] = [
            ("sfq", PortKind::Sfq),
            ("sfq_fast", PortKind::SfqFast),
            ("engine_sync", PortKind::EngineSync(ecfg)),
        ];
        for (port, kind) in kinds {
            let pps = measure_graph(w, kind, warmup, win);
            eprintln!(
                "  {:>12} {port:>16}  {} port(s) {:>2} flows  {pps:>12.0} pkt/s",
                w.topology, w.ports, w.flows
            );
            graph_points.push(GraphPoint {
                topology: w.topology.to_string(),
                port: port.to_string(),
                ports: w.ports,
                flows: w.flows,
                pkts_per_run: (w.flows * pkts_per_flow) as u64,
                pkts_per_sec: pps,
                ns_per_pkt: 1e9 / pps,
            });
        }
    }

    let plain = measure_plain_sfq(warmup, win);
    eprintln!("  plain sfq per-packet                       {plain:>12.0} pkt/s");
    let speedup = four_batched / single_pp;
    eprintln!(
        "4-shard batched vs 1-shard per-packet: {four_batched:.0} / {single_pp:.0} = {speedup:.2}x"
    );
    let speedup_fast = four_batched_fast / four_batched;
    eprintln!(
        "4-shard fast shards vs exact shards:   {four_batched_fast:.0} / {four_batched:.0} = {speedup_fast:.2}x"
    );

    let snapshot = Snapshot {
        meta: Meta::capture(),
        smoke,
        pkt_bytes: PKT,
        flows: FLOWS,
        backlog_per_flow: DEPTH,
        warmup_ms: warmup.as_millis() as u64,
        measure_ms: win.as_millis() as u64,
        plain_sfq_per_packet_pps: plain,
        single_shard_per_packet_pps: single_pp,
        four_shard_batched_pps: four_batched,
        four_shard_batched_fast_pps: four_batched_fast,
        speedup_4shard_batched_vs_single_shard_per_packet: speedup,
        speedup_4shard_fast_vs_exact: speedup_fast,
        points,
        flow_scale,
        graph_points,
    };
    // crates/bench -> repository root.
    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_engine.json"]
        .iter()
        .collect();
    let mut f = std::fs::File::create(&out).expect("create BENCH_engine.json");
    writeln!(f, "{}", snapshot.to_json()).expect("write BENCH_engine.json");
    eprintln!("wrote {}", out.display());
    report::print_table(
        "enginesnap (pkt/s)",
        &["drive", "sched", "shards", "batch", "pkts/sec"],
        &snapshot
            .points
            .iter()
            .map(|p| {
                vec![
                    p.drive.clone(),
                    p.sched.clone(),
                    p.shards.to_string(),
                    p.batch.to_string(),
                    format!("{:.0}", p.pkts_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report::print_table(
        "enginesnap flow-count scale axis (pkt/s)",
        &["sched", "shards", "batch", "flows", "pkts/sec"],
        &snapshot
            .flow_scale
            .iter()
            .map(|p| {
                vec![
                    p.sched.clone(),
                    p.shards.to_string(),
                    p.batch.to_string(),
                    p.flows.to_string(),
                    format!("{:.0}", p.pkts_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report::print_table(
        "enginesnap forwarding-graph axis (pkt/s, end to end)",
        &["topology", "port", "ports", "flows", "pkts/run", "pkts/sec"],
        &snapshot
            .graph_points
            .iter()
            .map(|p| {
                vec![
                    p.topology.clone(),
                    p.port.clone(),
                    p.ports.to_string(),
                    p.flows.to_string(),
                    p.pkts_per_run.to_string(),
                    format!("{:.0}", p.pkts_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
