//! Executor goldens: digests and counts captured from the three deleted
//! `netsim` executors (`Net`, `Tandem`, `Mesh`) at the commit before
//! they were ported onto `graph::Graph`, plus one digest of a scripted
//! matrix run on the graph executor of that same commit, plus two
//! policed matrices over engine ports captured at the commit before
//! the policer's and the root arbiter's arithmetic went unreduced, plus
//! a same-instant torture run captured at the commit before scripted
//! injections left the event queue and zero-delay hand-offs went in
//! place. The graph-backed code must reproduce every one of them bit
//! for bit: a golden that moves means the executor's same-instant
//! event order changed (see docs/graph.md, "Same-instant event
//! order"), and is to be explained, never silently re-pinned.

use bench::exp_fig1b::{fig1b, Discipline};
use bench::exp_tandem::{tandem, tandem_mixed};
use conformance::{run_tandem_conformance, Preset, Scenario};
use graph::{Departure, GraphReport};
use netsim::DropPolicy;
use sfq_repro::prelude::*;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Exact rational time: numerator and denominator, so nothing
    /// hides behind float rounding.
    fn time(&mut self, t: SimTime) {
        let r = t.as_ratio();
        self.word(r.numer() as u64);
        self.word(r.denom() as u64);
    }
}

/// Digest of `(flow, uid, delivery time)` over a single-sink run's
/// deliveries in `(time, uid)` order — the order the old executors
/// reported them in.
fn delivery_digest(r: &GraphReport) -> (usize, u64) {
    assert!(r.audit.balanced(), "arena books unbalanced: {:?}", r.audit);
    let mut d: Vec<Departure> = r.sink_departures[0].1.clone();
    d.sort_by_key(|x| (x.at, x.uid));
    let mut h = Fnv::new();
    for x in &d {
        h.word(x.flow.0 as u64);
        h.word(x.uid);
        h.time(x.at);
    }
    (d.len(), h.0)
}

/// `tests/determinism.rs`' `run_net`: priority VBR + two TCP flows over
/// one 2 Mb/s SFQ bottleneck.
fn run_net(seed: u64) -> GraphReport {
    let mut port = PortSpec::new(
        RateProfile::constant(Rate::mbps(2)),
        vec![(FlowId(2), Rate::mbps(1)), (FlowId(3), Rate::mbps(1))],
    );
    port.per_flow_cap = Some(50);
    let prop = SimDuration::from_millis(1);
    let routes: Vec<_> = (1..=3).map(|f| (FlowId(f), vec![0])).collect();
    let mut net = GraphSpec::routed(vec![(port, prop)], &routes).build(PortKind::Sfq);
    let vbr = VbrVideoSource::new(
        SimTime::ZERO,
        Rate::kbps(800),
        Bytes::new(50),
        30,
        0.4,
        SimRng::new(seed),
    );
    let arrivals = arrivals_until(vbr, SimTime::from_millis(800));
    net.add_priority_source(0, FlowId(1), &arrivals);
    net.add_tcp_source(0, FlowId(2), TcpConfig::default(), prop, SimTime::ZERO);
    net.add_tcp_source(
        0,
        FlowId(3),
        TcpConfig::default(),
        prop,
        SimTime::from_millis(200),
    );
    net.run(SimTime::from_millis(800))
}

#[test]
fn net_bottleneck_deliveries_match_the_old_net() {
    assert_eq!(
        delivery_digest(&run_net(1234)),
        (2248, 0x3bb0_717d_be3c_b168)
    );
    assert_eq!(delivery_digest(&run_net(1)), (2084, 0x554e_ed11_a59a_11bb));
}

#[test]
fn fig1b_counts_match_the_old_net() {
    let counts = |d| {
        let r = fig1b(d, 42, SimTime::from_secs(1));
        (r.src2_after_start3, r.src3_after_start3, r.src3_first_435ms)
    };
    assert_eq!(counts(Discipline::Sfq), (223, 216, 178));
    assert_eq!(counts(Discipline::Wfq), (408, 31, 15));
}

#[test]
fn tandem_conformance_fingerprints_match_the_old_tandem() {
    // (seed, completed observed packets, fingerprint digest, straggler
    // packets refused after churn).
    for (seed, n, digest, churn_refused) in [
        (1u64, 267usize, 0x640e_2400_2e65_650d_u64, 0u64),
        (11, 78, 0xaf3d_f256_e624_be3b, 172),
        (77, 181, 0x4aa1_75cd_69e2_f743, 233),
    ] {
        for with_observers in [false, true] {
            let sc = Scenario::from_seed(Preset::Tandem, seed);
            let out = run_tandem_conformance(&sc, with_observers);
            let mut h = Fnv::new();
            for &(uid, at) in &out.fingerprint {
                h.word(uid);
                h.time(at);
            }
            let what = format!("seed {seed}, observers {with_observers}");
            assert_eq!((out.fingerprint.len(), h.0), (n, digest), "{what}");
            assert_eq!(out.churn_refused, churn_refused, "{what}");
            assert_eq!((out.churn_discarded, out.buffer_dropped), (0, 0), "{what}");
            assert_eq!(out.theorem6_violation, SimDuration::ZERO, "{what}");
            assert_eq!(out.corollary1_violation, SimDuration::ZERO, "{what}");
        }
    }
}

#[test]
fn parking_lot_counts_match_the_old_mesh() {
    // examples/parking_lot.rs at its 10 s horizon.
    let link = |flows: &[u32]| {
        let flows = flows
            .iter()
            .map(|&f| (FlowId(f), Rate::kbps(500)))
            .collect();
        let mut port = PortSpec::new(RateProfile::constant(Rate::mbps(1)), flows);
        port.per_flow_cap = Some(64);
        (port, SimDuration::from_millis(1))
    };
    let spec = GraphSpec::routed(
        vec![link(&[1, 2]), link(&[1, 3]), link(&[1, 4])],
        &[
            (FlowId(1), vec![0, 1, 2]),
            (FlowId(2), vec![0]),
            (FlowId(3), vec![1]),
            (FlowId(4), vec![2]),
        ],
    );
    let mut g = spec.build(PortKind::Sfq);
    let cfg = TcpConfig::default();
    g.add_tcp_source(
        0,
        FlowId(1),
        cfg,
        SimDuration::from_millis(3),
        SimTime::ZERO,
    );
    for (f, entry) in [(2u32, 0), (3, 1), (4, 2)] {
        g.add_tcp_source(
            entry,
            FlowId(f),
            cfg,
            SimDuration::from_millis(1),
            SimTime::ZERO,
        );
    }
    let r = g.run(SimTime::from_secs(10));
    let counts: Vec<usize> = (1..=4u32)
        .map(|f| {
            r.sink_departures[0]
                .1
                .iter()
                .filter(|d| d.flow == FlowId(f))
                .count()
        })
        .collect();
    assert_eq!(counts, [3116, 3129, 3131, 3132]);
    assert_eq!(delivery_digest(&r).1, 0x4de0_d315_1690_ac12);
}

#[test]
fn exp_tandem_delays_match_the_old_tandem() {
    // `-p bench --bin tandem` defaults: 60 s, seed 11.
    let res = tandem(&[1, 2, 3, 4, 5], SimTime::from_secs(60), 11);
    let measured: Vec<u64> = res.iter().map(|r| r.measured_max_s.to_bits()).collect();
    let golden = [0.03947287, 0.04247287, 0.04547287, 0.04847287, 0.05147287];
    assert_eq!(measured, golden.map(f64::to_bits));
    let mixed = tandem_mixed(SimTime::from_secs(60), 11);
    assert_eq!(mixed.measured_max_s.to_bits(), 0.04547287f64.to_bits());
}

/// Today's graph, unchanged: a scripted 4×4 matrix with shared caps
/// under both eviction-free and head-drop policies, pinned on the
/// executor before the port so scripted-only graphs are shown to run
/// the same event sequence.
#[test]
fn scripted_matrix_digest_is_unchanged() {
    let ports: Vec<PortSpec> = (0..4)
        .map(|j| {
            let flows = (0..16u32)
                .filter(|k| k % 4 == j)
                .map(|k| (FlowId(k + 1), Rate::bps(10_000 * (1 + (k as u64 % 3)))))
                .collect();
            let mut p = PortSpec::new(RateProfile::constant(Rate::bps(100_000)), flows);
            p.shared_cap = Some(12);
            p.policy = if j % 2 == 0 {
                DropPolicy::TailDrop
            } else {
                DropPolicy::HeadDrop
            };
            p
        })
        .collect();
    let routes = (0..16u32)
        .map(|k| (FlowId(k + 1), (k % 4) as usize))
        .collect();
    let spec = GraphSpec::matrix(4, ports, routes);
    let mut g = spec.build(PortKind::Sfq);
    for k in 0..16u32 {
        let arr: Vec<(SimTime, Bytes)> = (0..40)
            .map(|i| {
                (
                    SimTime::from_millis((i / 4) * 37 + (k as i128 % 5)),
                    Bytes::new(100 + 25 * ((i as u64 + k as u64) % 7)),
                )
            })
            .collect();
        g.add_source((k / 4) as usize, FlowId(k + 1), &arr);
    }
    let r = g.run(SimTime::from_secs(600));
    let mut h = Fnv::new();
    for (sink, deps) in &r.sink_departures {
        h.word(*sink as u64);
        for d in deps {
            h.word(d.uid);
            h.time(d.at);
        }
    }
    for (n, refs) in &r.port_refusals {
        h.word(*n as u64);
        for u in refs {
            h.word(*u);
        }
    }
    let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
    let shed: u64 = r.port_drops.iter().map(|&(_, n)| n).sum();
    assert_eq!((delivered, shed, r.evicted), (147, 493, 194));
    assert_eq!(h.0, 0xd0b4_b211_ef8e_f57a);
    assert!(r.audit.balanced() && r.audit.in_use == 0);
}

/// A 4×4 matrix behind four ingress policers: sixteen flows, flow `k`
/// entering at policer `k / 4` and leaving by port `k % 4`, every port
/// a 2-shard `SyncEngine` under a 12-packet head-drop shared buffer.
/// `caps = false` lifts the buffers, so nothing but a policer sheds.
fn policed_matrix(caps: bool) -> (Graph, Vec<usize>) {
    let weight = |k: u32| Rate::kbps(64 + 24 * (k as u64 % 5));
    let ports: Vec<PortSpec> = (0..4u32)
        .map(|j| {
            let flows: Vec<(FlowId, Rate)> = (0..16u32)
                .filter(|k| k % 4 == j)
                .map(|k| (FlowId(k), weight(k)))
                .collect();
            let mean: u64 = flows.iter().map(|(_, r)| r.as_bps()).sum();
            let link = RateProfile::constant(Rate::bps(mean * 10 / 9));
            let mut p = PortSpec::new(link, flows);
            if caps {
                p.shared_cap = Some(12);
                p.policy = DropPolicy::HeadDrop;
            }
            p
        })
        .collect();
    let routes = (0..16u32).map(|k| (FlowId(k), (k % 4) as usize)).collect();
    let mut spec = GraphSpec::matrix(4, ports, routes);
    let policers = (0..4u32)
        .map(|i| {
            let rules = (0..16u32)
                .filter(|k| k / 4 == i)
                .map(|k| {
                    let bucket = graph::TokenBucket {
                        sigma: Bytes::new(3_000),
                        rho: Rate::bps(weight(k).as_bps() * 5 / 4),
                    };
                    (FlowId(k), bucket)
                })
                .collect();
            spec.add_policer(i as usize, rules)
        })
        .collect();
    let cfg = sfq_engine::EngineConfig::new(2);
    (spec.build(PortKind::EngineSync(cfg)), policers)
}

/// What a policed-matrix run is pinned by: the digest of every sink's
/// `(uid, exact departure time)` sequence, of the per-flow policed uid
/// lists and of the per-port refusal lists, then the delivered /
/// policed / refused / evicted counts. The policed uids are read off
/// the uncapped twin of the run (`open`), where a packet that is not
/// delivered can only have been policed; a policer's decisions depend
/// on nothing downstream of it, which the two runs' equal policed
/// counts check.
fn policed_fingerprint(capped: &GraphReport, open: &GraphReport) -> (u64, [u64; 4]) {
    assert!(capped.audit.balanced() && capped.audit.in_use == 0);
    assert!(open.audit.balanced() && open.audit.in_use == 0);
    assert_eq!(capped.policer_dropped, open.policer_dropped);
    assert_eq!(open.evicted, 0);
    assert!(open.port_refusals.iter().all(|(_, u)| u.is_empty()));
    let mut h = Fnv::new();
    for (sink, deps) in &capped.sink_departures {
        h.word(*sink as u64);
        for d in deps {
            h.word(d.uid);
            h.time(d.at);
        }
    }
    let mut policed: Vec<(u32, u64)> = open
        .transits
        .iter()
        .filter(|t| t.delivered.is_none())
        .map(|t| (t.pkt.flow.0, t.pkt.uid))
        .collect();
    policed.sort_unstable();
    assert_eq!(policed.len() as u64, capped.policer_dropped);
    for (flow, uid) in policed {
        h.word(flow as u64);
        h.word(uid);
    }
    for (port, uids) in &capped.port_refusals {
        h.word(*port as u64);
        for u in uids {
            h.word(*u);
        }
    }
    let delivered = capped.sink_departures.iter().map(|(_, d)| d.len() as u64);
    let refused = capped.port_refusals.iter().map(|(_, u)| u.len() as u64);
    let tally = [
        delivered.sum(),
        capped.policer_dropped,
        refused.sum(),
        capped.evicted,
    ];
    assert_eq!(tally.iter().sum::<u64>(), capped.transits.len() as u64);
    (h.0, tally)
}

/// Captured at the commit before policer TATs and root-arbiter tags
/// went unreduced and the script sort went to integer keys: heavy-tailed
/// on-off sources on the nanosecond lattice through policers and
/// engine ports, which no golden above covers.
#[test]
fn policed_engine_matrix_is_unchanged() {
    let run = |caps| {
        let (mut g, policers) = policed_matrix(caps);
        let mut rng = SimRng::new(0x5f0_1996);
        for k in 0..16u32 {
            let src = traffic::ParetoOnOffSource::new(
                SimTime::from_nanos(1_000_003 * k as i128),
                SimDuration::from_nanos(2_853_333_333 / (64 + 24 * (k as i128 % 5))),
                Bytes::new(64),
                0.2,
                0.2,
                1.5,
                rng.fork(k as u64),
            );
            let arrivals: Vec<(SimTime, Bytes)> = arrivals_until(src, SimTime::from_secs(6))
                .into_iter()
                .enumerate()
                .map(|(i, (t, _))| (t, Bytes::new([64, 576, 1500][(i + k as usize) % 3])))
                .collect();
            g.add_source(policers[(k / 4) as usize], FlowId(k), &arrivals);
        }
        g.run(SimTime::from_secs(3600))
    };
    assert_eq!(
        policed_fingerprint(&run(true), &run(false)),
        (0x2885_024f_9125_8264, [1599, 323, 8, 29])
    );
}

/// Same pin, second branch of the script sort: arrival denominators
/// that are pairwise coprime per ingress, so that no common `u64`
/// lattice holds them and the script is ordered by comparing exact
/// times; a millisecond-lattice arrival every fourth packet puts
/// same-instant arrivals at all four entries, and a strict-priority
/// source at port 0 shares those instants.
#[test]
fn coprime_lattice_script_is_unchanged() {
    const DENS: [i128; 4] = [1_000_003, 1_000_033, 1_000_037, 1_000_039];
    let run = |caps| {
        let (mut g, policers) = policed_matrix(caps);
        for k in 0..16u32 {
            let den = DENS[(k / 4) as usize];
            let arrivals: Vec<(SimTime, Bytes)> = (0..60i128)
                .map(|i| {
                    let at = if i % 4 == 0 {
                        SimTime::from_millis(40 * i)
                    } else {
                        let num = 40 * i * den / 1_000 + 7_919 * (k as i128 % 3);
                        SimTime::from_ratio(Ratio::new(num, den))
                    };
                    (at, Bytes::new(200 + 150 * ((i as u64 + k as u64) % 8)))
                })
                .collect();
            g.add_source(policers[(k / 4) as usize], FlowId(k), &arrivals);
        }
        let vbr: Vec<(SimTime, Bytes)> = (0..30)
            .map(|i| (SimTime::from_millis(80 * i), Bytes::new(90)))
            .collect();
        g.add_priority_source(4, FlowId(99), &vbr);
        g.run(SimTime::from_secs(3600))
    };
    assert_eq!(
        policed_fingerprint(&run(true), &run(false)),
        (0x104b_bf5e_399c_180c, [844, 127, 3, 16])
    );
}

/// Same-instant torture: everything on one half-millisecond lattice, so
/// that nearly every event shares its instant with another. Ports A
/// (node 0) and B (node 1) run at one rate under identical scripts and
/// complete at the same instants into port C (node 2) over zero-delay
/// wires; C's exit classifier (node 3) sends flows 1, 3, 5 and the
/// priority flow 9 to sink 5 over a zero-delay wire and flows 2 and 4
/// over a 3 ms wire to port D (node 4), whose own out-wire to sink 6
/// takes 2 ms. Zero-length packets (finish time == start time: the
/// restarted link completes at `now` again) ride flows 2, 4 and 9; a
/// TCP connection on the lattice (MSS 125 B, 1 ms ACK path) enters at
/// A; a flow is churned at C and another at D at completion instants;
/// C sheds under a head-drop shared buffer and A refuses under a
/// per-flow cap.
fn same_instant_torture(kind: PortKind) -> GraphReport {
    use graph::{Edge, NodeSpec};
    let port = |bps: u64, flows: &[u32]| {
        let flows = flows.iter().map(|&f| (FlowId(f), Rate::bps(bps / 5)));
        PortSpec::new(RateProfile::constant(Rate::bps(bps)), flows.collect())
    };
    let wire = |to: usize, ms: i128| Edge {
        to,
        prop: SimDuration::from_millis(ms),
    };
    let mut a = port(1_000_000, &[1, 2, 5]);
    a.per_flow_cap = Some(3);
    let b = port(1_000_000, &[3, 4]);
    let mut c = port(1_000_000, &[1, 2, 3, 4, 5]);
    c.shared_cap = Some(5);
    c.policy = DropPolicy::HeadDrop;
    let d = port(1_000_000, &[2, 4]);
    let exit = NodeSpec::Classify {
        routes: vec![(FlowId(2), 1), (FlowId(4), 1)],
        default: Some(0),
    };
    let spec = GraphSpec {
        nodes: vec![
            NodeSpec::Port(a),
            NodeSpec::Port(b),
            NodeSpec::Port(c),
            exit,
            NodeSpec::Port(d),
            NodeSpec::Sink,
            NodeSpec::Sink,
        ],
        wires: vec![
            vec![wire(2, 0)],
            vec![wire(2, 0)],
            vec![wire(3, 0)],
            vec![wire(5, 0), wire(4, 3)],
            vec![wire(6, 2)],
            vec![],
            vec![],
        ],
    };
    let mut g = spec.build(kind);
    let script = |n: i128, gap_ms: i128, len: &dyn Fn(i128) -> u64| -> Vec<(SimTime, Bytes)> {
        (0..n)
            .map(|i| (SimTime::from_millis(gap_ms * i), Bytes::new(len(i))))
            .collect()
    };
    // A and B see the same arrivals at the same instants.
    g.add_source(0, FlowId(1), &script(24, 2, &|_| 125));
    g.add_source(1, FlowId(3), &script(24, 2, &|_| 125));
    g.add_source(
        0,
        FlowId(2),
        &script(12, 4, &|i| [250, 0, 125][i as usize % 3]),
    );
    g.add_source(
        1,
        FlowId(4),
        &script(12, 4, &|i| [250, 0, 125][i as usize % 3]),
    );
    // Bursts of three at one instant and entry, scheduled and priority.
    g.add_source(0, FlowId(1), &script(3, 0, &|_| 125));
    let vbr = script(16, 3, &|i| if i % 4 == 2 { 0 } else { 125 });
    g.add_priority_source(2, FlowId(9), &vbr);
    g.add_priority_source(2, FlowId(9), &script(3, 0, &|_| 0));
    let tcp = TcpConfig {
        mss: Bytes::new(125),
        limit: Some(40),
        ..TcpConfig::default()
    };
    g.add_tcp_source(
        0,
        FlowId(5),
        tcp,
        SimDuration::from_millis(1),
        SimTime::from_millis(3),
    );
    g.schedule_churn(2, FlowId(3), SimTime::from_millis(9));
    g.schedule_churn(4, FlowId(4), SimTime::from_millis(20));
    g.run(SimTime::from_millis(400))
}

/// What the torture run is pinned by: sink `(uid, exact time)`
/// sequences, per-port refusal sequences, every journey's per-port
/// departure times, then the books.
fn torture_fingerprint(r: &GraphReport) -> (u64, [u64; 8]) {
    assert!(r.audit.balanced(), "arena books unbalanced: {:?}", r.audit);
    let mut h = Fnv::new();
    for (sink, deps) in &r.sink_departures {
        h.word(*sink as u64);
        for d in deps {
            h.word(d.uid);
            h.time(d.at);
        }
    }
    for (port, uids) in &r.port_refusals {
        h.word(*port as u64);
        for u in uids {
            h.word(*u);
        }
    }
    for t in &r.transits {
        h.word(t.pkt.uid);
        for &(node, at) in t.port_departures.iter() {
            h.word(node as u64);
            h.time(at);
        }
        if let Some((sink, at)) = t.delivered {
            h.word(sink as u64);
            h.time(at);
        }
    }
    let delivered: usize = r.sink_departures.iter().map(|(_, d)| d.len()).sum();
    let refused: usize = r.port_refusals.iter().map(|(_, u)| u.len()).sum();
    let books = [
        r.transits.len() as u64,
        delivered as u64,
        refused as u64,
        r.evicted,
        r.churn_discarded,
        r.churn_refused,
        r.audit.in_use as u64,
        r.port_strays + r.unrouted + r.arena_refused,
    ];
    (h.0, books)
}

/// Captured at the commit before injections left the event queue and
/// zero-delay hand-offs went in place (ISSUE 20): the rules of
/// docs/graph.md, "Same-instant event order", under the heaviest
/// coincidence the executor supports.
#[test]
fn same_instant_torture_is_unchanged() {
    let sfq = torture_fingerprint(&same_instant_torture(PortKind::Sfq));
    let cfg = sfq_engine::EngineConfig::new(2);
    let engine = torture_fingerprint(&same_instant_torture(PortKind::EngineSync(cfg)));
    assert_eq!(
        sfq,
        (0x16a6_c2e4_f678_6001, [136, 92, 12, 6, 2, 24, 0, 0]),
        "bare SFQ ports"
    );
    assert_eq!(
        engine,
        (0x87b2_1f43_d90f_1512, [136, 90, 10, 10, 1, 25, 0, 0]),
        "2-shard sync-engine ports"
    );
}
