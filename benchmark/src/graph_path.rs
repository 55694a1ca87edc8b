//! The `graph_path` workload: the whole forwarding path — policer →
//! classifier → scheduler port (switch admission over a sharded
//! engine) → sink — under heavy-tailed on-off traffic.
//!
//! Open loop in simulated time, closed loop in wall time: a pass
//! scripts about 4096 arrivals, runs the graph to completion and is
//! followed by the next identical pass. A unit is one pass, build
//! included, because a run-to-completion batch pays for its build.

use crate::inputs::{splitmix64, trimodal, weight};
use crate::tracer::{Layer, Tracer};
use crate::verify::Fnv;
use des::SimRng;
use graph::{GraphReport, GraphSpec, PortSpec, TokenBucket};
use netsim::DropPolicy;
use servers::RateProfile;
use sfq_core::{FlowId, Scheduler};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use traffic::{ParetoOnOffSource, Source};

/// Flows crossing the graph.
pub const FLOWS: u32 = 256;
/// Ingress classifiers, one policer in front of each.
pub const INGRESSES: usize = 4;
/// Egress scheduler ports, one sink behind each.
pub const EGRESSES: usize = 4;
/// Shards of each port's `SyncEngine`.
pub const PORT_SHARDS: usize = 2;
/// Mean offered load per egress link the sources are sized for.
pub const LOAD: f64 = 0.9;
/// Pareto tail shape of on and off periods (infinite variance).
pub const SHAPE: f64 = 1.5;
/// Mean packets per on period.
const BURST_PKTS: f64 = 8.0;
/// Mean packet length of the trimodal mix, bytes.
const MEAN_LEN: f64 = 0.5 * 64.0 + 0.3 * 576.0 + 0.2 * 1500.0;
/// Simulated span of one pass: about 4096 arrivals at the flows' mean
/// packet rates.
const SPAN_NS: i128 = 337_000_000;
/// Shared buffer of each port, packets: bursts above the link rate
/// overflow it, so some traffic leaves the fast path by design.
const SHARED_CAP: usize = 24;
/// Policed rate over the flow's mean rate, and the burst allowance in
/// bytes: sized so that about 2 % of packets (the tails of the longest
/// bursts, which run at twice the mean rate) do not conform.
const RHO_OVER_MEAN: f64 = 1.25;
const SIGMA_BYTES: u64 = 6_000;

fn ingress_of(f: u32) -> usize {
    (f as usize * INGRESSES) / FLOWS as usize
}

fn egress_of(f: u32) -> usize {
    f as usize % EGRESSES
}

/// One flow's scripted arrivals and where they enter.
pub struct SourceScript {
    /// Node the flow is injected at (its ingress policer).
    pub entry: usize,
    /// The flow.
    pub flow: FlowId,
    /// `(time, length)` arrivals.
    pub arrivals: Vec<(SimTime, Bytes)>,
}

/// Everything a pass needs, built once per seed: this is the
/// workload's set-up.
pub struct GraphInputs {
    /// Topology: 4 policers → 4 classifiers → 4 ports → 4 sinks.
    pub spec: GraphSpec,
    /// Per-flow arrival scripts.
    pub sources: Vec<SourceScript>,
    /// Packets one pass offers.
    pub offered: u64,
    /// Offered bits per egress over link capacity for the span.
    pub load: [f64; EGRESSES],
}

impl GraphInputs {
    /// Generate topology and traffic from `seed`.
    pub fn generate(seed: u64) -> GraphInputs {
        let mut ports = Vec::with_capacity(EGRESSES);
        let mut link_bps = [0u64; EGRESSES];
        for (j, link) in link_bps.iter_mut().enumerate() {
            let flows: Vec<(FlowId, Rate)> = (0..FLOWS)
                .filter(|&f| egress_of(f) == j)
                .map(|f| (FlowId(f), weight(f)))
                .collect();
            let mean: u64 = flows.iter().map(|(_, r)| r.as_bps()).sum();
            *link = (mean as f64 / LOAD) as u64;
            let mut port = PortSpec::new(RateProfile::constant(Rate::bps(*link)), flows);
            port.shared_cap = Some(SHARED_CAP);
            port.policy = DropPolicy::HeadDrop;
            ports.push(port);
        }
        let routes = (0..FLOWS).map(|f| (FlowId(f), egress_of(f))).collect();
        let mut spec = GraphSpec::matrix(INGRESSES, ports, routes);
        let policers: Vec<usize> = (0..INGRESSES)
            .map(|i| {
                let rules = (0..FLOWS)
                    .filter(|&f| ingress_of(f) == i)
                    .map(|f| {
                        let rho = (weight(f).as_bps() as f64 * RHO_OVER_MEAN) as u64;
                        (
                            FlowId(f),
                            TokenBucket {
                                sigma: Bytes::new(SIGMA_BYTES),
                                rho: Rate::bps(rho),
                            },
                        )
                    })
                    .collect();
                spec.add_policer(i, rules)
            })
            .collect();

        let horizon = SimTime::from_nanos(SPAN_NS);
        let mut rng = SimRng::new(seed);
        let mut lens = seed ^ 0x6772_6170_685F_6C65;
        let mut offered = 0u64;
        let mut bits = [0u64; EGRESSES];
        let sources = (0..FLOWS)
            .map(|f| {
                // A cycle of the source is an on period of BURST_PKTS
                // intervals on average, one more interval, and an off
                // period as long as the on period: this spacing makes
                // the long-run packet rate `pps`.
                let pps = weight(f).as_bps() as f64 / (8.0 * MEAN_LEN);
                let interval_s = BURST_PKTS / (2.0 * BURST_PKTS + 1.0) / pps;
                let on_s = BURST_PKTS * interval_s;
                let mut sub = rng.fork(f as u64);
                let start_ns = (sub.uniform() * 2.0 * on_s * 1e9) as i128;
                let mut src = ParetoOnOffSource::new(
                    SimTime::from_nanos(start_ns),
                    SimDuration::from_nanos((interval_s * 1e9) as i128),
                    Bytes::new(MEAN_LEN as u64),
                    on_s,
                    on_s,
                    SHAPE,
                    sub,
                );
                let mut arrivals = Vec::new();
                while let Some((t, _)) = src.next_arrival() {
                    if t > horizon {
                        break;
                    }
                    let len = Bytes::new(trimodal(splitmix64(&mut lens)) as u64);
                    bits[egress_of(f)] += len.bits();
                    arrivals.push((t, len));
                }
                offered += arrivals.len() as u64;
                SourceScript {
                    entry: policers[ingress_of(f)],
                    flow: FlowId(f),
                    arrivals,
                }
            })
            .collect();
        let span_s = SPAN_NS as f64 / 1e9;
        let mut load = [0.0; EGRESSES];
        for j in 0..EGRESSES {
            load[j] = bits[j] as f64 / (link_bps[j] as f64 * span_s);
        }
        GraphInputs {
            spec,
            sources,
            offered,
            load,
        }
    }
}

/// One pass: build the graph with `mk` as every port's scheduler,
/// script the sources, run to completion.
pub fn pass<T: Tracer>(
    inputs: &GraphInputs,
    mk: &mut dyn FnMut(usize) -> Box<dyn Scheduler>,
    tr: &mut T,
) -> GraphReport {
    let t = tr.start();
    let mut g = inputs.spec.build_with(mk);
    for s in &inputs.sources {
        g.add_source(s.entry, s.flow, &s.arrivals);
    }
    tr.span(Layer::GraphBuild, t, 1);
    let t = tr.start();
    let report = g.run(SimTime::from_secs(3600));
    tr.span(Layer::GraphRun, t, 1);
    report
}

/// Where one pass's packets went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Packets the pass offered.
    pub offered: u64,
    /// Reached a sink.
    pub delivered: u64,
    /// Dropped by a policer: shed by design.
    pub policed: u64,
    /// Refused at port admission: shed by design.
    pub refused: u64,
    /// Admitted, then evicted by the head-drop policy: shed by design.
    pub evicted: u64,
    /// Lost any other way (no route, no arena slot, churn): must be 0.
    pub stray: u64,
    /// The arena's books balance and no slot is still in use.
    pub arena_clean: bool,
}

impl Tally {
    /// Read the report's books.
    pub fn of(offered: u64, r: &GraphReport) -> Tally {
        Tally {
            offered,
            delivered: r.sink_departures.iter().map(|(_, d)| d.len() as u64).sum(),
            policed: r.policer_dropped,
            refused: r.port_refusals.iter().map(|(_, u)| u.len() as u64).sum(),
            evicted: r.evicted,
            stray: r.unrouted + r.arena_refused + r.churn_discarded + r.churn_refused,
            arena_clean: r.audit.balanced() && r.audit.in_use == 0,
        }
    }

    /// Every offered packet is accounted for by a designed outcome.
    pub fn conserved(&self) -> bool {
        self.arena_clean
            && self.stray == 0
            && self.offered == self.delivered + self.policed + self.refused + self.evicted
    }
}

/// Digest of every sink's `(uid, departure time)` sequence.
pub fn digest(r: &GraphReport) -> Fnv {
    let mut h = Fnv::new();
    for (sink, deps) in &r.sink_departures {
        h.word(*sink as u64);
        for d in deps {
            let at = d.at.as_ratio();
            h.word(d.uid);
            h.word(at.numer() as u64);
            h.word(at.denom() as u64);
        }
    }
    h
}

/// 99th percentile simulated sojourn (delivery − arrival) of delivered
/// packets, microseconds.
pub fn sim_delay_p99_us(r: &GraphReport) -> f64 {
    let mut d: Vec<f64> = r
        .transits
        .iter()
        .filter_map(|t| {
            t.delivered
                .map(|(_, at)| (at - t.pkt.arrival).as_secs_f64() * 1e6)
        })
        .collect();
    if d.is_empty() {
        return 0.0;
    }
    d.sort_by(f64::total_cmp);
    crate::stats::quantile(&d, 0.99)
}
