//! Scenario DSL: a compact, fully-deterministic description of a
//! conformance run — flows, rates, packet-size distributions, the
//! server profile (constant / FC / EBF), and a fault-injection schedule
//! (capacity droop, flow churn) — generated from a `(preset, seed)`
//! pair and replayable from a single printed line.
//!
//! Everything downstream (the executors in [`crate::exec`] and
//! [`crate::e2e`], the differential oracle in [`crate::diff`]) consumes
//! only this structure, so a failure anywhere in the harness is
//! reproduced exactly by `Scenario::from_replay_line(..)`.

use des::SimRng;
use sfq_core::FlowId;
use simtime::{Bytes, Rate, SimDuration, SimTime};
use traffic::{arrivals_until, LeakyBucket, PoissonSource};

/// The flow every delay/throughput conformance check observes.
pub const OBSERVED_FLOW: FlowId = FlowId(1);

/// A named generation recipe. The preset picks the *shape* of the
/// scenario (topology, server class, which faults are eligible); the
/// seed picks everything quantitative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// One FC server, mixed CBR/Poisson flows, droop + churn faults.
    SingleFc,
    /// One EBF server, CBR flows, no deterministic faults (the server
    /// profile itself is the stochastic perturbation).
    SingleEbf,
    /// A tandem of 2–5 FC servers with per-hop cross traffic — the
    /// Theorem 6 / Corollary 1 setting, with droop, churn, and
    /// buffer-cap faults.
    Tandem,
    /// Two-flow Fair Airport workload (Theorems 8/9): one flow bursts
    /// alone, then both stay backlogged.
    FairAirport,
    /// Long-horizon overload soak: a deliberately overbooked single hop
    /// with tight buffer caps, a randomized drop policy, and mid-run
    /// churn + revive — the graceful-degradation / recovery preset (see
    /// `docs/robustness.md`).
    Soak,
    /// Sharded-engine conformance: a mixed flow population whose
    /// packets are replayed as an ingest/drain call schedule on
    /// `sfq_engine::SyncEngine`, judged by a hand-driven bare `Sfq` (at
    /// one shard) and, at the seeded shard count, by conservation,
    /// per-flow order and the stall guard; any divergence in departures
    /// or backpressure refusals is a conformance failure (see
    /// [`crate::engine`]).
    Engine,
    /// Control-plane chaos: the [`Preset::Engine`] workload shape with
    /// a seeded schedule of live reconfigurations (`SetWeight` under
    /// the leaf tag-rewrite rule) woven into the ingest/drain call
    /// stream. The chaos runner checks (a) that a *no-op*
    /// reconfiguration schedule is bit-identical to the unreconfigured
    /// one, (b) packet conservation, per-flow order and no stall under
    /// the real weight changes, and (c) post-reconfiguration fairness
    /// reconvergence against the Theorem 1 bound at the new weights
    /// (see [`crate::chaos`]).
    Chaos,
    /// Telemetry-plane conformance: the [`Preset::Engine`] workload
    /// shape replayed with per-shard counter pages attached, under a
    /// seeded schedule of ingest chunks, partial drains and flow
    /// churn (force-remove + revive). The runner checks the pages
    /// against a driver-side ledger (offered == departures + refusals +
    /// drops as read purely from the pages), once snapshotting from the
    /// driving thread after every operation and once with a reader
    /// thread snapshotting beside it (see [`crate::telemetry`]).
    Telemetry,
    /// Multi-port forwarding graph: a chain of 2–5 scheduler ports
    /// with *shared* intermediate ports — unlike [`Preset::Tandem`],
    /// whose cross traffic is hop-local, cross flows here span
    /// multi-hop sub-paths, so intermediate ports see genuine fan-in
    /// from flows that entered at different ingress points. The graph
    /// runner builds the scenario as a `graph::GraphSpec::chain`,
    /// polices a deterministic subset of cross flows, checks Theorem 6
    /// along every flow's path plus Corollary 1 for the shaped
    /// observed flow, accounts for every packet of an engine-port
    /// build, and audits the packet-arena books (see
    /// [`crate::graph`]).
    Graph,
    /// The twin table: the seed, under [`crate::twin::TWIN_DOMAIN`],
    /// draws a flow population and an op schedule over the whole
    /// `Scheduler` surface, replayed on every row of
    /// [`crate::twin::rows`] — each product against the twin it must be
    /// bit-identical to (see [`crate::twin`]).
    Twin,
}

impl Preset {
    /// Every preset, for fuzz drivers.
    pub const ALL: [Preset; 10] = [
        Preset::SingleFc,
        Preset::SingleEbf,
        Preset::Tandem,
        Preset::FairAirport,
        Preset::Soak,
        Preset::Engine,
        Preset::Chaos,
        Preset::Telemetry,
        Preset::Graph,
        Preset::Twin,
    ];

    /// Stable name used in replay lines.
    pub fn name(self) -> &'static str {
        match self {
            Preset::SingleFc => "single-fc",
            Preset::SingleEbf => "single-ebf",
            Preset::Tandem => "tandem",
            Preset::FairAirport => "fair-airport",
            Preset::Soak => "soak",
            Preset::Engine => "engine",
            Preset::Chaos => "chaos",
            Preset::Telemetry => "telemetry",
            Preset::Graph => "graph",
            Preset::Twin => "twin",
        }
    }

    /// Inverse of [`Preset::name`].
    pub fn from_name(s: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Packet-size distribution of one flow. Sizes are drawn per packet
/// from the flow's forked RNG stream; [`SizeDist::max_bytes`] is the
/// `l^max` every analytical bound uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeDist {
    /// Every packet exactly this many bytes.
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform(u64, u64),
    /// Either `small` or `large`, 50/50.
    Bimodal(u64, u64),
}

impl SizeDist {
    /// Largest size the distribution can produce (`l^max`).
    pub fn max_bytes(self) -> u64 {
        match self {
            SizeDist::Fixed(l) => l,
            SizeDist::Uniform(_, hi) => hi,
            SizeDist::Bimodal(_, large) => large,
        }
    }

    fn draw(self, rng: &mut SimRng) -> u64 {
        match self {
            SizeDist::Fixed(l) => l,
            SizeDist::Uniform(lo, hi) => rng.uniform_range(lo, hi + 1),
            SizeDist::Bimodal(small, large) => {
                if rng.uniform() < 0.5 {
                    small
                } else {
                    large
                }
            }
        }
    }
}

/// How a flow's arrival process is generated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Constant bit rate at the flow's reserved weight: one packet of
    /// (up to) `l^max` every `l^max / weight`, so the flow always
    /// conforms to its reservation.
    Cbr,
    /// Poisson arrivals averaging the reserved weight.
    Poisson,
    /// Poisson at the reserved weight, shaped through a
    /// `(σ, ρ)` leaky bucket with `σ = sigma_pkts · l^max` — the
    /// Corollary 1 conforming flow. Packet sizes are fixed at `l^max`.
    ShapedPoisson {
        /// Bucket depth in packets.
        sigma_pkts: u32,
    },
    /// Back-to-back bursts: `count` packets at each listed instant
    /// (milliseconds). The Fair Airport phase workload.
    Bursts(Vec<(u64, u32)>),
}

/// One flow of a scenario.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Flow id (`OBSERVED_FLOW` is the checked flow).
    pub id: u32,
    /// Reserved rate `r_f` in b/s.
    pub weight_bps: u64,
    /// Packet-size distribution.
    pub size: SizeDist,
    /// Arrival process.
    pub source: SourceKind,
    /// Source start offset, milliseconds.
    pub start_ms: u64,
    /// First hop the flow traverses (inclusive).
    pub entry: usize,
    /// Last hop the flow traverses (inclusive).
    pub exit: usize,
}

impl FlowSpec {
    /// `l^max` as [`Bytes`].
    pub fn max_len(&self) -> Bytes {
        Bytes::new(self.size.max_bytes())
    }

    /// Reserved rate as [`Rate`].
    pub fn weight(&self) -> Rate {
        Rate::bps(self.weight_bps)
    }
}

/// Server class of every hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerSpec {
    /// Constant rate `C` (FC with `δ = 0`).
    Constant,
    /// Fluctuation Constrained `(C, δ)` via the exact on–off builder.
    Fc {
        /// Burstiness `δ(C)` in bits.
        delta_bits: u64,
    },
    /// Exponentially Bounded Fluctuation via the randomized catch-up
    /// builder (slotted idle/catch-up with exponential idle gaps).
    Ebf {
        /// Slot length, milliseconds.
        slot_ms: u64,
        /// Mean idle gap per slot, milliseconds.
        mean_gap_ms: u64,
    },
}

/// A capacity-droop fault: hop `hop` runs at `percent`% of nominal
/// over `[at_ms, at_ms + dur_ms)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Droop {
    /// Target hop index.
    pub hop: usize,
    /// Window start, milliseconds.
    pub at_ms: u64,
    /// Window length, milliseconds.
    pub dur_ms: u64,
    /// Remaining capacity, percent (0 = full outage).
    pub percent: u32,
}

/// Buffer overflow response of every hop. Mirrors `netsim::DropPolicy`
/// without importing it, so the DSL stays consumer-agnostic; the
/// executors map it onto the switch policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DropKind {
    /// Refuse the arriving packet.
    #[default]
    Tail,
    /// Evict the arriving flow's oldest queued packet.
    Head,
    /// On shared-cap overflow, evict the head of the flow with the
    /// largest `backlog/weight` pressure.
    Lwp,
}

/// A flow-churn fault: force-remove `flow` (discarding its backlog at
/// every hop it traverses) at `at_ms`; optionally re-register it at
/// `revive_ms` (single-server executor only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Churn {
    /// Flow to remove.
    pub flow: u32,
    /// Removal instant, milliseconds.
    pub at_ms: u64,
    /// Optional re-registration instant, milliseconds.
    pub revive_ms: Option<u64>,
}

/// A complete, self-contained conformance scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Generation recipe.
    pub preset: Preset,
    /// Generation seed (with `preset`, determines everything below).
    pub seed: u64,
    /// Nominal link rate `C` of every hop, b/s.
    pub link_bps: u64,
    /// Server class of every hop.
    pub server: ServerSpec,
    /// Number of hops (1 for the single-server presets).
    pub hops: usize,
    /// Inter-hop propagation delay `τ`, milliseconds.
    pub prop_ms: u64,
    /// Arrival horizon, milliseconds (runs extend past it to drain).
    pub horizon_ms: u64,
    /// Per-flow buffer cap at every hop (`None` = unbounded).
    pub per_flow_cap: Option<usize>,
    /// Shared (all-flow) buffer cap at every hop (`None` = unbounded).
    pub shared_cap: Option<usize>,
    /// Buffer overflow response at every hop.
    pub drop_policy: DropKind,
    /// Fairness-recovery measurement point, milliseconds: the instant
    /// (mid drain gap, after the overload phase) at which the soak
    /// runner opens a fresh watermark window. `None` for presets
    /// without a recovery phase.
    pub recovery_at_ms: Option<u64>,
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// Capacity-droop faults.
    pub droops: Vec<Droop>,
    /// Flow-churn faults.
    pub churns: Vec<Churn>,
}

impl Scenario {
    /// Deterministically generate the scenario for `(preset, seed)`.
    pub fn from_seed(preset: Preset, seed: u64) -> Scenario {
        let mut rng = SimRng::new(seed ^ SEED_DOMAIN);
        match preset {
            Preset::Tandem => gen_tandem(seed, &mut rng),
            Preset::SingleFc => gen_single_fc(seed, &mut rng),
            Preset::SingleEbf => gen_single_ebf(seed, &mut rng),
            Preset::FairAirport => gen_fair_airport(seed, &mut rng),
            Preset::Soak => gen_soak(seed, &mut rng),
            Preset::Engine => gen_engine(seed, &mut rng),
            Preset::Chaos => gen_chaos(seed, &mut rng),
            Preset::Telemetry => gen_telemetry(seed, &mut rng),
            Preset::Graph => gen_graph(seed, &mut rng),
            Preset::Twin => gen_twin(seed, &mut rng),
        }
    }

    /// The single line that reproduces this scenario.
    pub fn replay_line(&self) -> String {
        format!(
            "conformance replay: preset={} seed={}",
            self.preset.name(),
            self.seed
        )
    }

    /// Rebuild a scenario from a replay line (whitespace-tolerant;
    /// ignores any surrounding text, so a whole failure message can be
    /// pasted back in).
    pub fn from_replay_line(line: &str) -> Option<Scenario> {
        let mut preset = None;
        let mut seed = None;
        for tok in line.split_whitespace() {
            if let Some(p) = tok.strip_prefix("preset=") {
                preset = Preset::from_name(p);
            } else if let Some(s) = tok.strip_prefix("seed=") {
                seed = s.parse::<u64>().ok();
            }
        }
        Some(Scenario::from_seed(preset?, seed?))
    }

    /// Arrival horizon as [`SimTime`].
    pub fn horizon(&self) -> SimTime {
        SimTime::from_millis(self.horizon_ms as i128)
    }

    /// Inter-hop propagation delay as [`SimDuration`].
    pub fn prop(&self) -> SimDuration {
        SimDuration::from_millis(self.prop_ms as i128)
    }

    /// Nominal link rate as [`Rate`].
    pub fn link(&self) -> Rate {
        Rate::bps(self.link_bps)
    }

    /// The spec of `flow`, if any.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowSpec> {
        self.flows.iter().find(|f| f.id == flow.0)
    }

    /// The observed flow's spec (every preset generates one).
    pub fn observed(&self) -> &FlowSpec {
        self.flow(OBSERVED_FLOW).expect("observed flow generated")
    }

    /// Materialize one flow's arrival sequence `(time, len)` up to the
    /// horizon. Deterministic: the RNG stream is forked from the
    /// scenario seed and the flow id only, so arrivals do not depend on
    /// evaluation order.
    pub fn arrivals_for(&self, f: &FlowSpec) -> Vec<(SimTime, Bytes)> {
        let mut rng = SimRng::new(self.seed).fork(0xF10F ^ f.id as u64);
        let start = SimTime::from_millis(f.start_ms as i128);
        let horizon = self.horizon();
        let lmax = f.max_len();
        match &f.source {
            SourceKind::Cbr => {
                // One (possibly shorter) packet per l^max-sized slot:
                // never exceeds the reservation.
                let interval = f.weight().tx_time(lmax);
                let mut out = Vec::new();
                let mut t = start;
                while t <= horizon {
                    out.push((t, Bytes::new(f.size.draw(&mut rng))));
                    t += interval;
                }
                out
            }
            SourceKind::Poisson => {
                let mean = f.weight().tx_time(lmax);
                let mut out = Vec::new();
                let mut t = start + rng.exp_duration(mean);
                while t <= horizon {
                    out.push((t, Bytes::new(f.size.draw(&mut rng))));
                    t += rng.exp_duration(mean);
                }
                out
            }
            SourceKind::ShapedPoisson { sigma_pkts } => {
                let raw = arrivals_until(
                    PoissonSource::with_rate(start, f.weight(), lmax, rng),
                    horizon,
                );
                let sigma_bits = *sigma_pkts as u64 * lmax.bits();
                LeakyBucket::new(sigma_bits, f.weight()).shape(&raw)
            }
            SourceKind::Bursts(phases) => {
                let mut out = Vec::new();
                for &(at_ms, count) in phases {
                    let t = SimTime::from_millis(at_ms as i128);
                    for _ in 0..count {
                        out.push((t, Bytes::new(f.size.draw(&mut rng))));
                    }
                }
                out
            }
        }
    }
}

/// Domain separator so conformance seeds never collide with other
/// users of `SimRng::new(seed)` on the same numeric seed.
const SEED_DOMAIN: u64 = 0xC04F_0443;

/// `l^max` of every flow at `hop` except `flow` — the "other flows"
/// vector the per-hop SFQ β term takes.
pub fn other_lmax_at(sc: &Scenario, hop: usize, flow: FlowId) -> Vec<Bytes> {
    sc.flows
        .iter()
        .filter(|f| f.id != flow.0 && f.entry <= hop && hop <= f.exit)
        .map(|f| f.max_len())
        .collect()
}

fn pick_size(rng: &mut SimRng, max_hint: u64) -> SizeDist {
    match rng.uniform_range(0, 3) {
        0 => SizeDist::Fixed(rng.uniform_range(100, max_hint + 1)),
        1 => {
            let hi = rng.uniform_range(200, max_hint + 1);
            SizeDist::Uniform(rng.uniform_range(64, hi), hi)
        }
        _ => {
            let large = rng.uniform_range(250, max_hint + 1);
            SizeDist::Bimodal(rng.uniform_range(64, 200), large)
        }
    }
}

fn gen_tandem(seed: u64, rng: &mut SimRng) -> Scenario {
    let hops = rng.uniform_range(2, 6) as usize;
    let link_bps = 1_000_000u64;
    let prop_ms = rng.uniform_range(1, 5);
    let horizon_ms = rng.uniform_range(6, 13) * 1_000;
    let delta_bits = rng.uniform_range(0, 4) * 4_000;
    let server = if delta_bits == 0 {
        ServerSpec::Constant
    } else {
        ServerSpec::Fc { delta_bits }
    };

    let mut flows = Vec::new();
    // Observed flow: (σ, ρ)-shaped, fixed-size packets, full path.
    let rho = 1_000 * rng.uniform_range(32, 97);
    let obs_len = 50 * rng.uniform_range(2, 9);
    flows.push(FlowSpec {
        id: OBSERVED_FLOW.0,
        weight_bps: rho,
        size: SizeDist::Fixed(obs_len),
        source: SourceKind::ShapedPoisson {
            sigma_pkts: rng.uniform_range(1, 6) as u32,
        },
        start_ms: 0,
        entry: 0,
        exit: hops - 1,
    });
    // Fresh cross traffic at every hop, each flow local to its hop.
    // Admission: ρ + Σ cross <= 90% of C at every hop.
    let budget = link_bps * 9 / 10 - rho;
    for h in 0..hops {
        let n_cross = rng.uniform_range(2, 5);
        for i in 0..n_cross {
            let share = budget / n_cross;
            let w = share * rng.uniform_range(60, 101) / 100;
            flows.push(FlowSpec {
                id: 100 * (h as u32 + 1) + i as u32,
                weight_bps: w.max(10_000),
                size: pick_size(rng, 500),
                source: if rng.uniform() < 0.5 {
                    SourceKind::Cbr
                } else {
                    SourceKind::Poisson
                },
                start_ms: rng.uniform_range(0, 20),
                entry: h,
                exit: h,
            });
        }
    }

    // Faults. Droops are folded into the per-hop effective δ by the
    // checker, so the bound stays exact; churn only ever hits cross
    // flows (removing the observed flow would vacate the property).
    let mut droops = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        droops.push(Droop {
            hop: rng.uniform_range(0, hops as u64) as usize,
            at_ms: rng.uniform_range(horizon_ms / 4, horizon_ms / 2),
            dur_ms: rng.uniform_range(100, 401),
            percent: rng.uniform_range(40, 91) as u32,
        });
    }
    let cross_ids: Vec<u32> = flows.iter().skip(1).map(|f| f.id).collect();
    let mut churns = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        let victim = cross_ids[rng.uniform_range(0, cross_ids.len() as u64) as usize];
        if churns.iter().any(|c: &Churn| c.flow == victim) {
            continue;
        }
        churns.push(Churn {
            flow: victim,
            at_ms: rng.uniform_range(horizon_ms / 3, 2 * horizon_ms / 3),
            revive_ms: None,
        });
    }
    // Small caps on purpose: admitted traffic keeps queues short, so
    // only a tight cap (a few packets beyond a flow's burst) actually
    // exercises the drop path during droops and Poisson bursts.
    let per_flow_cap = if rng.uniform() < 0.5 {
        None
    } else {
        Some(rng.uniform_range(4, 25) as usize)
    };

    Scenario {
        preset: Preset::Tandem,
        seed,
        link_bps,
        server,
        hops,
        prop_ms,
        horizon_ms,
        per_flow_cap,
        shared_cap: None,
        drop_policy: DropKind::Tail,
        recovery_at_ms: None,
        flows,
        droops,
        churns,
    }
}

fn gen_single_fc(seed: u64, rng: &mut SimRng) -> Scenario {
    let link_bps = 100_000u64;
    let horizon_ms = rng.uniform_range(20, 41) * 1_000;
    let delta_bits = rng.uniform_range(0, 3) * 5_000;
    let server = if delta_bits == 0 {
        ServerSpec::Constant
    } else {
        ServerSpec::Fc { delta_bits }
    };
    let n = rng.uniform_range(3, 7);
    let budget = link_bps * 95 / 100;
    let mut flows = Vec::new();
    for i in 0..n {
        let share = budget / n;
        flows.push(FlowSpec {
            id: i as u32 + 1,
            weight_bps: (share * rng.uniform_range(50, 101) / 100).max(2_000),
            size: pick_size(rng, 900),
            source: if rng.uniform() < 0.6 {
                SourceKind::Cbr
            } else {
                SourceKind::Poisson
            },
            start_ms: rng.uniform_range(0, 50),
            entry: 0,
            exit: 0,
        });
    }
    let mut droops = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        droops.push(Droop {
            hop: 0,
            at_ms: rng.uniform_range(horizon_ms / 4, horizon_ms / 2),
            dur_ms: rng.uniform_range(200, 1_001),
            percent: rng.uniform_range(30, 91) as u32,
        });
    }
    // Churn any non-observed flow; sometimes revive it later.
    let mut churns = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        let victim = 2 + rng.uniform_range(0, n - 1) as u32;
        if churns.iter().any(|c: &Churn| c.flow == victim) {
            continue;
        }
        let at_ms = rng.uniform_range(horizon_ms / 3, 2 * horizon_ms / 3);
        let revive_ms = if rng.uniform() < 0.5 {
            Some(at_ms + rng.uniform_range(500, 3_001))
        } else {
            None
        };
        churns.push(Churn {
            flow: victim,
            at_ms,
            revive_ms,
        });
    }
    Scenario {
        preset: Preset::SingleFc,
        seed,
        link_bps,
        server,
        hops: 1,
        prop_ms: 0,
        horizon_ms,
        per_flow_cap: None,
        shared_cap: None,
        drop_policy: DropKind::Tail,
        recovery_at_ms: None,
        flows,
        droops,
        churns,
    }
}

fn gen_single_ebf(seed: u64, rng: &mut SimRng) -> Scenario {
    let link_bps = 100_000u64;
    let horizon_ms = rng.uniform_range(20, 41) * 1_000;
    let server = ServerSpec::Ebf {
        slot_ms: 100,
        mean_gap_ms: rng.uniform_range(5, 21),
    };
    let n = rng.uniform_range(2, 5);
    let budget = link_bps * 9 / 10;
    let mut flows = Vec::new();
    for i in 0..n {
        flows.push(FlowSpec {
            id: i as u32 + 1,
            weight_bps: (budget / n * rng.uniform_range(60, 101) / 100).max(2_000),
            size: SizeDist::Fixed(rng.uniform_range(100, 501)),
            source: SourceKind::Cbr,
            start_ms: rng.uniform_range(0, 20),
            entry: 0,
            exit: 0,
        });
    }
    Scenario {
        preset: Preset::SingleEbf,
        seed,
        link_bps,
        server,
        hops: 1,
        prop_ms: 0,
        horizon_ms,
        per_flow_cap: None,
        shared_cap: None,
        drop_policy: DropKind::Tail,
        recovery_at_ms: None,
        flows,
        droops: Vec::new(),
        churns: Vec::new(),
    }
}

fn gen_fair_airport(seed: u64, rng: &mut SimRng) -> Scenario {
    // Two equal flows at half the link each; flow 1 bursts alone, then
    // both stay backlogged — the "punished for using idle bandwidth"
    // workload of Appendix B, with randomized burst sizes.
    let link_bps = 2_000u64;
    let weight = 1_000u64;
    let len = 250u64; // 2000 bits: 1 s at link, 2 s at weight.
    let n1 = rng.uniform_range(10, 31) as u32;
    let n2 = rng.uniform_range(20, 51) as u32;
    // Phase 1 drains at the full link: n1 packets × 1 s each.
    let phase2_ms = n1 as u64 * 1_000;
    // Phase 2 drains at fair shares: n2 packets × 2 s each, plus slack.
    let horizon_ms = phase2_ms + n2 as u64 * 2_000 + 10_000;
    let delta_bits = if rng.uniform() < 0.5 { 0 } else { 2_000 };
    let server = if delta_bits == 0 {
        ServerSpec::Constant
    } else {
        ServerSpec::Fc { delta_bits }
    };
    let flows = vec![
        FlowSpec {
            id: 1,
            weight_bps: weight,
            size: SizeDist::Fixed(len),
            source: SourceKind::Bursts(vec![(0, n1), (phase2_ms, n2)]),
            start_ms: 0,
            entry: 0,
            exit: 0,
        },
        FlowSpec {
            id: 2,
            weight_bps: weight,
            size: SizeDist::Fixed(len),
            source: SourceKind::Bursts(vec![(phase2_ms, n2)]),
            start_ms: 0,
            entry: 0,
            exit: 0,
        },
    ];
    Scenario {
        preset: Preset::FairAirport,
        seed,
        link_bps,
        server,
        hops: 1,
        prop_ms: 0,
        horizon_ms,
        per_flow_cap: None,
        shared_cap: None,
        drop_policy: DropKind::Tail,
        recovery_at_ms: None,
        flows,
        droops: Vec::new(),
        churns: Vec::new(),
    }
}

fn gen_soak(seed: u64, rng: &mut SimRng) -> Scenario {
    // Deliberately overbooked single hop in two phases.
    //
    // Phase A (the first ~60% of the horizon): two heavy flows offer
    // deterministic burst trains that jointly exceed the link (plus a
    // CBR cross flow), so the tight buffer caps shed load under the
    // scenario's drop policy the whole phase, and the cross flow is
    // churned and revived mid-overload. Under head-drop/LWP the evicted
    // packets' tag spans stay charged to their flows, so *delivered*
    // service fairness is intentionally sacrificed here.
    //
    // Phase B (after a drain gap): both heavy flows switch to a gentle
    // synchronized probe train that keeps them simultaneously
    // backlogged without ever reaching a cap. Once the overload backlog
    // drains and the busy period ends, SFQ's start-at-v rule forgives
    // the accumulated charge — so a fresh fairness watermark opened at
    // `recovery_at_ms` must come back under the Theorem 1 bound. That
    // is the recovery invariant the soak exists to check.
    let link_bps = 100_000u64;
    let horizon_ms = rng.uniform_range(30, 61) * 1_000;
    let overload_end_ms = horizon_ms * 6 / 10;
    let probe_start_ms = overload_end_ms + 3_000;
    let len = 250u64; // 2000 bits per packet

    let mut flows = Vec::new();
    for id in 1..=2u32 {
        // 13–18 packets every 500 ms = 52–72 kb/s per flow: the pair
        // always offers >= 104 kb/s, overbooking the 100 kb/s link
        // before the cross flow is even counted.
        let c = rng.uniform_range(13, 19) as u32;
        let mut phases = Vec::new();
        let mut t = rng.uniform_range(0, 100);
        while t < overload_end_ms {
            phases.push((t, c));
            t += 500;
        }
        // Probe train: 3-packet bursts (below every cap) at instants
        // shared by both flows, so both are backlogged while each
        // burst drains.
        let mut t = probe_start_ms;
        while t + 2_000 <= horizon_ms {
            phases.push((t, 3));
            t += 2_000;
        }
        flows.push(FlowSpec {
            id,
            weight_bps: 4_000 * c as u64, // reserve exactly the offered rate
            size: SizeDist::Fixed(len),
            source: SourceKind::Bursts(phases),
            start_ms: 0,
            entry: 0,
            exit: 0,
        });
    }
    flows.push(FlowSpec {
        id: 3,
        weight_bps: link_bps / 10,
        size: SizeDist::Fixed(len),
        source: SourceKind::Cbr,
        start_ms: 0,
        entry: 0,
        exit: 0,
    });
    let at_ms = rng.uniform_range(overload_end_ms / 3, overload_end_ms / 2);
    let churns = vec![Churn {
        flow: 3,
        at_ms,
        revive_ms: Some(at_ms + rng.uniform_range(2_000, 4_001)),
    }];
    let drop_policy = match rng.uniform_range(0, 3) {
        0 => DropKind::Tail,
        1 => DropKind::Head,
        _ => DropKind::Lwp,
    };
    let per_flow_cap = rng.uniform_range(4, 9) as usize;
    let shared_cap = per_flow_cap * 2 + rng.uniform_range(2, 7) as usize;
    Scenario {
        preset: Preset::Soak,
        seed,
        link_bps,
        server: ServerSpec::Constant,
        hops: 1,
        prop_ms: 0,
        horizon_ms,
        per_flow_cap: Some(per_flow_cap),
        shared_cap: Some(shared_cap),
        drop_policy,
        recovery_at_ms: Some(overload_end_ms + 1_500),
        flows,
        droops: Vec::new(),
        churns,
    }
}

fn gen_engine(seed: u64, rng: &mut SimRng) -> Scenario {
    // The engine runner replays these flows' packets as an explicit
    // ingest/drain call schedule (derived from the same seed, see
    // `crate::engine`). Short horizons keep a single case cheap; the
    // fuzz driver covers breadth with many seeds.
    gen_population(Preset::Engine, seed, rng, (200, 801), (6, 33))
}

fn gen_chaos(seed: u64, rng: &mut SimRng) -> Scenario {
    // Chaos runs replay the flow population through three engine
    // instances (plain, no-op and real reconfigurations), so the
    // population and horizon are kept a notch smaller than `engine`'s;
    // the reconfiguration schedule itself is derived by the runner from
    // the same seed under `crate::chaos::CHAOS_DOMAIN`.
    gen_population(Preset::Chaos, seed, rng, (150, 501), (4, 17))
}

fn gen_telemetry(seed: u64, rng: &mut SimRng) -> Scenario {
    // Telemetry runs replay the flow population through two engine
    // instances, each with counter pages attached and one with a
    // snapshot taken after every operation, so the population stays a
    // notch smaller than `engine`'s; the operational schedule (churn,
    // snapshots) is derived by the runner from the same seed under
    // `crate::telemetry::TELEMETRY_DOMAIN`.
    gen_population(Preset::Telemetry, seed, rng, (150, 451), (4, 13))
}

fn gen_twin(seed: u64, rng: &mut SimRng) -> Scenario {
    // The twin table draws its flow population and op schedule from the
    // seed under `crate::twin::TWIN_DOMAIN`: no flows here.
    gen_population(Preset::Twin, seed, rng, (0, 1), (0, 1))
}

/// A flow population on one constant 1 Mb/s hop, for the presets whose
/// runners replay it through a call schedule of their own (so no server
/// profile or fault schedule applies): a horizon drawn from
/// `horizon_ms` and as many flows as drawn from `flows`, each with a
/// share of the link, mostly CBR, starting in the horizon's first half.
fn gen_population(
    preset: Preset,
    seed: u64,
    rng: &mut SimRng,
    horizon_ms: (u64, u64),
    flows: (u64, u64),
) -> Scenario {
    let link_bps = 1_000_000u64;
    let horizon_ms = rng.uniform_range(horizon_ms.0, horizon_ms.1);
    let n = rng.uniform_range(flows.0, flows.1);
    let mut flows = Vec::new();
    for i in 0..n {
        flows.push(FlowSpec {
            id: i as u32 + 1,
            weight_bps: (link_bps / n * rng.uniform_range(20, 101) / 100).max(4_000),
            size: pick_size(rng, 1_200),
            source: if rng.uniform() < 0.7 {
                SourceKind::Cbr
            } else {
                SourceKind::Poisson
            },
            start_ms: rng.uniform_range(0, horizon_ms / 2),
            entry: 0,
            exit: 0,
        });
    }
    Scenario {
        preset,
        seed,
        link_bps,
        server: ServerSpec::Constant,
        hops: 1,
        prop_ms: 0,
        horizon_ms,
        per_flow_cap: None,
        shared_cap: None,
        drop_policy: DropKind::Tail,
        recovery_at_ms: None,
        flows,
        droops: Vec::new(),
        churns: Vec::new(),
    }
}

fn gen_graph(seed: u64, rng: &mut SimRng) -> Scenario {
    // Forwarding-graph chain: like tandem, the observed flow crosses
    // every hop (σ, ρ)-shaped — but the cross traffic spans random
    // multi-hop sub-paths `entry..=exit`, so intermediate ports carry
    // flows that entered the graph at different ingress points (real
    // fan-in), and the full drop-policy spectrum plus an optional
    // shared cap is in play. Admission stays ≤ 90% of C on every hop a
    // flow crosses, so the Theorem 6 / Corollary 1 bounds remain
    // theorems along every path.
    let hops = rng.uniform_range(2, 6) as usize;
    let link_bps = 1_000_000u64;
    let prop_ms = rng.uniform_range(1, 5);
    let horizon_ms = rng.uniform_range(3, 8) * 1_000;
    let delta_bits = rng.uniform_range(0, 4) * 4_000;
    let server = if delta_bits == 0 {
        ServerSpec::Constant
    } else {
        ServerSpec::Fc { delta_bits }
    };

    let mut flows = Vec::new();
    let rho = 1_000 * rng.uniform_range(32, 97);
    let obs_len = 50 * rng.uniform_range(2, 9);
    flows.push(FlowSpec {
        id: OBSERVED_FLOW.0,
        weight_bps: rho,
        size: SizeDist::Fixed(obs_len),
        source: SourceKind::ShapedPoisson {
            sigma_pkts: rng.uniform_range(1, 6) as u32,
        },
        start_ms: 0,
        entry: 0,
        exit: hops - 1,
    });
    // Cross flows on multi-hop sub-paths; per-hop budget tracked so
    // admission holds on every hop a flow crosses.
    let cap = link_bps * 9 / 10;
    let mut used = vec![rho; hops];
    for i in 0..rng.uniform_range(5, 10) {
        let entry = rng.uniform_range(0, hops as u64) as usize;
        let exit = rng.uniform_range(entry as u64, hops as u64) as usize;
        let headroom = (entry..=exit)
            .map(|h| cap.saturating_sub(used[h]))
            .min()
            .expect("non-empty path");
        if headroom < 25_000 {
            continue;
        }
        let w = (headroom * rng.uniform_range(25, 76) / 100).max(10_000);
        for u in &mut used[entry..=exit] {
            *u += w;
        }
        flows.push(FlowSpec {
            id: 100 + i as u32,
            weight_bps: w,
            size: pick_size(rng, 500),
            source: if rng.uniform() < 0.5 {
                SourceKind::Cbr
            } else {
                SourceKind::Poisson
            },
            start_ms: rng.uniform_range(0, 20),
            entry,
            exit,
        });
    }

    // Faults: droops (folded into the per-hop effective δ by the
    // checker), cross-only churn, caps, and a randomized drop policy.
    let mut droops = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        droops.push(Droop {
            hop: rng.uniform_range(0, hops as u64) as usize,
            at_ms: rng.uniform_range(horizon_ms / 4, horizon_ms / 2),
            dur_ms: rng.uniform_range(100, 401),
            percent: rng.uniform_range(40, 91) as u32,
        });
    }
    let cross_ids: Vec<u32> = flows.iter().skip(1).map(|f| f.id).collect();
    let mut churns = Vec::new();
    for _ in 0..rng.uniform_range(0, 3) {
        if cross_ids.is_empty() {
            break;
        }
        let victim = cross_ids[rng.uniform_range(0, cross_ids.len() as u64) as usize];
        if churns.iter().any(|c: &Churn| c.flow == victim) {
            continue;
        }
        churns.push(Churn {
            flow: victim,
            at_ms: rng.uniform_range(horizon_ms / 3, 2 * horizon_ms / 3),
            revive_ms: None,
        });
    }
    let per_flow_cap = if rng.uniform() < 0.5 {
        None
    } else {
        Some(rng.uniform_range(4, 25) as usize)
    };
    let shared_cap = if rng.uniform() < 0.33 {
        Some(rng.uniform_range(24, 61) as usize)
    } else {
        None
    };
    let drop_policy = match rng.uniform_range(0, 3) {
        0 => DropKind::Tail,
        1 => DropKind::Head,
        _ => DropKind::Lwp,
    };

    Scenario {
        preset: Preset::Graph,
        seed,
        link_bps,
        server,
        hops,
        prop_ms,
        horizon_ms,
        per_flow_cap,
        shared_cap,
        drop_policy,
        recovery_at_ms: None,
        flows,
        droops,
        churns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for preset in Preset::ALL {
            let a = Scenario::from_seed(preset, 42);
            let b = Scenario::from_seed(preset, 42);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let c = Scenario::from_seed(preset, 43);
            assert_ne!(format!("{a:?}"), format!("{c:?}"), "{preset:?}");
        }
    }

    #[test]
    fn replay_line_round_trips() {
        for preset in Preset::ALL {
            for seed in [0u64, 1, 987_654_321] {
                let sc = Scenario::from_seed(preset, seed);
                let line = sc.replay_line();
                let back = Scenario::from_replay_line(&line).expect("parse");
                assert_eq!(back.preset, preset);
                assert_eq!(back.seed, seed);
                assert_eq!(format!("{back:?}"), format!("{sc:?}"));
            }
        }
        // A replay line embedded in a larger failure message parses too.
        let msg = "Theorem 6 violated by 3.2ms\n  conformance replay: preset=tandem seed=7\n";
        let sc = Scenario::from_replay_line(msg).expect("parse embedded");
        assert_eq!(sc.preset, Preset::Tandem);
        assert_eq!(sc.seed, 7);
    }

    #[test]
    fn arrivals_are_deterministic_and_conforming() {
        let sc = Scenario::from_seed(Preset::Tandem, 11);
        let obs = sc.observed().clone();
        let a = sc.arrivals_for(&obs);
        let b = sc.arrivals_for(&obs);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // The shaped observed flow conforms to its (σ, ρ) bucket.
        if let SourceKind::ShapedPoisson { sigma_pkts } = obs.source {
            let bucket = LeakyBucket::new(sigma_pkts as u64 * obs.max_len().bits(), obs.weight());
            assert!(bucket.conforms(&a));
        } else {
            panic!("tandem observed flow must be shaped");
        }
    }

    #[test]
    fn tandem_admission_holds_per_hop() {
        for preset in [Preset::Tandem, Preset::Graph] {
            for seed in 0..40u64 {
                let sc = Scenario::from_seed(preset, seed);
                for h in 0..sc.hops {
                    let total: u64 = sc
                        .flows
                        .iter()
                        .filter(|f| f.entry <= h && h <= f.exit)
                        .map(|f| f.weight_bps)
                        .sum();
                    assert!(
                        total <= sc.link_bps,
                        "{preset:?} seed {seed} hop {h}: Σr = {total} > C = {}",
                        sc.link_bps
                    );
                }
                // Churn never targets the observed flow.
                assert!(sc.churns.iter().all(|c| c.flow != OBSERVED_FLOW.0));
            }
        }
    }

    #[test]
    fn graph_cross_flows_share_intermediate_ports() {
        // The preset's reason to exist: some seed must produce a cross
        // flow spanning more than one hop (tandem never does).
        let mut multi_hop_cross = 0usize;
        for seed in 0..40u64 {
            let sc = Scenario::from_seed(Preset::Graph, seed);
            multi_hop_cross += sc.flows.iter().skip(1).filter(|f| f.exit > f.entry).count();
        }
        assert!(multi_hop_cross > 0, "no multi-hop cross flow in 40 seeds");
    }
}
