//! The twin table: every "bit-identical to its twin" contract of the
//! repository, checked once, by one generator, one driver, one
//! recording observer and one comparator.
//!
//! The paper's theorems hold for SFQ as Eqs. 4–5 state it. They carry
//! over to what ships — the tag core on the pooled store, the
//! fixed-point tags, the batch calls, the counter pages, a boxed port,
//! an engine port in a graph — only because each of those is
//! bit-identical to a twin the theorems do hold for, the first of them
//! the paper oracle ([`crate::paper`]), which shares no code with the
//! tag core. [`rows`] lists those pairs: each [`Row`] names
//! a product, its twin, the [`Inputs`] it is checked on and the
//! [`Level`] it compares at.
//!
//! [`Schedule::of`] draws one schedule per seed of the
//! [`Preset::Twin`](crate::scenario::Preset::Twin) preset, over the whole
//! `Scheduler` surface; a failure names the row and the first call,
//! event or page where product and twin differ, and ends in the replay
//! line `conformance replay: preset=twin seed=N`.

use crate::engine::first_diff;
use crate::paper::Paper;
use crate::scenario::Scenario;
use des::SimRng;
use graph::{GraphReport, GraphSpec, PortKind, PortSpec};
use netsim::DropPolicy;
use servers::RateProfile;
use sfq_core::obs::{FlowChange, SchedEvent, SchedObserver};
use sfq_core::{
    Exact, FinishClock, Fixed, FlowId, HierSfq, Packet, PacketFactory, ReconfigCmd, Scfq, ScfqFast,
    SchedError, Scheduler, Sfq, SfqFast, StartClock, TagArith, TagSched, TieBreak, VtRule,
    DEFAULT_SHIFT,
};
use sfq_engine::{Engine, EngineConfig, ShardSched};
use sfq_obs::CountingObserver;
use sfq_telemetry::{Aggregator, PageSnapshot, TelemetryHub, TelemetrySink};
use simtime::{Bytes, Rate, SimDuration, SimTime};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Domain separator for the twin schedule, distinct from every other
/// stream drawn from the same seed.
pub const TWIN_DOMAIN: u64 = 0x7715_0B1D;

/// Domain of the graph row's workload.
const GRAPH_DOMAIN: u64 = 0x64AF_11D0;

/// One call of a schedule. Flow index `i` is `FlowId(i + 1)`; the last
/// index names a flow that is not registered at the start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `try_enqueue` one packet of this length.
    Enq(usize, u64),
    /// `try_enqueue_batch` these packets (per packet: `try_enqueue`
    /// each, stopping at the first error); possibly none.
    EnqBatch(Vec<(usize, u64)>),
    /// `try_dequeue`: the packet that leaves is in service until the
    /// next `Depart` or dequeue (which first completes it).
    Deq,
    /// `on_departure` of the packet in service, if any.
    Depart,
    /// `dequeue_batch` of up to this many (per packet: as many
    /// `dequeue` + `on_departure`) once the packet in service is done.
    DeqBatch(usize),
    /// `DeqBatch` of everything queued.
    Drain,
    /// Move the clock forward this many nanoseconds.
    Tick(i128),
    /// `drop_head`.
    DropHead(usize),
    /// `force_remove_flow`.
    ForceRemove(usize),
    /// `remove_flow` (idle removal).
    Remove(usize),
    /// `try_add_flow` at this rate in b/s: revival or re-registration.
    AddFlow(usize, u64),
    /// `try_set_weight` to this rate in b/s.
    SetWeight(usize, u64),
    /// `try_reconfig`.
    Reconfig(ReconfigCmd),
}

/// A seeded op schedule and the knobs every row builds its sides from.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The seed it was drawn from.
    pub seed: u64,
    /// Rate of flow index `i` in b/s, as registered before the first
    /// call (all but the last index) and re-registered by `reregister`.
    pub weights: Vec<u64>,
    /// Tie-break rule of the schedulers that take one.
    pub tie: TieBreak,
    /// Rebasing threshold in bits (`None`: rebasing off).
    pub rebase: Option<u32>,
    /// Register each packet's flow before every enqueue and every
    /// weight change.
    pub reregister: bool,
    /// Shards of every engine side.
    pub shards: usize,
    /// Per-shard backlog bound of every engine side.
    pub ring: usize,
    /// The calls.
    pub ops: Vec<Op>,
}

impl Schedule {
    /// The schedule of twin seed `seed`, with `pin` applied to it.
    pub fn pinned(seed: u64, pin: impl FnOnce(&mut Schedule)) -> Schedule {
        let mut sc = Schedule::of(&Scenario::from_seed(crate::scenario::Preset::Twin, seed));
        pin(&mut sc);
        sc
    }

    /// The schedule of a [`Preset::Twin`](crate::scenario::Preset::Twin)
    /// scenario, drawn from `sc.seed` under [`TWIN_DOMAIN`].
    pub fn of(sc: &Scenario) -> Schedule {
        let mut rng = SimRng::new(sc.seed ^ TWIN_DOMAIN);
        // Two to eight flows at arbitrary b/s below or above 50 kb/s,
        // whole kb/s up to 640, five kb/s rates (so flows share rates and
        // their tags tie), or powers of two from 2^14 to 2^19 (the one
        // mix the fixed-point rows keep as drawn) — or a mix.
        let (n, mix) = (rng.uniform_range(2, 9) as usize, rng.uniform_range(0, 6));
        let draw = |rng: &mut SimRng, kind| match kind {
            0 => rng.uniform_range(500, 50_000),
            1 => rng.uniform_range(50_000, 400_000),
            2 => 1_000 * rng.uniform_range(1, 641),
            3 => [32_000, 64_000, 100_000, 250_000, 640_000][rng.uniform_range(0, 5) as usize],
            _ => 1 << rng.uniform_range(14, 20),
        };
        let mut weights = Vec::new();
        for _ in 0..n {
            let kind = rng.uniform_range(0, 5);
            weights.push(draw(&mut rng, if mix == 5 { kind } else { mix }));
        }
        weights.push(8_000);
        use TieBreak::{Fifo, HighWeightFirst, LowWeightFirst};
        let tie = [Fifo, LowWeightFirst, HighWeightFirst][rng.uniform_range(0, 3) as usize];
        let rebase = [None, Some(0), Some(8)][rng.uniform_range(0, 3) as usize];
        let reregister = rng.uniform() < 0.25;
        let shards = rng.uniform_range(1, 5) as usize;
        let ring = [4, 16, 64, 2048][rng.uniform_range(0, 4) as usize];
        // A quarter of the schedules keep the clock at zero throughout.
        let tick_pct = [0, 6, 10, 16][rng.uniform_range(0, 4) as usize];
        // A third arrive in bursts that build deep backlogs.
        let bursts = [0, 0, 40][rng.uniform_range(0, 3) as usize];
        let flow = |rng: &mut SimRng| match rng.uniform() < 0.01 {
            true => n,
            false => rng.uniform_range(0, n as u64) as usize,
        };
        // Each flow's packet sizes, as the scenario presets draw them:
        // one length (64, 512 or 1500 B, so that equal-rate flows' tags
        // tie), uniform over 64..=1500 B, or bimodal.
        let mut sizes = Vec::new();
        for _ in 0..=n {
            let one = [64, 512, 1500][rng.uniform_range(0, 3) as usize];
            let two = (rng.uniform_range(64, 200), rng.uniform_range(250, 1501));
            let kinds = [(one, one, false), (64, 1500, false), (two.0, two.1, true)];
            sizes.push(kinds[rng.uniform_range(0, 3) as usize]);
        }
        let len = |rng: &mut SimRng, f: usize| match sizes[f] {
            (lo, hi, true) => [lo, hi][rng.uniform_range(0, 2) as usize],
            (lo, hi, false) => rng.uniform_range(lo, hi + 1),
        };
        let rate = |rng: &mut SimRng, f: usize| match rng.uniform_range(0, 6) {
            0 => weights[f],
            kind => draw(rng, kind - 1),
        };
        let mut ops = Vec::new();
        for _ in 0..rng.uniform_range(1, 250) {
            if rng.uniform_range(0, 100) < tick_pct {
                let (m, k) = (rng.uniform_range(1, 8), rng.uniform_range(0, 26));
                ops.push(Op::Tick((m as i128) << k));
                continue;
            }
            let f = flow(&mut rng);
            ops.push(match rng.uniform_range(0, 100 + bursts) {
                0..=33 => Op::Enq(f, len(&mut rng, f)),
                34..=41 | 100.. => Op::EnqBatch(
                    (0..rng.uniform_range(0, 24))
                        .map(|_| {
                            let g = flow(&mut rng);
                            (g, len(&mut rng, g))
                        })
                        .collect(),
                ),
                42..=53 => Op::Deq,
                54..=59 => Op::Depart,
                60..=69 => Op::DeqBatch(rng.uniform_range(1, 24) as usize),
                70..=71 => Op::Drain,
                72..=76 => Op::DropHead(f),
                77..=78 => Op::ForceRemove(f),
                79 => Op::Remove(f),
                80..=88 => Op::AddFlow(f, rate(&mut rng, f)),
                89..=94 => Op::SetWeight(f, rate(&mut rng, f)),
                _ => {
                    let (id, r) = (FlowId(f as u32 + 1), Rate::bps(rate(&mut rng, f)));
                    Op::Reconfig(match rng.uniform_range(0, 4) {
                        0 => ReconfigCmd::SetWeight(id, r),
                        1 => ReconfigCmd::SetRate(id, r),
                        2 => ReconfigCmd::AddFlow(id, r),
                        _ => ReconfigCmd::RemoveFlow(id),
                    })
                }
            });
        }
        Schedule {
            seed: sc.seed,
            weights,
            tie,
            rebase,
            reregister,
            shards,
            ring,
            ops,
        }
    }
}

/// What a row's schedules are restricted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// The schedule as drawn.
    Any,
    /// Every rate mapped onto `2^14..=2^19` b/s and rebasing off: tag
    /// spans are exact on the 2^-24 grid, and the fixed-point rebase
    /// (a floor base) is not the exact one (`docs/fixed_point.md`).
    QuantizationSafe,
}

impl Inputs {
    /// `sc` restricted to these inputs.
    pub fn apply(self, sc: &Schedule) -> Schedule {
        let mut sc = sc.clone();
        if self == Inputs::QuantizationSafe {
            let safe = |bps: u64| 1u64 << (14 + bps.trailing_zeros().max(bps.count_ones()) % 6);
            sc.rebase = None;
            sc.weights.iter_mut().for_each(|w| *w = safe(*w));
            for op in &mut sc.ops {
                match op {
                    Op::AddFlow(_, w) | Op::SetWeight(_, w) => *w = safe(*w),
                    Op::Reconfig(
                        ReconfigCmd::SetWeight(_, r)
                        | ReconfigCmd::SetRate(_, r)
                        | ReconfigCmd::AddFlow(_, r),
                    ) => *r = Rate::bps(safe(r.as_bps())),
                    _ => {}
                }
            }
        }
        sc
    }
}

/// How far a row compares; each level includes the ones before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// What every call returned (packets whole, refusals with their
    /// cause) and `len` / `backlog` after it.
    Packets,
    /// The observer event streams: exact tags, flow changes.
    Events,
    /// The books after every call: each side's counter pages, or its
    /// `CountingObserver` and the driver's offered / refused tallies;
    /// whole pages wherever both sides keep them.
    Pages,
}

/// The contract a row checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contract {
    /// A tag scheduler against the paper oracle ([`crate::paper`]),
    /// which shares no code with it (`docs/pooling.md`).
    Paper,
    /// Fixed-point tags against exact ones (`docs/fixed_point.md`).
    Fixed,
    /// Batch calls against the per-packet loops that specify them.
    Batch,
    /// Counter pages against a `CountingObserver` and the driver's
    /// tallies (`docs/telemetry.md`).
    Telemetry,
    /// A graph on engine ports built and run twice (`docs/graph.md`).
    Graph,
    /// A `Box`ed scheduler against the scheduler itself: the box must
    /// forward every method, the defaulted ones included.
    Boxed,
}

/// A row's check: both sides of a schedule, compared at a level.
type Check = Box<dyn Fn(&Schedule, Level) -> Result<usize, String> + Send + Sync>;

/// A tag scheduler's constructor, with the schedule's tie-break rule.
type New<A, V> = fn(&Schedule, Rec) -> TagSched<A, V, Rec>;

/// One contract instance: a product, the twin it must be
/// bit-identical to, the inputs it is checked on and how far the two
/// are compared.
pub struct Row {
    contract: Contract,
    product: String,
    twin: String,
    inputs: Inputs,
    level: Level,
    check: Check,
}

impl Row {
    /// A row at its contract's level (a graph's report is compared
    /// whole); fixed-point rows get quantization-safe inputs.
    fn new(
        contract: Contract,
        product: &str,
        twin: &str,
        check: impl Fn(&Schedule, Level) -> Result<usize, String> + Send + Sync + 'static,
    ) -> Row {
        let (inputs, level) = match contract {
            Contract::Fixed => (Inputs::QuantizationSafe, Level::Events),
            Contract::Graph => (Inputs::Any, Level::Packets),
            Contract::Paper | Contract::Boxed => (Inputs::Any, Level::Events),
            Contract::Batch | Contract::Telemetry => (Inputs::Any, Level::Pages),
        };
        Row {
            contract,
            product: product.to_string(),
            twin: twin.to_string(),
            inputs,
            level,
            check: Box::new(check),
        }
    }

    /// `product ≡ twin` on `sc` under this row's inputs: `Ok` carries
    /// the number of calls compared, `Err` the first divergence.
    pub fn check(&self, sc: &Schedule) -> Result<usize, String> {
        let sc = self.inputs.apply(sc);
        let (product, twin, contract) = (&self.product, &self.twin, self.contract);
        catch_unwind(AssertUnwindSafe(|| (self.check)(&sc, self.level)))
            .unwrap_or_else(|e| Err(format!("panicked: {}", panic_message(&*e))))
            .map_err(|e| format!("{product} ≡ {twin} ({contract:?}): {e}"))
    }
}

/// Every twin pair of the repository. To add a row, name the product,
/// its twin and its [`Contract`] (which sets the [`Level`], and the
/// [`Inputs`] of a fixed-point row; a row that holds only on narrower
/// inputs sets its own), and build the two sides with `pair`; a product
/// that is not a `Scheduler` writes its check like `graph_twice`.
pub fn rows() -> Vec<Row> {
    use Contract::{Batch, Boxed, Graph, Telemetry};
    use Mode::{Batched, PerPacket};
    let sfq: New<Exact, StartClock> = |sc, o| Sfq::with_observer(sc.tie, o);
    let scfq: New<Exact, FinishClock> = |_, o| Scfq::with_observer(o);
    let sfq_fast: New<Fixed, StartClock> = |sc, o| {
        SfqFast::with_shift_observer(sc.tie, DEFAULT_SHIFT, o).expect("the default shift is valid")
    };
    let scfq_fast: New<Fixed, FinishClock> =
        |_, o| ScfqFast::with_shift_observer(DEFAULT_SHIFT, o).expect("the default shift is valid");
    let fifo_batch = |sc: &Schedule, l| {
        let side = |o| (baselines::Fifo::with_observer(o), None);
        pair(sc, l, (Batched, side), (PerPacket, side))
    };
    let engine_batch = |sc: &Schedule, l| {
        let side = |o| engine(sc, true, shards(sc, o));
        pair(sc, l, (Batched, side), (PerPacket, side))
    };
    let engine_pages = |sc: &Schedule, l| {
        let side = |pages| move |o| engine(sc, pages, shards(sc, o));
        pair(sc, l, (Batched, side(true)), (Batched, side(false)))
    };
    let hier_boxed = |sc: &Schedule, l| {
        let side = |o| (HierSfq::with_observer(o), None);
        pair(sc, l, (Batched, |o| boxed(side(o))), (Batched, side))
    };
    let mut rows = vec![
        paper("Sfq", sfq, false, Inputs::Any),
        paper("Scfq", scfq, true, Inputs::Any),
        paper("SfqFast", sfq_fast, false, Inputs::QuantizationSafe),
        paper("ScfqFast", scfq_fast, true, Inputs::QuantizationSafe),
        fixed("SfqFast", sfq_fast, "Sfq", sfq),
        fixed("ScfqFast", scfq_fast, "Scfq", scfq),
        Row::new(Batch, "Fifo, batch calls", "per packet", fifo_batch),
        Row::new(Batch, "engine, batch calls", "per packet", engine_batch),
        Row::new(Telemetry, "engine pages", "counts", engine_pages),
        Row::new(Graph, "graph on engine ports", "built again", graph_twice),
        Row::new(Boxed, "boxed HierSfq", "HierSfq", hier_boxed),
    ];
    rows.extend(tag_rows("Sfq", sfq));
    rows.extend(tag_rows("Scfq", scfq));
    rows.extend(tag_rows("SfqFast", sfq_fast));
    rows.extend(tag_rows("ScfqFast", scfq_fast));
    rows
}

/// The tag scheduler `new` ≡ the paper oracle (SCFQ if `scfq`, else
/// SFQ) on `inputs`, with the schedule's tie-break rule and rebasing on
/// both sides.
fn paper<A: TagArith + 'static, V: VtRule + 'static>(
    product: &str,
    new: New<A, V>,
    scfq: bool,
    inputs: Inputs,
) -> Row {
    let mut row = Row::new(Contract::Paper, product, "paper", move |sc, l| {
        let oracle = |o| {
            let mut s = Paper::new(scfq, sc.tie, o);
            if let Some(bits) = sc.rebase {
                s.enable_rebasing(bits);
            }
            (s, None)
        };
        let product = |o| tag(sc, new, o, false);
        pair(sc, l, (Mode::Batched, product), (Mode::Batched, oracle))
    });
    row.inputs = inputs;
    row
}

/// Fixed-point `product` ≡ exact `twin`.
fn fixed<V: VtRule + 'static>(
    product: &str,
    new: New<Fixed, V>,
    twin: &str,
    exact: New<Exact, V>,
) -> Row {
    Row::new(Contract::Fixed, product, twin, move |sc, l| {
        let fast = |o| tag(sc, new, o, false);
        let exact = |o| tag(sc, exact, o, false);
        pair(sc, l, (Mode::Batched, fast), (Mode::Batched, exact))
    })
}

/// The rows of the tag scheduler `name`: batch calls ≡ per-packet
/// loops, page ≡ `CountingObserver`, and `Box<dyn Scheduler>` ≡
/// unboxed.
fn tag_rows<A: TagArith + 'static, V: VtRule + 'static>(name: &str, new: New<A, V>) -> [Row; 3] {
    use Contract::{Batch, Boxed, Telemetry};
    use Mode::{Batched, PerPacket};
    let batch = move |sc: &Schedule, l| {
        let side = |o| tag(sc, new, o, true);
        pair(sc, l, (Batched, side), (PerPacket, side))
    };
    let pages = move |sc: &Schedule, l| {
        let side = |pages| move |o| tag(sc, new, o, pages);
        pair(sc, l, (Batched, side(true)), (Batched, side(false)))
    };
    let boxed_ = move |sc: &Schedule, l| {
        let side = |o| tag(sc, new, o, false);
        pair(sc, l, (Batched, |o| boxed(side(o))), (Batched, side))
    };
    [
        Row::new(Batch, &format!("{name}, batch calls"), "per packet", batch),
        Row::new(Telemetry, &format!("{name} pages"), "counts", pages),
        Row::new(Boxed, &format!("boxed {name}"), name, boxed_),
    ]
}

/// The message of a caught panic.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Check every row of [`rows`] on the scenario's [`Schedule`], on two
/// threads taking alternate rows: `Ok` carries the number of calls
/// compared over all rows, `Err` names the first row in table order
/// whose product and twin differ, where, and ends in the scenario's
/// replay line.
pub fn run_twin_conformance(sc: &Scenario) -> Result<usize, String> {
    let (schedule, rows) = (&Schedule::of(sc), &rows());
    let mut checked: Vec<_> = std::thread::scope(|s| {
        let half = |k| {
            let mine = rows.iter().enumerate().skip(k).step_by(2);
            s.spawn(move || {
                mine.map(|(i, r)| (i, r.check(schedule)))
                    .collect::<Vec<_>>()
            })
        };
        let halves = [half(0), half(1)];
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("rows catch their panics"))
            .collect()
    });
    checked.sort_by_key(|&(i, _)| i);
    checked.into_iter().try_fold(0, |n, (_, compared)| {
        Ok(n + compared.map_err(|e| format!("{e}\n  {}", sc.replay_line()))?)
    })
}

/// Check the rows of `contract` whose product `pick` keeps on `sc`, in
/// table order: a pinned view of the table, for a schedule built by hand
/// or one with a knob fixed (a tie-break rule, eager rebasing,
/// re-registration before every enqueue). `Ok` carries the number of
/// calls compared, `Err` the first divergence.
pub fn check_rows(
    sc: &Schedule,
    contract: Contract,
    pick: impl Fn(&str) -> bool,
) -> Result<usize, String> {
    let rows = rows();
    let mut picked = rows
        .iter()
        .filter(|r| r.contract == contract && pick(&r.product))
        .peekable();
    assert!(picked.peek().is_some(), "no {contract:?} row picked");
    picked.try_fold(0, |n, r| Ok(n + r.check(sc)?))
}

/// One recorded observer call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Enqueue(SchedEvent),
    Dequeue(SchedEvent),
    Drop(SchedEvent),
    Flow(FlowId, FlowChange),
}

/// The recording observer: every call verbatim, tags as exact
/// rationals, and a [`CountingObserver`] fed the same calls.
#[derive(Debug, Default)]
struct Recorder {
    events: Vec<Event>,
    counts: CountingObserver,
}

impl SchedObserver for Recorder {
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        self.counts.on_enqueue(ev);
        self.events.push(Event::Enqueue(*ev));
    }
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        self.counts.on_dequeue(ev);
        self.events.push(Event::Dequeue(*ev));
    }
    fn on_drop(&mut self, ev: &SchedEvent) {
        self.counts.on_drop(ev);
        self.events.push(Event::Drop(*ev));
    }
    fn on_flow_change(&mut self, flow: FlowId, change: &FlowChange) {
        self.counts.on_flow_change(flow, change);
        self.events.push(Event::Flow(flow, *change));
    }
}

/// The observer every side runs with, shared by an engine's shards.
type Rec = Rc<RefCell<Recorder>>;

/// A side's counter pages: one scheduler's, or an engine's.
enum Page {
    Sink(TelemetrySink),
    Hub(Arc<TelemetryHub>),
}

/// One side of a row: the scheduler and its pages, if any.
type Side<S> = (S, Option<Page>);

/// How a side issues the batch ops: as batch calls, or as the
/// per-packet loops each batch call is specified by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Batched,
    PerPacket,
}

/// What one call returned.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Done,
    Result(Result<(), SchedError>),
    Served(Result<Vec<Packet>, SchedError>),
    Evicted(Option<Packet>),
    Discarded(usize),
    Removed(bool),
    /// The run ends here (the engine's `dequeue` on a `TagOverflow`).
    Panicked(String),
}

/// A call's outcome, `len()` after it and every flow's `backlog`.
type Step = (Outcome, usize, Vec<usize>);

/// A side's books after a call — offered, refused, enqueued, dequeued,
/// head-dropped, force-dropped, force-removals — and the whole pages
/// they were read from (an engine's: its engine page, then each
/// shard's).
type Stats = ([u64; 7], Vec<PageSnapshot>);

/// Everything one side of a row recorded.
#[derive(Debug, Default)]
struct Run {
    steps: Vec<Step>,
    events: Vec<Event>,
    stats: Vec<Stats>,
}

/// Read a side's books after a call. A page must close on its own —
/// histogram masses equal the counts, the per-class bytes sum to the
/// byte total, the resident count is `live` — and an engine's must
/// conserve packets whenever it is empty. A scheduler's page does not
/// see offers or refusals: the driver's `ledger` stands in.
fn read_stats(
    rec: &Rec,
    page: Option<&Page>,
    ledger: [u64; 2],
    live: usize,
) -> Result<Stats, String> {
    let books = |[offered, refused]: [u64; 2], p: &PageSnapshot| {
        let sums = [
            (p.delay_hist.iter().sum::<u64>(), p.dequeues),
            (p.backlog_hist.iter().sum(), p.enqueues),
            (p.class_bytes.iter().sum(), p.deq_bytes),
            (p.resident() as u64, live as u64),
        ];
        if sums.iter().any(|(sum, want)| sum != want) {
            return Err(format!("a page does not close: {sums:?}"));
        }
        let (enq, deq, dropped) = (p.enqueues, p.dequeues, p.head_drops);
        Ok([
            offered,
            refused,
            enq,
            deq,
            dropped,
            p.force_drops,
            p.force_removals,
        ])
    };
    let torn = |e| format!("{e:?}");
    match page {
        None => {
            let c = &rec.borrow().counts;
            let [offered, refused] = ledger;
            let (enq, deq, dropped) = (c.enqueued, c.dequeued, c.dropped);
            let (forced, removals) = (c.force_dropped, c.flows_force_removed);
            let books = [offered, refused, enq, deq, dropped, forced, removals];
            Ok((books, Vec::new()))
        }
        Some(Page::Sink(sink)) => {
            let snap = sink.page().snapshot(1).map_err(torn)?;
            Ok((books(ledger, &snap)?, vec![snap]))
        }
        Some(Page::Hub(hub)) => {
            let snap = Aggregator::new(Arc::clone(hub)).snapshot(1).map_err(torn)?;
            if live == 0 && snap.conservation_gap() != 0 {
                return Err(format!("conservation gap {}", snap.conservation_gap()));
            }
            let ledger = [snap.engine.offered, snap.engine.refused_total()];
            let books = books(ledger, &snap.totals)?;
            Ok((
                books,
                [snap.engine].into_iter().chain(snap.shards).collect(),
            ))
        }
    }
}

/// Run `sc` on `s` (observer `rec`, pages `page`), issuing the batch ops
/// as `mode` says, then drain it.
fn drive<S: Scheduler>(
    mut s: S,
    (rec, page): (Rec, Option<Page>),
    sc: &Schedule,
    mode: Mode,
    level: Level,
) -> Result<Run, String> {
    let flows = sc.weights.len();
    let id = |f: usize| FlowId(f as u32 + 1);
    for (f, &w) in sc.weights[..flows - 1].iter().enumerate() {
        s.add_flow(id(f), Rate::bps(w));
    }
    let reregister = |s: &mut S, f: usize| {
        if sc.reregister {
            s.add_flow(id(f), Rate::bps(sc.weights[f]));
        }
    };
    let serve = |s: &mut S, now, max| -> Vec<Packet> {
        let mut out = Vec::new();
        match mode {
            Mode::Batched => _ = s.dequeue_batch(now, max, &mut out),
            Mode::PerPacket => {
                while let Some(p) = (out.len() < max).then(|| s.dequeue(now)).flatten() {
                    s.on_departure(now);
                    out.push(p);
                }
            }
        }
        out
    };
    let (mut pf, mut now) = (PacketFactory::new(), SimTime::ZERO);
    let mut in_service = false;
    let mut ledger = [0u64; 2];
    let mut run = Run::default();
    for (i, op) in sc.ops.iter().chain([&Op::Drain]).enumerate() {
        let before = s.len();
        let call = catch_unwind(AssertUnwindSafe(|| -> Result<Outcome, String> {
            // A dequeue or a departure first completes the packet in
            // service, if any.
            let serving = matches!(op, Op::Deq | Op::Depart | Op::DeqBatch(_) | Op::Drain);
            if serving && std::mem::take(&mut in_service) {
                s.on_departure(now);
            }
            Ok(match op {
                Op::Enq(f, len) => {
                    reregister(&mut s, *f);
                    let res = s.try_enqueue(now, pf.make(id(*f), Bytes::new(*len), now));
                    ledger[0] += 1;
                    ledger[1] += u64::from(res.is_err());
                    Outcome::Result(res)
                }
                Op::EnqBatch(pkts) => {
                    pkts.iter().for_each(|&(f, _)| reregister(&mut s, f));
                    let pkts: Vec<Packet> = pkts
                        .iter()
                        .map(|&(f, len)| pf.make(id(f), Bytes::new(len), now))
                        .collect();
                    let res = match mode {
                        Mode::Batched => s.try_enqueue_batch(now, &pkts),
                        Mode::PerPacket => pkts.iter().try_for_each(|&p| s.try_enqueue(now, p)),
                    };
                    ledger[0] += (s.len() - before) as u64 + u64::from(res.is_err());
                    ledger[1] += u64::from(res.is_err());
                    Outcome::Result(res)
                }
                Op::Deq => {
                    let served = s.try_dequeue(now);
                    in_service = matches!(served, Ok(Some(_)));
                    Outcome::Served(served.map(|p| p.into_iter().collect()))
                }
                Op::Depart => Outcome::Done,
                Op::DeqBatch(max) => Outcome::Served(Ok(serve(&mut s, now, *max))),
                Op::Drain => {
                    let all = serve(&mut s, now, usize::MAX);
                    if !s.is_empty() {
                        return Err(format!("{} stalled with {} queued", s.name(), s.len()));
                    }
                    Outcome::Served(Ok(all))
                }
                Op::Tick(ns) => {
                    now += SimDuration::from_nanos(*ns);
                    Outcome::Done
                }
                Op::DropHead(f) => Outcome::Evicted(s.drop_head(id(*f))),
                Op::ForceRemove(f) => Outcome::Discarded(s.force_remove_flow(id(*f))),
                Op::Remove(f) => Outcome::Removed(s.remove_flow(id(*f))),
                Op::AddFlow(f, w) => Outcome::Result(s.try_add_flow(id(*f), Rate::bps(*w))),
                Op::SetWeight(f, w) => {
                    reregister(&mut s, *f);
                    Outcome::Result(s.try_set_weight(id(*f), Rate::bps(*w)))
                }
                Op::Reconfig(cmd) => Outcome::Result(s.try_reconfig(*cmd)),
            })
        }));
        let outcome = match call {
            Ok(outcome) => outcome?,
            // A panic ends the run: the twin must panic at the same call.
            Err(e) => {
                run.steps
                    .push((Outcome::Panicked(panic_message(&*e)), 0, Vec::new()));
                break;
            }
        };
        let backlog = (0..flows).map(|f| s.backlog(id(f))).collect();
        run.steps.push((outcome, s.len(), backlog));
        if level == Level::Pages {
            let stats = read_stats(&rec, page.as_ref(), ledger, s.len())
                .map_err(|e| format!("after call #{i} ({op:?}): {e}"))?;
            run.stats.push(stats);
        }
    }
    run.events = std::mem::take(&mut rec.borrow_mut().events);
    Ok(run)
}

/// Compare two runs of `sc` at `level`; `Ok` carries the number of
/// calls compared.
fn compare(sc: &Schedule, level: Level, product: &Run, twin: &Run) -> Result<usize, String> {
    let op = |i: usize| sc.ops.get(i).unwrap_or(&Op::Drain);
    let diverged = |what: String, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
        Err(format!(
            "{what} diverged:\n    product {a:?}\n    twin    {b:?}"
        ))
    };
    if let Some(i) = first_diff(&product.steps, &twin.steps) {
        let what = format!("call #{i} ({:?})", op(i));
        return diverged(what, &product.steps.get(i), &twin.steps.get(i));
    }
    if level >= Level::Events {
        if let Some(i) = first_diff(&product.events, &twin.events) {
            let what = format!("event #{i}");
            return diverged(what, &product.events.get(i), &twin.events.get(i));
        }
    }
    if level >= Level::Pages {
        for (i, (a, b)) in product.stats.iter().zip(&twin.stats).enumerate() {
            let whole = !a.1.is_empty() && !b.1.is_empty();
            if a.0 != b.0 || (whole && a.1 != b.1) {
                return diverged(format!("books after call #{i} ({:?})", op(i)), a, b);
            }
        }
    }
    Ok(product.steps.len())
}

/// Build both sides of a row, each with a fresh recorder, drive each
/// through `sc` in its [`Mode`], and compare them at `level`.
fn pair<A: Scheduler, B: Scheduler>(
    sc: &Schedule,
    level: Level,
    (mode_a, product): (Mode, impl FnOnce(Rec) -> Side<A>),
    (mode_b, twin): (Mode, impl FnOnce(Rec) -> Side<B>),
) -> Result<usize, String> {
    let side = |rec: Rec, page| (rec, page);
    let (ra, rb) = (Rec::default(), Rec::default());
    let (a, pa) = product(Rc::clone(&ra));
    let (b, pb) = twin(Rc::clone(&rb));
    let a = drive(a, side(ra, pa), sc, mode_a, level).map_err(|e| format!("product: {e}"))?;
    let b = drive(b, side(rb, pb), sc, mode_b, level).map_err(|e| format!("twin: {e}"))?;
    compare(sc, level, &a, &b)
}

/// The tag scheduler `new` builds, with the schedule's rebasing and a
/// counter page if `pages`.
fn tag<A: TagArith, V: VtRule>(
    sc: &Schedule,
    new: New<A, V>,
    o: Rec,
    pages: bool,
) -> Side<TagSched<A, V, Rec>> {
    let mut s = new(sc, o);
    if let Some(bits) = sc.rebase {
        s.enable_rebasing(bits);
    }
    let page = pages.then(|| {
        let sink = TelemetrySink::new();
        s.attach_telemetry(sink.clone());
        Page::Sink(sink)
    });
    (s, page)
}

/// A side behind a `Box<dyn Scheduler>`.
fn boxed<S: Scheduler + 'static>((s, page): Side<S>) -> Side<Box<dyn Scheduler>> {
    (Box::new(s), page)
}

/// Engine shards: exact SFQ with the schedule's tie-break rule.
fn shards(sc: &Schedule, o: Rec) -> impl FnMut(usize) -> Sfq<Rec> + '_ {
    move |_| Sfq::with_observer(sc.tie, Rc::clone(&o))
}

/// An engine of the schedule's shape over `shard(i)`, with pages if
/// `pages`. A second `attach_telemetry` must hand back the same hub.
fn engine<S: ShardSched>(
    sc: &Schedule,
    pages: bool,
    shard: impl FnMut(usize) -> S,
) -> Side<Engine<S>> {
    let cfg = EngineConfig::new(sc.shards).batch(4).ring_capacity(sc.ring);
    let mut eng = Engine::from_factory(cfg, shard);
    let page = pages.then(|| {
        let (hub, again) = (eng.attach_telemetry(), eng.attach_telemetry());
        assert!(Arc::ptr_eq(&hub, &again), "a second attach made a new hub");
        Page::Hub(hub)
    });
    (eng, page)
}

/// One scripted source of a graph: `(entry node, flow, arrivals)`.
type GraphSource = (usize, FlowId, Vec<(SimTime, Bytes)>);

/// The graph row's workload: a topology, per-flow scripts (in add
/// order, which fixes uid minting) and `(port, flow, instant)` churns.
pub struct GraphWorkload {
    spec: GraphSpec,
    sources: Vec<GraphSource>,
    churns: Vec<(usize, FlowId, SimTime)>,
    /// Every engine port's configuration.
    pub cfg: EngineConfig,
}

impl GraphWorkload {
    /// The workload of `seed`: incast fan-in or a square traffic
    /// matrix, per-flow and shared buffer caps under one drop policy,
    /// bursty scripts that reach the caps and the engines' backlog
    /// bounds, and sometimes a mid-script churn at every port.
    pub fn of(seed: u64) -> GraphWorkload {
        let mut rng = SimRng::new(seed ^ GRAPH_DOMAIN);
        let policy = [
            DropPolicy::TailDrop,
            DropPolicy::HeadDrop,
            DropPolicy::LowestWeightPressure,
        ][rng.uniform_range(0, 3) as usize];
        let n_flows = rng.uniform_range(3, 9) as u32;
        let flows: Vec<(FlowId, Rate)> = (1..=n_flows)
            .map(|f| (FlowId(f), Rate::bps(1_000 * rng.uniform_range(8, 65))))
            .collect();
        let port = |rng: &mut SimRng| {
            let mut p = PortSpec::new(RateProfile::constant(Rate::bps(400_000)), flows.clone());
            p.per_flow_cap = Some(rng.uniform_range(2, 7) as usize);
            p.policy = policy;
            p
        };
        let (spec, entries) = if rng.uniform() < 0.5 {
            let fan_in = rng.uniform_range(2, 6) as usize;
            let mut p = port(&mut rng);
            p.shared_cap = Some(rng.uniform_range(6, 15) as usize);
            (GraphSpec::incast(fan_in, p), fan_in)
        } else {
            let m = rng.uniform_range(2, 5) as usize;
            let ports: Vec<PortSpec> = (0..m).map(|_| port(&mut rng)).collect();
            let routes: Vec<(FlowId, usize)> = flows
                .iter()
                .map(|&(f, _)| (f, rng.uniform_range(0, m as u64) as usize))
                .collect();
            (GraphSpec::matrix(m, ports, routes), m)
        };
        let mut sources = Vec::new();
        for &(flow, _) in &flows {
            let entry = (flow.0 as usize - 1) % entries;
            let mut t = SimTime::from_millis(rng.uniform_range(0, 30) as i128);
            let arrivals = (0..rng.uniform_range(10, 41))
                .map(|_| {
                    let a = (t, Bytes::new(rng.uniform_range(64, 900)));
                    t += SimDuration::from_millis(rng.uniform_range(0, 25) as i128);
                    a
                })
                .collect();
            sources.push((entry, flow, arrivals));
        }
        let mut churns = Vec::new();
        if rng.uniform() < 0.5 {
            let victim = FlowId(rng.uniform_range(1, n_flows as u64 + 1) as u32);
            let at = SimTime::from_millis(150);
            churns.extend(spec.ports().into_iter().map(|p| (p, victim, at)));
        }
        let cfg = EngineConfig::new(rng.uniform_range(2, 6) as usize)
            .ring_capacity(rng.uniform_range(4, 25) as usize);
        GraphWorkload {
            spec,
            sources,
            churns,
            cfg,
        }
    }

    /// Build the graph on engine ports and run it for 120 s.
    pub fn run(&self) -> GraphReport {
        let mut g = self.spec.build(PortKind::EngineSync(self.cfg));
        for (entry, flow, arrivals) in &self.sources {
            g.add_source(*entry, *flow, arrivals);
        }
        for &(node, flow, at) in &self.churns {
            g.schedule_churn(node, flow, at);
        }
        g.run(SimTime::from_secs(120))
    }
}

/// The graph row: the seed's [`GraphWorkload`] built and run twice must
/// give equal reports, compared whole, with the arena books balanced.
fn graph_twice(sc: &Schedule, _: Level) -> Result<usize, String> {
    let w = GraphWorkload::of(sc.seed);
    let (a, b) = (w.run(), w.run());
    if !a.audit.balanced() {
        return Err(format!("arena books unbalanced: {:?}", a.audit));
    }
    if a != b {
        let at = first_diff(&a.transits, &b.transits);
        return Err(format!("reports differ (first differing transit: {at:?})"));
    }
    Ok(a.transits.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    #[test]
    fn quantization_safe_inputs_hold_by_construction() {
        let safe = |bps: u64| bps.is_power_of_two() && (1 << 14..=1 << 19).contains(&bps);
        for seed in 0..32u64 {
            let sc = Schedule::of(&Scenario::from_seed(Preset::Twin, seed));
            let sc = Inputs::QuantizationSafe.apply(&sc);
            assert!(sc.weights.iter().all(|&w| safe(w)) && sc.rebase.is_none());
            for op in &sc.ops {
                if let Op::AddFlow(_, w) | Op::SetWeight(_, w) = op {
                    assert!(safe(*w), "{op:?}");
                }
                use ReconfigCmd::{AddFlow, SetRate, SetWeight};
                if let Op::Reconfig(SetWeight(_, r) | SetRate(_, r) | AddFlow(_, r)) = op {
                    assert!(safe(r.as_bps()), "{op:?}");
                }
            }
        }
    }
}
