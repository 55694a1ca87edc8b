//! The three closed-loop workloads: one client, one thread, the next
//! cycle offered only after the previous one was served.
//!
//! A cycle offers 64 arrivals and then takes 64 departures; a unit is
//! [`UNIT_CYCLES`] cycles. Each departure releases its
//! flow's next arrival through a delay line (see
//! [`ClosedInputs`](crate::inputs::ClosedInputs)).

use crate::inputs::{packet, weight, ClosedInputs, CYCLE, LEN_MAX, UNIT_CYCLES};
use crate::tracer::{Layer, Tracer};
use crate::verify::Spread;
use sfq_core::{FlowId, Packet, Scheduler, SfqFast};
use sfq_engine::{EngineConfig, SyncEngine};
use sfq_telemetry::{Aggregator, TelemetryHub};
use simtime::SimTime;
use std::hint::black_box;
use std::sync::Arc;

/// What a closed-loop workload does with one cycle's packets.
pub trait Cycle {
    /// Admit `arrivals` without serving anything (preload). Returns
    /// the number refused.
    fn fill(&mut self, now: SimTime, arrivals: &[Packet]) -> u32;

    /// Offer `arrivals`, then move as many departures into `out`.
    /// Returns the number of arrivals refused.
    fn cycle<T: Tracer>(
        &mut self,
        now: SimTime,
        arrivals: &[Packet],
        out: &mut Vec<Packet>,
        tr: &mut T,
    ) -> u32;

    /// Bound (seconds of normalized service) on the spread of `W_f/r_f`
    /// over flows that stayed backlogged: Theorem 1 for one scheduler.
    fn fair_bound_s(&self, spread: &Spread, _flows: u32) -> f64 {
        spread.theorem1_bound_s()
    }
}

/// A bare scheduler driven through the `Scheduler` trait.
pub struct SchedLoop<S>(pub S);

impl<S: Scheduler> Cycle for SchedLoop<S> {
    fn fill(&mut self, now: SimTime, arrivals: &[Packet]) -> u32 {
        for &p in arrivals {
            self.0.enqueue(now, p);
        }
        0
    }

    fn cycle<T: Tracer>(
        &mut self,
        now: SimTime,
        arrivals: &[Packet],
        out: &mut Vec<Packet>,
        tr: &mut T,
    ) -> u32 {
        let t = tr.start();
        for &p in arrivals {
            self.0.enqueue(now, p);
        }
        tr.span(Layer::SfqFastEnqueue, t, arrivals.len() as u32);
        let t = tr.start();
        for _ in 0..arrivals.len() {
            let p = self
                .0
                .dequeue(now)
                .expect("closed loop: the preloaded backlog never drains");
            self.0.on_departure(now);
            out.push(p);
        }
        tr.span(Layer::SfqFastDequeue, t, arrivals.len() as u32);
        0
    }
}

/// `SyncEngine` over `SfqFast` shards, driven through its native batch
/// path: `try_ingest` per packet, one `pump`, one `drain`.
pub struct EngineLoop {
    /// The engine under test.
    pub engine: SyncEngine<SfqFast>,
    /// Counter pages, when attached (the deployed configuration).
    pub hub: Option<Arc<TelemetryHub>>,
}

impl Cycle for EngineLoop {
    fn fill(&mut self, now: SimTime, arrivals: &[Packet]) -> u32 {
        let refused = arrivals
            .iter()
            .filter(|&&p| self.engine.try_ingest(p).is_err())
            .count();
        self.engine.pump(now).expect("registered flows only");
        refused as u32
    }

    fn cycle<T: Tracer>(
        &mut self,
        now: SimTime,
        arrivals: &[Packet],
        out: &mut Vec<Packet>,
        tr: &mut T,
    ) -> u32 {
        let t = tr.start();
        let mut refused = 0;
        for &p in arrivals {
            if self.engine.try_ingest(p).is_err() {
                refused += 1;
            }
        }
        tr.span(Layer::EngineIngest, t, arrivals.len() as u32);
        let t = tr.start();
        self.engine.pump(now).expect("registered flows only");
        tr.span(Layer::EnginePump, t, 1);
        let t = tr.start();
        self.engine
            .drain(now, arrivals.len(), out)
            .expect("root arbiter tags stay in range");
        tr.span(Layer::EngineDrain, t, 1);
        refused
    }

    /// The loosest instance of the two-level bound of `docs/engine.md`
    /// for flows on different shards: leaf Theorem 1 on either side
    /// (`l/r_f + max_g l/r_g`, at most `2·l/r_min` each) plus the root
    /// term `B_i/R_i + B_j/R_j` with batch-sized root packets.
    fn fair_bound_s(&self, _spread: &Spread, flows: u32) -> f64 {
        let bits = (LEN_MAX * 8) as f64;
        let mut shard_bps = vec![0u64; self.engine.shards()];
        let mut slowest = u64::MAX;
        for f in 0..flows {
            let r = weight(f).as_bps();
            shard_bps[self.engine.shard_of(FlowId(f))] += r;
            slowest = slowest.min(r);
        }
        let r_min = *shard_bps.iter().min().expect("at least one shard") as f64;
        4.0 * bits / slowest as f64 + 2.0 * self.engine.batch() as f64 * bits / r_min
    }
}

impl EngineLoop {
    /// Serve everything still queued, then read the counter pages: at
    /// a drained point the pages must close the conservation identity.
    /// Returns (packets drained, conservation gap if pages are attached).
    pub fn settle(&mut self, now: SimTime) -> (u64, Option<i128>) {
        let mut out = Vec::with_capacity(CYCLE);
        let mut drained = 0u64;
        while !Scheduler::is_empty(&self.engine) {
            out.clear();
            let n = self
                .engine
                .drain(now, CYCLE, &mut out)
                .expect("root arbiter tags stay in range");
            assert!(n > 0, "engine reports pending packets but drains none");
            drained += n as u64;
        }
        let gap = self.hub.as_ref().map(|hub| {
            Aggregator::new(Arc::clone(hub))
                .snapshot(8)
                .expect("single thread: no writer can tear the page")
                .conservation_gap()
        });
        (drained, gap)
    }
}

/// What the harness does with each packet it offers and receives.
pub trait Sink {
    /// `p` was accepted by the program.
    fn offered(&mut self, p: &Packet);
    /// `p` came back out.
    fn delivered(&mut self, p: &Packet);
}

/// The timed region's sink: keeps the compiler from deleting the work.
pub struct Discard;

impl Sink for Discard {
    #[inline(always)]
    fn offered(&mut self, _p: &Packet) {}
    #[inline(always)]
    fn delivered(&mut self, p: &Packet) {
        black_box(p.uid);
    }
}

/// A closed-loop workload's state plus the harness's delay line.
pub struct Closed<C> {
    /// The program state being driven.
    pub inner: C,
    /// Flows of the packets in flight, oldest at `head`.
    line: Vec<u32>,
    head: usize,
    uid: u64,
    unit: u64,
    arrivals: Vec<Packet>,
    out: Vec<Packet>,
    /// Packets offered so far, preload included.
    pub offered: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Packets the program refused (must stay 0 on these workloads).
    pub refused: u64,
}

impl<C: Cycle> Closed<C> {
    /// Wrap `inner` and preload `depth` packets on every flow.
    pub fn preloaded(inner: C, inputs: &ClosedInputs) -> Closed<C> {
        let mut s = Closed {
            inner,
            line: inputs.in_flight.clone(),
            head: 0,
            uid: 0,
            unit: 0,
            arrivals: Vec::with_capacity(CYCLE),
            out: Vec::with_capacity(CYCLE),
            offered: 0,
            delivered: 0,
            refused: 0,
        };
        let now = SimTime::ZERO;
        let total = inputs.flows as u64 * inputs.depth as u64;
        let mut k = 0u64;
        while k < total {
            s.arrivals.clear();
            while k < total && s.arrivals.len() < CYCLE {
                let flow = (k / inputs.depth as u64) as u32;
                s.arrivals
                    .push(packet(flow, inputs.len_of(s.uid), s.uid, now));
                s.uid += 1;
                k += 1;
            }
            s.refused += s.inner.fill(now, &s.arrivals) as u64;
            s.offered += s.arrivals.len() as u64;
        }
        s
    }

    /// Run one unit: [`UNIT_CYCLES`] cycles of 64 in, 64 out. Returns
    /// the packets delivered.
    pub fn unit<T: Tracer, K: Sink>(
        &mut self,
        inputs: &ClosedInputs,
        tr: &mut T,
        sink: &mut K,
    ) -> u64 {
        // One timestamp per unit: queued packets wait many units, so
        // the counter pages still see non-zero sojourns.
        let now = SimTime::from_micros(self.unit as i128);
        self.unit += 1;
        let mut delivered = 0u64;
        for _ in 0..UNIT_CYCLES {
            let slots = self.head..self.head + CYCLE;
            self.head = slots.end % self.line.len();
            self.arrivals.clear();
            for &flow in &self.line[slots.clone()] {
                let p = packet(flow, inputs.len_of(self.uid), self.uid, now);
                self.uid += 1;
                self.arrivals.push(p);
            }
            self.out.clear();
            let refused = self.inner.cycle(now, &self.arrivals, &mut self.out, tr);
            // Each departure releases its flow's next packet into the
            // slots just vacated. A short cycle (never, on workloads
            // sized to refuse nothing) leaves old entries behind; the
            // delivered count then fails the run's checks.
            for (slot, p) in self.line[slots].iter_mut().zip(&self.out) {
                *slot = p.flow.0;
            }
            for p in &self.arrivals {
                sink.offered(p);
            }
            for p in &self.out {
                sink.delivered(p);
            }
            self.refused += refused as u64;
            delivered += self.out.len() as u64;
        }
        self.offered += (CYCLE * UNIT_CYCLES) as u64;
        self.delivered += delivered;
        delivered
    }
}

/// Ring capacity of the `engine_sync` workload. The engine refuses an
/// arrival once a shard's *pending* count (ring residue plus queued)
/// reaches this. A shard never holds more than its flows' whole
/// population — about 8192 preloaded plus 4096 in flight — so nothing
/// is refused; the default of 4096 would refuse half the preload.
pub const ENGINE_RING: usize = 16_384;
/// Shards of the `engine_sync` workload.
pub const ENGINE_SHARDS: usize = 4;
/// Drain batch of the `engine_sync` workload.
pub const ENGINE_BATCH: usize = 32;

/// Set-up of `sched_hot` / `sched_scale`: a bare `SfqFast` with every
/// flow registered and preloaded.
pub fn build_sched(inputs: &ClosedInputs) -> Closed<SchedLoop<SfqFast>> {
    let mut s = SfqFast::new();
    for f in 0..inputs.flows {
        s.add_flow(FlowId(f), weight(f));
    }
    Closed::preloaded(SchedLoop(s), inputs)
}

/// Set-up of `engine_sync`: a 4-shard `SyncEngine` over `SfqFast`,
/// counter pages attached when `telemetry` (as deployed).
pub fn build_engine(inputs: &ClosedInputs, telemetry: bool) -> Closed<EngineLoop> {
    let cfg = EngineConfig::new(ENGINE_SHARDS)
        .batch(ENGINE_BATCH)
        .ring_capacity(ENGINE_RING);
    let mut engine = SyncEngine::new_fast(cfg);
    let hub = telemetry.then(|| engine.attach_telemetry());
    for f in 0..inputs.flows {
        engine
            .try_add_flow(FlowId(f), weight(f))
            .expect("weights are positive");
    }
    Closed::preloaded(EngineLoop { engine, hub }, inputs)
}
