//! Spans recorded from the harness's own files, around the calls it
//! already makes into each layer. Nothing inside the program is
//! instrumented.
//!
//! The workload loops are generic over [`Tracer`]: with [`NoTrace`] the
//! calls compile away, so the untraced and the traced run execute the
//! same loop and differ only in the span bookkeeping — which is what
//! `harness.trace_overhead_pct` reports.

use crate::alloc::Counts;
use std::io::Write;
use std::time::Instant;

/// A layer boundary the harness can see. Names are module names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// One unit of fixed work: the root span of everything inside it.
    Unit,
    /// 64 `Scheduler::enqueue` calls on `SfqFast`.
    SfqFastEnqueue,
    /// 64 `Scheduler::dequeue` + `on_departure` calls on `SfqFast`.
    SfqFastDequeue,
    /// 64 `SyncEngine::try_ingest` calls.
    EngineIngest,
    /// One `SyncEngine::pump`.
    EnginePump,
    /// One `SyncEngine::drain` of 64 packets.
    EngineDrain,
    /// `GraphSpec::build_with` plus every `Graph::add_source`.
    GraphBuild,
    /// `Graph::run` to completion.
    GraphRun,
    /// Every `Scheduler` trait call a port made into its engine during
    /// one pass, accumulated (calls are far below a microsecond each).
    GraphPortSched,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 9;

    /// Module-style name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "harness.unit",
            Layer::SfqFastEnqueue => "core.sfq_fast.enqueue",
            Layer::SfqFastDequeue => "core.sfq_fast.dequeue",
            Layer::EngineIngest => "engine.sync.ingest",
            Layer::EnginePump => "engine.sync.pump",
            Layer::EngineDrain => "engine.sync.drain",
            Layer::GraphBuild => "graph.build",
            Layer::GraphRun => "graph.run",
            Layer::GraphPortSched => "graph.port.sched",
        }
    }
}

/// Span sink the workload loops call at each layer boundary.
pub trait Tracer {
    /// Timestamp opening a span (nanoseconds since the tracer's epoch).
    fn start(&mut self) -> u64;
    /// Close the span opened at `start`: it wrapped `calls` calls into
    /// `layer`.
    fn span(&mut self, layer: Layer, start: u64, calls: u32);
}

/// The untraced run: every call compiles to nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn start(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn span(&mut self, _layer: Layer, _start: u64, _calls: u32) {}
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span timed.
    pub layer: Layer,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the enclosing unit's span; `u32::MAX` for a unit.
    pub parent: u32,
    /// Ordinal of the unit the span belongs to.
    pub unit: u32,
    /// Calls into the layer the span wrapped.
    pub calls: u32,
    /// Time inside the layer: `end - start`, except for accumulated
    /// spans, whose calls are scattered over the interval.
    pub busy: u64,
}

/// Per-unit totals: what the per-layer rows are computed from.
#[derive(Clone, Copy, Debug)]
pub struct UnitRow {
    /// Wall time of the unit.
    pub ns: u64,
    /// Busy time per layer, indexed by `Layer as usize`.
    pub layer_ns: [u64; Layer::COUNT],
    /// Calls per layer.
    pub calls: [u32; Layer::COUNT],
    /// Heap allocations per layer.
    pub allocs: [u32; Layer::COUNT],
    /// Bytes those allocations asked for.
    pub alloc_bytes: [u64; Layer::COUNT],
}

/// Per-unit means over the fastest quartile of traced units.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuartileMeans {
    /// Unit wall time, ns.
    pub unit_ns: f64,
    /// Busy time per layer, ns.
    pub layer_ns: [f64; Layer::COUNT],
    /// Calls per layer.
    pub calls: [f64; Layer::COUNT],
    /// Heap allocations per layer.
    pub allocs: [f64; Layer::COUNT],
    /// Bytes allocated per layer.
    pub alloc_bytes: [f64; Layer::COUNT],
}

impl QuartileMeans {
    /// Busy time of `layer`, ns per unit.
    pub fn ns(&self, layer: Layer) -> f64 {
        self.layer_ns[layer as usize]
    }
}

/// The traced run's sink: keeps spans in memory, writes them at exit.
pub struct SpanLog {
    epoch: Instant,
    /// Spans of the first `keep_units` units (the file stays bounded).
    pub spans: Vec<Span>,
    keep_units: u32,
    /// One row per traced unit.
    pub units: Vec<UnitRow>,
    unit_span: u32,
    unit_start: u64,
    cur: UnitRow,
    /// Allocator counters at the last [`Tracer::start`]: layer spans
    /// are siblings, never nested, so one slot serves them all.
    at_start: Counts,
}

const EMPTY_ROW: UnitRow = UnitRow {
    ns: 0,
    layer_ns: [0; Layer::COUNT],
    calls: [0; Layer::COUNT],
    allocs: [0; Layer::COUNT],
    alloc_bytes: [0; Layer::COUNT],
};

impl SpanLog {
    /// Log keeping full spans for the first `keep_units` units and
    /// per-layer totals for up to `max_units`.
    pub fn new(keep_units: u32, spans_per_unit: usize, max_units: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(keep_units as usize * (spans_per_unit + 1)),
            keep_units,
            units: Vec::with_capacity(max_units),
            unit_span: u32::MAX,
            unit_start: 0,
            cur: EMPTY_ROW,
            at_start: Counts::default(),
        }
    }

    /// Whether another unit's row fits without growing the log.
    pub fn has_room(&self) -> bool {
        self.units.len() < self.units.capacity()
    }

    fn keeping(&self) -> bool {
        (self.units.len() as u32) < self.keep_units
    }

    /// Open the next unit's root span.
    pub fn begin_unit(&mut self) {
        self.cur = EMPTY_ROW;
        if self.keeping() {
            self.unit_span = self.spans.len() as u32;
            self.spans.push(Span {
                layer: Layer::Unit,
                start: 0,
                end: 0,
                parent: u32::MAX,
                unit: self.units.len() as u32,
                calls: 1,
                busy: 0,
            });
        }
        self.unit_start = self.now();
    }

    /// Close the unit opened by [`SpanLog::begin_unit`].
    pub fn end_unit(&mut self) {
        let end = self.now();
        self.cur.ns = end - self.unit_start;
        if self.keeping() {
            let root = &mut self.spans[self.unit_span as usize];
            root.start = self.unit_start;
            root.end = end;
            root.busy = self.cur.ns;
        }
        self.units.push(self.cur);
    }

    /// Record time accumulated over `calls` scattered calls into
    /// `layer` between `start` and now.
    pub fn accumulated(&mut self, layer: Layer, start: u64, busy: u64, calls: u32) {
        let end = self.now();
        self.push(layer, start, end, busy, calls, Counts::default());
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, start: u64, end: u64, busy: u64, calls: u32, heap: Counts) {
        self.cur.layer_ns[layer as usize] += busy;
        self.cur.calls[layer as usize] += calls;
        self.cur.allocs[layer as usize] += heap.calls as u32;
        self.cur.alloc_bytes[layer as usize] += heap.bytes;
        if self.keeping() {
            self.spans.push(Span {
                layer,
                start,
                end,
                parent: self.unit_span,
                unit: self.units.len() as u32,
                calls,
                busy,
            });
        }
    }

    /// Mean over the fastest quartile of traced units, so the layer
    /// rows add up to a unit total measured on the same units.
    pub fn fastest_quartile(&self) -> QuartileMeans {
        let mut order: Vec<&UnitRow> = self.units.iter().collect();
        order.sort_by_key(|u| u.ns);
        order.truncate((order.len() / 4).max(1));
        let n = order.len().max(1) as f64;
        let mut m = QuartileMeans::default();
        for u in order {
            m.unit_ns += u.ns as f64 / n;
            for l in 0..Layer::COUNT {
                m.layer_ns[l] += u.layer_ns[l] as f64 / n;
                m.calls[l] += u.calls[l] as f64 / n;
                m.allocs[l] += u.allocs[l] as f64 / n;
                m.alloc_bytes[l] += u.alloc_bytes[l] as f64 / n;
            }
        }
        m
    }

    /// Write the kept spans as JSON lines:
    /// `{layer, start, end, parent, unit, calls, busy}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"layer\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"unit\": {}, \"calls\": {}, \"busy\": {}}}",
                s.layer.name(),
                s.start,
                s.end,
                s.unit,
                s.calls,
                s.busy
            )?;
        }
        w.flush()
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn start(&mut self) -> u64 {
        self.at_start = Counts::now();
        self.now()
    }

    #[inline]
    fn span(&mut self, layer: Layer, start: u64, calls: u32) {
        let end = self.now();
        let heap = Counts::now().since(self.at_start);
        self.push(layer, start, end, end - start, calls, heap);
    }
}

/// Cost of one timestamp, nanoseconds: what a span adds twice.
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_add_up_and_only_early_units_keep_spans() {
        let mut log = SpanLog::new(1, 2, 4);
        for _ in 0..3 {
            log.begin_unit();
            let t = log.start();
            log.span(Layer::SfqFastEnqueue, t, 64);
            let t = log.start();
            log.span(Layer::SfqFastDequeue, t, 64);
            log.end_unit();
        }
        assert_eq!(log.units.len(), 3);
        // One root plus two children, for the first unit only.
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[1].parent, 0);
        for u in &log.units {
            let inside: u64 = u.layer_ns.iter().sum();
            assert!(inside <= u.ns);
            assert_eq!(u.calls[Layer::SfqFastEnqueue as usize], 64);
        }
        let m = log.fastest_quartile();
        assert!(m.ns(Layer::SfqFastEnqueue) + m.ns(Layer::SfqFastDequeue) <= m.unit_ns);
    }
}
