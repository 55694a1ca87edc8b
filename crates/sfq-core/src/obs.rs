//! Scheduler observation hooks.
//!
//! Every scheduler in the workspace is generic over an observer type
//! `O: SchedObserver` (defaulting to [`NoopObserver`]) and calls into it
//! at each enqueue, dequeue, drop, and flow-membership change. The
//! no-op default is a zero-sized type whose empty inline methods
//! compile away entirely, so an uninstrumented scheduler pays nothing:
//! the benchmark's `sched_hot` and `sched_scale` workloads
//! (`BENCHMARK.json`) time exactly this configuration, `SfqFast::new()`
//! behind `dyn Scheduler`.
//!
//! Observer *implementations* (ring tracer, per-flow metrics, counting)
//! live in the `sfq-obs` crate; only the vocabulary lives here so that
//! scheduler crates need no dependency on the instrumentation layer.

use crate::packet::FlowId;
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One scheduler event, in the paper's notation: the packet's start tag
/// `S(p_f^j)` (Eq. 4), finish tag `F(p_f^j)` (Eq. 5 / Eq. 36), and the
/// server virtual time `v(t)` at the instant the event fired.
///
/// Disciplines without tag arithmetic (DRR, FIFO) report
/// [`Ratio::ZERO`] tags; Virtual Clock reports its real-time stamp as
/// the finish tag. Drops reported by `netsim` switches carry zero tags:
/// the packet was refused before the scheduler ever saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedEvent {
    /// Wall-clock (simulation) time of the event.
    pub time: SimTime,
    /// The packet's flow.
    pub flow: FlowId,
    /// The packet's unique id.
    pub uid: u64,
    /// The packet's length.
    pub len: Bytes,
    /// Start tag `S(p)` assigned to the packet (zero where the
    /// discipline has no such notion).
    pub start_tag: Ratio,
    /// Finish tag `F(p)` assigned to the packet (zero where the
    /// discipline has no such notion).
    pub finish_tag: Ratio,
    /// Server virtual time `v(t)` at the event (zero for disciplines
    /// without a virtual clock).
    pub v: Ratio,
}

/// A change to the scheduler's flow set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowChange {
    /// The flow was registered (or re-registered with a new weight).
    Added {
        /// The weight the flow was registered with.
        weight: Rate,
    },
    /// The flow was removed while idle (`Scheduler::remove_flow`).
    Removed,
    /// The flow was force-removed along with its backlog.
    ForceRemoved {
        /// Queued packets discarded by the removal.
        dropped: usize,
    },
}

/// Buffer-pressure signal from a switch port (see `netsim`): emitted
/// when a flow's backlog first reaches its buffer cap (`Engage`) and
/// when it next drains back below it (`Release`). Sources, admission
/// controllers, or telemetry can react; the schedulers themselves
/// never emit this — only switch admission does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// The flow's buffer filled: arrivals are being shed.
    Engage,
    /// The flow's backlog drained below its cap: admission resumed.
    Release,
}

/// Observation hooks called by schedulers. All methods default to
/// no-ops so implementors override only what they need.
pub trait SchedObserver {
    /// Whether this observer does anything at all. The tag-scheduler
    /// core (`TagSched`, all four aliases) consults this to skip
    /// constructing [`SchedEvent`]s entirely when the observer is a
    /// no-op: under the fixed-point arithmetic event construction
    /// converts u64 tags to exact [`Ratio`]s, which is a non-inlined
    /// gcd call the optimizer cannot always remove on its own. Defaults
    /// to `true`; only [`NoopObserver`] (and wrappers around it) report
    /// `false`. Under monomorphization the call folds
    /// to a constant, so guarding with `if self.obs.active()` costs
    /// nothing; it is a method rather than an associated const so the
    /// trait stays usable as `dyn SchedObserver`. A performance hint,
    /// never a correctness switch: returning `true` from a no-op
    /// observer is always sound.
    #[inline(always)]
    fn active(&self) -> bool {
        true
    }

    /// A packet was accepted and tagged.
    #[inline(always)]
    fn on_enqueue(&mut self, _ev: &SchedEvent) {}

    /// A packet was selected for service.
    #[inline(always)]
    fn on_dequeue(&mut self, _ev: &SchedEvent) {}

    /// A packet was refused or discarded (buffer overflow at a switch
    /// port, or backlog discarded by a force-removal).
    #[inline(always)]
    fn on_drop(&mut self, _ev: &SchedEvent) {}

    /// The flow set changed.
    #[inline(always)]
    fn on_flow_change(&mut self, _flow: FlowId, _change: &FlowChange) {}

    /// A switch port's buffer pressure changed for `flow` (never called
    /// by bare disciplines; see [`Backpressure`]).
    #[inline(always)]
    fn on_backpressure(&mut self, _time: SimTime, _flow: FlowId, _state: Backpressure) {}
}

/// The do-nothing observer every scheduler defaults to. Zero-sized;
/// all hook calls inline to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SchedObserver for NoopObserver {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }
}

/// A shared observer: lets the caller keep a handle on the observer
/// after the scheduler has been boxed as `dyn Scheduler` (the pattern
/// `netsim` and the `obs_trace` bin use).
impl<O: SchedObserver> SchedObserver for Rc<RefCell<O>> {
    #[inline(always)]
    fn active(&self) -> bool {
        self.borrow().active()
    }
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        self.borrow_mut().on_enqueue(ev);
    }
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        self.borrow_mut().on_dequeue(ev);
    }
    fn on_drop(&mut self, ev: &SchedEvent) {
        self.borrow_mut().on_drop(ev);
    }
    fn on_flow_change(&mut self, flow: FlowId, change: &FlowChange) {
        self.borrow_mut().on_flow_change(flow, change);
    }
    fn on_backpressure(&mut self, time: SimTime, flow: FlowId, state: Backpressure) {
        self.borrow_mut().on_backpressure(time, flow, state);
    }
}

/// Boxed observers forward to their contents (used by `netsim`
/// switches, which hold `Box<dyn SchedObserver>` drop hooks).
impl<O: SchedObserver + ?Sized> SchedObserver for Box<O> {
    #[inline(always)]
    fn active(&self) -> bool {
        (**self).active()
    }
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        (**self).on_enqueue(ev);
    }
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        (**self).on_dequeue(ev);
    }
    fn on_drop(&mut self, ev: &SchedEvent) {
        (**self).on_drop(ev);
    }
    fn on_flow_change(&mut self, flow: FlowId, change: &FlowChange) {
        (**self).on_flow_change(flow, change);
    }
    fn on_backpressure(&mut self, time: SimTime, flow: FlowId, state: Backpressure) {
        (**self).on_backpressure(time, flow, state);
    }
}

/// Pair fan-out: drive two observers from one scheduler (e.g. a ring
/// tracer and a metrics accumulator side by side).
impl<A: SchedObserver, B: SchedObserver> SchedObserver for (A, B) {
    #[inline(always)]
    fn active(&self) -> bool {
        self.0.active() || self.1.active()
    }
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        self.0.on_enqueue(ev);
        self.1.on_enqueue(ev);
    }
    fn on_dequeue(&mut self, ev: &SchedEvent) {
        self.0.on_dequeue(ev);
        self.1.on_dequeue(ev);
    }
    fn on_drop(&mut self, ev: &SchedEvent) {
        self.0.on_drop(ev);
        self.1.on_drop(ev);
    }
    fn on_flow_change(&mut self, flow: FlowId, change: &FlowChange) {
        self.0.on_flow_change(flow, change);
        self.1.on_flow_change(flow, change);
    }
    fn on_backpressure(&mut self, time: SimTime, flow: FlowId, state: Backpressure) {
        self.0.on_backpressure(time, flow, state);
        self.1.on_backpressure(time, flow, state);
    }
}
