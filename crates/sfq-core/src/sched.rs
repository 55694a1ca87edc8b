//! The scheduling-discipline interface shared by SFQ and every baseline.
//!
//! A scheduler is a pure data structure driven by its server: the server
//! hands it arriving packets (`enqueue`), asks for the next packet to
//! transmit when the output becomes free (`dequeue`), and reports when a
//! transmission finishes (`on_departure`). The server — constant-rate,
//! Fluctuation Constrained, or EBF — owns all notion of *when* service
//! happens; the discipline only decides *order*. This mirrors the
//! paper's split between the scheduling algorithm and the (possibly
//! variable-rate) server it runs on.

use crate::packet::{FlowId, Packet};
use core::fmt;
use simtime::{Rate, SimTime};

/// Typed failure of a scheduler control-plane operation.
///
/// The fallible `try_*` methods on [`Scheduler`] return these instead of
/// panicking, so a switch under hostile or overloaded input can shed the
/// offending operation and keep serving every other flow. The panicking
/// methods remain as thin wrappers for callers that treat any of these
/// as a programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The packet's flow was never registered (or was removed).
    UnknownFlow(FlowId),
    /// A flow cannot be registered with a zero rate: tag spans divide
    /// by the weight (Eq. 5's `l / r_f`).
    ZeroWeight(FlowId),
    /// A buffer cap refused the packet (reported by `netsim` switch
    /// admission, never by the bare disciplines).
    BufferFull(FlowId),
    /// Tag arithmetic overflowed `i128` rational range. Virtual-time
    /// rebasing (see `docs/robustness.md`) keeps long-running schedulers
    /// away from this edge.
    TagOverflow,
    /// The discipline does not implement the requested reconfiguration
    /// (e.g. [`Scheduler::try_set_weight`] on a baseline without live
    /// weight support). The scheduler state is untouched.
    Unsupported,
    /// An engine-level command named a shard index that does not exist.
    UnknownShard(usize),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::UnknownFlow(flow) => write!(f, "unregistered flow {flow}"),
            SchedError::ZeroWeight(flow) => write!(f, "flow {flow} has zero weight"),
            SchedError::BufferFull(flow) => write!(f, "buffer full for flow {flow}"),
            SchedError::TagOverflow => write!(f, "tag arithmetic overflow"),
            SchedError::Unsupported => write!(f, "reconfiguration not supported"),
            SchedError::UnknownShard(s) => write!(f, "no shard {s}"),
        }
    }
}

/// One live-reconfiguration command of the typed control plane.
///
/// Commands flow through [`Scheduler::try_reconfig`] — on a bare
/// discipline they apply directly; on an engine driver they are routed
/// through the per-shard command channels, so a reconfiguration is
/// ordered with respect to packet ingest exactly like an `add_flow`
/// (see `docs/robustness.md` for the reconvergence argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigCmd {
    /// Change a live flow's weight, rewriting the tags of its queued
    /// backlog under the documented tag-rewrite rule: the backlogged
    /// head keeps its tags, subsequent queued packets are re-chained at
    /// the new rate. Equivalent to [`Scheduler::try_set_weight`].
    SetWeight(FlowId, Rate),
    /// Change the rate charged to *subsequently arriving* packets of
    /// the flow, leaving already-queued tags untouched — the lazy
    /// variant, identical to re-registering via `add_flow`.
    SetRate(FlowId, Rate),
    /// Register a new flow (or update an existing one), as
    /// [`Scheduler::try_add_flow`].
    AddFlow(FlowId, Rate),
    /// Remove an idle flow, releasing its state; refused with
    /// [`SchedError::UnknownFlow`] if unknown or still backlogged.
    RemoveFlow(FlowId),
    /// Override one shard's aggregate weight at an engine's root
    /// arbiter (`None` restores the sum-of-flow-weights default). Only
    /// engine drivers accept this; bare disciplines refuse with
    /// [`SchedError::Unsupported`].
    SetShardWeight(usize, Option<Rate>),
}

impl std::error::Error for SchedError {}

/// A work-conserving packet scheduling discipline.
pub trait Scheduler {
    /// Register a flow and its weight/rate `r_f` before any of its
    /// packets arrive. Re-registering an existing flow updates the
    /// weight for subsequently arriving packets.
    fn add_flow(&mut self, flow: FlowId, weight: Rate);

    /// A packet arrives at this server at time `now` (== `pkt.arrival`).
    ///
    /// Panics if the packet's flow was never registered.
    fn enqueue(&mut self, now: SimTime, pkt: Packet);

    /// Select the next packet to begin service at time `now`, or `None`
    /// if no packet is queued. Work conservation: must return `Some`
    /// whenever `!self.is_empty()`.
    fn dequeue(&mut self, now: SimTime) -> Option<Packet>;

    /// Fallible flow registration: [`SchedError::ZeroWeight`] instead of
    /// the `add_flow` assertion. Like `add_flow`, re-registration is a
    /// weight update.
    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        if weight.as_bps() == 0 {
            return Err(SchedError::ZeroWeight(flow));
        }
        self.add_flow(flow, weight);
        Ok(())
    }

    /// Fallible enqueue: [`SchedError::UnknownFlow`] for an unregistered
    /// flow and [`SchedError::TagOverflow`] when tag arithmetic would
    /// leave `i128` rational range, leaving the scheduler state
    /// untouched in both cases. The default delegates to the panicking
    /// [`Scheduler::enqueue`] for disciplines not yet hardened.
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.enqueue(now, pkt);
        Ok(())
    }

    /// Enqueue a batch of packets arriving at `now`, in slice order.
    ///
    /// Semantically identical — bit for bit, including observer events
    /// — to calling [`Scheduler::enqueue`] once per packet; the default
    /// does exactly that. Disciplines override it to amortize work that
    /// is constant across a pure-enqueue run (the virtual time `v(t)`
    /// changes only at dequeues, so one read serves the whole batch) —
    /// see `Sfq`/`Scfq`. Panics like `enqueue` on the first bad packet;
    /// packets before it are already queued.
    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) {
        for &pkt in pkts {
            self.enqueue(now, pkt);
        }
    }

    /// Fallible [`Scheduler::enqueue_batch`]: stops at the first error,
    /// returning it; packets admitted before the failing one stay
    /// queued (the failing packet itself leaves no state behind, per
    /// [`Scheduler::try_enqueue`]).
    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        for &pkt in pkts {
            self.try_enqueue(now, pkt)?;
        }
        Ok(())
    }

    /// Dequeue up to `max` packets at `now`, each transmission treated
    /// as completing instantaneously (the batch-drain model: a drainer
    /// pulls a burst and relays it downstream). Appends to `out` and
    /// returns the number drained.
    ///
    /// Semantically identical — bit for bit, including observer events
    /// and busy-period bookkeeping — to `max` iterations of
    /// `{ dequeue(now); on_departure(now) }` stopping when the queue
    /// empties; the default is exactly that loop. Disciplines override
    /// it to avoid heap churn when one flow holds several consecutive
    /// global minima (see `FlowFifos::pop_min_batch`).
    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        let mut n = 0;
        while n < max {
            let Some(pkt) = self.dequeue(now) else {
                break;
            };
            self.on_departure(now);
            out.push(pkt);
            n += 1;
        }
        n
    }

    /// Fallible dequeue. A bare discipline only compares existing tags
    /// and cannot fail; the default never does. The sharded engine's
    /// facade can: it reports its root arbiter's
    /// [`SchedError::TagOverflow`] here, where `dequeue` panics.
    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        Ok(self.dequeue(now))
    }

    /// The transmission started by the last `dequeue` completed at
    /// `now`. Disciplines that track busy periods (e.g. SFQ's rule for
    /// resetting virtual time) hook this; the default is a no-op.
    fn on_departure(&mut self, _now: SimTime) {}

    /// `true` if no packets are queued (a packet in service does not
    /// count — it has already been handed to the server).
    fn is_empty(&self) -> bool;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// Number of queued packets belonging to `flow`.
    fn backlog(&self, flow: FlowId) -> usize;

    /// Remove an idle flow (no queued packets), releasing its state.
    /// Returns `false` if the flow is unknown, still backlogged, or the
    /// discipline does not support removal. Per-flow tag state is
    /// discarded: if the flow later re-registers it starts fresh, like
    /// a brand-new flow.
    fn remove_flow(&mut self, _flow: FlowId) -> bool {
        false
    }

    /// Remove a flow and discard its backlog immediately, without the
    /// idle-only guard of [`Scheduler::remove_flow`] — the "flow churn"
    /// fault of the conformance harness. Returns the number of queued
    /// packets discarded. Disciplines without support ignore the
    /// request and return 0 (the flow stays registered); a removed
    /// flow must be re-registered with `add_flow` before any further
    /// packets of it are enqueued.
    fn force_remove_flow(&mut self, _flow: FlowId) -> usize {
        0
    }

    /// Change `flow`'s weight *live*, rewriting the tags of its queued
    /// backlog under the **tag-rewrite rule** (`docs/robustness.md`):
    ///
    /// - the backlogged **head keeps its start and finish tags** — its
    ///   virtual-time position was earned under the old rate and the
    ///   heap entry that orders it stays valid untouched;
    /// - every subsequent queued packet `j` is re-chained as
    ///   `S_j := F_{j-1}`, `F_j := S_j + l_j / r_new` (for a backlogged
    ///   flow every non-head packet satisfies `S_j = F_{j-1}` exactly,
    ///   so the chain rule preserves Eq. 4's max with `v` implicitly);
    /// - packets arriving after the call are charged at `r_new` from
    ///   the flow's new last finish tag.
    ///
    /// A no-op reconfiguration (`r_new` equal to the current weight)
    /// therefore reproduces every tag bit-for-bit. Errors:
    /// [`SchedError::UnknownFlow`], [`SchedError::ZeroWeight`],
    /// [`SchedError::TagOverflow`] (state untouched), and
    /// [`SchedError::Unsupported`] from the default for disciplines
    /// without live weight support.
    fn try_set_weight(&mut self, _flow: FlowId, _weight: Rate) -> Result<(), SchedError> {
        Err(SchedError::Unsupported)
    }

    /// Apply one typed [`ReconfigCmd`]. The default routes the
    /// flow-level commands to the corresponding trait methods and
    /// refuses [`ReconfigCmd::SetShardWeight`] (an engine-only
    /// command) with [`SchedError::Unsupported`]; the engine overrides
    /// the routing to reach its shards and its root arbiter.
    fn try_reconfig(&mut self, cmd: ReconfigCmd) -> Result<(), SchedError> {
        match cmd {
            ReconfigCmd::SetWeight(flow, weight) => self.try_set_weight(flow, weight),
            ReconfigCmd::SetRate(flow, weight) | ReconfigCmd::AddFlow(flow, weight) => {
                self.try_add_flow(flow, weight)
            }
            ReconfigCmd::RemoveFlow(flow) => {
                if self.remove_flow(flow) {
                    Ok(())
                } else {
                    Err(SchedError::UnknownFlow(flow))
                }
            }
            ReconfigCmd::SetShardWeight(..) => Err(SchedError::Unsupported),
        }
    }

    /// Discard `flow`'s head-of-line queued packet, returning it —
    /// overload shedding for the head-drop buffer policy, which evicts
    /// the oldest queued packet to make room for an arrival. The flow's
    /// tag chain is left intact (the dropped packet's virtual-time span
    /// stays charged to the flow, so fairness accounting is
    /// unaffected). Default: `None` — the discipline does not support
    /// eviction and callers fall back to refusing the arrival instead.
    fn drop_head(&mut self, _flow: FlowId) -> Option<Packet> {
        None
    }

    /// Human-readable discipline name for reports.
    fn name(&self) -> &'static str;
}

/// Boxed schedulers forward every method to the inner discipline —
/// including the defaulted ones, so a `Box<dyn Scheduler>` (or a boxed
/// engine shard) keeps the inner type's overrides instead of falling
/// back to the trait defaults.
impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        (**self).add_flow(flow, weight)
    }
    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        (**self).enqueue(now, pkt)
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        (**self).dequeue(now)
    }
    fn try_add_flow(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        (**self).try_add_flow(flow, weight)
    }
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        (**self).try_enqueue(now, pkt)
    }
    fn enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) {
        (**self).enqueue_batch(now, pkts)
    }
    fn try_enqueue_batch(&mut self, now: SimTime, pkts: &[Packet]) -> Result<(), SchedError> {
        (**self).try_enqueue_batch(now, pkts)
    }
    fn dequeue_batch(&mut self, now: SimTime, max: usize, out: &mut Vec<Packet>) -> usize {
        (**self).dequeue_batch(now, max, out)
    }
    fn try_dequeue(&mut self, now: SimTime) -> Result<Option<Packet>, SchedError> {
        (**self).try_dequeue(now)
    }
    fn on_departure(&mut self, now: SimTime) {
        (**self).on_departure(now)
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn backlog(&self, flow: FlowId) -> usize {
        (**self).backlog(flow)
    }
    fn remove_flow(&mut self, flow: FlowId) -> bool {
        (**self).remove_flow(flow)
    }
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        (**self).force_remove_flow(flow)
    }
    fn try_set_weight(&mut self, flow: FlowId, weight: Rate) -> Result<(), SchedError> {
        (**self).try_set_weight(flow, weight)
    }
    fn try_reconfig(&mut self, cmd: ReconfigCmd) -> Result<(), SchedError> {
        (**self).try_reconfig(cmd)
    }
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        (**self).drop_head(flow)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Tie-breaking rule applied when two packets carry equal primary tags.
///
/// Theorems 4 and 5 hold under *any* tie-break; Section 2.3 notes a rule
/// may still be chosen to serve secondary goals, e.g. favouring
/// interactive low-throughput flows to reduce their average delay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// First-come-first-served among equal tags (by packet uid). The
    /// deterministic default.
    #[default]
    Fifo,
    /// Among equal tags, serve the flow with the smaller weight first
    /// (priority to low-throughput, typically interactive, flows).
    LowWeightFirst,
    /// Among equal tags, serve the flow with the larger weight first.
    HighWeightFirst,
}

impl TieBreak {
    /// Secondary sort key for a packet of weight `weight`; smaller keys
    /// are served first. `uid` always provides the final deterministic
    /// tertiary key.
    pub fn key(self, weight: Rate) -> i128 {
        match self {
            TieBreak::Fifo => 0,
            TieBreak::LowWeightFirst => weight.as_bps() as i128,
            TieBreak::HighWeightFirst => -(weight.as_bps() as i128),
        }
    }

    /// Narrow secondary sort key used by the fixed-point fast paths,
    /// which keep their heap keys at 64 bits. Saturates weights at
    /// `i64::MAX` bits/s (≈ 9.2 Eb/s): below that — i.e. every physical
    /// rate — the ordering is identical to [`TieBreak::key`]; at or
    /// above it, equally-saturated weights fall through to the uid
    /// tertiary key instead of ordering by weight.
    pub fn key64(self, weight: Rate) -> i64 {
        let w = i64::try_from(weight.as_bps()).unwrap_or(i64::MAX);
        match self {
            TieBreak::Fifo => 0,
            TieBreak::LowWeightFirst => w,
            TieBreak::HighWeightFirst => w.checked_neg().unwrap_or(i64::MIN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiebreak_keys_order_as_documented() {
        let lo = Rate::kbps(32);
        let hi = Rate::mbps(1);
        assert_eq!(TieBreak::Fifo.key(lo), TieBreak::Fifo.key(hi));
        assert!(TieBreak::LowWeightFirst.key(lo) < TieBreak::LowWeightFirst.key(hi));
        assert!(TieBreak::HighWeightFirst.key(hi) < TieBreak::HighWeightFirst.key(lo));
    }

    #[test]
    fn key64_orders_like_key_below_saturation() {
        let rates = [
            Rate::bps(0),
            Rate::kbps(32),
            Rate::mbps(1),
            Rate::gbps(400),
            Rate::bps(i64::MAX as u64),
        ];
        for tb in [
            TieBreak::Fifo,
            TieBreak::LowWeightFirst,
            TieBreak::HighWeightFirst,
        ] {
            for a in rates {
                for b in rates {
                    assert_eq!(
                        tb.key64(a).cmp(&tb.key64(b)),
                        tb.key(a).cmp(&tb.key(b)),
                        "{tb:?} {a} vs {b}"
                    );
                }
            }
        }
        // Beyond saturation both collapse to the same key (uid decides).
        let sat = Rate::bps(u64::MAX);
        assert_eq!(
            TieBreak::LowWeightFirst.key64(sat),
            TieBreak::LowWeightFirst.key64(Rate::bps(i64::MAX as u64))
        );
    }
}
