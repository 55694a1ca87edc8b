//! Per-flow rolling metrics.

use jsonline::{impl_to_json, ToJson};
use sfq_core::obs::{FlowChange, SchedEvent, SchedObserver};
use sfq_core::FlowId;
use simtime::{Rate, Ratio, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Rolling counters for one flow.
#[derive(Debug, Default)]
pub struct FlowStats {
    /// Weight the flow was registered with (from the flow-added event).
    pub weight: Option<Rate>,
    /// Packets accepted by the scheduler.
    pub arrived_pkts: u64,
    /// Bytes accepted by the scheduler.
    pub arrived_bytes: u64,
    /// Packets served.
    pub served_pkts: u64,
    /// Bytes served — the paper's cumulative service `W_f`.
    pub served_bytes: u64,
    /// Packets refused (switch drops) or discarded (force-removal).
    pub dropped_pkts: u64,
    /// Packets currently queued.
    pub backlog_pkts: u64,
    /// Bytes currently queued.
    pub backlog_bytes: u64,
    /// Sojourn time of the most recently served packet, seconds — the
    /// wait its flow's head-of-line endured from arrival to service.
    pub last_hol_wait_s: f64,
    /// Worst sojourn time seen, seconds.
    pub max_hol_wait_s: f64,
    /// Exact `W_f / r_f`: the sum of `l/r` spans of served packets.
    norm_service: Ratio,
    /// Arrival times of queued packets, in service order.
    pending: VecDeque<(u64, SimTime)>,
}

impl FlowStats {
    /// Exact normalized service `W_f / r_f` (in seconds of reserved
    /// rate) delivered so far — the quantity Theorem 1 bounds pairwise.
    pub fn normalized_service(&self) -> Ratio {
        self.norm_service
    }

    /// True while the flow has packets queued.
    pub fn is_backlogged(&self) -> bool {
        self.backlog_pkts > 0
    }
}

/// One flow's metrics row in the JSON summary.
#[derive(Debug)]
struct SummaryRow {
    flow: u32,
    weight_bps: Option<u64>,
    arrived_pkts: u64,
    arrived_bytes: u64,
    served_pkts: u64,
    served_bytes: u64,
    dropped_pkts: u64,
    backlog_pkts: u64,
    backlog_bytes: u64,
    norm_service: f64,
    norm_service_exact: String,
    last_hol_wait_s: f64,
    max_hol_wait_s: f64,
}

impl_to_json!(SummaryRow {
    flow,
    weight_bps,
    arrived_pkts,
    arrived_bytes,
    served_pkts,
    served_bytes,
    dropped_pkts,
    backlog_pkts,
    backlog_bytes,
    norm_service,
    norm_service_exact,
    last_hol_wait_s,
    max_hol_wait_s,
});

/// Per-flow metrics accumulator with exact normalized-service lag
/// tracking between backlogged flows.
///
/// The lag watermarks implement the measurement side of Theorem 1: for
/// every pair of flows `(f, m)`, while **both** stay backlogged the
/// observer extends a watermark over `d(t) = W_f(t)/r_f − W_m(t)/r_m`;
/// the segment's spread `max d − min d` is exactly
/// `|W_f(t1,t2)/r_f − W_m(t1,t2)/r_m|` maximized over all sub-intervals
/// `[t1, t2]` of the backlogged segment, the left side of Eq. (Theorem
/// 1). The moment either flow goes idle the segment ends (the event
/// that emptied the queue still counts) and a fresh watermark starts
/// when both are next backlogged. Pair tracking is `O(B²)` per event in
/// backlogged flows; disable it with
/// [`FlowMetrics::without_pair_tracking`] for wide traces.
#[derive(Debug, Default)]
pub struct FlowMetrics {
    flows: BTreeMap<u32, FlowStats>,
    track_pairs: bool,
    /// Watermarks `(min d, max d)` for currently both-backlogged pairs,
    /// keyed `(a, b)` with `a < b` and `d = norm_a − norm_b`.
    live_pairs: BTreeMap<(u32, u32), (Ratio, Ratio)>,
    /// Worst completed-or-live segment spread per pair.
    worst: BTreeMap<(u32, u32), Ratio>,
}

impl FlowMetrics {
    /// Metrics with pairwise lag tracking on.
    pub fn new() -> Self {
        FlowMetrics {
            track_pairs: true,
            ..Default::default()
        }
    }

    /// Metrics without the `O(B²)` pairwise lag watermarks (counters
    /// and per-flow normalized service still accumulate).
    pub fn without_pair_tracking() -> Self {
        FlowMetrics::default()
    }

    /// Counters for one flow.
    pub fn stats(&self, flow: FlowId) -> Option<&FlowStats> {
        self.flows.get(&flow.0)
    }

    /// All flows seen, ascending by id.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &FlowStats)> {
        self.flows.iter().map(|(&id, s)| (FlowId(id), s))
    }

    /// Exact normalized service `W_f / r_f` of a flow.
    pub fn normalized_service(&self, flow: FlowId) -> Option<Ratio> {
        self.flows.get(&flow.0).map(|s| s.norm_service)
    }

    /// Flows currently backlogged, ascending by id.
    pub fn backlogged_flows(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, s)| s.is_backlogged())
            .map(|(&id, _)| FlowId(id))
            .collect()
    }

    /// Worst normalized-service spread observed for the pair over any
    /// interval in which both flows stayed backlogged — the measured
    /// left side of Theorem 1, maximized over intervals. `None` if the
    /// pair was never simultaneously backlogged (or tracking is off).
    pub fn worst_spread_between(&self, f: FlowId, m: FlowId) -> Option<Ratio> {
        let key = pair_key(f.0, m.0);
        let completed = self.worst.get(&key).copied();
        let live = self
            .live_pairs
            .get(&key)
            .map(|&(min_d, max_d)| max_d - min_d);
        match (completed, live) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Worst spread over all tracked pairs (zero if none).
    pub fn worst_spread(&self) -> Ratio {
        let mut w = Ratio::ZERO;
        for &(a, b) in self.worst.keys().chain(self.live_pairs.keys()) {
            if let Some(s) = self.worst_spread_between(FlowId(a), FlowId(b)) {
                w = w.max(s);
            }
        }
        w
    }

    /// Per-flow summary as JSON lines (one object per flow, ascending
    /// flow id), via `crates/jsonline`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (&id, s) in &self.flows {
            let row = SummaryRow {
                flow: id,
                weight_bps: s.weight.map(|w| w.as_bps()),
                arrived_pkts: s.arrived_pkts,
                arrived_bytes: s.arrived_bytes,
                served_pkts: s.served_pkts,
                served_bytes: s.served_bytes,
                dropped_pkts: s.dropped_pkts,
                backlog_pkts: s.backlog_pkts,
                backlog_bytes: s.backlog_bytes,
                norm_service: s.norm_service.to_f64(),
                norm_service_exact: s.norm_service.to_string(),
                last_hol_wait_s: s.last_hol_wait_s,
                max_hol_wait_s: s.max_hol_wait_s,
            };
            row.push_json(&mut out);
            out.push('\n');
        }
        out
    }

    fn entry(&mut self, flow: FlowId) -> &mut FlowStats {
        self.flows.entry(flow.0).or_default()
    }

    /// Normalized span `l/r` of a served/queued packet: prefer the
    /// registered weight; fall back to the event's own tag span (exact
    /// for every tag-computing discipline), else zero (DRR/FIFO with no
    /// flow-added event seen).
    fn span_of(&self, ev: &SchedEvent) -> Ratio {
        if let Some(w) = self.flows.get(&ev.flow.0).and_then(|s| s.weight) {
            return w.tag_span(ev.len);
        }
        ev.finish_tag - ev.start_tag
    }

    /// Advance the pairwise watermarks after any state change. Existing
    /// segments are extended first (so the event that empties a queue
    /// still contributes its final point), then ended segments retire
    /// into `worst` and newly both-backlogged pairs open fresh ones.
    fn refresh_pairs(&mut self) {
        if !self.track_pairs {
            return;
        }
        let mut retired = Vec::new();
        for (&(a, b), wm) in self.live_pairs.iter_mut() {
            let (Some(sa), Some(sb)) = (self.flows.get(&a), self.flows.get(&b)) else {
                retired.push((a, b));
                continue;
            };
            let d = sa.norm_service - sb.norm_service;
            wm.0 = wm.0.min(d);
            wm.1 = wm.1.max(d);
            if !(sa.is_backlogged() && sb.is_backlogged()) {
                retired.push((a, b));
            }
        }
        for key in retired {
            if let Some((min_d, max_d)) = self.live_pairs.remove(&key) {
                let spread = max_d - min_d;
                let w = self.worst.entry(key).or_insert(Ratio::ZERO);
                *w = (*w).max(spread);
            }
        }
        let backlogged: Vec<(u32, Ratio)> = self
            .flows
            .iter()
            .filter(|(_, s)| s.is_backlogged())
            .map(|(&id, s)| (id, s.norm_service))
            .collect();
        for i in 0..backlogged.len() {
            for j in (i + 1)..backlogged.len() {
                let key = (backlogged[i].0, backlogged[j].0);
                let d = backlogged[i].1 - backlogged[j].1;
                self.live_pairs.entry(key).or_insert((d, d));
            }
        }
    }
}

fn pair_key(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl SchedObserver for FlowMetrics {
    fn on_enqueue(&mut self, ev: &SchedEvent) {
        let s = self.entry(ev.flow);
        s.arrived_pkts += 1;
        s.arrived_bytes += ev.len.as_u64();
        s.backlog_pkts += 1;
        s.backlog_bytes += ev.len.as_u64();
        s.pending.push_back((ev.uid, ev.time));
        self.refresh_pairs();
    }

    fn on_dequeue(&mut self, ev: &SchedEvent) {
        let span = self.span_of(ev);
        let s = self.entry(ev.flow);
        s.served_pkts += 1;
        s.served_bytes += ev.len.as_u64();
        s.backlog_pkts = s.backlog_pkts.saturating_sub(1);
        s.backlog_bytes = s.backlog_bytes.saturating_sub(ev.len.as_u64());
        s.norm_service += span;
        // Per-flow service is FIFO in every discipline here, so the
        // served packet is its flow's pending front; search defensively
        // anyway.
        let enq_time = if s.pending.front().map(|&(uid, _)| uid) == Some(ev.uid) {
            s.pending.pop_front().map(|(_, t)| t)
        } else if let Some(pos) = s.pending.iter().position(|&(uid, _)| uid == ev.uid) {
            s.pending.remove(pos).map(|(_, t)| t)
        } else {
            None
        };
        if let Some(t) = enq_time {
            let wait = (ev.time.as_secs_f64() - t.as_secs_f64()).max(0.0);
            s.last_hol_wait_s = wait;
            if wait > s.max_hol_wait_s {
                s.max_hol_wait_s = wait;
            }
        }
        self.refresh_pairs();
    }

    fn on_drop(&mut self, ev: &SchedEvent) {
        let s = self.entry(ev.flow);
        s.dropped_pkts += 1;
        self.refresh_pairs();
    }

    fn on_flow_change(&mut self, flow: FlowId, change: &FlowChange) {
        match change {
            FlowChange::Added { weight } => {
                self.entry(flow).weight = Some(*weight);
            }
            FlowChange::Removed => {
                // Idle removal: counters are kept (the flow's history
                // remains queryable), backlog is already zero.
            }
            FlowChange::ForceRemoved { dropped } => {
                let s = self.entry(flow);
                s.dropped_pkts += *dropped as u64;
                s.backlog_pkts = 0;
                s.backlog_bytes = 0;
                s.pending.clear();
            }
        }
        self.refresh_pairs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Bytes;

    fn ev(flow: u32, uid: u64, len: u64, t: SimTime) -> SchedEvent {
        SchedEvent {
            time: t,
            flow: FlowId(flow),
            uid,
            len: Bytes::new(len),
            start_tag: Ratio::ZERO,
            finish_tag: Ratio::ZERO,
            v: Ratio::ZERO,
        }
    }

    #[test]
    fn counters_and_normalized_service() {
        let mut m = FlowMetrics::new();
        m.on_flow_change(
            FlowId(1),
            &FlowChange::Added {
                weight: Rate::bps(1_000),
            },
        );
        let t0 = SimTime::ZERO;
        m.on_enqueue(&ev(1, 1, 125, t0));
        m.on_enqueue(&ev(1, 2, 125, t0));
        let s = m.stats(FlowId(1)).unwrap();
        assert_eq!(
            (s.arrived_pkts, s.backlog_pkts, s.backlog_bytes),
            (2, 2, 250)
        );
        m.on_dequeue(&ev(1, 1, 125, SimTime::from_secs(1)));
        let s = m.stats(FlowId(1)).unwrap();
        assert_eq!((s.served_pkts, s.served_bytes, s.backlog_pkts), (1, 125, 1));
        // 125 B at 1000 b/s = 1 s of reserved rate.
        assert_eq!(s.normalized_service(), Ratio::ONE);
        assert_eq!(s.last_hol_wait_s, 1.0);
    }

    #[test]
    fn pairwise_spread_tracks_backlogged_intervals() {
        let mut m = FlowMetrics::new();
        for f in [1, 2] {
            m.on_flow_change(
                FlowId(f),
                &FlowChange::Added {
                    weight: Rate::bps(1_000),
                },
            );
        }
        let t0 = SimTime::ZERO;
        m.on_enqueue(&ev(1, 1, 125, t0));
        m.on_enqueue(&ev(1, 2, 125, t0));
        m.on_enqueue(&ev(2, 3, 125, t0));
        m.on_enqueue(&ev(2, 4, 125, t0));
        // Serve two of flow 1 in a row: lag builds to 2, then flow 2
        // catches up.
        m.on_dequeue(&ev(1, 1, 125, t0));
        m.on_dequeue(&ev(1, 2, 125, t0));
        // Flow 1 just went idle: the segment ended with spread 2.
        m.on_dequeue(&ev(2, 3, 125, t0));
        assert_eq!(
            m.worst_spread_between(FlowId(1), FlowId(2)),
            Some(Ratio::from_int(2))
        );
        // Not both backlogged any more: no live watermark grows.
        m.on_dequeue(&ev(2, 4, 125, t0));
        assert_eq!(
            m.worst_spread_between(FlowId(1), FlowId(2)),
            Some(Ratio::from_int(2))
        );
    }

    #[test]
    fn force_remove_clears_backlog_and_counts_drops() {
        let mut m = FlowMetrics::new();
        m.on_flow_change(
            FlowId(1),
            &FlowChange::Added {
                weight: Rate::bps(1_000),
            },
        );
        m.on_enqueue(&ev(1, 1, 100, SimTime::ZERO));
        m.on_enqueue(&ev(1, 2, 100, SimTime::ZERO));
        m.on_flow_change(FlowId(1), &FlowChange::ForceRemoved { dropped: 2 });
        let s = m.stats(FlowId(1)).unwrap();
        assert_eq!((s.dropped_pkts, s.backlog_pkts, s.backlog_bytes), (2, 0, 0));
    }

    #[test]
    fn jsonl_summary() {
        let mut m = FlowMetrics::new();
        m.on_flow_change(
            FlowId(1),
            &FlowChange::Added {
                weight: Rate::bps(1_000),
            },
        );
        m.on_enqueue(&ev(1, 1, 125, SimTime::ZERO));
        m.on_dequeue(&ev(1, 1, 125, SimTime::ZERO));
        let out = m.to_jsonl();
        assert!(out.contains(r#""flow":1"#));
        assert!(out.contains(r#""norm_service_exact":"1""#));
    }
}
