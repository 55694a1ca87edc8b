//! Pool accounting invariants (see `docs/pooling.md`): the slab
//! behind the pooled `FlowFifos` backend must account for every slot
//! at every step — `pkts_in_use` equals the scheduler's queued count
//! after **every** operation, every slot returns to the freelist after
//! a drain (no leaks, no double frees, to the limit of the
//! stale-entry churn paths: `force_remove_flow` mid-service,
//! head-drop eviction, revival after removal), exhaustion under a pool
//! cap is the typed [`SchedError::BufferFull`] with scheduler state
//! untouched — never a panic — and the path that refuses a packet for
//! `TagOverflow` does not strand a slot either (the capacity check
//! precedes tag arithmetic, so the refused packet was never
//! allocated).
//!
//! The `million_flow_churn_smoke` test (ignored by default; CI runs it
//! release-mode) drives 1M flows of churn through `SfqFast`, removing
//! each wave's flows once drained, and checks the three scale claims at
//! once: leak-free slots, a flow table that stays at one wave's slots
//! (not the 1M flows ever registered), and wall-clock / peak-RSS inside
//! the CI caps.

use proptest::prelude::*;
use sfq_repro::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
enum Op {
    Enq(usize, u64),
    Deq,
    DropHead(usize),
    ForceRemove(usize),
    Revive(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            (0usize..4, 64u64..1500).prop_map(|(f, l)| Op::Enq(f, l)),
            Just(Op::Deq),
            Just(Op::Deq),
            (0usize..4).prop_map(Op::DropHead),
            (0usize..4).prop_map(Op::ForceRemove),
            (0usize..4).prop_map(Op::Revive),
        ],
        1..250,
    )
}

/// Assert the slab's books balance against the scheduler's own count.
fn books_balance<S: Scheduler>(sched: &S, stats: &PoolStats) {
    assert_eq!(
        stats.pkts_in_use,
        sched.len(),
        "slab in_use diverged from scheduler len"
    );
    assert!(stats.pkts_in_use <= stats.pkts_hwm);
    assert!(stats.pkts_hwm <= stats.pkt_slots);
    assert!(stats.flows_live <= stats.flow_slots);
}

/// Drive a pooled scheduler through churn ops, checking the accounting
/// invariant after every operation and full return after the drain.
/// `stats` extracts `PoolStats` (inherent method, so passed per type).
fn churn_accounting<S: Scheduler>(mut sched: S, ops: &[Op], stats: impl Fn(&S) -> PoolStats) {
    let ws = [9_000u64, 17_000, 4_000, 29_000];
    let mut pf = PacketFactory::new();
    let now = SimTime::ZERO;
    for (i, &w) in ws.iter().enumerate() {
        sched.add_flow(FlowId(i as u32 + 1), Rate::bps(w));
    }
    for op in ops {
        match *op {
            Op::Enq(f, len) => {
                // Register-before-enqueue, so a force-removed flow
                // comes back with its next packet.
                sched.add_flow(FlowId(f as u32 + 1), Rate::bps(ws[f]));
                let pkt = pf.make(FlowId(f as u32 + 1), Bytes::new(len), now);
                let _ = sched.try_enqueue(now, pkt);
            }
            Op::Deq => {
                if sched.dequeue(now).is_some() {
                    sched.on_departure(now);
                }
            }
            Op::DropHead(f) => {
                let _ = sched.drop_head(FlowId(f as u32 + 1));
            }
            Op::ForceRemove(f) => {
                let _ = sched.force_remove_flow(FlowId(f as u32 + 1));
            }
            Op::Revive(f) => {
                sched.add_flow(FlowId(f as u32 + 1), Rate::bps(ws[f]));
            }
        }
        books_balance(&sched, &stats(&sched));
    }
    while sched.dequeue(now).is_some() {
        sched.on_departure(now);
        books_balance(&sched, &stats(&sched));
    }
    let s = stats(&sched);
    assert_eq!(s.pkts_in_use, 0, "slots leaked after full drain: {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sfq_pool_books_balance_under_churn(ops in ops()) {
        churn_accounting(Sfq::new(), &ops, |s| s.pool_stats());
    }

    #[test]
    fn sfq_fast_pool_books_balance_under_churn(ops in ops()) {
        churn_accounting(SfqFast::new(), &ops, |s| s.pool_stats());
    }

    #[test]
    fn scfq_pool_books_balance_under_churn(ops in ops()) {
        churn_accounting(Scfq::new(), &ops, |s| s.pool_stats());
    }

    #[test]
    fn scfq_fast_pool_books_balance_under_churn(ops in ops()) {
        churn_accounting(ScfqFast::new(), &ops, |s| s.pool_stats());
    }
}

/// A capped pool refuses with the typed error, leaves every count
/// unchanged, and recovers fully once slots free up.
#[test]
fn pool_exhaustion_is_typed_and_recoverable() {
    let mut s = Sfq::new();
    s.set_pool_limit(Some(3));
    s.add_flow(FlowId(1), Rate::bps(8_000));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for _ in 0..3 {
        s.try_enqueue(t0, pf.make(FlowId(1), Bytes::new(100), t0))
            .expect("under the cap");
    }
    let before = s.pool_stats();
    let lf_before = s.flow_last_finish(FlowId(1));
    let refused = pf.make(FlowId(1), Bytes::new(100), t0);
    assert_eq!(
        s.try_enqueue(t0, refused),
        Err(SchedError::BufferFull(FlowId(1))),
        "exhaustion must be the typed error, not a panic"
    );
    // No state change on refusal: counts, slab books, and the flow's
    // tag recurrence are all exactly as before.
    assert_eq!(s.len(), 3);
    assert_eq!(s.flow_last_finish(FlowId(1)), lf_before);
    let after = s.pool_stats();
    assert_eq!(after.pkts_in_use, before.pkts_in_use);
    assert_eq!(after.pkt_slots, before.pkt_slots);
    // Drain one, and the same arrival is admitted into the freed slot.
    assert!(s.dequeue(t0).is_some());
    s.on_departure(t0);
    s.try_enqueue(t0, refused).expect("slot freed");
    let recovered = s.pool_stats();
    assert_eq!(recovered.pkts_in_use, 3);
    assert_eq!(recovered.pkt_slots, before.pkt_slots, "no growth past cap");
}

/// A `TagOverflow` refusal must not strand a slab slot: the capacity
/// check runs before tag arithmetic, so the refused packet was never
/// allocated. (Workload from `tests/tag_rebase.rs`: a 3 GB packet at
/// 1 b/s pushes `v` to 2.4e10; a prime weight near `2^63` then needs a
/// numerator no `i128` holds.)
#[test]
fn tag_overflow_refusal_leaks_nothing() {
    const W2: u64 = 999_999_999_989;
    const W3: u64 = 9_223_372_036_854_775_783;
    let t0 = SimTime::ZERO;
    let mut s = Sfq::new();
    s.add_flow(FlowId(1), Rate::bps(1));
    s.add_flow(FlowId(2), Rate::bps(W2));
    s.add_flow(FlowId(3), Rate::bps(W3));
    let mut pf = PacketFactory::new();
    s.enqueue(t0, pf.make(FlowId(1), Bytes::new(3_000_000_000), t0));
    assert!(s.dequeue(t0).is_some());
    s.on_departure(t0);
    s.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
    assert!(s.dequeue(t0).is_some());
    s.on_departure(t0);
    let before = s.pool_stats();
    assert_eq!(before.pkts_in_use, 0);
    let victim = pf.make(FlowId(3), Bytes::new(125), t0);
    assert_eq!(s.try_enqueue(t0, victim), Err(SchedError::TagOverflow));
    let after = s.pool_stats();
    assert_eq!(after.pkts_in_use, 0, "refused packet stranded a slot");
    assert_eq!(after.pkt_slots, before.pkt_slots);
}

/// Shared-handle wrapper so a `SwitchCore` (which owns its scheduler
/// as `Box<dyn Scheduler>`) can be driven while the test keeps a
/// handle for reading `PoolStats`.
#[derive(Clone)]
struct Shared(Rc<RefCell<Sfq>>);

impl Scheduler for Shared {
    fn add_flow(&mut self, flow: FlowId, weight: Rate) {
        self.0.borrow_mut().add_flow(flow, weight);
    }
    fn enqueue(&mut self, now: SimTime, pkt: Packet) {
        self.0.borrow_mut().enqueue(now, pkt);
    }
    fn try_enqueue(&mut self, now: SimTime, pkt: Packet) -> Result<(), SchedError> {
        self.0.borrow_mut().try_enqueue(now, pkt)
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        self.0.borrow_mut().dequeue(now)
    }
    fn on_departure(&mut self, now: SimTime) {
        self.0.borrow_mut().on_departure(now);
    }
    fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
    fn len(&self) -> usize {
        self.0.borrow().len()
    }
    fn backlog(&self, flow: FlowId) -> usize {
        self.0.borrow().backlog(flow)
    }
    fn remove_flow(&mut self, flow: FlowId) -> bool {
        self.0.borrow_mut().remove_flow(flow)
    }
    fn force_remove_flow(&mut self, flow: FlowId) -> usize {
        self.0.borrow_mut().force_remove_flow(flow)
    }
    fn drop_head(&mut self, flow: FlowId) -> Option<Packet> {
        self.0.borrow_mut().drop_head(flow)
    }
    fn name(&self) -> &'static str {
        "SFQ"
    }
}

/// Every `DropPolicy` through a real `SwitchCore` port: evictions and
/// refusals keep the slab books balanced at every step, and a full
/// drain (including a mid-service `force_remove_flow` churn fault)
/// returns every slot.
#[test]
fn switch_drop_policies_keep_books_balanced() {
    use netsim::DropPolicy;
    for policy in [
        DropPolicy::TailDrop,
        DropPolicy::HeadDrop,
        DropPolicy::LowestWeightPressure,
    ] {
        let inner = Rc::new(RefCell::new(Sfq::new()));
        let mut sw = SwitchCore::new(
            Box::new(Shared(Rc::clone(&inner))),
            RateProfile::constant(Rate::bps(8_000)),
            Some(4),
        );
        sw.set_shared_cap(Some(10));
        sw.set_drop_policy(policy);
        sw.add_flow(FlowId(1), Rate::bps(1_000));
        sw.add_flow(FlowId(2), Rate::bps(16_000));
        sw.add_flow(FlowId(3), Rate::bps(4_000));
        let mut pf = PacketFactory::new();
        let mut now = SimTime::ZERO;
        let balanced = |inner: &Rc<RefCell<Sfq>>| {
            let s = inner.borrow();
            let st = s.pool_stats();
            assert_eq!(st.pkts_in_use, s.len(), "{policy:?}: books diverged");
        };
        // Overfill past both caps, transmit a little, churn, repeat.
        for round in 0..6u32 {
            for i in 0..8u32 {
                let f = FlowId(1 + (i % 3));
                let _ = sw.try_offer(now, pf.make(f, Bytes::new(250 + 100 * i as u64), now));
                balanced(&inner);
            }
            if round == 3 {
                sw.force_remove_flow(now, FlowId(2));
                balanced(&inner);
                sw.add_flow(FlowId(2), Rate::bps(16_000));
            }
            if let Some((_, done)) = sw.try_start(now) {
                sw.complete(done);
                now = done;
                balanced(&inner);
            }
        }
        // Drain the port dry: every slot must come home.
        while let Some((_, done)) = sw.try_start(now) {
            sw.complete(done);
            now = done;
            balanced(&inner);
        }
        let st = inner.borrow().pool_stats();
        assert_eq!(st.pkts_in_use, 0, "{policy:?}: slots leaked after drain");
        assert!(
            st.pkts_hwm <= 10 + 4,
            "{policy:?}: hwm {} past caps",
            st.pkts_hwm
        );
    }
}

/// Linux peak-RSS (VmHWM) in bytes, if readable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Million-flow churn smoke (CI runs this `--release -- --ignored`):
/// 20 waves of 50k fresh flows each, two packets per flow, drained
/// between waves, each wave's flows removed once drained. Checks
/// leak-freedom, flow-table density (slots stay at one wave, not 1M),
/// the wall-clock cap, and the peak-RSS cap.
#[test]
#[ignore = "scale smoke: run release-mode (CI million-flow job)"]
fn million_flow_churn_smoke() {
    const WAVES: u32 = 20;
    const WAVE: u32 = 50_000;
    const WALL_CAP_S: u64 = 60;
    const RSS_CAP_BYTES: u64 = 1 << 30; // 1 GiB
    let started = std::time::Instant::now();
    let mut s = SfqFast::new();
    let mut pf = PacketFactory::new();
    let now = SimTime::ZERO;
    for wave in 0..WAVES {
        let base = wave * WAVE + 1;
        for i in 0..WAVE {
            let f = FlowId(base + i);
            s.add_flow(f, Rate::bps(8_000 + (i as u64 % 64) * 1_000));
            s.enqueue(now, pf.make(f, Bytes::new(200 + (i as u64 % 1_200)), now));
            s.enqueue(now, pf.make(f, Bytes::new(1_500), now));
        }
        while s.dequeue(now).is_some() {
            s.on_departure(now);
        }
        for i in 0..WAVE {
            assert!(
                s.remove_flow(FlowId(base + i)),
                "wave {wave}: flow not idle"
            );
        }
        let st = s.pool_stats();
        assert_eq!(st.pkts_in_use, 0, "wave {wave}: slots leaked");
    }
    let st = s.pool_stats();
    assert_eq!(st.pkts_in_use, 0);
    // Removal keeps the flow table dense: each wave's flows take the
    // slots the one before released, so one wave's worth serves the 1M
    // flows ever registered.
    assert_eq!(
        st.flow_slots,
        WAVE as usize,
        "flow table not dense: {} slots for {} flows ever",
        st.flow_slots,
        WAVES * WAVE
    );
    let elapsed = started.elapsed().as_secs();
    assert!(
        elapsed < WALL_CAP_S,
        "wall clock {elapsed}s >= {WALL_CAP_S}s"
    );
    if let Some(rss) = peak_rss_bytes() {
        assert!(rss < RSS_CAP_BYTES, "peak RSS {rss} >= {RSS_CAP_BYTES}");
    }
}
