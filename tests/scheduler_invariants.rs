//! Cross-discipline invariants that any correct work-conserving packet
//! scheduler must satisfy, property-tested over random workloads:
//!
//! - conservation: every arrival eventually departs, exactly once,
//! - work conservation: the server is never idle while packets queue,
//! - per-flow FIFO: a flow's packets depart in arrival order,
//! - service causality: no packet starts service before it arrives.

use proptest::prelude::*;
use sfq_repro::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Workload {
    /// (flow index, arrival ms, len bytes)
    pkts: Vec<(u32, i128, u64)>,
    weights: Vec<u64>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (2usize..5).prop_flat_map(|n| {
        (
            prop::collection::vec((0u32..n as u32, 0i128..5_000, 64u64..1_500), 20..120),
            prop::collection::vec(1_000u64..100_000, n),
        )
            .prop_map(|(pkts, weights)| Workload { pkts, weights })
    })
}

fn build(pf: &mut PacketFactory, w: &Workload) -> Vec<Packet> {
    let mut pkts: Vec<(u32, i128, u64)> = w.pkts.clone();
    pkts.sort_by_key(|&(_, t, _)| t);
    pkts.iter()
        .map(|&(f, t, l)| pf.make(FlowId(f + 1), Bytes::new(l), SimTime::from_millis(t)))
        .collect()
}

fn check_invariants(
    name: &str,
    deps: &[Departure],
    arrivals: &[Packet],
) -> Result<(), TestCaseError> {
    // Conservation: every uid departs exactly once.
    let mut seen = HashMap::new();
    for d in deps {
        *seen.entry(d.pkt.uid).or_insert(0u32) += 1;
    }
    for p in arrivals {
        prop_assert_eq!(
            seen.get(&p.uid).copied().unwrap_or(0),
            1,
            "{}: packet {} served {} times",
            name,
            p.uid,
            seen.get(&p.uid).copied().unwrap_or(0)
        );
    }
    // Causality & non-overlap: departures are sequential transmissions.
    let mut prev_depart = SimTime::ZERO;
    for d in deps {
        prop_assert!(
            d.service_start >= d.pkt.arrival,
            "{name}: served before arrival"
        );
        prop_assert!(d.departure >= d.service_start);
        prop_assert!(
            d.service_start >= prev_depart,
            "{name}: overlapping transmissions"
        );
        prev_depart = d.departure;
    }
    // Work conservation: if a packet had arrived before the previous
    // departure, the next service must start exactly at that departure.
    for w in deps.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if b.pkt.arrival <= a.departure {
            prop_assert_eq!(
                b.service_start,
                a.departure,
                "{}: idle while {} was queued",
                name,
                b.pkt.uid
            );
        }
    }
    // Per-flow FIFO by uid (uids are minted in arrival order here).
    let mut last_uid: HashMap<FlowId, u64> = HashMap::new();
    for d in deps {
        if let Some(&prev) = last_uid.get(&d.pkt.flow) {
            prop_assert!(d.pkt.uid > prev, "{}: flow {} reordered", name, d.pkt.flow);
        }
        last_uid.insert(d.pkt.flow, d.pkt.uid);
    }
    Ok(())
}

fn run_one<S: Scheduler>(mut sched: S, w: &Workload) -> (Vec<Departure>, Vec<Packet>) {
    for (i, &wt) in w.weights.iter().enumerate() {
        sched.add_flow(FlowId(i as u32 + 1), Rate::bps(wt));
    }
    let mut pf = PacketFactory::new();
    let arrivals = build(&mut pf, w);
    let profile = RateProfile::constant(Rate::kbps(64));
    // Horizon long enough to drain everything.
    let deps = run_server(&mut sched, &profile, &arrivals, SimTime::from_secs(10_000));
    (deps, arrivals)
}

/// Regression: force-removing a backlogged flow leaves a stale entry in
/// SFQ's head-of-flow heap; `dequeue` must skip it without underflowing
/// the `len`/`backlog` counters (the seed implementation decremented
/// `queued` before checking that the popped packet's flow still
/// existed) and the remaining flows must drain completely.
#[test]
fn sfq_survives_force_removed_flow() {
    let mut s = Sfq::new();
    s.add_flow(FlowId(1), Rate::bps(1_000));
    s.add_flow(FlowId(2), Rate::bps(2_000));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for _ in 0..4 {
        s.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        s.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
    }
    assert_eq!(s.len(), 8);
    assert_eq!(s.force_remove_flow(FlowId(1)), 4);
    assert_eq!(s.len(), 4, "removed flow's packets discounted exactly once");
    assert_eq!(s.backlog(FlowId(1)), 0);
    // Drain: only flow 2's packets come out, in FIFO order, and the
    // counters bottom out at zero instead of underflowing.
    let mut served = Vec::new();
    while let Some(p) = s.dequeue(t0) {
        assert_eq!(p.flow, FlowId(2));
        served.push(p.uid);
        s.on_departure(t0);
    }
    assert_eq!(served.len(), 4);
    assert!(served.windows(2).all(|w| w[0] < w[1]), "flow 2 reordered");
    assert!(s.is_empty());
    assert_eq!(s.len(), 0);
    // The scheduler keeps working after the stale entries are gone.
    s.add_flow(FlowId(1), Rate::bps(1_000));
    let p = pf.make(FlowId(1), Bytes::new(125), t0);
    s.enqueue(t0, p);
    assert_eq!(s.dequeue(t0).map(|q| q.uid), Some(p.uid));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random interleavings of enqueue/dequeue/force-remove/re-register
    /// never corrupt SFQ's counters: `len()` equals the live packet
    /// count tracked externally, dequeues only yield live flows'
    /// packets, and the scheduler always drains to empty.
    #[test]
    fn sfq_force_removal_keeps_counts_exact(
        ops in prop::collection::vec((0u8..4, 0u32..3), 1..150),
    ) {
        let mut s = Sfq::new();
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let mut live: HashMap<u32, usize> = HashMap::new();
        let mut registered = [false; 3];
        for (kind, f) in ops {
            let flow = FlowId(f + 1);
            match kind {
                0 | 1 => {
                    if !registered[f as usize] {
                        s.add_flow(flow, Rate::bps(1_000 + f as u64 * 613));
                        registered[f as usize] = true;
                    }
                    s.enqueue(t0, pf.make(flow, Bytes::new(125 + f as u64), t0));
                    *live.entry(f).or_insert(0) += 1;
                }
                2 => {
                    if let Some(p) = s.dequeue(t0) {
                        let cnt = live.get_mut(&(p.flow.0 - 1)).expect("live flow");
                        *cnt = cnt.checked_sub(1).expect("over-served flow");
                        s.on_departure(t0);
                    }
                }
                _ => {
                    let dropped = s.force_remove_flow(flow);
                    prop_assert_eq!(dropped, live.remove(&f).unwrap_or(0));
                    registered[f as usize] = false;
                }
            }
            prop_assert_eq!(s.len(), live.values().sum::<usize>());
            for f in 0..3u32 {
                prop_assert_eq!(
                    s.backlog(FlowId(f + 1)),
                    live.get(&f).copied().unwrap_or(0)
                );
            }
        }
        // Drain to empty.
        while s.dequeue(t0).is_some() {
            s.on_departure(t0);
        }
        prop_assert!(s.is_empty());
    }

    #[test]
    fn sfq_invariants(w in workload()) {
        let (deps, arr) = run_one(Sfq::new(), &w);
        check_invariants("SFQ", &deps, &arr)?;
    }

    #[test]
    fn scfq_invariants(w in workload()) {
        let (deps, arr) = run_one(Scfq::new(), &w);
        check_invariants("SCFQ", &deps, &arr)?;
    }

    #[test]
    fn wfq_invariants(w in workload()) {
        let (deps, arr) = run_one(Wfq::new(Rate::kbps(64)), &w);
        check_invariants("WFQ", &deps, &arr)?;
    }

    #[test]
    fn fqs_invariants(w in workload()) {
        let (deps, arr) = run_one(Fqs::new(Rate::kbps(64)), &w);
        check_invariants("FQS", &deps, &arr)?;
    }

    #[test]
    fn vc_invariants(w in workload()) {
        let (deps, arr) = run_one(VirtualClock::new(), &w);
        check_invariants("VC", &deps, &arr)?;
    }

    #[test]
    fn drr_invariants(w in workload()) {
        let (deps, arr) = run_one(Drr::new(), &w);
        check_invariants("DRR", &deps, &arr)?;
    }

    #[test]
    fn edd_invariants(w in workload()) {
        let mut e = DelayEdd::new();
        for (i, &wt) in w.weights.iter().enumerate() {
            e.add_flow_with_deadline(
                FlowId(i as u32 + 1),
                Rate::bps(wt),
                SimDuration::from_millis(10 + i as i128 * 17),
            );
        }
        let mut pf = PacketFactory::new();
        let arrivals = build(&mut pf, &w);
        let profile = RateProfile::constant(Rate::kbps(64));
        let deps = run_server(&mut e, &profile, &arrivals, SimTime::from_secs(10_000));
        check_invariants("EDD", &deps, &arrivals)?;
    }

    #[test]
    fn fifo_invariants(w in workload()) {
        let (deps, arr) = run_one(Fifo::new(), &w);
        check_invariants("FIFO", &deps, &arr)?;
    }

    #[test]
    fn fair_airport_invariants(w in workload()) {
        let (deps, arr) = run_one(FairAirport::new(), &w);
        check_invariants("FA", &deps, &arr)?;
    }

    #[test]
    fn hier_sfq_invariants(w in workload()) {
        let (deps, arr) = run_one(HierSfq::new(), &w);
        check_invariants("HierSFQ", &deps, &arr)?;
    }

    #[test]
    fn hier_sfq_two_level_invariants(w in workload()) {
        let mut h = HierSfq::new();
        let c1 = h.add_class(h.root(), Rate::kbps(32));
        let c2 = h.add_class(h.root(), Rate::kbps(32));
        for (i, &wt) in w.weights.iter().enumerate() {
            let parent = if i % 2 == 0 { c1 } else { c2 };
            h.add_flow_to(parent, FlowId(i as u32 + 1), Rate::bps(wt));
        }
        let mut pf = PacketFactory::new();
        let arrivals = build(&mut pf, &w);
        let profile = RateProfile::constant(Rate::kbps(64));
        let deps = run_server(&mut h, &profile, &arrivals, SimTime::from_secs(10_000));
        check_invariants("HierSFQ2", &deps, &arrivals)?;
    }

    /// Observer neutrality: attaching an observer must not perturb
    /// scheduling. Run the identical workload through each discipline
    /// bare (the `NoopObserver` default) and with live observers
    /// attached, and require bit-identical departure sequences —
    /// same uids, same service starts, same departure instants.
    #[test]
    fn observers_do_not_perturb_schedules(w in workload()) {
        let same = |a: &[Departure], b: &[Departure]| -> Result<(), TestCaseError> {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.pkt.uid, y.pkt.uid);
                prop_assert_eq!(x.service_start, y.service_start);
                prop_assert_eq!(x.departure, y.departure);
            }
            Ok(())
        };
        let obs = || (RingTracer::with_capacity(64), FlowMetrics::new());
        same(
            &run_one(Sfq::new(), &w).0,
            &run_one(Sfq::with_observer(TieBreak::default(), obs()), &w).0,
        )?;
        same(
            &run_one(Scfq::new(), &w).0,
            &run_one(Scfq::with_observer(obs()), &w).0,
        )?;
        same(
            &run_one(VirtualClock::new(), &w).0,
            &run_one(VirtualClock::with_observer(obs()), &w).0,
        )?;
        same(
            &run_one(Wfq::new(Rate::kbps(64)), &w).0,
            &run_one(Wfq::with_observer(Rate::kbps(64), obs()), &w).0,
        )?;
        same(
            &run_one(Fqs::new(Rate::kbps(64)), &w).0,
            &run_one(Fqs::with_observer(Rate::kbps(64), obs()), &w).0,
        )?;
        same(
            &run_one(Fifo::new(), &w).0,
            &run_one(Fifo::with_observer(obs()), &w).0,
        )?;
    }

    /// The counting observer's external tally reconciles with SFQ's
    /// internal accounting at every step of a random
    /// enqueue/dequeue/force-remove/re-register interleaving —
    /// including across `force_remove_flow`, which must report its
    /// discards to the observer exactly once.
    #[test]
    fn counting_observer_reconciles_with_sfq_internals(
        ops in prop::collection::vec((0u8..4, 0u32..3), 1..150),
    ) {
        let mut s = Sfq::with_observer(TieBreak::default(), CountingObserver::new());
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let mut registered = [false; 3];
        for (kind, f) in ops {
            let flow = FlowId(f + 1);
            match kind {
                0 | 1 => {
                    if !registered[f as usize] {
                        s.add_flow(flow, Rate::bps(1_000 + f as u64 * 613));
                        registered[f as usize] = true;
                    }
                    s.enqueue(t0, pf.make(flow, Bytes::new(125 + f as u64), t0));
                }
                2 => {
                    if s.dequeue(t0).is_some() {
                        s.on_departure(t0);
                    }
                }
                _ => {
                    s.force_remove_flow(flow);
                    registered[f as usize] = false;
                }
            }
            prop_assert_eq!(s.observer().in_queue(), s.len() as u64);
            for g in 0..3u32 {
                prop_assert_eq!(
                    s.observer().flow_backlog(FlowId(g + 1)),
                    s.backlog(FlowId(g + 1)) as i64
                );
            }
        }
        while s.dequeue(t0).is_some() {
            s.on_departure(t0);
        }
        prop_assert_eq!(s.observer().in_queue(), 0);
    }

    /// Flat HierSfq and plain Sfq may break start-tag ties differently
    /// (class id vs packet uid), but their schedules must agree on the
    /// cumulative per-flow service up to tie-reordering: at every
    /// departure boundary the per-flow served-byte counts differ by at
    /// most one maximum packet.
    #[test]
    fn flat_hierarchy_equivalent_to_sfq_up_to_ties(w0 in workload()) {
        // Fix all packet lengths so tie-break differences (uid order in
        // Sfq vs class-id order in HierSfq) cannot move service
        // boundaries — only swap which equal-length packet occupies a
        // slot.
        let mut w = w0;
        let lfix = 500u64;
        for p in &mut w.pkts {
            p.2 = lfix;
        }
        let (deps_flat, _) = run_one(Sfq::new(), &w);
        let (deps_hier, _) = run_one(HierSfq::new(), &w);
        prop_assert_eq!(deps_flat.len(), deps_hier.len());
        let lmax = lfix;
        let n_flows = w.weights.len();
        let mut cum_flat = vec![0i64; n_flows + 1];
        let mut cum_hier = vec![0i64; n_flows + 1];
        for (a, b) in deps_flat.iter().zip(&deps_hier) {
            // Same service boundaries (work conservation forces it).
            prop_assert_eq!(a.departure, b.departure);
            cum_flat[a.pkt.flow.0 as usize] += a.pkt.len.as_u64() as i64;
            cum_hier[b.pkt.flow.0 as usize] += b.pkt.len.as_u64() as i64;
            for f in 1..=n_flows {
                prop_assert!(
                    (cum_flat[f] - cum_hier[f]).abs() <= 2 * lmax as i64,
                    "flow {f} diverged beyond tie slack"
                );
            }
        }
    }
}

/// Fair Airport force-removal while the victim flow is mid-service: the
/// in-flight packet already belongs to the server, the backlog is
/// discarded, stale GSQ/regulator entries are skipped lazily, and the
/// remaining flow drains completely. Reviving the flow starts a fresh
/// tag chain and regulator state.
#[test]
fn fair_airport_force_remove_mid_service_and_revive() {
    let mut fa = FairAirport::new();
    fa.add_flow(FlowId(1), Rate::bps(1_000));
    fa.add_flow(FlowId(2), Rate::bps(1_000));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for _ in 0..4 {
        fa.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        fa.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
    }
    // First dequeue goes to flow 1's eligible head via the GSQ.
    let served = fa.dequeue(t0).unwrap();
    assert_eq!(served.flow, FlowId(1));
    // Mid-service removal: 3 queued flow-1 packets discarded.
    assert_eq!(fa.force_remove_flow(FlowId(1)), 3);
    assert_eq!(fa.backlog(FlowId(1)), 0);
    assert_eq!(fa.len(), 4);
    fa.on_departure(t0);
    // Only flow 2 comes out, in FIFO order, despite flow 1's stale
    // GSQ announcement sitting in the heaps.
    let mut served2 = Vec::new();
    while let Some(p) = fa.dequeue(t0) {
        assert_eq!(p.flow, FlowId(2));
        served2.push(p.uid);
        fa.on_departure(t0);
    }
    assert_eq!(served2.len(), 4);
    assert!(served2.windows(2).all(|w| w[0] < w[1]));
    assert!(fa.is_empty());
    // Revive: the flow re-registers and schedules like a new flow.
    fa.add_flow(FlowId(1), Rate::bps(1_000));
    let p = pf.make(FlowId(1), Bytes::new(125), t0);
    fa.enqueue(t0, p);
    assert_eq!(fa.dequeue(t0).map(|q| q.uid), Some(p.uid));
    fa.on_departure(t0);
    assert!(fa.is_empty());
    // Removing an unknown flow is a no-op.
    assert_eq!(fa.force_remove_flow(FlowId(9)), 0);
}

/// A force-removed flow's already-admitted GSQ head must not be served,
/// not even once the flow is revived with new packets.
#[test]
fn fair_airport_stale_gsq_entry_never_serves_revived_flow() {
    let mut fa = FairAirport::new();
    fa.add_flow(FlowId(1), Rate::bps(1_000));
    fa.add_flow(FlowId(2), Rate::bps(1_000));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    // Flow 1's head is admitted to the GSQ at enqueue-time announcement;
    // force-remove before any dequeue leaves the entry stale.
    let doomed = pf.make(FlowId(1), Bytes::new(125), t0);
    fa.enqueue(t0, doomed);
    fa.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
    assert_eq!(fa.force_remove_flow(FlowId(1)), 1);
    // Revive flow 1 with a fresh packet: new uid, so the old GSQ entry
    // (if it named the flow) cannot match it.
    fa.add_flow(FlowId(1), Rate::bps(1_000));
    let fresh = pf.make(FlowId(1), Bytes::new(125), t0);
    fa.enqueue(t0, fresh);
    let mut uids = Vec::new();
    while let Some(p) = fa.dequeue(t0) {
        assert_ne!(p.uid, doomed.uid, "discarded packet served");
        uids.push(p.uid);
        fa.on_departure(t0);
    }
    assert_eq!(uids.len(), 2);
    assert!(uids.contains(&fresh.uid));
    assert!(fa.is_empty());
}

/// HierSfq force-removal fixes up the whole ancestor chain: subtree
/// backlogs shrink at every level, a class whose subtree empties leaves
/// its parent's ready set, and siblings keep scheduling normally —
/// including removal while the victim's packet is mid-service.
#[test]
fn hier_force_remove_updates_ancestors_and_survives_mid_service() {
    let mut h = HierSfq::new();
    let a = h.add_class(h.root(), Rate::bps(1_000));
    h.add_flow_to(a, FlowId(1), Rate::bps(1_000));
    h.add_flow_to(a, FlowId(2), Rate::bps(1_000));
    h.add_flow_to(h.root(), FlowId(3), Rate::bps(1_000));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    for _ in 0..3 {
        h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
        h.enqueue(t0, pf.make(FlowId(3), Bytes::new(125), t0));
    }
    h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
    assert_eq!(h.class_backlog(a), 4);
    // Serve one packet (flow 1 or 3 ties at S=0) and remove flow 1
    // while that service is still in flight.
    let first = h.dequeue(t0).unwrap();
    let dropped = h.force_remove_flow(FlowId(1));
    assert_eq!(
        dropped + h.backlog(FlowId(1)),
        3 - (first.flow.0 == 1) as usize
    );
    assert_eq!(h.backlog(FlowId(1)), 0);
    h.on_departure(t0);
    // Remaining service: flow 2's single packet and flow 3's rest.
    let mut order = Vec::new();
    while let Some(p) = h.dequeue(t0) {
        assert_ne!(p.flow, FlowId(1), "removed flow served");
        order.push(p.flow.0);
        h.on_departure(t0);
    }
    assert!(order.contains(&2), "sibling starved: {order:?}");
    assert!(h.is_empty());
    assert_eq!(h.class_backlog(a), 0);
    // Enqueueing for the removed flow is now a typed error; reviving it
    // attaches a fresh leaf that schedules normally.
    let orphan = pf.make(FlowId(1), Bytes::new(125), t0);
    assert_eq!(
        h.try_enqueue(t0, orphan),
        Err(sfq_repro::core::SchedError::UnknownFlow(FlowId(1)))
    );
    h.add_flow(FlowId(1), Rate::bps(1_000));
    let p = pf.make(FlowId(1), Bytes::new(125), t0);
    h.enqueue(t0, p);
    assert_eq!(h.dequeue(t0).map(|q| q.uid), Some(p.uid));
    h.on_departure(t0);
    assert_eq!(h.force_remove_flow(FlowId(9)), 0, "unknown flow no-op");
}

/// Force-removing a flow routed to a nested scheduler class — SFQ or
/// Delay EDD — delegates to the inner discipline and keeps every
/// level's subtree accounting exact.
#[test]
fn hier_force_remove_delegates_to_scheduler_class() {
    let mut sfq = Sfq::new();
    let mut edd = DelayEdd::new();
    for f in [1, 2] {
        sfq.add_flow(FlowId(f), Rate::bps(1_000));
        let d = SimDuration::from_millis(10 * f as i128);
        edd.add_flow_with_deadline(FlowId(f), Rate::bps(1_000), d);
    }
    let inners: [Box<dyn Scheduler>; 2] = [Box::new(sfq), Box::new(edd)];
    for inner in inners {
        let name = inner.name();
        let mut h = HierSfq::new();
        let class = h.add_scheduler_class(h.root(), Rate::bps(1_000), inner);
        h.attach_configured_flow(class, FlowId(1));
        h.attach_configured_flow(class, FlowId(2));
        h.add_flow(FlowId(3), Rate::bps(1_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        for _ in 0..2 {
            h.enqueue(t0, pf.make(FlowId(1), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(2), Bytes::new(125), t0));
            h.enqueue(t0, pf.make(FlowId(3), Bytes::new(125), t0));
        }
        assert_eq!(h.class_backlog(class), 4, "{name}");
        assert_eq!(h.force_remove_flow(FlowId(1)), 2, "{name}");
        assert_eq!(h.class_backlog(class), 2, "{name}");
        assert_eq!(h.class_backlog(h.root()), 4, "{name}");
        assert_eq!(h.len(), 4, "{name}");
        let mut order = Vec::new();
        while let Some(p) = h.dequeue(t0) {
            assert_ne!(p.flow, FlowId(1), "{name}");
            order.push(p.flow.0);
            h.on_departure(t0);
        }
        assert_eq!(order.iter().filter(|&&f| f == 2).count(), 2, "{name}");
        assert_eq!(order.iter().filter(|&&f| f == 3).count(), 2, "{name}");
        assert!(h.is_empty(), "{name}");
        assert_eq!(h.class_backlog(class), 0, "{name}");
    }
}

/// A flow routed to a Delay EDD class that never registered it is
/// refused through the fallible API with a typed error, not a panic,
/// and leaves every count untouched.
#[test]
fn hier_edd_class_refuses_a_flow_it_never_registered() {
    let mut edd = DelayEdd::new();
    edd.add_flow_with_deadline(FlowId(1), Rate::bps(1_000), SimDuration::from_millis(10));
    let mut h = HierSfq::new();
    let class = h.add_scheduler_class(h.root(), Rate::bps(1_000), Box::new(edd));
    h.attach_configured_flow(class, FlowId(1));
    h.attach_configured_flow(class, FlowId(2));
    let mut pf = PacketFactory::new();
    let t0 = SimTime::ZERO;
    let p = pf.make(FlowId(1), Bytes::new(125), t0);
    h.enqueue(t0, p);
    let orphan = pf.make(FlowId(2), Bytes::new(125), t0);
    assert_eq!(
        h.try_enqueue(t0, orphan),
        Err(SchedError::UnknownFlow(FlowId(2)))
    );
    assert_eq!(h.len(), 1);
    assert_eq!(h.backlog(FlowId(2)), 0);
    assert_eq!(h.class_backlog(class), 1);
    assert_eq!(h.class_backlog(h.root()), 1);
    assert_eq!(h.dequeue(t0).map(|q| q.uid), Some(p.uid));
    h.on_departure(t0);
    assert!(h.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random interleavings of enqueue/dequeue/force-remove/re-register
    /// against Fair Airport keep its counters exact (the same contract
    /// `sfq_force_removal_keeps_counts_exact` pins for SFQ, here
    /// crossing the GSQ/regulator machinery).
    #[test]
    fn fair_airport_force_removal_keeps_counts_exact(
        ops in prop::collection::vec((0u8..4, 0u32..3), 1..150),
    ) {
        let mut s = FairAirport::new();
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let mut live: HashMap<u32, usize> = HashMap::new();
        let mut registered = [false; 3];
        for (kind, f) in ops {
            let flow = FlowId(f + 1);
            match kind {
                0 | 1 => {
                    if !registered[f as usize] {
                        s.add_flow(flow, Rate::bps(1_000 + f as u64 * 613));
                        registered[f as usize] = true;
                    }
                    s.enqueue(t0, pf.make(flow, Bytes::new(125 + f as u64), t0));
                    *live.entry(f).or_insert(0) += 1;
                }
                2 => {
                    if let Some(p) = s.dequeue(t0) {
                        let cnt = live.get_mut(&(p.flow.0 - 1)).expect("live flow");
                        *cnt = cnt.checked_sub(1).expect("over-served flow");
                        s.on_departure(t0);
                    }
                }
                _ => {
                    let dropped = s.force_remove_flow(flow);
                    prop_assert_eq!(dropped, live.remove(&f).unwrap_or(0));
                    registered[f as usize] = false;
                }
            }
            prop_assert_eq!(s.len(), live.values().sum::<usize>());
            for f in 0..3u32 {
                prop_assert_eq!(
                    s.backlog(FlowId(f + 1)),
                    live.get(&f).copied().unwrap_or(0)
                );
            }
        }
        while s.dequeue(t0).is_some() {
            s.on_departure(t0);
        }
        prop_assert!(s.is_empty());
    }

    /// The same interleaving contract for HierSfq over a two-level tree
    /// (two flows under a class, one at the root).
    #[test]
    fn hier_force_removal_keeps_counts_exact(
        ops in prop::collection::vec((0u8..4, 0u32..3), 1..150),
    ) {
        let mut s = HierSfq::new();
        let class = s.add_class(s.root(), Rate::bps(2_000));
        let mut pf = PacketFactory::new();
        let t0 = SimTime::ZERO;
        let mut live: HashMap<u32, usize> = HashMap::new();
        let mut registered = [false; 3];
        for (kind, f) in ops {
            let flow = FlowId(f + 1);
            match kind {
                0 | 1 => {
                    if !registered[f as usize] {
                        if f < 2 {
                            s.add_flow_to(class, flow, Rate::bps(1_000 + f as u64 * 613));
                        } else {
                            s.add_flow(flow, Rate::bps(1_000 + f as u64 * 613));
                        }
                        registered[f as usize] = true;
                    }
                    s.enqueue(t0, pf.make(flow, Bytes::new(125 + f as u64), t0));
                    *live.entry(f).or_insert(0) += 1;
                }
                2 => {
                    if let Some(p) = s.dequeue(t0) {
                        let cnt = live.get_mut(&(p.flow.0 - 1)).expect("live flow");
                        *cnt = cnt.checked_sub(1).expect("over-served flow");
                        s.on_departure(t0);
                    }
                }
                _ => {
                    let dropped = s.force_remove_flow(flow);
                    prop_assert_eq!(dropped, live.remove(&f).unwrap_or(0));
                    registered[f as usize] = false;
                }
            }
            prop_assert_eq!(s.len(), live.values().sum::<usize>());
            for f in 0..3u32 {
                prop_assert_eq!(
                    s.backlog(FlowId(f + 1)),
                    live.get(&f).copied().unwrap_or(0)
                );
            }
        }
        while s.dequeue(t0).is_some() {
            s.on_departure(t0);
        }
        prop_assert!(s.is_empty());
    }
}
