//! Exact fluid (bit-by-bit weighted round robin / GPS) virtual clock.
//!
//! WFQ and FQS define the virtual time `v(t)` of Eq. 3 as the round
//! number of a hypothetical bit-by-bit weighted round robin server of
//! fixed capacity `C`:
//!
//! ```text
//! dv(t)/dt = C / Σ_{j ∈ B(t)} r_j
//! ```
//!
//! where `B(t)` is the set of flows backlogged *in the fluid system*.
//! This module simulates that fluid system exactly: between arrival
//! events, `v` advances piecewise-linearly, with slope changing whenever
//! a flow's fluid backlog drains (i.e. `v` crosses the flow's largest
//! finish tag). All arithmetic is rational, so the emulation is exact —
//! which the paper notes is precisely what makes WFQ expensive.
//!
//! When the fluid system goes idle, `v` freezes and the next busy
//! period continues from the same value.
//!
//! The clock keeps fluid state only: a flow's rate and last finish tag
//! (its fluid exit point) are the tag core's, handed over at each
//! arrival. A fluid backlog leaves the weight sum at the rate it entered
//! with, so a re-registered flow's new rate applies from its next
//! arrival.
//!
//! ## Precision
//!
//! Advancing `v` divides by the backlogged weight sum, which changes
//! over time; kept fully exact, the rational denominators would grow
//! without bound (the lcm of every distinct weight sum crossed) and
//! overflow `i128` on long runs. The fluid clock therefore snaps `v`
//! and its internal timeline to a **picosecond grid** after every
//! update: each event contributes at most 1e-12 s of drift, eleven
//! orders of magnitude below the millisecond-scale quantities the
//! paper's experiments compare. Tag *chains* (`S`, `F` per flow) remain
//! exact.

use crate::packet::FlowId;
use crate::tagsched::VtClock;
use simtime::{Rate, Ratio, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Exact GPS fluid virtual clock with assumed capacity `C`.
#[derive(Debug)]
pub struct GpsClock {
    capacity: Rate,
    /// Current virtual time.
    v: Ratio,
    /// Real time up to which `v` has been advanced.
    last_t: SimTime,
    /// The fluid backlogs: each flow's exit point (its largest finish
    /// tag), with the rate it was added to `weight_sum` at.
    backlogged: BTreeMap<(Ratio, FlowId), Ratio>,
    /// Σ r_j over fluid-backlogged flows.
    weight_sum: Ratio,
}

impl GpsClock {
    /// New fluid clock emulating a constant-rate server of capacity
    /// `capacity` (the paper's `C` in Eq. 3).
    pub fn new(capacity: Rate) -> Self {
        assert!(capacity.as_bps() > 0, "GPS capacity must be positive");
        GpsClock {
            capacity,
            v: Ratio::ZERO,
            last_t: SimTime::ZERO,
            backlogged: BTreeMap::new(),
            weight_sum: Ratio::ZERO,
        }
    }

    /// Advance the fluid system to real time `t` and return `v(t)`.
    pub fn advance(&mut self, t: SimTime) -> Ratio {
        assert!(t >= self.last_t, "GPS clock driven backwards");
        loop {
            let Some((&(next_exit, _), &w)) = self.backlogged.first_key_value() else {
                // Fluid-idle: v frozen.
                self.last_t = t;
                return self.v;
            };
            // Real time needed for v to reach next_exit at slope C/W:
            // dt = (next_exit - v) * W / C.
            let dt = (next_exit - self.v) * self.weight_sum / self.capacity.as_ratio();
            let exit_time = self.last_t + SimDuration::from_ratio(dt.snap_pico());
            if exit_time <= t {
                // Flow's fluid backlog drains before (or at) t. Snap:
                // tags chain off v, so keeping cross-flow exact tag
                // denominators here would compound without bound.
                self.v = next_exit.snap_pico();
                self.last_t = SimTime::from_ratio(exit_time.as_ratio().snap_pico());
                self.backlogged.pop_first();
                self.weight_sum -= w;
            } else {
                let span = (t - self.last_t).as_ratio();
                self.v = (self.v + self.capacity.as_ratio() * span / self.weight_sum).snap_pico();
                self.last_t = t;
                return self.v;
            }
        }
    }
}

/// WFQ's and FQS's `v(t)`: the fluid clock advanced to each arrival.
impl VtClock for GpsClock {
    const EXTERNAL: bool = true;

    fn arrival(&mut self, now: SimTime) -> Ratio {
        self.advance(now)
    }

    /// Move `flow`'s fluid backlog from exit point `prev` to `finish`,
    /// now at `rate`. The old entry leaves the weight sum with the rate
    /// it entered with.
    fn extend(&mut self, flow: FlowId, rate: Rate, prev: Ratio, finish: Ratio) {
        if let Some(w) = self.backlogged.remove(&(prev, flow)) {
            self.weight_sum -= w;
        }
        // A removed flow's backlog drains on its own (removal takes no
        // `now`), so its revival may exit at the same point: add to it.
        *self.backlogged.entry((finish, flow)).or_insert(Ratio::ZERO) += rate.as_ratio();
        self.weight_sum += rate.as_ratio();
    }

    fn event_v(&self, _own: Ratio, _time: SimTime) -> Ratio {
        self.v
    }

    fn virtual_time(&self, _own: Ratio) -> Ratio {
        self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One arrival per Eqs. 1–2 of `flow` at `rate_bps` with span
    /// `span` after last finish tag `lf`, as the tag core makes it:
    /// read `v`, stamp, extend. Returns `(S, F)`.
    fn arrive(
        gps: &mut GpsClock,
        t: SimTime,
        flow: u32,
        rate_bps: u64,
        span: i128,
        lf: Ratio,
    ) -> (Ratio, Ratio) {
        let start = gps.arrival(t).max(lf);
        let finish = start + Ratio::from_int(span);
        gps.extend(FlowId(flow), Rate::bps(rate_bps), lf, finish);
        (start, finish)
    }

    #[test]
    fn single_flow_advances_at_full_rate_over_weight() {
        // Example 2 setup: capacity C, one flow of weight 1 pkt/s
        // backlogged during [0,1) ⇒ v(1) = C.
        let c = 10u64; // C = 10 "packets"/s with 1-byte packets at 8 bps units
        let mut gps = GpsClock::new(Rate::bps(8 * c));
        // Flow 1 sends C+1 unit packets at t=0; spans l/r = 1 each.
        let mut lf = Ratio::ZERO;
        for _ in 0..=c {
            lf = arrive(&mut gps, SimTime::ZERO, 1, 8, 1, lf).1;
        }
        let v1 = gps.advance(SimTime::from_secs(1));
        assert_eq!(v1, Ratio::from_int(c as i128));
    }

    #[test]
    fn two_equal_flows_halve_the_slope() {
        let mut gps = GpsClock::new(Rate::bps(16));
        // Each flow sends a large burst (span 100) at t=0.
        arrive(&mut gps, SimTime::ZERO, 1, 8, 100, Ratio::ZERO);
        arrive(&mut gps, SimTime::ZERO, 2, 8, 100, Ratio::ZERO);
        // Slope = C/(r1+r2) = 16/16 = 1 virtual unit per second.
        let v = gps.advance(SimTime::from_secs(5));
        assert_eq!(v, Ratio::from_int(5));
    }

    #[test]
    fn slope_doubles_when_one_fluid_backlog_drains() {
        let mut gps = GpsClock::new(Rate::bps(16));
        // Flow 1: span 2 (drains at v=2); flow 2: span 100.
        arrive(&mut gps, SimTime::ZERO, 1, 8, 2, Ratio::ZERO);
        arrive(&mut gps, SimTime::ZERO, 2, 8, 100, Ratio::ZERO);
        // Slope 1 until v=2 (at t=2), then slope 2.
        let v = gps.advance(SimTime::from_secs(4));
        assert_eq!(v, Ratio::from_int(2 + 4));
    }

    #[test]
    fn v_freezes_when_fluid_idle() {
        let mut gps = GpsClock::new(Rate::bps(16));
        arrive(&mut gps, SimTime::ZERO, 1, 8, 1, Ratio::ZERO);
        // Drains at v=1 which happens at t = 1 * (8/16) = 0.5 s.
        let v = gps.advance(SimTime::from_secs(10));
        assert_eq!(v, Ratio::ONE);
        let v2 = gps.advance(SimTime::from_secs(20));
        assert_eq!(v2, Ratio::ONE);
    }

    #[test]
    fn arrival_to_idle_system_starts_at_frozen_v() {
        let mut gps = GpsClock::new(Rate::bps(16));
        let (_, lf) = arrive(&mut gps, SimTime::ZERO, 1, 8, 1, Ratio::ZERO);
        let _ = gps.advance(SimTime::from_secs(10));
        let (s, f) = arrive(&mut gps, SimTime::from_secs(10), 1, 8, 1, lf);
        assert_eq!(s, Ratio::ONE);
        assert_eq!(f, Ratio::from_int(2));
    }

    /// A fluid backlog leaves the weight sum at the rate it entered
    /// with. C = 2 000 b/s; flow 1 enters at 1 000 b/s and is then
    /// re-registered at 4 000 b/s while still fluid-backlogged. Charging
    /// the drain at the new rate left the sum at −3 000 b/s, and flow
    /// 2's span of 100 was then crossed in zero time (v = 110 at 100 s
    /// and at 101 s).
    #[test]
    fn a_drained_backlog_leaves_at_the_rate_it_entered_with() {
        let mut gps = GpsClock::new(Rate::bps(2_000));
        let ten = Ratio::from_int(10);
        arrive(&mut gps, SimTime::ZERO, 1, 1_000, 10, Ratio::ZERO);
        assert_eq!(gps.advance(SimTime::from_secs(100)), ten);
        let t = SimTime::from_secs(100);
        assert_eq!(arrive(&mut gps, t, 2, 1_000, 100, Ratio::ZERO).0, ten);
        assert_eq!(gps.advance(t), ten);
        // Slope C / r_2 = 2.
        assert_eq!(gps.advance(SimTime::from_secs(101)), Ratio::from_int(12));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn driving_clock_backwards_panics() {
        let mut gps = GpsClock::new(Rate::bps(16));
        let _ = gps.advance(SimTime::from_secs(1));
        let _ = gps.advance(SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{PacketFactory, Scheduler, Wfq};
    use proptest::prelude::*;
    use simtime::Bytes;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fluid clock is monotone, and its slope never exceeds
        /// C / min-backlogged-weight nor drops below C / Σ weights
        /// while anything is backlogged.
        #[test]
        fn v_monotone_and_slope_bounded(
            arrivals in prop::collection::vec((0u32..3, 0i64..5_000, 1u64..50), 1..40),
        ) {
            let c = Rate::bps(9_000);
            let weights = [Rate::bps(1_000), Rate::bps(2_000), Rate::bps(3_000)];
            let mut gps = GpsClock::new(c);
            let mut evs: Vec<(i64, u32, u64)> =
                arrivals.iter().map(|&(f, t, span)| (t, f, span)).collect();
            evs.sort();
            let mut last_finish = [Ratio::ZERO; 3];
            let mut prev_v = Ratio::ZERO;
            let mut prev_t = SimTime::ZERO;
            for (t_ms, f, span) in evs {
                let t = SimTime::from_millis(t_ms as i128);
                let v = gps.advance(t);
                prop_assert!(v >= prev_v, "v went backwards");
                // Max slope C / min weight = 9: v growth bounded.
                let dv = v - prev_v;
                let dt = (t - prev_t).as_ratio();
                prop_assert!(
                    dv <= dt * Ratio::from_int(9),
                    "slope above C/min_weight"
                );
                prev_v = v;
                prev_t = t;
                let lf = &mut last_finish[f as usize];
                let fin = gps.arrival(t).max(*lf) + Ratio::from_int(span as i128);
                gps.extend(FlowId(f), weights[f as usize], *lf, fin);
                *lf = fin;
            }
        }

        /// Tags WFQ stamps off the clock respect the recurrence:
        /// S = max(v, F_prev), F = S + span.
        #[test]
        fn arrival_tags_follow_recurrence(
            lens in prop::collection::vec(1u64..1_000, 1..30),
        ) {
            let rate = Rate::bps(1_000);
            let mut w = Wfq::new(rate);
            w.add_flow(FlowId(1), rate);
            let mut pf = PacketFactory::new();
            let mut lf = Ratio::ZERO;
            for (k, &len) in lens.iter().enumerate() {
                let t = SimTime::from_millis(k as i128 * 10);
                let p = pf.make(FlowId(1), Bytes::new(len), t);
                w.enqueue(t, p);
                let (s, f) = w.tags_of(p.uid).unwrap();
                prop_assert_eq!(s, w.virtual_time().max(lf));
                prop_assert_eq!(f, s + rate.tag_span(Bytes::new(len)));
                lf = f;
            }
        }
    }
}
