//! Piecewise-constant service-rate profiles.
//!
//! A [`RateProfile`] is the exact rate function `C(t)` of a server: a
//! sorted list of `(start-time, rate)` segments, the last extending to
//! infinity. Constant-rate, Fluctuation Constrained, and EBF servers
//! are all just profiles; the scheduler never sees the difference —
//! exactly the separation the paper's analysis relies on.

use simtime::{Bytes, Rate, Ratio, SimDuration, SimTime};

/// One segment of a profile: from `start` (inclusive) the server runs
/// at `rate` until the next segment begins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Segment start time.
    pub start: SimTime,
    /// Service rate from `start` onward.
    pub rate: Rate,
}

/// A piecewise-constant service-rate function defined on `[0, ∞)`.
#[derive(Clone, Debug)]
pub struct RateProfile {
    segments: Vec<Segment>,
}

impl RateProfile {
    /// Constant-rate server (`(C, 0)` Fluctuation Constrained).
    pub fn constant(rate: Rate) -> Self {
        Self::from_segments(vec![Segment {
            start: SimTime::ZERO,
            rate,
        }])
    }

    /// Build from explicit segments. Panics unless segments start at
    /// t = 0, are strictly increasing in time, and end at a non-zero
    /// rate — a transmission the last segment has to finish would
    /// otherwise never complete.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let (Some(first), Some(last)) = (segments.first(), segments.last()) else {
            panic!("profile needs at least one segment");
        };
        assert_eq!(first.start, SimTime::ZERO, "profile must start at t=0");
        assert!(
            last.rate.as_bps() > 0,
            "profile must end at a non-zero rate"
        );
        for w in segments.windows(2) {
            assert!(
                w[0].start < w[1].start,
                "profile segments must be strictly increasing"
            );
        }
        RateProfile { segments }
    }

    /// The segments (for validators and plots).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Rate in effect at time `t`.
    pub fn rate_at(&self, t: SimTime) -> Rate {
        let idx = match self.segments.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => unreachable!("profiles start at t=0 and t >= 0"),
            Err(i) => i - 1,
        };
        self.segments[idx].rate
    }

    /// Exact work (in bits) the server performs over `[t1, t2]`.
    ///
    /// Touches only the segments overlapping the interval (binary
    /// search + early exit) — callers like the worst-interval deficit
    /// scan invoke this once per breakpoint, which would otherwise go
    /// quadratic in the segment count on fine-grained FC profiles.
    pub fn work_bits(&self, t1: SimTime, t2: SimTime) -> Ratio {
        assert!(t1 <= t2, "work_bits interval reversed");
        let mut total = Ratio::ZERO;
        let first = match self.segments.binary_search_by(|s| s.start.cmp(&t1)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        for i in first..self.segments.len() {
            let seg = self.segments[i];
            if seg.start >= t2 {
                break;
            }
            let seg_start = seg.start.max(t1);
            let seg_end = match self.segments.get(i + 1) {
                Some(next) => next.start.min(t2),
                None => t2,
            };
            if seg_end > seg_start {
                total += seg.rate.work_bits(seg_end - seg_start);
            }
        }
        total
    }

    /// Exact time at which a transmission of `len` bytes beginning at
    /// `t0` completes.
    ///
    /// A whole number of bits at one rate is a step of `bits / rate`
    /// ([`SimTime::advance`]): one multiply-add when `t0` is on the
    /// rate's lattice, which a link's previous finish time is. Only a
    /// transmission that crosses a segment boundary — at a fractional
    /// bit, perhaps — divides rationals for the remainder.
    pub fn finish_time(&self, t0: SimTime, len: Bytes) -> SimTime {
        // `t + remaining / rate`, for a non-zero rate; where the step
        // overflows, the sum panics as reduced arithmetic does.
        let drain = |t: SimTime, remaining: Ratio, rate: Rate| {
            let whole = (remaining.denom() == 1).then(|| t.advance(remaining.numer(), rate));
            whole
                .flatten()
                .unwrap_or_else(|| t + SimDuration::from_ratio(remaining / rate.as_ratio()))
        };
        let mut remaining = len.bits_ratio();
        if remaining.is_zero() {
            return t0;
        }
        let start_idx = match self.segments.binary_search_by(|s| s.start.cmp(&t0)) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let mut t = t0;
        for (i, seg) in self.segments.iter().enumerate().skip(start_idx) {
            // The last segment's rate is not zero (`from_segments`).
            let Some(end) = self.segments.get(i + 1).map(|n| n.start) else {
                return drain(t, remaining, seg.rate);
            };
            if end <= t {
                continue;
            }
            let capacity = seg.rate.as_ratio() * (end - t).as_ratio();
            if capacity >= remaining && seg.rate.as_bps() > 0 {
                return drain(t, remaining, seg.rate);
            }
            remaining -= capacity;
            t = end;
        }
        unreachable!("the last segment returns")
    }

    /// Average rate over `[0, horizon]`.
    pub fn average_rate(&self, horizon: SimTime) -> Ratio {
        self.work_bits(SimTime::ZERO, horizon) / horizon.as_ratio()
    }

    /// Capacity-droop fault: a copy of this profile whose rate over
    /// `[from, until)` is scaled to `percent`% of its nominal value
    /// (integer floor, so `percent = 0` is a full outage). Outside the
    /// window the profile is unchanged. The result is generally FC with
    /// a *larger* burstiness than the original — conformance checks
    /// recompute the effective `δ` with
    /// [`crate::max_interval_deficit_bits`] on the drooped profile.
    pub fn scaled_window(&self, from: SimTime, until: SimTime, percent: u32) -> RateProfile {
        assert!(from < until, "droop window reversed");
        assert!(percent <= 100, "droop percent over 100");
        let scale = |r: Rate| Rate::bps(r.as_bps() * percent as u64 / 100);
        let mut out: Vec<Segment> = Vec::with_capacity(self.segments.len() + 2);
        let mut push = |seg: Segment| {
            // Coalesce: drop zero-length predecessors, skip no-op rates.
            if let Some(last) = out.last_mut() {
                if last.start == seg.start {
                    *last = seg;
                    return;
                }
                if last.rate == seg.rate {
                    return;
                }
            }
            out.push(seg);
        };
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_end = self
                .segments
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(until.max(seg.start) + simtime::SimDuration::from_secs(1));
            // Portion before the window.
            if seg.start < from {
                push(*seg);
            }
            // Portion inside the window.
            let in_start = seg.start.max(from);
            let in_end = seg_end.min(until);
            if in_end > in_start {
                push(Segment {
                    start: in_start,
                    rate: scale(seg.rate),
                });
            }
            // Portion after the window resumes the nominal rate.
            if seg_end > until && seg.start < seg_end {
                push(Segment {
                    start: seg.start.max(until),
                    rate: seg.rate,
                });
            }
        }
        RateProfile::from_segments(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_off() -> RateProfile {
        // 0-1s: 8 bps, 1-2s: 0, 2s-: 16 bps.
        RateProfile::from_segments(vec![
            Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(8),
            },
            Segment {
                start: SimTime::from_secs(1),
                rate: Rate::bps(0),
            },
            Segment {
                start: SimTime::from_secs(2),
                rate: Rate::bps(16),
            },
        ])
    }

    #[test]
    fn rate_at_picks_correct_segment() {
        let p = on_off();
        assert_eq!(p.rate_at(SimTime::ZERO), Rate::bps(8));
        assert_eq!(p.rate_at(SimTime::from_millis(999)), Rate::bps(8));
        assert_eq!(p.rate_at(SimTime::from_secs(1)), Rate::bps(0));
        assert_eq!(p.rate_at(SimTime::from_secs(3)), Rate::bps(16));
    }

    #[test]
    fn work_bits_integrates_exactly() {
        let p = on_off();
        assert_eq!(
            p.work_bits(SimTime::ZERO, SimTime::from_secs(3)),
            // 8 bits (first on-second) + nothing (off) + 16 (second on).
            Ratio::from_int(8 + 16)
        );
        assert_eq!(
            p.work_bits(SimTime::from_millis(500), SimTime::from_millis(1500)),
            Ratio::from_int(4)
        );
    }

    #[test]
    fn finish_time_spans_zero_rate_gap() {
        let p = on_off();
        // 2 bytes = 16 bits starting at t=0: 8 bits by t=1, gap until 2,
        // remaining 8 bits at 16 bps = 0.5 s.
        assert_eq!(
            p.finish_time(SimTime::ZERO, Bytes::new(2)),
            SimTime::from_millis(2500)
        );
    }

    #[test]
    fn finish_time_constant() {
        let p = RateProfile::constant(Rate::mbps(1));
        // 125 bytes = 1000 bits at 1e6 bps = 1 ms.
        assert_eq!(
            p.finish_time(SimTime::from_secs(1), Bytes::new(125)),
            SimTime::from_secs(1) + SimDuration::from_millis(1)
        );
    }

    /// `finish_time` as it was when every segment divided rationals.
    fn finish_time_by_division(p: &RateProfile, t0: SimTime, len: Bytes) -> SimTime {
        let mut remaining = len.bits_ratio();
        let mut t = t0;
        let from = p.segments.iter().rposition(|s| s.start <= t0).unwrap_or(0);
        for (i, seg) in p.segments.iter().enumerate().skip(from) {
            let rate = seg.rate.as_ratio();
            let room = p
                .segments
                .get(i + 1)
                .map(|n| (n.start, rate * (n.start - t).as_ratio()));
            match room {
                Some((end, capacity)) if capacity < remaining || rate.is_zero() => {
                    remaining -= capacity;
                    t = end;
                }
                _ => return t + SimDuration::from_ratio(remaining / rate),
            }
        }
        unreachable!("the last segment returns")
    }

    #[test]
    fn finish_time_agrees_with_dividing_rationals() {
        // Constant, stepped (a boundary crossed at a fractional bit
        // count: 7 bps for 1/3 s) and zero-rate-gap profiles.
        let third = SimTime::from_ratio(Ratio::new(1, 3));
        let stepped = RateProfile::from_segments(vec![
            Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(7),
            },
            Segment {
                start: third,
                rate: Rate::bps(1_000_003),
            },
            Segment {
                start: SimTime::from_secs(2),
                rate: Rate::kbps(64),
            },
        ]);
        let profiles = [
            RateProfile::constant(Rate::bps(45_511_111)),
            stepped,
            on_off(),
        ];
        // A finish time as a link leaves it, on the lattice 10^9 · C,
        // and one more hop at a coprime rate, whose lattice no machine
        // word holds.
        let ns = SimTime::from_nanos(1_999_999_999);
        let seated = ns.advance(12_000, Rate::bps(45_511_111)).unwrap();
        let two_hop = seated.advance(4_608, Rate::bps(1_000_003)).unwrap();
        for p in &profiles {
            for t0 in [SimTime::ZERO, third, ns, seated, two_hop] {
                for len in [1, 2, 64, 1_500, 250_000] {
                    let len = Bytes::new(len);
                    assert_eq!(
                        p.finish_time(t0, len),
                        finish_time_by_division(p, t0, len),
                        "{len} from {t0:?} on {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn finish_time_zero_len_is_instant() {
        let p = on_off();
        assert_eq!(
            p.finish_time(SimTime::from_secs(1), Bytes::ZERO),
            SimTime::from_secs(1)
        );
    }

    #[test]
    fn average_rate_over_horizon() {
        let p = on_off();
        assert_eq!(p.average_rate(SimTime::from_secs(2)), Ratio::from_int(4));
    }

    #[test]
    fn scaled_window_droops_and_recovers() {
        let p = RateProfile::constant(Rate::bps(1_000));
        let d = p.scaled_window(SimTime::from_secs(2), SimTime::from_secs(3), 50);
        assert_eq!(d.rate_at(SimTime::from_secs(1)), Rate::bps(1_000));
        assert_eq!(d.rate_at(SimTime::from_secs(2)), Rate::bps(500));
        assert_eq!(d.rate_at(SimTime::from_millis(2_999)), Rate::bps(500));
        assert_eq!(d.rate_at(SimTime::from_secs(3)), Rate::bps(1_000));
        // Work lost is exactly half the window.
        assert_eq!(
            d.work_bits(SimTime::ZERO, SimTime::from_secs(4)),
            Ratio::from_int(4_000 - 500)
        );
    }

    #[test]
    fn scaled_window_full_outage_on_piecewise_profile() {
        let p = on_off();
        // Outage [500 ms, 2500 ms): spans the tail of the first on
        // phase, the whole off phase, and the head of the 16 bps phase.
        let d = p.scaled_window(SimTime::from_millis(500), SimTime::from_millis(2_500), 0);
        assert_eq!(d.rate_at(SimTime::ZERO), Rate::bps(8));
        assert_eq!(d.rate_at(SimTime::from_millis(600)), Rate::bps(0));
        assert_eq!(d.rate_at(SimTime::from_millis(2_400)), Rate::bps(0));
        assert_eq!(d.rate_at(SimTime::from_secs(3)), Rate::bps(16));
        // 4 bits before the outage, then 8 bps-equivalent work resumes.
        assert_eq!(
            d.work_bits(SimTime::ZERO, SimTime::from_millis(2_500)),
            Ratio::from_int(4)
        );
    }

    #[test]
    fn scaled_window_hundred_percent_is_identity() {
        let p = on_off();
        let d = p.scaled_window(SimTime::from_millis(500), SimTime::from_millis(1_500), 100);
        for t in [0i128, 500, 999, 1_000, 1_500, 2_500] {
            assert_eq!(
                d.rate_at(SimTime::from_millis(t)),
                p.rate_at(SimTime::from_millis(t))
            );
        }
        assert_eq!(
            d.work_bits(SimTime::ZERO, SimTime::from_secs(5)),
            p.work_bits(SimTime::ZERO, SimTime::from_secs(5))
        );
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn profile_must_start_at_zero() {
        let _ = RateProfile::from_segments(vec![Segment {
            start: SimTime::from_secs(1),
            rate: Rate::bps(1),
        }]);
    }

    #[test]
    #[should_panic(expected = "non-zero rate")]
    fn profile_must_not_end_at_zero_rate() {
        let _ = RateProfile::from_segments(vec![
            Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(8),
            },
            Segment {
                start: SimTime::from_secs(1),
                rate: Rate::bps(0),
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn segments_must_increase() {
        let _ = RateProfile::from_segments(vec![
            Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(1),
            },
            Segment {
                start: SimTime::ZERO,
                rate: Rate::bps(2),
            },
        ]);
    }
}
