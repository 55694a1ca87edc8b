//! Deterministic event queue.
//!
//! A classic discrete-event core: events carry an exact timestamp, the
//! queue pops them in time order, and simultaneous events are delivered
//! in the order they were scheduled (monotone sequence numbers) so runs
//! are bit-for-bit reproducible.
//!
//! # Two lanes, one order
//!
//! Pending events live in one of two lanes. An event scheduled at a
//! time no earlier than the last event of the *run* is appended to the
//! run, a `VecDeque`; sequence numbers only grow, so the run is sorted
//! by `(time, seq)` without ever comparing more than its last entry.
//! Every other event goes to the binary heap. `pop` takes whichever
//! lane's front is smaller under the same `(time, seq)` order the heap
//! alone used to apply, and `(time, seq)` is a total order over all
//! pending events, so the delivery sequence is the one a single heap
//! would produce — the lanes change what an operation costs, not what
//! it returns. A simulation that schedules in time order pays O(1) per
//! event; scheduled in any other pattern the queue degrades to the heap
//! plus one comparison per operation.
//!
//! # Merging a sorted stream of the caller's own
//!
//! A caller that already holds part of its future in time order (the
//! graph executor: its scripted injections) need not copy it in here.
//! If those events outrank every queued one at their own instant — as
//! they would had they all been scheduled first — then
//! [`EventQueue::pop_before`]`(t)`, with `t` the stream's next instant,
//! delivers exactly the queued events that come before it in
//! `(time, seq)` order, and [`EventQueue::advance_to`]`(t)` moves the
//! clock there when the stream's event fires, so that
//! [`EventQueue::schedule`] keeps refusing the past as the caller sees
//! it.

use simtime::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// Which lane holds the next event.
#[derive(Clone, Copy)]
enum Lane {
    Run,
    Heap,
}

/// A time-ordered queue of events of type `E` with a simulation clock.
pub struct EventQueue<E> {
    /// Events scheduled at a time >= the run's last: sorted by
    /// `(time, seq)` by construction.
    run: VecDeque<Entry<E>>,
    /// Everything else.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// New queue with the clock at t = 0.
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute time `t`. Panics if `t` is in the
    /// past — a causality violation, always a bug in the model.
    pub fn schedule(&mut self, t: SimTime, event: E) {
        assert!(t >= self.now, "event scheduled in the past");
        let entry = Entry {
            time: t,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.run.back().is_none_or(|last| last.time <= t) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Schedule `event` after a non-negative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        assert!(!delay.is_negative(), "negative event delay");
        let t = self.now + delay;
        self.schedule(t, event);
    }

    /// Lane and timestamp of the next event by `(time, seq)`.
    fn next(&self) -> Option<(Lane, SimTime)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) if h < r => Some((Lane::Heap, h.time)),
            (Some(r), _) => Some((Lane::Run, r.time)),
            (None, Some(Reverse(h))) => Some((Lane::Heap, h.time)),
            (None, None) => None,
        }
    }

    /// Take the front of `lane`, advancing the clock to its timestamp.
    fn take(&mut self, lane: Lane) -> Option<(SimTime, E)> {
        let e = match lane {
            Lane::Run => self.run.pop_front()?,
            Lane::Heap => self.heap.pop()?.0,
        };
        self.now = e.time;
        self.processed += 1;
        Some((e.time, e.event))
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (lane, _) = self.next()?;
        self.take(lane)
    }

    /// Pop the next event if it is due at or before `horizon`;
    /// otherwise leave the queue and the clock untouched.
    pub fn pop_through(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (lane, due) = self.next()?;
        if due > horizon {
            return None;
        }
        self.take(lane)
    }

    /// Pop the next event if it is due strictly before `t`; otherwise
    /// leave the queue and the clock untouched. See the module docs on
    /// merging.
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let (lane, due) = self.next()?;
        if due >= t {
            return None;
        }
        self.take(lane)
    }

    /// Move the clock forward to `t` without delivering anything: an
    /// event the caller holds outside the queue fires at `t`. Panics if
    /// `t` is before the clock, or past a pending event — which would
    /// then be delivered in the caller's past. Both are causality
    /// violations, always a bug in the model.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock moved into the past");
        assert!(
            self.next().is_none_or(|(_, due)| due >= t),
            "clock moved past a pending event"
        );
        self.now = t;
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(_, due)| due)
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        let _ = q.pop();
        q.schedule_in(SimDuration::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        let _ = q.pop();
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    fn equal_time_events_stay_fifo_across_the_two_lanes() {
        let mut q = EventQueue::new();
        let (t5, t7) = (SimTime::from_secs(5), SimTime::from_secs(7));
        q.schedule(t5, 0); // run
        q.schedule(t7, 1); // run
        q.schedule(t5, 2); // before the run's last: heap
        q.schedule(t7, 3); // run again
        q.schedule(t5, 4); // heap
        assert_eq!((q.run.len(), q.heap.len()), (3, 2));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2, 4, 1, 3]);
    }

    #[test]
    fn pop_through_stops_at_the_horizon_without_moving_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        assert_eq!(q.pop_through(SimTime::ZERO), None);
        assert_eq!((q.now(), q.processed(), q.len()), (SimTime::ZERO, 0, 2));
        // An event exactly at the horizon still fires.
        assert_eq!(
            q.pop_through(SimTime::from_secs(1)),
            Some((SimTime::from_secs(1), "a"))
        );
        assert_eq!(q.pop_through(SimTime::from_secs(2)), None);
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(
            q.pop_through(SimTime::from_secs(9)).map(|(_, e)| e),
            Some("b")
        );
        assert_eq!(q.pop_through(SimTime::from_secs(9)), None);
    }

    #[test]
    fn pop_before_is_strict_and_leaves_ties_to_the_caller() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        assert_eq!(
            q.pop_before(SimTime::from_secs(3)),
            Some((SimTime::from_secs(1), "a"))
        );
        // Due exactly at the limit: the caller's own event goes first.
        assert_eq!(q.pop_before(SimTime::from_secs(3)), None);
        assert_eq!(
            (q.now(), q.processed(), q.len()),
            (SimTime::from_secs(1), 1, 1)
        );
        q.advance_to(SimTime::from_secs(3));
        assert_eq!(
            (q.now(), q.processed(), q.len()),
            (SimTime::from_secs(3), 1, 1)
        );
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn an_advanced_clock_refuses_what_is_behind_it() {
        // Nothing was popped: without `advance_to` the clock would
        // still read zero and this `schedule` would go through.
        let mut q = EventQueue::new();
        q.advance_to(SimTime::from_secs(5));
        q.schedule(SimTime::from_secs(4), ());
    }

    #[test]
    #[should_panic(expected = "clock moved into the past")]
    fn advancing_backwards_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(5));
        q.advance_to(SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "clock moved past a pending event")]
    fn advancing_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.advance_to(SimTime::from_secs(2)); // a tie is the caller's
        q.advance_to(SimTime::from_secs(3));
    }

    #[test]
    fn empty_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a reference model: popping everything yields events
        /// sorted by (time, insertion order).
        #[test]
        fn pops_match_reference_sort(times in prop::collection::vec(0i128..1_000, 1..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(t), i);
            }
            let mut reference: Vec<(i128, usize)> =
                times.iter().copied().zip(0..times.len()).collect();
            reference.sort();
            let popped: Vec<(i128, usize)> = std::iter::from_fn(|| {
                q.pop().map(|(t, id)| ((t.as_secs_f64() * 1000.0).round() as i128, id))
            })
            .collect();
            prop_assert_eq!(popped, reference);
        }

        /// Interleaved schedule/pop: the clock never goes backwards and
        /// every event is delivered exactly once.
        #[test]
        fn interleaved_ops_keep_clock_monotone(
            ops in prop::collection::vec(prop::option::of(0i128..1_000), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut scheduled = 0usize;
            let mut popped = 0usize;
            let mut last = SimTime::ZERO;
            for op in ops {
                match op {
                    Some(dt) => {
                        // Schedule relative to now (always legal).
                        q.schedule_in(SimDuration::from_millis(dt), scheduled);
                        scheduled += 1;
                    }
                    None => {
                        if let Some((t, _)) = q.pop() {
                            prop_assert!(t >= last);
                            last = t;
                            popped += 1;
                        }
                    }
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(popped, scheduled);
            prop_assert_eq!(q.processed(), scheduled as u64);
        }
    }

    /// One step of the differential test; times are milliseconds.
    #[derive(Clone, Debug)]
    enum Op {
        /// `schedule` at now + the offset.
        At(i128),
        /// `schedule_in` the offset.
        In(i128),
        Pop,
        /// `pop_through` now + the offset.
        PopThrough(i128),
        /// One step of a merge with a stream whose next event is at
        /// now + the offset: `pop_before` it, and if nothing comes
        /// before it, `advance_to` it.
        Merge(i128),
    }

    /// Offsets from a few values, so that equal-time bursts are the
    /// rule and land on both sides of the run's last entry, mixed with
    /// far ones that move that entry out of reach.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0i128..4).prop_map(Op::At),
            (0i128..4).prop_map(Op::In),
            (0i128..400).prop_map(Op::At),
            Just(Op::Pop),
            Just(Op::Pop),
            (0i128..6).prop_map(Op::PopThrough),
            (0i128..6).prop_map(Op::Merge),
        ]
    }

    /// What is scheduled before the first pop: nothing; a sorted bulk
    /// script (a simulation that schedules its arrivals up front —
    /// everything dynamic then lands before the run's last entry); one
    /// far-future event (the run is stuck behind it and everything else
    /// takes the heap); or the far-future event and then the script.
    fn preload() -> impl Strategy<Value = Vec<i128>> {
        let script = || {
            prop::collection::vec(0i128..300, 1..80).prop_map(|mut v| {
                v.sort_unstable();
                v
            })
        };
        prop_oneof![
            Just(Vec::new()),
            script(),
            Just(vec![1_000_000]),
            script().prop_map(|mut v| {
                v.insert(0, 1_000_000);
                v
            }),
        ]
    }

    /// The queue and its model: a `BTreeMap` keyed by `(time, seq)` is
    /// the specification of the delivery order.
    struct Pair {
        q: EventQueue<u64>,
        model: BTreeMap<(SimTime, u64), u64>,
        seq: u64,
        now: SimTime,
        processed: u64,
    }

    impl Pair {
        /// Schedule the next id `delay` from now on both sides, through
        /// `schedule_in` or through `schedule` at the absolute time.
        fn schedule(&mut self, delay: SimDuration, relative: bool) {
            let t = self.now + delay;
            if relative {
                self.q.schedule_in(delay, self.seq);
            } else {
                self.q.schedule(t, self.seq);
            }
            self.model.insert((t, self.seq), self.seq);
            self.seq += 1;
        }

        /// Pop both sides (through `horizon`, if given) and compare.
        fn pop(&mut self, horizon: Option<SimTime>) -> Result<(), TestCaseError> {
            let due = self
                .model
                .first_key_value()
                .map(|(&(t, _), _)| t)
                .filter(|&t| horizon.is_none_or(|h| t <= h));
            let want = due.and_then(|_| self.model.pop_first().map(|((t, _), id)| (t, id)));
            let got = match horizon {
                Some(h) => self.q.pop_through(h),
                None => self.q.pop(),
            };
            prop_assert_eq!(got, want);
            if let Some((t, _)) = want {
                self.now = t;
                self.processed += 1;
            }
            Ok(())
        }

        /// One merge step on both sides: the model delivers its first
        /// event if that is due strictly before `t`, and otherwise its
        /// clock moves to `t` with nothing delivered.
        fn merge(&mut self, t: SimTime) -> Result<(), TestCaseError> {
            let first = self.model.first_key_value().map(|(&(due, _), _)| due);
            let want = match first {
                Some(due) if due < t => self.model.pop_first().map(|((due, _), id)| (due, id)),
                _ => None,
            };
            prop_assert_eq!(self.q.pop_before(t), want);
            match want {
                Some((due, _)) => {
                    self.now = due;
                    self.processed += 1;
                }
                None => {
                    self.q.advance_to(t);
                    self.now = t;
                }
            }
            Ok(())
        }

        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.q.len(), self.model.len());
            prop_assert_eq!(self.q.is_empty(), self.model.is_empty());
            prop_assert_eq!(
                self.q.peek_time(),
                self.model.first_key_value().map(|(&(t, _), _)| t)
            );
            prop_assert_eq!(self.q.now(), self.now);
            prop_assert_eq!(self.q.processed(), self.processed);
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential: under any interleaving of `schedule`,
        /// `schedule_in`, `pop`, `pop_through` and merge steps
        /// (`pop_before`, then `advance_to` when nothing came before),
        /// the two-lane queue delivers exactly what one
        /// `(time, seq)`-ordered map would, and its observers — the
        /// clock an advance moved included — agree with the model at
        /// every step.
        #[test]
        fn two_lanes_match_a_btreemap_model(
            preload in preload(),
            ops in prop::collection::vec(op(), 1..300),
        ) {
            let mut p = Pair {
                q: EventQueue::new(),
                model: BTreeMap::new(),
                seq: 0,
                now: SimTime::ZERO,
                processed: 0,
            };
            for t in preload {
                p.schedule(SimDuration::from_millis(t), false);
                p.check()?;
            }
            for op in ops {
                match op {
                    Op::At(dt) => p.schedule(SimDuration::from_millis(dt), false),
                    Op::In(dt) => p.schedule(SimDuration::from_millis(dt), true),
                    Op::Pop => p.pop(None)?,
                    Op::PopThrough(dt) => p.pop(Some(p.now + SimDuration::from_millis(dt)))?,
                    Op::Merge(dt) => p.merge(p.now + SimDuration::from_millis(dt))?,
                }
                p.check()?;
            }
            while !p.model.is_empty() {
                p.pop(None)?;
                p.check()?;
            }
            prop_assert_eq!(p.q.pop(), None);
        }
    }
}
