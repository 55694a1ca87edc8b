//! Table 1's cost column, counted: the tag core's `O(log Q)` per
//! packet, as tag comparisons rather than wall-clock time, so the
//! number is the same on every machine and every run.
//!
//! `Counting` wraps a tag arithmetic and counts every comparison of
//! two of its tags in a thread-local counter; everything else it hands
//! to the arithmetic it wraps. The head-of-flow heap orders entries by
//! tag first, so the count is the heap's work plus whatever the rule
//! compares itself. Each of the six tag-core instantiations that takes
//! its arithmetic as a type parameter — SFQ, SCFQ, each exact and
//! fixed-point, Virtual Clock and Delay EDD — is preloaded with `Q`
//! backlogged flows and then driven through a fixed number of steady
//! enqueue + dequeue pairs.

use sfq_core::{
    Deadline, Exact, FinishClock, Fixed, FlowId, PacketFactory, SchedError, Scheduler, StartClock,
    TagArith, TagSched, VtRule, WallClock,
};
use simtime::{Bytes, Rate, Ratio, SimTime};
use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// Tag comparisons made on this thread so far.
fn comparisons() -> u64 {
    COMPARISONS.with(Cell::get)
}

/// A tag of [`Counting`]: `T`, whose every `cmp` / `partial_cmp` adds
/// one to the thread's comparison count. Equality is not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counted<T>(T);

impl<T: Ord> Ord for Counted<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|n| n.set(n.get() + 1));
        self.0.cmp(&other.0)
    }
}

impl<T: Ord> PartialOrd for Counted<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The arithmetic `A`, its tags [`Counted`]. The operations `A` runs on
/// its own tags (`max`, `+` …) are not counted.
#[derive(Clone, Copy, Debug, Default)]
struct Counting<A>(A);

impl<A: TagArith> TagArith for Counting<A> {
    type Tag = Counted<A::Tag>;
    type Inc = A::Inc;
    type Tie = A::Tie;

    const ZERO: Self::Tag = Counted(A::ZERO);
    const FIXED: bool = A::FIXED;
    const CHECKED_REBASE: bool = A::CHECKED_REBASE;

    fn inc(&self, flow: FlowId, rate: Rate) -> Result<A::Inc, SchedError> {
        self.0.inc(flow, rate)
    }
    fn advance(start: Self::Tag, rate: Rate, inc: A::Inc, len: Bytes) -> Option<Self::Tag> {
        A::advance(start.0, rate, inc, len).map(Counted)
    }
    fn max(a: Self::Tag, b: Self::Tag) -> Self::Tag {
        Counted(A::max(a.0, b.0))
    }
    fn add(tag: Self::Tag, offset: Self::Tag) -> Option<Self::Tag> {
        A::add(tag.0, offset.0).map(Counted)
    }
    fn outgrown(v: Self::Tag, threshold_bits: u32) -> bool {
        A::outgrown(v.0, threshold_bits)
    }
    fn rebase_base(&self, v: Self::Tag) -> Option<Self::Tag> {
        self.0.rebase_base(v.0).map(Counted)
    }
    fn rebased(tag: Self::Tag, base: Self::Tag) -> Option<Self::Tag> {
        A::rebased(tag.0, base.0).map(Counted)
    }
    fn to_ratio(&self, tag: Self::Tag) -> Ratio {
        self.0.to_ratio(tag.0)
    }
    fn tag(&self, r: Ratio) -> Option<Self::Tag> {
        self.0.tag(r).map(Counted)
    }
}

/// The backlogged-flow counts compared: `log2` 9 and 13.
pub const FLOWS: [u32; 2] = [512, 8_192];

/// Counted enqueue + dequeue pairs per point: one round of the larger
/// `Q`.
const PAIRS: u32 = 8_192;

/// Comparisons per pair on `TagSched<Counting<A>, V>` with `q` flows of
/// weights 1–8 × 64 Kb/s, even flows two packets deep and odd flows
/// one. Each pair serves the head packet and queues one more on its
/// flow, so all `q` flows stay backlogged, and the heap's two ways in
/// both run: an even flow's next head returns with the dequeue's
/// refill, a drained odd flow's with a push.
fn per_pair<A: TagArith + Default, V: VtRule>(q: u32) -> f64
where
    V::Clock: Default,
{
    let mut s = TagSched::<Counting<A>, V>::default();
    let mut pf = PacketFactory::new();
    let (now, len) = (SimTime::ZERO, Bytes::new(200));
    for f in 0..q {
        s.add_flow(FlowId(f), Rate::kbps(64 * (1 + u64::from(f % 8))));
    }
    for f in (0..q).chain((0..q).step_by(2)) {
        s.enqueue(now, pf.make(FlowId(f), len, now));
    }
    let before = comparisons();
    for _ in 0..PAIRS {
        let p = s.dequeue(now).expect("every flow stays backlogged");
        s.on_departure(now);
        s.enqueue(now, pf.make(p.flow, len, now));
    }
    (comparisons() - before) as f64 / f64::from(PAIRS)
}

/// A discipline's `Scheduler::name` and its comparisons per pair at
/// each of [`FLOWS`].
fn cost<A: TagArith + Default, V: VtRule>() -> (&'static str, [f64; 2])
where
    V::Clock: Default,
{
    (
        TagSched::<A, V>::default().name(),
        FLOWS.map(per_pair::<A, V>),
    )
}

/// The count for each of the six instantiations.
pub fn pair_costs() -> [(&'static str, [f64; 2]); 6] {
    [
        cost::<Exact, StartClock>(),
        cost::<Fixed, StartClock>(),
        cost::<Exact, FinishClock>(),
        cost::<Fixed, FinishClock>(),
        cost::<Exact, WallClock>(),
        cost::<Exact, Deadline>(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_core::{SchedEvent, SchedObserver};

    /// Every packet event, in order: 0 enqueue, 1 dequeue, 2 drop.
    #[derive(Debug, Default)]
    struct Log(Vec<(u8, SchedEvent)>);

    impl SchedObserver for Log {
        fn on_enqueue(&mut self, ev: &SchedEvent) {
            self.0.push((0, *ev));
        }
        fn on_dequeue(&mut self, ev: &SchedEvent) {
            self.0.push((1, *ev));
        }
        fn on_drop(&mut self, ev: &SchedEvent) {
            self.0.push((2, *ev));
        }
    }

    /// 200 calls on four flows at weights 2, 3, 5 and 7: arrivals of
    /// mixed lengths, dequeues, departures and head drops. Returns every
    /// event, so the departure order with them.
    fn run<A: TagArith + Default, V: VtRule>() -> Vec<(u8, SchedEvent)>
    where
        V::Clock: Default,
    {
        let mut s = TagSched::<A, V, Log>::default();
        let mut pf = PacketFactory::new();
        for (f, w) in [2, 3, 5, 7].into_iter().enumerate() {
            s.add_flow(FlowId(f as u32), Rate::kbps(16 * w));
        }
        for i in 0..200u32 {
            let now = SimTime::from_micros(i128::from(i) * 700);
            let len = Bytes::new(u64::from(40 + i * 37 % 960));
            match i % 5 {
                0..=2 => s.enqueue(now, pf.make(FlowId(i * 7 % 4), len, now)),
                3 => drop(s.dequeue(now)),
                _ if i % 50 == 49 => drop(s.drop_head(FlowId(i % 4))),
                _ => s.on_departure(now),
            }
        }
        s.into_observer().0
    }

    fn same<A: TagArith + Default, V: VtRule>()
    where
        V::Clock: Default,
    {
        let (plain, counted) = (run::<A, V>(), run::<Counting<A>, V>());
        let seen = |kind| plain.iter().filter(|&&(k, _)| k == kind).count();
        assert!(seen(1) > 30 && seen(2) > 0, "the workload serves and drops");
        assert_eq!(plain, counted, "{}", TagSched::<A, V>::default().name());
    }

    #[test]
    fn the_counter_changes_no_decision() {
        same::<Exact, StartClock>();
        same::<Fixed, StartClock>();
        same::<Exact, FinishClock>();
        same::<Fixed, FinishClock>();
        same::<Exact, WallClock>();
        same::<Exact, Deadline>();
    }
}
