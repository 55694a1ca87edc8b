//! The SFQ server an interior class runs over its children (Section 3).
//!
//! Hierarchical SFQ treats each child of a class as a flow of one SFQ
//! server. [`RootSfq`] is that server: the sharded engine runs one over
//! its shards, whose "packets" are the batches it pulls, and every
//! interior class of [`HierSfq`](crate::HierSfq) runs one over its
//! subclasses. Serving class `i` stamps it with the start tag
//! `S_i = max(v, F_i)` — Eq. 4 with the server's own virtual time —
//! then sets `v := S_i` and `F_i := snap_pico(S_i + bits / R_i)`
//! (Eq. 5), `R_i` being the class's weight (for a shard, the sum of its
//! flows' rates). When every class drains empty the busy period ends
//! and `v` becomes the maximum finish tag served, as in the leaf
//! discipline.
//!
//! The finish tag is snapped to the picosecond grid where it is
//! written, as `Sfq`'s exact arithmetic does ([`Ratio::snap_pico`]:
//! unsnapped, coprime weights and live weight changes grow the tags'
//! denominators until they leave `i128`). `v` is only ever a tag
//! already written, so every tag the server holds is on the grid and
//! nothing is snapped where it is read. The start is computed when the
//! class is served, not fixed when it becomes backlogged; the two
//! agree, because `v` moves only to the least start among the classes
//! `pick` chooses from and so never passes a waiting class's own (a
//! weightless class, which `pick` skips, aside).
//!
//! A batch's size is only known after its shard is drained, so selection
//! and charging are split: [`RootSfq::pick`] chooses the class and
//! [`RootSfq::charge`] bills the bits taken. Between the two the state is
//! untouched and both apply the one start rule, so the sequence is a pure
//! function of the bits charged. Rebasing (shifting every tag down by
//! `⌊min tag⌋` once magnitudes grow) commutes with the snap.
//!
//! The tags are exact but not kept reduced: each is an [`Unreduced`]
//! fraction seated on the lattice of its class's rate, so a class that
//! stays ahead of `v` at an unchanged rate is charged by one
//! divisibility test and one multiply-add ([`Unreduced::advance`]). The
//! snap reduces the finish tag, a gcd, only when the rates charged so
//! far have no common multiple within `10¹²`; otherwise every tag is a
//! multiple of one over that lattice, already on the grid, and the snap
//! provably changes nothing.
//! [`RootSfq::virtual_time`] reduces on read, and the rebase rule reduces
//! every tag before it judges magnitudes, so the observable sequence —
//! picks, `v`, rebase count, the `TagOverflow` point — is the one reduced
//! [`Ratio`] arithmetic produces (the module's tests keep that
//! arithmetic as the oracle).

use crate::packet::FlowId;
use crate::sched::SchedError;
use simtime::{Rate, Ratio, Unreduced};

/// The picosecond grid's denominator.
const PICO: u64 = 1_000_000_000_000;

#[derive(Clone, Copy, Debug, Default)]
struct Class {
    /// Aggregate weight `R_i`, in bps: for a shard, the sum of its
    /// registered flow rates.
    weight_bps: u64,
    /// Administrative override of `R_i` (the `SetShardWeight`
    /// reconfiguration command); `None` uses the aggregate.
    override_bps: Option<u64>,
    /// Finish tag of the class's most recent service.
    last_finish: Unreduced,
    /// The effective rate last joined to the server's lattice (0:
    /// none yet).
    lattice_bps: u64,
}

impl Class {
    /// Effective `R_i`: the override when set, else the aggregate.
    fn effective_bps(&self) -> u64 {
        self.override_bps.unwrap_or(self.weight_bps)
    }
}

/// The SFQ server of one interior class. See the module docs for the
/// algorithm.
#[derive(Clone, Debug)]
pub struct RootSfq {
    classes: Vec<Class>,
    /// Virtual time: start tag of the class most recently served.
    v: Unreduced,
    /// A common denominator of every tag, while one within the
    /// picosecond grid is known: the lcm of the rates charged so far,
    /// `None` once that passes `10¹²`. Each tag is then a multiple of
    /// `1 / lattice`, its reduced denominator is within the grid, and
    /// `snap_pico` would return it unchanged: [`RootSfq::charge`] skips
    /// it.
    lattice: Option<u64>,
    /// Running max of finish tags served; becomes `v` when the busy
    /// period ends.
    max_finish_served: Unreduced,
    /// No tag is stored wider than this many bits: raised by every
    /// finish tag written, made exact again whenever a rebase looks.
    widest_bits: u32,
    rebase_bits: Option<u32>,
    rebases: u64,
}

impl RootSfq {
    /// Server over `classes` classes, all initially weightless.
    pub fn new(classes: usize, rebase_bits: Option<u32>) -> Self {
        RootSfq {
            classes: vec![Class::default(); classes],
            v: Unreduced::ZERO,
            lattice: Some(1),
            max_finish_served: Unreduced::ZERO,
            widest_bits: 1,
            rebase_bits,
            rebases: 0,
        }
    }

    /// Append a class of weight `weight_bps` with no service history;
    /// returns its index.
    pub(crate) fn add_class(&mut self, weight_bps: u64) -> usize {
        self.classes.push(Class {
            weight_bps,
            ..Class::default()
        });
        self.classes.len() - 1
    }

    /// Adjust class `class`'s aggregate weight by a flow's rate moving
    /// from `old_bps` (0 for a new flow) to `new_bps`.
    pub fn reweigh(&mut self, class: usize, old_bps: u64, new_bps: u64) {
        let c = &mut self.classes[class];
        c.weight_bps = c.weight_bps - old_bps + new_bps;
    }

    /// Aggregate weight `R_i` of class `class`, in bps.
    pub fn weight_bps(&self, class: usize) -> u64 {
        self.classes[class].weight_bps
    }

    /// Override shard `shard`'s effective aggregate weight with a fixed
    /// rate, or return to the flow-sum aggregate with `None` (the
    /// `SetShardWeight` reconfiguration command). The flow-sum keeps
    /// accumulating underneath, so clearing the override restores exact
    /// per-flow bookkeeping. Errors with [`SchedError::UnknownShard`]
    /// for an out-of-range shard and [`SchedError::ZeroWeight`] for a
    /// zero-rate override (a weightless shard would never be picked,
    /// silently parking its flows — park explicitly instead).
    pub fn set_shard_weight(&mut self, shard: usize, rate: Option<Rate>) -> Result<(), SchedError> {
        let Some(c) = self.classes.get_mut(shard) else {
            return Err(SchedError::UnknownShard(shard));
        };
        if let Some(r) = rate {
            if r.as_bps() == 0 {
                return Err(SchedError::ZeroWeight(FlowId(shard as u32)));
            }
        }
        c.override_bps = rate.map(|r| r.as_bps());
        Ok(())
    }

    /// The administrative override on shard `shard`, if any.
    pub fn shard_weight_override(&self, shard: usize) -> Option<u64> {
        self.classes.get(shard).and_then(|c| c.override_bps)
    }

    /// Current virtual time, reduced for the reader.
    pub fn virtual_time(&self) -> Ratio {
        self.v.reduce()
    }

    /// Times the scalar state has been rebased.
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// The start tag `c` is stamped with if served now (module docs).
    #[inline]
    fn start(&self, c: &Class) -> Unreduced {
        c.last_finish.max(self.v)
    }

    /// Class `class`'s start tag if served now and its finish tag,
    /// reduced for an observer.
    pub(crate) fn tags(&self, class: usize) -> (Ratio, Ratio) {
        let c = &self.classes[class];
        (self.start(c).reduce(), c.last_finish.reduce())
    }

    /// Choose the next class to serve among those with
    /// `backlogged[i] == true` (a mask shorter than the classes leaves
    /// the rest out): minimum start tag, class index breaking ties.
    /// Returns `None` when nothing is backlogged.
    pub fn pick(&self, backlogged: &[bool]) -> Option<usize> {
        let mut best: Option<(Unreduced, usize)> = None;
        for (i, (c, &busy)) in self.classes.iter().zip(backlogged).enumerate() {
            if !busy || c.effective_bps() == 0 {
                continue;
            }
            let start = self.start(c);
            if best.is_none_or(|b| (start, i) < b) {
                best = Some((start, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Serve `bits` from class `class`: stamp its start tag `S`, set
    /// `v := S` and `F_i := snap_pico(S + bits / R_i)`. Errors with
    /// [`SchedError::TagOverflow`] only if tag arithmetic leaves `i128`
    /// range despite rebasing, leaving the server untouched.
    pub fn charge(&mut self, class: usize, bits: u64) -> Result<(), SchedError> {
        self.maybe_rebase();
        let c = self.classes[class];
        debug_assert!(c.effective_bps() > 0, "charging a weightless class");
        let rate = c.effective_bps().max(1);
        let start = self.start(&c);
        let mut finish = start
            .advance(bits as i128, rate)
            .ok_or(SchedError::TagOverflow)?;
        if rate != c.lattice_bps {
            self.lattice = self.lattice.and_then(|l| {
                let lcm = (l / gcd(l, rate)).checked_mul(rate)?;
                (lcm <= PICO).then_some(lcm)
            });
            self.classes[class].lattice_bps = rate;
        }
        if self.lattice.is_none() {
            finish = finish.reduce().snap_pico().into();
        }
        self.classes[class].last_finish = finish;
        self.widest_bits = self.widest_bits.max(finish.magnitude_bits());
        self.v = start;
        if finish > self.max_finish_served {
            self.max_finish_served = finish;
        }
        Ok(())
    }

    /// The busy period ended (every class drained empty): reset `v` to
    /// the maximum finish tag served, the leaf rule of Eq. 4's
    /// companion invariant.
    pub fn on_idle(&mut self) {
        self.v = self.max_finish_served;
    }

    /// Every tag the server holds: the classes' finish tags, then `v`,
    /// then the running maximum.
    fn tags_mut(&mut self) -> impl Iterator<Item = &mut Unreduced> {
        let finishes = self.classes.iter_mut().map(|c| &mut c.last_finish);
        finishes.chain([&mut self.v, &mut self.max_finish_served])
    }

    fn maybe_rebase(&mut self) {
        let Some(bits) = self.rebase_bits else {
            return;
        };
        if self.widest_bits <= bits {
            return;
        }
        // What is large may be the unreduced form only, or a tag since
        // overwritten: put every tag in lowest terms, then judge as
        // reduced arithmetic would.
        let widest = |tags: &[Ratio]| tags.iter().map(|t| t.magnitude_bits()).max();
        let mut tags: Vec<Ratio> = self.tags_mut().map(|t| t.reduce()).collect();
        if widest(&tags) > Some(bits) {
            // Shift every tag down by the integer part of the smallest
            // tag still in play (a finish tag or `v`), preserving all
            // differences (and therefore all pick decisions) exactly.
            let live = tags[..=self.classes.len()].iter().copied();
            let base = live.reduce(Ratio::min).map_or(0, Ratio::floor);
            let shift = Ratio::from_int(base);
            let shifted: Option<Vec<Ratio>> = tags.iter().map(|t| t.checked_sub(shift)).collect();
            if let (true, Some(shifted)) = (base != 0, shifted) {
                tags = shifted;
                self.rebases += 1;
            }
        }
        self.widest_bits = widest(&tags).unwrap_or(1);
        for (t, tag) in self.tags_mut().zip(tags) {
            *t = tag.into();
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The server in reduced [`Ratio`] arithmetic, written from the
    /// start rule of the module docs: what [`RootSfq`] has to stay
    /// indistinguishable from.
    mod oracle {
        use super::super::SchedError;
        use simtime::Ratio;

        #[derive(Clone, Copy, Debug)]
        struct Class {
            weight_bps: u64,
            override_bps: Option<u64>,
            last_finish: Ratio,
        }

        impl Class {
            fn effective_bps(&self) -> u64 {
                self.override_bps.unwrap_or(self.weight_bps)
            }
        }

        #[derive(Clone, Debug)]
        pub struct RootSfq {
            classes: Vec<Class>,
            v: Ratio,
            max_finish_served: Ratio,
            rebase_bits: Option<u32>,
            rebases: u64,
        }

        impl RootSfq {
            pub fn new(shards: usize, rebase_bits: Option<u32>) -> Self {
                let idle = Class {
                    weight_bps: 0,
                    override_bps: None,
                    last_finish: Ratio::ZERO,
                };
                RootSfq {
                    classes: vec![idle; shards],
                    v: Ratio::ZERO,
                    max_finish_served: Ratio::ZERO,
                    rebase_bits,
                    rebases: 0,
                }
            }

            pub fn reweigh(&mut self, shard: usize, old_bps: u64, new_bps: u64) {
                let c = &mut self.classes[shard];
                c.weight_bps = c.weight_bps - old_bps + new_bps;
            }

            pub fn set_shard_weight(&mut self, shard: usize, bps: Option<u64>) {
                self.classes[shard].override_bps = bps;
            }

            pub fn virtual_time(&self) -> Ratio {
                self.v
            }

            pub fn rebases(&self) -> u64 {
                self.rebases
            }

            /// Eq. 4 over the server's clock.
            fn start(&self, c: &Class) -> Ratio {
                self.v.max(c.last_finish)
            }

            pub fn pick(&self, backlogged: &[bool]) -> Option<usize> {
                let mut best: Option<(Ratio, usize)> = None;
                for (i, c) in self.classes.iter().enumerate() {
                    if !backlogged[i] || c.effective_bps() == 0 {
                        continue;
                    }
                    let start = self.start(c);
                    if best.is_none_or(|b| (start, i) < b) {
                        best = Some((start, i));
                    }
                }
                best.map(|(_, i)| i)
            }

            pub fn charge(&mut self, shard: usize, bits: u64) -> Result<(), SchedError> {
                self.maybe_rebase();
                let c = self.classes[shard];
                let start = self.start(&c);
                let span = Ratio::new(bits as i128, c.effective_bps().max(1) as i128);
                let finish = start.checked_add(span).ok_or(SchedError::TagOverflow)?;
                let finish = finish.snap_pico();
                self.classes[shard].last_finish = finish;
                self.v = start;
                self.max_finish_served = self.max_finish_served.max(finish);
                Ok(())
            }

            pub fn on_idle(&mut self) {
                self.v = self.max_finish_served;
            }

            fn maybe_rebase(&mut self) {
                let Some(bits) = self.rebase_bits else {
                    return;
                };
                let finishes = self.classes.iter().map(|c| c.last_finish);
                let tags: Vec<Ratio> = finishes.chain([self.v, self.max_finish_served]).collect();
                if tags.iter().all(|t| t.magnitude_bits() <= bits) {
                    return;
                }
                let live = &tags[..=self.classes.len()];
                let base = live.iter().copied().fold(self.v, Ratio::min).floor();
                if base == 0 {
                    return;
                }
                let shift = Ratio::from_int(base);
                let shifted: Option<Vec<Ratio>> =
                    tags.iter().map(|t| t.checked_sub(shift)).collect();
                let Some(shifted) = shifted else {
                    return;
                };
                for (c, f) in self.classes.iter_mut().zip(&shifted) {
                    c.last_finish = *f;
                }
                self.v = shifted[self.classes.len()];
                self.max_finish_served = shifted[self.classes.len() + 1];
                self.rebases += 1;
            }
        }
    }

    /// One step of a root's life, as the engine drives it.
    #[derive(Clone, Debug)]
    enum Op {
        /// `pick` among the masked shards, optionally move a weight
        /// while the batch is being pulled, then `charge`.
        Serve {
            mask: u8,
            bits: u64,
            between: Option<(usize, u64)>,
        },
        Reweigh(usize, u64),
        Override(usize, Option<u64>),
        Idle,
    }

    const SHARDS: usize = 3;

    /// Rates whose least common multiple stays small however many of
    /// them a run mixes, so that a long run never leaves `i128`; with
    /// `giants`, arbitrary ones instead, up to pairwise coprime 61- to
    /// 63-bit ones: a few charges take the tags' lowest terms past
    /// `i128`, and every charge takes the seated form past it first.
    fn bps(giants: bool) -> impl Strategy<Value = u64> {
        const TAME: [u64; 8] = [
            997, 1_000, 3_000, 64_000, 1_000_003, 1_500_000, 40_000_000, 41_000_000,
        ];
        let wild = prop_oneof![
            1u64..4_000,
            40_000_000u64..44_000_000,
            (61..64u32).prop_map(|k| (1u64 << k) - [1, 57, 25][k as usize % 3]),
        ];
        (0..TAME.len(), wild).prop_map(move |(i, w)| if giants { w } else { TAME[i] })
    }

    fn op(giants: bool) -> impl Strategy<Value = Op> {
        let big = if giants { 1u64 << 62 } else { 1 << 24 };
        let bits = prop_oneof![1u64..200_000, (big >> 4)..big];
        let between = prop::option::of((0..SHARDS, bps(giants)));
        prop_oneof![
            (1u8..8, bits, between).prop_map(|(mask, bits, between)| Op::Serve {
                mask,
                bits,
                between
            }),
            (1u8..8, 1u64..200_000).prop_map(|(mask, bits)| Op::Serve {
                mask,
                bits,
                between: None
            }),
            (0..SHARDS, bps(giants)).prop_map(|(s, r)| Op::Reweigh(s, r)),
            (0..SHARDS, prop::option::of(bps(giants))).prop_map(|(s, r)| Op::Override(s, r)),
            Just(Op::Idle),
        ]
    }

    fn rebase_bits() -> impl Strategy<Value = Option<u32>> {
        prop_oneof![Just(None), Just(Some(20u32)), Just(Some(96u32))]
    }

    /// Drive the root and the oracle through `ops` in lock step; every
    /// observable must agree after every step. Returns how many
    /// charges overflowed.
    fn assert_matches_oracle(
        rebase_bits: Option<u32>,
        weights: [u64; SHARDS],
        ops: &[Op],
    ) -> Result<usize, TestCaseError> {
        let mut root = RootSfq::new(SHARDS, rebase_bits);
        let mut old = oracle::RootSfq::new(SHARDS, rebase_bits);
        let mut weights = weights;
        for (s, &w) in weights.iter().enumerate() {
            root.reweigh(s, 0, w);
            old.reweigh(s, 0, w);
        }
        let mut reweigh = |root: &mut RootSfq, old: &mut oracle::RootSfq, s: usize, w: u64| {
            root.reweigh(s, weights[s], w);
            old.reweigh(s, weights[s], w);
            weights[s] = w;
        };
        let mut overflows = 0;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Serve {
                    mask,
                    bits,
                    between,
                } => {
                    let backlogged: Vec<bool> = (0..SHARDS).map(|s| mask >> s & 1 == 1).collect();
                    let picked = root.pick(&backlogged);
                    prop_assert_eq!(picked, old.pick(&backlogged), "pick at step {}", step);
                    if let Some((s, w)) = between {
                        reweigh(&mut root, &mut old, s, w);
                    }
                    if let Some(s) = picked {
                        let before = (root.virtual_time(), root.rebases());
                        let res = root.charge(s, bits);
                        prop_assert_eq!(res, old.charge(s, bits), "charge at step {}", step);
                        if res.is_err() {
                            overflows += 1;
                            // Untouched: same `v`, same rebase count
                            // (a rebase may have run first; it is the
                            // oracle's too), same next pick.
                            prop_assert_eq!(root.rebases(), old.rebases());
                            prop_assert_eq!(root.virtual_time(), old.virtual_time());
                            if rebase_bits.is_none() {
                                prop_assert_eq!((root.virtual_time(), root.rebases()), before);
                            }
                        }
                    }
                }
                Op::Reweigh(s, w) => reweigh(&mut root, &mut old, s, w),
                Op::Override(s, r) => {
                    root.set_shard_weight(s, r.map(Rate::bps)).unwrap();
                    old.set_shard_weight(s, r);
                }
                Op::Idle => {
                    root.on_idle();
                    old.on_idle();
                }
            }
            prop_assert_eq!(
                root.virtual_time(),
                old.virtual_time(),
                "v at step {}",
                step
            );
            prop_assert_eq!(root.rebases(), old.rebases(), "rebases at step {}", step);
            let all = [true; SHARDS];
            prop_assert_eq!(
                root.pick(&all),
                old.pick(&all),
                "next pick at step {}",
                step
            );
        }
        Ok(overflows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Unreduced tags against reduced ones: same picks, same
        /// `virtual_time()`, same rebases, under weight changes between
        /// `pick` and `charge`, overrides and idle resets, at every
        /// rebase setting the suites use.
        #[test]
        fn unreduced_root_matches_the_reduced_oracle(
            weights in (bps(false), bps(false), bps(false)),
            ops in prop::collection::vec(op(false), 1..160),
            rebase in rebase_bits(),
        ) {
            assert_matches_oracle(rebase, [weights.0, weights.1, weights.2], &ops)?;
        }

        /// The same with weights of up to 63 bits and charges of up to
        /// 2^62 bits: every tag written is on the picosecond grid, but a
        /// charge's sum needs `10¹² · R_i` as denominator before its
        /// snap, and the numerators run past `i128` after a few such
        /// charges — at the same `TagOverflow` points, the root
        /// untouched at each.
        #[test]
        fn unreduced_root_overflows_where_the_oracle_does(
            weights in (bps(true), bps(true), bps(true)),
            ops in prop::collection::vec(op(true), 1..60),
            rebase in rebase_bits(),
        ) {
            assert_matches_oracle(rebase, [weights.0, weights.1, weights.2], &ops)?;
        }
    }

    #[test]
    fn coprime_giant_weights_complete_where_the_oracle_does() {
        // Three pairwise coprime 61- to 63-bit weights, no rebasing,
        // each class starting from the one before's finish tag. Exact,
        // the third would need a denominator past `i128`; snapped, each
        // finish tag is written on the picosecond grid and the run
        // completes.
        let serve = |mask| Op::Serve {
            mask,
            bits: (1 << 50) + 1,
            between: None,
        };
        let ops = [serve(1), Op::Idle, serve(2), Op::Idle, serve(4), serve(3)];
        let weights = [(1 << 61) - 1, (1 << 62) - 57, (1 << 63) - 25];
        let overflows = assert_matches_oracle(None, weights, &ops).unwrap();
        assert_eq!(overflows, 0, "the snap no longer bounds the witness");
    }

    #[test]
    fn splits_capacity_by_aggregate_weight() {
        // Shard 0 carries twice the weight of shard 1: over any run
        // where both stay backlogged it must be picked for ~2x the
        // bits. Serve fixed 1000-bit batches and count.
        let mut root = RootSfq::new(2, None);
        root.reweigh(0, 0, 2000);
        root.reweigh(1, 0, 1000);
        let backlogged = [true, true];
        let mut served = [0u32; 2];
        for _ in 0..300 {
            let s = root.pick(&backlogged).unwrap();
            root.charge(s, 1000).unwrap();
            served[s] += 1;
        }
        assert_eq!(served[0], 200);
        assert_eq!(served[1], 100);
    }

    #[test]
    fn idle_shard_does_not_accumulate_credit() {
        // Shard 1 sits idle while shard 0 is served; when it wakes its
        // start tag snaps up to v (Eq. 4's max), so it cannot monopolize
        // the link to "catch up" — at equal weights service alternates.
        let mut root = RootSfq::new(2, None);
        root.reweigh(0, 0, 1000);
        root.reweigh(1, 0, 1000);
        for _ in 0..50 {
            let s = root.pick(&[true, false]).unwrap();
            assert_eq!(s, 0);
            root.charge(s, 1000).unwrap();
        }
        let mut served = [0u32; 2];
        for _ in 0..40 {
            let s = root.pick(&[true, true]).unwrap();
            root.charge(s, 1000).unwrap();
            served[s] += 1;
        }
        assert_eq!(served, [20, 20]);
    }

    #[test]
    fn rebasing_preserves_pick_sequence() {
        let mk = |bits| {
            let mut r = RootSfq::new(3, bits);
            r.reweigh(0, 0, 700);
            r.reweigh(1, 0, 1300);
            r.reweigh(2, 0, 400);
            r
        };
        let mut plain = mk(None);
        let mut rebased = mk(Some(20));
        let backlogged = [true, true, true];
        for step in 0..5000 {
            let a = plain.pick(&backlogged).unwrap();
            let b = rebased.pick(&backlogged).unwrap();
            assert_eq!(a, b, "pick diverged at step {step}");
            plain.charge(a, 997).unwrap();
            rebased.charge(b, 997).unwrap();
        }
        assert!(rebased.rebases() > 0, "rebase threshold never tripped");
    }

    #[test]
    fn busy_period_reset_matches_leaf_rule() {
        let mut root = RootSfq::new(1, None);
        root.reweigh(0, 0, 1000);
        root.charge(0, 5000).unwrap();
        root.on_idle();
        assert_eq!(root.virtual_time(), Ratio::new(5000, 1000));
    }

    #[test]
    fn a_class_behind_v_starts_from_v_on_the_pico_grid() {
        // Two prime weights just over 10^6: one bit from each sums to a
        // denominator past 10^12, so the finish tag that becomes `v` is
        // written rounded to the picosecond, and the class that fell
        // behind restarts from it.
        let mut root = RootSfq::new(2, None);
        root.reweigh(0, 0, 1_000_003);
        root.reweigh(1, 0, 1_000_033);
        root.charge(0, 1).unwrap();
        root.on_idle();
        root.charge(1, 1).unwrap();
        root.on_idle();
        let v = root.virtual_time();
        let exact = Ratio::new(1, 1_000_003) + Ratio::new(1, 1_000_033);
        assert!(exact.denom() > 1_000_000_000_000, "exact = {exact}");
        assert_eq!(v, exact.snap_pico());
        assert_eq!(root.pick(&[true, true]), Some(0));
        root.charge(0, 1).unwrap();
        let start = root.virtual_time();
        assert_eq!(start, v.snap_pico());
        assert_eq!(1_000_000_000_000 % start.denom(), 0, "start = {start}");
        assert!((start - v).abs() <= Ratio::new(1, 2_000_000_000_000));
    }

    #[test]
    fn a_lattice_within_the_grid_skips_only_snaps_that_change_nothing() {
        // Two primes whose product is just under 10^12: every tag is a
        // multiple of 1 / (999 983 · 1 000 003), stored over products
        // past 10^12 once classes restart from each other's tags. The
        // server skips those snaps; the oracle takes each one.
        let weights = [999_983, 1_000_003, 999_983];
        let ops: Vec<Op> = (0..400u64)
            .map(|k| match k % 5 {
                0 | 3 => Op::Serve {
                    mask: (k % 7 + 1) as u8,
                    bits: 512 + 37 * k,
                    between: None,
                },
                1 => Op::Idle,
                2 => Op::Serve {
                    mask: 7,
                    bits: 12_000 + k,
                    between: None,
                },
                _ => Op::Serve {
                    mask: (k % 3 + 1) as u8,
                    bits: 1,
                    between: None,
                },
            })
            .collect();
        for rebase in [None, Some(20)] {
            assert_matches_oracle(rebase, weights, &ops).unwrap();
        }
        let mut root = RootSfq::new(3, None);
        for (s, &w) in weights.iter().enumerate() {
            root.reweigh(s, 0, w);
            root.charge(s, 1).unwrap();
        }
        assert_eq!(root.lattice, Some(999_983 * 1_000_003));
    }

    #[test]
    fn a_short_mask_leaves_the_missing_classes_out() {
        let mut root = RootSfq::new(3, None);
        for s in 0..3 {
            root.reweigh(s, 0, 1000);
        }
        assert_eq!(root.pick(&[]), None);
        assert_eq!(root.pick(&[false, true]), Some(1));
        root.charge(1, 1000).unwrap();
        assert_eq!(root.pick(&[true]), Some(0));
    }

    #[test]
    fn live_reweighs_never_overflow_a_charge() {
        // Two backlogged classes, one moved to a random rate between
        // 1 kb/s and 2 Mb/s every 50 charges: each new rate would join
        // the lcm of the tags' denominators, were they written exactly.
        let mut weights = [1_000u64, 2_000];
        let mut root = RootSfq::new(2, None);
        for (s, &w) in weights.iter().enumerate() {
            root.reweigh(s, 0, w);
        }
        // A 64-bit LCG (Knuth's MMIX constants).
        let mut state = 46u64;
        let mut draw = |lo: u64, hi: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (state >> 33) % (hi - lo + 1)
        };
        for k in 0..20_000usize {
            let s = root.pick(&[true, true]).unwrap();
            let bits = 8 * draw(64, 1_500);
            if let Err(e) = root.charge(s, bits) {
                panic!("charge {k}: {e}");
            }
            if k % 50 == 49 {
                let (c, w) = (k / 50 % 2, draw(1_000, 2_000_000));
                root.reweigh(c, weights[c], w);
                weights[c] = w;
            }
        }
    }
}
