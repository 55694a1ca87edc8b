//! Top-level hierarchical-SFQ node allocating link capacity to shards.
//!
//! The cross-shard drainer treats each shard as one flow of a root SFQ
//! server whose "packets" are the batches it pulls. Selecting a shard
//! stamps the batch with a start tag `S_i = max(v, F_i)` (Eq. 4 with
//! the root's own virtual time), serving it advances `v := S_i` and
//! charges `F_i := S_i + bits / R_i` (Eq. 5), where `R_i` is the sum
//! of the weights of the flows registered on shard `i`. When every
//! shard drains empty the busy period ends and `v` resets to the
//! maximum finish tag served, exactly like the leaf discipline.
//!
//! Batch sizes are only known *after* the shard is drained (a shard may
//! hold fewer packets than the batch budget), so selection and charging
//! are split: [`RootSfq::pick`] chooses the shard, [`RootSfq::charge`]
//! stamps and bills the actual bits pulled. Between the two calls the
//! root state is untouched, which keeps the pick/charge sequence a pure
//! function of the drained bit counts.
//!
//! All state is a handful of scalars per shard, so rebasing (shifting
//! every tag down by `⌊v⌋` once magnitudes grow) is trivial here and
//! enabled by default through [`EngineConfig::rebase_bits`].
//!
//! The tags are exact but not kept reduced: `pick` and `charge` only
//! compare them, so each is an [`Unreduced`] fraction seated on the
//! lattice of its class's rate. A class that stays ahead of `v` at an
//! unchanged rate is charged by one divisibility test and one integer
//! multiply-add; a class that fell behind, or whose rate moved, seats
//! its start tag on the new lattice, reducing it first when the seat
//! would leave a machine word ([`Unreduced::advance`]).
//! [`RootSfq::virtual_time`] reduces on read, and the rebase
//! rule reduces every tag before it judges magnitudes, so the
//! observable sequence — picks, `v`, rebase count, the `TagOverflow`
//! point — is the one reduced [`Ratio`] arithmetic produces (the
//! module's tests keep that arithmetic as the oracle).
//!
//! [`EngineConfig::rebase_bits`]: crate::EngineConfig::rebase_bits

use sfq_core::SchedError;
use simtime::{Rate, Ratio, Unreduced};

#[derive(Clone, Copy, Debug)]
struct ShardClass {
    /// Aggregate weight `R_i`: sum of registered flow rates, in bps.
    weight_bps: u64,
    /// Administrative override of `R_i` (the `SetShardWeight`
    /// reconfiguration command); `None` uses the flow-sum aggregate.
    override_bps: Option<u64>,
    /// Finish tag of the shard's most recent batch.
    last_finish: Unreduced,
}

impl ShardClass {
    /// Effective `R_i`: the override when set, else the flow-sum.
    fn effective_bps(&self) -> u64 {
        self.override_bps.unwrap_or(self.weight_bps)
    }
}

/// The cross-shard SFQ arbiter. See the module docs for the algorithm.
#[derive(Clone, Debug)]
pub struct RootSfq {
    classes: Vec<ShardClass>,
    /// Root virtual time: start tag of the batch most recently served.
    v: Unreduced,
    /// Running max of finish tags served; becomes `v` when the root
    /// busy period ends.
    max_finish_served: Unreduced,
    /// No tag is stored wider than this many bits: raised by every
    /// finish tag written, made exact again whenever a rebase looks.
    widest_bits: u32,
    rebase_bits: Option<u32>,
    rebases: u64,
}

impl RootSfq {
    /// Root node over `shards` classes, all initially weightless.
    pub fn new(shards: usize, rebase_bits: Option<u32>) -> Self {
        RootSfq {
            classes: vec![
                ShardClass {
                    weight_bps: 0,
                    override_bps: None,
                    last_finish: Unreduced::ZERO,
                };
                shards
            ],
            v: Unreduced::ZERO,
            max_finish_served: Unreduced::ZERO,
            widest_bits: 1,
            rebase_bits,
            rebases: 0,
        }
    }

    /// Adjust shard `i`'s aggregate weight by a flow's rate moving from
    /// `old_bps` (0 for a new flow) to `new_bps`.
    pub fn reweigh(&mut self, shard: usize, old_bps: u64, new_bps: u64) {
        let c = &mut self.classes[shard];
        c.weight_bps = c.weight_bps - old_bps + new_bps;
    }

    /// Aggregate weight `R_i` of shard `shard`, in bps.
    pub fn weight_bps(&self, shard: usize) -> u64 {
        self.classes[shard].weight_bps
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
                return Err(SchedError::ZeroWeight(sfq_core::FlowId(shard as u32)));
            }
        }
        c.override_bps = rate.map(|r| r.as_bps());
        Ok(())
    }

    /// The administrative override on shard `shard`, if any.
    pub fn shard_weight_override(&self, shard: usize) -> Option<u64> {
        self.classes.get(shard).and_then(|c| c.override_bps)
    }

    /// Current root virtual time, reduced for the reader.
    pub fn virtual_time(&self) -> Ratio {
        self.v.reduce()
    }

    /// Times the scalar state has been rebased.
    pub fn rebases(&self) -> u64 {
        self.rebases
    }

    /// Choose the next shard to drain among those with
    /// `backlogged[i] == true`: minimum start tag `max(v, F_i)`, shard
    /// index breaking ties. Returns `None` when nothing is backlogged.
    pub fn pick(&self, backlogged: &[bool]) -> Option<usize> {
        debug_assert_eq!(backlogged.len(), self.classes.len());
        let mut best: Option<(Unreduced, usize)> = None;
        for (i, c) in self.classes.iter().enumerate() {
            if !backlogged[i] || c.effective_bps() == 0 {
                continue;
            }
            let start = self.v.max(c.last_finish);
            if best.is_none_or(|b| (start, i) < b) {
                best = Some((start, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Serve a `bits`-sized batch from `shard`: stamp `S = max(v, F_i)`,
    /// set `v := S` and `F_i := S + bits / R_i`. Errors with
    /// [`SchedError::TagOverflow`] only if tag arithmetic leaves `i128`
    /// range despite rebasing, leaving the root untouched.
    pub fn charge(&mut self, shard: usize, bits: u64) -> Result<(), SchedError> {
        self.maybe_rebase();
        let c = self.classes[shard];
        debug_assert!(c.effective_bps() > 0, "charging a weightless shard");
        // A class still ahead of `v` starts from its own finish tag,
        // which sits on its own rate's lattice.
        let start = if c.last_finish >= self.v {
            c.last_finish
        } else {
            self.v
        };
        let finish = start
            .advance(bits as i128, c.effective_bps().max(1))
            .ok_or(SchedError::TagOverflow)?;
        self.classes[shard].last_finish = finish;
        self.widest_bits = self.widest_bits.max(finish.magnitude_bits());
        self.v = start;
        if finish > self.max_finish_served {
            self.max_finish_served = finish;
        }
        Ok(())
    }

    /// The root busy period ended (every shard drained empty): reset
    /// `v` to the maximum finish tag served, the leaf rule of Eq. 4's
    /// companion invariant.
    pub fn on_idle(&mut self) {
        self.v = self.max_finish_served;
    }

    /// Every tag the root holds: the classes' finish tags, then `v`,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The root arbiter as it was while every tag was a reduced
    /// [`Ratio`]: what [`RootSfq`] has to stay indistinguishable from.
    mod oracle {
        use super::super::SchedError;
        use simtime::Ratio;

        #[derive(Clone, Copy, Debug)]
        struct ShardClass {
            weight_bps: u64,
            override_bps: Option<u64>,
            last_finish: Ratio,
        }

        impl ShardClass {
            fn effective_bps(&self) -> u64 {
                self.override_bps.unwrap_or(self.weight_bps)
            }
        }

        #[derive(Clone, Debug)]
        pub struct RootSfq {
            classes: Vec<ShardClass>,
            v: Ratio,
            max_finish_served: Ratio,
            rebase_bits: Option<u32>,
            rebases: u64,
        }

        impl RootSfq {
            pub fn new(shards: usize, rebase_bits: Option<u32>) -> Self {
                let idle = ShardClass {
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

            pub fn pick(&self, backlogged: &[bool]) -> Option<usize> {
                let mut best: Option<(Ratio, usize)> = None;
                for (i, c) in self.classes.iter().enumerate() {
                    if !backlogged[i] || c.effective_bps() == 0 {
                        continue;
                    }
                    let start = self.v.max(c.last_finish);
                    if best.is_none_or(|b| (start, i) < b) {
                        best = Some((start, i));
                    }
                }
                best.map(|(_, i)| i)
            }

            pub fn charge(&mut self, shard: usize, bits: u64) -> Result<(), SchedError> {
                self.maybe_rebase();
                let c = self.classes[shard];
                let start = self.v.max(c.last_finish);
                let span = Ratio::new(bits as i128, c.effective_bps().max(1) as i128);
                let finish = start.checked_add(span).ok_or(SchedError::TagOverflow)?;
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

        /// The same with weights that take the tags past `i128`: the
        /// same `TagOverflow` points, the root untouched at each.
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
    fn coprime_giant_weights_overflow_where_the_oracle_does() {
        // Three pairwise coprime 61- to 63-bit weights, no rebasing,
        // each class starting from the one before's finish tag: the
        // third needs a denominator past `i128`, in lowest terms as
        // much as seated. The root then carries on from where it was.
        let serve = |mask| Op::Serve {
            mask,
            bits: (1 << 50) + 1,
            between: None,
        };
        let ops = [serve(1), Op::Idle, serve(2), Op::Idle, serve(4), serve(3)];
        let weights = [(1 << 61) - 1, (1 << 62) - 57, (1 << 63) - 25];
        let overflows = assert_matches_oracle(None, weights, &ops).unwrap();
        assert!(overflows > 0, "the witness no longer overflows");
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
}
