//! Member-disjoint sharding of the user space.
//!
//! A [`ShardPlan`] splits the dense user-id range `0..n` into N disjoint,
//! covering shards so the offline discovery stage can run one worker per
//! shard (see `vexus-mining`'s `ShardedDiscovery`). Two strategies:
//!
//! * [`ShardStrategy::Hash`] — each member goes to
//!   `splitmix64(member) % n_shards`. Shards are statistically similar
//!   slices of the population, which keeps per-shard group structure close
//!   to the global one — the right default for partition-style mining.
//! * [`ShardStrategy::Contiguous`] — members are split into consecutive
//!   ranges of near-equal length. Cache- and mmap-friendly, and the natural
//!   choice when user ids already encode arrival order (stream replays).
//!
//! Plans are deterministic: the same `(n_members, n_shards, strategy)`
//! always yields the same partition, so sharded discovery stays
//! reproducible (the engine's determinism tests rely on it).

/// How members are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Deterministic integer hash of the member id modulo the shard count.
    #[default]
    Hash,
    /// Consecutive near-equal ranges of the member-id space.
    Contiguous,
}

/// A member-disjoint, covering partition of `0..n_members` into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    strategy: ShardStrategy,
    /// Sorted member ids per shard.
    shards: Vec<Vec<u32>>,
    n_members: usize,
}

/// SplitMix64 finalizer — a cheap, well-mixed deterministic integer hash.
#[inline]
fn spread(x: u32) -> u64 {
    let mut z = (x as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardPlan {
    /// Partition `0..n_members` into `n_shards` shards (clamped to at least
    /// one) under `strategy`.
    pub fn build(n_members: usize, n_shards: usize, strategy: ShardStrategy) -> Self {
        let k = n_shards.max(1);
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); k];
        match strategy {
            ShardStrategy::Hash => {
                for m in 0..n_members as u32 {
                    shards[(spread(m) % k as u64) as usize].push(m);
                }
            }
            ShardStrategy::Contiguous => {
                let base = n_members / k;
                let rem = n_members % k;
                let mut next = 0u32;
                for (s, shard) in shards.iter_mut().enumerate() {
                    let len = base + usize::from(s < rem);
                    shard.extend(next..next + len as u32);
                    next += len as u32;
                }
            }
        }
        Self {
            strategy,
            shards,
            n_members,
        }
    }

    /// Hash-partition shorthand.
    pub fn hash(n_members: usize, n_shards: usize) -> Self {
        Self::build(n_members, n_shards, ShardStrategy::Hash)
    }

    /// Contiguous-partition shorthand.
    pub fn contiguous(n_members: usize, n_shards: usize) -> Self {
        Self::build(n_members, n_shards, ShardStrategy::Contiguous)
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Number of shards (≥ 1; shards may be empty when members are scarce).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total members covered by the plan.
    pub fn n_members(&self) -> usize {
        self.n_members
    }

    /// Sorted member ids of one shard.
    pub fn members(&self, shard: usize) -> &[u32] {
        &self.shards[shard]
    }

    /// Iterate shard member lists in shard order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.shards.iter().map(Vec::as_slice)
    }

    /// Fraction of all members held by one shard (`0.0` for an empty plan).
    pub fn fraction(&self, shard: usize) -> f64 {
        if self.n_members == 0 {
            return 0.0;
        }
        self.shards[shard].len() as f64 / self.n_members as f64
    }

    /// The shard a member belongs to (O(1); recomputed from the strategy).
    pub fn shard_of(&self, member: u32) -> usize {
        debug_assert!((member as usize) < self.n_members, "member out of plan");
        let k = self.shards.len();
        match self.strategy {
            ShardStrategy::Hash => (spread(member) % k as u64) as usize,
            ShardStrategy::Contiguous => {
                let base = self.n_members / k;
                let rem = self.n_members % k;
                let m = member as usize;
                let fat = rem * (base + 1);
                if m < fat {
                    m / (base + 1)
                } else {
                    // `m >= fat` forces `base > 0`: with `base == 0` (more
                    // shards than members) every member sits in one of the
                    // first `rem` singleton shards, i.e. `m < fat`.
                    debug_assert!(base > 0);
                    rem + (m - fat) / base
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plan: &ShardPlan, n: usize) {
        let mut seen = vec![false; n];
        for (s, members) in plan.iter().enumerate() {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "unsorted shard");
            for &m in members {
                assert!(!seen[m as usize], "member {m} in two shards");
                seen[m as usize] = true;
                assert_eq!(plan.shard_of(m), s, "shard_of disagrees for {m}");
            }
        }
        assert!(seen.iter().all(|&b| b), "member not covered");
    }

    #[test]
    fn contiguous_is_a_balanced_partition() {
        for (n, k) in [(10, 3), (100, 8), (7, 7), (5, 1), (0, 4), (3, 5)] {
            let plan = ShardPlan::contiguous(n, k);
            assert_partition(&plan, n);
            let sizes: Vec<usize> = plan.iter().map(<[u32]>::len).collect();
            let (min, max) = (
                sizes.iter().min().copied().unwrap(),
                sizes.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "unbalanced contiguous shards: {sizes:?}");
        }
    }

    #[test]
    fn hash_is_a_partition_and_roughly_balanced() {
        let plan = ShardPlan::hash(10_000, 8);
        assert_partition(&plan, 10_000);
        for members in plan.iter() {
            let len = members.len();
            assert!(
                (1_000..1_600).contains(&len),
                "hash shard badly skewed: {len}"
            );
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ShardPlan::hash(500, 4);
        let b = ShardPlan::hash(500, 4);
        for s in 0..4 {
            assert_eq!(a.members(s), b.members(s));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::build(10, 0, ShardStrategy::Hash);
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.members(0).len(), 10);
        assert!((plan.fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let plan = ShardPlan::hash(1234, 5);
        let total: f64 = (0..plan.n_shards()).map(|s| plan.fraction(s)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
