//! Member-disjoint sharding of the user space.
//!
//! A [`ShardPlan`] splits the dense user-id range `0..n` into N disjoint,
//! covering shards so the offline discovery stage can run one worker per
//! shard (see `vexus-mining`'s `ShardedDiscovery`). Each member goes to
//! `splitmix64(member) % n_shards`, so shards are statistically similar
//! slices of the population, which keeps per-shard group structure close
//! to the global one.
//!
//! Plans are deterministic: the same `(n_members, n_shards)` always yields
//! the same partition, so sharded discovery stays reproducible (the
//! engine's determinism tests rely on it).

/// A member-disjoint, covering partition of `0..n_members` into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
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
    /// Hash-partition `0..n_members` into `n_shards` shards (clamped to at
    /// least one).
    pub fn build(n_members: usize, n_shards: usize) -> Self {
        let k = n_shards.max(1);
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); k];
        for m in 0..n_members as u32 {
            shards[(spread(m) % k as u64) as usize].push(m);
        }
        Self { shards, n_members }
    }

    /// Number of shards (≥ 1; shards may be empty when members are scarce).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sorted member ids of one shard.
    pub fn members(&self, shard: usize) -> &[u32] {
        &self.shards[shard]
    }

    /// Fraction of all members held by one shard (`0.0` for an empty plan).
    pub fn fraction(&self, shard: usize) -> f64 {
        if self.n_members == 0 {
            return 0.0;
        }
        self.shards[shard].len() as f64 / self.n_members as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plan: &ShardPlan, n: usize) {
        let mut seen = vec![false; n];
        for s in 0..plan.n_shards() {
            let members = plan.members(s);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "unsorted shard");
            for &m in members {
                assert!(!seen[m as usize], "member {m} in two shards");
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "member not covered");
    }

    #[test]
    fn hash_is_a_partition_and_roughly_balanced() {
        let plan = ShardPlan::build(10_000, 8);
        assert_partition(&plan, 10_000);
        for s in 0..plan.n_shards() {
            let len = plan.members(s).len();
            assert!(
                (1_000..1_600).contains(&len),
                "hash shard badly skewed: {len}"
            );
        }
        // Degenerate sizes still partition: no members, more shards than
        // members.
        for (n, k) in [(0, 4), (3, 5), (5, 1)] {
            assert_partition(&ShardPlan::build(n, k), n);
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ShardPlan::build(500, 4);
        let b = ShardPlan::build(500, 4);
        for s in 0..4 {
            assert_eq!(a.members(s), b.members(s));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::build(10, 0);
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.members(0).len(), 10);
        assert!((plan.fraction(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let plan = ShardPlan::build(1234, 5);
        let total: f64 = (0..plan.n_shards()).map(|s| plan.fraction(s)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
