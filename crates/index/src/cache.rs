//! Shared read-through cache for [`GroupIndex::neighbors`] results.
//!
//! The index is immutable once built, so a neighbor list computed for one
//! exploration session is valid for *every* session over the same engine.
//! [`NeighborCache`] memoizes `(group, k)` → neighbor list behind sharded
//! mutexes: concurrent sessions clicking around one shared group space pay
//! the exact fallback scan (or even the materialized-prefix copy) once per
//! distinct query instead of once per click.
//!
//! Three properties matter for serving:
//!
//! * **transparency** — the cache stores the exact
//!   [`GroupIndex::neighbors`] result, so cached and uncached answers are
//!   byte-identical (pinned by `cached_results_match_uncached` and the
//!   root `cache_off_session_matches_cache_on` test),
//! * **bounded memory** — per-shard FIFO eviction caps the entry count;
//!   a `capacity` of 0 disables storage entirely (every query recomputes),
//! * **cheap hits** — entries are `Arc<[Neighbor]>`, so a hit is one
//!   atomic increment, shared by all sessions that asked.

use crate::inverted::{GroupIndex, Neighbor};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vexus_mining::{GroupId, GroupSet};

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// Fail-point site: fires inside a shard's insert critical section,
/// keyed by shard index (`Panic` action poisons the shard, `Error`
/// action skips the insert — both degrade to cache misses).
const FP_CACHE_SHARD: &str = "cache.shard";

/// Hit/miss counters of a [`NeighborCache`], readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute (and, capacity permitting, insert).
    pub misses: u64,
    /// Poisoned shards recovered (contents dropped, shard kept serving).
    pub recoveries: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no queries were served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard {
    entries: HashMap<(u32, u32), Arc<[Neighbor]>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<(u32, u32)>,
}

/// Bounded, sharded read-through cache over [`GroupIndex::neighbors`].
pub struct NeighborCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard (total capacity / shard count).
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recoveries: AtomicU64,
}

impl std::fmt::Debug for NeighborCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborCache")
            .field("capacity", &(self.per_shard * SHARDS))
            .field("stats", &self.stats())
            .finish()
    }
}

impl NeighborCache {
    /// A cache holding at most `capacity` neighbor lists (rounded up to a
    /// multiple of the shard count; `0` keeps nothing and turns every
    /// query into a counted miss).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        let shards = (0..SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    entries: HashMap::new(),
                    order: VecDeque::new(),
                })
            })
            .collect();
        Self {
            shards,
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// Lock a shard, recovering from poison. A panic inside the critical
    /// section (only reachable through the `cache.shard` fail point or a
    /// bug) may leave `entries` and `order` out of step, so recovery
    /// drops the shard's contents: the cache is a pure memo over an
    /// immutable index, losing entries only costs recomputes — never
    /// correctness, and never a propagated panic. `clear_poison` makes
    /// the recovery one-shot rather than once per subsequent access.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[i];
        shard.lock().unwrap_or_else(|poisoned| {
            shard.clear_poison();
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            let mut guard = poisoned.into_inner();
            guard.entries.clear();
            guard.order.clear();
            guard
        })
    }

    fn shard_of(g: GroupId, k: usize) -> usize {
        // Mix the key (xor-shift around a Fibonacci multiply) so consecutive
        // group ids spread across shards instead of contending on one lock —
        // a skewed shard whose working set exceeds its FIFO quota would
        // otherwise thrash on cyclic access patterns.
        let mut h = (g.0 as u64) << 32 | (k as u64 & 0xFFFF_FFFF);
        h ^= h >> 33;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h as usize & (SHARDS - 1)
    }

    /// The top-`k` neighbors of `g`: served from the cache when present,
    /// computed through [`GroupIndex::neighbors`] (and cached) otherwise.
    /// The returned list is always byte-identical to the uncached call.
    pub fn neighbors(
        &self,
        index: &GroupIndex,
        groups: &GroupSet,
        g: GroupId,
        k: usize,
    ) -> Arc<[Neighbor]> {
        let key = (g.0, k as u32);
        let si = Self::shard_of(g, k);
        if let Some(hit) = self.lock_shard(si).entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Compute outside the lock: a slow fallback scan must not block
        // sibling queries that hash to the same shard.
        let computed: Arc<[Neighbor]> = index.neighbors(groups, g, k).into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.per_shard > 0 {
            let mut guard = self.lock_shard(si);
            if vexus_data::failpoint::hit_key(FP_CACHE_SHARD, si as u64) {
                return computed;
            }
            if !guard.entries.contains_key(&key) {
                if guard.entries.len() >= self.per_shard {
                    if let Some(old) = guard.order.pop_front() {
                        guard.entries.remove(&old);
                    }
                }
                guard.entries.insert(key, Arc::clone(&computed));
                guard.order.push_back(key);
            }
        }
        computed
    }

    /// Carry entries into a fresh cache of the same capacity across an
    /// epoch swap, keeping only those `keep` approves. Entries are copied
    /// per shard in FIFO order (the eviction order is preserved); counters
    /// start at zero, so the new epoch reports its own hit rate.
    ///
    /// `keep` sees the cached group id and neighbor list. The serving
    /// layer keeps an entry only when the group is id-stable and clean
    /// across the swap and every cached neighbor id is id-stable — in
    /// which case the cached bytes are already the new epoch's answer, so
    /// transparency (cached ≡ uncached) is preserved without a rewrite.
    pub fn carry_over(&self, keep: impl Fn(u32, &[Neighbor]) -> bool) -> NeighborCache {
        let fresh = NeighborCache::new(self.per_shard * SHARDS);
        for i in 0..SHARDS {
            let old = self.lock_shard(i);
            let mut new = fresh.shards[i].lock().expect("fresh shard is unshared");
            for &key in &old.order {
                if let Some(list) = old.entries.get(&key) {
                    if keep(key.0, list) {
                        new.entries.insert(key, Arc::clone(list));
                        new.order.push_back(key);
                    }
                }
            }
        }
        fresh
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }

    /// Entries currently cached (across all shards).
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.lock_shard(i).entries.len()).sum()
    }

    /// Poison the shard `g`/`k` maps to, simulating a crash inside the
    /// critical section — recovery-path tests only.
    #[cfg(test)]
    fn poison_shard_of(&self, g: GroupId, k: usize) {
        let shard = &self.shards[Self::shard_of(g, k)];
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shard.lock().unwrap();
                panic!("poison the cache shard");
            })
            .join()
        });
        assert!(shard.is_poisoned());
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexConfig;
    use vexus_mining::{Group, MemberSet};

    fn fixture() -> (GroupSet, GroupIndex) {
        let mut gs = GroupSet::new();
        for i in 0..30u32 {
            let members: Vec<u32> = (i..i + 10).collect();
            gs.push(Group::new(vec![], MemberSet::from_unsorted(members)));
        }
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.1,
                threads: 1,
            },
        );
        (gs, idx)
    }

    #[test]
    fn cached_results_match_uncached() {
        let (gs, idx) = fixture();
        let cache = NeighborCache::new(64);
        for (gid, _) in gs.iter() {
            for k in [1usize, 4, 16] {
                let direct = idx.neighbors(&gs, gid, k);
                let cached = cache.neighbors(&idx, &gs, gid, k);
                assert_eq!(&cached[..], &direct[..], "g={gid} k={k}");
                // Second query is a hit with the same bytes.
                let again = cache.neighbors(&idx, &gs, gid, k);
                assert_eq!(&again[..], &direct[..]);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 30 * 3);
        assert_eq!(stats.hits, 30 * 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// The bound under churn: far more distinct `(group, k)` keys than the
    /// capacity, over many rounds. The ceiling holds after every round, and
    /// at the end every shard holds exactly its quota with its FIFO order
    /// in step with its entries.
    #[test]
    fn capacity_bounds_entries() {
        let (gs, idx) = fixture();
        let capacity = 32;
        let cache = NeighborCache::new(capacity);
        let ceiling = capacity.div_ceil(SHARDS) * SHARDS;
        let rounds = 12;
        assert!(rounds * gs.len() >= 4 * capacity, "drive past the bound");
        for round in 0..rounds {
            for (gid, _) in gs.iter() {
                cache.neighbors(&idx, &gs, gid, 1 + round);
            }
            assert!(cache.len() <= ceiling, "round {round}: {}", cache.len());
        }
        for i in 0..SHARDS {
            let shard = cache.lock_shard(i);
            assert_eq!(shard.entries.len(), cache.per_shard, "shard {i}");
            assert_eq!(shard.order.len(), shard.entries.len(), "shard {i}");
        }
        assert_eq!(cache.len(), ceiling);
        assert_eq!(cache.stats().misses, (rounds * gs.len()) as u64);
    }

    #[test]
    fn zero_capacity_counts_misses_and_stores_nothing() {
        let (gs, idx) = fixture();
        let cache = NeighborCache::new(0);
        let g = GroupId::new(0);
        let a = cache.neighbors(&idx, &gs, g, 5);
        let b = cache.neighbors(&idx, &gs, g, 5);
        assert_eq!(&a[..], &b[..]);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn poisoned_shard_degrades_to_a_miss_not_a_panic() {
        let (gs, idx) = fixture();
        let cache = NeighborCache::new(64);
        let g = GroupId::new(3);
        let direct = idx.neighbors(&gs, g, 6);
        cache.neighbors(&idx, &gs, g, 6);
        assert_eq!(cache.stats().hits, 0);
        cache.poison_shard_of(g, 6);
        // First access after the poison recovers the shard: its contents
        // are gone (a miss, recomputed correctly), but nothing panics and
        // the recovery is counted exactly once.
        let after = cache.neighbors(&idx, &gs, g, 6);
        assert_eq!(&after[..], &direct[..]);
        let stats = cache.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.hits, 0, "post-poison access is a miss");
        // The shard serves (and caches) normally again.
        cache.neighbors(&idx, &gs, g, 6);
        let settled = cache.stats();
        assert_eq!(settled.hits, 1);
        assert_eq!(settled.recoveries, 1, "recovery is one-shot");
    }

    #[test]
    fn carry_over_keeps_approved_entries_and_resets_counters() {
        let (gs, idx) = fixture();
        let cache = NeighborCache::new(64);
        for (gid, _) in gs.iter() {
            cache.neighbors(&idx, &gs, gid, 4);
        }
        let populated = cache.len();
        assert!(populated > 0);
        // Keep only even group ids.
        let carried = cache.carry_over(|g, _| g % 2 == 0);
        assert_eq!(carried.len(), populated / 2, "odd ids dropped");
        assert_eq!(carried.stats(), CacheStats::default(), "fresh counters");
        // Surviving entries are hits with the original bytes; dropped
        // entries recompute as misses.
        let even = GroupId::new(2);
        let direct = idx.neighbors(&gs, even, 4);
        assert_eq!(&carried.neighbors(&idx, &gs, even, 4)[..], &direct[..]);
        assert_eq!(carried.stats().hits, 1);
        carried.neighbors(&idx, &gs, GroupId::new(3), 4);
        assert_eq!(carried.stats().misses, 1);
        // Keep-nothing empties; the original cache is untouched.
        assert!(cache.carry_over(|_, _| false).is_empty());
        assert_eq!(cache.len(), populated);
    }

    #[test]
    fn concurrent_queries_agree() {
        let (gs, idx) = fixture();
        let cache = NeighborCache::new(128);
        let reference: Vec<Vec<Neighbor>> = gs
            .iter()
            .map(|(gid, _)| idx.neighbors(&gs, gid, 6))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (gid, _) in gs.iter() {
                        let got = cache.neighbors(&idx, &gs, gid, 6);
                        assert_eq!(&got[..], &reference[gid.index()][..]);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 30);
        // Racing first-queries may all miss (compute runs outside the
        // lock); what the design guarantees is that once the race settles,
        // every key is cached: a sequential sweep is 100% hits.
        for (gid, _) in gs.iter() {
            cache.neighbors(&idx, &gs, gid, 6);
        }
        let after = cache.stats();
        assert_eq!(after.hits - stats.hits, 30);
        assert_eq!(after.misses, stats.misses);
    }
}
