//! In-core frequent itemset mining over streams (Jin & Agrawal, ICDM'05
//! \[9\]) — the paper's STREAMMINING plug-in for user-data streams.
//!
//! We implement the **lossy counting** family the original algorithm builds
//! on: the stream of user transactions is processed in buckets of width
//! `⌈1/ε⌉`; an in-core table maps each tracked itemset to `(count, Δ)`
//! where Δ is the bucket at insertion (the maximum undercount). At every
//! bucket boundary, entries with `count + Δ ≤ current_bucket` are evicted.
//! The guarantees are the classic ones:
//!
//! * no false negatives for true frequency ≥ `σ·N`,
//! * reported counts undercount by at most `ε·N`,
//! * memory is `O((1/ε)·log(εN))` table entries per itemset length.
//!
//! Itemsets are enumerated per transaction up to `max_len`. VEXUS
//! transactions are short (one token per demographic attribute), so the
//! subset enumeration is small and bounded.
//!
//! Because a one-pass stream cannot retroactively list members of an
//! itemset observed before the itemset was tracked, each entry accumulates
//! its members *since insertion*; reported member sets are therefore
//! subsets of the true extent with the same ε guarantee. The engine treats
//! stream groups as approximate by construction.
//!
//! An entry's members are a sorted prefix followed by the users observed
//! since the entry was last reported, in arrival order. A cut
//! ([`StreamMiner::groups`]) sorts only that tail and merges it into the
//! prefix, for the entries it reports, so a live refresh sorts what
//! arrived rather than every member list again.
//!
//! This module owns the canonical order of stream state: itemset order,
//! lexicographically ascending. The table is one `HashMap`, walked in that
//! order by one crate-private walk that both [`StreamMiner::groups`] (so a
//! reported group space is already an epoch space for [`crate::delta`])
//! and the checkpoint codec ([`crate::snapshot`]) read.

use crate::bitmap::MemberSet;
use crate::group::{Group, GroupSet};
use std::collections::HashMap;
use vexus_data::TokenId;

/// Configuration for the lossy-counting stream miner.
#[derive(Debug, Clone)]
pub struct StreamFimConfig {
    /// Support threshold σ as a fraction of the stream length.
    pub support: f64,
    /// Error bound ε (< σ); bucket width is `⌈1/ε⌉`.
    pub epsilon: f64,
    /// Maximum itemset length enumerated per transaction.
    pub max_len: usize,
}

impl Default for StreamFimConfig {
    fn default() -> Self {
        Self {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        }
    }
}

/// One tracked itemset: occurrences and users observed since it was
/// (last) inserted, and Δ, the bucket before its insertion (the maximum
/// undercount). `members[..sorted]` is strictly ascending; the rest are
/// the users observed since, in arrival order. Every user is observed at
/// most once per entry, so sorting all of them yields a set.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) count: u64,
    pub(crate) delta: u64,
    pub(crate) members: Vec<u32>,
    pub(crate) sorted: usize,
}

impl Entry {
    /// Sort the arrival-order tail and merge it into the sorted prefix,
    /// from the back, so only the prefix members above the tail's least
    /// one move.
    fn settle(&mut self) {
        let mut tail = self.members.split_off(self.sorted);
        tail.sort_unstable();
        let mut i = self.members.len();
        self.members.resize(i + tail.len(), 0);
        for k in (0..self.members.len()).rev() {
            let Some(&t) = tail.last() else { break };
            if i > 0 && self.members[i - 1] > t {
                i -= 1;
                self.members[k] = self.members[i];
            } else {
                self.members[k] = t;
                tail.pop();
            }
        }
        self.sorted = self.members.len();
    }
}

/// One-pass lossy-counting miner over a stream of `(user, tokens)`
/// transactions.
#[derive(Debug)]
pub struct StreamMiner {
    cfg: StreamFimConfig,
    pub(crate) table: HashMap<Vec<TokenId>, Entry>,
    bucket_width: u64,
    /// Transactions processed so far.
    pub(crate) n_seen: u64,
    /// Lifetime evictions.
    pub(crate) evictions: u64,
}

impl StreamMiner {
    /// New miner.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ σ ≤ 1` and `max_len ≥ 1`.
    pub fn new(cfg: StreamFimConfig) -> Self {
        assert!(cfg.epsilon > 0.0 && cfg.epsilon <= cfg.support && cfg.support <= 1.0);
        assert!(cfg.max_len >= 1);
        let bucket_width = (1.0 / cfg.epsilon).ceil() as u64;
        Self {
            cfg,
            table: HashMap::new(),
            bucket_width,
            n_seen: 0,
            evictions: 0,
        }
    }

    /// Process one transaction. `tokens` must be sorted ascending.
    pub fn observe(&mut self, user: u32, tokens: &[TokenId]) {
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "tokens must be sorted"
        );
        self.n_seen += 1;
        let bucket = self.current_bucket();
        let mut subset = Vec::with_capacity(self.cfg.max_len);
        Self::enumerate(
            tokens,
            &mut subset,
            self.cfg.max_len,
            &mut |itemset: &Vec<TokenId>| match self.table.get_mut(itemset) {
                Some(e) => {
                    e.count += 1;
                    e.members.push(user);
                }
                None => {
                    self.table.insert(
                        itemset.clone(),
                        Entry {
                            count: 1,
                            delta: bucket - 1,
                            members: vec![user],
                            sorted: 0,
                        },
                    );
                }
            },
        );
        if self.n_seen.is_multiple_of(self.bucket_width) {
            self.prune(bucket);
        }
    }

    fn current_bucket(&self) -> u64 {
        self.n_seen.div_ceil(self.bucket_width).max(1)
    }

    fn prune(&mut self, bucket: u64) {
        let before = self.table.len();
        self.table.retain(|_, e| e.count + e.delta > bucket);
        self.evictions += (before - self.table.len()) as u64;
    }

    fn enumerate(
        tokens: &[TokenId],
        current: &mut Vec<TokenId>,
        max_len: usize,
        emit: &mut impl FnMut(&Vec<TokenId>),
    ) {
        for (i, &t) in tokens.iter().enumerate() {
            current.push(t);
            emit(current);
            if current.len() < max_len {
                Self::enumerate(&tokens[i + 1..], current, max_len, emit);
            }
            current.pop();
        }
    }

    /// The entries `keep` accepts, in itemset order — the canonical order
    /// this module owns: [`StreamMiner::groups`] reports the frequent ones
    /// in it and a checkpoint ([`crate::snapshot::encode_stream_state`])
    /// writes the whole table in it.
    pub(crate) fn entries(&self, keep: impl Fn(&Entry) -> bool) -> Vec<(&[TokenId], &Entry)> {
        let mut entries: Vec<(&[TokenId], &Entry)> = self
            .table
            .iter()
            .filter(|(_, e)| keep(e))
            .map(|(itemset, e)| (itemset.as_slice(), e))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// The support floor `(σ − ε)·N` a reported entry's count clears.
    fn floor(&self) -> f64 {
        ((self.cfg.support - self.cfg.epsilon) * self.n_seen as f64).max(0.0)
    }

    /// The itemsets whose *guaranteed* frequency clears `(σ − ε)·N` — the
    /// standard lossy-counting query — as groups in itemset order, which is
    /// the canonical epoch order [`crate::delta`] diffs in. A group's
    /// members are the users observed carrying the itemset since it was
    /// tracked, so its size is the tracked count. Each reported entry's
    /// arrival tail is merged into its sorted members first, so the cut
    /// sorts only what arrived since the entry was last reported.
    pub fn groups(&mut self) -> GroupSet {
        let floor = self.floor();
        let reported = |e: &Entry| e.count as f64 >= floor;
        for e in self.table.values_mut().filter(|e| reported(e)) {
            e.settle();
        }
        let groups = self.entries(reported).into_iter().map(|(itemset, e)| {
            Group::new(itemset.to_vec(), MemberSet::from_sorted(e.members.clone()))
        });
        GroupSet::from_groups(groups.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn toks(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&t| TokenId::new(t)).collect()
    }

    /// Exact counts of all itemsets up to `max_len` (test oracle).
    fn exact_counts(stream: &[Vec<TokenId>], max_len: usize) -> HashMap<Vec<TokenId>, u64> {
        let mut counts = HashMap::new();
        for tx in stream {
            let mut cur = Vec::new();
            StreamMiner::enumerate(tx, &mut cur, max_len, &mut |s: &Vec<TokenId>| {
                *counts.entry(s.clone()).or_insert(0) += 1;
            });
        }
        counts
    }

    fn synthetic_stream(n: usize) -> Vec<Vec<TokenId>> {
        // Tokens 0,1 co-occur in 40% of transactions; token 2 in 30%;
        // tokens 3.. are rare noise.
        (0..n)
            .map(|i| {
                let mut t = Vec::new();
                if i % 5 < 2 {
                    t.extend_from_slice(&[0, 1]);
                }
                if i % 10 < 3 {
                    t.push(2);
                }
                t.push(3 + (i % 37) as u32);
                toks(
                    &t.into_iter()
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let stream = synthetic_stream(5_000);
        let cfg = StreamFimConfig {
            support: 0.2,
            epsilon: 0.02,
            max_len: 2,
        };
        let mut miner = StreamMiner::new(cfg.clone());
        for (u, tx) in stream.iter().enumerate() {
            miner.observe(u as u32, tx);
        }
        let exact = exact_counts(&stream, 2);
        let reported: std::collections::HashSet<Vec<TokenId>> = miner
            .groups()
            .iter()
            .map(|(_, g)| g.description.clone())
            .collect();
        let n = stream.len() as f64;
        for (itemset, count) in &exact {
            if *count as f64 >= cfg.support * n {
                assert!(
                    reported.contains(itemset),
                    "missed truly frequent itemset {itemset:?} (count {count})"
                );
            }
        }
    }

    #[test]
    fn counts_undercount_by_at_most_epsilon_n() {
        let stream = synthetic_stream(3_000);
        let cfg = StreamFimConfig {
            support: 0.2,
            epsilon: 0.02,
            max_len: 2,
        };
        let mut miner = StreamMiner::new(cfg.clone());
        for (u, tx) in stream.iter().enumerate() {
            miner.observe(u as u32, tx);
        }
        let exact = exact_counts(&stream, 2);
        let slack = cfg.epsilon * stream.len() as f64;
        for (_, g) in miner.groups().iter() {
            let (itemset, count) = (&g.description, g.size() as u64);
            let truth = exact[itemset];
            assert!(count <= truth, "overcounted {itemset:?}");
            assert!(
                (truth - count) as f64 <= slack,
                "undercounted {itemset:?} by {} > εN {slack}",
                truth - count
            );
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let stream = synthetic_stream(20_000);
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.1,
            epsilon: 0.05,
            max_len: 2,
        });
        let mut peak = 0;
        for (u, tx) in stream.iter().enumerate() {
            miner.observe(u as u32, tx);
            peak = peak.max(miner.table.len());
        }
        // The noise universe alone has 37 singleton tokens + pairs; lossy
        // counting must keep the table well below the exact-table size.
        let exact_table = exact_counts(&stream, 2).len();
        assert!(
            peak < exact_table,
            "peak table {peak} should undercut exact table {exact_table}"
        );
        assert_eq!(miner.n_seen, 20_000);
        // The bound is enforced by eviction, and the counter sees it.
        assert!(miner.evictions > 0, "pruning must have evicted entries");
        assert!(miner.evictions as usize >= exact_table - miner.table.len());
    }

    #[test]
    fn evictions_start_at_zero_and_count_pruned_entries() {
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.5,
            epsilon: 0.5, // bucket width 2: prune every other transaction
            max_len: 1,
        });
        assert_eq!(miner.evictions, 0);
        // Two distinct singletons, each seen once: at the first bucket
        // boundary both have count + Δ = 1 ≤ 1 → evicted.
        miner.observe(0, &toks(&[0]));
        miner.observe(1, &toks(&[1]));
        assert_eq!(miner.evictions, 2);
        assert_eq!(miner.table.len(), 0);
    }

    #[test]
    fn groups_carry_members_and_descriptions() {
        let stream = synthetic_stream(1_000);
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.25,
            epsilon: 0.05,
            max_len: 2,
        });
        for (u, tx) in stream.iter().enumerate() {
            miner.observe(u as u32, tx);
        }
        let gs = miner.groups();
        assert!(!gs.is_empty());
        for (_, g) in gs.iter() {
            assert!(!g.description.is_empty());
            assert!(!g.members.is_empty());
        }
        // The heavy pair {0,1} must surface as a group.
        assert!(
            gs.iter().any(|(_, g)| g.description == toks(&[0, 1])),
            "pair group missing"
        );
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let mut miner = StreamMiner::new(StreamFimConfig::default());
        assert!(miner.groups().is_empty());
    }

    #[test]
    #[should_panic]
    fn epsilon_above_support_panics() {
        StreamMiner::new(StreamFimConfig {
            support: 0.01,
            epsilon: 0.1,
            max_len: 2,
        });
    }

    /// The cut the carried sort replaces: clone every reported entry's
    /// members and sort them from scratch (test oracle).
    fn groups_sorted_from_scratch(miner: &StreamMiner) -> GroupSet {
        let floor = miner.floor();
        let groups = miner
            .entries(|e| e.count as f64 >= floor)
            .into_iter()
            .map(|(itemset, e)| {
                Group::new(
                    itemset.to_vec(),
                    MemberSet::from_unsorted(e.members.clone()),
                )
            });
        GroupSet::from_groups(groups.collect())
    }

    /// Drive a miner through `phases` of `(hot token, arrivals)`, each
    /// arrival carrying its phase's hot token and a noise token, with users
    /// scrambled by `stride` (1009 is prime and above every stream length
    /// here, so users stay distinct) and a cut every `cut_every` arrivals.
    /// At every cut the reported space must equal the from-scratch oracle,
    /// order included, and every reported entry must be settled: strictly
    /// ascending, with no tail left for the next cut. Returns the miner's
    /// evictions and how many entries a cut merged a tail longer than
    /// `cut_every` into — one that grew over several cuts while its entry
    /// sat under the floor.
    fn drive_and_check_cuts(
        phases: &[(u32, usize)],
        noise: &[u32],
        stride: u64,
        cut_every: usize,
    ) -> (u64, usize) {
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.3,
            epsilon: 0.05, // bucket width 20; the floor sits 0.25·N above eviction
            max_len: 2,
        });
        let mut long_tails = 0;
        let hots = phases
            .iter()
            .flat_map(|&(hot, len)| std::iter::repeat_n(hot, len));
        for (n, hot) in hots.enumerate() {
            let user = (n as u64 * stride % 1009) as u32;
            miner.observe(user, &toks(&[hot, 4 + noise[n % noise.len()]]));
            if (n + 1) % cut_every != 0 {
                continue;
            }
            let floor = miner.floor();
            let reported = |e: &&Entry| e.count as f64 >= floor;
            long_tails += miner
                .table
                .values()
                .filter(reported)
                .filter(|e| e.members.len() - e.sorted > cut_every)
                .count();
            let expected = groups_sorted_from_scratch(&miner);
            assert_eq!(miner.groups(), expected, "cut after {} arrivals", n + 1);
            for e in miner.table.values().filter(reported) {
                assert_eq!(e.sorted, e.members.len(), "a reported entry kept a tail");
                assert!(
                    e.members.windows(2).all(|w| w[0] < w[1]),
                    "a reported entry is not strictly ascending"
                );
            }
        }
        (miner.evictions, long_tails)
    }

    #[test]
    fn a_tail_carried_under_the_floor_merges_when_the_entry_returns() {
        // Token 0 is hot, falls under the floor while 1 and 2 are, and
        // rises again: its tail spans many cuts before it is merged.
        let phases = [(0, 40), (1, 89), (2, 89), (0, 89)];
        let (evictions, long_tails) = drive_and_check_cuts(&phases, &[0, 5, 1, 9, 3], 389, 7);
        assert!(evictions > 0, "no bucket boundary evicted");
        assert!(long_tails > 0, "no tail outlived a cut");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Random phased streams in scrambled user order, cut every 1–49
        /// arrivals: the carried sort reports exactly the from-scratch cut
        /// (see [`drive_and_check_cuts`]), across evictions, re-insertions
        /// and entries that fall under the floor and rise again.
        #[test]
        fn prop_carried_sort_equals_a_sort_from_scratch(
            phases in proptest::collection::vec((0u32..4, 10usize..90), 2..8),
            noise in proptest::collection::vec(0u32..16, 1..64),
            stride in 1u64..1009,
            cut_every in 1usize..50
        ) {
            drive_and_check_cuts(&phases, &noise, stride, cut_every);
        }
    }

    #[test]
    fn max_len_bounds_enumeration() {
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.01,
            epsilon: 0.01,
            max_len: 2,
        });
        miner.observe(0, &toks(&[0, 1, 2, 3]));
        // 4 singletons + 6 pairs = 10 itemsets, no triples.
        assert_eq!(miner.table.len(), 10);
    }
}
