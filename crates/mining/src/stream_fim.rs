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

#[derive(Debug)]
struct Entry {
    count: u64,
    delta: u64,
    members: Vec<u32>,
}

/// One tracked itemset in a [`MinerState`] export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinerEntry {
    /// The itemset (sorted ascending, as observed).
    pub itemset: Vec<TokenId>,
    /// Occurrences since the entry was (last) inserted.
    pub count: u64,
    /// Lossy-counting insertion delta (maximum undercount).
    pub delta: u64,
    /// Users observed carrying the itemset since insertion, sorted.
    pub members: Vec<u32>,
}

/// The miner's complete mutable state in canonical order — what a live
/// checkpoint embeds (see [`StreamMiner::export_state`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MinerState {
    /// Tracked entries, sorted by itemset.
    pub entries: Vec<MinerEntry>,
    /// Transactions processed so far.
    pub n_seen: u64,
    /// Lifetime evictions.
    pub evictions: u64,
}

/// One-pass lossy-counting miner over a stream of `(user, tokens)`
/// transactions.
#[derive(Debug)]
pub struct StreamMiner {
    cfg: StreamFimConfig,
    table: HashMap<Vec<TokenId>, Entry>,
    bucket_width: u64,
    n_seen: u64,
    evictions: u64,
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

    /// Export the miner's complete mutable state in canonical order, for
    /// checkpointing. Entries are sorted by itemset (ascending) and each
    /// entry's members are sorted — safe because member order never
    /// reaches any output: every user is observed at most once per entry,
    /// and [`StreamMiner::groups`] sorts members into a [`MemberSet`]
    /// anyway. Canonical ordering makes the export (and hence a checkpoint
    /// embedding it) a pure function of the logical miner state.
    pub fn export_state(&self) -> MinerState {
        let mut entries: Vec<MinerEntry> = self
            .table
            .iter()
            .map(|(itemset, e)| {
                let mut members = e.members.clone();
                members.sort_unstable();
                MinerEntry {
                    itemset: itemset.clone(),
                    count: e.count,
                    delta: e.delta,
                    members,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.itemset.cmp(&b.itemset));
        MinerState {
            entries,
            n_seen: self.n_seen,
            evictions: self.evictions,
        }
    }

    /// Rebuild a miner from exported state. The reconstruction is
    /// observation-equivalent to the original: counts, insertion deltas,
    /// bucket position (`n_seen`) and eviction telemetry all resume
    /// exactly, so feeding both miners the same subsequent transactions
    /// yields identical [`StreamMiner::groups`] output.
    ///
    /// # Panics
    /// Panics on an invalid `cfg`, exactly like [`StreamMiner::new`] —
    /// state decoding validates file contents, but the configuration comes
    /// from the caller.
    pub fn from_state(cfg: StreamFimConfig, state: MinerState) -> Self {
        let mut miner = Self::new(cfg);
        miner.n_seen = state.n_seen;
        miner.evictions = state.evictions;
        miner.table = state
            .entries
            .into_iter()
            .map(|e| {
                (
                    e.itemset,
                    Entry {
                        count: e.count,
                        delta: e.delta,
                        members: e.members,
                    },
                )
            })
            .collect();
        miner
    }

    /// The itemsets whose *guaranteed* frequency clears `(σ − ε)·N` — the
    /// standard lossy-counting query — as groups, most frequent first. A
    /// group's members are the users observed carrying the itemset since
    /// it was tracked, so its size is the tracked count.
    pub fn groups(&self) -> GroupSet {
        let n = self.n_seen as f64;
        let threshold = ((self.cfg.support - self.cfg.epsilon) * n).max(0.0);
        let mut entries: Vec<(&Vec<TokenId>, &Entry)> = self
            .table
            .iter()
            .filter(|(_, e)| e.count as f64 >= threshold)
            .collect();
        entries.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(b.0)));
        let mut gs = GroupSet::new();
        for (itemset, e) in entries {
            gs.push(Group::new(
                itemset.clone(),
                MemberSet::from_unsorted(e.members.clone()),
            ));
        }
        gs
    }
}

#[cfg(test)]
impl StreamMiner {
    /// Transactions processed so far.
    pub(crate) fn n_seen(&self) -> u64 {
        self.n_seen
    }

    /// Entries currently held in-core.
    pub(crate) fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Itemset entries evicted by bucket-boundary pruning over the miner's
    /// lifetime — the counterpart of the memory bound.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
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
            peak = peak.max(miner.table_size());
        }
        // The noise universe alone has 37 singleton tokens + pairs; lossy
        // counting must keep the table well below the exact-table size.
        let exact_table = exact_counts(&stream, 2).len();
        assert!(
            peak < exact_table,
            "peak table {peak} should undercut exact table {exact_table}"
        );
        assert_eq!(miner.n_seen(), 20_000);
        // The bound is enforced by eviction, and the counter sees it.
        assert!(miner.evictions() > 0, "pruning must have evicted entries");
        assert!(miner.evictions() as usize >= exact_table - miner.table_size());
    }

    #[test]
    fn evictions_start_at_zero_and_count_pruned_entries() {
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.5,
            epsilon: 0.5, // bucket width 2: prune every other transaction
            max_len: 1,
        });
        assert_eq!(miner.evictions(), 0);
        // Two distinct singletons, each seen once: at the first bucket
        // boundary both have count + Δ = 1 ≤ 1 → evicted.
        miner.observe(0, &toks(&[0]));
        miner.observe(1, &toks(&[1]));
        assert_eq!(miner.evictions(), 2);
        assert_eq!(miner.table_size(), 0);
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

    /// The checkpoint contract: export → import resumes the stream
    /// exactly — after observing the same suffix, the rebuilt miner's
    /// groups, telemetry, and re-export all match the uninterrupted run.
    #[test]
    fn exported_state_resumes_byte_equivalently() {
        let stream = synthetic_stream(2_000);
        let cfg = StreamFimConfig {
            support: 0.2,
            epsilon: 0.02,
            max_len: 2,
        };
        let split = 1_234;
        let mut uninterrupted = StreamMiner::new(cfg.clone());
        let mut prefix = StreamMiner::new(cfg.clone());
        for (u, tx) in stream[..split].iter().enumerate() {
            uninterrupted.observe(u as u32, tx);
            prefix.observe(u as u32, tx);
        }
        let state = prefix.export_state();
        // Export is canonical: entries strictly ascending by itemset.
        assert!(state
            .entries
            .windows(2)
            .all(|w| w[0].itemset < w[1].itemset));
        let mut resumed = StreamMiner::from_state(cfg, state.clone());
        for (u, tx) in stream.iter().enumerate().skip(split) {
            uninterrupted.observe(u as u32, tx);
            resumed.observe(u as u32, tx);
        }
        assert_eq!(resumed.n_seen(), uninterrupted.n_seen());
        assert_eq!(resumed.evictions(), uninterrupted.evictions());
        assert_eq!(resumed.table_size(), uninterrupted.table_size());
        assert_eq!(resumed.groups(), uninterrupted.groups());
        // And the next export is canonical-equal, so a checkpoint of a
        // recovered run is byte-identical to one of an uninterrupted run.
        assert_eq!(resumed.export_state(), uninterrupted.export_state());
        // Idempotence without further observations.
        let again = StreamMiner::from_state(
            StreamFimConfig {
                support: 0.2,
                epsilon: 0.02,
                max_len: 2,
            },
            state.clone(),
        );
        assert_eq!(again.export_state(), state);
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let miner = StreamMiner::new(StreamFimConfig::default());
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

    #[test]
    fn max_len_bounds_enumeration() {
        let mut miner = StreamMiner::new(StreamFimConfig {
            support: 0.01,
            epsilon: 0.01,
            max_len: 2,
        });
        miner.observe(0, &toks(&[0, 1, 2, 3]));
        // 4 singletons + 6 pairs = 10 itemsets, no triples.
        assert_eq!(miner.table_size(), 10);
    }
}
