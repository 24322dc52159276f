//! Property/equivalence tests for the shard → merge pipeline: over a grid
//! of deterministic synthetic datasets, sharded LCM with support-recount
//! merge must reproduce the single-shard group space exactly, and every
//! merged group must satisfy the closed-group invariants against the
//! global transaction database.

use vexus::data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
use vexus::data::{ShardStrategy, UserData, Vocabulary};
use vexus::mining::transactions::TransactionDb;
use vexus::mining::{
    GroupDiscovery, GroupSet, LcmConfig, LcmDiscovery, MergeContext, MergeStrategy,
    ShardedDiscovery,
};

fn normalize(groups: &GroupSet) -> Vec<(Vec<vexus::data::TokenId>, Vec<u32>)> {
    let mut v: Vec<_> = groups
        .iter()
        .map(|(_, g)| {
            (
                g.description.clone(),
                g.members.iter().collect::<Vec<u32>>(),
            )
        })
        .collect();
    v.sort();
    v
}

fn lcm(min_support: usize) -> LcmDiscovery {
    LcmDiscovery::new(LcmConfig {
        min_support,
        max_description: 8,
        ..Default::default()
    })
}

/// The equivalence property on one dataset: for every shard count and
/// both shard strategies, support-recount merge reproduces the global
/// closed-group space.
fn assert_equivalence(data: &UserData, min_support: usize, shard_counts: &[usize]) {
    let vocab = Vocabulary::build(data);
    let single = normalize(&lcm(min_support).discover(data, &vocab).groups);
    assert!(!single.is_empty(), "degenerate fixture");
    for &shards in shard_counts {
        for strategy in [ShardStrategy::Hash, ShardStrategy::Contiguous] {
            let sharded = ShardedDiscovery::new(lcm(min_support), shards)
                .with_strategy(strategy)
                .with_merge(MergeStrategy::SupportRecount { min_support })
                .discover(data, &vocab);
            assert_eq!(
                single,
                normalize(&sharded.groups),
                "shards={shards} strategy={strategy:?} min_support={min_support} diverged"
            );
        }
    }
}

#[test]
fn sharded_lcm_equivalence_over_seeded_bookcrossing() {
    // Deterministic grid: three seeds × two support floors × two shard
    // counts × both strategies. The floors keep every shard's scaled
    // support ≥ 5 members — the regime where the SON recount was already
    // exact before the closure exchange existed (the oversharded pin
    // below covers the regime underneath).
    for seed in [7u64, 42, 1234] {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 400,
            n_books: 250,
            n_ratings: 2_500,
            n_communities: 4,
            seed,
        });
        for min_support in [20usize, 30] {
            assert_equivalence(&ds.data, min_support, &[2, 4]);
        }
    }
}

#[test]
fn sharded_lcm_equivalence_over_seeded_dbauthors() {
    let ds = dbauthors(&DbAuthorsConfig {
        n_authors: 500,
        n_publications: 3_000,
        n_communities: 4,
        seed: 11,
    });
    for min_support in [25usize, 40] {
        assert_equivalence(&ds.data, min_support, &[2, 4]);
    }
}

/// The same property at workload scale: the 3 000-user dataset the
/// discovery-backend experiment (`d1`) mines, at 4 and 8 shards, with
/// members compared — not a recall ratio over descriptions.
#[test]
fn sharded_lcm_equivalence_at_workload_scale() {
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 3_000,
        n_books: 2_000,
        n_ratings: 20_000,
        n_communities: 8,
        seed: 42,
    });
    assert_equivalence(&ds.data, 8, &[4, 8]);
}

/// The oversharded exactness pin: with the cross-shard closure exchange
/// (on by default), sharded support-recount LCM reproduces the unsharded
/// closed-group space *exactly* — recall == 1.0, members included — even
/// when per-shard scaled support floors drop below 5 members, across
/// seeds × 8/16 shards × both shard strategies. This is the guarantee the
/// exchange round was built for; `sharded_lcm_equivalence_at_workload_scale`
/// and the `build` workload's sharded-vs-unsharded check in `benchmark/`
/// hold the same property at scale.
#[test]
fn oversharded_exchange_recount_is_exact_across_seeds_shards_and_strategies() {
    for seed in [7u64, 42, 1234] {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 400,
            n_books: 250,
            n_ratings: 2_500,
            n_communities: 4,
            seed,
        });
        let vocab = Vocabulary::build(&ds.data);
        // min_support 10 over 8/16 shards scales the per-shard floor to
        // ceil(10/8) = 2 and ceil(10/16) = 1 — squarely inside the old
        // recall tail.
        let min_support = 10usize;
        let single = normalize(&lcm(min_support).discover(&ds.data, &vocab).groups);
        assert!(!single.is_empty(), "degenerate fixture");
        for shards in [8usize, 16] {
            for strategy in [ShardStrategy::Hash, ShardStrategy::Contiguous] {
                let sharded = ShardedDiscovery::new(lcm(min_support), shards)
                    .with_strategy(strategy)
                    .support_recount(min_support)
                    .discover(&ds.data, &vocab);
                assert_eq!(
                    single,
                    normalize(&sharded.groups),
                    "seed={seed} shards={shards} strategy={strategy:?}: \
                     exchange recount lost recall"
                );
            }
        }
    }
}

mod exchange_noop_property {
    //! When the shards already agree — every part carries the same,
    //! already globally closed descriptions — an exchange round must be a
    //! no-op: the merged space with one round equals the merged space with
    //! the exchange disabled, which equals the space itself.
    //! Property-tested over random transaction databases (the context's
    //! dataset is irrelevant once a pre-built database is supplied).

    use super::normalize;
    use proptest::prelude::*;
    use vexus::data::{Schema, TokenId, UserDataBuilder, Vocabulary};
    use vexus::mining::transactions::TransactionDb;
    use vexus::mining::{mine_closed_groups, LcmConfig, MergeContext, MergeStrategy};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn one_exchange_round_is_a_noop_when_shards_agree(
            txs in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 0..6), 2..24),
            min_support in 1usize..4
        ) {
            let transactions: Vec<Vec<TokenId>> = txs
                .iter()
                .map(|s| s.iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let db = TransactionDb::from_transactions(transactions, 10);
            let groups = mine_closed_groups(
                &db,
                &LcmConfig {
                    min_support,
                    max_description: 10,
                    max_groups: usize::MAX,
                    emit_root: false,
                },
            );
            // Two agreeing "shards": identical, globally closed parts.
            let dummy = UserDataBuilder::new(Schema::new()).build();
            let dummy_vocab = Vocabulary::build(&dummy);
            let parts = || vec![groups.clone(), groups.clone()];
            let merge = MergeStrategy::SupportRecount { min_support };
            let ctx = MergeContext::new(&dummy, &dummy_vocab).with_db(&db);
            let without = merge.merge_in(parts(), &ctx.with_exchange_rounds(0));
            let with = merge.merge_in(parts(), &ctx.with_exchange_rounds(1));
            prop_assert_eq!(
                normalize(&without),
                normalize(&with),
                "exchange changed an already-agreed merge"
            );
            prop_assert_eq!(normalize(&with), normalize(&groups));
        }
    }
}

/// Soundness at any shard count (including degenerate oversharding):
/// every merged group must be a *global* closed frequent group — its
/// members are exactly the carriers of its description, its description is
/// exactly the closure of its members, and its support meets the floor.
#[test]
fn merged_groups_satisfy_global_closure_invariants() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vocab = Vocabulary::build(&ds.data);
    let db = TransactionDb::build(&ds.data, &vocab);
    for shards in [3usize, 8, 16] {
        let out = ShardedDiscovery::new(lcm(10), shards)
            .support_recount(10)
            .discover(&ds.data, &vocab);
        assert!(!out.groups.is_empty());
        for (_, g) in out.groups.iter() {
            assert!(g.size() >= 10, "support floor violated");
            assert_eq!(
                db.itemset_members(&g.description).as_slice(),
                g.members.as_slice(),
                "members are not the exact carriers of the description"
            );
            assert_eq!(
                db.closure(&g.members),
                g.description,
                "description is not closed globally"
            );
        }
    }
}

/// The parallel recount must be *byte-identical* to the sequential path —
/// same groups, same order, same member sets — for every worker count and
/// both shard strategies, whether driven through the full sharded
/// discovery or by re-merging pre-mined parts under an explicit context.
#[test]
fn parallel_recount_is_byte_identical_to_sequential() {
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 600,
        n_books: 400,
        n_ratings: 4_000,
        n_communities: 4,
        seed: 97,
    });
    let vocab = Vocabulary::build(&ds.data);
    let db = TransactionDb::build(&ds.data, &vocab);
    for strategy in [ShardStrategy::Hash, ShardStrategy::Contiguous] {
        let driver = ShardedDiscovery::new(lcm(12), 4)
            .with_strategy(strategy)
            .support_recount(12);
        // End-to-end: the discovery outcome (order included) must not
        // depend on merge_threads.
        let sequential = driver
            .clone()
            .with_merge_threads(1)
            .discover(&ds.data, &vocab);
        assert!(!sequential.groups.is_empty(), "degenerate fixture");
        for threads in [2usize, 4, 8] {
            let parallel = driver
                .clone()
                .with_merge_threads(threads)
                .discover(&ds.data, &vocab);
            assert_eq!(
                sequential.groups, parallel.groups,
                "threads={threads} strategy={strategy:?} diverged from sequential merge"
            );
        }
        // Merge layer in isolation: identical parts re-merged under an
        // explicit context (pre-built db reused) stay byte-identical too,
        // including the 0 = auto worker count.
        let (parts, _) = driver.mine_parts(&ds.data, &vocab);
        let merge = MergeStrategy::SupportRecount { min_support: 12 };
        let baseline = merge.merge_in(
            parts.clone(),
            &MergeContext::new(&ds.data, &vocab)
                .with_db(&db)
                .with_threads(1),
        );
        assert_eq!(
            baseline, sequential.groups,
            "re-merging the mined parts must reproduce the discovery outcome"
        );
        for threads in [0usize, 2, 4, 8] {
            let merged = merge.merge_in(
                parts.clone(),
                &MergeContext::new(&ds.data, &vocab)
                    .with_db(&db)
                    .with_threads(threads),
            );
            assert_eq!(baseline, merged, "merge_in threads={threads} diverged");
        }
    }
}

/// Reusing a caller-provided database (and fanning out over 4 threads)
/// must answer exactly like a context that builds its own.
#[test]
fn merge_reuses_caller_db_without_changing_output() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vocab = Vocabulary::build(&ds.data);
    let db = TransactionDb::build(&ds.data, &vocab);
    let driver = ShardedDiscovery::new(lcm(10), 3).support_recount(10);
    let (parts, _) = driver.mine_parts(&ds.data, &vocab);
    let merge = MergeStrategy::SupportRecount { min_support: 10 };
    let own_db = merge.merge_in(parts.clone(), &MergeContext::new(&ds.data, &vocab));
    let reused = merge.merge_in(
        parts,
        &MergeContext::new(&ds.data, &vocab)
            .with_db(&db)
            .with_threads(4),
    );
    assert_eq!(own_db, reused);
}

/// The per-shard telemetry must account for every user exactly once and
/// for the whole pre-merge candidate stream.
#[test]
fn shard_stats_account_for_the_partition() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vocab = Vocabulary::build(&ds.data);
    let out = ShardedDiscovery::new(lcm(10), 5)
        .support_recount(10)
        .discover(&ds.data, &vocab);
    let stats = &out.stats;
    assert_eq!(stats.shards.len(), 5);
    let members: usize = stats.shards.iter().map(|s| s.members).sum();
    assert_eq!(
        members,
        ds.data.n_users(),
        "shards must partition the users"
    );
    let contributed: usize = stats.shards.iter().map(|s| s.groups_discovered).sum();
    assert_eq!(
        stats.candidates_considered, contributed,
        "pre-merge candidate count must equal the shard contributions"
    );
}
