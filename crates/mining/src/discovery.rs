//! The pluggable group-discovery stage of the offline pipeline.
//!
//! The paper treats discovery as swappable: "For user datasets, different
//! group discovery algorithms such as LCM \[16\] and α-MOMRI \[13\] can be
//! used. In case of user data streams, STREAMMINING \[9\] and BIRCH \[18\]
//! can be employed." This module is that seam as a first-class trait:
//! every algorithm in the crate is exposed as a [`GroupDiscovery`] backend
//! taking `(&UserData, &Vocabulary)` and returning a [`DiscoveryOutcome`]
//! (a [`GroupSet`] plus [`DiscoveryStats`]), so the engine, the experiment
//! harness and future scaling work (sharded discovery, async refresh,
//! remote backends) all plug in behind one interface.
//!
//! * [`LcmDiscovery`] — closed frequent itemsets over demographics (the
//!   default),
//! * [`MomriDiscovery`] — α-MOMRI multi-objective discovery,
//! * [`BirchDiscovery`] — CF-tree clustering; owns the featurization step
//!   (one-hot demographics + activity) end to end,
//! * [`StreamFimDiscovery`] — lossy-counting FIM over user arrivals.
//!
//! [`DiscoverySelection`] is the plain-data configuration mirror of the
//! four backends, suitable for embedding in engine configs.

use crate::birch::{BirchConfig, BirchTree};
use crate::features::Featurizer;
use crate::group::GroupSet;
use crate::lcm::{mine_closed_groups, LcmConfig};
use crate::momri::{discover as momri_discover, MomriConfig};
use crate::sharded::{EnsembleDiscovery, MergeStrategy, MergeTelemetry, ShardedDiscovery};
use crate::stream_fim::{StreamFimConfig, StreamMiner};
use crate::transactions::TransactionDb;
use vexus_data::{ShardStrategy, UserData, Vocabulary};

/// One shard's (or one ensemble member's) contribution to a composite
/// discovery run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index within the plan (or member index within the ensemble).
    pub shard: usize,
    /// Backend that ran on this shard.
    pub algorithm: &'static str,
    /// Members (transactions) the shard covered.
    pub members: usize,
    /// Groups the shard contributed before merging.
    pub groups_discovered: usize,
}

/// Counts reported by one discovery run.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryStats {
    /// Backend name (`"lcm"`, `"momri"`, `"birch"`, `"stream-fim"`,
    /// `"sharded"`, `"ensemble"`).
    pub algorithm: &'static str,
    /// Groups returned (before any engine-side size filtering).
    pub groups_discovered: usize,
    /// Internal candidates examined, where the algorithm counts them
    /// (closed sets for LCM/MOMRI, tracked itemsets for stream FIM, CF
    /// leaf entries for BIRCH; pre-merge groups for sharded/ensemble runs).
    pub candidates_considered: usize,
    /// Per-shard (or per-ensemble-member) breakdown; empty for plain
    /// single-pass runs.
    pub shards: Vec<ShardStats>,
    /// What the merge stage reported about its closure exchange (all zero
    /// for plain runs, when the exchange is disabled, or when it is
    /// skipped because at most one full-data part contributed
    /// descriptions).
    pub merge: MergeTelemetry,
    /// Stream-miner transactions observed over the miner's lifetime
    /// (zero for non-stream backends). For live refreshes this is
    /// cumulative across epochs, so batch and incremental runs report the
    /// same telemetry surface.
    pub stream_n_seen: u64,
    /// Itemset entries the stream miner held in-core when the group space
    /// was materialized (zero for non-stream backends).
    pub stream_table_size: usize,
    /// Itemset entries evicted by the stream miner's bucket-boundary
    /// pruning over its lifetime (zero for non-stream backends).
    pub stream_evictions: u64,
}

/// The result of one discovery run.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    /// The discovered group space.
    pub groups: GroupSet,
    /// Run statistics.
    pub stats: DiscoveryStats,
}

/// A pluggable offline group-discovery algorithm.
pub trait GroupDiscovery {
    /// Stable backend name for stats and reports.
    fn name(&self) -> &'static str;

    /// Discover groups over a dataset. Implementations must be
    /// deterministic for a given input (the engine's reproducibility tests
    /// rely on it).
    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome;
}

/// LCM-style closed frequent itemset mining (the paper's default path).
#[derive(Debug, Clone, Default)]
pub struct LcmDiscovery {
    /// Miner configuration.
    pub config: LcmConfig,
}

impl LcmDiscovery {
    /// Backend with the given miner configuration.
    pub fn new(config: LcmConfig) -> Self {
        Self { config }
    }
}

impl GroupDiscovery for LcmDiscovery {
    fn name(&self) -> &'static str {
        "lcm"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let db = TransactionDb::build(data, vocab);
        let groups = mine_closed_groups(&db, &self.config);
        let stats = DiscoveryStats {
            algorithm: self.name(),
            groups_discovered: groups.len(),
            candidates_considered: groups.len(),
            ..Default::default()
        };
        DiscoveryOutcome { groups, stats }
    }
}

/// Which part of the α-MOMRI result becomes the engine's group space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MomriMaterialize {
    /// The full closed-group candidate space (richest navigation surface).
    #[default]
    Candidates,
    /// Only the best front solution's groups (a curated, small space).
    BestSolution,
    /// The union of all front solutions' groups.
    FrontUnion,
}

/// α-MOMRI multi-objective discovery.
#[derive(Debug, Clone, Default)]
pub struct MomriDiscovery {
    /// Optimizer configuration.
    pub config: MomriConfig,
    /// Result materialization policy.
    pub materialize: MomriMaterialize,
}

impl MomriDiscovery {
    /// Backend with the given optimizer configuration.
    pub fn new(config: MomriConfig) -> Self {
        Self {
            config,
            materialize: MomriMaterialize::default(),
        }
    }
}

impl GroupDiscovery for MomriDiscovery {
    fn name(&self) -> &'static str {
        "momri"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let db = TransactionDb::build(data, vocab);
        let result = momri_discover(&db, &self.config);
        let candidates_considered = result.candidates.len();
        let groups = match self.materialize {
            MomriMaterialize::Candidates => result.candidates,
            MomriMaterialize::BestSolution => result
                .front
                .first()
                .map(|best| result.solution_groups(best))
                .unwrap_or_default(),
            MomriMaterialize::FrontUnion => {
                let mut out = GroupSet::new();
                let mut seen = std::collections::BTreeSet::new();
                for sol in &result.front {
                    for &id in &sol.groups {
                        if seen.insert(id) {
                            out.push(result.candidates.get(id).clone());
                        }
                    }
                }
                out
            }
        };
        let stats = DiscoveryStats {
            algorithm: self.name(),
            groups_discovered: groups.len(),
            candidates_considered,
            ..Default::default()
        };
        DiscoveryOutcome { groups, stats }
    }
}

/// BIRCH CF-tree clustering over numeric user features.
///
/// Owns the full featurization step: builds the one-hot + activity
/// [`Featurizer`] over the dataset and streams every user through the
/// CF-tree, so callers no longer hand-wire features at each call site.
#[derive(Debug, Clone)]
pub struct BirchDiscovery {
    /// CF-tree branching factor.
    pub branching: usize,
    /// Absorption threshold on leaf-entry radius. One-hot demographics
    /// live on a hypercube (users differing in `d` attributes sit at
    /// distance `sqrt(2d)`), so thresholds around `1.5` admit a couple of
    /// differing attributes per cluster.
    pub threshold: f64,
    /// Minimum cluster size kept as a group.
    pub min_cluster_size: usize,
}

impl Default for BirchDiscovery {
    fn default() -> Self {
        Self {
            branching: 10,
            threshold: 1.6,
            min_cluster_size: 5,
        }
    }
}

impl GroupDiscovery for BirchDiscovery {
    fn name(&self) -> &'static str {
        "birch"
    }

    fn discover(&self, data: &UserData, _vocab: &Vocabulary) -> DiscoveryOutcome {
        let featurizer = Featurizer::new(data);
        let mut tree = BirchTree::new(BirchConfig {
            branching: self.branching,
            threshold: self.threshold,
            dim: featurizer.dim(),
        });
        for u in data.users() {
            tree.insert(u.raw(), &featurizer.features(data, u));
        }
        let candidates_considered = tree.clusters().len();
        let groups = tree.into_groups(self.min_cluster_size);
        let stats = DiscoveryStats {
            algorithm: self.name(),
            groups_discovered: groups.len(),
            candidates_considered,
            ..Default::default()
        };
        DiscoveryOutcome { groups, stats }
    }
}

/// Lossy-counting frequent itemset mining over the stream of user
/// arrivals (each user's demographic transaction observed once).
#[derive(Debug, Clone, Default)]
pub struct StreamFimDiscovery {
    /// Miner configuration.
    pub config: StreamFimConfig,
}

impl StreamFimDiscovery {
    /// Backend with the given miner configuration.
    pub fn new(config: StreamFimConfig) -> Self {
        Self { config }
    }
}

impl GroupDiscovery for StreamFimDiscovery {
    fn name(&self) -> &'static str {
        "stream-fim"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let mut miner = StreamMiner::new(self.config.clone());
        for u in data.users() {
            miner.observe(u.raw(), &vocab.user_tokens(data, u));
        }
        let candidates_considered = miner.table_size();
        let groups = miner.groups();
        let stats = DiscoveryStats {
            algorithm: self.name(),
            groups_discovered: groups.len(),
            candidates_considered,
            stream_n_seen: miner.n_seen(),
            stream_table_size: miner.table_size(),
            stream_evictions: miner.evictions(),
            ..Default::default()
        };
        DiscoveryOutcome { groups, stats }
    }
}

/// Plain-data selection of a merge layer, embeddable in engine
/// configuration. The engine supplies the support floor (its
/// `min_group_size`) where a strategy needs one; see
/// [`crate::sharded::MergeStrategy`] for the semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeSelection {
    /// Concatenate every part's groups unchanged.
    Union,
    /// Merge groups sharing a description by unioning their members.
    DedupByDescription,
    /// Re-evaluate each description globally (members, closure, support).
    #[default]
    SupportRecount,
}

impl MergeSelection {
    /// Materialize the strategy, supplying `min_support` where needed.
    pub fn strategy(self, min_support: usize) -> MergeStrategy {
        match self {
            Self::Union => MergeStrategy::Union,
            Self::DedupByDescription => MergeStrategy::DedupByDescription,
            Self::SupportRecount => MergeStrategy::SupportRecount { min_support },
        }
    }
}

/// Plain-data selection of a discovery backend, embeddable in engine
/// configuration (the engine derives support floors from its own
/// `min_group_size` where a variant leaves them implicit).
#[derive(Debug, Clone)]
pub enum DiscoverySelection {
    /// Closed frequent itemsets (the default offline path).
    Lcm {
        /// Maximum description length mined.
        max_description: usize,
        /// Hard cap on the discovered group space.
        max_groups: usize,
    },
    /// α-MOMRI multi-objective discovery.
    Momri {
        /// Optimizer configuration.
        config: MomriConfig,
        /// Result materialization policy.
        materialize: MomriMaterialize,
    },
    /// BIRCH CF-tree clustering.
    Birch {
        /// Branching factor.
        branching: usize,
        /// Absorption threshold.
        threshold: f64,
    },
    /// Lossy-counting stream FIM.
    StreamFim {
        /// Support threshold σ (fraction of the stream).
        support: f64,
        /// Error bound ε (< σ).
        epsilon: f64,
        /// Maximum itemset length.
        max_len: usize,
    },
    /// Run a base backend per member-disjoint shard on worker threads and
    /// fold the per-shard group spaces through a merge layer. `inner` must
    /// be one of the four base variants — shard an ensemble by sharding its
    /// members instead.
    Sharded {
        /// The base backend to run on every shard.
        inner: Box<DiscoverySelection>,
        /// Number of shards (workers).
        shards: usize,
        /// How members are assigned to shards.
        strategy: ShardStrategy,
        /// How per-shard group spaces fold into one.
        merge: MergeSelection,
    },
    /// Union several backends' group spaces behind one merge layer
    /// (e.g. LCM ∪ BIRCH: described and clustered groups side by side).
    Ensemble {
        /// The member backends, each itself any selection.
        members: Vec<DiscoverySelection>,
        /// How the member group spaces fold into one.
        merge: MergeSelection,
    },
}

impl Default for DiscoverySelection {
    fn default() -> Self {
        Self::Lcm {
            max_description: 4,
            max_groups: 100_000,
        }
    }
}

impl DiscoverySelection {
    /// Wrap this selection in a sharded driver with the default strategy
    /// (hash sharding, support-recount merge).
    pub fn sharded(self, shards: usize) -> Self {
        self.sharded_with(shards, ShardStrategy::Hash, MergeSelection::SupportRecount)
    }

    /// Wrap this selection in a sharded driver with explicit strategy and
    /// merge choices.
    pub fn sharded_with(
        self,
        shards: usize,
        strategy: ShardStrategy,
        merge: MergeSelection,
    ) -> Self {
        Self::Sharded {
            inner: Box::new(self),
            shards,
            strategy,
            merge,
        }
    }

    /// Combine several selections into an ensemble behind `merge`.
    pub fn ensemble(members: Vec<DiscoverySelection>, merge: MergeSelection) -> Self {
        Self::Ensemble { members, merge }
    }

    /// Materialize a base (non-composite) variant's concrete backend —
    /// the single place each variant's configuration becomes a backend
    /// value, shared by the plain and sharded paths of
    /// [`DiscoverySelection::backend`]. `None` for composite variants.
    fn base_backend(&self, min_group_size: usize) -> Option<BaseBackend> {
        Some(match self.clone() {
            Self::Lcm {
                max_description,
                max_groups,
            } => BaseBackend::Lcm(LcmDiscovery::new(LcmConfig {
                min_support: min_group_size,
                max_description,
                max_groups,
                emit_root: false,
            })),
            Self::Momri {
                config,
                materialize,
            } => BaseBackend::Momri(MomriDiscovery {
                config,
                materialize,
            }),
            Self::Birch {
                branching,
                threshold,
            } => BaseBackend::Birch(BirchDiscovery {
                branching,
                threshold,
                min_cluster_size: min_group_size,
            }),
            Self::StreamFim {
                support,
                epsilon,
                max_len,
            } => BaseBackend::StreamFim(StreamFimDiscovery::new(StreamFimConfig {
                support,
                epsilon,
                max_len,
            })),
            Self::Sharded { .. } | Self::Ensemble { .. } => return None,
        })
    }

    /// Materialize the selected backend. `min_group_size` supplies support
    /// floors for variants that key off group size. Composite variants
    /// merge with auto-sized recount parallelism and one closure exchange
    /// round (the exactness default); see
    /// [`DiscoverySelection::backend_with`] for explicit knobs.
    ///
    /// # Panics
    /// If a [`DiscoverySelection::Sharded`] wraps anything but the four
    /// base variants (nest the other way round: ensemble of sharded).
    pub fn backend(&self, min_group_size: usize) -> Box<dyn GroupDiscovery> {
        self.backend_with(min_group_size, 0, 1)
    }

    /// As [`DiscoverySelection::backend`], with an explicit worker count
    /// for the composite variants' merge recount (`0` = available
    /// parallelism — purely a performance knob: the merged group space is
    /// byte-identical at any count) and an explicit cross-shard closure
    /// exchange round count (`0` disables the exchange and with it the
    /// oversharded-regime exactness guarantee; see
    /// [`crate::sharded::MergeContext::exchange_rounds`]).
    ///
    /// # Panics
    /// As [`DiscoverySelection::backend`].
    pub fn backend_with(
        &self,
        min_group_size: usize,
        merge_threads: usize,
        exchange_rounds: usize,
    ) -> Box<dyn GroupDiscovery> {
        match self {
            Self::Sharded {
                inner,
                shards,
                strategy,
                merge,
            } => {
                let merge = merge.strategy(min_group_size);
                // `ShardedDiscovery` is generic over a concrete, clonable
                // backend (each shard runs an adapted copy), so the base
                // variants are wrapped per concrete type.
                let base = inner.base_backend(min_group_size).unwrap_or_else(|| {
                    panic!(
                        "DiscoverySelection::Sharded composes over a base backend; \
                         to shard an ensemble, shard its members instead"
                    )
                });
                fn wrap<B: GroupDiscovery + crate::sharded::ShardScaled + Sync + 'static>(
                    backend: B,
                    shards: usize,
                    strategy: ShardStrategy,
                    merge: MergeStrategy,
                    merge_threads: usize,
                    exchange_rounds: usize,
                ) -> Box<dyn GroupDiscovery> {
                    Box::new(
                        ShardedDiscovery::new(backend, shards)
                            .with_strategy(strategy)
                            .with_merge(merge)
                            .with_merge_threads(merge_threads)
                            .with_exchange_rounds(exchange_rounds),
                    )
                }
                match base {
                    BaseBackend::Lcm(b) => {
                        wrap(b, *shards, *strategy, merge, merge_threads, exchange_rounds)
                    }
                    BaseBackend::Momri(b) => {
                        wrap(b, *shards, *strategy, merge, merge_threads, exchange_rounds)
                    }
                    BaseBackend::Birch(b) => {
                        wrap(b, *shards, *strategy, merge, merge_threads, exchange_rounds)
                    }
                    BaseBackend::StreamFim(b) => {
                        wrap(b, *shards, *strategy, merge, merge_threads, exchange_rounds)
                    }
                }
            }
            Self::Ensemble { members, merge } => {
                let mut ensemble = EnsembleDiscovery::new(merge.strategy(min_group_size))
                    .with_merge_threads(merge_threads)
                    .with_exchange_rounds(exchange_rounds);
                for member in members {
                    ensemble.push(member.backend_with(
                        min_group_size,
                        merge_threads,
                        exchange_rounds,
                    ));
                }
                Box::new(ensemble)
            }
            base => match base.base_backend(min_group_size).expect("base variant") {
                BaseBackend::Lcm(b) => Box::new(b),
                BaseBackend::Momri(b) => Box::new(b),
                BaseBackend::Birch(b) => Box::new(b),
                BaseBackend::StreamFim(b) => Box::new(b),
            },
        }
    }
}

/// A materialized base-variant backend (see
/// [`DiscoverySelection::base_backend`]).
enum BaseBackend {
    Lcm(LcmDiscovery),
    Momri(MomriDiscovery),
    Birch(BirchDiscovery),
    StreamFim(StreamFimDiscovery),
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

    fn fixture() -> (vexus_data::UserData, Vocabulary) {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vocab = Vocabulary::build(&ds.data);
        (ds.data, vocab)
    }

    #[test]
    fn lcm_backend_mines_a_rich_space() {
        let (data, vocab) = fixture();
        let out = LcmDiscovery::new(LcmConfig {
            min_support: 10,
            ..Default::default()
        })
        .discover(&data, &vocab);
        assert!(out.groups.len() > 20, "got {}", out.groups.len());
        assert_eq!(out.stats.algorithm, "lcm");
        assert_eq!(out.stats.groups_discovered, out.groups.len());
    }

    #[test]
    fn momri_materialization_modes_nest() {
        let (data, vocab) = fixture();
        let base = MomriDiscovery::default();
        let candidates = base.discover(&data, &vocab);
        let best = MomriDiscovery {
            materialize: MomriMaterialize::BestSolution,
            ..base.clone()
        }
        .discover(&data, &vocab);
        let union = MomriDiscovery {
            materialize: MomriMaterialize::FrontUnion,
            ..base
        }
        .discover(&data, &vocab);
        assert!(!best.groups.is_empty());
        assert!(best.groups.len() <= union.groups.len());
        assert!(union.groups.len() <= candidates.groups.len());
        assert_eq!(
            candidates.stats.candidates_considered,
            candidates.groups.len()
        );
    }

    #[test]
    fn birch_backend_owns_featurization() {
        let (data, vocab) = fixture();
        let out = BirchDiscovery::default().discover(&data, &vocab);
        assert!(!out.groups.is_empty());
        // Cluster groups carry no token description.
        assert!(out.groups.iter().all(|(_, g)| g.description.is_empty()));
        // No group smaller than the floor.
        assert!(out.groups.iter().all(|(_, g)| g.size() >= 5));
        assert_eq!(out.stats.algorithm, "birch");
    }

    #[test]
    fn stream_backend_observes_every_user_once() {
        let (data, vocab) = fixture();
        let out = StreamFimDiscovery::new(StreamFimConfig {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        })
        .discover(&data, &vocab);
        assert!(!out.groups.is_empty());
        assert!(out.groups.iter().all(|(_, g)| !g.description.is_empty()));
        // Stream telemetry surfaces in the stats.
        assert_eq!(out.stats.stream_n_seen, data.n_users() as u64);
        assert_eq!(out.stats.stream_table_size, out.stats.candidates_considered);
    }

    #[test]
    fn non_stream_backends_report_zero_stream_telemetry() {
        let (data, vocab) = fixture();
        let out = LcmDiscovery::default().discover(&data, &vocab);
        assert_eq!(out.stats.stream_n_seen, 0);
        assert_eq!(out.stats.stream_table_size, 0);
        assert_eq!(out.stats.stream_evictions, 0);
    }

    #[test]
    fn selection_builds_every_backend() {
        let (data, vocab) = fixture();
        let selections = [
            DiscoverySelection::default(),
            DiscoverySelection::Momri {
                config: MomriConfig::default(),
                materialize: MomriMaterialize::Candidates,
            },
            DiscoverySelection::Birch {
                branching: 10,
                threshold: 1.6,
            },
            DiscoverySelection::StreamFim {
                support: 0.05,
                epsilon: 0.01,
                max_len: 3,
            },
        ];
        for sel in selections {
            let backend = sel.backend(5);
            let out = backend.discover(&data, &vocab);
            assert!(
                !out.groups.is_empty(),
                "backend {} produced no groups",
                backend.name()
            );
            assert_eq!(out.stats.algorithm, backend.name());
        }
    }

    #[test]
    fn discovery_is_deterministic() {
        let (data, vocab) = fixture();
        for backend in [
            DiscoverySelection::default().backend(5),
            DiscoverySelection::Birch {
                branching: 10,
                threshold: 1.6,
            }
            .backend(5),
        ] {
            let a = backend.discover(&data, &vocab);
            let b = backend.discover(&data, &vocab);
            assert_eq!(a.groups.len(), b.groups.len());
            for ((_, ga), (_, gb)) in a.groups.iter().zip(b.groups.iter()) {
                assert_eq!(ga.description, gb.description);
                assert_eq!(ga.members.as_slice(), gb.members.as_slice());
            }
        }
    }
}
