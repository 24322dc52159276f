//! The pluggable group-discovery stage of the offline pipeline.
//!
//! The paper treats discovery as swappable: "For user datasets, different
//! group discovery algorithms such as LCM \[16\] and α-MOMRI \[13\] can be
//! used. In case of user data streams, STREAMMINING \[9\] and BIRCH \[18\]
//! can be employed." This module is that seam as a first-class trait:
//! every algorithm in the crate is exposed as a [`GroupDiscovery`] backend
//! taking `(&UserData, &Vocabulary)` and returning a [`DiscoveryOutcome`]
//! (the discovered [`GroupSet`]), so the engine, the experiment
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
use crate::sharded::{EnsembleDiscovery, MergeStrategy, ShardedDiscovery};
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

/// The result of one discovery run. It stays a struct only because the
/// benchmark's build workload reads `outcome.groups`; it collapses to the
/// [`GroupSet`] itself once that workload no longer does.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    /// The discovered group space.
    pub groups: GroupSet,
}

/// A pluggable offline group-discovery algorithm.
pub trait GroupDiscovery {
    /// Stable backend name, reported as [`ShardStats::algorithm`] and as
    /// the engine's build algorithm.
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
        DiscoveryOutcome {
            groups: mine_closed_groups(&db, &self.config),
        }
    }
}

/// α-MOMRI multi-objective discovery. The group space is the α-Pareto
/// front: every front solution's groups, in first-seen order (best
/// coverage first), not the closed-group candidate space the front was
/// chosen from.
#[derive(Debug, Clone, Default)]
pub struct MomriDiscovery {
    /// Optimizer configuration.
    pub config: MomriConfig,
}

impl MomriDiscovery {
    /// Backend with the given optimizer configuration.
    pub fn new(config: MomriConfig) -> Self {
        Self { config }
    }
}

impl GroupDiscovery for MomriDiscovery {
    fn name(&self) -> &'static str {
        "momri"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let db = TransactionDb::build(data, vocab);
        let result = momri_discover(&db, &self.config);
        let mut groups = GroupSet::new();
        let mut seen = std::collections::BTreeSet::new();
        for sol in &result.front {
            for &id in &sol.groups {
                if seen.insert(id) {
                    groups.push(result.candidates.get(id).clone());
                }
            }
        }
        DiscoveryOutcome { groups }
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
        DiscoveryOutcome {
            groups: tree.into_groups(self.min_cluster_size),
        }
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
        DiscoveryOutcome {
            groups: miner.groups(),
        }
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

    /// Materialize a base (non-composite) variant's concrete backend —
    /// the single place each variant's configuration becomes a backend
    /// value, shared by the plain and sharded paths of
    /// [`DiscoverySelection::backend_with`]. `None` for composite variants.
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
            Self::Momri { config } => BaseBackend::Momri(MomriDiscovery { config }),
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
    /// floors for variants that key off group size. The composite variants
    /// take an explicit worker count for their merge recount (`0` =
    /// available parallelism — purely a performance knob: the merged group
    /// space is byte-identical at any count) and an explicit cross-shard
    /// closure exchange round count (`0` disables the exchange and with it
    /// the oversharded-regime exactness guarantee; see
    /// [`crate::sharded::MergeContext::exchange_rounds`]).
    ///
    /// # Panics
    /// If a [`DiscoverySelection::Sharded`] wraps anything but the four
    /// base variants (nest the other way round: ensemble of sharded).
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
    use crate::group::GroupId;
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
    }

    #[test]
    fn momri_space_is_the_front_not_the_candidates() {
        let (data, vocab) = fixture();
        let backend = MomriDiscovery::default();
        let out = backend.discover(&data, &vocab);
        let result = momri_discover(&TransactionDb::build(&data, &vocab), &backend.config);
        // Every front solution's groups, first-seen order, each once.
        let mut want: Vec<GroupId> = Vec::new();
        for sol in &result.front {
            for &id in &sol.groups {
                if !want.contains(&id) {
                    want.push(id);
                }
            }
        }
        assert!(!want.is_empty());
        assert_eq!(out.groups.len(), want.len());
        for ((_, got), &id) in out.groups.iter().zip(&want) {
            assert_eq!(got, result.candidates.get(id));
        }
        // The candidate space is what the front was chosen from, not the
        // engine's group space.
        assert!(out.groups.len() < result.candidates.len());
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
    }

    #[test]
    fn stream_backend_observes_every_user_once() {
        let (data, vocab) = fixture();
        let config = StreamFimConfig {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        };
        let out = StreamFimDiscovery::new(config.clone()).discover(&data, &vocab);
        assert!(!out.groups.is_empty());
        assert!(out.groups.iter().all(|(_, g)| !g.description.is_empty()));
        // The same space as a miner fed each user's transaction once.
        let mut miner = StreamMiner::new(config);
        for u in data.users() {
            miner.observe(u.raw(), &vocab.user_tokens(&data, u));
        }
        assert_eq!(miner.n_seen(), data.n_users() as u64);
        assert_eq!(out.groups, miner.groups());
    }

    #[test]
    fn selection_builds_every_backend() {
        let (data, vocab) = fixture();
        let selections = [
            DiscoverySelection::default(),
            DiscoverySelection::Momri {
                config: MomriConfig::default(),
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
            let backend = sel.backend_with(5, 0, 1);
            let out = backend.discover(&data, &vocab);
            assert!(
                !out.groups.is_empty(),
                "backend {} produced no groups",
                backend.name()
            );
        }
    }

    #[test]
    fn discovery_is_deterministic() {
        let (data, vocab) = fixture();
        for backend in [
            DiscoverySelection::default().backend_with(5, 0, 1),
            DiscoverySelection::Birch {
                branching: 10,
                threshold: 1.6,
            }
            .backend_with(5, 0, 1),
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
