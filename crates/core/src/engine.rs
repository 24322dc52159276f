//! The engine facade: Fig. 1's offline pre-processing pipeline as an
//! explicit staged builder (data → discovery → size-filter → index) plus
//! session management.
//!
//! [`VexusBuilder`] is the pipeline. Its discovery stage accepts any
//! [`GroupDiscovery`] backend — the paper's LCM default, α-MOMRI, BIRCH or
//! stream FIM, or an external implementation — and every stage reports
//! into [`BuildStats`]. [`Vexus::build`] remains the one-call facade,
//! routing through the builder with the backend selected by
//! [`EngineConfig::discovery`].

use crate::config::EngineConfig;
use crate::error::CoreError;
use crate::session::{ExplorationSession, Session};
use std::sync::Arc;
use vexus_data::{SnapshotError, UserData, Vocabulary};
use vexus_index::{GroupIndex, NeighborCache, OverlapGraph};
use vexus_mining::{GroupDiscovery, GroupSet};

/// What the offline pre-processing stage did that the built engine cannot
/// recompute. (What it produced is the engine: `groups().len()`,
/// `index().stats()`.)
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Where the group space came from: the discovery backend's
    /// [`GroupDiscovery::name`], or `"pregrouped"`, `"snapshot"`,
    /// `"checkpoint"` or `"stream-fim-delta"` (a live epoch).
    pub algorithm: &'static str,
    /// Groups removed by the size filter.
    pub filtered_out: usize,
}

/// How the builder obtains the group space.
enum DiscoveryStage {
    /// Run the backend selected by `EngineConfig::discovery`.
    FromConfig,
    /// Run an explicitly supplied backend.
    Backend(Box<dyn GroupDiscovery>),
    /// Skip discovery: the caller already has vocabulary + groups.
    Pregrouped(Vocabulary, GroupSet),
}

/// Staged builder for the offline pipeline:
///
/// 1. **data** — takes ownership of the dataset, builds the token
///    [`Vocabulary`],
/// 2. **discovery** — runs a pluggable [`GroupDiscovery`] backend (or
///    accepts pre-discovered groups),
/// 3. **size-filter** — drops groups under
///    [`EngineConfig::min_group_size`],
/// 4. **index** — builds the inverted similarity [`GroupIndex`].
///
/// ```no_run
/// # use vexus_core::engine::VexusBuilder;
/// # use vexus_core::EngineConfig;
/// # use vexus_mining::BirchDiscovery;
/// # let data = unimplemented!();
/// let vexus = VexusBuilder::new(data)
///     .config(EngineConfig::paper())
///     .discovery(BirchDiscovery::default())
///     .build()?;
/// # Ok::<(), vexus_core::CoreError>(())
/// ```
pub struct VexusBuilder {
    data: UserData,
    config: EngineConfig,
    stage: DiscoveryStage,
}

impl VexusBuilder {
    /// Stage 1: start the pipeline from a dataset.
    pub fn new(data: UserData) -> Self {
        Self {
            data,
            config: EngineConfig::default(),
            stage: DiscoveryStage::FromConfig,
        }
    }

    /// Set the engine configuration (also selects the default backend via
    /// [`EngineConfig::discovery`] unless one is supplied explicitly).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Stage 2 (explicit): run this discovery backend instead of the
    /// config-selected one.
    pub fn discovery(self, backend: impl GroupDiscovery + 'static) -> Self {
        self.discovery_boxed(Box::new(backend))
    }

    /// Stage 2 (explicit, boxed): as [`VexusBuilder::discovery`] for
    /// backends chosen at runtime.
    pub fn discovery_boxed(mut self, backend: Box<dyn GroupDiscovery>) -> Self {
        self.stage = DiscoveryStage::Backend(backend);
        self
    }

    /// Stage 2 (bypass): use an externally discovered group space and its
    /// vocabulary — the pre-discovered plug-in path.
    ///
    /// **The size-filter stage still runs**: every supplied group with
    /// fewer than `config.min_group_size` members is silently dropped, the
    /// same as for any discovery backend. The removal count is reported in
    /// [`BuildStats::filtered_out`] (and a regression test pins it), so a
    /// curated space shrinking here is visible, not mysterious. Pass a
    /// smaller `min_group_size` — `1` disables the filter — to keep
    /// curated small groups.
    pub fn groups(mut self, vocab: Vocabulary, groups: GroupSet) -> Self {
        self.stage = DiscoveryStage::Pregrouped(vocab, groups);
        self
    }

    /// Run the remaining stages and assemble the engine.
    pub fn build(self) -> Result<Vexus, CoreError> {
        let Self {
            data,
            config,
            stage,
        } = self;
        // Stage 2: discovery.
        let discover = |backend: Box<dyn GroupDiscovery>| {
            let vocab = Vocabulary::build(&data);
            let groups = backend.discover(&data, &vocab).groups;
            (vocab, groups, backend.name())
        };
        let (vocab, mut groups, algorithm) = match stage {
            DiscoveryStage::FromConfig => discover(config.discovery.backend_with(
                config.min_group_size,
                config.merge_threads,
                config.exchange_rounds,
            )),
            DiscoveryStage::Backend(backend) => discover(backend),
            DiscoveryStage::Pregrouped(vocab, groups) => (vocab, groups, "pregrouped"),
        };
        // Stage 3: size filter.
        let filtered_out = groups.filter_by_size(config.min_group_size, usize::MAX);
        if groups.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        // Stage 4: index.
        let index = GroupIndex::build(&groups, &config.index_config());
        let stats = BuildStats {
            algorithm,
            filtered_out,
        };
        Ok(Vexus {
            data,
            vocab,
            groups,
            index,
            cache: config.new_neighbor_cache(),
            config,
            stats,
            snapshot_bytes: 0,
        })
    }
}

/// A fully pre-processed VEXUS instance: dataset + group space + index.
/// Everything exploration reads is immutable post-build, so one engine —
/// typically behind an `Arc` (see [`Vexus::shared`]) — serves any number
/// of concurrent sessions.
pub struct Vexus {
    data: UserData,
    vocab: Vocabulary,
    groups: GroupSet,
    index: GroupIndex,
    /// Shared read-through cache over index neighbor queries; every click
    /// reads through it. At [`EngineConfig::neighbor_cache_capacity`] 0 it
    /// stores nothing and answers every query from the index.
    pub(crate) cache: NeighborCache,
    config: EngineConfig,
    stats: BuildStats,
    /// Size of the retained snapshot buffer backing zero-copy views when
    /// this engine came from [`Vexus::from_snapshot`]; `0` when built.
    snapshot_bytes: usize,
}

/// An owned session over a shared engine handle — the serving shape.
pub type OwnedSession = Session<Arc<Vexus>>;

impl OwnedSession {
    /// Open an owned session over a shared engine with the engine's
    /// configuration.
    pub fn open(engine: Arc<Vexus>) -> Result<Self, CoreError> {
        let config = engine.config.clone();
        Session::open_engine(engine, config)
    }

    /// Open an owned session with an overriding configuration.
    pub fn open_with(engine: Arc<Vexus>, config: EngineConfig) -> Result<Self, CoreError> {
        Session::open_engine(engine, config)
    }
}

impl Vexus {
    /// Run the full offline pipeline with the backend selected by
    /// [`EngineConfig::discovery`] (the paper's LCM path by default).
    pub fn build(data: UserData, config: EngineConfig) -> Result<Self, CoreError> {
        VexusBuilder::new(data).config(config).build()
    }

    /// Assemble an engine from a live refresh's parts (see
    /// [`crate::live::LiveEngine`]): the epoch's dataset, the bootstrap
    /// vocabulary, the canonical group space, the index built over it,
    /// and the carried-over neighbor cache. No pipeline stage runs — the
    /// live path already mined the epoch and built its index.
    pub(crate) fn from_live_parts(
        data: UserData,
        vocab: Vocabulary,
        groups: GroupSet,
        index: GroupIndex,
        cache: NeighborCache,
        config: EngineConfig,
        stats: BuildStats,
    ) -> Self {
        Vexus {
            data,
            vocab,
            groups,
            index,
            cache,
            config,
            stats,
            snapshot_bytes: 0,
        }
    }

    /// Open an exploration session.
    pub fn session(&self) -> Result<ExplorationSession<'_>, CoreError> {
        self.session_with(self.config.clone())
    }

    /// Open a session with a different configuration (k sweeps, budget
    /// sweeps, feedback ablations) without re-running pre-processing.
    pub fn session_with(&self, config: EngineConfig) -> Result<ExplorationSession<'_>, CoreError> {
        Session::open_engine(self, config)
    }

    /// Wrap the engine in an `Arc` for concurrent serving (see
    /// [`OwnedSession::open`] and [`crate::serve::ExplorationService`]).
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The shared neighbor cache: always `Some`. The `Option` stays only
    /// because the benchmark's workloads match on it, and goes with ROADMAP
    /// item 2.
    pub fn neighbor_cache(&self) -> Option<&NeighborCache> {
        Some(&self.cache)
    }

    /// The dataset.
    pub fn data(&self) -> &UserData {
        &self.data
    }

    /// The token vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The discovered group space.
    pub fn groups(&self) -> &GroupSet {
        &self.groups
    }

    /// The similarity index.
    pub fn index(&self) -> &GroupIndex {
        &self.index
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Offline build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Build the overlap graph `G` on demand from the index's retained
    /// member→groups map (exploration itself uses the index; the graph
    /// supports reachability analyses).
    pub fn overlap_graph(&self) -> OverlapGraph {
        self.index.overlap_graph(&self.groups)
    }

    /// Serialize the built engine (vocabulary, item catalog, group space,
    /// CSR and similarity index) into the versioned flat-buffer snapshot
    /// format. `from_snapshot ∘ write_snapshot` is the identity, byte for
    /// byte: re-encoding a loaded engine reproduces this buffer exactly.
    pub fn write_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode_engine(self)
    }

    /// Load an engine from a snapshot, skipping discovery and index
    /// construction entirely. `data` must be the dataset the snapshot was
    /// written against (its user count is cross-checked; its item catalog
    /// is replaced by the snapshot's). Corrupt or mismatched input fails
    /// with [`CoreError::Snapshot`] — never a panic. The load is
    /// validation plus slice reinterpretation: group member lists, the
    /// member→groups CSR and the index offset tables are zero-copy views
    /// into one retained buffer (see [`Vexus::snapshot_bytes`]).
    pub fn from_snapshot(
        data: UserData,
        bytes: &[u8],
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        if crate::failpoint::hit_key(crate::failpoint::SNAPSHOT_LOAD, 0) {
            return Err(CoreError::Snapshot(SnapshotError::Malformed {
                tag: 0,
                what: "injected fault (snapshot.load)",
            }));
        }
        let decoded = crate::snapshot::decode_engine(data, bytes).map_err(CoreError::Snapshot)?;
        if decoded.groups.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        let stats = BuildStats {
            algorithm: "snapshot",
            filtered_out: 0,
        };
        Ok(Vexus {
            data: decoded.data,
            vocab: decoded.vocab,
            groups: decoded.groups,
            index: decoded.index,
            cache: config.new_neighbor_cache(),
            config,
            stats,
            snapshot_bytes: decoded.buffer_bytes,
        })
    }

    /// Size of the retained snapshot buffer this engine's zero-copy views
    /// borrow from (`0` for engines built from scratch).
    pub fn snapshot_bytes(&self) -> usize {
        self.snapshot_bytes
    }

    /// Approximate resident heap of the read-only serving state: group
    /// space (descriptions + member sets), item catalog, similarity index
    /// (materialized lists, offset tables and the member→groups CSR), plus
    /// the retained snapshot buffer for loaded engines. Snapshot-backed
    /// views own no heap of their own, so the shared buffer is counted
    /// exactly once here.
    pub fn heap_bytes(&self) -> usize {
        self.groups.heap_bytes()
            + self.data.item_catalog().heap_bytes()
            + self.index.stats().heap_bytes
            + self.snapshot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
    use vexus_mining::{
        BirchDiscovery, DiscoverySelection, LcmDiscovery, MomriConfig, StreamFimConfig,
        StreamFimDiscovery,
    };

    #[test]
    fn builds_from_bookcrossing() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let stats = vexus.build_stats();
        let n_groups = vexus.groups().len();
        assert!(n_groups > 10, "group space too small: {n_groups}");
        assert!(vexus.index().stats().materialized_entries > 0);
        assert!(vexus.index().stats().heap_bytes > 0);
        assert_eq!(stats.algorithm, "lcm");
        // Every group respects the size floor.
        assert!(vexus.groups().iter().all(|(_, g)| g.size() >= 5));
    }

    #[test]
    fn exchange_rounds_thread_through_the_builder_to_sharded_discovery() {
        // The oversharded regime exercises the exchange: the default
        // config (one round) reproduces the unsharded group space, and the
        // exchange-off run over the same sharded selection finds a strict
        // subset, so the zero reached the merge.
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let spaces = |config: EngineConfig| {
            let vexus = VexusBuilder::new(ds.data.clone())
                .config(config)
                .build()
                .unwrap();
            let groups = vexus.groups().iter();
            groups
                .map(|(_, g)| (g.description.clone(), g.members.as_slice().to_vec()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let unsharded = spaces(EngineConfig::default());
        let config =
            EngineConfig::default().with_discovery(DiscoverySelection::default().sharded(8));
        let with = spaces(config.clone());
        assert_eq!(with, unsharded);
        let without = spaces(config.with_exchange_rounds(0));
        assert!(without.is_subset(&with));
        assert_ne!(without, with);
    }

    #[test]
    fn builds_from_dbauthors() {
        let ds = dbauthors(&DbAuthorsConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        assert!(vexus.groups().len() > 10);
        let session = vexus.session().unwrap();
        assert!(!session.display().is_empty());
    }

    #[test]
    fn empty_data_errors() {
        let data = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        assert!(matches!(
            Vexus::build(data, EngineConfig::default()),
            Err(CoreError::EmptyGroupSpace)
        ));
    }

    #[test]
    fn session_with_overrides_config() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let session = vexus
            .session_with(EngineConfig::default().with_k(3))
            .unwrap();
        assert!(session.display().len() <= 3);
    }

    #[test]
    fn builder_accepts_any_backend() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = VexusBuilder::new(ds.data)
            .config(EngineConfig::default())
            .discovery(BirchDiscovery::default())
            .build()
            .unwrap();
        assert_eq!(vexus.build_stats().algorithm, "birch");
        let session = vexus.session().unwrap();
        assert!(!session.display().is_empty());
    }

    #[test]
    fn builder_runtime_backend_selection() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let backend: Box<dyn GroupDiscovery> = if ds.data.n_users() > 100 {
            Box::new(StreamFimDiscovery::new(StreamFimConfig {
                support: 0.05,
                epsilon: 0.01,
                max_len: 3,
            }))
        } else {
            Box::new(LcmDiscovery::default())
        };
        let vexus = VexusBuilder::new(ds.data)
            .discovery_boxed(backend)
            .build()
            .unwrap();
        assert_eq!(vexus.build_stats().algorithm, "stream-fim");
    }

    #[test]
    fn config_selected_discovery_drives_the_facade() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let config = EngineConfig::default().with_discovery(DiscoverySelection::Momri {
            config: MomriConfig::default(),
        });
        let vexus = Vexus::build(ds.data, config).unwrap();
        assert_eq!(vexus.build_stats().algorithm, "momri");
        assert!(!vexus.session().unwrap().display().is_empty());
    }

    #[test]
    fn size_filter_stage_reports_removals() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        // BIRCH with a floor of 1 discovers tiny clusters; the engine's
        // size filter (min_group_size) then prunes them and reports it.
        let vexus = VexusBuilder::new(ds.data)
            .config(EngineConfig {
                min_group_size: 8,
                ..EngineConfig::default()
            })
            .discovery(BirchDiscovery {
                min_cluster_size: 1,
                ..BirchDiscovery::default()
            })
            .build()
            .unwrap();
        let stats = vexus.build_stats();
        assert!(
            stats.filtered_out > 0,
            "expected small clusters to be pruned"
        );
        let vocab = Vocabulary::build(vexus.data());
        let discovered = BirchDiscovery {
            min_cluster_size: 1,
            ..BirchDiscovery::default()
        }
        .discover(vexus.data(), &vocab);
        assert_eq!(
            discovered.groups.len(),
            vexus.groups().len() + stats.filtered_out
        );
        assert!(vexus.groups().iter().all(|(_, g)| g.size() >= 8));
    }

    #[test]
    fn supplied_groups_plugin_path() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let data = ds.data;
        let vocab = Vocabulary::build(&data);
        // BIRCH-style clusters as the group space.
        let featurizer = vexus_mining::features::Featurizer::new(&data);
        let mut tree = vexus_mining::birch::BirchTree::new(vexus_mining::birch::BirchConfig {
            branching: 8,
            threshold: 1.2,
            dim: featurizer.dim(),
        });
        for u in data.users() {
            tree.insert(u.raw(), &featurizer.features(&data, u));
        }
        let groups = tree.into_groups(5);
        assert!(!groups.is_empty());
        let vexus = VexusBuilder::new(data)
            .groups(vocab, groups)
            .build()
            .unwrap();
        assert_eq!(vexus.build_stats().algorithm, "pregrouped");
        let session = vexus.session().unwrap();
        assert!(!session.display().is_empty());
    }

    #[test]
    fn supplied_groups_get_min_group_size_and_report_it() {
        // Regression pin: `VexusBuilder::groups` is NOT a
        // verbatim passthrough — the size-filter stage runs on supplied
        // groups too.
        use vexus_mining::{Group, MemberSet};
        let mut b = vexus_data::UserDataBuilder::new(vexus_data::Schema::new());
        for i in 0..10 {
            b.user(&format!("u{i}"));
        }
        let data = b.build();
        let vocab = Vocabulary::build(&data);
        let mut groups = GroupSet::new();
        groups.push(Group::new(vec![], MemberSet::from_unsorted(vec![0, 1]))); // size 2
        groups.push(Group::new(
            vec![],
            MemberSet::from_unsorted(vec![0, 1, 2, 3]),
        )); // size 4
        groups.push(Group::new(
            vec![],
            MemberSet::from_unsorted(vec![0, 1, 2, 3, 4, 5]),
        )); // size 6
        let config = EngineConfig {
            min_group_size: 5,
            ..EngineConfig::default()
        };
        let vexus = VexusBuilder::new(data.clone())
            .config(config)
            .groups(vocab.clone(), groups.clone())
            .build()
            .unwrap();
        let stats = vexus.build_stats();
        // Exactly the two groups under the floor were dropped, and the
        // accounting says so.
        assert_eq!(stats.filtered_out, 2);
        assert_eq!(vexus.groups().len(), 1);
        assert_eq!(vexus.groups().get(vexus_mining::GroupId::new(0)).size(), 6);
        // min_group_size = 1 keeps every curated group.
        let keep_all = EngineConfig {
            min_group_size: 1,
            ..EngineConfig::default()
        };
        let vexus = VexusBuilder::new(data)
            .config(keep_all)
            .groups(vocab, groups)
            .build()
            .unwrap();
        assert_eq!(vexus.build_stats().filtered_out, 0);
        assert_eq!(vexus.groups().len(), 3);
    }

    #[test]
    fn config_selected_sharded_discovery_drives_the_facade() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let config =
            EngineConfig::default().with_discovery(DiscoverySelection::default().sharded(4));
        let vexus = Vexus::build(ds.data, config).unwrap();
        assert_eq!(vexus.build_stats().algorithm, "sharded");
        assert!(vexus.groups().len() > 10);
        assert!(!vexus.session().unwrap().display().is_empty());
    }

    #[test]
    fn merge_threads_knob_does_not_change_the_group_space() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let config =
            EngineConfig::default().with_discovery(DiscoverySelection::default().sharded(4));
        let sequential = VexusBuilder::new(ds.data.clone())
            .config(config.clone().with_merge_threads(1))
            .build()
            .unwrap();
        let parallel = VexusBuilder::new(ds.data)
            .config(config.with_merge_threads(4))
            .build()
            .unwrap();
        assert_eq!(sequential.groups(), parallel.groups());
    }

    #[test]
    fn overlap_graph_is_consistent_with_groups() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let graph = vexus.overlap_graph();
        assert_eq!(graph.n_nodes(), vexus.groups().len());
        assert_eq!(graph.n_edges(), vexus.index().stats().scored_pairs);
    }
}
