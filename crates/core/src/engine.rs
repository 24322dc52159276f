//! The engine facade: Fig. 1's offline pre-processing pipeline as an
//! explicit staged builder (data → discovery → size-filter → index) plus
//! session management.
//!
//! [`VexusBuilder`] is the pipeline. Its discovery stage accepts any
//! [`GroupDiscovery`] backend — the paper's LCM default, α-MOMRI, BIRCH or
//! stream FIM, an ensemble, or an external implementation — and every
//! stage reports into [`BuildStats`]. [`Vexus::build`] remains the one-call
//! facade, routing through the builder with the backend selected by
//! [`EngineConfig::discovery`] (LCM, stream FIM, or either sharded).

use crate::config::EngineConfig;
use crate::error::CoreError;
use crate::feedback::FeedbackVector;
use crate::greedy::{self, ScoredCandidate, SelectionOutcome};
use crate::session::{ExplorationSession, Session};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use vexus_data::{SnapshotError, UserData, Vocabulary};
use vexus_index::{GroupIndex, NeighborCache, OverlapGraph};
use vexus_mining::{GroupDiscovery, GroupId, GroupSet, MemberSet};

/// What the offline pre-processing stage did that the built engine cannot
/// recompute. (What it produced is the engine: `groups().len()`,
/// `index().stats()`.)
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Where the group space came from: the discovery backend's
    /// [`GroupDiscovery::name`], or `"snapshot"`, `"checkpoint"` or
    /// `"stream-fim-delta"` (a live epoch).
    pub algorithm: &'static str,
    /// Groups removed by the size filter.
    pub filtered_out: usize,
}

/// Staged builder for the offline pipeline:
///
/// 1. **data** — takes ownership of the dataset and its token
///    [`Vocabulary`],
/// 2. **discovery** — runs a pluggable [`GroupDiscovery`] backend,
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
    /// The explicitly supplied backend; `None` runs the one
    /// `EngineConfig::discovery` selects.
    backend: Option<Box<dyn GroupDiscovery>>,
}

impl VexusBuilder {
    /// Stage 1: start the pipeline from a dataset.
    pub fn new(data: UserData) -> Self {
        Self {
            data,
            config: EngineConfig::default(),
            backend: None,
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
        self.backend = Some(backend);
        self
    }

    /// Run the remaining stages and assemble the engine.
    pub fn build(self) -> Result<Vexus, CoreError> {
        let Self {
            data,
            config,
            backend,
        } = self;
        // Stage 2: discovery.
        let backend = match backend {
            Some(backend) => backend,
            None => {
                config.check_discovery()?;
                config.discovery.backend_with(
                    config.min_group_size,
                    config.merge_threads,
                    config.exchange_rounds,
                )
            }
        };
        let mut groups = backend.discover(&data, data.vocab()).groups;
        // Stage 3: size filter. It runs on every backend's output, so a
        // curated space shrinks here too; `min_group_size` 1 disables it.
        let filtered_out = groups.filter_by_size(config.min_group_size, usize::MAX);
        if groups.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        // Stage 4: index.
        let index = GroupIndex::build(&groups, &config.index_config());
        let stats = BuildStats {
            algorithm: backend.name(),
            filtered_out,
        };
        Ok(Vexus {
            data,
            groups,
            index,
            cache: config.new_neighbor_cache(),
            config,
            stats,
            snapshot_bytes: 0,
            opening: OnceLock::new(),
        })
    }
}

/// A fully pre-processed VEXUS instance: dataset + group space + index.
/// Everything exploration reads is immutable post-build, so one engine —
/// typically behind an `Arc` (see [`Vexus::shared`]) — serves any number
/// of concurrent sessions.
pub struct Vexus {
    data: UserData,
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
    /// The opening display, computed by the first open whose greedy step
    /// converged and shared by every later open under the same step key.
    /// Every constructor starts it empty, so it lives and dies with its
    /// epoch and no snapshot or checkpoint stores it.
    pub(crate) opening: OnceLock<Opening>,
}

/// What the opening display depends on besides the engine: the candidate
/// pool, `k`, the time budget, and the bits of `min_similarity` and of the
/// diversity, coverage and feedback weights (`f64`s compare by bits).
type StepKey = (usize, usize, Duration, [u64; 4]);

fn step_key(config: &EngineConfig) -> StepKey {
    let floats = [
        config.min_similarity,
        config.diversity_weight,
        config.coverage_weight,
        config.feedback_weight,
    ];
    (
        config.candidate_pool,
        config.k,
        config.time_budget,
        floats.map(f64::to_bits),
    )
}

/// An engine's memoized opening step.
pub(crate) struct Opening {
    key: StepKey,
    pub(crate) outcome: SelectionOutcome,
    pub(crate) display: Arc<[GroupId]>,
}

/// The opening step's candidates: the `pool` largest groups, ties in id
/// order (the sort is stable), each at similarity 1 — there is no clicked
/// group to be similar to.
pub(crate) fn opening_candidates(groups: &GroupSet, pool: usize) -> Vec<ScoredCandidate> {
    let mut by_size: Vec<GroupId> = groups.ids().collect();
    by_size.sort_by_key(|&id| std::cmp::Reverse(groups.get(id).size()));
    by_size.into_iter().take(pool).map(|id| (id, 1.0)).collect()
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
    /// [`crate::live::LiveEngine`]): the epoch's dataset (whose vocabulary
    /// is the bootstrap dataset's, shared), the canonical group space, the
    /// index built over it, and the carried-over neighbor cache, built by
    /// `algorithm`. No pipeline stage runs, and none size-filters after
    /// the miner's cut.
    pub(crate) fn from_live_parts(
        data: UserData,
        groups: GroupSet,
        index: GroupIndex,
        cache: NeighborCache,
        config: EngineConfig,
        algorithm: &'static str,
    ) -> Self {
        Vexus {
            data,
            groups,
            index,
            cache,
            config,
            stats: BuildStats {
                algorithm,
                filtered_out: 0,
            },
            snapshot_bytes: 0,
            opening: OnceLock::new(),
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

    /// The opening step under a session's config: the display and the
    /// greedy outcome behind it. There is no feedback yet, so the result
    /// depends only on this engine and the step key. A memo hit is two
    /// clones; a miss runs greedy over the whole population on buffers of
    /// its own, and a converged result under the first key to arrive is
    /// memoized. A budget-cut result never is: it depends on the clock.
    /// Racing misses compute the same bits, and the first `set` wins.
    pub(crate) fn opening(&self, config: &EngineConfig) -> (Arc<[GroupId]>, SelectionOutcome) {
        let key = step_key(config);
        if let Some(memo) = self.opening.get().filter(|memo| memo.key == key) {
            return (Arc::clone(&memo.display), memo.outcome.clone());
        }
        let candidates = opening_candidates(&self.groups, config.candidate_pool);
        let population = MemberSet::universe(self.data.n_users() as u32);
        let outcome = greedy::select_k(
            &self.groups,
            &candidates,
            &population,
            &FeedbackVector::new(),
            &config.select_params(),
        );
        let display: Arc<[GroupId]> = Arc::from(outcome.selection.as_slice());
        if !outcome.budget_exhausted {
            let _ = self.opening.set(Opening {
                key,
                outcome: outcome.clone(),
                display: Arc::clone(&display),
            });
        }
        (display, outcome)
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

    /// The token vocabulary: the dataset's own ([`UserData::vocab`]).
    pub fn vocab(&self) -> &Vocabulary {
        self.data.vocab()
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

    /// Serialize what the built engine derived from its dataset (group
    /// space, member→groups CSR and similarity index) into the versioned
    /// flat-buffer snapshot format. The vocabulary and the item catalog are
    /// the dataset's own and are not stored. `from_snapshot ∘
    /// write_snapshot` is the identity, byte for byte: re-encoding a loaded
    /// engine reproduces this buffer exactly.
    pub fn write_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode_engine(self)
    }

    /// Load an engine from a snapshot, skipping discovery and index
    /// construction entirely. `data` must be the dataset the snapshot was
    /// written against: its user count and its vocabulary size are
    /// cross-checked, and its vocabulary and item catalog are the
    /// engine's. Corrupt or mismatched input fails
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
        let decoded = crate::snapshot::decode_engine(&data, bytes).map_err(CoreError::Snapshot)?;
        if decoded.groups.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        let stats = BuildStats {
            algorithm: "snapshot",
            filtered_out: 0,
        };
        Ok(Vexus {
            data,
            groups: decoded.groups,
            index: decoded.index,
            cache: config.new_neighbor_cache(),
            config,
            stats,
            snapshot_bytes: decoded.buffer_bytes,
            opening: OnceLock::new(),
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
pub(crate) mod tests {
    use super::*;
    use vexus_data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
    use vexus_mining::{
        BirchDiscovery, DiscoveryOutcome, DiscoverySelection, LcmDiscovery, MomriDiscovery,
        StreamFimConfig, StreamFimDiscovery,
    };

    /// A backend that returns a fixed, curated group space whatever the
    /// dataset.
    pub(crate) struct FixedGroups(pub(crate) GroupSet);

    impl GroupDiscovery for FixedGroups {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn discover(&self, _data: &UserData, _vocab: &Vocabulary) -> DiscoveryOutcome {
            DiscoveryOutcome {
                groups: self.0.clone(),
            }
        }
    }

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
    fn builder_selected_momri_drives_the_engine() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = VexusBuilder::new(ds.data)
            .discovery(MomriDiscovery::default())
            .build()
            .unwrap();
        assert_eq!(vexus.build_stats().algorithm, "momri");
        assert_eq!(vexus.groups().len(), 5);
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
        let discovered = BirchDiscovery {
            min_cluster_size: 1,
            ..BirchDiscovery::default()
        }
        .discover(vexus.data(), vexus.vocab());
        assert_eq!(
            discovered.groups.len(),
            vexus.groups().len() + stats.filtered_out
        );
        assert!(vexus.groups().iter().all(|(_, g)| g.size() >= 8));
    }

    #[test]
    fn supplied_groups_plugin_path() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        // BIRCH clusters as the group space.
        let vexus = VexusBuilder::new(ds.data)
            .discovery(BirchDiscovery {
                branching: 8,
                threshold: 1.2,
                min_cluster_size: 5,
            })
            .build()
            .unwrap();
        assert!(!vexus.groups().is_empty());
        assert_eq!(vexus.build_stats().algorithm, "birch");
        let session = vexus.session().unwrap();
        assert!(!session.display().is_empty());
    }

    #[test]
    fn supplied_groups_get_min_group_size_and_report_it() {
        // Regression pin: a backend's curated space is NOT a verbatim
        // passthrough — the size-filter stage runs on it too.
        use vexus_mining::{Group, MemberSet};
        let mut b = vexus_data::UserDataBuilder::new(vexus_data::Schema::new());
        for i in 0..10 {
            b.user(&format!("u{i}"));
        }
        let data = b.build();
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
            .discovery(FixedGroups(groups.clone()))
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
            .discovery(FixedGroups(groups))
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

    /// A budget the tiny engine never exhausts, so every opening converges
    /// and is memoized.
    fn unbounded() -> EngineConfig {
        EngineConfig::default().with_budget(std::time::Duration::from_secs(600))
    }

    fn tiny_engine() -> Vexus {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Vexus::build(ds.data, EngineConfig::default()).unwrap()
    }

    /// Greedy over the opening candidates against the whole population,
    /// with no feedback: the opening step computed from scratch.
    fn fresh_opening(vexus: &Vexus, config: &EngineConfig) -> SelectionOutcome {
        greedy::select_k(
            vexus.groups(),
            &opening_candidates(vexus.groups(), config.candidate_pool),
            &MemberSet::universe(vexus.data().n_users() as u32),
            &FeedbackVector::new(),
            &config.select_params(),
        )
    }

    fn assert_same_outcome(got: &SelectionOutcome, want: &SelectionOutcome) {
        assert_eq!(got.selection, want.selection);
        assert_eq!(
            got.quality.diversity.to_bits(),
            want.quality.diversity.to_bits()
        );
        assert_eq!(
            got.quality.coverage.to_bits(),
            want.quality.coverage.to_bits()
        );
        assert_eq!((got.rounds, got.trials), (want.rounds, want.trials));
        assert_eq!(got.budget_exhausted, want.budget_exhausted);
    }

    #[test]
    fn memoized_opening_is_bit_identical_to_a_fresh_greedy() {
        let vexus = tiny_engine();
        let config = unbounded();
        assert!(vexus.opening.get().is_none(), "a built engine starts empty");
        let first = vexus.session_with(config.clone()).unwrap();
        let memo = vexus
            .opening
            .get()
            .expect("a converged opening is memoized");
        assert_eq!(memo.key, step_key(&config));
        let want = fresh_opening(&vexus, &config);
        assert_same_outcome(&memo.outcome, &want);
        assert_eq!(&*memo.display, want.selection.as_slice());
        // A later open shares the memoized display and reports its outcome.
        let second = vexus.session_with(config).unwrap();
        assert!(std::ptr::eq(second.display(), &*memo.display));
        assert_same_outcome(second.last_outcome().unwrap(), &want);
        assert_eq!(first.display(), second.display());
        assert_eq!(second.budget_exhausted_steps(), 0);
    }

    #[test]
    fn an_open_under_another_config_computes_its_own_display() {
        let vexus = tiny_engine();
        let default = unbounded();
        vexus.session_with(default.clone()).unwrap();
        let k3 = default.clone().with_k(3);
        let session = vexus.session_with(k3.clone()).unwrap();
        let memo = vexus.opening.get().unwrap();
        // The slot still holds the default config's opening …
        assert_eq!(memo.key, step_key(&default));
        assert_eq!(memo.display.len(), 5);
        // … and the k = 3 session shows the display greedy computes for it.
        assert!(!std::ptr::eq(session.display(), &*memo.display));
        assert_eq!(session.display(), fresh_opening(&vexus, &k3).selection);
        assert!(session.display().len() <= 3);
    }

    #[test]
    fn a_budget_cut_opening_is_not_memoized() {
        let vexus = tiny_engine();
        let config = EngineConfig::default().with_budget(std::time::Duration::ZERO);
        let session = vexus.session_with(config).unwrap();
        assert!(session.last_outcome().unwrap().budget_exhausted);
        assert_eq!(session.budget_exhausted_steps(), 1);
        assert!(vexus.opening.get().is_none());
        // The next converged opening still claims the slot.
        vexus.session_with(unbounded()).unwrap();
        assert!(vexus.opening.get().is_some());
    }

    #[test]
    fn serving_opens_leaves_the_snapshot_bytes_unchanged() {
        let vexus = tiny_engine().shared();
        let before = vexus.write_snapshot();
        let svc = crate::serve::ExplorationService::new(Arc::clone(&vexus));
        for _ in 0..3 {
            svc.open_with(unbounded()).unwrap();
        }
        assert!(vexus.opening.get().is_some());
        assert_eq!(vexus.write_snapshot(), before);
        let loaded = Vexus::from_snapshot(vexus.data().clone(), &before, unbounded()).unwrap();
        assert!(
            loaded.opening.get().is_none(),
            "a loaded engine starts empty"
        );
    }
}
