//! The live engine: streaming ingestion, refresh, and epoch-swapped
//! publication.
//!
//! [`LiveEngine`] turns the offline pipeline into a live one. It owns two
//! things:
//!
//! * the **published engine** — an `Arc<Vexus>` behind an `RwLock`. Every
//!   consumer (the serving layer, sessions, experiments) reads it with
//!   [`LiveEngine::engine`], which clones the `Arc` and drops the lock
//!   immediately. Sessions therefore *pin* the epoch they opened against:
//!   a refresh swaps the `Arc` in the lock, never the `Vexus` behind an
//!   already-cloned handle, so in-flight exploration replays
//!   byte-identically across refreshes;
//! * the **live state** — the [`IngestBuffer`], the [`DeltaDiscovery`]
//!   driver, the published space's [`OverlapRows`] and the durable sink,
//!   behind a `Mutex`. Only [`LiveEngine::ingest`] and
//!   [`LiveEngine::refresh`] touch it. The dataset, vocabulary, group
//!   space and configuration live in the published engine and nowhere
//!   else: a refresh reads them from the epoch it captured under the state
//!   mutex.
//!
//! A refresh cuts the buffered actions into one epoch-stamped delta,
//! appends it to a copy of the published dataset, feeds it to the stream
//! miner and diffs the epoch's group space against the previous one. The
//! miner, the dataset append, the index and the neighbor-cache carry-over
//! are all incremental: [`OverlapRows::advance`] moves the carried pair
//! overlap counts by the memberships the group delta flips and lays out
//! the new index from them — byte-identical to
//! [`vexus_index::GroupIndex::build`] over the new space — with the dirty
//! set the carry-over reads. Bootstrap gets epoch 0's index and rows from
//! one walk; recovery walks the checkpoint's loaded index once for its
//! rows. Publication is the last step: one `Arc` assignment under the
//! write lock, then the epoch counter bumps. Nothing blocks in-flight
//! verbs.
//!
//! The refresh body runs under `catch_unwind` with the
//! `ingest.apply` fail-point evaluated *before any mutation* (see
//! [`crate::failpoint`]): an injected error leaves the state untouched and
//! retryable, while a panic halts the live state — subsequent refreshes
//! report [`CoreError::Halted`] with the cause — with the old epoch still
//! published and serving.
//!
//! A durable engine's directory belongs to [`crate::durable`]; this module
//! makes no file-system call. A refresh has the sink log before it applies
//! and checkpoint after it publishes; recovery replays what the recovery
//! scan loaded through [`LiveEngine::refresh`], then resumes the sink.

use crate::config::EngineConfig;
use crate::durable::{
    self, CheckpointOutcome, DurabilityConfig, DurableCounts, DurableSink, RecoveryReport,
};
use crate::engine::{BuildStats, Vexus};
use crate::error::CoreError;
use crate::failpoint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
use vexus_data::stream::ReplayStream;
use vexus_data::{ActionStream, IngestBuffer, UserData, Vocabulary, WalError};
use vexus_index::OverlapRows;
use vexus_mining::{DeltaDiscovery, DiscoverySelection, StreamFimConfig};

/// What every live epoch reports as its build: mined by the stream miner's
/// epoch cut, never size-filtered after it (the cut filters).
const LIVE_BUILD: BuildStats = BuildStats {
    algorithm: "stream-fim-delta",
    filtered_out: 0,
};

/// Mutable ingestion-side state, guarded by one mutex. Everything a
/// refresh *reads* — dataset, vocabulary, the old group space, the
/// configuration — it takes from the published engine.
struct LiveState {
    buffer: IngestBuffer,
    discovery: DeltaDiscovery,
    /// The published space's pair overlap counts, which the next refresh
    /// advances and lays its index out from.
    rows: OverlapRows,
    /// `Some` when the engine logs and checkpoints to a durable directory.
    durable: Option<DurableSink>,
}

/// The ingestion side of the engine: live or halted.
enum LiveSlot {
    /// Live ingestion state.
    Live(Box<LiveState>),
    /// The live state was dropped after a mid-refresh panic or an empty
    /// epoch group space. The published engine keeps serving; ingestion
    /// verbs report [`CoreError::Halted`] with this cause, and
    /// [`LiveEngine::recover`] is the way back for durable engines. The
    /// dropped sink's counts stay readable.
    Halted(&'static str, DurableCounts),
}

/// What one [`LiveEngine::refresh`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshOutcome {
    /// The epoch published by this refresh (unchanged when `!advanced`).
    pub epoch: u64,
    /// Whether a new engine was published. `false` means the cut was
    /// empty — nothing ingested since the last refresh — and the call was
    /// a no-op.
    pub advanced: bool,
    /// Actions folded into the dataset (actions referencing unknown users
    /// or items are dropped by the data layer and not counted).
    pub actions_applied: usize,
    /// Users making their first appearance in this delta.
    pub arrivals: usize,
    /// Groups the epoch delta added.
    pub groups_added: usize,
    /// Groups the epoch delta retired.
    pub groups_retired: usize,
    /// Surviving groups whose member set changed.
    pub groups_resized: usize,
    /// Groups in the refresh's dirty set: added, resized, or sharing a
    /// member with a touched group. Every other group's neighbor list is
    /// the old one up to an id rewrite (what the cache carry-over keys
    /// on); every row of the new index is laid out from the carried
    /// overlap counts either way.
    pub rescored: usize,
    /// Whether the delta was committed to the write-ahead log before it
    /// was applied (always `false` for non-durable engines and no-ops).
    pub wal_appended: bool,
    /// Bytes the committed WAL frame occupies (length prefix included).
    pub wal_bytes: u64,
    /// What the checkpoint phase did after publication (see
    /// [`CheckpointOutcome`]; always `NotDue` for non-durable engines).
    pub checkpoint: CheckpointOutcome,
    /// Wall-clock of the whole refresh, including publication.
    pub refresh_time: Duration,
}

/// A continuously refreshable engine publishing immutable [`Vexus`]
/// epochs. See the module docs for the epoch-swap discipline.
pub struct LiveEngine {
    /// See [`LiveEngine::engine`] for the read discipline.
    published: RwLock<Arc<Vexus>>,
    /// Epochs published so far (bumped *after* the swap; readers seeing
    /// epoch `n` are guaranteed `engine()` is at least epoch `n`).
    epoch: AtomicU64,
    state: Mutex<LiveSlot>,
}

impl LiveSlot {
    /// The live state, or the halt's typed error.
    fn live(&mut self) -> Result<&mut LiveState, CoreError> {
        match self {
            LiveSlot::Live(state) => Ok(state),
            LiveSlot::Halted(cause, _) => Err(CoreError::Halted(cause)),
        }
    }

    fn durable_counts(&self) -> DurableCounts {
        match self {
            LiveSlot::Live(state) => state.durable.as_ref().map(|s| s.counts).unwrap_or_default(),
            LiveSlot::Halted(_, counts) => *counts,
        }
    }

    /// Drop the live state, keeping its durable counts.
    fn halt(&mut self, cause: &'static str) {
        *self = LiveSlot::Halted(cause, self.durable_counts());
    }
}

impl LiveEngine {
    /// Bootstrap a live engine from a warmed-up dataset: users are
    /// observed in arrival order off the dataset's action tape, the
    /// initial group space is cut, and epoch 0 is published.
    ///
    /// Requires [`DiscoverySelection::StreamFim`] — the only backend with
    /// one-pass incremental semantics; anything else gets
    /// [`CoreError::NotLive`]. Returns [`CoreError::EmptyGroupSpace`] when
    /// the warmup prefix mines no groups (warm up with more actions or
    /// lower the support threshold).
    pub fn bootstrap(data: UserData, config: EngineConfig) -> Result<Self, CoreError> {
        let DiscoverySelection::StreamFim {
            support,
            epsilon,
            max_len,
        } = config.discovery
        else {
            return Err(CoreError::NotLive(
                "bootstrap requires DiscoverySelection::StreamFim",
            ));
        };
        let vocab = Vocabulary::build(&data);
        let mut discovery = DeltaDiscovery::new(
            StreamFimConfig {
                support,
                epsilon,
                max_len,
            },
            config.min_group_size,
            data.n_users(),
        );
        discovery.observe_arrivals(&data, &vocab, data.actions());
        let (groups, _) = discovery.epoch();
        if groups.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        // One walk gives epoch 0's index and the rows refreshes carry.
        let (rows, index) = OverlapRows::build(&groups, &config.index_config());
        let cache = config.new_neighbor_cache();
        let engine = Vexus::from_live_parts(data, vocab, groups, index, cache, config, LIVE_BUILD);
        Ok(Self::assemble(engine, 0, discovery, rows))
    }

    /// A live engine publishing `engine` as epoch `epoch` (its next cut is
    /// stamped `epoch` too), with no durable sink yet.
    fn assemble(engine: Vexus, epoch: u64, discovery: DeltaDiscovery, rows: OverlapRows) -> Self {
        LiveEngine {
            published: RwLock::new(Arc::new(engine)),
            epoch: AtomicU64::new(epoch),
            state: Mutex::new(LiveSlot::Live(Box::new(LiveState {
                buffer: IngestBuffer::resume(epoch),
                discovery,
                rows,
                durable: None,
            }))),
        }
    }

    /// Attach the durable sink `make` builds from the published engine and
    /// the live discovery state; a halted engine gets none.
    fn attach(
        &self,
        make: impl FnOnce(&Vexus, &DeltaDiscovery) -> Result<DurableSink, CoreError>,
    ) -> Result<(), CoreError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let LiveSlot::Live(state) = &mut *guard {
            state.durable = Some(make(&self.engine(), &state.discovery)?);
        }
        Ok(())
    }

    /// Bootstrap a live engine that logs every delta to a write-ahead log
    /// and checkpoints on the configured cadence, so a crash at any point
    /// recovers byte-identically via [`LiveEngine::recover`].
    ///
    /// [`LiveEngine::bootstrap`] plus the sink's start: the directory is
    /// created if missing and must not already hold durable engine state
    /// (that is what `recover` is for), and epoch 0 is made durable by the
    /// rotation every checkpoint uses — `ckpt-…0.vxck` and an empty first
    /// WAL segment land before this returns.
    pub fn bootstrap_durable(
        data: UserData,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, CoreError> {
        let n_base_actions = data.actions().len();
        let live = Self::bootstrap(data, config)?;
        live.attach(|engine, discovery| {
            DurableSink::start(durability, engine, discovery, n_base_actions)
        })?;
        Ok(live)
    }

    /// The currently published engine. Clones the `Arc` under a read lock
    /// held for the clone only — callers keep serving this epoch however
    /// long they hold the handle.
    pub fn engine(&self) -> Arc<Vexus> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Epochs published so far (0 until the first advancing refresh).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the engine still has live ingestion state (`false` once a
    /// mid-refresh panic or an empty epoch group space halted the live
    /// side; see [`LiveEngine::halt_cause`]).
    pub fn is_live(&self) -> bool {
        matches!(
            *self.state.lock().unwrap_or_else(PoisonError::into_inner),
            LiveSlot::Live(_)
        )
    }

    /// Why the live side halted, when it did: the cause a mid-refresh
    /// panic or an empty epoch group space left behind. `None` while the
    /// engine is live. A halted engine keeps serving its last
    /// published epoch; [`LiveEngine::recover`] is the way back for
    /// durable engines.
    pub fn halt_cause(&self) -> Option<&'static str> {
        match *self.state.lock().unwrap_or_else(PoisonError::into_inner) {
            LiveSlot::Halted(cause, _) => Some(cause),
            _ => None,
        }
    }

    /// What the durable sink has done since this engine was bootstrapped
    /// or recovered, whichever verb drove the refreshes; all zero for a
    /// non-durable engine. A halt keeps the counts it reached.
    pub fn durable_counts(&self) -> DurableCounts {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .durable_counts()
    }

    /// Drain up to `max` actions from `stream` into the ingest buffer
    /// without applying anything. Returns the number drained.
    pub fn ingest(&self, stream: &mut dyn ActionStream, max: usize) -> Result<usize, CoreError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = guard.live()?;
        Ok(state.buffer.pull(stream, max))
    }

    /// Actions buffered but not yet folded in by a refresh.
    pub fn pending(&self) -> Result<usize, CoreError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(guard.live()?.buffer.pending())
    }

    /// Cut the ingest buffer and publish a new epoch reflecting it: append
    /// the actions to a copy of the published dataset, observe new
    /// arrivals, cut the epoch's group space, advance the carried overlap
    /// rows and lay out its index from them, carry over the neighbor-cache
    /// entries the group delta leaves exact, and swap the published `Arc`.
    /// An empty cut is a no-op (`advanced: false`, no epoch consumed).
    ///
    /// In-flight sessions are never blocked: the only write lock taken is
    /// for the final one-assignment swap. On a panic inside the body the
    /// live state halts (this and every subsequent call reports
    /// [`CoreError::Halted`] with the cause) while the previously
    /// published epoch keeps serving untouched.
    pub fn refresh(&self) -> Result<RefreshOutcome, CoreError> {
        let t0 = Instant::now();
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = guard.live()?;
        // Snapshot the published engine only while holding the state mutex:
        // refresh is the sole publisher, so a snapshot taken outside it
        // could lag a concurrent refresh's swap and diff a stale index
        // against an already-advanced discovery baseline.
        let current = self.engine();
        let epoch_now = self.epoch.load(Ordering::Acquire);
        let body = catch_unwind(AssertUnwindSafe(|| {
            if failpoint::hit_key(failpoint::INGEST_APPLY, epoch_now) {
                return Err(CoreError::Injected(failpoint::INGEST_APPLY));
            }
            // Log-then-apply: an error here leaves the buffer intact.
            let wal_bytes = match state.durable.as_mut() {
                Some(sink) if state.buffer.pending() > 0 => {
                    Some(sink.log(state.buffer.next_epoch(), state.buffer.pending_actions())?)
                }
                _ => None,
            };
            Self::apply(state, &current).map(|r| (r, wal_bytes))
        }));
        match body {
            Ok(Ok((None, _))) => Ok(RefreshOutcome {
                epoch: epoch_now,
                refresh_time: t0.elapsed(),
                ..RefreshOutcome::default()
            }),
            Ok(Ok((Some((engine, outcome)), wal_bytes))) => {
                let engine = Arc::new(engine);
                *self
                    .published
                    .write()
                    .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&engine);
                let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
                let checkpoint = match state.durable.as_mut() {
                    Some(sink) => sink.checkpoint(&engine, &state.discovery, epoch),
                    None => CheckpointOutcome::NotDue,
                };
                Ok(RefreshOutcome {
                    epoch,
                    advanced: true,
                    wal_appended: wal_bytes.is_some(),
                    wal_bytes: wal_bytes.unwrap_or(0),
                    checkpoint,
                    refresh_time: t0.elapsed(),
                    ..outcome
                })
            }
            Ok(Err(e)) => {
                if e == CoreError::EmptyGroupSpace {
                    // The discovery baseline has advanced past the
                    // published space; a later refresh would diff against
                    // the wrong epoch. Halt rather than serve corrupt
                    // deltas.
                    guard.halt(HALT_EMPTY_EPOCH);
                }
                Err(e)
            }
            Err(_) => {
                guard.halt(HALT_PANIC);
                Err(CoreError::Halted(HALT_PANIC))
            }
        }
    }

    /// [`LiveEngine::refresh`], retrying transient failures — injected
    /// faults and WAL I/O errors, both of which fire before any state
    /// mutation — up to `attempts` times in total; `0` is treated as `1`
    /// (the refresh always runs once). Hard errors (halt causes, an empty
    /// epoch group space, corrupt log state) pass through immediately.
    pub fn refresh_with_retry(&self, attempts: usize) -> Result<RefreshOutcome, CoreError> {
        let mut attempt = 1;
        loop {
            match self.refresh() {
                Err(CoreError::Injected(_) | CoreError::Wal(WalError::Io { .. }))
                    if attempt < attempts =>
                {
                    attempt += 1
                }
                result => return result,
            }
        }
    }

    /// Recover a durable live engine from its directory.
    ///
    /// The recovery scan ([`crate::durable`]) loads the newest checkpoint
    /// that decodes cleanly and the frames above its watermark. A corrupt
    /// newer checkpoint is skipped and deleted — it must not resurrect
    /// through retention — but only when those frames reach its epoch: its
    /// name proves that epoch was published, so recovery refuses to land
    /// below it ([`CoreError::Recovery`], nothing deleted). The frames then
    /// replay through the normal ingest/refresh path, producing an engine
    /// byte-identical to the uninterrupted run at the same epoch, and the
    /// durable sink resumes on the newest segment. Torn segment tails (a
    /// crash mid-append) are detected by the per-frame checksums, reported
    /// in the [`RecoveryReport`], and truncated when the log reopens for
    /// appending. `base` and `config` must match what the engine was
    /// bootstrapped with — both are cross-checked against the
    /// checkpoint's fingerprint ([`CoreError::Recovery`] on mismatch,
    /// since falling back to an older checkpoint cannot fix a wrong
    /// dataset).
    ///
    /// If replay re-hits the condition that halted the original run (an
    /// empty epoch group space), the recovered engine is halted the same
    /// way — serving the last good epoch — and the report says so.
    pub fn recover(
        base: UserData,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let (checkpoint, frames, mut report) = durable::load(&durability, &base, &config)?;
        let watermark = checkpoint.watermark;
        // Replay refreshes advance the checkpointed space's rows, walked
        // once from the CSR the checkpoint loaded. The sink is attached only
        // after replay: replayed frames must not be re-logged.
        let rows = OverlapRows::of_index(
            checkpoint.engine.index(),
            checkpoint.engine.groups(),
            &config.index_config(),
        );
        let live = Self::assemble(checkpoint.engine, watermark, checkpoint.discovery, rows);
        for frame in &frames {
            if failpoint::hit_key(failpoint::RECOVER_REPLAY, frame.epoch) {
                return Err(CoreError::Injected(failpoint::RECOVER_REPLAY));
            }
            live.ingest(&mut ReplayStream::from_actions(&frame.actions), usize::MAX)?;
            if let Err(e) = live.refresh() {
                // Replay re-hit the deterministic halt the original run
                // died on; every later frame postdates the crash and cannot
                // exist. Anything else is a real error.
                report.halted = Some(live.halt_cause().ok_or(e)?);
                break;
            }
            report.frames_replayed += 1;
        }
        live.attach(|_, _| {
            let replayed = report.frames_replayed as u64;
            DurableSink::resume(durability, base.actions().len(), watermark, replayed)
        })?;
        report.final_epoch = live.epoch();
        Ok((live, report))
    }

    /// The refresh body, separated so the `catch_unwind` wrapper stays
    /// readable. `current` is the published epoch the caller captured
    /// under the state mutex: the dataset, vocabulary, old group space and
    /// configuration all come from it. `Ok(None)` means the cut was empty.
    /// Once the buffer is cut and the miner has observed the delta, an
    /// error is the caller's cue to halt — only
    /// [`CoreError::EmptyGroupSpace`] can surface after that point.
    #[allow(clippy::type_complexity)]
    fn apply(
        state: &mut LiveState,
        current: &Vexus,
    ) -> Result<Option<(Vexus, RefreshOutcome)>, CoreError> {
        let delta = state.buffer.cut();
        if delta.is_empty() {
            return Ok(None);
        }
        let mut data = current.data().clone();
        let actions_applied = data.append_actions(&delta.actions);
        let arrivals = state
            .discovery
            .observe_arrivals(&data, current.vocab(), &delta.actions);
        let (groups_new, gdelta) = state.discovery.epoch();
        if groups_new.is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        let config = current.config();
        let patch = state.rows.advance(
            current.index(),
            current.groups(),
            &groups_new,
            &gdelta,
            &config.index_config(),
        );
        let cache = current.cache.carry_over(|g, list| patch.carries(g, list));
        let engine = Vexus::from_live_parts(
            data,
            current.vocab().clone(),
            groups_new,
            patch.index,
            cache,
            config.clone(),
            LIVE_BUILD,
        );
        Ok(Some((
            engine,
            RefreshOutcome {
                actions_applied,
                arrivals,
                groups_added: gdelta.added.len(),
                groups_retired: gdelta.retired.len(),
                groups_resized: gdelta.resized.len(),
                rescored: patch.rescored,
                ..RefreshOutcome::default()
            },
        )))
    }
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("epoch", &self.epoch())
            .field("live", &self.is_live())
            .finish_non_exhaustive()
    }
}

const HALT_EMPTY_EPOCH: &str = "epoch cut produced an empty group space (old epoch still serving)";
const HALT_PANIC: &str = "refresh panicked mid-apply (old epoch still serving)";

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_data::stream::ChannelStream;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
    use vexus_data::Action;
    use vexus_index::GroupIndex;
    use vexus_mining::GroupId;

    fn stream_config() -> EngineConfig {
        EngineConfig::default().with_discovery(DiscoverySelection::StreamFim {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        })
    }

    /// Tiny bookcrossing split into a warmed-up base (first `warmup`
    /// actions applied) and the remaining action tape.
    fn warmed(warmup: usize) -> (UserData, Vec<Action>) {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let (mut base, tape) = ds.data.split_actions();
        assert!(warmup <= tape.len());
        base.append_actions(&tape[..warmup]);
        (base, tape[warmup..].to_vec())
    }

    fn feed(live: &LiveEngine, actions: &[Action]) -> usize {
        let (tx, mut rx) = ChannelStream::with_capacity(actions.len().max(1));
        for &a in actions {
            assert!(tx.send(a));
        }
        drop(tx);
        live.ingest(&mut rx, usize::MAX).unwrap()
    }

    #[test]
    fn bootstrap_requires_a_stream_backend() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let err = LiveEngine::bootstrap(ds.data, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::NotLive(_)), "{err}");
    }

    #[test]
    fn empty_cut_refresh_is_a_noop() {
        let (base, _tape) = warmed(400);
        let live = LiveEngine::bootstrap(base, stream_config()).unwrap();
        let before = live.engine();
        let out = live.refresh().unwrap();
        assert!(!out.advanced);
        assert_eq!(out.epoch, 0);
        assert_eq!(out.actions_applied, 0);
        assert_eq!(live.epoch(), 0);
        assert!(
            Arc::ptr_eq(&before, &live.engine()),
            "no-op refresh must not republish"
        );
    }

    #[test]
    fn ingest_then_refresh_publishes_a_new_epoch() {
        let (base, tape) = warmed(300);
        assert!(!tape.is_empty());
        let live = LiveEngine::bootstrap(base, stream_config()).unwrap();
        let epoch0 = live.engine();
        assert_eq!(epoch0.build_stats().algorithm, "stream-fim-delta");
        assert_eq!(epoch0.build_stats().filtered_out, 0);
        let n = feed(&live, &tape);
        assert_eq!(n, tape.len());
        assert_eq!(live.pending().unwrap(), n);
        let out = live.refresh().unwrap();
        assert!(out.advanced);
        assert_eq!(out.epoch, 1);
        assert_eq!(live.epoch(), 1);
        assert_eq!(out.actions_applied, tape.len());
        assert_eq!(live.pending().unwrap(), 0);
        let epoch1 = live.engine();
        assert!(!Arc::ptr_eq(&epoch0, &epoch1), "refresh must swap the Arc");
        assert_eq!(epoch1.build_stats().algorithm, "stream-fim-delta");
        assert_eq!(epoch1.build_stats().filtered_out, 0);
        assert_eq!(
            epoch1.data().actions().len(),
            epoch0.data().actions().len() + tape.len()
        );
        // The pinned epoch-0 handle is untouched: same groups, same index.
        assert_eq!(epoch0.groups().len(), epoch0.index().stats().n_groups);
    }

    /// Refresh equivalence at the engine level: a chain of refreshes ends
    /// in an index byte-identical to a full build over the final group
    /// space.
    #[test]
    fn refreshed_index_matches_a_full_rebuild() {
        let (base, tape) = warmed(200);
        let live = LiveEngine::bootstrap(base, stream_config()).unwrap();
        for chunk in tape.chunks(tape.len().div_ceil(3).max(1)) {
            feed(&live, chunk);
            live.refresh().unwrap();
        }
        let engine = live.engine();
        let reference = GroupIndex::build(
            engine.groups(),
            &vexus_index::IndexConfig {
                materialize_fraction: engine.config().materialize_fraction,
                threads: 1,
            },
        );
        assert_eq!(engine.groups().len(), reference.stats().n_groups);
        for g in 0..engine.groups().len() {
            let g = GroupId::new(g as u32);
            assert_eq!(
                engine.index().materialized(g),
                reference.materialized(g),
                "materialized list diverged for {g:?}"
            );
            assert_eq!(
                engine.index().full_neighbor_count(g),
                reference.full_neighbor_count(g)
            );
        }
    }

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vexus-live-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durability(dir: &std::path::Path, every: u64) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every: every,
            ..DurabilityConfig::new(dir)
        }
    }

    #[test]
    fn durable_bootstrap_lays_out_checkpoint_and_wal() {
        let dir = tempdir("bootstrap");
        let (base, tape) = warmed(300);
        let live =
            LiveEngine::bootstrap_durable(base.clone(), stream_config(), durability(&dir, 2))
                .unwrap();
        assert!(durable::ckpt_path(&dir, 0).exists());
        assert!(durable::wal_path(&dir, 0).exists());
        // A second bootstrap into a non-empty directory refuses.
        assert!(matches!(
            LiveEngine::bootstrap_durable(base, stream_config(), durability(&dir, 2)),
            Err(CoreError::Recovery(_))
        ));
        // Refreshes log one frame each; the second one checkpoints.
        for (i, chunk) in tape.chunks(tape.len().div_ceil(2)).enumerate() {
            feed(&live, chunk);
            let out = live.refresh().unwrap();
            assert!(out.advanced);
            assert!(out.wal_appended);
            assert!(out.wal_bytes > 0);
            let expected = if i == 1 {
                CheckpointOutcome::Written
            } else {
                CheckpointOutcome::NotDue
            };
            assert_eq!(out.checkpoint, expected, "refresh {i}");
        }
        assert!(durable::ckpt_path(&dir, 2).exists());
        assert!(durable::wal_path(&dir, 2).exists());
        // Retention kept both checkpoints (retain = 2) and every segment
        // the older one still needs.
        assert_eq!(durable::list_checkpoints(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The durable directory's bound, driven past four times `retain`
    /// checkpoints: after every checkpoint the directory holds exactly the
    /// newest `retain` checkpoints and the segments they still need (each
    /// checkpoint rotated the log to a segment named by its watermark, so
    /// exactly those) and nothing else — an orphaned checkpoint temp file
    /// planted up front is gone — and it recovers to the published engine.
    #[test]
    fn durable_directory_stays_bounded_past_four_times_retain() {
        let dir = tempdir("retention");
        let (base, tape) = warmed(300);
        let retain = 2;
        let config = DurabilityConfig {
            checkpoint_every: 2,
            retain,
            ..DurabilityConfig::new(&dir)
        };
        let live =
            LiveEngine::bootstrap_durable(base.clone(), stream_config(), config.clone()).unwrap();
        // What a crash between a checkpoint's create and rename leaves.
        std::fs::write(dir.join("ckpt-00000000000000000001.tmp"), b"torn").unwrap();
        let refreshes = 2 * (4 * retain + 1);
        let mut written = 0;
        for chunk in tape.chunks(tape.len().div_ceil(refreshes)) {
            feed(&live, chunk);
            if live.refresh().unwrap().checkpoint != CheckpointOutcome::Written {
                continue;
            }
            written += 1;
            let stamps = |listed: Vec<(u64, std::path::PathBuf)>| -> Vec<u64> {
                listed.into_iter().map(|(stamp, _)| stamp).collect()
            };
            let epoch = live.epoch();
            let (ckpts, segments) = (
                durable::list_checkpoints(&dir).unwrap(),
                durable::list_segments(&dir).unwrap(),
            );
            let mut listed: Vec<_> = ckpts
                .iter()
                .chain(&segments)
                .map(|(_, p)| p.clone())
                .collect();
            let mut on_disk: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            listed.sort();
            on_disk.sort();
            assert_eq!(on_disk, listed, "after epoch {epoch}");
            let checkpoints = stamps(ckpts);
            assert_eq!(checkpoints, vec![epoch - 2, epoch], "after epoch {epoch}");
            assert_eq!(stamps(segments), checkpoints);
            let (recovered, report) =
                LiveEngine::recover(base.clone(), stream_config(), config.clone()).unwrap();
            assert_eq!(report.final_epoch, epoch);
            assert_eq!(
                recovered.engine().write_snapshot(),
                live.engine().write_snapshot(),
                "recovery after epoch {epoch}"
            );
        }
        assert!(written > 4 * retain, "{written} checkpoints written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The tentpole oracle at unit scale: kill the engine (drop it) at
    /// every refresh boundary and recover; the recovered engine must be
    /// byte-identical to the uninterrupted run at the same epoch, and
    /// finishing the stream on it must stay byte-identical.
    #[test]
    fn recovery_is_byte_identical_at_every_refresh_boundary() {
        let (base, tape) = warmed(300);
        let chunk = tape.len().div_ceil(4);
        // Uninterrupted reference: snapshot bytes per epoch.
        let reference = LiveEngine::bootstrap(base.clone(), stream_config()).unwrap();
        let mut ref_snapshots = vec![reference.engine().write_snapshot()];
        for c in tape.chunks(chunk) {
            feed(&reference, c);
            reference.refresh().unwrap();
            ref_snapshots.push(reference.engine().write_snapshot());
        }
        for crash_after in 0..=tape.chunks(chunk).count() {
            let dir = tempdir(&format!("oracle-{crash_after}"));
            let live =
                LiveEngine::bootstrap_durable(base.clone(), stream_config(), durability(&dir, 2))
                    .unwrap();
            for c in tape.chunks(chunk).take(crash_after) {
                feed(&live, c);
                live.refresh().unwrap();
            }
            drop(live); // the crash: no shutdown hook, no final checkpoint
            let (recovered, report) =
                LiveEngine::recover(base.clone(), stream_config(), durability(&dir, 2)).unwrap();
            assert_eq!(report.final_epoch, crash_after as u64);
            assert_eq!(report.halted, None);
            // Served straight from the checkpoint, or from the last frame
            // replayed through a refresh.
            let built = recovered.engine().build_stats().clone();
            let by = if report.frames_replayed == 0 {
                "checkpoint"
            } else {
                "stream-fim-delta"
            };
            assert_eq!((built.algorithm, built.filtered_out), (by, 0));
            assert_eq!(
                recovered.engine().write_snapshot(),
                ref_snapshots[crash_after],
                "crash after {crash_after} refreshes"
            );
            let expected_tape: Vec<Action> = base
                .actions()
                .iter()
                .copied()
                .chain(tape.chunks(chunk).take(crash_after).flatten().copied())
                .collect();
            assert_eq!(recovered.engine().data().actions(), expected_tape);
            // The recovered engine keeps going: finish the stream and land
            // on the reference's final epoch, byte for byte.
            for c in tape.chunks(chunk).skip(crash_after) {
                feed(&recovered, c);
                recovered.refresh().unwrap();
            }
            assert_eq!(
                recovered.engine().write_snapshot(),
                *ref_snapshots.last().unwrap(),
                "post-recovery stream diverged (crash after {crash_after})"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn recovery_survives_a_torn_tail_and_a_corrupt_newest_checkpoint() {
        use vexus_data::wal;
        let (base, tape) = warmed(300);
        let chunk = tape.len().div_ceil(4);
        let dir = tempdir("torn");
        let live =
            LiveEngine::bootstrap_durable(base.clone(), stream_config(), durability(&dir, 3))
                .unwrap();
        for c in tape.chunks(chunk) {
            feed(&live, c);
            live.refresh().unwrap();
        }
        let expect = live.engine().write_snapshot();
        let final_epoch = live.epoch();
        assert_eq!(final_epoch, 4);
        drop(live);
        // Tear the newest segment mid-frame: the cadence-3 checkpoint
        // rotated the log at watermark 3, so `wal-3` holds exactly the
        // frame for epoch 4. Tearing its last bytes loses that frame —
        // detected, reported, and truncated, never a panic.
        let (first, seg) = durable::list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(first, 3, "cadence-3 checkpoint rotated the log");
        let len = std::fs::metadata(&seg).unwrap().len();
        wal::truncate_at(&seg, len - 3).unwrap();
        let (recovered, report) =
            LiveEngine::recover(base.clone(), stream_config(), durability(&dir, 3)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.checkpoint_watermark, 3);
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.final_epoch, 3);
        drop(recovered);
        // Now corrupt the newest checkpoint: recovery falls back to the
        // previous one, deletes the corrupt file, and replays further back.
        let (wm, newest) = durable::list_checkpoints(&dir).unwrap().pop().unwrap();
        assert_eq!(wm, 3);
        wal::corrupt_byte_at(&newest, 64, 0xff).unwrap();
        let (recovered, report) =
            LiveEngine::recover(base.clone(), stream_config(), durability(&dir, 3)).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert!(report.checkpoint_watermark < wm);
        assert!(!newest.exists(), "corrupt checkpoint deleted");
        // Re-feeding the torn-off chunk from the source tape lands on the
        // uninterrupted run's final snapshot, byte for byte.
        for c in tape.chunks(chunk).skip(recovered.epoch() as usize) {
            feed(&recovered, c);
            recovered.refresh().unwrap();
        }
        assert_eq!(recovered.engine().write_snapshot(), expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_rejects_wrong_base_and_wrong_config() {
        let dir = tempdir("mismatch");
        let (base, tape) = warmed(300);
        let live =
            LiveEngine::bootstrap_durable(base.clone(), stream_config(), durability(&dir, 8))
                .unwrap();
        feed(&live, &tape);
        live.refresh().unwrap();
        drop(live);
        // Wrong base dataset: a hard Recovery error, nothing deleted.
        let (other_base, _) = warmed(100);
        assert!(matches!(
            LiveEngine::recover(other_base, stream_config(), durability(&dir, 8)),
            Err(CoreError::Recovery(_))
        ));
        // Wrong discovery fingerprint: same.
        let other_cfg = EngineConfig::default().with_discovery(DiscoverySelection::StreamFim {
            support: 0.25,
            epsilon: 0.01,
            max_len: 3,
        });
        assert!(matches!(
            LiveEngine::recover(base.clone(), other_cfg, durability(&dir, 8)),
            Err(CoreError::Recovery(_))
        ));
        assert_eq!(durable::list_checkpoints(&dir).unwrap().len(), 1);
        // The right inputs still recover.
        let (recovered, report) =
            LiveEngine::recover(base, stream_config(), durability(&dir, 8)).unwrap();
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(recovered.epoch(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_with_retry_passes_hard_errors_through() {
        let (base, _tape) = warmed(400);
        let live = LiveEngine::bootstrap(base, stream_config()).unwrap();
        // No pending actions: refresh succeeds as a no-op on attempt one —
        // and `0` attempts means one, not a panic.
        for attempts in [3, 0] {
            let out = live.refresh_with_retry(attempts).unwrap();
            assert!(!out.advanced);
        }
        // A halt is a hard error: it comes back as it is at any attempt
        // count, and the published epoch is still there.
        live.state.lock().unwrap().halt(HALT_PANIC);
        for attempts in [0, 1, 3] {
            assert_eq!(
                live.refresh_with_retry(attempts).unwrap_err(),
                CoreError::Halted(HALT_PANIC)
            );
        }
        assert_eq!(live.halt_cause(), Some(HALT_PANIC));
        assert_eq!(live.epoch(), 0);
    }

    /// The durable counts have one owner, the sink: refreshes driven on
    /// the live engine directly show up in a service's stats beside those
    /// driven through it; the bootstrap checkpoint and recovery's replay
    /// are not counted, and a halt keeps the counts.
    #[test]
    fn service_stats_count_refreshes_driven_on_the_live_engine() {
        use crate::serve::ExplorationService;
        let dir = tempdir("counts");
        let (base, tape) = warmed(300);
        let live = Arc::new(
            LiveEngine::bootstrap_durable(base.clone(), stream_config(), durability(&dir, 2))
                .unwrap(),
        );
        let svc = ExplorationService::live(Arc::clone(&live));
        assert_eq!(svc.stats().checkpoints, 0, "bootstrap checkpoint");
        let chunks: Vec<_> = tape.chunks(tape.len().div_ceil(5)).collect();
        for chunk in &chunks[..4] {
            feed(&live, chunk);
            live.refresh().unwrap();
        }
        feed(&live, chunks[4]);
        svc.refresh().unwrap();
        let counts = DurableCounts {
            wal_frames: 5,
            checkpoints: 2,
            checkpoint_failures: 0,
        };
        let stats = svc.stats();
        assert_eq!(
            (
                stats.wal_frames,
                stats.checkpoints,
                stats.checkpoint_failures
            ),
            (5, 2, 0)
        );
        assert_eq!(live.durable_counts(), counts);
        assert_eq!(stats.refreshes, 1, "refresh verbs served");
        live.state.lock().unwrap().halt(HALT_PANIC);
        assert_eq!(live.durable_counts(), counts, "a halt keeps the counts");
        drop((svc, live));
        let (recovered, report) =
            LiveEngine::recover(base, stream_config(), durability(&dir, 2)).unwrap();
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(recovered.durable_counts(), DurableCounts::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_pin_their_epoch_across_refreshes() {
        let (base, tape) = warmed(300);
        let live = LiveEngine::bootstrap(base, stream_config()).unwrap();
        let pinned = live.engine();
        let mut before = crate::engine::OwnedSession::open(Arc::clone(&pinned)).unwrap();
        let display0: Vec<_> = before.display().to_vec();
        feed(&live, &tape);
        assert!(live.refresh().unwrap().advanced);
        // The open session still explores its pinned epoch: publication
        // swapped the lock's Arc, not the engine behind existing handles.
        assert!(Arc::ptr_eq(before.engine(), &pinned));
        let first = display0[0];
        let stepped: Vec<_> = before.click(first).unwrap().to_vec();
        // A session opened on the pinned handle after the refresh replays
        // the exact same exploration.
        let mut replay = crate::engine::OwnedSession::open(pinned).unwrap();
        assert_eq!(display0, replay.display().to_vec());
        assert_eq!(stepped, replay.click(first).unwrap().to_vec());
        // New opens see the new epoch.
        assert!(!Arc::ptr_eq(&live.engine(), before.engine()));
    }
}
