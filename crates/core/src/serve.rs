//! Exploration-as-a-service: many concurrent sessions over one shared
//! engine, hardened for production.
//!
//! The offline pipeline is expensive (discovery + index build); the
//! per-click work is not. [`ExplorationService`] exploits that split: it
//! holds an engine — one fixed `Arc<Vexus>`, or a [`LiveEngine`]
//! publishing immutable engine epochs — and a table of open sessions,
//! and answers open/click/backtrack/memo/close verbs
//! from any thread. Each published `Vexus` is immutable, so sessions
//! never contend on it — the only shared mutable state is the session
//! table (behind an `RwLock`, held only for lookups) and each session's
//! own mutex.
//!
//! **Epoch discipline**: every open clones the currently published
//! `Arc<Vexus>` and the session keeps that handle for life — a
//! [`ExplorationService::refresh`] swaps what *new* opens see without
//! blocking or perturbing in-flight sessions (they replay byte-identically
//! against their pinned epoch). Services over a plain `Arc<Vexus>`
//! ([`ExplorationService::new`]) hold it directly and never advance:
//! the ingestion verbs answer [`crate::CoreError::NotLive`].
//!
//! Lock discipline: a verb read-locks the table, clones the session's
//! slot `Arc`, *drops the table lock*, then locks the session. Steps of
//! different sessions therefore run fully in parallel; the table lock is
//! write-held only by `open`/`close`/eviction, for the duration of a map
//! insert/remove.
//!
//! Robustness (see README "Robustness" for the full failure semantics):
//!
//! * **Admission control & lifecycle** — [`ServiceConfig`] bounds the
//!   table (`max_sessions` ⇒ typed [`ServeError::AtCapacity`]) and ages
//!   idle sessions out against a *logical* clock that ticks once per verb
//!   (`idle_ttl_steps` ⇒ [`ServeError::SessionExpired`]); no wall time,
//!   so every lifecycle decision is deterministic and testable. A bounded
//!   memory of recent evictions distinguishes `SessionExpired` from
//!   [`ServeError::UnknownSession`].
//! * **Panic isolation** — every verb body runs under `catch_unwind`; a
//!   panicking step quarantines *only its own session* (later verbs on it
//!   return [`ServeError::SessionPoisoned`]) while every other session
//!   continues byte-identically. Table and session locks recover from
//!   poisoning instead of propagating it, so one crash can never brick
//!   the service.
//! * **Observability** — [`ServiceStats`] counts opens, rejections,
//!   evictions, quarantines and lock recoveries, surfaced through the
//!   [`ExplorationService::stats`] verb.
//! * **Fault injection** — while a scenario arms them, the
//!   `serve.open`/`serve.step` sites (see [`crate::failpoint`]) inject
//!   seeded panics or typed [`ServeError::Injected`] errors; idle, each
//!   costs one relaxed atomic load.

use crate::config::EngineConfig;
use crate::durable::DurableCounts;
use crate::engine::{OwnedSession, Vexus};
use crate::error::{CoreError, ServeError};
use crate::failpoint;
use crate::feedback::ContextView;
use crate::live::{LiveEngine, RefreshOutcome};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use vexus_data::UserId;
use vexus_mining::GroupId;

/// Opaque handle to an open session in an [`ExplorationService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Operational limits for an [`ExplorationService`].
///
/// The defaults impose no limits (unbounded table, no expiry), matching
/// the pre-hardening behaviour; production deployments dial both in.
/// Idle age is measured in *logical steps* — the service clock ticks once
/// per verb — so lifecycle behaviour is deterministic under test and
/// independent of wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum open sessions (live + quarantined); opens beyond it are
    /// rejected with [`ServeError::AtCapacity`].
    pub max_sessions: usize,
    /// Evict a session once it has not been touched for more than this
    /// many logical steps. `u64::MAX` disables expiry.
    pub idle_ttl_steps: u64,
    /// How many recently evicted ids to remember, so verbs on them can
    /// report [`ServeError::SessionExpired`] instead of the generic
    /// [`ServeError::UnknownSession`]. `0` disables the memory.
    pub eviction_memory: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: usize::MAX,
            idle_ttl_steps: u64::MAX,
            eviction_memory: 1024,
        }
    }
}

/// Cumulative service counters, snapshot via
/// [`ExplorationService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sessions opened successfully.
    pub opens: u64,
    /// Opens rejected (at capacity, or by an injected `serve.open` fault).
    pub rejections: u64,
    /// Sessions evicted after exceeding the idle TTL.
    pub evictions: u64,
    /// Sessions quarantined after a panic mid-verb.
    pub quarantines: u64,
    /// Poisoned table/session locks recovered instead of propagated.
    pub recoveries: u64,
    /// Refresh verbs that published a new epoch (empty-cut no-ops and
    /// failed refreshes excluded).
    pub refreshes: u64,
    /// Deltas committed to the write-ahead log before applying (durable
    /// engines only; see [`crate::DurabilityConfig`]). This and the two
    /// checkpoint counts are [`LiveEngine::durable_counts`]: since the live
    /// engine was bootstrapped or recovered, refreshes driven on it
    /// directly included.
    pub wal_frames: u64,
    /// Checkpoints written by the cadence policy.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (the refresh itself succeeded; the
    /// WAL keeps every frame and the next refresh retries).
    pub checkpoint_failures: u64,
    /// Whether the live side is halted (panic mid-refresh or an empty
    /// epoch group space). The service keeps serving the last published
    /// epoch; [`LiveEngine::recover`] over the durable directory is the
    /// way back (see [`LiveEngine::halt_cause`] for the cause).
    pub halted: bool,
    /// The engine epoch currently published for new opens (always 0 for
    /// a fixed engine; see [`LiveEngine::epoch`]).
    pub epoch: u64,
}

#[derive(Default)]
struct Counters {
    opens: AtomicU64,
    rejections: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    recoveries: AtomicU64,
    refreshes: AtomicU64,
}

impl Counters {
    fn snapshot(&self, epoch: u64, halted: bool, durable: DurableCounts) -> ServiceStats {
        ServiceStats {
            opens: self.opens.load(Ordering::SeqCst),
            rejections: self.rejections.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            quarantines: self.quarantines.load(Ordering::SeqCst),
            recoveries: self.recoveries.load(Ordering::SeqCst),
            refreshes: self.refreshes.load(Ordering::SeqCst),
            wal_frames: durable.wal_frames,
            checkpoints: durable.checkpoints,
            checkpoint_failures: durable.checkpoint_failures,
            halted,
            epoch,
        }
    }
}

/// A live session's table slot: its state plus the logical time it was
/// last touched (for idle eviction).
struct LiveSlot {
    session: Mutex<OwnedSession>,
    last_touch: AtomicU64,
}

/// One entry in the session table. Quarantined slots keep the id
/// occupied (so verbs get the typed poison error, not `UnknownSession`)
/// but drop the crashed state; they leave via `close` or the idle TTL.
#[derive(Clone)]
enum Slot {
    Live(Arc<LiveSlot>),
    Quarantined { since: u64 },
}

type Table = HashMap<u64, Slot>;

/// What the service serves from: one engine for life, or whatever a live
/// engine currently publishes.
enum Engine {
    Fixed(Arc<Vexus>),
    Live(Arc<LiveEngine>),
}

impl Engine {
    /// The live engine behind the ingestion verbs, or the typed refusal
    /// of a fixed one.
    fn live(&self) -> Result<&LiveEngine, CoreError> {
        match self {
            Engine::Live(live) => Ok(live),
            Engine::Fixed(_) => Err(CoreError::NotLive("no ingestion state (fixed engine)")),
        }
    }
}

/// A session table over one shared engine: open sessions, step them from
/// any thread, close them — with admission control, idle eviction and
/// panic quarantine per [`ServiceConfig`].
pub struct ExplorationService {
    engine: Engine,
    config: ServiceConfig,
    sessions: RwLock<Table>,
    next_id: AtomicU64,
    /// Logical clock: ticks once per verb. All lifecycle decisions key
    /// off it, never off wall time.
    clock: AtomicU64,
    /// Recently evicted ids (bounded by `config.eviction_memory`).
    evicted: Mutex<VecDeque<u64>>,
    counters: Counters,
}

impl ExplorationService {
    /// A service over a fixed shared engine with default (unbounded)
    /// limits. It serves that engine forever at epoch 0;
    /// [`Self::refresh`] and [`Self::ingest`] report
    /// [`crate::CoreError::NotLive`].
    pub fn new(engine: Arc<Vexus>) -> Self {
        Self::with_config(engine, ServiceConfig::default())
    }

    /// A service over a fixed shared engine with explicit operational
    /// limits (see [`Self::new`]).
    pub fn with_config(engine: Arc<Vexus>, config: ServiceConfig) -> Self {
        Self::over(Engine::Fixed(engine), config)
    }

    /// A service over a live engine with default (unbounded) limits: new
    /// opens follow the published epoch, [`Self::refresh`] advances it.
    pub fn live(live: Arc<LiveEngine>) -> Self {
        Self::live_with_config(live, ServiceConfig::default())
    }

    /// A service over a live engine with explicit operational limits.
    pub fn live_with_config(live: Arc<LiveEngine>, config: ServiceConfig) -> Self {
        Self::over(Engine::Live(live), config)
    }

    fn over(engine: Engine, config: ServiceConfig) -> Self {
        Self {
            engine,
            config,
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            evicted: Mutex::new(VecDeque::new()),
            counters: Counters::default(),
        }
    }

    /// The currently published engine epoch. The handle is cloned out of
    /// the publication lock: it stays valid (and unchanged) however long
    /// the caller holds it, even across refreshes.
    pub fn engine(&self) -> Arc<Vexus> {
        match &self.engine {
            Engine::Fixed(engine) => Arc::clone(engine),
            Engine::Live(live) => live.engine(),
        }
    }

    /// The service's operational limits.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Cumulative service counters.
    pub fn stats(&self) -> ServiceStats {
        let (epoch, halted, durable) = match &self.engine {
            Engine::Fixed(_) => Default::default(),
            Engine::Live(l) => (l.epoch(), l.halt_cause().is_some(), l.durable_counts()),
        };
        self.counters.snapshot(epoch, halted, durable)
    }

    /// The logical clock: verbs served so far (each verb ticks it once).
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Read-lock the session table, recovering from poison. A panic while
    /// the table was write-held can only leave the map between two valid
    /// states of `HashMap`'s safe API (an insert or remove either happened
    /// or did not), so the data is usable either way — propagating the
    /// poison would brick every session over one crashed verb.
    fn table_read(&self) -> RwLockReadGuard<'_, Table> {
        self.sessions.read().unwrap_or_else(|e| {
            self.counters.recoveries.fetch_add(1, Ordering::SeqCst);
            e.into_inner()
        })
    }

    /// Write-lock the session table, recovering from poison (see
    /// [`Self::table_read`]).
    fn table_write(&self) -> RwLockWriteGuard<'_, Table> {
        self.sessions.write().unwrap_or_else(|e| {
            self.counters.recoveries.fetch_add(1, Ordering::SeqCst);
            e.into_inner()
        })
    }

    /// Lock one session's state, recovering from poison. A poisoned
    /// session mutex means a verb panicked mid-step on *this* session;
    /// recovering keeps the lock (and the table around it) functional
    /// instead of turning every later verb into a panic.
    fn lock_session<'a>(&self, handle: &'a Mutex<OwnedSession>) -> MutexGuard<'a, OwnedSession> {
        handle.lock().unwrap_or_else(|e| {
            self.counters.recoveries.fetch_add(1, Ordering::SeqCst);
            e.into_inner()
        })
    }

    fn expired(&self, last_touch: u64, now: u64) -> bool {
        now.saturating_sub(last_touch) > self.config.idle_ttl_steps
    }

    fn remember_eviction(&self, id: u64) {
        if self.config.eviction_memory == 0 {
            return;
        }
        let mut log = self.evicted.lock().unwrap_or_else(PoisonError::into_inner);
        log.push_back(id);
        while log.len() > self.config.eviction_memory {
            log.pop_front();
        }
    }

    fn recently_evicted(&self, id: u64) -> bool {
        self.evicted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&id)
    }

    /// Evict `id` iff it is (still) idle-expired at `now` — the expiry is
    /// re-checked under the write lock so a concurrent verb that touched
    /// the session in the meantime wins.
    fn evict_if_expired(&self, id: u64, now: u64) -> bool {
        let mut table = self.table_write();
        let expired = match table.get(&id) {
            Some(Slot::Live(live)) => self.expired(live.last_touch.load(Ordering::SeqCst), now),
            Some(Slot::Quarantined { since }) => self.expired(*since, now),
            None => false,
        };
        if expired {
            table.remove(&id);
            drop(table);
            self.remember_eviction(id);
            self.counters.evictions.fetch_add(1, Ordering::SeqCst);
        }
        expired
    }

    /// Evict every idle-expired session (live or quarantined) now;
    /// returns how many were evicted. `open` sweeps automatically when a
    /// TTL is configured; long-idle deployments can also sweep on a
    /// maintenance tick.
    pub fn sweep_idle(&self) -> usize {
        if self.config.idle_ttl_steps == u64::MAX {
            return 0;
        }
        let now = self.clock();
        let stale: Vec<u64> = self
            .table_read()
            .iter()
            .filter_map(|(&id, slot)| {
                let last = match slot {
                    Slot::Live(live) => live.last_touch.load(Ordering::SeqCst),
                    Slot::Quarantined { since } => *since,
                };
                self.expired(last, now).then_some(id)
            })
            .collect();
        stale
            .into_iter()
            .filter(|&id| self.evict_if_expired(id, now))
            .count()
    }

    /// Open a session with the engine's configuration; returns its id and
    /// opening display.
    pub fn open(&self) -> Result<(SessionId, Vec<GroupId>), ServeError> {
        self.open_with(self.engine().config().clone())
    }

    /// Open a session with an overriding configuration. Fails typed when
    /// the table is at `max_sessions` (idle-expired sessions are swept
    /// first, so stale load never blocks fresh users).
    pub fn open_with(&self, config: EngineConfig) -> Result<(SessionId, Vec<GroupId>), ServeError> {
        let now = self.tick();
        self.sweep_idle();
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        if failpoint::hit_key(failpoint::SERVE_OPEN, id.0) {
            self.counters.rejections.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::Injected(failpoint::SERVE_OPEN));
        }
        // Cheap pre-check before the expensive session build; the
        // authoritative check repeats under the write lock below.
        if self.config.max_sessions != usize::MAX {
            let open = self.table_read().len();
            if open >= self.config.max_sessions {
                self.counters.rejections.fetch_add(1, Ordering::SeqCst);
                return Err(ServeError::AtCapacity {
                    open,
                    max: self.config.max_sessions,
                });
            }
        }
        // Pin the epoch published *now*: the session keeps this handle for
        // life, refreshes notwithstanding.
        let session = OwnedSession::open_with(self.engine(), config)?;
        let display = session.display().to_vec();
        let slot = Arc::new(LiveSlot {
            session: Mutex::new(session),
            last_touch: AtomicU64::new(now),
        });
        {
            let mut table = self.table_write();
            if table.len() >= self.config.max_sessions {
                self.counters.rejections.fetch_add(1, Ordering::SeqCst);
                return Err(ServeError::AtCapacity {
                    open: table.len(),
                    max: self.config.max_sessions,
                });
            }
            table.insert(id.0, Slot::Live(slot));
        }
        self.counters.opens.fetch_add(1, Ordering::SeqCst);
        Ok((id, display))
    }

    /// The typed error for an id that is not in the table.
    fn missing(&self, id: u64) -> ServeError {
        if self.recently_evicted(id) {
            ServeError::SessionExpired(id)
        } else {
            ServeError::UnknownSession(id)
        }
    }

    /// The live slot for `id`, cloned out from under the table lock.
    /// Applies the lifecycle rules: quarantined ⇒ `SessionPoisoned`,
    /// idle-expired ⇒ evict now and `SessionExpired`.
    fn slot(&self, id: SessionId, now: u64) -> Result<Arc<LiveSlot>, ServeError> {
        let found = self.table_read().get(&id.0).cloned();
        match found {
            Some(Slot::Live(live)) => {
                if self.expired(live.last_touch.load(Ordering::SeqCst), now)
                    && self.evict_if_expired(id.0, now)
                {
                    return Err(ServeError::SessionExpired(id.0));
                }
                Ok(live)
            }
            Some(Slot::Quarantined { since }) => {
                if self.expired(since, now) && self.evict_if_expired(id.0, now) {
                    Err(ServeError::SessionExpired(id.0))
                } else {
                    Err(ServeError::SessionPoisoned(id.0))
                }
            }
            None => Err(self.missing(id.0)),
        }
    }

    /// Replace a session's slot with a quarantine marker after a panic.
    /// The crashed state is dropped; the id stays occupied so later verbs
    /// get [`ServeError::SessionPoisoned`], not `UnknownSession`.
    fn quarantine(&self, id: u64, now: u64) {
        let mut table = self.table_write();
        if let Some(slot) = table.get_mut(&id) {
            *slot = Slot::Quarantined { since: now };
            drop(table);
            self.counters.quarantines.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Run a closure against a session's state under its lock. The table
    /// lock is *not* held while `f` runs, so long steps in one session
    /// never block verbs on other sessions. The body runs under
    /// `catch_unwind`: a panic quarantines this session and surfaces as
    /// [`ServeError::SessionPoisoned`] instead of unwinding the caller.
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut OwnedSession) -> R,
    ) -> Result<R, ServeError> {
        let now = self.tick();
        let slot = self.slot(id, now)?;
        slot.last_touch.store(now, Ordering::SeqCst);
        let mut session = self.lock_session(&slot.session);
        // Distinguishes "injected error fault" from a caught panic; the
        // injection fires *inside* the guard so a `Panic`-action fail
        // point exercises the same quarantine path as an organic crash.
        enum Outcome<T> {
            Done(T),
            Injected,
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if failpoint::hit_key(failpoint::SERVE_STEP, id.0) {
                return Outcome::Injected;
            }
            Outcome::Done(f(&mut session))
        }));
        // The guard is owned by this frame, not the closure, so a caught
        // panic has NOT poisoned the mutex — quarantine is explicit.
        drop(session);
        match outcome {
            Ok(Outcome::Done(r)) => Ok(r),
            Ok(Outcome::Injected) => Err(ServeError::Injected(failpoint::SERVE_STEP)),
            Err(_panic) => {
                self.quarantine(id.0, now);
                Err(ServeError::SessionPoisoned(id.0))
            }
        }
    }

    /// Click a displayed group; returns the new display.
    pub fn click(&self, id: SessionId, g: GroupId) -> Result<Vec<GroupId>, ServeError> {
        self.with_session(id, |s| s.click(g).map(<[GroupId]>::to_vec))?
            .map_err(ServeError::from)
    }

    /// Backtrack to a history step; returns the restored display.
    pub fn backtrack(&self, id: SessionId, step: usize) -> Result<Vec<GroupId>, ServeError> {
        self.with_session(id, |s| s.backtrack(step).map(<[GroupId]>::to_vec))?
            .map_err(ServeError::from)
    }

    /// A session's current display.
    pub fn display(&self, id: SessionId) -> Result<Vec<GroupId>, ServeError> {
        self.with_session(id, |s| s.display().to_vec())
    }

    /// A session's CONTEXT view, top-`n` per side.
    pub fn context(&self, id: SessionId, n: usize) -> Result<ContextView, ServeError> {
        self.with_session(id, |s| s.context(n))
    }

    /// Bookmark a group in a session's MEMO.
    pub fn memo_group(&self, id: SessionId, g: GroupId) -> Result<(), ServeError> {
        self.with_session(id, |s| s.memo_group(g))?
            .map_err(ServeError::from)
    }

    /// Bookmark a user in a session's MEMO.
    pub fn memo_user(&self, id: SessionId, u: UserId) -> Result<(), ServeError> {
        self.with_session(id, |s| s.memo_user(u))
    }

    /// Cut the live engine's ingest buffer and publish a new epoch for
    /// subsequent opens (delegates to [`LiveEngine::refresh`]). Counts
    /// one logical tick and, when the epoch advanced, one refresh.
    pub fn refresh(&self) -> Result<RefreshOutcome, ServeError> {
        self.tick();
        let outcome = self.engine.live()?.refresh()?;
        self.note_refresh(&outcome);
        Ok(outcome)
    }

    fn note_refresh(&self, outcome: &RefreshOutcome) {
        if outcome.advanced {
            self.counters.refreshes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Drain up to `max` actions from `stream` into the live engine's
    /// ingest buffer (nothing is applied until [`Self::refresh`]).
    pub fn ingest(
        &self,
        stream: &mut dyn vexus_data::ActionStream,
        max: usize,
    ) -> Result<usize, ServeError> {
        Ok(self.engine.live()?.ingest(stream, max)?)
    }

    /// Close a session, dropping its state. Closing a quarantined session
    /// succeeds — it is how a client acknowledges the poison and frees
    /// the slot.
    pub fn close(&self, id: SessionId) -> Result<(), ServeError> {
        self.tick();
        match self.table_write().remove(&id.0) {
            Some(_) => Ok(()),
            None => Err(self.missing(id.0)),
        }
    }

    /// Number of open sessions (live + quarantined).
    pub fn len(&self) -> usize {
        self.table_read().len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The whole point of the service is cross-thread serving; pin the auto
// traits at compile time so a non-Sync field can never sneak in.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Vexus>();
    assert_send_sync::<ExplorationService>();
    assert_send_sync::<OwnedSession>();
    assert_send_sync::<LiveEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

    fn engine() -> Arc<Vexus> {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Vexus::build(ds.data, EngineConfig::default())
            .unwrap()
            .shared()
    }

    fn service() -> ExplorationService {
        ExplorationService::new(engine())
    }

    #[test]
    fn open_click_backtrack_close_roundtrip() {
        let svc = service();
        let (id, display) = svc.open().unwrap();
        assert!(!display.is_empty());
        assert_eq!(svc.display(id).unwrap(), display);
        let next = svc.click(id, display[0]).unwrap();
        assert!(!next.is_empty());
        assert_ne!(svc.context(id, 5).unwrap().users.len(), 0);
        let back = svc.backtrack(id, 0).unwrap();
        assert_eq!(back, display);
        svc.memo_group(id, display[0]).unwrap();
        svc.memo_user(id, UserId::new(1)).unwrap();
        assert_eq!(svc.len(), 1);
        svc.close(id).unwrap();
        assert!(svc.is_empty());
        assert_eq!(svc.close(id), Err(ServeError::UnknownSession(id.0)));
    }

    #[test]
    fn verbs_on_unknown_sessions_fail() {
        let svc = service();
        let ghost = SessionId(99);
        assert!(matches!(
            svc.click(ghost, GroupId::new(0)),
            Err(ServeError::UnknownSession(99))
        ));
        assert!(matches!(
            svc.display(ghost),
            Err(ServeError::UnknownSession(99))
        ));
    }

    #[test]
    fn core_errors_pass_through() {
        let svc = service();
        let (id, _) = svc.open().unwrap();
        let err = svc.click(id, GroupId::new(u32::MAX - 1)).unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::NotDisplayed(_))));
        let err = svc.backtrack(id, 42).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::BadHistoryStep(42))
        ));
    }

    #[test]
    fn session_ids_are_unique_and_isolated() {
        let svc = service();
        // A budget that never binds: identical opening displays must not
        // hinge on wall-clock noise cutting two hill-climbs differently.
        let cfg = EngineConfig::default().with_budget(std::time::Duration::from_secs(600));
        let (a, display_a) = svc.open_with(cfg.clone()).unwrap();
        let (b, display_b) = svc.open_with(cfg).unwrap();
        assert_ne!(a, b);
        // Identical opening displays (same engine, same config)…
        assert_eq!(display_a, display_b);
        // …but stepping one session leaves the other untouched.
        svc.click(a, display_a[0]).unwrap();
        assert_eq!(svc.display(b).unwrap(), display_b);
        assert!(svc.context(b, 5).unwrap().users.is_empty());
    }

    #[test]
    fn at_capacity_opens_are_rejected_typed() {
        let svc = ExplorationService::with_config(
            engine(),
            ServiceConfig {
                max_sessions: 2,
                ..ServiceConfig::default()
            },
        );
        let (a, _) = svc.open().unwrap();
        let (_b, _) = svc.open().unwrap();
        assert_eq!(
            svc.open().unwrap_err(),
            ServeError::AtCapacity { open: 2, max: 2 }
        );
        assert_eq!(svc.stats().rejections, 1);
        assert_eq!(svc.stats().opens, 2);
        // Closing frees a slot.
        svc.close(a).unwrap();
        svc.open().unwrap();
        assert_eq!(svc.len(), 2);
    }

    #[test]
    fn idle_sessions_expire_against_the_logical_clock() {
        let svc = ExplorationService::with_config(
            engine(),
            ServiceConfig {
                idle_ttl_steps: 5,
                ..ServiceConfig::default()
            },
        );
        let (a, _) = svc.open().unwrap();
        let (b, _) = svc.open().unwrap();
        // Keep `a` warm while the clock advances past `b`'s TTL.
        for _ in 0..3 {
            svc.display(a).unwrap();
        }
        svc.clock.fetch_add(10, Ordering::SeqCst); // idle time, no verb
        assert_eq!(svc.display(b).unwrap_err(), ServeError::SessionExpired(b.0));
        // `a` expired too (its last touch is also >5 steps old now).
        assert_eq!(svc.display(a).unwrap_err(), ServeError::SessionExpired(a.0));
        // Expired ids stay distinguishable from never-opened ids.
        assert_eq!(svc.display(b).unwrap_err(), ServeError::SessionExpired(b.0));
        assert!(matches!(
            svc.display(SessionId(999)).unwrap_err(),
            ServeError::UnknownSession(999)
        ));
        assert_eq!(svc.stats().evictions, 2);
        assert!(svc.is_empty());
    }

    /// The eviction log's bound, driven past three times itself: after
    /// every eviction the log holds exactly `min(evicted, memory)` ids,
    /// newest last; afterwards the newest `memory` evicted ids answer
    /// `SessionExpired`, every older one `UnknownSession`, and the counter
    /// has seen them all.
    #[test]
    fn eviction_log_stays_bounded_past_three_times_its_memory() {
        let memory = 4;
        let svc = ExplorationService::with_config(
            engine(),
            ServiceConfig {
                idle_ttl_steps: 100,
                eviction_memory: memory,
                ..ServiceConfig::default()
            },
        );
        let ids: Vec<SessionId> = (0..3 * memory + 2).map(|_| svc.open().unwrap().0).collect();
        svc.clock.fetch_add(1_000, Ordering::SeqCst); // idle time, no verb
        for (evicted, &id) in (1..).zip(&ids) {
            assert_eq!(
                svc.display(id).unwrap_err(),
                ServeError::SessionExpired(id.0)
            );
            let log = svc.evicted.lock().unwrap();
            assert_eq!(log.len(), evicted.min(memory), "after {evicted} evictions");
            assert_eq!(log.back(), Some(&id.0));
        }
        let (older, newest) = ids.split_at(ids.len() - memory);
        for &id in newest {
            assert_eq!(
                svc.display(id).unwrap_err(),
                ServeError::SessionExpired(id.0)
            );
        }
        for &id in older {
            assert_eq!(
                svc.display(id).unwrap_err(),
                ServeError::UnknownSession(id.0)
            );
        }
        assert_eq!(svc.stats().evictions, ids.len() as u64);
        assert!(svc.is_empty());
    }

    #[test]
    fn sweep_idle_collects_stale_sessions_in_bulk() {
        let svc = ExplorationService::with_config(
            engine(),
            ServiceConfig {
                idle_ttl_steps: 4,
                ..ServiceConfig::default()
            },
        );
        for _ in 0..3 {
            svc.open().unwrap();
        }
        assert_eq!(svc.sweep_idle(), 0, "nothing stale yet");
        svc.clock.fetch_add(50, Ordering::SeqCst); // idle time, no verb
        assert_eq!(svc.sweep_idle(), 3);
        assert!(svc.is_empty());
        assert_eq!(svc.stats().evictions, 3);
        // Opens sweep automatically: stale load never blocks fresh users.
        let svc2 = ExplorationService::with_config(
            engine(),
            ServiceConfig {
                max_sessions: 1,
                idle_ttl_steps: 4,
                ..ServiceConfig::default()
            },
        );
        svc2.open().unwrap();
        svc2.clock.fetch_add(50, Ordering::SeqCst); // idle time, no verb
        svc2.open().unwrap();
        assert_eq!(svc2.len(), 1);
    }

    #[test]
    fn panicking_verb_quarantines_only_its_own_session() {
        let svc = service();
        let (bad, _) = svc.open().unwrap();
        let (good, good_display) = svc.open().unwrap();
        // The panic is caught, not propagated: the caller sees a typed
        // error and the service keeps serving.
        let err = svc
            .with_session(bad, |_| -> () { panic!("verb crashed mid-step") })
            .unwrap_err();
        assert_eq!(err, ServeError::SessionPoisoned(bad.0));
        // The crashed session is quarantined…
        assert_eq!(
            svc.display(bad).unwrap_err(),
            ServeError::SessionPoisoned(bad.0)
        );
        // …while the other session continues byte-identically.
        assert_eq!(svc.display(good).unwrap(), good_display);
        assert_eq!(svc.len(), 2, "quarantined slot still occupies the table");
        assert_eq!(svc.stats().quarantines, 1);
        // Close acknowledges the poison and frees the slot.
        svc.close(bad).unwrap();
        assert_eq!(svc.len(), 1);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_service() {
        let svc = service();
        let (id, display) = svc.open().unwrap();
        // Poison the session mutex the hard way: lock it on another
        // thread and panic while holding the guard. (Verb panics no
        // longer poison it — the guard lives in `with_session`'s frame —
        // so this simulates a crash inside the lock itself.)
        let slot = svc.slot(id, svc.clock()).unwrap();
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = slot.session.lock().unwrap();
                panic!("poison the session mutex");
            })
            .join()
        });
        assert!(slot.session.is_poisoned());
        // The service recovers: state intact, recovery counted.
        assert_eq!(svc.display(id).unwrap(), display);
        assert!(svc.stats().recoveries >= 1);
        // Same for the table lock.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = svc.sessions.write().unwrap();
                panic!("poison the table lock");
            })
            .join()
        });
        assert!(svc.sessions.is_poisoned());
        assert_eq!(svc.len(), 1);
        assert_eq!(svc.display(id).unwrap(), display);
        svc.close(id).unwrap();
        assert!(svc.is_empty());
    }

    #[test]
    fn fixed_services_refuse_the_refresh_verb() {
        let svc = service();
        let err = svc.refresh().unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::NotLive(_))));
        let mut stream = vexus_data::stream::ReplayStream::from_actions(&[]);
        let err = svc.ingest(&mut stream, 8).unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::NotLive(_))));
        assert_eq!(svc.stats().epoch, 0);
        assert_eq!(svc.stats().refreshes, 0);
    }

    /// Live service over a warmed-up bookcrossing: ingest + Refresh swaps
    /// the epoch for new opens while sessions opened before the refresh
    /// replay byte-identically against their pinned engine.
    #[test]
    fn refresh_swaps_epochs_without_perturbing_open_sessions() {
        use crate::live::LiveEngine;
        use vexus_data::stream::ChannelStream;
        use vexus_mining::DiscoverySelection;

        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let (mut base, tape) = ds.data.split_actions();
        base.append_actions(&tape[..300]);
        let config = EngineConfig::default()
            .with_discovery(DiscoverySelection::StreamFim {
                support: 0.05,
                epsilon: 0.01,
                max_len: 3,
            })
            .with_budget(std::time::Duration::from_secs(600));
        let live = Arc::new(LiveEngine::bootstrap(base, config).unwrap());
        let svc = ExplorationService::live(Arc::clone(&live));

        let epoch0 = svc.engine();
        let (pinned, display0) = svc.open().unwrap();
        let (replay, _) = svc.open().unwrap();

        let (tx, mut rx) = ChannelStream::with_capacity(tape.len());
        for &a in &tape[300..] {
            assert!(tx.send(a));
        }
        drop(tx);
        svc.ingest(&mut rx, usize::MAX).unwrap();
        let outcome = svc.refresh().unwrap();
        assert!(outcome.advanced);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(svc.stats().epoch, 1);
        assert_eq!(svc.stats().refreshes, 1);

        // In-flight sessions keep replaying their pinned epoch: the two
        // pre-refresh sessions step identically to each other after the
        // swap, and their display still matches the pre-refresh opening.
        assert_eq!(svc.display(pinned).unwrap(), display0);
        let a = svc.click(pinned, display0[0]).unwrap();
        let b = svc.click(replay, display0[0]).unwrap();
        assert_eq!(a, b, "pinned sessions diverged across the refresh");

        // New opens see the new epoch.
        let epoch1 = svc.engine();
        assert!(!Arc::ptr_eq(&epoch0, &epoch1));
        assert_eq!(
            epoch1.data().actions().len(),
            epoch0.data().actions().len() + (tape.len() - 300)
        );
        svc.open().unwrap();
        assert_eq!(svc.stats().opens, 3);

        // An empty cut is a visible no-op.
        let noop = svc.refresh().unwrap();
        assert!(!noop.advanced);
        assert_eq!(svc.stats().refreshes, 1);
    }

    #[test]
    fn concurrent_sessions_step_independently() {
        let svc = service();
        // A budget the tiny workload never exhausts: greedy runs to
        // convergence, so contended threads still converge to the same
        // selections and the cross-session equality below is exact.
        let config = EngineConfig::default().with_budget(std::time::Duration::from_secs(600));
        let ids: Vec<SessionId> = (0..8)
            .map(|_| svc.open_with(config.clone()).unwrap().0)
            .collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                let svc = &svc;
                scope.spawn(move || {
                    for _ in 0..3 {
                        let display = svc.display(id).unwrap();
                        if display.is_empty() {
                            break;
                        }
                        svc.click(id, display[0]).unwrap();
                    }
                });
            }
        });
        // All sessions advanced the same deterministic script to the same
        // state (same engine, same clicks).
        let reference = svc.display(ids[0]).unwrap();
        for &id in &ids[1..] {
            assert_eq!(svc.display(id).unwrap(), reference);
        }
    }

    /// A step config no session can use is refused at every open entry
    /// point — the borrowing session, the owned session and the service —
    /// before the engine's opening memo is consulted, and the service
    /// table stays empty.
    fn assert_open_rejected(config: EngineConfig) {
        let engine = engine();
        let is_invalid = |r: Result<(), CoreError>| matches!(r, Err(CoreError::InvalidConfig(_)));
        assert!(is_invalid(engine.session_with(config.clone()).map(drop)));
        let owned = OwnedSession::open_with(Arc::clone(&engine), config.clone());
        assert!(is_invalid(owned.map(drop)));
        let svc = ExplorationService::new(Arc::clone(&engine));
        assert!(matches!(
            svc.open_with(config),
            Err(ServeError::Core(CoreError::InvalidConfig(_)))
        ));
        assert!(svc.is_empty());
        assert!(engine.opening.get().is_none(), "no opening was computed");
    }

    #[test]
    fn open_rejects_k_zero() {
        assert_open_rejected(EngineConfig {
            k: 0,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn open_rejects_k_above_twelve() {
        for k in [13, 1000] {
            assert_open_rejected(EngineConfig {
                k,
                ..EngineConfig::default()
            });
        }
    }

    #[test]
    fn open_rejects_an_empty_candidate_pool() {
        assert_open_rejected(EngineConfig {
            candidate_pool: 0,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn open_rejects_a_nan_min_similarity() {
        assert_open_rejected(EngineConfig {
            min_similarity: f64::NAN,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn open_rejects_a_min_similarity_outside_the_unit_interval() {
        for min_similarity in [2.0, -0.5] {
            assert_open_rejected(EngineConfig {
                min_similarity,
                ..EngineConfig::default()
            });
        }
    }

    #[test]
    fn open_rejects_a_negative_weight() {
        let default = EngineConfig::default;
        assert_open_rejected(EngineConfig {
            diversity_weight: -1.0,
            ..default()
        });
        assert_open_rejected(EngineConfig {
            coverage_weight: -0.5,
            ..default()
        });
        assert_open_rejected(EngineConfig {
            feedback_weight: -2.0,
            ..default()
        });
    }

    #[test]
    fn open_rejects_a_non_finite_weight() {
        let default = EngineConfig::default;
        assert_open_rejected(EngineConfig {
            diversity_weight: f64::INFINITY,
            ..default()
        });
        assert_open_rejected(EngineConfig {
            coverage_weight: f64::NAN,
            ..default()
        });
        assert_open_rejected(EngineConfig {
            feedback_weight: f64::NEG_INFINITY,
            ..default()
        });
    }

    /// The edges of every valid range open, and P1 holds at `k` 12.
    #[test]
    fn open_accepts_the_edges_of_every_range() {
        let svc = service();
        let edges = [
            EngineConfig::default().with_k(1),
            EngineConfig::default().with_k(12),
            EngineConfig {
                candidate_pool: 1,
                min_similarity: 0.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                min_similarity: 1.0,
                diversity_weight: 0.0,
                coverage_weight: 0.0,
                feedback_weight: 0.0,
                ..EngineConfig::default()
            },
        ];
        for config in edges {
            let k = config.k;
            let (_, display) = svc.open_with(config).unwrap();
            assert!(display.len() <= k, "P1 at k {k}");
        }
    }
}
