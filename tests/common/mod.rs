//! The scripted-session / live-feed harness shared by the serving,
//! chaos, durability and snapshot integration tests: one tiny engine, one
//! scripted replay loop (driven against an owned session or a served
//! one), one streaming workload with its uninterrupted reference, and a
//! scratch directory that cleans up after itself.
#![allow(dead_code)] // each test crate uses a subset

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use vexus::core::{
    EngineConfig, ExplorationService, LiveEngine, OwnedSession, ServeError, SessionId, Vexus,
};
use vexus::data::stream::ChannelStream;
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::{Action, TokenId, UserData};
use vexus::mining::transactions::TransactionDb;
use vexus::mining::{DiscoverySelection, GroupId};

/// A budget the tiny engine never exhausts: a step's outcome depends only
/// on session-local state, never on scheduler noise, so trajectory
/// comparisons are exact.
pub fn config() -> EngineConfig {
    EngineConfig::default().with_budget(Duration::from_secs(600))
}

/// [`config`] over the stream-mining backend the live engine refreshes.
pub fn stream_config() -> EngineConfig {
    config().with_discovery(DiscoverySelection::StreamFim {
        support: 0.05,
        epsilon: 0.01,
        max_len: 3,
    })
}

fn tiny_engine(config: EngineConfig) -> Arc<Vexus> {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    Arc::new(Vexus::build(ds.data, config).expect("non-empty group space"))
}

/// One engine shared by every test of a binary (building it dominates the
/// cost of a case; the engine is immutable post-build).
pub fn engine() -> Arc<Vexus> {
    static ENGINE: OnceLock<Arc<Vexus>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| tiny_engine(config())))
}

/// The same engine with a capacity-0 neighbor cache: it stores nothing,
/// so its sessions read every neighbor list from the index.
pub fn uncached_engine() -> Arc<Vexus> {
    static ENGINE: OnceLock<Arc<Vexus>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        tiny_engine(EngineConfig {
            neighbor_cache_capacity: 0,
            ..config()
        })
    }))
}

/// A session's display trajectory: the opening display, then the display
/// after each scripted verb.
pub type Trajectory = Vec<Vec<GroupId>>;

/// The verb a script performs at one step.
pub enum Verb {
    /// Click this (currently displayed) group.
    Click(GroupId),
    /// Backtrack to this history step.
    Backtrack(usize),
}

/// One scripted session's progress. A script is a function of
/// `(step, current display, history length)` only — session-local state —
/// so the same script replays identically wherever the session lives;
/// `None` ends it early.
pub struct Replay {
    pub traj: Trajectory,
    history_len: usize,
}

impl Replay {
    pub fn new(opening: Vec<GroupId>) -> Self {
        Self {
            traj: vec![opening],
            history_len: 1,
        }
    }

    /// Perform the script's verb for `step` through `apply` and record the
    /// resulting display. `Ok(false)` means the script has ended; an error
    /// from `apply` is returned with the trajectory left as it was.
    pub fn advance<E>(
        &mut self,
        step: usize,
        script: impl FnOnce(usize, &[GroupId], usize) -> Option<Verb>,
        apply: impl FnOnce(&Verb) -> Result<Vec<GroupId>, E>,
    ) -> Result<bool, E> {
        let display = self.traj.last().expect("non-empty trajectory");
        let Some(verb) = script(step, display, self.history_len) else {
            return Ok(false);
        };
        self.traj.push(apply(&verb)?);
        self.history_len = match verb {
            Verb::Click(_) => self.history_len + 1,
            Verb::Backtrack(to) => to + 1,
        };
        Ok(true)
    }

    /// [`Self::advance`] through `steps` steps, stopping at the script's
    /// end or at the first error.
    pub fn run<E>(
        &mut self,
        steps: usize,
        script: impl Fn(usize, &[GroupId], usize) -> Option<Verb>,
        mut apply: impl FnMut(&Verb) -> Result<Vec<GroupId>, E>,
    ) -> Result<(), E> {
        for step in 0..steps {
            if !self.advance(step, &script, &mut apply)? {
                break;
            }
        }
        Ok(())
    }
}

/// The single-threaded reference: `steps` steps of `script` on a plain
/// owned session over the shared [`engine`] — no service, no workers.
pub fn replay_owned(
    config: &EngineConfig,
    steps: usize,
    script: impl Fn(usize, &[GroupId], usize) -> Option<Verb>,
) -> Trajectory {
    replay_owned_on(engine(), config, steps, script)
}

/// [`replay_owned`] over the given engine.
pub fn replay_owned_on(
    engine: Arc<Vexus>,
    config: &EngineConfig,
    steps: usize,
    script: impl Fn(usize, &[GroupId], usize) -> Option<Verb>,
) -> Trajectory {
    let mut session = OwnedSession::open_with(engine, config.clone()).expect("session opens");
    let mut replay = Replay::new(session.display().to_vec());
    replay
        .run(steps, script, |verb| match *verb {
            Verb::Click(g) => session.click(g).map(<[GroupId]>::to_vec),
            Verb::Backtrack(to) => session.backtrack(to).map(<[GroupId]>::to_vec),
        })
        .expect("scripted verb");
    replay.traj
}

/// One scripted verb against a served session.
pub fn apply_served(
    svc: &ExplorationService,
    id: SessionId,
    verb: &Verb,
) -> Result<Vec<GroupId>, ServeError> {
    match *verb {
        Verb::Click(g) => svc.click(id, g),
        Verb::Backtrack(to) => svc.backtrack(id, to),
    }
}

/// `steps` steps of `script` on the served session `id`, tolerating a
/// failure: returns the trajectory up to, and the error of, the first
/// verb the service refused.
pub fn replay_served(
    svc: &ExplorationService,
    id: SessionId,
    opening: Vec<GroupId>,
    steps: usize,
    script: impl Fn(usize, &[GroupId], usize) -> Option<Verb>,
) -> (Trajectory, Option<ServeError>) {
    let mut replay = Replay::new(opening);
    let error = replay
        .run(steps, script, |verb| apply_served(svc, id, verb))
        .err();
    (replay.traj, error)
}

/// Push `actions` through a channel stream into the live engine's buffer.
pub fn feed(live: &LiveEngine, actions: &[Action]) {
    let (tx, mut rx) = ChannelStream::with_capacity(actions.len().max(1));
    for &a in actions {
        assert!(tx.send(a));
    }
    drop(tx);
    live.ingest(&mut rx, usize::MAX).expect("live ingests");
}

/// One streaming workload plus its uninterrupted reference: the snapshot
/// bytes of the published engine at every epoch. The reference does not
/// depend on any durability knob (durability does not change engine
/// bytes), so one serves a whole crash or fault matrix.
pub struct StreamWorkload {
    pub base: UserData,
    tape: Vec<Action>,
    chunk: usize,
    /// `snapshots[e]` = `write_snapshot()` of the engine at epoch `e`.
    pub snapshots: Vec<Vec<u8>>,
}

impl StreamWorkload {
    /// The tiny dataset with its first `warmup` actions in the base and
    /// the rest streamed as `n_chunks` refreshes.
    pub fn new(warmup: usize, n_chunks: usize) -> Self {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let (mut base, tape) = ds.data.split_actions();
        base.append_actions(&tape[..warmup]);
        let tape = tape[warmup..].to_vec();
        let chunk = tape.len().div_ceil(n_chunks);
        let live = LiveEngine::bootstrap(base.clone(), stream_config()).expect("reference");
        let mut snapshots = vec![live.engine().write_snapshot()];
        for c in tape.chunks(chunk) {
            feed(&live, c);
            live.refresh().expect("reference refresh");
            snapshots.push(live.engine().write_snapshot());
        }
        Self {
            base,
            tape,
            chunk,
            snapshots,
        }
    }

    /// The streamed chunks, one per refresh.
    pub fn chunks(&self) -> std::slice::Chunks<'_, Action> {
        self.tape.chunks(self.chunk)
    }

    pub fn epochs(&self) -> usize {
        self.snapshots.len() - 1
    }
}

/// A fresh, collision-free scratch directory for one durable scenario,
/// removed again when the value drops — on a failing test too.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Reserves the path without creating it (a durable bootstrap creates
    /// its own directory).
    pub fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("vexus-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The users whose transaction carries every token of `description`,
/// found by scanning every transaction.
pub fn carriers(db: &TransactionDb, description: &[TokenId]) -> Vec<u32> {
    (0..db.n_transactions() as u32)
        .filter(|&u| {
            let tx = db.transaction(u);
            description.iter().all(|t| tx.binary_search(t).is_ok())
        })
        .collect()
}

/// The tokens every one of `members` carries (none for no members): the
/// closure of a member set.
pub fn common_tokens(db: &TransactionDb, members: &[u32]) -> Vec<TokenId> {
    let Some((&first, rest)) = members.split_first() else {
        return Vec::new();
    };
    let carried_by_all = |t: &TokenId| {
        rest.iter()
            .all(|&u| db.transaction(u).binary_search(t).is_ok())
    };
    db.transaction(first)
        .iter()
        .copied()
        .filter(carried_by_all)
        .collect()
}
