//! Chaos tests for the hardened serving layer, driven by the seeded
//! fail-point registry (`vexus::data::failpoint`, live in every build).
//!
//! The containment contract under test: a fault injected into one
//! session — a panic mid-verb, an injected error, a poisoned cache shard
//! — must surface as a *typed* error on that session alone, while every
//! other session replays byte-identical to a single-threaded reference.
//! Fault selection is a seeded hash of the session id, so each case
//! knows its faulted set up front, independent of thread interleaving.
//!
//! Every test holds a [`fp::FailScenario`] from its first statement to
//! its last: scenarios hold a process-wide lock, so these tests serialize
//! against each other instead of fighting over the global registry, and
//! no unfaulted phase of one test (a reference replay, a clean refresh, a
//! recovery) can run into a fault another test has armed. Mid-test the
//! registry is emptied with `fp::clear_all`, not by releasing the lock.
//! (Arming a site outside a scenario panics.)

mod common;

use common::{
    config, engine, feed, replay_owned, replay_served, stream_config, ScratchDir, StreamWorkload,
    Trajectory, Verb,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use vexus::core::failpoint as fp;
use vexus::core::{
    CheckpointOutcome, CoreError, DurabilityConfig, ExplorationService, LiveEngine, ServeError,
    SessionId, SnapshotError, Vexus,
};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::{wal as walio, Action};
use vexus::mining::GroupId;

const SESSIONS: usize = 12;
const STEPS: usize = 5;

/// Session `i`'s script, a function of its own display only — the same
/// script the single-threaded reference replays.
fn script(i: usize) -> impl Fn(usize, &[GroupId], usize) -> Option<Verb> {
    move |step, display, _| {
        if step == 3 {
            Some(Verb::Backtrack(1))
        } else if display.is_empty() {
            None
        } else {
            Some(Verb::Click(display[(i + step) % display.len()]))
        }
    }
}

/// Session `i`'s exact display trajectory, single-threaded, no service.
fn reference(i: usize) -> Trajectory {
    replay_owned(&config(), STEPS, script(i))
}

/// Run the script for every session concurrently against `svc`,
/// tolerating per-session errors. Returns each session's trajectory and
/// the first error that stopped it.
fn run_concurrent(
    svc: &ExplorationService,
    opened: &[(SessionId, Vec<GroupId>)],
) -> Vec<(Trajectory, Option<ServeError>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .iter()
            .enumerate()
            .map(|(i, (id, opening))| {
                scope.spawn(move || replay_served(svc, *id, opening.clone(), STEPS, script(i)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    })
}

/// Install a silent panic hook for a closure whose injected panics are
/// all caught downstream; restores the previous hook afterwards.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

#[test]
fn survivors_replay_byte_identical_under_seeded_panics() {
    let _scenario = fp::FailScenario::setup();
    let engine = engine();
    let refs: Vec<_> = (0..SESSIONS).map(reference).collect();
    let fault_p = 0.4;
    let mut total_faulted = 0usize;
    let mut total_survived = 0usize;
    for seed in [1u64, 7, 42] {
        fp::configure(
            fp::SERVE_STEP,
            fp::Trigger::KeyProb { p: fault_p, seed },
            fp::FailAction::Panic,
        );
        let svc = ExplorationService::new(Arc::clone(&engine));
        let opened: Vec<_> = (0..SESSIONS)
            .map(|_| svc.open_with(config()).expect("session opens"))
            .collect();
        let outcomes = quiet_panics(|| run_concurrent(&svc, &opened));
        fp::clear_all();
        let mut faulted = 0usize;
        for (i, (traj, error)) in outcomes.iter().enumerate() {
            let id = opened[i].0;
            if fp::key_selected(seed, fault_p, id.0) {
                faulted += 1;
                // Targeted sessions die on their first verb, typed, and
                // stay quarantined for every later verb.
                assert_eq!(
                    *error,
                    Some(ServeError::SessionPoisoned(id.0)),
                    "seed {seed}"
                );
                assert_eq!(traj.len(), 1, "quarantined before any step landed");
                assert_eq!(
                    svc.display(id).unwrap_err(),
                    ServeError::SessionPoisoned(id.0)
                );
            } else {
                total_survived += 1;
                assert_eq!(*error, None, "survivor errored (seed {seed})");
                assert_eq!(
                    traj, &refs[i],
                    "survivor diverged (seed {seed}, session {i})"
                );
            }
        }
        assert_eq!(svc.stats().quarantines as usize, faulted);
        assert_eq!(svc.len(), SESSIONS, "quarantined slots stay accounted");
        total_faulted += faulted;
    }
    // The matrix must actually exercise both sides of the contract.
    assert!(total_faulted > 0, "no session ever targeted");
    assert!(total_survived > 0, "no session ever survived");
}

#[test]
fn injected_step_and_open_errors_are_typed_and_stateless() {
    let _scenario = fp::FailScenario::setup();
    let svc = ExplorationService::new(engine());
    let (id, display) = svc.open_with(config()).expect("session opens");
    // Error-action step faults: typed, no quarantine, no state change.
    fp::configure(fp::SERVE_STEP, fp::Trigger::Always, fp::FailAction::Error);
    assert_eq!(
        svc.click(id, display[0]).unwrap_err(),
        ServeError::Injected(fp::SERVE_STEP)
    );
    fp::clear(fp::SERVE_STEP);
    assert_eq!(svc.stats().quarantines, 0);
    assert_eq!(svc.display(id).unwrap(), display, "state untouched");
    svc.click(id, display[0]).expect("works once cleared");
    // Open faults: typed rejection, counted, nothing inserted.
    fp::configure(fp::SERVE_OPEN, fp::Trigger::Always, fp::FailAction::Error);
    let before = svc.stats();
    assert_eq!(
        svc.open_with(config()).unwrap_err(),
        ServeError::Injected(fp::SERVE_OPEN)
    );
    assert_eq!(svc.stats().rejections, before.rejections + 1);
    assert_eq!(svc.len(), 1);
    fp::clear_all();
    svc.open_with(config()).expect("opens once cleared");
}

#[test]
fn poisoned_cache_shards_recover_as_misses() {
    let _scenario = fp::FailScenario::setup();
    let engine = engine();
    let cache = engine.neighbor_cache().expect("engine built with a cache");
    fp::configure("cache.shard", fp::Trigger::Always, fp::FailAction::Panic);
    let sample: Vec<GroupId> = engine.groups().ids().take(8).collect();
    let before = cache.stats();
    // Every insert panics inside the shard lock, poisoning the shard;
    // the panic escapes the cache (no session in the way here).
    quiet_panics(|| {
        for &g in &sample {
            let r = catch_unwind(AssertUnwindSafe(|| {
                cache.neighbors(engine.index(), engine.groups(), g, 5)
            }));
            assert!(r.is_err(), "panic-action fail point fired");
        }
    });
    fp::clear_all();
    // Post-storm: every poisoned shard recovers as a miss — answers stay
    // byte-identical to the direct index query, nothing panics.
    for &g in &sample {
        let direct = engine.index().neighbors(engine.groups(), g, 5);
        let got = cache.neighbors(engine.index(), engine.groups(), g, 5);
        assert_eq!(&got[..], &direct[..]);
    }
    let after = cache.stats();
    assert!(after.recoveries > before.recoveries, "recoveries counted");
    // And the shards cache normally again: a repeat sweep is all hits.
    for &g in &sample {
        cache.neighbors(engine.index(), engine.groups(), g, 5);
    }
    assert_eq!(cache.stats().hits - after.hits, sample.len() as u64);
}

/// The live-refresh containment contract: an `ingest.apply` fault with
/// the `Error` action is typed and retryable (fires before any state
/// mutation), while a `Panic` action halts the live ingestion side — and
/// in both cases the previously published epoch keeps serving, in-flight
/// sessions and new opens alike.
#[test]
fn refresh_faults_leave_the_published_epoch_serving() {
    let _scenario = fp::FailScenario::setup();
    use vexus::core::{ExplorationService as Svc, Request, Response};
    use vexus::data::stream::ChannelStream;

    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let (mut base, tape) = ds.data.split_actions();
    base.append_actions(&tape[..300]);
    let live = Arc::new(LiveEngine::bootstrap(base, stream_config()).expect("bootstrap"));
    let svc = Svc::live(Arc::clone(&live));
    let (pinned, display0) = svc.open().expect("session opens");

    let feed = |range: std::ops::Range<usize>| {
        let (tx, mut rx) = ChannelStream::with_capacity(range.len());
        for &a in &tape[range] {
            assert!(tx.send(a));
        }
        drop(tx);
        svc.ingest(&mut rx, usize::MAX)
            .expect("live service ingests")
    };
    feed(300..600);
    let buffered = live.pending().expect("live state intact");

    // Error action: typed, counted as no refresh, and fully retryable —
    // the fault fires before the buffer is even cut.
    fp::configure(fp::INGEST_APPLY, fp::Trigger::Always, fp::FailAction::Error);
    assert_eq!(
        svc.refresh().unwrap_err(),
        ServeError::Core(CoreError::Injected(fp::INGEST_APPLY))
    );
    assert_eq!(svc.stats().epoch, 0);
    assert_eq!(svc.stats().refreshes, 0);
    assert_eq!(
        live.pending().expect("still live"),
        buffered,
        "nothing consumed"
    );
    fp::clear(fp::INGEST_APPLY);
    let outcome = svc.refresh().expect("retry succeeds after clearing");
    assert!(outcome.advanced);
    assert_eq!(svc.stats().epoch, 1);
    let epoch1 = svc.engine();

    // Panic action: the refresh is caught mid-apply, the live side halts,
    // and epoch 1 stays published and serving.
    feed(600..tape.len());
    fp::configure(fp::INGEST_APPLY, fp::Trigger::Always, fp::FailAction::Panic);
    let err = quiet_panics(|| svc.refresh()).unwrap_err();
    assert!(
        matches!(err, ServeError::Core(CoreError::Halted(_))),
        "got {err}"
    );
    fp::clear_all();
    assert!(!live.is_live(), "live ingestion halted");
    assert!(live.halt_cause().is_some(), "halt cause surfaced");
    assert!(svc.stats().halted, "halt surfaced in service stats");
    assert_eq!(svc.stats().epoch, 1, "published epoch untouched");
    assert!(Arc::ptr_eq(&svc.engine(), &epoch1));
    // Subsequent refreshes stay typed…
    assert!(matches!(
        svc.handle(Request::Refresh).unwrap_err(),
        ServeError::Core(CoreError::Halted(_))
    ));
    // …while serving is unaffected: the pre-fault session replays its
    // pinned epoch and new opens land on epoch 1.
    assert_eq!(
        svc.display(pinned).expect("pinned session serves"),
        display0
    );
    svc.click(pinned, display0[0])
        .expect("pinned session steps");
    match svc.handle(Request::Open).expect("new opens still served") {
        Response::Opened { display, .. } => assert!(!display.is_empty()),
        other => panic!("expected Opened, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Durable-path chaos: faults injected into the WAL, checkpoint, and
// recovery phases of the durable live engine.
// ---------------------------------------------------------------------------

/// Durable files in `dir` with the given extension, sorted by name
/// (zero-padded stamps, so name order is stamp order).
fn durable_files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("durable dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    v.sort();
    v
}

/// The durable chaos workload: a warmed base, the remaining tape split
/// into four chunks, and the uninterrupted run's snapshot bytes at every
/// epoch (one reference serves every fault matrix below).
fn fixture() -> &'static StreamWorkload {
    static F: OnceLock<StreamWorkload> = OnceLock::new();
    F.get_or_init(|| StreamWorkload::new(300, 4))
}

/// The WAL/checkpoint fault matrix with the `Error` action: `wal.append`
/// and `wal.sync` faults are typed and retryable with no duplicate or
/// partial frames (rollback restores the committed length), a
/// `checkpoint.write` fault degrades the refresh to
/// [`CheckpointOutcome::Failed`] without failing it — the cadence counter
/// keeps the checkpoint due, so the next refresh retries — and recovery
/// from the surviving files is byte-identical.
#[test]
fn durable_refresh_faults_are_typed_retryable_and_lose_nothing() {
    let _scenario = fp::FailScenario::setup();
    let f = fixture();
    let dir = ScratchDir::new("chaos-wal-faults");
    let durability = DurabilityConfig {
        checkpoint_every: 2,
        ..DurabilityConfig::new(dir.path())
    };
    let live = LiveEngine::bootstrap_durable(f.base.clone(), stream_config(), durability.clone())
        .expect("durable bootstrap");
    let chunks: Vec<&[Action]> = f.chunks().collect();

    // wal.append, Error action: fires before any byte is staged. Typed,
    // nothing consumed, the segment is untouched.
    feed(&live, chunks[0]);
    let buffered = live.pending().expect("live");
    fp::configure(fp::WAL_APPEND, fp::Trigger::Always, fp::FailAction::Error);
    assert_eq!(
        live.refresh().unwrap_err(),
        CoreError::Injected(fp::WAL_APPEND)
    );
    assert_eq!(live.pending().expect("live"), buffered);
    let seg0 = durable_files(dir.path(), "vxwl").remove(0);
    assert_eq!(walio::read_wal(&seg0).expect("scan").frames.len(), 0);
    fp::clear(fp::WAL_APPEND);

    // wal.sync, Error action under bounded retry: every attempt stages
    // and rolls back; the attempt budget is a hard cap; the committed
    // prefix of the segment never grows.
    fp::configure(fp::WAL_SYNC, fp::Trigger::Always, fp::FailAction::Error);
    assert_eq!(
        live.refresh_with_retry(3).unwrap_err(),
        CoreError::Injected(fp::WAL_SYNC)
    );
    assert_eq!(live.pending().expect("live"), buffered, "nothing consumed");
    let scan = walio::read_wal(&seg0).expect("scan");
    assert_eq!(scan.frames.len(), 0, "rolled-back frames never commit");
    assert_eq!(scan.tail, vexus::data::WalTail::Clean);
    fp::clear(fp::WAL_SYNC);

    // Cleared: the retry lands exactly one frame — no duplicates from
    // the three failed attempts — and the engine matches the reference.
    let out = live.refresh_with_retry(3).expect("retry succeeds");
    assert!(out.advanced && out.wal_appended && out.wal_bytes > 0);
    assert_eq!(walio::read_wal(&seg0).expect("scan").frames.len(), 1);
    assert!(live.engine().write_snapshot() == f.snapshots[1]);

    // checkpoint.write, Error action: the refresh itself succeeds (the
    // epoch is already published), the checkpoint reports Failed, and no
    // checkpoint file lands.
    feed(&live, chunks[1]);
    fp::configure(
        fp::CHECKPOINT_WRITE,
        fp::Trigger::Always,
        fp::FailAction::Error,
    );
    let out = live.refresh().expect("refresh survives checkpoint fault");
    assert!(out.advanced);
    assert_eq!(out.checkpoint, CheckpointOutcome::Failed);
    assert!(live.is_live());
    assert_eq!(durable_files(dir.path(), "vxck").len(), 1, "only ckpt-0");

    // checkpoint.write, Panic action: contained by the checkpoint phase's
    // own isolation — Failed, not a halt.
    feed(&live, chunks[2]);
    fp::configure(
        fp::CHECKPOINT_WRITE,
        fp::Trigger::Always,
        fp::FailAction::Panic,
    );
    let out = quiet_panics(|| live.refresh()).expect("refresh survives checkpoint panic");
    assert_eq!(out.checkpoint, CheckpointOutcome::Failed);
    assert!(live.is_live(), "a checkpoint panic must not halt ingestion");
    fp::clear(fp::CHECKPOINT_WRITE);

    // Cleared: the still-due checkpoint lands at the next refresh, the
    // WAL rotates, and crash recovery from this directory is
    // byte-identical to the uninterrupted run.
    feed(&live, chunks[3]);
    let out = live.refresh().expect("refresh");
    assert_eq!(out.checkpoint, CheckpointOutcome::Written);
    assert_eq!(
        durable_files(dir.path(), "vxck").len(),
        2,
        "ckpt-0 and ckpt-4"
    );
    assert!(live.engine().write_snapshot() == f.snapshots[4]);
    fp::clear_all();
    drop(live);
    let (recovered, report) =
        LiveEngine::recover(f.base.clone(), stream_config(), durability).expect("recover");
    assert_eq!(report.final_epoch, 4);
    assert_eq!(report.checkpoint_watermark, 4);
    assert!(recovered.engine().write_snapshot() == f.snapshots[4]);
}

/// The kill-during-WAL matrix: a panic injected at `wal.append` or
/// `wal.sync` halts live ingestion with a typed cause while the old epoch
/// keeps serving — and [`LiveEngine::recover`] is the documented path
/// back, restoring byte-identity and resuming the stream.
#[test]
fn kill_during_the_wal_phase_halts_then_recovery_restores_equivalence() {
    let _scenario = fp::FailScenario::setup();
    let f = fixture();
    let chunks: Vec<&[Action]> = f.chunks().collect();
    for site in [fp::WAL_APPEND, fp::WAL_SYNC] {
        let dir = ScratchDir::new(&format!("chaos-kill-{}", site.replace('.', "-")));
        let durability = DurabilityConfig {
            checkpoint_every: 2,
            ..DurabilityConfig::new(dir.path())
        };
        let live =
            LiveEngine::bootstrap_durable(f.base.clone(), stream_config(), durability.clone())
                .expect("durable bootstrap");
        feed(&live, chunks[0]);
        live.refresh().expect("clean first refresh");
        feed(&live, chunks[1]);
        fp::configure(site, fp::Trigger::Always, fp::FailAction::Panic);
        let err = quiet_panics(|| live.refresh()).unwrap_err();
        assert!(matches!(err, CoreError::Halted(_)), "{site}: got {err}");
        fp::clear_all();
        assert!(!live.is_live(), "{site}: ingestion halted");
        assert!(live.halt_cause().is_some(), "{site}: cause surfaced");
        assert_eq!(live.epoch(), 1, "{site}: old epoch still published");
        assert!(live.engine().write_snapshot() == f.snapshots[1]);
        drop(live);

        let (recovered, report) =
            LiveEngine::recover(f.base.clone(), stream_config(), durability).expect("recover");
        let e = report.final_epoch as usize;
        if site == fp::WAL_APPEND {
            // The panic fired before any byte was staged: the frame is gone.
            assert_eq!(e, 1, "{site}");
        } else {
            // The panic fired between staging and fsync: the frame either
            // survived whole (recovery replays it) or tore (truncated).
            // Both are valid crash outcomes — never anything in between.
            assert!(e == 1 || e == 2, "{site}: epoch {e}");
        }
        assert_eq!(report.halted, None, "{site}");
        assert!(recovered.engine().write_snapshot() == f.snapshots[e]);
        // Chunks lost with the in-memory buffer replay from the source
        // tape; the stream finishes byte-identical.
        for c in &chunks[e..] {
            feed(&recovered, c);
            recovered.refresh().expect("post-recovery refresh");
        }
        assert!(recovered.engine().write_snapshot() == *f.snapshots.last().unwrap());
    }
}

/// A fault injected at `recover.replay` fails recovery with a typed
/// error; the directory is untouched, so retrying without the fault
/// succeeds and replays every frame.
#[test]
fn injected_replay_faults_fail_recovery_typed_then_retry_cleanly() {
    let _scenario = fp::FailScenario::setup();
    let f = fixture();
    let chunks: Vec<&[Action]> = f.chunks().collect();
    let dir = ScratchDir::new("chaos-replay-fault");
    let durability = DurabilityConfig {
        checkpoint_every: 64, // never: recovery must replay from the WAL
        ..DurabilityConfig::new(dir.path())
    };
    let live = LiveEngine::bootstrap_durable(f.base.clone(), stream_config(), durability.clone())
        .expect("durable bootstrap");
    for c in &chunks[..2] {
        feed(&live, c);
        live.refresh().expect("durable refresh");
    }
    drop(live);
    fp::configure(
        fp::RECOVER_REPLAY,
        fp::Trigger::Always,
        fp::FailAction::Error,
    );
    assert_eq!(
        LiveEngine::recover(f.base.clone(), stream_config(), durability.clone()).unwrap_err(),
        CoreError::Injected(fp::RECOVER_REPLAY)
    );
    fp::clear_all();
    let (recovered, report) =
        LiveEngine::recover(f.base.clone(), stream_config(), durability).expect("retry recovers");
    assert_eq!(report.frames_replayed, 2);
    assert_eq!(report.final_epoch, 2);
    assert!(recovered.engine().write_snapshot() == f.snapshots[2]);
}

#[test]
fn injected_snapshot_faults_fail_typed_then_load_cleanly() {
    let _scenario = fp::FailScenario::setup();
    let engine = engine();
    let buf = engine.write_snapshot();
    fp::configure(
        fp::SNAPSHOT_LOAD,
        fp::Trigger::Always,
        fp::FailAction::Error,
    );
    match Vexus::from_snapshot(engine.data().clone(), &buf, config()) {
        Err(CoreError::Snapshot(SnapshotError::Malformed { .. })) => {}
        Err(other) => panic!("expected a Malformed snapshot error, got {other}"),
        Ok(_) => panic!("injected snapshot fault did not fire"),
    }
    fp::clear_all();
    // The exact same buffer loads once the registry is clear.
    let loaded = Vexus::from_snapshot(engine.data().clone(), &buf, config()).expect("loads");
    assert_eq!(loaded.groups(), engine.groups());
}
