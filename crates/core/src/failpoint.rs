//! The fail-point sites of the serving stack, compiled into every build.
//!
//! Production code calls [`hit_key`] at each named site, keyed as the
//! catalog below says; the seeded registry lives in
//! [`vexus_data::failpoint`] and is re-exported here. While no
//! [`FailScenario`] arms a site the call is one relaxed atomic load.
//! Sites either return an injected typed error (`FailAction::Error` ⇒
//! `hit_key` returns `true`) or panic at the site (`FailAction::Panic`)
//! to exercise the `catch_unwind` quarantine path.
//!
//! Site catalog (see README "Robustness"):
//!
//! | site            | key          | effect when fired (Error action)              |
//! |-----------------|--------------|-----------------------------------------------|
//! | `serve.open`    | session id   | open rejected with `ServeError::Injected`     |
//! | `serve.step`    | session id   | verb fails with `ServeError::Injected`        |
//! | `snapshot.load` | 0            | `Vexus::from_snapshot` reports `Malformed`    |
//! | `cache.shard`   | shard index  | neighbor insert skipped (permanent cache miss)|
//! | `ingest.apply`  | epoch        | refresh fails with `CoreError::Injected` before
//!   any state mutation; a `Panic` action halts the live state while the old
//!   epoch stays published and serving                                          |
//! | `wal.append`    | epoch        | refresh fails with `CoreError::Injected` before
//!   the frame is staged; nothing reaches the log, the pending delta stays
//!   buffered, and a plain retry succeeds                                       |
//! | `wal.sync`      | epoch        | the staged frame is rolled back to the last
//!   committed byte and the refresh fails with `CoreError::Injected`; a retry
//!   appends the frame once (no duplicates)                                     |
//! | `checkpoint.write` | watermark | the checkpoint phase reports
//!   `CheckpointOutcome::Failed` while the refresh itself still succeeds (the
//!   epoch already published); the WAL is retained and the next refresh
//!   retries the checkpoint                                                     |
//! | `wal.create`    | 0            | creating a WAL segment fails with an I/O
//!   error after its header is written; the file is removed, so a rotation
//!   reports `CheckpointOutcome::Failed` and the log stays on its old segment |
//! | `recover.replay` | frame epoch | `LiveEngine::recover` fails with
//!   `CoreError::Injected` mid-replay; the durable directory is untouched and
//!   a retry without the scenario recovers fully                                |

/// Injected fault at session open.
pub const SERVE_OPEN: &str = "serve.open";
/// Injected fault inside verb execution (under the quarantine guard).
pub const SERVE_STEP: &str = "serve.step";
/// Injected fault while decoding an engine snapshot.
pub const SNAPSHOT_LOAD: &str = "snapshot.load";
/// Injected fault at the head of a live refresh (before any mutation).
pub const INGEST_APPLY: &str = "ingest.apply";
/// Injected fault before a WAL frame is staged (keyed by delta epoch).
pub const WAL_APPEND: &str = "wal.append";
/// Injected fault at WAL commit time: the staged frame is rolled back
/// (keyed by delta epoch).
pub const WAL_SYNC: &str = "wal.sync";
/// Injected fault inside the checkpoint phase (keyed by watermark).
pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
/// Injected I/O error after a new WAL segment's header is written (key 0).
pub const WAL_CREATE: &str = "wal.create";
/// Injected fault while replaying a WAL frame during recovery (keyed by
/// the frame's epoch).
pub const RECOVER_REPLAY: &str = "recover.replay";

pub use vexus_data::failpoint::{
    clear, clear_all, configure, fired, hit_key, key_selected, FailAction, FailScenario, Trigger,
};
