//! Durability for the live engine: checkpoint files, the on-disk layout,
//! the retention policy, and the only code that touches the directory.
//!
//! Every file-system operation on a durable directory lives here: the
//! writer `DurableSink` (start, log, checkpoint, resume) and the recovery
//! scan `load`. `live.rs` keeps epochs, publication, halting and the
//! replay loop, and makes no file-system call.
//!
//! A durable live engine directory holds exactly two kinds of files, both
//! named by the epoch they start at (zero-padded so lexicographic order is
//! numeric order):
//!
//! * `ckpt-<watermark>.vxck` — a full checkpoint: the published engine's
//!   snapshot sections, the stream-miner state, and the action tape
//!   appended since bootstrap, all behind one checkpoint META section. The
//!   watermark is the published epoch the checkpoint captures; every WAL
//!   frame stamped below it is already folded in.
//! * `wal-<first_epoch>.vxwl` — a write-ahead-log segment (see
//!   [`vexus_data::wal`]). Each refresh appends its delta as one frame
//!   *before* applying it; a checkpoint rotates to a fresh segment named
//!   by the new watermark.
//!
//! Checkpoint sections use tags `0x78`–`0x79` (the tag table is in
//! [`vexus_data::snapshot`]).
//!
//! Checkpoints are written atomically (temp file, fsync, rename, directory
//! fsync), so a crash at any byte leaves either the old file set or the
//! new one — never a half-written checkpoint under a final name. A WAL
//! segment's directory entry is fsynced when the segment is created
//! ([`vexus_data::WalWriter::create`]), before any frame can be
//! acknowledged from it. A segment is created in the step that switches
//! the log to it, and retention runs after, so a segment named `W` holds no
//! frame below `W`. The retention policy keeps the newest
//! [`DurabilityConfig::retain`] checkpoints and every WAL segment any
//! retained checkpoint still needs; because WAL frames are only dropped by
//! whole-segment deletion *after* a newer checkpoint is durable, a crash
//! between the snapshot landing and the prune is safe — recovery simply
//! skips frames at or below the watermark it loads.

use crate::config::EngineConfig;
use crate::engine::{BuildStats, Vexus};
use crate::error::CoreError;
use crate::failpoint;
use crate::snapshot::{decode_engine_sections, encode_engine_sections};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use vexus_data::snapshot::{join_u64, split_u64};
use vexus_data::wal::{action_words, actions_from_words, read_wal, WalFrame};
use vexus_data::{
    Action, SnapshotError, SnapshotReader, SnapshotWriter, UserData, WalError, WalSync, WalTail,
    WalWriter,
};
use vexus_mining::snapshot::{decode_stream_state, encode_stream_state};
use vexus_mining::{DeltaDiscovery, DiscoverySelection, StreamFimConfig};

/// Checkpoint META: `[format_version, watermark_lo, watermark_hi,
/// n_base_actions, n_appended, support_bits_lo, support_bits_hi,
/// epsilon_bits_lo, epsilon_bits_hi, max_len, min_group_size]`. The
/// discovery fingerprint (support/epsilon/max_len/min_group_size) is
/// cross-checked at recovery so a checkpoint replayed under a different
/// mining configuration fails loudly instead of silently diverging from
/// the uninterrupted run.
pub const TAG_CKPT_META: u32 = 0x78;
/// The action tape appended since bootstrap (post-filter, exactly the
/// actions the dataset absorbed), as `[user, item, value_bits]` triples.
pub const TAG_CKPT_ACTIONS: u32 = 0x79;

const CKPT_FORMAT_VERSION: u32 = 1;
const CKPT_META_WORDS: usize = 11;

const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".vxck";
const WAL_PREFIX: &str = "wal-";
const WAL_SUFFIX: &str = ".vxwl";
/// [`write_atomic`]'s temp file: `ckpt-<watermark>.tmp`.
const TMP_SUFFIX: &str = ".tmp";

/// Where and how often a durable live engine checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the checkpoint and WAL files.
    pub dir: PathBuf,
    /// Write a checkpoint every this many advancing refreshes (`0` means
    /// never — the WAL grows unbounded and recovery replays everything).
    pub checkpoint_every: u64,
    /// Checkpoints to keep on disk. At least one older checkpoint is
    /// worth retaining: recovery falls back to it when the newest file is
    /// corrupt.
    pub retain: usize,
}

impl DurabilityConfig {
    /// Defaults: checkpoint every 8 refreshes, retain 2.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 8,
            retain: 2,
        }
    }
}

/// What the checkpoint phase of one refresh did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// The cadence has not elapsed (or the engine is not durable).
    #[default]
    NotDue,
    /// A checkpoint landed and the retention policy ran.
    Written,
    /// The checkpoint failed (injected fault, I/O error, or a panic in
    /// the checkpoint phase). The refresh itself still succeeded — the
    /// epoch was already published — and the WAL keeps every frame, so
    /// nothing is lost: the next refresh retries the checkpoint. The log
    /// is on the new segment if and only if that segment exists.
    Failed,
}

/// What [`crate::LiveEngine::recover`] reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Watermark of the checkpoint recovery loaded.
    pub checkpoint_watermark: u64,
    /// Newer checkpoint files that failed to decode and were discarded,
    /// which recovery only does when the log reaches their epochs.
    pub checkpoints_skipped: usize,
    /// WAL frames replayed through the normal ingest/refresh path.
    pub frames_replayed: usize,
    /// Frames at or below the watermark (already inside the checkpoint).
    pub frames_skipped: usize,
    /// Whether any segment ended in a torn tail (crash mid-append); the
    /// torn bytes were unreachable and are truncated on reopen.
    pub torn_tail: bool,
    /// The epoch the recovered engine serves.
    pub final_epoch: u64,
    /// `Some(cause)` when replay re-hit the halt the uninterrupted run
    /// died on (e.g. an empty epoch group space): the engine serves the
    /// last good epoch but refuses ingestion, exactly like the original.
    pub halted: Option<&'static str>,
}

/// What a durable live engine's sink has done since the engine was
/// bootstrapped or recovered, read with [`crate::LiveEngine::durable_counts`].
/// The bootstrap checkpoint and the frames recovery replays are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableCounts {
    /// Deltas committed to the write-ahead log before they were applied.
    pub wal_frames: u64,
    /// Checkpoints written by the cadence policy.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (the refresh itself succeeded; the
    /// WAL keeps every frame and the next refresh retries).
    pub checkpoint_failures: u64,
}

/// The live engine's writer on its durable directory: the open WAL
/// segment, the checkpoint cadence and the counts.
pub(crate) struct DurableSink {
    config: DurabilityConfig,
    /// The segment the log appends to; `None` only inside
    /// [`DurableSink::start`], before its rotation.
    wal: Option<WalWriter>,
    /// Actions in the bootstrap dataset (the tape before the live phase);
    /// checkpoints store only what came after.
    n_base_actions: usize,
    /// Advancing refreshes since the last durable checkpoint.
    since_checkpoint: u64,
    /// What the sink has done (see [`DurableCounts`]).
    pub counts: DurableCounts,
}

impl DurableSink {
    fn new(config: DurabilityConfig, n_base_actions: usize, since_checkpoint: u64) -> Self {
        DurableSink {
            config,
            wal: None,
            n_base_actions,
            since_checkpoint,
            counts: DurableCounts::default(),
        }
    }

    /// Make a bootstrapped engine durable: create the directory, refuse
    /// one that already holds checkpoints or segments, rotate at 0.
    pub(crate) fn start(
        config: DurabilityConfig,
        engine: &Vexus,
        discovery: &DeltaDiscovery,
        n_base_actions: usize,
    ) -> Result<Self, CoreError> {
        fs::create_dir_all(&config.dir).map_err(io_core("create durable dir"))?;
        if !list_checkpoints(&config.dir)?.is_empty() || !list_segments(&config.dir)?.is_empty() {
            return Err(CoreError::Recovery(
                "durable directory already holds engine state; use LiveEngine::recover",
            ));
        }
        let mut sink = Self::new(config, n_base_actions, 0);
        sink.rotate(engine, discovery, 0)?;
        Ok(sink)
    }

    /// Reattach the log after recovery replayed `replayed` frames above
    /// `watermark`: reopen the newest segment (truncating a torn tail), or
    /// create the watermark's when there is none.
    pub(crate) fn resume(
        config: DurabilityConfig,
        n_base_actions: usize,
        watermark: u64,
        replayed: u64,
    ) -> Result<Self, CoreError> {
        let mut sink = Self::new(config, n_base_actions, replayed);
        let dir = &sink.config.dir;
        sink.wal = Some(match list_segments(dir)?.pop() {
            Some((_, newest)) => WalWriter::open(&newest, WalSync::PerFrame)?.0,
            None => create_segment(dir, watermark)?,
        });
        Ok(sink)
    }

    /// Commit delta `epoch` before it is applied; returns its bytes. An
    /// error (the `wal.append` and `wal.sync` sites fire here) leaves the
    /// log at its last committed frame, so a retry appends it once.
    pub(crate) fn log(&mut self, epoch: u64, actions: &[Action]) -> Result<u64, CoreError> {
        let wal = self.wal.as_mut().expect("a started sink has a segment");
        if failpoint::hit_key(failpoint::WAL_APPEND, epoch) {
            return Err(CoreError::Injected(failpoint::WAL_APPEND));
        }
        wal.append(epoch, actions)?;
        if failpoint::hit_key(failpoint::WAL_SYNC, epoch) {
            wal.rollback();
            return Err(CoreError::Injected(failpoint::WAL_SYNC));
        }
        let bytes = wal.commit()?;
        self.counts.wal_frames += 1;
        Ok(bytes)
    }

    /// The checkpoint phase after epoch `watermark` was published: when
    /// due, the `checkpoint.write` site, then the rotation. Any error or
    /// panic reports [`CheckpointOutcome::Failed`] and keeps the
    /// checkpoint due; the refresh itself never fails here.
    pub(crate) fn checkpoint(
        &mut self,
        engine: &Vexus,
        discovery: &DeltaDiscovery,
        watermark: u64,
    ) -> CheckpointOutcome {
        self.since_checkpoint += 1;
        if self.config.checkpoint_every == 0 || self.since_checkpoint < self.config.checkpoint_every
        {
            return CheckpointOutcome::NotDue;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if failpoint::hit_key(failpoint::CHECKPOINT_WRITE, watermark) {
                return Err(CoreError::Injected(failpoint::CHECKPOINT_WRITE));
            }
            self.rotate(engine, discovery, watermark)
        }));
        if let Ok(Ok(())) = result {
            self.counts.checkpoints += 1;
            self.since_checkpoint = 0;
            CheckpointOutcome::Written
        } else {
            self.counts.checkpoint_failures += 1;
            CheckpointOutcome::Failed
        }
    }

    /// The only code that writes a checkpoint file (at bootstrap and on
    /// the cadence). The checkpoint lands before any WAL byte can become
    /// unreachable; the log switches to the new segment in the step that
    /// creates it; retention runs last, so its errors strand nothing.
    fn rotate(
        &mut self,
        engine: &Vexus,
        discovery: &DeltaDiscovery,
        watermark: u64,
    ) -> Result<(), CoreError> {
        let bytes = encode_checkpoint(engine, discovery, watermark, self.n_base_actions)?;
        write_atomic(&ckpt_path(&self.config.dir, watermark), &bytes)?;
        self.wal = Some(create_segment(&self.config.dir, watermark)?);
        prune(&self.config.dir, self.config.retain)
    }
}

/// The only code that creates a segment; a failed create leaves no file.
fn create_segment(dir: &Path, first_epoch: u64) -> Result<WalWriter, CoreError> {
    let path = wal_path(dir, first_epoch);
    Ok(WalWriter::create(&path, WalSync::PerFrame)?)
}

/// The recovery scan: the newest checkpoint that decodes cleanly, the
/// frames at or above its watermark (one per epoch, no gap), and the
/// report's load-side fields. A skipped checkpoint's name proves its epoch
/// was published: if the frames do not reach it, [`CoreError::Recovery`]
/// and nothing is deleted. Otherwise the corrupt files and orphans go.
pub(crate) fn load(
    durability: &DurabilityConfig,
    base: &UserData,
    config: &EngineConfig,
) -> Result<(DecodedCheckpoint, Vec<WalFrame>, RecoveryReport), CoreError> {
    let dir = &durability.dir;
    let ckpts = list_checkpoints(dir)?;
    let no_checkpoint = CoreError::Recovery("no checkpoint in the durable directory");
    let newest = ckpts.last().ok_or(no_checkpoint)?.0;
    let mut corrupt = Vec::new();
    let mut loaded = None;
    for (stamp, path) in ckpts.iter().rev() {
        let bytes = fs::read(path).map_err(io_core("checkpoint read"))?;
        match decode_checkpoint(base, &bytes, config) {
            Ok(d) if d.watermark == *stamp => {
                loaded = Some(d);
                break;
            }
            // A decoded watermark disagreeing with the file name is
            // corruption too (a renamed or cross-copied file).
            Ok(_) | Err(CoreError::Snapshot(_)) => corrupt.push(path),
            // Fingerprint/base mismatches: an older checkpoint cannot
            // help, and the file is not corrupt — keep it and fail.
            Err(e) => return Err(e),
        }
    }
    let checkpoint = loaded.ok_or(CoreError::Recovery(
        "no checkpoint in the durable directory decodes cleanly",
    ))?;
    let mut report = RecoveryReport {
        checkpoint_watermark: checkpoint.watermark,
        checkpoints_skipped: corrupt.len(),
        ..RecoveryReport::default()
    };
    let mut frames = Vec::new();
    for (_, path) in list_segments(dir)? {
        let scan = read_wal(&path)?;
        report.torn_tail |= scan.tail != WalTail::Clean;
        for frame in scan.frames {
            let expected = checkpoint.watermark + frames.len() as u64;
            if frame.epoch < expected {
                report.frames_skipped += 1;
                continue;
            }
            if frame.epoch > expected {
                return Err(CoreError::Recovery(
                    "gap in the write-ahead log: a frame needed for replay is missing",
                ));
            }
            if frame.actions.is_empty() {
                return Err(CoreError::Recovery("empty frame in the write-ahead log"));
            }
            frames.push(frame);
        }
    }
    if !corrupt.is_empty() && checkpoint.watermark + (frames.len() as u64) < newest {
        return Err(CoreError::Recovery(
            "the write-ahead log does not reach a published checkpoint that failed to decode",
        ));
    }
    for path in corrupt {
        fs::remove_file(path).map_err(io_core("corrupt checkpoint remove"))?;
    }
    remove_orphans(dir)?;
    Ok((checkpoint, frames, report))
}

fn io_core(op: &'static str) -> impl Fn(std::io::Error) -> CoreError {
    move |e| CoreError::Wal(WalError::Io { op, kind: e.kind() })
}

/// `ckpt-<watermark>.vxck`, zero-padded for lexicographic order.
pub(crate) fn ckpt_path(dir: &Path, watermark: u64) -> PathBuf {
    dir.join(format!("{CKPT_PREFIX}{watermark:020}{CKPT_SUFFIX}"))
}

/// `wal-<first_epoch>.vxwl`, zero-padded for lexicographic order.
pub(crate) fn wal_path(dir: &Path, first_epoch: u64) -> PathBuf {
    dir.join(format!("{WAL_PREFIX}{first_epoch:020}{WAL_SUFFIX}"))
}

fn parse_stamp(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let stamp = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    (stamp.len() == 20).then(|| stamp.parse().ok())?
}

fn list_stamped(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>, CoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_core("read durable dir"))? {
        let entry = entry.map_err(io_core("read durable dir"))?;
        let name = entry.file_name();
        if let Some(stamp) = name.to_str().and_then(|n| parse_stamp(n, prefix, suffix)) {
            out.push((stamp, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(stamp, _)| stamp);
    Ok(out)
}

/// Checkpoint files, ascending by watermark.
pub(crate) fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CoreError> {
    list_stamped(dir, CKPT_PREFIX, CKPT_SUFFIX)
}

/// WAL segments, ascending by first epoch.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CoreError> {
    list_stamped(dir, WAL_PREFIX, WAL_SUFFIX)
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the final name, fsync the directory. A crash at any
/// point leaves either no file or the whole file under `path`.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let dir = path
        .parent()
        .ok_or(CoreError::Recovery("durable path has no parent directory"))?;
    let tmp = path.with_extension("tmp");
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(io_core("checkpoint create"))?;
    f.write_all(bytes).map_err(io_core("checkpoint write"))?;
    f.sync_all().map_err(io_core("checkpoint sync"))?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_core("checkpoint rename"))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_core("durable dir sync"))?;
    Ok(())
}

/// Delete every orphaned checkpoint temp file. A crash or an I/O error
/// between [`write_atomic`]'s create and rename leaves one behind, and no
/// later checkpoint reuses its watermark to overwrite it.
fn remove_orphans(dir: &Path) -> Result<(), CoreError> {
    for (_, path) in list_stamped(dir, CKPT_PREFIX, TMP_SUFFIX)? {
        fs::remove_file(path).map_err(io_core("checkpoint temp prune"))?;
    }
    Ok(())
}

/// Apply the retention policy: remove orphaned temp files, keep the
/// newest `retain` checkpoints (always at least one), then delete every
/// WAL segment entirely covered by the oldest retained watermark —
/// segment `i` is covered when the *next* segment starts at or below it
/// (so every frame in `i` is below the watermark too). The newest segment
/// is never deleted.
fn prune(dir: &Path, retain: usize) -> Result<(), CoreError> {
    remove_orphans(dir)?;
    let ckpts = list_checkpoints(dir)?;
    let keep = retain.max(1);
    if ckpts.len() <= keep {
        return Ok(());
    }
    let cut = ckpts.len() - keep;
    for (_, path) in &ckpts[..cut] {
        fs::remove_file(path).map_err(io_core("checkpoint prune"))?;
    }
    let oldest_retained = ckpts[cut].0;
    let segments = list_segments(dir)?;
    for i in 0..segments.len().saturating_sub(1) {
        if segments[i + 1].0 <= oldest_retained {
            fs::remove_file(&segments[i].1).map_err(io_core("wal prune"))?;
        }
    }
    Ok(())
}

fn stream_fingerprint(config: &EngineConfig) -> Result<(StreamFimConfig, usize), CoreError> {
    let DiscoverySelection::StreamFim {
        support,
        epsilon,
        max_len,
    } = config.discovery
    else {
        return Err(CoreError::NotLive(
            "durable engines require DiscoverySelection::StreamFim",
        ));
    };
    Ok((
        StreamFimConfig {
            support,
            epsilon,
            max_len,
        },
        config.min_group_size,
    ))
}

/// Encode a checkpoint of the published engine at `watermark`: checkpoint
/// META, the appended action tape, the engine's snapshot sections
/// (unchanged bytes, same tags as a standalone snapshot), and the
/// stream-miner state.
fn encode_checkpoint(
    engine: &Vexus,
    discovery: &DeltaDiscovery,
    watermark: u64,
    n_base_actions: usize,
) -> Result<Vec<u8>, CoreError> {
    let (fim, min_group_size) = stream_fingerprint(engine.config())?;
    let appended = &engine.data().actions()[n_base_actions..];
    let mut meta = Vec::with_capacity(CKPT_META_WORDS);
    meta.push(CKPT_FORMAT_VERSION);
    meta.extend(split_u64(watermark));
    meta.push(n_base_actions as u32);
    meta.push(appended.len() as u32);
    meta.extend(split_u64(fim.support.to_bits()));
    meta.extend(split_u64(fim.epsilon.to_bits()));
    meta.push(fim.max_len as u32);
    meta.push(min_group_size as u32);
    let mut w = SnapshotWriter::new();
    w.section_words(TAG_CKPT_META, meta);
    w.section_words(TAG_CKPT_ACTIONS, action_words(appended));
    encode_engine_sections(engine, &mut w);
    encode_stream_state(discovery, &mut w);
    Ok(w.finish())
}

/// Everything [`decode_checkpoint`] reconstructs.
pub(crate) struct DecodedCheckpoint {
    /// The published engine at the watermark, ready to serve.
    pub engine: Vexus,
    /// The discovery driver, resumed observation-equivalent.
    pub discovery: DeltaDiscovery,
    /// The published epoch the checkpoint captures.
    pub watermark: u64,
}

fn ckpt_malformed(what: &'static str) -> CoreError {
    CoreError::Snapshot(SnapshotError::Malformed {
        tag: TAG_CKPT_META,
        what,
    })
}

/// Decode a checkpoint against the bootstrap dataset `base` and the
/// caller's engine configuration. Corruption surfaces as
/// [`CoreError::Snapshot`] (recovery falls back to an older checkpoint);
/// a base dataset or configuration that disagrees with the checkpoint's
/// fingerprint is [`CoreError::Recovery`] (falling back cannot help).
fn decode_checkpoint(
    base: &UserData,
    bytes: &[u8],
    config: &EngineConfig,
) -> Result<DecodedCheckpoint, CoreError> {
    let (fim, min_group_size) = stream_fingerprint(config)?;
    let r = SnapshotReader::load(bytes).map_err(CoreError::Snapshot)?;
    let meta: [u32; CKPT_META_WORDS] = r
        .meta(TAG_CKPT_META, "checkpoint META is not eleven words")
        .map_err(CoreError::Snapshot)?;
    if meta[0] != CKPT_FORMAT_VERSION {
        return Err(ckpt_malformed("unsupported checkpoint format version"));
    }
    let watermark = join_u64(meta[1], meta[2]);
    let (n_base, n_appended) = (meta[3] as usize, meta[4] as usize);
    if n_base != base.actions().len() {
        return Err(CoreError::Recovery(
            "checkpoint was written against a different bootstrap dataset",
        ));
    }
    if join_u64(meta[5], meta[6]) != fim.support.to_bits()
        || join_u64(meta[7], meta[8]) != fim.epsilon.to_bits()
        || meta[9] as usize != fim.max_len
        || meta[10] as usize != min_group_size
    {
        return Err(CoreError::Recovery(
            "checkpoint discovery fingerprint does not match the supplied configuration",
        ));
    }
    let tape = r
        .section_words(TAG_CKPT_ACTIONS)
        .map_err(CoreError::Snapshot)?;
    let appended =
        actions_from_words(TAG_CKPT_ACTIONS, tape.as_slice()).map_err(CoreError::Snapshot)?;
    if appended.len() != n_appended {
        return Err(ckpt_malformed(
            "checkpoint action tape disagrees with its META",
        ));
    }
    let mut data = base.clone();
    if data.append_actions(&appended) != appended.len() {
        return Err(CoreError::Recovery(
            "checkpoint action tape references users or items unknown to the base dataset",
        ));
    }
    let decoded = decode_engine_sections(data, &r).map_err(CoreError::Snapshot)?;
    if decoded.groups.is_empty() {
        return Err(CoreError::Recovery("checkpoint has an empty group space"));
    }
    let discovery = decode_stream_state(
        &r,
        fim,
        min_group_size,
        decoded.data.n_users(),
        decoded.vocab.len(),
        decoded.groups.clone(),
    )
    .map_err(CoreError::Snapshot)?;
    let stats = BuildStats {
        algorithm: "checkpoint",
        filtered_out: 0,
    };
    let engine = Vexus::from_live_parts(
        decoded.data,
        decoded.vocab,
        decoded.groups,
        decoded.index,
        config.new_neighbor_cache(),
        config.clone(),
        stats,
    );
    Ok(DecodedCheckpoint {
        engine,
        discovery,
        watermark,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_names_sort_and_parse() {
        let dir = Path::new("/d");
        let p = ckpt_path(dir, 42);
        assert_eq!(
            p.file_name().unwrap().to_str().unwrap(),
            "ckpt-00000000000000000042.vxck"
        );
        assert_eq!(
            parse_stamp("ckpt-00000000000000000042.vxck", CKPT_PREFIX, CKPT_SUFFIX),
            Some(42)
        );
        assert_eq!(
            parse_stamp("wal-00000000000000000007.vxwl", WAL_PREFIX, WAL_SUFFIX),
            Some(7)
        );
        // Non-durable names and malformed stamps are ignored.
        assert_eq!(parse_stamp("ckpt-7.vxck", CKPT_PREFIX, CKPT_SUFFIX), None);
        assert_eq!(parse_stamp("notes.txt", CKPT_PREFIX, CKPT_SUFFIX), None);
        assert_eq!(
            parse_stamp("ckpt-000000000000000000xx.vxck", CKPT_PREFIX, CKPT_SUFFIX),
            None
        );
        // Zero-padded names sort numerically as strings.
        let a = wal_path(dir, 9);
        let b = wal_path(dir, 10);
        assert!(a.to_str().unwrap() < b.to_str().unwrap());
    }
}
