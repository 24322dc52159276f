//! Write-ahead log for the live engine's epoch-stamped action deltas.
//!
//! A WAL segment is a flat file: an 8-byte segment header (`"VXWL"` +
//! version) followed by length-prefixed **frames**. Each frame's payload
//! is a complete [`crate::snapshot`] buffer — magic, version, section
//! table, word-wise checksum — carrying one [`crate::stream::ActionDelta`] in two
//! sections (`0x60` frame META, `0x61` packed actions). Reusing the
//! snapshot codec means every frame is *independently* validated: a torn
//! tail (partial length word, partial payload, or a payload failing any
//! snapshot check) is detected at the exact frame boundary and reported as
//! [`WalTail::Torn`] — a typed outcome, never a panic — so recovery can
//! truncate to the last whole frame and resume.
//!
//! [`WalWriter`] appends under a two-phase `append`/`commit` discipline:
//! `append` stages the frame bytes, `commit` makes them part of the log
//! (one `fdatasync`); any failure between the two rolls the file
//! back to its committed length, so a failed append can be retried without
//! duplicating frames. [`read_wal`] scans a segment into frames plus a
//! tail verdict; [`truncate_at`]/[`corrupt_byte_at`] are the torn-write
//! simulator the crash tests drive.
//!
//! Section tags `0x6x` are reserved for WAL frames (the tag table is in
//! [`crate::snapshot`]).

use crate::dataset::Action;
use crate::ids::{ItemId, UserId};
use crate::snapshot::{join_u64, split_u64, SnapshotError, SnapshotReader, SnapshotWriter};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Segment-file magic (first four bytes of every WAL segment).
pub const WAL_MAGIC: [u8; 4] = *b"VXWL";
/// Segment format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes of segment header preceding the first frame.
pub const WAL_HEADER_BYTES: u64 = 8;

/// Frame META section: `[epoch_lo, epoch_hi, n_actions]`.
pub const TAG_WAL_FRAME: u32 = 0x60;
/// Frame payload: `[user, item, value_bits]` per action.
pub const TAG_WAL_ACTIONS: u32 = 0x61;

/// When appended frames are forced to stable storage. There is one
/// answer — on every commit — so this is not a choice: the enum and the
/// parameter of [`WalWriter::create`] / [`WalWriter::open`] exist only
/// because the ledger (`benchmark/src/workloads/live.rs`) spells
/// `WalWriter::create(_, WalSync::PerFrame)`, and go with ROADMAP item 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WalSync {
    /// `fdatasync` on every [`WalWriter::commit`] — a committed frame
    /// survives a crash.
    #[default]
    PerFrame,
}

/// Typed WAL failures. IO errors are flattened to `(op, ErrorKind)` so the
/// type stays `Clone + PartialEq` for assertions and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An OS-level file operation failed.
    Io {
        /// Which operation (`"open"`, `"append"`, `"sync"`, …).
        op: &'static str,
        /// The underlying [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
    },
    /// The segment header is not a WAL of a supported version. The file is
    /// left untouched — a foreign file is never truncated.
    BadHeader {
        /// What was wrong.
        what: &'static str,
    },
    /// A frame payload failed snapshot validation where a hard error (not
    /// a torn-tail verdict) was required.
    Frame(SnapshotError),
    /// A rollback after a failed append could not restore the committed
    /// length; the writer refuses further appends.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, kind } => write!(f, "wal {op} failed: {kind}"),
            WalError::BadHeader { what } => write!(f, "not a wal segment: {what}"),
            WalError::Frame(e) => write!(f, "wal frame rejected: {e}"),
            WalError::Poisoned => write!(f, "wal writer poisoned by a failed rollback"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Frame(e)
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> WalError {
    move |e| WalError::Io { op, kind: e.kind() }
}

/// Pack actions into snapshot words (`[user, item, value_bits]` each).
pub fn action_words(actions: &[Action]) -> impl Iterator<Item = u32> + '_ {
    actions
        .iter()
        .flat_map(|a| [a.user.raw(), a.item.raw(), a.value.to_bits()])
}

/// Unpack a `[user, item, value_bits]` word run written by
/// [`action_words`]. `tag` labels the section in errors.
pub fn actions_from_words(tag: u32, words: &[u32]) -> Result<Vec<Action>, SnapshotError> {
    if !words.len().is_multiple_of(3) {
        return Err(SnapshotError::Malformed {
            tag,
            what: "action payload is not a whole number of [user, item, value] triples",
        });
    }
    Ok(words
        .chunks_exact(3)
        .map(|c| Action {
            user: UserId::new(c[0]),
            item: ItemId::new(c[1]),
            value: f32::from_bits(c[2]),
        })
        .collect())
}

/// One decoded WAL frame: an epoch-stamped action delta.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// The delta's epoch stamp (the ingest buffer's cut ordinal).
    pub epoch: u64,
    /// The delta's actions, in arrival order.
    pub actions: Vec<Action>,
}

/// Encode one frame payload (a self-validating snapshot buffer).
pub fn encode_frame(epoch: u64, actions: &[Action]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    let [lo, hi] = split_u64(epoch);
    w.section_words(TAG_WAL_FRAME, [lo, hi, actions.len() as u32]);
    w.section_words(TAG_WAL_ACTIONS, action_words(actions));
    w.finish()
}

/// Decode one frame payload written by [`encode_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<WalFrame, WalError> {
    let r = SnapshotReader::load(bytes)?;
    let [lo, hi, n_actions] = r.meta(TAG_WAL_FRAME, "frame META is not three words")?;
    let payload = r.section_words(TAG_WAL_ACTIONS)?;
    let actions = actions_from_words(TAG_WAL_ACTIONS, payload.as_slice())?;
    if actions.len() != n_actions as usize {
        return Err(SnapshotError::Malformed {
            tag: TAG_WAL_FRAME,
            what: "frame META action count disagrees with the payload",
        }
        .into());
    }
    Ok(WalFrame {
        epoch: join_u64(lo, hi),
        actions,
    })
}

/// Where a segment scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte of the segment belongs to a whole, valid frame.
    Clean,
    /// The segment ends in (or contains) bytes that do not form a valid
    /// frame: a crash mid-append, a torn write, or corruption. Frames
    /// before `valid_bytes` are intact; everything after is unreachable
    /// (the length-prefix chain is broken) and safe to truncate.
    Torn {
        /// Segment length up to and including the last valid frame.
        valid_bytes: u64,
        /// Bytes past the valid prefix.
        lost_bytes: u64,
    },
}

/// Result of scanning one WAL segment.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Whole, valid frames in file order.
    pub frames: Vec<WalFrame>,
    /// Tail verdict.
    pub tail: WalTail,
    /// Total bytes in the segment file.
    pub bytes: u64,
}

impl WalScan {
    /// Segment length up to the last valid frame (what a writer reopening
    /// the segment truncates to).
    pub fn valid_bytes(&self) -> u64 {
        match self.tail {
            WalTail::Clean => self.bytes,
            WalTail::Torn { valid_bytes, .. } => valid_bytes,
        }
    }
}

/// Scan in-memory segment bytes into frames plus a tail verdict.
///
/// A file shorter than the header is treated as torn at offset zero (a
/// crash before the header landed); a wrong magic or version is a hard
/// [`WalError::BadHeader`] — the file is not a WAL and must not be
/// truncated or appended to.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, WalError> {
    let total = bytes.len() as u64;
    if bytes.len() < WAL_HEADER_BYTES as usize {
        return Ok(WalScan {
            frames: Vec::new(),
            tail: WalTail::Torn {
                valid_bytes: 0,
                lost_bytes: total,
            },
            bytes: total,
        });
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(WalError::BadHeader {
            what: "bad magic (expected \"VXWL\")",
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("checked length"));
    if version != WAL_VERSION {
        return Err(WalError::BadHeader {
            what: "unsupported wal version",
        });
    }
    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_BYTES as usize;
    let torn_at = loop {
        if pos == bytes.len() {
            break None;
        }
        if bytes.len() - pos < 4 {
            break Some(pos);
        }
        let len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("checked length")) as usize;
        if len == 0 || !len.is_multiple_of(4) || bytes.len() - pos - 4 < len {
            break Some(pos);
        }
        match decode_frame(&bytes[pos + 4..pos + 4 + len]) {
            Ok(f) => frames.push(f),
            Err(_) => break Some(pos),
        }
        pos += 4 + len;
    };
    Ok(WalScan {
        frames,
        tail: match torn_at {
            None => WalTail::Clean,
            Some(at) => WalTail::Torn {
                valid_bytes: at as u64,
                lost_bytes: total - at as u64,
            },
        },
        bytes: total,
    })
}

/// Read and scan a segment file.
pub fn read_wal(path: &Path) -> Result<WalScan, WalError> {
    let bytes = std::fs::read(path).map_err(io_err("read"))?;
    scan_wal(&bytes)
}

/// Fail-point site after a new segment's header is written (key 0),
/// catalogued in `vexus_core::failpoint`.
const FP_WAL_CREATE: &str = "wal.create";

/// Write a freshly created segment's header and make it durable: the
/// header by `fdatasync`, the directory entry by an `fsync` of the parent.
fn init_segment(file: &mut File, path: &Path) -> Result<(), WalError> {
    file.write_all(&WAL_MAGIC).map_err(io_err("create"))?;
    file.write_all(&WAL_VERSION.to_le_bytes())
        .map_err(io_err("create"))?;
    if crate::failpoint::hit(FP_WAL_CREATE) {
        return Err(io_err("create")(std::io::ErrorKind::Other.into()));
    }
    file.sync_data().map_err(io_err("sync"))?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("dir sync"))
}

/// Appends frames to one WAL segment under the two-phase
/// `append`/`commit` discipline (see the module docs).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    /// Valid log length: every byte below this is a whole committed frame
    /// (or the header). Rollback truncates to it.
    committed: u64,
    /// Bytes staged by `append` since the last `commit`.
    staged: u64,
    poisoned: bool,
    frames: u64,
}

impl WalWriter {
    /// Create a fresh segment at `path` (fails if the file exists), write
    /// its header, and make both durable: the header by `fdatasync`, the
    /// segment's directory entry by an `fsync` of the parent directory.
    /// Syncing a file does not sync the entry that names it, so without
    /// the second sync a power cut could drop a segment whose frames were
    /// already committed and acknowledged. This closes the one such gap
    /// known from reading the code; only an enumeration of crash states
    /// can show it was the last.
    ///
    /// A failure after the file exists removes it before the error
    /// returns, so a failed create leaves no segment a log never wrote to.
    pub fn create(path: &Path, _sync: WalSync) -> Result<Self, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(io_err("create"))?;
        if let Err(e) = init_segment(&mut file, path) {
            let _ = std::fs::remove_file(path);
            return Err(e);
        }
        Ok(WalWriter {
            file,
            committed: WAL_HEADER_BYTES,
            staged: 0,
            poisoned: false,
            frames: 0,
        })
    }

    /// Reopen an existing segment for appending: scan it, physically
    /// truncate any torn tail, and position at the end of the valid
    /// prefix. Returns the scan so the caller sees the surviving frames.
    pub fn open(path: &Path, _sync: WalSync) -> Result<(Self, WalScan), WalError> {
        let scan = read_wal(path)?;
        let file = OpenOptions::new()
            .write(true)
            .read(true)
            .open(path)
            .map_err(io_err("open"))?;
        let mut w = WalWriter {
            file,
            committed: scan.valid_bytes().max(WAL_HEADER_BYTES),
            staged: 0,
            poisoned: false,
            frames: 0,
        };
        w.file.set_len(w.committed).map_err(io_err("truncate"))?;
        if scan.bytes < WAL_HEADER_BYTES {
            // The crash landed before the header: rewrite it.
            w.file.seek(SeekFrom::Start(0)).map_err(io_err("seek"))?;
            w.file.write_all(&WAL_MAGIC).map_err(io_err("open"))?;
            w.file
                .write_all(&WAL_VERSION.to_le_bytes())
                .map_err(io_err("open"))?;
        }
        w.file
            .seek(SeekFrom::Start(w.committed))
            .map_err(io_err("seek"))?;
        w.file.sync_data().map_err(io_err("sync"))?;
        Ok((w, scan))
    }

    /// Stage one frame after the committed prefix. Nothing is part of the
    /// log until [`WalWriter::commit`]; on error the file is rolled back
    /// so the append can be retried without duplication.
    pub fn append(&mut self, epoch: u64, actions: &[Action]) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let payload = encode_frame(epoch, actions);
        let res = self
            .file
            .write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|()| self.file.write_all(&payload));
        match res {
            Ok(()) => {
                self.staged += 4 + payload.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.rollback();
                Err(WalError::Io {
                    op: "append",
                    kind: e.kind(),
                })
            }
        }
    }

    /// Commit the staged frame: `fdatasync` it and extend the valid log
    /// length. Returns the frame bytes committed. On error the staged
    /// bytes are rolled back.
    pub fn commit(&mut self) -> Result<u64, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let staged = self.staged;
        if let Err(e) = self.file.sync_data() {
            self.rollback();
            return Err(WalError::Io {
                op: "commit",
                kind: e.kind(),
            });
        }
        self.committed += staged;
        self.staged = 0;
        if staged > 0 {
            self.frames += 1;
        }
        Ok(staged)
    }

    /// Discard staged-but-uncommitted bytes, restoring the file to its
    /// committed length. Idempotent; a failed truncate poisons the writer
    /// (subsequent appends report [`WalError::Poisoned`]).
    pub fn rollback(&mut self) {
        self.staged = 0;
        if self
            .file
            .set_len(self.committed)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.committed)).map(|_| ()))
            .is_err()
        {
            self.poisoned = true;
        }
    }

    /// Valid log length in bytes (header plus committed frames).
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Frames committed through this writer.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// Torn-write simulator: cut `path` to `len` bytes, as a crash mid-write
/// would.
pub fn truncate_at(path: &Path, len: u64) -> Result<(), WalError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err("open"))?;
    file.set_len(len).map_err(io_err("truncate"))
}

/// Torn-write simulator: XOR one byte of `path` at `offset` (`xor` must be
/// non-zero so the byte actually changes).
pub fn corrupt_byte_at(path: &Path, offset: u64, xor: u8) -> Result<(), WalError> {
    assert!(xor != 0, "corrupting with xor 0 is a no-op");
    let mut bytes = std::fs::read(path).map_err(io_err("read"))?;
    let at = (offset as usize).min(bytes.len().saturating_sub(1));
    if bytes.is_empty() {
        return Ok(());
    }
    bytes[at] ^= xor;
    std::fs::write(path, bytes).map_err(io_err("write"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn act(u: u32, i: u32, v: f32) -> Action {
        Action {
            user: UserId::new(u),
            item: ItemId::new(i),
            value: v,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vexus-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal-0.vxwl")
    }

    fn sample_frames() -> Vec<(u64, Vec<Action>)> {
        vec![
            (0, vec![act(0, 1, 1.0), act(2, 3, -0.5)]),
            (1, vec![act(4, 5, 2.0)]),
            (2, vec![act(6, 7, 0.0), act(8, 9, 9.5), act(1, 1, 3.0)]),
        ]
    }

    fn write_sample(path: &Path, sync: WalSync) -> WalWriter {
        let mut w = WalWriter::create(path, sync).unwrap();
        for (e, actions) in sample_frames() {
            w.append(e, &actions).unwrap();
            w.commit().unwrap();
        }
        w
    }

    #[test]
    fn frames_round_trip_through_a_segment() {
        let path = tmp("roundtrip");
        let w = write_sample(&path, WalSync::PerFrame);
        assert_eq!(w.frames(), 3);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.bytes, w.committed_bytes());
        let expect: Vec<WalFrame> = sample_frames()
            .into_iter()
            .map(|(epoch, actions)| WalFrame { epoch, actions })
            .collect();
        assert_eq!(scan.frames, expect);
        // Large epochs survive the two-word split.
        let path2 = path.with_file_name("wal-big.vxwl");
        let mut w2 = WalWriter::create(&path2, WalSync::PerFrame).unwrap();
        w2.append(u64::MAX - 1, &[act(0, 0, 1.0)]).unwrap();
        w2.commit().unwrap();
        assert_eq!(read_wal(&path2).unwrap().frames[0].epoch, u64::MAX - 1);
    }

    #[test]
    fn every_truncation_is_a_clean_torn_tail() {
        let path = tmp("truncate");
        let w = write_sample(&path, WalSync::PerFrame);
        let full = w.committed_bytes();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..full {
            let scan = scan_wal(&bytes[..cut as usize]).unwrap();
            // Frames are whole or absent, and the valid prefix never
            // exceeds the cut. A cut landing exactly on a frame boundary
            // is a (shorter) clean log; anywhere else is torn.
            assert!(scan.frames.len() <= 3);
            assert!(scan.valid_bytes() <= cut);
            if scan.tail == WalTail::Clean {
                assert_eq!(scan.valid_bytes(), cut);
            }
            for (k, f) in scan.frames.iter().enumerate() {
                assert_eq!(f.epoch, k as u64);
            }
        }
    }

    #[test]
    fn reopen_truncates_the_torn_tail_and_appends() {
        let path = tmp("reopen");
        let w = write_sample(&path, WalSync::PerFrame);
        let full = w.committed_bytes();
        drop(w);
        // Tear the last frame in half.
        truncate_at(&path, full - 7).unwrap();
        let (mut w, scan) = WalWriter::open(&path, WalSync::PerFrame).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
        w.append(2, &[act(7, 7, 7.0)]).unwrap();
        w.commit().unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[2].actions, vec![act(7, 7, 7.0)]);
    }

    #[test]
    fn corruption_is_torn_never_silent() {
        let path = tmp("corrupt");
        let w = write_sample(&path, WalSync::PerFrame);
        let full = w.committed_bytes();
        drop(w);
        let pristine = std::fs::read(&path).unwrap();
        let clean = scan_wal(&pristine).unwrap();
        for off in WAL_HEADER_BYTES..full {
            let mut bytes = pristine.clone();
            bytes[off as usize] ^= 0x40;
            let scan = scan_wal(&bytes).unwrap();
            // A flipped byte can only cost frames from its own frame on:
            // surviving frames are byte-identical to the pristine prefix.
            assert!(scan.frames.len() < clean.frames.len() || scan.tail == WalTail::Clean);
            for (f, orig) in scan.frames.iter().zip(&clean.frames) {
                assert_eq!(f, orig, "corruption at {off} silently altered a frame");
            }
        }
    }

    #[test]
    fn rollback_discards_staged_frames() {
        let path = tmp("rollback");
        let mut w = WalWriter::create(&path, WalSync::PerFrame).unwrap();
        w.append(0, &[act(1, 1, 1.0)]).unwrap();
        w.commit().unwrap();
        let committed = w.committed_bytes();
        // Stage a frame, then abandon it (the wal.sync fail-point path).
        w.append(1, &[act(2, 2, 2.0)]).unwrap();
        w.rollback();
        assert_eq!(w.committed_bytes(), committed);
        // The retried append lands exactly once.
        w.append(1, &[act(2, 2, 2.0)]).unwrap();
        w.commit().unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].epoch, 1);
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a wal segment").unwrap();
        assert!(matches!(
            read_wal(&path).unwrap_err(),
            WalError::BadHeader { .. }
        ));
        assert!(matches!(
            WalWriter::open(&path, WalSync::PerFrame).unwrap_err(),
            WalError::BadHeader { .. }
        ));
        // Untouched.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a wal segment"
        );
    }

    #[test]
    fn sub_header_files_reopen_cleanly() {
        let path = tmp("subheader");
        std::fs::write(&path, b"VXW").unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.frames.is_empty());
        assert!(matches!(scan.tail, WalTail::Torn { valid_bytes: 0, .. }));
        let (mut w, _) = WalWriter::open(&path, WalSync::PerFrame).unwrap();
        w.append(0, &[act(0, 0, 1.0)]).unwrap();
        w.commit().unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.frames.len(), 1);
    }

    #[test]
    fn empty_delta_frames_are_legal() {
        let f = decode_frame(&encode_frame(41, &[])).unwrap();
        assert_eq!(f.epoch, 41);
        assert!(f.actions.is_empty());
    }
}
