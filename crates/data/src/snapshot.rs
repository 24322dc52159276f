//! Versioned flat-buffer snapshot format: the build-once-serve-many seam.
//!
//! A snapshot is one contiguous little-endian buffer with a fixed header
//! (magic, version, flags, section count, checksum), a section offset
//! table, and 4-byte-aligned sections that are plain `u32` arrays (or raw
//! byte blobs for string tables). The layout mirrors the in-memory shape
//! of the built engine — flat CSR arrays, offset tables, sorted id lists —
//! so loading is bounds/alignment/checksum **validation plus slice
//! reinterpretation**, not a field-by-field deserialize walk:
//!
//! ```text
//! word 0      MAGIC  ("VXSN")
//! word 1      VERSION
//! word 2      flags  (must be 0 in version 1)
//! word 3      n_sections
//! word 4      checksum (FNV-1a over the whole buffer, this word zeroed)
//! words 5..   section table: n_sections × [tag, byte_offset, byte_len]
//! then        sections, each starting on a 4-byte boundary
//! ```
//!
//! [`SnapshotReader::load`] copies the input bytes **once** into a shared
//! word-aligned allocation (`Arc<[u32]>`) — the price of staying free of
//! `unsafe` pointer casts while the input may be an arbitrarily aligned
//! `&[u8]`; an mmap-backed page-aligned buffer could skip it — and every
//! consumer then holds [`WordSlice`] range views into that one buffer.
//! A loaded member list, CSR, or offset table is an `Arc` refcount bump
//! plus two indices: zero per-structure copies, zero per-group heap
//! allocations.
//!
//! Every validation failure is a typed [`SnapshotError`]; `load` and the
//! section accessors never panic on corrupt input (fuzzed by
//! `tests/snapshot_roundtrip.rs`).
//!
//! Section **tags** are allocated in ranges so independent codecs cannot
//! collide. This table is the one registry; the per-layer codec headers
//! point here:
//!
//! | tags          | sections                          | codec                      |
//! |---------------|-----------------------------------|----------------------------|
//! | `0x01`        | engine META                       | `vexus_core::snapshot`     |
//! | `0x1x`        | group set                         | `vexus_mining::snapshot`   |
//! | `0x2x`        | member→groups CSR                 | `vexus_index::snapshot`    |
//! | `0x3x`        | inverted similarity index         | `vexus_index::snapshot`    |
//! | `0x4x`        | item catalog                      | this module                |
//! | `0x5x`        | vocabulary                        | this module                |
//! | `0x6x`        | WAL frame                         | [`crate::wal`]             |
//! | `0x70`–`0x77` | stream-miner state                | `vexus_mining::snapshot`   |
//! | `0x78`–`0x79` | checkpoint META + action tape     | `vexus_core::durable`      |
//!
//! What a persisted **list of lists** is — an offset table plus a flat
//! payload, and what makes the pair valid — is decided here too:
//! [`Ragged`] is the one type every layer's group descriptions, member
//! lists, miner itemsets and CSR rows are written from and validated into.

use crate::dataset::{ItemCatalog, Vocabulary};
use crate::ids::{AttrId, TokenId, ValueId};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// `"VXSN"` as a little-endian word.
pub const MAGIC: u32 = u32::from_le_bytes(*b"VXSN");
/// Current format version. Readers reject anything else.
pub const VERSION: u32 = 1;
/// Header size in words (magic, version, flags, n_sections, checksum).
pub const HEADER_WORDS: usize = 5;
/// Words per section-table entry (tag, byte offset, byte length).
pub const TABLE_ENTRY_WORDS: usize = 3;

/// Item-catalog sections: name offsets, name bytes, category ids,
/// category-label offsets, category-label bytes.
pub const TAG_CATALOG_NAME_OFFSETS: u32 = 0x40;
pub const TAG_CATALOG_NAME_BYTES: u32 = 0x41;
pub const TAG_CATALOG_CATEGORIES: u32 = 0x42;
pub const TAG_CATALOG_LABEL_OFFSETS: u32 = 0x43;
pub const TAG_CATALOG_LABEL_BYTES: u32 = 0x44;
/// Vocabulary section: `(attr, value)` word pairs in token order.
pub const TAG_VOCAB_PAIRS: u32 = 0x50;

/// A typed snapshot decode failure. Corrupt input of any shape — truncated,
/// bit-flipped, hostile — must surface as one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than the structure it claims to hold.
    Truncated { needed: usize, got: usize },
    /// The buffer length is not a whole number of 32-bit words.
    UnalignedLength { len: usize },
    /// The magic word is not [`MAGIC`] — not a snapshot at all.
    BadMagic { got: u32 },
    /// A version this reader does not understand.
    UnsupportedVersion { got: u32 },
    /// Flags bits this reader does not understand.
    UnsupportedFlags { got: u32 },
    /// The stored checksum does not match the buffer contents.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// A section-table entry points outside the buffer (or into the
    /// header/table region).
    SectionOutOfBounds { tag: u32, offset: usize, len: usize },
    /// A section does not start on a 4-byte boundary.
    MisalignedSection { tag: u32, offset: usize },
    /// A section the decoder requires is absent.
    MissingSection { tag: u32 },
    /// The same tag appears twice in the section table.
    DuplicateSection { tag: u32 },
    /// A section is internally inconsistent (non-monotone offsets, ids out
    /// of range, unsorted members, invalid UTF-8, …).
    Malformed { tag: u32, what: &'static str },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {got}")
            }
            SnapshotError::UnalignedLength { len } => {
                write!(f, "snapshot length {len} is not a multiple of 4")
            }
            SnapshotError::BadMagic { got } => {
                write!(f, "bad snapshot magic {got:#010x} (expected {MAGIC:#010x})")
            }
            SnapshotError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported snapshot version {got} (reader supports {VERSION})"
                )
            }
            SnapshotError::UnsupportedFlags { got } => {
                write!(f, "unsupported snapshot flags {got:#010x}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::SectionOutOfBounds { tag, offset, len } => write!(
                f,
                "section {tag:#x} out of bounds (offset {offset}, len {len})"
            ),
            SnapshotError::MisalignedSection { tag, offset } => {
                write!(f, "section {tag:#x} misaligned at byte offset {offset}")
            }
            SnapshotError::MissingSection { tag } => write!(f, "missing section {tag:#x}"),
            SnapshotError::DuplicateSection { tag } => write!(f, "duplicate section {tag:#x}"),
            SnapshotError::Malformed { tag, what } => {
                write!(f, "malformed section {tag:#x}: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Integrity hash over the buffer with the checksum word (word 4) treated
/// as zero, so the stamp can live inside the region it protects.
///
/// Eight interleaved word-wise FNV-1a lanes, folded FNV-style with the
/// buffer length. One lane per word position in a 32-byte stripe breaks
/// the serial xor-multiply dependency chain that makes classic byte-wise
/// FNV ~1.6 ns/byte — this form checksums the same megabyte in a fraction
/// of the time, and any bit flip still lands in exactly one lane (and so
/// in the fold). Loading is dominated by this pass, so its cost is the
/// floor on snapshot load latency.
pub fn checksum(buf: &[u8]) -> u32 {
    const OFFSET: u32 = 0x811c_9dc5;
    const PRIME: u32 = 0x0100_0193;
    let mut lanes = [OFFSET; 8];
    let mut stripes = buf.chunks_exact(32);
    let mut first = true;
    for stripe in &mut stripes {
        let mut ws = [0u32; 8];
        for (j, w) in stripe.chunks_exact(4).enumerate() {
            ws[j] = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
        }
        if first {
            // The checksum word lives in the first stripe.
            ws[4] = 0;
            first = false;
        }
        for j in 0..8 {
            lanes[j] = (lanes[j] ^ ws[j]).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    let tail = stripes.remainder();
    for (i, &b) in tail.iter().enumerate() {
        // Byte-wise tail; covers the checksum bytes themselves when the
        // whole buffer is shorter than one stripe.
        let at = buf.len() - tail.len() + i;
        let b = if (16..20).contains(&at) { 0 } else { b };
        h = (h ^ b as u32).wrapping_mul(PRIME);
    }
    (h ^ buf.len() as u32).wrapping_mul(PRIME)
}

/// Recompute and stamp the checksum word of a serialized snapshot. The
/// writer calls this last; corruption tests reuse it to re-seal a buffer
/// after a targeted mutation so structural validation (not the checksum)
/// is what rejects it.
pub fn restamp(buf: &mut [u8]) {
    if buf.len() >= 20 {
        let sum = checksum(buf);
        buf[16..20].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Incremental snapshot writer: append tagged sections, then [`finish`]
/// into one checksummed buffer. Encoding is canonical — a given set of
/// sections always produces identical bytes — which is what lets tests pin
/// `encode(decode(buf)) == buf`.
///
/// [`finish`]: SnapshotWriter::finish
#[derive(Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u32`-array section.
    pub fn section_words(&mut self, tag: u32, words: impl IntoIterator<Item = u32>) {
        let words = words.into_iter();
        let mut bytes = Vec::with_capacity(words.size_hint().0 * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.sections.push((tag, bytes));
    }

    /// Append a list of lists as its two sections: the offset table, then
    /// the flat items.
    pub fn ragged(&mut self, offsets_tag: u32, items_tag: u32, lists: &Ragged) {
        self.section_words(offsets_tag, lists.offsets.iter().copied());
        self.section_words(items_tag, lists.items.iter().copied());
    }

    /// Append a raw byte section (string blobs). The recorded length is
    /// exact; the next section is padded to the following word boundary.
    pub fn section_bytes(&mut self, tag: u32, bytes: &[u8]) {
        self.sections.push((tag, bytes.to_vec()));
    }

    /// Lay out header + table + sections and stamp the checksum.
    pub fn finish(self) -> Vec<u8> {
        let n = self.sections.len();
        let table_bytes = (HEADER_WORDS + n * TABLE_ENTRY_WORDS) * 4;
        let mut out = Vec::with_capacity(
            table_bytes
                + self
                    .sections
                    .iter()
                    .map(|(_, b)| b.len().div_ceil(4) * 4)
                    .sum::<usize>(),
        );
        for w in [MAGIC, VERSION, 0, n as u32, 0] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        // Section table: offsets are assigned sequentially, each section
        // starting on a word boundary.
        let mut cursor = table_bytes;
        for (tag, bytes) in &self.sections {
            for w in [*tag, cursor as u32, bytes.len() as u32] {
                out.extend_from_slice(&w.to_le_bytes());
            }
            cursor += bytes.len().div_ceil(4) * 4;
        }
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
            out.resize(out.len().div_ceil(4) * 4, 0);
        }
        restamp(&mut out);
        out
    }
}

/// A zero-copy `&[u32]` view into the shared snapshot buffer: an `Arc`
/// refcount bump plus a word range. Cloning is cheap; the underlying
/// buffer lives as long as any view does.
#[derive(Clone)]
pub struct WordSlice {
    words: Arc<[u32]>,
    start: usize,
    len: usize,
}

impl WordSlice {
    /// The viewed words.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.words[self.start..self.start + self.len]
    }

    /// A sub-view of this view, if in range.
    pub fn slice(&self, start: usize, len: usize) -> Option<WordSlice> {
        if start.checked_add(len)? > self.len {
            return None;
        }
        Some(WordSlice {
            words: Arc::clone(&self.words),
            start: self.start + start,
            len,
        })
    }
}

impl Deref for WordSlice {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl fmt::Debug for WordSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WordSlice[{} words]", self.len)
    }
}

impl PartialEq for WordSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WordSlice {}

/// Borrowed-or-owned `u32` array storage: the built engine owns its arrays
/// (`Owned`), a snapshot-loaded engine views the shared buffer (`Shared`).
/// Query code reads through [`Deref`] and cannot tell the difference.
#[derive(Clone, Debug)]
pub enum U32Store {
    /// Heap-owned array (the built form).
    Owned(Vec<u32>),
    /// View into a loaded snapshot buffer (the zero-copy form).
    Shared(WordSlice),
}

impl U32Store {
    /// Heap bytes owned by this store. A `Shared` view owns nothing — the
    /// snapshot buffer is accounted once at the engine level.
    pub fn heap_bytes(&self) -> usize {
        match self {
            U32Store::Owned(v) => v.capacity() * std::mem::size_of::<u32>(),
            U32Store::Shared(_) => 0,
        }
    }
}

impl Deref for U32Store {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            U32Store::Owned(v) => v,
            U32Store::Shared(s) => s.as_slice(),
        }
    }
}

impl From<Vec<u32>> for U32Store {
    fn from(v: Vec<u32>) -> Self {
        U32Store::Owned(v)
    }
}

impl From<WordSlice> for U32Store {
    fn from(s: WordSlice) -> Self {
        U32Store::Shared(s)
    }
}

impl Default for U32Store {
    fn default() -> Self {
        U32Store::Owned(Vec::new())
    }
}

impl PartialEq for U32Store {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A list of `u32` lists in its persisted shape: list `i` is
/// `items[offsets[i]..offsets[i + 1]]`. The one owner of that layout —
/// every constructor establishes that `offsets` starts at 0, never
/// decreases and ends exactly at `items.len()`, so [`Ragged::list`] cannot
/// index out of range whatever file the table came from. Both arrays are
/// borrowed-or-owned ([`U32Store`]): [`SnapshotReader::ragged`] yields
/// views into the loaded buffer, the builders own theirs.
#[derive(Debug, Clone)]
pub struct Ragged {
    offsets: U32Store,
    items: U32Store,
    /// The section `items` was loaded from (0 for a built table) — the tag
    /// [`Ragged::ascending_below`] reports.
    items_tag: u32,
}

impl Ragged {
    /// The one constructor: `None` unless `offsets` is a monotone table
    /// from 0 to exactly `items.len()`.
    fn new(offsets: U32Store, items: U32Store, items_tag: u32) -> Option<Self> {
        offsets_cover(&offsets, items.len()).then_some(Self {
            offsets,
            items,
            items_tag,
        })
    }

    /// Flatten `lists`, in order.
    pub fn from_lists<L: IntoIterator<Item = u32>>(lists: impl IntoIterator<Item = L>) -> Self {
        let (offsets, items) = flatten(lists);
        Self::new(offsets.into(), items.into(), 0).expect("flatten records where each list ends")
    }

    /// Adopt an already-flat pair (a counting sort's output), or `None` if
    /// `offsets` does not lay out `items`.
    pub fn from_parts(offsets: Vec<u32>, items: Vec<u32>) -> Option<Self> {
        Self::new(offsets.into(), items.into(), 0)
    }

    /// Additionally require every item to stay below `bound` and every
    /// list to be strictly ascending — what a sorted id list over a dense
    /// universe must satisfy. Array-global, never a per-list loop: the
    /// bound is one vectorized `max` reduction over the flat items
    /// ([`all_bounded`]), the order one flat violation-counting pass
    /// ([`runs_sorted`]).
    pub fn ascending_below(self, bound: usize, what: &'static str) -> Result<Self, SnapshotError> {
        if all_bounded(&self.items, bound) && runs_sorted(&self.items, &self.offsets, |a, b| a >= b)
        {
            Ok(self)
        } else {
            Err(SnapshotError::Malformed {
                tag: self.items_tag,
                what,
            })
        }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no lists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// List `i`.
    #[inline]
    pub fn list(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// List `i` as storage of its own: a narrower view into the snapshot
    /// buffer when this table is one, a copy otherwise.
    pub fn store(&self, i: usize) -> U32Store {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        match &self.items {
            U32Store::Owned(v) => v[lo..hi].to_vec().into(),
            U32Store::Shared(s) => s.slice(lo, hi - lo).expect("offsets lay out items").into(),
        }
    }

    /// The offset table (`len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated items, list-major.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// The two arrays, `(offsets, items)`, for a structure that keeps them
    /// beside a payload of its own.
    pub fn into_parts(self) -> (U32Store, U32Store) {
        (self.offsets, self.items)
    }

    /// Heap bytes owned by the table (zero for snapshot-backed views).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.items.heap_bytes()
    }
}

/// The one encoder of "offset table + flat payload": concatenate `lists`
/// and record where each ends.
fn flatten<T, L: IntoIterator<Item = T>>(lists: impl IntoIterator<Item = L>) -> (Vec<u32>, Vec<T>) {
    let lists = lists.into_iter();
    let mut offsets = Vec::with_capacity(lists.size_hint().0 + 1);
    let mut items = Vec::new();
    offsets.push(0u32);
    for list in lists {
        items.extend(list);
        offsets.push(items.len() as u32);
    }
    (offsets, items)
}

/// A validated, loaded snapshot: the shared word buffer plus the parsed
/// section table. All section accessors hand out [`WordSlice`] views (or
/// decoded byte blobs for string sections) over the one buffer.
#[derive(Debug)]
pub struct SnapshotReader {
    words: Arc<[u32]>,
    /// `(tag, byte_offset, byte_len)` per section, table order.
    sections: Vec<(u32, usize, usize)>,
}

impl SnapshotReader {
    /// Validate and load a snapshot buffer: length/word alignment, magic,
    /// version, flags, section-table bounds, checksum, then per-section
    /// bounds/alignment/duplicate checks. The input is copied once into a
    /// word-aligned shared allocation; everything after that is view
    /// construction.
    pub fn load(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_WORDS * 4 {
            return Err(SnapshotError::Truncated {
                needed: HEADER_WORDS * 4,
                got: bytes.len(),
            });
        }
        if !bytes.len().is_multiple_of(4) {
            return Err(SnapshotError::UnalignedLength { len: bytes.len() });
        }
        // The one copy: arbitrary-alignment input bytes → word-aligned
        // shared buffer every view borrows from.
        let words: Arc<[u32]> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let [magic, version, flags, n_sections] = [words[0], words[1], words[2], words[3]];
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { got: magic });
        }
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { got: version });
        }
        if flags != 0 {
            return Err(SnapshotError::UnsupportedFlags { got: flags });
        }
        let n = n_sections as usize;
        let table_end_words = HEADER_WORDS
            .checked_add(
                n.checked_mul(TABLE_ENTRY_WORDS)
                    .ok_or(SnapshotError::Truncated {
                        needed: usize::MAX,
                        got: bytes.len(),
                    })?,
            )
            .ok_or(SnapshotError::Truncated {
                needed: usize::MAX,
                got: bytes.len(),
            })?;
        if table_end_words > words.len() {
            return Err(SnapshotError::Truncated {
                needed: table_end_words * 4,
                got: bytes.len(),
            });
        }
        let stored = words[4];
        let computed = checksum(bytes);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut sections = Vec::with_capacity(n);
        for i in 0..n {
            let at = HEADER_WORDS + i * TABLE_ENTRY_WORDS;
            let (tag, offset, len) = (words[at], words[at + 1] as usize, words[at + 2] as usize);
            if offset % 4 != 0 {
                return Err(SnapshotError::MisalignedSection { tag, offset });
            }
            let end = offset
                .checked_add(len)
                .ok_or(SnapshotError::SectionOutOfBounds { tag, offset, len })?;
            if offset < table_end_words * 4 || end > bytes.len() {
                return Err(SnapshotError::SectionOutOfBounds { tag, offset, len });
            }
            if sections.iter().any(|&(t, _, _)| t == tag) {
                return Err(SnapshotError::DuplicateSection { tag });
            }
            sections.push((tag, offset, len));
        }
        Ok(Self { words, sections })
    }

    /// Total buffer size in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.words.len() * 4
    }

    fn find(&self, tag: u32) -> Result<(usize, usize), SnapshotError> {
        self.sections
            .iter()
            .find(|&&(t, _, _)| t == tag)
            .map(|&(_, o, l)| (o, l))
            .ok_or(SnapshotError::MissingSection { tag })
    }

    /// A `u32`-array section as a zero-copy view.
    pub fn section_words(&self, tag: u32) -> Result<WordSlice, SnapshotError> {
        let (offset, len) = self.find(tag)?;
        if len % 4 != 0 {
            return Err(SnapshotError::Malformed {
                tag,
                what: "u32 section length not a multiple of 4",
            });
        }
        Ok(WordSlice {
            words: Arc::clone(&self.words),
            start: offset / 4,
            len: len / 4,
        })
    }

    /// A fixed-width section as exactly `N` words (`what` names the shape
    /// in the error when the length is anything else).
    pub fn meta<const N: usize>(
        &self,
        tag: u32,
        what: &'static str,
    ) -> Result<[u32; N], SnapshotError> {
        self.section_words(tag)?
            .as_slice()
            .try_into()
            .map_err(|_| SnapshotError::Malformed { tag, what })
    }

    /// A list of lists from its two sections, as zero-copy views, once the
    /// offset table is known to be monotone from 0 to exactly the item
    /// count.
    pub fn ragged(&self, offsets_tag: u32, items_tag: u32) -> Result<Ragged, SnapshotError> {
        let offsets = self.section_words(offsets_tag)?;
        let items = self.section_words(items_tag)?;
        Ragged::new(offsets.into(), items.into(), items_tag).ok_or(SnapshotError::Malformed {
            tag: offsets_tag,
            what: "offset table is not monotone from 0 to its payload length",
        })
    }

    /// A raw byte section, decoded to an owned blob (string tables; their
    /// contents become owned `String`s anyway).
    pub fn section_bytes_owned(&self, tag: u32) -> Result<Vec<u8>, SnapshotError> {
        let (offset, len) = self.find(tag)?;
        let mut out = Vec::with_capacity(len);
        let start = offset / 4;
        let full = len / 4;
        for &w in &self.words[start..start + full] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        if len % 4 != 0 {
            out.extend_from_slice(&self.words[start + full].to_le_bytes()[..len % 4]);
        }
        Ok(out)
    }
}

/// Split a `u64` into its `[lo, hi]` words — how every section stores one.
pub fn split_u64(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// The `u64` stored as `[lo, hi]` by [`split_u64`].
pub fn join_u64(lo: u32, hi: u32) -> u64 {
    lo as u64 | ((hi as u64) << 32)
}

/// True iff `offsets` is a monotone offset table ending exactly at `total`
/// (`offsets[0] == 0`, non-decreasing, `offsets.last() == total`).
fn offsets_cover(offsets: &[u32], total: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets.last().is_some_and(|&end| end as usize == total)
}

/// True iff every word stays below `bound`. A pure `max` reduction the
/// compiler vectorizes, instead of a per-element compare-and-branch.
pub fn all_bounded(words: &[u32], bound: usize) -> bool {
    words.is_empty() || (words.iter().fold(0u32, |m, &w| m.max(w)) as usize) < bound
}

/// True iff every run of `items` delimited by the (monotone, validated)
/// `offsets` table is internally sorted, where `violates(a, b)` flags an
/// adjacent pair that breaks the order.
///
/// Counts violating adjacent pairs across the whole flat array — one
/// tight pass with no per-run loop setup — and compares against the
/// violations landing exactly on run boundaries, the only positions a
/// violation is permitted. The counts agree iff no run holds one.
pub fn runs_sorted<T>(items: &[T], offsets: &[u32], violates: impl Fn(&T, &T) -> bool) -> bool {
    let total = items.windows(2).filter(|w| violates(&w[0], &w[1])).count();
    let mut at_boundaries = 0usize;
    let mut prev = 0usize;
    for &o in offsets
        .get(1..offsets.len().saturating_sub(1))
        .unwrap_or(&[])
    {
        let b = o as usize;
        if b == prev || b == 0 || b >= items.len() {
            prev = b;
            continue;
        }
        if violates(&items[b - 1], &items[b]) {
            at_boundaries += 1;
        }
        prev = b;
    }
    total == at_boundaries
}

/// Encode a string table as an offsets section plus a UTF-8 blob section.
fn encode_strings(w: &mut SnapshotWriter, offsets_tag: u32, bytes_tag: u32, strings: &[String]) {
    let (offsets, blob) = flatten(strings.iter().map(|s| s.bytes()));
    w.section_words(offsets_tag, offsets);
    w.section_bytes(bytes_tag, &blob);
}

/// Decode a string table written by [`encode_strings`].
fn decode_strings(
    r: &SnapshotReader,
    offsets_tag: u32,
    bytes_tag: u32,
) -> Result<Vec<String>, SnapshotError> {
    let offsets = r.section_words(offsets_tag)?;
    let blob = r.section_bytes_owned(bytes_tag)?;
    if !offsets_cover(&offsets, blob.len()) {
        return Err(SnapshotError::Malformed {
            tag: offsets_tag,
            what: "bad string offsets",
        });
    }
    // One bulk UTF-8 validation over the whole blob, then O(1) char-
    // boundary checks at each split point: a substring of valid UTF-8 cut
    // at char boundaries is valid UTF-8, so this accepts exactly what
    // per-string validation would.
    let utf8_err = SnapshotError::Malformed {
        tag: bytes_tag,
        what: "string table is not UTF-8",
    };
    let blob = std::str::from_utf8(&blob).map_err(|_| utf8_err.clone())?;
    let mut out = Vec::with_capacity(offsets.len() - 1);
    for pair in offsets.windows(2) {
        let (a, b) = (pair[0] as usize, pair[1] as usize);
        if !blob.is_char_boundary(a) {
            return Err(utf8_err);
        }
        out.push(blob[a..b].to_string());
    }
    Ok(out)
}

/// Encode the item catalog (names, per-item category ids, category
/// labels) into its `0x4x` sections.
pub fn encode_item_catalog(cat: &ItemCatalog, w: &mut SnapshotWriter) {
    encode_strings(
        w,
        TAG_CATALOG_NAME_OFFSETS,
        TAG_CATALOG_NAME_BYTES,
        &cat.item_names,
    );
    w.section_words(TAG_CATALOG_CATEGORIES, cat.item_categories.iter().copied());
    encode_strings(
        w,
        TAG_CATALOG_LABEL_OFFSETS,
        TAG_CATALOG_LABEL_BYTES,
        &cat.category_labels,
    );
}

/// Decode the item catalog written by [`encode_item_catalog`].
pub fn decode_item_catalog(r: &SnapshotReader) -> Result<ItemCatalog, SnapshotError> {
    let item_names = decode_strings(r, TAG_CATALOG_NAME_OFFSETS, TAG_CATALOG_NAME_BYTES)?;
    let category_labels = decode_strings(r, TAG_CATALOG_LABEL_OFFSETS, TAG_CATALOG_LABEL_BYTES)?;
    let categories = r.section_words(TAG_CATALOG_CATEGORIES)?;
    if categories.len() != item_names.len() {
        return Err(SnapshotError::Malformed {
            tag: TAG_CATALOG_CATEGORIES,
            what: "one category id per item required",
        });
    }
    if categories
        .iter()
        .any(|&c| c != u32::MAX && c as usize >= category_labels.len())
    {
        return Err(SnapshotError::Malformed {
            tag: TAG_CATALOG_CATEGORIES,
            what: "category id out of range",
        });
    }
    Ok(ItemCatalog {
        item_names,
        item_categories: categories.to_vec(),
        category_labels,
    })
}

/// Encode the vocabulary as `(attr, value)` word pairs in token order.
pub fn encode_vocabulary(vocab: &Vocabulary, w: &mut SnapshotWriter) {
    w.section_words(
        TAG_VOCAB_PAIRS,
        vocab
            .pairs
            .iter()
            .flat_map(|&(a, v)| [a.raw() as u32, v.raw()]),
    );
}

/// Decode the vocabulary written by [`encode_vocabulary`].
pub fn decode_vocabulary(r: &SnapshotReader) -> Result<Vocabulary, SnapshotError> {
    let words = r.section_words(TAG_VOCAB_PAIRS)?;
    if words.len() % 2 != 0 {
        return Err(SnapshotError::Malformed {
            tag: TAG_VOCAB_PAIRS,
            what: "odd pair-word count",
        });
    }
    let mut pairs = Vec::with_capacity(words.len() / 2);
    for chunk in words.chunks_exact(2) {
        if chunk[0] > u16::MAX as u32 {
            return Err(SnapshotError::Malformed {
                tag: TAG_VOCAB_PAIRS,
                what: "attr id exceeds u16",
            });
        }
        pairs.push((AttrId::new(chunk[0] as u16), ValueId::new(chunk[1])));
    }
    // Token ids are positional; the reverse map is rebuilt (it is the one
    // non-flat structure in the vocabulary, and it is tiny).
    let token_of = pairs
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, TokenId::new(i as u32)))
        .collect();
    Ok(Vocabulary { token_of, pairs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_buf() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section_words(0x1, [1, 2, 3]);
        w.section_bytes(0x2, b"hello");
        w.finish()
    }

    #[test]
    fn writer_reader_round_trip() {
        let buf = two_section_buf();
        assert_eq!(buf.len() % 4, 0);
        let r = SnapshotReader::load(&buf).unwrap();
        let tags: Vec<u32> = r.sections.iter().map(|&(t, _, _)| t).collect();
        assert_eq!(tags, vec![0x1, 0x2]);
        assert_eq!(r.section_words(0x1).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(r.section_bytes_owned(0x2).unwrap(), b"hello");
        assert_eq!(r.buffer_bytes(), buf.len());
    }

    #[test]
    fn encoding_is_canonical() {
        assert_eq!(two_section_buf(), two_section_buf());
    }

    #[test]
    fn missing_and_mistyped_sections_are_typed_errors() {
        let buf = two_section_buf();
        let r = SnapshotReader::load(&buf).unwrap();
        assert_eq!(
            r.section_words(0x9).unwrap_err(),
            SnapshotError::MissingSection { tag: 0x9 }
        );
        // The byte section has length 5 — not a valid u32 array.
        assert!(matches!(
            r.section_words(0x2).unwrap_err(),
            SnapshotError::Malformed { tag: 0x2, .. }
        ));
    }

    #[test]
    fn truncation_bad_magic_version_flags() {
        let buf = two_section_buf();
        assert!(matches!(
            SnapshotReader::load(&buf[..8]).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
        assert!(matches!(
            SnapshotReader::load(&buf[..buf.len() - 3]).unwrap_err(),
            SnapshotError::UnalignedLength { .. }
        ));
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::BadMagic { .. }
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::UnsupportedVersion { got: 99 }
        ));
        let mut bad = buf.clone();
        bad[8] = 1;
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::UnsupportedFlags { got: 1 }
        ));
    }

    #[test]
    fn checksum_catches_any_flip() {
        let buf = two_section_buf();
        for at in [20, 24, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(matches!(
                SnapshotReader::load(&bad).unwrap_err(),
                SnapshotError::ChecksumMismatch { .. }
            ));
        }
        // Flipping the checksum itself also mismatches.
        let mut bad = buf.clone();
        bad[16] ^= 0x1;
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn out_of_bounds_and_misaligned_sections() {
        // Section offset beyond the buffer (restamped so the checksum is
        // valid and the structural check is what fires).
        let mut bad = two_section_buf();
        let huge = (bad.len() as u32 + 4).to_le_bytes();
        bad[24..28].copy_from_slice(&huge); // first table entry's offset
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::SectionOutOfBounds { tag: 0x1, .. }
        ));
        // Misaligned offset.
        let mut bad = two_section_buf();
        bad[24] += 2;
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::MisalignedSection { tag: 0x1, .. }
        ));
        // Offset pointing into the header region.
        let mut bad = two_section_buf();
        bad[24..28].copy_from_slice(&4u32.to_le_bytes());
        restamp(&mut bad);
        assert!(matches!(
            SnapshotReader::load(&bad).unwrap_err(),
            SnapshotError::SectionOutOfBounds { tag: 0x1, .. }
        ));
    }

    #[test]
    fn duplicate_sections_rejected() {
        let mut w = SnapshotWriter::new();
        w.section_words(0x7, [1]);
        w.section_words(0x7, [2]);
        let buf = w.finish();
        assert_eq!(
            SnapshotReader::load(&buf).unwrap_err(),
            SnapshotError::DuplicateSection { tag: 0x7 }
        );
    }

    #[test]
    fn word_slice_views_share_one_buffer() {
        let buf = two_section_buf();
        let r = SnapshotReader::load(&buf).unwrap();
        let v = r.section_words(0x1).unwrap();
        let sub = v.slice(1, 2).unwrap();
        assert_eq!(sub.as_slice(), &[2, 3]);
        assert!(v.slice(2, 2).is_none());
        assert_eq!(v.slice(3, 0).unwrap().as_slice(), &[] as &[u32]);
        // A store over the view owns no heap.
        let store: U32Store = sub.into();
        assert_eq!(store.heap_bytes(), 0);
        assert_eq!(&*store, &[2, 3]);
        let owned: U32Store = vec![2, 3].into();
        assert_eq!(owned, store);
        assert!(owned.heap_bytes() >= 8);
    }

    /// Load `offsets` / `items` as sections `0x1` / `0x2` and read them
    /// back as a ragged table of ids below `bound`.
    fn load_ragged(offsets: &[u32], items: &[u32], bound: usize) -> Result<Ragged, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.section_words(0x1, offsets.iter().copied());
        w.section_words(0x2, items.iter().copied());
        SnapshotReader::load(&w.finish())
            .unwrap()
            .ragged(0x1, 0x2)?
            .ascending_below(bound, "x")
    }

    #[test]
    fn ragged_round_trips_and_hands_out_lists() {
        let built = Ragged::from_lists([vec![0, 3, 5], vec![], vec![1, 2]]);
        assert_eq!(built.offsets(), &[0, 3, 3, 5]);
        assert_eq!(built.items(), &[0, 3, 5, 1, 2]);
        let mut w = SnapshotWriter::new();
        w.ragged(0x1, 0x2, &built);
        let r = SnapshotReader::load(&w.finish()).unwrap();
        let loaded = r.ragged(0x1, 0x2).unwrap().ascending_below(6, "x").unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.list(0), &[0, 3, 5]);
        assert_eq!(loaded.list(1), &[] as &[u32]);
        assert_eq!(loaded.list(2), &[1, 2]);
        // A loaded table and its lists are views; a built one owns both.
        assert_eq!(loaded.heap_bytes(), 0);
        assert_eq!(loaded.store(2).heap_bytes(), 0);
        assert!(built.heap_bytes() > 0);
        assert_eq!(built.store(2), loaded.store(2));
        // No lists at all is a one-entry table.
        let empty = Ragged::from_lists(Vec::<Vec<u32>>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.offsets(), &[0]);
        assert!(Ragged::from_parts(vec![0, 1], vec![9]).is_some());
        assert!(Ragged::from_parts(vec![0, 2], vec![9]).is_none());
    }

    #[test]
    fn ragged_rejects_each_broken_rule() {
        let offsets_err = Err(SnapshotError::Malformed {
            tag: 0x1,
            what: "offset table is not monotone from 0 to its payload length",
        });
        let items_err = Err(SnapshotError::Malformed {
            tag: 0x2,
            what: "x",
        });
        let tags = |r: Result<Ragged, SnapshotError>| r.map(|_| ());
        assert_eq!(tags(load_ragged(&[0, 2, 5], &[1, 2, 0, 3, 4], 5)), Ok(()));
        // First offset is not 0.
        assert_eq!(tags(load_ragged(&[1, 2], &[0, 1], 9)), offsets_err);
        // Offsets decrease.
        assert_eq!(tags(load_ragged(&[0, 3, 2], &[0, 1], 9)), offsets_err);
        // Last offset is not the payload length (short, then long).
        assert_eq!(tags(load_ragged(&[0, 2], &[0, 1, 2], 9)), offsets_err);
        assert_eq!(tags(load_ragged(&[0, 4], &[0, 1, 2], 9)), offsets_err);
        // An empty table has no first offset.
        assert_eq!(tags(load_ragged(&[], &[], 9)), offsets_err);
        // An item at the bound.
        assert_eq!(tags(load_ragged(&[0, 2], &[0, 5], 5)), items_err);
        // A descending (or repeated) pair inside a list.
        assert_eq!(tags(load_ragged(&[0, 3], &[0, 2, 1], 9)), items_err);
        assert_eq!(tags(load_ragged(&[0, 2], &[4, 4], 9)), items_err);
        // The same pair across a list boundary is legal — also past an
        // empty list, whose two offsets name the same boundary.
        assert_eq!(tags(load_ragged(&[0, 2, 3], &[0, 2, 1], 9)), Ok(()));
        assert_eq!(tags(load_ragged(&[0, 2, 2, 3], &[0, 2, 1], 9)), Ok(()));
    }

    #[test]
    fn catalog_and_vocab_round_trip() {
        use crate::schema::Schema;
        use crate::UserDataBuilder;
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        let u = b.user("mary");
        b.set_demo(u, g, "female").unwrap();
        b.item("Mr Miracle", Some("fiction"));
        b.item("Dune", None);
        let data = b.build();
        let vocab = Vocabulary::build(&data);
        let mut w = SnapshotWriter::new();
        encode_item_catalog(data.item_catalog(), &mut w);
        encode_vocabulary(&vocab, &mut w);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        let cat = decode_item_catalog(&r).unwrap();
        assert_eq!(&cat, data.item_catalog().as_ref());
        let v2 = decode_vocabulary(&r).unwrap();
        assert_eq!(v2.pairs, vocab.pairs);
        assert_eq!(v2.token_of, vocab.token_of);
    }

    #[test]
    fn catalog_category_ids_validated() {
        let cat = ItemCatalog {
            item_names: vec!["a".into()],
            item_categories: vec![3],
            category_labels: vec!["only".into()],
        };
        let mut w = SnapshotWriter::new();
        encode_item_catalog(&cat, &mut w);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        assert!(matches!(
            decode_item_catalog(&r).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_CATALOG_CATEGORIES,
                ..
            }
        ));
    }
}
