//! # vexus-data
//!
//! User-data substrate for VEXUS (*Exploration of User Groups in VEXUS*,
//! ICDE 2018). The paper models user data as a combination of
//! **demographics** (age, gender, occupation, …) and **actions** under the
//! generic schema `[user, item, value]` (e.g. `[Mary, "Mr Miracle", 4]`
//! meaning Mary rated the book "Mr Miracle" with score 4).
//!
//! This crate provides everything the VEXUS pre-processing stage (Fig. 1 of
//! the paper) needs before group discovery:
//!
//! * [`schema`] — typed attribute schema with categorical dictionaries and
//!   numeric binning,
//! * [`dataset`] — columnar [`dataset::UserData`] storage plus the token
//!   vocabulary used by the mining layer,
//! * [`csv`] — a dependency-free RFC-4180-ish CSV reader/writer,
//! * [`etl`] — the cleaning pipeline (trimming, null normalization,
//!   deduplication, clamping) that precedes import,
//! * [`shard`] — member-disjoint [`shard::ShardPlan`]s (hash / contiguous)
//!   that let the discovery stage run one worker per slice of the user
//!   space,
//! * [`snapshot`] — the versioned flat-buffer snapshot format (header,
//!   section table, checksum, zero-copy [`snapshot::WordSlice`] views)
//!   plus the catalog/vocabulary codecs; higher layers add their own
//!   sections on top,
//! * [`stream`] — bounded action streams for the stream-mining path, plus
//!   the [`stream::IngestBuffer`] that cuts them into epoch-stamped
//!   deltas for the live engine,
//! * [`wal`] — the write-ahead log for those deltas: independently
//!   checksummed frames over the snapshot codec, torn-tail detection, and
//!   the torn-write simulator the crash-recovery tests drive,
//! * [`zipf`] — seeded Zipf/power-law samplers used by the generators,
//! * [`synthetic`] — seeded generators standing in for the paper's
//!   BOOKCROSSING and DB-AUTHORS datasets (the module docs give the
//!   substitution rationale).

pub mod csv;
pub mod dataset;
pub mod error;
pub mod etl;
pub mod ids;
pub mod schema;
pub mod shard;
pub mod snapshot;
pub mod stream;
pub mod synthetic;
pub mod wal;
pub mod zipf;

pub use dataset::{Action, ItemCatalog, UserData, UserDataBuilder, Vocabulary};
pub use error::DataError;
pub use ids::{AttrId, ItemId, TokenId, UserId, ValueId};
pub use schema::{AttributeDef, AttributeKind, Schema};
pub use shard::{ShardPlan, ShardStrategy};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, U32Store, WordSlice};
pub use stream::{ActionDelta, ActionStream, IngestBuffer};
pub use wal::{WalError, WalFrame, WalScan, WalSync, WalTail, WalWriter};
