//! # vexus-mining
//!
//! Group discovery for VEXUS. The paper treats discovery as a pluggable
//! offline stage: "For user datasets, different group discovery algorithms
//! such as LCM \[16\] and α-MOMRI \[13\] can be used. In case of user data
//! streams, STREAMMINING \[9\] and BIRCH \[18\] can be employed. For each group,
//! its members and their common attributes will be returned."
//!
//! This crate implements all four from scratch:
//!
//! * [`lcm`] — LCM-style closed frequent itemset mining over user
//!   demographics-as-transactions (the default discovery path),
//! * [`momri`] — α-MOMRI-style multi-objective group discovery,
//! * [`birch`] — BIRCH CF-tree clustering for numeric user features,
//! * [`stream_fim`] — lossy-counting in-core frequent itemset mining over
//!   action streams,
//!
//! All four are exposed behind one seam: the [`discovery::GroupDiscovery`]
//! trait, whose backends ([`LcmDiscovery`], [`MomriDiscovery`],
//! [`BirchDiscovery`], [`StreamFimDiscovery`]) take `(&UserData,
//! &Vocabulary)` and return a [`GroupSet`] plus discovery statistics. The
//! exploration engine's builder accepts any backend.
//!
//! On top of that seam, [`sharded`] scales discovery out:
//! [`ShardedDiscovery`] runs any backend per member-disjoint shard on
//! worker threads and folds the per-shard group spaces through a
//! [`MergeStrategy`]; [`EnsembleDiscovery`] unions several backends
//! (e.g. LCM ∪ BIRCH) through the same merge layer.
//!
//! For live deployments, [`delta`] gives the stream miner identity across
//! time: [`DeltaDiscovery`] observes users as they arrive on an action
//! stream and cuts canonical, description-sorted epoch group spaces whose
//! pairwise differences are typed [`GroupDelta`]s (added / retired /
//! resized) — what `vexus-index` derives a refresh's dirty set and
//! survivor id remap from.
//!
//! Shared substrate:
//!
//! * [`bitmap`] — sorted-set member bitmaps with fast intersection /
//!   Jaccard,
//! * [`features`] — one-hot + activity featurization (owned by the BIRCH
//!   backend, reusable by the viz layer),
//! * [`group`] — the [`group::Group`] type (members + describing tokens)
//!   and [`group::GroupSet`] collections,
//! * [`transactions`] — adapters from `vexus-data` datasets to token
//!   transactions.

pub mod birch;
pub mod bitmap;
pub mod delta;
pub mod discovery;
pub mod features;
pub mod group;
pub mod lcm;
pub mod momri;
pub mod sharded;
pub mod snapshot;
pub mod stream_fim;
pub mod transactions;

pub use bitmap::MemberSet;
pub use delta::{DeltaDiscovery, GroupDelta};
pub use discovery::{
    BirchDiscovery, DiscoveryOutcome, DiscoverySelection, GroupDiscovery, LcmDiscovery,
    MergeSelection, MomriDiscovery, ShardStats, StreamFimDiscovery,
};
pub use features::Featurizer;
pub use group::{Group, GroupId, GroupSet};
pub use lcm::{mine_closed_groups, LcmConfig};
pub use momri::MomriConfig;
pub use sharded::{
    EnsembleDiscovery, MergeContext, MergeStrategy, MergeTelemetry, ShardScaled, ShardedDiscovery,
};
pub use stream_fim::{MinerEntry, MinerState, StreamFimConfig, StreamMiner};
