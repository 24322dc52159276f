//! # vexus-index
//!
//! The similarity index behind VEXUS's fluid navigation. Per the paper:
//!
//! > "For efficient navigation in the space of groups, we build an inverted
//! > index per group `g ∈ G` that contains all groups in `G − {g}` in
//! > decreasing order of their similarity to `g`. We use the Jaccard
//! > distance to compute the similarity between each pair of groups. To
//! > reduce both time and space complexity, we only materialize 10 % of
//! > each inverted index, which is shown in \[14\] to be adequate."
//!
//! * [`inverted`] — the per-group neighbor lists with configurable
//!   materialization fraction and an exact on-demand fallback,
//! * [`graph`] — the undirected group graph `G` (edge ⇔ groups overlap)
//!   that exploration navigates,
//! * [`cache`] — the shared read-through cache over neighbor queries and
//!   its carry-over across an epoch swap,
//! * [`overlap`] — the pair overlap counts a live refresh carries across
//!   epochs and lays out each new index from.
//!
//! Index construction uses a flat CSR member→groups inverted map
//! ([`inverted::MemberGroupsCsr`]) so that only *overlapping* pairs are
//! ever scored (non-overlapping pairs have Jaccard similarity 0 and never
//! enter a neighbor list); the build scores, ranks and keeps one whole
//! neighbor row per group and shards the rows across threads with
//! crossbeam.
//! A live refresh does not walk the CSR: [`OverlapRows::advance`] moves
//! the carried counts by the epoch's membership flips and lays out the
//! same bytes [`GroupIndex::build`] would, plus the survivor id remap and
//! dirty set that [`NeighborCache::carry_over`] reads through
//! [`IndexPatch::carries`].

pub mod cache;
pub mod graph;
pub mod inverted;
pub mod overlap;
pub mod snapshot;

pub use cache::{CacheStats, NeighborCache};
pub use graph::OverlapGraph;
pub use inverted::{GroupIndex, IndexConfig, IndexPatch, IndexStats, MemberGroupsCsr};
pub use overlap::OverlapRows;
