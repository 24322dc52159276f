//! # vexus — umbrella crate
//!
//! Re-exports the full VEXUS stack (see the README):
//!
//! * [`data`] — schema, columnar user data, CSV ETL, streams, synthetic datasets
//! * [`mining`] — group discovery (LCM, α-MOMRI, BIRCH, stream FIM)
//! * [`index`] — Jaccard similarity index over groups
//! * [`stats`] — crossfilter-style coordinated views
//! * [`viz`] — force layout, LDA/PCA projection, SVG rendering
//! * [`core`] — feedback learning, greedy group selection, exploration sessions

pub use vexus_core as core;
pub use vexus_data as data;
pub use vexus_index as index;
pub use vexus_mining as mining;
pub use vexus_stats as stats;
pub use vexus_viz as viz;
