//! Shared experiment workloads.
//!
//! The two standard engines — laptop-sized slices of the paper's
//! BOOKCROSSING and DB-AUTHORS datasets under [`EngineConfig::paper`] — are
//! built once per process and shared by every experiment that reads them;
//! the record is seeded and runs at this one scale (scale sweeps belong to
//! `benchmark/`). Engines are assembled through [`VexusBuilder`], so a
//! workload can run under any discovery backend (see [`engine_over`]).

use std::sync::OnceLock;
use vexus_core::engine::VexusBuilder;
use vexus_core::{EngineConfig, Vexus};
use vexus_data::synthetic::{
    bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig, SyntheticDataset,
};
use vexus_mining::GroupDiscovery;

/// Build an engine over any dataset with any discovery backend — the
/// plug-in seam the backend-comparison experiment uses.
pub fn engine_over(
    ds: SyntheticDataset,
    backend: Box<dyn GroupDiscovery>,
    config: EngineConfig,
) -> Vexus {
    VexusBuilder::new(ds.data)
        .config(config)
        .discovery_boxed(backend)
        .build()
        .expect("non-empty group space")
}

/// Build the paper-configured engine and keep the dataset's latent
/// community labels beside it.
fn paper_engine(ds: SyntheticDataset) -> (Vexus, Vec<u32>) {
    let vexus = VexusBuilder::new(ds.data)
        .config(EngineConfig::paper())
        .build()
        .expect("non-empty group space");
    (vexus, ds.latent)
}

/// The standard BookCrossing-like engine (5 000 users, 30 000 ratings).
pub fn bookcrossing_engine() -> &'static Vexus {
    static ENGINE: OnceLock<Vexus> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 5_000,
            n_books: 4_000,
            n_ratings: 30_000,
            n_communities: 8,
            seed: 42,
        });
        paper_engine(ds).0
    })
}

/// The standard DB-AUTHORS-like engine (4 000 authors, 30 000
/// publications) and each author's latent community.
pub fn dbauthors_engine() -> (&'static Vexus, &'static [u32]) {
    static ENGINE: OnceLock<(Vexus, Vec<u32>)> = OnceLock::new();
    let (vexus, latent) = ENGINE.get_or_init(|| {
        paper_engine(dbauthors(&DbAuthorsConfig {
            n_authors: 4_000,
            n_publications: 30_000,
            n_communities: 6,
            seed: 42,
        }))
    });
    (vexus, latent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_mining::BirchDiscovery;

    #[test]
    fn engine_over_swaps_backends() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = engine_over(
            ds,
            Box::new(BirchDiscovery::default()),
            EngineConfig::default(),
        );
        assert_eq!(vexus.build_stats().algorithm, "birch");
    }
}
