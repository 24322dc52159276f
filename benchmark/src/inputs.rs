//! Everything a workload feeds the crates, derived from `--seed`: datasets,
//! click scripts and session configurations. The crates only ever see the
//! generated inputs.

use std::time::Duration;
use vexus_core::EngineConfig;
use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus_data::UserData;
use vexus_mining::DiscoverySelection;

/// Independent ×4 datasets ("units") the `build` and `live-durable`
/// workloads run over. Several set-ups per run give `setup_s` a median, and
/// several datasets per run average out much of what one generated dataset's
/// shape does to the timings.
pub const UNITS: usize = 3;

/// SplitMix64: a tiny, platform-independent seeded generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A sub-seed for one purpose (`stream`) of one unit, so datasets, scripts
/// and sampling never share a random sequence.
pub fn derive_seed(seed: u64, unit: usize, stream: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    for _ in 0..=unit {
        rng.next_u64();
    }
    rng.next_u64()
}

/// The `bookcrossing` dataset of unit `unit` at `scale` (×1 = 5 000 users,
/// 4 000 books, 30 000 ratings, 8 communities).
pub fn dataset(seed: u64, unit: usize, scale: usize) -> UserData {
    bookcrossing(&BookCrossingConfig {
        n_users: 5_000 * scale,
        n_books: 4_000 * scale,
        n_ratings: 30_000 * scale,
        n_communities: 8,
        seed: derive_seed(seed, unit, 1),
    })
    .data
}

/// Per-session click script: `targets[step]` in `[0, 1)` is the position in
/// the engine's log group-size range the session aims for at that step; it
/// clicks the displayed group closest to it in size.
///
/// A click's cost follows the clicked group's size (log-log correlation 0.93
/// on the reference box), so scripts that pick display slots at random make
/// a run's total work a lottery over how many large groups its walks meet.
/// A golden-ratio sequence from a seeded phase instead spreads every
/// session's targets evenly over the size range, whatever the seed.
pub fn click_script(seed: u64, unit: usize, session: usize, steps: usize) -> Vec<f64> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut rng = SplitMix64::new(derive_seed(seed, unit, 2 + session as u64));
    let phase = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (0..steps)
        .map(|step| (phase + step as f64 * GOLDEN).fract())
        .collect()
}

/// Paper settings with a greedy budget that never binds, so a click's
/// outcome and cost depend only on the session's own state.
fn unbounded_config(candidate_pool: usize) -> EngineConfig {
    let mut cfg = EngineConfig::paper().with_budget(Duration::from_secs(600));
    cfg.candidate_pool = candidate_pool;
    cfg
}

/// The `d5` session configuration: candidate pool 96, unbounded budget.
pub fn converged_config() -> EngineConfig {
    unbounded_config(96)
}

/// A cheap deterministic session configuration for equality checks between
/// two engines.
pub fn probe_config() -> EngineConfig {
    unbounded_config(16)
}

/// The live engine's configuration: paper settings over the stream miner.
pub fn stream_config() -> EngineConfig {
    EngineConfig::paper().with_discovery(DiscoverySelection::StreamFim {
        support: 0.02,
        epsilon: 0.004,
        max_len: 3,
    })
}

/// Scale a count sized for the default run length to `--seconds`.
pub fn scaled(base: usize, seconds: u64, floor: usize) -> usize {
    ((base as u64 * seconds + crate::DEFAULT_SECONDS / 2) / crate::DEFAULT_SECONDS)
        .max(floor as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        assert_eq!(derive_seed(7, 1, 1), derive_seed(7, 1, 1));
        assert_ne!(derive_seed(7, 1, 1), derive_seed(7, 2, 1));
        assert_ne!(derive_seed(7, 1, 1), derive_seed(7, 1, 2));
        assert_ne!(derive_seed(7, 1, 1), derive_seed(8, 1, 1));
        assert_eq!(click_script(3, 0, 5, 16), click_script(3, 0, 5, 16));
        assert_ne!(click_script(3, 0, 5, 16), click_script(3, 0, 6, 16));
    }

    #[test]
    fn counts_scale_with_seconds() {
        assert_eq!(scaled(24, crate::DEFAULT_SECONDS, 2), 24);
        assert_eq!(scaled(24, crate::DEFAULT_SECONDS * 2, 2), 48);
        assert_eq!(scaled(24, 1, 4), 4);
    }
}
