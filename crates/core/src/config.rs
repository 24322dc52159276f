//! Engine configuration: the knobs the paper fixes and the experiments
//! sweep.

use std::time::Duration;
use vexus_index::{IndexConfig, NeighborCache};
use vexus_mining::DiscoverySelection;

/// Configuration of the exploration engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Groups per GroupViz step — principle P1. "It is shown in previous
    /// research that k ≤ 7 is an ideal match for human perception
    /// capacity."
    pub k: usize,
    /// Time budget for the greedy optimizer — principle P3. "We safely set
    /// the time limit to 100 ms (i.e., continuity preserving latency)."
    pub time_budget: Duration,
    /// Lower bound on (unweighted) similarity between the clicked group and
    /// any offered next group.
    pub min_similarity: f64,
    /// How many index neighbors feed the candidate pool per step.
    pub candidate_pool: usize,
    /// Objective weight of diversity in the greedy score.
    pub diversity_weight: f64,
    /// Objective weight of coverage in the greedy score.
    pub coverage_weight: f64,
    /// Strength of feedback bias in weighted similarity (`0` disables
    /// feedback — the NoFeedback ablation baseline of C7).
    pub feedback_weight: f64,
    /// Fraction of each inverted index materialized offline (paper: 0.10).
    pub materialize_fraction: f64,
    /// Minimum group size kept after discovery (the size-filter stage,
    /// applied to every backend's output).
    pub min_group_size: usize,
    /// Which discovery backend the offline pipeline runs (LCM, α-MOMRI,
    /// BIRCH or stream FIM) and its per-algorithm knobs.
    pub discovery: DiscoverySelection,
    /// Worker threads for the merge layer's support recount when
    /// `discovery` is a sharded or ensemble composite (`0` = available
    /// parallelism). Purely a performance knob: the merged group space is
    /// byte-identical at any count.
    pub merge_threads: usize,
    /// Cross-shard closure exchange rounds for composite discovery's
    /// support-recount merge. The default `1` makes sharded LCM reproduce
    /// the unsharded closed-group space exactly at any shard count; `0`
    /// disables the exchange (sound, but oversharded runs may lose a
    /// sub-percent recall tail to shard-local closure growth). The
    /// broadcast is frequency-pruned and deduplicated — cost trims only,
    /// the merged space is unchanged; see `vexus_mining::MergeContext`.
    pub exchange_rounds: usize,
    /// Capacity (entries) of the engine's shared read-through cache over
    /// index neighbor queries. The index is immutable post-build, so a
    /// cached neighbor list serves *every* session on the engine; `0`
    /// stores nothing, so every query goes to the index. Purely a
    /// performance knob: cached and uncached answers are byte-identical.
    pub neighbor_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            k: 5,
            time_budget: Duration::from_millis(100),
            min_similarity: 0.01,
            candidate_pool: 256,
            diversity_weight: 1.0,
            coverage_weight: 1.0,
            feedback_weight: 0.5,
            materialize_fraction: 0.10,
            min_group_size: 5,
            discovery: DiscoverySelection::default(),
            merge_threads: 0,
            exchange_rounds: 1,
            neighbor_cache_capacity: 4096,
        }
    }
}

impl EngineConfig {
    /// The paper's fixed setting (k = 5 circles, 100 ms budget, 10 %
    /// materialization).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation: disable feedback learning (uniform weights).
    pub fn without_feedback(mut self) -> Self {
        self.feedback_weight = 0.0;
        self
    }

    /// Builder-style: change `k`, clamped to `1..=12` (beyond the paper's
    /// perception bound but useful for the C5 sweep).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.clamp(1, 12);
        self
    }

    /// Builder-style: change the greedy time budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.time_budget = budget;
        self
    }

    /// Builder-style: select the discovery backend.
    pub fn with_discovery(mut self, discovery: DiscoverySelection) -> Self {
        self.discovery = discovery;
        self
    }

    /// Builder-style: set the merge recount worker count (`0` = auto).
    pub fn with_merge_threads(mut self, merge_threads: usize) -> Self {
        self.merge_threads = merge_threads;
        self
    }

    /// Builder-style: set the closure exchange round count (`0` = off).
    pub fn with_exchange_rounds(mut self, exchange_rounds: usize) -> Self {
        self.exchange_rounds = exchange_rounds;
        self
    }

    /// The index build configuration every engine-assembling path uses:
    /// this config's materialization fraction on all available cores.
    pub(crate) fn index_config(&self) -> IndexConfig {
        IndexConfig {
            materialize_fraction: self.materialize_fraction,
            threads: 0,
        }
    }

    /// A fresh, empty neighbor cache of the configured capacity (at 0 it
    /// stores nothing).
    pub(crate) fn new_neighbor_cache(&self) -> NeighborCache {
        NeighborCache::new(self.neighbor_cache_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_text() {
        let c = EngineConfig::paper();
        assert!(c.k <= 7, "P1: limited options");
        assert_eq!(c.time_budget, Duration::from_millis(100));
        assert!((c.materialize_fraction - 0.10).abs() < 1e-12);
    }

    #[test]
    fn builders() {
        let c = EngineConfig::default()
            .with_k(100)
            .with_budget(Duration::from_millis(5));
        assert_eq!(c.k, 12);
        assert_eq!(c.time_budget, Duration::from_millis(5));
        let nf = EngineConfig::default().without_feedback();
        assert_eq!(nf.feedback_weight, 0.0);
        // Merge parallelism defaults to auto (0) and is a plain knob.
        assert_eq!(EngineConfig::default().merge_threads, 0);
        assert_eq!(
            EngineConfig::default().with_merge_threads(4).merge_threads,
            4
        );
        // The closure exchange defaults to one round (the exactness
        // guarantee) and can be disabled.
        assert_eq!(EngineConfig::default().exchange_rounds, 1);
        assert_eq!(
            EngineConfig::default()
                .with_exchange_rounds(0)
                .exchange_rounds,
            0
        );
        // Neighbor caching defaults on with a bounded capacity.
        assert!(EngineConfig::default().neighbor_cache_capacity > 0);
    }

    #[test]
    fn sharded_and_ensemble_selections_embed_in_config() {
        use vexus_mining::{DiscoverySelection, MergeSelection};
        let c = EngineConfig::default().with_discovery(DiscoverySelection::default().sharded(8));
        assert!(matches!(
            c.discovery,
            DiscoverySelection::Sharded { shards: 8, .. }
        ));
        let e = EngineConfig::default().with_discovery(DiscoverySelection::Ensemble {
            members: vec![
                DiscoverySelection::default(),
                DiscoverySelection::Birch {
                    branching: 10,
                    threshold: 1.6,
                },
            ],
            merge: MergeSelection::Union,
        });
        assert!(matches!(
            e.discovery,
            DiscoverySelection::Ensemble { ref members, .. } if members.len() == 2
        ));
    }

    #[test]
    fn discovery_selection_is_swappable() {
        let c = EngineConfig::default().with_discovery(vexus_mining::DiscoverySelection::Birch {
            branching: 8,
            threshold: 1.5,
        });
        assert!(matches!(
            c.discovery,
            vexus_mining::DiscoverySelection::Birch { branching: 8, .. }
        ));
        // The default remains the paper's LCM path.
        assert!(matches!(
            EngineConfig::default().discovery,
            vexus_mining::DiscoverySelection::Lcm { .. }
        ));
    }
}
