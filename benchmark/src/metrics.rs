//! The metric ledger: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — its regression bound.
//!
//! `BENCHMARK.json` lists [`CONTRACT`] as `end_to_end` and [`PER_LAYER`] as
//! `per_layer`; a unit test keeps the file and these tables in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

/// The end-to-end metrics every workload reports — `BENCHMARK.json`'s
/// `end_to_end`. Each workload fills a slot with the quantity of that kind
/// it natively measures (see [`NAMED`] for which).
pub const CONTRACT: &[EndToEnd] = &[
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "tail latency of the workload's unit of work: p90 ExplorationService::click \
                  (explore-*), p95 refresh (live-durable), slowest VexusBuilder::build (build)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "throughput of the timed phase: builds (sharded ones included), timed clicks \
                  (views and backtracks inside the wall clock), or ingested actions per second",
    },
    EndToEnd {
        name: "cold_start_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "time until the system can serve: Vexus::from_snapshot (build), a session's \
                  opening display (explore-*), LiveEngine::recover (live-durable)",
    },
    EndToEnd {
        name: "quality_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        meaning: "result quality against the exact reference: sharded recall of the unsharded \
                  group space (build), P2 objective reached / select_k_unbounded on the same \
                  inputs (explore-*), patched index lists equal to a rebuild (live-durable)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median set-up of one unit: dataset generation + engine build/bootstrap + \
                  session opens and warm-up clicks before timing",
    },
];

/// A workload's own end-to-end metric and the [`CONTRACT`] slot it fills
/// (`None`: printed with every result but not bounded by `BENCHMARK.json`).
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workloads: &'static [&'static str],
    pub slot: Option<&'static str>,
    pub meaning: &'static str,
}

const EXPLORE: &[&str] = &["explore-converged", "explore-paper"];

pub const NAMED: &[Named] = &[
    Named {
        name: "build_s",
        unit: "s",
        better: Better::Lower,
        workloads: &["build"],
        slot: None,
        meaning: "median VexusBuilder::build, data -> discovery -> filter -> index",
    },
    Named {
        name: "build_max_s",
        unit: "s",
        better: Better::Lower,
        workloads: &["build"],
        slot: Some("op_tail_ms"),
        meaning: "slowest VexusBuilder::build of the run (too few samples for a percentile)",
    },
    Named {
        name: "build_sharded_s",
        unit: "s",
        better: Better::Lower,
        workloads: &["build"],
        slot: None,
        meaning: "median 4-shard exact build (moves ops_per_s on build)",
    },
    Named {
        name: "builds_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: &["build"],
        slot: Some("ops_per_s"),
        meaning: "unsharded + sharded builds / their summed wall clock",
    },
    Named {
        name: "snapshot_load_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: &["build"],
        slot: Some("cold_start_ms"),
        meaning: "median Vexus::from_snapshot",
    },
    Named {
        name: "sharded_recall",
        unit: "ratio",
        better: Better::Higher,
        workloads: &["build"],
        slot: Some("quality_ratio"),
        meaning: "share of the unsharded group space the 4-shard build reproduces",
    },
    Named {
        name: "click_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: EXPLORE,
        slot: None,
        meaning: "median ExplorationService::click",
    },
    Named {
        name: "click_p90_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: EXPLORE,
        slot: Some("op_tail_ms"),
        meaning: "p90 click (steadier between seeds than the p95 printed beside click_p50_ms); \
                  pinned at the 100 ms budget on explore-paper (P3)",
    },
    Named {
        name: "clicks_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: EXPLORE,
        slot: Some("ops_per_s"),
        meaning: "timed clicks / wall clock of the stepping phase",
    },
    Named {
        name: "session_open_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: EXPLORE,
        slot: Some("cold_start_ms"),
        meaning: "median ExplorationService::open_with (the opening greedy step)",
    },
    Named {
        name: "quality_ratio",
        unit: "ratio",
        better: Better::Higher,
        workloads: EXPLORE,
        slot: Some("quality_ratio"),
        meaning:
            "mean over sampled clicks of the P2 objective reached / the objective \
                  greedy::select_k_unbounded reaches on the same candidates, reference and feedback",
    },
    Named {
        name: "view_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: EXPLORE,
        slot: None,
        meaning: "median groupviz + stats_view after a click (inside the clicks_per_s wall clock)",
    },
    Named {
        name: "refresh_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: &["live-durable"],
        slot: None,
        meaning: "median RefreshOutcome::refresh_time",
    },
    Named {
        name: "refresh_p95_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: &["live-durable"],
        slot: Some("op_tail_ms"),
        meaning: "p95 refresh; one refresh in eight writes a checkpoint, so this is the stall",
    },
    Named {
        name: "ingest_actions_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: &["live-durable"],
        slot: Some("ops_per_s"),
        meaning: "actions applied / wall clock of the writer loop",
    },
    Named {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        workloads: &["live-durable"],
        slot: Some("cold_start_ms"),
        meaning: "median LiveEngine::recover (checkpoint load + 6-frame replay)",
    },
    Named {
        name: "index_equivalence",
        unit: "ratio",
        better: Better::Higher,
        workloads: &["live-durable"],
        slot: Some("quality_ratio"),
        meaning: "share of the final patched index's lists equal to GroupIndex::build",
    },
    Named {
        name: "wal_bytes_per_action",
        unit: "B",
        better: Better::Lower,
        workloads: &["live-durable"],
        slot: None,
        meaning: "sum of wal_bytes / sum of actions_applied (exact count)",
    },
];

/// A per-layer metric: `crate.name`, and the end-to-end metric and workload
/// it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const BUILD_S: &str = "build_s -> ops_per_s and op_tail_ms on build";
const SHARDED_S: &str = "build_sharded_s -> ops_per_s on build";
const CLICK: &str = "click_p50_ms/click_p90_ms/clicks_per_s on explore-converged; quality_ratio \
                     and core.greedy_exhausted_share first on explore-paper";
const CLICK_NONE: &str = "microseconds against a millisecond greedy: predicted to move no \
                          end-to-end metric at this scale";
const REFRESH: &str = "refresh_p50_ms and ingest_actions_per_s = ops_per_s on live-durable";
const STALL: &str = "refresh_p95_ms = op_tail_ms on live-durable";
const RECOVER: &str = "recover_s = cold_start_ms on live-durable";

pub const PER_LAYER: &[PerLayer] = &[
    // build: stage-by-stage replay of the pipeline.
    layer("data.vocab_build_ms", "ms", Lower, BUILD_S),
    layer("mining.lcm_discover_ms", "ms", Lower, BUILD_S),
    layer("mining.lcm_groups", "count", Lower, BUILD_S),
    layer("index.build_ms", "ms", Lower, BUILD_S),
    layer("index.scored_pairs", "count", Lower, BUILD_S),
    layer("index.materialized_entries", "count", Lower, BUILD_S),
    layer("index.heap_bytes", "B", Lower, BUILD_S),
    layer("core.build_other_ms", "ms", Lower, BUILD_S),
    layer("core.build_replay_ratio", "ratio", Lower, "replayed stages / build_s; 1.0 +- 0.1 when the split accounts for the build"),
    layer("mining.shard_mine_ms", "ms", Lower, SHARDED_S),
    layer("mining.shard_merge_ms", "ms", Lower, SHARDED_S),
    layer("mining.exchange_candidates", "count", Lower, SHARDED_S),
    layer("core.snapshot_write_ms", "ms", Lower, "snapshot_load_ms on build; refresh_p95_ms on live-durable"),
    layer("core.snapshot_bytes", "B", Lower, "snapshot_load_ms on build; refresh_p95_ms on live-durable"),
    layer("core.engine_heap_bytes", "B", Lower, "memory; guards time-for-space trades"),
    // explore-*: shadow replay of sampled clicks.
    layer("core.serve_click_us", "us", Lower, CLICK),
    layer("core.feedback_reward_us", "us", Lower, CLICK),
    layer("core.greedy_select_us", "us", Lower, CLICK),
    layer("core.quality_evaluate_us", "us", Lower, CLICK),
    layer("core.greedy_rounds_mean", "count", Higher, CLICK),
    layer("core.greedy_pool_mean", "count", Lower, CLICK),
    layer("core.greedy_exhausted_share", "ratio", Lower, CLICK),
    layer("core.serve_overhead_us", "us", Lower, CLICK),
    layer("core.click_replay_ratio", "ratio", Lower, "replayed click / real click; 1.0 +- 0.1 when the split accounts for the click"),
    layer("index.cache_neighbors_us", "us", Lower, CLICK_NONE),
    layer("index.neighbors_us", "us", Lower, CLICK_NONE),
    layer("index.cache_hit_rate", "ratio", Higher, CLICK_NONE),
    layer("index.fallback_share", "ratio", Lower, CLICK_NONE),
    layer("core.session_open_ms", "ms", Lower, "session_open_ms = cold_start_ms and setup_s on explore-*"),
    layer("core.backtrack_us", "us", Lower, "clicks_per_s on explore-* (inside the wall clock)"),
    layer("viz.groupviz_us", "us", Lower, "view_p50_ms -> clicks_per_s on explore-*"),
    layer("stats.stats_view_us", "us", Lower, "view_p50_ms -> clicks_per_s on explore-*"),
    layer("viz.focus_view_ms", "ms", Lower, "traced run only, on sampled clicks"),
    // live-durable: shadow pipeline fed the same batches.
    layer("data.ingest_pull_us", "us", Lower, REFRESH),
    layer("data.wal_append_us", "us", Lower, REFRESH),
    layer("data.wal_frame_bytes", "B", Lower, "wal_bytes_per_action on live-durable"),
    layer("data.append_actions_us", "us", Lower, REFRESH),
    layer("data.userdata_clone_us", "us", Lower, REFRESH),
    layer("mining.stream_observe_us", "us", Lower, REFRESH),
    layer("mining.stream_epoch_us", "us", Lower, REFRESH),
    layer("mining.groups_touched_mean", "count", Lower, REFRESH),
    layer("index.apply_delta_us", "us", Lower, REFRESH),
    layer("index.rescored_share", "ratio", Lower, REFRESH),
    layer("index.rebuild_us", "us", Lower, "full GroupIndex::build of the same epoch: the patch-vs-rebuild crossover"),
    layer("index.cache_carry_us", "us", Lower, REFRESH),
    layer("index.cache_carried_share", "ratio", Higher, "core.live_click_p50_ms after an epoch swap"),
    layer("core.refresh_other_us", "us", Lower, REFRESH),
    layer("core.refresh_replay_ratio", "ratio", Lower, "replayed stages / refresh without checkpoint; 1.0 +- 0.1 when the split accounts for the refresh"),
    layer("core.checkpoint_ms", "ms", Lower, STALL),
    layer("core.checkpoint_bytes", "B", Lower, STALL),
    layer("core.disk_bytes", "B", Lower, STALL),
    layer("core.recover_load_ms", "ms", Lower, RECOVER),
    layer("core.recover_frame_ms", "ms", Lower, RECOVER),
    layer("data.wal_scan_us", "us", Lower, RECOVER),
    layer("core.live_click_p50_ms", "ms", Lower, "guards reads beside writes (budget-pinned, few samples)"),
    layer("core.live_open_p50_ms", "ms", Lower, "guards reads beside writes (budget-pinned, few samples)"),
    // every workload
    layer("trace_overhead_pct", "%", Lower, "median unit latency of the traced pass against the untraced pass of the same invocation"),
];

pub fn contract(name: &str) -> Option<&'static EndToEnd> {
    CONTRACT.iter().find(|m| m.name == name)
}

pub fn named(name: &str) -> Option<&'static Named> {
    NAMED.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in CONTRACT
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "metric name {name} used twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(CONTRACT.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(CONTRACT.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = contract("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn every_slot_is_filled_on_every_workload() {
        for w in crate::WORKLOADS {
            for slot in CONTRACT.iter().filter(|m| m.name != "setup_s") {
                let fillers: Vec<_> = NAMED
                    .iter()
                    .filter(|n| n.slot == Some(slot.name) && n.workloads.contains(&w.name))
                    .collect();
                assert_eq!(fillers.len(), 1, "{} on {}", slot.name, w.name);
                assert_eq!(fillers[0].better, slot.better);
            }
        }
    }
}
