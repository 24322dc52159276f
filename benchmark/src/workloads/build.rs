//! `build`: the offline pipeline and cold start.
//!
//! The only workload where `mining` (batch LCM, the sharded merge and
//! closure exchange) and the `index` build do most of the work, and `greedy`
//! does none: every other workload is this one's "predicted no change"
//! control for build-side optimisations, and the other way round.

use crate::inputs::{self, UNITS};
use crate::report::{Checks, Report};
use crate::stats;
use crate::trace::{Tracer, ROOT};
use crate::Params;
use std::collections::HashMap;
use std::time::Instant;
use vexus_core::engine::VexusBuilder;
use vexus_core::{EngineConfig, Vexus};
use vexus_data::{UserData, Vocabulary};
use vexus_index::{GroupIndex, IndexConfig};
use vexus_mining::transactions::TransactionDb;
use vexus_mining::{
    DiscoverySelection, GroupDiscovery, GroupSet, LcmConfig, LcmDiscovery, MergeContext,
    ShardScaled, ShardedDiscovery,
};

/// Dataset scale (×4 = 20 000 users, 16 000 books, 120 000 ratings).
const SCALE: usize = 4;
const SHARDS: usize = 4;
/// Per unit at the default run length.
const BUILDS_PER_UNIT: usize = 5;
const SHARDED_PER_UNIT: usize = 2;
/// Cold starts after every build.
const LOADS_PER_BUILD: usize = 3;

/// Share of `reference`'s groups that `other` holds with the same
/// description and the same members.
fn recall(reference: &GroupSet, other: &GroupSet) -> f64 {
    if reference == other {
        return 1.0;
    }
    let by_description: HashMap<_, _> = other
        .iter()
        .map(|(_, g)| (&g.description, &g.members))
        .collect();
    let found = reference
        .iter()
        .filter(|(_, g)| by_description.get(&g.description) == Some(&&g.members))
        .count();
    found as f64 / reference.len().max(1) as f64
}

/// The LCM backend `EngineConfig::paper()` selects, spelled out for the
/// stage replays.
fn paper_lcm(cfg: &EngineConfig) -> LcmDiscovery {
    let DiscoverySelection::Lcm {
        max_description,
        max_groups,
    } = cfg.discovery
    else {
        panic!("the paper configuration mines with LCM");
    };
    LcmDiscovery::new(LcmConfig {
        min_support: cfg.min_group_size,
        max_description,
        max_groups,
        emit_root: false,
    })
}

pub fn run(p: &Params, mut tracer: Option<&mut Tracer>, report: &mut Report) {
    let cfg = EngineConfig::paper();
    let sharded_cfg = cfg
        .clone()
        .with_discovery(DiscoverySelection::default().sharded(SHARDS));
    let builds = inputs::scaled(BUILDS_PER_UNIT, p.seconds, 1);
    let sharded = inputs::scaled(SHARDED_PER_UNIT, p.seconds, 1);
    let mut checks = Checks::default();
    let (mut build_s, mut sharded_s, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut recalls = Vec::new();
    let (mut snapshot_write_ms, mut snapshot_bytes, mut heap_bytes) = (vec![], vec![], vec![]);
    let mut replay_ratio = Vec::new();
    let mut counts = Counts::default();
    let mut groups_total = 0;

    for u in 0..UNITS {
        let t0 = Instant::now();
        let data = inputs::dataset(p.seed, u, SCALE);
        report.setup_s.push(t0.elapsed().as_secs_f64());

        // Builds, sharded builds and cold starts interleave, so that each
        // metric samples the whole unit's time window and not one burst.
        let mut first: Option<(Vexus, Vec<u8>)> = None;
        let mut loaded = None;
        for i in 0..builds {
            // --- The unit of work, replayed stage by stage when traced.
            let input = data.clone();
            let t0 = Instant::now();
            let engine = VexusBuilder::new(input).config(cfg.clone()).build();
            let t1 = Instant::now();
            let secs = t1.duration_since(t0).as_secs_f64();
            build_s.push(secs);
            checks.check(engine.is_ok(), || format!("build {i} of unit {u} failed"));
            let Ok(engine) = engine else { continue };
            if let Some(tr) = tracer.as_deref_mut() {
                let request = (u * 1_000 + i) as u64;
                tr.record("core.build", request, ROOT, t0, t1);
                let (replayed, replay_us) = replay_build(tr, request, &data, &cfg, &mut counts);
                replay_ratio.push(replay_us / (secs * 1e6));
                checks.check(&replayed == engine.groups(), || {
                    "stage replay mined a different group space".into()
                });
            }
            let (built, snapshot) = first.get_or_insert_with(|| {
                let t = Instant::now();
                let snapshot = engine.write_snapshot();
                snapshot_write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                snapshot_bytes.push(snapshot.len() as f64);
                heap_bytes.push(engine.heap_bytes() as f64);
                groups_total += engine.groups().len();
                (engine, snapshot)
            });

            // --- The 4-shard exact build must reproduce the same group space.
            if i < sharded {
                let input = data.clone();
                let t0 = Instant::now();
                let engine = VexusBuilder::new(input).config(sharded_cfg.clone()).build();
                let t1 = Instant::now();
                sharded_s.push(t1.duration_since(t0).as_secs_f64());
                // The merge emits groups in another order than the miner's
                // DFS, so the spaces are compared as sets.
                let r = engine
                    .as_ref()
                    .map_or(0.0, |e| recall(built.groups(), e.groups()));
                let exact = matches!(&engine, Ok(e) if r == 1.0 && e.groups().len() == built.groups().len());
                checks.check(exact, || {
                    format!("sharded build {i} of unit {u}: recall {r}")
                });
                recalls.push(r);
                if let (Some(tr), Ok(engine)) = (tracer.as_deref_mut(), &engine) {
                    let request = (u * 1_000 + 500 + i) as u64;
                    tr.record("core.build_sharded", request, ROOT, t0, t1);
                    let replayed = replay_sharded(tr, request, &data, &cfg, &mut counts);
                    checks.check(&replayed == engine.groups(), || {
                        "sharded stage replay merged a different group space".into()
                    });
                }
            }

            // --- Cold starts from the unit's snapshot.
            for _ in 0..LOADS_PER_BUILD {
                // Dropping the previous engine first lets loads recycle the
                // same allocations instead of timing fresh page faults.
                drop(loaded.take());
                let input = data.clone();
                let t = Instant::now();
                let engine = Vexus::from_snapshot(input, snapshot, cfg.clone());
                load_ms.push(t.elapsed().as_secs_f64() * 1e3);
                checks.check(engine.is_ok(), || {
                    format!("load after build {i} of unit {u} failed")
                });
                loaded = engine.ok();
            }
        }
        if let (Some((built, snapshot)), Some(loaded)) = (first, loaded) {
            checks.check(loaded.write_snapshot() == snapshot, || {
                "loaded engine re-encodes to different bytes".into()
            });
            if u == 0 {
                // One deterministic opening step per engine, once per run:
                // at this scale it costs a few hundred milliseconds.
                let probe = inputs::probe_config();
                let a = built
                    .session_with(probe.clone())
                    .map(|s| s.display().to_vec());
                let b = loaded.session_with(probe).map(|s| s.display().to_vec());
                checks.check(a.is_ok() && a == b, || {
                    format!("loaded engine opens on another display: {a:?} vs {b:?}")
                });
            }
        }
    }

    // --- Metrics.
    let build = report.e2e_timing("build_s", &build_s, 1.0);
    report.e2e("build_max_s", build.tail, build.n);
    report.e2e_timing("build_sharded_s", &sharded_s, 1.0);
    let busy: f64 = build_s.iter().chain(&sharded_s).sum();
    let n_builds = build_s.len() + sharded_s.len();
    report.e2e("builds_per_s", n_builds as f64 / busy, n_builds);
    report.e2e_timing("snapshot_load_ms", &load_ms, 1.0);
    report.e2e("sharded_recall", stats::mean(&recalls), recalls.len());
    report.checks = checks;
    report.sizes = format!(
        "x{SCALE} dataset, {UNITS} datasets x ({builds} VexusBuilder::build (LCM) + {sharded} \
         {SHARDS}-shard SupportRecount build + write_snapshot + {} from_snapshot); \
         {groups_total} groups",
        builds * LOADS_PER_BUILD,
    );

    if let Some(tr) = tracer {
        for (metric, span) in [
            ("data.vocab_build_ms", "data.vocab_build"),
            ("mining.lcm_discover_ms", "mining.lcm_discover"),
            ("index.build_ms", "index.build"),
            ("mining.shard_mine_ms", "mining.shard_mine"),
            ("mining.shard_merge_ms", "mining.shard_merge"),
        ] {
            report.layer_median(metric, &tr.durations(span), 1e-3);
        }
        report.layer_median(
            "core.build_other_ms",
            &tr.self_times_of("core.build_replay"),
            1e-3,
        );
        report.layer_median("core.build_replay_ratio", &replay_ratio, 1.0);
        report.layer_median("mining.lcm_groups", &counts.lcm_groups, 1.0);
        report.layer_median("index.scored_pairs", &counts.scored_pairs, 1.0);
        report.layer_median(
            "index.materialized_entries",
            &counts.materialized_entries,
            1.0,
        );
        report.layer_median("index.heap_bytes", &counts.index_heap_bytes, 1.0);
        report.layer_median(
            "mining.exchange_candidates",
            &counts.exchange_candidates,
            1.0,
        );
        report.layer_median("core.snapshot_write_ms", &snapshot_write_ms, 1.0);
        report.layer_median("core.snapshot_bytes", &snapshot_bytes, 1.0);
        report.layer_median("core.engine_heap_bytes", &heap_bytes, 1.0);
    }
}

/// Exact counts the stage replays read off the layers' own statistics.
#[derive(Default)]
struct Counts {
    lcm_groups: Vec<f64>,
    scored_pairs: Vec<f64>,
    materialized_entries: Vec<f64>,
    index_heap_bytes: Vec<f64>,
    exchange_candidates: Vec<f64>,
}

/// `VexusBuilder::build` again, stage by stage through the public functions
/// it composes. Returns the filtered group space and the replay's duration
/// in microseconds.
fn replay_build(
    tr: &mut Tracer,
    request: u64,
    data: &UserData,
    cfg: &EngineConfig,
    counts: &mut Counts,
) -> (GroupSet, f64) {
    let backend = paper_lcm(cfg);
    let root = tr.open("core.build_replay", request, ROOT);
    let (vocab, _) = tr.time("data.vocab_build", request, root, || {
        Vocabulary::build(data)
    });
    let (outcome, _) = tr.time("mining.lcm_discover", request, root, || {
        backend.discover(data, &vocab)
    });
    let mut groups = outcome.groups;
    counts.lcm_groups.push(groups.len() as f64);
    groups.filter_by_size(cfg.min_group_size, usize::MAX);
    let (index, _) = tr.time("index.build", request, root, || {
        GroupIndex::build(
            &groups,
            &IndexConfig {
                materialize_fraction: cfg.materialize_fraction,
                threads: 0,
            },
        )
    });
    let replay_us = tr.close(root);
    let stats = index.stats();
    counts.scored_pairs.push(stats.scored_pairs as f64);
    counts
        .materialized_entries
        .push(stats.materialized_entries as f64);
    counts.index_heap_bytes.push(stats.heap_bytes as f64);
    (groups, replay_us)
}

/// The discovery stage of the sharded build, split where
/// `ShardedDiscovery::discover` splits it: per-shard mining, then the
/// support-recount merge with its closure exchange.
fn replay_sharded(
    tr: &mut Tracer,
    request: u64,
    data: &UserData,
    cfg: &EngineConfig,
    counts: &mut Counts,
) -> GroupSet {
    let driver = ShardedDiscovery::new(paper_lcm(cfg), SHARDS)
        .support_recount(cfg.min_group_size)
        .with_merge_threads(cfg.merge_threads)
        .with_exchange_rounds(cfg.exchange_rounds);
    let vocab = Vocabulary::build(data);
    let ((parts, _), _) = tr.time("mining.shard_mine", request, ROOT, || {
        driver.mine_parts(data, &vocab)
    });
    let ((merged, telemetry), _) = tr.time("mining.shard_merge", request, ROOT, || {
        let db = TransactionDb::build(data, &vocab);
        let ctx = MergeContext::new(data, &vocab)
            .with_db(&db)
            .with_threads(driver.merge_threads)
            .with_exchange_rounds(driver.exchange_rounds)
            .with_partial_parts(true)
            .with_keep_population_group(driver.backend.emits_population_group());
        driver.merge.merge_in_traced(parts, &ctx)
    });
    counts
        .exchange_candidates
        .push(telemetry.exchange_candidates as f64);
    let mut groups = driver.backend.finish_merge(merged);
    groups.filter_by_size(cfg.min_group_size, usize::MAX);
    groups
}
