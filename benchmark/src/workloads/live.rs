//! `live-durable`: a durable live engine ingesting an action tape while a
//! reader explores the current epoch, then a crash and recoveries.
//!
//! The only workload that writes: WAL appends, streaming mining,
//! `GroupIndex::apply_delta` and checkpoints run against the same index and
//! dataset layouts the other workloads only read, so a layout change that
//! helps one side and costs the other shows on one of them.

use crate::inputs::{self, SplitMix64, UNITS};
use crate::report::{Checks, Report};
use crate::scratch::{self, ScratchDir};
use crate::stats;
use crate::trace::{Tracer, ROOT};
use crate::Params;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vexus_core::{CheckpointOutcome, DurabilityConfig, EngineConfig, ExplorationService};
use vexus_core::{LiveEngine, Vexus};
use vexus_data::stream::ReplayStream;
use vexus_data::{Action, IngestBuffer, UserData, Vocabulary, WalSync, WalWriter};
use vexus_index::{GroupIndex, IndexConfig};
use vexus_mining::{DeltaDiscovery, GroupId, GroupSet, StreamFimConfig};

/// Dataset scale (×4 = 20 000 users, 120 000 ratings).
const SCALE: usize = 4;
/// Actions per ingest + refresh.
const BATCH: usize = 250;
/// `DurabilityConfig::new` checkpoints every eighth refresh.
const CHECKPOINT_EVERY: usize = 8;
/// Checkpoints each unit's writer passes at the default run length.
const CHECKPOINTS_PER_UNIT: usize = 22;
/// The engine is dropped this many frames past its last checkpoint.
const FRAMES_PAST_CHECKPOINT: usize = 6;
/// `LiveEngine::recover` runs per unit, each on a copy of the directory.
const RECOVERIES_PER_UNIT: usize = 2;
/// Clicks the reader makes on each session it opens.
const READER_CLICKS: usize = 8;
/// Traced runs rebuild the index from scratch every this-many refreshes.
const REBUILD_EVERY: usize = 8;

fn index_config(cfg: &EngineConfig) -> IndexConfig {
    IndexConfig {
        materialize_fraction: cfg.materialize_fraction,
        threads: 0,
    }
}

/// Share of groups whose published neighbor list is byte-identical to a
/// from-scratch `GroupIndex::build` over the same space.
fn index_equivalence(engine: &Vexus) -> f64 {
    let reference = GroupIndex::build(engine.groups(), &index_config(engine.config()));
    let n = engine.groups().len();
    let equal = (0..n as u32)
        .map(GroupId::new)
        .filter(|&g| {
            engine.index().materialized(g) == reference.materialized(g)
                && engine.index().full_neighbor_count(g) == reference.full_neighbor_count(g)
        })
        .count();
    equal as f64 / n.max(1) as f64
}

fn newest_with_suffix(dir: &Path, suffix: &str) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    files.sort();
    files.pop()
}

/// Samples gathered across units.
#[derive(Default)]
struct Samples {
    refresh_ms: Vec<f64>,
    refresh_plain_ms: Vec<f64>,
    refresh_checkpoint_ms: Vec<f64>,
    recover_s: Vec<f64>,
    equivalence: Vec<f64>,
    actions: usize,
    wal_bytes: u64,
    writer_wall_s: f64,
    reader_open_ms: Vec<f64>,
    reader_click_ms: Vec<f64>,
    // Traced runs only.
    replay_ratio: Vec<f64>,
    wal_frame_bytes: Vec<f64>,
    groups_touched: Vec<f64>,
    rescored_share: Vec<f64>,
    carried_share: Vec<f64>,
    recover_load_ms: Vec<f64>,
    wal_scan_us: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    disk_bytes: Vec<f64>,
}

pub fn run(p: &Params, mut tracer: Option<&mut Tracer>, report: &mut Report) {
    let cfg = inputs::stream_config();
    let checkpoints = inputs::scaled(CHECKPOINTS_PER_UNIT, p.seconds, 2).min(44);
    let refreshes = checkpoints * CHECKPOINT_EVERY + FRAMES_PAST_CHECKPOINT;
    let scratch = ScratchDir::create("live-durable").expect("scratch directory under target/tmp");
    let mut checks = Checks::default();
    let mut s = Samples::default();
    let mut groups_final = 0;

    for u in 0..UNITS {
        // --- Set-up: dataset, 25 % warm-up, durable bootstrap.
        let t0 = Instant::now();
        let (mut base, tape) = inputs::dataset(p.seed, u, SCALE).split_actions();
        let warmup = tape.len() / 4;
        base.append_actions(&tape[..warmup]);
        let dir = scratch.path().join(format!("unit{u}"));
        let live =
            LiveEngine::bootstrap_durable(base.clone(), cfg.clone(), DurabilityConfig::new(&dir))
                .expect("warm-up prefix mines groups");
        let live = Arc::new(live);
        let svc = ExplorationService::live(Arc::clone(&live));
        report.setup_s.push(t0.elapsed().as_secs_f64());

        let batches: Vec<&[Action]> = tape[warmup..].chunks(BATCH).take(refreshes).collect();
        assert_eq!(
            batches.len(),
            refreshes,
            "tape too short for {refreshes} refreshes"
        );
        let mut shadow = tracer.as_deref().map(|_| {
            ShadowPipeline::bootstrap(&base, &cfg, &scratch.path().join(format!("shadow{u}")))
        });
        let boundary = scratch.path().join(format!("boundary{u}"));

        // --- One writer (this thread) and one reader, until the tape ends.
        let done = AtomicBool::new(false);
        let reader_seed = inputs::derive_seed(p.seed, u, 3);
        let reader_out = std::thread::scope(|scope| {
            let reader = scope.spawn(|| read_until(&svc, &done, reader_seed));
            let t_loop = Instant::now();
            for (b, chunk) in batches.iter().enumerate() {
                let before = shadow.as_ref().map(|_| live.engine());
                let drained = live.ingest(&mut ReplayStream::from_actions(chunk), usize::MAX);
                checks.check(drained == Ok(chunk.len()), || {
                    format!("ingest {b}: {drained:?}")
                });
                let outcome = live.refresh();
                let ok = matches!(&outcome, Ok(o) if o.advanced
                    && o.wal_appended
                    && o.epoch == b as u64 + 1
                    && o.checkpoint != CheckpointOutcome::Failed);
                checks.check(ok, || format!("refresh {b}: {outcome:?}"));
                let Ok(o) = outcome else { continue };
                let ms = o.refresh_time.as_secs_f64() * 1e3;
                s.refresh_ms.push(ms);
                let written = o.checkpoint == CheckpointOutcome::Written;
                if written {
                    s.refresh_checkpoint_ms.push(ms);
                } else {
                    s.refresh_plain_ms.push(ms);
                }
                s.actions += o.actions_applied;
                s.wal_bytes += o.wal_bytes;

                if let (Some(tr), Some(sh), Some(before)) =
                    (tracer.as_deref_mut(), shadow.as_mut(), before)
                {
                    let request = (u * 10_000 + b) as u64;
                    let replay_us = sh.step(tr, request, chunk, &before, b, &mut s);
                    if !written {
                        s.replay_ratio.push(replay_us / (ms * 1e3));
                    }
                    s.groups_touched
                        .push((o.groups_added + o.groups_retired + o.groups_resized) as f64);
                    s.rescored_share
                        .push(o.rescored as f64 / sh.groups.len().max(1) as f64);
                    let (old, new) = (before.neighbor_cache(), live.engine());
                    if let (Some(old), Some(new)) = (old, new.neighbor_cache()) {
                        if !old.is_empty() {
                            s.carried_share.push(new.len() as f64 / old.len() as f64);
                        }
                    }
                    if written && b + 1 == refreshes - FRAMES_PAST_CHECKPOINT {
                        scratch::copy_dir(&dir, &boundary)
                            .expect("copy at the checkpoint boundary");
                    }
                }
            }
            s.writer_wall_s += t_loop.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        checks.absorb(reader_out.checks);
        s.reader_open_ms.extend(reader_out.open_ms);
        s.reader_click_ms.extend(reader_out.click_ms);

        // --- Output checks on the final epoch, then the crash.
        let engine = live.engine();
        let equivalence = index_equivalence(&engine);
        checks.check(equivalence == 1.0, || {
            format!("patched index differs from a rebuild: {equivalence}")
        });
        s.equivalence.push(equivalence);
        if let Some(sh) = &shadow {
            checks.check(sh.groups == *engine.groups(), || {
                "shadow pipeline diverged from the live engine's group space".into()
            });
        }
        groups_final += engine.groups().len();
        let published = engine.write_snapshot();
        drop((engine, svc, live)); // no shutdown hook: the directory is a crash image

        if tracer.is_some() {
            s.checkpoint_bytes.extend(
                newest_with_suffix(&dir, ".vxck")
                    .and_then(|p| p.metadata().ok())
                    .map(|m| m.len() as f64),
            );
            s.disk_bytes
                .extend(scratch::dir_bytes(&dir).ok().map(|b| b as f64));
        }
        for r in 0..RECOVERIES_PER_UNIT {
            let copy = scratch.path().join(format!("recover{u}-{r}"));
            scratch::copy_dir(&dir, &copy).expect("copy the crash image");
            let base = base.clone();
            let t = Instant::now();
            let recovered = LiveEngine::recover(base, cfg.clone(), DurabilityConfig::new(&copy));
            s.recover_s.push(t.elapsed().as_secs_f64());
            let ok = matches!(&recovered, Ok((rec, rep))
                if rep.frames_replayed == FRAMES_PAST_CHECKPOINT
                    && rep.final_epoch == refreshes as u64
                    && rec.engine().write_snapshot() == published);
            checks.check(ok, || {
                format!(
                    "recovery {r} of unit {u} is not the published engine: {:?}",
                    recovered.map(|r| r.1)
                )
            });
            std::fs::remove_dir_all(&copy).expect("remove the recovered copy");
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let request = (u * 10_000 + refreshes) as u64;
            if let Some(segment) = newest_with_suffix(&dir, ".vxwl") {
                let (scan, us) = tr.time("data.wal_scan", request, ROOT, || {
                    vexus_data::wal::read_wal(&segment)
                });
                checks.check(
                    matches!(&scan, Ok(sc) if sc.frames.len() == FRAMES_PAST_CHECKPOINT),
                    || "newest WAL segment does not hold the frames past the checkpoint".into(),
                );
                s.wal_scan_us.push(us);
            }
            let (recovered, us) = tr.time("core.recover_load", request, ROOT, || {
                LiveEngine::recover(base.clone(), cfg.clone(), DurabilityConfig::new(&boundary))
            });
            checks.check(
                matches!(&recovered, Ok((_, rep)) if rep.frames_replayed == 0),
                || "boundary recovery replayed frames".into(),
            );
            s.recover_load_ms.push(us / 1e3);
        }
    }

    // --- Metrics.
    let n = s.refresh_ms.len();
    report.e2e_timing("refresh_p50_ms", &s.refresh_ms, 1.0);
    report.e2e("refresh_p95_ms", stats::percentile(&s.refresh_ms, 0.95), n);
    report.e2e(
        "ingest_actions_per_s",
        s.actions as f64 / s.writer_wall_s,
        s.actions,
    );
    let recover = report.e2e_timing("recover_s", &s.recover_s, 1.0);
    report.e2e(
        "index_equivalence",
        stats::mean(&s.equivalence),
        s.equivalence.len(),
    );
    report.e2e(
        "wal_bytes_per_action",
        s.wal_bytes as f64 / s.actions.max(1) as f64,
        s.actions,
    );
    // A WAL frame per refresh, counted from what the refreshes reported.
    checks.check(n == UNITS * refreshes, || {
        format!("{n} refreshes logged, expected {}", UNITS * refreshes)
    });
    report.checks = checks;
    report.sizes = format!(
        "x{SCALE} dataset split 25 % warm-up / 75 % tape, {UNITS} engines x {refreshes} refreshes of \
         {BATCH} actions (StreamFim 0.02/0.004/3, checkpoint every {CHECKPOINT_EVERY}, per-frame \
         fsync, retain 2), 1 writer + 1 reader ({READER_CLICKS} clicks per session, {} sessions), \
         crash {FRAMES_PAST_CHECKPOINT} frames past a checkpoint, {RECOVERIES_PER_UNIT} recoveries \
         per engine; {groups_final} groups at the end",
        s.reader_open_ms.len(),
    );

    if let Some(tr) = tracer {
        for (metric, span) in [
            ("data.ingest_pull_us", "data.ingest_pull"),
            ("data.wal_append_us", "data.wal_append"),
            ("data.append_actions_us", "data.append_actions"),
            ("data.userdata_clone_us", "data.userdata_clone"),
            ("mining.stream_observe_us", "mining.stream_observe"),
            ("mining.stream_epoch_us", "mining.stream_epoch"),
            ("index.apply_delta_us", "index.apply_delta"),
            ("index.rebuild_us", "index.rebuild"),
            ("index.cache_carry_us", "index.cache_carry"),
        ] {
            report.layer_median(metric, &tr.durations(span), 1.0);
        }
        report.layer_median("data.wal_frame_bytes", &s.wal_frame_bytes, 1.0);
        report.layer(
            "mining.groups_touched_mean",
            stats::mean(&s.groups_touched),
            s.groups_touched.len(),
        );
        report.layer(
            "index.rescored_share",
            stats::mean(&s.rescored_share),
            s.rescored_share.len(),
        );
        let carried = if s.carried_share.is_empty() {
            0.0
        } else {
            stats::mean(&s.carried_share)
        };
        report.layer("index.cache_carried_share", carried, s.carried_share.len());
        report.layer_median(
            "core.refresh_other_us",
            &tr.self_times_of("core.refresh_replay"),
            1.0,
        );
        report.layer_median("core.refresh_replay_ratio", &s.replay_ratio, 1.0);
        let stall = stats::median(&s.refresh_checkpoint_ms) - stats::median(&s.refresh_plain_ms);
        report.layer("core.checkpoint_ms", stall, s.refresh_checkpoint_ms.len());
        report.layer_median("core.checkpoint_bytes", &s.checkpoint_bytes, 1.0);
        report.layer_median("core.disk_bytes", &s.disk_bytes, 1.0);
        report.layer_median("core.recover_load_ms", &s.recover_load_ms, 1.0);
        let load_ms = stats::median(&s.recover_load_ms);
        let per_frame = (recover.p50 * 1e3 - load_ms) / FRAMES_PAST_CHECKPOINT as f64;
        report.layer("core.recover_frame_ms", per_frame, s.recover_s.len());
        report.layer_median("data.wal_scan_us", &s.wal_scan_us, 1.0);
        report.layer_median("core.live_click_p50_ms", &s.reader_click_ms, 1.0);
        report.layer_median("core.live_open_p50_ms", &s.reader_open_ms, 1.0);
    }
}

struct ReaderOut {
    checks: Checks,
    open_ms: Vec<f64>,
    click_ms: Vec<f64>,
}

/// The reader: open a session on the current epoch, click, close, repeat
/// until the writer is done. Every verb must succeed across epoch swaps.
fn read_until(svc: &ExplorationService, done: &AtomicBool, seed: u64) -> ReaderOut {
    let mut rng = SplitMix64::new(seed);
    let mut out = ReaderOut {
        checks: Checks::default(),
        open_ms: Vec::new(),
        click_ms: Vec::new(),
    };
    while !done.load(Ordering::Acquire) {
        let t = Instant::now();
        let opened = svc.open();
        out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.checks
            .check(opened.is_ok(), || format!("reader open: {opened:?}"));
        let Ok((id, mut display)) = opened else {
            continue;
        };
        for _ in 0..READER_CLICKS {
            if display.is_empty() || done.load(Ordering::Acquire) {
                break;
            }
            let g = display[(rng.next_u64() >> 33) as usize % display.len()];
            let t = Instant::now();
            let shown = svc.click(id, g);
            out.click_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.checks
                .check(shown.is_ok(), || format!("reader click: {shown:?}"));
            match shown {
                Ok(d) => display = d,
                Err(_) => break,
            }
        }
        let closed = svc.close(id);
        out.checks
            .check(closed.is_ok(), || format!("reader close: {closed:?}"));
    }
    out
}

/// The traced run's second pipeline: the public functions a refresh is made
/// of, fed the same batches as the live engine, one span per call.
struct ShadowPipeline {
    data: UserData,
    vocab: Vocabulary,
    buffer: IngestBuffer,
    wal: WalWriter,
    discovery: DeltaDiscovery,
    groups: GroupSet,
    index: GroupIndex,
    index_cfg: IndexConfig,
}

impl ShadowPipeline {
    /// Mirrors `LiveEngine::bootstrap_durable` up to the published epoch 0.
    fn bootstrap(base: &UserData, cfg: &EngineConfig, dir: &Path) -> Self {
        let vexus_mining::DiscoverySelection::StreamFim {
            support,
            epsilon,
            max_len,
        } = cfg.discovery
        else {
            panic!("the live workload runs over the stream miner");
        };
        let data = base.clone();
        let vocab = Vocabulary::build(&data);
        let mut discovery = DeltaDiscovery::new(
            StreamFimConfig {
                support,
                epsilon,
                max_len,
            },
            cfg.min_group_size,
            data.n_users(),
        );
        discovery.observe_arrivals(&data, &vocab, data.actions());
        let (groups, _) = discovery.epoch();
        let index_cfg = index_config(cfg);
        let index = GroupIndex::build(&groups, &index_cfg);
        std::fs::create_dir_all(dir).expect("shadow WAL directory");
        let wal = WalWriter::create(&dir.join("wal-shadow.vxwl"), WalSync::PerFrame)
            .expect("shadow WAL segment");
        Self {
            data,
            vocab,
            buffer: IngestBuffer::new(),
            wal,
            discovery,
            groups,
            index,
            index_cfg,
        }
    }

    /// One refresh, stage by stage as `LiveEngine::refresh` composes them.
    /// `published` is the live engine's epoch before its own refresh of this
    /// batch (its neighbor cache is what a refresh carries over). Returns
    /// the replayed refresh's duration in microseconds.
    fn step(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        chunk: &[Action],
        published: &Vexus,
        batch: usize,
        s: &mut Samples,
    ) -> f64 {
        let root = tr.open("core.refresh_replay", request, ROOT);
        tr.time("data.ingest_pull", request, root, || {
            self.buffer
                .pull(&mut ReplayStream::from_actions(chunk), usize::MAX)
        });
        let (bytes, _) = tr.time("data.wal_append", request, root, || {
            self.wal
                .append(self.buffer.next_epoch(), self.buffer.pending_actions())
                .and_then(|()| self.wal.commit())
                .expect("shadow WAL append")
        });
        s.wal_frame_bytes.push(bytes as f64);
        let delta = self.buffer.cut();
        tr.time("data.append_actions", request, root, || {
            self.data.append_actions(&delta.actions)
        });
        tr.time("mining.stream_observe", request, root, || {
            self.discovery
                .observe_arrivals(&self.data, &self.vocab, &delta.actions)
        });
        let ((groups_new, gdelta), _) = tr.time("mining.stream_epoch", request, root, || {
            self.discovery.epoch()
        });
        let (patch, _) = tr.time("index.apply_delta", request, root, || {
            self.index
                .apply_delta(&self.groups, &groups_new, &gdelta, &self.index_cfg)
        });
        if let Some(cache) = published.neighbor_cache() {
            tr.time("index.cache_carry", request, root, || {
                let stable =
                    |id: usize| id < patch.old_to_new.len() && patch.old_to_new[id] == id as u32;
                std::hint::black_box(cache.carry_over(|g, list| {
                    stable(g as usize)
                        && !patch.dirty[g as usize]
                        && list.iter().all(|&(h, _)| stable(h.index()))
                }))
            });
        }
        tr.time("data.userdata_clone", request, root, || {
            std::hint::black_box(self.data.clone())
        });
        // The rest of what a refresh assembles its next epoch from.
        std::hint::black_box((self.vocab.clone(), groups_new.clone()));
        let replay_us = tr.close(root);

        if batch.is_multiple_of(REBUILD_EVERY) {
            tr.time("index.rebuild", request, ROOT, || {
                std::hint::black_box(GroupIndex::build(&groups_new, &self.index_cfg))
            });
        }
        self.groups = groups_new;
        self.index = patch.index;
        replay_us
    }
}
