//! The crash-recovery oracle for the durable live engine, plus corruption
//! robustness: across workloads, crash points and checkpoint cadences,
//! `LiveEngine::recover` must reconstruct an engine byte-identical to the
//! uninterrupted run — and any single-byte corruption or truncation of a
//! durable file must yield a typed error or a clean truncated recovery,
//! never a panic and never silently wrong data.

mod common;

use common::{feed, stream_config, ScratchDir, StreamWorkload};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use vexus::core::{DurabilityConfig, LiveEngine};
use vexus::data::wal;

/// Two streaming workloads (warm-up length × refresh count), each with
/// its uninterrupted reference. Computed once.
fn workloads() -> &'static [StreamWorkload] {
    static W: OnceLock<Vec<StreamWorkload>> = OnceLock::new();
    W.get_or_init(|| {
        [(300usize, 4usize), (420, 3)]
            .iter()
            .map(|&(warmup, n_chunks)| StreamWorkload::new(warmup, n_chunks))
            .collect()
    })
}

/// Run workload `w` durably, crash (drop) after `crash_after` refreshes.
fn run_to_crash(w: &StreamWorkload, crash_after: usize, cfg: &DurabilityConfig) {
    let live = LiveEngine::bootstrap_durable(w.base.clone(), stream_config(), cfg.clone())
        .expect("durable bootstrap");
    for c in w.chunks().take(crash_after) {
        feed(&live, c);
        live.refresh().expect("durable refresh");
    }
    // The crash: drop with no shutdown hook and no final checkpoint.
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The tentpole oracle: for every workload × crash point × cadence,
    /// recovery is byte-identical to the uninterrupted run at the crash
    /// epoch, and finishing the stream on the recovered engine is
    /// byte-identical at the final epoch.
    #[test]
    fn crash_recovery_is_byte_identical(
        wi in 0usize..2,
        crash_sel in 0usize..64,
        every in 1u64..=3,
    ) {
        let w = &workloads()[wi];
        let crash_after = crash_sel % (w.epochs() + 1);
        let dir = ScratchDir::new("durability-oracle");
        let cfg = DurabilityConfig {
            checkpoint_every: every,
            ..DurabilityConfig::new(dir.path())
        };
        run_to_crash(w, crash_after, &cfg);
        let (recovered, report) =
            LiveEngine::recover(w.base.clone(), stream_config(), cfg).expect("recover");
        prop_assert_eq!(report.final_epoch, crash_after as u64);
        prop_assert_eq!(report.halted, None);
        prop_assert!(
            recovered.engine().write_snapshot() == w.snapshots[crash_after],
            "recovered engine diverges from the uninterrupted run at epoch {}",
            crash_after
        );
        // A recovered engine serves the base dataset's own vocabulary.
        let engine = recovered.engine();
        prop_assert!(std::ptr::eq(engine.vocab(), engine.data().vocab()));
        prop_assert!(std::ptr::eq(engine.vocab(), w.base.vocab()));
        // The recovered engine keeps streaming to the same final state.
        for c in w.chunks().skip(crash_after) {
            feed(&recovered, c);
            recovered.refresh().expect("post-recovery refresh");
        }
        prop_assert!(
            recovered.engine().write_snapshot() == *w.snapshots.last().unwrap(),
            "post-recovery stream diverges at the final epoch"
        );
        // So does every epoch refreshed after it.
        let engine = recovered.engine();
        prop_assert!(std::ptr::eq(engine.vocab(), w.base.vocab()));
    }

    /// Any single-byte corruption (XOR flip) or truncation of any durable
    /// file either recovers cleanly to a *reference-identical* prefix
    /// state or fails with a typed error. It never panics and never
    /// serves silently wrong data.
    #[test]
    fn corrupted_durable_files_never_yield_wrong_data(
        wi in 0usize..2,
        crash_sel in 0usize..64,
        every in 1u64..=3,
        file_sel in 0usize..64,
        offset_frac in 0.0f64..1.0,
        xor in 1u8..=255,
        truncate_sel in 0u8..2,
    ) {
        let truncate = truncate_sel == 1;
        let w = &workloads()[wi];
        let crash_after = crash_sel % (w.epochs() + 1);
        let dir = ScratchDir::new("durability-corrupt");
        let cfg = DurabilityConfig {
            checkpoint_every: every,
            ..DurabilityConfig::new(dir.path())
        };
        run_to_crash(w, crash_after, &cfg);
        // Damage one durable file, chosen arbitrarily.
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        let victim = &files[file_sel % files.len()];
        let len = std::fs::metadata(victim).unwrap().len();
        if truncate {
            wal::truncate_at(victim, (len as f64 * offset_frac) as u64).unwrap();
        } else {
            wal::corrupt_byte_at(victim, (len as f64 * offset_frac) as u64, xor).unwrap();
        }
        // Typed failure is an acceptable outcome (e.g. the only checkpoint
        // is damaged) — reaching past `recover` at all means no panic.
        if let Ok((recovered, report)) = LiveEngine::recover(w.base.clone(), stream_config(), cfg) {
            // Clean truncated recovery: whatever epoch it lands on,
            // the bytes must match the uninterrupted run there.
            let e = report.final_epoch as usize;
            prop_assert!(e <= crash_after, "recovered past the crash point");
            prop_assert!(
                recovered.engine().write_snapshot() == w.snapshots[e],
                "recovered engine at epoch {} diverges from the reference",
                e
            );
        }
    }
}

/// Recovery and bootstrap guard their directories: recovering from a
/// directory with no checkpoint, and bootstrapping into one that already
/// holds engine state, are both typed errors.
#[test]
fn recover_and_bootstrap_guard_their_directories() {
    use vexus::core::CoreError;
    let w = &workloads()[0];
    let dir = ScratchDir::new("durability-guards");
    // Recovering from a directory with no checkpoint is a typed error.
    std::fs::create_dir_all(dir.path()).unwrap();
    let err = LiveEngine::recover(
        w.base.clone(),
        stream_config(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::Recovery(_)), "{err}");
    // Bootstrapping twice into the same directory is a typed error.
    let live = LiveEngine::bootstrap_durable(
        w.base.clone(),
        stream_config(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap();
    drop(live);
    let err = LiveEngine::bootstrap_durable(
        w.base.clone(),
        stream_config(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::Recovery(_)), "{err}");
}

/// The files in `dir` with extension `ext`, in name order (zero-padded
/// stamps, so name order is epoch order).
fn files_with(dir: &std::path::Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

/// A checkpoint whose retention step fails must not strand acknowledged
/// frames. With a directory blocking retention, checkpoint 1 lands but
/// reports `Failed`; the log must already write to `wal-1`, or the next
/// successful prune deletes `wal-0` while it still holds frame 1, and a
/// damaged newest checkpoint then recovers an older epoch with no error.
#[test]
fn a_failed_prune_strands_no_acknowledged_frame() {
    use vexus::core::CheckpointOutcome;
    let w = &workloads()[0];
    let dir = ScratchDir::new("durability-failed-prune");
    let cfg = DurabilityConfig {
        checkpoint_every: 1,
        retain: 2,
        ..DurabilityConfig::new(dir.path())
    };
    let live = LiveEngine::bootstrap_durable(w.base.clone(), stream_config(), cfg.clone()).unwrap();
    // A directory under an orphan temp name: retention cannot remove it.
    let blocker = dir.path().join("ckpt-00000000000000000099.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let chunks: Vec<_> = w.chunks().collect();
    feed(&live, chunks[0]);
    assert_eq!(
        live.refresh().unwrap().checkpoint,
        CheckpointOutcome::Failed
    );
    std::fs::remove_dir(&blocker).unwrap();
    feed(&live, chunks[1]);
    assert_eq!(
        live.refresh().unwrap().checkpoint,
        CheckpointOutcome::Written
    );
    let published = live.engine().write_snapshot();
    drop(live);
    let newest = files_with(dir.path(), "vxck").pop().unwrap();
    wal::corrupt_byte_at(&newest, 64, 0xff).unwrap();
    let (recovered, report) = LiveEngine::recover(w.base.clone(), stream_config(), cfg).unwrap();
    assert_eq!(report.checkpoints_skipped, 1);
    assert_eq!(report.checkpoint_watermark, 1);
    assert_eq!(report.final_epoch, 2);
    assert!(recovered.engine().write_snapshot() == published);
}

/// A checkpoint's file name proves its epoch was published. When it fails
/// to decode and the log does not reach its epoch, recovery refuses with a
/// typed error and deletes nothing, so a retry refuses again instead of
/// silently serving the older checkpoint's epoch.
#[test]
fn recovery_never_lands_below_a_checkpoint_it_skipped() {
    use vexus::core::CoreError;
    let w = &workloads()[0];
    let dir = ScratchDir::new("durability-below-skipped");
    let cfg = DurabilityConfig {
        checkpoint_every: 2,
        ..DurabilityConfig::new(dir.path())
    };
    run_to_crash(w, 4, &cfg);
    for segment in files_with(dir.path(), "vxwl") {
        std::fs::remove_file(segment).unwrap();
    }
    let ckpts = files_with(dir.path(), "vxck");
    assert_eq!(ckpts.len(), 2, "checkpoints 2 and 4");
    wal::corrupt_byte_at(&ckpts[1], 64, 0xff).unwrap();
    for _ in 0..2 {
        let err = LiveEngine::recover(w.base.clone(), stream_config(), cfg.clone()).unwrap_err();
        assert!(matches!(err, CoreError::Recovery(_)), "{err}");
        assert_eq!(files_with(dir.path(), "vxck"), ckpts, "nothing deleted");
    }
}

/// Recovery of a halted engine reproduces the halt. The population's late
/// arrivals carry no demographic value: the stream miner still counts
/// them, so the support floor `(σ − ε)·N` rises past the one group's
/// count, and the third refresh cuts an empty space and halts after its
/// frame was logged. Recovery folds the first two frames into one cut and
/// must replay the third through a refresh to halt where the original did
/// — folding it into the cut as well would fail recovery instead.
#[test]
fn recovery_of_a_halted_engine_reproduces_the_halt() {
    use vexus::core::{CoreError, EngineConfig};
    use vexus::data::{Schema, UserDataBuilder};
    use vexus::mining::DiscoverySelection;
    let mut schema = Schema::new();
    let gender = schema.add_categorical("gender");
    let mut b = UserDataBuilder::new(schema);
    let item = b.item("book", None);
    for i in 0..10 {
        let u = b.user(&format!("f{i}"));
        b.set_demo(u, gender, "f").unwrap();
        b.action(u, item, 1.0);
    }
    for i in 0..24 {
        let u = b.user(&format!("blank{i}"));
        b.action(u, item, 1.0);
    }
    let (mut base, tape) = b.build().split_actions();
    base.append_actions(&tape[..10]);
    let frames = [&tape[10..12], &tape[12..14], &tape[14..]];
    let config = EngineConfig::default().with_discovery(DiscoverySelection::StreamFim {
        support: 0.5,
        epsilon: 0.1,
        max_len: 2,
    });
    let dir = ScratchDir::new("durability-halt");
    let cfg = DurabilityConfig::new(dir.path());
    let live = LiveEngine::bootstrap_durable(base.clone(), config.clone(), cfg.clone()).unwrap();
    for frame in &frames[..2] {
        feed(&live, frame);
        live.refresh().expect("the group clears the floor");
    }
    feed(&live, frames[2]);
    assert_eq!(live.refresh().unwrap_err(), CoreError::EmptyGroupSpace);
    let cause = live.halt_cause().expect("an empty epoch halts");
    assert_eq!(live.epoch(), 2);
    let published = live.engine().write_snapshot();
    drop(live);

    let (recovered, report) = LiveEngine::recover(base, config, cfg).expect("recover");
    assert_eq!(report.halted, Some(cause));
    assert_eq!(report.final_epoch, 2, "the last good epoch");
    assert_eq!(report.frames_replayed, 2);
    assert_eq!(recovered.halt_cause(), Some(cause));
    assert!(recovered.engine().write_snapshot() == published);
    assert_eq!(recovered.refresh().unwrap_err(), CoreError::Halted(cause));
}
