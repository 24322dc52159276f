//! Snapshot format pins: `from_snapshot ∘ write_snapshot` is the byte-for-
//! byte identity across workloads and discovery shard counts, loaded
//! engines serve exactly like their built originals, and corrupt input of
//! any shape — truncated, bit-flipped, even re-stamped past the checksum —
//! surfaces a typed [`SnapshotError`] or loads an engine that serves
//! without a panic.

mod common;

use common::{feed, stream_config, ScratchDir, StreamWorkload};
use proptest::prelude::*;
use std::sync::Arc;
use vexus::core::{CoreError, DurabilityConfig, EngineConfig, LiveEngine, Vexus};
use vexus::data::snapshot::restamp;
use vexus::data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
use vexus::data::{SnapshotError, UserData, Vocabulary};
use vexus::index::snapshot::TAG_INDEX_FULL_LENGTHS;
use vexus::mining::DiscoverySelection;

/// The two synthetic families the experiments run, parameterized small
/// enough for property-test iteration counts.
fn workload(family: u8, seed: u64) -> UserData {
    if family == 0 {
        bookcrossing(&BookCrossingConfig {
            seed,
            ..BookCrossingConfig::tiny()
        })
        .data
    } else {
        dbauthors(&DbAuthorsConfig {
            seed,
            ..DbAuthorsConfig::tiny()
        })
        .data
    }
}

fn build(data: UserData, shards: usize) -> Vexus {
    let discovery = if shards <= 1 {
        DiscoverySelection::default()
    } else {
        DiscoverySelection::default().sharded(shards)
    };
    Vexus::build(data, EngineConfig::default().with_discovery(discovery)).unwrap()
}

/// Run what a served engine runs, on every group: a neighbor query long
/// enough to reach the exact fallback, the group's description, and one
/// session's text rendering.
fn serve_every_group(engine: &Vexus) {
    for (g, _) in engine.groups().iter() {
        engine.index().neighbors(engine.groups(), g, 256);
    }
    if let Ok(session) = engine.session() {
        for (g, _) in engine.groups().iter() {
            session.describe(g);
        }
        session.render_text();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identical round trip across workload families, seeds, and
    /// discovery shard counts: re-encoding a loaded engine reproduces the
    /// original buffer exactly, and the loaded group space is equal.
    #[test]
    fn snapshot_round_trips_byte_identically(
        family in 0u8..2,
        seed in 0u64..1000,
        shards_pow in 0u32..3,
    ) {
        let shards = 1usize << shards_pow;
        let built = build(workload(family, seed), shards);
        let buf = built.write_snapshot();
        let loaded =
            Vexus::from_snapshot(built.data().clone(), &buf, built.config().clone()).unwrap();
        prop_assert_eq!(loaded.groups(), built.groups());
        prop_assert_eq!(loaded.write_snapshot(), buf);
        prop_assert_eq!(loaded.snapshot_bytes(), buf.len());
    }

    /// Mutating any byte — with and without re-stamping the checksum to
    /// drive the corruption past the outer integrity gate into the
    /// structural validators — either fails with a typed error or loads an
    /// engine that serves every group. Neither panics.
    #[test]
    fn corrupt_snapshots_never_panic(
        seed in 0u64..1000,
        flips in proptest::collection::vec((0usize..usize::MAX, 1u8..=255), 1..8),
        restamped in 0u8..2,
    ) {
        let built = build(workload(0, seed), 1);
        let mut buf = built.write_snapshot();
        for &(at, xor) in &flips {
            let at = at % buf.len();
            buf[at] ^= xor;
        }
        if restamped == 1 {
            restamp(&mut buf);
        }
        // Either outcome is fine; a panic here fails the test.
        let loaded = Vexus::from_snapshot(built.data().clone(), &buf, EngineConfig::default());
        if let Ok(loaded) = loaded {
            serve_every_group(&loaded);
        }
    }

    /// Truncation at any point is a typed error (or, for a prefix that
    /// still checksums, impossible — the checksum covers the whole
    /// buffer, so every proper prefix is rejected).
    #[test]
    fn truncated_snapshots_are_rejected(seed in 0u64..1000, keep in 0.0f64..1.0) {
        let built = build(workload(0, seed), 1);
        let buf = built.write_snapshot();
        let cut = (buf.len() as f64 * keep) as usize;
        prop_assert!(cut < buf.len());
        let err = Vexus::from_snapshot(built.data().clone(), &buf[..cut], EngineConfig::default());
        prop_assert!(matches!(err, Err(CoreError::Snapshot(_))));
    }
}

/// A loaded engine is indistinguishable from its built original across a
/// full deterministic exploration script (under the never-binding greedy
/// budget every exact-trajectory test shares, `common::config`).
#[test]
fn loaded_engine_explores_identically() {
    let built = build(workload(0, 7), 2);
    let buf = built.write_snapshot();
    let loaded = Vexus::from_snapshot(built.data().clone(), &buf, built.config().clone()).unwrap();
    let cfg = common::config();
    let mut a = built.session_with(cfg.clone()).unwrap();
    let mut b = loaded.session_with(cfg).unwrap();
    assert_eq!(a.display(), b.display());
    for step in 0..6 {
        let pick = a.display()[step % a.display().len()];
        a.click(pick).unwrap();
        b.click(pick).unwrap();
        assert_eq!(a.display(), b.display(), "diverged at step {step}");
    }
}

/// A loaded engine takes what the snapshot does not store from the
/// supplied dataset: its vocabulary and its item catalog are that
/// dataset's own, shared rather than rebuilt or copied. A built engine's
/// vocabulary is its dataset's too.
#[test]
fn loaded_engine_derives_its_vocabulary_and_shares_the_catalog() {
    let built = build(workload(0, 3), 1);
    assert!(std::ptr::eq(built.vocab(), built.data().vocab()));
    let data = built.data().clone();
    let loaded = Vexus::from_snapshot(
        data.clone(),
        &built.write_snapshot(),
        EngineConfig::default(),
    )
    .unwrap();
    assert!(std::ptr::eq(loaded.vocab(), loaded.data().vocab()));
    assert!(std::ptr::eq(loaded.vocab(), built.vocab()));
    assert_eq!(loaded.vocab(), &Vocabulary::build(loaded.data()));
    assert!(Arc::ptr_eq(
        loaded.data().item_catalog(),
        data.item_catalog()
    ));
}

/// Byte offset of section `tag` in a snapshot-container buffer.
fn section_offset(buf: &[u8], tag: u32) -> usize {
    let word = |i: usize| u32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().unwrap());
    (0..word(3) as usize)
        .map(|i| 5 + 3 * i)
        .find(|&at| word(at) == tag)
        .map(|at| word(at + 1) as usize)
        .expect("the snapshot holds the section")
}

/// A group overlaps at most every other group, so a full neighbor count
/// past the group count is a damaged file. The exact fallback reserves a
/// full row; loading `u32::MAX` would make serving group 0 an allocation
/// of 32 GiB, which aborts the process instead of failing typed.
#[test]
fn a_full_length_past_the_group_count_is_rejected() {
    let built = build(workload(0, 1), 1);
    let mut buf = built.write_snapshot();
    let at = section_offset(&buf, TAG_INDEX_FULL_LENGTHS);
    buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp(&mut buf);
    match Vexus::from_snapshot(built.data().clone(), &buf, EngineConfig::default()) {
        Ok(loaded) => {
            serve_every_group(&loaded);
            panic!("a full length of u32::MAX loaded");
        }
        Err(err) => assert!(matches!(
            err,
            CoreError::Snapshot(SnapshotError::Malformed {
                tag: TAG_INDEX_FULL_LENGTHS,
                ..
            })
        )),
    }
}

/// `(byte length, stored checksum word)` of a snapshot-container buffer.
fn length_and_stamp(buf: &[u8]) -> (usize, u32) {
    (
        buf.len(),
        u32::from_le_bytes(buf[16..20].try_into().unwrap()),
    )
}

/// The three on-disk formats pinned across commits, not just across a
/// round trip: a codec change that moves one byte of a snapshot, a
/// checkpoint or a WAL frame changes one of these six numbers (computed at
/// commit 113d8f2; the checkpoint's re-pinned at checkpoint format version
/// 2, which dropped the derivable engine sections and added the base
/// dataset checksum; the engine snapshot's re-pinned when it dropped its
/// vocabulary, item-catalog and pair-count sections) and must come with a
/// format-version bump. The one exception is a change that only removes
/// sections: the reader looks sections up by tag, so an older buffer still
/// loads, and an older reader reports the missing section typed.
#[test]
fn format_bytes_are_pinned() {
    let data = bookcrossing(&BookCrossingConfig {
        seed: 1,
        ..BookCrossingConfig::tiny()
    })
    .data;
    let snapshot = Vexus::build(data, EngineConfig::default())
        .unwrap()
        .write_snapshot();
    assert_eq!(
        length_and_stamp(&snapshot),
        (60_652, 2_250_018_510),
        "engine snapshot"
    );

    // One durable refresh with a checkpoint at every watermark: the
    // directory then holds `ckpt-…1` and, in the bootstrap segment, the
    // first WAL frame (a length word, then a snapshot-container payload).
    let w = StreamWorkload::new(300, 4);
    let dir = ScratchDir::new("format-pin");
    let cfg = DurabilityConfig {
        checkpoint_every: 1,
        ..DurabilityConfig::new(dir.path())
    };
    let live = LiveEngine::bootstrap_durable(w.base.clone(), stream_config(), cfg).unwrap();
    feed(&live, w.chunks().next().unwrap());
    live.refresh().unwrap();
    drop(live);
    let ckpt = std::fs::read(dir.path().join(format!("ckpt-{:020}.vxck", 1))).unwrap();
    assert_eq!(
        length_and_stamp(&ckpt),
        (41_760, 2_693_989_733),
        "checkpoint at watermark 1"
    );
    let segment = std::fs::read(dir.path().join(format!("wal-{:020}.vxwl", 0))).unwrap();
    let frame_len = u32::from_le_bytes(segment[8..12].try_into().unwrap()) as usize;
    let frame = &segment[12..12 + frame_len];
    assert_eq!(
        length_and_stamp(frame),
        (5_156, 2_664_849_154),
        "first WAL frame"
    );
}
