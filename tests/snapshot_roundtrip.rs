//! Snapshot format pins: `from_snapshot ∘ write_snapshot` is the byte-for-
//! byte identity across workloads and discovery shard counts, loaded
//! engines serve exactly like their built originals, and corrupt input of
//! any shape — truncated, bit-flipped, even re-stamped past the checksum —
//! surfaces a typed [`SnapshotError`], never a panic.

mod common;

use proptest::prelude::*;
use vexus::core::{CoreError, EngineConfig, Vexus};
use vexus::data::snapshot::restamp;
use vexus::data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
use vexus::data::UserData;
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
    /// structural validators — either loads cleanly or fails with a typed
    /// error. It never panics.
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
        let _ = Vexus::from_snapshot(built.data().clone(), &buf, EngineConfig::default());
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
