//! Engine snapshot: what is expensive to derive of a built engine, as one
//! flat buffer.
//!
//! [`Vexus::write_snapshot`](crate::Vexus::write_snapshot) concatenates
//! the layer codecs — group space (`0x1x`), CSR + similarity index
//! (`0x2x`/`0x3x`) — behind a single engine META section (`0x01`)
//! carrying the shape words a loader cross-checks against the supplied
//! dataset (the tag table is in [`vexus_data::snapshot`]). What the
//! dataset already determines is not stored: the loaded engine keeps the
//! dataset's own vocabulary ([`vexus_data::UserData::vocab`]) and item
//! catalog, and rebuilds neither. Loading is validation plus slice
//! reinterpretation: one buffer copy into an `Arc<Vec<u32>>`, then
//! zero-copy views for the dominant
//! payloads (group member lists, the CSR, the materialized neighbor
//! offset tables). No per-group allocations, no discovery, no pair
//! scoring.

use crate::engine::Vexus;
use vexus_data::{SnapshotError, SnapshotReader, SnapshotWriter, UserData};
use vexus_index::snapshot::{decode_group_index, encode_group_index};
use vexus_index::{GroupIndex, MemberGroupsCsr};
use vexus_mining::snapshot::{decode_group_set, encode_group_set};
use vexus_mining::GroupSet;

/// Engine META section: `[n_users, n_tokens, n_groups, n_members]`. The
/// loader checks `n_users` and `n_tokens` against the supplied dataset and
/// its vocabulary and the others against the decoded sections, so a
/// snapshot paired with the wrong dataset fails loudly instead of serving
/// nonsense. `n_members` (the
/// CSR's member universe, the largest group member + 1) is stored so the
/// index section can decode without waiting for the group space.
pub const TAG_ENGINE_META: u32 = 0x01;

/// Everything [`decode_engine`] hands back to the engine assembler.
pub(crate) struct DecodedEngine {
    pub groups: GroupSet,
    pub index: GroupIndex,
    /// Size of the retained snapshot buffer backing the zero-copy views.
    pub buffer_bytes: usize,
}

/// Encode the engine as a standalone snapshot buffer: META plus the group
/// and index codecs. Section order is fixed, every sub-codec is
/// deterministic, and nothing derived (the vocabulary, the item catalog,
/// the pair count, timings, heap accounting) is stored — so
/// encode∘decode∘encode is byte-identical.
pub(crate) fn encode_engine(vexus: &Vexus) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.section_words(
        TAG_ENGINE_META,
        [
            vexus.data().n_users() as u32,
            vexus.vocab().len() as u32,
            vexus.groups().len() as u32,
            MemberGroupsCsr::universe(vexus.groups()) as u32,
        ],
    );
    encode_group_set(vexus.groups(), &mut w);
    encode_group_index(vexus.index(), &mut w);
    w.finish()
}

/// Decode a snapshot written by [`encode_engine`] against `data`.
pub(crate) fn decode_engine(data: &UserData, bytes: &[u8]) -> Result<DecodedEngine, SnapshotError> {
    let r = &SnapshotReader::load(bytes)?;
    let [n_users, n_tokens, n_groups, n_members] = r
        .meta(TAG_ENGINE_META, "engine META is not four words")?
        .map(|w| w as usize);
    if n_users != data.n_users() {
        return Err(SnapshotError::Malformed {
            tag: TAG_ENGINE_META,
            what: "snapshot user count does not match the supplied dataset",
        });
    }
    if data.vocab().len() != n_tokens {
        return Err(SnapshotError::Malformed {
            tag: TAG_ENGINE_META,
            what: "snapshot token count does not match the supplied dataset",
        });
    }
    // META pins the shape words up front, so the two heavy sections decode
    // independently — neither waits on the other's output, and a parallel
    // loader could run them concurrently without a format change. The
    // cross-checks below tie them back together.
    let groups = decode_group_set(r, n_users, n_tokens)?;
    if groups.len() != n_groups {
        return Err(SnapshotError::Malformed {
            tag: TAG_ENGINE_META,
            what: "snapshot group count does not match its group sections",
        });
    }
    if MemberGroupsCsr::universe(&groups) != n_members {
        return Err(SnapshotError::Malformed {
            tag: TAG_ENGINE_META,
            what: "snapshot member universe does not match its group space",
        });
    }
    let index = decode_group_index(r, n_groups, n_members)?;
    Ok(DecodedEngine {
        groups,
        index,
        buffer_bytes: r.buffer_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

    fn engine() -> Vexus {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Vexus::build(ds.data, EngineConfig::default()).unwrap()
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let built = engine();
        let buf = built.write_snapshot();
        let loaded =
            Vexus::from_snapshot(built.data().clone(), &buf, built.config().clone()).unwrap();
        assert_eq!(loaded.groups(), built.groups());
        assert_eq!(loaded.vocab().len(), built.vocab().len());
        assert_eq!(loaded.index().len(), built.index().len());
        assert_eq!(loaded.write_snapshot(), buf);
        assert_eq!(loaded.build_stats().algorithm, "snapshot");
        assert_eq!(loaded.snapshot_bytes(), buf.len());
        assert_eq!(built.snapshot_bytes(), 0);
    }

    #[test]
    fn loaded_engine_serves_identically() {
        let built = engine();
        let buf = built.write_snapshot();
        let loaded =
            Vexus::from_snapshot(built.data().clone(), &buf, built.config().clone()).unwrap();
        // An effectively unlimited greedy budget removes the anytime
        // cutoff, making each step a deterministic function of its input.
        let cfg = EngineConfig::default().with_budget(std::time::Duration::from_secs(600));
        let mut a = built.session_with(cfg.clone()).unwrap();
        let mut b = loaded.session_with(cfg).unwrap();
        assert_eq!(a.display(), b.display());
        for _ in 0..4 {
            let g = a.display()[0];
            a.click(g).unwrap();
            b.click(g).unwrap();
            assert_eq!(a.display(), b.display());
        }
    }

    #[test]
    fn wrong_dataset_is_rejected() {
        let built = engine();
        let buf = built.write_snapshot();
        let other = bookcrossing(&BookCrossingConfig {
            n_users: 37,
            ..BookCrossingConfig::tiny()
        });
        let err = Vexus::from_snapshot(other.data, &buf, EngineConfig::default())
            .err()
            .unwrap();
        assert!(matches!(
            err,
            crate::CoreError::Snapshot(SnapshotError::Malformed {
                tag: TAG_ENGINE_META,
                ..
            })
        ));
    }

    #[test]
    fn a_dataset_with_other_demographics_is_rejected() {
        // Same users, no attributes: the dataset's vocabulary is empty, so
        // the snapshot's token count cannot describe it.
        let built = engine();
        let buf = built.write_snapshot();
        let mut b = vexus_data::UserDataBuilder::new(vexus_data::Schema::new());
        for u in built.data().users() {
            b.user(built.data().user_name(u));
        }
        let err = Vexus::from_snapshot(b.build(), &buf, EngineConfig::default())
            .err()
            .unwrap();
        assert!(matches!(
            err,
            crate::CoreError::Snapshot(SnapshotError::Malformed {
                tag: TAG_ENGINE_META,
                what: "snapshot token count does not match the supplied dataset",
            })
        ));
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let built = engine();
        let mut buf = built.write_snapshot();
        // Flip a payload byte without re-stamping: checksum catches it.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        assert!(matches!(
            Vexus::from_snapshot(built.data().clone(), &buf, EngineConfig::default())
                .err()
                .unwrap(),
            crate::CoreError::Snapshot(SnapshotError::ChecksumMismatch { .. })
        ));
        // Truncation too.
        assert!(matches!(
            Vexus::from_snapshot(built.data().clone(), &buf[..10], EngineConfig::default())
                .err()
                .unwrap(),
            crate::CoreError::Snapshot(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn heap_bytes_shrinks_under_the_snapshot_form() {
        let built = engine();
        let buf = built.write_snapshot();
        let loaded =
            Vexus::from_snapshot(built.data().clone(), &buf, built.config().clone()).unwrap();
        assert!(built.heap_bytes() > 0);
        // The loaded engine's owned heap (excluding the shared buffer it
        // views into) is strictly smaller than the built engine's.
        assert!(loaded.heap_bytes() - loaded.snapshot_bytes() < built.heap_bytes());
    }
}
