//! Snapshot codec for the inverted index (`0x2x` CSR + `0x3x` index tags;
//! the tag table is in [`vexus_data::snapshot`]).
//!
//! The flat in-memory layout of [`GroupIndex`] — offset table + entry
//! array + full-length table + member→groups CSR — maps 1:1 onto snapshot
//! sections. The only wrinkle is the entry array: Rust does not guarantee
//! the layout of the `(GroupId, f32)` tuple, so entries are stored as two
//! parallel `u32` sections (ids, similarity bit patterns) and interleaved
//! back into **one** flat `Vec<Neighbor>` allocation on load. The offset
//! tables and the CSR load as zero-copy [`vexus_data::WordSlice`] views,
//! the same type a built index holds them in.
//! Nothing derivable is stored: the pair count is half the sum of the full
//! lengths, recomputed by [`GroupIndex`] on assembly.

use crate::inverted::{neighbor_order, GroupIndex, MemberGroupsCsr, Neighbor};
use vexus_data::snapshot::{all_bounded, runs_sorted};
use vexus_data::{SnapshotError, SnapshotReader, SnapshotWriter};
use vexus_mining::GroupId;

/// Member→groups CSR offsets (`n_members + 1` entries).
pub const TAG_CSR_OFFSETS: u32 = 0x20;
/// Member→groups CSR concatenated group ids, member-major.
pub const TAG_CSR_IDS: u32 = 0x21;
/// Materialized-list offsets (`n_groups + 1` entries).
pub const TAG_INDEX_LIST_OFFSETS: u32 = 0x30;
/// Materialized neighbor group ids, group-major.
pub const TAG_INDEX_LIST_IDS: u32 = 0x31;
/// Materialized neighbor similarities as `f32` bit patterns, parallel to
/// the ids section.
pub const TAG_INDEX_LIST_SIMS: u32 = 0x32;
/// Per-group full (overlapping) neighbor counts.
pub const TAG_INDEX_FULL_LENGTHS: u32 = 0x33;

/// Encode the index into its `0x2x`/`0x3x` sections.
pub fn encode_group_index(index: &GroupIndex, w: &mut SnapshotWriter) {
    let (list_offsets, entries, full_lengths, csr) = index.parts();
    w.ragged(TAG_CSR_OFFSETS, TAG_CSR_IDS, csr.lists());
    w.section_words(TAG_INDEX_LIST_OFFSETS, list_offsets.iter().copied());
    w.section_words(TAG_INDEX_LIST_IDS, entries.iter().map(|&(g, _)| g.0));
    w.section_words(
        TAG_INDEX_LIST_SIMS,
        entries.iter().map(|&(_, s)| s.to_bits()),
    );
    w.section_words(TAG_INDEX_FULL_LENGTHS, full_lengths.iter().copied());
}

/// Decode the index written by [`encode_group_index`].
///
/// `n_groups` bounds every group id; `n_members` is the member-universe
/// bound the CSR must cover exactly (the max group member + 1, recomputed
/// from the decoded group space by the caller). Validates: both offset
/// tables monotone and exactly covering their payloads, CSR lists strictly
/// ascending, every full count below `n_groups` (a group overlaps at most
/// all the others), materialized lists no longer than their full counts
/// and sorted under the total neighbor order with finite similarities.
pub fn decode_group_index(
    r: &SnapshotReader,
    n_groups: usize,
    n_members: usize,
) -> Result<GroupIndex, SnapshotError> {
    // CSR: zero-copy views after validation.
    let csr = r.ragged(TAG_CSR_OFFSETS, TAG_CSR_IDS)?;
    if csr.len() != n_members {
        return Err(SnapshotError::Malformed {
            tag: TAG_CSR_OFFSETS,
            what: "CSR does not cover the member universe",
        });
    }
    let csr = csr.ascending_below(
        n_groups,
        "member's group list not strictly ascending below the group count",
    )?;

    // Index lists: parallel id/sim sections interleaved into one flat
    // entry array (a single allocation for the whole index).
    let (list_offsets, ids) = r
        .ragged(TAG_INDEX_LIST_OFFSETS, TAG_INDEX_LIST_IDS)?
        .into_parts();
    let sims = r.section_words(TAG_INDEX_LIST_SIMS)?;
    let full_lengths = r.section_words(TAG_INDEX_FULL_LENGTHS)?;
    if ids.len() != sims.len() {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_LIST_SIMS,
            what: "id/similarity sections disagree in length",
        });
    }
    if list_offsets.len() != n_groups + 1 || full_lengths.len() != n_groups {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_LIST_OFFSETS,
            what: "index does not cover the group space",
        });
    }
    // Whole-section validation (vectorizable folds and one flat
    // violation-counting pass), then a branch-free interleave into one
    // flat entry allocation.
    if !all_bounded(&ids, n_groups) {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_LIST_IDS,
            what: "neighbor group id out of range",
        });
    }
    // All finite iff the max exponent-and-mantissa pattern stays below
    // the infinity encoding: a pure `max` reduction, no branches.
    let sim_mask = sims
        .iter()
        .fold(0u32, |acc, &bits| acc.max(bits & 0x7fff_ffff));
    if sim_mask >= 0x7f80_0000 {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_LIST_SIMS,
            what: "non-finite similarity",
        });
    }
    let entries: Vec<Neighbor> = ids
        .iter()
        .zip(sims.iter())
        .map(|(&g, &bits)| (GroupId::new(g), f32::from_bits(bits)))
        .collect();
    // The fallback reserves a full row, so an unbounded count would be an
    // allocation the process cannot survive, not an error.
    if !all_bounded(&full_lengths, n_groups) {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_FULL_LENGTHS,
            what: "full neighbor count not below the group count",
        });
    }
    let offs: &[u32] = &list_offsets;
    for g in 0..n_groups {
        if (offs[g + 1] - offs[g]) > full_lengths[g] {
            return Err(SnapshotError::Malformed {
                tag: TAG_INDEX_FULL_LENGTHS,
                what: "materialized list longer than its full count",
            });
        }
    }
    if !runs_sorted(&entries, offs, |a, b| {
        neighbor_order(a, b) != std::cmp::Ordering::Less
    }) {
        return Err(SnapshotError::Malformed {
            tag: TAG_INDEX_LIST_IDS,
            what: "materialized list not sorted by the neighbor order",
        });
    }

    Ok(GroupIndex::from_parts(
        list_offsets,
        entries,
        full_lengths,
        MemberGroupsCsr::from_lists(csr),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::IndexConfig;
    use vexus_mining::{Group, GroupSet, MemberSet};

    fn fixture() -> (GroupSet, GroupIndex) {
        let mut gs = GroupSet::new();
        gs.push(Group::new(
            vec![],
            MemberSet::from_unsorted(vec![0, 1, 2, 3]),
        ));
        gs.push(Group::new(
            vec![],
            MemberSet::from_unsorted(vec![2, 3, 4, 5]),
        ));
        gs.push(Group::new(
            vec![],
            MemberSet::from_unsorted(vec![3, 4, 5, 6]),
        ));
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.5,
                threads: 1,
            },
        );
        (gs, idx)
    }

    fn encode(idx: &GroupIndex) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode_group_index(idx, &mut w);
        w.finish()
    }

    #[test]
    fn index_round_trips() {
        let (gs, idx) = fixture();
        let buf = encode(&idx);
        let r = SnapshotReader::load(&buf).unwrap();
        let back = decode_group_index(&r, gs.len(), 7).unwrap();
        assert_eq!(back.len(), idx.len());
        for (gid, _) in gs.iter() {
            assert_eq!(back.materialized(gid), idx.materialized(gid));
            assert_eq!(back.full_neighbor_count(gid), idx.full_neighbor_count(gid));
        }
        assert_eq!(back.stats().scored_pairs, idx.stats().scored_pairs);
        assert_eq!(
            back.stats().materialized_entries,
            idx.stats().materialized_entries
        );
        // The loaded form owns only the interleaved entries; tables are
        // views, so it reports strictly less owned heap.
        assert!(back.stats().heap_bytes < idx.stats().heap_bytes);
        // The exact fallback works through the loaded CSR.
        for (gid, _) in gs.iter() {
            assert_eq!(
                back.neighbors(&gs, gid, gs.len()),
                idx.neighbors(&gs, gid, gs.len())
            );
        }
        // Re-encoding the loaded index reproduces the bytes.
        assert_eq!(encode(&back), buf);
    }

    /// A clone shares the member lists it holds, built or loaded: member
    /// sets and the member→groups CSR are refcounted, so a clone reads the
    /// same words at the same address instead of a copy.
    #[test]
    fn clones_share_storage() {
        use vexus_mining::snapshot::{decode_group_set, encode_group_set};
        let (built, idx) = fixture();
        let mut w = SnapshotWriter::new();
        encode_group_set(&built, &mut w);
        let buf = w.finish();
        let loaded = decode_group_set(&SnapshotReader::load(&buf).unwrap(), 7, 0).unwrap();
        for space in [&built, &loaded] {
            let clone = space.clone();
            for (gid, g) in space.iter() {
                assert_eq!(
                    g.members.as_slice().as_ptr(),
                    clone[gid].members.as_slice().as_ptr()
                );
            }
        }
        let csr = idx.member_groups();
        let clone = csr.clone();
        for u in 0..csr.n_members() as u32 {
            assert_eq!(csr.groups_of(u).as_ptr(), clone.groups_of(u).as_ptr());
        }
    }

    #[test]
    fn decode_validates_universe_bounds() {
        let (gs, idx) = fixture();
        let buf = encode(&idx);
        let r = SnapshotReader::load(&buf).unwrap();
        // Wrong member universe.
        assert!(matches!(
            decode_group_index(&r, gs.len(), 6).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_CSR_OFFSETS,
                ..
            }
        ));
        // Wrong group count.
        assert!(matches!(
            decode_group_index(&r, gs.len() - 1, 7).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }

    /// `idx` encoded with its similarity bits and full lengths replaced.
    fn encode_with(idx: &GroupIndex, sims: &[u32], full_lengths: &[u32]) -> Vec<u8> {
        let (list_offsets, entries, _, csr) = idx.parts();
        let mut w = SnapshotWriter::new();
        w.ragged(TAG_CSR_OFFSETS, TAG_CSR_IDS, csr.lists());
        w.section_words(TAG_INDEX_LIST_OFFSETS, list_offsets.iter().copied());
        w.section_words(TAG_INDEX_LIST_IDS, entries.iter().map(|&(g, _)| g.0));
        w.section_words(TAG_INDEX_LIST_SIMS, sims.iter().copied());
        w.section_words(TAG_INDEX_FULL_LENGTHS, full_lengths.iter().copied());
        w.finish()
    }

    fn decode(buf: &[u8], n_groups: usize) -> Result<GroupIndex, SnapshotError> {
        decode_group_index(&SnapshotReader::load(buf).unwrap(), n_groups, 7)
    }

    #[test]
    fn decode_rejects_non_finite_similarity() {
        let (gs, idx) = fixture();
        let (_, entries, full_lengths, _) = idx.parts();
        // NaN bits in the similarity channel.
        let nan = vec![f32::NAN.to_bits(); entries.len()];
        assert!(matches!(
            decode(&encode_with(&idx, &nan, full_lengths), gs.len()).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_INDEX_LIST_SIMS,
                ..
            }
        ));
    }

    #[test]
    fn decode_rejects_unsorted_lists() {
        let (gs, idx) = fixture();
        let (list_offsets, entries, full_lengths, _) = idx.parts();
        // Ascending sims break the descending-similarity invariant for any
        // group with two or more materialized entries.
        let ascending: Vec<u32> = (0..entries.len()).map(|i| (i as f32).to_bits()).collect();
        let multi = (0..gs.len()).any(|g| list_offsets[g + 1] - list_offsets[g] >= 2);
        if multi {
            assert!(decode(&encode_with(&idx, &ascending, full_lengths), gs.len()).is_err());
        }
    }

    #[test]
    fn decode_rejects_full_lengths_past_the_group_count() {
        let (gs, idx) = fixture();
        let (_, entries, full_lengths, _) = idx.parts();
        let sims: Vec<u32> = entries.iter().map(|&(_, s)| s.to_bits()).collect();
        // Every fixture group overlaps both others: n - 1 is the bound.
        assert!(full_lengths.iter().all(|&l| l as usize == gs.len() - 1));
        assert!(decode(&encode_with(&idx, &sims, full_lengths), gs.len()).is_ok());
        for bad in [gs.len() as u32, u32::MAX] {
            let mut full = full_lengths.to_vec();
            full[0] = bad;
            assert_eq!(
                decode(&encode_with(&idx, &sims, &full), gs.len()).unwrap_err(),
                SnapshotError::Malformed {
                    tag: TAG_INDEX_FULL_LENGTHS,
                    what: "full neighbor count not below the group count",
                }
            );
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let gs = GroupSet::new();
        let idx = GroupIndex::build(&gs, &IndexConfig::default());
        let buf = encode(&idx);
        let r = SnapshotReader::load(&buf).unwrap();
        let back = decode_group_index(&r, 0, 0).unwrap();
        assert!(back.is_empty());
        assert_eq!(encode(&back), buf);
    }
}
