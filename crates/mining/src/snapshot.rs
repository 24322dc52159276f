//! Snapshot codec for the group space (`0x1x` section tags) and the live
//! stream-miner state (`0x70`–`0x77`; the tag table is in
//! [`vexus_data::snapshot`]).
//!
//! A [`GroupSet`] flattens into two [`Ragged`] tables — descriptions and
//! member lists — the same offsets-plus-payload shape the CSR index uses.
//! Decoding hands every group's member set back as a zero-copy
//! [`MemberSet::from_shared`] view into the loaded buffer: the dominant
//! payload (member ids) costs no per-group allocations. Descriptions are short (a handful of tokens) and live in
//! `HashMap` keys and move-heavy merge paths, so they are rebuilt as owned
//! `Vec<TokenId>`s.
//!
//! The stream-state codec persists a [`DeltaDiscovery`] driver — the
//! lossy-counting table in canonical order, the stream clock, and the
//! per-user arrival bits — so a live-engine checkpoint can resume
//! discovery observation-equivalent to an uninterrupted run (the crash
//! -recovery byte-identity oracle rests on this).

use crate::bitmap::MemberSet;
use crate::delta::DeltaDiscovery;
use crate::group::{Group, GroupSet};
use crate::stream_fim::{MinerEntry, MinerState, StreamFimConfig, StreamMiner};
use vexus_data::snapshot::{join_u64, split_u64, Ragged};
use vexus_data::{SnapshotError, SnapshotReader, SnapshotWriter, TokenId};

/// Group-description offsets: `n_groups + 1` token offsets.
pub const TAG_GROUP_DESC_OFFSETS: u32 = 0x10;
/// Concatenated description tokens, group-major.
pub const TAG_GROUP_DESC_TOKENS: u32 = 0x11;
/// Group-member offsets: `n_groups + 1` member offsets.
pub const TAG_GROUP_MEMBER_OFFSETS: u32 = 0x12;
/// Concatenated sorted member ids, group-major.
pub const TAG_GROUP_MEMBERS: u32 = 0x13;

/// Encode the group space into its `0x1x` sections.
pub fn encode_group_set(groups: &GroupSet, w: &mut SnapshotWriter) {
    let descriptions = groups
        .iter()
        .map(|(_, g)| g.description.iter().map(|t| t.raw()));
    w.ragged(
        TAG_GROUP_DESC_OFFSETS,
        TAG_GROUP_DESC_TOKENS,
        &Ragged::from_lists(descriptions),
    );
    w.ragged(
        TAG_GROUP_MEMBER_OFFSETS,
        TAG_GROUP_MEMBERS,
        &Ragged::from_lists(groups.iter().map(|(_, g)| g.members.iter())),
    );
}

/// Decode the group space written by [`encode_group_set`], validating every
/// structural invariant the engine relies on: offset tables monotone and
/// exactly covering their payloads, descriptions strictly ascending token
/// ids below `n_tokens`, member lists strictly ascending user indices below
/// `n_users`.
pub fn decode_group_set(
    r: &SnapshotReader,
    n_users: usize,
    n_tokens: usize,
) -> Result<GroupSet, SnapshotError> {
    let descriptions = r.ragged(TAG_GROUP_DESC_OFFSETS, TAG_GROUP_DESC_TOKENS)?;
    let members = r.ragged(TAG_GROUP_MEMBER_OFFSETS, TAG_GROUP_MEMBERS)?;
    if descriptions.len() != members.len() {
        return Err(SnapshotError::Malformed {
            tag: TAG_GROUP_MEMBER_OFFSETS,
            what: "description/member group counts disagree",
        });
    }
    // Validation is array-global, so the construction loop below is pure.
    let descriptions = descriptions.ascending_below(
        n_tokens,
        "description tokens not strictly ascending in vocabulary",
    )?;
    let members = members.ascending_below(
        n_users,
        "member ids not strictly ascending below the user count",
    )?;
    let groups = (0..members.len()).map(|i| Group {
        description: descriptions
            .list(i)
            .iter()
            .map(|&t| TokenId::new(t))
            .collect(),
        members: MemberSet::from_shared(members.store(i)),
    });
    Ok(GroupSet::from_groups(groups.collect()))
}

/// Stream-state META: `[n_seen_lo, n_seen_hi, evictions_lo, evictions_hi,
/// arrivals_lo, arrivals_hi, n_entries, n_users]`.
pub const TAG_STREAM_META: u32 = 0x70;
/// Miner-table itemset offsets: `n_entries + 1` token offsets.
pub const TAG_STREAM_KEY_OFFSETS: u32 = 0x71;
/// Concatenated itemset tokens, entry-major (entries in canonical —
/// itemset-ascending — order).
pub const TAG_STREAM_KEY_TOKENS: u32 = 0x72;
/// Per-entry counts, two words each (`lo, hi`).
pub const TAG_STREAM_COUNTS: u32 = 0x73;
/// Per-entry lossy-counting insertion deltas, two words each.
pub const TAG_STREAM_DELTAS: u32 = 0x74;
/// Miner-table member offsets: `n_entries + 1` member offsets.
pub const TAG_STREAM_MEMBER_OFFSETS: u32 = 0x75;
/// Concatenated sorted member ids, entry-major.
pub const TAG_STREAM_MEMBERS: u32 = 0x76;
/// Per-user arrival bits, packed 32 per word (bit `u % 32` of word
/// `u / 32`); trailing bits past `n_users` are zero.
pub const TAG_STREAM_SEEN: u32 = 0x77;

/// Encode a [`DeltaDiscovery`] driver's mutable state into its `0x7x`
/// sections. The encoding is canonical — a pure function of the logical
/// state (see [`StreamMiner::export_state`]) — so two drivers in the same
/// state encode byte-identically regardless of history.
pub fn encode_stream_state(dd: &DeltaDiscovery, w: &mut SnapshotWriter) {
    let state = dd.miner().export_state();
    let seen = dd.seen();
    let meta = [
        split_u64(state.n_seen),
        split_u64(state.evictions),
        split_u64(dd.arrivals()),
        [state.entries.len() as u32, seen.len() as u32],
    ];
    w.section_words(TAG_STREAM_META, meta.into_iter().flatten());

    let entries = &state.entries;
    let itemsets = entries.iter().map(|e| e.itemset.iter().map(|t| t.raw()));
    w.ragged(
        TAG_STREAM_KEY_OFFSETS,
        TAG_STREAM_KEY_TOKENS,
        &Ragged::from_lists(itemsets),
    );
    w.section_words(
        TAG_STREAM_COUNTS,
        entries.iter().flat_map(|e| split_u64(e.count)),
    );
    w.section_words(
        TAG_STREAM_DELTAS,
        entries.iter().flat_map(|e| split_u64(e.delta)),
    );
    let members = entries.iter().map(|e| e.members.iter().copied());
    w.ragged(
        TAG_STREAM_MEMBER_OFFSETS,
        TAG_STREAM_MEMBERS,
        &Ragged::from_lists(members),
    );

    let mut packed = vec![0u32; seen.len().div_ceil(32)];
    for (u, &s) in seen.iter().enumerate() {
        if s {
            packed[u / 32] |= 1 << (u % 32);
        }
    }
    w.section_words(TAG_STREAM_SEEN, packed);
}

/// Decode the stream state written by [`encode_stream_state`] and
/// reassemble the driver. `cfg` and `min_group_size` come from the
/// caller's engine configuration (a checkpoint loader cross-checks them
/// against its own META before calling); `prev` is the group space the
/// next epoch cut must diff against (the checkpoint's engine space).
/// Every structural invariant the
/// miner relies on is validated — offsets, canonical entry order, sorted
/// itemsets and member lists, bit padding — so restamped corruption
/// surfaces as a typed error, never a panic or silent wrong state.
pub fn decode_stream_state(
    r: &SnapshotReader,
    cfg: StreamFimConfig,
    min_group_size: usize,
    n_users: usize,
    n_tokens: usize,
    prev: GroupSet,
) -> Result<DeltaDiscovery, SnapshotError> {
    let meta: [u32; 8] = r.meta(TAG_STREAM_META, "stream META is not eight words")?;
    let n_seen = join_u64(meta[0], meta[1]);
    let evictions = join_u64(meta[2], meta[3]);
    let arrivals = join_u64(meta[4], meta[5]);
    let n_entries = meta[6] as usize;
    if meta[7] as usize != n_users {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_META,
            what: "stream user universe does not match the dataset",
        });
    }

    let itemsets = r.ragged(TAG_STREAM_KEY_OFFSETS, TAG_STREAM_KEY_TOKENS)?;
    let counts = r.section_words(TAG_STREAM_COUNTS)?;
    let deltas = r.section_words(TAG_STREAM_DELTAS)?;
    let members = r.ragged(TAG_STREAM_MEMBER_OFFSETS, TAG_STREAM_MEMBERS)?;
    if itemsets.len() != n_entries || members.len() != n_entries {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_KEY_OFFSETS,
            what: "offset tables disagree with the META entry count",
        });
    }
    if counts.len() != n_entries * 2 || deltas.len() != n_entries * 2 {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_COUNTS,
            what: "count/delta tables disagree with the META entry count",
        });
    }
    let itemsets = itemsets.ascending_below(
        n_tokens,
        "itemset tokens not strictly ascending in vocabulary",
    )?;
    let members = members.ascending_below(
        n_users,
        "member ids not strictly ascending below the user count",
    )?;

    let packed = r.section_words(TAG_STREAM_SEEN)?;
    if packed.len() != n_users.div_ceil(32) {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_SEEN,
            what: "arrival bitmap length disagrees with the user count",
        });
    }
    let packed = packed.as_slice();
    let mut seen = vec![false; n_users];
    let mut popcount = 0u64;
    for (u, s) in seen.iter_mut().enumerate() {
        *s = packed[u / 32] & (1 << (u % 32)) != 0;
        popcount += *s as u64;
    }
    if !n_users.is_multiple_of(32)
        && !packed.is_empty()
        && packed[packed.len() - 1] >> (n_users % 32) != 0
    {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_SEEN,
            what: "arrival bitmap has bits past the user universe",
        });
    }
    if popcount != arrivals {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_SEEN,
            what: "arrival count disagrees with the arrival bitmap",
        });
    }

    let mut entries = Vec::with_capacity(n_entries);
    for i in 0..n_entries {
        let itemset: Vec<TokenId> = itemsets.list(i).iter().map(|&t| TokenId::new(t)).collect();
        if itemset.is_empty() {
            return Err(SnapshotError::Malformed {
                tag: TAG_STREAM_KEY_TOKENS,
                what: "empty itemset in the miner table",
            });
        }
        let count = join_u64(counts[2 * i], counts[2 * i + 1]);
        if count == 0 {
            return Err(SnapshotError::Malformed {
                tag: TAG_STREAM_COUNTS,
                what: "zero-count entry in the miner table",
            });
        }
        entries.push(MinerEntry {
            itemset,
            count,
            delta: join_u64(deltas[2 * i], deltas[2 * i + 1]),
            members: members.list(i).to_vec(),
        });
    }
    if !entries.windows(2).all(|w| w[0].itemset < w[1].itemset) {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_KEY_TOKENS,
            what: "miner entries not in canonical itemset order",
        });
    }
    let miner = StreamMiner::from_state(
        cfg,
        MinerState {
            entries,
            n_seen,
            evictions,
        },
    );
    Ok(DeltaDiscovery::from_parts(
        miner,
        seen,
        arrivals,
        min_group_size,
        prev,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GroupSet {
        let mut gs = GroupSet::new();
        gs.push(Group::new(
            vec![TokenId::new(0), TokenId::new(2)],
            MemberSet::from_unsorted(vec![0, 3, 5]),
        ));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2])));
        gs.push(Group::new(
            vec![TokenId::new(1)],
            MemberSet::from_unsorted(vec![5]),
        ));
        gs
    }

    fn round_trip(gs: &GroupSet, n_users: usize, n_tokens: usize) -> GroupSet {
        let mut w = SnapshotWriter::new();
        encode_group_set(gs, &mut w);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        decode_group_set(&r, n_users, n_tokens).unwrap()
    }

    #[test]
    fn group_set_round_trips() {
        let gs = sample();
        let back = round_trip(&gs, 6, 3);
        assert_eq!(back, gs);
        // Members come back as zero-copy views owning no heap; only the
        // (small, owned) descriptions count against the loaded form.
        assert!(back.iter().all(|(_, g)| g.members.heap_bytes() == 0));
        assert!(back.heap_bytes() < gs.heap_bytes());
        // Empty group space round-trips too.
        let empty = round_trip(&GroupSet::new(), 0, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn decode_validates_bounds() {
        let gs = sample();
        let mut w = SnapshotWriter::new();
        encode_group_set(&gs, &mut w);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        // Member id 5 is out of range for a 5-user universe.
        assert!(matches!(
            decode_group_set(&r, 5, 3).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_GROUP_MEMBERS,
                ..
            }
        ));
        // Token id 2 is out of range for a 2-token vocabulary.
        assert!(matches!(
            decode_group_set(&r, 6, 2).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_GROUP_DESC_TOKENS,
                ..
            }
        ));
    }

    #[test]
    fn decode_rejects_unsorted_members() {
        let mut w = SnapshotWriter::new();
        w.section_words(TAG_GROUP_DESC_OFFSETS, [0, 0]);
        w.section_words(TAG_GROUP_DESC_TOKENS, []);
        w.section_words(TAG_GROUP_MEMBER_OFFSETS, [0, 2]);
        w.section_words(TAG_GROUP_MEMBERS, [3, 1]);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        assert!(matches!(
            decode_group_set(&r, 9, 9).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_GROUP_MEMBERS,
                ..
            }
        ));
    }

    #[test]
    fn decode_rejects_mismatched_offset_tables() {
        let mut w = SnapshotWriter::new();
        w.section_words(TAG_GROUP_DESC_OFFSETS, [0, 0, 0]);
        w.section_words(TAG_GROUP_DESC_TOKENS, []);
        w.section_words(TAG_GROUP_MEMBER_OFFSETS, [0, 1]);
        w.section_words(TAG_GROUP_MEMBERS, [0]);
        let buf = w.finish();
        let r = SnapshotReader::load(&buf).unwrap();
        assert!(matches!(
            decode_group_set(&r, 9, 9).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_GROUP_MEMBER_OFFSETS,
                ..
            }
        ));
    }

    fn sample_discovery() -> DeltaDiscovery {
        let entries = vec![
            MinerEntry {
                itemset: vec![TokenId::new(0)],
                count: u64::from(u32::MAX) + 7,
                delta: 3,
                members: vec![0, 2, 40],
            },
            MinerEntry {
                itemset: vec![TokenId::new(0), TokenId::new(4)],
                count: 2,
                delta: u64::from(u32::MAX) + 1,
                members: vec![2],
            },
            MinerEntry {
                itemset: vec![TokenId::new(3)],
                count: 1,
                delta: 0,
                members: vec![40],
            },
        ];
        let miner = StreamMiner::from_state(
            StreamFimConfig::default(),
            MinerState {
                entries,
                n_seen: u64::from(u32::MAX) + 11,
                evictions: 5,
            },
        );
        let mut seen = vec![false; 41];
        for u in [0usize, 2, 7, 40] {
            seen[u] = true;
        }
        DeltaDiscovery::from_parts(miner, seen, 4, 2, sample())
    }

    fn encode_to_buf(dd: &DeltaDiscovery) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode_stream_state(dd, &mut w);
        w.finish()
    }

    fn decode_from_buf(buf: &[u8], n_users: usize) -> Result<DeltaDiscovery, SnapshotError> {
        let r = SnapshotReader::load(buf)?;
        decode_stream_state(&r, StreamFimConfig::default(), 2, n_users, 9, sample())
    }

    #[test]
    fn stream_state_round_trips() {
        let dd = sample_discovery();
        let buf = encode_to_buf(&dd);
        let back = decode_from_buf(&buf, 41).unwrap();
        assert_eq!(back.miner().export_state(), dd.miner().export_state());
        assert_eq!(back.seen(), dd.seen());
        assert_eq!(back.arrivals(), dd.arrivals());
        assert_eq!(back.groups(), dd.groups());
        // The encoding is canonical: re-encoding the decoded driver is
        // byte-identical.
        assert_eq!(encode_to_buf(&back), buf);
    }

    #[test]
    fn stream_state_empty_round_trips() {
        let dd = DeltaDiscovery::new(StreamFimConfig::default(), 2, 0);
        let buf = encode_to_buf(&dd);
        let back = decode_from_buf(&buf, 0).unwrap();
        assert_eq!(back.miner().export_state(), MinerState::default());
        assert!(back.seen().is_empty());
    }

    #[test]
    fn stream_decode_rejects_wrong_universe() {
        let buf = encode_to_buf(&sample_discovery());
        assert!(matches!(
            decode_from_buf(&buf, 40).unwrap_err(),
            SnapshotError::Malformed {
                tag: TAG_STREAM_META,
                ..
            }
        ));
    }

    fn tampered(mutate: impl FnOnce(&mut SnapshotWriter)) -> Result<DeltaDiscovery, SnapshotError> {
        let mut w = SnapshotWriter::new();
        mutate(&mut w);
        decode_from_buf(&w.finish(), 64)
    }

    fn base_sections(w: &mut SnapshotWriter, meta: &[u32], seen_words: &[u32]) {
        w.section_words(TAG_STREAM_META, meta.iter().copied());
        w.section_words(TAG_STREAM_KEY_OFFSETS, [0, 1]);
        w.section_words(TAG_STREAM_KEY_TOKENS, [0]);
        w.section_words(TAG_STREAM_COUNTS, [1, 0]);
        w.section_words(TAG_STREAM_DELTAS, [0, 0]);
        w.section_words(TAG_STREAM_MEMBER_OFFSETS, [0, 1]);
        w.section_words(TAG_STREAM_MEMBERS, [0]);
        w.section_words(TAG_STREAM_SEEN, seen_words.iter().copied());
    }

    #[test]
    fn stream_decode_rejects_structural_damage() {
        // Arrival count disagrees with the bitmap popcount.
        let err = tampered(|w| base_sections(w, &[1, 0, 0, 0, 2, 0, 1, 64], &[1, 0])).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed {
                tag: TAG_STREAM_SEEN,
                ..
            }
        ));
        // Zero-count miner entry.
        let err = tampered(|w| {
            w.section_words(TAG_STREAM_META, [1, 0, 0, 0, 1, 0, 1, 64]);
            w.section_words(TAG_STREAM_KEY_OFFSETS, [0, 1]);
            w.section_words(TAG_STREAM_KEY_TOKENS, [0]);
            w.section_words(TAG_STREAM_COUNTS, [0, 0]);
            w.section_words(TAG_STREAM_DELTAS, [0, 0]);
            w.section_words(TAG_STREAM_MEMBER_OFFSETS, [0, 1]);
            w.section_words(TAG_STREAM_MEMBERS, [0]);
            w.section_words(TAG_STREAM_SEEN, [1, 0]);
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed {
                tag: TAG_STREAM_COUNTS,
                ..
            }
        ));
        // Entries out of canonical (itemset-ascending) order.
        let err = tampered(|w| {
            w.section_words(TAG_STREAM_META, [2, 0, 0, 0, 1, 0, 2, 64]);
            w.section_words(TAG_STREAM_KEY_OFFSETS, [0, 1, 2]);
            w.section_words(TAG_STREAM_KEY_TOKENS, [3, 1]);
            w.section_words(TAG_STREAM_COUNTS, [1, 0, 1, 0]);
            w.section_words(TAG_STREAM_DELTAS, [0, 0, 0, 0]);
            w.section_words(TAG_STREAM_MEMBER_OFFSETS, [0, 1, 2]);
            w.section_words(TAG_STREAM_MEMBERS, [0, 1]);
            w.section_words(TAG_STREAM_SEEN, [1, 0]);
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed {
                tag: TAG_STREAM_KEY_TOKENS,
                ..
            }
        ));
        // Arrival bits past the user universe (bit 33 in a 33-user world).
        let mut w = SnapshotWriter::new();
        base_sections(&mut w, &[1, 0, 0, 0, 1, 0, 1, 33], &[1, 2]);
        let err = decode_from_buf(&w.finish(), 33).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed {
                tag: TAG_STREAM_SEEN,
                ..
            }
        ));
    }
}
