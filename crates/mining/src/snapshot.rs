//! Snapshot codec for the group space (`0x1x` section tags) and the live
//! stream-miner state (`0x70`–`0x77`; the tag table is in
//! [`vexus_data::snapshot`]).
//!
//! A [`GroupSet`] flattens into two [`Ragged`] tables — descriptions and
//! member lists — the same offsets-plus-payload shape the CSR index uses.
//! Decoding hands every group's member set back as a zero-copy
//! [`Ragged::view`] into the loaded buffer: the dominant payload (member
//! ids) costs no per-group allocations. Descriptions are short (a handful of tokens) and live in
//! `HashMap` keys and move-heavy merge paths, so they are rebuilt as owned
//! `Vec<TokenId>`s.
//!
//! The stream-state codec persists a [`DeltaDiscovery`] driver — the
//! lossy-counting table, the stream clock, and the per-user arrival bits —
//! so a live-engine checkpoint can resume discovery observation-equivalent
//! to an uninterrupted run (the crash-recovery byte-identity oracle rests
//! on this). The table is written straight from the miner, in the itemset
//! order [`crate::stream_fim`] owns, with each member list sorted; the
//! decoder checks that order and fills a fresh miner's table, each member
//! run an entry's settled (sorted) prefix.

use crate::bitmap::MemberSet;
use crate::delta::DeltaDiscovery;
use crate::group::{Group, GroupSet};
use crate::stream_fim::{Entry, StreamFimConfig, StreamMiner};
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
        members: MemberSet::from_sorted(members.view(i)),
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
/// sections. The encoding is canonical — entries in itemset order, each
/// member list sorted whole (an entry under the floor may still carry an
/// arrival-order tail; member order never reaches any output, since every
/// user is observed at most once per entry and a reported group is
/// settled into ascending order anyway) — so two drivers in the same
/// logical state encode byte-identically regardless of history.
pub fn encode_stream_state(dd: &DeltaDiscovery, w: &mut SnapshotWriter) {
    let miner = dd.miner();
    let entries = miner.entries(|_| true);
    let seen = dd.seen();
    let meta = [
        split_u64(miner.n_seen),
        split_u64(miner.evictions),
        split_u64(dd.arrivals()),
        [entries.len() as u32, seen.len() as u32],
    ];
    w.section_words(TAG_STREAM_META, meta.into_iter().flatten());

    let itemsets = entries
        .iter()
        .map(|(itemset, _)| itemset.iter().map(|t| t.raw()));
    w.ragged(
        TAG_STREAM_KEY_OFFSETS,
        TAG_STREAM_KEY_TOKENS,
        &Ragged::from_lists(itemsets),
    );
    w.section_words(
        TAG_STREAM_COUNTS,
        entries.iter().flat_map(|(_, e)| split_u64(e.count)),
    );
    w.section_words(
        TAG_STREAM_DELTAS,
        entries.iter().flat_map(|(_, e)| split_u64(e.delta)),
    );
    let mut offsets = Vec::with_capacity(entries.len() + 1);
    let mut members = Vec::new();
    offsets.push(0);
    for (_, e) in &entries {
        let start = members.len();
        members.extend_from_slice(&e.members);
        members[start..].sort_unstable();
        offsets.push(members.len() as u32);
    }
    w.ragged(
        TAG_STREAM_MEMBER_OFFSETS,
        TAG_STREAM_MEMBERS,
        &Ragged::from_parts(offsets, members).expect("offsets lay out the member runs"),
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
/// against its own META before calling). The driver resumes with no
/// previous epoch (see [`DeltaDiscovery::from_parts`]). Every structural
/// invariant the miner relies on is validated — offsets, canonical entry order, sorted
/// itemsets and member lists, bit padding — so restamped corruption
/// surfaces as a typed error, never a panic or silent wrong state.
pub fn decode_stream_state(
    r: &SnapshotReader,
    cfg: StreamFimConfig,
    min_group_size: usize,
    n_users: usize,
    n_tokens: usize,
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

    let mut miner = StreamMiner::new(cfg);
    miner.n_seen = n_seen;
    miner.evictions = evictions;
    miner.table.reserve(n_entries);
    for i in 0..n_entries {
        let itemset = itemsets.list(i);
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
        let run = members.list(i);
        miner.table.insert(
            itemset.iter().map(|&t| TokenId::new(t)).collect(),
            Entry {
                count,
                delta: join_u64(deltas[2 * i], deltas[2 * i + 1]),
                members: run.to_vec(),
                sorted: run.len(),
            },
        );
    }
    if !(1..n_entries).all(|i| itemsets.list(i - 1) < itemsets.list(i)) {
        return Err(SnapshotError::Malformed {
            tag: TAG_STREAM_KEY_TOKENS,
            what: "miner entries not in canonical itemset order",
        });
    }
    Ok(DeltaDiscovery::from_parts(
        miner,
        seen,
        arrivals,
        min_group_size,
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

    /// Counts and deltas past `u32::MAX` exercise the two-word split;
    /// members are an unsettled arrival-order tail, as the miner keeps
    /// them for an entry it has not reported since they arrived.
    fn sample_discovery() -> DeltaDiscovery {
        let mut miner = StreamMiner::new(StreamFimConfig::default());
        miner.n_seen = u64::from(u32::MAX) + 11;
        miner.evictions = 5;
        let entries: [(&[u32], u64, u64, &[u32]); 3] = [
            (&[0], u64::from(u32::MAX) + 7, 3, &[40, 0, 2]),
            (&[0, 4], 2, u64::from(u32::MAX) + 1, &[2]),
            (&[3], 1, 0, &[40]),
        ];
        for (itemset, count, delta, members) in entries {
            miner.table.insert(
                itemset.iter().map(|&t| TokenId::new(t)).collect(),
                Entry {
                    count,
                    delta,
                    members: members.to_vec(),
                    sorted: 0,
                },
            );
        }
        let mut seen = vec![false; 41];
        for u in [0usize, 2, 7, 40] {
            seen[u] = true;
        }
        DeltaDiscovery::from_parts(miner, seen, 4, 2)
    }

    fn encode_to_buf(dd: &DeltaDiscovery) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode_stream_state(dd, &mut w);
        w.finish()
    }

    fn decode_from_buf(buf: &[u8], n_users: usize) -> Result<DeltaDiscovery, SnapshotError> {
        let r = SnapshotReader::load(buf)?;
        decode_stream_state(&r, StreamFimConfig::default(), 2, n_users, 9)
    }

    #[test]
    fn stream_state_round_trips() {
        let mut dd = sample_discovery();
        let buf = encode_to_buf(&dd);
        let mut back = decode_from_buf(&buf, 41).unwrap();
        let miner = back.miner();
        assert_eq!(
            (miner.n_seen, miner.evictions),
            (u64::from(u32::MAX) + 11, 5)
        );
        assert_eq!(miner.table.len(), 3);
        let e = &miner.table[&vec![TokenId::new(0)]];
        assert_eq!((e.count, e.delta), (u64::from(u32::MAX) + 7, 3));
        // Member runs are written sorted and decode settled.
        assert_eq!(e.members, [0, 2, 40]);
        assert_eq!(e.sorted, 3);
        let e = &miner.table[&vec![TokenId::new(0), TokenId::new(4)]];
        assert_eq!((e.count, e.delta), (2, u64::from(u32::MAX) + 1));
        assert_eq!(back.seen(), dd.seen());
        assert_eq!(back.arrivals(), dd.arrivals());
        // The encoding is canonical: re-encoding the decoded driver is
        // byte-identical.
        assert_eq!(encode_to_buf(&back), buf);
        // The first cut re-derives the same space and delta.
        assert_eq!(back.epoch(), dd.epoch());
    }

    #[test]
    fn stream_state_empty_round_trips() {
        let dd = DeltaDiscovery::new(StreamFimConfig::default(), 2, 0);
        let buf = encode_to_buf(&dd);
        let back = decode_from_buf(&buf, 0).unwrap();
        assert!(back.miner().table.is_empty());
        assert_eq!((back.miner().n_seen, back.miner().evictions), (0, 0));
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

    /// A dataset whose users carry `(a, b, c)` plus a token of their own,
    /// so every bucket boundary evicts the singletons of the users that
    /// arrived in the bucket before.
    fn arrival_world(demo: &[(u32, u32, u32)]) -> (vexus_data::UserData, vexus_data::Vocabulary) {
        use vexus_data::{Schema, UserDataBuilder};
        let mut schema = Schema::new();
        let attrs = ["a", "b", "c", "own"].map(|name| schema.add_categorical(name));
        let mut b = UserDataBuilder::new(schema);
        for (i, &(x, y, z)) in demo.iter().enumerate() {
            let u = b.user(&format!("u{i}"));
            for (attr, value) in attrs.iter().zip([x, y, z, i as u32]) {
                b.set_demo(u, *attr, &value.to_string()).unwrap();
            }
        }
        b.item("x", None);
        let data = b.build();
        let vocab = vexus_data::Vocabulary::build(&data);
        (data, vocab)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Random arrival streams across bucket boundaries (width 20),
        /// with epochs cut along the way: the miner reports in canonical
        /// order, a checkpoint re-encodes byte-identically, and the decoded
        /// driver cuts the space the original would have and then resumes
        /// in lockstep with it.
        #[test]
        fn prop_checkpoint_resumes_the_arrival_stream(
            demo in proptest::collection::vec((0u32..3, 0u32..4, 0u32..5), 30..120),
            arrivals in proptest::collection::vec(0usize..120, 40..240),
            cut_every in 1usize..50,
            split in 0usize..240
        ) {
            use vexus_data::{Action, ItemId, UserId};
            let n = demo.len();
            let (data, vocab) = arrival_world(&demo);
            let actions: Vec<Action> = arrivals
                .iter()
                .map(|&u| Action { user: UserId::new((u % n) as u32), item: ItemId::new(0), value: 1.0 })
                .collect();
            let (prefix, suffix) = actions.split_at(split % (actions.len() + 1));
            let cfg = StreamFimConfig { support: 0.1, epsilon: 0.05, max_len: 3 };
            let mut dd = DeltaDiscovery::new(cfg.clone(), 2, n);
            for chunk in prefix.chunks(cut_every) {
                dd.observe_arrivals(&data, &vocab, chunk);
                dd.epoch();
            }
            let buf = encode_to_buf(&dd);
            let r = SnapshotReader::load(&buf).unwrap();
            let mut back = decode_stream_state(&r, cfg, 2, n, vocab.len()).unwrap();
            proptest::prop_assert!(encode_to_buf(&back) == buf, "re-encoding differs");
            let mut last = dd.epoch();
            proptest::prop_assert_eq!(back.epoch().0, last.0);
            for chunk in suffix.chunks(cut_every) {
                dd.observe_arrivals(&data, &vocab, chunk);
                back.observe_arrivals(&data, &vocab, chunk);
                last = dd.epoch();
                proptest::prop_assert_eq!(back.epoch(), last);
            }
            proptest::prop_assert!(encode_to_buf(&back) == encode_to_buf(&dd), "resumed state differs");
            let descriptions: Vec<_> = last.0.iter().map(|(_, g)| &g.description).collect();
            proptest::prop_assert!(descriptions.windows(2).all(|w| w[0] < w[1]), "groups out of order");
            if dd.arrivals() >= 20 {
                proptest::prop_assert!(dd.miner().evictions > 0, "no bucket boundary evicted");
            }
        }
    }
}
