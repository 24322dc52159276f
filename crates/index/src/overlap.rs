//! Pair overlap counts carried across epochs: what a live refresh lays out
//! its index from.
//!
//! [`GroupIndex::build`] walks the member→groups CSR once per group, which
//! costs Σ deg(u)² counter bumps over the members `u` — the same on every
//! refresh, however little changed. [`OverlapRows`] keeps the result of
//! that walk instead: for every group, each overlapping group with the
//! size of their intersection. A refresh moves those counts by the
//! memberships the epoch's [`GroupDelta`] flips and lays out the new
//! index from them with the build's own keys and selection
//! ([`OverlapRows::advance`]), so it costs
//! O(flips × degree + pairs + memberships) and yields the build's bytes.

use crate::inverted::{
    keep_of, row_keys, select_top, walk, GroupIndex, IndexConfig, IndexPatch, MemberGroupsCsr, Walk,
};
use vexus_data::snapshot::Ragged;
use vexus_mining::{GroupDelta, GroupId, GroupSet};

/// For every group of a space, its overlapping groups `h` with
/// `|g ∩ h|`, ascending by id: 2 × `scored_pairs` entries of 8 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapRows {
    /// `pairs[offsets[g]..offsets[g + 1]]` is row `g`.
    offsets: Vec<u32>,
    /// `(h, |g ∩ h|)`, group-major; no zero count, no diagonal.
    pairs: Vec<(u32, u32)>,
}

impl OverlapRows {
    /// The rows of `groups` and the index over it, from one walk: the
    /// build's walk, which keeps each row as well as laying it out. The
    /// index is byte-identical to [`GroupIndex::build`].
    pub fn build(groups: &GroupSet, cfg: &IndexConfig) -> (Self, GroupIndex) {
        let member_groups = MemberGroupsCsr::build(groups);
        let mut walked = walk(groups, &member_groups, cfg, true);
        let rows = Self::from_lengths(&walked.full_lengths, std::mem::take(&mut walked.rows));
        (rows, walked.into_index(member_groups))
    }

    /// The rows of the space `index` was built over (`groups`), from one
    /// walk of its retained CSR — a built or a snapshot-loaded one. Its
    /// only caller is the stateless [`GroupIndex::apply_delta`]; a live
    /// engine gets its rows from [`OverlapRows::build`] and carries them.
    pub(crate) fn of_index(index: &GroupIndex, groups: &GroupSet, cfg: &IndexConfig) -> Self {
        debug_assert_eq!(index.len(), groups.len(), "space does not match the index");
        // Only the rows are wanted: a zero fraction lays nothing out.
        let rows_only = IndexConfig {
            materialize_fraction: 0.0,
            threads: cfg.threads,
        };
        let walked = walk(groups, index.member_groups(), &rows_only, true);
        Self::from_lengths(&walked.full_lengths, walked.rows)
    }

    /// Rows back to back, each `lengths[g]` long.
    fn from_lengths(lengths: &[u32], pairs: Vec<(u32, u32)>) -> Self {
        let mut offsets = Vec::with_capacity(lengths.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for &len in lengths {
            end += len;
            offsets.push(end);
        }
        Self { offsets, pairs }
    }

    /// Number of rows (groups of the space).
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `g`: its overlapping groups with the intersection sizes,
    /// ascending by id.
    pub(crate) fn row(&self, g: GroupId) -> &[(u32, u32)] {
        &self.pairs[self.offsets[g.index()] as usize..self.offsets[g.index() + 1] as usize]
    }

    /// Advance the rows from `old_groups` (the space they hold, which
    /// `old_index` was built over) to `new_groups`, and lay out the new
    /// epoch's index from them. `delta` is the
    /// [`vexus_mining::delta::diff`] between the two canonical spaces. The
    /// index is byte-identical to [`GroupIndex::build`]`(new_groups, cfg)`:
    /// every row becomes keys through the same `f32` Jaccard and the same
    /// selection.
    ///
    /// * **Flips.** Every member of an added group joins it; the users
    ///   only one epoch of a resized group holds join or leave it.
    ///   Retired groups flip nothing: their rows, and every pair with
    ///   them, drop in the merge.
    /// * **The new CSR** is the old one patched: every member's list
    ///   remapped through the survivor zip, retired ids dropped, and a
    ///   flipped member's joins and leaves merged in.
    /// * **Pair deltas.** A user who joins groups `A`, leaves `L` and
    ///   keeps `K` adds 1 to the ordered pairs of `A×(K∪A) ∪ K×A` and
    ///   takes 1 from those of `L×(K∪L) ∪ K×L`, off the diagonal. Pairs
    ///   inside `K` keep their count and are never emitted.
    /// * **One merge pass** over the new ids: the old row, ids remapped
    ///   through the survivor zip and retired ids dropped, merged with the
    ///   sorted deltas, zero counts dropped, is the new row.
    ///
    /// **The dirty set** comes from the same pass: a new group is dirty
    /// iff it is added or resized, its old row holds a retired or resized
    /// group, or its new row holds an added or resized group. That is the
    /// rule "added, resized, or sharing a member with a touched (added,
    /// retired or resized) group". Proof: the rule's first clause is the
    /// same. Any other group `g` is an unchanged survivor, so it has the
    /// same members `M` in both epochs. `g` shares a member with a retired
    /// group, or with a resized group's old members, iff that group
    /// overlaps `M` in the old space, i.e. iff it is in `g`'s old row; and
    /// `g` shares a member with an added group, or with a resized group's
    /// new members, iff that group overlaps `M` in the new space, i.e. iff
    /// it is in `g`'s new row.
    pub fn advance(
        &mut self,
        old_index: &GroupIndex,
        old_groups: &GroupSet,
        new_groups: &GroupSet,
        delta: &GroupDelta,
        cfg: &IndexConfig,
    ) -> IndexPatch {
        let (n_old, n_new) = (old_groups.len(), new_groups.len());
        debug_assert_eq!(self.len(), n_old, "rows do not match the old space");
        debug_assert_eq!(old_index.len(), n_old, "index does not match the old space");
        let old_to_new = survivor_map(n_old, delta);
        let mut new_to_old = vec![u32::MAX; n_new];
        for (o, &n) in old_to_new.iter().enumerate() {
            if n != u32::MAX {
                new_to_old[n as usize] = o as u32;
            }
        }
        // Touched groups, by the space whose rows can hold them.
        let mut touched_old = vec![false; n_old];
        let mut touched_new = vec![false; n_new];
        for &g in &delta.retired {
            touched_old[g.index()] = true;
        }
        for &g in &delta.added {
            touched_new[g.index()] = true;
        }
        for &(o, n) in &delta.resized {
            touched_old[o.index()] = true;
            touched_new[n.index()] = true;
        }

        let flips = Flips::of(old_groups, new_groups, delta);
        let member_groups = flips.patch(old_index.member_groups(), new_groups, &old_to_new);
        let deltas = flips.pair_deltas(&member_groups);

        let fraction = cfg.materialize_fraction.clamp(0.0, 1.0);
        let mut offsets = Vec::with_capacity(n_new + 1);
        let mut pairs = Vec::with_capacity(self.pairs.len() + deltas.len());
        let mut laid = Walk {
            list_offsets: Vec::with_capacity(n_new + 1),
            entries: Vec::new(),
            full_lengths: Vec::with_capacity(n_new),
            rows: Vec::new(),
        };
        let mut dirty = vec![false; n_new];
        let mut keys = Vec::new();
        let mut next = 0;
        offsets.push(0);
        laid.list_offsets.push(0);
        for g in 0..n_new {
            let old_row = match new_to_old[g] {
                u32::MAX => &[][..],
                o => self.row(GroupId::new(o)),
            };
            let run = next + deltas[next..].partition_point(|&(key, _)| key >> 32 == g as u64);
            let start = pairs.len();
            merge_row(old_row, &old_to_new, &deltas[next..run], &mut pairs);
            next = run;
            let row = &pairs[start..];
            dirty[g] = touched_new[g]
                || old_row.iter().any(|&(h, _)| touched_old[h as usize])
                || row.iter().any(|&(h, _)| touched_new[h as usize]);

            row_keys(new_groups, GroupId::new(g as u32), row, &mut keys);
            let full = keys.len();
            laid.entries
                .extend(select_top(&mut keys, keep_of(fraction, full)));
            laid.list_offsets.push(laid.entries.len() as u32);
            laid.full_lengths.push(full as u32);
            offsets.push(pairs.len() as u32);
        }
        debug_assert_eq!(next, deltas.len(), "a pair delta off every new row");
        // The build allocates its entries to the exact length.
        laid.entries.shrink_to_fit();
        *self = Self { offsets, pairs };
        let rescored = dirty.iter().filter(|&&d| d).count();
        IndexPatch {
            index: laid.into_index(member_groups),
            old_to_new,
            dirty,
            rescored,
        }
    }
}

/// Old id → new id of every survivor, `u32::MAX` for retired ids: old ids
/// minus `retired` zipped in order with new ids minus `added`. Both spaces
/// are canonical, so the zip is the monotone remap.
fn survivor_map(n_old: usize, delta: &GroupDelta) -> Vec<u32> {
    let mut old_to_new = vec![u32::MAX; n_old];
    let mut retired = delta.retired.iter().peekable();
    let mut added = delta.added.iter().peekable();
    let mut j = 0u32;
    for i in 0..n_old as u32 {
        if retired.next_if(|r| r.0 == i).is_some() {
            continue;
        }
        while added.next_if(|a| a.0 == j).is_some() {
            j += 1;
        }
        old_to_new[i as usize] = j;
        j += 1;
    }
    for &(o, n) in &delta.resized {
        debug_assert_eq!(
            old_to_new[o.index()],
            n.0,
            "resized pair off the survivor zip"
        );
    }
    old_to_new
}

/// `a` and `b` in the high and low half of one sort key.
#[inline]
fn pack(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// An epoch's membership flips as `user << 32 | new group id`, ascending:
/// the memberships it adds and the ones it drops (retired groups aside).
struct Flips {
    joins: Vec<u64>,
    leaves: Vec<u64>,
}

impl Flips {
    fn of(old_groups: &GroupSet, new_groups: &GroupSet, delta: &GroupDelta) -> Self {
        let (mut joins, mut leaves) = (Vec::new(), Vec::new());
        for &g in &delta.added {
            joins.extend(new_groups.get(g).members.iter().map(|u| pack(u, g.0)));
        }
        for &(o, n) in &delta.resized {
            let old = old_groups.get(o).members.as_slice();
            let new = new_groups.get(n).members.as_slice();
            // Both member lists are ascending: skip each stretch they
            // share, then the smaller head is a leave or a join.
            let (mut i, mut j) = (0, 0);
            loop {
                let same = common_prefix(&old[i..], &new[j..]);
                (i, j) = (i + same, j + same);
                match (old.get(i), new.get(j)) {
                    (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                        leaves.push(pack(a, n.0));
                        i += 1;
                    }
                    (_, Some(&b)) => {
                        joins.push(pack(b, n.0));
                        j += 1;
                    }
                    // Only both lists spent reaches here.
                    (_, None) => break,
                }
            }
        }
        joins.sort_unstable();
        leaves.sort_unstable();
        Self { joins, leaves }
    }

    /// The new space's member→groups map, patched from the old space's
    /// `old`: each member's list remapped through `old_to_new` (retired
    /// ids drop, and the remap is monotone, so the list stays ascending),
    /// with a flipped member's leaves dropped and joins merged in. The
    /// same lists and the same exact allocations as
    /// [`MemberGroupsCsr::build`]`(new_groups)`.
    fn patch(
        &self,
        old: &MemberGroupsCsr,
        new_groups: &GroupSet,
        old_to_new: &[u32],
    ) -> MemberGroupsCsr {
        let n_members = MemberGroupsCsr::universe(new_groups);
        let (old_offsets, old_items) = (old.lists().offsets(), old.lists().items());
        // Where member `u`'s old list starts; past the old universe every
        // list is empty.
        let start_of = |u: usize| old_offsets[u.min(old.n_members())] as usize;
        let remap = |h: &u32| old_to_new[*h as usize];
        let mut offsets = Vec::with_capacity(n_members + 1);
        let mut ids = Vec::with_capacity(new_groups.total_memberships());
        offsets.push(0);
        let (mut i, mut j) = (0, 0);
        let mut u = 0;
        while u < n_members {
            // Every member before the next flipped one keeps its list.
            let flipped = (self.next_user(i, j) as usize).min(n_members);
            for v in u..flipped {
                let held = &old_items[start_of(v)..start_of(v + 1)];
                ids.extend(held.iter().map(remap).filter(|&m| m != u32::MAX));
                offsets.push(ids.len() as u32);
            }
            if flipped == n_members {
                break;
            }
            let joined = run(&self.joins, &mut i, flipped as u32);
            let left = run(&self.leaves, &mut j, flipped as u32);
            let mut joined = joined.iter().map(|&f| f as u32).peekable();
            let mut left = left.iter().map(|&f| f as u32).peekable();
            for &h in &old_items[start_of(flipped)..start_of(flipped + 1)] {
                let m = old_to_new[h as usize];
                if m == u32::MAX || left.next_if_eq(&m).is_some() {
                    continue;
                }
                while let Some(a) = joined.next_if(|&a| a < m) {
                    ids.push(a);
                }
                ids.push(m);
            }
            ids.extend(joined);
            offsets.push(ids.len() as u32);
            u = flipped + 1;
        }
        debug_assert_eq!(ids.len(), ids.capacity(), "memberships miscounted");
        MemberGroupsCsr::from_lists(
            Ragged::from_parts(offsets, ids).expect("a prefix sum of the list lengths"),
        )
    }

    /// The first user with a flip at or after `joins[i]` and `leaves[j]`,
    /// `u64::MAX` when both are spent.
    fn next_user(&self, i: usize, j: usize) -> u64 {
        let user_at = |flips: &[u64], at: usize| flips.get(at).map_or(u64::MAX, |f| f >> 32);
        user_at(&self.joins, i).min(user_at(&self.leaves, j))
    }

    /// The epoch's net pair count changes as `(g << 32 | h, change)`,
    /// ascending, zero nets dropped (see [`OverlapRows::advance`] for the
    /// rule). `member_groups` maps the new space.
    fn pair_deltas(&self, member_groups: &MemberGroupsCsr) -> Vec<(u64, i32)> {
        let (mut plus, mut minus, mut kept) = (Vec::new(), Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < self.joins.len() || j < self.leaves.len() {
            let user = self.next_user(i, j) as u32;
            let joined = run(&self.joins, &mut i, user);
            let left = run(&self.leaves, &mut j, user);
            // The user's new groups are K ∪ A, both ascending.
            let now = if (user as usize) < member_groups.n_members() {
                member_groups.groups_of(user)
            } else {
                &[]
            };
            kept.clear();
            kept.extend(
                now.iter()
                    .copied()
                    .filter(|&h| joined.binary_search(&pack(user, h)).is_err()),
            );
            for a in joined.iter().map(|&f| f as u32) {
                plus.extend(now.iter().filter(|&&h| h != a).map(|&h| pack(a, h)));
                plus.extend(kept.iter().map(|&k| pack(k, a)));
            }
            for l in left.iter().map(|&f| f as u32) {
                minus.extend(kept.iter().map(|&k| pack(l, k)));
                minus.extend(
                    left.iter()
                        .map(|&f| f as u32)
                        .filter(|&m| m != l)
                        .map(|m| pack(l, m)),
                );
                minus.extend(kept.iter().map(|&k| pack(k, l)));
            }
        }
        coalesce(plus, minus)
    }
}

/// The length of the common prefix of `a` and `b`, compared a block at a
/// time.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    const BLOCK: usize = 16;
    let n = a.len().min(b.len());
    let mut k = 0;
    while k + BLOCK <= n && a[k..k + BLOCK] == b[k..k + BLOCK] {
        k += BLOCK;
    }
    k + a[k..n]
        .iter()
        .zip(&b[k..n])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The flips of `user` from `*at` on, advancing `*at` past them. Flips are
/// ascending, so every earlier user's are behind `*at` already.
fn run<'a>(flips: &'a [u64], at: &mut usize, user: u32) -> &'a [u64] {
    let start = *at;
    while flips.get(*at).is_some_and(|&f| f >> 32 == u64::from(user)) {
        *at += 1;
    }
    &flips[start..*at]
}

/// Net `+1`s and `-1`s per key, ascending, zero nets dropped.
fn coalesce(mut plus: Vec<u64>, mut minus: Vec<u64>) -> Vec<(u64, i32)> {
    plus.sort_unstable();
    minus.sort_unstable();
    let mut out = Vec::with_capacity(plus.len().max(minus.len()));
    let (mut i, mut j) = (0, 0);
    while i < plus.len() || j < minus.len() {
        let key = match (plus.get(i), minus.get(j)) {
            (Some(&p), Some(&m)) => p.min(m),
            (Some(&k), None) | (None, Some(&k)) => k,
            (None, None) => unreachable!("the loop runs while a side is left"),
        };
        let mut net = 0i32;
        while plus.get(i) == Some(&key) {
            net += 1;
            i += 1;
        }
        while minus.get(j) == Some(&key) {
            net -= 1;
            j += 1;
        }
        if net != 0 {
            out.push((key, net));
        }
    }
    out
}

/// Append the new row merged from an old row (old ids, remapped through
/// `old_to_new`, retired ids dropped) and its run of pair deltas
/// (ascending `h` in the low half); a pair whose count reaches zero drops.
fn merge_row(
    old_row: &[(u32, u32)],
    old_to_new: &[u32],
    run: &[(u64, i32)],
    out: &mut Vec<(u32, u32)>,
) {
    let mut emit = |h: u32, count: i64| {
        debug_assert!(count >= 0, "a pair count below zero");
        if count > 0 {
            out.push((h, count as u32));
        }
    };
    let mut run = run.iter().map(|&(key, d)| (key as u32, d)).peekable();
    for &(old_h, count) in old_row {
        let h = old_to_new[old_h as usize];
        if h == u32::MAX {
            continue;
        }
        while let Some((dh, d)) = run.next_if(|&(dh, _)| dh < h) {
            emit(dh, d.into());
        }
        let d = run.next_if(|&(dh, _)| dh == h).map_or(0, |(_, d)| d);
        emit(h, i64::from(count) + i64::from(d));
    }
    for (dh, d) in run {
        emit(dh, d.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::tests::{assert_same_index, described_space};
    use vexus_mining::delta::diff;

    /// The dirty set by the marking walk over the old CSR — the rule
    /// [`OverlapRows::advance`] reads off its merge, computed the way the
    /// index computed it before the rows were carried. Added and resized
    /// groups are dirty outright; every member of a touched group,
    /// walked from the space that holds it, is marked (one beyond the old
    /// universe is in no old group), and every survivor in a marked
    /// member's old group list is dirty.
    fn marked_dirty(
        old_index: &GroupIndex,
        old_groups: &GroupSet,
        new_groups: &GroupSet,
        delta: &GroupDelta,
        old_to_new: &[u32],
    ) -> Vec<bool> {
        let old_csr = old_index.member_groups();
        let mut dirty = vec![false; new_groups.len()];
        let mut touched = vec![false; old_csr.n_members()];
        let mut mark = |members: &vexus_mining::MemberSet| {
            for u in members.iter() {
                if let Some(t) = touched.get_mut(u as usize) {
                    *t = true;
                }
            }
        };
        for &g in &delta.retired {
            mark(&old_groups.get(g).members);
        }
        for &(o, n) in &delta.resized {
            mark(&old_groups.get(o).members);
            mark(&new_groups.get(n).members);
            dirty[n.index()] = true;
        }
        for &g in &delta.added {
            mark(&new_groups.get(g).members);
            dirty[g.index()] = true;
        }
        for u in (0..touched.len()).filter(|&u| touched[u]) {
            for &h in old_csr.groups_of(u as u32) {
                let m = old_to_new[h as usize];
                if m != u32::MAX {
                    dirty[m as usize] = true;
                }
            }
        }
        dirty
    }

    fn config(fraction: f64, threads: usize) -> IndexConfig {
        IndexConfig {
            materialize_fraction: fraction,
            threads,
        }
    }

    fn encoded(index: &GroupIndex) -> Vec<u8> {
        let mut w = vexus_data::SnapshotWriter::new();
        crate::snapshot::encode_group_index(index, &mut w);
        w.finish()
    }

    /// Everything one advance promises, against the old epoch's built
    /// index: the new index is the build's, byte for byte and stat for
    /// stat; the dirty set is the marking walk's; the carried rows are a
    /// fresh walk's of the new space.
    fn assert_advance(
        rows: &mut OverlapRows,
        old_index: &GroupIndex,
        old: &GroupSet,
        new: &GroupSet,
        cfg: &IndexConfig,
        what: &str,
    ) -> GroupIndex {
        let delta = diff(old, new);
        let patch = rows.advance(old_index, old, new, &delta, cfg);
        let built = GroupIndex::build(new, cfg);
        assert_same_index(&patch.index, &built, what);
        assert_eq!(patch.index.stats(), built.stats(), "{what}: stats");
        assert!(encoded(&patch.index) == encoded(&built), "{what}: bytes");
        let oracle = marked_dirty(old_index, old, new, &delta, &patch.old_to_new);
        assert_eq!(patch.dirty, oracle, "{what}: dirty set");
        assert_eq!(patch.rescored, oracle.iter().filter(|&&d| d).count());
        assert_eq!(
            *rows,
            OverlapRows::of_index(&built, new, cfg),
            "{what}: rows"
        );
        built
    }

    #[test]
    fn one_walk_gives_the_build_and_the_rows() {
        let gs = described_space(&[
            (1, vec![0, 1, 2, 3]),
            (2, vec![2, 3, 4, 5]),
            (3, vec![3, 4, 5, 6]),
            (4, vec![100, 101]),
        ]);
        for threads in [1, 2, 3] {
            let cfg = config(0.5, threads);
            let (rows, index) = OverlapRows::build(&gs, &cfg);
            let built = GroupIndex::build(&gs, &cfg);
            assert!(encoded(&index) == encoded(&built), "threads={threads}");
            assert_eq!(index.stats(), built.stats());
            assert_eq!(rows, OverlapRows::of_index(&built, &gs, &cfg));
            assert_eq!(rows.row(GroupId::new(0)), &[(1, 2), (2, 1)]);
            assert_eq!(rows.row(GroupId::new(2)), &[(0, 1), (1, 3)]);
            assert!(rows.row(GroupId::new(3)).is_empty());
            assert_eq!(rows.len(), 4);
        }
        let (empty, index) = OverlapRows::build(&GroupSet::new(), &config(0.1, 0));
        assert!(empty.len() == 0 && index.is_empty());
    }

    /// User 5 keeps `{1}` and `{2}`, joins `{3}` (resized) and `{4}`
    /// (added), and leaves `{6}` (resized): the deltas are exactly the
    /// rule's pairs, and no pair inside the kept groups moves.
    #[test]
    fn pair_deltas_follow_joined_left_and_kept() {
        let old = described_space(&[
            (1, vec![5, 7]),
            (2, vec![5, 8]),
            (3, vec![9]),
            (6, vec![5, 9]),
        ]);
        let new = described_space(&[
            (1, vec![5, 7]),
            (2, vec![5, 8]),
            (3, vec![5, 9]),
            (4, vec![5]),
            (6, vec![9]),
        ]);
        let delta = diff(&old, &new);
        let deltas = Flips::of(&old, &new, &delta).pair_deltas(&MemberGroupsCsr::build(&new));
        // New ids: {1} 0, {2} 1, {3} 2, {4} 3, {6} 4. User 9 stays in
        // {3} and {6}; only user 5 flips.
        let (k1, k2, a3, a4, l6) = (0, 1, 2, 3, 4);
        // A×(K∪A) and K×A gain one, L×(K∪L) and K×L lose one.
        let gained = [
            (a3, k1),
            (a3, k2),
            (a3, a4),
            (a4, k1),
            (a4, k2),
            (a4, a3),
            (k1, a3),
            (k1, a4),
            (k2, a3),
            (k2, a4),
        ];
        let lost = [(l6, k1), (l6, k2), (k1, l6), (k2, l6)];
        let mut expect: Vec<(u64, i32)> = gained
            .iter()
            .map(|&(g, h)| (pack(g, h), 1))
            .chain(lost.iter().map(|&(g, h)| (pack(g, h), -1)))
            .collect();
        expect.sort_unstable();
        assert_eq!(deltas, expect);
        assert!(deltas.iter().all(|&(key, _)| key != pack(k1, k2)));
    }

    #[test]
    fn advance_chains_through_the_witness_epochs_and_back() {
        let old = described_space(&[
            (1, vec![0, 1, 2, 3]),
            (2, vec![2, 3, 4, 5]),
            (3, vec![30, 31, 32]),
            (5, vec![10, 11, 12]),
            (6, vec![12, 13]),
        ]);
        let new = described_space(&[
            (1, vec![0, 1, 2, 3]),
            (2, vec![2, 3, 4, 5, 6]),
            (3, vec![30, 31]),
            (4, vec![1, 2, 10, 40]),
            (6, vec![12, 13]),
        ]);
        let cfg = config(0.3, 1);
        let (mut rows, index) = OverlapRows::build(&old, &cfg);
        let index = assert_advance(&mut rows, &index, &old, &new, &cfg, "forward");
        let index = assert_advance(&mut rows, &index, &new, &old, &cfg, "back");
        assert_advance(&mut rows, &index, &old, &old, &cfg, "empty delta");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Chains of random epochs over a described space. Each epoch
        /// mixes adds, retires and resizes, moves one user between two
        /// groups (a join and a leave in the same epoch), and may shrink
        /// the universe (retire the far-id groups) or regrow it; an epoch
        /// with no op is an empty delta, and retires can leave one group
        /// or none. After every advance the index is the build's, the
        /// dirty set is the marking walk's, and the carried rows are a
        /// fresh walk's of the new space.
        #[test]
        fn prop_advance_chain_equals_build_and_marking_walk(
            initial in proptest::collection::vec(
                (0u32..16, 0u32..40, 1usize..10), 1..8),
            epochs in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..6, 0u32..16, 0u32..40, 1usize..10), 0..6),
                1..6),
            fraction in 0.0f64..1.0,
            threads in 1usize..4
        ) {
            let mut model: std::collections::BTreeMap<u32, Vec<u32>> =
                std::collections::BTreeMap::new();
            for (tag, start, len) in initial {
                model.entry(tag).or_insert_with(|| (start..start + len as u32).collect());
            }
            let space = |model: &std::collections::BTreeMap<u32, Vec<u32>>| {
                let defs: Vec<(u32, Vec<u32>)> =
                    model.iter().map(|(&t, m)| (t, m.clone())).collect();
                described_space(&defs)
            };
            let cfg = config(fraction, threads);
            let mut old = space(&model);
            let (mut rows, mut index) = OverlapRows::build(&old, &cfg);
            for (e, ops) in epochs.into_iter().enumerate() {
                for (kind, tag, start, len) in ops {
                    let members: Vec<u32> = (start..start + len as u32).collect();
                    let keys: Vec<u32> = model.keys().copied().collect();
                    let pick = |at: u32| keys[at as usize % keys.len()];
                    match kind {
                        0 => {
                            model.entry(tag).or_insert(members);
                        }
                        1 if !keys.is_empty() => {
                            model.remove(&pick(tag));
                        }
                        2 if !keys.is_empty() => {
                            model.insert(pick(tag), members);
                        }
                        // One user leaves a group and joins another.
                        3 if keys.len() > 1 => {
                            let (from, to) = (pick(tag), pick(tag + 1));
                            let user = start % 50;
                            model.get_mut(&from).unwrap().retain(|&u| u != user);
                            let joined = model.get_mut(&to).unwrap();
                            if !joined.contains(&user) {
                                joined.push(user);
                                joined.sort_unstable();
                            }
                            if model[&from].is_empty() {
                                model.remove(&from);
                            }
                        }
                        // The universe regrows: a group of far ids.
                        4 => {
                            model.insert(tag, (500 + start..500 + start + len as u32).collect());
                        }
                        // The universe shrinks: every far-id group retires.
                        5 => model.retain(|_, m| m.iter().all(|&u| u < 500)),
                        _ => {}
                    }
                }
                let new = space(&model);
                index = assert_advance(
                    &mut rows, &index, &old, &new, &cfg, &format!("epoch {e}"));
                old = new;
            }
        }
    }
}
