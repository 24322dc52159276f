//! Sorted member sets with fast set algebra.
//!
//! Group member sets are the hot data structure of the whole stack: the
//! inverted index computes Jaccard similarities between every overlapping
//! pair of groups, and the greedy optimizer evaluates coverage unions under
//! a hard 100 ms budget. A sorted `u32` run with galloping intersection is
//! compact (4 bytes/member), cache-friendly, and makes
//! `intersection_size`/`jaccard` allocation-free.
//!
//! Storage is borrowed-or-owned ([`U32Store`]): a built engine owns each
//! set's `Vec<u32>`; a snapshot-loaded engine holds views into the one
//! shared snapshot buffer ([`MemberSet::from_shared`]), so loading N groups
//! costs zero per-group allocations. Every operation routes through
//! [`MemberSet::as_slice`], so the two forms are behaviorally identical
//! (same `Eq`/`Hash`, same algebra).

use std::fmt;
use vexus_data::U32Store;

/// An immutable sorted set of dense user indices.
#[derive(Clone, Default)]
pub struct MemberSet {
    members: U32Store,
}

impl PartialEq for MemberSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MemberSet {}

impl std::hash::Hash for MemberSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Slice hashing matches Vec hashing, so Owned and Shared forms of
        // the same set collide as required by `Eq`.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for MemberSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "MemberSet{:?}", self.as_slice())
        } else {
            write!(f, "MemberSet[{} members]", self.len())
        }
    }
}

impl MemberSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from an already strictly-sorted vector.
    ///
    /// # Panics
    /// Debug-asserts strict ascending order.
    pub fn from_sorted(sorted: Vec<u32>) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "must be strictly sorted"
        );
        Self {
            members: sorted.into(),
        }
    }

    /// Build from arbitrary input: sorts and dedupes.
    pub fn from_unsorted(mut v: Vec<u32>) -> Self {
        v.sort_unstable();
        v.dedup();
        Self { members: v.into() }
    }

    /// Build over storage a snapshot decoder hands out — a zero-copy view
    /// when it is one into a loaded buffer. The words must be strictly
    /// ascending — the decoder validates this before constructing the
    /// view (debug-asserted here as well).
    pub fn from_shared(words: impl Into<U32Store>) -> Self {
        let members = words.into();
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "must be strictly sorted"
        );
        Self { members }
    }

    /// The full universe `0..n`.
    pub fn universe(n: u32) -> Self {
        Self {
            members: (0..n).collect::<Vec<u32>>().into(),
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        self.as_slice().binary_search(&x).is_ok()
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.as_slice().iter().copied()
    }

    /// The members as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match &self.members {
            U32Store::Owned(v) => v,
            U32Store::Shared(s) => s.as_slice(),
        }
    }

    /// `|self ∩ other|` without allocating.
    ///
    /// Uses merge-scan for similar sizes and galloping (exponential search)
    /// when one side is much smaller — the common case when comparing a
    /// small group against a large one.
    pub fn intersection_size(&self, other: &MemberSet) -> usize {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if small.is_empty() || large.is_empty() {
            return 0;
        }
        // Galloping pays off when the size ratio is large.
        if large.len() / small.len().max(1) >= 16 {
            let mut count = 0;
            let mut lo = 0usize;
            for &x in small {
                if lo >= large.len() {
                    break;
                }
                // Exponential search from `lo` for a window containing x.
                let mut bound = 1usize;
                while lo + bound < large.len() && large[lo + bound] < x {
                    bound *= 2;
                }
                let hi = (lo + bound + 1).min(large.len());
                match large[lo..hi].binary_search(&x) {
                    Ok(i) => {
                        count += 1;
                        lo += i + 1;
                    }
                    Err(i) => lo += i,
                }
            }
            count
        } else {
            let mut count = 0;
            let (mut i, mut j) = (0, 0);
            while i < small.len() && j < large.len() {
                match small[i].cmp(&large[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            count
        }
    }

    /// Jaccard **similarity** `|A∩B| / |A∪B|` (1.0 for two empty sets by
    /// convention, matching "identical"); see [`jaccard_of_counts`].
    pub fn jaccard(&self, other: &MemberSet) -> f64 {
        jaccard_of_counts(self.intersection_size(other), self.len(), other.len())
    }

    /// Jaccard **distance** `1 - jaccard` — the metric the paper uses to
    /// rank inverted-index neighbors.
    #[inline]
    pub fn jaccard_distance(&self, other: &MemberSet) -> f64 {
        1.0 - self.jaccard(other)
    }

    /// Whether the two sets share at least one member (the paper's group
    /// graph has an edge iff groups "are not disjoint").
    pub fn overlaps(&self, other: &MemberSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        // Early-exit merge scan; ranges test first.
        if a.is_empty() || b.is_empty() {
            return false;
        }
        if a[a.len() - 1] < b[0] || b[b.len() - 1] < a[0] {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Materialized union.
    pub fn union(&self, other: &MemberSet) -> MemberSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        MemberSet {
            members: out.into(),
        }
    }

    /// Count of members also present in a boolean mask (indexed by member).
    /// Used by coverage computations against a "covered so far" mask.
    pub fn count_in_mask(&self, mask: &[bool]) -> usize {
        self.as_slice()
            .iter()
            .filter(|&&x| mask.get(x as usize).copied().unwrap_or(false))
            .count()
    }

    /// Set the mask bit for every member; returns how many were newly set.
    pub fn mark_mask(&self, mask: &mut [bool]) -> usize {
        let mut newly = 0;
        for &x in self.as_slice() {
            let slot = &mut mask[x as usize];
            if !*slot {
                *slot = true;
                newly += 1;
            }
        }
        newly
    }

    /// Heap bytes owned by this set. A `Shared` view owns nothing — the
    /// snapshot buffer it borrows from is accounted once, at the engine
    /// level.
    pub fn heap_bytes(&self) -> usize {
        self.members.heap_bytes()
    }
}

/// Jaccard similarity of two sets of sizes `a` and `b` sharing `inter`
/// members: `inter / (a + b − inter)`, 1.0 when both are empty. The one
/// place the ratio is formed — [`MemberSet::jaccard`] and the greedy
/// selector's bit-row intersections both end here, so equal integers give
/// the same `f64` to the last bit.
#[inline]
pub fn jaccard_of_counts(inter: usize, a: usize, b: usize) -> f64 {
    let union = a + b - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

impl FromIterator<u32> for MemberSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

/// The oracles' intersection: the reference miner and the tests' recounts
/// intersect member sets; the shipped miners never materialize one.
#[cfg(test)]
impl MemberSet {
    /// Materialized intersection.
    pub(crate) fn intersect(&self, other: &MemberSet) -> MemberSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        MemberSet {
            members: out.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ms(v: &[u32]) -> MemberSet {
        MemberSet::from_unsorted(v.to_vec())
    }

    /// The same set in Shared form, views into a scratch snapshot buffer.
    fn shared(v: &[u32]) -> MemberSet {
        let mut w = vexus_data::SnapshotWriter::new();
        w.section_words(0x1, v.iter().copied());
        let buf = w.finish();
        let r = vexus_data::SnapshotReader::load(&buf).unwrap();
        MemberSet::from_shared(r.section_words(0x1).unwrap())
    }

    /// Jaccard from the materialised `intersect` / `union` sets — the
    /// ratio `jaccard` must produce without allocating either.
    fn materialised_jaccard(a: &MemberSet, b: &MemberSet) -> f64 {
        let (inter, union) = (a.intersect(b).len(), a.union(b).len());
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    #[test]
    fn from_unsorted_sorts_and_dedupes() {
        let s = ms(&[3, 1, 2, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn basic_algebra() {
        let a = ms(&[1, 2, 3, 5, 8]);
        let b = ms(&[2, 3, 4, 8, 9]);
        assert_eq!(a.intersection_size(&b), 3);
        assert_eq!(a.intersect(&b).as_slice(), &[2, 3, 8]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 4, 5, 8, 9]);
        assert!(a.overlaps(&b));
        assert!((a.jaccard(&b) - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_conventions() {
        let e = MemberSet::empty();
        let a = ms(&[1]);
        assert_eq!(e.jaccard(&e), 1.0);
        assert_eq!(e.jaccard(&e), materialised_jaccard(&e, &e));
        assert_eq!(e.jaccard(&a), 0.0);
        assert!(!e.overlaps(&a));
        assert_eq!(e.union(&a).as_slice(), &[1]);
    }

    #[test]
    fn shared_form_is_behaviorally_identical() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let owned = ms(&[1, 2, 3, 5, 8]);
        let view = shared(&[1, 2, 3, 5, 8]);
        let is_shared = |s: &MemberSet| matches!(s.members, U32Store::Shared(_));
        assert!(is_shared(&view) && !is_shared(&owned));
        assert_eq!(owned, view);
        assert_eq!(view.as_slice(), owned.as_slice());
        assert_eq!(view.heap_bytes(), 0);
        assert!(owned.heap_bytes() >= 20);
        // Eq-consistent hashing across representations.
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        owned.hash(&mut h1);
        view.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        // Mixed-representation algebra.
        let other = shared(&[2, 3, 4, 8, 9]);
        assert_eq!(owned.intersection_size(&other), 3);
        assert_eq!(other.intersect(&owned).as_slice(), &[2, 3, 8]);
        assert!(!is_shared(&other.intersect(&owned)));
        assert!(view.contains(5) && !view.contains(4));
        assert_eq!(format!("{view:?}"), "MemberSet[1, 2, 3, 5, 8]");
        // Empty shared view.
        let e = shared(&[]);
        assert!(e.is_empty());
        assert_eq!(e, MemberSet::empty());
    }

    #[test]
    fn galloping_path_matches_merge_path() {
        // Small set vs huge set triggers the galloping branch.
        let small = ms(&[5, 1000, 5000, 99999, 100001]);
        let large = MemberSet::from_sorted((0..100_000).collect());
        assert_eq!(small.intersection_size(&large), 4); // 100001 excluded
        assert_eq!(large.intersection_size(&small), 4);
    }

    #[test]
    fn disjoint_ranges_short_circuit() {
        let a = ms(&[1, 2, 3]);
        let b = ms(&[10, 11]);
        assert!(!a.overlaps(&b));
        assert_eq!(a.intersection_size(&b), 0);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.jaccard(&b), materialised_jaccard(&a, &b));
    }

    #[test]
    fn universe_holds_every_id_below_n() {
        let u = MemberSet::universe(10);
        assert_eq!(u.as_slice(), (0..10).collect::<Vec<u32>>().as_slice());
    }

    #[test]
    fn mask_operations() {
        let s = ms(&[1, 3, 5]);
        let mut mask = vec![false; 6];
        assert_eq!(s.mark_mask(&mut mask), 3);
        assert_eq!(s.mark_mask(&mut mask), 0);
        assert_eq!(s.count_in_mask(&mask), 3);
        assert_eq!(ms(&[0, 1]).count_in_mask(&mask), 1);
    }

    #[test]
    fn debug_is_compact_for_large_sets() {
        let s = MemberSet::universe(100);
        assert_eq!(format!("{s:?}"), "MemberSet[100 members]");
        assert_eq!(format!("{:?}", ms(&[1, 2])), "MemberSet[1, 2]");
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset(a in proptest::collection::vec(0u32..500, 0..80),
                                 b in proptest::collection::vec(0u32..500, 0..80)) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let ma = MemberSet::from_unsorted(a);
            let mb = MemberSet::from_unsorted(b);
            prop_assert_eq!(ma.intersection_size(&mb), sa.intersection(&sb).count());
            let expect_inter: Vec<u32> = sa.intersection(&sb).copied().collect();
            let expect_union: Vec<u32> = sa.union(&sb).copied().collect();
            let got_inter = ma.intersect(&mb);
            let got_union = ma.union(&mb);
            prop_assert_eq!(got_inter.as_slice(), expect_inter.as_slice());
            prop_assert_eq!(got_union.as_slice(), expect_union.as_slice());
            prop_assert_eq!(ma.jaccard(&mb), materialised_jaccard(&ma, &mb));
            prop_assert_eq!(ma.overlaps(&mb), !sa.is_disjoint(&sb));
        }

        #[test]
        fn prop_jaccard_of_counts_is_the_materialised_ratio(
            a in proptest::collection::vec(0u32..200, 0..60),
            b in proptest::collection::vec(0u32..200, 0..60),
            empty in 0usize..8
        ) {
            // One side empty every few cases, both every few dozen.
            let (a, b) = match empty {
                0 => (Vec::new(), b),
                1 => (a, Vec::new()),
                2 => (Vec::new(), Vec::new()),
                _ => (a, b),
            };
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let inter = sa.intersection(&sb).count();
            let (ma, mb) = (MemberSet::from_unsorted(a), MemberSet::from_unsorted(b));
            let want = materialised_jaccard(&ma, &mb);
            prop_assert_eq!(jaccard_of_counts(inter, sa.len(), sb.len()).to_bits(), want.to_bits());
            prop_assert_eq!(ma.jaccard(&mb).to_bits(), want.to_bits());
        }

        #[test]
        fn prop_shared_matches_owned(
            a in proptest::collection::vec(0u32..500, 0..80),
            b in proptest::collection::vec(0u32..500, 0..80)
        ) {
            // Every operation must agree between the Owned and Shared forms.
            let (ma, mb) = (MemberSet::from_unsorted(a), MemberSet::from_unsorted(b));
            let (va, vb) = (shared(ma.as_slice()), shared(mb.as_slice()));
            prop_assert_eq!(&ma, &va);
            prop_assert_eq!(va.intersection_size(&vb), ma.intersection_size(&mb));
            prop_assert_eq!(va.intersect(&vb).as_slice(), ma.intersect(&mb).as_slice());
            prop_assert_eq!(va.union(&vb).as_slice(), ma.union(&mb).as_slice());
            prop_assert_eq!(va.overlaps(&vb), ma.overlaps(&mb));
            prop_assert!((va.jaccard(&vb) - ma.jaccard(&mb)).abs() < 1e-15);
        }

        #[test]
        fn prop_jaccard_bounds_and_symmetry(
            a in proptest::collection::vec(0u32..200, 0..60),
            b in proptest::collection::vec(0u32..200, 0..60)
        ) {
            let ma = MemberSet::from_unsorted(a);
            let mb = MemberSet::from_unsorted(b);
            let j = ma.jaccard(&mb);
            prop_assert!((0.0..=1.0).contains(&j));
            prop_assert!((j - mb.jaccard(&ma)).abs() < 1e-15);
            prop_assert!((ma.jaccard(&ma) - 1.0).abs() < 1e-15);
            // distance is the complement
            prop_assert!((ma.jaccard_distance(&mb) - (1.0 - j)).abs() < 1e-15);
        }

        #[test]
        fn prop_triangle_inequality_jaccard_distance(
            a in proptest::collection::vec(0u32..60, 1..30),
            b in proptest::collection::vec(0u32..60, 1..30),
            c in proptest::collection::vec(0u32..60, 1..30)
        ) {
            // Jaccard distance is a proper metric.
            let (ma, mb, mc) = (
                MemberSet::from_unsorted(a),
                MemberSet::from_unsorted(b),
                MemberSet::from_unsorted(c),
            );
            let dab = ma.jaccard_distance(&mb);
            let dbc = mb.jaccard_distance(&mc);
            let dac = ma.jaccard_distance(&mc);
            prop_assert!(dac <= dab + dbc + 1e-12);
        }
    }
}
