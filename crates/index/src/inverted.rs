//! Per-group inverted neighbor index.
//!
//! For each group `g` the index holds the other groups ordered by
//! decreasing Jaccard similarity of member sets. Only the top
//! `materialize_fraction` of each list is stored (the paper uses 10 %);
//! queries beyond the materialized prefix fall back to an exact on-demand
//! scan, so results are correct at any fraction — the fraction trades
//! memory and build time against fallback frequency, which is exactly what
//! experiment C3 sweeps.
//!
//! The index is built a row at a time. The candidate generator is a flat
//! CSR member→groups map ([`MemberGroupsCsr`]); one kernel
//! (`RowScratch::overlaps`) walks a group's members' lists into an
//! intersection counter and yields every overlapping group with its
//! intersection size. [`GroupIndex::build`] hands each worker a
//! contiguous range of groups; per group the worker scores the whole row,
//! ranks it on integer keys (`neighbor_key`) and keeps the top fraction.
//! A row depends on nothing but its group, so the output is
//! byte-identical at any thread count by construction (the tests pin it
//! against the brute-force [`compute_all_neighbors`]). The CSR is retained
//! in the built index, so the exact fallback of [`GroupIndex::neighbors`]
//! and [`GroupIndex::overlap_graph`] run the same kernel over it instead
//! of scanning the whole group space.
//!
//! A live refresh does not walk the CSR. It carries the space's pair
//! overlap counts across epochs ([`OverlapRows`]), moves them by the
//! memberships the epoch's [`GroupDelta`] flips, and lays out every row of
//! the new index from them with the same keys and the same selection as
//! the build, so the refreshed index is byte-identical to
//! [`GroupIndex::build`] over the new space. [`GroupIndex::apply_delta`]
//! is the stateless form of that refresh, and its [`IndexPatch`] carries
//! the survivor id remap and the dirty set that let the neighbor cache
//! keep still-exact entries across the swap ([`IndexPatch::carries`]).

use crate::graph::OverlapGraph;
use crate::overlap::OverlapRows;
use vexus_data::snapshot::Ragged;
use vexus_data::WordSlice;
use vexus_mining::{GroupDelta, GroupId, GroupSet};

/// Index construction knobs.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Fraction of each inverted list to materialize (paper: `0.10`).
    pub materialize_fraction: f64,
    /// Worker threads for the build (`0` = use available parallelism).
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            materialize_fraction: 0.10,
            threads: 0,
        }
    }
}

/// Build-time statistics (reported by experiment C3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Number of groups indexed.
    pub n_groups: usize,
    /// Total materialized neighbor entries.
    pub materialized_entries: usize,
    /// Overlapping pairs of the space, each unordered pair counted once
    /// (the build scores a pair from both of its rows). A refreshed index
    /// counts the pairs of its carried [`OverlapRows`], which are the
    /// build's pairs, and reports the same count.
    pub scored_pairs: usize,
    /// Approximate heap bytes of the index: materialized entries, the
    /// outer list/length vectors, and the retained member→groups CSR.
    pub heap_bytes: usize,
}

/// One neighbor entry: a group and its Jaccard similarity.
pub type Neighbor = (GroupId, f32);

/// Flat CSR member→groups map: list `u` of one [`Ragged`] table holds the
/// groups containing member `u`, ascending. One offsets/ids pair instead
/// of a per-member `Vec<Vec<u32>>` — no per-member allocations,
/// cache-linear candidate scans — and is shared between the index build,
/// the retained exact-fallback path and the overlap graph. Both arrays are
/// refcounted [`WordSlice`]s — a built map's own buffers or views into a
/// loaded snapshot — so a clone shares them.
#[derive(Debug, Clone)]
pub struct MemberGroupsCsr {
    lists: Ragged,
}

impl MemberGroupsCsr {
    /// Build by counting sort over the memberships: one pass counts each
    /// member's degree, a prefix sum lays out `offsets`, and a second pass
    /// scatters the group ids. Groups are visited in ascending id order,
    /// so every member's group list comes out sorted.
    pub fn build(groups: &GroupSet) -> Self {
        let n_users = Self::universe(groups);
        let mut offsets = vec![0u32; n_users + 1];
        for (_, g) in groups.iter() {
            for u in g.members.iter() {
                offsets[u as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut ids = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        let mut cursor = offsets.clone();
        for (gid, g) in groups.iter() {
            for u in g.members.iter() {
                let at = &mut cursor[u as usize];
                ids[*at as usize] = gid.0;
                *at += 1;
            }
        }
        let lists = Ragged::from_parts(offsets, ids).expect("a prefix sum of the list lengths");
        Self { lists }
    }

    /// The number of members the map of `groups` covers: one past the
    /// largest member id. Member sets are sorted, so that is each group's
    /// last slice element: O(groups), not a walk over every membership.
    /// The engine snapshot stores it as its member-universe word.
    pub fn universe(groups: &GroupSet) -> usize {
        groups
            .iter()
            .filter_map(|(_, g)| g.members.as_slice().last())
            .max()
            .map(|&m| m as usize + 1)
            .unwrap_or(0)
    }

    /// Wrap a loaded table (the snapshot decode path, and a refresh's
    /// patched map; the caller has established the CSR invariants).
    pub(crate) fn from_lists(lists: Ragged) -> Self {
        Self { lists }
    }

    /// The underlying table — the snapshot encoder's view.
    pub(crate) fn lists(&self) -> &Ragged {
        &self.lists
    }

    /// Number of members covered (the dense id bound).
    pub fn n_members(&self) -> usize {
        self.lists.len()
    }

    /// The groups containing `member`, ascending.
    #[inline]
    pub fn groups_of(&self, member: u32) -> &[u32] {
        self.lists.list(member as usize)
    }

    /// Heap bytes owned by the map (zero for snapshot-backed views; the
    /// shared buffer is accounted once at the engine level).
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes()
    }
}

/// The inverted similarity index over a [`GroupSet`].
///
/// The materialized lists live in **one flat array** (`entries`) addressed
/// by a `n + 1` offset table, not a `Vec<Vec<_>>` — one allocation instead
/// of one per group, cache-linear scans, and the exact shape the snapshot
/// codec serializes (the offset tables load as zero-copy views; the
/// interleaved `(id, sim)` entries are rebuilt in a single allocation).
#[derive(Debug)]
pub struct GroupIndex {
    /// `entries[list_offsets[g]..list_offsets[g + 1]]` is the materialized
    /// neighbor prefix of group `g`, descending similarity.
    list_offsets: WordSlice,
    /// Concatenated materialized entries, group-major.
    entries: Vec<Neighbor>,
    /// Per-group count of *all* overlapping neighbors (full list length).
    full_lengths: WordSlice,
    /// Retained member→groups map: the exact fallback's candidate
    /// generator (only overlapping groups are scored, never the whole
    /// space).
    member_groups: MemberGroupsCsr,
    stats: IndexStats,
}

impl GroupIndex {
    /// Build the index over `groups`, a row at a time.
    ///
    /// Workers own contiguous group ranges, balanced by member count. For
    /// every owned group a worker scores the full row with the row kernel
    /// (`scored_row`), orders the top `materialize_fraction` of it on
    /// integer keys (`select_top`) and appends only that prefix, its
    /// length and the row's full length to its own part. The parts
    /// concatenate in range order. A row is a function of its group alone
    /// and `neighbor_key` order is total, so the index is byte-identical
    /// at any thread count.
    pub fn build(groups: &GroupSet, cfg: &IndexConfig) -> Self {
        let member_groups = MemberGroupsCsr::build(groups);
        walk(groups, &member_groups, cfg, false).into_index(member_groups)
    }

    /// The next epoch's index plus the refresh bookkeeping, from this
    /// index alone. `old_groups` must be the space this index was built
    /// over, `new_groups` the new epoch's space, and `delta` the
    /// [`vexus_mining::delta::diff`] between them; both spaces must be
    /// canonical (description-sorted), which makes the survivor id remap
    /// monotone.
    ///
    /// This is the stateless form of a live refresh: it walks the retained
    /// CSR once for the old space's [`OverlapRows`] and then runs
    /// [`OverlapRows::advance`], which is what a live engine does with
    /// rows it carried from the previous epoch instead. The returned index
    /// is byte-identical to [`GroupIndex::build`]`(new_groups, cfg)`; see
    /// [`OverlapRows::advance`] for the dirty set.
    pub fn apply_delta(
        &self,
        old_groups: &GroupSet,
        new_groups: &GroupSet,
        delta: &GroupDelta,
        cfg: &IndexConfig,
    ) -> IndexPatch {
        OverlapRows::of_index(self, old_groups, cfg)
            .advance(self, old_groups, new_groups, delta, cfg)
    }

    /// Assemble from storage parts, recomputing derived statistics: every
    /// overlapping pair sits in both of its rows, so `scored_pairs` is
    /// half the summed full lengths.
    /// `heap_bytes` reflects what this representation actually owns, so a
    /// snapshot-loaded index (shared offset tables) reports less than its
    /// built twin — by design; `benchmark/` reports it as
    /// `index.heap_bytes` next to `core.snapshot_bytes`.
    pub(crate) fn from_parts(
        list_offsets: WordSlice,
        entries: Vec<Neighbor>,
        full_lengths: WordSlice,
        member_groups: MemberGroupsCsr,
    ) -> Self {
        let heap_bytes = entries.capacity() * std::mem::size_of::<Neighbor>()
            + list_offsets.heap_bytes()
            + full_lengths.heap_bytes()
            + member_groups.heap_bytes();
        let stats = IndexStats {
            n_groups: full_lengths.len(),
            materialized_entries: entries.len(),
            scored_pairs: full_lengths.iter().map(|&l| l as usize).sum::<usize>() / 2,
            heap_bytes,
        };
        Self {
            list_offsets,
            entries,
            full_lengths,
            member_groups,
            stats,
        }
    }

    /// The retained member→groups map of the indexed space.
    pub(crate) fn member_groups(&self) -> &MemberGroupsCsr {
        &self.member_groups
    }

    /// The flat storage parts `(list_offsets, entries, full_lengths,
    /// member_groups)` — the snapshot encoder's view.
    pub(crate) fn parts(&self) -> (&[u32], &[Neighbor], &[u32], &MemberGroupsCsr) {
        (
            &self.list_offsets,
            &self.entries,
            &self.full_lengths,
            &self.member_groups,
        )
    }

    /// Build statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Number of indexed groups.
    pub fn len(&self) -> usize {
        self.full_lengths.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.full_lengths.is_empty()
    }

    /// The materialized neighbor prefix of `g` (descending similarity).
    pub fn materialized(&self, g: GroupId) -> &[Neighbor] {
        let lo = self.list_offsets[g.index()] as usize;
        let hi = self.list_offsets[g.index() + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Number of *overlapping* neighbors `g` has in total (materialized or
    /// not).
    pub fn full_neighbor_count(&self, g: GroupId) -> usize {
        self.full_lengths[g.index()] as usize
    }

    /// Top-`k` neighbors of `g`, exact. Served from the materialized prefix
    /// in O(k) when it suffices; falls back to an on-demand exact scan
    /// otherwise. The fallback is one row of the build — the same kernel
    /// over the retained member→groups CSR, so only the groups overlapping
    /// `g` are scored, and the same key selection — cut at `k` instead of
    /// at the materialized fraction.
    pub fn neighbors(&self, groups: &GroupSet, g: GroupId, k: usize) -> Vec<Neighbor> {
        let list = self.materialized(g);
        if k <= list.len() || list.len() == self.full_neighbor_count(g) {
            return list[..k.min(list.len())].to_vec();
        }
        // Fallback: exact recomputation (the price of materializing less).
        let mut keys = Vec::with_capacity(self.full_neighbor_count(g));
        scored_row(
            &mut RowScratch::new(self.len()),
            &self.member_groups,
            groups,
            g,
            &mut keys,
        );
        select_top(&mut keys, k).collect()
    }

    /// The overlap graph `G` of the indexed space (an edge between any two
    /// groups sharing a member), read off the retained member→groups CSR.
    /// `groups` must be the space this index was built over.
    pub fn overlap_graph(&self, groups: &GroupSet) -> OverlapGraph {
        OverlapGraph::from_member_groups(groups, &self.member_groups)
    }

    /// Whether serving `k` neighbors of `g` would need the exact fallback.
    pub fn needs_fallback(&self, g: GroupId, k: usize) -> bool {
        let len = self.materialized(g).len();
        k > len && len < self.full_neighbor_count(g)
    }

    /// Exact Jaccard similarity between two groups (computed on demand).
    pub fn similarity(groups: &GroupSet, a: GroupId, b: GroupId) -> f64 {
        groups.get(a).members.jaccard(&groups.get(b).members)
    }
}

/// The result of a refresh ([`OverlapRows::advance`], or its stateless
/// form [`GroupIndex::apply_delta`]): the new epoch's index plus the
/// bookkeeping the serving layer uses to decide which neighbor-cache
/// entries survive the epoch swap.
pub struct IndexPatch {
    /// The new epoch's index, laid out from the carried overlap counts and
    /// byte-identical to [`GroupIndex::build`] over the new space.
    pub index: GroupIndex,
    /// Old-space id → new-space id for survivors; `u32::MAX` for retired
    /// groups. Monotone over survivors (both spaces are canonical).
    pub old_to_new: Vec<u32>,
    /// Per new-space group: whether its neighbor list can differ from the
    /// old epoch's (added, resized, or sharing a member with a touched
    /// group). A clean group is a survivor whose new list is the old list
    /// with ids rewritten through `old_to_new`.
    pub dirty: Vec<bool>,
    /// Number of dirty groups.
    pub rescored: usize,
}

impl IndexPatch {
    /// Whether an old-epoch cache entry — the neighbor `list` cached for
    /// old-space group `g` — is still the new epoch's exact answer: `g`
    /// survived with an unchanged id and a clean list, and every cached
    /// neighbor id is likewise unchanged. A clean list is the old list up
    /// to the monotone id rewrite, so an id-stable prefix of it is
    /// byte-identical outright. The `keep` predicate of
    /// [`crate::NeighborCache::carry_over`].
    pub fn carries(&self, g: u32, list: &[Neighbor]) -> bool {
        let stable = |id: usize| self.old_to_new.get(id) == Some(&(id as u32));
        stable(g as usize)
            && !self.dirty[g as usize]
            && list.iter().all(|&(h, _)| stable(h.index()))
    }
}

/// The rows of one walk over a space, in group order: the laid-out index
/// parts and, when the walk keeps them, the overlap rows.
pub(crate) struct Walk {
    pub(crate) list_offsets: Vec<u32>,
    pub(crate) entries: Vec<Neighbor>,
    pub(crate) full_lengths: Vec<u32>,
    /// Row `g` is the next `full_lengths[g]` pairs `(h, |g ∩ h|)`,
    /// ascending `h`; empty unless the walk keeps rows.
    pub(crate) rows: Vec<(u32, u32)>,
}

impl Walk {
    /// The index over the walked space, which `member_groups` maps.
    pub(crate) fn into_index(self, member_groups: MemberGroupsCsr) -> GroupIndex {
        GroupIndex::from_parts(
            self.list_offsets.into(),
            self.entries,
            self.full_lengths.into(),
            member_groups,
        )
    }
}

/// The build's one walk over `groups`, a row at a time (see
/// [`GroupIndex::build`]). With `keep_rows` every worker also keeps each
/// row as `(h, |g ∩ h|)` pairs ascending by id, for [`OverlapRows`].
/// `member_groups` must map `groups`.
pub(crate) fn walk(
    groups: &GroupSet,
    member_groups: &MemberGroupsCsr,
    cfg: &IndexConfig,
    keep_rows: bool,
) -> Walk {
    /// One worker's rows: the kept prefixes back to back, per row the
    /// kept and the full length, and the overlap rows when kept.
    #[derive(Default)]
    struct Part {
        entries: Vec<Neighbor>,
        kept_lens: Vec<u32>,
        full_lens: Vec<u32>,
        rows: Vec<(u32, u32)>,
    }

    let n = groups.len();
    let fraction = cfg.materialize_fraction.clamp(0.0, 1.0);

    // Chunk boundaries balance the summed *member* count per worker, not
    // the group count: a row walks its members' inverted lists, so with
    // skewed group sizes an even group split leaves most workers idle
    // behind the one that drew the giants.
    let sizes: Vec<usize> = groups.iter().map(|(_, g)| g.size()).collect();
    let chunks = size_aware_chunks(&sizes, resolve_threads(cfg.threads, n));

    let rows = |base: usize, take: usize| {
        let mut scratch = RowScratch::new(n);
        let mut keys: Vec<u64> = Vec::new();
        let mut part = Part::default();
        for g in base..base + take {
            let gid = GroupId::new(g as u32);
            if keep_rows {
                let start = part.rows.len();
                scratch.overlaps(member_groups, groups, gid, |h, inter| {
                    part.rows.push((h, inter))
                });
                part.rows[start..].sort_unstable();
                row_keys(groups, gid, &part.rows[start..], &mut keys);
            } else {
                scored_row(&mut scratch, member_groups, groups, gid, &mut keys);
            }
            let full = keys.len();
            let kept = select_top(&mut keys, keep_of(fraction, full));
            part.kept_lens.push(kept.len() as u32);
            part.entries.extend(kept);
            part.full_lens.push(full as u32);
        }
        part
    };
    // A lone chunk (one thread, or a tiny space) runs on the caller.
    let parts: Vec<Part> = if chunks.len() <= 1 {
        chunks.iter().map(|&take| rows(0, take)).collect()
    } else {
        crossbeam::thread::scope(|scope| {
            let rows = &rows;
            let mut base = 0usize;
            let handles: Vec<_> = chunks
                .iter()
                .map(|&take| {
                    let start = base;
                    base += take;
                    scope.spawn(move |_| rows(start, take))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index build worker panicked"))
                .collect()
        })
        .expect("index build scope")
    };

    // Exact-capacity concatenation, in range order.
    let mut entries: Vec<Neighbor> =
        Vec::with_capacity(parts.iter().map(|p| p.entries.len()).sum());
    let mut list_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut full_lengths: Vec<u32> = Vec::with_capacity(n);
    let mut rows: Vec<(u32, u32)> = Vec::with_capacity(parts.iter().map(|p| p.rows.len()).sum());
    let mut end = 0u32;
    list_offsets.push(end);
    for part in &parts {
        entries.extend_from_slice(&part.entries);
        for &kept in &part.kept_lens {
            end += kept;
            list_offsets.push(end);
        }
        full_lengths.extend_from_slice(&part.full_lens);
        rows.extend_from_slice(&part.rows);
    }
    Walk {
        list_offsets,
        entries,
        full_lengths,
        rows,
    }
}

/// Worker count of a build over `n` groups.
fn resolve_threads(threads: usize, n: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .max(1)
    .min(n.max(1))
}

/// Materialized-prefix length for a full list of `scored` neighbors.
pub(crate) fn keep_of(fraction: f64, scored: usize) -> usize {
    ((fraction * scored as f64).ceil() as usize).min(scored)
}

/// Reusable scratch of the row kernel: one intersection counter per group
/// of the space, all zero between rows, and the ids the current row
/// touched.
pub(crate) struct RowScratch {
    counter: Vec<u32>,
    touched: Vec<u32>,
}

impl RowScratch {
    /// Scratch for rows over a space of `n_groups` groups.
    pub(crate) fn new(n_groups: usize) -> Self {
        Self {
            counter: vec![0; n_groups],
            touched: Vec::new(),
        }
    }

    /// The row kernel — the one walk of a group's members' CSR lists.
    /// `emit(h, |g ∩ h|)` is called once for every *other* group `h`
    /// sharing a member with `g` (the walk meets `g` itself under every
    /// member and drops it here), in first-touch order. `member_groups`
    /// must be the map of the space `g` belongs to. The counter is zero
    /// again on return.
    pub(crate) fn overlaps(
        &mut self,
        member_groups: &MemberGroupsCsr,
        groups: &GroupSet,
        g: GroupId,
        mut emit: impl FnMut(u32, u32),
    ) {
        let (offsets, items) = (member_groups.lists.offsets(), member_groups.lists.items());
        for u in groups.get(g).members.iter() {
            for &h in &items[offsets[u as usize] as usize..offsets[u as usize + 1] as usize] {
                let count = &mut self.counter[h as usize];
                if *count == 0 {
                    self.touched.push(h);
                }
                *count += 1;
            }
        }
        for h in self.touched.drain(..) {
            let inter = std::mem::take(&mut self.counter[h as usize]);
            if h != g.0 {
                emit(h, inter);
            }
        }
    }
}

/// A neighbor as one integer whose ascending order is [`neighbor_order`]:
/// the similarity's bits complemented in the high half (a Jaccard of
/// overlapping sets is positive and finite, and such floats order like
/// their bit patterns), the id in the low half as the tie-break.
fn neighbor_key(id: u32, sim: f32) -> u64 {
    u64::from(!sim.to_bits()) << 32 | u64::from(id)
}

/// The neighbor a [`neighbor_key`] was made from, bit for bit.
fn key_neighbor(key: u64) -> Neighbor {
    (
        GroupId::new(key as u32),
        f32::from_bits(!((key >> 32) as u32)),
    )
}

/// The key of neighbor `h` of a group of `size` members, scored with the
/// exact `f32` Jaccard similarity from the `inter` members they share.
#[inline]
fn overlap_key(groups: &GroupSet, size: usize, h: u32, inter: u32) -> u64 {
    let inter = inter as usize;
    let union = size + groups.get(GroupId::new(h)).size() - inter;
    neighbor_key(h, inter as f32 / union as f32)
}

/// The full neighbor row of `gid` as keys, unordered: every group
/// overlapping it, scored with the exact `f32` Jaccard similarity.
fn scored_row(
    scratch: &mut RowScratch,
    member_groups: &MemberGroupsCsr,
    groups: &GroupSet,
    gid: GroupId,
    keys: &mut Vec<u64>,
) {
    let size = groups.get(gid).size();
    keys.clear();
    scratch.overlaps(member_groups, groups, gid, |h, inter| {
        keys.push(overlap_key(groups, size, h, inter));
    });
}

/// The same keys as [`scored_row`], from `gid`'s overlap row of
/// `(h, |gid ∩ h|)` pairs instead of a walk.
pub(crate) fn row_keys(groups: &GroupSet, gid: GroupId, row: &[(u32, u32)], keys: &mut Vec<u64>) {
    let size = groups.get(gid).size();
    keys.clear();
    keys.extend(
        row.iter()
            .map(|&(h, inter)| overlap_key(groups, size, h, inter)),
    );
}

/// Order the `keep` smallest of `keys` into its sorted prefix and return
/// that prefix as neighbors. Partial selection first — only the kept
/// prefix needs full ordering — then one sort of the prefix. Keys of one
/// row are distinct (distinct ids), so the prefix does not depend on the
/// input permutation.
pub(crate) fn select_top(
    keys: &mut [u64],
    keep: usize,
) -> impl ExactSizeIterator<Item = Neighbor> + '_ {
    let keep = keep.min(keys.len());
    if keep > 0 && keep < keys.len() {
        keys.select_nth_unstable(keep - 1);
    }
    keys[..keep].sort_unstable();
    keys[..keep].iter().map(|&key| key_neighbor(key))
}

/// Split `sizes.len()` items into at most `workers` contiguous chunks
/// whose summed sizes are balanced (each chunk takes items until it
/// reaches the remaining total divided by the remaining workers). Returns
/// the chunk lengths; they are all non-zero and cover every item, so the
/// build's output layout — and hence the index — is independent of the
/// worker count.
fn size_aware_chunks(sizes: &[usize], workers: usize) -> Vec<usize> {
    let n = sizes.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let mut chunks = Vec::with_capacity(workers);
    let mut remaining: usize = sizes.iter().sum();
    let mut i = 0;
    for w in 0..workers {
        let workers_left = workers - w;
        // Leave at least one item for every worker after this one.
        let max_take = n - i - (workers_left - 1);
        let target = remaining.div_ceil(workers_left);
        let mut take = 0;
        let mut acc = 0;
        while take < max_take && (take == 0 || acc < target) {
            acc += sizes[i + take];
            take += 1;
        }
        chunks.push(take);
        i += take;
        remaining -= acc;
    }
    // Zero-size tail items can stall the greedy walk; fold any leftover
    // into the last chunk so coverage stays exact.
    if i < n {
        *chunks.last_mut().expect("workers >= 1") += n - i;
    }
    chunks
}

/// Descending-similarity neighbor order with ids as the tie-break.
pub(crate) fn neighbor_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .expect("finite similarity")
        .then_with(|| a.0.cmp(&b.0))
}

/// Exact full neighbor list of `g` (descending similarity), computed by a
/// plain scan over the whole group set. The O(n·|members|) reference the
/// CSR paths are pinned against; production queries go through
/// [`GroupIndex::neighbors`].
pub fn compute_all_neighbors(groups: &GroupSet, g: GroupId) -> Vec<Neighbor> {
    let me = groups.get(g);
    let mut out: Vec<Neighbor> = groups
        .iter()
        .filter(|(h, _)| *h != g)
        .filter_map(|(h, other)| {
            let inter = me.members.intersection_size(&other.members);
            if inter == 0 {
                return None;
            }
            let union = me.size() + other.size() - inter;
            Some((h, inter as f32 / union as f32))
        })
        .collect();
    out.sort_by(neighbor_order);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vexus_mining::{Group, MemberSet};

    fn groups_fixture() -> GroupSet {
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
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![100, 101])));
        gs
    }

    fn bookcrossing_groups(min_support: usize) -> GroupSet {
        mined_groups(
            &vexus_data::synthetic::BookCrossingConfig::tiny(),
            &vexus_mining::LcmConfig {
                min_support,
                ..Default::default()
            },
        )
    }

    fn mined_groups(
        data: &vexus_data::synthetic::BookCrossingConfig,
        lcm: &vexus_mining::LcmConfig,
    ) -> GroupSet {
        let ds = vexus_data::synthetic::bookcrossing(data);
        let vocab = vexus_data::Vocabulary::build(&ds.data);
        let db = vexus_mining::transactions::TransactionDb::build(&ds.data, &vocab);
        vexus_mining::mine_closed_groups(&db, lcm)
    }

    /// Materialized lists, full lengths and entry/pair stats must agree.
    pub(crate) fn assert_same_index(a: &GroupIndex, b: &GroupIndex, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: group count");
        for g in 0..a.len() {
            let g = GroupId::new(g as u32);
            assert_eq!(a.materialized(g), b.materialized(g), "{what}: lists of {g}");
            assert_eq!(
                a.full_neighbor_count(g),
                b.full_neighbor_count(g),
                "{what}: full length of {g}"
            );
        }
        assert_eq!(
            a.stats().materialized_entries,
            b.stats().materialized_entries,
            "{what}: entries"
        );
        assert_eq!(
            a.member_groups.lists().offsets(),
            b.member_groups.lists().offsets(),
            "{what}: CSR offsets"
        );
        assert_eq!(
            a.member_groups.lists().items(),
            b.member_groups.lists().items(),
            "{what}: CSR ids"
        );
    }

    /// The build's oracle, sharing no code with it: every list is the
    /// top-fraction prefix of the brute-force full scan, every full length
    /// is the scan's, and each unordered overlapping pair is counted once.
    fn assert_matches_brute_force(idx: &GroupIndex, gs: &GroupSet, fraction: f64, what: &str) {
        assert_eq!(idx.len(), gs.len(), "{what}: group count");
        let mut overlapping = 0usize;
        for (g, _) in gs.iter() {
            let all = compute_all_neighbors(gs, g);
            let keep = (fraction * all.len() as f64).ceil() as usize;
            assert_eq!(idx.materialized(g), &all[..keep], "{what}: list of {g}");
            assert_eq!(
                idx.full_neighbor_count(g),
                all.len(),
                "{what}: full length of {g}"
            );
            overlapping += all.len();
        }
        assert_eq!(
            idx.stats().scored_pairs,
            overlapping / 2,
            "{what}: scored pairs"
        );
    }

    #[test]
    fn csr_matches_per_member_lists() {
        let gs = groups_fixture();
        let csr = MemberGroupsCsr::build(&gs);
        assert_eq!(csr.n_members(), 102);
        assert_eq!(csr.groups_of(0), &[0]);
        assert_eq!(csr.groups_of(3), &[0, 1, 2]);
        assert_eq!(csr.groups_of(4), &[1, 2]);
        assert_eq!(csr.groups_of(7), &[] as &[u32]);
        assert_eq!(csr.groups_of(100), &[3]);
        // Empty group set: no members, nothing to index.
        let empty = MemberGroupsCsr::build(&GroupSet::new());
        assert_eq!(empty.n_members(), 0);
    }

    #[test]
    fn full_materialization_matches_exact() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 1.0,
                threads: 1,
            },
        );
        for (gid, _) in gs.iter() {
            let got = idx.materialized(gid).to_vec();
            let expect = compute_all_neighbors(&gs, gid);
            assert_eq!(got, expect, "mismatch for {gid}");
            assert_eq!(idx.full_neighbor_count(gid), expect.len());
        }
    }

    #[test]
    fn build_matches_brute_force_across_fractions_and_thread_counts() {
        let gs = bookcrossing_groups(10);
        assert!(gs.len() > 30, "fixture too small: {}", gs.len());
        for fraction in [0.0, 0.05, 0.3, 1.0] {
            for threads in [1usize, 2, 4, 8] {
                let idx = GroupIndex::build(
                    &gs,
                    &IndexConfig {
                        materialize_fraction: fraction,
                        threads,
                    },
                );
                assert_matches_brute_force(
                    &idx,
                    &gs,
                    fraction,
                    &format!("fraction={fraction} threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn disjoint_groups_have_no_neighbors() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(&gs, &IndexConfig::default());
        let lonely = GroupId::new(3);
        assert!(idx.materialized(lonely).is_empty());
        assert_eq!(idx.full_neighbor_count(lonely), 0);
        assert!(idx.neighbors(&gs, lonely, 5).is_empty());
    }

    #[test]
    fn similarities_are_exact_jaccard() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 1.0,
                threads: 1,
            },
        );
        // g0 = {0,1,2,3}, g1 = {2,3,4,5}: inter 2, union 6.
        let n0 = idx.materialized(GroupId::new(0));
        let to_g1 = n0
            .iter()
            .find(|(h, _)| *h == GroupId::new(1))
            .expect("neighbor exists");
        assert!((to_g1.1 - 2.0 / 6.0).abs() < 1e-6);
        assert!(
            (GroupIndex::similarity(&gs, GroupId::new(0), GroupId::new(1)) - 2.0 / 6.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn lists_are_sorted_descending() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 1.0,
                threads: 1,
            },
        );
        for (gid, _) in gs.iter() {
            let l = idx.materialized(gid);
            assert!(
                l.windows(2).all(|w| w[0].1 >= w[1].1),
                "unsorted list for {gid}"
            );
        }
    }

    #[test]
    fn partial_materialization_keeps_top_fraction() {
        let gs = groups_fixture();
        // fraction 0.5 of 2 neighbors -> ceil(1) = 1 entry for g0.
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.5,
                threads: 1,
            },
        );
        let g0 = GroupId::new(0);
        assert_eq!(idx.full_neighbor_count(g0), 2);
        assert_eq!(idx.materialized(g0).len(), 1);
        // The kept entry is the most similar one.
        let exact = compute_all_neighbors(&gs, g0);
        assert_eq!(idx.materialized(g0)[0], exact[0]);
        // Queries beyond the prefix fall back to exact.
        assert!(idx.needs_fallback(g0, 2));
        assert_eq!(idx.neighbors(&gs, g0, 2), exact);
    }

    #[test]
    fn fallback_partial_selection_matches_full_sort() {
        // Real workload so fallback lists are long enough to make the
        // select-then-sort path meaningful at several k. Regression pin
        // for the CSR retention change: the fallback now generates its
        // candidates from the retained member→groups map, and must stay
        // identical to the whole-space reference scan at every k.
        let gs = bookcrossing_groups(10);
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.05,
                threads: 1,
            },
        );
        for (gid, _) in gs.iter() {
            let exact = compute_all_neighbors(&gs, gid);
            for k in [1usize, 3, 7, exact.len().max(1)] {
                assert_eq!(
                    idx.neighbors(&gs, gid, k),
                    exact[..k.min(exact.len())].to_vec(),
                    "k={k} mismatch for {gid}"
                );
            }
        }
    }

    #[test]
    fn zero_fraction_always_falls_back_yet_stays_exact() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.0,
                threads: 1,
            },
        );
        let g1 = GroupId::new(1);
        // ceil(0 * n) = 0 entries materialized...
        assert!(idx.materialized(g1).is_empty());
        // ...but queries are still exact via fallback.
        assert_eq!(idx.neighbors(&gs, g1, 3), compute_all_neighbors(&gs, g1));
    }

    #[test]
    fn size_aware_chunks_balance_and_cover() {
        // Skewed: one giant, many small. Even group-count slicing over 2
        // workers would put the giant plus half the smalls on worker 0;
        // size-aware slicing isolates the giant.
        let sizes = [1000usize, 1, 1, 1, 1, 1, 1, 1];
        let chunks = size_aware_chunks(&sizes, 2);
        assert_eq!(chunks.iter().sum::<usize>(), sizes.len());
        assert!(chunks.iter().all(|&c| c > 0));
        assert_eq!(chunks[0], 1, "the giant group should fill worker 0");
        // More workers than items clamps; zero items yields no chunks.
        assert_eq!(size_aware_chunks(&[5, 5], 8), vec![1, 1]);
        assert!(size_aware_chunks(&[], 4).is_empty());
        // Zero-size tails are still covered.
        let with_zeros = size_aware_chunks(&[3, 0, 0, 0], 2);
        assert_eq!(with_zeros.iter().sum::<usize>(), 4);
        // Uniform sizes degrade to near-even chunking.
        let uniform = size_aware_chunks(&[2; 12], 4);
        assert_eq!(uniform, vec![3, 3, 3, 3]);
    }

    #[test]
    fn size_aware_chunks_handle_giants_anywhere_in_the_order() {
        // One worker gets everything in a single chunk.
        assert_eq!(size_aware_chunks(&[4, 2, 9, 1], 1), vec![4]);
        // A giant at the *end* must not starve earlier workers of items:
        // every chunk stays non-empty and coverage is exact.
        let sizes = [1usize, 1, 1, 1, 1, 1, 1, 1000];
        for workers in [2usize, 3, 4, 8] {
            let chunks = size_aware_chunks(&sizes, workers);
            assert_eq!(chunks.iter().sum::<usize>(), sizes.len());
            assert!(chunks.len() <= workers);
            assert!(
                chunks.iter().all(|&c| c > 0),
                "workers={workers}: {chunks:?}"
            );
        }
        // The giant ends up in the last chunk, alone with at most the
        // leftover smalls its greedy target allows.
        let two = size_aware_chunks(&sizes, 2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0] + two[1], sizes.len());
    }

    #[test]
    fn skewed_sizes_build_matches_serial_at_any_thread_count() {
        // A giant group plus many small ones: the regime even slicing
        // imbalances. The parallel build must stay identical to serial
        // and to the brute-force scan.
        let mut gs = GroupSet::new();
        gs.push(Group::new(
            vec![],
            MemberSet::from_unsorted((0..500).collect()),
        ));
        for i in 0..40u32 {
            gs.push(Group::new(
                vec![],
                MemberSet::from_unsorted(vec![i * 3, i * 3 + 1, i * 3 + 2]),
            ));
        }
        let cfg = |threads| IndexConfig {
            materialize_fraction: 0.5,
            threads,
        };
        let serial = GroupIndex::build(&gs, &cfg(1));
        assert_matches_brute_force(&serial, &gs, 0.5, "serial");
        for threads in [2usize, 3, 8, 64] {
            let parallel = GroupIndex::build(&gs, &cfg(threads));
            assert_same_index(&serial, &parallel, &format!("threads={threads}"));
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let gs = bookcrossing_groups(15);
        assert!(gs.len() > 10);
        let serial = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.3,
                threads: 1,
            },
        );
        let parallel = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.3,
                threads: 4,
            },
        );
        assert_same_index(&serial, &parallel, "threads=4");
    }

    #[test]
    fn stats_accounting() {
        let gs = groups_fixture();
        let idx = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 1.0,
                threads: 1,
            },
        );
        let s = idx.stats();
        assert_eq!(s.n_groups, 4);
        // g0<->g1, g0<->g2, g1<->g2: each unordered pair scored once.
        assert_eq!(s.scored_pairs, 3);
        assert_eq!(s.materialized_entries, 6);
        assert_matches_brute_force(&idx, &gs, 1.0, "fixture");
        // heap accounting covers the flat entries, both offset tables and
        // the retained CSR.
        assert!(
            s.heap_bytes
                >= 6 * std::mem::size_of::<Neighbor>()
                    + (5 + 4) * std::mem::size_of::<u32>()
                    + idx.member_groups.heap_bytes()
        );
    }

    #[test]
    fn empty_group_set() {
        let gs = GroupSet::new();
        let idx = GroupIndex::build(&gs, &IndexConfig::default());
        assert!(idx.is_empty());
        assert_eq!(idx.stats().n_groups, 0);
    }

    #[test]
    fn smaller_fraction_uses_less_memory() {
        let gs = bookcrossing_groups(10);
        let full = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 1.0,
                threads: 2,
            },
        );
        let tenth = GroupIndex::build(
            &gs,
            &IndexConfig {
                materialize_fraction: 0.1,
                threads: 2,
            },
        );
        assert!(tenth.stats().materialized_entries < full.stats().materialized_entries / 2);
        assert!(tenth.stats().heap_bytes < full.stats().heap_bytes);
    }

    #[test]
    fn engine_scale_build_is_chunking_independent() {
        // A ×1 dataset mined at the paper configuration: every chunking of
        // the rows encodes to the same index sections, and sampled lists
        // are the brute-force scan cut at the materialized fraction.
        let gs = mined_groups(
            &vexus_data::synthetic::BookCrossingConfig {
                n_users: 5_000,
                n_books: 4_000,
                n_ratings: 30_000,
                n_communities: 8,
                seed: 7,
            },
            &vexus_mining::LcmConfig {
                min_support: 5,
                max_description: 4,
                max_groups: 100_000,
                emit_root: false,
            },
        );
        assert!(gs.len() > 1_000, "fixture too small: {}", gs.len());
        let encoded = |threads| {
            let idx = GroupIndex::build(
                &gs,
                &IndexConfig {
                    materialize_fraction: 0.1,
                    threads,
                },
            );
            let mut w = vexus_data::SnapshotWriter::new();
            crate::snapshot::encode_group_index(&idx, &mut w);
            (idx, w.finish())
        };
        let (serial, bytes) = encoded(1);
        for threads in [2usize, 3, 7] {
            assert!(encoded(threads).1 == bytes, "threads={threads}");
        }
        for g in (0..gs.len()).step_by(gs.len() / 64).take(64) {
            let g = GroupId::new(g as u32);
            let all = compute_all_neighbors(&gs, g);
            assert_eq!(
                serial.materialized(g),
                &all[..keep_of(0.1, all.len())],
                "list of {g}"
            );
            assert_eq!(serial.full_neighbor_count(g), all.len());
        }
    }

    use vexus_data::TokenId;
    use vexus_mining::delta::diff;

    /// A described group space from `(tag, members)` pairs, in canonical
    /// (description-sorted) order. Tags must be unique.
    pub(crate) fn described_space(defs: &[(u32, Vec<u32>)]) -> GroupSet {
        let mut defs = defs.to_vec();
        defs.sort_unstable_by_key(|(tag, _)| *tag);
        let groups = defs.into_iter().map(|(tag, members)| {
            Group::new(vec![TokenId::new(tag)], MemberSet::from_unsorted(members))
        });
        GroupSet::from_groups(groups.collect())
    }

    fn patch_config(fraction: f64, threads: usize) -> IndexConfig {
        IndexConfig {
            materialize_fraction: fraction,
            threads,
        }
    }

    #[test]
    fn empty_delta_patch_reproduces_the_index() {
        let gs = described_space(&[
            (1, vec![0, 1, 2, 3]),
            (2, vec![2, 3, 4, 5]),
            (3, vec![3, 4, 5, 6]),
        ]);
        let cfg = patch_config(0.5, 1);
        let idx = GroupIndex::build(&gs, &cfg);
        let patch = idx.apply_delta(&gs, &gs, &GroupDelta::default(), &cfg);
        assert_same_index(&patch.index, &idx, "empty delta");
        assert_eq!(patch.rescored, 0, "nothing is dirty");
        assert_eq!(patch.old_to_new, vec![0, 1, 2], "identity remap");
        assert!(patch.dirty.iter().all(|&d| !d));
        // The returned index is a build and reports the build's pairs.
        assert_eq!(patch.index.stats().scored_pairs, idx.stats().scored_pairs);
    }

    /// What the dirty set promises about every group it leaves clean: the
    /// group is a survivor, its list in the new index is its list in the
    /// old index with ids rewritten through `old_to_new` (so every id in
    /// it is a survivor too), and its full neighbor count is unchanged.
    /// The index is a rebuild, so a group wrongly left clean shows here
    /// and nowhere else.
    fn assert_clean_groups_are_rewrites(old_idx: &GroupIndex, patch: &IndexPatch, what: &str) {
        let mut new_to_old = vec![u32::MAX; patch.dirty.len()];
        for (o, &n) in patch.old_to_new.iter().enumerate() {
            if n != u32::MAX {
                new_to_old[n as usize] = o as u32;
            }
        }
        assert_eq!(
            patch.rescored,
            patch.dirty.iter().filter(|&&d| d).count(),
            "{what}: rescored counts the dirty groups"
        );
        for g in (0..patch.dirty.len()).filter(|&g| !patch.dirty[g]) {
            assert_ne!(
                new_to_old[g],
                u32::MAX,
                "{what}: clean group {g} is not a survivor"
            );
            let (o, g) = (GroupId::new(new_to_old[g]), GroupId::new(g as u32));
            let rewritten: Vec<Neighbor> = old_idx
                .materialized(o)
                .iter()
                .map(|&(h, sim)| (GroupId::new(patch.old_to_new[h.index()]), sim))
                .collect();
            assert!(
                rewritten.iter().all(|&(h, _)| h.0 != u32::MAX),
                "{what}: clean list of {g} holds a retired neighbor"
            );
            assert_eq!(
                patch.index.materialized(g),
                &rewritten[..],
                "{what}: clean list of {g} is not the old list rewritten"
            );
            assert_eq!(
                patch.index.full_neighbor_count(g),
                old_idx.full_neighbor_count(o),
                "{what}: full length of clean {g}"
            );
        }
    }

    /// One epoch transition with a witness per member source of the dirty
    /// walk — a survivor whose *only* link to anything touched runs
    /// through that source — beside clean groups, both id-stable and
    /// shifted. Tags are the canonical order.
    ///
    /// * `{5}` is retired; `{6}` shares 12 with it and nothing else.
    /// * `{3}` shrinks (loses 32); `{10}` shares only 32 with old `{3}`.
    /// * `{2}` grows (gains 6); `{11}` shares only 6 with new `{2}`.
    /// * `{4}` is added; `{9}` shares only 40 with it.
    /// * `{1}` and `{7}` overlap `{2}` in members it keeps.
    /// * `{12}`, `{13}` are untouched and keep their ids; `{20}`, `{21}`
    ///   are untouched but shift by one behind the added `{15}`.
    fn witness_epochs() -> (GroupSet, GroupSet) {
        let shared = [
            (1, vec![0, 1, 2, 3]),
            (6, vec![12, 13]),
            (7, vec![0, 5]),
            (9, vec![40, 41]),
            (10, vec![32, 33]),
            (11, vec![6, 50]),
            (12, vec![60, 61, 62]),
            (13, vec![61, 62, 63]),
            (20, vec![100, 101, 102]),
            (21, vec![101, 102, 103]),
        ];
        let mut old = shared.to_vec();
        old.extend([
            (2, vec![2, 3, 4, 5]),
            (3, vec![30, 31, 32]),
            (5, vec![10, 11, 12]),
        ]);
        let mut new = shared.to_vec();
        new.extend([
            (2, vec![2, 3, 4, 5, 6]),
            (3, vec![30, 31]),
            (4, vec![1, 2, 10, 40]),
            (15, vec![200, 201]),
        ]);
        (described_space(&old), described_space(&new))
    }

    #[test]
    fn patch_matches_rebuild_across_add_retire_resize() {
        let (old, new) = witness_epochs();
        let delta = diff(&old, &new);
        assert_eq!(delta.added.len(), 2);
        assert_eq!(delta.retired.len(), 1);
        assert_eq!(delta.resized.len(), 2);
        for fraction in [0.0, 0.3, 1.0] {
            let cfg = patch_config(fraction, 1);
            let idx = GroupIndex::build(&old, &cfg);
            let patch = idx.apply_delta(&old, &new, &delta, &cfg);
            let rebuilt = GroupIndex::build(&new, &cfg);
            let what = format!("fraction={fraction}");
            assert_same_index(&patch.index, &rebuilt, &what);
            assert_clean_groups_are_rewrites(&idx, &patch, &what);
            // New ids follow the tags 1 2 3 4 6 7 9 10 11 12 13 15 20 21:
            // only the four untouched groups are clean.
            let clean: Vec<usize> = (0..new.len()).filter(|&g| !patch.dirty[g]).collect();
            assert_eq!(clean, vec![9, 10, 12, 13], "{what}");
            assert_eq!(patch.rescored, new.len() - 4, "{what}");
        }
    }

    /// Carried cache entries are served as hits and are the new epoch's
    /// exact answers: fill a cache over the old index at several `k`,
    /// carry it across the epoch with [`IndexPatch::carries`], and query
    /// every carried key against the new index.
    #[test]
    fn carried_cache_entries_are_exact_hits_in_the_new_epoch() {
        use crate::cache::NeighborCache;
        let (old, new) = witness_epochs();
        let cfg = patch_config(0.3, 1);
        let idx = GroupIndex::build(&old, &cfg);
        let cache = NeighborCache::new(1024);
        let ks = [1usize, 2, 8];
        for (g, _) in old.iter() {
            for k in ks {
                cache.neighbors(&idx, &old, g, k);
            }
        }
        let patch = idx.apply_delta(&old, &new, &diff(&old, &new), &cfg);
        let carried = cache.carry_over(|g, list| patch.carries(g, list));
        let mut expected = 0usize;
        for (g, _) in old.iter() {
            for k in ks {
                if !patch.carries(g.0, &idx.neighbors(&old, g, k)) {
                    continue;
                }
                expected += 1;
                assert_eq!(
                    &carried.neighbors(&patch.index, &new, g, k)[..],
                    &patch.index.neighbors(&new, g, k)[..],
                    "carried entry ({g}, {k}) is not the new epoch's answer"
                );
            }
        }
        // {12} and {13} at every k: clean and id-stable. {20} and {21}
        // are clean but shifted, everything else is dirty or retired.
        assert_eq!(expected, 2 * ks.len());
        assert_eq!(carried.len(), expected);
        let stats = carried.stats();
        assert_eq!((stats.hits, stats.misses), (expected as u64, 0));
    }

    #[test]
    fn untouched_disconnected_groups_stay_clean() {
        // Two overlapping groups in one component; a far-away pair in
        // another. Resizing inside the first component must not dirty the
        // second — its lists are copied, not rescored.
        let old = described_space(&[
            (1, vec![0, 1, 2]),
            (2, vec![1, 2, 3]),
            (8, vec![100, 101, 102]),
            (9, vec![101, 102, 103]),
        ]);
        let new = described_space(&[
            (1, vec![0, 1, 2, 4]),
            (2, vec![1, 2, 3]),
            (8, vec![100, 101, 102]),
            (9, vec![101, 102, 103]),
        ]);
        let delta = diff(&old, &new);
        assert_eq!(delta.resized.len(), 1);
        let cfg = patch_config(1.0, 1);
        let idx = GroupIndex::build(&old, &cfg);
        let patch = idx.apply_delta(&old, &new, &delta, &cfg);
        assert_same_index(&patch.index, &GroupIndex::build(&new, &cfg), "disconnected");
        // Canonical order: tags 1, 2, 8, 9 → ids 0, 1, 2, 3.
        assert_eq!(patch.dirty, vec![true, true, false, false]);
        assert_eq!(patch.rescored, 2);
    }

    #[test]
    fn patch_survives_a_universe_shrink_and_regrow() {
        // Retiring the group holding the largest member ids shrinks the
        // CSR universe; a later add regrows it. Both transitions must
        // match the rebuild's universe computation exactly.
        let cfg = patch_config(1.0, 2);
        let e0 = described_space(&[(1, vec![0, 1]), (2, vec![1, 2]), (3, vec![500, 501])]);
        let e1 = described_space(&[(1, vec![0, 1]), (2, vec![1, 2])]);
        let e2 = described_space(&[(1, vec![0, 1]), (2, vec![1, 2]), (4, vec![2, 900])]);
        let idx0 = GroupIndex::build(&e0, &cfg);
        let p1 = idx0.apply_delta(&e0, &e1, &diff(&e0, &e1), &cfg);
        assert_same_index(&p1.index, &GroupIndex::build(&e1, &cfg), "shrink");
        let p2 = p1.index.apply_delta(&e1, &e2, &diff(&e1, &e2), &cfg);
        assert_same_index(&p2.index, &GroupIndex::build(&e2, &cfg), "regrow");
    }

    /// The evolving-space model for the delta proptest: `(tag, members)`
    /// entries keyed by description tag.
    fn model_space(model: &std::collections::BTreeMap<u32, Vec<u32>>) -> GroupSet {
        let defs: Vec<(u32, Vec<u32>)> = model.iter().map(|(&t, m)| (t, m.clone())).collect();
        described_space(&defs)
    }

    use proptest::prelude::*;

    proptest! {
        /// A row of random `(id, inter, |a|, |b|)` with `1 ≤ inter ≤ min`:
        /// tiny sizes (many equal similarities under different ids), full
        /// `u32` sizes, `sim == 1.0` and the smallest ratio `u32` sizes
        /// allow. Sorting the keys is sorting the neighbors by
        /// [`neighbor_order`], a key gives back its `(id, sim)` bit for bit,
        /// and [`select_top`] is a prefix of that sort.
        #[test]
        fn prop_neighbor_key_order_is_neighbor_order(
            raw in proptest::collection::vec(
                (0u8..4, 0u32..=u32::MAX, 1u32..=u32::MAX, 1u32..=u32::MAX, 0u32..=u32::MAX),
                1..40),
            keep in 0usize..45
        ) {
            let mut row: Vec<Neighbor> = Vec::new();
            for (shape, id, a, b, pick) in raw {
                let (id, a, b) = match shape {
                    0 => (id % 64, a % 6 + 1, b % 6 + 1),
                    1 => (id, a % 5_000 + 1, b % 5_000 + 1),
                    2 => (id, a, b),
                    _ if pick % 2 == 0 => (id, a, a),
                    _ => (id, u32::MAX, u32::MAX),
                };
                let inter = match shape {
                    3 if pick % 2 == 0 => a as usize,
                    3 => 1,
                    _ => 1 + pick as usize % a.min(b) as usize,
                };
                let union = a as usize + b as usize - inter;
                if row.iter().all(|&(h, _)| h.0 != id) {
                    row.push((GroupId::new(id), inter as f32 / union as f32));
                }
            }
            let bits = |list: &[Neighbor]| -> Vec<(u32, u32)> {
                list.iter().map(|&(h, sim)| (h.0, sim.to_bits())).collect()
            };
            let mut keys: Vec<u64> = row.iter().map(|&(h, sim)| neighbor_key(h.0, sim)).collect();
            let back: Vec<Neighbor> = keys.iter().map(|&key| key_neighbor(key)).collect();
            prop_assert_eq!(bits(&back), bits(&row), "round trip");
            row.sort_by(neighbor_order);
            let mut selected = keys.clone();
            let selected: Vec<Neighbor> = select_top(&mut selected, keep).collect();
            prop_assert_eq!(bits(&selected), bits(&row[..keep.min(row.len())]), "selection");
            keys.sort_unstable();
            let sorted: Vec<Neighbor> = keys.iter().map(|&key| key_neighbor(key)).collect();
            prop_assert_eq!(bits(&sorted), bits(&row), "order");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random skewed group-size fixtures: the row-at-a-time build must
        /// equal the brute-force scan — lists, full lengths and one count
        /// per unordered pair — at thread counts {1, 2, 4, 8}.
        #[test]
        fn prop_build_equals_brute_force(
            raw_groups in proptest::collection::vec(
                (0u32..60, 1usize..24), 1..40),
            fraction in 0.0f64..1.0
        ) {
            // (start, len) spans over a 90-member universe; overlapping
            // spans give dense overlap structure, tiny spans give skew.
            let mut gs = GroupSet::new();
            for (start, len) in raw_groups {
                let members: Vec<u32> = (start..start + len as u32).collect();
                gs.push(Group::new(vec![], MemberSet::from_unsorted(members)));
            }
            for threads in [1usize, 2, 4, 8] {
                let idx = GroupIndex::build(
                    &gs,
                    &IndexConfig { materialize_fraction: fraction, threads },
                );
                assert_matches_brute_force(&idx, &gs, fraction, &format!("threads={threads}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The refresh oracle: starting from a random described space,
        /// apply random epochs of add / retire / resize ops and pin
        /// [`GroupIndex::apply_delta`]'s index byte-identical to a full
        /// [`GroupIndex::build`] over every epoch's space, at thread counts
        /// {1, 2, 4, 8}, chaining each epoch off the previous one's index —
        /// and pin its dirty set: every group left clean must be a pure id
        /// rewrite of its old list.
        #[test]
        fn prop_apply_delta_equals_full_rebuild(
            initial in proptest::collection::vec(
                (0u32..24, 0u32..40, 1usize..10), 1..12),
            epochs in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..3, 0u32..24, 0u32..40, 1usize..10), 1..8),
                1..4),
            fraction in 0.0f64..1.0
        ) {
            let mut model: std::collections::BTreeMap<u32, Vec<u32>> =
                std::collections::BTreeMap::new();
            for (tag, start, len) in initial {
                model.entry(tag)
                    .or_insert_with(|| (start..start + len as u32).collect());
            }
            let cfg = patch_config(fraction, 1);
            let mut space = model_space(&model);
            let mut idx = GroupIndex::build(&space, &cfg);
            for (e, ops) in epochs.into_iter().enumerate() {
                for (kind, tag, start, len) in ops {
                    let members: Vec<u32> = (start..start + len as u32).collect();
                    let keys: Vec<u32> = model.keys().copied().collect();
                    match kind {
                        0 => {
                            model.entry(tag).or_insert(members);
                        }
                        1 if !keys.is_empty() => {
                            model.remove(&keys[tag as usize % keys.len()]);
                        }
                        2 if !keys.is_empty() => {
                            model.insert(keys[tag as usize % keys.len()], members);
                        }
                        _ => {}
                    }
                }
                let next = model_space(&model);
                let delta = diff(&space, &next);
                let reference = GroupIndex::build(&next, &cfg);
                let mut chained = None;
                for threads in [1usize, 2, 4, 8] {
                    let patch = idx.apply_delta(
                        &space, &next, &delta, &patch_config(fraction, threads));
                    for g in 0..next.len() {
                        let g = GroupId::new(g as u32);
                        prop_assert_eq!(
                            patch.index.materialized(g),
                            reference.materialized(g),
                            "epoch={} threads={} group={}", e, threads, g
                        );
                        prop_assert_eq!(
                            patch.index.full_neighbor_count(g),
                            reference.full_neighbor_count(g)
                        );
                    }
                    prop_assert_eq!(
                        patch.index.member_groups.lists().offsets(),
                        reference.member_groups.lists().offsets()
                    );
                    prop_assert_eq!(
                        patch.index.member_groups.lists().items(),
                        reference.member_groups.lists().items()
                    );
                    assert_clean_groups_are_rewrites(
                        &idx, &patch, &format!("epoch={e} threads={threads}"));
                    if threads == 1 {
                        chained = Some(patch.index);
                    }
                }
                idx = chained.expect("threads=1 ran");
                space = next;
            }
        }
    }
}
