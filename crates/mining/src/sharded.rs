//! Sharded parallel discovery and multi-backend ensembles.
//!
//! [`ShardedDiscovery`] is the scaling layer over the [`GroupDiscovery`]
//! seam: it partitions the user space with a
//! [`vexus_data::shard::ShardPlan`], runs an adapted copy of any backend
//! per shard on crossbeam scoped threads, and folds the per-shard group
//! spaces through a [`MergeStrategy`]. The same merge layer powers
//! [`EnsembleDiscovery`], which unions several backends' group spaces
//! (e.g. LCM ∪ BIRCH: described and clustered groups side by side).
//!
//! The partition-mining correctness argument is SON-style: a group that is
//! frequent over the whole population is, by pigeonhole, frequent in at
//! least one shard at a proportionally scaled support floor. Backends
//! therefore implement [`ShardScaled`] so the driver can scale their
//! absolute-count thresholds down to each shard's fraction of the data;
//! [`MergeStrategy::SupportRecount`] then re-evaluates every candidate
//! description against the *global* transaction database (members, closure
//! and support), so merged groups are exact global closed groups and
//! per-shard noise below the global floor is dropped.
//!
//! One subtlety: a globally closed set `X` may never appear per shard —
//! inside a small shard `X`'s closure can *grow* (all shard-local members
//! happen to share extra tokens), and differently in every shard. Since
//! `X` equals the intersection of its per-shard closures, the recount
//! first closes the candidate set under pairwise description intersection
//! (bounded by [`CANDIDATE_REFINEMENT_CAP`]) before re-evaluating, which
//! recovers such hidden sets without ever admitting a false positive: any
//! recounted group is a closure of a global tidlist, hence exactly a
//! global closed group.
//!
//! The pairwise refinement alone is not complete: it can only intersect
//! descriptions that some shard actually *mined*, and a shard where `X`'s
//! carriers sit below the scaled support floor never emits its local
//! closure of `X`. The **cross-shard closure exchange round**
//! ([`MergeContext::exchange_rounds`], on by default) closes that last
//! gap: every candidate description is broadcast to every shard's
//! transaction projection, each shard re-closes it locally (the distinct
//! projections of its transactions onto the candidate — exactly the
//! shard-local closures of single members, floor-free), and the
//! cross-shard intersection products of those projections feed the global
//! recount worklist. Completeness argument: a missed global closed
//! frequent set `X` is contained in some mined witness `Y` (SON picks a
//! shard where `X` is frequent at the scaled floor, and that shard's LCM
//! emits `Y = clos(members(X))` — shard-local mining runs with
//! `emit_root: true` precisely so this holds even when `Y` is the shard's
//! own root), and `X = ⋂_{u ∈ carriers(X)} (T_u ∩ Y)` because `X` is
//! closed — an intersection of projected transactions, all of which the
//! exchange collects. The exchange runs whenever more than one part
//! contributed *or* the parts are shard projections
//! ([`MergeContext::partial_parts`] — a lone shard-local family is not
//! globally closed, unlike a lone full-data part), and the recount
//! normalizes the one group the miners never emit (the global root, the
//! closure of the entire population) back out. One round therefore makes
//! the sharded recount *exact* at any shard count (pinned by
//! `tests/sharded_discovery.rs`); further rounds only re-broadcast the
//! newly found descriptions and stop early at the fixpoint.
//!
//! The exchange's cost is cut two ways. Each frontier candidate is
//! **frequency-pruned** onto its tokens whose global support meets the
//! recount floor — a group containing an infrequent token can never
//! survive the recount, so its tidlists are never worth scanning.
//! Near-identical candidates (the common case after SON scaling:
//! shard-local closures differing only in locally-shared rare tokens)
//! collapse onto one pruned form that is **deduplicated and broadcast
//! once**; the pruned form itself joins the recount worklist, which is
//! what keeps the completeness argument intact (a hidden set whose every
//! carrier carries the whole pruned form is exactly that form's recount).
//! The re-closure runs against the *distinct rows* of the one global
//! transaction database, deduplicated once per merge: every member lives
//! in exactly one shard, so the union of per-shard distinct projections
//! equals the global distinct projections (in-process per-shard copies
//! would only duplicate every transaction), and members who carry the
//! same transaction project alike onto every candidate — a family is a
//! function of the set of rows, not of how many users carry each. The
//! recount itself keeps the full database: it needs the real members.
//!
//! Both data-sized stages are one pass over rows, not one scan per
//! candidate, so they cost what they find rather than what they probe:
//!
//! - **The exchange reads each family's seed off subset counts.** One walk
//!   of the distinct rows through a trie of every subset of the broadcast
//!   candidates counts, for each subset `S`, the rows containing `S`
//!   (`SubsetCounts`). Superset Möbius inversion over a candidate `y`'s
//!   `2^|y|` counts leaves, for each `S ⊆ y`, the rows whose projection
//!   `T ∩ y` is exactly `S` — so the distinct projections, the seed a scan
//!   of `y`'s tidlists collects, are the `S` with a non-zero count. A
//!   candidate whose `2^|y|` subsets outnumber the mask updates of that
//!   scan keeps the scan (`counts_pay_off`); the rule also bounds the
//!   trie by the scan volume it replaces.
//! - **The recount walks the transactions once.** Every transaction of the
//!   global database walks a prefix trie of the worklist in user order,
//!   visiting exactly the candidates it contains; each gains the user as a
//!   member and narrows its closure to the running intersection of its
//!   members' rows (`recount`). No tidlist is intersected and no closure
//!   checked token by token.
//!
//! Both passes split the rows into contiguous ranges over
//! [`MergeContext::threads`] and sum or concatenate the ranges' results in
//! range order, so the merge is byte-identical at any worker count.

use crate::bitmap::MemberSet;
use crate::discovery::{BirchDiscovery, LcmDiscovery, MomriDiscovery, StreamFimDiscovery};
use crate::discovery::{DiscoveryOutcome, GroupDiscovery, ShardStats};
use crate::group::{Group, GroupSet};
use crate::transactions::TransactionDb;
use std::collections::BTreeMap;
use vexus_data::shard::{ShardPlan, ShardStrategy};
use vexus_data::{TokenId, UserData, Vocabulary};

/// Scale a minimum-count threshold to a shard covering `fraction` of the
/// members. `ceil` keeps the SON guarantee: any itemset with global count
/// ≥ `floor` has, in some shard, count ≥ `ceil(floor · fraction)`.
fn scale_floor(floor: usize, fraction: f64) -> usize {
    ((floor as f64 * fraction).ceil() as usize).max(1)
}

/// Scale a safety-valve cap *up* for a shard covering `fraction` of the
/// members, saturating at `usize::MAX`. A scaled-*down* support floor
/// surfaces proportionally more shard-local structure, so a global cap
/// applied verbatim per shard could truncate a shard's output stream
/// before its globally frequent candidates are emitted.
fn scale_cap(cap: usize, fraction: f64) -> usize {
    let scaled = (cap as f64 / fraction.max(f64::EPSILON)).ceil();
    if scaled >= usize::MAX as f64 {
        usize::MAX
    } else {
        scaled as usize
    }
}

/// Adapt a backend's configuration to one shard of the data.
///
/// The driver hands each worker `backend.for_shard_of(fraction, n_attrs)`
/// where `fraction` is the shard's share of all members and `n_attrs` the
/// schema's attribute count. Backends whose thresholds are absolute counts
/// (LCM's `min_support`, BIRCH's `min_cluster_size`) scale them down
/// proportionally so globally frequent structure stays visible inside
/// every shard; backends with purely relative thresholds (stream FIM's
/// σ/ε) return an unchanged copy. Backends that lift output caps per
/// shard re-impose the user's caps on the merged space in
/// [`ShardScaled::finish_merge`].
pub trait ShardScaled: Clone {
    /// A copy of this backend configured for a shard holding `fraction`
    /// (in `(0, 1]`) of the members. Default: unchanged clone.
    fn for_shard(&self, _fraction: f64) -> Self {
        self.clone()
    }

    /// As [`ShardScaled::for_shard`], additionally told the schema's
    /// attribute count — the natural ceiling on any closed description's
    /// length, since a user carries at most one `(attribute, value)` token
    /// per attribute — and whether the merge is a recount
    /// (`recount_witnesses`: the per-shard output feeds a global
    /// [`MergeStrategy::SupportRecount`], so shard-local output policies
    /// like LCM's root suppression should be lifted to keep every merge
    /// witness; false for union/dedup merges, whose parts land in the
    /// output as-is). Backends whose description caps would otherwise
    /// prune whole shard-local branches (LCM) lift them to this ceiling
    /// here, which costs nothing extra: no closure can be longer than the
    /// shortest member transaction, which this bound already dominates.
    /// Default: delegate to `for_shard`.
    fn for_shard_of(&self, fraction: f64, _n_attributes: usize, _recount_witnesses: bool) -> Self {
        self.for_shard(fraction)
    }

    /// Re-apply the *user's* global caps that `for_shard_of` lifted per
    /// shard, after the merge produced the global group space. Default:
    /// identity.
    fn finish_merge(&self, groups: GroupSet) -> GroupSet {
        groups
    }

    /// Whether the *user's* configuration asks for the whole-population
    /// group (LCM's `emit_root`). The support-recount merge normalizes
    /// that group out unless this returns true, mirroring what the
    /// unsharded backend would emit. Default: false.
    fn emits_population_group(&self) -> bool {
        false
    }
}

impl ShardScaled for LcmDiscovery {
    /// Scales `min_support` only; description/group caps are handled by
    /// [`ShardScaled::for_shard_of`] and [`ShardScaled::finish_merge`].
    fn for_shard(&self, fraction: f64) -> Self {
        let mut scaled = self.clone();
        scaled.config.min_support = scale_floor(self.config.min_support, fraction);
        scaled
    }

    /// Scales `min_support` down and *lifts* the output caps: the
    /// description cap rises to the schema's attribute count (a
    /// shard-local closure longer than the user's `max_description` must
    /// still be mined — its global recount can shrink back under the cap;
    /// pruning the branch per shard silently dropped such groups), and
    /// `max_groups` scales up by the shard count so low-floor shards
    /// don't hit the safety valve before globally frequent candidates are
    /// emitted. Under a recount merge (`recount_witnesses`), `emit_root`
    /// additionally turns on: a shard whose entire closed family collapses
    /// into its own root (all shard members identical on some tokens)
    /// would otherwise emit *no* witness for a globally frequent group
    /// concentrated there. The recount then re-normalizes (shard roots
    /// recount like any candidate; the whole-population group is dropped
    /// unless the user's own `emit_root` asked for it), and
    /// [`ShardScaled::finish_merge`] re-applies the user's caps to the
    /// merged space. Union/dedup merges keep the user's `emit_root`
    /// untouched, since their parts land in the output as-is.
    fn for_shard_of(&self, fraction: f64, n_attributes: usize, recount_witnesses: bool) -> Self {
        let mut scaled = self.for_shard(fraction);
        scaled.config.max_description = scaled.config.max_description.max(n_attributes);
        scaled.config.max_groups = scale_cap(self.config.max_groups, fraction);
        scaled.config.emit_root = self.config.emit_root || recount_witnesses;
        scaled
    }

    /// Drops merged groups whose *global* closed description exceeds the
    /// user's `max_description` (matching what the unsharded miner never
    /// emits) and truncates to `max_groups`. The truncation is a safety
    /// valve, not a top-k contract: when the cap binds, the kept subset
    /// follows merge order rather than the unsharded miner's DFS order.
    fn finish_merge(&self, groups: GroupSet) -> GroupSet {
        let max_description = self.config.max_description;
        let kept: Vec<Group> = groups
            .into_vec()
            .into_iter()
            .filter(|g| g.description.len() <= max_description)
            .take(self.config.max_groups)
            .collect();
        GroupSet::from_groups(kept)
    }

    fn emits_population_group(&self) -> bool {
        self.config.emit_root
    }
}

impl ShardScaled for MomriDiscovery {
    fn for_shard(&self, fraction: f64) -> Self {
        let mut scaled = self.clone();
        scaled.config.lcm.min_support = scale_floor(self.config.lcm.min_support, fraction);
        scaled
    }
}

impl ShardScaled for BirchDiscovery {
    fn for_shard(&self, fraction: f64) -> Self {
        let mut scaled = self.clone();
        scaled.min_cluster_size = scale_floor(self.min_cluster_size, fraction);
        scaled
    }
}

impl ShardScaled for StreamFimDiscovery {}

/// Above this many distinct candidate descriptions,
/// [`MergeStrategy::SupportRecount`] skips the quadratic
/// intersection-refinement pass and recounts the raw candidates only. The
/// recount stays sound either way; the refinement exists for the regime
/// where closure-hiding actually bites — small shards with few candidates
/// — while on rich spaces (thousands of candidates) it costs hundreds of
/// milliseconds to recover a fraction of a percent of groups (the recall
/// without the exchange is pinned by
/// `oversharded_recount_without_exchange_is_sound_with_high_recall`; with
/// it the recount is exact at any cap).
pub const CANDIDATE_REFINEMENT_CAP: usize = 1024;

/// Intersection of two sorted token descriptions (merge scan).
fn intersect_sorted(a: &[TokenId], b: &[TokenId]) -> Vec<TokenId> {
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
    out
}

/// Close a candidate family under pairwise intersection, up to `cap`
/// members. A globally closed set equals the intersection of its per-shard
/// closures, so this worklist recovers sets hidden by shard-local closure
/// growth. Deterministic: the result is sorted, and the worklist explores
/// candidates in sorted order.
fn close_under_intersection(seed: Vec<Vec<TokenId>>, cap: usize) -> Vec<Vec<TokenId>> {
    let mut known: std::collections::HashSet<Vec<TokenId>> = seed.iter().cloned().collect();
    if known.len() > cap {
        return seed;
    }
    let mut frontier = seed;
    frontier.sort_unstable();
    frontier.dedup();
    let mut snapshot = frontier.clone();
    'refine: while !frontier.is_empty() {
        let mut fresh = Vec::new();
        for a in &frontier {
            for b in &snapshot {
                let inter = intersect_sorted(a, b);
                if !inter.is_empty() && !known.contains(&inter) {
                    known.insert(inter.clone());
                    fresh.push(inter);
                    if known.len() > cap {
                        break 'refine;
                    }
                }
            }
        }
        fresh.sort_unstable();
        snapshot.extend(fresh.iter().cloned());
        snapshot.sort_unstable();
        frontier = fresh;
    }
    let mut out: Vec<Vec<TokenId>> = known.into_iter().collect();
    out.sort_unstable();
    out
}

/// Per-candidate ceiling on the cross-shard exchange family (the
/// intersection closure of a candidate's projected transactions). The
/// family is naturally bounded by `2^|description|` — descriptions are
/// short conjunctions, so this cap only bites on pathologically wide
/// schemas; when it does, the exchange degrades to recounting the raw
/// projections, which stays sound (every recounted description yields an
/// exact global closed group) but may reopen a recall tail.
pub const EXCHANGE_FAMILY_CAP: usize = 4096;

/// The re-closure of a broadcast candidate `y` against the transaction
/// projection `db`, by scanning `y`'s tidlists: the distinct projections
/// of its transactions onto `y` (each projection is the closure of a
/// single member, restricted to `y` — no support floor), then the
/// intersection products of all of them ([`family_of_seed`]). The
/// exchange takes this path only for the candidates its cost rule sends
/// to the scan ([`counts_pay_off`]); the rest read the same seed off
/// [`SubsetCounts`].
///
/// Descriptions longer than 64 tokens (wider than any real schema here)
/// fall back to the generic [`exchange_family_reference`]; the others scan
/// for `u64` masks ([`seed_by_scan`]). The family equals the reference's
/// except under the [`EXCHANGE_FAMILY_CAP`]: the cap can only bind past
/// `|y| > 12` (the family is bounded by `2^|y|`), where the two
/// explorations may keep different — equally sound — subsets.
///
/// `scratch` is caller-owned zeroed scratch, grown here to the
/// projection's transaction count; it is returned zeroed.
fn exchange_family(
    db: &TransactionDb,
    y: &[TokenId],
    cap: usize,
    scratch: &mut Vec<u64>,
) -> Vec<Vec<TokenId>> {
    if y.len() < 2 {
        // Strict sub-projections of a singleton are empty; nothing to add.
        return Vec::new();
    }
    if y.len() > 64 {
        return exchange_family_reference(db, y, cap);
    }
    family_of_seed(y, seed_by_scan(db, y, scratch), cap)
}

/// The seed of `y`'s family (`|y| ≤ 64`): the distinct strict, non-empty
/// projections `T ∩ y` of the transactions of `db`, as ascending `u64`
/// masks over `y`'s token positions. One pass over the tidlists ORs each
/// carrier's position bit into a dense per-member scratch word (reset via
/// the touched list, never rescanned), and the distinct masks fall out of
/// a word sort — `Σ_{t∈y} support(t)` mask updates, no per-carrier
/// allocation, comparison or tree insert.
fn seed_by_scan(db: &TransactionDb, y: &[TokenId], scratch: &mut Vec<u64>) -> Vec<u64> {
    let full: u64 = if y.len() == 64 {
        u64::MAX
    } else {
        (1u64 << y.len()) - 1
    };
    if scratch.len() < db.n_transactions() {
        scratch.resize(db.n_transactions(), 0);
    }
    let mut touched: Vec<u32> = Vec::new();
    for (i, &t) in y.iter().enumerate() {
        let bit = 1u64 << i;
        for u in db.tidlist(t).iter() {
            if scratch[u as usize] == 0 {
                touched.push(u);
            }
            scratch[u as usize] |= bit;
        }
    }
    let mut seed: Vec<u64> = Vec::new();
    for &u in touched.iter() {
        let mask = scratch[u as usize];
        scratch[u as usize] = 0;
        // The full candidate is already on the worklist; only strict
        // sub-projections can surface hidden sets.
        if mask != full {
            seed.push(mask);
        }
    }
    seed.sort_unstable();
    seed.dedup();
    seed
}

/// A family from its seed: the seed's closure under bitwise AND (masks
/// explored in ascending word order, which for subsets of the same `y` is
/// a total order, so the result is deterministic), converted back to
/// sorted token lists.
fn family_of_seed(y: &[TokenId], seed: Vec<u64>, cap: usize) -> Vec<Vec<TokenId>> {
    close_masks_under_and(seed, cap)
        .into_iter()
        .map(|mask| {
            y.iter()
                .enumerate()
                .filter_map(|(i, &t)| (mask & (1 << i) != 0).then_some(t))
                .collect()
        })
        .collect()
}

/// Close a mask family under bitwise AND, up to `cap` members — the
/// bitmask form of [`close_under_intersection`]. Empty products are
/// dropped (an all-zero mask is the empty projection, which carries no
/// description); over the cap the seed passes through unrefined.
fn close_masks_under_and(seed: Vec<u64>, cap: usize) -> Vec<u64> {
    let mut known: std::collections::BTreeSet<u64> = seed.iter().copied().collect();
    if known.len() > cap {
        return seed;
    }
    let mut frontier = seed;
    let mut snapshot = frontier.clone();
    'refine: while !frontier.is_empty() {
        let mut fresh = Vec::new();
        for &a in &frontier {
            for &b in &snapshot {
                let and = a & b;
                if and != 0 && known.insert(and) {
                    fresh.push(and);
                    if known.len() > cap {
                        break 'refine;
                    }
                }
            }
        }
        fresh.sort_unstable();
        snapshot.extend(fresh.iter().copied());
        snapshot.sort_unstable();
        frontier = fresh;
    }
    known.into_iter().collect()
}

/// The generic family computation over token lists: the fallback for
/// descriptions wider than 64 tokens, which the mask path cannot
/// represent, and the unit-test oracle for the mask path. Materializes
/// `(member, token)` pairs over the tidlists, sorts them so each run is
/// one member's projection, and closes the collected set under pairwise
/// intersection.
fn exchange_family_reference(db: &TransactionDb, y: &[TokenId], cap: usize) -> Vec<Vec<TokenId>> {
    if y.len() < 2 {
        return Vec::new();
    }
    // (member, token) pairs over y's tidlists; sorting groups them by
    // member, so each run is that member's transaction ∩ y (tokens ascend
    // within a run because the pair sort is lexicographic).
    let mut pairs: Vec<(u32, TokenId)> = Vec::new();
    for &t in y {
        for u in db.tidlist(t).iter() {
            pairs.push((u, t));
        }
    }
    pairs.sort_unstable();
    let mut seed: std::collections::BTreeSet<Vec<TokenId>> = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < pairs.len() {
        let member = pairs[i].0;
        let mut projection = Vec::new();
        while i < pairs.len() && pairs[i].0 == member {
            projection.push(pairs[i].1);
            i += 1;
        }
        if projection.len() < y.len() {
            seed.insert(projection);
        }
    }
    close_under_intersection(seed.into_iter().collect(), cap)
}

/// Run `work` over `items` on up to `threads` scoped workers (`0` =
/// available parallelism), one contiguous chunk per worker, and return the
/// chunk results in chunk order. `work` also gets the index of its chunk's
/// first item. A lone chunk runs on the caller.
fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    work: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let workers = resolve_workers(threads).min(items.len()).max(1);
    if workers <= 1 {
        return vec![work(0, items)];
    }
    let chunk = items.len().div_ceil(workers);
    crossbeam::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| scope.spawn(move |_| work(i * chunk, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("merge worker panicked"))
            .collect()
    })
    .expect("merge worker scope")
}

/// [`map_chunks`] with each chunk yielding a sequence, re-concatenated in
/// order, so the result sequence is byte-identical to the sequential path
/// at any worker count.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    work: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    map_chunks(items, threads, |_, chunk| work(chunk))
        .into_iter()
        .flatten()
        .collect()
}

/// A token trie laid out for walking rows through it. Node 0 is the root,
/// the empty set; every other node stands for the token set on its path
/// from the root. Node `n`'s children are the nodes `kids[n].0..kids[n].1`
/// — contiguous and ascending by token — so a row finds the children it
/// carries by binary search.
struct Trie {
    token: Vec<TokenId>,
    kids: Vec<(u32, u32)>,
}

impl Trie {
    /// The prefix trie of `lists` (sorted token lists): a node per
    /// distinct prefix, so every list is a node.
    fn prefixes<L: AsRef<[TokenId]>>(lists: &[L]) -> Self {
        Self::build(lists, false)
    }

    /// The trie of every subset of every list (a subset's prefixes are
    /// subsets too): a node per distinct subset.
    fn subsets<L: AsRef<[TokenId]>>(lists: &[L]) -> Self {
        Self::build(lists, true)
    }

    fn build<L: AsRef<[TokenId]>>(lists: &[L], every_subset: bool) -> Self {
        let mut trie = Trie {
            token: vec![TokenId::new(0)],
            kids: vec![(0, 0)],
        };
        let mut entries: Vec<(TokenId, u32, u32)> = (0..lists.len() as u32)
            .map(|l| (TokenId::new(0), l, 0))
            .collect();
        trie.grow(0, 0..entries.len(), lists, every_subset, &mut entries);
        trie
    }

    /// Give `node` its children, then theirs, depth first. Each entry
    /// `(_, list, next)` in `entries[at]` is a list containing the node's
    /// set whose tokens from position `next` on may extend it — only the
    /// next one in a prefix trie, any of them in a subset trie. The
    /// children's entries go on the end of `entries`, sorted by token, one
    /// run per child; `entries` is truncated back before returning.
    fn grow<L: AsRef<[TokenId]>>(
        &mut self,
        node: usize,
        at: std::ops::Range<usize>,
        lists: &[L],
        every_subset: bool,
        entries: &mut Vec<(TokenId, u32, u32)>,
    ) {
        let base = entries.len();
        for e in at {
            let (_, l, next) = entries[e];
            let list = lists[l as usize].as_ref();
            let next = next as usize;
            let stop = if every_subset {
                list.len()
            } else {
                list.len().min(next + 1)
            };
            for (j, &t) in list.iter().enumerate().take(stop).skip(next) {
                entries.push((t, l, j as u32 + 1));
            }
        }
        entries[base..].sort_unstable_by_key(|&(t, _, _)| t);
        let first = self.token.len();
        for e in base..entries.len() {
            let t = entries[e].0;
            if e == base || entries[e - 1].0 != t {
                self.token.push(t);
                self.kids.push((0, 0));
            }
        }
        self.kids[node] = (first as u32, self.token.len() as u32);
        let (mut child, mut run) = (first, base);
        while run < entries.len() {
            let end = run + entries[run..].partition_point(|e| e.0 == entries[run].0);
            self.grow(child, run..end, lists, every_subset, entries);
            (child, run) = (child + 1, end);
        }
        entries.truncate(base);
    }

    fn len(&self) -> usize {
        self.token.len()
    }

    /// The child of `node` extending its set by `token`.
    fn child(&self, node: usize, token: TokenId) -> Option<usize> {
        let (lo, hi) = (self.kids[node].0 as usize, self.kids[node].1 as usize);
        let at = self.token[lo..hi].binary_search(&token).ok()?;
        Some(lo + at)
    }

    /// The node of a sorted token list.
    fn find(&self, list: &[TokenId]) -> Option<usize> {
        list.iter().try_fold(0, |node, &t| self.child(node, t))
    }

    /// Call `visit` on every node whose set the sorted `row` contains, the
    /// root first: a node is entered only through children whose token
    /// the row carries, so the walk costs the nodes it visits.
    fn walk(&self, row: &[TokenId], visit: &mut impl FnMut(usize)) {
        self.descend(0, row, visit);
    }

    fn descend(&self, node: usize, rest: &[TokenId], visit: &mut impl FnMut(usize)) {
        visit(node);
        let (mut lo, hi) = (self.kids[node].0 as usize, self.kids[node].1 as usize);
        for (i, &t) in rest.iter().enumerate() {
            if lo == hi {
                break;
            }
            let at = lo + self.token[lo..hi].partition_point(|&c| c < t);
            if at < hi && self.token[at] == t {
                self.descend(at, &rest[i + 1..], visit);
                lo = at + 1;
            } else {
                lo = at;
            }
        }
    }
}

/// A candidate's carriers as the recount's row walk finds them: members
/// ascending, and the intersection of their rows (`None` before the
/// first).
#[derive(Default)]
struct Carriers {
    members: Vec<u32>,
    closure: Option<Vec<TokenId>>,
}

impl Carriers {
    fn add(&mut self, member: u32, row: &[TokenId]) {
        self.members.push(member);
        self.narrow(row);
    }

    /// Fold in the carriers a later user range found.
    fn append(&mut self, later: Carriers) {
        self.members.extend(later.members);
        if let Some(row) = later.closure {
            self.narrow(&row);
        }
    }

    fn narrow(&mut self, row: &[TokenId]) {
        match &mut self.closure {
            None => self.closure = Some(row.to_vec()),
            Some(common) => common.retain(|t| row.binary_search(t).is_ok()),
        }
    }
}

/// What the recount makes of one candidate: its closed description and
/// exact members, or `None` under the support floor.
type Recounted = Option<(Vec<TokenId>, MemberSet)>;

/// Recount every candidate against the global database in one pass over
/// its transactions. The candidates form a prefix trie; each transaction
/// walks it in user order, visiting exactly the candidate prefixes it
/// contains, so a candidate ending at a visited node gains the user as a
/// member and narrows its closure to the running intersection of its
/// members' rows. The cost is the supports of the trie's nodes, never a
/// tidlist intersection or a closure's subset checks. Workers take
/// contiguous user ranges, folded in range order, so members stay
/// ascending and the result is identical at any worker count: per
/// candidate in worklist order, what `recount_one` computes. The
/// candidates must be distinct, as the merge's worklist is.
fn recount(
    db: &TransactionDb,
    candidates: &[Vec<TokenId>],
    min_support: usize,
    threads: usize,
) -> Vec<Recounted> {
    let trie = Trie::prefixes(candidates);
    // The candidate ending at each node; `usize::MAX` where none does.
    let mut ending = vec![usize::MAX; trie.len()];
    for (i, c) in candidates.iter().enumerate() {
        let node = trie.find(c).expect("a candidate is a node of its trie");
        assert_eq!(ending[node], usize::MAX, "recount candidates are distinct");
        ending[node] = i;
    }
    let mut ranges = map_chunks(db.transactions(), threads, |first, rows| {
        let mut found: Vec<Carriers> = candidates.iter().map(|_| Carriers::default()).collect();
        for (member, row) in (first as u32..).zip(rows) {
            trie.walk(row, &mut |node| {
                if let Some(carriers) = found.get_mut(ending[node]) {
                    carriers.add(member, row);
                }
            });
        }
        found
    })
    .into_iter();
    let mut found = ranges.next().expect("map_chunks yields a chunk");
    for later in ranges {
        for (carriers, more) in found.iter_mut().zip(later) {
            carriers.append(more);
        }
    }
    found
        .into_iter()
        .map(|Carriers { members, closure }| {
            (members.len() >= min_support)
                .then(|| (closure.unwrap_or_default(), MemberSet::from_sorted(members)))
        })
        .collect()
}

/// The distinct transactions of `db` as a database of their own — what the
/// exchange counts or scans. A candidate's family is a function of the
/// *set* of projections (its seed is the distinct ones), users with
/// the same transaction project alike, and user populations repeat few
/// attribute combinations many times over; member ids in the result mean
/// nothing, so only the exchange may read it.
fn distinct_rows(db: &TransactionDb) -> TransactionDb {
    let mut rows: Vec<&[TokenId]> = db.transactions().iter().map(Vec::as_slice).collect();
    rows.sort_unstable();
    rows.dedup();
    TransactionDb::from_transactions(rows.into_iter().map(<[_]>::to_vec).collect(), db.n_tokens())
}

/// The exchange's cost rule, from exact counts: `y`'s seed is read off
/// subset counts when its `2^|y|` subsets number no more than the mask
/// updates a scan makes (`Σ_{t∈y} rows(t)`), and scanned otherwise. The
/// rule also bounds the subset trie by the scan volume it replaces.
fn counts_pay_off(rows: &TransactionDb, y: &[TokenId]) -> bool {
    let volume: usize = y.iter().map(|&t| rows.support(t)).sum();
    y.len() < 64 && 1u64 << y.len() <= volume as u64
}

/// For every subset `S` of a set of candidates, the number of rows that
/// contain `S`: one walk of every row through the trie of all the
/// candidates' subsets (the walk visits exactly the subsets a row
/// contains). Workers take contiguous row ranges and their counts are
/// summed.
struct SubsetCounts {
    trie: Trie,
    rows_containing: Vec<u32>,
}

impl SubsetCounts {
    fn new(rows: &TransactionDb, candidates: &[&Vec<TokenId>], threads: usize) -> Self {
        let trie = Trie::subsets(candidates);
        let rows_containing = map_chunks(rows.transactions(), threads, |_, chunk| {
            let mut counts = vec![0u32; trie.len()];
            for row in chunk {
                trie.walk(row, &mut |node| counts[node] += 1);
            }
            counts
        })
        .into_iter()
        .reduce(|mut total, part| {
            total.iter_mut().zip(part).for_each(|(t, p)| *t += p);
            total
        })
        .expect("map_chunks yields a chunk");
        Self {
            trie,
            rows_containing,
        }
    }

    /// The seed [`seed_by_scan`] collects for `y` (one of the counted
    /// candidates), read off the counts: the rows containing each of `y`'s
    /// `2^|y|` subsets, then superset Möbius inversion, which turns "rows
    /// containing `S`" into "rows whose projection `T ∩ y` is exactly
    /// `S`"; the seed is every strict, non-empty `S` some row projects to.
    /// `scratch` holds `2^|y|` words.
    fn seed(&self, y: &[TokenId], scratch: &mut Vec<u32>) -> Vec<u64> {
        let full = (1usize << y.len()) - 1;
        let exact = scratch;
        exact.clear();
        exact.resize(full + 1, 0);
        // Each subset's node is its highest token's child of the rest.
        for mask in 1..=full {
            let high = (usize::BITS - 1 - mask.leading_zeros()) as usize;
            let rest = exact[mask ^ (1 << high)] as usize;
            let node = self.trie.child(rest, y[high]);
            exact[mask] = node.expect("a counted candidate's subset is a trie node") as u32;
        }
        for slot in exact.iter_mut() {
            *slot = self.rows_containing[*slot as usize];
        }
        for bit in (0..y.len()).map(|i| 1usize << i) {
            for mask in 0..=full {
                if mask & bit == 0 {
                    exact[mask] -= exact[mask | bit];
                }
            }
        }
        (1..full)
            .filter(|&mask| exact[mask] > 0)
            .map(|mask| mask as u64)
            .collect()
    }
}

/// One exchange round: re-close every broadcast candidate against the
/// distinct rows and return the deduplicated union of the families. Each
/// candidate's seed comes off [`SubsetCounts`] or a scan, as
/// [`counts_pay_off`] decides; either way it is the same seed, closed the
/// same way. The result is sorted, so it is byte-identical at any worker
/// count.
fn exchange_round(
    rows: &TransactionDb,
    candidates: &[Vec<TokenId>],
    threads: usize,
) -> Vec<Vec<TokenId>> {
    let (counted, scanned): (Vec<&Vec<TokenId>>, Vec<&Vec<TokenId>>) =
        candidates.iter().partition(|y| counts_pay_off(rows, y));
    let subsets = SubsetCounts::new(rows, &counted, threads);
    let mut out = fan_out(&counted, threads, |chunk| {
        let mut scratch = Vec::new();
        chunk
            .iter()
            .flat_map(|y| family_of_seed(y, subsets.seed(y, &mut scratch), EXCHANGE_FAMILY_CAP))
            .collect()
    });
    out.extend(families_by_scan(rows, &scanned, threads));
    out.sort_unstable();
    out.dedup();
    out
}

/// The families of `candidates`, each scanned ([`exchange_family`]),
/// concatenated in candidate order.
fn families_by_scan<Y: AsRef<[TokenId]> + Sync>(
    rows: &TransactionDb,
    candidates: &[Y],
    threads: usize,
) -> Vec<Vec<TokenId>> {
    fan_out(candidates, threads, |chunk| {
        // One mask scratch per worker, reused across its candidates.
        let mut scratch = Vec::new();
        chunk
            .iter()
            .flat_map(|y| exchange_family(rows, y.as_ref(), EXCHANGE_FAMILY_CAP, &mut scratch))
            .collect()
    })
}

/// Worker count resolution: `0` means use the machine's available
/// parallelism.
fn resolve_workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Shared inputs of a merge: the global dataset and vocabulary, an
/// optional pre-built [`TransactionDb`] (reused instead of rebuilt when a
/// strategy needs one — the recount's dominant fixed cost), and the worker
/// count for the exchange and recount passes.
#[derive(Clone, Copy)]
pub struct MergeContext<'a> {
    /// The global dataset.
    pub data: &'a UserData,
    /// The global token vocabulary.
    pub vocab: &'a Vocabulary,
    /// A transaction database over `data`/`vocab`, if the caller already
    /// built one. `None` makes [`MergeStrategy::SupportRecount`] build its
    /// own.
    pub db: Option<&'a TransactionDb>,
    /// Worker threads for the exchange and recount passes, each taking a
    /// contiguous range of rows (`0` = available parallelism). Output is
    /// byte-identical at any thread count.
    pub threads: usize,
    /// Cross-shard closure exchange rounds run by
    /// [`MergeStrategy::SupportRecount`] before the global recount
    /// (`0` disables the exchange). On by default (`1`): one round already
    /// makes the sharded recount exact at any shard count (see the module
    /// docs), and further rounds stop early at the fixpoint.
    pub exchange_rounds: usize,
    /// Whether the parts were mined on *projections* of the data (shards)
    /// rather than on the full dataset. When true, the exchange runs even
    /// if only one part contributed descriptions: a lone shard-local
    /// family is *not* globally closed (its closures grew inside the
    /// shard), whereas a lone full-data part already is — the
    /// `contributing parts > 1` shortcut is only valid for the latter.
    /// [`ShardedDiscovery`] sets this whenever it runs more than one
    /// shard; ensembles of full-data backends leave it false.
    pub partial_parts: bool,
    /// Whether [`MergeStrategy::SupportRecount`] may emit the
    /// whole-population group (the global root closure). False — the
    /// miners' `emit_root: false` convention — unless the user's backend
    /// configuration asked for the root
    /// ([`ShardScaled::emits_population_group`]); shard-root witnesses and
    /// derived candidates recounting onto it are normalized out otherwise.
    pub keep_population_group: bool,
}

impl<'a> MergeContext<'a> {
    /// Context without a pre-built database, merging on one thread with
    /// one exchange round (the exactness default).
    pub fn new(data: &'a UserData, vocab: &'a Vocabulary) -> Self {
        Self {
            data,
            vocab,
            db: None,
            threads: 1,
            exchange_rounds: 1,
            partial_parts: false,
            keep_population_group: false,
        }
    }

    /// Builder-style: reuse a pre-built transaction database.
    pub fn with_db(mut self, db: &'a TransactionDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Builder-style: set the recount worker count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style: set the closure exchange round count (`0` = off).
    pub fn with_exchange_rounds(mut self, exchange_rounds: usize) -> Self {
        self.exchange_rounds = exchange_rounds;
        self
    }

    /// Builder-style: mark the parts as shard-local projections (forces
    /// the exchange to run even when only one part contributed).
    pub fn with_partial_parts(mut self, partial_parts: bool) -> Self {
        self.partial_parts = partial_parts;
        self
    }

    /// Builder-style: let the recount emit the whole-population group
    /// (the user's backend was configured with `emit_root: true`).
    pub fn with_keep_population_group(mut self, keep: bool) -> Self {
        self.keep_population_group = keep;
        self
    }
}

/// Telemetry one merge reports back to the discovery driver (currently the
/// closure exchange stage; all zero when the exchange is off or skipped).
#[derive(Debug, Clone, Default)]
pub struct MergeTelemetry {
    /// Exchange rounds actually run (the loop stops early once a round
    /// adds no new description).
    pub exchange_rounds_run: usize,
    /// Descriptions the exchange added to the recount worklist.
    pub exchange_candidates: usize,
    /// Candidate broadcasts the dedup stage saved: frontier descriptions
    /// that collapsed onto an already-broadcast (or within-round
    /// duplicate) frequency-pruned form, or pruned down to a singleton
    /// with no family to broadcast.
    pub exchange_deduped: usize,
}

/// The two stages of a support-recount merge whose cost grows with the
/// data: one exchange round (distinct rows, broadcast candidates, threads)
/// and the recount (database, worklist, floor, threads). The shipped merge
/// runs [`exchange_round`] and [`recount`]; the tests swap in the
/// per-candidate oracles they replaced.
struct RecountStages {
    exchange: ExchangeStage,
    recount: RecountStage,
}

type ExchangeStage = fn(&TransactionDb, &[Vec<TokenId>], usize) -> Vec<Vec<TokenId>>;
type RecountStage = fn(&TransactionDb, &[Vec<TokenId>], usize, usize) -> Vec<Recounted>;

const SHIPPED_STAGES: RecountStages = RecountStages {
    exchange: exchange_round,
    recount,
};

/// How per-shard (or per-backend) group spaces fold into one.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MergeStrategy {
    /// Concatenate every part's groups unchanged. Right for partition-style
    /// clustering (BIRCH per shard) where parts describe disjoint members.
    Union,
    /// Merge groups sharing a token description by unioning their member
    /// sets; description-less cluster groups pass through unchanged.
    #[default]
    DedupByDescription,
    /// Re-evaluate each distinct description against the global
    /// [`TransactionDb`]: recompute members, take the closure, dedup by the
    /// closed description, and keep only groups with at least
    /// `min_support` members. Before the recount, the candidate worklist
    /// is widened twice — by the bounded pairwise intersection refinement
    /// and by the cross-shard closure exchange
    /// ([`MergeContext::exchange_rounds`], on by default) — so the merged
    /// space is not just sound (every group an exact global closed group,
    /// the SON argument in the module docs) but *complete*: with at least
    /// one exchange round it reproduces the unsharded closed-group space
    /// at any shard count. Cost model, after one `O(n log n)` row sort per
    /// merge for the *distinct transactions*: one exchange round walks
    /// every distinct row once through the trie of all subsets of the
    /// *distinct frequency-pruned* candidates (the nodes a row visits are
    /// the subsets it contains), then spends `O(|y| · 2^|y|)` per
    /// candidate `y` on the Möbius inversion — or, where `2^|y|` exceeds
    /// `Σ_{t∈y} rows(t)`, scans `y`'s tidlists over the distinct rows at
    /// that many mask updates instead. The recount walks every transaction
    /// once through the prefix trie of the worklist: its cost is the
    /// summed support of the trie's nodes, and what it keeps is the
    /// candidates' members. In return for the exchange, the quadratic
    /// refinement cap stops being a correctness knob. See the module docs
    /// for the prune/dedup argument and the two passes.
    SupportRecount {
        /// Global support floor after recounting.
        min_support: usize,
    },
}

impl MergeStrategy {
    /// Fold per-part group spaces (members already in *global* user ids)
    /// into one under a [`MergeContext`], whose `data`/`vocab` back the
    /// global recount where needed: reuses `ctx.db` when provided instead of
    /// rebuilding the global database, runs `ctx.exchange_rounds` closure
    /// exchange rounds before the recount, and fans both stages out over
    /// `ctx.threads` workers. The merged output is byte-identical for
    /// every thread count (chunked, deterministically re-concatenated).
    /// Also returns the exchange's [`MergeTelemetry`].
    pub fn merge_in_traced(
        &self,
        parts: Vec<GroupSet>,
        ctx: &MergeContext<'_>,
    ) -> (GroupSet, MergeTelemetry) {
        self.merge_staged(parts, ctx, &SHIPPED_STAGES)
    }

    /// [`MergeStrategy::merge_in_traced`] with the support recount's two
    /// data-sized stages supplied.
    fn merge_staged(
        &self,
        parts: Vec<GroupSet>,
        ctx: &MergeContext<'_>,
        stages: &RecountStages,
    ) -> (GroupSet, MergeTelemetry) {
        let mut telemetry = MergeTelemetry::default();
        let groups = match self {
            Self::Union => {
                let mut out = GroupSet::new();
                for part in parts {
                    for group in part.into_vec() {
                        out.push(group);
                    }
                }
                out
            }
            Self::DedupByDescription => {
                let mut described: BTreeMap<Vec<TokenId>, MemberSet> = BTreeMap::new();
                let mut clusters: Vec<Group> = Vec::new();
                for part in parts {
                    for group in part.into_vec() {
                        if group.description.is_empty() {
                            clusters.push(group);
                        } else {
                            described
                                .entry(group.description)
                                .and_modify(|m| *m = m.union(&group.members))
                                .or_insert(group.members);
                        }
                    }
                }
                let mut out = GroupSet::new();
                for (description, members) in described {
                    out.push(Group::new(description, members));
                }
                for cluster in clusters {
                    out.push(cluster);
                }
                out
            }
            Self::SupportRecount { min_support } => {
                let built;
                let db = match ctx.db {
                    Some(db) => db,
                    None => {
                        built = TransactionDb::build(ctx.data, ctx.vocab);
                        &built
                    }
                };
                let mut candidates: Vec<Vec<TokenId>> = Vec::new();
                let mut seen_candidates = std::collections::BTreeSet::new();
                let mut clusters: Vec<Group> = Vec::new();
                let mut contributing_parts = 0usize;
                for part in parts {
                    let mut contributed = false;
                    for group in part.into_vec() {
                        if group.description.is_empty() {
                            // Cluster groups have no description to recount;
                            // apply the global floor and pass them through.
                            if group.size() >= *min_support {
                                clusters.push(group);
                            }
                        } else {
                            contributed = true;
                            // Identical descriptions from different shards
                            // collapse here, untracked: `exchange_deduped`
                            // counts the broadcast dedup only.
                            if seen_candidates.insert(group.description.clone()) {
                                candidates.push(group.description);
                            }
                        }
                    }
                    contributing_parts += usize::from(contributed);
                }
                // Descriptions can only hide behind differing closures when
                // the parts are data *projections* (shards) or when several
                // parts disagree; a lone part mined on the full data is
                // already globally closed, so the widening passes are
                // skipped for it. A lone *shard* part is not (its closures
                // grew shard-locally) — `ctx.partial_parts` keeps the
                // exchange on for that case, e.g. when every other shard's
                // family came up empty.
                let derive = contributing_parts > 1 || ctx.partial_parts;
                // The pairwise refinement still needs two disagreeing
                // families to intersect; the exchange below covers the
                // single-contributor shard case on its own.
                let mut candidates = if contributing_parts > 1 {
                    close_under_intersection(candidates, CANDIDATE_REFINEMENT_CAP)
                } else {
                    candidates
                };
                if ctx.exchange_rounds > 0 && derive && !candidates.is_empty() {
                    let before = candidates.len();
                    let rows = distinct_rows(db);
                    let mut pool: std::collections::BTreeSet<Vec<TokenId>> =
                        candidates.iter().cloned().collect();
                    // Pruned forms broadcast so far: a form's family is
                    // computed once across all rounds.
                    let mut broadcast_seen: std::collections::BTreeSet<Vec<TokenId>> =
                        std::collections::BTreeSet::new();
                    let mut frontier = candidates.clone();
                    for _ in 0..ctx.exchange_rounds {
                        telemetry.exchange_rounds_run += 1;
                        let mut broadcast = Vec::new();
                        for y in &frontier {
                            let pruned: Vec<TokenId> = y
                                .iter()
                                .copied()
                                .filter(|&t| db.support(t) >= *min_support)
                                .collect();
                            if pruned.len() < y.len()
                                && !pruned.is_empty()
                                && pool.insert(pruned.clone())
                            {
                                // The pruned form is a legitimate
                                // candidate in its own right (the
                                // projection of `y` onto the frequent
                                // token space); recounting it is what
                                // keeps the exactness proof intact when
                                // every carrier of a hidden set carries
                                // the whole pruned form.
                                candidates.push(pruned.clone());
                            }
                            if pruned.len() >= 2 && broadcast_seen.insert(pruned.clone()) {
                                broadcast.push(pruned);
                            }
                        }
                        broadcast.sort_unstable();
                        telemetry.exchange_deduped += frontier.len() - broadcast.len();
                        let found = (stages.exchange)(&rows, &broadcast, ctx.threads);
                        let fresh: Vec<Vec<TokenId>> = found
                            .into_iter()
                            .filter(|d| pool.insert(d.clone()))
                            .collect();
                        if fresh.is_empty() {
                            break;
                        }
                        candidates.extend(fresh.iter().cloned());
                        frontier = fresh;
                    }
                    telemetry.exchange_candidates = candidates.len() - before;
                }
                // Results come back in candidate order, so the merged group
                // order is byte-identical at any worker count.
                let recounted = (stages.recount)(db, &candidates, *min_support, ctx.threads);
                let mut out = GroupSet::new();
                let mut seen_closed = std::collections::BTreeSet::new();
                let population = db.n_transactions();
                for (closed, members) in recounted.into_iter().flatten() {
                    // Normalize the root convention: the group carried by
                    // the *entire* population (whose description is
                    // necessarily the root closure) is emitted only when
                    // the user's backend asked for it. Shard-local mining
                    // emits shard roots as witnesses (see
                    // `ShardScaled::for_shard_of`), and derived candidates
                    // can land inside the global root closure — both
                    // recount to this one group, dropped here unless the
                    // context keeps it.
                    if members.len() == population && !ctx.keep_population_group {
                        continue;
                    }
                    if seen_closed.insert(closed.clone()) {
                        out.push(Group::new(closed, members));
                    }
                }
                for cluster in clusters {
                    out.push(cluster);
                }
                out
            }
        };
        (groups, telemetry)
    }
}

/// Run any [`GroupDiscovery`] backend per shard on scoped threads and
/// merge the per-shard group spaces.
///
/// The backend must be [`ShardScaled`] (so the driver can scale its
/// absolute thresholds per shard) and `Sync` (workers share it by
/// reference). Member ids in the merged outcome are global;
/// [`ShardedDiscovery::mine_parts`] reports what each shard covered.
#[derive(Debug, Clone)]
pub struct ShardedDiscovery<B> {
    /// The prototype backend; each shard runs `backend.for_shard(f)`.
    pub backend: B,
    /// Number of shards (clamped to at least 1 at run time).
    pub shards: usize,
    /// How members are assigned to shards.
    pub strategy: ShardStrategy,
    /// How per-shard group spaces fold into one.
    pub merge: MergeStrategy,
    /// Worker threads for the merge's exchange and recount passes (`0` =
    /// available parallelism). The merged output is byte-identical at any
    /// count.
    pub merge_threads: usize,
    /// Cross-shard closure exchange rounds for the support-recount merge
    /// (`0` disables; default `1` — one round pins exactness at any shard
    /// count, see [`MergeContext::exchange_rounds`]).
    pub exchange_rounds: usize,
}

impl<B> ShardedDiscovery<B> {
    /// Shard `backend` over `shards` hash shards with the default
    /// dedup-by-description merge.
    pub fn new(backend: B, shards: usize) -> Self {
        Self {
            backend,
            shards,
            strategy: ShardStrategy::Hash,
            merge: MergeStrategy::default(),
            merge_threads: 0,
            exchange_rounds: 1,
        }
    }

    /// Builder-style: change the shard-assignment strategy.
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: change the merge layer.
    pub fn with_merge(mut self, merge: MergeStrategy) -> Self {
        self.merge = merge;
        self
    }

    /// Builder-style: set the merge recount worker count (`0` = auto).
    pub fn with_merge_threads(mut self, merge_threads: usize) -> Self {
        self.merge_threads = merge_threads;
        self
    }

    /// Builder-style: set the closure exchange round count (`0` = off).
    pub fn with_exchange_rounds(mut self, exchange_rounds: usize) -> Self {
        self.exchange_rounds = exchange_rounds;
        self
    }

    /// Builder-style: merge by global support recount at `min_support`.
    pub fn support_recount(self, min_support: usize) -> Self {
        self.with_merge(MergeStrategy::SupportRecount { min_support })
    }
}

/// Remap a shard's local member ids back to global ids.
fn remap_to_global(groups: GroupSet, members: &[u32]) -> GroupSet {
    let remapped = groups
        .into_vec()
        .into_iter()
        .map(|g| {
            // Local ids are ascending and the shard member list is sorted,
            // so the mapping preserves order.
            let global = g.members.iter().map(|l| members[l as usize]).collect();
            Group {
                description: g.description,
                members: global,
            }
        })
        .collect();
    GroupSet::from_groups(remapped)
}

impl<B: GroupDiscovery + ShardScaled + Sync> ShardedDiscovery<B> {
    /// Run the per-shard mining stage only: partition the users, run the
    /// scaled backend per shard on worker threads, and return the
    /// per-shard group spaces (members remapped to global ids, in shard
    /// order) plus per-shard telemetry. [`ShardedDiscovery::discover`] is
    /// `mine_parts` followed by the merge; exposing the split lets perf
    /// harnesses time the two stages apart and re-merge identical parts
    /// under different merge configurations without re-mining.
    pub fn mine_parts(
        &self,
        data: &UserData,
        vocab: &Vocabulary,
    ) -> (Vec<GroupSet>, Vec<ShardStats>) {
        let n = data.n_users();
        let plan = ShardPlan::build(n, self.shards, self.strategy);
        let n_shards = plan.n_shards();
        // Witness lifts (LCM's per-shard emit_root) apply only when the
        // parts feed a global recount; union/dedup merges keep the
        // backend's own output policy.
        let recount_witnesses = matches!(self.merge, MergeStrategy::SupportRecount { .. });
        // Bounded worker pool: shard count is a *merge granularity* knob
        // reachable from plain config, so it must not translate 1:1 into
        // OS threads. Workers claim shards off an atomic cursor.
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n_shards)
            .max(1);
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut per_shard: Vec<(usize, &'static str, GroupSet, usize)> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let plan = &plan;
                        let backend = &self.backend;
                        let cursor = &cursor;
                        scope.spawn(move |_| {
                            let mut mined = Vec::new();
                            loop {
                                let s = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if s >= n_shards {
                                    break;
                                }
                                let members = plan.members(s);
                                let shard_data = data.project_users(members);
                                let worker = backend.for_shard_of(
                                    plan.fraction(s).max(f64::EPSILON),
                                    data.schema().len(),
                                    recount_witnesses,
                                );
                                let groups = worker.discover(&shard_data, vocab).groups;
                                let groups = remap_to_global(groups, members);
                                mined.push((s, worker.name(), groups, members.len()));
                            }
                            mined
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("shard scope");
        // Claim order is racy; shard order (and hence merge input order)
        // must not be.
        per_shard.sort_by_key(|&(s, ..)| s);

        let mut shard_stats = Vec::with_capacity(per_shard.len());
        let mut parts = Vec::with_capacity(per_shard.len());
        for (shard, algorithm, groups, members) in per_shard {
            shard_stats.push(ShardStats {
                shard,
                algorithm,
                members,
                groups_discovered: groups.len(),
            });
            parts.push(groups);
        }
        (parts, shard_stats)
    }
}

impl<B: GroupDiscovery + ShardScaled + Sync> GroupDiscovery for ShardedDiscovery<B> {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let (parts, _) = self.mine_parts(data, vocab);
        // Build the global database once, outside the strategy, so the
        // merge layer never rebuilds it (and callers re-merging through
        // `merge_in_traced` can share one too).
        let recounting = matches!(self.merge, MergeStrategy::SupportRecount { .. });
        let db = recounting.then(|| TransactionDb::build(data, vocab));
        // `partial_parts` tells the merge the parts are shard-local, so
        // the exchange runs even when a single shard contributed.
        let mut ctx = MergeContext::new(data, vocab)
            .with_threads(self.merge_threads)
            .with_exchange_rounds(self.exchange_rounds)
            .with_partial_parts(self.shards > 1)
            .with_keep_population_group(self.backend.emits_population_group());
        if let Some(db) = db.as_ref() {
            ctx = ctx.with_db(db);
        }
        let (groups, _) = self.merge.merge_in_traced(parts, &ctx);
        // Re-apply the user's output caps that per-shard adaptation lifted.
        DiscoveryOutcome {
            groups: self.backend.finish_merge(groups),
        }
    }
}

/// Union several backends' group spaces behind one merge layer.
///
/// Members run sequentially (each may itself be a parallel
/// [`ShardedDiscovery`]); their outcomes fold through the same
/// [`MergeStrategy`] the sharded driver uses.
pub struct EnsembleDiscovery {
    backends: Vec<Box<dyn GroupDiscovery>>,
    /// How member group spaces fold into one.
    pub merge: MergeStrategy,
    /// Worker threads for the merge's exchange and recount passes (`0` =
    /// auto).
    pub merge_threads: usize,
    /// Closure exchange rounds for the support-recount merge (`0` = off;
    /// members run on the full data, so each part is treated as one
    /// projection of the global database).
    pub exchange_rounds: usize,
    /// Whether a support-recount merge may emit the whole-population
    /// group. The members are boxed, so the ensemble cannot inspect their
    /// root configuration the way [`ShardedDiscovery`] does
    /// ([`ShardScaled::emits_population_group`]) — set this when a member
    /// was configured with `emit_root: true` and its root group should
    /// survive the recount.
    pub keep_population_group: bool,
}

impl Default for EnsembleDiscovery {
    fn default() -> Self {
        Self::new(MergeStrategy::default())
    }
}

impl EnsembleDiscovery {
    /// Empty ensemble folding through `merge`.
    pub fn new(merge: MergeStrategy) -> Self {
        Self {
            backends: Vec::new(),
            merge,
            merge_threads: 0,
            exchange_rounds: 1,
            keep_population_group: false,
        }
    }

    /// Builder-style: set the merge recount worker count (`0` = auto).
    pub fn with_merge_threads(mut self, merge_threads: usize) -> Self {
        self.merge_threads = merge_threads;
        self
    }

    /// Builder-style: set the closure exchange round count (`0` = off).
    pub fn with_exchange_rounds(mut self, exchange_rounds: usize) -> Self {
        self.exchange_rounds = exchange_rounds;
        self
    }

    /// Builder-style: let the recount keep the whole-population group
    /// (a member mines with `emit_root: true`).
    pub fn with_keep_population_group(mut self, keep: bool) -> Self {
        self.keep_population_group = keep;
        self
    }

    /// Add a boxed member backend.
    pub fn push(&mut self, backend: Box<dyn GroupDiscovery>) {
        self.backends.push(backend);
    }

    /// Number of member backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the ensemble has no members.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }
}

impl GroupDiscovery for EnsembleDiscovery {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn discover(&self, data: &UserData, vocab: &Vocabulary) -> DiscoveryOutcome {
        let parts = self
            .backends
            .iter()
            .map(|backend| backend.discover(data, vocab).groups)
            .collect();
        let db = matches!(self.merge, MergeStrategy::SupportRecount { .. })
            .then(|| TransactionDb::build(data, vocab));
        let mut ctx = MergeContext::new(data, vocab)
            .with_threads(self.merge_threads)
            .with_exchange_rounds(self.exchange_rounds)
            .with_keep_population_group(self.keep_population_group);
        if let Some(db) = db.as_ref() {
            ctx = ctx.with_db(db);
        }
        DiscoveryOutcome {
            groups: self.merge.merge_in_traced(parts, &ctx).0,
        }
    }
}

/// The stages the shipped ones are pinned against: every candidate's seed
/// scanned, every candidate recounted on its own.
#[cfg(test)]
const ORACLE_STAGES: RecountStages = RecountStages {
    exchange: exchange_round_by_scan,
    recount: recount_by_candidate,
};

/// [`exchange_round`] with every candidate scanned.
#[cfg(test)]
fn exchange_round_by_scan(
    rows: &TransactionDb,
    candidates: &[Vec<TokenId>],
    threads: usize,
) -> Vec<Vec<TokenId>> {
    let mut out = families_by_scan(rows, candidates, threads);
    out.sort_unstable();
    out.dedup();
    out
}

/// [`recount`] one candidate at a time ([`recount_one`]), in contiguous
/// candidate chunks.
#[cfg(test)]
fn recount_by_candidate(
    db: &TransactionDb,
    candidates: &[Vec<TokenId>],
    min_support: usize,
    threads: usize,
) -> Vec<Recounted> {
    fan_out(candidates, threads, |chunk| {
        chunk
            .iter()
            .map(|d| recount_one(db, d, min_support))
            .collect()
    })
}

/// Recount one candidate description against the global database: exact
/// members by tidlist intersection, then the closure. `None` when support
/// is under the floor.
#[cfg(test)]
fn recount_one(db: &TransactionDb, description: &[TokenId], min_support: usize) -> Recounted {
    let members = db.itemset_members(description);
    if members.len() < min_support {
        return None;
    }
    let closed = db.closure(&members);
    Some((closed, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::DiscoverySelection;
    use crate::lcm::LcmConfig;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

    fn fixture() -> (UserData, Vocabulary) {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vocab = Vocabulary::build(&ds.data);
        (ds.data, vocab)
    }

    fn normalize(gs: &GroupSet) -> Vec<(Vec<TokenId>, Vec<u32>)> {
        let mut v: Vec<_> = gs
            .iter()
            .map(|(_, g)| {
                (
                    g.description.clone(),
                    g.members.iter().collect::<Vec<u32>>(),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn lcm(min_support: usize) -> LcmDiscovery {
        LcmDiscovery::new(LcmConfig {
            min_support,
            max_description: 8,
            ..Default::default()
        })
    }

    /// [`ShardedDiscovery::discover`]'s merge stage, spelled out so a test
    /// reads the exchange's [`MergeTelemetry`].
    fn merge_telemetry<B: GroupDiscovery + ShardScaled + Sync>(
        driver: &ShardedDiscovery<B>,
        data: &UserData,
        vocab: &Vocabulary,
    ) -> MergeTelemetry {
        let (parts, _) = driver.mine_parts(data, vocab);
        let db = TransactionDb::build(data, vocab);
        let ctx = MergeContext::new(data, vocab)
            .with_db(&db)
            .with_exchange_rounds(driver.exchange_rounds)
            .with_partial_parts(driver.shards > 1);
        driver.merge.merge_in_traced(parts, &ctx).1
    }

    #[test]
    fn intersection_closure_recovers_hidden_sets() {
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        // [1] is hidden behind two differing closures; [1, 2] behind the
        // second-round intersection of first-round results.
        let closed = close_under_intersection(vec![d(&[1, 2, 3]), d(&[1, 2, 4]), d(&[1, 5])], 64);
        assert!(closed.contains(&d(&[1, 2])));
        assert!(closed.contains(&d(&[1])));
        // Deterministic and sorted.
        let again = close_under_intersection(vec![d(&[1, 5]), d(&[1, 2, 4]), d(&[1, 2, 3])], 64);
        assert_eq!(closed, again);
        assert!(closed.windows(2).all(|w| w[0] < w[1]));
        // Over the cap the seed passes through unrefined.
        let capped = close_under_intersection(vec![d(&[1, 2]), d(&[1, 3]), d(&[2, 3])], 2);
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn shard_scaling_preserves_son_guarantee() {
        let scaled = lcm(20).for_shard(0.25);
        assert_eq!(scaled.config.min_support, 5);
        // Never scales to zero.
        assert_eq!(lcm(1).for_shard(0.01).config.min_support, 1);
        // BIRCH scales its cluster floor, stream FIM is unchanged.
        let birch = BirchDiscovery {
            min_cluster_size: 8,
            ..Default::default()
        };
        assert_eq!(birch.for_shard(0.5).min_cluster_size, 4);
        let sf = StreamFimDiscovery::default();
        assert_eq!(sf.for_shard(0.25).config.support, sf.config.support);
    }

    #[test]
    fn shard_adaptation_lifts_lcm_caps_and_finish_merge_reapplies_them() {
        let base = LcmDiscovery::new(LcmConfig {
            min_support: 20,
            max_description: 4,
            max_groups: 1_000,
            emit_root: false,
        });
        let scaled = base.for_shard_of(0.25, 9, true);
        // Support scales down, the description cap lifts to the schema's
        // attribute count, the group cap scales up by the shard count,
        // and recount witnesses turn the shard root on.
        assert_eq!(scaled.config.min_support, 5);
        assert_eq!(scaled.config.max_description, 9);
        assert_eq!(scaled.config.max_groups, 4_000);
        assert!(
            scaled.config.emit_root,
            "recount merges need root witnesses"
        );
        // Union/dedup merges keep the user's root policy untouched.
        assert!(!base.for_shard_of(0.25, 9, false).config.emit_root);
        // A user cap already above the attribute count is kept.
        assert_eq!(base.for_shard_of(0.25, 3, true).config.max_description, 4);
        // Degenerate fractions saturate instead of overflowing.
        assert_eq!(
            LcmDiscovery::new(LcmConfig {
                max_groups: usize::MAX,
                ..base.config.clone()
            })
            .for_shard_of(0.5, 4, true)
            .config
            .max_groups,
            usize::MAX
        );
        // The user's own root request is surfaced for the merge context.
        assert!(!base.emits_population_group());
        assert!(LcmDiscovery::new(LcmConfig {
            emit_root: true,
            ..base.config.clone()
        })
        .emits_population_group());
        // finish_merge re-applies the *user's* caps to the merged space.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let g = |desc: &[u32], m: &[u32]| Group::new(d(desc), MemberSet::from_unsorted(m.to_vec()));
        let merged = GroupSet::from_groups(vec![
            g(&[1, 2], &[0, 1]),
            g(&[1, 2, 3, 4, 5], &[2, 3]), // over the user's cap of 4
            g(&[7], &[4, 5]),
        ]);
        let finished = base.finish_merge(merged);
        assert_eq!(finished.len(), 2);
        assert!(finished.iter().all(|(_, g)| g.description.len() <= 4));
        // The group cap truncates in merge order.
        let capped = LcmDiscovery::new(LcmConfig {
            max_groups: 1,
            ..base.config.clone()
        })
        .finish_merge(GroupSet::from_groups(vec![g(&[1], &[0]), g(&[2], &[1])]));
        assert_eq!(capped.len(), 1);
        assert_eq!(
            capped.get(crate::group::GroupId::new(0)).description,
            d(&[1])
        );
        // The default adaptation (non-LCM backends) is cap-neutral.
        let birch = BirchDiscovery::default();
        let passthrough = birch.finish_merge(GroupSet::from_groups(vec![g(&[], &[0, 1])]));
        assert_eq!(passthrough.len(), 1);
    }

    #[test]
    fn exchange_family_recovers_hidden_subsets() {
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        // Two members carry {0,1,2} (one shard's whole population, so its
        // local closure of anything is {0,1,2}); the other two carry {0,3}
        // and {1,2,3}. The candidate {0,1,2} projected onto the latter
        // yields {0} and {1,2} — the strict sub-projections a recount
        // needs to surface the globally closed subsets.
        let db = TransactionDb::from_transactions(
            vec![d(&[0, 1, 2]), d(&[0, 1, 2]), d(&[0, 3]), d(&[1, 2, 3])],
            4,
        );
        let mut scratch = Vec::new();
        let family = exchange_family(&db, &d(&[0, 1, 2]), 64, &mut scratch);
        assert!(family.contains(&d(&[0])));
        assert!(family.contains(&d(&[1, 2])));
        // The full candidate itself is never re-emitted, and singleton
        // candidates have no strict sub-projections at all.
        assert!(!family.contains(&d(&[0, 1, 2])));
        assert!(exchange_family(&db, &d(&[3]), 64, &mut scratch).is_empty());
        // The mask hot path must agree with the pair-sort reference.
        let mut reference = exchange_family_reference(&db, &d(&[0, 1, 2]), 64);
        reference.sort_unstable();
        let mut sorted = family;
        sorted.sort_unstable();
        assert_eq!(sorted, reference);
        // The scratch is handed back zeroed, ready for the next candidate.
        assert!(scratch.iter().all(|&m| m == 0));
    }

    #[test]
    fn mask_path_and_wide_fallback_agree_at_the_width_boundary() {
        // The cost rule's boundary first. y = {0, 1, 2} has 2^3 = 8
        // subsets; over `at` its tokens' row supports sum to exactly 8
        // (3 + 3 + 2), so its seed is read off subset counts, and over
        // `below` (row {0} gone: 2 + 3 + 2) it is scanned. Either way the
        // round yields the reference family {0}, {1}, {0,1}, {1,2}.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let at = TransactionDb::from_transactions(
            vec![d(&[0, 1, 2]), d(&[0, 1]), d(&[1, 2]), d(&[0]), d(&[3])],
            4,
        );
        let below = TransactionDb::from_transactions(
            vec![d(&[0, 1, 2]), d(&[0, 1]), d(&[1, 2]), d(&[3])],
            4,
        );
        let three = d(&[0, 1, 2]);
        assert!(counts_pay_off(&at, &three), "2^|y| = volume reads counts");
        assert!(!counts_pay_off(&below, &three), "2^|y| > volume scans");
        for rows in [&at, &below] {
            let mut reference = exchange_family_reference(rows, &three, EXCHANGE_FAMILY_CAP);
            reference.sort_unstable();
            assert_eq!(
                exchange_round(rows, std::slice::from_ref(&three), 1),
                reference
            );
        }
        assert_eq!(
            exchange_round(&at, std::slice::from_ref(&three), 1),
            vec![d(&[0]), d(&[0, 1]), d(&[1]), d(&[1, 2])]
        );

        // Then the scan's own width boundary, which only scanned
        // candidates reach. 66 tokens: one member carries all of them,
        // four lack exactly one (so which of them project onto the full
        // candidate changes with the width), and three short transactions
        // make the intersection products non-trivial. |y| = 63 and 64
        // exercise the partial- and full-mask arms, |y| = 65 the fallback
        // the masks cannot represent.
        const TOKENS: u32 = 66;
        let lacking = |skip: u32| d(&(0..TOKENS).filter(|&t| t != skip).collect::<Vec<_>>());
        let mut transactions = vec![lacking(TOKENS)]; // skips nothing
        transactions.extend([0, 62, 63, 64].map(lacking));
        transactions.extend([d(&[0, 1, 62, 63, 64]), d(&[1, 2, 63]), d(&[64, 65])]);
        let db = TransactionDb::from_transactions(transactions, TOKENS as usize);
        let y = |width: u32| (0..width).map(TokenId::new).collect::<Vec<_>>();
        let mut scratch = Vec::new();
        for width in [63u32, 64, 65] {
            let y = y(width);
            assert!(!counts_pay_off(&db, &y), "|y|={width} is scanned");
            let mut family = exchange_family(&db, &y, EXCHANGE_FAMILY_CAP, &mut scratch);
            let mut reference = exchange_family_reference(&db, &y, EXCHANGE_FAMILY_CAP);
            assert!(
                reference.len() >= 6 && reference.len() < EXCHANGE_FAMILY_CAP,
                "|y|={width}: the fixture must be non-trivial and stay under the cap"
            );
            // Neither path re-emits the full candidate, even at |y| = 64
            // where the full mask is every bit of the word.
            assert!(!family.contains(&y));
            family.sort_unstable();
            reference.sort_unstable();
            assert_eq!(family, reference, "|y|={width}");
            assert!(scratch.iter().all(|&m| m == 0));
        }
        // The mask path grows its scratch to the transaction count; the
        // fallback never touches it.
        let mut fresh = Vec::new();
        exchange_family(&db, &y(65), EXCHANGE_FAMILY_CAP, &mut fresh);
        assert!(fresh.is_empty(), "|y| = 65 must take the fallback");
        exchange_family(&db, &y(64), EXCHANGE_FAMILY_CAP, &mut fresh);
        assert_eq!(fresh.len(), db.n_transactions());
    }

    #[test]
    fn frequency_pruning_recounts_the_pruned_form_itself() {
        // One shard-grown candidate {0, 1} where token 1 is globally
        // infrequent: the pruned form {0} is a singleton (no family to
        // broadcast), so exactness hinges on the pruned form itself
        // joining the recount worklist.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let db = TransactionDb::from_transactions(
            vec![d(&[0, 1]), d(&[0]), d(&[0]), d(&[0]), d(&[2])],
            3,
        );
        let part = GroupSet::from_groups(vec![Group::new(
            d(&[0, 1]),
            MemberSet::from_unsorted(vec![0]),
        )]);
        let dummy = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        let vocab = Vocabulary::build(&dummy);
        let merge = MergeStrategy::SupportRecount { min_support: 3 };
        let ctx = MergeContext::new(&dummy, &vocab)
            .with_db(&db)
            .with_partial_parts(true);
        let (out, telemetry) = merge.merge_in_traced(vec![part], &ctx);
        assert_eq!(normalize(&out), vec![(d(&[0]), vec![0, 1, 2, 3])]);
        // {0, 1} collapsed to a singleton pruned form: nothing was worth
        // broadcasting, which the dedup telemetry reports.
        assert_eq!(telemetry.exchange_deduped, 1);
        // The unsharded mine agrees on the space.
        let unsharded = crate::lcm::mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 3,
                ..Default::default()
            },
        );
        assert_eq!(normalize(&out), normalize(&unsharded));
    }

    #[test]
    fn sharded_lcm_recount_matches_single_shard() {
        let (data, vocab) = fixture();
        let single = lcm(10).discover(&data, &vocab);
        for shards in [2usize, 4] {
            let sharded = ShardedDiscovery::new(lcm(10), shards)
                .support_recount(10)
                .discover(&data, &vocab);
            assert_eq!(
                normalize(&single.groups),
                normalize(&sharded.groups),
                "{shards}-shard recount diverged from the global mine"
            );
            let driver = ShardedDiscovery::new(lcm(10), shards).support_recount(10);
            let (parts, stats) = driver.mine_parts(&data, &vocab);
            assert_eq!(stats.len(), shards);
            assert!(stats.iter().all(|s| s.algorithm == "lcm"));
            let covered: usize = stats.iter().map(|s| s.members).sum();
            assert_eq!(covered, data.n_users());
            for (part, s) in parts.iter().zip(&stats) {
                assert_eq!(part.len(), s.groups_discovered);
            }
        }
    }

    #[test]
    fn oversharded_recount_without_exchange_is_sound_with_high_recall() {
        // 8 shards over 300 users is deliberately degenerate (scaled
        // support floors bottom out near 1, so shard-local closures of
        // 2-member tidlists explode). With the closure exchange disabled
        // the recount must stay *sound* — every merged group is an exact
        // global closed frequent group — and recall may only fray at the
        // margin. This pins the pre-exchange behavior the `exchange_rounds
        // = 0` escape hatch deliberately keeps.
        let (data, vocab) = fixture();
        let single: std::collections::BTreeSet<_> =
            normalize(&lcm(10).discover(&data, &vocab).groups)
                .into_iter()
                .collect();
        let driver = ShardedDiscovery::new(lcm(10), 8)
            .support_recount(10)
            .with_exchange_rounds(0);
        let outcome = driver.discover(&data, &vocab);
        let sharded: std::collections::BTreeSet<_> =
            normalize(&outcome.groups).into_iter().collect();
        assert!(
            sharded.is_subset(&single),
            "recount emitted a group the global mine does not contain"
        );
        let recall = sharded.len() as f64 / single.len() as f64;
        assert!(recall >= 0.95, "recall degraded too far: {recall:.3}");
        let telemetry = merge_telemetry(&driver, &data, &vocab);
        assert_eq!(telemetry.exchange_rounds_run, 0);
        assert_eq!(telemetry.exchange_candidates, 0);
    }

    #[test]
    fn oversharded_recount_with_exchange_is_exact() {
        // Same degenerate regime, default configuration: one closure
        // exchange round closes the recall tail entirely — the merged
        // space equals the unsharded mine.
        let (data, vocab) = fixture();
        let single = normalize(&lcm(10).discover(&data, &vocab).groups);
        let driver = ShardedDiscovery::new(lcm(10), 8).support_recount(10);
        assert_eq!(single, normalize(&driver.discover(&data, &vocab).groups));
        let one = merge_telemetry(&driver, &data, &vocab);
        assert_eq!(one.exchange_rounds_run, 1);
        assert!(
            one.exchange_candidates > 0,
            "the oversharded regime should exercise the exchange"
        );
        // A second round is a fixpoint no-op: same space, same worklist.
        let driver = driver.with_exchange_rounds(2);
        assert_eq!(single, normalize(&driver.discover(&data, &vocab).groups));
        let two = merge_telemetry(&driver, &data, &vocab);
        assert_eq!(two.exchange_candidates, one.exchange_candidates);
    }

    #[test]
    fn exchange_over_distinct_rows_leaves_the_oversharded_merge_unmoved() {
        // The exact-recount fixture through the explicit `mine_parts` →
        // `merge_in_traced` spelling. The expected values were read off
        // the merge that handed the exchange every user's row (300 rows,
        // 279 of them distinct): telemetry, group count and an
        // order-sensitive FNV-1a digest of the merged space.
        let (data, vocab) = fixture();
        let driver = ShardedDiscovery::new(lcm(10), 8).support_recount(10);
        let (parts, _) = driver.mine_parts(&data, &vocab);
        let db = TransactionDb::build(&data, &vocab);
        let ctx = MergeContext::new(&data, &vocab)
            .with_db(&db)
            .with_partial_parts(true);
        let (groups, telemetry) = driver.merge.merge_in_traced(parts, &ctx);
        assert_eq!(telemetry.exchange_rounds_run, 1);
        assert_eq!(telemetry.exchange_candidates, 64);
        assert_eq!(telemetry.exchange_deduped, 64);
        assert_eq!(groups.len(), 132);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u32| {
            digest = (digest ^ u64::from(word)).wrapping_mul(0x0100_0000_01b3);
        };
        for (_, g) in groups.iter() {
            eat(g.description.len() as u32);
            g.description.iter().for_each(|t| eat(t.raw()));
            eat(g.members.len() as u32);
            g.members.iter().for_each(&mut eat);
        }
        assert_eq!(digest, 0x3489_9cdb_9b35_17e7);
    }

    proptest::proptest! {
        /// Duplicate-heavy populations: a handful of distinct rows, each
        /// carried by several users. `wide` candidates (66 tokens) take
        /// the token-list fallback, the others the mask path; the small
        /// cap makes the family cap bind.
        #[test]
        fn prop_exchange_family_reads_only_the_distinct_rows(
            pool in proptest::collection::vec(
                proptest::collection::btree_set(0u32..70, 0..40), 1..7),
            picks in proptest::collection::vec(0usize..64, 1..40),
            narrow in proptest::collection::btree_set(0u32..70, 2..12),
            wide in 0u8..2,
            small_cap in 0u8..2
        ) {
            let rows: Vec<Vec<TokenId>> = picks
                .iter()
                .map(|&i| pool[i % pool.len()].iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let db = TransactionDb::from_transactions(rows, 70);
            let distinct = distinct_rows(&db);
            proptest::prop_assert!(distinct.n_transactions() <= pool.len());
            let y: Vec<TokenId> = if wide == 1 {
                (0..66).map(TokenId::new).collect()
            } else {
                narrow.iter().map(|&t| TokenId::new(t)).collect()
            };
            let cap = if small_cap == 1 { 2 } else { EXCHANGE_FAMILY_CAP };
            let mut scratch = Vec::new();
            proptest::prop_assert_eq!(
                exchange_family(&distinct, &y, cap, &mut scratch),
                exchange_family(&db, &y, cap, &mut scratch)
            );
        }

        /// The one-pass recount is the per-candidate recount, result for
        /// result: rows drawn with repetition from a small pool (empty
        /// rows included), distinct candidates in random order over a
        /// universe whose tokens 10 and 11 nobody carries (zero
        /// carriers), the empty candidate among them, floors 0, 1 and k,
        /// one to three workers.
        #[test]
        fn prop_one_pass_recount_equals_the_oracle(
            pool in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 0..6), 1..8),
            picks in proptest::collection::vec(0usize..64, 0..48),
            raw in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 0..5), 0..32),
            floor in 0u8..3,
            k in 2usize..6,
            threads in 1usize..4
        ) {
            let rows: Vec<Vec<TokenId>> = picks
                .iter()
                .map(|&i| pool[i % pool.len()].iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let db = TransactionDb::from_transactions(rows, 12);
            let mut seen = std::collections::BTreeSet::new();
            let candidates: Vec<Vec<TokenId>> = raw
                .iter()
                .filter(|s| seen.insert(*s))
                .map(|s| s.iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let min_support = [0, 1, k][floor as usize];
            proptest::prop_assert_eq!(
                recount(&db, &candidates, min_support, threads),
                recount_by_candidate(&db, &candidates, min_support, 1)
            );
        }

        /// Seeds read off subset counts are the seeds a scan collects, for
        /// candidates on both sides of the cost rule (narrow ones count,
        /// wide ones over few rows would scan); the round agrees with the
        /// all-scan round too. Tokens 12 and 13 nobody carries.
        #[test]
        fn prop_seeds_by_counts_equal_seeds_by_scan(
            pool in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 0..8), 1..10),
            picks in proptest::collection::vec(0usize..64, 0..60),
            raw in proptest::collection::vec(
                proptest::collection::btree_set(0u32..14, 0..10), 1..12),
            threads in 1usize..4
        ) {
            let rows: Vec<Vec<TokenId>> = picks
                .iter()
                .map(|&i| pool[i % pool.len()].iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let rows = distinct_rows(&TransactionDb::from_transactions(rows, 14));
            let ys: Vec<Vec<TokenId>> = raw
                .iter()
                .map(|s| s.iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let subsets = SubsetCounts::new(&rows, &ys.iter().collect::<Vec<_>>(), threads);
            let (mut counts, mut scan) = (Vec::new(), Vec::new());
            for y in &ys {
                proptest::prop_assert_eq!(
                    subsets.seed(y, &mut counts),
                    seed_by_scan(&rows, y, &mut scan),
                    "y = {:?}, counted: {}", y, counts_pay_off(&rows, y)
                );
            }
            proptest::prop_assert_eq!(
                exchange_round(&rows, &ys, threads),
                exchange_round_by_scan(&rows, &ys, 1)
            );
        }
    }

    #[test]
    fn merge_in_equals_the_oracle_merge_at_any_thread_count() {
        // The shipped merge against one built from the per-candidate
        // oracles (every seed scanned, every candidate recounted on its
        // own, one worker), over fixtures where the exchange bites:
        // same groups in the same order, same telemetry.
        let (data, vocab) = fixture();
        let db = TransactionDb::build(&data, &vocab);
        for (shards, strategy) in [(8, ShardStrategy::Hash), (16, ShardStrategy::Contiguous)] {
            let driver = ShardedDiscovery::new(lcm(10), shards)
                .with_strategy(strategy)
                .support_recount(10);
            let (parts, _) = driver.mine_parts(&data, &vocab);
            let ctx = MergeContext::new(&data, &vocab)
                .with_db(&db)
                .with_partial_parts(true);
            let (oracle, expected) =
                driver
                    .merge
                    .merge_staged(parts.clone(), &ctx.with_threads(1), &ORACLE_STAGES);
            assert!(expected.exchange_candidates > 0, "{shards} shards");
            for threads in [1, 2, 4] {
                let (merged, telemetry) = driver
                    .merge
                    .merge_in_traced(parts.clone(), &ctx.with_threads(threads));
                assert_eq!(merged, oracle, "{shards} shards, {threads} threads");
                assert_eq!(
                    (
                        telemetry.exchange_rounds_run,
                        telemetry.exchange_candidates,
                        telemetry.exchange_deduped
                    ),
                    (
                        expected.exchange_rounds_run,
                        expected.exchange_candidates,
                        expected.exchange_deduped
                    )
                );
            }
        }
    }

    #[test]
    fn degenerate_shards_and_root_witnesses_stay_exact() {
        // Code-review regression: shard 0 holds ten identical users — its
        // whole shard-local closed family is its own root — and shard 1
        // two five-user groups under a common token. Before the fixes,
        // (a) shard 0 emitted no witness (per-shard `emit_root` stayed
        // false, so the family was empty) and (b) a single contributing
        // part gated the refinement *and* the exchange off, so the merged
        // space lost {female, A} and {male}: recall 0.5.
        use vexus_data::Schema;
        let mut schema = Schema::new();
        let gender = schema.add_categorical("gender");
        let team = schema.add_categorical("team");
        let mut b = vexus_data::UserDataBuilder::new(schema);
        for i in 0..20 {
            let u = b.user(&format!("u{i}"));
            let (g, t) = if i < 10 {
                ("female", "A")
            } else if i < 15 {
                ("male", "B")
            } else {
                ("male", "C")
            };
            b.set_demo(u, gender, g).unwrap();
            b.set_demo(u, team, t).unwrap();
        }
        let data = b.build();
        let vocab = Vocabulary::build(&data);
        let single = normalize(&lcm(5).discover(&data, &vocab).groups);
        assert_eq!(
            single.len(),
            4,
            "fixture mines {{female,A}}, {{male}}, {{male,B}}, {{male,C}}"
        );
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::Hash] {
            let sharded = ShardedDiscovery::new(lcm(5), 2)
                .with_strategy(strategy)
                .support_recount(5)
                .discover(&data, &vocab);
            assert_eq!(
                single,
                normalize(&sharded.groups),
                "{strategy:?} lost a degenerate-shard group"
            );
        }
    }

    #[test]
    fn partial_parts_forces_the_exchange_for_a_lone_shard_family() {
        // A single shard-local part is *not* globally closed: here the
        // shard-grown closure {0,1} dies at the global floor, and only
        // the exchange (forced by `partial_parts`) recovers the globally
        // frequent {0} hiding under it.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let db = TransactionDb::from_transactions(
            vec![d(&[0, 1]), d(&[0, 1]), d(&[0, 2]), d(&[0, 2]), d(&[3])],
            4,
        );
        let part = GroupSet::from_groups(vec![Group::new(
            d(&[0, 1]),
            MemberSet::from_unsorted(vec![0, 1]),
        )]);
        let dummy = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        let vocab = Vocabulary::build(&dummy);
        let merge = MergeStrategy::SupportRecount { min_support: 3 };
        let ctx = MergeContext::new(&dummy, &vocab).with_db(&db);
        // Taken as a full-data part, {0,1} (support 2) just vanishes.
        let (plain, _) = merge.merge_in_traced(vec![part.clone()], &ctx);
        assert!(plain.is_empty());
        // Declared a shard projection, the exchange surfaces {0}.
        let (recovered, telemetry) =
            merge.merge_in_traced(vec![part], &ctx.with_partial_parts(true));
        assert_eq!(normalize(&recovered), vec![(d(&[0]), vec![0, 1, 2, 3])]);
        assert_eq!(telemetry.exchange_rounds_run, 1);
        assert!(telemetry.exchange_candidates > 0);
    }

    #[test]
    fn dedup_and_union_merges_keep_the_users_root_policy() {
        // Code-review regression: the root-witness lift must only apply
        // under a recount merge. With the default dedup merge, a sharded
        // LCM run over degenerate shards (every shard shares tokens) must
        // not emit shard-root groups the user's `emit_root: false` config
        // forbids — at any shard count, including 1.
        let (data, vocab) = fixture();
        for shards in [1usize, 3] {
            let plain = lcm(10).discover(&data, &vocab);
            let sharded = ShardedDiscovery::new(lcm(10), shards)
                .with_merge(MergeStrategy::DedupByDescription)
                .discover(&data, &vocab);
            // Every merged description must exist in some shard's plain
            // mining output; in particular, no description-bearing group
            // covers an entire shard unless plain mining produced it.
            if shards == 1 {
                assert_eq!(normalize(&plain.groups), normalize(&sharded.groups));
            }
            assert!(
                sharded
                    .groups
                    .iter()
                    .all(|(_, g)| !g.description.is_empty()),
                "dedup merge of LCM shards must not grow cluster-like groups"
            );
        }
    }

    #[test]
    fn recount_keeps_the_root_group_when_the_user_asked_for_it() {
        // Code-review regression: a backend configured with
        // `emit_root: true` must keep its whole-population group through
        // the sharded recount, exactly like the unsharded run.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        // All four users share token 0 — {0} is the non-empty root.
        let db = TransactionDb::from_transactions(
            vec![d(&[0, 1]), d(&[0, 1]), d(&[0, 2]), d(&[0, 2])],
            3,
        );
        let rooted = LcmDiscovery::new(LcmConfig {
            min_support: 2,
            max_description: 4,
            emit_root: true,
            ..Default::default()
        });
        let single = crate::lcm::mine_closed_groups(&db, &rooted.config);
        assert!(
            single.iter().any(|(_, g)| g.description == d(&[0])),
            "unsharded emit_root=true mines the root"
        );
        // Re-merge the unsharded family as two agreeing shard parts.
        let parts = vec![single.clone(), single.clone()];
        let dummy = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        let vocab = Vocabulary::build(&dummy);
        let merge = MergeStrategy::SupportRecount { min_support: 2 };
        let ctx = MergeContext::new(&dummy, &vocab)
            .with_db(&db)
            .with_partial_parts(true);
        let (dropped, _) = merge.merge_in_traced(parts.clone(), &ctx);
        assert!(
            dropped.iter().all(|(_, g)| g.description != d(&[0])),
            "default context normalizes the population group out"
        );
        let (kept, _) = merge.merge_in_traced(parts, &ctx.with_keep_population_group(true));
        assert_eq!(normalize(&kept), normalize(&single));
    }

    #[test]
    fn exchange_telemetry_stays_zero_when_no_part_contributes() {
        // Code-review regression: with every shard family empty there is
        // nothing to broadcast — the telemetry must report zero rounds,
        // not a vacuous one.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let db = TransactionDb::from_transactions(vec![d(&[0]), d(&[1])], 2);
        let dummy = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        let vocab = Vocabulary::build(&dummy);
        let merge = MergeStrategy::SupportRecount { min_support: 2 };
        let (out, telemetry) = merge.merge_in_traced(
            vec![GroupSet::new(), GroupSet::new()],
            &MergeContext::new(&dummy, &vocab)
                .with_db(&db)
                .with_partial_parts(true),
        );
        assert!(out.is_empty());
        assert_eq!(telemetry.exchange_rounds_run, 0);
        assert_eq!(telemetry.exchange_candidates, 0);
    }

    #[test]
    fn recount_never_emits_the_global_root_group() {
        // Every user carries token 0, so {0} is the root closure —
        // exactly what the unsharded miner's `emit_root: false` skips.
        // Shard roots and derived candidates recounting onto it must be
        // normalized back out.
        let d = |v: &[u32]| v.iter().map(|&t| TokenId::new(t)).collect::<Vec<_>>();
        let db = TransactionDb::from_transactions(
            vec![d(&[0, 1]), d(&[0, 1]), d(&[0, 2]), d(&[0, 2])],
            3,
        );
        let parts = vec![
            GroupSet::from_groups(vec![Group::new(
                d(&[0, 1]),
                MemberSet::from_unsorted(vec![0, 1]),
            )]),
            GroupSet::from_groups(vec![Group::new(
                d(&[0, 2]),
                MemberSet::from_unsorted(vec![2, 3]),
            )]),
        ];
        let dummy = vexus_data::UserDataBuilder::new(vexus_data::Schema::new()).build();
        let vocab = Vocabulary::build(&dummy);
        let merge = MergeStrategy::SupportRecount { min_support: 2 };
        let (merged, _) = merge.merge_in_traced(
            parts,
            &MergeContext::new(&dummy, &vocab)
                .with_db(&db)
                .with_partial_parts(true),
        );
        let norm = normalize(&merged);
        // {0} = intersection of the two candidates, but it is the root:
        // dropped, while both real groups survive.
        assert_eq!(
            norm,
            vec![(d(&[0, 1]), vec![0, 1]), (d(&[0, 2]), vec![2, 3]),]
        );
    }

    #[test]
    fn contiguous_strategy_also_recounts_exactly() {
        let (data, vocab) = fixture();
        let single = lcm(12).discover(&data, &vocab);
        let sharded = ShardedDiscovery::new(lcm(12), 4)
            .with_strategy(ShardStrategy::Contiguous)
            .support_recount(12)
            .discover(&data, &vocab);
        assert_eq!(normalize(&single.groups), normalize(&sharded.groups));
    }

    #[test]
    fn union_merge_keeps_per_shard_clusters() {
        let (data, vocab) = fixture();
        let sharded = ShardedDiscovery::new(BirchDiscovery::default(), 3)
            .with_merge(MergeStrategy::Union)
            .discover(&data, &vocab);
        // Per-shard clustering covers every shard's members (clusters are
        // description-less, so union keeps them all).
        assert!(!sharded.groups.is_empty());
        assert!(sharded.groups.iter().all(|(_, g)| g.description.is_empty()));
        // Global member ids, not local ones: ids must reach past shard 0.
        let max_member = sharded
            .groups
            .iter()
            .flat_map(|(_, g)| g.members.iter())
            .max()
            .unwrap();
        assert!(max_member as usize >= data.n_users() / 2);
    }

    #[test]
    fn dedup_by_description_unions_members() {
        let (data, vocab) = fixture();
        let gs = |desc: &[u32], members: &[u32]| {
            Group::new(
                desc.iter().map(|&t| TokenId::new(t)).collect(),
                MemberSet::from_unsorted(members.to_vec()),
            )
        };
        let a = GroupSet::from_groups(vec![gs(&[1], &[0, 1]), gs(&[], &[5, 6])]);
        let b = GroupSet::from_groups(vec![gs(&[1], &[2, 3]), gs(&[2], &[9])]);
        let (merged, _) = MergeStrategy::DedupByDescription
            .merge_in_traced(vec![a, b], &MergeContext::new(&data, &vocab));
        let norm = normalize(&merged);
        assert!(norm.contains(&(vec![TokenId::new(1)], vec![0, 1, 2, 3])));
        assert!(norm.contains(&(vec![TokenId::new(2)], vec![9])));
        // The cluster group passed through untouched.
        assert!(norm.contains(&(vec![], vec![5, 6])));
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn sharded_discovery_is_deterministic() {
        let (data, vocab) = fixture();
        let driver = ShardedDiscovery::new(lcm(10), 4).support_recount(10);
        let a = driver.discover(&data, &vocab);
        let b = driver.discover(&data, &vocab);
        assert_eq!(normalize(&a.groups), normalize(&b.groups));
    }

    #[test]
    fn ensemble_recount_exchanges_and_stays_on_the_agreed_space() {
        // Two agreeing full-data members under a recount merge: the
        // exchange runs (two contributing parts), reports its telemetry,
        // and — by the fixpoint property — adds nothing to the space.
        let (data, vocab) = fixture();
        let single = lcm(10).discover(&data, &vocab).groups;
        let merge = MergeStrategy::SupportRecount { min_support: 10 };
        let mut ensemble = EnsembleDiscovery::new(merge.clone());
        ensemble.push(Box::new(lcm(10)));
        ensemble.push(Box::new(lcm(10)));
        let out = ensemble.discover(&data, &vocab);
        assert_eq!(normalize(&single), normalize(&out.groups));
        // The same merge, spelled out: the exchange ran one round.
        let db = TransactionDb::build(&data, &vocab);
        let ctx = MergeContext::new(&data, &vocab).with_db(&db);
        let (merged, telemetry) = merge.merge_in_traced(vec![single.clone(), single], &ctx);
        assert_eq!(telemetry.exchange_rounds_run, 1);
        assert_eq!(normalize(&merged), normalize(&out.groups));
    }

    #[test]
    fn ensemble_keep_population_group_preserves_a_members_root() {
        // Code-review regression: members are boxed, so an ensemble
        // cannot see a member's `emit_root: true` — the explicit knob
        // must carry the intent through the recount normalization.
        use vexus_data::Schema;
        let mut schema = Schema::new();
        let color = schema.add_categorical("color");
        let shape = schema.add_categorical("shape");
        let mut b = vexus_data::UserDataBuilder::new(schema);
        for i in 0..4 {
            let u = b.user(&format!("u{i}"));
            b.set_demo(u, color, "red").unwrap();
            b.set_demo(u, shape, if i < 2 { "square" } else { "round" })
                .unwrap();
        }
        let data = b.build();
        let vocab = Vocabulary::build(&data);
        let rooted = LcmDiscovery::new(LcmConfig {
            min_support: 2,
            emit_root: true,
            ..Default::default()
        });
        let single = normalize(&rooted.discover(&data, &vocab).groups);
        assert_eq!(single.len(), 3, "root {{red}} plus the two shape groups");
        let merge = MergeStrategy::SupportRecount { min_support: 2 };
        let mut dropped = EnsembleDiscovery::new(merge.clone());
        dropped.push(Box::new(rooted.clone()));
        dropped.push(Box::new(rooted.clone()));
        let dropped = dropped.discover(&data, &vocab);
        assert_eq!(
            dropped.groups.len(),
            2,
            "default recount normalizes the population group out"
        );
        let mut kept = EnsembleDiscovery::new(merge).with_keep_population_group(true);
        kept.push(Box::new(rooted.clone()));
        kept.push(Box::new(rooted));
        let kept = kept.discover(&data, &vocab);
        assert_eq!(single, normalize(&kept.groups));
    }

    #[test]
    fn ensemble_unions_described_and_clustered_groups() {
        let (data, vocab) = fixture();
        let mut ensemble = EnsembleDiscovery::new(MergeStrategy::Union);
        ensemble.push(Box::new(lcm(10)));
        ensemble.push(Box::new(BirchDiscovery::default()));
        assert_eq!(ensemble.len(), 2);
        let out = ensemble.discover(&data, &vocab);
        // Both members ran: the union holds each one's space, in order.
        let mut both = lcm(10).discover(&data, &vocab).groups.into_vec();
        both.extend(
            BirchDiscovery::default()
                .discover(&data, &vocab)
                .groups
                .into_vec(),
        );
        assert_eq!(out.groups, GroupSet::from_groups(both));
        let described = out
            .groups
            .iter()
            .filter(|(_, g)| !g.description.is_empty())
            .count();
        let clustered = out.groups.len() - described;
        assert!(described > 0, "ensemble lost LCM's described groups");
        assert!(clustered > 0, "ensemble lost BIRCH's clusters");
    }

    #[test]
    fn selection_wires_sharded_and_ensemble_backends() {
        let (data, vocab) = fixture();
        let sharded = DiscoverySelection::default()
            .sharded(4)
            .backend_with(10, 0, 1);
        assert_eq!(sharded.name(), "sharded");
        assert!(!sharded.discover(&data, &vocab).groups.is_empty());

        let members = vec![
            DiscoverySelection::default(),
            DiscoverySelection::Birch {
                branching: 10,
                threshold: 1.6,
            },
        ];
        let parts: Vec<GroupSet> = members
            .iter()
            .map(|m| m.backend_with(5, 0, 1).discover(&data, &vocab).groups)
            .collect();
        let ensemble = DiscoverySelection::Ensemble {
            members,
            merge: crate::discovery::MergeSelection::Union,
        }
        .backend_with(5, 0, 1);
        assert_eq!(ensemble.name(), "ensemble");
        let out = ensemble.discover(&data, &vocab);
        assert_eq!(
            out.groups.len(),
            parts.iter().map(GroupSet::len).sum::<usize>()
        );
    }

    #[test]
    fn selection_threads_exchange_rounds_to_the_merge() {
        let (data, vocab) = fixture();
        let selection = DiscoverySelection::default().sharded(8);
        // The selection's base backend, spelled out.
        let base = LcmDiscovery::new(LcmConfig {
            min_support: 10,
            max_description: 4,
            max_groups: 100_000,
            emit_root: false,
        });
        let driver = |rounds| {
            ShardedDiscovery::new(base.clone(), 8)
                .support_recount(10)
                .with_exchange_rounds(rounds)
        };
        // One round merges as the one-round driver does.
        let on = selection.backend_with(10, 0, 1).discover(&data, &vocab);
        assert_eq!(on.groups, driver(1).discover(&data, &vocab).groups);
        // An explicit zero disables it end to end: the space is the
        // zero-round driver's, which this oversharded fixture tells apart
        // from the one-round space.
        let off = selection.backend_with(10, 1, 0).discover(&data, &vocab);
        assert_eq!(off.groups, driver(0).discover(&data, &vocab).groups);
        assert_ne!(off.groups, on.groups);
        assert!(off.groups.len() <= on.groups.len());
        // The shard count reaches the driver too: with the exchange off the
        // space depends on the partition, and four shards mine another one.
        let four = ShardedDiscovery::new(base.clone(), 4)
            .support_recount(10)
            .with_exchange_rounds(0);
        assert_ne!(off.groups, four.discover(&data, &vocab).groups);
    }

    #[test]
    #[should_panic(expected = "composes over a base backend")]
    fn sharded_selection_rejects_nested_composites() {
        let _ = DiscoverySelection::default()
            .sharded(2)
            .sharded(2)
            .backend_with(5, 0, 1);
    }

    #[test]
    fn one_shard_degenerates_to_the_plain_backend() {
        let (data, vocab) = fixture();
        let single = lcm(10).discover(&data, &vocab);
        let one = ShardedDiscovery::new(lcm(10), 1)
            .support_recount(10)
            .discover(&data, &vocab);
        assert_eq!(normalize(&single.groups), normalize(&one.groups));
    }

    #[test]
    fn more_shards_than_users_still_works() {
        let (data, vocab) = fixture();
        let small = data.project_users(&[0, 1, 2, 3, 4]);
        let driver = ShardedDiscovery::new(lcm(1), 8).support_recount(1);
        let out = driver.discover(&small, &vocab);
        assert_eq!(driver.mine_parts(&small, &vocab).1.len(), 8);
        // No panic on empty shards; any mined group has global ids < 5.
        assert!(out
            .groups
            .iter()
            .flat_map(|(_, g)| g.members.iter())
            .all(|m| m < 5));
    }
}
