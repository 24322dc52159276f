//! The time-budgeted greedy optimizer behind every GroupViz step
//! (principle P2 under principle P3).
//!
//! "We use a best-effort greedy approach … to return a local diverse and
//! covering set of k groups with a lower-bound on similarity. … the
//! bottleneck of the framework is the greedy process. To comply with the
//! efficiency principle P3, we set a time limit for the greedy process. The
//! higher this limit, the more optimized the set of groups."
//!
//! The algorithm is **anytime**:
//!
//! 1. candidates below the similarity lower bound are dropped,
//! 2. the seed selection is the top-k by *weighted similarity*
//!    `sim · (1 + feedback_weight · affinity)` — this is where feedback
//!    learning biases the walk,
//! 3. while the budget lasts, steepest-ascent swap passes improve the P2
//!    objective `w_d · diversity + w_c · coverage + w_f · affinity`;
//!    each completed pass is a "round", and the best selection so far is
//!    always available when the clock runs out.
//!
//! With an unbounded budget the passes run to a local optimum — that run is
//! the "unlimited optimizer" baseline experiment C1 compares against.
//!
//! ## The objective is evaluated incrementally, and bit-identically
//!
//! A swap trial changes one of the k selected groups, so the objective is
//! not recomputed from the member lists, and no step of a call merges two
//! sorted lists. An `Evaluator` is set up once per [`select_k_with`] call
//! over the pool's *window* — the member ids from the smallest pool
//! member, rounded down to a multiple of 64, up to the largest — and makes
//! a trial cost O(⌈|reference ∩ window|/64⌉ + k²) word and `f64`
//! operations, plus one bit probe per member of the unselected side of
//! each distance it meets for the first time. It produces the very `f64`
//! that [`crate::quality::evaluate_with`] — the single from-scratch
//! definition of P2, which the oracle tests at the bottom of this file
//! compare against bit for bit — would produce, for three reasons:
//!
//! * **Coverage is an exact integer.** Each pool group gets one bitset row
//!   over the *ranks* of the reference's members inside the window (bit
//!   `j` set iff the `j`-th of them is a member; no other reference member
//!   can be covered). A row is filled in one pass over the group's own
//!   members: a rank bitvector of the reference over the window, with the
//!   count of reference members before each of its words, turns a member
//!   into its rank. Per position, the OR of the other k−1 selected rows
//!   and its popcount are computed once (an accepted swap at that position
//!   does not change them); a trial's covered count is that popcount plus
//!   `popcount(row & !others)`. The same integer is then divided by the
//!   same `|reference|`.
//! * **Diversity is re-summed in `quality::diversity`'s `i < j` order** from
//!   a lazy memo of pairwise Jaccard distances, never kept as a running
//!   sum: a different reduction order moves the last ulp, and an ulp is
//!   enough to flip a greedy tie (see `feedback.rs`). Only groups that have
//!   been in the selection own a memo row, and each such group also owns a
//!   bit-row of its members over the window; every pair a trial needs has
//!   at least one such side. A memo miss counts `inter` by probing the
//!   other group's members against that bit-row, branch-free.
//! * **Jaccard is one formula over exact integers.** `(inter, |a|, |b|)`
//!   becomes a similarity in [`jaccard_of_counts`] alone, which
//!   [`MemberSet::jaccard`] — and through it `quality::diversity` — calls
//!   too; and it is symmetric, so a distance memoized for `(a, b)` is the
//!   `f64` a from-scratch evaluation computes for `(b, a)`.
//!
//! The mean affinity is re-summed over the k selected candidates in
//! selection order.

use crate::feedback::FeedbackVector;
use crate::quality::Quality;
use std::time::{Duration, Instant};
use vexus_mining::bitmap::jaccard_of_counts;
use vexus_mining::{GroupId, GroupSet, MemberSet};

/// Parameters of one selection call.
#[derive(Debug, Clone)]
pub struct SelectParams {
    /// Number of groups to return (P1).
    pub k: usize,
    /// Time budget (P3); `None` = run to convergence.
    pub budget: Option<Duration>,
    /// Lower bound on raw similarity to the clicked group.
    pub min_similarity: f64,
    /// Diversity weight in the objective.
    pub diversity_weight: f64,
    /// Coverage weight in the objective.
    pub coverage_weight: f64,
    /// Feedback weight (in both seeding and the objective).
    pub feedback_weight: f64,
}

impl Default for SelectParams {
    fn default() -> Self {
        Self {
            k: 5,
            budget: Some(Duration::from_millis(100)),
            min_similarity: 0.0,
            diversity_weight: 1.0,
            coverage_weight: 1.0,
            feedback_weight: 0.5,
        }
    }
}

/// A scored candidate: group id plus its raw similarity to the clicked
/// group (from the inverted index; `1.0` for the opening step).
pub type ScoredCandidate = (GroupId, f64);

/// Result of a greedy selection.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The k (or fewer) selected groups.
    pub selection: Vec<GroupId>,
    /// Quality of the selection against the reference.
    pub quality: Quality,
    /// Completed improvement passes.
    pub rounds: usize,
    /// Swap trials evaluated (one objective evaluation each).
    pub trials: usize,
    /// Wall-clock spent. A session's opening outcome is the engine's
    /// memoized one (`Vexus::opening`), so on a memo hit this is the time
    /// the open that computed it spent.
    pub elapsed: Duration,
    /// Whether the budget cut optimization short (false = converged).
    pub budget_exhausted: bool,
}

/// A filtered candidate with its feedback-weighted seed score.
#[derive(Debug, Clone, Copy)]
struct Cand {
    id: GroupId,
    weighted_sim: f64,
    affinity: f64,
}

/// Marks a pool entry that owns no distance-memo row yet.
const NO_ROW: u32 = u32::MAX;

/// Reusable working memory for [`select_k_with`]: the ranked candidate
/// pool, the selection, and the per-call evaluator's rank lookup, coverage
/// rows, member bit-rows and distance memo. A session that owns one
/// `SelectScratch` amortizes those allocations across its clicks; every
/// buffer is fully re-initialised at the start of a call, so a call's
/// result never depends on the previous one.
///
/// **Bound.** Take a call with `pool` candidates past the similarity
/// filter whose members span `window` words (from the smallest member
/// rounded down to a multiple of 64 through the largest; 0 if the pool has
/// no member), and let `words = ⌈|reference ∩ window| / 64⌉ ≤
/// ⌈|reference| / 64⌉` and `rows ≤ min(pool, k + accepted swaps)`. If it
/// selects anything, it leaves the scratch holding at most
/// `pool·words + words + rows·pool + rows·window + window` eight-byte words
/// (coverage rows, the OR of the other selected rows, memo rows, member
/// bit-rows of the groups that were selected, the reference's rank
/// bitvector) plus `window` four-byte prefix counts, `pool` candidates and
/// `pool` row indices. That is 1.5 bits per user id in the window for the
/// rank lookup, and bit-rows only for groups that entered the selection.
/// Capacity follows the largest call the scratch has served, which is why
/// [`crate::session::Session`] runs its opening step — the one call
/// measured against the whole population — on a scratch of its own.
#[derive(Debug, Default)]
pub struct SelectScratch {
    pool: Vec<Cand>,
    selection: Vec<usize>,
    eval: EvalBuffers,
}

/// The [`Evaluator`]'s share of a [`SelectScratch`]. Bit `o` of a
/// `window`-word row stands for member id `base + o`.
#[derive(Debug, Default)]
struct EvalBuffers {
    /// `window`: the reference's members inside the window.
    ref_bits: Vec<u64>,
    /// `window`: how many of those lie before each word, so a member's
    /// rank among them is one popcount away.
    ref_before: Vec<u32>,
    /// `pool × words`: bit `j` of row `i` is set iff the `j`-th reference
    /// member inside the window is a member of pool entry `i`.
    cover: Vec<u64>,
    /// `words`: OR of the selected rows except the position under trial.
    others: Vec<u64>,
    /// `rows × window`: the members of each pool entry that owns a memo
    /// row, in the memo's row order.
    member_bits: Vec<u64>,
    /// `rows × pool` Jaccard distances; `NAN` = not computed yet.
    memo: Vec<f64>,
    /// Pool entry → its memo row, [`NO_ROW`] until it is first selected.
    row_of: Vec<u32>,
}

impl SelectScratch {
    /// Fresh scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fill `pool` with the candidates at or above the similarity lower bound,
/// ranked by feedback-weighted similarity (ties to the lower id).
fn rank_pool(
    pool: &mut Vec<Cand>,
    groups: &GroupSet,
    candidates: &[ScoredCandidate],
    feedback: &FeedbackVector,
    params: &SelectParams,
) {
    pool.clear();
    pool.extend(
        candidates
            .iter()
            .filter(|(_, sim)| *sim >= params.min_similarity)
            .map(|&(id, sim)| {
                let affinity = if params.feedback_weight > 0.0 {
                    feedback.group_affinity(groups.get(id))
                } else {
                    0.0
                };
                Cand {
                    id,
                    weighted_sim: sim * (1.0 + params.feedback_weight * affinity),
                    affinity,
                }
            }),
    );
    pool.sort_by(|a, b| {
        b.weighted_sim
            .total_cmp(&a.weighted_sim)
            .then_with(|| a.id.cmp(&b.id))
    });
}

/// Row `i` of a matrix of `words`-word rows.
fn row(rows: &[u64], words: usize, i: usize) -> &[u64] {
    &rows[i * words..(i + 1) * words]
}

/// The `base` and length in words of the window `members` span: from the
/// smallest member rounded down to a multiple of 64 through the largest.
/// `(0, 0)` when there is no member.
fn window<'m>(members: impl Iterator<Item = &'m [u32]>) -> (u32, usize) {
    let (lo, hi) = members
        .filter_map(|m| Some((*m.first()?, *m.last()?)))
        .fold((u32::MAX, 0), |(lo, hi), (f, l)| (lo.min(f), hi.max(l)));
    if lo > hi {
        return (0, 0);
    }
    let base = lo & !63;
    (base, ((hi - base) / 64 + 1) as usize)
}

/// Set the bit of each of `ids` (all inside the window) in a window row.
fn mark(row: &mut [u64], ids: &[u32], base: u32) {
    for &u in ids {
        let off = (u - base) as usize;
        row[off / 64] |= 1 << (off % 64);
    }
}

/// The P2 objective of one [`select_k_with`] call over the scratch's
/// buffers (see the module header for why its values are bit-identical to
/// [`crate::quality::evaluate_with`]'s).
struct Evaluator<'a> {
    groups: &'a GroupSet,
    params: &'a SelectParams,
    pool: &'a [Cand],
    reference_len: usize,
    /// The member id bit 0 of a window row stands for, and the row length.
    base: u32,
    window: usize,
    /// Length of a coverage row.
    words: usize,
    /// The selection position [`Self::exclude`] last left out of
    /// `buf.others`, and the popcount of what it left in.
    pos: usize,
    covered_wo: usize,
    buf: &'a mut EvalBuffers,
}

impl<'a> Evaluator<'a> {
    fn new(
        groups: &'a GroupSet,
        reference: &MemberSet,
        params: &'a SelectParams,
        pool: &'a [Cand],
        buf: &'a mut EvalBuffers,
    ) -> Self {
        let members = |cand: &Cand| groups.get(cand.id).members.as_slice();
        let (base, window) = window(pool.iter().map(members));

        // The reference's rank lookup over the window.
        let ids = reference.as_slice();
        let end = u64::from(base) + 64 * window as u64;
        let inside =
            ids.partition_point(|&u| u < base)..ids.partition_point(|&u| u64::from(u) < end);
        buf.ref_bits.clear();
        buf.ref_bits.resize(window, 0);
        mark(&mut buf.ref_bits, &ids[inside], base);
        buf.ref_before.clear();
        let mut ranked = 0;
        buf.ref_before.extend(buf.ref_bits.iter().map(|bits| {
            let before = ranked;
            ranked += bits.count_ones();
            before
        }));

        let words = (ranked as usize).div_ceil(64);
        buf.cover.clear();
        buf.cover.resize(pool.len() * words, 0);
        if words > 0 {
            for (cand, row) in pool.iter().zip(buf.cover.chunks_exact_mut(words)) {
                for &u in members(cand) {
                    let off = (u - base) as usize;
                    let (bits, bit) = (buf.ref_bits[off / 64], off % 64);
                    if bits >> bit & 1 == 1 {
                        let rank = buf.ref_before[off / 64] as usize
                            + (bits & ((1 << bit) - 1)).count_ones() as usize;
                        row[rank / 64] |= 1 << (rank % 64);
                    }
                }
            }
        }
        buf.others.clear();
        buf.others.resize(words, 0);
        buf.member_bits.clear();
        buf.memo.clear();
        buf.row_of.clear();
        buf.row_of.resize(pool.len(), NO_ROW);
        Self {
            groups,
            params,
            pool,
            reference_len: reference.len(),
            base,
            window,
            words,
            pos: 0,
            covered_wo: 0,
            buf,
        }
    }

    fn members(&self, i: usize) -> &'a [u32] {
        self.groups.get(self.pool[i].id).members.as_slice()
    }

    /// Give pool entry `i` a memo row and a member bit-row: called for
    /// every entry that enters the selection, so each pair a trial needs
    /// has a row to live in and a row to probe.
    fn own_row(&mut self, i: usize) {
        if self.buf.row_of[i] == NO_ROW {
            self.buf.row_of[i] = (self.buf.memo.len() / self.pool.len()) as u32;
            self.buf
                .memo
                .resize(self.buf.memo.len() + self.pool.len(), f64::NAN);
            let members = self.members(i);
            let start = self.buf.member_bits.len();
            self.buf.member_bits.resize(start + self.window, 0);
            mark(&mut self.buf.member_bits[start..], members, self.base);
        }
    }

    /// Prepare trials at `pos`: OR the other selected rows and count them.
    /// An accepted swap at `pos` leaves both as they are.
    fn exclude(&mut self, selection: &[usize], pos: usize) {
        self.pos = pos;
        self.buf.others.fill(0);
        for (p, &s) in selection.iter().enumerate() {
            if p != pos {
                let row = row(&self.buf.cover, self.words, s);
                for (o, r) in self.buf.others.iter_mut().zip(row) {
                    *o |= r;
                }
            }
        }
        self.covered_wo = self
            .buf
            .others
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
    }

    /// Jaccard distance between pool entries `x` and `y`, at least one of
    /// which has been selected.
    fn distance(&mut self, x: usize, y: usize) -> f64 {
        let (own, other) = if self.buf.row_of[x] != NO_ROW {
            (x, y)
        } else {
            (y, x)
        };
        let n = self.pool.len();
        let row_of_own = self.buf.row_of[own] as usize;
        let cell = row_of_own * n + other;
        if self.buf.memo[cell].is_nan() {
            // Symmetric in exact integers: if the other side owns a row
            // too, the pair may already be there.
            let mirrored = match self.buf.row_of[other] {
                NO_ROW => f64::NAN,
                row => self.buf.memo[row as usize * n + own],
            };
            self.buf.memo[cell] = if mirrored.is_nan() {
                let bits = row(&self.buf.member_bits, self.window, row_of_own);
                let others = self.members(other);
                let inter: u64 = others
                    .iter()
                    .map(|&u| {
                        let off = (u - self.base) as usize;
                        bits[off / 64] >> (off % 64) & 1
                    })
                    .sum();
                let (a, b) = (self.members(own).len(), others.len());
                1.0 - jaccard_of_counts(inter as usize, a, b)
            } else {
                mirrored
            };
        }
        self.buf.memo[cell]
    }

    /// Quality of `selection`, which may differ from the one
    /// [`Self::exclude`] saw at the excluded position only.
    fn quality(&mut self, selection: &[usize]) -> Quality {
        let coverage = if self.reference_len == 0 {
            1.0
        } else {
            let gained: usize = row(&self.buf.cover, self.words, selection[self.pos])
                .iter()
                .zip(self.buf.others.iter())
                .map(|(r, o)| (r & !o).count_ones() as usize)
                .sum();
            (self.covered_wo + gained) as f64 / self.reference_len as f64
        };
        let diversity = if selection.len() < 2 {
            0.0
        } else {
            let mut total = 0.0;
            let mut pairs = 0usize;
            for i in 0..selection.len() {
                for j in i + 1..selection.len() {
                    total += self.distance(selection[i], selection[j]);
                    pairs += 1;
                }
            }
            total / pairs as f64
        };
        Quality {
            diversity,
            coverage,
        }
    }

    /// The objective of a non-empty `selection` (same contract as
    /// [`Self::quality`]).
    fn score(&mut self, selection: &[usize]) -> f64 {
        let mean_aff = selection
            .iter()
            .map(|&i| self.pool[i].affinity)
            .sum::<f64>()
            / selection.len() as f64;
        self.quality(selection)
            .score(self.params.diversity_weight, self.params.coverage_weight)
            + self.params.feedback_weight * mean_aff
    }
}

/// Select up to `k` groups from `candidates`, optimizing P2 within the P3
/// budget. `reference` is the member set coverage is measured against.
pub fn select_k(
    groups: &GroupSet,
    candidates: &[ScoredCandidate],
    reference: &MemberSet,
    feedback: &FeedbackVector,
    params: &SelectParams,
) -> SelectionOutcome {
    let mut scratch = SelectScratch::new();
    select_k_with(
        &mut scratch,
        groups,
        candidates,
        reference,
        feedback,
        params,
    )
}

/// [`select_k`] with caller-owned scratch buffers — the per-step fast
/// path. Results are identical to [`select_k`]; only the allocation
/// profile differs.
pub fn select_k_with(
    scratch: &mut SelectScratch,
    groups: &GroupSet,
    candidates: &[ScoredCandidate],
    reference: &MemberSet,
    feedback: &FeedbackVector,
    params: &SelectParams,
) -> SelectionOutcome {
    let start = Instant::now();
    let deadline = params.budget.map(|b| start + b);

    let SelectScratch {
        pool,
        selection,
        eval,
    } = scratch;
    rank_pool(pool, groups, candidates, feedback, params);

    if pool.is_empty() || params.k == 0 {
        return SelectionOutcome {
            selection: Vec::new(),
            quality: Quality {
                diversity: 0.0,
                coverage: 0.0,
            },
            rounds: 0,
            trials: 0,
            elapsed: start.elapsed(),
            budget_exhausted: false,
        };
    }

    // Seed: top-k by weighted similarity.
    let k = params.k.min(pool.len());
    selection.clear();
    selection.extend(0..k); // indices into pool
    let mut eval = Evaluator::new(groups, reference, params, pool, eval);
    for &s in selection.iter() {
        eval.own_row(s);
    }

    eval.exclude(selection, 0);
    let mut best_score = eval.score(selection);
    let mut rounds = 0usize;
    let mut trials = 0usize;
    let mut budget_exhausted = false;

    // First-improvement hill climbing: improving swaps apply immediately,
    // so even a partially completed pass raises quality — that is what
    // makes the optimizer *anytime* rather than all-or-nothing per pass.
    'improve: loop {
        let mut improved = false;
        for pos in 0..k {
            eval.exclude(selection, pos);
            for ci in 0..pool.len() {
                if selection.contains(&ci) {
                    continue;
                }
                // Budget check inside the hot loop keeps latency honest.
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        budget_exhausted = true;
                        break 'improve;
                    }
                }
                trials += 1;
                let old = selection[pos];
                selection[pos] = ci;
                let score = eval.score(selection);
                if score > best_score + 1e-12 {
                    best_score = score;
                    improved = true;
                    eval.own_row(ci);
                } else {
                    selection[pos] = old;
                }
            }
        }
        rounds += 1;
        if !improved {
            break;
        }
    }

    eval.exclude(selection, 0);
    let quality = eval.quality(selection);
    SelectionOutcome {
        selection: selection.iter().map(|&i| pool[i].id).collect(),
        quality,
        rounds,
        trials,
        elapsed: start.elapsed(),
        budget_exhausted,
    }
}

/// Convenience: run to convergence (the C1 upper-bound baseline).
pub fn select_k_unbounded(
    groups: &GroupSet,
    candidates: &[ScoredCandidate],
    reference: &MemberSet,
    feedback: &FeedbackVector,
    params: &SelectParams,
) -> SelectionOutcome {
    let unbounded = SelectParams {
        budget: None,
        ..params.clone()
    };
    select_k(groups, candidates, reference, feedback, &unbounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use vexus_mining::Group;

    fn gs(sets: &[&[u32]]) -> GroupSet {
        let mut out = GroupSet::new();
        for s in sets {
            out.push(Group::new(vec![], MemberSet::from_unsorted(s.to_vec())));
        }
        out
    }

    fn all_candidates(groups: &GroupSet) -> Vec<ScoredCandidate> {
        groups.ids().map(|id| (id, 1.0)).collect()
    }

    /// The P2 objective of one trial selection, from scratch: the
    /// definition the evaluator must reproduce bit for bit.
    fn objective(
        groups: &GroupSet,
        reference: &MemberSet,
        params: &SelectParams,
        pool: &[Cand],
        sel: &[usize],
        mask: &mut HashSet<u32>,
    ) -> f64 {
        let ids: Vec<GroupId> = sel.iter().map(|&i| pool[i].id).collect();
        let q = quality::evaluate_with(groups, &ids, reference, mask);
        let mean_aff = sel.iter().map(|&i| pool[i].affinity).sum::<f64>() / sel.len() as f64;
        q.score(params.diversity_weight, params.coverage_weight) + params.feedback_weight * mean_aff
    }

    /// The selector as it was before the incremental evaluator: the same
    /// loop with every trial scored by [`objective`]. Also returns how many
    /// swaps it accepted (the scratch bound is stated in them).
    fn select_k_oracle(
        groups: &GroupSet,
        candidates: &[ScoredCandidate],
        reference: &MemberSet,
        feedback: &FeedbackVector,
        params: &SelectParams,
    ) -> (SelectionOutcome, usize) {
        let start = Instant::now();
        let deadline = params.budget.map(|b| start + b);
        let mut pool = Vec::new();
        rank_pool(&mut pool, groups, candidates, feedback, params);
        let mask = &mut HashSet::new();
        let k = params.k.min(pool.len());
        let mut selection: Vec<usize> = (0..k).collect();
        let (mut rounds, mut trials, mut accepted) = (0usize, 0usize, 0usize);
        let mut budget_exhausted = false;

        if k > 0 {
            let mut best_score = objective(groups, reference, params, &pool, &selection, mask);
            'improve: loop {
                let mut improved = false;
                for pos in 0..k {
                    for ci in 0..pool.len() {
                        if selection.contains(&ci) {
                            continue;
                        }
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                budget_exhausted = true;
                                break 'improve;
                            }
                        }
                        trials += 1;
                        let old = selection[pos];
                        selection[pos] = ci;
                        let score = objective(groups, reference, params, &pool, &selection, mask);
                        if score > best_score + 1e-12 {
                            best_score = score;
                            improved = true;
                            accepted += 1;
                        } else {
                            selection[pos] = old;
                        }
                    }
                }
                rounds += 1;
                if !improved {
                    break;
                }
            }
        }

        let ids: Vec<GroupId> = selection.iter().map(|&i| pool[i].id).collect();
        let quality = if ids.is_empty() {
            Quality {
                diversity: 0.0,
                coverage: 0.0,
            }
        } else {
            quality::evaluate_with(groups, &ids, reference, mask)
        };
        let outcome = SelectionOutcome {
            selection: ids,
            quality,
            rounds,
            trials,
            elapsed: start.elapsed(),
            budget_exhausted,
        };
        (outcome, accepted)
    }

    /// Everything but `elapsed` must be equal — the two `f64`s bit for bit.
    fn assert_same_outcome(got: &SelectionOutcome, want: &SelectionOutcome, what: &str) {
        assert_eq!(got.selection, want.selection, "{what}: selection");
        assert_eq!(got.rounds, want.rounds, "{what}: rounds");
        assert_eq!(got.trials, want.trials, "{what}: trials");
        assert_eq!(
            got.budget_exhausted, want.budget_exhausted,
            "{what}: budget_exhausted"
        );
        assert_eq!(
            got.quality.diversity.to_bits(),
            want.quality.diversity.to_bits(),
            "{what}: diversity {} vs {}",
            got.quality.diversity,
            want.quality.diversity
        );
        assert_eq!(
            got.quality.coverage.to_bits(),
            want.quality.coverage.to_bits(),
            "{what}: coverage {} vs {}",
            got.quality.coverage,
            want.quality.coverage
        );
    }

    /// The documented [`SelectScratch`] bound, on buffer lengths, for the
    /// call `scratch` last served.
    fn assert_scratch_bound(
        scratch: &SelectScratch,
        groups: &GroupSet,
        reference: &MemberSet,
        k: usize,
        accepted: usize,
    ) {
        let pool = scratch.pool.len();
        // The window, spelled out: every member id of every pool entry.
        let ids: Vec<u32> = scratch
            .pool
            .iter()
            .flat_map(|c| groups.get(c.id).members.iter())
            .collect();
        let (window, words) = match (ids.iter().min(), ids.iter().max()) {
            (Some(&lo), Some(&hi)) => {
                let base = lo - lo % 64;
                let window = (hi - base) as usize / 64 + 1;
                let end = base as usize + 64 * window;
                let inside = reference
                    .iter()
                    .filter(|&u| u >= base && (u as usize) < end)
                    .count();
                (window, inside.div_ceil(64))
            }
            _ => (0, 0),
        };
        assert!(words <= reference.len().div_ceil(64));
        let rows = pool.min(k + accepted);
        let what = format!("pool {pool}, window {window}, k {k}, {accepted} accepted swaps");
        let buf = &scratch.eval;
        assert!(buf.ref_bits.len() <= window, "{what}: rank bits");
        assert!(buf.ref_before.len() <= window, "{what}: rank prefix counts");
        assert!(buf.cover.len() <= pool * words, "{what}: coverage rows");
        assert!(buf.others.len() <= words, "{what}: others");
        assert!(buf.row_of.len() <= pool, "{what}: row indices");
        assert!(buf.memo.len() <= rows * pool, "{what}: memo cells");
        assert!(
            buf.member_bits.len() <= rows * window,
            "{what}: {} member bit-row words",
            buf.member_bits.len()
        );
    }

    #[test]
    fn selects_k_groups() {
        let groups = gs(&[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        let reference = MemberSet::universe(8);
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &reference,
            &FeedbackVector::new(),
            &SelectParams {
                k: 3,
                budget: None,
                ..Default::default()
            },
        );
        assert_eq!(out.selection.len(), 3);
        assert!(!out.budget_exhausted);
        assert!(out.rounds >= 1);
    }

    #[test]
    fn prefers_diverse_covering_sets() {
        // Three near-identical groups and two disjoint ones; with k=3 the
        // optimizer should avoid picking all three clones.
        let groups = gs(&[
            &[0, 1, 2, 3],
            &[0, 1, 2, 4],
            &[0, 1, 2, 5],
            &[10, 11, 12, 13],
            &[20, 21, 22, 23],
        ]);
        let reference = MemberSet::from_unsorted((0..24).collect());
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &reference,
            &FeedbackVector::new(),
            &SelectParams {
                k: 3,
                budget: None,
                ..Default::default()
            },
        );
        // The two disjoint groups must be in.
        assert!(out.selection.contains(&GroupId::new(3)));
        assert!(out.selection.contains(&GroupId::new(4)));
        assert!(out.quality.diversity > 0.9);
    }

    #[test]
    fn similarity_lower_bound_filters() {
        let groups = gs(&[&[0, 1], &[2, 3]]);
        let candidates = vec![(GroupId::new(0), 0.9), (GroupId::new(1), 0.05)];
        let out = select_k(
            &groups,
            &candidates,
            &MemberSet::universe(4),
            &FeedbackVector::new(),
            &SelectParams {
                k: 2,
                min_similarity: 0.1,
                budget: None,
                ..Default::default()
            },
        );
        assert_eq!(out.selection, vec![GroupId::new(0)]);
    }

    #[test]
    fn feedback_biases_seeding() {
        // Two equally-similar candidates; feedback loves group 1's members.
        let groups = gs(&[&[0, 1], &[10, 11]]);
        let mut fb = FeedbackVector::new();
        fb.reward_group(groups.get(GroupId::new(1)));
        let candidates = vec![(GroupId::new(0), 0.5), (GroupId::new(1), 0.5)];
        let out = select_k(
            &groups,
            &candidates,
            &MemberSet::empty(),
            &fb,
            &SelectParams {
                k: 1,
                budget: None,
                feedback_weight: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(out.selection, vec![GroupId::new(1)]);
        // Without feedback the tie breaks to the lower id.
        let out2 = select_k(
            &groups,
            &candidates,
            &MemberSet::empty(),
            &FeedbackVector::new(),
            &SelectParams {
                k: 1,
                budget: None,
                feedback_weight: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(out2.selection, vec![GroupId::new(0)]);
    }

    #[test]
    fn zero_budget_returns_seed_immediately() {
        let groups = gs(&[&[0, 1], &[2, 3], &[4, 5]]);
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &MemberSet::universe(6),
            &FeedbackVector::new(),
            &SelectParams {
                k: 2,
                budget: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        assert_eq!(out.selection.len(), 2);
        assert!(out.budget_exhausted);
    }

    #[test]
    fn empty_pool_and_zero_k() {
        let groups = gs(&[&[0]]);
        let out = select_k(
            &groups,
            &[],
            &MemberSet::universe(1),
            &FeedbackVector::new(),
            &SelectParams::default(),
        );
        assert!(out.selection.is_empty());
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &MemberSet::universe(1),
            &FeedbackVector::new(),
            &SelectParams {
                k: 0,
                ..Default::default()
            },
        );
        assert!(out.selection.is_empty());
    }

    #[test]
    fn fewer_candidates_than_k() {
        let groups = gs(&[&[0, 1], &[2, 3]]);
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &MemberSet::universe(4),
            &FeedbackVector::new(),
            &SelectParams {
                k: 7,
                budget: None,
                ..Default::default()
            },
        );
        assert_eq!(out.selection.len(), 2);
    }

    #[test]
    fn unbounded_quality_dominates_bounded() {
        // A larger pool where improvement passes matter: quality at
        // convergence must be >= quality at a tiny budget.
        let sets: Vec<Vec<u32>> = (0..40)
            .map(|i| ((i * 3)..(i * 3 + 30)).map(|x| x % 90).collect())
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let groups = gs(&slices);
        let reference = MemberSet::universe(90);
        let params = SelectParams {
            k: 5,
            ..Default::default()
        };
        let bounded = select_k(
            &groups,
            &all_candidates(&groups),
            &reference,
            &FeedbackVector::new(),
            &SelectParams {
                budget: Some(Duration::ZERO),
                ..params.clone()
            },
        );
        let unbounded = select_k_unbounded(
            &groups,
            &all_candidates(&groups),
            &reference,
            &FeedbackVector::new(),
            &params,
        );
        let sb = bounded.quality.score(1.0, 1.0);
        let su = unbounded.quality.score(1.0, 1.0);
        assert!(su >= sb - 1e-9, "unbounded {su} must dominate bounded {sb}");
        assert!(!unbounded.budget_exhausted);
    }

    #[test]
    fn selection_has_no_duplicates() {
        let groups = gs(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        let out = select_k(
            &groups,
            &all_candidates(&groups),
            &MemberSet::universe(5),
            &FeedbackVector::new(),
            &SelectParams {
                k: 3,
                budget: None,
                ..Default::default()
            },
        );
        let mut sel = out.selection.clone();
        sel.sort();
        sel.dedup();
        assert_eq!(sel.len(), out.selection.len());
    }

    #[test]
    fn reused_scratch_stays_within_its_bound_and_matches_a_fresh_one() {
        // Four families of 40 groups, each group 30 consecutive positions
        // `x` (mod 140), so every reference below cuts through some of
        // them. Position `x` of a family is member id `shift + stride·x`:
        // the family's window starts at a different base and spans 3 to
        // 11 words.
        let families: [(i64, i64); 4] = [(0, 1), (1037, 1), (70, 2), (5013, 5)];
        let sets: Vec<Vec<u32>> = families
            .iter()
            .flat_map(|&(shift, stride)| {
                (0..40).map(move |i| {
                    ((i * 7)..(i * 7 + 30))
                        .map(|x| (shift + stride * (x % 140)) as u32)
                        .collect()
                })
            })
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let groups = gs(&slices);
        let params = SelectParams {
            k: 4,
            budget: None,
            ..Default::default()
        };
        let feedback = FeedbackVector::new();
        let mut reused = SelectScratch::new();
        // (family, reference = positions `from..from + n`, pool). First a
        // large reference and the full pool, then references around the
        // word boundary with the pool shrinking and growing; then the
        // window grows, shrinks and moves its base, with references
        // reaching below it: stale coverage bits, rank words, member bits,
        // memo cells or row indices would change a result.
        let calls: [(usize, i64, i64, usize); 15] = [
            (0, 0, 130, 40),
            (0, 0, 0, 3),
            (0, 0, 1, 25),
            (0, 0, 63, 7),
            (0, 0, 64, 40),
            (0, 0, 65, 2),
            (0, 0, 130, 12),
            (0, 0, 64, 31),
            (3, -10, 150, 40),
            (1, -30, 100, 20),
            (2, -40, 180, 40),
            (0, 0, 130, 40),
            (1, 5, 65, 33),
            (3, 0, 20, 9),
            // 17 reference members below the base, exactly 64 inside.
            (1, -30, 81, 17),
        ];
        for (family, from, n, pool) in calls {
            let (shift, stride) = families[family];
            let reference: MemberSet = (from..from + n)
                .map(|x| shift + stride * x)
                .filter(|&u| u >= 0)
                .map(|u| u as u32)
                .collect();
            let candidates: Vec<ScoredCandidate> = all_candidates(&groups)
                .into_iter()
                .skip(40 * family)
                .take(40)
                .rev()
                .take(pool)
                .collect();
            let got = select_k_with(
                &mut reused,
                &groups,
                &candidates,
                &reference,
                &feedback,
                &params,
            );
            let what = format!(
                "family {family}, reference {from}..{}, pool {pool}",
                from + n
            );
            let fresh = select_k(&groups, &candidates, &reference, &feedback, &params);
            assert_same_outcome(&got, &fresh, &what);
            let (want, accepted) =
                select_k_oracle(&groups, &candidates, &reference, &feedback, &params);
            assert_same_outcome(&got, &want, &what);
            assert_eq!(reused.pool.len(), pool);
            assert_scratch_bound(&reused, &groups, &reference, params.k, accepted);
        }
    }

    #[test]
    fn engine_scale_steps_equal_the_from_scratch_oracle() {
        use crate::config::EngineConfig;
        use crate::engine::Vexus;
        use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).expect("non-empty group space");
        let groups = vexus.groups();
        let params = SelectParams {
            budget: None,
            ..Default::default()
        };
        let check = |scratch: &mut SelectScratch,
                     candidates: &[ScoredCandidate],
                     reference: &MemberSet,
                     feedback: &FeedbackVector,
                     what: &str| {
            let got = select_k_with(scratch, groups, candidates, reference, feedback, &params);
            let (want, accepted) =
                select_k_oracle(groups, candidates, reference, feedback, &params);
            assert_same_outcome(&got, &want, what);
            assert_scratch_bound(scratch, groups, reference, params.k, accepted);
            let from_scratch = quality::evaluate(groups, &got.selection, reference);
            assert_eq!(
                got.quality.diversity.to_bits(),
                from_scratch.diversity.to_bits()
            );
            assert_eq!(
                got.quality.coverage.to_bits(),
                from_scratch.coverage.to_bits()
            );
            got
        };

        let mut swaps = 0;
        for pool in [96, 256] {
            let mut scratch = SelectScratch::new();
            let mut feedback = FeedbackVector::new();
            // The opening step, as `Vexus::opening` poses it.
            let candidates = crate::engine::opening_candidates(groups, pool);
            let population = MemberSet::universe(vexus.data().n_users() as u32);
            let opening = check(
                &mut scratch,
                &candidates,
                &population,
                &feedback,
                &format!("opening step, pool {pool}"),
            );
            swaps += opening.rounds - 1;
            // Clicks, as `Session::click` poses them, feedback accumulating.
            let every = (groups.len() / 24).max(1);
            for g in groups.ids().step_by(every) {
                let group = groups.get(g);
                feedback.reward_group(group);
                let candidates: Vec<ScoredCandidate> = vexus
                    .index()
                    .neighbors(groups, g, pool)
                    .into_iter()
                    .map(|(id, sim)| (id, sim as f64))
                    .collect();
                let step = check(
                    &mut scratch,
                    &candidates,
                    &group.members,
                    &feedback,
                    &format!("click on {g}, pool {pool}"),
                );
                swaps += step.rounds - 1;
            }
        }
        // The comparison is only worth something if the search moved.
        assert!(swaps > 20, "only {swaps} improving rounds were exercised");
    }

    proptest! {
        #[test]
        fn prop_select_k_equals_the_from_scratch_oracle(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..70, 0..14), 1..12),
            // Entries `< len` duplicate that group, the rest nest a prefix
            // of one inside it.
            derived in proptest::collection::vec(0usize..24, 0..5),
            // Member `u` becomes id `offset + stride·u`: the window starts
            // anywhere, mostly off a word boundary, and spans 2–5 words.
            placement in (0u32..100_000, 1u32..4),
            reference in (0usize..4, proptest::collection::vec(0u32..300, 1..150)),
            sims in proptest::collection::vec(1u32..5, 16),
            shape in (0usize..=7, 0usize..2, 0usize..2),
            rewards in proptest::collection::vec(0usize..16, 0..=3)
        ) {
            let mut sets = sets;
            for d in derived {
                let source = sets[d % sets.len()].clone();
                let keep = if d < sets.len() { source.len() } else { source.len() / 2 };
                sets.push(source[..keep].to_vec());
            }
            let (offset, stride) = placement;
            for set in &mut sets {
                set.iter_mut().for_each(|u| *u = offset + stride * *u);
            }
            let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
            let groups = gs(&slices);
            let reference = match reference {
                (0, _) => MemberSet::empty(),
                // Disjoint from every group.
                (1, r) => MemberSet::from_unsorted(r.into_iter().map(|u| offset + 1000 + u).collect()),
                // Reaching below the window and past its end.
                (_, r) => MemberSet::from_unsorted(
                    r.into_iter().map(|u| (offset + u).saturating_sub(50)).collect(),
                ),
            };
            // Quarter-step similarities tie often; the bound drops the lowest.
            let candidates: Vec<ScoredCandidate> = groups
                .ids()
                .map(|id| (id, sims[id.index()] as f64 / 4.0))
                .collect();
            let (k, filter, zero_budget) = shape;
            let params = SelectParams {
                k,
                budget: (zero_budget == 1).then_some(Duration::ZERO),
                min_similarity: if filter == 1 { 0.5 } else { 0.0 },
                ..Default::default()
            };
            let mut feedback = FeedbackVector::new();
            for r in rewards {
                feedback.reward_group(groups.get(GroupId::new((r % groups.len()) as u32)));
            }

            let mut scratch = SelectScratch::new();
            let got = select_k_with(&mut scratch, &groups, &candidates, &reference, &feedback, &params);
            let (want, accepted) = select_k_oracle(&groups, &candidates, &reference, &feedback, &params);
            assert_same_outcome(&got, &want, "random case");
            assert_scratch_bound(&scratch, &groups, &reference, k, accepted);
        }
    }
}
