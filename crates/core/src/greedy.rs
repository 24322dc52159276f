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
//! not recomputed from the member lists. An `Evaluator` is set up once
//! per [`select_k_with`] call and makes a trial cost
//! O(⌈|reference|/64⌉ + k²) word and `f64` operations. It produces the very
//! `f64` that [`crate::quality::evaluate_with`] — the single from-scratch
//! definition of P2, which the oracle tests at the bottom of this file
//! compare against bit for bit — would produce, for three reasons:
//!
//! * **Coverage is an exact integer.** Each pool group gets one bitset row
//!   over the *ranks* of the sorted reference (bit `j` set iff
//!   `reference[j]` is a member). Per position, the OR of the other k−1
//!   selected rows and its popcount are computed once (an accepted swap at
//!   that position does not change them); a trial's covered count is that
//!   popcount plus `popcount(row & !others)`. The same integer is then
//!   divided by the same `|reference|`.
//! * **Diversity is re-summed in `quality::diversity`'s `i < j` order** from
//!   a lazy memo of pairwise Jaccard distances, never kept as a running
//!   sum: a different reduction order moves the last ulp, and an ulp is
//!   enough to flip a greedy tie (see `feedback.rs`). Only groups that have
//!   been in the selection own a memo row; every pair a trial needs has at
//!   least one such side.
//! * **Jaccard is symmetric in exact integers**
//!   (`inter / (|a| + |b| − inter)`), so a distance memoized for `(a, b)`
//!   is the `f64` a from-scratch evaluation computes for `(b, a)`.
//!
//! The mean affinity is re-summed over the k selected candidates in
//! selection order.

use crate::feedback::FeedbackVector;
use crate::quality::Quality;
use std::time::{Duration, Instant};
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
    /// Wall-clock spent.
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
/// pool, the selection, and the per-call evaluator's coverage rows and
/// distance memo. A session that owns one `SelectScratch` amortizes those
/// allocations across its clicks; every buffer is fully re-initialised at
/// the start of a call, so a call's result never depends on the previous
/// one.
///
/// **Bound.** With `pool` candidates past the similarity filter and
/// `words = ⌈|reference| / 64⌉`, a call that selects anything leaves the
/// scratch holding at most `pool·words + words + rows·pool` eight-byte
/// words (coverage rows, the OR of the other selected rows, memo rows),
/// where `rows ≤ min(pool, k + accepted swaps)`, plus `pool` candidates and
/// row indices. Capacity follows the largest call the scratch has served,
/// which is why [`crate::session::Session`] runs its opening step — the
/// one call measured against the whole population — on a scratch of its
/// own.
#[derive(Debug, Default)]
pub struct SelectScratch {
    pool: Vec<Cand>,
    selection: Vec<usize>,
    eval: EvalBuffers,
}

/// The [`Evaluator`]'s share of a [`SelectScratch`].
#[derive(Debug, Default)]
struct EvalBuffers {
    /// `pool × words`: bit `j` of row `i` is set iff `reference[j]` is a
    /// member of pool entry `i`.
    cover: Vec<u64>,
    /// `words`: OR of the selected rows except the position under trial.
    others: Vec<u64>,
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
            .partial_cmp(&a.weighted_sim)
            .expect("finite weighted similarity")
            .then_with(|| a.id.cmp(&b.id))
    });
}

/// Set bit `j` of `row` for every `reference[j]` found in `members` (both
/// strictly ascending).
fn mark_ranks(row: &mut [u64], members: &[u32], reference: &[u32]) {
    let (mut i, mut j) = (0, 0);
    while i < members.len() && j < reference.len() {
        match members[i].cmp(&reference[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                row[j / 64] |= 1 << (j % 64);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Coverage row `i` of a `pool × words` matrix.
fn row(cover: &[u64], words: usize, i: usize) -> &[u64] {
    &cover[i * words..(i + 1) * words]
}

/// The P2 objective of one [`select_k_with`] call over the scratch's
/// buffers (see the module header for why its values are bit-identical to
/// [`crate::quality::evaluate_with`]'s).
struct Evaluator<'a> {
    groups: &'a GroupSet,
    params: &'a SelectParams,
    pool: &'a [Cand],
    reference_len: usize,
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
        let words = reference.len().div_ceil(64);
        buf.cover.clear();
        buf.cover.resize(pool.len() * words, 0);
        if words > 0 {
            for (cand, row) in pool.iter().zip(buf.cover.chunks_exact_mut(words)) {
                let members = &groups.get(cand.id).members;
                mark_ranks(row, members.as_slice(), reference.as_slice());
            }
        }
        buf.others.clear();
        buf.others.resize(words, 0);
        buf.memo.clear();
        buf.row_of.clear();
        buf.row_of.resize(pool.len(), NO_ROW);
        Self {
            groups,
            params,
            pool,
            reference_len: reference.len(),
            words,
            pos: 0,
            covered_wo: 0,
            buf,
        }
    }

    /// Give pool entry `i` a memo row: called for every entry that enters
    /// the selection, so each pair a trial needs has a row to live in.
    fn own_row(&mut self, i: usize) {
        if self.buf.row_of[i] == NO_ROW {
            self.buf.row_of[i] = (self.buf.memo.len() / self.pool.len()) as u32;
            self.buf
                .memo
                .resize(self.buf.memo.len() + self.pool.len(), f64::NAN);
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
        let cell = self.buf.row_of[own] as usize * n + other;
        if self.buf.memo[cell].is_nan() {
            // Symmetric in exact integers: if the other side owns a row
            // too, the pair may already be there.
            let mirrored = match self.buf.row_of[other] {
                NO_ROW => f64::NAN,
                row => self.buf.memo[row as usize * n + own],
            };
            self.buf.memo[cell] = if mirrored.is_nan() {
                let a = &self.groups.get(self.pool[own].id).members;
                a.jaccard_distance(&self.groups.get(self.pool[other].id).members)
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
        reference: &MemberSet,
        k: usize,
        accepted: usize,
    ) {
        let pool = scratch.pool.len();
        let words = reference.len().div_ceil(64);
        let buf = &scratch.eval;
        assert!(buf.cover.len() <= pool * words);
        assert!(buf.others.len() <= words);
        assert!(buf.row_of.len() <= pool);
        let rows = pool.min(k + accepted);
        assert!(
            buf.memo.len() <= rows * pool,
            "{} memo cells for pool {pool}, k {k}, {accepted} accepted swaps",
            buf.memo.len()
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
        // 40 groups of 30 consecutive members (mod 140), so every reference
        // size below cuts through some of them.
        let sets: Vec<Vec<u32>> = (0..40)
            .map(|i| ((i * 7)..(i * 7 + 30)).map(|x| x % 140).collect())
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
        // A large reference and the full pool first, then references around
        // the word boundary with the pool shrinking and growing: stale
        // coverage bits, memo cells or row indices would change a result.
        let calls: [(u32, usize); 8] = [
            (130, 40),
            (0, 3),
            (1, 25),
            (63, 7),
            (64, 40),
            (65, 2),
            (130, 12),
            (64, 31),
        ];
        for (n, pool) in calls {
            let reference = MemberSet::universe(n);
            let candidates: Vec<ScoredCandidate> = all_candidates(&groups)
                .into_iter()
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
            let what = format!("|reference| {n}, pool {pool}");
            let fresh = select_k(&groups, &candidates, &reference, &feedback, &params);
            assert_same_outcome(&got, &fresh, &what);
            let (want, accepted) =
                select_k_oracle(&groups, &candidates, &reference, &feedback, &params);
            assert_same_outcome(&got, &want, &what);
            assert_eq!(reused.pool.len(), pool);
            assert_scratch_bound(&reused, &reference, params.k, accepted);
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
            assert_scratch_bound(scratch, reference, params.k, accepted);
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
            // The opening step, as `Session::opening_step` poses it.
            let mut by_size: Vec<GroupId> = groups.ids().collect();
            by_size.sort_by_key(|&id| std::cmp::Reverse(groups.get(id).size()));
            by_size.truncate(pool);
            let candidates: Vec<ScoredCandidate> =
                by_size.into_iter().map(|id| (id, 1.0)).collect();
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
            reference in (0usize..4, proptest::collection::vec(0u32..200, 1..150)),
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
            let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
            let groups = gs(&slices);
            let reference = match reference {
                (0, _) => MemberSet::empty(),
                // Disjoint from every group.
                (1, r) => MemberSet::from_unsorted(r.into_iter().map(|u| u + 1000).collect()),
                (_, r) => MemberSet::from_unsorted(r),
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
            assert_scratch_bound(&scratch, &reference, k, accepted);
        }
    }
}
