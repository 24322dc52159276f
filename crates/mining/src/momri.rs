//! α-MOMRI-style multi-objective group discovery (Omidvar-Tehrani et al.,
//! PKDD'16 \[13\]) — the paper's alternative discovery plug-in for user
//! datasets.
//!
//! MOMRI frames group discovery as multi-objective optimization: rather
//! than returning *every* frequent group, return group-sets that are good
//! under several objectives at once. We implement the α-approximation
//! flavor over three objectives the VEXUS paper cares about:
//!
//! * **coverage** — fraction of users appearing in at least one returned
//!   group (maximize),
//! * **diversity** — mean pairwise Jaccard *distance* between returned
//!   groups (maximize),
//! * **conciseness** — mean description length (minimize; short
//!   conjunctions are human-readable).
//!
//! The α parameter relaxes Pareto dominance: a candidate is pruned if some
//! kept solution is at least `(1+α)` times better on every objective. With
//! `α = 0` this is exact Pareto filtering of the explored solutions; larger
//! α keeps fewer, more distinct solutions (and is what makes the original
//! algorithm tractable).
//!
//! Candidates come from the closed-group space ([`crate::lcm`]); solutions
//! are built greedily from seeds spread over the objective extremes, which
//! matches the best-effort greedy spirit the original system used.

use crate::group::{GroupId, GroupSet};
use crate::lcm::{mine_closed_groups, LcmConfig};
use crate::transactions::TransactionDb;

/// Configuration for α-MOMRI discovery.
#[derive(Debug, Clone)]
pub struct MomriConfig {
    /// Groups per solution set.
    pub set_size: usize,
    /// Dominance relaxation α ≥ 0.
    pub alpha: f64,
    /// Number of greedy seeds (solution attempts) to explore.
    pub n_seeds: usize,
    /// Candidate mining configuration.
    pub lcm: LcmConfig,
}

impl Default for MomriConfig {
    fn default() -> Self {
        Self {
            set_size: 5,
            alpha: 0.1,
            n_seeds: 12,
            lcm: LcmConfig {
                min_support: 5,
                ..Default::default()
            },
        }
    }
}

/// One candidate solution with its objective vector.
#[derive(Debug, Clone)]
pub struct MomriSolution {
    /// Indices into the candidate group set.
    pub groups: Vec<GroupId>,
    /// Fraction of users covered by the union of groups.
    pub coverage: f64,
    /// Mean pairwise Jaccard distance between groups.
    pub diversity: f64,
    /// Mean description length (lower is better).
    pub description_cost: f64,
}

/// Result of α-MOMRI: the mined candidate space plus the α-Pareto solutions.
#[derive(Debug)]
pub struct MomriResult {
    /// All candidate groups (the closed-group space).
    pub candidates: GroupSet,
    /// α-Pareto front over explored solutions, best-coverage first.
    pub front: Vec<MomriSolution>,
}

/// Run α-MOMRI discovery over a transaction database.
pub fn discover(db: &TransactionDb, cfg: &MomriConfig) -> MomriResult {
    let candidates = mine_closed_groups(db, &cfg.lcm);
    let n_users = db.n_transactions();
    let front = pareto_front(&candidates, n_users, cfg);
    MomriResult { candidates, front }
}

fn pareto_front(candidates: &GroupSet, n_users: usize, cfg: &MomriConfig) -> Vec<MomriSolution> {
    if candidates.is_empty() || n_users == 0 || cfg.set_size == 0 {
        return Vec::new();
    }
    // Seed strategies: sort candidates by different priorities and grow a
    // solution greedily from each prefix-seed. Mixing coverage-first,
    // diversity-first and conciseness-first seeds spreads the front.
    let ids: Vec<GroupId> = candidates.ids().collect();
    let mut orders: Vec<Vec<GroupId>> = Vec::new();
    // Coverage-first: biggest groups.
    let mut by_size = ids.clone();
    by_size.sort_by_key(|&id| std::cmp::Reverse(candidates.get(id).size()));
    orders.push(by_size.clone());
    // Conciseness-first: shortest description, then size.
    let mut by_desc = ids.clone();
    by_desc.sort_by_key(|&id| {
        (
            candidates.get(id).description.len(),
            std::cmp::Reverse(candidates.get(id).size()),
        )
    });
    orders.push(by_desc);
    // Rotations of the size ordering provide extra seeds deterministically.
    for s in 1..cfg.n_seeds.saturating_sub(2).max(1) {
        let mut rot = by_size.clone();
        let shift = (s * 7) % rot.len().max(1);
        rot.rotate_left(shift);
        orders.push(rot);
    }

    let mut solutions: Vec<MomriSolution> = Vec::new();
    for order in orders.iter().take(cfg.n_seeds.max(1)) {
        let sol = grow_greedy(candidates, order, n_users, cfg.set_size);
        if !sol.groups.is_empty() {
            solutions.push(sol);
        }
    }

    // α-relaxed Pareto filter.
    let alpha = cfg.alpha.max(0.0);
    let mut front: Vec<MomriSolution> = Vec::new();
    'outer: for s in solutions {
        front.retain(|kept| !alpha_dominates(&s, kept, alpha));
        for kept in &front {
            if alpha_dominates(kept, &s, alpha) || same_solution(kept, &s) {
                continue 'outer;
            }
        }
        front.push(s);
    }
    front.sort_by(|a, b| {
        b.coverage
            .partial_cmp(&a.coverage)
            .expect("finite objectives")
    });
    front
}

/// Greedily grow one solution: repeatedly add the group with the best
/// marginal (new-coverage + diversity − description penalty) score.
fn grow_greedy(
    candidates: &GroupSet,
    order: &[GroupId],
    n_users: usize,
    set_size: usize,
) -> MomriSolution {
    let mut chosen: Vec<GroupId> = Vec::with_capacity(set_size);
    let mut covered = vec![false; n_users];
    // Pool: cap how many candidates each greedy pass scans, for speed.
    let pool: Vec<GroupId> = order.iter().copied().take(512).collect();
    while chosen.len() < set_size {
        let mut best: Option<(f64, GroupId)> = None;
        for &id in &pool {
            if chosen.contains(&id) {
                continue;
            }
            let g = candidates.get(id);
            let new_cov = (g.size() - g.members.count_in_mask(&covered)) as f64 / n_users as f64;
            let min_dist = chosen
                .iter()
                .map(|&c| candidates.get(c).members.jaccard_distance(&g.members))
                .fold(1.0_f64, f64::min);
            let desc_penalty = 0.02 * g.description.len() as f64;
            let score = new_cov + 0.5 * min_dist - desc_penalty;
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, id));
            }
        }
        match best {
            None => break,
            Some((_, id)) => {
                candidates.get(id).members.mark_mask(&mut covered);
                chosen.push(id);
            }
        }
    }
    score_solution(candidates, chosen, n_users)
}

fn score_solution(candidates: &GroupSet, groups: Vec<GroupId>, n_users: usize) -> MomriSolution {
    let mut covered = vec![false; n_users];
    let mut desc_total = 0usize;
    for &id in &groups {
        candidates.get(id).members.mark_mask(&mut covered);
        desc_total += candidates.get(id).description.len();
    }
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / n_users.max(1) as f64;
    let diversity = mean_pairwise_distance(candidates, &groups);
    let description_cost = if groups.is_empty() {
        0.0
    } else {
        desc_total as f64 / groups.len() as f64
    };
    MomriSolution {
        groups,
        coverage,
        diversity,
        description_cost,
    }
}

fn mean_pairwise_distance(candidates: &GroupSet, groups: &[GroupId]) -> f64 {
    if groups.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..groups.len() {
        for j in i + 1..groups.len() {
            total += candidates
                .get(groups[i])
                .members
                .jaccard_distance(&candidates.get(groups[j]).members);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// `a` α-dominates `b` iff `a` is at least `(1+α)`× better on every
/// objective (coverage and diversity up, description cost down).
fn alpha_dominates(a: &MomriSolution, b: &MomriSolution, alpha: f64) -> bool {
    let f = 1.0 + alpha;
    a.coverage >= b.coverage * f
        && a.diversity >= b.diversity * f
        && a.description_cost * f <= b.description_cost
}

fn same_solution(a: &MomriSolution, b: &MomriSolution) -> bool {
    let mut x = a.groups.clone();
    let mut y = b.groups.clone();
    x.sort();
    y.sort();
    x == y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::TransactionDb;
    use vexus_data::TokenId;

    fn toks(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&t| TokenId::new(t)).collect()
    }

    fn db() -> TransactionDb {
        // Three latent blocks sharing tokens, plus noise.
        let mut txs = Vec::new();
        for _ in 0..10 {
            txs.push(toks(&[0, 1]));
        }
        for _ in 0..8 {
            txs.push(toks(&[2, 3]));
        }
        for _ in 0..6 {
            txs.push(toks(&[4, 5]));
        }
        txs.push(toks(&[0, 2, 4]));
        TransactionDb::from_transactions(txs, 6)
    }

    #[test]
    fn discovers_a_nonempty_front() {
        let result = discover(&db(), &MomriConfig::default());
        assert!(!result.candidates.is_empty());
        assert!(!result.front.is_empty());
        for sol in &result.front {
            assert!(sol.groups.len() <= 5);
            assert!((0.0..=1.0).contains(&sol.coverage));
            assert!((0.0..=1.0).contains(&sol.diversity));
        }
    }

    #[test]
    fn best_solution_covers_the_blocks() {
        let result = discover(
            &db(),
            &MomriConfig {
                set_size: 3,
                ..Default::default()
            },
        );
        let best = &result.front[0];
        // Three disjoint blocks of 10+8+6 users (+1 bridge) = 25 users; a
        // 3-group solution should cover most of them.
        assert!(best.coverage > 0.8, "coverage {}", best.coverage);
        assert!(best.diversity > 0.5, "diversity {}", best.diversity);
    }

    #[test]
    fn front_is_alpha_pareto() {
        let result = discover(
            &db(),
            &MomriConfig {
                alpha: 0.05,
                ..Default::default()
            },
        );
        for (i, a) in result.front.iter().enumerate() {
            for (j, b) in result.front.iter().enumerate() {
                if i != j {
                    assert!(
                        !alpha_dominates(a, b, 0.05),
                        "front member dominated: {a:?} dominates {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_db_yields_empty_front() {
        let empty = TransactionDb::from_transactions(vec![], 0);
        let result = discover(&empty, &MomriConfig::default());
        assert!(result.front.is_empty());
        assert!(result.candidates.is_empty());
    }

    #[test]
    fn zero_set_size_yields_empty_front() {
        let result = discover(
            &db(),
            &MomriConfig {
                set_size: 0,
                ..Default::default()
            },
        );
        assert!(result.front.is_empty());
    }

    #[test]
    fn larger_alpha_never_grows_the_front() {
        let db = db();
        let tight = discover(
            &db,
            &MomriConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        let loose = discover(
            &db,
            &MomriConfig {
                alpha: 0.5,
                ..Default::default()
            },
        );
        assert!(
            loose.front.len() <= tight.front.len(),
            "relaxed dominance prunes more: {} vs {}",
            loose.front.len(),
            tight.front.len()
        );
        assert!(!loose.front.is_empty());
    }

    #[test]
    fn set_size_bounds_every_solution() {
        let db = db();
        for set_size in [1usize, 2, 4] {
            let result = discover(
                &db,
                &MomriConfig {
                    set_size,
                    ..Default::default()
                },
            );
            for sol in &result.front {
                assert!(sol.groups.len() <= set_size);
                // Groups within a solution are distinct.
                let mut ids = sol.groups.clone();
                ids.sort();
                ids.dedup();
                assert_eq!(ids.len(), sol.groups.len());
            }
        }
    }

    #[test]
    fn alpha_dominance_definition() {
        let a = MomriSolution {
            groups: vec![GroupId::new(0)],
            coverage: 0.9,
            diversity: 0.9,
            description_cost: 1.0,
        };
        let b = MomriSolution {
            groups: vec![GroupId::new(1)],
            coverage: 0.5,
            diversity: 0.5,
            description_cost: 2.0,
        };
        assert!(alpha_dominates(&a, &b, 0.1));
        assert!(!alpha_dominates(&b, &a, 0.1));
        // Not dominated when one objective resists.
        let c = MomriSolution {
            description_cost: 0.5,
            ..b.clone()
        };
        assert!(!alpha_dominates(&a, &c, 0.1));
    }
}
