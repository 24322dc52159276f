//! Simulated explorers: the measurement harness that turns the paper's
//! live scenarios into repeatable experiments.
//!
//! The paper distinguishes **single-target (ST)** tasks — "reach a single
//! group of interest" — and **multi-target (MT)** tasks — "collect users
//! among different groups", and claims PC chairs can "form committees of
//! major conferences in less than 10 iterations on average". A simulated
//! explorer replaces the human: it inspects the GroupViz display each
//! iteration and clicks according to a policy.
//!
//! Two realism constraints keep the simulation honest:
//!
//! * MT explorers can only *recognize* target users inside groups small
//!   enough to actually inspect ([`MtTask::inspect_limit`]) — a human
//!   cannot eyeball a 3,000-member circle,
//! * ST explorers accept a group per an explicit [`StAccept`] criterion:
//!   member-set Jaccard against the target (find *that* group) or
//!   precision (find *a* group almost entirely made of target users — the
//!   discussion-club case).

use crate::engine::Vexus;
use crate::error::CoreError;
use crate::session::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use vexus_data::UserId;
use vexus_mining::{GroupId, MemberSet};

/// How the simulated explorer picks among displayed groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Greedy toward the target (the attentive human).
    Informed,
    /// Uniformly random clicks (the lower-bound baseline).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// Acceptance criterion for single-target tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StAccept {
    /// Accept a group whose member set has Jaccard similarity ≥ threshold
    /// with the target (reach *that* group).
    Jaccard(f64),
    /// Accept a group almost entirely made of target users (reach *a*
    /// group of kindred members, e.g. a discussion club).
    Precision {
        /// Minimum fraction of group members inside the target.
        min_precision: f64,
        /// Minimum acceptable group size (a 2-user "club" is no club).
        min_size: usize,
    },
}

impl StAccept {
    /// Score of a group under this criterion, in `[0, 1]`.
    pub fn score(&self, group: &MemberSet, target: &MemberSet) -> f64 {
        match *self {
            StAccept::Jaccard(_) => group.jaccard(target),
            StAccept::Precision { min_size, .. } => {
                if group.len() < min_size || group.is_empty() {
                    0.0
                } else {
                    group.intersection_size(target) as f64 / group.len() as f64
                }
            }
        }
    }

    /// Whether a score passes the criterion.
    pub fn accepts(&self, score: f64) -> bool {
        match *self {
            StAccept::Jaccard(t) => score >= t,
            StAccept::Precision { min_precision, .. } => score >= min_precision,
        }
    }
}

/// Outcome of a single-target run.
#[derive(Debug, Clone)]
pub struct StOutcome {
    /// Whether a displayed group reached the acceptance criterion.
    pub found: bool,
    /// Iterations used (clicks; the opening display counts as iteration 0).
    pub iterations: usize,
    /// Best acceptance score seen on any display.
    pub best_score: f64,
    /// The accepted group, if found.
    pub accepted: Option<GroupId>,
}

/// Run an ST task: explore until some displayed group passes `accept`.
///
/// The informed policy clicks the displayed group with the highest Jaccard
/// similarity to the target (the navigation signal), regardless of the
/// acceptance criterion (the stop signal).
pub fn run_st<E: Deref<Target = Vexus>>(
    session: &mut Session<E>,
    target: &MemberSet,
    accept: StAccept,
    max_iterations: usize,
    policy: Policy,
) -> Result<StOutcome, CoreError> {
    let mut rng = policy_rng(policy);
    let mut best = 0.0_f64;
    let mut clicked_before: HashSet<GroupId> = Default::default();
    for iteration in 0..=max_iterations {
        // Inspect the display. Navigation climbs the acceptance score
        // itself (with Jaccard as tiebreaker), so a precision-seeking
        // explorer drifts toward purer groups and a Jaccard-seeking one
        // toward the target set.
        let mut nav: Vec<(GroupId, f64)> = Vec::with_capacity(session.display().len());
        let mut best_here: Option<(GroupId, f64)> = None;
        for &g in session.display() {
            let members = session.group_members(g);
            let score = accept.score(members, target);
            nav.push((g, score + 0.1 * members.jaccard(target)));
            if best_here.is_none_or(|(_, s)| score > s) {
                best_here = Some((g, score));
            }
        }
        if let Some((g, score)) = best_here {
            best = best.max(score);
            if accept.accepts(score) {
                session.memo_group(g)?;
                return Ok(StOutcome {
                    found: true,
                    iterations: iteration,
                    best_score: best,
                    accepted: Some(g),
                });
            }
        }
        if iteration == max_iterations || session.display().is_empty() {
            break;
        }
        nav.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite similarity"));
        let click = match (&mut rng, policy) {
            (Some(r), Policy::Random { .. }) => {
                session.display()[r.gen_range(0..session.display().len())]
            }
            // Prefer the best group not clicked before — a human does not
            // re-expand a circle she just came from; this breaks two-cycles
            // in flat regions of the group graph.
            _ => nav
                .iter()
                .find(|(g, _)| !clicked_before.contains(g))
                .map(|&(g, _)| g)
                .unwrap_or(nav[0].0),
        };
        clicked_before.insert(click);
        if session.click(click)?.is_empty() {
            break; // dead end: no similar neighbors above the bound
        }
    }
    Ok(StOutcome {
        found: false,
        iterations: max_iterations,
        best_score: best,
        accepted: None,
    })
}

/// Who counts as a find in a multi-target run.
#[derive(Debug, Clone)]
pub enum Wanted {
    /// These named users (collect *them*).
    Targets(Vec<UserId>),
    /// The committee-formation task of Scenario 1: any `size` users passing
    /// the task's brushes ("geographically distributed male and female
    /// researchers with different seniority and expertise levels") — the
    /// chair has requirements, not a name list.
    Committee {
        /// Committee size to fill.
        size: usize,
        /// Attribute to balance over (e.g. region or gender), if any.
        balance_attr: Option<vexus_data::AttrId>,
        /// Maximum recruits sharing one value of `balance_attr`.
        max_per_value: usize,
    },
}

/// Parameters of a multi-target run.
#[derive(Debug, Clone)]
pub struct MtTask {
    /// The users that count.
    pub wanted: Wanted,
    /// Maximum clicks.
    pub max_iterations: usize,
    /// Largest *brushed* member list the explorer reads in the STATS
    /// table. Population-sized circles are opaque unless brushing narrows
    /// them below this.
    pub inspect_limit: usize,
    /// STATS brushes the explorer applies before reading the table —
    /// the profile she is hiring for (e.g. `main_venue=sigmod`). Members
    /// failing any brushed value are filtered out of the table.
    pub brush: Vec<(vexus_data::AttrId, vexus_data::ValueId)>,
    /// Activity brush: only members with at least this many actions stay
    /// in the table (the paper's publication-rate brush).
    pub min_activity: usize,
}

impl MtTask {
    /// Collect `targets` with no brushes: raw member lists up to
    /// `inspect_limit`.
    pub fn targets(targets: Vec<UserId>, max_iterations: usize, inspect_limit: usize) -> Self {
        Self {
            wanted: Wanted::Targets(targets),
            max_iterations,
            inspect_limit,
            brush: Vec::new(),
            min_activity: 0,
        }
    }

    /// The members of a group that survive the explorer's brushes — what
    /// she actually sees in the STATS table.
    fn brushed_members<E: Deref<Target = Vexus>>(
        &self,
        session: &Session<E>,
        g: GroupId,
    ) -> Vec<UserId> {
        let data = session.data();
        session
            .group_members(g)
            .iter()
            .map(UserId::new)
            .filter(|&u| {
                self.brush.iter().all(|&(a, v)| data.value(u, a) == v)
                    && data.user_activity(u) >= self.min_activity
            })
            .collect()
    }
}

/// Outcome of a multi-target run.
#[derive(Debug, Clone)]
pub struct MtOutcome {
    /// Users collected into MEMO, in the order they were found.
    pub collected: Vec<UserId>,
    /// Iterations used.
    pub iterations: usize,
    /// Fraction of the task done: targets collected, or committee seats
    /// filled (`1` when nothing was wanted).
    pub recall: f64,
}

/// Run an MT task: harvest every *inspectable* displayed group's brushed
/// table into MEMO, then click the displayed group densest in wanted,
/// uncollected users, until the task is done or the clicks run out.
pub fn run_mt<E: Deref<Target = Vexus>>(
    session: &mut Session<E>,
    task: &MtTask,
    policy: Policy,
) -> Result<MtOutcome, CoreError> {
    let mut rng = policy_rng(policy);
    let (goal, target_set, balance): (usize, Option<HashSet<UserId>>, _) = match &task.wanted {
        Wanted::Targets(targets) => (targets.len(), Some(targets.iter().copied().collect()), None),
        Wanted::Committee {
            size,
            balance_attr,
            max_per_value,
        } => (*size, None, balance_attr.map(|a| (a, *max_per_value))),
    };
    let counts = |u: &UserId| target_set.as_ref().is_none_or(|t| t.contains(u));
    let mut collected: Vec<UserId> = Vec::new();
    let mut collected_set: HashSet<UserId> = Default::default();
    let mut per_value: HashMap<u32, usize> = Default::default();
    let mut iterations = 0usize;
    loop {
        // Harvest: open STATS on each displayed group, apply the profile
        // brushes, and read the table when it is short enough to scan.
        for &g in session.display().to_vec().iter() {
            let table = task.brushed_members(session, g);
            if table.len() > task.inspect_limit {
                continue;
            }
            for u in table {
                if collected.len() >= goal || !counts(&u) || collected_set.contains(&u) {
                    continue;
                }
                if let Some((attr, max)) = balance {
                    let slot = per_value
                        .entry(session.data().value(u, attr).raw())
                        .or_insert(0);
                    if *slot >= max {
                        continue;
                    }
                    *slot += 1;
                }
                collected_set.insert(u);
                collected.push(u);
                session.memo_user(u);
            }
        }
        if collected.len() >= goal || iterations >= task.max_iterations {
            break;
        }
        if session.display().is_empty() {
            break;
        }
        // Pick the next click.
        let click = match (&mut rng, policy) {
            (Some(r), Policy::Random { .. }) => {
                session.display()[r.gen_range(0..session.display().len())]
            }
            _ => {
                // Highest density of wanted, uncollected users in the
                // *brushed* view: the fastest way to a readable table full
                // of finds.
                let mut best: Option<(GroupId, f64)> = None;
                for &g in session.display() {
                    let table = task.brushed_members(session, g);
                    let gain = table
                        .iter()
                        .filter(|u| counts(u) && !collected_set.contains(u))
                        .count();
                    let density = gain as f64 / session.group_members(g).len().max(1) as f64;
                    if best.is_none_or(|(_, bd)| density > bd) {
                        best = Some((g, density));
                    }
                }
                best.expect("display non-empty").0
            }
        };
        iterations += 1;
        if session.click(click)?.is_empty() {
            break;
        }
    }
    let recall = if goal == 0 {
        1.0
    } else {
        collected.len() as f64 / goal as f64
    };
    Ok(MtOutcome {
        collected,
        iterations,
        recall,
    })
}

fn policy_rng(policy: Policy) -> Option<StdRng> {
    match policy {
        Policy::Informed => None,
        Policy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::Vexus;
    use vexus_data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};

    fn engine() -> Vexus {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Vexus::build(ds.data, EngineConfig::default()).unwrap()
    }

    fn mt_task(targets: Vec<UserId>, max_iterations: usize, inspect_limit: usize) -> MtTask {
        MtTask::targets(targets, max_iterations, inspect_limit)
    }

    #[test]
    fn st_finds_a_displayed_target_instantly() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        let target = vexus.groups().get(g).members.clone();
        let out = run_st(
            &mut session,
            &target,
            StAccept::Jaccard(0.99),
            10,
            Policy::Informed,
        )
        .unwrap();
        assert!(out.found);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.accepted, Some(g));
        assert!(session.memo().groups().contains(&g));
    }

    #[test]
    fn st_navigates_toward_hidden_target() {
        let vexus = engine();
        let session0 = vexus.session().unwrap();
        let shown: Vec<GroupId> = session0.display().to_vec();
        let target_group = vexus
            .groups()
            .ids()
            .find(|g| !shown.contains(g) && vexus.groups().get(*g).size() >= 10)
            .expect("a hidden group exists");
        let target = vexus.groups().get(target_group).members.clone();
        let mut session = vexus.session().unwrap();
        let out = run_st(
            &mut session,
            &target,
            StAccept::Jaccard(0.6),
            15,
            Policy::Informed,
        )
        .unwrap();
        assert!(out.best_score > 0.0, "never saw anything target-like");
        if !out.found {
            assert!(out.iterations >= 1);
        }
    }

    #[test]
    fn st_precision_criterion_accepts_pure_subgroups() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        // Target: everyone — any displayed group of >= 5 members is a pure
        // subgroup, so precision acceptance fires immediately.
        let target = MemberSet::universe(vexus.data().n_users() as u32);
        let out = run_st(
            &mut session,
            &target,
            StAccept::Precision {
                min_precision: 0.9,
                min_size: 5,
            },
            5,
            Policy::Informed,
        )
        .unwrap();
        assert!(out.found);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn st_precision_respects_min_size() {
        let accept = StAccept::Precision {
            min_precision: 0.5,
            min_size: 10,
        };
        let small = MemberSet::from_unsorted(vec![1, 2, 3]);
        let target = MemberSet::from_unsorted(vec![1, 2, 3]);
        assert_eq!(accept.score(&small, &target), 0.0);
        let big = MemberSet::from_unsorted((0..20).collect());
        let target_big = MemberSet::from_unsorted((0..15).collect());
        assert!((accept.score(&big, &target_big) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mt_collects_targets_from_inspectable_groups() {
        let ds = dbauthors(&DbAuthorsConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let mut session = vexus.session().unwrap();
        let targets: Vec<UserId> = vexus
            .groups()
            .get(session.display()[0])
            .members
            .iter()
            .take(8)
            .map(UserId::new)
            .collect();
        // Inspection limit high enough to see everything on display.
        let out = run_mt(
            &mut session,
            &mt_task(targets.clone(), 10, usize::MAX),
            Policy::Informed,
        )
        .unwrap();
        assert_eq!(out.recall, 1.0);
        assert_eq!(out.iterations, 0);
        assert_eq!(session.memo().users().len(), targets.len());
    }

    #[test]
    fn mt_inspect_limit_forces_navigation() {
        let ds = dbauthors(&DbAuthorsConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let mut session = vexus.session().unwrap();
        let targets: Vec<UserId> = vexus
            .groups()
            .get(session.display()[0])
            .members
            .iter()
            .take(8)
            .map(UserId::new)
            .collect();
        // Tiny inspection limit: the opening (large) groups are opaque, so
        // either the explorer needs clicks or ends with partial recall.
        let out = run_mt(&mut session, &mt_task(targets, 6, 30), Policy::Informed).unwrap();
        assert!(
            out.iterations > 0 || out.recall < 1.0,
            "limit should prevent 0-iteration harvesting"
        );
    }

    #[test]
    fn mt_empty_targets_trivially_done() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let out = run_mt(&mut session, &mt_task(vec![], 5, 100), Policy::Informed).unwrap();
        assert_eq!(out.recall, 1.0);
        assert!(out.collected.is_empty());
    }

    #[test]
    fn random_policy_is_reproducible() {
        let vexus = engine();
        let target = vexus.groups().get(GroupId::new(0)).members.clone();
        let mut s1 = vexus.session().unwrap();
        let mut s2 = vexus.session().unwrap();
        let o1 = run_st(
            &mut s1,
            &target,
            StAccept::Jaccard(0.95),
            8,
            Policy::Random { seed: 5 },
        )
        .unwrap();
        let o2 = run_st(
            &mut s2,
            &target,
            StAccept::Jaccard(0.95),
            8,
            Policy::Random { seed: 5 },
        )
        .unwrap();
        assert_eq!(o1.found, o2.found);
        assert_eq!(o1.iterations, o2.iterations);
        assert!((o1.best_score - o2.best_score).abs() < 1e-12);
    }

    #[test]
    fn informed_beats_random_on_average_mt() {
        let ds = dbauthors(&DbAuthorsConfig::tiny());
        let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
        let targets: Vec<UserId> = vexus
            .groups()
            .iter()
            .filter(|(_, g)| g.size() >= 8)
            .take(6)
            .flat_map(|(_, g)| {
                g.members
                    .iter()
                    .take(2)
                    .map(UserId::new)
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut informed_recall = 0.0;
        let mut random_recall = 0.0;
        let trials = 3;
        for seed in 0..trials {
            let mut s = vexus.session().unwrap();
            informed_recall += run_mt(&mut s, &mt_task(targets.clone(), 8, 100), Policy::Informed)
                .unwrap()
                .recall;
            let mut s = vexus.session().unwrap();
            random_recall += run_mt(
                &mut s,
                &mt_task(targets.clone(), 8, 100),
                Policy::Random { seed },
            )
            .unwrap()
            .recall;
        }
        assert!(
            informed_recall >= random_recall - 1e-9,
            "informed {informed_recall} should not lose to random {random_recall}"
        );
    }
}
