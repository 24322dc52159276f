//! Quality objectives of principle P2: diversity and coverage.
//!
//! "We consider diversity and coverage as quality objectives in VEXUS.
//! Optimizing diversity provides various analysis directions and reduces
//! redundancy in returned groups. Optimizing coverage ensures that the most
//! interesting records appear in at least one group in the output."

use vexus_mining::{GroupId, GroupSet, MemberSet};

/// Mean pairwise Jaccard **distance** among the selected groups, in
/// `[0, 1]`. Single-group and empty selections score 0 (no spread).
pub fn diversity(groups: &GroupSet, selection: &[GroupId]) -> f64 {
    if selection.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..selection.len() {
        for j in i + 1..selection.len() {
            total += groups
                .get(selection[i])
                .members
                .jaccard_distance(&groups.get(selection[j]).members);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Fraction of `reference` members that appear in at least one selected
/// group. The reference is the clicked group's member set mid-exploration,
/// or the whole population for the opening step.
pub fn coverage(groups: &GroupSet, selection: &[GroupId], reference: &MemberSet) -> f64 {
    let mut mask = std::collections::HashSet::with_capacity(reference.len());
    coverage_with(groups, selection, reference, &mut mask)
}

/// [`coverage`] with a caller-owned mark set, for callers that evaluate
/// many selections in a row.
pub fn coverage_with(
    groups: &GroupSet,
    selection: &[GroupId],
    reference: &MemberSet,
    mask: &mut std::collections::HashSet<u32>,
) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    mask.clear();
    let mut covered = 0usize;
    // Mark-based counting over the reference only.
    for &gid in selection {
        for u in groups.get(gid).members.iter() {
            if reference.contains(u) && mask.insert(u) {
                covered += 1;
            }
        }
    }
    covered as f64 / reference.len() as f64
}

/// Combined P2 objective used by the greedy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean pairwise Jaccard distance.
    pub diversity: f64,
    /// Covered fraction of the reference.
    pub coverage: f64,
}

impl Quality {
    /// Score under the configured weights.
    pub fn score(&self, diversity_weight: f64, coverage_weight: f64) -> f64 {
        diversity_weight * self.diversity + coverage_weight * self.coverage
    }
}

/// Evaluate both objectives for a selection.
pub fn evaluate(groups: &GroupSet, selection: &[GroupId], reference: &MemberSet) -> Quality {
    Quality {
        diversity: diversity(groups, selection),
        coverage: coverage(groups, selection, reference),
    }
}

/// [`evaluate`] with a caller-owned coverage mark set (see
/// [`coverage_with`]). This is the from-scratch definition of P2: the
/// greedy selector evaluates swap trials incrementally
/// ([`crate::greedy`]) and its tests require the result to equal this
/// function's bit for bit.
pub fn evaluate_with(
    groups: &GroupSet,
    selection: &[GroupId],
    reference: &MemberSet,
    mask: &mut std::collections::HashSet<u32>,
) -> Quality {
    Quality {
        diversity: diversity(groups, selection),
        coverage: coverage_with(groups, selection, reference, mask),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vexus_mining::Group;

    fn gs(sets: &[&[u32]]) -> GroupSet {
        let mut out = GroupSet::new();
        for s in sets {
            out.push(Group::new(vec![], MemberSet::from_unsorted(s.to_vec())));
        }
        out
    }

    fn ids(v: &[u32]) -> Vec<GroupId> {
        v.iter().map(|&i| GroupId::new(i)).collect()
    }

    #[test]
    fn diversity_extremes() {
        let groups = gs(&[&[0, 1], &[0, 1], &[5, 6]]);
        // Identical groups: distance 0.
        assert_eq!(diversity(&groups, &ids(&[0, 1])), 0.0);
        // Disjoint groups: distance 1.
        assert_eq!(diversity(&groups, &ids(&[0, 2])), 1.0);
        // Singleton: 0 by convention.
        assert_eq!(diversity(&groups, &ids(&[0])), 0.0);
    }

    #[test]
    fn coverage_counts_reference_members_once() {
        let groups = gs(&[&[0, 1, 2], &[2, 3], &[8, 9]]);
        let reference = MemberSet::from_unsorted(vec![0, 1, 2, 3]);
        assert_eq!(coverage(&groups, &ids(&[0]), &reference), 0.75);
        assert_eq!(coverage(&groups, &ids(&[0, 1]), &reference), 1.0);
        // Out-of-reference members don't help.
        assert_eq!(coverage(&groups, &ids(&[2]), &reference), 0.0);
        // Empty reference trivially covered.
        assert_eq!(coverage(&groups, &ids(&[0]), &MemberSet::empty()), 1.0);
    }

    #[test]
    fn quality_score_combines_weights() {
        let q = Quality {
            diversity: 0.5,
            coverage: 1.0,
        };
        assert!((q.score(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((q.score(0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_objectives_bounded(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..40, 1..12), 1..6),
            reference in proptest::collection::vec(0u32..40, 1..20)
        ) {
            let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
            let groups = gs(&slices);
            let selection: Vec<GroupId> = groups.ids().collect();
            let reference = MemberSet::from_unsorted(reference);
            let q = evaluate(&groups, &selection, &reference);
            prop_assert!((0.0..=1.0).contains(&q.diversity));
            prop_assert!((0.0..=1.0).contains(&q.coverage));
            // Adding a group never decreases coverage.
            let partial = coverage(&groups, &selection[..selection.len() - 1], &reference);
            prop_assert!(q.coverage >= partial - 1e-12);
        }
    }
}
