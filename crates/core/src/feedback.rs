//! Feedback learning — the CONTEXT view's state.
//!
//! "Feedback is considered as a probability vector over all users and
//! demographic values. Once the explorer decides to explore a group g,
//! VEXUS interprets this choice as a positive feedback and increases the
//! score of g's members and their common activities described in g inside
//! the feedback vector. The vector is always kept normalized, i.e., all
//! scores in the vector add up to 1.0. … She can easily unlearn (i.e.,
//! make VEXUS forget about a user or a demographic value) by deleting it
//! from CONTEXT."
//!
//! Representation: sparse maps over [`UserId`]s and [`TokenId`]s whose
//! values always sum to 1 (when non-empty). Rewarding multiplies mass into
//! the rewarded entries and renormalizes, so un-rewarded entries decay
//! geometrically toward zero — exactly the "gradually end up with a lower
//! score tending to zero" behaviour the paper describes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use vexus_data::{TokenId, UserId};
use vexus_mining::Group;

/// Fixed-seed 64-bit multiply/xor hasher (FxHash-style). `std`'s default
/// `RandomState` seeds each map differently, which permutes iteration
/// order per *instance*; the floating-point sums in
/// [`FeedbackVector::group_affinity`] and `prune_and_normalize` then
/// differ by a few ulps between two sessions replaying the same clicks,
/// and an ulp is enough to flip a greedy tie. A deterministic hasher
/// makes every replay of a click sequence bit-identical — the property
/// `tests/concurrent_serving.rs` pins.
#[derive(Debug, Default, Clone, Copy)]
struct DetHasher(u64);

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type DetMap<K> = HashMap<K, f64, BuildHasherDefault<DetHasher>>;

/// Fraction of new mass granted per positive feedback event.
const LEARNING_RATE: f64 = 0.3;

/// The normalized feedback vector over users and demographic values.
#[derive(Debug, Clone, Default)]
pub struct FeedbackVector {
    users: DetMap<UserId>,
    tokens: DetMap<TokenId>,
}

impl FeedbackVector {
    /// Fresh, empty vector (uniform/no bias).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no feedback has been recorded (or everything was unlearned).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty() && self.tokens.is_empty()
    }

    /// Total mass (1.0 when non-empty, 0.0 when empty) — the invariant the
    /// property tests pin down.
    pub fn total_mass(&self) -> f64 {
        self.users.values().sum::<f64>() + self.tokens.values().sum::<f64>()
    }

    /// Record positive feedback for a clicked group: reward its members and
    /// the demographic values in its description, then renormalize.
    pub fn reward_group(&mut self, group: &Group) {
        let member_count = group.members.len();
        let token_count = group.description.len();
        if member_count + token_count == 0 {
            return;
        }
        let new_mass = if self.is_empty() { 1.0 } else { LEARNING_RATE };
        // Existing mass shrinks to (1 - new_mass).
        if !self.is_empty() {
            let keep = 1.0 - new_mass;
            for v in self.users.values_mut() {
                *v *= keep;
            }
            for v in self.tokens.values_mut() {
                *v *= keep;
            }
        }
        // Half the new mass to members, half to described values (or all of
        // it to whichever side is non-empty).
        let (user_share, token_share) = match (member_count, token_count) {
            (0, _) => (0.0, new_mass),
            (_, 0) => (new_mass, 0.0),
            _ => (new_mass / 2.0, new_mass / 2.0),
        };
        if member_count > 0 {
            let per_user = user_share / member_count as f64;
            for u in group.members.iter() {
                *self.users.entry(UserId::new(u)).or_insert(0.0) += per_user;
            }
        }
        if token_count > 0 {
            let per_token = token_share / token_count as f64;
            for &t in &group.description {
                *self.tokens.entry(t).or_insert(0.0) += per_token;
            }
        }
        self.prune_and_normalize();
    }

    /// Unlearn a demographic value: delete it from CONTEXT and renormalize.
    pub fn unlearn_token(&mut self, token: TokenId) {
        self.tokens.remove(&token);
        self.prune_and_normalize();
    }

    /// Unlearn a user.
    pub fn unlearn_user(&mut self, user: UserId) {
        self.users.remove(&user);
        self.prune_and_normalize();
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.users.clear();
        self.tokens.clear();
    }

    /// Score of a user (0 if never rewarded).
    pub fn user_score(&self, user: UserId) -> f64 {
        self.users.get(&user).copied().unwrap_or(0.0)
    }

    /// Score of a demographic value.
    pub fn token_score(&self, token: TokenId) -> f64 {
        self.tokens.get(&token).copied().unwrap_or(0.0)
    }

    /// Affinity of a candidate group with the current feedback: the mass of
    /// its members plus the mass of its describing values, normalized to
    /// `[0, 1]`. This is what weights similarity in the greedy selector:
    /// "a group which is highly in line with the feedback received so far
    /// gets a higher weight".
    pub fn group_affinity(&self, group: &Group) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut mass = 0.0;
        // Iterate the smaller side: sparse feedback vs group members.
        if self.users.len() <= group.members.len() {
            for (u, v) in &self.users {
                if group.members.contains(u.raw()) {
                    mass += v;
                }
            }
        } else {
            for u in group.members.iter() {
                mass += self.user_score(UserId::new(u));
            }
        }
        for &t in &group.description {
            mass += self.token_score(t);
        }
        mass.clamp(0.0, 1.0)
    }

    /// The CONTEXT display: top-`n` entries, highest score first, as
    /// `(entry, score)` with entries described by the caller-supplied
    /// labelers.
    pub fn context_view(&self, n: usize) -> ContextView {
        let mut users: Vec<(UserId, f64)> = self.users.iter().map(|(&u, &s)| (u, s)).collect();
        users.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        users.truncate(n);
        let mut tokens: Vec<(TokenId, f64)> = self.tokens.iter().map(|(&t, &s)| (t, s)).collect();
        tokens.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        tokens.truncate(n);
        ContextView { users, tokens }
    }

    fn prune_and_normalize(&mut self) {
        // Drop entries that have decayed to numerically-zero mass; the
        // paper's "tending to zero" made concrete.
        self.users.retain(|_, v| *v > 1e-12);
        self.tokens.retain(|_, v| *v > 1e-12);
        let total = self.total_mass();
        if total <= 0.0 {
            self.clear();
            return;
        }
        for v in self.users.values_mut() {
            *v /= total;
        }
        for v in self.tokens.values_mut() {
            *v /= total;
        }
    }
}

/// Snapshot of the CONTEXT module: the current bias, visible to the
/// explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextView {
    /// Top users by feedback score.
    pub users: Vec<(UserId, f64)>,
    /// Top demographic values by feedback score.
    pub tokens: Vec<(TokenId, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vexus_mining::MemberSet;

    fn group(members: &[u32], tokens: &[u32]) -> Group {
        Group::new(
            tokens.iter().map(|&t| TokenId::new(t)).collect(),
            MemberSet::from_unsorted(members.to_vec()),
        )
    }

    #[test]
    fn reward_normalizes_to_one() {
        let mut fb = FeedbackVector::new();
        assert_eq!(fb.total_mass(), 0.0);
        fb.reward_group(&group(&[1, 2, 3], &[0, 1]));
        assert!((fb.total_mass() - 1.0).abs() < 1e-12);
        fb.reward_group(&group(&[3, 4], &[1]));
        assert!((fb.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rewarded_entries_gain_unrewarded_decay() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[1], &[0]));
        let before_u1 = fb.user_score(UserId::new(1));
        // Reward a different group repeatedly.
        for _ in 0..10 {
            fb.reward_group(&group(&[2], &[1]));
        }
        let after_u1 = fb.user_score(UserId::new(1));
        assert!(after_u1 < before_u1);
        assert!(
            after_u1 < 0.02,
            "old feedback should tend to zero, got {after_u1}"
        );
        assert!(fb.user_score(UserId::new(2)) > 0.2);
    }

    #[test]
    fn unlearn_removes_and_renormalizes() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[1, 2], &[0, 1]));
        fb.unlearn_token(TokenId::new(0));
        assert_eq!(fb.token_score(TokenId::new(0)), 0.0);
        assert!((fb.total_mass() - 1.0).abs() < 1e-12);
        fb.unlearn_user(UserId::new(1));
        fb.unlearn_user(UserId::new(2));
        fb.unlearn_token(TokenId::new(1));
        assert!(fb.is_empty());
        assert_eq!(fb.total_mass(), 0.0);
    }

    #[test]
    fn affinity_favors_in_feedback_groups() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[1, 2, 3], &[0]));
        let aligned = fb.group_affinity(&group(&[1, 2, 3], &[0]));
        let disjoint = fb.group_affinity(&group(&[9, 10], &[5]));
        assert!(aligned > 0.9, "aligned affinity {aligned}");
        assert_eq!(disjoint, 0.0);
        // Partial overlap in between.
        let partial = fb.group_affinity(&group(&[1, 9], &[5]));
        assert!(partial > 0.0 && partial < aligned);
    }

    #[test]
    fn affinity_of_empty_feedback_is_zero() {
        let fb = FeedbackVector::new();
        assert_eq!(fb.group_affinity(&group(&[1], &[0])), 0.0);
    }

    #[test]
    fn context_view_is_sorted_and_truncated() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[1], &[0]));
        fb.reward_group(&group(&[2], &[1]));
        fb.reward_group(&group(&[2], &[1]));
        let ctx = fb.context_view(1);
        assert_eq!(ctx.users.len(), 1);
        assert_eq!(ctx.users[0].0, UserId::new(2));
        assert_eq!(ctx.tokens[0].0, TokenId::new(1));
        let full = fb.context_view(10);
        assert_eq!(full.users.len(), 2);
        assert!(full.users[0].1 >= full.users[1].1);
    }

    #[test]
    fn empty_group_reward_is_noop() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[], &[]));
        assert!(fb.is_empty());
    }

    #[test]
    fn description_only_group_rewards_tokens() {
        let mut fb = FeedbackVector::new();
        fb.reward_group(&group(&[], &[3, 4]));
        assert!((fb.token_score(TokenId::new(3)) - 0.5).abs() < 1e-12);
        assert!((fb.total_mass() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_mass_invariant_under_any_op_sequence(
            ops in proptest::collection::vec(
                (0usize..3,
                 proptest::collection::vec(0u32..20, 0..6),
                 proptest::collection::vec(0u32..10, 0..4)), 1..30)
        ) {
            let mut fb = FeedbackVector::new();
            for (kind, members, tokens) in ops {
                match kind {
                    0 => fb.reward_group(&group(&members, &tokens)),
                    1 => {
                        if let Some(&t) = tokens.first() {
                            fb.unlearn_token(TokenId::new(t));
                        }
                    }
                    _ => {
                        if let Some(&u) = members.first() {
                            fb.unlearn_user(UserId::new(u));
                        }
                    }
                }
                let mass = fb.total_mass();
                prop_assert!(
                    fb.is_empty() && mass == 0.0 || (mass - 1.0).abs() < 1e-9,
                    "mass invariant broken: {mass}"
                );
                // Scores are all non-negative.
                let ctx = fb.context_view(usize::MAX);
                prop_assert!(ctx.users.iter().all(|(_, s)| *s >= 0.0));
                prop_assert!(ctx.tokens.iter().all(|(_, s)| *s >= 0.0));
            }
        }

        #[test]
        fn prop_affinity_bounded(
            members in proptest::collection::vec(0u32..30, 1..10),
            tokens in proptest::collection::vec(0u32..10, 0..4),
            probe_members in proptest::collection::vec(0u32..30, 0..10),
            probe_tokens in proptest::collection::vec(0u32..10, 0..4)
        ) {
            let mut fb = FeedbackVector::new();
            fb.reward_group(&group(&members, &tokens));
            let a = fb.group_affinity(&group(&probe_members, &probe_tokens));
            prop_assert!((0.0..=1.0).contains(&a));
        }
    }
}
