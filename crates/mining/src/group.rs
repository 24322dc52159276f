//! The user-group type produced by every discovery algorithm.
//!
//! A group is "any set of users with at least one demographic or action in
//! common": a member set plus the conjunction of `(attribute, value)` tokens
//! all members share. Discovery algorithms return a [`GroupSet`]; the index
//! and exploration layers address groups by dense [`GroupId`].

use crate::bitmap::MemberSet;
use serde::{Deserialize, Serialize};
use vexus_data::{Schema, TokenId, Vocabulary};

/// Dense index of a group within a [`GroupSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Construct from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index widened for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One discovered user group.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// The conjunction of shared tokens describing the group (sorted;
    /// empty for purely-clustered groups, e.g. BIRCH leaves).
    pub description: Vec<TokenId>,
    /// The group's members.
    pub members: MemberSet,
}

impl Group {
    /// Create a group, normalizing the description order.
    pub fn new(mut description: Vec<TokenId>, members: MemberSet) -> Self {
        description.sort_unstable();
        description.dedup();
        Self {
            description,
            members,
        }
    }

    /// Number of members ("the size of circles reflects the number of users
    /// in groups").
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Human-readable description, e.g. `"gender=female & age=young"`.
    /// Groups without tokens (pure clusters) render as `"<cluster>"`.
    pub fn label(&self, vocab: &Vocabulary, schema: &Schema) -> String {
        if self.description.is_empty() {
            return "<cluster>".to_string();
        }
        self.description
            .iter()
            .map(|&t| vocab.label(t, schema))
            .collect::<Vec<_>>()
            .join(" & ")
    }

    /// Whether the description contains a token.
    pub fn describes(&self, token: TokenId) -> bool {
        self.description.binary_search(&token).is_ok()
    }

    /// Heap bytes owned by this group (description + members). Snapshot-
    /// loaded groups report only the description: their member sets are
    /// views into the shared buffer, accounted once at the engine level.
    pub fn heap_bytes(&self) -> usize {
        self.description.capacity() * std::mem::size_of::<TokenId>() + self.members.heap_bytes()
    }
}

/// An indexed collection of groups (the node set of the paper's group graph
/// `G`). Equality is order-sensitive (same groups, same ids), which is what
/// the parallel-merge determinism tests pin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSet {
    groups: Vec<Group>,
}

impl GroupSet {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of groups.
    pub fn from_groups(groups: Vec<Group>) -> Self {
        Self { groups }
    }

    /// Consume the collection into its groups, in id order (used by the
    /// shard/merge layer to remap and fold group spaces).
    pub fn into_vec(self) -> Vec<Group> {
        self.groups
    }

    /// Add a group, returning its id.
    pub fn push(&mut self, group: Group) -> GroupId {
        let id = GroupId::new(self.groups.len() as u32);
        self.groups.push(group);
        id
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Group by id.
    pub fn get(&self, id: GroupId) -> &Group {
        &self.groups[id.index()]
    }

    /// Iterate `(GroupId, &Group)`.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &Group)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId::new(i as u32), g))
    }

    /// All ids.
    pub fn ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.groups.len() as u32).map(GroupId::new)
    }

    /// Retain only groups with at least `min` and at most `max` members.
    /// Returns the number removed. Ids are re-assigned densely.
    pub fn filter_by_size(&mut self, min: usize, max: usize) -> usize {
        let before = self.groups.len();
        self.groups.retain(|g| (min..=max).contains(&g.size()));
        before - self.groups.len()
    }

    /// Total members across groups (with multiplicity).
    pub fn total_memberships(&self) -> usize {
        self.groups.iter().map(Group::size).sum()
    }

    /// Number of distinct users appearing in at least one group.
    pub fn distinct_users_covered(&self, n_users: usize) -> usize {
        let mut mask = vec![false; n_users];
        let mut covered = 0;
        for g in &self.groups {
            covered += g.members.mark_mask(&mut mask);
        }
        covered
    }

    /// Heap bytes owned by the collection (spine + per-group payloads).
    pub fn heap_bytes(&self) -> usize {
        self.groups.capacity() * std::mem::size_of::<Group>()
            + self.groups.iter().map(Group::heap_bytes).sum::<usize>()
    }
}

impl std::ops::Index<GroupId> for GroupSet {
    type Output = Group;

    fn index(&self, id: GroupId) -> &Group {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_data::{Schema, UserDataBuilder, Vocabulary};

    fn vocab_fixture() -> (Vocabulary, Schema) {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        let u1 = b.user("a");
        let u2 = b.user("b");
        b.set_demo(u1, g, "female").unwrap();
        b.set_demo(u2, g, "male").unwrap();
        let d = b.build();
        (Vocabulary::build(&d), d.schema().clone())
    }

    #[test]
    fn group_label_renders_tokens() {
        let (vocab, schema) = vocab_fixture();
        let g = Group::new(vec![TokenId::new(0)], MemberSet::from_unsorted(vec![0]));
        assert_eq!(g.label(&vocab, &schema), "gender=female");
        let cluster = Group::new(vec![], MemberSet::from_unsorted(vec![0, 1]));
        assert_eq!(cluster.label(&vocab, &schema), "<cluster>");
    }

    #[test]
    fn new_normalizes_description() {
        let g = Group::new(
            vec![TokenId::new(3), TokenId::new(1), TokenId::new(3)],
            MemberSet::empty(),
        );
        assert_eq!(g.description, vec![TokenId::new(1), TokenId::new(3)]);
        assert!(g.describes(TokenId::new(3)));
        assert!(!g.describes(TokenId::new(2)));
    }

    #[test]
    fn group_set_push_and_index() {
        let mut gs = GroupSet::new();
        let id0 = gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2])));
        let id1 = gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![2, 3, 4])));
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[id0].size(), 2);
        assert_eq!(gs[id1].size(), 3);
        assert_eq!(id1.to_string(), "g1");
    }

    #[test]
    fn filter_by_size() {
        let mut gs = GroupSet::new();
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2, 3])));
        let removed = gs.filter_by_size(2, 2);
        assert_eq!(removed, 2);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs.get(GroupId::new(0)).size(), 2);
    }

    #[test]
    fn memberships_and_coverage() {
        let mut gs = GroupSet::new();
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![0, 1])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2])));
        assert_eq!(gs.total_memberships(), 4);
        assert_eq!(gs.distinct_users_covered(5), 3);
    }
}
