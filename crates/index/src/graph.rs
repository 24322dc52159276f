//! The group graph `G`: "Groups form a disconnected undirected graph G
//! where an edge exists between two groups if they are not disjoint. Group
//! exploration is a navigation in that graph."

use crate::inverted::{MemberGroupsCsr, RowScratch};
use vexus_mining::{GroupId, GroupSet};

/// Undirected overlap graph over groups.
#[derive(Debug, Clone)]
pub struct OverlapGraph {
    /// Sorted adjacency per group.
    adjacency: Vec<Vec<u32>>,
}

impl OverlapGraph {
    /// Build from a group set (computes the member→groups map internally;
    /// an engine's index retains one — see
    /// [`crate::GroupIndex::overlap_graph`]).
    pub fn build(groups: &GroupSet) -> Self {
        Self::from_member_groups(groups, &MemberGroupsCsr::build(groups))
    }

    /// Build from the member→groups CSR of `groups`: a node's adjacency is
    /// the ids its index row touches, sorted — nothing is pushed per
    /// co-membership, so the peak is the output.
    pub(crate) fn from_member_groups(groups: &GroupSet, member_groups: &MemberGroupsCsr) -> Self {
        let mut scratch = RowScratch::new(groups.len());
        let mut row: Vec<u32> = Vec::new();
        let adjacency = groups
            .ids()
            .map(|g| {
                row.clear();
                scratch.overlaps(member_groups, groups, g, |h, _| row.push(h));
                row.sort_unstable();
                row.clone()
            })
            .collect();
        Self { adjacency }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbors of `g` (groups sharing at least one member).
    pub fn neighbors(&self, g: GroupId) -> impl Iterator<Item = GroupId> + '_ {
        self.adjacency[g.index()].iter().map(|&h| GroupId::new(h))
    }

    /// Degree of `g`.
    pub fn degree(&self, g: GroupId) -> usize {
        self.adjacency[g.index()].len()
    }

    /// Whether two groups are adjacent.
    pub fn adjacent(&self, a: GroupId, b: GroupId) -> bool {
        self.adjacency[a.index()].binary_search(&b.0).is_ok()
    }

    /// Connected components, each a sorted list of group ids. The paper
    /// calls G "disconnected" — exploration can only reach groups in the
    /// current component without restarting.
    pub fn components(&self) -> Vec<Vec<GroupId>> {
        let n = self.adjacency.len();
        let mut comp = vec![usize::MAX; n];
        let mut out: Vec<Vec<GroupId>> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = out.len();
            out.push(Vec::new());
            comp[start] = c;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                out[c].push(GroupId::new(v as u32));
                for &w in &self.adjacency[v] {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = c;
                        queue.push_back(w as usize);
                    }
                }
            }
            out[c].sort_unstable();
        }
        out
    }

    /// Shortest path (fewest hops) between two groups, if connected.
    /// Returned path includes both endpoints.
    pub fn shortest_path(&self, from: GroupId, to: GroupId) -> Option<Vec<GroupId>> {
        if from == to {
            return Some(vec![from]);
        }
        let n = self.adjacency.len();
        let mut prev = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        prev[from.index()] = from.0;
        queue.push_back(from.0);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v as usize] {
                if prev[w as usize] == u32::MAX {
                    prev[w as usize] = v;
                    if w == to.0 {
                        // Reconstruct.
                        let mut path = vec![to];
                        let mut cur = v;
                        while cur != from.0 {
                            path.push(GroupId::new(cur));
                            cur = prev[cur as usize];
                        }
                        path.push(from);
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// Eccentric upper bound on exploration length: BFS depth from `g` to
    /// the farthest reachable group.
    pub fn eccentricity(&self, g: GroupId) -> usize {
        let n = self.adjacency.len();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[g.index()] = 0;
        queue.push_back(g.0);
        let mut max = 0;
        while let Some(v) = queue.pop_front() {
            for &w in &self.adjacency[v as usize] {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    max = max.max(dist[w as usize]);
                    queue.push_back(w);
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_mining::{Group, MemberSet};

    fn chain_groups() -> GroupSet {
        // g0-{0,1}, g1-{1,2}, g2-{2,3}, g3-{10} (isolated)
        let mut gs = GroupSet::new();
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![0, 1])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![2, 3])));
        gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![10])));
        gs
    }

    #[test]
    fn edges_iff_overlap() {
        let g = OverlapGraph::build(&chain_groups());
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 2);
        assert!(g.adjacent(GroupId::new(0), GroupId::new(1)));
        assert!(g.adjacent(GroupId::new(1), GroupId::new(2)));
        assert!(!g.adjacent(GroupId::new(0), GroupId::new(2)));
        assert_eq!(g.degree(GroupId::new(3)), 0);
    }

    #[test]
    fn components_split_disconnected_graph() {
        let g = OverlapGraph::build(&chain_groups());
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(Vec::len).collect();
        assert!(sizes.contains(&3) && sizes.contains(&1));
    }

    #[test]
    fn shortest_path_through_chain() {
        let g = OverlapGraph::build(&chain_groups());
        let p = g.shortest_path(GroupId::new(0), GroupId::new(2)).unwrap();
        assert_eq!(p, vec![GroupId::new(0), GroupId::new(1), GroupId::new(2)]);
        assert!(g.shortest_path(GroupId::new(0), GroupId::new(3)).is_none());
        assert_eq!(
            g.shortest_path(GroupId::new(1), GroupId::new(1)).unwrap(),
            vec![GroupId::new(1)]
        );
    }

    #[test]
    fn eccentricity_of_chain_end() {
        let g = OverlapGraph::build(&chain_groups());
        assert_eq!(g.eccentricity(GroupId::new(0)), 2);
        assert_eq!(g.eccentricity(GroupId::new(1)), 1);
        assert_eq!(g.eccentricity(GroupId::new(3)), 0);
    }

    #[test]
    fn dense_overlap_is_clique() {
        // Three groups all sharing user 5.
        let mut gs = GroupSet::new();
        for extra in 0..3u32 {
            gs.push(Group::new(
                vec![],
                MemberSet::from_unsorted(vec![5, 100 + extra]),
            ));
        }
        let g = OverlapGraph::build(&gs);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = OverlapGraph::build(&GroupSet::new());
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.n_edges(), 0);
        assert!(g.components().is_empty());
    }
}
