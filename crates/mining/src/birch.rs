//! BIRCH clustering (Zhang, Ramakrishnan & Livny, SIGMOD'96 \[18\]) — the
//! paper's group discovery plug-in for numeric user features on streams.
//!
//! BIRCH summarizes points into **clustering features** `CF = (N, LS, SS)`
//! (count, linear sum, square sum), which are additive and sufficient to
//! compute centroids and radii. CFs live in a height-balanced **CF-tree**
//! with branching factor `B` and absorption threshold `T`; each point
//! descends to the closest leaf entry and is absorbed if the entry's radius
//! stays under `T`, else starts a new entry, splitting nodes that overflow.
//!
//! Unlike textbook BIRCH we also record the member ids per leaf entry, since
//! VEXUS groups need explicit member sets. Leaf entries become groups with
//! empty token descriptions (`<cluster>` groups).

use crate::bitmap::MemberSet;
use crate::group::{Group, GroupSet};

/// Additive clustering feature.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringFeature {
    /// Number of points.
    pub n: usize,
    /// Per-dimension linear sum.
    pub ls: Vec<f64>,
    /// Sum of squared norms.
    pub ss: f64,
}

impl ClusteringFeature {
    /// CF of a single point.
    pub fn of_point(x: &[f64]) -> Self {
        Self {
            n: 1,
            ls: x.to_vec(),
            ss: x.iter().map(|v| v * v).sum(),
        }
    }

    /// CF of zero points in `dim` dimensions.
    pub fn empty(dim: usize) -> Self {
        Self {
            n: 0,
            ls: vec![0.0; dim],
            ss: 0.0,
        }
    }

    /// CF additivity: absorb another CF.
    pub fn merge(&mut self, other: &ClusteringFeature) {
        self.n += other.n;
        for (a, b) in self.ls.iter_mut().zip(&other.ls) {
            *a += b;
        }
        self.ss += other.ss;
    }

    /// Cluster centroid.
    pub fn centroid(&self) -> Vec<f64> {
        if self.n == 0 {
            return self.ls.clone();
        }
        self.ls.iter().map(|v| v / self.n as f64).collect()
    }

    /// RMS radius: sqrt(E[|x - c|^2]) from the sufficient statistics.
    pub fn radius(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let c2: f64 = self.ls.iter().map(|v| (v / n) * (v / n)).sum();
        (self.ss / n - c2).max(0.0).sqrt()
    }

    /// Squared Euclidean distance between centroids.
    pub fn centroid_dist2(&self, other: &ClusteringFeature) -> f64 {
        let ca = self.centroid();
        let cb = other.centroid();
        ca.iter().zip(&cb).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

/// Configuration for the CF-tree.
#[derive(Debug, Clone)]
pub struct BirchConfig {
    /// Branching factor: max entries per node.
    pub branching: usize,
    /// Absorption threshold on entry radius.
    pub threshold: f64,
    /// Dimensionality of the feature space.
    pub dim: usize,
}

impl Default for BirchConfig {
    fn default() -> Self {
        Self {
            branching: 8,
            threshold: 0.5,
            dim: 2,
        }
    }
}

#[derive(Debug)]
enum Node {
    Internal {
        entries: Vec<(ClusteringFeature, Box<Node>)>,
    },
    Leaf {
        entries: Vec<LeafEntry>,
    },
}

#[derive(Debug)]
struct LeafEntry {
    cf: ClusteringFeature,
    members: Vec<u32>,
}

/// An incremental BIRCH CF-tree over `(user, feature-vector)` points.
#[derive(Debug)]
pub struct BirchTree {
    cfg: BirchConfig,
    root: Node,
}

impl BirchTree {
    /// Empty tree.
    pub fn new(cfg: BirchConfig) -> Self {
        assert!(cfg.branching >= 2, "branching factor must be >= 2");
        assert!(cfg.dim >= 1, "need at least one feature dimension");
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            cfg,
        }
    }

    /// Insert one point.
    ///
    /// # Panics
    /// Panics if `x.len() != cfg.dim`.
    pub fn insert(&mut self, user: u32, x: &[f64]) {
        assert_eq!(x.len(), self.cfg.dim, "feature dimensionality mismatch");
        let cf = ClusteringFeature::of_point(x);
        if let Some((left, right)) = Self::insert_rec(&mut self.root, user, &cf, &self.cfg) {
            // Root split: grow the tree by one level.
            let old = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    entries: Vec::new(),
                },
            );
            drop(old); // children moved into left/right already
            let le = (Self::node_cf(&left, self.cfg.dim), Box::new(left));
            let ri = (Self::node_cf(&right, self.cfg.dim), Box::new(right));
            self.root = Node::Internal {
                entries: vec![le, ri],
            };
        }
    }

    /// Recursive insert; returns `Some((left, right))` when the node split.
    fn insert_rec(
        node: &mut Node,
        user: u32,
        cf: &ClusteringFeature,
        cfg: &BirchConfig,
    ) -> Option<(Node, Node)> {
        match node {
            Node::Leaf { entries } => {
                // Closest entry by centroid distance.
                let closest = entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.cf.centroid_dist2(cf)
                            .partial_cmp(&b.cf.centroid_dist2(cf))
                            .expect("finite distances")
                    })
                    .map(|(i, _)| i);
                if let Some(i) = closest {
                    // Tentatively absorb and check the radius constraint.
                    let mut merged = entries[i].cf.clone();
                    merged.merge(cf);
                    if merged.radius() <= cfg.threshold {
                        entries[i].cf = merged;
                        entries[i].members.push(user);
                        return None;
                    }
                }
                entries.push(LeafEntry {
                    cf: cf.clone(),
                    members: vec![user],
                });
                if entries.len() > cfg.branching {
                    let (l, r) = Self::split_leaf(std::mem::take(entries), cfg.dim);
                    return Some((l, r));
                }
                None
            }
            Node::Internal { entries } => {
                let i = entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, (a, _)), (_, (b, _))| {
                        a.centroid_dist2(cf)
                            .partial_cmp(&b.centroid_dist2(cf))
                            .expect("finite distances")
                    })
                    .map(|(i, _)| i)
                    .expect("internal nodes are never empty");
                let split = Self::insert_rec(&mut entries[i].1, user, cf, cfg);
                // Update the routing CF along the path.
                entries[i].0.merge(cf);
                if let Some((l, r)) = split {
                    // Replace the split child with its two halves.
                    entries.remove(i);
                    entries.push((Self::node_cf(&l, cfg.dim), Box::new(l)));
                    entries.push((Self::node_cf(&r, cfg.dim), Box::new(r)));
                    if entries.len() > cfg.branching {
                        let (l, r) = Self::split_internal(std::mem::take(entries), cfg.dim);
                        return Some((l, r));
                    }
                }
                None
            }
        }
    }

    /// Split leaf entries by the farthest pair seeding (classic BIRCH).
    fn split_leaf(entries: Vec<LeafEntry>, dim: usize) -> (Node, Node) {
        let (ia, ib) = Self::farthest_pair(entries.iter().map(|e| &e.cf));
        let mut left = Vec::new();
        let mut right = Vec::new();
        let ca = entries[ia].cf.centroid();
        let cb = entries[ib].cf.centroid();
        for e in entries {
            let c = e.cf.centroid();
            let da: f64 = c.iter().zip(&ca).map(|(x, y)| (x - y) * (x - y)).sum();
            let db: f64 = c.iter().zip(&cb).map(|(x, y)| (x - y) * (x - y)).sum();
            if da <= db {
                left.push(e);
            } else {
                right.push(e);
            }
        }
        // Guard: seeding guarantees both sides non-empty, but keep a
        // fallback for degenerate identical centroids.
        if left.is_empty() {
            left.push(right.pop().expect("at least two entries when splitting"));
        }
        if right.is_empty() {
            right.push(left.pop().expect("at least two entries when splitting"));
        }
        let _ = dim;
        (Node::Leaf { entries: left }, Node::Leaf { entries: right })
    }

    fn split_internal(entries: Vec<(ClusteringFeature, Box<Node>)>, dim: usize) -> (Node, Node) {
        let (ia, ib) = Self::farthest_pair(entries.iter().map(|e| &e.0));
        let ca = entries[ia].0.centroid();
        let cb = entries[ib].0.centroid();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for e in entries {
            let c = e.0.centroid();
            let da: f64 = c.iter().zip(&ca).map(|(x, y)| (x - y) * (x - y)).sum();
            let db: f64 = c.iter().zip(&cb).map(|(x, y)| (x - y) * (x - y)).sum();
            if da <= db {
                left.push(e);
            } else {
                right.push(e);
            }
        }
        if left.is_empty() {
            left.push(right.pop().expect("at least two entries when splitting"));
        }
        if right.is_empty() {
            right.push(left.pop().expect("at least two entries when splitting"));
        }
        let _ = dim;
        (
            Node::Internal { entries: left },
            Node::Internal { entries: right },
        )
    }

    fn farthest_pair<'a>(cfs: impl Iterator<Item = &'a ClusteringFeature>) -> (usize, usize) {
        let cfs: Vec<&ClusteringFeature> = cfs.collect();
        let mut best = (0, if cfs.len() > 1 { 1 } else { 0 });
        let mut best_d = -1.0;
        for i in 0..cfs.len() {
            for j in i + 1..cfs.len() {
                let d = cfs[i].centroid_dist2(cfs[j]);
                if d > best_d {
                    best_d = d;
                    best = (i, j);
                }
            }
        }
        best
    }

    fn node_cf(node: &Node, dim: usize) -> ClusteringFeature {
        let mut cf = ClusteringFeature::empty(dim);
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    cf.merge(&e.cf);
                }
            }
            Node::Internal { entries } => {
                for (child_cf, _) in entries {
                    cf.merge(child_cf);
                }
            }
        }
        cf
    }

    /// Collect all leaf entries as `(centroid, members)`.
    pub fn clusters(&self) -> Vec<(Vec<f64>, Vec<u32>)> {
        let mut out = Vec::new();
        Self::collect(&self.root, &mut out);
        out
    }

    fn collect(node: &Node, out: &mut Vec<(Vec<f64>, Vec<u32>)>) {
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    out.push((e.cf.centroid(), e.members.clone()));
                }
            }
            Node::Internal { entries } => {
                for (_, child) in entries {
                    Self::collect(child, out);
                }
            }
        }
    }

    /// Convert leaf entries with at least `min_size` members into groups.
    pub fn into_groups(self, min_size: usize) -> GroupSet {
        let mut gs = GroupSet::new();
        for (_, members) in self.clusters() {
            if members.len() >= min_size {
                gs.push(Group::new(Vec::new(), MemberSet::from_unsorted(members)));
            }
        }
        gs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cf_additivity() {
        let a = ClusteringFeature::of_point(&[1.0, 2.0]);
        let b = ClusteringFeature::of_point(&[3.0, 4.0]);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.n, 2);
        assert_eq!(ab.ls, vec![4.0, 6.0]);
        assert!((ab.ss - (1.0 + 4.0 + 9.0 + 16.0)).abs() < 1e-12);
        assert_eq!(ab.centroid(), vec![2.0, 3.0]);
    }

    #[test]
    fn cf_radius_of_identical_points_is_zero() {
        let mut cf = ClusteringFeature::of_point(&[5.0, 5.0]);
        cf.merge(&ClusteringFeature::of_point(&[5.0, 5.0]));
        assert!(cf.radius() < 1e-9);
    }

    #[test]
    fn separated_blobs_land_in_separate_clusters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tree = BirchTree::new(BirchConfig {
            branching: 4,
            threshold: 1.0,
            dim: 2,
        });
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut truth = Vec::new();
        for u in 0..300u32 {
            let c = (u % 3) as usize;
            truth.push(c);
            let x = [
                centers[c].0 + rng.gen::<f64>() * 0.5,
                centers[c].1 + rng.gen::<f64>() * 0.5,
            ];
            tree.insert(u, &x);
        }
        let clusters = tree.clusters();
        let clustered: usize = clusters.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(clustered, 300);
        // Every cluster must be pure: all members from the same blob.
        for (_, members) in &clusters {
            let blobs: std::collections::HashSet<usize> =
                members.iter().map(|&u| truth[u as usize]).collect();
            assert_eq!(blobs.len(), 1, "impure cluster: {members:?}");
        }
        // And all points must be accounted for.
        let total: usize = clusters.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn into_groups_filters_small_clusters() {
        let mut tree = BirchTree::new(BirchConfig {
            branching: 3,
            threshold: 0.1,
            dim: 1,
        });
        for u in 0..20u32 {
            tree.insert(u, &[0.0]);
        }
        tree.insert(99, &[100.0]);
        let gs = tree.into_groups(5);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs.get(crate::group::GroupId::new(0)).size(), 20);
    }

    #[test]
    fn tree_grows_beyond_one_level() {
        // Tiny branching + tiny threshold forces depth > 1.
        let mut tree = BirchTree::new(BirchConfig {
            branching: 2,
            threshold: 0.01,
            dim: 1,
        });
        for u in 0..64u32 {
            tree.insert(u, &[u as f64 * 10.0]);
        }
        let clusters = tree.clusters();
        assert_eq!(clusters.len(), 64, "each point isolated by tiny threshold");
        let total: usize = clusters.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_panics() {
        let mut tree = BirchTree::new(BirchConfig::default());
        tree.insert(0, &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_no_point_lost(points in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0), 1..120),
            branching in 2usize..6,
            threshold in 0.1f64..20.0
        ) {
            let mut tree = BirchTree::new(BirchConfig { branching, threshold, dim: 2 });
            for (u, (x, y)) in points.iter().enumerate() {
                tree.insert(u as u32, &[*x, *y]);
            }
            let clusters = tree.clusters();
            let mut all: Vec<u32> = clusters.iter().flat_map(|(_, m)| m.iter().copied()).collect();
            all.sort_unstable();
            let expect: Vec<u32> = (0..points.len() as u32).collect();
            prop_assert_eq!(all, expect);
        }

        #[test]
        fn prop_cluster_radius_bounded(points in proptest::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0), 2..80)
        ) {
            let threshold = 1.5;
            let mut tree = BirchTree::new(BirchConfig { branching: 4, threshold, dim: 2 });
            for (u, (x, y)) in points.iter().enumerate() {
                tree.insert(u as u32, &[*x, *y]);
            }
            // Recompute each cluster's true RMS radius from raw points; it
            // must respect the absorption threshold (absorption is only
            // accepted when the merged radius stays under it).
            for (_, members) in tree.clusters() {
                let pts: Vec<&(f64, f64)> =
                    members.iter().map(|&u| &points[u as usize]).collect();
                let n = pts.len() as f64;
                let cx = pts.iter().map(|p| p.0).sum::<f64>() / n;
                let cy = pts.iter().map(|p| p.1).sum::<f64>() / n;
                let ms = pts
                    .iter()
                    .map(|p| (p.0 - cx).powi(2) + (p.1 - cy).powi(2))
                    .sum::<f64>()
                    / n;
                prop_assert!(ms.sqrt() <= threshold + 1e-9);
            }
        }
    }
}
