//! Cross-crate property tests: CSV round-trips with arbitrary content,
//! stream codec framing, schema binning laws, graph structure, and greedy
//! selection invariants under random group spaces.

use proptest::prelude::*;
use vexus::core::greedy::{self, SelectParams};
use vexus::core::FeedbackVector;
use vexus::data::csv::{parse, write, CsvOptions};
use vexus::data::stream::codec;
use vexus::data::{Action, ItemId, Schema, UserId};
use vexus::index::OverlapGraph;
use vexus::mining::{Group, GroupId, GroupSet, MemberSet};

proptest! {
    /// Any table of printable content survives write -> parse, including
    /// embedded delimiters, quotes and newlines.
    #[test]
    fn csv_round_trips_arbitrary_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[ -~\n]{0,12}", 1..5), 0..12)
    ) {
        // All rows must be the same width for a meaningful table.
        let width = rows.first().map_or(1, Vec::len);
        let rows: Vec<Vec<String>> =
            rows.into_iter().map(|mut r| { r.resize(width, String::new()); r }).collect();
        let header: Vec<String> = (0..width).map(|i| format!("col{i}")).collect();
        let text = write(&header, &rows, CsvOptions::default());
        let parsed = parse(&text, CsvOptions::default()).unwrap();
        prop_assert_eq!(parsed.header, header);
        // Empty trailing rows collapse; compare only non-empty tables.
        prop_assert_eq!(parsed.records.len(), rows.len());
        for (a, b) in parsed.records.iter().zip(&rows) {
            prop_assert_eq!(a, b);
        }
    }

    /// The wire codec decodes exactly what was encoded, at any chunking.
    #[test]
    fn codec_round_trips_under_fragmentation(
        actions in proptest::collection::vec((0u32..1000, 0u32..1000, -100f32..100.0), 0..40),
        cut in 1usize..24
    ) {
        let actions: Vec<Action> = actions
            .into_iter()
            .map(|(u, i, v)| Action { user: UserId::new(u), item: ItemId::new(i), value: v })
            .collect();
        let encoded = codec::encode(&actions);
        let mut buf = bytes::BytesMut::new();
        let mut out = Vec::new();
        // Feed in arbitrary-sized chunks.
        for chunk in encoded.chunks(cut) {
            buf.extend_from_slice(chunk);
            codec::decode(&mut buf, &mut out);
        }
        prop_assert_eq!(out, actions);
        prop_assert!(buf.is_empty());
    }

    /// Numeric binning is monotone and total.
    #[test]
    fn schema_binning_is_monotone(
        raw_edges in proptest::collection::vec(-100f64..100.0, 1..6),
        xs in proptest::collection::vec(-200f64..200.0, 1..30)
    ) {
        let mut edges = raw_edges;
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        edges.dedup();
        let mut schema = Schema::new();
        let labels: Vec<String> = (0..=edges.len()).map(|i| format!("bin{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let attr = schema.add_numeric_labeled("x", &edges, &labels);
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bins: Vec<u32> = xs.iter().map(|&x| schema.bin_numeric(attr, x).raw()).collect();
        prop_assert!(bins.windows(2).all(|w| w[0] <= w[1]), "binning must be monotone");
        prop_assert!(bins.iter().all(|&b| (b as usize) <= edges.len()));
    }

    /// The overlap graph has an edge iff member sets intersect; components
    /// partition the node set.
    #[test]
    fn overlap_graph_structure(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..40, 1..10), 1..12)
    ) {
        let mut gs = GroupSet::new();
        for s in &sets {
            gs.push(Group::new(vec![], MemberSet::from_unsorted(s.clone())));
        }
        let graph = OverlapGraph::build(&gs);
        prop_assert_eq!(graph.n_nodes(), gs.len());
        for (a, ga) in gs.iter() {
            for (b, gb) in gs.iter() {
                if a != b {
                    prop_assert_eq!(
                        graph.adjacent(a, b),
                        ga.members.overlaps(&gb.members),
                        "adjacency must mirror overlap"
                    );
                }
            }
        }
        let comps = graph.components();
        let mut all: Vec<GroupId> = comps.iter().flatten().copied().collect();
        all.sort();
        let expect: Vec<GroupId> = gs.ids().collect();
        prop_assert_eq!(all, expect, "components must partition the nodes");
        // A shortest path exists iff both ends share a component.
        if gs.len() >= 2 {
            let a = GroupId::new(0);
            let b = GroupId::new(gs.len() as u32 - 1);
            let same = comps.iter().any(|c| c.contains(&a) && c.contains(&b));
            prop_assert_eq!(graph.shortest_path(a, b).is_some(), same);
        }
    }

    /// Greedy selection invariants on random group spaces: k respected, no
    /// duplicates, similarity floor respected, quality within bounds.
    #[test]
    fn greedy_selection_invariants(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..60, 1..20), 1..20),
        k in 1usize..8,
        min_similarity in 0.0f64..0.4
    ) {
        let mut gs = GroupSet::new();
        for s in &sets {
            gs.push(Group::new(vec![], MemberSet::from_unsorted(s.clone())));
        }
        let reference = MemberSet::universe(60);
        let candidates: Vec<(GroupId, f64)> = gs
            .ids()
            .map(|id| (id, gs.get(id).members.jaccard(&reference)))
            .collect();
        let params = SelectParams {
            k,
            budget: None,
            min_similarity,
            ..Default::default()
        };
        let out = greedy::select_k(&gs, &candidates, &reference, &FeedbackVector::new(), &params);
        prop_assert!(out.selection.len() <= k);
        let mut dedup = out.selection.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), out.selection.len(), "duplicate selections");
        for &g in &out.selection {
            let sim = gs.get(g).members.jaccard(&reference);
            prop_assert!(sim >= min_similarity - 1e-12, "similarity floor violated");
        }
        prop_assert!((0.0..=1.0).contains(&out.quality.diversity));
        prop_assert!((0.0..=1.0).contains(&out.quality.coverage));
        prop_assert!(!out.budget_exhausted, "unbounded run must converge");
    }

    /// Feedback affinity ordering: a group fully inside the rewarded set
    /// never scores below a disjoint group.
    #[test]
    fn feedback_affinity_ordering(
        rewarded in proptest::collection::vec(0u32..50, 1..20),
        inside_pick in proptest::collection::vec(0usize..20, 1..5),
        outside in proptest::collection::vec(50u32..100, 1..10)
    ) {
        let rewarded_set = MemberSet::from_unsorted(rewarded.clone());
        let mut fb = FeedbackVector::new();
        fb.reward_group(&Group::new(vec![], rewarded_set.clone()));
        let inside: Vec<u32> = inside_pick
            .iter()
            .map(|&i| rewarded_set.as_slice()[i % rewarded_set.len()])
            .collect();
        let g_in = Group::new(vec![], MemberSet::from_unsorted(inside));
        let g_out = Group::new(vec![], MemberSet::from_unsorted(outside));
        prop_assert!(fb.group_affinity(&g_in) >= fb.group_affinity(&g_out));
        prop_assert_eq!(fb.group_affinity(&g_out), 0.0);
    }
}
