//! Consistency of the visual layers against ground truth: STATS histograms
//! vs manual counts, crossfilter incremental vs naive under a brush storm,
//! focus-view projections, and GroupViz geometry.

use proptest::prelude::*;
use vexus::core::{EngineConfig, Vexus};
use vexus::data::synthetic::{dbauthors, DbAuthorsConfig};
use vexus::data::UserId;
use vexus::stats::{Crossfilter, StatsView};

fn engine() -> Vexus {
    let ds = dbauthors(&DbAuthorsConfig::tiny());
    Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty")
}

#[test]
fn stats_histograms_match_manual_counts() {
    let vexus = engine();
    let session = vexus.session().expect("session opens");
    let g = session.display()[0];
    let view = session.stats_view(g).expect("stats view");
    let data = vexus.data();
    for (attr, _) in data.schema().iter() {
        let hist = view.histogram(attr);
        // Manual count over group members.
        let mut manual: std::collections::HashMap<String, u64> = Default::default();
        for u in vexus.groups().get(g).members.iter() {
            let v = data.value(UserId::new(u), attr);
            let label = data.schema().value_label(attr, v).to_string();
            *manual.entry(label).or_insert(0) += 1;
        }
        for (label, count) in hist {
            assert_eq!(
                manual.get(&label).copied().unwrap_or(0),
                count,
                "histogram mismatch for {label}"
            );
        }
    }
}

#[test]
fn stats_share_sums_to_one() {
    let vexus = engine();
    let session = vexus.session().expect("session opens");
    let view = session
        .stats_view(session.display()[0])
        .expect("stats view");
    for (attr, _) in vexus.data().schema().iter() {
        let hist = view.histogram(attr);
        let total: f64 = hist
            .iter()
            .map(|(l, _)| view.share(attr, l).expect("label known"))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "shares must sum to 1, got {total}"
        );
    }
}

#[test]
fn focus_view_is_finite_and_complete() {
    let vexus = engine();
    let session = vexus.session().expect("session opens");
    for &g in session.display() {
        for (attr, _) in vexus.data().schema().iter().take(3) {
            let points = session.focus_view(g, attr).expect("focus view");
            assert_eq!(points.len(), vexus.groups().get(g).size());
            for (_, p, _) in &points {
                assert!(p[0].is_finite() && p[1].is_finite());
            }
        }
    }
}

#[test]
fn groupviz_geometry_is_sane() {
    let vexus = engine();
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    session.click(g).expect("click");
    let attr = vexus.data().schema().attr("gender").unwrap();
    let circles = session.groupviz(attr);
    assert_eq!(circles.len(), session.display().len());
    for c in &circles {
        // On canvas.
        assert!(c.x.is_finite() && c.y.is_finite());
        assert!(c.radius > 0.0);
        // Label matches the group description.
        assert_eq!(
            c.label,
            vexus
                .groups()
                .get(c.group)
                .label(vexus.vocab(), vexus.data().schema())
        );
    }
    // No pair overlaps (the clutter guarantee).
    for i in 0..circles.len() {
        for j in i + 1..circles.len() {
            let d = ((circles[i].x - circles[j].x).powi(2) + (circles[i].y - circles[j].y).powi(2))
                .sqrt();
            assert!(d + 1.0 >= circles[i].radius + circles[j].radius);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Brush storm over a 3-dimension crossfilter: incremental bookkeeping
    /// must match the naive recomputation after every operation.
    #[test]
    fn crossfilter_brush_storm(
        ops in proptest::collection::vec(
            (0usize..5, 0.0f64..100.0, 0.0f64..100.0,
             proptest::collection::vec(0u32..6, 0..5)), 1..40)
    ) {
        let n = 500usize;
        let mut cf = Crossfilter::new(n);
        let vals: Vec<f64> = (0..n).map(|i| (i * 37 % 100) as f64).collect();
        let d0 = cf.add_numeric(vals, &[20.0, 40.0, 60.0, 80.0]);
        let cats: Vec<u32> = (0..n).map(|i| (i * 13 % 6) as u32).collect();
        let d1 = cf.add_categorical(cats, 6);
        let acts: Vec<f64> = (0..n).map(|i| (i % 50) as f64).collect();
        let d2 = cf.add_numeric(acts, &[10.0, 25.0]);
        for (kind, a, b, cat_list) in ops {
            match kind {
                0 => cf.brush_range(d0, a.min(b), a.max(b)),
                1 => cf.brush_categories(d1, &cat_list),
                2 => cf.brush_range(d2, a.min(b), a.max(b)),
                3 => cf.clear_brush(d0),
                _ => cf.clear_brush(d1),
            }
            prop_assert!(cf.check_consistency(), "incremental state diverged");
        }
    }
}

#[test]
fn stats_view_brush_matches_crossfilter_semantics() {
    // Brushing gender must not change the gender histogram itself but must
    // constrain every other histogram (crossfilter semantics end to end).
    let vexus = engine();
    let session = vexus.session().expect("session opens");
    let g = session.display()[0];
    let mut view = session.stats_view(g).expect("stats view");
    let gender = vexus.data().schema().attr("gender").unwrap();
    let region = vexus.data().schema().attr("region").unwrap();
    let gender_before = view.histogram(gender);
    let region_before: u64 = view.histogram(region).iter().map(|(_, c)| c).sum();
    view.brush(gender, &["female"]);
    assert_eq!(
        view.histogram(gender),
        gender_before,
        "own histogram must not react"
    );
    let region_after: u64 = view.histogram(region).iter().map(|(_, c)| c).sum();
    assert!(region_after <= region_before);
    assert_eq!(
        region_after as usize,
        view.n_selected(),
        "other histograms reflect the selection"
    );
}

#[test]
fn stats_view_over_full_population() {
    let vexus = engine();
    let all: Vec<UserId> = vexus.data().users().collect();
    let view = StatsView::new(vexus.data(), all).expect("schema fits the view");
    assert_eq!(view.n_users(), vexus.data().n_users());
    let gender = vexus.data().schema().attr("gender").unwrap();
    let male = view.share(gender, "male").expect("share");
    assert!(
        (0.5..0.8).contains(&male),
        "male share {male} should be ~0.64"
    );
}
