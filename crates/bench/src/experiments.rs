//! One function per experiment id. Each returns a plain result struct —
//! the rows and headline numbers behind a paper figure or claim — whose
//! `Display` is the table the README's Experiments section indexes.
//! `tests/paper_claims.rs` asserts the claims on the structs; [`ALL`] is the
//! one registry the binary and the tests both read.
//!
//! Everything is seeded and machine-independent except the wall-clock
//! columns of `c1`, `c2` and `c8`, which are printed and never asserted. A
//! result that drove sessions under the paper's 100 ms step budget also
//! carries `budget_exhausted`, the number of steps that hit it: zero on a
//! quiet machine, and the first thing to read when a trajectory moved.

use crate::workloads;
use std::fmt;
use std::time::{Duration, Instant};
use vexus_core::engine::VexusBuilder;
use vexus_core::greedy::{self, ScoredCandidate, SelectParams};
use vexus_core::simulate::{run_mt, run_st, MtTask, Policy, StAccept, Wanted};
use vexus_core::{EngineConfig, FeedbackVector};
use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus_data::{UserId, Vocabulary};
use vexus_index::inverted::Neighbor;
use vexus_index::{GroupIndex, IndexConfig};
use vexus_mining::transactions::TransactionDb;
use vexus_mining::{
    BirchDiscovery, GroupDiscovery, GroupId, LcmConfig, LcmDiscovery, MemberSet, MomriConfig,
    MomriDiscovery, StreamFimConfig, StreamFimDiscovery,
};
use vexus_stats::Crossfilter;
use vexus_viz::force::{ForceConfig, ForceLayout};
use vexus_viz::lda::Lda;
use vexus_viz::pca::{silhouette, Pca};

/// An experiment's result: `Display` renders the paper table.
pub trait Record: fmt::Display {
    /// `(file name, contents)` of the renders the binary writes beside the
    /// table (only `f2` has any).
    fn renders(&self) -> Vec<(&'static str, &str)> {
        Vec::new()
    }
}

/// Runs one experiment and erases its result type.
pub type Runner = fn() -> Box<dyn Record>;

/// Every experiment, in report order.
pub const ALL: &[(&str, Runner)] = &[
    ("f1", || Box::new(f1_architecture())),
    ("f2", || Box::new(f2_views())),
    ("d1", || Box::new(d1_discovery_backends())),
    ("c1", || Box::new(c1_budget_sweep())),
    ("c2", || Box::new(c2_interaction_latency())),
    ("c3", || Box::new(c3_materialization())),
    ("c4", || Box::new(c4_committee_formation())),
    ("c5", || Box::new(c5_k_sweep())),
    ("c6", || Box::new(c6_group_space())),
    ("c7", || Box::new(c7_feedback_ablation())),
    ("c8", || Box::new(c8_crossfilter())),
    ("c9", || Box::new(c9_discussion_groups())),
    ("c10", || Box::new(c10_lda_vs_pca())),
    ("c11", || Box::new(c11_force_layout())),
    ("c12", || Box::new(c12_stats_drilldown())),
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Box<dyn Record>> {
    ALL.iter()
        .find(|(known, _)| *known == id)
        .map(|(_, runner)| runner())
}

fn header(f: &mut fmt::Formatter<'_>, id: &str, title: &str) -> fmt::Result {
    writeln!(f, "\n=== {} — {} ===", id.to_uppercase(), title)
}

/// The small BookCrossing slice `d1` and `c6` mine from scratch.
fn bookcrossing_3k() -> vexus_data::synthetic::SyntheticDataset {
    bookcrossing(&BookCrossingConfig {
        n_users: 3_000,
        n_books: 2_000,
        n_ratings: 20_000,
        n_communities: 8,
        seed: 42,
    })
}

// ---------------------------------------------------------------------------
// F1: architecture pipeline smoke (Fig. 1)
// ---------------------------------------------------------------------------

/// `f1`: one row per dataset of the Fig. 1 pipeline.
pub struct F1 {
    /// BookCrossing, then DB-AUTHORS.
    pub rows: Vec<F1Row>,
    /// Opening steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// One dataset through discovery → index → session open.
pub struct F1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Users in the dataset.
    pub users: usize,
    /// Actions in the dataset.
    pub actions: usize,
    /// Discovery backend that ran.
    pub algorithm: &'static str,
    /// Groups after the size filter.
    pub groups: usize,
    /// Materialized index entries.
    pub index_entries: usize,
    /// Index heap size.
    pub index_kib: usize,
    /// Groups on the opening display.
    pub shown: usize,
}

/// End-to-end pipeline over both datasets: ETL-shaped input → group
/// discovery → index generation → session open.
pub fn f1_architecture() -> F1 {
    let mut out = F1 {
        rows: Vec::new(),
        budget_exhausted: 0,
    };
    for (dataset, vexus) in [
        ("bookcrossing", workloads::bookcrossing_engine()),
        ("dbauthors", workloads::dbauthors_engine().0),
    ] {
        let index = vexus.index().stats();
        let session = vexus.session().expect("session opens");
        out.budget_exhausted += session.budget_exhausted_steps();
        out.rows.push(F1Row {
            dataset,
            users: vexus.data().n_users(),
            actions: vexus.data().n_actions(),
            algorithm: vexus.build_stats().algorithm,
            groups: vexus.groups().len(),
            index_entries: index.materialized_entries,
            index_kib: index.heap_bytes / 1024,
            shown: session.display().len(),
        });
    }
    out
}

impl fmt::Display for F1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "f1", "architecture pipeline (Fig. 1)")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>13}: users={} actions={} | discovery[{}]: {} groups | \
                 index: {} entries / {} KiB | session open: {} groups shown",
                r.dataset,
                r.users,
                r.actions,
                r.algorithm,
                r.groups,
                r.index_entries,
                r.index_kib,
                r.shown
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// F2: the five coordinated views (Fig. 2)
// ---------------------------------------------------------------------------

/// `f2`: the coordinated views of one scripted session.
pub struct F2 {
    /// GROUPVIZ, CONTEXT, HISTORY, MEMO and STATS as text.
    pub text: String,
    /// Groups on the display the views were rendered from.
    pub display_len: usize,
    /// GROUPVIZ circles laid out.
    pub circles: usize,
    /// Focus-view points projected.
    pub focus_points: usize,
    /// GROUPVIZ render.
    pub groupviz_svg: String,
    /// Focus-view render.
    pub focus_svg: String,
    /// STATS gender-histogram render.
    pub stats_gender_svg: String,
    /// Steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// A scripted session rendering GROUPVIZ, CONTEXT, STATS, HISTORY, MEMO and
/// the Focus view. The SVGs are returned, not written: the binary owns the
/// file system.
pub fn f2_views() -> F2 {
    let (vexus, _) = workloads::dbauthors_engine();
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    session.click(g).expect("click works");
    let shown = session.display()[0];
    session.memo_group(shown).expect("memo works");
    let first_member = vexus.groups().get(shown).members.iter().next();
    session.memo_user(UserId::new(
        first_member.expect("the displayed group has a member"),
    ));
    let mut text = session.render_text();

    // STATS view of the clicked group.
    let stats = session.stats_view(shown).expect("stats view");
    text.push_str("== STATS ==\n");
    text.push_str(&stats.render_text());

    let gender = vexus.data().schema().attr("gender").expect("gender exists");
    let circles = session.groupviz(gender);
    let mut doc = vexus_viz::svg::SvgDoc::new(800.0, 600.0);
    for c in &circles {
        doc.circle(c.x, c.y, c.radius, c.color, &c.label);
    }

    let focus_attr = vexus.data().schema().attr("topic").expect("topic exists");
    let focus = session.focus_view(shown, focus_attr).expect("focus view");
    let mut fdoc = vexus_viz::svg::SvgDoc::new(400.0, 400.0);
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for (_, p, _) in &focus {
        min_x = min_x.min(p[0]);
        max_x = max_x.max(p[0]);
        min_y = min_y.min(p[1]);
        max_y = max_y.max(p[1]);
    }
    let sx = 360.0 / (max_x - min_x).max(1e-9);
    let sy = 360.0 / (max_y - min_y).max(1e-9);
    for (_, p, class) in &focus {
        fdoc.point(
            20.0 + (p[0] - min_x) * sx,
            20.0 + (p[1] - min_y) * sy,
            vexus_viz::color::Palette::color(*class as usize),
        );
    }
    F2 {
        text,
        display_len: session.display().len(),
        circles: circles.len(),
        focus_points: focus.len(),
        groupviz_svg: doc.finish(),
        focus_svg: fdoc.finish(),
        stats_gender_svg: vexus_viz::svg::bar_chart("gender", &stats.histogram(gender), 420.0),
        budget_exhausted: session.budget_exhausted_steps(),
    }
}

impl fmt::Display for F2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "f2", "the five coordinated views (Fig. 2)")?;
        f.write_str(&self.text)?;
        writeln!(
            f,
            "SVG renders: groupviz.svg ({} circles), focus.svg ({} points), stats_gender.svg",
            self.circles, self.focus_points
        )
    }
}

impl Record for F2 {
    fn renders(&self) -> Vec<(&'static str, &str)> {
        vec![
            ("groupviz.svg", &self.groupviz_svg),
            ("focus.svg", &self.focus_svg),
            ("stats_gender.svg", &self.stats_gender_svg),
        ]
    }
}

// ---------------------------------------------------------------------------
// D1: discovery backend comparison
// ---------------------------------------------------------------------------

/// `d1`: one row per discovery backend over the same dataset.
pub struct D1 {
    /// LCM, α-MOMRI, BIRCH, stream FIM.
    pub rows: Vec<D1Row>,
    /// Steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// One backend's group space and a three-click navigability walk.
pub struct D1Row {
    /// Backend name.
    pub backend: &'static str,
    /// Groups after the size filter.
    pub groups: usize,
    /// Groups the size filter removed.
    pub filtered: usize,
    /// Share of users in at least one group.
    pub coverage: f64,
    /// Clicks (of three) that led to a non-empty display.
    pub steps_ok: usize,
    /// If the walk dead-ended: how many groups overlap the clicked one at
    /// all ([`GroupIndex::full_neighbor_count`]) — zero means the space
    /// offers no move, not that the engine lost one.
    pub dead_end_neighbors: Option<usize>,
}

/// The paper's pluggable discovery stage: run LCM, α-MOMRI, BIRCH and
/// stream FIM over the same dataset through the builder and compare group
/// counts, coverage and end-to-end navigability.
pub fn d1_discovery_backends() -> D1 {
    let backends: Vec<Box<dyn GroupDiscovery>> = vec![
        Box::new(LcmDiscovery::new(LcmConfig {
            min_support: 5,
            ..Default::default()
        })),
        Box::new(MomriDiscovery::new(MomriConfig::default())),
        Box::new(BirchDiscovery::default()),
        Box::new(StreamFimDiscovery::new(StreamFimConfig {
            support: 0.02,
            epsilon: 0.004,
            max_len: 3,
        })),
    ];
    let mut out = D1 {
        rows: Vec::new(),
        budget_exhausted: 0,
    };
    for backend in backends {
        let ds = bookcrossing_3k();
        let n_users = ds.data.n_users();
        let name = backend.name();
        let vexus = workloads::engine_over(ds, backend, EngineConfig::paper());
        // Navigability: three clicks through the space, always on the
        // first circle (an open or non-empty step always shows one).
        let mut session = vexus.session().expect("session opens");
        let mut steps_ok = 0usize;
        let mut dead_end_neighbors = None;
        while steps_ok < 3 {
            let g = session.display()[0];
            if session.click(g).expect("click works").is_empty() {
                dead_end_neighbors = Some(vexus.index().full_neighbor_count(g));
                break;
            }
            steps_ok += 1;
        }
        out.budget_exhausted += session.budget_exhausted_steps();
        out.rows.push(D1Row {
            backend: name,
            groups: vexus.groups().len(),
            filtered: vexus.build_stats().filtered_out,
            coverage: vexus.groups().distinct_users_covered(n_users) as f64 / n_users as f64,
            steps_ok,
            dead_end_neighbors,
        });
    }
    out
}

impl fmt::Display for D1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "d1",
            "pluggable discovery backends (LCM / α-MOMRI / BIRCH / stream FIM)",
        )?;
        writeln!(
            f,
            "{:>10} | {:>8} | {:>9} | {:>10} | {:>10}",
            "backend", "groups", "filtered", "coverage", "steps ok"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>10} | {:>8} | {:>9} | {:>9.1}% | {:>8}/3",
                r.backend,
                r.groups,
                r.filtered,
                r.coverage * 100.0,
                r.steps_ok
            )?;
        }
        writeln!(
            f,
            "(one builder, four backends: the offline discovery stage is a swappable plug-in)"
        )
    }
}

// ---------------------------------------------------------------------------
// C1: greedy time budget vs achieved diversity/coverage
// ---------------------------------------------------------------------------

/// `c1`: achieved quality per greedy time budget, means over five anchors.
pub struct C1 {
    /// One row per budget, ascending.
    pub rows: Vec<C1Row>,
    /// Mean diversity of the unbounded greedy.
    pub unbounded_diversity: f64,
    /// Mean coverage of the unbounded greedy.
    pub unbounded_coverage: f64,
}

/// Quality reached under one wall-clock budget.
pub struct C1Row {
    /// The greedy's time budget.
    pub budget: Duration,
    /// Mean diversity reached.
    pub diversity: f64,
    /// Mean coverage reached.
    pub coverage: f64,
    /// Mean share of the unbounded diversity (each anchor capped at 1).
    pub diversity_of_opt: f64,
    /// Mean share of the unbounded coverage (each anchor capped at 1).
    pub coverage_of_opt: f64,
    /// Mean swap rounds completed.
    pub rounds: f64,
}

/// Paper: "We safely set the time limit to 100 ms … which enables VEXUS to
/// reach in average 90 % of diversity and 85 % of coverage."
///
/// Printed, not asserted: what a wall-clock budget buys depends on the
/// machine and its load. The claim becomes assertable with ROADMAP item 3's
/// deterministic work-unit budget; until then `tests/paper_claims.rs` only
/// checks the table's shape.
pub fn c1_budget_sweep() -> C1 {
    let vexus = workloads::bookcrossing_engine();
    // Anchor groups: the biggest few, exploring from each.
    let mut anchors: Vec<GroupId> = vexus.groups().ids().collect();
    anchors.sort_by_key(|&g| std::cmp::Reverse(vexus.groups().get(g).size()));
    anchors.truncate(5);

    // Per anchor: candidate pool + reference.
    let pools: Vec<(Vec<ScoredCandidate>, MemberSet)> = anchors
        .iter()
        .map(|&g| {
            let neighbors = vexus.index().neighbors(vexus.groups(), g, 256);
            let cands: Vec<ScoredCandidate> = neighbors
                .into_iter()
                .map(|(id, s)| (id, s as f64))
                .collect();
            (cands, vexus.groups().get(g).members.clone())
        })
        .collect();
    let n = pools.len() as f64;

    // Unbounded upper bound per anchor.
    let fb = FeedbackVector::new();
    let base_params = SelectParams {
        k: 5,
        min_similarity: 0.01,
        ..Default::default()
    };
    let unbounded: Vec<(f64, f64)> = pools
        .iter()
        .map(|(cands, reference)| {
            let o = greedy::select_k_unbounded(vexus.groups(), cands, reference, &fb, &base_params);
            (o.quality.diversity.max(1e-9), o.quality.coverage.max(1e-9))
        })
        .collect();

    let rows = [1u64, 2, 5, 10, 25, 50, 100, 250, 500]
        .into_iter()
        .map(|budget_ms| {
            let budget = Duration::from_millis(budget_ms);
            let mut row = C1Row {
                budget,
                diversity: 0.0,
                coverage: 0.0,
                diversity_of_opt: 0.0,
                coverage_of_opt: 0.0,
                rounds: 0.0,
            };
            for ((cands, reference), &(ud, uc)) in pools.iter().zip(&unbounded) {
                let params = SelectParams {
                    budget: Some(budget),
                    ..base_params.clone()
                };
                let o = greedy::select_k(vexus.groups(), cands, reference, &fb, &params);
                row.diversity += o.quality.diversity;
                row.coverage += o.quality.coverage;
                row.diversity_of_opt += (o.quality.diversity / ud).min(1.0);
                row.coverage_of_opt += (o.quality.coverage / uc).min(1.0);
                row.rounds += o.rounds as f64;
            }
            for mean in [
                &mut row.diversity,
                &mut row.coverage,
                &mut row.diversity_of_opt,
                &mut row.coverage_of_opt,
                &mut row.rounds,
            ] {
                *mean /= n;
            }
            row
        })
        .collect();
    C1 {
        rows,
        unbounded_diversity: unbounded.iter().map(|&(d, _)| d).sum::<f64>() / n,
        unbounded_coverage: unbounded.iter().map(|&(_, c)| c).sum::<f64>() / n,
    }
}

impl fmt::Display for C1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c1",
            "greedy budget sweep (paper: 100 ms -> ~90 % diversity, ~85 % coverage of unbounded)",
        )?;
        writeln!(
            f,
            "{:>10} | {:>10} {:>10} | {:>12} {:>12} | {:>7}",
            "budget", "diversity", "coverage", "div % of opt", "cov % of opt", "rounds"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8}ms | {:>10.3} {:>10.3} | {:>11.1}% {:>11.1}% | {:>7.1}",
                r.budget.as_millis(),
                r.diversity,
                r.coverage,
                100.0 * r.diversity_of_opt,
                100.0 * r.coverage_of_opt,
                r.rounds
            )?;
        }
        writeln!(
            f,
            "{:>10} | {:>10.3} {:>10.3} | {:>11.1}% {:>11.1}% |",
            "unbounded", self.unbounded_diversity, self.unbounded_coverage, 100.0, 100.0
        )
    }
}

// ---------------------------------------------------------------------------
// C2: interaction latency vs dataset scale
// ---------------------------------------------------------------------------

/// `c2`: per-interaction wall-clock over growing datasets.
pub struct C2 {
    /// One row per scale multiplier (×1, ×2, ×4, ×8).
    pub rows: Vec<C2Row>,
    /// Steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// Interaction latencies at one dataset scale.
pub struct C2Row {
    /// Scale multiplier over 2 500 users.
    pub scale: usize,
    /// Users in the dataset.
    pub users: usize,
    /// Groups in the space.
    pub groups: usize,
    /// Mean of 200 index lookups (the O(1) interaction core).
    pub lookup: Duration,
    /// One backtrack (pure state restore).
    pub backtrack: Duration,
    /// One full click (greedy capped at 100 ms).
    pub click: Duration,
}

/// Paper: "all interactions in VEXUS occur in O(1)" (the index lookup), with
/// the greedy capped separately.
///
/// Printed, not asserted: every column is wall-clock, and the full click
/// grows with the clicked group's size until the cap binds. Which scale
/// that is, and the flatness of the lookup, are the ledger's to measure
/// (ROADMAP item 2's scale axis) and become assertable with item 3's
/// deterministic budget; until then `tests/paper_claims.rs` only checks
/// the table's shape.
pub fn c2_interaction_latency() -> C2 {
    let mut out = C2 {
        rows: Vec::new(),
        budget_exhausted: 0,
    };
    for scale in [1usize, 2, 4, 8] {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 2_500 * scale,
            n_books: 2_000 * scale,
            n_ratings: 15_000 * scale,
            n_communities: 8,
            seed: 42,
        });
        let users = ds.data.n_users();
        // Support proportional to users so the group space stays comparable.
        let config = EngineConfig {
            min_group_size: (users / 500).max(5),
            ..EngineConfig::paper()
        };
        let vexus = VexusBuilder::new(ds.data)
            .config(config)
            .build()
            .expect("non-empty");
        let mut session = vexus.session().expect("session opens");
        let g = session.display()[0];
        let t0 = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(vexus.index().neighbors(vexus.groups(), g, 64));
        }
        let lookup = t0.elapsed() / reps;
        session.click(g).expect("click");
        let t1 = Instant::now();
        session.backtrack(0).expect("backtrack");
        let backtrack = t1.elapsed();
        let g = session.display()[0];
        let t2 = Instant::now();
        session.click(g).expect("click");
        let click = t2.elapsed();
        out.budget_exhausted += session.budget_exhausted_steps();
        out.rows.push(C2Row {
            scale,
            users,
            groups: vexus.groups().len(),
            lookup,
            backtrack,
            click,
        });
    }
    out
}

impl fmt::Display for C2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c2",
            "interaction latency vs dataset scale (claim: O(1) per step)",
        )?;
        writeln!(
            f,
            "{:>6} | {:>8} {:>8} | {:>14} | {:>14} | {:>14}",
            "scale", "users", "groups", "index lookup", "backtrack", "full click"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>5}x | {:>8} {:>8} | {:>14?} | {:>14?} | {:>14?}",
                r.scale, r.users, r.groups, r.lookup, r.backtrack, r.click
            )?;
        }
        writeln!(
            f,
            "(the O(1) claim is the index lookup; a full click grows with the clicked \
             group until the 100 ms greedy cap binds — wall-clock, printed and not asserted)"
        )
    }
}

// ---------------------------------------------------------------------------
// C3: index materialization fraction
// ---------------------------------------------------------------------------

/// `c3`: what each materialization fraction costs and answers.
pub struct C3 {
    /// Probe groups each fraction is queried on.
    pub probes: usize,
    /// One row per fraction, ascending to 1.0.
    pub rows: Vec<C3Row>,
}

/// One materialization fraction against the exact top-8 of every probe.
pub struct C3Row {
    /// Share of each neighbor list materialized.
    pub fraction: f64,
    /// Materialized entries.
    pub entries: usize,
    /// Index heap size.
    pub kib: usize,
    /// Mean recall@8 of the materialized prefix alone.
    pub recall: f64,
    /// Share of probes whose top-8 needs the exact fallback.
    pub fallback_share: f64,
    /// Probes whose [`GroupIndex::neighbors`] answer — prefix plus fallback
    /// — is exactly the full index's top-8.
    pub exact: usize,
}

/// Paper: "we only materialize 10 % of each inverted index which is shown in
/// \[14\] to be adequate to deliver satisfying results."
pub fn c3_materialization() -> C3 {
    let groups = workloads::bookcrossing_engine().groups();
    let k = 8; // neighbors a k=5 exploration step typically needs
    let build = |materialize_fraction| {
        GroupIndex::build(
            groups,
            &IndexConfig {
                materialize_fraction,
                threads: 0,
            },
        )
    };
    let top_k = |list: &[Neighbor]| -> Vec<GroupId> {
        let prefix = list.iter().take(k);
        prefix.map(|&(h, _)| h).collect()
    };
    // Exact top-k per probe group, from the full index.
    let full = build(1.0);
    let probes: Vec<GroupId> = groups.ids().step_by((groups.len() / 64).max(1)).collect();
    let exact: Vec<Vec<GroupId>> = probes
        .iter()
        .map(|&g| top_k(full.materialized(g)))
        .collect();

    let rows = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00]
        .into_iter()
        .map(|fraction| {
            let idx = build(fraction);
            // Recall of the materialized prefix against the exact top-k,
            // how often a k-request would need the exact fallback, and
            // whether the answer through it is the exact one.
            let mut recall = 0.0;
            let mut fallbacks = 0usize;
            let mut exact_answers = 0usize;
            for (&g, exact_topk) in probes.iter().zip(&exact) {
                fallbacks += usize::from(idx.needs_fallback(g, k));
                let answer = top_k(&idx.neighbors(groups, g, k));
                exact_answers += usize::from(answer == *exact_topk);
                let have = top_k(idx.materialized(g));
                recall += if exact_topk.is_empty() {
                    1.0
                } else {
                    exact_topk.iter().filter(|h| have.contains(h)).count() as f64
                        / exact_topk.len() as f64
                };
            }
            let s = idx.stats();
            C3Row {
                fraction,
                entries: s.materialized_entries,
                kib: s.heap_bytes / 1024,
                recall: recall / probes.len() as f64,
                fallback_share: fallbacks as f64 / probes.len() as f64,
                exact: exact_answers,
            }
        })
        .collect();
    C3 {
        probes: probes.len(),
        rows,
    }
}

impl fmt::Display for C3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c3",
            "inverted-index materialization sweep (paper fixes 10 %)",
        )?;
        writeln!(
            f,
            "{:>9} | {:>10} | {:>9} | {:>12} | {:>12}",
            "fraction", "entries", "KiB", "recall@8", "fallback %"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}% | {:>10} | {:>9} | {:>11.1}% | {:>11.1}%",
                r.fraction * 100.0,
                r.entries,
                r.kib,
                100.0 * r.recall,
                100.0 * r.fallback_share
            )?;
        }
        writeln!(f, "(queries beyond the materialized prefix fall back to an exact scan, so results stay correct; the fraction trades memory against fallback frequency)")
    }
}

// ---------------------------------------------------------------------------
// C4: PC committee formation in < 10 iterations (MT)
// ---------------------------------------------------------------------------

/// `c4`: iterations to fill a programme committee, informed vs random.
pub struct C4 {
    /// SIGMOD, VLDB, CIKM.
    pub rows: Vec<C4Row>,
    /// Mean informed iterations over the venues (paper: < 10).
    pub mean_informed_iterations: f64,
    /// Steps that hit the step budget, both arms.
    pub budget_exhausted: usize,
}

/// One venue's committee.
pub struct C4Row {
    /// Venue the committee is recruited for.
    pub venue: &'static str,
    /// Committee size to fill.
    pub size: usize,
    /// Iterations the informed chair used.
    pub informed_iterations: usize,
    /// Share of the committee the informed chair filled.
    pub informed_fill: f64,
    /// Mean iterations of three random chairs.
    pub random_iterations: f64,
    /// Mean fill of three random chairs.
    pub random_fill: f64,
}

/// Paper: "VEXUS enables PC chairs to form committees of major conferences
/// (SIGMOD, VLDB and CIKM) in less than 10 iterations on average."
pub fn c4_committee_formation() -> C4 {
    let (vexus, _) = workloads::dbauthors_engine();
    let schema = vexus.data().schema();
    let venue_attr = schema.attr("main_venue").expect("main_venue");
    let region_attr = schema.attr("region").expect("region");
    let mut budget_exhausted = 0usize;
    let rows: Vec<C4Row> = ["sigmod", "vldb", "cikm"]
        .into_iter()
        .map(|venue| {
            let v = schema
                .value(venue_attr, venue)
                .expect("DB-AUTHORS has sigmod, vldb and cikm as main venues");
            let size = 12;
            let task = MtTask {
                wanted: Wanted::Committee {
                    size,
                    balance_attr: Some(region_attr),
                    max_per_value: 3,
                },
                brush: vec![(venue_attr, v)],
                min_activity: 8,
                inspect_limit: 15,
                max_iterations: 25,
            };
            let mut session = vexus.session().expect("session opens");
            let informed = run_mt(&mut session, &task, Policy::Informed).expect("runs");
            budget_exhausted += session.budget_exhausted_steps();
            let mut random_iterations = 0.0;
            let mut random_fill = 0.0;
            let seeds = 3;
            for seed in 0..seeds {
                let mut s = vexus.session().expect("session opens");
                let r = run_mt(&mut s, &task, Policy::Random { seed }).expect("runs");
                budget_exhausted += s.budget_exhausted_steps();
                random_iterations += r.iterations as f64 / seeds as f64;
                random_fill += r.recall / seeds as f64;
            }
            C4Row {
                venue,
                size,
                informed_iterations: informed.iterations,
                informed_fill: informed.recall,
                random_iterations,
                random_fill,
            }
        })
        .collect();
    let informed_total: usize = rows.iter().map(|r| r.informed_iterations).sum();
    C4 {
        mean_informed_iterations: informed_total as f64 / rows.len() as f64,
        rows,
        budget_exhausted,
    }
}

impl fmt::Display for C4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c4",
            "expert-set formation (MT): iterations to fill a committee",
        )?;
        writeln!(
            f,
            "{:>8} | {:>5} | {:>20} | {:>20}",
            "venue", "size", "informed iters/fill", "random iters/fill"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8} | {:>5} | {:>9} ({:>4.0}% full) | {:>9.1} ({:>4.0}% full)",
                r.venue,
                r.size,
                r.informed_iterations,
                r.informed_fill * 100.0,
                r.random_iterations,
                r.random_fill * 100.0
            )?;
        }
        writeln!(
            f,
            "mean informed iterations: {:.1} (paper claim: < 10; active researchers only, committees balanced over <= 3 per region)",
            self.mean_informed_iterations
        )
    }
}

// ---------------------------------------------------------------------------
// C5: k sweep (P1) — and the ST sweep C5 and C7 share
// ---------------------------------------------------------------------------

/// What a batch of single-target runs found.
pub struct StSweep {
    /// Targets reached within the iteration cap.
    pub found: usize,
    /// Mean iterations, a miss counting as the cap.
    pub mean_iterations: f64,
    /// Steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// Run one ST task per target (accept at Jaccard ≥ 0.7, at most 12
/// iterations), each in a fresh session under `config`.
fn st_sweep(
    vexus: &vexus_core::Vexus,
    targets: &[GroupId],
    config: &EngineConfig,
    policy: impl Fn(usize) -> Policy,
) -> StSweep {
    const MAX_ITERATIONS: usize = 12;
    let mut out = StSweep {
        found: 0,
        mean_iterations: 0.0,
        budget_exhausted: 0,
    };
    let mut iterations = 0usize;
    for (i, &tg) in targets.iter().enumerate() {
        let target = &vexus.groups().get(tg).members;
        let mut session = vexus.session_with(config.clone()).expect("session opens");
        let accept = StAccept::Jaccard(0.7);
        let o = run_st(&mut session, target, accept, MAX_ITERATIONS, policy(i)).expect("st runs");
        out.found += usize::from(o.found);
        iterations += if o.found {
            o.iterations
        } else {
            MAX_ITERATIONS
        };
        out.budget_exhausted += session.budget_exhausted_steps();
    }
    out.mean_iterations = iterations as f64 / targets.len() as f64;
    out
}

/// The first `n` groups with a size in `sizes` — the ST targets.
fn st_targets(vexus: &vexus_core::Vexus, sizes: std::ops::Range<usize>, n: usize) -> Vec<GroupId> {
    let groups = vexus.groups();
    let mid_sized = groups
        .ids()
        .filter(|&g| sizes.contains(&groups.get(g).size()));
    mid_sized.take(n).collect()
}

/// `c5`: ST success per display size k.
pub struct C5 {
    /// ST targets per row.
    pub targets: usize,
    /// `(k, outcome)` for k = 3, 5, 7, 9, 12.
    pub rows: Vec<(usize, StSweep)>,
}

/// Paper fixes k ≤ 7 for perception; the sweep shows the efficiency/success
/// trade-off around that choice.
pub fn c5_k_sweep() -> C5 {
    let vexus = workloads::bookcrossing_engine();
    let targets = st_targets(vexus, 20..200, 5);
    let rows = [3usize, 5, 7, 9, 12]
        .into_iter()
        .map(|k| {
            let config = EngineConfig::paper().with_k(k);
            (k, st_sweep(vexus, &targets, &config, |_| Policy::Informed))
        })
        .collect();
    C5 {
        targets: targets.len(),
        rows,
    }
}

impl fmt::Display for C5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c5", "k sweep (P1: limited options, k <= 7)")?;
        writeln!(f, "{:>3} | {:>10} | {:>12}", "k", "found", "mean iters")?;
        for (k, r) in &self.rows {
            writeln!(
                f,
                "{:>3} | {:>6}/{:<3} | {:>12.1}",
                k, r.found, self.targets, r.mean_iterations
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// C6: the exponential group space
// ---------------------------------------------------------------------------

/// `c6`: the description space against what closed mining keeps.
pub struct C6 {
    /// One row per attribute-prefix length.
    pub rows: Vec<C6Row>,
    /// The paper's own example, as arithmetic: four attributes of five
    /// values are 20 attribute–value pairs, so 2^20 candidate descriptions.
    pub paper_example_descriptions: u64,
}

/// The group space over the first `attrs` attributes.
pub struct C6Row {
    /// Attributes in play.
    pub attrs: usize,
    /// Tokens (attribute–value pairs) in play.
    pub tokens: u32,
    /// Conjunctive descriptions possible: ∏(cardinality + 1) − 1.
    pub combinatorial: f64,
    /// Closed groups with support ≥ 5 actually mined.
    pub closed: usize,
}

/// Paper: "with only four demographic attributes and five values for each,
/// the number of user groups will be in the order of 10^6."
pub fn c6_group_space() -> C6 {
    let ds = bookcrossing_3k();
    let data = &ds.data;
    let vocab = Vocabulary::build(data);
    let full_db = TransactionDb::build(data, &vocab);
    let rows = (1..=data.schema().len())
        .map(|n_attrs| {
            // Restrict transactions to the first n_attrs attributes' tokens.
            // Token ids are assigned in attribute order, so a prefix of the
            // attribute list maps to a prefix of the token space.
            let cardinalities = || {
                let prefix = data.schema().iter().take(n_attrs);
                prefix.map(|(attr, _)| data.schema().cardinality(attr))
            };
            let max_token = cardinalities().sum::<usize>() as u32;
            let transactions: Vec<Vec<vexus_data::TokenId>> = (0..full_db.n_transactions() as u32)
                .map(|u| {
                    full_db
                        .transaction(u)
                        .iter()
                        .copied()
                        .filter(|t| t.raw() < max_token)
                        .collect()
                })
                .collect();
            let db = TransactionDb::from_transactions(transactions, max_token as usize);
            let gs = vexus_mining::mine_closed_groups(
                &db,
                &LcmConfig {
                    min_support: 5,
                    max_description: n_attrs,
                    max_groups: 2_000_000,
                    emit_root: false,
                },
            );
            C6Row {
                attrs: n_attrs,
                tokens: max_token,
                combinatorial: cardinalities().map(|c| c as f64 + 1.0).product::<f64>() - 1.0,
                closed: gs.len(),
            }
        })
        .collect();
    C6 {
        rows,
        paper_example_descriptions: 1 << (4 * 5),
    }
}

impl fmt::Display for C6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c6",
            "group-space growth (claim: exponential in attributes)",
        )?;
        writeln!(
            f,
            "{:>7} | {:>9} | {:>15} | {:>15}",
            "#attrs", "#tokens", "combinatorial", "closed groups"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>7} | {:>9} | {:>15.0} | {:>15}",
                r.attrs, r.tokens, r.combinatorial, r.closed
            )?;
        }
        writeln!(f, "(closedness + support pruning keep the mined space far below the combinatorial bound, which is what makes exploration tractable)")
    }
}

// ---------------------------------------------------------------------------
// C7: feedback learning ablation + unlearning
// ---------------------------------------------------------------------------

/// `c7`: what feedback buys, and what unlearning a value undoes.
pub struct C7 {
    /// ST targets per policy.
    pub targets: usize,
    /// Informed explorer, feedback learning on.
    pub feedback_on: StSweep,
    /// Informed explorer, feedback learning off.
    pub feedback_off: StSweep,
    /// Random explorer.
    pub random_walk: StSweep,
    /// With a male bias learned: male share of the displayed members, and
    /// how many of the five displayed groups are male-described.
    pub biased: (f64, usize),
    /// The same after deleting the bias from CONTEXT.
    pub unlearned: (f64, usize),
}

/// Feedback biases navigation toward the explorer's interest; deleting a
/// learned value ("male") re-balances results.
pub fn c7_feedback_ablation() -> C7 {
    let (vexus, _) = workloads::dbauthors_engine();

    // Part 1: ST iterations with and without feedback, and a random walk.
    let targets = st_targets(vexus, 20..300, 6);
    let paper = EngineConfig::paper();
    let feedback_on = st_sweep(vexus, &targets, &paper, |_| Policy::Informed);
    let off = EngineConfig::paper().without_feedback();
    let feedback_off = st_sweep(vexus, &targets, &off, |_| Policy::Informed);
    let random_walk = st_sweep(vexus, &targets, &paper, |i| Policy::Random {
        seed: i as u64,
    });

    // Part 2: unlearning "male" re-balances the selection. We isolate the
    // feedback effect: the same anchor, the same candidates, the same
    // greedy — only the feedback vector differs (biased vs male-unlearned).
    let gender_attr = vexus.data().schema().attr("gender").expect("gender");
    let male = vexus
        .data()
        .schema()
        .value(gender_attr, "male")
        .expect("male value");
    let male_token = vexus
        .vocab()
        .token(gender_attr, male)
        .expect("token exists");
    // Bias feedback by rewarding three male-heavy groups.
    let mut fb_biased = FeedbackVector::new();
    let male_groups = vexus
        .groups()
        .iter()
        .filter(|(_, g)| g.describes(male_token) && (50..200).contains(&g.size()));
    for (_, g) in male_groups.take(3) {
        fb_biased.reward_group(g);
    }
    // The chair cleans CONTEXT: she deletes the learned "male" value and
    // the male researchers it surfaced (the paper allows unlearning both
    // users and demographic values; deleting only the value would
    // renormalize its mass onto those same users).
    let mut fb_unlearned = fb_biased.clone();
    fb_unlearned.unlearn_token(male_token);
    for (u, _) in fb_biased.context_view(usize::MAX).users {
        if vexus.data().value(u, gender_attr) == male {
            fb_unlearned.unlearn_user(u);
        }
    }
    // Anchor: a large group without a gender token.
    let anchor = vexus
        .groups()
        .iter()
        .filter(|(_, g)| !g.describes(male_token) && g.description.len() == 1)
        .max_by_key(|(_, g)| g.size())
        .map(|(id, _)| id)
        .expect("a gender-neutral group exists");
    let candidates: Vec<ScoredCandidate> = vexus
        .index()
        .neighbors(vexus.groups(), anchor, 256)
        .into_iter()
        .map(|(id, s)| (id, s as f64))
        .collect();
    let params = SelectParams {
        k: 5,
        budget: None,
        min_similarity: 0.01,
        feedback_weight: 2.0,
        ..Default::default()
    };
    let reference = &vexus.groups().get(anchor).members;
    // Male share of the members a feedback vector puts on display, and how
    // many of the displayed groups are male-described.
    let display_under = |fb: &FeedbackVector| -> (f64, usize) {
        let selection =
            greedy::select_k(vexus.groups(), &candidates, reference, fb, &params).selection;
        let shown = || selection.iter().map(|&g| vexus.groups().get(g));
        let members = || shown().flat_map(|g| g.members.iter());
        let males = members()
            .filter(|&u| vexus.data().value(UserId::new(u), gender_attr) == male)
            .count();
        (
            males as f64 / members().count().max(1) as f64,
            shown().filter(|g| g.describes(male_token)).count(),
        )
    };
    C7 {
        targets: targets.len(),
        feedback_on,
        feedback_off,
        random_walk,
        biased: display_under(&fb_biased),
        unlearned: display_under(&fb_unlearned),
    }
}

impl fmt::Display for C7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c7", "feedback learning ablation + unlearn")?;
        writeln!(
            f,
            "{:>13} | {:>7} | {:>10}",
            "policy", "found", "mean iters"
        )?;
        for (label, r) in [
            ("feedback on", &self.feedback_on),
            ("feedback off", &self.feedback_off),
            ("random walk", &self.random_walk),
        ] {
            writeln!(
                f,
                "{label:>13} | {:>4}/{:<2} | {:>10.1}",
                r.found, self.targets, r.mean_iterations
            )?;
        }
        writeln!(
            f,
            "unlearn demo (same anchor/candidates, feedback only): with male bias learned the display is {:.1}% male ({} of 5 groups male-described); after deleting the bias from CONTEXT it is {:.1}% male ({} of 5 male-described)",
            self.biased.0 * 100.0,
            self.biased.1,
            self.unlearned.0 * 100.0,
            self.unlearned.1,
        )
    }
}

// ---------------------------------------------------------------------------
// C8: crossfilter incremental vs naive
// ---------------------------------------------------------------------------

/// `c8`: brush latency, incremental crossfilter vs naive recomputation.
pub struct C8 {
    /// Brush moves per timed loop.
    pub moves: u32,
    /// One row per record count.
    pub rows: Vec<C8Row>,
}

/// Brush latencies over one record count.
pub struct C8Row {
    /// Records under the crossfilter.
    pub records: usize,
    /// Mean incremental brush move.
    pub incremental: Duration,
    /// Mean brush move followed by a full recomputation.
    pub naive: Duration,
    /// Moves after which the incremental state equalled the recomputed
    /// one ([`Crossfilter::check_consistency`]).
    pub consistent_moves: u32,
}

/// Paper: coordinated views update "instantaneously" thanks to incremental
/// queries. The claim *is* a time, so the latencies stay — printed; what
/// the test asserts is that the incremental state is the recomputed one
/// after every move.
pub fn c8_crossfilter() -> C8 {
    let moves = 40u32;
    let rows = [10_000usize, 50_000, 200_000]
        .into_iter()
        .map(|n| {
            let ds = bookcrossing(&BookCrossingConfig {
                n_users: n,
                n_books: 1_000,
                n_ratings: n, // activity spread
                n_communities: 8,
                seed: 1,
            });
            let data = &ds.data;
            let mut cf = Crossfilter::new(n);
            // Numeric dimension: activity; categorical: country.
            let activity: Vec<f64> = data.users().map(|u| data.user_activity(u) as f64).collect();
            let act = cf.add_numeric(activity, &[1.0, 3.0, 10.0, 30.0]);
            let country_attr = data.schema().attr("country").expect("country");
            let cats: Vec<u32> = data
                .users()
                .map(|u| {
                    let v = data.value(u, country_attr);
                    if v.is_missing() {
                        0
                    } else {
                        v.raw()
                    }
                })
                .collect();
            let n_cats = data.schema().cardinality(country_attr).max(1);
            let _c = cf.add_categorical(cats, n_cats);
            // Sliding window of brush moves.
            let t0 = Instant::now();
            for i in 0..moves {
                let lo = i as f64 * 0.5;
                cf.brush_range(act, lo, lo + 5.0);
            }
            let incremental = t0.elapsed() / moves;
            // Naive: recompute everything per move (the consistency check
            // is that recomputation plus a compare of the histograms).
            let mut consistent_moves = 0u32;
            let t1 = Instant::now();
            for i in 0..moves {
                let lo = i as f64 * 0.5;
                cf.brush_range(act, lo, lo + 5.0);
                consistent_moves += u32::from(cf.check_consistency());
            }
            let naive = t1.elapsed() / moves;
            C8Row {
                records: n,
                incremental,
                naive,
                consistent_moves,
            }
        })
        .collect();
    C8 { moves, rows }
}

impl fmt::Display for C8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c8", "crossfilter brush latency: incremental vs naive")?;
        writeln!(
            f,
            "{:>9} | {:>14} | {:>14} | {:>8}",
            "records", "incremental", "naive", "speedup"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>9} | {:>14?} | {:>14?} | {:>7.1}x",
                r.records,
                r.incremental,
                r.naive,
                r.naive.as_secs_f64() / r.incremental.as_secs_f64().max(1e-12)
            )?;
        }
        writeln!(f, "(incremental touches only records whose filter status changed; naive rescans every record per brush)")
    }
}

// ---------------------------------------------------------------------------
// C9: discussion groups (ST) + satisfaction proxy
// ---------------------------------------------------------------------------

/// `c9`: readers looking for the club that shares their favourite genre.
pub struct C9 {
    /// One reader per genre.
    pub rows: Vec<C9Row>,
    /// Readers who reached their club within 10 iterations.
    pub satisfied: usize,
    /// Mean iterations, a miss counting as 10.
    pub mean_iterations: f64,
    /// Steps that hit the step budget.
    pub budget_exhausted: usize,
}

/// One reader's search.
pub struct C9Row {
    /// The reader's favourite genre.
    pub genre: String,
    /// Whether a displayed group passed the acceptance criterion.
    pub found: bool,
    /// Iterations used.
    pub iterations: usize,
    /// Best precision against the club seen on any display.
    pub similarity: f64,
}

/// Scenario 2: a reader finds discussion groups she agrees and disagrees
/// with; the cited user study reports 80 % satisfaction for group-based
/// exploration.
pub fn c9_discussion_groups() -> C9 {
    const MAX_ITERATIONS: usize = 10;
    let vexus = workloads::bookcrossing_engine();
    let schema = vexus.data().schema();
    let fav_attr = schema.attr("favorite_genre").expect("favorite_genre");
    let mut budget_exhausted = 0usize;
    // Readers: one per genre value; target = the closed group of users who
    // share the reader's favorite genre (the "agree" club).
    let rows: Vec<C9Row> = (0..schema.cardinality(fav_attr).min(8))
        .map(|value_idx| {
            let v = vexus_data::ValueId::new(value_idx as u32);
            let genre = schema.value_label(fav_attr, v).to_string();
            let token = vexus
                .vocab()
                .token(fav_attr, v)
                .unwrap_or_else(|| panic!("genre {genre:?} has no token"));
            // The agree-club: the group whose description is exactly that token.
            let (_, club) = vexus
                .groups()
                .iter()
                .find(|(_, g)| g.description == [token])
                .unwrap_or_else(|| panic!("no closed group is described by genre {genre:?} alone"));
            assert!(
                club.members.len() >= 10,
                "the {genre:?} club has only {} members",
                club.members.len()
            );
            let mut session = vexus.session().expect("session opens");
            let accept = StAccept::Precision {
                min_precision: 0.8,
                min_size: 15,
            };
            let o = run_st(
                &mut session,
                &club.members,
                accept,
                MAX_ITERATIONS,
                Policy::Informed,
            )
            .expect("st runs");
            budget_exhausted += session.budget_exhausted_steps();
            C9Row {
                genre,
                found: o.found,
                iterations: o.iterations,
                similarity: o.best_score,
            }
        })
        .collect();
    let iterations = rows.iter().map(|r| {
        if r.found {
            r.iterations
        } else {
            MAX_ITERATIONS
        }
    });
    C9 {
        satisfied: rows.iter().filter(|r| r.found).count(),
        mean_iterations: iterations.sum::<usize>() as f64 / rows.len() as f64,
        rows,
        budget_exhausted,
    }
}

impl fmt::Display for C9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(
            f,
            "c9",
            "discussion groups (ST) + satisfaction proxy (cited: 80 %)",
        )?;
        writeln!(
            f,
            "{:>12} | {:>6} | {:>6} | {:>10}",
            "reader likes", "found", "iters", "similarity"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>12} | {:>6} | {:>6} | {:>10.2}",
                r.genre, r.found, r.iterations, r.similarity
            )?;
        }
        writeln!(
            f,
            "satisfaction proxy: {}/{} readers reached their club within 10 iterations ({:.0}%; cited study: 80%); mean iterations {:.1}",
            self.satisfied,
            self.rows.len(),
            100.0 * self.satisfied as f64 / self.rows.len() as f64,
            self.mean_iterations
        )
    }
}

// ---------------------------------------------------------------------------
// C10: LDA vs PCA focus view
// ---------------------------------------------------------------------------

/// `c10`: how well each 2-D projection separates latent communities.
pub struct C10 {
    /// The five biggest groups.
    pub rows: Vec<C10Row>,
    /// Mean LDA silhouette.
    pub lda_mean: f64,
    /// Mean PCA silhouette.
    pub pca_mean: f64,
}

/// One probed group's members under both projections.
pub struct C10Row {
    /// The probed group.
    pub group: GroupId,
    /// Members projected (at most 400).
    pub members: usize,
    /// Latent communities among them.
    pub classes: usize,
    /// Silhouette of the communities under LDA.
    pub lda: f64,
    /// Silhouette of the communities under PCA.
    pub pca: f64,
}

/// Focus-view claim: similar members appear closer. Measured as silhouette
/// of latent communities in the 2-D projection, LDA vs the PCA baseline.
pub fn c10_lda_vs_pca() -> C10 {
    let (vexus, latent) = workloads::dbauthors_engine();
    let featurizer = vexus_mining::features::Featurizer::new(vexus.data());
    // Probe the five biggest groups.
    let mut probe: Vec<GroupId> = vexus.groups().ids().collect();
    probe.sort_by_key(|&g| std::cmp::Reverse(vexus.groups().get(g).size()));
    probe.truncate(5);
    let rows: Vec<C10Row> = probe
        .into_iter()
        .map(|g| {
            let members: Vec<UserId> = vexus
                .groups()
                .get(g)
                .members
                .iter()
                .take(400)
                .map(UserId::new)
                .collect();
            let labels: Vec<u32> = members.iter().map(|u| latent[u.index()]).collect();
            let classes: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
            assert!(
                classes.len() >= 2,
                "group {g} holds a single latent community: nothing to separate"
            );
            let points = featurizer.features_of(vexus.data(), &members);
            let lda = Lda::fit(&points, &labels, 2);
            let pca = Pca::fit(&points, 2);
            C10Row {
                group: g,
                members: members.len(),
                classes: classes.len(),
                lda: silhouette(&lda.project_all(&points), &labels),
                pca: silhouette(&pca.project_all(&points), &labels),
            }
        })
        .collect();
    // Summed in row order, then divided: the printed mean's last digit
    // depends on it.
    let mean = |of: fn(&C10Row) -> f64| rows.iter().map(of).sum::<f64>() / rows.len() as f64;
    C10 {
        lda_mean: mean(|r| r.lda),
        pca_mean: mean(|r| r.pca),
        rows,
    }
}

impl fmt::Display for C10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c10", "focus view: LDA vs PCA separation (silhouette)")?;
        writeln!(
            f,
            "{:>6} | {:>8} | {:>9} | {:>9} | {:>9}",
            "group", "members", "classes", "LDA sil.", "PCA sil."
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} | {:>8} | {:>9} | {:>9.3} | {:>9.3}",
                r.group.to_string(),
                r.members,
                r.classes,
                r.lda,
                r.pca
            )?;
        }
        writeln!(
            f,
            "mean: LDA {:.3} vs PCA {:.3} (supervised projection separates member profiles better)",
            self.lda_mean, self.pca_mean
        )
    }
}

// ---------------------------------------------------------------------------
// C11: force layout clutter removal
// ---------------------------------------------------------------------------

/// `c11`: circle overlap before and after the force simulation.
pub struct C11 {
    /// One row per display size k.
    pub rows: Vec<C11Row>,
}

/// One layout of `k` circles.
pub struct C11Row {
    /// Circles laid out.
    pub k: usize,
    /// Total pairwise overlap area at the initial placement.
    pub overlap_before: f64,
    /// Total pairwise overlap area when the simulation stopped.
    pub overlap_after: f64,
    /// Simulation ticks run (capped at 1 000).
    pub ticks: usize,
}

/// GroupViz claim: the force layout "prevents visual clutter". Metric:
/// total pairwise circle-overlap area before vs after simulation.
pub fn c11_force_layout() -> C11 {
    let rows = [3usize, 5, 7, 9, 12]
        .into_iter()
        .map(|k| {
            let radii: Vec<f64> = (0..k).map(|i| 45.0 - 2.0 * i as f64).collect();
            let mut layout = ForceLayout::new(&radii, ForceConfig::default());
            let overlap_before = layout.total_overlap_area();
            let mut ticks = 0usize;
            while layout.total_overlap_area() > 1e-9 && ticks < 1000 {
                layout.tick();
                ticks += 1;
            }
            C11Row {
                k,
                overlap_before,
                overlap_after: layout.total_overlap_area(),
                ticks,
            }
        })
        .collect();
    C11 { rows }
}

impl fmt::Display for C11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c11", "force layout clutter removal (overlap area)")?;
        writeln!(
            f,
            "{:>3} | {:>14} | {:>14} | {:>10}",
            "k", "overlap before", "overlap after", "ticks"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>3} | {:>14.1} | {:>14.6} | {:>10}",
                r.k, r.overlap_before, r.overlap_after, r.ticks
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// C12: the STATS drill-down example
// ---------------------------------------------------------------------------

/// `c12`: the paper's STATS walk-through on its example group.
pub struct C12 {
    /// The most general group of very senior data-management researchers.
    pub group: GroupId,
    /// Its description.
    pub label: String,
    /// Its size.
    pub members: usize,
    /// Male share of its gender histogram (paper: 62 %).
    pub male_share: f64,
    /// Members left after brushing to females with activity ≥ 10.
    pub selected: usize,
    /// Top of the brushed table, as STATS lists it.
    pub table: Vec<C12Row>,
}

/// One row of the brushed STATS table.
pub struct C12Row {
    /// The researcher's name.
    pub name: String,
    /// Publications (the activity the table sorts by).
    pub publications: usize,
    /// The researcher's gender label.
    pub gender: String,
}

/// Paper: "focusing on the group of 'very senior researchers in data
/// management with a very high number of publications' reveals that 62 % of
/// its members are male. … by brushing on gender to select females and on
/// publication rate to select 'extremely active', the table lists Elke A.
/// Rundensteiner…"
pub fn c12_stats_drilldown() -> C12 {
    let (vexus, _) = workloads::dbauthors_engine();
    let data = vexus.data();
    let schema = data.schema();
    let seniority = schema.attr("seniority").expect("seniority");
    let topic = schema.attr("topic").expect("topic");
    let gender = schema.attr("gender").expect("gender");
    let very_senior = schema.value(seniority, "very senior").expect("value");
    let dm = schema.value(topic, "data management").expect("value");
    let vs_tok = vexus.vocab().token(seniority, very_senior).expect("token");
    let dm_tok = vexus.vocab().token(topic, dm).expect("token");
    // Find the most general closed group described by both tokens (the
    // first match may carry extra tokens, e.g. a gender, making it narrower
    // than the paper's example group).
    let (gid, group) = vexus
        .groups()
        .iter()
        .filter(|(_, g)| g.describes(vs_tok) && g.describes(dm_tok))
        .max_by_key(|(_, g)| g.size())
        .expect("'very senior & data management' is a frequent group of DB-AUTHORS");
    let session = vexus.session().expect("session opens");
    let mut stats = session.stats_view(gid).expect("stats view");
    let male_share = stats.share(gender, "male").expect("share").max(0.0);
    // Brush to females with top publication activity.
    stats.brush(gender, &["female"]);
    stats.brush_activity(10.0, f64::MAX);
    let table = stats.table(5).into_iter();
    C12 {
        group: gid,
        label: group.label(vexus.vocab(), schema),
        members: group.size(),
        male_share,
        selected: stats.n_selected(),
        table: table
            .map(|(u, name, publications)| C12Row {
                name,
                publications,
                gender: schema
                    .value_label(gender, data.value(u, gender))
                    .to_string(),
            })
            .collect(),
    }
}

impl fmt::Display for C12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        header(f, "c12", "STATS drill-down (the 62 %-male example)")?;
        writeln!(
            f,
            "group {}: \"{}\" with {} members",
            self.group, self.label, self.members
        )?;
        writeln!(
            f,
            "gender histogram: male {:.0}% (paper example reported 62% male on DB-AUTHORS)",
            self.male_share * 100.0
        )?;
        writeln!(
            f,
            "after brushing [female] x [activity >= 10]: {} users selected; top of table:",
            self.selected
        )?;
        for r in &self.table {
            writeln!(f, "  {:<14} {} publications", r.name, r.publications)?;
        }
        Ok(())
    }
}

impl Record for F1 {}
impl Record for D1 {}
impl Record for C1 {}
impl Record for C2 {}
impl Record for C3 {}
impl Record for C4 {}
impl Record for C5 {}
impl Record for C6 {}
impl Record for C7 {}
impl Record for C8 {}
impl Record for C9 {}
impl Record for C10 {}
impl Record for C11 {}
impl Record for C12 {}

#[cfg(test)]
mod tests {
    use super::*;

    // The claims themselves are asserted on the result structs by the root
    // package's `tests/paper_claims.rs`.

    #[test]
    fn dispatch_rejects_unknown_ids() {
        assert!(run("nope").is_none());
    }
}
