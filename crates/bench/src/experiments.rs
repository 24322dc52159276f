//! One function per experiment id. Each prints the table/series the README's
//! Experiments section maps to a paper figure or claim, and returns it as a
//! string so the tests can assert on shape.

use crate::workloads;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vexus_core::engine::VexusBuilder;
use vexus_core::greedy::{self, ScoredCandidate, SelectParams};
use vexus_core::simulate::{run_committee, run_st, CommitteeTask, Policy, StAccept};
use vexus_core::{EngineConfig, FeedbackVector};
use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus_data::{UserId, Vocabulary};
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

/// All experiment ids, in report order.
pub const ALL: &[&str] = &[
    "f1", "f2", "d1", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "c12",
];

/// Dispatch one experiment by id.
pub fn run(id: &str) -> Option<String> {
    let out = match id {
        "f1" => f1_architecture(),
        "f2" => f2_views(),
        "d1" => d1_discovery_backends(),
        "c1" => c1_budget_sweep(),
        "c2" => c2_interaction_latency(),
        "c3" => c3_materialization(),
        "c4" => c4_committee_formation(),
        "c5" => c5_k_sweep(),
        "c6" => c6_group_space(),
        "c7" => c7_feedback_ablation(),
        "c8" => c8_crossfilter(),
        "c9" => c9_discussion_groups(),
        "c10" => c10_lda_vs_pca(),
        "c11" => c11_force_layout(),
        "c12" => c12_stats_drilldown(),
        _ => return None,
    };
    Some(out)
}

fn header(id: &str, title: &str) -> String {
    format!("\n=== {} — {} ===\n", id.to_uppercase(), title)
}

// ---------------------------------------------------------------------------
// F1: architecture pipeline smoke (Fig. 1)
// ---------------------------------------------------------------------------

/// End-to-end pipeline over both datasets: ETL-shaped input → group
/// discovery → index generation → session open, with stage timings.
pub fn f1_architecture() -> String {
    let mut out = header("f1", "architecture pipeline (Fig. 1)");
    for (name, ds) in [
        (
            "bookcrossing",
            workloads::bookcrossing_at(workloads::scale()),
        ),
        ("dbauthors", workloads::dbauthors_at(workloads::scale())),
    ] {
        let n_users = ds.data.n_users();
        let n_actions = ds.data.n_actions();
        let vexus = VexusBuilder::new(ds.data)
            .config(EngineConfig::paper())
            .build()
            .expect("non-empty");
        let s = vexus.build_stats();
        let t0 = Instant::now();
        let session = vexus.session().expect("session opens");
        let open = t0.elapsed();
        let _ = writeln!(
            out,
            "{name:>13}: users={n_users} actions={n_actions} | discovery[{}]: {} groups in {:?} | \
             index: {} entries / {} KiB in {:?} | session open: {:?} ({} groups shown)",
            s.discovery.algorithm,
            s.n_groups,
            s.discovery.elapsed,
            s.index_entries,
            s.index_bytes / 1024,
            s.index_time,
            open,
            session.display().len()
        );
    }
    out
}

// ---------------------------------------------------------------------------
// F2: the five coordinated views (Fig. 2)
// ---------------------------------------------------------------------------

/// A scripted session rendering GROUPVIZ, CONTEXT, STATS, HISTORY, MEMO and
/// the Focus view; SVGs are written to `target/vexus-renders/`.
pub fn f2_views() -> String {
    let mut out = header("f2", "the five coordinated views (Fig. 2)");
    let (vexus, _) = workloads::dbauthors_engine(EngineConfig::paper());
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    session.click(g).expect("click works");
    session
        .memo_group(session.display()[0])
        .expect("memo works");
    if let Some(u) = vexus
        .groups()
        .get(session.display()[0])
        .members
        .iter()
        .next()
    {
        session.memo_user(UserId::new(u));
    }
    out.push_str(&session.render_text());

    // STATS view of the clicked group.
    let stats = session
        .stats_view(session.display()[0])
        .expect("stats view");
    out.push_str("== STATS ==\n");
    out.push_str(&stats.render_text());

    // SVG renders.
    let render_dir = std::path::Path::new("target/vexus-renders");
    let _ = std::fs::create_dir_all(render_dir);
    let color_attr = vexus.data().schema().attr("gender").expect("gender exists");
    let circles = session.groupviz(color_attr);
    let mut doc = vexus_viz::svg::SvgDoc::new(800.0, 600.0);
    for c in &circles {
        doc.circle(c.x, c.y, c.radius, c.color, &c.label);
    }
    let groupviz_svg = doc.finish();
    let _ = std::fs::write(render_dir.join("groupviz.svg"), &groupviz_svg);

    let focus_attr = vexus.data().schema().attr("topic").expect("topic exists");
    let focus = session
        .focus_view(session.display()[0], focus_attr)
        .expect("focus view");
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
    let _ = std::fs::write(render_dir.join("focus.svg"), fdoc.finish());

    let gender = vexus.data().schema().attr("gender").expect("gender exists");
    let hist = stats.histogram(gender);
    let _ = std::fs::write(
        render_dir.join("stats_gender.svg"),
        vexus_viz::svg::bar_chart("gender", &hist, 420.0),
    );
    let _ = writeln!(
        out,
        "SVG renders: groupviz.svg ({} circles), focus.svg ({} points), stats_gender.svg -> target/vexus-renders/",
        circles.len(),
        focus.len()
    );
    out
}

// ---------------------------------------------------------------------------
// D1: discovery backend comparison
// ---------------------------------------------------------------------------

/// The paper's pluggable discovery stage, measured: run LCM, α-MOMRI,
/// BIRCH and stream FIM over the same dataset through the builder and
/// compare group counts, coverage and end-to-end navigability.
pub fn d1_discovery_backends() -> String {
    let mut out = header(
        "d1",
        "pluggable discovery backends (LCM / α-MOMRI / BIRCH / stream FIM)",
    );
    let _ = writeln!(
        out,
        "{:>10} | {:>8} | {:>9} | {:>10} | {:>10} | {:>10}",
        "backend", "groups", "filtered", "coverage", "discovery", "steps ok"
    );
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
    for backend in backends {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 3_000,
            n_books: 2_000,
            n_ratings: 20_000,
            n_communities: 8,
            seed: 42,
        });
        let n_users = ds.data.n_users();
        let name = backend.name();
        let vexus = workloads::engine_over(ds, backend, EngineConfig::paper());
        let s = vexus.build_stats();
        let coverage = vexus.groups().distinct_users_covered(n_users) as f64 / n_users as f64;
        // Navigability smoke: three clicks through the space.
        let mut session = vexus.session().expect("session opens");
        let mut steps_ok = 0usize;
        for _ in 0..3 {
            let Some(&g) = session.display().first() else {
                break;
            };
            if session
                .click(g)
                .map(|next| !next.is_empty())
                .unwrap_or(false)
            {
                steps_ok += 1;
            } else {
                break;
            }
        }
        let _ = writeln!(
            out,
            "{:>10} | {:>8} | {:>9} | {:>9.1}% | {:>10?} | {:>8}/3",
            name,
            s.n_groups,
            s.filtered_out,
            coverage * 100.0,
            s.discovery.elapsed,
            steps_ok
        );
    }
    out.push_str(
        "(one builder, four backends: the offline discovery stage is a swappable plug-in)\n",
    );
    out
}

// ---------------------------------------------------------------------------
// C1: greedy time budget vs achieved diversity/coverage
// ---------------------------------------------------------------------------

/// Paper: "We safely set the time limit to 100 ms … which enables VEXUS to
/// reach in average 90 % of diversity and 85 % of coverage."
pub fn c1_budget_sweep() -> String {
    let mut out = header(
        "c1",
        "greedy budget sweep (paper: 100 ms -> ~90 % diversity, ~85 % coverage of unbounded)",
    );
    let (vexus, _) = workloads::bookcrossing_engine(EngineConfig::paper());
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

    let _ = writeln!(
        out,
        "{:>10} | {:>10} {:>10} | {:>12} {:>12} | {:>7}",
        "budget", "diversity", "coverage", "div % of opt", "cov % of opt", "rounds"
    );
    for budget_ms in [1u64, 2, 5, 10, 25, 50, 100, 250, 500] {
        let mut div = 0.0;
        let mut cov = 0.0;
        let mut divf = 0.0;
        let mut covf = 0.0;
        let mut rounds = 0usize;
        for ((cands, reference), &(ud, uc)) in pools.iter().zip(&unbounded) {
            let params = SelectParams {
                budget: Some(Duration::from_millis(budget_ms)),
                ..base_params.clone()
            };
            let o = greedy::select_k(vexus.groups(), cands, reference, &fb, &params);
            div += o.quality.diversity;
            cov += o.quality.coverage;
            divf += (o.quality.diversity / ud).min(1.0);
            covf += (o.quality.coverage / uc).min(1.0);
            rounds += o.rounds;
        }
        let n = pools.len() as f64;
        let _ = writeln!(
            out,
            "{:>8}ms | {:>10.3} {:>10.3} | {:>11.1}% {:>11.1}% | {:>7.1}",
            budget_ms,
            div / n,
            cov / n,
            100.0 * divf / n,
            100.0 * covf / n,
            rounds as f64 / n
        );
    }
    let (ud, uc) = unbounded
        .iter()
        .fold((0.0, 0.0), |acc, &(d, c)| (acc.0 + d, acc.1 + c));
    let n = unbounded.len() as f64;
    let _ = writeln!(
        out,
        "{:>10} | {:>10.3} {:>10.3} | {:>11.1}% {:>11.1}% |",
        "unbounded",
        ud / n,
        uc / n,
        100.0,
        100.0
    );
    out
}

// ---------------------------------------------------------------------------
// C2: interaction latency vs dataset scale
// ---------------------------------------------------------------------------

/// Paper: "all interactions in VEXUS occur in O(1)" (the index lookup), with
/// the greedy capped separately. Latency must stay flat as data grows.
pub fn c2_interaction_latency() -> String {
    let mut out = header(
        "c2",
        "interaction latency vs dataset scale (claim: O(1) per step)",
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>8} {:>8} | {:>14} | {:>14} | {:>14}",
        "scale", "users", "groups", "index lookup", "backtrack", "full click"
    );
    for mult in [1usize, 2, 4, 8] {
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 2_500 * mult,
            n_books: 2_000 * mult,
            n_ratings: 15_000 * mult,
            n_communities: 8,
            seed: 42,
        });
        let n_users = ds.data.n_users();
        // Support proportional to users so the group space stays comparable.
        let config = EngineConfig {
            min_group_size: (n_users / 500).max(5),
            ..EngineConfig::paper()
        };
        let vexus = VexusBuilder::new(ds.data)
            .config(config)
            .build()
            .expect("non-empty");
        let mut session = vexus.session().expect("session opens");
        // Index lookup latency (the O(1) interaction core).
        let g = session.display()[0];
        let t0 = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(vexus.index().neighbors(vexus.groups(), g, 64));
        }
        let lookup = t0.elapsed() / reps;
        // Backtrack latency (pure state restore).
        session.click(g).expect("click");
        let t1 = Instant::now();
        session.backtrack(0).expect("backtrack");
        let backtrack = t1.elapsed();
        // Full click (greedy-capped at 100 ms).
        let g = session.display()[0];
        let t2 = Instant::now();
        session.click(g).expect("click");
        let click = t2.elapsed();
        let _ = writeln!(
            out,
            "{:>5}x | {:>8} {:>8} | {:>14?} | {:>14?} | {:>14?}",
            mult,
            n_users,
            vexus.build_stats().n_groups,
            lookup,
            backtrack,
            click
        );
    }
    out.push_str(
        "(index lookup and backtrack stay flat; full click is dominated by the capped greedy)\n",
    );
    out
}

// ---------------------------------------------------------------------------
// C3: index materialization fraction
// ---------------------------------------------------------------------------

/// Paper: "we only materialize 10 % of each inverted index which is shown in
/// \[14\] to be adequate to deliver satisfying results."
pub fn c3_materialization() -> String {
    let mut out = header(
        "c3",
        "inverted-index materialization sweep (paper fixes 10 %)",
    );
    let ds = workloads::bookcrossing_at(workloads::scale());
    let vexus = VexusBuilder::new(ds.data)
        .config(EngineConfig::paper())
        .build()
        .expect("non-empty");
    let groups = vexus.groups();
    let k = 8; // neighbors a k=5 exploration step typically needs

    let _ = writeln!(
        out,
        "{:>9} | {:>10} | {:>9} | {:>10} | {:>12} | {:>12}",
        "fraction", "entries", "KiB", "build", "recall@8", "fallback %"
    );
    // Exact top-k per probe group, from the full index.
    let full = GroupIndex::build(
        groups,
        &IndexConfig {
            materialize_fraction: 1.0,
            threads: 0,
        },
    );
    let probes: Vec<GroupId> = groups.ids().step_by((groups.len() / 64).max(1)).collect();
    let exact: Vec<Vec<GroupId>> = probes
        .iter()
        .map(|&g| {
            full.materialized(g)
                .iter()
                .take(k)
                .map(|&(h, _)| h)
                .collect()
        })
        .collect();

    for fraction in [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00] {
        let t0 = Instant::now();
        let idx = GroupIndex::build(
            groups,
            &IndexConfig {
                materialize_fraction: fraction,
                threads: 0,
            },
        );
        let build = t0.elapsed();
        // Recall of the materialized prefix against the exact top-k, and
        // how often a k-request would need the exact fallback.
        let mut recall = 0.0;
        let mut fallbacks = 0usize;
        for (&g, exact_topk) in probes.iter().zip(&exact) {
            if idx.needs_fallback(g, k) {
                fallbacks += 1;
            }
            if exact_topk.is_empty() {
                recall += 1.0;
                continue;
            }
            let have: std::collections::HashSet<GroupId> = idx
                .materialized(g)
                .iter()
                .take(k)
                .map(|&(h, _)| h)
                .collect();
            recall += exact_topk.iter().filter(|h| have.contains(h)).count() as f64
                / exact_topk.len() as f64;
        }
        let s = idx.stats();
        let _ = writeln!(
            out,
            "{:>8.0}% | {:>10} | {:>9} | {:>10?} | {:>11.1}% | {:>11.1}%",
            fraction * 100.0,
            s.materialized_entries,
            s.heap_bytes / 1024,
            build,
            100.0 * recall / probes.len() as f64,
            100.0 * fallbacks as f64 / probes.len() as f64
        );
    }
    out.push_str("(queries beyond the materialized prefix fall back to an exact scan, so results stay correct; the fraction trades memory against fallback frequency)\n");
    out
}

// ---------------------------------------------------------------------------
// C4: PC committee formation in < 10 iterations (MT)
// ---------------------------------------------------------------------------

/// Paper: "VEXUS enables PC chairs to form committees of major conferences
/// (SIGMOD, VLDB and CIKM) in less than 10 iterations on average."
pub fn c4_committee_formation() -> String {
    let mut out = header(
        "c4",
        "expert-set formation (MT): iterations to fill a committee",
    );
    let (vexus, _) = workloads::dbauthors_engine(EngineConfig::paper());
    let venue_attr = vexus
        .data()
        .schema()
        .attr("main_venue")
        .expect("main_venue");
    let region_attr = vexus.data().schema().attr("region").expect("region");
    let data = vexus.data();
    let _ = writeln!(
        out,
        "{:>8} | {:>5} | {:>20} | {:>20}",
        "venue", "size", "informed iters/fill", "random iters/fill"
    );
    let mut informed_total = 0.0;
    let mut count = 0usize;
    for venue in ["sigmod", "vldb", "cikm"] {
        let Some(v) = data.schema().value(venue_attr, venue) else {
            continue;
        };
        let task = CommitteeTask {
            size: 12,
            brush: vec![(venue_attr, v)],
            min_activity: 8,
            inspect_limit: 15,
            max_iterations: 25,
            balance_attr: Some(region_attr),
            max_per_value: 3,
        };
        let mut session = vexus.session().expect("session opens");
        let informed = run_committee(&mut session, &task, Policy::Informed).expect("runs");
        let mut random_iters = 0.0;
        let mut random_fill = 0.0;
        let seeds = 3;
        for seed in 0..seeds {
            let mut s = vexus.session().expect("session opens");
            let r = run_committee(&mut s, &task, Policy::Random { seed }).expect("runs");
            random_iters += r.iterations as f64 / seeds as f64;
            random_fill += r.fill / seeds as f64;
        }
        let _ = writeln!(
            out,
            "{:>8} | {:>5} | {:>9} ({:>4.0}% full) | {:>9.1} ({:>4.0}% full)",
            venue,
            task.size,
            informed.iterations,
            informed.fill * 100.0,
            random_iters,
            random_fill * 100.0
        );
        informed_total += informed.iterations as f64;
        count += 1;
    }
    if count > 0 {
        let _ = writeln!(
            out,
            "mean informed iterations: {:.1} (paper claim: < 10; active researchers only, committees balanced over <= 3 per region)",
            informed_total / count as f64
        );
    }
    out
}

// ---------------------------------------------------------------------------
// C5: k sweep (P1)
// ---------------------------------------------------------------------------

/// Paper fixes k ≤ 7 for perception; the sweep shows the efficiency/success
/// trade-off around that choice.
pub fn c5_k_sweep() -> String {
    let mut out = header("c5", "k sweep (P1: limited options, k <= 7)");
    let (vexus, _) = workloads::bookcrossing_engine(EngineConfig::paper());
    // ST targets: five mid-sized groups.
    let mut targets: Vec<GroupId> = vexus
        .groups()
        .ids()
        .filter(|&g| {
            let s = vexus.groups().get(g).size();
            (20..200).contains(&s)
        })
        .collect();
    targets.truncate(5);
    let _ = writeln!(
        out,
        "{:>3} | {:>10} | {:>12} | {:>14}",
        "k", "found", "mean iters", "mean step time"
    );
    for k in [3usize, 5, 7, 9, 12] {
        let config = EngineConfig::paper().with_k(k);
        let mut found = 0usize;
        let mut iters = 0.0;
        let mut step_time = Duration::ZERO;
        let mut steps = 0u32;
        for &tg in &targets {
            let target = vexus.groups().get(tg).members.clone();
            let mut session = vexus.session_with(config.clone()).expect("session opens");
            let t0 = Instant::now();
            let o = run_st(
                &mut session,
                &target,
                StAccept::Jaccard(0.7),
                12,
                Policy::Informed,
            )
            .expect("st runs");
            let elapsed = t0.elapsed();
            let n_steps = (o.iterations as u32).max(1);
            step_time += elapsed / n_steps;
            steps += 1;
            if o.found {
                found += 1;
                iters += o.iterations as f64;
            } else {
                iters += 12.0;
            }
        }
        let _ = writeln!(
            out,
            "{:>3} | {:>6}/{:<3} | {:>12.1} | {:>14?}",
            k,
            found,
            targets.len(),
            iters / targets.len() as f64,
            step_time / steps.max(1)
        );
    }
    out
}

// ---------------------------------------------------------------------------
// C6: the exponential group space
// ---------------------------------------------------------------------------

/// Paper: "with only four demographic attributes and five values for each,
/// the number of user groups will be in the order of 10^6."
pub fn c6_group_space() -> String {
    let mut out = header(
        "c6",
        "group-space growth (claim: exponential in attributes)",
    );
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 3_000,
        n_books: 2_000,
        n_ratings: 20_000,
        n_communities: 8,
        seed: 42,
    });
    let data = &ds.data;
    let vocab = Vocabulary::build(data);
    let full_db = TransactionDb::build(data, &vocab);
    let n_attrs_total = data.schema().len();
    let _ = writeln!(
        out,
        "{:>7} | {:>9} | {:>15} | {:>15} | {:>10}",
        "#attrs", "#tokens", "combinatorial", "closed groups", "mine time"
    );
    for n_attrs in 1..=n_attrs_total {
        // Restrict transactions to the first n_attrs attributes' tokens.
        // Token ids are assigned in attribute order, so a prefix of the
        // attribute list maps to a prefix of the token space.
        let max_token: u32 = data
            .schema()
            .iter()
            .take(n_attrs)
            .map(|(attr, _)| data.schema().cardinality(attr) as u32)
            .sum();
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
        // Combinatorial bound: product over attributes of (cardinality + 1).
        let mut bound: f64 = 1.0;
        for (attr, _) in data.schema().iter().take(n_attrs) {
            bound *= data.schema().cardinality(attr) as f64 + 1.0;
        }
        let t0 = Instant::now();
        let gs = vexus_mining::mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 5,
                max_description: n_attrs,
                max_groups: 2_000_000,
                emit_root: false,
            },
        );
        let mine = t0.elapsed();
        let _ = writeln!(
            out,
            "{:>7} | {:>9} | {:>15.0} | {:>15} | {:>10?}",
            n_attrs,
            max_token,
            bound - 1.0,
            gs.len(),
            mine
        );
    }
    out.push_str("(closedness + support pruning keep the mined space far below the combinatorial bound, which is what makes exploration tractable)\n");
    out
}

// ---------------------------------------------------------------------------
// C7: feedback learning ablation + unlearning
// ---------------------------------------------------------------------------

/// Feedback biases navigation toward the explorer's interest; deleting a
/// learned value ("male") re-balances results.
pub fn c7_feedback_ablation() -> String {
    let mut out = header("c7", "feedback learning ablation + unlearn");
    let (vexus, _) = workloads::dbauthors_engine(EngineConfig::paper());

    // Part 1: ST iterations with and without feedback.
    let mut targets: Vec<GroupId> = vexus
        .groups()
        .ids()
        .filter(|&g| (20..300).contains(&vexus.groups().get(g).size()))
        .collect();
    targets.truncate(6);
    let mut rows = Vec::new();
    for (label, config) in [
        ("feedback on", EngineConfig::paper()),
        ("feedback off", EngineConfig::paper().without_feedback()),
    ] {
        let mut iters = 0.0;
        let mut found = 0usize;
        for &tg in &targets {
            let target = vexus.groups().get(tg).members.clone();
            let mut session = vexus.session_with(config.clone()).expect("session opens");
            let o = run_st(
                &mut session,
                &target,
                StAccept::Jaccard(0.7),
                12,
                Policy::Informed,
            )
            .expect("st runs");
            if o.found {
                found += 1;
                iters += o.iterations as f64;
            } else {
                iters += 12.0;
            }
        }
        rows.push((label, found, iters / targets.len() as f64));
    }
    // Random baseline.
    {
        let mut iters = 0.0;
        let mut found = 0usize;
        for (i, &tg) in targets.iter().enumerate() {
            let target = vexus.groups().get(tg).members.clone();
            let mut session = vexus.session().expect("session opens");
            let o = run_st(
                &mut session,
                &target,
                StAccept::Jaccard(0.7),
                12,
                Policy::Random { seed: i as u64 },
            )
            .expect("st runs");
            if o.found {
                found += 1;
                iters += o.iterations as f64;
            } else {
                iters += 12.0;
            }
        }
        rows.push(("random walk", found, iters / targets.len() as f64));
    }
    let _ = writeln!(
        out,
        "{:>13} | {:>7} | {:>10}",
        "policy", "found", "mean iters"
    );
    for (label, found, iters) in rows {
        let _ = writeln!(
            out,
            "{label:>13} | {found:>4}/{:<2} | {iters:>10.1}",
            targets.len()
        );
    }

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
    let mut male_groups: Vec<GroupId> = vexus
        .groups()
        .iter()
        .filter(|(_, g)| g.describes(male_token) && (50..200).contains(&g.size()))
        .map(|(id, _)| id)
        .collect();
    male_groups.truncate(3);
    for &g in &male_groups {
        fb_biased.reward_group(vexus.groups().get(g));
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
    let reference = vexus.groups().get(anchor).members.clone();
    let male_share_of = |sel: &[GroupId]| -> f64 {
        let mut males = 0usize;
        let mut total = 0usize;
        for &g in sel {
            for u in vexus.groups().get(g).members.iter() {
                total += 1;
                if vexus.data().value(UserId::new(u), gender_attr) == male {
                    males += 1;
                }
            }
        }
        males as f64 / total.max(1) as f64
    };
    let with_bias = greedy::select_k(vexus.groups(), &candidates, &reference, &fb_biased, &params);
    let unlearned = greedy::select_k(
        vexus.groups(),
        &candidates,
        &reference,
        &fb_unlearned,
        &params,
    );
    let male_described = |sel: &[GroupId]| {
        sel.iter()
            .filter(|&&g| vexus.groups().get(g).describes(male_token))
            .count()
    };
    let _ = writeln!(
        out,
        "unlearn demo (same anchor/candidates, feedback only): with male bias learned the display is {:.1}% male ({} of 5 groups male-described); after deleting the bias from CONTEXT it is {:.1}% male ({} of 5 male-described)",
        male_share_of(&with_bias.selection) * 100.0,
        male_described(&with_bias.selection),
        male_share_of(&unlearned.selection) * 100.0,
        male_described(&unlearned.selection),
    );
    out
}

// ---------------------------------------------------------------------------
// C8: crossfilter incremental vs naive
// ---------------------------------------------------------------------------

/// Paper: coordinated views update "instantaneously" thanks to incremental
/// queries. Benchmark: brush latency, incremental vs naive recompute.
pub fn c8_crossfilter() -> String {
    let mut out = header("c8", "crossfilter brush latency: incremental vs naive");
    let _ = writeln!(
        out,
        "{:>9} | {:>14} | {:>14} | {:>8}",
        "records", "incremental", "naive", "speedup"
    );
    for n in [10_000usize, 50_000, 200_000] {
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
        // Sliding window of 40 brush moves.
        let moves = 40u32;
        let t0 = Instant::now();
        for i in 0..moves {
            let lo = i as f64 * 0.5;
            cf.brush_range(act, lo, lo + 5.0);
        }
        let incremental = t0.elapsed() / moves;
        // Naive: recompute everything per move.
        let t1 = Instant::now();
        for i in 0..moves {
            let lo = i as f64 * 0.5;
            cf.brush_range(act, lo, lo + 5.0);
            std::hint::black_box(cf.recompute_naive());
        }
        let naive = t1.elapsed() / moves;
        let _ = writeln!(
            out,
            "{:>9} | {:>14?} | {:>14?} | {:>7.1}x",
            n,
            incremental,
            naive,
            naive.as_secs_f64() / incremental.as_secs_f64().max(1e-12)
        );
    }
    out.push_str("(incremental touches only records whose filter status changed; naive rescans every record per brush)\n");
    out
}

// ---------------------------------------------------------------------------
// C9: discussion groups (ST) + satisfaction proxy
// ---------------------------------------------------------------------------

/// Scenario 2: a reader finds discussion groups she agrees and disagrees
/// with; the cited user study reports 80 % satisfaction for group-based
/// exploration.
pub fn c9_discussion_groups() -> String {
    let mut out = header(
        "c9",
        "discussion groups (ST) + satisfaction proxy (cited: 80 %)",
    );
    let (vexus, _) = workloads::bookcrossing_engine(EngineConfig::paper());
    let fav_attr = vexus
        .data()
        .schema()
        .attr("favorite_genre")
        .expect("favorite_genre");
    // Readers: one per genre value; target = the closed group of users who
    // share the reader's favorite genre (the "agree" club).
    let mut runs = 0usize;
    let mut satisfied = 0usize;
    let mut iters_sum = 0.0;
    let _ = writeln!(
        out,
        "{:>12} | {:>6} | {:>6} | {:>10}",
        "reader likes", "found", "iters", "similarity"
    );
    for value_idx in 0..vexus.data().schema().cardinality(fav_attr).min(8) {
        let v = vexus_data::ValueId::new(value_idx as u32);
        let Some(token) = vexus.vocab().token(fav_attr, v) else {
            continue;
        };
        // The agree-club: the group whose description is exactly that token.
        let Some((club, _)) = vexus
            .groups()
            .iter()
            .find(|(_, g)| g.description == vec![token])
        else {
            continue;
        };
        let target = vexus.groups().get(club).members.clone();
        if target.len() < 10 {
            continue;
        }
        let mut session = vexus.session().expect("session opens");
        let o = run_st(
            &mut session,
            &target,
            StAccept::Precision {
                min_precision: 0.8,
                min_size: 15,
            },
            10,
            Policy::Informed,
        )
        .expect("st runs");
        runs += 1;
        if o.found {
            satisfied += 1;
            iters_sum += o.iterations as f64;
        } else {
            iters_sum += 10.0;
        }
        let _ = writeln!(
            out,
            "{:>12} | {:>6} | {:>6} | {:>10.2}",
            vexus.data().schema().value_label(fav_attr, v),
            o.found,
            o.iterations,
            o.best_score
        );
    }
    if runs > 0 {
        let _ = writeln!(
            out,
            "satisfaction proxy: {}/{} readers reached their club within 10 iterations ({:.0}%; cited study: 80%); mean iterations {:.1}",
            satisfied,
            runs,
            100.0 * satisfied as f64 / runs as f64,
            iters_sum / runs as f64
        );
    }
    out
}

// ---------------------------------------------------------------------------
// C10: LDA vs PCA focus view
// ---------------------------------------------------------------------------

/// Focus-view claim: similar members appear closer. Measured as silhouette
/// of latent communities in the 2-D projection, LDA vs the PCA baseline.
pub fn c10_lda_vs_pca() -> String {
    let mut out = header("c10", "focus view: LDA vs PCA separation (silhouette)");
    let (vexus, latent) = workloads::dbauthors_engine(EngineConfig::paper());
    let featurizer = vexus_mining::features::Featurizer::new(vexus.data());
    // Probe the five biggest groups.
    let mut probe: Vec<GroupId> = vexus.groups().ids().collect();
    probe.sort_by_key(|&g| std::cmp::Reverse(vexus.groups().get(g).size()));
    probe.truncate(5);
    let _ = writeln!(
        out,
        "{:>6} | {:>8} | {:>9} | {:>9} | {:>9}",
        "group", "members", "classes", "LDA sil.", "PCA sil."
    );
    let mut lda_mean = 0.0;
    let mut pca_mean = 0.0;
    let mut counted = 0usize;
    for &g in &probe {
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
        if classes.len() < 2 {
            continue;
        }
        let points = featurizer.features_of(vexus.data(), &members);
        let lda = Lda::fit(&points, &labels, 2);
        let s_lda = silhouette(&lda.project_all(&points), &labels);
        let pca = Pca::fit(&points, 2);
        let s_pca = silhouette(&pca.project_all(&points), &labels);
        let _ = writeln!(
            out,
            "{:>6} | {:>8} | {:>9} | {:>9.3} | {:>9.3}",
            g.to_string(),
            members.len(),
            classes.len(),
            s_lda,
            s_pca
        );
        lda_mean += s_lda;
        pca_mean += s_pca;
        counted += 1;
    }
    if counted > 0 {
        let _ = writeln!(
            out,
            "mean: LDA {:.3} vs PCA {:.3} (supervised projection separates member profiles better)",
            lda_mean / counted as f64,
            pca_mean / counted as f64
        );
    }
    out
}

// ---------------------------------------------------------------------------
// C11: force layout clutter removal
// ---------------------------------------------------------------------------

/// GroupViz claim: the force layout "prevents visual clutter". Metric:
/// total pairwise circle-overlap area before vs after simulation.
pub fn c11_force_layout() -> String {
    let mut out = header("c11", "force layout clutter removal (overlap area)");
    let _ = writeln!(
        out,
        "{:>3} | {:>14} | {:>14} | {:>10}",
        "k", "overlap before", "overlap after", "ticks"
    );
    for k in [3usize, 5, 7, 9, 12] {
        let radii: Vec<f64> = (0..k).map(|i| 45.0 - 2.0 * i as f64).collect();
        let mut layout = ForceLayout::new(&radii, ForceConfig::default());
        let before = layout.total_overlap_area();
        let mut ticks = 0usize;
        while layout.total_overlap_area() > 1e-9 && ticks < 1000 {
            layout.tick();
            ticks += 1;
        }
        let after = layout.total_overlap_area();
        let _ = writeln!(out, "{k:>3} | {before:>14.1} | {after:>14.6} | {ticks:>10}");
    }
    out
}

// ---------------------------------------------------------------------------
// C12: the STATS drill-down example
// ---------------------------------------------------------------------------

/// Paper: "focusing on the group of 'very senior researchers in data
/// management with a very high number of publications' reveals that 62 % of
/// its members are male. … by brushing on gender to select females and on
/// publication rate to select 'extremely active', the table lists Elke A.
/// Rundensteiner…"
pub fn c12_stats_drilldown() -> String {
    let mut out = header("c12", "STATS drill-down (the 62 %-male example)");
    let (vexus, _) = workloads::dbauthors_engine(EngineConfig::paper());
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
    let target = vexus
        .groups()
        .iter()
        .filter(|(_, g)| g.describes(vs_tok) && g.describes(dm_tok))
        .max_by_key(|(_, g)| g.size());
    let Some((gid, group)) = target else {
        out.push_str("group 'very senior & data management' not frequent at this scale\n");
        return out;
    };
    let session = vexus.session().expect("session opens");
    let mut stats = session.stats_view(gid).expect("stats view");
    let male_share = stats.share(gender, "male").expect("share").max(0.0);
    let _ = writeln!(
        out,
        "group {gid}: \"{}\" with {} members",
        group.label(vexus.vocab(), schema),
        group.size()
    );
    let _ = writeln!(
        out,
        "gender histogram: male {:.0}% (paper example reported 62% male on DB-AUTHORS)",
        male_share * 100.0
    );
    // Brush to females with top publication activity.
    stats.brush(gender, &["female"]);
    stats.brush_activity(10.0, f64::MAX);
    let table = stats.table(5);
    let _ = writeln!(
        out,
        "after brushing [female] x [activity >= 10]: {} users selected; top of table:",
        stats.n_selected()
    );
    for (_, name, pubs) in &table {
        let _ = writeln!(out, "  {name:<14} {pubs} publications");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full experiment runs are exercised by the `experiments` binary and
    // the integration suite; here we smoke the cheap ones.

    #[test]
    fn dispatch_rejects_unknown_ids() {
        assert!(run("nope").is_none());
    }

    #[test]
    fn c11_reports_zero_overlap_after() {
        let report = c11_force_layout();
        assert!(report.contains("overlap after"));
        let mut rows = 0usize;
        for line in report.lines().skip(3) {
            let after = line.split('|').nth(2).expect("overlap-after column");
            let v: f64 = after
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("unparsable overlap in {line:?}: {e}"));
            assert!(v < 1.0, "clutter not removed: {line}");
            rows += 1;
        }
        assert!(rows >= 5, "expected one row per k, parsed {rows}");
    }
}
