//! The paper's two scenarios as integration tests: expert-set formation
//! (MT) on DB-AUTHORS and discussion groups (ST) on BookCrossing, plus the
//! baseline comparisons.

use std::collections::HashMap;
use vexus::core::simulate::{run_mt, run_st, MtOutcome, MtTask, Policy, StAccept, Wanted};
use vexus::core::{EngineConfig, ExplorationSession, Vexus};
use vexus::data::synthetic::{bookcrossing, dbauthors, BookCrossingConfig, DbAuthorsConfig};
use vexus::data::UserId;
use vexus::mining::MemberSet;

fn authors_engine() -> Vexus {
    let ds = dbauthors(&DbAuthorsConfig {
        n_authors: 1_500,
        n_publications: 10_000,
        n_communities: 5,
        seed: 42,
    });
    Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty")
}

fn books_engine() -> Vexus {
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 1_500,
        n_books: 1_000,
        n_ratings: 9_000,
        n_communities: 6,
        seed: 42,
    });
    Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty")
}

#[test]
fn scenario1_committee_formation_collects_experts() {
    let vexus = authors_engine();
    let data = vexus.data();
    let venue = data.schema().attr("main_venue").unwrap();
    let sigmod = data.schema().value(venue, "sigmod").expect("sigmod exists");
    let committee: Vec<UserId> = data
        .users()
        .filter(|&u| data.value(u, venue) == sigmod && data.user_activity(u) >= 2)
        .take(10)
        .collect();
    assert!(
        committee.len() >= 5,
        "not enough sigmod researchers generated"
    );
    let mut session = vexus.session().expect("session opens");
    let out = run_mt(
        &mut session,
        &MtTask::targets(committee.clone(), 20, 150),
        Policy::Informed,
    )
    .expect("mt runs");
    assert!(
        out.recall >= 0.5,
        "informed chair collected only {:.0}%",
        out.recall * 100.0
    );
    // Everything collected is actually a target and in MEMO.
    for u in &out.collected {
        assert!(committee.contains(u));
        assert!(session.memo().users().contains(u));
    }
}

/// The committee invariants of a finished [`run_mt`]: every recruit passes
/// the brushes, no balance value is over its cap, MEMO holds exactly the
/// recruits, the fill is at most 1, and every recruit was readable in a
/// brushed table no longer than `inspect_limit` on some display.
fn assert_committee_invariants(session: &ExplorationSession<'_>, task: &MtTask, out: &MtOutcome) {
    let Wanted::Committee {
        size,
        balance_attr,
        max_per_value,
    } = task.wanted
    else {
        panic!("a committee task");
    };
    let data = session.data();
    let table = |g| -> Vec<UserId> {
        session
            .group_members(g)
            .iter()
            .map(UserId::new)
            .filter(|&u| {
                task.brush.iter().all(|&(a, v)| data.value(u, a) == v)
                    && data.user_activity(u) >= task.min_activity
            })
            .collect()
    };
    let mut per_value: HashMap<u32, usize> = HashMap::new();
    for &u in &out.collected {
        assert!(
            task.brush.iter().all(|&(a, v)| data.value(u, a) == v),
            "recruit {u:?} fails the profile brush"
        );
        assert!(data.user_activity(u) >= task.min_activity);
        if let Some(attr) = balance_attr {
            *per_value.entry(data.value(u, attr).raw()).or_insert(0) += 1;
        }
        let readable = session.history().iter().any(|step| {
            step.display.iter().any(|&g| {
                let t = table(g);
                t.len() <= task.inspect_limit && t.contains(&u)
            })
        });
        assert!(readable, "recruit {u:?} came from no readable table");
    }
    assert!(per_value.values().all(|&n| n <= max_per_value));
    assert_eq!(session.memo().users(), out.collected.as_slice());
    assert!(out.recall <= 1.0);
    assert_eq!(out.recall, out.collected.len() as f64 / size as f64);
}

/// The committee invariants on `c4`'s engine and tasks, for the informed
/// chair and three random ones.
#[test]
fn c4_committees_keep_the_task_invariants() {
    let (vexus, _) = vexus_bench::workloads::dbauthors_engine();
    let schema = vexus.data().schema();
    let venue = schema.attr("main_venue").expect("main_venue");
    let region = schema.attr("region").expect("region");
    for name in ["sigmod", "vldb", "cikm"] {
        let task = MtTask {
            wanted: Wanted::Committee {
                size: 12,
                balance_attr: Some(region),
                max_per_value: 3,
            },
            brush: vec![(venue, schema.value(venue, name).expect("venue"))],
            min_activity: 8,
            inspect_limit: 15,
            max_iterations: 25,
        };
        for policy in [
            Policy::Informed,
            Policy::Random { seed: 0 },
            Policy::Random { seed: 1 },
            Policy::Random { seed: 2 },
        ] {
            let mut session = vexus.session().expect("session opens");
            let out = run_mt(&mut session, &task, policy).expect("mt runs");
            assert_committee_invariants(&session, &task, &out);
        }
    }
}

/// A balance cap of one per region on a tiny engine binds before the
/// committee fills: the run ends short, one recruit per region.
#[test]
fn binding_balance_cap_leaves_the_committee_short() {
    let ds = dbauthors(&DbAuthorsConfig::tiny());
    let vexus = Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty");
    let region = vexus.data().schema().attr("region").expect("region");
    let task = MtTask {
        wanted: Wanted::Committee {
            size: 50,
            balance_attr: Some(region),
            max_per_value: 1,
        },
        brush: Vec::new(),
        min_activity: 1,
        inspect_limit: 60,
        max_iterations: 10,
    };
    let mut session = vexus.session().expect("session opens");
    let out = run_mt(&mut session, &task, Policy::Informed).expect("mt runs");
    assert_committee_invariants(&session, &task, &out);
    assert!(!out.collected.is_empty() && out.recall < 1.0);
}

#[test]
fn scenario2_reader_finds_her_club() {
    let vexus = books_engine();
    let data = vexus.data();
    let fav = data.schema().attr("favorite_genre").unwrap();
    // Use the most common favorite genre so the club certainly exists.
    let mut counts = std::collections::HashMap::new();
    for u in data.users() {
        let v = data.value(u, fav);
        if !v.is_missing() {
            *counts.entry(v).or_insert(0usize) += 1;
        }
    }
    let (&top, _) = counts.iter().max_by_key(|(_, &c)| c).expect("non-empty");
    let club: MemberSet = data
        .users()
        .filter(|&u| data.value(u, fav) == top)
        .map(|u| u.raw())
        .collect();
    let mut session = vexus.session().expect("session opens");
    let out = run_st(
        &mut session,
        &club,
        StAccept::Precision {
            min_precision: 0.8,
            min_size: 10,
        },
        25,
        Policy::Informed,
    )
    .expect("st runs");
    assert!(
        out.found,
        "reader never found a club (best purity {:.2})",
        out.best_score
    );
    // The accepted group is bookmarked as her analysis goal.
    assert_eq!(session.memo().groups().first(), out.accepted.as_ref());
}

#[test]
fn informed_explorer_dominates_random_on_st() {
    let vexus = books_engine();
    // Five random mid-size target groups.
    let targets: Vec<_> = vexus
        .groups()
        .ids()
        .filter(|&g| (15..150).contains(&vexus.groups().get(g).size()))
        .take(5)
        .collect();
    assert!(!targets.is_empty());
    let mut informed_best = 0.0;
    let mut random_best = 0.0;
    for (i, &tg) in targets.iter().enumerate() {
        let target = vexus.groups().get(tg).members.clone();
        let mut s = vexus.session().expect("session opens");
        informed_best += run_st(&mut s, &target, StAccept::Jaccard(0.9), 8, Policy::Informed)
            .expect("st runs")
            .best_score;
        let mut s = vexus.session().expect("session opens");
        random_best += run_st(
            &mut s,
            &target,
            StAccept::Jaccard(0.9),
            8,
            Policy::Random { seed: i as u64 },
        )
        .expect("st runs")
        .best_score;
    }
    assert!(
        informed_best >= random_best * 0.9,
        "informed ({informed_best:.2}) should be at least on par with random ({random_best:.2})"
    );
}

#[test]
fn feedback_ablation_changes_behavior() {
    let vexus = authors_engine();
    // Clicks with feedback enabled must fill CONTEXT; without, it stays
    // empty (the NoFeedback baseline).
    let mut with_fb = vexus.session().expect("session opens");
    let g = with_fb.display()[0];
    with_fb.click(g).expect("click");
    assert!(!with_fb.feedback().is_empty());

    let mut without_fb = vexus
        .session_with(EngineConfig::default().without_feedback())
        .expect("session opens");
    let g = without_fb.display()[0];
    without_fb.click(g).expect("click");
    assert!(without_fb.feedback().is_empty());
    assert!(without_fb.context(5).tokens.is_empty());
}

#[test]
fn unlearning_gender_rebalances_candidates() {
    let vexus = authors_engine();
    let data = vexus.data();
    let gender = data.schema().attr("gender").unwrap();
    let male = data.schema().value(gender, "male").unwrap();
    let male_token = vexus.vocab().token(gender, male).expect("token");
    let mut session = vexus.session().expect("session opens");
    // Click a few times to accumulate feedback.
    for _ in 0..3 {
        let g = session.display()[0];
        if session.click(g).expect("click").is_empty() {
            break;
        }
    }
    session.unlearn_token(male_token);
    assert!(
        session
            .context(50)
            .tokens
            .iter()
            .all(|&(t, _)| t != male_token),
        "male token must vanish from CONTEXT"
    );
    // Feedback stays a probability vector after unlearning.
    let mass = session.feedback().total_mass();
    assert!(session.feedback().is_empty() || (mass - 1.0).abs() < 1e-9);
}
