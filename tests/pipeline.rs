//! End-to-end pipeline invariants: synthetic data → vocabulary → LCM
//! discovery → inverted index → exploration session (Fig. 1 of the paper).

use vexus::core::{EngineConfig, Vexus};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::Vocabulary;
use vexus::mining::transactions::TransactionDb;

mod common;

fn engine() -> Vexus {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty")
}

#[test]
fn discovered_groups_are_closed_and_frequent() {
    let vexus = engine();
    let vocab = Vocabulary::build(vexus.data());
    let db = TransactionDb::build(vexus.data(), &vocab);
    for (_, g) in vexus.groups().iter() {
        assert!(
            g.size() >= vexus.config().min_group_size,
            "support floor violated"
        );
        // Description is exactly the closure of the member set.
        assert_eq!(
            common::common_tokens(&db, g.members.as_slice()),
            g.description,
            "group not closed"
        );
        // Members are exactly the users carrying the description.
        assert_eq!(
            common::carriers(&db, &g.description),
            g.members.as_slice(),
            "member set does not match description"
        );
    }
}

#[test]
fn index_lists_are_sorted_and_exact() {
    let vexus = engine();
    for (gid, _) in vexus.groups().iter().take(50) {
        let neighbors = vexus.index().neighbors(vexus.groups(), gid, 10);
        assert!(
            neighbors.windows(2).all(|w| w[0].1 >= w[1].1),
            "neighbor list not sorted for {gid}"
        );
        for &(h, sim) in &neighbors {
            let expect = vexus
                .groups()
                .get(gid)
                .members
                .jaccard(&vexus.groups().get(h).members);
            assert!(
                (sim as f64 - expect).abs() < 1e-6,
                "similarity mismatch for {gid}->{h}"
            );
            assert!(sim > 0.0, "non-overlapping neighbor listed");
        }
    }
}

#[test]
fn exploration_respects_p1_p2_p3() {
    let vexus = engine();
    let mut session = vexus.session().expect("session opens");
    for _ in 0..5 {
        // P1: limited options.
        assert!(session.display().len() <= vexus.config().k);
        assert!(!session.display().is_empty());
        // P2: the greedy outcome carries quality telemetry in bounds.
        let q = session.last_outcome().expect("telemetry").quality;
        assert!((0.0..=1.0).contains(&q.diversity));
        assert!((0.0..=1.0).contains(&q.coverage));
        // P3: each step under budget + overhead slack.
        let elapsed = session.last_outcome().expect("telemetry").elapsed;
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "step too slow: {elapsed:?}"
        );
        let g = session.display()[0];
        if session.click(g).expect("click").is_empty() {
            break;
        }
    }
    assert!(session.history().len() >= 2);
}

#[test]
fn displayed_groups_exist_and_meet_similarity_bound() {
    let vexus = engine();
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    let anchor = vexus.groups().get(g).members.clone();
    session.click(g).expect("click");
    for &h in session.display() {
        assert!(h.index() < vexus.groups().len());
        let sim = anchor.jaccard(&vexus.groups().get(h).members);
        assert!(
            sim >= vexus.config().min_similarity,
            "similarity lower bound violated: {sim}"
        );
    }
}

#[test]
fn backtracking_replays_history_exactly() {
    let vexus = engine();
    let mut session = vexus.session().expect("session opens");
    let mut displays = vec![session.display().to_vec()];
    for _ in 0..3 {
        let g = session.display()[0];
        if session.click(g).expect("click").is_empty() {
            break;
        }
        displays.push(session.display().to_vec());
    }
    for (step, expected) in displays.iter().enumerate().rev() {
        session.backtrack(step).expect("backtrack");
        assert_eq!(
            session.display(),
            expected.as_slice(),
            "display mismatch at step {step}"
        );
    }
}

#[test]
fn group_space_is_deterministic_per_seed() {
    let a = engine();
    let b = engine();
    assert_eq!(a.groups().len(), b.groups().len());
    for (ga, gb) in a.groups().iter().zip(b.groups().iter()) {
        assert_eq!(ga.1.description, gb.1.description);
        assert_eq!(ga.1.members.as_slice(), gb.1.members.as_slice());
    }
    assert_eq!(
        a.index().stats().materialized_entries,
        b.index().stats().materialized_entries
    );
}
