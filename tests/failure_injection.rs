//! Failure injection across the stack: malformed inputs, degenerate
//! configurations, and hostile edge cases must fail loudly and precisely —
//! never corrupt state or succeed silently.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use vexus::core::{CoreError, EngineConfig, ExplorationService, ServeError, SessionId, Vexus};
use vexus::data::csv::{parse, CsvOptions};
use vexus::data::etl::{import, ImportSpec};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::{DataError, Schema, UserDataBuilder};
use vexus::mining::{Group, GroupId, GroupSet, MemberSet};

#[test]
fn malformed_csv_reports_line_numbers() {
    let err = parse("a,b\nok,1\n\"broken\n", CsvOptions::default()).unwrap_err();
    match err {
        DataError::Csv { line, message } => {
            assert_eq!(line, 3);
            assert!(message.contains("unterminated"));
        }
        other => panic!("expected CSV error, got {other}"),
    }
}

#[test]
fn import_with_missing_columns_fails_before_mutating() {
    let table = parse("x,y\n1,2\n", CsvOptions::default()).unwrap();
    let mut builder = UserDataBuilder::new(Schema::new());
    let err = import(
        &table,
        &ImportSpec {
            user_column: "user".into(),
            ..Default::default()
        },
        &mut builder,
    )
    .unwrap_err();
    assert!(matches!(err, DataError::UnknownAttribute(_)));
    assert_eq!(builder.n_users(), 0, "no partial import on spec errors");
}

#[test]
fn import_with_unknown_schema_attribute_fails() {
    let table = parse("user,age\nmary,30\n", CsvOptions::default()).unwrap();
    let mut builder = UserDataBuilder::new(Schema::new()); // no "age" attribute
    let err = import(
        &table,
        &ImportSpec {
            user_column: "user".into(),
            demographics: vec![("age".into(), "age".into())],
            ..Default::default()
        },
        &mut builder,
    )
    .unwrap_err();
    assert!(matches!(err, DataError::UnknownAttribute(_)));
}

#[test]
fn engine_rejects_empty_group_spaces() {
    // Users with zero demographics yield zero tokens and zero groups.
    let mut b = UserDataBuilder::new(Schema::new());
    for i in 0..100 {
        b.user(&format!("u{i}"));
    }
    match Vexus::build(b.build(), EngineConfig::default()) {
        Err(err) => assert_eq!(err, CoreError::EmptyGroupSpace),
        Ok(_) => panic!("expected EmptyGroupSpace"),
    }
}

#[test]
fn engine_rejects_support_higher_than_population() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    match Vexus::build(
        ds.data,
        EngineConfig {
            min_group_size: 1_000_000,
            ..EngineConfig::default()
        },
    ) {
        Err(err) => assert_eq!(err, CoreError::EmptyGroupSpace),
        Ok(_) => panic!("expected EmptyGroupSpace"),
    }
}

#[test]
fn session_rejects_foreign_group_ids() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
    let mut session = vexus.session().unwrap();
    let bogus = GroupId::new(u32::MAX - 1);
    assert!(matches!(
        session.click(bogus),
        Err(CoreError::NotDisplayed(_))
    ));
    assert!(matches!(
        session.memo_group(bogus),
        Err(CoreError::UnknownGroup(_))
    ));
    assert!(matches!(
        session.stats_view(bogus),
        Err(CoreError::UnknownGroup(_))
    ));
    let attr = vexus.data().schema().attr("country").unwrap();
    assert!(matches!(
        session.focus_view(bogus, attr),
        Err(CoreError::UnknownGroup(_))
    ));
    assert!(matches!(
        session.backtrack(99),
        Err(CoreError::BadHistoryStep(99))
    ));
    // After all those rejections the session still works.
    let g = session.display()[0];
    assert!(session.click(g).is_ok());
}

#[test]
fn zero_budget_sessions_still_function() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
    let config = EngineConfig {
        time_budget: std::time::Duration::ZERO,
        ..EngineConfig::default()
    };
    let mut session = vexus.session_with(config).unwrap();
    assert!(
        !session.display().is_empty(),
        "seed selection works without budget"
    );
    let g = session.display()[0];
    session.click(g).unwrap();
    assert!(session.last_outcome().unwrap().budget_exhausted);
}

#[test]
fn over_unlearned_feedback_degrades_gracefully() {
    let ds = bookcrossing(&BookCrossingConfig::tiny());
    let vexus = Vexus::build(ds.data, EngineConfig::default()).unwrap();
    let mut session = vexus.session().unwrap();
    let g = session.display()[0];
    session.click(g).unwrap();
    // Unlearn every context entry.
    let ctx = session.context(usize::MAX);
    for (t, _) in ctx.tokens {
        session.unlearn_token(t);
    }
    for (u, _) in ctx.users {
        session.unlearn_user(u);
    }
    // Mass is either empty or still a probability vector; exploration
    // continues with uniform weights.
    let ctx_users: Vec<_> = session.context(usize::MAX).users;
    for (u, _) in ctx_users {
        session.unlearn_user(u);
    }
    let g = session.display()[0];
    assert!(session.click(g).is_ok());
}

#[test]
fn degenerate_groups_do_not_break_the_index() {
    // Singleton groups, empty-description groups, identical twins.
    let mut gs = GroupSet::new();
    gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![0])));
    gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![0])));
    gs.push(Group::new(vec![], MemberSet::from_unsorted(vec![1, 2, 3])));
    let idx = vexus::index::GroupIndex::build(
        &gs,
        &vexus::index::IndexConfig {
            materialize_fraction: 1.0,
            threads: 1,
        },
    );
    // The identical twins are mutual neighbors at similarity 1.
    let n = idx.neighbors(&gs, GroupId::new(0), 5);
    assert_eq!(n[0].0, GroupId::new(1));
    assert!((n[0].1 - 1.0).abs() < 1e-6);
    // The disjoint group has no neighbors.
    assert!(idx.neighbors(&gs, GroupId::new(2), 5).is_empty());
}

#[test]
fn nan_free_projections_on_constant_members() {
    // A group whose members are demographically identical: LDA falls back
    // to PCA (single class), PCA sees zero variance — projections must
    // still be finite.
    // Two groups: one of 20 identical users (tests zero within-variance)
    // and one small distinct group so the space is non-trivial.
    let mut schema = Schema::new();
    let g = schema.add_categorical("g");
    let mut b = UserDataBuilder::new(schema);
    for i in 0..20 {
        let u = b.user(&format!("u{i}"));
        b.set_demo(u, g, "same").unwrap();
    }
    for i in 20..24 {
        let u = b.user(&format!("u{i}"));
        b.set_demo(u, g, "other").unwrap();
    }
    let data = b.build();
    let vexus = Vexus::build(
        data,
        EngineConfig {
            min_group_size: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let session = vexus.session().unwrap();
    let gid = session.display()[0];
    let attr = vexus.data().schema().attr("g").unwrap();
    let points = session.focus_view(gid, attr).unwrap();
    assert!(!points.is_empty());
    for (_, p, _) in points {
        assert!(p[0].is_finite() && p[1].is_finite());
    }
}

#[test]
fn crossfilter_rejects_inconsistent_inputs() {
    let result = std::panic::catch_unwind(|| {
        let mut cf = vexus::stats::Crossfilter::new(5);
        cf.add_numeric(vec![1.0; 4], &[2.0]); // wrong length
    });
    assert!(result.is_err());
    let result = std::panic::catch_unwind(|| {
        let mut cf = vexus::stats::Crossfilter::new(3);
        cf.add_categorical(vec![0, 1, 9], 2); // category out of range
    });
    assert!(result.is_err());
}

/// One engine shared by every serving property case — building it
/// dominates the cost of a case and it is immutable post-build.
fn serving_engine() -> Arc<Vexus> {
    static ENGINE: OnceLock<Arc<Vexus>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Arc::new(Vexus::build(ds.data, EngineConfig::default()).expect("non-empty group space"))
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The serving layer under hostile request streams: verbs aimed at
    /// stale (closed) sessions, never-opened session ids, out-of-range
    /// group ids, and backtrack steps beyond any history. Every input
    /// must yield a *typed* `ServeError` — never a panic, never a
    /// mis-addressed error — and the table size must track the model's
    /// open set exactly after every request.
    #[test]
    fn serving_layer_rejects_hostile_requests_typed(
        ops in proptest::collection::vec((0usize..8, 0usize..3, 0usize..100), 1..40)
    ) {
        let svc = ExplorationService::new(serving_engine());
        let mut open: Vec<SessionId> = Vec::new();
        let mut closed: Vec<SessionId> = Vec::new();
        for (op, sel, arg) in ops {
            // Target selection: a live session, a stale (closed) one, or
            // an id that never existed.
            let target = match sel {
                0 if !open.is_empty() => open[arg % open.len()],
                1 if !closed.is_empty() => closed[arg % closed.len()],
                _ => SessionId(1_000_000 + arg as u64),
            };
            let known = open.contains(&target);
            // Each verb's success reduces to the session it opened, if any.
            let outcome: Result<Option<SessionId>, ServeError> = match op {
                0 => svc.open().map(|(session, _)| Some(session)),
                // Mostly far outside the group space; occasionally a real
                // (possibly displayed) group.
                1 => svc
                    .click(target, GroupId::new((arg as u32).wrapping_mul(7919)))
                    .map(|_| None),
                // No script here clicks 50 times, so the step is always
                // beyond whatever history the session accumulated.
                2 => svc.backtrack(target, 50 + arg).map(|_| None),
                3 => svc.display(target).map(|_| None),
                4 => svc.context(target, arg % 10).map(|_| None),
                5 => svc
                    .memo_group(target, GroupId::new(u32::MAX - arg as u32))
                    .map(|_| None),
                6 => {
                    svc.stats();
                    Ok(None)
                }
                _ => svc.close(target).map(|_| None),
            };
            match (outcome, op) {
                (Ok(Some(session)), _) => open.push(session),
                (Ok(_), 6) => {}
                (Ok(_), 7) => {
                    prop_assert!(known, "close of unknown {target} succeeded");
                    open.retain(|s| *s != target);
                    closed.push(target);
                }
                (Ok(_), _) => prop_assert!(known, "verb on unknown {target} succeeded"),
                (Err(ServeError::UnknownSession(id)), _) => {
                    prop_assert!(!known, "live {target} reported unknown");
                    prop_assert_eq!(id, target.0);
                }
                (Err(ServeError::Core(_)), _) => {
                    prop_assert!(known, "core error for a session that does not exist");
                }
                (Err(other), _) => {
                    prop_assert!(false, "unexpected error kind: {other}");
                }
            }
            prop_assert_eq!(svc.len(), open.len());
        }
    }
}
