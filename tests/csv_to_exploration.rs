//! The CSV intake path: raw CSV text → ETL cleaning → typed import →
//! derived attributes → discovery → exploration. Exercises the full offline
//! stage of Fig. 1 from a file-shaped input.

use vexus::core::engine::VexusBuilder;
use vexus::core::EngineConfig;
use vexus::data::csv::CsvOptions;
use vexus::data::etl::{clean, import, CleanOp, ImportSpec};
use vexus::data::{Schema, UserDataBuilder};

fn ratings_csv() -> String {
    // 60 users, two latent taste camps, with dirty rows sprinkled in.
    let mut text = String::from("user,age,gender,book,genre,rating\n");
    for i in 0..60 {
        let (genre, gender) = if i % 2 == 0 {
            ("fiction", "F")
        } else {
            ("scifi", "M")
        };
        let age = 20 + (i % 40);
        for b in 0..4 {
            text.push_str(&format!(
                "reader-{i:02},{age},{gender},book-{genre}-{b},{genre},{}\n",
                5 + (i + b) % 5
            ));
        }
    }
    // Dirt: duplicate, ragged, null-age, unparseable rating.
    text.push_str("reader-00,20,F,book-fiction-0,fiction,5\n");
    text.push_str("short-row\n");
    text.push_str("reader-99,NULL,F,book-fiction-1,fiction,4\n");
    text.push_str("reader-98,33,M,book-scifi-1,scifi,oops\n");
    text
}

#[test]
fn csv_to_exploration_end_to_end() {
    let mut table = vexus::data::csv::parse(&ratings_csv(), CsvOptions::default()).unwrap();
    let report = clean(
        &mut table,
        &[
            CleanOp::TrimWhitespace,
            CleanOp::NormalizeNulls(vec!["null".into()]),
            CleanOp::DropRagged,
            CleanOp::DropDuplicates,
            CleanOp::ClampNumeric {
                column: "age".into(),
                min: 10.0,
                max: 100.0,
            },
        ],
    );
    assert_eq!(report.dropped_ragged, 1);
    assert_eq!(report.dropped_duplicates, 1);
    assert_eq!(report.nulls_normalized, 1);

    let mut schema = Schema::new();
    schema.add_numeric_labeled("age", &[30.0, 50.0], &["young", "middle", "senior"]);
    schema.add_categorical("gender");
    let fav = schema.add_categorical("favorite_genre");
    let mut builder = UserDataBuilder::new(schema);
    let stats = import(
        &table,
        &ImportSpec {
            user_column: "user".into(),
            item_column: Some("book".into()),
            value_column: Some("rating".into()),
            item_category_column: Some("genre".into()),
            demographics: vec![
                ("age".into(), "age".into()),
                ("gender".into(), "gender".into()),
            ],
        },
        &mut builder,
    )
    .unwrap();
    assert_eq!(stats.bad_values, 1, "the 'oops' rating is dropped");
    assert!(stats.actions_imported >= 240);

    // Derive an action-based attribute (activity camp) before freezing.
    builder
        .derive_attribute(fav, |_, acts| {
            if acts.is_empty() {
                String::new()
            } else {
                format!("camp-{}", acts.len() % 2)
            }
        })
        .unwrap();
    let data = builder.build();
    assert_eq!(data.n_users(), 62); // 60 readers + the 2 dirty-row users

    let vexus = VexusBuilder::new(data)
        .config(EngineConfig {
            min_group_size: 3,
            ..EngineConfig::default()
        })
        .build()
        .expect("group space non-empty");
    assert_eq!(vexus.build_stats().algorithm, "lcm");
    assert!(vexus.groups().len() > 5);
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    session.click(g).expect("click");
    assert!(!session.display().is_empty());

    // STATS over a discovered group shows gender distribution.
    let gender = vexus.data().schema().attr("gender").unwrap();
    let stats_view = session.stats_view(session.display()[0]).unwrap();
    let hist = stats_view.histogram(gender);
    let total: u64 = hist.iter().map(|(_, c)| c).sum();
    assert_eq!(total as usize, stats_view.n_users());
}
