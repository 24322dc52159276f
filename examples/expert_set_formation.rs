//! Scenario 1 from the paper (MT task): a program-committee chair assembles
//! a geographically and gender-diverse expert set on DB-AUTHORS.
//!
//! "The chair may start from a small group of researchers of the previous
//! year's PC. Then VEXUS returns similar groups. VEXUS captures the
//! feedback from the chair throughout the process … To diversify the expert
//! set, the chair may delete a learned demographic value, e.g. 'male', to
//! obtain more gender-balanced results."
//!
//! Run with: `cargo run --release --example expert_set_formation`

use vexus::core::engine::VexusBuilder;
use vexus::core::simulate::{run_mt, MtTask, Policy, Wanted};
use vexus::core::EngineConfig;
use vexus::data::synthetic::{dbauthors, DbAuthorsConfig};

fn main() {
    let dataset = dbauthors(&DbAuthorsConfig {
        n_authors: 4_000,
        n_publications: 30_000,
        n_communities: 6,
        seed: 42,
    });
    let vexus = VexusBuilder::new(dataset.data)
        .config(EngineConfig::paper())
        .build()
        .expect("group space non-empty");
    let data = vexus.data();
    let schema = data.schema();

    // The committee requirements: 12 active SIGMOD-area researchers,
    // geographically balanced (at most 3 per region).
    let venue = schema.attr("main_venue").expect("main_venue");
    let region = schema.attr("region").expect("region");
    let sigmod = schema.value(venue, "sigmod").expect("sigmod");
    let size = 12;
    let task = MtTask {
        wanted: Wanted::Committee {
            size,
            balance_attr: Some(region),
            max_per_value: 3,
        },
        brush: vec![(venue, sigmod)],
        min_activity: 8,
        inspect_limit: 15,
        max_iterations: 25,
    };
    println!("requirements: {size} active sigmod researchers, <= 3 per region");

    // The chair explores, brushing STATS to venue=sigmod and reading the
    // tables of focused groups; recruits land in MEMO.
    let mut session = vexus.session().expect("session opens");
    let outcome = run_mt(&mut session, &task, Policy::Informed).expect("runs");
    println!(
        "recruited {}/{size} in {} iterations (paper claim: <10 on average)",
        outcome.collected.len(),
        outcome.iterations
    );

    // Diversity audit of the assembled committee.
    let gender = schema.attr("gender").expect("gender");
    let region = schema.attr("region").expect("region");
    let mut females = 0usize;
    let mut regions: std::collections::BTreeSet<String> = Default::default();
    for &u in session.memo().users() {
        if schema.value_label(gender, data.value(u, gender)) == "female" {
            females += 1;
        }
        regions.insert(
            schema
                .value_label(region, data.value(u, region))
                .to_string(),
        );
    }
    println!(
        "committee balance: {} female / {} total; {} distinct regions ({:?})",
        females,
        session.memo().users().len(),
        regions.len(),
        regions
    );

    // The unlearning move: if CONTEXT learned "male", delete it.
    let male = schema.value(gender, "male").expect("male");
    if let Some(tok) = vexus.vocab().token(gender, male) {
        let biased = session.context(20).tokens.iter().any(|&(t, _)| t == tok);
        if biased {
            println!("CONTEXT learned gender=male — chair unlearns it for balance");
            session.unlearn_token(tok);
        }
    }
    println!("\n{}", session.render_text());
}
