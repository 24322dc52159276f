//! Quickstart: the full VEXUS loop in ~60 lines.
//!
//! Generates a BookCrossing-like dataset, runs the offline pipeline (group
//! discovery + similarity index), opens an exploration session and walks a
//! few steps, printing all five views.
//!
//! Run with: `cargo run --release --example quickstart`

use vexus::core::engine::VexusBuilder;
use vexus::core::EngineConfig;
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};

fn main() {
    // 1. User data: demographics + [user, item, value] actions.
    let dataset = bookcrossing(&BookCrossingConfig {
        n_users: 5_000,
        n_books: 4_000,
        n_ratings: 30_000,
        n_communities: 8,
        seed: 42,
    });
    println!(
        "dataset: {} users, {} books, {} ratings",
        dataset.data.n_users(),
        dataset.data.n_items(),
        dataset.data.n_actions()
    );

    // 2. Offline pre-processing, staged: data -> discovery -> size-filter
    //    -> index. The discovery stage is pluggable; the default is the
    //    paper's LCM closed-group miner, selected by EngineConfig.
    let vexus = VexusBuilder::new(dataset.data)
        .config(EngineConfig::paper())
        .build()
        .expect("group space non-empty");
    println!(
        "pre-processing[{}]: {} groups mined; index {} KiB",
        vexus.build_stats().discovery.algorithm,
        vexus.groups().len(),
        vexus.index().stats().heap_bytes / 1024
    );

    // 3. Interactive exploration: click through three steps.
    let mut session = vexus.session().expect("session opens");
    println!("\nopening display:");
    for &g in session.display() {
        println!("  {}", session.describe(g));
    }
    for step in 1..=3 {
        // The "explorer": always click the first circle.
        let g = session.display()[0];
        println!("\n-- step {step}: clicking {} --", session.describe(g));
        session.click(g).expect("click");
        for &h in session.display() {
            println!("  {}", session.describe(h));
        }
        let outcome = session.last_outcome().expect("telemetry");
        println!(
            "  (P2 diversity {:.2}, coverage {:.2}; P3 step took {:?})",
            outcome.quality.diversity, outcome.quality.coverage, outcome.elapsed
        );
    }

    // 4. Bookmark a group and render the whole five-view state.
    let favourite = session.display()[0];
    session.memo_group(favourite).expect("memo");
    println!("\n{}", session.render_text());
}
