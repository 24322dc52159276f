//! Build once, snapshot, load, serve: the deployment shape the snapshot
//! format exists for. A build host runs the offline pipeline and writes
//! the engine to bytes; serving hosts load those bytes — validation plus
//! slice reinterpretation, no discovery, no pair scoring — and serve
//! concurrent sessions from the loaded engine exactly as they would from
//! the built one.
//!
//! Run with `cargo run --release --example snapshot_serve`.

use std::sync::Arc;
use std::time::Instant;
use vexus::core::{EngineConfig, ExplorationService, Vexus};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};

fn main() {
    let ds = bookcrossing(&BookCrossingConfig {
        n_users: 3_000,
        n_books: 2_000,
        n_ratings: 20_000,
        n_communities: 8,
        seed: 42,
    });

    // Build host: full offline pipeline, then serialize.
    let t = Instant::now();
    let built = Vexus::build(ds.data.clone(), EngineConfig::paper()).expect("non-empty");
    println!(
        "built:  {} groups in {:?} ({} KiB resident)",
        built.groups().len(),
        t.elapsed(),
        built.heap_bytes() / 1024
    );
    let t = Instant::now();
    let snapshot = built.write_snapshot();
    println!("encode: {} KiB in {:?}", snapshot.len() / 1024, t.elapsed());

    // Serving host: load (the dataset ships separately; the snapshot
    // carries the derived state — vocabulary, groups, index, catalog).
    let t = Instant::now();
    let loaded =
        Vexus::from_snapshot(ds.data, &snapshot, EngineConfig::paper()).expect("valid snapshot");
    println!("load:   {:?}", t.elapsed());

    // Serve 8 concurrent sessions from the loaded engine.
    let svc = ExplorationService::new(Arc::new(loaded));
    let sessions: Vec<_> = (0..8).map(|_| svc.open().expect("session opens")).collect();
    let t = Instant::now();
    let steps: usize = std::thread::scope(|scope| {
        let svc = &svc;
        let handles: Vec<_> = sessions
            .iter()
            .map(|(id, opening)| {
                scope.spawn(move || {
                    let mut display = opening.clone();
                    let mut steps = 0usize;
                    for step in 0..5 {
                        if display.is_empty() {
                            break;
                        }
                        display = svc
                            .click(*id, display[step % display.len()])
                            .expect("click");
                        steps += 1;
                    }
                    steps
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    println!(
        "serve:  8 sessions, {} recorded steps in {:?}",
        steps,
        t.elapsed()
    );
}
