//! Concurrent serving: one shared engine, many independent explorers.
//!
//! The offline pipeline (discovery + index) runs once; the engine is then
//! immutable, so an [`ExplorationService`] can serve any number of
//! sessions from any number of threads — each with its own display,
//! feedback vector and history, all reading neighbor lists through one
//! shared bounded cache.
//!
//! Run with: `cargo run --release --example concurrent_sessions`

use std::time::Instant;
use vexus::core::engine::VexusBuilder;
use vexus::core::{EngineConfig, ExplorationService};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};

fn main() {
    // 1. Offline pre-processing, once, for everyone.
    let dataset = bookcrossing(&BookCrossingConfig {
        n_users: 5_000,
        n_books: 4_000,
        n_ratings: 30_000,
        n_communities: 8,
        seed: 42,
    });
    let vexus = VexusBuilder::new(dataset.data)
        .config(EngineConfig::paper())
        .build()
        .expect("group space non-empty");
    println!(
        "engine: {} groups, index {} KiB — built once, shared by every session",
        vexus.groups().len(),
        vexus.index().stats().heap_bytes / 1024
    );

    // 2. A service over the shared engine. `Vexus::shared()` moves the
    //    engine into an Arc; sessions hold clones of that handle.
    let service = ExplorationService::new(vexus.shared());

    // 3. Serve 16 sessions from 4 threads. Every session walks its own
    //    path: session i always clicks display slot i mod |display|.
    let n_sessions = 16;
    let opened: Vec<_> = (0..n_sessions)
        .map(|_| service.open().expect("session opens"))
        .collect();
    let t0 = Instant::now();
    let step_counts: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .chunks(n_sessions / 4)
            .map(|chunk| {
                let service = &service;
                scope.spawn(move || {
                    let mut steps = 0;
                    for (i, (id, opening)) in chunk.iter().enumerate() {
                        let mut display = opening.clone();
                        for _ in 0..5 {
                            if display.is_empty() {
                                break;
                            }
                            let g = display[i % display.len()];
                            display = service.click(*id, g).expect("click");
                            steps += 1;
                        }
                    }
                    steps
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let total: usize = step_counts.iter().sum();
    println!(
        "served {total} steps across {n_sessions} sessions in {:?}",
        t0.elapsed()
    );
    let engine = service.engine();
    if let Some(cache) = engine.neighbor_cache() {
        let s = cache.stats();
        println!(
            "shared neighbor cache: {} hits / {} misses ({:.0}% hit rate)",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0
        );
    }

    // 4. Sessions are isolated: each has its own history and CONTEXT.
    let (id, _) = opened[0];
    let ctx = service.context(id, 3).expect("context");
    println!(
        "session {id}: {} learned user weights, display {:?}",
        ctx.users.len(),
        service.display(id).expect("display")
    );
    service.close(id).expect("close");
    println!("closed {id}; {} sessions still open", service.len());
}
