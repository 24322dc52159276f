//! Chaos serving: panic isolation and admission control under seeded faults.
//!
//! Opens 16 concurrent exploration sessions against one shared service,
//! arms a seeded fail point that panics inside roughly 10% of them
//! (selected by a hash of the session id, so the faulted set is known up
//! front), and lets every session walk a short script. The demo then
//! verifies the containment contract: faulted sessions are quarantined
//! with a typed error, every other session finishes its script untouched,
//! and the `ServiceStats` counters account for exactly what happened.
//!
//! Run with:
//!   `cargo run --release --example chaos_serve`

use std::sync::Arc;
use vexus::core::failpoint as fp;
use vexus::core::{ExplorationService, ServeError, Vexus};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};

fn main() {
    const SESSIONS: usize = 16;
    const STEPS: usize = 6;
    const FAULT_P: f64 = 0.1;
    const SEED: u64 = 0xC4A05;

    // 1. One engine, one service: the production serving topology.
    let dataset = bookcrossing(&BookCrossingConfig::tiny());
    let engine = Arc::new(Vexus::build(dataset.data, Default::default()).expect("groups"));
    let svc = ExplorationService::new(Arc::clone(&engine));

    // 2. Arm the chaos: `serve.step` panics inside any session whose id
    //    hashes under FAULT_P for SEED. Same seed, same victims — every
    //    run of this example tells the same story.
    let scenario = fp::FailScenario::setup();
    fp::configure(
        fp::SERVE_STEP,
        fp::Trigger::KeyProb {
            p: FAULT_P,
            seed: SEED,
        },
        fp::FailAction::Panic,
    );

    let opened: Vec<_> = (0..SESSIONS)
        .map(|_| svc.open().expect("session opens"))
        .collect();
    let predicted: Vec<bool> = opened
        .iter()
        .map(|(id, _)| fp::key_selected(SEED, FAULT_P, id.0))
        .collect();
    println!(
        "opened {SESSIONS} sessions; seed {SEED:#x} targets {} of them at p={FAULT_P}",
        predicted.iter().filter(|&&f| f).count()
    );

    // 3. Drive all sessions concurrently. Injected panics are caught by
    //    the service (quiet the default hook so they don't spam stderr);
    //    each thread records how far its script got and what stopped it.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let svc = &svc;
    let outcomes: Vec<(usize, Option<ServeError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .iter()
            .enumerate()
            .map(|(i, (id, opening))| {
                scope.spawn(move || {
                    let mut display = opening.clone();
                    for step in 0..STEPS {
                        if display.is_empty() {
                            return (step, None);
                        }
                        match svc.click(*id, display[(i + step) % display.len()]) {
                            Ok(next) => display = next,
                            Err(e) => return (step, Some(e)),
                        }
                    }
                    (STEPS, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    std::panic::set_hook(hook);
    drop(scenario); // disarm: the registry is cleared, ACTIVE drops to 0

    // 4. The containment contract, session by session.
    let mut quarantined = 0;
    for (i, (steps, error)) in outcomes.iter().enumerate() {
        let id = opened[i].0;
        if predicted[i] {
            assert!(
                matches!(error, Some(ServeError::SessionPoisoned(_))),
                "targeted session must die typed"
            );
            assert!(
                matches!(svc.display(id), Err(ServeError::SessionPoisoned(_))),
                "quarantine must persist"
            );
            quarantined += 1;
            println!(
                "  s{:<2} QUARANTINED at step {steps}: {}",
                id.0,
                error.as_ref().unwrap()
            );
        } else {
            assert_eq!(*error, None, "survivor must finish untouched");
            assert_eq!(*steps, STEPS);
            println!("  s{:<2} ok ({steps} steps)", id.0);
        }
    }

    // 5. The counters agree with what we just watched happen.
    let stats = svc.stats();
    println!("service stats: {stats:?}");
    assert_eq!(stats.opens, SESSIONS as u64);
    assert_eq!(stats.quarantines, quarantined);
    assert_eq!(
        svc.len(),
        SESSIONS,
        "quarantined slots stay accounted until closed"
    );
    for (id, _) in &opened {
        svc.close(*id)
            .expect("close always succeeds, even quarantined");
    }
    assert_eq!(svc.len(), 0);
    println!(
        "contained: {quarantined} quarantined, {} survivors unaffected",
        SESSIONS - quarantined as usize
    );
}
