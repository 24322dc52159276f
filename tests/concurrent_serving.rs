//! Concurrent-serving equivalence properties: any set of scripted
//! sessions served concurrently from one shared engine (through
//! [`vexus::core::ExplorationService`]) must see exactly the display
//! trajectories the same scripts produce single-threaded, and a session
//! that bypasses the shared neighbor cache must see exactly what a cached
//! session sees. Scripts are deterministic functions of each session's
//! own displays, and the greedy budget is set far above convergence, so
//! any divergence is a real serving bug — not timing noise.

mod common;

use common::{apply_served, config, engine, replay_owned, replay_served, Replay, Trajectory, Verb};
use proptest::prelude::*;
use vexus::core::{EngineConfig, ExplorationService};
use vexus::mining::GroupId;

/// The script a pick sequence denotes: pick 6 backtracks to the opening
/// step (once there is somewhere to come back from), every other pick
/// clicks a display slot.
fn picks(script: &[usize]) -> impl Fn(usize, &[GroupId], usize) -> Option<Verb> + '_ {
    |step, display, history_len| {
        let pick = script[step];
        if pick == 6 && history_len > 1 {
            Some(Verb::Backtrack(0))
        } else if display.is_empty() {
            None
        } else {
            Some(Verb::Click(display[pick % display.len()]))
        }
    }
}

/// Replay `script` on one owned session, single-threaded; returns the
/// display after every verb (opening display first).
fn replay_single_threaded(script: &[usize], config: &EngineConfig) -> Trajectory {
    replay_owned(config, script.len(), picks(script))
}

/// Replay every script concurrently — one service over the shared engine,
/// one thread per session — and return each session's trajectory.
fn replay_concurrently(scripts: &[Vec<usize>], config: &EngineConfig) -> Vec<Trajectory> {
    let svc = ExplorationService::new(engine());
    let opened: Vec<_> = scripts
        .iter()
        .map(|_| svc.open_with(config.clone()).expect("session opens"))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(opened)
            .map(|(script, (id, opening))| {
                let svc = &svc;
                scope.spawn(move || {
                    let (traj, error) =
                        replay_served(svc, id, opening, script.len(), picks(script));
                    assert_eq!(error, None, "scripted verb");
                    traj
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread"))
            .collect()
    })
}

/// Sessions in the many-sessions-per-worker case below.
const POOLED_SESSIONS: usize = 16;
/// Worker threads stepping them.
const WORKERS: usize = 2;
/// Steps each session performs.
const POOLED_STEPS: usize = 7;

/// Session `i`'s pooled script: at step 5 backtrack to history step 2 (the
/// restore path must stay exact under concurrency too), otherwise click a
/// display slot chosen only from `(i, step)` and its own current display.
fn pooled_script(i: usize) -> impl Fn(usize, &[GroupId], usize) -> Option<Verb> {
    move |step, display, _| {
        if step == 5 {
            Some(Verb::Backtrack(2))
        } else if display.is_empty() {
            None
        } else {
            Some(Verb::Click(display[(i + step) % display.len()]))
        }
    }
}

/// Sessions ≫ workers, the shape a serving pool actually has: exactly two
/// worker threads step sixteen sessions round-robin (worker `w` owns the
/// sessions `i ≡ w mod 2`), so every step contends on the shared session
/// table and neighbor cache while each worker interleaves many sessions'
/// state. With the cache on and with it bypassed, every trajectory equals
/// the single-threaded owned-session reference.
#[test]
fn two_workers_stepping_many_sessions_match_single_threaded() {
    let pooled = config();
    let reference: Vec<Trajectory> = (0..POOLED_SESSIONS)
        .map(|i| replay_owned(&pooled, POOLED_STEPS, pooled_script(i)))
        .collect();
    assert!(
        reference.iter().all(|t| t.len() == POOLED_STEPS + 1),
        "every scripted step must land"
    );
    for cfg in [pooled.clone(), pooled.with_neighbor_cache(false)] {
        let svc = ExplorationService::new(engine());
        let opened: Vec<_> = (0..POOLED_SESSIONS)
            .map(|_| svc.open_with(cfg.clone()).expect("session opens"))
            .collect();
        let served: Vec<(usize, Trajectory)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (svc, opened) = (&svc, &opened);
                    scope.spawn(move || {
                        let mut mine: Vec<(usize, Replay)> = (w..POOLED_SESSIONS)
                            .step_by(WORKERS)
                            .map(|i| (i, Replay::new(opened[i].1.clone())))
                            .collect();
                        for step in 0..POOLED_STEPS {
                            for (i, replay) in &mut mine {
                                replay
                                    .advance(step, pooled_script(*i), |verb| {
                                        apply_served(svc, opened[*i].0, verb)
                                    })
                                    .expect("scripted verb");
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("serving worker"))
                .map(|(i, replay)| (i, replay.traj))
                .collect()
        });
        assert_eq!(served.len(), POOLED_SESSIONS);
        for (i, traj) in served {
            assert_eq!(
                traj, reference[i],
                "session {i} diverged (neighbor_cache = {})",
                cfg.neighbor_cache
            );
        }
    }
}

proptest! {
    // Each case replays every script twice (reference + concurrent); a
    // handful of cases over 2–4 sessions covers the interleavings that
    // matter without minutes of greedy steps.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N concurrent sessions over one shared engine see exactly the
    /// displays their scripts produce single-threaded.
    #[test]
    fn concurrent_sessions_match_single_threaded(
        scripts in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..5), 2..5)
    ) {
        let cfg = config();
        let reference: Vec<_> =
            scripts.iter().map(|s| replay_single_threaded(s, &cfg)).collect();
        let concurrent = replay_concurrently(&scripts, &cfg);
        prop_assert_eq!(concurrent, reference);
    }

    /// A session that bypasses the shared neighbor cache sees exactly what
    /// a cached session sees — the cache is a pure perf layer.
    #[test]
    fn cache_off_session_matches_cache_on(
        script in proptest::collection::vec(0usize..8, 1..7)
    ) {
        let cached = replay_single_threaded(&script, &config());
        let uncached = replay_single_threaded(&script, &config().with_neighbor_cache(false));
        prop_assert_eq!(cached, uncached);
    }
}
