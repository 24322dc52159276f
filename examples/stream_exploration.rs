//! Live stream intake: the second path of Fig. 1, end to end. Actions
//! arrive on a channel from a producer thread; the engine bootstraps from
//! a warmup prefix, then ingests the live stream and republishes itself
//! epoch by epoch — the stream miner advances incrementally, the
//! similarity index is rebuilt over each epoch's groups — while open
//! sessions keep exploring the epoch they started on.
//!
//! Run with: `cargo run --release --example stream_exploration`
//!
//! With `--durable <dir>` the engine logs every delta to a write-ahead
//! log and checkpoints into `<dir>`, gets killed mid-stream (the process
//! state is simply dropped, no shutdown hook), recovers from the durable
//! files, and finishes the stream — verifying the recovered engine picked
//! up exactly where the crash left off.

use std::sync::Arc;
use vexus::core::{
    DurabilityConfig, EngineConfig, ExplorationService, LiveEngine, Request, Response,
};
use vexus::data::stream::ChannelStream;
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::{Action, ActionStream};
use vexus::mining::DiscoverySelection;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--durable") => {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("--durable requires a directory argument");
                std::process::exit(2);
            });
            run_durable(dir.as_ref());
        }
        Some(other) => {
            eprintln!("unknown argument {other:?} (supported: --durable <dir>)");
            std::process::exit(2);
        }
        None => run_default(),
    }
}

/// The durable path: bootstrap into `dir`, stream half the tape, crash,
/// recover, and finish — every delta logged before it is applied.
fn run_durable(dir: &std::path::Path) {
    let dataset = bookcrossing(&BookCrossingConfig {
        n_users: 4_000,
        n_books: 3_000,
        n_ratings: 25_000,
        n_communities: 8,
        seed: 42,
    });
    let (mut base, tape) = dataset.data.split_actions();
    let warmup = tape.len() / 4;
    base.append_actions(&tape[..warmup]);
    let live_tape = &tape[warmup..];
    let config = EngineConfig {
        min_group_size: 10,
        ..EngineConfig::paper()
    }
    .with_discovery(DiscoverySelection::StreamFim {
        support: 0.02,
        epsilon: 0.004,
        max_len: 3,
    });

    // A fresh durable directory: checkpoint every 4 refreshes, fsync per
    // frame, keep the two newest checkpoints.
    let _ = std::fs::remove_dir_all(dir);
    let durability = DurabilityConfig {
        checkpoint_every: 4,
        ..DurabilityConfig::new(dir)
    };
    let live = Arc::new(
        LiveEngine::bootstrap_durable(base.clone(), config.clone(), durability.clone())
            .expect("warmup mines groups"),
    );
    let svc = ExplorationService::live(Arc::clone(&live));
    println!(
        "bootstrapped durable epoch 0 into {} ({} groups)",
        dir.display(),
        svc.engine().groups().len()
    );

    // Stream the first half, one refresh per batch; every refresh logs
    // its delta to the WAL before applying it.
    let feed = |svc: &ExplorationService, batch: &[Action]| {
        let (tx, mut rx) = ChannelStream::with_capacity(batch.len().max(1));
        for &a in batch {
            assert!(tx.send(a));
        }
        drop(tx);
        svc.ingest(&mut rx, usize::MAX).expect("live ingests");
    };
    let half = live_tape.len() / 2;
    let mut fed = 0usize;
    for batch in live_tape[..half].chunks(2_000) {
        feed(&svc, batch);
        fed += batch.len();
        let outcome = svc.refresh().expect("refresh applies");
        println!(
            "epoch {}: +{} actions | wal frame: {} ({} bytes) | checkpoint: {:?}",
            outcome.epoch,
            outcome.actions_applied,
            outcome.wal_appended,
            outcome.wal_bytes,
            outcome.checkpoint,
        );
    }
    let stats = svc.stats();
    let crash_epoch = stats.epoch;
    let applied_at_crash = svc.engine().data().actions().len();
    println!(
        "\n-- killing the engine mid-stream (epoch {crash_epoch}, {} wal frames, \
         {} checkpoints, no shutdown hook) --\n",
        stats.wal_frames, stats.checkpoints,
    );
    drop(svc);
    drop(live);

    // Recovery: newest valid checkpoint + surviving WAL frames, replayed
    // through the normal ingest/refresh path.
    let (recovered, report) =
        LiveEngine::recover(base, config, durability).expect("recovery succeeds");
    println!(
        "recovered: checkpoint watermark {} + {} frames replayed ({} skipped) -> epoch {}{}",
        report.checkpoint_watermark,
        report.frames_replayed,
        report.frames_skipped,
        report.final_epoch,
        if report.torn_tail {
            " (torn tail truncated)"
        } else {
            ""
        },
    );
    assert_eq!(report.final_epoch, crash_epoch, "recovered the crash epoch");
    assert_eq!(
        recovered.engine().data().actions().len(),
        applied_at_crash,
        "every logged action survived the crash"
    );
    println!(
        "verified: {} actions and epoch {} match the pre-crash engine exactly",
        applied_at_crash, report.final_epoch
    );

    // Finish the stream on the recovered engine.
    let svc = ExplorationService::live(Arc::new(recovered));
    for batch in live_tape[half..].chunks(2_000) {
        feed(&svc, batch);
        fed += batch.len();
        svc.refresh().expect("post-recovery refresh");
    }
    assert_eq!(fed, live_tape.len());
    let stats = svc.stats();
    println!(
        "\nfinished the stream post-recovery: epoch {} serves {} groups over {} actions \
         ({} wal frames and {} checkpoints since recovery; halted: {})",
        stats.epoch,
        svc.engine().groups().len(),
        svc.engine().data().actions().len(),
        stats.wal_frames,
        stats.checkpoints,
        stats.halted,
    );
}

fn run_default() {
    let dataset = bookcrossing(&BookCrossingConfig {
        n_users: 4_000,
        n_books: 3_000,
        n_ratings: 25_000,
        n_communities: 8,
        seed: 42,
    });

    // Split the action tape: the first chunk warms the engine up, the rest
    // arrives "live" from a producer thread.
    let (mut base, tape) = dataset.data.split_actions();
    let warmup = tape.len() / 4;
    base.append_actions(&tape[..warmup]);

    let config = EngineConfig {
        min_group_size: 10,
        ..EngineConfig::paper()
    }
    .with_discovery(DiscoverySelection::StreamFim {
        support: 0.02,
        epsilon: 0.004,
        max_len: 3,
    });
    let live = Arc::new(LiveEngine::bootstrap(base, config).expect("warmup mines groups"));
    let svc = ExplorationService::live(Arc::clone(&live));
    println!(
        "bootstrapped epoch 0 from {warmup} warmup actions: {} groups",
        svc.engine().groups().len()
    );

    // A session opened now is pinned to epoch 0 — refreshes below never
    // perturb it.
    let (pinned, display0) = svc.open().expect("session opens");

    // Producer: feeds the remaining tape in bursts over a bounded channel.
    let (tx, mut rx) = ChannelStream::with_capacity(4_096);
    let rest = tape[warmup..].to_vec();
    let producer = std::thread::spawn(move || {
        for chunk in rest.chunks(1_000) {
            for &a in chunk {
                if !tx.send(a) {
                    return;
                }
            }
        }
    });

    // Consumer: drain the stream and refresh every few batches. Each
    // refresh cuts one epoch-stamped delta, folds it into the dataset,
    // advances the stream miner, rebuilds the index over the epoch's
    // groups, and publishes the new engine with one Arc swap.
    let mut drained = 0usize;
    while rx.is_live() || drained > 0 {
        drained = svc.ingest(&mut rx, 5_000).expect("live service ingests");
        let outcome = svc.refresh().expect("refresh applies");
        if outcome.advanced {
            println!(
                "epoch {}: +{} actions, {} arrivals, Δgroups +{}/-{}/~{}, \
                 {} dirty lists in {:?}",
                outcome.epoch,
                outcome.actions_applied,
                outcome.arrivals,
                outcome.groups_added,
                outcome.groups_retired,
                outcome.groups_resized,
                outcome.rescored,
                outcome.refresh_time,
            );
        }
    }
    producer.join().expect("producer finishes");

    let stats = svc.stats();
    println!(
        "\nserved {} refreshes; final epoch {} has {} groups over {} actions",
        stats.refreshes,
        stats.epoch,
        svc.engine().groups().len(),
        svc.engine().data().actions().len()
    );

    // The pinned session still explores epoch 0's group space…
    println!("\nsession pinned at epoch 0 replays unchanged:");
    let shown = match svc
        .handle(Request::Display { session: pinned })
        .expect("pinned session serves")
    {
        Response::Display(d) => d,
        other => panic!("expected Display, got {other:?}"),
    };
    assert_eq!(shown, display0);
    svc.click(pinned, display0[0]).expect("pinned click");

    // …while a fresh session opens on the latest epoch.
    let (fresh, display_new) = svc.open().expect("fresh session opens");
    let engine = svc.engine();
    let session = engine.session().expect("describe helper");
    println!("fresh session at epoch {}:", stats.epoch);
    for &g in &display_new {
        println!("  {}", session.describe(g));
    }
    svc.close(fresh).expect("close");
    svc.close(pinned).expect("close");
}
