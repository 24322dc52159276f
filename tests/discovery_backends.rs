//! One integration test per discovery backend: LCM, α-MOMRI, BIRCH and
//! stream FIM each drive [`VexusBuilder`] end-to-end — discovery →
//! size-filter → index → open [`ExplorationSession`] → a click — on tiny
//! synthetic data.

use vexus::core::engine::VexusBuilder;
use vexus::core::EngineConfig;
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::Vocabulary;
use vexus::mining::{
    BirchDiscovery, DiscoverySelection, EnsembleDiscovery, GroupDiscovery, LcmConfig, LcmDiscovery,
    MergeStrategy, MomriConfig, MomriDiscovery, ShardedDiscovery, StreamFimConfig,
    StreamFimDiscovery,
};

fn tiny() -> vexus::data::UserData {
    bookcrossing(&BookCrossingConfig::tiny()).data
}

/// Shared end-to-end drive: build through the builder, open a session,
/// click once, and sanity-check the telemetry the stages report.
fn drive(backend: impl GroupDiscovery + 'static, expect_name: &str) {
    let vexus = VexusBuilder::new(tiny())
        .config(EngineConfig::default())
        .discovery(backend)
        .build()
        .unwrap_or_else(|e| panic!("{expect_name} failed to build: {e}"));
    let stats = vexus.build_stats();
    assert_eq!(stats.discovery.algorithm, expect_name);
    assert!(!vexus.groups().is_empty());
    assert_eq!(
        stats.discovery.groups_discovered,
        vexus.groups().len() + stats.filtered_out,
        "size-filter accounting must balance for {expect_name}"
    );
    // The size filter enforced the engine's floor on every backend.
    assert!(vexus.groups().iter().all(|(_, g)| g.size() >= 5));
    // A session opens and a click works. A next display is only owed when
    // the clicked group overlaps anything (BIRCH partitions are disjoint,
    // so their clusters legitimately have zero Jaccard neighbors).
    let mut session = vexus.session().expect("session opens");
    assert!(
        !session.display().is_empty(),
        "{expect_name}: empty first display"
    );
    let g = session.display()[0];
    let has_neighbors = vexus.index().full_neighbor_count(g) > 0;
    session
        .click(g)
        .unwrap_or_else(|e| panic!("{expect_name} click failed: {e}"));
    if has_neighbors {
        assert!(
            !session.display().is_empty(),
            "{expect_name}: empty display after click"
        );
    }
}

#[test]
fn lcm_end_to_end() {
    drive(
        LcmDiscovery::new(LcmConfig {
            min_support: 5,
            ..Default::default()
        }),
        "lcm",
    );
}

#[test]
fn momri_end_to_end() {
    drive(MomriDiscovery::new(MomriConfig::default()), "momri");
}

#[test]
fn birch_end_to_end() {
    drive(BirchDiscovery::default(), "birch");
}

#[test]
fn stream_fim_end_to_end() {
    drive(
        StreamFimDiscovery::new(StreamFimConfig {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        }),
        "stream-fim",
    );
}

/// Acceptance: `ShardedDiscovery` over LCM with `shards = 4` produces a
/// group space equal — under support-recount merge — to unsharded LCM.
#[test]
fn sharded_lcm_recount_equals_unsharded_lcm() {
    let data = tiny();
    let vocab = Vocabulary::build(&data);
    let backend = LcmDiscovery::new(LcmConfig {
        min_support: 10,
        max_description: 8,
        ..Default::default()
    });
    let normalize = |groups: &vexus::mining::GroupSet| {
        let mut v: Vec<_> = groups
            .iter()
            .map(|(_, g)| {
                (
                    g.description.clone(),
                    g.members.iter().collect::<Vec<u32>>(),
                )
            })
            .collect();
        v.sort();
        v
    };
    let single = backend.discover(&data, &vocab);
    let sharded = ShardedDiscovery::new(backend, 4)
        .support_recount(10)
        .discover(&data, &vocab);
    assert!(!single.groups.is_empty());
    assert_eq!(
        normalize(&single.groups),
        normalize(&sharded.groups),
        "4-shard support-recount must reproduce the unsharded group space"
    );
}

/// Acceptance: `EnsembleDiscovery(LCM, BIRCH)` drives an exploration
/// session end-to-end — described and clustered groups in one space.
#[test]
fn ensemble_lcm_birch_drives_exploration_end_to_end() {
    let ensemble = EnsembleDiscovery::new(MergeStrategy::Union)
        .with(LcmDiscovery::new(LcmConfig {
            min_support: 5,
            ..Default::default()
        }))
        .with(BirchDiscovery::default());
    let vexus = VexusBuilder::new(tiny())
        .config(EngineConfig::default())
        .discovery(ensemble)
        .build()
        .expect("ensemble engine builds");
    let stats = vexus.build_stats();
    assert_eq!(stats.discovery.algorithm, "ensemble");
    assert_eq!(stats.discovery.shards.len(), 2, "one entry per member");
    assert_eq!(stats.discovery.shards[0].algorithm, "lcm");
    assert_eq!(stats.discovery.shards[1].algorithm, "birch");
    // Both kinds of groups survive the size filter into the engine.
    let described = vexus
        .groups()
        .iter()
        .filter(|(_, g)| !g.description.is_empty())
        .count();
    assert!(described > 0, "LCM's described groups missing");
    assert!(
        described < vexus.groups().len(),
        "BIRCH's cluster groups missing"
    );
    // And the session explores over the merged space.
    let mut session = vexus.session().expect("session opens");
    assert!(!session.display().is_empty());
    let g = session.display()[0];
    session.click(g).expect("click works");
}

/// The sharded driver also runs from pure configuration, end to end.
#[test]
fn sharded_selection_drives_a_session() {
    let vexus = VexusBuilder::new(tiny())
        .config(EngineConfig::default().with_discovery(DiscoverySelection::default().sharded(4)))
        .build()
        .expect("sharded engine builds");
    let stats = vexus.build_stats();
    assert_eq!(stats.discovery.algorithm, "sharded");
    assert_eq!(stats.discovery.shards.len(), 4);
    let covered: usize = stats.discovery.shards.iter().map(|s| s.members).sum();
    assert_eq!(covered, vexus.data().n_users());
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    session.click(g).expect("click works");
}

#[test]
fn config_selection_reaches_every_backend() {
    // The same plug-in path, driven from EngineConfig instead of an
    // explicit backend value.
    for (sel, name) in [
        (DiscoverySelection::default(), "lcm"),
        (
            DiscoverySelection::Momri {
                config: MomriConfig::default(),
                materialize: vexus::mining::MomriMaterialize::Candidates,
            },
            "momri",
        ),
        (
            DiscoverySelection::Birch {
                branching: 10,
                threshold: 1.6,
            },
            "birch",
        ),
        (
            DiscoverySelection::StreamFim {
                support: 0.05,
                epsilon: 0.01,
                max_len: 3,
            },
            "stream-fim",
        ),
    ] {
        let vexus = VexusBuilder::new(tiny())
            .config(EngineConfig::default().with_discovery(sel))
            .build()
            .unwrap_or_else(|e| panic!("{name} via config failed: {e}"));
        assert_eq!(vexus.build_stats().discovery.algorithm, name);
        assert!(!vexus.session().expect("session opens").display().is_empty());
    }
}
