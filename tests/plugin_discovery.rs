//! The discovery plug-in paths the paper names: α-MOMRI for datasets,
//! BIRCH and stream FIM for streams — each a [`GroupDiscovery`] backend
//! feeding the same exploration engine through [`VexusBuilder`].

use vexus::core::engine::VexusBuilder;
use vexus::core::EngineConfig;
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};
use vexus::data::Vocabulary;
use vexus::mining::momri::{discover, MomriConfig};
use vexus::mining::stream_fim::{StreamFimConfig, StreamMiner};
use vexus::mining::transactions::TransactionDb;
use vexus::mining::{BirchDiscovery, GroupDiscovery, MomriDiscovery, StreamFimDiscovery};

fn dataset() -> vexus::data::synthetic::SyntheticDataset {
    bookcrossing(&BookCrossingConfig::tiny())
}

#[test]
fn momri_front_plugs_into_the_engine() {
    let ds = dataset();
    // Low-level: the optimizer still exposes its α-Pareto front.
    let vocab = Vocabulary::build(&ds.data);
    let db = TransactionDb::build(&ds.data, &vocab);
    let result = discover(&db, &MomriConfig::default());
    assert!(!result.front.is_empty(), "alpha-MOMRI found no solutions");
    let best = &result.front[0];
    assert!(
        best.coverage > 0.3,
        "best solution coverage {}",
        best.coverage
    );
    // High-level: the same algorithm as a builder backend.
    let vexus = VexusBuilder::new(ds.data)
        .config(EngineConfig::default())
        .discovery(MomriDiscovery::default())
        .build()
        .expect("engine builds");
    assert_eq!(vexus.build_stats().algorithm, "momri");
    let session = vexus.session().expect("session opens");
    assert!(!session.display().is_empty());
}

#[test]
fn birch_clusters_plug_into_the_engine() {
    let ds = dataset();
    let n_users = ds.data.n_users();
    // One-hot demographics live on a hypercube: users differing in d
    // attributes sit at distance sqrt(2d), so the absorption threshold has
    // to admit a couple of differing attributes per cluster. The backend
    // owns featurization end to end.
    let vexus = VexusBuilder::new(ds.data)
        .config(EngineConfig::default())
        .discovery(BirchDiscovery {
            branching: 10,
            threshold: 1.6,
            min_cluster_size: 5,
        })
        .build()
        .expect("engine builds");
    assert_eq!(vexus.build_stats().algorithm, "birch");
    let n_users_covered = vexus.groups().distinct_users_covered(n_users);
    assert!(
        n_users_covered > n_users / 4,
        "clusters cover too little: {n_users_covered}"
    );
    let mut session = vexus.session().expect("session opens");
    // Cluster groups have no token description but remain navigable.
    let g = session.display()[0];
    assert!(session.describe(g).contains("<cluster>"));
    session.click(g).expect("click");
}

#[test]
fn stream_fim_groups_plug_into_the_engine() {
    let ds = dataset();
    let vexus = VexusBuilder::new(ds.data)
        .config(EngineConfig::default())
        .discovery(StreamFimDiscovery::new(StreamFimConfig {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        }))
        .build()
        .expect("engine builds");
    assert_eq!(vexus.build_stats().algorithm, "stream-fim");
    // The builder's size filter replaced the hand-rolled filter_by_size.
    assert!(vexus.groups().iter().all(|(_, g)| g.size() >= 5));
    let mut session = vexus.session().expect("session opens");
    let g = session.display()[0];
    let next = session.click(g).expect("click").to_vec();
    assert!(!next.is_empty());
}

#[test]
fn all_plugin_paths_agree_on_heavy_structure() {
    // The dominant demographic pattern should surface through both LCM and
    // the stream miner (it is frequent however you count).
    let ds = dataset();
    let vocab = Vocabulary::build(&ds.data);
    let db = TransactionDb::build(&ds.data, &vocab);
    let lcm_groups = vexus::mining::mine_closed_groups(
        &db,
        &vexus::mining::LcmConfig {
            min_support: 30,
            ..Default::default()
        },
    );
    let mut miner = StreamMiner::new(StreamFimConfig {
        support: 0.1,
        epsilon: 0.02,
        max_len: 1,
    });
    for u in ds.data.users() {
        miner.observe(u.raw(), &vocab.user_tokens(&ds.data, u));
    }
    let stream_singletons: std::collections::HashSet<vexus::data::TokenId> = miner
        .groups()
        .iter()
        .filter(|(_, g)| g.description.len() == 1)
        .map(|(_, g)| g.description[0])
        .collect();
    // Every very frequent singleton description found by LCM must also be
    // caught by the stream miner (no false negatives).
    let n = ds.data.n_users();
    for (_, g) in lcm_groups.iter() {
        if g.description.len() == 1 && g.size() >= n / 10 {
            assert!(
                stream_singletons.contains(&g.description[0]),
                "stream miner missed a heavy token"
            );
        }
    }
}

#[test]
fn backend_trait_objects_are_interchangeable() {
    // The same builder call site drives any backend picked at runtime.
    let backends: Vec<Box<dyn GroupDiscovery>> = vec![
        Box::new(MomriDiscovery::default()),
        Box::new(BirchDiscovery::default()),
    ];
    for backend in backends {
        let name = backend.name();
        let ds = dataset();
        let vexus = VexusBuilder::new(ds.data)
            .discovery_boxed(backend)
            .build()
            .expect("engine builds");
        assert_eq!(vexus.build_stats().algorithm, name);
        assert!(!vexus.session().expect("session opens").display().is_empty());
    }
}
