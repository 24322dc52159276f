//! C10 micro-bench: fitting and projecting the Focus view — LDA vs the PCA
//! baseline on one group's member features.

use criterion::{criterion_group, criterion_main, Criterion};
use vexus_bench::workloads;
use vexus_core::EngineConfig;
use vexus_data::UserId;
use vexus_mining::features::Featurizer;
use vexus_mining::GroupId;
use vexus_viz::lda::Lda;
use vexus_viz::pca::Pca;

fn bench_projection(c: &mut Criterion) {
    let vexus = workloads::small_bookcrossing_engine(EngineConfig::paper());
    let mut biggest: Vec<GroupId> = vexus.groups().ids().collect();
    biggest.sort_by_key(|&g| std::cmp::Reverse(vexus.groups().get(g).size()));
    let members: Vec<UserId> = vexus
        .groups()
        .get(biggest[0])
        .members
        .iter()
        .take(300)
        .map(UserId::new)
        .collect();
    let featurizer = Featurizer::new(vexus.data());
    let points = featurizer.features_of(vexus.data(), &members);
    let attr = vexus.data().schema().attr("favorite_genre").expect("attr");
    let labels: Vec<u32> = members
        .iter()
        .map(|&u| {
            let v = vexus.data().value(u, attr);
            if v.is_missing() {
                999
            } else {
                v.raw()
            }
        })
        .collect();

    let mut group = c.benchmark_group("focus_projection");
    group.sample_size(20);
    group.bench_function("lda_fit_project", |b| {
        b.iter(|| {
            let lda = Lda::fit(&points, &labels, 2);
            lda.project_all(&points)
        });
    });
    group.bench_function("pca_fit_project", |b| {
        b.iter(|| {
            let pca = Pca::fit(&points, 2);
            pca.project_all(&points)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_projection);
criterion_main!(benches);
