//! Snapshot micro-benches: encode and load against the full rebuild.
//! `snapshot_load` is the number the format exists for — validation plus
//! slice reinterpretation of the whole engine, no discovery, no pair
//! scoring — and `snapshot_encode` is the build-host cost of producing
//! the buffer. `engine_rebuild` gives the baseline the load replaces.

use criterion::{criterion_group, criterion_main, Criterion};
use vexus_bench::workloads;
use vexus_core::{EngineConfig, Vexus};

fn bench_snapshot_codec(c: &mut Criterion) {
    let vexus = workloads::small_bookcrossing_engine(EngineConfig::paper());
    let buf = vexus.write_snapshot();

    c.bench_function("snapshot_encode", |b| {
        b.iter(|| std::hint::black_box(vexus.write_snapshot()));
    });

    c.bench_function("snapshot_load", |b| {
        b.iter(|| {
            let loaded = Vexus::from_snapshot(vexus.data().clone(), &buf, vexus.config().clone())
                .expect("valid snapshot");
            std::hint::black_box(loaded)
        });
    });

    let mut group = c.benchmark_group("rebuild_baseline");
    group.sample_size(10);
    group.bench_function("engine_rebuild", |b| {
        b.iter(|| {
            std::hint::black_box(workloads::small_bookcrossing_engine(EngineConfig::paper()))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot_codec);
criterion_main!(benches);
