//! C2 micro-bench: the O(1) interaction core — index neighbor lookup
//! (direct and through the shared serving cache) and history backtrack —
//! plus the full (greedy-capped) click for reference. The click benches
//! also pin the serving allocation cuts: a step reuses the session's
//! greedy scratch buffers and clones neither the clicked group's member
//! list nor the selection.

use criterion::{criterion_group, criterion_main, Criterion};
use vexus_bench::workloads;
use vexus_core::EngineConfig;

fn bench_interactions(c: &mut Criterion) {
    let vexus = workloads::small_bookcrossing_engine(EngineConfig::paper());
    let session = vexus.session().expect("session opens");
    let g = session.display()[0];

    c.bench_function("index_neighbor_lookup_k16", |b| {
        b.iter(|| std::hint::black_box(vexus.index().neighbors(vexus.groups(), g, 16)));
    });

    // The serving fast path: after the first query the list is an Arc
    // clone out of the shared cache instead of a fresh scan.
    if let Some(cache) = vexus.neighbor_cache() {
        c.bench_function("cached_neighbor_lookup_k16", |b| {
            b.iter(|| std::hint::black_box(cache.neighbors(vexus.index(), vexus.groups(), g, 16)));
        });
    }

    c.bench_function("backtrack", |b| {
        let mut session = vexus.session().expect("session opens");
        let g0 = session.display()[0];
        session.click(g0).expect("click");
        b.iter(|| {
            session.backtrack(0).expect("backtrack");
        });
    });

    let mut group = c.benchmark_group("full_click");
    group.sample_size(10);
    group.bench_function("click_100ms_budget", |b| {
        b.iter_batched(
            || vexus.session().expect("session opens"),
            |mut s| {
                let g = s.display()[0];
                s.click(g).expect("click");
                s
            },
            criterion::BatchSize::PerIteration,
        );
    });
    // Steady-state clicking on one long-lived session: the shape serving
    // cares about — scratch buffers and candidate vectors are warm, every
    // per-step allocation the serving work removed would show up here.
    group.bench_function("click_steady_state", |b| {
        let mut s = vexus.session().expect("session opens");
        b.iter(|| {
            if s.display().is_empty() {
                s.backtrack(0).expect("backtrack");
            }
            let g = s.display()[0];
            s.click(g).expect("click");
        });
    });
    group.finish();
}

criterion_group!(benches, bench_interactions);
criterion_main!(benches);
