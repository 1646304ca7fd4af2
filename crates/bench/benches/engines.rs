//! Cross-engine comparison on one fixed workload: how the detection
//! engines (BFS, reverse search, partial-order methods, slice-then-search,
//! and the hybrid chain preset) trade time against each other when the
//! predicate holds nowhere (worst case: the space must be exhausted).

use criterion::{criterion_group, criterion_main, Criterion};

use slicing_bench::Workload;
use slicing_detect::{
    detect_bfs, detect_chain, detect_pom, detect_reverse_search, detect_with_slicing, hybrid_chain,
    Limits,
};

fn bench_engines(c: &mut Criterion) {
    let w = Workload::PrimarySecondary;
    let comp = w.simulate(4, 10, 7);
    let pred = w.violation_pred(&comp);
    let spec = w.violation_spec(&comp);
    let limits = Limits::none();

    let mut group = c.benchmark_group("engines_ps_fault_free");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("bfs", |b| {
        b.iter(|| detect_bfs(&comp, &comp, &pred, &limits))
    });
    group.bench_function("reverse_search", |b| {
        b.iter(|| detect_reverse_search(&comp, &pred, &limits))
    });
    group.bench_function("pom", |b| b.iter(|| detect_pom(&comp, &pred, &limits)));
    group.bench_function("slicing", |b| {
        b.iter(|| detect_with_slicing(&comp, &spec, &limits))
    });
    let hybrid = hybrid_chain(&comp, &limits);
    group.bench_function("hybrid", |b| b.iter(|| detect_chain(&comp, &spec, &hybrid)));
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
