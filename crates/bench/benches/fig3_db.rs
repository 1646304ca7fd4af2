//! Criterion micro-benchmark tracking **Figure 3**: computation slicing
//! vs. partial-order methods on database-partitioning runs. The paper's
//! full sweep lives in the `table_figures` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use slicing_bench::{measure_pom, measure_slicing, Workload};
use slicing_detect::Limits;

fn bench_fig3(c: &mut Criterion) {
    let w = Workload::DatabasePartitioning;
    let limits = Limits::none();
    let mut group = c.benchmark_group("fig3_database");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &(procs, faults) in &[(4usize, 0u32), (6, 0), (4, 1), (6, 1)] {
        let mut comp = w.simulate(procs, 12, 42);
        for f in 0..faults {
            comp = w.inject_fault(&comp, 7 + u64::from(f));
        }
        let label = format!("n{procs}_f{faults}");
        group.bench_with_input(BenchmarkId::new("slicing", &label), &comp, |b, comp| {
            b.iter(|| measure_slicing(w, comp, &limits))
        });
        group.bench_with_input(BenchmarkId::new("pom", &label), &comp, |b, comp| {
            b.iter(|| measure_pom(w, comp, &limits))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
