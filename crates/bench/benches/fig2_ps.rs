//! Criterion micro-benchmark tracking **Figure 2**: computation slicing
//! vs. partial-order methods on primary–secondary runs, fault-free and
//! with one injected fault. The paper's full sweep lives in the
//! `table_figures` binary; this bench pins a few points so regressions
//! show in `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use slicing_bench::{measure_pom, measure_slicing, Workload};
use slicing_detect::Limits;

fn bench_fig2(c: &mut Criterion) {
    let w = Workload::PrimarySecondary;
    let limits = Limits::none();
    let mut group = c.benchmark_group("fig2_primary_secondary");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for &(procs, faults) in &[(4usize, 0u32), (5, 0), (4, 1), (5, 1)] {
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

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
