//! Criterion ablations: heap vs bucket transformation (§4.3 vs §4.3.3),
//! estimator cost, and end-to-end `approximate()` across algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::dual::{approximate, DualAlgorithm};
use moldable_sched::estimator::estimate;
use moldable_sched::{CompressibleDual, ImprovedDual};
use moldable_workloads::{bench_instance, BenchFamily};
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let eps = Ratio::new(1, 4);

    // Heap vs buckets on a narrow-machine instance (many 1-proc jobs).
    for n in [1024usize, 4096] {
        let inst = bench_instance(BenchFamily::Mixed, n, 64, 22);
        let view = JobView::build(&inst);
        let d = 2 * estimate(&inst).omega;
        let heap = ImprovedDual::new(eps);
        let buckets = ImprovedDual::new_linear(eps);
        group.bench_with_input(BenchmarkId::new("transform-heap", n), &d, |b, &d| {
            b.iter(|| heap.run(&view, d).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("transform-buckets", n), &d, |b, &d| {
            b.iter(|| buckets.run(&view, d).unwrap())
        });
    }

    // Estimator alone (the primitive every wrapper pays: a search that
    // brackets each job's γ, one to two γ-plus-work passes over the jobs).
    let inst = bench_instance(BenchFamily::PowerLaw, 4096, 1 << 30, 9);
    group.bench_function("estimator", |b| b.iter(|| estimate(&inst)));

    // End-to-end approximate() for the two knapsack strategies.
    let inst = bench_instance(BenchFamily::PowerLaw, 512, 1 << 20, 10);
    let a1 = CompressibleDual::new(eps);
    let a3 = ImprovedDual::new_linear(eps);
    group.bench_function("end-to-end-alg1", |b| {
        b.iter(|| approximate(&inst, &a1, &eps))
    });
    group.bench_function("end-to-end-alg3-linear", |b| {
        b.iter(|| approximate(&inst, &a3, &eps))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
