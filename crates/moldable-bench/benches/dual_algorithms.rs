//! Criterion micro-benchmarks behind Table 1: one dual call per algorithm
//! at a feasible target, across (n, m) grid points, and the Section 3
//! estimator every dual solver runs before its first probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Work};
use moldable_core::view::JobView;
use moldable_sched::dual::DualAlgorithm;
use moldable_sched::estimator::{estimate, estimate_view};
use moldable_sched::{CompressibleDual, ImprovedDual, MrtDual};
use moldable_workloads::{bench_instance, BenchFamily};
use std::time::Duration;

fn bench_duals(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_algorithms");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let eps = Ratio::new(1, 4);
    for (n, m_exp) in [(128usize, 16u32), (512, 20), (2048, 20)] {
        let m = 1u64 << m_exp;
        let inst = bench_instance(BenchFamily::PowerLaw, n, m, 1);
        let view = JobView::build(&inst);
        let d = 2 * estimate(&inst).omega;
        let algos: Vec<Box<dyn DualAlgorithm>> = vec![
            Box::new(CompressibleDual::new(eps)),
            Box::new(ImprovedDual::new(eps)),
            Box::new(ImprovedDual::new_linear(eps)),
        ];
        for algo in algos {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), format!("n{n}_m2^{m_exp}")),
                &d,
                |b, &d| b.iter(|| algo.run(&view, d).unwrap()),
            );
        }
        // MRT only where its O(n·m) table is sane.
        if m_exp <= 16 {
            group.bench_with_input(
                BenchmarkId::new("mrt-exact", format!("n{n}_m2^{m_exp}")),
                &d,
                |b, &d| b.iter(|| MrtDual.run(&view, d).unwrap()),
            );
        }
    }
    // One Algorithm-3 probe on the m < 16n knapsack path (the regime of
    // the stream engine's re-plans): item-type rounding, bounded
    // knapsack, assembly. At n = 32 most jobs are big and narrow, so the
    // row times the per-probe rounding; at n = 2048 every job is small at
    // this target, so it times the per-job passes (classification and
    // small-job insertion).
    let linear = ImprovedDual::new_linear(eps).without_large_m_dispatch();
    for n in [32usize, 2048] {
        let inst = bench_instance(BenchFamily::Mixed, n, 256, 1);
        let view = JobView::build(&inst);
        let d = 2 * estimate(&inst).omega;
        group.bench_with_input(
            BenchmarkId::new("linear-knapsack-probe", format!("n{n}_m256")),
            &d,
            |b, &d| b.iter(|| linear.run(&view, d).unwrap()),
        );
    }
    // The estimator at the paper's scale (n = 2¹⁴, m = 2²⁰), next to one
    // γ-plus-work pass over the jobs at τ = ω: the estimator's cost in
    // passes is the ratio of the two rows, held down by a CI bar.
    for (family, tag) in [
        (BenchFamily::PowerLaw, "powerlaw"),
        (BenchFamily::Mixed, "mixed"),
    ] {
        let n = 16384usize;
        let view = JobView::build(&bench_instance(family, n, 1 << 20, 1));
        let omega = estimate_view(&view).omega;
        let id = format!("{tag}_n{n}");
        group.bench_function(BenchmarkId::new("estimator", &id), |b| {
            b.iter(|| estimate_view(&view).omega)
        });
        group.bench_function(BenchmarkId::new("gamma-pass", &id), |b| {
            b.iter(|| {
                let mut work: Work = 0;
                for j in 0..n as JobId {
                    work += view.work(j, view.gamma_int(j, omega).unwrap());
                }
                work
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_duals);
criterion_main!(benches);
