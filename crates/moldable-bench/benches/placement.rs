//! The placement layer under load: `SlotSet` claim/release churn at
//! 10⁵ operations (the timeline's split/subtract/union/coalesce hot
//! path), the `place_contiguous` lowering pass over a 10⁵-job
//! linear-solver schedule — the cost of turning allotments into
//! concrete processor sets, which `/v1/solve` pays per request when a
//! client asks for `"placements": true` — and the hierarchical lowering
//! of the same scale onto a 64 nodes × 2 sockets × 32 cores topology
//! under each `PlacementPolicy` (the wire-format v3 `topology` path),
//! and certifying placed schedules of the paper's compact regime
//! (`validate` at n = 2¹⁴ and 2¹⁶ on m = 2²⁰).
//!
//! All rows are tracked by the CI perf-regression gate
//! (`ci/bench_gate.py` against `benches/baseline.json`); the gate's
//! `--max-ratio` bars additionally hold every hierarchical row within
//! 2x of the flat `place-flat` median (same schedule, same m = 4096
//! machine) from the same run, and the n = 2¹⁶ validate row within 6x
//! of the n = 2¹⁴ one: O(n log n) growth over 4x the jobs is about
//! 4.4x, a quadratic validator about 16x.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moldable_core::hierarchy::Topology;
use moldable_core::procset::ProcSet;
use moldable_core::ratio::Ratio;
use moldable_core::slotset::SlotSet;
use moldable_core::view::JobView;
use moldable_sched::place::{place_contiguous, place_with};
use moldable_sched::policy::PlacementPolicy;
use moldable_sched::solver::solver_by_name;
use moldable_sched::validate::validate;
use moldable_workloads::{bench_instance, BenchFamily};
use std::collections::VecDeque;

/// Deterministic claim/release churn: `n` operations against one
/// timeline on `m` machines, with a bounded in-flight window so the
/// slot list keeps splitting and coalescing instead of only growing.
fn slotset_churn(n: usize, m: u64) -> SlotSet {
    let mut timeline = SlotSet::new(m);
    let mut in_flight: VecDeque<(Ratio, Ratio, ProcSet)> = VecDeque::new();
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..n {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        // Sliding start keeps ~8 jobs arriving per time unit.
        let start = Ratio::from(i as u64 / 8);
        let end = start.add(&Ratio::from(1 + seed % 32));
        let width = 1 + (seed >> 8) % 16;
        let free = timeline.free_over(&start, &end);
        if free.size() >= width {
            let procs = free.take_first(width).expect("size checked");
            let claimed = timeline.claim(&start, &end, &procs);
            assert!(claimed, "free_over offered a busy set");
            in_flight.push_back((start, end, procs));
        }
        if in_flight.len() > 64 {
            let (s, e, p) = in_flight.pop_front().expect("len checked");
            timeline.release(&s, &e, &p);
        }
    }
    for (s, e, p) in in_flight {
        timeline.release(&s, &e, &p);
    }
    timeline
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(10);

    let n = 100_000usize;
    let m = 256u64;

    group.bench_function(BenchmarkId::new("slotset-churn", n), |b| {
        b.iter(|| {
            let timeline = slotset_churn(n, m);
            // Fully released ⇒ coalesced back to one free slot.
            assert_eq!(timeline.len(), 1);
            timeline
        })
    });

    // Lowering a real 10⁵-job schedule: solve once outside the timer,
    // re-run only the assignments → processor-sets pass inside it.
    let inst = bench_instance(BenchFamily::Mixed, n, m, 7);
    let view = JobView::build(&inst);
    let solver = solver_by_name("linear", &Ratio::new(1, 4)).expect("registry has linear");
    let outcome = solver.solve(&view, view.m());
    group.bench_function(BenchmarkId::new("place-contiguous", n), |b| {
        b.iter(|| {
            let placement = place_contiguous(&view, &outcome.schedule)
                .expect("schedule is demand-feasible");
            assert_eq!(placement.jobs.len(), n);
            placement
        })
    });

    // Hierarchical lowering at the same job scale, on a realistic
    // 64 × 2 × 32 machine (m = 4096): the same schedule walked through
    // `place_with` under each policy. One solve outside the timer; the
    // timed region is exactly the lowering pass the v3 wire format pays.
    let topology = Topology::uniform(&[64, 2, 32]).expect("64*2*32 = 4096 fits u64");
    let hier_inst = bench_instance(BenchFamily::Mixed, n, topology.m(), 7);
    let hier_view = JobView::build(&hier_inst);
    let hier_outcome = solver.solve(&hier_view, hier_view.m());
    // Flat lowering of the same schedule on the same m = 4096 machine —
    // the like-for-like base the gate's `--max-ratio` bars hold the
    // hierarchical rows against (the m = 256 row above keeps its own
    // absolute baseline but isn't a fair denominator at 16× the park).
    group.bench_function(BenchmarkId::new("place-flat", n), |b| {
        b.iter(|| {
            let placement = place_contiguous(&hier_view, &hier_outcome.schedule)
                .expect("schedule is demand-feasible");
            assert_eq!(placement.jobs.len(), n);
            placement
        })
    });
    let policies = [
        ("place-hier-contiguous", PlacementPolicy::Contiguous),
        ("place-hier-packed", PlacementPolicy::Packed { level: 0 }),
        ("place-hier-spread", PlacementPolicy::Spread { level: 0 }),
    ];
    for (label, policy) in policies {
        group.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter(|| {
                let placement =
                    place_with(&hier_view, &hier_outcome.schedule, &topology, &policy)
                        .expect("schedule is demand-feasible");
                assert_eq!(placement.jobs.len(), n);
                placement
            })
        });
    }

    // Certifying a placed schedule: solve and lower outside the timer,
    // time only `validate` (demand sweep, placement join, placement
    // sweep). On these compact instances every job is running at once.
    for n in [1usize << 14, 1 << 16] {
        let inst = bench_instance(BenchFamily::Mixed, n, 1 << 20, 7);
        let view = JobView::build(&inst);
        let mut schedule = solver.solve(&view, view.m()).schedule;
        let placement =
            place_contiguous(&view, &schedule).expect("schedule is demand-feasible");
        schedule.placement = Some(placement);
        group.bench_function(BenchmarkId::new("validate-compact", n), |b| {
            b.iter(|| validate(&schedule, &inst).expect("solver schedules validate"))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
