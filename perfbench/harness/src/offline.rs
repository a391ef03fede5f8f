//! `offline-compact`: the paper's regime. Power-law and mixed
//! `bench_instance`s at n = 2¹² and 2¹⁴ on m = 2²⁰ machines, each taken
//! through `JobView::build` → `linear` solve (ε = 1/4) →
//! `place_contiguous` → `validate`, in process on one thread. Time is
//! counted to a *certified* schedule: placed and validated.

use crate::solve::{registry, solve};
use crate::stats::{median, percentile, resolves};
use crate::trace::{coverage, layers, self_nanos, Tracer};
use crate::{peak_rss_mb, Args, Outcome};
use moldable_core::instance::Instance;
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::solver::{MakespanSolver, SolveOutcome};
use moldable_sched::{place_contiguous, validate, Schedule};
use moldable_workloads::{bench_instance, BenchFamily};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const M: u64 = 1 << 20;
const SIZES: [usize; 2] = [1 << 12, 1 << 14];
const FAMILIES: [BenchFamily; 2] = [BenchFamily::PowerLaw, BenchFamily::Mixed];
/// Distinct instances per (family, n) class.
const PER_CLASS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// The instance pool: `PER_CLASS` instances of every (n, family) class.
fn generate(seed: u64) -> Vec<Instance> {
    let mut pool = Vec::new();
    for k in 0..PER_CLASS as u64 {
        for &n in &SIZES {
            for &family in &FAMILIES {
                let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
                pool.push(bench_instance(family, n, M, s));
            }
        }
    }
    pool
}

/// One certified solve. `tracer` spans each stage; a disabled tracer
/// gives the untraced path.
fn certify(
    inst: &Instance,
    solver: &dyn MakespanSolver,
    tracer: &Tracer,
) -> (SolveOutcome, Result<(), String>) {
    let view = tracer.span("core.view", || JobView::build(inst));
    let mut out = solve(solver, &view, tracer);
    let placed = tracer.span("sched.place", || place_contiguous(&view, &out.schedule));
    let checked = match placed {
        Ok(placement) => {
            out.schedule.placement = Some(placement);
            tracer
                .span("sched.validate", || validate(&out.schedule, inst))
                .map_err(|e| format!("validate: {e}"))
        }
        Err(e) => Err(format!("place_contiguous: {e}")),
    };
    (out, checked)
}

/// `makespan ≤ ratio_bound × lower_bound`: the solver's certificate.
fn certificate_holds(out: &SolveOutcome) -> bool {
    match (&out.ratio_bound, out.lower_bound) {
        (Some(bound), Some(lb)) => out.makespan <= bound.mul_int(lb as u128),
        _ => false,
    }
}

/// Mean over jobs of `C_j / t_j(m)` (every job released at 0): the
/// stream's stretch definition applied to one offline schedule.
fn mean_stretch(inst: &Instance, s: &Schedule) -> f64 {
    let total: f64 = s
        .assignments
        .iter()
        .map(|a| {
            let job = inst.job(a.job);
            let done = a.start.add(&Ratio::from(job.time(a.procs)));
            done.to_f64() / job.time(inst.m()) as f64
        })
        .sum();
    total / s.assignments.len() as f64
}

fn makespan_over_lb(out: &SolveOutcome) -> f64 {
    out.makespan.to_f64() / out.lower_bound.unwrap_or(1).max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        pool = generate(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let solver = registry();
    if args.trace {
        traced(args, &pool, solver.as_ref(), median(&setups), &mut o);
        return o;
    }

    // Whole passes over the pool until the time is used up; each case's
    // time is the median of its passes, so a burst of outside load
    // moves one pass, not the result.
    let off = Tracer::new(false);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    let (mut ratio, mut stretch) = (0.0, 0.0);
    let (mut busy, mut passes) = (0.0, 0);
    while busy < args.seconds {
        for (k, case) in pool.iter().enumerate() {
            let t0 = Instant::now();
            let (out, checked) = certify(black_box(case), solver.as_ref(), &off);
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            times[k].push(dt);
            o.check(checked.is_ok() && certificate_holds(&out), || {
                format!(
                    "case {k}: {checked:?}, certificate {}",
                    certificate_holds(&out)
                )
            });
            if passes == 0 {
                ratio += makespan_over_lb(&out) / pool.len() as f64;
                stretch += mean_stretch(case, &out.schedule) / pool.len() as f64;
            }
        }
        passes += 1;
    }
    let mut per_case: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let pass_s: f64 = per_case.iter().sum();
    let jobs: usize = pool.iter().map(|c| c.n()).sum();
    per_case.sort_by(f64::total_cmp);
    o.metric("setup_s", median(&setups));
    o.metric("jobs_per_s", jobs as f64 / pass_s);
    o.metric("req_per_s", pool.len() as f64 / pass_s);
    o.metric("latency_p50_ms", percentile(&per_case, 50.0) * 1e3);
    o.metric("latency_p95_ms", percentile(&per_case, 95.0) * 1e3);
    o.metric("makespan_over_lb", ratio);
    o.metric("mean_stretch", stretch);
    o.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    o.detail(
        "samples",
        json!({
            "instances": pool.len(),
            "passes": passes,
            "p50_resolved": resolves(50.0, per_case.len()),
            "p95_resolved": resolves(95.0, per_case.len()),
            "latency_p99_ms": percentile(&per_case, 99.0) * 1e3,
            "p99_resolved": resolves(99.0, per_case.len()),
        }),
    );
    o.detail("setup_s_each", json!(setups));
    o
}

/// Traced run: each pass over the pool runs every instance untraced and
/// then traced, so the wall-time difference is the tracing overhead.
fn traced(
    args: &Args,
    pool: &[Instance],
    solver: &dyn MakespanSolver,
    gen_s: f64,
    o: &mut Outcome,
) {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let started = Instant::now();
    let mut i = 0;
    while i < pool.len() || started.elapsed().as_secs_f64() < args.seconds {
        let case = &pool[i % pool.len()];
        let t0 = Instant::now();
        let (out, checked) = certify(case, solver, &off);
        untraced_s += t0.elapsed().as_secs_f64();
        o.check(checked.is_ok() && certificate_holds(&out), || {
            format!("untraced case {i}")
        });

        on.set_request(i as u64);
        let t0 = Instant::now();
        let (out, checked) = on.span("offline.instance", || certify(case, solver, &on));
        traced_s += t0.elapsed().as_secs_f64();
        o.check(checked.is_ok() && certificate_holds(&out), || {
            format!("traced case {i}")
        });
        i += 1;
    }
    let spans = on.spans();
    if let Err(e) = on.write_jsonl(&args.out_dir.join("trace-offline-compact.jsonl")) {
        eprintln!("perfbench: could not write the span file: {e}");
    }

    // Per-stage means by instance size, stages reported at n = 2¹⁴ (the
    // paper's regime). Means, not medians: stage costs differ by family
    // (the view build is ~100x dearer on mixed instances), and the
    // throughput the stages add up to is a mean too.
    let selfs = self_nanos(&spans);
    let mean_ms = |name: &str, size: usize, self_time: bool| {
        let v: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| {
                s.name == name && pool[s.request as usize % pool.len()].n() == size
            })
            .map(|(s, &own)| if self_time { own } else { s.nanos() } as f64 * 1e-6)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let stage_ms = |name: &str| mean_ms(name, SIZES[1], false);
    let by_layer = layers(&spans);
    let probes = by_layer
        .get("sched.dual.probe")
        .cloned()
        .unwrap_or_default();
    let solves = by_layer.get("sched.solve").map_or(1, |l| l.count.max(1));
    let exponent = (mean_ms("sched.solve", SIZES[1], false)
        / mean_ms("sched.solve", SIZES[0], false))
    .log2()
        / ((SIZES[1] as f64) / (SIZES[0] as f64)).log2();

    o.metric("workloads.generate_s", gen_s);
    o.metric("core.view.build_ms", stage_ms("core.view"));
    o.metric("sched.estimator.ms", mean_ms("sched.solve", SIZES[1], true));
    o.metric("sched.dual.probes", probes.count as f64 / solves as f64);
    o.metric(
        "sched.dual.probe_ms",
        probes.total_s * 1e3 / probes.count.max(1) as f64,
    );
    o.metric(
        "sched.dual.accept_share",
        probes.ok as f64 / probes.count.max(1) as f64,
    );
    o.metric("sched.solve.n_exponent", exponent);
    o.metric("sched.place.ms", stage_ms("sched.place"));
    o.metric("sched.validate.ms", stage_ms("sched.validate"));
    o.metric("trace.coverage", coverage(&spans, "offline.instance"));
    o.metric("trace.overhead_s", traced_s - untraced_s);
    o.detail(
        "traced",
        json!({
            "instances": i,
            "spans": spans.len(),
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "stage_ms_n16384": json!({
                "core.view": stage_ms("core.view"),
                "sched.solve": stage_ms("sched.solve"),
                "sched.place": stage_ms("sched.place"),
                "sched.validate": stage_ms("sched.validate"),
            }),
        }),
    );
}
