//! `stream-lublin`: `run_stream` (FIFO, `linear`, ε = 1/4) over a
//! pre-generated Lublin–Feitelson stream on m = 256. Thousands of small
//! re-plans of a few jobs each expose the solver's fixed per-call cost,
//! the opposite regime to `offline-compact`.

use crate::solve::StreamSolver;
use crate::stats::{median, percentile, resolves};
use crate::trace::{coverage, layers, Tracer};
use crate::{peak_rss_mb, Args, Outcome};
use moldable_core::ratio::Ratio;
use moldable_sim::{run_stream, StreamJob, StreamOptions, StreamOutcome};
use moldable_workloads::{LublinGenerator, LublinParams};
use serde_json::json;
use std::time::Instant;

const M: u64 = 256;
/// Stream length: one pass takes a few seconds.
const JOBS: usize = 20_000;
/// Passes per run: enough for a median, and a check that they agree.
const MIN_PASSES: usize = 3;
/// The CLI's default re-plan cap.
const MAX_BATCH: usize = 8192;
const SETUPS: usize = 3;

fn generate(seed: u64) -> Vec<StreamJob> {
    LublinGenerator::new(LublinParams::new(M, JOBS, seed))
        .map(|(arrival, curve, user)| StreamJob {
            curve,
            arrival,
            user,
        })
        .collect()
}

/// A lower bound on any schedule's makespan for the stream: for every
/// arrival time r, r plus the least work released at or after r spread
/// over all m machines, and every job's arrival plus its fastest time.
fn makespan_lower_bound(jobs: &[StreamJob]) -> f64 {
    let mut lb = 0.0f64;
    let mut work_after = 0.0f64;
    for j in jobs.iter().rev() {
        work_after += j.curve.time(1) as f64;
        let r = j.arrival as f64;
        lb = lb.max(r + work_after / M as f64);
        lb = lb.max(r + j.curve.time(M) as f64);
    }
    lb
}

/// The per-pass result that must repeat exactly across passes.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    jobs: u64,
    epochs: u64,
    makespan: Ratio,
    mean_stretch: Ratio,
}

/// One pass over the stream. Counts observations whose completion
/// precedes their arrival in `early`.
fn pass(jobs: &[StreamJob], solver: &StreamSolver, early: &mut u64) -> StreamOutcome {
    let opts = StreamOptions {
        max_batch: Some(MAX_BATCH),
        ..StreamOptions::default()
    };
    run_stream(jobs.iter().cloned(), M, solver, &opts, |_, obs| {
        if obs.completion < obs.arrival {
            *early += 1;
        }
    })
    .expect("a generated Lublin stream is sorted by arrival")
}

fn check_pass(
    o: &mut Outcome,
    out: &StreamOutcome,
    early: u64,
    reference: &mut Option<Fingerprint>,
) {
    o.check(out.jobs == JOBS as u64, || {
        format!("stream consumed {} of {JOBS} jobs", out.jobs)
    });
    o.check(early == 0, || {
        format!("{early} jobs completed before they arrived")
    });
    let fp = Fingerprint {
        jobs: out.jobs,
        epochs: out.epochs,
        makespan: out.makespan,
        mean_stretch: out.fairness.mean_stretch,
    };
    match reference {
        None => *reference = Some(fp),
        Some(first) => o.check(*first == fp, || {
            format!("pass differs: {first:?} vs {fp:?}")
        }),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        jobs = generate(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    if args.trace {
        traced(args, &jobs, median(&setups), &mut o);
        return o;
    }

    // Whole passes, at least three; throughput and call-latency
    // percentiles are medians over the passes.
    let off = Tracer::new(false);
    let solver = StreamSolver::new(&off);
    let mut reference = None;
    let (mut rate, mut calls_per_s) = (vec![], vec![]);
    let (mut p50, mut p95, mut p99) = (vec![], vec![], vec![]);
    let (mut wall, mut last, mut resolved) = (0.0, None, true);
    while rate.len() < MIN_PASSES || wall < args.seconds {
        let mut early = 0;
        let t0 = Instant::now();
        let out = pass(&jobs, &solver, &mut early);
        let dt = t0.elapsed().as_secs_f64();
        wall += dt;
        check_pass(&mut o, &out, early, &mut reference);
        let mut lat: Vec<f64> = solver.take_calls().iter().map(|&(_, s)| s).collect();
        lat.sort_by(f64::total_cmp);
        rate.push(JOBS as f64 / dt);
        calls_per_s.push(lat.len() as f64 / dt);
        p50.push(percentile(&lat, 50.0));
        p95.push(percentile(&lat, 95.0));
        p99.push(percentile(&lat, 99.0));
        resolved &= resolves(99.0, lat.len());
        last = Some(out);
    }
    let out = last.expect("at least one pass ran");
    o.metric("setup_s", median(&setups));
    o.metric("jobs_per_s", median(&rate));
    o.metric("req_per_s", median(&calls_per_s));
    o.metric("latency_p50_ms", median(&p50) * 1e3);
    o.metric("latency_p95_ms", median(&p95) * 1e3);
    o.metric(
        "makespan_over_lb",
        out.makespan.to_f64() / makespan_lower_bound(&jobs),
    );
    o.metric("mean_stretch", out.fairness.mean_stretch.to_f64());
    o.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));
    o.detail(
        "samples",
        json!({
            "passes": rate.len(),
            "epochs_per_pass": out.epochs,
            "latency_p99_ms": median(&p99) * 1e3,
            "p99_resolved_per_pass": resolved,
        }),
    );
    o.detail("setup_s_each", json!(setups));
    o
}

/// Traced run: one untraced pass, then one pass inside a `sim.stream`
/// span whose solver spans every re-plan and dual probe.
fn traced(args: &Args, jobs: &[StreamJob], gen_s: f64, o: &mut Outcome) {
    let mut reference = None;
    let off = Tracer::new(false);
    let plain = StreamSolver::new(&off);
    let mut early = 0;
    let t0 = Instant::now();
    let out = pass(jobs, &plain, &mut early);
    let untraced_s = t0.elapsed().as_secs_f64();
    check_pass(o, &out, early, &mut reference);

    let on = Tracer::new(true);
    let solver = StreamSolver::new(&on);
    let mut early = 0;
    let t0 = Instant::now();
    let out = on.span("sim.stream", || pass(jobs, &solver, &mut early));
    let traced_s = t0.elapsed().as_secs_f64();
    check_pass(o, &out, early, &mut reference);

    let spans = on.spans();
    if let Err(e) = on.write_jsonl(&args.out_dir.join("trace-stream-lublin.jsonl")) {
        eprintln!("perfbench: could not write the span file: {e}");
    }
    let by_layer = layers(&spans);
    let root = by_layer["sim.stream"].total_s;
    let solve = by_layer.get("sched.solve").cloned().unwrap_or_default();
    let probes = by_layer
        .get("sched.dual.probe")
        .cloned()
        .unwrap_or_default();
    let calls = solver.take_calls();
    let mut per_call: Vec<f64> = solve.durations.clone();
    per_call.sort_by(f64::total_cmp);
    let estimator: Vec<f64> = {
        let selfs = crate::trace::self_nanos(&spans);
        spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == "sched.solve")
            .map(|(_, ns)| ns as f64 * 1e-6)
            .collect()
    };

    o.metric("workloads.generate_s", gen_s);
    o.metric("sched.estimator.ms", median(&estimator));
    o.metric(
        "sched.dual.probes",
        probes.count as f64 / solve.count.max(1) as f64,
    );
    o.metric(
        "sched.dual.probe_ms",
        probes.total_s * 1e3 / probes.count.max(1) as f64,
    );
    o.metric(
        "sched.dual.accept_share",
        probes.ok as f64 / probes.count.max(1) as f64,
    );
    o.metric("sim.stream.epochs", out.epochs as f64);
    o.metric("sim.stream.solve_calls", calls.len() as f64);
    o.metric(
        "sim.stream.batch_jobs_mean",
        calls.iter().map(|&(n, _)| n as f64).sum::<f64>() / calls.len().max(1) as f64,
    );
    o.metric("sim.stream.solve_share", solve.total_s / root);
    o.metric("sim.stream.engine_self_s", by_layer["sim.stream"].self_s);
    o.metric("sim.stream.solve_p99_us", percentile(&per_call, 99.0) * 1e6);
    o.metric("trace.coverage", coverage(&spans, "sim.stream"));
    o.metric("trace.overhead_s", traced_s - untraced_s);
    o.detail(
        "traced",
        json!({
            "spans": spans.len(),
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "seconds_budget": args.seconds,
        }),
    );
}
