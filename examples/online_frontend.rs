//! An online cluster front-end: jobs arrive over the day; the paper's
//! offline planner runs in epochs (plan the queue, run it, repeat).
//!
//! Demonstrates `moldable_sim::stream` with unbounded batches — the
//! classic online-from-offline reduction: a `c`-approximate offline
//! planner yields a `2c`-competitive epoch scheme. We compare the epoch
//! makespan against the clairvoyant lower bound and report the per-epoch
//! batching decisions.
//!
//! Run with: `cargo run --release --example online_frontend`

use moldable::prelude::*;
use moldable::sched::solver::solver_by_name;
use moldable::sim::{
    clairvoyant_lower_bound, push_epoch_row, run_stream, StreamJob, StreamOptions,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let m: Procs = 32;
    let mut rng = SmallRng::seed_from_u64(0x0821);

    // A bursty arrival stream: three waves (morning, noon, evening) of
    // moldable jobs with mixed parallelizability.
    let mut stream: Vec<StreamJob> = Vec::new();
    for wave_start in [0u64, 40_000, 90_000] {
        for _ in 0..12 {
            let arrival = wave_start + rng.gen_range(0..8_000u64);
            let t1 = rng.gen_range(4_000..40_000u64);
            let curve = if rng.gen_bool(0.3) {
                SpeedupCurve::Constant(t1 / 4)
            } else {
                SpeedupCurve::ideal_with_overhead(t1, 2, m)
            };
            stream.push(StreamJob::untagged(curve, arrival));
        }
    }
    stream.sort_by_key(|a| a.arrival);

    let eps = Ratio::new(1, 8);
    let planner = solver_by_name("linear", &eps).expect("registry has linear");
    let lb = clairvoyant_lower_bound(&stream, m);
    let jobs = stream.len();
    let mut epochs = Vec::new();
    let out = run_stream(
        stream,
        m,
        planner.as_ref(),
        &StreamOptions::default(),
        |_, o| push_epoch_row(&mut epochs, o),
    )
    .expect("stream is sorted");

    println!("online front-end: {jobs} jobs in 3 waves on m = {m} processors\n");
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>10}",
        "epoch", "jobs", "start", "end", "length"
    );
    for e in &epochs {
        println!(
            "{:>6} {:>7} {:>12.0} {:>12.0} {:>10.0}",
            e.index,
            e.jobs,
            e.start.to_f64(),
            e.end.to_f64(),
            e.end.sub(&e.start).to_f64()
        );
    }
    println!(
        "\nepoch-scheme makespan : {:.0}\nclairvoyant lower bnd : {:.0}\ncompetitive ratio ≤   : {:.3}",
        out.makespan.to_f64(),
        lb.to_f64(),
        out.makespan.to_f64() / lb.to_f64()
    );
    println!(
        "(theory: ≤ 2·c(1+ε) ≈ {:.2} for the (3/2+ε) planner; bursty\n\
         streams with idle gaps typically sit far below)",
        2.0 * ImprovedDual::new_linear(eps)
            .guarantee()
            .mul(&eps.one_plus())
            .to_f64()
    );
}
