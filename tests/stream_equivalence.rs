//! The streaming event-driven engine with an unbounded `max_batch` *is*
//! the epoch scheme: same batches, same planner calls, same completion
//! times, same epoch table, same fairness. [`reference`] is the scheme
//! as a plain loop (plan the arrived queue, run it to completion,
//! repeat), and `run_stream` must reproduce it exactly on fixed corpora
//! and across arrival patterns and solver choices. The bounded and
//! fair-share runs below check conservation instead.

use moldable::prelude::*;
use moldable::sched::solver::{solver_by_name, MakespanSolver};
use moldable::sim::{
    push_epoch_row, run_stream, FairnessReport, FairshareOptions, JobObservation, StreamJob,
    StreamOptions,
};
use proptest::prelude::*;

/// The epoch discipline as a loop over a materialized, sorted stream.
mod reference {
    use moldable::core::types::JobId;
    use moldable::core::view::JobView;
    use moldable::prelude::*;
    use moldable::sched::solver::MakespanSolver;
    use moldable::sim::{execute, EpochRow, JobObservation, StreamJob};

    /// Plan everything that has arrived by the clock (jumping the clock
    /// to the next arrival when the queue is empty) as one offline
    /// instance, run it to completion, and repeat. Returns the epoch
    /// table, one observation per job in stream order, and the makespan.
    pub fn run_epochs(
        stream: &[StreamJob],
        m: Procs,
        solver: &dyn MakespanSolver,
    ) -> (Vec<EpochRow>, Vec<JobObservation>, Ratio) {
        let mut epochs: Vec<EpochRow> = Vec::new();
        let mut observed: Vec<JobObservation> = Vec::with_capacity(stream.len());
        let mut clock = Ratio::zero();
        let mut next = 0usize;
        while next < stream.len() {
            clock = clock.max(Ratio::from(stream[next].arrival));
            let first = next;
            while next < stream.len() && Ratio::from(stream[next].arrival) <= clock {
                next += 1;
            }
            let batch = &stream[first..next];
            let jobs: Vec<Job> = batch
                .iter()
                .enumerate()
                .map(|(i, sj)| Job::new(i as JobId, sj.curve.clone()))
                .collect();
            let inst = Instance::from_jobs(jobs, m);
            let view = JobView::build(&inst);
            let schedule = solver.solve(&view, m).schedule;
            let ex = execute(&inst, &schedule).expect("planned batches execute");
            let mut ends = vec![Ratio::zero(); batch.len()];
            for seg in &ex.trace.segments {
                let end = &mut ends[seg.job as usize];
                *end = (*end).max(seg.end);
            }
            let mut placed = vec![None; batch.len()];
            for p in schedule.placement.iter().flat_map(|pl| &pl.jobs) {
                placed[p.job as usize] = Some(p.procs.clone());
            }
            for ((sj, end), placed) in batch.iter().zip(&ends).zip(placed) {
                observed.push(JobObservation {
                    epoch: epochs.len() as u64,
                    user: sj.user,
                    arrival: Ratio::from(sj.arrival),
                    completion: clock.add(end),
                    ideal_time: Ratio::from(sj.curve.time(m).max(1)),
                    weight: sj.curve.time(1) as u128,
                    placed,
                });
            }
            let end = clock.add(&ex.makespan);
            epochs.push(EpochRow {
                index: epochs.len() as u64,
                jobs: batch.len(),
                start: clock,
                end,
            });
            clock = end;
        }
        (epochs, observed, clock)
    }
}

/// Solvers exercised as online planners (exact is rejected by design;
/// ptas/fptas fold into their dispatch branches).
const SOLVERS: &[&str] = &["linear", "alg3", "mrt", "two-approx", "sequential"];

fn arrival_stream() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    // (gap to previous arrival, sequential time, width hint) per job;
    // cumulative gaps keep the stream sorted by construction.
    prop::collection::vec((0u64..30, 1u64..25, 1u64..6), 1..12)
}

fn curves(spec: &[(u64, u64, u64)]) -> Vec<(u64, SpeedupCurve)> {
    let mut clock = 0u64;
    spec.iter()
        .map(|&(gap, t1, width)| {
            clock += gap;
            // Mix rigid and moldable shapes: ideal-with-overhead curves
            // give the planner real allotment choices.
            let curve = if width == 1 {
                SpeedupCurve::Constant(t1)
            } else {
                SpeedupCurve::ideal_with_overhead(t1 * 8, 2, width)
            };
            (clock, curve)
        })
        .collect()
}

/// `run_stream` with unbounded batches against [`reference::run_epochs`]:
/// outcome, every observation, every epoch row, and fairness, exactly.
fn assert_matches_reference(stream: &[StreamJob], m: Procs, solver: &dyn MakespanSolver) {
    let (epochs, expected, makespan) = reference::run_epochs(stream, m, solver);
    let mut rows = Vec::new();
    let mut observed: Vec<(u64, JobObservation)> = Vec::new();
    let out = run_stream(
        stream.to_vec(),
        m,
        solver,
        &StreamOptions::default(),
        |i, o| {
            push_epoch_row(&mut rows, o);
            observed.push((i, o.clone()));
        },
    )
    .unwrap();

    assert_eq!(out.jobs as usize, stream.len());
    assert_eq!(out.makespan, makespan);
    assert_eq!(out.epochs as usize, epochs.len());
    assert_eq!(rows, epochs);
    observed.sort_by_key(|&(i, _)| i);
    assert_eq!(observed.len(), expected.len());
    for (i, ((idx, got), want)) in observed.iter().zip(&expected).enumerate() {
        assert_eq!(*idx as usize, i);
        assert_eq!(got.epoch, want.epoch, "job {i}");
        assert_eq!(got.completion, want.completion, "job {i}");
        assert_eq!(got.placed, want.placed, "job {i}");
    }

    // Fairness: the online accumulator over streamed observations
    // equals the buffered report over the reference observations.
    let buffered = FairnessReport::from_observations(&expected);
    assert_eq!(out.fairness.max_stretch, buffered.max_stretch);
    assert_eq!(out.fairness.mean_stretch, buffered.mean_stretch);
    assert_eq!(out.fairness.users.len(), buffered.users.len());
    for (a, b) in out.fairness.users.iter().zip(&buffered.users) {
        assert_eq!(a.user, b.user);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.max_stretch, b.max_stretch);
        assert_eq!(a.mean_stretch, b.mean_stretch);
        assert_eq!(a.weighted_flow, b.weighted_flow);
    }
}

#[test]
fn event_engine_matches_epoch_scheme_on_fixed_corpora() {
    // Late arrivals, idle gaps, same-instant bursts, back-to-back
    // trickles, and two users: the arrival patterns, checked
    // completion by completion on every solver.
    let corpora: &[&[(u64, u64)]] = &[
        &[(0, 4), (0, 4), (0, 4), (0, 4)],
        &[(0, 10), (1, 3)],
        &[(0, 2), (100, 2)],
        &[(5, 7), (5, 3), (5, 9), (6, 1), (40, 2), (40, 2)],
        &[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
        &[(0, 10), (1, 3), (1, 5), (20, 2)],
    ];
    let eps = Ratio::new(1, 4);
    for spec in corpora {
        let stream: Vec<StreamJob> = spec
            .iter()
            .enumerate()
            .map(|(i, &(arrival, t1))| StreamJob {
                curve: SpeedupCurve::Constant(t1),
                arrival,
                user: (i % 2) as i64,
            })
            .collect();
        for name in SOLVERS {
            let solver = solver_by_name(name, &eps).unwrap();
            for m in [1u64, 2, 4] {
                assert_matches_reference(&stream, m, solver.as_ref());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Event engine ≡ epoch scheme: completions, makespan, epoch table,
    /// and fairness agree exactly for every solver.
    #[test]
    fn event_engine_matches_epoch_scheme(
        spec in arrival_stream(),
        m in 1u64..6,
        solver_idx in 0usize..SOLVERS.len(),
    ) {
        let stream: Vec<StreamJob> = curves(&spec)
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, curve))| StreamJob {
                curve,
                arrival,
                user: (i % 3) as i64,
            })
            .collect();
        let solver = solver_by_name(SOLVERS[solver_idx], &Ratio::new(1, 4)).unwrap();
        assert_matches_reference(&stream, m, solver.as_ref());
    }

    /// A bounded batch cap never loses or duplicates jobs, and the
    /// engine still emits exactly one observation per stream index.
    #[test]
    fn bounded_batches_conserve_jobs(
        spec in arrival_stream(),
        m in 1u64..6,
        cap in 1usize..4,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .map(|(a, c)| StreamJob::untagged(c.clone(), *a))
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let mut seen = vec![0usize; jobs.len()];
        let out = run_stream(
            stream,
            m,
            solver.as_ref(),
            &StreamOptions {
                max_batch: Some(cap),
                ..StreamOptions::default()
            },
            |i, o| {
                seen[i as usize] += 1;
                assert!(o.completion >= o.arrival);
            },
        )
        .unwrap();
        prop_assert_eq!(out.jobs as usize, jobs.len());
        prop_assert!(seen.iter().all(|&c| c == 1));
        prop_assert!(out.epochs as usize >= jobs.len().div_ceil(cap.max(1)) - 1);
    }

    /// `--fairshare off` is not a separate code path doing the same
    /// thing — it is `fairshare: None`, the exact options the corpus
    /// above proves equivalent to the epoch scheme. And with a single
    /// user, turning fair-share ON must change nothing either: every
    /// weight competition ties and falls back to arrival order, so
    /// completions, epoch count, makespan, and fairness reproduce the
    /// FIFO run exactly, for any half-life and batch cap.
    #[test]
    fn single_user_fairshare_reproduces_fifo(
        spec in arrival_stream(),
        m in 1u64..6,
        cap in 1usize..4,
        half_life in 1u64..64,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .map(|(a, c)| StreamJob { curve: c.clone(), arrival: *a, user: 7 })
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let run = |fairshare: Option<FairshareOptions>| {
            let mut completions: Vec<(u64, Ratio)> = Vec::new();
            let out = run_stream(
                stream.clone(),
                m,
                solver.as_ref(),
                &StreamOptions { max_batch: Some(cap), fairshare, ..StreamOptions::default() },
                |i, o| completions.push((i, o.completion)),
            )
            .unwrap();
            (out, completions)
        };
        let (fifo, fifo_completions) = run(None);
        let (fair, fair_completions) = run(Some(FairshareOptions { half_life }));
        prop_assert_eq!(fair_completions, fifo_completions);
        prop_assert_eq!(fair.epochs, fifo.epochs);
        prop_assert_eq!(fair.makespan, fifo.makespan);
        prop_assert_eq!(fair.fairness.max_stretch, fifo.fairness.max_stretch);
        prop_assert_eq!(fair.fairness.mean_stretch, fifo.fairness.mean_stretch);
    }

    /// Fair-share reorders the pending queue but never the ledger:
    /// with multiple competing users every job still completes exactly
    /// once, no earlier than its arrival, and the per-user fairness
    /// rows still partition the stream.
    #[test]
    fn fairshare_conserves_jobs_across_users(
        spec in arrival_stream(),
        m in 1u64..6,
        cap in 1usize..4,
        half_life in 1u64..64,
    ) {
        let jobs = curves(&spec);
        let stream: Vec<StreamJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, (a, c))| StreamJob {
                curve: c.clone(),
                arrival: *a,
                user: (i % 3) as i64,
            })
            .collect();
        let eps = Ratio::new(1, 4);
        let solver = solver_by_name("linear", &eps).unwrap();
        let mut seen = vec![0usize; jobs.len()];
        let out = run_stream(
            stream,
            m,
            solver.as_ref(),
            &StreamOptions {
                max_batch: Some(cap),
                fairshare: Some(FairshareOptions { half_life }),
                ..StreamOptions::default()
            },
            |i, o| {
                seen[i as usize] += 1;
                assert!(o.completion >= o.arrival);
            },
        )
        .unwrap();
        prop_assert_eq!(out.jobs as usize, jobs.len());
        prop_assert!(seen.iter().all(|&c| c == 1));
        let rows: usize = out.fairness.users.iter().map(|u| u.jobs).sum();
        prop_assert_eq!(rows, jobs.len());
        prop_assert!(out.fairness.users.len() <= 3);
    }
}
