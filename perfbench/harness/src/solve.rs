//! The `linear` solver (Algorithm 3 with the linear-time large-`m`
//! dispatch) behind timing wrappers: a [`DualAlgorithm`] wrapper that
//! spans every dual probe, and a [`MakespanSolver`] wrapper the stream
//! engine calls once per re-plan.

use crate::trace::Tracer;
use moldable_core::ratio::Ratio;
use moldable_core::types::{Procs, Time};
use moldable_core::view::JobView;
use moldable_sched::solver::{solver_by_name, MakespanSolver, SolveOutcome};
use moldable_sched::{approximate_view, DualAlgorithm, ImprovedDual, Schedule};
use std::sync::Mutex;
use std::time::Instant;

/// The solver every workload runs, by its registry name.
pub const ALGO: &str = "linear";

/// ε of every workload.
pub fn eps() -> Ratio {
    Ratio::new(1, 4)
}

/// Spans each [`DualAlgorithm::run`] call as `sched.dual.probe`, flagged
/// with whether the probe accepted its target.
struct TracedDual<'a> {
    inner: ImprovedDual,
    tracer: &'a Tracer,
}

impl DualAlgorithm for TracedDual<'_> {
    fn guarantee(&self) -> Ratio {
        self.inner.guarantee()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, view: &JobView, d: Time) -> Option<Schedule> {
        self.tracer.span_flagged(
            "sched.dual.probe",
            || self.inner.run(view, d),
            Option::is_some,
        )
    }
}

/// The registry's `linear` solve with its dual probes spanned: the
/// same estimator + binary search as `DualSolver`, inside a
/// `sched.solve` span whose self time is the estimator plus the search
/// bookkeeping.
pub fn traced_solve(view: &JobView, tracer: &Tracer) -> SolveOutcome {
    let eps = eps();
    let algo = TracedDual {
        inner: ImprovedDual::new_linear(eps),
        tracer,
    };
    let res = tracer.span("sched.solve", || approximate_view(view, &algo, &eps));
    SolveOutcome {
        makespan: res.schedule.makespan_view(view),
        ratio_bound: Some(algo.guarantee().mul(&eps.one_plus())),
        lower_bound: Some(res.lower_bound),
        probes: res.probes,
        schedule: res.schedule,
    }
}

/// The registry's `linear` solver, as the service and CLI look it up.
pub fn registry() -> Box<dyn MakespanSolver> {
    solver_by_name(ALGO, &eps()).expect("`linear` is a registry solver")
}

/// Solve `view` with the registry solver, or through [`traced_solve`]
/// when `tracer` records spans.
pub fn solve(registry: &dyn MakespanSolver, view: &JobView, tracer: &Tracer) -> SolveOutcome {
    if tracer.spans_enabled() {
        traced_solve(view, tracer)
    } else {
        registry.solve(view, view.m())
    }
}

/// The solver handed to the stream engine: [`solve`] plus a record of
/// each call's batch size and wall time.
pub struct StreamSolver<'a> {
    registry: Box<dyn MakespanSolver>,
    tracer: &'a Tracer,
    calls: Mutex<Vec<(usize, f64)>>,
}

impl<'a> StreamSolver<'a> {
    pub fn new(tracer: &'a Tracer) -> Self {
        StreamSolver {
            registry: registry(),
            tracer,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// `(batch jobs, seconds)` per solve call so far, then reset.
    pub fn take_calls(&self) -> Vec<(usize, f64)> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

impl MakespanSolver for StreamSolver<'_> {
    fn name(&self) -> &'static str {
        self.registry.name()
    }

    fn solve(&self, view: &JobView, m: Procs) -> SolveOutcome {
        assert_eq!(m, view.m(), "solver invoked with a mismatched view");
        let t0 = Instant::now();
        let out = solve(self.registry.as_ref(), view, self.tracer);
        let dt = t0.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("call log poisoned")
            .push((view.n(), dt));
        out
    }
}
