//! The solve/race request pipeline, shared by the CLI and the service.
//!
//! Both front ends run the same steps: [`resolve`] the solver, admit
//! (per front end, between resolve and run: the service charges its
//! quota engine and probes its caches, the CLI runs only
//! [`admit_in_request`]), then [`run`] or [`run_race`] — build the
//! [`JobView`] once, guard the exact solver's size, solve, lower onto
//! processors and certify with [`validate()`] — and render the typed
//! reply through [`crate::wire::reply`]. Every step fails with a
//! [`Failure`] whose kind is fixed where the error arises, so the same
//! request gets the same envelope from either front end.

use crate::wire::reply::{RaceReply, SolveReply};
use crate::wire::{ErrorKind, Failure, SolveRequest};
use moldable_core::instance::Instance;
use moldable_core::view::JobView;
use moldable_sched::batch;
use moldable_sched::exact::{EXACT_M_LIMIT, EXACT_N_LIMIT};
use moldable_sched::place::{place_contiguous, place_with};
use moldable_sched::quotas::{Demand, QuotaEngine};
use moldable_sched::solver::{race_roster, solver_by_name, ExactSolver, MakespanSolver};
use moldable_sched::{estimate_view, validate, Schedule};

/// The registry solver a request names.
pub fn resolve(req: &SolveRequest) -> Result<Box<dyn MakespanSolver>, Failure> {
    Ok(solver_by_name(&req.algo, &req.eps)?)
}

/// What one solve of `instance` charges against a quota: the instance's
/// `m` processors, one job, and `Σ tⱼ(1)` resource-seconds.
pub fn demand(instance: &Instance) -> Demand {
    Demand {
        procs: instance.m(),
        jobs: 1,
        resource_seconds: instance.jobs().iter().map(|j| u128::from(j.time(1))).sum(),
    }
}

/// The stateless in-request quota check: would `demand` fit the
/// request's own `quotas` rules on an idle cluster at tick `now`?
/// Requests without a tenant or without rules pass.
pub fn admit_in_request(req: &SolveRequest, demand: &Demand, now: u64) -> Result<(), Failure> {
    if let (Some(tenant), Some(set)) = (&req.tenant, &req.quotas) {
        QuotaEngine::new(set.clone()).admit(tenant, demand, now)?;
    }
    Ok(())
}

/// The exact solver's size guard: its exhaustive search would blow the
/// branch-and-bound cap beyond these limits, so refuse up front.
pub fn check_fits(solver: &dyn MakespanSolver, view: &JobView) -> Result<(), Failure> {
    if solver.name() == "exact" && !ExactSolver::fits(view) {
        return Err(Failure::new(
            ErrorKind::BadRequest,
            format!(
                "instance too large for the exact solver (n ≤ {EXACT_N_LIMIT}, m ≤ {EXACT_M_LIMIT})"
            ),
        ));
    }
    Ok(())
}

/// Run one resolved solver on the request's instance: guard, solve,
/// lower, certify.
pub fn run<'a>(
    req: &'a SolveRequest,
    instance: &'a Instance,
    solver: &dyn MakespanSolver,
) -> Result<SolveReply<'a>, Failure> {
    let view = JobView::build(instance);
    check_fits(solver, &view)?;
    let mut outcome = solver.solve(&view, view.m());
    lower_and_certify(req, &view, instance, &mut outcome.schedule, None)?;
    Ok(SolveReply {
        request: req,
        instance,
        solver: solver.name(),
        outcome,
    })
}

/// Race every registry solver that applies to the instance on `threads`
/// batch workers, then lower and certify each schedule in roster order.
/// A failing row fails the whole race, its detail tagged with the
/// solver's label.
pub fn run_race<'a>(
    req: &'a SolveRequest,
    instance: &'a Instance,
    threads: usize,
) -> Result<RaceReply<'a>, Failure> {
    let view = JobView::build(instance);
    let omega = estimate_view(&view).omega;
    let solvers = race_roster(&view, &req.eps);
    let mut results = batch::race(&solvers, &view, threads);
    for r in &mut results {
        let (schedule, label) = (&mut r.outcome.schedule, Some(r.label.as_str()));
        lower_and_certify(req, &view, instance, schedule, label)?;
    }
    Ok(RaceReply {
        request: req,
        instance,
        omega,
        results,
    })
}

/// Attach the placement the request asks for — [`place_with`] under a
/// topology, else [`place_contiguous`] when `placements` is set and the
/// solver produced no native layer — then validate the schedule,
/// placement included. `label` prefixes failure details with the race
/// row's solver.
fn lower_and_certify(
    req: &SolveRequest,
    view: &JobView,
    instance: &Instance,
    schedule: &mut Schedule,
    label: Option<&str>,
) -> Result<(), Failure> {
    let fail = |kind, detail: String| match label {
        Some(label) => Failure::new(kind, format!("{label}: {detail}")),
        None => Failure::new(kind, detail),
    };
    let lowered = match &req.topology {
        // A topology re-lowers even solver-provided placements, so the
        // policy is honored uniformly across the whole registry.
        Some(topology) => Some(place_with(view, schedule, topology, &req.policy)),
        None if req.placements && schedule.placement.is_none() => {
            Some(place_contiguous(view, schedule))
        }
        None => None,
    };
    if let Some(lowered) = lowered {
        // Only a solver bug fails here: any demand-feasible schedule lowers.
        let placement = lowered
            .map_err(|e| fail(ErrorKind::Placement, format!("placement failed: {e}")))?;
        schedule.placement = Some(placement);
    }
    validate(schedule, instance).map_err(|e| {
        fail(
            ErrorKind::InvalidSchedule,
            format!("solver produced an invalid schedule: {e}"),
        )
    })
}
