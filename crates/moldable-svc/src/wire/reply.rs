//! The reply side of the wire format: one renderer for both front ends.
//!
//! [`SolveReply`] and [`RaceReply`] are the typed results of
//! [`crate::pipeline`]; `to_value` assembles the `/v1/solve` and
//! `/v1/race` bodies. The service serializes them compactly; the CLI
//! pretty-prints them and appends only its CLI-only keys (`total_work`;
//! `threads` and per-row `wall_seconds`, which the service leaves out so
//! its bodies stay pure functions of the request).

use crate::wire::SolveRequest;
use moldable_core::hierarchy::Topology;
use moldable_core::instance::Instance;
use moldable_core::placement::Placement;
use moldable_core::ratio::Ratio;
use moldable_core::types::Time;
use moldable_sched::batch::BatchResult;
use moldable_sched::quotas::Tenant;
use moldable_sched::solver::SolveOutcome;
use moldable_sched::Schedule;
use serde_json::{json, Value};

/// One solver's certified answer to a solve request: the outcome with
/// its schedule lowered (when asked) and validated.
#[derive(Debug)]
pub struct SolveReply<'a> {
    /// The request it answers.
    pub request: &'a SolveRequest,
    /// The instance it schedules.
    pub instance: &'a Instance,
    /// The registry name of the solver that ran.
    pub solver: &'static str,
    /// The solver's outcome, placement attached when the request asked.
    pub outcome: SolveOutcome,
}

impl SolveReply<'_> {
    /// The `/v1/solve` body.
    pub fn to_value(&self) -> Value {
        let (sr, outcome) = (self.request, &self.outcome);
        let mut reply = json!({
            "schema": sr.schema(),
            "algo": sr.algo,
            "solver": self.solver,
            "n": self.instance.n(),
            "m": self.instance.m(),
            "eps": sr.eps.to_f64(),
            "makespan": outcome.makespan.to_f64(),
            "ratio_bound": outcome.ratio_bound.as_ref().map(Ratio::to_f64),
            "opt_lower_bound": outcome.lower_bound,
            "probes": outcome.probes,
            "assignments": assignment_rows(self.instance, &outcome.schedule),
        });
        if let Some(placement) = placed(sr, &outcome.schedule) {
            push_field(
                &mut reply,
                "placements",
                placement_rows_on(placement, sr.topology.as_ref()),
            );
        }
        if let Some(topology) = &sr.topology {
            push_topology(&mut reply, sr, topology);
            let placement =
                placed(sr, &outcome.schedule).expect("a topology implies placements");
            push_field(
                &mut reply,
                "fragmentation",
                fragmentation_summary(topology, placement),
            );
        }
        push_tenant(&mut reply, sr);
        reply
    }
}

/// The whole applicable roster's answers to a race request, every
/// schedule lowered (when asked) and validated.
#[derive(Debug)]
pub struct RaceReply<'a> {
    /// The request it answers.
    pub request: &'a SolveRequest,
    /// The instance every solver scheduled.
    pub instance: &'a Instance,
    /// The factor-2 estimator's ω (OPT ≤ 2ω).
    pub omega: Time,
    /// One result per roster solver, in roster order.
    pub results: Vec<BatchResult>,
}

impl RaceReply<'_> {
    /// The makespan a solver with ratio bound `bound` may not exceed:
    /// `bound · 2ω`, since OPT ≤ 2ω.
    pub fn cap(&self, bound: &Ratio) -> Ratio {
        bound.mul_int(2 * u128::from(self.omega))
    }

    /// Whether `result` keeps its proven bound against 2ω; `None` for a
    /// solver that carries no bound.
    pub fn bound_holds(&self, result: &BatchResult) -> Option<bool> {
        let outcome = &result.outcome;
        outcome
            .ratio_bound
            .as_ref()
            .map(|b| outcome.makespan <= self.cap(b))
    }

    /// The `/v1/race` body.
    pub fn to_value(&self) -> Value {
        self.to_value_with(|_, _| {})
    }

    /// The `/v1/race` body, with `extend_row` appending keys to each
    /// result row after the shared ones (the CLI's `wall_seconds`).
    pub fn to_value_with(&self, mut extend_row: impl FnMut(&BatchResult, &mut Value)) -> Value {
        let sr = self.request;
        let mut all_bounds_hold = true;
        let rows: Vec<Value> = self
            .results
            .iter()
            .map(|r| {
                let bound_ok = self.bound_holds(r);
                all_bounds_hold &= bound_ok != Some(false);
                let mut row = json!({
                    "solver": r.label,
                    "makespan": r.outcome.makespan.to_f64(),
                    "ratio_bound": r.outcome.ratio_bound.as_ref().map(Ratio::to_f64),
                    "bound_holds_vs_2omega": bound_ok,
                    "probes": r.outcome.probes,
                });
                if let Some(placement) = placed(sr, &r.outcome.schedule) {
                    push_field(
                        &mut row,
                        "placements",
                        placement_rows_on(placement, sr.topology.as_ref()),
                    );
                    if let Some(topology) = &sr.topology {
                        push_field(
                            &mut row,
                            "fragmentation",
                            fragmentation_summary(topology, placement),
                        );
                    }
                }
                extend_row(r, &mut row);
                row
            })
            .collect();
        let mut reply = json!({
            "schema": sr.schema(),
            "n": self.instance.n(),
            "m": self.instance.m(),
            "eps": sr.eps.to_f64(),
            "omega": self.omega,
            "all_bounds_hold": all_bounds_hold,
        });
        if let Some(topology) = &sr.topology {
            push_topology(&mut reply, sr, topology);
        }
        push_field(&mut reply, "results", Value::Array(rows));
        push_tenant(&mut reply, sr);
        reply
    }
}

/// The schedule's placement when the request asked for one (explicitly,
/// or implicitly through a topology).
fn placed<'s>(sr: &SolveRequest, schedule: &'s Schedule) -> Option<&'s Placement> {
    let asked = sr.placements || sr.topology.is_some();
    asked.then(|| schedule.placement.as_ref().expect("the pipeline placed it"))
}

/// The v3 `topology` echo and canonical `policy` label.
fn push_topology(reply: &mut Value, sr: &SolveRequest, topology: &Topology) {
    push_field(reply, "topology", topology_rows(topology));
    push_field(reply, "policy", Value::String(sr.policy.label(topology)));
}

/// The trailing v4 `tenant` echo, when the request carried a tenant.
fn push_tenant(reply: &mut Value, sr: &SolveRequest) {
    if let Some(tenant) = &sr.tenant {
        push_field(reply, "tenant", tenant_echo(tenant));
    }
}

/// Append one field to a JSON object (the shim's `Value::Object` keeps
/// insertion order, so optional fields always serialize last).
pub fn push_field(value: &mut Value, key: &str, field: Value) {
    match value {
        Value::Object(fields) => fields.push((key.to_string(), field)),
        _ => unreachable!("replies are built as objects"),
    }
}

/// Assignment rows in the `solve` JSON shape — the single serializer
/// behind both front ends and the bench harnesses.
pub fn assignment_rows(inst: &Instance, s: &Schedule) -> Value {
    Value::Array(
        s.assignments
            .iter()
            .map(|a| {
                json!({
                    "job": a.job,
                    "start_num": a.start.num().to_string(),
                    "start_den": a.start.den().to_string(),
                    "procs": a.procs,
                    "duration": inst.job(a.job).time(a.procs),
                })
            })
            .collect(),
    )
}

/// Placement rows in the wire-format v2 shape: each row carries the
/// exact rational interval (numerator/denominator strings, same
/// convention as assignment starts) and the processor set as inclusive
/// `[lo, hi]` ranges. With a topology (wire-format v3) each row gains a
/// trailing `"locality"` object mapping every level name to the number
/// of blocks the job's set spans there; without one, the rows are
/// byte-identical to v2.
fn placement_rows_on(placement: &Placement, topology: Option<&Topology>) -> Value {
    Value::Array(
        placement
            .jobs
            .iter()
            .map(|p| {
                let mut row = json!({
                    "job": p.job,
                    "start_num": p.start.num().to_string(),
                    "start_den": p.start.den().to_string(),
                    "end_num": p.end.num().to_string(),
                    "end_den": p.end.den().to_string(),
                    "procs": p.procs
                        .ranges()
                        .iter()
                        .map(|&(lo, hi)| json!([lo, hi]))
                        .collect::<Vec<Value>>(),
                });
                if let Some(t) = topology {
                    let locality: Vec<(String, Value)> = t
                        .levels()
                        .iter()
                        .enumerate()
                        .map(|(i, level)| {
                            (level.name.clone(), json!(t.span_blocks(i, &p.procs)))
                        })
                        .collect();
                    push_field(&mut row, "locality", Value::Object(locality));
                }
                row
            })
            .collect(),
    )
}

/// The topology echo in v3 replies: one row per level, coarsest first,
/// carrying the level name and its block count.
fn topology_rows(topology: &Topology) -> Value {
    Value::Array(
        topology
            .levels()
            .iter()
            .map(|level| {
                json!({
                    "name": level.name,
                    "blocks": level.blocks.len() as u64,
                })
            })
            .collect(),
    )
}

/// The v3 fragmentation summary: per level (keyed by name, coarsest
/// first), the block count and the placement's mean/max blocks-spanned.
fn fragmentation_summary(topology: &Topology, placement: &Placement) -> Value {
    let report = topology.fragmentation(placement);
    Value::Object(
        report
            .levels
            .iter()
            .map(|l| {
                (
                    l.level.clone(),
                    json!({
                        "blocks": l.blocks,
                        "jobs": l.jobs,
                        "mean_span": l.mean_span(),
                        "max_span": l.max_span,
                    }),
                )
            })
            .collect(),
    )
}

/// The wire-format v4 response echo of the request's tenant, with the
/// defaulted parts made explicit.
fn tenant_echo(tenant: &Tenant) -> Value {
    json!({
        "user": tenant.user,
        "project": tenant.project,
        "class": tenant.class,
    })
}
