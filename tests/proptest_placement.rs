//! Property-based tests of the placement layer: every registry solver's
//! schedule lowers to a valid placement (pairwise-disjoint processor
//! sets per time slot, set size equal to the allotment), the
//! `contiguous-73-50` solver's native placement is contiguous,
//! `SlotSet` claim/release round-trips back to a fully free timeline,
//! and the validators return exactly what the reference validators in
//! [`reference`] return — error values included — on random and
//! mutated inputs.

use moldable::core::hierarchy::Topology;
use moldable::core::placement::Placement;
use moldable::core::procset::ProcSet;
use moldable::core::slotset::SlotSet;
use moldable::core::speedup::monotone_closure;
use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::solver::{solver_by_name, ExactSolver, SOLVER_NAMES};
use moldable::sched::{place_contiguous, place_with, PlacementPolicy};
use proptest::prelude::*;
use std::sync::Arc;

/// Random monotone table instances, sized so every registry solver
/// (including `exact`) applies.
fn table_instance() -> impl Strategy<Value = Instance> {
    (1usize..=5, 1u64..=4).prop_flat_map(|(n, m)| {
        prop::collection::vec(
            prop::collection::vec(1u64..40, m as usize..=m as usize),
            n..=n,
        )
        .prop_map(move |tables| {
            let curves = tables
                .into_iter()
                .map(|mut t| {
                    monotone_closure(&mut t);
                    SpeedupCurve::Table(Arc::new(t))
                })
                .collect();
            Instance::new(curves, m)
        })
    })
}

/// Pairwise disjointness, spelled out independently of
/// `Placement::validate`'s event sweep: any two placements whose time
/// intervals overlap must use disjoint processor sets.
fn assert_pairwise_disjoint(placement: &moldable::core::placement::Placement) {
    for (i, a) in placement.jobs.iter().enumerate() {
        for b in &placement.jobs[i + 1..] {
            if a.start < b.end && b.start < a.end {
                assert!(
                    a.procs.is_disjoint(&b.procs),
                    "jobs {} and {} share processors over an overlapping interval",
                    a.job,
                    b.job
                );
            }
        }
    }
}

/// The validators as they were before the ordered-range sweep and the
/// job-indexed placement join, kept as test oracles: a quadratic event
/// sweep that rebuilds the occupied set at every event, and a
/// placement join that scans the assignments once per row.
mod reference {
    use moldable::core::placement::{
        Placement, PlacementError, PlacementIntervalMismatch, PlacementOverlap,
        OVERLAP_WITNESSES,
    };
    use moldable::core::procset::ProcSet;
    use moldable::core::types::JobId;
    use moldable::prelude::*;
    use moldable::sched::validate::{Overcommit, ScheduleError, OVERCOMMIT_WITNESSES};

    /// `Placement::validate`: per-row checks, then a sweep that keeps
    /// the occupied set and the active jobs explicitly.
    pub fn placement_validate(pl: &Placement, m: u64) -> Result<(), PlacementError> {
        for p in &pl.jobs {
            if p.procs.is_empty() {
                return Err(PlacementError::EmptySet { job: p.job });
            }
            let hi = p.procs.max().expect("non-empty set has a maximum");
            if hi >= m {
                return Err(PlacementError::OutOfRange { job: p.job, hi, m });
            }
            if p.end <= p.start {
                return Err(PlacementError::EmptyInterval {
                    job: p.job,
                    start: p.start,
                    end: p.end,
                });
            }
        }
        let mut events: Vec<(Ratio, i8, usize)> = Vec::with_capacity(pl.jobs.len() * 2);
        for (i, p) in pl.jobs.iter().enumerate() {
            events.push((p.start, 1, i));
            events.push((p.end, -1, i));
        }
        events.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        let mut occupied = ProcSet::new();
        let mut active: Vec<usize> = Vec::new();
        for (e, &(at, kind, idx)) in events.iter().enumerate() {
            let p = &pl.jobs[idx];
            if kind < 0 {
                occupied = occupied.subtract(&p.procs);
                active.retain(|&a| a != idx);
                continue;
            }
            if !occupied.intersect(&p.procs).is_empty() {
                let until = events[e + 1..].iter().map(|&(t, _, _)| t).find(|t| *t > at);
                let mut jobs: Vec<(JobId, ProcSet)> = active
                    .iter()
                    .map(|&a| &pl.jobs[a])
                    .filter(|q| !q.procs.intersect(&p.procs).is_empty())
                    .map(|q| (q.job, q.procs.clone()))
                    .collect();
                jobs.push((p.job, p.procs.clone()));
                jobs.sort_by_key(|(job, procs)| (std::cmp::Reverse(procs.size()), *job));
                jobs.truncate(OVERLAP_WITNESSES);
                return Err(PlacementError::Overlap(Box::new(PlacementOverlap {
                    at,
                    until,
                    m,
                    jobs,
                })));
            }
            occupied =
                ProcSet::from_ranges(occupied.ranges().iter().chain(p.procs.ranges()).copied());
            active.push(idx);
        }
        Ok(())
    }

    /// `validate`: multiplicities, allotments, the demand sweep, then
    /// the placement join and [`placement_validate`].
    pub fn validate(schedule: &Schedule, inst: &Instance) -> Result<(), ScheduleError> {
        let mut seen = vec![0usize; inst.n()];
        for a in &schedule.assignments {
            let idx = a.job as usize;
            if idx >= inst.n() {
                return Err(ScheduleError::WrongJobMultiplicity {
                    job: a.job,
                    count: usize::MAX,
                });
            }
            seen[idx] += 1;
        }
        for (j, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(ScheduleError::WrongJobMultiplicity {
                    job: j as u32,
                    count,
                });
            }
        }
        for a in &schedule.assignments {
            if a.procs == 0 || a.procs > inst.m() {
                return Err(ScheduleError::BadAllotment {
                    job: a.job,
                    procs: a.procs,
                    m: inst.m(),
                });
            }
        }
        let mut events: Vec<(Ratio, i64, u64)> = Vec::with_capacity(schedule.len() * 2);
        for a in &schedule.assignments {
            let dur = inst.job(a.job).time(a.procs);
            let end = a.start.add(&Ratio::from(dur));
            events.push((a.start, 1, a.procs));
            events.push((end, -1, a.procs));
        }
        events.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        let mut demand: i128 = 0;
        for (i, &(at, kind, procs)) in events.iter().enumerate() {
            demand += kind as i128 * procs as i128;
            if demand > inst.m() as i128 {
                return Err(overcommit_witness(
                    inst,
                    schedule,
                    at,
                    events[i + 1..].iter().map(|&(t, _, _)| t).find(|t| *t > at),
                    demand as u128,
                ));
            }
        }
        if let Some(placement) = &schedule.placement {
            validate_placement(placement, schedule, inst)
                .map_err(|e| ScheduleError::Placement(Box::new(e)))?;
        }
        Ok(())
    }

    fn validate_placement(
        placement: &Placement,
        schedule: &Schedule,
        inst: &Instance,
    ) -> Result<(), PlacementError> {
        let mut matched = vec![false; inst.n()];
        for p in &placement.jobs {
            let Some(a) = schedule
                .assignments
                .iter()
                .find(|a| a.job == p.job && !matched[a.job as usize])
            else {
                return Err(PlacementError::UnknownJob { job: p.job });
            };
            matched[a.job as usize] = true;
            let expected_end = a.start.add(&Ratio::from(inst.job(a.job).time(a.procs)));
            if p.start != a.start || p.end != expected_end {
                return Err(PlacementError::IntervalMismatch(Box::new(
                    PlacementIntervalMismatch {
                        job: p.job,
                        start: p.start,
                        end: p.end,
                        expected_start: a.start,
                        expected_end,
                    },
                )));
            }
            if p.procs.size() != a.procs {
                return Err(PlacementError::SizeMismatch {
                    job: p.job,
                    placed: p.procs.size(),
                    allotment: a.procs,
                });
            }
        }
        if let Some(job) = matched.iter().position(|&done| !done) {
            return Err(PlacementError::MissingJob { job: job as u32 });
        }
        placement_validate(placement, inst.m())
    }

    fn overcommit_witness(
        inst: &Instance,
        schedule: &Schedule,
        at: Ratio,
        until: Option<Ratio>,
        demand: u128,
    ) -> ScheduleError {
        let mut active: Vec<(u32, u64)> = schedule
            .assignments
            .iter()
            .filter(|a| {
                let end = a.start.add(&Ratio::from(inst.job(a.job).time(a.procs)));
                a.start <= at && at < end
            })
            .map(|a| (a.job, a.procs))
            .collect();
        active.sort_by_key(|&(job, procs)| (std::cmp::Reverse(procs), job));
        active.truncate(OVERCOMMIT_WITNESSES);
        ScheduleError::Overcommitted(Box::new(Overcommit {
            at,
            until,
            demand,
            m: inst.m(),
            active,
        }))
    }
}

/// Random placements on up to 12 processors: up to 10 rows with
/// repeated job ids, half-unit start times drawn from a short window
/// (so equal starts and ends are common), and multi-range sets that
/// overlap often. One row in sixteen gets an out-of-range processor,
/// one an empty set and one an empty interval.
fn raw_placement() -> impl Strategy<Value = (Placement, u64)> {
    (1u64..=12).prop_flat_map(|m| {
        let row = (
            0u32..6,
            0u64..10,
            1u64..6,
            prop::collection::vec((0u64..m, 0u64..3), 1..4),
            0u8..16,
        );
        prop::collection::vec(row, 0..10).prop_map(move |rows| {
            let mut pl = Placement::new();
            for (job, start, dur, frags, flaw) in rows {
                let mut procs = ProcSet::from_ranges(
                    frags
                        .into_iter()
                        .map(|(lo, len)| (lo, (lo + len).min(m - 1))),
                );
                let dur = if flaw == 2 { 0 } else { dur };
                match flaw {
                    0 => procs = procs.union(&ProcSet::range(m, m)),
                    1 => procs = ProcSet::new(),
                    _ => {}
                }
                let start = Ratio::new(start as u128, 2);
                pl.push(job, start, start.add(&Ratio::new(dur as u128, 2)), procs);
            }
            (pl, m)
        })
    })
}

/// Monotone table instances on up to 12 processors, so the fragmenting
/// `Spread` policy yields multi-range sets.
fn wide_table_instance() -> impl Strategy<Value = Instance> {
    (1usize..=8, 1u64..=12).prop_flat_map(|(n, m)| {
        prop::collection::vec(
            prop::collection::vec(1u64..12, m as usize..=m as usize),
            n..=n,
        )
        .prop_map(move |tables| {
            let curves = tables
                .into_iter()
                .map(|mut t| {
                    monotone_closure(&mut t);
                    SpeedupCurve::Table(Arc::new(t))
                })
                .collect();
            Instance::new(curves, m)
        })
    })
}

/// One edit to a placed schedule, as `(kind, a, b)`: `a` and `b` pick
/// rows or assignments (taken modulo their count) and sizes.
type Mutation = (u8, usize, usize);

/// Apply `mutation` to `schedule` (whose placement is present on entry)
/// on `m` processors: the flaws the differential test must see —
/// duplicate, unknown and missing rows, interval and size mismatches,
/// overlaps with same-size sets, reordered rows, and schedule-level
/// multiplicity, allotment and overcommit faults.
fn mutate(schedule: &mut Schedule, n: usize, m: u64, (kind, a, b): Mutation) {
    let Some(pl) = schedule.placement.as_mut() else {
        return;
    };
    let rows = pl.jobs.len();
    if rows == 0 {
        return;
    }
    let (ra, rb) = (a % rows, b % rows);
    let (sa, sb) = (
        a % schedule.assignments.len(),
        b % schedule.assignments.len(),
    );
    match kind {
        // Duplicate a row.
        0 => pl.jobs.push(pl.jobs[ra].clone()),
        // A row for a job outside the instance.
        1 => {
            let mut row = pl.jobs[ra].clone();
            row.job = (n + b % 3) as u32;
            pl.jobs.insert(rb, row);
        }
        // A missing row.
        2 => {
            pl.jobs.remove(ra);
        }
        // A wrong interval: shifted start or end.
        3 if b % 2 == 0 => pl.jobs[ra].end = pl.jobs[ra].end.add(&Ratio::new(1, 2)),
        3 => pl.jobs[ra].start = pl.jobs[ra].start.add(&Ratio::new(1, 2)),
        // A wrong set size: one processor more or fewer.
        4 => {
            let procs = &pl.jobs[ra].procs;
            let fewer = procs
                .size()
                .checked_sub(1)
                .and_then(|k| procs.take_first(k));
            pl.jobs[ra].procs = match fewer {
                Some(fewer) if b % 2 == 0 => fewer,
                _ => procs.union(
                    &ProcSet::full(m)
                        .subtract(procs)
                        .take_first(1)
                        .unwrap_or_default(),
                ),
            };
        }
        // Same size, moved onto another row's lowest processor: an
        // overlap whenever the two rows share an instant.
        5 => {
            let size = pl.jobs[rb].procs.size();
            if let Some(lo) = pl.jobs[ra]
                .procs
                .min()
                .filter(|lo| size > 0 && lo + size <= m)
            {
                pl.jobs[rb].procs = ProcSet::range(lo, lo + size - 1);
            }
        }
        // Same size, re-drawn as a fragmented set around holes.
        6 => {
            let holes = ProcSet::from_ranges([
                (a as u64 % m, a as u64 % m),
                (b as u64 % m, b as u64 % m),
            ]);
            let size = pl.jobs[rb].procs.size();
            if let Some(procs) = ProcSet::full(m).subtract(&holes).take_first(size) {
                pl.jobs[rb].procs = procs;
            }
        }
        // Reordered rows.
        7 => pl.jobs.rotate_left(ra),
        // Schedule faults: a repeated or out-of-instance job id, a bad
        // allotment, a full-machine allotment, a shifted start.
        8 => {
            let job = schedule.assignments[sb].job;
            schedule.assignments[sa].job = job;
        }
        9 => schedule.assignments[sa].job = (n + b % 2) as u32,
        10 => schedule.assignments[sa].procs = [0, m + 1, m][b % 3],
        11 => {
            let start = schedule.assignments[sa]
                .start
                .add(&Ratio::new(1 + b as u128 % 4, 2));
            schedule.assignments[sa].start = start;
            if b % 3 == 0 {
                // Keep the row in step, so the fault reaches the sweeps.
                if let Some(row) = pl
                    .jobs
                    .iter_mut()
                    .find(|r| r.job == schedule.assignments[sa].job)
                {
                    let dur = row.end.sub(&row.start);
                    row.start = start;
                    row.end = start.add(&dur);
                }
            }
        }
        // No placement at all.
        _ => schedule.placement = None,
    }
}

/// Two uneven blocks whenever m allows: [0, ceil(m/2)) and the rest —
/// non-trivial for every m ≥ 2, flat for m = 1.
fn two_block_topology(m: u64) -> Topology {
    if m >= 2 {
        Topology::from_levels(
            m,
            vec![moldable::core::hierarchy::Level {
                name: "node".into(),
                blocks: vec![
                    ProcSet::range(0, m.div_ceil(2) - 1),
                    ProcSet::range(m.div_ceil(2), m - 1),
                ],
            }],
        )
        .expect("two blocks partition [0, m)")
    } else {
        Topology::flat(m)
    }
}

/// Lower `schedule` onto [`two_block_topology`] under `Spread`
/// (fragmented sets) or `Contiguous`.
fn lower(view: &JobView, schedule: &Schedule, spread: bool) -> Placement {
    let policy = if spread {
        PlacementPolicy::Spread { level: 0 }
    } else {
        PlacementPolicy::Contiguous
    };
    place_with(view, schedule, &two_block_topology(view.m()), &policy)
        .expect("schedule is demand-feasible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every registry solver's schedule admits a placement (native or via
    /// `place_contiguous`) that passes full validation: one row per job,
    /// `ProcSet` size equal to the allotment, sets within `[0, m)`, and
    /// no processor double-booked — `validate` checks the join against
    /// the assignments, and the pairwise sweep here re-proves
    /// disjointness from scratch.
    #[test]
    fn every_solver_lowers_to_a_valid_placement(inst in table_instance()) {
        let view = JobView::build(&inst);
        let eps = Ratio::new(1, 4);
        for name in SOLVER_NAMES {
            if *name == "exact" && !ExactSolver::fits(&view) {
                continue;
            }
            let solver = solver_by_name(name, &eps).expect("registry name");
            let mut outcome = solver.solve(&view, view.m());
            if outcome.schedule.placement.is_none() {
                let placement = place_contiguous(&view, &outcome.schedule)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                outcome.schedule.placement = Some(placement);
            }
            prop_assert!(
                validate(&outcome.schedule, &inst).is_ok(),
                "{name}: {:?}",
                validate(&outcome.schedule, &inst)
            );
            let placement = outcome.schedule.placement.as_ref().unwrap();
            prop_assert_eq!(placement.jobs.len(), inst.n(), "{}", name);
            for p in &placement.jobs {
                let a = outcome
                    .schedule
                    .assignments
                    .iter()
                    .find(|a| a.job == p.job)
                    .expect("placement rows mirror assignments");
                prop_assert_eq!(p.procs.size(), a.procs, "{} job {}", name, p.job);
            }
            assert_pairwise_disjoint(placement);
        }
    }

    /// The `contiguous-73-50` solver always returns a native placement
    /// in which every job occupies one contiguous machine interval.
    #[test]
    fn contiguous_solver_placements_are_contiguous(inst in table_instance()) {
        let view = JobView::build(&inst);
        let solver = solver_by_name("contiguous-73-50", &Ratio::new(1, 4)).unwrap();
        let outcome = solver.solve(&view, view.m());
        prop_assert!(validate(&outcome.schedule, &inst).is_ok());
        let placement = outcome.schedule.placement.as_ref().expect("native placement");
        prop_assert_eq!(placement.jobs.len(), inst.n());
        for p in &placement.jobs {
            prop_assert!(
                p.procs.is_contiguous(),
                "job {} placed on fragmented set {}",
                p.job,
                p.procs
            );
        }
        assert_pairwise_disjoint(placement);
    }

    /// Every registry solver's schedule lowers onto a non-trivial
    /// two-level topology under every placement policy: full validation
    /// passes, every job's set has exactly its allotted size, and the
    /// pairwise sweep re-proves disjointness from scratch.
    #[test]
    fn every_solver_lowers_onto_a_topology(inst in table_instance()) {
        let view = JobView::build(&inst);
        let topology = two_block_topology(view.m());
        let policies = [
            PlacementPolicy::Contiguous,
            PlacementPolicy::Packed { level: 0 },
            PlacementPolicy::Spread { level: 0 },
        ];
        let eps = Ratio::new(1, 4);
        for name in SOLVER_NAMES {
            if *name == "exact" && !ExactSolver::fits(&view) {
                continue;
            }
            let solver = solver_by_name(name, &eps).expect("registry name");
            let mut outcome = solver.solve(&view, view.m());
            for policy in &policies {
                let placement = place_with(&view, &outcome.schedule, &topology, policy)
                    .unwrap_or_else(|e| panic!("{name}/{policy:?}: {e}"));
                prop_assert_eq!(placement.jobs.len(), inst.n(), "{} {:?}", name, policy);
                for p in &placement.jobs {
                    let a = outcome
                        .schedule
                        .assignments
                        .iter()
                        .find(|a| a.job == p.job)
                        .expect("placement rows mirror assignments");
                    prop_assert_eq!(
                        p.procs.size(), a.procs,
                        "{} {:?} job {}", name, policy, p.job
                    );
                }
                assert_pairwise_disjoint(&placement);
                outcome.schedule.placement = Some(placement);
                prop_assert!(
                    validate(&outcome.schedule, &inst).is_ok(),
                    "{} {:?}: {:?}",
                    name, policy, validate(&outcome.schedule, &inst)
                );
            }
        }
    }

    /// SlotSet claim/release round-trip: claiming what `free_over`
    /// offers always succeeds, claims are never available twice, and
    /// releasing everything coalesces back to a single fully-free slot.
    #[test]
    fn slotset_claims_release_back_to_free(
        m in 1u64..=16,
        ops in prop::collection::vec((0u64..40, 1u64..20, 1u64..8), 1..24),
    ) {
        let mut timeline = SlotSet::new(m);
        let mut claimed: Vec<(Ratio, Ratio, ProcSet)> = Vec::new();
        for (start, dur, width) in ops {
            let width = width.min(m);
            let start = Ratio::from(start);
            let end = start.add(&Ratio::from(dur));
            let free = timeline.free_over(&start, &end);
            if free.size() < width {
                continue; // window too busy for this op
            }
            let procs = free.take_first(width).expect("size checked above");
            prop_assert_eq!(procs.size(), width);
            prop_assert!(timeline.claim(&start, &end, &procs), "free set must claim");
            // The same processors are no longer free over that window.
            prop_assert!(timeline.free_over(&start, &end).is_disjoint(&procs));
            claimed.push((start, end, procs));
        }
        // Release in a scrambled order (reverse is enough to de-pair the
        // claim order) and require full coalescing at the end.
        claimed.reverse();
        for (start, end, procs) in claimed {
            timeline.release(&start, &end, &procs);
        }
        prop_assert_eq!(timeline.len(), 1);
        prop_assert_eq!(
            timeline.free_over(&Ratio::from(0u64), &Ratio::from(1000u64)).size(),
            m
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Placement::validate` returns exactly the reference sweep's
    /// result, error value and witness order included.
    #[test]
    fn placement_validate_matches_reference((pl, m) in raw_placement()) {
        prop_assert_eq!(pl.validate(m), reference::placement_validate(&pl, m));
    }

    /// `validate` returns exactly the reference validator's result on
    /// solver schedules lowered to placements and then mutated by up to
    /// three flaws (or none).
    #[test]
    fn validate_matches_reference(
        inst in wide_table_instance(),
        solver in 0usize..3,
        spread in 0u8..2,
        mutations in prop::collection::vec((0u8..13, 0usize..64, 0usize..64), 0..4),
    ) {
        let view = JobView::build(&inst);
        let name = ["linear", "two-approx", "contiguous-73-50"][solver];
        let solver = solver_by_name(name, &Ratio::new(1, 4)).expect("registry name");
        let mut schedule = solver.solve(&view, view.m()).schedule;
        let placement = lower(&view, &schedule, spread == 1);
        schedule.placement = Some(placement);
        for mutation in mutations {
            mutate(&mut schedule, inst.n(), inst.m(), mutation);
        }
        prop_assert_eq!(validate(&schedule, &inst), reference::validate(&schedule, &inst));
    }
}

/// Packed locality beats Spread where it is supposed to: lowering the
/// same schedule corpus onto the same topology, Packed's mean
/// node-blocks-spanned is *strictly* below Spread's (Spread buys its
/// even load by splitting jobs across blocks; Packed pays load balance
/// for single-block placements).
#[test]
fn packed_has_strictly_fewer_mean_spans_than_spread() {
    let topology = Topology::uniform(&[4, 16]).unwrap(); // 4 nodes × 16 cores
    let mut packed_total = 0.0;
    let mut spread_total = 0.0;
    for seed in 0..4u64 {
        let inst = bench_instance(BenchFamily::PowerLaw, 24, 64, seed);
        let view = JobView::build(&inst);
        let solver = solver_by_name("linear", &Ratio::new(1, 4)).unwrap();
        let schedule = solver.solve(&view, view.m()).schedule;
        let mean = |policy: &PlacementPolicy| -> f64 {
            let placement = place_with(&view, &schedule, &topology, policy).unwrap();
            topology.fragmentation(&placement).levels[0].mean_span()
        };
        let packed = mean(&PlacementPolicy::Packed { level: 0 });
        let spread = mean(&PlacementPolicy::Spread { level: 0 });
        assert!(
            packed <= spread,
            "seed {seed}: packed {packed} > spread {spread}"
        );
        packed_total += packed;
        spread_total += spread;
    }
    assert!(
        packed_total < spread_total,
        "packed mean {packed_total} not strictly below spread mean {spread_total} over the corpus"
    );
}
