//! The factor-2 makespan estimator (Section 3, after Ludwig & Tiwari).
//!
//! Over all allotments `a`, minimize `ω(a) = max(W(a)/m, max_j t_j(a_j))`
//! (Eq. 2 — the paper prints `min`, an evident typo: ω must lower-bound OPT,
//! and the cited Ludwig–Tiwari estimator is the max of average load and
//! critical path; see DESIGN.md). Then `ω ≤ OPT`, and list-scheduling the
//! minimizing allotment yields makespan `≤ W/m + t_max ≤ 2ω`, so
//! `ω ≤ OPT ≤ 2ω`.
//!
//! For monotone jobs, the allotment minimizing ω at a time threshold `τ` is
//! the canonical `γ(τ)` (it meets `t ≤ τ` with the least work). The function
//! `f(τ) = max(τ, ⌈W(γ(τ))/m⌉)` therefore has a single crossing: the least
//! integer `τ` with `W(γ(τ)) ≤ m·τ`. The search for it lives in
//! [`moldable_core::bounds::least_fitting_threshold`], shared with the
//! parametric lower bound. It brackets each job's γ between the ends of
//! the search interval — γ only shrinks as `τ` grows — so a probe searches
//! only inside each job's bracket, and a job whose bracket has closed is
//! never visited again. On the benchmark families (n = 2¹⁴, m = 2²⁰) the
//! whole search costs one to two γ-plus-work passes over the jobs (the
//! `dual_algorithms/estimator` and `gamma-pass` bench rows); re-searching
//! every γ at each of the `O(log T)` bisection steps would cost one full
//! pass per step.

use crate::list_scheduling::greedy_schedule;
use crate::schedule::Schedule;
use moldable_core::bounds::least_fitting_threshold;
use moldable_core::instance::Instance;
use moldable_core::types::{JobId, Procs, Time};
use moldable_core::view::JobView;

/// Result of the estimator.
#[derive(Clone, Debug)]
pub struct Estimate {
    /// The estimate: `omega ≤ OPT ≤ 2·omega`.
    pub omega: Time,
    /// The allotment realizing the estimate (`γ_j(omega)` capped at τ*).
    pub allotment: Vec<Procs>,
}

/// Compute the factor-2 estimate. Panics on empty instances.
///
/// Convenience wrapper over [`estimate_view`]; callers doing more than one
/// query against the same instance should build the [`JobView`] themselves
/// and share it.
pub fn estimate(inst: &Instance) -> Estimate {
    estimate_view(&JobView::build(inst))
}

/// [`estimate`] over a prebuilt [`JobView`]: the bracketed search of
/// [`least_fitting_threshold`], served from the view's γ staircases.
pub fn estimate_view(view: &JobView) -> Estimate {
    assert!(view.n() > 0, "estimate of an empty instance");
    let (omega, allotment) = least_fitting_threshold(view);
    Estimate { omega, allotment }
}

/// The 2-approximate schedule induced by the estimate: greedily schedule the
/// estimator's allotment in decreasing-width order (the Turek–Wolf–Yu /
/// Ludwig–Tiwari baseline the paper compares against). Makespan ≤ 2ω.
pub fn two_approx_schedule(inst: &Instance) -> Schedule {
    two_approx_schedule_view(&JobView::build(inst))
}

/// [`two_approx_schedule`] over a prebuilt [`JobView`].
pub fn two_approx_schedule_view(view: &JobView) -> Schedule {
    let est = estimate_view(view);
    let mut order: Vec<JobId> = (0..view.n() as JobId).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(est.allotment[j as usize]));
    greedy_schedule(view, &est.allotment, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use moldable_core::ratio::Ratio;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
    use std::sync::Arc;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_instance(seed: &mut u64, max_m: u64, max_n: u64) -> Instance {
        let m = xorshift(seed) % max_m + 1;
        let n = (xorshift(seed) % max_n + 1) as usize;
        let curves: Vec<SpeedupCurve> = (0..n)
            .map(|_| {
                let len = m.min(32) as usize;
                let mut tbl: Vec<u64> = (0..len).map(|_| xorshift(seed) % 40 + 1).collect();
                monotone_closure(&mut tbl);
                SpeedupCurve::Table(Arc::new(tbl))
            })
            .collect();
        Instance::new(curves, m)
    }

    #[test]
    fn omega_bounds_hold_for_all_feasible_schedules() {
        // ω must be ≤ the makespan of ANY feasible schedule; check against
        // the trivial all-parallel and the sequential schedules, plus the
        // 2-approx upper bound.
        let mut seed = 0xEDA7_BEEF_1234_5678u64;
        for round in 0..80 {
            let inst = random_instance(&mut seed, 8, 8);
            let est = estimate(&inst);
            let sched = two_approx_schedule(&inst);
            validate(&sched, &inst).unwrap();
            let mk = sched.makespan(&inst);
            assert!(
                mk <= Ratio::from(2 * est.omega),
                "round {round}: 2-approx makespan {mk} > 2ω = {}",
                2 * est.omega
            );
            // ω ≤ sequential makespan (a feasible schedule).
            assert!(est.omega as u128 <= inst.total_seq_time());
        }
    }

    #[test]
    fn omega_lower_bounds_opt_against_exhaustive() {
        // On tiny instances, compare with the true optimum from the
        // exhaustive solver.
        let mut seed = 0x5151_5151_5151_5151u64;
        for _ in 0..25 {
            let inst = random_instance(&mut seed, 3, 4);
            let est = estimate(&inst);
            let opt = crate::exact::optimal_makespan(&inst);
            assert!(
                Ratio::from(est.omega) <= opt,
                "ω = {} exceeds OPT = {opt}",
                est.omega
            );
            assert!(
                opt <= Ratio::from(2 * est.omega),
                "OPT = {opt} exceeds 2ω = {}",
                2 * est.omega
            );
        }
    }

    #[test]
    fn sequential_total_beyond_u64_is_no_obstacle() {
        // Σ t_j(1) = 18·2⁶¹ overflows u64, but OPT = 3·2⁶¹ (every job on
        // its own processor) fits: the search must not start below ω.
        let t: Time = 3 << 61;
        let inst = Instance::new(vec![SpeedupCurve::Constant(t); 6], 1024);
        let est = estimate(&inst);
        assert_eq!(est.omega, t);
        assert_eq!(est.allotment, vec![1; 6]);
        let sched = two_approx_schedule(&inst);
        validate(&sched, &inst).unwrap();
        assert_eq!(sched.makespan(&inst), Ratio::from(t));
    }

    #[test]
    #[should_panic(expected = "ω exceeds the time range")]
    fn omega_beyond_u64_panics_plainly() {
        let inst = Instance::new(vec![SpeedupCurve::Constant(u64::MAX); 2], 1);
        estimate(&inst);
    }

    #[test]
    fn single_job_estimate() {
        let inst = Instance::new(vec![SpeedupCurve::Constant(7)], 4);
        let est = estimate(&inst);
        assert_eq!(est.omega, 7);
        assert_eq!(est.allotment, vec![1]);
    }
}
