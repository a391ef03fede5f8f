//! Lower bounds on the optimal makespan.
//!
//! Used by tests and benchmarks to certify approximation quality on instances
//! too large for the exact solver: `ratio_vs_lower_bound ≥ ratio_vs_OPT`.

use crate::instance::Instance;
#[cfg(test)]
use crate::ratio::Ratio;
use crate::types::{JobId, Procs, Time, Work};
use crate::view::JobView;

/// `max_j t_j(m)`: no schedule can beat the most parallel execution of the
/// least parallelizable job.
pub fn critical_path_bound(inst: &Instance) -> Time {
    inst.jobs()
        .iter()
        .map(|j| j.time(inst.m()))
        .max()
        .unwrap_or(0)
}

/// `⌈Σ_j w_j(1) / m⌉` — total-work bound using each job's *minimum* work.
/// For monotone jobs the single-processor work `w_j(1) = t_j(1)` is minimal,
/// so this is a valid average-load lower bound.
pub fn area_bound(inst: &Instance) -> Time {
    let total: Work = inst.jobs().iter().map(|j| j.work(1)).sum();
    total.div_ceil(inst.m() as Work) as Time
}

/// The combined trivial lower bound `max(critical path, area)`.
pub fn trivial_lower_bound(inst: &Instance) -> Time {
    critical_path_bound(inst).max(area_bound(inst))
}

/// A stronger parametric lower bound: `d` is infeasible if
/// `Σ_j w_j(γ_j(d)) > m·d` (any schedule of makespan `d` allots each job at
/// least `γ_j(d)` processors… its work is then at least `w_j(γ_j(d))` by work
/// monotonicity), or if some `γ_j(d)` is undefined. Returns the least
/// integer `d ≥ 1` that passes this test — a valid lower bound at least as
/// strong as [`trivial_lower_bound`], and the estimator's `ω` (raised to 1).
///
/// Convenience wrapper over [`parametric_lower_bound_view`] (the search
/// probes `γ` heavily, so it runs on a [`JobView`] snapshot).
pub fn parametric_lower_bound(inst: &Instance) -> Time {
    parametric_lower_bound_view(&JobView::build(inst))
}

/// Sum of sequential times — a safe upper bound on OPT (run everything on one
/// machine back to back), saturating at `Time::MAX`.
pub fn upper_bound_seq(inst: &Instance) -> Time {
    saturate(inst.total_seq_time())
}

/// [`upper_bound_seq`] from a [`JobView`] — `O(n)` over the cached
/// sequential times, no oracle calls.
pub fn upper_bound_seq_view(view: &JobView) -> Time {
    saturate(view.total_seq_time())
}

fn saturate(total: u128) -> Time {
    total.min(Time::MAX as u128) as Time
}

/// [`parametric_lower_bound`] through a prebuilt [`JobView`]: `ω` of
/// [`least_fitting_threshold`], at least 1 (also for empty instances).
pub fn parametric_lower_bound_view(view: &JobView) -> Time {
    least_fitting_threshold(view).0.max(1)
}

/// One job's γ bracket in [`least_fitting_threshold`]: its γ positions at
/// both ends of the search interval `(lo, hi]`, and at the current probe.
struct Bracket {
    job: JobId,
    at_hi: u64,
    at_lo: u64,
    at_tau: u64,
    work: Work,
}

/// The least integer `τ` at which the canonical allotment fits:
/// every `γ_j(τ)` is defined and `W(γ(τ)) = Σ_j w_j(γ_j(τ)) ≤ m·τ` —
/// together with that allotment `γ(τ)`. This `τ` is the estimator's `ω`
/// (Section 3) and the [`parametric_lower_bound`]. Empty instances give
/// `(0, [])`; panics if `ω` exceeds `Time::MAX`.
///
/// For monotone jobs the predicate is monotone in `τ`, and so is each
/// `γ_j(τ)`: it only shrinks as `τ` grows. The search exploits both.
///
/// * It starts at the trivial bound `L = max(max_j t_j(m), ⌈Σ_j t_j(1)/m⌉)`
///   (the predicate is false below it) and gallops by doubling until a
///   probe fits, then bisects the interval `(lo, hi]`.
/// * Each job keeps its γ positions at `lo` and `hi`; `γ_j(τ)` for `τ` in
///   between lies in that bracket, so a probe searches only inside it
///   ([`JobView::gamma_position_in`]).
/// * A job whose bracket has closed has the same γ over the whole interval:
///   its work moves into a running sum and later probes skip it.
/// * Once every job has settled, `W` is a constant over `(lo, hi]` and the
///   crossing is the closed form `max(lo + 1, ⌈W/m⌉)`.
///
/// As the interval shrinks, fewer jobs have a breakpoint inside it, so on
/// the benchmark families the whole search costs one to two γ-plus-work
/// passes over the jobs instead of one full pass per bisection step.
pub fn least_fitting_threshold(view: &JobView) -> (Time, Vec<Procs>) {
    let n = view.n();
    let m = view.m() as Work;
    let total = view.total_seq_time();
    let critical = (0..n as JobId).map(|j| view.min_time(j)).max().unwrap_or(0);
    let trivial = (critical as Work).max(total.div_ceil(m));
    let mut allotment: Vec<Procs> = vec![1; n];
    if trivial == 0 {
        // Every time is zero: γ(0) is one processor per job, and it fits.
        return (0, allotment);
    }
    let trivial = Time::try_from(trivial).expect("ω exceeds the time range");
    let mut active: Vec<Bracket> = (0..n as JobId)
        .map(|job| {
            let (first, last) = view.gamma_positions(job);
            Bracket {
                job,
                at_hi: first,
                at_lo: last,
                at_tau: first,
                work: 0,
            }
        })
        .collect();
    let mut settled_work: Work = 0;
    // The predicate is false at lo = L − 1. At hi = Σ_j t_j(1) (saturated)
    // every job runs on one processor — its first position — and the
    // predicate holds there unless the sum saturated.
    let mut lo = trivial - 1;
    let mut hi = saturate(total);
    let mut hi_fits = total <= Time::MAX as Work;
    let mut galloping = true;
    let mut tau = trivial;
    loop {
        let mut work = settled_work;
        for b in active.iter_mut() {
            b.at_tau = view.gamma_position_in(b.job, tau, b.at_hi, b.at_lo);
            b.work = view.position_work(b.job, b.at_tau);
            work += b.work;
        }
        let fits = work <= m * tau as Work;
        if fits {
            (hi, hi_fits, galloping) = (tau, true, false);
        } else {
            lo = tau;
        }
        active.retain_mut(|b| {
            if fits {
                b.at_hi = b.at_tau;
            } else {
                b.at_lo = b.at_tau;
            }
            if b.at_hi != b.at_lo {
                return true;
            }
            settled_work += b.work;
            allotment[b.job as usize] = view.position_procs(b.job, b.at_tau);
            false
        });
        if active.is_empty() {
            // γ is constant over (lo, hi] — and beyond hi too if hi was
            // never probed, since every job then sits on one processor.
            let crossing = (lo as Work + 1).max(settled_work.div_ceil(m));
            let omega = Time::try_from(crossing).expect("ω exceeds the time range");
            return (omega, allotment);
        }
        if hi_fits && hi - lo <= 1 {
            break;
        }
        tau = if galloping && (!hi_fits || lo < hi / 2) {
            lo.saturating_mul(2).min(hi)
        } else {
            lo + (hi - lo) / 2
        };
    }
    for b in &active {
        allotment[b.job as usize] = view.position_procs(b.job, b.at_hi);
    }
    (hi, allotment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::gamma;
    use crate::speedup::SpeedupCurve;

    fn two_constant_jobs() -> Instance {
        Instance::new(
            vec![SpeedupCurve::Constant(4), SpeedupCurve::Constant(6)],
            2,
        )
    }

    #[test]
    fn trivial_bounds() {
        let inst = two_constant_jobs();
        assert_eq!(critical_path_bound(&inst), 6);
        assert_eq!(area_bound(&inst), 5);
        assert_eq!(trivial_lower_bound(&inst), 6);
        assert_eq!(upper_bound_seq(&inst), 10);
    }

    #[test]
    fn parametric_at_least_trivial() {
        let inst = two_constant_jobs();
        let p = parametric_lower_bound(&inst);
        assert!(p >= trivial_lower_bound(&inst));
        // Here OPT = 6 (run in parallel), and the parametric bound reaches it:
        assert_eq!(p, 6);
    }

    #[test]
    fn parametric_bound_is_sound_on_tables() {
        use crate::speedup::monotone_closure;
        use std::sync::Arc;
        // OPT of [10,6,4] + [8,8,8] on m=3: the parametric bound must not
        // exceed any feasible makespan; the all-parallel schedule proves
        // OPT ≤ ... just check bound ≤ seq upper bound and ≥ trivial.
        let mut t1 = vec![10, 6, 4];
        let mut t2 = vec![8, 8, 8];
        monotone_closure(&mut t1);
        monotone_closure(&mut t2);
        let inst = Instance::new(
            vec![
                SpeedupCurve::Table(Arc::new(t1)),
                SpeedupCurve::Table(Arc::new(t2)),
            ],
            3,
        );
        let p = parametric_lower_bound(&inst);
        assert!(p >= trivial_lower_bound(&inst));
        assert!(p <= upper_bound_seq(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3);
        assert_eq!(trivial_lower_bound(&inst), 0);
        assert_eq!(parametric_lower_bound(&inst), 1); // smallest feasible probe
    }

    #[test]
    fn view_bounds_agree_with_oracle_bounds() {
        use crate::speedup::monotone_closure;
        use std::sync::Arc;
        let mut seed = 0x0DDB_A11D_0DDB_A11Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let m = next() % 12 + 1;
            let n = (next() % 7 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> = (0..m as usize).map(|_| next() % 40 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let view = JobView::build(&inst);
            assert_eq!(upper_bound_seq_view(&view), upper_bound_seq(&inst));
            // The view path must agree with a direct oracle re-derivation.
            let oracle_parametric = {
                let feasible = |d: Time| -> bool {
                    let thr = Ratio::from(d);
                    let mut total: Work = 0;
                    for j in inst.jobs() {
                        match gamma(j, &thr, inst.m()) {
                            None => return false,
                            Some(p) => total += j.work(p),
                        }
                    }
                    total <= (inst.m() as Work) * (d as Work)
                };
                let (mut lo, mut hi) = (0u64, upper_bound_seq(&inst).max(1));
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if feasible(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            };
            assert_eq!(parametric_lower_bound_view(&view), oracle_parametric);
            assert!(parametric_lower_bound(&inst) >= trivial_lower_bound(&inst));
        }
    }
}
