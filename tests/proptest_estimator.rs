//! Differential test of the Section 3 estimator against the plain integer
//! bisection it replaced: the bracketed search
//! ([`moldable::core::bounds::least_fitting_threshold`]) must return the
//! same `ω` and the same allotment as [`reference`] on every instance, and
//! the parametric lower bound must be `max(ω, 1)`.

use moldable::core::bounds::parametric_lower_bound_view;
use moldable::core::speedup::{monotone_closure, Staircase};
use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::estimate_view;
use moldable::workloads::{bench_instance, BenchFamily};
use proptest::prelude::*;
use std::sync::Arc;

/// The estimator as it was before bracketing, kept as a test oracle:
/// bisection on integer `τ` from `(0, Σ_j t_j(1)]`, recomputing every
/// `γ_j(τ)` with a full search at each step.
mod reference {
    use moldable::core::types::{JobId, Procs, Time, Work};
    use moldable::core::view::JobView;

    fn profile_at(view: &JobView, tau: Time) -> Option<(Vec<Procs>, Work)> {
        let mut allot = Vec::with_capacity(view.n());
        let mut work: Work = 0;
        for j in 0..view.n() as JobId {
            let p = view.gamma_int(j, tau)?;
            work += view.work(j, p);
            allot.push(p);
        }
        Some((allot, work))
    }

    pub fn estimate_view(view: &JobView) -> (Time, Vec<Procs>) {
        let m = view.m() as Work;
        let pred = |tau: Time| -> bool {
            match profile_at(view, tau) {
                None => false,
                Some((_, w)) => w.div_ceil(m) <= tau as Work,
            }
        };
        let total = view.total_seq_time();
        assert!(
            total <= Time::MAX as u128,
            "the reference needs Σ t_j(1) in range"
        );
        let mut hi = (total as Time).max(1);
        let mut lo: Time = 0;
        if pred(0) {
            return (0, profile_at(view, 0).unwrap().0);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (hi, profile_at(view, hi).unwrap().0)
    }
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// A monotone staircase over `1..=m` with up to `max_steps` breakpoints,
/// starting at `t1`: each step's time lies anywhere between the least
/// work-monotone time and one below the previous one.
fn random_staircase(seed: &mut u64, m: Procs, t1: Time, max_steps: usize) -> SpeedupCurve {
    let mut steps = vec![(1, t1)];
    let mut p: Procs = 1;
    while steps.len() < max_steps && p < m {
        let &(_, t_prev) = steps.last().unwrap();
        let gap = 1 + xorshift(seed) % (m - p).min(1 + 4 * p);
        p += gap;
        if t_prev < p {
            break;
        }
        let floor = Staircase::min_feasible_time(p, t_prev);
        if floor >= t_prev {
            break;
        }
        let t = floor + xorshift(seed) % (t_prev - floor);
        steps.push((p, t));
    }
    SpeedupCurve::Staircase(Arc::new(Staircase::new(steps).unwrap()))
}

/// One random job: table, staircase, constant (zero time included),
/// ideal-with-overhead (served by the oracle fallback) or affine (a
/// fallback once m exceeds the materialization cap).
fn random_curve(seed: &mut u64, m: Procs, t_bits: u32) -> SpeedupCurve {
    let t1 = 1 + xorshift(seed) % (1u64 << t_bits);
    match xorshift(seed) % 6 {
        0 => {
            let len = m.min(1 + xorshift(seed) % 64) as usize;
            let mut tbl: Vec<Time> = (0..len)
                .map(|_| 1 + xorshift(seed) % (1u64 << t_bits))
                .collect();
            tbl.sort_unstable_by(|a, b| b.cmp(a));
            monotone_closure(&mut tbl);
            SpeedupCurve::Table(Arc::new(tbl))
        }
        1 | 2 => {
            let max_steps = 1 + (xorshift(seed) % 400) as usize;
            random_staircase(seed, m, t1.max(2), max_steps)
        }
        3 => SpeedupCurve::Constant(if xorshift(seed).is_multiple_of(3) {
            0
        } else {
            t1
        }),
        4 => {
            let cap = 1 + xorshift(seed) % m.min(1 << 16);
            SpeedupCurve::ideal_with_overhead(t1.max(2), xorshift(seed) % 4, cap)
        }
        // Work-monotone while base ≥ 2m.
        _ => SpeedupCurve::AffineDecreasing { base: 2 * m + t1 },
    }
}

fn assert_matches_reference(view: &JobView) {
    let (omega, allotment) = reference::estimate_view(view);
    let got = estimate_view(view);
    prop_assert_eq!(got.omega, omega);
    prop_assert_eq!(got.allotment, allotment);
    prop_assert_eq!(parametric_lower_bound_view(view), omega.max(1));
}

const MACHINES: [Procs; 7] = [1, 2, 3, 7, 64, 1 << 20, 1 << 40];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random mixes of every curve kind, on materialized and passthrough
    /// views, with times up to 2⁴⁴ so brackets span many steps; a quarter
    /// of the cases make every job zero-time, so `ω = 0`.
    #[test]
    fn random_mixes_match_reference(
        m_idx in 0usize..7,
        n in 1usize..=24,
        t_bits in 1u32..=44,
        seed in 1u64..1 << 48,
        all_zero in 0u8..4,
        passthrough in 0u8..2,
    ) {
        let m = MACHINES[m_idx];
        let mut s = seed;
        let curves: Vec<SpeedupCurve> = (0..n)
            .map(|_| {
                if all_zero == 0 {
                    SpeedupCurve::Constant(0)
                } else {
                    random_curve(&mut s, m, t_bits)
                }
            })
            .collect();
        let inst = Instance::new(curves, m);
        let view = if passthrough == 1 {
            JobView::passthrough(&inst)
        } else {
            JobView::build(&inst)
        };
        assert_matches_reference(&view);
    }

    /// The benchmark families, on both view kinds.
    #[test]
    fn bench_families_match_reference(
        family_idx in 0usize..4,
        m_idx in 0usize..7,
        n in 1usize..=48,
        seed in 0u64..1 << 32,
        passthrough in 0u8..2,
    ) {
        let m = MACHINES[m_idx].min(1 << 30);
        let inst = bench_instance(BenchFamily::all()[family_idx], n, m, seed);
        let view = if passthrough == 1 {
            JobView::passthrough(&inst)
        } else {
            JobView::build(&inst)
        };
        assert_matches_reference(&view);
    }
}
