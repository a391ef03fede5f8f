//! Differential tests of the Section 4.3.1 rounding against the
//! rational-stepped profit grid it replaced: the integer profit grid
//! ([`igeom_up`]), whole or walked only up to a job's profit, is the same
//! sequence as the reference grid, and `round_knapsack_types` — which
//! walks the grid only as far as the largest profit it must round —
//! returns exactly the item types and job lists of [`reference`].

use moldable::core::compression::DoubleCompression;
use moldable::core::geom::igeom_up;
use moldable::core::speedup::monotone_closure;
use moldable::core::view::JobView;
use moldable::prelude::*;
use moldable::sched::rounding::{round_knapsack_types, RoundedTypes};
use moldable::sched::shelves::ShelfContext;
use moldable::workloads::{bench_instance, BenchFamily};
use proptest::prelude::*;
use std::sync::Arc;

/// The rounding as it was before integer stepping, kept as a test
/// oracle: the profit grid steps with `Ratio::mul_int` + `ceil` and a
/// rational compare per value, and is always built up to `bd/2`.
mod reference {
    use moldable::core::compression::{DoubleCompression, SizeClassGrid};
    use moldable::core::geom::rgeom;
    use moldable::core::ratio::Ratio;
    use moldable::core::types::{JobId, Time, Work};
    use moldable::core::view::JobView;
    use moldable::knapsack::bounded::ItemType;
    use moldable::sched::rounding::RoundedTypes;
    use moldable::sched::shelves::ShelfContext;
    use std::collections::BTreeMap;

    /// Integer "round-up" geometric grid: first value ≥ lo, factor x,
    /// covering hi.
    pub fn up_grid(lo: &Ratio, hi: &Ratio, x: &Ratio) -> Vec<u128> {
        let mut g = vec![lo.ceil().max(1)];
        while Ratio::from_int(*g.last().unwrap()) < *hi {
            let cur = *g.last().unwrap();
            let nxt = (x.mul_int(cur).ceil()).max(cur + 1);
            g.push(nxt);
        }
        g
    }

    fn round_up_int(v: u128, grid: &[u128]) -> u128 {
        let idx = grid.partition_point(|&g| g < v);
        if idx < grid.len() {
            grid[idx]
        } else {
            v
        }
    }

    /// `(δd/2, bd/2, 1+δ/b)`: the profit grid's bounds and step.
    pub fn profit_grid_params(dc: &DoubleCompression, d: Time) -> (Ratio, Ratio, Ratio) {
        let b = dc.b() as u128;
        (
            dc.delta().mul_int(d as u128).div_int(2),
            Ratio::from_int(b).mul_int(d as u128).div_int(2),
            dc.delta().div_int(b).one_plus(),
        )
    }

    pub fn round_knapsack_types(
        view: &JobView,
        ctx: &ShelfContext,
        dc: &DoubleCompression,
        d: Time,
    ) -> RoundedTypes {
        let b = dc.b();
        let d_ratio = Ratio::from(d);
        let half_d = d_ratio.div_int(2);
        let sizes = SizeClassGrid::build(dc, view.m());
        let stretch = dc.rho().mul_int(4).one_plus();
        let time_grid_d = rgeom(&d_ratio.div_int(2), &d_ratio, &stretch);
        let time_grid_half = rgeom(&d_ratio.div_int(4), &half_d, &stretch);
        let round_time = |t: Time, grid: &[Ratio]| -> Ratio {
            let v = Ratio::from(t);
            let idx = grid.partition_point(|g| *g <= v);
            if idx == 0 {
                grid[0]
            } else {
                grid[idx - 1]
            }
        };
        let (profit_lo, profit_hi, x) = profit_grid_params(dc, d);
        let profit_grid = up_grid(&profit_lo, &profit_hi, &x);

        let mut groups: BTreeMap<(u64, Work, bool), Vec<JobId>> = BTreeMap::new();
        for bj in &ctx.knapsack_jobs {
            let gamma_half = bj.gamma_half_d.expect("knapsack jobs have γ(d/2)");
            let size = sizes.round_down(bj.gamma_d);
            let compressible = bj.gamma_d >= b;
            let rounded_half = sizes.round_down(gamma_half);
            let profit: Work = if rounded_half < b {
                if Ratio::from_int(bj.profit) < profit_lo {
                    0
                } else {
                    round_up_int(bj.profit, &profit_grid)
                }
            } else {
                let t_d = round_time(view.time(bj.id, bj.gamma_d), &time_grid_d);
                let t_half = round_time(view.time(bj.id, gamma_half), &time_grid_half);
                let saved_half = t_half.mul_int(rounded_half as u128);
                let saved_d = t_d.mul_int(size as u128);
                if saved_half > saved_d {
                    saved_half.sub(&saved_d).floor()
                } else {
                    0
                }
            };
            groups
                .entry((size, profit, compressible))
                .or_default()
                .push(bj.id);
        }
        let types: Vec<ItemType> = groups
            .iter()
            .enumerate()
            .map(|(i, (&(size, profit, compressible), jobs))| ItemType {
                type_id: i as u32,
                size,
                profit,
                count: jobs.len() as u64,
                compressible,
            })
            .collect();
        RoundedTypes {
            types,
            jobs_by_type: groups.into_values().collect(),
        }
    }
}

/// Double-compression parameters for `ε = 1/k` (δ = ε/5, as Algorithm 3).
fn dc_for(k: u128) -> DoubleCompression {
    DoubleCompression::for_delta(Ratio::new(1, 5 * k))
}

/// Near-linear tables `t(p) = ⌈w/p⌉ + s` with log-uniform work `w`, so
/// the few heaviest jobs get allotments far above `b` at targets near the
/// estimate (wide in S2) while the rest stay narrow.
fn skewed_instance(n: usize, m: u64, seed: u64) -> Instance {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let curves = (0..n)
        .map(|_| {
            let w = 1 + next() % (1u64 << (next() % 25));
            let s = next() % (w / 64 + 1);
            let mut t: Vec<u64> = (1..=m).map(|p| w.div_ceil(p) + s).collect();
            monotone_closure(&mut t);
            SpeedupCurve::Table(Arc::new(t))
        })
        .collect();
    Instance::new(curves, m)
}

type TypeRow = (u32, u64, u128, u64, bool);

fn type_rows(rt: &RoundedTypes) -> Vec<TypeRow> {
    rt.types
        .iter()
        .map(|t| (t.type_id, t.size, t.profit, t.count, t.compressible))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The integer grid from `⌈lo⌉` to `⌈hi⌉` is the reference grid, and
    /// walking it only up to some `t ≤ hi` gives the reference's prefix
    /// ending at its first value `≥ t`.
    #[test]
    fn profit_grid_matches_reference(
        k_idx in 0usize..4,
        lo_bits in 0u32..40,
        lo_raw in 0u128..1 << 40,
        lo_den in 1u128..64,
        span in 0u128..=16,
        cut in 0u128..=16,
    ) {
        let dc = dc_for([1, 2, 4, 10][k_idx]);
        let x = dc.delta().div_int(dc.b() as u128).one_plus();
        // Log-uniform lo, so the +1 burn-in steps near 1 are covered too.
        let lo = Ratio::new(1 + lo_raw % (1 << lo_bits), lo_den);
        // lo ≤ hi ≤ max(3lo, lo + 16): at most ~17k steps at ε = 1/10.
        let hi = lo.add(&Ratio::from_int((lo.ceil() / 8).max(1) * span));
        let want = reference::up_grid(&lo, &hi, &x);
        let start = lo.ceil().max(1);
        prop_assert_eq!(igeom_up(start, hi.ceil(), &x), want.clone());
        let top = start + (hi.ceil() - start) * cut / 16;
        let got = igeom_up(start, top, &x);
        let end = want.partition_point(|&g| g < top).min(want.len() - 1);
        prop_assert_eq!(&got[..], &want[..=end]);
    }

    /// `round_knapsack_types` against the reference on instances with
    /// m < 16n, at targets around the estimate, with narrow-in-S2
    /// profits moved onto the grid's edges: `⌈δd/2⌉` and one below it,
    /// the grid's top and one below it, above `bd/2` (where rounding keeps
    /// the profit exact), and capped one above an inner grid value.
    #[test]
    fn round_knapsack_types_matches_reference(
        k_idx in 0usize..3,
        family_idx in 0usize..8,
        n in 2usize..=24,
        m_frac in 0u64..1000,
        seed in 0u64..1 << 32,
        d_frac in 0u64..1000,
        edits in prop::collection::vec((0usize..64, 0u8..6), 0..6),
    ) {
        let m = 1 + m_frac * (16 * n as u64 - 2).min(511) / 999;
        let inst = match BenchFamily::all().get(family_idx) {
            Some(&family) => bench_instance(family, n, m, seed),
            None => skewed_instance(n, m, seed),
        };
        let view = JobView::build(&inst);
        let omega = estimate(&inst).omega;
        // d ∈ [ω/2, 2ω]: rejections, knapsack-heavy and small-heavy probes.
        let d = (omega / 2 + omega * 3 * d_frac / 1998).max(1);
        let Some(mut ctx) = ShelfContext::build(&view, d) else {
            return;
        };
        let dc = dc_for([1, 2, 4][k_idx]);
        let b = dc.b();
        let (lo, hi, x) = reference::profit_grid_params(&dc, d);
        let grid = reference::up_grid(&lo, &hi, &x);
        let grid_top = *grid.last().unwrap();
        let narrow: Vec<usize> = (0..ctx.knapsack_jobs.len())
            .filter(|&i| ctx.knapsack_jobs[i].gamma_half_d.is_some_and(|g| g < b))
            .collect();
        if !narrow.is_empty() {
            for &(pick, edge) in &edits {
                if edge == 5 {
                    // Cap every narrow profit one above a grid value, so the
                    // largest one (where the walk stops) falls between two
                    // grid values.
                    let cap = grid[pick * (grid.len() - 1) / 63] + 1;
                    for &i in &narrow {
                        let profit = &mut ctx.knapsack_jobs[i].profit;
                        *profit = (*profit).min(cap);
                    }
                }
                let job = &mut ctx.knapsack_jobs[narrow[pick % narrow.len()]];
                job.profit = match edge {
                    0 => lo.ceil(),
                    1 => lo.ceil().saturating_sub(1),
                    2 => grid_top,
                    3 => grid_top - 1,
                    4 => hi.ceil() + 1 + seed as u128 % 1000,
                    _ => grid[pick * (grid.len() - 1) / 63] + 1,
                };
            }
        }
        let got = round_knapsack_types(&view, &ctx, &dc, d);
        let want = reference::round_knapsack_types(&view, &ctx, &dc, d);
        prop_assert_eq!(type_rows(&got), type_rows(&want));
        prop_assert_eq!(got.jobs_by_type, want.jobs_by_type);
    }
}
