//! Section 4.3.1 rounding, shared by the knapsack-based solvers.
//!
//! Both Algorithm 3 ([`crate::improved`]) and the compression+convolution
//! solver ([`crate::conv_fptas`]) reduce the shelf-S1 selection to a
//! knapsack over *item types*: jobs whose rounded size, rounded profit and
//! compressibility coincide are interchangeable (Lemma 19 accounts for the
//! rounding error at assembly). This module holds the single
//! implementation of that reduction so the two solvers round identically
//! by construction:
//!
//! * processor counts round **down** onto the
//!   [`SizeClassGrid`]
//!   (exact below `b`, geometric `1+ρ` steps above);
//! * times of jobs wide in a shelf round **down** onto
//!   `geom(s/2, s, 1+4ρ)` per shelf height `s ∈ {d, d/2}` (Lemma 17);
//! * profits of jobs narrow in both shelves round to `0` (below `δd/2`)
//!   or **up** onto `geom(δd/2, bd/2, 1+δ/b)`.
//!
//! Per-probe cost: one pass over the knapsack jobs, plus the profit grid
//! walked in integer steps ([`igeom_up`]: one multiply and one division
//! per value, no rational arithmetic per grid value) only up to the
//! largest profit of a job narrow in S2. The whole grid has
//! `O((b/δ)·log(b/δ))` values (≈ 18,860 at ε = 1/4); the time and size
//! grids have `O(1/δ)` and `O(log m/ρ)`.

use crate::shelves::ShelfContext;
use moldable_core::compression::{DoubleCompression, SizeClassGrid};
use moldable_core::geom::{igeom_up, rgeom};
use moldable_core::ratio::Ratio;
use moldable_core::types::{JobId, Time, Work};
use moldable_core::view::JobView;
use moldable_knapsack::bounded::ItemType;
use std::collections::BTreeMap;

/// The rounded knapsack instance: item types plus, per type, the concrete
/// jobs that rounded onto it (any `count` of them are interchangeable).
#[derive(Clone, Debug)]
pub struct RoundedTypes {
    /// One entry per distinct `(size, profit, compressible)` class.
    pub types: Vec<ItemType>,
    /// `jobs_by_type[i]` lists the jobs of `types[i]`
    /// (`types[i].count == jobs_by_type[i].len()`).
    pub jobs_by_type: Vec<Vec<JobId>>,
}

/// Smallest grid value ≥ v (grids from [`igeom_up`] always cover their
/// range; extend defensively if v exceeds the top).
fn round_up_int(v: u128, grid: &[u128]) -> u128 {
    let idx = grid.partition_point(|&g| g < v);
    if idx < grid.len() {
        grid[idx]
    } else {
        v // beyond the analyzed range — keep exact (defensive)
    }
}

/// Round the knapsack jobs of `ctx` (classified at target `d`) to item
/// types under `dc`'s parameters.
pub fn round_knapsack_types(
    view: &JobView,
    ctx: &ShelfContext,
    dc: &DoubleCompression,
    d: Time,
) -> RoundedTypes {
    let b = dc.b();
    let rho = dc.rho();
    let delta = dc.delta();
    let d_ratio = Ratio::from(d);
    let half_d = d_ratio.div_int(2);

    // Rounding grids (Section 4.3.1).
    let sizes = SizeClassGrid::build(dc, view.m());
    let stretch = rho.mul_int(4).one_plus(); // 1 + 4ρ
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
    // Profits are integers, so v < δd/2 ⇔ v < ⌈δd/2⌉, and the grid
    // geom(δd/2, bd/2, 1+δ/b) steps in integers from ⌈δd/2⌉ to the first
    // value ≥ ⌈bd/2⌉. Only jobs narrow in S2 (γ(d/2) < b, which the size
    // rounding keeps exact) round onto it, so walk it only as far as the
    // largest of their profits: the prefix gives every lookup the same
    // answer as the whole grid.
    let profit_lo = delta.mul_int(d as u128).div_int(2).ceil(); // ⌈δd/2⌉
    let profit_hi = (b as u128 * d as u128).div_ceil(2); // ⌈bd/2⌉
    let narrow_top = ctx
        .knapsack_jobs
        .iter()
        .filter(|bj| bj.gamma_half_d.is_some_and(|g| g < b))
        .map(|bj| bj.profit)
        .max()
        .unwrap_or(0);
    let profit_grid = igeom_up(
        profit_lo.max(1),
        profit_hi.min(narrow_top),
        &delta.div_int(b as u128).one_plus(),
    );

    // Round every knapsack job to a type.
    let mut groups: BTreeMap<(u64, Work, bool), Vec<JobId>> = BTreeMap::new();
    for bj in &ctx.knapsack_jobs {
        let gamma_half = bj.gamma_half_d.expect("knapsack jobs have γ(d/2)");
        let size = sizes.round_down(bj.gamma_d);
        let compressible = bj.gamma_d >= b;
        let rounded_half = sizes.round_down(gamma_half);
        let profit: Work = if rounded_half < b {
            // Narrow in S2: round the original profit.
            if bj.profit < profit_lo {
                0
            } else {
                round_up_int(bj.profit, &profit_grid)
            }
        } else {
            // Wide in S2: saved work according to rounded values.
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
    let jobs_by_type: Vec<Vec<JobId>> = groups.into_values().collect();
    RoundedTypes {
        types,
        jobs_by_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_core::instance::Instance;
    use moldable_core::speedup::{monotone_closure, SpeedupCurve};
    use std::sync::Arc;

    #[test]
    fn types_partition_the_knapsack_jobs() {
        let mut seed = 0x5EED_0F20_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let dc = DoubleCompression::for_delta(Ratio::new(1, 5));
        for _ in 0..30 {
            let m = next() % 20 + 1;
            let n = (next() % 10 + 1) as usize;
            let curves: Vec<SpeedupCurve> = (0..n)
                .map(|_| {
                    let mut tbl: Vec<u64> = (0..m as usize).map(|_| next() % 50 + 1).collect();
                    monotone_closure(&mut tbl);
                    SpeedupCurve::Table(Arc::new(tbl))
                })
                .collect();
            let inst = Instance::new(curves, m);
            let view = JobView::build(&inst);
            let d = next() % 60 + 2;
            let Some(ctx) = ShelfContext::build(&view, d) else {
                continue;
            };
            let rt = round_knapsack_types(&view, &ctx, &dc, d);
            assert_eq!(rt.types.len(), rt.jobs_by_type.len());
            let mut seen: Vec<JobId> = rt.jobs_by_type.concat();
            seen.sort_unstable();
            let mut expect: Vec<JobId> = ctx.knapsack_jobs.iter().map(|b| b.id).collect();
            expect.sort_unstable();
            assert_eq!(seen, expect, "types must partition the knapsack jobs");
            for (t, jobs) in rt.types.iter().zip(&rt.jobs_by_type) {
                assert_eq!(t.count as usize, jobs.len());
                assert!(t.size >= 1);
            }
        }
    }
}
