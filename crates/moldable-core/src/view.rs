//! [`JobView`] — a flat, struct-of-arrays snapshot of an [`Instance`].
//!
//! Every algorithm in the paper touches jobs through two primitives: the
//! processing time `t_j(p)` and the canonical allotment `γ_j(t)`. The
//! oracle model charges one call per `t_j(p)` evaluation, and the curve
//! types behind [`SpeedupCurve`] answer each call through an enum match
//! (or an `Arc<dyn SpeedupModel>` indirection for custom oracles), so the
//! hot paths of `transform`/`assemble` pay that dispatch on every touch —
//! and `γ_j(t)` pays it `O(log m)` times per query.
//!
//! A `JobView` materializes each job's *staircase of useful breakpoints*
//! once: the Pareto front `(p_i, t_i)` where the processing time strictly
//! drops, stored as CSR-style flat arrays shared by all jobs. After the
//! build,
//!
//! * `time(j, p)` is one binary search over the job's breakpoint row
//!   (`O(log k)` for `k` breakpoints, no oracle calls),
//! * `gamma(j, t)` is one binary search over the *times* row — the
//!   `O(log m)`-oracle-call workhorse of the paper collapses to an
//!   `O(log k)` array lookup,
//! * `seq_time`/`min_time`/`is_small` are `O(1)` reads.
//!
//! The build itself is oracle-frugal — and deliberately selective,
//! because memoization only pays where queries currently *search*:
//!
//! * compactly encoded curves ([`SpeedupCurve::Constant`],
//!   [`SpeedupCurve::Table`], [`SpeedupCurve::Staircase`],
//!   [`SpeedupCurve::AffineDecreasing`]) are read out structurally with
//!   **zero** oracle calls;
//! * [`SpeedupCurve::Custom`] oracles are probed with `O(k log m)` calls
//!   via breakpoint-hopping binary search (capped at
//!   [`PROBE_STEP_CAP`] breakpoints);
//! * [`SpeedupCurve::IdealWithOverhead`] is **never** materialized: its
//!   closed form already evaluates in `O(1)` with no memory traffic, so
//!   a breakpoint row (up to `√t₁` entries per job) would cost
//!   `O(k log m)` probes to build and then *lose* on cache misses.
//!
//! Jobs whose breakpoint count exceeds [`MAX_MATERIALIZED_STEPS`] fall
//! back to per-query oracle dispatch — semantics are identical either
//! way, only the constant factor differs. [`JobView::passthrough`] builds
//! a view in which *every* job takes that fallback: benchmarks use it as
//! the faithful stand-in for the pre-memoization oracle path, and the
//! equivalence test-suite pins materialized == passthrough byte for byte.
//!
//! The build cost is recorded in [`JobView::build_oracle_calls`]; tests
//! verify the budget with [`crate::oracle::counting_instance`] — and that
//! serving queries afterwards performs **zero** oracle calls.

use crate::gamma::time_le;
use crate::instance::Instance;
use crate::ratio::Ratio;
use crate::speedup::SpeedupCurve;
use crate::types::{JobId, Procs, Time, Work};

/// Per-job breakpoint cap for materialization. A job whose staircase has
/// more useful breakpoints than this is served through the oracle
/// fallback instead (correct, just not array-backed). The cap bounds the
/// view's memory.
pub const MAX_MATERIALIZED_STEPS: usize = 4096;

/// Probing cap for [`SpeedupCurve::Custom`] oracles: each discovered
/// breakpoint costs `O(log m)` oracle calls, so an opaque curve is only
/// hopped through while its staircase stays this small; beyond it the
/// job falls back to per-query dispatch (bounding wasted probes at
/// `PROBE_STEP_CAP · log m`).
pub const PROBE_STEP_CAP: usize = 512;

/// A flat snapshot of an instance: materialized job staircases plus
/// oracle fallbacks for jobs too exotic to materialize.
///
/// ```
/// use moldable_core::{Instance, JobView, Ratio, SpeedupCurve};
///
/// let inst = Instance::new(
///     vec![SpeedupCurve::ideal_with_overhead(1 << 16, 1, 256)],
///     256,
/// );
/// let view = JobView::build(&inst);
/// // Same answers as the oracle path, now array lookups:
/// assert_eq!(view.time(0, 17), inst.time(0, 17));
/// let p = view.gamma(0, &Ratio::from(700u64)).unwrap();
/// assert!(view.time(0, p) <= 700);
/// assert!(p == 1 || view.time(0, p - 1) > 700); // minimality
/// ```
#[derive(Clone, Debug)]
pub struct JobView {
    m: Procs,
    /// CSR offsets: job `j`'s breakpoints live at `offsets[j]..offsets[j+1]`.
    offsets: Vec<usize>,
    /// Breakpoint start processor counts, strictly increasing per job,
    /// first entry of each row is `p = 1`.
    procs: Vec<Procs>,
    /// Times on each step, strictly decreasing per job.
    times: Vec<Time>,
    /// `t_j(1)` per job (also for fallback jobs — `O(1)` `is_small`).
    seq_times: Vec<Time>,
    /// `t_j(m)` per job (gamma's reachability precheck).
    min_times: Vec<Time>,
    /// `Some(curve)` for jobs served through the oracle fallback.
    fallback: Vec<Option<SpeedupCurve>>,
    build_oracle_calls: u64,
}

impl JobView {
    /// Snapshot `inst`, materializing every job whose staircase fits in
    /// [`MAX_MATERIALIZED_STEPS`] breakpoints.
    pub fn build(inst: &Instance) -> JobView {
        Self::build_inner(inst, true)
    }

    /// Snapshot `inst` with **no** materialization: every query goes
    /// through the curve oracle, exactly like the pre-view code path.
    /// This exists for benchmarks (the before/after comparison) and for
    /// equivalence tests; production callers want [`JobView::build`].
    pub fn passthrough(inst: &Instance) -> JobView {
        Self::build_inner(inst, false)
    }

    fn build_inner(inst: &Instance, materialize: bool) -> JobView {
        let m = inst.m();
        let n = inst.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut procs: Vec<Procs> = Vec::new();
        let mut times: Vec<Time> = Vec::new();
        let mut seq_times = Vec::with_capacity(n);
        let mut min_times = Vec::with_capacity(n);
        let mut fallback: Vec<Option<SpeedupCurve>> = Vec::with_capacity(n);
        let mut calls: u64 = 0;
        offsets.push(0);
        for job in inst.jobs() {
            let curve = job.curve();
            let steps = if materialize {
                extract_steps(curve, m, &mut calls)
            } else {
                None
            };
            match steps {
                Some(steps) => {
                    debug_assert!(!steps.is_empty() && steps[0].0 == 1);
                    seq_times.push(steps[0].1);
                    min_times.push(steps.last().unwrap().1);
                    for (p, t) in steps {
                        procs.push(p);
                        times.push(t);
                    }
                    fallback.push(None);
                }
                None => {
                    seq_times.push(curve.time(1));
                    min_times.push(curve.time(m));
                    calls += 2;
                    fallback.push(Some(curve.clone()));
                }
            }
            offsets.push(procs.len());
        }
        JobView {
            m,
            offsets,
            procs,
            times,
            seq_times,
            min_times,
            fallback,
            build_oracle_calls: calls,
        }
    }

    /// Number of jobs.
    #[inline]
    pub fn n(&self) -> usize {
        self.seq_times.len()
    }

    /// Machine count of the snapshotted instance.
    #[inline]
    pub fn m(&self) -> Procs {
        self.m
    }

    /// Oracle calls spent building the view (0 for purely compact
    /// encodings; `O(k log m)` per probed opaque curve).
    #[inline]
    pub fn build_oracle_calls(&self) -> u64 {
        self.build_oracle_calls
    }

    /// Is job `j` served from the flat arrays (vs. the oracle fallback)?
    #[inline]
    pub fn is_materialized(&self, j: JobId) -> bool {
        self.fallback[j as usize].is_none()
    }

    /// The materialized breakpoint row of job `j` (`(procs, times)`
    /// slices), or `None` for fallback jobs. The processor counts are
    /// exactly the job's *useful* counts — the Pareto front the exact
    /// solver enumerates.
    #[inline]
    pub fn steps(&self, j: JobId) -> Option<(&[Procs], &[Time])> {
        if !self.is_materialized(j) {
            return None;
        }
        let (lo, hi) = (self.offsets[j as usize], self.offsets[j as usize + 1]);
        Some((&self.procs[lo..hi], &self.times[lo..hi]))
    }

    /// `t_j(p)` for `1 ≤ p ≤ m`.
    #[inline]
    pub fn time(&self, j: JobId, p: Procs) -> Time {
        debug_assert!(p >= 1 && p <= self.m);
        if let Some(curve) = &self.fallback[j as usize] {
            return curve.time(p);
        }
        let (lo, hi) = (self.offsets[j as usize], self.offsets[j as usize + 1]);
        let row = &self.procs[lo..hi];
        let idx = row.partition_point(|&q| q <= p);
        self.times[lo + idx - 1]
    }

    /// Work `w_j(p) = p · t_j(p)`.
    #[inline]
    pub fn work(&self, j: JobId, p: Procs) -> Work {
        (p as Work) * (self.time(j, p) as Work)
    }

    /// `t_j(1)` — `O(1)`.
    #[inline]
    pub fn seq_time(&self, j: JobId) -> Time {
        self.seq_times[j as usize]
    }

    /// `t_j(m)` — `O(1)`.
    #[inline]
    pub fn min_time(&self, j: JobId) -> Time {
        self.min_times[j as usize]
    }

    /// Is job `j` *small* for target `d`, i.e. `t_j(1) ≤ d/2`
    /// (Section 4.1)? `O(1)` — no oracle call, unlike
    /// [`crate::job::Job::is_small`].
    #[inline]
    pub fn is_small(&self, j: JobId, d: &Ratio) -> bool {
        Ratio::from_int(2 * self.seq_times[j as usize] as u128) <= *d
    }

    /// `γ_j(threshold)`: the least `p ∈ [1, m]` with `t_j(p) ≤ threshold`,
    /// or `None` if unreachable. One `O(log k)` binary search over the
    /// times row — zero oracle calls for materialized jobs.
    pub fn gamma(&self, j: JobId, threshold: &Ratio) -> Option<Procs> {
        if !time_le(self.min_times[j as usize], threshold) {
            return None;
        }
        if let Some(curve) = &self.fallback[j as usize] {
            return crate::gamma::gamma_curve(curve, threshold, self.m);
        }
        let (lo, hi) = (self.offsets[j as usize], self.offsets[j as usize + 1]);
        let row = &self.times[lo..hi];
        // Times are strictly decreasing: find the first step meeting the
        // threshold; its start count is minimal because times are constant
        // within a step.
        let idx = row.partition_point(|&t| !time_le(t, threshold));
        debug_assert!(idx < row.len(), "min_times precheck guarantees a hit");
        Some(self.procs[lo + idx])
    }

    /// `γ_j(t)` for an integral threshold — the hottest γ shape.
    /// Processing times are integers, so `γ_j(x) = γ_j(⌊x⌋)` for any
    /// rational `x`; callers that can floor their threshold get a binary
    /// search of pure `u64` comparisons (no rational arithmetic at all).
    #[inline]
    pub fn gamma_int(&self, j: JobId, threshold: Time) -> Option<Procs> {
        if self.min_times[j as usize] > threshold {
            return None;
        }
        if let Some(curve) = &self.fallback[j as usize] {
            return crate::gamma::gamma_curve(curve, &Ratio::from(threshold), self.m);
        }
        let (lo, hi) = (self.offsets[j as usize], self.offsets[j as usize + 1]);
        let row = &self.times[lo..hi];
        let idx = row.partition_point(|&t| t > threshold);
        debug_assert!(idx < row.len(), "min_times precheck guarantees a hit");
        Some(self.procs[lo + idx])
    }

    /// First and last *γ position* of job `j`. Positions index the
    /// staircase a γ search walks: row indices `0..k` of a materialized
    /// job, processor counts `1..=m` of a fallback job. Thresholds only
    /// move a job's γ position one way: the first position is `γ_j(t_j(1))`
    /// (one processor), the last is `γ_j(t_j(m))`.
    #[inline]
    pub fn gamma_positions(&self, j: JobId) -> (u64, u64) {
        if self.fallback[j as usize].is_some() {
            return (1, self.m);
        }
        let (lo, hi) = (self.offsets[j as usize], self.offsets[j as usize + 1]);
        (0, (hi - lo - 1) as u64)
    }

    /// The bracketed γ search: the least position in `[a, b)` whose time
    /// is at most `threshold`, or `b` if there is none. Callers keep
    /// `γ_j(threshold)` inside `[a, b]` — for instance `a` = the position
    /// at a larger threshold and `b` = the position at a smaller one —
    /// and then the answer is `γ_j(threshold)`'s position, found in
    /// `O(log (b − a))` steps.
    #[inline]
    pub fn gamma_position_in(&self, j: JobId, threshold: Time, a: u64, b: u64) -> u64 {
        debug_assert!(a <= b);
        if let Some(curve) = &self.fallback[j as usize] {
            let (mut lo, mut hi) = (a, b);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if curve.time(mid) <= threshold {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            return lo;
        }
        let off = self.offsets[j as usize];
        let row = &self.times[off + a as usize..off + b as usize];
        a + row.partition_point(|&t| t > threshold) as u64
    }

    /// Processor count at γ position `pos` of job `j` (see
    /// [`JobView::gamma_positions`]).
    #[inline]
    pub fn position_procs(&self, j: JobId, pos: u64) -> Procs {
        if self.fallback[j as usize].is_some() {
            return pos;
        }
        self.procs[self.offsets[j as usize] + pos as usize]
    }

    /// Work at γ position `pos` of job `j`.
    #[inline]
    pub fn position_work(&self, j: JobId, pos: u64) -> Work {
        if let Some(curve) = &self.fallback[j as usize] {
            return (pos as Work) * (curve.time(pos) as Work);
        }
        let i = self.offsets[j as usize] + pos as usize;
        (self.procs[i] as Work) * (self.times[i] as Work)
    }

    /// Largest sequential time, `max_j t_j(1)` — `O(n)` array scan.
    pub fn max_seq_time(&self) -> Time {
        self.seq_times.iter().copied().max().unwrap_or(0)
    }

    /// Sum of sequential times — makespan of the trivial one-machine
    /// schedule, an upper bound on OPT. `O(n)` array scan.
    pub fn total_seq_time(&self) -> u128 {
        self.seq_times.iter().map(|&t| t as u128).sum()
    }
}

/// Structurally read out (or probe) the useful breakpoints of `curve`
/// over `1..=m`. Returns `None` when the staircase exceeds
/// [`MAX_MATERIALIZED_STEPS`].
fn extract_steps(
    curve: &SpeedupCurve,
    m: Procs,
    calls: &mut u64,
) -> Option<Vec<(Procs, Time)>> {
    match curve {
        SpeedupCurve::Constant(t) => Some(vec![(1, *t)]),
        SpeedupCurve::Table(tbl) => {
            let upto = tbl.len().min(m as usize);
            let mut steps = vec![(1, tbl[0])];
            for (i, &t) in tbl[..upto].iter().enumerate().skip(1) {
                if t < steps.last().unwrap().1 {
                    steps.push((i as Procs + 1, t));
                }
            }
            (steps.len() <= MAX_MATERIALIZED_STEPS).then_some(steps)
        }
        SpeedupCurve::Staircase(s) => {
            let steps: Vec<(Procs, Time)> = s
                .steps()
                .iter()
                .copied()
                .take_while(|&(p, _)| p <= m)
                .collect();
            (steps.len() <= MAX_MATERIALIZED_STEPS).then_some(steps)
        }
        SpeedupCurve::AffineDecreasing { base } => {
            // Every count is a breakpoint: t(p) = base − p + 1.
            if m as usize > MAX_MATERIALIZED_STEPS {
                return None;
            }
            Some((1..=m).map(|p| (p, base - p + 1)).collect())
        }
        // Closed-form in O(1) with zero memory traffic: a breakpoint row
        // (≈ √t₁ entries) would cost k·log m probes to build and then be
        // slower to query than just evaluating. Serve from the oracle.
        SpeedupCurve::IdealWithOverhead { .. } => None,
        SpeedupCurve::Custom(_) => probe_steps(curve, m, calls),
    }
}

/// Enumerate breakpoints of an opaque non-increasing curve by hopping:
/// from the current step `(p, t)`, binary-search the least `p' > p` with
/// `t(p') < t`. `O(k log m)` oracle calls for `k` breakpoints.
fn probe_steps(curve: &SpeedupCurve, m: Procs, calls: &mut u64) -> Option<Vec<(Procs, Time)>> {
    let t1 = curve.time(1);
    *calls += 1;
    let mut steps = vec![(1, t1)];
    if m == 1 {
        return Some(steps);
    }
    let t_m = curve.time(m);
    *calls += 1;
    loop {
        let &(p_cur, t_cur) = steps.last().unwrap();
        if t_cur <= t_m {
            break;
        }
        // Invariant: time(lo) == t_cur > time(hi); shrink to the jump.
        let (mut lo, mut hi) = (p_cur, m);
        let mut t_hi = t_m;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let t_mid = curve.time(mid);
            *calls += 1;
            if t_mid < t_cur {
                hi = mid;
                t_hi = t_mid;
            } else {
                lo = mid;
            }
        }
        steps.push((hi, t_hi));
        if steps.len() > PROBE_STEP_CAP {
            return None;
        }
    }
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::gamma;
    use crate::oracle::counting_instance;
    use crate::speedup::{monotone_closure, Staircase};
    use std::sync::Arc;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn random_table_instance(seed: &mut u64, max_m: u64, max_n: u64) -> Instance {
        let m = xorshift(seed) % max_m + 1;
        let n = (xorshift(seed) % max_n + 1) as usize;
        let curves: Vec<SpeedupCurve> = (0..n)
            .map(|_| {
                let mut tbl: Vec<u64> =
                    (0..m as usize).map(|_| xorshift(seed) % 50 + 1).collect();
                monotone_closure(&mut tbl);
                SpeedupCurve::Table(Arc::new(tbl))
            })
            .collect();
        Instance::new(curves, m)
    }

    #[test]
    fn agrees_with_oracle_on_random_tables() {
        let mut seed = 0x1EE7_BEEF_1EE7_BEEFu64;
        for _ in 0..60 {
            let inst = random_table_instance(&mut seed, 24, 6);
            let view = JobView::build(&inst);
            let pass = JobView::passthrough(&inst);
            assert_eq!(view.n(), inst.n());
            assert_eq!(view.m(), inst.m());
            for j in 0..inst.n() as JobId {
                assert!(view.is_materialized(j));
                assert!(!pass.is_materialized(j));
                assert_eq!(view.seq_time(j), inst.job(j).seq_time());
                assert_eq!(view.min_time(j), inst.time(j, inst.m()));
                for p in 1..=inst.m() {
                    assert_eq!(view.time(j, p), inst.time(j, p));
                    assert_eq!(pass.time(j, p), inst.time(j, p));
                    assert_eq!(view.work(j, p), inst.job(j).work(p));
                }
                for thr in 0..=52u64 {
                    let r = Ratio::from(thr);
                    let want = gamma(inst.job(j), &r, inst.m());
                    assert_eq!(view.gamma(j, &r), want);
                    assert_eq!(pass.gamma(j, &r), want);
                    assert_eq!(view.gamma_int(j, thr), want);
                }
            }
        }
    }

    #[test]
    fn build_is_oracle_free_for_compact_encodings() {
        let t0: Time = 1 << 30;
        let p1: Procs = 1 << 10;
        let t1 = Staircase::min_feasible_time(p1, t0);
        let s = Staircase::new(vec![(1, t0), (p1, t1)]).unwrap();
        let inst = Instance::new(
            vec![
                SpeedupCurve::Constant(7),
                SpeedupCurve::Table(Arc::new(vec![10, 6, 4])),
                SpeedupCurve::Staircase(Arc::new(s)),
            ],
            1 << 20,
        );
        let (counted, counter) = counting_instance(&inst);
        let view = JobView::build(&counted);
        // Compact encodings are wrapped in Custom by counting_instance, so
        // they go through probing here — but on the *raw* instance the
        // structural readout must spend zero calls.
        let raw = JobView::build(&inst);
        assert_eq!(raw.build_oracle_calls(), 0);
        // Queries after the build never touch the oracle.
        counter.reset();
        for j in 0..3 {
            let _ = view.time(j, 1 << 19);
            let _ = view.gamma_int(j, 8);
            let _ = view.is_small(j, &Ratio::from(100u64));
        }
        assert_eq!(
            counter.calls(),
            0,
            "materialized queries must be oracle-free"
        );
    }

    #[test]
    fn probe_budget_is_k_log_m() {
        // Custom oracle with k breakpoints over m = 2^20: the build must
        // stay within O(k log m) calls.
        let t0: Time = 1 << 40;
        let p1: Procs = 1 << 7;
        let t1 = Staircase::min_feasible_time(p1, t0);
        let p2: Procs = 1 << 14;
        let t2 = Staircase::min_feasible_time(p2, t1);
        let s = Staircase::new(vec![(1, t0), (p1, t1), (p2, t2)]).unwrap();
        let inst = Instance::new(vec![SpeedupCurve::Staircase(Arc::new(s))], 1 << 20);
        let (counted, counter) = counting_instance(&inst);
        let view = JobView::build(&counted);
        let k = 3u64;
        let log_m = 20u64;
        assert!(view.is_materialized(0));
        let budget = (k + 1) * (log_m + 2) + 2;
        assert!(
            counter.calls() <= budget,
            "build used {} oracle calls, budget {budget}",
            counter.calls()
        );
        assert_eq!(counter.calls(), view.build_oracle_calls());
        // And the probed view answers exactly like the original.
        for p in [1, p1 - 1, p1, p1 + 1, p2 - 1, p2, 1 << 20] {
            assert_eq!(view.time(0, p), inst.time(0, p));
        }
    }

    #[test]
    fn oversized_staircases_fall_back() {
        // AffineDecreasing over m > MAX_MATERIALIZED_STEPS has one
        // breakpoint per count: must fall back, and still be correct.
        let m = (MAX_MATERIALIZED_STEPS as u64) * 4;
        let base = 4 * m;
        let inst = Instance::new(vec![SpeedupCurve::AffineDecreasing { base }], m);
        let view = JobView::build(&inst);
        assert!(!view.is_materialized(0));
        assert!(view.steps(0).is_none());
        assert_eq!(view.time(0, m / 2), inst.time(0, m / 2));
        assert_eq!(
            view.gamma_int(0, base - 10),
            gamma(inst.job(0), &Ratio::from(base - 10), m)
        );
        assert_eq!(view.seq_time(0), base);
        assert_eq!(view.min_time(0), base - m + 1);
    }

    #[test]
    fn steps_are_the_pareto_front() {
        // Table with flat regions: steps must skip them (useful counts).
        let inst = Instance::new(
            vec![SpeedupCurve::Table(Arc::new(vec![10, 10, 6, 6, 5]))],
            5,
        );
        let view = JobView::build(&inst);
        let (procs, times) = view.steps(0).unwrap();
        assert_eq!(procs, &[1, 3, 5]);
        assert_eq!(times, &[10, 6, 5]);
    }

    #[test]
    fn ideal_with_overhead_serves_from_its_closed_form() {
        // Closed-form curves deliberately stay on the oracle (already
        // O(1); a row would be √t₁ entries) — answers must still match.
        let inst = Instance::new(
            vec![SpeedupCurve::ideal_with_overhead(1 << 16, 2, 1 << 9)],
            1 << 9,
        );
        let view = JobView::build(&inst);
        assert!(!view.is_materialized(0));
        assert_eq!(view.build_oracle_calls(), 2); // seq + min time only
        for p in 1..=(1u64 << 9) {
            assert_eq!(view.time(0, p), inst.time(0, p), "p = {p}");
        }
        for thr in [1u64, 100, 300, 600, 1000, 70000] {
            assert_eq!(
                view.gamma_int(0, thr),
                gamma(inst.job(0), &Ratio::from(thr), 1 << 9)
            );
        }
    }

    #[test]
    fn custom_probing_respects_its_cap() {
        // A Custom oracle whose staircase has more than PROBE_STEP_CAP
        // breakpoints must fall back without spending unbounded probes.
        #[derive(Debug)]
        struct Affine(Time);
        impl crate::speedup::SpeedupModel for Affine {
            fn time(&self, p: Procs) -> Time {
                self.0 - p + 1
            }
        }
        let m = (PROBE_STEP_CAP as u64) * 4;
        let inst = Instance::new(vec![SpeedupCurve::Custom(Arc::new(Affine(8 * m)))], m);
        let view = JobView::build(&inst);
        assert!(!view.is_materialized(0));
        // Probe budget: at most (cap + 2) hops of ≤ log2(m)+2 calls each.
        let log_m = (64 - m.leading_zeros() as u64) + 2;
        assert!(view.build_oracle_calls() <= (PROBE_STEP_CAP as u64 + 2) * log_m + 4);
        assert_eq!(view.time(0, 7), inst.time(0, 7));
    }

    #[test]
    fn aggregate_bounds_match_instance() {
        let mut seed = 0xABCD_1234_ABCD_1234u64;
        let inst = random_table_instance(&mut seed, 9, 7);
        let view = JobView::build(&inst);
        assert_eq!(view.max_seq_time(), inst.max_seq_time());
        assert_eq!(view.total_seq_time(), inst.total_seq_time());
    }
}
