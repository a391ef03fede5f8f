//! Placements: which *concrete* processors a job holds, and when.
//!
//! The paper's algorithms emit allotments (`job → processor count`); a
//! launchable schedule needs `job → (time interval, processor set)`.
//! [`Placement`] is that layer: one [`PlacedJob`] per job, each holding
//! a [`ProcSet`] for a half-open time interval `[start, end)`.
//! [`Placement::validate`] checks the machine-level invariants —
//! every set non-empty and inside `0..m`, and no processor held by two
//! jobs at the same instant — by an event sweep that mirrors the demand
//! sweep of the schedule validator, with [`PlacementError::Overlap`]
//! reporting the violating interval, the machine count, and the
//! conflicting processor sets (the same witness shape as the schedule
//! validator's overcommit report).
//!
//! The sweep keeps the processors held at the current instant as an
//! ordered map from each held range's low end to its high end. Held
//! ranges are pairwise disjoint (the sweep stops at the first clash),
//! so for a range `[lo, hi]` of a starting job the last held range
//! starting at or below `hi` is the only one that can reach `lo`: a
//! start costs one predecessor lookup and one insert per range of its
//! set, an end one removal per range. For `n` jobs holding `R` ranges
//! in total the sweep costs O(n log n + R log R), whatever the number
//! of jobs running at once; the overlap witness is built only on the
//! failing path.
//!
//! Consistency with a *schedule* (intervals and set sizes matching the
//! assignments) is checked one crate up, where durations live.

use crate::procset::ProcSet;
use crate::ratio::Ratio;
use crate::types::JobId;
use std::collections::BTreeMap;

/// One job's concrete placement: the processors it holds over
/// `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacedJob {
    /// The job.
    pub job: JobId,
    /// Start of the interval.
    pub start: Ratio,
    /// End of the interval (exclusive).
    pub end: Ratio,
    /// The processors held for the whole interval.
    pub procs: ProcSet,
}

/// A full placement: one [`PlacedJob`] per job of the schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    /// Placed jobs, in no particular order.
    pub jobs: Vec<PlacedJob>,
}

/// Number of conflicting jobs reported in [`PlacementError::Overlap`]
/// (widest sets first), mirroring the schedule validator's
/// overcommit-witness cap.
pub const OVERLAP_WITNESSES: usize = 8;

/// Why a placement is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// A placed job's processor set is empty.
    EmptySet {
        /// The offending job.
        job: JobId,
    },
    /// A placed job holds a processor outside `0..m`.
    OutOfRange {
        /// The offending job.
        job: JobId,
        /// Its highest processor index.
        hi: u64,
        /// The machine count it violates.
        m: u64,
    },
    /// A placed job's interval is empty or inverted (`end ≤ start`).
    EmptyInterval {
        /// The offending job.
        job: JobId,
        /// Interval start.
        start: Ratio,
        /// Interval end.
        end: Ratio,
    },
    /// A job's set size disagrees with its allotment.
    SizeMismatch {
        /// The offending job.
        job: JobId,
        /// Processors the placement gives it.
        placed: u64,
        /// Processors the schedule allots it.
        allotment: u64,
    },
    /// A placed job's interval disagrees with its assignment (boxed
    /// detail — four `Ratio`s — keeps the error itself small).
    IntervalMismatch(Box<PlacementIntervalMismatch>),
    /// An assignment has no placement row.
    MissingJob {
        /// The unplaced job.
        job: JobId,
    },
    /// A placement row names a job with no assignment (or a duplicate).
    UnknownJob {
        /// The unmatched job.
        job: JobId,
    },
    /// A job required to be contiguous holds a fragmented set.
    NotContiguous {
        /// The offending job.
        job: JobId,
        /// Its fragmented processor set.
        procs: ProcSet,
    },
    /// Two or more jobs hold a common processor over some interval
    /// (boxed report keeps the `Result` small on the non-error path).
    Overlap(Box<PlacementOverlap>),
}

/// The detail behind [`PlacementError::IntervalMismatch`]: the interval
/// a row claims versus the one its assignment implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementIntervalMismatch {
    /// The offending job.
    pub job: JobId,
    /// Interval start in the placement.
    pub start: Ratio,
    /// Interval end in the placement.
    pub end: Ratio,
    /// Start the assignment implies.
    pub expected_start: Ratio,
    /// End the assignment implies (start + duration).
    pub expected_end: Ratio,
}

/// The detailed report behind [`PlacementError::Overlap`]: the violating
/// interval, the machine count, and the conflicting processor sets —
/// the same shape as the schedule validator's overcommit report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementOverlap {
    /// Start of the conflicting interval (the violating event).
    pub at: Ratio,
    /// End of the interval (the next event), when known.
    pub until: Option<Ratio>,
    /// The machine count the placement runs on.
    pub m: u64,
    /// The conflicting placements over the interval, as
    /// `(job, processor set)` pairs — at most [`OVERLAP_WITNESSES`] of
    /// them, widest sets first.
    pub jobs: Vec<(JobId, ProcSet)>,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::EmptySet { job } => {
                write!(f, "job {job} placed on an empty processor set")
            }
            PlacementError::OutOfRange { job, hi, m } => {
                write!(f, "job {job} placed on processor {hi} (m = {m})")
            }
            PlacementError::EmptyInterval { job, start, end } => {
                write!(
                    f,
                    "job {job} placed over the empty interval [{start}, {end})"
                )
            }
            PlacementError::SizeMismatch {
                job,
                placed,
                allotment,
            } => write!(
                f,
                "job {job} placed on {placed} processors but allotted {allotment}"
            ),
            PlacementError::IntervalMismatch(detail) => {
                let PlacementIntervalMismatch {
                    job,
                    start,
                    end,
                    expected_start,
                    expected_end,
                } = detail.as_ref();
                write!(
                    f,
                    "job {job} placed over [{start}, {end}) but scheduled over \
                     [{expected_start}, {expected_end})"
                )
            }
            PlacementError::MissingJob { job } => {
                write!(f, "job {job} is scheduled but not placed")
            }
            PlacementError::UnknownJob { job } => {
                write!(f, "placement row for job {job} matches no assignment")
            }
            PlacementError::NotContiguous { job, procs } => {
                write!(f, "job {job} placed on fragmented processors {procs}")
            }
            PlacementError::Overlap(report) => {
                let PlacementOverlap { at, until, m, jobs } = report.as_ref();
                write!(f, "processors double-booked over [{at}, ")?;
                match until {
                    Some(u) => write!(f, "{u})")?,
                    None => write!(f, "…)")?,
                }
                write!(f, " on m = {m}; conflicting placements:")?;
                for (job, procs) in jobs {
                    write!(f, " {job}@{procs}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// Empty placement.
    pub fn new() -> Self {
        Placement::default()
    }

    /// Add one placed job.
    pub fn push(&mut self, job: JobId, start: Ratio, end: Ratio, procs: ProcSet) {
        self.jobs.push(PlacedJob {
            job,
            start,
            end,
            procs,
        });
    }

    /// The placed job with id `job`, if any.
    pub fn get(&self, job: JobId) -> Option<&PlacedJob> {
        self.jobs.iter().find(|p| p.job == job)
    }

    /// Validate the machine-level invariants on `m` processors: every
    /// set non-empty and inside `0..m`, every interval non-empty, and no
    /// processor held by two jobs at any instant (event sweep, ends
    /// before starts at equal times — half-open intervals).
    pub fn validate(&self, m: u64) -> Result<(), PlacementError> {
        for p in &self.jobs {
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
        // Sweep over start and end events; see the module doc for the
        // ordered map of held ranges.
        let mut events: Vec<(Ratio, i8, usize)> = Vec::with_capacity(self.jobs.len() * 2);
        for (i, p) in self.jobs.iter().enumerate() {
            events.push((p.start, 1, i));
            events.push((p.end, -1, i));
        }
        events.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        let mut held: BTreeMap<u64, u64> = BTreeMap::new();
        for (e, &(_, kind, idx)) in events.iter().enumerate() {
            let ranges = self.jobs[idx].procs.ranges();
            if kind < 0 {
                for (lo, _) in ranges {
                    held.remove(lo);
                }
                continue;
            }
            for &(lo, hi) in ranges {
                let clash = held
                    .range(..=hi)
                    .next_back()
                    .is_some_and(|(_, &held_hi)| held_hi >= lo);
                if clash {
                    return Err(self.overlap(&events, e, m));
                }
                held.insert(lo, hi);
            }
        }
        Ok(())
    }

    /// The [`PlacementError::Overlap`] report for the start event
    /// `events[e]`, which clashes with a job running before it: the jobs
    /// whose start precedes `e` and whose end does not, kept in start
    /// order and filtered to those sharing a processor with the new job,
    /// then ranked widest first.
    fn overlap(&self, events: &[(Ratio, i8, usize)], e: usize, m: u64) -> PlacementError {
        let (at, _, idx) = events[e];
        let p = &self.jobs[idx];
        let until = events[e + 1..].iter().map(|&(t, _, _)| t).find(|t| *t > at);
        let mut ended = vec![false; self.jobs.len()];
        for &(_, kind, i) in &events[..e] {
            if kind < 0 {
                ended[i] = true;
            }
        }
        let mut jobs: Vec<(JobId, ProcSet)> = events[..e]
            .iter()
            .filter(|&&(_, kind, i)| kind > 0 && !ended[i])
            .map(|&(_, _, i)| &self.jobs[i])
            .filter(|q| !q.procs.is_disjoint(&p.procs))
            .map(|q| (q.job, q.procs.clone()))
            .collect();
        jobs.push((p.job, p.procs.clone()));
        jobs.sort_by_key(|(job, procs)| (std::cmp::Reverse(procs.size()), *job));
        jobs.truncate(OVERLAP_WITNESSES);
        PlacementError::Overlap(Box::new(PlacementOverlap { at, until, m, jobs }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(job: JobId, start: u64, end: u64, lo: u64, hi: u64) -> PlacedJob {
        PlacedJob {
            job,
            start: Ratio::from(start),
            end: Ratio::from(end),
            procs: ProcSet::range(lo, hi),
        }
    }

    #[test]
    fn accepts_disjoint_and_back_to_back() {
        let pl = Placement {
            jobs: vec![
                placed(0, 0, 4, 0, 1),
                placed(1, 0, 4, 2, 3),
                // Same processors as job 0, but only after it ends.
                placed(2, 4, 6, 0, 1),
            ],
        };
        assert_eq!(pl.validate(4), Ok(()));
    }

    #[test]
    fn rejects_double_booking_with_witnesses() {
        let pl = Placement {
            jobs: vec![placed(0, 0, 10, 0, 2), placed(1, 3, 5, 2, 3)],
        };
        match pl.validate(4) {
            Err(PlacementError::Overlap(report)) => {
                assert_eq!(report.at, Ratio::from(3u64));
                assert_eq!(report.until, Some(Ratio::from(5u64)));
                assert_eq!(report.m, 4);
                // Widest first: job 0 holds three processors, job 1 two.
                assert_eq!(report.jobs[0].0, 0);
                assert_eq!(report.jobs[1].0, 1);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn clash_on_the_second_range_of_a_fragmented_set() {
        // Job 1's first range is free; its second hits job 0's set.
        let pl = Placement {
            jobs: vec![
                placed(0, 0, 4, 6, 7),
                PlacedJob {
                    job: 1,
                    start: Ratio::from(1u64),
                    end: Ratio::from(3u64),
                    procs: ProcSet::from_ranges([(0, 1), (5, 6)]),
                },
            ],
        };
        match pl.validate(8) {
            Err(PlacementError::Overlap(report)) => {
                assert_eq!(report.at, Ratio::from(1u64));
                assert_eq!(report.until, Some(Ratio::from(3u64)));
                assert_eq!(
                    report.jobs,
                    vec![
                        (1, ProcSet::from_ranges([(0, 1), (5, 6)])),
                        (0, ProcSet::range(6, 7)),
                    ]
                );
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn touching_ranges_do_not_clash() {
        // `hi + 1 == lo` on both sides of job 1's range, and a
        // fragmented set interleaved with both neighbours.
        let pl = Placement {
            jobs: vec![
                placed(0, 0, 4, 0, 2),
                placed(1, 0, 4, 3, 5),
                placed(2, 1, 3, 6, 6),
                PlacedJob {
                    job: 3,
                    start: Ratio::from(2u64),
                    end: Ratio::from(6u64),
                    procs: ProcSet::from_ranges([(7, 7), (9, 9)]),
                },
                placed(4, 2, 5, 8, 8),
            ],
        };
        assert_eq!(pl.validate(10), Ok(()));
    }

    #[test]
    fn ends_sort_before_starts_whatever_the_row_order() {
        // The job starting at 4 is listed before the one ending at 4 on
        // the same processors, and a third reuses them at 6.
        let pl = Placement {
            jobs: vec![
                placed(1, 4, 6, 0, 3),
                placed(0, 0, 4, 0, 3),
                placed(2, 6, 7, 2, 5),
            ],
        };
        assert_eq!(pl.validate(6), Ok(()));
    }

    #[test]
    fn rejects_out_of_range_and_empty() {
        let pl = Placement {
            jobs: vec![placed(0, 0, 1, 2, 5)],
        };
        assert_eq!(
            pl.validate(4),
            Err(PlacementError::OutOfRange {
                job: 0,
                hi: 5,
                m: 4
            })
        );
        let empty = Placement {
            jobs: vec![PlacedJob {
                job: 3,
                start: Ratio::zero(),
                end: Ratio::one(),
                procs: ProcSet::new(),
            }],
        };
        assert_eq!(empty.validate(4), Err(PlacementError::EmptySet { job: 3 }));
        let inverted = Placement {
            jobs: vec![placed(1, 5, 5, 0, 0)],
        };
        assert!(matches!(
            inverted.validate(4),
            Err(PlacementError::EmptyInterval { job: 1, .. })
        ));
    }

    #[test]
    fn every_variant_displays_its_context() {
        // The Display forms travel verbatim through the CLI and the
        // service `{"error": …}` bodies; pin each variant's content.
        let cases: Vec<(PlacementError, &[&str])> = vec![
            (PlacementError::EmptySet { job: 7 }, &["job 7", "empty"]),
            (
                PlacementError::OutOfRange {
                    job: 1,
                    hi: 9,
                    m: 8,
                },
                &["job 1", "processor 9", "m = 8"],
            ),
            (
                PlacementError::EmptyInterval {
                    job: 2,
                    start: Ratio::from(3u64),
                    end: Ratio::from(3u64),
                },
                &["job 2", "[3, 3)"],
            ),
            (
                PlacementError::SizeMismatch {
                    job: 4,
                    placed: 2,
                    allotment: 5,
                },
                &["job 4", "2 processors", "allotted 5"],
            ),
            (
                PlacementError::IntervalMismatch(Box::new(PlacementIntervalMismatch {
                    job: 6,
                    start: Ratio::zero(),
                    end: Ratio::one(),
                    expected_start: Ratio::zero(),
                    expected_end: Ratio::from(2u64),
                })),
                &["job 6", "[0, 1)", "[0, 2)"],
            ),
            (
                PlacementError::MissingJob { job: 9 },
                &["job 9", "not placed"],
            ),
            (
                PlacementError::UnknownJob { job: 11 },
                &["job 11", "no assignment"],
            ),
            (
                PlacementError::NotContiguous {
                    job: 5,
                    procs: ProcSet::from_ranges([(0, 1), (4, 4)]),
                },
                &["job 5", "0-1,4"],
            ),
            (
                PlacementError::Overlap(Box::new(PlacementOverlap {
                    at: Ratio::from(2u64),
                    until: None,
                    m: 16,
                    jobs: vec![(0, ProcSet::range(0, 3)), (2, ProcSet::range(3, 4))],
                })),
                &["[2, …)", "m = 16", "0@0-3", "2@3-4"],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(msg.contains(needle), "`{msg}` misses `{needle}`");
            }
        }
    }
}
