//! Property-based tests of the `ProcSet` algebra: the union/intersect/
//! subtract identities every placement argument silently leans on,
//! De Morgan duality through complement-in-`full(m)`, `take_first`'s
//! size contract, and the `Display`/`FromStr` round trip.

use moldable::core::procset::ProcSet;
use proptest::prelude::*;

const M: u64 = 96;

/// Arbitrary subsets of `[0, M)`, built from raw (possibly overlapping,
/// unsorted) range fragments so normalization is part of what's tested.
fn procset() -> impl Strategy<Value = ProcSet> {
    prop::collection::vec((0u64..M, 0u64..12), 0..8).prop_map(|frags| {
        let ranges: Vec<(u64, u64)> = frags
            .into_iter()
            .map(|(lo, len)| (lo, (lo + len).min(M - 1)))
            .collect();
        ProcSet::from_ranges(ranges)
    })
}

/// Reference model: the same set as a sorted membership list.
fn members(s: &ProcSet) -> Vec<u64> {
    s.ranges().iter().flat_map(|&(lo, hi)| lo..=hi).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Idempotence and the empty/full identities.
    #[test]
    fn union_intersect_subtract_identities(a in procset()) {
        let empty = ProcSet::new();
        let full = ProcSet::full(M);
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
        prop_assert_eq!(a.subtract(&a), empty.clone());
        prop_assert_eq!(a.union(&empty), a.clone());
        prop_assert_eq!(a.intersect(&empty), empty.clone());
        prop_assert_eq!(a.subtract(&empty), a.clone());
        prop_assert_eq!(a.intersect(&full), a.clone());
        prop_assert_eq!(full.subtract(&full.subtract(&a)), a.clone());
    }

    /// The three operations agree with the brute-force membership model,
    /// and the partition law `(a − b) ∪ (a ∩ b) = a` holds.
    #[test]
    fn operations_match_the_membership_model(a in procset(), b in procset()) {
        use std::collections::BTreeSet;
        let (ma, mb): (BTreeSet<u64>, BTreeSet<u64>) =
            (members(&a).into_iter().collect(), members(&b).into_iter().collect());
        prop_assert_eq!(
            members(&a.union(&b)),
            ma.union(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            members(&a.intersect(&b)),
            ma.intersection(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            members(&a.subtract(&b)),
            ma.difference(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert!(a.subtract(&b).is_disjoint(&b));
        prop_assert_eq!(a.is_disjoint(&b), ma.is_disjoint(&mb));
        prop_assert_eq!(a.subtract(&b).union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    /// De Morgan duality, with complement spelled as subtraction from
    /// the full machine: `¬(a ∪ b) = ¬a ∩ ¬b` and `¬(a ∩ b) = ¬a ∪ ¬b`.
    #[test]
    fn de_morgan_via_complement_in_full(a in procset(), b in procset()) {
        let full = ProcSet::full(M);
        let not = |s: &ProcSet| full.subtract(s);
        prop_assert_eq!(not(&a.union(&b)), not(&a).intersect(&not(&b)));
        prop_assert_eq!(not(&a.intersect(&b)), not(&a).union(&not(&b)));
    }

    /// `take_first(k)` returns exactly `k` processors, all drawn from
    /// the set, and fails exactly when the set is too small.
    #[test]
    fn take_first_takes_exactly_k(a in procset(), k in 0u64..=M) {
        match a.take_first(k) {
            Some(taken) => {
                prop_assert!(k <= a.size());
                prop_assert_eq!(taken.size(), k);
                prop_assert!(a.is_superset(&taken));
                // "First": nothing in the set precedes the taken prefix.
                if let (Some(lo), Some(hi)) = (a.min(), taken.max()) {
                    prop_assert_eq!(a.intersect(&ProcSet::range(lo, hi)), taken);
                }
            }
            None => prop_assert!(k > a.size()),
        }
    }

    /// `Display` → `FromStr` is the identity on every normalized set.
    #[test]
    fn display_from_str_roundtrip(a in procset()) {
        let text = a.to_string();
        let back: ProcSet = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(back, a);
    }
}
