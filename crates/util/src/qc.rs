//! Deterministic randomized-testing runner replacing `proptest`.
//!
//! A property is a closure over a seeded [`StdRng`]; [`run`] executes it
//! for N independently-seeded cases and, when a case fails, reports the
//! exact seed so the failure replays in isolation:
//!
//! ```text
//! PARGCN_QC_SEED=0xdeadbeef cargo test -p pargcn-matrix failing_test
//! ```
//!
//! There is no shrinking — instead every case is cheap and the failing
//! seed is printed, which in practice localises bugs as fast for the
//! algebraic invariants this workspace checks. Unlike proptest there is
//! also no persistence file: the case seeds are a pure function of the
//! base seed, so CI and local runs explore the identical sequence.

use crate::rng::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default number of cases, overridable with `PARGCN_QC_CASES`.
pub const DEFAULT_CASES: usize = 64;

/// Derives the RNG seed for case `i` of a run with base seed `base`
/// (SplitMix64 finalizer, so neighbouring cases are uncorrelated).
fn case_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Runs `property` for `cases` seeded cases (assert inside the closure as
/// in any test). `PARGCN_QC_CASES` overrides the count; `PARGCN_QC_SEED`
/// replays one exact seed instead of the sweep.
pub fn run(cases: usize, property: impl Fn(&mut StdRng)) {
    if let Some(seed) = env_u64("PARGCN_QC_SEED") {
        let mut rng = StdRng::seed_from_u64(seed);
        property(&mut rng);
        return;
    }
    let cases = env_u64("PARGCN_QC_CASES")
        .map(|n| n as usize)
        .unwrap_or(cases);
    let base = env_u64("PARGCN_QC_BASE").unwrap_or(0x5EED_CAFE);
    for i in 0..cases {
        let seed = case_seed(base, i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!(
                "qc: case {i}/{cases} failed with seed {seed:#x}; \
                 replay with PARGCN_QC_SEED={seed:#x}"
            );
            resume_unwind(payload);
        }
    }
}

/// [`run`] with [`DEFAULT_CASES`].
pub fn check(property: impl Fn(&mut StdRng)) {
    run(DEFAULT_CASES, property);
}

/// Random vector with a length drawn uniformly from `len_range`.
pub fn sized_vec_of<T>(
    rng: &mut StdRng,
    len_range: std::ops::Range<usize>,
    mut gen: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(len_range);
    (0..len).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_passing_property_completes() {
        run(16, |rng| {
            let v = rng.gen_range(0..10u32);
            assert!(v < 10);
        });
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run(8, |rng| {
                let v: u64 = rng.gen_range(0..1_000_000);
                assert!(!v.is_multiple_of(7), "hit a multiple of 7: {v}");
            });
        }));
        assert!(result.is_err(), "property violation must propagate");
    }

    #[test]
    fn case_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| case_seed(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn sized_vec_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = sized_vec_of(&mut rng, 2..9, |r| r.gen_range(0..5u32));
            assert!((2..9).contains(&v.len()));
        }
    }
}
