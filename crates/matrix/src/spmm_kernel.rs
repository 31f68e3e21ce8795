//! SpMM on SIMD lanes: one lean row loop per column span.
//!
//! The naive SpMM loop, which [`crate::ComputeCtx::spmm_into`] runs
//! without lanes, is a scalar row-wise axpy: every nonzero re-reads and
//! re-writes the whole `d`-wide output row from memory. The lanes ([`crate::lanes`], 16- or 8-float registers) instead
//! hold an output row's span of up to 64 columns in registers across the
//! row's entire nonzero loop, so the output row is loaded and stored once
//! per span instead of once per nonzero, and each `H` row the nonzeros
//! gather is read once per span. The GCN feature widths up to 64 take
//! one span, so one pass over each row's nonzeros; the last register of
//! a span whose width is not a multiple of the lanes' is part-width,
//! through masked loads and stores. The row loop calls no closure and
//! checks no bound per nonzero: the `Csr` invariant (every column below
//! `n_cols`) keeps each `H` row it reads inside `H`.
//!
//! **Bitwise contract**: splitting a row's `d` output columns into spans
//! and registers never regroups any sums — each output element still
//! accumulates its nonzero terms in ascending CSR order with a single
//! accumulator, which is exactly the naive kernel's order. The lanes ≡
//! naive bit-for-bit on every input, at every thread count and at both
//! widths (see DESIGN.md §10).

use crate::csr::Csr;
use crate::dense::{run_rows, Dense};
use crate::lanes::Lanes;
use pargcn_util::pool::{weighted_chunks, Pool};

/// `out (+)= a × h` on the lanes, its rows split across the pool by
/// [`run_rows`] with [`weighted_chunks`] like the naive pooled kernel.
pub(crate) fn spmm_into(
    l: Lanes,
    a: &Csr,
    h: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pool: &Pool,
) {
    assert_eq!(a.n_cols(), h.rows(), "spmm dimension mismatch");
    assert_eq!(out.rows(), a.n_rows(), "spmm output rows mismatch");
    assert_eq!(out.cols(), h.cols(), "spmm output cols mismatch");
    let d = h.cols();
    let split = |t| weighted_chunks(a.indptr(), t);
    run_rows(
        Some(pool),
        a.nnz() * d,
        out.data_mut(),
        d,
        split,
        |rows, out| l.spmm_rows(a, rows.start, rows.len(), h, out, accumulate),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr;
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    fn random_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for i in 0..rows {
            for _ in 0..per_row {
                let c = rng.gen_range(0..cols.max(1)) as u32;
                triplets.push((i as u32, c, rng.gen_range(-1.0..=1.0)));
            }
        }
        Csr::from_coo(rows, cols, triplets)
    }

    #[test]
    fn blocked_spmm_matches_naive_bitwise() {
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(1);
        let mut rng = StdRng::seed_from_u64(9);
        for (rows, cols, d) in [
            (40, 30, 16),
            (17, 23, 5),
            (8, 8, 33),
            (3, 50, 1),
            (9, 12, 112),
        ] {
            let a = random_csr(rows, cols, 4, rows as u64);
            let h = Dense::random(cols, d, &mut rng);
            let mut naive = Dense::zeros(rows, d);
            csr::spmm_rows(&a, &h, &mut naive, false, None);
            // Accumulating path, seeded with a sum-reachable value.
            let mut naive_acc = naive.clone();
            csr::spmm_rows(&a, &h, &mut naive_acc, true, None);
            let mut blocked = Dense::zeros(rows, d);
            spmm_into(l, &a, &h, &mut blocked, false, &pool);
            assert_eq!(bits(&naive), bits(&blocked), "{rows}x{cols} d={d}");
            spmm_into(l, &a, &h, &mut blocked, true, &pool);
            assert_eq!(bits(&naive_acc), bits(&blocked), "{rows}x{cols} d={d}");
        }
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(2);
        let a = Csr::from_coo(0, 5, vec![]);
        let h = Dense::zeros(5, 7);
        let mut out = Dense::zeros(0, 7);
        spmm_into(l, &a, &h, &mut out, false, &pool);
        let a = Csr::from_coo(4, 5, vec![]); // rows but no nonzeros
        let mut out = Dense::zeros(4, 7);
        spmm_into(l, &a, &h, &mut out, false, &pool);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }
}
