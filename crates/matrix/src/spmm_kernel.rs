//! Row-block × column-tile SpMM on AVX2 lanes.
//!
//! The naive [`crate::Csr::spmm_into`] is a scalar row-wise axpy: every
//! nonzero re-reads and re-writes the whole `d`-wide output row from
//! memory. The lanes instead walk each row's nonzeros once per **column
//! tile** of the dense operand, holding the tile's partial sums in
//! registers across the entire nonzero loop — the output row is loaded
//! and stored once per tile instead of once per nonzero. Tiles are taken
//! greedily wide (64, then 32, then 16 columns) so the GCN feature widths
//! {16, 32, 64, 128} need at most two passes over a row's nonzeros;
//! narrow tiles would multiply the (random-access) `H`-row gathers
//! instead. Rows are visited in small blocks so neighbouring rows (which
//! share many columns on real graphs) reuse the same `H` tile columns
//! while they are cache-hot.
//!
//! **Bitwise contract**: splitting a row's `d` output columns into tiles
//! never regroups any sums — each output element still accumulates its
//! nonzero terms in ascending CSR order with a single accumulator, which
//! is exactly the naive kernel's order. The lanes ≡ naive bit-for-bit on
//! every input, at every thread count (see DESIGN.md §10).

use crate::csr::Csr;
use crate::dense::{run_rows, Dense};
use crate::lanes::Avx2;
use pargcn_util::pool::{weighted_chunks, Pool};

/// Rows per block: consecutive rows processed tile-by-tile together so
/// their (overlapping) column accesses reuse hot cache lines.
const RB: usize = 8;

/// Dynamic-width edge pass for the sub-16 remainder columns.
#[inline]
pub(crate) fn edge_pass(
    cols: &[u32],
    vals: &[f32],
    h: &Dense,
    j0: usize,
    out_row: &mut [f32],
    accumulate: bool,
) {
    let w = out_row.len();
    let mut acc = [0.0f32; 16];
    if accumulate {
        acc[..w].copy_from_slice(out_row);
    }
    for (&c, &v) in cols.iter().zip(vals) {
        let hr = &h.row(c as usize)[j0..j0 + w];
        for (jj, &x) in hr.iter().enumerate() {
            acc[jj] += v * x;
        }
    }
    out_row.copy_from_slice(&acc[..w]);
}

/// The row-block × column-tile walk over rows `[row0, row0+m)`: calls
/// `tile(cols, vals, j0, out_row)` for each row's nonzeros and each
/// column tile `[j0, j0 + out_row.len())` of width 64, 32, 16 or a
/// sub-16 edge. The lanes inline it into their `#[target_feature]` code.
#[inline(always)]
pub(crate) fn row_tiles(
    a: &Csr,
    row0: usize,
    m: usize,
    d: usize,
    out: &mut [f32],
    mut tile: impl FnMut(&[u32], &[f32], usize, &mut [f32]),
) {
    let mut ib = 0;
    while ib < m {
        let ie = (ib + RB).min(m);
        let mut j0 = 0;
        while j0 < d {
            // Greedy widest tile: fewer passes over each row's nonzeros
            // means fewer repeat gathers of the same (random) `H` rows.
            let w = match d - j0 {
                rem if rem >= 64 => 64,
                rem if rem >= 32 => 32,
                rem if rem >= 16 => 16,
                rem => rem,
            };
            for li in ib..ie {
                let cols = a.row_indices(row0 + li);
                let vals = a.row_values(row0 + li);
                tile(cols, vals, j0, &mut out[li * d + j0..li * d + j0 + w]);
            }
            j0 += w;
        }
        ib = ie;
    }
}

/// `out (+)= a × h` on the lanes, its rows split across the pool by
/// [`run_rows`] with [`weighted_chunks`] like the naive pooled kernel.
pub(crate) fn spmm_into(
    l: Avx2,
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
        let Some(l) = Avx2::detect() else { return };
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
            let naive = a.spmm(&h);
            // Accumulating path, seeded with a sum-reachable value.
            let mut naive_acc = naive.clone();
            a.spmm_into(&h, &mut naive_acc, true);
            let mut blocked = Dense::zeros(rows, d);
            spmm_into(l, &a, &h, &mut blocked, false, &pool);
            assert_eq!(bits(&naive), bits(&blocked), "{rows}x{cols} d={d}");
            spmm_into(l, &a, &h, &mut blocked, true, &pool);
            assert_eq!(bits(&naive_acc), bits(&blocked), "{rows}x{cols} d={d}");
        }
    }

    #[test]
    fn empty_and_zero_row_matrices() {
        let Some(l) = Avx2::detect() else { return };
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
