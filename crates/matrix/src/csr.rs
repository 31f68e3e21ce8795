//! Compressed-sparse-row matrix and the naive SpMM loop that
//! [`crate::ComputeCtx`] runs as its reference engine.
//!
//! The adjacency matrix `Â` is the only sparse matrix in GCN training
//! (paper §3.1); everything else is dense. CSR gives contiguous access to a
//! vertex's adjacency list, which is exactly the per-row task granularity
//! the paper's 1-D partitioning uses: row `A(i,:)` and the task of computing
//! `Z(i,:)` live on the same processor.

use crate::dense::run_rows;
use crate::Dense;
use pargcn_util::pool::{weighted_chunks, Pool};

/// A CSR sparse `f32` matrix.
///
/// **Invariant**, which the lanes' SpMM relies on to read `H` rows by
/// column index without a bounds check: every column index is below
/// `n_cols`, `indptr` has `n_rows + 1` entries, is monotone and ends at
/// `nnz`, and `values` is as long as `indices`. The fields are private,
/// and every constructor establishes it: [`Csr::from_coo`] and
/// [`Csr::from_parts`] by assertion, [`Csr::identity`],
/// [`Csr::transpose`] and [`Csr::select_rows`] by construction, and
/// [`Csr::split_by_owner`] by asserting each entry's position.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// `indptr[i]..indptr[i+1]` indexes row `i`'s entries; length `n_rows+1`.
    indptr: Vec<usize>,
    /// Column indices, ascending within each row.
    indices: Vec<u32>,
    /// Values, parallel to `indices`.
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Triplets may be unordered; duplicates are summed (the usual COO→CSR
    /// contract). Entries with value exactly `0.0` are kept if present in the
    /// input — the communication structure of the algorithm depends on the
    /// *pattern*, so callers decide whether to filter zeros.
    ///
    /// The row dimension is handled by a two-pass counting sort (count, then
    /// scatter), so the whole build is `O(nnz + n_rows)` plus a comparison
    /// sort only *within* each row — `O(nnz log(nnz/n_rows))` in aggregate
    /// instead of the `O(nnz log nnz)` a global triplet sort costs. This is
    /// the graph-load hot path for the synthetic billion-edge runs.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(n_rows: usize, n_cols: usize, coo: Vec<(u32, u32, f32)>) -> Self {
        // Pass 1: per-row counts (bounds are checked here, inline — no
        // separate validation sweep over the triplets).
        let mut indptr = vec![0usize; n_rows + 1];
        for &(r, c, _) in &coo {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "coo entry out of bounds"
            );
            indptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            indptr[i + 1] += indptr[i];
        }
        // Pass 2: scatter each triplet into its row bucket. Input order is
        // preserved within a row, so the build stays deterministic.
        let nnz = coo.len();
        let mut bucket_cols = vec![0u32; nnz];
        let mut bucket_vals = vec![0.0f32; nnz];
        let mut cursor = indptr.clone();
        for &(r, c, v) in &coo {
            let slot = cursor[r as usize];
            bucket_cols[slot] = c;
            bucket_vals[slot] = v;
            cursor[r as usize] = slot + 1;
        }
        // Sort columns within each row and fold duplicates as we emit.
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        let mut out_indptr = vec![0usize; n_rows + 1];
        for i in 0..n_rows {
            let (start, end) = (indptr[i], indptr[i + 1]);
            scratch.clear();
            scratch.extend(
                bucket_cols[start..end]
                    .iter()
                    .copied()
                    .zip(bucket_vals[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let row_start = indices.len();
            for &(c, v) in &scratch {
                if indices.len() > row_start && *indices.last().unwrap() == c {
                    // Same (row, col) as previous triplet: accumulate.
                    *values.last_mut().unwrap() += v;
                } else {
                    indices.push(c);
                    values.push(v);
                }
            }
            out_indptr[i + 1] = indices.len();
        }
        Self {
            n_rows,
            n_cols,
            indptr: out_indptr,
            indices,
            values,
        }
    }

    /// Builds directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent or column indices are not
    /// strictly ascending within a row.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), n_rows + 1, "indptr length");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail");
        for (i, w) in indptr.windows(2).enumerate() {
            assert!(w[0] <= w[1], "indptr not monotone");
            let row = &indices[w[0]..w[1]];
            assert!(
                row.windows(2).all(|p| p[0] < p[1]),
                "columns not strictly ascending in row {i}"
            );
            // Ascending, so the last column is the row's largest.
            if let Some(&c) = row.last() {
                assert!((c as usize) < n_cols, "column out of bounds");
            }
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices of row `i` (the paper's `cols(A(i,:))`).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, parallel to [`Csr::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f32] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Number of nonzeros in row `i` — the paper's per-vertex computational
    /// weight `w(vᵢ) = |cols(A(i,:))|` (§4.3.2).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            self.row_indices(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&c, &v)| (i as u32, c, v))
        })
    }

    /// Transposed copy. For directed graphs the backpropagation phase uses
    /// `Âᵀ` in place of `Â` (paper §3.1).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.n_rows {
            for (&c, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                let slot = cursor[c as usize];
                indices[slot] = i as u32;
                values[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        }
    }

    /// Extracts the submatrix formed by the given rows, keeping the full
    /// column space. This is the paper's `Aₘ ∈ R^{n×n}` — a processor's
    /// local row block, still indexed by global columns.
    pub fn select_rows(&self, rows: &[u32]) -> Csr {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            indices.extend_from_slice(self.row_indices(r as usize));
            values.extend_from_slice(self.row_values(r as usize));
            indptr.push(indices.len());
        }
        Csr {
            n_rows: rows.len(),
            n_cols: self.n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// Splits the given rows by column owner in one pass: entry `(c, v)`
    /// of each listed row goes to block `owner[c]` at column `pos[c]`.
    /// Block `b` has `rows.len()` rows and `block_cols[b]` columns.
    ///
    /// This is how a rank's row block `Aₘ` becomes its per-peer column
    /// blocks (Eqs. 8–9) without an intermediate copy. A block's rows come
    /// out ascending — the CSR invariant — because the caller's `pos`
    /// increases with `c` across each owner's columns; one compare per
    /// entry checks that.
    ///
    /// # Panics
    /// Panics if `pos` is not increasing within an owner's columns or a
    /// column's position is outside its block.
    pub fn split_by_owner(
        &self,
        rows: &[u32],
        owner: &[u32],
        pos: &[u32],
        block_cols: &[usize],
    ) -> Vec<Csr> {
        let mut blocks: Vec<Csr> = block_cols
            .iter()
            .map(|&n_cols| Csr {
                n_rows: rows.len(),
                n_cols,
                indptr: Vec::with_capacity(rows.len() + 1),
                indices: Vec::new(),
                values: Vec::new(),
            })
            .collect();
        for block in &mut blocks {
            block.indptr.push(0);
        }
        for &r in rows {
            for (&c, &v) in self
                .row_indices(r as usize)
                .iter()
                .zip(self.row_values(r as usize))
            {
                let block = &mut blocks[owner[c as usize] as usize];
                let j = pos[c as usize];
                let row_start = block.indptr[block.indptr.len() - 1];
                let after_prev =
                    block.indices.len() == row_start || block.indices[block.indices.len() - 1] < j;
                assert!(
                    (j as usize) < block.n_cols && after_prev,
                    "split_by_owner: column {c} of row {r} maps to position {j} of block {}, \
                     which is out of range or not after the row's previous position",
                    owner[c as usize]
                );
                block.indices.push(j);
                block.values.push(v);
            }
            for block in &mut blocks {
                block.indptr.push(block.indices.len());
            }
        }
        blocks
    }

    /// Densifies; test/debug helper for small matrices.
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.n_rows, self.n_cols);
        for (r, c, v) in self.iter() {
            out.set(r as usize, c as usize, out.get(r as usize, c as usize) + v);
        }
        out
    }
}

/// SpMM, `out (+)= a × h` (`a` is `m×k`, `h` is `k×d`): the naive
/// engine's row-wise axpy. With `accumulate`, adds into `out` — the shape
/// of Algorithm 1 line 9, where remote contributions `Âₘ·H_{nm}` are
/// folded into the partially-computed local product.
///
/// Output rows are split across the pool's threads by *nonzero count*
/// (via [`weighted_chunks`] over `indptr`), so a few dense hub rows don't
/// serialize the kernel. Each output element is produced by exactly one
/// thread, which accumulates that row's nonzero terms in the **canonical
/// order** — one accumulator per element, terms added in ascending CSR
/// position. The lanes' SpMM ([`crate::lanes`]) realizes that same
/// order, so both engines are bitwise identical to each other at any
/// thread count (see DESIGN.md §10).
pub(crate) fn spmm_rows(
    a: &Csr,
    h: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pool: Option<&Pool>,
) {
    assert_eq!(a.n_cols, h.rows(), "spmm dimension mismatch");
    assert_eq!(out.rows(), a.n_rows, "spmm output rows mismatch");
    assert_eq!(out.cols(), h.cols(), "spmm output cols mismatch");
    if !accumulate {
        out.fill_zero();
    }
    let d = h.cols();
    let work = a.nnz() * d;
    let split = |t| weighted_chunks(&a.indptr, t);
    run_rows(pool, work, out.data_mut(), d, split, |rows, out| {
        for (local, i) in rows.enumerate() {
            let out_row = &mut out[local * d..(local + 1) * d];
            for (&c, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                for (o, &x) in out_row.iter_mut().zip(h.row(c as usize)) {
                    *o += v * x;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeCtx;
    use pargcn_util::rng::StdRng;
    use pargcn_util::rng::{Rng, SeedableRng};

    fn spmm(a: &Csr, h: &Dense) -> Dense {
        let mut out = Dense::zeros(a.n_rows(), h.cols());
        spmm_rows(a, h, &mut out, false, None);
        out
    }

    fn random_csr(rng: &mut StdRng, m: usize, n: usize, density: f64) -> Csr {
        let mut coo = Vec::new();
        for r in 0..m {
            for c in 0..n {
                if rng.gen_bool(density) {
                    coo.push((r as u32, c as u32, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        Csr::from_coo(m, n, coo)
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let a = Csr::from_coo(
            2,
            3,
            vec![(1, 2, 1.0), (0, 1, 2.0), (1, 2, 0.5), (0, 0, 1.0)],
        );
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row_indices(0), &[0, 1]);
        assert_eq!(a.row_indices(1), &[2]);
        assert_eq!(a.row_values(1), &[1.5]);
    }

    #[test]
    fn spmm_matches_dense_multiply() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_csr(&mut rng, 9, 7, 0.3);
        let h = Dense::random(7, 4, &mut rng);
        let dense = ComputeCtx::serial().matmul(&a.to_dense(), &h);
        assert!(spmm(&a, &h).approx_eq(&dense, 1e-5));
    }

    #[test]
    fn spmm_into_accumulates() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = random_csr(&mut rng, 5, 5, 0.4);
        let h = Dense::random(5, 3, &mut rng);
        let mut out = spmm(&a, &h);
        spmm_rows(&a, &h, &mut out, true, None);
        let mut twice = spmm(&a, &h);
        twice.add_assign(&spmm(&a, &h));
        assert!(out.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn transpose_is_involution_and_matches_dense() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_csr(&mut rng, 6, 4, 0.35);
        assert_eq!(a, a.transpose().transpose());
        assert!(a
            .transpose()
            .to_dense()
            .approx_eq(&a.to_dense().transpose(), 0.0));
    }

    #[test]
    fn select_rows_keeps_global_columns() {
        let a = Csr::from_coo(
            4,
            4,
            vec![(0, 1, 1.0), (1, 3, 2.0), (2, 0, 3.0), (3, 2, 4.0)],
        );
        let sub = a.select_rows(&[1, 3]);
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.n_cols(), 4);
        assert_eq!(sub.row_indices(0), &[3]);
        assert_eq!(sub.row_indices(1), &[2]);
    }

    #[test]
    fn split_by_owner_routes_entries_to_owner_positions() {
        let a = Csr::from_coo(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (0, 3, 3.0),
                (2, 1, 4.0),
                (2, 3, 5.0),
            ],
        );
        // Columns 0 and 3 belong to block 0 (positions 0, 1); columns 1
        // and 2 to block 1 (positions 0, 1). Rows 2 then 0.
        let blocks = a.split_by_owner(&[2, 0], &[0, 1, 1, 0], &[0, 0, 1, 1], &[2, 3]);
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].n_rows(), blocks[0].n_cols()), (2, 2));
        assert_eq!((blocks[1].n_rows(), blocks[1].n_cols()), (2, 3));
        assert_eq!(blocks[0].row_indices(0), &[1]);
        assert_eq!(blocks[0].row_values(0), &[5.0]);
        assert_eq!(blocks[0].row_indices(1), &[0, 1]);
        assert_eq!(blocks[0].row_values(1), &[1.0, 3.0]);
        assert_eq!(blocks[1].row_indices(0), &[0]);
        assert_eq!(blocks[1].row_values(0), &[4.0]);
        assert_eq!(blocks[1].row_indices(1), &[1]);
        assert_eq!(blocks[1].row_values(1), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "not after the row's previous position")]
    fn split_by_owner_rejects_decreasing_positions() {
        let a = Csr::from_coo(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        a.split_by_owner(&[0], &[0, 0], &[1, 0], &[2]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let mut rng = StdRng::seed_from_u64(10);
        let h = Dense::random(6, 3, &mut rng);
        assert!(spmm(&Csr::identity(6), &h).approx_eq(&h, 0.0));
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::from_coo(5, 5, vec![(4, 0, 1.0)]);
        assert_eq!(a.row_nnz(0), 0);
        assert_eq!(a.row_nnz(4), 1);
        let h = Dense::zeros(5, 2);
        assert_eq!(spmm(&a, &h).rows(), 5);
    }
}
