//! Row-major dense matrix with the DMM kernels used in GCN training.
//!
//! The matrices handled here are the vertex-feature blocks `H` (tall and
//! skinny: many rows, few columns) and the parameter matrices `W` (small,
//! replicated on every processor). Kernels are written in the i-k-j loop
//! order so the inner loop streams contiguously over rows of the right-hand
//! operand, which vectorizes well for skinny matrices.

use crate::aligned::AlignedBuf;
use crate::ctx::MIN_PARALLEL_WORK;
use pargcn_util::pool::{even_chunks, Pool};
use pargcn_util::rng::Rng;
use std::ops::Range;

/// A row-major dense `f32` matrix. Its data starts on a 64-byte cache
/// line (see the private `aligned` module), except when adopted from a
/// `Vec` by [`Dense::from_vec`].
#[derive(Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: AlignedBuf,
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dense({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for i in 0..self.rows {
                write!(f, "\n  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

impl Dense {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: AlignedBuf::zeros(rows * cols),
        }
    }

    /// Builds a matrix from a row-major data vector, without copying: the
    /// data keeps the vector's start, which need not be line-aligned.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        Self {
            rows,
            cols,
            data: AlignedBuf::from_vec(data),
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position, in row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for (idx, v) in m.data.iter_mut().enumerate() {
            *v = f(idx / cols, idx % cols);
        }
        m
    }

    /// Glorot/Xavier-uniform initialization, the standard GCN parameter
    /// init: `U(-s, s)` with `s = sqrt(6 / (rows + cols))`.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let mut m = Self::zeros(rows, cols);
        m.data.iter_mut().for_each(|v| *v = rng.gen_range(-s..=s));
        m
    }

    /// Uniform random entries in `[0, 1)`; used for synthetic feature matrices.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.iter_mut().for_each(|v| *v = rng.gen::<f32>());
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Re-dimensions the matrix in place to `rows × cols`, keeping the
    /// allocation (grow-once under a high-water mark). Only the floats
    /// past the old length are zeroed; the rest keep their stale contents,
    /// now read in the new shape — callers that reuse one buffer across
    /// shapes must fully overwrite it before reading.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols);
        self.rows = rows;
        self.cols = cols;
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Resets every entry to zero, keeping the allocation.
    /// Consumes the matrix, yielding its backing row-major storage. The
    /// inverse of [`Dense::from_vec`]: together they let a message payload
    /// be viewed as a matrix and then recycled without copying.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Overwrites `self` with the contents of `src` (shapes must match);
    /// never reallocates.
    pub fn copy_from(&mut self, src: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self × b` (DMM). `self` is `m×k`, `b` is `k×n`, result `m×n`.
    pub fn matmul(&self, b: &Dense) -> Dense {
        let mut out = Dense::zeros(self.rows, b.cols);
        self.gemm(b, &mut out, false, None);
        out
    }

    /// `out (+)= self × b`; when `accumulate` is false `out` is overwritten.
    ///
    /// Writing into a caller-provided buffer lets the per-epoch training loop
    /// reuse allocations (the feature blocks are recomputed every layer).
    pub fn matmul_into(&self, b: &Dense, out: &mut Dense, accumulate: bool) {
        self.gemm(b, out, accumulate, None);
    }

    /// Pooled [`Dense::matmul_into`]: output rows are split evenly across
    /// the pool's threads, each chunk running the serial loop body over
    /// its own rows.
    pub fn matmul_into_pool(&self, b: &Dense, out: &mut Dense, accumulate: bool, pool: &Pool) {
        self.gemm(b, out, accumulate, Some(pool));
    }

    fn gemm(&self, b: &Dense, out: &mut Dense, accumulate: bool, pool: Option<&Pool>) {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul output cols mismatch");
        if !accumulate {
            out.fill_zero();
        }
        let n = b.cols;
        let work = self.rows * self.cols * n;
        let split = |t| even_chunks(self.rows, t);
        run_rows(pool, work, &mut out.data, n, split, |rows, out| {
            for (local, i) in rows.enumerate() {
                let out_row = &mut out[local * n..(local + 1) * n];
                for (k, &aik) in self.row(i).iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                        *o += aik * bv;
                    }
                }
            }
        });
    }

    /// `self × bᵀ`. `self` is `m×k`, `b` is `n×k`, result `m×n`.
    ///
    /// Used in backpropagation for `S = (ÂG)·Wᵀ` without materializing `Wᵀ`.
    pub fn matmul_bt(&self, b: &Dense) -> Dense {
        let mut out = Dense::zeros(self.rows, b.rows);
        self.gemm_bt(b, &mut out, None);
        out
    }

    /// `out = self × bᵀ` (overwritten, never reallocated), output rows
    /// split evenly across the pool's threads. Each output element is one
    /// dot product, computed by exactly one thread in the serial order.
    pub fn matmul_bt_into_pool(&self, b: &Dense, out: &mut Dense, pool: &Pool) {
        self.gemm_bt(b, out, Some(pool));
    }

    fn gemm_bt(&self, b: &Dense, out: &mut Dense, pool: Option<&Pool>) {
        assert_eq!(self.cols, b.cols, "matmul_bt dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.rows),
            "matmul_bt output shape mismatch"
        );
        let n = b.rows;
        let work = self.rows * self.cols * n;
        let split = |t| even_chunks(self.rows, t);
        run_rows(pool, work, &mut out.data, n, split, |rows, out| {
            for (local, i) in rows.enumerate() {
                let a_row = self.row(i);
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    out[local * n + j] = acc;
                }
            }
        });
    }

    /// `selfᵀ × b`. `self` is `n×m`, `b` is `n×k`, result `m×k`.
    ///
    /// Used for the parameter gradient `ΔWᵏ = (H^{k-1})ᵀ (Â Gᵏ)` (paper Eq. 4).
    pub fn matmul_at(&self, b: &Dense) -> Dense {
        let mut out = Dense::zeros(self.cols, b.cols);
        self.gemm_at(b, &mut out, None);
        out
    }

    /// `out = selfᵀ × b`, the parameter-gradient kernel. Parallelism is
    /// over *output* rows (columns of `self`): each thread sweeps all input
    /// rows `i` in ascending order but only touches its own output rows
    /// `j`, so every output element accumulates its `i`-terms in exactly
    /// the serial order, with no per-thread partial buffers or
    /// cross-thread reduction at all.
    pub fn matmul_at_into_pool(&self, b: &Dense, out: &mut Dense, pool: &Pool) {
        self.gemm_at(b, out, Some(pool));
    }

    fn gemm_at(&self, b: &Dense, out: &mut Dense, pool: Option<&Pool>) {
        assert_eq!(self.rows, b.rows, "matmul_at dimension mismatch");
        assert_eq!(out.rows, self.cols, "matmul_at output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul_at output cols mismatch");
        out.fill_zero();
        let k = b.cols;
        let work = self.rows * self.cols * k;
        let split = |t| even_chunks(self.cols, t);
        run_rows(pool, work, &mut out.data, k, split, |js, out| {
            for i in 0..self.rows {
                let b_row = b.row(i);
                for (local, j) in js.clone().enumerate() {
                    let aij = self.data[i * self.cols + j];
                    if aij == 0.0 {
                        continue;
                    }
                    let out_row = &mut out[local * k..(local + 1) * k];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aij * bv;
                    }
                }
            }
        });
    }

    /// Explicit transpose; only used for small matrices and in tests
    /// (hot paths use the `matmul_bt`/`matmul_at` fused variants instead).
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise (Hadamard) product, as used for `G = S ⊙ σ'(Z)` (Eq. 3).
    pub fn hadamard(&self, b: &Dense) -> Dense {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "hadamard shape mismatch"
        );
        let mut out = self.clone();
        out.hadamard_assign(b);
        out
    }

    /// In-place element-wise multiply: `self ⊙= b`.
    pub fn hadamard_assign(&mut self, b: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "hadamard shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(b.data.iter()) {
            *x *= y;
        }
    }

    /// In-place `self ⊙= f(z)`: each element multiplied by `f` of the
    /// same-position element of `z` (the `S ⊙ σ′(Z)` of Eq. 3).
    pub fn mul_map_assign(&mut self, z: &Dense, f: impl Fn(f32) -> f32) {
        assert_eq!(
            (self.rows, self.cols),
            (z.rows, z.cols),
            "mul_map_assign shape mismatch"
        );
        for (x, &zv) in self.data.iter_mut().zip(z.data.iter()) {
            *x *= f(zv);
        }
    }

    /// `self += b`.
    pub fn add_assign(&mut self, b: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "add shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(b.data.iter()) {
            *x += y;
        }
    }

    /// `self -= eta * b`; the SGD parameter update `W ← W − η·ΔW` (Eq. 5).
    pub fn sub_scaled_assign(&mut self, b: &Dense, eta: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "sub shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(b.data.iter()) {
            *x -= eta * y;
        }
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        self.map_rows(None, f);
    }

    /// Pooled [`Dense::map_inplace`]: rows split evenly across threads.
    pub fn map_inplace_pool(&mut self, pool: &Pool, f: impl Fn(f32) -> f32 + Sync) {
        self.map_rows(Some(pool), f);
    }

    /// A new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Dense {
        let mut out = self.clone();
        out.map_rows(None, f);
        out
    }

    /// Pooled [`Dense::map`].
    pub fn map_pool(&self, pool: &Pool, f: impl Fn(f32) -> f32 + Sync) -> Dense {
        let mut out = self.clone();
        out.map_rows(Some(pool), f);
        out
    }

    fn map_rows(&mut self, pool: Option<&Pool>, f: impl Fn(f32) -> f32 + Sync) {
        let (rows, cols) = (self.rows, self.cols);
        let split = |t| even_chunks(rows, t);
        run_rows(
            pool,
            rows * cols,
            &mut self.data,
            cols,
            split,
            |_, slice| {
                for v in slice {
                    *v = f(*v);
                }
            },
        );
    }

    /// Frobenius norm, accumulated in `f64`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// True when every entry of `self` and `b` agrees within relative
    /// tolerance `rel` (absolute floor 1.0; see [`crate::approx_eq`]).
    pub fn approx_eq(&self, b: &Dense, rel: f32) -> bool {
        self.rows == b.rows
            && self.cols == b.cols
            && self
                .data
                .iter()
                .zip(b.data.iter())
                .all(|(&x, &y)| crate::approx_eq(x, y, rel))
    }

    /// Largest absolute element difference against `b`.
    pub fn max_abs_diff(&self, b: &Dense) -> f32 {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        self.data
            .iter()
            .zip(b.data.iter())
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    /// Index of the maximum entry of each row (`argmax`), used to turn
    /// softmax outputs into class predictions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Vertically stacks rows of `self` selected by `idx`
    /// (equivalent to [`crate::gather::gather_rows`]).
    pub fn select_rows(&self, idx: &[u32]) -> Dense {
        crate::gather::gather_rows(self, idx)
    }
}

/// Runs a naive kernel's one loop body, `body(rows, out_rows)`, over the
/// output rows of `out` (`width` floats each): once over all rows when
/// there is no pool, the pool is serial or `work` (≈ inner-loop
/// multiply-adds) is below [`MIN_PARALLEL_WORK`]; otherwise once per chunk
/// of `split(threads)` on the pool. Chunks own disjoint output rows and
/// each output element is computed by one call in the body's order, so
/// the result is bitwise the serial one at any thread count.
pub(crate) fn run_rows(
    pool: Option<&Pool>,
    work: usize,
    out: &mut [f32],
    width: usize,
    split: impl FnOnce(usize) -> Vec<Range<usize>>,
    body: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    match pool {
        Some(pool) if pool.threads() > 1 && work >= MIN_PARALLEL_WORK => {
            let ranges = split(pool.threads());
            pool.run_disjoint_rows(out, width, &ranges, |chunk, rows| {
                body(ranges[chunk].clone(), rows)
            });
        }
        // Zero-width rows hold no output, so there is nothing to run.
        _ if width > 0 => body(0..out.len() / width, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::rng::SeedableRng;
    use pargcn_util::rng::StdRng;

    fn naive_matmul(a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Dense::random(7, 5, &mut rng);
        let b = Dense::random(5, 9, &mut rng);
        assert!(a.matmul(&b).approx_eq(&naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Dense::random(6, 4, &mut rng);
        let b = Dense::random(8, 4, &mut rng);
        assert!(a.matmul_bt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Dense::random(6, 4, &mut rng);
        let b = Dense::random(6, 3, &mut rng);
        assert!(a.matmul_at(&b).approx_eq(&a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn matmul_into_accumulates() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Dense::random(3, 3, &mut rng);
        let b = Dense::random(3, 3, &mut rng);
        let mut out = a.matmul(&b);
        a.matmul_into(&b, &mut out, true);
        let mut twice = a.matmul(&b);
        twice.add_assign(&a.matmul(&b));
        assert!(out.approx_eq(&twice, 1e-5));
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Dense::random(4, 7, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn hadamard_and_updates() {
        let a = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Dense::from_vec(2, 2, vec![2.0, 0.5, 1.0, -1.0]);
        let h = a.hadamard(&b);
        assert_eq!(h.data(), &[2.0, 1.0, 3.0, -4.0]);
        let mut w = a.clone();
        w.sub_scaled_assign(&b, 2.0);
        assert_eq!(w.data(), &[-3.0, 1.0, 1.0, 6.0]);
    }

    #[test]
    fn glorot_within_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = Dense::glorot(10, 20, &mut rng);
        let s = (6.0f64 / 30.0).sqrt() as f32;
        assert!(w.data().iter().all(|&v| v.abs() <= s));
        // Not degenerate: some spread.
        assert!(w.frobenius_norm() > 0.1);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Dense::from_vec(2, 3, vec![0.1, 0.9, 0.2, 0.5, 0.4, 0.6]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
