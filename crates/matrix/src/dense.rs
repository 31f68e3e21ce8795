//! Row-major dense matrix with the DMM kernels used in GCN training.
//!
//! The matrices handled here are the vertex-feature blocks `H` (tall and
//! skinny: many rows, few columns) and the parameter matrices `W` (small,
//! replicated on every processor). Kernels are written in the i-k-j loop
//! order so the inner loop streams contiguously over rows of the right-hand
//! operand, which vectorizes well for skinny matrices.

use pargcn_util::pool::{even_chunks, Pool};
use pargcn_util::rng::Rng;

/// A row-major dense `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
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
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization, the standard GCN parameter
    /// init: `U(-s, s)` with `s = sqrt(6 / (rows + cols))`.
    pub fn glorot(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let s = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols).map(|_| rng.gen_range(-s..=s)).collect();
        Self { rows, cols, data }
    }

    /// Uniform random entries in `[0, 1)`; used for synthetic feature matrices.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f32>()).collect();
        Self { rows, cols, data }
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
        self.data.resize(rows * cols, 0.0);
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
        self.data
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
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        let mut out = Dense::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut out, false);
        out
    }

    /// `out (+)= self × b`; when `accumulate` is false `out` is overwritten.
    ///
    /// Writing into a caller-provided buffer lets the per-epoch training loop
    /// reuse allocations (the feature blocks are recomputed every layer).
    pub fn matmul_into(&self, b: &Dense, out: &mut Dense, accumulate: bool) {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul output cols mismatch");
        if !accumulate {
            out.fill_zero();
        }
        let n = b.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// Pooled [`Dense::matmul`]; see [`Dense::matmul_into_pool`].
    pub fn matmul_pool(&self, b: &Dense, pool: &Pool) -> Dense {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        let mut out = Dense::zeros(self.rows, b.cols);
        self.matmul_into_pool(b, &mut out, true, pool);
        out
    }

    /// Pooled [`Dense::matmul_into`]: output rows are split evenly across
    /// the pool's threads. Each chunk runs the serial inner loops over its
    /// disjoint output rows, so the result is bitwise identical to
    /// [`Dense::matmul_into`] at any thread count.
    pub fn matmul_into_pool(&self, b: &Dense, out: &mut Dense, accumulate: bool, pool: &Pool) {
        if pool.threads() == 1 || self.rows * self.cols * b.cols < crate::ctx::MIN_PARALLEL_WORK {
            self.matmul_into(b, out, accumulate);
            return;
        }
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul output cols mismatch");
        if !accumulate {
            out.fill_zero();
        }
        let n = b.cols;
        let ranges = even_chunks(self.rows, pool.threads());
        pool.run_disjoint_rows(&mut out.data, n, &ranges, |chunk, out_rows| {
            let rows = &ranges[chunk];
            for i in rows.clone() {
                let a_row = self.row(i);
                let local = i - rows.start;
                let out_row = &mut out_rows[local * n..(local + 1) * n];
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b.data[k * n..(k + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
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
        assert_eq!(self.cols, b.cols, "matmul_bt dimension mismatch");
        let mut out = Dense::zeros(self.rows, b.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..b.rows {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
        out
    }

    /// [`Dense::matmul_bt`] writing into a caller-provided `out`
    /// (overwritten, never reallocated) — the allocation-free form the
    /// persistent training workspaces use.
    pub fn matmul_bt_into(&self, b: &Dense, out: &mut Dense) {
        assert_eq!(self.cols, b.cols, "matmul_bt dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.rows),
            "matmul_bt_into output shape mismatch"
        );
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..b.rows {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
    }

    /// Pooled [`Dense::matmul_bt_into`]; bitwise identical to serial.
    pub fn matmul_bt_into_pool(&self, b: &Dense, out: &mut Dense, pool: &Pool) {
        if pool.threads() == 1 || self.rows * self.cols * b.rows < crate::ctx::MIN_PARALLEL_WORK {
            self.matmul_bt_into(b, out);
            return;
        }
        assert_eq!(self.cols, b.cols, "matmul_bt dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.rows),
            "matmul_bt_into output shape mismatch"
        );
        let n = b.rows;
        let ranges = even_chunks(self.rows, pool.threads());
        pool.run_disjoint_rows(&mut out.data, n, &ranges, |chunk, out_rows| {
            let rows = &ranges[chunk];
            for i in rows.clone() {
                let a_row = self.row(i);
                let local = i - rows.start;
                for j in 0..n {
                    let b_row = b.row(j);
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    out_rows[local * n + j] = acc;
                }
            }
        });
    }

    /// Pooled [`Dense::matmul_bt`]: output rows split evenly; bitwise
    /// identical to the serial kernel at any thread count (each output
    /// element is one dot product, computed by exactly one thread with the
    /// serial accumulation order).
    pub fn matmul_bt_pool(&self, b: &Dense, pool: &Pool) -> Dense {
        if pool.threads() == 1 || self.rows * self.cols * b.rows < crate::ctx::MIN_PARALLEL_WORK {
            return self.matmul_bt(b);
        }
        assert_eq!(self.cols, b.cols, "matmul_bt dimension mismatch");
        let mut out = Dense::zeros(self.rows, b.rows);
        let n = b.rows;
        let ranges = even_chunks(self.rows, pool.threads());
        pool.run_disjoint_rows(&mut out.data, n, &ranges, |chunk, out_rows| {
            let rows = &ranges[chunk];
            for i in rows.clone() {
                let a_row = self.row(i);
                let local = i - rows.start;
                for j in 0..n {
                    let b_row = b.row(j);
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    out_rows[local * n + j] = acc;
                }
            }
        });
        out
    }

    /// `selfᵀ × b`. `self` is `n×m`, `b` is `n×k`, result `m×k`.
    ///
    /// Used for the parameter gradient `ΔWᵏ = (H^{k-1})ᵀ (Â Gᵏ)` (paper Eq. 4).
    pub fn matmul_at(&self, b: &Dense) -> Dense {
        assert_eq!(self.rows, b.rows, "matmul_at dimension mismatch");
        let mut out = Dense::zeros(self.cols, b.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let b_row = b.row(i);
            for (j, &aij) in a_row.iter().enumerate() {
                if aij == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[j * b.cols..(j + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aij * bv;
                }
            }
        }
        out
    }

    /// Pooled [`Dense::matmul_at`], the parameter-gradient kernel `ΔW =
    /// selfᵀ × b`. Parallelism is over *output* rows (columns of `self`):
    /// each thread sweeps all input rows `i` in ascending order but only
    /// touches its own disjoint slice of output columns `j`, so every
    /// output element accumulates its `i`-terms in exactly the serial order
    /// — bitwise identical to [`Dense::matmul_at`] at any thread count,
    /// with no per-thread partial buffers or cross-thread reduction at all.
    pub fn matmul_at_pool(&self, b: &Dense, pool: &Pool) -> Dense {
        if pool.threads() == 1 || self.rows * self.cols * b.cols < crate::ctx::MIN_PARALLEL_WORK {
            return self.matmul_at(b);
        }
        assert_eq!(self.rows, b.rows, "matmul_at dimension mismatch");
        let mut out = Dense::zeros(self.cols, b.cols);
        let k = b.cols;
        let ranges = even_chunks(self.cols, pool.threads());
        pool.run_disjoint_rows(&mut out.data, k, &ranges, |chunk, out_rows| {
            let js = &ranges[chunk];
            for i in 0..self.rows {
                let a_row = self.row(i);
                let b_row = b.row(i);
                for j in js.clone() {
                    let aij = a_row[j];
                    if aij == 0.0 {
                        continue;
                    }
                    let local = j - js.start;
                    let out_row = &mut out_rows[local * k..(local + 1) * k];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aij * bv;
                    }
                }
            }
        });
        out
    }

    /// [`Dense::matmul_at`] into a caller-provided buffer: `out = selfᵀ × b`.
    pub fn matmul_at_into(&self, b: &Dense, out: &mut Dense) {
        assert_eq!(self.rows, b.rows, "matmul_at dimension mismatch");
        assert_eq!(out.rows, self.cols, "matmul_at output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul_at output cols mismatch");
        out.fill_zero();
        for i in 0..self.rows {
            let a_row = self.row(i);
            let b_row = b.row(i);
            for (j, &aij) in a_row.iter().enumerate() {
                if aij == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[j * b.cols..(j + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aij * bv;
                }
            }
        }
    }

    /// Pooled [`Dense::matmul_at_into`]: same output-row split as
    /// [`Dense::matmul_at_pool`], so bitwise identical to the serial kernel
    /// at any thread count.
    pub fn matmul_at_into_pool(&self, b: &Dense, out: &mut Dense, pool: &Pool) {
        if pool.threads() == 1 || self.rows * self.cols * b.cols < crate::ctx::MIN_PARALLEL_WORK {
            return self.matmul_at_into(b, out);
        }
        assert_eq!(self.rows, b.rows, "matmul_at dimension mismatch");
        assert_eq!(out.rows, self.cols, "matmul_at output rows mismatch");
        assert_eq!(out.cols, b.cols, "matmul_at output cols mismatch");
        out.fill_zero();
        let k = b.cols;
        let ranges = even_chunks(self.cols, pool.threads());
        pool.run_disjoint_rows(&mut out.data, k, &ranges, |chunk, out_rows| {
            let js = &ranges[chunk];
            for i in 0..self.rows {
                let a_row = self.row(i);
                let b_row = b.row(i);
                for j in js.clone() {
                    let aij = a_row[j];
                    if aij == 0.0 {
                        continue;
                    }
                    let local = j - js.start;
                    let out_row = &mut out_rows[local * k..(local + 1) * k];
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
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| x * y)
            .collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place element-wise multiply: `self ⊙= b`.
    pub fn hadamard_assign(&mut self, b: &Dense) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "hadamard shape mismatch"
        );
        for (x, &y) in self.data.iter_mut().zip(&b.data) {
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
        for (x, &zv) in self.data.iter_mut().zip(&z.data) {
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
        for (x, &y) in self.data.iter_mut().zip(&b.data) {
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
        for (x, &y) in self.data.iter_mut().zip(&b.data) {
            *x -= eta * y;
        }
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Pooled [`Dense::map_inplace`]: rows split evenly across threads.
    /// Element-wise, so trivially bitwise identical to serial.
    pub fn map_inplace_pool(&mut self, pool: &Pool, f: impl Fn(f32) -> f32 + Sync) {
        if pool.threads() == 1 || self.data.len() < crate::ctx::MIN_PARALLEL_WORK {
            self.map_inplace(f);
            return;
        }
        let ranges = even_chunks(self.rows, pool.threads());
        pool.run_disjoint_rows(&mut self.data, self.cols, &ranges, |_, slice| {
            for v in slice {
                *v = f(*v);
            }
        });
    }

    /// A new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Dense {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Pooled [`Dense::map`]; bitwise identical to serial for any thread
    /// count (element-wise, disjoint writes).
    pub fn map_pool(&self, pool: &Pool, f: impl Fn(f32) -> f32 + Sync) -> Dense {
        if pool.threads() == 1 || self.data.len() < crate::ctx::MIN_PARALLEL_WORK {
            return self.map(&f);
        }
        let mut out = Dense::zeros(self.rows, self.cols);
        let ranges = even_chunks(self.rows, pool.threads());
        pool.run_disjoint_rows(&mut out.data, self.cols, &ranges, |chunk, slice| {
            let start = ranges[chunk].start * self.cols;
            for (k, o) in slice.iter_mut().enumerate() {
                *o = f(self.data[start + k]);
            }
        });
        out
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
                .zip(&b.data)
                .all(|(&x, &y)| crate::approx_eq(x, y, rel))
    }

    /// Largest absolute element difference against `b`.
    pub fn max_abs_diff(&self, b: &Dense) -> f32 {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        self.data
            .iter()
            .zip(&b.data)
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
