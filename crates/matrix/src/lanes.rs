//! Explicit AVX2 lanes: the blocked engine's kernels.
//!
//! The blocked engine runs the GEMMs and SpMM on eight-lane `core::arch`
//! register tiles, chosen once per [`crate::ComputeCtx`] by
//! [`Avx2::detect`]; the row drivers that feed them live in the private
//! `gemm` and `spmm_kernel` modules. A host without AVX2 runs the naive
//! loops, with the same bits. The loss ([`crate::softmax`]) runs here
//! too, eight rows at a time, one row per lane.
//!
//! **Bitwise contract** (DESIGN.md §10). Every lane does what the scalar
//! loop does to one element: `acc = acc + a·b` as a separate
//! `_mm256_mul_ps` and `_mm256_add_ps`, never an FMA (whose single
//! rounding would change the bits), with one accumulator per output
//! element summing its terms in the same ascending order. Tiling only
//! partitions the output, so the lanes are bit-for-bit the naive
//! kernels. The loss's lanes likewise repeat the scalar row's
//! operations in its order, the in-house `exp`'s included.
//!
//! **Containment.** This is the crate's only `unsafe` code. An [`Avx2`]
//! token can only be made by [`Avx2::detect`], so holding one proves the
//! CPU has AVX2; its safe methods assert their slice bounds and then
//! enter the `#[target_feature]` kernels, which index through checked
//! slices. The only raw-pointer accesses are the unaligned loads and
//! stores of `load8`/`store8`, each on a slice checked to hold eight
//! floats.

use crate::softmax::LANE_CLASSES;
use crate::{Csr, Dense};
use std::ops::Range;

/// Proof that the running CPU supports AVX2: the only constructor is
/// [`Avx2::detect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx2(());

impl Avx2 {
    /// `Some` when the running CPU supports AVX2.
    pub fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// `out (+)= a·b` over `m` rows: `a` is `m×k`, `b` the row-major
    /// `k×n` right operand, `out` `m×n`, all with dense row strides.
    /// After each block of finished output rows it calls
    /// `epi(first_row, rows)` while they are still in cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_rows(
        self,
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        accumulate: bool,
        epi: &mut impl FnMut(usize, &mut [f32]),
    ) {
        assert!(
            a.len() >= m * k,
            "gemm lanes: a holds {} < {m}×{k}",
            a.len()
        );
        assert!(
            b.len() >= k * n,
            "gemm lanes: b holds {} < {k}×{n}",
            b.len()
        );
        assert!(
            out.len() >= m * n,
            "gemm lanes: out holds {} < {m}×{n}",
            out.len()
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
        unsafe {
            x86::gemm_rows(a, m, k, b, n, out, accumulate, epi)
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("an Avx2 token exists only on x86-64");
    }

    /// `out = aᵀ·b` restricted to output rows `js`: `a` is `r×m`, `b` is
    /// `r×n`, `out` holds rows `js` of the `m×n` result. Zero `a` terms
    /// match the naive kernel's skip bit for bit: their product is `±0.0`
    /// over a finite block of `b` and masked to `+0.0` over any other,
    /// and either leaves an accumulator that started at `+0.0` (so never
    /// holds `-0.0`) unchanged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn at_rows(
        self,
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        r: usize,
        js: Range<usize>,
        out: &mut [f32],
    ) {
        assert!(
            js.start <= js.end && js.end <= m,
            "at lanes: rows {js:?} of {m}"
        );
        assert!(a.len() >= r * m, "at lanes: a holds {} < {r}×{m}", a.len());
        assert!(b.len() >= r * n, "at lanes: b holds {} < {r}×{n}", b.len());
        assert!(out.len() >= js.len() * n, "at lanes: out too short");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
        unsafe {
            x86::at_rows(a, m, b, n, r, js, out)
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("an Avx2 token exists only on x86-64");
    }

    /// `out (+)= a·h` for CSR rows `[row0, row0+m)`, writing `m` output
    /// rows of width `h.cols()` from `out[0]`.
    pub(crate) fn spmm_rows(
        self,
        a: &Csr,
        row0: usize,
        m: usize,
        h: &Dense,
        out: &mut [f32],
        accumulate: bool,
    ) {
        assert!(row0 + m <= a.n_rows(), "spmm lanes: rows past the matrix");
        assert_eq!(a.n_cols(), h.rows(), "spmm lanes: dimension mismatch");
        assert!(out.len() >= m * h.cols(), "spmm lanes: out too short");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
        unsafe {
            x86::spmm_rows(a, row0, m, h, out, accumulate)
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("an Avx2 token exists only on x86-64");
    }

    /// `out = exp(x)` element by element with the library's
    /// [`exp`](crate::softmax::exp) on eight lanes: the scalar function's
    /// operations in its order, so bitwise equal to it on every input.
    /// The length must be a multiple of eight. For the exhaustive test.
    #[doc(hidden)]
    pub fn exp_into(self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "exp lanes: length mismatch");
        assert_eq!(x.len() % 8, 0, "exp lanes: length not a multiple of 8");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
        unsafe {
            x86::exp_into(x, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("an Avx2 token exists only on x86-64")
    }

    /// The loss rows `rows` of `h`, one per lane, with labels `ys`:
    /// writes each row's `(softmax(h) − onehot(y)) / count` into the same
    /// row of `grad` and returns the eight label probabilities, every step
    /// in class order like the scalar row.
    pub(crate) fn softmax_rows(
        self,
        h: &Dense,
        rows: &[usize; 8],
        ys: [u32; 8],
        count: f32,
        grad: &mut Dense,
    ) -> [f32; 8] {
        let c = h.cols();
        assert_eq!(
            (grad.rows(), grad.cols()),
            (h.rows(), c),
            "softmax lanes: shape mismatch"
        );
        assert!(c <= LANE_CLASSES, "softmax lanes: {c} classes");
        assert!(
            rows.iter().all(|&r| r < h.rows()),
            "softmax lanes: row past the matrix"
        );
        assert!(
            ys.iter().all(|&y| (y as usize) < c),
            "softmax lanes: label out of range"
        );
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so `detect` saw AVX2 on this CPU.
        unsafe {
            x86::softmax_rows(h.data(), c, rows, ys, count, grad.data_mut())
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("an Avx2 token exists only on x86-64")
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::gemm::at_edge_pass;
    use crate::softmax::{
        INF_BITS, LANE_CLASSES, LN2_HI, LN2_LO, LOG2E, MIN_NORMAL_BITS, POLY, ROUND, X_HI, X_LO,
    };
    use crate::spmm_kernel::{edge_pass, row_tiles};
    use crate::{Csr, Dense};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Rows of the `A·B` register tile; with two 8-lane columns it holds
    /// 4×16 outputs in eight registers.
    const MR: usize = 4;

    /// Floats of `a` and `b` rows one `Aᵀ·B` input-row block may span:
    /// 16 KiB, half of the smallest common L1D, so every tile of the
    /// output rereads the block from L1.
    const AT_BLOCK_FLOATS: usize = 4096;

    /// The exponent bits of an `f32`: all set for the infinities and NaN.
    const EXP: u32 = 0x7f80_0000;

    /// Eight floats from the front of `x`, unaligned.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(x: &[f32]) -> __m256 {
        let x: &[f32; 8] = x[..8].try_into().expect("eight floats");
        // SAFETY: `x` is eight readable floats; `loadu` needs no alignment.
        unsafe { _mm256_loadu_ps(x.as_ptr()) }
    }

    /// Stores eight floats to the front of `x`, unaligned.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(x: &mut [f32], v: __m256) {
        let x: &mut [f32; 8] = (&mut x[..8]).try_into().expect("eight floats");
        // SAFETY: `x` is eight writable floats; `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), v) }
    }

    /// `acc + x·y`, rounded twice like the scalar `acc += x * y`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_add(acc: __m256, x: __m256, y: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(x, y))
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        accumulate: bool,
        epi: &mut impl FnMut(usize, &mut [f32]),
    ) {
        let mut i0 = 0;
        while i0 < m {
            let rows = if m - i0 >= MR { MR } else { 1 };
            let a_blk = &a[i0 * k..(i0 + rows) * k];
            let out_blk = &mut out[i0 * n..(i0 + rows) * n];
            if rows == MR {
                ab_row_block::<MR>(a_blk, k, b, n, out_blk, accumulate);
            } else {
                ab_row_block::<1>(a_blk, k, b, n, out_blk, accumulate);
            }
            epi(i0, out_blk);
            i0 += rows;
        }
    }

    /// `R` output rows, column tile by column tile: 16 wide, then 8, then
    /// a scalar edge for the last `n mod 8` columns.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ab_row_block<const R: usize>(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let mut j0 = 0;
        while n - j0 >= 16 {
            ab_tile::<R, 2>(a, k, b, n, j0, out, accumulate);
            j0 += 16;
        }
        if n - j0 >= 8 {
            ab_tile::<R, 1>(a, k, b, n, j0, out, accumulate);
            j0 += 8;
        }
        for r in 0..R {
            let a_row = &a[r * k..r * k + k];
            for j in j0..n {
                let o = &mut out[r * n + j];
                let mut acc = if accumulate { *o } else { 0.0 };
                for (kk, &aik) in a_row.iter().enumerate() {
                    acc += aik * b[kk * n + j];
                }
                *o = acc;
            }
        }
    }

    /// One `R × 8V` register tile at column `j0`, accumulated across the
    /// whole `k` loop: per `k` step, `V` loads of `b`'s row and `R`
    /// broadcasts of `a`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ab_tile<const R: usize, const V: usize>(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        j0: usize,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..r * k + k]);
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        if accumulate {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                    *acc_rv = load8(&out[r * n + j0 + 8 * v..]);
                }
            }
        }
        for (kk, b_row) in b[..k * n].chunks_exact(n).enumerate() {
            let b_row = &b_row[j0..j0 + 8 * V];
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = load8(&b_row[8 * v..]);
            }
            for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
                let ar = _mm256_set1_ps(a_row[kk]);
                for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                    *acc_rv = mul_add(*acc_rv, ar, bvv);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                store8(&mut out[r * n + j0 + 8 * v..], acc_rv);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn at_rows(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        r: usize,
        js: Range<usize>,
        out: &mut [f32],
    ) {
        out[..js.len() * n].fill(0.0);
        // Input rows per block: the block's `a` and `b` rows stay in L1
        // while every output tile sweeps them.
        let ib = (AT_BLOCK_FLOATS / (m + n).max(1)).max(8);
        let mut i0 = 0;
        while i0 < r {
            let rows = i0..(i0 + ib).min(r);
            // Over a finite block of `b`, the `±0.0` product of a zero `a`
            // term leaves an accumulator that started at `+0.0` unchanged,
            // so only blocks holding an infinity or NaN need the mask.
            let masked = b[rows.start * n..rows.end * n]
                .iter()
                .fold(false, |bad, v| bad | (v.to_bits() & EXP == EXP));
            let mut j = js.start;
            while j < js.end {
                let jr = if js.end - j >= MR { MR } else { 1 };
                let out_blk = &mut out[(j - js.start) * n..(j - js.start + jr) * n];
                let rows = rows.clone();
                match (jr == MR, masked) {
                    (true, false) => at_row_block::<MR, false>(a, m, b, n, rows, j, out_blk),
                    (true, true) => at_row_block::<MR, true>(a, m, b, n, rows, j, out_blk),
                    (false, false) => at_row_block::<1, false>(a, m, b, n, rows, j, out_blk),
                    (false, true) => at_row_block::<1, true>(a, m, b, n, rows, j, out_blk),
                }
                j += jr;
            }
            i0 = rows.end;
        }
    }

    /// Output rows `[j, j+R)` over one input-row block, column tile by
    /// column tile, with a scalar edge that skips zero `a` terms exactly
    /// like the naive kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_row_block<const R: usize, const MASK: bool>(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        j: usize,
        out: &mut [f32],
    ) {
        let mut c0 = 0;
        while n - c0 >= 16 {
            at_tile::<R, 2, MASK>(a, m, b, n, rows.clone(), j, c0, out);
            c0 += 16;
        }
        if n - c0 >= 8 {
            at_tile::<R, 1, MASK>(a, m, b, n, rows.clone(), j, c0, out);
            c0 += 8;
        }
        if c0 < n {
            for (jr, out_row) in out.chunks_exact_mut(n).enumerate().take(R) {
                at_edge_pass(
                    a,
                    m,
                    j + jr,
                    b,
                    n,
                    rows.start,
                    rows.end,
                    c0,
                    &mut out_row[c0..],
                );
            }
        }
    }

    /// One `R × 8V` tile of `ΔW` at output row `j`, column `c0`, over the
    /// input rows `rows`: per input row, `R` broadcasts of `a` and `V`
    /// loads of `b`; with `MASK`, each product is masked to `+0.0` where
    /// its `a` is zero.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2")]
    fn at_tile<const R: usize, const V: usize, const MASK: bool>(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        j: usize,
        c0: usize,
        out: &mut [f32],
    ) {
        let zero = _mm256_setzero_ps();
        let mut acc = [[zero; V]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                *acc_rv = load8(&out[r * n + c0 + 8 * v..]);
            }
        }
        let a_blk = a[rows.start * m..rows.end * m].chunks_exact(m);
        let b_blk = b[rows.start * n..rows.end * n].chunks_exact(n);
        for (a_row, b_row) in a_blk.zip(b_blk) {
            let a_part: &[f32; R] = a_row[j..j + R].try_into().expect("R floats");
            let b_row = &b_row[c0..c0 + 8 * V];
            let mut bv = [zero; V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = load8(&b_row[8 * v..]);
            }
            for (acc_r, &aij) in acc.iter_mut().zip(a_part) {
                let av = _mm256_set1_ps(aij);
                if MASK {
                    // All ones unless `aij` is ±0.0 (NaN compares unequal,
                    // so a NaN `a` still propagates, as in the naive kernel).
                    let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero);
                    for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                        let term = _mm256_and_ps(_mm256_mul_ps(av, bvv), keep);
                        *acc_rv = _mm256_add_ps(*acc_rv, term);
                    }
                } else {
                    for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                        *acc_rv = mul_add(*acc_rv, av, bvv);
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                store8(&mut out[r * n + c0 + 8 * v..], acc_rv);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn spmm_rows(
        a: &Csr,
        row0: usize,
        m: usize,
        h: &Dense,
        out: &mut [f32],
        accumulate: bool,
    ) {
        row_tiles(
            a,
            row0,
            m,
            h.cols(),
            out,
            |cols, vals, j0, out_row| match out_row.len() {
                64 => spmm_tile::<8>(cols, vals, h, j0, out_row, accumulate),
                32 => spmm_tile::<4>(cols, vals, h, j0, out_row, accumulate),
                16 => spmm_tile::<2>(cols, vals, h, j0, out_row, accumulate),
                _ => edge_pass(cols, vals, h, j0, out_row, accumulate),
            },
        );
    }

    /// One `8V`-wide column tile of one CSR row: `V` accumulators across
    /// the row's nonzeros, in CSR order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn spmm_tile<const V: usize>(
        cols: &[u32],
        vals: &[f32],
        h: &Dense,
        j0: usize,
        out_row: &mut [f32],
        accumulate: bool,
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        if accumulate {
            for (v, acc_v) in acc.iter_mut().enumerate() {
                *acc_v = load8(&out_row[8 * v..]);
            }
        }
        for (&c, &x) in cols.iter().zip(vals) {
            let h_part = &h.row(c as usize)[j0..j0 + 8 * V];
            let xv = _mm256_set1_ps(x);
            for (v, acc_v) in acc.iter_mut().enumerate() {
                *acc_v = mul_add(*acc_v, xv, load8(&h_part[8 * v..]));
            }
        }
        for (v, &acc_v) in acc.iter().enumerate() {
            store8(&mut out_row[8 * v..], acc_v);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn exp_into(x: &[f32], out: &mut [f32]) {
        for (x, out) in x.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            store8(out, exp8(load8(x)));
        }
    }

    /// [`crate::softmax::exp`] on eight lanes, step for step: the same
    /// clamp (a NaN passing through), reduction, polynomial, exponent-bit
    /// scaling, overflow and flush, and NaN propagation.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        let c = _mm256_set1_ps;
        let xc = _mm256_max_ps(c(X_LO), _mm256_min_ps(c(X_HI), x));
        let t = _mm256_add_ps(_mm256_mul_ps(xc, c(LOG2E)), c(ROUND));
        let kf = _mm256_sub_ps(t, c(ROUND));
        let r = _mm256_sub_ps(
            _mm256_sub_ps(xc, _mm256_mul_ps(kf, c(LN2_HI))),
            _mm256_mul_ps(kf, c(LN2_LO)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut p = c(POLY[0]);
        for &k in &POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), c(k));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), c(1.0));
        let scale = _mm256_slli_epi32::<23>(_mm256_castps_si256(t));
        let bits = _mm256_add_epi32(_mm256_castps_si256(y), scale);
        let bits = _mm256_min_epi32(bits, _mm256_set1_epi32(INF_BITS));
        let normal = _mm256_cmpgt_epi32(bits, _mm256_set1_epi32(MIN_NORMAL_BITS - 1));
        let y = _mm256_castsi256_ps(_mm256_and_si256(bits, normal));
        _mm256_add_ps(y, _mm256_mul_ps(xc, _mm256_setzero_ps()))
    }

    /// Eight rows of eight floats in, the eight columns out.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_rows(
        h: &[f32],
        c: usize,
        rows: &[usize; 8],
        ys: [u32; 8],
        count: f32,
        g: &mut [f32],
    ) -> [f32; 8] {
        match c {
            0..=16 => softmax_block::<16>(h, c, rows, ys, count, g),
            17..=32 => softmax_block::<32>(h, c, rows, ys, count, g),
            _ => softmax_block::<LANE_CLASSES>(h, c, rows, ys, count, g),
        }
    }

    /// [`softmax_rows`] with a column buffer of `N ≥ c` registers, sized
    /// to the rows so that clearing it costs little.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn softmax_block<const N: usize>(
        h: &[f32],
        c: usize,
        rows: &[usize; 8],
        ys: [u32; 8],
        count: f32,
        g: &mut [f32],
    ) -> [f32; 8] {
        // Lane `l` of `col[j]` is element `j` of row `rows[l]`: eight
        // classes at a time through `transpose8`, the last `c mod 8` one
        // by one.
        let mut buf = [_mm256_setzero_ps(); N];
        let col = &mut buf[..c];
        let c8 = c - c % 8;
        let row = |l: usize| &h[rows[l] * c..rows[l] * c + c];
        for j0 in (0..c8).step_by(8) {
            let t = transpose8(std::array::from_fn(|l| load8(&row(l)[j0..])));
            col[j0..j0 + 8].copy_from_slice(&t);
        }
        for (j, v) in col.iter_mut().enumerate().skip(c8) {
            *v = load8(&std::array::from_fn::<f32, 8, _>(|l| row(l)[j]));
        }
        // The `f32::max` fold: `maxps(v, acc)` returns `acc` when `v` is
        // NaN, as `f32::max(acc, v)` does (`acc` is never NaN).
        let mut max = _mm256_set1_ps(f32::NEG_INFINITY);
        for &v in col.iter() {
            max = _mm256_max_ps(v, max);
        }
        let mut sum = _mm256_setzero_ps();
        for v in col.iter_mut() {
            *v = exp8(_mm256_sub_ps(*v, max));
            sum = _mm256_add_ps(sum, *v);
        }
        // `/ sum` where the sum is positive (elsewhere `/ 1`, which changes
        // no bit), the label's probability, and `(p − [j = y]) / count`.
        let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(sum, _mm256_setzero_ps());
        let sum = _mm256_blendv_ps(_mm256_set1_ps(1.0), sum, positive);
        let y = _mm256_setr_epi32(
            ys[0] as i32,
            ys[1] as i32,
            ys[2] as i32,
            ys[3] as i32,
            ys[4] as i32,
            ys[5] as i32,
            ys[6] as i32,
            ys[7] as i32,
        );
        let (one, count) = (_mm256_set1_ps(1.0), _mm256_set1_ps(count));
        // Each lane's label matches one class, so `py` gathers its
        // probability by `or` into `+0.0`.
        let mut py = _mm256_setzero_ps();
        let mut j = _mm256_setzero_si256();
        for v in col.iter_mut() {
            let p = _mm256_div_ps(*v, sum);
            let is_y = _mm256_castsi256_ps(_mm256_cmpeq_epi32(y, j));
            py = _mm256_or_ps(py, _mm256_and_ps(is_y, p));
            *v = _mm256_div_ps(_mm256_sub_ps(p, _mm256_and_ps(is_y, one)), count);
            j = _mm256_add_epi32(j, _mm256_set1_epi32(1));
        }
        for j0 in (0..c8).step_by(8) {
            let t = transpose8(col[j0..j0 + 8].try_into().expect("eight columns"));
            for (l, &v) in t.iter().enumerate() {
                store8(&mut g[rows[l] * c + j0..], v);
            }
        }
        for (j, &v) in col.iter().enumerate().skip(c8) {
            let mut lanes = [0.0; 8];
            store8(&mut lanes, v);
            for (l, &x) in lanes.iter().enumerate() {
                g[rows[l] * c + j] = x;
            }
        }
        let mut ps = [0.0; 8];
        store8(&mut ps, py);
        ps
    }
}
