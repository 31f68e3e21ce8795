//! Explicit SIMD lanes: the blocked engine's kernels.
//!
//! The blocked engine runs the GEMMs and SpMM on `core::arch` register
//! tiles at the widest width the CPU has: sixteen floats (`zmm`) where
//! it has AVX-512F, eight (`ymm`) where it has only AVX2, chosen once per
//! [`crate::ComputeCtx`] by [`Lanes::detect`]. Each kernel body is written
//! once, generic over the private `Isa` trait (load, store, splat,
//! multiply-add and masked part-width loads and stores), and entered
//! through one `#[target_feature]` function per width, so the same source
//! compiles to `ymm` code behind the AVX2 entry and `zmm` code behind the
//! AVX-512F one. The row drivers that feed the kernels live in the private
//! `gemm` and `spmm_kernel` modules. A host without AVX2 runs the naive
//! loops, with the same bits. The loss ([`crate::softmax`]) runs here too,
//! on eight AVX2 lanes at either width, eight rows at a time, one row per
//! lane. The loads and stores are unaligned, but [`crate::Dense`] data
//! starts on a 64-byte cache line, so a full register of a row whose
//! width is a multiple of sixteen floats reads or writes one line.
//!
//! **Bitwise contract** (DESIGN.md §10). Every lane does what the scalar
//! loop does to one element: `acc = acc + a·b` as a separate multiply and
//! add, never an FMA (whose single rounding would change the bits), with
//! one accumulator per output element summing its terms in the same
//! ascending order. Tiling only partitions the output, and a part-width
//! tile's masked-off lanes are neither read nor written, so the lanes
//! are bit-for-bit the naive kernels at both widths. The loss's lanes
//! likewise repeat the scalar row's operations in its order, the in-house
//! `exp`'s included.
//!
//! **Containment.** This is the crate's only `unsafe` code. A [`Lanes`]
//! token can only be made by detection, so holding one proves the CPU
//! has its width (and AVX2, which the loss uses at either width). Its
//! safe methods assert their operands' extents and then enter the
//! `#[target_feature]` kernels, which read and write through raw pointers
//! without further checks. Every such access is in bounds by those
//! asserts, or, for SpMM's `H` rows, by the [`Csr`] invariant that each
//! column index is below `n_cols` (every `Csr` constructor establishes
//! it; see each `SAFETY` note below).

use crate::softmax::LANE_CLASSES;
use crate::{Csr, Dense};
use std::ops::Range;

/// The register width of a [`Lanes`] token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Width {
    /// Eight floats per `ymm` register.
    Avx2,
    /// Sixteen floats per `zmm` register.
    Avx512,
}

/// Proof that the running CPU has the SIMD lanes the token names: AVX2,
/// or AVX-512F and AVX2. The only constructors are [`Lanes::detect`] and,
/// for the width-parity tests, the crate's `Lanes::of_width`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lanes(Width);

/// Runs `kernel(args)` from the entries of the token's width.
macro_rules! on_width {
    ($lanes:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $lanes.0 {
            Width::Avx2 => x86::avx2::$kernel($($arg),*),
            Width::Avx512 => x86::avx512::$kernel($($arg),*),
        }
    };
}

impl Lanes {
    /// The widest lanes the running CPU supports, if it has AVX2.
    pub fn detect() -> Option<Lanes> {
        Self::of_width(16).or_else(|| Self::of_width(8))
    }

    /// The `floats`-wide lanes (8 or 16) when the running CPU has them.
    /// Only the width-parity tests and the kernel bench pick a width;
    /// the engine always runs [`Lanes::detect`]'s.
    pub(crate) fn of_width(floats: usize) -> Option<Lanes> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            match floats {
                8 => return Some(Lanes(Width::Avx2)),
                16 if std::arch::is_x86_feature_detected!("avx512f") => {
                    return Some(Lanes(Width::Avx512))
                }
                _ => {}
            }
        }
        let _ = floats;
        None
    }

    /// Floats per register: 8 or 16.
    pub fn width(self) -> usize {
        match self.0 {
            Width::Avx2 => 8,
            Width::Avx512 => 16,
        }
    }

    /// The instruction set the kernels run on: `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Width::Avx2 => "avx2",
            Width::Avx512 => "avx512",
        }
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
        // SAFETY: `self` exists, so detection saw its width on this CPU;
        // the asserts above are the kernel's extents.
        unsafe {
            on_width!(self, gemm_rows(a, m, k, b, n, out, accumulate, epi))
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a Lanes token exists only on x86-64");
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
        // SAFETY: `self` exists, so detection saw its width on this CPU;
        // the asserts above are the kernel's extents.
        unsafe {
            on_width!(self, at_rows(a, m, b, n, r, js, out))
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a Lanes token exists only on x86-64");
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
        // SAFETY: `self` exists, so detection saw its width on this CPU.
        // The asserts above bound the rows and the output; every column
        // of `a` is below `a.n_cols() = h.rows()` (the `Csr` invariant),
        // which bounds the `H` rows the kernel reads.
        unsafe {
            on_width!(self, spmm_rows(a, row0, m, h, out, accumulate))
        };
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a Lanes token exists only on x86-64");
    }

    /// `out = exp(x)` element by element with the library's
    /// [`exp`](crate::softmax::exp) on eight AVX2 lanes: the scalar
    /// function's operations in its order, so bitwise equal to it on
    /// every input. The length must be a multiple of eight. For the
    /// exhaustive test.
    #[doc(hidden)]
    pub fn exp_into(self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "exp lanes: length mismatch");
        assert_eq!(x.len() % 8, 0, "exp lanes: length not a multiple of 8");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists, so detection saw AVX2 on this CPU.
        unsafe {
            x86::exp_into(x, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a Lanes token exists only on x86-64")
    }

    /// The loss rows `rows` of `h`, one per AVX2 lane, with labels `ys`:
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
        // SAFETY: `self` exists, so detection saw AVX2 on this CPU.
        unsafe {
            x86::softmax_rows(h.data(), c, rows, ys, count, grad.data_mut())
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("a Lanes token exists only on x86-64")
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::softmax::{
        INF_BITS, LANE_CLASSES, LN2_HI, LN2_LO, LOG2E, MIN_NORMAL_BITS, POLY, ROUND, X_HI, X_LO,
    };
    use crate::{Csr, Dense};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Rows of the `A·B` and `Aᵀ·B` register tiles; with two registers of
    /// columns a tile holds 4×16 outputs in eight `ymm` accumulators, or
    /// 4×32 in eight `zmm` ones.
    const MR: usize = 4;

    /// Floats of `a` and `b` rows one `Aᵀ·B` input-row block may span:
    /// 16 KiB, half of the smallest common L1D, so every tile of the
    /// output rereads the block from L1.
    const AT_BLOCK_FLOATS: usize = 4096;

    /// The widest SpMM column span one pass over a row's nonzeros keeps
    /// in registers: 8 `ymm` or 4 `zmm` accumulators. Wider rows take one
    /// pass per span.
    const SPAN: usize = 64;

    /// The exponent bits of an `f32`: all set for the infinities and NaN.
    const EXP: u32 = 0x7f80_0000;

    /// One register width's operations, the vocabulary the kernel bodies
    /// below are written in once. Every method is `unsafe`: the caller
    /// runs on a CPU with the width's instructions (the bodies run only
    /// inside the `#[target_feature]` entries), and a pointer argument
    /// covers every lane the method reads or writes.
    trait Isa {
        /// Floats per register.
        const W: usize;
        type V: Copy;
        /// The lanes a part-width load or store touches.
        type Mask: Copy;
        unsafe fn zero() -> Self::V;
        unsafe fn splat(x: f32) -> Self::V;
        /// The first `n` lanes, `1 ≤ n ≤ W`.
        unsafe fn mask(n: usize) -> Self::Mask;
        /// `W` floats from `p`, unaligned.
        unsafe fn load(p: *const f32) -> Self::V;
        /// The `mask` lanes from `p`, `+0.0` in the others, which are not
        /// read.
        unsafe fn load_part(p: *const f32, mask: Self::Mask) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// Stores the `mask` lanes only.
        unsafe fn store_part(p: *mut f32, mask: Self::Mask, v: Self::V);
        /// `acc + x·y`, rounded twice like the scalar `acc += x * y`.
        unsafe fn mul_add(acc: Self::V, x: Self::V, y: Self::V) -> Self::V;
        /// `acc + x·y` with the product masked to `+0.0` where `x` is
        /// `±0.0` (a NaN `x` compares unequal, so it still propagates, as
        /// in the naive kernel).
        unsafe fn mul_add_nonzero(acc: Self::V, x: Self::V, y: Self::V) -> Self::V;
    }

    /// Eight-float AVX2 lanes.
    struct Ymm;

    impl Isa for Ymm {
        const W: usize = 8;
        type V = __m256;
        type Mask = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __m256i {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_part(p: *const f32, mask: __m256i) -> __m256 {
            _mm256_maskload_ps(p, mask)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn store_part(p: *mut f32, mask: __m256i, v: __m256) {
            _mm256_maskstore_ps(p, mask, v)
        }
        #[inline(always)]
        unsafe fn mul_add(acc: __m256, x: __m256, y: __m256) -> __m256 {
            _mm256_add_ps(acc, _mm256_mul_ps(x, y))
        }
        #[inline(always)]
        unsafe fn mul_add_nonzero(acc: __m256, x: __m256, y: __m256) -> __m256 {
            let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(x, _mm256_setzero_ps());
            _mm256_add_ps(acc, _mm256_and_ps(_mm256_mul_ps(x, y), keep))
        }
    }

    /// Sixteen-float AVX-512F lanes.
    struct Zmm;

    impl Isa for Zmm {
        const W: usize = 16;
        type V = __m512;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn mask(n: usize) -> __mmask16 {
            ((1u32 << n) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_part(p: *const f32, mask: __mmask16) -> __m512 {
            _mm512_maskz_loadu_ps(mask, p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn store_part(p: *mut f32, mask: __mmask16, v: __m512) {
            _mm512_mask_storeu_ps(p, mask, v)
        }
        #[inline(always)]
        unsafe fn mul_add(acc: __m512, x: __m512, y: __m512) -> __m512 {
            _mm512_add_ps(acc, _mm512_mul_ps(x, y))
        }
        #[inline(always)]
        unsafe fn mul_add_nonzero(acc: __m512, x: __m512, y: __m512) -> __m512 {
            let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(x, _mm512_setzero_ps());
            _mm512_add_ps(acc, _mm512_maskz_mul_ps(keep, x, y))
        }
    }

    /// Register `v` of a `V`-register column tile at `p`: the last one
    /// part-width, through `mask`, when `PART`.
    #[inline(always)]
    unsafe fn load_v<I: Isa, const V: usize, const PART: bool>(
        p: *const f32,
        v: usize,
        mask: I::Mask,
    ) -> I::V {
        if PART && v + 1 == V {
            I::load_part(p.add(v * I::W), mask)
        } else {
            I::load(p.add(v * I::W))
        }
    }

    /// Stores register `v` of a column tile, like [`load_v`] reads it.
    #[inline(always)]
    unsafe fn store_v<I: Isa, const V: usize, const PART: bool>(
        p: *mut f32,
        v: usize,
        mask: I::Mask,
        x: I::V,
    ) {
        if PART && v + 1 == V {
            I::store_part(p.add(v * I::W), mask, x)
        } else {
            I::store(p.add(v * I::W), x)
        }
    }

    /// The `#[target_feature]` entries of one width. Each enters the
    /// width-generic body of the same name with the width's [`Isa`], so
    /// the body and every method it calls inline into the entry and
    /// compile to that width's instructions.
    macro_rules! entries {
        ($width:ident, $feature:literal, $isa:ty) => {
            pub(super) mod $width {
                use super::*;

                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = $feature)]
                pub(in crate::lanes) unsafe fn gemm_rows(
                    a: &[f32],
                    m: usize,
                    k: usize,
                    b: &[f32],
                    n: usize,
                    out: &mut [f32],
                    accumulate: bool,
                    epi: &mut impl FnMut(usize, &mut [f32]),
                ) {
                    super::gemm_rows::<$isa>(a, m, k, b, n, out, accumulate, epi)
                }

                #[target_feature(enable = $feature)]
                pub(in crate::lanes) unsafe fn at_rows(
                    a: &[f32],
                    m: usize,
                    b: &[f32],
                    n: usize,
                    r: usize,
                    js: Range<usize>,
                    out: &mut [f32],
                ) {
                    super::at_rows::<$isa>(a, m, b, n, r, js, out)
                }

                #[target_feature(enable = $feature)]
                pub(in crate::lanes) unsafe fn spmm_rows(
                    a: &Csr,
                    row0: usize,
                    m: usize,
                    h: &Dense,
                    out: &mut [f32],
                    accumulate: bool,
                ) {
                    super::spmm_rows::<$isa>(a, row0, m, h, out, accumulate)
                }
            }
        };
    }

    entries!(avx2, "avx2", Ymm);
    entries!(avx512, "avx512f", Zmm);

    /// `A·B` in blocks of `MR` output rows (single rows for the last
    /// `m mod MR`), each block handed to `epi` once finished.
    ///
    /// Safety: `a`, `b` and `out` hold `m×k`, `k×n` and `m×n` floats
    /// (`Lanes::gemm_rows`' asserts).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn gemm_rows<I: Isa>(
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
            let a_blk = a.as_ptr().add(i0 * k);
            let out_blk = &mut out[i0 * n..(i0 + rows) * n];
            let o = out_blk.as_mut_ptr();
            if rows == MR {
                ab_row_block::<I, MR>(a_blk, k, b.as_ptr(), n, o, accumulate);
            } else {
                ab_row_block::<I, 1>(a_blk, k, b.as_ptr(), n, o, accumulate);
            }
            epi(i0, out_blk);
            i0 += rows;
        }
    }

    /// `R` output rows, column tile by column tile: two registers wide,
    /// then one, then one part-width register for the last `n mod W`
    /// columns.
    #[inline(always)]
    unsafe fn ab_row_block<I: Isa, const R: usize>(
        a: *const f32,
        k: usize,
        b: *const f32,
        n: usize,
        out: *mut f32,
        accumulate: bool,
    ) {
        let full = I::mask(I::W);
        let mut j0 = 0;
        while n - j0 >= 2 * I::W {
            ab_tile::<I, R, 2, false>(a, k, b, n, j0, out, accumulate, full);
            j0 += 2 * I::W;
        }
        if n - j0 >= I::W {
            ab_tile::<I, R, 1, false>(a, k, b, n, j0, out, accumulate, full);
            j0 += I::W;
        }
        if j0 < n {
            let part = I::mask(n - j0);
            ab_tile::<I, R, 1, true>(a, k, b, n, j0, out, accumulate, part);
        }
    }

    /// One `R × V`-register tile at column `j0`, accumulated across the
    /// whole `k` loop: per `k` step, `V` loads of `b`'s row and `R`
    /// broadcasts of `a`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn ab_tile<I: Isa, const R: usize, const V: usize, const PART: bool>(
        a: *const f32,
        k: usize,
        b: *const f32,
        n: usize,
        j0: usize,
        out: *mut f32,
        accumulate: bool,
        mask: I::Mask,
    ) {
        let mut acc = [[I::zero(); V]; R];
        if accumulate {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                    *acc_rv = load_v::<I, V, PART>(out.add(r * n + j0), v, mask);
                }
            }
        }
        for kk in 0..k {
            let b_row = b.add(kk * n + j0);
            let mut bv = [I::zero(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = load_v::<I, V, PART>(b_row, v, mask);
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let ar = I::splat(*a.add(r * k + kk));
                for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                    *acc_rv = I::mul_add(*acc_rv, ar, bvv);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                store_v::<I, V, PART>(out.add(r * n + j0), v, mask, acc_rv);
            }
        }
    }

    /// `Aᵀ·B` rows `js`, over input-row blocks that stay in L1 while every
    /// output tile sweeps them.
    ///
    /// Safety: `a`, `b` hold `r×m` and `r×n` floats, `js` lies in `0..m`
    /// and `out` holds `js.len()×n` floats (`Lanes::at_rows`' asserts).
    #[inline(always)]
    unsafe fn at_rows<I: Isa>(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        r: usize,
        js: Range<usize>,
        out: &mut [f32],
    ) {
        out[..js.len() * n].fill(0.0);
        let ib = (AT_BLOCK_FLOATS / (m + n).max(1)).max(8);
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
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
                let o = out.as_mut_ptr().add((j - js.start) * n);
                let rows = rows.clone();
                match (jr == MR, masked) {
                    (true, false) => at_row_block::<I, MR, false>(ap, m, bp, n, rows, j, o),
                    (true, true) => at_row_block::<I, MR, true>(ap, m, bp, n, rows, j, o),
                    (false, false) => at_row_block::<I, 1, false>(ap, m, bp, n, rows, j, o),
                    (false, true) => at_row_block::<I, 1, true>(ap, m, bp, n, rows, j, o),
                }
                j += jr;
            }
            i0 = rows.end;
        }
    }

    /// Output rows `[j, j+R)` over one input-row block, column tile by
    /// column tile like [`ab_row_block`].
    #[inline(always)]
    unsafe fn at_row_block<I: Isa, const R: usize, const MASK: bool>(
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        rows: Range<usize>,
        j: usize,
        out: *mut f32,
    ) {
        let full = I::mask(I::W);
        let mut c0 = 0;
        while n - c0 >= 2 * I::W {
            at_tile::<I, R, 2, MASK, false>(a, m, b, n, rows.clone(), j, c0, out, full);
            c0 += 2 * I::W;
        }
        if n - c0 >= I::W {
            at_tile::<I, R, 1, MASK, false>(a, m, b, n, rows.clone(), j, c0, out, full);
            c0 += I::W;
        }
        if c0 < n {
            let part = I::mask(n - c0);
            at_tile::<I, R, 1, MASK, true>(a, m, b, n, rows, j, c0, out, part);
        }
    }

    /// One `R × V`-register tile of `ΔW` at output row `j`, column `c0`,
    /// over the input rows `rows`: per input row, `R` broadcasts of `a`
    /// and `V` loads of `b`; with `MASK`, each product is masked to
    /// `+0.0` where its `a` is zero.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn at_tile<
        I: Isa,
        const R: usize,
        const V: usize,
        const MASK: bool,
        const PART: bool,
    >(
        a: *const f32,
        m: usize,
        b: *const f32,
        n: usize,
        rows: Range<usize>,
        j: usize,
        c0: usize,
        out: *mut f32,
        mask: I::Mask,
    ) {
        let mut acc = [[I::zero(); V]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                *acc_rv = load_v::<I, V, PART>(out.add(r * n + c0), v, mask);
            }
        }
        for i in rows {
            let a_part = a.add(i * m + j);
            let b_row = b.add(i * n + c0);
            let mut bv = [I::zero(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = load_v::<I, V, PART>(b_row, v, mask);
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = I::splat(*a_part.add(r));
                for (acc_rv, &bvv) in acc_r.iter_mut().zip(&bv) {
                    *acc_rv = if MASK {
                        I::mul_add_nonzero(*acc_rv, av, bvv)
                    } else {
                        I::mul_add(*acc_rv, av, bvv)
                    };
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (v, &acc_rv) in acc_r.iter().enumerate() {
                store_v::<I, V, PART>(out.add(r * n + c0), v, mask, acc_rv);
            }
        }
    }

    /// SpMM rows `[row0, row0+m)` one column span at a time: for each
    /// span of up to [`SPAN`] columns (one span when `d ≤ 64`), one lean
    /// row loop holding the span in registers across each row's
    /// nonzeros.
    ///
    /// Safety: rows `[row0, row0+m)` exist in `a`, `a.n_cols() = h.rows()`
    /// and `out` holds `m×h.cols()` floats (`Lanes::spmm_rows`' asserts).
    #[inline(always)]
    unsafe fn spmm_rows<I: Isa>(
        a: &Csr,
        row0: usize,
        m: usize,
        h: &Dense,
        out: &mut [f32],
        accumulate: bool,
    ) {
        let d = h.cols();
        let mut j0 = 0;
        while j0 < d {
            let w = (d - j0).min(SPAN);
            let span = (a, row0..row0 + m, h, j0, out.as_mut_ptr(), accumulate);
            match w.div_ceil(I::W) {
                1 => spmm_span::<I, 1>(span, w),
                2 => spmm_span::<I, 2>(span, w),
                3 => spmm_span::<I, 3>(span, w),
                4 => spmm_span::<I, 4>(span, w),
                5 => spmm_span::<I, 5>(span, w),
                6 => spmm_span::<I, 6>(span, w),
                7 => spmm_span::<I, 7>(span, w),
                _ => spmm_span::<I, 8>(span, w),
            }
            j0 += w;
        }
    }

    /// One SpMM column span's arguments: the matrix, its rows, `H`, the
    /// span's first column, the output rows and whether to accumulate.
    type Span<'a> = (&'a Csr, Range<usize>, &'a Dense, usize, *mut f32, bool);

    /// The `w`-column span of `V = ⌈w/W⌉` registers, the last part-width
    /// unless `w` is a multiple of `W`.
    #[inline(always)]
    unsafe fn spmm_span<I: Isa, const V: usize>(span: Span, w: usize) {
        let tail = w - (V - 1) * I::W;
        if tail == I::W {
            spmm_span_rows::<I, V, false>(span, I::mask(I::W));
        } else {
            spmm_span_rows::<I, V, true>(span, I::mask(tail));
        }
    }

    /// The lean row loop: per row, `V` accumulators across the row's
    /// nonzeros in CSR order, one load and one store of the output span.
    #[inline(always)]
    unsafe fn spmm_span_rows<I: Isa, const V: usize, const PART: bool>(
        (a, rows, h, j0, out, accumulate): Span,
        mask: I::Mask,
    ) {
        let d = h.cols();
        let hp = h.data().as_ptr().add(j0);
        for (li, i) in rows.enumerate() {
            let o = out.add(li * d + j0);
            let mut acc = [I::zero(); V];
            if accumulate {
                for (v, acc_v) in acc.iter_mut().enumerate() {
                    *acc_v = load_v::<I, V, PART>(o, v, mask);
                }
            }
            for (&c, &x) in a.row_indices(i).iter().zip(a.row_values(i)) {
                // SAFETY: `c < a.n_cols() = h.rows()` (the `Csr`
                // invariant), so the span lies inside `H`'s row `c`.
                let h_row = hp.add(c as usize * d);
                let xv = I::splat(x);
                for (v, acc_v) in acc.iter_mut().enumerate() {
                    *acc_v = I::mul_add(*acc_v, xv, load_v::<I, V, PART>(h_row, v, mask));
                }
            }
            for (v, &acc_v) in acc.iter().enumerate() {
                store_v::<I, V, PART>(o, v, mask, acc_v);
            }
        }
    }

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
