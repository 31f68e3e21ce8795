//! Cache-blocked GEMM engine shared by every dense-matmul variant.
//!
//! The scalar engine uses the classic packing scheme (Goto & van de
//! Geijn): the right-hand operand is copied once per call into `NR`-wide
//! **column panels** laid out k-major, so the micro-kernel's inner loop
//! reads one contiguous `NR`-float line per `k` step regardless of the
//! original leading dimension. Over the panels runs an `MR×NR`
//! register-tiled micro-kernel holding all `MR·NR` accumulators in
//! registers across the whole `k` loop — the naive kernels instead
//! re-read and re-write the output row from memory on every `k` step. On
//! a CPU with AVX2 the same loops run on explicit eight-lane tiles
//! ([`crate::lanes`]), which read the small row-major right operand
//! directly: `A·B` needs no pack at all, `A·Bᵀ` one transposing copy.
//!
//! **Bitwise contract** (DESIGN.md §10): every output element is produced
//! by a single accumulator summing its `k` terms in strictly ascending
//! order — exactly the naive kernels' per-element order. The naive `A·B`
//! skips `a == 0.0` terms that the tiles multiply through; that is a
//! bitwise no-op unless `B` holds a non-finite value (`0·∞` is NaN) or an
//! accumulated output holds `-0.0` (a `+0.0` term would flip it), so
//! exactly those calls run the naive loop instead. Blocked and naive
//! therefore agree bit for bit on every input, at every thread count. The
//! property suite (`tests/kernel_engine.rs`) pins this across
//! adversarial shapes and values.
//!
//! `Aᵀ·B` (the `ΔW` gradient shape: a huge reduction dimension onto a
//! tiny output) is different: packing either operand would copy more
//! memory than the whole multiply reads, so it gets its own pack-free
//! kernel — an input-row-blocked outer product with register-tiled
//! output columns (see [`matmul_at_into`]).
//!
//! The layer loop's element-wise epilogues ride along in the stores:
//! [`matmul_map_into`] writes `H = σ(A·W)` in place of the product, and
//! [`matmul_bt_scale_into`] multiplies `S` by `σ′` as it is stored.
//! Each block of output rows gets its epilogue while it is still in L1,
//! with the same scalar operations as the separate passes, so the fused
//! and unfused forms have the same bits.

use crate::ctx::MIN_PARALLEL_WORK;
use crate::dense::Dense;
use crate::lanes::Avx2;
use pargcn_util::pool::{even_chunks, Pool};

/// Micro-kernel output-tile height (rows of `A` per tile).
pub const MR: usize = 4;
/// Micro-kernel output-tile width (columns of `B` per panel).
pub const NR: usize = 8;

/// Grow-once packing scratch. One per [`crate::ComputeCtx`]; reused by
/// every blocked call, so after the first pass over the largest operand
/// shapes the engine is allocation-free.
#[derive(Debug, Default)]
pub struct PackBuf {
    /// The B operand packed into `NR`-wide column panels (k-major), or
    /// for the lanes the row-major `Bᵀ` of an `A·Bᵀ`.
    panels: Vec<f32>,
}

impl PackBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the panel buffer to at least the given float count. Called
    /// once at workspace setup (`EpochWorkspace::new`) so that no
    /// steady-state kernel call ever needs to grow it.
    pub fn reserve(&mut self, panel_floats: usize) {
        if self.panels.len() < panel_floats {
            self.panels.resize(panel_floats, 0.0);
        }
    }
}

/// Packs `b` (`k×n`, row-major) into column panels: panel `jp` holds
/// columns `[jp, jp+w)` contiguously k-major at offset `jp*k`.
fn pack_b(b: &[f32], k: usize, n: usize, panels: &mut Vec<f32>) {
    if panels.len() < k * n {
        panels.resize(k * n, 0.0);
    }
    let mut jp = 0;
    while jp < n {
        let w = NR.min(n - jp);
        let dst = &mut panels[jp * k..jp * k + k * w];
        for kk in 0..k {
            dst[kk * w..kk * w + w].copy_from_slice(&b[kk * n + jp..kk * n + jp + w]);
        }
        jp += w;
    }
}

/// Transposing pack: treats `b` (`n×k`, row-major) as its transpose
/// `Bᵀ` (`k×n`) and packs that into column panels — the `A·Bᵀ` variant
/// never materializes `Bᵀ`.
fn pack_bt(b: &[f32], n: usize, k: usize, panels: &mut Vec<f32>) {
    if panels.len() < k * n {
        panels.resize(k * n, 0.0);
    }
    let mut jp = 0;
    while jp < n {
        let w = NR.min(n - jp);
        let dst = &mut panels[jp * k..jp * k + k * w];
        for kk in 0..k {
            for jj in 0..w {
                dst[kk * w + jj] = b[(jp + jj) * k + kk];
            }
        }
        jp += w;
    }
}

/// Transposing copy for the lanes: `b` (`n×k`, row-major) becomes the
/// row-major `Bᵀ` (`k×n`) at the front of `dst`.
fn transpose_into(b: &[f32], n: usize, k: usize, dst: &mut Vec<f32>) {
    if dst.len() < k * n {
        dst.resize(k * n, 0.0);
    }
    for j in 0..n {
        for kk in 0..k {
            dst[kk * n + j] = b[j * k + kk];
        }
    }
}

/// The right operand of a `k×n` product laid out for one engine's row
/// kernels: the lanes read a row-major `k×n` operand (`b` itself for
/// `A·B`, a transposing copy in `pack` for `A·Bᵀ`); the scalar
/// micro-kernel reads `NR`-wide panels.
fn layout<'a>(
    b: &'a Dense,
    transposed: bool,
    pack: &'a mut PackBuf,
    lanes: Option<Avx2>,
) -> &'a [f32] {
    let (k, n) = if transposed {
        (b.cols(), b.rows())
    } else {
        (b.rows(), b.cols())
    };
    match (lanes, transposed) {
        (Some(_), false) => return b.data(),
        (Some(_), true) => transpose_into(b.data(), n, k, &mut pack.panels),
        (None, false) => pack_b(b.data(), k, n, &mut pack.panels),
        (None, true) => pack_bt(b.data(), n, k, &mut pack.panels),
    }
    &pack.panels[..k * n]
}

/// Whether the tiles, which multiply through the zero `a` terms the
/// naive `A·B` skips, could differ from it: only if `b` holds a
/// non-finite value (`0·∞` is NaN) or an output to accumulate into holds
/// `-0.0` (DESIGN.md §10). Such calls — a diverged run — take the naive
/// loop.
fn skip_matters(b: &Dense, out: &Dense, accumulate: bool) -> bool {
    b.data().iter().any(|v| !v.is_finite())
        || (accumulate && out.data().iter().any(|v| *v == 0.0 && v.is_sign_negative()))
}

/// Whether a kernel of `work` multiply-adds runs inline on the caller —
/// the naive pooled kernels' cutoff, a pure function of shape.
fn runs_inline(pool: &Pool, work: usize) -> bool {
    pool.threads() == 1 || work < MIN_PARALLEL_WORK
}

/// Input rows per block of the `Aᵀ·B` outer-product kernel: the register
/// accumulators for one output tile persist across this many reduction
/// steps before spilling back to the (cache-hot) output.
const AT_IB: usize = 16;
/// One `W`-wide output-column tile of `AT_IB` (or fewer) outer-product
/// updates: `acc[jj] (+)= a[i][j] · b[i][n0+jj]` for `i ∈ [i0, ie)`,
/// ascending. `W` is constant so the accumulators stay in registers and
/// the body vectorizes. The `aij == 0.0` skip mirrors the naive kernel's
/// control flow exactly, so the two are bitwise identical even on
/// non-finite inputs.
#[allow(clippy::too_many_arguments)]
#[inline]
fn at_tile_pass<const W: usize>(
    a: &[f32],
    m: usize,
    j: usize,
    b: &[f32],
    n: usize,
    i0: usize,
    ie: usize,
    n0: usize,
    out_row: &mut [f32],
) {
    let mut acc: [f32; W] = out_row.try_into().unwrap();
    for i in i0..ie {
        let aij = a[i * m + j];
        if aij == 0.0 {
            continue;
        }
        let br: &[f32; W] = b[i * n + n0..i * n + n0 + W].try_into().unwrap();
        for jj in 0..W {
            acc[jj] += aij * br[jj];
        }
    }
    out_row.copy_from_slice(&acc);
}

/// Dynamic-width edge tile for the sub-16 remainder columns.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn at_edge_pass(
    a: &[f32],
    m: usize,
    j: usize,
    b: &[f32],
    n: usize,
    i0: usize,
    ie: usize,
    n0: usize,
    out_row: &mut [f32],
) {
    let w = out_row.len();
    let mut acc = [0.0f32; 16];
    acc[..w].copy_from_slice(out_row);
    for i in i0..ie {
        let aij = a[i * m + j];
        if aij == 0.0 {
            continue;
        }
        let br = &b[i * n + n0..i * n + n0 + w];
        for (jj, &bv) in br.iter().enumerate() {
            acc[jj] += aij * bv;
        }
    }
    out_row.copy_from_slice(&acc[..w]);
}

/// `Aᵀ·B` over output rows `js` (= columns of `a`): for each block of
/// `AT_IB` input rows, sweep the owned output rows tile by tile, keeping
/// each tile's partial sums in registers across the block. The whole
/// output stays cache-hot (it is `a.cols × b.cols` — feature-sized), both
/// inputs are streamed through exactly once, and every output element
/// still sums its terms in ascending input-row order — the naive
/// [`Dense::matmul_at`] order, bit for bit.
fn at_rows(
    a: &[f32],
    m: usize,
    b: &[f32],
    n: usize,
    r: usize,
    js: std::ops::Range<usize>,
    out_rows: &mut [f32],
) {
    for v in out_rows.iter_mut() {
        *v = 0.0;
    }
    let mut i0 = 0;
    while i0 < r {
        let ie = (i0 + AT_IB).min(r);
        for j in js.clone() {
            let local = j - js.start;
            let mut n0 = 0;
            while n0 < n {
                let w = match n - n0 {
                    rem if rem >= 64 => 64,
                    rem if rem >= 32 => 32,
                    rem if rem >= 16 => 16,
                    rem => rem,
                };
                let out_row = &mut out_rows[local * n + n0..local * n + n0 + w];
                match w {
                    64 => at_tile_pass::<64>(a, m, j, b, n, i0, ie, n0, out_row),
                    32 => at_tile_pass::<32>(a, m, j, b, n, i0, ie, n0, out_row),
                    16 => at_tile_pass::<16>(a, m, j, b, n, i0, ie, n0, out_row),
                    _ => at_edge_pass(a, m, j, b, n, i0, ie, n0, out_row),
                }
                n0 += w;
            }
        }
        i0 = ie;
    }
}

/// Full `MR×NR` tile: all 32 accumulators live in registers across the
/// whole `k` loop; the loop bounds are compile-time constants so the body
/// vectorizes. `a` starts at the tile's first row (stride `lda`); `out`
/// starts at the tile's first output row (stride `ldc`, column offset
/// `j0`). Each accumulator sums its terms in ascending `kk` — the
/// bitwise-canonical order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_full(
    a: &[f32],
    lda: usize,
    panel: &[f32],
    k: usize,
    out: &mut [f32],
    ldc: usize,
    j0: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[ii * ldc + j0..ii * ldc + j0 + NR]);
        }
    }
    for kk in 0..k {
        let bp: &[f32; NR] = panel[kk * NR..kk * NR + NR].try_into().unwrap();
        for (ii, acc_row) in acc.iter_mut().enumerate() {
            let aik = a[ii * lda + kk];
            for jj in 0..NR {
                acc_row[jj] += aik * bp[jj];
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        out[ii * ldc + j0..ii * ldc + j0 + NR].copy_from_slice(acc_row);
    }
}

/// Remainder tile (`mr ≤ MR` rows, `w ≤ NR` columns) with runtime
/// bounds; same register accumulators and the same ascending-`kk` order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_edge(
    a: &[f32],
    lda: usize,
    mr: usize,
    panel: &[f32],
    w: usize,
    k: usize,
    out: &mut [f32],
    ldc: usize,
    j0: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if accumulate {
        for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
            acc_row[..w].copy_from_slice(&out[ii * ldc + j0..ii * ldc + j0 + w]);
        }
    }
    for kk in 0..k {
        let bp = &panel[kk * w..kk * w + w];
        for (ii, acc_row) in acc.iter_mut().enumerate().take(mr) {
            let aik = a[ii * lda + kk];
            for (jj, &bv) in bp.iter().enumerate() {
                acc_row[jj] += aik * bv;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate().take(mr) {
        out[ii * ldc + j0..ii * ldc + j0 + w].copy_from_slice(&acc_row[..w]);
    }
}

/// Runs the scalar micro-kernels over `m` consecutive rows of `a`
/// (stride `k`) against pre-packed panels, writing `m×n` output rows
/// starting at `out[0]` and handing each finished `MR`-row block to
/// `epi(first_row, rows)`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    a: &[f32],
    m: usize,
    k: usize,
    panels: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
    epi: &mut impl FnMut(usize, &mut [f32]),
) {
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        let a_tile = &a[i0 * k..];
        let mut jp = 0;
        while jp < n {
            let w = NR.min(n - jp);
            let panel = &panels[jp * k..jp * k + k * w];
            let out_tile = &mut out[i0 * n..];
            if mr == MR && w == NR {
                micro_full(a_tile, k, panel, k, out_tile, n, jp, accumulate);
            } else {
                micro_edge(a_tile, k, mr, panel, w, k, out_tile, n, jp, accumulate);
            }
            jp += w;
        }
        epi(i0, &mut out[i0 * n..(i0 + mr) * n]);
        i0 += mr;
    }
}

/// One engine's row kernels over `m` consecutive rows of `a` against
/// the right operand as [`layout`] left it. The unit of work a pool
/// chunk executes; chunk boundaries only regroup rows and per-element
/// sums are row-independent, so splitting is bitwise invisible.
#[allow(clippy::too_many_arguments)]
fn rows(
    lanes: Option<Avx2>,
    a: &[f32],
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
    epi: &mut impl FnMut(usize, &mut [f32]),
) {
    match lanes {
        Some(l) => l.gemm_rows(a, m, k, bp, n, out, accumulate, epi),
        None => gemm_rows(a, m, k, bp, n, out, accumulate, epi),
    }
}

/// `out (+)= a·bp` over a whole `m×n` output, split across the pool's
/// threads by output rows exactly like the naive `_pool` kernels (same
/// cutoff, same `even_chunks`). `epi` sees global row indices.
#[allow(clippy::too_many_arguments)]
fn product(
    a: &[f32],
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
    pool: &Pool,
    lanes: Option<Avx2>,
    epi: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    if runs_inline(pool, m * k * n) {
        rows(lanes, a, m, k, bp, n, out, accumulate, &mut |i, r| {
            epi(i, r)
        });
        return;
    }
    let ranges = even_chunks(m, pool.threads());
    pool.run_disjoint_rows(out, n, &ranges, |chunk, out_rows| {
        let r = &ranges[chunk];
        let a_rows = &a[r.start * k..r.end * k];
        rows(
            lanes,
            a_rows,
            r.len(),
            k,
            bp,
            n,
            out_rows,
            accumulate,
            &mut |i, o| epi(r.start + i, o),
        );
    });
}

/// Blocked [`Dense::matmul_into`]: `out (+)= a × b`.
pub fn matmul_into(
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
) {
    ab_product(a, b, out, accumulate, pack, pool, lanes, &|_, _| {});
}

/// `out = f(a × b)` — the forward layer's `H = σ(A·W)` — with `f`
/// applied to each block of output rows as it is stored, on the pooled
/// path too (every chunk runs the epilogue on its own rows). `f` reads
/// each product exactly once, so this is bitwise [`matmul_into`]
/// followed by [`Dense::map_inplace_pool`].
pub fn matmul_map_into(
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    f: impl Fn(f32) -> f32 + Sync,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
) {
    let epi = |_, rows: &mut [f32]| {
        for v in rows {
            *v = f(*v);
        }
    };
    ab_product(a, b, out, false, pack, pool, lanes, &epi);
}

/// `out (+)= a × b`, handing each block of finished output rows to
/// `epi(first_row, rows)`; on the naive fallback (see [`skip_matters`])
/// `epi` runs once over the whole output.
#[allow(clippy::too_many_arguments)]
fn ab_product(
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
    epi: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    assert_eq!(out.rows(), a.rows(), "matmul output rows mismatch");
    assert_eq!(out.cols(), b.cols(), "matmul output cols mismatch");
    if skip_matters(b, out, accumulate) {
        a.matmul_into_pool(b, out, accumulate, pool);
        epi(0, out.data_mut());
        return;
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let bp = layout(b, false, pack, lanes);
    product(
        a.data(),
        m,
        k,
        bp,
        n,
        out.data_mut(),
        accumulate,
        pool,
        lanes,
        epi,
    );
}

/// Blocked [`Dense::matmul_bt_into_pool`]: `out = a × bᵀ` (`a` is `m×k`, `b`
/// is `n×k`). The transpose happens inside the pack — no `Bᵀ` is ever
/// materialized for the scalar panels — or as one small transposing
/// copy for the lanes.
pub fn matmul_bt_into(
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
) {
    bt_product(a, b, out, pack, pool, lanes, &|_, _| {});
}

/// `out = (a × bᵀ) ⊙ f(z)` — the backward layer's `S = (Â'G)·Wᵀ` times
/// `σ′`, read off `H` — multiplying each block of output rows as it is stored. The
/// product is multiplied by `f(z)` rather than selected by it, so it is
/// bitwise [`matmul_bt_into`] followed by `out ⊙= f(z)`, `-0.0` and NaN
/// included.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bt_scale_into(
    a: &Dense,
    b: &Dense,
    z: &Dense,
    f: impl Fn(f32) -> f32 + Sync,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
) {
    assert_eq!(
        (z.rows(), z.cols()),
        (out.rows(), out.cols()),
        "matmul_bt_scale_into scale shape mismatch"
    );
    let (n, z) = (out.cols(), z.data());
    bt_product(a, b, out, pack, pool, lanes, &|i, rows: &mut [f32]| {
        for (o, &zv) in rows.iter_mut().zip(&z[i * n..]) {
            *o *= f(zv);
        }
    });
}

fn bt_product(
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
    lanes: Option<Avx2>,
    epi: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt dimension mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (a.rows(), b.rows()),
        "matmul_bt_into output shape mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let bp = layout(b, true, pack, lanes);
    product(
        a.data(),
        m,
        k,
        bp,
        n,
        out.data_mut(),
        false,
        pool,
        lanes,
        epi,
    );
}

/// Blocked [`Dense::matmul_at_into_pool`]: `out = aᵀ × b` (`a` is `r×m`, `b`
/// is `r×n`, result `m×n`). Pack-free input-row-blocked outer product
/// (see `at_rows`, or its lanes, whose row blocks are sized to stay in
/// L1); parallelism splits the output rows exactly like the naive pooled
/// kernel (same cutoff, same `even_chunks`), which is bitwise invisible
/// because output rows are independent.
pub fn matmul_at_into(a: &Dense, b: &Dense, out: &mut Dense, pool: &Pool, lanes: Option<Avx2>) {
    assert_eq!(a.rows(), b.rows(), "matmul_at dimension mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (a.cols(), b.cols()),
        "matmul_at_into output shape mismatch"
    );
    let (r, m, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.data(), b.data());
    let rows = |js: std::ops::Range<usize>, out: &mut [f32]| match lanes {
        Some(l) => l.at_rows(a, m, b, n, r, js, out),
        None => at_rows(a, m, b, n, r, js, out),
    };
    if runs_inline(pool, r * m * n) {
        rows(0..m, out.data_mut());
        return;
    }
    let ranges = even_chunks(m, pool.threads());
    pool.run_disjoint_rows(out.data_mut(), n, &ranges, |chunk, out_rows| {
        rows(ranges[chunk].clone(), out_rows);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    /// The scalar engine, and the lanes where the CPU has them.
    fn engines() -> Vec<Option<Avx2>> {
        let mut v = vec![None];
        v.extend(Avx2::detect().map(Some));
        v
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense::from_fn(rows, cols, |_, _| {
            // Mix in exact zeros so the naive zero-skip path is exercised.
            if rng.gen::<f32>() < 0.2 {
                0.0
            } else {
                rng.gen_range(-1.0..=1.0)
            }
        })
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise() {
        let pool = Pool::new(1);
        let mut pack = PackBuf::new();
        for lanes in engines() {
            for (m, k, n) in [(7, 5, 9), (64, 32, 16), (1, 1, 1), (13, 8, 8), (100, 3, 17)] {
                let a = random(m, k, 1);
                let b = random(k, n, 2);
                let mut naive = Dense::zeros(m, n);
                a.matmul_into(&b, &mut naive, false);
                let mut blocked = Dense::zeros(m, n);
                matmul_into(&a, &b, &mut blocked, false, &mut pack, &pool, lanes);
                assert_eq!(bits(&naive), bits(&blocked), "shape {m}x{k}x{n} {lanes:?}");
            }
        }
    }

    #[test]
    fn blocked_accumulate_matches_naive_bitwise() {
        let pool = Pool::new(2);
        let mut pack = PackBuf::new();
        let a = random(33, 17, 3);
        let b = random(17, 12, 4);
        // Accumulator contents must be sum-reachable (never -0.0): use a
        // prior product, exactly like the trainers do.
        let mut naive = a.matmul(&b);
        let seed = naive.clone();
        a.matmul_into(&b, &mut naive, true);
        for lanes in engines() {
            let mut blocked = seed.clone();
            matmul_into(&a, &b, &mut blocked, true, &mut pack, &pool, lanes);
            assert_eq!(bits(&naive), bits(&blocked), "{lanes:?}");
        }
    }

    #[test]
    fn blocked_bt_and_at_match_naive_bitwise() {
        let pool = Pool::new(1);
        let mut pack = PackBuf::new();
        let a = random(21, 10, 5);
        let b = random(14, 10, 6);
        let h = random(50, 6, 7);
        let g = random(50, 11, 8);
        for lanes in engines() {
            let mut blocked = Dense::zeros(21, 14);
            matmul_bt_into(&a, &b, &mut blocked, &mut pack, &pool, lanes);
            assert_eq!(bits(&a.matmul_bt(&b)), bits(&blocked), "{lanes:?}");

            let mut blocked = Dense::zeros(6, 11);
            matmul_at_into(&h, &g, &mut blocked, &pool, lanes);
            assert_eq!(bits(&h.matmul_at(&g)), bits(&blocked), "{lanes:?}");
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let pool = Pool::new(1);
        let mut pack = PackBuf::new();
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = Dense::zeros(m, k);
            let b = Dense::zeros(k, n);
            let mut naive = Dense::zeros(m, n);
            a.matmul_into(&b, &mut naive, false);
            for lanes in engines() {
                let mut out = Dense::zeros(m, n);
                matmul_into(&a, &b, &mut out, false, &mut pack, &pool, lanes);
                assert_eq!(bits(&naive), bits(&out));
                let mut out = Dense::zeros(k, m);
                matmul_at_into(&a, &Dense::zeros(m, m), &mut out, &pool, lanes);
                assert!(out.data().iter().all(|&v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn pack_buf_grows_once() {
        let mut pack = PackBuf::new();
        pack.reserve(100);
        let p0 = pack.panels.as_ptr();
        pack.reserve(80); // smaller: no move
        assert_eq!(p0, pack.panels.as_ptr());
    }
}
