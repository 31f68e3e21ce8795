//! The dense products of the blocked engine on SIMD lanes (16-float
//! AVX-512F or 8-float AVX2, see [`crate::lanes`]): the drivers that lay
//! out the right operand, split output rows across the pool and enter the
//! register tiles.
//!
//! `A·B` reads the small row-major right operand directly, so it needs
//! no pack at all; `A·Bᵀ` makes one transposing copy of it into a
//! [`PackBuf`]. `Aᵀ·B` (the `ΔW` gradient shape: a huge reduction
//! dimension onto a tiny output) blocks its input rows so that every
//! output tile rereads them from L1.
//!
//! **Bitwise contract** (DESIGN.md §10): every output element is produced
//! by a single accumulator summing its `k` terms in strictly ascending
//! order — exactly the naive kernels' per-element order. The naive `A·B`
//! skips `a == 0.0` terms that the tiles multiply through; that is a
//! bitwise no-op unless `B` holds a non-finite value (`0·∞` is NaN) or an
//! accumulated output holds `-0.0` (a `+0.0` term would flip it), so
//! exactly those calls run the naive loop instead. The lanes and the
//! naive loops therefore agree bit for bit on every input, at every
//! thread count. The property suite (`tests/kernel_engine.rs`) pins this
//! across adversarial shapes and values.
//!
//! The layer loop's element-wise epilogues ride along in the stores:
//! [`matmul_map_into`] writes `H = σ(A·W)` in place of the product, and
//! [`matmul_bt_scale_into`] multiplies `S` by `σ′` as it is stored.
//! Each block of output rows gets its epilogue while it is still in L1,
//! with the same scalar operations as the separate passes, so the fused
//! and unfused forms have the same bits.

use crate::dense::{run_rows, Dense};
use crate::lanes::Lanes;
use pargcn_util::pool::{even_chunks, Pool};

/// Grow-once scratch for the transposed right operand of `A·Bᵀ`. One
/// per [`crate::ComputeCtx`]; reused by every call, so after the first
/// pass over the largest operand shapes the engine is allocation-free.
#[derive(Debug, Default)]
pub(crate) struct PackBuf {
    /// The row-major `Bᵀ` of the last `A·Bᵀ`.
    bt: Vec<f32>,
}

impl PackBuf {
    /// Grows the buffer to at least the given float count. Called once
    /// at workspace setup (`EpochWorkspace::new`) so that no steady-state
    /// kernel call ever needs to grow it.
    pub(crate) fn reserve(&mut self, floats: usize) {
        if self.bt.len() < floats {
            self.bt.resize(floats, 0.0);
        }
    }

    /// `b` (`n×k`, row-major) transposed into the row-major `k×n` `Bᵀ`
    /// at the front of the buffer.
    fn transpose(&mut self, b: &Dense) -> &[f32] {
        let (n, k) = (b.rows(), b.cols());
        self.reserve(k * n);
        for j in 0..n {
            for (kk, &v) in b.row(j).iter().enumerate() {
                self.bt[kk * n + j] = v;
            }
        }
        &self.bt[..k * n]
    }
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

/// `out (+)= a·bp` over a whole `m×n` output (`bp` the row-major `k×n`
/// right operand), its rows split across the pool by
/// [`run_rows`] with [`even_chunks`] like the naive kernels. `epi` sees
/// global row indices.
#[allow(clippy::too_many_arguments)]
fn product(
    l: Lanes,
    a: &[f32],
    (m, k, n): (usize, usize, usize),
    bp: &[f32],
    out: &mut [f32],
    accumulate: bool,
    pool: &Pool,
    epi: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    let split = |t| even_chunks(m, t);
    run_rows(Some(pool), m * k * n, out, n, split, |rows, out_rows| {
        let a_rows = &a[rows.start * k..rows.end * k];
        let mut epi = |i, o: &mut [f32]| epi(rows.start + i, o);
        l.gemm_rows(a_rows, rows.len(), k, bp, n, out_rows, accumulate, &mut epi);
    });
}

/// `out (+)= a × b`.
pub(crate) fn matmul_into(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pool: &Pool,
) {
    ab_product(l, a, b, out, accumulate, pool, &|_, _| {});
}

/// `out = f(a × b)` — the forward layer's `H = σ(A·W)` — with `f`
/// applied to each block of output rows as it is stored, on the pooled
/// path too (every chunk runs the epilogue on its own rows). `f` reads
/// each product exactly once, so this is bitwise [`matmul_into`]
/// followed by [`Dense::map_inplace_pool`].
pub(crate) fn matmul_map_into(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    f: impl Fn(f32) -> f32 + Sync,
    pool: &Pool,
) {
    let epi = |_, rows: &mut [f32]| {
        for v in rows {
            *v = f(*v);
        }
    };
    ab_product(l, a, b, out, false, pool, &epi);
}

/// `out (+)= a × b`, handing each block of finished output rows to
/// `epi(first_row, rows)`; on the naive fallback (see [`skip_matters`])
/// `epi` runs once over the whole output.
fn ab_product(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    accumulate: bool,
    pool: &Pool,
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
    let shape = (a.rows(), a.cols(), b.cols());
    product(
        l,
        a.data(),
        shape,
        b.data(),
        out.data_mut(),
        accumulate,
        pool,
        epi,
    );
}

/// `out = a × bᵀ` (`a` is `m×k`, `b` is `n×k`), through one small
/// transposing copy of `b` into `pack`.
pub(crate) fn matmul_bt_into(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
) {
    bt_product(l, a, b, out, pack, pool, &|_, _| {});
}

/// `out = (a × bᵀ) ⊙ f(z)` — the backward layer's `S = (Â'G)·Wᵀ` times
/// `σ′`, read off `H` — multiplying each block of output rows as it is stored. The
/// product is multiplied by `f(z)` rather than selected by it, so it is
/// bitwise [`matmul_bt_into`] followed by `out ⊙= f(z)`, `-0.0` and NaN
/// included.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_bt_scale_into(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    z: &Dense,
    f: impl Fn(f32) -> f32 + Sync,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
) {
    assert_eq!(
        (z.rows(), z.cols()),
        (out.rows(), out.cols()),
        "matmul_bt_scale_into scale shape mismatch"
    );
    let (n, z) = (out.cols(), z.data());
    bt_product(l, a, b, out, pack, pool, &|i, rows: &mut [f32]| {
        for (o, &zv) in rows.iter_mut().zip(&z[i * n..]) {
            *o *= f(zv);
        }
    });
}

fn bt_product(
    l: Lanes,
    a: &Dense,
    b: &Dense,
    out: &mut Dense,
    pack: &mut PackBuf,
    pool: &Pool,
    epi: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt dimension mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (a.rows(), b.rows()),
        "matmul_bt_into output shape mismatch"
    );
    let shape = (a.rows(), a.cols(), b.rows());
    let bp = pack.transpose(b);
    product(l, a.data(), shape, bp, out.data_mut(), false, pool, epi);
}

/// `out = aᵀ × b` (`a` is `r×m`, `b` is `r×n`, result `m×n`): the lanes'
/// input-row-blocked outer product, whose row blocks are sized to stay
/// in L1. The pool splits the output rows by [`run_rows`] with
/// [`even_chunks`], which is bitwise invisible because output rows are
/// independent.
pub(crate) fn matmul_at_into(l: Lanes, a: &Dense, b: &Dense, out: &mut Dense, pool: &Pool) {
    assert_eq!(a.rows(), b.rows(), "matmul_at dimension mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (a.cols(), b.cols()),
        "matmul_at_into output shape mismatch"
    );
    let (r, m, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.data(), b.data());
    let split = |t| even_chunks(m, t);
    run_rows(
        Some(pool),
        r * m * n,
        out.data_mut(),
        n,
        split,
        |js, out| l.at_rows(a, m, b, n, r, js, out),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

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
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(1);
        for (m, k, n) in [(7, 5, 9), (64, 32, 16), (1, 1, 1), (13, 8, 8), (100, 3, 17)] {
            let a = random(m, k, 1);
            let b = random(k, n, 2);
            let mut naive = Dense::zeros(m, n);
            a.matmul_into(&b, &mut naive, false);
            let mut blocked = Dense::zeros(m, n);
            matmul_into(l, &a, &b, &mut blocked, false, &pool);
            assert_eq!(bits(&naive), bits(&blocked), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_accumulate_matches_naive_bitwise() {
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(2);
        let a = random(33, 17, 3);
        let b = random(17, 12, 4);
        // Accumulator contents must be sum-reachable (never -0.0): use a
        // prior product, exactly like the trainers do.
        let mut naive = a.matmul(&b);
        let mut blocked = naive.clone();
        a.matmul_into(&b, &mut naive, true);
        matmul_into(l, &a, &b, &mut blocked, true, &pool);
        assert_eq!(bits(&naive), bits(&blocked));
    }

    #[test]
    fn blocked_bt_and_at_match_naive_bitwise() {
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(1);
        let mut pack = PackBuf::default();
        let a = random(21, 10, 5);
        let b = random(14, 10, 6);
        let h = random(50, 6, 7);
        let g = random(50, 11, 8);
        let mut blocked = Dense::zeros(21, 14);
        matmul_bt_into(l, &a, &b, &mut blocked, &mut pack, &pool);
        assert_eq!(bits(&a.matmul_bt(&b)), bits(&blocked));

        let mut blocked = Dense::zeros(6, 11);
        matmul_at_into(l, &h, &g, &mut blocked, &pool);
        assert_eq!(bits(&h.matmul_at(&g)), bits(&blocked));
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let Some(l) = Lanes::detect() else { return };
        let pool = Pool::new(1);
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = Dense::zeros(m, k);
            let b = Dense::zeros(k, n);
            let mut naive = Dense::zeros(m, n);
            a.matmul_into(&b, &mut naive, false);
            let mut out = Dense::zeros(m, n);
            matmul_into(l, &a, &b, &mut out, false, &pool);
            assert_eq!(bits(&naive), bits(&out));
            let mut out = Dense::zeros(k, m);
            matmul_at_into(l, &a, &Dense::zeros(m, m), &mut out, &pool);
            assert!(out.data().iter().all(|&v| v.to_bits() == 0));
        }
    }

    #[test]
    fn pack_scratch_grows_once() {
        let mut pack = PackBuf::default();
        pack.reserve(100);
        let p0 = pack.bt.as_ptr();
        pack.reserve(80); // smaller: no move
        let _ = pack.transpose(&random(8, 10, 9)); // fits: no move
        assert_eq!(p0, pack.bt.as_ptr());
    }
}
