//! Bitwise equivalence of the blocked kernel engine and the naive
//! reference, dispatched through [`ComputeCtx`].
//!
//! The engine contract (DESIGN.md §10): for every GEMM variant and SpMM,
//! at every pool size, the blocked engine produces output **bitwise
//! identical** to the naive loops — every output element is a single
//! accumulator summing its terms in the one canonical ascending order,
//! and no tiling or chunking ever regroups a sum. These tests sweep
//! qc-seeded shapes plus the adversarial corners (0-row/0-col matrices,
//! 1-wide operands, dims that are not tile multiples) at pool sizes
//! t ∈ {1, 2, 7}, and pin the shape-derived FLOP accounting.
//!
//! Every blocked check runs through the context as dispatched: the
//! widest lanes the CPU has (AVX-512F, else AVX2), the naive loops
//! without AVX2 (CI asserts its hosts have AVX2, so there the lanes are
//! what is checked; the width-parity unit tests in `ctx.rs` check the
//! narrower width too). Special
//! values — NaN, ±∞, `-0.0` and ReLU-style half-zero operands — are
//! compared bit for bit, except that one NaN equals another: IEEE 754
//! leaves open which NaN payload an operation returns, and Rust does not
//! fix it either.

use pargcn_matrix::{ComputeCtx, Csr, Dense, KernelKind};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, StdRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Tile-adversarial dimension corners: degenerate (0), 1-wide, exactly
/// the lanes' `A·B` row tile (4) and 8- and 16-wide column tiles (the
/// 4×16 and 4×8 register tiles, the SpMM column tile 16), one off either
/// side of each, and sizes well past one tile.
const EDGE_DIMS: [usize; 10] = [0, 1, 3, 4, 5, 8, 15, 16, 17, 37];

/// The bits of every element, with every NaN read as the one quiet NaN.
fn bits(d: &Dense) -> Vec<u32> {
    d.data()
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// Dense matrix with ~20% exact zeros, so the naive kernels' `aik == 0.0`
/// skip paths are exercised against the blocked engine's skip-free loops.
fn dense(rng: &mut StdRng, r: usize, c: usize) -> Dense {
    Dense::from_fn(r, c, |_, _| {
        if rng.gen_range(0..5u32) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0..2.0f32)
        }
    })
}

fn random_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        let nnz = match rng.gen_range(0..8u32) {
            0..=1 => 0,
            7 => rng.gen_range(0..cols.min(32)),
            _ => rng.gen_range(0..4),
        };
        for _ in 0..nnz {
            coo.push((
                r as u32,
                rng.gen_range(0..cols as u32),
                rng.gen_range(-1.0..1.0),
            ));
        }
    }
    Csr::from_coo(rows, cols, coo)
}

fn ctx(kernel: KernelKind, threads: usize) -> ComputeCtx {
    ComputeCtx::with_threads(threads).with_kernel(kernel)
}

/// One qc-drawn dimension: mostly edge cases, sometimes a larger free
/// size so the multi-tile and parallel-cutoff paths run too.
fn dim(rng: &mut StdRng) -> usize {
    if rng.gen_range(0..3u32) == 0 {
        rng.gen_range(18..90)
    } else {
        EDGE_DIMS[rng.gen_range(0..EDGE_DIMS.len())]
    }
}

/// A nonzero [`dim`], for operand sides that must stay conformable with
/// a nonempty output.
fn dim_nz(rng: &mut StdRng) -> usize {
    dim(rng).max(1)
}

#[test]
fn gemm_all_variants_blocked_equals_naive_bitwise() {
    qc::run(48, |rng| {
        let (m, k, n) = (dim(rng), dim(rng), dim(rng));
        let a = dense(rng, m, k);
        let b = dense(rng, k, n);
        let bt = dense(rng, n, k);
        let at_b = dense(rng, m, n);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            let blocked = ctx(KernelKind::Blocked, t);
            assert_eq!(
                bits(&naive.matmul(&a, &b)),
                bits(&blocked.matmul(&a, &b)),
                "matmul {m}x{k}x{n} t={t}"
            );
            assert_eq!(
                bits(&naive.matmul_bt(&a, &bt)),
                bits(&blocked.matmul_bt(&a, &bt)),
                "matmul_bt {m}x{k}x{n} t={t}"
            );
            assert_eq!(
                bits(&naive.matmul_at(&a, &at_b)),
                bits(&blocked.matmul_at(&a, &at_b)),
                "matmul_at {m}x{k}x{n} t={t}"
            );
        }
    });
}

#[test]
fn gemm_accumulate_blocked_equals_naive_bitwise() {
    qc::run(32, |rng| {
        let (m, k, n) = (dim(rng), dim_nz(rng), dim(rng));
        let a = dense(rng, m, k);
        let b = dense(rng, k, n);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            // Seed the accumulator with a prior kernel output — the
            // sum-reachable state real training buffers are always in
            // (never -0.0; see DESIGN.md §10 on the zero-skip argument).
            let seed = naive.matmul(&a, &b);
            let mut out_n = seed.clone();
            naive.matmul_into(&a, &b, &mut out_n, true);
            let blocked = ctx(KernelKind::Blocked, t);
            let mut out_b = seed.clone();
            blocked.matmul_into(&a, &b, &mut out_b, true);
            assert_eq!(bits(&out_n), bits(&out_b), "accumulate {m}x{k}x{n} t={t}");
        }
    });
}

#[test]
fn spmm_blocked_equals_naive_bitwise() {
    qc::run(48, |rng| {
        let rows = dim(rng);
        let cols = dim_nz(rng);
        let d = dim(rng);
        let a = random_csr(rng, rows, cols);
        let h = dense(rng, cols, d);
        for t in THREAD_COUNTS {
            let naive = ctx(KernelKind::Naive, t);
            let out_n = naive.spmm(&a, &h);
            let mut acc_n = out_n.clone();
            naive.spmm_into(&a, &h, &mut acc_n, true);
            let blocked = ctx(KernelKind::Blocked, t);
            let mut acc_b = blocked.spmm(&a, &h);
            assert_eq!(bits(&out_n), bits(&acc_b), "spmm {rows}x{cols}x{d} t={t}");
            blocked.spmm_into(&a, &h, &mut acc_b, true);
            assert_eq!(
                bits(&acc_n),
                bits(&acc_b),
                "spmm accumulate {rows}x{cols}x{d} t={t}"
            );
        }
    });
}

/// What an operand is made of, for the special-value sweeps.
#[derive(Clone, Copy, Debug)]
enum Fill {
    /// Uniform in (−2, 2).
    Plain,
    /// A ReLU output: about half exact `+0.0`.
    Relu,
    /// About a third `+0.0` and a third `-0.0`.
    SignedZeros,
    /// About one element in eight NaN, `+∞` or `-∞`, a few `±0.0`.
    NonFinite,
}

const FILLS: [Fill; 4] = [Fill::Plain, Fill::Relu, Fill::SignedZeros, Fill::NonFinite];

fn filled(rng: &mut StdRng, r: usize, c: usize, fill: Fill) -> Dense {
    Dense::from_fn(r, c, |_, _| {
        let v = rng.gen_range(-2.0..2.0f32);
        match (fill, rng.gen_range(0..24u32)) {
            (Fill::Plain, _) => v,
            (Fill::Relu, _) => v.max(0.0),
            (Fill::SignedZeros, 0..=7) => 0.0,
            (Fill::SignedZeros, 8..=15) => -0.0,
            (Fill::NonFinite, 0) => f32::NAN,
            (Fill::NonFinite, 1) => f32::INFINITY,
            (Fill::NonFinite, 2) => f32::NEG_INFINITY,
            (Fill::NonFinite, 3) => 0.0,
            (Fill::NonFinite, 4) => -0.0,
            _ => v,
        }
    })
}

/// Row counts around the 4-row tile, reductions around the 8-lane width,
/// and output widths at and around the 16- and 32-wide tiles.
const SPECIAL_M: [usize; 4] = [1, 6, 37, 61];
const SPECIAL_K: [usize; 4] = [3, 16, 17, 32];
const SPECIAL_N: [usize; 5] = [16, 32, 5, 19, 40];

#[test]
fn gemm_special_values_blocked_equals_naive_bitwise() {
    qc::run(24, |rng| {
        let m = SPECIAL_M[rng.gen_range(0..SPECIAL_M.len())];
        let k = SPECIAL_K[rng.gen_range(0..SPECIAL_K.len())];
        let n = SPECIAL_N[rng.gen_range(0..SPECIAL_N.len())];
        for fa in FILLS {
            for fb in FILLS {
                let a = filled(rng, m, k, fa);
                let b = filled(rng, k, n, fb);
                let bt = filled(rng, n, k, fb);
                let g = filled(rng, m, n, fb);
                // An accumulator holding -0.0 and non-finite values.
                let seed = filled(rng, m, n, Fill::SignedZeros);
                let seed_nf = filled(rng, m, n, Fill::NonFinite);
                for t in [1, 2] {
                    let naive = ctx(KernelKind::Naive, t);
                    let mut acc_n = [seed.clone(), seed_nf.clone()];
                    for acc in &mut acc_n {
                        naive.matmul_into(&a, &b, acc, true);
                    }
                    let blocked = ctx(KernelKind::Blocked, t);
                    let what = format!("{m}x{k}x{n} a={fa:?} b={fb:?} t={t}");
                    assert_eq!(
                        bits(&naive.matmul(&a, &b)),
                        bits(&blocked.matmul(&a, &b)),
                        "matmul {what}"
                    );
                    assert_eq!(
                        bits(&naive.matmul_bt(&a, &bt)),
                        bits(&blocked.matmul_bt(&a, &bt)),
                        "matmul_bt {what}"
                    );
                    assert_eq!(
                        bits(&naive.matmul_at(&a, &g)),
                        bits(&blocked.matmul_at(&a, &g)),
                        "matmul_at {what}"
                    );
                    for (acc_n, seed) in acc_n.iter().zip([&seed, &seed_nf]) {
                        let mut acc_b = seed.clone();
                        blocked.matmul_into(&a, &b, &mut acc_b, true);
                        assert_eq!(bits(acc_n), bits(&acc_b), "accumulate {what}");
                    }
                }
            }
        }
    });
}

#[test]
fn spmm_special_values_blocked_equals_naive_bitwise() {
    qc::run(16, |rng| {
        let rows = SPECIAL_M[rng.gen_range(0..SPECIAL_M.len())];
        let cols = 1 + rng.gen_range(0..40usize);
        let d = [16usize, 32, 64, 112, 21][rng.gen_range(0..5usize)];
        let a = random_csr(rng, rows, cols);
        for fill in FILLS {
            let h = filled(rng, cols, d, fill);
            let seed = filled(rng, rows, d, Fill::NonFinite);
            for t in [1, 2] {
                let naive = ctx(KernelKind::Naive, t);
                let mut acc_n = seed.clone();
                naive.spmm_into(&a, &h, &mut acc_n, true);
                let blocked = ctx(KernelKind::Blocked, t);
                let what = format!("{rows}x{cols}x{d} h={fill:?} t={t}");
                assert_eq!(
                    bits(&naive.spmm(&a, &h)),
                    bits(&blocked.spmm(&a, &h)),
                    "spmm {what}"
                );
                let mut acc_b = seed.clone();
                blocked.spmm_into(&a, &h, &mut acc_b, true);
                assert_eq!(bits(&acc_n), bits(&acc_b), "spmm accumulate {what}");
            }
        }
    });
}

/// On a host without AVX2 the blocked engine runs the naive loops, so
/// every blocked-vs-naive check above compares naive with itself. CI
/// runs this with `--ignored` to prove its hosts check the lanes, and to
/// print which width `blocked` runs there (the width-parity unit tests
/// in `ctx.rs` check both widths where the host has them).
#[cfg(target_arch = "x86_64")]
#[test]
#[ignore = "asserts a property of the host; CI runs it with --ignored"]
fn this_host_runs_the_blocked_engine_on_avx2_lanes() {
    let lanes = ctx(KernelKind::Blocked, 1).lanes();
    let lanes = lanes.expect("no AVX2: the blocked engine would run the naive loops");
    println!(
        "blocked runs {}-float {} lanes on this host",
        lanes.width(),
        lanes.name()
    );
}

#[test]
fn flops_are_shape_derived_and_engine_independent() {
    let a = Dense::zeros(12, 7);
    let b = Dense::zeros(7, 5);
    let g = Dense::zeros(12, 5);
    let csr = Csr::from_coo(4, 7, vec![(0, 1, 1.0), (2, 3, 2.0), (2, 6, -1.0)]);
    let h = Dense::zeros(7, 3);
    for kernel in [KernelKind::Naive, KernelKind::Blocked] {
        let c = ctx(kernel, 1);
        let _ = c.matmul(&a, &b); // 2·12·7·5
        let _ = c.matmul_bt(&a, &a); // 2·12·7·12
        let _ = c.matmul_at(&a, &g); // 2·12·7·5
        let _ = c.spmm(&csr, &h); // 2·3·3
        assert_eq!(
            c.take_flops(),
            2 * (12 * 7 * 5) + 2 * (12 * 7 * 12) + 2 * (12 * 7 * 5) + 2 * (3 * 3),
            "{kernel:?}"
        );
        assert_eq!(c.flops(), 0, "take_flops must drain");
    }
}
