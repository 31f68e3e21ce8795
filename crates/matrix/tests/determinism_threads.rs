//! Bitwise determinism of the naive kernel engine under a thread pool.
//!
//! The contract (DESIGN.md, hybrid rank×thread section): every naive
//! kernel dispatched through a [`ComputeCtx`] produces output **bitwise
//! identical** to its serial counterpart at any thread count, because
//! chunks write disjoint output rows with the serial loop body and nothing
//! is reduced across threads. These tests pin that down over qc-seeded
//! shapes, including empty rows, skewed (hub-heavy) sparsity, and row
//! counts far above the chunk count.

use pargcn_matrix::{ComputeCtx, Csr, Dense, KernelKind};
use pargcn_util::pool::Pool;
use pargcn_util::qc;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// The naive engine on `t` threads.
fn naive(t: usize) -> ComputeCtx {
    ComputeCtx::with_threads(t).with_kernel(KernelKind::Naive)
}

fn bits(d: &Dense) -> Vec<u32> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

/// Random CSR with forced empty rows and a few dense "hub" rows, so the
/// nnz-weighted chunking sees the skew it exists for.
fn random_csr(rng: &mut StdRng, rows: usize, cols: usize) -> Csr {
    let mut coo = Vec::new();
    for r in 0..rows {
        let nnz = match rng.gen_range(0..10u32) {
            0..=2 => 0,                          // empty row
            9 => rng.gen_range(0..cols.min(64)), // hub row
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

#[test]
fn spmm_bitwise_equal_across_thread_counts() {
    qc::run(24, |rng| {
        let rows = rng.gen_range(1..600);
        let cols = rng.gen_range(1..400);
        let d = rng.gen_range(1..48);
        let a = random_csr(rng, rows, cols);
        let h = Dense::random(cols, d, rng);
        let expected = bits(&a.spmm(&h));
        for t in THREAD_COUNTS {
            let ctx = naive(t);
            assert_eq!(bits(&ctx.spmm(&a, &h)), expected, "spmm at {t} threads");
            // The accumulate path too.
            let mut out = a.spmm(&h);
            ctx.spmm_into(&a, &h, &mut out, true);
            let mut twice = a.spmm(&h);
            a.spmm_into(&h, &mut twice, true);
            assert_eq!(bits(&out), bits(&twice), "spmm accumulate at {t} threads");
        }
    });
}

#[test]
fn matmul_bitwise_equal_across_thread_counts() {
    qc::run(24, |rng| {
        let m = rng.gen_range(1..400);
        let k = rng.gen_range(1..48);
        let n = rng.gen_range(1..48);
        let a = Dense::random(m, k, rng);
        let b = Dense::random(k, n, rng);
        let expected = bits(&a.matmul(&b));
        for t in THREAD_COUNTS {
            assert_eq!(
                bits(&naive(t).matmul(&a, &b)),
                expected,
                "matmul at {t} threads"
            );
        }
    });
}

#[test]
fn matmul_bt_bitwise_equal_across_thread_counts() {
    qc::run(24, |rng| {
        let m = rng.gen_range(1..400);
        let k = rng.gen_range(1..48);
        let n = rng.gen_range(1..64);
        let a = Dense::random(m, k, rng);
        let b = Dense::random(n, k, rng);
        let expected = bits(&a.matmul_bt(&b));
        for t in THREAD_COUNTS {
            assert_eq!(
                bits(&naive(t).matmul_bt(&a, &b)),
                expected,
                "matmul_bt at {t} threads"
            );
        }
    });
}

#[test]
fn matmul_at_bitwise_equal_across_thread_counts() {
    qc::run(24, |rng| {
        let n = rng.gen_range(1..400);
        let m = rng.gen_range(1..64);
        let k = rng.gen_range(1..48);
        let a = Dense::random(n, m, rng);
        let b = Dense::random(n, k, rng);
        let expected = bits(&a.matmul_at(&b));
        for t in THREAD_COUNTS {
            assert_eq!(
                bits(&naive(t).matmul_at(&a, &b)),
                expected,
                "matmul_at at {t} threads"
            );
        }
    });
}

#[test]
fn map_bitwise_equal_across_thread_counts() {
    qc::run(16, |rng| {
        let m = rng.gen_range(1..500);
        let n = rng.gen_range(1..64);
        let a = Dense::random(m, n, rng);
        let f = |v: f32| (v - 0.5).max(0.0);
        let expected = bits(&a.map(f));
        for t in THREAD_COUNTS {
            let pool = Pool::new(t);
            assert_eq!(bits(&a.map_pool(&pool, f)), expected, "map at {t} threads");
            let mut inplace = a.clone();
            inplace.map_inplace_pool(&pool, f);
            assert_eq!(bits(&inplace), expected, "map_inplace at {t} threads");
        }
    });
}

#[test]
fn rows_far_exceeding_chunk_count() {
    // One big deterministic case: 20k rows on a 7-thread pool, so every
    // chunk spans thousands of rows.
    let mut rng = StdRng::seed_from_u64(42);
    let a = random_csr(&mut rng, 20_000, 500);
    let h = Dense::random(500, 16, &mut rng);
    let expected = bits(&a.spmm(&h));
    for t in THREAD_COUNTS {
        assert_eq!(bits(&naive(t).spmm(&a, &h)), expected);
    }
}
