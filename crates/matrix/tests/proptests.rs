//! Randomized tests for the matrix kernels: the distributed algorithm's
//! correctness rests on SpMM/DMM linearity and on gather/scatter being
//! exact inverses, so these invariants are fuzzed over random shapes and
//! patterns via the seeded `pargcn_util::qc` runner (failures print the
//! case seed; replay with `PARGCN_QC_SEED=<seed>`).

use pargcn_matrix::{gather, norm, ComputeCtx, Csr, Dense, KernelKind};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, StdRng};

/// The naive loops on one thread.
fn naive() -> ComputeCtx {
    ComputeCtx::serial().with_kernel(KernelKind::Naive)
}

/// Dense matrix of exactly `r × c` with entries in `[-10, 10)`.
fn dense(rng: &mut StdRng, r: usize, c: usize) -> Dense {
    Dense::from_fn(r, c, |_, _| rng.gen_range(-10.0..10.0f32))
}

/// Random sparse matrix of shape `r × c` built from up to `r·c` COO
/// triplets (duplicates merge, like the proptest strategy it replaces).
fn csr(rng: &mut StdRng, r: usize, c: usize) -> Csr {
    let nnz = rng.gen_range(0..(r * c).max(1));
    let coo: Vec<(u32, u32, f32)> = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0..r as u32),
                rng.gen_range(0..c as u32),
                rng.gen_range(-4.0..4.0),
            )
        })
        .collect();
    Csr::from_coo(r, c, coo)
}

#[test]
fn spmm_matches_densified_multiply() {
    qc::check(|rng| {
        let a = csr(rng, 8, 6);
        let h = dense(rng, 6, 5);
        let ctx = naive();
        let sparse = ctx.spmm(&a, &h);
        let densified = ctx.matmul(&a.to_dense(), &h);
        assert!(sparse.approx_eq(&densified, 1e-4));
    });
}

#[test]
fn spmm_is_linear_in_h() {
    qc::check(|rng| {
        let a = csr(rng, 6, 6);
        let h1 = dense(rng, 6, 4);
        let h2 = dense(rng, 6, 4);
        let mut sum = h1.clone();
        sum.add_assign(&h2);
        let ctx = naive();
        let lhs = ctx.spmm(&a, &sum);
        let mut rhs = ctx.spmm(&a, &h1);
        rhs.add_assign(&ctx.spmm(&a, &h2));
        assert!(lhs.approx_eq(&rhs, 1e-3));
    });
}

/// Row-splitting SpMM and summing the per-block partial products over
/// matching column blocks reproduces the full product — the algebraic
/// fact behind Eq. 7 of the paper.
#[test]
fn spmm_row_split_recomposes() {
    qc::check(|rng| {
        let a = csr(rng, 8, 8);
        let h = dense(rng, 8, 3);
        let split = rng.gen_range(1usize..7);
        let ctx = naive();
        let full = ctx.spmm(&a, &h);
        let top: Vec<u32> = (0..split as u32).collect();
        let bot: Vec<u32> = (split as u32..8).collect();
        let a_top = a.select_rows(&top);
        let a_bot = a.select_rows(&bot);
        let z_top = ctx.spmm(&a_top, &h);
        let z_bot = ctx.spmm(&a_bot, &h);
        for (k, &i) in top.iter().enumerate() {
            assert_eq!(z_top.row(k), full.row(i as usize));
        }
        for (k, &i) in bot.iter().enumerate() {
            assert_eq!(z_bot.row(k), full.row(i as usize));
        }
    });
}

#[test]
fn transpose_preserves_values() {
    qc::check(|rng| {
        let a = csr(rng, 7, 5);
        let t = a.transpose();
        assert_eq!(a.nnz(), t.nnz());
        let ad = a.to_dense();
        let td = t.to_dense();
        for i in 0..7 {
            for j in 0..5 {
                assert_eq!(ad.get(i, j), td.get(j, i));
            }
        }
    });
}

#[test]
fn gather_then_scatter_is_identity_on_selected() {
    qc::check(|rng| {
        let h = dense(rng, 10, 4);
        let count = rng.gen_range(1..10usize);
        let raw_idx: std::collections::BTreeSet<u32> =
            (0..count).map(|_| rng.gen_range(0..10u32)).collect();
        let idx: Vec<u32> = raw_idx.into_iter().collect();
        let g = gather::gather_rows(&h, &idx);
        let mut dst = Dense::zeros(10, h.cols());
        gather::scatter_rows(&g, &idx, &mut dst);
        for &i in &idx {
            assert_eq!(dst.row(i as usize), h.row(i as usize));
        }
    });
}

#[test]
fn matmul_associativity_with_tolerance() {
    qc::check(|rng| {
        let a = dense(rng, 4, 4);
        let b = dense(rng, 4, 4);
        let c = dense(rng, 4, 4);
        let ctx = naive();
        let lhs = ctx.matmul(&ctx.matmul(&a, &b), &c);
        let rhs = ctx.matmul(&a, &ctx.matmul(&b, &c));
        assert!(lhs.approx_eq(&rhs, 1e-2));
    });
}

#[test]
fn from_coo_iter_roundtrip() {
    qc::check(|rng| {
        let r = rng.gen_range(1usize..8);
        let c = rng.gen_range(1usize..8);
        let coo: Vec<(u32, u32, f32)> = (0..r)
            .flat_map(|i| {
                (0..c)
                    .filter(move |j| (i + j) % 3 == 0)
                    .map(move |j| (i as u32, j as u32, (i * c + j) as f32))
            })
            .collect();
        let m = Csr::from_coo(r, c, coo.clone());
        let back: Vec<(u32, u32, f32)> = m.iter().collect();
        assert_eq!(coo, back);
    });
}

/// The COO / two-sort normalization `normalize_adjacency` replaced: `Ã`
/// assembled from triplets plus identity triplets, degrees summed over
/// `Ã`'s sorted rows, and `Â` rebuilt from scaled triplets.
fn normalize_reference(a: &Csr) -> Csr {
    let n = a.n_rows();
    let mut coo: Vec<(u32, u32, f32)> = a.iter().collect();
    coo.extend((0..n as u32).map(|i| (i, i, 1.0)));
    let tilde = Csr::from_coo(n, n, coo);
    let mut deg = vec![0.0f64; n];
    for (r, _c, v) in tilde.iter() {
        deg[r as usize] += v as f64;
    }
    let inv_sqrt: Vec<f32> = deg
        .iter()
        .map(|&d| {
            if d > 0.0 {
                (1.0 / d.sqrt()) as f32
            } else {
                0.0
            }
        })
        .collect();
    let scaled: Vec<(u32, u32, f32)> = tilde
        .iter()
        .map(|(r, c, v)| (r, c, inv_sqrt[r as usize] * v * inv_sqrt[c as usize]))
        .collect();
    Csr::from_coo(n, n, scaled)
}

/// `Â` from the one-pass normalization is bitwise the reference's — same
/// pattern, same value bits — over directed patterns with existing self
/// loops, isolated vertices, explicit zeros and negative weights.
#[test]
fn normalize_adjacency_matches_coo_reference_bitwise() {
    qc::run(300, |rng| {
        let n = rng.gen_range(1usize..40);
        let density = rng.gen_range(0.0..0.4);
        let isolated = rng.gen_range(0..n);
        let mut coo = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r == isolated || c == isolated || !rng.gen_bool(density) {
                    continue;
                }
                let v = match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => rng.gen_range(-3.0..0.0f32),
                    2 => 1.0,
                    _ => rng.gen_range(0.0..3.0f32),
                };
                coo.push((r as u32, c as u32, v));
            }
        }
        let a = Csr::from_coo(n, n, coo);
        let (got, want) = (norm::normalize_adjacency(&a), normalize_reference(&a));
        assert_eq!(got.indptr(), want.indptr());
        assert_eq!(got.indices(), want.indices());
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "Â value bits diverged (n={n})");
        assert_eq!(got.row_indices(isolated), [isolated as u32]);
    });
}
