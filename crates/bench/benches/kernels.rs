//! Criterion microbenchmarks for the matrix kernels driving GCN training:
//! SpMM (the convolution), DMM (parameter application), the `Xₘₙ ⊗ H` row
//! gather (message assembly), adjacency normalization, and the pooled
//! (multithreaded) kernel variants at 1/2/4 threads plus the bare pool
//! dispatch overhead.

use pargcn_core::activations::Activation;
use pargcn_graph::gen::{grid, rmat};
use pargcn_matrix::{gather, norm, ComputeCtx, Dense, KernelKind};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pargcn_util::pool::Pool;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Thread counts exercised by the threaded naive-kernel benchmarks. The
/// `t = 1` rows measure the pooled entry points' serial fallback, so the
/// gap to the plain kernels is the dispatch overhead, not the algorithm.
const THREADS: [usize; 3] = [1, 2, 4];

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    for (name, graph) in [
        ("road_10k", grid::road_network(10_000, 1)),
        ("rmat_10k", rmat::generate_sized(10_000, 8.0, false, 1)),
    ] {
        let a = graph.normalized_adjacency();
        for d in [16usize, 64] {
            let mut rng = StdRng::seed_from_u64(2);
            let h = Dense::random(a.n_cols(), d, &mut rng);
            group.throughput(Throughput::Elements((a.nnz() * d) as u64));
            group.bench_with_input(BenchmarkId::new(name, d), &d, |b, _| {
                b.iter(|| a.spmm(std::hint::black_box(&h)))
            });
        }
    }
    group.finish();
}

fn bench_dmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmm");
    let mut rng = StdRng::seed_from_u64(3);
    for (rows, k, n) in [(10_000usize, 32usize, 32usize), (10_000, 64, 16)] {
        let a = Dense::random(rows, k, &mut rng);
        let w = Dense::random(k, n, &mut rng);
        group.throughput(Throughput::Elements((rows * k * n) as u64));
        group.bench_function(format!("{rows}x{k}x{n}"), |b| {
            b.iter(|| a.matmul(std::hint::black_box(&w)))
        });
    }
    group.finish();
}

fn bench_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_rows");
    let mut rng = StdRng::seed_from_u64(4);
    let h = Dense::random(100_000, 32, &mut rng);
    for frac in [10usize, 2] {
        let idx: Vec<u32> = (0..100_000u32).step_by(frac).collect();
        group.throughput(Throughput::Bytes((idx.len() * 32 * 4) as u64));
        group.bench_function(format!("every_{frac}th"), |b| {
            let mut buf = Vec::new();
            b.iter(|| gather::gather_rows_into(std::hint::black_box(&h), &idx, &mut buf))
        });
    }
    group.finish();
}

fn bench_normalize(c: &mut Criterion) {
    let g = rmat::generate_sized(20_000, 8.0, false, 5);
    c.bench_function("normalize_adjacency_20k", |b| {
        b.iter(|| norm::normalize_adjacency(std::hint::black_box(g.adjacency())))
    });
}

/// Threaded SpMM over the skewed RMAT graph — the kernel the nnz-weighted
/// chunking exists for. Same shapes as `bench_spmm` so the speedup is
/// directly readable across groups.
fn bench_spmm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_threads");
    let graph = rmat::generate_sized(10_000, 8.0, false, 1);
    let a = graph.normalized_adjacency();
    let d = 64usize;
    let mut rng = StdRng::seed_from_u64(2);
    let h = Dense::random(a.n_cols(), d, &mut rng);
    group.throughput(Throughput::Elements((a.nnz() * d) as u64));
    for t in THREADS {
        let cctx = ComputeCtx::with_threads(t).with_kernel(KernelKind::Naive);
        group.bench_with_input(BenchmarkId::new("rmat_10k_d64", t), &t, |b, _| {
            b.iter(|| cctx.spmm(&a, std::hint::black_box(&h)))
        });
    }
    group.finish();
}

/// Threaded DMM (forward `H·W`) and its backward transposed forms
/// (`AᵀB` for `ΔW`, `G·Wᵀ` for the input gradient).
fn bench_dmm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmm_threads");
    let mut rng = StdRng::seed_from_u64(3);
    let (rows, k, n) = (10_000usize, 64usize, 16usize);
    let a = Dense::random(rows, k, &mut rng);
    let w = Dense::random(k, n, &mut rng);
    let g = Dense::random(rows, n, &mut rng);
    group.throughput(Throughput::Elements((rows * k * n) as u64));
    for t in THREADS {
        let cctx = ComputeCtx::with_threads(t).with_kernel(KernelKind::Naive);
        group.bench_with_input(BenchmarkId::new("matmul_10000x64x16", t), &t, |b, _| {
            b.iter(|| cctx.matmul(&a, std::hint::black_box(&w)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_at_10000x64x16", t), &t, |b, _| {
            b.iter(|| cctx.matmul_at(&a, std::hint::black_box(&g)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_bt_10000x16x64", t), &t, |b, _| {
            b.iter(|| cctx.matmul_bt(&g, std::hint::black_box(&w)))
        });
    }
    group.finish();
}

/// Bare pool dispatch cost: post-to-workers + latch wait with an empty
/// body, versus the same trip count inline. This is the fixed price every
/// pooled kernel pays, and what `MIN_PARALLEL_WORK` amortizes away.
fn bench_pool_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    for t in THREADS {
        let pool = Pool::new(t);
        group.bench_with_input(BenchmarkId::new("empty_run", t), &t, |b, &t| {
            b.iter(|| pool.run(std::hint::black_box(t), |_| {}))
        });
    }
    group.bench_function("inline_loop_4", |b| {
        b.iter(|| {
            for i in 0..4usize {
                std::hint::black_box(i);
            }
        })
    });
    group.finish();
}

/// Naive vs blocked kernel engine head-to-head on GCN-typical skinny
/// shapes (`n × {16,64,128}` features), single thread — the single-core
/// arithmetic headroom the blocked engine exists for — plus the fused
/// forward transform at one and two threads. `blocked` runs on
/// AVX2 lanes where the CPU has them; `scalar` is the same engine on its
/// portable fallback, so the `scalar`/`blocked` ratio is what the lanes
/// buy. Throughput is in multiply-add elements, so
/// `elements_per_s × 2 = FLOP/s` and the ratios read off directly at
/// equal shapes. Results are bitwise identical between engines
/// (determinism suite), so this is a pure speed comparison. Baseline:
/// `results/kernels_blocked.json`.
fn bench_kernel_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_engine");
    let blocked = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
    let engines = [
        ("naive", ComputeCtx::serial().with_kernel(KernelKind::Naive)),
        ("scalar", blocked.clone().without_lanes()),
        ("blocked", blocked),
    ];
    let mut rng = StdRng::seed_from_u64(6);

    // One rank's layer GEMMs on the road benchmark (roadNet-CA/16 split
    // over two ranks, a 32-32-16 GCN): H·W at both layers, ΔW = HᵀG at
    // both layers with H a ReLU output (half zeros), and S = G·Wᵀ from
    // the 16-wide output layer back to the 32-wide hidden one.
    let rows = 61_600usize;
    let relu = |d: Dense| d.map(|v| v.max(0.0));
    for (k, n) in [(32usize, 32usize), (32, 16)] {
        let h = relu(Dense::random(rows, k, &mut rng));
        let w = Dense::random(k, n, &mut rng);
        let g = Dense::random(rows, n, &mut rng);
        // Outputs are preallocated, as in the layer loop: a fresh
        // rank-sized output per call would time page faults.
        let mut z = Dense::zeros(rows, n);
        let mut dw = Dense::zeros(k, n);
        group.throughput(Throughput::Elements((rows * k * n) as u64));
        for (name, cctx) in &engines {
            group.bench_with_input(
                BenchmarkId::new(format!("gemm_{name}"), format!("{rows}x{k}x{n}")),
                &n,
                |b, _| b.iter(|| cctx.matmul_into(std::hint::black_box(&h), &w, &mut z, false)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("gemm_at_{name}"), format!("{rows}x{k}x{n}_relu")),
                &n,
                |b, _| b.iter(|| cctx.matmul_at_into(std::hint::black_box(&h), &g, &mut dw)),
            );
        }
    }
    let g = Dense::random(rows, 16, &mut rng);
    let w = Dense::random(32, 16, &mut rng);
    let mut s = Dense::zeros(rows, 32);
    group.throughput(Throughput::Elements((rows * 16 * 32) as u64));
    for (name, cctx) in &engines {
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_bt_{name}"), format!("{rows}x16x32")),
            &rows,
            |b, _| b.iter(|| cctx.matmul_bt_into(std::hint::black_box(&g), &w, &mut s)),
        );
    }

    // The forward layer's fused transform H = σ(A·W), written in place at
    // the road rank shape, serial and on a two-thread pool (where every
    // chunk runs the epilogue on its own rows).
    let a = Dense::random(rows, 32, &mut rng);
    let w = Dense::random(32, 32, &mut rng);
    let mut h = Dense::zeros(rows, 32);
    group.throughput(Throughput::Elements((rows * 32 * 32) as u64));
    for t in [1usize, 2] {
        for kernel in [KernelKind::Naive, KernelKind::Blocked] {
            let cctx = ComputeCtx::with_threads(t).with_kernel(kernel);
            let shape = format!("{}_t{t}_{rows}x32x32", kernel.name());
            group.bench_with_input(BenchmarkId::new("transform_relu", &shape), &t, |b, _| {
                b.iter(|| {
                    Activation::Relu.transform_into(&cctx, std::hint::black_box(&a), &w, &mut h)
                })
            });
        }
    }

    // Forward DMM H·W: tall-skinny × small square.
    let n = 8192usize;
    for d in [16usize, 64, 128] {
        let h = Dense::random(n, d, &mut rng);
        let w = Dense::random(d, d, &mut rng);
        group.throughput(Throughput::Elements((n * d * d) as u64));
        for (name, cctx) in &engines {
            group.bench_with_input(
                BenchmarkId::new(format!("gemm_{name}"), format!("{n}x{d}x{d}")),
                &d,
                |b, _| b.iter(|| cctx.matmul(std::hint::black_box(&h), &w)),
            );
        }
    }

    // Backward twins at the widest GCN shape: ΔW = HᵀG and S = G·Wᵀ.
    let d = 64usize;
    let h = Dense::random(n, d, &mut rng);
    let g = Dense::random(n, d, &mut rng);
    let w = Dense::random(d, d, &mut rng);
    group.throughput(Throughput::Elements((n * d * d) as u64));
    for (name, cctx) in &engines {
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_at_{name}"), format!("{n}x{d}x{d}")),
            &d,
            |b, _| b.iter(|| cctx.matmul_at(std::hint::black_box(&h), &g)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("gemm_bt_{name}"), format!("{n}x{d}x{d}")),
            &d,
            |b, _| b.iter(|| cctx.matmul_bt(std::hint::black_box(&g), &w)),
        );
    }

    // SpMM Â·H on the skewed RMAT graph across the same feature widths.
    let graph = rmat::generate_sized(10_000, 8.0, false, 1);
    let a = graph.normalized_adjacency();
    for d in [16usize, 64, 128] {
        let h = Dense::random(a.n_cols(), d, &mut rng);
        group.throughput(Throughput::Elements((a.nnz() * d) as u64));
        for (name, cctx) in &engines {
            group.bench_with_input(
                BenchmarkId::new(format!("spmm_{name}"), format!("rmat_10k_{d}")),
                &d,
                |b, _| b.iter(|| cctx.spmm(std::hint::black_box(&a), &h)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm,
    bench_dmm,
    bench_gather,
    bench_normalize,
    bench_spmm_threads,
    bench_dmm_threads,
    bench_pool_overhead,
    bench_kernel_engine
);
criterion_main!(benches);
