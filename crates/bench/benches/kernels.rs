//! Criterion microbenchmarks for the matrix kernels driving GCN training:
//! SpMM (the convolution), DMM (parameter application), the `Xₘₙ ⊗ H` row
//! gather (message assembly), adjacency normalization, and the pooled
//! (multithreaded) kernel variants at 1/2/4 threads plus the bare pool
//! dispatch overhead.

use pargcn_core::activations::Activation;
use pargcn_core::CommPlan;
use pargcn_graph::gen::{grid, rmat};
use pargcn_graph::{Dataset, Scale};
use pargcn_matrix::{gather, norm, ComputeCtx, Csr, Dense, KernelKind};
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pargcn_util::pool::Pool;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

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

/// The engines the `kernel_engine` rows compare on `threads` pool
/// threads: the naive loops, and the blocked engine's lanes at each width
/// the CPU has (`avx2`, `avx512`); a width it lacks is noted and its rows
/// are skipped. `blocked` itself runs the widest of these.
fn engines(threads: usize) -> Vec<(&'static str, ComputeCtx)> {
    let naive = ComputeCtx::with_threads(threads).with_kernel(KernelKind::Naive);
    let mut engines = vec![("naive", naive.clone())];
    for (name, floats) in [("avx2", 8), ("avx512", 16)] {
        match naive.clone().with_lane_width(floats) {
            Some(lanes) => engines.push((name, lanes)),
            None => {
                eprintln!("kernel_engine: this CPU has no {name} lanes; their rows are skipped")
            }
        }
    }
    engines
}

/// Rank 0's own (diagonal) block of `dataset` at `1/scale` size split
/// over two ranks by `method`, as the perfbench workloads build it: the
/// SpMM every step runs before any remote row arrives.
fn own_block(dataset: Dataset, scale: u32, method: Method) -> Csr {
    let graph = dataset.generate(Scale(scale), 1).graph;
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, method, 2, DEFAULT_EPSILON, 1);
    let mut plan = CommPlan::build(&a, &part);
    plan.ranks.swap_remove(0).a_own
}

/// Naive vs the blocked engine's lanes at each width, head to head at
/// the ranks' own shapes, single thread (the fused forward transform at
/// one and two threads). Three rank shapes of the perfbench workloads (a
/// 32-32-16 GCN on two ranks):
///
/// - `road`: 61,600 rows (roadNet-CA/16 under random rows), every layer
///   GEMM — `H·W` at both layers, `ΔW = HᵀG` with `H` a ReLU output (half
///   zeros), `S = G·Wᵀ` from the 16-wide output layer back to the hidden
///   one — and the own-block SpMM at width 32;
/// - `amazon`: 1,550 rows (one rank's half of an n/8 amazon0601/16
///   batch), the same GEMMs;
/// - `dblp`: coPapersDBLP/64's own-block SpMM under HP at width 32, the
///   SpMM-bound step.
///
/// Plus SpMM on the skewed RMAT graph at widths 16, 64 and 128 (two
/// column spans). Throughput is in multiply-add elements, so
/// `elements_per_s × 2 = FLOP/s` and the ratios read off directly at
/// equal shapes. Every engine gives the same bits (the width-parity and
/// `kernel_engine` suites), so this is a pure speed comparison.
fn bench_kernel_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_engine");
    let engines1 = engines(1);
    let mut rng = StdRng::seed_from_u64(6);
    let relu = |d: Dense| d.map(|v| v.max(0.0));
    for (shape, rows) in [("road", 61_600usize), ("amazon", 1_550)] {
        for (k, n) in [(32usize, 32usize), (32, 16)] {
            let h = relu(Dense::random(rows, k, &mut rng));
            let w = Dense::random(k, n, &mut rng);
            let g = Dense::random(rows, n, &mut rng);
            // Outputs are preallocated, as in the layer loop: a fresh
            // rank-sized output per call would time page faults.
            let mut z = Dense::zeros(rows, n);
            let mut dw = Dense::zeros(k, n);
            group.throughput(Throughput::Elements((rows * k * n) as u64));
            for (name, cctx) in &engines1 {
                group.bench_with_input(
                    BenchmarkId::new(format!("gemm_{name}"), format!("{shape}_{rows}x{k}x{n}")),
                    &n,
                    |b, _| b.iter(|| cctx.matmul_into(std::hint::black_box(&h), &w, &mut z, false)),
                );
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("gemm_at_{name}"),
                        format!("{shape}_{rows}x{k}x{n}_relu"),
                    ),
                    &n,
                    |b, _| b.iter(|| cctx.matmul_at_into(std::hint::black_box(&h), &g, &mut dw)),
                );
            }
        }
        let g = Dense::random(rows, 16, &mut rng);
        let w = Dense::random(32, 16, &mut rng);
        let mut s = Dense::zeros(rows, 32);
        group.throughput(Throughput::Elements((rows * 16 * 32) as u64));
        for (name, cctx) in &engines1 {
            group.bench_with_input(
                BenchmarkId::new(format!("gemm_bt_{name}"), format!("{shape}_{rows}x16x32")),
                &rows,
                |b, _| b.iter(|| cctx.matmul_bt_into(std::hint::black_box(&g), &w, &mut s)),
            );
        }
    }

    // The forward layer's fused transform H = σ(A·W), written in place at
    // the road rank shape, serial and on a two-thread pool (where every
    // chunk runs the epilogue on its own rows).
    let rows = 61_600usize;
    let a = Dense::random(rows, 32, &mut rng);
    let w = Dense::random(32, 32, &mut rng);
    let mut h = Dense::zeros(rows, 32);
    group.throughput(Throughput::Elements((rows * 32 * 32) as u64));
    for t in [1usize, 2] {
        for (name, cctx) in engines(t) {
            let shape = format!("{name}_t{t}_road_{rows}x32x32");
            group.bench_with_input(BenchmarkId::new("transform_relu", &shape), &t, |b, _| {
                b.iter(|| {
                    Activation::Relu.transform_into(&cctx, std::hint::black_box(&a), &w, &mut h)
                })
            });
        }
    }

    // The own-block SpMM of the road and dblp ranks at width 32, and the
    // skewed RMAT graph at widths one and two column spans wide.
    let rmat = rmat::generate_sized(10_000, 8.0, false, 1).normalized_adjacency();
    let spmms = [
        (
            "road",
            own_block(Dataset::RoadNetCa, 16, Method::Rp),
            32usize,
        ),
        ("dblp", own_block(Dataset::CoPapersDblp, 64, Method::Hp), 32),
        ("rmat_10k", rmat.clone(), 16),
        ("rmat_10k", rmat.clone(), 64),
        ("rmat_10k", rmat, 128),
    ];
    for (shape, a, d) in &spmms {
        let h = Dense::random(a.n_cols(), *d, &mut rng);
        let mut out = Dense::zeros(a.n_rows(), *d);
        let rows = a.n_rows();
        group.throughput(Throughput::Elements((a.nnz() * d) as u64));
        for (name, cctx) in &engines1 {
            group.bench_with_input(
                BenchmarkId::new(format!("spmm_{name}"), format!("{shape}_{rows}x{d}")),
                d,
                |b, _| b.iter(|| cctx.spmm_into(std::hint::black_box(a), &h, &mut out, false)),
            );
        }
    }
    group.finish();
}

/// The masked softmax cross-entropy at one rank's road shape (61,600
/// rows × 16 classes, every row labelled as in the perfbench workloads):
/// `naive` runs the scalar rows, `blocked` eight rows per AVX2 register
/// where the CPU has them. Both give the same bits. Throughput is in
/// logits.
fn bench_loss(c: &mut Criterion) {
    let mut group = c.benchmark_group("loss");
    let (rows, classes) = (61_600usize, 16usize);
    let mut rng = StdRng::seed_from_u64(7);
    let h = Dense::from_fn(rows, classes, |_, _| rng.gen_range(-6.0..6.0f32));
    let labels: Vec<u32> = (0..rows)
        .map(|_| rng.gen_range(0..classes as u32))
        .collect();
    let mask = vec![true; rows];
    let mut grad = Dense::zeros(rows, classes);
    group.throughput(Throughput::Elements((rows * classes) as u64));
    for kernel in [KernelKind::Naive, KernelKind::Blocked] {
        let cctx = ComputeCtx::serial().with_kernel(kernel);
        group.bench_with_input(
            BenchmarkId::new("road_rank", kernel.name()),
            &rows,
            |b, _| {
                b.iter(|| {
                    cctx.softmax_cross_entropy_into(
                        std::hint::black_box(&h),
                        &labels,
                        &mask,
                        rows as f64,
                        &mut grad,
                    )
                })
            },
        );
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
    bench_kernel_engine,
    bench_loss
);
criterion_main!(benches);
