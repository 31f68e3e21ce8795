//! Persistent mini-batch engine vs per-batch-spawn training (DESIGN.md
//! §11). The old path pays a fresh `CommSession` (thread spawn + join),
//! plan construction, and workspace/pool growth once *per batch*; the
//! engine pays them once per session, and its ranks prepare their own
//! share of each batch. For small batches the fixed per-batch cost
//! dominates, which is where the engine's gain concentrates — the
//! acceptance figure (`results/minibatch_engine.json`) is the
//! small-batch group at p = 4.
//!
//! Each iteration trains the *whole* batch list so the reported
//! throughput (`Throughput::Elements`, one element = one batch) reads
//! directly as batches/second. Three methods per group:
//!   `spawn`      — `minibatch::train_spec`, the per-batch-spawn path;
//!   `persistent` — a `MinibatchEngine` built and trained inside the
//!                  iteration (what a fresh training run pays);
//!   `steady`     — a long-lived engine re-fed the list, the
//!                  steady-state cost with pools and workspaces at
//!                  their high-water mark.
//!
//! The `prep` group times batch preparation at the `minibatch-hp-amazon`
//! benchmark's shape (amazon0601/16 under HP at p = 2, one uniform batch
//! of n/8 vertices): the central kernels — the induced subgraph, `Â`, and
//! the forward and `Âᵀ` plan builds — and `rank_local`, the engine's
//! rank-local preparation (both ranks build their rows and plans,
//! set-up exchange included, in one session step). It also times the
//! full-batch P2P and CAGNET plan builds of the road workloads
//! (roadNet-CA/16, random rows) at p = 2, and the P2P build at p = 64,
//! where the central build's per-rank cost shows.

use pargcn_comm::CommSession;
use pargcn_core::baselines::cagnet::CagnetPlan;
use pargcn_core::minibatch::{self, MinibatchEngine};
use pargcn_core::plan::RankPlanBuilder;
use pargcn_core::{CommPlan, GcnConfig, PlanBuilder};
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::{Dataset, Graph, Scale, SubgraphScratch};
use pargcn_matrix::{norm, ComputeSpec, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, Method, Partition, DEFAULT_EPSILON};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Mutex;

/// Ranks — the acceptance criterion's p.
const P: usize = 4;

struct Fixture {
    graph: Graph,
    h0: Dense,
    labels: Vec<u32>,
    mask: Vec<bool>,
    part: Partition,
    config: GcnConfig,
    batches: Vec<Vec<u32>>,
    spec: ComputeSpec,
}

fn fixture(batch_size: usize, count: usize) -> Fixture {
    let d = sbm::generate(
        SbmParams {
            n: 1500,
            classes: 4,
            features: 16,
            ..Default::default()
        },
        17,
    );
    let a = d.graph.normalized_adjacency();
    let part = partition_rows(&d.graph, &a, Method::Hp, P, 0.1, 1);
    let config = GcnConfig::two_layer(16, 16, 4);
    let batches = sample_batches(&d.graph, Sampler::UniformVertex { batch_size }, count, 23);
    Fixture {
        graph: d.graph,
        h0: d.features,
        labels: d.labels,
        mask: d.train_mask,
        part,
        config,
        batches,
        // One worker thread per rank: the comparison targets the session
        // and plan machinery, not kernel parallelism, and a fixed thread
        // count keeps the two paths' compute identical.
        spec: ComputeSpec {
            threads: Some(1),
            kernel: None,
        },
    }
}

fn run_group(c: &mut Criterion, name: &str, batch_size: usize, count: usize) {
    let f = fixture(batch_size, count);
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.throughput(Throughput::Elements(f.batches.len() as u64));

    group.bench_function(BenchmarkId::new("spawn", P), |b| {
        b.iter(|| {
            minibatch::train_spec(
                &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, &f.batches, 5, f.spec,
            )
        })
    });

    group.bench_function(BenchmarkId::new("persistent", P), |b| {
        b.iter(|| {
            MinibatchEngine::new(
                &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, 5, f.spec,
            )
            .train(&f.batches)
        })
    });

    let mut engine = MinibatchEngine::new(
        &f.graph, &f.h0, &f.labels, &f.mask, &f.part, &f.config, 5, f.spec,
    );
    engine.train(&f.batches); // grow pools/workspaces to the high-water mark
    group.bench_function(BenchmarkId::new("steady", P), |b| {
        b.iter(|| engine.train(&f.batches))
    });

    group.finish();
}

/// Small batches: fixed per-batch cost (spawn, plan, allocation)
/// dominates — the engine's target regime and the acceptance figure.
fn bench_small_batches(c: &mut Criterion) {
    run_group(c, "minibatch_small_b48", 48, 16);
}

/// Large batches: per-batch compute amortizes the fixed cost, bounding
/// how much the engine can win; included so the gain is reported
/// honestly across regimes.
fn bench_large_batches(c: &mut Criterion) {
    run_group(c, "minibatch_large_b400", 400, 6);
}

/// The preparation kernels in isolation, at the benchmark workloads'
/// shapes (see the module docs).
fn bench_prep(c: &mut Criterion) {
    let graph = Dataset::Amazon0601.generate(Scale(16), 1).graph;
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 2, DEFAULT_EPSILON, 1);
    let sampler = Sampler::UniformVertex {
        batch_size: graph.n() / 8,
    };
    let batch = sample_batches(&graph, sampler, 1, 1).remove(0);
    let mut scratch = SubgraphScratch::new();
    let sub = graph.induced_subgraph_into(&batch, &mut scratch);
    let a_batch = norm::normalize_adjacency(sub.adjacency());
    let at_batch = a_batch.transpose();
    let batch_part = minibatch::restrict_partition(&part, &batch);
    let mut builder = PlanBuilder::new();

    let road = Dataset::RoadNetCa.generate(Scale(16), 1).graph;
    let a_road = road.normalized_adjacency();
    let road_part = partition_rows(&road, &a_road, Method::Rp, 2, DEFAULT_EPSILON, 1);
    let road_part64 = partition_rows(&road, &a_road, Method::Rp, 64, DEFAULT_EPSILON, 1);

    let mut group = c.benchmark_group("prep");
    group.bench_function("induced_subgraph_into/amazon_n8", |b| {
        b.iter(|| graph.induced_subgraph_into(&batch, &mut scratch))
    });
    group.bench_function("normalize_adjacency/amazon_n8", |b| {
        b.iter(|| norm::normalize_adjacency(sub.adjacency()))
    });
    group.bench_function("plan_builder_forward/amazon_n8", |b| {
        b.iter(|| builder.build(&a_batch, &batch_part))
    });
    group.bench_function("plan_builder_transpose/amazon_n8", |b| {
        b.iter(|| builder.build(&at_batch, &batch_part))
    });
    group.bench_function("comm_plan/road_rp2", |b| {
        b.iter(|| CommPlan::build(&a_road, &road_part))
    });
    group.bench_function("cagnet_plan/road_rp2", |b| {
        b.iter(|| CagnetPlan::build(&a_road, &road_part))
    });
    group.bench_function("comm_plan/road_rp64", |b| {
        b.iter(|| CommPlan::build(&a_road, &road_part64))
    });
    // Last, so its rank threads are gone before any other row runs.
    let mut session = CommSession::new(2);
    let rank_builders: Vec<Mutex<RankPlanBuilder>> =
        (0..2).map(|_| Mutex::new(RankPlanBuilder::new())).collect();
    group.bench_function("rank_local/amazon_n8", |b| {
        b.iter(|| {
            session.run_step(|ctx| {
                let mut builder = rank_builders[ctx.rank()].lock().unwrap();
                builder.build(ctx, &graph, &part, &batch)
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_small_batches,
    bench_large_batches,
    bench_prep
);
criterion_main!(benches);
