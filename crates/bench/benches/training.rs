//! Criterion benchmarks for end-to-end training steps: the serial oracle,
//! the distributed P2P trainer at several real rank counts, and the CAGNET
//! broadcast baseline — real threaded execution, not the cost model.

use pargcn_core::baselines::cagnet;
use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::GcnConfig;
use pargcn_graph::gen::community;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::{partition_rows, Method};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

fn setup() -> (pargcn_graph::Graph, Dense, Vec<u32>, Vec<bool>, GcnConfig) {
    let g = community::copurchase(4000, 6.0, false, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let h0 = Dense::random(g.n(), 16, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 4) as u32).collect();
    let mask = vec![true; g.n()];
    (g, h0, labels, mask, GcnConfig::two_layer(16, 16, 4))
}

fn bench_serial_epoch(c: &mut Criterion) {
    let (g, h0, labels, mask, config) = setup();
    c.bench_function("serial_epoch_4k", |b| {
        let mut t = SerialTrainer::new(&g, config.clone(), 1);
        b.iter(|| t.train_epoch(std::hint::black_box(&h0), &labels, &mask))
    });
}

fn bench_distributed_epoch(c: &mut Criterion) {
    let (g, h0, labels, mask, config) = setup();
    let a = g.normalized_adjacency();
    let mut group = c.benchmark_group("dist_epoch_4k");
    group.sample_size(10);
    for p in [2usize, 4, 8] {
        let part = partition_rows(&g, &a, Method::Hp, p, 0.05, 1);
        group.bench_with_input(BenchmarkId::new("hp", p), &p, |b, _| {
            b.iter(|| {
                train_full_batch_spec(
                    &g,
                    &h0,
                    &labels,
                    &mask,
                    &part,
                    &config,
                    1,
                    1,
                    ComputeSpec::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_cagnet_epoch(c: &mut Criterion) {
    let (g, h0, labels, mask, config) = setup();
    let a = g.normalized_adjacency();
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.05, 1);
    let mut group = c.benchmark_group("cagnet_epoch_4k");
    group.sample_size(10);
    group.bench_function("p4", |b| {
        b.iter(|| {
            cagnet::train_full_batch_spec(
                &g,
                &h0,
                &labels,
                &mask,
                &part,
                &config,
                1,
                1,
                ComputeSpec::default(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_epoch,
    bench_distributed_epoch,
    bench_cagnet_epoch
);
criterion_main!(benches);
