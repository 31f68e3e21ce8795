//! Criterion benchmarks for the partitioning substrate: RP, GP (the
//! §4.3.1 graph model), HP (the column-net model), SHP, and comm-plan
//! construction.
//!
//! The `hp_engine` group times `partition_rows` on the benchmark graphs
//! (coPapersDBLP/64, amazon0601/16, roadNet-CA/16) at p = 2 and 16, with
//! HP (`<graph>/<p>`) and with GP (`gp_<graph>/<p>`), which runs the same
//! multilevel engine on the graph model's 2-pin nets. Each row prints its
//! partition's model cut (connectivity−1; for GP that is the edge cut) and
//! imbalance next to the time, so a speed change can be read against its
//! quality:
//!
//! ```text
//! cargo bench -q --offline --locked -p pargcn-bench --bench partitioners -- --quick hp_engine
//! ```

use pargcn_core::CommPlan;
use pargcn_graph::gen::{community, grid};
use pargcn_graph::{Dataset, Scale};
use pargcn_partition::stochastic::Sampler;
use pargcn_partition::{partition_rows, Hypergraph, Method, DEFAULT_EPSILON};
use pargcn_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::OnceCell;

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_10k");
    group.sample_size(10);
    let g = grid::road_network(10_000, 1);
    let a = g.normalized_adjacency();
    for method in [
        Method::Rp,
        Method::Gp,
        Method::Hp,
        Method::Shp {
            sampler: Sampler::UniformVertex { batch_size: 1000 },
            batches: 4,
        },
    ] {
        group.bench_with_input(BenchmarkId::new("road", method.name()), &method, |b, &m| {
            b.iter(|| partition_rows(&g, &a, m, 16, 0.05, 1))
        });
    }
    group.finish();
}

fn bench_graph_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("hp_by_family");
    group.sample_size(10);
    for (name, g) in [
        ("road_8k", grid::road_network(8000, 2)),
        ("copurchase_8k", community::copurchase(8000, 6.0, false, 2)),
    ] {
        let a = g.normalized_adjacency();
        group.bench_function(name, |b| {
            b.iter(|| partition_rows(&g, &a, Method::Hp, 16, 0.05, 1))
        });
    }
    group.finish();
}

fn bench_hp_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("hp_engine");
    group.sample_size(5);
    for (name, dataset, scale) in [
        ("dblp64", Dataset::CoPapersDblp, 64),
        ("amazon16", Dataset::Amazon0601, 16),
        ("road16", Dataset::RoadNetCa, 16),
    ] {
        // Generated on first use, so a filter that skips the group skips
        // the graphs too.
        let data = OnceCell::new();
        for (method, model, prefix) in [
            (Method::Hp, Hypergraph::column_net_model as fn(&_) -> _, ""),
            (Method::Gp, Hypergraph::graph_model, "gp_"),
        ] {
            for p in [2usize, 16] {
                let mut reported = false;
                group.bench_function(BenchmarkId::new(format!("{prefix}{name}"), p), |b| {
                    let (g, a) = data.get_or_init(|| {
                        let g = dataset.generate(Scale(scale), 1).graph;
                        let a = g.normalized_adjacency();
                        (g, a)
                    });
                    if !reported {
                        let part = partition_rows(g, a, method, p, DEFAULT_EPSILON, 1);
                        let h = model(a);
                        eprintln!(
                            "hp_engine/{prefix}{name}/{p}: cut {} imbalance {:.4}",
                            h.connectivity_cut(&part),
                            part.imbalance(h.vertex_weights())
                        );
                        reported = true;
                    }
                    b.iter(|| partition_rows(g, a, method, p, DEFAULT_EPSILON, 1))
                });
            }
        }
    }
    group.finish();
}

fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("comm_plan_build");
    group.sample_size(10);
    let g = grid::road_network(20_000, 3);
    let a = g.normalized_adjacency();
    for p in [16usize, 64, 256] {
        let part = partition_rows(&g, &a, Method::Rp, p, 0.05, 1);
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| CommPlan::build(std::hint::black_box(&a), &part))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_methods,
    bench_graph_families,
    bench_hp_engine,
    bench_plan_build
);
criterion_main!(benches);
