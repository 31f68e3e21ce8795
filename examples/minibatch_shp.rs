//! Mini-batch training with the stochastic hypergraph model (§4.3.3):
//! samples mini-batches, partitions with HP and with SHP, compares the
//! expected per-batch communication volume each induces, and trains with
//! mini-batch SGD under the SHP partition.
//!
//! ```text
//! cargo run --release -p pargcn-integration --example minibatch_shp
//! ```

use pargcn_core::minibatch;
use pargcn_core::GcnConfig;
use pargcn_graph::Dataset;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::stochastic::{hoeffding_min_nets, sample_batches, Sampler};
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

fn main() {
    let p = 8;
    let data = Dataset::ComAmazon.generate(pargcn_graph::Scale(32), 11);
    let n = data.graph.n();
    let batch_size = n / 16;
    let sampler = Sampler::UniformVertex { batch_size };
    println!(
        "{} at 1/32 scale: {} vertices; mini-batches of {} vertices on {} ranks\n",
        Dataset::ComAmazon.name(),
        n,
        batch_size,
        p
    );

    // Eq. 14: how many nets the stochastic hypergraph needs for a
    // θ-accurate expected-connectivity estimate at 1−δ confidence.
    println!(
        "Hoeffding bound (θ=0.1, δ=0.5): ≥ {} nets needed at p={p}",
        hoeffding_min_nets(p, 0.1, 0.5)
    );

    let a = data.graph.normalized_adjacency();
    let hp = partition_rows(&data.graph, &a, Method::Hp, p, DEFAULT_EPSILON, 2);
    let shp = partition_rows(
        &data.graph,
        &a,
        Method::Shp {
            sampler,
            batches: 500,
        },
        p,
        DEFAULT_EPSILON,
        2,
    );

    // Fresh evaluation batches, disjoint seed from SHP's construction set.
    let eval = sample_batches(&data.graph, sampler, 40, 999);
    let (hp_vol, _) = minibatch::expected_comm_volume(&data.graph, &eval, &hp);
    let (shp_vol, _) = minibatch::expected_comm_volume(&data.graph, &eval, &shp);
    println!(
        "expected per-batch volume over {} held-out batches:\n  HP : {:>8} rows\n  SHP: {:>8} rows  (HP/SHP = {:.3})\n",
        eval.len(),
        hp_vol,
        shp_vol,
        hp_vol as f64 / shp_vol.max(1) as f64
    );

    // Mini-batch training under the SHP partition.
    let mut rng = StdRng::seed_from_u64(4);
    let h0 = Dense::random(n, 16, &mut rng);
    let labels: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
    let mask = vec![true; n];
    let config = GcnConfig::two_layer(16, 16, 4);
    let train_batches = sample_batches(&data.graph, sampler, 30, 5);
    let out = minibatch::train_spec(
        &data.graph,
        &h0,
        &labels,
        &mask,
        &shp,
        &config,
        &train_batches,
        6,
        ComputeSpec::default(),
    );
    println!(
        "mini-batch training: {} steps, loss {:.4} → {:.4}, {} rows exchanged",
        out.losses.len(),
        out.losses.first().unwrap(),
        out.losses.last().unwrap(),
        out.total_volume_rows
    );
}
