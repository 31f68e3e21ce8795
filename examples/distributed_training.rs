//! Distributed full-batch training walkthrough on a road network: shows the
//! per-rank communication the plan predicts, runs real multi-threaded
//! training, verifies the runtime counters match the prediction exactly,
//! and contrasts the P2P algorithm with the CAGNET broadcast baseline.
//!
//! ```text
//! cargo run --release -p pargcn-integration --example distributed_training
//! ```

use pargcn_core::baselines::cagnet;
use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::Dataset;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

fn main() {
    let p = 8;
    let epochs = 5;
    let data = Dataset::RoadNetCa.generate(pargcn_graph::Scale(64), 5);
    let a = data.graph.normalized_adjacency();
    let config = GcnConfig::two_layer(32, 32, 8);
    println!(
        "{} at 1/64 scale: {} vertices, {} nonzeros, {} ranks, {} epochs\n",
        Dataset::RoadNetCa.name(),
        data.graph.n(),
        a.nnz(),
        p,
        epochs
    );

    // Partition with the hypergraph model and inspect the plan (Eqs. 8–9).
    let part = partition_rows(&data.graph, &a, Method::Hp, p, DEFAULT_EPSILON, 5);
    let plan = CommPlan::build(&a, &part);
    println!(
        "{:<6} {:>8} {:>12} {:>10} {:>10}",
        "rank", "rows", "local nnz", "sends", "recvs"
    );
    for rp in &plan.ranks {
        println!(
            "{:<6} {:>8} {:>12} {:>10} {:>10}",
            rp.rank,
            rp.n_local(),
            rp.a_own.nnz(),
            format!("{}→{}", rp.send.len(), rp.sent_rows()),
            format!("{}←{}", rp.a_remote.len(), rp.recv_rows()),
        );
    }
    println!(
        "\nplan: {} rows exchanged per SpMM sweep over {} messages\n",
        plan.total_volume_rows(),
        plan.total_messages()
    );

    // Random features/labels (the paper's Table 2 methodology).
    let mut rng = StdRng::seed_from_u64(9);
    let h0 = Dense::random(data.graph.n(), 32, &mut rng);
    let labels: Vec<u32> = (0..data.graph.n()).map(|i| (i % 8) as u32).collect();
    let mask = vec![true; data.graph.n()];

    let out = train_full_batch_spec(
        &data.graph,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        epochs,
        3,
        ComputeSpec::default(),
    );
    println!(
        "losses: {:?}",
        out.losses
            .iter()
            .map(|l| (l * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "parallel wall time (slowest rank): {:.3}s",
        out.wall_seconds()
    );

    // The runtime counters must equal the plan's static prediction:
    // per epoch each layer sweeps once forward (d_in-wide) + once backward.
    let measured: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
    let vol = plan.total_volume_rows();
    let expected = (epochs as u64) * vol * 4 * ((32 + 32) + (32 + 8)) + vol * 4 * (32 + 32);
    assert_eq!(measured, expected, "runtime counters must match the plan");
    println!("runtime counters match the comm plan exactly ({measured} bytes).");

    // CAGNET moves every row to every rank each layer — count the difference.
    let bc = cagnet::train_full_batch_spec(
        &data.graph,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        epochs,
        3,
        ComputeSpec::default(),
    );
    let bc_bytes: u64 = bc.counters.iter().map(|c| c.collective_bytes).sum();
    println!(
        "\nbroadcast baseline traffic: {:.2} MiB vs P2P {:.2} MiB ({}x reduction)",
        bc_bytes as f64 / (1 << 20) as f64,
        measured as f64 / (1 << 20) as f64,
        (bc_bytes / measured.max(1)).max(1)
    );
    assert!(
        out.predictions.approx_eq(&bc.predictions, 1e-2),
        "both algorithms compute the same model"
    );
    println!("P2P and broadcast algorithms agree on the trained model.");
}
