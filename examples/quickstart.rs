//! Quickstart: train a 2-layer GCN on a Cora-like citation graph, first
//! serially, then distributed over 4 ranks with hypergraph partitioning,
//! and confirm both reach the same accuracy.
//!
//! ```text
//! cargo run --release -p pargcn-integration --example quickstart
//! ```

use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::loss::accuracy;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::GcnConfig;
use pargcn_graph::Dataset;
use pargcn_matrix::ComputeSpec;
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};

fn main() {
    // 1. A labelled dataset: the Cora-class planted-partition generator
    //    (2708 vertices, 7 classes, class-correlated features).
    let data = Dataset::Cora.generate_default(7);
    let features = data.features.expect("Cora is labelled");
    let labels = data.labels.expect("Cora is labelled");
    let train_mask = data.train_mask.expect("Cora has a split");
    let test_mask: Vec<bool> = train_mask.iter().map(|&m| !m).collect();
    println!(
        "graph: {} vertices, {} edges, avg degree {:.1}",
        data.graph.n(),
        data.graph.num_edges(),
        data.graph.degree_stats().avg
    );

    // 2. A 2-layer GCN: features → 16 hidden (ReLU) → 7 classes (softmax).
    let config = GcnConfig::two_layer(features.cols(), 16, 7);
    let epochs = 30;

    // 3. Serial training (the single-node baseline).
    let mut serial = SerialTrainer::new(&data.graph, config.clone(), 1);
    for epoch in 0..epochs {
        let loss = serial.train_epoch(&features, &labels, &train_mask);
        if epoch % 10 == 0 {
            println!("serial epoch {epoch:>2}: loss {loss:.4}");
        }
    }
    let serial_acc = accuracy(&serial.predict(&features), &labels, &test_mask);
    println!("serial test accuracy: {serial_acc:.3}");

    // 4. Distributed training: hypergraph-partition the rows onto 4 ranks
    //    (threads standing in for MPI processes) and train with
    //    non-blocking point-to-point communication (paper Algorithms 1–2).
    let a = data.graph.normalized_adjacency();
    let part = partition_rows(&data.graph, &a, Method::Hp, 4, DEFAULT_EPSILON, 7);
    let out = train_full_batch_spec(
        &data.graph,
        &features,
        &labels,
        &train_mask,
        &part,
        &config,
        epochs,
        1, // same parameter seed as the serial run
        ComputeSpec::default(),
    );
    let dist_acc = accuracy(&out.predictions, &labels, &test_mask);
    println!("distributed (p=4, HP) test accuracy: {dist_acc:.3}");

    // 5. The algorithm is exact: same losses, same predictions.
    let sent: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
    println!(
        "total point-to-point traffic: {:.2} MiB over {} messages",
        sent as f64 / (1 << 20) as f64,
        out.counters.iter().map(|c| c.sent_messages).sum::<u64>()
    );
    assert!(
        (serial_acc - dist_acc).abs() < 0.02,
        "parallel training must not change accuracy"
    );
    println!("OK: distributed training matches serial training.");
}
