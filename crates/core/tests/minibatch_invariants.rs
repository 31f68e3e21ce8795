//! Invariants of the mini-batch training path (§4.3.3's workload):
//! a full-cover batch reduces to a full-batch step, batch volumes are
//! consistent with the plan machinery, and parameters flow across batches.

use pargcn_core::minibatch;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::GcnConfig;
use pargcn_graph::gen::community;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, Method, Partition};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

fn setup(n: usize, seed: u64) -> (pargcn_graph::Graph, Dense, Vec<u32>, Vec<bool>) {
    let g = community::copurchase(n, 6.0, false, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let h0 = Dense::random(n, 6, &mut rng);
    let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
    let mask = vec![true; n];
    (g, h0, labels, mask)
}

/// A single "mini-batch" containing every vertex (in id order) is exactly a
/// full-batch step: same loss, same parameters as the serial trainer.
#[test]
fn full_cover_batch_is_full_batch_step() {
    let (g, h0, labels, mask) = setup(150, 3);
    let config = GcnConfig::two_layer(6, 8, 3);
    let part = partition_rows(&g, &g.normalized_adjacency(), Method::Hp, 3, 0.1, 1);
    let all: Vec<u32> = (0..150u32).collect();

    let out = minibatch::train_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        &[all],
        42,
        ComputeSpec::default(),
    );

    let mut serial = SerialTrainer::new(&g, config, 42);
    let serial_loss = serial.train_epoch(&h0, &labels, &mask);

    assert!((out.losses[0] - serial_loss).abs() < 1e-3 * (1.0 + serial_loss.abs()));
    for (a, b) in out.params.weights.iter().zip(&serial.params.weights) {
        assert!(
            a.approx_eq(b, 2e-3),
            "params diverged: {}",
            a.max_abs_diff(b)
        );
    }
}

/// The same batch sequence yields the same result regardless of how many
/// ranks execute it (the mini-batch path inherits the exactness contract).
#[test]
fn minibatch_result_independent_of_rank_count() {
    let (g, h0, labels, mask) = setup(200, 5);
    let config = GcnConfig::two_layer(6, 8, 3);
    let a = g.normalized_adjacency();
    let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 80 }, 6, 7);

    let p2 = partition_rows(&g, &a, Method::Rp, 2, 0.1, 1);
    let p5 = partition_rows(&g, &a, Method::Rp, 5, 0.1, 2);
    let out2 = minibatch::train_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &p2,
        &config,
        &batches,
        9,
        ComputeSpec::default(),
    );
    let out5 = minibatch::train_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &p5,
        &config,
        &batches,
        9,
        ComputeSpec::default(),
    );

    assert_eq!(out2.losses.len(), out5.losses.len());
    for (a, b) in out2.losses.iter().zip(&out5.losses) {
        assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
    }
    for (a, b) in out2.params.weights.iter().zip(&out5.params.weights) {
        assert!(a.approx_eq(b, 5e-3));
    }
}

/// Mini-batch volume is bounded by the full-batch volume for the same
/// partition (a subgraph can only need fewer rows).
#[test]
fn batch_volume_bounded_by_full_volume() {
    let (g, ..) = setup(300, 11);
    let a = g.normalized_adjacency();
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 3);
    let full = pargcn_partition::metrics::spmm_comm_stats(&a, &part).total_rows;
    for batch in sample_batches(&g, Sampler::UniformVertex { batch_size: 100 }, 5, 13) {
        let v = minibatch::batch_comm_volume(&g, &batch, &part);
        assert!(
            v <= full,
            "batch volume {v} exceeds full-batch volume {full}"
        );
    }
}

/// Batches with no labelled vertices are skipped without touching
/// parameters.
#[test]
fn unlabelled_batches_are_skipped() {
    let (g, h0, labels, _) = setup(120, 17);
    let config = GcnConfig::two_layer(6, 8, 3);
    let part = Partition::trivial(120);
    // Mask labels only vertices ≥ 60; batch contains only vertices < 60.
    let mask: Vec<bool> = (0..120).map(|i| i >= 60).collect();
    let batch: Vec<u32> = (0..60u32).collect();
    let out = minibatch::train_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        &[batch],
        21,
        ComputeSpec::default(),
    );
    assert!(out.losses.is_empty(), "unlabelled batch should be skipped");
    let init = config.init_params(21);
    assert_eq!(
        out.params.max_abs_diff(&init),
        0.0,
        "params must be untouched"
    );
}

/// `restrict_partition` is stable under permutation of the batch list and
/// preserves ownership.
#[test]
fn restrict_partition_preserves_ownership() {
    let part = Partition::new((0..40).map(|i| (i % 4) as u32).collect(), 4);
    let batch: Vec<u32> = vec![5, 11, 23, 38];
    let sub = minibatch::restrict_partition(&part, &batch);
    for (local, &global) in batch.iter().enumerate() {
        assert_eq!(sub.part_of(local), part.part_of(global as usize));
    }
}
