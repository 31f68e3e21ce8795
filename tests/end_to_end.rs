//! End-to-end integration: the full pipeline — dataset generation →
//! normalization → partitioning → comm-plan → distributed training →
//! prediction — across crates, exercised the way a downstream user would.

use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::loss::accuracy;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::GcnConfig;
use pargcn_graph::{Dataset, Scale};
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Every Table 2 dataset family survives the full pipeline at tiny scale.
#[test]
fn full_pipeline_on_every_dataset_family() {
    for ds in Dataset::TABLE2 {
        let scale = Scale(ds.default_scale().0.saturating_mul(32));
        let data = ds.generate(scale, 3);
        let a = data.graph.normalized_adjacency();
        let part = partition_rows(&data.graph, &a, Method::Hp, 4, DEFAULT_EPSILON, 1);

        let mut rng = StdRng::seed_from_u64(5);
        let h0 = Dense::random(data.graph.n(), 8, &mut rng);
        let labels: Vec<u32> = (0..data.graph.n()).map(|i| (i % 3) as u32).collect();
        let mask = vec![true; data.graph.n()];
        let config = GcnConfig::two_layer(8, 8, 3);

        let out = train_full_batch_spec(
            &data.graph,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            2,
            7,
            ComputeSpec::default(),
        );
        assert_eq!(out.losses.len(), 2, "{}", ds.name());
        assert!(out.losses.iter().all(|l| l.is_finite()), "{}", ds.name());
        assert_eq!(out.predictions.rows(), data.graph.n(), "{}", ds.name());
    }
}

/// A labelled workload end to end: Cora-class data, HP partitioning,
/// distributed training, and a real accuracy bar.
#[test]
fn cora_end_to_end_learns() {
    let data = Dataset::Cora.generate(Scale(2), 11);
    let features = data.features.unwrap();
    let labels = data.labels.unwrap();
    let train_mask = data.train_mask.unwrap();
    let test_mask: Vec<bool> = train_mask.iter().map(|&m| !m).collect();
    let config = GcnConfig::two_layer(features.cols(), 16, 7);

    let a = data.graph.normalized_adjacency();
    let part = partition_rows(&data.graph, &a, Method::Hp, 6, DEFAULT_EPSILON, 2);
    let out = train_full_batch_spec(
        &data.graph,
        &features,
        &labels,
        &train_mask,
        &part,
        &config,
        40,
        5,
        ComputeSpec::default(),
    );
    let acc = accuracy(&out.predictions, &labels, &test_mask);
    assert!(
        acc > 0.55,
        "distributed GCN should learn the planted partition, got {acc}"
    );

    // And the serial oracle agrees.
    let mut serial = SerialTrainer::new(&data.graph, config, 5);
    for _ in 0..40 {
        serial.train_epoch(&features, &labels, &train_mask);
    }
    let serial_acc = accuracy(&serial.predict(&features), &labels, &test_mask);
    assert!(
        (acc - serial_acc).abs() < 0.03,
        "dist {acc} vs serial {serial_acc}"
    );
}

/// Losses must decrease under every partitioning method (training works no
/// matter how rows are distributed).
#[test]
fn training_converges_under_every_method() {
    let data = Dataset::ComAmazon.generate(Scale(128), 13);
    let a = data.graph.normalized_adjacency();
    let mut rng = StdRng::seed_from_u64(17);
    let n = data.graph.n();
    let h0 = Dense::random(n, 8, &mut rng);
    let labels: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
    let mask = vec![true; n];
    let config = GcnConfig::two_layer(8, 12, 4);

    for method in [Method::Rp, Method::Gp, Method::Hp] {
        let part = partition_rows(&data.graph, &a, method, 3, DEFAULT_EPSILON, 4);
        let out = train_full_batch_spec(
            &data.graph,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            15,
            9,
            ComputeSpec::default(),
        );
        let first = out.losses[0];
        let last = *out.losses.last().unwrap();
        assert!(
            last < first,
            "{}: loss did not decrease ({first} → {last})",
            method.name()
        );
    }
}
