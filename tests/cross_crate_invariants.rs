//! Cross-crate invariants, randomized over random graphs: the static
//! model (partition crate), the comm plan (core crate), and the runtime
//! counters (comm crate) must all tell the same story about communication.
//!
//! Cases come from the seeded `pargcn_util::qc` runner; a failure prints
//! its case seed for replay via `PARGCN_QC_SEED=<seed>`.

use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::{metrics, Hypergraph, Partition};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

/// Random undirected graph with 10–39 vertices and n–4n candidate edges.
fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(10usize..40);
    let edges = qc::sized_vec_of(rng, n..4 * n, |r| {
        (r.gen_range(0..n as u32), r.gen_range(0..n as u32))
    });
    Graph::from_edges(n, false, &edges)
}

/// Hypergraph cut == comm-plan volume == metrics ground truth, and the
/// per-rank decompositions agree, for any graph and any partition.
#[test]
fn three_views_of_volume_agree() {
    qc::run(24, |rng| {
        let g = random_graph(rng);
        let seed = rng.gen_range(0u64..1000);
        let p = rng.gen_range(2usize..6);
        let a = g.normalized_adjacency();
        let part = pargcn_partition::random::partition(g.n(), p.min(g.n()), seed);
        let h = Hypergraph::column_net_model(&a);
        let plan = CommPlan::build(&a, &part);
        let stats = metrics::spmm_comm_stats(&a, &part);
        assert_eq!(h.connectivity_cut(&part), stats.total_rows);
        assert_eq!(plan.total_volume_rows(), stats.total_rows);
        assert_eq!(plan.total_messages(), stats.total_messages);
        for rp in &plan.ranks {
            assert_eq!(rp.sent_rows(), stats.sent_rows[rp.rank]);
        }
    });
}

/// Distributed and serial training agree on arbitrary random graphs and
/// partitions (not just the structured ones the curated tests use).
#[test]
fn dist_equals_serial_on_random_instances() {
    qc::run(24, |rng| {
        let g = random_graph(rng);
        if g.num_edges() == 0 {
            return;
        }
        let seed = rng.gen_range(0u64..1000);
        let n = g.n();
        let part = pargcn_partition::random::partition(n, 3.min(n), seed);
        let config = GcnConfig::two_layer(4, 5, 2);
        let mut hrng = StdRng::seed_from_u64(seed);
        let h0 = Dense::random(n, 4, &mut hrng);
        let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mask = vec![true; n];

        let out = train_full_batch_spec(
            &g,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            2,
            11,
            ComputeSpec::default(),
        );
        let mut serial = pargcn_core::serial::SerialTrainer::new(&g, config, 11);
        let mut serial_losses = Vec::new();
        for _ in 0..2 {
            serial_losses.push(serial.train_epoch(&h0, &labels, &mask));
        }
        for (s, d) in serial_losses.iter().zip(&out.losses) {
            assert!((s - d).abs() < 1e-3 * (1.0 + s.abs()), "loss {s} vs {d}");
        }
        assert!(out.predictions.approx_eq(&serial.predict(&h0), 5e-3));
    });
}

/// The measured runtime traffic equals the plan prediction for any
/// random instance (bytes and messages, exactly).
#[test]
fn runtime_counters_equal_plan() {
    qc::run(24, |rng| {
        let g = random_graph(rng);
        let seed = rng.gen_range(0u64..1000);
        let n = g.n();
        let part = pargcn_partition::random::partition(n, 3.min(n), seed);
        let a = g.normalized_adjacency();
        let plan = CommPlan::build(&a, &part);
        let config = GcnConfig::two_layer(4, 5, 2);
        let mut hrng = StdRng::seed_from_u64(seed);
        let h0 = Dense::random(n, 4, &mut hrng);
        let labels: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mask = vec![true; n];
        let out = train_full_batch_spec(
            &g,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            1,
            1,
            ComputeSpec::default(),
        );

        let vol = plan.total_volume_rows();
        // One epoch: fwd layers carry widths 4 and 5; bwd layers carry 5 and
        // 2; the final prediction pass repeats the forward sweep.
        let expected = vol * 4 * (4 + 5) + vol * 4 * (5 + 2) + vol * 4 * (4 + 5);
        let measured: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
        assert_eq!(measured, expected);
    });
}

/// Partition validity under all methods for random structured inputs.
#[test]
fn partitions_valid_on_random_graphs() {
    qc::run(24, |rng| {
        let g = random_graph(rng);
        let seed = rng.gen_range(0u64..100);
        let a = g.normalized_adjacency();
        for method in [pargcn_partition::Method::Gp, pargcn_partition::Method::Hp] {
            let p = 3.min(g.n());
            let part = pargcn_partition::partition_rows(&g, &a, method, p, 0.2, seed);
            assert_eq!(part.n(), g.n());
            assert_eq!(part.p(), p);
        }
    });
}

/// Deterministic sanity outside the randomized runner: a fixed partition
/// of a fixed graph yields bit-identical training outcomes across
/// repeated runs (thread scheduling must not leak into results).
#[test]
fn repeated_runs_are_bitwise_identical() {
    let g = Graph::from_edges(
        30,
        false,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7)],
    );
    let part = Partition::new((0..30).map(|i| (i % 3) as u32).collect(), 3);
    let config = GcnConfig::two_layer(3, 4, 2);
    let mut rng = StdRng::seed_from_u64(2);
    let h0 = Dense::random(30, 3, &mut rng);
    let labels: Vec<u32> = (0..30).map(|i| (i % 2) as u32).collect();
    let mask = vec![true; 30];

    let a = train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        3,
        5,
        ComputeSpec::default(),
    );
    let b = train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        3,
        5,
        ComputeSpec::default(),
    );
    assert_eq!(a.losses, b.losses);
    assert_eq!(a.predictions.data(), b.predictions.data());
    for (wa, wb) in a.params.weights.iter().zip(&b.params.weights) {
        assert_eq!(wa.data(), wb.data());
    }
}
