//! The persistent mini-batch engine's correctness contract (DESIGN.md
//! §11): the long-lived session + pooled plan builder + pipelined prep
//! must be a pure performance change. Losses, parameters, predictions,
//! and the volume/skip accounting all have to match the per-batch-spawn
//! path **bitwise**, for every rank count and kernel engine, and the
//! steady-state batch loop must stay off the allocator on the comm path
//! (the §9 contract extended to the whole batch stream).
//!
//! The counting global allocator is installed binary-wide so the
//! allocation test sees real numbers; it only counts, so the equivalence
//! tests are unaffected.

use pargcn_core::baselines::cagnet::CagnetPlan;
use pargcn_core::minibatch::{self, MinibatchEngine, MinibatchOutcome};
use pargcn_core::plan::PlanBuilder;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::gen::er;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Csr, Dense, KernelKind};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, random, Method, Partition};
use pargcn_util::allocmeter::CountingAllocator;
use pargcn_util::qc;
use pargcn_util::rng::Rng;
use std::collections::BTreeSet;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn setup(n: usize, seed: u64) -> (Graph, Dense, Vec<u32>, Vec<bool>) {
    let d = sbm::generate(
        SbmParams {
            n,
            classes: 4,
            features: 8,
            ..Default::default()
        },
        seed,
    );
    (d.graph, d.features, d.labels, d.train_mask)
}

/// Batches covering the interesting cases: normal batches plus one with
/// every labelled vertex masked out (the skip path must also pipeline).
fn batches_with_unlabelled(graph: &Graph, mask: &[bool], count: usize) -> Vec<Vec<u32>> {
    let mut batches = sample_batches(graph, Sampler::UniformVertex { batch_size: 60 }, count, 11);
    let unlabelled: Vec<u32> = (0..graph.n() as u32)
        .filter(|&v| !mask[v as usize])
        .take(40)
        .collect();
    assert!(
        !unlabelled.is_empty(),
        "test graph must have unlabelled vertices"
    );
    batches.insert(count / 2, unlabelled);
    batches
}

fn assert_outcomes_identical(old: &MinibatchOutcome, new: &MinibatchOutcome) {
    assert_eq!(old.losses, new.losses, "per-batch losses diverged");
    assert_eq!(old.params, new.params, "final parameters diverged");
    assert_eq!(old.total_volume_rows, new.total_volume_rows);
    assert_eq!(old.skipped_batches, new.skipped_batches);
    assert_eq!(old.skipped_volume_rows, new.skipped_volume_rows);
}

/// Predictions from the final parameters, computed identically for both
/// paths (the mini-batch outcome carries no predictions of its own).
fn predictions_from(
    graph: &Graph,
    config: &GcnConfig,
    out: &MinibatchOutcome,
    h0: &Dense,
) -> Dense {
    let a = graph.normalized_adjacency();
    SerialTrainer::from_adjacency(a, graph.directed(), config.clone(), out.params.clone())
        .predict(h0)
}

fn equivalence_at(p: usize, kernel: KernelKind) {
    let (graph, h0, labels, mask) = setup(240, 3);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, p, 0.1, 1);
    let config = GcnConfig::two_layer(8, 12, 4);
    let batches = batches_with_unlabelled(&graph, &mask, 12);
    let spec = ComputeSpec {
        threads: Some(2),
        kernel: Some(kernel),
    };

    let old = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 5, spec,
    );
    let new =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 5, spec).train(&batches);

    assert!(!old.losses.is_empty(), "no batch trained — vacuous test");
    assert_eq!(old.skipped_batches, 1, "the unlabelled batch must skip");
    assert_outcomes_identical(&old, &new);
    assert_eq!(
        predictions_from(&graph, &config, &old, &h0),
        predictions_from(&graph, &config, &new, &h0),
        "predictions diverged"
    );
}

#[test]
fn engine_matches_per_batch_path_p2() {
    equivalence_at(2, KernelKind::Naive);
    equivalence_at(2, KernelKind::Blocked);
}

#[test]
fn engine_matches_per_batch_path_p4() {
    equivalence_at(4, KernelKind::Naive);
    equivalence_at(4, KernelKind::Blocked);
}

/// Splitting a batch stream across several `train` calls must behave like
/// one long call: parameters and optimizer state carry across calls.
#[test]
fn engine_streams_across_train_calls() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 3, 0.1, 2);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 50 }, 8, 4);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let whole =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec).train(&batches);

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec);
    let first = engine.train(&batches[..3]);
    let second = engine.train(&batches[3..]);

    let mut losses = first.losses;
    losses.extend(&second.losses);
    assert_eq!(whole.losses, losses);
    assert_eq!(whole.params, second.params);
    assert_eq!(
        whole.total_volume_rows,
        first.total_volume_rows + second.total_volume_rows
    );
}

/// The engine's batch loop performs zero comm-path allocations once the
/// pools and workspaces have grown to the batch stream's high-water mark.
#[test]
fn steady_state_batches_do_not_allocate_on_the_comm_path() {
    let (graph, h0, labels, mask) = setup(240, 7);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 4, 0.1, 1);
    let config = GcnConfig::two_layer(8, 16, 4);
    let batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 80 }, 6, 13);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 3, spec);
    // Warm-up: pools, queues and workspaces grow to this batch list's
    // high-water footprint.
    engine.train(&batches);
    engine.reset_counters();
    // Steady state: the identical batch list must stay off the allocator
    // inside the comm runtime on every rank.
    let out = engine.train(&batches);
    assert!(!out.losses.is_empty());
    for (rank, c) in engine.counters().iter().enumerate() {
        assert_eq!(
            c.comm_path_allocs, 0,
            "rank {rank}: steady-state batches allocated {} times inside the comm runtime",
            c.comm_path_allocs
        );
    }
    assert!(
        out.total_volume_rows > 0,
        "batches produced no communication — the assertion above is vacuous"
    );
}

/// A panic on the calling thread while a step is in flight — here
/// `prepare_batch` rejecting batch 1 while the ranks train batch 0 — must
/// leave the engine usable: batch 0's step completes on every rank before
/// the panic propagates, and the next `train` call continues the stream.
#[test]
fn engine_recovers_from_a_panic_while_preparing_the_next_batch() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 3, 0.1, 2);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batch = sample_batches(&graph, Sampler::UniformVertex { batch_size: 50 }, 1, 4).remove(0);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.train(&[batch.clone(), vec![u32::MAX]])
    }));
    let Err(payload) = caught else {
        panic!("an out-of-range vertex must be rejected");
    };
    let msg = payload.downcast_ref::<String>().expect("formatted panic");
    assert!(
        msg.contains("4294967295") && msg.contains("n = 200"),
        "panic should name the vertex and n: {msg}"
    );

    // Batch 0 trained before the panic, so this is the stream's second step.
    let out = engine.train(std::slice::from_ref(&batch));
    let reference = minibatch::train_spec(
        &graph,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        &[batch.clone(), batch],
        7,
        spec,
    );
    assert_eq!(
        reference.losses.len(),
        2,
        "both reference batches must train"
    );
    assert_eq!(out.losses, reference.losses[1..]);
    assert_eq!(out.params, reference.params);
}

#[test]
#[should_panic(expected = "batch vertex 200 is out of range for a graph of n = 200")]
fn per_batch_path_rejects_a_vertex_outside_the_graph() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let part = Partition::trivial(graph.n());
    let config = GcnConfig::two_layer(8, 10, 4);
    minibatch::train_spec(
        &graph,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        &[vec![0, 1, 200]],
        7,
        ComputeSpec::default(),
    );
}

/// Skipped-batch accounting: a batch with no labelled vertices produces
/// no loss and no traffic, and its would-be volume is reported apart.
#[test]
fn skipped_batches_are_counted_apart_from_trained_volume() {
    let (graph, h0, labels, mask) = setup(200, 5);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Rp, 4, 0.1, 3);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batches = batches_with_unlabelled(&graph, &mask, 4);
    let spec = ComputeSpec::default();

    let out = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 2, spec,
    );
    assert_eq!(out.skipped_batches, 1);
    assert_eq!(out.losses.len(), batches.len() - 1);
    assert!(
        out.skipped_volume_rows > 0,
        "the unlabelled batch should have cut edges under RP"
    );
    // Trained volume is exactly the sum over trained batches — recompute
    // from the per-batch volumes and compare.
    let (all, per) = minibatch::expected_comm_volume(&graph, &batches, &part);
    assert_eq!(all, out.total_volume_rows + out.skipped_volume_rows);
    let unlabelled_idx = batches
        .iter()
        .position(|b| b.iter().all(|&v| !mask[v as usize]))
        .unwrap();
    assert_eq!(out.skipped_volume_rows, per[unlabelled_idx]);
}

/// A repeated vertex would train one copy without in-edges (the subgraph
/// maps each vertex to a single batch position); both paths reject it,
/// naming the vertex and both positions.
#[test]
#[should_panic(expected = "batch vertex 0 appears twice, at positions 0 and 1")]
fn per_batch_path_rejects_a_repeated_vertex() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let part = Partition::trivial(graph.n());
    let config = GcnConfig::two_layer(8, 10, 4);
    minibatch::train_spec(
        &graph,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        &[vec![0, 0, 48, 90, 144, 188]],
        7,
        ComputeSpec::default(),
    );
}

#[test]
#[should_panic(expected = "batch vertex 48 appears twice, at positions 1 and 3")]
fn engine_rejects_a_repeated_vertex() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 2, 0.1, 2);
    let config = GcnConfig::two_layer(8, 10, 4);
    let spec = ComputeSpec::default();
    MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec)
        .train(&[vec![90, 48, 0, 48, 144]]);
}

/// Unsorted batches stay accepted, and both paths agree on them.
#[test]
fn unsorted_batches_train_identically_on_both_paths() {
    let (graph, h0, labels, mask) = setup(200, 9);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 3, 0.1, 2);
    let config = GcnConfig::two_layer(8, 10, 4);
    let mut batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 50 }, 4, 4);
    for b in &mut batches {
        b.reverse();
    }
    let spec = ComputeSpec::default();
    let old = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 7, spec,
    );
    let new =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 7, spec).train(&batches);
    assert!(!old.losses.is_empty());
    assert_outcomes_identical(&old, &new);
}

/// The entries of `A` split straight from Eqs. 8–9, independent of the
/// plan code: `by_owner[m][o]` holds every entry of rank m's rows whose
/// column rank o owns, as (local row, global column, value bits).
struct Reference {
    local_rows: Vec<Vec<u32>>,
    local_index: Vec<u32>,
    by_owner: Vec<Vec<Vec<(u32, u32, u32)>>>,
}

impl Reference {
    fn new(a: &Csr, part: &Partition) -> Reference {
        let p = part.p();
        let mut local_rows = vec![Vec::new(); p];
        let mut local_index = vec![0u32; a.n_rows()];
        for v in 0..a.n_rows() {
            let owned = &mut local_rows[part.part_of(v) as usize];
            local_index[v] = owned.len() as u32;
            owned.push(v as u32);
        }
        let mut by_owner = vec![vec![Vec::new(); p]; p];
        for (r, c, v) in a.iter() {
            let (m, o) = (part.part_of(r as usize), part.part_of(c as usize));
            by_owner[m as usize][o as usize].push((local_index[r as usize], c, v.to_bits()));
        }
        Reference {
            local_rows,
            local_index,
            by_owner,
        }
    }

    /// The distinct global columns in `by_owner[m][o]`, ascending: Eq. 9's
    /// rows rank m receives from o, and Eq. 8's rows o sends to m.
    fn needed(&self, m: usize, o: usize) -> Vec<u32> {
        let cols: BTreeSet<u32> = self.by_owner[m][o].iter().map(|e| e.1).collect();
        cols.into_iter().collect()
    }

    /// Asserts `block` holds exactly `by_owner[m][o]` with column `c`
    /// renumbered to `col(c)`, in an `n_m × n_cols` shape.
    fn assert_block(
        &self,
        block: &Csr,
        m: usize,
        o: usize,
        n_cols: usize,
        col: impl Fn(u32) -> u32,
    ) {
        assert_eq!(
            block.n_rows(),
            self.local_rows[m].len(),
            "block ({m},{o}) rows"
        );
        assert_eq!(block.n_cols(), n_cols, "block ({m},{o}) cols");
        let mut want: Vec<(u32, u32, u32)> = self.by_owner[m][o]
            .iter()
            .map(|&(r, c, v)| (r, col(c), v))
            .collect();
        want.sort_unstable();
        let got: Vec<(u32, u32, u32)> = block.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        assert_eq!(got, want, "block ({m},{o}) entries");
    }

    fn assert_comm_plan(&self, plan: &CommPlan) {
        let p = self.local_rows.len();
        assert_eq!(
            (plan.n, plan.p, plan.ranks.len()),
            (self.local_index.len(), p, p)
        );
        for (m, rp) in plan.ranks.iter().enumerate() {
            assert_eq!(rp.rank, m);
            assert_eq!(rp.local_rows, self.local_rows[m]);
            let n_m = self.local_rows[m].len();
            self.assert_block(&rp.a_own, m, m, n_m, |c| self.local_index[c as usize]);
            let peers = (0..p).filter(|&o| o != m);
            let recv: Vec<(usize, Vec<u32>)> = peers
                .clone()
                .map(|o| (o, self.needed(m, o)))
                .filter(|(_, rows)| !rows.is_empty())
                .collect();
            assert_eq!(rp.a_remote.len(), recv.len(), "rank {m} receive set");
            for (block, (o, rows)) in rp.a_remote.iter().zip(&recv) {
                assert_eq!((block.peer, &block.rows), (*o, rows));
                self.assert_block(&block.a, m, *o, rows.len(), |c| {
                    rows.binary_search(&c).unwrap() as u32
                });
            }
            let send: Vec<(usize, Vec<u32>)> = peers
                .map(|o| (o, self.needed(o, m)))
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(o, rows)| {
                    (
                        o,
                        rows.iter().map(|&j| self.local_index[j as usize]).collect(),
                    )
                })
                .collect();
            let got: Vec<(usize, Vec<u32>)> = rp
                .send
                .iter()
                .map(|s| (s.peer, s.local_indices.clone()))
                .collect();
            assert_eq!(got, send, "rank {m} send sets");
        }
    }

    fn assert_cagnet_plan(&self, plan: &CagnetPlan) {
        let p = self.local_rows.len();
        assert_eq!(
            (plan.n, plan.p, plan.ranks.len()),
            (self.local_index.len(), p, p)
        );
        for (m, rank) in plan.ranks.iter().enumerate() {
            assert_eq!(rank.rank, m);
            assert_eq!(rank.local_rows, self.local_rows[m]);
            assert_eq!(rank.blocks.len(), p, "CAGNET keeps every column block");
            for (o, block) in rank.blocks.iter().enumerate() {
                let n_o = self.local_rows[o].len();
                self.assert_block(block, m, o, n_o, |c| self.local_index[c as usize]);
            }
        }
    }
}

/// `PlanBuilder` with scratch reused across arbitrary graph/partition
/// streams — including small builds after large ones — emits exactly the
/// plan Eqs. 8–9 define, as does a fresh `CommPlan::build`.
#[test]
fn plan_builder_reuse_matches_eq_8_9_reference() {
    // `qc::run` takes `Fn`, so the reused builder lives in a `RefCell`.
    let builder = std::cell::RefCell::new(PlanBuilder::new());
    qc::run(48, |rng| {
        let n = rng.gen_range(2usize..=60);
        let m = rng.gen_range(0usize..=4 * n);
        let directed = rng.gen_range(0u32..2) == 1;
        let g = er::generate(n, m, directed, rng.gen_range(0u64..1 << 40));
        let a = g.normalized_adjacency();
        let p = rng.gen_range(1usize..=n.min(6));
        let part = random::partition(n, p, rng.gen_range(0u64..1 << 40));
        let reference = Reference::new(&a, &part);
        reference.assert_comm_plan(&builder.borrow_mut().build(&a, &part));
        reference.assert_comm_plan(&CommPlan::build(&a, &part));
        if directed {
            let at = a.transpose();
            Reference::new(&at, &part).assert_comm_plan(&builder.borrow_mut().build(&at, &part));
        }
    });
    // Degenerate shapes the sweep may miss, built after it on the same
    // scratch: an empty part, p = 1, and a small build after a large one.
    let mut builder = builder.into_inner();
    let big = er::generate(60, 240, true, 5).normalized_adjacency();
    let big_part = random::partition(60, 6, 5);
    Reference::new(&big, &big_part).assert_comm_plan(&builder.build(&big, &big_part));
    let a = er::generate(8, 24, true, 2).normalized_adjacency();
    for part in [
        Partition::new(vec![0, 0, 1, 1, 1, 0, 1, 0], 3),
        Partition::trivial(8),
    ] {
        Reference::new(&a, &part).assert_comm_plan(&builder.build(&a, &part));
    }
}

/// `CagnetPlan::build` splits every rank's rows into all p column blocks
/// exactly as Eqs. 8–9 partition `A`, for `Â` and for `Âᵀ` of directed
/// graphs, p = 1..=5 and a partition with an empty part.
#[test]
fn cagnet_plan_matches_eq_8_9_reference() {
    qc::run(24, |rng| {
        let n = rng.gen_range(5usize..=50);
        let directed = rng.gen_range(0u32..2) == 1;
        let g = er::generate(
            n,
            rng.gen_range(0..=4 * n),
            directed,
            rng.gen_range(0u64..1 << 40),
        );
        let a = g.normalized_adjacency();
        for p in 1..=5 {
            let part = random::partition(n, p, rng.gen_range(0u64..1 << 40));
            Reference::new(&a, &part).assert_cagnet_plan(&CagnetPlan::build(&a, &part));
            if directed {
                let at = a.transpose();
                Reference::new(&at, &part).assert_cagnet_plan(&CagnetPlan::build(&at, &part));
            }
        }
    });
    let a = er::generate(8, 24, true, 2).normalized_adjacency();
    let part = Partition::new(vec![0, 0, 1, 1, 1, 0, 1, 0], 3);
    Reference::new(&a, &part).assert_cagnet_plan(&CagnetPlan::build(&a, &part));
}
