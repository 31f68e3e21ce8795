//! Rank-local batch preparation (DESIGN.md §11): every rank builds its own
//! rows of `Â` and its own plans through a two-round set-up exchange. The
//! results must be exactly what the central build produces — plans `==`
//! to `PlanBuilder`'s, `Â` bit for bit — and the set-up traffic must stay
//! out of the training counters.

use pargcn_comm::{CommCounters, CommSession};
use pargcn_core::minibatch::{self, MinibatchEngine};
use pargcn_core::plan::{CommPlan, PlanBuilder, RankPlan, RankPlanBuilder};
use pargcn_core::GcnConfig;
use pargcn_graph::gen::er;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::Graph;
use pargcn_matrix::{norm, ComputeSpec, Csr, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{partition_rows, random, Method, Partition};
use pargcn_util::qc;
use pargcn_util::rng::Rng;
use std::cell::RefCell;
use std::sync::Mutex;

/// Rank `m`'s rows of `Â` rebuilt from its forward plan, as
/// `(batch column, value bits)` per local row.
fn rows_from_plan(rp: &RankPlan) -> Vec<Vec<(u32, u32)>> {
    let mut rows = vec![Vec::new(); rp.n_local()];
    let mut add = |block: &Csr, col: &dyn Fn(u32) -> u32| {
        for (r, c, v) in block.iter() {
            rows[r as usize].push((col(c), v.to_bits()));
        }
    };
    add(&rp.a_own, &|c| rp.local_rows[c as usize]);
    for b in &rp.a_remote {
        add(&b.a, &|c| b.rows[c as usize]);
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

/// Builds every rank's plans for `batch` on `session`, one reused builder
/// per rank, and checks them against the central build.
fn check_batch(
    session: &mut CommSession,
    builders: &[Mutex<RankPlanBuilder>],
    graph: &Graph,
    part: &Partition,
    batch: &[u32],
) {
    let local = session.run_step(|ctx| {
        let mut builder = builders[ctx.rank()].lock().unwrap();
        builder.build(ctx, graph, part, batch)
    });
    let sub = graph.induced_subgraph(batch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = minibatch::restrict_partition(part, batch);
    let mut central = PlanBuilder::new();
    let plan_f = central.build(&a, &sub_part);
    let plan_b = graph
        .directed()
        .then(|| central.build(&a.transpose(), &sub_part));
    plan_f.verify();

    let (p, k) = (part.p(), batch.len());
    let (forward, backward): (Vec<RankPlan>, Vec<Option<RankPlan>>) = local.into_iter().unzip();
    let forward = CommPlan {
        ranks: forward,
        n: k,
        p,
    };
    forward.verify();
    assert_eq!(forward, plan_f, "forward plans differ");
    match plan_b {
        Some(plan_b) => {
            plan_b.verify();
            let backward = CommPlan {
                ranks: backward.into_iter().map(Option::unwrap).collect(),
                n: k,
                p,
            };
            backward.verify();
            assert_eq!(backward, plan_b, "backward plans differ");
        }
        None => assert!(backward.iter().all(Option::is_none)),
    }
    // `Â` bit for bit: every rank's rows equal `normalize_adjacency`'s.
    for rp in &forward.ranks {
        for (r, row) in rows_from_plan(rp).into_iter().enumerate() {
            let i = rp.local_rows[r] as usize;
            let want: Vec<(u32, u32)> = a
                .row_indices(i)
                .iter()
                .zip(a.row_values(i))
                .map(|(&c, v)| (c, v.to_bits()))
                .collect();
            assert_eq!(row, want, "row {i} of Â differs on rank {}", rp.rank);
        }
    }
}

/// Rank-local plans (forward and `Âᵀ`) are `==` to `PlanBuilder`'s and
/// verify, and `Â` matches bitwise: directed and undirected graphs, with
/// and without self loops, sorted and unsorted batches, empty parts,
/// p = 1..=5, with one scratch
/// per rank reused across graphs and batches of every size.
#[test]
fn rank_local_plans_equal_the_central_build() {
    for p in 1..=5usize {
        let session = RefCell::new(CommSession::new(p));
        let builders: Vec<Mutex<RankPlanBuilder>> =
            (0..p).map(|_| Mutex::new(RankPlanBuilder::new())).collect();
        qc::run(24, |rng| {
            let n = rng.gen_range(1usize..=60);
            let directed = rng.gen_bool(0.5);
            let mut g = er::generate(n, rng.gen_range(0..=4 * n), directed, rng.gen());
            if rng.gen_bool(0.3) {
                // Self loops in the input coalesce with the added identity.
                let mut coo: Vec<(u32, u32, f32)> = g.adjacency().iter().collect();
                coo.extend(
                    (0..n as u32)
                        .filter(|_| rng.gen_bool(0.5))
                        .map(|v| (v, v, 1.0)),
                );
                g = Graph::from_adjacency(Csr::from_coo(n, n, coo), directed);
            }
            // Part p−1 owns nothing in about a third of the cases.
            let parts = if p > 1 && rng.gen_bool(0.3) { p - 1 } else { p };
            let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts as u32)).collect();
            let part = Partition::new(assignment, p);
            let density = rng.gen_range(0.1..1.0);
            let mut batch: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(density)).collect();
            if rng.gen_bool(0.5) {
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.gen_range(0..=i));
                }
            }
            check_batch(&mut session.borrow_mut(), &builders, &g, &part, &batch);
        });
        // An empty batch and the full graph, on the same scratch.
        let mut session = session.into_inner();
        let g = er::generate(40, 160, true, 9);
        let part = random::partition(40, p, 3);
        check_batch(&mut session, &builders, &g, &part, &[]);
        let all: Vec<u32> = (0..40).collect();
        check_batch(&mut session, &builders, &g, &part, &all);
    }
}

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

/// The training counters grow by exactly the plans' traffic — per layer
/// one forward and one backward exchange, plus the loss and `ΔW`
/// allreduces — and the set-up exchange (two rounds, one message to every
/// peer each) appears only in `setup_*`.
#[test]
fn setup_traffic_stays_out_of_the_training_counters() {
    let (graph, h0, labels, mask) = setup(240, 3);
    // Directed, so both plans are exchanged.
    let graph = Graph::from_adjacency(graph.adjacency().clone(), true);
    let a = graph.normalized_adjacency();
    let p = 3;
    let part = partition_rows(&graph, &a, Method::Hp, p, 0.1, 1);
    let config = GcnConfig::two_layer(8, 12, 4);
    let batches = sample_batches(&graph, Sampler::UniformVertex { batch_size: 70 }, 5, 2);
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };

    let (mut sent_bytes, mut sent_msgs) = (0u64, 0u64);
    let mut trained = 0u64;
    for batch in &batches {
        if !batch.iter().any(|&v| mask[v as usize]) {
            continue;
        }
        trained += 1;
        let sub = graph.induced_subgraph(batch);
        let a = norm::normalize_adjacency(sub.adjacency());
        let sub_part = minibatch::restrict_partition(&part, batch);
        let f = CommPlan::build(&a, &sub_part);
        let b = CommPlan::build(&a.transpose(), &sub_part);
        for k in 1..=config.layers() {
            let (din, dout) = (config.dims[k - 1] as u64, config.dims[k] as u64);
            sent_bytes += 4 * (f.total_volume_rows() * din + b.total_volume_rows() * dout);
            sent_msgs += f.total_messages() + b.total_messages();
        }
    }
    assert!(trained > 0 && sent_msgs > 0, "no traffic — vacuous test");
    let floats: u64 = 1
        + (1..=config.layers())
            .map(|k| (config.dims[k - 1] * config.dims[k]) as u64)
            .sum::<u64>();
    let hops = 2 * (p as u64 - 1);

    let mut engine = MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 5, spec);
    let out = engine.train(&batches);
    assert_eq!(out.losses.len() as u64, trained);
    let c = CommCounters::merged(&engine.counters());
    assert_eq!((c.sent_messages, c.sent_bytes), (sent_msgs, sent_bytes));
    assert_eq!((c.recv_messages, c.recv_bytes), (sent_msgs, sent_bytes));
    assert_eq!(
        (c.collective_messages, c.collective_bytes),
        (
            trained * (config.layers() as u64 + 1) * hops,
            trained * hops * 4 * floats
        )
    );
    // Every batch, trained or skipped, runs both set-up rounds.
    let rounds = batches.len() as u64 * 2;
    assert_eq!(c.setup_messages, rounds * (p * (p - 1)) as u64);
    assert!(c.setup_bytes > 0);
}

/// At p = 4 with a part that owns none of the batch's vertices, the
/// engine still trains the stream bitwise like the per-batch path: the
/// idle rank sends and receives its empty set-up messages and joins every
/// allreduce.
#[test]
fn engine_trains_with_a_part_that_owns_no_batch_vertex() {
    let (graph, h0, labels, mask) = setup(240, 7);
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, 4, 0.1, 1);
    let config = GcnConfig::two_layer(8, 10, 4);
    let batches: Vec<Vec<u32>> =
        sample_batches(&graph, Sampler::UniformVertex { batch_size: 90 }, 6, 5)
            .into_iter()
            .map(|b| {
                b.into_iter()
                    .filter(|&v| part.part_of(v as usize) != 3)
                    .collect()
            })
            .collect();
    let spec = ComputeSpec {
        threads: Some(1),
        kernel: None,
    };
    let old = minibatch::train_spec(
        &graph, &h0, &labels, &mask, &part, &config, &batches, 4, spec,
    );
    let new =
        MinibatchEngine::new(&graph, &h0, &labels, &mask, &part, &config, 4, spec).train(&batches);
    assert!(!old.losses.is_empty(), "no batch trained — vacuous test");
    assert_eq!(old.losses, new.losses);
    assert_eq!(old.params, new.params);
    assert_eq!(old.total_volume_rows, new.total_volume_rows);
    assert_eq!(old.skipped_batches, new.skipped_batches);
}
