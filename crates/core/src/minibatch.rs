//! Distributed mini-batch training (§4.3.3's workload).
//!
//! Each step samples a subgraph `G' ⊂ G`, normalizes its adjacency, builds
//! the per-batch communication plan under the *global* row partition
//! (vertices keep their home processor — DistDGL-style co-location), and
//! runs one full-batch step on the subgraph, carrying parameters across
//! batches. [`expected_comm_volume`] measures the per-batch point-to-point
//! volume a partition induces — the quantity Fig. 5 compares between HP
//! and SHP.

use crate::dist::trainer::{train_with_plans_spec, RankData, RankSlot};
use crate::model::{GcnConfig, Params};
use crate::plan::{CommPlan, PlanBuilder};
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::{Graph, SubgraphScratch};
use pargcn_matrix::{gather, norm, ComputeSpec, Dense};
use pargcn_partition::{metrics, Partition};
use std::sync::Mutex;

/// Restriction of a global partition to a batch's vertices: part ids keep
/// their meaning (rank `m` still owns its vertices), rows renumber to the
/// batch-local space.
pub fn restrict_partition(part: &Partition, batch: &[u32]) -> Partition {
    let assignment: Vec<u32> = batch.iter().map(|&v| part.part_of(v as usize)).collect();
    Partition::new(assignment, part.p())
}

/// Exact point-to-point row volume of one mini-batch convolution sweep
/// under `part`: the sub-adjacency's comm volume with vertices on their
/// home processors.
pub fn batch_comm_volume(graph: &Graph, batch: &[u32], part: &Partition) -> u64 {
    let sub = graph.induced_subgraph(batch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = restrict_partition(part, batch);
    metrics::spmm_comm_stats(&a, &sub_part).total_rows
}

/// Total and per-batch expected communication volume over a batch set —
/// the Fig. 5 "Msg Vol" metric (in rows; multiply by `Σ(d_{k-1}+d_k)·4`
/// for bytes across a full training sweep).
pub fn expected_comm_volume(
    graph: &Graph,
    batches: &[Vec<u32>],
    part: &Partition,
) -> (u64, Vec<u64>) {
    let per: Vec<u64> = batches
        .iter()
        .map(|b| batch_comm_volume(graph, b, part))
        .collect();
    (per.iter().sum(), per)
}

/// Outcome of a mini-batch training run.
pub struct MinibatchOutcome {
    /// Per-batch training loss (over the batch's masked vertices).
    pub losses: Vec<f64>,
    /// Final parameters.
    pub params: Params,
    /// Total point-to-point rows exchanged across the *trained* batches
    /// (feedforward-direction plans; one sweep's volume × layers × 2 gives
    /// a full-epoch figure). Skipped batches exchange nothing, so their
    /// would-be volume is reported separately.
    pub total_volume_rows: u64,
    /// Batches skipped because they sampled no labelled vertex (no
    /// gradient, no step, no traffic).
    pub skipped_batches: usize,
    /// The feedforward plan volume those skipped batches *would* have
    /// exchanged — kept out of `total_volume_rows` so Fig. 5's
    /// trained-batch volume is not overstated.
    pub skipped_volume_rows: u64,
}

/// Trains over the given mini-batches (one step each), distributing every
/// batch across the same `part.p()` ranks under the global partition,
/// with `spec` (thread count and kernel engine) applied to every batch
/// step. Spawns the ranks afresh per batch; [`MinibatchEngine`] trains
/// the same stream bitwise identically without the per-batch startup.
// The training entry points take the full problem description by design;
// a config struct would just rename the nine pieces.
#[allow(clippy::too_many_arguments)]
pub fn train_spec(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    batches: &[Vec<u32>],
    param_seed: u64,
    spec: ComputeSpec,
) -> MinibatchOutcome {
    let mut params = config.init_params(param_seed);
    let mut losses = Vec::with_capacity(batches.len());
    let mut total_volume = 0u64;
    let mut skipped_batches = 0usize;
    let mut skipped_volume = 0u64;
    for batch in batches {
        assert_in_graph(batch, graph.n());
        let sub = graph.induced_subgraph(batch);
        let a = norm::normalize_adjacency(sub.adjacency());
        let sub_part = restrict_partition(part, batch);
        let plan_f = CommPlan::build(&a, &sub_part);
        let plan_b = sub
            .directed()
            .then(|| CommPlan::build(&a.transpose(), &sub_part));

        let m_batch: Vec<bool> = batch.iter().map(|&v| mask[v as usize]).collect();
        if !m_batch.iter().any(|&m| m) {
            // No labelled vertices sampled: skip the step (no gradient) —
            // before gathering the batch's feature rows, which would only
            // be thrown away. A skipped batch exchanges nothing, so its
            // volume is tallied separately, not into `total_volume_rows`.
            skipped_batches += 1;
            skipped_volume += plan_f.total_volume_rows();
            continue;
        }
        total_volume += plan_f.total_volume_rows();
        let h_batch = gather::gather_rows(h0, batch);
        let l_batch: Vec<u32> = batch.iter().map(|&v| labels[v as usize]).collect();
        let out = train_with_plans_spec(
            &plan_f.ranks,
            &plan_b.as_ref().unwrap_or(&plan_f).ranks,
            &h_batch,
            &l_batch,
            &m_batch,
            config,
            1,
            params,
            spec,
        );
        params = out.params;
        losses.push(out.losses[0]);
    }
    MinibatchOutcome {
        losses,
        params,
        total_volume_rows: total_volume,
        skipped_batches,
        skipped_volume_rows: skipped_volume,
    }
}

/// Everything one batch needs to train, built ahead of time into the
/// engine's double buffer: plans, per-rank data slices, and bookkeeping.
/// Prep is a pure function of the batch (graph, features, partition,
/// config are fixed), which is why building batch t+1 while the ranks
/// train batch t cannot change any result.
struct BatchPrep {
    plan_f: CommPlan,
    /// `None` for undirected graphs (backward reuses `plan_f`).
    plan_b: Option<CommPlan>,
    /// Per-rank data slices (grow-once).
    locals: Vec<RankData>,
    mask_total: f64,
    /// False when the batch sampled no labelled vertex: no step runs.
    trainable: bool,
    volume: u64,
}

impl BatchPrep {
    fn empty(p: usize, width: usize) -> BatchPrep {
        BatchPrep {
            plan_f: CommPlan {
                ranks: Vec::new(),
                n: 0,
                p,
            },
            plan_b: None,
            locals: (0..p)
                .map(|_| RankData {
                    h0: Dense::zeros(0, width),
                    labels: Vec::new(),
                    mask: Vec::new(),
                })
                .collect(),
            mask_total: 1.0,
            trainable: false,
            volume: 0,
        }
    }

    fn backward_rank(&self, m: usize) -> &crate::plan::RankPlan {
        match &self.plan_b {
            Some(pb) => &pb.ranks[m],
            None => &self.plan_f.ranks[m],
        }
    }
}

/// Persistent mini-batch training engine (DESIGN.md §11).
///
/// [`train_spec`] pays full startup cost per batch: a fresh
/// [`CommSession`] respawns all `p` rank threads and kernel pools,
/// re-prewarms the comm pools, reallocates an `EpochWorkspace`, and
/// `CommPlan::build` zeroes O(n·p) scratch — all wrapped around a
/// *single* training step. The engine hoists every one of those out of
/// the loop, running every batch as one step of the same per-rank slot
/// the full-batch trainer uses:
///
/// * a [`CommSession`] keeps the rank threads, channels, buffer pools and
///   counters alive across the whole batch stream;
/// * per-rank kernel pools are built once;
/// * a [`PlanBuilder`] and [`SubgraphScratch`] reuse their maps, and each
///   rank's workspace grows once to the high-water batch;
/// * batch *t+1*'s subgraph, normalized adjacency, plan, and data slices
///   are prepared on the main thread *while the ranks train batch t*
///   ([`CommSession::run_step_overlapped`], double buffer). Prep is a
///   pure function of the batch, so the pipelining cannot change results.
///
/// Outputs are bitwise identical to [`train_spec`] (equivalence suite in
/// `tests/minibatch_engine.rs`); only the per-batch overhead changes.
pub struct MinibatchEngine<'a> {
    graph: &'a Graph,
    h0: &'a Dense,
    labels: &'a [u32],
    mask: &'a [bool],
    part: &'a Partition,
    config: &'a GcnConfig,
    session: CommSession,
    slots: Vec<Mutex<RankSlot>>,
    builder: PlanBuilder,
    scratch: SubgraphScratch,
    preps: (BatchPrep, BatchPrep),
    /// Which of `preps` holds the batch being trained (the other is the
    /// build target); flips every batch.
    cur: usize,
}

impl<'a> MinibatchEngine<'a> {
    /// Spawns the rank runtime and builds every per-rank resource. The
    /// parameters start at `config.init_params(param_seed)`, exactly like
    /// the per-batch path.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &'a Graph,
        h0: &'a Dense,
        labels: &'a [u32],
        mask: &'a [bool],
        part: &'a Partition,
        config: &'a GcnConfig,
        param_seed: u64,
        spec: ComputeSpec,
    ) -> MinibatchEngine<'a> {
        assert_eq!(h0.rows(), graph.n(), "feature rows mismatch");
        assert_eq!(labels.len(), graph.n(), "labels mismatch");
        assert_eq!(mask.len(), graph.n(), "mask mismatch");
        assert_eq!(part.n(), graph.n(), "partition size mismatch");
        let p = part.p();
        let init = config.init_params(param_seed);
        let slots = (0..p)
            .map(|_| Mutex::new(RankSlot::new(0, config, init.clone(), p, spec)))
            .collect();
        MinibatchEngine {
            graph,
            h0,
            labels,
            mask,
            part,
            config,
            session: CommSession::new(p),
            slots,
            builder: PlanBuilder::new(),
            scratch: SubgraphScratch::new(),
            preps: (
                BatchPrep::empty(p, h0.cols()),
                BatchPrep::empty(p, h0.cols()),
            ),
            cur: 0,
        }
    }

    /// Trains one step per batch, pipelining each batch's preparation
    /// under the previous batch's training step. May be called repeatedly
    /// — parameters and optimizer state carry across calls, so a stream
    /// of `train` calls behaves like one long batch list.
    pub fn train(&mut self, batches: &[Vec<u32>]) -> MinibatchOutcome {
        let mut losses = Vec::with_capacity(batches.len());
        let mut total_volume = 0u64;
        let mut skipped_batches = 0usize;
        let mut skipped_volume = 0u64;
        // Split the engine into disjoint borrows: the step closure reads
        // `slots` + the active prep while `prepare_batch` refills the
        // builder scratch and the build prep.
        let MinibatchEngine {
            graph,
            h0,
            labels,
            mask,
            part,
            config,
            session,
            slots,
            builder,
            scratch,
            preps,
            cur,
        } = self;

        if let Some(first) = batches.first() {
            let build = if *cur == 0 {
                &mut preps.0
            } else {
                &mut preps.1
            };
            prepare_batch(
                graph, h0, labels, mask, part, builder, scratch, first, build,
            );
        }
        for t in 0..batches.len() {
            let (active, build) = if *cur == 0 {
                (&preps.0, &mut preps.1)
            } else {
                (&preps.1, &mut preps.0)
            };
            let mut prepare_next = || {
                if let Some(next) = batches.get(t + 1) {
                    prepare_batch(graph, h0, labels, mask, part, builder, scratch, next, build);
                }
            };
            if active.trainable {
                let step = |ctx: &mut RankCtx| {
                    let m = ctx.rank();
                    let mut slot = slots[m].lock().expect("rank slot poisoned");
                    let (rp_f, rp_b) = (&active.plan_f.ranks[m], active.backward_rank(m));
                    let data = &active.locals[m];
                    slot.step(ctx, rp_f, rp_b, data, active.mask_total, config, true)
                };
                // Ranks train batch t while this thread prepares t+1.
                let (rank_losses, ()) = session.run_step_overlapped(step, prepare_next);
                total_volume += active.volume;
                losses.push(rank_losses[0]);
            } else {
                skipped_batches += 1;
                skipped_volume += active.volume;
                prepare_next();
            }
            *cur ^= 1;
        }
        MinibatchOutcome {
            losses,
            params: self.params(),
            total_volume_rows: total_volume,
            skipped_batches,
            skipped_volume_rows: skipped_volume,
        }
    }

    /// The current (replicated) parameters.
    pub fn params(&self) -> Params {
        self.slots[0]
            .lock()
            .expect("rank slot poisoned")
            .params
            .clone()
    }

    /// Per-rank communication counters, accumulated since the engine was
    /// created (or last [`MinibatchEngine::reset_counters`]).
    pub fn counters(&mut self) -> Vec<CommCounters> {
        self.session.run_step(|ctx| ctx.counters().clone())
    }

    /// Zeroes every rank's counters (e.g. after warm-up batches, so a
    /// measurement window sees steady state only).
    pub fn reset_counters(&mut self) {
        self.session.run_step(|ctx| ctx.reset_counters());
    }
}

/// Builds everything batch `batch` needs into `prep` (grow-once where the
/// buffers allow it). Pure in the engine's fixed inputs: no training
/// state is read, so prep for batch t+1 can run while batch t trains.
#[allow(clippy::too_many_arguments)]
fn prepare_batch(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    builder: &mut PlanBuilder,
    scratch: &mut SubgraphScratch,
    batch: &[u32],
    prep: &mut BatchPrep,
) {
    assert_in_graph(batch, graph.n());
    let sub = graph.induced_subgraph_into(batch, scratch);
    let a = norm::normalize_adjacency(sub.adjacency());
    let sub_part = restrict_partition(part, batch);
    prep.plan_f = builder.build(&a, &sub_part);
    prep.plan_b = if sub.directed() {
        Some(builder.build(&a.transpose(), &sub_part))
    } else {
        None
    };
    prep.volume = prep.plan_f.total_volume_rows();
    let masked = batch.iter().filter(|&&v| mask[v as usize]).count();
    prep.trainable = masked > 0;
    prep.mask_total = masked.max(1) as f64;
    for (rp, local) in prep.plan_f.ranks.iter().zip(&mut prep.locals) {
        local.h0.resize_rows(rp.local_rows.len());
        local.labels.clear();
        local.mask.clear();
        for (li, &lr) in rp.local_rows.iter().enumerate() {
            let v = batch[lr as usize] as usize;
            local.h0.row_mut(li).copy_from_slice(h0.row(v));
            local.labels.push(labels[v]);
            local.mask.push(mask[v]);
        }
    }
}

/// Rejects a batch naming a vertex outside the graph or naming one vertex
/// twice (the induced subgraph maps batch positions to vertices one to
/// one). A sorted batch — what `sample_batches` yields — is checked for
/// repeats in one compare per vertex; only an unsorted one pays a sort.
fn assert_in_graph(batch: &[u32], n: usize) {
    if let Some(&v) = batch.iter().find(|&&v| v as usize >= n) {
        panic!("batch vertex {v} is out of range for a graph of n = {n} vertices");
    }
    if batch.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    let mut by_vertex: Vec<(u32, usize)> = batch.iter().copied().zip(0..).collect();
    by_vertex.sort_unstable();
    if let Some(w) = by_vertex.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!(
            "batch vertex {} appears twice, at positions {} and {}",
            w[0].0, w[0].1, w[1].1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::sbm::{self, SbmParams};
    use pargcn_partition::stochastic::{sample_batches, Sampler};
    use pargcn_partition::{partition_rows, Method};

    fn setup() -> (Graph, Dense, Vec<u32>, Vec<bool>) {
        let d = sbm::generate(
            SbmParams {
                n: 240,
                classes: 4,
                features: 8,
                ..Default::default()
            },
            3,
        );
        (d.graph, d.features, d.labels, d.train_mask)
    }

    #[test]
    fn restriction_keeps_home_processors() {
        let part = Partition::new(vec![0, 1, 2, 0, 1, 2], 3);
        let sub = restrict_partition(&part, &[1, 3, 5]);
        assert_eq!(sub.assignment(), &[1, 0, 2]);
    }

    #[test]
    fn batch_volume_zero_for_single_part() {
        let (g, ..) = setup();
        let part = Partition::trivial(g.n());
        assert_eq!(batch_comm_volume(&g, &[0, 1, 2, 3, 4, 5, 6, 7], &part), 0);
    }

    #[test]
    fn minibatch_training_reduces_loss() {
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 1);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 120 }, 30, 2);
        let config = GcnConfig::two_layer(8, 12, 4);
        let out = train_spec(
            &g,
            &h0,
            &labels,
            &mask,
            &part,
            &config,
            &batches,
            5,
            ComputeSpec::default(),
        );
        assert!(out.losses.len() >= 25);
        let first: f64 = out.losses[..5].iter().sum::<f64>() / 5.0;
        let last: f64 = out.losses[out.losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(
            last < first,
            "mini-batch loss did not decrease: {first} → {last}"
        );
        assert!(out.total_volume_rows > 0);
    }

    #[test]
    fn expected_volume_sums_batches() {
        let (g, ..) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Rp, 4, 0.1, 7);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 60 }, 5, 8);
        let (total, per) = expected_comm_volume(&g, &batches, &part);
        assert_eq!(per.len(), 5);
        assert_eq!(total, per.iter().sum::<u64>());
        assert!(total > 0);
    }
}
