//! Distributed mini-batch training (§4.3.3's workload).
//!
//! Each step samples a subgraph `G' ⊂ G`, normalizes its adjacency, builds
//! the per-batch communication plan under the *global* row partition
//! (vertices keep their home processor — DistDGL-style co-location), and
//! runs one full-batch step on the subgraph, carrying parameters across
//! batches. [`expected_comm_volume`] measures the per-batch point-to-point
//! volume a partition induces — the quantity Fig. 5 compares between HP
//! and SHP.

use crate::dist::trainer::{metered, RankSlot, TrainState, Trainer};
use crate::model::{GcnConfig, Params};
use crate::plan::{CommPlan, RankPlan};
use pargcn_comm::{CommCounters, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, norm, ComputeSpec, Dense};
use pargcn_partition::{metrics, Partition};

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
/// with `spec` applied to every batch step. The per-batch reference path:
/// each batch gets central plans and a [`Trainer`] of its own, and the
/// parameters and optimizer state carry from batch to batch. A
/// non-finite loss panics, naming the step and the index in `batches`.
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
    let mut state = TrainState::new(config, param_seed);
    let mut losses = Vec::with_capacity(batches.len());
    let mut total_volume = 0u64;
    let mut skipped_batches = 0usize;
    let mut skipped_volume = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        assert_in_graph(batch, graph.n());
        let sub = graph.induced_subgraph(batch);
        let a = norm::normalize_adjacency(sub.adjacency());
        let sub_part = restrict_partition(part, batch);
        let plan_f = CommPlan::build(&a, &sub_part);

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
        let plan_b = sub
            .directed()
            .then(|| CommPlan::build(&a.transpose(), &sub_part).ranks);
        let h_batch = gather::gather_rows(h0, batch);
        let l_batch: Vec<u32> = batch.iter().map(|&v| labels[v as usize]).collect();
        let mut trainer = Trainer::new(
            plan_f.ranks,
            plan_b,
            &h_batch,
            &l_batch,
            &m_batch,
            config,
            state,
            spec,
        );
        trainer.steps = losses.len();
        losses.push(trainer.step_of(Some(i)));
        state = trainer.state();
    }
    MinibatchOutcome {
        losses,
        params: state.params,
        total_volume_rows: total_volume,
        skipped_batches,
        skipped_volume_rows: skipped_volume,
    }
}

/// Persistent mini-batch training engine (DESIGN.md §11): the batch
/// stream as steps of one [`Trainer`], whose rank threads, pools and
/// grow-once workspaces live across the stream, where [`train_spec`]
/// starts a session per batch. At the start of batch *t*'s step each rank
/// builds its own rows and plans of the batch
/// ([`RankPlanBuilder`](crate::plan::RankPlanBuilder), two set-up rounds
/// that count only in `CommCounters::setup_*`) and gathers its rows; the
/// calling thread meanwhile checks batch *t+1*.
///
/// Losses, parameters and volumes are bitwise those of [`train_spec`],
/// under SGD and Adam alike (`tests/minibatch_engine.rs`): the rank-local
/// plans are `==` to the central ones, and both paths carry the
/// optimizer state across batches.
pub struct MinibatchEngine<'a> {
    trainer: Trainer<'a>,
    graph: &'a Graph,
    h0: &'a Dense,
    labels: &'a [u32],
    mask: &'a [bool],
    part: &'a Partition,
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
        // Every rank starts with no rows; each step brings its batch's.
        let plans = (0..part.p())
            .map(|rank| RankPlan::pass_through(rank, Vec::new()))
            .collect();
        let no_rows = Dense::zeros(0, h0.cols());
        let start = TrainState::new(config, param_seed);
        let trainer = Trainer::new(plans, None, &no_rows, &[], &[], config, start, spec);
        MinibatchEngine {
            trainer,
            graph,
            h0,
            labels,
            mask,
            part,
        }
    }

    /// Trains one step per batch; each batch's step starts with the
    /// ranks preparing it, while the calling thread checks the next
    /// batch. May be called repeatedly — parameters and optimizer state
    /// carry across calls, so a stream of `train` calls behaves like one
    /// long batch list. A non-finite loss panics as in [`train_spec`].
    pub fn train(&mut self, batches: &[Vec<u32>]) -> MinibatchOutcome {
        let mut losses = Vec::with_capacity(batches.len());
        let mut total_volume = 0u64;
        let mut skipped_batches = 0usize;
        let mut skipped_volume = 0u64;
        let MinibatchEngine {
            trainer,
            graph,
            h0,
            labels,
            mask,
            part,
        } = self;
        let (graph, h0, labels, mask, part) = (*graph, *h0, *labels, *mask, *part);
        let config = trainer.config;
        let check = |batch: &[u32]| -> usize {
            assert_in_graph(batch, graph.n());
            batch.iter().filter(|&&v| mask[v as usize]).count()
        };
        let mut masked = batches.first().map(|b| check(b));
        for (t, batch) in batches.iter().enumerate() {
            let labelled = masked.expect("every published batch was checked");
            // A batch without a labelled vertex has no gradient: its ranks
            // only build the plans, for the volume it would have sent.
            let trainable = labelled > 0;
            // One rank's step: build its plans and, when `trainable`,
            // gather its rows, keep both in its slot and train. Returns the
            // loss (`NaN` when not trained) and the rows its forward plan
            // sends per sweep. The preparation is [`metered`] like the
            // training step (it runs no kernel, so it credits no FLOPs).
            let step = |ctx: &mut RankCtx, slot: &mut RankSlot<RankPlan>| {
                let volume = metered(ctx, &slot.cctx, |ctx| {
                    let (plan_f, plan_b) = slot.builder.build(ctx, graph, part, batch);
                    let volume = plan_f.sent_rows();
                    if trainable {
                        slot.h0.reshape(plan_f.local_rows.len(), slot.h0.cols());
                        slot.labels.clear();
                        slot.mask.clear();
                        for (li, &pos) in plan_f.local_rows.iter().enumerate() {
                            let v = batch[pos as usize] as usize;
                            slot.h0.row_mut(li).copy_from_slice(h0.row(v));
                            slot.labels.push(labels[v]);
                            slot.mask.push(mask[v]);
                        }
                        slot.mask_total = labelled as f64;
                        (slot.plan_f, slot.plan_b) = (plan_f, plan_b);
                    }
                    volume
                });
                let loss = if trainable {
                    slot.step(ctx, config, true)
                } else {
                    f64::NAN
                };
                (loss, volume)
            };
            // Ranks prepare and train batch t while this thread checks t+1.
            let (results, next) = trainer.run(step, || batches.get(t + 1).map(|b| check(b)));
            masked = next;
            let volume: u64 = results.iter().map(|r| r.1).sum();
            if trainable {
                total_volume += volume;
                losses.push(trainer.finish_step(results[0].0, Some(t)));
            } else {
                skipped_batches += 1;
                skipped_volume += volume;
            }
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
        self.trainer.state().params
    }

    /// Per-rank communication counters, accumulated since the engine was
    /// created (or last [`MinibatchEngine::reset_counters`]).
    pub fn counters(&mut self) -> Vec<CommCounters> {
        self.trainer.counters()
    }

    /// Zeroes every rank's counters (e.g. after warm-up batches, so a
    /// measurement window sees steady state only).
    pub fn reset_counters(&mut self) {
        self.trainer.reset_counters();
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
