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
use crate::plan::{CommPlan, RankPlanBuilder};
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, norm, ComputeSpec, Dense};
use pargcn_partition::{metrics, Partition};
use std::sync::Mutex;
use std::time::Instant;

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

/// One rank's engine state that persists across the batch stream: its
/// training slot, its plan-builder scratch and its data slice.
struct EngineRank {
    slot: RankSlot,
    builder: RankPlanBuilder,
    /// The rank's feature, label and mask rows of the current batch
    /// (grow-once).
    data: RankData,
}

/// Persistent mini-batch training engine (DESIGN.md §11).
///
/// [`train_spec`] pays full startup cost per batch: a fresh
/// [`CommSession`] respawns all `p` rank threads and kernel pools,
/// re-prewarms the comm pools, reallocates an `EpochWorkspace`, and
/// builds every plan centrally — all wrapped around a *single* training
/// step. The engine hoists the fixed costs out of the loop and moves the
/// preparation into the ranks, running every batch as one step of the
/// same per-rank slot the full-batch trainer uses:
///
/// * a [`CommSession`] keeps the rank threads, channels, buffer pools and
///   counters alive across the whole batch stream;
/// * per-rank kernel pools are built once, and each rank's workspace
///   grows once to the high-water batch;
/// * each rank prepares its own share of batch *t* at the start of that
///   batch's step, on its own thread: its rows of the induced subgraph
///   and of `Â`, its forward and `Âᵀ` plans through a two-round set-up
///   exchange with its peers ([`RankPlanBuilder`]), and its feature,
///   label and mask rows;
/// * the calling thread only checks batch *t+1* and counts its labelled
///   vertices while the ranks train batch *t*
///   ([`CommSession::run_step_overlapped`]), then publishes it.
///
/// Outputs are bitwise identical to [`train_spec`] (equivalence suite in
/// `tests/minibatch_engine.rs`): the rank-local plans are `==` to the
/// central ones and `Â` matches bit for bit. The set-up exchange counts
/// in `CommCounters::setup_*` only, so the training counters are exactly
/// the plans' traffic.
pub struct MinibatchEngine<'a> {
    inputs: Inputs<'a>,
    session: CommSession,
    ranks: Vec<Mutex<EngineRank>>,
}

/// The engine's fixed inputs, read by every rank step.
struct Inputs<'a> {
    graph: &'a Graph,
    h0: &'a Dense,
    labels: &'a [u32],
    mask: &'a [bool],
    part: &'a Partition,
    config: &'a GcnConfig,
}

impl Inputs<'_> {
    /// One rank's step on `batch`: build its plans and, when `trainable`,
    /// gather its rows and train. Returns the loss (`NaN` when not
    /// trained) and the rows its forward plan sends per sweep. The
    /// preparation's time is split into the counters' comm and compute
    /// seconds like the training step's.
    fn rank_step(
        &self,
        ctx: &mut RankCtx,
        rank: &mut EngineRank,
        batch: &[u32],
        trainable: bool,
        mask_total: f64,
    ) -> (f64, u64) {
        let comm_before = ctx.counters().comm_seconds;
        let start = Instant::now();
        let (plan_f, plan_b) = rank.builder.build(ctx, self.graph, self.part, batch);
        let data = &mut rank.data;
        if trainable {
            data.h0.reshape(plan_f.local_rows.len(), data.h0.cols());
            data.labels.clear();
            data.mask.clear();
            for (li, &pos) in plan_f.local_rows.iter().enumerate() {
                let v = batch[pos as usize] as usize;
                data.h0.row_mut(li).copy_from_slice(self.h0.row(v));
                data.labels.push(self.labels[v]);
                data.mask.push(self.mask[v]);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        ctx.add_compute_seconds(wall - (ctx.counters().comm_seconds - comm_before));
        let volume = plan_f.sent_rows();
        if !trainable {
            return (f64::NAN, volume);
        }
        let plan_b = plan_b.as_ref().unwrap_or(&plan_f);
        let loss = rank
            .slot
            .step(ctx, &plan_f, plan_b, data, mask_total, self.config, true);
        (loss, volume)
    }
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
        let ranks = (0..p)
            .map(|_| {
                Mutex::new(EngineRank {
                    slot: RankSlot::new(0, config, init.clone(), p, spec),
                    builder: RankPlanBuilder::new(),
                    data: RankData {
                        h0: Dense::zeros(0, h0.cols()),
                        labels: Vec::new(),
                        mask: Vec::new(),
                    },
                })
            })
            .collect();
        MinibatchEngine {
            inputs: Inputs {
                graph,
                h0,
                labels,
                mask,
                part,
                config,
            },
            session: CommSession::new(p),
            ranks,
        }
    }

    /// Trains one step per batch; each batch's step starts with the
    /// ranks preparing it, while the calling thread checks the next
    /// batch. May be called repeatedly — parameters and optimizer state
    /// carry across calls, so a stream of `train` calls behaves like one
    /// long batch list.
    pub fn train(&mut self, batches: &[Vec<u32>]) -> MinibatchOutcome {
        let mut losses = Vec::with_capacity(batches.len());
        let mut total_volume = 0u64;
        let mut skipped_batches = 0usize;
        let mut skipped_volume = 0u64;
        let MinibatchEngine {
            inputs,
            session,
            ranks,
        } = self;
        let (graph, mask) = (inputs.graph, inputs.mask);
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
            let mask_total = labelled.max(1) as f64;
            let step = |ctx: &mut RankCtx| {
                let mut rank = ranks[ctx.rank()].lock().expect("rank slot poisoned");
                inputs.rank_step(ctx, &mut rank, batch, trainable, mask_total)
            };
            // Ranks prepare and train batch t while this thread checks t+1.
            let (results, next) =
                session.run_step_overlapped(step, || batches.get(t + 1).map(|b| check(b)));
            masked = next;
            let volume: u64 = results.iter().map(|r| r.1).sum();
            if trainable {
                total_volume += volume;
                losses.push(results[0].0);
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
        self.ranks[0]
            .lock()
            .expect("rank slot poisoned")
            .slot
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
