//! Orchestration of distributed training: the per-rank slot and step
//! that full-batch training and the mini-batch engine both run through,
//! and the full-batch entry, which builds the plans, distributes the
//! data, runs the epochs on a rank session, and assembles global results.

use super::workspace::{prewarm_comm_pools, EpochWorkspace};
use super::{backprop, feedforward, RankState, SpmmExchange};
use crate::loss;
use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::CommPlan;
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Dense};
use pargcn_partition::Partition;
use std::sync::Mutex;
use std::time::Instant;

/// Global results of a distributed training run.
pub struct DistOutcome {
    /// Per-epoch global training loss (identical on every rank).
    pub losses: Vec<f64>,
    /// Final parameters (replicated; taken from rank 0).
    pub params: Params,
    /// Output-layer logits for every vertex, assembled in global order.
    pub predictions: Dense,
    /// Per-rank communication counters, accumulated over all epochs.
    pub counters: Vec<CommCounters>,
    /// Per-rank wall-clock seconds spent training (excluding plan build).
    pub rank_seconds: Vec<f64>,
}

impl DistOutcome {
    /// Slowest rank's wall time — the parallel running time.
    pub fn wall_seconds(&self) -> f64 {
        self.rank_seconds.iter().copied().fold(0.0, f64::max)
    }
}

/// One rank's slice of the training data: the features, labels and
/// training mask of its owned rows, in local row order.
pub(crate) struct RankData {
    pub(crate) h0: Dense,
    pub(crate) labels: Vec<u32>,
    pub(crate) mask: Vec<bool>,
}

impl RankData {
    /// Gathers the owned `rows` of the global data.
    pub(crate) fn gather(rows: &[u32], h0: &Dense, labels: &[u32], mask: &[bool]) -> RankData {
        RankData {
            h0: gather::gather_rows(h0, rows),
            labels: rows.iter().map(|&v| labels[v as usize]).collect(),
            mask: rows.iter().map(|&v| mask[v as usize]).collect(),
        }
    }
}

/// One rank's training state that persists across steps — of a
/// full-batch run's epochs or of the mini-batch engine's batch stream.
/// Each trainer keeps one per rank behind an uncontended `Mutex` that
/// only that rank's thread (or the caller, between steps) touches.
pub(crate) struct RankSlot {
    /// Replicated parameters (lock-step across slots).
    pub(crate) params: Params,
    /// Replicated optimizer state.
    opt_state: OptimizerState,
    /// The rank's kernel thread pool, built once.
    cctx: ComputeCtx,
    /// Grow-once layer workspace, row-resized to every step's plan.
    pub(crate) ws: EpochWorkspace,
}

impl RankSlot {
    /// A slot for one of `p` ranks starting from `params`, its workspace
    /// allocated on the calling thread for `n_local` rows.
    pub(crate) fn new(
        n_local: usize,
        config: &GcnConfig,
        params: Params,
        p: usize,
        spec: ComputeSpec,
    ) -> RankSlot {
        let cctx = ComputeCtx::for_ranks_spec(p, spec);
        RankSlot {
            params,
            opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
            ws: EpochWorkspace::with_rows(n_local, config, p, &cctx),
            cctx,
        }
    }

    /// One step on this rank over the exchanges `plan_f`/`plan_b` and the
    /// rank's `data`: an [`epoch_step`] returning the global loss, or with
    /// `train == false` only the forward pass, which leaves the output
    /// logits in `ws.h[L−1]` (and returns `NaN`). Pools and workspace are
    /// topped up to the plan first (idempotent, a no-op once the stream's
    /// high-water plan has been seen). The step's wall time is split into
    /// the counters' comm and compute seconds (`comm + compute == wall`
    /// per rank, the fig4a split), and its kernel FLOPs are credited.
    // The step takes one rank's whole problem by design.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<X: SpmmExchange>(
        &mut self,
        ctx: &mut RankCtx,
        plan_f: &X,
        plan_b: &X,
        data: &RankData,
        mask_total: f64,
        config: &GcnConfig,
        train: bool,
    ) -> f64 {
        prewarm_comm_pools(ctx, plan_f, plan_b, config);
        self.ws.resize_for_plan(plan_f);
        let mut st = RankState {
            plan_f,
            plan_b,
            config,
            params: std::mem::take(&mut self.params),
            h0: &data.h0,
            labels: &data.labels,
            mask: &data.mask,
            mask_total,
            opt_state: std::mem::take(&mut self.opt_state),
            ctx: self.cctx.clone(),
        };
        let comm_before = ctx.counters().comm_seconds;
        let start = Instant::now();
        let loss = if train {
            epoch_step(ctx, &mut st, &mut self.ws)
        } else {
            feedforward::run(ctx, &st, &mut self.ws);
            f64::NAN
        };
        let wall = start.elapsed().as_secs_f64();
        ctx.add_compute_seconds(wall - (ctx.counters().comm_seconds - comm_before));
        ctx.add_compute_flops(st.ctx.take_flops());
        self.params = st.params;
        self.opt_state = st.opt_state;
        loss
    }
}

/// Trains an L-layer GCN for `epochs` full-batch epochs on `p` ranks
/// with the paper's point-to-point exchange (one OS thread per rank, plus
/// each rank's kernel thread pool as `spec` selects — pass
/// `ComputeSpec::default()` for `PARGCN_THREADS` /
/// `available_parallelism / p` threads and the `PARGCN_KERNEL` engine),
/// with masked softmax cross-entropy.
///
/// Functionally equivalent to [`crate::serial::SerialTrainer`] with the
/// same `param_seed` — that equivalence, for arbitrary partitions, is the
/// correctness contract of the whole algorithm and is enforced by the
/// test-suite. Neither the thread count nor the kernel engine ever
/// changes results: all engines and pool splits are bitwise identical
/// (determinism suite).
// The training entry points take the full problem description by design;
// a config struct would just rename the nine pieces.
#[allow(clippy::too_many_arguments)]
pub fn train_full_batch_spec(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
    spec: ComputeSpec,
) -> DistOutcome {
    let a = graph.normalized_adjacency();
    let plan_f = CommPlan::build(&a, part);
    let plan_b = graph
        .directed()
        .then(|| CommPlan::build(&a.transpose(), part));
    let init = config.init_params(param_seed);
    train_with_plans_spec(
        &plan_f.ranks,
        &plan_b.as_ref().unwrap_or(&plan_f).ranks,
        h0,
        labels,
        mask,
        config,
        epochs,
        init,
        spec,
    )
}

/// The full-batch training core behind every trainer but the mini-batch
/// engine: one [`CommSession`] runs `epochs` [`RankSlot::step`]s over
/// prebuilt per-rank plans (`plan_f[m]`/`plan_b[m]` are rank `m`'s
/// forward/backward exchanges) from explicit initial parameters, then one
/// forward-only step for the predictions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_with_plans_spec<X: SpmmExchange + Sync>(
    plan_f: &[X],
    plan_b: &[X],
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    config: &GcnConfig,
    epochs: usize,
    init: Params,
    spec: ComputeSpec,
) -> DistOutcome {
    let p = plan_f.len();
    let n = h0.rows();
    assert_eq!(plan_b.len(), p, "plan rank counts differ");
    let plan_rows: usize = plan_f.iter().map(|rp| rp.n_local()).sum();
    assert_eq!(plan_rows, n, "feature rows mismatch");
    assert_eq!(labels.len(), n, "labels mismatch");
    assert_eq!(mask.len(), n, "mask mismatch");
    let mask_total = mask.iter().filter(|&&m| m).count().max(1) as f64;

    // Slice every rank's local data and allocate its layer workspace on
    // the calling thread. The rank threads live for this call only, and
    // memory they allocate stays resident in their allocator arenas after
    // it is freed, out of the caller's reach.
    let (data, slots): (Vec<RankData>, Vec<Mutex<RankSlot>>) = plan_f
        .iter()
        .map(|rp| {
            let data = RankData::gather(rp.local_rows(), h0, labels, mask);
            let slot = RankSlot::new(rp.n_local(), config, init.clone(), p, spec);
            (data, Mutex::new(slot))
        })
        .unzip();

    let mut session = CommSession::new(p);
    let step = |train: bool| {
        let (slots, data) = (&slots, &data);
        move |ctx: &mut RankCtx| {
            let m = ctx.rank();
            let mut slot = slots[m].lock().expect("rank slot poisoned");
            slot.step(
                ctx, &plan_f[m], &plan_b[m], &data[m], mask_total, config, train,
            )
        }
    };
    let losses = (0..epochs)
        .map(|_| session.run_step(step(true))[0])
        .collect();
    // Final predictions with the trained parameters (left in `ws.h`).
    session.run_step(step(false));
    let counters = session.run_step(|ctx| ctx.counters().clone());

    let params = slots[0].lock().expect("rank slot poisoned").params.clone();

    // Assemble global predictions.
    let classes = config.dims[config.layers()];
    let mut predictions = Dense::zeros(n, classes);
    for (rp, slot) in plan_f.iter().zip(&slots) {
        let slot = slot.lock().expect("rank slot poisoned");
        gather::scatter_rows(
            &slot.ws.h[config.layers() - 1],
            rp.local_rows(),
            &mut predictions,
        );
    }
    DistOutcome {
        losses,
        params,
        predictions,
        // Each step splits its wall time into comm + compute seconds.
        rank_seconds: counters
            .iter()
            .map(|c| c.comm_seconds + c.compute_seconds)
            .collect(),
        counters,
    }
}

/// One full training epoch for one rank — forward pass, global loss,
/// backpropagation/update — over the persistent workspace. Returns the
/// global loss (identical on every rank). The trainer loop is just this
/// in a loop; tests (e.g. the steady-state allocation test) drive epochs
/// individually through it.
pub fn epoch_step<X: SpmmExchange>(
    ctx: &mut RankCtx,
    st: &mut RankState<'_, X>,
    ws: &mut EpochWorkspace,
) -> f64 {
    feedforward::run(ctx, st, ws);
    let loss_local = loss::softmax_cross_entropy_into(
        &ws.h[st.config.layers() - 1],
        st.labels,
        st.mask,
        st.mask_total,
        &mut ws.probs,
        &mut ws.grad,
    );
    // Global loss: allreduce of the local sums (stack buffer, no heap).
    let mut buf = [loss_local as f32];
    ctx.allreduce_sum(&mut buf);
    backprop::run(ctx, st, ws);
    buf[0] as f64
}
