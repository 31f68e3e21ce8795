//! Orchestration of distributed full-batch training: builds the plans,
//! distributes the data, spawns the ranks, and assembles global results.

use super::workspace::{prewarm_comm_pools, EpochWorkspace};
use super::{backprop, feedforward, RankState, SpmmExchange};
use crate::loss;
use crate::model::{GcnConfig, Params};
use crate::plan::CommPlan;
use pargcn_comm::RankCtx;
use pargcn_comm::{CommCounters, Communicator};
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

/// One rank's inputs and persistent workspace for a training call.
struct RankSlot {
    h0: Dense,
    labels: Vec<u32>,
    mask: Vec<bool>,
    cctx: ComputeCtx,
    ws: EpochWorkspace,
}

struct RankResult {
    counters: CommCounters,
    losses: Vec<f64>,
    params: Params,
    seconds: f64,
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

/// The training core behind every trainer: runs `epochs` epochs of
/// [`epoch_step`] over prebuilt per-rank plans (`plan_f[m]`/`plan_b[m]`
/// are rank `m`'s forward/backward exchanges) from explicit initial
/// parameters, then one forward pass for the predictions.
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
    let slots: Vec<Mutex<RankSlot>> = plan_f
        .iter()
        .map(|rp| {
            let rows = rp.local_rows();
            let cctx = ComputeCtx::for_ranks_spec(p, spec);
            Mutex::new(RankSlot {
                h0: gather::gather_rows(h0, rows),
                labels: rows.iter().map(|&v| labels[v as usize]).collect(),
                mask: rows.iter().map(|&v| mask[v as usize]).collect(),
                ws: EpochWorkspace::new(rp, config, p, &cctx),
                cctx,
            })
        })
        .collect();

    let results: Vec<RankResult> = Communicator::run(p, |ctx| {
        let m = ctx.rank();
        let mut guard = slots[m].lock().expect("rank slot poisoned");
        let slot = &mut *guard;
        let mut st = RankState {
            plan_f: &plan_f[m],
            plan_b: &plan_b[m],
            config,
            params: init.clone(),
            h0: &slot.h0,
            labels: &slot.labels,
            mask: &slot.mask,
            mask_total,
            opt_state: crate::optim::OptimizerState::new(config.optimizer, &config.shapes()),
            ctx: slot.cctx.clone(),
        };
        // The comm pools, sized so steady-state acquires always hit.
        prewarm_comm_pools(ctx, st.plan_f, st.plan_b, config);
        let ws = &mut slot.ws;
        let start = Instant::now();
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            losses.push(epoch_step(ctx, &mut st, ws));
        }
        // Final predictions with the trained parameters (left in `ws.h`).
        feedforward::run(ctx, &st, ws);
        let seconds = start.elapsed().as_secs_f64();
        // Compute time is the non-blocked complement of the runtime-timed
        // comm seconds, so `comm + compute == wall` per rank (fig4a split);
        // the kernels' shape-counted FLOPs give the matching rate.
        ctx.add_compute_seconds(seconds - ctx.counters().comm_seconds);
        ctx.add_compute_flops(st.ctx.take_flops());
        RankResult {
            counters: ctx.counters().clone(),
            losses,
            params: st.params,
            seconds,
        }
    });

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
        losses: results[0].losses.clone(),
        params: results[0].params.clone(),
        predictions,
        counters: results.iter().map(|r| r.counters.clone()).collect(),
        rank_seconds: results.iter().map(|r| r.seconds).collect(),
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
