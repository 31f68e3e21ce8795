//! [`Trainer`], the one owner of a distributed run's rank session and of
//! what each rank keeps across steps, and the full-batch entry over it.

use super::workspace::{prewarm_comm_pools, EpochWorkspace};
use super::{backprop, feedforward, RankState, SpmmExchange};
use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::{CommPlan, RankPlan, RankPlanBuilder};
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;
use std::sync::{Mutex, MutexGuard};
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

/// What a run carries from step to step besides its plans and rows: the
/// replicated parameters and optimizer state.
#[derive(Clone, Debug)]
pub struct TrainState {
    pub params: Params,
    pub opt_state: OptimizerState,
}

impl TrainState {
    /// `config.init_params(param_seed)` and a fresh optimizer state.
    pub fn new(config: &GcnConfig, param_seed: u64) -> TrainState {
        TrainState {
            params: config.init_params(param_seed),
            opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
        }
    }
}

/// What one rank keeps across steps. Only that rank's thread, or the
/// caller between steps, locks it.
pub(crate) struct RankSlot<X> {
    /// Replicated parameters and optimizer state (lock-step across slots).
    state: TrainState,
    pub(crate) cctx: ComputeCtx,
    /// Grow-once layer workspace, row-resized to every step's plan.
    ws: EpochWorkspace,
    /// The forward plan, and the `Âᵀ` plan of a directed graph.
    pub(crate) plan_f: X,
    pub(crate) plan_b: Option<X>,
    /// Features, labels and mask of `plan_f`'s rows, and the global count
    /// of masked vertices.
    pub(crate) h0: Dense,
    pub(crate) labels: Vec<u32>,
    pub(crate) mask: Vec<bool>,
    pub(crate) mask_total: f64,
    /// A batch stream's plan-builder scratch.
    pub(crate) builder: RankPlanBuilder,
    /// The lowest layer `k` whose allreduced `ΔWᵏ` held a NaN or ±∞ in
    /// the last training step (the same on every rank).
    non_finite_dw: Option<usize>,
}

impl<X: SpmmExchange> RankSlot<X> {
    /// One [`epoch_step`] over the slot's plans and rows, returning the
    /// global loss; with `train == false` only the forward pass, leaving
    /// the logits in `ws.h[L−1]`. Pools and workspace are first topped up
    /// to the plan (idempotent). The step is [`metered`].
    pub(crate) fn step(&mut self, ctx: &mut RankCtx, config: &GcnConfig, train: bool) -> f64 {
        let plan_b = self.plan_b.as_ref().unwrap_or(&self.plan_f);
        prewarm_comm_pools(ctx, &self.plan_f, plan_b, config);
        self.ws.resize_for_plan(&self.plan_f, config);
        let mut st = RankState {
            plan_f: &self.plan_f,
            plan_b,
            config,
            params: std::mem::take(&mut self.state.params),
            h0: &self.h0,
            labels: &self.labels,
            mask: &self.mask,
            mask_total: self.mask_total,
            opt_state: std::mem::take(&mut self.state.opt_state),
            ctx: self.cctx.clone(),
        };
        let ws = &mut self.ws;
        let loss = metered(ctx, &self.cctx, |ctx| {
            if train {
                epoch_step(ctx, &mut st, ws)
            } else {
                feedforward::run(ctx, &st, ws);
                f64::NAN
            }
        });
        // `ws.dw` still holds the allreduced gradients the update applied.
        self.non_finite_dw = train
            .then(|| {
                let bad = |dw: &Dense| dw.data().iter().any(|v| !v.is_finite());
                self.ws.dw.iter().position(bad).map(|k| k + 1)
            })
            .flatten();
        self.state = TrainState {
            params: st.params,
            opt_state: st.opt_state,
        };
        loss
    }
}

/// Runs `f`, splitting its wall time into the counters' comm and compute
/// seconds and crediting the kernel FLOPs it dispatched through `cctx`.
pub(crate) fn metered<R>(
    ctx: &mut RankCtx,
    cctx: &ComputeCtx,
    f: impl FnOnce(&mut RankCtx) -> R,
) -> R {
    let comm_before = ctx.counters().comm_seconds;
    let start = Instant::now();
    let out = f(ctx);
    let wall = start.elapsed().as_secs_f64();
    ctx.add_compute_seconds(wall - (ctx.counters().comm_seconds - comm_before));
    ctx.add_compute_flops(cctx.take_flops());
    out
}

/// The one owner of a distributed GCN run (§4.1): the [`CommSession`]
/// whose rank threads live for the whole run, and per rank its
/// parameters, optimizer state, kernel pool, workspace, rows and current
/// plans. `X` is the exchange: point-to-point [`RankPlan`] or CAGNET's
/// [`CagnetRank`](crate::baselines::cagnet::CagnetRank).
///
/// A full-batch run calls [`Trainer::step`] once per epoch. The
/// [`MinibatchEngine`](crate::minibatch::MinibatchEngine) steps one too,
/// each rank first rebuilding its plans and rows for the next batch.
pub struct Trainer<'a, X = RankPlan> {
    pub(crate) config: &'a GcnConfig,
    session: CommSession,
    slots: Vec<Mutex<RankSlot<X>>>,
    /// Training steps run so far (or by a per-batch stream's trainers).
    pub(crate) steps: usize,
}

impl<'a, X: SpmmExchange + Send> Trainer<'a, X> {
    /// A run on `plan_f.len()` ranks from `start`: `plan_f[m]` is rank
    /// `m`'s forward exchange and `plan_b[m]` its backward one (`None`:
    /// the forward plans, for an undirected `Â`). Each rank's rows and
    /// workspace are allocated here, on the calling thread, not in a rank
    /// thread's allocator arena.
    // A run takes the whole problem description by design.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        plan_f: Vec<X>,
        plan_b: Option<Vec<X>>,
        h0: &Dense,
        labels: &[u32],
        mask: &[bool],
        config: &'a GcnConfig,
        start: TrainState,
        spec: ComputeSpec,
    ) -> Trainer<'a, X> {
        let (p, n) = (plan_f.len(), h0.rows());
        let plan_rows: usize = plan_f.iter().map(|rp| rp.n_local()).sum();
        assert_eq!(plan_rows, n, "feature rows mismatch");
        assert_eq!(labels.len(), n, "labels mismatch");
        assert_eq!(mask.len(), n, "mask mismatch");
        let mask_total = mask.iter().filter(|&&m| m).count().max(1) as f64;
        let mut plan_b = plan_b.map(|b| {
            assert_eq!(b.len(), p, "plan rank counts differ");
            b.into_iter()
        });
        let slots = plan_f.into_iter().map(|plan_f| {
            let rows = plan_f.local_rows();
            let cctx = ComputeCtx::for_ranks_spec(p, spec);
            Mutex::new(RankSlot {
                state: start.clone(),
                ws: EpochWorkspace::new(&plan_f, config, p, &cctx),
                cctx,
                h0: gather::gather_rows(h0, rows),
                labels: rows.iter().map(|&v| labels[v as usize]).collect(),
                mask: rows.iter().map(|&v| mask[v as usize]).collect(),
                mask_total,
                plan_b: plan_b.as_mut().and_then(Iterator::next),
                plan_f,
                builder: RankPlanBuilder::new(),
                non_finite_dw: None,
            })
        });
        Trainer {
            config,
            slots: slots.collect(),
            session: CommSession::new(p),
            steps: 0,
        }
    }

    /// One training step over every rank's current plans and rows (in a
    /// full-batch run, one epoch). Returns the global loss.
    ///
    /// # Panics
    /// Panics, naming the step, if the global loss is not finite, or else
    /// naming the step and the lowest layer `k` if an allreduced `ΔWᵏ`
    /// holds a NaN or ±∞ (a NaN feature under a ReLU layer never reaches
    /// the loss: `max(NaN, 0)` is 0).
    pub fn step(&mut self) -> f64 {
        self.step_of(None)
    }

    /// [`Trainer::step`], naming the caller's `batch` too if it panics.
    pub(crate) fn step_of(&mut self, batch: Option<usize>) -> f64 {
        let config = self.config;
        let losses = self.run(|ctx, slot| slot.step(ctx, config, true), || ()).0;
        self.finish_step(losses[0], batch)
    }

    /// The forward pass with the current parameters: the logits of every
    /// rank's current rows, in global row order.
    pub fn predict(&mut self) -> Dense {
        let config = self.config;
        self.run(|ctx, slot| slot.step(ctx, config, false), || ());
        let layers = config.layers();
        let slots: Vec<_> = self.slots.iter().map(lock).collect();
        let n = slots.iter().map(|s| s.plan_f.n_local()).sum();
        let mut predictions = Dense::zeros(n, config.dims[layers]);
        for s in &slots {
            gather::scatter_rows(&s.ws.h[layers - 1], s.plan_f.local_rows(), &mut predictions);
        }
        predictions
    }

    /// Replaces every rank's features `H⁰ₘ` by `(Âˢ·H⁰)ₘ` before the
    /// first step: `sweeps` exchanges of `plans[m]` (over rank `m`'s own
    /// rows), ping-ponging between its features and the workspace's
    /// accumulator, [`metered`] like a step.
    pub(crate) fn propagate<Y: SpmmExchange + Sync>(&mut self, plans: &[Y], sweeps: usize) {
        let sweep_all = |ctx: &mut RankCtx, slot: &mut RankSlot<X>| {
            let plan = &plans[ctx.rank()];
            assert_eq!(plan.local_rows(), slot.plan_f.local_rows(), "rows");
            let (n, d) = (slot.h0.rows(), slot.h0.cols());
            let RankSlot { cctx, h0, ws, .. } = slot;
            metered(ctx, cctx, |ctx| {
                plan.ensure_pools(ctx, d, 0);
                for sweep in 0..sweeps {
                    ws.ax.reshape(n, d);
                    plan.exchange_into(ctx, h0, sweep as u32, cctx, &mut ws.exchange, &mut ws.ax);
                    std::mem::swap(h0, &mut ws.ax);
                }
            })
        };
        self.run(sweep_all, || ());
    }

    /// The current (replicated) parameters and optimizer state.
    pub fn state(&self) -> TrainState {
        lock(&self.slots[0]).state.clone()
    }

    /// Per-rank communication counters since the start (or the last
    /// [`Trainer::reset_counters`]).
    pub fn counters(&mut self) -> Vec<CommCounters> {
        self.session.run_step(|ctx| ctx.counters().clone())
    }

    /// Zeroes every rank's counters, e.g. after warm-up steps.
    pub fn reset_counters(&mut self) {
        self.session.run_step(|ctx| ctx.reset_counters());
    }

    /// Runs `f` on every rank's slot in one session step while the
    /// calling thread runs `main`.
    pub(crate) fn run<R: Send, T>(
        &mut self,
        f: impl Fn(&mut RankCtx, &mut RankSlot<X>) -> R + Sync,
        main: impl FnOnce() -> T,
    ) -> (Vec<R>, T) {
        let slots = &self.slots;
        let step = |ctx: &mut RankCtx| f(ctx, &mut lock(&slots[ctx.rank()]));
        self.session.run_step_overlapped(step, main)
    }

    /// Counts a training step with global loss `loss`; panics naming the
    /// step (and the caller's `batch`) if it is not finite, or if a
    /// rank's slot recorded a non-finite `ΔW`.
    pub(crate) fn finish_step(&mut self, loss: f64, batch: Option<usize>) -> f64 {
        let t = self.steps;
        let of_batch = || batch.map(|i| format!(" (batch {i})")).unwrap_or_default();
        if !loss.is_finite() {
            panic!("step {t}{}: the global loss is {loss}", of_batch());
        }
        if let Some(k) = lock(&self.slots[0]).non_finite_dw {
            panic!("step {t}{}: ΔW{k} is non-finite", of_batch());
        }
        self.steps += 1;
        loss
    }
}

/// Locks one rank's slot, poisoned only by a panic in that rank's step.
fn lock<X>(slot: &Mutex<RankSlot<X>>) -> MutexGuard<'_, RankSlot<X>> {
    slot.lock().expect("rank slot poisoned")
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
    let build = |a: &Csr| CommPlan::build(a, part).ranks;
    train_full_batch(
        graph, h0, labels, mask, config, epochs, param_seed, spec, build,
    )
}

/// The full-batch run of either exchange: `build` makes the per-rank
/// plans of `Â` and, for a directed graph, of `Âᵀ`; one [`Trainer`] runs
/// `epochs` steps, then one prediction pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_full_batch<X: SpmmExchange + Send>(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
    spec: ComputeSpec,
    build: impl Fn(&Csr) -> Vec<X>,
) -> DistOutcome {
    let (plan_f, plan_b) = {
        let a = graph.normalized_adjacency();
        (build(&a), graph.directed().then(|| build(&a.transpose())))
    };
    let start = TrainState::new(config, param_seed);
    let trainer = Trainer::new(plan_f, plan_b, h0, labels, mask, config, start, spec);
    run_epochs(trainer, epochs)
}

/// The tail of every full-batch run: `epochs` steps of `trainer` (one per
/// epoch), then one prediction pass.
pub(crate) fn run_epochs<X: SpmmExchange + Send>(
    mut trainer: Trainer<'_, X>,
    epochs: usize,
) -> DistOutcome {
    let losses = (0..epochs).map(|_| trainer.step()).collect();
    let predictions = trainer.predict();
    let counters = trainer.counters();
    DistOutcome {
        losses,
        params: trainer.state().params,
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
/// global loss (identical on every rank). Every [`Trainer::step`] runs
/// it on each rank; tests (e.g. the steady-state allocation test) drive
/// epochs individually through it.
pub fn epoch_step<X: SpmmExchange>(
    ctx: &mut RankCtx,
    st: &mut RankState<'_, X>,
    ws: &mut EpochWorkspace,
) -> f64 {
    feedforward::run(ctx, st, ws);
    let loss_local = st.ctx.softmax_cross_entropy_into(
        &ws.h[st.config.layers() - 1],
        st.labels,
        st.mask,
        st.mask_total,
        &mut ws.grad,
    );
    // Global loss: allreduce of the local sums (stack buffer, no heap).
    let mut buf = [loss_local as f32];
    ctx.allreduce_sum(&mut buf);
    backprop::run(ctx, st, ws);
    buf[0] as f64
}
