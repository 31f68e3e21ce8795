//! The distributed training algorithms: Algorithm 1 (parallel feedforward)
//! and Algorithm 2 (parallel backpropagation) over the message-passing
//! runtime, orchestrated by [`trainer`].
//!
//! The layer loop ([`feedforward::run`], [`backprop::run`],
//! [`trainer::epoch_step`]) is written once, generic over how a rank
//! obtains its block of `Â·X` ([`SpmmExchange`]): the paper's
//! point-to-point plan ([`RankPlan`]) or CAGNET's turn-wise broadcasts
//! ([`crate::baselines::cagnet::CagnetRank`]).

pub mod backprop;
pub mod feedforward;
pub mod trainer;
pub mod workspace;

pub use trainer::{train_full_batch_spec, DistOutcome};
pub use workspace::{prewarm_comm_pools, EpochWorkspace, ExchangeScratch};

use crate::model::{GcnConfig, Params};
use crate::optim::OptimizerState;
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{ComputeCtx, Dense};

/// One rank's share of a distributed SpMM `Â·X`: the only part of the
/// layer loop that differs between exchange algorithms.
pub trait SpmmExchange {
    /// Owned global rows, ascending.
    fn local_rows(&self) -> &[u32];

    /// Number of owned rows `n_m`.
    fn n_local(&self) -> usize {
        self.local_rows().len()
    }

    /// Overwrites `ax` with this rank's block of `Â·X`, where `x_local` is
    /// the owned row block of `X`. `tag` keys the sweep's point-to-point
    /// messages; `scratch` is the run's persistent exchange state.
    fn exchange_into(
        &self,
        ctx: &mut RankCtx,
        x_local: &Dense,
        tag: u32,
        cctx: &ComputeCtx,
        scratch: &mut ExchangeScratch,
        ax: &mut Dense,
    );

    /// Tops this rank's payload pools up so that no sweep of rows up to
    /// `width` floats wide, nor an allreduce hop of up to `allreduce_len`
    /// floats between sweeps, ever misses (idempotent).
    fn ensure_pools(&self, ctx: &mut RankCtx, width: usize, allreduce_len: usize);

    /// Messages one sweep delivers to this rank.
    fn inbound_per_sweep(&self) -> usize;
}

/// Everything one rank holds during training: its slice of the plan and
/// data, plus the replicated parameters. `X` is the exchange algorithm
/// (point-to-point by default).
pub struct RankState<'a, X = RankPlan> {
    /// Feedforward-direction plan (pattern of `Â`).
    pub plan_f: &'a X,
    /// Backpropagation-direction plan (pattern of `Âᵀ`; same object as
    /// `plan_f` for undirected graphs).
    pub plan_b: &'a X,
    pub config: &'a GcnConfig,
    /// Replicated parameter matrices (identical on every rank).
    pub params: Params,
    /// Local block of the input features `H⁰ₘ` (borrowed — never copied
    /// into the forward pass).
    pub h0: &'a Dense,
    /// Labels of owned vertices.
    pub labels: &'a [u32],
    /// Training mask of owned vertices.
    pub mask: &'a [bool],
    /// Global count of masked vertices (loss normalizer, same on all ranks).
    pub mask_total: f64,
    /// Replicated optimizer state (kept in lock-step like the parameters).
    pub opt_state: OptimizerState,
    /// This rank's thread pool for local kernels (the paper's per-processor
    /// multithreaded GraphBLAS layer). Pooled kernels are bitwise identical
    /// to serial, so the thread count never changes results.
    pub ctx: ComputeCtx,
}

/// Base tag for feedforward layer messages; layer `k` uses `TAG_FWD + k`.
pub const TAG_FWD: u32 = 0;
/// Base tag for backpropagation layer messages.
pub const TAG_BWD: u32 = 4096;
