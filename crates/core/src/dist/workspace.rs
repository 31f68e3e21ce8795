//! Persistent per-rank training workspaces.
//!
//! Every buffer one rank needs across a training run — the `A·X`
//! accumulators of the SpMM exchange, the arrived-payload slots, the
//! forward intermediates `Z`/`H`, the backward gradient-flow matrices —
//! is allocated *once* here and reused across layers, epochs,
//! feedforward and backpropagation. Together with the comm runtime's
//! payload pools (`pargcn_comm::bufpool`, pre-warmed by
//! [`prewarm_comm_pools`]) this makes the steady-state epoch loop free of
//! heap allocation on its communication path, which the
//! counting-allocator test (`no_alloc_steady_state`) pins down.

use super::SpmmExchange;
use crate::model::GcnConfig;
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{ComputeCtx, Dense};

/// Scratch state of one in-flight exchange: for [`spmm_exchange_into`], a
/// slot per remote block for payloads that arrived out of plan order plus
/// the peer → slot map; for the CAGNET broadcasts, the stage payload.
/// Reused across every exchange of a run (forward and backward plans may
/// have different receive sets; `begin` re-keys it).
///
/// [`spmm_exchange_into`]: super::feedforward::spmm_exchange_into
pub struct ExchangeScratch {
    /// `arrived[i]` buffers the payload of remote block `i` until every
    /// earlier block has been folded (plan-order accumulation).
    pub(crate) arrived: Vec<Option<Vec<f32>>>,
    /// Peer rank → remote-block index for the current exchange.
    pub(crate) peer_slot: Vec<u32>,
    /// One broadcast stage's rows, grown once to the largest block.
    pub(crate) stage: Vec<f32>,
}

impl ExchangeScratch {
    /// Scratch for a `p`-rank job.
    pub fn new(p: usize) -> Self {
        ExchangeScratch {
            arrived: Vec::new(),
            peer_slot: vec![u32::MAX; p],
            stage: Vec::new(),
        }
    }

    /// Re-keys the scratch for an exchange over `plan`. Allocation-free
    /// once `arrived` has grown to the largest receive set.
    pub(crate) fn begin(&mut self, plan: &RankPlan) {
        self.arrived.clear();
        self.arrived.resize_with(plan.a_remote.len(), || None);
        for (i, block) in plan.a_remote.iter().enumerate() {
            self.peer_slot[block.peer] = i as u32;
        }
    }

    #[inline]
    pub(crate) fn slot_of(&self, peer: usize) -> usize {
        let s = self.peer_slot[peer];
        debug_assert_ne!(s, u32::MAX, "message from a peer outside the plan");
        s as usize
    }
}

/// All persistent matrices one rank reuses every epoch.
pub struct EpochWorkspace {
    /// Exchange scratch shared by every layer in both directions.
    pub exchange: ExchangeScratch,
    /// Forward pre-activations: `z[k−1]` holds `Zᵏₘ`.
    pub z: Vec<Dense>,
    /// Forward activations: `h[k−1]` holds `Hᵏₘ` (`H⁰ₘ` stays in
    /// [`RankState::h0`](super::RankState::h0) — it never changes, so it
    /// is never copied).
    pub h: Vec<Dense>,
    /// Forward intermediates between exchange and transform, each
    /// [`GcnConfig::forward_width`] wide: `mid[k−1]` holds this rank's
    /// block of `Â·H^{k-1}` (SpmmFirst) or the local `H^{k-1}·Wᵏ` it
    /// sends (DmmFirst, which aggregates straight into `z`).
    pub mid: Vec<Dense>,
    /// Backward exchange accumulators: `ax_b[k−1]` holds `(Â'Gᵏ)ₘ`.
    pub ax_b: Vec<Dense>,
    /// Backward gradient flow: `g[k−1]` holds `Gᵏ`.
    pub g: Vec<Dense>,
    /// Parameter-gradient partials/sums: `dw[k−1]` holds `ΔWᵏ`.
    pub dw: Vec<Dense>,
    /// Output-layer loss gradient `∇_{H^L} Jₘ`.
    pub grad: Dense,
    /// Softmax probabilities of the loss path (`softmax_rows_into`
    /// target), so computing the epoch loss allocates nothing.
    pub probs: Dense,
}

impl EpochWorkspace {
    /// Allocates every buffer training needs for one rank of a `p`-rank
    /// job, sized from the plan and model shape, and pre-sizes the
    /// compute context's kernel packing scratch for the run's widest
    /// operands. Called once per run, before the first epoch.
    pub fn new(plan: &impl SpmmExchange, config: &GcnConfig, p: usize, cctx: &ComputeCtx) -> Self {
        Self::with_rows(plan.n_local(), config, p, cctx)
    }

    /// [`EpochWorkspace::new`] for a plan of `n` local rows.
    pub(crate) fn with_rows(n: usize, config: &GcnConfig, p: usize, cctx: &ComputeCtx) -> Self {
        let dims = &config.dims;
        let layers = config.layers();
        // The blocked GEMM engine packs the B operand, which in the layer
        // loop is always a weight (`H·W`, `G·Wᵀ`; `Hᵀ·G` is pack-free):
        // at most dmax² floats. Grow the shared scratch to that once,
        // here, so steady-state kernel calls stay allocation-free
        // (DESIGN.md §9).
        let dmax = dims.iter().copied().max().unwrap_or(0);
        cctx.reserve_pack(dmax * dmax);
        let zeros = |d: usize| Dense::zeros(n, d);
        EpochWorkspace {
            exchange: ExchangeScratch::new(p),
            z: (1..=layers).map(|k| zeros(dims[k])).collect(),
            h: (1..=layers).map(|k| zeros(dims[k])).collect(),
            mid: (1..=layers)
                .map(|k| zeros(config.forward_width(k)))
                .collect(),
            ax_b: (1..=layers).map(|k| zeros(dims[k])).collect(),
            g: (1..=layers).map(|k| zeros(dims[k])).collect(),
            dw: (1..=layers)
                .map(|k| Dense::zeros(dims[k - 1], dims[k]))
                .collect(),
            grad: zeros(dims[layers]),
            probs: zeros(dims[layers]),
        }
    }

    /// Re-dimensions every row-sized buffer for a plan with a different
    /// local row count (a no-op for the same count; the mini-batch engine
    /// gets a new count every batch). Column widths are fixed by the
    /// model config, `dw` is row-count-independent, and `exchange` is
    /// re-keyed by its own `begin`; everything row-sized grows once to the
    /// high-water batch and is fully overwritten before being read (the
    /// same argument that makes cross-epoch reuse bitwise safe), so
    /// steady-state batches of bounded size allocate nothing.
    pub fn resize_for_plan(&mut self, plan: &impl SpmmExchange) {
        let n = plan.n_local();
        for m in self
            .z
            .iter_mut()
            .chain(self.h.iter_mut())
            .chain(self.mid.iter_mut())
            .chain(self.ax_b.iter_mut())
            .chain(self.g.iter_mut())
        {
            m.resize_rows(n);
        }
        self.grad.resize_rows(n);
        self.probs.resize_rows(n);
    }
}

/// Pre-fills this rank's payload pools so every steady-state `acquire`
/// is a hit: what the exchange holds in flight per destination
/// ([`SpmmExchange::ensure_pools`]) sized for the widest layer, plus two
/// per binomial-tree allreduce neighbour sized for the largest `ΔW`
/// payload.
///
/// Idempotent (`ensure_pool` tops up instead of accreting), so the
/// trainers call it at every step boundary: with a *stream* of plans —
/// the mini-batch engine, one plan per batch — each batch gets its own
/// analytic worst case, pools grow only when the stream hits a new
/// high-water batch, and steady state stays provably allocation-free
/// rather than relying on timing-dependent grow-on-miss convergence.
pub fn prewarm_comm_pools<X: SpmmExchange>(
    ctx: &mut RankCtx,
    plan_f: &X,
    plan_b: &X,
    config: &GcnConfig,
) {
    let wmax = config.dims.iter().copied().max().unwrap_or(0);
    let dw_max = (0..config.layers())
        .map(|k| config.dims[k] * config.dims[k + 1])
        .max()
        .unwrap_or(1);
    plan_f.ensure_pools(ctx, wmax, dw_max);
    plan_b.ensure_pools(ctx, wmax, dw_max);
    ctx.ensure_collectives(2, dw_max);
    // Queue depth at this rank is bounded by one epoch's worth of inbound
    // traffic (the per-layer allreduces stop senders running further
    // ahead): per layer, one forward and one backward exchange of the
    // plans' inbound messages, plus up to 2·⌈log₂ p⌉ tree hops per
    // allreduce. Reserve twice that so no interleaving can grow a queue
    // mid-epoch.
    let log2p = ctx.p().next_power_of_two().trailing_zeros() as usize;
    let per_epoch =
        config.layers() * (plan_f.inbound_per_sweep() + plan_b.inbound_per_sweep() + 2 * log2p + 2);
    ctx.reserve_queues(2 * per_epoch + 8);
}
