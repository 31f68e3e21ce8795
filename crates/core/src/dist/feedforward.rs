//! Algorithm 1: parallel feedforward.
//!
//! Per layer `k`, each rank:
//!
//! 1. for every selector `Xₘₙ ∈ Sₘ`, gathers the needed local `H^{k-1}`
//!    rows (`Xₘₙ ⊗ H`, here a row gather) into a pooled payload buffer
//!    and posts a **non-blocking send** to `Pₙ` (lines 3–5);
//! 2. multiplies its diagonal block against the local feature block
//!    *without waiting* (line 6 — the overlap);
//! 3. receives each peer's rows (any completion order, one mailbox drain
//!    per pass) and accumulates the off-diagonal products (lines 7–9),
//!    releasing every payload back to its sender's pool;
//! 4. applies the replicated `Wᵏ` (pure local DMM) and the activation
//!    (line 10) — one pass, the activation applied in place as the GEMM
//!    stores `Hᵏ`.
//!
//! Steps 1 and 3 are the two halves of every point-to-point exchange
//! (`send_rows` and `recv_in_plan_order`): the GCN exchange folds each
//! arrival into `Â·X`, and GAT's attention layer ([`crate::gat`]) runs
//! the same halves with a fold that keeps each block's raw rows.
//!
//! One deviation from the paper's literal pseudocode: lines 6/9 write
//! `(AₘH)Wᵏ` per contribution; we accumulate `AₘH` first and apply `Wᵏ`
//! once — algebraically identical (distributivity) and fewer DMM FLOPs.
//!
//! All layer outputs land in the persistent [`EpochWorkspace`]; a
//! steady-state forward pass allocates nothing on the comm path.

use super::workspace::{EpochWorkspace, ExchangeScratch};
use super::{RankState, SpmmExchange, TAG_FWD};
use crate::model::LayerOrder;
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{gather, ComputeCtx, Dense};

/// Runs the full feedforward pass into `ws.h` (`H¹…H^L`; `ws.ax` is the
/// exchange accumulator). Local kernels (SpMM/DMM/activation) run on the
/// rank's thread pool.
pub fn run<X: SpmmExchange>(ctx: &mut RankCtx, st: &RankState<'_, X>, ws: &mut EpochWorkspace) {
    let cctx = &st.ctx;
    let n = st.plan_f.n_local();
    let EpochWorkspace {
        exchange, h, ax, ..
    } = ws;
    for k in 1..=st.config.layers() {
        let w = &st.params.weights[k - 1];
        let tag = TAG_FWD + k as u32;
        let (done, rest) = h.split_at_mut(k - 1);
        let h_prev: &Dense = if k == 1 { st.h0 } else { &done[k - 2] };
        let h_k = &mut rest[0];
        let act = st.config.activation(k);
        match st.config.order {
            LayerOrder::SpmmFirst => {
                ax.reshape(n, h_prev.cols());
                st.plan_f
                    .exchange_into(ctx, h_prev, tag, cctx, exchange, ax);
                // Line 10 in one pass: `Hᵏ = σ(Zᵏ)` stored as the GEMM
                // produces `Zᵏ`, which is never kept.
                act.transform_into(cctx, ax, w, h_k);
            }
            LayerOrder::DmmFirst => {
                // §4.4: transform locally first, then aggregate with the
                // *same* communication pattern (messages carry d_out-wide
                // rows instead of d_in-wide ones). The aggregate is `Zᵏ`,
                // so the exchange accumulates straight into `Hᵏ`'s buffer
                // and the activation runs over it in place.
                ax.reshape(n, w.cols());
                cctx.matmul_into(h_prev, w, ax, false);
                st.plan_f.exchange_into(ctx, ax, tag, cctx, exchange, h_k);
                act.apply_in_place(cctx, h_k);
            }
        }
    }
}

/// The point-to-point exchange: the paper's algorithm behind every layer.
impl SpmmExchange for RankPlan {
    fn local_rows(&self) -> &[u32] {
        &self.local_rows
    }

    fn exchange_into(
        &self,
        ctx: &mut RankCtx,
        x_local: &Dense,
        tag: u32,
        cctx: &ComputeCtx,
        scratch: &mut ExchangeScratch,
        ax: &mut Dense,
    ) {
        spmm_exchange_into(ctx, self, x_local, tag, cctx, scratch, ax);
    }

    /// Two buffers per destination: one in flight, one still travelling
    /// back from the previous layer (the FIFO non-overtaking argument in
    /// DESIGN.md §9). Allreduce hops fit the same two, which the
    /// collectives prewarm tops up to `allreduce_len`.
    fn ensure_pools(&self, ctx: &mut RankCtx, width: usize, _allreduce_len: usize) {
        for ss in &self.send {
            ctx.ensure_pool(ss.peer, 2, ss.local_indices.len() * width);
        }
    }

    fn inbound_per_sweep(&self) -> usize {
        self.a_remote.len()
    }
}

/// The communication core shared by feedforward (on `H`) and
/// backpropagation (on `G`): accumulates this rank's block of `A · X`
/// into `ax`, where `x_local` is the locally-owned row block of `X`.
///
/// Payloads are drawn from and returned to the runtime's buffer pools,
/// arrivals are staged in `scratch`, and the output lands in the
/// caller-provided accumulator — after warmup the whole exchange touches
/// no allocator.
pub fn spmm_exchange_into(
    ctx: &mut RankCtx,
    plan: &RankPlan,
    x_local: &Dense,
    tag: u32,
    cctx: &ComputeCtx,
    scratch: &mut ExchangeScratch,
    ax: &mut Dense,
) {
    let d = x_local.cols();
    assert_eq!(ax.rows(), plan.n_local(), "exchange accumulator rows");
    assert_eq!(ax.cols(), d, "exchange accumulator cols");

    send_rows(ctx, plan, x_local, tag);
    // Line 6: local block product, overlapping the in-flight messages.
    cctx.spmm_into(&plan.a_own, x_local, ax, false);
    // Lines 7–9: fold each remote block into `ax`, in plan order.
    recv_in_plan_order(ctx, plan, tag, scratch, |ctx, i, payload| {
        accumulate_block(ctx, plan, i, payload, d, ax, cctx)
    });
}

/// Lines 3–5, the send half of every point-to-point exchange: gathers
/// the rows each peer needs from `x_local` and non-blocking-sends them,
/// each payload recycled from the pool of its destination.
pub(crate) fn send_rows(ctx: &mut RankCtx, plan: &RankPlan, x_local: &Dense, tag: u32) {
    let d = x_local.cols();
    for ss in &plan.send {
        let mut payload = ctx.acquire(ss.peer, ss.local_indices.len() * d);
        gather::gather_rows_into(x_local, &ss.local_indices, &mut payload);
        ctx.isend(ss.peer, tag, payload);
    }
}

/// The receive half: hands `fold` every remote block's payload as
/// `(block index, payload)`, strictly in plan order, whatever order they
/// arrive in.
///
/// Receives are drained eagerly, but *folded* in plan order: remote
/// blocks overlap on output rows, and float addition is not associative,
/// so summing in arrival order would let thread scheduling leak into the
/// results — the repeated-runs-bitwise-identical guarantee the tests pin
/// down. Each pass drains the whole mailbox with one `try_recv_any`
/// sweep (instead of probing every peer individually), folds every
/// in-order block that has landed, and only then blocks — on *any* next
/// arrival, since exactly the planned peers send under this tag.
#[inline]
pub(crate) fn recv_in_plan_order(
    ctx: &mut RankCtx,
    plan: &RankPlan,
    tag: u32,
    scratch: &mut ExchangeScratch,
    mut fold: impl FnMut(&mut RankCtx, usize, Vec<f32>),
) {
    scratch.begin(plan);
    let n_blocks = plan.a_remote.len();
    let mut next = 0;
    while next < n_blocks {
        while let Some((from, payload)) = ctx.try_recv_any(tag) {
            scratch.file(ctx.rank(), from, tag, payload);
        }
        let mut progressed = false;
        while next < n_blocks {
            let Some(payload) = scratch.arrived[next].take() else {
                break;
            };
            fold(ctx, next, payload);
            next += 1;
            progressed = true;
        }
        if !progressed {
            // Nothing in order yet: park until any planned payload lands
            // rather than spinning over try_recv.
            let (from, payload) = ctx.recv_any(tag);
            scratch.file(ctx.rank(), from, tag, payload);
        }
    }
}

/// Folds remote block `i`'s payload into `ax` and recycles the buffer
/// back to its sender — a zero-copy view via `Dense::from_vec`/`into_vec`.
fn accumulate_block(
    ctx: &mut RankCtx,
    plan: &RankPlan,
    i: usize,
    payload: Vec<f32>,
    d: usize,
    ax: &mut Dense,
    cctx: &ComputeCtx,
) {
    let block = &plan.a_remote[i];
    let x_recv = Dense::from_vec(block.rows.len(), d, payload);
    cctx.spmm_into(&block.a, &x_recv, ax, true);
    ctx.release(block.peer, x_recv.into_vec());
}
