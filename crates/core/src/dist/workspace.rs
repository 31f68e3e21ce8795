//! Persistent per-rank training workspaces.
//!
//! Every buffer one rank needs across a training run — the activations
//! `H`, the one exchange accumulator, the arrived-payload slots, the one
//! gradient-flow buffer — is allocated *once* here and reused across
//! layers, epochs, feedforward and backpropagation. Together with the
//! comm runtime's payload pools (`pargcn_comm::bufpool`, pre-warmed by
//! [`prewarm_comm_pools`]) this makes the steady-state epoch loop free of
//! heap allocation on its communication path, which the
//! counting-allocator test (`no_alloc_steady_state`) pins down.
//!
//! The workspace keeps only what is live across a phase (DESIGN.md §9):
//!
//! * `h[k−1]` holds `Hᵏ` for every layer — backward reads each layer's
//!   input and, for `σ′`, its output. `Zᵏ` is never stored: every
//!   [`Activation`](crate::activations::Activation) reads `σ′` off `Hᵏ`
//!   bit for bit.
//! * `ax` is the one exchange accumulator of both directions: a layer's
//!   `Â·H^{k−1}` (SpmmFirst) or local `H^{k−1}·Wᵏ` (DmmFirst) dies in the
//!   layer's transform or exchange, and a backward `(Â'Gᵏ)ₘ` dies once
//!   `ΔWᵏ` and `G^{k−1}` are formed, before the next layer's exchange.
//! * `g` is the one gradient-flow buffer: `Gᵏ` is dead once its exchange
//!   has returned, so `G^{k−1}` overwrites it.
//!
//! `ax` and `g` change width from use to use with [`Dense::reshape`],
//! which keeps the allocation and zero-fills only a grown tail.

use super::SpmmExchange;
use crate::model::GcnConfig;
use crate::plan::RankPlan;
use pargcn_comm::RankCtx;
use pargcn_matrix::{ComputeCtx, Dense};

/// Scratch state of one in-flight point-to-point exchange
/// ([`spmm_exchange_into`]): a slot per remote block for payloads that
/// arrived out of plan order, plus the peer → slot map. Reused across
/// every exchange of a run (forward and backward plans may have
/// different receive sets; `begin` re-keys it). The CAGNET broadcasts
/// need none: they fold each lent payload as it arrives.
///
/// [`spmm_exchange_into`]: super::feedforward::spmm_exchange_into
pub struct ExchangeScratch {
    /// `arrived[i]` buffers the payload of remote block `i` until every
    /// earlier block has been folded (plan-order accumulation).
    pub(crate) arrived: Vec<Option<Vec<f32>>>,
    /// Peer rank → remote-block index for the current exchange;
    /// `u32::MAX` for every peer outside its receive set.
    peer_slot: Vec<u32>,
    /// The peers `peer_slot` currently keys, so the next `begin` unkeys
    /// exactly them.
    keyed: Vec<usize>,
}

impl ExchangeScratch {
    /// Scratch for a `p`-rank job.
    pub fn new(p: usize) -> Self {
        ExchangeScratch {
            arrived: Vec::new(),
            peer_slot: vec![u32::MAX; p],
            keyed: Vec::with_capacity(p),
        }
    }

    /// Re-keys the scratch for an exchange over `plan`, unkeying the
    /// previous exchange's peers first (O(previous receive set)), so a
    /// peer outside this plan never maps to a stale slot. Allocation-free
    /// once `arrived` has grown to the largest receive set.
    pub(crate) fn begin(&mut self, plan: &RankPlan) {
        for peer in self.keyed.drain(..) {
            self.peer_slot[peer] = u32::MAX;
        }
        self.arrived.clear();
        self.arrived.resize_with(plan.a_remote.len(), || None);
        for (i, block) in plan.a_remote.iter().enumerate() {
            self.peer_slot[block.peer] = i as u32;
            self.keyed.push(block.peer);
        }
    }

    /// Files a payload that reached `rank` from `peer` under `tag` into
    /// its remote block's slot.
    ///
    /// # Panics
    /// Panics, naming the rank, peer and tag, if `peer` is outside the
    /// exchange's receive set or its block already holds a payload — a
    /// plan mismatch that would otherwise fold rows into the wrong block.
    pub(crate) fn file(&mut self, rank: usize, peer: usize, tag: u32, payload: Vec<f32>) {
        let s = self.peer_slot[peer];
        assert!(
            s != u32::MAX,
            "rank {rank}: message from peer {peer} under tag {tag}, \
             which is outside this exchange's receive set"
        );
        let slot = &mut self.arrived[s as usize];
        assert!(
            slot.is_none(),
            "rank {rank}: second payload from peer {peer} under tag {tag} in one exchange"
        );
        *slot = Some(payload);
    }
}

/// All persistent matrices one rank reuses every epoch.
pub struct EpochWorkspace {
    /// Exchange scratch shared by every layer in both directions.
    pub exchange: ExchangeScratch,
    /// Forward activations: `h[k−1]` holds `Hᵏₘ` (`H⁰ₘ` stays in
    /// [`RankState::h0`](super::RankState::h0) — it never changes, so it
    /// is never copied). After a forward pass `h[L−1]` holds the logits.
    pub h: Vec<Dense>,
    /// The exchange accumulator of every layer in both directions, as
    /// wide as the widest: this rank's block of `Â·H^{k−1}` (SpmmFirst),
    /// the local `H^{k−1}·Wᵏ` it sends (DmmFirst, which aggregates
    /// straight into `h[k−1]`), or `(Â'Gᵏ)ₘ` backward.
    pub(crate) ax: Dense,
    /// Backward gradient flow, as wide as the widest layer: `Gᵏ` until
    /// its exchange returns, then `G^{k−1}`.
    pub(crate) g: Dense,
    /// Parameter-gradient partials/sums: `dw[k−1]` holds `ΔWᵏ`.
    pub dw: Vec<Dense>,
    /// Output-layer loss gradient `∇_{H^L} Jₘ`, computed in place by the
    /// one-pass loss. Forward and backward never write it.
    pub grad: Dense,
}

impl EpochWorkspace {
    /// Allocates every buffer training needs for one rank of a `p`-rank
    /// job, sized from the plan and model shape, and pre-sizes the
    /// compute context's kernel packing scratch for the run's widest
    /// operands. Called once per run, before the first epoch.
    pub fn new(plan: &impl SpmmExchange, config: &GcnConfig, p: usize, cctx: &ComputeCtx) -> Self {
        let n = plan.n_local();
        let dims = &config.dims;
        let layers = config.layers();
        // The blocked engine's `A·Bᵀ` (`G·Wᵀ`) transposes its B operand,
        // in the layer loop always a weight, into the shared pack
        // scratch (`H·W` and `Hᵀ·G` are pack-free): at most dmax² floats.
        // Grow the shared scratch to that once, here, so steady-state
        // kernel calls stay allocation-free (DESIGN.md §9).
        let dmax = dims.iter().copied().max().unwrap_or(0);
        cctx.reserve_pack(dmax * dmax);
        EpochWorkspace {
            exchange: ExchangeScratch::new(p),
            h: (1..=layers).map(|k| Dense::zeros(n, dims[k])).collect(),
            ax: Dense::zeros(n, Self::ax_width(config)),
            g: Dense::zeros(n, Self::g_width(config)),
            dw: (1..=layers)
                .map(|k| Dense::zeros(dims[k - 1], dims[k]))
                .collect(),
            grad: Dense::zeros(n, dims[layers]),
        }
    }

    /// Width of [`EpochWorkspace::ax`]: the widest forward exchange
    /// ([`GcnConfig::forward_width`]) or backward `dₖ`.
    fn ax_width(config: &GcnConfig) -> usize {
        (1..=config.layers())
            .map(|k| config.forward_width(k).max(config.dims[k]))
            .max()
            .unwrap_or(0)
    }

    /// Width of [`EpochWorkspace::g`]: the widest `Gᵏ`, `k = 1…L`.
    fn g_width(config: &GcnConfig) -> usize {
        config.dims[1..].iter().copied().max().unwrap_or(0)
    }

    /// Re-dimensions every row-sized buffer for a plan with a different
    /// local row count (a no-op for the same count; the mini-batch engine
    /// gets a new count every batch). Column widths are fixed by the
    /// model config (`ax` and `g` at their widest), `dw` is
    /// row-count-independent, and `exchange` is re-keyed by its own
    /// `begin`; everything row-sized grows once to the high-water batch
    /// and is fully overwritten before being read (the same argument that
    /// makes cross-epoch reuse bitwise safe), so steady-state batches of
    /// bounded size allocate nothing.
    pub fn resize_for_plan(&mut self, plan: &impl SpmmExchange, config: &GcnConfig) {
        let n = plan.n_local();
        for m in self.h.iter_mut().chain([&mut self.grad]) {
            m.reshape(n, m.cols());
        }
        self.ax.reshape(n, Self::ax_width(config));
        self.g.reshape(n, Self::g_width(config));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LayerOrder;
    use crate::plan::RemoteBlock;
    use pargcn_matrix::Csr;

    /// Floats of every row-sized buffer: all but `dw` and the exchange
    /// scratch.
    fn row_floats(ws: &EpochWorkspace) -> usize {
        ws.h.iter()
            .chain([&ws.ax, &ws.g, &ws.grad])
            .map(|m| m.data().len())
            .sum()
    }

    /// `n·(Σₖ dₖ + widest accumulator + max dₖ + d_L)`: the activations,
    /// one exchange accumulator, one gradient buffer and the loss
    /// gradient, for both orders and for 2 and 3 layers.
    #[test]
    fn footprint_is_h_one_accumulator_one_gradient_and_the_loss_gradient() {
        use LayerOrder::{DmmFirst, SpmmFirst};
        let cases = [
            // The perfbench model: 128 floats a row.
            (vec![32, 32, 16], SpmmFirst, 48 + 32 + 32 + 16),
            (vec![32, 32, 16], DmmFirst, 48 + 32 + 32 + 16),
            // A wide input: SpmmFirst's first exchange carries `d₀`.
            (vec![40, 8, 3], SpmmFirst, 11 + 40 + 8 + 3),
            (vec![40, 8, 3], DmmFirst, 11 + 8 + 8 + 3),
            (vec![3, 8, 30, 2], SpmmFirst, 40 + 30 + 30 + 2),
            (vec![3, 8, 30, 2], DmmFirst, 40 + 30 + 30 + 2),
            (vec![50, 6, 4, 9], SpmmFirst, 19 + 50 + 9 + 9),
            (vec![50, 6, 4, 9], DmmFirst, 19 + 9 + 9 + 9),
        ];
        for (dims, order, per_row) in cases {
            let config = GcnConfig {
                dims: dims.clone(),
                order,
                ..GcnConfig::two_layer(1, 1, 1)
            };
            let cctx = ComputeCtx::serial();
            let plan = |n: u32| RankPlan {
                local_rows: (0..n).collect(),
                ..plan_receiving_from(&[])
            };
            let mut ws = EpochWorkspace::new(&plan(10), &config, 2, &cctx);
            assert_eq!(row_floats(&ws), 10 * per_row, "{dims:?} {order:?}");
            ws.resize_for_plan(&plan(7), &config);
            assert_eq!(row_floats(&ws), 7 * per_row, "{dims:?} {order:?} resized");
        }
    }

    fn plan_receiving_from(peers: &[usize]) -> RankPlan {
        RankPlan {
            rank: 0,
            local_rows: Vec::new(),
            a_own: Csr::identity(0),
            a_remote: peers
                .iter()
                .map(|&peer| RemoteBlock {
                    peer,
                    rows: Vec::new(),
                    a: Csr::identity(0),
                })
                .collect(),
            send: Vec::new(),
        }
    }

    /// Peer 1 was in the previous exchange's receive set, not in this
    /// one's: its message must not land in the slot it used to key.
    #[test]
    #[should_panic(
        expected = "rank 0: message from peer 1 under tag 7, which is outside this exchange's receive set"
    )]
    fn a_peer_of_the_previous_plan_is_rejected() {
        let mut scratch = ExchangeScratch::new(3);
        scratch.begin(&plan_receiving_from(&[1, 2]));
        scratch.begin(&plan_receiving_from(&[2]));
        scratch.file(0, 1, 7, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "rank 0: second payload from peer 2 under tag 7")]
    fn a_second_payload_from_one_peer_is_rejected() {
        let mut scratch = ExchangeScratch::new(3);
        scratch.begin(&plan_receiving_from(&[2]));
        scratch.file(0, 2, 7, vec![1.0]);
        scratch.file(0, 2, 7, vec![2.0]);
    }

    #[test]
    fn begin_rekeys_the_slots() {
        let mut scratch = ExchangeScratch::new(3);
        scratch.begin(&plan_receiving_from(&[1, 2]));
        scratch.begin(&plan_receiving_from(&[2, 0]));
        scratch.file(1, 0, 7, vec![0.5]);
        scratch.file(1, 2, 7, vec![2.5]);
        assert_eq!(scratch.arrived, vec![Some(vec![2.5]), Some(vec![0.5])]);
    }
}
