//! Algorithm 2: parallel backpropagation.
//!
//! Per layer `k = L…1`, each rank:
//!
//! 1. exchanges `Gᵏ` rows with the same exchange as feedforward (the
//!    non-blocking point-to-point pattern of lines 4–10, or CAGNET's
//!    broadcasts), computing its block of `Â'Gᵏ` where
//!    `Â' = Âᵀ` for directed graphs (§3.1) and `Â` otherwise;
//! 2. forms the local parameter-gradient partial
//!    `ΔWᵏₘ = (H^{k-1}ₘ)ᵀ(Â'Gᵏ)ₘ` and `Sᵏₘ = (Â'Gᵏ)ₘ(Wᵏ)ᵀ` (lines 7,
//!    10–12) — both pure local DMMs because `(Â'Gᵏ)ₘ` was just computed
//!    and `H` is conformably partitioned — and propagates
//!    `G^{k-1} = Sᵏ ⊙ σ'(Z^{k-1})` (line 11) as the `Sᵏ` GEMM stores,
//!    reading `σ′` off `H^{k-1}` (no `Z` is kept);
//! 3. allreduce-sums `ΔWᵏ` (line 13, binomial tree) and applies the
//!    optimizer update locally on the replicated `Wᵏ` (line 14) — every
//!    rank computes the identical update, keeping the replicas in
//!    lock-step.
//!
//! The forward activations are read from, and the gradient flow written
//! to, the persistent [`EpochWorkspace`]: one exchange accumulator and
//! one gradient buffer serve every layer, and the (small, `d×d`) `ΔW`
//! partials live there too, so a steady-state epoch allocates no
//! matrices at all.

use super::workspace::EpochWorkspace;
use super::{RankState, SpmmExchange, TAG_BWD};

/// Runs backpropagation from the local output-layer loss gradient
/// `∇_{H^L} Jₘ` (in `ws.grad`, filled by the loss and only read here),
/// updating `st.params` in place (identically on all ranks).
pub fn run<X: SpmmExchange>(
    ctx: &mut pargcn_comm::RankCtx,
    st: &mut RankState<'_, X>,
    ws: &mut EpochWorkspace,
) {
    // Cheap Arc clone so the context stays usable across `&mut st`
    // updates.
    let cctx = st.ctx.clone();
    let layers = st.config.layers();
    let n = st.plan_b.n_local();
    let EpochWorkspace {
        exchange,
        h,
        ax,
        g,
        dw,
        grad,
    } = ws;

    // Line 2: G^L = ∇_{H^L} J ⊙ σ'(Z^L), with σ′ read off H^L.
    g.reshape(n, grad.cols());
    st.config
        .activation(layers)
        .seed_into(&h[layers - 1], grad, g);

    for k in (1..=layers).rev() {
        // Lines 4–10: the exchange computing (Â'Gᵏ)ₘ. Gᵏ is dead once it
        // returns.
        ax.reshape(n, g.cols());
        st.plan_b
            .exchange_into(ctx, g, TAG_BWD + k as u32, &cctx, exchange, ax);

        // Line 12: local partial ΔWᵏₘ = (H^{k-1}ₘ)ᵀ (Â'Gᵏ)ₘ. `H⁰` lives in
        // the rank state; later inputs in the forward workspace.
        let h_in = if k == 1 { st.h0 } else { &h[k - 2] };
        cctx.matmul_at_into(h_in, ax, &mut dw[k - 1]);

        // Lines 7 and 11 in one pass: G^{k-1} = Sᵏ ⊙ σ'(Z^{k-1}), with
        // Sᵏ = (Â'Gᵏ)ₘ(Wᵏ)ᵀ multiplied by σ′ (read off H^{k-1}) as the
        // GEMM stores it. Sᵏ must use the *pre-update* Wᵏ (line 7
        // precedes line 14); it overwrites Gᵏ's buffer.
        if k > 1 {
            g.reshape(n, h_in.cols());
            st.config.activation(k - 1).backprop_into(
                &cctx,
                ax,
                &st.params.weights[k - 1],
                h_in,
                g,
            );
        }

        // Line 13: ΔWᵏ = allreduce-sum(ΔWᵏₘ) — binomial tree with a fixed
        // fold order, bitwise deterministic.
        ctx.allreduce_sum(dw[k - 1].data_mut());

        // Line 14: replicated parameter update (SGD or Adam; the optimizer
        // state is replicated and deterministic, so replicas stay in step).
        st.opt_state.apply(
            k - 1,
            &mut st.params.weights[k - 1],
            &dw[k - 1],
            st.config.learning_rate,
        );
    }
    st.opt_state.advance();
}
