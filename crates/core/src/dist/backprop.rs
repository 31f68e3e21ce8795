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
//!    `G^{k-1} = Sᵏ ⊙ σ'(Z^{k-1})` (line 11) as the `Sᵏ` GEMM stores;
//! 3. allreduce-sums `ΔWᵏ` (line 13, binomial tree) and applies the
//!    optimizer update locally on the replicated `Wᵏ` (line 14) — every
//!    rank computes the identical update, keeping the replicas in
//!    lock-step.
//!
//! The forward intermediates are read from, and the gradient flow written
//! to, the persistent [`EpochWorkspace`] — including the (small, `d×d`)
//! `ΔW` partials, so a steady-state epoch allocates no matrices at all.

use super::workspace::EpochWorkspace;
use super::{RankState, SpmmExchange, TAG_BWD};

/// Runs backpropagation from the local output-layer loss gradient
/// `∇_{H^L} Jₘ` (in `ws.grad`, filled by the loss), updating `st.params`
/// in place (identically on all ranks).
pub fn run<X: SpmmExchange>(
    ctx: &mut pargcn_comm::RankCtx,
    st: &mut RankState<'_, X>,
    ws: &mut EpochWorkspace,
) {
    // Cheap Arc clone so the context stays usable across `&mut st`
    // updates.
    let cctx = st.ctx.clone();
    let layers = st.config.layers();

    // Line 2: G^L = ∇_{H^L} J ⊙ σ'(Z^L), into the persistent G^L buffer.
    st.config
        .activation(layers)
        .seed_into(&ws.z[layers - 1], &ws.grad, &mut ws.g[layers - 1]);

    for k in (1..=layers).rev() {
        let EpochWorkspace {
            exchange,
            z,
            h,
            ax_b,
            g,
            dw,
            ..
        } = ws;

        // Lines 4–10: the exchange computing (Â'Gᵏ)ₘ.
        st.plan_b.exchange_into(
            ctx,
            &g[k - 1],
            TAG_BWD + k as u32,
            &cctx,
            exchange,
            &mut ax_b[k - 1],
        );
        let ag = &ax_b[k - 1];

        // Line 12: local partial ΔWᵏₘ = (H^{k-1}ₘ)ᵀ (Â'Gᵏ)ₘ. `H⁰` lives in
        // the rank state; later inputs in the forward workspace.
        let h_in = if k == 1 { st.h0 } else { &h[k - 2] };
        cctx.matmul_at_into(h_in, ag, &mut dw[k - 1]);

        // Lines 7 and 11 in one pass: G^{k-1} = Sᵏ ⊙ σ'(Z^{k-1}), with
        // Sᵏ = (Â'Gᵏ)ₘ(Wᵏ)ᵀ multiplied by σ' as the GEMM stores it. Sᵏ
        // must use the *pre-update* Wᵏ (line 7 precedes line 14); it
        // overwrites G^{k-1}'s buffer, which is dead from here on.
        if k > 1 {
            st.config.activation(k - 1).backprop_into(
                &cctx,
                ag,
                &st.params.weights[k - 1],
                &z[k - 2],
                &mut g[k - 2],
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
