//! Optimizers for the parameter update (paper Eq. 5 is plain SGD; Adam is
//! provided as the extension downstream GCN users invariably want).
//!
//! In the distributed trainer the optimizer state lives **replicated** on
//! every rank, exactly like the parameter matrices themselves: the
//! allreduced `ΔW` is identical everywhere, each rank applies the identical
//! update, and the replicas stay in lock-step with zero additional
//! communication — the same argument §4.1 makes for replicating `W`.

use pargcn_matrix::Dense;

/// Update-rule selection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Optimizer {
    /// `W ← W − η·ΔW` (paper Eq. 5).
    #[default]
    Sgd,
    /// Adam (Kingma & Ba) with the usual defaults.
    Adam { beta1: f32, beta2: f32, eps: f32 },
}

impl Optimizer {
    /// Adam with the standard (0.9, 0.999, 1e-8) parameters.
    pub fn adam() -> Self {
        Optimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Per-layer optimizer state (empty for SGD).
#[derive(Clone, Debug, Default)]
pub struct OptimizerState {
    kind: Optimizer,
    /// First-moment estimates, one per layer (Adam only).
    m: Vec<Dense>,
    /// Second-moment estimates, one per layer (Adam only).
    v: Vec<Dense>,
    /// Steps taken (for Adam bias correction).
    t: u32,
}

impl OptimizerState {
    /// Fresh state for parameters with the given layer shapes.
    pub fn new(kind: Optimizer, shapes: &[(usize, usize)]) -> Self {
        let (m, v) = match kind {
            Optimizer::Sgd => (Vec::new(), Vec::new()),
            Optimizer::Adam { .. } => (
                shapes.iter().map(|&(r, c)| Dense::zeros(r, c)).collect(),
                shapes.iter().map(|&(r, c)| Dense::zeros(r, c)).collect(),
            ),
        };
        Self { kind, m, v, t: 0 }
    }

    /// Applies the update for layer `layer` in place.
    ///
    /// For Adam, callers must apply layers of one step in a fixed order and
    /// call [`OptimizerState::advance`] once per optimization step.
    pub fn apply(&mut self, layer: usize, w: &mut Dense, grad: &Dense, learning_rate: f32) {
        match self.kind {
            Optimizer::Sgd => w.sub_scaled_assign(grad, learning_rate),
            Optimizer::Adam { beta1, beta2, eps } => {
                let t = (self.t + 1) as f32;
                let m = &mut self.m[layer];
                let v = &mut self.v[layer];
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                for ((wi, &gi), (mi, vi)) in w
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *wi -= learning_rate * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    /// Marks the end of one optimization step (all layers updated).
    pub fn advance(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_matches_manual_update() {
        let mut st = OptimizerState::new(Optimizer::Sgd, &[(2, 2)]);
        let mut w = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let g = Dense::from_vec(2, 2, vec![0.5, 0.5, 0.5, 0.5]);
        st.apply(0, &mut w, &g, 0.1);
        st.advance();
        assert_eq!(w.data(), &[0.95, 1.95, 2.95, 3.95]);
    }

    #[test]
    fn adam_first_step_is_signed_learning_rate() {
        // With bias correction, step 1 moves each weight by ≈ lr·sign(g).
        let mut st = OptimizerState::new(Optimizer::adam(), &[(1, 3)]);
        let mut w = Dense::from_vec(1, 3, vec![0.0, 0.0, 0.0]);
        let g = Dense::from_vec(1, 3, vec![0.4, -0.2, 0.0]);
        st.apply(0, &mut w, &g, 0.01);
        st.advance();
        assert!((w.get(0, 0) + 0.01).abs() < 1e-4, "{}", w.get(0, 0));
        assert!((w.get(0, 1) - 0.01).abs() < 1e-4);
        assert_eq!(w.get(0, 2), 0.0);
    }

    #[test]
    fn adam_accumulates_momentum() {
        let mut st = OptimizerState::new(Optimizer::adam(), &[(1, 1)]);
        let mut w = Dense::from_vec(1, 1, vec![1.0]);
        let g = Dense::from_vec(1, 1, vec![1.0]);
        let mut prev = w.get(0, 0);
        for _ in 0..5 {
            st.apply(0, &mut w, &g, 0.1);
            st.advance();
            let now = w.get(0, 0);
            assert!(now < prev, "constant gradient must keep decreasing w");
            prev = now;
        }
    }

    #[test]
    fn deterministic_across_replicas() {
        // The replication argument: identical state + identical gradients →
        // bitwise identical updates.
        let grads = [
            Dense::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.05]),
            Dense::from_vec(2, 2, vec![-0.02, 0.08, 0.0, 0.4]),
        ];
        let run = || {
            let mut st = OptimizerState::new(Optimizer::adam(), &[(2, 2)]);
            let mut w = Dense::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
            for g in &grads {
                st.apply(0, &mut w, g, 0.05);
                st.advance();
            }
            w
        };
        assert_eq!(run().data(), run().data());
    }
}
