//! Single-node reference GCN trainer.
//!
//! Plays two roles from the paper's evaluation:
//!
//! * the **DGL baseline**: all speedups in Table 2 / Fig. 4b are "parallel
//!   time vs. single-node time" ratios, and this is the single-node
//!   implementation (same kernels, no partitioning, no communication);
//! * the **correctness oracle**: distributed full-batch training must
//!   reproduce these losses/parameters/predictions for any partition, up to
//!   floating-point reassociation.

use crate::loss;
use crate::model::{GcnConfig, LayerOrder, Params};
use crate::optim::OptimizerState;
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeCtx, ComputeSpec, Csr, Dense};

/// Serial full-batch GCN trainer.
///
/// "Serial" refers to the absence of ranks/communication; local kernels
/// still run on a thread pool (`PARGCN_THREADS`, default
/// `available_parallelism`) — exactly like the paper's single-node
/// baseline, whose GraphBLAS kernels are multithreaded. Pooled kernels are
/// bitwise identical to serial execution, so the oracle role is unaffected.
pub struct SerialTrainer {
    /// Normalized adjacency `Â`.
    a: Csr,
    /// `Âᵀ`, kept only for a directed graph (§3.1); backpropagation of an
    /// undirected one multiplies by the symmetric `Â` itself.
    a_t: Option<Csr>,
    config: GcnConfig,
    pub params: Params,
    opt_state: OptimizerState,
    ctx: ComputeCtx,
}

/// Intermediate state of one forward pass, kept for backpropagation.
pub struct ForwardState {
    /// `Z¹…Z^L` (pre-activation).
    pub z: Vec<Dense>,
    /// `H⁰…H^L` (post-activation; `h[0]` is the input).
    pub h: Vec<Dense>,
}

impl SerialTrainer {
    /// Builds the trainer from a graph; parameters are Glorot-initialized
    /// from `param_seed`.
    pub fn new(graph: &Graph, config: GcnConfig, param_seed: u64) -> Self {
        let params = config.init_params(param_seed);
        Self::from_adjacency(
            graph.normalized_adjacency(),
            graph.directed(),
            config,
            params,
        )
    }

    /// Builds directly from a normalized adjacency (used by mini-batch
    /// training on subgraphs).
    pub fn from_adjacency(a: Csr, directed: bool, config: GcnConfig, params: Params) -> Self {
        let opt_state = OptimizerState::new(config.optimizer, &config.shapes());
        Self {
            a_t: directed.then(|| a.transpose()),
            a,
            config,
            params,
            opt_state,
            ctx: ComputeCtx::for_ranks_spec(1, ComputeSpec::default()),
        }
    }

    /// Replaces the compute context (e.g. a shared pool, or a forced
    /// thread count for benchmarking).
    pub fn with_ctx(mut self, ctx: ComputeCtx) -> Self {
        self.ctx = ctx;
        self
    }

    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// `Â'` of backpropagation: `Âᵀ` for a directed graph, else `Â`.
    fn a_back(&self) -> &Csr {
        self.a_t.as_ref().unwrap_or(&self.a)
    }

    /// Feedforward (paper Eq. 1): returns all intermediates.
    pub fn forward(&self, h0: &Dense) -> ForwardState {
        assert_eq!(h0.rows(), self.a.n_rows(), "feature row count mismatch");
        assert_eq!(h0.cols(), self.config.dims[0], "input width mismatch");
        let cctx = &self.ctx;
        let pool = cctx.pool();
        let mut z = Vec::with_capacity(self.config.layers());
        let mut h = Vec::with_capacity(self.config.layers() + 1);
        h.push(h0.clone());
        for k in 1..=self.config.layers() {
            let w = &self.params.weights[k - 1];
            let zk = match self.config.order {
                LayerOrder::SpmmFirst => cctx.matmul(&cctx.spmm(&self.a, &h[k - 1]), w),
                LayerOrder::DmmFirst => cctx.spmm(&self.a, &cctx.matmul(&h[k - 1], w)),
            };
            let hk = self.config.activation(k).apply_pool(&zk, pool);
            z.push(zk);
            h.push(hk);
        }
        ForwardState { z, h }
    }

    /// Backpropagation (paper Eqs. 2–5) given the output-layer loss
    /// gradient `∇_{H^L} J`. Returns the parameter gradients `ΔW¹…ΔW^L`.
    pub fn backward(&self, state: &ForwardState, grad_hl: &Dense) -> Vec<Dense> {
        let cctx = &self.ctx;
        let pool = cctx.pool();
        let layers = self.config.layers();
        let mut delta_w = vec![Dense::zeros(0, 0); layers];
        // G^L = ∇_{H^L} J ⊙ σ'(Z^L)  (Eq. 2)
        let mut g = grad_hl.hadamard(
            &self
                .config
                .activation(layers)
                .derivative_pool(&state.z[layers - 1], pool),
        );
        for k in (1..=layers).rev() {
            let w = &self.params.weights[k - 1];
            match self.config.order {
                LayerOrder::SpmmFirst => {
                    // ΔWᵏ = (H^{k-1})ᵀ (Âᵀ Gᵏ)   (Eq. 4; Âᵀ for directed)
                    let ag = cctx.spmm(self.a_back(), &g);
                    delta_w[k - 1] = cctx.matmul_at(&state.h[k - 1], &ag);
                    if k > 1 {
                        // Sᵏ = (ÂᵀGᵏ)(Wᵏ)ᵀ; G^{k-1} = Sᵏ ⊙ σ'(Z^{k-1})  (Eq. 3)
                        let s = cctx.matmul_bt(&ag, w);
                        g = s.hadamard(
                            &self
                                .config
                                .activation(k - 1)
                                .derivative_pool(&state.z[k - 2], pool),
                        );
                    }
                }
                LayerOrder::DmmFirst => {
                    // Z = Â(HW): dJ/d(HW) = ÂᵀG, ΔW = Hᵀ(ÂᵀG),
                    // dJ/dH = (ÂᵀG)Wᵀ — same shapes, same comm pattern.
                    let ag = cctx.spmm(self.a_back(), &g);
                    delta_w[k - 1] = cctx.matmul_at(&state.h[k - 1], &ag);
                    if k > 1 {
                        let s = cctx.matmul_bt(&ag, w);
                        g = s.hadamard(
                            &self
                                .config
                                .activation(k - 1)
                                .derivative_pool(&state.z[k - 2], pool),
                        );
                    }
                }
            }
        }
        delta_w
    }

    /// One full-batch training epoch with masked softmax cross-entropy.
    /// Returns the epoch loss.
    pub fn train_epoch(&mut self, h0: &Dense, labels: &[u32], mask: &[bool]) -> f64 {
        let state = self.forward(h0);
        let (j, grad) = loss::softmax_cross_entropy(&state.h[self.config.layers()], labels, mask);
        let delta_w = self.backward(&state, &grad);
        // The parameter update: Eq. 5 for SGD; Adam when configured.
        for (layer, (w, dw)) in self.params.weights.iter_mut().zip(&delta_w).enumerate() {
            self.opt_state
                .apply(layer, w, dw, self.config.learning_rate);
        }
        self.opt_state.advance();
        j
    }

    /// Output-layer logits for the current parameters.
    pub fn predict(&self, h0: &Dense) -> Dense {
        let state = self.forward(h0);
        state.h.into_iter().last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::sbm::{self, SbmParams};
    use pargcn_graph::Graph;

    fn tiny_graph() -> Graph {
        Graph::from_edges(5, false, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    }

    #[test]
    fn forward_shapes() {
        let g = tiny_graph();
        let t = SerialTrainer::new(&g, GcnConfig::two_layer(3, 4, 2), 1);
        let h0 = Dense::zeros(5, 3);
        let state = t.forward(&h0);
        assert_eq!(state.z.len(), 2);
        assert_eq!(state.h.len(), 3);
        assert_eq!((state.h[2].rows(), state.h[2].cols()), (5, 2));
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Centered finite differences on every parameter entry against the
        // analytic backward pass — run in f32, so tolerances are loose but
        // meaningful.
        let g = tiny_graph();
        let mut config = GcnConfig::two_layer(3, 4, 2);
        config.learning_rate = 0.0; // no updates during probing
        let t = SerialTrainer::new(&g, config, 7);
        let mut rng = pargcn_util::rng::StdRng::seed_from_u64(3);
        use pargcn_util::rng::SeedableRng;
        let h0 = Dense::random(5, 3, &mut rng);
        let labels = vec![0u32, 1, 0, 1, 0];
        let mask = vec![true, true, false, true, true];

        let state = t.forward(&h0);
        let (_, grad_hl) = loss::softmax_cross_entropy(&state.h[2], &labels, &mask);
        let analytic = t.backward(&state, &grad_hl);

        let eps = 1e-2f32;
        for (layer, analytic_grad) in analytic.iter().enumerate().take(2) {
            for i in 0..t.params.weights[layer].rows() {
                for j in 0..t.params.weights[layer].cols() {
                    let mut tp = SerialTrainer::new(&g, t.config.clone(), 7);
                    tp.params = t.params.clone();
                    let w = &mut tp.params.weights[layer];
                    w.set(i, j, w.get(i, j) + eps);
                    let (lp, _) =
                        loss::softmax_cross_entropy(&tp.forward(&h0).h[2], &labels, &mask);

                    let mut tm = SerialTrainer::new(&g, t.config.clone(), 7);
                    tm.params = t.params.clone();
                    let w = &mut tm.params.weights[layer];
                    w.set(i, j, w.get(i, j) - eps);
                    let (lm, _) =
                        loss::softmax_cross_entropy(&tm.forward(&h0).h[2], &labels, &mask);

                    let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                    let an = analytic_grad.get(i, j);
                    assert!(
                        (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                        "layer {layer} ({i},{j}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_learnable_data() {
        let d = sbm::generate(
            SbmParams {
                n: 280,
                classes: 4,
                features: 8,
                ..Default::default()
            },
            5,
        );
        let mut t = SerialTrainer::new(&d.graph, GcnConfig::two_layer(8, 16, 4), 2);
        let first = t.train_epoch(&d.features, &d.labels, &d.train_mask);
        let mut last = first;
        for _ in 0..30 {
            last = t.train_epoch(&d.features, &d.labels, &d.train_mask);
        }
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} → {last}"
        );
    }

    #[test]
    fn learns_planted_partition_above_chance() {
        let d = sbm::generate(
            SbmParams {
                n: 400,
                classes: 4,
                features: 16,
                feature_separation: 2.0,
                ..Default::default()
            },
            9,
        );
        let mut t = SerialTrainer::new(&d.graph, GcnConfig::two_layer(16, 16, 4), 3);
        for _ in 0..40 {
            t.train_epoch(&d.features, &d.labels, &d.train_mask);
        }
        let test_mask: Vec<bool> = d.train_mask.iter().map(|&m| !m).collect();
        let acc = loss::accuracy(&t.predict(&d.features), &d.labels, &test_mask);
        assert!(acc > 0.6, "test accuracy {acc} not above chance (0.25)");
    }

    #[test]
    fn directed_graph_uses_transpose_in_backward() {
        // On a directed chain the forward and backward SpMMs differ; just
        // assert gradients stay finite-difference-consistent.
        let g = Graph::from_edges(4, true, &[(0, 1), (1, 2), (2, 3)]);
        let mut config = GcnConfig::two_layer(2, 3, 2);
        config.learning_rate = 0.0;
        let t = SerialTrainer::new(&g, config, 11);
        let h0 = Dense::from_vec(4, 2, vec![0.3, -0.1, 0.5, 0.2, -0.4, 0.8, 0.1, 0.6]);
        let labels = vec![0u32, 1, 0, 1];
        let mask = vec![true; 4];
        let state = t.forward(&h0);
        let (_, grad_hl) = loss::softmax_cross_entropy(&state.h[2], &labels, &mask);
        let analytic = t.backward(&state, &grad_hl);
        let eps = 1e-2f32;
        // Spot-check a few entries of W¹.
        for (i, j) in [(0usize, 0usize), (1, 2), (0, 1)] {
            let probe = |delta: f32| {
                let mut tt = SerialTrainer::new(&g, t.config.clone(), 11);
                tt.params = t.params.clone();
                let w = &mut tt.params.weights[0];
                w.set(i, j, w.get(i, j) + delta);
                loss::softmax_cross_entropy(&tt.forward(&h0).h[2], &labels, &mask).0
            };
            let fd = ((probe(eps) - probe(-eps)) / (2.0 * eps as f64)) as f32;
            let an = analytic[0].get(i, j);
            assert!((fd - an).abs() < 2e-2 * (1.0 + an.abs()), "fd {fd} vs {an}");
        }
    }

    #[test]
    fn dmm_first_matches_spmm_first() {
        // §4.4: (ÂH)W == Â(HW); both orders must give identical results.
        let g = tiny_graph();
        let mut c1 = GcnConfig::two_layer(3, 4, 2);
        c1.order = LayerOrder::SpmmFirst;
        let mut c2 = c1.clone();
        c2.order = LayerOrder::DmmFirst;
        let t1 = SerialTrainer::new(&g, c1, 5);
        let t2 = SerialTrainer::new(&g, c2, 5);
        use pargcn_util::rng::SeedableRng;
        let h0 = Dense::random(5, 3, &mut pargcn_util::rng::StdRng::seed_from_u64(1));
        assert!(t1.predict(&h0).approx_eq(&t2.predict(&h0), 1e-4));
    }
}
