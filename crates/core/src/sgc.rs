//! SGC — Simplifying Graph Convolutional Networks (Wu et al., ICML'19;
//! the paper's reference \[58\]) — as a §4.4 case study.
//!
//! SGC removes the nonlinearities between GCN layers, collapsing the model
//! to `softmax(Â^K X W)`: a K-hop feature propagation followed by logistic
//! regression. §4.4's claim is that other GNN models reuse the *identical*
//! communication scheme with only local-computation changes, and SGC is
//! the starkest demonstration: the K propagation sweeps use exactly the
//! GCN comm plan (Eq. 8–9 sends of `H` rows), after which *training incurs
//! zero point-to-point communication at all* — every epoch is a local DMM
//! plus the small `ΔW` allreduce. The test-suite asserts that byte count.

use crate::dist::feedforward::spmm_exchange_into;
use crate::dist::{ExchangeScratch, SpmmExchange};
use crate::loss;
use crate::plan::CommPlan;
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Serial K-hop propagation: `Â^K · H`.
fn propagate_serial(a: &Csr, h0: &Dense, k: usize) -> Dense {
    let mut h = h0.clone();
    for _ in 0..k {
        h = a.spmm(&h);
    }
    h
}

/// Serial SGC training: propagate once, then `epochs` steps of softmax
/// regression on the propagated features. Returns `(W, per-epoch losses)`.
// The training entry points take the full problem description by design;
// a config struct would just rename the eight pieces.
#[allow(clippy::too_many_arguments)]
pub fn train_serial(
    a: &Csr,
    h0: &Dense,
    k: usize,
    classes: usize,
    labels: &[u32],
    mask: &[bool],
    epochs: usize,
    learning_rate: f32,
    param_seed: u64,
) -> (Dense, Vec<f64>) {
    let hp = propagate_serial(a, h0, k);
    let mut rng = StdRng::seed_from_u64(param_seed);
    let mut w = Dense::glorot(h0.cols(), classes, &mut rng);
    let mut losses = Vec::with_capacity(epochs);
    let cctx = ComputeCtx::serial();
    for _ in 0..epochs {
        let logits = hp.matmul(&w);
        let (j, grad) = loss::softmax_cross_entropy(&cctx, &logits, labels, mask);
        // dJ/dW = (Â^K X)ᵀ · dJ/dlogits.
        let dw = hp.matmul_at(&grad);
        w.sub_scaled_assign(&dw, learning_rate);
        losses.push(j);
    }
    (w, losses)
}

/// Outcome of distributed SGC training.
pub struct SgcOutcome {
    pub w: Dense,
    pub losses: Vec<f64>,
    pub predictions: Dense,
    pub counters: Vec<CommCounters>,
}

/// One rank's SGC training after propagation: its propagated rows, their
/// labels and mask, and the logits, loss-gradient and `ΔW` buffers every
/// epoch reuses, so an epoch allocates nothing once the collectives are
/// warm.
pub struct SgcRank<'a> {
    /// The rank's rows of `Â^K·X`.
    pub hp: Dense,
    labels: &'a [u32],
    mask: &'a [bool],
    /// Masked rows over all ranks: the loss's normaliser.
    mask_total: f64,
    logits: Dense,
    grad: Dense,
    dw: Dense,
}

impl<'a> SgcRank<'a> {
    pub fn new(
        hp: Dense,
        labels: &'a [u32],
        mask: &'a [bool],
        mask_total: f64,
        classes: usize,
    ) -> Self {
        let (rows, d) = (hp.rows(), hp.cols());
        SgcRank {
            hp,
            labels,
            mask,
            mask_total,
            logits: Dense::zeros(rows, classes),
            grad: Dense::zeros(rows, classes),
            dw: Dense::zeros(d, classes),
        }
    }

    /// One epoch: the local logits, loss and `ΔW`, both allreduced, then
    /// `W ← W − η·ΔW`. Returns the global loss, the same on every rank.
    ///
    /// # Panics
    /// Naming `epoch`, when the global loss or the allreduced `ΔW` is not
    /// finite; both are global, so every rank stops at the same epoch.
    pub fn epoch(
        &mut self,
        ctx: &mut RankCtx,
        cctx: &ComputeCtx,
        w: &mut Dense,
        learning_rate: f32,
        epoch: usize,
    ) -> f64 {
        cctx.matmul_into(&self.hp, w, &mut self.logits, false);
        let loss_local = cctx.softmax_cross_entropy_into(
            &self.logits,
            self.labels,
            self.mask,
            self.mask_total,
            &mut self.grad,
        );
        let mut lbuf = [loss_local as f32];
        ctx.allreduce_sum(&mut lbuf);
        let loss = lbuf[0] as f64;
        assert!(loss.is_finite(), "epoch {epoch}: the global loss is {loss}");

        cctx.matmul_at_into(&self.hp, &self.grad, &mut self.dw);
        ctx.allreduce_sum(self.dw.data_mut());
        let finite = self.dw.data().iter().all(|v| v.is_finite());
        assert!(finite, "epoch {epoch}: ΔW is non-finite");
        w.sub_scaled_assign(&self.dw, learning_rate);
        loss
    }
}

/// Distributed SGC: K propagation sweeps over the GCN comm plan, then
/// communication-free local epochs (plus the `ΔW` allreduce).
///
/// # Panics
/// Naming the epoch, when the global loss or the allreduced `ΔW` is not
/// finite.
#[allow(clippy::too_many_arguments)]
pub fn train_distributed(
    graph: &Graph,
    h0: &Dense,
    k: usize,
    classes: usize,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    epochs: usize,
    learning_rate: f32,
    param_seed: u64,
) -> SgcOutcome {
    let a = graph.normalized_adjacency();
    let plan = CommPlan::build(&a, part);
    let n = graph.n();
    let d = h0.cols();
    let mask_total = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut rng = StdRng::seed_from_u64(param_seed);
    let w_init = Dense::glorot(d, classes, &mut rng);

    let locals: Vec<(Dense, Vec<u32>, Vec<bool>)> = plan
        .ranks
        .iter()
        .map(|rp| {
            (
                gather::gather_rows(h0, &rp.local_rows),
                rp.local_rows.iter().map(|&v| labels[v as usize]).collect(),
                rp.local_rows.iter().map(|&v| mask[v as usize]).collect(),
            )
        })
        .collect();

    struct R {
        w: Dense,
        losses: Vec<f64>,
        pred: Dense,
        counters: CommCounters,
    }

    let results: Vec<R> = CommSession::new(part.p()).run_step(|ctx| {
        let m = ctx.rank();
        let rp = &plan.ranks[m];
        let (h_local, l_local, m_local) = &locals[m];
        let cctx = ComputeCtx::for_ranks_spec(part.p(), ComputeSpec::default());

        // K-hop propagation: the only point-to-point communication. The
        // sweeps ping-pong between two persistent buffers over a single
        // exchange scratch, with the payload pools pre-warmed, so no sweep
        // after the first allocates on the comm path.
        rp.ensure_pools(ctx, d, d * classes);
        ctx.ensure_collectives(2, d * classes);
        let mut scratch = ExchangeScratch::new(part.p());
        let mut hp = h_local.clone();
        let mut hp_next = Dense::zeros(h_local.rows(), d);
        for sweep in 0..k {
            spmm_exchange_into(
                ctx,
                rp,
                &hp,
                sweep as u32,
                &cctx,
                &mut scratch,
                &mut hp_next,
            );
            std::mem::swap(&mut hp, &mut hp_next);
        }

        // Training epochs: purely local + ΔW allreduce.
        let mut rank = SgcRank::new(hp, l_local, m_local, mask_total, classes);
        let mut w = w_init.clone();
        let mut losses = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            losses.push(rank.epoch(ctx, &cctx, &mut w, learning_rate, epoch));
        }
        let pred = cctx.matmul(&rank.hp, &w);
        ctx.add_compute_flops(cctx.take_flops());
        R {
            w,
            losses,
            pred,
            counters: ctx.counters().clone(),
        }
    });

    let mut predictions = Dense::zeros(n, classes);
    for (rp, r) in plan.ranks.iter().zip(&results) {
        gather::scatter_rows(&r.pred, &rp.local_rows, &mut predictions);
    }
    SgcOutcome {
        w: results[0].w.clone(),
        losses: results[0].losses.clone(),
        predictions,
        counters: results.iter().map(|r| r.counters.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::sbm::{self, SbmParams};
    use pargcn_partition::{partition_rows, Method};

    fn setup() -> (Graph, Dense, Vec<u32>, Vec<bool>) {
        let d = sbm::generate(
            SbmParams {
                n: 300,
                classes: 4,
                features: 8,
                feature_separation: 1.5,
                ..Default::default()
            },
            3,
        );
        (d.graph, d.features, d.labels, d.train_mask)
    }

    #[test]
    fn propagation_matches_serial() {
        let (g, h0, ..) = setup();
        let a = g.normalized_adjacency();
        let serial = propagate_serial(&a, &h0, 3);
        let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 1);
        let plan = CommPlan::build(&a, &part);
        let locals: Vec<Dense> = plan
            .ranks
            .iter()
            .map(|rp| gather::gather_rows(&h0, &rp.local_rows))
            .collect();
        let results = CommSession::new(4).run_step(|ctx| {
            let cctx = pargcn_matrix::ComputeCtx::serial();
            let rp = &plan.ranks[ctx.rank()];
            let mut scratch = ExchangeScratch::new(4);
            let mut hp = locals[ctx.rank()].clone();
            let mut next = Dense::zeros(hp.rows(), hp.cols());
            for sweep in 0..3 {
                spmm_exchange_into(ctx, rp, &hp, sweep, &cctx, &mut scratch, &mut next);
                std::mem::swap(&mut hp, &mut next);
            }
            hp
        });
        for (rp, hp) in plan.ranks.iter().zip(&results) {
            for (li, &gv) in rp.local_rows.iter().enumerate() {
                for (a, b) in serial.row(gv as usize).iter().zip(hp.row(li)) {
                    assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn distributed_training_matches_serial() {
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let (w_serial, losses_serial) = train_serial(&a, &h0, 2, 4, &labels, &mask, 5, 0.5, 11);
        let part = partition_rows(&g, &a, Method::Gp, 3, 0.1, 2);
        let out = train_distributed(&g, &h0, 2, 4, &labels, &mask, &part, 5, 0.5, 11);
        for (s, d) in losses_serial.iter().zip(&out.losses) {
            assert!((s - d).abs() < 1e-3 * (1.0 + s.abs()), "loss {s} vs {d}");
        }
        assert!(
            out.w.approx_eq(&w_serial, 2e-3),
            "W diverged {}",
            out.w.max_abs_diff(&w_serial)
        );
    }

    #[test]
    fn epochs_cost_zero_p2p_traffic() {
        // The §4.4 showcase: after the K propagation sweeps, more epochs add
        // no point-to-point bytes at all.
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 3);
        let plan = CommPlan::build(&a, &part);
        let k = 2;

        let short = train_distributed(&g, &h0, k, 4, &labels, &mask, &part, 1, 0.5, 1);
        let long = train_distributed(&g, &h0, k, 4, &labels, &mask, &part, 50, 0.5, 1);
        let bytes = |o: &SgcOutcome| o.counters.iter().map(|c| c.sent_bytes).sum::<u64>();
        assert_eq!(
            bytes(&short),
            bytes(&long),
            "epochs must add zero P2P traffic"
        );
        // And the propagation traffic is exactly K sweeps of the plan volume.
        let expected = plan.total_volume_rows() * (h0.cols() as u64) * 4 * k as u64;
        assert_eq!(bytes(&short), expected);
    }

    /// One NaN feature row, propagated into its neighbours' rows, makes
    /// the masked loss NaN.
    #[test]
    #[should_panic(expected = "epoch 0: the global loss is NaN")]
    fn a_non_finite_loss_panics_naming_the_epoch() {
        let (g, mut h0, labels, mask) = setup();
        h0.row_mut(7).fill(f32::NAN);
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 4);
        train_distributed(&g, &h0, 2, 4, &labels, &mask, &part, 3, 0.5, 5);
    }

    /// Unpropagated and outside the mask, a NaN feature row leaves the
    /// loss finite but not `ΔW` (its zero gradient row times NaN).
    #[test]
    #[should_panic(expected = "epoch 0: ΔW is non-finite")]
    fn a_non_finite_weight_gradient_panics_naming_the_epoch() {
        let (g, mut h0, labels, mut mask) = setup();
        h0.row_mut(7).fill(f32::NAN);
        mask[7] = false;
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 4);
        train_distributed(&g, &h0, 0, 4, &labels, &mask, &part, 3, 0.5, 5);
    }

    #[test]
    fn sgc_learns_the_planted_partition() {
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 4);
        let out = train_distributed(&g, &h0, 2, 4, &labels, &mask, &part, 60, 1.0, 5);
        let test_mask: Vec<bool> = mask.iter().map(|&m| !m).collect();
        let acc = loss::accuracy(&out.predictions, &labels, &test_mask);
        assert!(acc > 0.6, "SGC accuracy {acc} too low");
        assert!(out.losses.last().unwrap() < &out.losses[0]);
    }
}
