//! SGC — Simplifying Graph Convolutional Networks (Wu et al., ICML'19;
//! the paper's reference \[58\]) — as a §4.4 case study.
//!
//! SGC removes the nonlinearities between GCN layers, collapsing the model
//! to `softmax(Â^K X W)`: a K-hop feature propagation followed by logistic
//! regression. §4.4's claim is that other GNN models reuse the *identical*
//! communication scheme with only local-computation changes, and SGC is
//! the starkest demonstration. Here it is the shared [`Trainer`] with a
//! different model: the K propagation sweeps run once in the trainer's
//! session over exactly the GCN comm plan (Eq. 8–9 sends of `H` rows),
//! and every epoch is then a [`Trainer::step`] of a one-layer,
//! identity-output GCN `d → classes` over [`RankPlan::pass_through`]
//! plans — *zero point-to-point communication*, a local DMM plus the
//! small `ΔW` allreduce. The test-suite asserts that byte count.

use crate::dist::trainer::run_epochs;
use crate::dist::{DistOutcome, TrainState, Trainer};
use crate::model::{GcnConfig, LayerOrder};
use crate::optim::Optimizer;
use crate::plan::{CommPlan, RankPlan};
use crate::serial::SerialTrainer;
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;

/// Serial K-hop propagation: `Â^K · H`.
fn propagate_serial(ctx: &ComputeCtx, a: &Csr, h0: &Dense, k: usize) -> Dense {
    let mut h = h0.clone();
    for _ in 0..k {
        h = ctx.spmm(a, &h);
    }
    h
}

/// SGC's trained part: one SGD-trained, identity-output layer
/// `d → classes`.
fn config(d: usize, classes: usize, learning_rate: f32) -> GcnConfig {
    GcnConfig {
        dims: vec![d, classes],
        learning_rate,
        order: LayerOrder::SpmmFirst,
        optimizer: Optimizer::Sgd,
    }
}

/// Serial SGC training: propagate once, then `epochs` steps of softmax
/// regression on the propagated features (a [`SerialTrainer`] over the
/// identity adjacency). Returns `(W, per-epoch losses)`.
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
    let ctx = ComputeCtx::for_ranks_spec(1, ComputeSpec::default());
    let hp = propagate_serial(&ctx, a, h0, k);
    let config = config(h0.cols(), classes, learning_rate);
    let params = config.init_params(param_seed);
    let mut t = SerialTrainer::from_adjacency(Csr::identity(hp.rows()), false, config, params);
    let losses = (0..epochs)
        .map(|_| t.train_epoch(&hp, labels, mask))
        .collect();
    (t.params.weights.swap_remove(0), losses)
}

/// Distributed SGC: K propagation sweeps over the GCN comm plan, then
/// communication-free [`Trainer`] steps (plus the `ΔW` allreduce), one
/// per epoch.
///
/// # Panics
/// Naming the step (step t is epoch t), when the global loss or the
/// allreduced `ΔW` is not finite.
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
) -> DistOutcome {
    let plan = CommPlan::build(&graph.normalized_adjacency(), part);
    let config = config(h0.cols(), classes, learning_rate);
    let trainer = propagated(&plan, h0, k, labels, mask, &config, param_seed);
    run_epochs(trainer, epochs)
}

/// A [`Trainer`] of `config` over pass-through plans on `plan`'s rows,
/// its features propagated `k` times over `plan` in its own session.
fn propagated<'a>(
    plan: &CommPlan,
    h0: &Dense,
    k: usize,
    labels: &[u32],
    mask: &[bool],
    config: &'a GcnConfig,
    param_seed: u64,
) -> Trainer<'a> {
    let pass_through = (plan.ranks.iter())
        .map(|rp| RankPlan::pass_through(rp.rank, rp.local_rows.clone()))
        .collect();
    let start = TrainState::new(config, param_seed);
    let spec = ComputeSpec::default();
    let mut trainer = Trainer::new(pass_through, None, h0, labels, mask, config, start, spec);
    trainer.propagate(&plan.ranks, k);
    trainer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
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
        let (g, h0, labels, mask) = setup();
        let a = g.normalized_adjacency();
        let serial = propagate_serial(&ComputeCtx::serial(), &a, &h0, 3);
        let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 1);
        let plan = CommPlan::build(&a, &part);
        let config = config(h0.cols(), 4, 0.5);
        let mut trainer = propagated(&plan, &h0, 3, &labels, &mask, &config, 1);
        let results = trainer.run(|_, slot| slot.h0.clone(), || ()).0;
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
            out.params.weights[0].approx_eq(&w_serial, 2e-3),
            "W diverged {}",
            out.params.weights[0].max_abs_diff(&w_serial)
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
        let bytes = |o: &DistOutcome| o.counters.iter().map(|c| c.sent_bytes).sum::<u64>();
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
    #[should_panic(expected = "step 0: the global loss is NaN")]
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
    #[should_panic(expected = "step 0: ΔW1 is non-finite")]
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
