//! Graph attention (GAT, Veličković et al. — the paper's reference \[55\])
//! forward pass — the second §4.4 case study.
//!
//! §4.4 describes GAT's structure explicitly: "first each vertex feature is
//! transformed with a local parameter matrix (i.e., DMM), and the resulting
//! feature is transmitted to neighbor vertices using the same communication
//! pattern as in SpMM. At the destination vertex, features are concatenated
//! and then multiplied with an attention vector." This module implements
//! exactly that over the unchanged [`crate::plan::CommPlan`]:
//!
//! 1. `P = H·W` — local DMM (the transform);
//! 2. exchange the needed `P` rows — the identical Eq. 8–9 point-to-point
//!    pattern, carrying `d_out`-wide rows;
//! 3. per in-edge `(i ← j)`: `e_ij = LeakyReLU(a_src·pᵢ + a_dst·pⱼ)` (the
//!    concatenated attention vector split into source/destination halves),
//!    row-wise softmax over the in-neighborhood, and the attention-weighted
//!    aggregation — all purely local once the rows have arrived.
//!
//! Inference (forward) only: training GAT end-to-end needs gradients
//! through the attention softmax, which the paper does not evaluate either;
//! the point being demonstrated is the *communication* claim.
//!
//! The exchange is the GCN exchange's own send and receive halves, with
//! pooled payloads, an [`ExchangeScratch`] and any-order arrival; only
//! the fold differs. The GCN fold sums each block into `Â·X`, while
//! attention needs the raw remote rows of `P` — every neighbour's score
//! enters the softmax before any row is weighted. So [`forward_rank`]
//! keeps each received payload as its `P` block until the layer's
//! attention is done, then releases it to its sender's pool, sized once
//! for the widest layer.

use crate::activations::Activation;
use crate::dist::feedforward::{recv_in_plan_order, send_rows};
use crate::dist::{ExchangeScratch, SpmmExchange};
use crate::plan::{CommPlan, RankPlan};
use pargcn_comm::{CommCounters, CommSession, RankCtx};
use pargcn_graph::Graph;
use pargcn_matrix::softmax::exp;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;
use pargcn_util::rng::StdRng;
use pargcn_util::rng::{Rng, SeedableRng};

/// One single-head GAT layer's parameters.
#[derive(Clone, Debug)]
pub struct GatLayer {
    /// Transform `W ∈ R^{d_in × d_out}` (replicated).
    pub w: Dense,
    /// Destination half of the attention vector (applied to `pᵢ`).
    pub a_src: Vec<f32>,
    /// Source half of the attention vector (applied to `pⱼ`).
    pub a_dst: Vec<f32>,
    /// LeakyReLU slope for attention logits (0.2 in the GAT paper).
    pub negative_slope: f32,
}

impl GatLayer {
    /// Glorot-initialized layer, deterministic in `seed`.
    pub fn init(d_in: usize, d_out: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Dense::glorot(d_in, d_out, &mut rng);
        let s = (6.0 / (d_out as f64 + 1.0)).sqrt() as f32;
        let a_src = (0..d_out).map(|_| rng.gen_range(-s..=s)).collect();
        let a_dst = (0..d_out).map(|_| rng.gen_range(-s..=s)).collect();
        Self {
            w,
            a_src,
            a_dst,
            negative_slope: 0.2,
        }
    }

    #[inline]
    fn lrelu(&self, x: f32) -> f32 {
        if x >= 0.0 {
            x
        } else {
            self.negative_slope * x
        }
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Serial GAT layer forward over the adjacency *pattern* (values ignored;
/// attention replaces the fixed normalization). `pattern` must contain the
/// self loops (use the normalized adjacency's pattern). The transform
/// runs on `ctx`.
pub fn forward_serial(ctx: &ComputeCtx, layer: &GatLayer, pattern: &Csr, h: &Dense) -> Dense {
    let p = ctx.matmul(h, &layer.w);
    let d = p.cols();
    let n = pattern.n_rows();
    let s_src: Vec<f32> = (0..n).map(|i| dot(&layer.a_src, p.row(i))).collect();
    let s_dst: Vec<f32> = (0..n).map(|j| dot(&layer.a_dst, p.row(j))).collect();

    let mut out = Dense::zeros(n, d);
    for (i, &s_src_i) in s_src.iter().enumerate() {
        let cols = pattern.row_indices(i);
        if cols.is_empty() {
            continue;
        }
        // Numerically stable softmax over the in-neighborhood.
        let logits: Vec<f32> = cols
            .iter()
            .map(|&j| layer.lrelu(s_src_i + s_dst[j as usize]))
            .collect();
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&e| exp(e - max)).collect();
        let denom: f32 = exps.iter().sum();
        let row = out.row_mut(i);
        for (&j, &w) in cols.iter().zip(&exps) {
            let alpha = w / denom;
            for (o, &pv) in row.iter_mut().zip(p.row(j as usize)) {
                *o += alpha * pv;
            }
        }
    }
    out
}

/// Per-rank distributed GAT layer forward: the same exchange as the GCN
/// trainer (here of the *transformed* rows `P`, DmmFirst-style), then local
/// attention. `tag` must be unique per layer within a forward pass, and
/// the payload pools must fit `d_out`-wide rows ([`SpmmExchange::ensure_pools`]),
/// as [`forward_distributed`] sizes them. The transform runs on the
/// rank's `cctx`; `scratch` stages the arrivals.
pub fn forward_rank(
    ctx: &mut RankCtx,
    rp: &RankPlan,
    layer: &GatLayer,
    h_local: &Dense,
    tag: u32,
    cctx: &ComputeCtx,
    scratch: &mut ExchangeScratch,
) -> Dense {
    let p_local = cctx.matmul(h_local, &layer.w);
    let d = p_local.cols();

    // The GCN exchange's sends and receives, over the transformed rows.
    // The remote blocks go back to their senders' pools once the
    // attention below is done with them.
    send_rows(ctx, rp, &p_local, tag);
    let mut p_remote = Vec::with_capacity(rp.a_remote.len());
    recv_in_plan_order(ctx, rp, tag, scratch, |_, i, payload| {
        p_remote.push(Dense::from_vec(rp.a_remote[i].rows.len(), d, payload));
    });

    // Everything below is local — §4.4's point.
    let s_src: Vec<f32> = (0..rp.n_local())
        .map(|i| dot(&layer.a_src, p_local.row(i)))
        .collect();
    let s_dst_local: Vec<f32> = (0..rp.n_local())
        .map(|j| dot(&layer.a_dst, p_local.row(j)))
        .collect();
    let s_dst_remote: Vec<Vec<f32>> = p_remote
        .iter()
        .map(|blk| {
            (0..blk.rows())
                .map(|j| dot(&layer.a_dst, blk.row(j)))
                .collect()
        })
        .collect();

    let mut out = Dense::zeros(rp.n_local(), d);
    let mut logits: Vec<f32> = Vec::new();
    for (i, &s_src_i) in s_src.iter().enumerate() {
        logits.clear();
        // Own-block edges, then each remote block's edges for row i.
        for &j in rp.a_own.row_indices(i) {
            logits.push(layer.lrelu(s_src_i + s_dst_local[j as usize]));
        }
        for (blk, sd) in rp.a_remote.iter().zip(&s_dst_remote) {
            for &j in blk.a.row_indices(i) {
                logits.push(layer.lrelu(s_src[i] + sd[j as usize]));
            }
        }
        if logits.is_empty() {
            continue;
        }
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let denom: f32 = logits.iter().map(|&e| exp(e - max)).sum();

        let row = out.row_mut(i);
        let mut cursor = 0usize;
        for &j in rp.a_own.row_indices(i) {
            let alpha = exp(logits[cursor] - max) / denom;
            cursor += 1;
            for (o, &pv) in row.iter_mut().zip(p_local.row(j as usize)) {
                *o += alpha * pv;
            }
        }
        for (blk, pr) in rp.a_remote.iter().zip(&p_remote) {
            for &j in blk.a.row_indices(i) {
                let alpha = exp(logits[cursor] - max) / denom;
                cursor += 1;
                for (o, &pv) in row.iter_mut().zip(pr.row(j as usize)) {
                    *o += alpha * pv;
                }
            }
        }
    }
    for (blk, pr) in rp.a_remote.iter().zip(p_remote) {
        ctx.release(blk.peer, pr.into_vec());
    }
    out
}

/// Distributed multi-layer GAT inference over `part`: returns the global
/// output features and the per-rank counters. Each rank runs its kernels
/// on its own [`ComputeCtx`], sized and chosen as the trainers' are
/// (`PARGCN_THREADS`, `PARGCN_KERNEL`).
///
/// # Panics
/// Naming the layer and the rank, when a rank's output of any layer holds
/// a NaN or ±∞ (the first such layer, on the lowest such rank). Each rank
/// checks every layer's output before the inter-layer ReLU, which would
/// turn a NaN into `0.0` and hide it, and finishes its exchanges: a rank
/// that stopped mid-pass would leave its peers blocked in their receives.
pub fn forward_distributed(
    graph: &Graph,
    h0: &Dense,
    layers: &[GatLayer],
    part: &Partition,
) -> (Dense, Vec<CommCounters>) {
    let a = graph.normalized_adjacency();
    let plan = CommPlan::build(&a, part);
    let locals: Vec<Dense> = plan
        .ranks
        .iter()
        .map(|rp| gather::gather_rows(h0, &rp.local_rows))
        .collect();

    struct R {
        out: Dense,
        counters: CommCounters,
        /// The first layer whose output held a NaN or ±∞.
        non_finite: Option<usize>,
    }
    let results: Vec<R> = CommSession::new(part.p()).run_step(|ctx| {
        let rp = &plan.ranks[ctx.rank()];
        let widest = layers.iter().map(|l| l.w.cols()).max().unwrap_or(0);
        rp.ensure_pools(ctx, widest, 0);
        let cctx = ComputeCtx::for_ranks_spec(part.p(), ComputeSpec::default());
        let mut scratch = ExchangeScratch::new(part.p());
        let mut h = locals[ctx.rank()].clone();
        let mut non_finite = None;
        for (k, layer) in layers.iter().enumerate() {
            h = forward_rank(ctx, rp, layer, &h, k as u32, &cctx, &mut scratch);
            if non_finite.is_none() && h.data().iter().any(|v| !v.is_finite()) {
                non_finite = Some(k);
            }
            if k + 1 < layers.len() {
                Activation::Relu.apply_in_place(&cctx, &mut h); // inter-layer ReLU
            }
        }
        R {
            out: h,
            counters: ctx.counters().clone(),
            non_finite,
        }
    });
    let first_bad = (results.iter().enumerate())
        .filter_map(|(rank, r)| Some((r.non_finite?, rank)))
        .min();
    if let Some((k, rank)) = first_bad {
        panic!("GAT layer {k}: rank {rank}'s output is non-finite");
    }

    let d = layers.last().map(|l| l.w.cols()).unwrap_or(h0.cols());
    let mut out = Dense::zeros(graph.n(), d);
    for (rp, r) in plan.ranks.iter().zip(&results) {
        gather::scatter_rows(&r.out, &rp.local_rows, &mut out);
    }
    (out, results.iter().map(|r| r.counters.clone()).collect())
}

/// Serial multi-layer GAT inference (the oracle for the distributed
/// path), on one [`ComputeCtx`] sized as the serial trainer's is.
pub fn forward_serial_multi(graph: &Graph, h0: &Dense, layers: &[GatLayer]) -> Dense {
    let ctx = ComputeCtx::for_ranks_spec(1, ComputeSpec::default());
    let pattern = graph.normalized_adjacency();
    let mut h = h0.clone();
    for (k, layer) in layers.iter().enumerate() {
        h = forward_serial(&ctx, layer, &pattern, &h);
        if k + 1 < layers.len() {
            Activation::Relu.apply_in_place(&ctx, &mut h);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::community;
    use pargcn_partition::{partition_rows, Method};

    fn setup() -> (Graph, Dense) {
        let g = community::copurchase(160, 6.0, false, 2);
        let mut rng = StdRng::seed_from_u64(3);
        (g, Dense::random(160, 6, &mut rng))
    }

    #[test]
    fn attention_weights_sum_to_one() {
        // Proxy check: with W = I, a = 0, GAT reduces to mean aggregation
        // over the in-neighborhood — uniform attention.
        let (g, h) = setup();
        let pattern = g.normalized_adjacency();
        let layer = GatLayer {
            w: Dense::from_fn(6, 6, |i, j| if i == j { 1.0 } else { 0.0 }),
            a_src: vec![0.0; 6],
            a_dst: vec![0.0; 6],
            negative_slope: 0.2,
        };
        let out = forward_serial(&ComputeCtx::serial(), &layer, &pattern, &h);
        for i in 0..20 {
            let cols = pattern.row_indices(i);
            let mut mean = vec![0.0f32; 6];
            for &j in cols {
                for (m, &v) in mean.iter_mut().zip(h.row(j as usize)) {
                    *m += v / cols.len() as f32;
                }
            }
            for (a, b) in out.row(i).iter().zip(&mean) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let (g, h) = setup();
        let layers = vec![GatLayer::init(6, 8, 1), GatLayer::init(8, 4, 2)];
        let serial = forward_serial_multi(&g, &h, &layers);
        for method in [Method::Rp, Method::Hp] {
            let part = partition_rows(&g, &g.normalized_adjacency(), method, 4, 0.1, 5);
            let (dist, _) = forward_distributed(&g, &h, &layers, &part);
            assert!(
                dist.approx_eq(&serial, 2e-3),
                "{}: GAT diverged, max diff {}",
                method.name(),
                dist.max_abs_diff(&serial)
            );
        }
    }

    /// One NaN feature row makes its rank's first-layer output NaN; the
    /// ReLU after that layer would map it to `0.0`, leaving the final
    /// output finite, so the run must stop at layer 0.
    #[test]
    #[should_panic(expected = "GAT layer 0: rank")]
    fn a_non_finite_layer_output_panics_naming_the_layer() {
        let (g, mut h) = setup();
        h.row_mut(17).fill(f32::NAN);
        let layers = vec![GatLayer::init(6, 8, 1), GatLayer::init(8, 4, 2)];
        let part = partition_rows(&g, &g.normalized_adjacency(), Method::Hp, 4, 0.1, 5);
        forward_distributed(&g, &h, &layers, &part);
    }

    #[test]
    fn gat_exchange_volume_equals_gcn_plan_volume() {
        // §4.4: the same communication scheme — per layer, GAT moves exactly
        // the plan's volume in d_out-wide rows.
        let (g, h) = setup();
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 7);
        let plan = CommPlan::build(&a, &part);
        let layers = vec![GatLayer::init(6, 8, 1)];
        let (_, counters) = forward_distributed(&g, &h, &layers, &part);
        let bytes: u64 = counters.iter().map(|c| c.sent_bytes).sum();
        assert_eq!(bytes, plan.total_volume_rows() * 8 * 4);
    }

    #[test]
    fn attention_is_input_dependent() {
        // Unlike GCN's fixed normalization, different features must yield
        // different effective aggregation (sanity that attention is live).
        let (g, h) = setup();
        let pattern = g.normalized_adjacency();
        let layer = GatLayer::init(6, 6, 9);
        let ctx = ComputeCtx::serial();
        let out1 = forward_serial(&ctx, &layer, &pattern, &h);
        let mut h2 = h.clone();
        ctx.map_inplace(&mut h2, |v| v * -1.5 + 0.3);
        let out2 = forward_serial(&ctx, &layer, &pattern, &h2);
        // Not a linear map of each other: compare normalized difference.
        assert!(out1.max_abs_diff(&out2) > 1e-3);
    }
}
