//! CAGNET-style 1-D broadcast training (Tripathy, Yelick & Buluç, SC'20) —
//! the paper's main comparison point.
//!
//! CAGNET's 1-D variant performs the parallel SpMM by **turn-wise
//! broadcasts**: in each layer every rank `b` broadcasts its whole local
//! `H`-block to all ranks, which multiply it against the matching column
//! block of their local adjacency. Every rank therefore receives all `n`
//! rows per layer regardless of which it actually needs — the redundant
//! data movement the point-to-point algorithm eliminates.
//!
//! Only the exchange differs: [`CagnetRank`] implements [`SpmmExchange`]
//! and trains through the point-to-point trainer's layer loop
//! ([`crate::dist::trainer::epoch_step`]), so every optimizer, layer
//! order and the allocation-free steady state carry over (tested).

use crate::dist::trainer::train_with_plans_spec;
use crate::dist::{DistOutcome, ExchangeScratch, SpmmExchange};
use crate::model::GcnConfig;
use pargcn_comm::costmodel::{self, MachineProfile, PhaseTime};
use pargcn_comm::RankCtx;
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::Partition;

/// Per-rank data of the broadcast algorithm: the local rows and, for every
/// source rank `b`, the column block of the local adjacency to multiply
/// against `b`'s broadcast.
#[derive(Clone, Debug)]
pub struct CagnetRank {
    pub rank: usize,
    pub local_rows: Vec<u32>,
    /// `blocks[b]`: `Aₘ` columns owned by rank `b`, renumbered to positions
    /// within `b`'s local row list.
    pub blocks: Vec<Csr>,
}

/// The broadcast-algorithm plan for one SpMM direction.
#[derive(Clone, Debug)]
pub struct CagnetPlan {
    pub ranks: Vec<CagnetRank>,
    pub n: usize,
    pub p: usize,
}

impl CagnetPlan {
    /// Builds the column-block decomposition of each rank's row block.
    pub fn build(a: &Csr, part: &Partition) -> CagnetPlan {
        assert_eq!(a.n_rows(), a.n_cols());
        assert_eq!(a.n_rows(), part.n());
        let n = a.n_rows();
        let p = part.p();
        let members = part.members();
        // Global row id → position within its owner's local list.
        let mut pos_in_owner = vec![0u32; n];
        for rows in &members {
            for (li, &v) in rows.iter().enumerate() {
                pos_in_owner[v as usize] = li as u32;
            }
        }
        // Positions ascend with the global id within each owner (members
        // lists are ascending), so one split yields every column block.
        let block_cols: Vec<usize> = members.iter().map(Vec::len).collect();
        let ranks = members
            .iter()
            .enumerate()
            .map(|(m, rows)| CagnetRank {
                rank: m,
                local_rows: rows.clone(),
                blocks: a.split_by_owner(rows, part.assignment(), &pos_in_owner, &block_cols),
            })
            .collect();
        CagnetPlan { ranks, n, p }
    }
}

/// One broadcast-based SpMM sweep: `p` stages, stage `b` broadcasting
/// rank `b`'s whole block and folding it in against `blocks[b]`. The stage
/// payload lives in `scratch` and is reused across stages, layers and
/// epochs.
impl SpmmExchange for CagnetRank {
    fn local_rows(&self) -> &[u32] {
        &self.local_rows
    }

    fn exchange_into(
        &self,
        ctx: &mut RankCtx,
        x_local: &Dense,
        _tag: u32,
        cctx: &ComputeCtx,
        scratch: &mut ExchangeScratch,
        ax: &mut Dense,
    ) {
        let d = x_local.cols();
        assert_eq!(ax.rows(), self.n_local(), "exchange accumulator rows");
        assert_eq!(ax.cols(), d, "exchange accumulator cols");
        ax.fill_zero();
        let stage = &mut scratch.stage;
        for (b, block) in self.blocks.iter().enumerate() {
            stage.clear();
            if b == self.rank {
                stage.extend_from_slice(x_local.data());
            }
            ctx.broadcast(b, stage);
            let xb = Dense::from_vec(block.n_cols(), d, std::mem::take(stage));
            cctx.spmm_into(block, &xb, ax, true);
            *stage = xb.into_vec();
        }
    }

    /// A sweep forwards stage `b`'s block to this rank's children in the
    /// tree rooted at `b`, and no rank gets more than one sweep of stages
    /// ahead of a destination, so a destination gets one buffer per stage
    /// that sends to it, sized for the largest such block. An allreduce
    /// hop to a tree neighbour (at most one in flight) can still be
    /// travelling when the next sweep starts, so those destinations get
    /// one more, allreduce-sized.
    fn ensure_pools(&self, ctx: &mut RankCtx, width: usize, allreduce_len: usize) {
        let mut need = vec![(0usize, 0usize); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for child in ctx.broadcast_children(b) {
                need[child].0 += 1;
                need[child].1 = need[child].1.max(block.n_cols() * width);
            }
        }
        for peer in ctx.allreduce_neighbours() {
            if need[peer].0 > 0 {
                ctx.ensure_pool(peer, need[peer].0 + 1, allreduce_len);
            }
        }
        // Grows the largest resident buffers first: the allreduce-sized
        // one stays small.
        for (to, &(count, len)) in need.iter().enumerate() {
            if count > 0 {
                ctx.ensure_pool(to, count, len);
            }
        }
    }

    fn inbound_per_sweep(&self) -> usize {
        self.blocks.len() - 1
    }
}

/// Full-batch training with the broadcast algorithm: the point-to-point
/// trainer's loop over [`CagnetPlan`]s, with the same `spec` semantics
/// (see [`crate::dist::train_full_batch_spec`]).
// The training entry points take the full problem description by design;
// a config struct would just rename the nine pieces.
#[allow(clippy::too_many_arguments)]
pub fn train_full_batch_spec(
    graph: &Graph,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    part: &Partition,
    config: &GcnConfig,
    epochs: usize,
    param_seed: u64,
    spec: ComputeSpec,
) -> DistOutcome {
    let a = graph.normalized_adjacency();
    let plan_f = CagnetPlan::build(&a, part);
    let plan_b = graph
        .directed()
        .then(|| CagnetPlan::build(&a.transpose(), part));
    let init = config.init_params(param_seed);
    train_with_plans_spec(
        &plan_f.ranks,
        &plan_b.as_ref().unwrap_or(&plan_f).ranks,
        h0,
        labels,
        mask,
        config,
        epochs,
        init,
        spec,
    )
}

/// Cost-model time for one CAGNET epoch.
///
/// Per layer, `p` broadcast stages serialize: stage `b` costs a log-tree
/// broadcast of `b`'s whole block, [`GcnConfig::forward_width`] wide
/// forward and `d_k` wide backward. Compute adds the SpMM over the rank's
/// full row block plus a staging term for touching all `n` received rows
/// (the redundant-data overhead visible in the paper's Fig. 4a). No
/// overlap: the stage's multiply needs the stage's broadcast.
pub fn simulate_epoch(
    plan_f: &CagnetPlan,
    plan_b: &CagnetPlan,
    config: &GcnConfig,
    profile: &MachineProfile,
) -> PhaseTime {
    let p = plan_f.p;
    let mut phases = Vec::new();
    let mut collectives = 0.0;
    for k in 1..=config.layers() {
        let (d_in, d_out) = (config.dims[k - 1], config.dims[k]);
        for (dir_plan, d_msg, dmm) in [
            (
                plan_f,
                config.forward_width(k),
                2.0 * d_in as f64 * d_out as f64,
            ),
            (plan_b, d_out, 4.0 * d_in as f64 * d_out as f64),
        ] {
            let bcast: f64 = (0..p)
                .map(|b| {
                    profile
                        .broadcast_time((dir_plan.ranks[b].local_rows.len() * d_msg * 4) as u64, p)
                })
                .sum();
            let comp = dir_plan
                .ranks
                .iter()
                .map(|r| {
                    let nnz: usize = r.blocks.iter().map(|b| b.nnz()).sum();
                    let staging = (dir_plan.n * d_msg) as f64; // touch all received rows
                    profile.compute_time(2.0 * nnz as f64 * d_msg as f64 + staging)
                        + profile.dmm_time(r.local_rows.len() as f64 * dmm)
                })
                .fold(0.0, f64::max);
            phases.push(PhaseTime {
                total: bcast + comp,
                comm: bcast,
                comp,
            });
        }
        collectives += profile.allreduce_time((d_in * d_out * 4) as u64, p);
    }
    costmodel::epoch_time(&phases, collectives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_comm::CommSession;
    use pargcn_graph::gen::er;
    use pargcn_matrix::gather;
    use pargcn_partition::random;
    use pargcn_util::rng::SeedableRng;
    use pargcn_util::rng::StdRng;

    #[test]
    fn plan_blocks_conserve_nnz() {
        let g = er::generate(20, 80, true, 1);
        let a = g.normalized_adjacency();
        let part = random::partition(20, 3, 2);
        let plan = CagnetPlan::build(&a, &part);
        let total: usize = plan
            .ranks
            .iter()
            .map(|r| r.blocks.iter().map(|b| b.nnz()).sum::<usize>())
            .sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn broadcast_spmm_matches_serial() {
        let g = er::generate(18, 70, false, 3);
        let a = g.normalized_adjacency();
        let part = random::partition(18, 3, 4);
        let plan = CagnetPlan::build(&a, &part);
        let mut rng = StdRng::seed_from_u64(5);
        let h = Dense::random(18, 4, &mut rng);
        let full = a.spmm(&h);
        let locals: Vec<Dense> = plan
            .ranks
            .iter()
            .map(|r| gather::gather_rows(&h, &r.local_rows))
            .collect();
        let results = CommSession::new(3).run_step(|ctx| {
            let rank = &plan.ranks[ctx.rank()];
            let mut ax = Dense::zeros(rank.n_local(), 4);
            let mut scratch = ExchangeScratch::new(3);
            let x = &locals[ctx.rank()];
            rank.exchange_into(ctx, x, 0, &ComputeCtx::serial(), &mut scratch, &mut ax);
            ax
        });
        for (rp, res) in plan.ranks.iter().zip(&results) {
            for (li, &gv) in rp.local_rows.iter().enumerate() {
                for (e, got) in full.row(gv as usize).iter().zip(res.row(li)) {
                    assert!((e - got).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn simulated_comm_is_p_independent_per_layer_volume() {
        // CAGNET broadcasts all n rows per layer regardless of partition
        // quality — so simulated comm grows with p (more stages × log tree),
        // never shrinks. That monotonicity is the shape Fig. 4a shows.
        let g = er::generate(64, 400, false, 6);
        let a = g.normalized_adjacency();
        let config = GcnConfig::two_layer(8, 8, 4);
        let profile = MachineProfile::cpu_cluster();
        let t4 = {
            let part = random::partition(64, 4, 1);
            let plan = CagnetPlan::build(&a, &part);
            simulate_epoch(&plan, &plan, &config, &profile)
        };
        let t16 = {
            let part = random::partition(64, 16, 1);
            let plan = CagnetPlan::build(&a, &part);
            simulate_epoch(&plan, &plan, &config, &profile)
        };
        assert!(
            t16.comm > t4.comm * 0.9,
            "CAGNET comm should not shrink with p: {} vs {}",
            t4.comm,
            t16.comm
        );
    }
}
