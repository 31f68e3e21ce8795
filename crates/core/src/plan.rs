//! The communication plan: per-rank local blocks and send/receive sets,
//! precomputed from the adjacency's sparsity pattern and the row partition
//! (paper §4.1, Eqs. 8–9).
//!
//! For each processor `Pₘ` the plan holds:
//!
//! * its owned global rows (the 1-D partition of `Â`, `H`, `G`);
//! * `a_own` — the diagonal block `Aₘ` restricted to owned columns, with
//!   columns renumbered to local row indices (multiplied against the local
//!   feature block without any communication, Algorithm 1 line 6);
//! * `a_remote[n]` — the off-diagonal block restricted to columns owned by
//!   peer `n`, with columns renumbered to positions in the *received row
//!   buffer* from `n` (lines 8–9). The receive set `Rₘ` of Eq. 9 is exactly
//!   the peers with a nonempty block;
//! * `send[n]` — the diagonal selector `Xₘₙ` of Eq. 8, stored as the local
//!   indices of the rows peer `n` needs (`Sₘ` is the peers with a nonempty
//!   list).
//!
//! The plan is built serially once before training and is pure data — unit
//! tests verify it against the paper's equations and against
//! `pargcn_partition::metrics` ground truth.

use pargcn_comm::costmodel::RankPhaseCost;
use pargcn_matrix::Csr;
use pargcn_partition::Partition;

/// Rows to receive from one peer and the block to multiply them against.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteBlock {
    pub peer: usize,
    /// Global row ids whose `H`/`G` rows arrive from `peer`, ascending —
    /// determines the row order inside the message payload.
    pub rows: Vec<u32>,
    /// `Aₘ` restricted to those columns; column `c` indexes `rows[c]`.
    pub a: Csr,
}

/// The selector `Xₘₙ`: which local rows to gather and send to one peer.
#[derive(Clone, Debug, PartialEq)]
pub struct SendSet {
    pub peer: usize,
    /// Indices into `local_rows` (ascending), i.e. the nonzero diagonal
    /// entries of `Xₘₙ` in local coordinates.
    pub local_indices: Vec<u32>,
}

/// One rank's share of the plan.
#[derive(Clone, Debug, PartialEq)]
pub struct RankPlan {
    pub rank: usize,
    /// Owned global rows, ascending.
    pub local_rows: Vec<u32>,
    /// Diagonal block; columns renumbered to local row indices.
    pub a_own: Csr,
    /// Off-diagonal blocks, one per peer in the receive set `Rₘ`.
    pub a_remote: Vec<RemoteBlock>,
    /// Send sets, one per peer in `Sₘ`.
    pub send: Vec<SendSet>,
}

impl RankPlan {
    /// Number of owned rows `n_m`.
    pub fn n_local(&self) -> usize {
        self.local_rows.len()
    }

    /// Total rows this rank sends per SpMM sweep.
    pub fn sent_rows(&self) -> u64 {
        self.send.iter().map(|s| s.local_indices.len() as u64).sum()
    }

    /// Total rows this rank receives per SpMM sweep.
    pub fn recv_rows(&self) -> u64 {
        self.a_remote.iter().map(|r| r.rows.len() as u64).sum()
    }
}

/// The full p-rank plan for one SpMM direction.
#[derive(Clone, Debug, PartialEq)]
pub struct CommPlan {
    pub ranks: Vec<RankPlan>,
    pub n: usize,
    pub p: usize,
}

impl CommPlan {
    /// Builds the plan for `A · X` under the row partition `part`.
    ///
    /// For backpropagation on a directed graph, pass `Âᵀ` (the paper §3.1);
    /// undirected graphs reuse the feedforward plan.
    ///
    /// This is a convenience wrapper over [`PlanBuilder`] with fresh scratch;
    /// callers building many plans (mini-batch training) should hold a
    /// `PlanBuilder` and reuse it.
    pub fn build(a: &Csr, part: &Partition) -> CommPlan {
        PlanBuilder::new().build(a, part)
    }

    /// Exact per-rank cost of one SpMM+DMM phase under this plan, for the
    /// cost model. Messages carry rows of width `d_msg` (f32); the SpMM
    /// runs at width `d_spmm`; `dmm_per_row_flops` covers the phase's dense
    /// multiplies per local row (`2·d_in·d_out` for the feedforward's
    /// `(ÂH)W`; backpropagation has two DMMs per row, `4·d_k·d_{k-1}`).
    pub fn phase_costs(
        &self,
        d_msg: usize,
        d_spmm: usize,
        dmm_per_row_flops: f64,
    ) -> Vec<RankPhaseCost> {
        self.ranks
            .iter()
            .map(|r| RankPhaseCost {
                local_flops: 2.0 * r.a_own.nnz() as f64 * d_spmm as f64,
                remote_flops: 2.0
                    * r.a_remote.iter().map(|b| b.a.nnz()).sum::<usize>() as f64
                    * d_spmm as f64,
                dmm_flops: r.n_local() as f64 * dmm_per_row_flops,
                sent_messages: r.send.len() as u64,
                sent_bytes: r.sent_rows() * d_msg as u64 * 4,
                recv_messages: r.a_remote.len() as u64,
                recv_bytes: r.recv_rows() * d_msg as u64 * 4,
            })
            .collect()
    }

    /// Total rows exchanged per sweep (= the hypergraph connectivity−1 cut).
    pub fn total_volume_rows(&self) -> u64 {
        self.ranks.iter().map(|r| r.sent_rows()).sum()
    }

    /// Total messages per sweep.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.send.len() as u64).sum()
    }
}

/// Reusable-scratch plan builder for the mini-batch path (DESIGN.md §11).
///
/// A plan build needs two length-n maps (global row → local index, and
/// the per-rank column position fed to [`Csr::split_by_owner`]) plus the
/// p×p `needed` matrix. `PlanBuilder` keeps them alive across builds:
///
/// * `local_index` and `pos` are plain grow-once vectors. Every entry a
///   build *reads* is written earlier in the same build (all n vertices
///   for `local_index`; for rank m's split, its owned columns and its
///   receive sets — exactly the columns of `Aₘ` — for `pos`), so stale
///   entries from prior builds are never observed.
/// * the column-support scan is epoch-stamped: `seen_stamp[c]` is live
///   only when it equals the current epoch, so "clearing" the marks for
///   the next rank is a counter increment, not an O(n) fill.
/// * the p×p `needed` matrix keeps its inner vectors' capacity.
///
/// Emitted plans do not depend on the scratch's history (the qc suite in
/// `tests/minibatch_engine.rs` checks a reused builder against a
/// reference built from Eqs. 8–9); the per-build scratch cost is
/// O(touched), i.e. batch-sized for batch-sized graphs.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    /// Global row id → local index within its owner; fully rewritten per build.
    local_index: Vec<u32>,
    /// Column → position in the current rank's block for that column's
    /// owner: the local index for owned columns, the receive position for
    /// remote ones. Rewritten per rank for the columns it reads.
    pos: Vec<u32>,
    /// Epoch-stamped column-support marks for the first pass.
    seen_stamp: Vec<u32>,
    seen_epoch: u32,
    /// needed[m][o] = ascending global columns of Aₘ owned by rank o ≠ m.
    needed: Vec<Vec<Vec<u32>>>,
}

impl PlanBuilder {
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    /// Grow-once sizing; scratch high-water-marks across builds, so a
    /// stream of same-sized batches reuses every buffer.
    fn reserve(&mut self, n: usize, p: usize) {
        if self.local_index.len() < n {
            self.local_index.resize(n, 0);
            self.pos.resize(n, 0);
            // New tail entries carry stamp 0; epochs start at 1, so they
            // read as stale until written.
            self.seen_stamp.resize(n, 0);
        }
        if self.needed.len() < p {
            self.needed.resize_with(p, Vec::new);
        }
        for row in &mut self.needed[..p] {
            if row.len() < p {
                row.resize_with(p, Vec::new);
            }
            for cell in &mut row[..p] {
                cell.clear();
            }
        }
    }

    /// Advances the stamp counter, resetting the marks on the (practically
    /// unreachable) u32 wraparound so stale stamps can never alias.
    fn next_epoch(&mut self) -> u32 {
        if self.seen_epoch == u32::MAX {
            self.seen_stamp.fill(0);
            self.seen_epoch = 0;
        }
        self.seen_epoch += 1;
        self.seen_epoch
    }

    /// Builds the plan for `A · X` under `part` — same contract and the
    /// same output as [`CommPlan::build`], at batch-sized scratch cost.
    pub fn build(&mut self, a: &Csr, part: &Partition) -> CommPlan {
        assert_eq!(a.n_rows(), a.n_cols(), "plan needs a square matrix");
        assert_eq!(a.n_rows(), part.n(), "partition size mismatch");
        let n = a.n_rows();
        let p = part.p();
        self.reserve(n, p);
        let members = part.members();
        let owner = part.assignment();

        // Global row id → local index within its owner.
        for rows in &members {
            for (li, &v) in rows.iter().enumerate() {
                self.local_index[v as usize] = li as u32;
            }
        }

        // First pass: per rank, split needed columns by owner. The support
        // scan ascends over 0..n, so the `needed` lists come out ascending.
        for (m, rows) in members.iter().enumerate() {
            let se = self.next_epoch();
            for &r in rows {
                for &c in a.row_indices(r as usize) {
                    self.seen_stamp[c as usize] = se;
                }
            }
            for (j, (&stamp, &o)) in self.seen_stamp[..n].iter().zip(owner).enumerate() {
                if stamp == se && o as usize != m {
                    self.needed[m][o as usize].push(j as u32);
                }
            }
        }

        let PlanBuilder {
            local_index,
            pos,
            needed,
            ..
        } = self;
        let mut ranks = Vec::with_capacity(p);
        for (m, rows) in members.iter().enumerate() {
            // One sweep over Aₘ: owned columns land in the diagonal block
            // at their local index, remote ones in their owner's block at
            // their receive position. Both ascend with the global column,
            // so every block row comes out sorted.
            for &v in rows {
                pos[v as usize] = local_index[v as usize];
            }
            // Slice to `p`: the scratch may be wider from an earlier
            // larger-p build.
            let need = &needed[m][..p];
            for recv in need {
                for (k, &j) in recv.iter().enumerate() {
                    pos[j as usize] = k as u32;
                }
            }
            let block_cols: Vec<usize> = (0..p)
                .map(|o| if o == m { rows.len() } else { need[o].len() })
                .collect();
            let blocks = a.split_by_owner(rows, owner, pos, &block_cols);

            // Off-diagonal blocks per source peer; the receive set `Rₘ`
            // (Eq. 9) is the peers with a nonempty block.
            let mut a_own = None;
            let mut a_remote = Vec::new();
            for (peer, block) in blocks.into_iter().enumerate() {
                if peer == m {
                    a_own = Some(block);
                } else if !need[peer].is_empty() {
                    a_remote.push(RemoteBlock {
                        peer,
                        rows: need[peer].clone(),
                        a: block,
                    });
                }
            }

            // Send sets: invert `needed` — rank m sends to n the rows n
            // needs from m (Eq. 8: the diagonal of Xₘₙ).
            let mut send = Vec::new();
            for (peer, need_row) in needed[..p].iter().enumerate() {
                if peer == m || need_row[m].is_empty() {
                    continue;
                }
                let local_indices: Vec<u32> = need_row[m]
                    .iter()
                    .map(|&j| local_index[j as usize])
                    .collect();
                send.push(SendSet {
                    peer,
                    local_indices,
                });
            }

            ranks.push(RankPlan {
                rank: m,
                local_rows: rows.clone(),
                a_own: a_own.expect("split yields one block per rank"),
                a_remote,
                send,
            });
        }
        CommPlan { ranks, n, p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::er;
    use pargcn_matrix::{gather, Dense};
    use pargcn_partition::{metrics, random, Hypergraph};
    use pargcn_util::rng::SeedableRng;
    use pargcn_util::rng::StdRng;

    fn sample() -> (Csr, Partition) {
        let g = er::generate(30, 120, true, 3);
        let a = g.normalized_adjacency();
        let part = random::partition(30, 4, 7);
        (a, part)
    }

    #[test]
    fn send_and_recv_sets_are_duals() {
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        for rp in &plan.ranks {
            for ss in &rp.send {
                // Peer's remote block from us lists the same global rows.
                let peer_plan = &plan.ranks[ss.peer];
                let block = peer_plan
                    .a_remote
                    .iter()
                    .find(|b| b.peer == rp.rank)
                    .expect("dual block missing");
                let sent_globals: Vec<u32> = ss
                    .local_indices
                    .iter()
                    .map(|&li| rp.local_rows[li as usize])
                    .collect();
                assert_eq!(sent_globals, block.rows);
            }
        }
    }

    #[test]
    fn plan_volume_matches_metrics_ground_truth() {
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        let stats = metrics::spmm_comm_stats(&a, &part);
        assert_eq!(plan.total_volume_rows(), stats.total_rows);
        assert_eq!(plan.total_messages(), stats.total_messages);
        for rp in &plan.ranks {
            assert_eq!(rp.sent_rows(), stats.sent_rows[rp.rank]);
            assert_eq!(rp.send.len() as u64, stats.sent_messages[rp.rank]);
        }
    }

    #[test]
    fn plan_volume_matches_hypergraph_cut() {
        // §4.3.2 end-to-end: plan volume == connectivity−1 cut.
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        let h = Hypergraph::column_net_model(&a);
        assert_eq!(plan.total_volume_rows(), h.connectivity_cut(&part));
    }

    #[test]
    fn distributed_spmm_via_plan_matches_serial() {
        // Execute Eq. 7 serially using only plan data: local block times
        // local rows, plus each remote block times the gathered rows the
        // peer would send.
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        let mut rng = StdRng::seed_from_u64(5);
        let h = Dense::random(30, 6, &mut rng);
        let full = a.spmm(&h);

        for rp in &plan.ranks {
            let h_local = gather::gather_rows(&h, &rp.local_rows);
            let mut ah = rp.a_own.spmm(&h_local);
            for block in &rp.a_remote {
                // Simulate the peer's gather+send.
                let peer = &plan.ranks[block.peer];
                let peer_local = gather::gather_rows(&h, &peer.local_rows);
                let ss = peer
                    .send
                    .iter()
                    .find(|s| s.peer == rp.rank)
                    .expect("peer must have matching send set");
                let payload = gather::gather_rows(&peer_local, &ss.local_indices);
                block.a.spmm_into(&payload, &mut ah, true);
            }
            for (li, &gv) in rp.local_rows.iter().enumerate() {
                let expect = full.row(gv as usize);
                let got = ah.row(li);
                for (e, g) in expect.iter().zip(got) {
                    assert!((e - g).abs() < 1e-4, "row {gv}: {e} vs {g}");
                }
            }
        }
    }

    #[test]
    fn single_rank_plan_has_no_comm() {
        let g = er::generate(10, 40, false, 1);
        let a = g.normalized_adjacency();
        let plan = CommPlan::build(&a, &Partition::trivial(10));
        assert_eq!(plan.ranks.len(), 1);
        assert!(plan.ranks[0].send.is_empty());
        assert!(plan.ranks[0].a_remote.is_empty());
        assert_eq!(plan.ranks[0].a_own.nnz(), a.nnz());
    }

    #[test]
    fn nnz_is_conserved_across_blocks() {
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        let total: usize = plan
            .ranks
            .iter()
            .map(|r| r.a_own.nnz() + r.a_remote.iter().map(|b| b.a.nnz()).sum::<usize>())
            .sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn phase_costs_reflect_plan() {
        let (a, part) = sample();
        let plan = CommPlan::build(&a, &part);
        let costs = plan.phase_costs(6, 6, 2.0 * 6.0 * 4.0);
        for (rp, c) in plan.ranks.iter().zip(&costs) {
            assert_eq!(c.sent_messages, rp.send.len() as u64);
            assert_eq!(c.sent_bytes, rp.sent_rows() * 24);
            assert_eq!(c.recv_bytes, rp.recv_rows() * 24);
            let expected_local = 2.0 * rp.a_own.nnz() as f64 * 6.0;
            assert_eq!(c.local_flops, expected_local);
        }
    }

    #[test]
    fn empty_rank_is_tolerated() {
        // A partition where one part owns nothing.
        let g = er::generate(8, 24, true, 2);
        let a = g.normalized_adjacency();
        let assignment = vec![0u32, 0, 1, 1, 1, 0, 1, 0];
        let part = Partition::new(assignment, 3); // part 2 empty
        let plan = CommPlan::build(&a, &part);
        assert_eq!(plan.ranks[2].n_local(), 0);
        assert!(plan.ranks[2].send.is_empty());
    }
}
