//! The §4.3.1 graph partitioning model (the DistDGL/METIS approach), built
//! so the paper's claim that it *overestimates* communication volume can be
//! measured against the hypergraph model.
//!
//! From the (possibly directed) adjacency `A`, an undirected graph `G'` is
//! built over the same vertices: each off-diagonal nonzero `A(i,j)` (or its
//! transpose) becomes the undirected edge `{vᵢ, vⱼ}` with unit cost; vertex
//! weight is the SpMM work `|cols(A(i,:))|`. Cut edges are the graph model's
//! estimate of communication, which double-counts (i) one-way directed
//! edges and (ii) multiple neighbors on the same remote processor.
//!
//! The graph is stored as a [`Hypergraph`] whose nets each have two pins:
//! on such a net the connectivity−1 metric is 1 exactly when the edge is
//! cut, so [`Hypergraph::connectivity_cut`] is the edge cut `χ(Π)` of §3.2
//! and the one multilevel engine ([`crate::hmultilevel`]) partitions both
//! models. Its heavy-connectivity clustering is heavy-edge matching here.

use crate::Hypergraph;
use pargcn_matrix::Csr;

impl Hypergraph {
    /// The §4.3.1 graph model of a square sparse matrix: one unit-cost net
    /// `{i, j}` per undirected off-diagonal pair `i < j` of the symmetrized
    /// pattern (reciprocal entries give one net, self loops none), in
    /// `(i, j)` order; vertex weight = row nnz. Built in `O(nnz + n)`.
    pub fn graph_model(a: &Csr) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "graph model needs a square matrix");
        let n = a.n_rows();
        let vertex_weights: Vec<u64> = (0..n).map(|i| a.row_nnz(i) as u64).collect();

        // Net {i, j} for every j > i in the union of row i and column i
        // of A; both are ascending, so a merge drops the duplicates.
        fn beyond(idx: &[u32], i: usize) -> &[u32] {
            &idx[idx.partition_point(|&c| c as usize <= i)..]
        }
        let at = a.transpose();
        let mut net_pins = Vec::with_capacity(a.nnz());
        for i in 0..n {
            let upper = beyond(a.row_indices(i), i);
            let lower = beyond(at.row_indices(i), i);
            let (mut x, mut y) = (0, 0);
            while x < upper.len() || y < lower.len() {
                let u = upper.get(x).copied().unwrap_or(u32::MAX);
                let l = lower.get(y).copied().unwrap_or(u32::MAX);
                let j = u.min(l);
                x += usize::from(u == j);
                y += usize::from(l == j);
                net_pins.extend_from_slice(&[i as u32, j]);
            }
        }
        let n_nets = net_pins.len() / 2;
        let net_ptr = (0..=n_nets).map(|k| 2 * k).collect();
        Self::from_sorted_csr(vertex_weights, net_ptr, net_pins, vec![1; n_nets])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    fn directed_chain() -> Csr {
        // 0 → 1 → 2, plus self loops (as Â would have).
        Csr::from_coo(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (0, 1, 0.5),
                (1, 2, 0.5),
            ],
        )
    }

    /// The graph neighbors of `v`: the other pin of each of its nets.
    fn neighbors(h: &Hypergraph, v: u32) -> Vec<u32> {
        let mut out: Vec<u32> = h
            .nets_of(v as usize)
            .iter()
            .map(|&net| {
                let pins = h.pins(net as usize);
                assert_eq!(pins.len(), 2, "every net is an edge");
                if pins[0] == v {
                    pins[1]
                } else {
                    pins[0]
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn model_symmetrizes_directed_edges() {
        let g = Hypergraph::graph_model(&directed_chain());
        assert_eq!(neighbors(&g, 1), [0, 2]);
        assert_eq!(neighbors(&g, 0), [1]);
    }

    #[test]
    fn self_loops_excluded_from_edges() {
        let g = Hypergraph::graph_model(&directed_chain());
        for v in 0..3u32 {
            assert!(!neighbors(&g, v).contains(&v));
        }
        for net in 0..g.n_nets() {
            assert_eq!(g.pins(net).len(), 2);
        }
    }

    #[test]
    fn vertex_weight_counts_diagonal() {
        let g = Hypergraph::graph_model(&directed_chain());
        // Row 0 has nonzeros at columns {0, 1}: weight 2.
        assert_eq!(g.vertex_weights()[0], 2);
        assert_eq!(g.vertex_weights()[2], 1);
    }

    #[test]
    fn edge_cut_counts_each_edge_once() {
        let g = Hypergraph::graph_model(&directed_chain());
        let part = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(g.connectivity_cut(&part), 1);
        let part2 = Partition::new(vec![0, 1, 0], 2);
        assert_eq!(g.connectivity_cut(&part2), 2);
    }

    #[test]
    fn reciprocal_directed_edges_collapse_to_one_undirected() {
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let g = Hypergraph::graph_model(&a);
        assert_eq!(g.n_nets(), 1);
        assert_eq!(g.nets_of(0).len(), 1);
        assert_eq!(g.net_cost(0), 1);
        let part = Partition::new(vec![0, 1], 2);
        assert_eq!(g.connectivity_cut(&part), 1);
    }

    /// The merge-built nets are the upper triangle of the symmetrized
    /// off-diagonal pattern, in row-major order.
    #[test]
    fn nets_match_symmetrized_pattern() {
        pargcn_util::qc::check(|rng| {
            use pargcn_util::rng::Rng;
            let n = rng.gen_range(1..30usize);
            let coo: Vec<(u32, u32, f32)> = (0..rng.gen_range(0..4 * n))
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), 1.0))
                .collect();
            let a = Csr::from_coo(n, n, coo);
            let sym = Csr::from_coo(
                n,
                n,
                a.iter()
                    .flat_map(|(r, c, _)| [(r, c, 1.0), (c, r, 1.0)])
                    .collect(),
            );
            let expected: Vec<[u32; 2]> = sym
                .iter()
                .filter(|&(r, c, _)| r < c)
                .map(|(r, c, _)| [r, c])
                .collect();
            let g = Hypergraph::graph_model(&a);
            let got: Vec<[u32; 2]> = (0..g.n_nets())
                .map(|net| [g.pins(net)[0], g.pins(net)[1]])
                .collect();
            assert_eq!(got, expected);
            assert!((0..g.n_nets()).all(|net| g.net_cost(net) == 1));
        });
    }
}
