//! The stochastic hypergraph model for mini-batch training (§4.3.3,
//! Algorithm 3).
//!
//! Mini-batch training convolves over random subgraphs, so the exact
//! full-batch communication volume is the wrong objective. Instead, `b`
//! mini-batches are sampled up front, each subgraph's column-net hypergraph
//! is built, and all of them are merged over the common vertex set. The
//! connectivity cut of the merged hypergraph is `b ×` the *expected*
//! per-batch communication volume, so partitioning it minimizes expected
//! mini-batch communication. Equation 14's Hoeffding bound
//! (`|N| ≥ (p−1)²/(2θ²) · ln(2/δ)`) tells how many nets make the estimate
//! `θ`-accurate with confidence `1−δ`.

use crate::hypergraph::Hypergraph;
use crate::Partition;
use pargcn_graph::Graph;
use pargcn_matrix::norm;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::SliceRandom;
use pargcn_util::rng::StdRng;

/// Mini-batch sampling strategies supported by the stochastic model. The
/// model itself is sampler-agnostic ("can be utilized for any mini-batch
/// sampling strategy", §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampler {
    /// Uniform vertex sampling: each batch is the induced subgraph of a
    /// uniform random vertex subset (the paper's Fig. 5 setup: "10K random
    /// mini-batches of size 20K vertices").
    UniformVertex { batch_size: usize },
    /// Seed-and-expand neighbor sampling: uniformly chosen seeds plus their
    /// out-neighbors up to `batch_size` vertices (GraphSAGE-style 1-hop).
    NeighborExpansion { seeds: usize, batch_size: usize },
}

/// Samples `count` mini-batches as vertex lists.
pub fn sample_batches(graph: &Graph, sampler: Sampler, count: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.n();
    let mut all: Vec<u32> = (0..n as u32).collect();
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let batch = match sampler {
            Sampler::UniformVertex { batch_size } => {
                let k = batch_size.min(n);
                all.shuffle(&mut rng);
                let mut b = all[..k].to_vec();
                b.sort_unstable();
                b
            }
            Sampler::NeighborExpansion { seeds, batch_size } => {
                let k = seeds.min(n);
                all.shuffle(&mut rng);
                let mut chosen: Vec<u32> = all[..k].to_vec();
                let mut in_batch = vec![false; n];
                for &s in &chosen {
                    in_batch[s as usize] = true;
                }
                'outer: for i in 0..k {
                    for &nbr in graph.neighbors(chosen[i] as usize) {
                        if !in_batch[nbr as usize] {
                            in_batch[nbr as usize] = true;
                            chosen.push(nbr);
                            if chosen.len() >= batch_size {
                                break 'outer;
                            }
                        }
                    }
                }
                chosen.sort_unstable();
                chosen
            }
        };
        batches.push(batch);
    }
    batches
}

/// Builds the merged stochastic hypergraph from sampled batches
/// (Algorithm 3 lines 2–3). Vertices are the *full* vertex set of `graph`
/// (weighted by their full-batch SpMM work, valid when every vertex is
/// equally likely to be sampled, §4.3.3); nets come from each batch
/// subgraph's column-net model, mapped back to global vertex ids.
fn build_stochastic_hypergraph(graph: &Graph, batches: &[Vec<u32>]) -> Hypergraph {
    let n = graph.n();
    let full = norm::normalize_adjacency(graph.adjacency());
    let vertex_weights: Vec<u64> = (0..n).map(|i| full.row_nnz(i) as u64).collect();

    let mut nets: Vec<Vec<u32>> = Vec::new();
    for batch in batches {
        let sub = graph.induced_subgraph(batch);
        let sub_norm = norm::normalize_adjacency(sub.adjacency());
        let at = sub_norm.transpose();
        for j in 0..sub.n() {
            let pins = at.row_indices(j);
            if pins.len() >= 2 {
                nets.push(pins.iter().map(|&local| batch[local as usize]).collect());
            }
        }
    }
    let costs = vec![1u64; nets.len()];
    Hypergraph::new(vertex_weights, nets, costs)
}

/// Equation 14: the minimum number of nets for the expected-connectivity
/// estimate to be within `theta` with probability at least `1 − delta`.
pub fn hoeffding_min_nets(p: usize, theta: f64, delta: f64) -> usize {
    assert!(p >= 2 && theta > 0.0 && delta > 0.0 && delta < 1.0);
    let pm1 = (p - 1) as f64;
    ((pm1 * pm1) / (2.0 * theta * theta) * (2.0 / delta).ln()).ceil() as usize
}

/// Algorithm 3 end to end: sample `batches` mini-batches, build the merged
/// stochastic hypergraph, and partition it with the multilevel hypergraph
/// partitioner.
pub fn partition(
    graph: &Graph,
    sampler: Sampler,
    batches: usize,
    p: usize,
    epsilon: f64,
    seed: u64,
) -> Partition {
    let sampled = sample_batches(graph, sampler, batches, seed);
    let h = build_stochastic_hypergraph(graph, &sampled);
    crate::hmultilevel::partition(&h, p, epsilon, seed ^ 0x5bd1_e995)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::community;

    #[test]
    fn uniform_batches_have_requested_size() {
        let g = community::copurchase(500, 6.0, false, 1);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 50 }, 4, 2);
        assert_eq!(batches.len(), 4);
        for b in &batches {
            assert_eq!(b.len(), 50);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "batch not sorted/unique");
        }
    }

    #[test]
    fn neighbor_expansion_contains_seeds_and_neighbors() {
        let g = community::copurchase(300, 6.0, false, 3);
        let batches = sample_batches(
            &g,
            Sampler::NeighborExpansion {
                seeds: 10,
                batch_size: 60,
            },
            2,
            4,
        );
        for b in &batches {
            assert!(b.len() >= 10 && b.len() <= 60);
        }
    }

    #[test]
    fn stochastic_hypergraph_covers_full_vertex_set() {
        let g = community::copurchase(200, 6.0, false, 5);
        let batches = sample_batches(&g, Sampler::UniformVertex { batch_size: 40 }, 3, 6);
        let h = build_stochastic_hypergraph(&g, &batches);
        assert_eq!(h.n_vertices(), 200);
        assert!(h.n_nets() > 0);
        // Pins are global vertex ids.
        for net in 0..h.n_nets() {
            assert!(h.pins(net).iter().all(|&p| (p as usize) < 200));
        }
    }

    #[test]
    fn hoeffding_bound_matches_formula() {
        // p=512, θ=0.1, δ=0.5: (511²/0.02)·ln 4 ≈ 18.1M nets.
        let n = hoeffding_min_nets(512, 0.1, 0.5);
        let expect = (511.0f64 * 511.0 / 0.02 * (4.0f64).ln()).ceil() as usize;
        assert_eq!(n, expect);
        // Tighter θ needs more nets; larger δ needs fewer.
        assert!(hoeffding_min_nets(512, 0.05, 0.5) > n);
        assert!(hoeffding_min_nets(512, 0.1, 0.9) < n);
    }

    #[test]
    fn end_to_end_partition_is_valid() {
        let g = community::copurchase(300, 6.0, false, 7);
        let part = partition(&g, Sampler::UniformVertex { batch_size: 60 }, 5, 4, 0.1, 8);
        assert_eq!(part.p(), 4);
        assert_eq!(part.n(), 300);
        assert!(part.all_parts_nonempty());
    }

    #[test]
    fn deterministic() {
        let g = community::copurchase(200, 6.0, false, 9);
        let a = partition(&g, Sampler::UniformVertex { batch_size: 40 }, 3, 2, 0.1, 10);
        let b = partition(&g, Sampler::UniformVertex { batch_size: 40 }, 3, 2, 0.1, 10);
        assert_eq!(a, b);
    }
}
