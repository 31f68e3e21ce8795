//! Sparse-matrix partitioning models for distributed GCN training
//! (§4.3 of the paper).
//!
//! Four partitioning strategies decide the 1-D row distribution of the
//! adjacency/feature/gradient matrices:
//!
//! * **RP** — [`random`]: uniform random rows, the balance baseline;
//! * **GP** — [`hmultilevel`] over [`Hypergraph::graph_model`], the §4.3.1
//!   graph model as a hypergraph of 2-pin nets (the METIS/DistDGL
//!   approach, whose edge cut *overestimates* communication volume);
//! * **HP** — [`hmultilevel`] over [`Hypergraph::column_net_model`], the
//!   column-net model of §4.3.2, whose connectivity−1 cut equals the exact
//!   point-to-point communication volume;
//! * **SHP** — [`stochastic`]: the §4.3.3 stochastic hypergraph built from
//!   sampled mini-batches, minimizing *expected* mini-batch volume.
//!
//! GP and HP share one multilevel engine, so Table 2 compares the two
//! objectives rather than two partitioners.
//!
//! [`metrics`] computes the exact per-processor send volumes and message
//! counts of the parallel SpMM under any partition — the ground truth that
//! Table 2 reports and that the models above approximate or capture.
//!
//! ```
//! use pargcn_graph::gen::grid;
//! use pargcn_partition::{metrics, partition_rows, Hypergraph, Method};
//!
//! let g = grid::road_network(400, 1);
//! let a = g.normalized_adjacency();
//! let part = partition_rows(&g, &a, Method::Hp, 4, 0.05, 1);
//!
//! // The paper's §4.3.2 claim: the column-net hypergraph's connectivity−1
//! // cut equals the exact point-to-point communication volume.
//! let h = Hypergraph::column_net_model(&a);
//! let stats = metrics::spmm_comm_stats(&a, &part);
//! assert_eq!(h.connectivity_cut(&part), stats.total_rows);
//! ```

mod graph_model;
pub mod hmultilevel;
pub mod hypergraph;
pub mod metrics;
pub mod partition;
pub mod random;
pub mod stochastic;

pub use hypergraph::Hypergraph;
pub use partition::Partition;

use pargcn_graph::Graph;
use pargcn_matrix::Csr;

/// Partitioning method selector, mirroring the paper's abbreviations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Random partitioning.
    Rp,
    /// Graph partitioning: the §4.3.1 edge-cut model (METIS-style),
    /// partitioned by the same engine as HP.
    Gp,
    /// Hypergraph partitioning (PaToH-style over the §4.3.2 column-net model).
    Hp,
    /// Stochastic hypergraph partitioning (§4.3.3) with the given sampler
    /// and number of sampled batches.
    Shp {
        sampler: stochastic::Sampler,
        batches: usize,
    },
}

impl Method {
    pub fn name(&self) -> &'static str {
        match self {
            Method::Rp => "RP",
            Method::Gp => "GP",
            Method::Hp => "HP",
            Method::Shp { .. } => "SHP",
        }
    }
}

/// Default imbalance ratio used throughout the paper's experiments
/// ("we set the maximum imbalance ratio as ε = 0.01", §5).
pub const DEFAULT_EPSILON: f64 = 0.01;

/// Partitions the rows of the normalized adjacency `a` of `graph` into `p`
/// parts with the selected method.
///
/// `a` must be the matrix the training run will actually use (typically
/// `graph.normalized_adjacency()`); the GP/HP models derive vertex weights
/// and nets from its sparsity pattern.
pub fn partition_rows(
    graph: &Graph,
    a: &Csr,
    method: Method,
    p: usize,
    epsilon: f64,
    seed: u64,
) -> Partition {
    assert_eq!(a.n_rows(), graph.n(), "matrix/graph size mismatch");
    match method {
        Method::Rp => random::partition(a.n_rows(), p, seed),
        Method::Gp => hmultilevel::partition(&Hypergraph::graph_model(a), p, epsilon, seed),
        Method::Hp => hmultilevel::partition(&Hypergraph::column_net_model(a), p, epsilon, seed),
        Method::Shp { sampler, batches } => {
            stochastic::partition(graph, sampler, batches, p, epsilon, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::grid;

    #[test]
    fn all_methods_produce_valid_partitions() {
        let g = grid::road_network(400, 1);
        let a = g.normalized_adjacency();
        for method in [
            Method::Rp,
            Method::Gp,
            Method::Hp,
            Method::Shp {
                sampler: stochastic::Sampler::UniformVertex { batch_size: 80 },
                batches: 3,
            },
        ] {
            let part = partition_rows(&g, &a, method, 4, 0.05, 2);
            assert_eq!(part.n(), 400, "{}", method.name());
            assert_eq!(part.p(), 4, "{}", method.name());
            assert!(part.all_parts_nonempty(), "{}", method.name());
        }
    }

    #[test]
    fn hp_volume_at_most_gp_volume_on_structured_graph() {
        // The paper's Table 2 trend: HP ≤ GP in total volume (not a theorem
        // for every instance, but should hold on a locality-rich road grid).
        let g = grid::road_network(900, 3);
        let a = g.normalized_adjacency();
        let hp = partition_rows(&g, &a, Method::Hp, 8, 0.05, 4);
        let gp = partition_rows(&g, &a, Method::Gp, 8, 0.05, 4);
        let rp = partition_rows(&g, &a, Method::Rp, 8, 0.05, 4);
        let v_hp = metrics::spmm_comm_stats(&a, &hp).total_rows;
        let v_gp = metrics::spmm_comm_stats(&a, &gp).total_rows;
        let v_rp = metrics::spmm_comm_stats(&a, &rp).total_rows;
        assert!(v_hp < v_rp, "HP {v_hp} should beat RP {v_rp}");
        assert!(v_gp < v_rp, "GP {v_gp} should beat RP {v_rp}");
        assert!(
            (v_hp as f64) <= v_gp as f64 * 1.3,
            "HP {v_hp} should be comparable or better than GP {v_gp}"
        );
    }

    /// GP on a road grid: the partition and the graph model it cut.
    fn gp_on_grid(
        n: usize,
        seed: u64,
        p: usize,
        epsilon: f64,
        part_seed: u64,
    ) -> (Partition, Hypergraph) {
        let g = grid::road_network(n, seed);
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Gp, p, epsilon, part_seed);
        (part, Hypergraph::graph_model(&a))
    }

    #[test]
    fn gp_produces_valid_balanced_partition() {
        let (part, h) = gp_on_grid(900, 1, 4, 0.05, 7);
        assert_eq!(part.p(), 4);
        assert!(part.all_parts_nonempty());
        let imb = part.imbalance(h.vertex_weights());
        assert!(imb < 0.25, "imbalance {imb}");
    }

    #[test]
    fn gp_beats_random_on_a_grid() {
        let (part, h) = gp_on_grid(1600, 2, 8, 0.05, 3);
        let cut = h.connectivity_cut(&part);
        let rand_cut = h.connectivity_cut(&random::partition(part.n(), 8, 3));
        assert!(
            (cut as f64) < rand_cut as f64 * 0.4,
            "multilevel cut {cut} not well below random cut {rand_cut}"
        );
    }

    #[test]
    fn gp_single_part_is_trivial() {
        let (part, _) = gp_on_grid(100, 3, 1, 0.05, 0);
        assert!(part.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn gp_handles_non_power_of_two_parts() {
        let (part, h) = gp_on_grid(900, 4, 5, 0.1, 1);
        assert!(part.all_parts_nonempty());
        assert!(part.imbalance(h.vertex_weights()) < 0.5);
    }

    #[test]
    fn gp_deterministic_given_seed() {
        let (first, _) = gp_on_grid(400, 5, 4, 0.05, 9);
        let (second, _) = gp_on_grid(400, 5, 4, 0.05, 9);
        assert_eq!(first, second);
    }

    #[test]
    fn gp_disconnected_graph_is_fine() {
        // Two disjoint triangles plus isolated vertices.
        let g = Graph::from_edges(8, false, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Gp, 2, 0.1, 0);
        assert!(part.all_parts_nonempty());
    }
}
