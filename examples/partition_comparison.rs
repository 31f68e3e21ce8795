//! Compares the four partitioning models (RP, GP, HP, SHP) on one graph:
//! exact point-to-point volume, message counts, model cut values, and the
//! graph model's systematic over-estimate (the paper's Figure 2 argument).
//!
//! ```text
//! cargo run --release -p pargcn-integration --example partition_comparison
//! ```

use pargcn_graph::Dataset;
use pargcn_partition::stochastic::Sampler;
use pargcn_partition::{metrics, partition_rows, Hypergraph, Method, DEFAULT_EPSILON};

fn main() {
    let p = 16;
    let data = Dataset::ComAmazon.generate_default(3);
    let a = data.graph.normalized_adjacency();
    println!(
        "{} at 1/{} scale: {} vertices, {} adjacency nonzeros, {} parts\n",
        Dataset::ComAmazon.name(),
        Dataset::ComAmazon.default_scale().0,
        data.graph.n(),
        a.nnz(),
        p
    );

    let hypergraph = Hypergraph::column_net_model(&a);
    let graph_model = Hypergraph::graph_model(&a);

    println!(
        "{:<6} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "Method", "true volume", "messages", "imbalance", "hgraph cut", "2x graph cut"
    );
    for method in [
        Method::Rp,
        Method::Gp,
        Method::Hp,
        Method::Shp {
            sampler: Sampler::UniformVertex {
                batch_size: data.graph.n() / 16,
            },
            batches: 8,
        },
    ] {
        let part = partition_rows(&data.graph, &a, method, p, DEFAULT_EPSILON, 1);
        let stats = metrics::spmm_comm_stats(&a, &part);
        let hcut = hypergraph.connectivity_cut(&part);
        let gcut_estimate = 2 * graph_model.connectivity_cut(&part);
        println!(
            "{:<6} {:>12} {:>10} {:>12.4} {:>14} {:>12}",
            method.name(),
            stats.total_rows,
            stats.total_messages,
            part.imbalance(hypergraph.vertex_weights()),
            hcut,
            gcut_estimate
        );
        // §4.3.2: the hypergraph cut *is* the volume; §4.3.1: the graph
        // model's estimate is an upper bound.
        assert_eq!(hcut, stats.total_rows);
        assert!(gcut_estimate >= stats.total_rows);
    }
    println!(
        "\nThe hypergraph cut always equals the true volume; the graph model\n\
         over-estimates it (reciprocal edges + co-located neighbors),\n\
         which is why HP optimizes the right objective and GP does not."
    );
}
