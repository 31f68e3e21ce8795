//! Quality-regression tests for the multilevel partitioners: known-optimal
//! structures must be found, quality must beat random by set margins per
//! graph family, and the ablation options must behave monotonically.

use pargcn_graph::gen::{community, er, grid, rmat};
use pargcn_partition::{hmultilevel, metrics, partition_rows, random, Hypergraph, Method};

/// A 2×k grid of two well-separated clusters must be cut at the bridge.
#[test]
fn hp_finds_the_bottleneck_cut() {
    // Two 12-cliques joined by one edge.
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * 12;
        for i in 0..12u32 {
            for j in (i + 1)..12u32 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((5, 17));
    let g = pargcn_graph::Graph::from_edges(24, false, &edges);
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    let part = hmultilevel::partition(&h, 2, 0.1, 1);
    // Perfect split cuts only the two columns on the bridge: volume 2.
    let vol = metrics::spmm_comm_stats(&a, &part).total_rows;
    assert!(vol <= 4, "bottleneck not found: volume {vol}");
}

#[test]
fn gp_finds_the_bottleneck_cut() {
    let mut edges = Vec::new();
    for c in 0..2u32 {
        let base = c * 12;
        for i in 0..12u32 {
            for j in (i + 1)..12u32 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((5, 17));
    let g = pargcn_graph::Graph::from_edges(24, false, &edges);
    let a = g.normalized_adjacency();
    let model = Hypergraph::graph_model(&a);
    let part = partition_rows(&g, &a, Method::Gp, 2, 0.1, 1);
    assert_eq!(
        model.connectivity_cut(&part),
        1,
        "the single bridge edge is the optimum"
    );
}

/// Family-specific quality bars relative to random partitioning at p=16
/// (loose enough to be robust to seeds, tight enough to catch regressions).
#[test]
fn quality_bars_by_family() {
    let cases: Vec<(&str, pargcn_graph::Graph, f64)> = vec![
        ("road", grid::road_network(3000, 1), 0.25),
        (
            "copurchase",
            community::copurchase(3000, 6.0, false, 1),
            0.55,
        ),
        ("coauthor", community::coauthor(1200, 24.0, 1), 0.75),
    ];
    for (name, g, bar) in cases {
        let a = g.normalized_adjacency();
        let h = Hypergraph::column_net_model(&a);
        let hp = hmultilevel::partition(&h, 16, 0.05, 2);
        let rp = random::partition(g.n(), 16, 2);
        let v_hp = metrics::spmm_comm_stats(&a, &hp).total_rows as f64;
        let v_rp = metrics::spmm_comm_stats(&a, &rp).total_rows as f64;
        assert!(
            v_hp < bar * v_rp,
            "{name}: HP/RP = {:.3} exceeds quality bar {bar}",
            v_hp / v_rp
        );
    }
}

/// On a structureless ER graph no partitioner can beat random by much —
/// a sanity check that the quality bars above measure real structure.
#[test]
fn er_graphs_offer_little_structure() {
    let g = er::generate(1500, 12_000, false, 3);
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    let hp = hmultilevel::partition(&h, 16, 0.05, 1);
    let rp = random::partition(g.n(), 16, 1);
    let v_hp = metrics::spmm_comm_stats(&a, &hp).total_rows as f64;
    let v_rp = metrics::spmm_comm_stats(&a, &rp).total_rows as f64;
    assert!(
        v_hp > 0.5 * v_rp,
        "suspicious: HP 'improved' an ER graph by {:.2}x — metric bug?",
        v_rp / v_hp
    );
}

/// Ablations behave monotonically: the full pipeline is at least as good as
/// no-FM and no-coarsening variants.
#[test]
fn pipeline_components_contribute() {
    let g = community::copurchase(2000, 6.0, false, 7);
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    let full = hmultilevel::partition_with(&h, 8, 0.05, 1, hmultilevel::Options::default());
    let no_fm = hmultilevel::partition_with(
        &h,
        8,
        0.05,
        1,
        hmultilevel::Options {
            fm_passes_coarsest: 0,
            fm_passes_uncoarsen: 0,
            ..Default::default()
        },
    );
    let cut_full = h.connectivity_cut(&full);
    let cut_no_fm = h.connectivity_cut(&no_fm);
    assert!(
        cut_full as f64 <= cut_no_fm as f64 * 1.02,
        "FM must not hurt: full {cut_full} vs no-FM {cut_no_fm}"
    );
}

/// FM still refines skewed (RMAT) graphs, hub nets and all, without stalling;
/// bounded runtime is covered by the test's own timeout discipline.
#[test]
fn skewed_graph_partitioning_terminates_with_quality() {
    let g = rmat::generate_sized(4000, 10.0, false, 5);
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    let start = std::time::Instant::now();
    let hp = hmultilevel::partition(&h, 32, 0.05, 3);
    assert!(
        start.elapsed().as_secs() < 60,
        "skewed-graph partitioning too slow: {:?}",
        start.elapsed()
    );
    let rp = random::partition(g.n(), 32, 3);
    let v_hp = metrics::spmm_comm_stats(&a, &hp).total_rows;
    let v_rp = metrics::spmm_comm_stats(&a, &rp).total_rows;
    assert!(
        v_hp <= v_rp,
        "HP must not lose to RP even on RMAT: {v_hp} vs {v_rp}"
    );
}

/// Balance holds across a spread of part counts on a weighted instance.
#[test]
fn balance_across_part_counts() {
    let g = grid::road_network(2500, 9);
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    for p in [2usize, 3, 8, 17, 64] {
        let part = hmultilevel::partition(&h, p, 0.05, 4);
        let imb = part.imbalance(h.vertex_weights());
        // ε compounds across ~log2(p) bisection levels.
        let levels = (p as f64).log2().ceil();
        let allowed = (1.05f64).powf(levels) - 1.0 + 0.05;
        assert!(imb < allowed, "p={p}: imbalance {imb:.3} over {allowed:.3}");
    }
}
