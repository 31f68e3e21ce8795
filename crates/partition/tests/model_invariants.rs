//! Randomized tests for the paper's central modeling claims (§4.3, Fig. 2):
//!
//! 1. the column-net hypergraph's connectivity−1 cut equals the *exact*
//!    per-SpMM communication volume under any partition, and
//! 2. the §4.3.1 undirected graph model's edge cut always *overestimates*
//!    (or equals) that volume — the deficiency the paper illustrates with
//!    Figure 2.
//!
//! Cases are generated by the seeded `pargcn_util::qc` runner; failures
//! print the case seed for replay via `PARGCN_QC_SEED=<seed>`.

use pargcn_matrix::{norm, Csr};
use pargcn_partition::{metrics, Hypergraph, Partition};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, StdRng};

/// Random square sparse adjacency with self loops (like Â).
fn adjacency(rng: &mut StdRng, n: usize) -> Csr {
    let extra = rng.gen_range(0..n * 4);
    let mut coo: Vec<(u32, u32, f32)> = (0..extra)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), 1.0))
        .collect();
    coo.extend((0..n as u32).map(|i| (i, i, 1.0)));
    let merged = Csr::from_coo(n, n, coo);
    // Clamp duplicate-summed values back to the pattern.
    Csr::from_parts(
        n,
        n,
        merged.indptr().to_vec(),
        merged.indices().to_vec(),
        vec![1.0; merged.nnz()],
    )
}

fn arbitrary_partition(rng: &mut StdRng, n: usize, p: usize) -> Partition {
    Partition::new((0..n).map(|_| rng.gen_range(0..p as u32)).collect(), p)
}

/// §4.3.2: connectivity−1 cut == exact total send volume, always.
#[test]
fn hypergraph_cut_equals_exact_volume() {
    qc::check(|rng| {
        let a = adjacency(rng, 24);
        let part = arbitrary_partition(rng, 24, 5);
        let h = Hypergraph::column_net_model(&a);
        let stats = metrics::spmm_comm_stats(&a, &part);
        assert_eq!(h.connectivity_cut(&part), stats.total_rows);
    });
}

/// §4.3.1 / Figure 2: graph-model cut ≥ true volume, always.
#[test]
fn graph_cut_overestimates_volume() {
    qc::check(|rng| {
        let a = adjacency(rng, 24);
        let part = arbitrary_partition(rng, 24, 5);
        let g = Hypergraph::graph_model(&a);
        let stats = metrics::spmm_comm_stats(&a, &part);
        // Each cut undirected edge claims 2 row transfers (one each way);
        // the graph model's estimate of the volume is 2 × edge cut, and
        // its 2-pin nets' connectivity−1 cut is that edge cut.
        assert!(
            2 * g.connectivity_cut(&part) >= stats.total_rows,
            "graph model estimate {} below true volume {}",
            2 * g.connectivity_cut(&part),
            stats.total_rows
        );
    });
}

/// Per-rank sent rows sum to the total and respect the λ−1 bound.
#[test]
fn per_rank_volumes_consistent() {
    qc::check(|rng| {
        let a = adjacency(rng, 20);
        let part = arbitrary_partition(rng, 20, 4);
        let stats = metrics::spmm_comm_stats(&a, &part);
        assert_eq!(stats.sent_rows.iter().sum::<u64>(), stats.total_rows);
        assert_eq!(
            stats.sent_messages.iter().sum::<u64>(),
            stats.total_messages
        );
        // No rank sends a row to more than p−1 others, so volume ≤ n(p−1).
        assert!(stats.total_rows <= 20 * 3);
        for &m in &stats.sent_messages {
            assert!(m <= 3);
        }
    });
}

/// The normalized adjacency of an arbitrary graph keeps the claim intact
/// (self loops guarantee the owner is in every net's connectivity set).
#[test]
fn claim_holds_on_normalized_adjacency() {
    qc::check(|rng| {
        let edges = qc::sized_vec_of(rng, 1..60, |r| {
            (r.gen_range(0u32..16), r.gen_range(0u32..16))
        });
        let part = arbitrary_partition(rng, 16, 3);
        let coo: Vec<(u32, u32, f32)> = edges
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u, v, 1.0))
            .collect();
        let raw = Csr::from_coo(16, 16, coo);
        let a = norm::normalize_adjacency(&raw);
        let h = Hypergraph::column_net_model(&a);
        assert_eq!(
            h.connectivity_cut(&part),
            metrics::spmm_comm_stats(&a, &part).total_rows
        );
    });
}

/// The exact Figure 2 discrepancy: a vertex with two neighbors co-located on
/// another processor is double-counted by the graph model but not by the
/// hypergraph model.
#[test]
fn figure2_overcount_example() {
    // v4 (0-indexed: 3) connects to v2, v3 (parts P2) and v5, v6 (part P3);
    // all edges undirected. Plus self loops.
    let mut coo = Vec::new();
    for i in 0..6u32 {
        coo.push((i, i, 1.0));
    }
    for &(u, v) in &[(3u32, 1u32), (3, 2), (3, 4), (3, 5)] {
        coo.push((u, v, 1.0));
        coo.push((v, u, 1.0));
    }
    let a = Csr::from_coo(6, 6, coo);
    let part = Partition::new(vec![0, 1, 1, 1, 2, 2], 3);

    let h = Hypergraph::column_net_model(&a);
    let stats = metrics::spmm_comm_stats(&a, &part);
    let g = Hypergraph::graph_model(&a);

    // True volume for v3's row: sent to parts {2} once → net n3 contributes
    // λ−1 = 1... plus the reverse rows v4,v5 each sent to part 1.
    assert_eq!(h.connectivity_cut(&part), stats.total_rows);
    // Graph model: cut edges (3,4) and (3,5) each claim two-way transfers →
    // estimate 2·cut = 4 transfers between parts 1 and 2, but the true
    // volume there is 3 (row 3 once to part 2, rows 4 and 5 once to part 1).
    let cross_12_estimate = 2 * 2; // two cut edges between parts 1 and 2
    let true_cross_12 = 3;
    assert_eq!(stats.total_rows, true_cross_12);
    assert!(cross_12_estimate > true_cross_12);
    assert!(2 * g.connectivity_cut(&part) > stats.total_rows);
}
