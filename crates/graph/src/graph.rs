//! The [`Graph`] type: a directed or undirected graph stored as a CSR
//! adjacency pattern, with the degree statistics the experiments report.

use pargcn_matrix::{norm, Csr};

/// A graph with `n` vertices. Undirected graphs store both `(u,v)` and
/// `(v,u)` entries, matching how the paper counts edges in its Table 1
/// (e.g. Cora: 5278 undirected edges listed as 10556).
#[derive(Clone, Debug)]
pub struct Graph {
    adjacency: Csr,
    directed: bool,
}

/// Degree distribution summary, as printed by the `table1_datasets` harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub avg: f64,
    /// Ratio max/avg: a crude skew measure distinguishing road networks
    /// (≈1–3) from power-law social graphs (≫10).
    pub skew: f64,
}

impl Graph {
    /// Builds a graph from an edge list. Self loops and duplicate edges are
    /// dropped. For undirected graphs each input edge is mirrored.
    pub fn from_edges(n: usize, directed: bool, edges: &[(u32, u32)]) -> Self {
        let mut coo = Vec::with_capacity(if directed {
            edges.len()
        } else {
            edges.len() * 2
        });
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            coo.push((u, v, 1.0));
            if !directed {
                coo.push((v, u, 1.0));
            }
        }
        // Deduplicate via pattern-only COO: from_coo sums duplicates, so
        // clamp values back to 1.0 afterwards.
        let mut adjacency = Csr::from_coo(n, n, coo);
        let ones = vec![1.0f32; adjacency.nnz()];
        adjacency = Csr::from_parts(
            n,
            n,
            adjacency.indptr().to_vec(),
            adjacency.indices().to_vec(),
            ones,
        );
        Self {
            adjacency,
            directed,
        }
    }

    /// Wraps an existing CSR adjacency (values are edge weights).
    pub fn from_adjacency(adjacency: Csr, directed: bool) -> Self {
        assert_eq!(
            adjacency.n_rows(),
            adjacency.n_cols(),
            "adjacency must be square"
        );
        Self {
            adjacency,
            directed,
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.adjacency.n_rows()
    }

    /// Number of stored adjacency entries. For an undirected graph this is
    /// twice the number of distinct edges — the convention of Table 1.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz()
    }

    #[inline]
    pub fn directed(&self) -> bool {
        self.directed
    }

    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adjacency
    }

    /// Out-neighbors of vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        self.adjacency.row_indices(u)
    }

    /// The normalized adjacency `Â = D^{-1/2}(A+I)D^{-1/2}` used by GCN
    /// convolution (paper Eq. 1).
    pub fn normalized_adjacency(&self) -> Csr {
        norm::normalize_adjacency(&self.adjacency)
    }

    /// Out-degree statistics.
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.n();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                avg: 0.0,
                skew: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            let d = self.adjacency.row_nnz(i);
            min = min.min(d);
            max = max.max(d);
            total += d;
        }
        let avg = total as f64 / n as f64;
        DegreeStats {
            min,
            max,
            avg,
            skew: if avg > 0.0 { max as f64 / avg } else { 0.0 },
        }
    }

    /// A symmetrized copy (union of the edge set with its reverse); identity
    /// for undirected graphs. The §4.3.1 graph partitioning model requires an
    /// undirected input, exactly as METIS does.
    pub fn symmetrized(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut coo: Vec<(u32, u32, f32)> = Vec::with_capacity(self.adjacency.nnz() * 2);
        for (r, c, _) in self.adjacency.iter() {
            coo.push((r, c, 1.0));
            coo.push((c, r, 1.0));
        }
        let merged = Csr::from_coo(self.n(), self.n(), coo);
        let ones = vec![1.0f32; merged.nnz()];
        let adjacency = Csr::from_parts(
            self.n(),
            self.n(),
            merged.indptr().to_vec(),
            merged.indices().to_vec(),
            ones,
        );
        Graph {
            adjacency,
            directed: false,
        }
    }

    /// The vertex-induced subgraph on `vertices` (kept in the given order),
    /// with vertex ids renumbered to `0..vertices.len()`. Used by mini-batch
    /// sampling (§4.3.3): each mini-batch is a subgraph `G' ⊂ G`.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> Graph {
        self.induced_subgraph_into(vertices, &mut SubgraphScratch::new())
    }

    /// [`Graph::induced_subgraph`] with caller-owned scratch: the global
    /// vertex map lives in `scratch` and is reused across calls, so a
    /// steady stream of bounded-size batches builds its subgraphs without
    /// heap allocation beyond the returned `Graph`.
    ///
    /// Rows are emitted straight into CSR. A row's mapped columns ascend
    /// whenever `vertices` does, so only a row of an unsorted list that
    /// comes out of order is sorted. `vertices` must be distinct.
    pub fn induced_subgraph_into(&self, vertices: &[u32], scratch: &mut SubgraphScratch) -> Graph {
        let epoch = scratch.begin(self.n());
        for (new, &old) in vertices.iter().enumerate() {
            scratch.stamp[old as usize] = epoch;
            scratch.val[old as usize] = new as u32;
        }
        let mut indptr = Vec::with_capacity(vertices.len() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        for &old in vertices {
            let row_start = indices.len();
            for &nbr in self.neighbors(old as usize) {
                if scratch.stamp[nbr as usize] == epoch {
                    indices.push(scratch.val[nbr as usize]);
                }
            }
            let row = &mut indices[row_start..];
            if row.windows(2).any(|w| w[0] > w[1]) {
                row.sort_unstable();
            }
            indptr.push(indices.len());
        }
        let k = vertices.len();
        let values = vec![1.0; indices.len()];
        Graph {
            adjacency: Csr::from_parts(k, k, indptr, indices, values),
            directed: self.directed,
        }
    }
}

/// Reusable scratch for [`Graph::induced_subgraph_into`]: an epoch-stamped
/// global-vertex → batch-local map (`val[v]` is live iff `stamp[v]` equals
/// the current epoch, so "clearing" between batches is a counter bump).
/// Grow-once across calls.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    stamp: Vec<u32>,
    val: Vec<u32>,
    epoch: u32,
}

impl SubgraphScratch {
    pub fn new() -> SubgraphScratch {
        SubgraphScratch::default()
    }

    /// Sizes the map for an `n`-vertex host graph and opens a new epoch.
    fn begin(&mut self, n: usize) -> u32 {
        if self.stamp.len() < n {
            // New tail entries carry stamp 0; epochs start at 1.
            self.stamp.resize(n, 0);
            self.val.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_edges_are_mirrored() {
        let g = Graph::from_edges(3, false, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn directed_edges_are_not_mirrored() {
        let g = Graph::from_edges(3, true, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.neighbors(1).contains(&2));
        assert!(!g.neighbors(1).contains(&0));
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = Graph::from_edges(3, true, &[(0, 0), (0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.adjacency().values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn degree_stats_on_star() {
        // Star with center 0 and 4 leaves, undirected.
        let g = Graph::from_edges(5, false, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = g.degree_stats();
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert!((s.avg - 8.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn symmetrized_contains_both_directions() {
        let g = Graph::from_edges(3, true, &[(0, 1), (1, 2)]);
        let s = g.symmetrized();
        assert!(!s.directed());
        assert_eq!(s.num_edges(), 4);
        assert!(s.neighbors(1).contains(&0));
    }

    #[test]
    fn symmetrize_does_not_double_reciprocal_edges() {
        let g = Graph::from_edges(2, true, &[(0, 1), (1, 0)]);
        let s = g.symmetrized();
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, false, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let sub = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.n(), 3);
        // Edge 1-2 survives as 0-1; 2-3 and 3-4 are cut since 3 is absent.
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.neighbors(0).contains(&1));
        assert!(sub.neighbors(2).is_empty());
    }

    /// The COO build the one-pass subgraph replaced.
    fn induced_reference(g: &Graph, vertices: &[u32]) -> Csr {
        let mut local = vec![u32::MAX; g.n()];
        for (new, &old) in vertices.iter().enumerate() {
            local[old as usize] = new as u32;
        }
        let mut coo = Vec::new();
        for (new, &old) in vertices.iter().enumerate() {
            for &nbr in g.neighbors(old as usize) {
                if local[nbr as usize] != u32::MAX {
                    coo.push((new as u32, local[nbr as usize], 1.0));
                }
            }
        }
        Csr::from_coo(vertices.len(), vertices.len(), coo)
    }

    #[test]
    fn induced_subgraph_into_matches_coo_reference() {
        use pargcn_util::qc;
        use pargcn_util::rng::Rng;
        // One scratch across the stream, as the mini-batch engine uses it.
        let scratch = std::cell::RefCell::new(SubgraphScratch::new());
        qc::run(64, |rng| {
            let n = rng.gen_range(1usize..60);
            let directed = rng.gen_bool(0.5);
            let g = crate::gen::er::generate(n, rng.gen_range(0..4 * n), directed, rng.gen());
            let sorted: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            for vertices in [&sorted, &shuffled] {
                let sub = g.induced_subgraph_into(vertices, &mut scratch.borrow_mut());
                assert_eq!(sub.directed(), directed);
                assert_eq!(sub.adjacency(), &induced_reference(&g, vertices));
            }
        });
    }
}
