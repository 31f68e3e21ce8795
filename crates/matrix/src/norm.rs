//! GCN adjacency normalization: `Â = D^{-1/2} (A + I) D^{-1/2}`.
//!
//! `Ã = A + I` adds self loops, and `D(i,i) = Σⱼ Ã(i,j)` is the diagonal
//! degree matrix of `Ã` (paper §3.1). Because every diagonal entry of `Ã`
//! is nonzero, every vertex `vⱼ` appears in the pins of its own column net
//! `nⱼ` — a structural fact the hypergraph model's volume argument relies on
//! (§4.3.2: "at least one part in Λ(nⱼ) stores vertex vⱼ").

use crate::Csr;

/// Builds the normalized adjacency matrix `Â` from a raw (pattern) adjacency.
///
/// `a` holds the graph's edges as an `n × n` sparse matrix whose values are
/// edge weights (typically 1.0). Self loops in the input are coalesced with
/// the added identity. For a directed graph, pass the adjacency as-is; the
/// caller transposes `Â` for backpropagation when needed.
pub fn normalize_adjacency(a: &Csr) -> Csr {
    assert_eq!(a.n_rows(), a.n_cols(), "adjacency must be square");
    let n = a.n_rows();
    // Ã = A + I in one sweep over the sorted rows: the self loop merges in
    // at its column position, or adds to an existing diagonal entry. The
    // row-sum degree D(i,i) = Σⱼ Ã(i,j) accumulates in column order (for a
    // directed graph, the out-degree row sum).
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    let mut inv_sqrt = Vec::with_capacity(n);
    for i in 0..n {
        let mut deg = 0.0f64;
        let mut diag_done = false;
        for (&c, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
            let mut v = v;
            if !diag_done && c as usize >= i {
                diag_done = true;
                if c as usize == i {
                    v += 1.0;
                } else {
                    indices.push(i as u32);
                    values.push(1.0);
                    deg += 1.0;
                }
            }
            indices.push(c);
            values.push(v);
            deg += v as f64;
        }
        if !diag_done {
            indices.push(i as u32);
            values.push(1.0);
            deg += 1.0;
        }
        indptr.push(indices.len());
        inv_sqrt.push(if deg > 0.0 {
            (1.0 / deg.sqrt()) as f32
        } else {
            0.0
        });
    }
    for i in 0..n {
        for k in indptr[i]..indptr[i + 1] {
            values[k] = inv_sqrt[i] * values[k] * inv_sqrt[indices[k] as usize];
        }
    }
    Csr::from_parts(n, n, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_has_self_loops() {
        // Path graph 0-1-2 (undirected, symmetric entries).
        let a = Csr::from_coo(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        );
        let norm = normalize_adjacency(&a);
        for i in 0..3 {
            assert!(
                norm.row_indices(i).contains(&(i as u32)),
                "missing self loop at {i}"
            );
        }
    }

    #[test]
    fn symmetric_input_gives_symmetric_output() {
        let a = Csr::from_coo(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        );
        let norm = normalize_adjacency(&a);
        let d = norm.to_dense();
        assert!(d.approx_eq(&d.transpose(), 1e-6));
    }

    #[test]
    fn values_match_hand_computation() {
        // Single undirected edge 0-1. Ã has rows [1,1] so D = diag(2,2),
        // Â(0,0) = 1/2, Â(0,1) = 1/2.
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let norm = normalize_adjacency(&a).to_dense();
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!((norm.get(i, j) - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn existing_self_loops_coalesce() {
        let a = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let norm = normalize_adjacency(&a);
        // Row 0 of Ã is [2, 1]: degree 3.
        let d = norm.to_dense();
        assert!((d.get(0, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn isolated_vertex_gets_unit_self_loop() {
        let a = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        // Add an isolated third vertex.
        let a3 = Csr::from_coo(3, 3, a.iter().collect());
        let norm = normalize_adjacency(&a3).to_dense();
        assert!((norm.get(2, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_at_most_one_on_small_graph() {
        // Â of an undirected graph has eigenvalues in [-1, 1]; verify via
        // power iteration that ‖Âx‖ ≤ ‖x‖ approximately holds after many steps.
        let a = Csr::from_coo(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
        );
        let norm = normalize_adjacency(&a);
        let ctx = crate::ComputeCtx::serial();
        let mut x = crate::Dense::from_vec(4, 1, vec![1.0, -0.5, 0.25, 0.7]);
        for _ in 0..50 {
            let nx = ctx.spmm(&norm, &x);
            assert!(nx.frobenius_norm() <= x.frobenius_norm() * (1.0 + 1e-5));
            x = nx;
        }
    }
}
