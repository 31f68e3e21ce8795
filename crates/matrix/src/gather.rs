//! Row selection and accumulation — the paper's `Xₘₙ ⊗ H` operation.
//!
//! Algorithm 1 line 4 forms the message payload `H_{mn} = Xₘₙ ⊗ Hₘ`,
//! where `Xₘₙ` is a diagonal 0/1 selector matrix and `⊗` is GraphBLAS's
//! `GxB_PLUS_SECOND` semiring (multiplication replaced by "take the second
//! operand", so a `1` on the diagonal copies the corresponding `H` row).
//! With the selector stored as the index list of its nonzero diagonal
//! entries, the whole operation is a contiguous row gather.

use crate::Dense;

/// Gathers rows `idx` of `h` into a new `idx.len() × h.cols()` matrix —
/// exactly `Xₘₙ ⊗ H` with `idx = {i : Xₘₙ(i,i) = 1}`.
pub fn gather_rows(h: &Dense, idx: &[u32]) -> Dense {
    let mut out = Dense::zeros(idx.len(), h.cols());
    for (k, &i) in idx.iter().enumerate() {
        out.row_mut(k).copy_from_slice(h.row(i as usize));
    }
    out
}

/// Gathers rows `idx` of `h` into a caller-provided flat buffer (resized to
/// fit). Used on the send path so the message payload is serialized without
/// an intermediate `Dense`.
pub fn gather_rows_into(h: &Dense, idx: &[u32], buf: &mut Vec<f32>) {
    let d = h.cols();
    buf.clear();
    buf.reserve(idx.len() * d);
    for &i in idx {
        buf.extend_from_slice(h.row(i as usize));
    }
}

/// Scatters `src` row `k` into `dst` row `idx[k]`, overwriting.
///
/// Inverse of [`gather_rows`]; used when a receiver places incoming remote
/// rows into a global-width working buffer.
pub fn scatter_rows(src: &Dense, idx: &[u32], dst: &mut Dense) {
    assert_eq!(src.rows(), idx.len(), "scatter index length mismatch");
    assert_eq!(src.cols(), dst.cols(), "scatter width mismatch");
    for (k, &i) in idx.iter().enumerate() {
        dst.row_mut(i as usize).copy_from_slice(src.row(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_util::rng::SeedableRng;
    use pargcn_util::rng::StdRng;

    /// Reference implementation of `X ⊗ H` under `GxB_PLUS_SECOND`, with the
    /// selector materialized as a dense diagonal matrix: the result row `i`
    /// is `H(i,:)` when `X(i,i)=1`, compacted to the selected rows.
    fn semiring_reference(h: &Dense, idx: &[u32]) -> Dense {
        let mut out = Dense::zeros(idx.len(), h.cols());
        for (k, &i) in idx.iter().enumerate() {
            for j in 0..h.cols() {
                // plus_second: z = y (second operand), accumulated with +,
                // but each output row has exactly one contributing diagonal 1.
                out.set(k, j, h.get(i as usize, j));
            }
        }
        out
    }

    #[test]
    fn gather_matches_semiring_definition() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = Dense::random(8, 3, &mut rng);
        let idx = vec![1u32, 4, 7];
        assert!(gather_rows(&h, &idx).approx_eq(&semiring_reference(&h, &idx), 0.0));
    }

    #[test]
    fn gather_into_flat_buffer() {
        let h = Dense::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut buf = Vec::new();
        gather_rows_into(&h, &[2, 0], &mut buf);
        assert_eq!(buf, vec![5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn scatter_roundtrips_gather() {
        let mut rng = StdRng::seed_from_u64(12);
        let h = Dense::random(6, 4, &mut rng);
        let idx = vec![0u32, 3, 5];
        let g = gather_rows(&h, &idx);
        let mut dst = Dense::zeros(6, 4);
        scatter_rows(&g, &idx, &mut dst);
        for &i in &idx {
            assert_eq!(dst.row(i as usize), h.row(i as usize));
        }
        assert_eq!(dst.row(1), &[0.0; 4]);
    }

    #[test]
    fn empty_gather_is_empty() {
        let h = Dense::zeros(4, 3);
        let g = gather_rows(&h, &[]);
        assert_eq!(g.rows(), 0);
        assert_eq!(g.cols(), 3);
    }
}
