//! Exact communication metrics of the parallel SpMM under a row partition —
//! the quantities Table 2 of the paper reports (per-processor send volume
//! and message counts, average and maximum).
//!
//! For each column `j` of the partitioned matrix, the owner of row `j`
//! sends row `H(j,:)` once to every *other* part that has a nonzero in
//! column `j` (Eq. 8–9 of the paper). These counts are ground truth: the
//! distributed runtime's instrumented counters must agree with them exactly
//! (tested in `pargcn-core`).

use crate::Partition;
use pargcn_matrix::Csr;

/// Per-processor communication statistics for one parallel SpMM sweep
/// (feedforward direction; backpropagation is identical by symmetry of the
/// comm plan).
#[derive(Clone, Debug, PartialEq)]
pub struct CommStats {
    /// Rows sent by each processor (volume in units of matrix rows).
    pub sent_rows: Vec<u64>,
    /// Messages sent by each processor (distinct destination count).
    pub sent_messages: Vec<u64>,
    /// Total volume over all processors.
    pub total_rows: u64,
    /// Total messages over all processors.
    pub total_messages: u64,
}

impl CommStats {
    pub fn avg_rows(&self) -> f64 {
        self.total_rows as f64 / self.sent_rows.len() as f64
    }

    pub fn max_rows(&self) -> u64 {
        self.sent_rows.iter().copied().max().unwrap_or(0)
    }

    pub fn avg_messages(&self) -> f64 {
        self.total_messages as f64 / self.sent_messages.len() as f64
    }

    pub fn max_messages(&self) -> u64 {
        self.sent_messages.iter().copied().max().unwrap_or(0)
    }
}

/// Computes the exact per-processor send volume and message counts of the
/// point-to-point SpMM `A · H` under the row partition `part`.
pub fn spmm_comm_stats(a: &Csr, part: &Partition) -> CommStats {
    assert_eq!(a.n_rows(), a.n_cols(), "needs a square matrix");
    assert_eq!(a.n_rows(), part.n(), "partition size mismatch");
    let p = part.p();
    let at = a.transpose();

    let mut sent_rows = vec![0u64; p];
    // pair_flags[m * p + n] = true when m sends at least one row to n.
    let mut pair_flags = vec![false; p * p];
    let mut mark = vec![u32::MAX; p];
    for j in 0..a.n_rows() {
        let owner = part.part_of(j) as usize;
        // Parts needing column j = parts owning any row with A(row, j) ≠ 0.
        for &row in at.row_indices(j) {
            let pr = part.part_of(row as usize) as usize;
            if pr != owner && mark[pr] != j as u32 {
                mark[pr] = j as u32;
                sent_rows[owner] += 1;
                pair_flags[owner * p + pr] = true;
            }
        }
    }
    let mut sent_messages = vec![0u64; p];
    for m in 0..p {
        sent_messages[m] = pair_flags[m * p..(m + 1) * p]
            .iter()
            .filter(|&&f| f)
            .count() as u64;
    }
    let total_rows = sent_rows.iter().sum();
    let total_messages = sent_messages.iter().sum();
    CommStats {
        sent_rows,
        sent_messages,
        total_rows,
        total_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::Hypergraph;

    fn sample_matrix() -> Csr {
        // 4 vertices, self loops + a few cross edges.
        Csr::from_coo(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (1, 0, 1.0), // row 1 needs col 0
                (2, 0, 1.0), // row 2 needs col 0
                (3, 2, 1.0), // row 3 needs col 2
            ],
        )
    }

    #[test]
    fn volume_counts_each_remote_part_once() {
        let a = sample_matrix();
        // Parts {0}, {1,2}, {3}.
        let part = Partition::new(vec![0, 1, 1, 2], 3);
        let stats = spmm_comm_stats(&a, &part);
        // Col 0 needed by rows 1,2 (both part 1): one send from part 0.
        // Col 2 needed by row 3 (part 2): one send from part 1.
        assert_eq!(stats.sent_rows, vec![1, 1, 0]);
        assert_eq!(stats.sent_messages, vec![1, 1, 0]);
        assert_eq!(stats.total_rows, 2);
    }

    #[test]
    fn trivial_partition_has_no_comm() {
        let a = sample_matrix();
        let stats = spmm_comm_stats(&a, &Partition::trivial(4));
        assert_eq!(stats.total_rows, 0);
        assert_eq!(stats.total_messages, 0);
    }

    #[test]
    fn volume_equals_hypergraph_connectivity_cut() {
        // The §4.3.2 claim, on a fixed example.
        let a = sample_matrix();
        let part = Partition::new(vec![0, 1, 2, 0], 3);
        let h = Hypergraph::column_net_model(&a);
        assert_eq!(
            spmm_comm_stats(&a, &part).total_rows,
            h.connectivity_cut(&part)
        );
    }

    #[test]
    fn message_count_bounded_by_p_minus_one() {
        let a = sample_matrix();
        let part = Partition::new(vec![0, 1, 2, 3], 4);
        let stats = spmm_comm_stats(&a, &part);
        assert!(stats.sent_messages.iter().all(|&m| m <= 3));
    }
}
