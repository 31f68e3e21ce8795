//! Loss functions: masked softmax cross-entropy (node classification, the
//! paper's workload) and squared error (used by gradient-check tests).
//!
//! Both provide the loss value `J` and the gradient `∇_{H^L} J` that seeds
//! backpropagation (paper Eq. 2). Gradients are zero outside the training
//! mask, so only labelled vertices drive updates — the transductive GCN
//! setting of Kipf & Welling.

use pargcn_matrix::Dense;

/// Row-wise softmax with the max-subtraction trick for stability.
pub fn softmax_rows(h: &Dense) -> Dense {
    let mut out = Dense::zeros(h.rows(), h.cols());
    softmax_rows_into(h, &mut out);
    out
}

/// [`softmax_rows`] into a caller-owned buffer — the training loop keeps a
/// persistent `probs` matrix in its workspace so the per-epoch loss path
/// allocates nothing (the §9 no-alloc contract, extended in DESIGN.md §11).
///
/// `out` is row-resized in place (grow-once) and must have `h`'s width.
pub fn softmax_rows_into(h: &Dense, out: &mut Dense) {
    assert_eq!(h.cols(), out.cols(), "softmax_rows_into width mismatch");
    out.resize_rows(h.rows());
    for i in 0..h.rows() {
        let row = out.row_mut(i);
        row.copy_from_slice(h.row(i));
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Masked softmax cross-entropy.
///
/// Returns `(J, ∇_{H} J)` where
/// `J = (1/|mask|) Σ_{i∈mask} −log softmax(H(i,:))[yᵢ]` and the gradient is
/// `(softmax(H(i,:)) − onehot(yᵢ))/|mask|` on masked rows, zero elsewhere.
pub fn softmax_cross_entropy(h: &Dense, labels: &[u32], mask: &[bool]) -> (f64, Dense) {
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut probs = Dense::zeros(h.rows(), h.cols());
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let loss = softmax_cross_entropy_into(h, labels, mask, count, &mut probs, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] over caller-owned `probs`/`grad` buffers
/// (overwritten), normalised by `count` instead of the local mask size.
/// A rank passes the *global* masked count, so allreducing the per-rank
/// values yields the serial loss; the training loop passes its
/// workspace buffers, so the loss path allocates nothing (§9).
pub fn softmax_cross_entropy_into(
    h: &Dense,
    labels: &[u32],
    mask: &[bool],
    count: f64,
    probs: &mut Dense,
    grad: &mut Dense,
) -> f64 {
    assert_eq!(h.rows(), labels.len(), "label length mismatch");
    assert_eq!(h.rows(), mask.len(), "mask length mismatch");
    softmax_rows_into(h, probs);
    grad.fill_zero();
    let mut loss = 0.0f64;
    for i in 0..h.rows() {
        if !mask[i] {
            continue;
        }
        let y = labels[i] as usize;
        let p = probs.get(i, y).max(1e-12);
        loss -= (p as f64).ln();
        let g = grad.row_mut(i);
        for (j, gv) in g.iter_mut().enumerate() {
            let indicator = if j == y { 1.0 } else { 0.0 };
            *gv = (probs.get(i, j) - indicator) / count as f32;
        }
    }
    loss / count
}

/// Masked mean squared error against a dense target: `J = (1/2|mask|)·Σ‖h−t‖²`.
/// Simple and smooth, which makes finite-difference gradient checks tight.
pub fn squared_error(h: &Dense, target: &Dense, mask: &[bool]) -> (f64, Dense) {
    assert_eq!(h.rows(), target.rows());
    assert_eq!(h.cols(), target.cols());
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let mut loss = 0.0f64;
    for (i, &masked) in mask.iter().enumerate().take(h.rows()) {
        if !masked {
            continue;
        }
        let g = grad.row_mut(i);
        for (j, gj) in g.iter_mut().enumerate() {
            let d = h.get(i, j) - target.get(i, j);
            loss += 0.5 * (d as f64) * (d as f64);
            *gj = d / count as f32;
        }
    }
    (loss / count, grad)
}

/// Classification accuracy of `h`'s row-argmax against `labels`, over rows
/// where `mask` is true.
pub fn accuracy(h: &Dense, labels: &[u32], mask: &[bool]) -> f64 {
    let preds = h.argmax_rows();
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..labels.len() {
        if mask[i] {
            total += 1;
            if preds[i] == labels[i] as usize {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let h = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&h);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Dense::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Dense::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-5));
    }

    #[test]
    fn cross_entropy_loss_decreases_with_confidence() {
        let confident = Dense::from_vec(1, 2, vec![5.0, -5.0]);
        let unsure = Dense::from_vec(1, 2, vec![0.1, -0.1]);
        let labels = vec![0u32];
        let mask = vec![true];
        let (l_conf, _) = softmax_cross_entropy(&confident, &labels, &mask);
        let (l_unsure, _) = softmax_cross_entropy(&unsure, &labels, &mask);
        assert!(l_conf < l_unsure);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let h = Dense::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = vec![2u32, 0];
        let mask = vec![true, true];
        let (_, grad) = softmax_cross_entropy(&h, &labels, &mask);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut hp = h.clone();
                hp.set(i, j, h.get(i, j) + eps);
                let mut hm = h.clone();
                hm.set(i, j, h.get(i, j) - eps);
                let (lp, _) = softmax_cross_entropy(&hp, &labels, &mask);
                let (lm, _) = softmax_cross_entropy(&hm, &labels, &mask);
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grad.get(i, j)).abs() < 1e-3,
                    "fd {fd} vs grad {} at ({i},{j})",
                    grad.get(i, j)
                );
            }
        }
    }

    #[test]
    fn masked_rows_have_zero_gradient() {
        let h = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (_, grad) = softmax_cross_entropy(&h, &[0, 1], &[true, false]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn squared_error_gradient_matches_finite_difference() {
        let h = Dense::from_vec(1, 2, vec![0.4, -0.6]);
        let t = Dense::from_vec(1, 2, vec![1.0, 0.0]);
        let (_, grad) = squared_error(&h, &t, &[true]);
        let eps = 1e-3f32;
        for j in 0..2 {
            let mut hp = h.clone();
            hp.set(0, j, h.get(0, j) + eps);
            let mut hm = h.clone();
            hm.set(0, j, h.get(0, j) - eps);
            let (lp, _) = squared_error(&hp, &t, &[true]);
            let (lm, _) = squared_error(&hm, &t, &[true]);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((fd - grad.get(0, j)).abs() < 1e-3);
        }
    }

    #[test]
    fn accuracy_counts_masked_rows_only() {
        let h = Dense::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        // Predictions: 0, 1, 0. Labels: 0, 0, 0. Mask drops row 1.
        let acc = accuracy(&h, &[0, 0, 0], &[true, false, true]);
        assert_eq!(acc, 1.0);
        let acc_all = accuracy(&h, &[0, 0, 0], &[true, true, true]);
        assert!((acc_all - 2.0 / 3.0).abs() < 1e-12);
    }
}
