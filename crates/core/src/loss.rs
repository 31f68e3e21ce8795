//! The loss: masked softmax cross-entropy (node classification, the
//! paper's workload), and the accuracy of its predictions.
//!
//! The loss provides the value `J` and the gradient `∇_{H^L} J` that seeds
//! backpropagation (paper Eq. 2). Gradients are zero outside the training
//! mask, so only labelled vertices drive updates — the transductive GCN
//! setting of Kipf & Welling.

use pargcn_matrix::Dense;

/// One row's softmax in place: the max-subtracted exponentials (the
/// stability trick), divided by their sum when it is positive.
fn softmax_in_place(row: &mut [f32]) {
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

/// Masked softmax cross-entropy.
///
/// Returns `(J, ∇_{H} J)` where
/// `J = (1/|mask|) Σ_{i∈mask} −log softmax(H(i,:))[yᵢ]` and the gradient is
/// `(softmax(H(i,:)) − onehot(yᵢ))/|mask|` on masked rows, zero elsewhere.
pub fn softmax_cross_entropy(h: &Dense, labels: &[u32], mask: &[bool]) -> (f64, Dense) {
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let loss = softmax_cross_entropy_into(h, labels, mask, count, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] into a caller-owned `grad` (overwritten),
/// normalised by `count` instead of the local mask size. A rank passes
/// the *global* masked count, so allreducing the per-rank values yields
/// the serial loss; the training loop passes its workspace buffer, so
/// the loss path allocates nothing (§9).
///
/// One pass over the rows: each masked row's softmax is computed in its
/// `grad` row and turned into the gradient there, with the same `exp`,
/// `ln` and divisions in the same order as a separate softmax pass
/// followed by a gradient loop, so the bits are those of that sequence.
/// Unmasked rows are zeroed.
pub fn softmax_cross_entropy_into(
    h: &Dense,
    labels: &[u32],
    mask: &[bool],
    count: f64,
    grad: &mut Dense,
) -> f64 {
    assert_eq!(h.rows(), labels.len(), "label length mismatch");
    assert_eq!(h.rows(), mask.len(), "mask length mismatch");
    assert_eq!(
        (grad.rows(), grad.cols()),
        (h.rows(), h.cols()),
        "gradient shape mismatch"
    );
    let mut loss = 0.0f64;
    for (i, (&masked, &label)) in mask.iter().zip(labels).enumerate() {
        let g = grad.row_mut(i);
        if !masked {
            g.fill(0.0);
            continue;
        }
        g.copy_from_slice(h.row(i));
        softmax_in_place(g);
        let y = label as usize;
        loss -= (g[y].max(1e-12) as f64).ln();
        for (j, gv) in g.iter_mut().enumerate() {
            let indicator = if j == y { 1.0 } else { 0.0 };
            *gv = (*gv - indicator) / count as f32;
        }
    }
    loss / count
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

    /// Row-wise softmax of `h`, one [`softmax_in_place`] per row.
    fn softmax_rows(h: &Dense) -> Dense {
        let mut out = h.clone();
        for i in 0..out.rows() {
            softmax_in_place(out.row_mut(i));
        }
        out
    }

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

    /// The loss path the one-pass form replaced: a softmax pass over
    /// every row, then the masked gradient loop reading the
    /// probabilities back.
    fn softmax_then_gradient_loop(
        h: &Dense,
        labels: &[u32],
        mask: &[bool],
        count: f64,
    ) -> (f64, Dense) {
        let probs = softmax_rows(h);
        let mut grad = Dense::zeros(h.rows(), h.cols());
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
        (loss / count, grad)
    }

    #[test]
    fn one_pass_loss_matches_softmax_then_gradient_loop_bitwise() {
        use pargcn_util::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(21);
        let (n, c) = (300, 16);
        let h = Dense::from_fn(n, c, |i, _| match i % 50 {
            // A row whose exponentials underflow but one, a row of
            // huge logits, and a row with a NaN logit.
            7 => rng.gen_range(-200.0..-100.0f32),
            8 => rng.gen_range(1e4..2e4f32),
            9 if rng.gen_range(0..4u32) == 0 => f32::NAN,
            _ => rng.gen_range(-6.0..6.0f32),
        });
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..c as u32)).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        let count = 211.0;
        let (loss_ref, grad_ref) = softmax_then_gradient_loop(&h, &labels, &mask, count);
        // A stale buffer: every element must be overwritten.
        let mut grad = Dense::from_fn(n, c, |_, _| 9.0);
        let loss = softmax_cross_entropy_into(&h, &labels, &mask, count, &mut grad);
        assert_eq!(loss_ref.to_bits(), loss.to_bits());
        let bits = |d: &Dense| -> Vec<u32> {
            d.data()
                .iter()
                .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
                .collect()
        };
        assert_eq!(bits(&grad_ref), bits(&grad));
    }

    #[test]
    fn masked_rows_have_zero_gradient() {
        let h = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (_, grad) = softmax_cross_entropy(&h, &[0, 1], &[true, false]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
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
