//! The loss: masked softmax cross-entropy (node classification, the
//! paper's workload), and the accuracy of its predictions.
//!
//! The loss provides the value `J` and the gradient `∇_{H^L} J` that seeds
//! backpropagation (paper Eq. 2). Gradients are zero outside the training
//! mask, so only labelled vertices drive updates — the transductive GCN
//! setting of Kipf & Welling.

use pargcn_matrix::{ComputeCtx, Dense};

/// Masked softmax cross-entropy on `ctx`'s engine.
///
/// Returns `(J, ∇_{H} J)` where
/// `J = (1/|mask|) Σ_{i∈mask} −log softmax(H(i,:))[yᵢ]` and the gradient is
/// `(softmax(H(i,:)) − onehot(yᵢ))/|mask|` on masked rows, zero elsewhere.
/// The training loops call [`ComputeCtx::softmax_cross_entropy_into`]
/// instead, with a caller-owned gradient and the *global* masked count,
/// so allreducing the per-rank values yields the serial loss and the loss
/// path allocates nothing (§9).
pub fn softmax_cross_entropy(
    ctx: &ComputeCtx,
    h: &Dense,
    labels: &[u32],
    mask: &[bool],
) -> (f64, Dense) {
    let count = mask.iter().filter(|&&m| m).count().max(1) as f64;
    let mut grad = Dense::zeros(h.rows(), h.cols());
    let loss = ctx.softmax_cross_entropy_into(h, labels, mask, count, &mut grad);
    (loss, grad)
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
    use pargcn_matrix::softmax::exp;
    use pargcn_matrix::KernelKind;

    /// One row's softmax in place: the max-subtracted exponentials (the
    /// stability trick), divided by their sum when it is positive.
    fn softmax_in_place(row: &mut [f32]) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = exp(*v - max);
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// The loss on the serial context.
    fn xent(h: &Dense, labels: &[u32], mask: &[bool]) -> (f64, Dense) {
        softmax_cross_entropy(&ComputeCtx::serial(), h, labels, mask)
    }

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
        let (l_conf, _) = xent(&confident, &labels, &mask);
        let (l_unsure, _) = xent(&unsure, &labels, &mask);
        assert!(l_conf < l_unsure);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let h = Dense::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = vec![2u32, 0];
        let mask = vec![true, true];
        let (_, grad) = xent(&h, &labels, &mask);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut hp = h.clone();
                hp.set(i, j, h.get(i, j) + eps);
                let mut hm = h.clone();
                hm.set(i, j, h.get(i, j) - eps);
                let (lp, _) = xent(&hp, &labels, &mask);
                let (lm, _) = xent(&hm, &labels, &mask);
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
            let p = probs.get(i, y);
            let p = if p < 1e-12 { 1e-12 } else { p };
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
        let bits = |d: &Dense| -> Vec<u32> {
            d.data()
                .iter()
                .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
                .collect()
        };
        let has_nan = |i: usize| h.row(i).iter().any(|v| v.is_nan());
        assert!((0..n).any(|i| mask[i] && has_nan(i)));
        let finite: Vec<bool> = (0..n).map(|i| mask[i] && !has_nan(i)).collect();
        let (finite_ref, _) = softmax_then_gradient_loop(&h, &labels, &finite, count);
        for ctx in [
            ComputeCtx::serial().with_kernel(KernelKind::Naive),
            ComputeCtx::serial().with_kernel(KernelKind::Blocked),
        ] {
            // A stale buffer: every element must be overwritten.
            let mut grad = Dense::from_fn(n, c, |_, _| 9.0);
            let loss = ctx.softmax_cross_entropy_into(&h, &labels, &mask, count, &mut grad);
            // A masked-in NaN row makes both losses NaN ...
            assert!(loss_ref.is_nan() && loss.is_nan());
            // ... and without the NaN rows every other row's term, the
            // underflow and huge-logit rows included, agrees bit for bit.
            let mut scratch = Dense::zeros(n, c);
            let loss = ctx.softmax_cross_entropy_into(&h, &labels, &finite, count, &mut scratch);
            assert!(loss.is_finite());
            assert_eq!(finite_ref.to_bits(), loss.to_bits());
            assert_eq!(bits(&grad_ref), bits(&grad));
        }
    }

    #[test]
    fn masked_rows_have_zero_gradient() {
        let h = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (_, grad) = xent(&h, &[0, 1], &[true, false]);
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
