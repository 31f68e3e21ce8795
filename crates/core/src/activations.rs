//! Activation functions `σ` and their derivatives `σ'` (paper Eq. 1–3).
//!
//! Every activation here has `σ′` exactly recoverable from `σ`'s output:
//! `σ′(σ(v))` and `σ′(v)` are the same bits for every `v`, NaN and `-0.0`
//! included (the `sigma_prime_reads_the_same_off_the_output` property
//! below). So backpropagation reads `σ′` off the stored activations `H`
//! and the distributed layer loop never keeps the pre-activations `Z`.
//! An activation added later whose `σ′` cannot be read off its output
//! bit for bit (GELU, which is not monotone, for one) must bring `Z`
//! back for its layer.

use pargcn_matrix::{ComputeCtx, Dense};

/// Element-wise activation applied to `Zᵏ` to form `Hᵏ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, the paper's hidden-layer activation.
    Relu,
    /// Identity, used at the output layer (softmax lives in the loss).
    Identity,
}

/// `σ(v)` of [`Activation::Relu`]. `f32::max` returns `0.0` for NaN.
#[inline]
fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// `σ′(v)` of [`Activation::Relu`]: `1.0` where `v > 0`, else `0.0`
/// (NaN included). Since `v > 0 ⇔ max(v, 0) > 0`, it reads the same off
/// `relu(v)`.
#[inline]
fn relu_slope(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[inline]
fn unit_slope(_: f32) -> f32 {
    1.0
}

impl Activation {
    /// `H = σ(Z)`, element-wise on `ctx`'s pool: the reference the fused
    /// kernels below are tested against.
    pub fn apply(&self, ctx: &ComputeCtx, z: &Dense) -> Dense {
        let mut h = z.clone();
        self.apply_in_place(ctx, &mut h);
        h
    }

    /// `σ'(Z)`, element-wise on `ctx`'s pool. Equally `σ′` read off
    /// `H = σ(Z)`.
    pub fn derivative(&self, ctx: &ComputeCtx, z: &Dense) -> Dense {
        let mut d = z.clone();
        match self {
            Activation::Relu => ctx.map_inplace(&mut d, relu_slope),
            Activation::Identity => ctx.map_inplace(&mut d, unit_slope),
        }
        d
    }

    /// `Z ← σ(Z)` in place, on `ctx`'s pool. The aggregate-last
    /// (DmmFirst) forward pass runs it on the exchange's output, which
    /// thereby becomes `H`.
    pub fn apply_in_place(&self, ctx: &ComputeCtx, z: &mut Dense) {
        match self {
            Activation::Relu => ctx.map_inplace(z, relu),
            Activation::Identity => {}
        }
    }

    /// The forward layer's transform and activation in one pass:
    /// `H = σ(A·W)`, with `σ` applied in place as the GEMM stores each
    /// block of rows (`Z` is never kept). Bitwise identical to
    /// `ctx.matmul_into(a, w, h, false)` followed by `σ` in place.
    pub fn transform_into(&self, ctx: &ComputeCtx, a: &Dense, w: &Dense, h: &mut Dense) {
        match self {
            Activation::Relu => ctx.matmul_map_into(a, w, h, relu),
            Activation::Identity => ctx.matmul_into(a, w, h, false),
        }
    }

    /// The backward layer's input gradient in one pass:
    /// `G = (A·Wᵀ) ⊙ σ′(Z)`, with `σ′` read off this layer's output
    /// `h = σ(Z)`, multiplied (not selected, so `-0.0` and NaN come out as
    /// before) as the GEMM stores it. Bitwise identical to
    /// `ctx.matmul_bt_into(a, w, g)`, then `g ⊙= derivative(Z)`.
    pub fn backprop_into(&self, ctx: &ComputeCtx, a: &Dense, w: &Dense, h: &Dense, g: &mut Dense) {
        match self {
            Activation::Relu => ctx.matmul_bt_scale_into(a, w, h, relu_slope, g),
            Activation::Identity => ctx.matmul_bt_scale_into(a, w, h, unit_slope, g),
        }
    }

    /// `g = grad ⊙ σ′(Z)` with `σ′` read off the output `h = σ(Z)`: the
    /// output layer's gradient seed (Alg. 2 line 2); bitwise the
    /// derivative-then-Hadamard sequence it replaces. `grad` is only read.
    pub fn seed_into(&self, h: &Dense, grad: &Dense, g: &mut Dense) {
        g.copy_from(grad);
        match self {
            Activation::Relu => g.mul_map_assign(h, relu_slope),
            Activation::Identity => g.mul_map_assign(h, unit_slope),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_matrix::KernelKind;
    use pargcn_util::qc;
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    const ACTIVATIONS: [Activation; 2] = [Activation::Relu, Activation::Identity];

    /// Every engine a layer can run on, named: naive and blocked as
    /// dispatched (the widest lanes the CPU has), each with one and
    /// four threads.
    fn engines() -> Vec<(String, ComputeCtx)> {
        [1, 4]
            .into_iter()
            .flat_map(|t| {
                let naive = ComputeCtx::with_threads(t).with_kernel(KernelKind::Naive);
                let blocked = ComputeCtx::with_threads(t).with_kernel(KernelKind::Blocked);
                [
                    (format!("naive t={t}"), naive),
                    (format!("dispatched t={t}"), blocked),
                ]
            })
            .collect()
    }

    /// Element bits; any NaN reads as the one quiet NaN (IEEE 754 leaves
    /// the payload an operation returns open).
    fn bits(d: &Dense) -> Vec<u32> {
        d.data()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    /// Signed values, one in sixteen an exact zero of either sign and one
    /// in `nan_in` a NaN.
    fn operand(rng: &mut StdRng, r: usize, c: usize, nan_in: u32) -> Dense {
        Dense::from_fn(r, c, |_, _| match rng.gen_range(0..16 * nan_in) {
            x if x < 16 => f32::NAN,
            x if x % 16 == 3 => 0.0,
            x if x % 16 == 5 => -0.0,
            _ => rng.gen_range(-1.0..1.0f32),
        })
    }

    /// Row counts past the parallel cutoff too, so the pooled and the
    /// one-thread paths of each engine both run.
    const SHAPES: [(usize, usize, usize); 4] =
        [(37, 32, 16), (61, 16, 32), (5, 3, 19), (700, 32, 32)];

    /// The floats `σ′` must read the same off `σ`'s output: both zeros,
    /// both extreme subnormals, both infinities, NaN and the extremes of
    /// the normal range.
    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];

    #[test]
    fn sigma_prime_reads_the_same_off_the_output() {
        qc::check(|rng| {
            let v = Dense::from_fn(8, 16, |i, j| match (i * 16 + j) % 4 {
                _ if i == 0 && j < SPECIALS.len() => SPECIALS[j],
                0 => f32::from_bits(rng.gen::<u32>()),
                1 => -f32::from_bits(rng.gen::<u32>() >> 9),
                _ => rng.gen_range(-4.0..4.0f32),
            });
            let ctx = ComputeCtx::serial();
            for act in ACTIVATIONS {
                let from_output = act.derivative(&ctx, &act.apply(&ctx, &v));
                let from_input = act.derivative(&ctx, &v);
                // No NaN canonicalisation: σ′ is 0 or 1, never NaN.
                let raw = |d: &Dense| d.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(raw(&from_output), raw(&from_input), "{act:?}");
            }
        });
    }

    #[test]
    fn fused_forward_matches_matmul_then_apply_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in SHAPES {
            let a = operand(&mut rng, m, k, 64);
            let w = operand(&mut rng, k, n, 64);
            for (engine, ctx) in engines() {
                for act in ACTIVATIONS {
                    let mut z = Dense::zeros(m, n);
                    ctx.matmul_into(&a, &w, &mut z, false);
                    let h_ref = act.apply(&ctx, &z);
                    // Stale contents must not leak into the output.
                    let mut h = operand(&mut rng, m, n, 4);
                    act.transform_into(&ctx, &a, &w, &mut h);
                    let what = format!("{act:?} {m}x{k}x{n} {engine}");
                    assert_eq!(bits(&h_ref), bits(&h), "H {what}");
                    let mut dmm_first = z.clone();
                    act.apply_in_place(&ctx, &mut dmm_first);
                    assert_eq!(bits(&h_ref), bits(&dmm_first), "in place {what}");
                }
            }
        }
    }

    #[test]
    fn fused_backward_matches_matmul_bt_derivative_hadamard_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        for (m, k, n) in SHAPES {
            let ag = operand(&mut rng, m, k, 256);
            let w = operand(&mut rng, n, k, 256);
            // Pre-activations with negatives (σ′ = 0 on a negative S gives
            // -0.0), zeros of both signs and NaN (σ′(NaN) = 0 times S).
            let z = operand(&mut rng, m, n, 4);
            for (engine, ctx) in engines() {
                for act in ACTIVATIONS {
                    let mut g_ref = Dense::zeros(m, n);
                    ctx.matmul_bt_into(&ag, &w, &mut g_ref);
                    g_ref.hadamard_assign(&act.derivative(&ctx, &z));
                    let h = act.apply(&ctx, &z);
                    let mut g = Dense::zeros(m, n);
                    act.backprop_into(&ctx, &ag, &w, &h, &mut g);
                    let what = format!("{act:?} {m}x{k}x{n} {engine}");
                    assert_eq!(bits(&g_ref), bits(&g), "G {what}");
                    if act == Activation::Relu && m * n > 100 {
                        let neg_zero = g.data().iter().any(|v| v.to_bits() == (-0.0f32).to_bits());
                        assert!(neg_zero, "no -0.0 exercised: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn output_seed_matches_derivative_then_hadamard_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let z = operand(&mut rng, 40, 16, 4);
        let grad = operand(&mut rng, 40, 16, 4);
        let ctx = ComputeCtx::serial();
        for act in ACTIVATIONS {
            let mut g_ref = act.derivative(&ctx, &z);
            g_ref.hadamard_assign(&grad);
            let mut g = Dense::zeros(40, 16);
            act.seed_into(&act.apply(&ctx, &z), &grad, &mut g);
            assert_eq!(bits(&g_ref), bits(&g), "{act:?}");
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let ctx = ComputeCtx::serial();
        let z = Dense::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let relu = Activation::Relu;
        assert_eq!(relu.apply(&ctx, &z).data(), &[0.0, 0.0, 0.5, 2.0]);
        assert_eq!(relu.derivative(&ctx, &z).data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn identity_is_noop_with_unit_derivative() {
        let ctx = ComputeCtx::serial();
        let z = Dense::from_vec(1, 3, vec![-1.0, 0.0, 3.0]);
        let identity = Activation::Identity;
        assert_eq!(identity.apply(&ctx, &z).data(), z.data());
        assert_eq!(identity.derivative(&ctx, &z).data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_derivative_consistent_with_finite_difference() {
        let z = Dense::from_vec(1, 2, vec![0.7, -0.3]);
        let eps = 1e-3f32;
        let ctx = ComputeCtx::serial();
        let relu = |z: &Dense| Activation::Relu.apply(&ctx, z);
        let d = Activation::Relu.derivative(&ctx, &z);
        for j in 0..2 {
            let mut zp = z.clone();
            zp.set(0, j, z.get(0, j) + eps);
            let mut zm = z.clone();
            zm.set(0, j, z.get(0, j) - eps);
            let fd = (relu(&zp).get(0, j) - relu(&zm).get(0, j)) / (2.0 * eps);
            assert!((fd - d.get(0, j)).abs() < 1e-3);
        }
    }
}
