//! Activation functions `σ` and their derivatives `σ'` (paper Eq. 1–3).

use pargcn_matrix::{ComputeCtx, Dense};
use pargcn_util::pool::Pool;

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
/// (NaN included).
#[inline]
fn relu_slope(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[inline]
fn identity(v: f32) -> f32 {
    v
}

#[inline]
fn unit_slope(_: f32) -> f32 {
    1.0
}

impl Activation {
    /// `H = σ(Z)`.
    pub fn apply(&self, z: &Dense) -> Dense {
        match self {
            Activation::Relu => z.map(relu),
            Activation::Identity => z.clone(),
        }
    }

    /// `σ'(Z)`, element-wise.
    pub fn derivative(&self, z: &Dense) -> Dense {
        match self {
            Activation::Relu => z.map(relu_slope),
            Activation::Identity => z.map(unit_slope),
        }
    }

    /// Pooled [`Activation::apply`]; element-wise, so bitwise identical to
    /// serial at any thread count.
    pub fn apply_pool(&self, z: &Dense, pool: &Pool) -> Dense {
        match self {
            Activation::Relu => z.map_pool(pool, relu),
            Activation::Identity => z.clone(),
        }
    }

    /// [`Activation::apply`] into a caller-provided `out` (same shape,
    /// never reallocates); pooled, bitwise identical to serial. The
    /// aggregate-last (DmmFirst) forward pass uses it after the exchange.
    pub fn apply_into_pool(&self, z: &Dense, out: &mut Dense, pool: &Pool) {
        match self {
            Activation::Relu => z.map_into_pool(out, pool, relu),
            Activation::Identity => out.copy_from(z),
        }
    }

    /// [`Activation::derivative`] into a caller-provided `out`; pooled,
    /// bitwise identical to serial.
    pub fn derivative_into_pool(&self, z: &Dense, out: &mut Dense, pool: &Pool) {
        match self {
            Activation::Relu => z.map_into_pool(out, pool, relu_slope),
            Activation::Identity => z.map_into_pool(out, pool, unit_slope),
        }
    }

    /// Pooled [`Activation::derivative`]; bitwise identical to serial.
    pub fn derivative_pool(&self, z: &Dense, pool: &Pool) -> Dense {
        match self {
            Activation::Relu => z.map_pool(pool, relu_slope),
            Activation::Identity => z.map_pool(pool, unit_slope),
        }
    }

    /// The forward layer's transform and activation in one pass:
    /// `Z = A·W` and `H = σ(Z)`, with `σ` applied as the GEMM stores `Z`.
    /// Bitwise identical to `ctx.matmul_into(a, w, z, false)` followed by
    /// [`Activation::apply_into_pool`].
    pub fn transform_into(
        &self,
        ctx: &ComputeCtx,
        a: &Dense,
        w: &Dense,
        z: &mut Dense,
        h: &mut Dense,
    ) {
        match self {
            Activation::Relu => ctx.matmul_map_into(a, w, z, h, relu),
            Activation::Identity => ctx.matmul_map_into(a, w, z, h, identity),
        }
    }

    /// The backward layer's input gradient in one pass:
    /// `G = (A·Wᵀ) ⊙ σ′(Z)`, multiplied (not selected, so `-0.0` and NaN
    /// come out as before) as the GEMM stores it. Bitwise identical to
    /// `ctx.matmul_bt_into(a, w, g)`, then
    /// [`Activation::derivative_into_pool`] and `hadamard_assign`.
    pub fn backprop_into(&self, ctx: &ComputeCtx, a: &Dense, w: &Dense, z: &Dense, g: &mut Dense) {
        match self {
            Activation::Relu => ctx.matmul_bt_scale_into(a, w, z, relu_slope, g),
            Activation::Identity => ctx.matmul_bt_scale_into(a, w, z, unit_slope, g),
        }
    }

    /// `g = grad ⊙ σ′(z)`, the output layer's gradient seed (Alg. 2 line
    /// 2); bitwise the derivative-then-Hadamard sequence it replaces.
    pub fn seed_into(&self, z: &Dense, grad: &Dense, g: &mut Dense) {
        g.copy_from(grad);
        match self {
            Activation::Relu => g.mul_map_assign(z, relu_slope),
            Activation::Identity => g.mul_map_assign(z, unit_slope),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_matrix::KernelKind;
    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    const ACTIVATIONS: [Activation; 2] = [Activation::Relu, Activation::Identity];

    /// Every engine a layer can run on, named: naive, blocked as
    /// dispatched (AVX2 lanes where the CPU has them) and blocked on its
    /// scalar fallback, each with one and two threads.
    fn engines() -> Vec<(String, ComputeCtx)> {
        [1, 2]
            .into_iter()
            .flat_map(|t| {
                let naive = ComputeCtx::with_threads(t).with_kernel(KernelKind::Naive);
                let blocked = ComputeCtx::with_threads(t).with_kernel(KernelKind::Blocked);
                [
                    (format!("naive t={t}"), naive),
                    (format!("dispatched t={t}"), blocked.clone()),
                    (format!("scalar t={t}"), blocked.without_lanes()),
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

    /// Signed values, one in sixteen an exact zero and one in `nan_in` a
    /// NaN.
    fn operand(rng: &mut StdRng, r: usize, c: usize, nan_in: u32) -> Dense {
        Dense::from_fn(r, c, |_, _| match rng.gen_range(0..16 * nan_in) {
            x if x < 16 => f32::NAN,
            x if x % 16 == 3 => 0.0,
            _ => rng.gen_range(-1.0..1.0f32),
        })
    }

    /// Row counts past the parallel cutoff too, so the pooled and the
    /// one-thread paths of each engine both run.
    const SHAPES: [(usize, usize, usize); 4] =
        [(37, 32, 16), (61, 16, 32), (5, 3, 19), (700, 32, 32)];

    #[test]
    fn fused_forward_matches_matmul_then_apply_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in SHAPES {
            let a = operand(&mut rng, m, k, 64);
            let w = operand(&mut rng, k, n, 64);
            for (engine, ctx) in engines() {
                for act in ACTIVATIONS {
                    let mut z_ref = Dense::zeros(m, n);
                    let mut h_ref = Dense::zeros(m, n);
                    ctx.matmul_into(&a, &w, &mut z_ref, false);
                    act.apply_into_pool(&z_ref, &mut h_ref, ctx.pool());
                    let mut z = Dense::zeros(m, n);
                    let mut h = Dense::zeros(m, n);
                    act.transform_into(&ctx, &a, &w, &mut z, &mut h);
                    let what = format!("{act:?} {m}x{k}x{n} {engine}");
                    assert_eq!(bits(&z_ref), bits(&z), "Z {what}");
                    assert_eq!(bits(&h_ref), bits(&h), "H {what}");
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
            // -0.0), exact zeros and NaN (σ′(NaN) = 0 times S).
            let z = operand(&mut rng, m, n, 4);
            for (engine, ctx) in engines() {
                for act in ACTIVATIONS {
                    let mut g_ref = Dense::zeros(m, n);
                    let mut deriv = Dense::zeros(m, n);
                    ctx.matmul_bt_into(&ag, &w, &mut g_ref);
                    act.derivative_into_pool(&z, &mut deriv, ctx.pool());
                    g_ref.hadamard_assign(&deriv);
                    let mut g = Dense::zeros(m, n);
                    act.backprop_into(&ctx, &ag, &w, &z, &mut g);
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
        for act in ACTIVATIONS {
            let mut g_ref = Dense::zeros(40, 16);
            act.derivative_into_pool(&z, &mut g_ref, &Pool::new(1));
            g_ref.hadamard_assign(&grad);
            let mut g = Dense::zeros(40, 16);
            act.seed_into(&z, &grad, &mut g);
            assert_eq!(bits(&g_ref), bits(&g), "{act:?}");
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let z = Dense::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        assert_eq!(Activation::Relu.apply(&z).data(), &[0.0, 0.0, 0.5, 2.0]);
        assert_eq!(
            Activation::Relu.derivative(&z).data(),
            &[0.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn identity_is_noop_with_unit_derivative() {
        let z = Dense::from_vec(1, 3, vec![-1.0, 0.0, 3.0]);
        assert_eq!(Activation::Identity.apply(&z).data(), z.data());
        assert_eq!(Activation::Identity.derivative(&z).data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_derivative_consistent_with_finite_difference() {
        let z = Dense::from_vec(1, 2, vec![0.7, -0.3]);
        let eps = 1e-3f32;
        let d = Activation::Relu.derivative(&z);
        for j in 0..2 {
            let mut zp = z.clone();
            zp.set(0, j, z.get(0, j) + eps);
            let mut zm = z.clone();
            zm.set(0, j, z.get(0, j) - eps);
            let fd = (Activation::Relu.apply(&zp).get(0, j)
                - Activation::Relu.apply(&zm).get(0, j))
                / (2.0 * eps);
            assert!((fd - d.get(0, j)).abs() < 1e-3);
        }
    }
}
