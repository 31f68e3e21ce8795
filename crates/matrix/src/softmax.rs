//! The masked softmax cross-entropy kernel and the `exp` it runs on.
//!
//! **`exp`** is the library's own: Cody–Waite range reduction
//! `x = k·ln2 + r`, `|r| ≤ ln2/2`, a degree-4 polynomial for
//! `(eʳ − 1 − r)/r²`, and `2ᵏ` added to the result's exponent bits,
//! built only from separate multiplies and adds — never an FMA, whose
//! single rounding would change the bits. The 8-lane form in
//! [`crate::lanes`] runs the same operations in the same order, so the
//! two are bitwise equal on every input (checked over all 2³² floats by
//! the `exp_lanes_equal_scalar_on_every_float` test). It is within 1 ulp
//! of the correctly rounded result on `[−87.3, ln(f32::MAX)]` (the unit
//! test asserts ≤ 2 on a strided sweep). Results below `2⁻¹²⁶` flush to
//! `+0`, inputs above `ln(f32::MAX)` give `+∞`, and NaN stays NaN.
//!
//! **The loss**
//! ([`ComputeCtx::softmax_cross_entropy_into`](crate::ComputeCtx::softmax_cross_entropy_into))
//! runs one row at a time, or, on the blocked engine with AVX2, eight
//! masked rows at a time with one row per lane (`Lanes::softmax_rows`).
//! A lane runs exactly the scalar row's sequence, each step in class
//! order: the `f32::max` fold, `exp(h − max)` and the sum, `/ sum` when
//! it is positive, and `(g − [j = y]) / count`. Both forms then take each row's label
//! probability through the same clamp and libm's f64 `ln`, one call per
//! masked row, summed in row order. So the scalar form is the bitwise
//! reference by construction.

use crate::lanes::Lanes;
use crate::Dense;

/// 1.5·2²³: adding it to an `f32` of magnitude below 2²² rounds that to
/// an integer `k`, ties to even, and leaves `k` in the low bits (its
/// own bits shift out of a 23-bit shift); subtracting it again gives
/// `k` as a float.
pub(crate) const ROUND: f32 = 12_582_912.0;
pub(crate) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `k·LN2_HI` is exact for every `|k| ≤ 128`:
/// `LN2_HI` is 0.693359375, nine significant bits.
pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_8000);
/// `ln 2 − LN2_HI` ≈ −2.121944e-4.
pub(crate) const LN2_LO: f32 = f32::from_bits(0xb95e_8083);
/// A degree-4 Chebyshev fit of `(eʳ − 1 − r)/r²` on `|r| ≤ ln2/2`
/// (≈ 1.392618e-3, 8.363179e-3, 4.166655e-2, 1.666658e-1 and 0.5),
/// highest degree first; its error in `eʳ` is below 8e-9.
pub(crate) const POLY: [f32; 5] = [
    f32::from_bits(0x3ab6_8885),
    f32::from_bits(0x3c09_05b7),
    f32::from_bits(0x3d2a_aa8d),
    f32::from_bits(0x3e2a_aa6e),
    0.5,
];
/// The input clamp. Below `X_LO`, `k` is −127 and the result flushes to
/// `+0`; `X_HI`, the smallest `f32` above `ln(f32::MAX)`, overflows to
/// `+∞`, and so does everything clamped to it. In between, `k` stays in
/// `[−127, 128]`.
pub(crate) const X_LO: f32 = -88.0;
pub(crate) const X_HI: f32 = f32::from_bits(0x42b1_7218);
/// The bits of `+∞` and of `2⁻¹²⁶`, the smallest normal `f32`.
pub(crate) const INF_BITS: i32 = 0x7f80_0000;
pub(crate) const MIN_NORMAL_BITS: i32 = 0x0080_0000;

/// The library's `eˣ` (see the module doc): ≤ 2 ulp, no FMA, results
/// below `2⁻¹²⁶` flushed to `+0`, `+∞` above `ln(f32::MAX)`, NaN kept.
#[inline]
pub fn exp(x: f32) -> f32 {
    // The clamp as `minps(X_HI, x)` and `maxps(X_LO, ·)` order it, so a
    // NaN passes through.
    let xc = if X_HI < x { X_HI } else { x };
    let xc = if X_LO > xc { X_LO } else { xc };
    // `t` is `ROUND + k` exactly.
    let t = xc * LOG2E + ROUND;
    let kf = t - ROUND;
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    let z = r * r;
    let mut p = POLY[0];
    for &c in &POLY[1..] {
        p = p * r + c;
    }
    let y = (p * z + r) + 1.0;
    // `y·2ᵏ`, `y ∈ [0.7, 1.5)`, by adding `k` to the exponent bits: exact
    // for a normal result. An exponent past 254 is an overflow (`+∞`),
    // and one below 1, or a wrap past the sign, an underflow (`+0`).
    let bits = (y.to_bits() as i32).wrapping_add((t.to_bits() << 23) as i32);
    let bits = bits.min(INF_BITS);
    let y = if bits < MIN_NORMAL_BITS {
        0.0
    } else {
        f32::from_bits(bits as u32)
    };
    // `xc·0` is `±0` unless `x` is NaN, which this carries through.
    y + xc * 0.0
}

/// The widest row the lanes take: a block of eight rows lives, class by
/// class, in a stack buffer of at most this many registers. Wider rows
/// run on the scalar path.
pub(crate) const LANE_CLASSES: usize = 64;

/// Masked softmax cross-entropy of `h` against `labels`, normalised by
/// `count`: writes `(softmax(h_i) − onehot(y_i)) / count` into each
/// masked row of `grad` and zeroes the others, and returns
/// `Σ_{i∈mask} −ln softmax(h_i)[y_i] / count`, the label probability
/// clamped to `≥ 1e-12` (a NaN stays NaN) and the terms summed in row
/// order in f64. `lanes` runs the masked rows eight at a time; the
/// result is bitwise the same.
pub(crate) fn softmax_cross_entropy_into(
    h: &Dense,
    labels: &[u32],
    mask: &[bool],
    count: f64,
    grad: &mut Dense,
    lanes: Option<Lanes>,
) -> f64 {
    assert_eq!(h.rows(), labels.len(), "label length mismatch");
    assert_eq!(h.rows(), mask.len(), "mask length mismatch");
    assert_eq!(
        (grad.rows(), grad.cols()),
        (h.rows(), h.cols()),
        "gradient shape mismatch"
    );
    let lanes = lanes.filter(|_| h.cols() <= LANE_CLASSES);
    let count32 = count as f32;
    let mut loss = 0.0f64;
    let mut block = [0usize; 8];
    let mut filled = 0;
    for (i, &masked) in mask.iter().enumerate() {
        if !masked {
            grad.row_mut(i).fill(0.0);
            continue;
        }
        let Some(lanes) = lanes else {
            loss -= label_term(softmax_row(h.row(i), labels[i], count32, grad.row_mut(i)));
            continue;
        };
        block[filled] = i;
        filled += 1;
        if filled == 8 {
            let ys = block.map(|r| labels[r]);
            for p in lanes.softmax_rows(h, &block, ys, count32, grad) {
                loss -= label_term(p);
            }
            filled = 0;
        }
    }
    // The last masked rows, fewer than eight, one at a time.
    for &r in &block[..filled] {
        loss -= label_term(softmax_row(h.row(r), labels[r], count32, grad.row_mut(r)));
    }
    loss / count
}

/// One row of the loss: writes `(softmax(h) − onehot(y)) / count` into
/// `g` and returns the label's probability. The steps, each in class
/// order: the `f32::max` fold; `exp(h − max)` and the sum; `/ sum` when
/// the sum is positive; the gradient. Each loop is element-wise but the
/// sum, so the compiler may vectorize them without changing a bit.
fn softmax_row(h: &[f32], label: u32, count: f32, g: &mut [f32]) -> f32 {
    let max = h.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (gv, &hv) in g.iter_mut().zip(h) {
        *gv = exp(hv - max);
    }
    let sum = g.iter().fold(0.0f32, |sum, &e| sum + e);
    if sum > 0.0 {
        for v in g.iter_mut() {
            *v /= sum;
        }
    }
    let y = label as usize;
    let p = g[y];
    for (j, gv) in g.iter_mut().enumerate() {
        let indicator = if j == y { 1.0 } else { 0.0 };
        *gv = (*gv - indicator) / count;
    }
    p
}

/// A masked row's `ln` probability, in f64 (libm's `ln`): clamped away
/// from 0, but a NaN stays NaN (`f32::max` would drop it), so a poisoned
/// row shows in the loss.
#[inline]
fn label_term(p: f32) -> f64 {
    let p = if p < 1e-12 { 1e-12 } else { p };
    (p as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable `f32`s between two finite values of the
    /// same sign.
    fn ulps(a: f32, b: f32) -> u32 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs() as u32
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_exp() {
        // Every 509th float of [−87.3, 0] and of [0, 88.7], and every
        // float from there to ln(f32::MAX): about 4.4 million points,
        // every low-bit pattern visited.
        let mut worst = 0;
        let top = f32::from_bits(X_HI.to_bits() - 1);
        for (sign, from, to, step) in [
            (-1.0f32, 0.0f32, 87.3f32, 509),
            (1.0, 0.0, 88.7, 509),
            (1.0, 88.7, top, 1),
        ] {
            for bits in (from.to_bits()..=to.to_bits()).step_by(step) {
                let x = sign * f32::from_bits(bits);
                let want = (x as f64).exp() as f32;
                worst = worst.max(ulps(exp(x), want));
            }
        }
        assert!(worst <= 2, "worst error {worst} ulp");
    }

    #[test]
    fn exp_special_values() {
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert!(exp(f32::from_bits(0x7fc0_1234)).is_nan());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::MIN).to_bits(), 0);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        // Overflow edge: finite just below ln(f32::MAX), +∞ just above.
        let below = exp(f32::from_bits(X_HI.to_bits() - 1));
        assert!(below.is_finite() && below > 3.4e38, "{below}");
        assert_eq!(exp(X_HI), f32::INFINITY);
        assert_eq!(exp(f32::from_bits(X_HI.to_bits() + 1)), f32::INFINITY);
        // Flush edge: ln(2⁻¹²⁶) ≈ −87.3365. No result is subnormal; a
        // little above the edge is normal, a little below is +0.
        let edge = -87.336_54_f32;
        let mut x = f32::from_bits(edge.to_bits() - 64);
        while x < -87.33 {
            let y = exp(x);
            assert!(y == 0.0 || y >= f32::MIN_POSITIVE, "exp({x}) = {y:e}");
            assert_eq!(y.to_bits() >> 31, 0, "exp({x}) is negative");
            x = f32::from_bits(x.to_bits() - 1);
        }
        assert!(exp(-87.33) >= f32::MIN_POSITIVE);
        assert_eq!(exp(-87.34).to_bits(), 0);
        assert_eq!(exp(-100.0).to_bits(), 0);
    }
}
