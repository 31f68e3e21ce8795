//! The softmax cross-entropy kernel's AVX2 form against its scalar form,
//! bit for bit: the in-house `exp` over every `f32`, and the whole loss
//! over random shapes, masks and adversarial logits. On a host without
//! AVX2 both sides are the scalar code and the checks pass trivially.

use pargcn_matrix::lanes::Avx2;
use pargcn_matrix::softmax::exp;
use pargcn_matrix::{ComputeCtx, Dense, KernelKind};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, StdRng};

/// Element bits, any NaN read as the one quiet NaN (IEEE 754 leaves the
/// payload an operation returns open).
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
        .collect()
}

/// Every one of the 2³² inputs, 64 Ki at a time on up to four threads:
/// the lanes equal the scalar function, and no result is subnormal.
/// About a minute of CPU in a release build, much of it in the slow
/// subnormal arithmetic of inputs whose `r²` underflows, so CI runs it
/// with `--ignored` there.
#[test]
#[ignore = "sweeps all 2^32 floats; run in release with --ignored"]
fn exp_lanes_equal_scalar_on_every_float() {
    let Some(lanes) = Avx2::detect() else {
        eprintln!("no AVX2 on this host: nothing to compare");
        return;
    };
    const BLOCK: u32 = 1 << 16;
    let blocks = u32::MAX / BLOCK + 1;
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get().min(4)) as u32;
    let sweep = |first: u32| {
        let mut x = vec![0.0f32; BLOCK as usize];
        let (mut scalar, mut lane) = (x.clone(), x.clone());
        for block in (first..blocks).step_by(threads as usize) {
            for (i, x) in x.iter_mut().enumerate() {
                *x = f32::from_bits(block * BLOCK + i as u32);
            }
            for (y, &x) in scalar.iter_mut().zip(&x) {
                *y = exp(x);
            }
            lanes.exp_into(&x, &mut lane);
            let differs = |(s, l): (&f32, &f32)| {
                (s.to_bits() != l.to_bits() && !(s.is_nan() && l.is_nan())) || l.is_subnormal()
            };
            if let Some(i) = scalar.iter().zip(&lane).position(differs) {
                panic!(
                    "exp({:e} = {:#010x}): lanes {:e}, scalar {:e}",
                    x[i],
                    x[i].to_bits(),
                    lane[i],
                    scalar[i]
                );
            }
        }
    };
    std::thread::scope(|s| {
        for first in 0..threads {
            s.spawn(move || sweep(first));
        }
    });
}

/// A logit row of one adversarial kind, or of ordinary values.
fn logit_row(rng: &mut StdRng, c: usize) -> Vec<f32> {
    match rng.gen_range(0..10u32) {
        // Every exponential but the max's underflows.
        0 => (0..c).map(|_| rng.gen_range(-200.0..-100.0f32)).collect(),
        // Huge logits.
        1 => (0..c).map(|_| rng.gen_range(1e4..2e4f32)).collect(),
        // A NaN or an infinity among ordinary values.
        2 => {
            let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let mut row: Vec<f32> = (0..c).map(|_| rng.gen_range(-6.0..6.0f32)).collect();
            row[rng.gen_range(0..c)] = special[rng.gen_range(0..3usize)];
            row
        }
        // Signed zeros, so the max is ±0.
        3 => (0..c)
            .map(|_| {
                if rng.gen_range(0..2u32) == 0 {
                    -0.0
                } else {
                    -rng.gen_range(0.0..3.0f32)
                }
            })
            .collect(),
        // Every logit −∞.
        4 => vec![f32::NEG_INFINITY; c],
        _ => (0..c).map(|_| rng.gen_range(-6.0..6.0f32)).collect(),
    }
}

#[test]
fn loss_lanes_equal_scalar_bitwise() {
    let forms = [
        ComputeCtx::serial().with_kernel(KernelKind::Naive),
        ComputeCtx::serial().with_kernel(KernelKind::Blocked),
    ];
    qc::check(|rng| {
        let n = rng.gen_range(0..41usize);
        // 5 is the golden-bits class count.
        let c = if rng.gen_range(0..4u32) == 0 {
            5
        } else {
            rng.gen_range(1..41usize)
        };
        let data: Vec<f32> = (0..n).flat_map(|_| logit_row(rng, c)).collect();
        let h = Dense::from_vec(n, c, data);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..c as u32)).collect();
        let mask: Vec<bool> = match rng.gen_range(0..4u32) {
            0 => vec![false; n],
            1 => vec![true; n],
            _ => (0..n).map(|_| rng.gen_range(0..3u32) != 0).collect(),
        };
        let count = rng.gen_range(1..60u32) as f64;
        let runs: Vec<(f64, Dense)> = forms
            .iter()
            .map(|ctx| {
                let mut grad = Dense::from_fn(n, c, |_, _| 9.0);
                let loss = ctx.softmax_cross_entropy_into(&h, &labels, &mask, count, &mut grad);
                (loss, grad)
            })
            .collect();
        let (loss, grad) = &runs[0];
        for (other, g) in &runs[1..] {
            assert!(
                loss.to_bits() == other.to_bits() || (loss.is_nan() && other.is_nan()),
                "loss {loss} vs {other} ({n}×{c})"
            );
            assert_eq!(bits(grad.data()), bits(g.data()), "gradient ({n}×{c})");
        }
    });
}
