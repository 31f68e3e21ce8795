//! Dense and sparse (CSR) matrix kernels used by the distributed GCN
//! training algorithm of Demirci, Haldar & Ferhatosmanoglu (VLDB 2022).
//!
//! The paper's computational core is two kernels:
//!
//! * **SpMM** — sparse adjacency × dense feature/gradient matrix
//!   ([`ComputeCtx::spmm`]), used by graph convolution in both the
//!   feedforward (`Z = Â·H·W`) and backpropagation (`S = Â·G·Wᵀ`)
//!   phases, and
//! * **DMM** — dense × dense multiplication ([`ComputeCtx::matmul`] and
//!   its transposed variants), used for applying the replicated parameter
//!   matrices `W` and forming parameter gradients `ΔW = Hᵀ(ÂG)`.
//!
//! [`ComputeCtx`] is the one way to run them, and the element-wise map:
//! it picks the engine (the naive loops or the SIMD lanes), splits rows
//! across its thread pool and meters FLOPs. [`Dense`] and [`Csr`] are
//! plain data with in-place updates.
//!
//! The crate also implements the row-selection "semiring" multiply the paper
//! performs with SuiteSparse:GraphBLAS's `GxB_PLUS_SECOND` (`Xₘₙ ⊗ H`),
//! here as the direct [`gather::gather_rows`] operation, and the symmetric
//! degree normalization `Â = D^{-1/2}(A + I)D^{-1/2}` ([`norm`]).
//!
//! All feature/parameter data is `f32` (matching common GCN practice);
//! reductions that feed scalar metrics accumulate in `f64`.
//!
//! ```
//! use pargcn_matrix::{norm, ComputeCtx, Csr, Dense};
//!
//! // A directed path 0 → 1 → 2 and its GCN-normalized adjacency.
//! let a = Csr::from_coo(3, 3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
//! let a_hat = norm::normalize_adjacency(&a);
//!
//! // One graph-convolution step, Â · H · W, on one thread.
//! let ctx = ComputeCtx::serial();
//! let h = Dense::from_fn(3, 2, |i, j| (i + j) as f32);
//! let w = Dense::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
//! let z = ctx.matmul(&ctx.spmm(&a_hat, &h), &w);
//! assert_eq!(z.rows(), 3);
//! assert_eq!(z.cols(), 2);
//! ```

#![deny(unsafe_code)]

mod aligned;
pub mod csr;
pub mod ctx;
pub mod dense;
pub mod gather;
mod gemm;
#[allow(unsafe_code)]
pub mod lanes;
pub mod norm;
pub mod softmax;
mod spmm_kernel;

pub use csr::Csr;
pub use ctx::{ComputeCtx, ComputeSpec, KernelKind};
pub use dense::Dense;

/// Relative tolerance comparison of two `f32` values with an absolute floor.
///
/// Used throughout the test-suite to compare serial and distributed results,
/// which differ only by floating-point reassociation.
#[inline]
pub fn approx_eq(a: f32, b: f32, rel: f32) -> bool {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= rel * scale
}
