//! Compute context: the per-rank handle to intra-rank thread parallelism
//! and kernel selection, and the one way to run a dense product, an SpMM
//! or an element-wise map.
//!
//! The paper's processors each run multithreaded SuiteSparse:GraphBLAS
//! kernels; [`ComputeCtx`] is our equivalent — a shared handle to a
//! [`Pool`] that the SpMM/DMM kernels use to split row ranges across
//! threads, plus the choice of **kernel engine** ([`KernelKind`]): the
//! naive reference loops or the blocked engine, which runs the register
//! tiles of [`crate::lanes`] at the widest width the CPU has (16-float
//! AVX-512F, else 8-float AVX2) and the naive loops without AVX2. One
//! context is built per simulated rank, so `p` ranks × `t` threads gives
//! the paper's hybrid execution model.
//!
//! Every kernel dispatched here produces **bitwise identical** results
//! regardless of engine and thread count: per output element the
//! summation order is the single canonical ascending order (see
//! DESIGN.md §10), chunks write disjoint output rows, and nothing is
//! ever reduced across threads.
//!
//! The context also meters arithmetic: every dispatched kernel adds its
//! shape-derived FLOP count (2·m·k·n per GEMM, 2·nnz·d per SpMM) to a
//! shared counter the trainers drain into
//! `CommCounters::compute_flops`, making per-rank GFLOP/s reportable
//! alongside the comm/compute time split.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::gemm::{self, PackBuf};
use crate::lanes::Lanes;
use crate::{csr, dense, softmax, spmm_kernel, Csr, Dense};
use pargcn_util::pool::{auto_threads, Pool};

/// Minimum per-kernel work (≈ inner-loop multiply-adds) before a kernel
/// bothers splitting across threads; below this the pool dispatch overhead
/// dominates. The cutoff is a pure function of operand shape, so a given
/// call is chunked the same way on every rank and every run.
pub const MIN_PARALLEL_WORK: usize = 16 * 1024;

/// The environment variable naming the default [`KernelKind`].
const KERNEL_ENV: &str = "PARGCN_KERNEL";

/// Which kernel engine a [`ComputeCtx`] dispatches to. Both engines are
/// bitwise identical on the training pipeline's data; `Naive` exists as
/// the reference and for A/B benchmarking (`--kernel`, `PARGCN_KERNEL`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// The straightforward i-k-j / row-axpy loops.
    Naive,
    /// The widest SIMD register tiles the CPU has (AVX-512F, else
    /// AVX2), else the naive loops (default).
    Blocked,
}

impl KernelKind {
    /// Parses a CLI/env spelling (`naive` | `blocked`, case-insensitive).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "naive" => Some(KernelKind::Naive),
            "blocked" => Some(KernelKind::Blocked),
            _ => None,
        }
    }

    /// The `PARGCN_KERNEL` env var, defaulting to `Blocked` when it is
    /// unset or empty.
    ///
    /// # Panics
    /// If it is set to anything but a [`KernelKind::parse`] spelling.
    pub fn from_env() -> KernelKind {
        let value = std::env::var_os(KERNEL_ENV);
        Self::from_env_value(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`KernelKind::from_env`] on the variable's value (`None`: unset).
    fn from_env_value(value: Option<&str>) -> KernelKind {
        match value.map(str::trim) {
            None | Some("") => KernelKind::Blocked,
            Some(v) => KernelKind::parse(v).unwrap_or_else(|| {
                panic!("{KERNEL_ENV}={v:?} is not a kernel engine (naive|blocked)")
            }),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Naive => "naive",
            KernelKind::Blocked => "blocked",
        }
    }
}

/// Explicit per-rank compute configuration for the training entry points
/// and [`ComputeCtx::for_ranks_spec`] (`None` fields fall back to the
/// env-driven defaults: `PARGCN_THREADS` and `PARGCN_KERNEL`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeSpec {
    /// Kernel thread-pool size per rank.
    pub threads: Option<usize>,
    /// Kernel engine.
    pub kernel: Option<KernelKind>,
}

/// State shared by every clone of one context: the lanes' `A·Bᵀ`
/// transpose scratch (grow-once; see [`PackBuf`]) and the FLOP meter.
#[derive(Debug, Default)]
struct Scratch {
    pack: Mutex<PackBuf>,
    flops: AtomicU64,
}

/// The lanes `kernel` runs on: the widest the CPU has under
/// [`KernelKind::Blocked`].
fn lanes_for(kernel: KernelKind) -> Option<Lanes> {
    match kernel {
        KernelKind::Naive => None,
        KernelKind::Blocked => Lanes::detect(),
    }
}

/// Cheaply cloneable handle to a per-rank thread pool plus the selected
/// kernel engine; clones share the pool, the transpose scratch and the
/// FLOP counter.
#[derive(Clone, Debug)]
pub struct ComputeCtx {
    pool: Arc<Pool>,
    kernel: KernelKind,
    /// The lanes every kernel runs on: `Some` under
    /// [`KernelKind::Blocked`] where the CPU has AVX2, at its widest width
    /// (detected once, when the context is built), else `None` — the
    /// naive loops.
    lanes: Option<Lanes>,
    scratch: Arc<Scratch>,
}

impl ComputeCtx {
    /// A context of `threads` executors (min 1) on `kernel` with the
    /// given lanes; a non-AVX2 host builds a `Blocked` one without lanes.
    /// The width-parity tests pick the lanes here.
    fn new(threads: usize, kernel: KernelKind, lanes: Option<Lanes>) -> Self {
        Self {
            pool: Arc::new(Pool::new(threads)),
            kernel,
            lanes,
            scratch: Arc::new(Scratch::default()),
        }
    }

    /// A single-threaded context: every kernel runs inline on the caller.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A context with exactly `threads` executors (min 1); kernel engine
    /// from `PARGCN_KERNEL` (default blocked).
    pub fn with_threads(threads: usize) -> Self {
        let kernel = KernelKind::from_env();
        Self::new(threads, kernel, lanes_for(kernel))
    }

    /// A context for one of `ranks` simulated processors sharing the
    /// machine: `spec.threads` if given, else `PARGCN_THREADS`, else
    /// `available_parallelism / ranks` (see [`auto_threads`]); the kernel
    /// engine is `spec.kernel` if given, else `PARGCN_KERNEL`.
    pub fn for_ranks_spec(ranks: usize, spec: ComputeSpec) -> Self {
        let kernel = spec.kernel.unwrap_or_else(KernelKind::from_env);
        Self::new(auto_threads(ranks, spec.threads), kernel, lanes_for(kernel))
    }

    /// Replaces the kernel engine (builder-style, for benches/tests).
    pub fn with_kernel(self, kernel: KernelKind) -> Self {
        Self {
            kernel,
            lanes: lanes_for(kernel),
            ..self
        }
    }

    /// The blocked engine on `floats`-wide lanes (8 or 16) instead of the
    /// widest, or `None` where the CPU lacks them: for the kernel bench's
    /// per-width rows. Training always runs the widest lanes.
    #[doc(hidden)]
    pub fn with_lane_width(self, floats: usize) -> Option<Self> {
        let lanes = Lanes::of_width(floats)?;
        Some(Self {
            kernel: KernelKind::Blocked,
            lanes: Some(lanes),
            ..self
        })
    }

    /// The lanes the kernels run on, if any: `None` on the naive engine
    /// and on a CPU without AVX2.
    pub fn lanes(&self) -> Option<Lanes> {
        self.lanes
    }

    #[inline]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    #[inline]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// FLOPs dispatched through this context (and its clones) so far.
    pub fn flops(&self) -> u64 {
        self.scratch.flops.load(Ordering::Relaxed)
    }

    /// Drains the FLOP counter, returning the count accumulated since the
    /// last drain — the trainers call this once per run to credit the
    /// rank's `CommCounters`.
    pub fn take_flops(&self) -> u64 {
        self.scratch.flops.swap(0, Ordering::Relaxed)
    }

    #[inline]
    fn add_flops(&self, n: u64) {
        self.scratch.flops.fetch_add(n, Ordering::Relaxed);
    }

    /// Pre-sizes the lanes' `A·Bᵀ` transpose scratch so steady-state
    /// kernel calls never grow it — called once from
    /// `EpochWorkspace::new` with the run's largest operand shapes.
    pub fn reserve_pack(&self, floats: usize) {
        self.pack().reserve(floats);
    }

    fn pack(&self) -> std::sync::MutexGuard<'_, PackBuf> {
        self.scratch
            .pack
            .lock()
            .expect("a kernel panicked holding the pack")
    }

    /// `out (+)= a × b` on the selected engine.
    pub fn matmul_into(&self, a: &Dense, b: &Dense, out: &mut Dense, accumulate: bool) {
        self.add_flops(2 * (a.rows() * a.cols() * b.cols()) as u64);
        match self.lanes {
            None => dense::gemm(a, b, out, accumulate, Some(self.pool())),
            Some(l) => gemm::matmul_into(l, a, b, out, accumulate, self.pool()),
        }
    }

    /// `a × b` on the selected engine.
    pub fn matmul(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.cols());
        self.matmul_into(a, b, &mut out, false);
        out
    }

    /// `out = f(a × b)` (the forward layer's `H = σ(A·W)`, written in
    /// place of the product) on the selected engine; the lanes apply `f`
    /// as they store each block of rows. Bitwise identical to
    /// [`ComputeCtx::matmul_into`] followed by [`ComputeCtx::map_inplace`],
    /// and metered like the GEMM alone.
    pub fn matmul_map_into(
        &self,
        a: &Dense,
        b: &Dense,
        out: &mut Dense,
        f: impl Fn(f32) -> f32 + Sync,
    ) {
        self.add_flops(2 * (a.rows() * a.cols() * b.cols()) as u64);
        match self.lanes {
            None => {
                dense::gemm(a, b, out, false, Some(self.pool()));
                self.map_inplace(out, f);
            }
            Some(l) => gemm::matmul_map_into(l, a, b, out, f, self.pool()),
        }
    }

    /// `out = (a × bᵀ) ⊙ f(z)` (the backward layer's `S ⊙ σ′`, with `σ′`
    /// read off `H`) on the selected engine; the lanes multiply as they
    /// store.
    /// Bitwise identical to [`ComputeCtx::matmul_bt_into`] followed by
    /// `out ⊙= f(z)`, and metered like the GEMM alone.
    pub fn matmul_bt_scale_into(
        &self,
        a: &Dense,
        b: &Dense,
        z: &Dense,
        f: impl Fn(f32) -> f32 + Sync,
        out: &mut Dense,
    ) {
        self.add_flops(2 * (a.rows() * a.cols() * b.rows()) as u64);
        match self.lanes {
            None => {
                dense::gemm_bt(a, b, out, Some(self.pool()));
                out.mul_map_assign(z, f);
            }
            Some(l) => {
                gemm::matmul_bt_scale_into(l, a, b, z, f, out, &mut self.pack(), self.pool())
            }
        }
    }

    /// `out = a × bᵀ` on the selected engine.
    pub fn matmul_bt_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        self.add_flops(2 * (a.rows() * a.cols() * b.rows()) as u64);
        match self.lanes {
            None => dense::gemm_bt(a, b, out, Some(self.pool())),
            Some(l) => gemm::matmul_bt_into(l, a, b, out, &mut self.pack(), self.pool()),
        }
    }

    /// `a × bᵀ` on the selected engine.
    pub fn matmul_bt(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.rows(), b.rows());
        self.matmul_bt_into(a, b, &mut out);
        out
    }

    /// `out = aᵀ × b` (the parameter-gradient kernel) on the selected
    /// engine.
    pub fn matmul_at_into(&self, a: &Dense, b: &Dense, out: &mut Dense) {
        self.add_flops(2 * (a.rows() * a.cols() * b.cols()) as u64);
        match self.lanes {
            None => dense::gemm_at(a, b, out, Some(self.pool())),
            Some(l) => gemm::matmul_at_into(l, a, b, out, self.pool()),
        }
    }

    /// `aᵀ × b` on the selected engine.
    pub fn matmul_at(&self, a: &Dense, b: &Dense) -> Dense {
        let mut out = Dense::zeros(a.cols(), b.cols());
        self.matmul_at_into(a, b, &mut out);
        out
    }

    /// `out (+)= a × h` (SpMM) on the selected engine.
    pub fn spmm_into(&self, a: &Csr, h: &Dense, out: &mut Dense, accumulate: bool) {
        self.add_flops(2 * (a.nnz() * h.cols()) as u64);
        match self.lanes {
            None => csr::spmm_rows(a, h, out, accumulate, Some(self.pool())),
            Some(l) => spmm_kernel::spmm_into(l, a, h, out, accumulate, self.pool()),
        }
    }

    /// `a × h` (SpMM) on the selected engine.
    pub fn spmm(&self, a: &Csr, h: &Dense) -> Dense {
        let mut out = Dense::zeros(a.n_rows(), h.cols());
        self.spmm_into(a, h, &mut out, false);
        out
    }

    /// `m ← f(m)`, element by element, rows split across the pool. The
    /// same loop on either engine (an element-wise map has no summation
    /// order to keep), so bitwise identical at any thread count; it does
    /// no metered arithmetic and adds nothing to the FLOP counter.
    pub fn map_inplace(&self, m: &mut Dense, f: impl Fn(f32) -> f32 + Sync) {
        dense::map_rows(m, Some(self.pool()), f);
    }

    /// Masked softmax cross-entropy of `h` into `grad` (overwritten),
    /// normalised by `count`; returns the loss (see
    /// [`crate::softmax`]). The lanes run eight rows per AVX2 register at
    /// either width;
    /// without them the rows run one at a time, with the same bits.
    pub fn softmax_cross_entropy_into(
        &self,
        h: &Dense,
        labels: &[u32],
        mask: &[bool],
        count: f64,
        grad: &mut Dense,
    ) -> f64 {
        softmax::softmax_cross_entropy_into(h, labels, mask, count, grad, self.lanes)
    }
}

impl Default for ComputeCtx {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ctx_has_one_thread() {
        assert_eq!(ComputeCtx::serial().threads(), 1);
        assert_eq!(ComputeCtx::default().threads(), 1);
    }

    #[test]
    fn explicit_threads_win() {
        let spec = ComputeSpec {
            threads: Some(3),
            kernel: None,
        };
        assert_eq!(ComputeCtx::for_ranks_spec(4, spec).threads(), 3);
    }

    #[test]
    fn clone_shares_the_pool() {
        let ctx = ComputeCtx::with_threads(2);
        let clone = ctx.clone();
        assert!(std::ptr::eq(ctx.pool(), clone.pool()));
    }

    #[test]
    fn kernel_kind_parses() {
        assert_eq!(KernelKind::parse("naive"), Some(KernelKind::Naive));
        assert_eq!(KernelKind::parse("Blocked"), Some(KernelKind::Blocked));
        assert_eq!(KernelKind::parse("simd"), None);
        assert_eq!(KernelKind::Naive.name(), "naive");
    }

    #[test]
    fn spec_kernel_overrides_env_default() {
        let spec = ComputeSpec {
            threads: Some(1),
            kernel: Some(KernelKind::Naive),
        };
        assert_eq!(
            ComputeCtx::for_ranks_spec(2, spec).kernel(),
            KernelKind::Naive
        );
        let ctx = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
        assert_eq!(ctx.kernel(), KernelKind::Blocked);
    }

    #[test]
    fn flops_are_counted_from_shapes_and_shared_by_clones() {
        let ctx = ComputeCtx::serial();
        ctx.take_flops();
        let a = Dense::zeros(10, 4);
        let b = Dense::zeros(4, 3);
        let _ = ctx.matmul(&a, &b); // 2*10*4*3 = 240
        let clone = ctx.clone();
        let _ = clone.matmul_bt(&b, &b); // 2*4*3*4 = 96
        let mut m = Dense::zeros(10, 4);
        clone.map_inplace(&mut m, |v| v + 1.0); // element-wise: no FLOPs
        assert_eq!(ctx.flops(), 240 + 96);
        assert_eq!(ctx.take_flops(), 336);
        assert_eq!(ctx.flops(), 0);
    }

    #[test]
    fn kernel_env_keeps_the_default_only_when_unset() {
        assert_eq!(KernelKind::from_env_value(None), KernelKind::Blocked);
        assert_eq!(KernelKind::from_env_value(Some("")), KernelKind::Blocked);
        assert_eq!(KernelKind::from_env_value(Some("Naive")), KernelKind::Naive);
        assert_eq!(
            KernelKind::from_env_value(Some(" blocked")),
            KernelKind::Blocked
        );
    }

    #[test]
    #[should_panic(expected = "PARGCN_KERNEL=\"blokced\" is not a kernel engine")]
    fn kernel_env_misspelling_panics_naming_the_value() {
        KernelKind::from_env_value(Some("blokced"));
    }

    use pargcn_util::rng::{Rng, SeedableRng, StdRng};

    /// Operands for every dispatched op: `a` is `m×k`, `b` `k×n`, `bt`
    /// `n×k`, `g` `m×n` (also `H` of the SpMM and the loss's logits),
    /// `csr` `m×m`, and the accumulators `m×n`.
    struct Operands {
        a: Dense,
        b: Dense,
        bt: Dense,
        g: Dense,
        csr: Csr,
        labels: Vec<u32>,
        mask: Vec<bool>,
        /// Accumulators to add into: holding `-0.0`, NaN or ±∞ when the
        /// operands do.
        seed: Dense,
    }

    /// One operand value: uniform in (−2, 2) with exact zeros, and with
    /// `special`, also `-0.0`, NaN and ±∞.
    fn value(rng: &mut StdRng, special: bool) -> f32 {
        match (special, rng.gen_range(0..16u32)) {
            (_, 0..=2) => 0.0,
            (true, 3) => -0.0,
            (true, 4) => f32::NAN,
            (true, 5) => f32::INFINITY,
            (true, 6) => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0..2.0f32),
        }
    }

    fn operands(rng: &mut StdRng, (m, k, n): (usize, usize, usize), special: bool) -> Operands {
        let mut dense = |r, c| Dense::from_fn(r, c, |_, _| value(rng, special));
        let (a, b, bt, g, seed) = (
            dense(m, k),
            dense(k, n),
            dense(n, k),
            dense(m, n),
            dense(m, n),
        );
        // About a third of the rows empty, the rest up to six entries.
        let mut coo = Vec::new();
        for r in 0..m {
            for _ in 0..[0, 0, 1, 2, 4, 6][rng.gen_range(0..6usize)] {
                let c = rng.gen_range(0..m as u32);
                coo.push((r as u32, c, value(rng, special)));
            }
        }
        Operands {
            a,
            b,
            bt,
            g,
            csr: Csr::from_coo(m, m, coo),
            labels: (0..m).map(|_| rng.gen_range(0..n.max(1) as u32)).collect(),
            mask: (0..m).map(|i| i % 3 != 0).collect(),
            seed,
        }
    }

    /// Every dispatched op on `x`: each output's bits (any NaN read as
    /// one NaN), the loss's bits and the FLOPs the context metered.
    fn every_op(ctx: &ComputeCtx, x: &Operands) -> (Vec<Vec<u32>>, u64, u64) {
        let bits = |d: &Dense| {
            let nan = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
            d.data()
                .iter()
                .map(|v| nan(v).to_bits())
                .collect::<Vec<_>>()
        };
        let relu = |v: f32| v.max(0.0);
        let (m, n) = (x.a.rows(), x.b.cols());
        let mut outs = vec![
            ctx.matmul(&x.a, &x.b),
            ctx.matmul_bt(&x.a, &x.bt),
            ctx.matmul_at(&x.a, &x.g),
            ctx.spmm(&x.csr, &x.g),
        ];
        // Accumulate into a sum-reachable output and into the seed.
        for seed in [ctx.matmul(&x.a, &x.b), x.seed.clone()] {
            let mut acc = seed.clone();
            ctx.matmul_into(&x.a, &x.b, &mut acc, true);
            let mut acc_s = seed;
            ctx.spmm_into(&x.csr, &x.g, &mut acc_s, true);
            outs.extend([acc, acc_s]);
        }
        let mut h = Dense::zeros(m, n);
        ctx.matmul_map_into(&x.a, &x.b, &mut h, relu);
        let mut s = Dense::zeros(m, n);
        ctx.matmul_bt_scale_into(&x.a, &x.bt, &x.g, relu, &mut s);
        let mut grad = Dense::zeros(m, n);
        let loss = ctx.softmax_cross_entropy_into(&x.g, &x.labels, &x.mask, 7.0, &mut grad);
        outs.extend([h, s, grad]);
        let outs = outs.iter().map(bits).collect();
        (outs, loss.to_bits(), ctx.take_flops())
    }

    /// What a host without AVX2 builds for the blocked engine — a context
    /// without lanes — agrees with naive bit for bit on every op and
    /// meters the same FLOPs.
    #[test]
    fn a_blocked_context_with_no_lanes_runs_the_naive_loops() {
        let mut rng = StdRng::seed_from_u64(5);
        // Past the parallel cutoff, with exact zeros and special values.
        for special in [false, true] {
            let x = operands(&mut rng, (300, 24, 20), special);
            for t in [1, 3] {
                let naive = ComputeCtx::new(t, KernelKind::Naive, None);
                let blocked = ComputeCtx::new(t, KernelKind::Blocked, None);
                assert_eq!(blocked.kernel(), KernelKind::Blocked);
                assert_eq!(every_op(&naive, &x), every_op(&blocked, &x), "t={t}");
            }
        }
    }

    /// The lanes of `floats` width agree with the naive loops bit for bit
    /// on every op at every output width 1–130 (`A·B`, `A·Bᵀ` and `Aᵀ·B`
    /// columns, SpMM's `H`), with empty CSR rows, every other width with
    /// NaN, ±∞ and `-0.0` operands (which take `Aᵀ·B`'s masked path), on
    /// 1 and 3 threads, and meter the same FLOPs. Where the CPU lacks the
    /// width, it says so instead of passing silently.
    fn lanes_match_naive_at_every_width(floats: usize) {
        let Some(lanes) = Lanes::of_width(floats) else {
            eprintln!("skipped: this CPU has no {floats}-float lanes, so they are unchecked here");
            return;
        };
        let mut rng = StdRng::seed_from_u64(floats as u64);
        for n in 1..=130 {
            let shape = (37, 3 + n % 7, n);
            let x = operands(&mut rng, shape, n % 2 == 0);
            for t in [1, 3] {
                let naive = ComputeCtx::new(t, KernelKind::Naive, None);
                let wide = ComputeCtx::new(t, KernelKind::Blocked, Some(lanes));
                assert_eq!(
                    every_op(&naive, &x),
                    every_op(&wide, &x),
                    "{} lanes, m×k×n = {shape:?}, t={t}",
                    lanes.name()
                );
            }
        }
    }

    #[test]
    fn width_parity_avx2_lanes_match_naive() {
        lanes_match_naive_at_every_width(8);
    }

    #[test]
    fn width_parity_avx512_lanes_match_naive() {
        lanes_match_naive_at_every_width(16);
    }

    /// `detect` picks the widest lanes the CPU has, and a context for the
    /// bench's per-width rows runs the width it names.
    #[test]
    fn width_parity_detect_picks_the_widest() {
        let widest = Lanes::of_width(16).or_else(|| Lanes::of_width(8));
        assert_eq!(Lanes::detect(), widest);
        assert_eq!(
            ComputeCtx::serial()
                .with_kernel(KernelKind::Blocked)
                .lanes(),
            widest
        );
        assert_eq!(
            ComputeCtx::serial().with_kernel(KernelKind::Naive).lanes(),
            None
        );
        for floats in [8, 16] {
            let ctx = ComputeCtx::serial().with_kernel(KernelKind::Naive);
            let lanes = ctx.with_lane_width(floats).and_then(|c| c.lanes());
            assert_eq!(lanes, Lanes::of_width(floats));
            assert!(lanes.is_none_or(|l| l.width() == floats));
        }
    }

    #[test]
    fn dispatch_engines_agree_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Dense::random(30, 12, &mut rng);
        let b = Dense::random(12, 9, &mut rng);
        let naive = ComputeCtx::serial().with_kernel(KernelKind::Naive);
        let blocked = ComputeCtx::serial().with_kernel(KernelKind::Blocked);
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&naive.matmul(&a, &b)), bits(&blocked.matmul(&a, &b)));
    }
}
