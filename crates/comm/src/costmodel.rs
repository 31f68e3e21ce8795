//! α–β–γ machine model: composes exact per-rank FLOP and message/byte
//! counts into epoch times at processor counts far beyond one machine.
//!
//! The substitution argument (DESIGN.md §1): the paper's headline results
//! are *shapes* — who wins, where the comm/comp crossover falls, how the
//! scaling curve bends. Those are functions of per-rank work and traffic
//! (which this reproduction measures exactly) composed through a standard
//! LogP-style cost model:
//!
//! * each message costs `α` (latency) plus `β` per byte (bandwidth);
//! * each floating-point operation costs `γ`;
//! * a phase's time is the max over ranks (bulk-synchronous bound);
//! * with `overlap`, point-to-point transfers hide behind the local-block
//!   multiply, as Algorithm 1's non-blocking sends are designed to do; the
//!   NCCL/GPU profile disables overlap ("with the NCCL backend these are
//!   not as effective as with MPI", §5).

/// Machine profile for the cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineProfile {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Per-byte transfer cost, seconds (inverse effective bandwidth).
    pub beta: f64,
    /// Per-FLOP cost of the memory-bound SpMM, seconds. Sparse kernels run
    /// far below peak (irregular gathers), so this is 1–2 GFLOP/s-class on
    /// CPUs.
    pub gamma: f64,
    /// Per-FLOP cost of dense DMM, seconds. Dense kernels are compute-bound
    /// and 10–30× faster per FLOP than SpMM — the reason the paper's
    /// nnz-only vertex weights balance total compute in practice.
    pub gamma_dmm: f64,
    /// Whether point-to-point transfers overlap the local-block compute.
    pub overlap: bool,
    /// Name for report output.
    pub name: &'static str,
}

impl MachineProfile {
    /// CPU cluster: MPI over 100 Gbit/s InfiniBand, Xeon 8268 cores.
    /// Effective per-core sparse throughput ~2 GFLOP/s; rendezvous latency
    /// ~3 µs; per-core effective bandwidth ~2 GB/s. Non-blocking MPI
    /// overlaps transfers with compute.
    pub fn cpu_cluster() -> Self {
        Self {
            alpha: 3e-6,
            beta: 5e-10,
            gamma: 5e-10,
            gamma_dmm: 3e-11,
            overlap: true,
            name: "cpu",
        }
    }

    /// GPU cluster: NCCL over the same fabric, A100 compute. Effective
    /// sparse throughput ~100 GFLOP/s (memory-bound SpMM), but NCCL's
    /// kernel-launch/rendezvous latency is tens of microseconds and the
    /// PyTorch+NCCL pipeline cannot overlap with compute.
    pub fn gpu_cluster() -> Self {
        Self {
            alpha: 4e-5,
            beta: 4e-10,
            gamma: 1e-11,
            gamma_dmm: 1e-12,
            overlap: false,
            name: "gpu",
        }
    }

    /// Single-node DGL baseline machine: the paper's speedup denominators
    /// come from DGL (PyTorch backend) on a 16-core 3.9 GHz Xeon with
    /// MKL-threaded kernels — a whole multi-core server, not one core. An
    /// effective ~40 GFLOP/s for the SpMM/DMM mix models that, and is what
    /// keeps the Table 2 speedups in the paper's 5–30× band instead of the
    /// ~p× a one-core baseline would give.
    pub fn single_node() -> Self {
        Self {
            alpha: 0.0,
            beta: 0.0,
            gamma: 2.5e-11,
            gamma_dmm: 3e-12,
            overlap: false,
            name: "single",
        }
    }

    /// Time to transfer `messages` messages totalling `bytes`.
    #[inline]
    fn transfer_time(&self, messages: u64, bytes: u64) -> f64 {
        self.alpha * messages as f64 + self.beta * bytes as f64
    }

    /// Time to execute `flops` SpMM floating-point operations.
    #[inline]
    pub fn compute_time(&self, flops: f64) -> f64 {
        self.gamma * flops
    }

    /// Time to execute `flops` dense-matrix floating-point operations.
    #[inline]
    pub fn dmm_time(&self, flops: f64) -> f64 {
        self.gamma_dmm * flops
    }

    /// Log-tree allreduce time for a buffer of `bytes` over `p` ranks.
    /// Since the binomial-tree rewrite of `RankCtx::allreduce_sum` this is
    /// also the shape the runtime executes (⌈log₂ p⌉ rounds, 2(p−1)
    /// messages), not just a model of an idealized MPI implementation.
    pub fn allreduce_time(&self, bytes: u64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * (self.alpha + self.beta * bytes as f64)
    }

    /// Log-tree broadcast time for `bytes` over `p` ranks (matches the
    /// runtime's binomial-tree `RankCtx::broadcast_lend`: p−1 messages in
    /// ⌈log₂ p⌉ rounds).
    pub fn broadcast_time(&self, bytes: u64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * (self.alpha + self.beta * bytes as f64)
    }
}

/// Exact per-rank cost of one communication/computation phase (one SpMM
/// layer sweep in feedforward or backpropagation).
#[derive(Clone, Copy, Debug, Default)]
pub struct RankPhaseCost {
    /// FLOPs computable before any remote data is needed (the local block
    /// multiply `Aₘ·Hₘ·W` of Algorithm 1 line 6).
    pub local_flops: f64,
    /// SpMM FLOPs depending on received rows (lines 8–9).
    pub remote_flops: f64,
    /// Dense-matrix FLOPs of the phase (applying the replicated `W`).
    pub dmm_flops: f64,
    /// Point-to-point messages this rank sends in the phase.
    pub sent_messages: u64,
    /// Point-to-point bytes this rank sends in the phase.
    pub sent_bytes: u64,
    /// Point-to-point messages this rank receives.
    pub recv_messages: u64,
    /// Point-to-point bytes this rank receives.
    pub recv_bytes: u64,
}

/// Time and breakdown of one phase: the bulk-synchronous max over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTime {
    pub total: f64,
    /// Portion attributable to communication (after overlap).
    pub comm: f64,
    /// Portion attributable to computation.
    pub comp: f64,
}

/// Evaluates one phase under `profile`. Per rank:
///
/// * comm time = max(send cost, receive cost) — full-duplex NICs;
/// * with overlap: `max(local compute, comm) + remote compute`;
/// * without:     `local compute + comm + remote compute`.
///
/// The phase completes when the slowest rank does.
pub fn phase_time(profile: &MachineProfile, ranks: &[RankPhaseCost]) -> PhaseTime {
    let mut worst = PhaseTime::default();
    for r in ranks {
        let send = profile.transfer_time(r.sent_messages, r.sent_bytes);
        let recv = profile.transfer_time(r.recv_messages, r.recv_bytes);
        let comm = send.max(recv);
        let local = profile.compute_time(r.local_flops);
        let remote = profile.compute_time(r.remote_flops) + profile.dmm_time(r.dmm_flops);
        let (total, comm_part) = if profile.overlap {
            let first = local.max(comm);
            (first + remote, (comm - local).max(0.0))
        } else {
            (local + comm + remote, comm)
        };
        if total > worst.total {
            worst = PhaseTime {
                total,
                comm: comm_part,
                comp: total - comm_part,
            };
        }
    }
    worst
}

/// Sums phase times into an epoch, adding collective costs.
pub fn epoch_time(phases: &[PhaseTime], collectives: f64) -> PhaseTime {
    let mut out = PhaseTime {
        total: collectives,
        comm: collectives,
        comp: 0.0,
    };
    for ph in phases {
        out.total += ph.total;
        out.comm += ph.comm;
        out.comp += ph.comp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_alpha_beta_linear() {
        let m = MachineProfile {
            alpha: 1e-6,
            beta: 1e-9,
            gamma: 0.0,
            gamma_dmm: 0.0,
            overlap: false,
            name: "t",
        };
        let t = m.transfer_time(10, 1_000_000);
        assert!((t - (1e-5 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn overlap_hides_communication_behind_local_compute() {
        let m = MachineProfile {
            alpha: 0.0,
            beta: 1e-9,
            gamma: 1e-9,
            gamma_dmm: 1e-9,
            overlap: true,
            name: "o",
        };
        let cost = RankPhaseCost {
            local_flops: 2000.0,
            remote_flops: 100.0,
            sent_bytes: 1000,
            recv_bytes: 500,
            ..Default::default()
        };
        let t = phase_time(&m, &[cost]);
        // comm (1 µs) < local compute (2 µs): fully hidden.
        assert!((t.total - 2.1e-6).abs() < 1e-12, "{t:?}");
        assert_eq!(t.comm, 0.0);
    }

    #[test]
    fn no_overlap_serializes() {
        let m = MachineProfile {
            alpha: 0.0,
            beta: 1e-9,
            gamma: 1e-9,
            gamma_dmm: 1e-9,
            overlap: false,
            name: "s",
        };
        let cost = RankPhaseCost {
            local_flops: 2000.0,
            remote_flops: 100.0,
            sent_bytes: 1000,
            ..Default::default()
        };
        let t = phase_time(&m, &[cost]);
        assert!((t.total - 3.1e-6).abs() < 1e-12, "{t:?}");
        assert!((t.comm - 1.0e-6).abs() < 1e-12);
    }

    #[test]
    fn slowest_rank_bounds_the_phase() {
        let m = MachineProfile::cpu_cluster();
        let fast = RankPhaseCost {
            local_flops: 1e6,
            ..Default::default()
        };
        let slow = RankPhaseCost {
            local_flops: 9e6,
            ..Default::default()
        };
        let t = phase_time(&m, &[fast, slow]);
        assert!((t.total - m.compute_time(9e6)).abs() < 1e-15);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = MachineProfile::cpu_cluster();
        let t8 = m.allreduce_time(1024, 8);
        let t64 = m.allreduce_time(1024, 64);
        assert!((t64 / t8 - 2.0).abs() < 1e-9, "log2(64)/log2(8) = 2");
        assert_eq!(m.allreduce_time(1024, 1), 0.0);
    }

    #[test]
    fn gpu_profile_has_higher_latency_lower_gamma() {
        let cpu = MachineProfile::cpu_cluster();
        let gpu = MachineProfile::gpu_cluster();
        assert!(gpu.alpha > cpu.alpha);
        assert!(gpu.gamma < cpu.gamma);
        assert!(!gpu.overlap && cpu.overlap);
    }

    #[test]
    fn epoch_time_accumulates() {
        let phases = [
            PhaseTime {
                total: 1.0,
                comm: 0.4,
                comp: 0.6,
            },
            PhaseTime {
                total: 2.0,
                comm: 0.5,
                comp: 1.5,
            },
        ];
        let e = epoch_time(&phases, 0.25);
        assert!((e.total - 3.25).abs() < 1e-12);
        assert!((e.comm - 1.15).abs() < 1e-12);
        assert!((e.comp - 2.1).abs() < 1e-12);
    }
}
