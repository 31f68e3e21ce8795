//! Per-rank communication counters and phase timers.
//!
//! These counters are the runtime-side ground truth for Table 2's volume and
//! message metrics; the `pargcn-core` tests assert they agree exactly with
//! the static predictions of `pargcn_partition::metrics`.

/// Message/byte counts and blocking-time accounting for one rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommCounters {
    /// Point-to-point messages sent via `isend`.
    pub sent_messages: u64,
    /// Point-to-point payload bytes sent via `isend`.
    pub sent_bytes: u64,
    /// Point-to-point messages received.
    pub recv_messages: u64,
    /// Point-to-point payload bytes received.
    pub recv_bytes: u64,
    /// Messages attributed to collectives (allreduce/broadcast).
    pub collective_messages: u64,
    /// Bytes attributed to collectives.
    pub collective_bytes: u64,
    /// Set-up messages sent with [`RankCtx::setup_send`]: the exchange
    /// through which ranks build their plans, counted at the sender and
    /// kept out of `sent_*`, `recv_*` and `collective_*`, so those stay
    /// exactly the training traffic the plans predict.
    ///
    /// [`RankCtx::setup_send`]: crate::RankCtx::setup_send
    pub setup_messages: u64,
    /// Payload bytes of the set-up messages.
    pub setup_bytes: u64,
    /// Heap allocations performed *inside* the runtime's hot-path methods
    /// (`acquire`/`isend`/`recv*`/`release`/`allreduce_sum`/`broadcast_lend`)
    /// on this rank's thread. Only counts when
    /// `pargcn_util::allocmeter::CountingAllocator` is the installed
    /// global allocator (test binaries opt in); always 0 otherwise. The
    /// steady-state contract — warm pools make every message round-trip
    /// allocation-free — is asserted on this field.
    pub comm_path_allocs: u64,
    /// Wall seconds this rank spent blocked in receives and collectives.
    pub comm_seconds: f64,
    /// Wall seconds this rank spent *not* blocked on communication — local
    /// kernel work (SpMM/DMM/activations), regardless of how many pool
    /// threads executed it. Recorded by the trainers as
    /// `epoch wall time − comm_seconds`, so `comm + compute` for a rank is
    /// its end-to-end wall time and the compute/comm split of fig4a is
    /// measurable per rank.
    pub compute_seconds: f64,
    /// Floating-point operations this rank's kernels performed, counted
    /// from operand shapes at dispatch (2·m·k·n per GEMM, 2·nnz·d per
    /// SpMM) by `pargcn_matrix::ComputeCtx` and drained here by the
    /// trainers. `compute_flops / compute_seconds` is the rank's
    /// sustained arithmetic rate, reported as GFLOP/s by the bench
    /// harness.
    pub compute_flops: u64,
}

impl CommCounters {
    /// Element-wise sum; used to aggregate counters across ranks.
    pub fn merged(ranks: &[CommCounters]) -> CommCounters {
        let mut out = CommCounters::default();
        for c in ranks {
            out.sent_messages += c.sent_messages;
            out.sent_bytes += c.sent_bytes;
            out.recv_messages += c.recv_messages;
            out.recv_bytes += c.recv_bytes;
            out.collective_messages += c.collective_messages;
            out.collective_bytes += c.collective_bytes;
            out.setup_messages += c.setup_messages;
            out.setup_bytes += c.setup_bytes;
            out.comm_path_allocs += c.comm_path_allocs;
            out.comm_seconds += c.comm_seconds;
            out.compute_seconds += c.compute_seconds;
            out.compute_flops += c.compute_flops;
        }
        out
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = CommCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = CommCounters {
            sent_messages: 2,
            sent_bytes: 100,
            ..Default::default()
        };
        let b = CommCounters {
            sent_messages: 3,
            recv_bytes: 50,
            setup_messages: 4,
            setup_bytes: 64,
            ..Default::default()
        };
        let m = CommCounters::merged(&[a, b]);
        assert_eq!(m.sent_messages, 5);
        assert_eq!((m.setup_messages, m.setup_bytes), (4, 64));
        assert_eq!(m.sent_bytes, 100);
        assert_eq!(m.recv_bytes, 50);
        assert_eq!(m.compute_seconds, 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = CommCounters {
            sent_messages: 9,
            comm_seconds: 1.5,
            ..Default::default()
        };
        c.reset();
        assert_eq!(c, CommCounters::default());
    }
}
