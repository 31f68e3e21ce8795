//! Epoch-level metrics and the cost-model composition of a full training
//! epoch — the quantities the paper's tables and figures report.

use crate::model::GcnConfig;
use crate::plan::CommPlan;
use pargcn_comm::costmodel::{self, MachineProfile, PhaseTime};
use pargcn_comm::CommCounters;

/// Aggregate communication metrics of a run, in the normalized form of the
/// paper's Table 2.
#[derive(Clone, Debug, Default)]
pub struct VolumeStats {
    pub avg_sent_bytes: f64,
    pub max_sent_bytes: u64,
    pub avg_sent_messages: f64,
    pub max_sent_messages: u64,
}

impl VolumeStats {
    /// Builds from per-rank counters.
    pub fn from_counters(counters: &[CommCounters]) -> VolumeStats {
        let p = counters.len().max(1) as f64;
        let total_bytes: u64 = counters.iter().map(|c| c.sent_bytes).sum();
        let total_msgs: u64 = counters.iter().map(|c| c.sent_messages).sum();
        VolumeStats {
            avg_sent_bytes: total_bytes as f64 / p,
            max_sent_bytes: counters.iter().map(|c| c.sent_bytes).max().unwrap_or(0),
            avg_sent_messages: total_msgs as f64 / p,
            max_sent_messages: counters.iter().map(|c| c.sent_messages).max().unwrap_or(0),
        }
    }
}

/// Cost-model time of one full training epoch (feedforward + backprop +
/// per-layer `ΔW` allreduce) for the point-to-point algorithm.
///
/// Per layer `k` (widths `d_{k-1} → d_k`):
/// * the feedforward exchange carries `w`-wide rows and performs
///   `2·nnz·w` SpMM FLOPs plus `2·n_m·d_{k-1}·d_k` DMM FLOPs, where `w` is
///   [`GcnConfig::forward_width`]: `d_{k-1}` (`H`) under SpmmFirst,
///   `d_k` (`H·W`) under DmmFirst;
/// * the backprop exchange carries `d_k`-wide `G` rows, SpMMs at `d_k`, and
///   performs two DMMs (`Sᵏ` and `ΔWᵏ`), `4·d_{k-1}·d_k` FLOPs per row;
/// * the allreduce moves the `d_{k-1}×d_k` gradient in a log tree.
pub fn simulate_epoch(
    plan_f: &CommPlan,
    plan_b: &CommPlan,
    config: &GcnConfig,
    profile: &MachineProfile,
) -> PhaseTime {
    let mut phases = Vec::with_capacity(config.layers() * 2);
    let mut collectives = 0.0;
    for k in 1..=config.layers() {
        let (d_in, d_out) = (config.dims[k - 1], config.dims[k]);
        let w = config.forward_width(k);
        phases.push(costmodel::phase_time(
            profile,
            &plan_f.phase_costs(w, w, 2.0 * d_in as f64 * d_out as f64),
        ));
        phases.push(costmodel::phase_time(
            profile,
            &plan_b.phase_costs(d_out, d_out, 4.0 * d_in as f64 * d_out as f64),
        ));
        collectives += profile.allreduce_time((d_in * d_out * 4) as u64, plan_f.p);
    }
    costmodel::epoch_time(&phases, collectives)
}

/// Cost-model time of one *serial* epoch on a single node — the role the
/// DGL baseline plays in the paper's speedup columns.
pub fn simulate_serial_epoch(
    nnz: usize,
    n: usize,
    config: &GcnConfig,
    profile: &MachineProfile,
) -> f64 {
    let mut spmm_flops = 0.0f64;
    let mut dmm_flops = 0.0f64;
    for k in 1..=config.layers() {
        let (d_in, d_out) = (config.dims[k - 1] as f64, config.dims[k] as f64);
        // Forward: SpMM + DMM. Backward: SpMM on G (d_out wide) + 2 DMMs.
        spmm_flops += 2.0 * nnz as f64 * (d_in + d_out);
        dmm_flops += 6.0 * n as f64 * d_in * d_out;
    }
    profile.compute_time(spmm_flops) + profile.dmm_time(dmm_flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GcnConfig;
    use pargcn_graph::gen::grid;
    use pargcn_partition::{partition_rows, Method};

    fn plans(p: usize) -> (CommPlan, usize, usize) {
        plans_sized(p, 600)
    }

    fn plans_sized(p: usize, n: usize) -> (CommPlan, usize, usize) {
        let g = grid::road_network(n, 1);
        let a = g.normalized_adjacency();
        let part = partition_rows(&g, &a, Method::Hp, p, 0.05, 2);
        (CommPlan::build(&a, &part), a.nnz(), g.n())
    }

    #[test]
    fn volume_stats_from_counters() {
        let counters = vec![
            CommCounters {
                sent_bytes: 100,
                sent_messages: 2,
                ..Default::default()
            },
            CommCounters {
                sent_bytes: 300,
                sent_messages: 4,
                ..Default::default()
            },
        ];
        let v = VolumeStats::from_counters(&counters);
        assert_eq!(v.avg_sent_bytes, 200.0);
        assert_eq!(v.max_sent_bytes, 300);
        assert_eq!(v.max_sent_messages, 4);
    }

    #[test]
    fn simulated_epoch_is_positive_and_decomposes() {
        let (plan, ..) = plans(4);
        let config = GcnConfig::two_layer(16, 16, 4);
        let t = simulate_epoch(&plan, &plan, &config, &MachineProfile::cpu_cluster());
        assert!(t.total > 0.0);
        assert!((t.comm + t.comp - t.total).abs() < 1e-12 * t.total.max(1.0));
    }

    #[test]
    fn parallel_beats_serial_baseline_at_scale() {
        // The DGL baseline is a whole 16-core server, so few cluster cores
        // lose to it (paper Fig. 3 starts at P=16 barely ahead); enough
        // cores win decisively.
        let (plan, nnz, n) = plans_sized(64, 20_000);
        let config = GcnConfig::two_layer(32, 32, 8);
        let profile = MachineProfile::cpu_cluster();
        let serial = simulate_serial_epoch(nnz, n, &config, &MachineProfile::single_node());
        let par = simulate_epoch(&plan, &plan, &config, &profile).total;
        assert!(
            par < serial,
            "64-way parallel {par:.6} should beat the DGL-class baseline {serial:.6}"
        );
    }

    #[test]
    fn more_ranks_reduce_time_with_good_partitions() {
        let config = GcnConfig::two_layer(32, 32, 8);
        let profile = MachineProfile::cpu_cluster();
        let (p4, ..) = plans_sized(4, 5000);
        let (p16, ..) = plans_sized(16, 5000);
        let t4 = simulate_epoch(&p4, &p4, &config, &profile).total;
        let t16 = simulate_epoch(&p16, &p16, &config, &profile).total;
        assert!(t16 < t4, "scaling broken: t4={t4} t16={t16}");
    }
}
