//! The benchmark's workloads, the inputs each one generates from its seed,
//! and the exact counts a training step must produce.

use crate::trace::Tracer;
use pargcn_comm::CommCounters;
use pargcn_core::optim::Optimizer;
use pargcn_core::{CommPlan, GcnConfig, LayerOrder, PlanBuilder};
use pargcn_graph::{Dataset, Graph, Scale};
use pargcn_matrix::{gather, Csr, Dense};
use pargcn_partition::{partition_rows, Method, Partition, DEFAULT_EPSILON};
use pargcn_util::rng::{Rng, SeedableRng, StdRng};

/// How a workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-batch epochs of the point-to-point trainer (`dist`).
    P2p,
    /// Full-batch epochs of the CAGNET broadcast baseline.
    Cagnet,
    /// A `MinibatchEngine` stream of uniform-vertex batches.
    Minibatch,
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Divisor applied to the paper's dataset size.
    pub scale: u32,
    pub method: Method,
    pub kind: Kind,
}

/// The benchmark's workloads; README.md gives the reason for each.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fullbatch-hp-dblp",
        dataset: Dataset::CoPapersDblp,
        scale: 64,
        method: Method::Hp,
        kind: Kind::P2p,
    },
    Workload {
        name: "fullbatch-rp-road",
        dataset: Dataset::RoadNetCa,
        scale: 16,
        method: Method::Rp,
        kind: Kind::P2p,
    },
    Workload {
        name: "cagnet-rp-road",
        dataset: Dataset::RoadNetCa,
        scale: 16,
        method: Method::Rp,
        kind: Kind::Cagnet,
    },
    Workload {
        name: "minibatch-hp-amazon",
        dataset: Dataset::Amazon0601,
        scale: 16,
        method: Method::Hp,
        kind: Kind::Minibatch,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The model every workload trains: 32-32-16, SGD, aggregate first.
pub fn model() -> GcnConfig {
    GcnConfig {
        dims: vec![32, 32, 16],
        learning_rate: 0.1,
        order: LayerOrder::SpmmFirst,
        optimizer: Optimizer::Sgd,
    }
}

/// Generated training inputs.
pub struct Inputs {
    pub graph: Graph,
    pub h0: Dense,
    pub labels: Vec<u32>,
    pub mask: Vec<bool>,
    pub a: Csr,
    pub part: Partition,
}

impl Inputs {
    /// Generates the workload's graph and random features and labels
    /// (the paper's Table 2 protocol) from `seed`, then normalizes the
    /// adjacency and partitions its rows over `p` ranks.
    pub fn build(w: &Workload, seed: u64, p: usize, tr: &mut Tracer, rep: u32) -> Inputs {
        let graph = tr.span("graph.generate", rep, |_| {
            w.dataset.generate(Scale(w.scale), seed).graph
        });
        let n = graph.n();
        let dims = model().dims;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfea7);
        let h0 = Dense::random(n, dims[0], &mut rng);
        let classes = dims[dims.len() - 1] as u32;
        let labels = (0..n).map(|_| rng.gen_range(0..classes)).collect();
        let mask = vec![true; n];
        let a = tr.span("graph.normalize", rep, |_| graph.normalized_adjacency());
        let part = tr.span("partition.partition_rows", rep, |_| {
            partition_rows(&graph, &a, w.method, p, DEFAULT_EPSILON, seed)
        });
        Inputs {
            graph,
            h0,
            labels,
            mask,
            a,
            part,
        }
    }

    /// Imbalance of the partition's SpMM work: the busiest rank's nonzero
    /// count over the mean, minus one.
    pub fn imbalance(&self) -> f64 {
        let weights: Vec<u64> = (0..self.a.n_rows())
            .map(|i| self.a.row_nnz(i) as u64)
            .collect();
        self.part.imbalance(&weights)
    }
}

/// Forward plan and, for directed graphs, the transposed backward plan.
pub struct Plans {
    pub f: CommPlan,
    b: Option<CommPlan>,
}

impl Plans {
    pub fn build(a: &Csr, part: &Partition, directed: bool, builder: &mut PlanBuilder) -> Plans {
        let f = builder.build(a, part);
        let b = directed.then(|| builder.build(&a.transpose(), part));
        Plans { f, b }
    }

    pub fn backward(&self) -> &CommPlan {
        self.b.as_ref().unwrap_or(&self.f)
    }
}

/// One rank's slice of the inputs.
pub struct Local {
    pub h: Dense,
    pub labels: Vec<u32>,
    pub mask: Vec<bool>,
}

/// Every rank's slice under `plan`.
pub fn slice(plan: &CommPlan, h0: &Dense, labels: &[u32], mask: &[bool]) -> Vec<Local> {
    plan.ranks
        .iter()
        .map(|rp| Local {
            h: gather::gather_rows(h0, &rp.local_rows),
            labels: rp.local_rows.iter().map(|&v| labels[v as usize]).collect(),
            mask: rp.local_rows.iter().map(|&v| mask[v as usize]).collect(),
        })
        .collect()
}

/// Exact traffic and arithmetic of a step, counted or predicted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub p2p_bytes: u64,
    pub p2p_msgs: u64,
    pub coll_bytes: u64,
    pub coll_msgs: u64,
    pub flops: u64,
}

impl Counts {
    /// Growth of one rank's counters. Messages count at their sender
    /// only, so a sum over ranks counts each message once.
    pub fn between(before: &CommCounters, after: &CommCounters) -> Counts {
        Counts {
            p2p_bytes: after.sent_bytes - before.sent_bytes,
            p2p_msgs: after.sent_messages - before.sent_messages,
            coll_bytes: after.collective_bytes - before.collective_bytes,
            coll_msgs: after.collective_messages - before.collective_messages,
            flops: after.compute_flops - before.compute_flops,
        }
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;
    fn add(self, o: Counts) -> Counts {
        Counts {
            p2p_bytes: self.p2p_bytes + o.p2p_bytes,
            p2p_msgs: self.p2p_msgs + o.p2p_msgs,
            coll_bytes: self.coll_bytes + o.coll_bytes,
            coll_msgs: self.coll_msgs + o.coll_msgs,
            flops: self.flops + o.flops,
        }
    }
}

impl std::iter::Sum for Counts {
    fn sum<I: Iterator<Item = Counts>>(it: I) -> Counts {
        it.fold(Counts::default(), |a, b| a + b)
    }
}

/// Kernel FLOPs of `forwards` forward passes and one backward pass over
/// `n` rows: per layer 2·nnz·d per SpMM and 2mkn per GEMM.
fn flops(n: u64, nnz_f: u64, nnz_b: u64, config: &GcnConfig, forwards: u64) -> u64 {
    (1..=config.layers())
        .map(|k| {
            let (din, dout) = (config.dims[k - 1] as u64, config.dims[k] as u64);
            // Â·H, then ·W.
            let fwd = 2 * nnz_f * din + 2 * n * din * dout;
            // Â'·G, then Hᵀ·(Â'G), then (Â'G)·Wᵀ below the first layer.
            let bwd =
                2 * nnz_b * dout + 2 * n * din * dout + if k > 1 { 2 * n * dout * din } else { 0 };
            forwards * fwd + bwd
        })
        .sum()
}

/// Collective traffic of one epoch on `p` ranks: the loss allreduce and
/// one ΔWᵏ allreduce per layer, each a binomial-tree reduce and broadcast
/// of p − 1 messages apiece.
fn epoch_allreduces(p: u64, config: &GcnConfig) -> (u64, u64) {
    let floats: u64 = 1
        + (1..=config.layers())
            .map(|k| (config.dims[k - 1] * config.dims[k]) as u64)
            .sum::<u64>();
    let msgs = (config.layers() as u64 + 1) * 2 * (p - 1);
    (msgs, 2 * (p - 1) * 4 * floats)
}

/// Exact counts of one full-batch epoch on the P2P path: per layer a
/// forward exchange of `d_{k−1}`-wide rows and a backward one of
/// `d_k`-wide rows, i.e. 4·Σₖ(vol_f·d_{k−1} + vol_b·d_k) bytes, plus the
/// epoch's allreduces and kernel FLOPs.
pub fn step_counts(plans: &Plans, config: &GcnConfig) -> Counts {
    let (f, b) = (&plans.f, plans.backward());
    let nnz = |plan: &CommPlan| -> u64 {
        plan.ranks
            .iter()
            .map(|r| r.a_own.nnz() + r.a_remote.iter().map(|x| x.a.nnz()).sum::<usize>())
            .sum::<usize>() as u64
    };
    let (coll_msgs, coll_bytes) = epoch_allreduces(f.p as u64, config);
    let mut c = Counts {
        coll_bytes,
        coll_msgs,
        flops: flops(f.n as u64, nnz(f), nnz(b), config, 1),
        ..Counts::default()
    };
    for k in 1..=config.layers() {
        let (din, dout) = (config.dims[k - 1] as u64, config.dims[k] as u64);
        c.p2p_bytes += 4 * (f.total_volume_rows() * din + b.total_volume_rows() * dout);
        c.p2p_msgs += f.total_messages() + b.total_messages();
    }
    c
}

/// Bytes of CAGNET sweeps: every rank's whole block broadcast to the
/// p − 1 others, for `forwards` forward sweeps and one backward sweep.
fn cagnet_broadcast_bytes(n: u64, p: u64, config: &GcnConfig, forwards: u64) -> u64 {
    (1..=config.layers())
        .map(|k| {
            let (din, dout) = (config.dims[k - 1] as u64, config.dims[k] as u64);
            (p - 1) * n * 4 * (forwards * din + dout)
        })
        .sum()
}

/// Exact counts of one `cagnet::train_full_batch_spec` call of one epoch:
/// the epoch, then the prediction forward pass the call ends with.
pub fn cagnet_call_counts(n: u64, nnz: u64, p: u64, config: &GcnConfig) -> Counts {
    let (msgs, bytes) = epoch_allreduces(p, config);
    let sweeps = 3 * config.layers() as u64;
    Counts {
        p2p_bytes: 0,
        p2p_msgs: 0,
        coll_bytes: bytes + cagnet_broadcast_bytes(n, p, config, 2),
        coll_msgs: msgs + sweeps * p * (p - 1),
        flops: flops(n, nnz, nnz, config, 2),
    }
}

/// Broadcast bytes of one CAGNET epoch (one forward, one backward sweep).
pub fn cagnet_epoch_bytes(n: u64, p: u64, config: &GcnConfig) -> u64 {
    cagnet_broadcast_bytes(n, p, config, 1)
}
