//! Golden bits: one fingerprint of everything full-batch training
//! returns — losses, predictions and final parameters, bit for bit —
//! over a matrix of 64 configurations: point-to-point and CAGNET ×
//! undirected and directed × SpmmFirst and DmmFirst × SGD and Adam × 2
//! and 3 layers × p ∈ {1, 3}.
//!
//! The suite pins the arithmetic, not just agreement with the serial
//! oracle (which `dist_equals_serial` checks up to reassociation): a
//! refactor of buffers, kernels or exchanges must leave every bit where
//! it was. Results are bitwise independent of the kernel engine and the
//! thread count, so the one hash holds under `PARGCN_KERNEL=naive|blocked`
//! and any `PARGCN_THREADS`.
//!
//! A change that alters the math on purpose — a different `exp` in the
//! loss, a new summation order — updates [`GOLDEN`] to the value this
//! test prints and says so in CHANGES.md.
//!
//! The two §4.4 case studies get a fingerprint each on the same graph:
//! [`GOLDEN_SGC`] (losses, `W`, predictions and per-rank sent bytes over
//! p ∈ {1, 3} × K ∈ {0, 2}) and [`GOLDEN_GAT`] (two-layer outputs over
//! p ∈ {1, 3}).

use pargcn_core::baselines::cagnet;
use pargcn_core::dist::{self, DistOutcome};
use pargcn_core::gat::{self, GatLayer};
use pargcn_core::model::{GcnConfig, LayerOrder};
use pargcn_core::optim::Optimizer;
use pargcn_core::sgc;
use pargcn_graph::gen::er;
use pargcn_graph::Graph;
use pargcn_matrix::{ComputeSpec, Dense};
use pargcn_partition::{random, Partition};
use pargcn_util::rng::{SeedableRng, StdRng};

/// The fingerprint of the whole matrix.
const GOLDEN: u64 = 0x1aae_dcf1_c2df_481b;

/// The fingerprint of the SGC runs.
const GOLDEN_SGC: u64 = 0xd322_9503_e959_a8e2;

/// The fingerprint of the GAT passes.
const GOLDEN_GAT: u64 = 0x95d9_de7e_5cba_7ba5;

/// The shared signature of the full-batch entry points.
type Trainer = fn(
    &Graph,
    &Dense,
    &[u32],
    &[bool],
    &Partition,
    &GcnConfig,
    usize,
    u64,
    ComputeSpec,
) -> DistOutcome;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Element bits; any NaN reads as the one quiet NaN (IEEE 754 leaves
    /// the payload an operation returns open).
    fn dense(&mut self, d: &Dense) {
        for v in d.data() {
            self.word(if v.is_nan() { f32::NAN } else { *v }.to_bits() as u64);
        }
    }
}

/// Fingerprint of one run's losses, predictions and parameters.
fn fingerprint(out: &DistOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for l in &out.losses {
        h.word(l.to_bits());
    }
    h.dense(&out.predictions);
    for w in &out.params.weights {
        h.dense(w);
    }
    h.0
}

#[test]
fn training_bits_match_the_golden_fingerprint() {
    let n = 240;
    let d_in = 12;
    let classes = 5;
    let mut rng = StdRng::seed_from_u64(3);
    let h0 = Dense::random(n, d_in, &mut rng);
    let labels: Vec<u32> = (0..n).map(|i| (i % classes) as u32).collect();
    let mask: Vec<bool> = (0..n).map(|i| i % 3 != 2).collect();

    let mut per_config = Vec::new();
    for (trainer_name, trainer) in [
        ("p2p", dist::train_full_batch_spec as Trainer),
        ("cagnet", cagnet::train_full_batch_spec as Trainer),
    ] {
        for directed in [false, true] {
            let graph = er::generate(n, 1200, directed, 17);
            for order in [LayerOrder::SpmmFirst, LayerOrder::DmmFirst] {
                for optimizer in [Optimizer::Sgd, Optimizer::adam()] {
                    for dims in [vec![d_in, 24, classes], vec![d_in, 24, 16, classes]] {
                        for p in [1, 3] {
                            let config = GcnConfig {
                                dims: dims.clone(),
                                learning_rate: 0.1,
                                order,
                                optimizer,
                            };
                            let part = random::partition(n, p, 5);
                            let out = trainer(
                                &graph,
                                &h0,
                                &labels,
                                &mask,
                                &part,
                                &config,
                                3,
                                42,
                                ComputeSpec::default(),
                            );
                            let what = format!(
                                "{trainer_name} directed={directed} {order:?} {optimizer:?} \
                                 dims={dims:?} p={p}"
                            );
                            per_config.push((what, fingerprint(&out)));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(per_config.len(), 64);
    let mut all = Fnv(0xcbf2_9ce4_8422_2325);
    for (_, h) in &per_config {
        all.word(*h);
    }
    if all.0 != GOLDEN {
        for (what, h) in &per_config {
            eprintln!("{h:016x}  {what}");
        }
        panic!(
            "training bits moved: fingerprint {:#018x}, golden {GOLDEN:#018x}",
            all.0
        );
    }
}

/// The features, labels and mask of the golden runs.
fn inputs(n: usize, d_in: usize, classes: usize) -> (Dense, Vec<u32>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(3);
    let h0 = Dense::random(n, d_in, &mut rng);
    let labels = (0..n).map(|i| (i % classes) as u32).collect();
    let mask = (0..n).map(|i| i % 3 != 2).collect();
    (h0, labels, mask)
}

#[test]
fn sgc_bits_match_the_golden_fingerprint() {
    let (n, classes) = (240, 5);
    let (h0, labels, mask) = inputs(n, 12, classes);
    let graph = er::generate(n, 1200, false, 17);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in [1, 3] {
        let part = random::partition(n, p, 5);
        for k in [0, 2] {
            let out =
                sgc::train_distributed(&graph, &h0, k, classes, &labels, &mask, &part, 3, 0.5, 42);
            for l in &out.losses {
                h.word(l.to_bits());
            }
            h.dense(&out.params.weights[0]);
            h.dense(&out.predictions);
            for c in &out.counters {
                h.word(c.sent_bytes);
            }
        }
    }
    assert_eq!(h.0, GOLDEN_SGC, "SGC bits moved: fingerprint {:#018x}", h.0);
}

#[test]
fn gat_bits_match_the_golden_fingerprint() {
    let n = 240;
    let (h0, ..) = inputs(n, 12, 5);
    let graph = er::generate(n, 1200, false, 17);
    let layers = [GatLayer::init(12, 8, 1), GatLayer::init(8, 5, 2)];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in [1, 3] {
        let part = random::partition(n, p, 5);
        let (out, _) = gat::forward_distributed(&graph, &h0, &layers, &part);
        h.dense(&out);
    }
    assert_eq!(h.0, GOLDEN_GAT, "GAT bits moved: fingerprint {:#018x}", h.0);
}
