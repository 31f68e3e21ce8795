//! The correctness contract of the whole paper reproduction: distributed
//! full-batch training must reproduce the serial trainer's losses,
//! parameters, and predictions — for every partitioning method, processor
//! count, graph family, directedness, and layer depth — up to f32
//! reassociation. The same contract covers the CAGNET broadcast baseline,
//! which computes the identical math with a different comm pattern.

use pargcn_comm::{CommCounters, CommSession};
use pargcn_core::baselines::cagnet::{self, CagnetPlan};
use pargcn_core::dist::trainer::epoch_step;
use pargcn_core::dist::{train_full_batch_spec, DistOutcome, EpochWorkspace, RankState};
use pargcn_core::model::{GcnConfig, LayerOrder};
use pargcn_core::optim::{Optimizer, OptimizerState};
use pargcn_core::serial::SerialTrainer;
use pargcn_graph::gen::{community, er, grid, sbm};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Dense};
use pargcn_partition::stochastic::Sampler;
use pargcn_partition::{partition_rows, Method, Partition};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

const TOL: f32 = 2e-3;

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

/// Runs both trainers and asserts agreement.
fn assert_equivalent(
    graph: &Graph,
    config: &GcnConfig,
    part: &Partition,
    epochs: usize,
    data_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(data_seed);
    let h0 = Dense::random(graph.n(), config.dims[0], &mut rng);
    let labels: Vec<u32> = (0..graph.n())
        .map(|i| (i % config.dims[config.layers()]) as u32)
        .collect();
    let mask: Vec<bool> = (0..graph.n()).map(|i| i % 3 != 2).collect();

    let mut serial = SerialTrainer::new(graph, config.clone(), 42);
    let mut serial_losses = Vec::new();
    for _ in 0..epochs {
        serial_losses.push(serial.train_epoch(&h0, &labels, &mask));
    }
    let serial_pred = serial.predict(&h0);

    let out = train_full_batch_spec(
        graph,
        &h0,
        &labels,
        &mask,
        part,
        config,
        epochs,
        42,
        ComputeSpec::default(),
    );

    for (e, (s, d)) in serial_losses.iter().zip(&out.losses).enumerate() {
        assert!(
            (s - d).abs() < 1e-3 * (1.0 + s.abs()),
            "epoch {e} loss diverged: serial {s} vs dist {d} (p={})",
            part.p()
        );
    }
    assert!(
        out.predictions.approx_eq(&serial_pred, TOL),
        "predictions diverged (p={}, max diff {})",
        part.p(),
        out.predictions.max_abs_diff(&serial_pred)
    );
    for (k, (sw, dw)) in serial
        .params
        .weights
        .iter()
        .zip(&out.params.weights)
        .enumerate()
    {
        assert!(
            sw.approx_eq(dw, TOL),
            "W{k} diverged (max diff {})",
            sw.max_abs_diff(dw)
        );
    }
}

#[test]
fn all_partitioners_match_serial_undirected() {
    let g = community::copurchase(180, 6.0, false, 1);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(6, 8, 3);
    for method in [
        Method::Rp,
        Method::Gp,
        Method::Hp,
        Method::Shp {
            sampler: Sampler::UniformVertex { batch_size: 40 },
            batches: 3,
        },
    ] {
        let part = partition_rows(&g, &a, method, 4, 0.1, 9);
        assert_equivalent(&g, &config, &part, 4, 7);
    }
}

#[test]
fn directed_graph_matches_serial() {
    // Directed: backprop must use the transpose plan.
    let g = er::generate(120, 600, true, 5);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(5, 7, 2);
    let part = partition_rows(&g, &a, Method::Hp, 3, 0.1, 3);
    assert_equivalent(&g, &config, &part, 4, 11);
}

#[test]
fn deeper_networks_match_serial() {
    let g = grid::road_network(150, 2);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![4, 6, 6, 6, 3],
        learning_rate: 0.05,
        order: LayerOrder::SpmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Hp, 5, 0.1, 1);
    assert_equivalent(&g, &config, &part, 3, 13);
}

#[test]
fn dmm_first_order_matches_serial() {
    // §4.4: the GAT-style ordering uses the identical comm plan.
    let g = community::copurchase(140, 5.0, false, 3);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![6, 5, 3],
        learning_rate: 0.1,
        order: LayerOrder::DmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Gp, 4, 0.1, 5);
    assert_equivalent(&g, &config, &part, 3, 17);
}

#[test]
fn many_ranks_exceeding_typical_core_count() {
    // Functional correctness at p well beyond physical cores.
    let g = er::generate(200, 1000, false, 8);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(4, 6, 2);
    let part = partition_rows(&g, &a, Method::Rp, 32, 0.1, 2);
    assert_equivalent(&g, &config, &part, 2, 19);
}

#[test]
fn single_rank_distributed_is_serial() {
    let g = grid::road_network(80, 4);
    let config = GcnConfig::two_layer(3, 5, 2);
    let part = Partition::trivial(g.n());
    assert_equivalent(&g, &config, &part, 5, 23);
}

/// CAGNET ≡ P2P ≡ serial over every optimizer × layer order on `g`: the
/// broadcast baseline runs the shared layer loop, so no option may make it
/// drift from the point-to-point trainer.
fn assert_cagnet_matches_p2p_and_serial(name: &str, g: &Graph) {
    let a = g.normalized_adjacency();
    let part = partition_rows(g, &a, Method::Hp, 4, 0.1, 4);
    let mut rng = StdRng::seed_from_u64(29);
    let h0 = Dense::random(g.n(), 5, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 3) as u32).collect();
    let mask: Vec<bool> = (0..g.n()).map(|i| i % 4 != 3).collect();
    for optimizer in [Optimizer::Sgd, Optimizer::adam()] {
        for order in [LayerOrder::SpmmFirst, LayerOrder::DmmFirst] {
            let case = format!("{name}, {optimizer:?}, {order:?}");
            let mut config = GcnConfig::two_layer(5, 6, 3);
            if optimizer != Optimizer::Sgd {
                // Adam's step is ~lr per weight whatever the gradient's
                // size, so keep it small enough that f32 reassociation
                // noise cannot flip a step past the tolerance.
                config.learning_rate = 0.01;
            }
            config.optimizer = optimizer;
            config.order = order;
            let run = |train: Trainer| {
                train(
                    g,
                    &h0,
                    &labels,
                    &mask,
                    &part,
                    &config,
                    3,
                    42,
                    ComputeSpec::default(),
                )
            };
            let p2p = run(train_full_batch_spec);
            let bc = run(cagnet::train_full_batch_spec);
            let mut serial = SerialTrainer::new(g, config.clone(), 42);
            let serial_losses: Vec<f64> = (0..3)
                .map(|_| serial.train_epoch(&h0, &labels, &mask))
                .collect();
            let serial_pred = serial.predict(&h0);

            for (trainer, out) in [("P2P", &p2p), ("CAGNET", &bc)] {
                assert_eq!(out.losses.len(), 3, "{case}: {trainer} epochs");
                for (e, (s, d)) in serial_losses.iter().zip(&out.losses).enumerate() {
                    assert!(
                        (s - d).abs() < 1e-3 * (1.0 + s.abs()),
                        "{case}: {trainer} epoch {e} loss {d} vs serial {s}"
                    );
                }
                assert!(
                    out.predictions.approx_eq(&serial_pred, TOL),
                    "{case}: {trainer} predictions diverged from serial (max diff {})",
                    out.predictions.max_abs_diff(&serial_pred)
                );
            }
            for (s, d) in p2p.losses.iter().zip(&bc.losses) {
                assert!(
                    (s - d).abs() < 1e-3 * (1.0 + s.abs()),
                    "{case}: CAGNET loss {d} vs P2P {s}"
                );
            }
            assert!(
                p2p.predictions.approx_eq(&bc.predictions, TOL),
                "{case}: CAGNET diverged from P2P (max diff {})",
                p2p.predictions.max_abs_diff(&bc.predictions)
            );
        }
    }
}

#[test]
fn cagnet_matches_serial_and_p2p() {
    let g = community::copurchase(150, 6.0, false, 6);
    assert_cagnet_matches_p2p_and_serial("undirected", &g);
}

#[test]
fn cagnet_directed_matches_serial() {
    // Directed: the broadcast backward sweep must use the transpose plan.
    let g = er::generate(90, 400, true, 9);
    assert_cagnet_matches_p2p_and_serial("directed", &g);
}

/// One CAGNET epoch driven through the shared `epoch_step` on every rank;
/// returns each rank's counters for exactly that epoch.
fn cagnet_epoch_counters(
    g: &Graph,
    part: &Partition,
    config: &GcnConfig,
    h0: &Dense,
    labels: &[u32],
) -> Vec<CommCounters> {
    let a = g.normalized_adjacency();
    let plan_f = CagnetPlan::build(&a, part);
    let plan_b = CagnetPlan::build(&a.transpose(), part);
    let p = part.p();
    let init = config.init_params(1);
    CommSession::new(p).run_step(|ctx| {
        let m = ctx.rank();
        let rows = &plan_f.ranks[m].local_rows;
        let h_local = gather::gather_rows(h0, rows);
        let l_local: Vec<u32> = rows.iter().map(|&v| labels[v as usize]).collect();
        let m_local = vec![true; rows.len()];
        let mut st = RankState {
            plan_f: &plan_f.ranks[m],
            plan_b: &plan_b.ranks[m],
            config,
            params: init.clone(),
            h0: &h_local,
            labels: &l_local,
            mask: &m_local,
            mask_total: g.n() as f64,
            opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
            ctx: ComputeCtx::serial(),
        };
        let mut ws = EpochWorkspace::new(st.plan_f, config, p, &st.ctx);
        epoch_step(ctx, &mut st, &mut ws);
        ctx.counters().clone()
    })
}

#[test]
fn cagnet_collective_traffic_follows_layer_order() {
    // Per epoch every rank's block reaches the p − 1 others once per sweep:
    // forward at the order's width w_fwd(k) (d_{k−1} SpmmFirst, d_k
    // DmmFirst), backward at d_k; plus the loss and ΔWᵏ allreduces, each
    // p − 1 messages up the tree and p − 1 back down.
    let g = er::generate(90, 400, true, 9);
    let p = 3;
    let part = pargcn_partition::random::partition(g.n(), p, 6);
    let mut rng = StdRng::seed_from_u64(31);
    let h0 = Dense::random(g.n(), 12, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 3) as u32).collect();
    let (n, p64) = (g.n() as u64, p as u64);
    let mut bytes_by_order = Vec::new();
    for order in [LayerOrder::SpmmFirst, LayerOrder::DmmFirst] {
        let mut config = GcnConfig::two_layer(12, 6, 3);
        config.order = order;
        let layers = 1..=config.layers();
        let sweep_floats: u64 = layers
            .clone()
            .map(|k| n * (config.forward_width(k) + config.dims[k]) as u64)
            .sum();
        let allreduce_floats: u64 = 1 + layers
            .map(|k| (config.dims[k - 1] * config.dims[k]) as u64)
            .sum::<u64>();
        let expected_bytes = (p64 - 1) * 4 * (sweep_floats + 2 * allreduce_floats);
        let expected_msgs = (2 * config.layers() as u64) * p64 * (p64 - 1)
            + (config.layers() as u64 + 1) * 2 * (p64 - 1);

        let total = CommCounters::merged(&cagnet_epoch_counters(&g, &part, &config, &h0, &labels));
        assert_eq!(total.collective_bytes, expected_bytes, "{order:?} bytes");
        assert_eq!(
            total.collective_messages, expected_msgs,
            "{order:?} messages"
        );
        assert_eq!(
            total.sent_bytes, 0,
            "{order:?}: CAGNET sends no point-to-point rows"
        );
        bytes_by_order.push(total.collective_bytes);
    }
    // d_1 = 6 < d_0 = 12: transforming first shrinks the forward broadcasts.
    assert!(bytes_by_order[1] < bytes_by_order[0]);
}

#[test]
fn counters_match_static_prediction() {
    // The runtime's measured bytes = plan volume × row width × 4 bytes ×
    // epochs × sweeps — exact, not approximate.
    let g = community::copurchase(160, 6.0, false, 2);
    let a = g.normalized_adjacency();
    let config = GcnConfig {
        dims: vec![8, 8, 4],
        learning_rate: 0.1,
        order: LayerOrder::SpmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    };
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 8);
    let plan = pargcn_core::CommPlan::build(&a, &part);
    let epochs = 2;

    let mut rng = StdRng::seed_from_u64(37);
    let h0 = Dense::random(g.n(), 8, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 4) as u32).collect();
    let mask = vec![true; g.n()];
    let out = train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        epochs,
        1,
        ComputeSpec::default(),
    );

    // Per epoch: feedforward sends d_{k-1}-wide rows per layer, backprop
    // d_k-wide rows; plus one extra forward pass for final predictions.
    let vol = plan.total_volume_rows();
    let per_epoch_bytes: u64 = vol * (8 + 8) * 4 + vol * (8 + 4) * 4;
    let final_forward: u64 = vol * (8 + 8) * 4;
    let expected = per_epoch_bytes * epochs as u64 + final_forward;
    let measured: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
    assert_eq!(measured, expected);

    let per_epoch_msgs = plan.total_messages() * 2 /* layers */ * 2 /* directions */;
    let expected_msgs = per_epoch_msgs * epochs as u64 + plan.total_messages() * 2;
    let measured_msgs: u64 = out.counters.iter().map(|c| c.sent_messages).sum();
    assert_eq!(measured_msgs, expected_msgs);

    // Collectives: per epoch the loss and one ΔWᵏ per layer are allreduced
    // over the binomial tree (p − 1 hops up, p − 1 down). The prediction
    // pass and the session's step boundaries add no counted traffic.
    let p = part.p() as u64;
    let allreduce_floats: u64 = 1
        + (1..=config.layers())
            .map(|k| (config.dims[k - 1] * config.dims[k]) as u64)
            .sum::<u64>();
    let total = CommCounters::merged(&out.counters);
    assert_eq!(
        total.collective_messages,
        epochs as u64 * (config.layers() as u64 + 1) * 2 * (p - 1)
    );
    assert_eq!(
        total.collective_bytes,
        epochs as u64 * 2 * (p - 1) * allreduce_floats * 4
    );
}

#[test]
fn accuracy_unaffected_by_parallelism_fig4c() {
    // Fig. 4c in miniature: train the Cora-like SBM serially and at several
    // processor counts; accuracies agree and beat chance.
    let d = sbm::generate(
        sbm::SbmParams {
            n: 350,
            classes: 5,
            features: 12,
            feature_separation: 1.6,
            ..Default::default()
        },
        13,
    );
    let config = GcnConfig::two_layer(12, 16, 5);
    let test_mask: Vec<bool> = d.train_mask.iter().map(|&m| !m).collect();

    let mut serial = SerialTrainer::new(&d.graph, config.clone(), 3);
    for _ in 0..30 {
        serial.train_epoch(&d.features, &d.labels, &d.train_mask);
    }
    let serial_acc =
        pargcn_core::loss::accuracy(&serial.predict(&d.features), &d.labels, &test_mask);
    assert!(serial_acc > 0.5, "serial accuracy {serial_acc} too low");

    let a = d.graph.normalized_adjacency();
    for p in [2usize, 5, 9] {
        let part = partition_rows(&d.graph, &a, Method::Hp, p, 0.1, 21);
        let out = train_full_batch_spec(
            &d.graph,
            &d.features,
            &d.labels,
            &d.train_mask,
            &part,
            &config,
            30,
            3,
            ComputeSpec::default(),
        );
        let acc = pargcn_core::loss::accuracy(&out.predictions, &d.labels, &test_mask);
        assert!(
            (acc - serial_acc).abs() < 0.05,
            "p={p}: accuracy {acc} deviates from serial {serial_acc}"
        );
    }
}

#[test]
fn adam_optimizer_matches_serial() {
    // The optimizer state is replicated like the parameters; Adam's
    // nonlinear update must stay in lock-step across ranks and match the
    // serial trainer exactly.
    let g = community::copurchase(160, 6.0, false, 12);
    let a = g.normalized_adjacency();
    let mut config = GcnConfig::two_layer(6, 8, 3);
    config.learning_rate = 0.01;
    config.optimizer = pargcn_core::optim::Optimizer::adam();
    let part = partition_rows(&g, &a, Method::Hp, 4, 0.1, 6);
    assert_equivalent(&g, &config, &part, 5, 31);
}

#[test]
fn adam_converges_on_learnable_data() {
    let d = sbm::generate(
        sbm::SbmParams {
            n: 260,
            classes: 4,
            features: 8,
            feature_separation: 1.4,
            ..Default::default()
        },
        19,
    );
    let mut config = GcnConfig::two_layer(8, 12, 4);
    config.learning_rate = 0.02;
    config.optimizer = pargcn_core::optim::Optimizer::adam();
    let a = d.graph.normalized_adjacency();
    let part = partition_rows(&d.graph, &a, Method::Hp, 3, 0.1, 2);
    let out = train_full_batch_spec(
        &d.graph,
        &d.features,
        &d.labels,
        &d.train_mask,
        &part,
        &config,
        25,
        4,
        ComputeSpec::default(),
    );
    assert!(
        out.losses.last().unwrap() < &(out.losses[0] * 0.7),
        "Adam failed to converge: {:?} → {:?}",
        out.losses[0],
        out.losses.last().unwrap()
    );
}

#[test]
fn rank_with_no_labelled_vertices_is_fine() {
    // All labels concentrated on one rank's rows: other ranks contribute
    // zero loss/gradient but must stay in the collective lock-step.
    let g = community::copurchase(120, 6.0, false, 21);
    let a = g.normalized_adjacency();
    let config = GcnConfig::two_layer(4, 6, 2);
    let part = partition_rows(&g, &a, Method::Gp, 4, 0.1, 7);
    // Mask only the vertices of part 0.
    let mask: Vec<bool> = (0..g.n()).map(|v| part.part_of(v) == 0).collect();
    assert!(mask.iter().any(|&m| m));
    let mut rng = StdRng::seed_from_u64(41);
    let h0 = Dense::random(g.n(), 4, &mut rng);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 2) as u32).collect();

    let out = train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        3,
        9,
        ComputeSpec::default(),
    );
    let mut serial = SerialTrainer::new(&g, config, 9);
    for (e, d) in out.losses.iter().enumerate() {
        let s = serial.train_epoch(&h0, &labels, &mask);
        assert!(
            (s - d).abs() < 1e-3 * (1.0 + s.abs()),
            "epoch {e}: {s} vs {d}"
        );
    }
}

#[test]
fn empty_rank_participates_correctly() {
    // A partition with an empty part: that rank owns no rows, sends and
    // receives nothing in the SpMM, but still joins every allreduce.
    let g = er::generate(60, 300, false, 33);
    let mut assignment: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
    for a in assignment.iter_mut() {
        if *a == 2 {
            *a = 0; // part 2 emptied
        }
    }
    let part = Partition::new(assignment, 3);
    let config = GcnConfig::two_layer(4, 5, 2);
    assert_equivalent(&g, &config, &part, 3, 43);
}

/// A NaN feature row poisons the first forward pass: the trainer stops at
/// that step and names it, instead of training on garbage. The model has
/// one (identity) layer, so the NaN reaches the logits; a ReLU layer would
/// map it to 0 in the forward pass.
#[test]
#[should_panic(expected = "step 0: the global loss is NaN")]
fn a_non_finite_loss_panics_naming_the_step() {
    let g = er::generate(40, 160, false, 4);
    let part = pargcn_partition::random::partition(g.n(), 2, 1);
    let mut h0 = Dense::random(g.n(), 6, &mut StdRng::seed_from_u64(3));
    h0.row_mut(7).fill(f32::NAN);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 3) as u32).collect();
    let mask = vec![true; g.n()];
    let config = GcnConfig {
        dims: vec![6, 3],
        ..GcnConfig::two_layer(6, 8, 3)
    };
    train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        3,
        1,
        ComputeSpec::default(),
    );
}

/// A NaN feature under a ReLU hidden layer: `max(NaN, 0)` is 0, so the
/// loss stays finite, but `ΔW¹ = (H⁰)ᵀ(Â'G¹)` carries the NaN into `W¹`.
/// The check on the allreduced `ΔW` names the layer at the first step.
#[test]
#[should_panic(expected = "step 0: ΔW1 is non-finite")]
fn a_non_finite_weight_gradient_panics_naming_the_layer() {
    let g = er::generate(40, 160, false, 4);
    let part = pargcn_partition::random::partition(g.n(), 2, 1);
    let mut h0 = Dense::random(g.n(), 6, &mut StdRng::seed_from_u64(3));
    h0.row_mut(7).fill(f32::NAN);
    let labels: Vec<u32> = (0..g.n()).map(|i| (i % 3) as u32).collect();
    let mask = vec![true; g.n()];
    let config = GcnConfig::two_layer(6, 8, 3);
    train_full_batch_spec(
        &g,
        &h0,
        &labels,
        &mask,
        &part,
        &config,
        3,
        1,
        ComputeSpec::default(),
    );
}
