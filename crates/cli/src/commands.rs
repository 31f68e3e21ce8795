//! Implementations of the `pargcn` subcommands.

use crate::args::{Args, ParseError};
use pargcn_comm::MachineProfile;
use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::metrics::{simulate_epoch, simulate_serial_epoch};
use pargcn_core::minibatch::MinibatchEngine;
use pargcn_core::optim::Optimizer;
use pargcn_core::{checkpoint, loss, CommPlan, GcnConfig, LayerOrder};
use pargcn_graph::{analysis, Dataset, GraphData, Scale};
use pargcn_matrix::{ComputeSpec, Dense, KernelKind};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{metrics as pmetrics, partition_rows, Hypergraph, Method};
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;
use std::path::Path;

pub const USAGE: &str = "pargcn — distributed-memory GCN training (paper reproduction)

USAGE:
  pargcn info      --dataset <name> [--scale <div>] [--seed <n>]
  pargcn info      --list true
  pargcn partition --dataset <name> --method <rp|gp|hp|shp> --p <n>
                   [--epsilon 0.01] [--scale <div>] [--seed <n>] [--out <file>]
  pargcn train     --dataset <name> [--method hp] [--p 4] [--epochs 30]
                   [--hidden 16] [--lr 0.1] [--optimizer sgd|adam]
                   [--threads <n>] [--kernel naive|blocked]
                   [--batch-size <n>] [--batches <count>]
                   [--scale <div>] [--seed <n>] [--save-params <file>]

--threads sets the kernel thread-pool size per rank (also: PARGCN_THREADS
env var); default auto = available_parallelism / p. --kernel picks the
local kernel engine (also: PARGCN_KERNEL env var; default blocked — the
cache-blocked GEMM/tiled SpMM engine; naive is the reference loops).
Results are bitwise identical for any thread count and either kernel.
--batch-size > 0 switches to stochastic mini-batch training (§4.3.3)
through the persistent engine: uniform-vertex batches of that size,
one step each, --batches steps (default: epochs).
  pargcn simulate  --dataset <name> [--method hp] [--p 512] [--machine cpu|gpu]
                   [--layers 2] [--d 32] [--scale <div>] [--seed <n>]

Dataset names are the paper's Table 1 names (pargcn info --list true).";

/// Resolves a Table 1 dataset by name (case-insensitive).
fn dataset(name: &str) -> Result<Dataset, ParseError> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ParseError(format!(
                "unknown dataset '{name}' (try: {})",
                Dataset::ALL.map(|d| d.name()).join(", ")
            ))
        })
}

fn method(name: &str, n: usize) -> Result<Method, ParseError> {
    match name.to_ascii_lowercase().as_str() {
        "rp" => Ok(Method::Rp),
        "gp" => Ok(Method::Gp),
        "hp" => Ok(Method::Hp),
        "shp" => Ok(Method::Shp {
            sampler: Sampler::UniformVertex {
                batch_size: (n / 16).max(8),
            },
            batches: 200,
        }),
        other => Err(ParseError(format!(
            "unknown method '{other}' (rp|gp|hp|shp)"
        ))),
    }
}

fn load(args: &Args) -> Result<(Dataset, GraphData), ParseError> {
    let ds = dataset(args.require("dataset")?)?;
    let extra: u32 = args.num_or("scale", 1u32)?;
    let seed: u64 = args.num_or("seed", 1u64)?;
    let scale = Scale(ds.default_scale().0.saturating_mul(extra.max(1)));
    Ok((ds, ds.generate(scale, seed)))
}

/// `pargcn info`.
pub fn info(args: &Args) -> Result<(), ParseError> {
    if args.get_or("list", "false") == "true" {
        println!(
            "{:<18} {:>12} {:>14} {:>9} {:>8}",
            "Dataset", "paper |V|", "paper |E|", "directed", "scale"
        );
        for ds in Dataset::ALL {
            let (v, e, dir) = ds.paper_properties();
            println!(
                "{:<18} {:>12} {:>14} {:>9} {:>8}",
                ds.name(),
                v,
                e,
                if dir { "yes" } else { "no" },
                ds.default_scale().0
            );
        }
        return Ok(());
    }
    let (ds, data) = load(args)?;
    let stats = data.graph.degree_stats();
    let comps = analysis::connected_components(&data.graph);
    println!("dataset:      {}", ds.name());
    println!("vertices:     {}", data.graph.n());
    println!("edges:        {}", data.graph.num_edges());
    println!("directed:     {}", data.graph.directed());
    println!(
        "degree:       min {} / avg {:.2} / max {} (skew {:.1})",
        stats.min, stats.avg, stats.max, stats.skew
    );
    println!("components:   {} (largest {})", comps.count, comps.largest);
    println!("pseudo-diam:  {}", analysis::pseudo_diameter(&data.graph));
    println!("labelled:     {}", data.labels.is_some());
    Ok(())
}

/// `pargcn partition`.
pub fn partition(args: &Args) -> Result<(), ParseError> {
    let (ds, data) = load(args)?;
    let p: usize = args.num_or("p", 16usize)?;
    let epsilon: f64 = args.num_or("epsilon", pargcn_partition::DEFAULT_EPSILON)?;
    let seed: u64 = args.num_or("seed", 1u64)?;
    let m = method(args.get_or("method", "hp"), data.graph.n())?;

    let a = data.graph.normalized_adjacency();
    let start = std::time::Instant::now();
    let part = partition_rows(&data.graph, &a, m, p, epsilon, seed);
    let took = start.elapsed().as_secs_f64();

    let stats = pmetrics::spmm_comm_stats(&a, &part);
    let h = Hypergraph::column_net_model(&a);
    println!(
        "dataset:        {} (n={}, nnz={})",
        ds.name(),
        data.graph.n(),
        a.nnz()
    );
    println!("method:         {} into p={p} parts ({took:.2}s)", m.name());
    println!(
        "volume:         {} rows/sweep (avg {:.1}, max {} per rank)",
        stats.total_rows,
        stats.avg_rows(),
        stats.max_rows()
    );
    println!(
        "messages:       {} (avg {:.1}, max {} per rank)",
        stats.total_messages,
        stats.avg_messages(),
        stats.max_messages()
    );
    println!(
        "hypergraph cut: {} (= volume, §4.3.2)",
        h.connectivity_cut(&part)
    );
    println!("imbalance:      {:.4}", part.imbalance(h.vertex_weights()));

    if let Ok(path) = args.require("out") {
        let body: String = part
            .assignment()
            .iter()
            .enumerate()
            .map(|(v, &a)| format!("{v}\t{a}\n"))
            .collect();
        std::fs::write(path, body).map_err(|e| ParseError(format!("write {path}: {e}")))?;
        println!("assignment written to {path}");
    }
    Ok(())
}

/// `pargcn train`.
pub fn train(args: &Args) -> Result<(), ParseError> {
    let (ds, data) = load(args)?;
    let p: usize = args.num_or("p", 4usize)?;
    let epochs: usize = args.num_or("epochs", 30usize)?;
    let hidden: usize = args.num_or("hidden", 16usize)?;
    let lr: f32 = args.num_or("lr", 0.1f32)?;
    let seed: u64 = args.num_or("seed", 1u64)?;
    // 0 = auto (PARGCN_THREADS env, else available_parallelism / p).
    let threads: usize = args.num_or("threads", 0usize)?;
    let threads = (threads > 0).then_some(threads);
    // Default: PARGCN_KERNEL env var, else the blocked engine.
    let kernel = match args.require("kernel") {
        Ok(name) => Some(
            KernelKind::parse(name)
                .ok_or_else(|| ParseError(format!("unknown kernel '{name}' (naive|blocked)")))?,
        ),
        Err(_) => None,
    };
    let m = method(args.get_or("method", "hp"), data.graph.n())?;
    let optimizer = match args.get_or("optimizer", "sgd") {
        "sgd" => Optimizer::Sgd,
        "adam" => Optimizer::adam(),
        other => return Err(ParseError(format!("unknown optimizer '{other}'"))),
    };

    // Labelled datasets use their real features/labels; others follow the
    // paper's Table 2 protocol (random features and labels).
    let n = data.graph.n();
    let (features, labels, mask) = match (data.features, data.labels, data.train_mask) {
        (Some(f), Some(l), Some(m)) => (f, l, m),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfea7);
            let f = Dense::random(n, 32, &mut rng);
            let l: Vec<u32> = (0..n).map(|i| (i % 8) as u32).collect();
            (f, l, vec![true; n])
        }
    };
    let classes = (*labels.iter().max().unwrap_or(&1) + 1) as usize;
    let config = GcnConfig {
        dims: vec![features.cols(), hidden, classes],
        learning_rate: lr,
        order: LayerOrder::SpmmFirst,
        optimizer,
    };

    let a = data.graph.normalized_adjacency();
    let part = partition_rows(
        &data.graph,
        &a,
        m,
        p,
        pargcn_partition::DEFAULT_EPSILON,
        seed,
    );
    let batch_size: usize = args.num_or("batch-size", 0usize)?;
    if batch_size > 0 {
        let count: usize = args.num_or("batches", epochs)?;
        let batches = sample_batches(
            &data.graph,
            Sampler::UniformVertex { batch_size },
            count,
            seed ^ 0xba7c,
        );
        println!(
            "mini-batch training {} on {} ranks ({}), {} batches of {}, {} optimizer",
            ds.name(),
            p,
            m.name(),
            count,
            batch_size,
            args.get_or("optimizer", "sgd")
        );
        let mut engine = MinibatchEngine::new(
            &data.graph,
            &features,
            &labels,
            &mask,
            &part,
            &config,
            seed,
            ComputeSpec { threads, kernel },
        );
        let out = engine.train(&batches);
        for (b, l) in out.losses.iter().enumerate() {
            if b % 5 == 0 || b + 1 == out.losses.len() {
                println!("batch {b:>3}: loss {l:.4}");
            }
        }
        if out.skipped_batches > 0 {
            println!(
                "skipped {} unlabelled batch(es) ({} would-be rows)",
                out.skipped_batches, out.skipped_volume_rows
            );
        }
        let predictions = pargcn_core::serial::SerialTrainer::from_adjacency(
            a,
            data.graph.directed(),
            config.clone(),
            out.params.clone(),
        )
        .predict(&features);
        let test_mask: Vec<bool> = mask.iter().map(|&m| !m).collect();
        if test_mask.iter().any(|&m| m) {
            println!(
                "test accuracy: {:.3}",
                loss::accuracy(&predictions, &labels, &test_mask)
            );
        }
        println!(
            "train accuracy: {:.3}",
            loss::accuracy(&predictions, &labels, &mask)
        );
        let bytes: u64 = engine.counters().iter().map(|c| c.sent_bytes).sum();
        println!(
            "p2p traffic: {:.2} MiB over {} trained rows",
            bytes as f64 / (1 << 20) as f64,
            out.total_volume_rows
        );
        if let Ok(path) = args.require("save-params") {
            checkpoint::save(&out.params, Path::new(path))
                .map_err(|e| ParseError(format!("save {path}: {e}")))?;
            println!("parameters saved to {path}");
        }
        return Ok(());
    }

    println!(
        "training {} on {} ranks ({}), {} threads/rank, {} kernel, {} epochs, {} optimizer",
        ds.name(),
        p,
        m.name(),
        pargcn_util::pool::auto_threads(p, threads),
        kernel.unwrap_or_else(KernelKind::from_env).name(),
        epochs,
        args.get_or("optimizer", "sgd")
    );
    let out = train_full_batch_spec(
        &data.graph,
        &features,
        &labels,
        &mask,
        &part,
        &config,
        epochs,
        seed,
        ComputeSpec { threads, kernel },
    );
    for (e, l) in out.losses.iter().enumerate() {
        if e % 5 == 0 || e + 1 == out.losses.len() {
            println!("epoch {e:>3}: loss {l:.4}");
        }
    }
    let test_mask: Vec<bool> = mask.iter().map(|&m| !m).collect();
    if test_mask.iter().any(|&m| m) {
        println!(
            "test accuracy: {:.3}",
            loss::accuracy(&out.predictions, &labels, &test_mask)
        );
    }
    println!(
        "train accuracy: {:.3}",
        loss::accuracy(&out.predictions, &labels, &mask)
    );
    let bytes: u64 = out.counters.iter().map(|c| c.sent_bytes).sum();
    println!(
        "p2p traffic: {:.2} MiB, wall {:.2}s",
        bytes as f64 / (1 << 20) as f64,
        out.wall_seconds()
    );

    if let Ok(path) = args.require("save-params") {
        checkpoint::save(&out.params, Path::new(path))
            .map_err(|e| ParseError(format!("save {path}: {e}")))?;
        println!("parameters saved to {path}");
    }
    Ok(())
}

/// `pargcn simulate`.
pub fn simulate(args: &Args) -> Result<(), ParseError> {
    let (ds, data) = load(args)?;
    let p: usize = args.num_or("p", 512usize)?;
    let layers: usize = args.num_or("layers", 2usize)?;
    let d: usize = args.num_or("d", 32usize)?;
    let seed: u64 = args.num_or("seed", 1u64)?;
    let m = method(args.get_or("method", "hp"), data.graph.n())?;
    let profile = match args.get_or("machine", "cpu") {
        "cpu" => MachineProfile::cpu_cluster(),
        "gpu" => MachineProfile::gpu_cluster(),
        other => return Err(ParseError(format!("unknown machine '{other}' (cpu|gpu)"))),
    };

    let mut dims = vec![d; layers];
    dims.push(16);
    let config = GcnConfig {
        dims,
        learning_rate: 0.1,
        order: LayerOrder::SpmmFirst,
        optimizer: Optimizer::Sgd,
    };

    let a = data.graph.normalized_adjacency();
    let part = partition_rows(
        &data.graph,
        &a,
        m,
        p,
        pargcn_partition::DEFAULT_EPSILON,
        seed,
    );
    let plan_f = CommPlan::build(&a, &part);
    let plan_b = if data.graph.directed() {
        CommPlan::build(&a.transpose(), &part)
    } else {
        plan_f.clone()
    };

    let t = simulate_epoch(&plan_f, &plan_b, &config, &profile);
    let serial = simulate_serial_epoch(
        a.nnz(),
        data.graph.n(),
        &config,
        &MachineProfile::single_node(),
    );
    println!(
        "dataset:    {} (n={}, nnz={})",
        ds.name(),
        data.graph.n(),
        a.nnz()
    );
    println!(
        "machine:    {} | method {} | p={p} | L={layers} d={d}",
        profile.name,
        m.name()
    );
    println!(
        "epoch time: {:.6}s (comm {:.6}s, comp {:.6}s)",
        t.total, t.comm, t.comp
    );
    println!("speedup vs single-node baseline: {:.2}x", serial / t.total);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn dataset_lookup_is_case_insensitive() {
        assert_eq!(dataset("cora").unwrap(), Dataset::Cora);
        assert_eq!(dataset("ROADNET-CA").unwrap(), Dataset::RoadNetCa);
        assert!(dataset("nope").is_err());
    }

    #[test]
    fn method_lookup() {
        assert_eq!(method("hp", 100).unwrap(), Method::Hp);
        let err = method("BP", 100).unwrap_err();
        assert_eq!(err.0, "unknown method 'bp' (rp|gp|hp|shp)");
        assert!(matches!(method("shp", 100).unwrap(), Method::Shp { .. }));
        assert!(method("xx", 100).is_err());
    }

    #[test]
    fn info_runs_on_tiny_instance() {
        let a = args(&["info", "--dataset", "com-Amazon", "--scale", "64"]);
        info(&a).unwrap();
        let l = args(&["info", "--list", "true"]);
        info(&l).unwrap();
    }

    #[test]
    fn partition_runs_and_writes_assignment() {
        let out = std::env::temp_dir().join(format!("pargcn_cli_part_{}.txt", std::process::id()));
        let a = args(&[
            "partition",
            "--dataset",
            "roadNet-CA",
            "--scale",
            "64",
            "--method",
            "hp",
            "--p",
            "4",
            "--out",
            out.to_str().unwrap(),
        ]);
        partition(&a).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.lines().count() > 100, "assignment file too small");
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn train_runs_on_scaled_cora_and_saves_params() {
        let ckpt = std::env::temp_dir().join(format!("pargcn_cli_ckpt_{}.bin", std::process::id()));
        let a = args(&[
            "train",
            "--dataset",
            "Cora",
            "--scale",
            "8",
            "--p",
            "2",
            "--epochs",
            "3",
            "--save-params",
            ckpt.to_str().unwrap(),
        ]);
        train(&a).unwrap();
        let params = checkpoint::load(&ckpt).unwrap();
        assert_eq!(params.weights.len(), 2);
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn simulate_runs_on_both_machines() {
        for machine in ["cpu", "gpu"] {
            let a = args(&[
                "simulate",
                "--dataset",
                "com-Amazon",
                "--scale",
                "32",
                "--p",
                "16",
                "--machine",
                machine,
            ]);
            simulate(&a).unwrap();
        }
    }

    #[test]
    fn kernel_flag_is_parsed_and_validated() {
        let a = args(&[
            "train",
            "--dataset",
            "Cora",
            "--scale",
            "16",
            "--p",
            "2",
            "--epochs",
            "1",
            "--kernel",
            "naive",
        ]);
        train(&a).unwrap();
        let bad = args(&[
            "train",
            "--dataset",
            "Cora",
            "--scale",
            "16",
            "--kernel",
            "simd",
        ]);
        assert!(train(&bad).is_err());
    }

    #[test]
    fn unknown_optimizer_is_rejected() {
        let a = args(&[
            "train",
            "--dataset",
            "Cora",
            "--scale",
            "16",
            "--optimizer",
            "sgdm",
        ]);
        assert!(train(&a).is_err());
    }
}
