//! Figure 4c: predictive performance is unaffected by parallel training.
//!
//! Trains the Cora-class dataset for 30 epochs serially and distributed on
//! P = 1…27 ranks (real threaded execution, not the cost model) and prints
//! the test accuracy per P — the paper reports ≈75% at every setting.
//!
//! ```text
//! cargo run -p pargcn-bench --release --bin fig4c_accuracy [-- --quick]
//! ```

use pargcn_bench::{Opts, ResultRow};
use pargcn_core::dist::train_full_batch_spec;
use pargcn_core::loss::accuracy;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::GcnConfig;
use pargcn_graph::Dataset;
use pargcn_matrix::ComputeSpec;
use pargcn_partition::{partition_rows, Method, DEFAULT_EPSILON};
use std::collections::BTreeMap;

fn main() {
    let opts = Opts::parse();
    let epochs = 30usize;
    let data = opts.load(Dataset::Cora);
    let features = data.features.expect("Cora has features");
    let labels = data.labels.expect("Cora has labels");
    let train_mask = data.train_mask.expect("Cora has a split");
    let test_mask: Vec<bool> = train_mask.iter().map(|&m| !m).collect();
    let config = GcnConfig::two_layer(features.cols(), 16, 7);

    println!(
        "Figure 4c: accuracy after {epochs} epochs on {} vertices",
        data.graph.n()
    );
    let mut rows = Vec::new();

    let mut serial = SerialTrainer::new(&data.graph, config.clone(), opts.seed);
    for _ in 0..epochs {
        serial.train_epoch(&features, &labels, &train_mask);
    }
    let serial_acc = accuracy(&serial.predict(&features), &labels, &test_mask);
    println!("{:<8} {:>10.4}", "serial", serial_acc);

    let a = data.graph.normalized_adjacency();
    let ps: Vec<usize> = if opts.quick {
        vec![3, 9]
    } else {
        vec![1, 3, 9, 15, 21, 27]
    };
    for p in ps {
        let part = if p == 1 {
            pargcn_partition::Partition::trivial(data.graph.n())
        } else {
            partition_rows(&data.graph, &a, Method::Hp, p, DEFAULT_EPSILON, opts.seed)
        };
        let out = train_full_batch_spec(
            &data.graph,
            &features,
            &labels,
            &train_mask,
            &part,
            &config,
            epochs,
            opts.seed,
            ComputeSpec::default(),
        );
        let acc = accuracy(&out.predictions, &labels, &test_mask);
        println!("{:<8} {:>10.4}", format!("P={p}"), acc);
        let mut metrics = BTreeMap::new();
        metrics.insert("accuracy".into(), acc);
        metrics.insert("serial_accuracy".into(), serial_acc);
        metrics.insert("final_loss".into(), *out.losses.last().unwrap());
        rows.push(ResultRow {
            experiment: "fig4c".into(),
            dataset: "Cora".into(),
            method: "HP".into(),
            p,
            metrics,
        });
    }
    pargcn_bench::write_json(&opts, &rows);
}
