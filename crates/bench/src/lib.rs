//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Each binary prints a human-readable table mirroring the paper's layout
//! and, when `--json <path>` is given, writes machine-readable rows so
//! EXPERIMENTS.md can be regenerated. Common flags:
//!
//! * `--quick` — smaller graphs and processor counts (CI-friendly);
//! * `--scale <div>` — extra scale divisor on top of each dataset's default;
//! * `--seed <n>` — RNG seed (default 1);
//! * `--threads <n>` — kernel thread-pool size per rank (default: the
//!   `PARGCN_THREADS` env var, else `available_parallelism / p`);
//! * `--kernel naive|blocked` — kernel engine (default: the
//!   `PARGCN_KERNEL` env var, else blocked). Never changes results.

use pargcn_core::baselines::cagnet::CagnetPlan;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::{Dataset, GraphData, Scale};
use pargcn_matrix::{Csr, KernelKind};
use pargcn_partition::{partition_rows, Method, Partition, DEFAULT_EPSILON};
use pargcn_util::json::{self, Json};

/// Parsed common command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub quick: bool,
    pub extra_scale: u32,
    pub seed: u64,
    pub json: Option<String>,
    pub threads: Option<usize>,
    pub kernel: Option<KernelKind>,
}

impl Opts {
    /// Parses `std::env::args`, ignoring unknown flags (binaries parse their
    /// own extras from the same args); a malformed value of a common flag
    /// prints the error and exits with status 2.
    pub fn parse() -> Opts {
        let args: Vec<String> = std::env::args().collect();
        Opts::from_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses the common flags out of `args`, ignoring unknown ones; a
    /// common flag without a value, or with one it cannot take, is an
    /// error naming the flag and the value.
    pub fn from_args(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            quick: false,
            extra_scale: 1,
            seed: 1,
            json: None,
            threads: None,
            kernel: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = || {
                args.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--quick" => opts.quick = true,
                "--scale" => opts.extra_scale = number(flag, value()?)?,
                "--seed" => opts.seed = number(flag, value()?)?,
                "--json" => opts.json = Some(value()?.to_string()),
                // 0 keeps the default.
                "--threads" => opts.threads = Some(number(flag, value()?)?).filter(|&t| t > 0),
                "--kernel" => {
                    let v = value()?;
                    let kernel = KernelKind::parse(v).ok_or_else(|| {
                        format!("{flag} {v:?} is not a kernel engine (naive|blocked)")
                    })?;
                    opts.kernel = Some(kernel);
                }
                _ => {}
            }
        }
        Ok(opts)
    }

    /// Effective scale for a dataset: its default divisor times the extra
    /// factor, times 8 more in quick mode.
    pub fn scale_for(&self, ds: Dataset) -> Scale {
        let quick_factor = if self.quick { 8 } else { 1 };
        Scale(
            ds.default_scale()
                .0
                .saturating_mul(self.extra_scale)
                .saturating_mul(quick_factor),
        )
    }

    /// Loads a dataset at the effective scale.
    pub fn load(&self, ds: Dataset) -> GraphData {
        ds.generate(self.scale_for(ds), self.seed)
    }
}

/// The value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} {v:?} is not a whole number"))
}

/// A generic result row for JSON output.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    pub experiment: String,
    pub dataset: String,
    pub method: String,
    pub p: usize,
    pub metrics: std::collections::BTreeMap<String, f64>,
}

impl ResultRow {
    /// Field order matches the historical derive-based serialization, so
    /// regenerated result files diff cleanly against `results/*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("experiment", Json::Str(self.experiment.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("method", Json::Str(self.method.clone())),
            ("p", Json::Num(self.p as f64)),
            ("metrics", json::from_metrics(&self.metrics)),
        ])
    }

    /// Inverse of [`ResultRow::to_json`]; used to read result files back
    /// when regenerating EXPERIMENTS.md tables.
    pub fn from_json(v: &Json) -> Option<ResultRow> {
        let metrics = match v.get("metrics")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            _ => return None,
        };
        Some(ResultRow {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            dataset: v.get("dataset")?.as_str()?.to_string(),
            method: v.get("method")?.as_str()?.to_string(),
            p: v.get("p")?.as_f64()? as usize,
            metrics,
        })
    }
}

/// Writes rows as pretty JSON if a path was given.
pub fn write_json(opts: &Opts, rows: &[ResultRow]) {
    if let Some(path) = &opts.json {
        let body = Json::Arr(rows.iter().map(ResultRow::to_json).collect()).to_string_pretty();
        std::fs::write(path, body).expect("write json output");
        eprintln!("wrote {} rows to {path}", rows.len());
    }
}

/// The standard 2-layer training configuration used by the communication
/// experiments (Table 2, Fig. 3, Fig. 4a): d = 32 features, 32 hidden, 16
/// outputs. The paper runs "random vertex features and label data".
pub fn comm_experiment_config() -> GcnConfig {
    GcnConfig {
        dims: vec![32, 32, 16],
        learning_rate: 0.1,
        order: pargcn_core::LayerOrder::SpmmFirst,
        optimizer: pargcn_core::optim::Optimizer::Sgd,
    }
}

/// Partitions and builds both direction plans for a graph.
pub fn build_plans(
    data: &GraphData,
    a: &Csr,
    method: Method,
    p: usize,
    seed: u64,
) -> (Partition, CommPlan, CommPlan) {
    let part = partition_rows(&data.graph, a, method, p, DEFAULT_EPSILON, seed);
    let plan_f = CommPlan::build(a, &part);
    let plan_b = if data.graph.directed() {
        CommPlan::build(&a.transpose(), &part)
    } else {
        plan_f.clone()
    };
    (part, plan_f, plan_b)
}

/// Builds the CAGNET plans for both directions.
pub fn build_cagnet_plans(data: &GraphData, a: &Csr, part: &Partition) -> (CagnetPlan, CagnetPlan) {
    let f = CagnetPlan::build(a, part);
    let b = if data.graph.directed() {
        CagnetPlan::build(&a.transpose(), part)
    } else {
        f.clone()
    };
    (f, b)
}

/// Formats a count with thousands separators for table output.
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_flags() {
        let args: Vec<String> = [
            "bin",
            "--quick",
            "--scale",
            "4",
            "--seed",
            "9",
            "--json",
            "/tmp/x.json",
            "--threads",
            "4",
            "--kernel",
            "naive",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Opts::from_args(&args).unwrap();
        assert!(o.quick);
        assert_eq!(o.extra_scale, 4);
        assert_eq!(o.seed, 9);
        assert_eq!(o.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.kernel, Some(KernelKind::Naive));
    }

    #[test]
    fn opts_reject_malformed_values_naming_the_flag() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            Opts::from_args(&args).unwrap_err()
        };
        assert_eq!(
            parse(&["bin", "--kernel", "bogus"]),
            "--kernel \"bogus\" is not a kernel engine (naive|blocked)"
        );
        assert_eq!(
            parse(&["bin", "--threads", "four"]),
            "--threads \"four\" is not a whole number"
        );
        assert_eq!(parse(&["bin", "--seed"]), "--seed needs a value");
    }

    #[test]
    fn quick_scale_is_8x() {
        let o = Opts::from_args(&["bin".to_string(), "--quick".to_string()]).unwrap();
        assert_eq!(o.scale_for(Dataset::Cora).0, 8);
    }

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(42), "42");
    }

    #[test]
    fn result_row_json_roundtrip() {
        let row = ResultRow {
            experiment: "fig3_cpu".into(),
            dataset: "amazon0601".into(),
            method: "HP".into(),
            p: 16,
            metrics: [("epoch_seconds".to_string(), 0.0025182201599999996)].into(),
        };
        let text = Json::Arr(vec![row.to_json()]).to_string_pretty();
        let parsed = json::parse(&text).unwrap();
        let back = ResultRow::from_json(&parsed.as_array().unwrap()[0]).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn plans_build_for_all_methods() {
        let o = Opts {
            quick: true,
            extra_scale: 8,
            seed: 1,
            json: None,
            threads: None,
            kernel: None,
        };
        let data = o.load(Dataset::ComAmazon);
        let a = data.graph.normalized_adjacency();
        for m in [Method::Rp, Method::Hp] {
            let (part, pf, pb) = build_plans(&data, &a, m, 4, 1);
            assert_eq!(part.p(), 4);
            assert_eq!(pf.p, 4);
            assert_eq!(pb.p, 4);
        }
    }
}
