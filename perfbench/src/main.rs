//! `perfbench`, the repository benchmark. It trains one workload in a
//! closed loop (a single caller starts each step when the previous one
//! returns), checks the outputs, and prints every end-to-end metric, or
//! with `--trace 1` every per-layer metric, as the last line of stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fullbatch-hp-dblp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! README.md gives the workloads, the metric definitions and the noise.

mod runs;
mod stats;
mod trace;
mod workload;

use pargcn_matrix::{ComputeSpec, KernelKind};
use pargcn_util::json::Json;
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]";

/// Ranks every workload trains on; metric names and bounds are defined
/// for this configuration only.
pub const RANKS: usize = 2;
/// Kernel threads per rank.
pub const THREADS: usize = 1;

/// End-to-end metrics of untraced runs, as listed in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 5] = [
    ("step_s_p50", "s"),
    ("step_s_p90", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of traced runs, as listed in BENCHMARK.json. A layer
/// that a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("graph.generate_s", "s"),
    ("graph.normalize_s", "s"),
    ("partition.partition_rows_s", "s"),
    ("plan.build_s", "s"),
    ("partition.imbalance", "ratio"),
    ("plan.volume_rows", "rows"),
    ("matrix.spmm_s", "s"),
    ("matrix.gemm_s", "s"),
    ("matrix.flops_per_step", "flop"),
    ("matrix.gflops", "GFLOP/s"),
    ("dist.forward_s", "s"),
    ("dist.backward_s", "s"),
    ("dist.loss_other_s", "s"),
    ("dist.rank_skew", "ratio"),
    ("comm.wait_s", "s"),
    ("comm.wait_share", "ratio"),
    ("comm.exchange_s", "s"),
    ("comm.p2p_bytes", "B"),
    ("comm.p2p_msgs", "count"),
    ("comm.coll_bytes", "B"),
    ("comm.coll_msgs", "count"),
    ("comm.allreduce_s", "s"),
    ("comm.session_step_s", "s"),
    ("cagnet.redundancy", "ratio"),
    ("minibatch.prep_s", "s"),
    ("plan.builder_s", "s"),
    ("graph.induced_subgraph_s", "s"),
    ("minibatch.prep_to_step", "ratio"),
    ("minibatch.skipped_ratio", "ratio"),
    ("minibatch.volume_rows", "rows"),
    ("serial.step_s", "s"),
    ("dist.speedup_vs_serial", "x"),
    ("trace.step_s_p50", "s"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| "--workload is required".to_string())?,
        seed,
        seconds,
        trace,
    })
}

/// Refuses more kernel threads than cores: oversubscribed timings measure
/// the scheduler, not the program.
fn check_parallelism(ranks: usize, threads: usize, cores: usize) -> Result<(), String> {
    if ranks * threads > cores {
        return Err(format!(
            "{ranks} ranks × {threads} threads exceed the {cores} available cores"
        ));
    }
    Ok(())
}

/// The checked-out commit, read from the repository's `.git` if there is
/// one (a plain source tree reports "unknown").
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    read(reference)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(e) = check_parallelism(RANKS, THREADS, cores) {
        eprintln!("perfbench: {e}");
        exit(2);
    }
    let kernel = KernelKind::Blocked;
    let provenance = Json::obj(vec![
        ("workload", Json::Str(args.workload.name.into())),
        ("available_parallelism", Json::Num(cores as f64)),
        ("ranks", Json::Num(RANKS as f64)),
        ("threads_per_rank", Json::Num(THREADS as f64)),
        ("kernel", Json::Str(kernel.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::Str(commit())),
    ]);
    println!("provenance {}", provenance.to_string_compact());

    let opts = runs::Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spec: ComputeSpec {
            threads: Some(THREADS),
            kernel: Some(kernel),
        },
    };
    let mut out = runs::run(args.workload, &opts);
    let times = out.window.times();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let p90 = stats::blocked_percentile(&times, 0.9).unwrap_or_else(|e| {
            eprintln!("step_s_p90: {e}");
            out.failed += 1;
            f64::NAN
        });
        let values = [
            stats::median(&times),
            p90,
            stats::median(&out.window.block_rates()),
            stats::median(&out.setup_s),
            peak_rss_mb().unwrap_or(f64::NAN),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    assert!(metrics.iter().all(|m| stats::valid_metric_name(m.0)));
    let attempted = out.attempted + out.window.attempted;
    let failed = out.failed + out.window.failed;
    let blocks = stats::blocks(times.len());
    println!(
        "{}: {} timed steps in {:.2} s, {} blocks of ≥ {} with {}+ beyond each block's p90; {} set-ups",
        args.workload.name,
        times.len(),
        out.window.wall,
        blocks.len(),
        blocks.iter().map(|r| r.len()).min().unwrap_or(0),
        blocks
            .iter()
            .map(|r| stats::beyond(r.len(), 0.9))
            .min()
            .unwrap_or(0),
        out.setup_s.len()
    );
    for &(name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("  fail_ratio {failed}/{attempted}");
    if out.tracer.dropped() > 0 {
        eprintln!("trace store full: {} spans dropped", out.tracer.dropped());
    }
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name, args.seed
        ));
        let body = out.tracer.to_chrome_json(provenance).to_string_compact();
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        let v = Json::obj(vec![
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]);
                        (name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
    exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for w in &workload::WORKLOADS {
            assert!(stats::valid_metric_name(w.name), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let spec = pargcn_util::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn oversubscription_is_refused() {
        assert!(check_parallelism(2, 1, 2).is_ok());
        assert!(check_parallelism(8, 1, 2).is_err());
        assert!(check_parallelism(2, 2, 2).is_err());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload cagnet-rp-road --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("cagnet-rp-road", 7, 2.5, true)
        );
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload cagnet-rp-road --trace 2",
            "--workload cagnet-rp-road --ranks 8",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
