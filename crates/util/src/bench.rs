//! Tiny timing/bench harness replacing `criterion` for the four
//! `crates/bench/benches/*` targets.
//!
//! The API mirrors the subset of criterion those targets use
//! (`Criterion`, `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `Throughput`, `sample_size`, and the
//! `criterion_group!`/`criterion_main!` macros), so a bench file only
//! swaps its imports. Methodology: a fixed warm-up, then N samples where
//! each sample times a batch of iterations sized so one sample lasts at
//! least ~2ms; median, p95, mean, and min over samples are reported.
//!
//! Output: one aligned text line per benchmark, and — with `--json
//! <path>` after `--`, or `PARGCN_BENCH_JSON=<path>` — machine-readable
//! rows in the same `{experiment, dataset, method, p, metrics}` schema
//! the experiment binaries emit (`results/*.json`), with the timing
//! statistics in `metrics`.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Throughput annotation; reported as elements or bytes per second
/// computed from the median sample time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier: a function name plus an optional parameter,
/// rendered `name/param` like criterion does.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{param}"),
        }
    }

    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            text: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { text: s }
    }
}

/// Statistics for one completed benchmark.
#[derive(Clone, Debug)]
pub struct BenchStats {
    pub group: String,
    pub name: String,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub median: Duration,
    pub mean: Duration,
    pub min: Duration,
    pub p95: Duration,
    pub throughput: Option<Throughput>,
}

impl BenchStats {
    fn full_name(&self) -> String {
        if self.group.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.group, self.name)
        }
    }

    fn to_json(&self) -> Json {
        let mut metrics = vec![
            ("median_s".to_string(), Json::Num(self.median.as_secs_f64())),
            ("mean_s".to_string(), Json::Num(self.mean.as_secs_f64())),
            ("min_s".to_string(), Json::Num(self.min.as_secs_f64())),
            ("p95_s".to_string(), Json::Num(self.p95.as_secs_f64())),
            ("samples".to_string(), Json::Num(self.samples as f64)),
            (
                "iters_per_sample".to_string(),
                Json::Num(self.iters_per_sample as f64),
            ),
        ];
        match self.throughput {
            Some(Throughput::Elements(n)) => metrics.push((
                "elements_per_s".to_string(),
                Json::Num(n as f64 / self.median.as_secs_f64().max(1e-12)),
            )),
            Some(Throughput::Bytes(n)) => metrics.push((
                "bytes_per_s".to_string(),
                Json::Num(n as f64 / self.median.as_secs_f64().max(1e-12)),
            )),
            None => {}
        }
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str("bench".to_string())),
            ("dataset".to_string(), Json::Str(self.full_name())),
            ("method".to_string(), Json::Str("wall_clock".to_string())),
            ("p".to_string(), Json::Num(1.0)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// Harness configuration and collected results.
pub struct Criterion {
    default_samples: usize,
    warmup: Duration,
    min_sample_time: Duration,
    filter: Option<String>,
    json_path: Option<String>,
    results: Vec<BenchStats>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_samples: 20,
            warmup: Duration::from_millis(200),
            min_sample_time: Duration::from_millis(2),
            filter: None,
            json_path: std::env::var("PARGCN_BENCH_JSON").ok(),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Builds a harness from `std::env::args`: a positional substring
    /// filters benchmark names (like criterion/libtest), `--json <path>`
    /// requests machine-readable output, `--quick` cuts sample counts
    /// for CI smoke runs, and harness flags cargo passes (`--bench`,
    /// `--test`) are ignored.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--json" => {
                    i += 1;
                    c.json_path = args.get(i).cloned();
                }
                "--quick" => {
                    c.default_samples = 5;
                    c.warmup = Duration::from_millis(20);
                }
                "--bench" | "--test" | "--nocapture" => {}
                s if s.starts_with("--") => {
                    // Unknown harness flag: skip, consuming a value if one
                    // follows (cargo forwards libtest-style flags).
                    if matches!(args.get(i + 1), Some(v) if !v.starts_with("--")) {
                        i += 1;
                    }
                }
                s => c.filter = Some(s.to_string()),
            }
            i += 1;
        }
        if std::env::var("PARGCN_BENCH_QUICK").is_ok() {
            c.default_samples = 5;
            c.warmup = Duration::from_millis(20);
        }
        c
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            harness: self,
            name: name.into(),
            samples: None,
            throughput: None,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(String::new(), id.text, self.default_samples, None, f);
        self
    }

    fn run_one<F>(
        &mut self,
        group: String,
        name: String,
        samples: usize,
        throughput: Option<Throughput>,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        let full = if group.is_empty() {
            name.clone()
        } else {
            format!("{group}/{name}")
        };
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration: let the closure run once to measure a single
        // iteration, then size the batch so one sample ≥ min_sample_time.
        let mut cal = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut cal);
        let once = cal.elapsed.max(Duration::from_nanos(1));
        let iters_per_sample =
            (self.min_sample_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        // Warm-up: run batches until the warm-up budget is spent.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warmup {
            let mut b = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
        }

        let mut times: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            times.push(b.elapsed / iters_per_sample as u32);
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        let p95 = times[((times.len() as f64 * 0.95) as usize).min(times.len() - 1)];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let min = times[0];
        let stats = BenchStats {
            group,
            name,
            samples,
            iters_per_sample,
            median,
            mean,
            min,
            p95,
            throughput,
        };
        print_stats(&stats);
        self.results.push(stats);
    }

    /// Prints the closing summary and writes the JSON report if requested.
    /// Called by `criterion_main!` after all groups have run.
    pub fn final_summary(&self) {
        eprintln!("\n{} benchmarks run", self.results.len());
        if let Some(path) = &self.json_path {
            let resolved = resolve_output_path(path);
            let rows = Json::Arr(self.results.iter().map(|s| s.to_json()).collect());
            std::fs::write(&resolved, rows.to_string_pretty()).expect("write bench json");
            eprintln!(
                "wrote {} rows to {}",
                self.results.len(),
                resolved.display()
            );
        }
    }
}

/// Anchors a relative `--json` path at the workspace root. `cargo bench`
/// runs bench binaries with the *package* directory as cwd, so a bare
/// `--json results/foo.json` would otherwise try (and fail) to write
/// into `crates/<pkg>/results/`. Walk up from the manifest directory to
/// the first ancestor holding a `Cargo.lock` — the workspace root — and
/// join the path there. Absolute paths pass through untouched.
fn resolve_output_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_default();
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join(p);
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return p.to_path_buf(),
        }
    }
}

fn print_stats(s: &BenchStats) {
    let extra = match s.throughput {
        Some(Throughput::Elements(n)) => {
            format!(
                "  {:>10.3e} elem/s",
                n as f64 / s.median.as_secs_f64().max(1e-12)
            )
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:>10.3e} B/s",
                n as f64 / s.median.as_secs_f64().max(1e-12)
            )
        }
        None => String::new(),
    };
    eprintln!(
        "{:<48} median {:>12?}  p95 {:>12?}  min {:>12?}{extra}",
        s.full_name(),
        s.median,
        s.p95,
        s.min
    );
}

/// A group of related benchmarks sharing sample-count and throughput
/// settings, mirroring criterion's `BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Criterion,
    name: String,
    samples: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(2));
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let samples = self.samples.unwrap_or(self.harness.default_samples);
        self.harness
            .run_one(self.name.clone(), id.text, samples, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (state is flushed eagerly, so this is a marker for
    /// API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; `iter` times the hot loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Mirrors `criterion::criterion_group!`: defines a function running
/// each benchmark in sequence against a shared harness.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name(c: &mut $crate::bench::Criterion) {
            $( $bench(c); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: defines `main` running every
/// group and emitting the final summary/JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_harness() -> Criterion {
        Criterion {
            default_samples: 3,
            warmup: Duration::from_millis(1),
            min_sample_time: Duration::from_micros(50),
            filter: None,
            json_path: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn runs_and_records_stats() {
        let mut c = quiet_harness();
        // Opaque bound and terms: a foldable sum (constant, or closed form
        // in the bound) measures under 1 ns an iteration, a median of 0.
        c.bench_function("spin", |b| {
            b.iter(|| {
                (0..std::hint::black_box(100u64))
                    .map(std::hint::black_box)
                    .sum::<u64>()
            })
        });
        assert_eq!(c.results.len(), 1);
        let s = &c.results[0];
        assert_eq!(s.full_name(), "spin");
        assert!(s.median > Duration::ZERO);
        assert!(s.min <= s.median && s.median <= s.p95);
    }

    #[test]
    fn group_settings_apply() {
        let mut c = quiet_harness();
        let mut g = c.benchmark_group("g");
        g.sample_size(4).throughput(Throughput::Elements(100));
        g.bench_with_input(BenchmarkId::new("x", 7), &7u32, |b, &v| b.iter(|| v * 2));
        g.finish();
        let s = &c.results[0];
        assert_eq!(s.full_name(), "g/x/7");
        assert_eq!(s.samples, 4);
        assert!(matches!(s.throughput, Some(Throughput::Elements(100))));
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = quiet_harness();
        c.filter = Some("keep".to_string());
        c.bench_function("keep_me", |b| b.iter(|| 1));
        c.bench_function("drop_me", |b| b.iter(|| 1));
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.results[0].name, "keep_me");
    }

    #[test]
    fn json_rows_match_result_schema() {
        let mut c = quiet_harness();
        c.bench_function("j", |b| b.iter(|| 0));
        let row = c.results[0].to_json();
        assert_eq!(row.get("experiment").unwrap().as_str(), Some("bench"));
        assert_eq!(row.get("dataset").unwrap().as_str(), Some("j"));
        assert!(row
            .get("metrics")
            .unwrap()
            .get("median_s")
            .unwrap()
            .as_f64()
            .is_some());
        // Round-trips through the parser.
        let text = row.to_string_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), row);
    }
}
