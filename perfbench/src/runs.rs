//! The three ways a workload trains, each in a closed loop: one main
//! thread starts the next step as soon as the previous one returns. Every
//! run also checks its outputs outside the timed window and, with
//! `--trace 1`, times single layers through their public functions.

use crate::stats::{blocks, median};
use crate::trace::{Tracer, MAIN_TID, NO_PARENT};
use crate::workload::{
    cagnet_call_counts, cagnet_epoch_bytes, model, slice, step_counts, Counts, Inputs, Kind, Local,
    Plans, Workload,
};
use crate::RANKS;
use pargcn_comm::{CommCounters, CommSession};
use pargcn_core::baselines::cagnet::{self, CagnetPlan};
use pargcn_core::dist::trainer::epoch_step;
use pargcn_core::dist::{
    backprop, feedforward, prewarm_comm_pools, EpochWorkspace, RankState, TAG_BWD,
};
use pargcn_core::minibatch::{self, MinibatchEngine};
use pargcn_core::optim::OptimizerState;
use pargcn_core::serial::SerialTrainer;
use pargcn_core::{GcnConfig, PlanBuilder};
use pargcn_graph::SubgraphScratch;
use pargcn_matrix::{gather, norm, ComputeCtx, ComputeSpec, Csr, Dense};
use pargcn_partition::stochastic::{sample_batches, Sampler};
use pargcn_partition::{metrics, Hypergraph};
use pargcn_util::rng::{SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Partitioning time depends
/// on the graph and the partitioner's seed, so the set-ups between the
/// first and the last use seeds derived from `--seed` (see `setup_seed`):
/// the median then stands for the workload, not for one seed's luck.
const SETUP_REPS: u32 = 7;
/// Epochs (or batches) each set-up trains before timing starts: the
/// correctness gate compares them across repeats and to a reference.
const GATE_STEPS: usize = 3;
/// Further untimed steps, so caches and pools are warm when timing starts:
/// at least `WARMUP_STEPS`, and for at least `WARMUP_SECONDS`. The first
/// half second of steps after set-up ran up to 1.5× slower than the rest
/// of the run on the 2-core host the README describes.
const WARMUP_STEPS: usize = 3;
const WARMUP_SECONDS: f64 = 1.0;
/// Fewest timed steps: a p90 needs ten samples beyond it.
const MIN_STEPS: usize = 100;
/// Mini-batches hold n / BATCH_DIVISOR vertices: large batches repeat
/// far more steadily than small ones.
const BATCH_DIVISOR: usize = 8;
/// Batches the stream cycles through; a multiple of `GROUP`.
const BATCH_POOL: usize = 64;
/// Batches per `MinibatchEngine::train` call. The engine prepares batch
/// t+1 while t trains, so the stream is driven a group at a time.
const GROUP: usize = 8;
/// Wall-clock budget of each standalone layer probe.
const PROBE_SECONDS: f64 = 0.5;
/// Repeats of the cheap communication probes.
const COMM_PROBES: u32 = 200;
/// Tag of the probe exchanges, clear of the trainer's forward/backward tags.
const PROBE_TAG: u32 = 2 * TAG_BWD;
/// Loss tolerance against the serial oracle (reassociation only), as in
/// the repository's equivalence tests.
const SERIAL_TOL: f64 = 1e-3;
/// Span store size; spans beyond it are counted as dropped.
const SPAN_CAPACITY: usize = 1 << 16;

/// What every run shares.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spec: ComputeSpec,
}

/// One rank's share of a measured step.
#[derive(Clone, Copy, Debug)]
pub struct RankStep {
    pub start: Instant,
    pub dur: Duration,
    /// Seconds blocked in receives and collectives.
    pub wait: f64,
    pub counts: Counts,
}

impl RankStep {
    /// A rank's share from the growth of its counters, for trainers that
    /// time themselves (`comm + compute` is the rank's busy wall time).
    fn from_counters(start: Instant, before: &CommCounters, after: &CommCounters) -> RankStep {
        let busy = |c: &CommCounters| c.comm_seconds + c.compute_seconds;
        RankStep {
            start,
            dur: Duration::from_secs_f64((busy(after) - busy(before)).max(0.0)),
            wait: after.comm_seconds - before.comm_seconds,
            counts: Counts::between(before, after),
        }
    }
}

/// One closed-loop step.
pub struct Step {
    /// Step-time sample: the caller's wall time of the call, per epoch or
    /// trained batch. It holds everything the caller waits for: dispatch
    /// to the ranks, the slowest rank's work, and any per-call set-up or
    /// preparation that the call does not overlap with training.
    pub time: f64,
    /// Epochs or batches the step stands for.
    pub count: u64,
    /// Training vertices pushed through forward and backward.
    pub samples: u64,
    pub ranks: Vec<RankStep>,
    pub error: Option<String>,
}

/// A timed closed-loop window.
#[derive(Default)]
pub struct Window {
    pub steps: Vec<Step>,
    /// Seconds from the window's start to the end of each step.
    pub ends: Vec<f64>,
    pub wall: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Window {
    pub fn times(&self) -> Vec<f64> {
        self.steps
            .iter()
            .filter(|s| s.error.is_none())
            .map(|s| s.time)
            .collect()
    }

    /// Training vertices per second over each of the window's
    /// [`blocks`] of steps.
    pub fn block_rates(&self) -> Vec<f64> {
        blocks(self.steps.len())
            .into_iter()
            .map(|r| {
                let from = if r.start == 0 {
                    0.0
                } else {
                    self.ends[r.start - 1]
                };
                let samples: u64 = self.steps[r.clone()].iter().map(|s| s.samples).sum();
                samples as f64 / (self.ends[r.end - 1] - from)
            })
            .collect()
    }
}

/// Everything a run measured and checked.
pub struct Outcome {
    pub tracer: Tracer,
    pub setup_s: Vec<f64>,
    /// The untraced timed window (the first half of a traced run).
    pub window: Window,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Checks made outside the windows, and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Bitwise repeat of the first set-up's gate losses.
    fn check_repeat(&mut self, first: &mut Option<Vec<f64>>, losses: Vec<f64>) {
        match first {
            None => *first = Some(losses),
            Some(f) => {
                let same = bits(f) == bits(&losses);
                let f = f.clone();
                self.check(same, || {
                    format!("same seed, different losses: {f:?} vs {losses:?}")
                });
            }
        }
    }

    fn check_close(&mut self, reference: &[f64], got: &[f64], what: &str) {
        let ok = reference.len() == got.len()
            && reference
                .iter()
                .zip(got)
                .all(|(r, g)| (r - g).abs() < SERIAL_TOL * (1.0 + r.abs()));
        self.check(ok, || format!("{what}: {got:?} vs reference {reference:?}"));
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Median duration of the spans called `name`; 0 when there are none.
    fn span_median(&self, name: &str) -> f64 {
        let s = self.tracer.seconds(name);
        if s.is_empty() {
            0.0
        } else {
            median(&s)
        }
    }
}

/// Whether set-up `rep` uses `--seed` itself: the first and the last do.
/// The last one trains; the first is there to be repeated bitwise.
fn own_seed(rep: u32) -> bool {
    rep == 0 || rep + 1 == SETUP_REPS
}

/// Seed of set-up `rep`: `--seed`, or one derived from it.
fn setup_seed(seed: u64, rep: u32) -> u64 {
    if own_seed(rep) {
        seed
    } else {
        seed.wrapping_add(u64::from(rep).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn total(ranks: &[RankStep]) -> Counts {
    ranks.iter().map(|r| r.counts).sum()
}

/// A step fails on a non-finite loss or ranks that disagree on it.
fn check_losses(losses: &[f64]) -> Option<String> {
    let first = losses[0];
    if !first.is_finite() {
        Some(format!("non-finite loss {first}"))
    } else if losses.iter().any(|l| l.to_bits() != first.to_bits()) {
        Some(format!("ranks disagree on the loss: {losses:?}"))
    } else {
        None
    }
}

/// A step fails when the counters differ from the exact prediction.
fn check_counts(got: Counts, expect: Counts) -> Option<String> {
    (got != expect).then(|| format!("counted {got:?}, predicted {expect:?}"))
}

/// Sets up, checks and times one workload.
pub fn run(w: &Workload, o: &Opts) -> Outcome {
    let mut out = Outcome {
        tracer: Tracer::with_capacity(SPAN_CAPACITY),
        setup_s: Vec::new(),
        window: Window::default(),
        layers: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    match w.kind {
        Kind::P2p => p2p(w, o, &mut out),
        Kind::Cagnet => cagnet_run(w, o, &mut out),
        Kind::Minibatch => stream(w, o, &mut out),
    }
    if o.trace {
        finish_layers(&mut out);
    }
    out
}

/// Runs `step` back to back for `seconds`, and for at least `min_steps`
/// steps. A panic fails the step and ends the window: the session it
/// poisoned refuses further steps.
fn closed_loop(seconds: f64, min_steps: usize, mut step: impl FnMut(u32) -> Step) -> Window {
    let mut w = Window {
        steps: Vec::with_capacity(1 << 12),
        ends: Vec::with_capacity(1 << 12),
        ..Window::default()
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || w.steps.len() < min_steps {
        let i = w.steps.len() as u32;
        match catch_unwind(AssertUnwindSafe(|| step(i))) {
            Ok(s) => {
                w.attempted += s.count;
                if let Some(e) = &s.error {
                    if w.failed == 0 {
                        eprintln!("step {i} failed: {e}");
                    }
                    w.failed += s.count;
                }
                w.steps.push(s);
                w.ends.push(start.elapsed().as_secs_f64());
            }
            Err(_) => {
                w.attempted += 1;
                w.failed += 1;
                break;
            }
        }
    }
    w.wall = start.elapsed().as_secs_f64();
    w
}

/// Untimed steps, then the timed window: the whole run, or with tracing
/// an untraced first half and a traced second half (their medians give
/// the tracing overhead).
fn windows(
    o: &Opts,
    out: &mut Outcome,
    span: &'static str,
    mut step: impl FnMut() -> Step,
) -> Option<Window> {
    let warm = Instant::now();
    for i in 0.. {
        if i >= WARMUP_STEPS && warm.elapsed().as_secs_f64() >= WARMUP_SECONDS {
            break;
        }
        let _ = step();
    }
    if !o.trace {
        out.window = closed_loop(o.seconds, MIN_STEPS, |_| step());
        return None;
    }
    out.window = closed_loop(o.seconds / 2.0, 1, |_| step());
    let tracer = &mut out.tracer;
    Some(closed_loop(o.seconds / 2.0, 1, |i| {
        tracer.span(span, i, |tr| {
            let s = step();
            for (m, r) in s.ranks.iter().enumerate() {
                let parent = tr.current();
                tr.record("rank.step", m as u32 + 1, i, r.start, r.dur, parent);
            }
            s
        })
    }))
}

struct Slot<'a> {
    st: RankState<'a>,
    ws: EpochWorkspace,
}

/// Full-batch trainer on the P2P path, built from the public pieces of
/// `dist`: persistent rank threads, and per rank a `RankState` and an
/// `EpochWorkspace` that live across steps. A step is one `epoch_step`.
struct P2pTrainer<'a> {
    session: CommSession,
    slots: Vec<Mutex<Slot<'a>>>,
}

impl<'a> P2pTrainer<'a> {
    fn new(
        plans: &'a Plans,
        locals: &'a [Local],
        config: &'a GcnConfig,
        seed: u64,
        spec: ComputeSpec,
    ) -> P2pTrainer<'a> {
        let p = plans.f.p;
        let init = config.init_params(seed);
        let mask_total = locals
            .iter()
            .flat_map(|l| &l.mask)
            .filter(|&&m| m)
            .count()
            .max(1) as f64;
        let slots: Vec<Mutex<Slot<'a>>> = plans
            .f
            .ranks
            .iter()
            .zip(&plans.backward().ranks)
            .zip(locals)
            .map(|((plan_f, plan_b), local)| {
                let st = RankState {
                    plan_f,
                    plan_b,
                    config,
                    params: init.clone(),
                    h0: &local.h,
                    labels: &local.labels,
                    mask: &local.mask,
                    mask_total,
                    opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
                    ctx: ComputeCtx::for_ranks_spec(p, spec),
                };
                let ws = EpochWorkspace::new(plan_f, config, p, &st.ctx);
                Mutex::new(Slot { st, ws })
            })
            .collect();
        let mut session = CommSession::new(p);
        session.run_step(|ctx| {
            let slot = slots[ctx.rank()].lock().expect("rank slot poisoned");
            prewarm_comm_pools(ctx, slot.st.plan_f, slot.st.plan_b, config);
        });
        P2pTrainer { session, slots }
    }

    /// One epoch on every rank: each rank's loss and share of the step.
    fn step(&mut self) -> (Vec<f64>, Vec<RankStep>) {
        let P2pTrainer { session, slots } = self;
        session
            .run_step(|ctx| {
                let mut guard = slots[ctx.rank()].lock().expect("rank slot poisoned");
                let Slot { st, ws } = &mut *guard;
                let before = ctx.counters().clone();
                st.ctx.take_flops();
                let start = Instant::now();
                let loss = epoch_step(ctx, st, ws);
                let dur = start.elapsed();
                let mut counts = Counts::between(&before, ctx.counters());
                counts.flops = st.ctx.take_flops();
                let wait = ctx.counters().comm_seconds - before.comm_seconds;
                (
                    loss,
                    RankStep {
                        start,
                        dur,
                        wait,
                        counts,
                    },
                )
            })
            .into_iter()
            .unzip()
    }

    /// Standalone `feedforward::run`, `backprop::run` and one H⁰ exchange
    /// on every rank, `reps` times. Parameters are restored before each
    /// repeat so the probe's own updates cannot drift them; the loss
    /// gradient is a fixed nonzero pattern of a real gradient's size.
    fn probe(&mut self, reps: u32) -> Vec<Vec<[(Instant, Duration); 3]>> {
        let P2pTrainer { session, slots } = self;
        session.run_step(|ctx| {
            let mut guard = slots[ctx.rank()].lock().expect("rank slot poisoned");
            let Slot { st, ws } = &mut *guard;
            let init = st.params.clone();
            let scale = st.mask_total as f32;
            for (i, g) in ws.grad.data_mut().iter_mut().enumerate() {
                *g = ((i % 7) as f32 - 3.0) / scale;
            }
            let mut ax = Dense::zeros(st.plan_f.n_local(), st.h0.cols());
            (0..reps)
                .map(|_| {
                    st.params.clone_from(&init);
                    let t0 = Instant::now();
                    feedforward::run(ctx, st, ws);
                    let t1 = Instant::now();
                    backprop::run(ctx, st, ws);
                    let t2 = Instant::now();
                    feedforward::spmm_exchange_into(
                        ctx,
                        st.plan_f,
                        st.h0,
                        PROBE_TAG,
                        &st.ctx,
                        &mut ws.exchange,
                        &mut ax,
                    );
                    let t3 = Instant::now();
                    [(t0, t1 - t0), (t1, t2 - t1), (t2, t3 - t2)]
                })
                .collect()
        })
    }
}

/// The serial oracle's first `GATE_STEPS` losses on one worker thread,
/// each epoch spanned as `serial.step`.
fn serial_losses(
    trainer: SerialTrainer,
    h0: &Dense,
    labels: &[u32],
    mask: &[bool],
    o: &Opts,
    tr: &mut Tracer,
) -> Vec<f64> {
    let one = ComputeSpec {
        threads: Some(1),
        kernel: o.spec.kernel,
    };
    let mut t = trainer.with_ctx(ComputeCtx::for_ranks_spec(1, one));
    (0..GATE_STEPS as u32)
        .map(|i| tr.span("serial.step", i, |_| t.train_epoch(h0, labels, mask)))
        .collect()
}

fn p2p(w: &Workload, o: &Opts, out: &mut Outcome) {
    let config = model();
    let mut first = None;
    for rep in 0..SETUP_REPS {
        let seed = setup_seed(o.seed, rep);
        let start = Instant::now();
        let inputs = Inputs::build(w, seed, RANKS, &mut out.tracer, rep);
        let plans = out.tracer.span("plan.build", rep, |_| {
            let directed = inputs.graph.directed();
            Plans::build(&inputs.a, &inputs.part, directed, &mut PlanBuilder::new())
        });
        let locals = out.tracer.span("dist.distribute", rep, |_| {
            slice(&plans.f, &inputs.h0, &inputs.labels, &inputs.mask)
        });
        let mut trainer = out.tracer.span("dist.trainer_new", rep, |_| {
            P2pTrainer::new(&plans, &locals, &config, seed, o.spec)
        });
        out.setup_s.push(start.elapsed().as_secs_f64());
        if !own_seed(rep) {
            continue;
        }

        // Correctness gate, outside any timed window: the first epochs of
        // both set-ups from `--seed` repeat bitwise, and match the oracle.
        let losses: Vec<f64> = (0..GATE_STEPS).map(|_| trainer.step().0[0]).collect();
        out.check_repeat(&mut first, losses.clone());
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let oracle = SerialTrainer::new(&inputs.graph, config.clone(), o.seed);
        let serial = serial_losses(
            oracle,
            &inputs.h0,
            &inputs.labels,
            &inputs.mask,
            o,
            &mut out.tracer,
        );
        out.check_close(&serial, &losses, "P2P losses vs the serial oracle");

        let expect = step_counts(&plans, &config);
        let n = inputs.graph.n() as u64;
        let traced = windows(o, out, "dist.step", || {
            let start = Instant::now();
            let (losses, ranks) = trainer.step();
            let time = start.elapsed().as_secs_f64();
            let error = check_losses(&losses).or_else(|| check_counts(total(&ranks), expect));
            Step {
                time,
                count: 1,
                samples: n,
                ranks,
                error,
            }
        });
        drop(trainer);
        let Some(traced) = traced else { return };
        window_layers(out, &traced);
        probe_layers(Some((&plans, &locals)), &config, o, out);
        kernel_layers(&plans, &locals, &config, o, out);
        let volume = plans.f.total_volume_rows();
        let cut = Hypergraph::column_net_model(&inputs.a).connectivity_cut(&inputs.part);
        out.check(cut == volume, || {
            format!("hypergraph cut {cut} differs from the plan volume {volume}")
        });
        out.layer("plan.volume_rows", volume as f64);
        out.layer("partition.imbalance", inputs.imbalance());
    }
}

fn cagnet_run(w: &Workload, o: &Opts, out: &mut Outcome) {
    let config = model();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = Inputs::build(w, setup_seed(o.seed, rep), RANKS, &mut out.tracer, rep);
        out.setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let train = |epochs: usize| {
            cagnet::train_full_batch_spec(
                &inputs.graph,
                &inputs.h0,
                &inputs.labels,
                &inputs.mask,
                &inputs.part,
                &config,
                epochs,
                o.seed,
                o.spec,
            )
        };
        // Gate: a multi-epoch call matches the serial oracle (updates
        // included), and every timed call repeats its first loss bitwise.
        let gate = train(GATE_STEPS).losses;
        let oracle = SerialTrainer::new(&inputs.graph, config.clone(), o.seed);
        let serial = serial_losses(
            oracle,
            &inputs.h0,
            &inputs.labels,
            &inputs.mask,
            o,
            &mut out.tracer,
        );
        out.check_close(&serial, &gate, "CAGNET losses vs the serial oracle");

        let n = inputs.graph.n() as u64;
        let expect = cagnet_call_counts(n, inputs.a.nnz() as u64, RANKS as u64, &config);
        let traced = windows(o, out, "cagnet.train_full_batch_spec", || {
            let start = Instant::now();
            let res = train(1);
            let time = start.elapsed().as_secs_f64();
            let zero = CommCounters::default();
            let ranks: Vec<RankStep> = res
                .counters
                .iter()
                .map(|c| RankStep::from_counters(start, &zero, c))
                .collect();
            let error = if res.losses[0].to_bits() != gate[0].to_bits() {
                Some(format!(
                    "loss {} differs from the same seed's gate loss {}",
                    res.losses[0], gate[0]
                ))
            } else {
                check_counts(total(&ranks), expect)
            };
            Step {
                time,
                count: 1,
                samples: n,
                ranks,
                error,
            }
        });
        let Some(traced) = traced else { return };
        window_layers(out, &traced);
        for i in 0..SETUP_REPS {
            out.tracer.span("plan.build", i, |_| {
                std::hint::black_box(CagnetPlan::build(&inputs.a, &inputs.part));
            });
        }
        // The P2P plan of the same partition: what the broadcasts would
        // have to move if only the needed rows travelled.
        let plans = Plans::build(
            &inputs.a,
            &inputs.part,
            inputs.graph.directed(),
            &mut PlanBuilder::new(),
        );
        let locals = slice(&plans.f, &inputs.h0, &inputs.labels, &inputs.mask);
        kernel_layers(&plans, &locals, &config, o, out);
        probe_layers(None, &config, o, out);
        let useful = step_counts(&plans, &config).p2p_bytes;
        let moved = cagnet_epoch_bytes(n, RANKS as u64, &config);
        out.layer("cagnet.redundancy", moved as f64 / useful.max(1) as f64);
        out.layer("plan.volume_rows", plans.f.total_volume_rows() as f64);
        out.layer("partition.imbalance", inputs.imbalance());
    }
}

/// One batch prepared through the public calls the engine's pipelined
/// prep makes: subgraph, normalization, restricted partition, both plans
/// from one reusable builder, and per-rank slices.
struct Prepared {
    plans: Plans,
    locals: Vec<Local>,
    a: Csr,
    directed: bool,
}

fn prepare(
    inputs: &Inputs,
    batch: &[u32],
    builder: &mut PlanBuilder,
    scratch: &mut SubgraphScratch,
    tr: &mut Tracer,
    i: u32,
) -> Prepared {
    tr.span("minibatch.prep", i, |tr| {
        let sub = tr.span("graph.induced_subgraph", i, |_| {
            inputs.graph.induced_subgraph_into(batch, scratch)
        });
        let a = tr.span("minibatch.normalize", i, |_| {
            norm::normalize_adjacency(sub.adjacency())
        });
        let part = minibatch::restrict_partition(&inputs.part, batch);
        let plans = tr.span("plan.builder", i, |_| {
            Plans::build(&a, &part, sub.directed(), builder)
        });
        let locals = tr.span("minibatch.slices", i, |_| {
            let h = gather::gather_rows(&inputs.h0, batch);
            let labels: Vec<u32> = batch.iter().map(|&v| inputs.labels[v as usize]).collect();
            let mask: Vec<bool> = batch.iter().map(|&v| inputs.mask[v as usize]).collect();
            slice(&plans.f, &h, &labels, &mask)
        });
        Prepared {
            plans,
            locals,
            a,
            directed: sub.directed(),
        }
    })
}

/// Exact expectations for one batch of the stream.
struct Expect {
    counts: Counts,
    volume: u64,
    trainable: bool,
    size: u64,
}

fn stream(w: &Workload, o: &Opts, out: &mut Outcome) {
    let config = model();
    let mut first = None;
    for rep in 0..SETUP_REPS {
        let seed = setup_seed(o.seed, rep);
        let start = Instant::now();
        let inputs = Inputs::build(w, seed, RANKS, &mut out.tracer, rep);
        let sampler = Sampler::UniformVertex {
            batch_size: inputs.graph.n() / BATCH_DIVISOR,
        };
        let batches = out.tracer.span("minibatch.sample", rep, |_| {
            sample_batches(&inputs.graph, sampler, BATCH_POOL, seed ^ 0xba7c)
        });
        let mut engine = out.tracer.span("minibatch.engine_new", rep, |_| {
            MinibatchEngine::new(
                &inputs.graph,
                &inputs.h0,
                &inputs.labels,
                &inputs.mask,
                &inputs.part,
                &config,
                seed,
                o.spec,
            )
        });
        out.setup_s.push(start.elapsed().as_secs_f64());
        if !own_seed(rep) {
            continue;
        }

        // Gate: the first group repeats bitwise across the set-ups from
        // `--seed`, and equals `minibatch::train_spec`, the per-batch
        // reference path, bitwise.
        let gate = &batches[..GROUP];
        let losses = engine.train(gate).losses;
        out.check_repeat(&mut first, losses.clone());
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let reference = minibatch::train_spec(
            &inputs.graph,
            &inputs.h0,
            &inputs.labels,
            &inputs.mask,
            &inputs.part,
            &config,
            gate,
            o.seed,
            o.spec,
        )
        .losses;
        out.check(bits(&reference) == bits(&losses), || {
            format!("engine losses {losses:?} differ from train_spec {reference:?}")
        });

        let mut builder = PlanBuilder::new();
        let mut scratch = SubgraphScratch::new();
        let mut probe = None;
        let mut expect = Vec::with_capacity(batches.len());
        for (i, b) in batches.iter().enumerate() {
            let prep = prepare(
                &inputs,
                b,
                &mut builder,
                &mut scratch,
                &mut out.tracer,
                i as u32,
            );
            let trainable = prep.locals.iter().any(|l| l.mask.iter().any(|&m| m));
            expect.push(Expect {
                counts: step_counts(&prep.plans, &config),
                volume: prep.plans.f.total_volume_rows(),
                trainable,
                size: b.len() as u64,
            });
            if i == 0 {
                probe = Some(prep);
            }
        }

        let mut next = GROUP;
        let traced = windows(o, out, "minibatch.train", || {
            let at = next % BATCH_POOL;
            next += GROUP;
            let want = &expect[at..at + GROUP];
            let before = engine.counters();
            let start = Instant::now();
            let res = engine.train(&batches[at..at + GROUP]);
            let time = start.elapsed().as_secs_f64();
            let after = engine.counters();
            let ranks: Vec<RankStep> = before
                .iter()
                .zip(&after)
                .map(|(b, a)| RankStep::from_counters(start, b, a))
                .collect();
            let trained = want.iter().filter(|e| e.trainable);
            let counts: Counts = trained.clone().map(|e| e.counts).sum();
            let volume: u64 = trained.clone().map(|e| e.volume).sum();
            let skipped = GROUP - trained.clone().count();
            let error = res
                .losses
                .iter()
                .find(|l| !l.is_finite())
                .map(|l| format!("non-finite loss {l}"))
                .or_else(|| {
                    (res.total_volume_rows != volume || res.skipped_batches != skipped).then(|| {
                        format!(
                            "volume {} / skipped {}, predicted {volume} / {skipped}",
                            res.total_volume_rows, res.skipped_batches
                        )
                    })
                })
                .or_else(|| check_counts(total(&ranks), counts));
            let per_batch = (GROUP - res.skipped_batches).max(1) as f64;
            Step {
                time: time / per_batch,
                count: GROUP as u64,
                samples: trained.map(|e| e.size).sum(),
                ranks,
                error,
            }
        });
        drop(engine);
        let Some(traced) = traced else { return };
        window_layers(out, &traced);
        let prep = probe.expect("the batch pool is never empty");
        probe_layers(Some((&prep.plans, &prep.locals)), &config, o, out);
        kernel_layers(&prep.plans, &prep.locals, &config, o, out);
        let h = gather::gather_rows(&inputs.h0, &batches[0]);
        let labels: Vec<u32> = batches[0]
            .iter()
            .map(|&v| inputs.labels[v as usize])
            .collect();
        let mask: Vec<bool> = batches[0]
            .iter()
            .map(|&v| inputs.mask[v as usize])
            .collect();
        let oracle = SerialTrainer::from_adjacency(
            prep.a.clone(),
            prep.directed,
            config.clone(),
            config.init_params(o.seed),
        );
        serial_losses(oracle, &h, &labels, &mask, o, &mut out.tracer);
        let trained: Vec<&Expect> = expect.iter().filter(|e| e.trainable).collect();
        let skipped = (expect.len() - trained.len()) as f64 / expect.len() as f64;
        let volume = trained.iter().map(|e| e.volume).sum::<u64>() as f64;
        out.layer("minibatch.skipped_ratio", skipped);
        out.layer(
            "minibatch.volume_rows",
            volume / trained.len().max(1) as f64,
        );
        let full = metrics::spmm_comm_stats(&inputs.a, &inputs.part).total_rows;
        out.layer("plan.volume_rows", full as f64);
        out.layer("partition.imbalance", inputs.imbalance());
    }
}

/// Per-layer metrics from the traced window's steps: per epoch or batch,
/// the counted traffic and FLOPs, blocked time and its share, the
/// arithmetic rate, and the ranks' idle share.
fn window_layers(out: &mut Outcome, traced: &Window) {
    let pooled = |f: &dyn Fn(&Step) -> Vec<f64>| -> f64 {
        median(&traced.steps.iter().flat_map(f).collect::<Vec<_>>())
    };
    let step_p50 = median(&traced.times());
    out.layer("trace.step_s_p50", step_p50);
    out.layer(
        "trace.overhead",
        step_p50 / median(&out.window.times()) - 1.0,
    );
    out.layer(
        "dist.rank_skew",
        pooled(&|s| {
            let d: Vec<f64> = s.ranks.iter().map(|r| r.dur.as_secs_f64()).collect();
            let max = d.iter().copied().fold(0.0, f64::max);
            let min = d.iter().copied().fold(f64::INFINITY, f64::min);
            vec![if max > 0.0 { (max - min) / max } else { 0.0 }]
        }),
    );
    out.layer(
        "comm.wait_s",
        pooled(&|s| s.ranks.iter().map(|r| r.wait / s.count as f64).collect()),
    );
    out.layer(
        "comm.wait_share",
        pooled(&|s| {
            s.ranks
                .iter()
                .map(|r| r.wait / r.dur.as_secs_f64().max(1e-12))
                .collect()
        }),
    );
    out.layer(
        "matrix.gflops",
        pooled(&|s| {
            let busy: f64 = s.ranks.iter().map(|r| r.dur.as_secs_f64() - r.wait).sum();
            vec![total(&s.ranks).flops as f64 / busy.max(1e-12) / 1e9]
        }),
    );
    let steps = traced.steps.iter().map(|s| s.count).sum::<u64>().max(1) as f64;
    let sum: Counts = traced.steps.iter().map(|s| total(&s.ranks)).sum();
    out.layer("matrix.flops_per_step", sum.flops as f64 / steps);
    out.layer("comm.p2p_bytes", sum.p2p_bytes as f64 / steps);
    out.layer("comm.p2p_msgs", sum.p2p_msgs as f64 / steps);
    out.layer("comm.coll_bytes", sum.coll_bytes as f64 / steps);
    out.layer("comm.coll_msgs", sum.coll_msgs as f64 / steps);
}

/// Times single layers through standalone calls, on fresh rank state in
/// a session of its own so the measured training is not disturbed: the
/// empty `run_step` round trip, a ΔW¹-sized allreduce and, given a P2P
/// plan, `feedforward::run`, `backprop::run` and one H⁰ exchange.
fn probe_layers(plan: Option<(&Plans, &[Local])>, config: &GcnConfig, o: &Opts, out: &mut Outcome) {
    let mut session = CommSession::new(RANKS);
    for i in 0..COMM_PROBES {
        let t = Instant::now();
        session.run_step(|_| ());
        out.tracer
            .record("comm.session_step", MAIN_TID, i, t, t.elapsed(), NO_PARENT);
    }
    let floats = config.dims[0] * config.dims[1];
    let allreduces = session.run_step(|ctx| {
        let mut buf = vec![0.0f32; floats];
        (0..COMM_PROBES)
            .map(|_| {
                buf.fill(0.5);
                let t = Instant::now();
                ctx.allreduce_sum(&mut buf);
                (t, t.elapsed())
            })
            .collect::<Vec<_>>()
    });
    drop(session);
    for (m, rank) in allreduces.iter().enumerate() {
        for (i, &(t, d)) in rank.iter().enumerate() {
            out.tracer
                .record("comm.allreduce", m as u32 + 1, i as u32, t, d, NO_PARENT);
        }
    }
    out.layer("comm.session_step_s", out.span_median("comm.session_step"));
    out.layer("comm.allreduce_s", out.span_median("comm.allreduce"));
    let Some((plans, locals)) = plan else { return };
    let mut probe = P2pTrainer::new(plans, locals, config, o.seed, o.spec);
    // Size the repeats from one timed repeat so each probe fits its budget.
    let once = probe.probe(1);
    let rep_s = once
        .iter()
        .map(|r| r[0].iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>())
        .fold(1e-6, f64::max);
    let reps = (PROBE_SECONDS / rep_s).clamp(5.0, 500.0) as u32;
    let timings = probe.probe(reps);
    drop(probe);
    for (m, rank) in timings.iter().enumerate() {
        for (i, calls) in rank.iter().enumerate() {
            for (name, &(t, d)) in ["dist.forward", "dist.backward", "comm.exchange"]
                .iter()
                .zip(calls)
            {
                out.tracer
                    .record(name, m as u32 + 1, i as u32, t, d, NO_PARENT);
            }
        }
    }
    out.layer("dist.forward_s", out.span_median("dist.forward"));
    out.layer("dist.backward_s", out.span_median("dist.backward"));
    out.layer("comm.exchange_s", out.span_median("comm.exchange"));
}

/// Kernel time on rank 0's real operands through a rank's compute
/// context: SpMM of its own block against its H⁰ rows, and the three
/// layer-shaped GEMMs H·W, G·Wᵀ and Hᵀ·G.
fn kernel_layers(plans: &Plans, locals: &[Local], config: &GcnConfig, o: &Opts, out: &mut Outcome) {
    let (rp, h) = (&plans.f.ranks[0], &locals[0].h);
    let (n, d) = (rp.n_local(), &config.dims);
    let cctx = ComputeCtx::for_ranks_spec(RANKS, o.spec);
    let dmax = d.iter().copied().max().unwrap_or(0);
    cctx.reserve_pack(n.max(dmax) * dmax);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let w1 = Dense::random(d[0], d[1], &mut rng);
    let w2 = Dense::random(d[1], d[2], &mut rng);
    let g = Dense::random(n, d[2], &mut rng);
    let mut ah = Dense::zeros(n, d[0]);
    let mut z = Dense::zeros(n, d[1]);
    let mut s = Dense::zeros(n, d[1]);
    let mut dw = Dense::zeros(d[1], d[2]);
    let deadline = Instant::now() + Duration::from_secs_f64(PROBE_SECONDS);
    let mut i = 0;
    while i < 10 || (Instant::now() < deadline && i < 1000) {
        out.tracer.span("matrix.spmm", i, |_| {
            cctx.spmm_into(&rp.a_own, h, &mut ah, false)
        });
        out.tracer.span("matrix.gemm", i, |_| {
            cctx.matmul_into(&ah, &w1, &mut z, false);
            cctx.matmul_bt_into(&g, &w2, &mut s);
            cctx.matmul_at_into(&z, &g, &mut dw);
        });
        i += 1;
    }
    std::hint::black_box((&ah, &z, &s, &dw));
    out.layer("matrix.spmm_s", out.span_median("matrix.spmm"));
    out.layer("matrix.gemm_s", out.span_median("matrix.gemm"));
}

/// Set-up phases and reference metrics from the recorded spans, plus the
/// ratios built on them.
fn finish_layers(out: &mut Outcome) {
    for (metric, span) in [
        ("graph.generate_s", "graph.generate"),
        ("graph.normalize_s", "graph.normalize"),
        ("partition.partition_rows_s", "partition.partition_rows"),
        ("plan.build_s", "plan.build"),
        ("serial.step_s", "serial.step"),
        ("minibatch.prep_s", "minibatch.prep"),
        ("plan.builder_s", "plan.builder"),
        ("graph.induced_subgraph_s", "graph.induced_subgraph"),
    ] {
        let v = out.span_median(span);
        out.layer(metric, v);
    }
    let get = |out: &Outcome, name: &str| out.layers.get(name).copied().unwrap_or(0.0);
    let step = median(&out.window.times());
    let serial = get(out, "serial.step_s");
    out.layer("dist.speedup_vs_serial", serial / step);
    let parts = get(out, "dist.forward_s") + get(out, "dist.backward_s");
    if parts > 0.0 {
        let traced = get(out, "trace.step_s_p50");
        out.layer("dist.loss_other_s", (traced - parts).max(0.0));
    }
    let prep = get(out, "minibatch.prep_s");
    if prep > 0.0 {
        out.layer("minibatch.prep_to_step", prep / step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_first_and_last_setups_use_the_seed() {
        let seeds: Vec<u64> = (0..SETUP_REPS).map(|r| setup_seed(7, r)).collect();
        let last = seeds.len() - 1;
        assert_eq!((seeds[0], seeds[last]), (7, 7));
        let mut between = seeds[1..last].to_vec();
        between.sort_unstable();
        between.dedup();
        assert_eq!(between.len(), last - 1, "derived seeds repeat");
        assert!(!between.contains(&7));
    }
}
