//! The PR's headline contract, pinned by a counting global allocator:
//! once the payload pools are warm, a full training epoch performs **zero
//! heap allocations inside the communication runtime** — every `acquire`,
//! `isend`, `recv*`, `release`, `allreduce_sum` and `broadcast_lend` runs
//! on recycled buffers (DESIGN.md §9). GAT inference's exchange is held
//! to the same contract from its first message.
//!
//! This binary installs [`pargcn_util::allocmeter::CountingAllocator`] as
//! the global allocator, which makes `CommCounters::comm_path_allocs`
//! live: each runtime method samples the thread-local allocation counter
//! around its body. Two warm-up epochs let every pool and channel deque
//! reach its steady footprint, the counters reset, and three more epochs
//! must then report zero comm-path allocations on every rank.

use pargcn_comm::{CommCounters, CommSession};
use pargcn_core::baselines::cagnet::CagnetPlan;
use pargcn_core::dist::trainer::epoch_step;
use pargcn_core::dist::{
    prewarm_comm_pools, EpochWorkspace, ExchangeScratch, RankState, SpmmExchange, TrainState,
    Trainer,
};
use pargcn_core::gat::{self, GatLayer};
use pargcn_core::optim::OptimizerState;
use pargcn_core::plan::RankPlan;
use pargcn_core::{CommPlan, GcnConfig};
use pargcn_graph::gen::er;
use pargcn_graph::gen::sbm::{self, SbmParams};
use pargcn_graph::Graph;
use pargcn_matrix::{gather, ComputeCtx, ComputeSpec, Dense};
use pargcn_partition::{partition_rows, Method, Partition};
use pargcn_util::allocmeter::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Problem {
    graph: Graph,
    h0: Dense,
    labels: Vec<u32>,
    mask: Vec<bool>,
    part: Partition,
    config: GcnConfig,
}

/// An SBM problem (undirected), or a directed random graph so that the
/// backward exchange runs over `Âᵀ`'s own plan.
fn problem(p: usize, directed: bool) -> Problem {
    let (graph, h0, labels, mask) = if directed {
        let graph = er::generate(200, 1200, true, 7);
        let h0 = Dense::from_fn(200, 8, |i, j| ((i * 7 + j * 3) % 11) as f32 / 11.0);
        let labels = (0..200).map(|i| (i % 4) as u32).collect();
        (graph, h0, labels, vec![true; 200])
    } else {
        let data = sbm::generate(
            SbmParams {
                n: 200,
                classes: 4,
                features: 8,
                feature_separation: 1.5,
                ..Default::default()
            },
            7,
        );
        (data.graph, data.features, data.labels, data.train_mask)
    };
    let a = graph.normalized_adjacency();
    let part = partition_rows(&graph, &a, Method::Hp, p, 0.1, 1);
    Problem {
        graph,
        h0,
        labels,
        mask,
        part,
        config: GcnConfig::two_layer(8, 16, 4),
    }
}

struct RankAllocs {
    /// Comm-path allocations over the steady-state epochs.
    steady: u64,
    /// All allocations the rank thread made over the steady-state epochs,
    /// inside the comm runtime or out of it.
    all: u64,
    /// Pool acquires, over all epochs, that no prewarmed buffer served.
    pool_misses: u64,
}

/// Runs two warm-up epochs, resets the counters, then three more epochs
/// through `epoch_step` over the given per-rank exchanges.
fn epoch_allocs<X: SpmmExchange + Sync>(
    pr: &Problem,
    plan_f: &[X],
    plan_b: &[X],
) -> Vec<RankAllocs> {
    let p = plan_f.len();
    let config = &pr.config;
    let init = config.init_params(3);
    let mask_total = pr.mask.iter().filter(|&&m| m).count().max(1) as f64;
    let locals: Vec<_> = plan_f
        .iter()
        .map(|rp| {
            let rows = rp.local_rows();
            (
                gather::gather_rows(&pr.h0, rows),
                rows.iter()
                    .map(|&v| pr.labels[v as usize])
                    .collect::<Vec<u32>>(),
                rows.iter()
                    .map(|&v| pr.mask[v as usize])
                    .collect::<Vec<bool>>(),
            )
        })
        .collect();

    CommSession::new(p).run_step(|ctx| {
        let m = ctx.rank();
        let (h_local, l_local, m_local) = &locals[m];
        let mut st = RankState {
            plan_f: &plan_f[m],
            plan_b: &plan_b[m],
            config,
            params: init.clone(),
            h0: h_local,
            labels: l_local,
            mask: m_local,
            mask_total,
            opt_state: OptimizerState::new(config.optimizer, &config.shapes()),
            ctx: ComputeCtx::for_ranks_spec(p, ComputeSpec::default()),
        };
        prewarm_comm_pools(ctx, st.plan_f, st.plan_b, config);
        let mut ws = EpochWorkspace::new(st.plan_f, config, p, &st.ctx);

        // Warm-up: channel deques and any pool shortfall grow to their
        // steady footprint here.
        for _ in 0..2 {
            epoch_step(ctx, &mut st, &mut ws);
        }
        ctx.reset_counters();

        // Steady state: every buffer a message needs is already resident.
        let before = allocmeter::current();
        for _ in 0..3 {
            epoch_step(ctx, &mut st, &mut ws);
        }
        let pool = ctx.pool_stats();
        RankAllocs {
            all: allocmeter::current() - before,
            steady: ctx.counters().comm_path_allocs,
            pool_misses: pool.acquires - pool.hits,
        }
    })
}

fn assert_steady_state_free(allocs: &[RankAllocs]) {
    for (rank, a) in allocs.iter().enumerate() {
        assert_eq!(
            a.steady, 0,
            "rank {rank}: steady-state epochs allocated {} times inside the comm runtime",
            a.steady
        );
    }
}

#[test]
fn steady_state_epochs_do_not_allocate_on_the_comm_path() {
    let pr = problem(4, false);
    let a = pr.graph.normalized_adjacency();
    let plan = CommPlan::build(&a, &pr.part);
    assert_steady_state_free(&epoch_allocs(&pr, &plan.ranks, &plan.ranks));
    // The epochs exercised real traffic: the partition must actually cut
    // edges, or the assertion above would hold vacuously.
    assert!(
        plan.total_volume_rows() > 0,
        "test graph/partition produced no communication"
    );
}

/// The same contract for the CAGNET broadcast exchange: the shared
/// prewarm tops its pools up per broadcast-tree neighbour, and from the
/// first epoch on every broadcast and allreduce hop is served by a
/// prewarmed buffer (the warm-up allocations are the stage scratch
/// growing to the largest block).
#[test]
fn cagnet_steady_state_epochs_do_not_allocate_on_the_comm_path() {
    for p in [3, 4] {
        let pr = problem(p, true);
        let a = pr.graph.normalized_adjacency();
        let plan_f = CagnetPlan::build(&a, &pr.part);
        let plan_b = CagnetPlan::build(&a.transpose(), &pr.part);
        let allocs = epoch_allocs(&pr, &plan_f.ranks, &plan_b.ranks);
        assert_steady_state_free(&allocs);
        for (rank, a) in allocs.iter().enumerate() {
            assert_eq!(
                a.pool_misses, 0,
                "p={p} rank {rank}: the prewarmed pools missed {} times",
                a.pool_misses
            );
        }
    }
}

/// The full-batch `Trainer` path itself, P2P and CAGNET, on directed and
/// undirected graphs: on one session, every `step()` after the first
/// performs zero comm-path allocations on every rank.
#[test]
fn trainer_steps_do_not_allocate_on_the_comm_path() {
    for directed in [false, true] {
        let pr = problem(4, directed);
        let a = pr.graph.normalized_adjacency();
        let at = directed.then(|| a.transpose());
        let p2p = Trainer::new(
            CommPlan::build(&a, &pr.part).ranks,
            at.as_ref().map(|at| CommPlan::build(at, &pr.part).ranks),
            &pr.h0,
            &pr.labels,
            &pr.mask,
            &pr.config,
            TrainState::new(&pr.config, 3),
            ComputeSpec::default(),
        );
        assert_trainer_steps_free(p2p, "p2p", directed);
        let cagnet = Trainer::new(
            CagnetPlan::build(&a, &pr.part).ranks,
            at.as_ref().map(|at| CagnetPlan::build(at, &pr.part).ranks),
            &pr.h0,
            &pr.labels,
            &pr.mask,
            &pr.config,
            TrainState::new(&pr.config, 3),
            ComputeSpec::default(),
        );
        assert_trainer_steps_free(cagnet, "cagnet", directed);
    }
}

/// One warm-up `step()`, then three more with the counters reset.
fn assert_trainer_steps_free<X: SpmmExchange + Send>(
    mut trainer: Trainer<'_, X>,
    name: &str,
    directed: bool,
) {
    trainer.step();
    trainer.reset_counters();
    for _ in 0..3 {
        trainer.step();
    }
    let counters = trainer.counters();
    for (rank, c) in counters.iter().enumerate() {
        assert_eq!(
            c.comm_path_allocs, 0,
            "{name} (directed: {directed}) rank {rank}: steady-state steps allocated {} times \
             inside the comm runtime",
            c.comm_path_allocs
        );
    }
    let traffic = CommCounters::merged(&counters);
    assert!(
        traffic.sent_messages + traffic.collective_messages > 0,
        "{name}: the steps exchanged nothing — the assertion above is vacuous"
    );
}

/// GAT inference sends pooled payloads and releases what it receives.
/// Three two-layer passes run on the two buffers per peer that
/// `ensure_pools` sizes for the widest layer, so every payload after the
/// second layer rides on one a peer released. The pass still matches the
/// serial oracle, and nothing allocates inside the comm runtime.
#[test]
fn gat_forward_does_not_allocate_on_the_comm_path() {
    let pr = problem(4, false);
    let layers = [GatLayer::init(8, 16, 1), GatLayer::init(16, 4, 2)];
    let serial = gat::forward_serial_multi(&pr.graph, &pr.h0, &layers);
    let (dist, _) = gat::forward_distributed(&pr.graph, &pr.h0, &layers, &pr.part);
    assert!(
        dist.approx_eq(&serial, 2e-3),
        "GAT diverged, max diff {}",
        dist.max_abs_diff(&serial)
    );

    let a = pr.graph.normalized_adjacency();
    let plan = CommPlan::build(&a, &pr.part);
    let passes = 3;
    let outcomes = CommSession::new(pr.part.p()).run_step(|ctx| {
        let rp = &plan.ranks[ctx.rank()];
        rp.ensure_pools(ctx, 16, 0);
        let h0 = gather::gather_rows(&pr.h0, &rp.local_rows);
        let cctx = ComputeCtx::for_ranks_spec(pr.part.p(), ComputeSpec::default());
        let mut scratch = ExchangeScratch::new(pr.part.p());
        for _ in 0..passes {
            let mut h = h0.clone();
            for (k, layer) in layers.iter().enumerate() {
                h = gat::forward_rank(ctx, rp, layer, &h, k as u32, &cctx, &mut scratch);
            }
        }
        (
            rp.send.len(),
            ctx.pool_stats(),
            ctx.counters().comm_path_allocs,
        )
    });
    assert!(
        outcomes.iter().any(|&(sends, ..)| sends > 0),
        "test graph/partition produced no communication"
    );
    for (rank, (sends, pool, allocs)) in outcomes.iter().enumerate() {
        let payloads = (passes * layers.len() * sends) as u64;
        assert_eq!(pool.acquires, payloads, "rank {rank}: payloads not pooled");
        assert_eq!(
            pool.hits, pool.acquires,
            "rank {rank}: released payloads did not come back to the pool"
        );
        assert_eq!(
            *allocs, 0,
            "rank {rank}: GAT's exchange allocated {allocs} times inside the comm runtime"
        );
    }
}

/// SGC's epochs are one-layer GCN steps over pass-through plans, which
/// reuse every workspace buffer: with the collectives warm, three epochs
/// after two warm-up ones allocate nothing on any rank, inside the comm
/// runtime or out of it.
#[test]
fn sgc_epochs_do_not_allocate() {
    let pr = problem(4, false);
    let a = pr.graph.normalized_adjacency();
    let pass_through: Vec<RankPlan> = (CommPlan::build(&a, &pr.part).ranks.into_iter())
        .map(|rp| RankPlan::pass_through(rp.rank, rp.local_rows))
        .collect();
    let config = GcnConfig {
        dims: vec![pr.h0.cols(), 4],
        ..GcnConfig::two_layer(1, 1, 1)
    };
    let pr = Problem { config, ..pr };
    let allocs = epoch_allocs(&pr, &pass_through, &pass_through);
    for (rank, a) in allocs.iter().enumerate() {
        assert_eq!(
            (a.all, a.steady),
            (0, 0),
            "rank {rank}: steady SGC epochs allocated {} times ({} in the comm runtime)",
            a.all,
            a.steady
        );
    }
}

// Meter liveness: the same binary must *see* allocations when pools are
// cold, or the zero above would prove nothing (e.g. a broken allocator
// hook, or sampling around the wrong region).
#[test]
fn cold_pools_do_allocate_and_are_counted() {
    let counts: Vec<u64> = CommSession::new(2).run_step(|ctx| {
        let peer = 1 - ctx.rank();
        // No prewarm: the very first acquire must miss and allocate.
        let payload = ctx.acquire(peer, 4096);
        ctx.isend(peer, 0, payload);
        let got = ctx.recv(peer, 0);
        ctx.release(peer, got);
        ctx.counters().comm_path_allocs
    });
    for (rank, &c) in counts.iter().enumerate() {
        assert!(
            c > 0,
            "rank {rank}: cold-pool traffic reported 0 allocations — meter dead"
        );
    }
}
