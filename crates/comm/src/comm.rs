//! The rank runtime: MPI-flavoured non-blocking point-to-point messaging
//! and collectives over threads and lock-free channels.
//!
//! Semantics mirror the MPI subset Algorithms 1–2 of the paper need:
//!
//! * [`RankCtx::isend`] is non-blocking (the payload is handed to an
//!   unbounded channel and the sender continues immediately — the "overlap
//!   communication with local computation" behaviour of Algorithm 1 line 6);
//! * [`RankCtx::recv`] blocks until a message with matching `(source, tag)`
//!   arrives, buffering non-matching arrivals (MPI tag matching);
//! * channel FIFO order per sender gives MPI's non-overtaking guarantee;
//! * [`RankCtx::allreduce_sum`] and [`RankCtx::broadcast_lend`] run over a
//!   binomial tree — O(log p) rounds — with a *fixed* combine order
//!   (children folded in ascending rank order), so results are bitwise
//!   deterministic run to run.
//!
//! # Buffer recycling
//!
//! Message payloads are pooled like MPI persistent requests: a sender
//! [`acquire`](RankCtx::acquire)s a buffer keyed by destination, and the
//! receiver hands the payload back over a dedicated *return channel* with
//! [`release`](RankCtx::release) (a lent broadcast payload goes back by
//! itself), where it rejoins the sender's free list. After the pools are warm, no message round-trip — p2p or
//! collective — touches the heap; `CommCounters::comm_path_allocs`
//! measures exactly that (see `pargcn_util::allocmeter`) and the
//! steady-state tests assert it is zero.

use crate::bufpool::{BufPool, BufPoolStats};
use crate::counters::CommCounters;
use pargcn_util::allocmeter;
use pargcn_util::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Reserved tag space for collectives; user tags must stay below this.
pub const RESERVED_TAG_BASE: u32 = u32::MAX - 16;
const TAG_ALLREDUCE: u32 = RESERVED_TAG_BASE;
const TAG_BROADCAST: u32 = RESERVED_TAG_BASE + 1;

/// Messages each rank's mailbox, return channel and pending queue have
/// room for from the start. The collectives queue at most ⌈log₂p⌉ + 1
/// messages per call, so a few rounds of small exchanges interleaved with
/// them (`runtime_stress`) never grow a queue on the comm path; callers
/// with bigger exchanges add room with [`RankCtx::reserve_queues`].
const QUEUE_ROOM: usize = 64;

struct Message {
    from: u32,
    tag: u32,
    payload: Vec<f32>,
}

/// A payload travelling back to the rank that sent it, so its buffer can
/// rejoin that rank's free list. `from` is the rank doing the returning —
/// i.e. the *destination* the buffer was originally acquired for.
struct ReturnMsg {
    from: u32,
    buf: Vec<f32>,
}

/// Lowest set bit of `v` (the binomial-tree round in which virtual rank
/// `v` talks to its parent); `0` maps to `0`.
#[inline]
fn lowbit(v: usize) -> usize {
    v & v.wrapping_neg()
}

/// `rank`'s children in the binomial tree rooted at `root` over `p`
/// ranks, biggest subtree first (the log-depth fan-out schedule).
fn tree_children(rank: usize, root: usize, p: usize) -> impl Iterator<Item = usize> {
    let vrank = (rank + p - root) % p;
    let low = if vrank == 0 {
        p.next_power_of_two()
    } else {
        lowbit(vrank)
    };
    std::iter::successors(Some(low >> 1), |m| Some(m >> 1))
        .take_while(|&m| m > 0)
        .filter(move |&m| vrank + m < p)
        .map(move |m| (vrank + m + root) % p)
}

/// `rank`'s parent and children in the binomial tree rooted at rank 0.
fn tree_neighbours(rank: usize, p: usize) -> impl Iterator<Item = usize> {
    let parent = (rank != 0).then(|| rank - lowbit(rank));
    parent.into_iter().chain(tree_children(rank, 0, p))
}

/// The closure one step runs on every rank, with its borrow lifetime
/// erased so it can cross into the long-lived rank threads. Soundness is
/// the scoped-pool argument (`pargcn_util::pool::Shared`): the submitter
/// keeps the closure alive until every rank has acknowledged the step.
struct ErasedStep(*const (dyn Fn(&mut RankCtx) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and `InFlight` blocks until every rank acknowledged before the pointee
// can die.
unsafe impl Send for ErasedStep {}

/// One rank's acknowledgement of a step: the panic payload if it panicked.
type StepDone = Option<Box<dyn Any + Send>>;

/// A long-lived rank runtime: `p` rank threads spawned **once**, each
/// owning its [`RankCtx`] — message channels, payload pools, pending
/// queue, counters — for the whole session. Work arrives as *steps*
/// (closures run on every rank); state persists across steps, so a
/// stream of mini-batch steps pays the thread-spawn, channel-build and
/// pool-warmup cost once instead of per batch.
///
/// A panicking rank acknowledges its step with the payload (rethrown on
/// the submitter), then exits, dropping its endpoints — peers blocked on
/// it observe "peer rank hung up", exactly as if a scoped thread had
/// died. The session is poisoned afterwards; further steps are refused.
pub struct CommSession {
    p: usize,
    jobs: Vec<Sender<ErasedStep>>,
    done_rx: Receiver<StepDone>,
    handles: Vec<JoinHandle<()>>,
    poisoned: bool,
}

impl CommSession {
    /// Spawns the `p` rank threads and their channel mesh.
    pub fn new(p: usize) -> CommSession {
        assert!(p >= 1, "need at least one rank");
        let mut senders: Vec<Sender<Message>> = Vec::with_capacity(p);
        let mut receivers: Vec<Option<Receiver<Message>>> = Vec::with_capacity(p);
        let mut returns: Vec<Sender<ReturnMsg>> = Vec::with_capacity(p);
        let mut return_rxs: Vec<Option<Receiver<ReturnMsg>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(Some(r));
            let (s, r) = unbounded();
            returns.push(s);
            return_rxs.push(Some(r));
        }
        let (done_tx, done_rx) = unbounded();
        let mut jobs = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (rank, (recv_slot, ret_slot)) in
            receivers.iter_mut().zip(return_rxs.iter_mut()).enumerate()
        {
            let receiver = recv_slot.take().expect("receiver taken once");
            let return_rx = ret_slot.take().expect("return receiver taken once");
            let senders = senders.clone();
            let returns = returns.clone();
            let done_tx = done_tx.clone();
            let (job_tx, job_rx) = unbounded::<ErasedStep>();
            jobs.push(job_tx);
            let handle = std::thread::Builder::new()
                .name(format!("pargcn-rank-{rank}"))
                .spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        p,
                        senders,
                        receiver,
                        returns,
                        return_rx,
                        pool: BufPool::new(p),
                        pending: Vec::new(),
                        counters: CommCounters::default(),
                    };
                    ctx.reserve_queues(QUEUE_ROOM);
                    // Ready: `new` returns only once every rank has
                    // reserved, so no first message finds a queue unsized.
                    let _ = done_tx.send(None);
                    while let Ok(step) = job_rx.recv() {
                        // SAFETY: the submitter's `InFlight` guard blocks
                        // until this rank's `done` message below, so the
                        // closure (and everything it borrows) is alive.
                        let result =
                            catch_unwind(AssertUnwindSafe(|| unsafe { (*step.0)(&mut ctx) }));
                        let failed = result.is_err();
                        let _ = done_tx.send(result.err());
                        if failed {
                            // Exit, dropping `ctx`: peers blocked on this
                            // rank unblock with "peer rank hung up" — the
                            // same observable behaviour a dying scoped
                            // thread would have.
                            break;
                        }
                    }
                })
                .expect("spawn rank thread");
            handles.push(handle);
        }
        drop(done_tx);
        for _ in 0..p {
            let _ = done_rx.recv();
        }
        CommSession {
            p,
            jobs,
            done_rx,
            handles,
            poisoned: false,
        }
    }

    /// Number of ranks in the session.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Runs `f` on every rank — against the *persistent* per-rank state —
    /// and blocks until all ranks finish, returning results in rank order.
    /// Panics in any rank propagate (and poison the session).
    pub fn run_step<F, R>(&mut self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        self.run_step_overlapped(f, || ()).0
    }

    /// Runs `step` on every rank like [`run_step`](Self::run_step) while
    /// the calling thread runs `main` — the hook the mini-batch engine
    /// uses to check batch `t+1` while the ranks prepare and train batch
    /// `t`.
    /// Returns the ranks' results in rank order and `main`'s result.
    ///
    /// Every rank's acknowledgement is collected before this returns *or
    /// unwinds*: if `main` panics, the ranks still finish the step (their
    /// own panics are then dropped, only poisoning the session) and
    /// `main`'s panic propagates; otherwise the first rank panic is
    /// rethrown.
    pub fn run_step_overlapped<F, R, M, T>(&mut self, step: F, main: M) -> (Vec<R>, T)
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
        M: FnOnce() -> T,
    {
        assert!(
            !self.poisoned,
            "comm session poisoned by an earlier rank panic"
        );
        let results: Vec<Mutex<Option<R>>> = (0..self.p).map(|_| Mutex::new(None)).collect();
        let run = |ctx: &mut RankCtx| {
            let r = step(ctx);
            *results[ctx.rank()].lock().unwrap() = Some(r);
        };
        // SAFETY: erases `run`'s borrow lifetime so the rank threads can
        // call it. `run` is declared before `pending`, so it outlives the
        // guard, and the guard — never leaked — blocks in `collect`
        // (directly, or from its drop when `main` unwinds) until every rank
        // that was sent the pointer has acknowledged it.
        let ptr = unsafe {
            std::mem::transmute::<
                &(dyn Fn(&mut RankCtx) + Sync),
                *const (dyn Fn(&mut RankCtx) + Sync),
            >(&run)
        };
        let mut pending = InFlight {
            session: self,
            sent: 0,
        };
        for m in 0..pending.session.p {
            pending.session.jobs[m]
                .send(ErasedStep(ptr))
                .expect("rank thread exited");
            pending.sent += 1;
        }
        let out = main();
        if let Some(payload) = pending.collect() {
            resume_unwind(payload);
        }
        let results = results
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("rank produced no result"))
            .collect();
        (results, out)
    }
}

/// A step posted to `sent` ranks and not yet acknowledged. Dropping it
/// collects the acknowledgements, so the ranks are done with the step's
/// closure before the submitter's frame can unwind past it.
struct InFlight<'s> {
    session: &'s mut CommSession,
    sent: usize,
}

impl InFlight<'_> {
    /// Blocks until every rank sent the step has acknowledged it; returns
    /// the first rank panic (poisoning the session).
    fn collect(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut first_panic = None;
        for _ in 0..std::mem::take(&mut self.sent) {
            // A closed channel means every rank thread is gone, so none
            // can still touch the step.
            let done = self.session.done_rx.recv().unwrap_or_else(|_| {
                Some(Box::new("rank thread died without acknowledging its step"))
            });
            if let Some(payload) = done {
                self.session.poisoned = true;
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Reached with steps outstanding only while `main` unwinds; a rank
        // panic must not become a second panic, so its payload is dropped.
        self.collect();
    }
}

impl Drop for CommSession {
    fn drop(&mut self) {
        // Disconnect the job queues; rank threads observe the hangup and
        // exit, dropping their contexts.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            // Rank panics were already captured and rethrown by the
            // step's submitter; a join error here can only happen during an
            // unwind that is already in progress, so never double-panic.
            let _ = handle.join();
        }
    }
}

/// Per-rank handle: identity, message endpoints, payload pool, counters.
pub struct RankCtx {
    rank: usize,
    p: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Return-channel endpoints: `returns[s]` carries recycled payload
    /// buffers back to rank `s`'s pool.
    returns: Vec<Sender<ReturnMsg>>,
    return_rx: Receiver<ReturnMsg>,
    pool: BufPool,
    /// Arrived messages not yet claimed by a matching `recv`.
    pending: Vec<Message>,
    counters: CommCounters,
}

impl RankCtx {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Read access to this rank's counters.
    pub fn counters(&self) -> &CommCounters {
        &self.counters
    }

    /// Resets this rank's counters (e.g. between warm-up and measured epochs).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Snapshot of this rank's payload-pool statistics.
    pub fn pool_stats(&self) -> BufPoolStats {
        self.pool.stats()
    }

    /// Credits `seconds` of local (non-blocked) kernel time to this rank.
    ///
    /// The runtime times blocking receives and collectives itself
    /// (`comm_seconds`); compute time is the complement and only the caller
    /// knows the span it covers, so the trainers report it explicitly as
    /// `span wall time − comm_seconds accrued in the span`.
    pub fn add_compute_seconds(&mut self, seconds: f64) {
        self.counters.compute_seconds += seconds.max(0.0);
    }

    /// Credits shape-counted kernel FLOPs to this rank; the trainers drain
    /// their `ComputeCtx` meter here once per run so `compute_flops /
    /// compute_seconds` is the rank's sustained arithmetic rate.
    pub fn add_compute_flops(&mut self, flops: u64) {
        self.counters.compute_flops += flops;
    }

    /// Moves every buffer waiting on the return channel back into the pool.
    fn drain_returns(&mut self) {
        while let Ok(r) = self.return_rx.try_recv() {
            self.pool.put(r.from as usize, r.buf);
        }
    }

    /// Takes a cleared payload buffer with capacity for `len` floats for a
    /// message to rank `to`, recycling returned buffers when possible.
    /// Pair with [`isend`](Self::isend); the receiver sends the buffer
    /// back via [`release`](Self::release).
    pub fn acquire(&mut self, to: usize, len: usize) -> Vec<f32> {
        let a0 = allocmeter::current();
        self.drain_returns();
        let buf = self.pool.acquire(to, len);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        buf
    }

    /// Hands a received payload buffer back to the rank that sent it
    /// (`from`), where it rejoins that rank's free list. Self-returns go
    /// straight to the pool.
    pub fn release(&mut self, from: usize, buf: Vec<f32>) {
        let a0 = allocmeter::current();
        self.release_unmetered(from, buf);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
    }

    /// Pre-fills the pool with `count` payload buffers of capacity `len`
    /// for destination `to`, so steady-state `acquire`s never allocate.
    pub fn prewarm(&mut self, to: usize, count: usize, len: usize) {
        self.pool.prewarm(to, count, len);
    }

    /// Idempotent [`prewarm`](Self::prewarm): drains the return channel,
    /// then tops the pool up until `count` resident buffers for `to` fit
    /// `len` floats (see [`BufPool::ensure`]). At a step boundary every
    /// buffer is back in flight toward its pool, so draining first makes
    /// the resident count exact and repeated calls with a stream of
    /// varying demands allocate only when the high-water mark rises.
    pub fn ensure_pool(&mut self, to: usize, count: usize, len: usize) {
        self.drain_returns();
        self.pool.ensure(to, count, len);
    }

    /// Reserves capacity for `msgs` in-flight messages in this rank's
    /// mailbox, pending queue, and return channel. Queue depth is
    /// scheduling-dependent (a fast sender can run ahead), so without a
    /// reservation a container can hit a new high-water mark — and grow —
    /// in a steady-state epoch under an unlucky interleaving. Callers
    /// that need the strict zero-allocation contract reserve an epoch's
    /// worth of messages up front (see `prewarm_comm_pools` in
    /// `pargcn-core`).
    pub fn reserve_queues(&mut self, msgs: usize) {
        self.receiver.reserve(msgs);
        self.return_rx.reserve(msgs);
        self.pending.reserve(msgs);
    }

    /// Pre-fills the pool for this rank's binomial-tree collective
    /// neighbours ([`allreduce_neighbours`](Self::allreduce_neighbours)):
    /// `count` buffers of capacity `len` per neighbour.
    pub fn prewarm_collectives(&mut self, count: usize, len: usize) {
        for peer in tree_neighbours(self.rank, self.p) {
            self.pool.prewarm(peer, count, len);
        }
    }

    /// Idempotent [`prewarm_collectives`](Self::prewarm_collectives),
    /// with [`ensure_pool`](Self::ensure_pool)'s top-up semantics.
    pub fn ensure_collectives(&mut self, count: usize, len: usize) {
        self.drain_returns();
        for peer in tree_neighbours(self.rank, self.p) {
            self.pool.ensure(peer, count, len);
        }
    }

    /// This rank's parent and children in the rank-0-rooted allreduce
    /// tree: the ranks an [`allreduce_sum`](Self::allreduce_sum) sends to.
    pub fn allreduce_neighbours(&self) -> impl Iterator<Item = usize> {
        tree_neighbours(self.rank, self.p)
    }

    /// Non-blocking point-to-point send. Returns immediately; the payload
    /// is owned by the runtime from here on (and, if it came from
    /// [`acquire`](Self::acquire), eventually returns to this rank's pool
    /// once the receiver releases it).
    ///
    /// # Panics
    /// Panics on self-sends (local data never travels through the runtime in
    /// Algorithms 1–2) and on reserved tags.
    pub fn isend(&mut self, to: usize, tag: u32, payload: Vec<f32>) {
        self.counters.sent_messages += 1;
        self.counters.sent_bytes += (payload.len() * 4) as u64;
        self.post(to, tag, payload);
    }

    /// [`isend`](Self::isend) for set-up traffic — the exchange through
    /// which ranks build their own plans before training. It travels the
    /// same pooled path (take the payload from [`acquire`](Self::acquire),
    /// after an [`ensure_pool`](Self::ensure_pool) sized for it) but counts
    /// in `setup_messages`/`setup_bytes` only, so `sent_*`, `recv_*` and
    /// `collective_*` stay exactly the training traffic. Empty payloads
    /// are fine: a set-up round sends one message to every peer, so no
    /// receiver waits on a message that never comes. The receiver takes it
    /// with [`setup_recv`](Self::setup_recv).
    pub fn setup_send(&mut self, to: usize, tag: u32, payload: Vec<f32>) {
        self.counters.setup_messages += 1;
        self.counters.setup_bytes += (payload.len() * 4) as u64;
        self.post(to, tag, payload);
    }

    /// Blocking receive of a [`setup_send`](Self::setup_send) message from
    /// `from`. The wait counts in `comm_seconds`; the message counts in no
    /// `recv_*` counter. Hand the payload back with
    /// [`release`](Self::release).
    pub fn setup_recv(&mut self, from: usize, tag: u32) -> Vec<f32> {
        self.wait_for(|m| m.from == from as u32 && m.tag == tag)
            .payload
    }

    /// The checked, metered channel send behind `isend` and `setup_send`.
    fn post(&mut self, to: usize, tag: u32, payload: Vec<f32>) {
        assert_ne!(to, self.rank, "self-sends are a bug: local rows stay local");
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        let a0 = allocmeter::current();
        self.send_internal(to, tag, payload);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
    }

    /// Blocking receive of the next message with matching source and tag.
    /// The returned payload is owned by the caller; hand it back with
    /// [`release`](Self::release) to keep the sender's pool warm.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f32> {
        let m = self.wait_for(|m| m.from == from as u32 && m.tag == tag);
        self.count_recv(&m);
        m.payload
    }

    /// Non-blocking receive of the next message with tag `tag` from *any*
    /// source, returning `(source, payload)`. One mailbox scan serves a
    /// whole receive set — the trainer's exchange drains with this instead
    /// of probing every peer individually.
    pub fn try_recv_any(&mut self, tag: u32) -> Option<(usize, Vec<f32>)> {
        let a0 = allocmeter::current();
        let got = self.take(false, |m| m.tag == tag);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        let m = got?;
        self.count_recv(&m);
        Some((m.from as usize, m.payload))
    }

    /// Blocking receive of the next message with tag `tag` from any
    /// source. The blocking complement of [`try_recv_any`](Self::try_recv_any).
    pub fn recv_any(&mut self, tag: u32) -> (usize, Vec<f32>) {
        let m = self.wait_for(|m| m.tag == tag);
        self.count_recv(&m);
        (m.from as usize, m.payload)
    }

    fn count_recv(&mut self, m: &Message) {
        self.counters.recv_messages += 1;
        self.counters.recv_bytes += (m.payload.len() * 4) as u64;
    }

    /// Blocking [`take`](Self::take), metered: the wait counts in
    /// `comm_seconds`, queue growth in `comm_path_allocs`.
    fn wait_for(&mut self, matches: impl Fn(&Message) -> bool) -> Message {
        let start = Instant::now();
        let a0 = allocmeter::current();
        let m = self
            .take(true, matches)
            .expect("blocking take returns a message");
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        self.counters.comm_seconds += start.elapsed().as_secs_f64();
        m
    }

    /// The first pending or delivered message satisfying `matches`,
    /// buffering the others in arrival order. With `block` it waits for
    /// one; without, it returns `None` once the mailbox is empty.
    fn take(&mut self, block: bool, matches: impl Fn(&Message) -> bool) -> Option<Message> {
        if let Some(pos) = self.pending.iter().position(&matches) {
            // `remove`, not `swap_remove`: `pending` is kept in arrival
            // order so two same-(source, tag) messages are claimed in the
            // order they were sent (the MPI non-overtaking guarantee).
            return Some(self.pending.remove(pos));
        }
        loop {
            let m = if block {
                self.receiver.recv().expect("peer rank hung up")
            } else {
                self.receiver.try_recv().ok()?
            };
            if matches(&m) {
                return Some(m);
            }
            self.pending.push(m);
        }
    }

    /// Unmetered blocking receive for the collectives, which meter the
    /// whole call themselves.
    fn recv_inner(&mut self, from: u32, tag: u32) -> Vec<f32> {
        let m = self.take(true, |m| m.from == from && m.tag == tag);
        m.expect("blocking take returns a message").payload
    }

    /// [`release`](Self::release) without the alloc metering (for use
    /// inside already-metered spans).
    fn release_unmetered(&mut self, from: usize, buf: Vec<f32>) {
        if from == self.rank {
            self.pool.put(from, buf);
        } else {
            // The sender ignoring returns (rank exited) is fine: the
            // buffer is simply dropped with the channel.
            let _ = self.returns[from].send(ReturnMsg {
                from: self.rank as u32,
                buf,
            });
        }
    }

    /// Pool-backed internal send: copies `data` into a recycled buffer
    /// bound for `to`. Collectives route every hop through this, so their
    /// steady state is allocation-free too.
    fn send_pooled(&mut self, to: usize, tag: u32, data: &[f32]) {
        self.drain_returns();
        let mut payload = self.pool.acquire(to, data.len());
        payload.extend_from_slice(data);
        self.send_internal(to, tag, payload);
        self.counters.collective_messages += 1;
        self.counters.collective_bytes += (data.len() * 4) as u64;
    }

    /// Allreduce-sum over `buf` (Algorithm 2 line 13: `ΔW` aggregation).
    ///
    /// Runs over the binomial tree rooted at rank 0 in O(log p) rounds:
    /// a reduce up the tree followed by a broadcast of the result down the
    /// same edges. Every node folds its children **in ascending rank
    /// order** — the tree shape and combine order are fixed, so results
    /// are bitwise deterministic run to run (`costmodel::allreduce_time`
    /// prices exactly this shape). Note the fold order differs from a
    /// flat rank-order sum: 8-rank example, rank 0 folds 1, 2 (which
    /// already folded 3), 4 (which folded 5 and 6+7).
    pub fn allreduce_sum(&mut self, buf: &mut [f32]) {
        let start = Instant::now();
        let a0 = allocmeter::current();
        if self.p > 1 {
            // Reduce toward rank 0: in round `mask = 2^j`, ranks whose j
            // low bits are clear either fold child `rank + mask` or send
            // up to `rank − mask` and leave the loop.
            let mut mask = 1usize;
            while mask < self.p {
                if self.rank & mask != 0 {
                    let parent = self.rank - mask;
                    self.send_pooled(parent, TAG_ALLREDUCE, buf);
                    break;
                }
                let child = self.rank + mask;
                if child < self.p {
                    let contrib = self.recv_inner(child as u32, TAG_ALLREDUCE);
                    assert_eq!(contrib.len(), buf.len(), "allreduce length mismatch");
                    for (b, &c) in buf.iter_mut().zip(&contrib) {
                        *b += c;
                    }
                    self.release_unmetered(child, contrib);
                }
                mask <<= 1;
            }
            // Broadcast the result back down the same tree.
            if self.rank != 0 {
                let parent = self.rank - lowbit(self.rank);
                let res = self.recv_inner(parent as u32, TAG_ALLREDUCE);
                buf.copy_from_slice(&res);
                self.release_unmetered(parent, res);
            }
            self.tree_fanout(0, TAG_ALLREDUCE, buf);
        }
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        self.counters.comm_seconds += start.elapsed().as_secs_f64();
    }

    /// Broadcast from `root` that lends the block instead of copying it
    /// out. The root sends `data` down the binomial tree (O(log p)
    /// rounds) and `fold` does not run: the root has the block in hand.
    /// Every other rank ignores `data`, receives its parent's pooled
    /// payload, forwards it to its own children, hands it to `fold`, and
    /// releases what `fold` returns — the same buffer — back to the
    /// parent's pool. Used by the CAGNET baseline's turn-wise broadcasts,
    /// which fold each stage's block straight from the payload.
    ///
    /// The payload is held through `fold`, but released before this call
    /// returns, so a rank never holds more than one lent payload. `fold`
    /// counts as compute: its time is not in `comm_seconds` and its
    /// allocations are not in `comm_path_allocs`.
    pub fn broadcast_lend(
        &mut self,
        root: usize,
        data: &[f32],
        fold: impl FnOnce(Vec<f32>) -> Vec<f32>,
    ) {
        if self.p == 1 {
            return;
        }
        let start = Instant::now();
        let a0 = allocmeter::current();
        let vrank = (self.rank + self.p - root) % self.p;
        let lent = (vrank != 0).then(|| {
            let parent = (vrank - lowbit(vrank) + root) % self.p;
            (parent, self.recv_inner(parent as u32, TAG_BROADCAST))
        });
        let block = lent.as_ref().map_or(data, |(_, payload)| payload);
        self.tree_fanout(root, TAG_BROADCAST, block);
        self.counters.comm_path_allocs += allocmeter::current() - a0;
        self.counters.comm_seconds += start.elapsed().as_secs_f64();
        if let Some((parent, payload)) = lent {
            let payload = fold(payload);
            let a0 = allocmeter::current();
            self.release_unmetered(parent, payload);
            self.counters.comm_path_allocs += allocmeter::current() - a0;
        }
    }

    /// The ranks a [`broadcast_lend`](Self::broadcast_lend) from `root` forwards to
    /// from this rank: its children in the binomial tree rooted at `root`.
    /// Callers size their payload pools from it.
    pub fn broadcast_children(&self, root: usize) -> impl Iterator<Item = usize> {
        tree_children(self.rank, root, self.p)
    }

    /// Sends `data` to this rank's children in the binomial tree rooted at
    /// `root`, biggest subtree first (the log-depth schedule).
    fn tree_fanout(&mut self, root: usize, tag: u32, data: &[f32]) {
        for child in tree_children(self.rank, root, self.p) {
            self.send_pooled(child, tag, data);
        }
    }

    /// Internal send without the user-facing counter/tag policy.
    fn send_internal(&mut self, to: usize, tag: u32, payload: Vec<f32>) {
        self.senders[to]
            .send(Message {
                from: self.rank as u32,
                tag,
                payload,
            })
            .expect("peer rank hung up");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn ring_exchange() {
        let results = CommSession::new(4).run_step(|ctx| {
            let next = (ctx.rank() + 1) % 4;
            let prev = (ctx.rank() + 3) % 4;
            ctx.isend(next, 7, vec![ctx.rank() as f32]);
            let got = ctx.recv(prev, 7);
            got[0] as usize
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tag_matching_reorders() {
        let results = CommSession::new(2).run_step(|ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 1, vec![1.0]);
                ctx.isend(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order: matching must buffer tag 1.
                let b = ctx.recv(0, 2);
                let a = ctx.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn allreduce_tree_sums_exactly() {
        // Integer-valued f32s sum exactly under any association, so the
        // binomial-tree fold must reproduce the arithmetic total.
        for p in [2usize, 3, 5, 8, 13] {
            let results = CommSession::new(p).run_step(|ctx| {
                let mut buf = vec![ctx.rank() as f32, 1.0];
                ctx.allreduce_sum(&mut buf);
                buf
            });
            let total = (p * (p - 1) / 2) as f32;
            for r in &results {
                assert_eq!(r, &vec![total, p as f32]);
            }
        }
    }

    /// What each rank's fold saw when `root` lends `block` over the tree:
    /// the block on every non-root, nothing on the root (it never folds).
    fn lent_blocks(p: usize, root: usize, block: &[f32]) -> Vec<Vec<f32>> {
        CommSession::new(p).run_step(|ctx| {
            let data: &[f32] = if ctx.rank() == root { block } else { &[] };
            let mut seen = Vec::new();
            ctx.broadcast_lend(root, data, |payload| {
                seen.extend_from_slice(&payload);
                payload
            });
            seen
        })
    }

    #[test]
    fn broadcast_delivers_to_all() {
        // Root 1 exercises the virtual-rank rotation of the tree.
        let block = [3.5, 4.5];
        for (rank, seen) in lent_blocks(3, 1, &block).iter().enumerate() {
            let expect: &[f32] = if rank == 1 { &[] } else { &block };
            assert_eq!(seen, expect, "rank {rank}");
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 5, 8] {
            for root in 0..p {
                let block = [root as f32, 42.0];
                for (rank, seen) in lent_blocks(p, root, &block).iter().enumerate() {
                    let expect: &[f32] = if rank == root { &[] } else { &block };
                    assert_eq!(seen, expect, "p {p} root {root} rank {rank}");
                }
            }
        }
    }

    /// Every non-root folds the root's block exactly once, from a pooled
    /// payload that goes back to its parent's pool; the root never folds.
    /// Repeated sweeps over every root then run on recycled buffers.
    #[test]
    fn broadcast_lend_folds_the_payload_once_and_returns_it() {
        let p = 5;
        let mut session = CommSession::new(p);
        session.run_step(|ctx| {
            for root in 0..p {
                for child in ctx.broadcast_children(root).collect::<Vec<_>>() {
                    ctx.prewarm(child, 1, 3);
                }
            }
        });
        // One sweep per step: a step ends only when every rank is done, so
        // each sweep's returns are back before the next sweep acquires.
        let sweeps: Vec<Vec<Vec<Vec<f32>>>> = (0..3)
            .map(|sweep| {
                session.run_step(|ctx| {
                    let mut folded = Vec::new();
                    for root in 0..p {
                        let block = [root as f32, sweep as f32, 7.0];
                        let data: &[f32] = if ctx.rank() == root { &block } else { &[] };
                        let mut calls = 0;
                        ctx.broadcast_lend(root, data, |payload| {
                            calls += 1;
                            folded.push(payload.clone());
                            payload
                        });
                        assert_eq!(calls, usize::from(ctx.rank() != root));
                    }
                    folded
                })
            })
            .collect();
        let misses = session.run_step(|ctx| {
            let stats = ctx.pool_stats();
            stats.acquires - stats.hits
        });
        for (rank, misses) in misses.iter().enumerate() {
            let folded: Vec<Vec<f32>> = sweeps.iter().flat_map(|s| s[rank].clone()).collect();
            let expected: Vec<Vec<f32>> = (0..3)
                .flat_map(|sweep| {
                    (0..p)
                        .filter(move |&root| root != rank)
                        .map(move |root| vec![root as f32, sweep as f32, 7.0])
                })
                .collect();
            assert_eq!(folded, expected, "rank {rank}");
            assert_eq!(*misses, 0, "rank {rank}: lent payloads did not come back");
        }
    }

    #[test]
    fn counters_track_p2p_volume() {
        let results = CommSession::new(2).run_step(|ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 0, vec![0.0; 10]);
                ctx.counters().clone()
            } else {
                ctx.recv(0, 0);
                ctx.counters().clone()
            }
        });
        assert_eq!(results[0].sent_messages, 1);
        assert_eq!(results[0].sent_bytes, 40);
        assert_eq!(results[1].recv_messages, 1);
        assert_eq!(results[1].recv_bytes, 40);
    }

    #[test]
    fn counters_count_tree_messages_at_the_sender() {
        // Binomial-tree allreduce: p−1 reduce hops + p−1 broadcast hops,
        // each counted once (by its sender), so the merged total is
        // exactly the number of messages on the wire.
        for p in [2usize, 5, 8] {
            let results = CommSession::new(p).run_step(|ctx| {
                let mut buf = vec![1.0f32; 3];
                ctx.allreduce_sum(&mut buf);
                ctx.counters().clone()
            });
            let merged = CommCounters::merged(&results);
            assert_eq!(merged.collective_messages, 2 * (p as u64 - 1));
            assert_eq!(merged.collective_bytes, 2 * (p as u64 - 1) * 12);
        }
        let results = CommSession::new(6).run_step(|ctx| {
            let block = [7.0; 4];
            let data: &[f32] = if ctx.rank() == 2 { &block } else { &[] };
            ctx.broadcast_lend(2, data, |payload| payload);
            ctx.counters().clone()
        });
        let merged = CommCounters::merged(&results);
        assert_eq!(merged.collective_messages, 5);
        assert_eq!(merged.collective_bytes, 5 * 16);
    }

    #[test]
    fn setup_traffic_counts_apart_from_training_traffic() {
        let results = CommSession::new(2).run_step(|ctx| {
            let other = 1 - ctx.rank();
            let mut payload = ctx.acquire(other, 3);
            payload.extend_from_slice(&[1.0, 2.0, 3.0]);
            ctx.setup_send(other, 9, payload);
            ctx.setup_send(other, 10, Vec::new());
            let got = ctx.setup_recv(other, 9);
            assert_eq!(got, vec![1.0, 2.0, 3.0]);
            ctx.release(other, got);
            assert!(ctx.setup_recv(other, 10).is_empty());
            ctx.counters().clone()
        });
        for c in &results {
            assert_eq!((c.setup_messages, c.setup_bytes), (2, 12));
            assert_eq!((c.sent_messages, c.sent_bytes), (0, 0));
            assert_eq!((c.recv_messages, c.recv_bytes), (0, 0));
            assert_eq!((c.collective_messages, c.collective_bytes), (0, 0));
        }
    }

    #[test]
    fn try_recv_returns_none_before_arrival() {
        let mut session = CommSession::new(2);
        // Nothing is sent in the first step.
        session.run_step(|ctx| {
            if ctx.rank() == 1 {
                assert!(ctx.try_recv_any(3).is_none());
            }
        });
        session.run_step(|ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 3, vec![9.0]);
            } else {
                // Spin until it lands.
                loop {
                    if let Some(m) = ctx.try_recv_any(3) {
                        assert_eq!(m, (0, vec![9.0]));
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn recv_any_matches_by_tag_only() {
        let results = CommSession::new(3).run_step(|ctx| {
            if ctx.rank() == 0 {
                ctx.isend(2, 5, vec![10.0]);
                0.0
            } else if ctx.rank() == 1 {
                ctx.isend(2, 5, vec![20.0]);
                0.0
            } else {
                let (f1, p1) = ctx.recv_any(5);
                let (f2, p2) = ctx.recv_any(5);
                assert_ne!(f1, f2);
                p1[0] + p2[0]
            }
        });
        assert_eq!(results[2], 30.0);
    }

    #[test]
    fn try_recv_any_leaves_other_tags_pending() {
        CommSession::new(2).run_step(|ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 8, vec![1.0]);
                ctx.isend(1, 9, vec![2.0]);
            } else {
                // Wait for the tag-9 message while tag 8 sits in front of
                // it: try_recv_any must buffer, not drop, the mismatch.
                loop {
                    if let Some((from, p)) = ctx.try_recv_any(9) {
                        assert_eq!(from, 0);
                        assert_eq!(p, vec![2.0]);
                        break;
                    }
                    std::thread::yield_now();
                }
                assert_eq!(ctx.recv(0, 8), vec![1.0]);
            }
        });
    }

    #[test]
    fn released_payloads_return_to_the_sender_pool() {
        let mut session = CommSession::new(2);
        // Round 0 allocates; after the payload travels there and back,
        // round 2's acquire must be served from the pool. One round per
        // step, so each return is back before the next round acquires.
        for round in 0..4u32 {
            session.run_step(|ctx| {
                let other = 1 - ctx.rank();
                let mut payload = ctx.acquire(other, 16);
                payload.extend_from_slice(&[round as f32; 16]);
                ctx.isend(other, round, payload);
                let got = ctx.recv(other, round);
                assert_eq!(got, vec![round as f32; 16]);
                ctx.release(other, got);
            });
        }
        session.run_step(|ctx| {
            let stats = ctx.pool_stats();
            assert_eq!(stats.acquires, 4);
            assert!(stats.hits >= 2, "pool should serve later rounds: {stats:?}");
        });
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let results = CommSession::new(1).run_step(|ctx| {
            let mut buf = vec![5.0];
            ctx.allreduce_sum(&mut buf);
            ctx.broadcast_lend(0, &[7.0], |_| unreachable!("a lone root never folds"));
            buf
        });
        assert_eq!(results[0], vec![5.0]);
    }

    #[test]
    fn nonblocking_send_does_not_deadlock_without_receiver_progress() {
        // Both ranks send many messages before either receives: with
        // blocking sends this deadlocks; with isend it must complete.
        CommSession::new(2).run_step(|ctx| {
            let other = 1 - ctx.rank();
            for i in 0..100u32 {
                ctx.isend(other, i, vec![i as f32; 64]);
            }
            for i in 0..100u32 {
                let m = ctx.recv(other, i);
                assert_eq!(m[0], i as f32);
            }
        });
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        CommSession::new(1).run_step(|ctx| {
            ctx.isend(0, 0, vec![1.0]);
        });
    }

    #[test]
    fn session_state_persists_across_steps() {
        // Counters accumulate and payload pools stay warm across steps —
        // the property a fresh session per step could not provide.
        let mut session = CommSession::new(2);
        session.run_step(|ctx| {
            let other = 1 - ctx.rank();
            ctx.prewarm(other, 1, 32);
            let mut payload = ctx.acquire(other, 32);
            payload.resize(32, ctx.rank() as f32);
            ctx.isend(other, 0, payload);
            let got = ctx.recv(other, 0);
            // The step ends once both ranks are done, so the returns are
            // back before the next step's acquire.
            ctx.release(other, got);
        });
        let stats = session.run_step(|ctx| {
            let other = 1 - ctx.rank();
            // Served from the pool warmed in the previous step.
            let payload = ctx.acquire(other, 32);
            ctx.release(ctx.rank(), payload);
            (ctx.counters().clone(), ctx.pool_stats())
        });
        for (counters, pool) in &stats {
            assert_eq!(counters.sent_messages, 1, "counters must span steps");
            assert_eq!(counters.recv_messages, 1);
            assert!(
                pool.hits >= 1,
                "step-2 acquire should hit the step-1 pool: {pool:?}"
            );
        }
    }

    #[test]
    fn session_runs_many_steps_on_same_ranks() {
        let mut session = CommSession::new(4);
        for step in 0..10u32 {
            let results = session.run_step(|ctx| {
                let next = (ctx.rank() + 1) % 4;
                let prev = (ctx.rank() + 3) % 4;
                ctx.isend(next, step, vec![(ctx.rank() as u32 + step) as f32]);
                let got = ctx.recv(prev, step);
                got[0] as u32
            });
            let expect: Vec<u32> = (0..4u32).map(|r| (r + 3) % 4 + step).collect();
            assert_eq!(results, expect);
        }
        let counters = session.run_step(|ctx| ctx.counters().clone());
        for c in &counters {
            assert_eq!(c.sent_messages, 10);
        }
    }

    #[test]
    fn session_submit_overlaps_caller_work() {
        // The pipelining hook: the ranks run a step while the calling
        // thread does its own work; both results come back.
        let mut session = CommSession::new(3);
        let (results, main_thread_work) = session.run_step_overlapped(
            |ctx| {
                let mut buf = vec![ctx.rank() as f32];
                ctx.allreduce_sum(&mut buf);
                buf[0]
            },
            || (0..100).map(|i| i as f32).sum::<f32>(),
        );
        assert_eq!(main_thread_work, 4950.0);
        assert_eq!(results, vec![3.0; 3]);
    }

    #[test]
    fn session_survives_a_panic_in_overlapped_main() {
        // The ranks cannot finish their step until `main` is unwinding
        // (the barrier's last party waits in a drop that only the unwind
        // runs): the step must still complete on every rank before the
        // panic propagates, and the session must stay usable.
        struct WaitOnDrop<'a>(&'a Barrier);
        impl Drop for WaitOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let mut session = CommSession::new(3);
        let release = Barrier::new(4);
        let done: Vec<Mutex<bool>> = (0..3).map(|_| Mutex::new(false)).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            session.run_step_overlapped(
                |ctx| {
                    release.wait();
                    let mut buf = vec![1.0f32];
                    ctx.allreduce_sum(&mut buf);
                    *done[ctx.rank()].lock().unwrap() = true;
                },
                || {
                    let _release = WaitOnDrop(&release);
                    panic!("main exploded")
                },
            )
        }));
        let payload = caught.expect_err("main's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"main exploded"));
        for (rank, d) in done.iter().enumerate() {
            assert!(*d.lock().unwrap(), "rank {rank} had not finished its step");
        }
        let ranks = session.run_step(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    fn session_panic_propagates_and_poisons() {
        let mut session = CommSession::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            session.run_step(|_ctx| panic!("step exploded"));
        }));
        assert!(caught.is_err(), "rank panic must propagate");
        let refused = catch_unwind(AssertUnwindSafe(|| {
            session.run_step(|ctx| ctx.rank());
        }));
        assert!(refused.is_err(), "poisoned session must refuse steps");
    }

    #[test]
    fn session_collectives_work_across_steps() {
        let mut session = CommSession::new(5);
        for round in 1..=3 {
            let results = session.run_step(|ctx| {
                let mut buf = vec![round as f32];
                ctx.allreduce_sum(&mut buf);
                buf[0]
            });
            for r in &results {
                assert_eq!(*r, 5.0 * round as f32);
            }
        }
    }
}
