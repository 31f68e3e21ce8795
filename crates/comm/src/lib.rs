//! Thread-based message-passing runtime and network cost model — the
//! distributed-memory substrate of this reproduction (DESIGN.md §1).
//!
//! The paper runs on MPI over a 180-node InfiniBand cluster; here each MPI
//! rank is an OS thread and messages travel over lock-free channels, with
//! the same semantics the algorithm needs: ranks, tags, **non-blocking
//! sends** ([`RankCtx::isend`]), blocking tag/source-matched receives
//! ([`RankCtx::recv`]), and the collectives (binomial-tree allreduce and
//! broadcast, barrier). Every byte and message is counted per rank exactly
//! as an MPI profiler would ([`counters::CommCounters`]). Payload buffers
//! are recycled through per-rank pools ([`bufpool::BufPool`]) with return
//! channels — MPI persistent requests in spirit — so the steady-state
//! message path performs no heap allocation.
//!
//! Wall-clock time at 512 ranks cannot be measured on one machine, so the
//! [`costmodel`] composes the *exact* measured per-rank computation (FLOPs)
//! and communication (messages/bytes) into epoch times under an α–β–γ
//! machine model with CPU-cluster and GPU-cluster profiles.
//!
//! ```
//! use pargcn_comm::CommSession;
//!
//! // Four "MPI ranks", spawned once for the session, run one step: they
//! // exchange a ring of non-blocking messages and allreduce a sum — the
//! // primitives Algorithms 1–2 are built on.
//! let results = CommSession::new(4).run_step(|ctx| {
//!     let next = (ctx.rank() + 1) % 4;
//!     ctx.isend(next, 0, vec![ctx.rank() as f32]);
//!     let from_prev = ctx.recv((ctx.rank() + 3) % 4, 0);
//!     let mut buf = [from_prev[0]];
//!     ctx.allreduce_sum(&mut buf);
//!     buf[0]
//! });
//! assert_eq!(results, vec![6.0; 4]); // 0+1+2+3 on every rank
//! ```

pub mod bufpool;
pub mod comm;
pub mod costmodel;
pub mod counters;

pub use bufpool::{BufPool, BufPoolStats};
pub use comm::{CommSession, RankCtx};
pub use costmodel::MachineProfile;
pub use counters::CommCounters;
