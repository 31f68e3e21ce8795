//! In-house, zero-dependency utilities backing the whole workspace.
//!
//! DESIGN.md commits to a from-scratch reproduction of Demirci et al.
//! (VLDB 2022): the comm runtime already replaces MPI with hand-built
//! primitives, and this crate removes the remaining third-party utility
//! crates so the workspace builds with `cargo build --offline --locked`
//! from a clean checkout with an empty registry cache.
//!
//! | module        | replaces                      | used by                       |
//! |---------------|-------------------------------|-------------------------------|
//! | [`rng`]       | `rand`                        | graph gens, partitioners, init|
//! | [`channel`]   | `crossbeam::channel`          | `pargcn-comm` isend/recv      |
//! | [`json`]      | `serde` + `serde_json`        | `pargcn-bench` result files   |
//! | [`bench`](mod@bench) | `criterion`                   | `crates/bench/benches/*`      |
//! | [`qc`]        | `proptest`                    | randomized invariant tests    |
//! | [`pool`]      | `rayon` (scoped thread pool)  | `pargcn-matrix` kernels       |
//! | [`allocmeter`]| `dhat`/`counting_allocator`   | comm-path no-alloc assertions |
//!
//! Everything here is deliberately small: only the API surface the
//! workspace actually uses, with deterministic, portable behaviour so
//! results reproduce bit-for-bit across machines and runs.

pub mod allocmeter;
pub mod bench;
pub mod channel;
pub mod json;
pub mod pool;
pub mod qc;
pub mod rng;
