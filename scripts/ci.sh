#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml: the same checks, in the
# same modes, so "scripts/ci.sh passes" means "CI will pass". Exits
# non-zero on the first failure.
#
# The workspace is dependency-free by design (see crates/util), so every
# step runs with --offline: no registry, no network, no surprises.

set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --locked
# The whole suite twice: serial kernels, then 4 pool threads per rank.
# Every result is bitwise thread-count-independent, so both must pass
# identically (see the determinism_threads suites).
run env PARGCN_THREADS=1 cargo test -q --offline --locked
run env PARGCN_THREADS=4 cargo test -q --offline --locked
# Timing assertions (the bench harness's own tests) must also hold where
# the optimiser can fold benchmark bodies.
run cargo test --release -q --offline --locked -p pargcn-util
# Kernel-engine parity: the bitwise-determinism suites and the
# allocation contract must hold under both compute engines
# (PARGCN_KERNEL selects naive vs blocked GEMM/SpMM; every result is
# bitwise engine-independent — DESIGN.md §10).
for kernel in naive blocked; do
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-matrix \
        --test determinism_threads --test kernel_engine
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-core \
        --test determinism_threads --test no_alloc_steady_state \
        --test minibatch_engine
done
# The benchmark crate is its own workspace built against the public
# training API; test it so an API change cannot silently break it.
run cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
# Smoke-run the communication and kernel-engine microbenchmarks (a few
# samples each) so the bench harnesses can't rot between perf sessions.
run cargo bench -q --offline --locked -p pargcn-bench --bench comm -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench kernels -- --quick kernel_engine
run cargo bench -q --offline --locked -p pargcn-bench --bench minibatch -- --quick
run cargo fmt --check
run cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "==> all checks passed"
