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
# The kernel engine's bitwise suites in release codegen too: that is
# where the lanes' #[target_feature] code is inlined differently
# from debug builds.
run cargo test --release -q --offline --locked -p pargcn-matrix
# The loss's in-house exp: its 8-lane form equals its scalar form on all
# 2^32 inputs (an #[ignore]d sweep, about a minute of CPU in release).
run cargo test --release -q --offline --locked -p pargcn-matrix \
    --test softmax_lanes -- --ignored
# The blocked leg below checks the lanes only where the host has AVX2
# (elsewhere it runs the naive loops): assert that it does, and print
# which width (avx2 or avx512) `blocked` runs here.
run cargo test -q --offline --locked -p pargcn-matrix \
    --test kernel_engine -- --ignored --nocapture
# Kernel-engine parity: the bitwise-determinism suites, the golden
# training bits, distributed ≡ serial and the allocation contract must
# hold under both compute engines
# (PARGCN_KERNEL selects naive vs blocked GEMM/SpMM and loss; every
# result is bitwise engine-independent — DESIGN.md §10).
# The width-parity unit tests compare naive, AVX2 and AVX-512 lanes bit
# for bit (a width the host lacks prints a skip note).
for kernel in naive blocked; do
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-matrix \
        --test determinism_threads --test kernel_engine --test softmax_lanes
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-matrix --lib width_parity \
        -- --nocapture
    run env PARGCN_KERNEL=$kernel \
        cargo test -q --offline --locked -p pargcn-core \
        --test determinism_threads --test no_alloc_steady_state \
        --test minibatch_engine --test golden_bits --test dist_equals_serial
done
# The benchmark crate is its own workspace built against the public
# training API; test it so an API change cannot silently break it.
run cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
# The §4.4 case studies end to end: the example asserts SGC's exact
# two-sweep traffic and GAT ≡ serial.
run cargo run --release --offline --locked -p pargcn-integration --example gnn_extensions
# Smoke-run the communication, kernel (every group), training and
# ablation microbenchmarks (a few samples each) so the bench harnesses
# can't rot between perf sessions; training and ablations run the serial
# oracle, both trainers and simulate_epoch.
run cargo bench -q --offline --locked -p pargcn-bench --bench comm -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench kernels -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench training -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench ablations -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench minibatch -- --quick
run cargo bench -q --offline --locked -p pargcn-bench --bench partitioners -- --quick hp_engine
run cargo fmt --check
# Docs build warning-free, so no intra-doc link can dangle after an API
# removal.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
run cargo clippy --workspace --all-targets --offline --locked -- -D warnings
# Non-test source lines per crate, for information only: not a gate.
run scripts/loc.sh

echo "==> all checks passed"
