#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, lint, formatting, the
# deterministic bench gates, the committed deterministic BENCH files
# regenerated and compared byte for byte, the figures' thread-count
# invariance, and the codec performance baseline (time report only — the
# numbers are recorded in BENCH_codec.json but never gate the run;
# thread-scaling ratios depend on the host's core count).
#
# The workspace test run covers every suite — golden vectors, the
# differential and fuzz suites, the store corruption and serve fault
# suites — so none is re-run by name here. Clippy's `-D warnings` over
# every member also denies use of any `#[deprecated]` item.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# The frozen repository benchmark builds against the workspace crates
# with its own lockfile; building it here catches an API or dependency
# change that would break it. Its build output goes under target/, so
# nothing is written inside perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
# Its smoke run of every workload, traced and untraced, with every answer
# checked. Its load generator reads responses through `Frame::read_from`,
# so a wire-level slip fails here before it fails the benchmark. It also
# writes only under target/.
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo clippy --all-targets -- -D warnings
# Formatting: the whole workspace is rustfmt-clean and must stay so.
# (perfbench is a workspace of its own and is not checked here.)
cargo fmt --all --check
# Rustdoc with warnings denied: a deleted or private item cannot leave a
# dangling intra-doc link behind. The vendored stand-ins are not ours.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude proptest --exclude criterion --exclude rand
cargo run --release -q -p ss-lint
cargo run --release -q -p ss-lint -- --self-test

# Scheme-registry gates: built-in registrations byte-identical to the
# direct encoders, DPRed/AdaBits round trip through the worker pool, and
# the AdaBits truncation-prefix property.
echo
echo "== scheme registry (byte-identity + plug-in round-trip gates) =="
cargo run --release -q -p ss-bench --bin schemes_quant -- --smoke

# Deterministic gates: trace-recorder measure overhead and chunk-index
# metadata overhead (both host-independent bounds).
echo
echo "== overhead gates =="
cargo run --release -q -p ss-bench --bin perf_baseline -- --overhead-gate

# Batch-engine smoke: full encode/measure/decode pipeline on a small
# batch; fails on a bit-identity or worker-count-determinism violation.
echo
echo "== pipeline smoke (bit-identity + determinism gates) =="
cargo run --release -q -p ss-bench --bin pipeline_throughput -- --smoke

# Shard-store roundtrip smoke with its bit-identity, partial-read and
# verify gates.
echo
echo "== shard store (roundtrip gates) =="
cargo run --release -q -p ss-bench --bin store_roundtrip -- --smoke

# Serve traffic-replay smoke with its completion / FIFO / overload /
# drain gates.
echo
echo "== serve (replay smoke) =="
cargo run --release -q -p ss-bench --bin serve_replay -- --smoke

# The committed deterministic BENCH files are a checked contract: each is
# regenerated in full mode to a temporary path and must match the
# committed file byte for byte (the timings files are not written without
# --update-timings). BENCH_schemes.json's full mode takes minutes, so it
# keeps only the smoke determinism gate in scripts/analysis.sh.
echo
echo "== committed BENCH files (full mode, byte-identical) =="
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT
for pair in serve:serve_replay store:store_roundtrip pipeline:pipeline_throughput; do
    name="${pair%%:*}" bin="${pair#*:}"
    env "SS_BENCH_${name^^}_OUT=$bench_tmp/$name.json" \
        cargo run --release -q -p ss-bench --bin "$bin" >/dev/null
    if ! diff -u "BENCH_$name.json" "$bench_tmp/$name.json"; then
        echo "FAIL: BENCH_$name.json does not reproduce in full mode" >&2
        exit 1
    fi
    echo "ok: BENCH_$name.json reproduces byte-for-byte"
done

# Figure output must not depend on the thread count: every experiment
# runs on one thread and on four, at a small scale, each run writing its
# outputs to `SS_OUT_DIR`, and the two directories must match byte for
# byte. The per-experiment timings go to stderr, so they are never
# compared.
echo
echo "== figure thread invariance (SS_THREADS=1 and 4, byte-identical) =="
for threads in 1 4; do
    SS_SCALE=8 SS_INPUTS=1 SS_THREADS="$threads" SS_OUT_DIR="$bench_tmp/figs.$threads" \
        cargo run --release -q -p ss-bench --bin all_experiments >/dev/null
done
if ! diff -r "$bench_tmp/figs.1" "$bench_tmp/figs.4"; then
    echo "FAIL: experiment output depends on the thread count" >&2
    exit 1
fi
echo "ok: $(ls "$bench_tmp/figs.1" | wc -l) experiments"

echo
echo "== perf baseline (informational) =="
cargo run --release -q -p ss-bench --bin perf_baseline
