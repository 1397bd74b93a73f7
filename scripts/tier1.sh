#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, lint, formatting, the
# deterministic bench gates, the committed deterministic BENCH files
# regenerated and compared byte for byte, and the codec performance
# baseline (time report only — the numbers are recorded in
# BENCH_codec.json but never gate the run; thread-scaling ratios depend
# on the host's core count).
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
cargo clippy --all-targets -- -D warnings
# Formatting: these members are rustfmt-clean and must stay so. The
# other members are not formatted yet, so they are not checked here.
cargo fmt --check -p ss-serve -p ss-core -p ss-bitio -p ss-tensor \
    -p ss-trace -p ss-store -p ss-pipeline -p ss-sim
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

echo
echo "== perf baseline (informational) =="
cargo run --release -q -p ss-bench --bin perf_baseline
