#!/usr/bin/env bash
# Static-analysis gate: the workspace linter under its baseline ratchet,
# its self-test, every seeded fixture (each must make the linter exit
# non-zero — a fixture that lints clean means its rule has gone blind),
# and the decoder corruption fuzz suites that exercise the checked-decode
# invariants.
#
# ss-lint fails on new findings and on *stale* baseline entries
# (accepted findings whose code has since been fixed), so the ratchet in
# scripts/lint_baseline.json only tightens.
#
# With --update-timings the perf regression gate also runs: perf_baseline
# refuses to overwrite BENCH_codec_timings.json if single-thread encode
# or decode regressed more than 10% vs the committed file. Pass
# --accept-perf-change alongside it to override (hardware changes,
# accepted trade-offs).
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE_TIMINGS=0
ACCEPT_PERF_CHANGE=0
for arg in "$@"; do
    case "$arg" in
        --update-timings) UPDATE_TIMINGS=1 ;;
        --accept-perf-change) ACCEPT_PERF_CHANGE=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== ss-lint: shipped workspace (baseline ratchet) =="
cargo run --release -q -p ss-lint || {
    echo "FAIL: findings not covered by scripts/lint_baseline.json, or stale entries in it" >&2
    exit 1
}

echo
echo "== ss-lint: self-test =="
cargo run --release -q -p ss-lint -- --self-test

echo
echo "== ss-lint: seeded fixtures (each must trip its rule) =="
for rule in panic-freedom unsafe-wall truncating-cast \
            concurrency-containment vendor-drift annotation \
            alloc-in-hot-loop determinism shift-bound lock-discipline \
            reachability; do
    if cargo run --release -q -p ss-lint -- --fixture "$rule" >/dev/null; then
        echo "FAIL: fixture '$rule' linted clean — its rule is blind" >&2
        exit 1
    fi
    echo "ok: $rule fixture trips its rule"
done

echo
echo "== decoder corruption fuzzing (debug assertions on) =="
cargo test -q -p ss-core --test codec_fuzz
cargo test -q -p ss-core --test codec_properties
cargo test -q -p ss-bitio --test roundtrip

echo
echo "== ss-trace overhead gate (no recorder installed must be free) =="
cargo run --release -q -p ss-bench --bin perf_baseline -- --overhead-gate

echo
echo "== BENCH_pipeline determinism gate (two runs, identical bytes) =="
# The deterministic half of the pipeline bench must be byte-identical
# across runs: same batch accounting, same chained stream hash, gates
# PASS both times. Any diff means worker scheduling leaked into results.
tmp1="$(mktemp)" tmp2="$(mktemp)"
trap 'rm -f "$tmp1" "$tmp2"' EXIT
SS_BENCH_PIPELINE_OUT="$tmp1" \
    cargo run --release -q -p ss-bench --bin pipeline_throughput -- --smoke >/dev/null
SS_BENCH_PIPELINE_OUT="$tmp2" \
    cargo run --release -q -p ss-bench --bin pipeline_throughput -- --smoke >/dev/null
if ! diff -u "$tmp1" "$tmp2"; then
    echo "FAIL: BENCH_pipeline deterministic fields differ between runs" >&2
    exit 1
fi
grep -q '"bit_identical_to_one_shot": true' "$tmp1" || {
    echo "FAIL: pipeline output is not bit-identical to the one-shot API" >&2
    exit 1
}
grep -q '"identical_across_worker_counts": true' "$tmp1" || {
    echo "FAIL: pipeline results vary with the worker count" >&2
    exit 1
}
echo "ok: deterministic fields reproduce byte-for-byte"

echo
echo "== BENCH_store determinism gate (two runs, different SS_THREADS) =="
# The store bench's deterministic half must be byte-identical across runs
# AND across thread settings: shard bytes, chained hashes and gate
# verdicts may depend on nothing but the pinned model.
tmp3="$(mktemp)" tmp4="$(mktemp)"
trap 'rm -f "$tmp1" "$tmp2" "$tmp3" "$tmp4"' EXIT
SS_THREADS=1 SS_BENCH_STORE_OUT="$tmp3" \
    cargo run --release -q -p ss-bench --bin store_roundtrip -- --smoke >/dev/null
SS_THREADS=4 SS_BENCH_STORE_OUT="$tmp4" \
    cargo run --release -q -p ss-bench --bin store_roundtrip -- --smoke >/dev/null
if ! diff -u "$tmp3" "$tmp4"; then
    echo "FAIL: BENCH_store deterministic fields differ across runs/SS_THREADS" >&2
    exit 1
fi
for gate in roundtrip_bit_identical single_get_reads_one_block verify_pass; do
    grep -q "\"$gate\": true" "$tmp3" || {
        echo "FAIL: store gate $gate did not pass" >&2
        exit 1
    }
done
echo "ok: store deterministic fields reproduce byte-for-byte across SS_THREADS"

echo
echo "== BENCH_serve determinism gate (two runs, different SS_THREADS) =="
# The serve replay's deterministic half must be byte-identical across
# runs AND worker counts: the arrival schedule, response hashes (chained
# in submission order) and gate verdicts may depend on nothing but the
# pinned seed. Any diff means worker scheduling or wall-clock state
# leaked into the replay results.
tmp5="$(mktemp)" tmp6="$(mktemp)"
trap 'rm -f "$tmp1" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6"' EXIT
SS_THREADS=1 SS_BENCH_SERVE_OUT="$tmp5" \
    cargo run --release -q -p ss-bench --bin serve_replay -- --smoke >/dev/null
SS_THREADS=8 SS_BENCH_SERVE_OUT="$tmp6" \
    cargo run --release -q -p ss-bench --bin serve_replay -- --smoke >/dev/null
if ! diff -u "$tmp5" "$tmp6"; then
    echo "FAIL: BENCH_serve deterministic fields differ across runs/SS_THREADS" >&2
    exit 1
fi
for gate in responses_all_ok overload_typed drain_zero_loss stats_schema_ok tcp_roundtrip_ok; do
    grep -q "\"$gate\": true" "$tmp5" || {
        echo "FAIL: serve gate $gate did not pass" >&2
        exit 1
    }
done
echo "ok: serve deterministic fields reproduce byte-for-byte across SS_THREADS"

echo
echo "== BENCH_schemes determinism gate (two runs, different SS_THREADS) =="
# The scheme-registry bench's JSON must be byte-identical across runs
# AND thread settings: the chained DPRed/AdaBits stream hash, the
# serving-width traffic rows and the gate verdicts may depend on nothing
# but the pinned pool. Any diff means a plug-in scheme's output varies
# with the worker count.
tmp7="$(mktemp)" tmp8="$(mktemp)"
trap 'rm -f "$tmp1" "$tmp2" "$tmp3" "$tmp4" "$tmp5" "$tmp6" "$tmp7" "$tmp8"' EXIT
SS_THREADS=1 SS_BENCH_SCHEMES_OUT="$tmp7" \
    cargo run --release -q -p ss-bench --bin schemes_quant -- --smoke >/dev/null
SS_THREADS=8 SS_BENCH_SCHEMES_OUT="$tmp8" \
    cargo run --release -q -p ss-bench --bin schemes_quant -- --smoke >/dev/null
if ! diff -u "$tmp7" "$tmp8"; then
    echo "FAIL: BENCH_schemes deterministic fields differ across runs/SS_THREADS" >&2
    exit 1
fi
for gate in registry_byte_identical dpred_adabits_roundtrip adabits_prefix_monotone; do
    grep -q "\"$gate\": true" "$tmp7" || {
        echo "FAIL: scheme gate $gate did not pass" >&2
        exit 1
    }
done
echo "ok: scheme streams reproduce byte-for-byte across SS_THREADS"

if [ "$UPDATE_TIMINGS" = 1 ]; then
    echo
    echo "== perf regression gate (t1 encode/decode vs committed timings) =="
    perf_flags=(--update-timings)
    if [ "$ACCEPT_PERF_CHANGE" = 1 ]; then
        perf_flags+=(--accept-perf-change)
    fi
    cargo run --release -q -p ss-bench --bin perf_baseline -- "${perf_flags[@]}"
fi

echo
echo "analysis gate: all checks passed"
