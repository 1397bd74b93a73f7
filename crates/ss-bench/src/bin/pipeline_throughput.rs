//! Batch throughput baseline for the `ss-pipeline` engine.
//!
//! Drives a pinned synthetic batch through the full
//! encode → measure → decode pipeline at 1, 2, 4 and 8 workers, against a
//! per-call baseline (a fresh one-shot encode/measure/decode per tensor
//! on the submitting thread — the API the pipeline replaces). Two gates
//! run on every invocation and fail the process (exit 1) when violated:
//!
//! 1. **Bit-identity** — the engine's chained batch `stream_hash` must
//!    equal FNV-1a chained over one-shot container hashes in submission
//!    order.
//! 2. **Worker-count determinism** — every worker count must produce the
//!    same deterministic report fields (hash, bits, groups).
//!
//! Output follows the `perf_baseline` split so repeated runs never churn
//! checked-in files with timing jitter:
//!
//! * `BENCH_pipeline.json` (override with `SS_BENCH_PIPELINE_OUT`) holds
//!   only **deterministic** fields — pinned configuration, batch bit
//!   accounting, the chained stream hash and the two gate verdicts — and
//!   is byte-identical across runs on any host.
//! * `BENCH_pipeline_timings.json` (override with
//!   `SS_BENCH_PIPELINE_TIMINGS_OUT`) holds host-dependent throughput
//!   numbers and is rewritten only under `--update-timings`.
//!
//! `--smoke` shrinks the batch (same code paths, sub-second) and skips
//! file output unless `SS_BENCH_PIPELINE_OUT` is explicitly set —
//! `scripts/tier1.sh` uses it as the pipeline smoke test, and
//! `scripts/analysis.sh` diffs two `--smoke` runs into temp files as the
//! determinism gate.

use std::io::Write;
use std::time::Instant;

use ss_core::checksum::{fnv1a_update, FNV_OFFSET};
use ss_core::prelude::*;
use ss_pipeline::{fnv1a_64, BatchReport, Pipeline, PipelineConfig};
use ss_tensor::{FixedType, Shape, Tensor};

const GROUP_SIZE: usize = 16;
const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Full run: 128 tensors x 64Ki values = 8Mi values per pass.
const FULL: (usize, usize) = (128, 1 << 16);
/// Smoke run: 24 tensors x 2Ki values — same code paths, sub-second.
const SMOKE: (usize, usize) = (24, 2 << 10);

/// Deterministic skewed batch (LCG per tensor; no RNG dependency).
fn batch(tensors: usize, values: usize) -> Vec<Tensor> {
    (0..tensors)
        .map(|seed| {
            let mut x = (seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let vals: Vec<i32> = (0..values)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = x >> 33;
                    match r % 16 {
                        0..=5 => 0,
                        6..=12 => (r % 16) as i32,
                        13 | 14 => (r % 512) as i32,
                        _ => -((r % 20_000) as i32),
                    }
                })
                .collect();
            Tensor::from_vec(Shape::flat(values), FixedType::I16, vals).expect("values fit i16")
        })
        .collect()
}

/// The per-call baseline the engine replaces: fresh one-shot
/// encode/measure/decode per tensor, single-threaded, allocating per
/// call. Returns (elapsed ms, chained stream hash).
fn per_call_baseline(codec: &ShapeShifterCodec, tensors: &[Tensor]) -> (f64, u64) {
    let seq = codec.with_exec(ExecPolicy::Sequential);
    let t0 = Instant::now();
    let mut hash = FNV_OFFSET;
    for t in tensors {
        let enc = seq.encode(t).expect("encode");
        let report = seq.measure(t);
        assert_eq!(report.total_bits(), enc.bit_len, "accounting identity");
        let back = seq.decode(&enc).expect("decode");
        assert_eq!(&back, t, "round trip");
        // Chained exactly the way `BatchReport` chains per-tensor hashes.
        hash = fnv1a_update(hash, &fnv1a_64(&enc.bytes).to_le_bytes());
    }
    (t0.elapsed().as_secs_f64() * 1e3, hash)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let update_timings = args.iter().any(|a| a == "--update-timings");

    let (n_tensors, n_values) = if smoke { SMOKE } else { FULL };
    let mode = if smoke { "smoke" } else { "full" };
    let out_override = std::env::var("SS_BENCH_PIPELINE_OUT").ok();
    let timings_out = std::env::var("SS_BENCH_PIPELINE_TIMINGS_OUT")
        .unwrap_or_else(|_| "BENCH_pipeline_timings.json".into());
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let codec_cfg = CodecConfig::new().with_group_size(GROUP_SIZE);
    let codec = codec_cfg.build().expect("valid group size");
    let tensors = batch(n_tensors, n_values);
    println!(
        "pipeline_throughput ({mode}): {n_tensors} tensors x {n_values} i16 values, \
         group {GROUP_SIZE}"
    );
    println!("host available_parallelism: {host_threads}");

    // Per-call baseline first: the number the engine has to beat.
    let (baseline_ms, oneshot_hash) = per_call_baseline(&codec, &tensors);
    let baseline_tps = n_tensors as f64 / (baseline_ms * 1e-3);
    println!("per-call baseline: {baseline_ms:>8.2} ms  ({baseline_tps:.0} tensors/s)");

    let mut reports: Vec<BatchReport> = Vec::new();
    for &workers in &WORKERS {
        let pipeline = Pipeline::new(
            PipelineConfig::new()
                .with_codec(codec_cfg)
                .with_workers(workers),
        )
        .expect("valid pipeline config");
        let report = pipeline.process(&tensors).expect("batch processes");
        println!(
            "workers={workers}: {:>8.2} ms  ({:.0} tensors/s, {:.1} Mvalues/s, \
             encode occupancy {:.2})",
            report.elapsed.as_secs_f64() * 1e3,
            report.tensors_per_sec(),
            report.values_per_sec() / 1e6,
            report.encode_occupancy(),
        );
        reports.push(report);
    }
    let first = reports.first().expect("WORKERS is non-empty");

    // Gate 1: the pipeline's chained hash equals the one-shot chain.
    let bit_identical = first.stream_hash == oneshot_hash;
    // Gate 2: every worker count agrees on every deterministic field.
    let deterministic = reports.iter().all(|r| {
        r.stream_hash == first.stream_hash
            && r.stream_bits == first.stream_bits
            && r.metadata_bits == first.metadata_bits
            && r.payload_bits == first.payload_bits
            && r.groups == first.groups
            && r.values == first.values
    });
    println!(
        "bit-identity vs one-shot: {}",
        if bit_identical { "PASS" } else { "FAIL" }
    );
    println!(
        "determinism across worker counts: {}",
        if deterministic { "PASS" } else { "FAIL" }
    );

    // Deterministic half: identical bytes on every run and host for a
    // given mode, so rewriting it unconditionally never churns the
    // checked-in file.
    let json = format!(
        r#"{{
  "config": {{
    "mode": "{mode}",
    "tensors": {n_tensors},
    "values_per_tensor": {n_values},
    "dtype": "i16",
    "group_size": {GROUP_SIZE},
    "workers_compared": [{w0}, {w1}, {w2}, {w3}]
  }},
  "batch": {{
    "values": {values},
    "uncompressed_bits": {raw},
    "stream_bits": {stream},
    "metadata_bits": {meta},
    "payload_bits": {payload},
    "groups": {groups},
    "compression_ratio": {ratio:.4},
    "stream_hash": "{hash:016x}"
  }},
  "gates": {{
    "bit_identical_to_one_shot": {bit_identical},
    "identical_across_worker_counts": {deterministic}
  }}
}}
"#,
        w0 = WORKERS[0],
        w1 = WORKERS[1],
        w2 = WORKERS[2],
        w3 = WORKERS[3],
        values = first.values,
        raw = first.uncompressed_bits,
        stream = first.stream_bits,
        meta = first.metadata_bits,
        payload = first.payload_bits,
        groups = first.groups,
        ratio = first.ratio(),
        hash = first.stream_hash,
    );
    match (&out_override, smoke) {
        // Smoke runs keep their hands off the checked-in full-size file
        // unless a destination was explicitly requested.
        (None, true) => println!(
            "smoke mode: deterministic JSON not persisted (set SS_BENCH_PIPELINE_OUT to write)"
        ),
        (maybe_out, _) => {
            let out = maybe_out.as_deref().unwrap_or("BENCH_pipeline.json");
            std::fs::File::create(out)?.write_all(json.as_bytes())?;
            println!("wrote {out}");
        }
    }

    // Timing half: host-dependent and jittery, so only written on request.
    if update_timings {
        let rows: Vec<String> = WORKERS
            .iter()
            .zip(&reports)
            .map(|(w, r)| {
                format!(
                    r#"    "w{w}": {{ "ms": {ms:.3}, "tensors_per_sec": {tps:.1}, "speedup_vs_per_call": {sp:.3}, "encode_occupancy": {occ:.3} }}"#,
                    ms = r.elapsed.as_secs_f64() * 1e3,
                    tps = r.tensors_per_sec(),
                    sp = baseline_ms / (r.elapsed.as_secs_f64() * 1e3).max(1e-9),
                    occ = r.encode_occupancy(),
                )
            })
            .collect();
        let json = format!(
            r#"{{
  "host": {{ "available_parallelism": {host_threads} }},
  "per_call_baseline_ms": {baseline_ms:.3},
  "pipeline": {{
{rows}
  }}
}}
"#,
            rows = rows.join(",\n"),
        );
        std::fs::File::create(&timings_out)?.write_all(json.as_bytes())?;
        println!("wrote {timings_out}");
    } else {
        println!("timings not persisted (rerun with --update-timings to rewrite {timings_out})");
    }

    if !(bit_identical && deterministic) {
        eprintln!("pipeline gates: FAIL");
        std::process::exit(1);
    }
    println!("pipeline gates: PASS");
    Ok(())
}
