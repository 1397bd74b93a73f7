//! Round-trip and random-access baseline for the `ss-store` shard store.
//!
//! Packs a synthetic-zoo model's weight tensors into `SSRD` shards (an
//! in-memory provider, so no filesystem state), reopens the store and
//! drives three gates that fail the process (exit 1) when violated:
//!
//! 1. **Bit-identity** — every tensor read back through
//!    `ModelStore::get` must equal its source exactly, and the chained
//!    FNV-1a hash over the raw record containers must match between two
//!    independent write runs (the hash is also pinned in the JSON).
//! 2. **Partial read** — a single `get` must read exactly the target
//!    record's block bytes and decode exactly that record's values,
//!    asserted via the `store_payload_bytes_read`, `decode_values` and
//!    `store_records_decoded` trace counters. This is the store's O(1)
//!    random-access claim, measured rather than assumed.
//! 3. **Verify** — `ModelStore::verify` must recompute and match every
//!    checksum in every shard.
//!
//! Output follows the `perf_baseline` / `pipeline_throughput` split:
//!
//! * `BENCH_store.json` (override with `SS_BENCH_STORE_OUT`) holds only
//!   deterministic fields — configuration, shard/record/byte accounting,
//!   chained hashes, gate verdicts — and is byte-identical across runs,
//!   hosts and `SS_THREADS` settings.
//! * `BENCH_store_timings.json` (override with
//!   `SS_BENCH_STORE_TIMINGS_OUT`) holds host-dependent timings and is
//!   rewritten only under `--update-timings`.
//!
//! `--smoke` shrinks the model (same code paths, sub-second) and skips
//! file output unless `SS_BENCH_STORE_OUT` is explicitly set —
//! `scripts/tier1.sh` runs it as the store smoke test, and
//! `scripts/analysis.sh` diffs two `--smoke` runs (at different
//! `SS_THREADS`) as the determinism gate.

use std::io::Write;
use std::time::Instant;

use ss_core::checksum::{fnv1a_update, FNV_OFFSET};
use ss_store::{MemoryProvider, ModelStore, ModelWriter, StorageProvider};
use ss_tensor::Tensor;
use ss_trace::{Counter, TraceRecorder};

const GROUP_SIZE: u16 = 16;
const MODEL_SEED: u64 = 0x0510_5EED;
/// Full run: AlexNet at 1/4 geometry, ~1 MiB shards.
const FULL: (usize, u64) = (4, 1 << 20);
/// Smoke run: AlexNet at 1/16 geometry, 32 KiB shards — same code
/// paths (multiple shards, rotation, multi-shard lookup), sub-second.
const SMOKE: (usize, u64) = (16, 32 << 10);

/// The pinned workload: every weight-carrying layer of the scaled
/// AlexNet, deterministic from the model seed.
fn weights(divisor: usize) -> Vec<(String, Tensor)> {
    let net = ss_models::zoo::alexnet().scaled_down(divisor);
    net.layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.weight_count() > 0)
        .map(|(i, l)| {
            (
                format!("{}.weight", l.name()),
                net.weight_tensor(i, MODEL_SEED),
            )
        })
        .collect()
}

fn write_model(
    provider: &MemoryProvider,
    model: &str,
    tensors: &[(String, Tensor)],
    shard_bytes: u64,
) -> ss_store::ModelSummary {
    let mut w = ModelWriter::new(provider, model).with_shard_bytes(shard_bytes);
    for (layer, (name, t)) in tensors.iter().enumerate() {
        w.append_tensor(name, layer as u32, t).expect("append");
    }
    w.finish().expect("finish")
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let update_timings = args.iter().any(|a| a == "--update-timings");

    let (divisor, shard_bytes) = if smoke { SMOKE } else { FULL };
    let mode = if smoke { "smoke" } else { "full" };
    let model = "alexnet";
    let out_override = std::env::var("SS_BENCH_STORE_OUT").ok();
    let timings_out = std::env::var("SS_BENCH_STORE_TIMINGS_OUT")
        .unwrap_or_else(|_| "BENCH_store_timings.json".into());

    let tensors = weights(divisor);
    let total_values: u64 = tensors.iter().map(|(_, t)| t.len() as u64).sum();
    println!(
        "store_roundtrip ({mode}): alexnet/{divisor} — {} weight tensors, \
         {total_values} values, group {GROUP_SIZE}, {shard_bytes}-byte shards",
        tensors.len()
    );

    // Counters drive the partial-read gate.
    assert!(ss_trace::install(TraceRecorder::new()), "first install");
    let rec = ss_trace::installed().expect("just installed");

    // Write pass (timed), then a second independent write for the
    // write-determinism half of gate 1.
    let provider = MemoryProvider::new();
    let t0 = Instant::now();
    let summary = write_model(&provider, model, &tensors, shard_bytes);
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let provider_b = MemoryProvider::new();
    write_model(&provider_b, model, &tensors, shard_bytes);
    let mut shards_hash = FNV_OFFSET;
    let mut shards_identical = true;
    for name in provider.list().expect("list") {
        let a = provider.snapshot(&name).expect("shard exists");
        shards_identical &= provider_b.snapshot(&name).as_deref() == Some(a.as_slice());
        shards_hash = fnv1a_update(shards_hash, &a);
    }
    println!(
        "write: {} shards, {} records, {} bytes  ({write_ms:.2} ms)",
        summary.shards.len(),
        summary.records,
        summary.bytes
    );
    assert!(
        summary.shards.len() > 1,
        "the shard budget must force rotation so the multi-shard path is exercised"
    );

    // Open pass: footer + index reads only.
    let t0 = Instant::now();
    let mut store = ModelStore::open(&provider, model).expect("open");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "open: {} shards, {} records indexed  ({open_ms:.2} ms)",
        store.shard_count(),
        store.len()
    );

    // Gate 2 first, while counters are quiet: one get must touch one
    // block and decode one tensor, nothing more.
    let (probe_name, probe_tensor) = &tensors[tensors.len() / 2];
    let probe_block = store.entry(probe_name).expect("probe entry").block_len;
    let bytes0 = rec.counter(Counter::StorePayloadBytesRead);
    let values0 = rec.counter(Counter::DecodeValues);
    let records0 = rec.counter(Counter::StoreRecordsDecoded);
    let probe = store.get(probe_name).expect("probe get");
    let bytes_read = rec.counter(Counter::StorePayloadBytesRead) - bytes0;
    let values_decoded = rec.counter(Counter::DecodeValues) - values0;
    let records_decoded = rec.counter(Counter::StoreRecordsDecoded) - records0;
    let partial_read = probe == *probe_tensor
        && bytes_read == probe_block
        && bytes_read < summary.bytes
        && values_decoded == probe_tensor.len() as u64
        && records_decoded == 1;
    println!(
        "partial read: get({probe_name:?}) read {bytes_read} of {} stored bytes, \
         decoded {values_decoded} of {total_values} values: {}",
        summary.bytes,
        if partial_read { "PASS" } else { "FAIL" }
    );

    // Gate 1: bit-identical round-trip of every record, in shard order,
    // chaining the raw container hash.
    let names: Vec<String> = store.list().iter().map(|e| e.meta.name.clone()).collect();
    let t0 = Instant::now();
    let mut records_hash = FNV_OFFSET;
    let mut bit_identical = shards_identical;
    let mut container_bytes = 0u64;
    for name in &names {
        let raw = store.get_raw(name).expect("raw record");
        container_bytes += raw.len() as u64;
        records_hash = fnv1a_update(records_hash, &raw);
        let back = store.get(name).expect("get");
        let source = tensors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .expect("known record");
        bit_identical &= back == *source;
    }
    let read_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "read: {} records, {container_bytes} container bytes  ({read_ms:.2} ms)",
        names.len()
    );
    println!(
        "bit-identity (round-trip + write determinism): {}",
        if bit_identical { "PASS" } else { "FAIL" }
    );

    // Gate 3: every checksum in every shard.
    let t0 = Instant::now();
    let verify_pass = match store.verify() {
        Ok(report) => report.shards == store.shard_count() && report.records == store.len(),
        Err(e) => {
            eprintln!("verify failed: {e}");
            false
        }
    };
    let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "verify: {}  ({verify_ms:.2} ms)",
        if verify_pass { "PASS" } else { "FAIL" }
    );

    let raw_bits = tensors
        .iter()
        .map(|(_, t)| t.len() as u64 * u64::from(t.dtype().bits()))
        .sum::<u64>();
    let ratio = summary.bytes as f64 * 8.0 / raw_bits as f64;
    let json = format!(
        r#"{{
  "config": {{
    "mode": "{mode}",
    "model": "alexnet",
    "scale_divisor": {divisor},
    "dtype": "i16",
    "group_size": {GROUP_SIZE},
    "shard_budget_bytes": {shard_bytes}
  }},
  "store": {{
    "shards": {shards},
    "records": {records},
    "values": {total_values},
    "container_bytes": {container_bytes},
    "file_bytes": {file_bytes},
    "uncompressed_bits": {raw_bits},
    "stored_bits_per_raw_bit": {ratio:.4}
  }},
  "hashes": {{
    "shards_hash": "{shards_hash:016x}",
    "records_hash": "{records_hash:016x}"
  }},
  "gates": {{
    "roundtrip_bit_identical": {bit_identical},
    "single_get_reads_one_block": {partial_read},
    "verify_pass": {verify_pass}
  }}
}}
"#,
        shards = summary.shards.len(),
        records = summary.records,
        file_bytes = summary.bytes,
    );
    match (&out_override, smoke) {
        (None, true) => println!(
            "smoke mode: deterministic JSON not persisted (set SS_BENCH_STORE_OUT to write)"
        ),
        (maybe_out, _) => {
            let out = maybe_out.as_deref().unwrap_or("BENCH_store.json");
            std::fs::File::create(out)?.write_all(json.as_bytes())?;
            println!("wrote {out}");
        }
    }

    if update_timings {
        let json = format!(
            r#"{{
  "write_ms": {write_ms:.3},
  "open_ms": {open_ms:.3},
  "read_all_ms": {read_ms:.3},
  "verify_ms": {verify_ms:.3}
}}
"#
        );
        std::fs::File::create(&timings_out)?.write_all(json.as_bytes())?;
        println!("wrote {timings_out}");
    } else {
        println!("timings not persisted (rerun with --update-timings to rewrite {timings_out})");
    }

    if !(bit_identical && partial_read && verify_pass) {
        eprintln!("store gates: FAIL");
        std::process::exit(1);
    }
    println!("store gates: PASS");
    Ok(())
}
