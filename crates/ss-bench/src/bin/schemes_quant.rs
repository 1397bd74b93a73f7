//! Schemes × quantizers traffic study plus the registry's three
//! contract gates.
//!
//! The figure half prints the `ext_schemes_quant` study (every registry
//! scheme priced over the 16b / TF-8b / RA-8b suites plus the AdaBits
//! serving-width section). The gate half fails the process (exit 1)
//! when a registry contract is violated:
//!
//! 1. **Registry byte identity** — ShapeShifter (wire id 0) and Delta
//!    (id 1) streams produced through a session's `encode_stream` are
//!    bit-for-bit the bytes of the direct encoders (the one-shot
//!    `ShapeShifterCodec::encode_with`, and the Delta struct's own
//!    `encode_into` on a fresh writer), frame fields, accounting and
//!    chunk index included.
//! 2. **DPRed/AdaBits round trip** — both plug-in schemes encode a
//!    deterministic mixed pool through the `ss-pipeline` worker pool
//!    (worker count follows `SS_THREADS`) and decode back losslessly;
//!    the chained stream hash lands in the JSON, so two runs at
//!    different `SS_THREADS` must produce byte-identical files.
//! 3. **AdaBits prefix monotonicity** — `truncated_bits` is
//!    non-decreasing in the serving width and meets
//!    `compressed_bits` exactly at the container width, for every pool
//!    tensor. This is the property the quantizer coupling
//!    (`ss_quant::AdaBitsFamily`) relies on.
//!
//! Output follows the `serve_replay` split: the deterministic JSON goes
//! to `BENCH_schemes.json` (override with `SS_BENCH_SCHEMES_OUT`) and
//! must be byte-identical across runs, hosts and `SS_THREADS`.
//! `--smoke` skips the full-suite figure (the gates and JSON cover the
//! same code paths, sub-second) and skips file output unless
//! `SS_BENCH_SCHEMES_OUT` is explicitly set — `scripts/tier1.sh` runs
//! it as the scheme smoke test, and `scripts/analysis.sh` byte-diffs
//! two runs (at different `SS_THREADS`) as the determinism gate.

use std::io::Write;

use ss_bench::figs::ext_schemes_quant::{serving_family, serving_width_traffic, SERVING_WIDTHS};
use ss_bitio::BitWriter;
use ss_core::checksum::{fnv1a_update, FNV_OFFSET};
use ss_core::prelude::{
    CodecConfig, CodecSession, ContainerScheme, IndexPolicy, SchemeId, SchemeRegistry, SchemeStream,
};
use ss_core::scheme::{AdaBitsScheme, CompressionScheme, DeltaShapeShifter, SchemeCtx};
use ss_pipeline::{Pipeline, PipelineConfig};
use ss_tensor::{FixedType, Shape, Tensor};

const GROUP_SIZE: usize = 16;

/// Deterministic mixed pool: skewed magnitudes, lengths from empty to
/// multi-chunk, both signedness families (LCG; no RNG crate).
fn tensor_pool() -> Vec<Tensor> {
    let mut pool = Vec::new();
    for (i, len) in [0usize, 1, 15, 16, 17, 333, 1024, 4096].iter().enumerate() {
        for (j, dtype) in [FixedType::I16, FixedType::U8].iter().enumerate() {
            let max = dtype.max_magnitude();
            let mut x = (i as u64 * 31 + j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let vals: Vec<i32> = (0..*len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let r = x >> 33;
                    let v = match r % 10 {
                        0..=3 => 0,
                        4..=7 => (r % 15 + 1) as i32,
                        _ => (r % 3000 + 1) as i32,
                    };
                    v.min(max)
                })
                .collect();
            pool.push(Tensor::from_vec(Shape::flat(*len), *dtype, vals).expect("pool tensor"));
        }
    }
    pool
}

fn config() -> CodecConfig {
    // ss-lint: allow(truncating-cast) -- GROUP_SIZE is a small constant
    CodecConfig::new().with_group_size(GROUP_SIZE)
}

/// Gate 1: registry streams for the two built-in schemes equal the
/// direct encoders bit for bit.
fn registry_byte_identical(pool: &[Tensor]) -> bool {
    let mut session = CodecSession::new(config()).expect("session");
    let delta = DeltaShapeShifter::new(GROUP_SIZE);
    let ss_scheme = SchemeRegistry::global()
        .get(SchemeId::SHAPESHIFTER)
        .expect("built-in");
    let delta_scheme = SchemeRegistry::global()
        .get(SchemeId::DELTA)
        .expect("built-in");
    let mut stream = SchemeStream::default();
    let mut delta_stream = BitWriter::new();
    for t in pool {
        let one_shot = session
            .codec()
            .encode_with(ss_scheme, t)
            .expect("one-shot encode");
        session
            .encode_stream(ss_scheme, t, &mut stream)
            .expect("registry encode");
        if stream != one_shot {
            return false;
        }
        delta
            .encode_into(
                t,
                GROUP_SIZE,
                IndexPolicy::None,
                1,
                &mut delta_stream,
                &mut Vec::new(),
            )
            .expect("direct delta encode");
        session
            .encode_stream(delta_scheme, t, &mut stream)
            .expect("registry delta encode");
        if stream.bytes != delta_stream.as_bytes() || stream.bit_len != delta_stream.bit_len() {
            return false;
        }
    }
    true
}

/// Gate 2: DPRed and AdaBits round-trip through the worker pool, and
/// the chained stream hash is recorded for the cross-`SS_THREADS` diff.
fn dpred_adabits_roundtrip(pool: &[Tensor], workers: usize) -> (bool, u64) {
    let pipeline = Pipeline::new(
        PipelineConfig::new()
            .with_codec(config())
            .with_workers(workers),
    )
    .expect("pipeline");
    let mut hash = FNV_OFFSET;
    let mut ok = true;
    for id in [SchemeId::DPRED, SchemeId::ADABITS] {
        let streams = pipeline.encode_batch_with(id, pool).expect("encode batch");
        for s in &streams {
            hash = fnv1a_update(hash, &[s.scheme.as_byte()]);
            hash = fnv1a_update(hash, &s.bit_len.to_le_bytes());
            hash = fnv1a_update(hash, &s.bytes);
        }
        let decoded = pipeline.decode_batch_with(&streams).expect("decode batch");
        ok &= decoded.iter().zip(pool).all(|(back, t)| back == t);
    }
    (ok, hash)
}

/// Gate 3: `truncated_bits` is monotone in the serving width and meets
/// the full stream price at the container width.
fn adabits_prefix_monotone(pool: &[Tensor]) -> bool {
    let scheme = AdaBitsScheme::new(GROUP_SIZE);
    let ctx = SchemeCtx::unprofiled();
    pool.iter().all(|t| {
        let bits = t.dtype().bits();
        let mut prev = 0u64;
        for target in 0..=bits {
            let b = scheme.truncated_bits(t, target);
            if b < prev {
                return false;
            }
            prev = b;
        }
        scheme.truncated_bits(t, bits) == scheme.compressed_bits(t, &ctx)
    })
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let out_override = std::env::var("SS_BENCH_SCHEMES_OUT").ok();

    if !smoke {
        let mut stdout = std::io::stdout();
        ss_bench::figs::ext_schemes_quant::run(&mut stdout)?;
    }

    let pool = tensor_pool();
    let workers = ss_core::par::thread_count();
    println!(
        "schemes_quant ({mode}): {} pool tensors, {workers} workers",
        pool.len()
    );

    let byte_identical = registry_byte_identical(&pool);
    println!(
        "registry byte identity: {}",
        if byte_identical { "PASS" } else { "FAIL" }
    );
    let (roundtrip, streams_hash) = dpred_adabits_roundtrip(&pool, workers);
    println!(
        "DPRed/AdaBits round trip: {}",
        if roundtrip { "PASS" } else { "FAIL" }
    );
    let prefix_monotone = adabits_prefix_monotone(&pool);
    println!(
        "AdaBits prefix monotone: {}",
        if prefix_monotone { "PASS" } else { "FAIL" }
    );

    // The serving-width coupling rows land in the JSON so the quantizer
    // side of the study is part of the determinism surface too.
    let family = serving_family();
    let serving = serving_width_traffic(&family, 1);
    let mut serving_json = String::new();
    for (i, (w, own, trunc)) in serving.iter().enumerate() {
        if i > 0 {
            serving_json.push_str(",\n");
        }
        serving_json.push_str(&format!(
            "    {{ \"width\": {w}, \"reencoded\": {own:.6}, \"truncated\": {trunc:.6} }}"
        ));
    }

    let json = format!(
        r#"{{
  "config": {{
    "group_size": {GROUP_SIZE},
    "tensor_pool": {pool_len},
    "serving_widths": {widths:?},
    "serving_model": "{model}"
  }},
  "serving_traffic": [
{serving_json}
  ],
  "hashes": {{
    "streams_hash": "{streams_hash:016x}"
  }},
  "gates": {{
    "registry_byte_identical": {byte_identical},
    "dpred_adabits_roundtrip": {roundtrip},
    "adabits_prefix_monotone": {prefix_monotone}
  }}
}}
"#,
        pool_len = pool.len(),
        widths = SERVING_WIDTHS,
        model = family.base().name(),
    );
    match (&out_override, smoke) {
        (None, true) => println!(
            "smoke mode: deterministic JSON not persisted (set SS_BENCH_SCHEMES_OUT to write)"
        ),
        (maybe_out, _) => {
            let out = maybe_out.as_deref().unwrap_or("BENCH_schemes.json");
            std::fs::File::create(out)?.write_all(json.as_bytes())?;
            println!("wrote {out}");
        }
    }

    if !(byte_identical && roundtrip && prefix_monotone) {
        eprintln!("scheme gates: FAIL");
        std::process::exit(1);
    }
    println!("scheme gates: PASS");
    Ok(())
}
