//! Codec and harness performance baseline.
//!
//! Times the ShapeShifter codec's encode / measure / decode paths on a
//! 4M-value skewed tensor at 1 and 8 worker threads — decode included,
//! since the container-v2 chunk index gives decode a parallel path — plus
//! one representative traffic sweep (cold, then warm against the shared
//! statistics cache).
//!
//! Output is split so that repeated runs never churn checked-in files
//! with timing jitter:
//!
//! * `BENCH_codec.json` (override with `SS_BENCH_OUT`) holds only the
//!   **deterministic** fields — pinned configuration, encoded bit count
//!   and compression ratio — and is rewritten on every run (it is
//!   byte-identical across runs on any host).
//! * `BENCH_codec_timings.json` (override with `SS_BENCH_TIMINGS_OUT`)
//!   holds the host-dependent **timings** and is rewritten only under
//!   `--update-timings`; plain runs print timings to stdout and leave
//!   the file alone. Every timing block records the host's
//!   `available_parallelism` next to its `tN` entries, and the `speedup`
//!   field is omitted on 1-core hosts — a t8/t1 ratio measured without
//!   the cores is oversubscription noise, not a speedup.
//!
//! `--update-timings` also runs a **perf regression gate**: before the
//! committed timings file is overwritten, the new single-thread encode
//! and decode times are compared against the committed ones, and a
//! regression of more than 10% fails the run (exit 1). Pass
//! `--accept-perf-change` to overwrite anyway — the explicit override
//! for hardware changes or accepted trade-offs.
//!
//! `--overhead-gate` runs two checks instead of the baseline:
//!
//! 1. the ss-trace overhead check — it times the measure path with no
//!    recorder installed and again with a collecting `TraceRecorder`
//!    installed, and fails (exit 1) if even the *enabled* recorder costs
//!    more than 50% (the disabled path only pays an `installed()` branch
//!    per chunk, so it is bounded above by the enabled cost). The
//!    recorder installs once per process, so each timing is a child
//!    process of this binary (`--overhead-pass noop|enabled`); the two
//!    sides alternate `GATE_PASSES` times and their minima are compared,
//!    so a busy spell on a shared host lands on both sides alike;
//! 2. the chunk-index metadata gate — the `Auto`-policy index on the
//!    pinned tensor must cost at most 0.01 bits/value, a deterministic
//!    bound (the index is a pure function of the configuration).
//!
//! `scripts/analysis.sh` and `scripts/tier1.sh` run this gate.
//!
//! The inputs are pinned — geometry, seed, group size and thread counts
//! are hard-coded — so successive runs of the binary are comparable
//! without environment setup. The host's available parallelism is
//! recorded in the timings JSON: thread-scaling ratios are only
//! meaningful when the host actually has the cores (a 1-core container
//! will honestly report ~1x).

use std::io::Write;
use std::process::Command;
use std::time::Instant;

use ss_bench::suites::traffic_totals;
use ss_core::scheme::{Base, CompressionScheme, ProfileScheme, ShapeShifterScheme, ZeroRle};
use ss_core::{ExecPolicy, ShapeShifterCodec};
use ss_tensor::{FixedType, Shape, Tensor};
use ss_trace::{Counter, TraceRecorder};

/// 4Mi values: large enough that chunked encode dominates thread spawn.
const VALUES: usize = 1 << 22;
const GROUP_SIZE: usize = 16;
const THREADS: [usize; 2] = [1, 8];
/// Timed repetitions per configuration on plain runs; the minimum is
/// reported.
const REPS: usize = 3;
/// Repetitions whenever a gate depends on the number: the overhead gate
/// and any `--update-timings` run, where the persisted minimum must
/// converge on the unloaded cost even on a contended host.
const GATE_REPS: usize = 7;
/// The enabled recorder may cost at most this fraction extra on the
/// measure path; the cost with no recorder installed is strictly below it.
const GATE_MAX_OVERHEAD: f64 = 0.50;
/// Child processes per side in the trace overhead gate, alternating
/// sides (and which side opens each pair).
const GATE_PASSES: usize = 6;
/// The `Auto`-policy chunk index on the pinned tensor may cost at most
/// this many bits of metadata per encoded value. Deterministic: the
/// index depends only on the configuration, never on the host.
const GATE_MAX_INDEX_BITS_PER_VALUE: f64 = 0.01;
/// `--update-timings` refuses to overwrite the committed timings if the
/// new single-thread encode or decode time regressed by more than this
/// fraction (override with `--accept-perf-change`).
const PERF_GATE_MAX_REGRESSION: f64 = 0.10;

/// The paper's skewed value population: mostly near-zero, some zeros,
/// rare wide values — deterministic, no RNG dependency.
fn skewed_tensor() -> Tensor {
    let vals: Vec<i32> = (0..VALUES)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2_654_435_761);
            match h % 16 {
                0..=5 => 0,
                6..=12 => (h >> 8) as i32 % 16,
                13 | 14 => (h >> 8) as i32 % 512,
                _ => -((h >> 8) as i32 % 20_000),
            }
        })
        .collect();
    Tensor::from_vec(Shape::flat(VALUES), FixedType::I16, vals).expect("values fit i16")
}

fn best_of_n<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn mvalues_per_s(ms: f64) -> f64 {
    VALUES as f64 / (ms * 1e-3) / 1e6
}

/// Extracts the committed single-thread (`"t1"`) timing of a named
/// section (e.g. `"encode_ms"`) from the previous timings JSON — a
/// two-key scan, deliberately tolerant of everything else in the file so
/// old and new formats both parse.
fn committed_t1_ms(json: &str, section: &str) -> Option<f64> {
    let needle = format!("\"{section}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = &rest[rest.find("\"t1\":")? + "\"t1\":".len()..];
    let end = rest.find([',', '}'])?;
    rest.get(..end)?.trim().parse().ok()
}

/// The `--update-timings` perf gate: new single-thread encode/decode
/// times vs the committed file. Returns `true` if the write may proceed.
fn perf_gate_passes(prev: &str, encode_t1_ms: f64, decode_t1_ms: f64, accept: bool) -> bool {
    let mut ok = true;
    for (section, new_ms) in [("encode_ms", encode_t1_ms), ("decode_ms", decode_t1_ms)] {
        let Some(old_ms) = committed_t1_ms(prev, section) else {
            println!("perf gate: no committed {section} t1 to compare against (skipped)");
            continue;
        };
        let change = new_ms / old_ms.max(1e-9) - 1.0;
        println!(
            "perf gate: {section} t1 {old_ms:.3} ms -> {new_ms:.3} ms ({:+.1}%; gate: <= {:+.0}%)",
            change * 100.0,
            PERF_GATE_MAX_REGRESSION * 100.0
        );
        if change > PERF_GATE_MAX_REGRESSION {
            ok = false;
        }
    }
    if ok {
        println!("perf gate: PASS");
        return true;
    }
    if accept {
        println!("perf gate: regression accepted via --accept-perf-change");
        return true;
    }
    eprintln!(
        "perf gate: FAIL — single-thread timing regressed more than {:.0}% vs the committed \
         baseline; rerun with --accept-perf-change to overwrite anyway (e.g. after a hardware \
         change)",
        PERF_GATE_MAX_REGRESSION * 100.0
    );
    false
}

/// `--overhead-pass noop|enabled`: one side of the trace overhead gate,
/// in a process of its own. Prints the best measure time in ms.
fn overhead_pass(side: &str) -> std::io::Result<()> {
    let tensor = skewed_tensor();
    let seq = ShapeShifterCodec::new(GROUP_SIZE).with_exec(ExecPolicy::Sequential);
    let enabled = match side {
        "noop" => false,
        "enabled" => true,
        _ => {
            eprintln!("--overhead-pass takes noop or enabled, not {side:?}");
            std::process::exit(2);
        }
    };
    if enabled {
        assert!(ss_trace::install(TraceRecorder::new()), "first install");
    }
    // Warm up caches before the timed reps.
    let _ = seq.measure(&tensor);
    let calls0 = ss_trace::installed().map(|rec| rec.counter(Counter::MeasureCalls));
    let (ms, _) = best_of_n(GATE_REPS, || seq.measure(&tensor));
    if let (Some(rec), Some(calls0)) = (ss_trace::installed(), calls0) {
        assert!(
            rec.counter(Counter::MeasureCalls) >= calls0 + GATE_REPS as u64,
            "the enabled pass must actually hit the recorder"
        );
    }
    println!("{ms}");
    Ok(())
}

/// Runs one side of the trace overhead gate in a child process of this
/// binary and returns its best measure time in ms.
fn time_pass(side: &str) -> std::io::Result<f64> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--overhead-pass", side])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse() {
        Ok(ms) if out.status.success() => Ok(ms),
        _ => Err(std::io::Error::other(format!(
            "overhead pass {side} failed ({}): {}{}",
            out.status,
            stdout.trim(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))),
    }
}

/// `--overhead-gate`: measure timing with no recorder vs an installed one,
/// then the chunk-index metadata bound.
fn overhead_gate() -> std::io::Result<()> {
    let (mut noop_ms, mut enabled_ms) = (f64::INFINITY, f64::INFINITY);
    for pass in 0..GATE_PASSES {
        let order = if pass % 2 == 0 {
            ["noop", "enabled"]
        } else {
            ["enabled", "noop"]
        };
        for side in order {
            let ms = time_pass(side)?;
            if side == "noop" {
                noop_ms = noop_ms.min(ms);
            } else {
                enabled_ms = enabled_ms.min(ms);
            }
        }
    }
    println!(
        "measure, no recorder installed:  {noop_ms:>8.2} ms  ({:.1} Mvalues/s)",
        mvalues_per_s(noop_ms)
    );
    println!(
        "measure, TraceRecorder enabled:  {enabled_ms:>8.2} ms  ({:.1} Mvalues/s)",
        mvalues_per_s(enabled_ms)
    );

    let overhead = (enabled_ms - noop_ms) / noop_ms.max(1e-9);
    println!(
        "enabled-recorder overhead: {:+.1}% (gate: <= {:.0}%; minima of {GATE_PASSES} alternating passes a side; disabled path pays one branch per chunk, bounded above by this)",
        overhead * 100.0,
        GATE_MAX_OVERHEAD * 100.0
    );
    if overhead > GATE_MAX_OVERHEAD {
        eprintln!("trace overhead gate: FAIL");
        std::process::exit(1);
    }
    println!("trace overhead gate: PASS");

    // Chunk-index metadata gate: the default (`Auto`) policy must keep
    // the index a rounding error next to the stream. This bound is
    // deterministic — same result on every host.
    let tensor = skewed_tensor();
    let encoded = ShapeShifterCodec::new(GROUP_SIZE)
        .encode(&tensor)
        .expect("encode");
    let index = encoded
        .index()
        .expect("the pinned tensor is large enough to earn an Auto index");
    let per_value = encoded.index_bits() as f64 / VALUES as f64;
    println!(
        "chunk index: {} chunks of {} groups, {} bits ({per_value:.6} bits/value; gate: <= {GATE_MAX_INDEX_BITS_PER_VALUE})",
        index.chunk_count(),
        index.chunk_groups(),
        encoded.index_bits()
    );
    if per_value > GATE_MAX_INDEX_BITS_PER_VALUE {
        eprintln!("index overhead gate: FAIL");
        std::process::exit(1);
    }
    println!("index overhead gate: PASS");
    Ok(())
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(side) = args
        .iter()
        .position(|a| a == "--overhead-pass")
        .map(|i| args.get(i + 1).map_or("", String::as_str))
    {
        return overhead_pass(side);
    }
    if args.iter().any(|a| a == "--overhead-gate") {
        return overhead_gate();
    }
    let update_timings = args.iter().any(|a| a == "--update-timings");

    let out = std::env::var("SS_BENCH_OUT").unwrap_or_else(|_| "BENCH_codec.json".into());
    let timings_out = std::env::var("SS_BENCH_TIMINGS_OUT")
        .unwrap_or_else(|_| "BENCH_codec_timings.json".into());
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let tensor = skewed_tensor();
    let codec = ShapeShifterCodec::new(GROUP_SIZE);

    // Persisted timings gate future PRs, so they get more repetitions:
    // the best-of minimum converges on the unloaded cost even when the
    // host is contended, where a 3-rep minimum still carries load noise.
    let reps = if update_timings { GATE_REPS } else { REPS };

    println!("perf_baseline: {VALUES} i16 values, group {GROUP_SIZE}, best of {reps}");
    println!("host available_parallelism: {host_threads}");

    let mut encode_ms = Vec::new();
    let mut measure_ms = Vec::new();
    let mut encoded = None;
    for &t in &THREADS {
        let at = codec.with_exec(ExecPolicy::Threads(t));
        let (ms, enc) = best_of_n(reps, || at.encode(&tensor).expect("encode"));
        println!(
            "encode  threads={t}: {ms:>8.2} ms  ({:.1} Mvalues/s)",
            mvalues_per_s(ms)
        );
        encode_ms.push(ms);
        encoded = Some(enc);
        let (ms, _) = best_of_n(reps, || at.measure(&tensor));
        println!(
            "measure threads={t}: {ms:>8.2} ms  ({:.1} Mvalues/s)",
            mvalues_per_s(ms)
        );
        measure_ms.push(ms);
    }
    let encoded = encoded.expect("THREADS is non-empty");
    let mut decode_ms = Vec::new();
    for &t in &THREADS {
        let at = codec.with_exec(ExecPolicy::Threads(t));
        let (ms, back) = best_of_n(reps, || at.decode(&encoded).expect("decode"));
        assert_eq!(back, tensor, "decode must round-trip");
        println!(
            "decode  threads={t}: {ms:>8.2} ms  ({:.1} Mvalues/s)",
            mvalues_per_s(ms)
        );
        decode_ms.push(ms);
    }
    let index_bits = encoded.index_bits();
    let index = encoded
        .index()
        .expect("the pinned tensor is large enough to earn an Auto index");
    println!(
        "chunk index: {} chunks of {} groups, {index_bits} bits ({:.6} bits/value)",
        index.chunk_count(),
        index.chunk_groups(),
        index_bits as f64 / VALUES as f64
    );

    // Representative traffic sweep: one 16-bit model, the Figure 8 scheme
    // set, priced twice — the second pass hits the process-wide stats
    // cache that all figures share.
    let net = ss_models::zoo::alexnet().scaled_down(4);
    let ss = ShapeShifterScheme::default();
    let rle = ZeroRle::default();
    let schemes: [&dyn CompressionScheme; 4] = [&Base, &ProfileScheme, &ss, &rle];
    let t0 = Instant::now();
    let cold = traffic_totals(&net, &schemes, 1, true);
    let sweep_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm = traffic_totals(&net, &schemes, 1, true);
    let sweep_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold, warm, "cached sweep must reproduce the cold sweep");
    println!("traffic sweep (AlexNet@1/4, 4 schemes): cold {sweep_cold_ms:.2} ms, warm {sweep_warm_ms:.2} ms");

    if host_threads > 1 {
        println!(
            "encode+measure speedup threads=8 vs 1: {:.2}x (host has {host_threads} cores)",
            (encode_ms[0] + measure_ms[0]) / (encode_ms[1] + measure_ms[1]).max(1e-9)
        );
    } else {
        println!(
            "host has 1 core: thread-scaling ratios are oversubscription noise, not reported"
        );
    }

    // Deterministic half: identical bytes on every run and every host, so
    // rewriting it unconditionally never churns the checked-in file.
    let json = format!(
        r#"{{
  "config": {{
    "values": {VALUES},
    "group_size": {GROUP_SIZE},
    "dtype": "i16",
    "reps": {REPS},
    "threads_compared": [{t0c}, {t1c}]
  }},
  "encoded_bits": {bits},
  "compression_ratio": {ratio:.4},
  "index": {{
    "chunks": {chunks},
    "chunk_groups": {chunk_groups},
    "index_bits": {index_bits},
    "overhead_bits_per_value": {per_value:.6}
  }}
}}
"#,
        t0c = THREADS[0],
        t1c = THREADS[1],
        bits = encoded.bit_len(),
        ratio = encoded.bit_len() as f64 / tensor.container_bits() as f64,
        chunks = index.chunk_count(),
        chunk_groups = index.chunk_groups(),
        per_value = index_bits as f64 / VALUES as f64,
    );
    std::fs::File::create(&out)?.write_all(json.as_bytes())?;
    println!("wrote {out}");

    // Timing half: host-dependent and jittery, so only written on request,
    // and only past the perf regression gate.
    if update_timings {
        let accept = args.iter().any(|a| a == "--accept-perf-change");
        match std::fs::read_to_string(&timings_out) {
            Ok(prev) => {
                if !perf_gate_passes(&prev, encode_ms[0], decode_ms[0], accept) {
                    std::process::exit(1);
                }
            }
            Err(_) => println!("perf gate: no committed {timings_out} to compare against"),
        }
        // `available_parallelism` travels inside every timing block so a
        // block quoted on its own still carries the context that makes
        // its `tN` entries comparable; `speedup` only exists when the
        // host actually had more than one core to scale onto.
        let block = |ms: &[f64]| {
            let mut b = format!(
                r#"{{ "t{}": {:.3}, "t{}": {:.3}, "available_parallelism": {host_threads}"#,
                THREADS[0], ms[0], THREADS[1], ms[1]
            );
            if host_threads > 1 {
                b.push_str(&format!(r#", "speedup": {:.3}"#, ms[0] / ms[1].max(1e-9)));
            }
            b.push_str(" }");
            b
        };
        let json = format!(
            r#"{{
  "host": {{ "available_parallelism": {host_threads}, "reps": {reps} }},
  "encode_ms": {eb},
  "measure_ms": {mb},
  "decode_ms": {db},
  "traffic_sweep_ms": {{ "cold": {sc:.3}, "warm": {sw:.3} }}
}}
"#,
            eb = block(&encode_ms),
            mb = block(&measure_ms),
            db = block(&decode_ms),
            sc = sweep_cold_ms,
            sw = sweep_warm_ms,
        );
        std::fs::File::create(&timings_out)?.write_all(json.as_bytes())?;
        println!("wrote {timings_out}");
    } else {
        println!("timings not persisted (rerun with --update-timings to rewrite {timings_out})");
    }
    Ok(())
}
