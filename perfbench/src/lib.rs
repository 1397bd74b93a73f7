//! The repository benchmark: seeded workloads over the serve, store and
//! codec paths, end-to-end metrics with tracing off, and a traced run
//! that times every layer from outside. See `README.md`.

pub mod batch;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ss_serve::Op;

use crate::batch::BatchBench;
use crate::layers::Probe;
use crate::report::{Metric, Tally};
use crate::schedule::schedule;
use crate::serve::{run_load, LoadOutcome, Stack, Templates};
use crate::stats::percentile;
use crate::trace::SpanBuf;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["serve_get_large", "codec_batch"];

/// Offered rate of `serve_get_large`, gets per second. The arrivals are
/// evenly spaced 33 ms apart, about three times the mean serial `get`
/// time of the seed commit on a 2-core host, so a request seldom waits
/// behind another and latency follows the code, not the queue.
pub const GET_LARGE_RATE: f64 = 30.0;
/// Pipeline workers of `codec_batch`: one, so a round runs on one core
/// and a busy neighbour on the other core of a 2-core host does not
/// stretch it (at two workers one busy process added 25-75% to the
/// round time while CPU time per round stayed put).
pub const BATCH_WORKERS: usize = 1;
/// Window `codec_batch` takes throughput and CPU cost over; the run
/// reports the median window, which a busy spell on a shared host
/// shorter than half the run cannot move much.
pub const BATCH_WINDOW: Duration = Duration::from_secs(3);
/// Offered rate of the light `get` load the traced `codec_batch` run
/// puts on a serve stack built from its batch.
pub const BATCH_GET_RATE: f64 = 200.0;
/// Fewest set-ups a run times for `setup_s`.
pub const MIN_SETUPS: usize = 11;
/// A run keeps setting up until this much time has passed, so the
/// median of a quick set-up (`codec_batch`'s is one batch round) rests
/// on many samples.
pub const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Tensors (64 to 1024 values) in the small pool whose request and
/// response frames the traced run's small-frame probe times.
pub const SMALL_POOL: usize = 48;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured phase length.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Small inputs and short probes (tests).
    pub smoke: bool,
    /// Directory the Chrome trace of a traced run is written to.
    pub trace_out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <serve_get_large|codec_batch> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <dir>]";

/// Parses the command line.
///
/// # Errors
///
/// A message for an unknown flag, a bad value, or a missing workload.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        trace_out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

/// What one run produced.
struct RunOutput {
    tally: Tally,
    metrics: Vec<Metric>,
    facts: Vec<(&'static str, String)>,
}

/// Runs the benchmark; returns the process exit code.
#[must_use]
pub fn run_cli(argv: Vec<String>) -> i32 {
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = match args.workload.as_str() {
        "serve_get_large" => run_serve(&args),
        _ => run_batch(&args),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return 1;
        }
    };
    if !args.trace {
        out.metrics
            .push(Metric::new("peak_rss_mb", report::peak_rss_mib()));
    }
    if let Err(e) = order_metrics(&mut out.metrics, args.trace) {
        eprintln!("perfbench: {e}");
        return 1;
    }
    let stamp = stamp(&args, out.tally, &out.facts);
    print!("{}", report::metric_lines(&out.metrics));
    println!("stamp {stamp}");
    println!("{}", report::result_json(out.tally, &out.metrics));
    i32::from(out.tally.wrong > 0)
}

/// Puts `metrics` in registry order and checks they are exactly the
/// registered set for the mode.
fn order_metrics(metrics: &mut Vec<Metric>, trace: bool) -> Result<(), String> {
    let names: Vec<String> = if trace {
        report::per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    };
    let mut ordered = Vec::with_capacity(names.len());
    for name in &names {
        let i = metrics
            .iter()
            .position(|m| &m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.push(metrics.swap_remove(i));
    }
    if let Some(extra) = metrics.first() {
        return Err(format!("metric {} is not registered", extra.name));
    }
    *metrics = ordered;
    Ok(())
}

fn stamp(args: &Args, tally: Tally, facts: &[(&'static str, String)]) -> String {
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \"smoke\": {}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"git_commit\": \"{}\", \
         \"failed_ratio\": {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        args.smoke,
        report::nproc(),
        report::available_parallelism(),
        report::git_commit(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    for (k, v) in facts {
        s.push_str(&format!(", \"{k}\": {v}"));
    }
    s.push('}');
    s
}

/// Runs `bring_up` at least [`MIN_SETUPS`] times and until
/// [`SETUP_BUDGET`] has passed (2 times in smoke mode), tearing down all
/// but the last. Returns the median set-up time, records the count in
/// `facts`, and returns the last result.
fn repeated_setup<T>(
    args: &Args,
    facts: &mut Vec<(&'static str, String)>,
    mut bring_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(f64, T), String> {
    let (min, budget) = if args.smoke {
        (2, Duration::ZERO)
    } else {
        (MIN_SETUPS, SETUP_BUDGET)
    };
    let mut secs = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while secs.len() < min || begin.elapsed() < budget {
        let t0 = Instant::now();
        let up = bring_up()?;
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = last.replace(up) {
            tear_down(prev);
        }
    }
    let up = last.ok_or("no set-up was run")?;
    facts.push(("setups", secs.len().to_string()));
    Ok((stats::median(&secs), up))
}

fn probe_budget(args: &Args) -> Duration {
    Duration::from_millis(if args.smoke { 5 } else { 200 })
}

fn workers() -> usize {
    report::available_parallelism()
}

fn quoted(s: impl std::fmt::Display) -> String {
    format!("\"{s}\"")
}

/// `latency_ms` as a metric; p50 and p99 of the samples only as stamp
/// facts (the traced run reports them as `latency.p50_ms` and
/// `latency.p99_ms`), because neither was steady enough between runs to
/// carry a regression bound.
fn latency_metrics(
    out: &mut Vec<Metric>,
    facts: &mut Vec<(&'static str, String)>,
    latency_ms: f64,
    samples_ms: &[f64],
) {
    out.push(Metric::sampled("latency_ms", latency_ms, samples_ms.len()));
    facts.push(("p50_ms", format!("{}", percentile(samples_ms, 50.0))));
    facts.push(("p99_ms", format!("{}", percentile(samples_ms, 99.0))));
    facts.push(("latency_samples", samples_ms.len().to_string()));
}

/// `latency_ms` of a serve phase: per record, the lower quartile of its
/// gets' latencies, averaged over the records that were asked for. The
/// records differ 500-fold in size, so the p50 of all gets sits where
/// one record's latencies end and the next one's begin, where a small
/// shift can move it from one record's latency to another's; each
/// record's own quartile does not have that edge. The lower quartile,
/// not the median, because the stalls a busy host adds land on a get's
/// upper latencies: two busy processes on a 2-core host added 65% to
/// the per-record medians and 47% to the lower quartiles.
fn record_latency_ms(load: &LoadOutcome, records: usize) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); records];
    for (&pick, &ms) in load.picks.iter().zip(&load.latencies_ms) {
        per[pick].push(ms);
    }
    let quartiles: Vec<f64> = per
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 25.0))
        .collect();
    quartiles.iter().sum::<f64>() / quartiles.len().max(1) as f64
}

fn write_trace(args: &Args, bufs: &[&SpanBuf]) -> Result<String, String> {
    std::fs::create_dir_all(&args.trace_out).map_err(|e| format!("trace dir: {e}"))?;
    let path = args
        .trace_out
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_trace(bufs)).map_err(|e| format!("write trace: {e}"))?;
    Ok(quoted(path.display()))
}

fn load_facts(facts: &mut Vec<(&'static str, String)>, load: &LoadOutcome, rate: f64) {
    facts.push(("offered_rate_per_s", format!("{rate}")));
    facts.push((
        "late_p50_ms",
        format!("{}", percentile(&load.late_ms, 50.0)),
    ));
    facts.push((
        "late_p99_ms",
        format!("{}", percentile(&load.late_ms, 99.0)),
    ));
    facts.push(("response_hash", quoted(format!("{:016x}", load.hash))));
}

/// The small pool's `encode`, `decode` and `get` templates, for the
/// small-frame probe.
fn small_templates(args: &Args) -> Result<Templates, String> {
    Templates::build(
        &inputs::small_pool(args.seed, SMALL_POOL),
        &[Op::Encode, Op::Decode, Op::Get],
    )
}

fn run_serve(args: &Args) -> Result<RunOutput, String> {
    let inputs = inputs::resnet50_weights(args.seed, if args.smoke { 8 } else { 2 });
    let templates = Templates::build(&inputs, &[Op::Get])?;
    let rate = GET_LARGE_RATE;
    let epoch = Instant::now();
    let n = inputs.tensors.len();
    let mut facts = vec![
        ("workers", workers().to_string()),
        ("input_tensors", n.to_string()),
        ("input_values", inputs.values().to_string()),
    ];
    let mut metrics = Vec::new();
    if !args.trace {
        let sched = schedule(args.seed, rate, args.seconds, n);
        facts.push(("peak_rss_reset", report::reset_peak_rss().to_string()));
        let (setup_s, stack) = repeated_setup(
            args,
            &mut facts,
            || Stack::bring_up(&inputs, &templates, workers()),
            |s| {
                s.tear_down();
            },
        )?;
        let cpu0 = report::process_cpu_s();
        let load = run_load(&stack.stream, &sched, &templates, false, epoch, 1);
        let cpu_s = report::process_cpu_s() - cpu0;
        let drain = stack.tear_down();
        metrics.push(Metric::new("setup_s", setup_s));
        latency_metrics(
            &mut metrics,
            &mut facts,
            record_latency_ms(&load, n),
            &load.latencies_ms,
        );
        let ok = load.latencies_ms.len() as f64;
        metrics.push(Metric::new("cpu_ms_per_op", cpu_s * 1e3 / ok));
        metrics.push(Metric::sampled(
            "ops_s",
            ok / load.elapsed_s,
            load.latencies_ms.len(),
        ));
        metrics.push(Metric::new(
            "stored_bits_per_value",
            templates.stored_bits_per_value(),
        ));
        load_facts(&mut facts, &load, rate);
        facts.push(("queue_high_water", drain.queue_high_water.to_string()));
        return Ok(RunOutput {
            tally: load.tally,
            metrics,
            facts,
        });
    }

    // Traced run: the workload untraced then traced (a third of the run
    // each), then every layer on the same inputs.
    let sched = schedule(args.seed, rate, args.seconds / 3.0, n);
    let mut stack = Stack::bring_up(&inputs, &templates, workers())?;
    let plain = run_load(&stack.stream, &sched, &templates, false, epoch, 1);
    let traced = run_load(
        &stack.stream,
        &sched,
        &templates,
        true,
        epoch,
        1 + sched.len() as u64,
    );
    let small = small_templates(args)?;
    let mut spans = SpanBuf::new(epoch, 3, true);
    let mut probe = Probe::new(probe_budget(args), &mut spans);
    metrics.extend(layers::codec_layers(
        &mut probe, &inputs, &templates, &small,
    )?);
    metrics.extend(layers::pipeline_layers(&mut probe, &inputs, workers())?);
    metrics.extend(layers::serve_layers(&mut probe, &mut stack, &templates)?);
    let drain = stack.tear_down();
    metrics.push(Metric::new(
        "service.queue_high_water",
        drain.queue_high_water as f64,
    ));
    for (name, p) in [("latency.p50_ms", 50.0), ("latency.p99_ms", 99.0)] {
        metrics.push(Metric::sampled(
            name,
            percentile(&plain.latencies_ms, p),
            plain.latencies_ms.len(),
        ));
    }
    metrics.push(Metric::sampled(
        "loadgen.late_p99_ms",
        percentile(&plain.late_ms, 99.0),
        plain.late_ms.len(),
    ));
    metrics.push(Metric::new(
        "trace.overhead_share",
        record_latency_ms(&traced, n) / record_latency_ms(&plain, n) - 1.0,
    ));
    let mut tally = plain.tally;
    tally.add(traced.tally);
    load_facts(&mut facts, &plain, rate);
    let [send, recv] = &traced.spans;
    facts.push(("trace_file", write_trace(args, &[send, recv, &spans])?));
    facts.push((
        "spans_dropped",
        (send.dropped + recv.dropped + spans.dropped).to_string(),
    ));
    Ok(RunOutput {
        tally,
        metrics,
        facts,
    })
}

/// What closed-loop rounds measured.
struct Rounds {
    /// Per round: encode plus decode time, ms.
    latencies_ms: Vec<f64>,
    /// Per window: rounds per second of encode and decode time.
    ops_s: Vec<f64>,
    /// Per window: process CPU time per round, ms.
    cpu_ms_per_op: Vec<f64>,
    tally: Tally,
}

/// Closed-loop rounds for `seconds`, with throughput and CPU cost taken
/// per [`BATCH_WINDOW`] (a shorter run makes one window).
fn batch_rounds(bench: &mut BatchBench<'_>, seconds: f64, spans: &mut SpanBuf) -> Rounds {
    let mut out = Rounds {
        latencies_ms: Vec::new(),
        ops_s: Vec::new(),
        cpu_ms_per_op: Vec::new(),
        tally: Tally::default(),
    };
    let (mut rounds, mut busy) = (0usize, Duration::ZERO);
    let mut window = (Instant::now(), report::process_cpu_s());
    let begin = Instant::now();
    while out.latencies_ms.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        let r = bench.round(spans, out.latencies_ms.len() as u64);
        out.latencies_ms
            .push((r.encode + r.decode).as_secs_f64() * 1e3);
        out.tally.add(r.tally);
        rounds += 1;
        busy += r.encode + r.decode;
        let last = begin.elapsed().as_secs_f64() >= seconds && out.ops_s.is_empty();
        if window.0.elapsed() >= BATCH_WINDOW || last {
            let cpu = report::process_cpu_s();
            out.ops_s.push(rounds as f64 / busy.as_secs_f64());
            out.cpu_ms_per_op
                .push((cpu - window.1) * 1e3 / rounds as f64);
            (rounds, busy, window) = (0, Duration::ZERO, (Instant::now(), cpu));
        }
    }
    out
}

fn run_batch(args: &Args) -> Result<RunOutput, String> {
    let inputs = inputs::codec_batch(args.seed, args.smoke);
    let epoch = Instant::now();
    let peak_rss_reset = report::reset_peak_rss();
    let mut facts = vec![
        ("workers", BATCH_WORKERS.to_string()),
        ("input_tensors", inputs.tensors.len().to_string()),
        ("input_values", inputs.values().to_string()),
    ];
    let mut metrics = Vec::new();
    if !args.trace {
        facts.push(("peak_rss_reset", peak_rss_reset.to_string()));
        let (setup_s, mut bench) = repeated_setup(
            args,
            &mut facts,
            || BatchBench::new(&inputs.tensors, BATCH_WORKERS),
            drop,
        )?;
        let mut off = SpanBuf::new(epoch, 0, false);
        let r = batch_rounds(&mut bench, args.seconds, &mut off);
        let values = bench.values() as f64;
        metrics.push(Metric::new("setup_s", setup_s));
        latency_metrics(
            &mut metrics,
            &mut facts,
            stats::median(&r.latencies_ms),
            &r.latencies_ms,
        );
        let windows = r.ops_s.len();
        metrics.push(Metric::sampled(
            "cpu_ms_per_op",
            stats::median(&r.cpu_ms_per_op),
            windows,
        ));
        metrics.push(Metric::sampled("ops_s", stats::median(&r.ops_s), windows));
        let bits: u64 = bench.bits.iter().sum();
        metrics.push(Metric::new(
            "stored_bits_per_value",
            bits as f64 / (values * report::SCHEMES.len() as f64),
        ));
        facts.push(("rounds", r.latencies_ms.len().to_string()));
        facts.push((
            "response_hash",
            quoted(format!("{:016x}", bench.stream_hash())),
        ));
        return Ok(RunOutput {
            tally: r.tally,
            metrics,
            facts,
        });
    }

    // Traced run: rounds untraced then traced (a quarter of the run
    // each), a light get load on a serve stack built from the batch, and
    // every layer on the batch.
    let mut bench = BatchBench::new(&inputs.tensors, BATCH_WORKERS)?;
    let mut off = SpanBuf::new(epoch, 0, false);
    let mut on = SpanBuf::new(epoch, 4, true);
    let plain = batch_rounds(&mut bench, args.seconds / 4.0, &mut off);
    let traced = batch_rounds(&mut bench, args.seconds / 4.0, &mut on);
    let mut tally = plain.tally;
    tally.add(traced.tally);
    let (plain, traced) = (plain.latencies_ms, traced.latencies_ms);
    drop(bench);
    let templates = Templates::build(&inputs, &[Op::Get])?;
    let mut stack = Stack::bring_up(&inputs, &templates, workers())?;
    let sched = schedule(
        args.seed,
        BATCH_GET_RATE,
        args.seconds / 6.0,
        inputs.tensors.len(),
    );
    let load = run_load(&stack.stream, &sched, &templates, false, epoch, 1);
    tally.add(load.tally);
    let small = small_templates(args)?;
    let mut spans = SpanBuf::new(epoch, 3, true);
    let mut probe = Probe::new(probe_budget(args), &mut spans);
    metrics.extend(layers::codec_layers(
        &mut probe, &inputs, &templates, &small,
    )?);
    metrics.extend(layers::pipeline_layers(&mut probe, &inputs, workers())?);
    metrics.extend(layers::serve_layers(&mut probe, &mut stack, &templates)?);
    let drain = stack.tear_down();
    metrics.push(Metric::new(
        "service.queue_high_water",
        drain.queue_high_water as f64,
    ));
    for (name, p) in [("latency.p50_ms", 50.0), ("latency.p99_ms", 99.0)] {
        metrics.push(Metric::sampled(name, percentile(&plain, p), plain.len()));
    }
    metrics.push(Metric::sampled(
        "loadgen.late_p99_ms",
        percentile(&load.late_ms, 99.0),
        load.late_ms.len(),
    ));
    metrics.push(Metric::new(
        "trace.overhead_share",
        percentile(&traced, 50.0) / percentile(&plain, 50.0) - 1.0,
    ));
    load_facts(&mut facts, &load, BATCH_GET_RATE);
    facts.push(("trace_file", write_trace(args, &[&on, &spans])?));
    facts.push(("spans_dropped", (on.dropped + spans.dropped).to_string()));
    Ok(RunOutput {
        tally,
        metrics,
        facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload codec_batch --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "codec_batch");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace && !a.smoke);
    }

    #[test]
    fn refuses_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload codec_batch --trace 2")).is_err());
        assert!(parse_args(&argv("--workload codec_batch --seed")).is_err());
        assert!(parse_args(&argv("--workload codec_batch --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload codec_batch --seconds 0")).is_err());
    }

    #[test]
    fn ordering_rejects_missing_and_unregistered_metrics() {
        let mut m: Vec<Metric> = report::END_TO_END
            .iter()
            .map(|(n, _)| Metric::new(*n, 1.0))
            .collect();
        m.reverse();
        order_metrics(&mut m, false).unwrap();
        assert_eq!(m[0].name, "setup_s");
        m.pop();
        assert!(order_metrics(&mut m.clone(), false).is_err());
        m.push(Metric::new("stored_bits_per_value", 1.0));
        m.push(Metric::new("bogus", 1.0));
        assert!(order_metrics(&mut m, false).is_err());
    }
}
