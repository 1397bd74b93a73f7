//! Runs the paper's experiments — the single command behind
//! `EXPERIMENTS.md` and `figures/`:
//!
//! ```text
//! cargo run --release -p ss-bench --bin all_experiments [SLUG...] [--trace PATH] [--trace-chrome PATH]
//! ```
//!
//! With no slug it runs every experiment of `ss_bench::figs::EXPERIMENTS`
//! in table order; with slugs, those, in the order given. stdout carries
//! only the experiments' own rows, so it is the same on every run; the
//! banner and the per-experiment timings go to stderr.
//!
//! `SS_SCALE`/`SS_INPUTS` shrink the run for smoke testing; `SS_OUT_DIR`
//! additionally writes each experiment's output to `<dir>/<slug>.txt`.
//! `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`)
//! record one trace for the whole run, with a span per experiment. An
//! unknown slug or flag ends the run before anything is run or written.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;

use ss_bench::figs::{Run, EXPERIMENTS};
use ss_bench::trace::TraceArgs;
use ss_trace::Span;

type Experiment = (&'static str, &'static str, Run);

/// Resolves the command line to the trace flags and the experiments to
/// run, in order; an error names the first argument it cannot use.
fn parse_args(args: impl Iterator<Item = String>) -> Result<(TraceArgs, Vec<Experiment>), String> {
    let (trace_args, slugs) = TraceArgs::parse(args)?;
    if slugs.is_empty() {
        return Ok((trace_args, EXPERIMENTS.to_vec()));
    }
    let experiments = slugs
        .into_iter()
        .map(|slug| {
            EXPERIMENTS
                .iter()
                .find(|e| e.1 == slug)
                .copied()
                .ok_or(slug)
        })
        .collect::<Result<_, _>>()?;
    Ok((trace_args, experiments))
}

fn usage() -> String {
    let mut s = String::from(
        "usage: all_experiments [SLUG...] [--trace PATH] [--trace-chrome PATH]\n\
         experiments (all of them, in this order, when no slug is given):\n",
    );
    for (title, slug, _) in EXPERIMENTS {
        s.push_str(&format!("  {slug:<26} {title}\n"));
    }
    s
}

fn main() -> io::Result<()> {
    let (trace_args, experiments) = parse_args(std::env::args().skip(1)).unwrap_or_else(|bad| {
        eprintln!("all_experiments: bad argument `{bad}`\n{}", usage());
        std::process::exit(2)
    });
    trace_args.install();
    let out_dir: Option<PathBuf> = std::env::var_os("SS_OUT_DIR").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir)?;
    }
    eprintln!(
        "ShapeShifter reproduction: {} experiments (SS_SCALE={}, SS_INPUTS={})\n",
        experiments.len(),
        ss_bench::scale(),
        ss_bench::inputs()
    );
    let out = &mut io::stdout().lock();
    let start = Instant::now();
    for (title, slug, run) in experiments {
        let t = Instant::now();
        let mut buf = Vec::new();
        {
            let _span = Span::enter(ss_trace::installed(), "experiment", slug);
            run(&mut buf)?;
        }
        out.write_all(&buf)?;
        if let Some(dir) = &out_dir {
            fs::write(dir.join(format!("{slug}.txt")), &buf)?;
        }
        eprintln!("[{title} done in {:.1}s]\n", t.elapsed().as_secs_f64());
    }
    trace_args.export()?;
    eprintln!("Done in {:.1}s", start.elapsed().as_secs_f64());
    Ok(())
}
