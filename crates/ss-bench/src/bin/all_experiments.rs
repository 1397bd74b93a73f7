//! Runs every paper experiment in order, printing each figure/table's
//! rows — the single command behind `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run --release -p ss-bench --bin all_experiments
//! ```
//!
//! `SS_SCALE`/`SS_INPUTS` shrink the run for smoke testing; `SS_OUT_DIR`
//! additionally writes each experiment's output to
//! `<dir>/<experiment>.txt` for plotting pipelines.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see
//! `ss_bench::trace`): one trace spans the whole run, with a span per
//! experiment.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;

use ss_bench::figs;
use ss_bench::trace::TraceArgs;
use ss_trace::Span;

type Experiment = fn(&mut Vec<u8>) -> io::Result<()>;

fn main() -> io::Result<()> {
    let out = &mut io::stdout().lock();
    let experiments: Vec<(&str, &str, Experiment)> = vec![
        ("Figure 1", "fig01_act_cdf", |o| figs::fig01_act_cdf::run(o)),
        ("Figure 2", "fig02_wgt_cdf", |o| figs::fig02_wgt_cdf::run(o)),
        ("Figure 3", "fig03_quant_cdf", |o| {
            figs::fig03_quant_cdf::run(o)
        }),
        ("Figure 4", "fig04_avg_width", |o| {
            figs::fig04_avg_width::run(o)
        }),
        ("Table 1", "table1_effective_widths", |o| {
            figs::table1_effective_widths::run(o)
        }),
        ("Figure 8a", "fig08a_traffic", |o| {
            figs::fig08a_traffic::run(o)
        }),
        ("Figure 8b", "fig08b_traffic_noprofile", |o| {
            figs::fig08b_traffic_noprofile::run(o)
        }),
        ("Figure 9a/9b", "fig09_dadiannao", |o| {
            figs::fig09_dadiannao::run(o)
        }),
        ("Figure 9c/9d", "fig09_bitfusion", |o| {
            figs::fig09_bitfusion::run(o)
        }),
        ("Figure 10", "fig10_scnn", |o| figs::fig10_scnn::run(o)),
        ("Figure 11", "fig11_fusion", |o| figs::fig11_fusion::run(o)),
        ("Figure 12", "fig12_sstripes", |o| {
            figs::fig12_sstripes::run(o)
        }),
        ("Figure 13", "fig13_breakdown", |o| {
            figs::fig13_breakdown::run(o)
        }),
        ("Figure 14", "fig14_vs_bitfusion", |o| {
            figs::fig14_vs_bitfusion::run(o)
        }),
        ("Figure 15", "fig15_buffers", |o| {
            figs::fig15_buffers::run(o)
        }),
        ("Figure 16", "fig16_outlier", |o| {
            figs::fig16_outlier::run(o)
        }),
        ("Section 5.3", "sec53_loom", |o| figs::sec53_loom::run(o)),
        ("Ablation: group size", "ablation_group_size", |o| {
            figs::ablation_group_size::run(o)
        }),
        ("Ablation: composer", "ablation_composer", |o| {
            figs::ablation_composer::run(o)
        }),
        ("Ablation: zero vector", "ablation_metadata", |o| {
            figs::ablation_metadata::run(o)
        }),
        (
            "Ablation: tile validation",
            "ablation_tile_validation",
            |o| figs::ablation_tile_validation::run(o),
        ),
        ("Extension: Tartan", "ext_tartan", |o| {
            figs::ext_tartan::run(o)
        }),
        ("Extension: Delta", "ext_delta", |o| figs::ext_delta::run(o)),
        (
            "Extension: Schemes x quantizers",
            "ext_schemes_quant",
            |o| figs::ext_schemes_quant::run(o),
        ),
        ("Extension: On-chip buffers", "ext_onchip", |o| {
            figs::ext_onchip::run(o)
        }),
        ("Extension: Energy breakdown", "ext_energy", |o| {
            figs::ext_energy::run(o)
        }),
    ];
    let trace_args = TraceArgs::from_env();
    trace_args.install();
    let out_dir: Option<PathBuf> = std::env::var_os("SS_OUT_DIR").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir)?;
    }
    writeln!(
        out,
        "ShapeShifter reproduction: all experiments (SS_SCALE={}, SS_INPUTS={})\n",
        ss_bench::scale(),
        ss_bench::inputs()
    )?;
    let start = Instant::now();
    for (name, slug, run) in experiments {
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
        writeln!(out, "[{name} done in {:.1}s]\n", t.elapsed().as_secs_f64())?;
    }
    trace_args.export()?;
    writeln!(
        out,
        "All experiments done in {:.1}s",
        start.elapsed().as_secs_f64()
    )
}
