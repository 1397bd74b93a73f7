//! Regenerates the corresponding paper experiment; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("fig14_vs_bitfusion", |mut out| {
        ss_bench::figs::fig14_vs_bitfusion::run(&mut out)
    })
}
