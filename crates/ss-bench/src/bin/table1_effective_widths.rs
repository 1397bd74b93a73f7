//! Regenerates the corresponding paper experiment; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("table1_effective_widths", |mut out| {
        ss_bench::figs::table1_effective_widths::run(&mut out)
    })
}
