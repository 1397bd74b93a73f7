//! Regenerates the corresponding paper experiment; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("fig10_scnn", |mut out| {
        ss_bench::figs::fig10_scnn::run(&mut out)
    })
}
