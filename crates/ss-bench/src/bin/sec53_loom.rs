//! Regenerates the corresponding paper experiment; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("sec53_loom", |mut out| {
        ss_bench::figs::sec53_loom::run(&mut out)
    })
}
