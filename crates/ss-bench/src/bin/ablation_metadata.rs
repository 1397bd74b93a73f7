//! Regenerates the corresponding ablation/extension study; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("ablation_metadata", |mut out| {
        ss_bench::figs::ablation_metadata::run(&mut out)
    })
}
