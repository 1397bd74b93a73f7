//! Regenerates the corresponding ablation/extension study; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("ablation_tile_validation", |mut out| {
        ss_bench::figs::ablation_tile_validation::run(&mut out)
    })
}
