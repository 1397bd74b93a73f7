//! Regenerates the corresponding ablation/extension study; see `ss_bench::figs`.
//! Supports `--trace <path>` / `--trace-chrome <path>` (see `ss_bench::trace`).

fn main() -> std::io::Result<()> {
    ss_bench::main_with_trace("ext_energy", |mut out| {
        ss_bench::figs::ext_energy::run(&mut out)
    })
}
