fn main() {
    std::process::exit(perfbench::run_cli(std::env::args().skip(1).collect()));
}
