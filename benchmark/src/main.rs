//! `adaptnoc-benchmark run ...`; see `README.md` beside this package.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    adaptnoc_benchmark::cli::main(&argv)
}
