//! See [`oblidb_e2ebench::cli`].

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    oblidb_e2ebench::cli::main(&args)
}
