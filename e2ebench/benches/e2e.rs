//! `cargo bench --bench e2e`: the end-to-end benchmark as a bench target
//! (`harness = false`). With `OBLIDB_BENCH_SMOKE=1` — the switch the
//! repository's other bench targets honour — it runs all four workloads
//! at smoke scale in seconds; without it, at the stated sizes.

fn main() -> std::process::ExitCode {
    let smoke = std::env::var("OBLIDB_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let mut args = vec!["run".to_string()];
    if smoke {
        args.push("--smoke".to_string());
    }
    oblidb_e2ebench::cli::main(&args)
}
