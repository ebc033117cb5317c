//! Shared helpers for the recorded benchmark binaries (`crypto`,
//! `substrates`, `planner`), each of which writes one `BENCH_<name>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod timing;

/// True when `OBLIDB_BENCH_SMOKE` is set: each binary runs one short
/// pass instead of its full measurement, so CI can run it as a
/// compile-and-run smoke check.
pub fn smoke_mode() -> bool {
    std::env::var_os("OBLIDB_BENCH_SMOKE").is_some()
}
