//! `oblidb-serve` — the ObliDB TCP serving front-end.
//!
//! ```text
//! oblidb-serve [--addr HOST:PORT] [--substrate SPEC] [--workers N]
//!              [--audit] [--seed N] [--epoch-ms N]
//! ```
//!
//! Builds a fresh engine over the given substrate spec (`host`, the
//! default, `disk:/path` or `cached:N:disk:/path`),
//! wraps it in a `SharedDatabase`, and serves sessions until a client
//! sends the shutdown verb (`oblidb-sql` dot-command `.shutdown`) or
//! the process receives EOF-equivalent listener failure. Disk-backed
//! stores are checkpointed through the engine lock before exit.
//!
//! Enclave boundary crossings are counted, not priced: the `metrics`
//! verb exports `host_crossings`, and a priced time is
//! `crossings × price`.
//!
//! `--epoch-ms N` (N > 0) enables the write-ahead log with Obladi-style
//! group commit: commits pool into N-millisecond epochs and share one
//! durability fsync per epoch, and clients get `BEGIN`/`COMMIT`/
//! `ROLLBACK` over the wire (they get those even without the flag; the
//! flag adds the group fsync schedule).

use std::process::ExitCode;

use oblidb_core::{Database, DbConfig, EpochConfig, SharedDatabase, WalConfig};
use oblidb_server::server::{serve, ServerConfig};
use oblidb_substrates::SubstrateSpec;

struct Args {
    addr: String,
    substrate: String,
    workers: usize,
    audit: bool,
    seed: u64,
    epoch_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7033".to_string(),
        substrate: "host".to_string(),
        workers: 4,
        audit: false,
        seed: 7,
        epoch_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--substrate" => args.substrate = value("--substrate")?,
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--epoch-ms" => {
                args.epoch_ms =
                    value("--epoch-ms")?.parse().map_err(|e| format!("--epoch-ms: {e}"))?
            }
            "--audit" => args.audit = true,
            "--help" | "-h" => {
                return Err(
                    "usage: oblidb-serve [--addr HOST:PORT] [--substrate SPEC] [--workers N] \
                     [--audit] [--seed N] [--epoch-ms N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let spec: SubstrateSpec = match args.substrate.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--substrate {}: {e}", args.substrate);
            return ExitCode::FAILURE;
        }
    };
    let host = match spec.build() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("substrate: {e}");
            return ExitCode::FAILURE;
        }
    };
    oblidb_telemetry::set_enabled(true);
    let epoch = (args.epoch_ms > 0)
        .then(|| EpochConfig { duration_ms: args.epoch_ms, ..EpochConfig::default() });
    let config = DbConfig {
        seed: args.seed,
        audit: args.audit,
        wal: if epoch.is_some() { Some(WalConfig) } else { DbConfig::default().wal },
        epoch,
        ..DbConfig::default()
    };
    let db = match Database::try_with_memory(host, config) {
        Ok(db) => SharedDatabase::adopt(db),
        Err(e) => {
            eprintln!("engine: {e}");
            return ExitCode::FAILURE;
        }
    };
    let durable = spec.persist_dir().is_some();
    let server_config = ServerConfig { addr: args.addr.clone(), workers: args.workers, epoch };
    let handle = match serve(db.clone(), server_config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "oblidb-serve listening on {} ({} workers, substrate {}{})",
        handle.addr(),
        args.workers,
        args.substrate,
        match epoch {
            Some(e) => format!(", group commit every {} ms", e.duration_ms),
            None => String::new(),
        }
    );
    // Block until a client's shutdown verb stops the server — the only
    // stop signal in v1.
    let stats = handle.wait();
    if durable {
        if let Err(e) = db.admin(|engine| engine.checkpoint()) {
            eprintln!("checkpoint on shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "oblidb-serve: {} connections, {} statements ({} errors), {} B in / {} B out",
        stats.connections, stats.statements, stats.errors, stats.bytes_in, stats.bytes_out
    );
    ExitCode::SUCCESS
}
