//! # ObliDB — Oblivious Query Processing for Secure Databases
//!
//! A full Rust reproduction of *ObliDB: Oblivious Query Processing for
//! Secure Databases* (Eskandarian & Zaharia, VLDB 2019). This facade crate
//! re-exports the workspace's public API; see the individual crates for the
//! subsystem documentation:
//!
//! * [`crypto`] — ChaCha20-Poly1305 AEAD, SHA-256/HMAC, SipHash PRF.
//! * [`enclave`] — the simulated enclave boundary: untrusted block memory
//!   with access-pattern tracing and an oblivious-memory budget.
//! * [`substrates`] — production-shaped [`enclave::EnclaveMemory`]
//!   backends: disk-backed ([`substrates::DiskMemory`]), LRU-cached
//!   ([`substrates::CachedMemory`]), sharded
//!   ([`substrates::ShardedMemory`]), plus runtime selection via
//!   [`substrates::SubstrateSpec`] / [`substrates::AnySubstrate`].
//! * [`telemetry`] — enclave-safe observability: hierarchical spans over a
//!   fixed in-enclave ring, a counters/histograms registry, and text/JSON
//!   exporters for explicit boundary points. Off by default and free when
//!   off (one relaxed atomic load per site).
//! * [`storage`] — sealed (encrypted + MACed + rollback-protected) block
//!   regions.
//! * [`oram`] — Path ORAM, non-recursive and recursive.
//! * [`btree`] — the oblivious B+ tree stored inside Path ORAM.
//! * [`core`] — the database engine: storage methods, oblivious operators,
//!   query planner, SQL front-end — plus [`core::SharedDatabase`], the
//!   concurrent-session layer over one store.
//! * [`txn`] — epoch-based transactions over the shared engine:
//!   `BEGIN`/`COMMIT`/`ROLLBACK` sessions with buffered write sets,
//!   Obladi-style group commit ([`txn::TxnManager`]), and the background
//!   epoch flusher.
//! * [`server`] — the TCP serving front-end: a length-prefixed wire
//!   protocol, session-per-connection server ([`server::serve`]), blocking
//!   client, and the `oblidb-serve` / `oblidb-sql` binaries.
//! * [`baselines`] — the comparison systems re-implemented on the same
//!   substrate (Opaque, plain/Spark-SQL-like) and the paper's closed-form
//!   planner rules.
//! * [`workloads`] — deterministic generators for the paper's evaluation
//!   workloads (Big Data Benchmark, CFPB, a synthetic keyed table).
//!
//! ## Quickstart
//!
//! ```
//! use oblidb::core::{Database, DbConfig, StorageMethod};
//!
//! let mut db = Database::new(DbConfig::default());
//! db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
//! db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
//! let out = db.execute("SELECT v FROM t WHERE k = 2").unwrap();
//! assert_eq!(out.rows()[0][0].as_int(), Some(20));
//! # let _ = StorageMethod::Flat;
//! ```

pub use oblidb_baselines as baselines;
pub use oblidb_btree as btree;
pub use oblidb_core as core;
pub use oblidb_crypto as crypto;
pub use oblidb_enclave as enclave;
pub use oblidb_oram as oram;
pub use oblidb_server as server;
pub use oblidb_storage as storage;
pub use oblidb_substrates as substrates;
pub use oblidb_telemetry as telemetry;
pub use oblidb_txn as txn;
pub use oblidb_workloads as workloads;

/// Opens a [`core::Database`] over the substrate a
/// [`substrates::SubstrateSpec`] describes — runtime backend selection
/// with a single engine type:
///
/// ```
/// use oblidb::substrates::SubstrateSpec;
/// use oblidb::core::DbConfig;
///
/// // Disk-backed engine with an LRU of 4096 hot blocks, in a
/// // self-cleaning temp directory.
/// let spec = SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 4096 };
/// let mut db = oblidb::database_on(&spec, DbConfig::default()).unwrap();
/// db.execute("CREATE TABLE t (k INT)").unwrap();
/// db.execute("INSERT INTO t VALUES (7)").unwrap();
/// assert_eq!(db.execute("SELECT * FROM t WHERE k = 7").unwrap().len(), 1);
/// db.checkpoint().unwrap(); // flush the cache, fsync the region files
/// ```
pub fn database_on(
    spec: &substrates::SubstrateSpec,
    config: core::DbConfig,
) -> std::io::Result<core::Database<substrates::AnySubstrate>> {
    core::Database::try_with_memory(spec.build()?, config)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Errors from [`database_open`]: substrate-level I/O while re-attaching,
/// or engine-level manifest/recovery failures.
#[derive(Debug)]
pub enum OpenError {
    /// Opening the substrate (region files, region table) failed.
    Io(std::io::Error),
    /// The engine rejected the manifest or failed during reopen/recovery.
    Db(core::DbError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "substrate: {e}"),
            OpenError::Db(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Io(e) => Some(e),
            OpenError::Db(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<core::DbError> for OpenError {
    fn from(e: core::DbError) -> Self {
        OpenError::Db(e)
    }
}

/// Reopens a database persisted with [`core::Database::persist_to`] on a
/// durable substrate spec (`disk:/path`, `cached:N:disk:/path`,
/// `sharded:N:disk:/path`): re-attaches the substrate
/// ([`substrates::SubstrateSpec::open`]), verifies the sealed manifest,
/// and reconstructs the engine so prepare/explain/execute resumes against
/// yesterday's data with byte-identical results and traces.
///
/// `config.seed` must be the seed the database was created with — it is
/// the enclave identity the manifest is sealed to.
///
/// Crash recovery: when the durable write-ahead log extends past the last
/// checkpoint (the engine crashed, or was dropped without `persist_to`),
/// the data regions past the checkpoint cannot be trusted; this function
/// then rebuilds in place — it extracts every durable statement from the
/// log, wipes the store, replays the full history into a fresh engine on
/// the same directories, and re-persists. Statements that fail during
/// replay are skipped exactly as they failed originally (the WAL records
/// intent); the rebuilt engine is returned ready to use.
pub fn database_open(
    spec: &substrates::SubstrateSpec,
    config: core::DbConfig,
) -> Result<core::Database<substrates::AnySubstrate>, OpenError> {
    database_open_with_report(spec, config).map(|(db, _)| db)
}

/// [`database_open`], additionally returning the [`core::RecoveryReport`]
/// when crash recovery ran (`None` on a clean reopen). Callers that must
/// audit recovery — e.g. alert on statements skipped during replay — use
/// this; `database_open` is the convenience form that drops the report.
pub fn database_open_with_report(
    spec: &substrates::SubstrateSpec,
    mut config: core::DbConfig,
) -> Result<(core::Database<substrates::AnySubstrate>, Option<core::RecoveryReport>), OpenError> {
    let dir = spec.persist_dir().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "only disk-backed substrate specs with an explicit directory can be reopened",
        )
    })?;
    // Reload the persisted calibration artifact (written by
    // [`database_on_calibrated`]) so planner weights survive restarts.
    // Only a caller-default profile is substituted — an explicit profile
    // in `config` is a deliberate choice and wins over the artifact.
    if config.planner.profile == core::CostProfile::default() {
        if let Some(profile) = core::CostProfile::load_from(dir) {
            config.planner.profile = profile;
        }
    }
    // A pending recovery journal means an earlier rebuild was interrupted
    // (or could not be checkpointed); the store may be in any state, but
    // the journal — directly, or via its pointer to a live WAL — holds
    // the full committed history. Resume from it.
    if let Some(plan) = core::read_recovery_journal(dir, &config)? {
        let statements = match spec.open() {
            Ok(mut host) => core::resolve_recovery_statements(&mut host, &plan),
            // The store itself is unopenable (a crash mid-rebuild): the
            // journal's inline statements are the surviving history.
            Err(_) => plan.statements.clone(),
        };
        return rebuild(spec, config, &statements).map(|(db, r)| (db, Some(r)));
    }
    let host = spec.open()?;
    match core::Database::open_with_memory(host, config.clone(), dir)? {
        core::Reopened::Clean(db) => Ok((db, None)),
        // open_with_memory already journaled the plan, so even a crash
        // during this rebuild cannot lose the committed statements.
        core::Reopened::NeedsRecovery(plan) => {
            rebuild(spec, config, &plan.statements).map(|(db, r)| (db, Some(r)))
        }
    }
}

/// Wipes the store's region files, replays the full durable history into
/// a fresh engine on the same directories, and re-persists (which also
/// retires the recovery journal).
fn rebuild(
    spec: &substrates::SubstrateSpec,
    config: core::DbConfig,
    statements: &[String],
) -> Result<(core::Database<substrates::AnySubstrate>, core::RecoveryReport), OpenError> {
    let dir = spec.persist_dir().expect("checked by caller");
    let replay_is_logged = config.wal.is_some_and(|w| w.durable_appends);
    // Re-journal the resolved history before destroying anything: the
    // previous journal may point at a WAL the wipe is about to delete.
    core::write_recovery_statements(dir, &config, statements)?;
    wipe_store(spec)?;
    // A fresh *epoch*, not just a fresh engine: the rebuild replays a
    // prefix of the history the old incarnation sealed into this same
    // store, so deterministic keys would reuse (key, region, nonce)
    // triples the host has already seen ciphertexts for.
    let mut db = core::Database::try_with_memory_fresh_epoch(spec.build()?, config)?;
    let report = db.restore(statements)?;
    match db.persist_to(dir) {
        Ok(()) => {} // journal retired by persist_to
        Err(core::DbError::Unsupported(_)) if replay_is_logged => {
            // The replayed history contains state persist_to cannot
            // checkpoint yet (an indexed CREATE TABLE in the replay). The
            // rebuilt engine is fully usable and its fresh WAL — written
            // by the replay itself, with durable appends — holds the
            // complete history and keeps receiving new mutations. Point
            // the journal at it, so the next open recovers the full
            // (possibly extended) history instead of wedging or losing
            // post-rebuild work.
            db.journal_live_wal(dir, statements)?;
        }
        Err(e) => return Err(e.into()),
    }
    Ok((db, report))
}

/// Removes a store's region files and region tables so recovery can
/// rebuild on the same directories. The sealed manifest is left in place
/// until `persist_to` atomically replaces it.
fn wipe_store(spec: &substrates::SubstrateSpec) -> std::io::Result<()> {
    let Some(dir) = spec.persist_dir() else { return Ok(()) };
    let mut dirs = vec![dir.to_path_buf()];
    if let substrates::SubstrateSpec::ShardedDisk { shards, .. } = spec {
        dirs = (0..*shards).map(|i| dir.join(format!("shard-{i}"))).collect();
    }
    for d in dirs {
        if !d.exists() {
            // A crash can land before a shard directory was even created.
            continue;
        }
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".blk") || name == substrates::REGION_META_FILE {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// Like [`database_on`], but with the planner's cost model **calibrated to
/// the substrate**. On a durable spec (one with a persist directory) this
/// loads the `oblidb.calibration` artifact if present, otherwise runs the
/// [`core::CostProfile::calibrate`] micro-probe against the freshly built
/// substrate and saves the result next to the region files, so the
/// measured weights survive restarts and are reloaded by
/// [`database_open`]. Non-durable specs fall back to the
/// [`core::CostProfile`] conventionally paired with the spec's label
/// (`disk` ≫ `cached` ≫ `host` crossing weight), keeping in-memory runs
/// deterministic.
///
/// Note this makes plan choices — deliberate, §2.3-sanctioned leakage —
/// substrate-dependent. Use [`database_on`] when traces must be identical
/// across substrates (the conformance suite does).
pub fn database_on_calibrated(
    spec: &substrates::SubstrateSpec,
    mut config: core::DbConfig,
) -> std::io::Result<core::Database<substrates::AnySubstrate>> {
    let mut mem = spec.build()?;
    let profile = match spec.persist_dir() {
        Some(dir) => core::CostProfile::load_from(dir).unwrap_or_else(|| {
            let p = core::CostProfile::calibrate(spec.profile_name(), &mut mem)
                .unwrap_or_else(|_| core::CostProfile::named(spec.profile_name()));
            // Best-effort: the artifact is advisory, an unwritable dir
            // just means recalibration on the next cold open.
            let _ = p.save_to(dir);
            p
        }),
        None => core::CostProfile::named(spec.profile_name()),
    };
    config.planner.profile = profile;
    core::Database::try_with_memory(mem, config).map_err(|e| std::io::Error::other(e.to_string()))
}
