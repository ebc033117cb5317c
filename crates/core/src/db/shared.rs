//! Concurrent sessions over one store: [`SharedDatabase`] and [`Session`].
//!
//! One ObliDB engine owns its substrate exclusively — `&mut self`
//! everywhere. A server needs many connections over the *same* sealed
//! store. This module layers statement-granular concurrency on top of the
//! unchanged single-owner engine instead of threading locks through it:
//!
//! * **Writes serialize.** Mutations (and reads that touch index-backed
//!   tables) take the write side of a statement latch and run on the
//!   resident *master* engine, exactly as a single-owner `Database`
//!   would. Any serial schedule therefore produces results, sealed
//!   bytes, and access traces bit-identical to replaying the same
//!   statements on one `Database` — there is no second write path to
//!   diverge.
//! * **Reads snapshot.** A `SELECT` / `EXPLAIN` / `EXPLAIN ANALYZE`
//!   whose referenced tables are all flat-stored takes the *read* side
//!   of the latch and runs on a throwaway **fork**: a fresh `Database`
//!   over a [`SessionMemory`] sibling of the shared store, with
//!   read-only [`FlatTable::snapshot_handle`] clones of the catalog, a
//!   [`OmBudget::snapshot`] of the master's oblivious-memory pool (same
//!   availability ⇒ same plan choices), and a per-fork key epoch so
//!   operator scratch regions never reuse a `(key, nonce)` pair across
//!   forks. Forks read table payloads and write only their own scratch,
//!   so any number run concurrently; the latch's read side only excludes
//!   writers. Index-backed tables are excluded because ORAM reads
//!   *mutate* position maps — those selects fall back to the write path.
//! * **Leakage is unchanged.** The adversary already sees every block
//!   access; concurrency adds interleaving, not new event kinds. Each
//!   session's own trace (and the shared [`TraceAuditor`]'s per-shape
//!   hashes, which canonicalize region ids by first appearance) is
//!   schedule-independent for the serial schedules the audit compares.
//!
//! Isolation level: statement-granular snapshot reads over serialized
//! writes. A read observes every write that completed before it forked
//! and none that started after — per-statement. Multi-statement
//! transactions layer on top (`oblidb::txn`): they buffer their writes
//! client-side and apply them through [`SharedDatabase::execute_atomic`],
//! one write-latch hold for the whole batch, so snapshot reads see a
//! transaction's effects all-or-nothing.
//!
//! Plan-cache sharing: forks are throwaway, so a per-fork cache would
//! never hit. Instead each fork is seeded from a shared plan cache
//! (version-checked, same staleness rule as the engine's own) and its
//! compiled plans + hit/miss counters are folded back under one mutex
//! after the run — counts are never lost, and the totals reported by
//! [`SharedDatabase::plan_cache_stats`] are the shared counters plus the
//! master engine's internal ones (exclusive statements use the master's
//! own cache). Lock order everywhere: latch → master → plans/auditor —
//! later locks are only taken while earlier ones are held in that order,
//! so the hierarchy is acyclic and deadlock-free.
//!
//! Stall pricing: configure crossing stalls on the [`SharedMemory`]
//! handle (see [`SharedDatabase::store`]), not on the inner substrate —
//! session stalls are then paid *outside* the store lock and overlap
//! across sessions, which is where serving throughput scaling comes
//! from.
//!
//! [`FlatTable::snapshot_handle`]: crate::table::FlatTable::snapshot_handle
//! [`OmBudget::snapshot`]: oblidb_enclave::OmBudget::snapshot

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use oblidb_enclave::{EnclaveMemory, EnclaveRng, SessionMemory, SharedMemory, Trace};

use crate::audit::{statement_shape, AuditReport, AuditViolation, TraceAuditor};
use crate::error::DbError;
use crate::sql::{self, Statement};
use crate::table::TableStorage;

use super::{Database, DbConfig, PlanCacheStats, QueryOutput, QueryPlan, PLAN_CACHE_CAP};

/// Locks a mutex, recovering the guard if a holder panicked — the
/// protected state is counters, caches, and the master engine, all of
/// which stay structurally valid across an unwound statement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn latch_read(l: &RwLock<()>) -> RwLockReadGuard<'_, ()> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn latch_write(l: &RwLock<()>) -> RwLockWriteGuard<'_, ()> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// The shared prepared-plan cache: compiled SELECT plans keyed by
/// statement text (same key and staleness rule as the engine-internal
/// cache) plus the hit/miss counters harvested from fork runs.
struct SharedPlans {
    cache: HashMap<String, QueryPlan>,
    stats: PlanCacheStats,
}

struct Inner<M: EnclaveMemory + Send> {
    /// Statement latch: read side = concurrent snapshot selects, write
    /// side = one exclusive statement on the master engine.
    latch: RwLock<()>,
    /// The resident engine every mutation runs on. Locked briefly by
    /// snapshot readers too (to classify + fork under a consistent
    /// catalog), but only while they hold the read latch, so a writer
    /// never waits on a fork's execution — just on its setup.
    master: Mutex<Database<SessionMemory<M>>>,
    /// The shared substrate handle; mints `SessionMemory` siblings.
    store: SharedMemory<M>,
    plans: Mutex<SharedPlans>,
    /// One auditor for every session and path (fork + master), so a
    /// statement shape first seen under one session is checked against
    /// reruns under any other.
    auditor: Mutex<TraceAuditor>,
    /// The adopted engine's `DbConfig::audit` flag, hoisted to this
    /// layer (member engines run with it off — see [`SharedDatabase::adopt`]).
    audit: bool,
    session_seq: AtomicU64,
    fork_seq: AtomicU64,
    snapshot_reads: AtomicU64,
    exclusive_statements: AtomicU64,
    statement_errors: AtomicU64,
}

/// A cloneable, `Send + Sync` handle to one ObliDB engine shared by many
/// concurrent [`Session`]s. See the [module docs](self) for the
/// concurrency contract.
pub struct SharedDatabase<M: EnclaveMemory + Send = oblidb_enclave::Host> {
    inner: Arc<Inner<M>>,
}

impl<M: EnclaveMemory + Send> Clone for SharedDatabase<M> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<M: EnclaveMemory + Send> std::fmt::Debug for SharedDatabase<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDatabase")
            .field("sessions", &self.inner.session_seq.load(Ordering::Relaxed))
            .field("snapshot_reads", &self.inner.snapshot_reads.load(Ordering::Relaxed))
            .field("exclusive_statements", &self.inner.exclusive_statements.load(Ordering::Relaxed))
            .finish()
    }
}

/// Per-session statement counters, folded into
/// [`SharedDatabase::metrics_snapshot`] server-side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// This session's id (1-based mint order).
    pub id: u64,
    /// Statements this session submitted.
    pub statements: u64,
    /// Statements that returned an error.
    pub errors: u64,
}

/// One connection's view of a [`SharedDatabase`]: submit statements,
/// get results. Cheap to mint, `Send`, single-threaded by design
/// (`&mut self`) — a server hands one to each connection handler.
pub struct Session<M: EnclaveMemory + Send = oblidb_enclave::Host> {
    db: SharedDatabase<M>,
    stats: SessionStats,
}

impl<M: EnclaveMemory + Send> SharedDatabase<M> {
    /// Creates an empty shared database over a caller-provided substrate.
    pub fn new(store: M, config: DbConfig) -> Result<Self, DbError> {
        Database::try_with_memory(store, config).map(Self::adopt)
    }

    /// Wraps an existing single-owner engine — tables, WAL, plan cache,
    /// auditor history and all — for concurrent serving. The inverse of
    /// handing a `Database` to one caller: the engine becomes the
    /// resident *master* behind the statement latch, its substrate is
    /// rehomed into a [`SharedMemory`] so snapshot forks can mint
    /// siblings, and its `DbConfig::audit` flag is hoisted to this layer
    /// (member engines run with auditing off; one shared
    /// [`TraceAuditor`] observes every path so shapes are checked
    /// *across* sessions, not per-engine).
    pub fn adopt(db: Database<M>) -> Self {
        let Database {
            host,
            om,
            rng,
            master_key,
            key_epoch,
            key_counter,
            tables,
            mut config,
            wal,
            version,
            plan_cache,
            plan_cache_stats,
            auditor,
        } = db;
        let audit = config.audit;
        config.audit = false;
        let store = SharedMemory::new(host);
        let master = Database {
            host: store.session(),
            om,
            rng,
            master_key,
            key_epoch,
            key_counter,
            tables,
            config,
            wal,
            version,
            plan_cache,
            plan_cache_stats,
            auditor: TraceAuditor::default(),
        };
        Self {
            inner: Arc::new(Inner {
                latch: RwLock::new(()),
                master: Mutex::new(master),
                store,
                plans: Mutex::new(SharedPlans {
                    cache: HashMap::new(),
                    stats: PlanCacheStats::default(),
                }),
                auditor: Mutex::new(auditor),
                audit,
                session_seq: AtomicU64::new(0),
                fork_seq: AtomicU64::new(0),
                snapshot_reads: AtomicU64::new(0),
                exclusive_statements: AtomicU64::new(0),
                statement_errors: AtomicU64::new(0),
            }),
        }
    }

    /// Mints a new session. Ids are 1-based in mint order.
    pub fn session(&self) -> Session<M> {
        let id = self.inner.session_seq.fetch_add(1, Ordering::Relaxed) + 1;
        Session { db: self.clone(), stats: SessionStats { id, statements: 0, errors: 0 } }
    }

    /// The shared substrate handle — for crossing-cost configuration
    /// ([`SharedMemory::set_crossing_stall`]) and store-level stats.
    pub fn store(&self) -> &SharedMemory<M> {
        &self.inner.store
    }

    /// Exclusive access to the master engine: checkpointing, DDL batches,
    /// config surgery. Takes the write latch, so it serializes with every
    /// statement — in-flight snapshot reads finish first. Version bumps
    /// made here invalidate shared cached plans through the same
    /// version check the engine uses.
    pub fn admin<R>(&self, f: impl FnOnce(&mut Database<SessionMemory<M>>) -> R) -> R {
        let _excl = latch_write(&self.inner.latch);
        let mut master = lock(&self.inner.master);
        f(&mut master)
    }

    /// Executes a statement batch atomically: all of it becomes visible
    /// under one write-latch hold, or none of it runs. The batch is
    /// dry-run validated first (parse, table/column resolution, value
    /// typing — see `Database::validate_batch`), so the only failures
    /// past the first executed statement are substrate I/O errors. This
    /// is the commit path of `oblidb::txn` transactions; under an epoch
    /// scheduler the whole batch lands inside one WAL epoch and shares
    /// its group fsync.
    pub fn execute_atomic(&self, statements: &[String]) -> Result<Vec<QueryOutput>, DbError> {
        let _excl = latch_write(&self.inner.latch);
        let mut master = lock(&self.inner.master);
        master.validate_batch(statements)?;
        let mut outputs = Vec::with_capacity(statements.len());
        for stmt in statements {
            self.inner.exclusive_statements.fetch_add(1, Ordering::Relaxed);
            let (result, _) = self.run_audited(&mut master, None, stmt, false);
            outputs.push(result?);
        }
        Ok(outputs)
    }

    /// Shared plan-cache counters: fork hits/misses (harvested after
    /// every snapshot read) plus the master engine's internal counters
    /// (exclusive statements plan through the master's own cache).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let master = lock(&self.inner.master).plan_cache_stats();
        let shared = lock(&self.inner.plans).stats;
        PlanCacheStats { hits: shared.hits + master.hits, misses: shared.misses + master.misses }
    }

    /// Aggregate counters from the shared trace auditor (all sessions,
    /// both paths). Empty unless the adopted config had audit on.
    pub fn audit_report(&self) -> AuditReport {
        lock(&self.inner.auditor).report()
    }

    /// Trace-audit divergences recorded so far, across all sessions.
    pub fn audit_violations(&self) -> Vec<AuditViolation> {
        lock(&self.inner.auditor).violations().to_vec()
    }

    /// One merged telemetry snapshot for the whole shared engine: the
    /// process-wide registry, store-level substrate traffic (every
    /// session's accounted accesses plus aggregated session stalls),
    /// combined plan-cache counters, shared audit counters, and the
    /// serving-level statement counters.
    ///
    /// Counters are read without the statement latch: each value is
    /// individually exact at its own read point, but values read while
    /// statements are in flight may straddle a statement (e.g. a
    /// `db_statements_*` bump visible before the corresponding
    /// `host_reads` traffic). Quiesce sessions first when exact
    /// cross-counter consistency matters.
    pub fn metrics_snapshot(&self) -> oblidb_telemetry::MetricsSnapshot {
        let mut snap = oblidb_telemetry::snapshot();
        let stats = self.inner.store.store_stats();
        snap.push_counter("host_reads", stats.reads);
        snap.push_counter("host_writes", stats.writes);
        snap.push_counter("host_bytes_read", stats.bytes_read);
        snap.push_counter("host_bytes_written", stats.bytes_written);
        snap.push_counter("host_crossings", stats.crossings);
        snap.push_counter("host_stall_nanos", stats.stall_nanos);
        // Prefixed `db_` to stay distinct from the global telemetry
        // counters of the same shape already in the snapshot.
        let plans = self.plan_cache_stats();
        snap.push_counter("db_plan_cache_hits", plans.hits);
        snap.push_counter("db_plan_cache_misses", plans.misses);
        let audit = self.audit_report();
        snap.push_counter("db_audit_shapes", audit.shapes as u64);
        snap.push_counter("db_audit_violations", audit.violations as u64);
        snap.push_counter("db_sessions", self.inner.session_seq.load(Ordering::Relaxed));
        snap.push_counter("db_snapshot_reads", self.inner.snapshot_reads.load(Ordering::Relaxed));
        snap.push_counter(
            "db_exclusive_statements",
            self.inner.exclusive_statements.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "db_statement_errors",
            self.inner.statement_errors.load(Ordering::Relaxed),
        );
        snap
    }

    // ---- statement routing ------------------------------------------------

    fn route(&self, sql_text: &str, traced: bool) -> (Result<QueryOutput, DbError>, Option<Trace>) {
        let empty_trace = || traced.then(|| Trace(Vec::new()));
        let stmt = match sql::parse(sql_text) {
            Ok(s) => s,
            Err(e) => return (Err(e), empty_trace()),
        };
        let select = match &stmt {
            Statement::Select(s) | Statement::Explain(s) | Statement::ExplainAnalyze(s) => Some(s),
            _ => None,
        };
        if let Some(s) = select {
            // Classification and forking share one critical section under
            // the read latch, so no exclusive statement can change a
            // table's storage method between the check and the snapshot.
            let _shared = latch_read(&self.inner.latch);
            let forked = {
                let master = lock(&self.inner.master);
                let fork_safe = std::iter::once(s.table.as_str())
                    .chain(s.join.as_ref().map(|j| j.table.as_str()))
                    .all(|name| match master.tables.iter().find(|(n, _)| n == name) {
                        // Unknown tables fork fine: the fork raises the
                        // same NoSuchTable the master would, without
                        // taking the write latch for a typo.
                        Some((_, TableStorage::Flat(_))) | None => true,
                        // ORAM reads mutate position maps, and a Both
                        // table's planner may choose the index path.
                        Some(_) => false,
                    });
                fork_safe.then(|| self.fork(&master))
            };
            if let Some((fork, catalog)) = forked {
                self.inner.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                return self.run_snapshot(fork, catalog, sql_text, traced);
            }
        }
        let _excl = latch_write(&self.inner.latch);
        let mut master = lock(&self.inner.master);
        self.inner.exclusive_statements.fetch_add(1, Ordering::Relaxed);
        self.run_audited(&mut master, None, sql_text, traced)
    }

    /// Builds a throwaway snapshot engine off the master: sibling store
    /// handle, budget snapshot, flat-only read-only catalog, per-fork key
    /// epoch (scratch regions seal under fork-unique keys — two forks
    /// both derive `key_counter = 1, 2, ...`, and nonce counters restart
    /// per region, so a shared epoch would reuse `(key, nonce)` pairs
    /// across different scratch plaintexts). Returns the fork plus the
    /// full catalog of public table sizes at fork time, which audit shapes
    /// use so fork-path and master-path shapes for the same statement agree.
    fn fork(
        &self,
        master: &Database<SessionMemory<M>>,
    ) -> (Database<SessionMemory<M>>, Vec<(String, u64, u64)>) {
        let seq = self.inner.fork_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let catalog = master.public_sizes();
        let tables: Vec<(String, TableStorage)> = master
            .tables
            .iter()
            .filter_map(|(name, storage)| match storage {
                TableStorage::Flat(f) => {
                    Some((name.clone(), TableStorage::Flat(f.snapshot_handle())))
                }
                _ => None,
            })
            .collect();
        let mut config = master.config.clone();
        config.audit = false;
        config.wal = None;
        let mut label = Vec::with_capacity(22);
        label.extend_from_slice(b"session-epoch:");
        label.extend_from_slice(&seq.to_le_bytes());
        let digest = oblidb_crypto::derive_key(&master.master_key, &label);
        let mut key_epoch = [0u8; 16];
        key_epoch.copy_from_slice(&digest[..16]);
        let fork = Database {
            host: master.host.sibling(),
            om: master.om.snapshot(),
            rng: EnclaveRng::seed_from_u64(config.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            master_key: master.master_key,
            key_epoch,
            key_counter: 0,
            tables,
            config,
            wal: None,
            version: master.version,
            plan_cache: HashMap::new(),
            plan_cache_stats: PlanCacheStats::default(),
            auditor: TraceAuditor::default(),
        };
        (fork, catalog)
    }

    /// Runs one snapshot select on its fork: seed the fork's plan cache
    /// from the shared one, execute (audited), then fold compiled plans
    /// and hit/miss counters back. Caller holds the read latch.
    fn run_snapshot(
        &self,
        mut fork: Database<SessionMemory<M>>,
        catalog: Vec<(String, u64, u64)>,
        sql_text: &str,
        traced: bool,
    ) -> (Result<QueryOutput, DbError>, Option<Trace>) {
        {
            let plans = lock(&self.inner.plans);
            if let Some(p) = plans.cache.get(sql_text) {
                if p.version == fork.version {
                    fork.plan_cache.insert(sql_text.to_string(), p.clone());
                }
            }
        }
        let out = self.run_audited(&mut fork, Some(&catalog), sql_text, traced);
        let current = fork.version;
        let mut plans = lock(&self.inner.plans);
        plans.stats.hits += fork.plan_cache_stats.hits;
        plans.stats.misses += fork.plan_cache_stats.misses;
        for (key, plan) in fork.plan_cache.drain() {
            if plan.version != current {
                continue;
            }
            if !plans.cache.contains_key(&key) && plans.cache.len() >= PLAN_CACHE_CAP {
                plans.cache.retain(|_, p| p.version == current);
                if plans.cache.len() >= PLAN_CACHE_CAP {
                    plans.cache.clear();
                }
            }
            plans.cache.insert(key, plan);
        }
        out
    }

    /// Executes one statement on `engine` with the shared auditor
    /// observing the run-phase trace — the same window the engine-level
    /// auditor would use. `catalog` carries the fork-time table-size
    /// list for fork runs (forks hold a filtered catalog; shapes must
    /// key on the full one); master runs recompute it post-run, exactly
    /// as the engine's internal audit does. When the caller asked for
    /// the trace itself (`traced`), the trace channel is busy and the
    /// audit counts a skip, mirroring engine semantics.
    fn run_audited(
        &self,
        engine: &mut Database<SessionMemory<M>>,
        catalog: Option<&[(String, u64, u64)]>,
        sql_text: &str,
        traced: bool,
    ) -> (Result<QueryOutput, DbError>, Option<Trace>) {
        if traced {
            if self.inner.audit {
                lock(&self.inner.auditor).skip();
            }
            engine.host.start_trace();
            let result = engine.execute(sql_text);
            let trace = engine.host.take_trace();
            return (result, Some(trace));
        }
        if !self.inner.audit {
            return (engine.execute(sql_text), None);
        }
        let (result, trace) = engine.execute_with_run_trace(sql_text);
        if let Ok(out) = &result {
            let shape = match catalog {
                Some(tables) => statement_shape(sql_text, tables, out.plan.output_rows),
                None => statement_shape(sql_text, &engine.public_sizes(), out.plan.output_rows),
            };
            let randomized = engine.position_randomized_regions();
            lock(&self.inner.auditor).observe(&shape, &trace, &randomized);
        }
        (result, None)
    }
}

impl<M: EnclaveMemory + Send> Session<M> {
    /// Parses and executes one SQL statement through the shared engine.
    /// Routing (snapshot fork vs. exclusive master) is internal; results
    /// and errors are exactly what a single-owner [`Database`] returns.
    pub fn execute(&mut self, sql_text: &str) -> Result<QueryOutput, DbError> {
        self.stats.statements += 1;
        let (result, _) = self.db.route(sql_text, false);
        if result.is_err() {
            self.stats.errors += 1;
            self.db.inner.statement_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// [`Session::execute`] plus the statement's access trace (prepare
    /// and run, session-local) — the conformance-test surface. While the
    /// trace channel is borrowed the shared auditor counts a skip, same
    /// as the engine-level auditor would.
    pub fn execute_traced(&mut self, sql_text: &str) -> (Result<QueryOutput, DbError>, Trace) {
        self.stats.statements += 1;
        let (result, trace) = self.db.route(sql_text, true);
        if result.is_err() {
            self.stats.errors += 1;
            self.db.inner.statement_errors.fetch_add(1, Ordering::Relaxed);
        }
        (result, trace.unwrap_or(Trace(Vec::new())))
    }

    /// This session's statement counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The shared handle this session runs over.
    pub fn database(&self) -> &SharedDatabase<M> {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::trace_hash;
    use crate::types::Value;
    use oblidb_enclave::Host;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_database_is_send_and_sync() {
        assert_send_sync::<SharedDatabase<Host>>();
        fn assert_send<T: Send>() {}
        assert_send::<Session<Host>>();
    }

    fn seed_statements() -> Vec<String> {
        let mut stmts =
            vec!["CREATE TABLE t (id INT, v INT) STORAGE = FLAT CAPACITY 64".to_string()];
        for i in 0..12 {
            stmts.push(format!("INSERT INTO t VALUES ({i}, {})", i * 10));
        }
        stmts
    }

    /// Any serial schedule through sessions must match the single-owner
    /// engine statement-for-statement: same rows, same traced run.
    #[test]
    fn serial_sessions_match_single_owner_results_and_traces() {
        let config = DbConfig::default();
        let mut solo = Database::with_memory(Host::new(), config.clone());
        let shared = SharedDatabase::new(Host::new(), config).unwrap();
        let mut session = shared.session();
        for stmt in seed_statements() {
            let a = solo.execute(&stmt).unwrap();
            let b = session.execute(&stmt).unwrap();
            assert_eq!(a.rows_affected, b.rows_affected, "{stmt}");
        }
        for sql_text in [
            "SELECT id, v FROM t WHERE id < 5",
            "SELECT id, v FROM t WHERE v > 60",
            "SELECT COUNT(*) FROM t",
        ] {
            solo.host_mut().start_trace();
            let a = solo.execute(sql_text).unwrap();
            let solo_trace = solo.host_mut().take_trace();
            let (b, session_trace) = session.execute_traced(sql_text);
            let b = b.unwrap();
            assert_eq!(a.rows(), b.rows(), "{sql_text}");
            assert_eq!(a.schema, b.schema, "{sql_text}");
            assert_eq!(
                trace_hash(&solo_trace, &[]),
                trace_hash(&session_trace, &[]),
                "canonical trace diverged for {sql_text}"
            );
        }
    }

    /// A session's read forks a snapshot that reflects every write that
    /// completed before it — including another session's.
    #[test]
    fn reads_see_writes_from_other_sessions() {
        let shared = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
        let mut a = shared.session();
        let mut b = shared.session();
        for stmt in seed_statements() {
            a.execute(&stmt).unwrap();
        }
        b.execute("INSERT INTO t VALUES (100, 1000)").unwrap();
        let rows = a.execute("SELECT v FROM t WHERE id = 100").unwrap();
        assert_eq!(rows.rows(), &[vec![Value::Int(1000)]]);
        assert_eq!(a.stats().statements, seed_statements().len() as u64 + 1);
        assert_eq!(b.stats().id, 2);
    }

    /// Selects over index-backed tables take the exclusive path (ORAM
    /// reads mutate position maps) but still answer correctly.
    #[test]
    fn indexed_tables_route_exclusive() {
        let shared = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
        let mut s = shared.session();
        s.execute("CREATE TABLE ix (id INT, v INT) STORAGE = INDEXED INDEX ON id CAPACITY 64")
            .unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO ix VALUES ({i}, {})", i * 2)).unwrap();
        }
        let before = shared.inner.exclusive_statements.load(Ordering::Relaxed);
        let out = s.execute("SELECT v FROM ix WHERE id = 3").unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(6)]]);
        assert_eq!(
            shared.inner.exclusive_statements.load(Ordering::Relaxed),
            before + 1,
            "indexed select must not fork"
        );
        assert_eq!(shared.inner.snapshot_reads.load(Ordering::Relaxed), 0);
    }

    /// One session's compiled plan is a cache hit for every other
    /// session, and fork counters fold back without loss.
    #[test]
    fn plan_cache_is_shared_across_sessions() {
        let shared = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
        let mut a = shared.session();
        for stmt in seed_statements() {
            a.execute(&stmt).unwrap();
        }
        let sql_text = "SELECT v FROM t WHERE id = 1";
        a.execute(sql_text).unwrap();
        let after_first = shared.plan_cache_stats();
        let mut b = shared.session();
        b.execute(sql_text).unwrap();
        let after_second = shared.plan_cache_stats();
        assert_eq!(after_second.hits, after_first.hits + 1, "second session should hit");
        assert_eq!(after_second.misses, after_first.misses);
        // A write invalidates by version: next select re-plans. Two new
        // misses — the INSERT itself (mutations always compile) and the
        // re-planned select.
        a.execute("INSERT INTO t VALUES (200, 2000)").unwrap();
        b.execute(sql_text).unwrap();
        assert_eq!(shared.plan_cache_stats().misses, after_second.misses + 2);
        assert_eq!(shared.plan_cache_stats().hits, after_second.hits);
    }

    /// Concurrent sessions hammering reads and writes converge to the
    /// serial-equivalent row count, and the shared auditor stays silent.
    #[test]
    fn concurrent_sessions_converge_and_audit_stays_silent() {
        let config = DbConfig { audit: true, ..DbConfig::default() };
        let shared = SharedDatabase::new(Host::new(), config).unwrap();
        let mut setup = shared.session();
        setup.execute("CREATE TABLE t (id INT, v INT) STORAGE = FLAT CAPACITY 256").unwrap();
        for i in 0..8 {
            setup.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 6;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let mut session = shared.session();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let id = 1000 + w * PER_WRITER + i;
                        session.execute(&format!("INSERT INTO t VALUES ({id}, {id})")).unwrap();
                        let out = session.execute("SELECT COUNT(*) FROM t").unwrap();
                        assert_eq!(out.rows().len(), 1);
                    }
                });
            }
        });
        let out = shared.session().execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int((8 + WRITERS * PER_WRITER) as i64)]]);
        let report = shared.audit_report();
        assert_eq!(report.violations, 0, "{:?}", shared.audit_violations());
        assert!(report.shapes > 0, "audit should have observed statement shapes");
        let snap = shared.metrics_snapshot();
        let text = snap.to_text();
        assert!(text.contains("db_sessions"), "serving counters missing:\n{text}");
    }

    /// Admin access serializes with statements and can run engine-level
    /// maintenance like checkpointing.
    #[test]
    fn admin_gives_exclusive_master_access() {
        let shared = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
        let mut s = shared.session();
        for stmt in seed_statements() {
            s.execute(&stmt).unwrap();
        }
        let version = shared.admin(|db| {
            db.execute("INSERT INTO t VALUES (300, 3000)").unwrap();
            db.version
        });
        assert!(version > 0);
        let out = s.execute("SELECT v FROM t WHERE id = 300").unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(3000)]]);
    }
}
