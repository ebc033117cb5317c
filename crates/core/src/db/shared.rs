//! Concurrent sessions over one store: [`SharedDatabase`] and [`Session`].
//!
//! One ObliDB engine owns its substrate exclusively — `&mut self`
//! everywhere. A server needs many connections over the *same* sealed
//! store. This module puts the unchanged single-owner engine — the
//! resident *master* — behind one mutex and runs every statement of every
//! session on it, one at a time:
//!
//! * **One engine, serial statements.** Reads, writes, DDL and atomic
//!   batches all lock the master and call [`Database::execute`], exactly
//!   as a single-owner caller would. Any schedule of sessions is therefore
//!   a serial schedule: results, sealed bytes, and access traces are
//!   bit-identical to replaying the same statements, in lock order, on
//!   one `Database` — there is no second execution path to diverge.
//! * **Leakage is unchanged.** The adversary already sees every block
//!   access; concurrency adds interleaving, not new event kinds. The
//!   master's own [`TraceAuditor`](crate::audit::TraceAuditor)
//!   (`DbConfig::audit`) observes every session's statements, so a shape
//!   first seen under one session is checked against reruns under any
//!   other; [`Session::execute_traced`] borrows the trace channel and is
//!   counted as a skip, as it is on the engine.
//!
//! Isolation level: serial. Every statement runs alone and observes every
//! statement that finished before it took the lock. Multi-statement
//! transactions layer on top (`oblidb::txn`): they buffer their writes
//! client-side and apply them through [`Session::execute_atomic`],
//! one lock hold for the whole batch, so other sessions see a
//! transaction's effects all-or-nothing.
//!
//! Stall pricing: configure crossing stalls on the [`SharedMemory`]
//! handle (see [`SharedDatabase::store`]), not on the inner substrate.
//! Stalls are paid outside the store lock but inside the engine lock, so
//! one session's stalls no longer overlap another's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use oblidb_enclave::{EnclaveMemory, SessionMemory, SharedMemory, Trace};

use crate::audit::{AuditReport, AuditViolation};
use crate::error::DbError;

use super::{Database, DbConfig, PlanCacheStats, QueryOutput};

/// Locks a mutex, recovering the guard if a holder panicked — the
/// protected state is the master engine, which stays structurally valid
/// across an unwound statement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Inner<M: EnclaveMemory + Send> {
    /// The resident engine every statement runs on.
    master: Mutex<Database<SessionMemory<M>>>,
    /// The shared substrate handle the master's store handle came from.
    store: SharedMemory<M>,
    session_seq: AtomicU64,
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
            .field("statement_errors", &self.inner.statement_errors.load(Ordering::Relaxed))
            .finish()
    }
}

/// Per-session statement counters, folded into
/// [`SharedDatabase::metrics_snapshot`] server-side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// This session's id (1-based mint order).
    pub id: u64,
    /// Statements this session submitted (an atomic batch counts each of
    /// its statements).
    pub statements: u64,
    /// Statements (or atomic batches) that returned an error.
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
    /// auditor history and all — for concurrent serving. The engine
    /// becomes the resident *master* behind the engine lock, and its
    /// substrate is rehomed into a [`SharedMemory`] so store-level stats
    /// and crossing pricing can be reached without that lock.
    pub fn adopt(db: Database<M>) -> Self {
        let Database {
            host,
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
            auditor,
        } = db;
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
            auditor,
        };
        Self {
            inner: Arc::new(Inner {
                master: Mutex::new(master),
                store,
                session_seq: AtomicU64::new(0),
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
    /// config surgery. Takes the engine lock every statement takes, so it
    /// serializes with all of them.
    pub fn admin<R>(&self, f: impl FnOnce(&mut Database<SessionMemory<M>>) -> R) -> R {
        f(&mut lock(&self.inner.master))
    }

    /// The master engine's plan-cache counters (every session plans
    /// through its one cache).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        lock(&self.inner.master).plan_cache_stats()
    }

    /// Aggregate counters from the master's trace auditor (all
    /// sessions). Empty unless the adopted config had audit on.
    pub fn audit_report(&self) -> AuditReport {
        lock(&self.inner.master).audit_report()
    }

    /// Trace-audit divergences recorded so far, across all sessions.
    pub fn audit_violations(&self) -> Vec<AuditViolation> {
        lock(&self.inner.master).audit_violations().to_vec()
    }

    /// One merged telemetry snapshot for the whole shared engine: the
    /// process-wide registry, store-level substrate traffic (every
    /// session's accounted accesses plus aggregated session stalls),
    /// plan-cache counters, audit counters, and the serving-level
    /// statement counters.
    ///
    /// The engine counters wait for the statement in flight; the others
    /// do not, so values read while statements are running may straddle
    /// a statement (e.g. a `db_statement_errors` bump visible before the
    /// corresponding `host_reads` traffic). Quiesce sessions first when
    /// exact cross-counter consistency matters.
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
        let (plans, audit) = self.admin(|m| (m.plan_cache_stats(), m.audit_report()));
        snap.push_counter("db_plan_cache_hits", plans.hits);
        snap.push_counter("db_plan_cache_misses", plans.misses);
        snap.push_counter("db_audit_shapes", audit.shapes as u64);
        snap.push_counter("db_audit_violations", audit.violations as u64);
        snap.push_counter("db_sessions", self.inner.session_seq.load(Ordering::Relaxed));
        snap.push_counter(
            "db_statement_errors",
            self.inner.statement_errors.load(Ordering::Relaxed),
        );
        snap
    }
}

impl<M: EnclaveMemory + Send> Session<M> {
    /// Parses and executes one SQL statement on the shared engine; results
    /// and errors are exactly what a single-owner [`Database`] returns.
    pub fn execute(&mut self, sql_text: &str) -> Result<QueryOutput, DbError> {
        let result = self.db.admin(|master| master.execute(sql_text));
        self.account(1, result)
    }

    /// [`Session::execute`] plus the statement's access trace (prepare
    /// and run) — the conformance-test surface. While the trace channel
    /// is borrowed the engine's auditor counts a skip.
    pub fn execute_traced(&mut self, sql_text: &str) -> (Result<QueryOutput, DbError>, Trace) {
        let (result, trace) = self.db.admin(|master| {
            master.start_trace();
            let result = master.execute(sql_text);
            (result, master.take_trace())
        });
        (self.account(1, result), trace)
    }

    /// Executes a statement batch atomically: all of it becomes visible
    /// under one engine-lock hold, or none of it runs. The batch is
    /// dry-run validated first (parse, table/column resolution, value
    /// typing, WAL record size — see `Database::validate_batch`), so the
    /// only failures past the first executed statement are substrate I/O
    /// errors. This is the commit path of `oblidb::txn` transactions;
    /// under an epoch scheduler the whole batch lands inside one WAL epoch
    /// and shares its group fsync. Counted against this session: every
    /// statement of the batch, and one error if it is rejected.
    pub fn execute_atomic(&mut self, statements: &[String]) -> Result<Vec<QueryOutput>, DbError> {
        let result = self.db.admin(|master| {
            master.validate_batch(statements)?;
            statements.iter().map(|stmt| master.execute(stmt)).collect()
        });
        self.account(statements.len() as u64, result)
    }

    /// The one place this session's counters move: adds `statements` to
    /// the submitted count and, if `result` is an error, counts one error
    /// here and in the shared `db_statement_errors`. Front-ends that reject
    /// a request before it reaches the engine (e.g. a `COMMIT` with no
    /// open transaction) pass their result through here so it is counted
    /// like any other failed statement.
    pub fn account<T>(
        &mut self,
        statements: u64,
        result: Result<T, DbError>,
    ) -> Result<T, DbError> {
        self.stats.statements += statements;
        if result.is_err() {
            self.stats.errors += 1;
            self.db.inner.statement_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
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

    /// A session's read observes every write that completed before it —
    /// including another session's.
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

    /// Selects over index-backed tables (ORAM reads mutate position maps)
    /// answer through sessions like any other statement.
    #[test]
    fn indexed_selects_answer_through_sessions() {
        let shared = SharedDatabase::new(Host::new(), DbConfig::default()).unwrap();
        let mut s = shared.session();
        s.execute("CREATE TABLE ix (id INT, v INT) STORAGE = INDEXED INDEX ON id CAPACITY 64")
            .unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO ix VALUES ({i}, {})", i * 2)).unwrap();
        }
        let out = s.execute("SELECT v FROM ix WHERE id = 3").unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(6)]]);
    }

    /// One session's compiled plan is a cache hit for every other
    /// session: they all plan through the master's one cache.
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
    /// serial-equivalent row count, and the master's auditor stays silent.
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
