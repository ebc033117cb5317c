//! Epoch-based transactions over a shared ObliDB engine.
//!
//! ObliDB's paper leaves transactions out of scope; Obladi (OSDI 2018)
//! showed how to put ACID transactions *on top* of oblivious storage
//! without new leakage: buffer each transaction's writes outside the
//! oblivious store, commit in fixed **epochs**, and pay one durability
//! flush per epoch instead of per statement. This crate is that layer
//! for ObliDB:
//!
//! * [`TxnSession`] wraps a [`Session`] with `BEGIN` / `COMMIT` /
//!   `ROLLBACK`. Mutations inside a transaction are buffered client-side
//!   (inside the enclave, never visible to the host) and applied at
//!   `COMMIT` through [`Session::execute_atomic`] — one hold of
//!   the engine lock, so other sessions observe the transaction
//!   all-or-nothing. `ROLLBACK` (or dropping the session
//!   mid-transaction) discards the buffer; nothing to undo, because
//!   nothing ran.
//! * [`TxnManager`] owns the **epoch scheduler**: with
//!   [`EpochConfig`] the engine pools every committed statement's WAL
//!   record into an open epoch ([`oblidb_core::wal`] record kinds), and
//!   the manager closes the epoch — one commit marker, one group
//!   `sync_region` fsync — when the window elapses or enough statements
//!   pool. Recovery replays whole epochs or none, so a crash lands
//!   exactly on an epoch boundary.
//! * [`EpochFlusher`] is the background ticker that closes epochs on
//!   time even when no new statement arrives.
//!
//! Leakage: buffering adds *nothing* for the adversary — a transaction's
//! statements execute back-to-back at commit with the same per-statement
//! traces a serial schedule produces (the conformance suite asserts
//! trace equality against serial execution). The epoch scheduler only
//! *removes* observable events (fewer fsyncs); epoch boundaries reveal
//! commit timing, which per-statement fsyncs revealed more of.
//!
//! Isolation: reads inside an open transaction run against the shared
//! committed state and do **not** see the transaction's own buffered
//! writes (no read-your-writes); the write set becomes visible to
//! everyone atomically at commit. This is the Obladi client model —
//! transactions are write-buffered, not workspace-isolated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oblidb_core::sql::{self, Parsed, Statement};
use oblidb_core::{DbError, EpochConfig, QueryOutput, Session, SessionStats, SharedDatabase};
use oblidb_enclave::EnclaveMemory;

/// What one [`TxnSession::execute`] call did.
#[derive(Debug)]
pub enum TxnOutcome {
    /// The statement ran (autocommit, or a read inside a transaction);
    /// here is its result.
    Statement(QueryOutput),
    /// A transaction is open and the mutation was buffered; it runs at
    /// `COMMIT`.
    Buffered,
    /// `BEGIN` opened a transaction.
    Begun,
    /// `COMMIT` applied the buffer atomically.
    Committed {
        /// Statements the transaction applied.
        statements: u64,
    },
    /// `ROLLBACK` discarded the buffer.
    RolledBack {
        /// Statements the transaction discarded.
        statements: u64,
    },
}

struct EpochState {
    /// When the current epoch window opened.
    opened_at: Instant,
    /// Statements applied into the open epoch since the last flush.
    pending: u64,
}

struct Inner<M: EnclaveMemory + Send> {
    db: SharedDatabase<M>,
    epoch: Option<EpochConfig>,
    state: Mutex<EpochState>,
}

/// The epoch scheduler: owns when group commits happen. Cloneable and
/// `Send + Sync`; mint per-connection [`TxnSession`]s with
/// [`TxnManager::session`].
pub struct TxnManager<M: EnclaveMemory + Send = oblidb_enclave::Host> {
    inner: Arc<Inner<M>>,
}

impl<M: EnclaveMemory + Send> Clone for TxnManager<M> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<M: EnclaveMemory + Send> TxnManager<M> {
    /// Wraps a shared engine. `epoch: Some` must match the engine's
    /// [`oblidb_core::DbConfig::epoch`] — the engine pools WAL records,
    /// this manager closes them; `None` leaves per-statement durability
    /// untouched and the manager degenerates to a plain session factory.
    pub fn new(db: SharedDatabase<M>, epoch: Option<EpochConfig>) -> Self {
        TxnManager {
            inner: Arc::new(Inner {
                db,
                epoch,
                state: Mutex::new(EpochState { opened_at: Instant::now(), pending: 0 }),
            }),
        }
    }

    /// The shared engine underneath.
    pub fn db(&self) -> &SharedDatabase<M> {
        &self.inner.db
    }

    /// The epoch configuration this manager schedules under.
    pub fn epoch(&self) -> Option<EpochConfig> {
        self.inner.epoch
    }

    /// Mints a transaction-capable session.
    pub fn session(&self) -> TxnSession<M> {
        TxnSession { session: self.inner.db.session(), manager: self.clone(), buffer: None }
    }

    /// Closes the open epoch now: one commit marker, one group fsync.
    /// Returns how many statements it sealed. Callers hand the store off
    /// (shutdown, checkpoint) through this so the log never ends
    /// mid-epoch.
    pub fn flush(&self) -> Result<u64, DbError> {
        {
            let mut state = self.lock_state();
            state.pending = 0;
            state.opened_at = Instant::now();
        }
        // The state lock is released before taking the engine lock
        // (admin): the two are never held together.
        // A racing flush is harmless — commit_epoch no-ops on a boundary.
        self.inner.db.admin(|engine| engine.commit_epoch())
    }

    /// Notes that `applied` statements just committed into the open
    /// epoch, and closes it early when the statement cap is hit. Called
    /// by sessions after every applied mutation.
    fn note_applied(&self, applied: u64) -> Result<u64, DbError> {
        let Some(cfg) = self.inner.epoch else { return Ok(0) };
        let due = {
            let mut state = self.lock_state();
            state.pending += applied;
            state.pending >= cfg.max_statements as u64
        };
        if due {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Closes the open epoch if its time window has elapsed (and it has
    /// anything pending). The background [`EpochFlusher`] drives this.
    pub fn flush_if_due(&self) -> Result<u64, DbError> {
        let Some(cfg) = self.inner.epoch else { return Ok(0) };
        let due = {
            let state = self.lock_state();
            state.pending > 0
                && state.opened_at.elapsed() >= std::time::Duration::from_millis(cfg.duration_ms)
        };
        if due {
            self.flush()
        } else {
            Ok(0)
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, EpochState> {
        self.inner.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spawns the background epoch ticker: closes epochs on time even
    /// when no statement arrives to trip the cap. Stops (and joins) on
    /// drop of the returned handle.
    pub fn spawn_flusher(&self) -> EpochFlusher
    where
        M: 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let manager = self.clone();
        let tick =
            std::time::Duration::from_millis(self.inner.epoch.map_or(5, |e| e.duration_ms.max(1)));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("oblidb-epoch-flusher".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    // Store-level I/O errors resurface on the next
                    // statement; the ticker itself has nowhere to report.
                    let _ = manager.flush_if_due();
                }
            })
            .expect("spawn epoch flusher");
        EpochFlusher { stop, handle: Some(handle) }
    }
}

/// Background epoch ticker handle — stops and joins its thread on drop.
pub struct EpochFlusher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for EpochFlusher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A transaction-capable session: understands `BEGIN` / `COMMIT` /
/// `ROLLBACK` (and their wire-protocol verbs) on top of everything a
/// plain [`Session`] executes.
pub struct TxnSession<M: EnclaveMemory + Send = oblidb_enclave::Host> {
    session: Session<M>,
    manager: TxnManager<M>,
    /// `Some` while a transaction is open: the buffered mutation
    /// statements, parsed once on arrival, in arrival order.
    buffer: Option<Vec<Parsed>>,
}

impl<M: EnclaveMemory + Send> TxnSession<M> {
    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.buffer.is_some()
    }

    /// This session's statement counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// The shared engine underneath (for metrics snapshots).
    pub fn database(&self) -> &SharedDatabase<M> {
        self.manager.db()
    }

    /// Opens a transaction. Statements until `COMMIT` / `ROLLBACK`
    /// buffer client-side; reads keep executing against shared state.
    /// A nested `BEGIN` is rejected and counted as a session error.
    pub fn begin(&mut self) -> Result<TxnOutcome, DbError> {
        if self.buffer.is_some() {
            return self.session.account(
                0,
                Err(DbError::Unsupported("BEGIN inside an open transaction (no nesting)".into())),
            );
        }
        self.buffer = Some(Vec::new());
        Ok(TxnOutcome::Begun)
    }

    /// Applies the open transaction's buffer atomically. On a rejected
    /// batch (validation or execution error) the transaction aborts:
    /// the buffer is discarded and the error returned — deterministic,
    /// because validation runs before the first statement executes.
    /// A `COMMIT` with no open transaction is counted as a session error.
    pub fn commit(&mut self) -> Result<TxnOutcome, DbError> {
        let Some(statements) = self.buffer.take() else {
            return self.session.account(
                0,
                Err(DbError::Unsupported("COMMIT without an open transaction".into())),
            );
        };
        let n = statements.len() as u64;
        if statements.is_empty() {
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::TxnCommits, 1);
            return Ok(TxnOutcome::Committed { statements: 0 });
        }
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::TxnCommit);
        match self.session.execute_atomic(statements) {
            Ok(_) => {
                oblidb_telemetry::counter_add(oblidb_telemetry::Counter::TxnCommits, 1);
                self.manager.note_applied(n)?;
                Ok(TxnOutcome::Committed { statements: n })
            }
            Err(e) => {
                oblidb_telemetry::counter_add(oblidb_telemetry::Counter::TxnAborts, 1);
                Err(e)
            }
        }
    }

    /// Discards the open transaction's buffer. A `ROLLBACK` with no open
    /// transaction is counted as a session error.
    pub fn rollback(&mut self) -> Result<TxnOutcome, DbError> {
        let Some(statements) = self.buffer.take() else {
            return self.session.account(
                0,
                Err(DbError::Unsupported("ROLLBACK without an open transaction".into())),
            );
        };
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::TxnAborts, 1);
        Ok(TxnOutcome::RolledBack { statements: statements.len() as u64 })
    }

    /// Executes one SQL statement with transaction semantics:
    ///
    /// * `BEGIN` / `COMMIT` / `ROLLBACK` control the buffer;
    /// * inside a transaction, mutations buffer ([`TxnOutcome::Buffered`])
    ///   and reads run against shared committed state;
    /// * outside one, everything autocommits exactly like
    ///   [`Session::execute`] — and, under an epoch scheduler, joins the
    ///   open epoch's group fsync.
    ///
    /// The statement is parsed once, here; an unparsable one is counted as
    /// a session error.
    pub fn execute(&mut self, sql_text: &str) -> Result<TxnOutcome, DbError> {
        let parsed = match sql::parse(sql_text) {
            Ok(parsed) => parsed,
            Err(e) => return self.session.account(1, Err(e)),
        };
        let mutation = matches!(
            parsed.statement(),
            Statement::Create(_)
                | Statement::Insert(_)
                | Statement::Update(_)
                | Statement::Delete(_)
        );
        match (parsed.statement(), &mut self.buffer) {
            (Statement::Begin, _) => self.begin(),
            (Statement::Commit, _) => self.commit(),
            (Statement::Rollback, _) => self.rollback(),
            (_, Some(buffer)) if mutation => {
                buffer.push(parsed);
                Ok(TxnOutcome::Buffered)
            }
            _ => {
                let out = self.session.execute_parsed(parsed)?;
                if mutation {
                    self.manager.note_applied(1)?;
                }
                Ok(TxnOutcome::Statement(out))
            }
        }
    }
}

impl<M: EnclaveMemory + Send> Drop for TxnSession<M> {
    fn drop(&mut self) {
        // A connection dying mid-transaction aborts it — the buffer
        // simply evaporates; nothing ran, nothing to undo.
        if self.buffer.take().is_some_and(|b| !b.is_empty()) {
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::TxnAborts, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::{DbConfig, Value, WalConfig};
    use oblidb_enclave::Host;

    fn manager(epoch: Option<EpochConfig>) -> TxnManager {
        let config = DbConfig { wal: Some(WalConfig), epoch, ..DbConfig::default() };
        TxnManager::new(SharedDatabase::new(Host::new(), config).unwrap(), epoch)
    }

    fn rows(out: &TxnOutcome) -> Vec<Vec<Value>> {
        match out {
            TxnOutcome::Statement(q) => q.rows().to_vec(),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn commit_applies_buffer_atomically() {
        let mgr = manager(None);
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        assert!(matches!(s.execute("BEGIN").unwrap(), TxnOutcome::Begun));
        assert!(matches!(s.execute("INSERT INTO t VALUES (1, 10)").unwrap(), TxnOutcome::Buffered));
        assert!(matches!(s.execute("INSERT INTO t VALUES (2, 20)").unwrap(), TxnOutcome::Buffered));
        // Buffered writes are invisible before commit (no read-your-writes).
        assert!(rows(&s.execute("SELECT * FROM t").unwrap()).is_empty());
        assert!(matches!(s.execute("COMMIT").unwrap(), TxnOutcome::Committed { statements: 2 }));
        assert_eq!(rows(&s.execute("SELECT * FROM t").unwrap()).len(), 2);
    }

    #[test]
    fn rollback_discards_buffer() {
        let mgr = manager(None);
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(matches!(s.execute("ROLLBACK").unwrap(), TxnOutcome::RolledBack { statements: 1 }));
        assert!(rows(&s.execute("SELECT * FROM t").unwrap()).is_empty());
        assert!(!s.in_txn());
    }

    #[test]
    fn failed_commit_aborts_cleanly() {
        let mgr = manager(None);
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        // Type mismatches: validation rejects the whole batch before the
        // first insert runs.
        for bad in ["INSERT INTO t VALUES ('nope')", "UPDATE t SET id = 'nope'"] {
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
            s.execute(bad).unwrap();
            assert!(s.execute("COMMIT").is_err(), "{bad}");
            assert!(!s.in_txn(), "a failed commit ends the transaction");
            assert!(rows(&s.execute("SELECT * FROM t").unwrap()).is_empty(), "{bad}");
        }
        // A malformed statement and the rejected COMMITs are all session
        // errors, and all reach the shared counter the metrics verb reads.
        assert!(s.execute("SELEC nope").is_err());
        assert_eq!(s.stats().errors, 3);
        let metrics = s.database().metrics_snapshot().to_text();
        assert!(metrics.contains("db_statement_errors 3\n"), "{metrics}");
    }

    #[test]
    fn txn_control_outside_txn_rejected() {
        let mgr = manager(None);
        let mut s = mgr.session();
        assert!(s.execute("COMMIT").is_err());
        assert!(s.execute("ROLLBACK").is_err());
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err(), "no nested transactions");
        // All three rejections are session errors the metrics verb sees;
        // the successful BEGIN counts nothing.
        assert_eq!(s.stats().errors, 3);
        let metrics = s.database().metrics_snapshot().to_text();
        assert!(metrics.contains("db_statement_errors 3\n"), "{metrics}");
    }

    /// Each statement is parsed once, at its entry point, whichever path
    /// it takes: buffered then committed, autocommitted, read, rejected,
    /// or re-run as a stale prepared statement. The count is per thread,
    /// so parallel tests do not disturb it.
    #[test]
    fn every_statement_is_parsed_once() {
        let mgr = manager(None);
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        let parses = sql::parses_on_this_thread;

        let before = parses();
        s.execute("BEGIN").unwrap();
        for i in 0..3 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        s.execute("COMMIT").unwrap();
        assert_eq!(parses() - before, 5, "BEGIN, three INSERTs, COMMIT");

        let before = parses();
        s.execute("INSERT INTO t VALUES (3, 3)").unwrap();
        assert_eq!(rows(&s.execute("SELECT * FROM t").unwrap()).len(), 4);
        assert_eq!(parses() - before, 2, "autocommit INSERT and a SELECT");

        let (before, errors) = (parses(), s.stats().errors);
        assert!(s.execute("SELEC nope").is_err());
        assert_eq!(parses() - before, 1, "a malformed statement");
        assert_eq!(s.stats().errors, errors + 1);

        let before = parses();
        mgr.db().admin(|db| {
            let mut delete = db.prepare("DELETE FROM t WHERE id = 3").unwrap();
            assert_eq!(delete.run().unwrap().rows_affected, Some(1));
            // The DELETE bumped the catalog version: this run re-plans.
            assert_eq!(delete.run().unwrap().rows_affected, Some(0));
        });
        assert_eq!(parses() - before, 1, "a stale prepared statement re-plans without reparsing");
    }

    #[test]
    fn epoch_cap_triggers_group_flush() {
        let cfg = EpochConfig { duration_ms: 60_000, max_statements: 4 };
        let mgr = manager(Some(cfg));
        let mut s = mgr.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..3 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        // CREATE + 3 inserts crossed the 4-statement cap, so the epoch
        // closed at least once; whatever remains flushes on demand.
        mgr.flush().unwrap();
        assert_eq!(mgr.db().admin(|e| e.epoch_pending()), 0);
        // Every applied statement survives in the committed log.
        let records = mgr.db().admin(|e| e.wal_records()).unwrap();
        assert_eq!(records.len(), 4);
    }
}
