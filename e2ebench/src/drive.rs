//! Closed-loop clients at three depths of the same statement stream.
//!
//! Every load generator here is a closed loop: a client sends its next
//! operation only after the previous one was answered and checked. Where
//! a workload has two connections, each client runs its loop on its own
//! thread, so two statements can be in flight. The end-to-end run drives
//! [`WireExec`] (SQL over loopback TCP, the real entry point); the traced
//! run also replays the stream one and two layers further in
//! ([`SessionExec`], [`EngineExec`]) so that the differences give each
//! layer's own time.

use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Instant;

use oblidb_core::{EpochConfig, QueryOutput, Row, SharedDatabase};
use oblidb_server::{Connection, StatementResult};
use oblidb_txn::{TxnManager, TxnOutcome, TxnSession};

use crate::gen::{Digest, Expect, Op, OpStream, Verb};
use crate::workload::BenchStore;

/// Microseconds since the first call: the clock bench-side spans share.
pub fn bench_clock_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// What came back for an operation.
#[derive(Debug)]
pub enum Outcome {
    /// A result set.
    Rows(Vec<Row>),
    /// A mutation's (or committed transaction's) row count.
    Affected(u64),
}

impl From<QueryOutput> for Outcome {
    fn from(out: QueryOutput) -> Outcome {
        match out.rows_affected {
            Some(n) => Outcome::Affected(n),
            None => Outcome::Rows(out.rows().to_vec()),
        }
    }
}

/// Checks an outcome against what the generator expected.
pub fn check(expect: &Expect, outcome: &Outcome) -> Result<(), String> {
    match (expect, outcome) {
        (Expect::Rows(want), Outcome::Rows(rows)) => {
            let got = Digest::of(rows);
            if want.matches(&got) {
                Ok(())
            } else {
                Err(format!("wrong result: want {want:?}, got {got:?}"))
            }
        }
        (Expect::CountAtLeast(min), Outcome::Rows(rows)) => {
            match rows.first().and_then(|r| r.first()).and_then(|v| v.as_int()) {
                Some(n) if rows.len() == 1 && n >= *min => Ok(()),
                _ => Err(format!("wrong count: want one row with COUNT >= {min}, got {rows:?}")),
            }
        }
        (Expect::Affected(want), Outcome::Affected(got)) if want == got => Ok(()),
        (want, got) => Err(format!("wrong result kind: want {want:?}, got {got:?}")),
    }
}

/// One way of executing an operation.
pub trait Executor {
    /// Runs `verb` to completion and returns what it produced.
    fn run(&mut self, verb: &Verb) -> Result<Outcome, String>;
}

/// SQL over the wire protocol: `Connection::execute` against `serve`.
pub struct WireExec {
    conn: Connection,
}

impl WireExec {
    /// Connects a client to the server under test.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        Connection::connect(addr).map(|conn| WireExec { conn }).map_err(|e| format!("connect: {e}"))
    }

    fn statement(&mut self, sql: &str) -> Result<Outcome, String> {
        match self.conn.execute(sql).map_err(|e| e.to_string())? {
            StatementResult::Rows { rows, .. } => Ok(Outcome::Rows(rows)),
            StatementResult::RowsAffected(n) => Ok(Outcome::Affected(n)),
        }
    }
}

impl Executor for WireExec {
    fn run(&mut self, verb: &Verb) -> Result<Outcome, String> {
        match verb {
            Verb::Sql(sql) => self.statement(sql),
            Verb::Txn(stmts) => {
                self.conn.begin().map_err(|e| e.to_string())?;
                for sql in stmts {
                    self.statement(sql)?;
                }
                self.conn.commit().map(Outcome::Affected).map_err(|e| e.to_string())
            }
        }
    }
}

/// The in-process session the server would hand a connection:
/// `TxnSession::execute`, no socket.
pub struct SessionExec<M: BenchStore> {
    session: TxnSession<M>,
}

impl<M: BenchStore> SessionExec<M> {
    /// A session minted from `manager`.
    pub fn new(manager: &TxnManager<M>) -> Self {
        SessionExec { session: manager.session() }
    }

    fn statement(&mut self, sql: &str) -> Result<Option<Outcome>, String> {
        match self.session.execute(sql).map_err(|e| e.to_string())? {
            TxnOutcome::Statement(out) => Ok(Some(out.into())),
            TxnOutcome::Committed { statements } => Ok(Some(Outcome::Affected(statements))),
            TxnOutcome::Buffered | TxnOutcome::Begun | TxnOutcome::RolledBack { .. } => Ok(None),
        }
    }
}

impl<M: BenchStore> Executor for SessionExec<M> {
    fn run(&mut self, verb: &Verb) -> Result<Outcome, String> {
        let unexpected = || "session returned no result".to_string();
        match verb {
            Verb::Sql(sql) => self.statement(sql)?.ok_or_else(unexpected),
            Verb::Txn(stmts) => {
                self.session.begin().map_err(|e| e.to_string())?;
                for sql in stmts {
                    self.statement(sql)?;
                }
                match self.session.commit().map_err(|e| e.to_string())? {
                    TxnOutcome::Committed { statements } => Ok(Outcome::Affected(statements)),
                    _ => Err(unexpected()),
                }
            }
        }
    }
}

/// Time the owner engine spent in its two public phases.
#[derive(Debug, Clone, Default)]
pub struct EngineTimes {
    /// Nanoseconds in `Database::prepare`.
    pub prepare_ns: u64,
    /// Nanoseconds in `PreparedStatement::run`.
    pub run_ns: u64,
    /// Per operation, in order: nanoseconds preparing and running it.
    pub per_op: Vec<(u64, u64)>,
}

/// The owner engine itself: `Database::prepare` + `PreparedStatement::run`
/// on the resident master, under the admin latch.
pub struct EngineExec<M: BenchStore> {
    db: SharedDatabase<M>,
    epoch: Option<EpochConfig>,
    /// Time spent in each engine phase so far.
    pub times: EngineTimes,
}

impl<M: BenchStore> EngineExec<M> {
    /// An executor on `db`'s master engine. `epoch` is the schedule the
    /// transaction layer would apply; at this depth nothing else closes
    /// epochs, so the executor seals one whenever the statement cap is
    /// reached, keeping the group-commit regime the same at all depths.
    pub fn new(db: SharedDatabase<M>, epoch: Option<EpochConfig>) -> Self {
        EngineExec { db, epoch, times: EngineTimes::default() }
    }
}

impl<M: BenchStore> Executor for EngineExec<M> {
    fn run(&mut self, verb: &Verb) -> Result<Outcome, String> {
        let single;
        let stmts: &[String] = match verb {
            Verb::Sql(sql) => {
                single = [sql.clone()];
                &single
            }
            Verb::Txn(stmts) => stmts,
        };
        let (times, epoch) = (&mut self.times, self.epoch);
        self.db.admin(|engine| {
            let mut last = None;
            let (mut prepare_ns, mut run_ns) = (0, 0);
            for sql in stmts {
                let t0 = Instant::now();
                let mut prepared = engine.prepare(sql).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                let out = prepared.run().map_err(|e| e.to_string())?;
                prepare_ns += (t1 - t0).as_nanos() as u64;
                run_ns += t1.elapsed().as_nanos() as u64;
                last = Some(out);
            }
            times.prepare_ns += prepare_ns;
            times.run_ns += run_ns;
            times.per_op.push((prepare_ns, run_ns));
            if epoch.is_some_and(|e| engine.epoch_pending() >= e.max_statements as u64) {
                engine.commit_epoch().map_err(|e| e.to_string())?;
            }
            match (verb, last) {
                (Verb::Txn(stmts), Some(_)) => Ok(Outcome::Affected(stmts.len() as u64)),
                (Verb::Sql(_), Some(out)) => Ok(out.into()),
                (_, None) => Err("empty transaction".to_string()),
            }
        })
    }
}

/// Errors kept verbatim per client; the rest are only counted.
const KEPT_ERRORS: usize = 5;

/// One successful operation's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Statement class (index into the workload's class table).
    pub class: usize,
    /// Round trip in milliseconds.
    pub ms: f64,
    /// When it was sent, on [`bench_clock_us`].
    pub start_us: u64,
}

/// What one client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One sample per successful operation, in order. Failed operations
    /// are counted but contribute no sample.
    pub samples: Vec<Sample>,
    /// Result rows returned to this client.
    pub rows_returned: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// Wire-level statements acknowledged (a transaction is several).
    pub statements: u64,
    /// Net rows this client added to the table.
    pub rows_delta: i64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl ClientLog {
    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.rows_returned += other.rows_returned;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.statements += other.statements;
        self.rows_delta += other.rows_delta;
        self.errors.extend(other.errors);
        self.errors.truncate(KEPT_ERRORS);
    }

    fn fail(&mut self, op: &Op, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(format!("{:?}: {why}", op.verb));
        }
    }
}

/// Runs `stream`'s next operation through `exec`, timing its round trip
/// (result checking is outside the timed section).
fn step(exec: &mut dyn Executor, stream: &mut dyn OpStream, log: &mut ClientLog) {
    let op = stream.next_op();
    log.attempted += 1;
    let start_us = bench_clock_us();
    let started = Instant::now();
    let result = exec.run(&op.verb);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if let Ok(Outcome::Rows(rows)) = &result {
        log.rows_returned += rows.len() as u64;
    }
    match result.and_then(|outcome| check(&op.expect, &outcome)) {
        Ok(()) => {
            log.samples.push(Sample { class: op.class, ms, start_us });
            log.statements += op.verb.statements();
            log.rows_delta += op.rows_delta;
        }
        Err(why) => log.fail(&op, why),
    }
}

/// One client's closed loop: `ops` operations of `stream` through `exec`.
pub fn drive(exec: &mut dyn Executor, stream: &mut dyn OpStream, ops: usize) -> ClientLog {
    let mut log = ClientLog::default();
    for _ in 0..ops {
        step(exec, stream, &mut log);
    }
    log
}

/// Every client's closed loop on its own thread, `ops` operations each;
/// returns the merged log and the wall seconds from the first send to the
/// last reply.
pub fn drive_clients<E: Executor + Send>(
    execs: &mut [E],
    streams: &mut [Box<dyn OpStream>],
    ops: usize,
) -> (ClientLog, f64) {
    let started = Instant::now();
    let mut merged = ClientLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = execs
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(exec, stream)| scope.spawn(move || drive(exec, stream.as_mut(), ops)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(log) => merged.merge(log),
                Err(_) => {
                    merged.attempted += 1;
                    merged.failed += 1;
                    merged.errors.push("client thread panicked".to_string());
                }
            }
        }
    });
    (merged, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::Value;

    #[test]
    fn check_accepts_matching_and_rejects_everything_else() {
        let row: Row = vec![Value::Int(7)];
        let rows = Expect::Rows(Digest::of([&row]));
        assert!(check(&rows, &Outcome::Rows(vec![row.clone()])).is_ok());
        assert!(check(&rows, &Outcome::Rows(vec![])).is_err());
        assert!(check(&rows, &Outcome::Affected(1)).is_err());
        assert!(check(&Expect::Affected(3), &Outcome::Affected(3)).is_ok());
        assert!(check(&Expect::Affected(3), &Outcome::Affected(2)).is_err());
        assert!(check(&Expect::CountAtLeast(7), &Outcome::Rows(vec![row.clone()])).is_ok());
        assert!(check(&Expect::CountAtLeast(8), &Outcome::Rows(vec![row.clone()])).is_err());
        assert!(check(&Expect::CountAtLeast(1), &Outcome::Rows(vec![row.clone(), row])).is_err());
    }

    struct Scripted(Vec<Result<Outcome, String>>);
    impl Executor for Scripted {
        fn run(&mut self, _: &Verb) -> Result<Outcome, String> {
            self.0.remove(0)
        }
    }
    struct Inserts;
    impl OpStream for Inserts {
        fn next_op(&mut self) -> Op {
            Op {
                class: 0,
                verb: Verb::Sql("INSERT".into()),
                expect: Expect::Affected(1),
                rows_delta: 1,
            }
        }
    }

    #[test]
    fn errors_and_wrong_results_count_as_failures_without_samples() {
        let mut exec = Scripted(vec![
            Ok(Outcome::Affected(1)),
            Err("boom".into()),
            Ok(Outcome::Affected(2)),
            Ok(Outcome::Affected(1)),
        ]);
        let log = drive(&mut exec, &mut Inserts, 4);
        assert_eq!((log.attempted, log.failed, log.statements, log.rows_delta), (4, 2, 2, 2));
        assert_eq!(log.samples.len(), 2);
        assert_eq!(log.errors.len(), 2);
    }

    #[test]
    fn every_client_runs_its_own_count_and_the_logs_merge() {
        let script = |n| Scripted((0..n).map(|_| Ok(Outcome::Affected(1))).collect());
        let mut execs = [script(3), script(3)];
        let mut streams: Vec<Box<dyn OpStream>> = vec![Box::new(Inserts), Box::new(Inserts)];
        let (log, wall_s) = drive_clients(&mut execs, &mut streams, 3);
        assert_eq!((log.attempted, log.failed, log.rows_delta), (6, 0, 6));
        assert!(execs.iter().all(|e| e.0.is_empty()), "each client ran its three");
        assert!(wall_s > 0.0);
    }
}
