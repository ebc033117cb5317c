//! Session-per-connection TCP server over a [`SharedDatabase`].
//!
//! One accept thread owns the listener; each accepted connection becomes
//! a [`Session`](oblidb_core::Session) on its own scoped thread, admitted
//! through the session limiter (`slots.rs`), so concurrency is bounded at
//! the worker count and excess connections queue at submit time
//! (backpressure, not thread explosion). Each statement executes on its
//! session's thread; connections read, decode and encode concurrently,
//! while the core layer runs their statements one at a time on its one
//! engine. This layer only frames bytes and counts them.
//!
//! Shutdown is graceful and cooperative: a `Shutdown` frame (or
//! [`ServerHandle::shutdown`]) raises a flag; the accept loop stops
//! taking connections, every handler notices at its next read-timeout
//! tick, finishes its in-flight statement, and closes. The limiter's
//! scope then joins all handlers before the server thread returns its
//! stats.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oblidb_core::{EpochConfig, SharedDatabase};
use oblidb_enclave::EnclaveMemory;
use oblidb_telemetry::Counter;
use oblidb_txn::{TxnManager, TxnOutcome, TxnSession};

use crate::protocol::{read_request, write_response, ProtocolError, Request, Response};
use crate::slots::with_session_slots;

/// How long a handler blocks in `read` before re-checking the shutdown
/// flag. Bounds shutdown latency; costs one syscall per tick per idle
/// connection.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-handler worker count (session slots). Connections
    /// beyond this queue at accept time.
    pub workers: usize,
    /// Group-commit epoch schedule. `Some` must match the engine's
    /// [`oblidb_core::DbConfig::epoch`]; the server then runs a
    /// background [`oblidb_txn::EpochFlusher`] and seals the final epoch
    /// at shutdown. `None` serves with per-statement durability.
    pub epoch: Option<EpochConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_string(), workers: 4, epoch: None }
    }
}

/// Aggregate counters the server thread returns at shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Statements executed across all connections.
    pub statements: u64,
    /// Statements that returned an error frame.
    pub errors: u64,
    /// Request bytes read off the wire.
    pub bytes_in: u64,
    /// Response bytes written to the wire.
    pub bytes_out: u64,
}

struct Lifecycle {
    shutdown: AtomicBool,
    connections: AtomicU64,
    statements: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl Lifecycle {
    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            statements: self.statements.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A running server: its bound address and the handle to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    lifecycle: Arc<Lifecycle>,
    thread: Option<std::thread::JoinHandle<ServerStats>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag without waiting — in-flight sessions
    /// finish on their own time; [`ServerHandle::shutdown`] joins them.
    pub fn request_shutdown(&self) {
        self.lifecycle.shutdown.store(true, Ordering::Relaxed);
    }

    /// Stops the server gracefully and returns its lifetime stats:
    /// raises the flag, then joins the accept thread, which itself joins
    /// every connection handler.
    pub fn shutdown(mut self) -> ServerStats {
        self.request_shutdown();
        self.join()
    }

    /// Blocks until the server stops on its own — i.e. until a client's
    /// shutdown verb (or [`ServerHandle::request_shutdown`] from another
    /// thread) raises the flag. Returns the lifetime stats.
    pub fn wait(mut self) -> ServerStats {
        self.join()
    }

    fn join(&mut self) -> ServerStats {
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_else(|_| self.lifecycle.stats()),
            None => self.lifecycle.stats(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds and starts serving `db` in a background thread. Returns once
/// the listener is bound, so [`ServerHandle::addr`] is immediately
/// connectable.
pub fn serve<M>(db: SharedDatabase<M>, config: ServerConfig) -> io::Result<ServerHandle>
where
    M: EnclaveMemory + Send + 'static,
{
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let lifecycle = Arc::new(Lifecycle {
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        statements: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        bytes_in: AtomicU64::new(0),
        bytes_out: AtomicU64::new(0),
    });
    let workers = config.workers.max(1);
    let thread = {
        let lifecycle = Arc::clone(&lifecycle);
        std::thread::Builder::new().name("oblidb-accept".to_string()).spawn(move || {
            let manager = TxnManager::new(db, config.epoch);
            // The ticker closes epochs on time even when no statement
            // arrives to trip the cap; dropped (joined) before the final
            // flush below.
            let flusher = config.epoch.is_some().then(|| manager.spawn_flusher());
            with_session_slots(workers, |slots| {
                while !lifecycle.shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            lifecycle.connections.fetch_add(1, Ordering::Relaxed);
                            oblidb_telemetry::counter_add(Counter::ServerConnections, 1);
                            let session = manager.session();
                            let lifecycle = Arc::clone(&lifecycle);
                            // submit blocks when all worker slots are
                            // busy: natural backpressure. A handler
                            // panic must not tear down the scope (that
                            // would abort every other connection), so
                            // it is caught and the connection dropped.
                            slots.submit(move || {
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    handle_connection(stream, session, &lifecycle)
                                }));
                                if r.is_err() {
                                    lifecycle.errors.fetch_add(1, Ordering::Relaxed);
                                    oblidb_telemetry::counter_add(Counter::ServerErrors, 1);
                                }
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                }
            });
            // All handlers have joined: seal the open epoch so the WAL
            // never ends mid-epoch across a clean shutdown.
            drop(flusher);
            let _ = manager.flush();
            lifecycle.stats()
        })?
    };
    Ok(ServerHandle { addr, lifecycle, thread: Some(thread) })
}

/// A reader that converts read timeouts into shutdown checks: retries
/// `WouldBlock`/`TimedOut` until bytes arrive or the flag is raised, so
/// frame decoding never observes a timeout mid-frame (restarting a
/// frame would lose already-consumed header bytes).
struct PatientReader<'a, R> {
    inner: R,
    lifecycle: &'a Lifecycle,
}

impl<R: io::Read> io::Read for PatientReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.lifecycle.shutdown.load(Ordering::Relaxed) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

/// Maps a transaction outcome to its wire reply. Control verbs answer
/// with a rows-affected count: `0` for `BEGIN`/`ROLLBACK`/a buffered
/// mutation, the applied statement count for `COMMIT`.
fn outcome_response(outcome: &TxnOutcome) -> Response {
    match outcome {
        TxnOutcome::Statement(out) => Response::from_output(out),
        TxnOutcome::Committed { statements } => Response::RowsAffected(*statements),
        TxnOutcome::Buffered | TxnOutcome::Begun | TxnOutcome::RolledBack { .. } => {
            Response::RowsAffected(0)
        }
    }
}

/// Drives one connection: frame in, statement through the session,
/// frame out — until the peer closes, errors, or shutdown is raised.
/// A connection dying mid-transaction aborts it (the session's drop
/// discards the buffer).
fn handle_connection<M: EnclaveMemory + Send>(
    stream: TcpStream,
    mut session: TxnSession<M>,
    lifecycle: &Lifecycle,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let cloned = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = PatientReader { inner: io::BufReader::new(cloned), lifecycle };
    let mut writer = io::BufWriter::new(stream);
    loop {
        let (request, wire_in) = match read_request(&mut reader) {
            Ok(Some(frame)) => frame,
            // Peer closed between frames: a clean disconnect.
            Ok(None) => return,
            // Shutdown raised while waiting for the next frame.
            Err(ProtocolError::Io(e)) if e.kind() == io::ErrorKind::ConnectionAborted => return,
            // Malformed frame: answer if the stream still writes, then
            // drop the connection — resynchronizing is not possible.
            Err(e) => {
                lifecycle.errors.fetch_add(1, Ordering::Relaxed);
                oblidb_telemetry::counter_add(Counter::ServerErrors, 1);
                let _ = write_response(&mut writer, &Response::Error(e.to_string()));
                return;
            }
        };
        lifecycle.bytes_in.fetch_add(wire_in, Ordering::Relaxed);
        oblidb_telemetry::counter_add(Counter::ServerBytesIn, wire_in);
        let (response, done) = match request {
            Request::Statement(sql) => {
                lifecycle.statements.fetch_add(1, Ordering::Relaxed);
                oblidb_telemetry::counter_add(Counter::ServerStatements, 1);
                match session.execute(&sql) {
                    Ok(outcome) => (outcome_response(&outcome), false),
                    Err(e) => {
                        lifecycle.errors.fetch_add(1, Ordering::Relaxed);
                        oblidb_telemetry::counter_add(Counter::ServerErrors, 1);
                        (Response::Error(e.to_string()), false)
                    }
                }
            }
            Request::Begin | Request::Commit | Request::Rollback => {
                lifecycle.statements.fetch_add(1, Ordering::Relaxed);
                oblidb_telemetry::counter_add(Counter::ServerStatements, 1);
                let result = match request {
                    Request::Begin => session.begin(),
                    Request::Commit => session.commit(),
                    _ => session.rollback(),
                };
                match result {
                    Ok(outcome) => (outcome_response(&outcome), false),
                    Err(e) => {
                        lifecycle.errors.fetch_add(1, Ordering::Relaxed);
                        oblidb_telemetry::counter_add(Counter::ServerErrors, 1);
                        (Response::Error(e.to_string()), false)
                    }
                }
            }
            Request::Metrics => {
                // The merged engine snapshot plus this connection's own
                // counters — the per-session fold the caller asked for.
                let mut snap = session.database().metrics_snapshot();
                let s = session.stats();
                snap.push_counter("session_id", s.id);
                snap.push_counter("session_statements", s.statements);
                snap.push_counter("session_errors", s.errors);
                let server = lifecycle.stats();
                snap.push_counter("server_lifetime_connections", server.connections);
                snap.push_counter("server_lifetime_statements", server.statements);
                snap.push_counter("server_lifetime_errors", server.errors);
                snap.push_counter("server_lifetime_bytes_in", server.bytes_in);
                snap.push_counter("server_lifetime_bytes_out", server.bytes_out);
                (Response::Metrics(snap.to_json()), false)
            }
            Request::Ping => (Response::Pong, false),
            Request::Shutdown => {
                lifecycle.shutdown.store(true, Ordering::Relaxed);
                (Response::Goodbye, true)
            }
        };
        match write_response(&mut writer, &response) {
            Ok(wire_out) => {
                lifecycle.bytes_out.fetch_add(wire_out, Ordering::Relaxed);
                oblidb_telemetry::counter_add(Counter::ServerBytesOut, wire_out);
            }
            Err(_) => return,
        }
        if done {
            return;
        }
    }
}
