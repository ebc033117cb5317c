//! The ObliDB serving front-end: wire [`protocol`], TCP [`server`], and
//! blocking [`client`].
//!
//! The engine's concurrency core lives in `oblidb-core`
//! ([`oblidb_core::SharedDatabase`]): every statement of every session
//! runs, one at a time, on one resident engine, so any schedule is
//! statement-for-statement equivalent to a single-owner engine. This
//! crate puts a socket in front of it: one [`Session`] per
//! accepted connection, each on its own thread and at most
//! [`ServerConfig::workers`] at once, with a length-prefixed binary
//! protocol (statements in; typed row sets, rows-affected counts, errors,
//! metrics snapshots out).
//!
//! Binaries: `oblidb-serve` (the server) and `oblidb-sql` (an
//! interactive shell that also pipes cleanly for scripting).
//!
//! [`Session`]: oblidb_core::Session

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod slots;

pub use client::{ClientError, Connection, StatementResult};
pub use protocol::{ProtocolError, Request, Response, MAX_FRAME};
pub use server::{serve, ServerConfig, ServerHandle, ServerStats};
