//! Engine error type.

use oblidb_btree::ObTreeError;
use oblidb_enclave::{HostError, OmError};
use oblidb_oram::OramError;
use oblidb_storage::StorageError;

/// Errors surfaced by the ObliDB engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Untrusted host failure.
    Host(HostError),
    /// Sealed storage failure — includes tamper/rollback detection.
    Storage(StorageError),
    /// ORAM failure.
    Oram(OramError),
    /// Oblivious B+ tree failure.
    Tree(ObTreeError),
    /// Oblivious-memory budget exhausted.
    Om(OmError),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// The operation requires a storage method the table does not have.
    WrongStorage {
        /// Table name.
        table: String,
        /// What was needed.
        needed: &'static str,
    },
    /// Value/type mismatch (wrong arity, wrong type, oversized string).
    TypeMismatch(String),
    /// Table capacity exhausted.
    TableFull(String),
    /// The hash-select output table overflowed its collision chains
    /// (cryptographically unlikely; retry with another operator).
    HashSelectOverflow,
    /// A selection matched more rows than its padded bound holds (padding
    /// mode, paper §2.3). The operator still ran every pass the bound
    /// fixes, so the trace is that of any other result under the bound.
    PaddedBoundExceeded {
        /// The padded bound in rows.
        bound: u64,
    },
    /// Grouped aggregation exceeded the oblivious-memory group budget.
    TooManyGroups {
        /// Groups the operator could hold.
        limit: usize,
    },
    /// SQL lexing/parsing failure.
    Sql(String),
    /// Query shape the engine does not support.
    Unsupported(String),
    /// The persisted database manifest is unusable: unreadable, failing
    /// authentication (tampered, or sealed by a different enclave
    /// identity/seed), structurally invalid, or inconsistent with the
    /// reopened substrate (swapped/resized region files). The typed
    /// integrity signal of the reopen path; per-block tampering surfaces
    /// later as [`DbError::Storage`] with `TamperDetected`.
    ManifestRejected(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Host(e) => write!(f, "host: {e}"),
            DbError::Storage(e) => write!(f, "storage: {e}"),
            DbError::Oram(e) => write!(f, "oram: {e}"),
            DbError::Tree(e) => write!(f, "index: {e}"),
            DbError::Om(e) => write!(f, "oblivious memory: {e}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::WrongStorage { table, needed } => {
                write!(f, "table {table} lacks {needed} storage")
            }
            DbError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            DbError::TableFull(t) => write!(f, "table full: {t}"),
            DbError::HashSelectOverflow => write!(f, "hash select overflow"),
            DbError::PaddedBoundExceeded { bound } => {
                write!(f, "result exceeds the padded bound of {bound} rows")
            }
            DbError::TooManyGroups { limit } => {
                write!(f, "too many groups for oblivious memory (limit {limit})")
            }
            DbError::Sql(m) => write!(f, "sql: {m}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DbError::ManifestRejected(m) => write!(f, "database manifest rejected: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<HostError> for DbError {
    fn from(e: HostError) -> Self {
        DbError::Host(e)
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<OramError> for DbError {
    fn from(e: OramError) -> Self {
        DbError::Oram(e)
    }
}

impl From<ObTreeError> for DbError {
    fn from(e: ObTreeError) -> Self {
        DbError::Tree(e)
    }
}

impl From<OmError> for DbError {
    fn from(e: OmError) -> Self {
        DbError::Om(e)
    }
}
