//! The ObliDB engine: oblivious query processing for secure databases.
//!
//! This crate implements the paper's core contribution (§3–§5):
//!
//! * **Storage methods** ([`table`]): *flat* tables (sealed blocks, one row
//!   per block, scanned in full for obliviousness) and *indexed* tables (an
//!   oblivious B+ tree inside Path ORAM), or both at once.
//! * **Oblivious operators** ([`exec`]): five SELECT algorithms (Naive,
//!   Small, Large, Continuous, Hash), aggregation and grouped aggregation,
//!   a fused select+project+aggregate operator, and three join algorithms
//!   (oblivious hash join, Opaque sort-merge join, 0-OM bitonic join).
//! * **A query planner** ([`plan::cost`]) that picks operators using only
//!   already-leaked information: input/output sizes, result continuity, and
//!   the oblivious-memory budget.
//! * **A SQL front-end** ([`sql`]) and the [`Database`] facade tying it all
//!   together, with an optional padding mode that hides intermediate result
//!   sizes (§2.3).
//!
//! Leakage contract (paper §2.3): only the sizes of input, intermediate,
//! and result tables, and the physical plan chosen. The enclave
//! access-pattern traces produced under this engine are testable for that
//! property — see the `tests/` directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod db;
pub mod error;
pub mod exec;
pub mod key;
pub mod padding;
pub mod plan;
pub mod predicate;
pub mod sql;
pub mod table;
pub mod types;
pub mod wal;

pub use audit::{AuditReport, AuditViolation, TraceAuditor};
pub use db::persist::{
    read_recovery_journal, resolve_recovery_statements, write_recovery_statements, RecoveryPlan,
    RecoveryReport, Reopened, DB_MANIFEST_FILE, RECOVERY_JOURNAL_FILE,
};
pub use db::shared::{Session, SessionStats, SharedDatabase};
pub use db::{
    Database, DbConfig, PlanCacheStats, PlanInfo, PreparedStatement, QueryOutput, StorageMethod,
};
pub use error::DbError;
pub use plan::cost::{CostProfile, JoinAlgo, SelectAlgo};
pub use plan::{Explain, NodeCost, PlanNode, QueryPlan};
pub use predicate::Predicate;
pub use types::{Column, DataType, Row, Schema, Value};
pub use wal::{EpochConfig, WalConfig};
