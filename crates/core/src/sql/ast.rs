//! SQL abstract syntax.

use crate::exec::AggFunc;
use crate::table::StorageMethod;
use crate::types::{Column, DataType, Schema, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE ...`
    Create(CreateTable),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// `SELECT ...`
    Select(Select),
    /// `UPDATE ...`
    Update(Update),
    /// `DELETE FROM ...`
    Delete(Delete),
    /// `EXPLAIN SELECT ...` — compile and cost the plan, execute nothing;
    /// the result set is the rendered plan, one line per row.
    Explain(Select),
    /// `EXPLAIN ANALYZE SELECT ...` — compile, **execute**, and render the
    /// plan with measured per-node wall time, crossings, and AEAD bytes
    /// alongside the planner's estimates; the result set is the annotated
    /// plan, one line per row.
    ExplainAnalyze(Select),
    /// `BEGIN [TRANSACTION]` — open a multi-statement transaction.
    /// Transaction control is interpreted by a transaction session
    /// (`oblidb::txn`); a bare engine rejects it with a typed error.
    Begin,
    /// `COMMIT` — apply the buffered transaction atomically.
    Commit,
    /// `ROLLBACK` — discard the buffered transaction.
    Rollback,
}

/// One column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

/// `CREATE TABLE name (cols) [STORAGE = FLAT|INDEXED|BOTH] [INDEX ON col]
/// [CAPACITY n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<ColumnDef>,
    /// Storage method (defaults to flat).
    pub storage: StorageMethod,
    /// Indexed column, required for INDEXED/BOTH storage.
    pub index_on: Option<String>,
    /// Initial row capacity (defaults to [`crate::db::DEFAULT_CAPACITY`]).
    pub capacity: Option<u64>,
}

impl CreateTable {
    /// The table's schema: its column definitions, in order.
    pub fn schema(&self) -> Schema {
        Schema::new(self.columns.iter().map(|c| Column::new(c.name.clone(), c.dtype)).collect())
    }
}

/// `INSERT INTO name VALUES (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Table name.
    pub table: String,
    /// Row literals.
    pub values: Vec<Value>,
}

/// A projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// Bare column reference.
    Column(String),
    /// `AGG(col)` or `COUNT(*)`.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Column, or `None` for `COUNT(*)`.
        col: Option<String>,
    },
}

/// The projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    Star,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// `JOIN table ON left = right`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    /// The second table.
    pub table: String,
    /// Join column on the first (FROM) table.
    pub left_col: String,
    /// Join column on the joined table.
    pub right_col: String,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub projection: Projection,
    /// FROM table.
    pub table: String,
    /// Optional join.
    pub join: Option<JoinClause>,
    /// Optional WHERE predicate (name-resolved later against the schema).
    pub where_clause: Option<ast_pred::PredExpr>,
    /// Optional GROUP BY column.
    pub group_by: Option<String>,
    /// Optional ORDER BY (column, descending?). Applied to the decoded
    /// result inside the enclave — it never touches untrusted memory, so
    /// it adds no leakage.
    pub order_by: Option<(String, bool)>,
    /// Optional LIMIT, applied after ORDER BY at decode time.
    pub limit: Option<u64>,
}

/// One `SET col = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target column.
    pub col: String,
    /// New value.
    pub value: Value,
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Table name.
    pub table: String,
    /// Assignments.
    pub sets: Vec<Assignment>,
    /// Optional WHERE predicate.
    pub where_clause: Option<ast_pred::PredExpr>,
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Table name.
    pub table: String,
    /// Optional WHERE predicate.
    pub where_clause: Option<ast_pred::PredExpr>,
}

/// Unresolved predicate expressions (column names instead of indices).
pub mod ast_pred {
    use crate::predicate::CmpOp;
    use crate::types::Value;

    /// A predicate over column *names*; resolved against a schema at
    /// execution time.
    #[derive(Debug, Clone, PartialEq)]
    pub enum PredExpr {
        /// `col <op> literal`.
        Cmp {
            /// Column name (optionally `table.col`).
            col: String,
            /// Operator.
            op: CmpOp,
            /// Literal.
            value: Value,
        },
        /// Conjunction.
        And(Box<PredExpr>, Box<PredExpr>),
        /// Disjunction.
        Or(Box<PredExpr>, Box<PredExpr>),
        /// Negation.
        Not(Box<PredExpr>),
    }

    impl PredExpr {
        /// Resolves column names to indices against `schema`.
        pub fn resolve(
            &self,
            schema: &crate::types::Schema,
        ) -> Result<crate::predicate::Predicate, crate::error::DbError> {
            use crate::predicate::Predicate;
            Ok(match self {
                PredExpr::Cmp { col, op, value } => {
                    Predicate::Cmp { col: schema.col(col)?, op: *op, value: value.clone() }
                }
                PredExpr::And(a, b) => {
                    Predicate::And(Box::new(a.resolve(schema)?), Box::new(b.resolve(schema)?))
                }
                PredExpr::Or(a, b) => {
                    Predicate::Or(Box::new(a.resolve(schema)?), Box::new(b.resolve(schema)?))
                }
                PredExpr::Not(p) => Predicate::Not(Box::new(p.resolve(schema)?)),
            })
        }
    }
}
