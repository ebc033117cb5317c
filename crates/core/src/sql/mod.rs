//! A small SQL front-end for ObliDB.
//!
//! Covers the subset the paper's engine supports: CREATE TABLE (with a
//! storage-method clause), INSERT, SELECT with WHERE / JOIN ... ON /
//! GROUP BY and the five aggregates, UPDATE, and DELETE. Parsing happens
//! inside the enclave; query parameters never leave it.

mod ast;
mod lexer;
mod parser;

pub use ast::{
    Assignment, ColumnDef, CreateTable, Delete, Insert, JoinClause, Projection, Select, SelectItem,
    Statement, Update,
};
pub use lexer::{tokenize, Token};
pub use parser::{parse, parses_on_this_thread, Parsed};
