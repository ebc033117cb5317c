//! Comparison systems for the ObliDB evaluation, re-implemented on the same
//! enclave substrate, so every system pays the same simulated boundary and
//! the comparison isolates the algorithms.
//!
//! * [`opaque`] — Opaque's oblivious mode: full-table scans and oblivious
//!   sorts for every operator (Zheng et al., NSDI'17).
//! * [`plain`] — a conventional, no-security in-memory engine standing in
//!   for Spark SQL.
//! * [`hirb`] — an oblivious map in the style of the HIRB tree + vORAM of
//!   Roche et al. (S&P'16).
//! * [`mysql_like`] — a conventional non-oblivious B-tree index standing in
//!   for MySQL in the point-query comparison (Figure 9).
//! * [`paper_rules`] — the paper's closed-form §5 planner rules, the
//!   reference the engine's measured planner is compared against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hirb;
pub mod mysql_like;
pub mod opaque;
pub mod paper_rules;
pub mod plain;
