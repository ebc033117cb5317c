//! Comparison systems for the ObliDB evaluation, re-implemented on the same
//! enclave substrate, so every system pays the same simulated boundary and
//! the comparison isolates the algorithms.
//!
//! * [`opaque`] — Opaque's oblivious mode: full-table scans and oblivious
//!   sorts for every operator (Zheng et al., NSDI'17).
//! * [`plain`] — a conventional, no-security in-memory engine standing in
//!   for Spark SQL.
//! * [`paper_rules`] — the paper's closed-form §5 planner rules, the
//!   reference the engine's measured planner is compared against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod opaque;
pub mod paper_rules;
pub mod plain;
