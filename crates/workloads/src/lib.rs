//! Deterministic workload generators for the ObliDB evaluation.
//!
//! * [`bdb`] — the Big Data Benchmark tables (RANKINGS 360 k rows,
//!   USERVISITS 350 k rows; paper Figure 6) and queries Q1–Q3.
//! * [`cfpb`] — the 107 k-row complaints table of the padding-mode
//!   experiment (§7.1), driven by the `padding_mode` example.
//! * [`synthetic`] — a parameterized table with a sequential key, so range
//!   predicates control selectivity exactly (the index and serving
//!   workloads, the engine-equivalence suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;

pub mod bdb;
pub mod cfpb;
pub mod synthetic;
