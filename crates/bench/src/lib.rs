//! Shared helpers for the benchmark harness binaries (one `figNN` binary
//! per paper figure, named after it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod timing;

pub mod setup;
