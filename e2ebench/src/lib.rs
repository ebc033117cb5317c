//! The repository's end-to-end benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod drive;
pub mod gen;
pub mod json;
pub mod record;
pub mod run;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;
