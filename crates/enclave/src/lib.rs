//! Simulated enclave boundary for ObliDB.
//!
//! The paper runs on Intel SGX: a trusted enclave with a small protected
//! memory plus a large *untrusted* memory managed by a potentially malicious
//! OS. The OS cannot read enclave registers or protected pages, but it
//! observes **which untrusted addresses the enclave touches** — the access
//! pattern — and that leaks data unless the engine is oblivious.
//!
//! This crate models exactly that boundary:
//!
//! * [`EnclaveMemory`] is the abstract block-store seam every engine layer
//!   is written against: alloc/free/grow/read/write plus stats and traces.
//!   Implementors decide where blocks actually live.
//! * [`Host`] is the default untrusted world: a set of block-granular
//!   memory regions. Every read/write crosses the boundary and can be
//!   recorded in an [`AccessEvent`] trace — the simulation analogue of the
//!   adversary's view in the paper's Appendix A security theorem. Tests
//!   assert *trace equality* across runs with different data to verify
//!   obliviousness.
//! * [`OmBudget`] accounts for the limited *oblivious memory* available
//!   inside the enclave (20 MB in the paper's evaluation). Position maps and
//!   operator buffers must fit in it; operators degrade gracefully (more
//!   passes, smaller chunks) when it shrinks — reproduced in Figure 8.
//! * [`EnclaveRng`] is the in-enclave randomness source (leaf assignment,
//!   nonces). It is deterministic under a seed so experiments reproduce.
//!
//! A boundary crossing is only ever *counted* ([`HostStats::crossings`]),
//! never simulated with a stall or a spin: a priced time is
//! `crossings × price`, computed by whoever reports it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod memory;
mod om;
mod rng;

pub use host::{
    batch_count, AccessEvent, AccessKind, Host, HostError, HostStats, IoOp, RegionId, StatsReport,
    Trace,
};
pub use memory::EnclaveMemory;
pub use om::{OmAllocation, OmBudget, OmError};
pub use rng::EnclaveRng;

/// Default oblivious-memory budget used across the evaluation (paper §2.2:
/// "we evaluate using 20MB or less in all our experiments").
pub const DEFAULT_OM_BYTES: usize = 20 * 1024 * 1024;
