//! Production-shaped [`EnclaveMemory`](oblidb_enclave::EnclaveMemory) substrates.
//!
//! ObliDB's trusted code drives untrusted storage through the
//! [`EnclaveMemory`](oblidb_enclave::EnclaveMemory) seam and never cares
//! where blocks actually live. The
//! [`Host`](oblidb_enclave::Host) substrate keeps them in RAM; this crate
//! adds the backends a deployment needs once datasets outgrow one
//! machine's memory:
//!
//! * [`DiskMemory`] — file-per-region storage with a block-aligned layout.
//!   Batched reads/writes map to single positioned I/O calls, so the
//!   `read_blocks`/`write_blocks` path the engine already uses amortizes
//!   both the enclave crossing *and* the syscall.
//! * [`CachedMemory`] — a write-back LRU of hot sealed blocks wrapping any
//!   inner substrate. Every *logical* access is still traced and counted
//!   at the wrapper, so the adversary's view is exactly the view a raw
//!   [`Host`](oblidb_enclave::Host) would give — caching changes backing
//!   traffic, never the access pattern.
//! * [`AnySubstrate`] + [`SubstrateSpec`] — runtime substrate selection:
//!   one enum type implementing
//!   [`EnclaveMemory`](oblidb_enclave::EnclaveMemory), so a single
//!   `Database<AnySubstrate>` can open over any backend named by a spec
//!   string (`host`, `disk[:dir]`, `cached[:blocks]:disk[:dir]`).
//!
//! Both substrates reproduce the [`Host`](oblidb_enclave::Host)
//! contract bit-for-bit: same error taxonomy and precedence, same
//! per-block trace events (including failed attempts), same stats
//! accounting (one crossing per call, per-block read/write counts). The
//! root-package `tests/substrate_conformance.rs` suite drives the full
//! engine over every substrate and asserts byte-identical results and
//! traces against `Host`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod cache;
mod disk;
mod tempdir;

pub use any::{AnySubstrate, ParseSubstrateError, SubstrateSpec, DEFAULT_CACHE_BLOCKS};
pub use cache::{CacheStats, CachedMemory};
pub use disk::{DiskMemory, REGION_META_FILE};
pub use tempdir::TempDir;
