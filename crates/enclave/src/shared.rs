//! One untrusted store behind a lock, reached through session handles.
//!
//! [`SharedMemory`] owns the store behind a mutex; [`SessionMemory`] is an
//! [`EnclaveMemory`] handle that forwards every operation to the shared
//! store under the lock while keeping **per-handle** stats, traces, and
//! crossing stalls. The serving front-end (`oblidb_core::SharedDatabase`)
//! runs its one engine over one such handle and keeps the
//! [`SharedMemory`] for store-level stats, the crossing stall, and admin
//! access that must not wait for the engine:
//!
//! * Each forwarded call holds the store lock only for the memory
//!   operation itself. The simulated crossing price (the OCALL stall) is
//!   paid by the handle's thread **outside** the lock — exactly like real
//!   SGX, where each enclave thread waits out its own OCALL. Handles
//!   driven from different threads overlap their stalls; the serving
//!   front-end runs every statement on one engine under its own lock, so
//!   its sessions' stalls do not overlap.
//! * Session stats and trace events are synthesized from the shared
//!   store's own counters, diffed under the lock, so they are
//!   bit-identical to what a single-owner substrate would have recorded
//!   for the same calls — including the failure contracts (failed single
//!   accesses still trace; batches trace the prefix up to and including
//!   the failing index; `UnknownRegion` and ragged-buffer validation
//!   precede any event; a crossing is counted only once a block
//!   validates).
//! * Leave the *inner* store's spin price at zero and price the boundary
//!   with [`SharedMemory::set_crossing_stall`]: an inner-store price would
//!   be paid while holding the store lock, blocking every other handle's
//!   store access.
//!
//! Region-id allocation stays globally ordered by the store lock, so any
//! serial schedule of handles allocates exactly the ids a single owner
//! would.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::host::{AccessEvent, AccessKind, HostError, HostStats, RegionId, Trace};
use crate::memory::EnclaveMemory;

#[derive(Debug)]
struct Shared<M> {
    store: Mutex<M>,
    crossing_stall: AtomicU64,
    /// Stall nanoseconds paid by *sessions* (the inner store is unpriced),
    /// aggregated across every session for server-level reporting.
    session_stall_nanos: AtomicU64,
    /// Sessions ever created (server-level counter).
    sessions: AtomicU64,
}

/// A `Send + Sync` handle to one substrate shared by many sessions.
///
/// Cloning is cheap (an `Arc`); [`SharedMemory::session`] mints the
/// per-session [`EnclaveMemory`] handles the engine runs over.
#[derive(Debug)]
pub struct SharedMemory<M> {
    inner: Arc<Shared<M>>,
}

impl<M> Clone for SharedMemory<M> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<M: EnclaveMemory> SharedMemory<M> {
    /// Wraps `store` for shared use. The store's own crossing price should
    /// be zero (see the module docs); price the boundary with
    /// [`SharedMemory::set_crossing_stall`] instead.
    pub fn new(store: M) -> Self {
        Self {
            inner: Arc::new(Shared {
                store: Mutex::new(store),
                crossing_stall: AtomicU64::new(0),
                session_stall_nanos: AtomicU64::new(0),
                sessions: AtomicU64::new(0),
            }),
        }
    }

    /// Sets the per-crossing stall every session pays, in nanoseconds:
    /// the thread blocks that long per crossing without burning CPU (the
    /// enclave thread waiting out an OCALL). Paid outside the store lock;
    /// realized stalls are floored by OS timer resolution.
    pub fn set_crossing_stall(&self, nanos: u64) {
        self.inner.crossing_stall.store(nanos, Ordering::Relaxed);
    }

    /// Mints a new session handle over the shared store.
    pub fn session(&self) -> SessionMemory<M> {
        self.inner.sessions.fetch_add(1, Ordering::Relaxed);
        SessionMemory {
            shared: Arc::clone(&self.inner),
            stats: HostStats::default(),
            trace: None,
            scratch: Vec::new(),
        }
    }

    /// Number of sessions ever minted.
    pub fn sessions(&self) -> u64 {
        self.inner.sessions.load(Ordering::Relaxed)
    }

    /// Store-level aggregate stats: the inner substrate's own counters
    /// (which see every session's traffic), with the sessions' paid stall
    /// time folded into `stall_nanos`. This is the server-level view;
    /// per-session views come from each handle's
    /// [`EnclaveMemory::stats`].
    pub fn store_stats(&self) -> HostStats {
        let mut s = lock(&self.inner.store).stats();
        s.stall_nanos += self.inner.session_stall_nanos.load(Ordering::Relaxed);
        s
    }

    /// Runs `f` with exclusive access to the raw store — the admin escape
    /// hatch (persistence attach, adversary APIs in tests). Keep it brief:
    /// every session blocks while `f` runs.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        f(&mut lock(&self.inner.store))
    }
}

/// Keeps serving even if a session thread panicked mid-operation: sealed
/// blocks are self-authenticating, so a torn logical state surfaces as a
/// typed error, never as silent corruption.
fn lock<M>(m: &Mutex<M>) -> MutexGuard<'_, M> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One session's view of a [`SharedMemory`] store.
///
/// Implements [`EnclaveMemory`] with the shared store as the substrate;
/// stats and traces are per-session and match what a single-owner
/// substrate would record for the same calls (batch failure prefixes
/// included). `stats().stall_nanos` is the stall *this* session paid.
#[derive(Debug)]
pub struct SessionMemory<M> {
    shared: Arc<Shared<M>>,
    stats: HostStats,
    trace: Option<Vec<AccessEvent>>,
    scratch: Vec<u8>,
}

impl<M: EnclaveMemory> SessionMemory<M> {
    fn stall(&self) -> u64 {
        self.shared.crossing_stall.load(Ordering::Relaxed)
    }

    /// Folds one forwarded call's inner-store counter delta into the
    /// session stats, then pays the session's crossing stall once per
    /// crossing the inner store counted — after the lock is gone, so
    /// concurrent sessions stall in parallel.
    fn account(&mut self, delta: HostStats, stall_nanos: u64) {
        self.stats.reads += delta.reads;
        self.stats.writes += delta.writes;
        self.stats.bytes_read += delta.bytes_read;
        self.stats.bytes_written += delta.bytes_written;
        self.stats.crossings += delta.crossings;
        let stall = delta.crossings * stall_nanos;
        self.stats.stall_nanos += stall;
        if stall > 0 {
            self.shared.session_stall_nanos.fetch_add(stall, Ordering::Relaxed);
            for _ in 0..delta.crossings {
                std::thread::sleep(std::time::Duration::from_nanos(stall_nanos));
            }
        }
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    /// Synthesizes the per-block trace of one batched call from its
    /// outcome, matching the single-owner contract: all events on success;
    /// none when validation failed before any block (`UnknownRegion`,
    /// ragged buffers); the successful prefix plus the failing index on a
    /// mid-batch fault. `successes` is the inner store's per-block counter
    /// delta — exactly how many blocks validated before the fault.
    fn record_batch(
        &mut self,
        region: RegionId,
        indices: impl Iterator<Item = u64>,
        kind: AccessKind,
        successes: u64,
        outcome: &Result<(), HostError>,
    ) {
        if self.trace.is_none() {
            return;
        }
        let events = match outcome {
            Ok(()) => usize::MAX,
            Err(HostError::OutOfBounds { .. }) | Err(HostError::EmptyBlock(..)) => {
                successes as usize + 1
            }
            // Validation errors precede any event; I/O faults surface the
            // successful prefix (the blocks the adversary saw transfer).
            Err(HostError::UnknownRegion(_)) | Err(HostError::BlockSizeMismatch { .. }) => 0,
            Err(HostError::Io { .. }) => successes as usize,
        };
        if let Some(t) = &mut self.trace {
            t.extend(indices.take(events).map(|index| AccessEvent { region, index, kind }));
        }
    }
}

impl<M: EnclaveMemory> EnclaveMemory for SessionMemory<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        lock(&self.shared.store).alloc_region(blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        lock(&self.shared.store).free_region(region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        lock(&self.shared.store).grow_region(region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        lock(&self.shared.store).region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        lock(&self.shared.store).region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        // Single accesses trace unconditionally, even when they fail.
        self.record(region, index, AccessKind::Read);
        let stall = self.stall();
        let (outcome, delta) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let outcome = store.read(region, index).map(|block| {
                self.scratch.clear();
                self.scratch.extend_from_slice(block);
            });
            (outcome, store.stats() - before)
        };
        // Fold the inner delta in even on failure: a failed access leaves
        // the inner counters alone, a mid-batch fault leaves the
        // successful prefix — either way the delta IS the single-owner
        // behavior.
        self.account(delta, stall);
        outcome?;
        Ok(&self.scratch[..])
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let stall = self.stall();
        let (outcome, delta) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let outcome = store.write(region, index, data);
            (outcome, store.stats() - before)
        };
        self.account(delta, stall);
        outcome
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        let stall = self.stall();
        let (outcome, delta) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let outcome = store.read_blocks(region, start, count, out);
            (outcome, store.stats() - before)
        };
        self.record_batch(
            region,
            start..start + count as u64,
            AccessKind::Read,
            delta.reads,
            &outcome,
        );
        self.account(delta, stall);
        outcome
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        let stall = self.stall();
        let (outcome, delta) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let outcome = store.read_blocks_at(region, indices, out);
            (outcome, store.stats() - before)
        };
        self.record_batch(region, indices.iter().copied(), AccessKind::Read, delta.reads, &outcome);
        self.account(delta, stall);
        outcome
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let stall = self.stall();
        let (outcome, delta, count) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let count = store
                .region_block_size(region)
                .ok()
                .and_then(|bs| data.len().checked_div(bs))
                .unwrap_or(0);
            let outcome = store.write_blocks(region, start, data);
            (outcome, store.stats() - before, count)
        };
        self.record_batch(
            region,
            start..start + count as u64,
            AccessKind::Write,
            delta.writes,
            &outcome,
        );
        self.account(delta, stall);
        outcome
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let stall = self.stall();
        let (outcome, delta) = {
            let mut store = lock(&self.shared.store);
            let before = store.stats();
            let outcome = store.write_blocks_at(region, indices, data);
            (outcome, store.stats() - before)
        };
        self.record_batch(
            region,
            indices.iter().copied(),
            AccessKind::Write,
            delta.writes,
            &outcome,
        );
        self.account(delta, stall);
        outcome
    }

    fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    fn take_trace(&mut self) -> Trace {
        Trace(self.trace.take().unwrap_or_default())
    }

    fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    fn stats(&self) -> HostStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        // Per-session counters only; the crossing price is configuration
        // on the shared handle and the store-level aggregate is
        // [`SharedMemory::store_stats`].
        self.stats = HostStats::default();
    }

    fn sync(&mut self) -> Result<(), HostError> {
        lock(&self.shared.store).sync()
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        lock(&self.shared.store).sync_region(region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;

    /// Drives the same operation sequence (success + every error class)
    /// over a raw `Host` and a `SessionMemory<Host>`, asserting traces and
    /// stats are bit-identical — the parity the concurrent engine builds
    /// on.
    fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, HostStats) {
        m.start_trace();
        let r = m.alloc_region(8, 4).unwrap();
        let ghost = RegionId(999);

        // Single-op success + every single-op failure (all still trace).
        m.write(r, 0, &[1; 4]).unwrap();
        assert_eq!(m.read(r, 0).unwrap(), &[1; 4]);
        assert!(matches!(m.read(ghost, 0), Err(HostError::UnknownRegion(_))));
        assert!(matches!(m.write(r, 0, &[0; 3]), Err(HostError::BlockSizeMismatch { .. })));
        assert!(matches!(m.write(r, 50, &[0; 4]), Err(HostError::OutOfBounds { .. })));
        assert!(matches!(m.read(r, 3), Err(HostError::EmptyBlock(..))));

        // Batched success.
        m.write_blocks(r, 2, &[7; 16]).unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 2, 4, &mut out).unwrap();
        assert_eq!(out, [7; 16]);
        m.write_blocks_at(r, &[7, 0], &[9; 8]).unwrap();
        m.read_blocks_at(r, &[7, 2], &mut out).unwrap();

        // Batched failures: validation (no events) vs mid-batch (prefix).
        assert!(matches!(m.read_blocks(ghost, 0, 2, &mut out), Err(HostError::UnknownRegion(_))));
        assert!(matches!(m.write_blocks(r, 0, &[0; 3]), Err(HostError::BlockSizeMismatch { .. })));
        assert!(matches!(
            m.write_blocks_at(r, &[0, 1], &[0; 4]),
            Err(HostError::BlockSizeMismatch { .. })
        ));
        // Blocks 2..=5 and 0,7 are written; 6 is empty: fails mid-batch.
        assert!(matches!(m.read_blocks(r, 4, 4, &mut out), Err(HostError::EmptyBlock(_, 6))));
        // Gather with the fault in the middle.
        assert!(matches!(
            m.read_blocks_at(r, &[0, 6, 2], &mut out),
            Err(HostError::EmptyBlock(_, 6))
        ));
        // Out of bounds mid-batch on the write side (writes 6 and 7 first).
        assert!(matches!(
            m.write_blocks(r, 6, &[0; 16]),
            Err(HostError::OutOfBounds { index: 8, .. })
        ));

        // Zero-length batches: no events, no crossings.
        m.read_blocks(r, 0, 0, &mut out).unwrap();
        m.write_blocks(r, 0, &[]).unwrap();

        m.grow_region(r, 12).unwrap();
        assert_eq!(m.region_len(r).unwrap(), 12);
        assert_eq!(m.region_block_size(r).unwrap(), 4);
        m.free_region(r).unwrap();
        (m.take_trace(), m.stats())
    }

    #[test]
    fn session_matches_host_bit_for_bit() {
        let mut host = Host::new();
        let (trace_h, stats_h) = drive(&mut host);
        let shared = SharedMemory::new(Host::new());
        let mut session = shared.session();
        let (trace_s, stats_s) = drive(&mut session);
        assert_eq!(trace_h, trace_s, "session trace must equal the single-owner trace");
        assert_eq!(stats_h, stats_s, "session stats must equal the single-owner stats");
        // The store-level view saw the same traffic.
        let store = shared.store_stats();
        assert_eq!(store.reads, stats_h.reads);
        assert_eq!(store.writes, stats_h.writes);
        assert_eq!(store.crossings, stats_h.crossings);
    }

    #[test]
    fn sessions_keep_independent_stats_and_traces() {
        let shared = SharedMemory::new(Host::new());
        let mut a = shared.session();
        let mut b = shared.session();
        let r = a.alloc_region(4, 4).unwrap();
        a.start_trace();
        a.write(r, 0, &[1; 4]).unwrap();
        b.start_trace();
        b.read(r, 0).unwrap();
        assert_eq!(a.take_trace().len(), 1);
        assert_eq!(b.take_trace().len(), 1);
        assert_eq!((a.stats().writes, a.stats().reads), (1, 0));
        assert_eq!((b.stats().writes, b.stats().reads), (0, 1));
        // Store-level stats aggregate both sessions.
        let store = shared.store_stats();
        assert_eq!((store.writes, store.reads), (1, 1));
        assert_eq!(shared.sessions(), 2);
    }

    #[test]
    fn concurrent_sessions_allocate_unique_regions() {
        let shared = SharedMemory::new(Host::new());
        let mut ids = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let shared = shared.clone();
                    s.spawn(move || {
                        let mut m = shared.session();
                        let mut mine = Vec::new();
                        for _ in 0..50 {
                            let r = m.alloc_region(2, 4).unwrap();
                            m.write(r, 0, &[r.0 as u8; 4]).unwrap();
                            assert_eq!(m.read(r, 0).unwrap(), &[r.0 as u8; 4]);
                            mine.push(r.0);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "every session got globally unique region ids");
    }

    #[test]
    fn session_stall_is_priced_and_aggregated() {
        let shared = SharedMemory::new(Host::new());
        shared.set_crossing_stall(1);
        let mut m = shared.session();
        let r = m.alloc_region(2, 4).unwrap();
        m.write_blocks(r, 0, &[0; 8]).unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 0, 2, &mut out).unwrap();
        assert_eq!(m.stats().crossings, 2);
        assert_eq!(m.stats().stall_nanos, 2);
        assert_eq!(shared.store_stats().stall_nanos, 2, "sessions' stall folds into store view");
    }
}
