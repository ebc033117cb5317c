//! Sealed block storage: the integrity layer of ObliDB.
//!
//! Everything ObliDB stores outside the enclave is encrypted and MACed
//! (paper §3): each sealed block binds, through the AEAD's associated data,
//!
//! 1. **which block it is** (region + block index) — so the OS cannot
//!    shuffle or substitute blocks,
//! 2. **which revision it is** (a per-block counter kept *inside* the
//!    enclave) — so the OS cannot roll a block back to an earlier state,
//!
//! and each region uses its own derived key, so blocks cannot migrate
//! between tables. Any violation surfaces as
//! [`StorageError::TamperDetected`].
//!
//! Layout of a sealed block: `nonce (12) ‖ ciphertext (payload) ‖ tag (16)`.
//!
//! # Batched I/O
//!
//! Every access is available in two granularities: per-block
//! ([`SealedRegion::read`] / [`SealedRegion::write`]) and batched
//! ([`SealedRegion::read_batch`] / [`SealedRegion::write_batch`] for
//! contiguous ranges, [`SealedRegion::read_batch_at`] /
//! [`SealedRegion::write_batch_at`] for gather/scatter index lists such as
//! an ORAM path). A batch seals or opens N payloads per call with **one**
//! boundary crossing (`HostStats::crossings`), one scratch allocation, and
//! amortized nonce/AAD setup. The per-block trace — which blocks, in which
//! order, read or written — is identical either way; batching is purely a
//! cost optimization and never changes the adversary's view of the access
//! pattern.
//!
//! ## Chunk-size guidance
//!
//! [`batch_chunk_blocks`] bounds a batch to [`MAX_BATCH_BYTES`] of sealed
//! data (clamped to [1, [`MAX_BATCH_BLOCKS`]]): large enough to amortize
//! the crossing, small enough that the enclave-side scratch stays cache-
//! friendly and far below any realistic oblivious-memory budget. Chunk
//! sizes must be (and are) a function of block geometry only — never of
//! data — so chunking cannot leak. [`SealedScan`] streams a whole region
//! at that granularity.
//!
//! ## Pricing without running
//!
//! Because the geometry is public, so is what a call costs the substrate:
//! [`SealedRegion::create_cost`], [`SealedRegion::read_batch_cost`],
//! [`SealedRegion::write_batch_cost`] and their gather/scatter twins return
//! the exact [`HostStats`] the call adds on [`oblidb_enclave::Host`] —
//! blocks, sealed bytes, and one crossing per chunk-sized run or per
//! gather/scatter. The planner's cost model is built from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oblidb_crypto::aead::{self, AeadKey, Nonce, NONCE_LEN, TAG_LEN};
use oblidb_enclave::{EnclaveMemory, HostError, HostStats, RegionId};

/// Extra bytes a sealed block occupies beyond its plaintext payload.
pub const SEAL_OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Upper bound on the sealed bytes moved per batched crossing.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// Upper bound on the blocks moved per batched crossing.
pub const MAX_BATCH_BLOCKS: usize = 256;

/// The default batch size, in blocks, for a region with `payload_len`-byte
/// payloads: as many sealed blocks as fit in [`MAX_BATCH_BYTES`], clamped
/// to `[1, MAX_BATCH_BLOCKS]`. A function of block geometry only (public),
/// never of data — chunking cannot leak.
pub fn batch_chunk_blocks(payload_len: usize) -> usize {
    (MAX_BATCH_BYTES / (payload_len + SEAL_OVERHEAD)).clamp(1, MAX_BATCH_BLOCKS)
}

/// Errors from the sealed-storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// The untrusted host failed the operation (bounds, unknown region...).
    Host(HostError),
    /// Authentication failed: the block was tampered with, moved, replayed,
    /// or rolled back by the untrusted OS.
    TamperDetected {
        /// Region of the offending block.
        region: RegionId,
        /// Index of the offending block.
        index: u64,
    },
    /// A sealed region manifest failed authentication or decoding: the
    /// persisted trusted-state snapshot (revision counters, nonce counter)
    /// was tampered with, truncated, or sealed under a different key. A
    /// reopen must treat the whole region as unattachable.
    ManifestRejected {
        /// The region whose manifest was rejected.
        region: RegionId,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Host(e) => write!(f, "host error: {e}"),
            StorageError::TamperDetected { region, index } => {
                write!(f, "integrity violation at block {index} of region {region:?}")
            }
            StorageError::ManifestRejected { region } => {
                write!(f, "sealed manifest for region {region:?} rejected (tampered or wrong key)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<HostError> for StorageError {
    fn from(e: HostError) -> Self {
        StorageError::Host(e)
    }
}

/// An encrypted, integrity-protected block region in untrusted memory.
///
/// Trusted state (kept "inside the enclave"): the AEAD key, the per-block
/// revision numbers, and the nonce counter. Everything else lives in the
/// [`Host`](oblidb_enclave::Host).
pub struct SealedRegion {
    region: RegionId,
    key: AeadKey,
    payload_len: usize,
    write_counter: u64,
    revisions: Vec<u64>,
    scratch: Vec<u8>,
    /// Sealed-side staging buffer for batched calls (one allocation per
    /// region, reused across batches).
    batch: Vec<u8>,
}

impl SealedRegion {
    /// Allocates a region of `blocks` sealed blocks, each carrying
    /// `payload_len` plaintext bytes, and initializes every block to an
    /// encryption of zeros so the region is uniformly unreadable from
    /// outside and every block is readable from inside. Initialization is
    /// batched: one crossing per [`batch_chunk_blocks`] chunk.
    pub fn create<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        blocks: usize,
        payload_len: usize,
    ) -> Result<Self, StorageError> {
        let region = host.alloc_region(blocks, payload_len + SEAL_OVERHEAD)?;
        let mut this = Self {
            region,
            key,
            payload_len,
            write_counter: 0,
            revisions: vec![0; blocks],
            scratch: vec![0u8; payload_len + SEAL_OVERHEAD],
            batch: Vec::new(),
        };
        if let Err(e) = this.zero_fill(host, 0, blocks) {
            // Best-effort cleanup; the fill's failure is the error worth
            // surfacing.
            let _ = host.free_region(region);
            return Err(e);
        }
        Ok(this)
    }

    /// Seals zeros into blocks `[start, start + count)`, batched.
    fn zero_fill<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        start: usize,
        count: usize,
    ) -> Result<(), StorageError> {
        if self.payload_len == 0 {
            // Degenerate zero-payload blocks: batch buffers cannot express
            // them (a batch's block count is its length / payload length).
            for i in start..start + count {
                self.write(host, i as u64, &[])?;
            }
            return Ok(());
        }
        let chunk = batch_chunk_blocks(self.payload_len);
        let zeros = vec![0u8; chunk.min(count) * self.payload_len];
        let mut at = start;
        let end = start + count;
        while at < end {
            let n = chunk.min(end - at);
            self.write_batch(host, at as u64, &zeros[..n * self.payload_len])?;
            at += n;
        }
        Ok(())
    }

    /// The underlying host region (public identity).
    pub fn region_id(&self) -> RegionId {
        self.region
    }

    /// The region's AEAD key — trusted-side state, exposed so an owning
    /// layer can embed it in a *sealed* parent manifest (the key hierarchy
    /// of enclave sealing: the master-derived manifest key wraps region
    /// keys). Never write the return value anywhere unencrypted.
    pub fn key(&self) -> AeadKey {
        self.key.clone()
    }

    /// Number of blocks.
    pub fn len(&self) -> u64 {
        self.revisions.len() as u64
    }

    /// True when the region holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.revisions.is_empty()
    }

    /// Plaintext payload length per block.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// What [`SealedRegion::create`] of `blocks` blocks with
    /// `payload_len`-byte payloads costs the substrate: the batched zero
    /// fill (per-block writes for zero-length payloads).
    pub fn create_cost(payload_len: usize, blocks: u64) -> HostStats {
        if payload_len == 0 {
            return moved(true, payload_len, blocks, blocks);
        }
        Self::write_batch_cost(payload_len, blocks)
    }

    /// What [`SealedRegion::read_batch`] of `count` blocks costs the
    /// substrate: one crossing per [`batch_chunk_blocks`] run.
    pub fn read_batch_cost(payload_len: usize, count: u64) -> HostStats {
        moved(false, payload_len, count, count.div_ceil(batch_chunk_blocks(payload_len) as u64))
    }

    /// What [`SealedRegion::write_batch`] of `count` blocks costs the
    /// substrate: one crossing per [`batch_chunk_blocks`] run.
    pub fn write_batch_cost(payload_len: usize, count: u64) -> HostStats {
        moved(true, payload_len, count, count.div_ceil(batch_chunk_blocks(payload_len) as u64))
    }

    /// What [`SealedRegion::read_batch_at`] of `count` blocks costs the
    /// substrate: one crossing whenever a block moves.
    pub fn read_batch_at_cost(payload_len: usize, count: u64) -> HostStats {
        moved(false, payload_len, count, (count > 0) as u64)
    }

    /// What [`SealedRegion::write_batch_at`] of `count` blocks costs the
    /// substrate: one crossing whenever a block moves.
    pub fn write_batch_at_cost(payload_len: usize, count: u64) -> HostStats {
        moved(true, payload_len, count, (count > 0) as u64)
    }

    /// Reads and authenticates a block, returning its plaintext payload:
    /// a one-block [`SealedRegion::read_batch`] over the per-block host
    /// read.
    ///
    /// The returned slice borrows this region's scratch buffer; copy it out
    /// before the next storage call.
    pub fn read<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        index: u64,
    ) -> Result<&[u8], StorageError> {
        self.check_bounds(std::iter::once(index))?;
        self.batch.clear();
        self.batch.extend_from_slice(host.read(self.region, index)?);
        self.scratch.clear();
        self.scratch.resize(self.payload_len, 0);
        self.open_batch(index, 1, None, 0)?;
        Ok(&self.scratch)
    }

    /// Seals and writes a block, bumping its revision: a one-block
    /// [`SealedRegion::write_batch`] over the per-block host write.
    ///
    /// Every write re-randomizes the ciphertext (fresh nonce), so a dummy
    /// write — writing back exactly what was read — is indistinguishable
    /// from a real one, the property all the paper's operators rely on.
    pub fn write<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        index: u64,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        assert_eq!(payload.len(), self.payload_len, "payload length mismatch");
        self.check_bounds(std::iter::once(index))?;
        self.seal_batch(index, 1, None, payload);
        host.write(self.region, index, &self.batch)?;
        Ok(())
    }

    /// Bounds-checks a batch of indices before any crossing happens,
    /// mirroring the per-block error (first offending index).
    fn check_bounds(&self, indices: impl Iterator<Item = u64>) -> Result<(), StorageError> {
        let len = self.len();
        for index in indices {
            if index >= len {
                return Err(HostError::OutOfBounds { region: self.region, index, len }.into());
            }
        }
        Ok(())
    }

    /// Reads and authenticates `count` consecutive blocks starting at
    /// `start`, returning their concatenated plaintext payloads
    /// (`count × payload_len` bytes) — one boundary crossing per
    /// [`batch_chunk_blocks`] sub-batch, so the sealed staging buffer
    /// never exceeds [`MAX_BATCH_BYTES`] however large the range.
    ///
    /// The returned slice borrows this region's scratch buffer; copy what
    /// you need before the next storage call. A tampered block fails with
    /// [`StorageError::TamperDetected`] carrying that block's absolute
    /// index, exactly as the per-block path would.
    pub fn read_batch<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        start: u64,
        count: usize,
    ) -> Result<&[u8], StorageError> {
        self.check_bounds((start..start + count as u64).take(count))?;
        self.scratch.clear();
        self.scratch.resize(count * self.payload_len, 0);
        let chunk = batch_chunk_blocks(self.payload_len);
        let mut at = 0usize;
        while at < count {
            let n = chunk.min(count - at);
            host.read_blocks(self.region, start + at as u64, n, &mut self.batch)?;
            self.open_batch(start + at as u64, n, None, at)?;
            at += n;
        }
        Ok(&self.scratch)
    }

    /// Gather variant of [`SealedRegion::read_batch`]: reads and
    /// authenticates the blocks at `indices` (in order, one crossing) and
    /// returns their concatenated plaintext payloads. Meant for path-scale
    /// index lists (an ORAM path, a hash bucket pair); the staging buffer
    /// is sized by `indices.len()`.
    pub fn read_batch_at<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        indices: &[u64],
    ) -> Result<&[u8], StorageError> {
        self.check_bounds(indices.iter().copied())?;
        self.scratch.clear();
        self.scratch.resize(indices.len() * self.payload_len, 0);
        host.read_blocks_at(self.region, indices, &mut self.batch)?;
        self.open_batch(0, indices.len(), Some(indices), 0)?;
        Ok(&self.scratch)
    }

    /// Opens `count` sealed blocks staged in `self.batch`, writing their
    /// payloads into `self.scratch` starting at row `scratch_row`. Block
    /// `i`'s absolute index is `indices[i]` when given, else `start + i`.
    ///
    /// One [`aead::open_run`] call over the strided staging buffer: every
    /// tag is verified before anything decrypts, and the error reports the
    /// first failing block in batch order, exactly as a per-block loop
    /// would.
    fn open_batch(
        &mut self,
        start: u64,
        count: usize,
        indices: Option<&[u64]>,
        scratch_row: usize,
    ) -> Result<(), StorageError> {
        let payload_len = self.payload_len;
        debug_assert_eq!(self.batch.len(), count * (payload_len + SEAL_OVERHEAD));
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::OpenBatch);
        if oblidb_telemetry::enabled() {
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::BlocksOpened, count as u64);
            oblidb_telemetry::counter_add(
                oblidb_telemetry::Counter::BytesOpened,
                (count * payload_len) as u64,
            );
            oblidb_telemetry::histogram_record(
                oblidb_telemetry::HistogramId::OpenBatchBlocks,
                count as u64,
            );
        }
        let (region, revisions) = (self.region, &self.revisions);
        let index = |i: usize| batch_index(start, indices, i);
        let scratch =
            &mut self.scratch[scratch_row * payload_len..(scratch_row + count) * payload_len];
        aead::open_run(&self.key, payload_len, &self.batch, scratch, |i| {
            block_aad(index(i), revisions[index(i) as usize])
        })
        .map_err(|e| StorageError::TamperDetected { region, index: index(e.index) })
    }

    /// Seals and writes a whole number of payloads (`payloads.len()` must
    /// be a multiple of the payload length) to consecutive blocks starting
    /// at `start`, bumping each revision — one boundary crossing per
    /// [`batch_chunk_blocks`] sub-batch. Like [`SealedRegion::write`],
    /// every block gets a fresh nonce, so batched dummy writes stay
    /// indistinguishable from real ones.
    pub fn write_batch<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        start: u64,
        payloads: &[u8],
    ) -> Result<(), StorageError> {
        let count = self.payload_count(payloads);
        self.check_bounds((start..start + count as u64).take(count))?;
        let chunk = batch_chunk_blocks(self.payload_len);
        let mut at = 0usize;
        while at < count {
            let n = chunk.min(count - at);
            let slice = &payloads[at * self.payload_len..(at + n) * self.payload_len];
            self.seal_batch(start + at as u64, n, None, slice);
            host.write_blocks(self.region, start + at as u64, &self.batch)?;
            at += n;
        }
        Ok(())
    }

    /// Scatter variant of [`SealedRegion::write_batch`]: payload `i` is
    /// sealed for block `indices[i]`.
    pub fn write_batch_at<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        indices: &[u64],
        payloads: &[u8],
    ) -> Result<(), StorageError> {
        let count = self.payload_count(payloads);
        assert_eq!(count, indices.len(), "one payload per index");
        self.check_bounds(indices.iter().copied())?;
        self.seal_batch(0, count, Some(indices), payloads);
        host.write_blocks_at(self.region, indices, &self.batch)?;
        Ok(())
    }

    fn payload_count(&self, payloads: &[u8]) -> usize {
        assert!(
            self.payload_len > 0 && payloads.len() % self.payload_len == 0,
            "batch must be a whole number of payloads"
        );
        payloads.len() / self.payload_len
    }

    /// Seals `count` payloads into `self.batch`, bumping revisions and the
    /// write counter exactly as `count` per-block writes would.
    fn seal_batch(&mut self, start: u64, count: usize, indices: Option<&[u64]>, payloads: &[u8]) {
        let payload_len = self.payload_len;
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::SealBatch);
        if oblidb_telemetry::enabled() {
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::BlocksSealed, count as u64);
            oblidb_telemetry::counter_add(
                oblidb_telemetry::Counter::BytesSealed,
                (count * payload_len) as u64,
            );
            oblidb_telemetry::histogram_record(
                oblidb_telemetry::HistogramId::SealBatchBlocks,
                count as u64,
            );
        }
        self.batch.clear();
        self.batch.resize(count * (payload_len + SEAL_OVERHEAD), 0);
        // Assign every block's (revision, nonce counter) in batch order —
        // the exact values a per-block loop would assign, kept
        // per-position so duplicate scatter indices stay well-defined —
        // then seal the whole run through the fused batch AEAD
        // (`nonce ‖ ciphertext ‖ tag` per block, byte-identical to a
        // per-block seal loop).
        let mut reserved: Vec<(u64, u64)> = Vec::with_capacity(count);
        for i in 0..count {
            let index = batch_index(start, indices, i);
            let slot = &mut self.revisions[index as usize];
            *slot += 1;
            self.write_counter += 1;
            reserved.push((*slot, self.write_counter));
        }
        let region = self.region;
        aead::seal_run(
            &self.key,
            payload_len,
            payloads,
            &mut self.batch,
            |i| Nonce::from_parts(region.0, reserved[i].1),
            |i| block_aad(batch_index(start, indices, i), reserved[i].0),
        );
    }

    /// Grows the region to `new_blocks`, sealing zeroed payloads into the
    /// new tail (batched, like [`SealedRegion::create`]).
    pub fn grow<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        new_blocks: usize,
    ) -> Result<(), StorageError> {
        let old = self.revisions.len();
        if new_blocks <= old {
            return Ok(());
        }
        host.grow_region(self.region, new_blocks)?;
        self.revisions.resize(new_blocks, 0);
        self.zero_fill(host, old, new_blocks - old)
    }

    /// Releases the untrusted allocation.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), StorageError> {
        host.free_region(self.region)?;
        Ok(())
    }

    /// Re-attaches to a region whose untrusted blocks already exist,
    /// injecting the trusted state (revision counters, nonce counter) the
    /// caller recovered from a verified source.
    ///
    /// This is the building block under
    /// [`SealedRegion::open_with_manifest`] and the WAL tail scan; wrong
    /// revision values are safe — they surface as
    /// [`StorageError::TamperDetected`] on first read, never as silently
    /// accepted stale data. `write_counter` must be at least the largest
    /// counter ever used under `key` for this region, or nonces would
    /// repeat; the sealed manifest guarantees that by recording the
    /// post-seal counter.
    pub fn attach(
        region: RegionId,
        key: AeadKey,
        payload_len: usize,
        revisions: Vec<u64>,
        write_counter: u64,
    ) -> Self {
        SealedRegion {
            region,
            key,
            payload_len,
            write_counter,
            revisions,
            scratch: vec![0u8; payload_len + SEAL_OVERHEAD],
            batch: Vec::new(),
        }
    }

    /// Seals this region's trusted state — the per-block revision counters
    /// and the nonce counter — into an encrypted + MACed **manifest** blob
    /// that can live in untrusted storage across an enclave restart.
    ///
    /// Layout: `nonce (12) ‖ ciphertext ‖ tag (16)`, sealed under the
    /// region's own key with manifest-specific associated data (so a
    /// manifest can never be confused with a block, and a manifest for one
    /// region can never be replayed into another). The nonce consumes one
    /// tick of the region's write counter, and the *post-seal* counter is
    /// what the manifest records — a reopened region resumes past every
    /// nonce ever used.
    ///
    /// Rollback model: a region file rolled back relative to its manifest
    /// fails block authentication (stale revision) on first read. Rolling
    /// back manifest *and* region files together to an older, mutually
    /// consistent checkpoint is undetectable without a hardware monotonic
    /// counter — the classic sealed-storage limitation, documented in the
    /// README.
    pub fn seal_manifest(&mut self) -> Vec<u8> {
        self.write_counter += 1;
        let nonce = Nonce::from_parts(self.region.0, self.write_counter);
        let mut plain = Vec::with_capacity(24 + self.revisions.len() * 8);
        plain.extend_from_slice(&(self.payload_len as u64).to_le_bytes());
        plain.extend_from_slice(&self.write_counter.to_le_bytes());
        plain.extend_from_slice(&(self.revisions.len() as u64).to_le_bytes());
        for rev in &self.revisions {
            plain.extend_from_slice(&rev.to_le_bytes());
        }
        let aad = Self::manifest_aad(self.region);
        let mut out = Vec::with_capacity(NONCE_LEN + plain.len() + TAG_LEN);
        out.extend_from_slice(&nonce.0);
        out.extend_from_slice(&plain);
        let tag = aead::seal(&self.key, &nonce, &aad, &mut out[NONCE_LEN..]);
        out.extend_from_slice(&tag);
        out
    }

    /// Reconstructs a region's trusted state from a manifest produced by
    /// [`SealedRegion::seal_manifest`], verifying its authenticity.
    ///
    /// Returns [`StorageError::ManifestRejected`] when the blob fails
    /// authentication (tampered, truncated, or sealed under a different
    /// key/region). The caller must separately cross-check the untrusted
    /// region's observed geometry (`region_len`, `region_block_size`)
    /// against [`SealedRegion::len`] / [`SealedRegion::payload_len`] — a
    /// mismatch means the host swapped in a different file.
    pub fn open_with_manifest(
        region: RegionId,
        key: AeadKey,
        manifest: &[u8],
    ) -> Result<Self, StorageError> {
        let rejected = StorageError::ManifestRejected { region };
        if manifest.len() < NONCE_LEN + TAG_LEN + 24 {
            return Err(rejected);
        }
        let nonce = Nonce(manifest[..NONCE_LEN].try_into().expect("nonce length"));
        let tag: [u8; TAG_LEN] =
            manifest[manifest.len() - TAG_LEN..].try_into().expect("tag length");
        let mut plain = manifest[NONCE_LEN..manifest.len() - TAG_LEN].to_vec();
        let aad = Self::manifest_aad(region);
        aead::open(&key, &nonce, &aad, &mut plain, &tag).map_err(|_| rejected)?;
        let word = |at: usize| u64::from_le_bytes(plain[at..at + 8].try_into().expect("u64"));
        let payload_len = word(0) as usize;
        let write_counter = word(8);
        let blocks = word(16) as usize;
        if plain.len() != 24 + blocks * 8 {
            return Err(rejected);
        }
        let revisions = (0..blocks).map(|i| word(24 + i * 8)).collect();
        Ok(Self::attach(region, key, payload_len, revisions, write_counter))
    }

    /// The associated data binding a manifest to its region identity.
    fn manifest_aad(region: RegionId) -> [u8; 20] {
        let mut aad = [0u8; 20];
        aad[..16].copy_from_slice(b"oblidb-region-mf");
        aad[16..].copy_from_slice(&region.0.to_le_bytes());
        aad
    }
}

/// The absolute block index at batch position `pos`: `indices[pos]` for a
/// gather/scatter batch, `start + pos` for a contiguous one.
fn batch_index(start: u64, indices: Option<&[u64]>, pos: usize) -> u64 {
    indices.map_or(start + pos as u64, |idx| idx[pos])
}

/// `count` sealed blocks of `payload_len`-byte payloads moved one way in
/// `crossings` boundary transitions.
fn moved(write: bool, payload_len: usize, count: u64, crossings: u64) -> HostStats {
    let bytes = count * (payload_len + SEAL_OVERHEAD) as u64;
    if write {
        HostStats { writes: count, bytes_written: bytes, crossings, ..HostStats::default() }
    } else {
        HostStats { reads: count, bytes_read: bytes, crossings, ..HostStats::default() }
    }
}

/// The per-block AAD: block index ‖ revision, little-endian.
fn block_aad(index: u64, revision: u64) -> [u8; 16] {
    let mut aad = [0u8; 16];
    aad[..8].copy_from_slice(&index.to_le_bytes());
    aad[8..].copy_from_slice(&revision.to_le_bytes());
    aad
}

/// A streaming cursor over a [`SealedRegion`]: yields the region's
/// payloads front to back in chunks of a configurable block count, one
/// boundary crossing per chunk.
///
/// The chunk size is fixed at construction (a public function of block
/// geometry; see [`batch_chunk_blocks`]), so the resulting access pattern
/// is a deterministic function of the region length alone — scans stay
/// oblivious. Typical use:
///
/// ```ignore
/// let mut scan = SealedScan::new(&region);
/// while let Some((start, payloads)) = scan.next_chunk(host, &mut region)? {
///     for (off, payload) in payloads.chunks_exact(region.payload_len()).enumerate() {
///         let index = start + off as u64;
///         // ... per-block work ...
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SealedScan {
    next: u64,
    end: u64,
    chunk: usize,
}

impl SealedScan {
    /// A cursor over all of `region`, at the default chunk size for its
    /// payload length.
    pub fn new(region: &SealedRegion) -> Self {
        Self::with_chunk(region, batch_chunk_blocks(region.payload_len()))
    }

    /// A cursor over all of `region` with an explicit chunk size (blocks
    /// per crossing, clamped to at least 1).
    pub fn with_chunk(region: &SealedRegion, chunk: usize) -> Self {
        SealedScan { next: 0, end: region.len(), chunk: chunk.max(1) }
    }

    /// A cursor over blocks `[start, end)` of a region.
    pub fn over(range: std::ops::Range<u64>, chunk: usize) -> Self {
        SealedScan { next: range.start, end: range.end, chunk: chunk.max(1) }
    }

    /// Reads the next chunk, returning `(first block index, concatenated
    /// payloads)`, or `None` once the region is exhausted. The slice
    /// borrows `region`'s scratch buffer.
    pub fn next_chunk<'r, M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        region: &'r mut SealedRegion,
    ) -> Result<Option<(u64, &'r [u8])>, StorageError> {
        if self.next >= self.end {
            return Ok(None);
        }
        let start = self.next;
        let n = (self.chunk as u64).min(self.end - start) as usize;
        self.next += n as u64;
        let payloads = region.read_batch(host, start, n)?;
        Ok(Some((start, payloads)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    fn setup(blocks: usize, payload: usize) -> (Host, SealedRegion) {
        let mut host = Host::new();
        let region = SealedRegion::create(&mut host, AeadKey([7u8; 32]), blocks, payload).unwrap();
        (host, region)
    }

    #[test]
    fn roundtrip() {
        let (mut host, mut r) = setup(4, 32);
        let data = [0xABu8; 32];
        r.write(&mut host, 1, &data).unwrap();
        assert_eq!(r.read(&mut host, 1).unwrap(), &data);
    }

    #[test]
    fn fresh_region_reads_zeros() {
        let (mut host, mut r) = setup(3, 16);
        assert_eq!(r.read(&mut host, 2).unwrap(), &[0u8; 16]);
    }

    #[test]
    fn rewrites_are_rerandomized() {
        // A dummy write (same plaintext) must change the ciphertext.
        let (mut host, mut r) = setup(2, 16);
        let data = [5u8; 16];
        r.write(&mut host, 0, &data).unwrap();
        let sealed1 = host.adversary_snapshot(r.region_id(), 0).unwrap();
        r.write(&mut host, 0, &data).unwrap();
        let sealed2 = host.adversary_snapshot(r.region_id(), 0).unwrap();
        assert_ne!(sealed1, sealed2);
        assert_eq!(r.read(&mut host, 0).unwrap(), &data);
    }

    #[test]
    fn bit_flip_detected() {
        let (mut host, mut r) = setup(2, 16);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        let rid = r.region_id();
        host.adversary_corrupt(rid, 0, |b| b[NONCE_LEN] ^= 1);
        assert_eq!(
            r.read(&mut host, 0).err(),
            Some(StorageError::TamperDetected { region: rid, index: 0 })
        );
    }

    #[test]
    fn nonce_tamper_detected() {
        let (mut host, mut r) = setup(2, 16);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        host.adversary_corrupt(r.region_id(), 0, |b| b[0] ^= 1);
        assert!(matches!(r.read(&mut host, 0), Err(StorageError::TamperDetected { .. })));
    }

    #[test]
    fn tag_tamper_detected() {
        let (mut host, mut r) = setup(2, 16);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        host.adversary_corrupt(r.region_id(), 0, |b| {
            let last = b.len() - 1;
            b[last] ^= 0x80;
        });
        assert!(matches!(r.read(&mut host, 0), Err(StorageError::TamperDetected { .. })));
    }

    #[test]
    fn block_shuffle_detected() {
        // Swapping two validly sealed blocks must fail: the index is bound
        // into the AAD.
        let (mut host, mut r) = setup(2, 16);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        r.write(&mut host, 1, &[2u8; 16]).unwrap();
        host.adversary_swap(r.region_id(), 0, 1);
        assert!(matches!(r.read(&mut host, 0), Err(StorageError::TamperDetected { .. })));
        assert!(matches!(r.read(&mut host, 1), Err(StorageError::TamperDetected { .. })));
    }

    #[test]
    fn rollback_detected() {
        // Replaying an older (validly sealed) version of a block must fail:
        // the revision number in the enclave has moved on.
        let (mut host, mut r) = setup(2, 16);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        let old = host.adversary_snapshot(r.region_id(), 0).unwrap();
        r.write(&mut host, 0, &[2u8; 16]).unwrap();
        let rid = r.region_id();
        host.adversary_restore(rid, 0, old);
        assert_eq!(
            r.read(&mut host, 0).err(),
            Some(StorageError::TamperDetected { region: rid, index: 0 })
        );
    }

    #[test]
    fn cross_region_block_transplant_detected() {
        // A block sealed for one table cannot be planted into another:
        // regions use distinct keys.
        let mut host = Host::new();
        let mut a = SealedRegion::create(&mut host, AeadKey([1u8; 32]), 2, 16).unwrap();
        let mut b = SealedRegion::create(&mut host, AeadKey([2u8; 32]), 2, 16).unwrap();
        a.write(&mut host, 0, &[9u8; 16]).unwrap();
        let stolen = host.adversary_snapshot(a.region_id(), 0).unwrap();
        host.adversary_restore(b.region_id(), 0, stolen);
        assert!(matches!(b.read(&mut host, 0), Err(StorageError::TamperDetected { .. })));
    }

    #[test]
    fn grow_preserves_and_extends() {
        let (mut host, mut r) = setup(2, 8);
        r.write(&mut host, 1, &[3u8; 8]).unwrap();
        r.grow(&mut host, 5).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.read(&mut host, 1).unwrap(), &[3u8; 8]);
        assert_eq!(r.read(&mut host, 4).unwrap(), &[0u8; 8]);
    }

    #[test]
    fn sealed_block_size_is_payload_plus_overhead() {
        let (host, r) = setup(1, 100);
        assert_eq!(host.region_block_size(r.region_id()).unwrap(), 100 + SEAL_OVERHEAD);
    }

    #[test]
    fn out_of_bounds_write_errors() {
        let (mut host, mut r) = setup(2, 8);
        assert!(matches!(r.write(&mut host, 7, &[0u8; 8]), Err(StorageError::Host(_))));
    }

    #[test]
    fn batch_roundtrip_matches_per_block() {
        let (mut host, mut r) = setup(8, 16);
        let payloads: Vec<u8> = (0..8 * 16).map(|i| i as u8).collect();
        r.write_batch(&mut host, 0, &payloads).unwrap();
        assert_eq!(r.read_batch(&mut host, 0, 8).unwrap(), &payloads[..]);
        for i in 0..8u64 {
            let expected = &payloads[i as usize * 16..(i as usize + 1) * 16];
            assert_eq!(r.read(&mut host, i).unwrap(), expected, "per-block read of batch write");
        }
    }

    #[test]
    fn batch_gather_scatter_roundtrip() {
        let (mut host, mut r) = setup(8, 8);
        let indices = [6u64, 1, 3];
        let payloads: Vec<u8> = (0..24).collect();
        r.write_batch_at(&mut host, &indices, &payloads).unwrap();
        assert_eq!(r.read_batch_at(&mut host, &indices).unwrap(), &payloads[..]);
        assert_eq!(r.read(&mut host, 1).unwrap(), &payloads[8..16]);
        assert_eq!(r.read(&mut host, 0).unwrap(), &[0u8; 8], "untouched blocks stay zero");

        // A 128-block scatter over reversed indices leaves the sealed bytes
        // the per-block `write` loop leaves, and gathers back what went in.
        let blocks = 128;
        let indices: Vec<u64> = (0..blocks as u64).rev().collect();
        let payloads: Vec<u8> = (0..blocks * 8).map(|i| (i % 249) as u8).collect();
        let (mut batched_host, mut batched) = setup(blocks, 8);
        batched.write_batch_at(&mut batched_host, &indices, &payloads).unwrap();
        assert_eq!(batched.read_batch_at(&mut batched_host, &indices).unwrap(), &payloads[..]);
        let (mut looped_host, mut looped) = setup(blocks, 8);
        for (&index, payload) in indices.iter().zip(payloads.chunks_exact(8)) {
            looped.write(&mut looped_host, index, payload).unwrap();
        }
        for i in 0..blocks as u64 {
            assert_eq!(
                batched_host.adversary_snapshot(batched.region_id(), i),
                looped_host.adversary_snapshot(looped.region_id(), i),
                "scatter-sealed block {i} must be bit-identical to the per-block write"
            );
        }
    }

    #[test]
    fn batch_is_one_crossing() {
        let (mut host, mut r) = setup(16, 8);
        host.reset_stats();
        let payloads = vec![7u8; 16 * 8];
        r.write_batch(&mut host, 0, &payloads).unwrap();
        r.read_batch(&mut host, 0, 16).unwrap();
        let s = host.stats();
        assert_eq!((s.reads, s.writes), (16, 16));
        assert_eq!(s.crossings, 2, "one crossing per batched call");
    }

    #[test]
    fn priced_calls_cost_what_they_cost_on_host() {
        for payload in [17usize, 300, 4000] {
            let chunk = batch_chunk_blocks(payload) as u64;
            for count in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
                let at = format!("payload {payload}, count {count}");
                let (mut host, mut r) = setup(count.max(1) as usize, payload);
                assert_eq!(host.stats(), SealedRegion::create_cost(payload, count.max(1)), "{at}");
                let data = vec![3u8; count as usize * payload];
                let indices: Vec<u64> = (0..count).rev().collect();

                host.reset_stats();
                r.write_batch(&mut host, 0, &data).unwrap();
                assert_eq!(host.stats(), SealedRegion::write_batch_cost(payload, count), "{at}");
                host.reset_stats();
                r.read_batch(&mut host, 0, count as usize).unwrap();
                assert_eq!(host.stats(), SealedRegion::read_batch_cost(payload, count), "{at}");
                host.reset_stats();
                r.write_batch_at(&mut host, &indices, &data).unwrap();
                assert_eq!(host.stats(), SealedRegion::write_batch_at_cost(payload, count), "{at}");
                host.reset_stats();
                r.read_batch_at(&mut host, &indices).unwrap();
                assert_eq!(host.stats(), SealedRegion::read_batch_at_cost(payload, count), "{at}");
            }
        }
    }

    #[test]
    fn create_zero_init_is_batched() {
        let mut host = Host::new();
        host.reset_stats();
        let r = SealedRegion::create(&mut host, AeadKey([7u8; 32]), 100, 32).unwrap();
        let s = host.stats();
        assert_eq!(s.writes, 100);
        assert_eq!(s.crossings, 1, "zero-init of 100 small blocks fits one batch");
        drop(r);
    }

    #[test]
    fn batch_tamper_reports_offending_index() {
        let (mut host, mut r) = setup(128, 16);
        r.write_batch(&mut host, 0, &[5u8; 128 * 16]).unwrap();
        let rid = r.region_id();
        host.adversary_corrupt(rid, 5, |b| b[NONCE_LEN] ^= 1);
        assert_eq!(
            r.read_batch(&mut host, 2, 6).err(),
            Some(StorageError::TamperDetected { region: rid, index: 5 }),
            "the tampered block's absolute index surfaces from inside the batch"
        );
        // Gather path reports the same absolute index.
        assert_eq!(
            r.read_batch_at(&mut host, &[1, 5, 7]).err(),
            Some(StorageError::TamperDetected { region: rid, index: 5 })
        );
        // Two corrupted blocks in one batch: the first in batch order is
        // reported, which for a gather is not the lowest index.
        host.adversary_corrupt(rid, 125, |b| b[NONCE_LEN] ^= 1);
        assert_eq!(
            r.read_batch(&mut host, 0, 128).err(),
            Some(StorageError::TamperDetected { region: rid, index: 5 })
        );
        assert_eq!(
            r.read_batch_at(&mut host, &[125, 1, 5]).err(),
            Some(StorageError::TamperDetected { region: rid, index: 125 })
        );
    }

    #[test]
    fn batch_rewrites_are_rerandomized() {
        let (mut host, mut r) = setup(2, 16);
        let data = vec![5u8; 2 * 16];
        r.write_batch(&mut host, 0, &data).unwrap();
        let sealed1 = host.adversary_snapshot(r.region_id(), 1).unwrap();
        r.write_batch(&mut host, 0, &data).unwrap();
        let sealed2 = host.adversary_snapshot(r.region_id(), 1).unwrap();
        assert_ne!(sealed1, sealed2, "batched dummy writes re-randomize like per-block ones");
    }

    #[test]
    fn batch_out_of_bounds_rejected_before_crossing() {
        let (mut host, mut r) = setup(4, 8);
        host.reset_stats();
        assert!(matches!(r.read_batch(&mut host, 2, 4), Err(StorageError::Host(_))));
        assert!(matches!(r.write_batch(&mut host, 3, &[0u8; 16]), Err(StorageError::Host(_))));
        assert_eq!(host.stats().crossings, 0, "bad batches never cross");
    }

    #[test]
    fn sealed_scan_streams_whole_region() {
        let (mut host, mut r) = setup(10, 8);
        for i in 0..10u64 {
            r.write(&mut host, i, &[i as u8; 8]).unwrap();
        }
        let mut scan = SealedScan::with_chunk(&r, 4);
        let mut seen = Vec::new();
        host.reset_stats();
        while let Some((start, payloads)) = scan.next_chunk(&mut host, &mut r).unwrap() {
            for (off, p) in payloads.chunks_exact(8).enumerate() {
                seen.push((start + off as u64, p[0]));
            }
        }
        assert_eq!(seen, (0..10).map(|i| (i, i as u8)).collect::<Vec<_>>());
        assert_eq!(host.stats().crossings, 3, "10 blocks in chunks of 4 = 3 crossings");
        assert!(scan.next_chunk(&mut host, &mut r).unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn grow_zero_fills_batched() {
        let (mut host, mut r) = setup(2, 8);
        r.write(&mut host, 1, &[3u8; 8]).unwrap();
        host.reset_stats();
        r.grow(&mut host, 40).unwrap();
        assert_eq!(host.stats().crossings, 1, "38 new blocks zero-filled in one batch");
        assert_eq!(r.read(&mut host, 1).unwrap(), &[3u8; 8]);
        assert_eq!(r.read(&mut host, 39).unwrap(), &[0u8; 8]);
    }

    #[test]
    fn manifest_roundtrip_reopens_region() {
        let (mut host, mut r) = setup(4, 16);
        r.write(&mut host, 2, &[9u8; 16]).unwrap();
        let manifest = r.seal_manifest();
        let rid = r.region_id();
        let key = AeadKey([7u8; 32]);
        drop(r); // the "enclave" restarts; only host blocks + manifest survive

        let mut reopened = SealedRegion::open_with_manifest(rid, key, &manifest).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.payload_len(), 16);
        assert_eq!(reopened.read(&mut host, 2).unwrap(), &[9u8; 16]);
        assert_eq!(reopened.read(&mut host, 0).unwrap(), &[0u8; 16]);
        // Writes after reopen resume past every used nonce and read back.
        reopened.write(&mut host, 0, &[3u8; 16]).unwrap();
        assert_eq!(reopened.read(&mut host, 0).unwrap(), &[3u8; 16]);
    }

    #[test]
    fn tampered_manifest_rejected() {
        let (_host, mut r) = setup(2, 8);
        let rid = r.region_id();
        let key = AeadKey([7u8; 32]);
        let good = r.seal_manifest();
        for flip in [0, NONCE_LEN + 3, good.len() - 1] {
            let mut bad = good.clone();
            bad[flip] ^= 1;
            assert_eq!(
                SealedRegion::open_with_manifest(rid, key.clone(), &bad).err(),
                Some(StorageError::ManifestRejected { region: rid }),
                "bit flip at {flip} must be rejected"
            );
        }
        // Truncation and wrong-region replay are rejected too.
        assert!(matches!(
            SealedRegion::open_with_manifest(rid, key.clone(), &good[..10]),
            Err(StorageError::ManifestRejected { .. })
        ));
        assert!(matches!(
            SealedRegion::open_with_manifest(RegionId(99), key, &good),
            Err(StorageError::ManifestRejected { .. })
        ));
        // Wrong key (a different enclave identity) is rejected.
        assert!(matches!(
            SealedRegion::open_with_manifest(rid, AeadKey([8u8; 32]), &good),
            Err(StorageError::ManifestRejected { .. })
        ));
    }

    #[test]
    fn reopen_detects_rolled_back_block() {
        // The rollback the manifest exists to catch: the OS restores an
        // older (validly sealed) block version across a restart.
        let (mut host, mut r) = setup(2, 16);
        let rid = r.region_id();
        let key = AeadKey([7u8; 32]);
        r.write(&mut host, 0, &[1u8; 16]).unwrap();
        let stale = host.adversary_snapshot(rid, 0).unwrap();
        r.write(&mut host, 0, &[2u8; 16]).unwrap();
        let manifest = r.seal_manifest();
        drop(r);
        host.adversary_restore(rid, 0, stale);
        let mut reopened = SealedRegion::open_with_manifest(rid, key, &manifest).unwrap();
        assert_eq!(
            reopened.read(&mut host, 0).err(),
            Some(StorageError::TamperDetected { region: rid, index: 0 }),
            "a stale block must not authenticate against the reopened revisions"
        );
    }

    #[test]
    fn manifest_ciphertext_hides_revisions() {
        let (mut host, mut r) = setup(3, 8);
        for _ in 0..5 {
            r.write(&mut host, 1, &[1u8; 8]).unwrap();
        }
        let manifest = r.seal_manifest();
        // Revision 6 of block 1 must not be readable from the blob.
        let needle = 6u64.to_le_bytes();
        assert!(!manifest.windows(8).any(|w| w == needle));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut host, mut r) = setup(1, 16);
        let secret = *b"TOPSECRET_VALUE!";
        r.write(&mut host, 0, &secret).unwrap();
        let sealed = host.adversary_snapshot(r.region_id(), 0).unwrap();
        // The plaintext must not appear anywhere in the sealed bytes.
        assert!(!sealed.windows(4).any(|w| w == &secret[..4]));
    }
}
