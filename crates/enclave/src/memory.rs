//! The block-store seam every layer of the engine is written against.
//!
//! ObliDB's trusted code never cares *where* untrusted blocks live — only
//! that each boundary crossing is observable. [`EnclaveMemory`] captures
//! exactly the surface the engine needs (allocate / free / grow / read /
//! write / stats / trace), so the same operators run unchanged over the
//! in-memory [`Host`] and the disk-backed, cached and sharded substrates.

use crate::host::{batch_count, Host, HostError, HostStats, RegionId, Trace};

/// Abstract untrusted block memory, as seen from inside the enclave.
///
/// Everything the engine does to the outside world goes through this trait;
/// region identity, block indices and access direction are public (the
/// adversary's view), payload bytes are sealed before they arrive here.
///
/// [`Host`] is the default implementor. Code generic over
/// `M: EnclaveMemory` must keep its *access pattern* independent of
/// payload contents; that is the obliviousness property the test suite
/// asserts via trace equality.
pub trait EnclaveMemory {
    /// Allocates a region of `blocks` blocks, each `block_size` bytes.
    ///
    /// Allocation size is public (the paper leaks data-structure sizes).
    /// Allocation is **fallible**: a disk-backed substrate that cannot
    /// create or size the backing file (ENOSPC, lost permissions) surfaces
    /// [`HostError::Io`] with [`IoOp::Alloc`](crate::IoOp) context instead
    /// of panicking; in-memory substrates always return `Ok`.
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError>;

    /// Frees a region (e.g. an intermediate table that was consumed).
    /// Fallible for the same reason as [`EnclaveMemory::alloc_region`]
    /// (deleting a region file can fail); freeing an unknown region is a
    /// no-op, as before.
    fn free_region(&mut self, region: RegionId) -> Result<(), HostError>;

    /// Grows a region to `new_blocks` blocks (growth is public).
    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError>;

    /// Number of blocks in a region.
    fn region_len(&self, region: RegionId) -> Result<u64, HostError>;

    /// The sealed-block size of a region.
    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError>;

    /// Reads a sealed block. Observable by the adversary.
    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError>;

    /// Writes a sealed block. Observable by the adversary.
    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError>;

    /// Reads `count` consecutive sealed blocks starting at `start` into
    /// `out` (cleared first). The adversary observes every block index
    /// either way; batching only amortizes the per-crossing cost, so
    /// [`HostStats::crossings`](crate::HostStats) is the one counter where
    /// substrates with native support differ from this per-block fallback.
    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        for i in 0..count as u64 {
            let block = self.read(region, start + i)?;
            out.extend_from_slice(block);
        }
        Ok(())
    }

    /// Gather read: the sealed blocks at `indices`, in order, into `out`
    /// (cleared first). Used for non-contiguous batches such as an ORAM
    /// root-to-leaf path. Same fallback semantics as
    /// [`EnclaveMemory::read_blocks`].
    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        for &index in indices {
            let block = self.read(region, index)?;
            out.extend_from_slice(block);
        }
        Ok(())
    }

    /// Writes `data` — a whole number of sealed blocks — to consecutive
    /// indices starting at `start`. Fallback: one `write` per block.
    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        batch_count(region, block_size, data.len())?;
        for (i, chunk) in data.chunks_exact(block_size).enumerate() {
            self.write(region, start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Scatter write: one sealed block from `data` per index in `indices`,
    /// in order. Fallback: one `write` per block.
    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        if batch_count(region, block_size, data.len())? != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        for (&index, chunk) in indices.iter().zip(data.chunks_exact(block_size)) {
            self.write(region, index, chunk)?;
        }
        Ok(())
    }

    /// Starts recording accesses (clearing any previous recording).
    fn start_trace(&mut self);

    /// Stops recording and returns the transcript.
    fn take_trace(&mut self) -> Trace;

    /// Whether a trace is being recorded.
    fn tracing(&self) -> bool;

    /// Aggregate statistics since the last [`EnclaveMemory::reset_stats`].
    fn stats(&self) -> HostStats;

    /// Zeroes the aggregate counters.
    fn reset_stats(&mut self);

    /// Whether reads return the payload bytes that were written: always
    /// `true`, and nothing in the engine asks.
    ///
    /// Every substrate keeps its payloads. The method stays only because
    /// the end-to-end benchmark's timing wrapper (`e2ebench/src/timed.rs`)
    /// still overrides it and that package changes only together with the
    /// benchmark definition. Delete it together with that override.
    fn retains_payloads(&self) -> bool {
        true
    }

    /// Flushes any buffered state down to the substrate's durable medium.
    ///
    /// Durable substrates (disk-backed files) fsync; caching substrates
    /// write back dirty blocks to their inner store and then sync it;
    /// purely in-memory substrates ([`Host`]) have nothing to flush and
    /// keep this default no-op. Called from WAL checkpoint paths, so a
    /// checkpoint means the same thing on every substrate. Flush writes
    /// are driven by which blocks are dirty — state the adversary already
    /// observed being written — so syncing adds no new leakage.
    fn sync(&mut self) -> Result<(), HostError> {
        Ok(())
    }

    /// Flushes one region's buffered state down to the durable medium.
    ///
    /// The write-ahead-log append path uses this: a log record must be
    /// durable *before* its mutation executes, without paying a full-store
    /// flush per statement. Disk substrates fsync just that region's file;
    /// caching substrates write back just that region's dirty blocks. The
    /// default falls back to a full [`EnclaveMemory::sync`], which is
    /// always correct (it flushes a superset).
    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let _ = region;
        self.sync()
    }
}

impl EnclaveMemory for Host {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        Host::alloc_region(self, blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        Host::free_region(self, region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        Host::grow_region(self, region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        Host::region_len(self, region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        Host::region_block_size(self, region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        Host::read(self, region, index)
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        Host::write(self, region, index, data)
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        Host::read_blocks(self, region, start, count, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        Host::read_blocks_at(self, region, indices, out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        Host::write_blocks(self, region, start, data)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        Host::write_blocks_at(self, region, indices, data)
    }

    fn start_trace(&mut self) {
        Host::start_trace(self)
    }

    fn take_trace(&mut self) -> Trace {
        Host::take_trace(self)
    }

    fn tracing(&self) -> bool {
        Host::tracing(self)
    }

    fn stats(&self) -> HostStats {
        Host::stats(self)
    }

    fn reset_stats(&mut self) {
        Host::reset_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_io_is_one_crossing_per_call() {
        let mut m = Host::new();
        let r = EnclaveMemory::alloc_region(&mut m, 8, 4).unwrap();
        EnclaveMemory::start_trace(&mut m);
        let data: Vec<u8> = (0..24).collect();
        EnclaveMemory::write_blocks(&mut m, r, 1, &data).unwrap();
        let mut out = Vec::new();
        EnclaveMemory::read_blocks(&mut m, r, 1, 6, &mut out).unwrap();
        assert_eq!(out, data);
        EnclaveMemory::write_blocks_at(&mut m, r, &[7, 2, 0], &data[..12]).unwrap();
        EnclaveMemory::read_blocks_at(&mut m, r, &[0, 7], &mut out).unwrap();
        assert_eq!(out, [&data[8..12], &data[..4]].concat());
        let (trace, stats) = (EnclaveMemory::take_trace(&mut m), EnclaveMemory::stats(&m));
        assert_eq!(stats.crossings, 4, "one crossing per batched call");
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.writes, 9);
        // Per-block events are still all recorded for the adversary.
        assert_eq!(trace.len(), 17);
    }

    #[test]
    fn batched_matches_per_block_loop_except_crossings() {
        let mut a = Host::new();
        let mut b = Host::new();
        let ra = EnclaveMemory::alloc_region(&mut a, 4, 2).unwrap();
        let rb = EnclaveMemory::alloc_region(&mut b, 4, 2).unwrap();
        let data = [1u8, 2, 3, 4, 5, 6];
        EnclaveMemory::write_blocks(&mut a, ra, 0, &data).unwrap();
        for (i, chunk) in data.chunks(2).enumerate() {
            EnclaveMemory::write(&mut b, rb, i as u64, chunk).unwrap();
        }
        let mut out = Vec::new();
        EnclaveMemory::read_blocks(&mut a, ra, 0, 3, &mut out).unwrap();
        let mut per_block = Vec::new();
        for i in 0..3 {
            per_block.extend_from_slice(EnclaveMemory::read(&mut b, rb, i).unwrap());
        }
        assert_eq!(out, per_block, "batched read returns the same bytes");
        let (sa, sb) = (EnclaveMemory::stats(&a), EnclaveMemory::stats(&b));
        assert_eq!((sa.reads, sa.writes, sa.bytes_read), (sb.reads, sb.writes, sb.bytes_read));
        assert_eq!(sa.crossings, 2);
        assert_eq!(sb.crossings, 6);
    }

    #[test]
    fn batched_errors_match_per_block_contract() {
        let mut m = Host::new();
        let r = EnclaveMemory::alloc_region(&mut m, 4, 2).unwrap();
        let mut out = Vec::new();
        // Unwritten block inside the batch: same EmptyBlock as per-block.
        m.write_blocks(r, 0, &[0u8; 4]).unwrap();
        assert_eq!(m.read_blocks(r, 0, 4, &mut out), Err(HostError::EmptyBlock(r, 2)));
        // Out of bounds inside the batch.
        assert!(matches!(
            m.write_blocks(r, 3, &[0u8; 4]),
            Err(HostError::OutOfBounds { index: 4, .. })
        ));
        // Ragged buffers are rejected up front.
        assert!(matches!(
            m.write_blocks(r, 0, &[0u8; 3]),
            Err(HostError::BlockSizeMismatch { .. })
        ));
        assert!(matches!(
            m.write_blocks_at(r, &[0, 1], &[0u8; 2]),
            Err(HostError::BlockSizeMismatch { .. })
        ));
    }
}
