//! The untrusted host: block-granular memory regions with access tracing.

use std::fmt;

/// Identifies one untrusted memory region (e.g. one table file, one ORAM
/// bucket tree). Region identity is public information — the paper does not
/// hide *which table* a query touches, only which blocks within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// The direction of a boundary crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The enclave read a block from untrusted memory.
    Read,
    /// The enclave wrote a block to untrusted memory.
    Write,
}

/// One observable memory access: what the OS-level adversary sees.
///
/// Note what is *absent*: the adversary never sees plaintext contents (blocks
/// are sealed by the storage layer before they reach the host), only the
/// (region, block index, direction) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessEvent {
    /// Which region was touched.
    pub region: RegionId,
    /// Which block within the region.
    pub index: u64,
    /// Read or write.
    pub kind: AccessKind,
}

/// A recorded sequence of accesses — the adversary's transcript
/// (`TRACE(D, Q)` in the paper's Appendix A).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace(pub Vec<AccessEvent>);

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The events restricted to one region (useful for per-table assertions).
    pub fn for_region(&self, region: RegionId) -> Vec<AccessEvent> {
        self.0.iter().copied().filter(|e| e.region == region).collect()
    }
}

/// Aggregate access statistics (always maintained; cheap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Total block reads.
    pub reads: u64,
    /// Total block writes.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Enclave boundary transitions. A per-block read or write costs one;
    /// a batched call transfers any number of blocks in one. On real SGX
    /// each transition is an OCALL-sized fixed cost, so
    /// `crossings << reads + writes` is what batching buys.
    pub crossings: u64,
    /// Always 0: no substrate prices a crossing, it only counts one, and a
    /// priced figure is `crossings × price` computed by whoever reports it.
    /// The field stays only because the end-to-end bench still reads it
    /// (its `enclave.stall_ms`); ROADMAP item 6, which moves that bench
    /// into the workspace, deletes it.
    pub stall_nanos: u64,
}

impl HostStats {
    /// Total block accesses (reads + writes). Block counts — not boundary
    /// transitions; see [`HostStats::crossings`] for those.
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Wraps these counters in a named [`StatsReport`] for uniform
    /// rendering across substrates (bench tables, JSON rows).
    pub fn report(self, name: impl Into<String>) -> StatsReport {
        StatsReport { name: name.into(), stats: self }
    }
}

impl std::ops::AddAssign for HostStats {
    fn add_assign(&mut self, rhs: HostStats) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.bytes_read += rhs.bytes_read;
        self.bytes_written += rhs.bytes_written;
        self.crossings += rhs.crossings;
        self.stall_nanos += rhs.stall_nanos;
    }
}

impl std::ops::Add for HostStats {
    type Output = HostStats;

    fn add(mut self, rhs: HostStats) -> HostStats {
        self += rhs;
        self
    }
}

impl std::ops::Mul<u64> for HostStats {
    type Output = HostStats;

    /// `n` repetitions of the same work: how a cost model prices a loop
    /// whose body's accesses it has counted once.
    fn mul(self, n: u64) -> HostStats {
        HostStats {
            reads: self.reads * n,
            writes: self.writes * n,
            bytes_read: self.bytes_read * n,
            bytes_written: self.bytes_written * n,
            crossings: self.crossings * n,
            stall_nanos: self.stall_nanos * n,
        }
    }
}

impl std::ops::Sub for HostStats {
    type Output = HostStats;

    /// Counter delta (saturating, so a reset between snapshots cannot
    /// underflow): the access cost of the work between two
    /// [`EnclaveMemory::stats`](crate::EnclaveMemory::stats) snapshots —
    /// how the planner attributes measured cost to individual plan nodes.
    fn sub(self, rhs: HostStats) -> HostStats {
        HostStats {
            reads: self.reads.saturating_sub(rhs.reads),
            writes: self.writes.saturating_sub(rhs.writes),
            bytes_read: self.bytes_read.saturating_sub(rhs.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(rhs.bytes_written),
            crossings: self.crossings.saturating_sub(rhs.crossings),
            stall_nanos: self.stall_nanos.saturating_sub(rhs.stall_nanos),
        }
    }
}

impl std::iter::Sum for HostStats {
    fn sum<I: Iterator<Item = HostStats>>(iter: I) -> HostStats {
        iter.fold(HostStats::default(), |acc, s| acc + s)
    }
}

/// Named access counters for one substrate: the uniform currency every
/// stats-reporting surface (bench tables, `BENCH_*.json` rows, test
/// diagnostics) uses, so per-substrate numbers always carry the same
/// fields in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Which substrate/configuration the counters describe.
    pub name: String,
    /// The counters themselves.
    pub stats: HostStats,
}

impl StatsReport {
    /// Column headers matching [`StatsReport::cells`].
    pub const HEADERS: [&'static str; 6] =
        ["substrate", "reads", "writes", "bytes_read", "bytes_written", "crossings"];

    /// The row cells, in [`StatsReport::HEADERS`] order.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            self.stats.reads.to_string(),
            self.stats.writes.to_string(),
            self.stats.bytes_read.to_string(),
            self.stats.bytes_written.to_string(),
            self.stats.crossings.to_string(),
        ]
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: reads={} writes={} bytes_read={} bytes_written={} crossings={}",
            self.name,
            self.stats.reads,
            self.stats.writes,
            self.stats.bytes_read,
            self.stats.bytes_written,
            self.stats.crossings
        )
    }
}

/// Which region-lifecycle or data operation an I/O failure interrupted.
///
/// Carried inside [`HostError::Io`] so a disk-full allocation reads
/// differently from a permission failure during sync — the context the
/// `Database` layer needs to report (and callers need to react to)
/// without re-deriving it from a bare [`std::io::ErrorKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Allocating a region (creating/sizing its backing file).
    Alloc,
    /// Growing a region.
    Grow,
    /// Freeing a region (deleting its backing file).
    Free,
    /// Reading blocks.
    Read,
    /// Writing blocks.
    Write,
    /// Flushing to the durable medium.
    Sync,
    /// Re-attaching to persisted state (reopen).
    Attach,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoOp::Alloc => "alloc",
            IoOp::Grow => "grow",
            IoOp::Free => "free",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Attach => "attach",
        };
        f.write_str(s)
    }
}

/// Errors from host memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostError {
    /// The region id was never allocated or was freed.
    UnknownRegion(RegionId),
    /// The block index exceeds the region length.
    OutOfBounds {
        /// Offending region.
        region: RegionId,
        /// Offending index.
        index: u64,
        /// Region length in blocks.
        len: u64,
    },
    /// The block was never written.
    EmptyBlock(RegionId, u64),
    /// A write's length differs from the region's block size.
    BlockSizeMismatch {
        /// Offending region.
        region: RegionId,
        /// Expected sealed-block size.
        expected: usize,
        /// Provided buffer size.
        got: usize,
    },
    /// The substrate's backing medium failed (disk-backed substrates;
    /// in-memory substrates never produce it). Carries the
    /// [`std::io::ErrorKind`] plus the failing operation and region (when
    /// one was involved — allocation failures may precede a region id), so
    /// disk-full vs. permission failures stay distinguishable at the
    /// `Database` API while the error stays `Copy + Eq` like every other
    /// variant.
    Io {
        /// What the OS reported.
        kind: std::io::ErrorKind,
        /// The region the operation targeted, when it had one.
        region: Option<RegionId>,
        /// Which operation failed.
        op: IoOp,
    },
}

impl HostError {
    /// Builds an [`HostError::Io`] from an [`std::io::Error`] with its
    /// operation context. The one constructor every substrate uses, so
    /// the context fields cannot drift.
    pub fn io(e: &std::io::Error, region: Option<RegionId>, op: IoOp) -> Self {
        HostError::Io { kind: e.kind(), region, op }
    }
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::UnknownRegion(r) => write!(f, "unknown region {r:?}"),
            HostError::OutOfBounds { region, index, len } => {
                write!(f, "index {index} out of bounds for region {region:?} (len {len})")
            }
            HostError::EmptyBlock(r, i) => write!(f, "block {i} in region {r:?} never written"),
            HostError::BlockSizeMismatch { region, expected, got } => write!(
                f,
                "block size mismatch in region {region:?}: expected {expected}, got {got}"
            ),
            HostError::Io { kind, region: Some(r), op } => {
                write!(f, "backing-store I/O failure during {op} of region {r:?}: {kind}")
            }
            HostError::Io { kind, region: None, op } => {
                write!(f, "backing-store I/O failure during {op}: {kind}")
            }
        }
    }
}

impl std::error::Error for HostError {}

/// Number of whole blocks in a batch buffer, or the mismatch error.
/// Shared by every batched entry point — trait defaults, native
/// implementations, and out-of-crate substrates — so the validation (and
/// the exact error shape) cannot drift.
pub fn batch_count(
    region: RegionId,
    block_size: usize,
    data_len: usize,
) -> Result<usize, HostError> {
    if block_size == 0 || data_len % block_size != 0 {
        return Err(HostError::BlockSizeMismatch { region, expected: block_size, got: data_len });
    }
    Ok(data_len / block_size)
}

struct Region {
    block_size: usize,
    blocks: Vec<Option<Box<[u8]>>>,
}

/// The untrusted world: all memory outside the enclave.
///
/// Single-threaded by design, matching the paper's single-node engine; the
/// serving front-end shares one engine, and so one substrate, behind a
/// mutex.
#[derive(Default)]
pub struct Host {
    regions: Vec<Option<Region>>,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
}

impl Host {
    /// Creates an empty untrusted memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a region of `blocks` blocks, each `block_size` bytes.
    ///
    /// Allocation size is public (the paper leaks data-structure sizes).
    /// In-RAM allocation cannot meaningfully fail, so this always returns
    /// `Ok`; the `Result` is the trait-wide contract that lets disk-backed
    /// substrates surface ENOSPC instead of panicking.
    pub fn alloc_region(
        &mut self,
        blocks: usize,
        block_size: usize,
    ) -> Result<RegionId, HostError> {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Some(Region { block_size, blocks: vec![None; blocks] }));
        Ok(id)
    }

    /// Frees a region (e.g. an intermediate table that was consumed).
    /// Always `Ok` in RAM; disk-backed substrates may fail to unlink.
    pub fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        if let Some(slot) = self.regions.get_mut(region.0 as usize) {
            *slot = None;
        }
        Ok(())
    }

    /// Grows a region to `new_blocks` blocks (used when a table is copied to
    /// a larger allocation; growth is public information).
    pub fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let r = self.region_mut(region)?;
        if new_blocks > r.blocks.len() {
            r.blocks.resize(new_blocks, None);
        }
        Ok(())
    }

    fn region(&self, region: RegionId) -> Result<&Region, HostError> {
        self.regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))
    }

    fn region_mut(&mut self, region: RegionId) -> Result<&mut Region, HostError> {
        self.regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))
    }

    /// Number of blocks in a region.
    pub fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        Ok(self.region(region)?.blocks.len() as u64)
    }

    /// The sealed-block size of a region.
    pub fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        Ok(self.region(region)?.block_size)
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    /// Reads a sealed block. Observable by the adversary.
    pub fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        // Record before borrow of region data; stats unconditionally.
        self.record(region, index, AccessKind::Read);
        let r = self
            .regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        let len = r.blocks.len() as u64;
        let block = r
            .blocks
            .get(index as usize)
            .ok_or(HostError::OutOfBounds { region, index, len })?
            .as_deref()
            .ok_or(HostError::EmptyBlock(region, index))?;
        self.stats.crossings += 1;
        self.stats.reads += 1;
        self.stats.bytes_read += block.len() as u64;
        // Reborrow immutably for the return value.
        let r = self.regions[region.0 as usize].as_ref().unwrap();
        Ok(r.blocks[index as usize].as_deref().unwrap())
    }

    /// Writes a sealed block. Observable by the adversary.
    pub fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let r = self
            .regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        if data.len() != r.block_size {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: r.block_size,
                got: data.len(),
            });
        }
        let len = r.blocks.len() as u64;
        let slot = r.blocks.get_mut(index as usize).ok_or(HostError::OutOfBounds {
            region,
            index,
            len,
        })?;
        match slot {
            Some(existing) => existing.copy_from_slice(data),
            None => *slot = Some(data.to_vec().into_boxed_slice()),
        }
        self.stats.crossings += 1;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Reads `count` consecutive sealed blocks starting at `start` into
    /// `out` (cleared first), in **one** boundary crossing. The adversary
    /// still observes every block index (one trace event per block); only
    /// the transition cost is amortized.
    pub fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, start..start + count as u64, out)
    }

    /// Gather read: the sealed blocks at `indices` (in order), one crossing.
    pub fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, indices.iter().copied(), out)
    }

    fn read_gather(
        &mut self,
        region: RegionId,
        indices: impl Iterator<Item = u64>,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let mut crossed = false;
        // Split borrows: trace/stats mutate while region data is read.
        let Host { regions, trace, stats, .. } = self;
        let r = regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        let len = r.blocks.len() as u64;
        for index in indices {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Read });
            }
            let block = r
                .blocks
                .get(index as usize)
                .ok_or(HostError::OutOfBounds { region, index, len })?
                .as_deref()
                .ok_or(HostError::EmptyBlock(region, index))?;
            if !crossed {
                // Counted only once a block validates, exactly like the
                // per-block path (failed accesses leave counters alone).
                stats.crossings += 1;
                crossed = true;
            }
            out.extend_from_slice(block);
            stats.reads += 1;
            stats.bytes_read += block.len() as u64;
        }
        Ok(())
    }

    /// Writes `data` (a whole number of sealed blocks) to consecutive
    /// indices starting at `start`, in one boundary crossing.
    pub fn write_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())?;
        self.write_scatter(region, start..start + count as u64, data)
    }

    /// Scatter write: one sealed block per index in `indices`, one crossing.
    pub fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())?;
        if count != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        self.write_scatter(region, indices.iter().copied(), data)
    }

    fn write_scatter(
        &mut self,
        region: RegionId,
        indices: impl Iterator<Item = u64>,
        data: &[u8],
    ) -> Result<(), HostError> {
        let mut crossed = false;
        let Host { regions, trace, stats, .. } = self;
        let r = regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        let len = r.blocks.len() as u64;
        for (index, chunk) in indices.zip(data.chunks_exact(r.block_size)) {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Write });
            }
            let slot = r.blocks.get_mut(index as usize).ok_or(HostError::OutOfBounds {
                region,
                index,
                len,
            })?;
            match slot {
                Some(existing) => existing.copy_from_slice(chunk),
                None => *slot = Some(chunk.to_vec().into_boxed_slice()),
            }
            if !crossed {
                stats.crossings += 1;
                crossed = true;
            }
            stats.writes += 1;
            stats.bytes_written += chunk.len() as u64;
        }
        Ok(())
    }

    /// ADVERSARY API: overwrite raw bytes without going through the enclave.
    ///
    /// Used by integrity tests to model OS tampering. Does not appear in the
    /// trace (the adversary does not observe itself).
    pub fn adversary_corrupt(&mut self, region: RegionId, index: u64, f: impl FnOnce(&mut [u8])) {
        if let Some(Some(r)) = self.regions.get_mut(region.0 as usize) {
            if let Some(Some(block)) = r.blocks.get_mut(index as usize) {
                f(block);
            }
        }
    }

    /// ADVERSARY API: swap two sealed blocks (models shuffling attacks).
    pub fn adversary_swap(&mut self, region: RegionId, a: u64, b: u64) {
        if let Some(Some(r)) = self.regions.get_mut(region.0 as usize) {
            r.blocks.swap(a as usize, b as usize);
        }
    }

    /// ADVERSARY API: snapshot a sealed block for a later replay/rollback.
    pub fn adversary_snapshot(&self, region: RegionId, index: u64) -> Option<Box<[u8]>> {
        self.regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .and_then(|r| r.blocks.get(index as usize))
            .and_then(|b| b.clone())
    }

    /// ADVERSARY API: restore a previously-snapshotted block (rollback).
    pub fn adversary_restore(&mut self, region: RegionId, index: u64, snapshot: Box<[u8]>) {
        if let Some(Some(r)) = self.regions.get_mut(region.0 as usize) {
            if let Some(slot) = r.blocks.get_mut(index as usize) {
                *slot = Some(snapshot);
            }
        }
    }

    /// Starts recording accesses (clearing any previous recording).
    pub fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the transcript.
    pub fn take_trace(&mut self) -> Trace {
        Trace(self.trace.take().unwrap_or_default())
    }

    /// Whether a trace is being recorded.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Aggregate statistics since the last [`Host::reset_stats`].
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Zeroes the aggregate counters.
    pub fn reset_stats(&mut self) {
        self.stats = HostStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        h.write(r, 2, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(h.read(r, 2).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn read_unwritten_block_fails() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        assert_eq!(h.read(r, 0), Err(HostError::EmptyBlock(r, 0)));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        assert!(matches!(h.write(r, 9, &[0; 8]), Err(HostError::OutOfBounds { .. })));
    }

    #[test]
    fn block_size_enforced() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        assert!(matches!(
            h.write(r, 0, &[0; 7]),
            Err(HostError::BlockSizeMismatch { expected: 8, got: 7, .. })
        ));
    }

    #[test]
    fn freed_region_unusable() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        h.free_region(r).unwrap();
        assert_eq!(h.read(r, 0), Err(HostError::UnknownRegion(r)));
    }

    #[test]
    fn trace_records_order_and_kind() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 8).unwrap();
        h.start_trace();
        h.write(r, 1, &[0; 8]).unwrap();
        h.read(r, 1).unwrap();
        h.write(r, 3, &[0; 8]).unwrap();
        let t = h.take_trace();
        assert_eq!(
            t.0,
            vec![
                AccessEvent { region: r, index: 1, kind: AccessKind::Write },
                AccessEvent { region: r, index: 1, kind: AccessKind::Read },
                AccessEvent { region: r, index: 3, kind: AccessKind::Write },
            ]
        );
    }

    #[test]
    fn failed_reads_still_traced() {
        // An adversary observes the *attempt*; the trace must include it.
        let mut h = Host::new();
        let r = h.alloc_region(2, 8).unwrap();
        h.start_trace();
        let _ = h.read(r, 0);
        let t = h.take_trace();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Host::new();
        let r = h.alloc_region(4, 16).unwrap();
        h.write(r, 0, &[0; 16]).unwrap();
        h.write(r, 1, &[0; 16]).unwrap();
        h.read(r, 0).unwrap();
        let s = h.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 16);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn grow_region_preserves_content() {
        let mut h = Host::new();
        let r = h.alloc_region(2, 4).unwrap();
        h.write(r, 1, &[9; 4]).unwrap();
        h.grow_region(r, 10).unwrap();
        assert_eq!(h.region_len(r).unwrap(), 10);
        assert_eq!(h.read(r, 1).unwrap(), &[9; 4]);
    }

    #[test]
    fn adversary_apis_do_not_trace() {
        let mut h = Host::new();
        let r = h.alloc_region(2, 4).unwrap();
        h.write(r, 0, &[1; 4]).unwrap();
        h.write(r, 1, &[2; 4]).unwrap();
        h.start_trace();
        h.adversary_corrupt(r, 0, |b| b[0] ^= 0xFF);
        h.adversary_swap(r, 0, 1);
        let snap = h.adversary_snapshot(r, 0).unwrap();
        h.adversary_restore(r, 0, snap);
        assert!(h.take_trace().is_empty());
    }

    #[test]
    fn reset_stats_zeroes_every_counter() {
        let mut h = Host::new();
        let r = h.alloc_region(1, 4).unwrap();
        h.write(r, 0, &[0; 4]).unwrap();
        h.read(r, 0).unwrap();
        h.reset_stats();
        assert_eq!(h.stats(), HostStats::default());
        h.write(r, 0, &[1; 4]).unwrap();
        assert_eq!(h.stats().crossings, 1);
    }

    #[test]
    fn stats_arithmetic_and_report() {
        let a = HostStats {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            crossings: 5,
            stall_nanos: 6,
        };
        let b = HostStats {
            reads: 10,
            writes: 20,
            bytes_read: 30,
            bytes_written: 40,
            crossings: 50,
            stall_nanos: 60,
        };
        let sum: HostStats = [a, b].into_iter().sum();
        assert_eq!(sum, a + b);
        assert_eq!(sum.reads, 11);
        assert_eq!(sum.crossings, 55);
        assert_eq!(sum.stall_nanos, 66);
        assert_eq!(a * 3, a + a + a);
        let report = sum.report("disk");
        assert_eq!(report.cells().len(), StatsReport::HEADERS.len());
        assert!(report.to_string().starts_with("disk: reads=11"));
        assert!(report.to_string().ends_with("crossings=55"));
    }

    #[test]
    fn trace_for_region_filters() {
        let mut h = Host::new();
        let a = h.alloc_region(2, 4).unwrap();
        let b = h.alloc_region(2, 4).unwrap();
        h.start_trace();
        h.write(a, 0, &[0; 4]).unwrap();
        h.write(b, 0, &[0; 4]).unwrap();
        h.write(a, 1, &[0; 4]).unwrap();
        let t = h.take_trace();
        assert_eq!(t.for_region(a).len(), 2);
        assert_eq!(t.for_region(b).len(), 1);
    }
}
