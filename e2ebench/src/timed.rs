//! `TimedMemory<M>`: the traced run's view of the substrate layer.
//!
//! A bench-owned [`EnclaveMemory`] wrapper that forwards every call to
//! the inner substrate unchanged and records, per call kind, how often it
//! was called, how many blocks and bytes moved, and how long the inner
//! call kept the caller busy. It owns no trace channel and no
//! [`HostStats`] of its own — `start_trace` / `take_trace` / `stats` /
//! `reset_stats` go straight through — so the engine, the auditor and
//! the conformance suites see exactly what they would see on the bare
//! substrate (asserted in this module's tests).
//!
//! Regions carry an owner label ([`TimedMemory::set_labels`], applied to
//! regions allocated while it is set), so I/O can be split between table
//! storage, the ORAM tree, the write-ahead log and operator scratch
//! without any counter inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use oblidb_enclave::{EnclaveMemory, HostError, HostStats, RegionId, Trace};

/// Who allocated a region — the label in force at `alloc_region` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Owner {
    /// Allocated while a statement ran: operator output and scratch.
    #[default]
    Scratch,
    /// The write-ahead log region.
    Wal,
    /// Flat table storage.
    Table,
    /// Path ORAM tree (and anything else an indexed table allocates).
    Oram,
}

/// Count, volume and busy time of one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made (failed ones included).
    pub calls: u64,
    /// Blocks the successful calls moved.
    pub blocks: u64,
    /// Bytes the successful calls moved.
    pub bytes: u64,
    /// Nanoseconds spent inside the inner substrate.
    pub busy_ns: u64,
}

impl CallStats {
    fn record(&mut self, started: Instant, ok: bool, blocks: u64, bytes: u64) {
        self.calls += 1;
        self.busy_ns += started.elapsed().as_nanos() as u64;
        if ok {
            self.blocks += blocks;
            self.bytes += bytes;
        }
    }
}

impl std::ops::Sub for CallStats {
    type Output = CallStats;
    fn sub(self, rhs: CallStats) -> CallStats {
        CallStats {
            calls: self.calls - rhs.calls,
            blocks: self.blocks - rhs.blocks,
            bytes: self.bytes - rhs.bytes,
            busy_ns: self.busy_ns - rhs.busy_ns,
        }
    }
}

impl std::ops::Add for CallStats {
    type Output = CallStats;
    fn add(self, rhs: CallStats) -> CallStats {
        CallStats {
            calls: self.calls + rhs.calls,
            blocks: self.blocks + rhs.blocks,
            bytes: self.bytes + rhs.bytes,
            busy_ns: self.busy_ns + rhs.busy_ns,
        }
    }
}

/// Everything [`TimedMemory`] has recorded so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimedStats {
    /// `read`, `read_blocks`, `read_blocks_at`.
    pub reads: CallStats,
    /// `write`, `write_blocks`, `write_blocks_at`.
    pub writes: CallStats,
    /// `alloc_region`, `free_region`, `grow_region` (`blocks`/`bytes`
    /// count the space allocated or grown).
    pub allocs: CallStats,
    /// `sync`, `sync_region`.
    pub syncs: CallStats,
    /// Reads and writes to ORAM-owned regions (a subset of the above).
    pub oram_io: CallStats,
    /// Reads and writes to the log region (a subset of the above).
    pub wal_io: CallStats,
}

impl std::ops::Sub for TimedStats {
    type Output = TimedStats;
    fn sub(self, rhs: TimedStats) -> TimedStats {
        TimedStats {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
            allocs: self.allocs - rhs.allocs,
            syncs: self.syncs - rhs.syncs,
            oram_io: self.oram_io - rhs.oram_io,
            wal_io: self.wal_io - rhs.wal_io,
        }
    }
}

impl std::ops::Add for TimedStats {
    type Output = TimedStats;
    fn add(self, rhs: TimedStats) -> TimedStats {
        TimedStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            allocs: self.allocs + rhs.allocs,
            syncs: self.syncs + rhs.syncs,
            oram_io: self.oram_io + rhs.oram_io,
            wal_io: self.wal_io + rhs.wal_io,
        }
    }
}

impl TimedStats {
    /// Nanoseconds inside reads and writes.
    pub fn io_ns(&self) -> u64 {
        self.reads.busy_ns + self.writes.busy_ns
    }

    /// Nanoseconds inside any substrate call.
    pub fn busy_ns(&self) -> u64 {
        self.io_ns() + self.allocs.busy_ns + self.syncs.busy_ns
    }
}

/// The timing wrapper. See the module docs.
pub struct TimedMemory<M> {
    inner: M,
    stats: TimedStats,
    /// Owner of the next region allocated, and of the ones after it.
    labels: (Owner, Owner),
    /// Owner per region id (ids are dense and small).
    owners: Vec<Owner>,
    /// Bytes read, by the sealed-block size of the region read from.
    read_bytes_by_block: BTreeMap<usize, u64>,
}

impl<M: EnclaveMemory> TimedMemory<M> {
    /// Wraps `inner`; regions allocated from now on are [`Owner::Scratch`]
    /// until [`TimedMemory::set_labels`] says otherwise.
    pub fn new(inner: M) -> Self {
        let labels = (Owner::Scratch, Owner::Scratch);
        TimedMemory {
            inner,
            stats: TimedStats::default(),
            labels,
            owners: Vec::new(),
            read_bytes_by_block: BTreeMap::new(),
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Labels the next region allocated `next` and every later one
    /// `then` (a `Both` table allocates its flat region first, then its
    /// ORAM tree).
    pub fn set_labels(&mut self, next: Owner, then: Owner) {
        self.labels = (next, then);
    }

    /// What has been recorded so far.
    pub fn timed_stats(&self) -> TimedStats {
        self.stats
    }

    /// Bytes read so far, keyed by sealed-block size: which block sizes
    /// the AEAD layer had to open, weighted by volume.
    pub fn read_bytes_by_block(&self) -> &BTreeMap<usize, u64> {
        &self.read_bytes_by_block
    }

    fn note_read(&mut self, region: RegionId, bytes: usize) {
        if let Ok(block) = self.inner.region_block_size(region) {
            *self.read_bytes_by_block.entry(block).or_default() += bytes as u64;
        }
    }

    fn owner(&self, region: RegionId) -> Owner {
        self.owners.get(region.0 as usize).copied().unwrap_or_default()
    }

    /// Blocks in `bytes` of `region` (its block size is public).
    fn blocks_in(&self, region: RegionId, bytes: usize) -> u64 {
        (bytes / self.inner.region_block_size(region).unwrap_or(0).max(1)) as u64
    }
}

impl TimedStats {
    fn record_io(
        &mut self,
        write: bool,
        owner: Owner,
        started: Instant,
        ok: bool,
        blocks: u64,
        bytes: u64,
    ) {
        let kind = if write { &mut self.writes } else { &mut self.reads };
        kind.record(started, ok, blocks, bytes);
        match owner {
            Owner::Oram => self.oram_io.record(started, ok, blocks, bytes),
            Owner::Wal => self.wal_io.record(started, ok, blocks, bytes),
            Owner::Table | Owner::Scratch => {}
        }
    }
}

impl<M: EnclaveMemory> EnclaveMemory for TimedMemory<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        let started = Instant::now();
        let result = self.inner.alloc_region(blocks, block_size);
        self.stats.allocs.record(
            started,
            result.is_ok(),
            blocks as u64,
            (blocks * block_size) as u64,
        );
        if let Ok(id) = result {
            let slot = id.0 as usize;
            if self.owners.len() <= slot {
                self.owners.resize(slot + 1, Owner::Scratch);
            }
            self.owners[slot] = self.labels.0;
            self.labels.0 = self.labels.1;
        }
        result
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let started = Instant::now();
        let result = self.inner.free_region(region);
        self.stats.allocs.record(started, result.is_ok(), 0, 0);
        result
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let before = self.inner.region_len(region).unwrap_or(0);
        let block = self.inner.region_block_size(region).unwrap_or(0) as u64;
        let started = Instant::now();
        let result = self.inner.grow_region(region, new_blocks);
        let grown = (new_blocks as u64).saturating_sub(before);
        self.stats.allocs.record(started, result.is_ok(), grown, grown * block);
        result
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        self.inner.region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        self.inner.region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        let owner = self.owner(region);
        let started = Instant::now();
        let result = self.inner.read(region, index);
        // `result` borrows only `self.inner`; the bookkeeping touches the
        // disjoint `self.stats` and `self.read_bytes_by_block`.
        let bytes = result.as_ref().map_or(0, |b| b.len());
        self.stats.record_io(false, owner, started, result.is_ok(), 1, bytes as u64);
        if result.is_ok() {
            *self.read_bytes_by_block.entry(bytes).or_default() += bytes as u64;
        }
        result
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        let owner = self.owner(region);
        let started = Instant::now();
        let result = self.inner.write(region, index, data);
        self.stats.record_io(true, owner, started, result.is_ok(), 1, data.len() as u64);
        result
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        let owner = self.owner(region);
        let started = Instant::now();
        let result = self.inner.read_blocks(region, start, count, out);
        self.stats.record_io(false, owner, started, result.is_ok(), count as u64, out.len() as u64);
        if result.is_ok() {
            self.note_read(region, out.len());
        }
        result
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        let owner = self.owner(region);
        let started = Instant::now();
        let result = self.inner.read_blocks_at(region, indices, out);
        let blocks = indices.len() as u64;
        self.stats.record_io(false, owner, started, result.is_ok(), blocks, out.len() as u64);
        if result.is_ok() {
            self.note_read(region, out.len());
        }
        result
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let (owner, blocks) = (self.owner(region), self.blocks_in(region, data.len()));
        let started = Instant::now();
        let result = self.inner.write_blocks(region, start, data);
        self.stats.record_io(true, owner, started, result.is_ok(), blocks, data.len() as u64);
        result
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let (owner, blocks) = (self.owner(region), indices.len() as u64);
        let started = Instant::now();
        let result = self.inner.write_blocks_at(region, indices, data);
        self.stats.record_io(true, owner, started, result.is_ok(), blocks, data.len() as u64);
        result
    }

    fn start_trace(&mut self) {
        self.inner.start_trace()
    }

    fn take_trace(&mut self) -> Trace {
        self.inner.take_trace()
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn stats(&self) -> HostStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn retains_payloads(&self) -> bool {
        self.inner.retains_payloads()
    }

    fn sync(&mut self) -> Result<(), HostError> {
        let started = Instant::now();
        let result = self.inner.sync();
        self.stats.syncs.record(started, result.is_ok(), 0, 0);
        result
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let started = Instant::now();
        let result = self.inner.sync_region(region);
        self.stats.syncs.record(started, result.is_ok(), 0, 0);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::{Database, DbConfig};
    use oblidb_enclave::Host;

    /// Drives the raw memory interface: batched and per-block calls,
    /// growth, a free, syncs, and failures that leave a recorded prefix.
    fn exercise<M: EnclaveMemory>(m: &mut M) -> Vec<String> {
        let mut outcomes = Vec::new();
        let mut note = |what: &str, ok: bool| outcomes.push(format!("{what}:{ok}"));
        m.start_trace();
        let a = m.alloc_region(8, 4).unwrap();
        let b = m.alloc_region(4, 2).unwrap();
        note("write_blocks", m.write_blocks(a, 0, &[7u8; 16]).is_ok());
        note("write", m.write(a, 5, &[1, 2, 3, 4]).is_ok());
        note("write_blocks_at", m.write_blocks_at(b, &[3, 1], &[9, 9, 8, 8]).is_ok());
        let mut out = Vec::new();
        note("read_blocks", m.read_blocks(a, 0, 4, &mut out).is_ok());
        note("read", m.read(a, 5).map(|bytes| bytes.to_vec()) == Ok(vec![1, 2, 3, 4]));
        note("read_blocks_at", m.read_blocks_at(b, &[1, 3], &mut out).is_ok());
        // Failures: an unwritten block mid-batch (the blocks before it
        // are still recorded), an index past the end, a bad payload size.
        note("read past written", m.read_blocks(a, 2, 4, &mut out).is_ok());
        note("read out of range", m.read_blocks_at(b, &[1, 99], &mut out).is_ok());
        note("read empty", m.read(a, 7).is_ok());
        note("write bad size", m.write_blocks(a, 0, &[0u8; 5]).is_ok());
        note("write out of range", m.write(b, 40, &[0, 0]).is_ok());
        note("grow", m.grow_region(b, 6).is_ok());
        note("write grown", m.write(b, 5, &[5, 5]).is_ok());
        note("sync_region", m.sync_region(a).is_ok());
        note("free", m.free_region(b).is_ok());
        note("read freed", m.read(b, 1).is_ok());
        note("sync", m.sync().is_ok());
        outcomes
    }

    #[test]
    fn raw_calls_leave_the_same_trace_stats_and_results_as_bare_host() {
        let mut bare = Host::new();
        let mut timed = TimedMemory::new(Host::new());
        assert_eq!(exercise(&mut bare), exercise(&mut timed));
        assert_eq!(timed.stats(), EnclaveMemory::stats(&bare));
        assert_eq!(timed.take_trace(), EnclaveMemory::take_trace(&mut bare));
        assert!(!timed.tracing());

        let t = timed.timed_stats();
        // 3 successful reads + 4 failed; only successes count blocks.
        assert_eq!((t.reads.calls, t.reads.blocks), (7, 4 + 1 + 2));
        assert_eq!(t.reads.bytes, 16 + 4 + 4);
        assert_eq!((t.writes.calls, t.writes.blocks, t.writes.bytes), (6, 4 + 1 + 2 + 1, 26));
        assert_eq!((t.allocs.calls, t.allocs.blocks), (4, 8 + 4 + 2));
        assert_eq!(t.syncs.calls, 2);
        assert_eq!(timed.read_bytes_by_block().get(&4), Some(&20));
    }

    #[test]
    fn the_engine_sees_no_difference_on_a_fixed_statement_list() {
        let statements = [
            "CREATE TABLE t (k INT, v INT) CAPACITY 64",
            "INSERT INTO t VALUES (1, 10)",
            "INSERT INTO t VALUES (2, 20)",
            "INSERT INTO t VALUES (3, 30)",
            "SELECT * FROM t WHERE k = 2",
            "UPDATE t SET v = 99 WHERE k = 3",
            "SELECT COUNT(*), SUM(v) FROM t",
            "DELETE FROM t WHERE k = 1",
            "SELECT * FROM t WHERE v > 5",
            "SELECT nope FROM t",
            "CREATE TABLE u (k INT, w INT) STORAGE = BOTH INDEX ON k CAPACITY 32",
            "INSERT INTO u VALUES (2, 7)",
            "SELECT * FROM t JOIN u ON t.k = u.k",
        ];
        let config = || DbConfig { seed: 11, ..DbConfig::default() };
        let mut bare = Database::with_memory(Host::new(), config());
        let mut timed = Database::with_memory(TimedMemory::new(Host::new()), config());
        bare.start_trace();
        timed.start_trace();
        for sql in statements {
            let (b, t) = (bare.execute(sql), timed.execute(sql));
            assert_eq!(b.is_ok(), t.is_ok(), "{sql}");
            if let (Ok(b), Ok(t)) = (b, t) {
                assert_eq!(b.rows(), t.rows(), "{sql}");
            }
        }
        assert_eq!(bare.take_trace(), timed.take_trace());
        assert_eq!(bare.host_mut().stats(), timed.host_mut().stats());
        assert!(timed.host_mut().timed_stats().busy_ns() > 0);
    }

    #[test]
    fn labels_follow_allocation_order() {
        let mut m = TimedMemory::new(Host::new());
        m.set_labels(Owner::Table, Owner::Oram);
        let table = m.alloc_region(2, 4).unwrap();
        let tree = m.alloc_region(2, 4).unwrap();
        m.set_labels(Owner::Wal, Owner::Wal);
        let log = m.alloc_region(2, 4).unwrap();
        m.set_labels(Owner::Scratch, Owner::Scratch);
        for region in [table, tree, log] {
            m.write(region, 0, &[1; 4]).unwrap();
        }
        let t = m.timed_stats();
        assert_eq!((t.writes.calls, t.oram_io.calls, t.wal_io.calls), (3, 1, 1));
    }
}
