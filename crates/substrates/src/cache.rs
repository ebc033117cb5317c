//! A write-back LRU of hot sealed blocks over any inner substrate.

use oblidb_enclave::{
    batch_count, AccessEvent, AccessKind, EnclaveMemory, HostError, HostStats, RegionId, Trace,
};

/// Cache-level counters, separate from the [`HostStats`] access counters
/// (which describe the *logical* stream the enclave issued).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Logical accesses served from the cache.
    pub hits: u64,
    /// Logical accesses that had to touch the inner substrate.
    pub misses: u64,
    /// Blocks dropped to make room.
    pub evictions: u64,
    /// Dirty blocks written back to the inner substrate on eviction.
    pub writebacks: u64,
    /// Dirty blocks flushed by [`EnclaveMemory::sync`].
    pub flushed: u64,
}

impl CacheStats {
    /// Hit fraction of all logical accesses (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A block's address.
type Key = (RegionId, u64);
/// Region-table entry of an uncached block.
const NONE: u32 = u32::MAX;
/// [`CachedMemory::begin_batch`]'s passing mark on a block it has counted.
const COUNTED: u32 = u32::MAX - 1;
/// Slot 0 caches nothing: it anchors the circular LRU list, so linking
/// and unlinking never meet an end. Its `next` is the least recently used
/// slot and its `prev` the most recent (itself, when nothing is cached).
const ANCHOR: u32 = 0;

/// One cached block. Slots live in a slab and are recycled together with
/// their payload buffer, so a steady-state install allocates nothing.
#[derive(Default)]
struct Slot {
    region: u32,
    index: u64,
    /// LRU neighbours: the next older and the next newer slot.
    prev: u32,
    next: u32,
    dirty: bool,
    data: Vec<u8>,
}

/// An LRU cache of hot sealed blocks wrapping any [`EnclaveMemory`].
///
/// The cache models host-side caching **without weakening the trace
/// model**: every logical block access is recorded in the wrapper's trace
/// and [`HostStats`] exactly as a raw [`Host`](oblidb_enclave::Host)
/// would record it — same events, same order, same counters, failed
/// attempts included — so obliviousness tests comparing transcripts are
/// oblivious to the cache's existence. What changes is the *inner*
/// substrate's traffic: hits never touch it, and `inner().stats()` shows
/// the savings.
///
/// Policy: write-back with per-block dirty bits. Writes update only the
/// cache; dirty blocks reach the inner substrate on eviction or
/// [`EnclaveMemory::sync`] (which flushes in deterministic region/index
/// order, coalescing consecutive runs into batched inner writes, then
/// syncs the inner substrate). Evictions are paid the same way: a batched
/// operation pre-evicts everything it displaces in one wave, consecutive
/// dirty victims draining as one batched inner write per run. Capacity is
/// counted in blocks; a batched read larger than the capacity still
/// completes — it just cannot retain the whole run.
///
/// Consecutive misses inside a batched read are coalesced into one
/// batched inner fetch (one inner crossing per run — the decisive saving
/// over [`DiskMemory`](crate::DiskMemory)); a failing run is replayed per
/// block, preserving `Host`-exact failure ordering inside batches.
///
/// Layout: a hit is two array lookups, a list splice and a copy — no
/// hashing, no allocation. Blocks sit in a slab of slots threaded on an
/// intrusive list in exact LRU order; each region has a dense
/// `index → slot` table as long as the region, found once per call by
/// region id (which indexes the tables as it does every substrate's own
/// region list).
pub struct CachedMemory<M: EnclaveMemory> {
    inner: M,
    capacity: usize,
    slots: Vec<Slot>,
    /// Vacant slots, payload buffers kept for reuse.
    free: Vec<u32>,
    /// `tables[region.0][index]` is the caching slot or [`NONE`]. Empty
    /// until a call first touches the region, dropped when it is freed.
    tables: Vec<Vec<u32>>,
    /// Reused scratch: the dirty slots of an eviction wave or a flush, the
    /// write-back run being assembled, the blocks a batched miss fetched.
    wave: Vec<u32>,
    run_buf: Vec<u8>,
    fetched: Vec<u8>,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
    cache_stats: CacheStats,
}

impl<M: EnclaveMemory> CachedMemory<M> {
    /// Wraps `inner` with an LRU holding at most `capacity_blocks` blocks.
    pub fn new(inner: M, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "cache capacity must be at least one block");
        CachedMemory {
            inner,
            capacity: capacity_blocks,
            slots: vec![Slot::default()],
            free: Vec::new(),
            tables: Vec::new(),
            wave: Vec::new(),
            run_buf: Vec::new(),
            fetched: Vec::new(),
            trace: None,
            stats: HostStats::default(),
            cache_stats: CacheStats::default(),
        }
    }

    /// The inner substrate (e.g. to read its stats: the backing traffic
    /// after cache absorption).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the inner substrate. Mutating blocks directly
    /// through this bypasses the cache and can make cached copies stale —
    /// meant for observing the backing traffic (its stats and traces), not
    /// block I/O.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Cache-level counters (hits/misses/evictions/writebacks/flushes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.slots.len() - 1 - self.free.len()
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    /// The region's current length, with its table sized to match — so
    /// every in-bounds index a call names is a plain array lookup.
    fn region(&mut self, region: RegionId) -> Result<u64, HostError> {
        let (len, r) = (self.inner.region_len(region)?, region.0 as usize);
        if self.tables.len() <= r {
            self.tables.resize_with(r + 1, Vec::new);
        }
        if (self.tables[r].len() as u64) < len {
            self.tables[r].resize(len as usize, NONE);
        }
        Ok(len)
    }

    /// The slot caching an in-bounds block of a [sized](Self::region) region.
    fn slot_of(&self, (region, index): Key) -> u32 {
        self.tables[region.0 as usize][index as usize]
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    fn push_mru(&mut self, s: u32) {
        let newest = std::mem::replace(&mut self.slots[ANCHOR as usize].prev, s);
        self.slots[newest as usize].next = s;
        (self.slots[s as usize].prev, self.slots[s as usize].next) = (newest, ANCHOR);
    }

    fn touch(&mut self, s: u32) {
        if self.slots[ANCHOR as usize].prev != s {
            self.unlink(s);
            self.push_mru(s);
        }
    }

    /// Writes dirty slots, `sorted` by region then index, back to the inner
    /// substrate and marks them clean, each run of consecutive blocks as **one**
    /// batched inner write. A failing run and everything after it stay dirty.
    fn write_back(&mut self, sorted: &[u32], flush: bool) -> Result<(), HostError> {
        let mut i = 0;
        while i < sorted.len() {
            let Slot { region, index: start, .. } = self.slots[sorted[i] as usize];
            self.run_buf.clear();
            let mut run = 0;
            while let Some(s) = sorted.get(i + run).map(|&s| &self.slots[s as usize]) {
                if s.region != region || s.index != start + run as u64 {
                    break;
                }
                self.run_buf.extend_from_slice(&s.data);
                run += 1;
            }
            self.inner.write_blocks(RegionId(region), start, &self.run_buf)?;
            for &s in &sorted[i..i + run] {
                self.slots[s as usize].dirty = false;
            }
            let stats = &mut self.cache_stats;
            *(if flush { &mut stats.flushed } else { &mut stats.writebacks }) += run as u64;
            i += run;
        }
        Ok(())
    }

    /// Evicts the `count` least-recently-used blocks in one wave, dirty
    /// victims written back first. A failed write-back aborts the wave
    /// before any victim is dropped: every entry stays cached (dirty ones
    /// still dirty), so the only up-to-date copy of a block is never lost
    /// to an inner I/O error.
    fn evict_many(&mut self, count: usize) -> Result<(), HostError> {
        let mut dirty = std::mem::take(&mut self.wave);
        dirty.clear();
        let (mut s, mut victims) = (self.slots[ANCHOR as usize].next, 0);
        while victims < count && s != ANCHOR {
            if self.slots[s as usize].dirty {
                dirty.push(s);
            }
            (s, victims) = (self.slots[s as usize].next, victims + 1);
        }
        let slots = &self.slots;
        dirty.sort_unstable_by_key(|&s| (slots[s as usize].region, slots[s as usize].index));
        let res = self.write_back(&dirty, false);
        self.wave = dirty;
        res?;
        for _ in 0..victims {
            let s = self.slots[ANCHOR as usize].next;
            self.unlink(s);
            let Slot { region, index, .. } = self.slots[s as usize];
            self.tables[region as usize][index as usize] = NONE;
            self.free.push(s);
        }
        self.cache_stats.evictions += victims as u64;
        Ok(())
    }

    /// Opens a batched call over the `n` indices `at(0..n)`: pre-evicts
    /// room, in one wave, for the distinct in-bounds blocks it will newly
    /// cache. Returns the region's length.
    fn begin_batch(
        &mut self,
        region: RegionId,
        n: usize,
        at: impl Fn(usize) -> u64,
    ) -> Result<u64, HostError> {
        let len = self.region(region)?;
        let table = &mut self.tables[region.0 as usize];
        // An uncached block counts once however often the batch names it:
        // mark it as it is counted, then take the marks off again.
        let mut incoming = 0;
        for (from, to) in [(NONE, COUNTED), (COUNTED, NONE)] {
            for index in (0..n).map(&at).filter(|&index| index < len) {
                if table[index as usize] == from {
                    table[index as usize] = to;
                    incoming += usize::from(to == COUNTED);
                }
            }
            if incoming == 0 {
                break;
            }
        }
        let room = self.capacity - incoming.min(self.capacity);
        self.evict_many(self.cached_blocks().saturating_sub(room))?;
        Ok(len)
    }

    /// Caches `data` as the block's payload (replacing a cached copy,
    /// evicting as needed), LRU-touched; returns its slot.
    fn install(&mut self, key: Key, data: &[u8], dirty: bool) -> Result<u32, HostError> {
        let mut s = self.slot_of(key);
        if s != NONE {
            self.touch(s);
        } else {
            if self.cached_blocks() >= self.capacity {
                self.evict_many(1)?;
            }
            s = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Slot::default());
                let fresh = u32::try_from(self.slots.len() - 1).ok().filter(|&s| s < COUNTED);
                fresh.expect("cache slot ids fit in u32")
            });
            let slot = &mut self.slots[s as usize];
            (slot.region, slot.index, slot.dirty) = (key.0 .0, key.1, false);
            self.tables[key.0 .0 as usize][key.1 as usize] = s;
            self.push_mru(s);
        }
        let slot = &mut self.slots[s as usize];
        slot.data.clear();
        slot.data.extend_from_slice(data);
        slot.dirty |= dirty;
        Ok(s)
    }

    /// Ensures the block is cached (fetching from inner on a miss) and
    /// LRU-touched; returns its slot. Trace and bounds are the caller's.
    fn load(&mut self, key: Key) -> Result<u32, HostError> {
        let s = self.slot_of(key);
        if s != NONE {
            self.cache_stats.hits += 1;
            self.touch(s);
            return Ok(s);
        }
        let block = self.inner.read(key.0, key.1)?.to_vec();
        self.cache_stats.misses += 1;
        self.install(key, &block, false)
    }

    /// Shared body of the batched reads, over the `n` indices `at(0..n)`:
    /// per-block trace/validate/load through the cache (Host's per-block
    /// contract), one logical crossing — paid once a block validates.
    fn read_gather(
        &mut self,
        region: RegionId,
        n: usize,
        at: impl Fn(usize) -> u64,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        // Cleared before the region check too: Host leaves no stale bytes, even on UnknownRegion.
        out.clear();
        let block_size = self.inner.region_block_size(region)?;
        let len = self.begin_batch(region, n, &at)?;
        // Dropped on an error return: the next miss regrows it.
        let mut fetched = std::mem::take(&mut self.fetched);
        let mut crossed = false;
        let mut i = 0;
        while i < n {
            let index = at(i);
            self.record(region, index, AccessKind::Read);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            // A miss extends into a run while the request keeps asking for
            // the next consecutive block and it is uncached and in bounds
            // (a cached block may hold dirty data the inner substrate has
            // not seen); one batched inner read fetches the run. Hits go per
            // block, as do zero-size blocks, which no batch buffer expresses.
            let miss = self.slot_of((region, index)) == NONE && block_size > 0;
            let mut run = 1;
            while miss
                && i + run < n
                && at(i + run) == index + run as u64
                && at(i + run) < len
                && self.slot_of((region, at(i + run))) == NONE
            {
                run += 1;
            }
            // A failed fetch means the run contains a failing block: replay
            // the WHOLE run per block (not just the first index, which would
            // rebuild ever-shorter doomed batches), so blocks before the
            // failure load and cache as the unbatched path would and the
            // failing index surfaces its own error, its event recorded.
            let batched = miss && self.inner.read_blocks(region, index, run, &mut fetched).is_ok();
            for j in 0..run {
                let key = (region, index + j as u64);
                if j > 0 {
                    self.record(region, key.1, AccessKind::Read);
                }
                let s = if batched {
                    self.cache_stats.misses += 1;
                    self.install(key, &fetched[j * block_size..][..block_size], false)?
                } else {
                    self.load(key)?
                };
                if !std::mem::replace(&mut crossed, true) {
                    self.stats.crossings += 1;
                }
                let data = &self.slots[s as usize].data;
                out.extend_from_slice(data);
                self.stats.reads += 1;
                self.stats.bytes_read += data.len() as u64;
            }
            i += run;
        }
        self.fetched = fetched;
        Ok(())
    }

    /// Shared body of the batched writes, over the `n` indices
    /// `at(0..n)`: install each chunk dirty, one logical crossing.
    fn write_scatter(
        &mut self,
        region: RegionId,
        n: usize,
        at: impl Fn(usize) -> u64,
        data: &[u8],
        block_size: usize,
    ) -> Result<(), HostError> {
        let len = self.begin_batch(region, n, &at)?;
        let mut crossed = false;
        for (i, chunk) in data.chunks_exact(block_size).enumerate().take(n) {
            let index = at(i);
            self.record(region, index, AccessKind::Write);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            self.install((region, index), chunk, true)?;
            if !std::mem::replace(&mut crossed, true) {
                self.stats.crossings += 1;
            }
            self.stats.writes += 1;
            self.stats.bytes_written += block_size as u64;
        }
        Ok(())
    }

    /// Flushes every dirty block, or `only` one region's, in region/index
    /// order (runs coalesced) without syncing inner.
    fn flush_dirty(&mut self, only: Option<RegionId>) -> Result<(), HostError> {
        let mut dirty = std::mem::take(&mut self.wave);
        dirty.clear();
        let tables = match only {
            Some(r) => self.tables.get(r.0 as usize..=r.0 as usize).unwrap_or_default(),
            None => &self.tables[..],
        };
        // Tables are in region order and each in index order: no sort.
        let cached = tables.iter().flatten().filter(|&&s| s != NONE);
        dirty.extend(cached.filter(|&&s| self.slots[s as usize].dirty));
        let res = self.write_back(&dirty, true);
        self.wave = dirty;
        res
    }
}

impl<M: EnclaveMemory> EnclaveMemory for CachedMemory<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        self.inner.alloc_region(blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        // Cached copies (dirty or clean) die with the region.
        let table = self.tables.get_mut(region.0 as usize).map(std::mem::take);
        for s in table.into_iter().flatten().filter(|&s| s != NONE) {
            self.unlink(s);
            self.free.push(s);
        }
        self.inner.free_region(region)
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        self.inner.grow_region(region, new_blocks)
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        self.inner.region_len(region)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        self.inner.region_block_size(region)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        self.record(region, index, AccessKind::Read);
        let len = self.region(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        let s = self.load((region, index))?;
        self.stats.crossings += 1;
        let data = &self.slots[s as usize].data;
        self.stats.reads += 1;
        self.stats.bytes_read += data.len() as u64;
        Ok(data)
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let expected = self.inner.region_block_size(region)?;
        if data.len() != expected {
            return Err(HostError::BlockSizeMismatch { region, expected, got: data.len() });
        }
        let len = self.region(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        self.install((region, index), data, true)?;
        self.stats.crossings += 1;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, count, |i| start + i as u64, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, indices.len(), |i| indices[i], out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())?;
        self.write_scatter(region, count, |i| start + i as u64, data, block_size)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        let (expected, got) = (indices.len() * block_size, data.len());
        if batch_count(region, block_size, got)? != indices.len() {
            return Err(HostError::BlockSizeMismatch { region, expected, got });
        }
        self.write_scatter(region, indices.len(), |i| indices[i], data, block_size)
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

    /// Zeroes both the logical [`HostStats`] and the [`CacheStats`]. The
    /// inner substrate's stats are its own (`inner_mut().reset_stats()`).
    fn reset_stats(&mut self) {
        self.stats = HostStats::default();
        self.cache_stats = CacheStats::default();
    }

    fn sync(&mut self) -> Result<(), HostError> {
        self.flush_dirty(None)?;
        self.inner.sync()
    }

    /// Writes back just this region's dirty blocks (coalesced runs), then
    /// region-syncs the inner substrate — the WAL's durable-append path
    /// pays one region flush, not a whole-cache flush.
    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        self.flush_dirty(Some(region))?;
        self.inner.sync_region(region)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    #[test]
    fn hits_avoid_inner_traffic() {
        let mut m = CachedMemory::new(Host::new(), 8);
        let r = m.alloc_region(4, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        for _ in 0..5 {
            assert_eq!(m.read(r, 0).unwrap(), &[1; 4]);
        }
        assert_eq!(m.inner().stats().total_accesses(), 0, "write-back + hits: inner untouched");
        assert_eq!(m.cache_stats().hits, 5);
        assert_eq!(m.stats().reads, 5, "logical stats still count every read");
    }

    #[test]
    fn eviction_writes_back_dirty_blocks() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(8, 4).unwrap();
        m.write(r, 0, &[0; 4]).unwrap();
        m.write(r, 1, &[1; 4]).unwrap();
        m.write(r, 2, &[2; 4]).unwrap(); // evicts block 0 → inner
        let cs = m.cache_stats();
        assert_eq!((cs.evictions, cs.writebacks), (1, 1));
        assert_eq!(m.inner().stats().writes, 1);
        // Re-reading block 0 misses and fetches the written-back copy.
        assert_eq!(m.read(r, 0).unwrap(), &[0; 4]);
        assert_eq!(m.cache_stats().misses, 1);
    }

    #[test]
    fn sync_flushes_dirty_runs_batched() {
        let mut m = CachedMemory::new(Host::new(), 16);
        let r = m.alloc_region(8, 4).unwrap();
        m.write_blocks(r, 2, &[7u8; 12]).unwrap(); // blocks 2,3,4 dirty
        m.write(r, 6, &[9; 4]).unwrap();
        assert_eq!(m.inner().stats().writes, 0);
        m.sync().unwrap();
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 4);
        assert_eq!(inner.crossings, 2, "one run of 3 + one single = two batched writes");
        assert_eq!(m.cache_stats().flushed, 4);
        m.sync().unwrap();
        assert_eq!(m.cache_stats().flushed, 4, "clean blocks are not re-flushed");
    }

    #[test]
    fn eviction_waves_coalesce_dirty_writebacks() {
        // Fill an 8-block cache with sequential dirty blocks, then read a
        // cold range from another region: the 8 evictions must drain as
        // ONE batched inner write (one inner crossing), not eight singles.
        let mut m = CachedMemory::new(Host::new(), 8);
        let r = m.alloc_region(8, 4).unwrap();
        m.write_blocks(r, 0, &[5u8; 32]).unwrap();
        let cold = m.alloc_region(8, 4).unwrap();
        m.inner_mut().write_blocks(cold, 0, &[1u8; 32]).unwrap();
        m.inner_mut().reset_stats();
        let mut out = Vec::new();
        m.read_blocks(cold, 0, 8, &mut out).unwrap();
        assert_eq!(out, vec![1u8; 32]);
        let cs = m.cache_stats();
        assert_eq!((cs.evictions, cs.writebacks), (8, 8));
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 8);
        assert_eq!(inner.crossings, 2, "one coalesced write-back wave + one coalesced fetch");
    }

    #[test]
    fn eviction_wave_splits_nonconsecutive_runs() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(16, 4).unwrap();
        for i in [0u64, 1, 8, 9] {
            m.write(r, i, &[i as u8; 4]).unwrap();
        }
        let cold = m.alloc_region(4, 4).unwrap();
        m.inner_mut().write_blocks(cold, 0, &[2u8; 16]).unwrap();
        m.inner_mut().reset_stats();
        let mut out = Vec::new();
        m.read_blocks(cold, 0, 4, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 16]);
        let inner = m.inner().stats();
        assert_eq!(inner.writes, 4);
        assert_eq!(
            inner.crossings, 3,
            "dirty runs 0..2 and 8..10 drain as two batched writes, plus one coalesced fetch"
        );
    }

    #[test]
    fn failed_writeback_keeps_entries_cached_and_dirty() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[3; 4]).unwrap();
        // Sabotage: drop the inner region behind the cache's back, so the
        // eventual write-back of (r, 0) must fail.
        m.inner_mut().free_region(r).unwrap();
        let r2 = m.alloc_region(2, 4).unwrap();
        m.write(r2, 0, &[1; 4]).unwrap();
        let err = m.write(r2, 1, &[1; 4]).unwrap_err();
        assert_eq!(err, HostError::UnknownRegion(r));
        // The wave aborted before dropping anything: both victims stay
        // cached, the dirty block keeps its only up-to-date copy.
        assert_eq!(m.cached_blocks(), 2);
        assert_eq!(m.cache_stats().evictions, 0);
    }

    #[test]
    fn trace_and_stats_match_host_exactly() {
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, HostStats, Vec<u8>) {
            let r = m.alloc_region(8, 4).unwrap();
            m.start_trace();
            m.reset_stats();
            let data: Vec<u8> = (0..32).collect();
            m.write_blocks(r, 0, &data).unwrap();
            let mut out = Vec::new();
            m.read_blocks(r, 2, 4, &mut out).unwrap();
            m.write_blocks_at(r, &[7, 0], &data[..8]).unwrap();
            let mut gathered = Vec::new();
            m.read_blocks_at(r, &[7, 1, 0], &mut gathered).unwrap();
            out.extend_from_slice(&gathered);
            out.extend_from_slice(m.read(r, 5).unwrap());
            (m.take_trace(), m.stats(), out)
        }
        let (ht, hs, hb) = drive(&mut Host::new());
        // A tiny cache (forced evictions) must still look identical.
        let (ct, cs, cb) = drive(&mut CachedMemory::new(Host::new(), 2));
        assert_eq!(ht, ct, "logical trace must not betray the cache");
        assert_eq!(hs, cs, "logical stats must not betray the cache");
        assert_eq!(hb, cb, "payloads must round-trip through evictions");
    }

    #[test]
    fn error_contract_matches_host() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(4, 8).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::EmptyBlock(r, 0)));
        assert!(matches!(m.write(r, 9, &[0; 8]), Err(HostError::OutOfBounds { .. })));
        assert!(matches!(
            m.write(r, 0, &[0; 7]),
            Err(HostError::BlockSizeMismatch { expected: 8, got: 7, .. })
        ));
        m.free_region(r).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::UnknownRegion(r)));
    }

    #[test]
    fn free_region_discards_cached_blocks() {
        let mut m = CachedMemory::new(Host::new(), 4);
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        m.free_region(r).unwrap();
        assert_eq!(m.cached_blocks(), 0);
        // A new region may reuse block addresses; stale data must be gone.
        let r2 = m.alloc_region(2, 4).unwrap();
        assert_eq!(m.read(r2, 0), Err(HostError::EmptyBlock(r2, 0)));
    }

    #[test]
    fn batched_misses_coalesce_into_one_inner_fetch() {
        // 16 cold blocks, written straight through to inner so the cache
        // holds nothing: one batched read must cost ONE inner crossing,
        // not sixteen.
        let mut m = CachedMemory::new(Host::new(), 32);
        let r = m.alloc_region(16, 4).unwrap();
        m.write_blocks(r, 0, &[9u8; 64]).unwrap();
        // Fill the cache from another region so every region-r entry is
        // evicted (written back), then sync so the cache holds only clean
        // blocks — the measured read then pays no writeback traffic.
        let spill = m.alloc_region(32, 4).unwrap();
        m.write_blocks(spill, 0, &[0u8; 128]).unwrap();
        assert_eq!(m.cached_blocks(), 32, "region-r entries were evicted");
        m.sync().unwrap();
        m.inner_mut().reset_stats();
        m.reset_stats();

        let mut out = Vec::new();
        m.read_blocks(r, 0, 16, &mut out).unwrap();
        assert_eq!(out, vec![9u8; 64]);
        let cs = m.cache_stats();
        assert_eq!((cs.hits, cs.misses), (0, 16), "all cold");
        assert_eq!(
            m.inner().stats().crossings,
            1,
            "16 consecutive misses coalesce into one batched inner read"
        );
        assert_eq!(m.inner().stats().reads, 16);
        assert_eq!(m.stats().crossings, 1, "wrapper still reports one logical crossing");

        // A cached block mid-range splits the run — it may hold dirty
        // data the inner substrate has not seen, and must be served from
        // the cache, never refetched.
        let mut m2 = CachedMemory::new(Host::new(), 16);
        let r2 = m2.alloc_region(8, 4).unwrap();
        // Seed inner directly (substrate-level population the cache never
        // saw), then dirty block 4 through the wrapper.
        m2.inner_mut().write_blocks(r2, 0, &[1u8; 32]).unwrap();
        m2.write(r2, 4, &[7u8; 4]).unwrap();
        m2.inner_mut().reset_stats();
        let mut out2 = Vec::new();
        m2.read_blocks(r2, 0, 8, &mut out2).unwrap();
        let mut expect = vec![1u8; 32];
        expect[16..20].copy_from_slice(&[7u8; 4]);
        assert_eq!(out2, expect, "the dirty cached block wins over inner");
        let cs2 = m2.cache_stats();
        assert_eq!((cs2.hits, cs2.misses), (1, 7));
        assert_eq!(
            m2.inner().stats().crossings,
            2,
            "runs 0..4 and 5..8 are one coalesced fetch each; the hit splits them"
        );
    }

    #[test]
    fn coalesced_misses_keep_host_error_contract() {
        // Blocks 0..2 written, 2 empty, 3 written: a batched read of 0..4
        // must fail with EmptyBlock(2) after successfully tracing 0,1,2 —
        // exactly as Host would.
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, Result<(), HostError>) {
            let r = m.alloc_region(4, 2).unwrap();
            m.write_blocks(r, 0, &[1, 1, 2, 2]).unwrap();
            m.write(r, 3, &[3, 3]).unwrap();
            m.start_trace();
            let mut out = Vec::new();
            let res = m.read_blocks(r, 0, 4, &mut out).map(|_| ());
            (m.take_trace(), res)
        }
        let (ht, hr) = drive(&mut Host::new());
        let mut cached = CachedMemory::new(Host::new(), 8);
        // Push the written blocks down to inner and clear the cache so the
        // miss path (and its fallback) is what gets exercised.
        let (ct, cr) = {
            let r = cached.alloc_region(4, 2).unwrap();
            cached.write_blocks(r, 0, &[1, 1, 2, 2]).unwrap();
            cached.write(r, 3, &[3, 3]).unwrap();
            cached.sync().unwrap();
            let spill = cached.alloc_region(8, 2).unwrap();
            cached.write_blocks(spill, 0, &[0u8; 16]).unwrap();
            cached.start_trace();
            let mut out = Vec::new();
            let res = cached.read_blocks(r, 0, 4, &mut out).map(|_| ());
            (cached.take_trace(), res)
        };
        assert_eq!(hr, cr, "same error, same identity");
        assert_eq!(ht, ct, "same per-block trace up to and including the failure");
    }

    #[test]
    fn batch_larger_than_capacity_completes() {
        let mut m = CachedMemory::new(Host::new(), 2);
        let r = m.alloc_region(16, 4).unwrap();
        let data = vec![3u8; 64];
        m.write_blocks(r, 0, &data).unwrap();
        m.sync().unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 0, 16, &mut out).unwrap();
        assert_eq!(out, data);
        assert!(m.cache_stats().evictions > 0);
    }
}
