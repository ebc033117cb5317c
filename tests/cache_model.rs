//! Differential model test for [`CachedMemory`]: random call sequences run
//! against the real cache and against a reference LRU — the `HashMap` +
//! tick-ordered `BTreeMap` algorithm the cache used before its slab
//! rewrite, kept here as the oracle — over identical inner substrates.
//! After every call the two must agree on everything observable: returned
//! bytes and errors, the logical trace, [`HostStats`], [`CacheStats`], and
//! — because LRU order is exact — the *inner* substrate's trace and stats.

use std::collections::{BTreeMap, HashMap};

use oblidb::enclave::{
    batch_count, AccessEvent, AccessKind, EnclaveMemory, EnclaveRng, Host, HostError, HostStats,
    IoOp, RegionId, Trace,
};
use oblidb::substrates::{CacheStats, CachedMemory};

type Key = (RegionId, u64);

struct Entry {
    data: Vec<u8>,
    dirty: bool,
    tick: u64,
}

/// The oracle: one `HashMap` entry per cached block, LRU order as a map
/// from a monotone tick to the key.
struct RefCache<M> {
    inner: M,
    capacity: usize,
    entries: HashMap<Key, Entry>,
    lru: BTreeMap<u64, Key>,
    tick: u64,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
    cache_stats: CacheStats,
}

impl<M: EnclaveMemory> RefCache<M> {
    fn new(inner: M, capacity: usize) -> Self {
        RefCache {
            inner,
            capacity,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            trace: None,
            stats: HostStats::default(),
            cache_stats: CacheStats::default(),
        }
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    fn touch(&mut self, key: Key) {
        self.tick += 1;
        let e = self.entries.get_mut(&key).expect("touched key cached");
        self.lru.remove(&e.tick);
        e.tick = self.tick;
        self.lru.insert(self.tick, key);
    }

    /// Writes `dirty` (sorted) back as coalesced runs, counting into
    /// `flushed` or `writebacks`.
    fn write_runs(&mut self, dirty: &[Key], flush: bool) -> Result<(), HostError> {
        let mut i = 0;
        while i < dirty.len() {
            let (region, start) = dirty[i];
            let mut run = 1;
            while i + run < dirty.len() && dirty[i + run] == (region, start + run as u64) {
                run += 1;
            }
            let buf: Vec<u8> =
                dirty[i..i + run].iter().flat_map(|k| self.entries[k].data.clone()).collect();
            self.inner.write_blocks(region, start, &buf)?;
            for k in &dirty[i..i + run] {
                self.entries.get_mut(k).expect("dirty key cached").dirty = false;
            }
            let counter = if flush {
                &mut self.cache_stats.flushed
            } else {
                &mut self.cache_stats.writebacks
            };
            *counter += run as u64;
            i += run;
        }
        Ok(())
    }

    fn evict_many(&mut self, count: usize) -> Result<(), HostError> {
        let victims: Vec<Key> = self.lru.values().copied().take(count).collect();
        let mut dirty: Vec<Key> =
            victims.iter().copied().filter(|k| self.entries[k].dirty).collect();
        dirty.sort_unstable();
        self.write_runs(&dirty, false)?;
        for key in victims {
            let e = self.entries.remove(&key).expect("victim cached");
            self.lru.remove(&e.tick);
            self.cache_stats.evictions += 1;
        }
        Ok(())
    }

    fn reserve(&mut self, region: RegionId, len: u64, idx: &[u64]) -> Result<(), HostError> {
        let mut uniq: Vec<u64> = idx
            .iter()
            .copied()
            .filter(|&i| i < len && !self.entries.contains_key(&(region, i)))
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        let need =
            (self.entries.len() + uniq.len().min(self.capacity)).saturating_sub(self.capacity);
        self.evict_many(need)
    }

    fn install(&mut self, key: Key, data: Vec<u8>, dirty: bool) -> Result<(), HostError> {
        if let Some(e) = self.entries.get_mut(&key) {
            e.data = data;
            e.dirty |= dirty;
            self.touch(key);
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            self.evict_many(1)?;
        }
        self.tick += 1;
        self.entries.insert(key, Entry { data, dirty, tick: self.tick });
        self.lru.insert(self.tick, key);
        Ok(())
    }

    fn load(&mut self, key: Key) -> Result<(), HostError> {
        if self.entries.contains_key(&key) {
            self.cache_stats.hits += 1;
            self.touch(key);
        } else {
            let data = self.inner.read(key.0, key.1)?.to_vec();
            self.cache_stats.misses += 1;
            self.install(key, data, false)?;
        }
        Ok(())
    }

    /// Serves a cached block into a batched read's output.
    fn serve(&mut self, key: Key, crossed: &mut bool, out: &mut Vec<u8>) {
        if !std::mem::replace(crossed, true) {
            self.stats.crossings += 1;
        }
        let data = &self.entries[&key].data;
        out.extend_from_slice(data);
        self.stats.reads += 1;
        self.stats.bytes_read += data.len() as u64;
    }

    fn read_gather(
        &mut self,
        region: RegionId,
        idx: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let len = self.inner.region_len(region)?;
        let block_size = self.inner.region_block_size(region)?;
        self.reserve(region, len, idx)?;
        let (mut crossed, mut fetched, mut i) = (false, Vec::new(), 0);
        while i < idx.len() {
            let index = idx[i];
            self.record(region, index, AccessKind::Read);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            if self.entries.contains_key(&(region, index)) || block_size == 0 {
                self.load((region, index))?;
                self.serve((region, index), &mut crossed, out);
                i += 1;
                continue;
            }
            let mut run = 1;
            while i + run < idx.len()
                && idx[i + run] == index + run as u64
                && idx[i + run] < len
                && !self.entries.contains_key(&(region, idx[i + run]))
            {
                run += 1;
            }
            let batched = self.inner.read_blocks(region, index, run, &mut fetched).is_ok();
            for j in 0..run {
                let key = (region, index + j as u64);
                if j > 0 {
                    self.record(region, key.1, AccessKind::Read);
                }
                if batched {
                    self.cache_stats.misses += 1;
                    let chunk = fetched[j * block_size..(j + 1) * block_size].to_vec();
                    self.install(key, chunk, false)?;
                } else {
                    self.load(key)?;
                }
                self.serve(key, &mut crossed, out);
            }
            i += run;
        }
        Ok(())
    }

    fn write_scatter(
        &mut self,
        region: RegionId,
        idx: &[u64],
        data: &[u8],
        block_size: usize,
    ) -> Result<(), HostError> {
        let len = self.inner.region_len(region)?;
        self.reserve(region, len, idx)?;
        let mut crossed = false;
        for (&index, chunk) in idx.iter().zip(data.chunks_exact(block_size)) {
            self.record(region, index, AccessKind::Write);
            if index >= len {
                return Err(HostError::OutOfBounds { region, index, len });
            }
            self.install((region, index), chunk.to_vec(), true)?;
            if !std::mem::replace(&mut crossed, true) {
                self.stats.crossings += 1;
            }
            self.stats.writes += 1;
            self.stats.bytes_written += block_size as u64;
        }
        Ok(())
    }

    fn flush_dirty(&mut self, only: Option<RegionId>) -> Result<(), HostError> {
        let mut dirty: Vec<Key> = self
            .entries
            .iter()
            .filter(|(k, e)| e.dirty && only.is_none_or(|r| k.0 == r))
            .map(|(k, _)| *k)
            .collect();
        dirty.sort_unstable();
        self.write_runs(&dirty, true)
    }
}

impl<M: EnclaveMemory> EnclaveMemory for RefCache<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        self.inner.alloc_region(blocks, block_size)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let keys: Vec<Key> = self.entries.keys().filter(|k| k.0 == region).copied().collect();
        for key in keys {
            let e = self.entries.remove(&key).expect("key just listed");
            self.lru.remove(&e.tick);
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
        let len = self.inner.region_len(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        self.load((region, index))?;
        let data = &self.entries[&(region, index)].data;
        self.stats.crossings += 1;
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
        let len = self.inner.region_len(region)?;
        if index >= len {
            return Err(HostError::OutOfBounds { region, index, len });
        }
        self.install((region, index), data.to_vec(), true)?;
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
        let idx: Vec<u64> = (start..start + count as u64).collect();
        self.read_gather(region, &idx, out)
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.read_gather(region, indices, out)
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())? as u64;
        let idx: Vec<u64> = (start..start + count).collect();
        self.write_scatter(region, &idx, data, block_size)
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let block_size = self.inner.region_block_size(region)?;
        if batch_count(region, block_size, data.len())? != indices.len() {
            return Err(HostError::BlockSizeMismatch {
                region,
                expected: indices.len() * block_size,
                got: data.len(),
            });
        }
        self.write_scatter(region, indices, data, block_size)
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
        self.stats = HostStats::default();
        self.cache_stats = CacheStats::default();
    }

    fn sync(&mut self) -> Result<(), HostError> {
        self.flush_dirty(None)?;
        self.inner.sync()
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        self.flush_dirty(Some(region))?;
        self.inner.sync_region(region)
    }
}

/// A [`Host`] whose `fail_at`-th write call (single or batched, counted
/// from 1) fails with an I/O error and changes nothing — what a full or
/// failing disk under the cache looks like to an eviction wave.
struct Flaky {
    host: Host,
    write_calls: u64,
    fail_at: u64,
}

impl Flaky {
    fn new(fail_at: u64) -> Self {
        let mut host = Host::new();
        host.start_trace();
        Flaky { host, write_calls: 0, fail_at }
    }

    fn admit_write(&mut self, region: RegionId) -> Result<(), HostError> {
        self.write_calls += 1;
        if self.write_calls == self.fail_at {
            let kind = std::io::ErrorKind::WriteZero;
            return Err(HostError::Io { kind, region: Some(region), op: IoOp::Write });
        }
        Ok(())
    }
}

impl EnclaveMemory for Flaky {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        self.host.alloc_region(blocks, block_size)
    }
    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        self.host.free_region(region)
    }
    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        self.host.grow_region(region, new_blocks)
    }
    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        self.host.region_len(region)
    }
    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        self.host.region_block_size(region)
    }
    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        self.host.read(region, index)
    }
    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.admit_write(region)?;
        self.host.write(region, index, data)
    }
    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        self.host.read_blocks(region, start, count, out)
    }
    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        self.admit_write(region)?;
        self.host.write_blocks(region, start, data)
    }
    fn start_trace(&mut self) {
        self.host.start_trace()
    }
    fn take_trace(&mut self) -> Trace {
        self.host.take_trace()
    }
    fn tracing(&self) -> bool {
        self.host.tracing()
    }
    fn stats(&self) -> HostStats {
        self.host.stats()
    }
    fn reset_stats(&mut self) {
        self.host.reset_stats()
    }
}

/// Everything one call lets its caller (and the adversary) observe.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Vec<u8>, HostError>,
    /// The batched-read buffer: cleared, then the blocks (on failure, the
    /// prefix) the call gathered.
    out: Vec<u8>,
    trace: Trace,
    stats: HostStats,
}

/// One random call against `m`. Regions are picked among `regions`
/// (freed ones included, so `UnknownRegion` paths run); indices overshoot
/// the region by up to two blocks; one write in eight is ragged.
fn step<M: EnclaveMemory>(
    m: &mut M,
    rng: &mut EnclaveRng,
    regions: &mut Vec<RegionId>,
) -> Observed {
    m.start_trace();
    let region = regions[rng.below(regions.len() as u64) as usize];
    let len = m.region_len(region).unwrap_or(4);
    let block_size = m.region_block_size(region).unwrap_or(4);
    let index = |rng: &mut EnclaveRng| rng.below(len + 2);
    let count = |rng: &mut EnclaveRng| rng.below(7) as usize;
    let payload = |rng: &mut EnclaveRng, blocks: usize| {
        let ragged = usize::from(rng.below(8) == 0);
        let mut data = vec![0u8; blocks * block_size + ragged];
        rng.fill(&mut data);
        data
    };
    let mut out = vec![0xEE; 3]; // stale bytes every batched read must clear
    let result = match rng.below(20) {
        0..=3 => {
            let i = index(rng);
            m.read(region, i).map(<[u8]>::to_vec)
        }
        4..=6 => {
            let (i, data) = (index(rng), payload(rng, 1));
            m.write(region, i, &data).map(|()| Vec::new())
        }
        7..=9 => {
            let (i, n) = (index(rng), count(rng));
            m.read_blocks(region, i, n, &mut out).map(|()| out.clone())
        }
        10..=11 => {
            let idx: Vec<u64> = (0..count(rng)).map(|_| index(rng)).collect();
            m.read_blocks_at(region, &idx, &mut out).map(|()| out.clone())
        }
        12..=14 => {
            let (i, n) = (index(rng), count(rng));
            m.write_blocks(region, i, &payload(rng, n)).map(|()| Vec::new())
        }
        15..=16 => {
            let idx: Vec<u64> = (0..count(rng)).map(|_| index(rng)).collect();
            m.write_blocks_at(region, &idx, &payload(rng, idx.len())).map(|()| Vec::new())
        }
        17 => m.grow_region(region, (len + rng.below(4)) as usize).map(|()| Vec::new()),
        18 => match rng.below(3) {
            0 => m.sync(),
            _ => m.sync_region(region),
        }
        .map(|()| Vec::new()),
        _ => {
            if rng.below(3) == 0 {
                m.free_region(region).map(|()| Vec::new())
            } else {
                let blocks = 1 + rng.below(12) as usize;
                m.alloc_region(blocks, block_size).map(|r| {
                    regions.push(r);
                    Vec::new()
                })
            }
        }
    };
    Observed { result, out, trace: m.take_trace(), stats: m.stats() }
}

/// Drives `steps` random calls through both caches over inner substrates
/// built by `inner`, comparing after each.
fn differential<M: EnclaveMemory>(
    seed: u64,
    capacity: usize,
    block_size: usize,
    steps: usize,
    inner: impl Fn() -> M,
) {
    let mut real = CachedMemory::new(inner(), capacity);
    let mut oracle = RefCache::new(inner(), capacity);
    let mut real_regions = Vec::new();
    for blocks in [5, 9] {
        real_regions.push(real.alloc_region(blocks, block_size).unwrap());
        oracle.alloc_region(blocks, block_size).unwrap();
    }
    let mut oracle_regions = real_regions.clone();
    let (mut rng_a, mut rng_b) = (EnclaveRng::seed_from_u64(seed), EnclaveRng::seed_from_u64(seed));
    for n in 0..steps {
        let at = format!("seed {seed} capacity {capacity} block {block_size} step {n}");
        let a = step(&mut real, &mut rng_a, &mut real_regions);
        let b = step(&mut oracle, &mut rng_b, &mut oracle_regions);
        assert_eq!(a, b, "{at}: result, logical trace or HostStats");
        assert_eq!(real.cache_stats(), oracle.cache_stats, "{at}: CacheStats");
        assert_eq!(real.cached_blocks(), oracle.entries.len(), "{at}: resident blocks");
        assert_eq!(real.inner().stats(), oracle.inner.stats(), "{at}: inner HostStats");
        let (ta, tb) = (real.inner_mut().take_trace(), oracle.inner.take_trace());
        assert_eq!(ta, tb, "{at}: inner trace");
        real.inner_mut().start_trace();
        oracle.inner.start_trace();
    }
    let cs = real.cache_stats();
    assert!(
        cs.hits > 0 && cs.misses > 0 && cs.evictions > 0,
        "the run exercised the cache: {cs:?}"
    );
}

fn traced_host() -> Host {
    let mut host = Host::new();
    host.start_trace();
    host
}

#[test]
fn slab_cache_matches_the_reference_lru() {
    for capacity in [1, 3, 8] {
        for block_size in [1, 4, 53] {
            for seed in 0..6 {
                differential(seed, capacity, block_size, 600, traced_host);
            }
        }
    }
}

#[test]
fn aborted_eviction_waves_match_the_reference_lru() {
    // The Nth inner write fails once: the wave that needed it aborts with
    // every victim still cached and dirty, and later waves retry them.
    for capacity in [1, 3, 8] {
        for fail_at in [1, 2, 5, 13, 40] {
            for seed in 0..4 {
                differential(seed, capacity, 4, 400, || Flaky::new(fail_at));
            }
        }
    }
}
