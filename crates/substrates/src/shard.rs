//! Region routing across multiple inner substrates.

use oblidb_enclave::{
    AccessEvent, AccessKind, EnclaveMemory, HostError, HostStats, RegionId, Trace,
};

/// Routes regions round-robin across N inner [`EnclaveMemory`] shards —
/// the placement layer for multi-backing-store deployments and the
/// prerequisite for concurrent query execution (each shard can live on
/// its own device or, later, its own thread).
///
/// Identity: callers see *global* region ids allocated in order, exactly
/// like [`Host`](oblidb_enclave::Host); the wrapper maps each to a
/// `(shard, inner region)` pair. The wrapper records the adversary trace
/// in global ids (reconstructing the exact per-block prefix `Host` would
/// record when a batched call fails mid-way), and every error is re-tagged
/// with the global region id, so traces, stats, and error values are
/// indistinguishable from a single-substrate run.
///
/// Stats: [`EnclaveMemory::stats`] sums the shards; [`ShardedMemory::shard_stats`]
/// exposes the per-shard counters (including per-shard boundary
/// crossings) for placement diagnostics and bench reporting.
pub struct ShardedMemory<M: EnclaveMemory> {
    shards: Vec<M>,
    /// Global region id → (shard index, inner region id).
    regions: Vec<Option<(usize, RegionId)>>,
    next_shard: usize,
    trace: Option<Vec<AccessEvent>>,
}

impl<M: EnclaveMemory> ShardedMemory<M> {
    /// Wraps the given shards (at least one).
    pub fn new(shards: Vec<M>) -> Self {
        assert!(!shards.is_empty(), "sharded memory needs at least one shard");
        ShardedMemory { shards, regions: Vec::new(), next_shard: 0, trace: None }
    }

    /// Builds `n` shards from a constructor closure (shard index as
    /// argument).
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> M) -> Self {
        Self::new((0..n).map(f).collect())
    }

    /// Re-attaches to shards a previous `ShardedMemory` populated.
    ///
    /// Round-robin placement makes the global→inner mapping a pure
    /// function of the allocation index: global region `g` lives on shard
    /// `g % N` as that shard's region `g / N` (both global and inner ids
    /// are monotonic and never reused, frees included). `slots[i]` is
    /// shard `i`'s total region-slot count — live regions *plus*
    /// tombstones — as reported by the reopened inner substrate; freed
    /// globals are reconstructed as tombstones by probing liveness, and
    /// the round-robin cursor resumes where the persisted store left off.
    pub fn reattach(shards: Vec<M>, slots: &[usize]) -> Self {
        assert_eq!(shards.len(), slots.len(), "one slot count per shard");
        assert!(!shards.is_empty(), "sharded memory needs at least one shard");
        let n = shards.len();
        let total: usize = slots.iter().sum();
        let mut regions = Vec::with_capacity(total);
        for g in 0..total {
            let (shard, inner) = (g % n, RegionId((g / n) as u32));
            let live = shards[shard].region_len(inner).is_ok();
            regions.push(live.then_some((shard, inner)));
        }
        ShardedMemory { shards, regions, next_shard: total % n, trace: None }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's counters: the traffic (block accesses, bytes, boundary
    /// crossings) that routing sent its way.
    pub fn shard_stats(&self, shard: usize) -> HostStats {
        self.shards[shard].stats()
    }

    /// The shards themselves (e.g. to read disk paths or cache stats).
    pub fn shards(&self) -> &[M] {
        &self.shards
    }

    /// Mutable access to one shard, for substrate-level configuration
    /// (crossing costs etc.). Block I/O through this bypasses the global
    /// trace.
    pub fn shard_mut(&mut self, shard: usize) -> &mut M {
        &mut self.shards[shard]
    }

    fn resolve(&self, region: RegionId) -> Result<(usize, RegionId), HostError> {
        self.regions.get(region.0 as usize).and_then(|r| *r).ok_or(HostError::UnknownRegion(region))
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }

    /// Re-tags an inner error with the global region id. Every error a
    /// forwarded call can produce refers to the region it was called on.
    fn retag(region: RegionId, e: HostError) -> HostError {
        match e {
            HostError::UnknownRegion(_) => HostError::UnknownRegion(region),
            HostError::OutOfBounds { index, len, .. } => {
                HostError::OutOfBounds { region, index, len }
            }
            HostError::EmptyBlock(_, i) => HostError::EmptyBlock(region, i),
            HostError::BlockSizeMismatch { expected, got, .. } => {
                HostError::BlockSizeMismatch { region, expected, got }
            }
            // Re-tag the region context; the kind and operation carry over.
            HostError::Io { kind, region: r, op } => {
                HostError::Io { kind, region: r.map(|_| region), op }
            }
        }
    }

    /// The block index a mid-batch failure stopped at, if the error names
    /// one. `Host` records per-block events up to and including the
    /// failing block; the wrapper reconstructs exactly that prefix.
    fn err_index(e: &HostError) -> Option<u64> {
        match e {
            HostError::OutOfBounds { index, .. } => Some(*index),
            HostError::EmptyBlock(_, i) => Some(*i),
            _ => None,
        }
    }

    /// Records the per-block events of a contiguous batched call, cut to
    /// the prefix `Host` would have recorded on failure.
    fn record_run(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        kind: AccessKind,
        res: &Result<(), HostError>,
    ) {
        if self.trace.is_none() {
            return;
        }
        let events = match res {
            Ok(()) => count as u64,
            Err(e) => match Self::err_index(e) {
                Some(i) if i >= start && i < start + count as u64 => i - start + 1,
                _ => 0,
            },
        };
        for index in start..start + events {
            self.record(region, index, kind);
        }
    }

    /// Gather/scatter variant of [`ShardedMemory::record_run`].
    fn record_list(
        &mut self,
        region: RegionId,
        indices: &[u64],
        kind: AccessKind,
        res: &Result<(), HostError>,
    ) {
        if self.trace.is_none() {
            return;
        }
        let events = match res {
            Ok(()) => indices.len(),
            Err(e) => match Self::err_index(e) {
                Some(i) => indices.iter().position(|&x| x == i).map_or(0, |p| p + 1),
                None => 0,
            },
        };
        for &index in &indices[..events] {
            self.record(region, index, kind);
        }
    }
}

impl<M: EnclaveMemory> EnclaveMemory for ShardedMemory<M> {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        let shard = self.next_shard;
        let id = RegionId(self.regions.len() as u32);
        // A failed inner allocation registers nothing and does not advance
        // the round-robin cursor, so the next attempt targets the same
        // shard a single-substrate run would have.
        let inner =
            self.shards[shard].alloc_region(blocks, block_size).map_err(|e| Self::retag(id, e))?;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        self.regions.push(Some((shard, inner)));
        Ok(id)
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        if let Ok((shard, inner)) = self.resolve(region) {
            self.shards[shard].free_region(inner).map_err(|e| Self::retag(region, e))?;
            self.regions[region.0 as usize] = None;
        }
        Ok(())
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].grow_region(inner, new_blocks).map_err(|e| Self::retag(region, e))
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].region_len(inner).map_err(|e| Self::retag(region, e))
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].region_block_size(inner).map_err(|e| Self::retag(region, e))
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        // Host records the attempt before validating; so does the wrapper.
        self.record(region, index, AccessKind::Read);
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].read(inner, index).map_err(|e| Self::retag(region, e))
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].write(inner, index, data).map_err(|e| Self::retag(region, e))
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        // Clear before resolving: Host never leaves stale bytes in the
        // caller's buffer, even on UnknownRegion.
        out.clear();
        let (shard, inner) = self.resolve(region)?;
        let res = self.shards[shard]
            .read_blocks(inner, start, count, out)
            .map_err(|e| Self::retag(region, e));
        self.record_run(region, start, count, AccessKind::Read, &res);
        res
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let (shard, inner) = self.resolve(region)?;
        let res = self.shards[shard]
            .read_blocks_at(inner, indices, out)
            .map_err(|e| Self::retag(region, e));
        self.record_list(region, indices, AccessKind::Read, &res);
        res
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let (shard, inner) = self.resolve(region)?;
        let block_size =
            self.shards[shard].region_block_size(inner).map_err(|e| Self::retag(region, e))?;
        let res =
            self.shards[shard].write_blocks(inner, start, data).map_err(|e| Self::retag(region, e));
        let count = data.len().checked_div(block_size).unwrap_or(0);
        self.record_run(region, start, count, AccessKind::Write, &res);
        res
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        let (shard, inner) = self.resolve(region)?;
        let res = self.shards[shard]
            .write_blocks_at(inner, indices, data)
            .map_err(|e| Self::retag(region, e));
        self.record_list(region, indices, AccessKind::Write, &res);
        res
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

    /// The sum of all shards' counters (each forwarded call performs
    /// exactly one inner call, so totals match a single-substrate run).
    fn stats(&self) -> HostStats {
        self.shards.iter().map(|s| s.stats()).sum()
    }

    fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_stats();
        }
    }

    fn sync(&mut self) -> Result<(), HostError> {
        for s in &mut self.shards {
            s.sync()?;
        }
        Ok(())
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let (shard, inner) = self.resolve(region)?;
        self.shards[shard].sync_region(inner).map_err(|e| Self::retag(region, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    #[test]
    fn round_robin_placement_and_per_shard_stats() {
        let mut m = ShardedMemory::from_fn(3, |_| Host::new());
        let regions: Vec<RegionId> = (0..6).map(|_| m.alloc_region(4, 8).unwrap()).collect();
        assert_eq!(regions[4], RegionId(4), "global ids are sequential");
        for (i, &r) in regions.iter().enumerate() {
            m.write(r, 0, &[i as u8; 8]).unwrap();
        }
        // 6 regions over 3 shards round-robin → 2 writes per shard.
        for shard in 0..3 {
            assert_eq!(m.shard_stats(shard).writes, 2);
        }
        assert_eq!(m.stats().writes, 6);
        for (i, &r) in regions.iter().enumerate() {
            assert_eq!(m.read(r, 0).unwrap(), &[i as u8; 8]);
        }
    }

    #[test]
    fn trace_and_stats_match_host() {
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, HostStats, Vec<u8>) {
            let a = m.alloc_region(8, 4).unwrap();
            let b = m.alloc_region(8, 4).unwrap();
            m.start_trace();
            m.reset_stats();
            let data: Vec<u8> = (0..32).collect();
            m.write_blocks(a, 0, &data).unwrap();
            m.write_blocks_at(b, &[5, 1], &data[..8]).unwrap();
            let mut out = Vec::new();
            m.read_blocks(a, 1, 5, &mut out).unwrap();
            let mut g = Vec::new();
            m.read_blocks_at(b, &[1, 5], &mut g).unwrap();
            out.extend_from_slice(&g);
            out.extend_from_slice(m.read(a, 7).unwrap());
            (m.take_trace(), m.stats(), out)
        }
        let (ht, hs, hb) = drive(&mut Host::new());
        let (st, ss, sb) = drive(&mut ShardedMemory::from_fn(2, |_| Host::new()));
        assert_eq!(ht, st, "global-id trace must match a single Host");
        assert_eq!(hs, ss);
        assert_eq!(hb, sb);
    }

    #[test]
    fn failed_batches_trace_the_host_prefix() {
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Trace, Vec<HostError>) {
            let r = m.alloc_region(4, 2).unwrap();
            m.start_trace();
            let mut errs = Vec::new();
            m.write_blocks(r, 0, &[0u8; 4]).unwrap();
            let mut out = Vec::new();
            // EmptyBlock at index 2 after two good blocks.
            errs.push(m.read_blocks(r, 0, 4, &mut out).unwrap_err());
            // Gather failing at the second index (block 3 still empty).
            errs.push(m.read_blocks_at(r, &[1, 3, 0], &mut out).unwrap_err());
            // OutOfBounds at 4 after two good writes (partial write).
            errs.push(m.write_blocks(r, 2, &[0u8; 6]).unwrap_err());
            // Ragged buffer: rejected before any event.
            errs.push(m.write_blocks(r, 0, &[0u8; 3]).unwrap_err());
            // Count mismatch on scatter: rejected before any event.
            errs.push(m.write_blocks_at(r, &[0], &[0u8; 4]).unwrap_err());
            (m.take_trace(), errs)
        }
        let (ht, he) = drive(&mut Host::new());
        let (st, se) = drive(&mut ShardedMemory::from_fn(3, |_| Host::new()));
        assert_eq!(he, se, "errors must carry global region ids");
        assert_eq!(ht, st, "failure-path traces must match Host event-for-event");
    }

    #[test]
    fn unknown_region_after_free() {
        let mut m = ShardedMemory::from_fn(2, |_| Host::new());
        let r = m.alloc_region(2, 4).unwrap();
        m.free_region(r).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::UnknownRegion(r)));
        assert_eq!(m.region_len(r), Err(HostError::UnknownRegion(r)));
    }
}
