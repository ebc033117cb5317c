//! The Path ORAM protocol (Stefanov et al., CCS'13) as used by ObliDB.

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, HostStats, OmBudget, OmError};
use oblidb_storage::{batch_chunk_blocks, SealedRegion, SealedScan, StorageError};

use crate::bucket::{Bucket, Slot};

/// Bucket capacity (blocks per tree node). Z = 4 gives negligible stash
/// overflow probability (Stefanov et al. §5).
pub const Z: usize = 4;

/// How the position map is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosMapKind {
    /// Entire map in oblivious memory: 8 bytes per logical address
    /// (paper §3.3). ObliDB's default, matching the paper's implementation.
    Direct,
    /// Map stored in a second, smaller ORAM; only the inner ORAM's direct
    /// map is charged to oblivious memory (paper Appendix B: one level of
    /// recursion suffices in practice, at ≈2× the access cost).
    Recursive {
        /// Position entries packed per inner ORAM block.
        entries_per_block: usize,
    },
}

/// Errors from ORAM operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OramError {
    /// Underlying sealed storage failed (includes tamper detection).
    Storage(StorageError),
    /// Logical address beyond the ORAM's fixed capacity.
    AddressOutOfRange {
        /// Requested address.
        addr: u64,
        /// ORAM capacity.
        capacity: u64,
    },
    /// The oblivious-memory budget cannot hold the position map.
    Om(OmError),
}

impl std::fmt::Display for OramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OramError::Storage(e) => write!(f, "storage: {e}"),
            OramError::AddressOutOfRange { addr, capacity } => {
                write!(f, "address {addr} out of range (capacity {capacity})")
            }
            OramError::Om(e) => write!(f, "oblivious memory: {e}"),
        }
    }
}

impl std::error::Error for OramError {}

impl From<StorageError> for OramError {
    fn from(e: StorageError) -> Self {
        OramError::Storage(e)
    }
}

impl From<OmError> for OramError {
    fn from(e: OmError) -> Self {
        OramError::Om(e)
    }
}

/// Access statistics (for the complexity-validation experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Logical accesses performed (reads + writes + dummies).
    pub accesses: u64,
    /// Peak stash occupancy observed.
    pub stash_peak: usize,
}

enum PositionMap {
    Direct {
        map: Vec<u32>,
        // Holds the oblivious-memory reservation for the map's lifetime.
        _om: oblidb_enclave::OmAllocation,
    },
    Recursive {
        inner: Box<PathOram>,
        entries_per_block: usize,
    },
}

impl PositionMap {
    /// Returns the current leaf for `addr` and atomically installs
    /// `new_leaf`.
    fn get_and_set<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        addr: u64,
        new_leaf: u32,
    ) -> Result<u32, OramError> {
        match self {
            PositionMap::Direct { map, .. } => {
                let slot = &mut map[addr as usize];
                let old = *slot;
                *slot = new_leaf;
                Ok(old)
            }
            PositionMap::Recursive { inner, entries_per_block } => {
                let epb = *entries_per_block as u64;
                let block_idx = addr / epb;
                let offset = ((addr % epb) * 4) as usize;
                let mut block = inner.read(host, block_idx)?;
                let old = u32::from_le_bytes(block[offset..offset + 4].try_into().unwrap());
                block[offset..offset + 4].copy_from_slice(&new_leaf.to_le_bytes());
                inner.write(host, block_idx, &block)?;
                Ok(old)
            }
        }
    }
}

/// A Path ORAM instance holding `capacity` fixed-size logical blocks.
///
/// Reads of never-written addresses return all-zero payloads — a block
/// exists in exactly one of {some bucket, the stash} once written.
pub struct PathOram {
    store: SealedRegion,
    payload_len: usize,
    capacity: u64,
    leaves: u64,
    /// Number of bucket levels (root is level 0; leaves are level
    /// `levels - 1`).
    levels: u32,
    posmap: PositionMap,
    stash: Vec<Slot>,
    rng: EnclaveRng,
    stats: OramStats,
    scratch: Vec<u8>,
    /// Reusable bucket-index list for batched path reads/writes.
    path_buf: Vec<u64>,
}

fn next_pow2(x: u64) -> u64 {
    x.max(2).next_power_of_two()
}

impl PathOram {
    /// Creates an empty ORAM for `capacity` logical blocks of
    /// `payload_len` bytes. The position map is charged to `om`.
    pub fn new<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        capacity: u64,
        payload_len: usize,
        pos_kind: PosMapKind,
        om: &OmBudget,
        mut rng: EnclaveRng,
    ) -> Result<Self, OramError> {
        let leaves = next_pow2(capacity);
        let levels = leaves.trailing_zeros() + 1;
        let buckets = 2 * leaves - 1;
        let bucket_len = Bucket::serialized_len(Z, payload_len);
        let store = SealedRegion::create(host, key.clone(), buckets as usize, bucket_len)?;

        let posmap = match pos_kind {
            PosMapKind::Direct => {
                // Paper §3.3: 8 bytes of oblivious memory per row.
                let alloc = om.try_alloc(capacity as usize * 8)?;
                let map = (0..capacity).map(|_| rng.below(leaves) as u32).collect();
                PositionMap::Direct { map, _om: alloc }
            }
            PosMapKind::Recursive { entries_per_block } => {
                assert!(entries_per_block > 0, "entries_per_block must be positive");
                let inner_capacity = capacity.div_ceil(entries_per_block as u64);
                let inner_key = AeadKey(oblidb_crypto::derive_key(&key.0, b"posmap"));
                // Unwritten inner blocks read as zeros, so every address
                // starts mapped to leaf 0 — a public constant, remapped to a
                // fresh random leaf on first access, so nothing data-
                // dependent leaks.
                let inner = PathOram::new(
                    host,
                    inner_key,
                    inner_capacity,
                    entries_per_block * 4,
                    PosMapKind::Direct,
                    om,
                    rng.fork(),
                )?;
                PositionMap::Recursive { inner: Box::new(inner), entries_per_block }
            }
        };

        Ok(Self {
            store,
            payload_len,
            capacity,
            leaves,
            levels,
            posmap,
            stash: Vec::new(),
            rng,
            stats: OramStats::default(),
            scratch: vec![0u8; bucket_len],
            path_buf: Vec::new(),
        })
    }

    /// What [`PathOram::new`] with a [`PosMapKind::Direct`] map costs the
    /// substrate: the tree's zero fill (the map lives in enclave memory).
    pub fn create_cost(capacity: u64, payload_len: usize) -> HostStats {
        let buckets = 2 * next_pow2(capacity) - 1;
        SealedRegion::create_cost(Bucket::serialized_len(Z, payload_len), buckets)
    }

    /// What one access — [`PathOram::read`], [`PathOram::write`] or
    /// [`PathOram::dummy_access`] — to an ORAM with a
    /// [`PosMapKind::Direct`] map costs the substrate: one gathered path
    /// read and one scattered path write.
    pub fn access_cost(capacity: u64, payload_len: usize) -> HostStats {
        let levels = u64::from(next_pow2(capacity).trailing_zeros() + 1);
        let bucket_len = Bucket::serialized_len(Z, payload_len);
        SealedRegion::read_batch_at_cost(bucket_len, levels)
            + SealedRegion::write_batch_at_cost(bucket_len, levels)
    }

    /// Number of logical blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Payload bytes per logical block.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Buckets touched per access (path length), a public constant.
    pub fn path_len(&self) -> u32 {
        self.levels
    }

    /// Total buckets in the tree.
    pub fn bucket_count(&self) -> u64 {
        2 * self.leaves - 1
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> OramStats {
        self.stats
    }

    /// The untrusted regions this ORAM keeps its buckets in: its own tree
    /// and, under a recursive position map, the inner ORAMs' trees. Which
    /// block of them an access touches is random by construction — the
    /// regions a trace auditor must compare by event count, not by index.
    pub fn region_ids(&self) -> Vec<oblidb_enclave::RegionId> {
        let mut regions = vec![self.store.region_id()];
        if let PositionMap::Recursive { inner, .. } = &self.posmap {
            regions.extend(inner.region_ids());
        }
        regions
    }

    /// Bucket index of the node at `level` on the path to `leaf`.
    fn path_bucket(&self, leaf: u64, level: u32) -> u64 {
        let leaf_level = self.levels - 1;
        ((1u64 << level) - 1) + (leaf >> (leaf_level - level))
    }

    fn check_addr(&self, addr: u64) -> Result<(), OramError> {
        if addr >= self.capacity {
            return Err(OramError::AddressOutOfRange { addr, capacity: self.capacity });
        }
        Ok(())
    }

    /// The core protocol: read a path, mutate the target, evict, write the
    /// path back.
    fn access<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        addr: u64,
        new_data: Option<&[u8]>,
    ) -> Result<Vec<u8>, OramError> {
        self.check_addr(addr)?;
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::OramPath);
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::OramAccesses, 1);
        let timed = oblidb_telemetry::enabled().then(std::time::Instant::now);
        let new_leaf = self.rng.below(self.leaves) as u32;
        let old_leaf = self.posmap.get_and_set(host, addr, new_leaf)? as u64;

        self.read_path_into_stash(host, old_leaf)?;

        // Find or create the target in the stash.
        let out = match self.stash.iter_mut().find(|s| s.addr == addr) {
            Some(slot) => {
                slot.leaf = new_leaf;
                if let Some(data) = new_data {
                    slot.data.clear();
                    slot.data.extend_from_slice(data);
                }
                slot.data.clone()
            }
            None => {
                // Never-written address: materialize zeros (or new data).
                let data =
                    new_data.map(<[u8]>::to_vec).unwrap_or_else(|| vec![0u8; self.payload_len]);
                self.stash.push(Slot { addr, leaf: new_leaf, data: data.clone() });
                data
            }
        };
        self.stats.stash_peak = self.stats.stash_peak.max(self.stash.len());

        self.evict_path(host, old_leaf)?;
        self.stats.accesses += 1;
        if let Some(t0) = timed {
            oblidb_telemetry::histogram_record(
                oblidb_telemetry::HistogramId::OramPathNanos,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(out)
    }

    /// Reads the whole root-to-leaf path in **one** boundary crossing
    /// (batched gather over the path's bucket indices), then unpacks every
    /// real slot into the stash. The per-bucket trace — root first, leaf
    /// last — is identical to the per-block loop it replaced.
    fn read_path_into_stash<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        leaf: u64,
    ) -> Result<(), OramError> {
        self.path_buf.clear();
        for level in 0..self.levels {
            self.path_buf.push(self.path_bucket(leaf, level));
        }
        let bucket_len = Bucket::serialized_len(Z, self.payload_len);
        let path = self.store.read_batch_at(host, &self.path_buf)?;
        for plaintext in path.chunks_exact(bucket_len) {
            let bucket = Bucket::deserialize(plaintext, Z, self.payload_len);
            for slot in bucket.slots {
                if slot.is_real() {
                    self.stash.push(slot);
                }
            }
        }
        Ok(())
    }

    /// Rebuilds and writes back the whole path in one boundary crossing
    /// (batched scatter, leaf to root — the same bucket order as the
    /// per-block loop it replaced).
    fn evict_path<M: EnclaveMemory>(&mut self, host: &mut M, leaf: u64) -> Result<(), OramError> {
        // Greedy eviction from the deepest level up: place each stash block
        // in the deepest bucket on this path that also lies on the block's
        // own path.
        let bucket_len = Bucket::serialized_len(Z, self.payload_len);
        self.path_buf.clear();
        self.scratch.clear();
        self.scratch.resize(self.levels as usize * bucket_len, 0);
        for (depth, level) in (0..self.levels).rev().enumerate() {
            let idx = self.path_bucket(leaf, level);
            self.path_buf.push(idx);
            let mut bucket = Bucket::empty(Z, self.payload_len);
            let mut filled = 0;
            let mut i = 0;
            while i < self.stash.len() && filled < Z {
                let entry_leaf = self.stash[i].leaf as u64;
                if self.path_bucket(entry_leaf, level) == idx {
                    bucket.slots[filled] = self.stash.swap_remove(i);
                    filled += 1;
                } else {
                    i += 1;
                }
            }
            bucket.serialize_into(
                self.payload_len,
                &mut self.scratch[depth * bucket_len..][..bucket_len],
            );
        }
        self.store.write_batch_at(host, &self.path_buf, &self.scratch)?;
        Ok(())
    }

    /// Oblivious read of logical block `addr`.
    pub fn read<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        addr: u64,
    ) -> Result<Vec<u8>, OramError> {
        self.access(host, addr, None)
    }

    /// Oblivious write of logical block `addr`.
    pub fn write<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        addr: u64,
        data: &[u8],
    ) -> Result<(), OramError> {
        assert_eq!(data.len(), self.payload_len, "payload length mismatch");
        self.access(host, addr, Some(data)).map(|_| ())
    }

    /// A dummy access: indistinguishable from a real one (paper §3.2 pads
    /// B+ tree operations with these to reach worst-case access counts).
    pub fn dummy_access<M: EnclaveMemory>(&mut self, host: &mut M) -> Result<(), OramError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::OramPath);
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::OramAccesses, 1);
        let leaf = self.rng.below(self.leaves);
        self.read_path_into_stash(host, leaf)?;
        self.stats.stash_peak = self.stats.stash_peak.max(self.stash.len());
        self.evict_path(host, leaf)?;
        self.stats.accesses += 1;
        Ok(())
    }

    /// Linear scan over the whole structure: every bucket in index order,
    /// then the (enclave-resident) stash. The callback receives every slot,
    /// dummy or real, so callers can do data-independent per-slot work —
    /// this is how an indexed table is scanned "as if flat" (paper §3.2:
    /// internal nodes and ORAM dummies are treated as dummy blocks).
    pub fn scan_slots<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        mut f: impl FnMut(&Slot),
    ) -> Result<(), OramError> {
        // Buckets are contiguous, so the scan streams them in batched
        // chunks — one crossing per chunk instead of one per bucket.
        let bucket_len = Bucket::serialized_len(Z, self.payload_len);
        let mut scan = SealedScan::with_chunk(&self.store, batch_chunk_blocks(bucket_len));
        while let Some((_, payloads)) = scan.next_chunk(host, &mut self.store)? {
            for plaintext in payloads.chunks_exact(bucket_len) {
                let bucket = Bucket::deserialize(plaintext, Z, self.payload_len);
                for slot in &bucket.slots {
                    f(slot);
                }
            }
        }
        for slot in &self.stash {
            f(slot);
        }
        Ok(())
    }

    /// Bulk-loads contents at creation time (pre-deployment loading).
    /// `items[i]` becomes logical block `i`.
    pub fn with_contents<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        items: &[Vec<u8>],
        payload_len: usize,
        pos_kind: PosMapKind,
        om: &OmBudget,
        rng: EnclaveRng,
    ) -> Result<Self, OramError> {
        let mut oram = Self::new(host, key, items.len() as u64, payload_len, pos_kind, om, rng)?;

        // Build the whole tree in enclave memory, then seal each bucket once.
        let bucket_count = oram.bucket_count() as usize;
        let mut tree: Vec<Bucket> = vec![Bucket::empty(Z, payload_len); bucket_count];
        let mut fill: Vec<usize> = vec![0; bucket_count];

        for (addr, data) in items.iter().enumerate() {
            assert_eq!(data.len(), payload_len, "payload length mismatch");
            // Assign a fresh random leaf and record it in the position map
            // (works for both direct and recursive maps).
            let leaf = oram.rng.below(oram.leaves);
            oram.posmap.get_and_set(host, addr as u64, leaf as u32)?;
            let slot = Slot { addr: addr as u64, leaf: leaf as u32, data: data.clone() };
            // Deepest available bucket on the path, else stash.
            let mut placed = false;
            for level in (0..oram.levels).rev() {
                let idx = oram.path_bucket(leaf, level) as usize;
                if fill[idx] < Z {
                    tree[idx].slots[fill[idx]] = slot.clone();
                    fill[idx] += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                oram.stash.push(slot);
            }
        }

        // Seal the finished tree in contiguous batched chunks: one
        // crossing per chunk instead of one per bucket.
        let bucket_len = Bucket::serialized_len(Z, payload_len);
        let chunk = batch_chunk_blocks(bucket_len);
        let mut buf = vec![0u8; chunk * bucket_len];
        let mut idx = 0usize;
        while idx < tree.len() {
            let n = chunk.min(tree.len() - idx);
            for (off, bucket) in tree[idx..idx + n].iter().enumerate() {
                bucket.serialize_into(payload_len, &mut buf[off * bucket_len..][..bucket_len]);
            }
            oram.store.write_batch(host, idx as u64, &buf[..n * bucket_len])?;
            idx += n;
        }
        Ok(oram)
    }

    /// Releases untrusted memory.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), OramError> {
        match self.posmap {
            PositionMap::Recursive { inner, .. } => inner.free(host)?,
            PositionMap::Direct { .. } => {}
        }
        self.store.free(host)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;
    use oblidb_enclave::{AccessKind, DEFAULT_OM_BYTES};
    use std::collections::HashMap;

    fn setup(capacity: u64, payload: usize, kind: PosMapKind) -> (Host, PathOram, OmBudget) {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let oram = PathOram::new(
            &mut host,
            AeadKey([9u8; 32]),
            capacity,
            payload,
            kind,
            &om,
            EnclaveRng::seed_from_u64(42),
        )
        .unwrap();
        (host, oram, om)
    }

    #[test]
    fn read_your_writes_direct() {
        let (mut host, mut oram, _om) = setup(64, 16, PosMapKind::Direct);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = EnclaveRng::seed_from_u64(7);
        for _ in 0..500 {
            let addr = rng.below(64);
            if rng.below(2) == 0 {
                let mut data = vec![0u8; 16];
                rng.fill(&mut data);
                oram.write(&mut host, addr, &data).unwrap();
                model.insert(addr, data);
            } else {
                let got = oram.read(&mut host, addr).unwrap();
                let expected = model.get(&addr).cloned().unwrap_or_else(|| vec![0u8; 16]);
                assert_eq!(got, expected, "addr {addr}");
            }
        }
    }

    #[test]
    fn read_your_writes_recursive() {
        let (mut host, mut oram, _om) =
            setup(64, 16, PosMapKind::Recursive { entries_per_block: 8 });
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = EnclaveRng::seed_from_u64(8);
        for _ in 0..300 {
            let addr = rng.below(64);
            if rng.below(2) == 0 {
                let mut data = vec![0u8; 16];
                rng.fill(&mut data);
                oram.write(&mut host, addr, &data).unwrap();
                model.insert(addr, data);
            } else {
                let got = oram.read(&mut host, addr).unwrap();
                let expected = model.get(&addr).cloned().unwrap_or_else(|| vec![0u8; 16]);
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn unwritten_reads_zero() {
        let (mut host, mut oram, _om) = setup(10, 8, PosMapKind::Direct);
        assert_eq!(oram.read(&mut host, 3).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut host, mut oram, _om) = setup(10, 8, PosMapKind::Direct);
        assert_eq!(
            oram.read(&mut host, 10).unwrap_err(),
            OramError::AddressOutOfRange { addr: 10, capacity: 10 }
        );
    }

    #[test]
    fn access_touches_exactly_one_path() {
        let (mut host, mut oram, _om) = setup(32, 8, PosMapKind::Direct);
        let region = oram.store.region_id();
        host.start_trace();
        oram.write(&mut host, 5, &[1u8; 8]).unwrap();
        let trace = host.take_trace();
        let events = trace.for_region(region);
        let levels = oram.path_len() as usize;
        assert_eq!(events.len(), 2 * levels);
        // First half: reads root -> leaf; second half: writes leaf -> root.
        for (i, e) in events.iter().enumerate() {
            if i < levels {
                assert_eq!(e.kind, AccessKind::Read);
            } else {
                assert_eq!(e.kind, AccessKind::Write);
            }
        }
        // Reads and writes cover the same buckets, reversed.
        let reads: Vec<u64> = events[..levels].iter().map(|e| e.index).collect();
        let mut writes: Vec<u64> = events[levels..].iter().map(|e| e.index).collect();
        writes.reverse();
        assert_eq!(reads, writes);
        // The read sequence is a valid root-to-leaf path.
        assert_eq!(reads[0], 0);
        for w in reads.windows(2) {
            assert!(w[1] == 2 * w[0] + 1 || w[1] == 2 * w[0] + 2, "not a tree path: {reads:?}");
        }
    }

    #[test]
    fn access_is_two_crossings() {
        // The whole root-to-leaf path is fetched in one batched crossing
        // and written back in another, regardless of tree height.
        let (mut host, mut oram, _om) = setup(256, 8, PosMapKind::Direct);
        assert_eq!(host.stats(), PathOram::create_cost(256, 8), "creation is priced exactly");
        host.reset_stats();
        oram.write(&mut host, 5, &[1u8; 8]).unwrap();
        let s = host.stats();
        assert_eq!(s.crossings, 2, "one read crossing + one write crossing per access");
        assert_eq!(s.total_accesses(), 2 * oram.path_len() as u64);
        assert_eq!(s, PathOram::access_cost(256, 8), "an access is priced exactly");
        host.reset_stats();
        oram.dummy_access(&mut host).unwrap();
        assert_eq!(host.stats().crossings, 2, "dummy accesses batch identically");
        assert_eq!(host.stats(), PathOram::access_cost(256, 8));
    }

    #[test]
    fn dummy_access_indistinguishable_in_shape() {
        let (mut host, mut oram, _om) = setup(32, 8, PosMapKind::Direct);
        let region = oram.store.region_id();
        host.start_trace();
        oram.read(&mut host, 0).unwrap();
        let real = host.take_trace().for_region(region).len();
        host.start_trace();
        oram.dummy_access(&mut host).unwrap();
        let dummy = host.take_trace().for_region(region).len();
        assert_eq!(real, dummy);
    }

    #[test]
    fn access_count_independent_of_addresses() {
        // Two different logical address sequences of the same length produce
        // the same number of untrusted accesses — the executable core of the
        // ORAM obliviousness guarantee. A recursive position map keeps its
        // leaves in ORAM payloads, so its paths differ, but not its counts.
        for kind in [PosMapKind::Direct, PosMapKind::Recursive { entries_per_block: 8 }] {
            let counts: Vec<u64> = [vec![0u64; 50], (0..50).collect::<Vec<u64>>()]
                .into_iter()
                .map(|addrs| {
                    let (mut host, mut oram, _om) = setup(64, 8, kind);
                    host.reset_stats();
                    for a in addrs {
                        oram.read(&mut host, a).unwrap();
                    }
                    host.stats().total_accesses()
                })
                .collect();
            assert_eq!(counts[0], counts[1], "{kind:?}");
        }
    }

    #[test]
    fn stash_stays_bounded() {
        let (mut host, mut oram, _om) = setup(256, 8, PosMapKind::Direct);
        let mut rng = EnclaveRng::seed_from_u64(3);
        for i in 0..256 {
            oram.write(&mut host, i, &[i as u8; 8]).unwrap();
        }
        for _ in 0..2000 {
            let addr = rng.below(256);
            oram.read(&mut host, addr).unwrap();
        }
        assert!(oram.stats().stash_peak < 120, "stash peak {} too large", oram.stats().stash_peak);
    }

    #[test]
    fn scan_slots_sees_all_blocks() {
        let (mut host, mut oram, _om) = setup(20, 8, PosMapKind::Direct);
        for i in 0..20 {
            oram.write(&mut host, i, &[i as u8; 8]).unwrap();
        }
        let mut seen = Vec::new();
        oram.scan_slots(&mut host, |slot| {
            if slot.is_real() {
                seen.push(slot.addr);
            }
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn bulk_load_roundtrip() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let items: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; 8]).collect();
        let mut oram = PathOram::with_contents(
            &mut host,
            AeadKey([1u8; 32]),
            &items,
            8,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(5),
        )
        .unwrap();
        for (i, item) in items.iter().enumerate() {
            assert_eq!(&oram.read(&mut host, i as u64).unwrap(), item);
        }
    }

    #[test]
    fn bulk_load_recursive_roundtrip() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let items: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 8]).collect();
        let mut oram = PathOram::with_contents(
            &mut host,
            AeadKey([1u8; 32]),
            &items,
            8,
            PosMapKind::Recursive { entries_per_block: 16 },
            &om,
            EnclaveRng::seed_from_u64(5),
        )
        .unwrap();
        for (i, item) in items.iter().enumerate() {
            assert_eq!(&oram.read(&mut host, i as u64).unwrap(), item);
        }
    }

    #[test]
    fn recursive_posmap_uses_less_oblivious_memory() {
        let mut host = Host::new();
        let om_direct = OmBudget::new(DEFAULT_OM_BYTES);
        let _a = PathOram::new(
            &mut host,
            AeadKey([1u8; 32]),
            4096,
            8,
            PosMapKind::Direct,
            &om_direct,
            EnclaveRng::seed_from_u64(1),
        )
        .unwrap();
        let om_rec = OmBudget::new(DEFAULT_OM_BYTES);
        let _b = PathOram::new(
            &mut host,
            AeadKey([1u8; 32]),
            4096,
            8,
            PosMapKind::Recursive { entries_per_block: 256 },
            &om_rec,
            EnclaveRng::seed_from_u64(1),
        )
        .unwrap();
        assert_eq!(om_direct.used(), 4096 * 8);
        assert!(om_rec.used() <= 4096 * 8 / 100, "recursive map used {}", om_rec.used());
    }

    #[test]
    fn om_exhaustion_fails_cleanly() {
        let mut host = Host::new();
        let om = OmBudget::new(16); // room for 2 position entries only
        let result = PathOram::new(
            &mut host,
            AeadKey([1u8; 32]),
            1024,
            8,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(1),
        );
        assert!(matches!(result.err().unwrap(), OramError::Om(_)));
    }

    #[test]
    fn leaf_choice_looks_uniform() {
        // Statistical smoke test: repeated accesses to a single address must
        // touch many distinct leaf-level buckets (leaf remapping works).
        let (mut host, mut oram, _om) = setup(64, 8, PosMapKind::Direct);
        let region = oram.store.region_id();
        oram.write(&mut host, 0, &[1u8; 8]).unwrap();
        let leaf_level_start = (1u64 << (oram.path_len() - 1)) - 1;
        let mut leaves_seen = std::collections::HashSet::new();
        for _ in 0..200 {
            host.start_trace();
            oram.read(&mut host, 0).unwrap();
            let t = host.take_trace();
            for e in t.for_region(region) {
                if e.index >= leaf_level_start && e.kind == AccessKind::Read {
                    leaves_seen.insert(e.index);
                }
            }
        }
        // 64 leaves; 200 draws should hit a large fraction.
        assert!(leaves_seen.len() > 40, "only {} distinct leaves", leaves_seen.len());
    }

    #[test]
    fn free_releases_regions() {
        let (mut host, oram, om) = setup(32, 8, PosMapKind::Direct);
        oram.free(&mut host).unwrap();
        drop(om);
        // Re-allocating after free works fine.
        let om2 = OmBudget::new(DEFAULT_OM_BYTES);
        let _again = PathOram::new(
            &mut host,
            AeadKey([2u8; 32]),
            32,
            8,
            PosMapKind::Direct,
            &om2,
            EnclaveRng::seed_from_u64(11),
        )
        .unwrap();
    }

    #[test]
    fn overwrite_updates_value() {
        let (mut host, mut oram, _om) = setup(8, 4, PosMapKind::Direct);
        oram.write(&mut host, 2, &[1, 1, 1, 1]).unwrap();
        oram.write(&mut host, 2, &[2, 2, 2, 2]).unwrap();
        assert_eq!(oram.read(&mut host, 2).unwrap(), vec![2, 2, 2, 2]);
        // No duplicate entries for the same address exist anywhere.
        let mut count = 0;
        oram.scan_slots(&mut host, |s| {
            if s.addr == 2 {
                count += 1;
            }
        })
        .unwrap();
        assert_eq!(count, 1);
    }
}
