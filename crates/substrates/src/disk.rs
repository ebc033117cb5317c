//! Disk-backed untrusted memory: one file per region, block-aligned.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use oblidb_enclave::{
    batch_count, AccessEvent, AccessKind, EnclaveMemory, HostError, HostStats, IoOp, RegionId,
    Trace,
};

use crate::TempDir;

/// The persisted region table: everything [`DiskMemory::open`] needs to
/// re-attach to a populated directory (region ids incl. tombstones, block
/// geometry, written-block bitmaps). Rewritten atomically (temp file +
/// rename) on every [`EnclaveMemory::sync`] / `sync_region`.
pub const REGION_META_FILE: &str = "regions.meta";

const META_MAGIC: &[u8; 8] = b"OBLIDBMT";
const META_VERSION: u32 = 1;

struct DiskRegion {
    file: File,
    path: PathBuf,
    block_size: usize,
    blocks: u64,
    /// One bit per block: whether it was ever written. Mirrors `Host`'s
    /// `Option<Box<[u8]>>` slots so unwritten reads fail with the same
    /// [`HostError::EmptyBlock`]; the file itself is sparse zeros until
    /// first write.
    written: Vec<u64>,
    /// Whether the last successful [`DiskMemory::write_meta`] recorded
    /// this region in the on-disk table. A listed region must leave the
    /// table durably *before* its file is unlinked (see
    /// [`EnclaveMemory::free_region`]); unlisted ones — scratch regions
    /// allocated and freed between syncs — skip straight to the unlink.
    listed: bool,
}

impl DiskRegion {
    fn is_written(&self, index: u64) -> bool {
        self.written[(index / 64) as usize] & (1 << (index % 64)) != 0
    }

    fn mark_written(&mut self, index: u64) {
        self.written[(index / 64) as usize] |= 1 << (index % 64);
    }

    /// Traces and validates the run of consecutive indices `indices`
    /// starts with, through its first failing block (as Host does): out of
    /// bounds, or — for a read — never written. Returns how many blocks
    /// validated and the failure that ended the run, if one did.
    fn scan_run(
        &self,
        region: RegionId,
        indices: &[u64],
        kind: AccessKind,
        trace: &mut Option<Vec<AccessEvent>>,
    ) -> (usize, Option<HostError>) {
        let mut run = 0;
        while indices.get(run).is_some_and(|x| x.checked_sub(indices[0]) == Some(run as u64)) {
            let index = indices[run];
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind });
            }
            if index >= self.blocks {
                return (run, Some(HostError::OutOfBounds { region, index, len: self.blocks }));
            }
            if kind == AccessKind::Read && !self.is_written(index) {
                return (run, Some(HostError::EmptyBlock(region, index)));
            }
            run += 1;
        }
        (run, None)
    }
}

/// A file-per-region [`EnclaveMemory`] substrate for datasets larger than
/// RAM.
///
/// Layout: each region is one file of `blocks × block_size` bytes at a
/// block-aligned offset (`index × block_size`), grown with `set_len` and
/// deleted on [`EnclaveMemory::free_region`]. Batched calls map to single
/// positioned reads/writes (`pread`/`pwrite`-style), so the engine's
/// `read_blocks`/`write_blocks` path amortizes the syscall as well as the
/// simulated enclave crossing; gather/scatter (`_at`) variants issue one
/// positioned call per run of consecutive indices (a Path ORAM bucket, one
/// side of a bitonic pair) and count a single crossing.
///
/// Accounting is bit-compatible with [`oblidb_enclave::Host`]: the same
/// trace events in the same order (failed attempts included), the same
/// error precedence, the same [`HostStats`] counting — so every
/// obliviousness test that compares transcripts passes unchanged over
/// disk. Payload durability: [`EnclaveMemory::sync`] fsyncs every region
/// file.
///
/// Construction: [`DiskMemory::create`] uses (and keeps) an explicit
/// directory; [`DiskMemory::temp`] owns a [`TempDir`] that removes itself
/// on drop, so tests and benches leave nothing behind.
pub struct DiskMemory {
    dir: PathBuf,
    regions: Vec<Option<DiskRegion>>,
    trace: Option<Vec<AccessEvent>>,
    stats: HostStats,
    scratch: Vec<u8>,
    /// Serialized region table, kept in sync incrementally: single-block
    /// writes patch their bitmap word in place, so the steady-state
    /// [`EnclaveMemory::sync_region`] path (the WAL's durable append)
    /// serializes in O(1) instead of re-walking every region.
    meta_buf: Vec<u8>,
    /// Byte offset of each live region's entry inside `meta_buf`, indexed
    /// by region id; `None` for tombstones.
    meta_spans: Vec<Option<usize>>,
    /// Whether `meta_buf`/`meta_spans` reflect the current region table.
    /// Structural changes (alloc/free/grow) clear it; the next
    /// `write_meta` rebuilds once.
    meta_valid: bool,
    /// Present when this substrate owns a self-cleaning directory.
    _guard: Option<TempDir>,
}

impl DiskMemory {
    /// Creates a **fresh** disk substrate rooted at `dir` (created if
    /// missing). Region files persist after drop; re-attach to them later
    /// with [`DiskMemory::open`]. To prevent a second `create` from
    /// silently truncating earlier data, this refuses a directory that
    /// already contains region files or a region table.
    /// [`EnclaveMemory::free_region`] deletes individual region files.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".blk") || name == REGION_META_FILE {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!(
                        "{} already holds a DiskMemory store (found {:?}); use \
                         DiskMemory::open to re-attach, or point create at a fresh directory",
                        dir.display(),
                        name
                    ),
                ));
            }
        }
        Ok(DiskMemory {
            dir,
            regions: Vec::new(),
            trace: None,
            stats: HostStats::default(),
            scratch: Vec::new(),
            meta_buf: Vec::new(),
            meta_spans: Vec::new(),
            meta_valid: false,
            _guard: None,
        })
    }

    /// Re-attaches to a directory a previous `DiskMemory` populated and
    /// synced: reads the persisted region table ([`REGION_META_FILE`]) and
    /// opens every live region file without truncating it. Region ids —
    /// including tombstones of freed regions — resume exactly where the
    /// persisted store left off, so a reopened engine allocates the same
    /// ids (and therefore produces the same traces) as the one that wrote
    /// the store.
    ///
    /// The region table is untrusted state (geometry and bitmaps are
    /// public); integrity of the *contents* is the sealed layer's job. A
    /// missing or structurally invalid table, or a region file whose size
    /// disagrees with it, fails with a descriptive `io::Error` — reopen
    /// never guesses.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        let meta = std::fs::read(dir.join(REGION_META_FILE)).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "{}: cannot read region table {REGION_META_FILE} ({e}); only a synced \
                     DiskMemory store can be reopened",
                    dir.display()
                ),
            )
        })?;
        let regions = Self::decode_meta(&dir, &meta)?;
        Ok(DiskMemory {
            dir,
            regions,
            trace: None,
            stats: HostStats::default(),
            scratch: Vec::new(),
            meta_buf: Vec::new(),
            meta_spans: Vec::new(),
            meta_valid: false,
            _guard: None,
        })
    }

    /// Parses the region table and opens the live region files.
    fn decode_meta(dir: &Path, meta: &[u8]) -> std::io::Result<Vec<Option<DiskRegion>>> {
        let bad = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: corrupt {REGION_META_FILE}: {what}", dir.display()),
            )
        };
        let mut at = 0usize;
        let mut take = |n: usize| -> std::io::Result<&[u8]> {
            let end = at.checked_add(n).filter(|e| *e <= meta.len()).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: corrupt {REGION_META_FILE}: truncated", dir.display()),
                )
            })?;
            let s = &meta[at..end];
            at = end;
            Ok(s)
        };
        if take(8)? != META_MAGIC {
            return Err(bad("bad magic"));
        }
        let u32_of = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("u32"));
        let u64_of = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("u64"));
        if u32_of(take(4)?) != META_VERSION {
            return Err(bad("unsupported version"));
        }
        // The table is attacker-controlled input: every count is bounded
        // (and every multiplication checked) before any allocation, so a
        // forged file is a typed InvalidData error — the worst a forged
        // count can extract is a few hundred MB of `None` slots (the same
        // id-space table a legitimately long-lived store holds in RAM;
        // id-space compaction is the real fix and a ROADMAP note), never
        // an unbounded allocation or an overflow that slips a bogus
        // geometry past the size check.
        let next_id = u32_of(take(4)?) as usize;
        let live = u32_of(take(4)?) as usize;
        if next_id > 1 << 22 || live > next_id {
            return Err(bad("implausible region count"));
        }
        let mut regions: Vec<Option<DiskRegion>> = (0..next_id).map(|_| None).collect();
        for _ in 0..live {
            let id = u32_of(take(4)?) as usize;
            let block_size = u64_of(take(8)?) as usize;
            let blocks = u64_of(take(8)?);
            let expect = (block_size as u64)
                .checked_mul(blocks)
                .filter(|_| block_size > 0 && block_size <= 1 << 30)
                .ok_or_else(|| bad("implausible region geometry"))?;
            let words = blocks.div_ceil(64) as usize;
            // Bounded by the input size, so with_capacity cannot be
            // tricked into a huge allocation.
            if words > meta.len() / 8 {
                return Err(bad("truncated written-block bitmap"));
            }
            let mut written = Vec::with_capacity(words);
            for _ in 0..words {
                written.push(u64_of(take(8)?));
            }
            if id >= next_id || regions[id].is_some() {
                return Err(bad("region id out of range or duplicated"));
            }
            let path = dir.join(format!("region-{id:08}.blk"));
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            let got = file.metadata()?.len();
            if got != expect {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: region file is {got} bytes, region table says {expect} \
                         (blocks={blocks} × block_size={block_size}); the store was \
                         truncated or swapped",
                        path.display()
                    ),
                ));
            }
            regions[id] =
                Some(DiskRegion { file, path, block_size, blocks, written, listed: true });
        }
        if at != meta.len() {
            return Err(bad("trailing bytes"));
        }
        Ok(regions)
    }

    /// Rebuilds the serialized region table from scratch — O(regions) —
    /// and records each entry's byte offset so later single-block writes
    /// can patch their bitmap word in place.
    fn rebuild_meta(&mut self) {
        let buf = &mut self.meta_buf;
        buf.clear();
        buf.extend_from_slice(META_MAGIC);
        buf.extend_from_slice(&META_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        let live = self.regions.iter().filter(|r| r.is_some()).count() as u32;
        buf.extend_from_slice(&live.to_le_bytes());
        self.meta_spans.clear();
        self.meta_spans.resize(self.regions.len(), None);
        for (id, r) in self.regions.iter().enumerate() {
            let Some(r) = r else { continue };
            self.meta_spans[id] = Some(buf.len());
            buf.extend_from_slice(&(id as u32).to_le_bytes());
            buf.extend_from_slice(&(r.block_size as u64).to_le_bytes());
            buf.extend_from_slice(&r.blocks.to_le_bytes());
            for word in &r.written {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        self.meta_valid = true;
    }

    /// Serializes the region table and writes it atomically (temp file +
    /// rename), so a crash mid-write leaves the previous table intact.
    /// Serialization is incremental: when no structural change happened
    /// since the last call, the cached buffer (bitmap words already
    /// patched by the write path) is reused as-is, so the steady-state
    /// `write → sync_region` loop pays O(1) serialization per call.
    fn write_meta(&mut self) -> Result<(), HostError> {
        if !self.meta_valid {
            self.rebuild_meta();
        }
        let ioe = |e: &std::io::Error| HostError::io(e, None, IoOp::Sync);
        let tmp = self.dir.join(format!(".{REGION_META_FILE}.tmp"));
        let write = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.meta_buf)?;
            f.sync_data()?;
            std::fs::rename(&tmp, self.dir.join(REGION_META_FILE))?;
            // The rename is only durable once the directory entry is.
            File::open(&self.dir)?.sync_all()
        })();
        write.map_err(|e| ioe(&e))?;
        for r in self.regions.iter_mut().flatten() {
            r.listed = true;
        }
        Ok(())
    }

    /// Mirrors one region's written-bitmap word for `index` into the
    /// cached serialized table, keeping it rebuild-free after block
    /// writes. Entry layout: id(4) ‖ block_size(8) ‖ blocks(8) ‖ bitmap.
    fn patch_meta_word(
        meta_buf: &mut [u8],
        meta_spans: &[Option<usize>],
        meta_valid: bool,
        region: RegionId,
        r: &DiskRegion,
        index: u64,
    ) {
        if !meta_valid {
            return;
        }
        if let Some(off) = meta_spans.get(region.0 as usize).copied().flatten() {
            let word = (index / 64) as usize;
            let at = off + 20 + 8 * word;
            meta_buf[at..at + 8].copy_from_slice(&r.written[word].to_le_bytes());
        }
    }

    /// Opens a disk substrate over a fresh self-cleaning [`TempDir`]: the
    /// directory and every region file are removed when the substrate is
    /// dropped.
    pub fn temp() -> std::io::Result<Self> {
        let guard = TempDir::new("oblidb-disk")?;
        let mut m = Self::create(guard.path())?;
        m._guard = Some(guard);
        Ok(m)
    }

    /// The directory holding the region files.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn region(&self, region: RegionId) -> Result<&DiskRegion, HostError> {
        self.regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))
    }

    fn region_mut(&mut self, region: RegionId) -> Result<&mut DiskRegion, HostError> {
        self.regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))
    }

    fn record(&mut self, region: RegionId, index: u64, kind: AccessKind) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent { region, index, kind });
        }
    }
}

impl EnclaveMemory for DiskMemory {
    /// A failure to create or size the region file — ENOSPC, lost
    /// permissions — surfaces as [`HostError::Io`] with
    /// [`IoOp::Alloc`] context; nothing panics and no half-created
    /// region is registered.
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        let id = RegionId(self.regions.len() as u32);
        let ioe = |e: &std::io::Error| HostError::io(e, Some(id), IoOp::Alloc);
        let path = self.dir.join(format!("region-{:08}.blk", id.0));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| ioe(&e))?;
        if let Err(e) = file.set_len((blocks * block_size) as u64) {
            // Don't leave a zero-length orphan behind a failed allocation.
            let _ = std::fs::remove_file(&path);
            return Err(ioe(&e));
        }
        self.regions.push(Some(DiskRegion {
            file,
            path,
            block_size,
            blocks: blocks as u64,
            written: vec![0; (blocks as u64).div_ceil(64) as usize],
            listed: false,
        }));
        self.meta_valid = false;
        Ok(id)
    }

    /// A region recorded in the on-disk table leaves it durably *before*
    /// its file is unlinked: a crash (or a caller that never syncs again)
    /// between the two steps then leaves an orphaned file — a leak —
    /// never a table entry pointing at a missing file, which would make
    /// the store unopenable. Unlisted regions (scratch allocated and
    /// freed between syncs) skip the table rewrite, so hot paths pay
    /// nothing and the persisted id-space only advances at sync points.
    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let Some(r) = self.regions.get_mut(region.0 as usize).and_then(Option::take) else {
            return Ok(());
        };
        self.meta_valid = false;
        if r.listed {
            if let Err(e) = self.write_meta() {
                self.regions[region.0 as usize] = Some(r);
                self.meta_valid = false;
                return Err(e);
            }
        }
        match std::fs::remove_file(&r.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => {
                // Unlink failed: re-attach the region (its data still
                // exists); the next sync re-lists it in the table.
                let err = HostError::io(&e, Some(region), IoOp::Free);
                self.regions[region.0 as usize] = Some(r);
                self.meta_valid = false;
                Err(err)
            }
        }
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        let r = self.region_mut(region)?;
        if (new_blocks as u64) > r.blocks {
            r.file
                .set_len((new_blocks * r.block_size) as u64)
                .map_err(|e| HostError::io(&e, Some(region), IoOp::Grow))?;
            r.blocks = new_blocks as u64;
            r.written.resize(r.blocks.div_ceil(64) as usize, 0);
            self.meta_valid = false;
        }
        Ok(())
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        Ok(self.region(region)?.blocks)
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        Ok(self.region(region)?.block_size)
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        self.record(region, index, AccessKind::Read);
        let DiskMemory { regions, stats, scratch, .. } = self;
        let r = regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        if index >= r.blocks {
            return Err(HostError::OutOfBounds { region, index, len: r.blocks });
        }
        if !r.is_written(index) {
            // The attempt is traced (above); counters stay untouched, as
            // on `Host`.
            return Err(HostError::EmptyBlock(region, index));
        }
        scratch.resize(r.block_size, 0);
        r.file
            .read_exact_at(scratch, index * r.block_size as u64)
            .map_err(|e| HostError::io(&e, Some(region), IoOp::Read))?;
        stats.crossings += 1;
        stats.reads += 1;
        stats.bytes_read += r.block_size as u64;
        Ok(&self.scratch[..])
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        self.record(region, index, AccessKind::Write);
        let DiskMemory { regions, stats, meta_buf, meta_spans, meta_valid, .. } = self;
        let r = regions
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
        if index >= r.blocks {
            return Err(HostError::OutOfBounds { region, index, len: r.blocks });
        }
        r.file
            .write_all_at(data, index * r.block_size as u64)
            .map_err(|e| HostError::io(&e, Some(region), IoOp::Write))?;
        r.mark_written(index);
        Self::patch_meta_word(meta_buf, meta_spans, *meta_valid, region, r, index);
        stats.crossings += 1;
        stats.writes += 1;
        stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let DiskMemory { regions, trace, stats, .. } = self;
        let r = regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        // Pass 1: trace and validate per block (through the failing block,
        // as Host does), without touching the counters yet.
        let mut failure = None;
        for index in start..start + count as u64 {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Read });
            }
            if index >= r.blocks {
                failure = Some(HostError::OutOfBounds { region, index, len: r.blocks });
            } else if !r.is_written(index) {
                failure = Some(HostError::EmptyBlock(region, index));
            }
            if failure.is_some() {
                break;
            }
        }
        // Pass 2: one positioned read of the valid run (the whole batch,
        // or the prefix before a failure — Host also surfaces the prefix),
        // with stats counted only for blocks actually transferred.
        let valid = match failure {
            None => count,
            Some(HostError::OutOfBounds { index, .. }) | Some(HostError::EmptyBlock(_, index)) => {
                (index - start) as usize
            }
            Some(_) => 0,
        };
        if valid > 0 {
            out.resize(valid * r.block_size, 0);
            r.file
                .read_exact_at(out, start * r.block_size as u64)
                .map_err(|e| HostError::io(&e, Some(region), IoOp::Read))?;
            stats.crossings += 1;
            stats.reads += valid as u64;
            stats.bytes_read += (valid * r.block_size) as u64;
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        out.clear();
        let mut crossed = false;
        let DiskMemory { regions, trace, stats, .. } = self;
        let r = regions
            .get(region.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or(HostError::UnknownRegion(region))?;
        let mut i = 0;
        while i < indices.len() {
            // One positioned read per run of consecutive indices; a failure
            // surfaces after the blocks before it were transferred.
            let start = indices[i];
            let (run, failure) = r.scan_run(region, &indices[i..], AccessKind::Read, trace);
            if run > 0 {
                if !crossed {
                    stats.crossings += 1;
                    crossed = true;
                }
                let at = out.len();
                out.resize(at + run * r.block_size, 0);
                r.file
                    .read_exact_at(&mut out[at..], start * r.block_size as u64)
                    .map_err(|e| HostError::io(&e, Some(region), IoOp::Read))?;
                stats.reads += run as u64;
                stats.bytes_read += (run * r.block_size) as u64;
            }
            if let Some(e) = failure {
                return Err(e);
            }
            i += run;
        }
        Ok(())
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        let block_size = self.region_block_size(region)?;
        let count = batch_count(region, block_size, data.len())? as u64;
        let DiskMemory { regions, trace, stats, meta_buf, meta_spans, meta_valid, .. } = self;
        let r = regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        // Pass 1: trace per block through the first failure, as Host does,
        // without touching the counters yet.
        let mut failure = None;
        for index in start..start + count {
            if let Some(t) = trace {
                t.push(AccessEvent { region, index, kind: AccessKind::Write });
            }
            if index >= r.blocks {
                failure = Some(HostError::OutOfBounds { region, index, len: r.blocks });
                break;
            }
        }
        // Pass 2: one positioned write of the in-bounds run (Host also
        // writes the prefix before surfacing an out-of-bounds tail), with
        // stats counted only after the data actually reached the file.
        let valid = match failure {
            None => count,
            Some(HostError::OutOfBounds { index, .. }) => index - start,
            Some(_) => 0,
        } as usize;
        if valid > 0 {
            r.file
                .write_all_at(&data[..valid * block_size], start * block_size as u64)
                .map_err(|e| HostError::io(&e, Some(region), IoOp::Write))?;
            for index in start..start + valid as u64 {
                r.mark_written(index);
            }
            // Patch each touched bitmap word once, not once per block.
            for word in (start / 64)..=((start + valid as u64 - 1) / 64) {
                Self::patch_meta_word(meta_buf, meta_spans, *meta_valid, region, r, word * 64);
            }
            stats.crossings += 1;
            stats.writes += valid as u64;
            stats.bytes_written += (valid * block_size) as u64;
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

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
        let mut crossed = false;
        let DiskMemory { regions, trace, stats, meta_buf, meta_spans, meta_valid, .. } = self;
        let r = regions
            .get_mut(region.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or(HostError::UnknownRegion(region))?;
        let mut i = 0;
        while i < indices.len() {
            // As in `read_blocks_at`: one positioned write per run of
            // consecutive indices, whose chunks are consecutive in `data`
            // too; an out-of-bounds index surfaces after the run before it
            // reached the file.
            let start = indices[i];
            let (run, failure) = r.scan_run(region, &indices[i..], AccessKind::Write, trace);
            if run > 0 {
                let chunks = &data[i * block_size..(i + run) * block_size];
                r.file
                    .write_all_at(chunks, start * block_size as u64)
                    .map_err(|e| HostError::io(&e, Some(region), IoOp::Write))?;
                for index in start..start + run as u64 {
                    r.mark_written(index);
                }
                // Patch each touched bitmap word once, not once per block.
                for word in (start / 64)..=((start + run as u64 - 1) / 64) {
                    Self::patch_meta_word(meta_buf, meta_spans, *meta_valid, region, r, word * 64);
                }
                if !crossed {
                    stats.crossings += 1;
                    crossed = true;
                }
                stats.writes += run as u64;
                stats.bytes_written += (run * block_size) as u64;
            }
            if let Some(e) = failure {
                return Err(e);
            }
            i += run;
        }
        Ok(())
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

    /// Zeroes the aggregate counters.
    fn reset_stats(&mut self) {
        self.stats = HostStats::default();
    }

    fn sync(&mut self) -> Result<(), HostError> {
        for (id, r) in self.regions.iter().enumerate() {
            let Some(r) = r else { continue };
            r.file
                .sync_data()
                .map_err(|e| HostError::io(&e, Some(RegionId(id as u32)), IoOp::Sync))?;
        }
        self.write_meta()
    }

    /// Fsyncs one region's *data* file (instead of every file, as `sync`
    /// does) and refreshes the persisted region table — the
    /// durable-append primitive the WAL uses. The table's written-block
    /// bitmaps must be durable for the WAL tail scan to see the appended
    /// slot, but serializing them no longer walks every region: block
    /// writes patch the cached buffer in place, so in the steady state
    /// (no alloc/free/grow since the last sync) this serializes in O(1)
    /// and only rebuilds after a structural change.
    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        let r = self.region(region)?;
        r.file.sync_data().map_err(|e| HostError::io(&e, Some(region), IoOp::Sync))?;
        self.write_meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    /// Drives the same mixed workload over any substrate and returns the
    /// observable outcome (payloads, trace, stats).
    fn drive<M: EnclaveMemory>(m: &mut M) -> (Vec<Vec<u8>>, Trace, HostStats) {
        let r = m.alloc_region(8, 4).unwrap();
        m.start_trace();
        m.reset_stats();
        for i in 0..8u64 {
            m.write(r, i, &[i as u8; 4]).unwrap();
        }
        m.grow_region(r, 12).unwrap();
        let data: Vec<u8> = (0..16).collect();
        m.write_blocks(r, 8, &data).unwrap();
        m.write_blocks_at(r, &[0, 11, 3], &data[..12]).unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 0, 12, &mut out).unwrap();
        let mut gathered = Vec::new();
        m.read_blocks_at(r, &[11, 0, 5], &mut gathered).unwrap();
        // Runs and strays mixed: a scatter of two runs around a single, then
        // a gather of three runs, a stray, and a block named twice in a row.
        m.write_blocks_at(r, &[4, 5, 6, 1, 9, 10], &[data.as_slice(), &data[..8]].concat())
            .unwrap();
        let mut mixed = Vec::new();
        m.read_blocks_at(r, &[9, 10, 11, 2, 4, 5, 0, 1, 1], &mut mixed).unwrap();
        let single = m.read(r, 7).unwrap().to_vec();
        (vec![out, gathered, mixed, single], m.take_trace(), m.stats())
    }

    #[test]
    fn matches_host_bit_for_bit() {
        let (host_out, host_trace, host_stats) = drive(&mut Host::new());
        let mut disk = DiskMemory::temp().unwrap();
        let (disk_out, disk_trace, disk_stats) = drive(&mut disk);
        assert_eq!(host_out, disk_out, "payload bytes must round-trip identically");
        assert_eq!(host_trace, disk_trace, "traces must be identical");
        assert_eq!(host_stats, disk_stats, "stats must be identical");
    }

    #[test]
    fn error_contract_matches_host() {
        let mut m = DiskMemory::temp().unwrap();
        let r = m.alloc_region(4, 8).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::EmptyBlock(r, 0)));
        assert!(matches!(m.write(r, 9, &[0; 8]), Err(HostError::OutOfBounds { .. })));
        assert!(matches!(
            m.write(r, 0, &[0; 7]),
            Err(HostError::BlockSizeMismatch { expected: 8, got: 7, .. })
        ));
        let mut out = Vec::new();
        m.write_blocks(r, 0, &[1u8; 16]).unwrap();
        assert_eq!(m.read_blocks(r, 0, 4, &mut out), Err(HostError::EmptyBlock(r, 2)));
        // Host surfaces the valid prefix on a mid-batch failure; so must
        // disk (stats for exactly those two blocks were counted above).
        assert_eq!(out, vec![1u8; 16], "failed batch read yields the valid prefix");
        m.free_region(r).unwrap();
        assert_eq!(m.read(r, 0), Err(HostError::UnknownRegion(r)));
    }

    #[test]
    fn mid_run_failures_match_host() {
        // Blocks 0, 1 and 3 of five are written. Two gathers whose runs meet
        // a never-written block, a scatter whose run leaves the region, and
        // a gather that follows it out: each must stop exactly where Host
        // stops — same error, same events, same counters, same bytes moved.
        fn drive<M: EnclaveMemory>(m: &mut M) -> (Vec<HostError>, Vec<Vec<u8>>, Trace, HostStats) {
            let r = m.alloc_region(5, 2).unwrap();
            m.write_blocks(r, 0, &[1, 1, 2, 2]).unwrap();
            m.write(r, 3, &[4, 4]).unwrap();
            m.start_trace();
            m.reset_stats();
            let (mut errors, mut outs, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for gather in [&[3, 0, 1, 2, 3][..], &[0, 1, 3, 4, 5, 6]] {
                errors.push(m.read_blocks_at(r, gather, &mut out).unwrap_err());
                outs.push(out.clone());
            }
            errors.push(m.write_blocks_at(r, &[0, 3, 4, 5, 6], &[9; 10]).unwrap_err());
            errors.push(m.read_blocks_at(r, &[0, 3, 4, 5, 6], &mut out).unwrap_err());
            outs.push(out.clone());
            (errors, outs, m.take_trace(), m.stats())
        }
        let host = drive(&mut Host::new());
        assert_eq!(host.0[0], HostError::EmptyBlock(RegionId(0), 2));
        assert!(matches!(host.0[1], HostError::EmptyBlock(_, 4)));
        assert!(matches!(host.0[2], HostError::OutOfBounds { index: 5, .. }));
        assert!(matches!(host.0[3], HostError::OutOfBounds { index: 5, .. }));
        assert_eq!(host.1[2], [9; 6], "the scatter's in-bounds run landed before it failed");
        assert_eq!(host, drive(&mut DiskMemory::temp().unwrap()));
    }

    #[test]
    fn free_region_removes_file_and_temp_cleans_dir() {
        let mut m = DiskMemory::temp().unwrap();
        let dir = m.dir().to_path_buf();
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // Never synced, so the region was never listed: free is a bare
        // unlink, no region-table write.
        m.free_region(r).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _r2 = m.alloc_region(2, 4).unwrap();
        drop(m);
        assert!(!dir.exists(), "temp substrate must remove its directory");
    }

    #[test]
    fn freeing_a_listed_region_keeps_the_store_openable() {
        // A region the persisted table records must leave it durably when
        // freed — otherwise a reopen chases the deleted file. No sync
        // happens after the free: the free itself must write the table.
        let guard = TempDir::new("oblidb-disk-freelisted").unwrap();
        let sub = guard.path().join("store");
        let (keep, gone) = {
            let mut m = DiskMemory::create(&sub).unwrap();
            let keep = m.alloc_region(2, 4).unwrap();
            let gone = m.alloc_region(2, 4).unwrap();
            m.write(keep, 0, &[1; 4]).unwrap();
            m.write(gone, 0, &[2; 4]).unwrap();
            m.sync().unwrap(); // both regions land in the on-disk table
            m.free_region(gone).unwrap();
            (keep, gone)
        };
        let mut back = DiskMemory::open(&sub).unwrap();
        assert_eq!(back.read(keep, 0).unwrap(), &[1; 4]);
        assert_eq!(back.read(gone, 0), Err(HostError::UnknownRegion(gone)));
        // The tombstone still occupies its id: allocation resumes past it.
        assert_eq!(back.alloc_region(1, 4).unwrap(), RegionId(2));
    }

    #[test]
    fn explicit_dir_persists_files() {
        let guard = TempDir::new("oblidb-disk-explicit").unwrap();
        let sub = guard.path().join("store");
        {
            let mut m = DiskMemory::create(&sub).unwrap();
            let r = m.alloc_region(2, 4).unwrap();
            m.write(r, 1, &[9; 4]).unwrap();
            m.sync().unwrap();
        }
        // Dropping an explicit-dir substrate keeps the region file plus
        // the persisted region table.
        assert_eq!(std::fs::read_dir(&sub).unwrap().count(), 2);
        assert!(sub.join(REGION_META_FILE).exists());
        let bytes = std::fs::read(sub.join("region-00000000.blk")).unwrap();
        assert_eq!(&bytes[4..8], &[9; 4], "block 1 lives at a block-aligned offset");
    }

    #[test]
    fn open_reattaches_with_identical_ids_and_contract() {
        let guard = TempDir::new("oblidb-disk-open").unwrap();
        let store = guard.path().join("db");
        {
            let mut m = DiskMemory::create(&store).unwrap();
            let a = m.alloc_region(4, 8).unwrap();
            let freed = m.alloc_region(2, 8).unwrap();
            let c = m.alloc_region(3, 16).unwrap();
            m.write(a, 1, &[7u8; 8]).unwrap();
            m.write_blocks(c, 0, &[5u8; 48]).unwrap();
            m.free_region(freed).unwrap();
            m.sync().unwrap();
        }
        let mut m = DiskMemory::open(&store).unwrap();
        // Contents and written bitmaps survive.
        assert_eq!(m.read(RegionId(0), 1).unwrap(), &[7u8; 8]);
        assert_eq!(m.read(RegionId(0), 0), Err(HostError::EmptyBlock(RegionId(0), 0)));
        let mut out = Vec::new();
        m.read_blocks(RegionId(2), 0, 3, &mut out).unwrap();
        assert_eq!(out, vec![5u8; 48]);
        // The freed region stays a tombstone...
        assert_eq!(m.read(RegionId(1), 0), Err(HostError::UnknownRegion(RegionId(1))));
        // ...and id allocation resumes exactly past it.
        assert_eq!(m.alloc_region(1, 4).unwrap(), RegionId(3));
    }

    #[test]
    fn open_without_meta_or_with_mismatched_file_fails() {
        let guard = TempDir::new("oblidb-disk-badopen").unwrap();
        let store = guard.path().join("db");
        // No region table at all.
        std::fs::create_dir_all(&store).unwrap();
        assert!(DiskMemory::open(&store).is_err());
        // A region file whose size disagrees with the table.
        {
            let mut m = DiskMemory::create(guard.path().join("db2")).unwrap();
            let _r = m.alloc_region(4, 8).unwrap();
            m.sync().unwrap();
        }
        let blk = guard.path().join("db2").join("region-00000000.blk");
        std::fs::OpenOptions::new().write(true).open(&blk).unwrap().set_len(7).unwrap();
        let err = match DiskMemory::open(guard.path().join("db2")) {
            Ok(_) => panic!("size-mismatched region file must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A corrupt region table.
        {
            let mut m = DiskMemory::create(guard.path().join("db3")).unwrap();
            let _r = m.alloc_region(1, 4).unwrap();
            m.sync().unwrap();
        }
        std::fs::write(guard.path().join("db3").join(REGION_META_FILE), b"garbage").unwrap();
        let err = match DiskMemory::open(guard.path().join("db3")) {
            Ok(_) => panic!("corrupt region table must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn failed_alloc_surfaces_io_error_with_context() {
        let guard = TempDir::new("oblidb-disk-allocfail").unwrap();
        let store = guard.path().join("db");
        let mut m = DiskMemory::create(&store).unwrap();
        // Make the next region file impossible to create: a directory
        // squats on its path (works even when running as root, where
        // permission bits would not stop us).
        std::fs::create_dir(store.join("region-00000000.blk")).unwrap();
        let err = m.alloc_region(4, 8).unwrap_err();
        assert!(
            matches!(err, HostError::Io { op: IoOp::Alloc, region: Some(RegionId(0)), .. }),
            "{err:?}"
        );
        // The substrate stays usable: remove the obstacle and allocate.
        std::fs::remove_dir(store.join("region-00000000.blk")).unwrap();
        let r = m.alloc_region(4, 8).unwrap();
        assert_eq!(r, RegionId(0), "a failed allocation consumes no region id");
        m.write(r, 0, &[1u8; 8]).unwrap();
    }

    #[test]
    fn sync_region_persists_table_and_file() {
        let guard = TempDir::new("oblidb-disk-syncregion").unwrap();
        let store = guard.path().join("db");
        {
            let mut m = DiskMemory::create(&store).unwrap();
            let r = m.alloc_region(2, 4).unwrap();
            m.write(r, 0, &[3u8; 4]).unwrap();
            // Only the region-level flush — no full sync.
            m.sync_region(r).unwrap();
        }
        let mut m = DiskMemory::open(&store).unwrap();
        assert_eq!(m.read(RegionId(0), 0).unwrap(), &[3u8; 4]);
    }

    #[test]
    fn incremental_meta_patching_matches_full_rebuild() {
        let guard = TempDir::new("oblidb-disk-metapatch").unwrap();
        let (a_dir, b_dir) = (guard.path().join("a"), guard.path().join("b"));
        // Store A persists the table first, so its block writes go through
        // the in-place bitmap patch; store B writes first, so its single
        // sync serializes everything from scratch. Identical logical state
        // must produce byte-identical region tables either way.
        let mut a = DiskMemory::create(&a_dir).unwrap();
        let ra = a.alloc_region(130, 4).unwrap();
        a.sync().unwrap();
        let mut b = DiskMemory::create(&b_dir).unwrap();
        let rb = b.alloc_region(130, 4).unwrap();
        for (m, r) in [(&mut a, ra), (&mut b, rb)] {
            m.write(r, 0, &[1; 4]).unwrap();
            m.write(r, 129, &[2; 4]).unwrap();
            // A run spanning two bitmap words, via every write kind.
            m.write_blocks(r, 60, &[3u8; 40]).unwrap();
            m.write_blocks_at(r, &[64, 7], &[4u8; 8]).unwrap();
        }
        a.sync_region(ra).unwrap();
        b.sync().unwrap();
        let meta_a = std::fs::read(a_dir.join(REGION_META_FILE)).unwrap();
        let meta_b = std::fs::read(b_dir.join(REGION_META_FILE)).unwrap();
        assert_eq!(meta_a, meta_b, "patched table must equal a full rebuild");
        // A structural change (new region) invalidates the cached table;
        // the next sync_region rebuilds and persists both regions.
        let r2 = a.alloc_region(5, 8).unwrap();
        a.write(r2, 4, &[9; 8]).unwrap();
        a.sync_region(r2).unwrap();
        drop(a);
        let mut re = DiskMemory::open(&a_dir).unwrap();
        assert_eq!(re.read(RegionId(0), 129).unwrap(), &[2; 4]);
        assert_eq!(re.read(RegionId(1), 4).unwrap(), &[9; 8]);
        assert_eq!(re.read(RegionId(0), 20), Err(HostError::EmptyBlock(RegionId(0), 20)));
    }

    #[test]
    fn sync_region_after_grow_persists_new_geometry() {
        let guard = TempDir::new("oblidb-disk-growsync").unwrap();
        let store = guard.path().join("db");
        let mut m = DiskMemory::create(&store).unwrap();
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 0, &[1; 4]).unwrap();
        m.sync().unwrap();
        m.grow_region(r, 70).unwrap();
        m.write(r, 69, &[5; 4]).unwrap();
        m.sync_region(r).unwrap();
        drop(m);
        let mut re = DiskMemory::open(&store).unwrap();
        assert_eq!(re.region_len(RegionId(0)).unwrap(), 70);
        assert_eq!(re.read(RegionId(0), 69).unwrap(), &[5; 4]);
        assert_eq!(re.read(RegionId(0), 0).unwrap(), &[1; 4]);
    }

    #[test]
    fn create_refuses_existing_region_files() {
        let guard = TempDir::new("oblidb-disk-reopen").unwrap();
        let store = guard.path().join("db");
        {
            let mut m = DiskMemory::create(&store).unwrap();
            let r = m.alloc_region(2, 4).unwrap();
            m.write(r, 0, &[1; 4]).unwrap();
        }
        // A second open must not silently truncate the persisted files.
        let err = match DiskMemory::create(&store) {
            Ok(_) => panic!("reopen over existing region files must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let bytes = std::fs::read(store.join("region-00000000.blk")).unwrap();
        assert_eq!(&bytes[..4], &[1; 4], "refused open leaves the data untouched");
    }

    #[test]
    fn grow_preserves_content_and_extends_bounds() {
        let mut m = DiskMemory::temp().unwrap();
        let r = m.alloc_region(2, 4).unwrap();
        m.write(r, 1, &[7; 4]).unwrap();
        m.grow_region(r, 10).unwrap();
        assert_eq!(m.region_len(r).unwrap(), 10);
        assert_eq!(m.read(r, 1).unwrap(), &[7; 4]);
        m.write(r, 9, &[3; 4]).unwrap();
        assert_eq!(m.read(r, 9).unwrap(), &[3; 4]);
    }

    #[test]
    fn batched_ops_count_one_crossing() {
        let mut m = DiskMemory::temp().unwrap();
        let r = m.alloc_region(8, 4).unwrap();
        m.reset_stats();
        m.write_blocks(r, 0, &[0u8; 32]).unwrap();
        let mut out = Vec::new();
        m.read_blocks(r, 0, 8, &mut out).unwrap();
        let s = m.stats();
        assert_eq!(s.crossings, 2);
        assert_eq!((s.reads, s.writes), (8, 8));
    }
}
