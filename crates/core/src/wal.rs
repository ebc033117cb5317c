//! Write-ahead logging (paper §3).
//!
//! The paper notes that "a standard write-ahead log could be generically
//! added to the system. Appends to such a log would not leak any
//! additional information or affect obliviousness, as the only change
//! would be to make a write to an encrypted log file before each
//! insert/update/delete operation."
//!
//! This module is that log: an append-only sealed region of fixed-size
//! records, written *before* each mutation statement executes. The
//! adversary sees exactly one additional block write per mutation — the
//! mutation count, which table growth reveals anyway. Replaying the log
//! into a fresh engine reproduces the database state (durability's redo
//! half; full transactions remain out of scope, as in the paper).

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::EnclaveMemory;
use oblidb_storage::SealedRegion;

use crate::error::DbError;

/// Bytes per log record: fits any reasonably sized statement. A
/// checkpoint widens the record of the log it seeds when a dumped row
/// needs more ([`crate::Database::persist_to`]).
pub const WAL_BLOCK: usize = 512;

/// Records a fresh log holds before its first doubling.
const WAL_CAPACITY: u64 = 256;

/// Turns write-ahead logging on ([`crate::DbConfig::wal`]). It has no
/// settings: every record is flushed to the durable medium before its
/// statement executes (under group commit, by its epoch's commit
/// marker), and every [`persist_to`](crate::Database::persist_to)
/// checkpoint starts a fresh log from the live state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalConfig;

/// Epoch scheduler configuration (Obladi-style group commit): how long
/// commits may pool in one epoch before the group fsync closes it, and
/// how many statements force an early close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    /// Epoch window in milliseconds. Every commit that lands inside one
    /// window shares a single `sync_region` fsync.
    pub duration_ms: u64,
    /// Close the epoch early once this many statements are pending, so a
    /// write burst cannot grow an epoch without bound.
    pub max_statements: usize,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig { duration_ms: 5, max_statements: 64 }
    }
}

/// Record kind: a standalone statement, committed the instant it is
/// durable (the pre-epoch discipline, and still what restore uses).
pub(crate) const REC_STATEMENT: u8 = 1;
/// Record kind: a statement belonging to the currently open epoch —
/// invisible to recovery until an epoch-commit marker follows it.
pub(crate) const REC_EPOCH_PENDING: u8 = 2;
/// Record kind: epoch-commit marker (empty payload). Everything pending
/// before it becomes durable as one atomic group.
pub(crate) const REC_EPOCH_COMMIT: u8 = 3;

/// The encrypted, integrity-protected, append-only log.
pub struct Wal {
    store: SealedRegion,
    len: u64,
    block_bytes: usize,
    grow_key: AeadKey,
    /// Records dropped by checkpoints before this region began;
    /// `base_lsn + len` is the monotonic log sequence number across
    /// checkpoints.
    base_lsn: u64,
    /// Statements appended as `REC_EPOCH_PENDING` since the last
    /// epoch-commit marker — what the next marker will make durable.
    epoch_pending: u64,
}

impl Wal {
    /// Creates an empty log of [`WAL_BLOCK`]-byte records.
    pub fn create<M: EnclaveMemory>(host: &mut M, key: AeadKey) -> Result<Self, DbError> {
        Self::create_sized(host, key, WAL_BLOCK, WAL_CAPACITY)
    }

    /// Creates an empty log of `block_bytes`-byte records with room for
    /// `capacity` before its first doubling — the shape a checkpoint
    /// seeds with its state dump.
    pub(crate) fn create_sized<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        block_bytes: usize,
        capacity: u64,
    ) -> Result<Self, DbError> {
        assert!(block_bytes > 3, "block must fit the length+kind header");
        let store = SealedRegion::create(host, key.clone(), capacity.max(1) as usize, block_bytes)?;
        Ok(Wal { store, len: 0, block_bytes, grow_key: key, base_lsn: 0, epoch_pending: 0 })
    }

    /// Re-attaches to a persisted log from its sealed region manifest plus
    /// the (public) record count, record size, and base LSN the database
    /// manifest carries.
    pub fn reattach(
        store: SealedRegion,
        key: AeadKey,
        len: u64,
        block_bytes: usize,
        base_lsn: u64,
    ) -> Self {
        // A persisted log never ends mid-epoch ([`crate::Database::persist_to`]
        // closes the epoch first), so pending restarts at zero.
        Wal { store, len, block_bytes, grow_key: key, base_lsn, epoch_pending: 0 }
    }

    /// Records dropped before this region by checkpoints.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Marks `lsn` records as having been compacted away before this
    /// region — set once when a checkpoint seeds a fresh log.
    pub(crate) fn set_base_lsn(&mut self, lsn: u64) {
        self.base_lsn = lsn;
    }

    /// The monotonic log sequence number: records ever appended across
    /// all checkpoints, i.e. where the next record will land.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.base_lsn + self.len
    }

    /// Statements pending in the currently open epoch (zero when the log
    /// is at an epoch boundary).
    pub fn epoch_pending(&self) -> u64 {
        self.epoch_pending
    }

    /// The untrusted region backing the log — the target of the
    /// durable-append `sync_region` call.
    pub fn region_id(&self) -> oblidb_enclave::RegionId {
        self.store.region_id()
    }

    /// Bytes per log record.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The log's AEAD key, for embedding in the sealed database manifest.
    pub(crate) fn key(&self) -> AeadKey {
        self.grow_key.clone()
    }

    /// Seals the log's trusted state (revisions + nonce counter) for the
    /// database manifest.
    pub fn seal_manifest(&mut self) -> Vec<u8> {
        self.store.seal_manifest()
    }

    /// Records appended so far (public: one observable write each).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one statement as immediately committed (kind
    /// `REC_STATEMENT`), before its mutation executes. Exactly one
    /// sealed write — no data-dependent access pattern.
    pub fn append<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        statement: &str,
    ) -> Result<(), DbError> {
        self.append_record(host, REC_STATEMENT, statement.as_bytes())?;
        // A durable standalone statement commits everything logged before
        // it (the fold flushes pending first to preserve statement order),
        // so the epoch restarts empty.
        self.epoch_pending = 0;
        Ok(())
    }

    /// Appends one statement into the currently open epoch (kind
    /// `REC_EPOCH_PENDING`). Invisible to recovery until
    /// [`Wal::append_epoch_commit`] seals the group.
    pub fn append_pending<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        statement: &str,
    ) -> Result<(), DbError> {
        self.append_record(host, REC_EPOCH_PENDING, statement.as_bytes())?;
        self.epoch_pending += 1;
        Ok(())
    }

    /// Appends an epoch-commit marker, making every pending statement in
    /// the open epoch durable as one group, and returns how many it
    /// sealed. No-op (no write) when the epoch is empty.
    pub fn append_epoch_commit<M: EnclaveMemory>(&mut self, host: &mut M) -> Result<u64, DbError> {
        if self.epoch_pending == 0 {
            return Ok(0);
        }
        self.append_record(host, REC_EPOCH_COMMIT, &[])?;
        Ok(std::mem::take(&mut self.epoch_pending))
    }

    /// Rejects a record payload longer than one log record holds — the
    /// limit every append enforces, exposed so an atomic batch can be
    /// checked before any of its statements runs.
    pub(crate) fn check_fits(&self, bytes: &[u8]) -> Result<(), DbError> {
        // The record header stores the payload length as u16, so that
        // bounds oversized blocks too.
        let max = (self.block_bytes - 3).min(u16::MAX as usize);
        if bytes.len() > max {
            return Err(DbError::Unsupported(format!(
                "statement of {} bytes exceeds the WAL record size {max}",
                bytes.len(),
            )));
        }
        Ok(())
    }

    fn append_record<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        kind: u8,
        bytes: &[u8],
    ) -> Result<(), DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::WalAppend);
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::WalAppends, 1);
        self.check_fits(bytes)?;
        if self.len >= self.store.len() {
            let new_cap = (self.store.len() * 2).max(8);
            // Growth writes are driven by the public record count only.
            self.store.grow(host, new_cap as usize)?;
            // Make the new geometry durable before a record lands in the
            // grown part: under group commit nothing else syncs the log
            // until its epoch closes, and a crash in between would leave
            // a region file longer than the substrate's region table says.
            host.sync_region(self.store.region_id())?;
        }
        let mut record = vec![0u8; self.block_bytes];
        record[..2].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
        record[2] = kind;
        record[3..3 + bytes.len()].copy_from_slice(bytes);
        self.store.write(host, self.len, &record)?;
        self.len += 1;
        Ok(())
    }

    /// Decrypts and returns every *committed* statement, oldest first —
    /// standalone records plus every epoch sealed by a commit marker;
    /// statements of a still-open epoch are excluded, exactly as recovery
    /// would exclude them. Streams the log in batched chunks, one crossing
    /// per chunk instead of one per record.
    pub fn records<M: EnclaveMemory>(&mut self, host: &mut M) -> Result<Vec<String>, DbError> {
        let mut raw = Vec::with_capacity(self.len as usize);
        let mut scan = oblidb_storage::SealedScan::over(
            0..self.len,
            oblidb_storage::batch_chunk_blocks(self.block_bytes),
        );
        while let Some((_, payloads)) = scan.next_chunk(host, &mut self.store)? {
            for bytes in payloads.chunks_exact(self.block_bytes) {
                raw.push(decode_record(bytes)?);
            }
        }
        fold_committed(raw)
    }

    /// Releases untrusted memory.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), DbError> {
        self.store.free(host)?;
        Ok(())
    }

    /// Probes whether slot `index` of a persisted WAL region holds a
    /// record, by the same revision-2 criterion as
    /// [`Wal::recover_records`] — the O(1) clean-vs-crashed check a
    /// reopen needs, without decoding the whole log.
    pub fn probe_record<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        region: oblidb_enclave::RegionId,
        block_bytes: usize,
        index: u64,
    ) -> Result<bool, DbError> {
        let capacity = host.region_len(region)?;
        if index >= capacity {
            return Ok(false);
        }
        let mut probe =
            SealedRegion::attach(region, key, block_bytes, vec![2; capacity as usize], 0);
        match probe.read(host, index) {
            Ok(_) => Ok(true),
            Err(oblidb_storage::StorageError::TamperDetected { .. }) => Ok(false),
            Err(oblidb_storage::StorageError::Host(oblidb_enclave::HostError::EmptyBlock(..))) => {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Scans a persisted WAL region for every durable record **without
    /// trusting any in-enclave length counter** — crash recovery's entry
    /// point, when the only surviving trusted state is the log's key.
    ///
    /// Soundness: a WAL slot is written exactly twice under append-only
    /// discipline — once by zero-fill at create/grow (revision 1), once by
    /// its append (revision 2) — so "holds a record" is equivalent to
    /// "authenticates at revision 2". The scan reads slots front to back
    /// expecting revision 2 and stops at the first slot that does not
    /// authenticate (still zero-filled, or unwritten past a crash). The
    /// AAD binds index and revision, so the adversary can neither reorder
    /// records nor splice in foreign ones; what he *can* do is truncate
    /// the tail, which is indistinguishable from a crash before those
    /// appends — the bound every sealed log has without a hardware
    /// monotonic counter.
    pub fn recover_records<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        region: oblidb_enclave::RegionId,
        block_bytes: usize,
    ) -> Result<Vec<String>, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::WalRecovery);
        let capacity = host.region_len(region)?;
        // The probe never writes, so its nonce counter is irrelevant.
        let mut probe =
            SealedRegion::attach(region, key, block_bytes, vec![2; capacity as usize], 0);
        let mut raw = Vec::new();
        for i in 0..capacity {
            match probe.read(host, i) {
                Ok(bytes) => raw.push(decode_record(bytes)?),
                // First non-record slot (zero-filled, empty, or torn):
                // the durable log ends here.
                Err(oblidb_storage::StorageError::TamperDetected { .. }) => break,
                Err(oblidb_storage::StorageError::Host(oblidb_enclave::HostError::EmptyBlock(
                    ..,
                ))) => break,
                Err(e) => return Err(e.into()),
            }
        }
        oblidb_telemetry::counter_add(
            oblidb_telemetry::Counter::WalRecoveredRecords,
            raw.len() as u64,
        );
        fold_committed(raw)
    }
}

/// Decodes one fixed-size WAL record into its kind and statement text.
fn decode_record(bytes: &[u8]) -> Result<(u8, String), DbError> {
    let n = u16::from_le_bytes(bytes[..2].try_into().expect("header")) as usize;
    if n > bytes.len() - 3 {
        return Err(DbError::Unsupported("corrupt WAL record".into()));
    }
    let kind = bytes[2];
    if !matches!(kind, REC_STATEMENT | REC_EPOCH_PENDING | REC_EPOCH_COMMIT) {
        return Err(DbError::Unsupported(format!("unknown WAL record kind {kind}")));
    }
    std::str::from_utf8(&bytes[3..3 + n])
        .map(|s| (kind, s.to_string()))
        .map_err(|_| DbError::Unsupported("corrupt WAL record".into()))
}

/// Folds a raw record sequence down to the committed statement history:
/// whole epochs or none. Pending statements become visible when their
/// epoch-commit marker follows; a standalone statement first flushes any
/// open epoch before itself (order-preserving — standalone records only
/// interleave with pending ones on the durable/group boundary, where the
/// standalone record's own fsync made the earlier pending records durable
/// too). A trailing open epoch — the crash-mid-epoch case — is dropped.
fn fold_committed(raw: Vec<(u8, String)>) -> Result<Vec<String>, DbError> {
    let mut out = Vec::with_capacity(raw.len());
    let mut pending = Vec::new();
    for (kind, stmt) in raw {
        match kind {
            REC_STATEMENT => {
                out.append(&mut pending);
                out.push(stmt);
            }
            REC_EPOCH_PENDING => pending.push(stmt),
            REC_EPOCH_COMMIT => out.append(&mut pending),
            _ => unreachable!("decode_record validated the kind"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::Host;

    fn setup() -> (Host, Wal) {
        let mut host = Host::new();
        let wal = Wal::create_sized(&mut host, AeadKey([3u8; 32]), 64, 2).unwrap();
        (host, wal)
    }

    #[test]
    fn append_and_read_back() {
        let (mut host, mut wal) = setup();
        wal.append(&mut host, "INSERT INTO t VALUES (1)").unwrap();
        wal.append(&mut host, "DELETE FROM t WHERE x = 2").unwrap();
        assert_eq!(wal.len(), 2);
        assert_eq!(
            wal.records(&mut host).unwrap(),
            vec!["INSERT INTO t VALUES (1)", "DELETE FROM t WHERE x = 2"]
        );
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (mut host, mut wal) = setup();
        for i in 0..20 {
            wal.append(&mut host, &format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert_eq!(wal.records(&mut host).unwrap().len(), 20);
    }

    #[test]
    fn oversized_statement_rejected() {
        let (mut host, mut wal) = setup();
        let long = format!("INSERT INTO t VALUES ('{}')", "x".repeat(100));
        assert!(matches!(wal.append(&mut host, &long), Err(DbError::Unsupported(_))));
        assert!(wal.is_empty());
    }

    #[test]
    fn append_is_one_observable_write() {
        let (mut host, mut wal) = setup();
        host.start_trace();
        wal.append(&mut host, "short").unwrap();
        let t = host.take_trace();
        assert_eq!(t.len(), 1, "append must be exactly one block write");
        // Two appends of different statements look identical.
        host.start_trace();
        wal.append(&mut host, "a completely different stmt").unwrap();
        let t2 = host.take_trace();
        assert_eq!(t.0[0].kind, t2.0[0].kind);
    }

    #[test]
    fn open_epoch_is_invisible_until_committed() {
        let (mut host, mut wal) = setup();
        wal.append_pending(&mut host, "INSERT INTO t VALUES (1)").unwrap();
        wal.append_pending(&mut host, "INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(wal.epoch_pending(), 2);
        // Open epoch: nothing committed yet.
        assert!(wal.records(&mut host).unwrap().is_empty());
        assert_eq!(wal.append_epoch_commit(&mut host).unwrap(), 2);
        assert_eq!(wal.epoch_pending(), 0);
        assert_eq!(
            wal.records(&mut host).unwrap(),
            vec!["INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"]
        );
        // An empty epoch writes nothing.
        assert_eq!(wal.append_epoch_commit(&mut host).unwrap(), 0);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn trailing_open_epoch_dropped_whole() {
        let (mut host, mut wal) = setup();
        wal.append_pending(&mut host, "a").unwrap();
        wal.append_epoch_commit(&mut host).unwrap();
        wal.append_pending(&mut host, "b").unwrap();
        wal.append_pending(&mut host, "c").unwrap();
        // Crash before the second epoch's marker: recovery sees only the
        // first epoch — whole epochs or none.
        let region = wal.region_id();
        let recovered = Wal::recover_records(&mut host, AeadKey([3u8; 32]), region, 64).unwrap();
        assert_eq!(recovered, vec!["a"]);
    }

    #[test]
    fn standalone_statement_flushes_open_epoch() {
        let (mut host, mut wal) = setup();
        wal.append_pending(&mut host, "a").unwrap();
        wal.append(&mut host, "b").unwrap();
        assert_eq!(wal.epoch_pending(), 0);
        // The standalone append's fsync covers the pending record too, so
        // both commit, in order.
        assert_eq!(wal.records(&mut host).unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn lsn_tracks_base_and_len() {
        let (mut host, mut wal) = setup();
        assert_eq!(wal.checkpoint_lsn(), 0);
        wal.append(&mut host, "x").unwrap();
        wal.set_base_lsn(10);
        assert_eq!(wal.base_lsn(), 10);
        assert_eq!(wal.checkpoint_lsn(), 11);
    }

    #[test]
    fn tampered_log_detected() {
        let (mut host, mut wal) = setup();
        wal.append(&mut host, "INSERT INTO t VALUES (9)").unwrap();
        let region = {
            // The WAL's region is the only one in this host.
            oblidb_enclave::RegionId(0)
        };
        host.adversary_corrupt(region, 0, |b| b[20] ^= 1);
        assert!(matches!(wal.records(&mut host), Err(DbError::Storage(_))));
    }
}
