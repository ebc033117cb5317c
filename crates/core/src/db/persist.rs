//! Database persistence: the sealed manifest that lets a `Database` over a
//! durable substrate survive an enclave restart.
//!
//! [`Database::persist_to`] checkpoints the engine into a directory: it
//! flushes the substrate ([`EnclaveMemory::sync`]) and writes
//! [`DB_MANIFEST_FILE`] — one encrypted + MACed blob, sealed under a key
//! derived from the enclave identity (here: the deterministic master key
//! the RNG seed produces, modeling SGX's sealing-key derivation), that
//! wraps the whole catalog: table names, schemas, row counters, region
//! ids, region keys, and each region's [`SealedRegion::seal_manifest`]
//! snapshot of its in-enclave revision counters and nonce counter.
//!
//! [`Database::open_with_memory`] reverses it over a substrate reopened
//! with `DiskMemory::open`-style re-attachment. Verification is layered:
//!
//! 1. the manifest blob must authenticate (wrong seed, tampering, or
//!    truncation → [`DbError::ManifestRejected`]);
//! 2. every region's observed geometry must match the manifest
//!    (swapped/resized files → [`DbError::ManifestRejected`]);
//! 3. block contents authenticate lazily against the reopened revision
//!    counters on first read (bit flips, block shuffling, and — the case
//!    the manifest exists for — *rollback* of a region file to an older
//!    version all surface as `StorageError::TamperDetected`).
//!
//! Crash consistency: with a WAL, every checkpoint starts a fresh log
//! region from a dump of the live state (CREATE + INSERT per row), and
//! every record reaches the durable medium before its statement executes.
//! So the log alone, replayed into an empty engine, gives back the last
//! checkpoint plus everything committed since (a typed `insert` is logged
//! as its SQL form). What it does not carry is a bulk load
//! ([`Database::create_table_with_rows`]) with no checkpoint after it.
//! When the log on disk extends past the manifest,
//! `open_with_memory` detects that (the log itself is scanned with
//! [`crate::wal::Wal::recover_records`], which trusts only the log key)
//! and returns [`Reopened::NeedsRecovery`] with every durable statement;
//! [`Database::restore`] replays them into a fresh engine. Rolling back
//! manifest *and* region files together to an older
//! mutually-consistent checkpoint, or truncating the WAL tail, is
//! undetectable without a hardware monotonic counter — the standard
//! sealed-storage bound, inherited here and documented in the README.

use super::*;
use crate::table::FlatTable;
use crate::types::Column;
use oblidb_storage::{SealedRegion, SEAL_OVERHEAD};
use std::io::Write as _;
use std::path::Path;

/// File name of the sealed database manifest inside a persistence
/// directory.
pub const DB_MANIFEST_FILE: &str = "oblidb.manifest";

/// File name of the sealed recovery journal: the durable statement log a
/// crash recovery extracts from the old store *before* wiping it, so a
/// second crash mid-rebuild loses nothing. Deleted by the `persist_to`
/// that completes the rebuild.
pub const RECOVERY_JOURNAL_FILE: &str = "oblidb.recovery";

const MANIFEST_MAGIC: &[u8; 8] = b"OBLIDBDB";
const MANIFEST_VERSION: u32 = 1;
const MANIFEST_AAD: &[u8] = b"oblidb-db-manifest-v1";
const JOURNAL_AAD: &[u8] = b"oblidb-recovery-journal-v1";

/// A fresh 96-bit nonce for manifest-scale sealing, from OS randomness.
///
/// Block nonces come from a persisted counter; the manifest cannot — a
/// crash-recovery rebuild resets the seed-derived RNG to a replayed
/// state, so any deterministic source would repeat a nonce under the
/// same sealing key. Checkpoints are rare, so `/dev/urandom` is the
/// right source; if it is unavailable the fallback hashes the RNG
/// stream with the wall clock and PID, which cannot replay across
/// incarnations.
fn fresh_nonce(rng: &mut EnclaveRng) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    fill_entropy(&mut nonce, rng);
    nonce
}

/// Fills `buf` (≤ 32 bytes) with per-incarnation entropy: `/dev/urandom`,
/// or the hashed (RNG stream ‖ wall clock ‖ PID) fallback.
fn fill_entropy(buf: &mut [u8], rng: &mut EnclaveRng) {
    let urandom = (|| -> std::io::Result<()> {
        use std::io::Read as _;
        std::fs::File::open("/dev/urandom")?.read_exact(buf)
    })();
    if urandom.is_err() {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let mut material = seed.to_vec();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        material.extend_from_slice(&now.to_le_bytes());
        material.extend_from_slice(&std::process::id().to_le_bytes());
        let digest = oblidb_crypto::sha256(&material);
        buf.copy_from_slice(&digest[..buf.len()]);
    }
}

/// A per-incarnation key epoch, folded into every derived region key so
/// two engine incarnations (in particular a crash rebuild replaying only
/// the WAL-logged prefix of the original history) can never reuse a
/// (key, region id, nonce counter) triple for different plaintexts.
pub(super) fn fresh_key_epoch(rng: &mut EnclaveRng) -> [u8; 16] {
    let mut epoch = [0u8; 16];
    fill_entropy(&mut epoch, rng);
    epoch
}

/// The seed → (RNG, master key) derivation every surface shares: the
/// simulation's stand-in for SGX's enclave-identity-bound sealing key.
pub(super) fn derive_identity(seed: u64) -> (EnclaveRng, [u8; 32]) {
    let mut rng = EnclaveRng::seed_from_u64(seed);
    let mut master_key = [0u8; 32];
    rng.fill(&mut master_key);
    (rng, master_key)
}

/// Fsyncs a directory so a just-renamed file inside it survives power
/// loss (the rename itself is only durable once the directory entry is).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Writes `blob` to `dir/name` atomically (temp + rename + dir fsync).
fn write_atomically(dir: &Path, name: &str, blob: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(blob)?;
    f.sync_data()?;
    std::fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
}

/// What reopening a persisted database found.
///
/// (The variant size difference is fine: this value is matched and
/// consumed immediately, never stored.)
#[allow(clippy::large_enum_variant)]
pub enum Reopened<M: EnclaveMemory> {
    /// The store matches its manifest (clean shutdown): a ready database.
    Clean(Database<M>),
    /// The durable WAL extends past the manifest — the engine crashed (or
    /// was dropped) after its last checkpoint. The store's data regions
    /// cannot be trusted beyond the checkpoint; rebuild with
    /// [`Database::restore`] over a fresh substrate.
    NeedsRecovery(RecoveryPlan),
}

/// Where the authoritative durable history lives when a journal outlasts
/// a rebuilt-but-unpersistable store (see
/// [`Database::journal_live_wal`]): the rebuilt engine's own WAL.
#[derive(Clone)]
pub(crate) struct WalPointer {
    pub(crate) region: oblidb_enclave::RegionId,
    pub(crate) key: AeadKey,
    pub(crate) block_bytes: usize,
}

impl std::fmt::Debug for WalPointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalPointer")
            .field("region", &self.region)
            .field("block_bytes", &self.block_bytes)
            .field("key", &"<redacted>")
            .finish()
    }
}

/// Everything crash recovery needs, extracted from the old store before
/// it is discarded: the durable statement log, oldest first.
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// Every durable WAL record (CREATE TABLE and mutations), in append
    /// order — the history as of the moment the journal was written.
    pub statements: Vec<String>,
    /// When set, the pointed WAL holds the authoritative (possibly
    /// longer) history; `statements` is the fallback if it is
    /// unreachable. Resolve with [`resolve_recovery_statements`].
    pub(crate) wal_pointer: Option<WalPointer>,
}

/// What [`Database::restore`] did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Statements replayed successfully.
    pub replayed: usize,
    /// Statements that failed during replay, with their errors. A
    /// statement that failed during the original run (it was logged
    /// *before* executing) fails here identically and changes nothing;
    /// anything else in this list deserves operator attention.
    pub skipped: Vec<(String, DbError)>,
    /// Wall time the replay took.
    pub duration: std::time::Duration,
    /// Host traffic the replay generated (reads, writes, bytes,
    /// crossings) — the recovery cost in the same currency as
    /// [`oblidb_enclave::StatsReport`].
    pub replay_stats: oblidb_enclave::HostStats,
}

struct TableRecord {
    name: String,
    schema: Schema,
    num_rows: u64,
    insert_cursor: u64,
    region: oblidb_enclave::RegionId,
    key: AeadKey,
    region_manifest: Vec<u8>,
}

struct WalRecord {
    region: oblidb_enclave::RegionId,
    key: AeadKey,
    block_bytes: u64,
    len: u64,
    base_lsn: u64,
    region_manifest: Vec<u8>,
}

struct DbManifest {
    key_counter: u64,
    version: u64,
    wal: Option<WalRecord>,
    tables: Vec<TableRecord>,
}

// ---- plaintext codec ------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.columns.len() as u64).to_le_bytes());
    for col in &schema.columns {
        put_bytes(out, col.name.as_bytes());
        let (tag, width) = match col.dtype {
            DataType::Int => (0u8, 0u64),
            DataType::Float => (1, 0),
            DataType::Text(n) => (2, n as u64),
        };
        out.push(tag);
        out.extend_from_slice(&width.to_le_bytes());
    }
}

/// Sequential reader over the manifest plaintext; every getter fails
/// softly so truncated or fuzzed input is a typed error, never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| DbError::ManifestRejected("truncated manifest body".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("u64")))
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    fn bytes(&mut self) -> Result<&'a [u8], DbError> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, DbError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| DbError::ManifestRejected("non-UTF-8 name in manifest".into()))
    }

    fn key(&mut self) -> Result<AeadKey, DbError> {
        Ok(AeadKey(self.take(32)?.try_into().expect("key length")))
    }

    fn schema(&mut self) -> Result<Schema, DbError> {
        let cols = self.u64()? as usize;
        if cols > 4096 {
            return Err(DbError::ManifestRejected("implausible column count".into()));
        }
        let mut columns = Vec::with_capacity(cols);
        for _ in 0..cols {
            let name = self.string()?;
            let tag = self.u8()?;
            let width = self.u64()? as usize;
            let dtype = match tag {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Text(width),
                _ => return Err(DbError::ManifestRejected("unknown column type tag".into())),
            };
            columns.push(Column::new(name, dtype));
        }
        Ok(Schema::new(columns))
    }
}

fn encode_manifest(m: &DbManifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&m.key_counter.to_le_bytes());
    out.extend_from_slice(&m.version.to_le_bytes());
    match &m.wal {
        None => out.push(0),
        Some(w) => {
            out.push(1);
            out.extend_from_slice(&w.region.0.to_le_bytes());
            out.extend_from_slice(&w.key.0);
            out.extend_from_slice(&w.block_bytes.to_le_bytes());
            out.extend_from_slice(&w.len.to_le_bytes());
            out.extend_from_slice(&w.base_lsn.to_le_bytes());
            // The durability byte of the manifest layout: every log is
            // write-ahead, so it is always 1 and never read back.
            out.push(1);
            put_bytes(&mut out, &w.region_manifest);
        }
    }
    out.extend_from_slice(&(m.tables.len() as u64).to_le_bytes());
    for t in &m.tables {
        put_bytes(&mut out, t.name.as_bytes());
        put_schema(&mut out, &t.schema);
        out.extend_from_slice(&t.num_rows.to_le_bytes());
        out.extend_from_slice(&t.insert_cursor.to_le_bytes());
        out.extend_from_slice(&t.region.0.to_le_bytes());
        out.extend_from_slice(&t.key.0);
        put_bytes(&mut out, &t.region_manifest);
    }
    out
}

fn decode_manifest(plain: &[u8]) -> Result<DbManifest, DbError> {
    let mut r = Reader { buf: plain, at: 0 };
    let key_counter = r.u64()?;
    let version = r.u64()?;
    let wal = match r.u8()? {
        0 => None,
        1 => {
            let region =
                oblidb_enclave::RegionId(u32::from_le_bytes(r.take(4)?.try_into().expect("u32")));
            let key = r.key()?;
            let block_bytes = r.u64()?;
            let len = r.u64()?;
            let base_lsn = r.u64()?;
            let _durability = r.u8()?;
            let region_manifest = r.bytes()?.to_vec();
            Some(WalRecord { region, key, block_bytes, len, base_lsn, region_manifest })
        }
        _ => return Err(DbError::ManifestRejected("bad WAL flag".into())),
    };
    let count = r.u64()? as usize;
    if count > 1 << 20 {
        return Err(DbError::ManifestRejected("implausible table count".into()));
    }
    let mut tables = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.string()?;
        let schema = r.schema()?;
        let num_rows = r.u64()?;
        let insert_cursor = r.u64()?;
        let region =
            oblidb_enclave::RegionId(u32::from_le_bytes(r.take(4)?.try_into().expect("u32")));
        let key = r.key()?;
        let region_manifest = r.bytes()?.to_vec();
        tables.push(TableRecord {
            name,
            schema,
            num_rows,
            insert_cursor,
            region,
            key,
            region_manifest,
        });
    }
    if r.at != r.buf.len() {
        return Err(DbError::ManifestRejected("trailing bytes in manifest".into()));
    }
    Ok(DbManifest { key_counter, version, wal, tables })
}

// ---- sealing --------------------------------------------------------------

/// The manifest sealing key: derived from the master key, which itself is
/// a pure function of `DbConfig::seed` — the simulation's stand-in for
/// SGX's enclave-identity-bound sealing key. Reopening with a different
/// seed is a different enclave identity and is rejected.
fn manifest_key(master: &[u8; 32]) -> AeadKey {
    AeadKey(oblidb_crypto::derive_key(master, b"db-manifest"))
}

/// Frames and seals one blob (manifest or recovery journal):
/// `magic ‖ version ‖ nonce ‖ ciphertext ‖ tag`, domain-separated by
/// `aad`.
fn seal_blob(key: &AeadKey, nonce12: [u8; 12], aad: &[u8], plain: &[u8]) -> Vec<u8> {
    use oblidb_crypto::aead::{self, Nonce, NONCE_LEN};
    let nonce = Nonce(nonce12);
    let mut out = Vec::with_capacity(8 + 4 + NONCE_LEN + plain.len() + 16);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&nonce.0);
    let body_at = out.len();
    out.extend_from_slice(plain);
    let tag = aead::seal(key, &nonce, aad, &mut out[body_at..]);
    out.extend_from_slice(&tag);
    out
}

fn open_blob(key: &AeadKey, aad: &[u8], blob: &[u8]) -> Result<Vec<u8>, DbError> {
    use oblidb_crypto::aead::{self, Nonce, NONCE_LEN, TAG_LEN};
    let header = 8 + 4 + NONCE_LEN;
    if blob.len() < header + TAG_LEN || &blob[..8] != MANIFEST_MAGIC {
        return Err(DbError::ManifestRejected("not an ObliDB manifest".into()));
    }
    if u32::from_le_bytes(blob[8..12].try_into().expect("u32")) != MANIFEST_VERSION {
        return Err(DbError::ManifestRejected("unsupported manifest version".into()));
    }
    let nonce = Nonce(blob[12..12 + NONCE_LEN].try_into().expect("nonce"));
    let tag: [u8; TAG_LEN] = blob[blob.len() - TAG_LEN..].try_into().expect("tag");
    let mut body = blob[header..blob.len() - TAG_LEN].to_vec();
    aead::open(key, &nonce, aad, &mut body, &tag).map_err(|_| {
        DbError::ManifestRejected(
            "authentication failed — tampered manifest or wrong enclave seed".into(),
        )
    })?;
    Ok(body)
}

// ---- recovery journal -----------------------------------------------------

/// Seals and atomically writes the recovery journal: the full durable
/// statement history, preserved outside the store so wiping region files
/// for the rebuild cannot lose it.
fn write_recovery_journal(
    dir: &Path,
    master_key: &[u8; 32],
    rng: &mut EnclaveRng,
    plan: &RecoveryPlan,
) -> Result<(), DbError> {
    let mut plain = Vec::new();
    plain.extend_from_slice(&(plan.statements.len() as u64).to_le_bytes());
    for stmt in &plan.statements {
        put_bytes(&mut plain, stmt.as_bytes());
    }
    match &plan.wal_pointer {
        None => plain.push(0),
        Some(p) => {
            plain.push(1);
            plain.extend_from_slice(&p.region.0.to_le_bytes());
            plain.extend_from_slice(&p.key.0);
            plain.extend_from_slice(&(p.block_bytes as u64).to_le_bytes());
        }
    }
    let blob = seal_blob(&manifest_key(master_key), fresh_nonce(rng), JOURNAL_AAD, &plain);
    write_atomically(dir, RECOVERY_JOURNAL_FILE, &blob).map_err(|e| {
        DbError::ManifestRejected(format!(
            "cannot write recovery journal in {}: {e}",
            dir.display()
        ))
    })
}

/// Checks `dir` for a pending recovery journal — an interrupted rebuild —
/// and returns its statement history when one authenticates. Callers (the
/// facade's `database_open`) must consult this *before* trying to open the
/// substrate: a crash mid-rebuild can leave the store in any state,
/// including unopenable, while the journal still holds the full committed
/// history. A present-but-unauthentic journal is a typed error, never
/// ignored.
pub fn read_recovery_journal(
    dir: impl AsRef<Path>,
    config: &DbConfig,
) -> Result<Option<RecoveryPlan>, DbError> {
    let path = dir.as_ref().join(RECOVERY_JOURNAL_FILE);
    let blob = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(DbError::ManifestRejected(format!("cannot read {}: {e}", path.display())));
        }
    };
    let (_, master_key) = derive_identity(config.seed);
    let rejected = || DbError::ManifestRejected("recovery journal rejected".into());
    let plain =
        open_blob(&manifest_key(&master_key), JOURNAL_AAD, &blob).map_err(|_| rejected())?;
    let mut r = Reader { buf: &plain, at: 0 };
    let count = r.u64()? as usize;
    if count > 1 << 24 {
        return Err(rejected());
    }
    let mut statements = Vec::with_capacity(count);
    for _ in 0..count {
        statements.push(r.string()?);
    }
    let wal_pointer = match r.u8()? {
        0 => None,
        1 => {
            let region =
                oblidb_enclave::RegionId(u32::from_le_bytes(r.take(4)?.try_into().expect("u32")));
            let key = r.key()?;
            let block_bytes = r.u64()? as usize;
            Some(WalPointer { region, key, block_bytes })
        }
        _ => return Err(rejected()),
    };
    if r.at != r.buf.len() {
        return Err(rejected());
    }
    Ok(Some(RecoveryPlan { statements, wal_pointer }))
}

/// Resolves a recovery plan to its authoritative statement list: scans
/// the pointed live WAL when the plan carries one (it may hold statements
/// executed *after* the journal was written), falling back to the inline
/// statements when the pointer is unreachable.
pub fn resolve_recovery_statements<M: EnclaveMemory>(
    host: &mut M,
    plan: &RecoveryPlan,
) -> Vec<String> {
    if let Some(p) = &plan.wal_pointer {
        if let Ok(statements) =
            crate::wal::Wal::recover_records(host, p.key.clone(), p.region, p.block_bytes)
        {
            return statements;
        }
    }
    plan.statements.clone()
}

/// Seals and atomically writes a plain (statements-only) recovery journal
/// under the identity `config.seed` derives — the pre-wipe safety write a
/// rebuild performs so destroying the store can never outrun the history.
pub fn write_recovery_statements(
    dir: impl AsRef<Path>,
    config: &DbConfig,
    statements: &[String],
) -> Result<(), DbError> {
    let (mut rng, master_key) = derive_identity(config.seed);
    let plan = RecoveryPlan { statements: statements.to_vec(), wal_pointer: None };
    write_recovery_journal(dir.as_ref(), &master_key, &mut rng, &plan)
}

// ---- Database surface -----------------------------------------------------

impl<M: EnclaveMemory> Database<M> {
    /// Checkpoints the database into `dir`: starts a fresh WAL from the
    /// live state (when the database has a log, or its config asks for
    /// one), flushes the substrate to its durable medium, then atomically
    /// writes the sealed manifest ([`DB_MANIFEST_FILE`]) that
    /// [`Database::open_with_memory`] needs to re-attach. The manifest
    /// write is the commit point: a crash before the rename leaves the
    /// previous checkpoint intact and the old WAL covering the gap.
    ///
    /// Only flat tables persist today; indexed/`Both` storage lives in
    /// Path ORAM whose position maps and stash are enclave state with no
    /// manifest story yet (ROADMAP) and is refused with a typed error.
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<(), DbError> {
        let dir = dir.as_ref();
        for (name, storage) in &self.tables {
            if storage.indexed().is_some() {
                return Err(DbError::Unsupported(format!(
                    "table '{name}' uses indexed storage; persisting Path ORAM state \
                     (position map, stash) is not supported yet — only FLAT tables persist"
                )));
            }
        }
        // A persisted log must never end mid-epoch: reattach restarts the
        // pending counter at zero, so an open epoch would leave records
        // permanently unterminated (and thus silently dropped by every
        // later fold). Seal it now.
        self.commit_epoch()?;

        let mut fresh = if self.wal.is_some() || self.config.wal.is_some() {
            Some(self.seeded_log()?)
        } else {
            None
        };
        if let Err(e) = self.write_manifest(dir, fresh.as_mut()) {
            // The previous manifest still names the old log, so it stays
            // the live one.
            if let Some(f) = fresh {
                let _ = f.free(&mut self.host);
            }
            return Err(e);
        }
        // The manifest pointing at the fresh WAL region is durable — the
        // retired region is unreachable from any recovery path and its
        // untrusted memory can go. (A crash here merely leaks it.)
        if let Some(old) = std::mem::replace(&mut self.wal, fresh) {
            old.free(&mut self.host)?;
        }
        // This checkpoint completes any in-flight recovery: the journal's
        // statements are now reflected by the manifest (best-effort
        // removal; a leftover journal is re-read and re-applied, which is
        // idempotent — it still describes the same committed history).
        let _ = std::fs::remove_file(dir.join(RECOVERY_JOURNAL_FILE));
        Ok(())
    }

    /// A fresh WAL region seeded with the compacted live state, whose LSN
    /// continues the log it replaces. In-place truncation would be
    /// unsound under the revision-2 probe discipline (each slot is
    /// written exactly twice: zero-fill, then its append), so the old
    /// region stays untouched until the manifest naming its replacement
    /// lands. The record widens when a dumped row needs more than the
    /// old log's.
    fn seeded_log(&mut self) -> Result<crate::wal::Wal, DbError> {
        let dump = self.dump_state_statements()?;
        let longest = dump.iter().map(|s| s.len()).max().unwrap_or(0);
        let block_bytes =
            self.wal.as_ref().map_or(crate::wal::WAL_BLOCK, |w| w.block_bytes()).max(longest + 3);
        let key = self.next_key();
        let mut fresh = crate::wal::Wal::create_sized(
            &mut self.host,
            key,
            block_bytes,
            (dump.len() as u64).max(8),
        )?;
        for stmt in &dump {
            fresh.append(&mut self.host, stmt)?;
        }
        fresh.set_base_lsn(self.wal.as_ref().map_or(0, |w| w.checkpoint_lsn()));
        Ok(fresh)
    }

    /// Flushes the substrate, then seals and atomically writes the
    /// manifest describing every table and `wal`.
    fn write_manifest(
        &mut self,
        dir: &Path,
        wal: Option<&mut crate::wal::Wal>,
    ) -> Result<(), DbError> {
        // Data first: every sealed block (and the substrate's own region
        // table) must be durable before the manifest that describes it.
        self.host.sync()?;

        let mut tables = Vec::with_capacity(self.tables.len());
        for (name, storage) in &mut self.tables {
            let f = storage.flat_mut().expect("checked by persist_to");
            tables.push(TableRecord {
                name: name.clone(),
                schema: f.schema().clone(),
                num_rows: f.num_rows(),
                insert_cursor: f.insert_cursor(),
                region: f.region_id(),
                key: f.region_key(),
                region_manifest: f.seal_manifest(),
            });
        }
        let wal = wal.map(|w| WalRecord {
            region: w.region_id(),
            key: w.key(),
            block_bytes: w.block_bytes() as u64,
            len: w.len(),
            base_lsn: w.base_lsn(),
            region_manifest: w.seal_manifest(),
        });
        let manifest =
            DbManifest { key_counter: self.key_counter, version: self.version, wal, tables };

        let nonce = fresh_nonce(&mut self.rng);
        let blob = seal_blob(
            &manifest_key(&self.master_key),
            nonce,
            MANIFEST_AAD,
            &encode_manifest(&manifest),
        );

        let io = |e: std::io::Error| {
            DbError::ManifestRejected(format!("cannot write manifest in {}: {e}", dir.display()))
        };
        std::fs::create_dir_all(dir).map_err(io)?;
        write_atomically(dir, DB_MANIFEST_FILE, &blob).map_err(io)
    }

    /// Re-attaches to a persisted database: `host` must be the reopened
    /// substrate (e.g. `DiskMemory::open` / `SubstrateSpec::open`) over
    /// the same store `dir`'s manifest describes, and `config.seed` must
    /// be the seed the database was created with (the enclave identity the
    /// manifest is sealed to).
    ///
    /// Returns [`Reopened::Clean`] when the durable WAL matches the
    /// manifest, or [`Reopened::NeedsRecovery`] (with every durable
    /// statement) when the engine crashed past its last checkpoint —
    /// see [`Database::restore`].
    pub fn open_with_memory(
        mut host: M,
        config: DbConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Reopened<M>, DbError> {
        let dir = dir.as_ref();
        let blob = std::fs::read(dir.join(DB_MANIFEST_FILE)).map_err(|e| {
            DbError::ManifestRejected(format!(
                "cannot read {DB_MANIFEST_FILE} in {}: {e}",
                dir.display()
            ))
        })?;

        // Same derivation as `with_memory`: the seed *is* the identity.
        let (mut rng, master_key) = derive_identity(config.seed);
        let plain = open_blob(&manifest_key(&master_key), MANIFEST_AAD, &blob)?;
        let manifest = decode_manifest(&plain)?;

        // Cross-check a region's observed (untrusted) geometry against the
        // verified manifest before trusting any of its blocks.
        let check_geometry = |host: &M, store: &SealedRegion, what: &str| -> Result<(), DbError> {
            let region = store.region_id();
            let len = host.region_len(region)?;
            let block_size = host.region_block_size(region)?;
            if len != store.len() || block_size != store.payload_len() + SEAL_OVERHEAD {
                return Err(DbError::ManifestRejected(format!(
                    "{what}: region {region:?} geometry mismatch (store {len}×{block_size}, \
                     manifest {}×{}); the region file was swapped or resized",
                    store.len(),
                    store.payload_len() + SEAL_OVERHEAD
                )));
            }
            Ok(())
        };

        // WAL first: it arbitrates clean-vs-crashed. Its geometry check is
        // looser than a table's: the log legitimately *grows* past the
        // checkpoint (appends double the region in place), so the live
        // region may be longer than the manifest snapshot — only a region
        // shorter than the checkpointed record count, or a different
        // block size, means the file was swapped or rolled back.
        let wal = match &manifest.wal {
            Some(w) => {
                let store =
                    SealedRegion::open_with_manifest(w.region, w.key.clone(), &w.region_manifest)?;
                let live_len = host.region_len(w.region)?;
                let live_block = host.region_block_size(w.region)?;
                if live_block != store.payload_len() + SEAL_OVERHEAD || live_len < w.len {
                    return Err(DbError::ManifestRejected(format!(
                        "WAL: region {:?} geometry mismatch (store {live_len}×{live_block}, \
                         manifest ≥{}×{}); the log file was swapped or truncated",
                        w.region,
                        w.len,
                        store.payload_len() + SEAL_OVERHEAD
                    )));
                }
                let block_bytes = w.block_bytes as usize;
                // Two O(1) probes decide clean-vs-crashed without decoding
                // the whole log: the last checkpointed record must still
                // authenticate (else the log was rolled back), and the
                // first slot past the checkpoint must not (else there is a
                // durable overhang — a crash). Only a crash pays for the
                // full scan.
                let last_ok = w.len == 0
                    || crate::wal::Wal::probe_record(
                        &mut host,
                        w.key.clone(),
                        w.region,
                        block_bytes,
                        w.len - 1,
                    )?;
                if !last_ok {
                    return Err(DbError::ManifestRejected(format!(
                        "durable WAL lost record {} that the manifest checkpointed; \
                         the log was rolled back or truncated",
                        w.len - 1
                    )));
                }
                let overhang = crate::wal::Wal::probe_record(
                    &mut host,
                    w.key.clone(),
                    w.region,
                    block_bytes,
                    w.len,
                )?;
                if overhang {
                    // Crash past the checkpoint: the data regions cannot be
                    // trusted beyond it. Journal every durable statement
                    // *before* anyone wipes the store, so a second crash
                    // mid-rebuild still recovers the full history, then
                    // hand them to a fresh-engine replay.
                    let statements = crate::wal::Wal::recover_records(
                        &mut host,
                        w.key.clone(),
                        w.region,
                        block_bytes,
                    )?;
                    let plan = RecoveryPlan { statements, wal_pointer: None };
                    write_recovery_journal(dir, &master_key, &mut rng, &plan)?;
                    return Ok(Reopened::NeedsRecovery(plan));
                }
                Some(crate::wal::Wal::reattach(
                    store,
                    w.key.clone(),
                    w.len,
                    block_bytes,
                    w.base_lsn,
                ))
            }
            None => None,
        };

        let mut tables = Vec::with_capacity(manifest.tables.len());
        for t in &manifest.tables {
            let store =
                SealedRegion::open_with_manifest(t.region, t.key.clone(), &t.region_manifest)?;
            check_geometry(&host, &store, &t.name)?;
            if store.payload_len() != t.schema.row_len() {
                return Err(DbError::ManifestRejected(format!(
                    "table '{}': schema row length {} disagrees with its region manifest ({})",
                    t.name,
                    t.schema.row_len(),
                    store.payload_len()
                )));
            }
            let flat = FlatTable::reattach(store, t.schema.clone(), t.num_rows, t.insert_cursor);
            tables.push((t.name.clone(), flat.into()));
        }

        let key_epoch = fresh_key_epoch(&mut rng);
        let mut db = Database {
            host,
            om: OmBudget::new(config.om_bytes),
            rng,
            master_key,
            key_epoch,
            key_counter: manifest.key_counter,
            tables,
            config,
            wal,
            version: manifest.version,
            plan_cache: Default::default(),
            plan_cache_stats: Default::default(),
            auditor: Default::default(),
        };
        // The store was persisted without a WAL but the caller wants one:
        // checkpoint now, so the new log starts from the live state and
        // the manifest names it. A log the manifest does not name would
        // be invisible to the next open, and the writes it covered would
        // fail to authenticate against the old checkpoint.
        if db.wal.is_none() && db.config.wal.is_some() {
            db.persist_to(dir)?;
        }
        Ok(Reopened::Clean(db))
    }

    /// Rebuilds a crashed database by replaying a recovered statement
    /// history into this fresh engine (fresh substrate, same config — WAL
    /// enabled, so the replay itself rebuilds the log). Statements are
    /// replayed in append order; ones that fail are skipped and reported,
    /// since a statement logged-then-failed during the original run fails
    /// here identically (the WAL records intent, not success).
    pub fn restore(&mut self, statements: &[String]) -> Result<RecoveryReport, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Recovery);
        let before = self.host.stats();
        let started = std::time::Instant::now();
        let mut report = RecoveryReport::default();
        for stmt in statements {
            match self.execute(stmt) {
                Ok(_) => report.replayed += 1,
                Err(e) => report.skipped.push((stmt.clone(), e)),
            }
        }
        // Under group commit the replayed statements pooled into an open
        // epoch; seal it so the rebuilt log ends on an epoch boundary and
        // the replayed history is itself durable.
        self.commit_epoch()?;
        report.duration = started.elapsed();
        report.replay_stats = self.host.stats() - before;
        Ok(report)
    }

    /// Rewrites the recovery journal to point at this engine's live WAL,
    /// with `fallback_statements` as the inline history should the WAL
    /// become unreachable. Used when a rebuilt store cannot be
    /// checkpointed (`persist_to` refused — e.g. an indexed table in the
    /// replayed history): the journal then stays authoritative across
    /// restarts, and post-rebuild mutations keep landing in the pointed
    /// WAL, so nothing committed is ever outside it.
    pub fn journal_live_wal(
        &mut self,
        dir: impl AsRef<Path>,
        fallback_statements: &[String],
    ) -> Result<(), DbError> {
        let pointer = match &self.wal {
            Some(w) => {
                WalPointer { region: w.region_id(), key: w.key(), block_bytes: w.block_bytes() }
            }
            None => {
                return Err(DbError::Unsupported(
                    "journal_live_wal needs a WAL to point at".into(),
                ));
            }
        };
        let plan =
            RecoveryPlan { statements: fallback_statements.to_vec(), wal_pointer: Some(pointer) };
        write_recovery_journal(dir.as_ref(), &self.master_key, &mut self.rng, &plan)
    }
}
