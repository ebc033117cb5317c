//! The ObliDB database facade and the prepare/explain/execute lifecycle.
//!
//! Owns the simulated enclave state (host memory handle, oblivious-memory
//! budget, master key, RNG) and the table catalog. Queries move through
//! three explicit phases:
//!
//! 1. [`Database::prepare`] compiles SQL into a typed physical-plan IR
//!    ([`crate::plan::QueryPlan`]): a tree of scan/filter/join/aggregate
//!    nodes, each annotated with the chosen operator, padded bounds, OM
//!    budget, and a cost estimate counted from public sizes for every
//!    candidate and weighed with the configured
//!    [`crate::plan::cost::CostProfile`] (paper §5; the stock profiles
//!    are fixed weights in code).
//! 2. [`PreparedStatement::explain`] renders the tree with estimated and,
//!    post-run, actual costs; `EXPLAIN SELECT ...` does the same through
//!    SQL.
//! 3. [`PreparedStatement::run`] executes the tree — resolve → (push-down
//!    select) → join → select → aggregate/group-by → decode — measuring
//!    each node's actual access counts as it goes. [`Database::execute`]
//!    remains as a thin prepare-then-run shim.

pub mod persist;
pub mod shared;

use std::collections::HashMap;
use std::time::Instant;

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, Host, OmBudget, Trace, DEFAULT_OM_BYTES};

use crate::error::DbError;
use crate::exec::{
    self, select::first_pass_cost, AggFold, AggFunc, FirstPass, RowSink, SortMergeVariant,
};
use crate::padding::PaddingConfig;
use crate::plan::cost::{
    self, CostProfile, JoinAlgo, JoinShape, PlannerConfig, SelectAlgo, SelectShape, SelectStats,
    ZERO_OM_SCRATCH_ROWS,
};
use crate::plan::{
    AccessPath, AggregateNode, CandidateCost, Explain, FilterNode, GroupByNode, JoinChoice,
    JoinNode, NodeCost, PlanAction, PlanKey, PlanNode, QueryPlan, ScanNode, SelectChoice,
    SelectPlan,
};
use crate::predicate::{Bound, Predicate};
use crate::sql::{self, Parsed, Projection, SelectItem, Statement};
use crate::table::{FlatTable, IndexedTable, TableStorage};
use crate::types::{Column, DataType, Row, Schema, Value};

/// Default initial table capacity (rows) when CREATE TABLE gives none.
pub const DEFAULT_CAPACITY: u64 = 1024;

/// Which storage method(s) a table uses (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMethod {
    /// Flat only.
    Flat,
    /// Oblivious B+ tree only.
    Indexed,
    /// Both, kept in sync (Figure 12).
    Both,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Oblivious-memory budget in bytes (paper default: ≤ 20 MB).
    pub om_bytes: usize,
    /// RNG seed (experiments reproduce exactly under a fixed seed).
    pub seed: u64,
    /// Planner tunables and operator overrides.
    pub planner: PlannerConfig,
    /// Padding mode; `Some` disables the planner and pads result sizes.
    pub padding: Option<PaddingConfig>,
    /// Use the constant-time fast insert on flat tables (§3.1). On by
    /// default, as for tables with few deletions.
    pub fast_inserts: bool,
    /// Write-ahead logging of mutation statements (paper §3). `Some`
    /// appends every CREATE/INSERT/UPDATE/DELETE statement to an
    /// encrypted log before executing it; [`Database::wal_records`] reads
    /// it back and [`Database::restore`] replays it into an empty engine.
    pub wal: Option<crate::wal::WalConfig>,
    /// Epoch-based group commit (Obladi-style). `Some` pools mutation WAL
    /// records into an open epoch instead of fsyncing each append;
    /// closing the epoch ([`Database::commit_epoch`] — driven by the
    /// transaction manager's scheduler) writes one commit marker and pays
    /// one `sync_region` for the whole group. Recovery replays whole
    /// epochs or none. Only meaningful with `wal` on.
    pub epoch: Option<crate::wal::EpochConfig>,
    /// Oblivious-trace auditing: when on, every statement records its
    /// access trace, hashes it, and checks the hash against the first
    /// trace observed for the same statement *shape* (the parser's token
    /// shape plus the public table sizes). A divergence means an access
    /// pattern depended on data, not just on public parameters — exactly
    /// the property ObliDB promises never to violate. The default honors
    /// `OBLIDB_AUDIT=1`; statements that run while a caller already holds
    /// the trace channel are skipped (counted, never silently dropped).
    pub audit: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            om_bytes: DEFAULT_OM_BYTES,
            seed: 0xB10C_5EED,
            planner: PlannerConfig::default(),
            padding: None,
            fast_inserts: true,
            wal: None,
            epoch: None,
            audit: std::env::var("OBLIDB_AUDIT").is_ok_and(|v| v == "1"),
        }
    }
}

/// The physical plan chosen for a query — exactly the plan-shaped leakage
/// of §2.3, surfaced for tests and experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanInfo {
    /// Selection operator used, if any.
    pub select_algo: Option<SelectAlgo>,
    /// Join operator used, if any.
    pub join_algo: Option<JoinAlgo>,
    /// Whether an index satisfied part of the query.
    pub used_index: bool,
    /// Whether select+aggregate were fused into one pass.
    pub fused_aggregate: bool,
    /// Sizes of intermediate tables, in creation order.
    pub intermediate_rows: Vec<u64>,
    /// Result row count.
    pub output_rows: u64,
}

/// Decoded query results plus the plan leakage.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Result schema.
    pub schema: Schema,
    rows: Vec<Row>,
    /// The physical plan (the query's non-size leakage).
    pub plan: PlanInfo,
    /// Rows changed by a mutation statement (`Some` for INSERT / UPDATE /
    /// DELETE, `None` for reads) — the mutation result in its own right,
    /// no longer smuggled through an empty-schema plan field.
    pub rows_affected: Option<u64>,
}

impl QueryOutput {
    /// The decoded rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn empty(schema: Schema) -> Self {
        QueryOutput { schema, rows: Vec::new(), plan: PlanInfo::default(), rows_affected: None }
    }

    /// A mutation result: no rows, `rows_affected` set. The count is also
    /// mirrored into `plan.output_rows` for pre-lifecycle callers.
    fn affected(n: u64) -> Self {
        let mut out = QueryOutput::empty(Schema::new(Vec::new()));
        out.rows_affected = Some(n);
        out.plan.output_rows = n;
        out
    }
}

/// The database engine, generic over its untrusted memory substrate.
///
/// `M` is the [`EnclaveMemory`] backing every table region: [`Host`] (the
/// default, stores sealed blocks in memory) or any other implementor.
pub struct Database<M: EnclaveMemory = Host> {
    host: M,
    om: OmBudget,
    rng: EnclaveRng,
    master_key: [u8; 32],
    /// Per-incarnation entropy folded into every derived region key:
    /// two engine incarnations (e.g. a crash rebuild replaying only the
    /// WAL-logged prefix of the original history) must never seal
    /// different plaintexts under the same (key, region, nonce) triple,
    /// and the nonce counter alone cannot guarantee that because region
    /// ids and key counters replay deterministically. Persisted keys are
    /// wrapped in the manifest, so reopening does not need to re-derive
    /// them.
    key_epoch: [u8; 16],
    key_counter: u64,
    tables: Vec<(String, TableStorage)>,
    config: DbConfig,
    wal: Option<crate::wal::Wal>,
    /// Bumped on every catalog or data mutation; prepared statements
    /// re-plan transparently when their snapshot goes stale.
    version: u64,
    /// Compiled SELECT plans keyed by [`Parsed::cache_key`] (shape and
    /// literals), each valid for the catalog version it was planned under.
    /// Any catalog/data change (version bump) makes an entry stale.
    plan_cache: HashMap<String, QueryPlan>,
    plan_cache_stats: PlanCacheStats,
    /// Per-statement-shape trace hashes when [`DbConfig::audit`] is on.
    auditor: crate::audit::TraceAuditor,
}

/// Hit/miss counters for the prepared-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// `prepare` calls served from the cache (same shape and literals,
    /// same catalog version — no planning, no join side's scan).
    pub hits: u64,
    /// `prepare` calls that compiled a plan (first sight, or stale).
    pub misses: u64,
}

/// Cached plans beyond this are evicted stale-first (then wholesale) —
/// a bound, not a tuning knob; plans are small.
const PLAN_CACHE_CAP: usize = 128;

impl Database<Host> {
    /// Creates an empty database over a fresh in-memory [`Host`].
    pub fn new(config: DbConfig) -> Self {
        Self::with_memory(Host::new(), config)
    }
}

impl<M: EnclaveMemory> Database<M> {
    /// Creates an empty database over a caller-provided memory substrate.
    ///
    /// Convenience wrapper over [`Database::try_with_memory`] that panics
    /// if the substrate cannot allocate the WAL region — impossible for
    /// in-memory substrates; use `try_with_memory` when handing over a
    /// disk-backed substrate whose allocation can genuinely fail.
    pub fn with_memory(host: M, config: DbConfig) -> Self {
        Self::try_with_memory(host, config).expect("substrate failed to allocate the WAL region")
    }

    /// Creates an empty database over a caller-provided memory substrate,
    /// surfacing substrate allocation failure (e.g. a full disk while
    /// creating the WAL region) as a typed error instead of panicking.
    pub fn try_with_memory(host: M, config: DbConfig) -> Result<Self, DbError> {
        // A fresh engine keeps the all-zero epoch: its nonce counters
        // alone guarantee uniqueness within the incarnation, and
        // deterministic keys under a fixed seed are part of the
        // reproducibility contract (trace-equality tests construct
        // parallel engines). Incarnations that *share a store* with a
        // predecessor (reopen, crash rebuild) must use
        // [`Database::try_with_memory_fresh_epoch`] /
        // [`Database::open_with_memory`] instead, which randomize it.
        Self::try_with_memory_at_epoch(host, config, [0u8; 16])
    }

    /// [`Database::try_with_memory`] with a freshly randomized key epoch:
    /// for engines rebuilt over a store an earlier incarnation wrote
    /// (crash recovery), where replaying a prefix of the old history
    /// would otherwise re-derive the same region keys and nonce counters
    /// for different plaintexts — ciphertexts the untrusted host still
    /// holds.
    pub fn try_with_memory_fresh_epoch(host: M, config: DbConfig) -> Result<Self, DbError> {
        let (mut rng, _) = persist::derive_identity(config.seed);
        let epoch = persist::fresh_key_epoch(&mut rng);
        Self::try_with_memory_at_epoch(host, config, epoch)
    }

    fn try_with_memory_at_epoch(
        host: M,
        config: DbConfig,
        key_epoch: [u8; 16],
    ) -> Result<Self, DbError> {
        let (rng, master_key) = persist::derive_identity(config.seed);
        let mut db = Database {
            host,
            om: OmBudget::new(config.om_bytes),
            rng,
            master_key,
            key_epoch,
            key_counter: 0,
            tables: Vec::new(),
            config,
            wal: None,
            version: 0,
            plan_cache: HashMap::new(),
            plan_cache_stats: PlanCacheStats::default(),
            auditor: crate::audit::TraceAuditor::default(),
        };
        if db.config.wal.is_some() {
            let key = db.next_key();
            db.wal = Some(crate::wal::Wal::create(&mut db.host, key)?);
        }
        Ok(db)
    }

    /// Decrypts and returns the logged mutation statements, oldest first
    /// (empty when WAL is off).
    pub fn wal_records(&mut self) -> Result<Vec<String>, DbError> {
        match &mut self.wal {
            Some(w) => w.records(&mut self.host),
            None => Ok(Vec::new()),
        }
    }

    /// Checkpoints the engine: flushes the substrate's buffered state to
    /// its durable medium ([`EnclaveMemory::sync`]) — write-back caches
    /// flush dirty blocks, disk regions fsync, in-memory substrates
    /// no-op. The WAL (when enabled) lives in host regions like every
    /// table, so this is also the log's flush point. It seals no manifest
    /// and never shortens the log: [`Database::persist_to`] does both,
    /// starting a fresh log from the live state.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.host.sync().map_err(DbError::from)
    }

    /// Closes the currently open WAL epoch: appends one commit marker and
    /// pays one group fsync for every statement logged since the last
    /// close. Returns how many statements became durable (0 when already
    /// at an epoch boundary, or without a WAL). The epoch scheduler
    /// ([`crate::wal::EpochConfig`] via `oblidb::txn`) drives this on its
    /// window; callers handing the store to someone else (checkpoint,
    /// shutdown) call it directly so the log never ends mid-epoch.
    pub fn commit_epoch(&mut self) -> Result<u64, DbError> {
        let Some(wal) = &mut self.wal else { return Ok(0) };
        if wal.epoch_pending() == 0 {
            return Ok(0);
        }
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Epoch);
        let sealed = wal.append_epoch_commit(&mut self.host)?;
        self.host.sync_region(wal.region_id())?;
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::EpochFsyncs, 1);
        Ok(sealed)
    }

    /// Statements pending in the open WAL epoch (0 without a WAL).
    pub fn epoch_pending(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.epoch_pending())
    }

    /// Records dropped from the WAL prefix by checkpoints (`None` without
    /// a WAL).
    pub fn wal_base_lsn(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.base_lsn())
    }

    /// Records currently in the live WAL region (0 without a WAL): the
    /// last checkpoint's state dump plus every record logged since, so
    /// it tracks live state, not statement history.
    pub fn wal_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.len())
    }

    /// Dry-run validation of an atomic batch of parsed statements (a
    /// transaction commit): every one must be a mutation, target a table
    /// that exists (or that the batch itself creates), and carry values /
    /// predicates / assignments its schema accepts — all checked *before*
    /// the first statement executes, so a mid-batch rejection cannot
    /// leave the group half-applied. With a WAL, every statement must also
    /// fit one log record. After a clean validation, execution can still
    /// fail only on substrate I/O errors.
    pub(crate) fn validate_batch(&self, statements: &[Parsed]) -> Result<(), DbError> {
        // Tables the batch itself creates, visible to its later statements.
        let mut created: Vec<(String, Schema)> = Vec::new();
        let lookup = |created: &[(String, Schema)], this: &Self, name: &str| {
            if let Some((_, s)) = created.iter().find(|(n, _)| n == name) {
                return Ok(s.clone());
            }
            this.table_index(name).map(|i| this.tables[i].1.schema().clone())
        };
        for parsed in statements {
            if let Some(wal) = &self.wal {
                wal.check_fits(parsed.text().as_bytes())?;
            }
            match parsed.statement() {
                Statement::Create(c) => {
                    if self.table_index(&c.name).is_ok()
                        || created.iter().any(|(n, _)| n == &c.name)
                    {
                        return Err(DbError::Sql(format!("table '{}' already exists", c.name)));
                    }
                    let schema = Schema::new(
                        c.columns.iter().map(|cd| Column::new(cd.name.clone(), cd.dtype)).collect(),
                    );
                    created.push((c.name.clone(), schema));
                }
                Statement::Insert(i) => {
                    let schema = lookup(&created, self, &i.table)?;
                    schema.encode_row(&i.values)?;
                }
                Statement::Update(u) => {
                    let schema = lookup(&created, self, &u.table)?;
                    if let Some(w) = &u.where_clause {
                        w.resolve(&schema)?;
                    }
                    for a in &u.sets {
                        let idx = schema.col(&a.col)?;
                        check_assignable(schema.columns[idx].dtype, &a.value, &a.col)?;
                    }
                }
                Statement::Delete(d) => {
                    let schema = lookup(&created, self, &d.table)?;
                    if let Some(w) = &d.where_clause {
                        w.resolve(&schema)?;
                    }
                }
                Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                    return Err(DbError::Unsupported(format!(
                        "read-only statement in an atomic commit batch: {}",
                        parsed.text()
                    )));
                }
                Statement::Begin | Statement::Commit | Statement::Rollback => {
                    return Err(DbError::Unsupported(
                        "nested transaction control inside a commit batch".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compacts the live state into a replayable statement list — the
    /// CREATE + INSERT history an empty engine needs to reproduce every
    /// table exactly. This is what every checkpoint seeds its fresh WAL
    /// region with, in place of the dropped statement history.
    /// Flat tables only (the same restriction as [`Database::persist_to`]).
    pub(crate) fn dump_state_statements(&mut self) -> Result<Vec<String>, DbError> {
        let mut out = Vec::new();
        for (name, storage) in &mut self.tables {
            let TableStorage::Flat(f) = storage else {
                return Err(DbError::Unsupported(format!(
                    "table '{name}' uses indexed storage; state dumps (WAL checkpoints) \
                     support FLAT tables only"
                )));
            };
            let cols = f
                .schema()
                .columns
                .iter()
                .map(|c| format!("{} {}", c.name, render_dtype(c.dtype)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push(format!("CREATE TABLE {name} ({cols}) CAPACITY {}", f.capacity()));
            for row in f.collect_rows(&mut self.host)? {
                out.push(insert_sql(name, &row));
            }
        }
        Ok(out)
    }

    /// Fresh derived key for a new region/table: master key, incarnation
    /// epoch, and a monotone counter — unique per region per incarnation.
    fn next_key(&mut self) -> AeadKey {
        self.key_counter += 1;
        let mut label = Vec::with_capacity(7 + 16 + 8);
        label.extend_from_slice(b"region:");
        label.extend_from_slice(&self.key_epoch);
        label.extend_from_slice(&self.key_counter.to_le_bytes());
        AeadKey(oblidb_crypto::derive_key(&self.master_key, &label))
    }

    /// Engine configuration (mutable, so experiments can flip planner
    /// settings between queries). Handing out the borrow drops every
    /// cached plan: planner settings are part of what a plan was compiled
    /// under, and the catalog version cannot see them change.
    pub fn config_mut(&mut self) -> &mut DbConfig {
        self.plan_cache.clear();
        &mut self.config
    }

    /// The untrusted memory substrate — exposed so tests and experiments
    /// can record and inspect access-pattern traces.
    pub fn host_mut(&mut self) -> &mut M {
        &mut self.host
    }

    /// The oblivious-memory budget handle.
    pub fn om(&self) -> &OmBudget {
        &self.om
    }

    /// Starts recording the adversary's view.
    pub fn start_trace(&mut self) {
        self.host.start_trace();
    }

    /// Stops recording and returns the transcript.
    pub fn take_trace(&mut self) -> Trace {
        self.host.take_trace()
    }

    /// Every table's public sizes — name, row count, flat insert cursor —
    /// for [`crate::audit::statement_shape`].
    pub(crate) fn public_sizes(&self) -> Vec<(String, u64, u64)> {
        let cursor = |t: &TableStorage| match t {
            TableStorage::Flat(f) | TableStorage::Both { flat: f, .. } => f.insert_cursor(),
            TableStorage::Indexed(_) => 0,
        };
        self.tables.iter().map(|(n, t)| (n.clone(), t.num_rows(), cursor(t))).collect()
    }

    /// The regions the trace auditor compares by event count and direction
    /// only (see [`crate::audit::trace_hash`]): every indexed table's ORAM
    /// regions, where positions are random by construction, and the WAL
    /// region, written at its public append position.
    pub(crate) fn position_randomized_regions(&self) -> Vec<oblidb_enclave::RegionId> {
        let indexed = self.tables.iter().filter_map(|(_, t)| match t {
            TableStorage::Indexed(i) | TableStorage::Both { indexed: i, .. } => Some(i),
            TableStorage::Flat(_) => None,
        });
        let mut regions: Vec<_> = indexed.flat_map(|i| i.oram_region_ids()).collect();
        regions.extend(self.wal.as_ref().map(|w| w.region_id()));
        regions
    }

    /// Trace-audit divergences recorded so far (empty unless
    /// [`DbConfig::audit`] is on — see [`crate::audit`]).
    pub fn audit_violations(&self) -> &[crate::audit::AuditViolation] {
        self.auditor.violations()
    }

    /// Aggregate trace-audit counters (shapes seen, checks, skips,
    /// violations).
    pub fn audit_report(&self) -> crate::audit::AuditReport {
        self.auditor.report()
    }

    /// One merged telemetry snapshot: the process-wide metrics registry
    /// (counters + histograms) plus this engine's substrate traffic,
    /// plan-cache and audit counters — the single surface that absorbs
    /// `HostStats`, `PlanCacheStats` and `AuditReport`.
    ///
    /// Exporting it is an *explicit* boundary crossing: the snapshot
    /// aggregates sizes and counts the adversary model already concedes
    /// (it watches every block access live), so exporting leaks nothing
    /// new — but callers inside an enclave should still ship it only at
    /// deliberate points (shutdown, operator request), never per query.
    pub fn metrics_snapshot(&self) -> oblidb_telemetry::MetricsSnapshot {
        let mut snap = oblidb_telemetry::snapshot();
        let stats = self.host.stats();
        snap.push_counter("host_reads", stats.reads);
        snap.push_counter("host_writes", stats.writes);
        snap.push_counter("host_bytes_read", stats.bytes_read);
        snap.push_counter("host_bytes_written", stats.bytes_written);
        snap.push_counter("host_crossings", stats.crossings);
        // `db_`-prefixed: the registry already holds process-wide
        // counters named `plan_cache_hits` and `audit_violations`.
        snap.push_counter("db_plan_cache_hits", self.plan_cache_stats.hits);
        snap.push_counter("db_plan_cache_misses", self.plan_cache_stats.misses);
        let audit = self.auditor.report();
        snap.push_counter("db_audit_shapes", audit.shapes as u64);
        snap.push_counter("db_audit_violations", audit.violations as u64);
        snap
    }

    fn table_index(&self, name: &str) -> Result<usize, DbError> {
        self.tables
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Creates a table.
    fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        method: StorageMethod,
        index_on: Option<&str>,
        capacity: u64,
    ) -> Result<(), DbError> {
        if self.tables.iter().any(|(n, _)| n == name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let storage = match method {
            StorageMethod::Flat => {
                let key = self.next_key();
                let flat = FlatTable::create(&mut self.host, key, schema, capacity)?;
                TableStorage::Flat(flat)
            }
            StorageMethod::Indexed => {
                let col = index_on.ok_or(DbError::Unsupported(
                    "INDEXED storage requires INDEX ON <col>".into(),
                ))?;
                let key_col = schema.col(col)?;
                let key = self.next_key();
                let rng = self.rng.fork();
                TableStorage::Indexed(IndexedTable::create(
                    &mut self.host,
                    key,
                    schema,
                    key_col,
                    capacity,
                    &self.om,
                    rng,
                )?)
            }
            StorageMethod::Both => {
                let col = index_on
                    .ok_or(DbError::Unsupported("BOTH storage requires INDEX ON <col>".into()))?;
                let key_col = schema.col(col)?;
                let fk = self.next_key();
                let flat = FlatTable::create(&mut self.host, fk, schema.clone(), capacity)?;
                let ik = self.next_key();
                let rng = self.rng.fork();
                let indexed = IndexedTable::create(
                    &mut self.host,
                    ik,
                    schema,
                    key_col,
                    capacity,
                    &self.om,
                    rng,
                );
                // Don't leak the flat region if the index half fails.
                let indexed = match indexed {
                    Ok(i) => i,
                    Err(e) => {
                        // Best-effort cleanup; the index failure is the
                        // error worth surfacing.
                        let _ = flat.free(&mut self.host);
                        return Err(e);
                    }
                };
                TableStorage::Both { flat, indexed }
            }
        };
        self.tables.push((name.to_string(), storage));
        self.version += 1;
        Ok(())
    }

    /// Bulk-creates a table with contents (pre-deployment load; avoids one
    /// oblivious insert per row when building experiment datasets).
    pub fn create_table_with_rows(
        &mut self,
        name: &str,
        schema: Schema,
        method: StorageMethod,
        index_on: Option<&str>,
        rows: &[Vec<Value>],
        capacity: u64,
    ) -> Result<(), DbError> {
        if self.tables.iter().any(|(n, _)| n == name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let encoded: Vec<Vec<u8>> =
            rows.iter().map(|r| schema.encode_row(r)).collect::<Result<_, _>>()?;
        let cap = capacity.max(rows.len() as u64);
        let storage = match method {
            StorageMethod::Flat => {
                let key = self.next_key();
                let flat =
                    FlatTable::from_encoded_rows(&mut self.host, key, schema, &encoded, cap)?;
                TableStorage::Flat(flat)
            }
            StorageMethod::Indexed => {
                let col = index_on.ok_or(DbError::Unsupported(
                    "INDEXED storage requires INDEX ON <col>".into(),
                ))?;
                let key_col = schema.col(col)?;
                let key = self.next_key();
                let rng = self.rng.fork();
                TableStorage::Indexed(IndexedTable::from_encoded_rows(
                    &mut self.host,
                    key,
                    schema,
                    key_col,
                    &encoded,
                    cap,
                    &self.om,
                    rng,
                )?)
            }
            StorageMethod::Both => {
                let col = index_on
                    .ok_or(DbError::Unsupported("BOTH storage requires INDEX ON <col>".into()))?;
                let key_col = schema.col(col)?;
                let fk = self.next_key();
                let flat = FlatTable::from_encoded_rows(
                    &mut self.host,
                    fk,
                    schema.clone(),
                    &encoded,
                    cap,
                )?;
                let ik = self.next_key();
                let rng = self.rng.fork();
                let indexed = match IndexedTable::from_encoded_rows(
                    &mut self.host,
                    ik,
                    schema,
                    key_col,
                    &encoded,
                    cap,
                    &self.om,
                    rng,
                ) {
                    Ok(i) => i,
                    Err(e) => {
                        // Best-effort cleanup; the index failure is the
                        // error worth surfacing.
                        let _ = flat.free(&mut self.host);
                        return Err(e);
                    }
                };
                TableStorage::Both { flat, indexed }
            }
        };
        self.tables.push((name.to_string(), storage));
        self.version += 1;
        Ok(())
    }

    /// Row count of a table (public information).
    pub fn table_rows(&self, name: &str) -> Result<u64, DbError> {
        Ok(self.tables[self.table_index(name)?].1.num_rows())
    }

    /// Schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<&Schema, DbError> {
        Ok(self.tables[self.table_index(name)?].1.schema())
    }

    /// Inserts a row, updating every storage method the table has. The
    /// row is logged ahead as the `INSERT` statement that replays it.
    pub fn insert(&mut self, name: &str, values: &[Value]) -> Result<(), DbError> {
        self.write_ahead(&insert_sql(name, values))?;
        self.insert_row(name, values)
    }

    /// Writes `statement` ahead of its execution (paper §3): one sealed
    /// append, no data-dependent pattern, made durable by one region-level
    /// sync before the statement runs. Under epochs the record joins the
    /// open epoch and becomes durable with the next commit marker's group
    /// fsync ([`Database::commit_epoch`]): at most one epoch can be lost.
    fn write_ahead(&mut self, statement: &str) -> Result<(), DbError> {
        if let Some(wal) = &mut self.wal {
            if self.config.epoch.is_some() {
                wal.append_pending(&mut self.host, statement)?;
            } else {
                wal.append(&mut self.host, statement)?;
                self.host.sync_region(wal.region_id())?;
            }
        }
        Ok(())
    }

    /// [`Database::insert`] once the row is logged.
    fn insert_row(&mut self, name: &str, values: &[Value]) -> Result<(), DbError> {
        let idx = self.table_index(name)?;
        // Refuse a row the schema cannot encode before anything is written,
        // growth included.
        self.tables[idx].1.schema().encode_row(values)?;
        // An index does not grow: refuse a full one before either half of
        // a BOTH table is written, so the refusal changes nothing.
        if let TableStorage::Indexed(i) | TableStorage::Both { indexed: i, .. } =
            &self.tables[idx].1
        {
            if i.is_full() {
                return Err(DbError::TableFull("index".into()));
            }
        }
        let fast = self.config.fast_inserts;
        // Auto-grow flat storage when full (paper §3: capacity "can be
        // increased later by copying to a new, larger table"). A fast
        // insert writes at the cursor, which a delete does not move back,
        // so it is full when the cursor is; the cursor is public, as the
        // growth already shows it.
        let needs_grow = {
            let (_, storage) = &self.tables[idx];
            match storage {
                TableStorage::Flat(f) | TableStorage::Both { flat: f, .. } => {
                    let used = if fast { f.insert_cursor() } else { f.num_rows() };
                    used >= f.capacity()
                }
                TableStorage::Indexed(_) => false,
            }
        };
        if needs_grow {
            let key = self.next_key();
            if let Some(f) = self.tables[idx].1.flat_mut() {
                let new_cap = f.capacity() * 2;
                f.grow(&mut self.host, key, new_cap)?;
            }
        }
        let (_, storage) = &mut self.tables[idx];
        match storage {
            TableStorage::Flat(f) => {
                if fast {
                    f.insert_fast(&mut self.host, values)?;
                } else {
                    f.insert_oblivious(&mut self.host, values)?;
                }
            }
            TableStorage::Indexed(i) => {
                i.insert(&mut self.host, values)?;
            }
            TableStorage::Both { flat, indexed } => {
                if fast {
                    flat.insert_fast(&mut self.host, values)?;
                } else {
                    flat.insert_oblivious(&mut self.host, values)?;
                }
                indexed.insert(&mut self.host, values)?;
            }
        }
        // Bumped only on success: a rejected mutation changes nothing, so
        // it must not invalidate prepared statements.
        self.version += 1;
        Ok(())
    }

    /// Deletes rows matching `pred`; returns the count (a result size).
    fn delete_where(&mut self, name: &str, pred: &Predicate) -> Result<u64, DbError> {
        let idx = self.table_index(name)?;
        let (_, storage) = &mut self.tables[idx];
        let n = match storage {
            TableStorage::Flat(f) => f.delete_where(&mut self.host, pred)?,
            TableStorage::Indexed(i) => i.delete_where(&mut self.host, pred)?,
            TableStorage::Both { flat, indexed } => {
                let n = flat.delete_where(&mut self.host, pred)?;
                indexed.delete_where(&mut self.host, pred)?;
                n
            }
        };
        self.version += 1;
        Ok(n)
    }

    /// Updates rows matching `pred`; returns the count.
    fn update_where(
        &mut self,
        name: &str,
        pred: &Predicate,
        assignments: &[(usize, Value)],
    ) -> Result<u64, DbError> {
        let idx = self.table_index(name)?;
        let (_, storage) = &mut self.tables[idx];
        let n = match storage {
            TableStorage::Flat(f) => f.update_where(&mut self.host, pred, assignments)?,
            TableStorage::Indexed(i) => i.update_where(&mut self.host, pred, assignments)?,
            TableStorage::Both { flat, indexed } => {
                let n = flat.update_where(&mut self.host, pred, assignments)?;
                indexed.update_where(&mut self.host, pred, assignments)?;
                n
            }
        };
        self.version += 1;
        Ok(n)
    }

    /// Parses and executes one SQL statement — a thin compatibility shim
    /// over the prepare → run lifecycle.
    pub fn execute(&mut self, query: &str) -> Result<QueryOutput, DbError> {
        self.prepare(query)?.run()
    }

    /// Parses and compiles one SQL statement into a physical plan without
    /// executing it: [`sql::parse`], then [`Database::prepare_parsed`].
    pub fn prepare(&mut self, query: &str) -> Result<PreparedStatement<'_, M>, DbError> {
        self.prepare_parsed(sql::parse(query)?)
    }

    /// Compiles one parsed statement into a physical plan without executing
    /// it. The returned [`PreparedStatement`] can be inspected
    /// ([`PreparedStatement::explain`]) and run — repeatedly; it re-plans
    /// itself transparently, without reparsing, if the database changed.
    ///
    /// SELECT plans are cached by the parser's token shape and literals
    /// ([`Parsed::cache_key`]: spacing and keyword case do not matter) and
    /// validated against the catalog version, so preparing the same
    /// statement again with no intervening change skips planning
    /// ([`Database::plan_cache_stats`]). Planning moves no block either way:
    /// every filter counts its matches in its run-time first pass.
    /// Mutations are never cached: running one bumps the version anyway.
    pub fn prepare_parsed(&mut self, parsed: Parsed) -> Result<PreparedStatement<'_, M>, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Prepare);
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::Prepares, 1);
        let key = matches!(
            parsed.statement(),
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)
        )
        .then(|| parsed.cache_key());
        if let Some(plan) = key
            .as_ref()
            .and_then(|k| self.plan_cache.get(k))
            .filter(|p| p.version == self.version)
            .cloned()
        {
            self.plan_cache_stats.hits += 1;
            oblidb_telemetry::counter_add(oblidb_telemetry::Counter::PlanCacheHits, 1);
            return Ok(PreparedStatement { db: self, parsed, plan });
        }
        self.plan_cache_stats.misses += 1;
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::PlanCacheMisses, 1);
        let plan = self.build_plan(parsed.statement())?;
        if let Some(key) = key {
            if self.plan_cache.len() >= PLAN_CACHE_CAP {
                let current = self.version;
                self.plan_cache.retain(|_, p| p.version == current);
                if self.plan_cache.len() >= PLAN_CACHE_CAP {
                    self.plan_cache.clear();
                }
            }
            self.plan_cache.insert(key, plan.clone());
        }
        Ok(PreparedStatement { db: self, parsed, plan })
    }

    /// Prepared-plan cache counters (hits avoid re-planning entirely).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache_stats
    }

    // ---- plan construction ------------------------------------------------

    fn build_plan(&mut self, statement: &Statement) -> Result<QueryPlan, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Plan);
        let profile = self.config.planner.profile.clone();
        let action = match statement {
            Statement::Create(c) => PlanAction::Create(c.clone()),
            Statement::Insert(i) => PlanAction::Insert(i.clone()),
            Statement::Update(u) => {
                let idx = self.table_index(&u.table)?;
                let schema = self.tables[idx].1.schema().clone();
                let pred = match &u.where_clause {
                    Some(w) => w.resolve(&schema)?,
                    None => Predicate::True,
                };
                let assignments: Vec<(usize, Value)> = u
                    .sets
                    .iter()
                    .map(|a| Ok((schema.col(&a.col)?, a.value.clone())))
                    .collect::<Result<_, DbError>>()?;
                PlanAction::Update { table: u.table.clone(), assignments, pred }
            }
            Statement::Delete(d) => {
                let idx = self.table_index(&d.table)?;
                let schema = self.tables[idx].1.schema().clone();
                let pred = match &d.where_clause {
                    Some(w) => w.resolve(&schema)?,
                    None => Predicate::True,
                };
                PlanAction::Delete { table: d.table.clone(), pred }
            }
            Statement::Select(s) => PlanAction::Select(self.plan_select(s.clone(), &profile)?),
            Statement::Explain(s) => {
                PlanAction::ExplainSelect(self.plan_select(s.clone(), &profile)?)
            }
            Statement::ExplainAnalyze(s) => {
                PlanAction::ExplainAnalyzeSelect(self.plan_select(s.clone(), &profile)?)
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                return Err(DbError::Unsupported(
                    "BEGIN / COMMIT / ROLLBACK require a transaction session (oblidb::txn) — \
                     a bare engine has no statement buffer to control"
                        .into(),
                ))
            }
        };
        Ok(QueryPlan { action, profile, version: self.version })
    }

    /// Compiles a SELECT into its operator tree, choosing physical
    /// operators wherever the input shape is public at prepare (a join of
    /// flat tables or padded filters) and deferring the rest to run time.
    fn plan_select(
        &mut self,
        s: sql::Select,
        profile: &CostProfile,
    ) -> Result<SelectPlan, DbError> {
        let (agg_items, _) = split_projection(&s.projection);
        let has_aggs = !agg_items.is_empty();

        // The input the projection reads, its schema, and the filter still
        // to apply there.
        let (input, schema, pred) = if let Some(join) = &s.join {
            let li = self.table_index(&s.table)?;
            let ri = self.table_index(&join.table)?;
            let ls = self.tables[li].1.schema().clone();
            let rs = self.tables[ri].1.schema().clone();
            let lc = ls.col(&join.left_col)?;
            let rc = rs.col(&join.right_col)?;

            // Push the WHERE down to whichever single side it resolves on.
            let resolve = |schema| s.where_clause.as_ref().and_then(|w| w.resolve(schema).ok());
            let left_pred = resolve(&ls);
            let right_pred = left_pred.is_none().then(|| resolve(&rs)).flatten();
            let pushed = left_pred.is_some() || right_pred.is_some();
            let (left, left_capacity) = self.plan_join_side(li, &s.table, left_pred);
            let (right, right_capacity) = self.plan_join_side(ri, &join.table, right_pred);

            let om_bytes = self.om.available();
            let renamed = ls.join(&s.table, &rs, &join.table);
            // Aggregates directly over the join (no GROUP BY, no WHERE left
            // above it) fold the joined rows instead of materializing them.
            let folded = has_aggs && s.group_by.is_none() && (pushed || s.where_clause.is_none());
            let mut join = JoinNode {
                left: Box::new(left),
                right: Box::new(right),
                left_col: lc,
                right_col: rc,
                // A side's shape may wait on a runtime index probe or a
                // filter's first pass.
                choice: JoinChoice::Deferred,
                est: None,
                actual: None,
                om_bytes,
                fused: None,
                renamed: renamed.clone(),
            };
            if let (Some(left_capacity), Some(right_capacity)) = (left_capacity, right_capacity) {
                let (left, right) = ((ls, left_capacity), (rs, right_capacity));
                let shape = JoinShape::new(left, right, om_bytes, folded);
                let cfg = &self.config.planner;
                (join.choice, join.est) = cost::choose_join(cfg, &shape, profile);
                // Padding mode's bound is public: it decides a fused build
                // here.
                if let (true, Some(pad)) = (folded, self.config.padding.map(|p| p.pad_rows)) {
                    let bound = SelectStats { matches: pad, continuous: false };
                    cost::fuse_filtered_build(cfg, Some(pad), &mut join, bound, om_bytes, profile);
                }
            }
            let mut top = PlanNode::Join(join);
            // WHERE after the join, unless push-down already consumed it.
            if let (Some(w), false) = (&s.where_clause, pushed) {
                let pred = w.resolve(&renamed)?;
                top = PlanNode::Filter(self.plan_filter(top, pred));
            }
            (top, renamed, None)
        } else {
            let idx = self.table_index(&s.table)?;
            let schema = self.tables[idx].1.schema().clone();
            let pred = match &s.where_clause {
                Some(w) => w.resolve(&schema)?,
                None => Predicate::True,
            };
            (PlanNode::Scan(self.plan_scan(idx, &s.table, &pred)), schema, Some(pred))
        };

        let root = if let Some(g) = &s.group_by {
            let (func, agg_col) = single_agg(&agg_items)?;
            let (group_col, agg_col) = (schema.col(g)?, agg_col.map(|c| schema.col(&c)));
            PlanNode::GroupBy(GroupByNode {
                input: Box::new(input),
                group_col,
                func,
                agg_col: agg_col.transpose()?,
                pred: pred.unwrap_or(Predicate::True),
                actual: None,
            })
        } else if has_aggs {
            let pred = pred.unwrap_or(Predicate::True);
            PlanNode::Aggregate(AggregateNode {
                input: Box::new(input),
                items: agg_items,
                pred,
                actual: None,
            })
        } else {
            match pred {
                Some(pred) => PlanNode::Filter(self.plan_filter(input, pred)),
                None => input,
            }
        };
        Ok(SelectPlan { root, stmt: s })
    }

    /// Plans one join input: a pushed-down filter over its base table or a
    /// bare scan. Returns the node plus its output capacity when that is
    /// public at prepare time: a flat table's, or a padded filter's bound
    /// over one. `None` (→ deferred join choice) when a runtime index probe
    /// or first pass decides it.
    fn plan_join_side(
        &mut self,
        idx: usize,
        name: &str,
        pred: Option<Predicate>,
    ) -> (PlanNode, Option<u64>) {
        let scan = self.plan_scan(idx, name, pred.as_ref().unwrap_or(&Predicate::True));
        let flat = (scan.access == AccessPath::Flat).then_some(scan.capacity);
        match pred {
            Some(p) => {
                let capacity = flat.and(self.config.padding).map(|pad| pad.pad_rows.max(1));
                (PlanNode::Filter(self.plan_filter(PlanNode::Scan(scan), p)), capacity)
            }
            None => (PlanNode::Scan(scan), flat),
        }
    }

    /// Decides the physical access path for a base table (paper §4.1/§5):
    /// attempt the index when the predicate maps to a range on the indexed
    /// column (with the public abort cap), otherwise the flat
    /// representation.
    fn plan_scan(&self, idx: usize, name: &str, pred: &Predicate) -> ScanNode {
        let storage = &self.tables[idx].1;
        let has_flat = matches!(storage, TableStorage::Flat(_) | TableStorage::Both { .. });
        let has_index = matches!(storage, TableStorage::Indexed(_) | TableStorage::Both { .. });
        let rows = storage.num_rows();
        let capacity = match storage {
            TableStorage::Flat(f) | TableStorage::Both { flat: f, .. } => f.capacity(),
            TableStorage::Indexed(_) => rows,
        };

        let index_range = pred.index_range().filter(|(col, lo, hi)| {
            let key_col = match storage {
                TableStorage::Indexed(i) => i.key_col(),
                TableStorage::Both { indexed, .. } => indexed.key_col(),
                TableStorage::Flat(_) => return false,
            };
            *col == key_col
                && !(matches!(lo, crate::predicate::Bound::Unbounded)
                    && matches!(hi, crate::predicate::Bound::Unbounded))
        });

        let access = if let Some((_, lo, hi)) =
            index_range.filter(|_| has_index && self.config.padding.is_none())
        {
            // The cap is the match count beyond which a flat scan is
            // cheaper: an index chain read costs ≈ 2·(path length) bucket
            // accesses of 4-slot blocks versus ~2 row accesses per
            // flat-scanned row. Both the cap and the abort decision are
            // functions of public sizes, so the probe leaks nothing beyond
            // the final plan choice (§5).
            let cap = if has_flat {
                let height = match storage {
                    TableStorage::Both { indexed, .. } => indexed.height() as u64,
                    _ => 1,
                };
                let oram_factor = 8 * (height + 2);
                (2 * rows.max(1)) / oram_factor.max(1)
            } else {
                u64::MAX
            };
            AccessPath::IndexRange { lo, hi, cap }
        } else if has_flat {
            AccessPath::Flat
        } else {
            AccessPath::IndexFull
        };
        let schema = storage.schema().clone();
        ScanNode { table: name.to_string(), access, schema, rows, capacity, actual: None }
    }

    /// Plans a selection stage over `input`. Its operator waits for the
    /// run-time first pass ([`exec::select_first_pass`]), which counts |R|;
    /// padding mode pins Small's windows over the bound (§2.3). The output
    /// key is drawn now, so the Hash candidate is priced with the buckets
    /// it would run with.
    fn plan_filter(&mut self, input: PlanNode, pred: Predicate) -> FilterNode {
        let choice = match self.config.padding {
            Some(pad) => SelectChoice::Padded { pad_rows: pad.pad_rows },
            None => SelectChoice::Deferred,
        };
        FilterNode {
            input: Box::new(input),
            pred,
            choice,
            est_matches: None,
            est: None,
            actual: None,
            om_bytes: self.om.available(),
            out_key: PlanKey(self.next_key()),
        }
    }

    // ---- plan execution ---------------------------------------------------

    /// Executes a compiled plan, writing measured node costs back into it.
    ///
    /// This is the statement-level telemetry boundary: a `Run` span and
    /// latency histogram wrap the whole execution, and when
    /// [`DbConfig::audit`] is on the statement runs under an access trace
    /// whose hash is checked against the first trace recorded for the same
    /// statement shape (see [`crate::audit`]). Auditing borrows the trace
    /// channel — a statement that runs while the caller is already tracing
    /// is counted as a skip, never silently unaudited.
    fn run_plan(&mut self, plan: &mut QueryPlan, parsed: &Parsed) -> Result<QueryOutput, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Run);
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::StatementsRun, 1);
        let timed = oblidb_telemetry::enabled().then(Instant::now);
        let audit = self.config.audit && !self.host.tracing();
        if self.config.audit && !audit {
            self.auditor.skip();
        }
        if audit {
            self.host.start_trace();
        }
        let result = self.run_plan_inner(plan, parsed.text());
        if audit {
            let trace = self.host.take_trace();
            if let Ok(out) = &result {
                let tables = self.public_sizes();
                let shape =
                    crate::audit::statement_shape(parsed.shape(), &tables, out.plan.output_rows);
                self.auditor.observe(&shape, &trace, &self.position_randomized_regions());
            }
        }
        if let Some(t0) = timed {
            oblidb_telemetry::histogram_record(
                oblidb_telemetry::HistogramId::StatementNanos,
                t0.elapsed().as_nanos() as u64,
            );
        }
        result
    }

    fn run_plan_inner(
        &mut self,
        plan: &mut QueryPlan,
        query: &str,
    ) -> Result<QueryOutput, DbError> {
        // WAL: log DDL and mutations before executing them. CREATE is
        // logged too, so crash recovery replays a complete history without
        // a separate schema dump.
        if matches!(
            plan.action,
            PlanAction::Create(_)
                | PlanAction::Insert(_)
                | PlanAction::Update { .. }
                | PlanAction::Delete { .. }
        ) {
            self.write_ahead(query)?;
        }
        let QueryPlan { action, profile, .. } = plan;
        match action {
            PlanAction::Create(c) => {
                let schema = Schema::new(
                    c.columns.iter().map(|cd| Column::new(cd.name.clone(), cd.dtype)).collect(),
                );
                let cap = c.capacity.unwrap_or(DEFAULT_CAPACITY);
                self.create_table(&c.name, schema, c.storage, c.index_on.as_deref(), cap)?;
                Ok(QueryOutput::empty(Schema::new(Vec::new())))
            }
            PlanAction::Insert(i) => {
                self.insert_row(&i.table, &i.values)?;
                Ok(QueryOutput::affected(1))
            }
            PlanAction::Update { table, assignments, pred } => {
                let n = self.update_where(table, pred, assignments)?;
                Ok(QueryOutput::affected(n))
            }
            PlanAction::Delete { table, pred } => {
                let n = self.delete_where(table, pred)?;
                Ok(QueryOutput::affected(n))
            }
            PlanAction::Select(sp) => self.run_select_root(&mut sp.root, &sp.stmt, profile),
            // EXPLAIN executes nothing: the result set is the rendering.
            PlanAction::ExplainSelect(_) => Ok(explained(plan, PlanInfo::default())),
            // EXPLAIN ANALYZE executes the select for real, then renders the
            // tree with the measured actuals (wall time, crossings, AEAD
            // bytes) the execution wrote into each node, next to the
            // planner's estimates.
            PlanAction::ExplainAnalyzeSelect(sp) => {
                let executed = self.run_select_root(&mut sp.root, &sp.stmt, profile)?.plan;
                Ok(explained(plan, executed))
            }
        }
    }

    /// Runs a SELECT tree: operators → rows → ORDER BY / LIMIT →
    /// projection. An aggregate, GROUP BY or a filter whose first pass fits
    /// returns its rows from the enclave; any other root's output is
    /// decoded, then freed if the statement owns it.
    fn run_select_root(
        &mut self,
        root: &mut PlanNode,
        s: &sql::Select,
        profile: &CostProfile,
    ) -> Result<QueryOutput, DbError> {
        let mut info = PlanInfo::default();
        let (schema, mut rows) = match root {
            PlanNode::Aggregate(a) => self.exec_aggregate(a, &mut info, profile)?,
            PlanNode::GroupBy(g) => self.exec_group(g, &mut info, profile)?,
            PlanNode::Filter(f) => {
                let mut rows = Vec::new();
                let (schema, out) =
                    self.exec_filter(f, Some(&mut rows), None, &mut info, profile)?;
                if let Some(mut out) = out {
                    let read = out.collect_rows(&mut self.host);
                    out.free(&mut self.host)?;
                    rows = read?;
                }
                (schema, rows)
            }
            other => {
                let owned = self.exec_input(other, &mut info, profile)?;
                let [mut table] = inputs(&mut self.tables, [(&*other, owned)]);
                let rows = table.collect_rows(&mut self.host);
                let schema = table.schema().clone();
                table.free(&mut self.host)?;
                (schema, rows?)
            }
        };
        info.output_rows = rows.len() as u64;

        // ORDER BY / LIMIT run on the decoded result inside the enclave;
        // they touch no untrusted memory and add no leakage beyond the
        // (already leaked) result size.
        if let Some((col, desc)) = &s.order_by {
            let idx = schema.col(col)?;
            rows.sort_by(|a, b| a[idx].cmp_total(&b[idx]));
            if *desc {
                rows.reverse();
            }
        }
        if let Some(limit) = s.limit {
            rows.truncate(limit as usize);
        }

        let (agg_items, col_items) = split_projection(&s.projection);
        let (schema, rows) = project(schema, rows, &col_items, &agg_items, s)?;
        Ok(QueryOutput { schema, rows, plan: info, rows_affected: None })
    }

    /// Runs what an operator's input needs before it is read: the filter or
    /// join under it, or the access its base-table scan plans. `None` means
    /// the scan reads its catalog table in place, for [`inputs`] to borrow.
    fn exec_input(
        &mut self,
        node: &mut PlanNode,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<Option<FlatTable>, DbError> {
        match node {
            PlanNode::Scan(scan) => self.exec_scan(scan, info, profile),
            PlanNode::Filter(f) => Ok(self.exec_filter(f, None, None, info, profile)?.1),
            PlanNode::Join(j) => self.exec_join(j, RowSink::seal(), info, profile),
            PlanNode::Aggregate(_) | PlanNode::GroupBy(_) => {
                Err(DbError::Unsupported("an aggregate is planned only at the root".into()))
            }
        }
    }

    /// Runs a base-table access per the planned path: the table an index
    /// probe materializes, or `None` to read the flat table in place, as a
    /// capped walk does once it aborts (paper §4.1).
    fn exec_scan(
        &mut self,
        scan: &mut ScanNode,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<Option<FlatTable>, DbError> {
        let idx = self.table_index(&scan.table)?;
        let (lo, hi, cap) = match scan.access.clone() {
            AccessPath::Flat => return Ok(None),
            AccessPath::IndexRange { lo, hi, cap } => (lo, hi, Some(cap)),
            AccessPath::IndexFull => (Bound::Unbounded, Bound::Unbounded, None),
        };
        let key = self.next_key();
        let before = self.host.stats();
        let started = Instant::now();
        let index = self.tables[idx].1.indexed_mut().expect("planned index access");
        let probed = match cap {
            Some(cap) => index.range_to_flat_capped(&mut self.host, key, &lo, &hi, cap)?,
            None => Some(index.range_to_flat(&mut self.host, key, &lo, &hi)?),
        };
        if let Some(t) = &probed {
            scan.actual = Some(timed_cost(self.host.stats() - before, profile, started));
            info.used_index = true;
            info.intermediate_rows.push(t.num_rows());
        }
        Ok(probed)
    }

    /// Executes a filter node: run its input, then its selection stage
    /// ([`run_filter_stage`]) over it, recording the measured cost. Returns
    /// the output's schema and the table the stage sealed — none when
    /// `rows`, a root select's, took the matches from the first pass.
    /// `first` is a first pass already run over the input, if any.
    fn exec_filter(
        &mut self,
        f: &mut FilterNode,
        mut rows: Option<&mut Vec<Row>>,
        first: Option<FirstPass>,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<(Schema, Option<FlatTable>), DbError> {
        let over_intermediate = !matches!(f.input.as_ref(), PlanNode::Scan(_));
        let owned = self.exec_input(&mut f.input, info, profile)?;
        let rng = self.rng.fork();
        let [mut input] = inputs(&mut self.tables, [(&*f.input, owned)]);
        let schema = input.schema().clone();
        let (host, om, config, sink) =
            (&mut self.host, &self.om, &self.config, rows.as_deref_mut());
        let out =
            run_filter_stage(host, om, config, f, &mut input, rng, profile, info, sink, first);
        input.free(&mut self.host)?;
        let out = out?;
        if over_intermediate {
            let kept = rows.map_or(0, |r| r.len() as u64);
            info.intermediate_rows.push(out.as_ref().map_or(kept, FlatTable::num_rows));
        }
        Ok((schema, out))
    }

    /// Executes a join node over its sides, read in place where they are
    /// stored, emitting the joined rows into `sink`. Returns the table a
    /// sealing sink built, its columns renamed to the real table names.
    ///
    /// Unpadded, a folded join's fusable side starts with its filter's
    /// first pass, kept in build entries: it counts the bound a fused build
    /// would cover ([`cost::fuse_filtered_build`]), and is that build's
    /// first pass when it fuses; otherwise the filter's stage takes it.
    /// Padding mode decided at prepare.
    fn exec_join(
        &mut self,
        j: &mut JoinNode,
        sink: RowSink<'_, '_>,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<Option<FlatTable>, DbError> {
        info.fused_aggregate = false;
        let om_bytes = self.om.available();
        let (mut passes, mut first, mut clock) = ([None, None], None, None);
        let cfg = &self.config.planner;
        let fusable = cost::fusable_side(cfg, j, om_bytes)
            .filter(|_| matches!(sink, RowSink::Fold(_)) && self.config.padding.is_none());
        if let Some((side, f, ..)) = fusable {
            let span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Join);
            let (before, started) = (self.host.stats(), Instant::now());
            let [mut base] = inputs(&mut self.tables, [(&*f.input, None)]);
            let entry = exec::join::build_entry_len(base.row_len());
            let (host, om, pred) = (&mut self.host, &self.om, &f.pred);
            let pass = exec::select_first_pass(host, om, &mut base, pred, None, entry)?;
            (j.fused, j.om_bytes) = (None, om_bytes);
            if cost::fuse_filtered_build(cfg, None, j, pass.stats, om_bytes, profile) {
                (first, clock) = (Some(pass), Some((span, before, started)));
            } else {
                passes[side as usize] = Some(pass);
            }
        }
        // A fused build reads both sides in place; an overflowing first
        // pass goes to its filter's stage.
        let [l, r] = passes;
        let ((left, _), (mut right, copy_key)) = match j.fused {
            Some(_) => ((None, None), (None, None)),
            None => (
                self.exec_join_side(&mut j.left, l, info, profile)?,
                self.exec_join_side(&mut j.right, r, info, profile)?,
            ),
        };
        let same_table = matches!(
            (j.left.as_ref(), j.right.as_ref()),
            (PlanNode::Scan(l), PlanNode::Scan(r)) if l.table == r.table
        );
        if let (None, None, Some(key), true) = (&left, &right, copy_key, same_table) {
            // A self-join reads one stored table twice, but a sealed
            // region is only read through `&mut`: copy one side.
            let [mut t] = inputs(&mut self.tables, [(&*j.right, None)]);
            let cap = t.capacity();
            right = Some(exec::copy_table(&mut self.host, &mut t, key, cap)?);
        }
        let key = self.next_key();
        let [mut lhs, mut rhs] = inputs(&mut self.tables, [(&*j.left, left), (&*j.right, right)]);

        if matches!(j.choice, JoinChoice::Deferred) {
            let (left, right) =
                ((lhs.schema().clone(), lhs.capacity()), (rhs.schema().clone(), rhs.capacity()));
            let folded = matches!(sink, RowSink::Fold(_));
            let shape = JoinShape::new(left, right, self.om.available(), folded);
            j.om_bytes = shape.om_bytes;
            (j.choice, j.est) = cost::choose_join(&self.config.planner, &shape, profile);
        }
        let algo = j.choice.algo().expect("deferred choice is resolved");
        info.join_algo = Some(algo);

        let (host, om) = (&mut self.host, &self.om);
        let (t1, c1, t2, c2) = (&mut *lhs, j.left_col, &mut *rhs, j.right_col);
        // A fused build's clock started at its first pass.
        let (_span, before, started) = clock.unwrap_or_else(|| {
            (oblidb_telemetry::span(oblidb_telemetry::SpanKind::Join), host.stats(), Instant::now())
        });
        let out = match algo {
            JoinAlgo::Hash => {
                let fused = j.fused.as_ref().map(|f| (f, first));
                exec::hash_join(host, om, t1, c1, t2, c2, key, sink, fused)
            }
            JoinAlgo::Opaque => {
                let variant = SortMergeVariant::Opaque;
                exec::sort_merge_join(host, om, t1, c1, t2, c2, key, sink, variant)
            }
            JoinAlgo::ZeroOm => {
                let variant = SortMergeVariant::ZeroOm { scratch_rows: ZERO_OM_SCRATCH_ROWS };
                exec::sort_merge_join(host, om, t1, c1, t2, c2, key, sink, variant)
            }
        };
        j.actual = Some(timed_cost(self.host.stats() - before, profile, started));
        lhs.free(&mut self.host)?;
        rhs.free(&mut self.host)?;

        // Rename output columns with the real table names so WHERE/GROUP BY
        // can reference them.
        Ok(out?.map(|mut out| {
            info.intermediate_rows.push(out.num_rows());
            out.rename_columns(j.renamed.clone());
            out
        }))
    }

    /// Executes one join side: a pushed-down filter's output, or the base
    /// table read in place. A side read in place also draws the key a copy
    /// of it would be sealed under — used only by a self-join's copy, it
    /// keeps every later key where a copying plan would put it, and with
    /// it the row order of keyed operators.
    fn exec_join_side(
        &mut self,
        node: &mut PlanNode,
        first: Option<FirstPass>,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<(Option<FlatTable>, Option<AeadKey>), DbError> {
        if let PlanNode::Filter(f) = node {
            let (_, out) = self.exec_filter(f, None, first, info, profile)?;
            info.intermediate_rows.extend(out.as_ref().map(FlatTable::num_rows));
            return Ok((out, None));
        }
        let input = self.exec_input(node, info, profile)?;
        let copy_key = input.is_none().then(|| self.next_key());
        Ok((input, copy_key))
    }

    /// Executes a fused select + aggregate node (paper §4.2): one pass over
    /// the input folds every aggregate, no intermediate table. Over a join
    /// there is no pass at all: the join folds its rows straight in. The
    /// one result row comes from the accumulators, never sealed.
    fn exec_aggregate(
        &mut self,
        a: &mut AggregateNode,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<(Schema, Vec<Row>), DbError> {
        let (values, _span, before, started) = if let PlanNode::Join(j) = a.input.as_mut() {
            let items = agg_columns(&a.items, &j.renamed)?;
            let mut fold = AggFold::new(j.renamed.clone(), &items, &a.pred);
            self.exec_join(j, RowSink::Fold(&mut fold), info, profile)?;
            let span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Aggregate);
            (fold.finish(), span, self.host.stats(), Instant::now())
        } else {
            let owned = self.exec_input(&mut a.input, info, profile)?;
            let span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Aggregate);
            let (before, started) = (self.host.stats(), Instant::now());
            let [mut input] = inputs(&mut self.tables, [(&*a.input, owned)]);
            let values = agg_columns(&a.items, input.schema())
                .and_then(|items| exec::aggregate(&mut self.host, &mut input, &items, &a.pred));
            input.free(&mut self.host)?;
            (values?, span, before, started)
        };
        info.fused_aggregate = true;
        let schema = Schema::new(
            a.items
                .iter()
                .zip(&values)
                .map(|((func, col), v)| Column::new(agg_name(*func, col.as_deref()), value_type(v)))
                .collect(),
        );
        a.actual = Some(timed_cost(self.host.stats() - before, profile, started));
        Ok((schema, vec![values]))
    }

    /// Executes a grouped-aggregation node (fused with its filter); its
    /// rows come from the group table, never sealed.
    fn exec_group(
        &mut self,
        g: &mut GroupByNode,
        info: &mut PlanInfo,
        profile: &CostProfile,
    ) -> Result<(Schema, Vec<Row>), DbError> {
        let over_base = matches!(g.input.as_ref(), PlanNode::Scan(_));
        let owned = self.exec_input(&mut g.input, info, profile)?;
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::GroupBy);
        let before = self.host.stats();
        let started = Instant::now();
        let [mut input] = inputs(&mut self.tables, [(&*g.input, owned)]);
        let schema = exec::group_output_schema(input.schema(), g.group_col, g.func, g.agg_col);
        let rows = exec::group_aggregate(
            &mut self.host,
            &self.om,
            &mut input,
            g.group_col,
            g.func,
            g.agg_col,
            &g.pred,
        );
        g.actual = Some(timed_cost(self.host.stats() - before, profile, started));
        input.free(&mut self.host)?;
        if over_base {
            info.fused_aggregate = true;
        }
        Ok((schema, rows?))
    }
}

/// A compiled statement bound to its database: phase two and three of the
/// prepare/explain/execute lifecycle.
///
/// ```
/// use oblidb_core::{Database, DbConfig};
///
/// let mut db = Database::new(DbConfig::default());
/// db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
/// db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
/// let mut stmt = db.prepare("SELECT * FROM t WHERE k = 1").unwrap();
/// println!("{}", stmt.explain()); // the plan, its root filter deferred to run
/// let out = stmt.run().unwrap();
/// println!("{}", stmt.explain()); // now with actual costs
/// assert_eq!(out.len(), 1);
/// ```
pub struct PreparedStatement<'db, M: EnclaveMemory> {
    db: &'db mut Database<M>,
    parsed: Parsed,
    plan: QueryPlan,
}

impl<M: EnclaveMemory> PreparedStatement<'_, M> {
    /// The compiled physical plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Renders the plan tree with estimated and, after [`Self::run`],
    /// actual per-node costs.
    pub fn explain(&self) -> Explain {
        Explain::of(&self.plan)
    }

    /// Executes the plan. Runnable repeatedly — a statement prepared
    /// before the database changed re-plans itself first (sizes and
    /// match-count statistics may have moved, and the operators size
    /// their outputs from them).
    pub fn run(&mut self) -> Result<QueryOutput, DbError> {
        if self.plan.version != self.db.version {
            self.plan = self.db.build_plan(self.parsed.statement())?;
        }
        self.db.run_plan(&mut self.plan, &self.parsed)
    }
}

/// An operator's input: a catalog table read in place, or an intermediate
/// the statement owns. Either way the operator sees a `&mut FlatTable`.
enum Input<'t> {
    Table(&'t mut FlatTable),
    Owned(FlatTable),
}

impl std::ops::Deref for Input<'_> {
    type Target = FlatTable;

    fn deref(&self) -> &FlatTable {
        match self {
            Input::Table(t) => t,
            Input::Owned(t) => t,
        }
    }
}

impl std::ops::DerefMut for Input<'_> {
    fn deref_mut(&mut self) -> &mut FlatTable {
        match self {
            Input::Table(t) => t,
            Input::Owned(t) => t,
        }
    }
}

impl Input<'_> {
    /// Frees an owned intermediate; a catalog table stays.
    fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), DbError> {
        match self {
            Input::Table(_) => Ok(()),
            Input::Owned(t) => t.free(host),
        }
    }
}

/// The inputs `sides` give an operator: each intermediate
/// [`Database::exec_input`] returned as is, and each scan it left in place
/// (or a fused filter's, its build's) as its catalog table, borrowed.
/// In-place sides read distinct tables (a self-join copies one side first).
fn inputs<'t, const N: usize>(
    tables: &'t mut [(String, TableStorage)],
    sides: [(&PlanNode, Option<FlatTable>); N],
) -> [Input<'t>; N] {
    let mut flats: Vec<(&str, &mut FlatTable)> =
        tables.iter_mut().filter_map(|(name, t)| Some((name.as_str(), t.flat_mut()?))).collect();
    sides.map(|(node, owned)| match owned {
        Some(t) => Input::Owned(t),
        None => {
            let scan = if let PlanNode::Filter(f) = node { &*f.input } else { node };
            let at = flats
                .iter()
                .position(|(name, _)| matches!(scan, PlanNode::Scan(s) if s.table == *name))
                .expect("an in-place input scans a flat catalog table");
            Input::Table(flats.swap_remove(at).1)
        }
    })
}

/// The result set of an EXPLAIN: `plan` rendered one line per row, with
/// the plan-shaped leakage of the run, if one executed.
fn explained(plan: &QueryPlan, executed: PlanInfo) -> QueryOutput {
    let rendering = Explain::of(plan);
    let width = rendering.lines().iter().map(|l| l.len()).max().unwrap_or(0).max(1);
    let schema = Schema::new(vec![Column::new("plan", DataType::Text(width))]);
    let rows = rendering.lines().iter().map(|l| vec![Value::Text(l.clone())]).collect();
    QueryOutput { schema, rows, plan: executed, rows_affected: None }
}

/// A node's measured actual: the host-stats delta weighted under
/// `profile`, stamped with the wall time elapsed since `started` — the
/// number `EXPLAIN ANALYZE` renders as `time=` next to the estimate.
fn timed_cost(
    delta: oblidb_enclave::HostStats,
    profile: &CostProfile,
    started: std::time::Instant,
) -> NodeCost {
    let mut cost = NodeCost::from_stats(&delta, profile);
    cost.nanos = started.elapsed().as_nanos() as u64;
    cost
}

/// The span kind instrumenting one selection operator.
fn select_span_kind(algo: SelectAlgo) -> oblidb_telemetry::SpanKind {
    use oblidb_telemetry::SpanKind;
    match algo {
        SelectAlgo::Small => SpanKind::SelectSmall,
        SelectAlgo::Large => SpanKind::SelectLarge,
        SelectAlgo::Continuous => SpanKind::SelectContinuous,
        SelectAlgo::Hash => SpanKind::SelectHash,
        SelectAlgo::Naive => SpanKind::SelectNaive,
        SelectAlgo::Padded => SpanKind::SelectPadded,
    }
}

/// Runs a filter node's selection stage over a materialized flat input
/// (paper §4.1 + §5) and records its choice and measured cost into the
/// node. Its first pass ([`exec::select_first_pass`], or `first`, one
/// already run) counts |R|. When the matches fit oblivious memory the pass
/// is the whole select, Small without its rescan: they go to `rows`, a
/// root select's, and `None` returns, or into a sealed |R|-row table.
/// Otherwise, and always for a forced stage, the pass's statistics resolve
/// the operator, which runs.
#[allow(clippy::too_many_arguments)]
fn run_filter_stage<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    config: &DbConfig,
    f: &mut FilterNode,
    input: &mut FlatTable,
    rng: EnclaveRng,
    profile: &CostProfile,
    info: &mut PlanInfo,
    rows: Option<&mut Vec<Row>>,
    first: Option<FirstPass>,
) -> Result<Option<FlatTable>, DbError> {
    let pad = if let SelectChoice::Padded { pad_rows } = f.choice { Some(pad_rows) } else { None };
    let (row_len, out_key) = (input.row_len(), f.out_key.0.clone());
    let kept = if pad.is_some() { SelectAlgo::Padded } else { SelectAlgo::Small };
    let (span, before, started) =
        (oblidb_telemetry::span(select_span_kind(kept)), host.stats(), Instant::now());
    let first = first
        .map_or_else(|| exec::select_first_pass(host, om, input, &f.pred, pad, row_len), Ok)?;
    let stats = first.stats;
    let mut shape = SelectShape {
        schema: input.schema().clone(),
        capacity: input.capacity(),
        rows: input.num_rows(),
        matches: pad.unwrap_or(stats.matches),
        continuous: stats.continuous,
        om_bytes: 0,
        out_key: out_key.clone(),
    };
    f.est_matches = pad.is_none().then_some(stats.matches);
    let fits = first.fits(row_len) && config.planner.force_select.is_none();
    let out = match (fits, rows) {
        (false, _) => None,
        (true, Some(rows)) => {
            RowSink::Rows(&shape.schema, rows).push(&first.kept);
            None
        }
        // Sealed, with dummies up to the padded bound.
        (true, None) => {
            let (mut sink, dummy) = (RowSink::seal(), shape.schema.dummy_row());
            sink.open(host, out_key.clone(), shape.schema.clone(), shape.matches.max(1))?;
            sink.push(&first.kept);
            (stats.matches..shape.matches).for_each(|_| sink.push(&dummy));
            sink.flush(host)?;
            Some(sink.sealed())
        }
    };
    drop((first, span));
    (shape.om_bytes, f.om_bytes) = (om.available(), om.available());
    if fits {
        let est = match out {
            Some(_) => cost::select_cost(kept, &shape),
            None => first_pass_cost(row_len, shape.capacity),
        };
        let est = NodeCost::from_stats(&est, profile);
        if pad.is_none() {
            let candidates = vec![CandidateCost { algo: kept, cost: est }];
            f.choice = SelectChoice::Chosen { algo: kept, candidates };
        }
        (f.est, f.actual) = (Some(est), Some(timed_cost(host.stats() - before, profile, started)));
        info.select_algo = Some(kept);
        return Ok(out);
    }
    (f.choice, f.est) = cost::resolve_select(&config.planner, pad, &shape, profile);
    let algo = f.choice.algo().expect("a resolved choice names its operator");
    info.select_algo = Some(algo);

    let (_span, before, started) =
        (oblidb_telemetry::span(select_span_kind(algo)), host.stats(), Instant::now());
    let (pred, bound) = (&f.pred, shape.matches);
    let out = match algo {
        SelectAlgo::Small => exec::select_small(host, om, input, pred, out_key, bound)?,
        SelectAlgo::Large => exec::select_large(host, input, pred, out_key)?,
        SelectAlgo::Continuous => exec::select_continuous(host, input, pred, out_key, bound)?,
        SelectAlgo::Hash => exec::select_hash(host, input, pred, out_key, bound)?,
        SelectAlgo::Naive => exec::select_naive(host, om, input, pred, out_key, bound, rng)?,
        // Small's windows over the padded bound, the last ones dummies.
        SelectAlgo::Padded => exec::select_small(host, om, input, pred, out_key, bound.max(1))?,
    };
    f.actual = Some(timed_cost(host.stats() - before, profile, started));
    Ok(Some(out))
}

/// Resolves aggregate items' column names against `schema`.
fn agg_columns(
    items: &[(AggFunc, Option<String>)],
    schema: &Schema,
) -> Result<Vec<(AggFunc, Option<usize>)>, DbError> {
    items
        .iter()
        .map(|(func, col)| Ok((*func, col.as_ref().map(|c| schema.col(c)).transpose()?)))
        .collect()
}

/// The `INSERT` statement that replays inserting `values` into `table`.
fn insert_sql(table: &str, values: &[Value]) -> String {
    let vals = values.iter().map(sql_literal).collect::<Vec<_>>().join(", ");
    format!("INSERT INTO {table} VALUES ({vals})")
}

/// Renders a column type exactly as the SQL grammar accepts it.
fn render_dtype(dt: DataType) -> String {
    match dt {
        DataType::Int => "INT".into(),
        DataType::Float => "FLOAT".into(),
        DataType::Text(n) => format!("CHAR({n})"),
    }
}

/// Renders a value as a SQL literal that re-parses to the identical
/// value: `{:?}` floats are shortest-roundtrip (the lexer accepts the
/// exponent form they may take), ±∞ is an exponent that overflows to it,
/// quotes in text double per the grammar. NaN has no literal.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_infinite() => if *f > 0.0 { "1e999" } else { "-1e999" }.into(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// The (column type, assigned value) compatibility check UPDATE encoding
/// enforces at run time, applied at validation time — mirrors
/// [`Schema::encode_row`]'s acceptance rules.
fn check_assignable(dtype: DataType, value: &Value, col: &str) -> Result<(), DbError> {
    match (dtype, value) {
        (DataType::Int, Value::Int(_))
        | (DataType::Float, Value::Float(_))
        | (DataType::Float, Value::Int(_)) => Ok(()),
        (DataType::Text(n), Value::Text(s)) if s.len() <= n => Ok(()),
        (DataType::Text(n), Value::Text(s)) => Err(DbError::TypeMismatch(format!(
            "string of {} bytes exceeds CHAR({n}) column {col}",
            s.len()
        ))),
        (dt, v) => Err(DbError::TypeMismatch(format!("column {col} is {dt:?}, value {v:?}"))),
    }
}

fn split_projection(p: &Projection) -> (Vec<(AggFunc, Option<String>)>, Vec<String>) {
    let mut aggs = Vec::new();
    let mut cols = Vec::new();
    if let Projection::Items(items) = p {
        for item in items {
            match item {
                SelectItem::Aggregate { func, col } => aggs.push((*func, col.clone())),
                SelectItem::Column(c) => cols.push(c.clone()),
            }
        }
    }
    (aggs, cols)
}

fn single_agg(aggs: &[(AggFunc, Option<String>)]) -> Result<(AggFunc, Option<String>), DbError> {
    match aggs {
        [one] => Ok(one.clone()),
        [] => Err(DbError::Unsupported("GROUP BY requires exactly one aggregate".into())),
        _ => Err(DbError::Unsupported("GROUP BY supports exactly one aggregate per query".into())),
    }
}

fn agg_name(func: AggFunc, col: Option<&str>) -> String {
    let f = match func {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Avg => "avg",
    };
    match col {
        Some(c) => format!("{f}({c})"),
        None => format!("{f}(*)"),
    }
}

fn value_type(v: &Value) -> crate::types::DataType {
    match v {
        Value::Int(_) => crate::types::DataType::Int,
        Value::Float(_) => crate::types::DataType::Float,
        Value::Text(s) => crate::types::DataType::Text(s.len().max(1)),
    }
}

/// Applies the final column projection to decoded rows.
fn project(
    schema: Schema,
    rows: Vec<Row>,
    col_items: &[String],
    agg_items: &[(AggFunc, Option<String>)],
    s: &sql::Select,
) -> Result<(Schema, Vec<Row>), DbError> {
    // Star, pure aggregates, or group-by outputs pass through unchanged.
    if matches!(s.projection, Projection::Star) || col_items.is_empty() || s.group_by.is_some() {
        let _ = agg_items;
        return Ok((schema, rows));
    }
    let indices: Vec<usize> = col_items.iter().map(|c| schema.col(c)).collect::<Result<_, _>>()?;
    let out_schema = Schema::new(indices.iter().map(|&i| schema.columns[i].clone()).collect());
    let out_rows =
        rows.into_iter().map(|r| indices.iter().map(|&i| r[i].clone()).collect()).collect();
    Ok((out_schema, out_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn db() -> Database {
        Database::new(DbConfig::default())
    }

    fn setup_people(db: &mut Database, method: StorageMethod) {
        let storage = match method {
            StorageMethod::Flat => "STORAGE = FLAT",
            StorageMethod::Indexed => "STORAGE = INDEXED INDEX ON id",
            StorageMethod::Both => "STORAGE = BOTH INDEX ON id",
        };
        db.execute(&format!(
            "CREATE TABLE people (id INT, age INT, name CHAR(12)) {storage} CAPACITY 64"
        ))
        .unwrap();
        for i in 0..20i64 {
            db.execute(&format!("INSERT INTO people VALUES ({i}, {}, 'p{}')", 20 + i, i)).unwrap();
        }
    }

    #[test]
    fn create_insert_select_flat() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db.execute("SELECT * FROM people WHERE id = 7").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][1], Value::Int(27));
        assert_eq!(out.rows()[0][2], Value::Text("p7".into()));
    }

    #[test]
    fn select_projection() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db.execute("SELECT name, age FROM people WHERE id < 3").unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema.columns[0].name, "name");
        assert_eq!(out.rows()[0], vec![Value::Text("p0".into()), Value::Int(20)]);
    }

    #[test]
    fn select_via_index() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Indexed);
        let out = db.execute("SELECT * FROM people WHERE id = 13").unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.plan.used_index);
        assert_eq!(out.rows()[0][0], Value::Int(13));
    }

    #[test]
    fn range_query_on_index() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Indexed);
        let out = db.execute("SELECT * FROM people WHERE id >= 5 AND id < 9").unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.plan.used_index);
    }

    #[test]
    fn both_storage_picks_index_for_point_flat_for_big() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Both);
        let point = db.execute("SELECT * FROM people WHERE id = 3").unwrap();
        assert!(point.plan.used_index, "point query should use the index");
        let big = db.execute("SELECT * FROM people WHERE id >= 0").unwrap();
        assert!(!big.plan.used_index, "full-range query should scan flat");
        assert_eq!(big.len(), 20);
    }

    #[test]
    fn aggregates_fused() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db
            .execute(
                "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM people WHERE id < 10",
            )
            .unwrap();
        assert!(out.plan.fused_aggregate);
        assert_eq!(out.rows()[0][0], Value::Int(10));
        assert_eq!(out.rows()[0][1], Value::Int(245));
        assert_eq!(out.rows()[0][2], Value::Int(20));
        assert_eq!(out.rows()[0][3], Value::Int(29));
        assert_eq!(out.rows()[0][4], Value::Float(24.5));
    }

    #[test]
    fn group_by_with_where() {
        let mut db = db();
        db.execute("CREATE TABLE sales (region INT, amount INT)").unwrap();
        for (r, a) in [(1, 10), (1, 20), (2, 5), (2, 5), (3, 100), (1, -1)] {
            db.execute(&format!("INSERT INTO sales VALUES ({r}, {a})")).unwrap();
        }
        let out = db
            .execute("SELECT region, SUM(amount) FROM sales WHERE amount > 0 GROUP BY region")
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0], vec![Value::Int(1), Value::Int(30)]);
        assert_eq!(out.rows()[1], vec![Value::Int(2), Value::Int(10)]);
        assert_eq!(out.rows()[2], vec![Value::Int(3), Value::Int(100)]);
    }

    #[test]
    fn group_overflow_is_a_typed_error_and_returns_its_lease() {
        let mut db = Database::new(DbConfig { om_bytes: 4096, ..DbConfig::default() });
        db.execute("CREATE TABLE t (g INT, v INT) CAPACITY 256").unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 1)")).unwrap();
        }
        let groups_below = |db: &mut Database, n: usize| {
            db.execute(&format!("SELECT g, COUNT(*) FROM t WHERE g < {n} GROUP BY g"))
        };
        let limit = match groups_below(&mut db, 200).err() {
            Some(DbError::TooManyGroups { limit }) => limit,
            other => panic!("200 groups in 4 KiB of OM: {other:?}"),
        };
        // The failed statement returned its OM lease: on the same engine,
        // exactly `limit` groups fit and one more does not.
        assert_eq!(groups_below(&mut db, limit).unwrap().len(), limit);
        let over = groups_below(&mut db, limit + 1).err();
        assert!(matches!(over, Some(DbError::TooManyGroups { limit: l }) if l == limit));
    }

    #[test]
    fn update_and_delete_sql() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db.execute("UPDATE people SET age = 99 WHERE id >= 15").unwrap();
        assert_eq!(out.rows_affected, Some(5));
        assert_eq!(out.plan.output_rows, 5, "mirrored for pre-lifecycle callers");
        let check = db.execute("SELECT * FROM people WHERE age = 99").unwrap();
        assert_eq!(check.len(), 5);
        assert_eq!(check.rows_affected, None, "reads carry no mutation count");
        let out = db.execute("DELETE FROM people WHERE age = 99").unwrap();
        assert_eq!(out.rows_affected, Some(5));
        assert_eq!(db.table_rows("people").unwrap(), 15);
        let ins = db.execute("INSERT INTO people VALUES (99, 1, 'x')").unwrap();
        assert_eq!(ins.rows_affected, Some(1));
    }

    #[test]
    fn prepare_explain_run_lifecycle() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let mut stmt = db.prepare("SELECT * FROM people WHERE id < 6").unwrap();
        // Prepare-time plan: a root filter waits for its first pass, so it
        // has no match count, estimate or actual yet.
        let filter = stmt.plan().select_root().unwrap().find_filter().unwrap();
        assert_eq!((filter.est_matches, filter.est, filter.actual), (None, None, None));
        assert_eq!(filter.choice, SelectChoice::Deferred);
        let before = stmt.explain().to_string();
        assert!(before.contains("Filter [deferred to run]"), "{before}");
        assert!(!before.contains("act:"), "{before}");

        // The run resolves it: the 6 matches fit OM, so the first pass was
        // the whole select, counted exactly.
        let out = stmt.run().unwrap();
        assert_eq!(out.len(), 6);
        let filter = stmt.plan().select_root().unwrap().find_filter().unwrap();
        assert_eq!(filter.choice.algo(), Some(SelectAlgo::Small));
        assert_eq!(filter.est_matches, Some(6));
        let (est, actual) = (filter.est.unwrap(), filter.actual.unwrap());
        assert_eq!((est.reads, est.writes), (actual.reads, 0), "one pass, nothing written");
        let after = stmt.explain().to_string();
        assert!(after.contains("candidates:") && after.contains("act:"), "{after}");
    }

    #[test]
    fn prepared_statement_reruns_and_replans() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        // A prepared SELECT is rerunnable.
        let mut stmt = db.prepare("SELECT * FROM people WHERE age >= 30").unwrap();
        assert_eq!(stmt.run().unwrap().len(), 10);
        assert_eq!(stmt.run().unwrap().len(), 10);
        // A prepared mutation bumps the catalog version when run, so its
        // second run goes through the transparent re-plan path (the
        // statement holds the only &mut Database, so nothing else can
        // invalidate it in between).
        let mut ins = db.prepare("INSERT INTO people VALUES (100, 1, 'y')").unwrap();
        ins.run().unwrap();
        ins.run().unwrap();
        assert_eq!(db.table_rows("people").unwrap(), 22);
        let mut del = db.prepare("DELETE FROM people WHERE id = 100").unwrap();
        assert_eq!(del.run().unwrap().rows_affected, Some(2));
        assert_eq!(del.run().unwrap().rows_affected, Some(0), "re-planned, nothing left");
    }

    #[test]
    fn explain_select_statement_renders_plan() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let before_trace_rows = db.table_rows("people").unwrap();
        let out = db.execute("EXPLAIN SELECT * FROM people WHERE id < 6").unwrap();
        assert_eq!(out.schema.columns[0].name, "plan");
        let text: Vec<String> =
            out.rows().iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
        assert!(text[0].starts_with("Select"), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Filter")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Scan people")), "{text:?}");
        // EXPLAIN executes nothing.
        assert_eq!(db.table_rows("people").unwrap(), before_trace_rows);
        assert!(db.execute("EXPLAIN SELECT * FROM nope").is_err());
    }

    #[test]
    fn update_delete_on_both_storage_stays_consistent() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Both);
        db.execute("UPDATE people SET age = 0 WHERE id < 5").unwrap();
        db.execute("DELETE FROM people WHERE id >= 15").unwrap();
        // Query via index...
        let via_index = db.execute("SELECT * FROM people WHERE id = 2").unwrap();
        assert_eq!(via_index.rows()[0][1], Value::Int(0));
        // ...and via flat scan agree.
        let via_flat = db.execute("SELECT * FROM people WHERE age = 0").unwrap();
        assert_eq!(via_flat.len(), 5);
        assert_eq!(db.table_rows("people").unwrap(), 15);
        let gone = db.execute("SELECT * FROM people WHERE id = 16").unwrap();
        assert!(gone.is_empty());
    }

    #[test]
    fn join_two_tables() {
        let mut db = db();
        db.execute("CREATE TABLE dept (did INT, dname CHAR(8))").unwrap();
        db.execute("CREATE TABLE emp (eid INT, did INT)").unwrap();
        for d in 0..4 {
            db.execute(&format!("INSERT INTO dept VALUES ({d}, 'd{d}')")).unwrap();
        }
        for e in 0..12 {
            db.execute(&format!("INSERT INTO emp VALUES ({e}, {})", e % 3)).unwrap();
        }
        let out = db.execute("SELECT * FROM dept JOIN emp ON dept.did = emp.did").unwrap();
        assert_eq!(out.len(), 12);
        assert!(out.plan.join_algo.is_some());
    }

    #[test]
    fn join_with_where_pushdown_and_group() {
        let mut db = db();
        db.execute("CREATE TABLE r (url INT, rank INT)").unwrap();
        db.execute("CREATE TABLE v (dest INT, rev INT, day INT)").unwrap();
        for u in 0..8 {
            db.execute(&format!("INSERT INTO r VALUES ({u}, {})", u * 10)).unwrap();
        }
        for i in 0..24 {
            db.execute(&format!("INSERT INTO v VALUES ({}, {}, {})", i % 8, i, i % 4)).unwrap();
        }
        // Push-down filter on v only.
        let out = db.execute("SELECT * FROM r JOIN v ON r.url = v.dest WHERE day = 1").unwrap();
        assert_eq!(out.len(), 6);
        // Grouped aggregation over a join: matching dests are {1, 5}, so
        // two rank groups with revenue sums 1+9+17 and 5+13+21.
        let out = db
            .execute("SELECT r.rank, SUM(rev) FROM r JOIN v ON r.url = v.dest WHERE day = 1 GROUP BY r.rank")
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0], vec![Value::Int(10), Value::Int(27)]);
        assert_eq!(out.rows()[1], vec![Value::Int(50), Value::Int(39)]);
    }

    #[test]
    fn padding_mode_hides_result_sizes() {
        // Two selections of very different selectivity must produce
        // identical traces under padding mode (fresh engine per query so
        // region numbering matches; numbering is itself size-determined).
        let run = |query: &str, expect: usize| {
            let mut db = Database::new(DbConfig {
                padding: Some(crate::padding::PaddingConfig { pad_rows: 32 }),
                ..DbConfig::default()
            });
            db.execute("CREATE TABLE t (id INT, v INT) CAPACITY 64").unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
            }
            db.start_trace();
            let out = db.execute(query).unwrap();
            assert_eq!(out.len(), expect);
            assert_eq!(out.plan.select_algo, Some(SelectAlgo::Padded));
            db.take_trace()
        };
        let ta = run("SELECT * FROM t WHERE id = 3", 1);
        let tb = run("SELECT * FROM t WHERE id < 15", 15);
        assert_eq!(ta, tb);
    }

    #[test]
    fn padded_bound_overflow_is_a_typed_error() {
        let mut db = Database::new(DbConfig {
            padding: Some(crate::padding::PaddingConfig { pad_rows: 4 }),
            ..DbConfig::default()
        });
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        db.execute("CREATE TABLE u (k INT, w INT) CAPACITY 16").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
            db.execute(&format!("INSERT INTO u VALUES ({i}, {i})")).unwrap();
        }
        let count = db.execute("SELECT COUNT(*) FROM t WHERE k < 8").unwrap();
        assert_eq!(count.rows()[0][0], Value::Int(8));
        let om = db.om().available();
        let over = Err(DbError::PaddedBoundExceeded { bound: 4 });
        assert_eq!(db.execute("SELECT * FROM t WHERE k < 8").map(|o| o.len()), over);
        // The WHERE resolves on neither side, so it filters the join output.
        let joined = "SELECT * FROM t JOIN u ON t.k = u.k WHERE v < 8 AND w >= 0";
        assert_eq!(db.execute(joined).map(|o| o.len()), over);
        assert_eq!(db.om().available(), om, "the buffer lease is returned");
        // Under the bound every row comes back.
        assert_eq!(db.execute("SELECT * FROM t WHERE k < 4").unwrap().len(), 4);
        let joined = "SELECT * FROM t JOIN u ON t.k = u.k WHERE v < 4 AND w >= 0";
        assert_eq!(db.execute(joined).unwrap().len(), 4);
    }

    #[test]
    fn fast_insert_after_delete_grows_a_full_table() {
        // The index half of BOTH has room for one row after the delete.
        for (storage, end) in [("FLAT", 6), ("BOTH INDEX ON k", 5)] {
            let mut db = db();
            let create = format!("CREATE TABLE t (k INT, v INT) STORAGE = {storage} CAPACITY 4");
            db.execute(&create).unwrap();
            for i in 0..4 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
            }
            db.execute("DELETE FROM t WHERE k = 0").unwrap();
            for i in 4..end {
                db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
            }
            let out = db.execute("SELECT * FROM t WHERE v >= 0").unwrap();
            let mut ks: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
            ks.sort_unstable();
            assert_eq!(ks, (1..end).collect::<Vec<i64>>(), "{storage}");
        }
    }

    #[test]
    fn a_refused_insert_into_a_full_table_moves_no_block() {
        for storage in ["FLAT", "BOTH INDEX ON k"] {
            let mut db = db();
            let create =
                format!("CREATE TABLE t (k INT, v CHAR(4)) STORAGE = {storage} CAPACITY 4");
            db.execute(&create).unwrap();
            for i in 0..4 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, 'ab')")).unwrap();
            }
            if storage != "FLAT" {
                // The index half has room again; the flat half's cursor does not.
                db.execute("DELETE FROM t WHERE k = 0").unwrap();
            }
            let (version, capacity) = (db.version, db.tables[0].1.flat_mut().unwrap().capacity());
            db.host_mut().reset_stats();
            let err = db.execute("INSERT INTO t VALUES (9, 'toolongtext')").unwrap_err();
            assert!(matches!(err, DbError::TypeMismatch(_)), "{storage}: {err:?}");
            assert_eq!(db.host_mut().stats().total_accesses(), 0, "{storage}");
            assert_eq!(db.tables[0].1.flat_mut().unwrap().capacity(), capacity, "{storage}");
            assert_eq!(db.version, version, "{storage}");
        }
    }

    #[test]
    fn select_traces_identical_for_same_sizes() {
        // The engine-level obliviousness check: same table size, same
        // output size, different query parameters → identical traces.
        let make = |lo: i64| {
            let mut db = db();
            setup_people(&mut db, StorageMethod::Flat);
            db.config_mut().planner.enable_continuous = false;
            db.start_trace();
            let out = db
                .execute(&format!("SELECT * FROM people WHERE id >= {lo} AND id < {}", lo + 4))
                .unwrap();
            assert_eq!(out.len(), 4);
            db.take_trace()
        };
        assert_eq!(make(0), make(13));
    }

    #[test]
    fn flat_table_autogrows() {
        let mut db = db();
        db.execute("CREATE TABLE t (x INT) CAPACITY 2").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert_eq!(db.table_rows("t").unwrap(), 10);
        let out = db.execute("SELECT * FROM t WHERE x >= 0").unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn oblivious_insert_mode() {
        let mut db = Database::new(DbConfig { fast_inserts: false, ..DbConfig::default() });
        db.execute("CREATE TABLE t (x INT) CAPACITY 8").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        let out = db.execute("SELECT * FROM t WHERE x > 0").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn errors_surface() {
        let mut db = db();
        assert!(matches!(db.execute("SELECT * FROM nope"), Err(DbError::NoSuchTable(_))));
        db.execute("CREATE TABLE t (x INT)").unwrap();
        assert!(matches!(
            db.execute("SELECT * FROM t WHERE missing = 1"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(db.execute("CREATE TABLE t (y INT)"), Err(DbError::TableExists(_))));
        assert!(matches!(
            db.execute("INSERT INTO t VALUES ('wrong')"),
            Err(DbError::TypeMismatch(_))
        ));
        assert!(matches!(
            db.create_table(
                "u",
                Schema::new(vec![Column::new("x", DataType::Int)]),
                StorageMethod::Indexed,
                None,
                8
            ),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn bulk_load_constructor() {
        let mut db = db();
        let schema =
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]);
        let rows: Vec<Vec<Value>> =
            (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i * 2)]).collect();
        db.create_table_with_rows("bulk", schema, StorageMethod::Both, Some("id"), &rows, 200)
            .unwrap();
        assert_eq!(db.table_rows("bulk").unwrap(), 100);
        let out = db.execute("SELECT * FROM bulk WHERE id = 42").unwrap();
        assert_eq!(out.rows()[0][1], Value::Int(84));
        assert!(out.plan.used_index);
    }

    #[test]
    fn forced_operators() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash, SelectAlgo::Naive] {
            db.config_mut().planner.force_select = Some(algo);
            let out = db.execute("SELECT * FROM people WHERE id < 6").unwrap();
            assert_eq!(out.plan.select_algo, Some(algo));
            assert_eq!(out.len(), 6, "{algo:?}");
        }
    }

    #[test]
    fn order_by_and_limit() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db
            .execute("SELECT id, age FROM people WHERE id < 10 ORDER BY age DESC LIMIT 3")
            .unwrap();
        assert_eq!(out.len(), 3);
        let ages: Vec<i64> = out.rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ages, vec![29, 28, 27]);
    }

    #[test]
    fn plan_cache_hits_skip_replanning_and_invalidate_on_change() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        // A case-distinct table: the catalog, and so the cache, tell
        // `People` from `people`.
        db.execute("CREATE TABLE People (id INT) CAPACITY 64").unwrap();
        let q = "SELECT * FROM people WHERE id < 6";
        assert_eq!(db.prepare(q).unwrap().run().unwrap().len(), 6);
        let after_first = db.plan_cache_stats();
        assert_eq!(after_first.hits, 0);

        // Same SQL, unchanged catalog: served from the cache with zero
        // host accesses (no preliminary scan, no costing).
        db.host_mut().reset_stats();
        {
            let stmt = db.prepare(q).unwrap();
            assert!(stmt.plan().select_root().is_some());
        }
        assert_eq!(db.host_mut().stats().total_accesses(), 0, "hit must not touch the host");
        assert_eq!(db.plan_cache_stats().hits, after_first.hits + 1);
        // A cached plan still runs correctly (fresh output regions).
        assert_eq!(db.prepare(q).unwrap().run().unwrap().len(), 6);
        // The key is the token shape plus literals: spacing and keyword
        // case do not matter, a case-distinct table name does.
        assert_eq!(
            db.prepare("select *  from people\nwhere id<6;").unwrap().run().unwrap().len(),
            6
        );
        assert_eq!(db.plan_cache_stats().hits, after_first.hits + 3);
        let misses = db.plan_cache_stats().misses;
        assert!(db.prepare("SELECT * FROM People WHERE id < 6").unwrap().run().unwrap().is_empty());
        assert_eq!(db.plan_cache_stats().misses, misses + 1);

        // Any mutation (data or DDL) bumps the version: stale entry,
        // re-planned, and the fresh row is visible.
        db.execute("INSERT INTO people VALUES (3, 21, 'x')").unwrap();
        let before = db.plan_cache_stats();
        assert_eq!(db.prepare(q).unwrap().run().unwrap().len(), 7);
        let after = db.plan_cache_stats();
        assert_eq!(after.misses, before.misses + 1, "stale plans are not hits");

        // Planner-config changes cannot bump the version; handing out the
        // config borrow drops the cache instead.
        db.config_mut().planner.force_select = Some(SelectAlgo::Large);
        let out = db.execute(q).unwrap();
        assert_eq!(out.plan.select_algo, Some(SelectAlgo::Large));
    }

    #[test]
    fn empty_result_queries() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db.execute("SELECT * FROM people WHERE id > 1000").unwrap();
        assert!(out.is_empty());
        let agg = db.execute("SELECT COUNT(*) FROM people WHERE id > 1000").unwrap();
        assert_eq!(agg.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn full_index_refuses_both_halves_of_a_both_table() {
        let mut db = db();
        db.execute("CREATE TABLE t (k INT, v INT) STORAGE = BOTH INDEX ON k CAPACITY 4").unwrap();
        for i in 0..4 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
        }
        let err = db.execute("INSERT INTO t VALUES (9, 9)").unwrap_err();
        assert!(matches!(err, DbError::TableFull(ref what) if what == "index"), "{err:?}");
        // Neither half took the row: the flat scan and the index agree.
        assert_eq!(db.table_rows("t").unwrap(), 4);
        assert!(db.execute("SELECT * FROM t WHERE v = 9").unwrap().is_empty());
        assert!(db.execute("SELECT * FROM t WHERE k = 9").unwrap().is_empty());
        assert_eq!(db.execute("SELECT * FROM t").unwrap().len(), 4);
    }
}

#[cfg(test)]
mod wal_tests {
    use super::*;

    #[test]
    fn wal_logs_mutations_and_replays() {
        let mut db =
            Database::new(DbConfig { wal: Some(crate::wal::WalConfig), ..DbConfig::default() });
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 32").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        db.execute("UPDATE t SET v = 99 WHERE k = 1").unwrap();
        db.execute("DELETE FROM t WHERE k = 2").unwrap();
        // Reads are not logged.
        db.execute("SELECT * FROM t").unwrap();

        let log = db.wal_records().unwrap();
        assert_eq!(log.len(), 5, "CREATE is logged too, so replay needs no schema dump");
        assert!(log[0].starts_with("CREATE"));
        assert!(log[1].starts_with("INSERT"));
        assert!(log[4].starts_with("DELETE"));

        // Redo into a fresh engine — the log alone carries the schema.
        let mut recovered = Database::new(DbConfig::default());
        let report = recovered.restore(&log).unwrap();
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        let a = db.execute("SELECT * FROM t ORDER BY k").unwrap();
        let b = recovered.execute("SELECT * FROM t ORDER BY k").unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn wal_appends_do_not_change_mutation_obliviousness() {
        // With WAL on, two equal-shape mutations still produce identical
        // traces (the log write is one extra fixed event).
        let run = |key: i64| {
            let mut db =
                Database::new(DbConfig { wal: Some(crate::wal::WalConfig), ..DbConfig::default() });
            db.execute("CREATE TABLE t (k INT) CAPACITY 16").unwrap();
            for i in 0..16 {
                db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            }
            db.start_trace();
            db.execute(&format!("DELETE FROM t WHERE k = {key}")).unwrap();
            db.take_trace()
        };
        assert_eq!(run(0), run(15));
    }

    #[test]
    fn checkpoint_is_a_noop_on_host() {
        // In-memory substrates have nothing to flush; the checkpoint path
        // must still exist (and add no observable accesses).
        let mut db =
            Database::new(DbConfig { wal: Some(crate::wal::WalConfig), ..DbConfig::default() });
        db.execute("CREATE TABLE t (k INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.start_trace();
        db.checkpoint().unwrap();
        assert!(db.take_trace().is_empty(), "host checkpoint adds no accesses");
        let mut plain = Database::new(DbConfig::default());
        plain.checkpoint().unwrap();
    }

    #[test]
    fn wal_off_means_no_log() {
        let mut db = Database::new(DbConfig::default());
        db.execute("CREATE TABLE t (k INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(db.wal_records().unwrap().is_empty());
    }
}
