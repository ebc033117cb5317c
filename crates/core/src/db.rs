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
//!
//! [`Database`] is one struct over three files, each an `impl` block: this
//! one (configuration, constructors, catalog, DML, WAL and epochs),
//! `db/plan.rs` (`prepare*` and plan construction) and `db/run.rs` (plan
//! execution). How a table is stored is decided in
//! [`crate::table::TableStorage`].

pub mod persist;
mod plan;
mod run;
pub mod shared;

use std::collections::HashMap;

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, Host, OmBudget, Trace, DEFAULT_OM_BYTES};

use crate::error::DbError;
use crate::padding::PaddingConfig;
use crate::plan::cost::{JoinAlgo, PlannerConfig, SelectAlgo};
use crate::plan::{Explain, QueryPlan};
use crate::predicate::Predicate;
use crate::sql::{Parsed, Statement};
use crate::table::TableStorage;
use crate::types::{DataType, Row, Schema, Value};

pub use crate::table::StorageMethod;

/// Default initial table capacity (rows) when CREATE TABLE gives none.
pub const DEFAULT_CAPACITY: u64 = 1024;

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
                    created.push((c.name.clone(), c.schema()));
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
                        let col = &schema.columns[schema.col(&a.col)?];
                        col.encode_value(&a.value, &mut vec![0; col.dtype.width()])?;
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
            if storage.indexed().is_some() {
                return Err(DbError::Unsupported(format!(
                    "table '{name}' uses indexed storage; state dumps (WAL checkpoints) \
                     support FLAT tables only"
                )));
            }
            let f = storage.flat_mut().expect("a table without an index is flat");
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

    /// The next region key this incarnation derives.
    fn next_key(&mut self) -> AeadKey {
        region_key(&self.master_key, &self.key_epoch, &mut self.key_counter)
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
        let cursor = |t: &TableStorage| t.flat().map_or(0, |f| f.insert_cursor());
        self.tables.iter().map(|(n, t)| (n.clone(), t.num_rows(), cursor(t))).collect()
    }

    /// The regions the trace auditor compares by event count and direction
    /// only (see [`crate::audit::trace_hash`]): every indexed table's ORAM
    /// regions, where positions are random by construction, and the WAL
    /// region, written at its public append position.
    pub(crate) fn position_randomized_regions(&self) -> Vec<oblidb_enclave::RegionId> {
        let indexed = self.tables.iter().filter_map(|(_, t)| t.indexed());
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

    /// Creates a table: empty, or bulk-loaded with `rows`.
    fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        method: StorageMethod,
        index_on: Option<&str>,
        capacity: u64,
        rows: Option<&[Vec<Value>]>,
    ) -> Result<(), DbError> {
        if self.tables.iter().any(|(n, _)| n == name) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let encoded = rows.map(|rows| rows.iter().map(|r| schema.encode_row(r)).collect());
        let encoded: Option<Vec<Vec<u8>>> = encoded.transpose()?;
        let next_key = || region_key(&self.master_key, &self.key_epoch, &mut self.key_counter);
        let (host, om, rng, rows) = (&mut self.host, &self.om, &mut self.rng, encoded.as_deref());
        let storage = TableStorage::create(
            host, om, rng, next_key, schema, method, index_on, capacity, rows,
        )?;
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
        self.create_table(name, schema, method, index_on, capacity, Some(rows))
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
        let row = self.tables[idx].1.schema().encode_row(values)?;
        let grow_key = || region_key(&self.master_key, &self.key_epoch, &mut self.key_counter);
        self.tables[idx].1.insert(&mut self.host, &row, self.config.fast_inserts, grow_key)?;
        // Bumped only on success: a rejected mutation changes nothing, so
        // it must not invalidate prepared statements.
        self.version += 1;
        Ok(())
    }

    /// Deletes rows matching `pred`; returns the count (a result size).
    fn delete_where(&mut self, name: &str, pred: &Predicate) -> Result<u64, DbError> {
        let idx = self.table_index(name)?;
        let n = self.tables[idx].1.delete_where(&mut self.host, pred)?;
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
        let n = self.tables[idx].1.update_where(&mut self.host, pred, assignments)?;
        self.version += 1;
        Ok(n)
    }

    /// Parses and executes one SQL statement — a thin compatibility shim
    /// over the prepare → run lifecycle.
    pub fn execute(&mut self, query: &str) -> Result<QueryOutput, DbError> {
        self.prepare(query)?.run()
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

/// Fresh derived key for a new region/table: master key, incarnation
/// epoch, and a monotone counter — unique per region per incarnation.
fn region_key(master_key: &[u8; 32], key_epoch: &[u8; 16], counter: &mut u64) -> AeadKey {
    *counter += 1;
    let mut label = Vec::with_capacity(7 + 16 + 8);
    label.extend_from_slice(b"region:");
    label.extend_from_slice(key_epoch);
    label.extend_from_slice(&counter.to_le_bytes());
    AeadKey(oblidb_crypto::derive_key(master_key, &label))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType};

    pub(super) fn db() -> Database {
        Database::new(DbConfig::default())
    }

    pub(super) fn setup_people(db: &mut Database, method: StorageMethod) {
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
                8,
                None
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
    fn a_refused_index_create_leaves_no_region() {
        let schema =
            || Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]);
        for (storage, method) in
            [("INDEXED", StorageMethod::Indexed), ("BOTH", StorageMethod::Both)]
        {
            for bulk in [false, true] {
                // 4 KiB of OM holds no position map for 1 000 rows' nodes.
                let mut db = Database::new(DbConfig { om_bytes: 4096, ..DbConfig::default() });
                db.start_trace();
                let refused = if bulk {
                    db.create_table_with_rows("t", schema(), method, Some("k"), &[], 1000)
                } else {
                    let create = format!(
                        "CREATE TABLE t (k INT, v INT) STORAGE = {storage} INDEX ON k CAPACITY 1000"
                    );
                    db.execute(&create).map(|_| ())
                };
                let trace = db.take_trace();
                let err = refused.expect_err(storage).to_string();
                assert!(err.contains("oblivious memory"), "{storage} bulk={bulk}: {err}");
                if method == StorageMethod::Indexed {
                    assert!(trace.is_empty(), "bulk={bulk}: {} events", trace.len());
                }
                let host = db.host_mut();
                let live: Vec<u32> = (0..4)
                    .filter(|&r| host.region_len(oblidb_enclave::RegionId(r)).is_ok())
                    .collect();
                assert_eq!(live, Vec::<u32>::new(), "{storage} bulk={bulk}");
                let create =
                    format!("CREATE TABLE t (k INT, v INT) STORAGE = {storage} INDEX ON k");
                db.execute(&format!("{create} CAPACITY 8")).unwrap();
            }
        }
    }

    #[test]
    fn a_float_index_finds_rows_by_int_and_float_literals() {
        for storage in ["INDEXED", "BOTH"] {
            let mut db = db();
            let create = format!("CREATE TABLE t (k FLOAT, v INT) STORAGE = {storage} INDEX ON k");
            db.execute(&create).unwrap();
            db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
            db.execute("INSERT INTO t VALUES (2.5, 2)").unwrap();
            for pred in ["k = 1", "k = 1.0", "k >= 0.5 AND k <= 1.5", "k >= 0 AND k < 2"] {
                let out = db.execute(&format!("SELECT v FROM t WHERE {pred}")).unwrap();
                assert_eq!(out.rows(), [vec![Value::Int(1)]], "{storage}: {pred}");
            }
            // An integer assigned to the key is keyed as the float it stores.
            db.execute("UPDATE t SET k = 3 WHERE v = 2").unwrap();
            let out = db.execute("SELECT v FROM t WHERE k >= 2.5 AND k <= 3.5").unwrap();
            assert_eq!(out.rows(), [vec![Value::Int(2)]], "{storage}");
        }
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
