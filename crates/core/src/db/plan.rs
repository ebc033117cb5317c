//! Plan construction: [`Database::prepare`] and the plan cache, and the
//! SELECT planner that turns a statement into a [`QueryPlan`] tree —
//! scans over each table's storage, filters whose operator waits for
//! their first pass, joins, and root aggregates.

use super::*;
use crate::exec::AggFunc;
use crate::plan::cost::{self, CostProfile, JoinShape, SelectStats};
use crate::plan::{
    AccessPath, AggregateNode, FilterNode, GroupByNode, JoinChoice, JoinNode, PlanAction, PlanKey,
    PlanNode, ScanNode, SelectChoice, SelectPlan,
};
use crate::predicate::Bound;
use crate::sql::{self, PredExpr, Projection, SelectItem};

impl<M: EnclaveMemory> Database<M> {
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

    pub(super) fn build_plan(&mut self, statement: &Statement) -> Result<QueryPlan, DbError> {
        let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Plan);
        let profile = self.config.planner.profile.clone();
        let action = match statement {
            Statement::Create(c) => PlanAction::Create(c.clone()),
            Statement::Insert(i) => PlanAction::Insert(i.clone()),
            Statement::Update(u) => {
                let (_, schema, pred) = self.resolve_where(&u.table, u.where_clause.as_ref())?;
                let assignments: Vec<(usize, Value)> = u
                    .sets
                    .iter()
                    .map(|a| Ok((schema.col(&a.col)?, a.value.clone())))
                    .collect::<Result<_, DbError>>()?;
                PlanAction::Update { table: u.table.clone(), assignments, pred }
            }
            Statement::Delete(d) => {
                let (_, _, pred) = self.resolve_where(&d.table, d.where_clause.as_ref())?;
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
            let (idx, schema, pred) = self.resolve_where(&s.table, s.where_clause.as_ref())?;
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

    /// `table`'s catalog index and schema, with `where_clause` resolved
    /// against it (no clause: every row).
    fn resolve_where(
        &self,
        table: &str,
        where_clause: Option<&PredExpr>,
    ) -> Result<(usize, Schema, Predicate), DbError> {
        let idx = self.table_index(table)?;
        let schema = self.tables[idx].1.schema().clone();
        let pred = where_clause.map_or(Ok(Predicate::True), |w| w.resolve(&schema))?;
        Ok((idx, schema, pred))
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
        let (flat, index) = (storage.flat(), storage.indexed());
        let (rows, capacity) = (storage.num_rows(), storage.capacity());

        let index_range = pred.index_range().filter(|(col, lo, hi)| {
            index.is_some_and(|i| *col == i.key_col())
                && !(matches!(lo, Bound::Unbounded) && matches!(hi, Bound::Unbounded))
        });

        let access =
            if let Some((_, lo, hi)) = index_range.filter(|_| self.config.padding.is_none()) {
                // The cap is the match count beyond which a flat scan is
                // cheaper: an index chain read costs ≈ 2·(path length) bucket
                // accesses of 4-slot blocks versus ~2 row accesses per
                // flat-scanned row. Both the cap and the abort decision are
                // functions of public sizes, so the probe leaks nothing beyond
                // the final plan choice (§5).
                let cap = match (flat, index) {
                    (Some(_), Some(i)) => (2 * rows.max(1)) / (8 * (i.height() as u64 + 2)),
                    _ => u64::MAX,
                };
                AccessPath::IndexRange { lo, hi, cap }
            } else if flat.is_some() {
                AccessPath::Flat
            } else {
                AccessPath::IndexFull
            };
        let (table, schema) = (name.to_string(), storage.schema().clone());
        ScanNode { table, access, schema, rows, capacity, actual: None }
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
}

pub(super) fn split_projection(p: &Projection) -> (Vec<(AggFunc, Option<String>)>, Vec<String>) {
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

#[cfg(test)]
mod tests {
    use super::super::tests::{db, setup_people};
    use super::*;
    use crate::db::StorageMethod;
    use crate::plan::cost::SelectAlgo;

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
}
