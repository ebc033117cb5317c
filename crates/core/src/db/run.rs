//! Plan execution: [`Database::run_plan`] walks a [`QueryPlan`] tree,
//! running each node's operator over inputs read in place from the
//! catalog or owned as intermediates, and writes each node's measured
//! cost back into it.

use std::time::Instant;

use oblidb_enclave::HostStats;

use super::plan::split_projection;
use super::*;
use crate::exec::{
    self, select::first_pass_cost, AggFold, AggFunc, FirstPass, RowSink, SortMergeVariant,
};
use crate::plan::cost::{self, CostProfile, JoinShape, SelectShape, ZERO_OM_SCRATCH_ROWS};
use crate::plan::{
    AccessPath, AggregateNode, CandidateCost, FilterNode, GroupByNode, JoinChoice, JoinNode,
    NodeCost, PlanAction, PlanNode, ScanNode, SelectChoice,
};
use crate::predicate::Bound;
use crate::sql::{self, Projection};
use crate::table::FlatTable;
use crate::types::Column;

impl<M: EnclaveMemory> Database<M> {
    /// Executes a compiled plan, writing measured node costs back into it.
    ///
    /// This is the statement-level telemetry boundary: a `Run` span and
    /// latency histogram wrap the whole execution, and when
    /// [`DbConfig::audit`] is on the statement runs under an access trace
    /// whose hash is checked against the first trace recorded for the same
    /// statement shape (see [`crate::audit`]). Auditing borrows the trace
    /// channel — a statement that runs while the caller is already tracing
    /// is counted as a skip, never silently unaudited.
    pub(super) fn run_plan(
        &mut self,
        plan: &mut QueryPlan,
        parsed: &Parsed,
    ) -> Result<QueryOutput, DbError> {
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
                let (index_on, cap) =
                    (c.index_on.as_deref(), c.capacity.unwrap_or(DEFAULT_CAPACITY));
                self.create_table(&c.name, c.schema(), c.storage, index_on, cap, None)?;
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

        let (schema, rows) = project(schema, rows, s)?;
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
fn timed_cost(delta: HostStats, profile: &CostProfile, started: Instant) -> NodeCost {
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

/// An aggregate's result column: `count(*)`, `sum(col)`, … — the
/// function as EXPLAIN prints it, lowercased.
fn agg_name(func: AggFunc, col: Option<&str>) -> String {
    format!("{}({})", format!("{func:?}").to_lowercase(), col.unwrap_or("*"))
}

fn value_type(v: &Value) -> DataType {
    match v {
        Value::Int(_) => DataType::Int,
        Value::Float(_) => DataType::Float,
        Value::Text(s) => DataType::Text(s.len().max(1)),
    }
}

/// Applies the final column projection to decoded rows.
fn project(schema: Schema, rows: Vec<Row>, s: &sql::Select) -> Result<(Schema, Vec<Row>), DbError> {
    let (_, col_items) = split_projection(&s.projection);
    // Star, pure aggregates, or group-by outputs pass through unchanged.
    if matches!(s.projection, Projection::Star) || col_items.is_empty() || s.group_by.is_some() {
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
    use super::super::tests::{db, setup_people};
    use super::*;
    use crate::db::StorageMethod;

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
    fn empty_result_queries() {
        let mut db = db();
        setup_people(&mut db, StorageMethod::Flat);
        let out = db.execute("SELECT * FROM people WHERE id > 1000").unwrap();
        assert!(out.is_empty());
        let agg = db.execute("SELECT COUNT(*) FROM people WHERE id > 1000").unwrap();
        assert_eq!(agg.rows()[0][0], Value::Int(0));
    }
}
