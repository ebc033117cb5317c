//! The physical-plan IR behind the prepare/explain/execute lifecycle.
//!
//! [`crate::Database::prepare`] compiles a SQL statement into a
//! [`QueryPlan`]: a [`PlanNode`] tree whose operator nodes are annotated
//! with the chosen physical algorithm ([`crate::SelectAlgo`] /
//! [`crate::JoinAlgo`]), padded bounds, the oblivious-memory budget the
//! choice assumed, and — where the input shape is known at prepare time —
//! a [`NodeCost`] estimate counted from public sizes by [`cost`]. Execution
//! ([`crate::PreparedStatement::run`]) walks the tree, measures the
//! actual per-node access counts, and writes them back, so a post-run
//! [`Explain`] shows estimated *and* actual costs side by side.
//!
//! The tree is exactly the plan-shaped leakage of paper §2.3: sizes,
//! shapes and operator choices — never payload contents.

pub mod cost;

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::HostStats;

use crate::exec::AggFunc;
use crate::predicate::{Bound, Predicate};
use crate::sql;
use crate::types::Value;

use cost::{CostProfile, JoinAlgo, JoinSide, SelectAlgo};

/// Pre-allocated output-region key material, redacted from Debug output
/// (plans render in logs and EXPLAIN results; keys must not).
#[derive(Clone)]
pub(crate) struct PlanKey(pub(crate) AeadKey);

impl std::fmt::Debug for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PlanKey(<redacted>)")
    }
}

/// Counted cost of one plan node: blocks and crossings counted from
/// public sizes ([`cost::select_cost`], estimates) or a measured
/// [`HostStats`] delta (actuals), plus the profile-weighted scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    /// Sealed blocks read.
    pub reads: u64,
    /// Sealed blocks written.
    pub writes: u64,
    /// Enclave boundary crossings.
    pub crossings: u64,
    /// `reads·read_block + writes·write_block + crossings·crossing` under
    /// the plan's [`CostProfile`].
    pub weighted: f64,
    /// Sealed bytes moved across the boundary (read + written). Counted
    /// estimates and measured actuals both carry it; zero means nothing
    /// moved.
    pub bytes: u64,
    /// Measured wall time in nanoseconds. Always zero for estimates —
    /// only `EXPLAIN ANALYZE` / executed plans fill it in.
    pub nanos: u64,
}

impl NodeCost {
    /// Weighs counted accesses under `profile`.
    pub fn from_stats(stats: &HostStats, profile: &CostProfile) -> Self {
        NodeCost {
            reads: stats.reads,
            writes: stats.writes,
            crossings: stats.crossings,
            weighted: profile.weigh(stats),
            bytes: stats.bytes_read + stats.bytes_written,
            nanos: 0,
        }
    }

    /// Total block accesses (reads + writes).
    pub fn blocks(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::fmt::Display for NodeCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} crossings={} weighted={:.1}",
            self.reads, self.writes, self.crossings, self.weighted
        )?;
        if self.bytes > 0 {
            write!(f, " bytes={}", self.bytes)?;
        }
        if self.nanos > 0 {
            write!(f, " time={}", fmt_nanos(self.nanos))?;
        }
        Ok(())
    }
}

/// Adaptive-unit rendering of a nanosecond wall time.
fn fmt_nanos(nanos: u64) -> String {
    let secs = nanos as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

/// One costed SELECT candidate the planner considered.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// The candidate operator.
    pub algo: SelectAlgo,
    /// Its counted, weighted cost.
    pub cost: NodeCost,
}

/// One costed JOIN candidate the planner considered.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCandidateCost {
    /// The candidate operator.
    pub algo: JoinAlgo,
    /// Its counted, weighted cost.
    pub cost: NodeCost,
}

/// How a base table is reached.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan the flat representation.
    Flat,
    /// Probe the oblivious B+ tree for a key range, capped at `cap`
    /// materialized rows; past the cap a flat scan is cheaper and the
    /// probe aborts back to [`AccessPath::Flat`] (paper §4.1/§5 — both
    /// the cap and the abort are functions of public sizes).
    IndexRange {
        /// Range lower bound on the indexed column.
        lo: Bound,
        /// Range upper bound on the indexed column.
        hi: Bound,
        /// Match-count cap beyond which the probe aborts to a flat scan;
        /// `u64::MAX` when the table has no flat representation.
        cap: u64,
    },
    /// Materialize the full range through the index (indexed-only table,
    /// no usable key range).
    IndexFull,
}

/// Leaf node: one base-table access.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// Table name.
    pub table: String,
    /// Chosen access path.
    pub access: AccessPath,
    /// The table's schema.
    pub schema: crate::types::Schema,
    /// Rows in use at prepare time (public).
    pub rows: u64,
    /// Allocated capacity at prepare time (public).
    pub capacity: u64,
    /// Measured materialization cost (index probes; `None` for flat
    /// scans, whose cost is charged to the consuming operator).
    pub actual: Option<NodeCost>,
}

/// How (and when) a filter stage's operator was fixed.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectChoice {
    /// Pinned by `PlannerConfig::force_select`.
    Forced(SelectAlgo),
    /// Padding mode: Small's windowed select over this public output
    /// bound instead of the match count.
    Padded {
        /// Padded output size in rows (§2.3).
        pad_rows: u64,
    },
    /// Cost-chosen at run time, with the candidate table.
    Chosen {
        /// The winning operator.
        algo: SelectAlgo,
        /// Every candidate the planner counted, in admission order.
        candidates: Vec<CandidateCost>,
    },
    /// Deferred to execution: the filter's first pass counts |R|, then
    /// the cost machinery resolves the choice and writes it back.
    Deferred,
}

impl SelectChoice {
    /// The pinned operator, when one is already known.
    pub fn algo(&self) -> Option<SelectAlgo> {
        match self {
            SelectChoice::Forced(a) | SelectChoice::Chosen { algo: a, .. } => Some(*a),
            SelectChoice::Padded { .. } => Some(SelectAlgo::Padded),
            SelectChoice::Deferred => None,
        }
    }
}

/// A planned selection stage.
#[derive(Debug, Clone)]
pub struct FilterNode {
    /// Input plan.
    pub input: Box<PlanNode>,
    /// Resolved predicate (column indices, not names).
    pub pred: Predicate,
    /// The operator decision.
    pub choice: SelectChoice,
    /// Match count |R| from the run-time first pass (`None` before it, and
    /// in padding mode).
    pub est_matches: Option<u64>,
    /// Counted cost estimate for the chosen operator.
    pub est: Option<NodeCost>,
    /// Measured cost, filled by `run()`.
    pub actual: Option<NodeCost>,
    /// Oblivious-memory budget (bytes) the choice assumed.
    pub om_bytes: usize,
    /// Output-region key, drawn at prepare so the estimate and the
    /// execution share the Hash operator's bucket functions.
    pub(crate) out_key: PlanKey,
}

/// How (and when) a join stage's operator was fixed.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinChoice {
    /// Pinned by `PlannerConfig::force_join`.
    Forced(JoinAlgo),
    /// Cost-chosen from the input shapes: at prepare when they are public
    /// there, else at run.
    Chosen {
        /// The winning operator.
        algo: JoinAlgo,
        /// Every candidate the planner counted.
        candidates: Vec<JoinCandidateCost>,
    },
    /// Deferred to execution (an input's shape waits on a runtime index
    /// probe or a filter's first pass).
    Deferred,
}

impl JoinChoice {
    /// The pinned operator, when one is already known.
    pub fn algo(&self) -> Option<JoinAlgo> {
        match self {
            JoinChoice::Forced(a) | JoinChoice::Chosen { algo: a, .. } => Some(*a),
            JoinChoice::Deferred => None,
        }
    }
}

/// A side's pushed-down filter that a folded hash join runs inside its
/// build ([`crate::exec::hash_join`]): no select operator runs, and the
/// build reads the filter's base table. Padding mode decides it at
/// prepare, over the bound; otherwise the filter's run-time first pass
/// counts the bound, and the join decides then.
#[derive(Debug, Clone)]
pub struct FusedFilter {
    /// The side the join builds on.
    pub side: JoinSide,
    /// The filter's resolved predicate.
    pub pred: Predicate,
    /// Passing rows the build covers: the first pass's |R|, or the padded
    /// bound.
    pub bound: u64,
}

/// A planned join stage (left = FROM side / primary, right = foreign).
#[derive(Debug, Clone)]
pub struct JoinNode {
    /// Left input plan.
    pub left: Box<PlanNode>,
    /// Right input plan.
    pub right: Box<PlanNode>,
    /// Join column index on the left schema.
    pub left_col: usize,
    /// Join column index on the right schema.
    pub right_col: usize,
    /// The operator decision.
    pub choice: JoinChoice,
    /// Counted cost estimate for the chosen operator.
    pub est: Option<NodeCost>,
    /// Measured cost, filled by `run()`.
    pub actual: Option<NodeCost>,
    /// Oblivious-memory budget (bytes) the choice assumed.
    pub om_bytes: usize,
    /// The filter the hash build runs, when the join fused one.
    pub fused: Option<FusedFilter>,
    /// Output schema with table-qualified column names, applied to the
    /// joined table so downstream WHERE / GROUP BY can reference them.
    pub(crate) renamed: crate::types::Schema,
}

/// A fused select + aggregate stage (paper §4.2). Only ever the root: its
/// one row comes from the accumulators, not from a table.
#[derive(Debug, Clone)]
pub struct AggregateNode {
    /// Input plan.
    pub input: Box<PlanNode>,
    /// Aggregates to compute, in projection order.
    pub items: Vec<(AggFunc, Option<String>)>,
    /// Filter fused into the aggregation pass.
    pub pred: Predicate,
    /// Measured cost, filled by `run()`.
    pub actual: Option<NodeCost>,
}

/// A grouped aggregation stage; like [`AggregateNode`], only ever the root.
#[derive(Debug, Clone)]
pub struct GroupByNode {
    /// Input plan.
    pub input: Box<PlanNode>,
    /// Grouping column index (on the input schema).
    pub group_col: usize,
    /// The single aggregate function.
    pub func: AggFunc,
    /// Aggregated column index, `None` for `COUNT(*)`.
    pub agg_col: Option<usize>,
    /// Filter fused into the grouping pass.
    pub pred: Predicate,
    /// Measured cost, filled by `run()`.
    pub actual: Option<NodeCost>,
}

/// One node of the physical plan.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Base-table access.
    Scan(ScanNode),
    /// Planned selection.
    Filter(FilterNode),
    /// Planned join.
    Join(JoinNode),
    /// Fused aggregates.
    Aggregate(AggregateNode),
    /// Grouped aggregation.
    GroupBy(GroupByNode),
}

impl PlanNode {
    /// The node's children, outermost first.
    fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Scan(_) => Vec::new(),
            PlanNode::Filter(f) => vec![&f.input],
            PlanNode::Join(j) => vec![&j.left, &j.right],
            PlanNode::Aggregate(a) => vec![&a.input],
            PlanNode::GroupBy(g) => vec![&g.input],
        }
    }

    /// Sum of the estimated weighted costs of this subtree's costed nodes.
    pub fn estimated_weight(&self) -> f64 {
        let own = match self {
            PlanNode::Filter(f) => f.est.map(|c| c.weighted).unwrap_or(0.0),
            PlanNode::Join(j) => j.est.map(|c| c.weighted).unwrap_or(0.0),
            _ => 0.0,
        };
        own + self.children().iter().map(|c| c.estimated_weight()).sum::<f64>()
    }

    /// Sum of the measured weighted costs of this subtree's nodes.
    pub fn actual_weight(&self) -> f64 {
        let own = match self {
            PlanNode::Scan(s) => s.actual.map(|c| c.weighted).unwrap_or(0.0),
            PlanNode::Filter(f) => f.actual.map(|c| c.weighted).unwrap_or(0.0),
            PlanNode::Join(j) => j.actual.map(|c| c.weighted).unwrap_or(0.0),
            PlanNode::Aggregate(a) => a.actual.map(|c| c.weighted).unwrap_or(0.0),
            PlanNode::GroupBy(g) => g.actual.map(|c| c.weighted).unwrap_or(0.0),
        };
        own + self.children().iter().map(|c| c.actual_weight()).sum::<f64>()
    }

    /// The first filter node in the subtree (pre-order), if any — the
    /// usual subject of planner assertions in tests.
    pub fn find_filter(&self) -> Option<&FilterNode> {
        match self {
            PlanNode::Filter(f) => Some(f),
            _ => self.children().into_iter().find_map(|c| c.find_filter()),
        }
    }
}

/// A compiled SELECT: the operator tree plus the decode-side shape
/// (projection, ORDER BY, LIMIT) that runs inside the enclave.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// The operator tree.
    pub root: PlanNode,
    /// The parsed statement (projection / order / limit at decode time).
    pub(crate) stmt: sql::Select,
}

/// What a prepared statement will do when run.
#[derive(Debug, Clone)]
pub enum PlanAction {
    /// `CREATE TABLE`.
    Create(sql::CreateTable),
    /// `INSERT`.
    Insert(sql::Insert),
    /// `UPDATE` with a resolved predicate and assignments.
    Update {
        /// Target table.
        table: String,
        /// `(column index, new value)` pairs.
        assignments: Vec<(usize, Value)>,
        /// Resolved row filter.
        pred: Predicate,
    },
    /// `DELETE` with a resolved predicate.
    Delete {
        /// Target table.
        table: String,
        /// Resolved row filter.
        pred: Predicate,
    },
    /// `SELECT`.
    Select(SelectPlan),
    /// `EXPLAIN SELECT`: render the plan, execute nothing.
    ExplainSelect(SelectPlan),
    /// `EXPLAIN ANALYZE SELECT`: execute the plan with telemetry on, then
    /// render the tree with measured per-node time/crossings/bytes next
    /// to the planner's estimates.
    ExplainAnalyzeSelect(SelectPlan),
}

/// A compiled statement: the action, the cost profile its estimates were
/// weighted with, and the catalog version it was planned against.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// What running the plan does.
    pub action: PlanAction,
    /// The profile used to weigh candidate and actual costs.
    pub profile: CostProfile,
    /// Catalog version at prepare time; a mismatch at run time triggers
    /// transparent re-planning (sizes and statistics may have moved).
    pub(crate) version: u64,
}

impl QueryPlan {
    /// The SELECT operator tree, when this plan has one.
    pub fn select_root(&self) -> Option<&PlanNode> {
        match &self.action {
            PlanAction::Select(s)
            | PlanAction::ExplainSelect(s)
            | PlanAction::ExplainAnalyzeSelect(s) => Some(&s.root),
            _ => None,
        }
    }
}

/// A rendered plan: estimated and (post-run) actual costs per node.
#[derive(Debug, Clone)]
pub struct Explain {
    lines: Vec<String>,
}

impl Explain {
    /// Renders `plan` as an indented tree.
    pub fn of(plan: &QueryPlan) -> Self {
        let mut lines = Vec::new();
        match &plan.action {
            PlanAction::Create(c) => lines.push(format!("Create table {}", c.name)),
            PlanAction::Insert(i) => lines.push(format!("Insert into {}", i.table)),
            PlanAction::Update { table, .. } => {
                lines.push(format!("Update {table} (oblivious rewrite pass)"))
            }
            PlanAction::Delete { table, .. } => {
                lines.push(format!("Delete from {table} (oblivious rewrite pass)"))
            }
            PlanAction::Select(s)
            | PlanAction::ExplainSelect(s)
            | PlanAction::ExplainAnalyzeSelect(s) => {
                // Suppress each cost clause when no node carries it — a
                // plan of uncosted nodes is "not estimated", not free.
                let est = s.root.estimated_weight();
                let act = s.root.actual_weight();
                let mut header = format!("Select  [profile={}]", plan.profile.name);
                if est > 0.0 {
                    header.push_str(&format!("  est weighted cost {est:.1}"));
                }
                if act > 0.0 {
                    header.push_str(&format!(", actual {act:.1}"));
                }
                lines.push(header);
                render(&s.root, 1, &mut lines);
            }
        }
        Explain { lines }
    }

    /// The rendered lines, one per row of output.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

fn render(node: &PlanNode, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    let push_costs = |out: &mut Vec<String>, est: &Option<NodeCost>, actual: &Option<NodeCost>| {
        if let Some(c) = est {
            out.push(format!("{pad}   est: {c}"));
        }
        if let Some(c) = actual {
            out.push(format!("{pad}   act: {c}"));
        }
    };
    match node {
        PlanNode::Scan(s) => {
            let access = match &s.access {
                AccessPath::Flat => "flat".to_string(),
                AccessPath::IndexRange { cap, .. } => format!("index range, abort cap {cap}"),
                AccessPath::IndexFull => "index full scan".to_string(),
            };
            out.push(format!(
                "{pad}-> Scan {} [{access}] rows={} cap={}",
                s.table, s.rows, s.capacity
            ));
            push_costs(out, &None, &s.actual);
        }
        PlanNode::Filter(f) => {
            let algo = match &f.choice {
                SelectChoice::Forced(a) => format!("{a:?} (forced)"),
                SelectChoice::Padded { pad_rows } => format!("Padded (bound {pad_rows})"),
                SelectChoice::Chosen { algo, .. } => format!("{algo:?}"),
                SelectChoice::Deferred => "deferred to run".to_string(),
            };
            let matches = f.est_matches.map(|m| format!(" est_rows={m}")).unwrap_or_default();
            out.push(format!("{pad}-> Filter [{algo}]{matches} om={}B", f.om_bytes));
            if let SelectChoice::Chosen { candidates, .. } = &f.choice {
                let cells: Vec<String> = candidates
                    .iter()
                    .map(|c| format!("{:?}={:.1}", c.algo, c.cost.weighted))
                    .collect();
                out.push(format!("{pad}   candidates: {}", cells.join(" ")));
            }
            push_costs(out, &f.est, &f.actual);
            render(&f.input, depth + 1, out);
        }
        PlanNode::Join(j) => {
            let algo = match &j.choice {
                JoinChoice::Forced(a) => format!("{a:?} (forced)"),
                JoinChoice::Chosen { algo, .. } => format!("{algo:?}"),
                JoinChoice::Deferred => "deferred to run".to_string(),
            };
            let fused = j.fused.as_ref().map_or(String::new(), |f| {
                format!(" build={:?} fused filter, bound {}", f.side, f.bound)
            });
            out.push(format!("{pad}-> Join [{algo}] om={}B{fused}", j.om_bytes));
            if let JoinChoice::Chosen { candidates, .. } = &j.choice {
                let cells: Vec<String> = candidates
                    .iter()
                    .map(|c| format!("{:?}={:.1}", c.algo, c.cost.weighted))
                    .collect();
                out.push(format!("{pad}   candidates: {}", cells.join(" ")));
            }
            push_costs(out, &j.est, &j.actual);
            // A fused side's filter runs in the build: show its base table.
            let fused = j.fused.as_ref().map(|f| f.side);
            for (side, child) in [(JoinSide::Left, &j.left), (JoinSide::Right, &j.right)] {
                match child.as_ref() {
                    PlanNode::Filter(f) if fused == Some(side) => render(&f.input, depth + 1, out),
                    child => render(child, depth + 1, out),
                }
            }
        }
        PlanNode::Aggregate(a) => {
            let items: Vec<String> = a
                .items
                .iter()
                .map(|(f, c)| format!("{f:?}({})", c.as_deref().unwrap_or("*")))
                .collect();
            out.push(format!("{pad}-> Aggregate [{}] (fused)", items.join(", ")));
            push_costs(out, &None, &a.actual);
            render(&a.input, depth + 1, out);
        }
        PlanNode::GroupBy(g) => {
            out.push(format!("{pad}-> GroupBy [{:?}]", g.func));
            push_costs(out, &None, &g.actual);
            render(&g.input, depth + 1, out);
        }
    }
}
