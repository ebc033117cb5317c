//! The query planner (paper §5) and the cost model it chooses with.
//!
//! ObliDB chooses among operator implementations using only information the
//! adversary already has (or will get): table sizes, the output size, the
//! result's continuity, and the oblivious-memory budget. The preliminary
//! scan that counts |R| is every filter's own run-time first pass
//! ([`crate::exec::select_first_pass`]), with a fixed access pattern —
//! read every row once — so the only leakage optimization adds is the
//! final algorithm choice. Nothing here touches memory.
//!
//! Candidates are **counted from public sizes**. Every select and join
//! operator's access pattern is a function of those sizes only (the
//! obliviousness property the test suite asserts), so the `…_cost`
//! function beside each operator in [`crate::exec`] replays its loop
//! structure in integer arithmetic and returns the block reads, writes,
//! sealed bytes and boundary crossings it will cost — touching no memory.
//! The counts are weighed by a per-substrate [`CostProfile`] (disk ≫
//! cached ≫ RAM), so the same query can legitimately pick a different
//! operator on `DiskMemory` than on `Host`.
//!
//! Exactness: tests hold the count equal to execution —
//! `tests/planner_cost.rs` compares every operator's count against the
//! real operator's measured `HostStats` on `Host` over a grid of shapes.
//! The paper's closed-form §5 rules are not an engine mode; they live in
//! `oblidb_baselines::paper_rules` as the reference the planner bench and
//! the parity tests compare against.

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::HostStats;

use crate::exec::{join, select, SortMergeVariant};
use crate::types::Schema;

use super::{AccessPath, CandidateCost, FilterNode, FusedFilter, JoinCandidateCost, JoinChoice};
use super::{JoinNode, NodeCost, PlanNode, ScanNode, SelectChoice};

/// Per-substrate operator pricing, in units of one in-RAM block access.
///
/// The counted quantities come from the operators' count model; this
/// profile turns them into one comparable scalar. The decisive axis
/// between substrates is the **crossing** weight: per-block sealed
/// transfer costs are nearly identical across `Host`, `DiskMemory` and
/// the cached stacks (`BENCH_substrates.json`: equal reads/writes/bytes,
/// page-cache-speed disk), but each boundary crossing on a disk-backed
/// substrate is a positioned-I/O syscall on top of the OCALL-sized
/// enclave transition, where `Host` pays a function call.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Profile name (shown in EXPLAIN output).
    pub name: String,
    /// Cost of reading one sealed block.
    pub read_block: f64,
    /// Cost of writing one sealed block.
    pub write_block: f64,
    /// Fixed cost of one enclave boundary crossing (batched calls pay it
    /// once however many blocks they move).
    pub crossing: f64,
}

impl CostProfile {
    /// Builds a profile from explicit weights.
    pub fn new(name: impl Into<String>, read_block: f64, write_block: f64, crossing: f64) -> Self {
        CostProfile { name: name.into(), read_block, write_block, crossing }
    }

    /// In-RAM `Host`: a crossing is an OCALL-sized fixed cost, a few
    /// block-transfers' worth (the default profile).
    pub fn host() -> Self {
        Self::new("host", 1.0, 1.0, 4.0)
    }

    /// `DiskMemory`: sequential block transfer runs at page-cache speed
    /// (see `BENCH_substrates.json` — per-block counts and times match
    /// `Host`), but every crossing is a positioned-I/O syscall plus the
    /// enclave transition, and writes carry the journaling/dirty-page
    /// overhead of a durable medium.
    pub fn disk() -> Self {
        Self::new("disk", 1.0, 2.0, 64.0)
    }

    /// `CachedMemory` over `DiskMemory`: hot blocks are served at RAM
    /// speed, so logical accesses price like `Host` with a slightly
    /// dearer crossing (the wrapper's bookkeeping plus occasional
    /// write-back traffic underneath).
    pub fn cached_disk() -> Self {
        Self::new("cached-disk", 1.0, 1.0, 8.0)
    }

    /// The profile conventionally paired with a substrate label as
    /// reported by `oblidb_substrates::AnySubstrate::label()` /
    /// `SubstrateSpec::profile_name()`. Unknown labels get [`CostProfile::host`].
    pub fn named(label: &str) -> Self {
        match label {
            "disk" => Self::disk(),
            "cached-disk" => Self::cached_disk(),
            _ => Self::host(),
        }
    }

    /// Weighs counted accesses into one scalar cost.
    pub fn weigh(&self, stats: &HostStats) -> f64 {
        stats.reads as f64 * self.read_block
            + stats.writes as f64 * self.write_block
            + stats.crossings as f64 * self.crossing
    }
}

impl Default for CostProfile {
    fn default() -> Self {
        Self::host()
    }
}

/// The SELECT physical operators (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectAlgo {
    /// Multi-pass, enclave-buffered (small results).
    Small,
    /// Copy-then-clear (results covering almost the whole table).
    Large,
    /// Single-pass wraparound writes (contiguous results). Leaks
    /// continuity; can be disabled.
    Continuous,
    /// Double-hashed bucket writes (the general case).
    Hash,
    /// ORAM-per-row baseline (never chosen; for comparison).
    Naive,
    /// Padding-mode selection: Small's windowed select with pass count
    /// and output size fixed by the padded bound (§2.3; only used when
    /// padding is on).
    Padded,
}

/// The JOIN physical operators (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Block-partitioned oblivious hash join.
    Hash,
    /// Opaque sort-merge join (oblivious-memory quicksort chunks).
    Opaque,
    /// Bitonic sort-merge join using zero oblivious memory.
    ZeroOm,
}

/// What a filter's first pass learns (paper §5: "(1) the number of rows
/// satisfying the predicate and (2) whether those rows are adjacent in the
/// input table").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectStats {
    /// Number of matching rows — becomes |R|, already-leaked output size.
    pub matches: u64,
    /// Whether the matches form one contiguous run of the table.
    pub continuous: bool,
}

/// Plain (non-oblivious) enclave scratch rows granted to the 0-OM join's
/// sort (§4.3: it speeds up "regardless of whether the memory is
/// oblivious").
pub(crate) const ZERO_OM_SCRATCH_ROWS: usize = 1;

/// Fraction of the table at or above which Large is admitted ("contains
/// almost every row", §4.1).
pub const LARGE_THRESHOLD: f64 = 0.9;

/// Planner tunables.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Whether the Continuous algorithm may be chosen (§4.1 allows
    /// disabling it to remove the continuity leak; the paper disables it
    /// when comparing against Opaque).
    pub enable_continuous: bool,
    /// Operator overrides ("users can also manually choose to force a
    /// particular operator", §5).
    pub force_select: Option<SelectAlgo>,
    /// Join override.
    pub force_join: Option<JoinAlgo>,
    /// The per-substrate weights candidates are priced with. Defaults to
    /// the (substrate-neutral) host profile, so plan choices — which are
    /// deliberate leakage — stay identical across substrates unless a
    /// per-substrate profile is opted into.
    pub profile: CostProfile,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            enable_continuous: true,
            force_select: None,
            force_join: None,
            profile: CostProfile::host(),
        }
    }
}

/// The public shape a SELECT stage is priced from: everything the
/// adversary already knows (or will learn) about it.
#[derive(Clone)]
pub struct SelectShape {
    /// Input schema (fixes the row/block geometry).
    pub schema: Schema,
    /// Input capacity in blocks (scans cover capacity, not fill).
    pub capacity: u64,
    /// Rows in use (the [`LARGE_THRESHOLD`] admission gate uses this).
    pub rows: u64,
    /// Match count |R| from the first pass (the padded bound for
    /// [`SelectAlgo::Padded`]).
    pub matches: u64,
    /// Whether the matches form one contiguous run.
    pub continuous: bool,
    /// Oblivious-memory budget available to the stage.
    pub om_bytes: usize,
    /// The output-region key execution will use. The Hash operator
    /// derives its (index-keyed) bucket functions from it, so counting
    /// with the same key makes its count exact, not just close.
    pub out_key: AeadKey,
}

impl std::fmt::Debug for SelectShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectShape")
            .field("capacity", &self.capacity)
            .field("rows", &self.rows)
            .field("matches", &self.matches)
            .field("continuous", &self.continuous)
            .field("om_bytes", &self.om_bytes)
            .finish_non_exhaustive() // out_key is key material
    }
}

/// The accesses one SELECT operator will make over `shape`, counted from
/// public sizes (`Naive` with a direct, in-budget position map).
pub fn select_cost(algo: SelectAlgo, shape: &SelectShape) -> HostStats {
    match algo {
        SelectAlgo::Small => select::small_cost(shape),
        SelectAlgo::Large => select::large_cost(shape),
        SelectAlgo::Continuous => select::continuous_cost(shape),
        SelectAlgo::Hash => select::hash_cost(shape),
        SelectAlgo::Naive => select::naive_cost(shape),
        // Small's windows over the padded bound, never below one row.
        SelectAlgo::Padded => {
            select::small_cost(&SelectShape { matches: shape.matches.max(1), ..shape.clone() })
        }
    }
}

/// One input of a join: left is the FROM (primary) side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The FROM side, T1.
    Left,
    /// The JOIN side, T2.
    Right,
}

/// The public shape a JOIN stage is priced from.
#[derive(Debug, Clone)]
pub struct JoinShape {
    /// Left (primary) input schema.
    pub left_schema: Schema,
    /// Left input capacity in blocks.
    pub left_capacity: u64,
    /// Right (foreign) input schema.
    pub right_schema: Schema,
    /// Right input capacity in blocks.
    pub right_capacity: u64,
    /// Oblivious-memory budget available to the stage.
    pub om_bytes: usize,
    /// Plain enclave scratch rows granted to the 0-OM sort.
    pub zero_om_scratch_rows: usize,
    /// Whether the join folds into the aggregate above it instead of
    /// materializing: no output table is created or written.
    pub folded: bool,
    /// A folded hash join that builds on this side with its pushed-down
    /// filter, keeping at most this many passing rows; the side's schema
    /// and capacity are then its base table's.
    pub fused: Option<(JoinSide, u64)>,
}

impl JoinShape {
    /// An unfused join of `left` and `right`, each a schema and a capacity.
    pub fn new(left: (Schema, u64), right: (Schema, u64), om_bytes: usize, folded: bool) -> Self {
        let ((left_schema, left_capacity), (right_schema, right_capacity)) = (left, right);
        JoinShape {
            left_schema,
            left_capacity,
            right_schema,
            right_capacity,
            om_bytes,
            zero_om_scratch_rows: ZERO_OM_SCRATCH_ROWS,
            folded,
            fused: None,
        }
    }
}

/// The accesses one JOIN operator will make over `shape` — fill, oblivious
/// sort, merge / build, probe, and the output unless the join folds —
/// counted from the two capacities and the budget alone.
pub fn join_cost(algo: JoinAlgo, shape: &JoinShape) -> HostStats {
    match algo {
        JoinAlgo::Hash => join::hash_join_cost(shape),
        JoinAlgo::Opaque => join::sort_merge_join_cost(shape, SortMergeVariant::Opaque),
        JoinAlgo::ZeroOm => join::sort_merge_join_cost(
            shape,
            SortMergeVariant::ZeroOm { scratch_rows: shape.zero_om_scratch_rows },
        ),
    }
}

/// Picks the SELECT operator for a fully-shaped input — the engine's one
/// way to choose, called at run time once a [`SelectChoice::Deferred`]
/// stage's first pass has counted |R| and overflowed.
///
/// `cfg.force_select` pins the operator (still counted, so the plan
/// carries an estimate). Otherwise every admissible candidate is counted,
/// weighed by `profile`, and the cheapest wins (ties break toward the
/// earlier candidate). Candidate admission follows §5's structure, not
/// its formulas: `Continuous` requires a contiguous result (and the config
/// switch), `Large` requires a near-total result — below the threshold its
/// `|T|`-sized output structure taxes every downstream operator, which
/// the single-stage count cannot see — and `Small`/`Hash` always apply.
/// `Naive` exists for comparison and is never chosen (Figure 3).
pub fn choose_select(
    cfg: &PlannerConfig,
    shape: &SelectShape,
    profile: &CostProfile,
) -> (SelectChoice, Option<NodeCost>) {
    let priced = |algo| NodeCost::from_stats(&select_cost(algo, shape), profile);
    if let Some(algo) = cfg.force_select {
        return (SelectChoice::Forced(algo), Some(priced(algo)));
    }
    let mut admitted = Vec::new();
    if shape.continuous && cfg.enable_continuous {
        admitted.push(SelectAlgo::Continuous);
    }
    admitted.push(SelectAlgo::Small);
    if shape.rows > 0 && shape.matches as f64 >= LARGE_THRESHOLD * shape.rows as f64 {
        admitted.push(SelectAlgo::Large);
    }
    admitted.push(SelectAlgo::Hash);

    let candidates: Vec<CandidateCost> =
        admitted.into_iter().map(|algo| CandidateCost { algo, cost: priced(algo) }).collect();
    let best = candidates
        .iter()
        .min_by(|a, b| a.cost.weighted.total_cmp(&b.cost.weighted))
        .expect("candidate set is never empty");
    let (algo, est) = (best.algo, best.cost);
    (SelectChoice::Chosen { algo, candidates }, Some(est))
}

/// The operator a filter stage runs over `shape` when its first pass does
/// not fit, and its estimate: Small's windows over the padded bound `pad`,
/// or else [`choose_select`]'s pick.
pub(crate) fn resolve_select(
    cfg: &PlannerConfig,
    pad: Option<u64>,
    shape: &SelectShape,
    profile: &CostProfile,
) -> (SelectChoice, Option<NodeCost>) {
    match pad {
        Some(pad_rows) => {
            let est = NodeCost::from_stats(&select_cost(SelectAlgo::Padded, shape), profile);
            (SelectChoice::Padded { pad_rows }, Some(est))
        }
        None => choose_select(cfg, shape, profile),
    }
}

/// Picks the JOIN operator for two fully-shaped inputs, mirroring
/// [`choose_select`]: `cfg.force_join` pins it (uncosted); otherwise the
/// candidates are counted and the cheapest under `profile` wins. A zero
/// oblivious-memory budget admits only the 0-OM join (§4.3). Prepare calls
/// this when both sides are flat; a [`JoinChoice::Deferred`] node calls it
/// once its sides are materialized.
pub fn choose_join(
    cfg: &PlannerConfig,
    shape: &JoinShape,
    profile: &CostProfile,
) -> (JoinChoice, Option<NodeCost>) {
    if let Some(algo) = cfg.force_join {
        return (JoinChoice::Forced(algo), None);
    }
    let admitted: &[JoinAlgo] = if shape.om_bytes == 0 {
        &[JoinAlgo::ZeroOm]
    } else {
        &[JoinAlgo::Hash, JoinAlgo::Opaque, JoinAlgo::ZeroOm]
    };
    let candidates: Vec<JoinCandidateCost> = admitted
        .iter()
        .map(|&algo| JoinCandidateCost {
            algo,
            cost: NodeCost::from_stats(&join_cost(algo, shape), profile),
        })
        .collect();
    let best = candidates
        .iter()
        .min_by(|a, b| a.cost.weighted.total_cmp(&b.cost.weighted))
        .expect("candidate set is never empty");
    let (algo, est) = (best.algo, best.cost);
    (JoinChoice::Chosen { algo, candidates }, Some(est))
}

/// The side whose pushed-down filter a folded join's hash build may run
/// ([`FusedFilter`]), with that filter, its base table's scan and the other
/// side's: a filter over a flat base table beside a flat table of another
/// name, unless a select or a join other than Hash is forced or the budget
/// is zero.
pub(crate) fn fusable_side<'j>(
    cfg: &PlannerConfig,
    j: &'j JoinNode,
    om_bytes: usize,
) -> Option<(JoinSide, &'j FilterNode, &'j ScanNode, &'j ScanNode)> {
    let (side, filter, other) = match (j.left.as_ref(), j.right.as_ref()) {
        (PlanNode::Filter(f), PlanNode::Scan(o)) => (JoinSide::Left, f, o),
        (PlanNode::Scan(o), PlanNode::Filter(f)) => (JoinSide::Right, f, o),
        _ => return None,
    };
    let PlanNode::Scan(base) = filter.input.as_ref() else { return None };
    let admitted = cfg.force_select.is_none()
        && cfg.force_join.is_none_or(|algo| algo == JoinAlgo::Hash)
        && om_bytes > 0
        && base.access == AccessPath::Flat
        && other.access == AccessPath::Flat
        && base.table != other.table;
    admitted.then_some((side, filter, base, other))
}

/// Fuses `j`'s fusable side's filter into its hash build over `stats`'
/// matches — the first pass's |R|, or the padded bound `pad` — and records
/// it ([`FusedFilter`]), returning whether it did. Rows that fit one build
/// pass always fuse: the pass that counted them is the build. Otherwise
/// the build fuses when it counts cheaper under `profile` than the
/// filter's own select ([`resolve_select`]) plus the join chosen over its
/// output.
pub(crate) fn fuse_filtered_build(
    cfg: &PlannerConfig,
    pad: Option<u64>,
    j: &mut JoinNode,
    stats: SelectStats,
    om_bytes: usize,
    profile: &CostProfile,
) -> bool {
    let Some((side, f, base, other)) = fusable_side(cfg, j, om_bytes) else { return false };
    let (b, o) = ((base.schema.clone(), base.capacity), (other.schema.clone(), other.capacity));
    let [l, r] = if side == JoinSide::Left { [b, o] } else { [o, b] };
    let (bound, pred) = (stats.matches, f.pred.clone());
    let mut shape =
        JoinShape { fused: Some((side, bound)), ..JoinShape::new(l, r, om_bytes, true) };
    let est = NodeCost::from_stats(&join_cost(JoinAlgo::Hash, &shape), profile);
    let entry = join::build_entry_len(base.schema.row_len());
    if (bound as usize).saturating_mul(entry) > om_bytes.max(entry) {
        let select = SelectShape {
            schema: base.schema.clone(),
            capacity: base.capacity,
            rows: base.rows,
            matches: bound,
            continuous: stats.continuous,
            om_bytes,
            out_key: f.out_key.0.clone(),
        };
        let (choice, select_est) = resolve_select(cfg, pad, &select, profile);
        // The rows its operator seals.
        let capacity = match choice.algo() {
            Some(SelectAlgo::Large) => base.capacity,
            Some(SelectAlgo::Hash) => bound.max(1) * select::HASH_SLOTS as u64,
            _ => bound.max(1),
        };
        let side_capacity = if side == JoinSide::Left {
            &mut shape.left_capacity
        } else {
            &mut shape.right_capacity
        };
        (*side_capacity, shape.fused) = (capacity, None);
        let Some(algo) = choose_join(cfg, &shape, profile).0.algo() else { return false };
        let unfused =
            select_est.map_or(0.0, |c| c.weighted) + profile.weigh(&join_cost(algo, &shape));
        if est.weighted >= unfused {
            return false;
        }
    }
    j.choice = match cfg.force_join {
        Some(algo) => JoinChoice::Forced(algo),
        None => JoinChoice::Chosen {
            algo: JoinAlgo::Hash,
            candidates: vec![JoinCandidateCost { algo: JoinAlgo::Hash, cost: est }],
        },
    };
    (j.est, j.fused) = (Some(est), Some(FusedFilter { side, pred, bound }));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType};

    fn shape(cap: u64, matches: u64, continuous: bool, om: usize) -> SelectShape {
        SelectShape {
            schema: Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            capacity: cap,
            rows: cap,
            matches,
            continuous,
            om_bytes: om,
            out_key: AeadKey([9u8; 32]),
        }
    }

    #[test]
    fn counted_costs_are_deterministic_and_size_shaped() {
        let s = shape(64, 8, false, 1 << 20);
        let a = select_cost(SelectAlgo::Small, &s);
        let b = select_cost(SelectAlgo::Small, &s);
        assert_eq!(a, b);
        // One pass: read the capacity once, write the 8 matches, plus the
        // 8-block output allocation.
        assert_eq!(a.reads, 64);
        assert_eq!(a.writes, 16);
    }

    #[test]
    fn crossing_price_flips_the_choice() {
        // Medium selectivity + tiny OM (8 rows → 32 Small passes): Hash
        // wins on blocks, but needs ~2 crossings per input row. Cheap
        // crossings → Hash; dear crossings → Small.
        let s = shape(512, 256, false, 8 * 17);
        let cfg = PlannerConfig::default();
        let cheap = CostProfile::new("ram", 1.0, 1.0, 1.0);
        let dear = CostProfile::new("disk", 1.0, 2.0, 64.0);
        let (on_ram, _) = choose_select(&cfg, &s, &cheap);
        let (on_disk, _) = choose_select(&cfg, &s, &dear);
        assert_eq!(on_ram.algo(), Some(SelectAlgo::Hash));
        assert_eq!(on_disk.algo(), Some(SelectAlgo::Small));
    }

    #[test]
    fn join_costing_covers_all_candidates() {
        let s = JoinShape {
            left_schema: Schema::new(vec![Column::new("k", DataType::Int)]),
            left_capacity: 32,
            right_schema: Schema::new(vec![Column::new("k", DataType::Int)]),
            right_capacity: 48,
            om_bytes: 1 << 16,
            zero_om_scratch_rows: 1,
            folded: false,
            fused: None,
        };
        let cfg = PlannerConfig::default();
        let candidates_of = |shape: &JoinShape| {
            let (choice, est) = choose_join(&cfg, shape, &CostProfile::host());
            match choice {
                JoinChoice::Chosen { algo, candidates } => {
                    let won = candidates.iter().find(|c| c.algo == algo).expect("winner is listed");
                    assert_eq!(est, Some(won.cost));
                    (algo, candidates.len())
                }
                other => panic!("expected a costed choice, got {other:?}"),
            }
        };
        assert_eq!(candidates_of(&s).1, 3);
        assert_eq!(candidates_of(&JoinShape { om_bytes: 0, ..s }), (JoinAlgo::ZeroOm, 1));
    }

    #[test]
    fn force_overrides() {
        let cfg = PlannerConfig {
            force_select: Some(SelectAlgo::Naive),
            force_join: Some(JoinAlgo::ZeroOm),
            ..PlannerConfig::default()
        };
        let (select, est) = choose_select(&cfg, &shape(10, 1, true, 1 << 20), &CostProfile::host());
        assert_eq!(select, SelectChoice::Forced(SelectAlgo::Naive));
        assert!(est.is_some(), "a forced select is still costed");
        let joined = JoinShape {
            left_schema: Schema::new(vec![Column::new("k", DataType::Int)]),
            left_capacity: 10,
            right_schema: Schema::new(vec![Column::new("k", DataType::Int)]),
            right_capacity: 10,
            om_bytes: 1 << 20,
            zero_om_scratch_rows: 1,
            folded: false,
            fused: None,
        };
        let (join, _) = choose_join(&cfg, &joined, &CostProfile::host());
        assert_eq!(join, JoinChoice::Forced(JoinAlgo::ZeroOm));
    }
}
