//! The query planner (paper §5).
//!
//! ObliDB chooses among operator implementations using only information the
//! adversary already has (or will get): table sizes, the output size, the
//! result's continuity, and the oblivious-memory budget. The planner's own
//! preliminary scan has a fixed access pattern — read every row once — so
//! the only leakage optimization adds is the final algorithm choice.
//!
//! The choice itself is made in [`crate::plan::cost`]: `choose_select` and
//! `choose_join` dry-run every admissible candidate and weigh the counted
//! accesses with [`PlannerConfig::profile`]. The paper's closed-form §5
//! rules are not an engine mode; they live in `oblidb_baselines::paper_rules`
//! as the reference the figure harnesses and parity tests compare against.

use oblidb_enclave::EnclaveMemory;

use crate::error::DbError;
use crate::plan::cost::CostProfile;
use crate::predicate::Predicate;
use crate::table::FlatTable;
use crate::types::Schema;

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
    /// Padding-mode selection: multi-pass with pass count and output size
    /// fixed by the padded bound (§2.3; only used when padding is on).
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

/// What the planner's preliminary scan learns (paper §5: "(1) the number
/// of rows satisfying the predicate and (2) whether those rows are
/// adjacent in the input table").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectStats {
    /// Number of matching rows — becomes |R|, already-leaked output size.
    pub matches: u64,
    /// Whether the matches form one contiguous run of the table.
    pub continuous: bool,
}

/// Planner tunables.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Whether the Continuous algorithm may be chosen (§4.1 allows
    /// disabling it to remove the continuity leak; the paper disables it
    /// when comparing against Opaque).
    pub enable_continuous: bool,
    /// Fraction of the table above which Large is used ("contains almost
    /// every row", §4.1).
    pub large_threshold: f64,
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
            large_threshold: 0.9,
            force_select: None,
            force_join: None,
            profile: CostProfile::host(),
        }
    }
}

/// The planner's preliminary scan: reads every row once, updating
/// statistics inside the enclave. Fixed access pattern; "often for free"
/// because operators need |R| before allocating output anyway (§5).
pub fn scan_stats<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    pred: &Predicate,
) -> Result<SelectStats, DbError> {
    let schema = input.schema().clone();
    let mut matches = 0u64;
    let mut runs = 0u32;
    let mut prev = false;
    input.for_each_row(host, |_, bytes| {
        let hit = Schema::row_used(bytes) && pred.eval(&schema, bytes);
        if hit {
            matches += 1;
            if !prev {
                runs += 1;
            }
        }
        prev = hit;
    })?;
    Ok(SelectStats { matches, continuous: runs <= 1 && matches > 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::types::{Column, DataType, Value};
    use oblidb_crypto::aead::AeadKey;
    use oblidb_enclave::Host;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int)])
    }

    fn build(n: i64) -> (Host, FlatTable) {
        let s = schema();
        let mut host = Host::new();
        let rows: Vec<Vec<u8>> = (0..n).map(|i| s.encode_row(&[Value::Int(i)]).unwrap()).collect();
        let t = FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), s, &rows, n as u64)
            .unwrap();
        (host, t)
    }

    #[test]
    fn stats_count_and_continuity() {
        let (mut host, mut t) = build(20);
        let p = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(5)).unwrap();
        let s = scan_stats(&mut host, &mut t, &p).unwrap();
        assert_eq!(s, SelectStats { matches: 5, continuous: true });

        let a = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(3)).unwrap();
        let b = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(15)).unwrap();
        let split = Predicate::Or(Box::new(a), Box::new(b));
        let s = scan_stats(&mut host, &mut t, &split).unwrap();
        assert_eq!(s, SelectStats { matches: 8, continuous: false });

        let none = Predicate::cmp(t.schema(), "id", CmpOp::Gt, Value::Int(99)).unwrap();
        let s = scan_stats(&mut host, &mut t, &none).unwrap();
        assert_eq!(s, SelectStats { matches: 0, continuous: false });
    }

    #[test]
    fn stats_scan_has_fixed_pattern() {
        let (mut host, mut t) = build(10);
        let p1 = Predicate::True;
        let p2 = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(3)).unwrap();
        host.start_trace();
        scan_stats(&mut host, &mut t, &p1).unwrap();
        let a = host.take_trace();
        host.start_trace();
        scan_stats(&mut host, &mut t, &p2).unwrap();
        let b = host.take_trace();
        assert_eq!(a, b);
    }
}
