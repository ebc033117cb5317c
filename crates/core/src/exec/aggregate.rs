//! Oblivious aggregation (paper §4.2).
//!
//! Plain aggregates are one sequential pass with the accumulator inside
//! the enclave — nothing leaks beyond |T|. Grouped aggregation keeps a
//! hash table of per-group accumulators in oblivious memory. The fused
//! select+project+aggregate operator applies the WHERE predicate during
//! the same pass, avoiding both the cost and the size-leak of an
//! intermediate filtered table. Both are root operators: their rows come
//! straight from the accumulators, so nothing they produce is sealed to
//! the host, and the trace is the input scan alone.

use std::hash::BuildHasher;

use oblidb_enclave::{EnclaveMemory, OmBudget};

use crate::error::DbError;
use crate::predicate::Predicate;
use crate::table::FlatTable;
use crate::types::{Column, DataType, Row, Schema, Value};

/// Aggregate functions (paper §3: COUNT, SUM, MIN, MAX, AVG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) or COUNT(col).
    Count,
    /// SUM(col).
    Sum,
    /// MIN(col).
    Min,
    /// MAX(col).
    Max,
    /// AVG(col).
    Avg,
}

/// Incremental accumulator for one aggregate function. It keeps only what
/// its function reads: the count, the running sums (SUM, AVG) or the
/// extreme value (MIN, MAX).
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    count: u64,
    sum_i: i64,
    sum_f: f64,
    any_float: bool,
    extreme: Option<Value>,
}

impl AggState {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        AggState { func, count: 0, sum_i: 0, sum_f: 0.0, any_float: false, extreme: None }
    }

    /// Folds one value in.
    pub fn add(&mut self, v: &Value) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.sum_i = self.sum_i.wrapping_add(*i);
                    self.sum_f += *i as f64;
                }
                Value::Float(f) => {
                    self.any_float = true;
                    self.sum_f += *f;
                }
                Value::Text(_) => {}
            },
            AggFunc::Min => {
                if self.extreme.as_ref().is_none_or(|m| v.cmp_total(m).is_lt()) {
                    self.extreme = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.extreme.as_ref().is_none_or(|m| v.cmp_total(m).is_gt()) {
                    self.extreme = Some(v.clone());
                }
            }
        }
    }

    /// Final value. Empty inputs give COUNT 0, SUM 0, AVG 0.0, and MIN/MAX
    /// Int(0) (SQL NULL is out of scope).
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.any_float {
                    Value::Float(self.sum_f)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Int(0)),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Float(0.0)
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
        }
    }

    /// The output type `func` produces given an input column type.
    pub fn output_type(func: AggFunc, input: DataType) -> DataType {
        match func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => match input {
                DataType::Float => DataType::Float,
                _ => DataType::Int,
            },
            AggFunc::Min | AggFunc::Max => input,
        }
    }
}

/// Every aggregate of one statement folded together: one accumulator per
/// resolved `(func, col)` item, and the filter fused into the fold. Rows
/// arrive from a table scan ([`aggregate`]) or straight from a join loop
/// through [`super::RowSink::Fold`], so no intermediate table is needed
/// either way.
pub struct AggFold<'p> {
    schema: Schema,
    items: Vec<(Option<usize>, AggState)>,
    pred: &'p Predicate,
}

impl<'p> AggFold<'p> {
    /// Empty accumulators for `items` over rows of `schema`; `col = None`
    /// means COUNT(*)-style counting.
    pub fn new(schema: Schema, items: &[(AggFunc, Option<usize>)], pred: &'p Predicate) -> Self {
        let items = items.iter().map(|&(func, col)| (col, AggState::new(func))).collect();
        AggFold { schema, items, pred }
    }

    /// Folds in each encoded row of `rows` that is used and matches the
    /// filter.
    pub fn add_rows(&mut self, rows: &[u8]) {
        for bytes in rows.chunks_exact(self.schema.row_len()) {
            if !Schema::row_used(bytes) || !self.pred.eval(&self.schema, bytes) {
                continue;
            }
            for (col, state) in &mut self.items {
                match col {
                    Some(c) => state.add(&self.schema.decode_col(bytes, *c)),
                    None => state.add(&Value::Int(1)),
                }
            }
        }
    }

    /// One final value per item, in item order.
    pub fn finish(&self) -> Vec<Value> {
        self.items.iter().map(|(_, s)| s.finish()).collect()
    }
}

/// Fused select+aggregate (paper §4.2): one pass over T, folding matching
/// rows into every item's accumulator at once. Leaks only |T| — the
/// filtered intermediate size never materializes.
pub fn aggregate<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    items: &[(AggFunc, Option<usize>)],
    pred: &Predicate,
) -> Result<Vec<Value>, DbError> {
    let mut fold = AggFold::new(input.schema().clone(), items, pred);
    input.for_each_row(host, |_, bytes| fold.add_rows(bytes))?;
    Ok(fold.finish())
}

/// The schema of [`group_aggregate`]'s rows over `schema`: the group
/// column, then `agg`.
pub fn group_output_schema(
    schema: &Schema,
    group_col: usize,
    func: AggFunc,
    agg_col: Option<usize>,
) -> Schema {
    let agg_input = agg_col.map_or(DataType::Int, |c| schema.columns[c].dtype);
    Schema::new(vec![
        Column::new(schema.columns[group_col].name.clone(), schema.columns[group_col].dtype),
        Column::new("agg", AggState::output_type(func, agg_input)),
    ])
}

/// Marks a free slot of the group index.
const EMPTY: u32 = u32::MAX;

/// The per-group accumulators in oblivious memory: each group's encoded key
/// is copied once, when the group first appears, into one fixed-width
/// arena; an open-addressed index of group numbers, never more than half
/// full, is probed by the row's key slice.
struct GroupTable {
    width: usize,
    limit: usize,
    keys: Vec<u8>,
    states: Vec<AggState>,
    slots: Vec<u32>,
    hasher: std::hash::RandomState,
}

impl GroupTable {
    /// Room for `limit` groups of `width`-byte keys, allocated up front.
    fn with_limit(width: usize, limit: usize) -> Self {
        GroupTable {
            width,
            limit,
            keys: Vec::with_capacity(limit * width),
            states: Vec::with_capacity(limit),
            slots: vec![EMPTY; (2 * limit).next_power_of_two()],
            hasher: std::hash::RandomState::new(),
        }
    }

    fn key(&self, group: usize) -> &[u8] {
        &self.keys[group * self.width..(group + 1) * self.width]
    }

    /// The accumulator of `key`'s group, opened for `func` if the group is
    /// new; `None` when a new group would exceed the limit.
    fn state(&mut self, key: &[u8], func: AggFunc) -> Option<&mut AggState> {
        let mask = self.slots.len() - 1;
        let mut at = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[at] {
                EMPTY => break,
                g if self.key(g as usize) == key => return Some(&mut self.states[g as usize]),
                _ => at = (at + 1) & mask,
            }
        }
        if self.states.len() == self.limit {
            return None;
        }
        self.slots[at] = self.states.len() as u32;
        self.keys.extend_from_slice(key);
        self.states.push(AggState::new(func));
        self.states.last_mut()
    }
}

/// Grouped aggregation (paper §4.2): one pass with a per-group accumulator
/// table in oblivious memory. Returns one row per group, `(group value,
/// aggregate)` as [`group_output_schema`] types them, in ascending order
/// of the group's encoded key. Nothing is written to untrusted memory, so
/// the trace is the input scan alone: the group count does not show in
/// it.
pub fn group_aggregate<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    group_col: usize,
    func: AggFunc,
    agg_col: Option<usize>,
    pred: &Predicate,
) -> Result<Vec<Row>, DbError> {
    let schema = input.schema().clone();
    let width = schema.columns[group_col].dtype.width();
    // What one group costs in the enclave: its key in the arena, its
    // accumulator (plus a text extreme's heap copy), up to four index
    // slots, and one entry of the output sort. The whole remaining budget
    // is usable — "each additional group requires very little space"
    // (§4.2).
    let extreme = match (func, agg_col.map(|c| schema.columns[c].dtype)) {
        (AggFunc::Min | AggFunc::Max, Some(DataType::Text(n))) => n,
        _ => 0,
    };
    let index = std::mem::size_of::<u32>();
    let per_group = width + std::mem::size_of::<AggState>() + extreme + 5 * index;
    let alloc = om.alloc_up_to(om.available());
    let group_limit = (alloc.bytes() / per_group).clamp(1, EMPTY as usize / 2);

    // At most one group per input row: a small table never reserves the
    // whole budget.
    let mut groups = GroupTable::with_limit(width, group_limit.min(input.capacity() as usize));
    let off = schema.col_offset(group_col);
    let mut overflow = false;
    input.for_each_row(host, |_, bytes| {
        if overflow || !Schema::row_used(bytes) || !pred.eval(&schema, bytes) {
            return;
        }
        let Some(state) = groups.state(&bytes[off..off + width], func) else {
            overflow = true;
            return;
        };
        match agg_col {
            Some(c) => state.add(&schema.decode_col(bytes, c)),
            None => state.add(&Value::Int(1)),
        }
    })?;
    if overflow {
        return Err(DbError::TooManyGroups { limit: group_limit });
    }

    // Sort on each key's first eight bytes as one big-endian word, which
    // orders as the bytes do; only equal words compare whole keys.
    let word = |key: &[u8]| u64::from_be_bytes(std::array::from_fn(|i| *key.get(i).unwrap_or(&0)));
    let key = |g: u32| groups.key(g as usize);
    let mut order: Vec<(u64, u32)> =
        (0..groups.states.len() as u32).map(|g| (word(key(g)), g)).collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a.1).cmp(key(b.1))));
    // Decode each group value through a scratch row so Text padding rules
    // match the input encoding.
    let mut scratch = schema.dummy_row();
    Ok(order
        .into_iter()
        .map(|(_, g)| {
            let g = g as usize;
            scratch[off..off + width].copy_from_slice(groups.key(g));
            vec![schema.decode_col(&scratch, group_col), groups.states[g].finish()]
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use oblidb_crypto::aead::AeadKey;
    use oblidb_enclave::Host;
    use oblidb_enclave::DEFAULT_OM_BYTES;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("grp", DataType::Int),
            Column::new("v", DataType::Int),
            Column::new("f", DataType::Float),
        ])
    }

    fn build(rows: &[(i64, i64, f64)]) -> (Host, FlatTable) {
        let s = schema();
        let mut host = Host::new();
        let encoded: Vec<Vec<u8>> = rows
            .iter()
            .map(|(g, v, f)| {
                s.encode_row(&[Value::Int(*g), Value::Int(*v), Value::Float(*f)]).unwrap()
            })
            .collect();
        let t = FlatTable::from_encoded_rows(
            &mut host,
            AeadKey([1u8; 32]),
            s,
            &encoded,
            rows.len() as u64,
        )
        .unwrap();
        (host, t)
    }

    #[test]
    fn plain_aggregates() {
        let (mut host, mut t) = build(&[(1, 10, 1.0), (1, 20, 2.0), (2, 30, 3.0), (2, 40, 4.5)]);
        let items = [
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(1)),
            (AggFunc::Min, Some(1)),
            (AggFunc::Max, Some(2)),
            (AggFunc::Avg, Some(1)),
        ];
        let before = host.stats();
        let got = aggregate(&mut host, &mut t, &items, &Predicate::True).unwrap();
        assert_eq!(
            got,
            [Value::Int(4), Value::Int(100), Value::Int(10), Value::Float(4.5), Value::Float(25.0)]
        );
        // Every item folds in the same pass: one read per block.
        assert_eq!((host.stats() - before).reads, t.capacity());
    }

    #[test]
    fn fused_predicate_filters() {
        let (mut host, mut t) = build(&[(1, 10, 0.0), (1, 20, 0.0), (2, 30, 0.0), (2, 40, 0.0)]);
        let pred = Predicate::cmp(t.schema(), "grp", CmpOp::Eq, Value::Int(2)).unwrap();
        let items = [(AggFunc::Sum, Some(1)), (AggFunc::Count, None)];
        assert_eq!(
            aggregate(&mut host, &mut t, &items, &pred).unwrap(),
            [Value::Int(70), Value::Int(2)]
        );
    }

    #[test]
    fn empty_aggregates() {
        let (mut host, mut t) = build(&[(1, 1, 1.0)]);
        let pred = Predicate::cmp(t.schema(), "v", CmpOp::Gt, Value::Int(100)).unwrap();
        let items = [(AggFunc::Count, None), (AggFunc::Avg, Some(1))];
        assert_eq!(
            aggregate(&mut host, &mut t, &items, &pred).unwrap(),
            [Value::Int(0), Value::Float(0.0)]
        );
    }

    #[test]
    fn group_by_sums() {
        let (mut host, mut t) =
            build(&[(1, 10, 0.0), (2, 5, 0.0), (1, 20, 0.0), (3, 7, 0.0), (2, 5, 0.0)]);
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let rows =
            group_aggregate(&mut host, &om, &mut t, 0, AggFunc::Sum, Some(1), &Predicate::True)
                .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(30)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(10)]);
        assert_eq!(rows[2], vec![Value::Int(3), Value::Int(7)]);
    }

    #[test]
    fn group_by_with_predicate_and_avg() {
        let (mut host, mut t) = build(&[(1, 10, 0.0), (1, 30, 0.0), (2, 100, 0.0), (1, -100, 0.0)]);
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let pred = Predicate::cmp(t.schema(), "v", CmpOp::Gt, Value::Int(0)).unwrap();
        let rows =
            group_aggregate(&mut host, &om, &mut t, 0, AggFunc::Avg, Some(1), &pred).unwrap();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(20.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(100.0)]);
    }

    #[test]
    fn group_limit_respects_om() {
        let rows: Vec<(i64, i64, f64)> = (0..50).map(|i| (i, 1, 0.0)).collect();
        let (mut host, mut t) = build(&rows);
        // Budget for only a handful of groups.
        let om = OmBudget::new(200);
        let result =
            group_aggregate(&mut host, &om, &mut t, 0, AggFunc::Count, None, &Predicate::True);
        assert!(matches!(result.err().unwrap(), DbError::TooManyGroups { .. }));
    }

    #[test]
    fn aggregate_trace_is_data_independent() {
        let (mut host, mut t) = build(&[(1, 1, 0.0), (2, 2, 0.0), (3, 3, 0.0)]);
        let p1 = Predicate::cmp(t.schema(), "v", CmpOp::Gt, Value::Int(100)).unwrap();
        host.start_trace();
        aggregate(&mut host, &mut t, &[(AggFunc::Sum, Some(1))], &p1).unwrap();
        let a = host.take_trace();
        host.start_trace();
        aggregate(&mut host, &mut t, &[(AggFunc::Sum, Some(1))], &Predicate::True).unwrap();
        let b = host.take_trace();
        assert_eq!(a, b, "aggregate access pattern must not depend on matches");
    }

    #[test]
    fn group_count_without_agg_col() {
        let (mut host, mut t) = build(&[(5, 0, 0.0), (5, 0, 0.0), (9, 0, 0.0)]);
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let rows =
            group_aggregate(&mut host, &om, &mut t, 0, AggFunc::Count, None, &Predicate::True)
                .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(5), Value::Int(2)], vec![Value::Int(9), Value::Int(1)],]
        );
    }
}
