//! Oblivious aggregation (paper §4.2).
//!
//! Plain aggregates are one sequential pass with the accumulator inside
//! the enclave — nothing leaks beyond |T|. Grouped aggregation keeps a
//! hash table of per-group accumulators in oblivious memory. The fused
//! select+project+aggregate operator applies the WHERE predicate during
//! the same pass, avoiding both the cost and the size-leak of an
//! intermediate filtered table.

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, OmBudget};

use crate::error::DbError;
use crate::predicate::Predicate;
use crate::table::FlatTable;
use crate::types::{Column, DataType, Schema, Value};

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

/// Incremental accumulator for one aggregate.
#[derive(Debug, Clone)]
pub struct AggState {
    count: u64,
    sum_i: i64,
    sum_f: f64,
    any_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Fresh accumulator.
    pub fn new() -> Self {
        AggState { count: 0, sum_i: 0, sum_f: 0.0, any_float: false, min: None, max: None }
    }

    /// Folds one value in.
    pub fn add(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum_i = self.sum_i.wrapping_add(*i);
                self.sum_f += *i as f64;
            }
            Value::Float(f) => {
                self.any_float = true;
                self.sum_f += *f;
            }
            Value::Text(_) => {}
        }
        let better_min = self.min.as_ref().is_none_or(|m| v.cmp_total(m).is_lt());
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self.max.as_ref().is_none_or(|m| v.cmp_total(m).is_gt());
        if better_max {
            self.max = Some(v.clone());
        }
    }

    /// Final value for `func`. Empty inputs give COUNT 0, SUM 0, AVG 0.0,
    /// and MIN/MAX Int(0) (SQL NULL is out of scope).
    pub fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.any_float {
                    Value::Float(self.sum_f)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Int(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Int(0)),
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

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

/// Every aggregate of one statement folded together: the resolved
/// `(func, col)` items, one accumulator each, and the filter fused into
/// the fold. Rows arrive one at a time from a table scan ([`aggregate`])
/// or straight from a join loop (`exec::join`'s fold sink), so no
/// intermediate table is needed either way.
pub struct AggFold<'p> {
    schema: Schema,
    items: Vec<(AggFunc, Option<usize>)>,
    states: Vec<AggState>,
    pred: &'p Predicate,
}

impl<'p> AggFold<'p> {
    /// Empty accumulators for `items` over rows of `schema`; `col = None`
    /// means COUNT(*)-style counting.
    pub fn new(schema: Schema, items: &[(AggFunc, Option<usize>)], pred: &'p Predicate) -> Self {
        let states = vec![AggState::new(); items.len()];
        AggFold { schema, items: items.to_vec(), states, pred }
    }

    /// Folds one encoded row in, if it is used and matches the filter.
    pub fn add_row(&mut self, bytes: &[u8]) {
        if !Schema::row_used(bytes) || !self.pred.eval(&self.schema, bytes) {
            return;
        }
        for ((_, col), state) in self.items.iter().zip(&mut self.states) {
            match col {
                Some(c) => state.add(&self.schema.decode_col(bytes, *c)),
                None => state.add(&Value::Int(1)),
            }
        }
    }

    /// One final value per item, in item order.
    pub fn finish(&self) -> Vec<Value> {
        self.items.iter().zip(&self.states).map(|((func, _), s)| s.finish(*func)).collect()
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
    input.for_each_row(host, |_, bytes| fold.add_row(bytes))?;
    Ok(fold.finish())
}

/// Grouped aggregation (paper §4.2): one pass with a per-group accumulator
/// table in oblivious memory (hash-bucketed by the group value). Output is
/// one row per group, sorted by group value for determinism, in a flat
/// table of exactly `#groups` rows (#groups is result-size leakage).
pub fn group_aggregate<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    group_col: usize,
    func: AggFunc,
    agg_col: Option<usize>,
    pred: &Predicate,
    out_key: AeadKey,
) -> Result<FlatTable, DbError> {
    group_aggregate_padded(host, om, input, group_col, func, agg_col, pred, out_key, None)
}

/// [`group_aggregate`] with an optional padded output bound: in padding
/// mode the output structure is allocated at `pad_groups` rows whatever
/// the true group count (§7.2 pads "to the maximum supported number of
/// groups"), hiding it.
#[allow(clippy::too_many_arguments)]
pub fn group_aggregate_padded<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    group_col: usize,
    func: AggFunc,
    agg_col: Option<usize>,
    pred: &Predicate,
    out_key: AeadKey,
    pad_groups: Option<u64>,
) -> Result<FlatTable, DbError> {
    use std::collections::HashMap;

    let schema = input.schema().clone();
    let group_width = schema.columns[group_col].dtype.width();
    // Conservative per-group charge: the encoded key plus the accumulator
    // (the paper's implementation claims 4 B/group; ours is honest about
    // its in-enclave footprint). The whole remaining budget is usable —
    // "each additional group requires very little space" (§4.2).
    let per_group = group_width + std::mem::size_of::<AggState>();
    let alloc = om.alloc_up_to(om.available());
    let group_limit = (alloc.bytes() / per_group).max(1);

    let mut groups: HashMap<Vec<u8>, AggState> = HashMap::new();
    let off = schema.col_offset(group_col);
    let mut overflow = false;
    input.for_each_row(host, |_, bytes| {
        if overflow || !Schema::row_used(bytes) || !pred.eval(&schema, bytes) {
            return;
        }
        let key = bytes[off..off + group_width].to_vec();
        if !groups.contains_key(&key) && groups.len() >= group_limit {
            overflow = true;
            return;
        }
        let state = groups.entry(key).or_default();
        match agg_col {
            Some(c) => state.add(&schema.decode_col(bytes, c)),
            None => state.add(&Value::Int(1)),
        }
    })?;
    if overflow {
        return Err(DbError::TooManyGroups { limit: group_limit });
    }

    // Deterministic output order: sort by encoded group key.
    let mut entries: Vec<(Vec<u8>, AggState)> = groups.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let group_dtype = schema.columns[group_col].dtype;
    let agg_input_dtype = agg_col.map_or(DataType::Int, |c| schema.columns[c].dtype);
    let out_schema = Schema::new(vec![
        Column::new(schema.columns[group_col].name.clone(), group_dtype),
        Column::new("agg", AggState::output_type(func, agg_input_dtype)),
    ]);

    let n = entries.len() as u64;
    let capacity = pad_groups.unwrap_or(n).max(n).max(1);
    let mut out = FlatTable::create(host, out_key, out_schema.clone(), capacity)?;
    // Decode the group value through a scratch row so Text padding rules
    // match the input encoding. Output rows (groups, then the dummy pad up
    // to the public capacity) stream out in contiguous batched runs.
    let mut scratch = schema.dummy_row();
    let dummy = out_schema.dummy_row();
    let out_len = out_schema.row_len();
    let chunk = out.io_chunk_rows();
    let mut buf: Vec<u8> = Vec::with_capacity(chunk * out_len);
    let mut flushed = 0u64;
    for (i, (key_bytes, state)) in entries.iter().enumerate() {
        scratch[off..off + group_width].copy_from_slice(key_bytes);
        let group_value = schema.decode_col(&scratch, group_col);
        buf.extend_from_slice(&out_schema.encode_row(&[group_value, state.finish(func)])?);
        if buf.len() >= chunk * out_len {
            out.write_rows(host, flushed, &buf)?;
            flushed = i as u64 + 1;
            buf.clear();
        }
    }
    for i in n..capacity {
        buf.extend_from_slice(&dummy);
        if buf.len() >= chunk * out_len {
            out.write_rows(host, flushed, &buf)?;
            flushed = i + 1;
            buf.clear();
        }
    }
    out.write_rows(host, flushed, &buf)?;
    out.set_num_rows(n);
    out.set_insert_cursor(capacity);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
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
        let mut out = group_aggregate(
            &mut host,
            &om,
            &mut t,
            0,
            AggFunc::Sum,
            Some(1),
            &Predicate::True,
            AeadKey([2u8; 32]),
        )
        .unwrap();
        let rows = out.collect_rows(&mut host).unwrap();
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
        let mut out = group_aggregate(
            &mut host,
            &om,
            &mut t,
            0,
            AggFunc::Avg,
            Some(1),
            &pred,
            AeadKey([2u8; 32]),
        )
        .unwrap();
        let rows = out.collect_rows(&mut host).unwrap();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(20.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(100.0)]);
    }

    #[test]
    fn group_limit_respects_om() {
        let rows: Vec<(i64, i64, f64)> = (0..50).map(|i| (i, 1, 0.0)).collect();
        let (mut host, mut t) = build(&rows);
        // Budget for only a handful of groups.
        let om = OmBudget::new(200);
        let result = group_aggregate(
            &mut host,
            &om,
            &mut t,
            0,
            AggFunc::Count,
            None,
            &Predicate::True,
            AeadKey([2u8; 32]),
        );
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
        let mut out = group_aggregate(
            &mut host,
            &om,
            &mut t,
            0,
            AggFunc::Count,
            None,
            &Predicate::True,
            AeadKey([2u8; 32]),
        )
        .unwrap();
        let rows = out.collect_rows(&mut host).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int(5), Value::Int(2)], vec![Value::Int(9), Value::Int(1)],]
        );
    }
}
