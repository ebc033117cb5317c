//! A conventional in-memory engine with **no security guarantees** — the
//! stand-in for Spark SQL in Figure 7.
//!
//! Data lives in plain `Vec`s, predicates short-circuit, joins use an
//! ordinary hash map: every data-dependent branch the oblivious engine
//! must avoid, this one takes.

use oblidb_core::exec::{AggFunc, AggState};
use oblidb_core::predicate::Predicate;
use oblidb_core::types::{Row, Schema, Value};
use std::collections::HashMap;

/// A plaintext table.
pub struct PlainTable {
    /// Schema (shared with the oblivious engines for fair comparisons).
    pub schema: Schema,
    /// Decoded rows.
    pub rows: Vec<Row>,
}

impl PlainTable {
    /// Builds a table from rows.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        PlainTable { schema, rows }
    }

    fn encode(&self, row: &Row) -> Vec<u8> {
        self.schema.encode_row(row).expect("row matches schema")
    }

    /// Filter.
    pub fn select(&self, pred: &Predicate) -> Vec<Row> {
        self.rows.iter().filter(|r| pred.eval(&self.schema, &self.encode(r))).cloned().collect()
    }

    /// Aggregate with optional predicate.
    pub fn aggregate(&self, func: AggFunc, col: Option<usize>, pred: &Predicate) -> Value {
        let mut state = AggState::new(func);
        for r in &self.rows {
            if pred.eval(&self.schema, &self.encode(r)) {
                match col {
                    Some(c) => state.add(&r[c]),
                    None => state.add(&Value::Int(1)),
                }
            }
        }
        state.finish()
    }

    /// Grouped aggregation; output sorted by group for determinism.
    pub fn group_aggregate(
        &self,
        group_col: usize,
        func: AggFunc,
        agg_col: Option<usize>,
        pred: &Predicate,
    ) -> Vec<(Value, Value)> {
        let mut groups: HashMap<Vec<u8>, AggState> = HashMap::new();
        let mut reps: HashMap<Vec<u8>, Value> = HashMap::new();
        for r in &self.rows {
            let bytes = self.encode(r);
            if pred.eval(&self.schema, &bytes) {
                let off = self.schema.col_offset(group_col);
                let w = self.schema.columns[group_col].dtype.width();
                let key = bytes[off..off + w].to_vec();
                reps.entry(key.clone()).or_insert_with(|| r[group_col].clone());
                let state = groups.entry(key).or_insert_with(|| AggState::new(func));
                match agg_col {
                    Some(c) => state.add(&r[c]),
                    None => state.add(&Value::Int(1)),
                }
            }
        }
        let mut out: Vec<(Vec<u8>, (Value, Value))> = groups
            .into_iter()
            .map(|(k, s)| {
                let rep = reps[&k].clone();
                (k, (rep, s.finish()))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Hash join (equi-join on `c1 = c2`).
    pub fn join(&self, c1: usize, other: &PlainTable, c2: usize) -> Vec<Row> {
        let mut build: HashMap<Vec<u8>, Vec<&Row>> = HashMap::new();
        for r in &self.rows {
            let bytes = self.encode(r);
            let off = self.schema.col_offset(c1);
            let w = self.schema.columns[c1].dtype.width();
            build.entry(bytes[off..off + w].to_vec()).or_default().push(r);
        }
        let mut out = Vec::new();
        for r2 in &other.rows {
            let bytes = other.encode(r2);
            let off = other.schema.col_offset(c2);
            let w = other.schema.columns[c2].dtype.width();
            if let Some(matches) = build.get(&bytes[off..off + w]) {
                for r1 in matches {
                    let mut joined: Row = (*r1).clone();
                    joined.extend(r2.iter().cloned());
                    out.push(joined);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::predicate::CmpOp;
    use oblidb_core::types::{Column, DataType};

    fn table() -> PlainTable {
        let schema =
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]);
        let rows = (0..10i64).map(|i| vec![Value::Int(i), Value::Int(i % 3)]).collect();
        PlainTable::new(schema, rows)
    }

    #[test]
    fn select_filters() {
        let t = table();
        let p = Predicate::cmp(&t.schema, "id", CmpOp::Lt, Value::Int(4)).unwrap();
        assert_eq!(t.select(&p).len(), 4);
    }

    #[test]
    fn aggregate_and_group() {
        let t = table();
        assert_eq!(t.aggregate(AggFunc::Sum, Some(0), &Predicate::True), Value::Int(45));
        let groups = t.group_aggregate(1, AggFunc::Count, None, &Predicate::True);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (Value::Int(0), Value::Int(4)));
    }

    #[test]
    fn join_matches_nested_loop() {
        let t1 = table();
        let t2 = table();
        // join on v: v-groups have sizes 4, 3, 3.
        let out = t1.join(1, &t2, 1);
        assert_eq!(out.len(), 4 * 4 + 3 * 3 + 3 * 3);
    }
}
