//! A parameterized synthetic table: a sequential key column, a shuffled
//! payload column, and a width filler so row sizes match realistic
//! records.

use crate::rng::StdRng;
use oblidb_core::types::{Column, DataType, Schema, Value};

/// Schema: `id INT` (sequential, 0..n), `val INT` (uniform), `pad CHAR(w)`.
pub fn schema(pad_width: usize) -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("val", DataType::Int),
        Column::new("pad", DataType::Text(pad_width)),
    ])
}

/// Generates `n` rows. `id` is sequential so range predicates control
/// selectivity and continuity exactly; `val` is uniform in `[0, n)` so
/// equality predicates hit ≈ 1 row.
pub fn table(n: usize, pad_width: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7);
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.random_range(0..n.max(1) as u64) as i64),
                Value::Text("x".repeat(pad_width.min(4))),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential() {
        let rows = table(100, 8, 1);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn rows_fit_schema() {
        let s = schema(8);
        for r in table(20, 8, 2) {
            s.encode_row(&r).unwrap();
        }
    }
}
