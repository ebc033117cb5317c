//! The CFPB consumer-complaints table used by the padding-mode experiment
//! (paper §7.2, "Impact of padding mode"): 107 000 rows, padded to 200 000.

use crate::rng::StdRng;
use oblidb_core::types::{Column, DataType, Schema, Value};

/// Paper row count.
pub const CFPB_ROWS: usize = 107_000;
/// Paper padding bound.
pub const CFPB_PAD: u64 = 200_000;

/// Complaint-table schema (compact synthetic rendition).
pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("complaintId", DataType::Int),
        Column::new("product", DataType::Int),
        Column::new("state", DataType::Text(2)),
        Column::new("year", DataType::Int),
        Column::new("disputed", DataType::Int),
    ])
}

const STATES: [&str; 12] = ["CA", "TX", "NY", "FL", "IL", "PA", "OH", "GA", "NC", "MI", "WA", "MA"];

/// Generates `n` complaint rows.
pub fn complaints(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCF9B);
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.random_range(0..18)),
                Value::Text(STATES[rng.random_range(0..STATES.len() as u64) as usize].into()),
                Value::Int(rng.random_range(2012..2019)),
                Value::Int(rng.random_range(0..2)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_fit_schema() {
        let s = schema();
        for r in complaints(100, 1) {
            s.encode_row(&r).unwrap();
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(complaints(50, 3), complaints(50, 3));
    }
}
