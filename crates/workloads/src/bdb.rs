//! The Big Data Benchmark tables and queries (paper Figure 6, §7.1).
//!
//! The original AMPLab data is not redistributable offline, so this module
//! generates deterministic synthetic tables with the same schemas, row
//! counts, and — what the evaluation actually depends on — the same query
//! selectivities:
//!
//! * RANKINGS (360 000 rows): `pageURL, pageRank, avgDuration`;
//!   Q1's `pageRank > 1000` matches ≈ 0.25 % of rows (the BDB "tiny"
//!   dataset's selectivity at X = 1000 — small enough that an index wins,
//!   which is exactly what Figure 7's 19× speedup shows; Figure 10 puts
//!   the flat/index crossover near 2 %).
//! * USERVISITS (350 000 rows): `sourceIP, ipPrefix8, destURL, visitDate,
//!   adRevenue`; Q3's date cutoff (1980-04-01) keeps ≈ ⅓ of rows, and every
//!   `destURL` references a RANKINGS `pageURL` (foreign-key join).
//!
//! `ipPrefix8` pre-computes `SUBSTR(sourceIP, 1, 8)` — Q2's group key —
//! since the engine's SQL subset has no string functions.

use crate::rng::StdRng;
use oblidb_core::types::{Column, DataType, Schema, Value};

/// Paper row count for RANKINGS.
pub const RANKINGS_ROWS: usize = 360_000;
/// Paper row count for USERVISITS.
pub const USERVISITS_ROWS: usize = 350_000;

/// Q1's selection parameter ("1000, 8, and 1980-04-01 are the parameters").
pub const Q1_PAGERANK_CUTOFF: i64 = 1000;
/// Q3's date parameter as days since 1970-01-01 (1980-04-01).
pub const Q3_DATE_CUTOFF: i64 = 3743;

/// RANKINGS schema.
pub fn rankings_schema() -> Schema {
    Schema::new(vec![
        Column::new("pageURL", DataType::Text(32)),
        Column::new("pageRank", DataType::Int),
        Column::new("avgDuration", DataType::Int),
    ])
}

/// USERVISITS schema.
pub fn uservisits_schema() -> Schema {
    Schema::new(vec![
        Column::new("sourceIP", DataType::Text(16)),
        Column::new("ipPrefix8", DataType::Text(8)),
        Column::new("destURL", DataType::Text(32)),
        Column::new("visitDate", DataType::Int),
        Column::new("adRevenue", DataType::Float),
    ])
}

fn url(i: usize) -> String {
    format!("url{i:027}")
}

/// Generates `n` RANKINGS rows. ≈ 0.25 % of ranks exceed
/// [`Q1_PAGERANK_CUTOFF`], matching the selectivity Q1 (X = 1000) has on
/// the BDB "tiny" dataset the paper evaluates.
pub fn rankings(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            // 0.25% of pages get a high rank (> 1000), the rest low.
            let rank = if rng.random_range(0..10_000) < 25 {
                rng.random_range(1001..11000)
            } else {
                rng.random_range(1..=1000)
            };
            vec![Value::Text(url(i)), Value::Int(rank), Value::Int(rng.random_range(1..60))]
        })
        .collect()
}

/// Generates `n` USERVISITS rows referencing `rankings_n` pages.
pub fn uservisits(n: usize, rankings_n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBDB);
    (0..n)
        .map(|_| {
            let ip: String = format!(
                "{}.{}.{}.{}",
                rng.random_range(10..250),
                rng.random_range(10..250),
                rng.random_range(10..250),
                rng.random_range(10..250)
            );
            let prefix: String = ip.chars().take(8).collect();
            let dest = url(rng.random_range(0..rankings_n as u64) as usize);
            // Dates uniform over 1970..2000 → ~34% before 1980-04-01.
            let date = rng.random_range(0..10_957);
            let revenue = rng.random_range(0.0..1000.0f64);
            vec![
                Value::Text(ip),
                Value::Text(prefix),
                Value::Text(dest),
                Value::Int(date),
                Value::Float(revenue),
            ]
        })
        .collect()
}

/// Query 1 of the benchmark (selection):
/// `SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000`.
pub fn q1_sql() -> String {
    format!("SELECT pageURL, pageRank FROM rankings WHERE pageRank > {Q1_PAGERANK_CUTOFF}")
}

/// Query 2 (grouped aggregation):
/// `SELECT SUBSTR(sourceIP,1,8), SUM(adRevenue) FROM uservisits GROUP BY 1`.
pub fn q2_sql() -> String {
    "SELECT ipPrefix8, SUM(adRevenue) FROM uservisits GROUP BY ipPrefix8".to_string()
}

/// Query 3 (join + filter + aggregate): revenue-weighted page rank over
/// visits before the date cutoff.
pub fn q3_sql() -> String {
    format!(
        "SELECT AVG(pageRank), SUM(adRevenue) FROM rankings \
         JOIN uservisits ON rankings.pageURL = uservisits.destURL \
         WHERE visitDate < {Q3_DATE_CUTOFF}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        assert_eq!(rankings(100, 1), rankings(100, 1));
        assert_ne!(rankings(100, 1), rankings(100, 2));
    }

    #[test]
    fn q1_selectivity_close_to_bdb() {
        let rows = rankings(100_000, 7);
        let hits = rows.iter().filter(|r| r[1].as_int().unwrap() > Q1_PAGERANK_CUTOFF).count();
        let frac = hits as f64 / rows.len() as f64;
        assert!((0.001..0.005).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn q3_date_selectivity_about_a_third() {
        let rows = uservisits(20_000, 1000, 7);
        let hits = rows.iter().filter(|r| r[3].as_int().unwrap() < Q3_DATE_CUTOFF).count();
        let frac = hits as f64 / rows.len() as f64;
        assert!((0.28..0.40).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn every_visit_references_a_page() {
        let visits = uservisits(1000, 50, 3);
        for v in &visits {
            let dest = v[2].as_text().unwrap();
            let idx: usize = dest.trim_start_matches("url").parse().unwrap();
            assert!(idx < 50);
        }
    }

    #[test]
    fn rows_fit_schemas() {
        let rs = rankings_schema();
        for r in rankings(50, 1) {
            rs.encode_row(&r).unwrap();
        }
        let us = uservisits_schema();
        for v in uservisits(50, 50, 1) {
            us.encode_row(&v).unwrap();
        }
    }

    #[test]
    fn prefix_is_substr_8() {
        for v in uservisits(200, 50, 9) {
            let ip = v[0].as_text().unwrap();
            let prefix = v[1].as_text().unwrap();
            let expect: String = ip.chars().take(8).collect();
            assert_eq!(prefix, expect);
        }
    }
}
