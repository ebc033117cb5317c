//! Planner calibration: the paper's §5 rule vs the engine's measured
//! choice across substrate profiles, recorded for the perf trajectory.
//!
//! For a sweep of query shapes (selectivity × oblivious-memory budget)
//! the same SELECT is planned under the host, disk, and cached-disk
//! [`CostProfile`]s, and the operator the closed-form rule
//! ([`paper_rules::choose_select`]) would take is priced beside the
//! engine's pick by planning once more with `force_select` set to it.
//! Emits `BENCH_planner.json`: one row per profile × shape with both
//! choices and their counted, profile-weighted costs (crossings priced per
//! substrate; the host profile's crossing weight is the SGX OCALL model).
//! The interesting rows are the ones where the columns disagree — the
//! flips a formula over block counts alone cannot see.

use std::fmt::Write as _;

use oblidb_baselines::paper_rules;
use oblidb_core::{CostProfile, Database, DbConfig, SelectAlgo, StorageMethod, Value};

fn smoke() -> bool {
    oblidb_bench::smoke_mode()
}

struct Shape {
    name: &'static str,
    rows: i64,
    om_bytes: usize,
    /// WHERE v = 1 with v = i % modulus: selectivity 1/modulus.
    modulus: i64,
}

fn shapes() -> Vec<Shape> {
    let mut all = vec![
        Shape { name: "half-tiny-om", rows: 512, om_bytes: 128, modulus: 2 },
        Shape { name: "half-big-om", rows: 512, om_bytes: 1 << 20, modulus: 2 },
        Shape { name: "sparse-tiny-om", rows: 512, om_bytes: 128, modulus: 32 },
    ];
    if !smoke() {
        all.push(Shape { name: "half-mid-om", rows: 1024, om_bytes: 512, modulus: 2 });
        all.push(Shape { name: "dense-tiny-om", rows: 1024, om_bytes: 256, modulus: 8 });
    }
    all
}

fn profiles() -> Vec<CostProfile> {
    vec![CostProfile::host(), CostProfile::disk(), CostProfile::cached_disk()]
}

fn schema() -> oblidb_core::Schema {
    oblidb_core::Schema::new(vec![
        oblidb_core::Column::new("id", oblidb_core::DataType::Int),
        oblidb_core::Column::new("v", oblidb_core::DataType::Int),
    ])
}

/// Plans `WHERE v = 1` (without running it) under `profile`, with the
/// operator left to the engine or pinned, and reports the filter's
/// operator and its estimated weighted cost.
fn plan(shape: &Shape, profile: &CostProfile, force: Option<SelectAlgo>) -> (SelectAlgo, f64) {
    let mut config = DbConfig { om_bytes: shape.om_bytes, ..DbConfig::default() };
    config.planner.profile = profile.clone();
    config.planner.force_select = force;
    let mut db = Database::new(config);
    let data: Vec<Vec<Value>> =
        (0..shape.rows).map(|i| vec![Value::Int(i), Value::Int(i % shape.modulus)]).collect();
    db.create_table_with_rows("t", schema(), StorageMethod::Flat, None, &data, shape.rows as u64)
        .unwrap();
    let stmt = db.prepare("SELECT * FROM t WHERE v = 1").unwrap();
    let filter = stmt.plan().select_root().unwrap().find_filter().unwrap();
    let algo = filter.choice.algo().expect("flat base filter is decided at prepare");
    (algo, filter.est.expect("prepare costs a flat base filter").weighted)
}

fn main() {
    let mut rows_json = Vec::new();
    let mut table = oblidb_bench::report::Report::new(
        "planner: paper rule vs the engine's measured choice",
        &["profile", "shape", "paper rule", "engine", "rule w-cost", "engine w-cost", "flip"],
    );

    for profile in profiles() {
        for shape in shapes() {
            let closed_algo = paper_rules::choose_select(
                paper_rules::stats_of((0..shape.rows).map(|i| i % shape.modulus == 1)),
                shape.rows as u64,
                schema().row_len(),
                shape.om_bytes,
                true,
            );
            let (costed_algo, costed_cost) = plan(&shape, &profile, None);
            let (_, closed_cost) = plan(&shape, &profile, Some(closed_algo));
            let flip = closed_algo != costed_algo;
            table.row(&[
                profile.name.clone(),
                shape.name.to_string(),
                format!("{closed_algo:?}"),
                format!("{costed_algo:?}"),
                format!("{closed_cost:.0}"),
                format!("{costed_cost:.0}"),
                if flip { "FLIP".into() } else { String::new() },
            ]);
            let mut line = String::new();
            write!(
                line,
                "{{\"profile\": \"{}\", \"shape\": \"{}\", \"rows\": {}, \"om_bytes\": {}, \
                 \"selectivity\": {:.4}, \"closed_form\": \"{:?}\", \"costed\": \"{:?}\", \
                 \"closed_weighted\": {:.1}, \"costed_weighted\": {:.1}, \"flip\": {}}}",
                profile.name,
                shape.name,
                shape.rows,
                shape.om_bytes,
                1.0 / shape.modulus as f64,
                closed_algo,
                costed_algo,
                closed_cost,
                costed_cost,
                flip,
            )
            .unwrap();
            rows_json.push(line);
        }
    }
    table.print();

    let json = format!(
        "{{\n  \"bench\": \"planner\",\n  \"results\": [\n    {}\n  ]\n}}\n",
        rows_json.join(",\n    ")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    println!("\nwrote BENCH_planner.json ({} rows)", rows_json.len());

    // The artifact must contain at least one flip, or the calibration adds
    // nothing — fail the bench run loudly rather than rot silently.
    assert!(json.contains("\"flip\": true"), "expected at least one profile-driven plan flip");
}
