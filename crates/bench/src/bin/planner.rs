//! Planner profiles: the paper's §5 rule vs the engine's measured
//! choice across substrate profiles, recorded for the perf trajectory.
//!
//! For a sweep of query shapes (selectivity × oblivious-memory budget)
//! the same SELECT is priced under the host, disk, and cached-disk
//! [`CostProfile`]s: the engine's pick comes from its preliminary scan and
//! choice function ([`select_first_pass`], [`choose_select`]) run directly — a
//! select chooses at run time, after its first pass, and takes none when
//! its matches fit oblivious memory — and both it and the operator the
//! closed-form rule ([`paper_rules::choose_select`]) would take are priced
//! by running with `force_select` set to them.
//! Emits `BENCH_planner.json`: one row per profile × shape with both
//! choices and their counted, profile-weighted costs (crossings priced per
//! substrate; the host profile's crossing weight is the SGX OCALL model).
//! The interesting rows are the ones where the columns disagree — the
//! flips a formula over block counts alone cannot see.

use std::fmt::Write as _;

use oblidb_baselines::paper_rules;
use oblidb_core::exec::select::select_first_pass;
use oblidb_core::plan::cost::{choose_select, PlannerConfig, SelectShape};
use oblidb_core::predicate::CmpOp;
use oblidb_core::table::FlatTable;
use oblidb_core::{CostProfile, Database, DbConfig, Predicate, SelectAlgo, StorageMethod, Value};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{Host, OmBudget};

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

fn data(shape: &Shape) -> Vec<Vec<Value>> {
    (0..shape.rows).map(|i| vec![Value::Int(i), Value::Int(i % shape.modulus)]).collect()
}

/// The operator the engine's planner takes for `WHERE v = 1` under
/// `profile` when the matches overflow oblivious memory: the preliminary
/// scan's statistics priced by its choice function.
fn choose(shape: &Shape, profile: &CostProfile) -> SelectAlgo {
    let (mut host, key, capacity) = (Host::new(), AeadKey([0; 32]), shape.rows as u64);
    let rows: Vec<Vec<u8>> = data(shape).iter().map(|r| schema().encode_row(r).unwrap()).collect();
    let mut t =
        FlatTable::from_encoded_rows(&mut host, key.clone(), schema(), &rows, capacity).unwrap();
    let pred = Predicate::cmp(&schema(), "v", CmpOp::Eq, Value::Int(1)).unwrap();
    let om = OmBudget::new(0);
    let stats = select_first_pass(&mut host, &om, &mut t, &pred, None, 1).unwrap().stats;
    let select = SelectShape {
        schema: schema(),
        capacity,
        rows: capacity,
        matches: stats.matches,
        continuous: stats.continuous,
        om_bytes: shape.om_bytes,
        out_key: key,
    };
    let cfg = PlannerConfig { profile: profile.clone(), ..PlannerConfig::default() };
    choose_select(&cfg, &select, profile).0.algo().expect("an unforced choice names its winner")
}

/// Runs `WHERE v = 1` under `profile` with the operator pinned to `algo`,
/// and reports its estimated weighted cost: counted at run time, after the
/// first pass, at the output key the engine draws, as Hash's buckets need.
fn priced(shape: &Shape, profile: &CostProfile, algo: SelectAlgo) -> f64 {
    let mut config = DbConfig { om_bytes: shape.om_bytes, ..DbConfig::default() };
    config.planner.profile = profile.clone();
    config.planner.force_select = Some(algo);
    let mut db = Database::new(config);
    let capacity = shape.rows as u64;
    db.create_table_with_rows("t", schema(), StorageMethod::Flat, None, &data(shape), capacity)
        .unwrap();
    let mut stmt = db.prepare("SELECT * FROM t WHERE v = 1").unwrap();
    stmt.run().unwrap();
    let filter = stmt.plan().select_root().unwrap().find_filter().unwrap();
    filter.est.expect("a run costs its forced filter").weighted
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
            let costed_algo = choose(&shape, &profile);
            let costed_cost = priced(&shape, &profile, costed_algo);
            let closed_cost = priced(&shape, &profile, closed_algo);
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

    // The artifact must contain at least one flip, or per-substrate pricing
    // adds nothing — fail the bench run loudly rather than rot silently.
    assert!(json.contains("\"flip\": true"), "expected at least one profile-driven plan flip");
}
