//! Planner-parity properties for the cost-calibrated, CountingMemory-
//! driven planner:
//!
//! 1. **Estimate exactness** — `explain()`'s estimated block counts (a
//!    `CountingMemory` dry run) equal the measured actuals for *every*
//!    SELECT algorithm, forced one at a time.
//! 2. **Never worse than closed-form** — across randomized shapes, the
//!    engine's choice never costs more (measured, host-weighted) than the
//!    operator the paper's closed-form rule (`baselines::paper_rules`)
//!    would take, run by forcing it.
//! 3. **Substrate-calibrated divergence** (acceptance) — the same query
//!    picks a different, and cheaper-by-weighted-crossings, operator under
//!    the disk profile than under the host profile; and the conformance
//!    property (byte-identical results + traces across substrates) holds
//!    through the prepare/execute path when the profiles agree.

use oblidb::baselines::paper_rules;
use oblidb::core::plan::{PlanNode, SelectChoice};
use oblidb::core::{CostProfile, Database, DbConfig, SelectAlgo};
use oblidb::enclave::EnclaveRng;

fn filter_of(root: &PlanNode) -> &oblidb::core::plan::FilterNode {
    root.find_filter().expect("plan has a filter stage")
}

fn build_db(config: DbConfig, rows: u64, modulus: i64) -> Database {
    let mut db = Database::new(config);
    db.execute(&format!("CREATE TABLE t (id INT, v INT) CAPACITY {rows}")).unwrap();
    for i in 0..rows as i64 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % modulus)).unwrap();
    }
    db
}

/// 1. Estimated block counts match `CountingMemory` actuals for every
///    SELECT algorithm — the dry run is exact, not approximate.
#[test]
fn estimates_match_actuals_for_every_select_algorithm() {
    for algo in [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Continuous,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
        SelectAlgo::Padded,
    ] {
        let mut config = DbConfig { om_bytes: 2048, ..DbConfig::default() };
        config.planner.force_select = Some(algo);
        let mut db = build_db(config, 96, 96);
        // Contiguous range so Continuous is valid too.
        let mut stmt = db.prepare("SELECT * FROM t WHERE id >= 16 AND id < 48").unwrap();
        let est = filter_of(stmt.plan().select_root().unwrap())
            .est
            .unwrap_or_else(|| panic!("{algo:?}: forced choice must still be costed"));
        let out = stmt.run().unwrap();
        assert_eq!(out.len(), 32, "{algo:?}");
        let actual = filter_of(stmt.plan().select_root().unwrap()).actual.unwrap();
        assert_eq!(
            (est.reads, est.writes, est.crossings),
            (actual.reads, actual.writes, actual.crossings),
            "{algo:?}: dry-run estimate must equal measured cost"
        );
    }
}

/// Padding mode: the padded estimate is exact too (pass count and output
/// size come from the public bound).
#[test]
fn padded_estimates_match_actuals() {
    let config = DbConfig {
        padding: Some(oblidb::core::padding::PaddingConfig::uniform(48)),
        ..DbConfig::default()
    };
    let mut db = build_db(config, 64, 64);
    let mut stmt = db.prepare("SELECT * FROM t WHERE id < 5").unwrap();
    let est = filter_of(stmt.plan().select_root().unwrap()).est.unwrap();
    stmt.run().unwrap();
    let actual = filter_of(stmt.plan().select_root().unwrap()).actual.unwrap();
    assert_eq!(
        (est.reads, est.writes, est.crossings),
        (actual.reads, actual.writes, actual.crossings)
    );
}

/// 2. Property: across randomized table sizes, OM budgets and
///    selectivities, the cost-based choice never costs more (measured,
///    host-weighted) than the closed-form rule's choice would have.
#[test]
fn cost_based_choice_never_exceeds_closed_form() {
    let mut rng = EnclaveRng::seed_from_u64(0xC057_CA1B);
    for case in 0..12 {
        let rows = 32 + (rng.next_u64() % 160);
        let om = 64 + (rng.next_u64() % 4096) as usize;
        let cut = (rng.next_u64() % rows) as i64;
        let scattered = rng.next_u64() % 2 == 0;
        // Scattered: two runs → not continuous (unless one is empty).
        let (lo, hi) = (cut / 2, rows as i64 - (cut - cut / 2).max(1));
        let query = if scattered {
            format!("SELECT * FROM t WHERE id < {lo} OR id >= {hi}")
        } else {
            format!("SELECT * FROM t WHERE id < {cut}")
        };
        let hit = |id: i64| if scattered { id < lo || id >= hi } else { id < cut };

        let run_with = |force: Option<SelectAlgo>| {
            let mut config = DbConfig { om_bytes: om, ..DbConfig::default() };
            config.planner.force_select = force;
            let mut db = build_db(config, rows, rows as i64);
            let row_len = db.table_schema("t").unwrap().row_len();
            let mut stmt = db.prepare(&query).unwrap();
            stmt.run().unwrap();
            let f = filter_of(stmt.plan().select_root().unwrap());
            (f.choice.algo().unwrap(), f.actual.unwrap(), row_len)
        };
        let (costed_algo, costed, row_len) = run_with(None);
        let stats = paper_rules::stats_of((0..rows as i64).map(hit));
        let rule = paper_rules::choose_select(stats, rows, row_len, om, true);
        let (closed_algo, closed, _) = run_with(Some(rule));
        assert_eq!(closed_algo, rule);
        assert!(
            costed.weighted <= closed.weighted + 1e-6,
            "case {case} ({query}): costed {costed_algo:?} = {} must not exceed \
             closed-form {closed_algo:?} = {}",
            costed.weighted,
            closed.weighted,
        );
    }
}

/// 3a. Acceptance: the same query picks a different operator under the
/// disk profile than under the host profile, and each choice is cheaper
/// than the other's under its own weighting — counted, not assumed.
#[test]
fn disk_and_host_profiles_pick_different_cheaper_operators() {
    let plan_with = |profile: CostProfile| {
        let mut config = DbConfig { om_bytes: 128, ..DbConfig::default() };
        config.planner.profile = profile;
        let mut db = build_db(config, 512, 2);
        let mut stmt = db.prepare("SELECT * FROM t WHERE v = 1").unwrap();
        stmt.run().unwrap();
        let f = filter_of(stmt.plan().select_root().unwrap());
        let candidates = match &f.choice {
            SelectChoice::Chosen { candidates, .. } => candidates.clone(),
            other => panic!("expected a cost-chosen filter, got {other:?}"),
        };
        (f.choice.algo().unwrap(), candidates, f.actual.unwrap())
    };

    let (host_algo, host_candidates, host_actual) = plan_with(CostProfile::host());
    let (disk_algo, disk_candidates, disk_actual) = plan_with(CostProfile::disk());
    assert_ne!(
        host_algo, disk_algo,
        "the crossing price must flip the operator choice between substrates"
    );
    assert_eq!(host_algo, SelectAlgo::Hash, "cheap crossings favor fewest block accesses");
    assert_eq!(disk_algo, SelectAlgo::Small, "dear crossings favor fewest crossings");

    // Cheaper by counted weighted crossings, each under its own profile:
    // the disk choice beats the host choice when both are priced for disk,
    // and vice versa.
    let cost_of = |cands: &[oblidb::core::plan::CandidateCost], algo: SelectAlgo| {
        cands.iter().find(|c| c.algo == algo).map(|c| c.cost.weighted).unwrap()
    };
    assert!(cost_of(&disk_candidates, disk_algo) < cost_of(&disk_candidates, host_algo));
    assert!(cost_of(&host_candidates, host_algo) < cost_of(&host_candidates, disk_algo));

    // And the estimates the decisions rested on were exact.
    assert_eq!(cost_of(&host_candidates, host_algo), host_actual.weighted);
    assert_eq!(cost_of(&disk_candidates, disk_algo), disk_actual.weighted);
}

/// 3b. EXPLAIN SELECT works end to end and surfaces the per-substrate
/// divergence textually.
#[test]
fn explain_select_shows_the_calibrated_choice() {
    let explain_with = |profile: CostProfile| {
        let mut config = DbConfig { om_bytes: 128, ..DbConfig::default() };
        config.planner.profile = profile;
        let mut db = build_db(config, 512, 2);
        let out = db.execute("EXPLAIN SELECT * FROM t WHERE v = 1").unwrap();
        out.rows().iter().map(|r| r[0].as_text().unwrap().to_string()).collect::<Vec<_>>()
    };
    let host = explain_with(CostProfile::host());
    let disk = explain_with(CostProfile::disk());
    assert!(host.iter().any(|l| l.contains("Filter [Hash]")), "{host:?}");
    assert!(disk.iter().any(|l| l.contains("Filter [Small]")), "{disk:?}");
    assert!(host.iter().any(|l| l.contains("candidates:")), "{host:?}");
}

/// Joins are costed by the same machinery: the chosen join's estimate
/// matches its measured cost (flat inputs make the estimate exact).
#[test]
fn join_estimates_match_actuals() {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE d (k INT, name INT) CAPACITY 16").unwrap();
    db.execute("CREATE TABLE f (k INT, v INT) CAPACITY 48").unwrap();
    for i in 0..16 {
        db.execute(&format!("INSERT INTO d VALUES ({i}, {i})")).unwrap();
    }
    for i in 0..48 {
        db.execute(&format!("INSERT INTO f VALUES ({}, {i})", i % 16)).unwrap();
    }
    let mut stmt = db.prepare("SELECT * FROM d JOIN f ON d.k = f.k").unwrap();
    let (est, algo) = match stmt.plan().select_root().unwrap() {
        PlanNode::Join(j) => {
            (j.est.expect("join over flat inputs is costed at prepare"), j.choice.algo().unwrap())
        }
        other => panic!("expected join root, got {other:?}"),
    };
    let out = stmt.run().unwrap();
    assert_eq!(out.len(), 48);
    let actual = match stmt.plan().select_root().unwrap() {
        PlanNode::Join(j) => {
            assert_eq!(j.choice.algo().unwrap(), algo, "pinned choice survives run");
            j.actual.unwrap()
        }
        _ => unreachable!(),
    };
    assert_eq!(
        (est.reads, est.writes, est.crossings),
        (actual.reads, actual.writes, actual.crossings),
        "join dry-run estimate must equal measured cost"
    );
}

/// One choice function, two call sites: a join planned at prepare (both
/// sides flat) and a join of the same public shape whose choice waits for
/// run time (one side materialized through its index) must report the
/// same operator, the same candidate table and the same estimate.
#[test]
fn deferred_join_resolves_to_the_plan_time_choice() {
    use oblidb::core::plan::JoinChoice;

    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE d_flat (k INT, name INT) CAPACITY 16").unwrap();
    db.execute("CREATE TABLE d_idx (k INT, name INT) STORAGE = INDEXED INDEX ON k").unwrap();
    db.execute("CREATE TABLE f (k INT, v INT) CAPACITY 48").unwrap();
    for i in 0..16 {
        db.execute(&format!("INSERT INTO d_flat VALUES ({i}, {i})")).unwrap();
        db.execute(&format!("INSERT INTO d_idx VALUES ({i}, {i})")).unwrap();
    }
    for i in 0..48 {
        db.execute(&format!("INSERT INTO f VALUES ({}, {i})", i % 16)).unwrap();
    }
    let join_of = |plan: &oblidb::core::QueryPlan| match plan.select_root().unwrap() {
        PlanNode::Join(j) => (j.choice.clone(), j.est),
        other => panic!("expected join root, got {other:?}"),
    };

    let stmt = db.prepare("SELECT * FROM d_flat JOIN f ON d_flat.k = f.k").unwrap();
    let planned = join_of(stmt.plan());
    assert!(matches!(planned.0, JoinChoice::Chosen { .. }), "flat sides decide at prepare");

    let mut stmt = db.prepare("SELECT * FROM d_idx JOIN f ON d_idx.k = f.k").unwrap();
    assert_eq!(join_of(stmt.plan()), (JoinChoice::Deferred, None));
    assert_eq!(stmt.run().unwrap().len(), 48);
    assert_eq!(join_of(stmt.plan()), planned, "deferred resolution must match plan time");
}
