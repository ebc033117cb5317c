//! Telemetry conformance: observability must be *observably free*.
//!
//! * Telemetry-on changes nothing the adversary (or the user) can see —
//!   results and untrusted-memory traces are bit-identical to a
//!   telemetry-off run, because spans and metrics live entirely in enclave
//!   memory.
//! * Telemetry-off is free — no spans are recorded, no counters move.
//! * `EXPLAIN ANALYZE` renders measured wall time, crossings, and AEAD
//!   bytes for every select operator and every join.
//! * The trace auditor flags a data-dependent access pattern (the
//!   Continuous select leaking match *position*) and stays silent on
//!   oblivious plans.
//!
//! The telemetry flag and metrics registry are process-global, so every
//! test here serializes on one gate.

use std::sync::{Mutex, MutexGuard};

use oblidb::core::{Database, DbConfig, JoinAlgo, SelectAlgo, SharedDatabase};
use oblidb::enclave::{Host, Trace};
use oblidb::telemetry;

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn seeded_db(config: DbConfig) -> Database {
    let mut db = Database::new(config);
    db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 128").unwrap();
    for i in 0..64 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 3)).unwrap();
    }
    db
}

fn run_traced(db: &mut Database, sql: &str) -> (Vec<Vec<oblidb::core::Value>>, Trace) {
    db.start_trace();
    let out = db.execute(sql).unwrap();
    (out.rows().to_vec(), db.take_trace())
}

const QUERY: &str = "SELECT * FROM t WHERE k >= 10 AND k < 26";

/// Telemetry-on is invisible from outside the enclave: same rows, same
/// access trace, bit for bit. Telemetry-off records nothing.
#[test]
fn telemetry_on_is_trace_and_result_identical() {
    let _g = gate();

    telemetry::set_enabled(false);
    let _ = telemetry::take_spans();
    telemetry::reset_metrics();
    let mut db_off = seeded_db(DbConfig::default());
    let (rows_off, trace_off) = run_traced(&mut db_off, QUERY);
    assert!(telemetry::take_spans().is_empty(), "disabled telemetry recorded spans");
    let idle = telemetry::snapshot();
    assert!(
        idle.counters.iter().all(|(_, v)| *v == 0),
        "disabled telemetry moved counters: {idle:?}"
    );

    telemetry::set_enabled(true);
    let mut db_on = seeded_db(DbConfig::default());
    let (rows_on, trace_on) = run_traced(&mut db_on, QUERY);
    let spans = telemetry::take_spans();
    telemetry::set_enabled(false);

    assert_eq!(rows_off, rows_on, "telemetry changed query results");
    assert_eq!(trace_off, trace_on, "telemetry changed the adversary-visible trace");

    // The run produced real spans with sane nesting: statement lifecycle
    // plus at least one operator.
    assert!(spans.iter().any(|s| s.kind == telemetry::SpanKind::Prepare));
    assert!(spans.iter().any(|s| s.kind == telemetry::SpanKind::Run));
    assert!(spans.iter().any(|s| s.kind.name().starts_with("select.")));

    // And the registry saw the traffic the engine generated.
    let snap = telemetry::snapshot();
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
    assert!(counter("statements_run") >= 65, "CREATE + 64 INSERTs + SELECT");
    assert!(counter("blocks_sealed") > 0);
    assert!(counter("blocks_opened") > 0);
    assert!(counter("bytes_sealed") > 0);
    let hist = snap.histograms.iter().find(|h| h.name == "statement_nanos").unwrap();
    assert!(hist.count >= 65);
    telemetry::reset_metrics();
}

/// Planning is not execution. The cost-based planner counts its
/// candidates from public sizes and touches no memory doing it: preparing
/// an uncached root select, or a join whose WHERE is pushed down to one
/// side, reads nothing and records only the prepare and plan spans — no
/// operator span, no sealed or opened block. Every filter's preliminary
/// scan is its own first pass, at run time, where the choices it feeds are
/// costed: `EXPLAIN ANALYZE` shows them, having opened exactly as many
/// blocks as the substrate served.
#[test]
fn planner_costing_touches_no_memory() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut db = seeded_db(DbConfig::default());
    db.execute("CREATE TABLE d (g INT, label CHAR(8)) CAPACITY 16").unwrap();
    let _ = telemetry::take_spans();
    telemetry::reset_metrics();
    db.host_mut().reset_stats();
    let counter = |name: &str| {
        let snap = telemetry::snapshot();
        snap.counters.iter().find(|(n, _)| n == name).unwrap().1
    };

    telemetry::set_enabled(true);
    let join = "SELECT * FROM d JOIN t ON d.g = t.k WHERE v < 18";
    for sql in [QUERY, join] {
        let explain = db.prepare(sql).unwrap().explain().to_string();
        assert!(explain.contains("Filter [deferred to run]"), "{explain}");
    }
    telemetry::set_enabled(false);
    assert_eq!(db.host_mut().stats().total_accesses(), 0, "prepare reads nothing");
    let spans = telemetry::take_spans();
    assert!(spans.iter().any(|s| s.kind == telemetry::SpanKind::Plan));
    for s in &spans {
        use telemetry::SpanKind::{Plan, Prepare};
        assert!(matches!(s.kind, Prepare | Plan), "planning recorded {:?}", s.kind);
    }
    assert_eq!((counter("blocks_sealed"), counter("blocks_opened")), (0, 0));
    telemetry::reset_metrics();

    telemetry::set_enabled(true);
    let out = db.execute(&format!("EXPLAIN ANALYZE {join}")).unwrap();
    telemetry::set_enabled(false);
    let explain: Vec<&str> = out.rows().iter().filter_map(|r| r[0].as_text()).collect();
    assert!(explain.iter().any(|l| l.contains("candidates:")), "costed at run:\n{explain:?}");
    let served = db.host_mut().stats().reads;
    assert!(served > 0, "the first pass read the table");
    assert_eq!(counter("blocks_opened"), served, "only blocks that exist were opened");
    let _ = telemetry::take_spans();
    telemetry::reset_metrics();
}

/// Every sealed block reaches storage telemetry, one sealed on its own
/// included: a fast INSERT seals exactly one block, and its payload bytes.
#[test]
fn a_single_block_insert_reaches_storage_telemetry() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut db = seeded_db(DbConfig::default());
    let _ = telemetry::take_spans();
    telemetry::reset_metrics();
    db.host_mut().reset_stats();
    telemetry::set_enabled(true);
    db.execute("INSERT INTO t VALUES (64, 192)").unwrap();
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let counter = |name: &str| snap.counters.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(db.host_mut().stats().writes, 1, "a fast insert writes one block");
    assert_eq!(counter("blocks_sealed"), 1);
    let row_len = db.table_schema("t").unwrap().row_len() as u64;
    assert_eq!(counter("bytes_sealed"), row_len);
    let _ = telemetry::take_spans();
    telemetry::reset_metrics();
}

/// `EXPLAIN ANALYZE` executes the query and renders measured actuals —
/// wall time, crossings, and AEAD bytes — for all six select operators.
#[test]
fn explain_analyze_renders_actuals_for_every_select_algo() {
    let _g = gate();
    telemetry::set_enabled(false);
    for algo in [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Continuous,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
        SelectAlgo::Padded,
    ] {
        let mut config = DbConfig::default();
        config.planner.force_select = Some(algo);
        let mut db = seeded_db(config);
        let out = db.execute(&format!("EXPLAIN ANALYZE {QUERY}")).unwrap();
        let text: Vec<String> =
            out.rows().iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
        let text = text.join("\n");
        assert!(text.contains("act:"), "{algo:?}: no measured actuals in:\n{text}");
        assert!(text.contains("crossings="), "{algo:?}: no crossings in:\n{text}");
        assert!(text.contains("bytes="), "{algo:?}: no AEAD bytes in:\n{text}");
        assert!(text.contains("time="), "{algo:?}: no wall time in:\n{text}");
        // The leakage the run would have produced is still reported.
        assert_eq!(out.plan.select_algo, Some(algo));
        assert_eq!(out.plan.output_rows, 16);
    }
}

/// Same for all three join algorithms.
#[test]
fn explain_analyze_renders_actuals_for_every_join_algo() {
    let _g = gate();
    telemetry::set_enabled(false);
    for algo in [JoinAlgo::Hash, JoinAlgo::Opaque, JoinAlgo::ZeroOm] {
        let mut config = DbConfig::default();
        config.planner.force_join = Some(algo);
        let mut db = seeded_db(config);
        db.execute("CREATE TABLE d (g INT, label CHAR(8)) CAPACITY 16").unwrap();
        for g in 0..8 {
            db.execute(&format!("INSERT INTO d VALUES ({g}, 'g{g}')")).unwrap();
        }
        let out =
            db.execute("EXPLAIN ANALYZE SELECT * FROM d JOIN t ON d.g = t.k WHERE v < 18").unwrap();
        let text: Vec<String> =
            out.rows().iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
        let text = text.join("\n");
        assert!(text.contains("Join"), "{algo:?}: no join node in:\n{text}");
        assert!(text.contains("act:"), "{algo:?}: no measured actuals in:\n{text}");
        assert!(text.contains("time="), "{algo:?}: no wall time in:\n{text}");
        assert!(text.contains("bytes="), "{algo:?}: no AEAD bytes in:\n{text}");
        assert_eq!(out.plan.join_algo, Some(algo));
    }
}

/// A cached EXPLAIN ANALYZE plan re-runs and re-renders.
#[test]
fn explain_analyze_is_cacheable_and_rerunnable() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut db = seeded_db(DbConfig::default());
    let sql = format!("EXPLAIN ANALYZE {QUERY}");
    let first = db.execute(&sql).unwrap();
    let misses = db.plan_cache_stats().misses;
    let second = db.execute(&sql).unwrap();
    assert_eq!(db.plan_cache_stats().misses, misses, "second run should hit the plan cache");
    assert!(db.plan_cache_stats().hits >= 1);
    assert_eq!(first.plan.output_rows, second.plan.output_rows);
    assert!(second.rows().iter().any(|r| r[0].as_text().unwrap().contains("time=")));
}

/// Injected data-dependent access pattern, caught. The adaptive planner's
/// operator choice reacts to match *contiguity* — payload data, not a
/// public size. Two runs of the same statement shape (same token shape
/// from the parser, table sizes, output size) over contiguous vs scattered matches
/// pick different operators and therefore touch untrusted memory
/// differently: exactly the §2.3 plan leakage, and the auditor flags it —
/// on a single-owner engine and through a `SharedDatabase` session alike.
#[test]
fn auditor_flags_data_dependent_plan_choice() {
    let _g = gate();
    telemetry::set_enabled(false);
    // A tight budget (16 matches need several Small passes) is what makes
    // Continuous the cheapest candidate once contiguity admits it; from
    // 256 bytes up Small wins either way and nothing would flip.
    let config = DbConfig { audit: true, om_bytes: 128, ..DbConfig::default() };
    // v marks 16 *contiguous* rows (k in 10..26); w marks 16 *scattered*
    // rows (every fourth k). Same table size, same match count.
    let mut setup = vec!["CREATE TABLE t (k INT, v INT, w INT) CAPACITY 128".to_string()];
    for i in 0..64 {
        let v = i64::from((10..26).contains(&i));
        let w = i64::from(i % 4 == 0);
        setup.push(format!("INSERT INTO t VALUES ({i}, {v}, {w})"));
    }
    const SELECT: &str = "SELECT k FROM t WHERE v = 1";
    // Move the matches from the contiguous set to the scattered one —
    // same count, different layout.
    const MOVE: [&str; 2] = ["UPDATE t SET v = 0 WHERE k >= 0", "UPDATE t SET v = 1 WHERE w = 1"];

    let mut db = Database::new(config.clone());
    for stmt in &setup {
        db.execute(stmt).unwrap();
    }
    let run1 = db.execute(SELECT).unwrap();
    assert_eq!(run1.plan.select_algo, Some(SelectAlgo::Continuous));
    assert!(db.audit_violations().is_empty(), "reference run cannot diverge from itself");
    for stmt in MOVE {
        db.execute(stmt).unwrap();
    }
    let run2 = db.execute(SELECT).unwrap();
    assert_eq!(run1.plan.output_rows, run2.plan.output_rows, "shapes must match");
    assert_eq!(run2.plan.select_algo, Some(SelectAlgo::Small), "plan choice should flip");

    let report = db.audit_report();
    assert_eq!(db.audit_violations().len(), 1, "auditor missed the plan leak: {report:?}");
    let v = &db.audit_violations()[0];
    assert!(v.shape.contains("where v = ?"), "unexpected shape: {}", v.shape);
    assert_ne!(v.expected_hash, v.observed_hash);

    // The same statements through a session: the adopted engine's own
    // auditor sees them, and a traced statement counts as a skip.
    let shared = SharedDatabase::new(Host::new(), config).unwrap();
    let mut session = shared.session();
    for stmt in setup.iter().map(String::as_str).chain([SELECT]).chain(MOVE) {
        session.execute(stmt).unwrap();
    }
    let skips = shared.audit_report().skips;
    let (traced, trace) = session.execute_traced(SELECT);
    assert_eq!(traced.unwrap().plan.select_algo, Some(SelectAlgo::Small));
    assert!(!trace.is_empty(), "the caller got the statement's trace");
    assert_eq!(shared.audit_report().skips, skips + 1, "traced statement must count a skip");
    assert!(shared.audit_violations().is_empty(), "a skipped statement is not checked");
    session.execute(SELECT).unwrap();
    let violations = shared.audit_violations();
    assert_eq!(violations.len(), 1, "session auditor missed the plan leak: {violations:?}");
    assert!(
        violations[0].shape.contains("where v = ?"),
        "unexpected shape: {}",
        violations[0].shape
    );
}

/// The auditor keys a statement by the parser's tokens, not by folded
/// text. Case-distinct tables are different statements, so full scans of
/// `T` and `t` (same row count, different capacities) are not compared;
/// spacing and keyword case never split one statement into two shapes.
#[test]
fn auditor_shapes_come_from_the_parsers_tokens() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut db = Database::new(DbConfig { audit: true, ..DbConfig::default() });
    db.execute("CREATE TABLE T (k INT, v INT) CAPACITY 64").unwrap();
    db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 128").unwrap();
    for i in 0..8 {
        db.execute(&format!("INSERT INTO T VALUES ({i}, {})", i % 4)).unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4)).unwrap();
    }
    db.execute("SELECT * FROM T").unwrap();
    db.execute("SELECT * FROM t").unwrap();
    assert!(db.audit_violations().is_empty(), "false positive: {:?}", db.audit_violations());

    let shapes = db.audit_report().shapes;
    assert_eq!(db.execute("SELECT k FROM t WHERE v = 2").unwrap().len(), 2);
    assert_eq!(db.execute("select k from t where v=3").unwrap().len(), 2);
    assert_eq!(db.audit_report().shapes, shapes + 1, "one statement, one shape");
    assert!(db.audit_violations().is_empty(), "{:?}", db.audit_violations());
}

/// Where a block lands is not always the statement's doing. A Path ORAM
/// access reads a freshly random path; a WAL append goes to the next free
/// slot, the public count of statements logged so far; a fast insert
/// writes at its table's cursor, the public count of insertions so far.
/// Same-looking statements differ there by construction, and the auditor
/// must not call that a leak: an indexed point read repeated fifty times
/// and two same-shape INSERTs under a WAL leave it silent — the first two
/// because the auditor hashes those regions without block positions, the
/// third because the cursor is one of the public sizes that key a shape.
/// (That it still catches a real divergence is
/// `auditor_flags_data_dependent_plan_choice`.)
#[test]
fn auditor_ignores_positions_random_or_public_by_construction() {
    let _g = gate();
    telemetry::set_enabled(false);
    for fast_inserts in [false, true] {
        let wal = Some(oblidb::core::wal::WalConfig);
        let config = DbConfig { audit: true, wal, fast_inserts, ..DbConfig::default() };
        let mut db = Database::new(config);
        db.execute("CREATE TABLE p (k INT, v INT) STORAGE = INDEXED INDEX ON k CAPACITY 64")
            .unwrap();
        for i in 0..32 {
            db.execute(&format!("INSERT INTO p VALUES ({i}, {})", i * 3)).unwrap();
        }
        for i in 0..50 {
            let out = db.execute(&format!("SELECT * FROM p WHERE k = {}", i % 32)).unwrap();
            assert_eq!(out.len(), 1);
        }
        // Two INSERTs of one statement and the same row counts before and
        // after (the DELETE between them restores the count): other WAL
        // slots, and under fast inserts another table block.
        db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 16").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        db.execute("DELETE FROM t WHERE k = 1").unwrap();
        db.execute("INSERT INTO t VALUES (2, 20)").unwrap();

        let (report, found) = (db.audit_report(), db.audit_violations());
        assert!(found.is_empty(), "fast_inserts={fast_inserts}: false positive: {found:?}");
        assert!(report.shapes + 49 <= report.checks as usize, "the point reads shared a shape");
        assert_eq!(report.skips, 0);
    }
}

/// Oblivious plans (Continuous disabled, as the obliviousness suite pins
/// them) never trip the auditor, whatever the parameters.
#[test]
fn auditor_accepts_oblivious_plans() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut config = DbConfig { audit: true, ..DbConfig::default() };
    config.planner.enable_continuous = false;
    let mut db = seeded_db(config);

    db.execute("SELECT * FROM t WHERE k >= 10 AND k < 26").unwrap();
    db.execute("SELECT * FROM t WHERE k >= 40 AND k < 56").unwrap();
    db.execute("SELECT COUNT(*) FROM t WHERE v < 60").unwrap();
    db.execute("SELECT COUNT(*) FROM t WHERE v < 60").unwrap();

    let report = db.audit_report();
    assert!(db.audit_violations().is_empty(), "false positive: {report:?}");
    assert!(report.checks >= 4 + 65, "every statement should be audited: {report:?}");
    assert_eq!(report.skips, 0);
}

/// A caller holding the trace channel suspends auditing — counted as
/// skips, never stolen traces or silent gaps.
#[test]
fn auditor_skips_when_caller_is_tracing() {
    let _g = gate();
    telemetry::set_enabled(false);
    let config = DbConfig { audit: true, ..DbConfig::default() };
    let mut db = seeded_db(config);
    let checks_before = db.audit_report().checks;

    db.start_trace();
    db.execute(QUERY).unwrap();
    let trace = db.take_trace();
    assert!(!trace.is_empty(), "the caller's trace must be intact");
    let report = db.audit_report();
    assert_eq!(report.checks, checks_before, "audited a statement it should have skipped");
    assert_eq!(report.skips, 1);
}

/// Every exported counter has one name: the engine's own plan-cache and
/// audit counters must not reuse the registry's process-wide names, or
/// the JSON export carries one key twice with two values.
#[test]
fn metrics_snapshots_name_every_counter_once() {
    let _g = gate();
    telemetry::set_enabled(true);
    let config = DbConfig { audit: true, ..DbConfig::default() };
    let mut db = seeded_db(config.clone());
    db.execute(QUERY).unwrap();
    let shared = SharedDatabase::adopt(seeded_db(config));
    shared.session().execute(QUERY).unwrap();
    telemetry::set_enabled(false);
    for snap in [db.metrics_snapshot(), shared.metrics_snapshot()] {
        let mut names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let twice: Vec<&str> = names.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
        assert!(twice.is_empty(), "counters named twice: {twice:?}");
    }
}
