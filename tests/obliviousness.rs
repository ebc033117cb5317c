//! End-to-end obliviousness: the executable analogue of the paper's
//! Appendix A security theorem. For a fixed leakage profile — table sizes,
//! output sizes, physical plan — the untrusted-memory transcript must be
//! *identical* whatever the data values or query parameters.

use std::collections::BTreeSet;

use oblidb::core::padding::PaddingConfig;
use oblidb::core::{Database, DbConfig, DbError, SelectAlgo, StorageMethod, Value};
use oblidb::enclave::{AccessKind, RegionId, Trace};

fn fresh_db(rows: &[(i64, i64)], method: StorageMethod) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.config_mut().planner.enable_continuous = false;
    let schema = oblidb::core::Schema::new(vec![
        oblidb::core::Column::new("k", oblidb::core::DataType::Int),
        oblidb::core::Column::new("v", oblidb::core::DataType::Int),
    ]);
    let values: Vec<Vec<Value>> =
        rows.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect();
    db.create_table_with_rows("t", schema, method, Some("k"), &values, rows.len() as u64).unwrap();
    db
}

fn traced(db: &mut Database, sql: &str) -> (usize, Trace) {
    db.start_trace();
    let out = db.execute(sql).unwrap();
    (out.len(), db.take_trace())
}

/// Same |T|, same |R|, different data and parameters → identical traces.
#[test]
fn selection_trace_depends_only_on_sizes() {
    let data_a: Vec<(i64, i64)> = (0..64).map(|i| (i, i * 3)).collect();
    let data_b: Vec<(i64, i64)> = (0..64).map(|i| (i * 7, -i)).collect();

    let mut db_a = fresh_db(&data_a, StorageMethod::Flat);
    let (n_a, t_a) = traced(&mut db_a, "SELECT * FROM t WHERE k >= 10 AND k < 20");

    let mut db_b = fresh_db(&data_b, StorageMethod::Flat);
    let (n_b, t_b) = traced(&mut db_b, "SELECT * FROM t WHERE k >= 70 AND k < 140");

    assert_eq!(n_a, 10);
    assert_eq!(n_b, 10);
    assert_eq!(t_a, t_b, "equal-size selections must be indistinguishable");
}

/// Aggregates never leak which rows contributed.
#[test]
fn aggregate_trace_is_parameter_independent() {
    let data: Vec<(i64, i64)> = (0..50).map(|i| (i, i)).collect();
    let mut db = fresh_db(&data, StorageMethod::Flat);
    let (_, t1) = traced(&mut db, "SELECT SUM(v) FROM t WHERE k < 5");
    let mut db = fresh_db(&data, StorageMethod::Flat);
    let (_, t2) = traced(&mut db, "SELECT SUM(v) FROM t WHERE k >= 45");
    let mut db = fresh_db(&data, StorageMethod::Flat);
    let (_, t3) = traced(&mut db, "SELECT SUM(v) FROM t WHERE v <> 12345");
    assert_eq!(t1, t2);
    assert_eq!(t2, t3, "selectivity must not show in the fused aggregate trace");
}

/// UPDATE and DELETE rewrite every block whether or not it matches.
#[test]
fn mutation_traces_are_parameter_independent() {
    let data: Vec<(i64, i64)> = (0..40).map(|i| (i, i)).collect();

    let mut db = fresh_db(&data, StorageMethod::Flat);
    db.start_trace();
    db.execute("UPDATE t SET v = 0 WHERE k = 3").unwrap();
    let t1 = db.take_trace();

    let mut db = fresh_db(&data, StorageMethod::Flat);
    db.start_trace();
    db.execute("UPDATE t SET v = 9 WHERE v < 1000").unwrap();
    let t2 = db.take_trace();
    assert_eq!(t1, t2, "update trace must not depend on match count");

    let mut db = fresh_db(&data, StorageMethod::Flat);
    db.start_trace();
    db.execute("DELETE FROM t WHERE k = 0").unwrap();
    let d1 = db.take_trace();

    let mut db = fresh_db(&data, StorageMethod::Flat);
    db.start_trace();
    db.execute("DELETE FROM t WHERE k = 39").unwrap();
    let d2 = db.take_trace();
    assert_eq!(d1, d2, "delete trace must not depend on which row matched");
}

/// Joins: traces depend only on input sizes, not contents or selectivity.
#[test]
fn join_trace_depends_only_on_sizes() {
    let run = |offset: i64| {
        let mut db = Database::new(DbConfig::default());
        db.config_mut().planner.enable_continuous = false;
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 32").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 32").unwrap();
        for i in 0..16 {
            db.execute(&format!("INSERT INTO a VALUES ({}, {i})", i + offset)).unwrap();
        }
        for i in 0..24 {
            db.execute(&format!("INSERT INTO b VALUES ({}, {i})", (i % 8) + offset * 3)).unwrap();
        }
        db.start_trace();
        let out = db.execute("SELECT * FROM a JOIN b ON a.k = b.k").unwrap();
        (out.len(), db.take_trace())
    };
    // offset 0: many matches; offset 100: none. Identical traces.
    let (n0, t0) = run(0);
    let (n100, t100) = run(100);
    assert!(n0 > 0);
    assert_eq!(n100, 0);
    assert_eq!(t0, t100, "join selectivity must not show in the trace");
}

/// Padding mode (paper §2.3): a filter's passes and output size come from
/// the padded bound, not the match count. Two datasets of one public shape
/// whose match counts differ, both under the bound, leave one transcript —
/// for a base select and for a filter over a join's output — and return
/// what the unpadded engine returns.
#[test]
fn padded_filters_hide_match_counts() {
    let run = |matches: i64, padded: bool, sql: &str| {
        let padding = padded.then_some(PaddingConfig { pad_rows: 12 });
        let mut db = Database::new(DbConfig { padding, ..DbConfig::default() });
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 24").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 24").unwrap();
        for i in 0..20 {
            // `x < 100` holds for the first `matches` rows of `a` only.
            let x = if i < matches { i } else { 100 + i };
            db.execute(&format!("INSERT INTO a VALUES ({i}, {x})")).unwrap();
            db.execute(&format!("INSERT INTO b VALUES ({i}, {})", 2 * i)).unwrap();
        }
        db.start_trace();
        let out = db.execute(sql).unwrap();
        let trace = db.take_trace();
        if padded {
            assert_eq!(out.plan.select_algo, Some(SelectAlgo::Padded), "{sql}");
        }
        let mut rows: Vec<Vec<i64>> =
            out.rows().iter().map(|r| r.iter().map(|v| v.as_int().unwrap()).collect()).collect();
        rows.sort_unstable();
        (rows, trace)
    };
    for sql in [
        "SELECT * FROM a WHERE x < 100",
        // Resolves on neither side alone, so it filters the join's output.
        "SELECT * FROM a JOIN b ON a.k = b.k WHERE x < 100 AND y >= 0",
    ] {
        let (few, t_few) = run(3, true, sql);
        let (many, t_many) = run(9, true, sql);
        assert_eq!((few.len(), many.len()), (3, 9), "{sql}");
        assert_eq!(t_few, t_many, "{sql}: the match count must not show under padding");
        assert_eq!(few, run(3, false, sql).0, "{sql}");
        assert_eq!(many, run(9, false, sql).0, "{sql}");
    }
}

/// A root select whose matches fit oblivious memory is its own first pass:
/// one read of the table, nothing written. Two tables of one capacity
/// whose matches number 3 and 40 leave one trace, unpadded and under a
/// padded bound both fit.
#[test]
fn root_select_trace_hides_the_match_count_when_it_fits() {
    for padding in [None, Some(PaddingConfig { pad_rows: 48 })] {
        let run = |matches: i64| {
            let mut db = Database::new(DbConfig { padding, ..DbConfig::default() });
            db.execute("CREATE TABLE t (k INT, v INT) CAPACITY 64").unwrap();
            for i in 0..50 {
                let v = if i < matches { i } else { 100 + i };
                db.execute(&format!("INSERT INTO t VALUES ({i}, {v})")).unwrap();
            }
            let (n, trace) = traced(&mut db, "SELECT * FROM t WHERE v < 100");
            assert_eq!(n as i64, matches, "{padding:?}");
            assert!(written(&trace).is_empty(), "{padding:?}: the matches stay in OM");
            trace
        };
        assert_eq!(run(3), run(40), "{padding:?}: the match count must not show");
    }
}

/// Padding mode through the fused build: the build's passes come from the
/// padded bound, so 3 and 9 matches under a bound of 12 leave one trace.
/// 13 matches run every pass, then return `PaddedBoundExceeded` and hand
/// the OM lease back.
#[test]
fn padded_fused_build_hides_match_counts() {
    let run = |matches: i64| {
        let padding = Some(PaddingConfig { pad_rows: 12 });
        let mut db = Database::new(DbConfig { padding, ..DbConfig::default() });
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 24").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 24").unwrap();
        for i in 0..20 {
            let y = if i < matches { i } else { 100 + i };
            db.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
            db.execute(&format!("INSERT INTO b VALUES ({i}, {y})")).unwrap();
        }
        let sql = "SELECT COUNT(*), SUM(x) FROM a JOIN b ON a.k = b.k WHERE y < 100";
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<&str> = plan.rows().iter().filter_map(|r| r[0].as_text()).collect();
        assert!(
            lines.iter().any(|l| l.contains("build=Right fused filter, bound 12")),
            "{lines:?}"
        );
        let om = db.om().available();
        db.start_trace();
        let out = db.execute(sql).map(|o| o.rows()[0][0].clone());
        let trace = db.take_trace();
        assert_eq!(db.om().available(), om, "the OM lease comes back");
        (out, trace)
    };
    let (few, t_few) = run(3);
    let (many, t_many) = run(9);
    assert_eq!((few.unwrap(), many.unwrap()), (Value::Int(3), Value::Int(9)));
    assert_eq!(t_few, t_many, "the match count must not show under padding");
    let (over, t_over) = run(13);
    assert!(matches!(over, Err(DbError::PaddedBoundExceeded { bound: 12 })), "{over:?}");
    assert_eq!(t_over, t_few, "an overflow is found only after every pass ran");
}

/// A join side's filter whose matches fit oblivious memory is Small's one
/// pass: its first pass counts and keeps them, and they are sealed into
/// exactly |R| blocks. Two datasets of one public shape whose filtered side
/// passes 6 rows, at different positions and with different values, give
/// one trace.
#[test]
fn filtered_join_side_trace_depends_only_on_its_match_count() {
    let run = |first: i64| {
        let mut db = Database::new(DbConfig::default());
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 16").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 32").unwrap();
        for i in 0..16 {
            db.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
        }
        for i in 0..32 {
            let y = if (first..first + 6).contains(&i) { i } else { 100 + i };
            db.execute(&format!("INSERT INTO b VALUES ({}, {y})", (i + first) % 16)).unwrap();
        }
        db.start_trace();
        let out = db.execute("SELECT * FROM a JOIN b ON a.k = b.k WHERE y < 100").unwrap();
        let trace = db.take_trace();
        assert_eq!((out.len(), out.plan.select_algo), (6, Some(SelectAlgo::Small)));
        let sealed = written(&trace);
        assert_eq!(sealed[0].1, (0..6).collect(), "the filter seals |R| blocks");
        trace
    };
    assert_eq!(run(0), run(20), "the matches' positions and values must not show");
}

/// The regions `trace` writes, in first-write order, each with the block
/// indices written.
fn written(trace: &Trace) -> Vec<(RegionId, BTreeSet<u64>)> {
    let mut out: Vec<(RegionId, BTreeSet<u64>)> = Vec::new();
    for e in trace.0.iter().filter(|e| e.kind == AccessKind::Write) {
        match out.iter_mut().find(|(r, _)| *r == e.region) {
            Some((_, blocks)) => {
                blocks.insert(e.index);
            }
            None => out.push((e.region, BTreeSet::from([e.index]))),
        }
    }
    out
}

/// An aggregate over a join folds the joined rows in the join's own loop.
/// Its trace still depends only on sizes, under every join algorithm, and
/// a folded hash join writes nothing, its pushed-down filter included: the
/// filter runs inside the build, and the one-row result comes from the
/// accumulators.
#[test]
fn folded_join_aggregate_trace_depends_only_on_sizes() {
    use oblidb::core::JoinAlgo;
    let run = |algo: JoinAlgo, offset: i64, sql: &str| {
        let mut db = Database::new(DbConfig::default());
        db.config_mut().planner.enable_continuous = false;
        db.config_mut().planner.force_join = Some(algo);
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 32").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 32").unwrap();
        for i in 0..16 {
            db.execute(&format!("INSERT INTO a VALUES ({}, {i})", i + offset)).unwrap();
        }
        for i in 0..24 {
            db.execute(&format!("INSERT INTO b VALUES ({}, {i})", (i % 8) + offset * 3)).unwrap();
        }
        db.start_trace();
        let out = db.execute(sql).unwrap();
        assert!(out.plan.fused_aggregate, "{sql}");
        (out.rows()[0][0].clone(), db.take_trace())
    };
    let bare = "SELECT COUNT(*), SUM(y) FROM a JOIN b ON a.k = b.k";
    let pushed = "SELECT COUNT(*), SUM(y) FROM a JOIN b ON a.k = b.k WHERE x < 100";
    for algo in [JoinAlgo::Hash, JoinAlgo::Opaque, JoinAlgo::ZeroOm] {
        for sql in [bare, pushed] {
            // offset 0: many matches; offset 100: none. Identical traces.
            let (n0, t0) = run(algo, 0, sql);
            let (n100, t100) = run(algo, 100, sql);
            assert_eq!((n0, n100), (Value::Int(24), Value::Int(0)), "{algo:?}: {sql}");
            assert_eq!(t0, t100, "{algo:?}: join selectivity must not show in the folded trace");
        }
    }

    for sql in [bare, pushed] {
        let (_, trace) = run(JoinAlgo::Hash, 0, sql);
        let writes = written(&trace);
        assert!(writes.is_empty(), "{sql}: a folded hash join writes nothing: {writes:?}");
    }
}

/// A fused build's pass count comes from the filter's bound and the OM
/// budget, and every pass scans both tables whole. `b` has 48 rows, of
/// which `y < 100` holds for `matches`; a 4-row build chunk makes 10 and
/// 12 matches take 3 passes each, so they leave one trace, while 13 take
/// 4. The bound is the filter's run-time first pass's count, which
/// `EXPLAIN ANALYZE` shows.
#[test]
fn fused_build_trace_depends_only_on_the_pass_count() {
    let run = |matches: i64| {
        let entry = 1 + 8 + 8 + 32;
        let mut db = Database::new(DbConfig { om_bytes: 4 * entry, ..DbConfig::default() });
        db.execute("CREATE TABLE a (k INT, x INT) CAPACITY 64").unwrap();
        db.execute("CREATE TABLE b (k INT, y INT) CAPACITY 48").unwrap();
        for i in 0..64 {
            db.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
        }
        for i in 0..48 {
            let y = if i < matches { i } else { 100 + i };
            db.execute(&format!("INSERT INTO b VALUES ({i}, {y})")).unwrap();
        }
        let sql = "SELECT COUNT(*), SUM(x) FROM a JOIN b ON a.k = b.k WHERE y < 100";
        let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let join = plan.rows().iter().filter_map(|r| r[0].as_text()).find(|l| l.contains("Join"));
        let fused = format!("build=Right fused filter, bound {matches}");
        assert!(join.is_some_and(|l| l.contains(&fused)), "{join:?}");
        db.start_trace();
        let out = db.execute(sql).unwrap();
        let trace = db.take_trace();
        assert_eq!(out.rows()[0][0], Value::Int(matches), "{sql}");
        assert!(written(&trace).is_empty(), "{sql}");
        trace
    };
    let three = run(10);
    assert_eq!(three, run(12), "equal pass counts must be indistinguishable");
    assert_ne!(three, run(13), "a fourth pass scans both tables again");
}

/// BDB Q3 over two `uservisits` tables of one size whose date filters
/// pass 30 % and 35 % of the rows: both need one build pass, so the fused
/// join leaves one trace and writes nothing.
#[test]
fn q3_trace_hides_the_date_selectivity() {
    use oblidb::workloads::bdb;
    let run = |share: f64| {
        let mut visits = bdb::uservisits(400, 200, 3);
        let passing = (share * visits.len() as f64) as usize;
        for (i, row) in visits.iter_mut().enumerate() {
            let date = if i < passing { 0 } else { bdb::Q3_DATE_CUTOFF };
            row[3] = Value::Int(date);
        }
        let mut db = Database::new(DbConfig::default());
        let rankings = bdb::rankings(200, 3);
        for (name, schema, rows) in [
            ("rankings", bdb::rankings_schema(), rankings),
            ("uservisits", bdb::uservisits_schema(), visits),
        ] {
            let n = rows.len() as u64;
            db.create_table_with_rows(name, schema, StorageMethod::Flat, None, &rows, n).unwrap();
        }
        db.start_trace();
        let out = db.execute(&bdb::q3_sql()).unwrap();
        assert!(out.plan.fused_aggregate && out.plan.intermediate_rows.is_empty());
        db.take_trace()
    };
    let trace = run(0.30);
    assert!(written(&trace).is_empty(), "Q3 seals nothing");
    assert_eq!(trace, run(0.35), "the date selectivity must not show in Q3's trace");
}

/// A self-join names one stored table on both sides; one side is copied
/// so the two reads do not share a sealed region. The ON clause's sides
/// are attributed by prefix, so `t.k = t.v` joins the FROM side's `v` to
/// the other side's `k`; `v` is unique, as the primary side's key.
#[test]
fn self_join_aggregate_counts_every_pair() {
    let data: Vec<(i64, i64)> = (0..40).map(|i| (i, (i * 7) % 40 + 20)).collect();
    let expected =
        data.iter().map(|(_, v)| data.iter().filter(|(k, _)| k == v).count() as i64).sum::<i64>();
    assert_eq!(expected, 20);
    let mut db = fresh_db(&data, StorageMethod::Flat);
    let out = db.execute("SELECT COUNT(*) FROM t JOIN t ON t.k = t.v").unwrap();
    assert_eq!(out.rows()[0][0], Value::Int(expected));
    assert!(out.plan.fused_aggregate);
}

/// Index point lookups: constant untrusted-access count for any key,
/// present or absent (ORAM randomizes addresses; counts are the invariant).
#[test]
fn index_point_query_count_is_key_independent() {
    // Result sizes are leaked by design, so compare within equal-size
    // classes: any *hit* costs the same as any other hit, any *miss* the
    // same as any other miss — first/last/middle keys included.
    let data: Vec<(i64, i64)> = (0..128).map(|i| (i * 2, i)).collect();
    let mut db = fresh_db(&data, StorageMethod::Indexed);
    let mut hit_counts = std::collections::HashSet::new();
    for probe in [0i64, 2, 120, 254] {
        db.host_mut().reset_stats();
        let out = db.execute(&format!("SELECT * FROM t WHERE k = {probe}")).unwrap();
        assert_eq!(out.len(), 1);
        hit_counts.insert(db.host_mut().stats().total_accesses());
    }
    assert_eq!(hit_counts.len(), 1, "hit cost must not depend on the key");

    let mut miss_counts = std::collections::HashSet::new();
    for probe in [-7i64, 3, 255, 9999] {
        db.host_mut().reset_stats();
        let out = db.execute(&format!("SELECT * FROM t WHERE k = {probe}")).unwrap();
        assert_eq!(out.len(), 0);
        miss_counts.insert(db.host_mut().stats().total_accesses());
    }
    assert_eq!(miss_counts.len(), 1, "miss cost must not depend on the key");
}

/// Index inserts and deletes are padded to worst-case ORAM access counts.
#[test]
fn index_mutation_counts_are_padded() {
    let data: Vec<(i64, i64)> = (0..100).map(|i| (i * 10, i)).collect();
    let mut db = fresh_db(&data, StorageMethod::Indexed);

    // Deletes of present keys: cost must not depend on which key.
    // (The number of padded per-key delete operations equals the match
    // count, which is result-size leakage the paper allows — so hits and
    // misses are compared separately.)
    let mut hit_counts = std::collections::HashSet::new();
    for key in [10i64, 500, 980] {
        db.host_mut().reset_stats();
        let out = db.execute(&format!("DELETE FROM t WHERE k = {key}")).unwrap();
        assert_eq!(out.plan.output_rows, 1);
        hit_counts.insert(db.host_mut().stats().total_accesses());
    }
    assert_eq!(hit_counts.len(), 1, "delete-hit cost must not depend on the key");

    let mut miss_counts = std::collections::HashSet::new();
    for key in [5i64, 15, 123456] {
        db.host_mut().reset_stats();
        let out = db.execute(&format!("DELETE FROM t WHERE k = {key}")).unwrap();
        assert_eq!(out.plan.output_rows, 0);
        miss_counts.insert(db.host_mut().stats().total_accesses());
    }
    assert_eq!(miss_counts.len(), 1, "delete-miss cost must not depend on the key");
}

/// On a `Both` table the planner first walks the index, capped at a match
/// count derived from the public table size, and falls back to the flat
/// scan once a range exceeds the cap. Two datasets of one public shape
/// whose `k >= lo` ranges both exceed it must leave identical traces: the
/// aborted walk costs the same wherever the range starts.
#[test]
fn aborted_index_range_trace_depends_only_on_sizes() {
    let run = |rows: Vec<(i64, i64)>, lo: i64| {
        let mut db = fresh_db(&rows, StorageMethod::Both);
        let sql = format!("SELECT * FROM t WHERE k >= {lo}");
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let scan = plan.rows().iter().filter_map(|r| r[0].as_text()).find(|l| l.contains("Scan"));
        assert!(scan.is_some_and(|l| l.contains("index range, abort cap")), "{scan:?}");
        db.start_trace();
        let out = db.execute(&sql).unwrap();
        assert!(!out.plan.used_index, "the range exceeds the cap: flat fallback");
        (out.len(), db.take_trace())
    };
    let (n, trace) = run((0..64).map(|i| (i, i)).collect(), 40);
    assert_eq!(n, 24);
    // Other values and bound, then the matches at the other end of the
    // flat table.
    for (rows, lo) in [
        ((0..64).map(|i| (7 * i - 3, -i)).collect(), 277),
        ((0..64).map(|i| (63 - i, i)).collect(), 40),
    ] {
        assert_eq!(
            run(rows, lo),
            (n, trace.clone()),
            "aborted index walks must be indistinguishable"
        );
    }
}

/// The planner's choice (the allowed plan leakage) is visible; with the
/// planner pinned, nothing else is.
#[test]
fn forced_algorithms_decouple_plan_from_data() {
    use oblidb::core::SelectAlgo;
    for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash] {
        let run = |shift: i64| {
            let data: Vec<(i64, i64)> = (0..32).map(|i| (i, i)).collect();
            let mut db = fresh_db(&data, StorageMethod::Flat);
            db.config_mut().planner.force_select = Some(algo);
            db.start_trace();
            let out = db
                .execute(&format!("SELECT * FROM t WHERE k >= {shift} AND k < {}", shift + 8))
                .unwrap();
            assert_eq!(out.len(), 8);
            db.take_trace()
        };
        assert_eq!(run(0), run(20), "{algo:?}");
    }
}

/// GROUP BY keeps its groups in the enclave and returns them from there:
/// its trace is the input scan alone, so two tables of one size, with 2
/// and with 40 distinct groups, give one trace, filtered or not.
#[test]
fn group_by_trace_depends_only_on_input_size() {
    let run = |groups: i64, sql: &str| {
        let mut db = Database::new(DbConfig::default());
        db.execute("CREATE TABLE t (g INT, v INT) CAPACITY 64").unwrap();
        for i in 0..64 {
            db.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % groups)).unwrap();
        }
        let audited = db.execute(sql).unwrap();
        let (n, trace) = traced(&mut db, sql);
        assert_eq!(n, audited.len(), "{sql}");
        assert!(db.audit_violations().is_empty(), "{sql}: {:?}", db.audit_violations());
        (n, trace)
    };
    for (sql, few, many) in [
        ("SELECT g, SUM(v) FROM t GROUP BY g", 2, 40),
        ("SELECT g, SUM(v) FROM t WHERE v < 32 GROUP BY g", 2, 32),
    ] {
        let (n_few, t_few) = run(2, sql);
        let (n_many, t_many) = run(40, sql);
        assert_eq!((n_few, n_many), (few, many), "{sql}");
        assert_eq!(t_few, t_many, "{sql}: the group count must not show in the trace");
    }
}
