//! Cross-engine equivalence: ObliDB under every storage method, the
//! Opaque-style baseline, and the plain engine must return the same
//! answers on the same workloads. (Performance differs; answers must not.)

use oblidb::baselines::opaque::OpaqueEngine;
use oblidb::baselines::plain::PlainTable;
use oblidb::core::exec::AggFunc;
use oblidb::core::predicate::{CmpOp, Predicate};
use oblidb::core::{Database, DbConfig, StorageMethod, Value};
use oblidb::workloads::{bdb, synthetic};

const N: usize = 600;

fn sorted_ids(rows: &[Vec<Value>], col: usize) -> Vec<i64> {
    let mut out: Vec<i64> = rows.iter().map(|r| r[col].as_int().unwrap()).collect();
    out.sort_unstable();
    out
}

#[test]
fn selection_equivalent_across_engines() {
    let rows = synthetic::table(N, 8, 3);
    let schema = synthetic::schema(8);
    let pred = |s: &oblidb::core::Schema| {
        Predicate::cmp(s, "val", CmpOp::Lt, Value::Int((N / 4) as i64)).unwrap()
    };

    // Reference: plain engine.
    let plain = PlainTable::new(schema.clone(), rows.clone());
    let expected = sorted_ids(&plain.select(&pred(&plain.schema)), 0);

    // ObliDB under each storage method.
    for method in [StorageMethod::Flat, StorageMethod::Indexed, StorageMethod::Both] {
        let mut db = Database::new(DbConfig::default());
        db.create_table_with_rows("t", schema.clone(), method, Some("id"), &rows, N as u64)
            .unwrap();
        let out = db.execute(&format!("SELECT * FROM t WHERE val < {}", N / 4)).unwrap();
        assert_eq!(sorted_ids(out.rows(), 0), expected, "{method:?}");
    }

    // Opaque baseline.
    let mut eng = OpaqueEngine::new(1 << 20, 9);
    let mut t = eng.load_table(schema.clone(), &rows).unwrap();
    let mut out = eng.select(&mut t, &pred(&schema)).unwrap();
    let got = out.collect_rows(&mut eng.host).unwrap();
    assert_eq!(sorted_ids(&got, 0), expected, "opaque");
}

#[test]
fn aggregates_equivalent_across_engines() {
    let rows = synthetic::table(N, 8, 5);
    let schema = synthetic::schema(8);
    let pred = Predicate::cmp(&schema, "id", CmpOp::Ge, Value::Int(100)).unwrap();

    let plain = PlainTable::new(schema.clone(), rows.clone());
    let expected_sum = plain.aggregate(AggFunc::Sum, Some(1), &pred);
    let expected_count = plain.aggregate(AggFunc::Count, None, &pred);

    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows("t", schema.clone(), StorageMethod::Flat, None, &rows, N as u64)
        .unwrap();
    let out = db.execute("SELECT SUM(val), COUNT(*) FROM t WHERE id >= 100").unwrap();
    assert_eq!(out.rows()[0][0], expected_sum);
    assert_eq!(out.rows()[0][1], expected_count);

    let mut eng = OpaqueEngine::new(1 << 20, 9);
    let mut t = eng.load_table(schema, &rows).unwrap();
    assert_eq!(eng.aggregate(&mut t, AggFunc::Sum, Some(1), &pred).unwrap(), expected_sum);
}

#[test]
fn group_by_equivalent_across_engines() {
    let schema = oblidb::core::Schema::new(vec![
        oblidb::core::Column::new("g", oblidb::core::DataType::Int),
        oblidb::core::Column::new("v", oblidb::core::DataType::Int),
    ]);
    let rows: Vec<Vec<Value>> =
        (0..N as i64).map(|i| vec![Value::Int(i % 7), Value::Int(i)]).collect();

    let plain = PlainTable::new(schema.clone(), rows.clone());
    let expected = plain.group_aggregate(0, AggFunc::Sum, Some(1), &Predicate::True);

    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows("t", schema.clone(), StorageMethod::Flat, None, &rows, N as u64)
        .unwrap();
    let out = db.execute("SELECT g, SUM(v) FROM t GROUP BY g").unwrap();
    let got: Vec<(Value, Value)> =
        out.rows().iter().map(|r| (r[0].clone(), r[1].clone())).collect();
    assert_eq!(got, expected);

    let mut eng = OpaqueEngine::new(1 << 20, 9);
    let mut t = eng.load_table(schema, &rows).unwrap();
    let mut opaque_out =
        eng.group_aggregate(&mut t, 0, AggFunc::Sum, Some(1), &Predicate::True).unwrap();
    let mut got: Vec<(Value, Value)> = opaque_out
        .collect_rows(&mut eng.host)
        .unwrap()
        .iter()
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect();
    got.sort_by_key(|(g, _)| g.as_int().unwrap());
    assert_eq!(got, expected);
}

#[test]
fn bdb_q3_equivalent_to_plain_reference() {
    // Scaled-down BDB Q3: join + date filter + aggregates.
    let scale = 400;
    let rankings = bdb::rankings(scale, 11);
    let visits = bdb::uservisits(scale, scale, 11);

    // Plain reference.
    let pr = PlainTable::new(bdb::rankings_schema(), rankings.clone());
    let pv = PlainTable::new(bdb::uservisits_schema(), visits.clone());
    let filtered: Vec<Vec<Value>> =
        pv.rows.iter().filter(|r| r[3].as_int().unwrap() < bdb::Q3_DATE_CUTOFF).cloned().collect();
    let pv_f = PlainTable::new(bdb::uservisits_schema(), filtered);
    let joined = pr.join(0, &pv_f, 2);
    let n_joined = joined.len();
    let sum_rev: f64 = joined.iter().map(|r| r[7].as_float().unwrap()).sum();
    let avg_rank: f64 =
        joined.iter().map(|r| r[1].as_int().unwrap() as f64).sum::<f64>() / n_joined as f64;

    // ObliDB.
    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows(
        "rankings",
        bdb::rankings_schema(),
        StorageMethod::Flat,
        None,
        &rankings,
        scale as u64,
    )
    .unwrap();
    db.create_table_with_rows(
        "uservisits",
        bdb::uservisits_schema(),
        StorageMethod::Flat,
        None,
        &visits,
        scale as u64,
    )
    .unwrap();
    let out = db.execute(&bdb::q3_sql()).unwrap();
    let got_avg = out.rows()[0][0].as_float().unwrap();
    let got_sum = out.rows()[0][1].as_float().unwrap();
    assert!((got_avg - avg_rank).abs() < 1e-6, "avg {got_avg} vs {avg_rank}");
    assert!((got_sum - sum_rev).abs() < 1e-3, "sum {got_sum} vs {sum_rev}");
}

/// An aggregate over a join folds each joined row in the join's own loop
/// instead of materializing the join. Whatever the algorithm, the number
/// of hash passes, the side the WHERE is pushed to, or whether a side is
/// index-probed (a join chosen at run time), the fold must equal folding
/// the rows the same join materializes (`SELECT *`), floats to the bit,
/// and its integer aggregates must equal the plain engine's. The fold
/// order is the materialized result order, except where the planner fuses
/// the WHERE on `r` into a hash build on `r`: that fold runs per build
/// pass in probe order (`lk`), then build order (`x`). A fused join lists
/// no intermediate at all.
#[test]
fn folded_join_aggregates_equal_the_materialized_join() {
    use oblidb::core::{Column, DataType, JoinAlgo, Schema};

    let l_schema =
        Schema::new(vec![Column::new("lk", DataType::Int), Column::new("i", DataType::Int)]);
    let r_schema = Schema::new(vec![
        Column::new("rk", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("x", DataType::Int),
    ]);
    let l_rows: Vec<Vec<Value>> =
        (0..40).map(|n| vec![Value::Int(n), Value::Int(n * 37 % 101 - 50)]).collect();
    let r_rows: Vec<Vec<Value>> = (0..90)
        .map(|n| vec![Value::Int(n % 50), Value::Float(n as f64 * 0.1 + 1.0 / 3.0), Value::Int(n)])
        .collect();
    let entry = l_schema.row_len() + 32;
    // (label, WHERE, l indexed on lk)
    let cases = [
        ("no WHERE", "", false),
        ("WHERE on l", " WHERE lk < 30", false),
        ("WHERE on r", " WHERE x >= 20", false),
        ("index-probed l", " WHERE lk < 30", true),
    ];
    let aggregate = "SELECT COUNT(*), SUM(i), MIN(i), MAX(i), AVG(f) FROM l JOIN r ON l.lk = r.rk";
    let star = "SELECT * FROM l JOIN r ON l.lk = r.rk";

    for algo in [JoinAlgo::Hash, JoinAlgo::Opaque, JoinAlgo::ZeroOm] {
        // One hash pass, then a chunk of 12 rows: 3 or 4 passes.
        for om_bytes in [1 << 20, 12 * entry] {
            for (label, where_clause, indexed) in cases {
                let ctx = format!("{algo:?}, OM {om_bytes} B, {label}");
                let run = |sql: String| {
                    let mut config = DbConfig { om_bytes, ..DbConfig::default() };
                    config.planner.force_join = Some(algo);
                    let mut db = Database::new(config);
                    let l_method =
                        if indexed { StorageMethod::Indexed } else { StorageMethod::Flat };
                    db.create_table_with_rows(
                        "l",
                        l_schema.clone(),
                        l_method,
                        Some("lk"),
                        &l_rows,
                        40,
                    )
                    .unwrap();
                    db.create_table_with_rows(
                        "r",
                        r_schema.clone(),
                        StorageMethod::Flat,
                        None,
                        &r_rows,
                        90,
                    )
                    .unwrap();
                    db.execute(&sql).unwrap()
                };
                let folded = run(format!("{aggregate}{where_clause}"));
                let materialized = run(format!("{star}{where_clause}"));

                // Fold the materialized rows [lk, i, rk, f, x] in fold order.
                let fused = !where_clause.is_empty()
                    && !indexed
                    && folded.plan.intermediate_rows.is_empty();
                let mut rows = materialized.rows().to_vec();
                assert!(!rows.is_empty(), "{ctx}");
                if fused && label == "WHERE on r" {
                    // Build pass k keeps passing rows k·chunk … (k+1)·chunk − 1.
                    let chunk = (om_bytes / (r_schema.row_len() + 32)).max(1) as i64;
                    let pass = |x: i64| (x - 20) / chunk;
                    rows.sort_by_key(|r| {
                        let x = r[4].as_int().unwrap();
                        (pass(x), r[0].as_int().unwrap(), x)
                    });
                }
                let ints: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
                let sum_f = rows.iter().fold(0.0f64, |acc, r| acc + r[3].as_float().unwrap());
                let expected = [
                    Value::Int(rows.len() as i64),
                    Value::Int(ints.iter().sum()),
                    Value::Int(*ints.iter().min().unwrap()),
                    Value::Int(*ints.iter().max().unwrap()),
                    Value::Float(sum_f / rows.len() as f64),
                ];
                let got = &folded.rows()[0];
                assert_eq!(got[..4], expected[..4], "{ctx}");
                assert_eq!(
                    got[4].as_float().unwrap().to_bits(),
                    expected[4].as_float().unwrap().to_bits(),
                    "{ctx}: AVG must be bit-identical"
                );

                // The plain engine agrees on the integer aggregates.
                let keep = |row: &[Value]| match label {
                    "WHERE on l" | "index-probed l" => row[0].as_int().unwrap() < 30,
                    "WHERE on r" => row[4].as_int().unwrap() >= 20,
                    _ => true,
                };
                let pl = PlainTable::new(l_schema.clone(), l_rows.clone());
                let pr = PlainTable::new(r_schema.clone(), r_rows.clone());
                let plain: Vec<i64> = pl
                    .join(0, &pr, 0)
                    .iter()
                    .filter(|row| keep(row))
                    .map(|row| row[1].as_int().unwrap())
                    .collect();
                assert_eq!(
                    got[..4],
                    [
                        Value::Int(plain.len() as i64),
                        Value::Int(plain.iter().sum()),
                        Value::Int(*plain.iter().min().unwrap()),
                        Value::Int(*plain.iter().max().unwrap()),
                    ],
                    "{ctx}: plain"
                );

                // The same plan, minus the join's output table.
                assert!(folded.plan.fused_aggregate, "{ctx}");
                assert_eq!(folded.plan.join_algo, Some(algo), "{ctx}");
                assert_eq!(folded.plan.used_index, indexed, "{ctx}");
                let (join_rows, inputs) = materialized.plan.intermediate_rows.split_last().unwrap();
                assert_eq!(*join_rows, rows.len() as u64, "{ctx}");
                if algo == JoinAlgo::Hash && om_bytes == 1 << 20 && label.starts_with("WHERE") {
                    assert!(fused, "{ctx}: one build pass fuses the filter");
                }
                let listed: &[u64] = if fused { &[] } else { inputs };
                assert_eq!(
                    folded.plan.intermediate_rows, listed,
                    "{ctx}: no join output is listed"
                );
            }
        }
    }
}

/// Aggregates folded over a join against the plain engine, over seeded
/// random foreign-key tables (`l`'s keys unique, `r`'s repeating or
/// missing): COUNT, SUM, MIN, MAX and AVG over INT and FLOAT columns of
/// both sides, with the WHERE on `l`, on `r` or absent, under each forced
/// join algorithm and the planner's own choice, with one build pass and
/// with at least three. Integers must match exactly and floats within
/// 1e-9 relative: a fused build folds in its own order.
#[test]
fn folded_join_with_filter_matches_plain_on_random_tables() {
    use oblidb::core::{Column, DataType, JoinAlgo, Schema};
    use oblidb::enclave::EnclaveRng;

    let side = |name: &str| {
        let col = |c: &str, dtype| Column::new(format!("{name}{c}"), dtype);
        Schema::new(vec![
            col("k", DataType::Int),
            col("i", DataType::Int),
            col("f", DataType::Float),
        ])
    };
    let (l_schema, r_schema) = (side("l"), side("r"));
    let joined = l_schema.join("l", &r_schema, "r");
    let items = [
        ("COUNT(*)", AggFunc::Count, None),
        ("SUM(li)", AggFunc::Sum, Some(1)),
        ("SUM(rf)", AggFunc::Sum, Some(5)),
        ("MIN(ri)", AggFunc::Min, Some(4)),
        ("MIN(lf)", AggFunc::Min, Some(2)),
        ("MAX(li)", AggFunc::Max, Some(1)),
        ("MAX(rf)", AggFunc::Max, Some(5)),
        ("AVG(ri)", AggFunc::Avg, Some(4)),
        ("AVG(lf)", AggFunc::Avg, Some(2)),
    ];
    let select = items.iter().map(|(sql, ..)| *sql).collect::<Vec<_>>().join(", ");
    // Both sides have 25-byte rows: 4 per build chunk, so ≥ 3 passes.
    let small_om = 4 * (l_schema.row_len() + 32);
    let seeds: &[u64] = if cfg!(debug_assertions) { &[1, 2] } else { &[1, 2, 3, 4, 5, 6, 7, 8] };

    for &seed in seeds {
        let mut rng = EnclaveRng::seed_from_u64(seed);
        let value = |rng: &mut EnclaveRng, n: u64| rng.below(2 * n + 1) as i64 - n as i64;
        let row = |rng: &mut EnclaveRng, k: i64| {
            let (i, f) = (value(rng, 1_000), value(rng, 10_000));
            vec![Value::Int(k), Value::Int(i), Value::Float(f as f64 / 7.0)]
        };
        let (n_l, n_r) = (25 + rng.below(10) as usize, 60 + rng.below(60) as usize);
        let mut keys: Vec<i64> = (0..n_l as i64).map(|i| 3 * i - 40).collect();
        for i in (1..n_l).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let l_rows: Vec<Vec<Value>> = keys.iter().map(|&k| row(&mut rng, k)).collect();
        let r_rows: Vec<Vec<Value>> = (0..n_r)
            .map(|_| {
                // About one row in eight matches no `l` key.
                let at = rng.below(n_l as u64 * 8 / 7) as usize;
                let k = keys.get(at).copied().unwrap_or(3 * at as i64 - 39);
                row(&mut rng, k)
            })
            .collect();
        let plain = PlainTable::new(
            joined.clone(),
            PlainTable::new(l_schema.clone(), l_rows.clone()).join(
                0,
                &PlainTable::new(r_schema.clone(), r_rows.clone()),
                0,
            ),
        );
        let wheres = [
            (String::new(), Predicate::True),
            (
                " WHERE li < 250".into(),
                Predicate::cmp(&joined, "l.li", CmpOp::Lt, Value::Int(250)).unwrap(),
            ),
            (
                " WHERE ri >= -300".into(),
                Predicate::cmp(&joined, "r.ri", CmpOp::Ge, Value::Int(-300)).unwrap(),
            ),
        ];

        for om_bytes in [1 << 20, small_om] {
            for algo in [None, Some(JoinAlgo::Hash), Some(JoinAlgo::Opaque), Some(JoinAlgo::ZeroOm)]
            {
                let mut config = DbConfig { om_bytes, ..DbConfig::default() };
                config.planner.force_join = algo;
                let mut db = Database::new(config);
                for (name, schema, rows) in [("l", &l_schema, &l_rows), ("r", &r_schema, &r_rows)] {
                    let n = rows.len() as u64;
                    db.create_table_with_rows(
                        name,
                        schema.clone(),
                        StorageMethod::Flat,
                        None,
                        rows,
                        n,
                    )
                    .unwrap();
                }
                for (where_sql, pred) in &wheres {
                    let sql = format!("SELECT {select} FROM l JOIN r ON l.lk = r.rk{where_sql}");
                    let ctx = format!("seed {seed}, OM {om_bytes} B, {algo:?}: {sql}");
                    let out = db.execute(&sql).unwrap();
                    assert!(out.plan.fused_aggregate, "{ctx}");
                    for ((item, func, col), got) in items.iter().zip(&out.rows()[0]) {
                        let want = plain.aggregate(*func, *col, pred);
                        match (got, &want) {
                            (Value::Float(a), Value::Float(b)) => assert!(
                                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                                "{ctx}: {item} = {a}, plain {b}"
                            ),
                            _ => assert_eq!(got, &want, "{ctx}: {item}"),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn mixed_mutations_keep_storages_equivalent() {
    // Interleave inserts/updates/deletes on a Both table; flat and index
    // reads must agree afterwards.
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE t (k INT, v INT) STORAGE = BOTH INDEX ON k CAPACITY 256").unwrap();
    for i in 0..60 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
    }
    db.execute("DELETE FROM t WHERE k >= 50").unwrap();
    db.execute("UPDATE t SET v = -1 WHERE k < 10").unwrap();
    for i in 100..110 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 7)")).unwrap();
    }

    // Point read through the index.
    let a = db.execute("SELECT * FROM t WHERE k = 105").unwrap();
    assert!(a.plan.used_index);
    assert_eq!(a.rows()[0][1], Value::Int(7));
    // Scan through the flat copy (non-key predicate).
    let b = db.execute("SELECT * FROM t WHERE v = -1").unwrap();
    assert!(!b.plan.used_index);
    assert_eq!(b.len(), 10);
    assert_eq!(db.table_rows("t").unwrap(), 60);
}

/// A value as an exactly comparable string: floats by their bits.
fn exact(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        Value::Text(s) => format!("t{s}"),
    }
}

fn exact_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Vec<Vec<String>> {
    rows.into_iter().map(|r| r.iter().map(exact).collect()).collect()
}

/// GROUP BY against the plain engine over seeded random tables: every
/// aggregate function over INT and FLOAT, INT keys whose byte order is not
/// their numeric order (negatives, values ≥ 256), TEXT keys with multi-byte
/// and full-width UTF-8, with and without WHERE, ORDER BY … DESC LIMIT over
/// the group root, and a GROUP BY over a join. Results are compared as
/// ordered lists, floats to the bit: the output order is ascending encoded
/// key bytes.
#[test]
fn group_by_matches_plain_on_random_tables() {
    use oblidb::core::{Column, DataType, Schema};
    use oblidb::enclave::EnclaveRng;

    const INT_KEYS: [i64; 10] = [-70_000, -300, -1, 0, 1, 255, 256, 257, 1_000, 65_536];
    const TEXT_KEYS: [&str; 8] = ["a", "b", "ab", "é", "Zürich", "日本", "ｆｕｌｌ", "ÿ"];
    let schema = Schema::new(vec![
        Column::new("gi", DataType::Int),
        Column::new("gt", DataType::Text(12)),
        Column::new("vi", DataType::Int),
        Column::new("vf", DataType::Float),
        Column::new("w", DataType::Int),
    ]);
    let d_schema =
        Schema::new(vec![Column::new("k", DataType::Int), Column::new("name", DataType::Text(12))]);
    let aggs = [
        ("COUNT(*)", AggFunc::Count, None),
        ("COUNT(vi)", AggFunc::Count, Some(2)),
        ("SUM(vi)", AggFunc::Sum, Some(2)),
        ("SUM(vf)", AggFunc::Sum, Some(3)),
        ("MIN(vi)", AggFunc::Min, Some(2)),
        ("MIN(vf)", AggFunc::Min, Some(3)),
        ("MAX(vi)", AggFunc::Max, Some(2)),
        ("MAX(vf)", AggFunc::Max, Some(3)),
        ("AVG(vi)", AggFunc::Avg, Some(2)),
        ("AVG(vf)", AggFunc::Avg, Some(3)),
    ];
    let seeds: &[u64] = if cfg!(debug_assertions) { &[1, 2] } else { &[1, 2, 3, 4, 5, 6, 7, 8] };

    for &seed in seeds {
        let mut rng = EnclaveRng::seed_from_u64(seed);
        let n = 120 + rng.below(120) as usize;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let gi = INT_KEYS[rng.below(INT_KEYS.len() as u64) as usize];
                let gt = TEXT_KEYS[rng.below(TEXT_KEYS.len() as u64) as usize];
                vec![
                    Value::Int(gi),
                    Value::Text(gt.into()),
                    Value::Int(rng.below(1_001) as i64 - 500),
                    Value::Float((rng.below(2_001) as f64 - 1_000.0) / 7.0),
                    Value::Int(rng.below(100) as i64),
                ]
            })
            .collect();
        // One name per INT key, some shared: the join's dimension side.
        let d_rows: Vec<Vec<Value>> = INT_KEYS
            .iter()
            .map(|&k| {
                let name = TEXT_KEYS[rng.below(4) as usize];
                vec![Value::Int(k), Value::Text(name.into())]
            })
            .collect();
        let mut db = Database::new(DbConfig::default());
        db.create_table_with_rows("t", schema.clone(), StorageMethod::Flat, None, &rows, n as u64)
            .unwrap();
        db.create_table_with_rows(
            "d",
            d_schema.clone(),
            StorageMethod::Flat,
            None,
            &d_rows,
            d_rows.len() as u64,
        )
        .unwrap();
        let plain = PlainTable::new(schema.clone(), rows.clone());
        let w_lt_40 = Predicate::cmp(&schema, "w", CmpOp::Lt, Value::Int(40)).unwrap();

        for (group_col, g) in [(0, "gi"), (1, "gt")] {
            for (item, func, agg_col) in aggs {
                for (where_sql, pred) in [("", &Predicate::True), (" WHERE w < 40", &w_lt_40)] {
                    let sql = format!("SELECT {g}, {item} FROM t{where_sql} GROUP BY {g}");
                    let want: Vec<Vec<Value>> = plain
                        .group_aggregate(group_col, func, agg_col, pred)
                        .into_iter()
                        .map(|(k, v)| vec![k, v])
                        .collect();
                    let got = db.execute(&sql).unwrap();
                    assert_eq!(exact_rows(got.rows()), exact_rows(&want), "seed {seed}: {sql}");

                    // ORDER BY over the group root, as the engine defines
                    // it: a stable sort, reversed, then the limit.
                    let sql = format!("{sql} ORDER BY {g} DESC LIMIT 3");
                    let mut want = want;
                    want.sort_by(|a, b| a[0].cmp_total(&b[0]));
                    want.reverse();
                    want.truncate(3);
                    let got = db.execute(&sql).unwrap();
                    assert_eq!(exact_rows(got.rows()), exact_rows(&want), "seed {seed}: {sql}");
                }
            }
        }

        // GROUP BY over a join: the dimension side's keys are unique.
        let joined = PlainTable::new(
            d_schema.join("d", &schema, "t"),
            PlainTable::new(d_schema.clone(), d_rows.clone()).join(0, &plain, 0),
        );
        for (item, func, agg_col) in
            [("COUNT(*)", AggFunc::Count, None), ("SUM(t.vi)", AggFunc::Sum, Some(4))]
        {
            let sql = format!("SELECT d.name, {item} FROM d JOIN t ON d.k = t.gi GROUP BY d.name");
            let want: Vec<Vec<Value>> = joined
                .group_aggregate(1, func, agg_col, &Predicate::True)
                .into_iter()
                .map(|(k, v)| vec![k, v])
                .collect();
            let got = db.execute(&sql).unwrap();
            assert_eq!(exact_rows(got.rows()), exact_rows(&want), "seed {seed}: {sql}");
        }
    }
}

/// Root selects against the plain engine over seeded random tables, flat
/// and BOTH (indexed on `id`), padded and not: with an OM budget the
/// matches fit in, the first pass is the whole select and reports its
/// operator; with one of three rows, most of them overflow to a sealing
/// operator. With and without WHERE, and with ORDER BY the unique key …
/// LIMIT. Unordered results are compared as sets, floats to the bit.
#[test]
fn root_selects_match_plain_on_random_tables() {
    use oblidb::core::padding::PaddingConfig;
    use oblidb::core::{Column, DataType, Schema, SelectAlgo};
    use oblidb::enclave::EnclaveRng;

    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("v", DataType::Int),
        Column::new("f", DataType::Float),
        Column::new("s", DataType::Text(8)),
    ]);
    let tight_om = 3 * schema.row_len();
    // Under the tight budget: first passes that fit, and that overflow.
    let seeds: &[u64] = if cfg!(debug_assertions) { &[1, 2] } else { &[1, 2, 3, 4, 5, 6, 7, 8] };
    let (mut fitted, mut overflowed) = (0, 0);
    for &seed in seeds {
        let mut rng = EnclaveRng::seed_from_u64(seed);
        let n = 40 + rng.below(60) as usize;
        let capacity = n as u64 + rng.below(20);
        let mut ids: Vec<i64> = (0..n as i64).map(|i| 2 * i - 30).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let rows: Vec<Vec<Value>> = ids
            .iter()
            .map(|&id| {
                let text = ["a", "b", "c"][rng.below(3) as usize].repeat(1 + rng.below(8) as usize);
                vec![
                    Value::Int(id),
                    Value::Int(rng.below(20) as i64),
                    Value::Float((rng.below(2_001) as f64 - 1_000.0) / 7.0),
                    Value::Text(text),
                ]
            })
            .collect();
        let plain = PlainTable::new(schema.clone(), rows.clone());
        let (x, lo) = (rng.below(20) as i64, 2 * rng.below(n as u64) as i64 - 30);
        let cmp = |col: &str, op, v| Predicate::cmp(&schema, col, op, Value::Int(v)).unwrap();
        let range = Predicate::And(
            Box::new(cmp("id", CmpOp::Ge, lo)),
            Box::new(cmp("id", CmpOp::Lt, lo + 12)),
        );
        let wheres = [
            (String::new(), Predicate::True),
            (format!(" WHERE v < {x}"), cmp("v", CmpOp::Lt, x)),
            (format!(" WHERE v = {x}"), cmp("v", CmpOp::Eq, x)),
            (format!(" WHERE id >= {lo} AND id < {}", lo + 12), range),
        ];
        for method in [StorageMethod::Flat, StorageMethod::Both] {
            let load = |config| {
                let mut db = Database::new(config);
                db.create_table_with_rows("t", schema.clone(), method, Some("id"), &rows, capacity)
                    .unwrap();
                db
            };
            // The OM the table holds for good: a BOTH table's position map.
            let held = load(DbConfig::default()).om().used();
            for padding in [None, Some(PaddingConfig { pad_rows: n as u64 })] {
                for om_bytes in [1 << 20, held + tight_om] {
                    let tight = om_bytes != 1 << 20;
                    let mut db = load(DbConfig { om_bytes, padding, ..DbConfig::default() });
                    for (where_sql, pred) in &wheres {
                        let mut want = plain.select(pred);
                        let sql = format!("SELECT * FROM t{where_sql}");
                        let ctx =
                            format!("seed {seed}, {method:?}, {padding:?}, OM {om_bytes} B: {sql}");
                        db.host_mut().reset_stats();
                        let out = db.execute(&sql).unwrap();
                        let mut got = exact_rows(out.rows());
                        got.sort();
                        let mut sorted = exact_rows(&want);
                        sorted.sort();
                        assert_eq!(got, sorted, "{ctx}");
                        // On a flat table only an overflowing first pass
                        // writes (an index walk writes, aborted or not).
                        let flat = method == StorageMethod::Flat;
                        let sealed = flat && db.host_mut().stats().writes > 0;
                        if tight {
                            *if sealed { &mut overflowed } else { &mut fitted } += 1;
                        } else {
                            let algo = if padding.is_some() {
                                SelectAlgo::Padded
                            } else {
                                SelectAlgo::Small
                            };
                            assert_eq!(out.plan.select_algo, Some(algo), "{ctx}");
                            assert!(!sealed, "{ctx}: {} matches fit OM", want.len());
                        }

                        want.sort_by_key(|r| r[0].as_int().unwrap());
                        let limit = 1 + rng.below(8) as usize;
                        for desc in [false, true] {
                            let sql = format!(
                                "{sql} ORDER BY id{} LIMIT {limit}",
                                if desc { " DESC" } else { "" }
                            );
                            let mut want = want.clone();
                            if desc {
                                want.reverse();
                            }
                            want.truncate(limit);
                            let got = db.execute(&sql).unwrap();
                            assert_eq!(exact_rows(got.rows()), exact_rows(&want), "{ctx}: {sql}");
                        }
                    }
                }
            }
        }
    }
    assert!(fitted > 0 && overflowed > 0, "tight OM: {fitted} fitted, {overflowed} overflowed");
}

/// Preparing a root select over a flat table touches no memory: its
/// preliminary scan is its own first pass, at run time.
#[test]
fn preparing_a_root_flat_select_touches_no_memory() {
    let rows = synthetic::table(N, 8, 3);
    let mut db = Database::new(DbConfig::default());
    db.create_table_with_rows(
        "t",
        synthetic::schema(8),
        StorageMethod::Flat,
        None,
        &rows,
        N as u64,
    )
    .unwrap();
    let before = db.host_mut().stats();
    for sql in [
        "SELECT * FROM t",
        "SELECT id FROM t WHERE val < 150 ORDER BY id LIMIT 3",
        "EXPLAIN SELECT * FROM t WHERE val = 7",
    ] {
        db.prepare(sql).unwrap();
        assert_eq!(db.host_mut().stats(), before, "{sql}");
    }
}

/// Prepare moves no block, whatever the SELECT: a root filter over a flat
/// table and over an index, an aggregate, a GROUP BY, a folded join with
/// its filter on either side, a materialized join with a filtered side, a
/// join over an index side, a forced select and padding mode all prepare
/// and `EXPLAIN` with the host's counters and trace unchanged. Every
/// filter counts its matches in its run-time first pass.
#[test]
fn preparing_any_select_moves_no_block() {
    use oblidb::core::padding::PaddingConfig;
    use oblidb::core::SelectAlgo;

    let selects = [
        "SELECT * FROM f WHERE v < 20",
        "SELECT * FROM i WHERE k < 5",
        "SELECT COUNT(*), SUM(v) FROM f WHERE v < 20",
        "SELECT k, SUM(v) FROM f WHERE v < 20 GROUP BY k",
        "SELECT COUNT(*), SUM(v) FROM d JOIN f ON d.k = f.k WHERE name < 9",
        "SELECT COUNT(*), SUM(v) FROM d JOIN f ON d.k = f.k WHERE v < 20",
        "SELECT * FROM d JOIN f ON d.k = f.k WHERE v < 20",
        "SELECT * FROM i JOIN f ON i.k = f.k WHERE v < 20",
    ];
    let mut forced = DbConfig::default();
    forced.planner.force_select = Some(SelectAlgo::Large);
    let padded = DbConfig { padding: Some(PaddingConfig { pad_rows: 24 }), ..DbConfig::default() };
    for (mode, config) in [("default", DbConfig::default()), ("forced", forced), ("padded", padded)]
    {
        let mut db = Database::new(config);
        db.execute("CREATE TABLE d (k INT, name INT) CAPACITY 16").unwrap();
        db.execute("CREATE TABLE f (k INT, v INT) CAPACITY 48").unwrap();
        db.execute("CREATE TABLE i (k INT, w INT) STORAGE = INDEXED INDEX ON k").unwrap();
        for n in 0..48 {
            db.execute(&format!("INSERT INTO f VALUES ({}, {n})", n % 16)).unwrap();
        }
        for n in 0..16 {
            db.execute(&format!("INSERT INTO d VALUES ({n}, {n})")).unwrap();
            db.execute(&format!("INSERT INTO i VALUES ({n}, {n})")).unwrap();
        }
        for sql in selects {
            let before = db.host_mut().stats();
            db.start_trace();
            db.prepare(sql).unwrap();
            let explain = db.execute(&format!("EXPLAIN {sql}")).unwrap();
            let trace = db.take_trace();
            assert!(!explain.is_empty(), "{mode}: {sql}");
            assert_eq!(db.host_mut().stats(), before, "{mode}: {sql}");
            assert!(trace.0.is_empty(), "{mode}: {sql}: {} accesses", trace.0.len());
            assert!(db.execute(sql).is_ok(), "{mode}: {sql}");
        }
    }
}
