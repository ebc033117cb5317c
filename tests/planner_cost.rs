//! Planner-parity properties for the cost-calibrated planner:
//!
//! 1. **Count exactness** — every operator's count from public sizes
//!    (`plan::cost::{select_cost, join_cost}`) equals the real operator's
//!    measured `HostStats` on `Host`, field for field, over a seeded grid
//!    of shapes; and through the engine, `explain()`'s estimates equal the
//!    measured actuals for *every* SELECT algorithm, forced one at a time.
//!    An off-by-one in any chunk, segment, pass or stage count fails here.
//! 2. **Never worse than closed-form** — across randomized shapes, the
//!    engine's choice never costs more (measured, host-weighted) than the
//!    operator the paper's closed-form rule (`baselines::paper_rules`)
//!    would take, run by forcing it: for SELECT via `force_select`
//!    (`cost_based_choice_never_exceeds_closed_form`) and for JOIN via
//!    `force_join` (`cost_based_join_never_exceeds_closed_form`).
//! 3. **Substrate-calibrated divergence** (acceptance) — the same query
//!    picks a different, and cheaper-by-weighted-crossings, operator under
//!    the disk profile than under the host profile; and the conformance
//!    property (byte-identical results + traces across substrates) holds
//!    through the prepare/execute path when the profiles agree.

use oblidb::baselines::paper_rules;
use oblidb::core::exec::{self, select, SortMergeVariant};
use oblidb::core::plan::cost::{join_cost, select_cost, JoinAlgo, JoinShape, SelectShape};
use oblidb::core::plan::{PlanNode, SelectChoice};
use oblidb::core::predicate::CmpOp;
use oblidb::core::table::FlatTable;
use oblidb::core::{Column, CostProfile, DataType, Database, DbConfig, Predicate, SelectAlgo};
use oblidb::core::{Schema, StorageMethod, Value};
use oblidb::crypto::aead::AeadKey;
use oblidb::enclave::{EnclaveRng, Host, HostStats, OmBudget};
use oblidb::storage::batch_chunk_blocks;

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

/// Two row widths with different batch geometry: `batch_chunk_blocks`
/// clamps the narrow one to 256 rows and leaves the wide one below it.
fn widths() -> [Schema; 2] {
    [
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("pad", DataType::Text(1500)),
        ]),
    ]
}

/// `capacity` used rows of `schema` whose `id` column reads `id(i)`.
fn table(host: &mut Host, schema: &Schema, capacity: u64, id: impl Fn(u64) -> i64) -> FlatTable {
    let rows: Vec<Vec<u8>> = (0..capacity)
        .map(|i| {
            let other = match schema.columns[1].dtype {
                DataType::Int => Value::Int(i as i64),
                _ => Value::Text(format!("row {i}")),
            };
            schema.encode_row(&[Value::Int(id(i)), other]).unwrap()
        })
        .collect();
    FlatTable::from_encoded_rows(host, AeadKey([0x5A; 32]), schema.clone(), &rows, capacity)
        .unwrap()
}

/// What running `op` adds to `host`'s counters.
fn measured(host: &mut Host, op: impl FnOnce(&mut Host)) -> HostStats {
    host.reset_stats();
    op(host);
    host.stats()
}

/// 1. Every SELECT operator's count equals its measured cost on `Host`
///    over a seeded grid — capacity 1, chunk − 1, chunk, chunk + 1 and
///    3·chunk + 7 at both widths; |R| of 0, 1 (Hash's single bucket, every
///    row colliding), 2, past the chunk (Continuous wrapping below and above
///    it), the `large_threshold` edge and all rows; a budget of one to
///    three passes' worth of rows (multi-pass Small and Padded). Through
///    the engine, each forced operator's plan estimate equals the measured
///    actual.
#[test]
fn estimates_match_actuals_for_every_select_algorithm() {
    let mut rng = EnclaveRng::seed_from_u64(0x5E1E_C7ED);
    for (w, schema) in widths().into_iter().enumerate() {
        let row_len = schema.row_len();
        let chunk = batch_chunk_blocks(row_len) as u64;
        for capacity in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
            // Unoptimized AEAD is slow: debug builds skip the 3·chunk + 7
            // table of wide rows and run one seeded |R| per capacity.
            if cfg!(debug_assertions) && w == 1 && capacity > chunk + 1 {
                continue;
            }
            let large_edge = (0.9 * capacity as f64).ceil() as u64;
            let mut sizes = vec![0, 1, 2, chunk + 5, large_edge, capacity];
            sizes.retain(|&m| m <= capacity);
            sizes.sort_unstable();
            sizes.dedup();
            if cfg!(debug_assertions) {
                sizes = vec![sizes[rng.below(sizes.len() as u64) as usize]];
            }
            for matches in sizes {
                let lo = rng.below(capacity - matches + 1) as i64;
                // A buffer of |R|, |R|/2 or |R|/3 rows: one to three passes.
                let passes = 1 + rng.below(3);
                let om_bytes = matches.div_ceil(passes) as usize * row_len;
                let out_key = AeadKey([rng.below(256) as u8; 32]);
                let pad = matches + rng.below(3);
                for algo in [
                    SelectAlgo::Small,
                    SelectAlgo::Large,
                    SelectAlgo::Continuous,
                    SelectAlgo::Hash,
                    SelectAlgo::Naive,
                    SelectAlgo::Padded,
                ] {
                    if algo == SelectAlgo::Naive && w == 1 {
                        continue; // ORAM buckets of wide rows: slow, and no new geometry
                    }
                    let mut host = Host::new();
                    let mut input = table(&mut host, &schema, capacity, |i| i as i64);
                    let ge = Predicate::cmp(&schema, "id", CmpOp::Ge, Value::Int(lo)).unwrap();
                    let lt =
                        Predicate::cmp(&schema, "id", CmpOp::Lt, Value::Int(lo + matches as i64))
                            .unwrap();
                    let pred = Predicate::And(Box::new(ge), Box::new(lt));
                    let om =
                        OmBudget::new(if algo == SelectAlgo::Naive { 1 << 20 } else { om_bytes });
                    let key = out_key.clone();
                    let actual = measured(&mut host, |h| {
                        let out = match algo {
                            SelectAlgo::Small => {
                                exec::select_small(h, &om, &mut input, &pred, key, matches)
                            }
                            SelectAlgo::Large => exec::select_large(h, &mut input, &pred, key),
                            SelectAlgo::Continuous => {
                                exec::select_continuous(h, &mut input, &pred, key, matches)
                            }
                            SelectAlgo::Hash => {
                                exec::select_hash(h, &mut input, &pred, key, matches)
                            }
                            SelectAlgo::Naive => exec::select_naive(
                                h,
                                &om,
                                &mut input,
                                &pred,
                                key,
                                matches,
                                EnclaveRng::seed_from_u64(7),
                            ),
                            SelectAlgo::Padded => {
                                select::select_padded(h, &om, &mut input, &pred, key, pad)
                            }
                        }
                        .unwrap();
                        assert_eq!(out.num_rows(), matches.min(pad), "{algo:?} result");
                    });
                    let shape = SelectShape {
                        schema: schema.clone(),
                        capacity,
                        rows: capacity,
                        matches: if algo == SelectAlgo::Padded { pad } else { matches },
                        continuous: matches > 0,
                        om_bytes,
                        out_key: out_key.clone(),
                    };
                    assert_eq!(
                        select_cost(algo, &shape),
                        actual,
                        "{algo:?}: capacity {capacity}, |R| {matches}, row {row_len} B, OM {om_bytes} B"
                    );
                }
            }
        }
    }

    // The engine wires the same counts into every forced plan.
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
            (est.reads, est.writes, est.crossings, est.bytes),
            (actual.reads, actual.writes, actual.crossings, actual.bytes),
            "{algo:?}: counted estimate must equal measured cost"
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

/// 2, join half: across a seeded grid of foreign-key table sizes and OM
/// budgets (zero, below one row, a few rows, and all of T1), the engine's
/// join never costs more (measured, host-weighted) than the one the
/// closed-form rule (`paper_rules::choose_join`) would take, run by
/// forcing it. Reports how often the two picks differ.
#[test]
fn cost_based_join_never_exceeds_closed_form() {
    const OMS: [usize; 6] = [0, 40, 64, 96, 128, 1 << 20];
    let [schema, _] = widths();
    let row_len = schema.row_len();
    let mut rng = EnclaveRng::seed_from_u64(0x701_2B1E);
    let cases = if cfg!(debug_assertions) { OMS.len() } else { 4 * OMS.len() };
    let mut disagreements = 0;
    for case in 0..cases {
        let n1 = 16 + rng.below(240);
        let n2 = 4 + rng.below(400);
        let om = OMS[case % OMS.len()];
        let primary: Vec<Vec<Value>> =
            (0..n1 as i64).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        let foreign: Vec<Vec<Value>> =
            (0..n2 as i64).map(|i| vec![Value::Int(i % n1 as i64), Value::Int(i)]).collect();

        let run_with = |force: Option<JoinAlgo>| {
            let mut config = DbConfig { om_bytes: om, ..DbConfig::default() };
            config.planner.force_join = force;
            let mut db = Database::new(config);
            for (name, rows) in [("d", &primary), ("f", &foreign)] {
                let capacity = rows.len() as u64;
                db.create_table_with_rows(
                    name,
                    schema.clone(),
                    StorageMethod::Flat,
                    None,
                    rows,
                    capacity,
                )
                .unwrap();
            }
            let mut stmt = db.prepare("SELECT * FROM d JOIN f ON d.id = f.id").unwrap();
            assert_eq!(stmt.run().unwrap().len() as u64, n2, "FK join matches every foreign row");
            match stmt.plan().select_root().unwrap() {
                PlanNode::Join(j) => (j.choice.algo().unwrap(), j.actual.unwrap()),
                other => panic!("expected join root, got {other:?}"),
            }
        };
        let (costed_algo, costed) = run_with(None);
        let rule = paper_rules::choose_join(n1, n2, row_len, 18 + row_len, om);
        let (closed_algo, closed) = run_with(Some(rule));
        assert_eq!(closed_algo, rule);
        assert!(
            costed.weighted <= closed.weighted + 1e-6,
            "case {case} ({n1} × {n2}, OM {om} B): costed {costed_algo:?} = {} must not exceed \
             closed-form {closed_algo:?} = {}",
            costed.weighted,
            closed.weighted,
        );
        if costed_algo != rule {
            disagreements += 1;
            println!(
                "case {case} ({n1} × {n2}, OM {om} B): engine {costed_algo:?} = {:.0}, \
                 rule {rule:?} = {:.0} ({:.2}×)",
                costed.weighted,
                closed.weighted,
                closed.weighted / costed.weighted,
            );
        }
    }
    println!(
        "the engine and the closed-form join rule disagree in {disagreements} of {cases} cases"
    );
    assert!(disagreements > 0, "a grid where the rule always agrees compares nothing");
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

/// Joins are costed by the same machinery. Every join operator's count
/// equals its measured cost on `Host` over a seeded grid — power-of-two and
/// other side capacities, both widths (so the output's write runs split
/// T2's chunks), a zero budget, a budget smaller than one row, and budgets
/// or scratch covering the whole union (a single local sort) — and the
/// engine's chosen join carries that count as its estimate.
#[test]
fn join_estimates_match_actuals() {
    let [narrow, wide] = widths();
    let mut rng = EnclaveRng::seed_from_u64(0x701_4C05);
    // (left, right, OM budget, 0-OM scratch rows)
    let mut cases = vec![
        (&narrow, 16, &narrow, 16, 1usize << 20, 1usize),
        (&narrow, 5, &narrow, 11, 0, 3),
        (&wide, 3, &narrow, 29, wide.row_len() - 1, 64),
        (&narrow, 7, &wide, 9, 5 * (wide.row_len() + 18), 2),
        (&narrow, 1, &narrow, 1, 1 << 10, 1),
        (&wide, 2, &narrow, 300, 1 << 20, 128),
    ];
    if !cfg!(debug_assertions) {
        cases.push((&narrow, 37, &narrow, 300, 40 * 64, 4));
    }
    for (ls, lcap, rs, rcap, om_bytes, scratch_rows) in cases {
        let shape = JoinShape {
            left_schema: ls.clone(),
            left_capacity: lcap,
            right_schema: rs.clone(),
            right_capacity: rcap,
            om_bytes,
            zero_om_scratch_rows: scratch_rows,
        };
        let keys = rng.below(lcap + 3);
        for algo in [JoinAlgo::Hash, JoinAlgo::Opaque, JoinAlgo::ZeroOm] {
            let mut host = Host::new();
            let mut t1 = table(&mut host, ls, lcap, |i| i as i64);
            let mut t2 = table(&mut host, rs, rcap, |i| ((i * 7) % (keys + 1)) as i64);
            let om = OmBudget::new(om_bytes);
            let key = AeadKey([0x77; 32]);
            let actual = measured(&mut host, |h| {
                match algo {
                    JoinAlgo::Hash => exec::hash_join(h, &om, &mut t1, 0, &mut t2, 0, key),
                    JoinAlgo::Opaque => exec::sort_merge_join(
                        h,
                        &om,
                        &mut t1,
                        0,
                        &mut t2,
                        0,
                        key,
                        SortMergeVariant::Opaque,
                    ),
                    JoinAlgo::ZeroOm => exec::sort_merge_join(
                        h,
                        &om,
                        &mut t1,
                        0,
                        &mut t2,
                        0,
                        key,
                        SortMergeVariant::ZeroOm { scratch_rows },
                    ),
                }
                .unwrap();
            });
            assert_eq!(
                join_cost(algo, &shape),
                actual,
                "{algo:?}: {lcap} × {rcap} rows of {} × {} B, OM {om_bytes} B, scratch {scratch_rows}",
                ls.row_len(),
                rs.row_len()
            );
        }
    }

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
        (est.reads, est.writes, est.crossings, est.bytes),
        (actual.reads, actual.writes, actual.crossings, actual.bytes),
        "join counted estimate must equal measured cost"
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

/// Planner calibration probes a live substrate and yields usable weights.
#[test]
fn calibration_runs_on_host() {
    let p = CostProfile::calibrate("host", &mut Host::new()).unwrap();
    assert_eq!(p.read_block, 1.0);
    assert!(p.crossing >= 1.0);
    assert!(p.write_block > 0.0);
}
