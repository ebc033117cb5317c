//! Property-based testing of the oblivious operators: under arbitrary
//! data and predicates, every algorithm must agree with a plain reference
//! implementation, and equal-leakage runs must produce equal traces.
//!
//! The case generator is a seeded [`EnclaveRng`] loop (the workspace is
//! dependency-free, so no proptest); failures print the offending case.

use oblidb_core::exec::{self, AggFunc, RowSink, SortMergeVariant};
use oblidb_core::predicate::{CmpOp, Predicate};
use oblidb_core::table::FlatTable;
use oblidb_core::types::{Column, DataType, Schema, Value};
use oblidb_core::SelectAlgo;
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveRng, Host, OmBudget, DEFAULT_OM_BYTES};

const CASES: usize = 40;

fn schema() -> Schema {
    Schema::new(vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)])
}

fn build(host: &mut Host, rows: &[(i64, i64)]) -> FlatTable {
    let s = schema();
    let encoded: Vec<Vec<u8>> = rows
        .iter()
        .map(|(a, b)| s.encode_row(&[Value::Int(*a), Value::Int(*b)]).unwrap())
        .collect();
    FlatTable::from_encoded_rows(host, AeadKey([1u8; 32]), s, &encoded, rows.len().max(1) as u64)
        .unwrap()
}

#[derive(Debug, Clone)]
struct PredSpec {
    col: usize,
    op: CmpOp,
    value: i64,
}

fn rand_rows(rng: &mut EnclaveRng, min: usize, max: usize) -> Vec<(i64, i64)> {
    let n = min + rng.below((max - min) as u64) as usize;
    (0..n).map(|_| (rng.int_in(-20, 20), rng.int_in(-20, 20))).collect()
}

fn rand_pred(rng: &mut EnclaveRng) -> PredSpec {
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    PredSpec {
        col: rng.below(2) as usize,
        op: ops[rng.below(ops.len() as u64) as usize],
        value: rng.int_in(-20, 20),
    }
}

fn to_pred(spec: &PredSpec) -> Predicate {
    Predicate::Cmp { col: spec.col, op: spec.op, value: Value::Int(spec.value) }
}

fn reference_filter(rows: &[(i64, i64)], spec: &PredSpec) -> Vec<(i64, i64)> {
    use std::cmp::Ordering::*;
    let mut out: Vec<(i64, i64)> = rows
        .iter()
        .filter(|(a, b)| {
            let v = if spec.col == 0 { *a } else { *b };
            let ord = v.cmp(&spec.value);
            match spec.op {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
            }
        })
        .copied()
        .collect();
    out.sort_unstable();
    out
}

fn collect_pairs(host: &mut Host, t: &mut FlatTable) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = t
        .collect_rows(host)
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    out.sort_unstable();
    out
}

/// Every select algorithm returns exactly the reference filter result.
#[test]
fn select_algorithms_match_reference() {
    let mut rng = EnclaveRng::seed_from_u64(0x5E1EC7);
    for case in 0..CASES {
        let rows = rand_rows(&mut rng, 1, 60);
        let spec = rand_pred(&mut rng);
        let expected = reference_filter(&rows, &spec);
        for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash, SelectAlgo::Naive] {
            let mut host = Host::new();
            let om = OmBudget::new(DEFAULT_OM_BYTES);
            let mut t = build(&mut host, &rows);
            let pred = to_pred(&spec);
            let out_rows = expected.len() as u64;
            let key = AeadKey([9u8; 32]);
            let mut out = match algo {
                SelectAlgo::Small => {
                    exec::select_small(&mut host, &om, &mut t, &pred, key, out_rows).unwrap()
                }
                SelectAlgo::Large => exec::select_large(&mut host, &mut t, &pred, key).unwrap(),
                SelectAlgo::Hash => {
                    exec::select_hash(&mut host, &mut t, &pred, key, out_rows).unwrap()
                }
                SelectAlgo::Naive => exec::select_naive(
                    &mut host,
                    &om,
                    &mut t,
                    &pred,
                    key,
                    out_rows,
                    EnclaveRng::seed_from_u64(7),
                )
                .unwrap(),
                _ => unreachable!(),
            };
            assert_eq!(
                collect_pairs(&mut host, &mut out),
                expected,
                "case {case}: {algo:?} on {rows:?} with {spec:?}"
            );
        }
    }
}

/// The padded select returns the reference result for any pad ≥ |R|.
#[test]
fn padded_select_matches_reference() {
    let mut rng = EnclaveRng::seed_from_u64(0x9AD);
    for case in 0..CASES {
        let rows = rand_rows(&mut rng, 1, 50);
        let spec = rand_pred(&mut rng);
        let extra = rng.below(20);
        let expected = reference_filter(&rows, &spec);
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut t = build(&mut host, &rows);
        let pad = expected.len() as u64 + extra;
        let mut out = exec::select_small(
            &mut host,
            &om,
            &mut t,
            &to_pred(&spec),
            AeadKey([9u8; 32]),
            pad.max(1),
        )
        .unwrap();
        assert!(out.capacity() >= pad.max(1), "case {case}");
        assert_eq!(
            collect_pairs(&mut host, &mut out),
            expected,
            "case {case}: {rows:?} with {spec:?} pad {pad}"
        );
    }
}

/// Aggregates agree with a plain fold, for any predicate.
#[test]
fn aggregates_match_reference() {
    let mut rng = EnclaveRng::seed_from_u64(0xA66);
    for case in 0..CASES {
        let rows = rand_rows(&mut rng, 1, 60);
        let spec = rand_pred(&mut rng);
        let matching = reference_filter(&rows, &spec);
        let mut host = Host::new();
        let mut t = build(&mut host, &rows);
        let pred = to_pred(&spec);

        let items = [(AggFunc::Count, None), (AggFunc::Sum, Some(1)), (AggFunc::Min, Some(0))];
        let got = exec::aggregate(&mut host, &mut t, &items, &pred).unwrap();
        assert_eq!(got[0], Value::Int(matching.len() as i64), "case {case}");
        assert_eq!(got[1], Value::Int(matching.iter().map(|(_, b)| b).sum::<i64>()), "case {case}");
        if !matching.is_empty() {
            assert_eq!(
                got[2],
                Value::Int(matching.iter().map(|(a, _)| *a).min().unwrap()),
                "case {case}"
            );
        }
    }
}

/// All three joins agree with a nested-loop reference on arbitrary
/// (possibly non-FK) key distributions — T1 keys are deduplicated to
/// preserve the FK precondition of the sort-merge variants.
/// GROUP BY returns its groups in ascending encoded-key order: the sort
/// compares each key's first eight bytes as one word, then whole keys, so
/// `Text(16)` keys alike in their first eight bytes still sort right.
#[test]
fn groups_sharing_an_eight_byte_prefix_sort_on_the_whole_key() {
    let s =
        Schema::new(vec![Column::new("g", DataType::Text(16)), Column::new("v", DataType::Int)]);
    let keys = ["checkin-station9", "checkin-", "checkin-station1", "checkin-s", "checkin!"];
    let encoded: Vec<Vec<u8>> = [&keys[..], &["checkio", "checkin-s"]]
        .concat()
        .iter()
        .map(|k| s.encode_row(&[Value::Text(k.to_string()), Value::Int(1)]).unwrap())
        .collect();
    let mut host = Host::new();
    let mut t =
        FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), s, &encoded, 8).unwrap();
    let om = OmBudget::new(DEFAULT_OM_BYTES);
    let rows =
        exec::group_aggregate(&mut host, &om, &mut t, 0, AggFunc::Count, None, &Predicate::True)
            .unwrap();
    let got: Vec<(&str, i64)> =
        rows.iter().map(|r| (r[0].as_text().unwrap(), r[1].as_int().unwrap())).collect();
    assert_eq!(
        got,
        [
            ("checkin!", 1),
            ("checkin-", 1),
            ("checkin-s", 2),
            ("checkin-station1", 1),
            ("checkin-station9", 1),
            ("checkio", 1),
        ]
    );
}

#[test]
fn joins_match_reference() {
    let mut rng = EnclaveRng::seed_from_u64(0x101);
    for case in 0..CASES {
        let t1_keys: std::collections::BTreeSet<i64> = {
            let n = 1 + rng.below(11) as usize;
            (0..n).map(|_| rng.int_in(-10, 10)).collect()
        };
        let t2: Vec<(i64, i64)> = {
            let n = rng.below(30) as usize;
            (0..n).map(|_| (rng.int_in(-10, 10), rng.int_in(0, 100))).collect()
        };
        let t1: Vec<(i64, i64)> = t1_keys.iter().map(|k| (*k, k * 2)).collect();
        let mut expected = Vec::new();
        for (k1, v1) in &t1 {
            for (k2, v2) in &t2 {
                if k1 == k2 {
                    expected.push((*k1, *v1, *k2, *v2));
                }
            }
        }
        expected.sort_unstable();

        for variant in [
            None,
            Some(SortMergeVariant::Opaque),
            Some(SortMergeVariant::ZeroOm { scratch_rows: 2 }),
        ] {
            let mut host = Host::new();
            let om = OmBudget::new(4096);
            let mut left = build(&mut host, &t1);
            let mut right = build(&mut host, &t2);
            let (key, sink) = (AeadKey([9u8; 32]), RowSink::seal());
            let mut out = match variant {
                None => {
                    exec::hash_join(&mut host, &om, &mut left, 0, &mut right, 0, key, sink, None)
                }
                Some(v) => {
                    exec::sort_merge_join(&mut host, &om, &mut left, 0, &mut right, 0, key, sink, v)
                }
            }
            .unwrap()
            .unwrap();
            let mut got: Vec<(i64, i64, i64, i64)> = out
                .collect_rows(&mut host)
                .unwrap()
                .iter()
                .map(|r| {
                    (
                        r[0].as_int().unwrap(),
                        r[1].as_int().unwrap(),
                        r[2].as_int().unwrap(),
                        r[3].as_int().unwrap(),
                    )
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "case {case}: {variant:?}");
        }
    }
}

/// Bitonic sort equals std sort for any data and chunk size.
#[test]
fn bitonic_matches_std_sort() {
    let mut rng = EnclaveRng::seed_from_u64(0xB170);
    for case in 0..CASES {
        let values: Vec<i64> = {
            let n = 1 + rng.below(63) as usize;
            (0..n).map(|_| rng.int_in(-1000, 1000)).collect()
        };
        let chunk = 1 + rng.below(69) as usize;
        let mut host = Host::new();
        let rows: Vec<(i64, i64)> = values.iter().map(|v| (*v, 0)).collect();
        let mut t = build(&mut host, &rows);
        let n = (values.len() as u64).max(2).next_power_of_two();
        t.grow(&mut host, AeadKey([2u8; 32]), n).unwrap();
        let s = t.schema().clone();
        exec::bitonic_sort(
            &mut host,
            &mut t,
            n,
            move |bytes| {
                if !Schema::row_used(bytes) {
                    return u128::MAX;
                }
                match s.decode_col(bytes, 0) {
                    Value::Int(v) => oblidb_core::key::order_u64_from_i64(v) as u128,
                    _ => 0,
                }
            },
            chunk,
        )
        .unwrap();

        let mut got = Vec::new();
        for i in 0..n {
            let bytes = t.read_row(&mut host, i).unwrap();
            if Schema::row_used(&bytes) {
                got.push(t.schema().decode_col(&bytes, 0).as_int().unwrap());
            }
        }
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(got, expected, "case {case}: chunk {chunk}");
    }
}

/// Trace-equality, property-tested: two datasets with the same size and
/// match count produce identical adversary transcripts under every
/// deterministic select algorithm.
#[test]
fn equal_leakage_implies_equal_traces() {
    for n in (4usize..32).step_by(3) {
        for k in 1usize..4 {
            for shift in 0usize..2 {
                let k = k.min(n);
                // Dataset A: first k rows match (value 1); dataset B: last k.
                let data_a: Vec<(i64, i64)> =
                    (0..n).map(|i| (i as i64, i64::from(i < k))).collect();
                let data_b: Vec<(i64, i64)> =
                    (0..n).map(|i| (i as i64 + shift as i64, i64::from(i >= n - k))).collect();
                for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash] {
                    let mut traces = Vec::new();
                    for data in [&data_a, &data_b] {
                        let mut host = Host::new();
                        let om = OmBudget::new(DEFAULT_OM_BYTES);
                        let mut t = build(&mut host, data);
                        let pred = Predicate::Cmp { col: 1, op: CmpOp::Eq, value: Value::Int(1) };
                        host.start_trace();
                        let key = AeadKey([9u8; 32]);
                        match algo {
                            SelectAlgo::Small => {
                                exec::select_small(&mut host, &om, &mut t, &pred, key, k as u64)
                                    .unwrap();
                            }
                            SelectAlgo::Large => {
                                exec::select_large(&mut host, &mut t, &pred, key).unwrap();
                            }
                            SelectAlgo::Hash => {
                                exec::select_hash(&mut host, &mut t, &pred, key, k as u64).unwrap();
                            }
                            _ => unreachable!(),
                        }
                        traces.push(host.take_trace());
                    }
                    assert_eq!(traces[0], traces[1], "n={n} k={k} shift={shift} {algo:?}");
                }
            }
        }
    }
}
