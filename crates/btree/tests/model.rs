//! Property-based model test: the oblivious B+ tree must behave exactly
//! like `std::collections::BTreeMap` under arbitrary operation sequences,
//! while keeping its per-operation ORAM access counts key-independent.
//!
//! Cases are generated from a seeded [`EnclaveRng`] (the workspace is
//! dependency-free, so no proptest); failures print the offending case.

use oblidb_btree::{ObTree, OpKind};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveRng, Host, OmBudget, DEFAULT_OM_BYTES};
use oblidb_oram::PosMapKind;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    Get(u8),
    Update(u8, u8),
    Range(u8, u8, u64),
}

fn rand_op(rng: &mut EnclaveRng) -> Op {
    let k = rng.below(256) as u8;
    let v = rng.below(256) as u8;
    match rng.below(5) {
        0 => Op::Insert(k, v),
        1 => Op::Delete(k),
        2 => Op::Get(k),
        3 => Op::Update(k, v),
        _ => Op::Range(k.min(v), k.max(v), rng.below(8)),
    }
}

#[test]
fn matches_btreemap_model() {
    let mut rng = EnclaveRng::seed_from_u64(0xB7EE);
    for case in 0..48 {
        let ops: Vec<Op> = {
            let n = 1 + rng.below(119) as usize;
            (0..n).map(|_| rand_op(&mut rng)).collect()
        };
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut tree = ObTree::new(
            &mut host,
            AeadKey([1u8; 32]),
            300,
            4,
            4,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(99),
        )
        .unwrap();
        let mut model: BTreeMap<u128, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let created = tree.insert(&mut host, k as u128, &[v; 4]).unwrap();
                    let existed = model.insert(k as u128, vec![v; 4]).is_some();
                    assert_eq!(created, !existed, "case {case}: {op:?}");
                }
                Op::Delete(k) => {
                    let deleted = tree.delete(&mut host, k as u128).unwrap();
                    assert_eq!(deleted, model.remove(&(k as u128)).is_some(), "case {case}");
                }
                Op::Get(k) => {
                    let got = tree.get(&mut host, k as u128).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        model.get(&(k as u128)).map(|v| v.as_slice()),
                        "case {case}: {op:?}"
                    );
                }
                Op::Update(k, v) => {
                    let updated = tree.update(&mut host, k as u128, &[v; 4]).unwrap();
                    let present = model.contains_key(&(k as u128));
                    assert_eq!(updated, present, "case {case}: {op:?}");
                    if present {
                        model.insert(k as u128, vec![v; 4]);
                    }
                }
                Op::Range(lo, hi, cap) => {
                    let expected: Vec<(u128, Vec<u8>)> = model
                        .range(lo as u128..=hi as u128)
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    let got = tree.range_leaky(&mut host, lo as u128, hi as u128).unwrap();
                    assert_eq!(got, expected, "case {case}: {op:?}");
                    // The capped walk the planner probes with: the same
                    // records within the cap, an abort past it.
                    let capped =
                        tree.range_leaky_capped(&mut host, lo as u128, hi as u128, cap).unwrap();
                    let within = expected.len() as u64 <= cap;
                    assert_eq!(capped, within.then_some(expected), "case {case}: {op:?}");
                }
            }
            assert_eq!(tree.len(), model.len() as u64, "case {case}");
        }
    }
}

#[test]
fn access_counts_depend_only_on_height_and_op() {
    let mut rng = EnclaveRng::seed_from_u64(0xACC);
    for case in 0..12 {
        let keys: Vec<u8> = {
            let n = 2 + rng.below(38) as usize;
            (0..n).map(|_| rng.below(256) as u8).collect()
        };
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut tree = ObTree::new(
            &mut host,
            AeadKey([1u8; 32]),
            300,
            4,
            4,
            PosMapKind::Direct,
            &om,
            EnclaveRng::seed_from_u64(4),
        )
        .unwrap();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(&mut host, (*k as u128) << 8 | i as u128, &[0u8; 4]).unwrap();
        }
        // All gets cost the same untrusted accesses, hit or miss.
        let mut counts = std::collections::HashSet::new();
        for probe in [0u128, 1, 77, u128::from(u64::MAX)] {
            host.reset_stats();
            tree.get(&mut host, probe).unwrap();
            counts.insert(host.stats().total_accesses());
        }
        assert_eq!(counts.len(), 1, "case {case}: {keys:?}");
        // And the observed count matches the public budget formula.
        host.reset_stats();
        tree.get(&mut host, 42).unwrap();
        let per_access = host.stats().total_accesses() / tree.op_budget(OpKind::Get);
        assert!(per_access >= 1, "case {case}");
    }
}
