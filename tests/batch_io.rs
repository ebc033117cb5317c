//! Batched sealed-block I/O: result-equivalence, crossing accounting, and
//! tamper attribution. Seeded-loop property tests — the workspace is
//! dependency-free, so cases come from [`EnclaveRng`] instead of proptest.

use oblidb::core::exec;
use oblidb::core::predicate::{CmpOp, Predicate};
use oblidb::core::table::FlatTable;
use oblidb::core::types::{Column, DataType, Schema, Value};
use oblidb::crypto::aead::AeadKey;
use oblidb::enclave::{AccessEvent, AccessKind, EnclaveRng, Host};
use oblidb::storage::{SealedRegion, SealedScan, StorageError};

/// Random batched write/read sequences produce exactly the bytes a
/// per-block loop would, on `Host`.
#[test]
fn batched_io_is_result_equivalent_to_per_block() {
    let mut rng = EnclaveRng::seed_from_u64(0xBA7C);
    for case in 0..32 {
        let blocks = 4 + rng.below(29) as usize;
        let payload = 1 + rng.below(48) as usize;
        let mut batched_host = Host::new();
        let mut loop_host = Host::new();
        let key = AeadKey([case as u8 + 1; 32]);
        let mut batched =
            SealedRegion::create(&mut batched_host, key.clone(), blocks, payload).unwrap();
        let mut looped = SealedRegion::create(&mut loop_host, key, blocks, payload).unwrap();

        for _ in 0..12 {
            let start = rng.below(blocks as u64);
            let count = 1 + rng.below(blocks as u64 - start) as usize;
            let mut payloads = vec![0u8; count * payload];
            rng.fill(&mut payloads);
            batched.write_batch(&mut batched_host, start, &payloads).unwrap();
            for (i, chunk) in payloads.chunks_exact(payload).enumerate() {
                looped.write(&mut loop_host, start + i as u64, chunk).unwrap();
            }
        }
        // Whole-region batched read equals the per-block loop's bytes.
        let all = batched.read_batch(&mut batched_host, 0, blocks).unwrap().to_vec();
        for i in 0..blocks {
            let expected = looped.read(&mut loop_host, i as u64).unwrap();
            assert_eq!(&all[i * payload..(i + 1) * payload], expected, "case {case} block {i}");
        }
        // Block counters agree; only the crossing counter differs.
        let (b, l) = (batched_host.stats(), loop_host.stats());
        assert_eq!(
            (b.reads, b.writes, b.bytes_read, b.bytes_written),
            (l.reads, l.writes, l.bytes_read, l.bytes_written),
            "case {case}"
        );
        assert!(b.crossings < l.crossings, "case {case}: batching must reduce crossings");
    }
}

/// The chunked scan issues exactly `ceil(blocks / chunk)` crossings while
/// the trace still records one read per block, in order.
#[test]
fn chunked_scan_crosses_once_per_chunk_and_traces_every_block() {
    let mut rng = EnclaveRng::seed_from_u64(0x5EAB);
    for case in 0..24 {
        let blocks = 8 + rng.below(120) as usize;
        let payload = 4 + rng.below(40) as usize;
        let chunk = 1 + rng.below(blocks as u64) as usize;

        let mut host = Host::new();
        let mut region =
            SealedRegion::create(&mut host, AeadKey([9u8; 32]), blocks, payload).unwrap();
        host.reset_stats();
        host.start_trace();
        let mut scan = SealedScan::with_chunk(&region, chunk);
        let mut seen = 0u64;
        while let Some((_, payloads)) = scan.next_chunk(&mut host, &mut region).unwrap() {
            seen += (payloads.len() / payload) as u64;
        }
        let (trace, stats) = (host.take_trace(), host.stats());

        assert_eq!(seen, blocks as u64, "case {case}");
        assert_eq!(
            stats.crossings,
            (blocks as u64).div_ceil(chunk as u64),
            "case {case}: one crossing per {chunk}-block chunk over {blocks} blocks"
        );
        assert_eq!(stats.reads, blocks as u64, "case {case}: every block still read");
        let expected: Vec<AccessEvent> = (0..blocks as u64)
            .map(|index| AccessEvent { region: region.region_id(), index, kind: AccessKind::Read })
            .collect();
        assert_eq!(trace.0, expected, "case {case}: one traced read per block");
    }
}

/// Corrupting any random block surfaces `TamperDetected` with that block's
/// absolute index from inside whatever batch covers it.
#[test]
fn tamper_inside_batch_reports_exact_block() {
    let mut rng = EnclaveRng::seed_from_u64(0x7A3);
    for case in 0..32 {
        let blocks = 8u64;
        let payload = 16usize;
        let mut host = Host::new();
        let mut region =
            SealedRegion::create(&mut host, AeadKey([3u8; 32]), blocks as usize, payload).unwrap();
        let mut data = vec![0u8; blocks as usize * payload];
        rng.fill(&mut data);
        region.write_batch(&mut host, 0, &data).unwrap();

        let victim = rng.below(blocks);
        let byte = rng.next_u64();
        host.adversary_corrupt(region.region_id(), victim, |b| {
            let i = (byte % b.len() as u64) as usize;
            b[i] ^= 1 << (byte % 8) as u8;
        });
        let err = region.read_batch(&mut host, 0, blocks as usize).unwrap_err();
        assert_eq!(
            err,
            StorageError::TamperDetected { region: region.region_id(), index: victim },
            "case {case}"
        );
        // Gather batches attribute the same index.
        let indices: Vec<u64> = (0..blocks).rev().collect();
        let err = region.read_batch_at(&mut host, &indices).unwrap_err();
        assert_eq!(
            err,
            StorageError::TamperDetected { region: region.region_id(), index: victim },
            "case {case} (gather)"
        );
    }
}

/// The batch AEAD's lane schedule is invisible from outside: at the row
/// sizes the engine seals (and a 1-byte payload), for run lengths around
/// the 8-lane group and the 256-block chunk, `write_batch` and
/// `write_batch_at` leave exactly the host bytes a per-block `write` loop
/// leaves, and a tampered block fails `read_batch` at the same absolute
/// index a per-block `read` loop fails at.
#[test]
fn batched_writes_leave_per_block_host_bytes_at_engine_row_sizes() {
    let mut rng = EnclaveRng::seed_from_u64(0x13_AEAD);
    for payload in [1usize, 25, 49, 73] {
        for count in [1usize, 7, 8, 9, 255, 256] {
            let key = AeadKey([payload as u8; 32]);
            let (mut batched_host, mut loop_host) = (Host::new(), Host::new());
            let mut batched =
                SealedRegion::create(&mut batched_host, key.clone(), count, payload).unwrap();
            let mut looped = SealedRegion::create(&mut loop_host, key, count, payload).unwrap();
            let region = batched.region_id();
            assert_eq!(region, looped.region_id(), "same region id, hence same nonces");
            let same_host_bytes = |a: &mut Host, b: &mut Host, what: &str| {
                for i in 0..count as u64 {
                    assert_eq!(
                        a.read(region, i).unwrap().to_vec(),
                        b.read(region, i).unwrap(),
                        "payload {payload} × {count}: block {i} after {what}"
                    );
                }
            };

            let mut data = vec![0u8; count * payload];
            rng.fill(&mut data);
            batched.write_batch(&mut batched_host, 0, &data).unwrap();
            for (i, row) in data.chunks_exact(payload).enumerate() {
                looped.write(&mut loop_host, i as u64, row).unwrap();
            }
            same_host_bytes(&mut batched_host, &mut loop_host, "write_batch");

            // Scatter: every block once, back to front.
            let indices: Vec<u64> = (0..count as u64).rev().collect();
            rng.fill(&mut data);
            batched.write_batch_at(&mut batched_host, &indices, &data).unwrap();
            for (&index, row) in indices.iter().zip(data.chunks_exact(payload)) {
                looped.write(&mut loop_host, index, row).unwrap();
            }
            same_host_bytes(&mut batched_host, &mut loop_host, "write_batch_at");

            // Tamper with one block — and the last one too, which must not
            // win — in both stores, compare, and flip the bits back.
            let last = count as u64 - 1;
            for victim in [0, 7, 8, last].into_iter().filter(|&v| v <= last) {
                let mut hits = vec![victim, last];
                hits.dedup();
                let flip = |batched_host: &mut Host, loop_host: &mut Host| {
                    for &index in &hits {
                        for host in [&mut *batched_host, &mut *loop_host] {
                            host.adversary_corrupt(region, index, |b| b[b.len() / 2] ^= 0x40);
                        }
                    }
                };
                flip(&mut batched_host, &mut loop_host);
                let per_block = (0..count as u64)
                    .find_map(|i| looped.read(&mut loop_host, i).err())
                    .expect("a tampered block fails its read");
                assert_eq!(per_block, StorageError::TamperDetected { region, index: victim });
                assert_eq!(
                    batched.read_batch(&mut batched_host, 0, count).unwrap_err(),
                    per_block,
                    "payload {payload} × {count}: victim {victim}"
                );
                flip(&mut batched_host, &mut loop_host);
            }
            // The stores are whole again and still agree with the data.
            let all = batched.read_batch(&mut batched_host, 0, count).unwrap().to_vec();
            for (&index, row) in indices.iter().zip(data.chunks_exact(payload)) {
                let at = index as usize * payload;
                assert_eq!(&all[at..at + payload], row, "payload {payload} × {count}");
            }
        }
    }
}

fn schema() -> Schema {
    Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)])
}

fn build_flat(host: &mut Host, n: i64) -> FlatTable {
    let s = schema();
    let encoded: Vec<Vec<u8>> =
        (0..n).map(|i| s.encode_row(&[Value::Int(i), Value::Int(i * 3)]).unwrap()).collect();
    FlatTable::from_encoded_rows(host, AeadKey([1u8; 32]), s, &encoded, n as u64).unwrap()
}

/// Sequential-scan operators issue one boundary crossing per chunk — not
/// per block — while still touching every block.
#[test]
fn operators_issue_one_crossing_per_chunk() {
    let n: i64 = 500;
    let mut host = Host::new();
    let mut t = build_flat(&mut host, n);
    let chunk = t.io_chunk_rows() as u64;
    let expected_chunks = (n as u64).div_ceil(chunk);

    // select_large: copy pass (read T, write R) + clear pass (read R,
    // write R) → four chunked streams over n blocks, plus R's creation.
    host.reset_stats();
    let pred = Predicate::Cmp { col: 0, op: CmpOp::Lt, value: Value::Int(10) };
    let out = exec::select_large(&mut host, &mut t, &pred, AeadKey([2u8; 32])).unwrap();
    let s = host.stats();
    assert_eq!(s.total_accesses(), 5 * n as u64, "4 scan passes + zero-init of R");
    assert_eq!(s.crossings, 5 * expected_chunks, "one crossing per chunked run");
    drop(out);

    // A fused aggregate is a single chunked read stream.
    host.reset_stats();
    exec::aggregate(&mut host, &mut t, &[(exec::AggFunc::Count, None)], &Predicate::True).unwrap();
    let s = host.stats();
    assert_eq!(s.reads, n as u64);
    assert_eq!(s.writes, 0);
    assert_eq!(s.crossings, expected_chunks);
}
