//! Oblivious sorting (paper §4.3).
//!
//! A bitonic sorting network makes a fixed, data-independent sequence of
//! compare-exchanges, so sorting sealed blocks with it is oblivious: the
//! adversary sees the same block-pair accesses whatever the data. Both
//! sort-merge joins use it:
//!
//! * The **Opaque join** first quicksorts chunks that fit in *oblivious
//!   memory* and then runs the network at chunk granularity.
//! * The **0-OM join** runs the same network with chunks held in ordinary
//!   (non-oblivious) enclave memory — "this has no impact on obliviousness
//!   but speeds up memory access" (§4.3); with `chunk_rows = 1` it
//!   degenerates to the pure element-wise network.
//!
//! Every compare-exchange reads both blocks and rewrites both (fresh
//! encryptions), hiding whether a swap occurred.

use oblidb_enclave::{EnclaveMemory, HostStats};
use oblidb_storage::SealedRegion;

use crate::error::DbError;
use crate::table::FlatTable;

/// Sorts blocks `[0, n)` of `table` ascending by `key`. `n` must be a
/// power of two (pad with dummy rows keyed `u128::MAX`). `chunk_rows` is
/// the number of rows the enclave may buffer (≥ 1); larger buffers replace
/// network passes with in-enclave sorts of aligned chunks.
pub fn bitonic_sort<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    n: u64,
    key: impl Fn(&[u8]) -> u128,
    chunk_rows: usize,
) -> Result<(), DbError> {
    bitonic_sort_with(host, table, n, key, chunk_rows, false)
}

/// [`bitonic_sort`] with a choice of in-enclave chunk sort:
///
/// * `oblivious_local = false` — quicksort, as the Opaque join uses for
///   chunks held in *oblivious* memory ("using quicksort to accelerate
///   the join may open timing side channels", §4.3);
/// * `oblivious_local = true` — an in-memory bitonic network, as the 0-OM
///   join uses for chunks in ordinary enclave memory, paying extra CPU to
///   stay data-oblivious even against in-enclave timing.
pub fn bitonic_sort_with<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    n: u64,
    key: impl Fn(&[u8]) -> u128,
    chunk_rows: usize,
    oblivious_local: bool,
) -> Result<(), DbError> {
    let _span = oblidb_telemetry::span(oblidb_telemetry::SpanKind::Sort);
    assert!(n.is_power_of_two(), "bitonic sort needs a power-of-two span");
    // Largest power of two ≤ chunk_rows, clamped to the span.
    let chunk = chunk_rows.max(1) as u64;
    let m = (1u64 << (63 - chunk.leading_zeros())).min(n);

    // Whole span fits in the enclave buffer: one load-sort-store.
    if m >= n {
        local_sort(host, table, 0, n, true, oblivious_local, &key)?;
        return Ok(());
    }

    // Phase A: sort each aligned m-chunk locally, alternating directions —
    // equivalent to running the network stages k = 2..m.
    for chunk in 0..(n / m) {
        let start = chunk * m;
        let ascending = chunk % 2 == 0;
        local_sort(host, table, start, m, ascending, oblivious_local, &key)?;
    }

    // Stages k = 2m .. n: strided element passes down to stride m, then
    // finish each stage inside aligned m-chunks (strides < m never cross a
    // chunk boundary, and the direction bit (i & k) is constant within
    // one).
    let mut k = 2 * m;
    while k <= n {
        let mut j = k / 2;
        while j >= m {
            element_pass(host, table, n, j, k, &key)?;
            j /= 2;
        }
        if m > 1 {
            for chunk in 0..(n / m) {
                let start = chunk * m;
                let ascending = (start & k) == 0;
                local_merge(host, table, start, m, ascending, &key)?;
            }
        }
        k *= 2;
    }
    Ok(())
}

/// What [`bitonic_sort_with`] over `n` rows of `row_len` bytes with a
/// `chunk_rows` buffer costs the substrate (either in-enclave chunk sort;
/// neither moves a block): every aligned chunk loaded and stored once in
/// phase A and once per later stage, plus `n/2` gathered-and-scattered
/// pairs per strided element pass.
pub fn bitonic_sort_cost(row_len: usize, n: u64, chunk_rows: usize) -> HostStats {
    let m = (1u64 << (63 - (chunk_rows.max(1) as u64).leading_zeros())).min(n);
    let chunk_trip =
        SealedRegion::read_batch_cost(row_len, m) + SealedRegion::write_batch_cost(row_len, m);
    if m >= n {
        return chunk_trip;
    }
    // Stages k = 2m, 4m, …, n; stage k runs log2(k/m) element passes.
    let stages = u64::from(n.trailing_zeros() - m.trailing_zeros());
    let element_passes = stages * (stages + 1) / 2;
    let local_merges = if m > 1 { stages } else { 0 };
    let exchange = SealedRegion::read_batch_at_cost(row_len, 2)
        + SealedRegion::write_batch_at_cost(row_len, 2);
    chunk_trip * ((n / m) * (1 + local_merges)) + exchange * (element_passes * (n / 2))
}

/// One strided compare-exchange pass over the whole span. Each
/// compare-exchange fetches its (index-determined) block pair in one
/// gather crossing and writes it back in one scatter crossing.
fn element_pass<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    n: u64,
    j: u64,
    k: u64,
    key: &impl Fn(&[u8]) -> u128,
) -> Result<(), DbError> {
    let row_len = table.row_len();
    let mut pair = Vec::with_capacity(2 * row_len);
    for i in 0..n {
        let l = i ^ j;
        if l <= i {
            continue;
        }
        let ascending = (i & k) == 0;
        pair.clear();
        pair.extend_from_slice(table.read_rows_at(host, &[i, l])?);
        let (a, b) = pair.split_at_mut(row_len);
        let swap = (key(a) > key(b)) == ascending;
        // Both blocks are always rewritten — the adversary cannot tell a
        // swap from a hold — and the swap itself is a branch-free masked
        // select, so hit and miss execute the same instructions.
        super::ct::cond_swap_bytes(swap, a, b);
        table.write_rows_at(host, &[i, l], &pair)?;
    }
    Ok(())
}

/// Sorts rows in enclave memory — quicksort, or a full in-memory bitonic
/// network when in-enclave timing obliviousness is wanted (0-OM join).
fn sort_in_memory(rows: &mut [(u128, Vec<u8>)], oblivious: bool) {
    if !oblivious {
        rows.sort_unstable_by_key(|(k, _)| *k);
        return;
    }
    let n = rows.len();
    debug_assert!(n.is_power_of_two());
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j >= 1 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    let ascending = (i & k) == 0;
                    compare_exchange(rows, i, l, ascending);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Branch-free in-memory compare-exchange of rows `i < l`: key and row
/// bytes swap through masked selects, so the comparison outcome never
/// steers a branch or changes which bytes are touched.
#[inline(always)]
fn compare_exchange(rows: &mut [(u128, Vec<u8>)], i: usize, l: usize, ascending: bool) {
    let (lo, hi) = rows.split_at_mut(l);
    let a = &mut lo[i];
    let b = &mut hi[0];
    let swap = (a.0 > b.0) == ascending;
    super::ct::cond_swap_u128(swap, &mut a.0, &mut b.0);
    super::ct::cond_swap_bytes(swap, &mut a.1, &mut b.1);
}

/// Loads an aligned chunk (batched), fully sorts it in enclave memory,
/// stores it back (batched).
fn local_sort<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    start: u64,
    len: u64,
    ascending: bool,
    oblivious: bool,
    key: &impl Fn(&[u8]) -> u128,
) -> Result<(), DbError> {
    let mut rows = load_chunk(host, table, start, len, key)?;
    sort_in_memory(&mut rows, oblivious);
    if !ascending {
        rows.reverse();
    }
    store_chunk(host, table, start, &rows)
}

/// Batched load of rows `[start, start + len)` with their sort keys.
fn load_chunk<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    start: u64,
    len: u64,
    key: &impl Fn(&[u8]) -> u128,
) -> Result<Vec<(u128, Vec<u8>)>, DbError> {
    let row_len = table.row_len();
    let data = table.read_rows(host, start, len as usize)?;
    Ok(data.chunks_exact(row_len).map(|bytes| (key(bytes), bytes.to_vec())).collect())
}

/// Batched store of a sorted chunk back to `[start, start + rows.len())`.
fn store_chunk<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    start: u64,
    rows: &[(u128, Vec<u8>)],
) -> Result<(), DbError> {
    let mut buf = Vec::with_capacity(rows.len() * table.row_len());
    for (_, bytes) in rows {
        buf.extend_from_slice(bytes);
    }
    table.write_rows(host, start, &buf)
}

/// Loads an aligned chunk and applies the remaining network strides
/// (len/2 … 1) in enclave memory — the in-enclave acceleration of §4.3.
fn local_merge<M: EnclaveMemory>(
    host: &mut M,
    table: &mut FlatTable,
    start: u64,
    len: u64,
    ascending: bool,
    key: &impl Fn(&[u8]) -> u128,
) -> Result<(), DbError> {
    let mut rows = load_chunk(host, table, start, len, key)?;
    let n = len as usize;
    let mut j = n / 2;
    while j >= 1 {
        for i in 0..n {
            let l = i ^ j;
            if l > i {
                compare_exchange(&mut rows, i, l, ascending);
            }
        }
        j /= 2;
    }
    store_chunk(host, table, start, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType, Schema, Value};
    use oblidb_crypto::aead::AeadKey;
    use oblidb_enclave::EnclaveRng;
    use oblidb_enclave::Host;

    fn key_fn(schema: &Schema) -> impl Fn(&[u8]) -> u128 + '_ {
        move |bytes| {
            if !Schema::row_used(bytes) {
                return u128::MAX;
            }
            match schema.decode_col(bytes, 0) {
                Value::Int(v) => crate::key::order_u64_from_i64(v) as u128,
                _ => 0,
            }
        }
    }

    fn build(values: &[i64], capacity: u64) -> (Host, FlatTable) {
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
        let mut host = Host::new();
        let rows: Vec<Vec<u8>> =
            values.iter().map(|v| schema.encode_row(&[Value::Int(*v)]).unwrap()).collect();
        let t =
            FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), schema, &rows, capacity)
                .unwrap();
        (host, t)
    }

    fn sorted_values<M: EnclaveMemory>(host: &mut M, t: &mut FlatTable, n: u64) -> Vec<i64> {
        let mut out = Vec::new();
        for i in 0..n {
            let bytes = t.read_row(host, i).unwrap();
            if Schema::row_used(&bytes) {
                out.push(t.schema().decode_col(&bytes, 0).as_int().unwrap());
            }
        }
        out
    }

    #[test]
    fn sorts_random_data_all_chunk_sizes() {
        let mut rng = EnclaveRng::seed_from_u64(3);
        let values: Vec<i64> = (0..64).map(|_| rng.below(1000) as i64 - 500).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        for chunk in [1usize, 2, 4, 8, 16, 64, 100] {
            let (mut host, mut t) = build(&values, 64);
            let schema = t.schema().clone();
            bitonic_sort(&mut host, &mut t, 64, key_fn(&schema), chunk).unwrap();
            assert_eq!(sorted_values(&mut host, &mut t, 64), expected, "chunk {chunk}");
        }
    }

    #[test]
    fn dummies_sort_to_the_end() {
        let (mut host, mut t) = build(&[5, 3, 9], 8); // 5 dummy blocks
        let schema = t.schema().clone();
        bitonic_sort(&mut host, &mut t, 8, key_fn(&schema), 2).unwrap();
        let mut used_flags = Vec::new();
        for i in 0..8 {
            used_flags.push(Schema::row_used(&t.read_row(&mut host, i).unwrap()));
        }
        assert_eq!(used_flags, vec![true, true, true, false, false, false, false, false]);
        assert_eq!(sorted_values(&mut host, &mut t, 8), vec![3, 5, 9]);
    }

    #[test]
    fn access_pattern_is_data_independent() {
        let a_vals: Vec<i64> = (0..32).collect();
        let b_vals: Vec<i64> = (0..32).rev().collect();
        let mut traces = Vec::new();
        for values in [&a_vals, &b_vals] {
            let (mut host, mut t) = build(values, 32);
            let schema = t.schema().clone();
            host.start_trace();
            bitonic_sort(&mut host, &mut t, 32, key_fn(&schema), 4).unwrap();
            traces.push(host.take_trace());
        }
        assert_eq!(traces[0], traces[1], "sorted vs reverse-sorted input traces differ");
    }

    #[test]
    fn larger_chunks_reduce_accesses() {
        let values: Vec<i64> = (0..64).rev().collect();
        let mut counts = Vec::new();
        for chunk in [1usize, 8, 64] {
            let (mut host, mut t) = build(&values, 64);
            let schema = t.schema().clone();
            host.reset_stats();
            bitonic_sort(&mut host, &mut t, 64, key_fn(&schema), chunk).unwrap();
            assert_eq!(host.stats(), bitonic_sort_cost(t.row_len(), 64, chunk), "chunk {chunk}");
            counts.push(host.stats().total_accesses());
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn already_sorted_input_stays_sorted() {
        let values: Vec<i64> = (0..16).collect();
        let (mut host, mut t) = build(&values, 16);
        let schema = t.schema().clone();
        bitonic_sort(&mut host, &mut t, 16, key_fn(&schema), 1).unwrap();
        assert_eq!(sorted_values(&mut host, &mut t, 16), values);
    }

    #[test]
    fn duplicate_keys_ok() {
        let values = vec![5i64, 1, 5, 1, 5, 1, 2, 2];
        let (mut host, mut t) = build(&values, 8);
        let schema = t.schema().clone();
        bitonic_sort(&mut host, &mut t, 8, key_fn(&schema), 2).unwrap();
        assert_eq!(sorted_values(&mut host, &mut t, 8), vec![1, 1, 1, 2, 2, 5, 5, 5]);
    }
}
