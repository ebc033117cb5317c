//! Oblivious join algorithms (paper §4.3).
//!
//! * [`hash_join`] — block-partitioned oblivious hash join: chunks of the
//!   build side that fit in oblivious memory become an in-enclave hash
//!   table, and every row of the other side probes each chunk once, so the
//!   access pattern depends only on the table sizes and the budget.
//! * [`sort_merge_join`] — the Opaque join and its 0-OM variant: union the
//!   tables, obliviously sort by join key, then one linear merge scan over
//!   the union. The two variants differ only in whether the sort's chunk
//!   buffer is charged to oblivious memory (Opaque) or lives in ordinary
//!   enclave memory (0-OM, chunk of 1 by default).
//!
//! Both are foreign-key joins: T1 (the FROM side) is the primary side and
//! its join keys are unique; T2's may repeat. Each loop emits into a
//! [`RowSink`]: a sealing sink materializes the joined table, one output
//! block per position (dummies included); a fold sink feeds each real
//! joined row straight into an [`AggFold`](super::AggFold) and writes
//! nothing, so an aggregate over a join costs no output table.
//!
//! When T1's keys repeat, what comes back depends on the orientation:
//! * built on T1 (the unfused hash join), a probe of T2 matches, in each
//!   chunk holding its key, the last T1 row of that key there;
//! * sort-merge matches each T2 row with the T1 row of its key that sorts
//!   last;
//! * a fused build ([`FusedFilter`], either side) chains every build row of
//!   a key, so each probe folds all of its matches: the full inner join.
//!
//! Sort keys hash the join value (SipHash-2-4 of the encoded column bytes)
//! so text joins group correctly; the merge verifies true byte equality,
//! making a hash collision harmless for matching (it only costs adjacency,
//! with probability ≈ 2⁻⁶⁴).

use oblidb_crypto::aead::AeadKey;
use oblidb_crypto::SipHash24;
use oblidb_enclave::{EnclaveMemory, HostStats, OmBudget};
use oblidb_storage::{batch_chunk_blocks, SealedRegion};

use super::select::FirstPass;
use super::RowSink;
use crate::error::DbError;
use crate::plan::cost::{JoinShape, JoinSide};
use crate::plan::FusedFilter;
use crate::table::FlatTable;
use crate::types::{Column, Schema};

/// Byte range of an encoded column value (the join key's canonical form).
fn key_range(schema: &Schema, col: usize) -> std::ops::Range<usize> {
    let off = schema.col_offset(col);
    off..off + schema.columns[col].dtype.width()
}

/// Output schema of a join: all of T1's columns then all of T2's.
fn join_schema(s1: &Schema, s2: &Schema) -> Schema {
    s1.join("t1", s2, "t2")
}

/// The sort-merge joins' union row: `[used][tag][key u128][padded
/// original row]`, wide enough for a row of either side.
fn union_schema(s1: &Schema, s2: &Schema) -> Schema {
    let payload = s1.row_len().max(s2.row_len());
    Schema::new(vec![Column::new("u", crate::types::DataType::Text(1 + 16 + payload))])
}

/// Emits one join position into `sink`: the join of used rows `r1` and
/// `r2`, both inner used flags stripped, assembled in `row` (its own flag
/// set), or else `dummy`.
fn emit(sink: &mut RowSink<'_, '_>, row: &mut [u8], dummy: &[u8], hit: Option<(&[u8], &[u8])>) {
    match hit {
        Some((r1, r2)) => {
            row[1..r1.len()].copy_from_slice(&r1[1..]);
            row[r1.len()..].copy_from_slice(&r2[1..]);
            sink.push(row);
        }
        None => sink.push(dummy),
    }
}

/// A join's dummy output row and the scratch row each hit is assembled
/// in.
fn output_rows(schema: &Schema) -> (Vec<u8>, Vec<u8>) {
    let dummy = schema.dummy_row();
    let mut row = dummy.clone();
    row[0] = 1;
    (dummy, row)
}

/// Bytes of oblivious memory one build row takes: the row and its index
/// entry.
pub fn build_entry_len(row_len: usize) -> usize {
    row_len + 32
}

/// Build rows per pass over `rows` rows: what `om_bytes` holds, at least
/// one, at most all.
fn build_chunk(rows: u64, entry_len: usize, om_bytes: usize) -> u64 {
    (((rows as usize).saturating_mul(entry_len).min(om_bytes) / entry_len).max(1) as u64).min(rows)
}

/// Oblivious hash join (paper §4.3), emitting into `sink`; returns the
/// table a sealing sink built. Complexity O(|T1|·|T2| / S).
///
/// Unfused, the build is T1 in chunks and the sink takes one position per
/// probe of T2, `ceil(|T1| / chunk) · |T2|` of them: the last build row of
/// the probe's key, or a dummy. `fused` builds on the filtered side
/// instead and needs a folding sink: each probe of the other side folds
/// every build row of its key, in build order, so the fold runs in probe
/// order, then build order. Every build pass scans that side whole and
/// keeps the rows the filter passes, numbered from 0 in table order; pass
/// `k` keeps rows `k·chunk … (k+1)·chunk − 1` of the bound, so no chunk
/// ends at a data-dependent position, and `passes` follows from the bound.
/// Given the filter's first pass, that is pass 0: its kept rows are the
/// first chunk, and its lease sizes the chunks. A padded bound below the
/// match count returns [`DbError::PaddedBoundExceeded`] once every pass
/// has run, with the OM lease handed back.
#[allow(clippy::too_many_arguments)]
pub fn hash_join<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    t1: &mut FlatTable,
    c1: usize,
    t2: &mut FlatTable,
    c2: usize,
    out_key: AeadKey,
    mut sink: RowSink<'_, '_>,
    fused: Option<(&FusedFilter, Option<FirstPass>)>,
) -> Result<Option<FlatTable>, DbError> {
    use std::collections::HashMap;

    if fused.is_some() && !matches!(sink, RowSink::Fold(_)) {
        return Err(DbError::Unsupported("a fused hash build only folds".into()));
    }
    let out_schema = join_schema(t1.schema(), t2.schema());
    let (fused, first) = fused.map_or((None, None), |(f, first)| (Some(f), first));
    let build_right = fused.is_some_and(|f| f.side == JoinSide::Right);
    let (build, cb, probe, cp) = if build_right { (t2, c2, t1, c1) } else { (t1, c1, t2, c2) };
    let (sb, sp) = (build.schema().clone(), probe.schema().clone());
    let (key_b, key_p) = (key_range(&sb, cb), key_range(&sp, cp));
    let (row_b, row_p) = (sb.row_len(), sp.row_len());

    // Oblivious-memory chunk: how many build rows fit in the enclave at
    // once, out of the stored side or the filter's bound.
    let rows = fused.map_or(build.capacity(), |f| f.bound.max(1));
    let entry_size = build_entry_len(row_b);
    let (mut pass0, alloc) = match first {
        Some(p) => (Some(p.kept), p.lease),
        None => (None, om.alloc_up_to(rows as usize * entry_size)),
    };
    let chunk = build_chunk(rows, entry_size, alloc.bytes());
    let passes = rows.div_ceil(chunk);

    let (dummy, mut joined) = output_rows(&out_schema);
    sink.open(host, out_key, out_schema, passes * probe.capacity())?;
    let (probe_io, build_io) = (probe.io_chunk_rows(), build.io_chunk_rows());
    let mut arena: Vec<u8> = Vec::with_capacity(chunk as usize * row_b);
    let mut seen = 0u64;
    for pass in 0..passes {
        let (lo, hi) = (pass * chunk, ((pass + 1) * chunk).min(rows));
        // Read this pass's build rows into one contiguous arena, in
        // io-sized batched runs so the region scratch stays bounded — the
        // arena and its index are what the OM budget pays for.
        arena.clear();
        match (fused, pass0.take()) {
            (None, _) => {
                let mut at = lo;
                while at < hi {
                    let n = build_io.min((hi - at) as usize);
                    arena.extend_from_slice(build.read_rows(host, at, n)?);
                    at += n as u64;
                }
            }
            (Some(_), Some(kept)) => arena = kept,
            (Some(f), None) => {
                seen = 0;
                build.for_each_row(host, |_, r| {
                    if Schema::row_used(r) && f.pred.eval(&sb, r) {
                        if (lo..hi).contains(&seen) {
                            arena.extend_from_slice(r);
                        }
                        seen += 1;
                    }
                })?;
            }
        }
        // Index the used rows by key bytes: each key's first and last row,
        // with `next` chaining a key's rows in build order.
        let mut index: HashMap<&[u8], (usize, usize)> = HashMap::with_capacity(chunk as usize);
        let mut next = vec![usize::MAX; arena.len() / row_b];
        for (i, r) in arena.chunks_exact(row_b).enumerate() {
            if Schema::row_used(r) {
                let ends = index.entry(&r[key_b.clone()]).or_insert((i, i));
                if ends.1 != i {
                    next[ends.1] = i;
                    ends.1 = i;
                }
            }
        }
        let row = |i: usize| &arena[i * row_b..(i + 1) * row_b];
        // Probe every row of the other side; unfused, each probe emits
        // exactly one position (paper: "After each check, a row is written
        // to the next block of an output table") — reads and writes move
        // in batched runs.
        let mut start = 0u64;
        while start < probe.capacity() {
            let n = probe_io.min((probe.capacity() - start) as usize);
            for rp in probe.read_rows(host, start, n)?.chunks_exact(row_p) {
                let hit = if Schema::row_used(rp) { index.get(&rp[key_p.clone()]) } else { None };
                match (fused, hit) {
                    (None, hit) => {
                        let hit = hit.map(|&(_, last)| (row(last), rp));
                        emit(&mut sink, &mut joined, &dummy, hit);
                    }
                    (Some(_), hit) => {
                        let mut i = hit.map_or(usize::MAX, |&(first, _)| first);
                        while i != usize::MAX {
                            let pair = if build_right { (rp, row(i)) } else { (row(i), rp) };
                            emit(&mut sink, &mut joined, &dummy, Some(pair));
                            i = next[i];
                        }
                    }
                }
            }
            sink.flush(host)?;
            start += n as u64;
        }
    }
    match fused {
        Some(f) if seen > f.bound => Err(DbError::PaddedBoundExceeded { bound: f.bound }),
        _ => Ok(sink.finish()),
    }
}

/// What [`hash_join`] costs over `shape`. Unfused: each T1 chunk streamed
/// once, and per pass one full probe of T2; a sealing sink adds the
/// `passes · |T2|` output and one output block per probe in T2-chunk-sized
/// runs. Fused: per pass, one scan of the filtered side's base table and
/// one of the other side, nothing written.
pub fn hash_join_cost(shape: &JoinShape) -> HostStats {
    let (s1, s2) = (&shape.left_schema, &shape.right_schema);
    let (cap1, cap2) = (shape.left_capacity.max(1), shape.right_capacity.max(1));
    if let Some((side, bound)) = shape.fused {
        let ((sb, cap_b), (sp, cap_p)) = match side {
            JoinSide::Left => ((s1, cap1), (s2, cap2)),
            JoinSide::Right => ((s2, cap2), (s1, cap1)),
        };
        let rows = bound.max(1);
        let chunk = build_chunk(rows, build_entry_len(sb.row_len()), shape.om_bytes);
        let scans = SealedRegion::read_batch_cost(sb.row_len(), cap_b)
            + SealedRegion::read_batch_cost(sp.row_len(), cap_p);
        return scans * rows.div_ceil(chunk);
    }
    let (row1, row2) = (s1.row_len(), s2.row_len());
    let out_len = join_schema(s1, s2).row_len();
    let chunk = build_chunk(cap1, build_entry_len(row1), shape.om_bytes);
    let passes = cap1.div_ceil(chunk);
    let build = super::in_runs(cap1, chunk, |n| SealedRegion::read_batch_cost(row1, n));
    let probe = SealedRegion::read_batch_cost(row2, cap2);
    if shape.folded {
        return build + probe * passes;
    }
    let writes = super::in_runs(cap2, batch_chunk_blocks(row2) as u64, |n| {
        SealedRegion::write_batch_cost(out_len, n)
    });
    FlatTable::create_cost(out_len, passes * cap2) + build + (probe + writes) * passes
}

/// Which sort-merge variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMergeVariant {
    /// Opaque join: quicksort chunks held in oblivious memory, then a
    /// bitonic network over chunks (paper §4.3).
    Opaque,
    /// 0-OM join: the same network with `scratch_rows` of ordinary
    /// (non-oblivious) enclave memory — zero oblivious memory used.
    ZeroOm {
        /// Rows of plain enclave scratch used to accelerate the sort.
        scratch_rows: usize,
    },
}

/// Oblivious sort-merge join for foreign-key joins, emitting into `sink`;
/// returns the table a sealing sink built. T1 is the primary side (unique
/// join keys), T2 the foreign side. The sink takes one position per row of
/// the padded union; real rows number at most |T2|. The union and the key
/// hash derive from `out_key` whatever the sink, so a fold visits rows in
/// the order a sealed table would hold them.
#[allow(clippy::too_many_arguments)]
pub fn sort_merge_join<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    t1: &mut FlatTable,
    c1: usize,
    t2: &mut FlatTable,
    c2: usize,
    out_key: AeadKey,
    mut sink: RowSink<'_, '_>,
    variant: SortMergeVariant,
) -> Result<Option<FlatTable>, DbError> {
    let s1 = t1.schema().clone();
    let s2 = t2.schema().clone();
    let (key1, key2) = (key_range(&s1, c1), key_range(&s2, c2));

    let union_schema = union_schema(&s1, &s2);
    let union_len = union_schema.row_len();
    let n = (t1.capacity() + t2.capacity()).max(2).next_power_of_two();
    let union_key = AeadKey(oblidb_crypto::derive_key(&out_key.0, b"join-union"));
    let mut union = FlatTable::create(host, union_key, union_schema, n)?;

    let kd = oblidb_crypto::derive_key(&out_key.0, b"join-key-hash");
    let hasher = SipHash24::new(
        u64::from_le_bytes(kd[..8].try_into().unwrap()),
        u64::from_le_bytes(kd[8..16].try_into().unwrap()),
    );
    // Sort key: (hash of join value) ‖ tag, dummies at u128::MAX. The tag
    // bit puts the primary row before its foreign matches.
    let make_key = |hash: u64, tag: u8| ((hash as u128) << 1) | tag as u128;

    // Fill the union table: T1 then T2 then dummies (all positions get one
    // write; the fill pattern is size-determined). Both sides stream in
    // batched runs: one read crossing from the source, one write crossing
    // into the union, per chunk.
    let mut pos = 0u64;
    let mut pack_buf: Vec<u8> = Vec::new();
    for side in 0..2u8 {
        let (table, key): (&mut FlatTable, &std::ops::Range<usize>) =
            if side == 0 { (&mut *t1, &key1) } else { (&mut *t2, &key2) };
        let row_len = table.row_len();
        let chunk = table.io_chunk_rows();
        let cap = table.capacity();
        let mut start = 0u64;
        while start < cap {
            let count = chunk.min((cap - start) as usize);
            let data = table.read_rows(host, start, count)?;
            pack_buf.clear();
            for bytes in data.chunks_exact(row_len) {
                let at = pack_buf.len();
                pack_buf.resize(at + union_len, 0);
                if Schema::row_used(bytes) {
                    let h = hasher.hash(&bytes[key.clone()]);
                    let packed = &mut pack_buf[at..];
                    packed[0] = 1;
                    packed[1] = side;
                    packed[2..18].copy_from_slice(&make_key(h, side).to_le_bytes());
                    packed[18..18 + row_len].copy_from_slice(bytes);
                }
            }
            union.write_rows(host, pos, &pack_buf)?;
            pos += count as u64;
            start += count as u64;
        }
    }

    // Oblivious sort by key; dummies (key MAX) sink to the end.
    let union_sort_key = |bytes: &[u8]| -> u128 {
        if bytes[0] != 1 {
            return u128::MAX;
        }
        u128::from_le_bytes(bytes[2..18].try_into().unwrap())
    };
    let (chunk_rows, oblivious_local, _om_alloc) = match variant {
        SortMergeVariant::Opaque => {
            let alloc = om.alloc_up_to(n as usize * union_len);
            (((alloc.bytes() / union_len).max(1)).min(n as usize), false, Some(alloc))
        }
        // The 0-OM variant keeps even its in-enclave sorting data-oblivious
        // (bitonic), trading CPU for zero trust in enclave memory privacy.
        SortMergeVariant::ZeroOm { scratch_rows } => (scratch_rows.max(1), true, None),
    };
    super::sort::bitonic_sort_with(
        host,
        &mut union,
        n,
        union_sort_key,
        chunk_rows,
        oblivious_local,
    )?;

    // Merge scan: one read of the union and one emitted position per row,
    // both in batched runs. The current primary row lives in one reused
    // buffer.
    let out_schema = join_schema(&s1, &s2);
    let (dummy, mut joined) = output_rows(&out_schema);
    sink.open(host, out_key, out_schema, n)?;
    let (row1, row2) = (s1.row_len(), s2.row_len());
    let mut primary: Option<Vec<u8>> = None;
    let merge_chunk = union.io_chunk_rows();
    let mut start = 0u64;
    while start < n {
        let count = merge_chunk.min((n - start) as usize);
        let data = union.read_rows(host, start, count)?;
        for bytes in data.chunks_exact(union_len) {
            let row = &bytes[18..];
            let mut hit = None;
            if bytes[0] == 1 && bytes[1] == 0 {
                let r1 = primary.get_or_insert_with(|| Vec::with_capacity(row1));
                r1.clear();
                r1.extend_from_slice(&row[..row1]);
            } else if bytes[0] == 1 {
                let r2 = &row[..row2];
                // Verify true equality — hash adjacency is not trusted.
                hit = primary
                    .as_deref()
                    .filter(|r1| r1[key1.clone()] == r2[key2.clone()])
                    .map(|r1| (r1, r2));
            }
            emit(&mut sink, &mut joined, &dummy, hit);
        }
        sink.flush(host)?;
        start += count as u64;
    }
    union.free(host)?;
    Ok(sink.finish())
}

/// What [`sort_merge_join`] costs over `shape`: the power-of-two union
/// filled from both sides chunk by chunk, its bitonic sort, and the merge
/// scan reading it once; a sealing sink adds the union-sized output and
/// one output block per union row.
pub fn sort_merge_join_cost(shape: &JoinShape, variant: SortMergeVariant) -> HostStats {
    let (s1, s2) = (&shape.left_schema, &shape.right_schema);
    let (cap1, cap2) = (shape.left_capacity.max(1), shape.right_capacity.max(1));
    let union_len = union_schema(s1, s2).row_len();
    let out_len = join_schema(s1, s2).row_len();
    let n = (cap1 + cap2).max(2).next_power_of_two();
    let chunk_rows = match variant {
        SortMergeVariant::Opaque => {
            ((n as usize * union_len).min(shape.om_bytes) / union_len).max(1).min(n as usize)
        }
        SortMergeVariant::ZeroOm { scratch_rows } => scratch_rows.max(1),
    };
    let fill = |row_len: usize, cap: u64| {
        super::in_runs(cap, batch_chunk_blocks(row_len) as u64, |k| {
            SealedRegion::read_batch_cost(row_len, k) + SealedRegion::write_batch_cost(union_len, k)
        })
    };
    let merged = FlatTable::create_cost(union_len, n)
        + fill(s1.row_len(), cap1)
        + fill(s2.row_len(), cap2)
        + super::sort::bitonic_sort_cost(union_len, n, chunk_rows)
        + SealedRegion::read_batch_cost(union_len, n);
    if shape.folded {
        return merged;
    }
    merged
        + FlatTable::create_cost(out_len, n)
        + super::in_runs(n, batch_chunk_blocks(union_len) as u64, |k| {
            SealedRegion::write_batch_cost(out_len, k)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{AggFold, AggFunc};
    use crate::predicate::Predicate;
    use crate::types::{DataType, Value};
    use oblidb_enclave::Host;
    use oblidb_enclave::DEFAULT_OM_BYTES;

    fn schema1() -> Schema {
        Schema::new(vec![Column::new("pk", DataType::Int), Column::new("a", DataType::Int)])
    }

    fn schema2() -> Schema {
        Schema::new(vec![Column::new("fk", DataType::Int), Column::new("b", DataType::Int)])
    }

    fn build<M: EnclaveMemory>(
        host: &mut M,
        schema: Schema,
        rows: &[(i64, i64)],
        seed: u8,
    ) -> FlatTable {
        let encoded: Vec<Vec<u8>> = rows
            .iter()
            .map(|(k, v)| schema.encode_row(&[Value::Int(*k), Value::Int(*v)]).unwrap())
            .collect();
        FlatTable::from_encoded_rows(host, AeadKey([seed; 32]), schema, &encoded, rows.len() as u64)
            .unwrap()
    }

    /// The table an unfused hash join of `t1` and `t2` on their first
    /// columns seals.
    fn hashed<M: EnclaveMemory>(
        host: &mut M,
        om: &OmBudget,
        t1: &mut FlatTable,
        t2: &mut FlatTable,
    ) -> FlatTable {
        hash_join(host, om, t1, 0, t2, 0, AeadKey([9u8; 32]), RowSink::seal(), None)
            .unwrap()
            .unwrap()
    }

    /// The table a sort-merge join of `t1` and `t2` on their first columns
    /// seals.
    fn merged<M: EnclaveMemory>(
        host: &mut M,
        om: &OmBudget,
        t1: &mut FlatTable,
        t2: &mut FlatTable,
        variant: SortMergeVariant,
    ) -> FlatTable {
        let key = AeadKey([9u8; 32]);
        sort_merge_join(host, om, t1, 0, t2, 0, key, RowSink::seal(), variant).unwrap().unwrap()
    }

    /// Reference nested-loop join on decoded values.
    fn reference(t1: &[(i64, i64)], t2: &[(i64, i64)]) -> Vec<(i64, i64, i64, i64)> {
        let mut out = Vec::new();
        for (pk, a) in t1 {
            for (fk, b) in t2 {
                if pk == fk {
                    out.push((*pk, *a, *fk, *b));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn extract<M: EnclaveMemory>(host: &mut M, out: &mut FlatTable) -> Vec<(i64, i64, i64, i64)> {
        let mut rows: Vec<(i64, i64, i64, i64)> = out
            .collect_rows(host)
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
        rows.sort_unstable();
        rows
    }

    fn t1_rows() -> Vec<(i64, i64)> {
        (0..10).map(|i| (i, i * 100)).collect()
    }

    fn t2_rows() -> Vec<(i64, i64)> {
        // Foreign side: multiple matches per key, some misses.
        vec![(0, 1), (0, 2), (3, 3), (3, 4), (3, 5), (9, 6), (42, 7), (-1, 8)]
    }

    #[test]
    fn hash_join_matches_reference() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut t1 = build(&mut host, schema1(), &t1_rows(), 1);
        let mut t2 = build(&mut host, schema2(), &t2_rows(), 2);
        let mut out = hashed(&mut host, &om, &mut t1, &mut t2);
        assert_eq!(extract(&mut host, &mut out), reference(&t1_rows(), &t2_rows()));
    }

    #[test]
    fn hash_join_multi_pass_small_om() {
        // Oblivious memory for ~2 rows of T1 → many passes, same answer.
        let mut host = Host::new();
        let mut t1 = build(&mut host, schema1(), &t1_rows(), 1);
        let mut t2 = build(&mut host, schema2(), &t2_rows(), 2);
        let om = OmBudget::new(2 * (t1.row_len() + 32));
        let mut out = hashed(&mut host, &om, &mut t1, &mut t2);
        assert_eq!(extract(&mut host, &mut out), reference(&t1_rows(), &t2_rows()));
        // Output structure: passes × |T2| blocks.
        assert_eq!(out.capacity() % t2_rows().len() as u64, 0);
        assert!(out.capacity() > t2_rows().len() as u64);
    }

    #[test]
    fn sort_merge_joins_match_reference() {
        // Opaque, then truly zero oblivious memory.
        for (om_bytes, variant) in [
            (DEFAULT_OM_BYTES, SortMergeVariant::Opaque),
            (0, SortMergeVariant::ZeroOm { scratch_rows: 1 }),
        ] {
            let mut host = Host::new();
            let om = OmBudget::new(om_bytes);
            let mut t1 = build(&mut host, schema1(), &t1_rows(), 1);
            let mut t2 = build(&mut host, schema2(), &t2_rows(), 2);
            let mut out = merged(&mut host, &om, &mut t1, &mut t2, variant);
            assert_eq!(extract(&mut host, &mut out), reference(&t1_rows(), &t2_rows()));
        }
    }

    #[test]
    fn text_join_keys() {
        let s1 = Schema::new(vec![
            Column::new("url", DataType::Text(24)),
            Column::new("rank", DataType::Int),
        ]);
        let s2 = Schema::new(vec![
            Column::new("dest", DataType::Text(24)),
            Column::new("rev", DataType::Int),
        ]);
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let urls = ["http://a.example/page", "http://b.example/page", "http://c.example"];
        let r1: Vec<Vec<u8>> = urls
            .iter()
            .enumerate()
            .map(|(i, u)| {
                s1.encode_row(&[Value::Text(u.to_string()), Value::Int(i as i64)]).unwrap()
            })
            .collect();
        let r2: Vec<Vec<u8>> = [urls[0], urls[2], urls[2], "http://nope"]
            .iter()
            .enumerate()
            .map(|(i, u)| {
                s2.encode_row(&[Value::Text(u.to_string()), Value::Int(100 + i as i64)]).unwrap()
            })
            .collect();
        let mut t1 =
            FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), s1, &r1, 3).unwrap();
        let mut t2 =
            FlatTable::from_encoded_rows(&mut host, AeadKey([2u8; 32]), s2, &r2, 4).unwrap();
        for variant in [SortMergeVariant::Opaque, SortMergeVariant::ZeroOm { scratch_rows: 2 }] {
            let out = merged(&mut host, &om, &mut t1, &mut t2, variant);
            assert_eq!(out.num_rows(), 3, "{variant:?}");
        }
        let mut out = hashed(&mut host, &om, &mut t1, &mut t2);
        assert_eq!((out.num_rows(), out.collect_rows(&mut host).unwrap().len()), (3, 3));
    }

    #[test]
    fn repeated_primary_keys_per_build_orientation() {
        let (mut host, om) = (Host::new(), OmBudget::new(DEFAULT_OM_BYTES));
        let mut t1 = build(&mut host, schema1(), &[(3, 1), (3, 2), (5, 3)], 1);
        let mut t2 = build(&mut host, schema2(), &[(3, 7)], 2);
        let mut unfused = hashed(&mut host, &om, &mut t1, &mut t2);
        assert_eq!(extract(&mut host, &mut unfused), [(3, 2, 3, 7)], "the last T1 row");
        for (side, bound) in [(JoinSide::Left, 3), (JoinSide::Right, 1)] {
            let fused = FusedFilter { side, pred: Predicate::True, bound };
            let (s, count) = (join_schema(t1.schema(), t2.schema()), [(AggFunc::Count, None)]);
            let mut agg = AggFold::new(s, &count, &Predicate::True);
            let (key, sink) = (AeadKey([9u8; 32]), RowSink::Fold(&mut agg));
            let fused = Some((&fused, None));
            hash_join(&mut host, &om, &mut t1, 0, &mut t2, 0, key, sink, fused).unwrap();
            assert_eq!(agg.finish(), [Value::Int(2)], "{side:?}: every pair");
        }
    }

    #[test]
    fn empty_foreign_side() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut t1 = build(&mut host, schema1(), &t1_rows(), 1);
        let mut t2 = build(&mut host, schema2(), &[(999, 0)], 2);
        let mut out = hashed(&mut host, &om, &mut t1, &mut t2);
        assert_eq!(out.num_rows(), 0);
        assert!(out.collect_rows(&mut host).unwrap().is_empty());
    }

    #[test]
    fn join_traces_depend_only_on_sizes() {
        // Two different data sets of identical sizes: identical traces.
        for variant in [
            None, // hash join
            Some(SortMergeVariant::Opaque),
            Some(SortMergeVariant::ZeroOm { scratch_rows: 2 }),
        ] {
            let mut traces = Vec::new();
            for flip in [0i64, 1] {
                let mut host = Host::new();
                let om = OmBudget::new(4096);
                let d1: Vec<(i64, i64)> = (0..8).map(|i| (i * (1 + flip), i)).collect();
                let d2: Vec<(i64, i64)> = (0..6).map(|i| (i * (3 - flip), i)).collect();
                let mut t1 = build(&mut host, schema1(), &d1, 1);
                let mut t2 = build(&mut host, schema2(), &d2, 2);
                host.start_trace();
                match variant {
                    None => hashed(&mut host, &om, &mut t1, &mut t2),
                    Some(v) => merged(&mut host, &om, &mut t1, &mut t2, v),
                };
                traces.push(host.take_trace());
            }
            assert_eq!(traces[0], traces[1], "{variant:?}");
        }
    }

    #[test]
    fn output_of_join_composes_with_select() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let mut t1 = build(&mut host, schema1(), &t1_rows(), 1);
        let mut t2 = build(&mut host, schema2(), &t2_rows(), 2);
        let mut joined = hashed(&mut host, &om, &mut t1, &mut t2);
        // Joined rows with b >= 3: b in {3, 4, 5, 6}.
        let ge = crate::predicate::CmpOp::Ge;
        let pred = Predicate::cmp(joined.schema(), "t2.b", ge, Value::Int(3)).unwrap();
        let key = AeadKey([8u8; 32]);
        let out = crate::exec::select_small(&mut host, &om, &mut joined, &pred, key, 4).unwrap();
        assert_eq!(out.num_rows(), 4);
    }
}
