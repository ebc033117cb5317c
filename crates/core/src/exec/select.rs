//! The oblivious SELECT algorithms (paper §4.1, Figures 3–5).
//!
//! All five produce a flat output table R from a flat input T, given `|R|`
//! (the match count, from the filter's own [`select_first_pass`]) — it is
//! part of the leakage contract; in padding mode the padded bound stands in
//! for it. Each algorithm's access pattern is a deterministic function of
//! `(|T|, |R|, oblivious-memory budget)` only; trace-equality tests in
//! `tests/` verify this, and the `…_cost` function beside each operator
//! counts that pattern's accesses from those sizes.

use oblidb_crypto::aead::AeadKey;
use oblidb_crypto::SipHash24;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, HostStats, OmAllocation, OmBudget};
use oblidb_oram::{PathOram, PosMapKind};
use oblidb_storage::{batch_chunk_blocks, SealedRegion};

use super::RowSink;
use crate::error::DbError;
use crate::plan::cost::{SelectShape, SelectStats};
use crate::predicate::Predicate;
use crate::table::FlatTable;
use crate::types::Schema;

/// Slots per hash bucket (paper §4.1: "a fixed-depth list of 5 slots for
/// each position in R", following Azar et al.'s balanced allocations).
pub const HASH_SLOTS: usize = 5;

/// Small (Figure 4A): multiple fast passes over T, buffering matches in
/// oblivious memory; the buffer is flushed to R after each pass. Fast when
/// R fits in a few enclave-fulls. Uses whatever oblivious memory is
/// available; a smaller budget only means more passes.
///
/// The windows partition `[0, bound)`, so R has `bound` positions and the
/// pass count depends on nothing else. `bound` is the match count, or in
/// padding mode (paper §2.3) the padded bound, where the last windows are
/// filled with dummies so any selectivity leaves one transcript. A bound
/// below the match count would silently drop rows: the passes still run
/// to the end, so the trace is unchanged, and then the output and the
/// buffer are released and [`DbError::PaddedBoundExceeded`] returned.
pub fn select_small<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    pred: &Predicate,
    out_key: AeadKey,
    bound: u64,
) -> Result<FlatTable, DbError> {
    let schema = input.schema().clone();
    let row_len = schema.row_len();
    let dummy = schema.dummy_row();
    let mut out = RowSink::seal();
    out.open(host, out_key, schema.clone(), bound.max(1))?;

    // Buffer capacity: everything the OM budget will give us, at least one
    // row so progress is guaranteed.
    let alloc = om.alloc_up_to((bound.max(1) as usize) * row_len);
    let buf_rows = (alloc.bytes() / row_len).max(1) as u64;
    let passes = bound.div_ceil(buf_rows).max(1);

    let mut seen = 0u64;
    for pass in 0..passes {
        let window_lo = pass * buf_rows;
        let window_hi = (window_lo + buf_rows).min(bound);
        seen = 0;
        // One full batched pass over T; matches numbered
        // [window_lo, window_hi) go to the enclave buffer.
        input.for_each_row(host, |_, bytes| {
            if Schema::row_used(bytes) && pred.eval(&schema, bytes) {
                if seen >= window_lo && seen < window_hi {
                    out.push(bytes);
                }
                seen += 1;
            }
        })?;
        // Flush the whole window, real rows then dummies: one crossing.
        for _ in seen.clamp(window_lo, window_hi)..window_hi {
            out.push(&dummy);
        }
        out.flush(host)?;
    }
    let out = out.sealed();
    if seen > bound {
        drop(alloc);
        out.free(host)?;
        return Err(DbError::PaddedBoundExceeded { bound });
    }
    Ok(out)
}

/// What [`select_small`] costs over `shape` with `shape.matches` as the
/// bound: the output allocation, one full pass over the input per
/// buffer-full of the bound, and one flush of each window (windows
/// partition `[0, bound)`).
pub fn small_cost(shape: &SelectShape) -> HostStats {
    let row_len = shape.schema.row_len();
    let bound = shape.matches;
    // The rows `om.alloc_up_to` grants the buffer, at least one.
    let buf_rows = ((bound.max(1) as usize * row_len).min(shape.om_bytes) / row_len).max(1) as u64;
    let passes = bound.div_ceil(buf_rows).max(1);
    FlatTable::create_cost(row_len, bound)
        + first_pass_cost(row_len, shape.capacity) * passes
        + super::in_runs(bound, buf_rows, |n| SealedRegion::write_batch_cost(row_len, n))
}

/// What a filter's [`select_first_pass`] leaves its consumer.
pub struct FirstPass {
    /// |R| and continuity — in padding mode, when the pass is skipped, the
    /// bound.
    pub stats: SelectStats,
    /// The first matches in scan order, encoded, as many as the lease
    /// holds.
    pub kept: Vec<u8>,
    /// The oblivious memory the kept rows occupy.
    pub lease: OmAllocation,
}

impl FirstPass {
    /// Whether every match was kept, so the pass is the whole select.
    pub fn fits(&self, row_len: usize) -> bool {
        self.kept.len() as u64 == self.stats.matches * row_len as u64
    }
}

/// A filter's first pass: §5's preliminary scan, the only place |R| is
/// counted. It reads every row once, counting the matches and whether they
/// are one contiguous run, and keeps them in scan order in an OM lease of
/// up to `|T|` entries of `entry_len` bytes (the padded bound `pad`'s, in
/// padding mode), at least one, as Small's buffer. When all fit, they are
/// the whole select; otherwise the statistics choose the operator. In
/// padding mode a bound overflowing the lease skips the scan, and a bound
/// below the match count is [`DbError::PaddedBoundExceeded`]. The trace is
/// one pass over T, or none.
pub fn select_first_pass<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    pred: &Predicate,
    pad: Option<u64>,
    entry_len: usize,
) -> Result<FirstPass, DbError> {
    let (schema, row_len) = (input.schema().clone(), input.row_len());
    let lease =
        om.alloc_up_to((pad.unwrap_or(input.capacity()) as usize).saturating_mul(entry_len));
    let keep = (lease.bytes() / entry_len).max(1) * row_len;
    let (mut kept, mut matches, mut runs, mut prev) = (Vec::new(), 0u64, 0u64, false);
    if let Some(bound) = pad.filter(|&p| (p as usize).saturating_mul(row_len) > keep) {
        let stats = SelectStats { matches: bound, continuous: false };
        return Ok(FirstPass { stats, kept, lease });
    }
    input.for_each_row(host, |_, row| {
        let hit = Schema::row_used(row) && pred.eval(&schema, row);
        if hit && kept.len() < keep {
            kept.extend_from_slice(row);
        }
        (matches, runs, prev) = (matches + hit as u64, runs + (hit && !prev) as u64, hit);
    })?;
    if let Some(bound) = pad.filter(|&p| matches > p) {
        return Err(DbError::PaddedBoundExceeded { bound });
    }
    let stats = SelectStats { matches, continuous: runs <= 1 && matches > 0 };
    Ok(FirstPass { stats, kept, lease })
}

/// One batched pass over `capacity` rows of `row_len` bytes, chunk by chunk
/// — what [`FlatTable::for_each_row`] and every operator's `read_rows` loop
/// cost, and all [`select_first_pass`] costs when it scans.
pub fn first_pass_cost(row_len: usize, capacity: u64) -> HostStats {
    SealedRegion::read_batch_cost(row_len, capacity.max(1))
}

/// Large (Figure 4B): copy T to R, then one pass over R clearing
/// unselected rows (dummy writes for selected ones). Fast when R contains
/// almost all of T. Uses no oblivious memory.
pub fn select_large<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    pred: &Predicate,
    out_key: AeadKey,
) -> Result<FlatTable, DbError> {
    let schema = input.schema().clone();
    let mut out = super::copy_table(host, input, out_key, input.capacity())?;
    // Clear pass: every block read and rewritten (cleared or dummy),
    // chunk by chunk.
    let dummy = schema.dummy_row();
    let mut kept = 0u64;
    out.rewrite_scan(host, |bytes| {
        let keep = Schema::row_used(bytes) && pred.eval(&schema, bytes);
        kept += keep as u64;
        // Masked clear: kept and cleared rows take the same stores.
        super::ct::cond_copy_bytes(!keep, bytes, &dummy);
    })?;
    out.set_num_rows(kept);
    Ok(out)
}

/// What [`select_large`] costs over `shape`: a `|T|`-block output, then a
/// copy pass and a clear pass that each read and rewrite every block.
pub fn large_cost(shape: &SelectShape) -> HostStats {
    let (row_len, cap) = (shape.schema.row_len(), shape.capacity.max(1));
    let rewrite =
        SealedRegion::read_batch_cost(row_len, cap) + SealedRegion::write_batch_cost(row_len, cap);
    FlatTable::create_cost(row_len, cap) + rewrite * 2
}

/// Continuous (Figure 4C): when the selected rows form one contiguous
/// segment of T, one pass suffices — row `i` of T maps to position
/// `i mod |R|` of R (real write if selected, dummy otherwise). Choosing
/// this algorithm leaks that the result was contiguous (§4.1); it can be
/// disabled. Uses no oblivious memory.
pub fn select_continuous<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    pred: &Predicate,
    out_key: AeadKey,
    out_rows: u64,
) -> Result<FlatTable, DbError> {
    let schema = input.schema().clone();
    let r = out_rows.max(1);
    let mut out = FlatTable::create(host, out_key, schema.clone(), r)?;
    let mut matched = 0u64;
    let row_len = schema.row_len();
    let chunk = input.io_chunk_rows();
    let cap = input.capacity();
    let mut run_buf = Vec::new();
    let mut start = 0u64;
    while start < cap {
        let n = chunk.min((cap - start) as usize);
        let in_rows = input.read_rows(host, start, n)?;
        // Uniform read-modify-write of R[i mod r], batched per wraparound
        // segment: positions stay contiguous (and distinct) until the next
        // wrap, so each segment is one read crossing and one write
        // crossing. Dummy writes rewrite current contents so earlier real
        // writes survive the wraparound.
        let mut off = 0usize;
        while off < n {
            let pos0 = (start + off as u64) % r;
            let run = (n - off).min((r - pos0) as usize);
            run_buf.clear();
            run_buf.extend_from_slice(out.read_rows(host, pos0, run)?);
            for j in 0..run {
                let bytes = &in_rows[(off + j) * row_len..(off + j + 1) * row_len];
                let selected = Schema::row_used(bytes) && pred.eval(&schema, bytes);
                let take = selected & (matched < out_rows);
                // Masked write-through: real and dummy updates of R run
                // the same stores over the same bytes.
                super::ct::cond_copy_bytes(
                    take,
                    &mut run_buf[j * row_len..(j + 1) * row_len],
                    bytes,
                );
                matched += take as u64;
            }
            out.write_rows(host, pos0, &run_buf)?;
            off += run;
        }
        start += n as u64;
    }
    out.set_num_rows(matched);
    out.set_insert_cursor(out.capacity());
    Ok(out)
}

/// What [`select_continuous`] costs over `shape`: the input pass, plus one
/// read and one write of `R` per input row, batched per segment — and a
/// segment ends at every input chunk boundary and every wraparound of `R`.
pub fn continuous_cost(shape: &SelectShape) -> HostStats {
    let (row_len, cap) = (shape.schema.row_len(), shape.capacity.max(1));
    let r = shape.matches.max(1);
    let chunk = batch_chunk_blocks(row_len) as u64;
    // Segment starts inside (0, cap): multiples of the chunk or of r,
    // counting the common multiples once.
    let starts = |step: u64| (cap - 1) / step;
    let common = (r / gcd(r, chunk)).checked_mul(chunk).map_or(0, starts);
    let segments = 1 + starts(chunk) + starts(r) - common;
    let updates =
        SealedRegion::read_batch_cost(row_len, cap) + SealedRegion::write_batch_cost(row_len, cap);
    FlatTable::create_cost(row_len, r)
        + first_pass_cost(row_len, cap)
        + HostStats { crossings: 2 * segments, ..updates }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The two per-row bucket positions probed by the Hash algorithm. Public
/// function of the row index only — never of row contents (Figure 5).
fn hash_positions(h1: &SipHash24, h2: &SipHash24, i: u64, buckets: u64) -> (u64, u64) {
    (h1.hash_u64(i) % buckets, h2.hash_u64(i) % buckets)
}

/// The Hash algorithm's two bucket functions. They derive from the output
/// table key: deterministic per query, unknown to the adversary, and
/// independent of the data.
fn hash_functions(out_key: &AeadKey) -> (SipHash24, SipHash24) {
    let derive = |label: &[u8]| {
        let d = oblidb_crypto::derive_key(&out_key.0, label);
        SipHash24::new(
            u64::from_le_bytes(d[..8].try_into().expect("8-byte half")),
            u64::from_le_bytes(d[8..16].try_into().expect("8-byte half")),
        )
    };
    (derive(b"hash-select-1"), derive(b"hash-select-2"))
}

/// Hash (Figure 5): the general-purpose fallback. Row `i` of T hashes (by
/// *index*, not content) to two buckets of R with [`HASH_SLOTS`] slots
/// each; all ten slots are read and rewritten per input row — one of them
/// possibly with the real row. Uses no oblivious memory.
pub fn select_hash<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    pred: &Predicate,
    out_key: AeadKey,
    out_rows: u64,
) -> Result<FlatTable, DbError> {
    let schema = input.schema().clone();
    let buckets = out_rows.max(1);
    let capacity = buckets * HASH_SLOTS as u64;
    let mut out = FlatTable::create(host, out_key.clone(), schema.clone(), capacity)?;
    let (h1, h2) = hash_functions(&out_key);

    let row_len = schema.row_len();
    let chunk = input.io_chunk_rows();
    let cap = input.capacity();
    let mut written = 0u64;
    let mut slot_buf = Vec::new();
    let mut positions = Vec::with_capacity(2 * HASH_SLOTS);
    let mut start = 0u64;
    while start < cap {
        let n = chunk.min((cap - start) as usize);
        let in_rows = input.read_rows(host, start, n)?;
        for (off, bytes) in in_rows.chunks_exact(row_len).enumerate() {
            let i = start + off as u64;
            let selected = Schema::row_used(bytes) && pred.eval(&schema, bytes);
            let (b1, b2) = hash_positions(&h1, &h2, i, buckets);
            // The (public, index-derived) candidate slots: 5 per hash
            // function, deduplicated when both functions pick the same
            // bucket. One gather crossing in, one scatter crossing out —
            // where the per-block path paid ten of each.
            positions.clear();
            for slot in 0..HASH_SLOTS as u64 {
                positions.push(b1 * HASH_SLOTS as u64 + slot);
            }
            if b2 != b1 {
                for slot in 0..HASH_SLOTS as u64 {
                    positions.push(b2 * HASH_SLOTS as u64 + slot);
                }
            }
            slot_buf.clear();
            slot_buf.extend_from_slice(out.read_rows_at(host, &positions)?);
            // Branch-free probe: every slot is rewritten through a masked
            // select, so occupied/free and placed/unplaced slots execute
            // the same instructions over the same bytes.
            let mut placed = !selected;
            for current in slot_buf.chunks_exact_mut(row_len) {
                let take = !placed & !Schema::row_used(current);
                super::ct::cond_copy_bytes(take, current, bytes);
                placed |= take;
            }
            out.write_rows_at(host, &positions, &slot_buf)?;
            if !placed {
                // All candidate slots full — cryptographically unlikely
                // with 5|R| slots and two choices (Azar et al.).
                return Err(DbError::HashSelectOverflow);
            }
            if selected {
                written += 1;
            }
        }
        start += n as u64;
    }
    out.set_num_rows(written);
    out.set_insert_cursor(out.capacity());
    Ok(out)
}

/// What [`select_hash`] costs over `shape`: a `5|R|`-slot output, the input
/// pass, and per input row one gather and one scatter of its candidate
/// slots — ten, or five when both functions pick the same bucket (always,
/// with one bucket). Only the bucket indices are computed, never a row.
pub fn hash_cost(shape: &SelectShape) -> HostStats {
    let (row_len, cap) = (shape.schema.row_len(), shape.capacity.max(1));
    let buckets = shape.matches.max(1);
    let collisions = if buckets == 1 {
        cap
    } else {
        let (h1, h2) = hash_functions(&shape.out_key);
        (0..cap)
            .filter(|&i| {
                let (b1, b2) = hash_positions(&h1, &h2, i, buckets);
                b1 == b2
            })
            .count() as u64
    };
    let slots = HASH_SLOTS as u64 * (2 * cap - collisions);
    let probes = SealedRegion::read_batch_at_cost(row_len, slots)
        + SealedRegion::write_batch_at_cost(row_len, slots);
    FlatTable::create_cost(row_len, buckets * HASH_SLOTS as u64)
        + first_pass_cost(row_len, cap)
        + HostStats { crossings: 2 * cap, ..probes }
}

/// Naive (baseline only): a direct ORAM translation — one ORAM operation
/// per input row (real write or dummy), then copy the ORAM out to flat
/// storage. Costs O(N log N) and 4|R| bytes of oblivious memory for the
/// position map; every other algorithm beats it (Figure 3).
pub fn select_naive<M: EnclaveMemory>(
    host: &mut M,
    om: &OmBudget,
    input: &mut FlatTable,
    pred: &Predicate,
    out_key: AeadKey,
    out_rows: u64,
    rng: EnclaveRng,
) -> Result<FlatTable, DbError> {
    let schema = input.schema().clone();
    let row_len = schema.row_len();
    let oram_key = AeadKey(oblidb_crypto::derive_key(&out_key.0, b"naive-oram"));
    let mut oram =
        PathOram::new(host, oram_key, out_rows.max(1), row_len, PosMapKind::Direct, om, rng)?;

    let mut written = 0u64;
    let chunk = input.io_chunk_rows();
    let cap = input.capacity();
    let mut start = 0u64;
    while start < cap {
        let n = chunk.min((cap - start) as usize);
        let data = input.read_rows(host, start, n)?;
        // One ORAM operation per input row; the input side is batched, the
        // ORAM side batches internally (whole path per crossing).
        for bytes in data.chunks_exact(row_len) {
            if Schema::row_used(bytes) && pred.eval(&schema, bytes) && written < out_rows {
                oram.write(host, written, bytes)?;
                written += 1;
            } else {
                oram.dummy_access(host)?;
            }
        }
        start += n as u64;
    }

    // Copy the ORAM contents to the flat output format, flushing output
    // rows in contiguous batched runs.
    let mut out = RowSink::seal();
    out.open(host, out_key, schema, out_rows.max(1))?;
    for run_start in (0..out_rows).step_by(chunk) {
        for addr in run_start..(run_start + chunk as u64).min(out_rows) {
            out.push(&oram.read(host, addr)?);
        }
        out.flush(host)?;
    }
    let out = out.sealed();
    oram.free(host)?;
    Ok(out)
}

/// What [`select_naive`] costs over `shape`: the ORAM's tree, the input
/// pass with one ORAM access per input row, then one access per output row
/// copied out into a flat output written in chunk-sized runs.
pub fn naive_cost(shape: &SelectShape) -> HostStats {
    let (row_len, cap) = (shape.schema.row_len(), shape.capacity.max(1));
    let out_rows = shape.matches;
    let oram_rows = out_rows.max(1);
    PathOram::create_cost(oram_rows, row_len)
        + first_pass_cost(row_len, cap)
        + PathOram::access_cost(oram_rows, row_len) * (cap + out_rows)
        + FlatTable::create_cost(row_len, out_rows)
        + SealedRegion::write_batch_cost(row_len, out_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::SelectAlgo;
    use crate::predicate::CmpOp;
    use crate::types::{Column, DataType, Value};
    use oblidb_enclave::Host;
    use oblidb_enclave::DEFAULT_OM_BYTES;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)])
    }

    fn build(n: i64) -> (Host, FlatTable) {
        let s = schema();
        let mut host = Host::new();
        let rows: Vec<Vec<u8>> =
            (0..n).map(|i| s.encode_row(&[Value::Int(i), Value::Int(i * 10)]).unwrap()).collect();
        let t = FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), s, &rows, n as u64)
            .unwrap();
        (host, t)
    }

    fn run<M: EnclaveMemory>(
        algo: SelectAlgo,
        host: &mut M,
        t: &mut FlatTable,
        pred: &Predicate,
        out_rows: u64,
    ) -> FlatTable {
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let key = AeadKey([7u8; 32]);
        match algo {
            SelectAlgo::Small => select_small(host, &om, t, pred, key, out_rows).unwrap(),
            SelectAlgo::Large => select_large(host, t, pred, key).unwrap(),
            SelectAlgo::Continuous => select_continuous(host, t, pred, key, out_rows).unwrap(),
            SelectAlgo::Hash => select_hash(host, t, pred, key, out_rows).unwrap(),
            SelectAlgo::Naive => {
                select_naive(host, &om, t, pred, key, out_rows, EnclaveRng::seed_from_u64(3))
                    .unwrap()
            }
            SelectAlgo::Padded => select_small(host, &om, t, pred, key, out_rows.max(1)).unwrap(),
        }
    }

    fn ids<M: EnclaveMemory>(host: &mut M, t: &mut FlatTable) -> Vec<i64> {
        let mut out: Vec<i64> =
            t.collect_rows(host).unwrap().iter().map(|r| r[0].as_int().unwrap()).collect();
        out.sort_unstable();
        out
    }

    const ALL: [SelectAlgo; 5] = [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Continuous,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
    ];

    #[test]
    fn all_algorithms_agree_on_a_range_predicate() {
        // Contiguous match set so Continuous applies too.
        for algo in ALL {
            let (mut host, mut t) = build(40);
            let p1 = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(10)).unwrap();
            let p2 = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(25)).unwrap();
            let pred = Predicate::And(Box::new(p1), Box::new(p2));
            let mut out = run(algo, &mut host, &mut t, &pred, 15);
            assert_eq!(out.num_rows(), 15, "{algo:?}");
            assert_eq!(ids(&mut host, &mut out), (10..25).collect::<Vec<i64>>(), "{algo:?}");
        }
    }

    #[test]
    fn non_contiguous_matches() {
        // id % 2 style predicate via v: multiples of 20 (even ids).
        for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash, SelectAlgo::Naive] {
            let (mut host, mut t) = build(30);
            // v in {0,10,...}: pick v >= 150 → ids 15..30, but scattered
            // test uses inequality on id with OR to break continuity.
            let a = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(5)).unwrap();
            let b = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(25)).unwrap();
            let pred = Predicate::Or(Box::new(a), Box::new(b));
            let mut out = run(algo, &mut host, &mut t, &pred, 10);
            let expect: Vec<i64> = (0..5).chain(25..30).collect();
            assert_eq!(ids(&mut host, &mut out), expect, "{algo:?}");
        }
    }

    #[test]
    fn empty_result() {
        for algo in ALL {
            let (mut host, mut t) = build(10);
            let pred = Predicate::cmp(t.schema(), "id", CmpOp::Gt, Value::Int(999)).unwrap();
            let mut out = run(algo, &mut host, &mut t, &pred, 0);
            assert_eq!(out.num_rows(), 0, "{algo:?}");
            assert!(ids(&mut host, &mut out).is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn full_table_selected() {
        for algo in ALL {
            let (mut host, mut t) = build(12);
            let mut out = run(algo, &mut host, &mut t, &Predicate::True, 12);
            assert_eq!(ids(&mut host, &mut out), (0..12).collect::<Vec<i64>>(), "{algo:?}");
        }
    }

    #[test]
    fn small_multi_pass_with_tiny_budget() {
        // Force multiple passes by shrinking oblivious memory to ~2 rows.
        let (mut host, mut t) = build(30);
        let om = OmBudget::new(2 * t.row_len());
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(9)).unwrap();
        let mut out = select_small(&mut host, &om, &mut t, &pred, AeadKey([7u8; 32]), 9).unwrap();
        assert_eq!(ids(&mut host, &mut out), (0..9).collect::<Vec<i64>>());
    }

    #[test]
    fn trace_depends_only_on_sizes_not_data() {
        // Same |T| and |R|, disjoint match sets → identical traces.
        for algo in [SelectAlgo::Small, SelectAlgo::Large, SelectAlgo::Hash] {
            let preds = [
                Predicate::cmp(&schema(), "id", CmpOp::Lt, Value::Int(8)).unwrap(),
                Predicate::cmp(&schema(), "id", CmpOp::Ge, Value::Int(12)).unwrap(),
            ];
            let mut traces = Vec::new();
            for pred in &preds {
                let (mut host, mut t) = build(20);
                host.start_trace();
                let _ = run(algo, &mut host, &mut t, pred, 8);
                traces.push(host.take_trace());
            }
            assert_eq!(traces[0], traces[1], "{algo:?} leaks through its trace");
        }
    }

    #[test]
    fn continuous_trace_independent_of_segment_position() {
        // Different contiguous segments of equal length → identical traces.
        let mut traces = Vec::new();
        for (lo, hi) in [(0, 5), (12, 17)] {
            let (mut host, mut t) = build(20);
            let a = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(lo)).unwrap();
            let b = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(hi)).unwrap();
            let pred = Predicate::And(Box::new(a), Box::new(b));
            host.start_trace();
            let _ = run(SelectAlgo::Continuous, &mut host, &mut t, &pred, 5);
            traces.push(host.take_trace());
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn hash_output_structure_size_is_5r() {
        let (mut host, mut t) = build(20);
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(4)).unwrap();
        let out = run(SelectAlgo::Hash, &mut host, &mut t, &pred, 4);
        assert_eq!(out.capacity(), 4 * HASH_SLOTS as u64);
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn output_feeds_into_next_operator() {
        // Chained selection: filter twice, second over the hash-shaped
        // output with its dummy slots.
        let (mut host, mut t) = build(30);
        let p1 = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(20)).unwrap();
        let mut mid = run(SelectAlgo::Hash, &mut host, &mut t, &p1, 20);
        let p2 = Predicate::cmp(mid.schema(), "id", CmpOp::Ge, Value::Int(15)).unwrap();
        let mut out = run(SelectAlgo::Small, &mut host, &mut mid, &p2, 5);
        assert_eq!(ids(&mut host, &mut out), vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn first_pass_counts_and_notes_continuity() {
        let (mut host, mut t) = build(20);
        let stats = |host: &mut Host, t: &mut FlatTable, p: &Predicate| {
            let om = OmBudget::new(0);
            select_first_pass(host, &om, t, p, None, t.row_len()).unwrap().stats
        };
        let p = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(5)).unwrap();
        assert_eq!(stats(&mut host, &mut t, &p), SelectStats { matches: 5, continuous: true });

        let a = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(3)).unwrap();
        let b = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(15)).unwrap();
        let split = Predicate::Or(Box::new(a), Box::new(b));
        let s = stats(&mut host, &mut t, &split);
        assert_eq!(s, SelectStats { matches: 8, continuous: false });

        let none = Predicate::cmp(t.schema(), "id", CmpOp::Gt, Value::Int(99)).unwrap();
        let s = stats(&mut host, &mut t, &none);
        assert_eq!(s, SelectStats { matches: 0, continuous: false });
    }

    #[test]
    fn first_pass_has_a_fixed_pattern() {
        let (mut host, mut t) = build(10);
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let p1 = Predicate::True;
        let p2 = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(3)).unwrap();
        let mut traces = Vec::new();
        for p in [&p1, &p2] {
            host.start_trace();
            let row_len = t.row_len();
            select_first_pass(&mut host, &om, &mut t, p, None, row_len).unwrap();
            traces.push(host.take_trace());
        }
        assert_eq!(traces[0], traces[1]);
    }
}
