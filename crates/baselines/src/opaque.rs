//! Opaque's *oblivious mode*, re-implemented on the ObliDB substrate
//! (Zheng et al., NSDI'17; compared against in paper Figures 7 and 8).
//!
//! Opaque supports only scan-based analytics: every operator reads whole
//! tables and establishes obliviousness through **oblivious sorts** —
//! quicksort over chunks that fit in oblivious memory, merged with a
//! bitonic network. There are no indexes and no planner; that is exactly
//! the architectural difference Figure 7 measures. Running both designs on
//! one substrate isolates it.

use oblidb_core::exec::{self, AggFunc, RowSink, SortMergeVariant};
use oblidb_core::predicate::Predicate;
use oblidb_core::table::FlatTable;
use oblidb_core::types::{Schema, Value};
use oblidb_core::DbError;
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, Host, OmBudget};

/// The Opaque-style engine: a memory substrate, an oblivious-memory
/// budget (72 MB in the paper's evaluation), and a key source.
pub struct OpaqueEngine<M: EnclaveMemory = Host> {
    /// Untrusted memory.
    pub host: M,
    om: OmBudget,
    master: [u8; 32],
    counter: u64,
}

impl OpaqueEngine<Host> {
    /// Creates an engine with the given oblivious-memory budget over a
    /// fresh in-memory [`Host`].
    pub fn new(om_bytes: usize, seed: u64) -> Self {
        Self::with_memory(Host::new(), om_bytes, seed)
    }
}

impl<M: EnclaveMemory> OpaqueEngine<M> {
    /// Creates an engine over a caller-provided memory substrate.
    pub fn with_memory(host: M, om_bytes: usize, seed: u64) -> Self {
        let mut rng = EnclaveRng::seed_from_u64(seed);
        let mut master = [0u8; 32];
        rng.fill(&mut master);
        OpaqueEngine { host, om: OmBudget::new(om_bytes), master, counter: 0 }
    }

    fn next_key(&mut self) -> AeadKey {
        self.counter += 1;
        AeadKey(oblidb_crypto::derive_key(
            &self.master,
            format!("opaque:{}", self.counter).as_bytes(),
        ))
    }

    /// The oblivious-memory budget handle.
    pub fn om(&self) -> &OmBudget {
        &self.om
    }

    /// Loads a table from rows.
    pub fn load_table(
        &mut self,
        schema: Schema,
        rows: &[Vec<Value>],
    ) -> Result<FlatTable, DbError> {
        let encoded: Vec<Vec<u8>> =
            rows.iter().map(|r| schema.encode_row(r)).collect::<Result<_, _>>()?;
        let key = self.next_key();
        FlatTable::from_encoded_rows(&mut self.host, key, schema, &encoded, encoded.len() as u64)
    }

    fn sort_chunk_rows(&self, row_len: usize) -> usize {
        (self.om.available() / row_len.max(1)).max(1)
    }

    /// Oblivious SELECT, Opaque style: mark matching rows in a copy, then
    /// obliviously sort matches to the front. Always two full passes plus a
    /// sort — there is no small-result fast path (that gap is what ObliDB's
    /// planner exploits in Figure 7 Q1).
    pub fn select(
        &mut self,
        input: &mut FlatTable,
        pred: &Predicate,
    ) -> Result<FlatTable, DbError> {
        let schema = input.schema().clone();
        let n = input.capacity().max(2).next_power_of_two();
        let key = self.next_key();
        let mut out = FlatTable::create(&mut self.host, key, schema.clone(), n)?;

        // Pass 1: copy with non-matching rows cleared, in batched runs.
        let matches =
            copy_filtered(&mut self.host, input, &mut out, &schema, |b| pred.eval(&schema, b))?;

        // Pass 2: oblivious sort to compact matches to the front (dummies
        // carry the maximal key).
        let chunk = self.sort_chunk_rows(schema.row_len());
        let alloc = self.om.alloc_up_to(chunk * schema.row_len());
        exec::bitonic_sort(
            &mut self.host,
            &mut out,
            n,
            |bytes| if Schema::row_used(bytes) { 0 } else { u128::MAX },
            chunk,
        )?;
        drop(alloc);

        out.set_num_rows(matches);
        out.set_insert_cursor(out.capacity());
        Ok(out)
    }

    /// Plain aggregation: one scan, same as ObliDB (both are optimal here).
    pub fn aggregate(
        &mut self,
        input: &mut FlatTable,
        func: AggFunc,
        col: Option<usize>,
        pred: &Predicate,
    ) -> Result<Value, DbError> {
        Ok(exec::aggregate(&mut self.host, input, &[(func, col)], pred)?.remove(0))
    }

    /// Grouped aggregation, Opaque style (paper §4.2 calls it
    /// "sort-and-filter"): obliviously sort a copy by group key, then one
    /// scan emitting one output block per input row — a real row on group
    /// boundaries, a dummy otherwise. O(N log² N) against ObliDB's O(N).
    pub fn group_aggregate(
        &mut self,
        input: &mut FlatTable,
        group_col: usize,
        func: AggFunc,
        agg_col: Option<usize>,
        pred: &Predicate,
    ) -> Result<FlatTable, DbError> {
        let schema = input.schema().clone();
        let n = input.capacity().max(2).next_power_of_two();
        let group_off = schema.col_offset(group_col);
        let group_w = schema.columns[group_col].dtype.width();

        // Copy with non-matching rows cleared (batched), then sort by
        // group key.
        let copy_key = self.next_key();
        let mut sorted = FlatTable::create(&mut self.host, copy_key, schema.clone(), n)?;
        copy_filtered(&mut self.host, input, &mut sorted, &schema, |b| pred.eval(&schema, b))?;
        let chunk = self.sort_chunk_rows(schema.row_len());
        let alloc = self.om.alloc_up_to(chunk * schema.row_len());
        exec::bitonic_sort(
            &mut self.host,
            &mut sorted,
            n,
            move |bytes| {
                if !Schema::row_used(bytes) {
                    return u128::MAX;
                }
                let mut key = [0u8; 16];
                let take = group_w.min(16);
                key[16 - take..].copy_from_slice(&bytes[group_off..group_off + take]);
                u128::from_be_bytes(key)
            },
            chunk,
        )?;
        drop(alloc);

        // Scan: emit the running group's aggregate when the key changes.
        // One output block per input row, plus one flush block for the
        // final group (a boundary emit can land in block n-1, so the flush
        // needs its own slot), keeps the pattern fixed. Reads and writes
        // stream in batched runs.
        let out_schema = exec::group_output_schema(&schema, group_col, func, agg_col);
        let out_key = self.next_key();
        let mut out = FlatTable::create(&mut self.host, out_key, out_schema.clone(), n + 1)?;
        let out_dummy = out_schema.dummy_row();
        let mut current: Option<(Vec<u8>, Value, oblidb_core::exec::AggState)> = None;
        let mut groups = 0u64;
        let row_len = schema.row_len();
        let chunk = sorted.io_chunk_rows();
        let mut out_buf: Vec<u8> = Vec::with_capacity(chunk * out_schema.row_len());
        let mut start = 0u64;
        while start < n {
            let count = chunk.min((n - start) as usize);
            let in_rows = sorted.read_rows(&mut self.host, start, count)?;
            out_buf.clear();
            for bytes in in_rows.chunks_exact(row_len) {
                let mut emit: Option<Vec<u8>> = None;
                if Schema::row_used(bytes) {
                    let gkey = bytes[group_off..group_off + group_w].to_vec();
                    let gval = schema.decode_col(bytes, group_col);
                    let boundary = current.as_ref().is_none_or(|(k, _, _)| *k != gkey);
                    if boundary {
                        if let Some((_, v, state)) = current.take() {
                            emit = Some(out_schema.encode_row(&[v, state.finish()])?);
                            groups += 1;
                        }
                        current = Some((gkey, gval, oblidb_core::exec::AggState::new(func)));
                    }
                    let state = &mut current.as_mut().expect("set above").2;
                    match agg_col {
                        Some(c) => state.add(&schema.decode_col(bytes, c)),
                        None => state.add(&Value::Int(1)),
                    }
                }
                match emit {
                    Some(row) => out_buf.extend_from_slice(&row),
                    None => out_buf.extend_from_slice(&out_dummy),
                }
            }
            out.write_rows(&mut self.host, start, &out_buf)?;
            start += count as u64;
        }
        // Flush the last group into the extra block. Written
        // unconditionally (dummy when no group is open) so the transcript
        // is always exactly n + 1 output writes.
        let flush = match current.take() {
            Some((_, v, state)) => {
                groups += 1;
                out_schema.encode_row(&[v, state.finish()])?
            }
            None => out_dummy.clone(),
        };
        out.write_row(&mut self.host, n, &flush)?;
        sorted.free(&mut self.host)?;
        out.set_num_rows(groups);
        out.set_insert_cursor(out.capacity());
        Ok(out)
    }

    /// Opaque's join: the sort-merge join of paper §4.3 (ObliDB re-uses
    /// this algorithm as its "Opaque join").
    pub fn join(
        &mut self,
        t1: &mut FlatTable,
        c1: usize,
        t2: &mut FlatTable,
        c2: usize,
    ) -> Result<FlatTable, DbError> {
        let key = self.next_key();
        let out = exec::sort_merge_join(
            &mut self.host,
            &self.om,
            t1,
            c1,
            t2,
            c2,
            key,
            RowSink::seal(),
            SortMergeVariant::Opaque,
        )?;
        Ok(out.expect("a sealing sink returns its table"))
    }
}

/// Batched filtered copy: every block of `input` is read and every block
/// of `out` written (matching rows verbatim, others as dummies), in
/// chunked runs of one crossing per direction. Returns the match count.
fn copy_filtered<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    out: &mut FlatTable,
    schema: &Schema,
    mut matches: impl FnMut(&[u8]) -> bool,
) -> Result<u64, DbError> {
    let dummy = schema.dummy_row();
    let row_len = schema.row_len();
    let chunk = input.io_chunk_rows();
    let cap = input.capacity();
    let mut buf: Vec<u8> = Vec::with_capacity(chunk * row_len);
    let mut kept = 0u64;
    let mut start = 0u64;
    while start < cap {
        let n = chunk.min((cap - start) as usize);
        buf.clear();
        buf.extend_from_slice(input.read_rows(host, start, n)?);
        for bytes in buf.chunks_exact_mut(row_len) {
            if Schema::row_used(bytes) && matches(bytes) {
                kept += 1;
            } else {
                bytes.copy_from_slice(&dummy);
            }
        }
        out.write_rows(host, start, &buf)?;
        start += n as u64;
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_core::predicate::CmpOp;
    use oblidb_core::types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("g", DataType::Int)])
    }

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 4)]).collect()
    }

    #[test]
    fn select_compacts_matches() {
        let mut eng = OpaqueEngine::new(1 << 20, 7);
        let mut t = eng.load_table(schema(), &rows(20)).unwrap();
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(5)).unwrap();
        let mut out = eng.select(&mut t, &pred).unwrap();
        assert_eq!(out.num_rows(), 5);
        let got = out.collect_rows(&mut eng.host).unwrap();
        let mut ids: Vec<i64> = got.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // Matches are compacted to the front of the output structure.
        for i in 0..5 {
            let b = out.read_row(&mut eng.host, i).unwrap();
            assert!(Schema::row_used(&b));
        }
    }

    #[test]
    fn select_trace_is_size_determined() {
        let mut traces = Vec::new();
        for cutoff in [2i64, 12] {
            let mut eng = OpaqueEngine::new(1 << 16, 7);
            let mut t = eng.load_table(schema(), &rows(16)).unwrap();
            let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(cutoff)).unwrap();
            eng.host.start_trace();
            eng.select(&mut t, &pred).unwrap();
            traces.push(eng.host.take_trace());
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn group_aggregate_matches_plain() {
        let mut eng = OpaqueEngine::new(1 << 20, 7);
        let mut t = eng.load_table(schema(), &rows(20)).unwrap();
        let mut out =
            eng.group_aggregate(&mut t, 1, AggFunc::Sum, Some(0), &Predicate::True).unwrap();
        let mut got = out.collect_rows(&mut eng.host).unwrap();
        got.sort_by_key(|r| r[0].as_int().unwrap());
        // Groups 0..4 of ids 0..20 step 4: sums 40,45,50,55.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], vec![Value::Int(0), Value::Int(40)]);
        assert_eq!(got[1], vec![Value::Int(1), Value::Int(45)]);
        assert_eq!(got[3], vec![Value::Int(3), Value::Int(55)]);
    }

    #[test]
    fn group_aggregate_keeps_group_emitted_in_final_block() {
        // Regression: with the table full to its power-of-two capacity and
        // the last sorted row opening a new group, the final-group flush
        // must not overwrite the group emitted at the last loop block.
        let mut eng = OpaqueEngine::new(1 << 20, 7);
        let rows: Vec<Vec<Value>> =
            (0..16).map(|i| vec![Value::Int(i), Value::Int(i64::from(i >= 15))]).collect();
        let mut t = eng.load_table(schema(), &rows).unwrap();
        let mut out =
            eng.group_aggregate(&mut t, 1, AggFunc::Count, None, &Predicate::True).unwrap();
        let mut got = out.collect_rows(&mut eng.host).unwrap();
        got.sort_by_key(|r| r[0].as_int().unwrap());
        assert_eq!(
            got,
            vec![vec![Value::Int(0), Value::Int(15)], vec![Value::Int(1), Value::Int(1)]]
        );
    }

    #[test]
    fn join_works() {
        let mut eng = OpaqueEngine::new(1 << 20, 7);
        let s1 =
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("a", DataType::Int)]);
        let s2 =
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("b", DataType::Int)]);
        let r1: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        let r2: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Int(i % 6), Value::Int(i)]).collect();
        let mut t1 = eng.load_table(s1, &r1).unwrap();
        let mut t2 = eng.load_table(s2, &r2).unwrap();
        let out = eng.join(&mut t1, 0, &mut t2, 0).unwrap();
        assert_eq!(out.num_rows(), 12);
    }

    #[test]
    fn smaller_om_means_more_accesses() {
        let mut counts = Vec::new();
        for om in [1usize << 10, 1 << 20] {
            let mut eng = OpaqueEngine::new(om, 7);
            let mut t = eng.load_table(schema(), &rows(64)).unwrap();
            let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(5)).unwrap();
            eng.host.reset_stats();
            eng.select(&mut t, &pred).unwrap();
            counts.push(eng.host.stats().total_accesses());
        }
        assert!(counts[0] > counts[1], "{counts:?}");
    }
}
