//! The flat storage method (paper §3.1).
//!
//! Rows live in adjacent sealed blocks, one record per block (footnote 2),
//! with no built-in obliviousness — so every mutation is a full scan where
//! each block is read and re-written (dummy writes for unaffected blocks),
//! and read operators are built from full scans by the algorithms in
//! [`crate::exec`]. The only exception is the administrator-selectable
//! constant-time "fast insert" (§3.1), which appends at a cursor and leaks
//! nothing beyond the table size, which grows observably anyway.

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, HostStats};
use oblidb_storage::{batch_chunk_blocks, SealedRegion};

use crate::error::DbError;
use crate::exec::RowSink;
use crate::predicate::Predicate;
use crate::types::{Row, Schema, Value};

/// A flat table: `capacity` sealed row-blocks, `num_rows` of them in use.
///
/// Both numbers are public (the adversary sees the allocation and watches
/// it fill); *which* blocks hold real rows is hidden.
pub struct FlatTable {
    schema: Schema,
    store: SealedRegion,
    num_rows: u64,
    insert_cursor: u64,
}

impl FlatTable {
    /// Allocates an empty table of `capacity` rows.
    pub fn create<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        schema: Schema,
        capacity: u64,
    ) -> Result<Self, DbError> {
        let row_len = schema.row_len();
        let store = SealedRegion::create(host, key, capacity.max(1) as usize, row_len)?;
        Ok(FlatTable { schema, store, num_rows: 0, insert_cursor: 0 })
    }

    /// What [`FlatTable::create`] of `capacity` rows of `row_len` bytes
    /// costs the substrate. Reads and writes of existing tables are priced
    /// by [`SealedRegion`]'s batch costs at payload length `row_len`.
    pub fn create_cost(row_len: usize, capacity: u64) -> HostStats {
        SealedRegion::create_cost(row_len, capacity.max(1))
    }

    /// Bulk-creates a table from encoded rows (pre-deployment load).
    pub fn from_encoded_rows<M: EnclaveMemory>(
        host: &mut M,
        key: AeadKey,
        schema: Schema,
        rows: &[Vec<u8>],
        capacity: u64,
    ) -> Result<Self, DbError> {
        assert!(rows.len() as u64 <= capacity.max(1));
        // Batched bulk load: one crossing per chunk of contiguous rows.
        let chunk = batch_chunk_blocks(schema.row_len());
        let mut sink = RowSink::seal();
        sink.open(host, key, schema, capacity)?;
        for group in rows.chunks(chunk) {
            group.iter().for_each(|row| sink.push(row));
            sink.flush(host)?;
        }
        Ok(sink.sealed())
    }

    /// Re-attaches to a persisted table: a [`SealedRegion`] recovered from
    /// its sealed manifest plus the (public) row counters the database
    /// manifest carries.
    pub fn reattach(
        store: SealedRegion,
        schema: Schema,
        num_rows: u64,
        insert_cursor: u64,
    ) -> Self {
        FlatTable { schema, store, num_rows, insert_cursor }
    }

    /// Seals this table's trusted storage state (per-block revisions,
    /// nonce counter) for the database manifest.
    pub fn seal_manifest(&mut self) -> Vec<u8> {
        self.store.seal_manifest()
    }

    /// The fast-insert cursor (public; persisted so a reopened table
    /// appends where the old one would have).
    pub fn insert_cursor(&self) -> u64 {
        self.insert_cursor
    }

    /// The backing region's AEAD key, for embedding in the sealed
    /// database manifest.
    pub(crate) fn region_key(&self) -> AeadKey {
        self.store.key()
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Allocated blocks (public).
    pub fn capacity(&self) -> u64 {
        self.store.len()
    }

    /// Rows in use (public).
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Encoded row length.
    pub fn row_len(&self) -> usize {
        self.schema.row_len()
    }

    /// The untrusted region backing this table.
    pub fn region_id(&self) -> oblidb_enclave::RegionId {
        self.store.region_id()
    }

    /// Reads block `i`, returning the decrypted row bytes.
    pub fn read_row<M: EnclaveMemory>(&mut self, host: &mut M, i: u64) -> Result<Vec<u8>, DbError> {
        Ok(self.store.read(host, i)?.to_vec())
    }

    /// Writes block `i`.
    pub fn write_row<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        i: u64,
        bytes: &[u8],
    ) -> Result<(), DbError> {
        self.store.write(host, i, bytes)?;
        Ok(())
    }

    /// The table's batched-scan chunk size in rows — a public function of
    /// the row width only (see `oblidb_storage::batch_chunk_blocks`).
    pub fn io_chunk_rows(&self) -> usize {
        batch_chunk_blocks(self.row_len())
    }

    /// Reads `count` consecutive row blocks starting at `start` in one
    /// boundary crossing per [`FlatTable::io_chunk_rows`]-sized run,
    /// returning their concatenated decrypted bytes. The slice borrows
    /// the table's scratch; copy out what must survive the next storage
    /// call.
    pub fn read_rows<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        start: u64,
        count: usize,
    ) -> Result<&[u8], DbError> {
        Ok(self.store.read_batch(host, start, count)?)
    }

    /// Writes a whole number of encoded rows to consecutive blocks
    /// starting at `start`, in one boundary crossing per
    /// [`FlatTable::io_chunk_rows`]-sized run.
    pub fn write_rows<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        start: u64,
        rows: &[u8],
    ) -> Result<(), DbError> {
        self.store.write_batch(host, start, rows)?;
        Ok(())
    }

    /// Streams every block (used or not) front to back in batched chunks —
    /// one crossing per [`FlatTable::io_chunk_rows`] run — calling
    /// `f(block index, row bytes)` for each. The access pattern is a
    /// function of the capacity alone; this is the batched form of the
    /// read-only capacity loop every scan operator is built from.
    pub fn for_each_row<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        mut f: impl FnMut(u64, &[u8]),
    ) -> Result<(), DbError> {
        let row_len = self.row_len();
        let chunk = self.io_chunk_rows();
        let cap = self.capacity();
        let mut start = 0u64;
        while start < cap {
            let n = chunk.min((cap - start) as usize);
            let data = self.store.read_batch(host, start, n)?;
            for (off, bytes) in data.chunks_exact(row_len).enumerate() {
                f(start + off as u64, bytes);
            }
            start += n as u64;
        }
        Ok(())
    }

    /// Gather read: the row blocks at `indices`, in order, one crossing.
    pub fn read_rows_at<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        indices: &[u64],
    ) -> Result<&[u8], DbError> {
        Ok(self.store.read_batch_at(host, indices)?)
    }

    /// Scatter write: encoded row `i` goes to block `indices[i]`, one
    /// crossing.
    pub fn write_rows_at<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        indices: &[u64],
        rows: &[u8],
    ) -> Result<(), DbError> {
        self.store.write_batch_at(host, indices, rows)?;
        Ok(())
    }

    /// Sets the logical row count (used by operators that fill an output
    /// table they allocated).
    pub fn set_num_rows(&mut self, n: u64) {
        self.num_rows = n;
    }

    /// Advances the fast-insert cursor (operators that fill blocks
    /// sequentially keep it consistent).
    pub fn set_insert_cursor(&mut self, c: u64) {
        self.insert_cursor = c;
    }

    /// Replaces the schema with one of identical layout (used to attach
    /// table-qualified column names to join outputs).
    pub fn rename_columns(&mut self, schema: Schema) {
        assert_eq!(schema.row_len(), self.schema.row_len(), "layout must not change");
        self.schema = schema;
    }

    /// Oblivious insert (paper §3.1): one pass over the whole table; the
    /// first unused block gets the real write, every other block gets a
    /// dummy re-encryption. Leaks only the table size.
    pub fn insert_oblivious<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        values: &[Value],
    ) -> Result<(), DbError> {
        let encoded = self.schema.encode_row(values)?;
        let mut placed = false;
        // Chunked pass: read a run of blocks in one crossing, splice the
        // row into the first unused slot, rewrite the whole run (fresh
        // encryptions make the untouched rows dummy writes).
        self.rewrite_scan(host, |row| {
            if !placed && !Schema::row_used(row) {
                row.copy_from_slice(&encoded);
                placed = true;
            }
        })?;
        if !placed {
            return Err(DbError::TableFull("flat table".into()));
        }
        self.num_rows += 1;
        self.insert_cursor = self.insert_cursor.max(self.num_rows);
        Ok(())
    }

    /// One full batched read-modify-rewrite pass: every block is read and
    /// rewritten in [`FlatTable::io_chunk_rows`]-sized runs (one crossing
    /// per direction per run), with `f` applied to each row in place. The
    /// access pattern is a function of the capacity alone.
    pub(crate) fn rewrite_scan<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        mut f: impl FnMut(&mut [u8]),
    ) -> Result<(), DbError> {
        let row_len = self.row_len();
        let chunk = self.io_chunk_rows();
        let cap = self.capacity();
        let mut buf = Vec::with_capacity(chunk * row_len);
        let mut start = 0u64;
        while start < cap {
            let n = chunk.min((cap - start) as usize);
            buf.clear();
            buf.extend_from_slice(self.read_rows(host, start, n)?);
            for row in buf.chunks_exact_mut(row_len) {
                f(row);
            }
            self.write_rows(host, start, &buf)?;
            start += n as u64;
        }
        Ok(())
    }

    /// Constant-time insert (paper §3.1): writes directly at the cursor.
    /// Safe for tables with few deletions; leaks only the insertion count,
    /// which the adversary learns from table growth anyway.
    pub fn insert_fast<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        values: &[Value],
    ) -> Result<(), DbError> {
        let encoded = self.schema.encode_row(values)?;
        if self.insert_cursor >= self.capacity() {
            return Err(DbError::TableFull("flat table".into()));
        }
        self.store.write(host, self.insert_cursor, &encoded)?;
        self.insert_cursor += 1;
        self.num_rows += 1;
        Ok(())
    }

    /// Oblivious UPDATE (paper §3.1): one pass; matching rows are
    /// rewritten with the assignments applied, others get dummy writes.
    /// Returns the number of rows changed.
    pub fn update_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
        assignments: &[(usize, Value)],
    ) -> Result<u64, DbError> {
        let mut changed = 0;
        let schema = self.schema.clone();
        let mut err = None;
        self.rewrite_scan(host, |bytes| {
            if Schema::row_used(bytes) && pred.eval(&schema, bytes) {
                let mut row = schema.decode_row(bytes);
                for (col, v) in assignments {
                    row[*col] = v.clone();
                }
                match schema.encode_row(&row) {
                    Ok(encoded) => {
                        bytes.copy_from_slice(&encoded);
                        changed += 1;
                    }
                    Err(e) => err = Some(e),
                }
            }
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(changed)
    }

    /// Oblivious DELETE (paper §3.1): one pass; matching rows are marked
    /// unused and overwritten with dummy data, others get dummy writes.
    pub fn delete_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
    ) -> Result<u64, DbError> {
        let dummy = self.schema.dummy_row();
        let schema = self.schema.clone();
        let mut removed = 0;
        self.rewrite_scan(host, |bytes| {
            if Schema::row_used(bytes) && pred.eval(&schema, bytes) {
                bytes.copy_from_slice(&dummy);
                removed += 1;
            }
        })?;
        self.num_rows -= removed;
        Ok(removed)
    }

    /// Copies this table into a larger allocation (paper §3: capacity "can
    /// be increased later by copying to a new, larger table").
    pub fn grow<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: AeadKey,
        new_capacity: u64,
    ) -> Result<(), DbError> {
        assert!(new_capacity >= self.capacity());
        let bigger = crate::exec::copy_table(host, self, key, new_capacity)?;
        let old = std::mem::replace(&mut self.store, bigger.store);
        old.free(host)?;
        Ok(())
    }

    /// Decodes every used row (full scan — the only oblivious way out).
    pub fn collect_rows<M: EnclaveMemory>(&mut self, host: &mut M) -> Result<Vec<Row>, DbError> {
        let mut out = Vec::with_capacity(self.num_rows as usize);
        let schema = self.schema.clone();
        self.for_each_row(host, |_, bytes| {
            if Schema::row_used(bytes) {
                out.push(schema.decode_row(bytes));
            }
        })?;
        Ok(out)
    }

    /// Releases untrusted memory.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), DbError> {
        self.store.free(host)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::types::{Column, DataType};
    use oblidb_enclave::AccessKind;
    use oblidb_enclave::Host;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)])
    }

    fn setup(capacity: u64) -> (Host, FlatTable) {
        let mut host = Host::new();
        let t = FlatTable::create(&mut host, AeadKey([1u8; 32]), schema(), capacity).unwrap();
        (host, t)
    }

    fn vrow(id: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(v)]
    }

    #[test]
    fn oblivious_insert_and_collect() {
        let (mut host, mut t) = setup(8);
        t.insert_oblivious(&mut host, &vrow(1, 10)).unwrap();
        t.insert_oblivious(&mut host, &vrow(2, 20)).unwrap();
        assert_eq!(t.num_rows(), 2);
        let rows = t.collect_rows(&mut host).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn oblivious_insert_touches_every_block_uniformly() {
        let (mut host, mut t) = setup(8);
        host.start_trace();
        t.insert_oblivious(&mut host, &vrow(1, 10)).unwrap();
        let trace_a = host.take_trace();
        host.start_trace();
        t.insert_oblivious(&mut host, &vrow(999, -5)).unwrap();
        let trace_b = host.take_trace();
        // Identical access pattern no matter the values or fill level.
        assert_eq!(trace_a, trace_b);
        // Pattern is one batched read run then one batched write run over
        // all blocks (capacity 8 fits a single chunk), in index order.
        assert_eq!(trace_a.len(), 16);
        let (reads, writes) = trace_a.0.split_at(8);
        for (i, (r, w)) in reads.iter().zip(writes).enumerate() {
            assert_eq!(r.kind, AccessKind::Read);
            assert_eq!(w.kind, AccessKind::Write);
            assert_eq!(r.index, i as u64);
            assert_eq!(w.index, i as u64);
        }
    }

    #[test]
    fn oblivious_scans_batch_crossings() {
        let (mut host, mut t) = setup(100);
        host.reset_stats();
        t.insert_oblivious(&mut host, &vrow(1, 10)).unwrap();
        let s = host.stats();
        assert_eq!(s.total_accesses(), 200, "every block read and rewritten");
        assert_eq!(s.crossings, 2, "one batched crossing per direction");
    }

    #[test]
    fn fast_insert_is_constant_time() {
        let (mut host, mut t) = setup(8);
        host.start_trace();
        t.insert_fast(&mut host, &vrow(1, 1)).unwrap();
        assert_eq!(host.take_trace().len(), 1);
        t.insert_fast(&mut host, &vrow(2, 2)).unwrap();
        assert_eq!(t.collect_rows(&mut host).unwrap().len(), 2);
    }

    #[test]
    fn table_full_detected() {
        let (mut host, mut t) = setup(2);
        t.insert_fast(&mut host, &vrow(1, 1)).unwrap();
        t.insert_fast(&mut host, &vrow(2, 2)).unwrap();
        assert!(matches!(t.insert_fast(&mut host, &vrow(3, 3)), Err(DbError::TableFull(_))));
        assert!(matches!(t.insert_oblivious(&mut host, &vrow(3, 3)), Err(DbError::TableFull(_))));
    }

    #[test]
    fn update_where_applies_assignments() {
        let (mut host, mut t) = setup(4);
        for i in 0..4 {
            t.insert_fast(&mut host, &vrow(i, i * 10)).unwrap();
        }
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Ge, Value::Int(2)).unwrap();
        let changed = t.update_where(&mut host, &pred, &[(1, Value::Int(0))]).unwrap();
        assert_eq!(changed, 2);
        let rows = t.collect_rows(&mut host).unwrap();
        assert_eq!(rows[2][1], Value::Int(0));
        assert_eq!(rows[1][1], Value::Int(10));
    }

    #[test]
    fn update_trace_is_data_independent() {
        let (mut host, mut t) = setup(6);
        for i in 0..6 {
            t.insert_fast(&mut host, &vrow(i, i)).unwrap();
        }
        let p_none = Predicate::cmp(t.schema(), "id", CmpOp::Gt, Value::Int(100)).unwrap();
        let p_all = Predicate::True;
        host.start_trace();
        t.update_where(&mut host, &p_none, &[(1, Value::Int(7))]).unwrap();
        let a = host.take_trace();
        host.start_trace();
        t.update_where(&mut host, &p_all, &[(1, Value::Int(7))]).unwrap();
        let b = host.take_trace();
        assert_eq!(a, b);
    }

    #[test]
    fn delete_where_marks_unused() {
        let (mut host, mut t) = setup(5);
        for i in 0..5 {
            t.insert_fast(&mut host, &vrow(i, i)).unwrap();
        }
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Lt, Value::Int(2)).unwrap();
        assert_eq!(t.delete_where(&mut host, &pred).unwrap(), 2);
        assert_eq!(t.num_rows(), 3);
        let rows = t.collect_rows(&mut host).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r[0].as_int().unwrap() >= 2));
    }

    #[test]
    fn delete_trace_is_data_independent() {
        let (mut host, mut t) = setup(5);
        for i in 0..5 {
            t.insert_fast(&mut host, &vrow(i, i)).unwrap();
        }
        let p1 = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(0)).unwrap();
        let p2 = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(4)).unwrap();
        host.start_trace();
        t.delete_where(&mut host, &p1).unwrap();
        let a = host.take_trace();
        host.start_trace();
        t.delete_where(&mut host, &p2).unwrap();
        let b = host.take_trace();
        assert_eq!(a, b);
    }

    #[test]
    fn oblivious_insert_reuses_deleted_slots() {
        let (mut host, mut t) = setup(2);
        t.insert_fast(&mut host, &vrow(1, 1)).unwrap();
        t.insert_fast(&mut host, &vrow(2, 2)).unwrap();
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(1)).unwrap();
        t.delete_where(&mut host, &pred).unwrap();
        t.insert_oblivious(&mut host, &vrow(3, 3)).unwrap();
        let mut ids: Vec<i64> =
            t.collect_rows(&mut host).unwrap().iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn grow_preserves_rows() {
        let (mut host, mut t) = setup(2);
        t.insert_fast(&mut host, &vrow(1, 1)).unwrap();
        t.insert_fast(&mut host, &vrow(2, 2)).unwrap();
        t.grow(&mut host, AeadKey([2u8; 32]), 10).unwrap();
        assert_eq!(t.capacity(), 10);
        t.insert_fast(&mut host, &vrow(3, 3)).unwrap();
        assert_eq!(t.collect_rows(&mut host).unwrap().len(), 3);
    }

    #[test]
    fn bulk_load_roundtrip() {
        let mut host = Host::new();
        let s = schema();
        let rows: Vec<Vec<u8>> =
            (0..5i64).map(|i| s.encode_row(&vrow(i, i * 2)).unwrap()).collect();
        let mut t =
            FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), s, &rows, 10).unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.capacity(), 10);
        assert_eq!(t.collect_rows(&mut host).unwrap().len(), 5);
    }
}
