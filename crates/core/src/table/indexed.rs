//! The indexed storage method (paper §3.2): an oblivious B+ tree keyed on
//! one column, storing full rows in its leaves.
//!
//! Index keys are composites of the (order-preserving encoded) column value
//! and the row id, so duplicate column values coexist and a column range
//! `[lo, hi]` maps to the contiguous key range
//! `[composite(lo, 0), composite(hi, MAX)]`.

use oblidb_btree::{ObTree, ObTreeError};
use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, OmBudget};
use oblidb_oram::PosMapKind;

use crate::error::DbError;
use crate::key;
use crate::predicate::{Bound, Predicate};
use crate::table::FlatTable;
use crate::types::{DataType, Schema, Value};

/// Default internal-node fanout for table indexes.
pub const DEFAULT_FANOUT: usize = 8;

/// An indexed table.
pub struct IndexedTable {
    schema: Schema,
    tree: ObTree,
    key_col: usize,
    next_rowid: u64,
}

impl IndexedTable {
    /// Creates an empty indexed table. The index ORAM's position map is
    /// charged to `om` (8 bytes per node, paper §3.3).
    pub fn create<M: EnclaveMemory>(
        host: &mut M,
        tree_key: AeadKey,
        schema: Schema,
        key_col: usize,
        max_records: u64,
        om: &OmBudget,
        rng: EnclaveRng,
    ) -> Result<Self, DbError> {
        let payload_len = schema.row_len();
        let tree = ObTree::new(
            host,
            tree_key,
            max_records,
            payload_len,
            DEFAULT_FANOUT,
            PosMapKind::Direct,
            om,
            rng,
        )?;
        Ok(IndexedTable { schema, tree, key_col, next_rowid: 1 })
    }

    /// Bulk-loads from encoded rows (pre-deployment load).
    pub fn from_encoded_rows<M: EnclaveMemory>(
        host: &mut M,
        tree_key: AeadKey,
        schema: Schema,
        key_col: usize,
        rows: &[Vec<u8>],
        max_records: u64,
        om: &OmBudget,
        rng: EnclaveRng,
    ) -> Result<Self, DbError> {
        let mut items: Vec<(u128, Vec<u8>)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let v = schema.decode_col(r, key_col);
                (key::composite(&v, 1 + i as u64), r.clone())
            })
            .collect();
        items.sort_by_key(|(k, _)| *k);
        let payload_len = schema.row_len();
        let tree = ObTree::bulk_load(
            host,
            tree_key,
            &items,
            max_records,
            payload_len,
            DEFAULT_FANOUT,
            PosMapKind::Direct,
            om,
            rng,
        )?;
        Ok(IndexedTable { schema, tree, key_col, next_rowid: 1 + rows.len() as u64 })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The indexed column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Converts column-range bounds on the key column into a composite key
    /// range. Keys are read from encoded rows, so an integer bound on a
    /// float column is taken as the float the row codec stores for it.
    fn key_range(&self, lo: &Bound, hi: &Bound) -> (u128, u128) {
        let dtype = self.schema.columns[self.key_col].dtype;
        let as_stored = |v: &Value| match (dtype, v) {
            (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
            _ => v.clone(),
        };
        let k_lo = match lo {
            Bound::Unbounded => 0,
            Bound::Inclusive(v) => key::range_lo(&as_stored(v)),
            Bound::Exclusive(v) => key::range_hi(&as_stored(v)).saturating_add(1),
        };
        let k_hi = match hi {
            Bound::Unbounded => u128::MAX,
            Bound::Inclusive(v) => key::range_hi(&as_stored(v)),
            Bound::Exclusive(v) => key::range_lo(&as_stored(v)).saturating_sub(1),
        };
        (k_lo, k_hi)
    }

    /// Row count (public).
    pub fn num_rows(&self) -> u64 {
        self.tree.len()
    }

    /// Whether the index holds as many rows as it was sized for (public:
    /// row count and capacity both are).
    pub fn is_full(&self) -> bool {
        self.tree.len() >= self.tree.max_records()
    }

    /// The untrusted regions of the index's ORAM, where block positions
    /// are random by construction.
    pub fn oram_region_ids(&self) -> Vec<oblidb_enclave::RegionId> {
        self.tree.oram_region_ids()
    }

    /// Index height (public; determines padded op costs).
    pub fn height(&self) -> u32 {
        self.tree.height()
    }

    /// Inserts an encoded row; every insert costs the same padded number
    /// of ORAM accesses (paper §3.2).
    pub fn insert<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        encoded: &[u8],
    ) -> Result<u64, DbError> {
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        let k = key::composite(&self.schema.decode_col(encoded, self.key_col), rowid);
        match self.tree.insert(host, k, encoded) {
            Ok(_) => Ok(rowid),
            Err(ObTreeError::CapacityExceeded) => Err(DbError::TableFull("index".into())),
            Err(e) => Err(e.into()),
        }
    }

    /// Materializes the rows whose indexed column lies in `[lo, hi]` as a
    /// flat intermediate table T′ (paper §4.1, Selection over Indexes).
    /// Leaks the scanned segment size — counted as an intermediate table
    /// size.
    pub fn range_to_flat<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        out_key: AeadKey,
        lo: &Bound,
        hi: &Bound,
    ) -> Result<FlatTable, DbError> {
        Ok(self
            .range_to_flat_capped(host, out_key, lo, hi, u64::MAX)?
            .expect("uncapped walk completes"))
    }

    /// Like [`IndexedTable::range_to_flat`], but aborts (returning `None`)
    /// once more than `cap` rows are found. The planner probes `Both`
    /// tables this way: small ranges come out of the index at index cost;
    /// large ones fall back to the flat scan, having leaked only that the
    /// range exceeded a public, size-derived threshold.
    pub fn range_to_flat_capped<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        out_key: AeadKey,
        lo: &Bound,
        hi: &Bound,
        cap: u64,
    ) -> Result<Option<FlatTable>, DbError> {
        let (k_lo, k_hi) = self.key_range(lo, hi);
        let Some(hits) = self.tree.range_leaky_capped(host, k_lo, k_hi, cap)? else {
            return Ok(None);
        };
        let rows: Vec<Vec<u8>> = hits.into_iter().map(|(_, r)| r).collect();
        let n = rows.len() as u64;
        let mut out =
            FlatTable::from_encoded_rows(host, out_key, self.schema.clone(), &rows, n.max(1))?;
        out.set_num_rows(n);
        Ok(Some(out))
    }

    /// Deletes rows matching `pred`, using the index range when the
    /// predicate allows it and a full chain scan otherwise. Returns the
    /// count (leaked as a result size).
    pub fn delete_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
    ) -> Result<u64, DbError> {
        let victims = self.matching_keys(host, pred)?;
        let n = victims.len() as u64;
        for k in victims {
            self.tree.delete(host, k)?;
        }
        Ok(n)
    }

    /// Updates rows matching `pred`. Key-column changes are delete+insert
    /// (the composite key moves); other columns update in place.
    pub fn update_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
        assignments: &[(usize, Value)],
    ) -> Result<u64, DbError> {
        let key_changes = assignments.iter().any(|(c, _)| *c == self.key_col);
        let victims = self.matching_rows(host, pred)?;
        let n = victims.len() as u64;
        for (k, bytes) in victims {
            let mut row = self.schema.decode_row(&bytes);
            for (col, v) in assignments {
                row[*col] = v.clone();
            }
            let encoded = self.schema.encode_row(&row)?;
            if key_changes {
                self.tree.delete(host, k)?;
                let rowid = (k & u64::MAX as u128) as u64;
                let nk = key::composite(&self.schema.decode_col(&encoded, self.key_col), rowid);
                self.tree.insert(host, nk, &encoded)?;
            } else {
                self.tree.update(host, k, &encoded)?;
            }
        }
        Ok(n)
    }

    fn matching_keys<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
    ) -> Result<Vec<u128>, DbError> {
        Ok(self.matching_rows(host, pred)?.into_iter().map(|(k, _)| k).collect())
    }

    fn matching_rows<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
    ) -> Result<Vec<(u128, Vec<u8>)>, DbError> {
        let (k_lo, k_hi) = match pred.index_range() {
            Some((col, lo, hi)) if col == self.key_col => self.key_range(&lo, &hi),
            _ => (0, u128::MAX),
        };
        let hits = self.tree.range_leaky(host, k_lo, k_hi)?;
        Ok(hits.into_iter().filter(|(_, bytes)| pred.eval(&self.schema, bytes)).collect())
    }

    /// Scans the physical index structure linearly "as if flat"
    /// (paper §3.2), feeding every slot — record or dummy — to `f` in a
    /// data-independent order.
    pub fn scan_structure<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        f: impl FnMut(Option<(u128, &[u8])>),
    ) -> Result<(), DbError> {
        self.tree.scan_structure(host, f)?;
        Ok(())
    }

    /// Releases untrusted memory.
    pub fn free<M: EnclaveMemory>(self, host: &mut M) -> Result<(), DbError> {
        self.tree.free(host)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::types::{Column, DataType};
    use oblidb_enclave::Host;
    use oblidb_enclave::DEFAULT_OM_BYTES;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)])
    }

    fn setup(cap: u64) -> (Host, OmBudget, IndexedTable) {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let t = IndexedTable::create(
            &mut host,
            AeadKey([4u8; 32]),
            schema(),
            0,
            cap,
            &om,
            EnclaveRng::seed_from_u64(11),
        )
        .unwrap();
        (host, om, t)
    }

    fn vrow(id: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(v)]
    }

    fn row(id: i64, v: i64) -> Vec<u8> {
        schema().encode_row(&vrow(id, v)).unwrap()
    }

    #[test]
    fn insert_and_point_range() {
        let (mut host, _om, mut t) = setup(100);
        for i in 0..50 {
            t.insert(&mut host, &row(i, i * 2)).unwrap();
        }
        assert_eq!(t.num_rows(), 50);
        let mut flat = t
            .range_to_flat(
                &mut host,
                AeadKey([9u8; 32]),
                &Bound::Inclusive(Value::Int(7)),
                &Bound::Inclusive(Value::Int(7)),
            )
            .unwrap();
        let rows = flat.collect_rows(&mut host).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Int(14));
    }

    #[test]
    fn range_with_duplicates() {
        let (mut host, _om, mut t) = setup(100);
        for i in 0..10 {
            t.insert(&mut host, &row(5, i)).unwrap();
            t.insert(&mut host, &row(6, 100 + i)).unwrap();
        }
        let mut flat = t
            .range_to_flat(
                &mut host,
                AeadKey([9u8; 32]),
                &Bound::Inclusive(Value::Int(5)),
                &Bound::Inclusive(Value::Int(5)),
            )
            .unwrap();
        assert_eq!(flat.collect_rows(&mut host).unwrap().len(), 10);
    }

    #[test]
    fn open_and_exclusive_bounds() {
        let (mut host, _om, mut t) = setup(100);
        for i in 0..20 {
            t.insert(&mut host, &row(i, i)).unwrap();
        }
        let mut flat = t
            .range_to_flat(
                &mut host,
                AeadKey([9u8; 32]),
                &Bound::Exclusive(Value::Int(3)),
                &Bound::Exclusive(Value::Int(7)),
            )
            .unwrap();
        let ids: Vec<i64> =
            flat.collect_rows(&mut host).unwrap().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![4, 5, 6]);
        let mut all = t
            .range_to_flat(&mut host, AeadKey([8u8; 32]), &Bound::Unbounded, &Bound::Unbounded)
            .unwrap();
        assert_eq!(all.collect_rows(&mut host).unwrap().len(), 20);
    }

    #[test]
    fn delete_where_uses_index_range() {
        let (mut host, _om, mut t) = setup(100);
        for i in 0..30 {
            t.insert(&mut host, &row(i, i)).unwrap();
        }
        let pred = Predicate::cmp(&schema(), "id", CmpOp::Lt, Value::Int(10)).unwrap();
        assert_eq!(t.delete_where(&mut host, &pred).unwrap(), 10);
        assert_eq!(t.num_rows(), 20);
    }

    #[test]
    fn delete_where_nonkey_falls_back_to_scan() {
        let (mut host, _om, mut t) = setup(100);
        for i in 0..30 {
            t.insert(&mut host, &row(i, i % 3)).unwrap();
        }
        let pred = Predicate::cmp(&schema(), "v", CmpOp::Eq, Value::Int(0)).unwrap();
        assert_eq!(t.delete_where(&mut host, &pred).unwrap(), 10);
    }

    #[test]
    fn update_where_in_place() {
        let (mut host, _om, mut t) = setup(50);
        for i in 0..10 {
            t.insert(&mut host, &row(i, 0)).unwrap();
        }
        let pred = Predicate::cmp(&schema(), "id", CmpOp::Ge, Value::Int(5)).unwrap();
        assert_eq!(t.update_where(&mut host, &pred, &[(1, Value::Int(7))]).unwrap(), 5);
        let mut flat = t
            .range_to_flat(&mut host, AeadKey([9u8; 32]), &Bound::Unbounded, &Bound::Unbounded)
            .unwrap();
        let rows = flat.collect_rows(&mut host).unwrap();
        assert_eq!(rows.iter().filter(|r| r[1] == Value::Int(7)).count(), 5);
    }

    #[test]
    fn update_where_key_column_moves_entry() {
        let (mut host, _om, mut t) = setup(50);
        for i in 0..5 {
            t.insert(&mut host, &row(i, i)).unwrap();
        }
        let pred = Predicate::cmp(&schema(), "id", CmpOp::Eq, Value::Int(2)).unwrap();
        assert_eq!(t.update_where(&mut host, &pred, &[(0, Value::Int(100))]).unwrap(), 1);
        assert_eq!(t.num_rows(), 5);
        let mut hits = t
            .range_to_flat(
                &mut host,
                AeadKey([9u8; 32]),
                &Bound::Inclusive(Value::Int(100)),
                &Bound::Inclusive(Value::Int(100)),
            )
            .unwrap();
        assert_eq!(hits.collect_rows(&mut host).unwrap().len(), 1);
        let mut gone = t
            .range_to_flat(
                &mut host,
                AeadKey([8u8; 32]),
                &Bound::Inclusive(Value::Int(2)),
                &Bound::Inclusive(Value::Int(2)),
            )
            .unwrap();
        assert_eq!(gone.collect_rows(&mut host).unwrap().len(), 0);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let mut host = Host::new();
        let om = OmBudget::new(DEFAULT_OM_BYTES);
        let s = schema();
        let rows: Vec<Vec<u8>> = (0..40i64).map(|i| s.encode_row(&vrow(i, i)).unwrap()).collect();
        let mut t = IndexedTable::from_encoded_rows(
            &mut host,
            AeadKey([4u8; 32]),
            s,
            0,
            &rows,
            100,
            &om,
            EnclaveRng::seed_from_u64(2),
        )
        .unwrap();
        assert_eq!(t.num_rows(), 40);
        // Mutations after bulk load keep working, with fresh row ids.
        t.insert(&mut host, &row(100, 1)).unwrap();
        let pred = Predicate::cmp(t.schema(), "id", CmpOp::Eq, Value::Int(100)).unwrap();
        assert_eq!(t.delete_where(&mut host, &pred).unwrap(), 1);
    }

    #[test]
    fn structure_scan_sees_all_rows() {
        let (mut host, _om, mut t) = setup(20);
        for i in 0..20 {
            t.insert(&mut host, &row(i, i)).unwrap();
        }
        let mut count = 0;
        t.scan_structure(&mut host, |slot| {
            if slot.is_some() {
                count += 1;
            }
        })
        .unwrap();
        assert_eq!(count, 20);
    }
}
