//! Storage methods (paper §3): flat, indexed, or both.

mod flat;
mod indexed;

pub use flat::FlatTable;
pub use indexed::IndexedTable;

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, EnclaveRng, OmBudget};

use crate::error::DbError;
use crate::predicate::Predicate;
use crate::types::{Schema, Value};

/// Which storage method(s) a table uses (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMethod {
    /// Flat only.
    Flat,
    /// Oblivious B+ tree only.
    Indexed,
    /// Both, kept in sync (Figure 12).
    Both,
}

/// A table's storage: one or both methods attached, never neither.
///
/// Administrators choose the representation per table based on the expected
/// workload (paper §3.3); BOTH pays insert/update/delete on each method
/// but lets the planner use the better one per query (Figure 12).
pub struct TableStorage {
    /// Contiguous sealed blocks, scanned in full by every operator.
    flat: Option<FlatTable>,
    /// Oblivious B+ tree in Path ORAM.
    indexed: Option<IndexedTable>,
}

impl From<FlatTable> for TableStorage {
    fn from(flat: FlatTable) -> Self {
        TableStorage { flat: Some(flat), indexed: None }
    }
}

impl TableStorage {
    /// Lays out a table of `capacity` rows as `method` says, indexed on
    /// the column named `index_on` for INDEXED and BOTH. `rows` (encoded)
    /// bulk-load it, and raise the capacity to their count; `None` is a
    /// `CREATE TABLE`, whose index starts empty — an empty bulk-loaded
    /// index would leave a different trace. Keys come from `next_key`,
    /// the flat half's first; an index forks `rng` once. When the index
    /// half of BOTH fails, the flat half is freed.
    pub(crate) fn create<M: EnclaveMemory>(
        host: &mut M,
        om: &OmBudget,
        rng: &mut EnclaveRng,
        mut next_key: impl FnMut() -> AeadKey,
        schema: Schema,
        method: StorageMethod,
        index_on: Option<&str>,
        capacity: u64,
        rows: Option<&[Vec<u8>]>,
    ) -> Result<Self, DbError> {
        let capacity = capacity.max(rows.map_or(0, |r| r.len() as u64));
        let key_col = match (method, index_on) {
            (StorageMethod::Flat, _) => None,
            (_, Some(col)) => Some(schema.col(col)?),
            (_, None) => {
                let what = if method == StorageMethod::Both { "BOTH" } else { "INDEXED" };
                let msg = format!("{what} storage requires INDEX ON <col>");
                return Err(DbError::Unsupported(msg));
            }
        };
        let flat = (method != StorageMethod::Indexed).then(|| {
            let (key, schema, rows) = (next_key(), schema.clone(), rows.unwrap_or(&[]));
            FlatTable::from_encoded_rows(host, key, schema, rows, capacity)
        });
        let flat = flat.transpose()?;
        let Some(key_col) = key_col else { return Ok(TableStorage { flat, indexed: None }) };
        let (key, rng) = (next_key(), rng.fork());
        let indexed = match rows {
            None => IndexedTable::create(host, key, schema, key_col, capacity, om, rng),
            Some(rows) => {
                IndexedTable::from_encoded_rows(host, key, schema, key_col, rows, capacity, om, rng)
            }
        };
        match indexed {
            Ok(indexed) => Ok(TableStorage { flat, indexed: Some(indexed) }),
            Err(e) => {
                // Best-effort cleanup; the index failure is the error
                // worth surfacing.
                let _ = flat.map(|f| f.free(host));
                Err(e)
            }
        }
    }

    /// The flat representation, if present.
    pub fn flat(&self) -> Option<&FlatTable> {
        self.flat.as_ref()
    }

    /// The flat representation, if present.
    pub fn flat_mut(&mut self) -> Option<&mut FlatTable> {
        self.flat.as_mut()
    }

    /// The indexed representation, if present.
    pub fn indexed(&self) -> Option<&IndexedTable> {
        self.indexed.as_ref()
    }

    /// The indexed representation, if present.
    pub fn indexed_mut(&mut self) -> Option<&mut IndexedTable> {
        self.indexed.as_mut()
    }

    /// Logical row count (public).
    pub fn num_rows(&self) -> u64 {
        match (&self.flat, &self.indexed) {
            (Some(f), _) => f.num_rows(),
            (None, i) => i.as_ref().expect("a table has a representation").num_rows(),
        }
    }

    /// The rows a scan of the table covers (public): the flat half's
    /// capacity, or an index's row count, which a full walk materializes.
    pub fn capacity(&self) -> u64 {
        self.flat.as_ref().map_or_else(|| self.num_rows(), FlatTable::capacity)
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        match (&self.flat, &self.indexed) {
            (Some(f), _) => f.schema(),
            (None, i) => i.as_ref().expect("a table has a representation").schema(),
        }
    }

    /// Inserts one encoded row into every representation. A full index is
    /// refused before either half is written, so the refusal changes
    /// nothing. A full flat half first grows to twice its capacity under
    /// `grow_key` (paper §3: capacity "can be increased later by copying
    /// to a new, larger table"). A fast insert writes at the cursor, which
    /// a delete does not move back, so it is full when the cursor is; the
    /// cursor is public, as the growth already shows it.
    pub(crate) fn insert<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        row: &[u8],
        fast: bool,
        grow_key: impl FnOnce() -> AeadKey,
    ) -> Result<(), DbError> {
        if self.indexed.as_ref().is_some_and(IndexedTable::is_full) {
            return Err(DbError::TableFull("index".into()));
        }
        if let Some(f) = &mut self.flat {
            let used = if fast { f.insert_cursor() } else { f.num_rows() };
            if used >= f.capacity() {
                let new_cap = f.capacity() * 2;
                f.grow(host, grow_key(), new_cap)?;
            }
            if fast {
                f.insert_fast(host, row)?;
            } else {
                f.insert_oblivious(host, row)?;
            }
        }
        if let Some(i) = &mut self.indexed {
            i.insert(host, row)?;
        }
        Ok(())
    }

    /// Deletes the rows matching `pred` from every representation; returns
    /// the count (a result size).
    pub(crate) fn delete_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
    ) -> Result<u64, DbError> {
        let flat = self.flat.as_mut().map(|f| f.delete_where(host, pred)).transpose()?;
        let indexed = self.indexed.as_mut().map(|i| i.delete_where(host, pred)).transpose()?;
        Ok(flat.or(indexed).unwrap_or(0))
    }

    /// Applies `assignments` to the rows matching `pred` in every
    /// representation; returns the count.
    pub(crate) fn update_where<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        pred: &Predicate,
        assignments: &[(usize, Value)],
    ) -> Result<u64, DbError> {
        let flat =
            self.flat.as_mut().map(|f| f.update_where(host, pred, assignments)).transpose()?;
        let indexed =
            self.indexed.as_mut().map(|i| i.update_where(host, pred, assignments)).transpose()?;
        Ok(flat.or(indexed).unwrap_or(0))
    }
}
