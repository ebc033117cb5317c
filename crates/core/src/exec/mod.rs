//! The oblivious physical operators (paper §4, Figure 3).
//!
//! Every operator that produces rows in order emits them into one
//! [`RowSink`]: `Seal` materializes them into a new flat table, one block
//! per emitted position (dummies included), written in runs; `Fold` feeds
//! the real ones straight into an [`AggFold`] and `Rows` decodes them, and
//! neither writes anything. Both
//! joins, Small's window flushes, Naive's copy-out, `copy_table` and
//! bulk loads emit through it. Continuous and Hash update computed
//! positions of their output in place, so they write their tables
//! directly.
//!
//! Beside each operator sits its `…_cost` function: the same loop
//! structure replayed in integer arithmetic over public sizes, returning
//! the exact [`HostStats`] the operator adds on `Host`. The planner weighs
//! those counts; `tests/planner_cost.rs` holds each equal to execution.

pub mod aggregate;
pub mod ct;
pub mod join;
pub mod select;
pub mod sort;

use oblidb_crypto::aead::AeadKey;
use oblidb_enclave::{EnclaveMemory, HostStats};

use crate::error::DbError;
use crate::table::FlatTable;
use crate::types::{Row, Schema};

pub use aggregate::{aggregate, group_aggregate, group_output_schema, AggFold, AggFunc, AggState};
pub use join::{hash_join, sort_merge_join, SortMergeVariant};
pub use select::{
    select_continuous, select_first_pass, select_hash, select_large, select_naive, select_small,
    FirstPass, HASH_SLOTS,
};
pub use sort::bitonic_sort;

/// Where an operator's rows go, in the order it emits them.
pub enum RowSink<'a, 'p> {
    /// Seal every emitted row, real or dummy, at the next position of a
    /// new flat table: the operator creates it when it opens the sink,
    /// sized by its public output bound, and each flush writes the rows
    /// buffered since the last one as one run. The table's row count and
    /// insert cursor follow what was written.
    Seal {
        /// The output table, once the operator has opened the sink.
        out: Option<FlatTable>,
        /// Rows emitted since the last flush.
        run: Vec<u8>,
    },
    /// Fold every real emitted row into these aggregates; nothing is
    /// written.
    Fold(&'a mut AggFold<'p>),
    /// Decode every real emitted row of this schema into the vector;
    /// nothing is written.
    Rows(&'a Schema, &'a mut Vec<Row>),
}

impl RowSink<'_, '_> {
    /// A sealing sink, not yet opened.
    pub fn seal() -> Self {
        RowSink::Seal { out: None, run: Vec::new() }
    }

    /// Opens the sink for at most `capacity` rows of `schema`; a sealing
    /// sink creates its table under `key` here.
    pub(crate) fn open<M: EnclaveMemory>(
        &mut self,
        host: &mut M,
        key: AeadKey,
        schema: Schema,
        capacity: u64,
    ) -> Result<(), DbError> {
        if let RowSink::Seal { out, .. } = self {
            *out = Some(FlatTable::create(host, key, schema, capacity)?);
        }
        Ok(())
    }

    /// Emits a whole number of encoded rows.
    pub(crate) fn push(&mut self, rows: &[u8]) {
        match self {
            RowSink::Seal { run, .. } => run.extend_from_slice(rows),
            RowSink::Fold(agg) => agg.add_rows(rows),
            RowSink::Rows(schema, out) => out.extend(
                rows.chunks_exact(schema.row_len())
                    .filter(|r| Schema::row_used(r))
                    .map(|r| schema.decode_row(r)),
            ),
        }
    }

    /// Writes the rows emitted since the last flush as one run.
    pub(crate) fn flush<M: EnclaveMemory>(&mut self, host: &mut M) -> Result<(), DbError> {
        if let RowSink::Seal { out: Some(out), run } = self {
            let at = out.insert_cursor();
            out.write_rows(host, at, run)?;
            let used = run.chunks_exact(out.row_len()).filter(|r| Schema::row_used(r)).count();
            out.set_insert_cursor(at + (run.len() / out.row_len()) as u64);
            out.set_num_rows(out.num_rows() + used as u64);
            run.clear();
        }
        Ok(())
    }

    /// The sealed table; `None` for a fold or decoded rows.
    pub fn finish(self) -> Option<FlatTable> {
        match self {
            RowSink::Seal { out, .. } => out,
            RowSink::Fold(_) | RowSink::Rows(..) => None,
        }
    }

    /// The table of a sealing sink the operator opened.
    pub(crate) fn sealed(self) -> FlatTable {
        self.finish().expect("an opened sealing sink holds its table")
    }
}

/// A new `capacity`-row table under `key` holding every block of `input`,
/// used or not, at its own position: a data-independent pass, one read
/// and one write crossing per chunk-sized run. A self-join's copy, Large's
/// copy pass and [`FlatTable::grow`] all run it.
pub(crate) fn copy_table<M: EnclaveMemory>(
    host: &mut M,
    input: &mut FlatTable,
    key: AeadKey,
    capacity: u64,
) -> Result<FlatTable, DbError> {
    let mut sink = RowSink::seal();
    sink.open(host, key, input.schema().clone(), capacity)?;
    let (chunk, cap) = (input.io_chunk_rows(), input.capacity());
    let mut start = 0u64;
    while start < cap {
        let n = chunk.min((cap - start) as usize);
        sink.push(input.read_rows(host, start, n)?);
        sink.flush(host)?;
        start += n as u64;
    }
    Ok(sink.sealed())
}

/// The cost of covering `total` items in consecutive calls of at most
/// `run` items each, where `cost(n)` prices one call over `n` items (and
/// a call over none costs nothing).
fn in_runs(total: u64, run: u64, cost: impl Fn(u64) -> HostStats) -> HostStats {
    cost(run) * (total / run) + cost(total % run)
}
