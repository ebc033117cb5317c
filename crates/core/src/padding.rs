//! Padding mode (paper §2.3, §7.1).
//!
//! When intermediate and final result sizes are themselves sensitive,
//! ObliDB can pad every intermediate and final table to a configured bound
//! and disable the query planner (whose choices depend on result sizes).
//! Leakage then reduces to the logical plan and the padded bound. Grouped
//! aggregation needs no bound: its result stays in the enclave until it is
//! returned, so the group count never reaches untrusted memory in either
//! mode.

/// Padding-mode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddingConfig {
    /// Every selection output is padded to this many rows; a selection
    /// matching more fails with
    /// [`DbError::PaddedBoundExceeded`](crate::DbError::PaddedBoundExceeded).
    pub pad_rows: u64,
}
