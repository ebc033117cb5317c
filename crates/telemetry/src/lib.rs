//! Enclave-safe telemetry for ObliDB: hierarchical spans and a
//! process-wide metrics registry, both dependency-free and safe to run
//! *inside* the trust boundary.
//!
//! # Threat model / leakage rationale
//!
//! Everything this crate records lives in enclave memory: span records go
//! to a **fixed-capacity ring buffer preallocated when telemetry is first
//! enabled**, and metrics are plain atomics. Recording therefore never
//! allocates on the hot path (allocation patterns are host-observable)
//! and never touches an [`EnclaveMemory`] substrate — the conformance
//! suite asserts that enabling telemetry leaves query traces, counters,
//! and sealed bytes bit-identical. What *is* sensitive is **export**: a
//! snapshot reveals aggregate counts and timings, so exporters
//! ([`MetricsSnapshot::to_text`] / [`MetricsSnapshot::to_json`],
//! [`take_spans`]) must only be called at explicit boundary points the
//! operator already trusts (end of a session, a bench run, an
//! `EXPLAIN ANALYZE` the client asked for) — never mid-query on a path
//! an adversary can time.
//!
//! # Cost when disabled
//!
//! Every recording entry point loads one static
//! [`AtomicBool`](std::sync::atomic::AtomicBool) (relaxed)
//! and branches. No clock read, no lock, no allocation, no host access.
//! That is the entire disabled-mode cost, asserted by the overhead bench
//! (`BENCH_telemetry.json`) and the conformance suite.
//!
//! [`EnclaveMemory`]: https://docs.rs/oblidb-enclave

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod spans;

pub use metrics::{
    counter_add, histogram_record, reset_metrics, snapshot, Counter, HistogramId,
    HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use spans::{
    dropped_spans, enabled, set_enabled, span, take_spans, SpanGuard, SpanKind, SpanRecord,
    RING_CAPACITY,
};
