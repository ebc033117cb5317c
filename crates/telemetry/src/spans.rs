//! Hierarchical spans over a monotonic clock and a fixed-capacity ring.
//!
//! A span is opened with [`span`] and closed by dropping the returned
//! [`SpanGuard`] (RAII, so early returns and `?` close it too). Parent /
//! child linkage comes from a per-thread stack of open span ids; records
//! land in one process-wide ring buffer whose storage is allocated once,
//! the first time telemetry is enabled — after that, recording a span is
//! a clock read, a mutex lock, and a slot overwrite. When the ring wraps,
//! the oldest records are overwritten and counted in [`dropped_spans`].

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the span ring buffer, in records. Fixed so enabling
/// telemetry costs exactly one allocation, ever.
pub const RING_CAPACITY: usize = 4096;

/// Maximum tracked span nesting depth per thread; deeper spans still
/// record but attach to the deepest tracked ancestor.
const MAX_DEPTH: usize = 64;

/// The single flag every recording entry point branches on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonically increasing span id source (0 is reserved for "no span").
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

/// Process epoch for span timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The ring; `None` until telemetry is first enabled.
static RING: Mutex<Option<Ring>> = Mutex::new(None);

thread_local! {
    static STACK: std::cell::RefCell<SpanStack> =
        const { std::cell::RefCell::new(SpanStack { ids: [0; MAX_DEPTH], depth: 0 }) };
}

struct SpanStack {
    ids: [u32; MAX_DEPTH],
    depth: usize,
}

struct Ring {
    buf: Vec<SpanRecord>,
    /// Next slot to write (wraps).
    next: usize,
    /// Live records (saturates at capacity).
    len: usize,
    /// Records overwritten since the last [`take_spans`].
    dropped: u64,
}

/// What a span measured — every instrumented site in the stack, named so
/// records stay `Copy` and the ring never stores heap strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// `Database::prepare_parsed`: plan (or plan-cache hit) of a statement
    /// its text entry point has already parsed.
    Prepare,
    /// Physical plan construction and costing; no I/O.
    Plan,
    /// `run_plan`: one statement end to end.
    Run,
    /// Small select (all rows fit the enclave working set).
    SelectSmall,
    /// Large select (two-pass, output region).
    SelectLarge,
    /// Continuous select (contiguous match range).
    SelectContinuous,
    /// Hash select.
    SelectHash,
    /// Naive per-row select baseline.
    SelectNaive,
    /// Padded select (fixed output size).
    SelectPadded,
    /// Join operator (hash / opaque / zero-OM).
    Join,
    /// Scalar aggregation.
    Aggregate,
    /// Grouped aggregation.
    GroupBy,
    /// Oblivious (bitonic) sort.
    Sort,
    /// `SealedRegion` batch seal (AEAD encrypt of N blocks).
    SealBatch,
    /// `SealedRegion` batch open (AEAD decrypt of N blocks).
    OpenBatch,
    /// One Path ORAM access (path fetch + evict).
    OramPath,
    /// One WAL record append.
    WalAppend,
    /// WAL recovery scan of a persisted region.
    WalRecovery,
    /// One server session, from admission by the limiter to its end.
    Worker,
    /// Replay of recovered statements into a reopened database.
    Recovery,
    /// One epoch close: commit marker append plus the group fsync.
    Epoch,
    /// One transaction commit: validate + apply the buffered batch.
    TxnCommit,
}

impl SpanKind {
    /// Stable label for exporters and tests.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Prepare => "prepare",
            SpanKind::Plan => "plan",
            SpanKind::Run => "run",
            SpanKind::SelectSmall => "select.small",
            SpanKind::SelectLarge => "select.large",
            SpanKind::SelectContinuous => "select.continuous",
            SpanKind::SelectHash => "select.hash",
            SpanKind::SelectNaive => "select.naive",
            SpanKind::SelectPadded => "select.padded",
            SpanKind::Join => "join",
            SpanKind::Aggregate => "aggregate",
            SpanKind::GroupBy => "group_by",
            SpanKind::Sort => "sort",
            SpanKind::SealBatch => "seal_batch",
            SpanKind::OpenBatch => "open_batch",
            SpanKind::OramPath => "oram.path",
            SpanKind::WalAppend => "wal.append",
            SpanKind::WalRecovery => "wal.recovery",
            SpanKind::Worker => "pool.worker",
            SpanKind::Recovery => "recovery",
            SpanKind::Epoch => "epoch",
            SpanKind::TxnCommit => "txn.commit",
        }
    }
}

/// One completed span, as stored in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was measured.
    pub kind: SpanKind,
    /// Nanoseconds since the process telemetry epoch at span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u32,
    /// This span's id (unique per process run, never 0).
    pub id: u32,
}

/// A live span; dropping it records the [`SpanRecord`]. When telemetry
/// is disabled, construction and drop are each a single branch.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    kind: SpanKind,
    start_ns: u64,
    id: u32,
    parent: u32,
}

/// Globally enables or disables span + metric recording. The first
/// enable allocates the ring buffer (the one-time allocation documented
/// at the crate root); disabling keeps the ring and its records.
pub fn set_enabled(on: bool) {
    if on {
        let mut guard = RING.lock().expect("telemetry ring poisoned");
        if guard.is_none() {
            *guard =
                Some(Ring { buf: Vec::with_capacity(RING_CAPACITY), next: 0, len: 0, dropped: 0 });
        }
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled — the single branch every
/// hot-path entry point takes.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Opens a span of `kind`. Disabled telemetry returns an inert guard
/// after one branch; enabled telemetry reads the clock, assigns an id,
/// and pushes onto the calling thread's span stack.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let id = {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        if id == 0 {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            id
        }
    };
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.depth;
        let parent = if depth == 0 { 0 } else { s.ids[depth.min(MAX_DEPTH) - 1] };
        if depth < MAX_DEPTH {
            s.ids[depth] = id;
        }
        s.depth += 1;
        parent
    });
    SpanGuard { active: Some(ActiveSpan { kind, start_ns: now_ns(), id, parent }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.depth = s.depth.saturating_sub(1);
        });
        let record = SpanRecord {
            kind: active.kind,
            start_ns: active.start_ns,
            dur_ns: now_ns().saturating_sub(active.start_ns),
            parent: active.parent,
            id: active.id,
        };
        let mut guard = RING.lock().expect("telemetry ring poisoned");
        if let Some(ring) = guard.as_mut() {
            if ring.buf.len() < RING_CAPACITY {
                ring.buf.push(record);
            } else {
                ring.buf[ring.next] = record;
                ring.dropped += 1;
            }
            ring.next = (ring.next + 1) % RING_CAPACITY;
            ring.len = (ring.len + 1).min(RING_CAPACITY);
        }
    }
}

/// Drains every recorded span, oldest first, and resets the ring. An
/// export boundary point — see the crate-level leakage rationale.
pub fn take_spans() -> Vec<SpanRecord> {
    let mut guard = RING.lock().expect("telemetry ring poisoned");
    let Some(ring) = guard.as_mut() else { return Vec::new() };
    let mut out = Vec::with_capacity(ring.len);
    if ring.buf.len() < RING_CAPACITY {
        out.extend_from_slice(&ring.buf);
    } else {
        out.extend_from_slice(&ring.buf[ring.next..]);
        out.extend_from_slice(&ring.buf[..ring.next]);
    }
    ring.buf.clear();
    ring.next = 0;
    ring.len = 0;
    ring.dropped = 0;
    out
}

/// Spans overwritten by ring wraparound since the last [`take_spans`].
pub fn dropped_spans() -> u64 {
    RING.lock().expect("telemetry ring poisoned").as_ref().map_or(0, |r| r.dropped)
}

/// Serializes tests that touch the process-global enable flag, ring, or
/// metrics registry (they would race across test threads otherwise).
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span tests share the process-global ring, so they serialize on
    /// one lock and drain the ring at entry.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = test_gate();
        set_enabled(true);
        let _ = take_spans();
        guard
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        {
            let _g = span(SpanKind::Run);
        }
        set_enabled(true);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn nesting_links_parent_and_child() {
        let _x = exclusive();
        {
            let _outer = span(SpanKind::Run);
            {
                let _inner = span(SpanKind::Join);
                let _leaf = span(SpanKind::SealBatch);
            }
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        // Drop order: leaf, inner, outer.
        let (leaf, inner, outer) = (spans[0], spans[1], spans[2]);
        assert_eq!(outer.kind, SpanKind::Run);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(leaf.parent, inner.id);
        assert!(leaf.start_ns >= inner.start_ns);
        assert!(inner.dur_ns <= outer.dur_ns, "a nested span cannot outlast its parent");
    }

    #[test]
    fn property_nesting_depth_always_links_to_enclosing_span() {
        let _x = exclusive();
        // Pseudo-random nesting depths from a fixed LCG; every record's
        // parent must be the id of the span opened just before it on the
        // same thread.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..50 {
            let depth = rand() % 8 + 1;
            let mut guards = Vec::new();
            for _ in 0..depth {
                guards.push(span(SpanKind::Worker));
            }
            // Drop innermost-first, as RAII scoping would.
            while guards.pop().is_some() {}
            let spans = take_spans();
            assert_eq!(spans.len(), depth);
            // spans[i] closed before spans[i+1]; spans[depth-1] is the root.
            assert_eq!(spans[depth - 1].parent, 0);
            for i in 0..depth - 1 {
                assert_eq!(spans[i].parent, spans[i + 1].id, "child links to enclosing span");
            }
        }
    }

    #[test]
    fn property_ring_wraparound_keeps_newest_and_counts_dropped() {
        let _x = exclusive();
        let total = RING_CAPACITY + 117;
        for _ in 0..total {
            let _g = span(SpanKind::WalAppend);
        }
        assert_eq!(dropped_spans(), (total - RING_CAPACITY) as u64);
        let spans = take_spans();
        assert_eq!(spans.len(), RING_CAPACITY, "ring keeps exactly its capacity");
        // Oldest-first drain: timestamps must be non-decreasing across the
        // wrap seam, proving the drain reassembled the circle correctly.
        for pair in spans.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns, "drain is chronological");
        }
        assert_eq!(dropped_spans(), 0, "drain resets the dropped count");
    }

    #[test]
    fn deep_nesting_saturates_stack_without_losing_records() {
        let _x = exclusive();
        let mut guards = Vec::new();
        for _ in 0..MAX_DEPTH + 10 {
            guards.push(span(SpanKind::Worker));
        }
        while guards.pop().is_some() {}
        assert_eq!(take_spans().len(), MAX_DEPTH + 10);
    }
}
