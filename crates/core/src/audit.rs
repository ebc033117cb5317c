//! Oblivious-trace auditor (telemetry tentpole): checks, at run time,
//! the property ObliDB's operators promise by construction — that a
//! statement's physical access pattern depends only on *public*
//! parameters, never on data.
//!
//! When [`crate::DbConfig::audit`] is on (or `OBLIDB_AUDIT=1`), every
//! statement runs under an access trace. The trace is folded into a
//! 64-bit FNV-1a hash and compared against the first hash recorded for
//! the same *statement shape*: the parser's token shape plus the public
//! sizes the plan is allowed to depend on (table row counts and the
//! result size — ObliDB leaks sizes by design, §2.3). Two runs with the
//! same shape that touch untrusted memory differently can only have
//! branched on payload bytes — exactly the leak class the paper's
//! operators are built to exclude — so a hash divergence is recorded as
//! an [`AuditViolation`].
//!
//! The auditor lives entirely inside the enclave: it never exports the
//! trace, only aggregate hashes on explicit request, and it allocates
//! per *shape*, not per statement. Statements that run while a caller
//! already holds the trace channel (conformance tests, experiments) are
//! counted as skips rather than silently unaudited.

use std::collections::HashMap;

use oblidb_enclave::{AccessKind, RegionId, Trace};

/// One detected access-pattern divergence: the same statement shape
/// produced two different traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The statement shape (the parser's token shape + public sizes) that
    /// diverged.
    pub shape: String,
    /// Trace hash recorded the first time this shape ran.
    pub expected_hash: u64,
    /// The differing hash observed on a later run.
    pub observed_hash: u64,
}

/// What the auditor has seen so far, for operator dashboards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Distinct statement shapes with a recorded reference hash.
    pub shapes: usize,
    /// Statements whose trace was hashed and checked.
    pub checks: u64,
    /// Statements not audited because the trace channel was taken.
    pub skips: u64,
    /// Divergences recorded (also available via
    /// [`TraceAuditor::violations`]).
    pub violations: usize,
}

/// Per-statement-shape trace hashes plus recorded divergences.
#[derive(Debug, Default)]
pub struct TraceAuditor {
    shapes: HashMap<String, u64>,
    violations: Vec<AuditViolation>,
    checks: u64,
    skips: u64,
}

impl TraceAuditor {
    /// Hashes `trace` and checks it against the reference hash for
    /// `shape`, recording the reference on first sight and a violation
    /// on divergence. `randomized` names the regions whose block
    /// positions are random or public by construction (see
    /// [`trace_hash`]).
    pub fn observe(&mut self, shape: &str, trace: &Trace, randomized: &[RegionId]) {
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::AuditChecks, 1);
        self.checks += 1;
        let observed = trace_hash(trace, randomized);
        match self.shapes.get(shape) {
            None => {
                self.shapes.insert(shape.to_string(), observed);
            }
            Some(&expected) if expected == observed => {}
            Some(&expected) => {
                oblidb_telemetry::counter_add(oblidb_telemetry::Counter::AuditViolations, 1);
                self.violations.push(AuditViolation {
                    shape: shape.to_string(),
                    expected_hash: expected,
                    observed_hash: observed,
                });
            }
        }
    }

    /// Records a statement the auditor had to skip (trace channel busy).
    pub fn skip(&mut self) {
        oblidb_telemetry::counter_add(oblidb_telemetry::Counter::AuditSkips, 1);
        self.skips += 1;
    }

    /// Divergences recorded so far, in detection order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Aggregate counters.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            shapes: self.shapes.len(),
            checks: self.checks,
            skips: self.skips,
            violations: self.violations.len(),
        }
    }
}

/// Folds a trace into a 64-bit FNV-1a hash: region, block index, and
/// access kind per event, in order. Region ids are canonicalized to
/// first-appearance ordinals before hashing: the engine allocates fresh
/// region ids for every intermediate table, so two runs of the same
/// statement touch structurally identical regions under drifting absolute
/// numbers — the *pattern* (which region by position, which block, which
/// direction) is the oblivious contract, not the allocator's counter.
/// Collisions are astronomically unlikely for an auditor, and a colliding
/// *divergent* trace would go unflagged, never the reverse — hashing adds
/// no false positives.
///
/// In the `randomized` regions the block index is not part of the
/// contract either: a Path ORAM tree is read along a freshly random path
/// on every access, and the WAL is written at its append position, the
/// public count of statements logged so far. Two oblivious runs of one
/// shape differ there by construction, so those events hash as (region,
/// direction) only — how many there are and where they fall in the
/// sequence still counts.
pub fn trace_hash(trace: &Trace, randomized: &[RegionId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    // Per region, resolved at first appearance: its ordinal, and whether
    // its block indices count.
    let mut order: HashMap<u32, (u64, bool)> = HashMap::new();
    for ev in &trace.0 {
        let next = order.len() as u64;
        let (region, positioned) =
            *order.entry(ev.region.0).or_insert_with(|| (next, !randomized.contains(&ev.region)));
        mix(region);
        if positioned {
            mix(ev.index);
        }
        mix(match ev.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
    }
    h
}

/// Builds the statement-shape key: the parser's token shape
/// ([`crate::sql::Parsed::shape`]: literals masked, keyword case and
/// spacing folded) concatenated with the public sizes the access pattern
/// may legitimately depend on — each table's `(name, row count, flat
/// insert cursor)` and the statement's result size. (The cursor is where a
/// fast insert writes: the count of insertions so far, which table growth
/// shows the adversary anyway, paper §3.1.) Everything else a trace varies
/// with is, by ObliDB's contract, a leak.
pub fn statement_shape(
    mut shape: String,
    tables: &[(String, u64, u64)],
    output_rows: u64,
) -> String {
    for (name, rows, cursor) in tables {
        shape.push_str(&format!("|t:{name}={rows}@{cursor}"));
    }
    shape.push_str("|out=");
    shape.push_str(&output_rows.to_string());
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblidb_enclave::AccessEvent;

    fn ev(region: u32, index: u64, kind: AccessKind) -> AccessEvent {
        AccessEvent { region: RegionId(region), index, kind }
    }

    #[test]
    fn hash_is_order_and_kind_sensitive() {
        let a = Trace(vec![ev(1, 0, AccessKind::Read), ev(1, 1, AccessKind::Read)]);
        let b = Trace(vec![ev(1, 1, AccessKind::Read), ev(1, 0, AccessKind::Read)]);
        let c = Trace(vec![ev(1, 0, AccessKind::Write), ev(1, 1, AccessKind::Read)]);
        assert_ne!(trace_hash(&a, &[]), trace_hash(&b, &[]));
        assert_ne!(trace_hash(&a, &[]), trace_hash(&c, &[]));
        assert_eq!(trace_hash(&a, &[]), trace_hash(&a.clone(), &[]));
    }

    #[test]
    fn randomized_regions_hash_by_count_and_kind_not_position() {
        // Region 2 is an ORAM tree: the same access lands on other buckets.
        let path = |x: u64, y: u64| {
            Trace(vec![
                ev(1, 0, AccessKind::Read),
                ev(2, x, AccessKind::Read),
                ev(2, y, AccessKind::Read),
                ev(2, x, AccessKind::Write),
                ev(1, 1, AccessKind::Read),
            ])
        };
        let oram = [RegionId(2)];
        assert_eq!(trace_hash(&path(0, 5), &oram), trace_hash(&path(0, 6), &oram));
        assert_ne!(trace_hash(&path(0, 5), &[]), trace_hash(&path(0, 6), &[]));
        // One event more, another direction, or a moved flat-region block
        // is still a different pattern.
        let mut longer = path(0, 5);
        longer.0.insert(2, ev(2, 3, AccessKind::Read));
        assert_ne!(trace_hash(&path(0, 5), &oram), trace_hash(&longer, &oram));
        let mut flipped = path(0, 5);
        flipped.0[2].kind = AccessKind::Write;
        assert_ne!(trace_hash(&path(0, 5), &oram), trace_hash(&flipped, &oram));
        let mut moved = path(0, 5);
        moved.0[4].index = 2;
        assert_ne!(trace_hash(&path(0, 5), &oram), trace_hash(&moved, &oram));
    }

    #[test]
    fn hash_canonicalizes_region_ids_but_not_region_structure() {
        // A consistent renaming (regions 1,2 → 7,9) is the same pattern:
        // intermediates get fresh ids on every run.
        let a = Trace(vec![
            ev(1, 0, AccessKind::Read),
            ev(2, 0, AccessKind::Write),
            ev(1, 1, AccessKind::Read),
        ]);
        let renamed = Trace(vec![
            ev(7, 0, AccessKind::Read),
            ev(9, 0, AccessKind::Write),
            ev(7, 1, AccessKind::Read),
        ]);
        assert_eq!(trace_hash(&a, &[]), trace_hash(&renamed, &[]));
        // Collapsing two regions into one is a different pattern.
        let collapsed = Trace(vec![
            ev(7, 0, AccessKind::Read),
            ev(7, 0, AccessKind::Write),
            ev(7, 1, AccessKind::Read),
        ]);
        assert_ne!(trace_hash(&a, &[]), trace_hash(&collapsed, &[]));
    }

    #[test]
    fn auditor_flags_divergence_per_shape() {
        let mut aud = TraceAuditor::default();
        let t1 = Trace(vec![ev(1, 0, AccessKind::Read)]);
        let t2 = Trace(vec![ev(1, 3, AccessKind::Read)]);
        aud.observe("s1", &t1, &[]);
        aud.observe("s1", &t1, &[]);
        assert!(aud.violations().is_empty());
        aud.observe("s2", &t2, &[]); // different shape: its own reference
        aud.observe("s1", &t2, &[]); // same shape, different trace: flagged
        let report = aud.report();
        assert_eq!(report.shapes, 2);
        assert_eq!(report.checks, 4);
        assert_eq!(report.violations, 1);
        assert_eq!(aud.violations()[0].shape, "s1");
        assert_ne!(aud.violations()[0].expected_hash, aud.violations()[0].observed_hash);
    }
}
