//! The paper's §5 planner rules, as closed-form functions of public sizes.
//!
//! The engine does not plan with these: it counts each candidate
//! operator's accesses from public sizes (`oblidb_core::plan::cost`). The rules
//! are kept as the reference the planner-parity suite
//! (`tests/planner_cost.rs`, property 2) and the `planner` bench compare
//! the engine's pick against — price a rule's pick by running the engine
//! with `force_select` / `force_join` set to it.

use oblidb_core::plan::cost::{JoinAlgo, SelectAlgo, SelectStats, LARGE_THRESHOLD};

/// Small passes beyond which Hash is taken instead: Small is ≈ passes·N
/// reads against Hash's ≈ 21·N accesses, break-even around 16–20 passes.
pub const SMALL_MAX_PASSES: u64 = 16;

/// What the planner's preliminary scan would learn from a table whose
/// rows match the predicate where `hits` is true: the match count and
/// whether the matches form one contiguous run.
pub fn stats_of(hits: impl IntoIterator<Item = bool>) -> SelectStats {
    let (mut matches, mut runs, mut prev) = (0u64, 0u32, false);
    for hit in hits {
        if hit {
            matches += 1;
            if !prev {
                runs += 1;
            }
        }
        prev = hit;
    }
    SelectStats { matches, continuous: runs <= 1 && matches > 0 }
}

/// The SELECT rule behind Figure 13: Continuous for a contiguous result
/// (when allowed), Large vs Small for a near-total one, otherwise Small
/// while the result fits in a few enclave-fulls and Hash beyond.
pub fn choose_select(
    stats: SelectStats,
    table_rows: u64,
    row_len: usize,
    om_bytes: usize,
    enable_continuous: bool,
) -> SelectAlgo {
    if stats.continuous && enable_continuous {
        return SelectAlgo::Continuous;
    }
    let buf_rows = (om_bytes / row_len.max(1)).max(1) as u64;
    let passes = stats.matches.div_ceil(buf_rows).max(1);
    // Access-count costs (reads + writes) of the two candidates.
    let cost_small = passes * table_rows + stats.matches;
    let cost_large = 4 * table_rows; // copy (r+w) + clear pass (r+w)
    if table_rows > 0 && stats.matches as f64 >= LARGE_THRESHOLD * table_rows as f64 {
        // "Contains almost every row": Large applies; still take Small
        // when the whole result fits in a few enclave-fulls and wins on
        // accesses (it also yields a tighter output structure).
        return if cost_small <= cost_large && passes <= SMALL_MAX_PASSES {
            SelectAlgo::Small
        } else {
            SelectAlgo::Large
        };
    }
    // Below the threshold Large's |T|-block output structure penalizes
    // every downstream operator, so the choice is Small vs Hash (§5).
    if passes <= SMALL_MAX_PASSES {
        SelectAlgo::Small
    } else {
        SelectAlgo::Hash
    }
}

/// Cost model for the sort-merge joins: untrusted block accesses of
/// sorting `n` union rows with an enclave chunk of `m` rows, plus the
/// fill and merge passes. Mirrors the structure of the engine's
/// `exec::sort`.
fn sort_join_cost(n1: u64, n2: u64, chunk: u64) -> u64 {
    let n = (n1 + n2).max(2).next_power_of_two();
    // Largest power of two ≤ chunk (matches exec::sort's buffer shaping).
    let c = chunk.max(1);
    let m = (1u64 << (63 - c.leading_zeros())).min(n);
    // Phase A (local sorts) reads and writes everything once.
    let mut passes: u64 = 2;
    let mut k = 2 * m;
    while k <= n {
        let mut j = k / 2;
        while j >= m {
            passes += 2; // element pass reads + writes the span
            j /= 2;
        }
        if m > 1 {
            passes += 2; // local merge pass
        }
        k *= 2;
    }
    // Fill (read inputs + write union) and merge (read union + write out).
    (n1 + n2) * 2 + n * passes + n * 2
}

/// Cost model for the hash join. Each probe step costs one T2 read, one
/// (joined-row) output write, and one output-region creation write —
/// hence the weight of 3 on the per-pass term. The rule's picks are run
/// and measured against the engine's by
/// `cost_based_join_never_exceeds_closed_form` in `tests/planner_cost.rs`.
fn hash_join_cost(n1: u64, n2: u64, chunk_rows: u64) -> u64 {
    let passes = n1.div_ceil(chunk_rows.max(1));
    n1 + passes * n2 * 3
}

/// The JOIN rule behind Figure 14, from table sizes and the
/// oblivious-memory budget only (paper §5: "planning for joins requires
/// even less information than selection").
pub fn choose_join(
    n1: u64,
    n2: u64,
    row_len1: usize,
    union_row_len: usize,
    om_bytes: usize,
) -> JoinAlgo {
    if om_bytes == 0 {
        return JoinAlgo::ZeroOm;
    }
    let build_rows = (om_bytes / (row_len1 + 32).max(1)) as u64;
    // "If the amount of oblivious memory is large relative to the size of
    // the first table, we always use the hash join."
    if build_rows >= n1 {
        return JoinAlgo::Hash;
    }
    let sort_rows = (om_bytes / union_row_len.max(1)).max(1) as u64;
    let hash_cost = hash_join_cost(n1, n2, build_rows.max(1));
    let opaque_cost = sort_join_cost(n1, n2, sort_rows);
    if hash_cost <= opaque_cost {
        JoinAlgo::Hash
    } else {
        JoinAlgo::Opaque
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_matches_and_runs() {
        assert_eq!(
            stats_of([false, true, true, false]),
            SelectStats { matches: 2, continuous: true }
        );
        assert_eq!(stats_of([true, false, true]), SelectStats { matches: 2, continuous: false });
        assert_eq!(stats_of([false; 3]), SelectStats { matches: 0, continuous: false });
    }

    #[test]
    fn continuous_preferred_when_enabled() {
        let stats = SelectStats { matches: 50, continuous: true };
        assert_eq!(choose_select(stats, 1000, 64, 1 << 20, true), SelectAlgo::Continuous);
        assert_eq!(choose_select(stats, 1000, 64, 1 << 20, false), SelectAlgo::Small);
    }

    #[test]
    fn large_for_near_total_selection() {
        // Tiny OM: Small would need ~60 passes, so Large wins.
        let stats = SelectStats { matches: 950, continuous: false };
        assert_eq!(choose_select(stats, 1000, 64, 16 * 64, true), SelectAlgo::Large);
        // Plentiful OM: the whole result fits in one enclave buffer and
        // Small beats Large on accesses.
        assert_eq!(choose_select(stats, 1000, 64, 1 << 20, true), SelectAlgo::Small);
    }

    #[test]
    fn small_for_small_results_hash_for_medium() {
        // OM fits 16 rows; 5% → few passes → Small; 50% → many → Hash.
        let small = SelectStats { matches: 50, continuous: false };
        assert_eq!(choose_select(small, 1000, 64, 16 * 64, true), SelectAlgo::Small);
        let medium = SelectStats { matches: 500, continuous: false };
        assert_eq!(choose_select(medium, 1000, 64, 16 * 64, true), SelectAlgo::Hash);
    }

    #[test]
    fn join_hash_when_t1_fits() {
        assert_eq!(choose_join(100, 100_000, 64, 128, 1 << 20), JoinAlgo::Hash);
    }

    #[test]
    fn join_opaque_when_om_is_tiny() {
        // With almost no oblivious memory the hash join degenerates to
        // hundreds of passes over T2 and the sort-merge join wins. (On the
        // simulated substrate random and sequential block accesses cost
        // the same, so the crossover sits at a smaller budget than on the
        // paper's SGX testbed.)
        assert_eq!(choose_join(10_000, 25_000, 64, 96, 20 * 96), JoinAlgo::Opaque);
    }

    #[test]
    fn join_hash_when_t2_tiny() {
        assert_eq!(choose_join(10_000, 100, 64, 96, 500 * 96), JoinAlgo::Hash);
    }

    #[test]
    fn join_zero_om_when_no_budget() {
        assert_eq!(choose_join(1000, 1000, 64, 96, 0), JoinAlgo::ZeroOm);
    }
}
