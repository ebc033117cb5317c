//! Figure 13: the query planner picks the best SELECT algorithm.
//!
//! Four scenarios — {5 %, 95 %} of the table retrieved × {contiguous,
//! scattered} — timed under every applicable forced algorithm, plus the
//! engine planner's own choice, with the operator the paper's closed-form
//! §5 rule would take beside it. Paper result: the planner's pick beats
//! the asymptotically-optimal Hash algorithm by 4.6–11×.

use oblidb_baselines::paper_rules;
use oblidb_bench::report::Report;
use oblidb_bench::setup::{scale, synthetic_db, Scale};
use oblidb_bench::timing::fmt_duration;
use oblidb_core::plan::cost::SelectStats;
use oblidb_core::{DbConfig, PlanInfo, SelectAlgo, StorageMethod};
use oblidb_workloads::synthetic;
use std::time::{Duration, Instant};

fn timed_select(n: usize, sql: &str, force: Option<SelectAlgo>) -> (Duration, PlanInfo) {
    let mut db = synthetic_db(n, StorageMethod::Flat, 21);
    db.config_mut().planner.force_select = force;
    let start = Instant::now();
    let out = db.execute(sql).unwrap();
    (start.elapsed(), out.plan)
}

fn main() {
    let n = match scale() {
        Scale::Small => 20_000usize,
        Scale::Paper => 100_000,
    };

    let scenarios = [
        ("5% contiguous", synthetic::range_select_sql(n, 0.05, true), true),
        ("5% scattered", synthetic::scattered_select_sql(n, 0.05), false),
        ("95% contiguous", synthetic::range_select_sql(n, 0.95, true), true),
        ("95% scattered", synthetic::scattered_select_sql(n, 0.95), false),
    ];

    let mut report = Report::new(
        format!("Figure 13 — planner effectiveness ({n}-row table)"),
        &[
            "scenario",
            "Hash",
            "Small",
            "Large",
            "Continuous",
            "planner pick",
            "paper rule",
            "pick time",
            "pick vs Hash",
        ],
    );

    for (name, sql, contiguous) in scenarios {
        let (hash_t, _) = timed_select(n, &sql, Some(SelectAlgo::Hash));
        let (small_t, _) = timed_select(n, &sql, Some(SelectAlgo::Small));
        let (large_t, _) = timed_select(n, &sql, Some(SelectAlgo::Large));
        let cont = if contiguous {
            Some(timed_select(n, &sql, Some(SelectAlgo::Continuous)).0)
        } else {
            None
        };
        let (planner_t, plan) = timed_select(n, &sql, None);
        let choice = plan.select_algo.expect("selection ran");
        // What the closed-form rule would take from the same public stats.
        let rule = paper_rules::choose_select(
            SelectStats { matches: plan.output_rows, continuous: contiguous },
            n as u64,
            synthetic::schema(8).row_len(),
            DbConfig::default().om_bytes,
            true,
        );
        report.row(&[
            name.to_string(),
            fmt_duration(hash_t),
            fmt_duration(small_t),
            fmt_duration(large_t),
            cont.map(fmt_duration).unwrap_or_else(|| "n/a".into()),
            format!("{choice:?}"),
            format!("{rule:?}"),
            fmt_duration(planner_t),
            format!("{:.1}x faster", hash_t.as_secs_f64() / planner_t.as_secs_f64().max(1e-9)),
        ]);
    }
    report.print();
    println!(
        "\nPaper shape: Hash is never the fastest in practice; the planner's pick\n\
         beats it by 4.6-11x (5% -> Small, 95% -> Large, contiguous -> Continuous)."
    );
}
