//! `oblidb-bench check A B`: is B a regression against A?
//!
//! Both files hold records (one JSON document, or one per line as in
//! `history.jsonl`). For every workload and every end-to-end metric of
//! `BENCHMARK.json`, the median over B's runs may be worse than the
//! median over A's by at most the metric's bound. Where A's own
//! run-to-run spread (interquartile range over median) is wider than the
//! bound the pair is *unresolved*, not unchanged — unless every run of B
//! reads better than every run of A.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{median, quartiles};

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of A's median by which B's may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's spread exceeds the bound, so the pair decides nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides one pair from each side's values of a metric.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let spread = quartiles(a).map_or(0.0, |(q1, m, q3)| (q3 - q1) / m);
    if spread > bound.bound {
        let clean_win = if bound.higher_is_better {
            b.iter().all(|y| a.iter().all(|x| y > x))
        } else {
            b.iter().all(|y| a.iter().all(|x| y < x))
        };
        if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn text<'a>(record: &'a Json, key: &str) -> &'a str {
    record.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// End-to-end records only: traced ones carry no bounded metric.
fn end_to_end(records: &[Json]) -> Vec<&Json> {
    records.iter().filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false)).collect()
}

fn values(records: &[&Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| text(r, "workload") == workload)
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compares B against A. Returns the report and whether anything
/// regressed; `Err` when the files may not be compared at all (smoke
/// records, differing fingerprints, failed runs, nothing in common).
pub fn check(a: &[Json], b: &[Json], bounds: &[Bound]) -> Result<(String, bool), String> {
    for (side, records) in [("A", a), ("B", b)] {
        if records.iter().any(|r| r.get("smoke").and_then(Json::as_bool) != Some(false)) {
            return Err(format!("{side} holds a --smoke record; smoke runs measure nothing"));
        }
        if let Some(r) =
            records.iter().find(|r| r.get("correct").and_then(Json::as_bool) != Some(true))
        {
            return Err(format!("{side} holds a failed run of {}", text(r, "workload")));
        }
    }
    let fa = a.first().and_then(|r| r.get("fingerprint"));
    if let Some(r) = a.iter().chain(b).find(|r| r.get("fingerprint") != fa) {
        return Err(format!(
            "machine fingerprints differ ({} vs {}): numbers from different machines do not compare",
            fa.map_or_else(|| "none".to_string(), Json::to_line),
            r.get("fingerprint").map_or_else(|| "none".to_string(), Json::to_line),
        ));
    }

    let (ea, eb) = (end_to_end(a), end_to_end(b));
    let mut workloads: Vec<&str> = ea.iter().map(|r| text(r, "workload")).collect();
    workloads.dedup();
    workloads.sort_unstable();
    workloads.dedup();
    let mut report = String::new();
    let mut regressed = false;
    let mut compared = 0;
    for workload in workloads {
        let mut rows = String::new();
        for bound in bounds {
            let (va, vb) = (values(&ea, workload, &bound.name), values(&eb, workload, &bound.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let v = verdict(&va, &vb, bound);
            regressed |= v == Verdict::Regressed;
            let side = |v: &[f64]| match quartiles(v) {
                Some((q1, m, q3)) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
                None => format!("{:.6} n=1", v[0]),
            };
            let _ = writeln!(
                rows,
                "  {:<28} A {}   B {}   bound {:.0}% ({} is better)   {}",
                bound.name,
                side(&va),
                side(&vb),
                bound.bound * 100.0,
                if bound.higher_is_better { "higher" } else { "lower" },
                v.label(),
            );
        }
        if !rows.is_empty() {
            let _ = write!(report, "{workload}\n{rows}");
        }
    }
    if compared == 0 {
        return Err("A and B share no end-to-end metric of any workload".to_string());
    }

    // Traced records of the same workload and seed: on one-connection
    // workloads their counters repeat exactly; say whether they did.
    for ra in a.iter().filter(|r| r.get("traced").and_then(Json::as_bool) == Some(true)) {
        let same = |r: &&Json| {
            r.get("traced") == ra.get("traced")
                && r.get("workload") == ra.get("workload")
                && r.get("seed") == ra.get("seed")
                && r.get("seconds") == ra.get("seconds")
        };
        if let Some(rb) = b.iter().find(same) {
            let equal = ra.get("counters") == rb.get("counters");
            let _ = writeln!(
                report,
                "{} traced counters (seed {}): {}",
                text(ra, "workload"),
                ra.get("seed").map_or_else(|| "?".to_string(), Json::to_line),
                if equal { "identical" } else { "differ" },
            );
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "m".into(), higher_is_better: false, bound }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_it_regressed() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &[10.4, 10.5], &lower(0.07)), Verdict::Ok);
        assert_eq!(verdict(&a, &[11.0, 11.2], &lower(0.07)), Verdict::Regressed);
        assert_eq!(verdict(&a, &[5.0], &lower(0.07)), Verdict::Ok);
        let higher = Bound { name: "m".into(), higher_is_better: true, bound: 0.07 };
        assert_eq!(verdict(&a, &[9.0], &higher), Verdict::Regressed);
        assert_eq!(verdict(&a, &[12.0], &higher), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(verdict(&noisy, &[13.0], &lower(0.07)), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[9.0], &lower(0.07)), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[7.0, 7.5], &lower(0.07)), Verdict::Ok);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.07},
                              {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&doc).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].higher_is_better && !bounds[1].higher_is_better);
        assert_eq!(bounds[1].bound, 0.25);
        assert!(bounds_of(&Json::obj()).is_err());
    }
}
