//! The driver's contract and the record schema, exercised on real (smoke
//! scale) runs. One test function for those: the runs share the
//! process-global telemetry switch.

use oblidb_e2ebench::check::{bounds_of, check};
use oblidb_e2ebench::cli::DEFAULT_SECONDS;
use oblidb_e2ebench::json::Json;
use oblidb_e2ebench::record::{
    benchmark_json_path, contract_line, history_path, read_records, record,
};
use oblidb_e2ebench::run::run_end_to_end;
use oblidb_e2ebench::trace::run_traced;
use oblidb_e2ebench::workload::{Dataset, Scale, WORKLOADS};

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

/// Replaces `record.key` (and, with a dotted key, a nested field).
fn with(record: &Json, key: &str, value: Json) -> Json {
    match key.split_once('.') {
        None => record.clone().set(key, value),
        Some((head, rest)) => {
            let inner = with(record.get(head).expect("nested field"), rest, value);
            record.clone().set(head, inner)
        }
    }
}

#[test]
fn runs_meet_the_contract_and_records_round_trip_through_check() {
    let benchmark = Json::parse(&std::fs::read_to_string(benchmark_json_path()).unwrap()).unwrap();
    let declared: Vec<String> = names(benchmark.get("workloads").unwrap());
    assert_eq!(declared, WORKLOADS.map(|w| w.name.to_string()));

    let mut records = Vec::new();
    for spec in &WORKLOADS {
        let data = Dataset::generate(spec, Scale::SMOKE, 7, DEFAULT_SECONDS);

        // End-to-end run: every declared metric, in order, none of them 0.
        let run = run_end_to_end(&data).unwrap();
        assert_eq!(run.failed, 0, "{}: {:?}", spec.name, run.errors);
        let emitted: Vec<String> = run.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, names(benchmark.get("end_to_end").unwrap()), "{}", spec.name);
        assert!(run.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", spec.name, run.metrics);

        // The driver's line: exactly its four keys, metrics as {value, unit}.
        let line = Json::parse(&contract_line(&run)).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for (declared, (name, entry)) in benchmark
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(line.get("metrics").and_then(Json::as_obj).unwrap())
        {
            assert_eq!(declared.get("name").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(declared.get("unit"), entry.get("unit"));
            assert_eq!(entry.as_obj().unwrap().len(), 2);
        }
        records.push(record(&data, false, &run, false));

        // Traced run: every declared per-layer metric, in order; the
        // layers a workload bypasses read 0.
        let traced = run_traced(&data).unwrap();
        assert_eq!(traced.failed, 0, "{}: {:?}", spec.name, traced.errors);
        let emitted: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, names(benchmark.get("per_layer").unwrap()), "{}", spec.name);
        let value = |name: &str| traced.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("enclave.stall_ms"), 0.0, "crossings are free");
        assert_eq!(value("server.errors"), 0.0);
        if spec.name != "index_mix" {
            assert_eq!(value("oram.accesses"), 0.0, "{}", spec.name);
        } else {
            assert!(value("oram.accesses") > 0.0 && value("oram.accesses_per_point_read") > 0.0);
        }
        let cached = spec.substrate.starts_with("cached");
        assert_eq!(value("substrates.cache_hit_ratio") > 0.0, cached, "{}", spec.name);
        assert_eq!(value("core.wal.appends") > 0.0, spec.name == "durable_writes");
        assert!(!traced.spans.is_empty());
    }

    // Records survive the writer and the reader unchanged.
    let reread: Vec<Json> = records.iter().map(|r| Json::parse(&r.to_line()).unwrap()).collect();
    assert_eq!(reread, records);

    // `check` refuses smoke records ...
    let bounds = bounds_of(&benchmark).unwrap();
    assert!(check(&reread, &reread, &bounds).unwrap_err().contains("smoke"));
    // ... passes a run against itself ...
    let full: Vec<Json> = reread.iter().map(|r| with(r, "smoke", false.into())).collect();
    let (report, regressed) = check(&full, &full, &bounds).unwrap();
    assert!(!regressed, "{report}");
    for spec in &WORKLOADS {
        assert!(report.contains(spec.name), "{report}");
    }
    // ... flags a median worse than its bound ...
    let slower: Vec<Json> = full
        .iter()
        .map(|r| {
            let now = r.get("metrics").unwrap().get("stmt_a_ms").unwrap().get("value").unwrap();
            with(r, "metrics.stmt_a_ms.value", (now.as_f64().unwrap() * 1.5).into())
        })
        .collect();
    let (report, regressed) = check(&full, &slower, &bounds).unwrap();
    assert!(regressed && report.contains("REGRESSED"), "{report}");
    // ... and refuses records from another machine or a failed run.
    let elsewhere: Vec<Json> =
        full.iter().map(|r| with(r, "fingerprint.nproc", 64usize.into())).collect();
    assert!(check(&full, &elsewhere, &bounds).unwrap_err().contains("fingerprint"));
    let failed: Vec<Json> = full.iter().map(|r| with(r, "correct", false.into())).collect();
    assert!(check(&full, &failed, &bounds).unwrap_err().contains("failed run"));
}

/// The committed baseline must be usable as one: `check` accepts
/// `history.jsonl` against itself, and it holds an end-to-end and a traced
/// record of every workload.
#[test]
fn the_committed_history_is_a_baseline_check_accepts() {
    let benchmark = Json::parse(&std::fs::read_to_string(benchmark_json_path()).unwrap()).unwrap();
    let bounds = bounds_of(&benchmark).unwrap();
    let history = read_records(&history_path()).unwrap();
    let (report, regressed) = check(&history, &history, &bounds).unwrap();
    assert!(!regressed, "{report}");
    for spec in &WORKLOADS {
        for traced in [false, true] {
            let held = history.iter().any(|r| {
                r.get("workload").and_then(Json::as_str) == Some(spec.name)
                    && r.get("traced") == Some(&Json::Bool(traced))
            });
            assert!(held, "history.jsonl lacks {} (traced: {traced})", spec.name);
        }
        assert!(report.contains(&format!("{} traced counters", spec.name)), "{report}");
    }
}
