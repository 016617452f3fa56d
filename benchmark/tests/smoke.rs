//! The benchmark's own CI: run `--smoke` (every workload, untraced and
//! traced, at 60k rows) and hold the output against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use taster_benchmark::cli::RUN_SECONDS;
use taster_benchmark::json::{self, Json};
use taster_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use taster_benchmark::stack::Workload;

fn workload_names() -> Vec<&'static str> {
    Workload::ALL.iter().map(|w| w.name()).collect()
}

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    contract
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn assert_same_metrics(contract: &Json, key: &str, defs: &[MetricDef], bounded: bool) {
    let listed = contract.get(key).and_then(Json::as_array).expect(key);
    assert_eq!(
        listed.len(),
        defs.len(),
        "{key}: count differs from metrics.rs"
    );
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        let better = if def.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            def.name
        );
        let bound = entry.get("bound").and_then(Json::as_f64);
        assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
    }
}

#[test]
fn benchmark_json_lists_what_the_program_defines() {
    let contract = contract();
    assert_eq!(names(&contract, "workloads"), workload_names());
    assert_same_metrics(&contract, "end_to_end", END_TO_END, true);
    assert_same_metrics(&contract, "per_layer", PER_LAYER, false);
    assert_eq!(
        contract.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let keys: Vec<&str> = contract
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
    // No bound wider than 15 %, and accuracy may not drop by more than 0.02
    // of `drift`'s 0.61.
    assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.15));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "err_coverage" && d.bound <= 0.03));
}

#[test]
fn layers_json_explains_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let layers = json::parse(&std::fs::read_to_string(path).expect("layers.json")).expect("JSON");
    let rows = layers
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    let listed: Vec<&str> = rows
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let defined: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(listed, defined);
    let known: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    for row in rows {
        for metric in row.get("moves").and_then(Json::as_array).expect("moves") {
            assert!(
                known.contains(&metric.as_str().unwrap()),
                "{metric:?} is not an end-to-end metric"
            );
        }
        for key in ["on", "not_on"] {
            for workload in row.get(key).and_then(Json::as_array).expect(key) {
                assert!(
                    workload_names().contains(&workload.as_str().unwrap()),
                    "{workload:?}"
                );
            }
        }
    }
    assert_eq!(layers.get("claim"), Some(&Json::Null));
}

#[test]
fn smoke_run_prints_every_metric_of_every_workload() {
    let output = Command::new(env!("CARGO_BIN_EXE_taster-benchmark"))
        .arg("--smoke")
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // `== <workload>  trace=<0|1> ...` opens each run; its one JSON line
    // closes it.
    let mut results: BTreeMap<(String, bool), Json> = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            let mut words = header.split_whitespace();
            let workload = words.next().expect("workload name").to_string();
            current = Some((workload, words.next() == Some("trace=1")));
        } else if line.starts_with('{') {
            let result = json::parse(line).expect("result line is JSON");
            results.insert(current.take().expect("a header before each result"), result);
        }
    }
    assert_eq!(
        results.len(),
        2 * Workload::ALL.len(),
        "one untraced and one traced run per workload"
    );

    for ((workload, traced), result) in &results {
        assert!(workload_names().contains(&workload.as_str()));
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let defs = if *traced { PER_LAYER } else { END_TO_END };
        let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let defined: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(printed, defined, "{workload} trace={traced}");
        for ((name, metric), def) in metrics.iter().zip(defs) {
            let value = metric.get("value").and_then(Json::as_f64).expect("a value");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{name}"
            );
            if !*traced {
                assert!(
                    value > 0.0,
                    "{workload} {name}: end-to-end metrics are never 0"
                );
            }
        }
    }
}
