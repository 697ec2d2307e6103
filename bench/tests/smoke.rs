//! Runs every workload at tens of Devs, both passes, and holds what it
//! prints to `BENCHMARK.json`: every metric the file names is emitted
//! exactly once, with its unit and a finite value, and nothing fails.

use bench_lib::metrics::{END_TO_END, PER_LAYER};
use bench_lib::workloads::{NAMES, SMOKE};
use djson::Json;

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of `key` in `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
    let doc = benchmark_json();
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let emitted: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared(&doc, key), emitted, "{key}");
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn every_workload_emits_every_metric_once_and_fails_nothing_on_two_seeds() {
    let doc = benchmark_json();
    for workload in NAMES {
        for (seed, trace) in [(1, false), (1, true), (2, false)] {
            let mut outcome = bench_lib::run_workload(workload, seed, 0.3, trace, &SMOKE)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            if !trace {
                outcome.require_end_to_end();
            }
            assert_eq!(
                (outcome.failed, &outcome.failures),
                (0, &Vec::new()),
                "{workload} seed {seed} trace {trace}"
            );
            assert!(
                outcome.attempted >= 2,
                "{workload}: {} operations",
                outcome.attempted
            );
            assert_eq!(
                outcome.spans.is_some(),
                trace,
                "{workload}: spans come with the traced pass"
            );
            let key = if trace { "per_layer" } else { "end_to_end" };
            let result = Json::parse(&outcome.result_line(trace)).expect("the result line is JSON");
            let Json::Obj(top) = &result else {
                panic!("the result line is not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics")
            };
            // `Json::Obj` keeps duplicates, so equal lists mean each name once.
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_owned(),
                    )
                })
                .collect();
            assert_eq!(printed, declared(&doc, key), "{workload} trace {trace}");
            assert!(outcome.exact.contains_key("sim_digest"), "{workload}");
        }
    }
}

#[test]
fn a_workload_whose_plan_does_not_build_still_reports_its_failures_and_a_result() {
    let no_devs = bench_lib::workloads::Sizes {
        flood_devs: 0,
        ..SMOKE
    };
    let mut outcome = bench_lib::run_workload("flood_star", 1, 0.1, false, &no_devs)
        .expect("the workload is known");
    outcome.require_end_to_end();
    assert!(outcome.failed > END_TO_END.len() as u64, "{outcome:?}");
    assert!(outcome.failures[0].starts_with("set-up: "), "{outcome:?}");
    let result = Json::parse(&outcome.result_line(false)).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(outcome.failed)
    );
}
