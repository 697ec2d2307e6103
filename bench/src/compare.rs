//! `bench compare <a.json> <b.json>`: holds results set B to results set
//! A (two files written by `bench run`) under each metric's own bound.
//!
//! One row per (workload, end-to-end metric): both medians, the ratio
//! with its base, and a verdict. A metric is `unresolved` when either
//! set's own spread (interquartile distance over median) exceeds the
//! bound — the difference cannot be told from noise. The comparison
//! fails on a regression, on any failed operation, and on a `sim_digest`
//! that differs for the same seed.

use crate::metrics::{interquartile, median};
use djson::Json;
use std::fmt::Write as _;

/// Schema tag of the results file.
pub const RESULTS_SCHEMA: &str = "ddosim.benchresults/1";

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// What the comparison needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// How long one run measures.
    pub run_seconds: f64,
    /// The end-to-end metrics and their bounds.
    pub end_to_end: Vec<Bounded>,
}

impl Contract {
    /// The `BENCHMARK.json` this binary was built beside.
    ///
    /// # Errors
    ///
    /// Returns a message if the file is not in the contract's shape.
    pub fn embedded() -> Result<Contract, String> {
        Contract::parse(include_str!("../../BENCHMARK.json"))
    }

    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let missing = |what: &str| format!("BENCHMARK.json: missing or mistyped {what}");
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("run_seconds"))?;
        let list = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("end_to_end"))?;
        let mut end_to_end = Vec::with_capacity(list.len());
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("name"))?;
            let higher_is_better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(missing("better")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("bound"))?;
            end_to_end.push(Bounded {
                name: name.to_owned(),
                higher_is_better,
                bound,
            });
        }
        Ok(Contract {
            run_seconds,
            end_to_end,
        })
    }
}

/// The printed table and the verdict.
#[derive(Debug)]
pub struct Report {
    /// One row per (workload, metric), then the failures.
    pub table: String,
    /// False on a regression, a failed operation or a digest mismatch.
    pub passed: bool,
}

fn workloads(doc: &Json, which: &str) -> Result<Vec<(String, Vec<Json>)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
        return Err(format!("{which} is not a {RESULTS_SCHEMA} document"));
    }
    let Some(Json::Obj(members)) = doc.get("workloads") else {
        return Err(format!("{which} has no workloads"));
    };
    Ok(members
        .iter()
        .map(|(name, runs)| (name.clone(), runs.as_array().unwrap_or_default().to_vec()))
        .collect())
}

fn samples(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

/// Compares two results documents.
///
/// # Errors
///
/// Returns a message if either text is not a results document, or the
/// two do not cover the same workloads.
pub fn compare(contract: &Contract, a_text: &str, b_text: &str) -> Result<Report, String> {
    let parse = |text: &str, which: &str| {
        Json::parse(text)
            .map_err(|e| format!("{which}: {e}"))
            .and_then(|d| workloads(&d, which))
    };
    let (a, b) = (parse(a_text, "A")?, parse(b_text, "B")?);
    let mut table = String::new();
    let mut passed = true;
    let _ = writeln!(
        table,
        "{:<14} {:<14} {:>14} {:>14} {:>22} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound"
    );
    for (name, runs_a) in &a {
        let Some((_, runs_b)) = b.iter().find(|(n, _)| n == name) else {
            return Err(format!("B has no workload {name}"));
        };
        for m in &contract.end_to_end {
            let (va, vb) = (samples(runs_a, &m.name), samples(runs_b, &m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name} has no {} in one of the sets", m.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let spread = (interquartile(&va) / ma).max(interquartile(&vb) / mb);
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse > m.bound {
                passed = false;
                "REGRESSION"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{name:<14} {:<14} {ma:>14.6} {mb:>14.6} {:>22} {:>6.0}%  {verdict}",
                m.name,
                format!("{:.4} (of {ma:.6})", mb / ma),
                m.bound * 100.0
            );
        }
        for (set, runs) in [("A", runs_a), ("B", runs_b)] {
            let failed: u64 = runs.iter().filter_map(|r| r.get("failed")?.as_u64()).sum();
            if failed > 0 {
                passed = false;
                let _ = writeln!(
                    table,
                    "{name:<14} FAILED: {failed} operations failed in set {set}"
                );
            }
        }
        for run_a in runs_a {
            let digest = |r: &Json| {
                r.get("exact")?
                    .get("sim_digest")?
                    .as_str()
                    .map(str::to_owned)
            };
            let seed = run_a.get("seed").and_then(Json::as_u64);
            let twin = runs_b
                .iter()
                .find(|r| r.get("seed").and_then(Json::as_u64) == seed);
            if let Some(run_b) = twin {
                if digest(run_a) != digest(run_b) {
                    passed = false;
                    let _ = writeln!(
                        table,
                        "{name:<14} FAILED: sim_digest differs at seed {seed:?}: {:?} vs {:?}",
                        digest(run_a),
                        digest(run_b)
                    );
                }
            }
        }
    }
    Ok(Report { table, passed })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{"run_seconds":10,"end_to_end":[
        {"name":"wall_s","unit":"s","better":"lower","bound":0.1},
        {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn results(walls: &[f64], rate: f64, failed: u64, digest: &str) -> String {
        let runs: Vec<String> = walls
            .iter()
            .enumerate()
            .map(|(seed, w)| {
                format!(
                    r#"{{"seed":{seed},"failed":{failed},"exact":{{"sim_digest":"{digest}"}},
                       "end_to_end":{{"wall_s":{w},"ops_per_s":{rate}}}}}"#
                )
            })
            .collect();
        format!(
            r#"{{"schema":"ddosim.benchresults/1","workloads":{{"flood_star":[{}]}}}}"#,
            runs.join(",")
        )
    }

    fn verdicts(a: &str, b: &str) -> (String, bool) {
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        let report = compare(&contract, a, b).expect("comparable");
        (report.table, report.passed)
    }

    #[test]
    fn the_embedded_contract_parses_and_bounds_setup_most_loosely() {
        let contract = Contract::embedded().expect("BENCHMARK.json is in shape");
        let setup = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better);
        // The contract: at most 25 %, set-up widest.
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert!((1.0..=60.0).contains(&contract.run_seconds));
    }

    #[test]
    fn equal_sets_pass_and_each_metric_is_held_to_its_own_direction() {
        let a = results(&[1.0, 1.0, 1.0], 100.0, 0, "d");
        assert!(verdicts(&a, &a).1);
        // 5% slower: inside the 10% bound.
        assert!(verdicts(&a, &results(&[1.05, 1.05, 1.05], 100.0, 0, "d")).1);
        // 20% slower wall (lower is better) regresses.
        let (table, passed) = verdicts(&a, &results(&[1.2, 1.2, 1.2], 100.0, 0, "d"));
        assert!(!passed && table.contains("REGRESSION"), "{table}");
        // 20% more operations per second (higher is better) does not.
        assert!(verdicts(&a, &results(&[1.0, 1.0, 1.0], 120.0, 0, "d")).1);
        // 20% fewer does.
        assert!(!verdicts(&a, &results(&[1.0, 1.0, 1.0], 80.0, 0, "d")).1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_a_regression() {
        let a = results(&[1.0, 1.0, 1.0, 1.0], 100.0, 0, "d");
        let noisy = results(&[0.9, 1.2, 1.6, 1.3], 100.0, 0, "d");
        let (table, passed) = verdicts(&a, &noisy);
        assert!(passed && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn failed_operations_and_digest_mismatches_fail_the_comparison() {
        let a = results(&[1.0, 1.0], 100.0, 0, "d");
        let (table, passed) = verdicts(&a, &results(&[1.0, 1.0], 100.0, 1, "d"));
        assert!(
            !passed && table.contains("operations failed in set B"),
            "{table}"
        );
        let (table, passed) = verdicts(&a, &results(&[1.0, 1.0], 100.0, 0, "e"));
        assert!(!passed && table.contains("sim_digest differs"), "{table}");
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        assert!(compare(&contract, &a, "{}").is_err());
    }
}
