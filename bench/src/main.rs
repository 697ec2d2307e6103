//! `bench run` and `bench compare`; see `bench/README.md`.

use bench_lib::compare::{self, Contract};
use bench_lib::metrics::{Outcome, END_TO_END, PER_LAYER};
use bench_lib::workloads::{FULL, NAMES};
use djson::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: bench run --workload <W> [--seed <N>] [--seconds <S>] [--trace <0|1>]
           one workload in this process; the last line of standard
           output is the result object the driver reads
       bench run [--seed <N>] [--seconds <S>]
           every workload, both passes, seeds N, N+1 and N+2, each run in
           a child process of its own; writes bench/out/results.json
       bench compare <A.json> <B.json>
           holds results B to results A under the bounds of BENCHMARK.json";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Seeds a set of runs covers: `compare` takes its medians and spreads
/// over this many runs a workload, in both sets alike.
const SEEDS_PER_SET: u64 = 3;
/// Where `bench run` writes a set of runs.
const RESULTS: &str = "bench/out/results.json";

fn parse_run(args: &[String], contract: &Contract) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: contract.run_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(format!("--seconds must be within 0..=60, got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// Prints one run: any failures first, then every metric measured by
/// name with its unit, the exact values with the sample counts, and —
/// last — the result object. A run that failed prints all of it too.
fn print_outcome(workload: &str, trace: bool, outcome: &Outcome) {
    for why in &outcome.failures {
        println!("{workload} FAILED {why}");
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{workload} fail_share {share} ({} of {})",
        outcome.failed, outcome.attempted
    );
    for (name, unit) in if trace { PER_LAYER } else { END_TO_END } {
        match outcome.metrics.get(name) {
            Some(value) => println!("{workload} {name} {value} {unit}"),
            None if trace => println!("{workload} {name} 0 {unit}"),
            None => println!("{workload} {name} not measured"),
        }
    }
    let exact = outcome
        .exact
        .iter()
        .map(|(k, v)| ((*k).to_owned(), Json::Str(v.clone())));
    let n = outcome
        .n
        .iter()
        .map(|(k, v)| ((*k).to_owned(), Json::U64(*v)));
    println!(
        "{}",
        Json::obj([
            ("exact", Json::Obj(exact.collect())),
            ("n", Json::Obj(n.collect()))
        ])
        .to_string_compact()
    );
    println!("{}", outcome.result_line(trace));
}

/// Writes the span tree of a per-layer pass to
/// `bench/out/trace.<workload>.json`.
fn write_spans(workload: &str, spans: &Json) {
    let dir = std::path::Path::new("bench/out");
    let path = dir.join(format!("trace.{workload}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.to_string_compact() + "\n"));
    match written {
        Ok(()) => eprintln!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Runs one workload as a child of this executable, so that `VmHWM` is
/// that workload's alone; returns its `{exact, n}` line and result object.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let notes = lines.next().and_then(|l| Json::parse(l).ok());
    match (result, notes) {
        (Some(result), Some(notes)) if result.get("metrics").is_some() => Ok((notes, result)),
        _ => Err(format!(
            "{workload} (seed {seed}, trace {trace}) printed no result: {}",
            output.status
        )),
    }
}

/// The commit the numbers were measured on, `-dirty` when the working
/// tree differs from it.
fn git_sha() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Flattens a result object's `{name: {value, unit}}` into `{name: value}`.
fn values(result: &Json) -> Json {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Json::Null;
    };
    Json::Obj(
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut clean = true;
    let mut workloads = Vec::new();
    for workload in NAMES {
        let mut runs = Vec::new();
        for seed in args.seed..args.seed + SEEDS_PER_SET {
            let (notes, end_to_end) = child(workload, seed, args.seconds, false)?;
            let (traced_notes, per_layer) = child(workload, seed, args.seconds, true)?;
            let field = |notes: &Json, key: &str| notes.get(key).cloned().unwrap_or(Json::Null);
            let failed = [&end_to_end, &per_layer]
                .iter()
                .map(|r| r.get("failed").and_then(Json::as_u64).unwrap_or(1))
                .sum::<u64>();
            clean &= failed == 0;
            runs.push(Json::obj([
                ("seed", Json::U64(seed)),
                (
                    "attempted",
                    end_to_end.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                ("failed", Json::U64(failed)),
                ("exact", field(&notes, "exact")),
                ("n", field(&notes, "n")),
                ("end_to_end", values(&end_to_end)),
                ("traced_n", field(&traced_notes, "n")),
                ("per_layer", values(&per_layer)),
            ]));
        }
        workloads.push((workload.to_owned(), Json::Arr(runs)));
    }
    let doc = Json::obj([
        ("schema", Json::Str(compare::RESULTS_SCHEMA.into())),
        ("git_sha", Json::Str(git_sha())),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("seconds", Json::F64(args.seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(RESULTS).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(RESULTS, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("writing {RESULTS}: {e}"))?;
    eprintln!("results written to {RESULTS}");
    Ok(clean)
}

fn real_main() -> Result<bool, String> {
    let contract = Contract::embedded()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            let args = parse_run(rest, &contract)?;
            match &args.workload {
                None => run_all(&args),
                Some(workload) => {
                    let mut outcome = bench_lib::run_workload(
                        workload,
                        args.seed,
                        args.seconds,
                        args.trace,
                        &FULL,
                    )?;
                    if !args.trace {
                        outcome.require_end_to_end();
                    }
                    if let Some(spans) = &outcome.spans {
                        write_spans(workload, spans);
                    }
                    print_outcome(workload, args.trace, &outcome);
                    Ok(outcome.failed == 0)
                }
            }
        }
        Some((cmd, [a, b])) if cmd == "compare" => {
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
            let report = compare::compare(&contract, &read(a)?, &read(b)?)?;
            print!("{}", report.table);
            Ok(report.passed)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
