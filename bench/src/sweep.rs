//! `sweep_fork`: many short worlds on the product's worker pool. One
//! repetition runs a dynamic-churn parent to the fork point, fans a
//! `ddosim.suffix/1` tree out over it with `run_suffixes_streamed`, then
//! runs a seed sweep of a small world with `try_run_configs_streamed` —
//! the work where build, `fork()`, result collection and pool hand-off
//! are a large share of the wall.

use crate::drive::{drive, guarded, span_metrics, Op};
use crate::layers;
use crate::metrics::{fnv1a, median, Outcome, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{self, Sizes};
use crate::world::{check_result, setup_sample, WorldSpec};
use ddosim::scenario::ScenarioPlan;
use ddosim::{
    run_suffixes_streamed, try_run_configs_streamed, Ddosim, RunResult, SimulationConfig,
    SuffixPlan, TelemetryConfig,
};
use std::time::Instant;

/// The three documents the workload is made of.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// `ddosim.scenario/1`: the forked parent.
    pub parent_text: String,
    /// `ddosim.suffix/1`: the branches.
    pub suffix_text: String,
    /// `ddosim.scenario/1`: the world each sweep row runs.
    pub row_text: String,
    /// Rows of the seed sweep.
    pub sweep_seeds: u32,
}

impl SweepSpec {
    /// Generates the documents from the benchmark seed.
    pub fn generate(seed: u64, z: &Sizes) -> SweepSpec {
        SweepSpec {
            parent_text: workloads::fork_parent(seed, z),
            suffix_text: workloads::fork_suffixes(seed),
            row_text: workloads::sweep_base(seed, z),
            sweep_seeds: z.sweep_seeds,
        }
    }

    fn parent(&self) -> WorldSpec {
        WorldSpec {
            plan_text: self.parent_text.clone(),
            telemetry: TelemetryConfig::default(),
            full_recruitment: false,
        }
    }
}

fn sweep_configs(spec: &SweepSpec) -> Result<Vec<SimulationConfig>, String> {
    let base = ScenarioPlan::parse(&spec.row_text)
        .map_err(String::from)?
        .config();
    Ok((0..u64::from(spec.sweep_seeds))
        .map(|i| {
            let mut config = base.clone();
            config.seed = base.seed.wrapping_add(i);
            config
        })
        .collect())
}

/// The row the CLI prints for one finished world.
fn row_line(index: usize, outcome: Result<&RunResult, &String>) -> String {
    let payload = match outcome {
        Ok(r) => ("result", r.to_deterministic_json()),
        Err(why) => ("error", djson::Json::Str(why.clone())),
    };
    djson::Json::obj([("index", djson::Json::U64(index as u64)), payload]).to_string_compact()
}

fn check_row(label: &str, outcome: Result<&RunResult, &String>) -> Result<(), String> {
    match outcome {
        Ok(r) => check_result(r, false).map_err(|why| format!("{label}: {why}")),
        Err(why) => Err(format!("{label}: {why}")),
    }
}

/// One repetition: every branch and every sweep row is an attempted
/// operation of its own. `straight` is the parent plan run straight
/// through, which the identity branch must reproduce.
fn rep(spec: &SweepSpec, straight: &str, t: &mut Tracer) -> Result<Op, String> {
    let root = t.enter("rep");
    let start = Instant::now();
    let s = t.enter("scenario.parse");
    let plan = ScenarioPlan::parse(&spec.parent_text).map_err(String::from);
    let tree = SuffixPlan::parse(&spec.suffix_text);
    t.exit(s);
    let (plan, tree) = (plan?, tree?);
    let s = t.enter("scenario.build");
    let world = plan.build();
    t.exit(s);
    let mut world: Ddosim = world?;

    let run = Instant::now();
    let s = t.enter("core.run.prefix");
    world.run_prefix(tree.fork_at)?;
    t.exit(s);
    let s = t.enter("core.sweep.suffixes");
    let branches = run_suffixes_streamed(&world, &tree.suffixes, |_, _| {});
    t.exit(s);
    let s = t.enter("core.sweep.seeds");
    let configs = sweep_configs(spec)?;
    let rows = try_run_configs_streamed(configs, |_, _| {});
    t.exit(s);
    let run_s = run.elapsed().as_secs_f64();

    let s = t.enter("core.result_json");
    let results: Vec<Result<&RunResult, &String>> = branches
        .iter()
        .map(|b| b.as_ref().map(|o| &o.result))
        .chain(rows.iter().map(Result::as_ref))
        .collect();
    let lines: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, r)| row_line(i, *r))
        .collect();
    t.exit(s);
    let wall_s = start.elapsed().as_secs_f64();

    let s = t.enter("bench.check");
    let digest = lines
        .iter()
        .fold(FNV_OFFSET, |h, line| fnv1a(h, line.as_bytes()));
    let checks: Vec<Result<(), String>> = results
        .iter()
        .enumerate()
        .map(|(i, r)| match tree.suffixes.get(i) {
            Some(branch) => check_row(&branch.name, *r),
            None => check_row(&format!("sweep row {}", i - tree.suffixes.len()), *r),
        })
        .collect();
    let identity = match results.first() {
        Some(Ok(r)) if r.to_deterministic_json().to_string_compact() == straight => Ok(()),
        Some(Ok(_)) => Err("the identity branch differs from the straight-through run".to_owned()),
        _ => Ok(()), // already counted as a failed row
    };
    t.exit(s);
    t.exit(root);
    Ok(Op {
        wall_s,
        run_s,
        packets: results.iter().flatten().map(|r| r.packets_sent).sum(),
        digest,
        check: identity,
        rows: checks,
    })
}

/// Runs the workload for `seconds` and reports its metrics.
pub fn run(spec: &SweepSpec, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let parent = spec.parent();
    if trace {
        layers::probe_world(&mut out, &parent);
    }
    // The reference the identity branch is held to.
    let straight = guarded(|| {
        let plan = ScenarioPlan::parse(&spec.parent_text).map_err(String::from)?;
        Ok(plan
            .build()?
            .run_to_completion()
            .to_deterministic_json()
            .to_string_compact())
    });
    let straight = match straight {
        Ok(text) => text,
        Err(why) => {
            out.attempt(Err(format!("straight-through run: {why}")));
            return out;
        }
    };
    let mut last = None;
    let driven = drive(
        seconds,
        trace,
        &mut out,
        || setup_sample(&parent),
        |t| {
            let op = rep(spec, &straight, t)?;
            last = Some((op.rows.len(), op.packets));
            Ok(op)
        },
    );
    let Some((rows, packets)) = last else {
        return out;
    };
    out.exact.insert("rows", rows.to_string());
    out.exact.insert("packets_sent", packets.to_string());
    if !trace {
        return out;
    }

    span_metrics(
        &mut out,
        &driven,
        "rep",
        &[
            ("scenario.parse_s", "scenario.parse"),
            ("scenario.build_s", "scenario.build"),
            ("core.run.recruit_s", "core.run.prefix"),
            ("core.result_json_s", "core.result_json"),
        ],
    );
    parallel_efficiency(&mut out, spec, &driven.tracer);
    layers::json(&mut out, &spec.suffix_text);
    layers::infection_chain(&mut out);
    out.spans = Some(driven.tracer.to_json("sweep_fork"));
    out
}

/// `core.sweep.parallel_efficiency`: the sweep rows run one after the
/// other on this thread, over the pool's wall times the threads it had.
/// 1 means the pool kept every thread busy with useful work.
fn parallel_efficiency(out: &mut Outcome, spec: &SweepSpec, tracer: &Tracer) {
    let pooled = tracer.durations("core.sweep.seeds");
    let (Ok(configs), false) = (sweep_configs(spec), pooled.is_empty()) else {
        return;
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(configs.len());
    let mut serial = Vec::new();
    for _ in 0..3 {
        let pass = Instant::now();
        for config in configs.clone() {
            let ran = guarded(|| Ok(Ddosim::new(config)?.run_to_completion()));
            if let Err(why) = ran {
                out.attempt(Err(format!("serial sweep row: {why}")));
                return;
            }
        }
        serial.push(pass.elapsed().as_secs_f64());
    }
    out.set(
        "core.sweep.parallel_efficiency",
        median(&serial) / (threads as f64 * median(&pooled)),
    );
}
