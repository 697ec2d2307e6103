//! `ddosim` — command-line front-end for single simulation runs.
//!
//! ```sh
//! ddosim --devs 100 --churn dynamic --duration 100 --seed 42
//! ddosim --devs 50 --recruitment worm:1.0:1 --json
//! ddosim --devs 25 --capture run-a.json --capture-filter "udp port 80"
//! ddosim trace diff run-a.json run-b.json
//! ```

use churn::ChurnMode;
use ddosim::{AttackSpec, Recruitment, SimulationBuilder, TelemetryConfig};
use protocols::AttackVector;
use std::process::ExitCode;
use std::time::Duration;
use telemetry::CaptureFilter;

const USAGE: &str = "\
ddosim — memory-error IoT botnet DDoS simulation (DSN'23 reproduction)

USAGE:
    ddosim [OPTIONS]
    ddosim trace diff <A.json> <B.json>
    ddosim serve [--listen <ADDR>] [--idle-timeout <SECS>] [--workers <N>]
    ddosim submit <ADDR> (--scenario <F> | --config <F> | --shutdown) [OPTIONS]

OPTIONS:
    --devs <N>                number of Devs (default 25)
    --churn <MODE>            none | static | dynamic (default none)
    --vector <V>              udpplain | udp | syn | ack | greip (default udpplain)
    --duration <SECS>         attack duration (default 100)
    --attack-at <SECS>        when the C&C issues the attack (default 60)
    --sim-time <SECS>         simulation horizon (default 600)
    --payload <BYTES>         flood payload size (default: vector default)
    --access-rate <LO-HI>     Dev uplink range in kbps (default 100-500)
    --recruitment <R>         memory-error (default)
                              | scanner:<cred-fraction>
                              | worm:<cred-fraction>:<seeds>
    --topology <T>            star (default) | wifi | tiered:<regions>:<uplink-bps>
    --reboot-rate <R>         per-device reboots per minute (default 0)
    --strategy <S>            leak-rebase | static-chain | code-injection
    --faults <FILE>           inject faults from a plan file (schema
                              ddosim.faults.plan/1; see DESIGN.md)
    --seed <N>                RNG seed (default 42)
    --json                    emit the full RunResult as JSON
    --record <FILE>           write the flight-recorder trace (JSON) to FILE
    --capture <FILE>          write the packet capture (JSON) to FILE
    --capture-filter <EXPR>   keep only matching packets, e.g. \"udp port 80\"
                              (clauses: udp|tcp, port N, src IP, dst IP, host IP)
    --metrics-interval <SECS> sample time-series metrics every SECS (fractional ok)
    --metrics-out <FILE>      metrics output file (default ddosim-metrics.json)
    --checkpoint-at <SECS>    snapshot the full world state when the run
                              crosses SECS (schema ddosim.checkpoint/1)
    --checkpoint-out <FILE>   checkpoint output file (default ddosim-checkpoint.json)
    --resume <FILE>           continue a checkpointed run: the world is rebuilt
                              from the checkpoint's embedded configuration,
                              re-run to the snapshot time and verified against
                              the checkpoint's digests, so its outputs equal
                              the uninterrupted run's whole documents;
                              world-shaping flags (--devs, --seed, ...) are
                              rejected, output paths (--record, ...) are not
    --scenario <FILE>         run a declarative adversary-vs-defense scenario
                              (schema ddosim.scenario/1): one plan file composes
                              the world, attack schedule, fault plan, defense
                              deployments, and rival botnets; world-shaping
                              flags are rejected (the plan owns the world),
                              output flags (--record, --json, ...) and
                              --suffixes still compose
    --suffixes <FILE>         run a scenario tree (schema ddosim.suffix/1):
                              the world runs once to the fork point, is
                              deep-cloned in memory per suffix, and the forks
                              run their divergent futures in parallel; if the
                              plan embeds a config, world-shaping flags are
                              rejected; with --record each fork's full trace
                              goes to <record stem>.<suffix name>.json
    --fork-at <SECS>          override the plan's fork point (requires
                              --suffixes; fractional ok)
    --sweep-seeds <N>         run the configured world N times with seeds
                              seed..seed+N-1, fanned out across the worker
                              pool; rows print in seed order (summary
                              lines, or NDJSON rows with --json) and the
                              exit code is non-zero if any run fails
    --sweep-stream            with --sweep-seeds: print each NDJSON row the
                              moment its run finishes (completion order);
                              rows are deterministic, so sorting a streamed
                              transcript reproduces the --json batch
                              output byte for byte
    -h, --help                show this help

SUBCOMMANDS:
    trace diff <A> <B>        compare two telemetry JSON files entry by entry;
                              exit 0 if identical, print the first diverging
                              entry and exit 1 otherwise
    serve                     long-running scenario server: accepts
                              ddosim.serve/1 NDJSON requests over TCP and
                              streams per-job frames (accepted/started, live
                              flight-recorder events, time-series samples, the
                              final deterministic result) to each client;
                              prints \"listening on ADDR\" once bound
        --listen <ADDR>       bind address (default 127.0.0.1:0, an
                              ephemeral port)
        --idle-timeout <SECS> stop after SECS with no connections or jobs
        --workers <N>         worker threads (default: sized from the host)
    submit <ADDR>             submit one job (or a shutdown) to a running
                              server and consume its frame stream; exits
                              non-zero if the server rejects or fails the job
        --scenario <FILE>     submit a ddosim.scenario/1 plan file
        --config <FILE>       submit a resolved configuration document
        --shutdown            ask the server to drain and stop
        --id <NAME>           client-chosen job id (default: server-assigned)
        --record <FILE>       stream flight-recorder events and write the
                              reassembled trace to FILE — byte-identical to
                              the same seed+plan run offline with --record
        --metrics-interval <SECS>  stream time-series samples every SECS
        --follow              print every raw frame line as it arrives
        --json                print the final result as pretty JSON
";

/// A parsed command line.
enum Cli {
    /// Show the usage text.
    Help,
    /// Run a simulation.
    Run(Box<RunOpts>),
    /// Compare two telemetry JSON files.
    TraceDiff { a: String, b: String },
    /// Run the long-running scenario server.
    Serve(ddosim::serve::ServeOptions),
    /// Submit one job (or a shutdown) to a running server.
    Submit(Box<SubmitCli>),
}

/// Everything `ddosim submit` needs from the command line. Plan/config
/// files are read at run time, so parsing alone accepts any path.
struct SubmitCli {
    addr: String,
    scenario_path: Option<String>,
    config_path: Option<String>,
    shutdown: bool,
    id: Option<String>,
    record_out: Option<String>,
    metrics_interval_secs: Option<f64>,
    follow: bool,
    json: bool,
}

/// Everything a simulation run needs from the command line.
struct RunOpts {
    builder: SimulationBuilder,
    json: bool,
    telemetry: TelemetryConfig,
    faults_path: Option<String>,
    record_out: Option<String>,
    capture_out: Option<String>,
    metrics_out: Option<String>,
    checkpoint_at: Option<Duration>,
    checkpoint_out: Option<String>,
    resume_path: Option<String>,
    scenario_path: Option<String>,
    suffixes_path: Option<String>,
    fork_at: Option<Duration>,
    sweep_seeds: Option<u32>,
    sweep_stream: bool,
    /// First world-shaping flag seen, kept so a suffix plan with an
    /// embedded config can reject it at run time (the file is only read
    /// then).
    world_flag: Option<String>,
}

/// Flags that shape the simulated world (as opposed to naming output
/// files). A resumed run rebuilds the world from the checkpoint's embedded
/// configuration, so combining any of these with `--resume` is an error —
/// they would be silently discarded otherwise.
const WORLD_FLAGS: &[&str] = &[
    "--devs", "--churn", "--vector", "--duration", "--attack-at", "--sim-time",
    "--payload", "--access-rate", "--recruitment", "--strategy", "--topology",
    "--reboot-rate", "--faults", "--seed", "--capture-filter", "--metrics-interval",
];

/// Parses a `<SECS>` flag value (fractional ok) into a checked duration;
/// errors name `flag`.
fn secs_flag(flag: &str, text: &str, zero_ok: bool) -> Result<Duration, String> {
    let secs: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    ddosim::checked_secs(flag, secs, zero_ok)
}

/// Parses `ddosim serve ...` (everything after the subcommand word).
fn parse_serve(args: &[String]) -> Result<Cli, String> {
    let mut opts = ddosim::serve::ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("serve: {name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--idle-timeout" => {
                opts.idle_timeout =
                    Some(secs_flag("serve: --idle-timeout", &value("--idle-timeout")?, false)?);
            }
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("serve: --workers: {e}"))?;
                if n == 0 {
                    return Err("serve: --workers: must be at least 1".to_owned());
                }
                opts.workers = Some(n);
            }
            other => return Err(format!("serve: unknown option: {other}")),
        }
    }
    Ok(Cli::Serve(opts))
}

/// Parses `ddosim submit <ADDR> ...` (everything after the subcommand
/// word).
fn parse_submit(args: &[String]) -> Result<Cli, String> {
    let addr = match args.first() {
        Some(a) if !a.starts_with('-') => a.clone(),
        _ => {
            return Err(
                "usage: ddosim submit <ADDR> (--scenario <F> | --config <F> | --shutdown)"
                    .to_owned(),
            )
        }
    };
    let mut cli = SubmitCli {
        addr,
        scenario_path: None,
        config_path: None,
        shutdown: false,
        id: None,
        record_out: None,
        metrics_interval_secs: None,
        follow: false,
        json: false,
    };
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("submit: {name} requires a value"))
        };
        match arg.as_str() {
            "--scenario" => cli.scenario_path = Some(value("--scenario")?),
            "--config" => cli.config_path = Some(value("--config")?),
            "--shutdown" => cli.shutdown = true,
            "--id" => cli.id = Some(value("--id")?),
            "--record" => cli.record_out = Some(value("--record")?),
            "--metrics-interval" => {
                let interval =
                    secs_flag("submit: --metrics-interval", &value("--metrics-interval")?, false)?;
                cli.metrics_interval_secs = Some(interval.as_secs_f64());
            }
            "--follow" => cli.follow = true,
            "--json" => cli.json = true,
            other => return Err(format!("submit: unknown option: {other}")),
        }
    }
    let payloads =
        usize::from(cli.scenario_path.is_some()) + usize::from(cli.config_path.is_some());
    if cli.shutdown {
        if payloads > 0 {
            return Err("submit: --shutdown does not take a scenario or config".to_owned());
        }
        for (flag, set) in [
            ("--id", cli.id.is_some()),
            ("--record", cli.record_out.is_some()),
            ("--metrics-interval", cli.metrics_interval_secs.is_some()),
            ("--json", cli.json),
        ] {
            if set {
                return Err(format!(
                    "submit: {flag} cannot be combined with --shutdown"
                ));
            }
        }
    } else if payloads != 1 {
        return Err(
            "submit: provide exactly one of --scenario, --config, or --shutdown".to_owned(),
        );
    }
    Ok(Cli::Submit(Box::new(cli)))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("serve") {
        return parse_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("submit") {
        return parse_submit(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return match args[1..] {
            [ref sub, ref a, ref b] if sub == "diff" => {
                Ok(Cli::TraceDiff { a: a.clone(), b: b.clone() })
            }
            _ => Err("usage: ddosim trace diff <A.json> <B.json>".to_owned()),
        };
    }
    let mut builder = SimulationBuilder::new().devs(25);
    let mut duration = Duration::from_secs(100);
    let mut vector = AttackVector::UdpPlain;
    let mut payload: Option<u32> = None;
    let mut json = false;
    let mut telemetry = TelemetryConfig::default();
    let mut faults_path: Option<String> = None;
    let mut record_out = None;
    let mut capture_out = None;
    let mut metrics_out: Option<String> = None;
    let mut checkpoint_at: Option<Duration> = None;
    let mut checkpoint_out: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut suffixes_path: Option<String> = None;
    let mut fork_at: Option<Duration> = None;
    let mut sweep_seeds: Option<u32> = None;
    let mut sweep_stream = false;
    let mut world_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if world_flag.is_none() && WORLD_FLAGS.contains(&arg.as_str()) {
            world_flag = Some(arg.clone());
        }
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--devs" => builder = builder.devs(value("--devs")?.parse().map_err(|e| format!("--devs: {e}"))?),
            "--churn" => {
                let v = value("--churn")?;
                builder = builder
                    .churn(ChurnMode::parse(&v).ok_or(format!("unknown churn mode: {v}"))?);
            }
            "--vector" => {
                let v = value("--vector")?;
                vector = AttackVector::parse(&v).ok_or(format!("unknown vector: {v}"))?;
            }
            "--duration" => {
                duration = Duration::from_secs(
                    value("--duration")?.parse().map_err(|e| format!("--duration: {e}"))?,
                )
            }
            "--attack-at" => {
                builder = builder.attack_at(Duration::from_secs(
                    value("--attack-at")?.parse().map_err(|e| format!("--attack-at: {e}"))?,
                ))
            }
            "--sim-time" => {
                builder = builder.sim_time(Duration::from_secs(
                    value("--sim-time")?.parse().map_err(|e| format!("--sim-time: {e}"))?,
                ))
            }
            "--payload" => {
                payload = Some(value("--payload")?.parse().map_err(|e| format!("--payload: {e}"))?)
            }
            "--access-rate" => {
                let v = value("--access-rate")?;
                let (lo, hi) = v
                    .split_once('-')
                    .ok_or_else(|| "expected LO-HI, e.g. 100-500".to_owned())?;
                let lo: u64 = lo.parse().map_err(|e| format!("--access-rate: {e}"))?;
                let hi: u64 = hi.parse().map_err(|e| format!("--access-rate: {e}"))?;
                builder = builder.access_rate_kbps(lo..=hi);
            }
            "--recruitment" => {
                let r = Recruitment::parse(&value("--recruitment")?)
                    .map_err(|e| format!("--recruitment {e}"))?;
                builder = builder.recruitment(r);
            }
            "--strategy" => {
                builder = builder.strategy(match value("--strategy")?.as_str() {
                    "leak-rebase" => ddosim::ExploitStrategy::LeakRebase,
                    "static-chain" => ddosim::ExploitStrategy::StaticChain,
                    "code-injection" => ddosim::ExploitStrategy::CodeInjection,
                    other => return Err(format!("unknown strategy: {other}")),
                })
            }
            "--topology" => {
                let t = ddosim::TopologyKind::parse(&value("--topology")?)
                    .map_err(|e| format!("--topology {e}"))?;
                builder = builder.topology(t);
            }
            "--reboot-rate" => {
                builder = builder.reboot_rate_per_min(
                    value("--reboot-rate")?.parse().map_err(|e| format!("--reboot-rate: {e}"))?,
                )
            }
            "--faults" => faults_path = Some(value("--faults")?),
            "--seed" => builder = builder.seed(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--json" => json = true,
            "--record" => {
                telemetry.record = true;
                record_out = Some(value("--record")?);
            }
            "--capture" => {
                telemetry.capture = true;
                capture_out = Some(value("--capture")?);
            }
            "--capture-filter" => {
                telemetry.capture_filter = CaptureFilter::parse(&value("--capture-filter")?)
                    .map_err(|e| format!("--capture-filter: {e}"))?;
            }
            "--metrics-interval" => {
                telemetry.metrics_interval =
                    Some(secs_flag("--metrics-interval", &value("--metrics-interval")?, false)?);
            }
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--checkpoint-at" => {
                checkpoint_at =
                    Some(secs_flag("--checkpoint-at", &value("--checkpoint-at")?, true)?);
            }
            "--checkpoint-out" => checkpoint_out = Some(value("--checkpoint-out")?),
            "--resume" => resume_path = Some(value("--resume")?),
            "--scenario" => scenario_path = Some(value("--scenario")?),
            "--suffixes" => suffixes_path = Some(value("--suffixes")?),
            "--fork-at" => fork_at = Some(secs_flag("--fork-at", &value("--fork-at")?, true)?),
            "--sweep-seeds" => {
                let n: u32 = value("--sweep-seeds")?
                    .parse()
                    .map_err(|e| format!("--sweep-seeds: {e}"))?;
                if n == 0 {
                    return Err("--sweep-seeds: must be at least 1".to_owned());
                }
                sweep_seeds = Some(n);
            }
            "--sweep-stream" => sweep_stream = true,
            "-h" | "--help" => return Ok(Cli::Help),
            other => return Err(format!("unknown option: {other}")),
        }
    }
    if resume_path.is_some() {
        if let Some(flag) = world_flag {
            return Err(format!(
                "{flag} cannot be combined with --resume: a resumed run \
                 rebuilds the world exactly from the checkpoint's embedded \
                 configuration, telemetry included (output paths such as \
                 --record are still allowed)"
            ));
        }
    }
    if scenario_path.is_some() {
        if let Some(flag) = &world_flag {
            return Err(format!(
                "{flag} cannot be combined with --scenario: the scenario plan \
                 composes the whole world (world, attack, faults, defenses, \
                 rivals); output paths such as --record are still allowed"
            ));
        }
        for (flag, set) in [
            ("--resume", resume_path.is_some()),
            ("--checkpoint-at", checkpoint_at.is_some()),
        ] {
            if set {
                return Err(format!("{flag} cannot be combined with --scenario"));
            }
        }
    }
    if fork_at.is_some() && suffixes_path.is_none() {
        return Err("--fork-at requires --suffixes".to_owned());
    }
    if suffixes_path.is_some() {
        for (flag, set) in [
            ("--resume", resume_path.is_some()),
            ("--checkpoint-at", checkpoint_at.is_some()),
            ("--capture", capture_out.is_some()),
            ("--metrics-interval", telemetry.metrics_interval.is_some()),
            ("--metrics-out", metrics_out.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} cannot be combined with --suffixes: a scenario \
                     tree runs one prefix and many forked futures, which \
                     only supports per-fork flight-recorder output (--record)"
                ));
            }
        }
    }
    if sweep_stream && sweep_seeds.is_none() {
        return Err("--sweep-stream requires --sweep-seeds".to_owned());
    }
    if sweep_seeds.is_some() {
        for (flag, set) in [
            ("--resume", resume_path.is_some()),
            ("--checkpoint-at", checkpoint_at.is_some()),
            ("--suffixes", suffixes_path.is_some()),
            ("--scenario", scenario_path.is_some()),
            ("--record", record_out.is_some()),
            ("--capture", capture_out.is_some()),
            ("--metrics-interval", telemetry.metrics_interval.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} cannot be combined with --sweep-seeds: a seed \
                     sweep runs the configured world many times across the \
                     worker pool and only reports per-row results"
                ));
            }
        }
    }
    if checkpoint_out.is_some() && checkpoint_at.is_none() {
        return Err("--checkpoint-out requires --checkpoint-at".to_owned());
    }
    if checkpoint_at.is_some() && checkpoint_out.is_none() {
        checkpoint_out = Some("ddosim-checkpoint.json".to_owned());
    }
    if telemetry.metrics_interval.is_some() && metrics_out.is_none() {
        metrics_out = Some("ddosim-metrics.json".to_owned());
    }
    builder = builder.attack(AttackSpec {
        vector,
        duration,
        payload_bytes: payload,
        port: 80,
    });
    Ok(Cli::Run(Box::new(RunOpts {
        builder,
        json,
        telemetry,
        faults_path,
        record_out,
        capture_out,
        metrics_out,
        checkpoint_at,
        checkpoint_out,
        resume_path,
        scenario_path,
        suffixes_path,
        fork_at,
        sweep_seeds,
        sweep_stream,
        world_flag,
    })))
}

/// Reads a whole input file; errors name the path.
fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Writes one telemetry document, reporting where it went.
fn write_doc(path: &str, doc: Option<djson::Json>, what: &str) -> Result<(), String> {
    let doc = doc.ok_or_else(|| format!("{what} was not collected"))?;
    std::fs::write(path, doc.to_string_compact() + "\n")
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("{what} written to {path}");
    Ok(())
}

/// One human-readable result line (shared by single runs and scenario-tree
/// rows).
fn summary_line(result: &ddosim::RunResult) -> String {
    format!(
        "devs={} recruited={} ({:.0}%)  bots@command={}  avg={:.1} kbps  \
         flood_rx={} pkts  pre/attack mem={:.2}/{:.2} GB  attack wall={}",
        result.devs,
        result.infected,
        result.infection_rate * 100.0,
        result.bots_at_command,
        result.avg_received_data_rate_kbps,
        result.flood_packets_received,
        result.pre_attack_mem_gb,
        result.attack_mem_gb,
        result.attack_time_m_ss(),
    )
}

/// Inserts a suffix name before the record path's extension:
/// `out.json` + `baseline` → `out.baseline.json`.
fn suffix_record_path(base: &str, name: &str) -> String {
    match base.rsplit_once('.') {
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{name}.{ext}"),
        _ => format!("{base}.{name}"),
    }
}

/// Reads and strictly parses a `ddosim.scenario/1` plan file.
fn load_scenario(path: &str) -> Result<ddosim::scenario::ScenarioPlan, String> {
    Ok(ddosim::scenario::ScenarioPlan::parse(&read_file(path)?)?)
}

/// Runs a scenario tree: one shared prefix to the fork point, then every
/// suffix on an in-memory fork, fanned out across the worker pool.
fn run_scenario_tree(opts: RunOpts) -> Result<(), String> {
    let RunOpts {
        mut builder, json, telemetry, faults_path, record_out, scenario_path, suffixes_path,
        fork_at, world_flag, ..
    } = opts;
    let path = suffixes_path.expect("checked by the caller");
    let mut plan = ddosim::SuffixPlan::parse(&read_file(&path)?)?;
    if let Some(at) = fork_at {
        plan.fork_at = at;
    }
    if plan.suffixes.is_empty() {
        return Err(format!("suffix plan {path} has no suffixes"));
    }
    let mut world = match (plan.config.take(), &scenario_path) {
        (Some(_), Some(sp)) => {
            return Err(format!(
                "--scenario {sp} cannot be combined with a suffix plan that \
                 embeds a configuration: exactly one of them must own the world"
            ));
        }
        (Some(mut config), None) => {
            if let Some(flag) = world_flag {
                return Err(format!(
                    "{flag} cannot be combined with --suffixes when the plan \
                     embeds a configuration: the world is built exactly from \
                     the plan (output paths such as --record are still allowed)"
                ));
            }
            config.telemetry.record |= telemetry.record;
            ddosim::Ddosim::new(config)?
        }
        (None, Some(sp)) => load_scenario(sp)?.build_with_telemetry(telemetry)?,
        (None, None) => {
            if let Some(p) = faults_path {
                builder = builder.faults(ddosim::FaultPlan::parse_str(&read_file(&p)?)?);
            }
            builder.telemetry(telemetry).build()?
        }
    };
    world.run_prefix(plan.fork_at)?;
    let outcomes = ddosim::run_suffixes_streamed(&world, &plan.suffixes, |_, _| {});
    let mut failures = 0usize;
    let mut rows = Vec::with_capacity(outcomes.len());
    for (spec, outcome) in plan.suffixes.iter().zip(&outcomes) {
        match outcome {
            Ok(o) => {
                if let Some(base) = &record_out {
                    let out = suffix_record_path(base, &spec.name);
                    write_doc(&out, o.trace.clone(), "flight recorder")?;
                }
                if json {
                    rows.push(djson::Json::obj([
                        ("name", djson::Json::Str(spec.name.clone())),
                        ("result", djson::ToJson::to_json(&o.result)),
                    ]));
                } else {
                    println!("{}: {}", spec.name, summary_line(&o.result));
                }
            }
            Err(msg) => {
                failures += 1;
                if json {
                    rows.push(djson::Json::obj([
                        ("name", djson::Json::Str(spec.name.clone())),
                        ("error", djson::Json::Str(msg.clone())),
                    ]));
                } else {
                    println!("{}: error: {msg}", spec.name);
                }
            }
        }
    }
    if json {
        println!("{}", djson::Json::Arr(rows).to_string_pretty());
    }
    if failures > 0 {
        return Err(format!("{failures} of {} suffixes failed", outcomes.len()));
    }
    Ok(())
}

/// Runs the configured world across `--sweep-seeds` consecutive seeds on
/// the experiment worker pool. Every JSON row is built from
/// [`ddosim::RunResult::to_deterministic_json`] (host-measured timings
/// excluded), so a `--sweep-stream` transcript (completion order) sorted
/// by line equals the `--json` batch transcript (index order) byte for
/// byte — the CI determinism stage diffs exactly that.
fn run_sweep(opts: RunOpts) -> Result<(), String> {
    let RunOpts { mut builder, json, telemetry, faults_path, sweep_seeds, sweep_stream, .. } =
        opts;
    let n = sweep_seeds.expect("checked by the caller");
    if let Some(path) = faults_path {
        builder = builder.faults(ddosim::FaultPlan::parse_str(&read_file(&path)?)?);
    }
    let base = builder.telemetry(telemetry).config().clone();
    let configs: Vec<_> = (0..u64::from(n))
        .map(|i| {
            let mut config = base.clone();
            config.seed = base.seed.wrapping_add(i);
            config
        })
        .collect();
    let seeds: Vec<u64> = configs.iter().map(|c| c.seed).collect();
    let row_line = |i: usize, outcome: &Result<ddosim::RunResult, String>| {
        let payload = match outcome {
            Ok(r) => ("result", r.to_deterministic_json()),
            Err(msg) => ("error", djson::Json::Str(msg.clone())),
        };
        djson::Json::obj([
            ("index", djson::Json::U64(i as u64)),
            ("seed", djson::Json::U64(seeds[i])),
            payload,
        ])
        .to_string_compact()
    };
    let outcomes = ddosim::try_run_configs_streamed(configs, |i, outcome| {
        if sweep_stream {
            println!("{}", row_line(i, outcome));
        }
    });
    if !sweep_stream {
        for (i, outcome) in outcomes.iter().enumerate() {
            if json {
                println!("{}", row_line(i, outcome));
            } else {
                match outcome {
                    Ok(r) => println!("seed={}: {}", seeds[i], summary_line(r)),
                    Err(msg) => println!("seed={}: error: {msg}", seeds[i]),
                }
            }
        }
    }
    let failures = outcomes.iter().filter(|o| o.is_err()).count();
    if failures > 0 {
        return Err(format!("{failures} of {} sweep runs failed", outcomes.len()));
    }
    Ok(())
}

fn run(opts: RunOpts) -> Result<(), String> {
    if opts.sweep_seeds.is_some() {
        return run_sweep(opts);
    }
    if opts.suffixes_path.is_some() {
        return run_scenario_tree(opts);
    }
    let RunOpts {
        mut builder, json, telemetry, faults_path, record_out, capture_out, metrics_out,
        checkpoint_at, checkpoint_out, resume_path, scenario_path, ..
    } = opts;
    let instance = if let Some(path) = &scenario_path {
        // The plan owns the world (world flags were rejected at parse
        // time); CLI telemetry is layered on top.
        load_scenario(path)?.build_with_telemetry(telemetry)?
    } else {
        if let Some(path) = faults_path {
            builder = builder.faults(ddosim::FaultPlan::parse_str(&read_file(&path)?)?);
        }
        builder = builder.telemetry(telemetry);
        if let Some(path) = &resume_path {
            builder = builder.resume_from(ddosim::Checkpoint::parse(&read_file(path)?)?);
        }
        if let Some(at) = checkpoint_at {
            builder = builder.checkpoint_at(at);
        }
        builder.build()?
    };
    // Clones share the collectors, so the handle stays readable after
    // `try_run_to_completion` consumes the instance.
    let tele = instance.telemetry().clone();
    let (result, saved) = instance.try_run_to_completion()?;
    if let Some(cp) = saved {
        let path = checkpoint_out.as_deref().unwrap_or("ddosim-checkpoint.json");
        std::fs::write(path, cp.to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("checkpoint written to {path}");
    }
    if let Some(path) = record_out {
        write_doc(&path, tele.recorder_json(), "flight recorder")?;
    }
    if let Some(path) = capture_out {
        write_doc(&path, tele.capture_json(), "packet capture")?;
    }
    if let Some(path) = metrics_out {
        write_doc(&path, tele.metrics_json(), "metrics")?;
    }
    if json {
        println!("{}", djson::ToJson::to_json(&result).to_string_pretty());
    } else {
        println!("{}", summary_line(&result));
    }
    Ok(())
}

/// Compares two telemetry JSON files; the process exit code reports the
/// verdict (0 identical, 1 diverged, 2 unreadable).
fn trace_diff(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (read_file(a_path), read_file(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match telemetry::diff_strs(&a, &b) {
        Ok(None) => {
            println!("traces identical");
            ExitCode::SUCCESS
        }
        Ok(Some(d)) => {
            println!("{}", d.render());
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Binds and serves, announcing the real (possibly ephemeral) port on
/// stdout so scripts can poll for readiness.
fn run_serve(opts: ddosim::serve::ServeOptions) -> Result<(), String> {
    let server = ddosim::serve::Server::bind(opts)?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()
}

/// Submits one job (or a shutdown) and reports its outcome.
fn run_submit(cli: SubmitCli) -> Result<(), String> {
    let opts = ddosim::serve::SubmitOptions {
        addr: cli.addr,
        scenario: cli.scenario_path.as_deref().map(read_file).transpose()?,
        config: cli.config_path.as_deref().map(read_file).transpose()?,
        shutdown: cli.shutdown,
        id: cli.id,
        record: cli.record_out.is_some(),
        metrics_interval_secs: cli.metrics_interval_secs,
        follow: cli.follow,
    };
    match ddosim::serve::submit(&opts)? {
        ddosim::serve::SubmitOutcome::ShutdownAcknowledged => {
            eprintln!("server acknowledged shutdown");
            Ok(())
        }
        ddosim::serve::SubmitOutcome::Completed {
            job,
            result,
            trace,
            events_streamed,
            metrics_samples,
        } => {
            if let Some(path) = &cli.record_out {
                let trace = trace.ok_or("server streamed no trace for a record job")?;
                std::fs::write(path, trace).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("flight recorder written to {path}");
            }
            if cli.json {
                println!("{}", result.to_string_pretty());
            } else {
                let pick = |key: &str| {
                    result
                        .get(key)
                        .map(djson::Json::to_string_compact)
                        .unwrap_or_else(|| "?".to_owned())
                };
                println!(
                    "job {job}: devs={} recruited={} bots@command={} flood_rx={} pkts  \
                     events={events_streamed} samples={metrics_samples}",
                    pick("devs"),
                    pick("infected"),
                    pick("bots_at_command"),
                    pick("flood_packets_received"),
                );
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Cli::Help) => {
            print!("{USAGE}");
            Ok(())
        }
        Ok(Cli::TraceDiff { a, b }) => return trace_diff(&a, &b),
        Ok(Cli::Serve(opts)) => run_serve(opts),
        Ok(Cli::Submit(cli)) => run_submit(*cli),
        Ok(Cli::Run(opts)) => run(*opts),
        Err(msg) => Err(format!("{msg}\n\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    fn run_opts(args: &[&str]) -> RunOpts {
        match parse(args) {
            Ok(Cli::Run(opts)) => *opts,
            other => panic!(
                "expected a run command, got {}",
                match other {
                    Ok(Cli::Help) => "help".to_owned(),
                    Ok(Cli::TraceDiff { .. }) => "trace diff".to_owned(),
                    Ok(Cli::Serve(_)) => "serve".to_owned(),
                    Ok(Cli::Submit(_)) => "submit".to_owned(),
                    Ok(Cli::Run(_)) => unreachable!(),
                    Err(e) => format!("error: {e}"),
                }
            ),
        }
    }

    /// Table of flag strings that must be rejected, with the fragment the
    /// error message must contain.
    #[test]
    fn invalid_flags_are_rejected_with_context() {
        let table: &[(&[&str], &str)] = &[
            (&["--churn", "sometimes"], "unknown churn mode"),
            (&["--churn"], "requires a value"),
            (&["--devs", "many"], "--devs"),
            (&["--recruitment", "worm:0.5"], "unknown recruitment spec"),
            (&["--recruitment", "scanner:high"], "--recruitment scanner"),
            (&["--access-rate", "500"], "LO-HI"),
            (&["--access-rate", "a-b"], "--access-rate"),
            (&["--vector", "teardrop"], "unknown vector"),
            (&["--capture-filter", "frob 1"], "--capture-filter"),
            (&["--capture"], "requires a value"),
            (&["--metrics-interval", "0"], "positive"),
            (&["--metrics-interval", "-3"], "positive"),
            (&["--metrics-interval", "soon"], "--metrics-interval"),
            (&["--metrics-interval", "1e20"], "--metrics-interval must be"),
            (&["--metrics-interval", "NaN"], "--metrics-interval must be"),
            (&["--checkpoint-at", "1e20"], "--checkpoint-at must be"),
            (&["--fork-at", "1e20", "--suffixes", "p.json"], "--fork-at must be"),
            (&["serve", "--idle-timeout", "1e20"], "--idle-timeout must be"),
            (
                &["submit", "127.0.0.1:1", "--scenario", "p.json", "--metrics-interval", "1e20"],
                "--metrics-interval must be",
            ),
            (&["--faults"], "requires a value"),
            (&["--frobnicate"], "unknown option"),
            (&["trace", "diff", "only-one.json"], "trace diff"),
            (&["trace", "merge", "a.json", "b.json"], "trace diff"),
            (&["trace", "suffix", "t.json", "cp.json"], "trace diff"),
            (&["--checkpoint-at", "-5"], "non-negative"),
            (&["--checkpoint-at", "soon"], "--checkpoint-at"),
            (&["--checkpoint-out", "cp.json"], "--checkpoint-at"),
            (&["--resume", "cp.json", "--devs", "10"], "--devs"),
            (&["--resume", "cp.json", "--seed", "1"], "--seed"),
            (&["--resume", "cp.json", "--topology", "wifi"], "--topology"),
            (&["--resume", "cp.json", "--metrics-interval", "1"], "--metrics-interval"),
            (&["--topology", "mesh"], "unknown topology"),
            (&["--fork-at", "30"], "--fork-at requires --suffixes"),
            (&["--fork-at", "-1", "--suffixes", "p.json"], "non-negative"),
            (&["--fork-at", "soon", "--suffixes", "p.json"], "--fork-at"),
            (&["--suffixes", "p.json", "--resume", "cp.json"], "--resume"),
            (&["--suffixes", "p.json", "--checkpoint-at", "10"], "--checkpoint-at"),
            (&["--suffixes", "p.json", "--capture", "c.json"], "--capture"),
            (&["--suffixes", "p.json", "--metrics-interval", "1"], "--metrics-interval"),
            (&["--suffixes", "p.json", "--metrics-out", "m.json"], "--metrics-out"),
            (&["--scenario", "p.json", "--devs", "10"], "--devs"),
            (&["--scenario", "p.json", "--seed", "1"], "--seed"),
            (&["--scenario", "p.json", "--faults", "f.json"], "--faults"),
            (&["--scenario", "p.json", "--resume", "cp.json"], "--resume"),
            (&["--scenario", "p.json", "--checkpoint-at", "10"], "--checkpoint-at"),
            (&["--scenario"], "requires a value"),
            (&["--sweep-seeds"], "requires a value"),
            (&["--sweep-seeds", "0"], "at least 1"),
            (&["--sweep-seeds", "lots"], "--sweep-seeds"),
            (&["--sweep-stream"], "--sweep-stream requires --sweep-seeds"),
            (&["--sweep-seeds", "4", "--resume", "cp.json"], "--resume"),
            (&["--sweep-seeds", "4", "--checkpoint-at", "10"], "--checkpoint-at"),
            (&["--sweep-seeds", "4", "--suffixes", "p.json"], "--suffixes"),
            (&["--sweep-seeds", "4", "--scenario", "p.json"], "--scenario"),
            (&["--sweep-seeds", "4", "--record", "t.json"], "--record"),
            (&["--sweep-seeds", "4", "--capture", "c.json"], "--capture"),
            (&["--sweep-seeds", "4", "--metrics-interval", "1"], "--metrics-interval"),
            (&["serve", "--listen"], "requires a value"),
            (&["serve", "--idle-timeout", "0"], "positive"),
            (&["serve", "--idle-timeout", "soon"], "--idle-timeout"),
            (&["serve", "--workers", "0"], "at least 1"),
            (&["serve", "--workers", "many"], "--workers"),
            (&["serve", "--frobnicate"], "unknown option"),
            (&["submit"], "usage: ddosim submit"),
            (&["submit", "--scenario", "p.json"], "usage: ddosim submit"),
            (&["submit", "127.0.0.1:1"], "exactly one of"),
            (
                &["submit", "127.0.0.1:1", "--scenario", "a.json", "--config", "b.json"],
                "exactly one of",
            ),
            (
                &["submit", "127.0.0.1:1", "--shutdown", "--scenario", "a.json"],
                "--shutdown",
            ),
            (
                &["submit", "127.0.0.1:1", "--shutdown", "--record", "t.json"],
                "--record",
            ),
            (&["submit", "127.0.0.1:1", "--shutdown", "--json"], "--json"),
            (
                &["submit", "127.0.0.1:1", "--scenario", "p.json", "--metrics-interval", "0"],
                "positive",
            ),
            (&["submit", "127.0.0.1:1", "--id"], "requires a value"),
            (&["submit", "127.0.0.1:1", "--frobnicate"], "unknown option"),
        ];
        for (args, fragment) in table {
            match parse(args) {
                Err(msg) => assert!(
                    msg.contains(fragment),
                    "args {args:?}: error {msg:?} does not mention {fragment:?}"
                ),
                Ok(_) => panic!("args {args:?} unexpectedly accepted"),
            }
        }
    }

    /// Table of valid flag strings, checked against the accumulated
    /// configuration.
    #[test]
    fn valid_flags_reach_the_config() {
        let opts = run_opts(&[
            "--devs", "12",
            "--churn", "dynamic",
            "--access-rate", "200-300",
            "--recruitment", "worm:0.5:2",
            "--seed", "7",
        ]);
        let config = opts.builder.config();
        assert_eq!(config.devs, 12);
        assert_eq!(config.churn, ChurnMode::Dynamic);
        assert_eq!(config.access_rate_kbps, 200..=300);
        assert_eq!(
            config.recruitment,
            Recruitment::SelfPropagating { default_credential_fraction: 0.5, seeds: 2 }
        );
        assert_eq!(config.seed, 7);
        assert!(!opts.json);
        assert!(!config.telemetry.any_enabled());
        assert_eq!(opts.faults_path, None);
    }

    #[test]
    fn faults_flag_stores_the_plan_path() {
        // The file is only read at run time, so parsing alone must accept
        // any path.
        let opts = run_opts(&["--faults", "plan.json"]);
        assert_eq!(opts.faults_path.as_deref(), Some("plan.json"));
        assert!(opts.builder.config().faults.is_empty(), "plan loads later");
    }

    #[test]
    fn telemetry_flags_build_the_config() {
        let opts = run_opts(&[
            "--record", "rec.json",
            "--capture", "cap.json",
            "--capture-filter", "udp port 80",
            "--metrics-interval", "2.5",
        ]);
        let t = &opts.telemetry;
        assert!(t.record && t.capture);
        assert_eq!(t.capture_filter.proto.as_deref(), Some("udp"));
        assert_eq!(t.capture_filter.port, Some(80));
        assert_eq!(t.metrics_interval, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(opts.record_out.as_deref(), Some("rec.json"));
        assert_eq!(opts.capture_out.as_deref(), Some("cap.json"));
        assert_eq!(opts.metrics_out.as_deref(), Some("ddosim-metrics.json"));
    }

    #[test]
    fn metrics_out_overrides_the_default() {
        let opts = run_opts(&["--metrics-interval", "1", "--metrics-out", "m.json"]);
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        // Without an interval there is nothing to write.
        assert_eq!(run_opts(&[]).metrics_out, None);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let opts = run_opts(&["--checkpoint-at", "75.5"]);
        assert_eq!(opts.checkpoint_at, Some(Duration::from_secs_f64(75.5)));
        assert_eq!(opts.checkpoint_out.as_deref(), Some("ddosim-checkpoint.json"));
        let opts = run_opts(&["--checkpoint-at", "75", "--checkpoint-out", "cp.json"]);
        assert_eq!(opts.checkpoint_out.as_deref(), Some("cp.json"));
        assert!(run_opts(&[]).checkpoint_out.is_none());
    }

    #[test]
    fn resume_allows_output_paths() {
        // Output paths are not world-shaping: a resumed run may write its
        // trace anywhere, the telemetry *collection* config still comes
        // from the checkpoint.
        let opts = run_opts(&["--resume", "cp.json", "--record", "out.json", "--json"]);
        assert_eq!(opts.resume_path.as_deref(), Some("cp.json"));
        assert_eq!(opts.record_out.as_deref(), Some("out.json"));
        assert!(opts.json);
        // A resumed run may also re-checkpoint (at or after the resume
        // point; the run itself refuses a checkpoint time in the past).
        let opts = run_opts(&["--resume", "cp.json", "--checkpoint-at", "80"]);
        assert_eq!(opts.checkpoint_at, Some(Duration::from_secs(80)));
    }

    #[test]
    fn suffix_flags_parse() {
        let opts = run_opts(&["--suffixes", "plan.json", "--fork-at", "12.5", "--record", "t.json"]);
        assert_eq!(opts.suffixes_path.as_deref(), Some("plan.json"));
        assert_eq!(opts.fork_at, Some(Duration::from_secs_f64(12.5)));
        assert_eq!(opts.record_out.as_deref(), Some("t.json"));
        assert_eq!(opts.world_flag, None);
        // World flags parse fine — a plan *without* an embedded config
        // uses them; run time rejects them otherwise.
        let opts = run_opts(&["--devs", "6", "--suffixes", "plan.json"]);
        assert_eq!(opts.world_flag.as_deref(), Some("--devs"));
    }

    #[test]
    fn scenario_flag_parses_and_composes_with_outputs() {
        // The plan file is only read at run time; parsing stores the path
        // and keeps output flags and --suffixes composable.
        let opts = run_opts(&["--scenario", "p.json", "--record", "t.json", "--json"]);
        assert_eq!(opts.scenario_path.as_deref(), Some("p.json"));
        assert_eq!(opts.record_out.as_deref(), Some("t.json"));
        assert!(opts.json);
        let opts = run_opts(&["--scenario", "p.json", "--suffixes", "s.json"]);
        assert_eq!(opts.scenario_path.as_deref(), Some("p.json"));
        assert_eq!(opts.suffixes_path.as_deref(), Some("s.json"));
    }

    #[test]
    fn sweep_flags_parse_and_compose_with_world_flags() {
        // World flags shape the base config that every sweep row clones;
        // only output/state flags conflict.
        let opts = run_opts(&["--devs", "8", "--sweep-seeds", "5", "--sweep-stream", "--json"]);
        assert_eq!(opts.sweep_seeds, Some(5));
        assert!(opts.sweep_stream);
        assert!(opts.json);
        assert_eq!(opts.builder.config().devs, 8);
        let defaults = run_opts(&[]);
        assert_eq!(defaults.sweep_seeds, None);
        assert!(!defaults.sweep_stream);
    }

    #[test]
    fn suffix_record_paths_embed_the_name() {
        assert_eq!(suffix_record_path("out.json", "baseline"), "out.baseline.json");
        assert_eq!(suffix_record_path("trace", "b1"), "trace.b1");
        assert_eq!(suffix_record_path("a.dir/trace", "b1"), "a.dir/trace.b1");
    }

    #[test]
    fn wifi_topology_parses() {
        let opts = run_opts(&["--topology", "wifi"]);
        assert_eq!(opts.builder.config().topology, ddosim::TopologyKind::Wifi);
    }

    #[test]
    fn trace_diff_subcommand_parses() {
        match parse(&["trace", "diff", "a.json", "b.json"]) {
            Ok(Cli::TraceDiff { a, b }) => {
                assert_eq!(a, "a.json");
                assert_eq!(b, "b.json");
            }
            _ => panic!("trace diff did not parse"),
        }
    }

    #[test]
    fn serve_subcommand_parses() {
        let opts = match parse(&["serve"]) {
            Ok(Cli::Serve(opts)) => opts,
            _ => panic!("bare serve did not parse"),
        };
        assert_eq!(opts.listen, "127.0.0.1:0");
        assert_eq!(opts.idle_timeout, None);
        assert_eq!(opts.workers, None);
        let opts = match parse(&[
            "serve", "--listen", "127.0.0.1:47001", "--idle-timeout", "2.5", "--workers", "3",
        ]) {
            Ok(Cli::Serve(opts)) => opts,
            _ => panic!("serve flags did not parse"),
        };
        assert_eq!(opts.listen, "127.0.0.1:47001");
        assert_eq!(opts.idle_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(opts.workers, Some(3));
    }

    #[test]
    fn submit_subcommand_parses() {
        let cli = match parse(&[
            "submit", "127.0.0.1:47001", "--scenario", "plan.json", "--record", "t.json",
            "--metrics-interval", "5", "--id", "a1", "--follow", "--json",
        ]) {
            Ok(Cli::Submit(cli)) => cli,
            _ => panic!("submit did not parse"),
        };
        assert_eq!(cli.addr, "127.0.0.1:47001");
        assert_eq!(cli.scenario_path.as_deref(), Some("plan.json"));
        assert_eq!(cli.config_path, None);
        assert!(!cli.shutdown);
        assert_eq!(cli.id.as_deref(), Some("a1"));
        assert_eq!(cli.record_out.as_deref(), Some("t.json"));
        assert_eq!(cli.metrics_interval_secs, Some(5.0));
        assert!(cli.follow && cli.json);
        let cli = match parse(&["submit", "127.0.0.1:47001", "--shutdown"]) {
            Ok(Cli::Submit(cli)) => cli,
            _ => panic!("submit --shutdown did not parse"),
        };
        assert!(cli.shutdown);
        let cli = match parse(&["submit", "127.0.0.1:47001", "--config", "c.json"]) {
            Ok(Cli::Submit(cli)) => cli,
            _ => panic!("submit --config did not parse"),
        };
        assert_eq!(cli.config_path.as_deref(), Some("c.json"));
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&["-h"]), Ok(Cli::Help)));
        assert!(matches!(parse(&["--devs", "3", "--help"]), Ok(Cli::Help)));
    }
}
