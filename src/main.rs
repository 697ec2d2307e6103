//! `ddosim` — command-line front-end for single simulation runs.
//!
//! ```sh
//! ddosim --devs 100 --churn dynamic --duration 100 --seed 42
//! ddosim --devs 50 --recruitment worm:1.0:1 --json
//! ddosim --devs 25 --capture run-a.json --capture-filter "udp port 80"
//! ddosim trace diff run-a.json run-b.json
//! ```
//!
//! Every flag is one row of its command's table (`RUN`, `SERVE`, `SUBMIT`);
//! the argv loop, the `--help` text and the mode conflicts read those rows.

use churn::ChurnMode;
use ddosim::serve::{JobSpec, ServeOptions, SubmitOptions, SubmitOutcome};
use ddosim::{Ddosim, Recruitment, SimulationConfig};
use protocols::AttackVector;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use telemetry::CaptureFilter;

/// What a flag decides. Mode conflicts are stated over classes, so a new
/// flag is refused (or kept) by every mode according to its class alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Shapes the simulated world: configuration fields and the fault plan.
    World,
    /// Shapes what telemetry collects, as opposed to where it is written.
    Collect,
    /// Names an output: a file to write or the format of stdout.
    Output,
    /// Selects what the command does, or tunes that mode.
    Mode,
}
use Class::{Collect, Mode, Output, World};

/// One command-line flag of a command whose options live in `O`.
struct Flag<O: 'static> {
    name: &'static str,
    /// Placeholder of the value in the help text; empty for a switch.
    value: &'static str,
    class: Class,
    /// Help text; continuation lines are separated by `\n`.
    help: &'static str,
    /// Stores the value (`""` for a switch); gets the flag's own name
    /// first, for error messages.
    set: fn(&mut O, &str, &str) -> Result<(), String>,
}

/// A mode flag and what it cannot be combined with: every flag of the
/// `classes` except the `keeps`, plus the named `flags`. A flag the mode
/// cannot honour is an error, never silently dropped. A row applies in
/// whichever command has its `mode` flag.
struct Rule {
    mode: &'static str,
    classes: &'static [Class],
    keeps: &'static [&'static str],
    flags: &'static [&'static str],
    reason: &'static str,
}

impl Rule {
    fn refuses<O>(&self, flag: &Flag<O>) -> bool {
        flag.name != self.mode
            && !self.keeps.contains(&flag.name)
            && (self.classes.contains(&flag.class) || self.flags.contains(&flag.name))
    }
}

const RULES: &[Rule] = &[
    Rule { mode: "--resume", classes: &[World, Collect], keeps: &[], flags: &[],
        reason: "a resumed run rebuilds the world exactly from the checkpoint's embedded \
                 configuration, telemetry included (output paths such as --record are \
                 still allowed)" },
    Rule { mode: "--scenario", classes: &[World], keeps: &[],
        flags: &["--resume", "--checkpoint-at"],
        reason: "the scenario plan composes the whole world (world, attack, faults, \
                 defenses, rivals); collection and output flags such as \
                 --metrics-interval and --record are still allowed" },
    Rule { mode: "--suffixes", classes: &[Collect, Output],
        keeps: &["--record", "--capture", "--json"], flags: &["--resume", "--checkpoint-at"],
        reason: "a scenario tree runs one prefix and many forked futures, which only \
                 supports per-fork flight-recorder and packet-capture output (--record, \
                 --capture)" },
    Rule { mode: "--sweep-seeds", classes: &[Collect, Output], keeps: &["--json"],
        flags: &["--resume", "--checkpoint-at", "--suffixes", "--scenario"],
        reason: "a seed sweep runs the configured world many times across the worker \
                 pool and only reports per-row results" },
    Rule { mode: "--shutdown", classes: &[Collect, Output], keeps: &["--follow"],
        flags: &["--scenario", "--config", "--id"],
        reason: "a shutdown request carries no job" },
];

/// `(flag, the flag it is meaningless without)`.
const REQUIRES: &[(&str, &str)] = &[
    ("--fork-at", "--suffixes"),
    ("--sweep-stream", "--sweep-seeds"),
    ("--checkpoint-out", "--checkpoint-at"),
];

/// Parses a flag value with `FromStr`; the error reads `<flag>: <why>`.
fn num<T: FromStr<Err: Display>>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// [`num`] for a count, which must be at least 1.
fn count<T: FromStr<Err: Display> + Default + PartialEq>(f: &str, v: &str) -> Result<T, String> {
    Some(num(f, v)?).filter(|n| *n != T::default()).ok_or(format!("{f}: must be at least 1"))
}

/// Parses a `<SECS>` value (fractional ok) the simulation clock can hold.
fn secs_flag(flag: &str, text: &str, zero_ok: bool) -> Result<Duration, String> {
    djson::checked_secs(flag, num(flag, text)?, zero_ok)
}

/// [`secs_flag`] for the attack schedule, which is whole seconds: the C&C
/// command line and `RunResult.attack_duration_secs` carry `as_secs()`.
fn whole_secs_flag(flag: &str, text: &str) -> Result<Duration, String> {
    djson::checked_secs(flag, num::<u64>(flag, text)? as f64, true)
}

/// Everything a simulation run needs from the command line.
#[derive(Default)]
struct RunOpts {
    /// The world and collection flags, applied over the CLI defaults.
    config: SimulationConfig,
    json: bool,
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
    /// First world-shaping flag seen: a suffix plan with an embedded config
    /// rejects it at run time (the file is only read then).
    world_flag: Option<&'static str>,
}

/// Stores a parsed flag value (the tail of most setters).
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

const RUN: &[Flag<RunOpts>] = &[
    Flag { name: "--devs", value: "N", class: World, help: "number of Devs (default 25)",
        set: |o, f, v| put(&mut o.config.devs, num(f, v)) },
    Flag { name: "--churn", value: "MODE", class: World,
        help: "none | static | dynamic (default none)",
        set: |o, _, v| put(&mut o.config.churn,
            ChurnMode::parse(v).ok_or(format!("unknown churn mode: {v}"))) },
    Flag { name: "--vector", value: "V", class: World,
        help: "udpplain | udp | syn | ack | greip (default udpplain)",
        set: |o, _, v| put(&mut o.config.attack.vector,
            AttackVector::parse(v).ok_or(format!("unknown vector: {v}"))) },
    Flag { name: "--duration", value: "SECS", class: World, help: "attack duration (default 100)",
        set: |o, f, v| put(&mut o.config.attack.duration, whole_secs_flag(f, v)) },
    Flag { name: "--attack-at", value: "SECS", class: World,
        help: "when the C&C issues the attack (default 60)",
        set: |o, f, v| put(&mut o.config.attack_at, whole_secs_flag(f, v)) },
    Flag { name: "--sim-time", value: "SECS", class: World,
        help: "simulation horizon (default 600)",
        set: |o, f, v| put(&mut o.config.sim_time, whole_secs_flag(f, v)) },
    Flag { name: "--payload", value: "BYTES", class: World,
        help: "flood payload size (default: vector default)",
        set: |o, f, v| put(&mut o.config.attack.payload_bytes, num(f, v).map(Some)) },
    Flag { name: "--access-rate", value: "LO-HI", class: World,
        help: "Dev uplink range in kbps (default 100-500)",
        set: |o, f, v| {
            let (lo, hi) = v.split_once('-').ok_or("expected LO-HI, e.g. 100-500")?;
            o.config.access_rate_kbps = num(f, lo)?..=num(f, hi)?;
            Ok(())
        } },
    Flag { name: "--recruitment", value: "R", class: World,
        help: "memory-error (default)\n| scanner:<cred-fraction>\n| worm:<cred-fraction>:<seeds>",
        set: |o, f, v| put(&mut o.config.recruitment,
            Recruitment::parse(v).map_err(|e| format!("{f} {e}"))) },
    Flag { name: "--topology", value: "T", class: World,
        help: "star (default) | wifi | tiered:<regions>:<uplink-bps>",
        set: |o, f, v| put(&mut o.config.topology,
            ddosim::TopologyKind::parse(v).map_err(|e| format!("{f} {e}"))) },
    Flag { name: "--reboot-rate", value: "R", class: World,
        help: "per-device reboots per minute (default 0)",
        set: |o, f, v| put(&mut o.config.reboot_rate_per_min, num(f, v)) },
    Flag { name: "--strategy", value: "S", class: World,
        help: "leak-rebase | static-chain | code-injection",
        set: |o, f, v| put(&mut o.config.strategy,
            ddosim::ExploitStrategy::parse(v).map_err(|e| format!("{f}: {e}"))) },
    Flag { name: "--faults", value: "FILE", class: World,
        help: "inject faults from a plan file (schema\nddosim.faults.plan/1; see DESIGN.md)",
        set: |o, _, v| put(&mut o.faults_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--seed", value: "N", class: World, help: "RNG seed (default 42)",
        set: |o, f, v| put(&mut o.config.seed, num(f, v)) },
    Flag { name: "--json", value: "", class: Output, help: "emit the full RunResult as JSON",
        set: |o, _, _| put(&mut o.json, Ok(true)) },
    Flag { name: "--record", value: "FILE", class: Output,
        help: "write the flight-recorder trace (JSON) to FILE:\n\
               the botnet's story; packets are in --capture",
        set: |o, _, v| {
            o.config.telemetry.record = true;
            put(&mut o.record_out, Ok(Some(v.to_owned())))
        } },
    Flag { name: "--capture", value: "FILE", class: Output,
        help: "write the packet capture (JSON) to FILE",
        set: |o, _, v| {
            o.config.telemetry.capture = true;
            put(&mut o.capture_out, Ok(Some(v.to_owned())))
        } },
    Flag { name: "--capture-filter", value: "EXPR", class: Collect,
        help: "keep only matching packets, e.g. \"udp port 80\"\n\
               (clauses: udp|tcp, port N, src IP, dst IP, host IP, node N)",
        set: |o, f, v| put(&mut o.config.telemetry.capture_filter,
            CaptureFilter::parse(v).map_err(|e| format!("{f}: {e}"))) },
    Flag { name: "--metrics-interval", value: "SECS", class: Collect,
        help: "sample time-series metrics every SECS (fractional ok)",
        set: |o, f, v| put(&mut o.config.telemetry.metrics_interval,
            secs_flag(f, v, false).map(Some)) },
    Flag { name: "--metrics-out", value: "FILE", class: Output,
        help: "metrics output file (default ddosim-metrics.json)",
        set: |o, _, v| put(&mut o.metrics_out, Ok(Some(v.to_owned()))) },
    Flag { name: "--checkpoint-at", value: "SECS", class: Mode,
        help: "snapshot the full world state when the run\n\
               crosses SECS (schema ddosim.checkpoint/1)",
        set: |o, f, v| put(&mut o.checkpoint_at, secs_flag(f, v, true).map(Some)) },
    Flag { name: "--checkpoint-out", value: "FILE", class: Output,
        help: "checkpoint output file (default ddosim-checkpoint.json)",
        set: |o, _, v| put(&mut o.checkpoint_out, Ok(Some(v.to_owned()))) },
    Flag { name: "--resume", value: "FILE", class: Mode,
        help: "continue a checkpointed run: the world is rebuilt\n\
               from the checkpoint's embedded configuration,\n\
               re-run to the snapshot time and verified against\n\
               the checkpoint's digests, so its outputs equal\n\
               the uninterrupted run's whole documents;\n\
               world-shaping flags (--devs, --seed, ...) are\n\
               rejected, output paths (--record, ...) are not",
        set: |o, _, v| put(&mut o.resume_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--scenario", value: "FILE", class: Mode,
        help: "run a declarative adversary-vs-defense scenario\n\
               (schema ddosim.scenario/1): one plan file composes\n\
               the world, attack schedule, fault plan, defense\n\
               deployments, and rival botnets; world-shaping\n\
               flags, --resume and --checkpoint-at are rejected\n\
               (the plan owns the world); collection flags\n\
               (--metrics-interval, --capture-filter), output\n\
               flags (--record, --json, ...) and --suffixes\n\
               still compose",
        set: |o, _, v| put(&mut o.scenario_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--suffixes", value: "FILE", class: Mode,
        help: "run a scenario tree (schema ddosim.suffix/1):\n\
               the world runs once to the fork point, is\n\
               deep-cloned in memory per suffix, and the forks\n\
               run their divergent futures in parallel; if the\n\
               plan embeds a config, world-shaping flags are\n\
               rejected; each fork's full trace (--record) and\n\
               packet capture (--capture) go to\n\
               <that flag's file stem>.<suffix name>.json",
        set: |o, _, v| put(&mut o.suffixes_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--fork-at", value: "SECS", class: Mode,
        help: "override the plan's fork point (requires\n--suffixes; fractional ok)",
        set: |o, f, v| put(&mut o.fork_at, secs_flag(f, v, true).map(Some)) },
    Flag { name: "--sweep-seeds", value: "N", class: Mode,
        help: "run the configured world N times with seeds\n\
               seed..seed+N-1, fanned out across the worker\n\
               pool; rows print in seed order (summary\n\
               lines, or NDJSON rows with --json) and the\n\
               exit code is non-zero if any run fails",
        set: |o, f, v| put(&mut o.sweep_seeds, count(f, v).map(Some)) },
    Flag { name: "--sweep-stream", value: "", class: Mode,
        help: "with --sweep-seeds: print each NDJSON row the\n\
               moment its run finishes (completion order);\n\
               rows are deterministic, so sorting a streamed\n\
               transcript reproduces the --json batch\n\
               output byte for byte",
        set: |o, _, _| put(&mut o.sweep_stream, Ok(true)) },
];

const SERVE: &[Flag<ServeOptions>] = &[
    Flag { name: "--listen", value: "ADDR", class: Mode,
        help: "bind address (default 127.0.0.1:0, an\nephemeral port)",
        set: |o, _, v| put(&mut o.listen, Ok(v.to_owned())) },
    Flag { name: "--idle-timeout", value: "SECS", class: Mode,
        help: "stop after SECS with no connections or jobs",
        set: |o, f, v| put(&mut o.idle_timeout, secs_flag(f, v, false).map(Some)) },
    Flag { name: "--workers", value: "N", class: Mode,
        help: "worker threads (default: sized from the host)",
        set: |o, f, v| put(&mut o.workers, count(f, v).map(Some)) },
];

/// Everything `ddosim submit` needs from the command line. Plan/config
/// files are read at run time, so parsing alone accepts any path.
#[derive(Default)]
struct SubmitCli {
    /// What goes on the wire; its `scenario`/`config` texts are read from
    /// the paths below when the command runs.
    req: SubmitOptions,
    scenario_path: Option<String>,
    config_path: Option<String>,
    record_out: Option<String>,
    json: bool,
}

const SUBMIT: &[Flag<SubmitCli>] = &[
    Flag { name: "--scenario", value: "FILE", class: Mode,
        help: "submit a ddosim.scenario/1 plan file",
        set: |o, _, v| put(&mut o.scenario_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--config", value: "FILE", class: Mode,
        help: "submit a resolved configuration document",
        set: |o, _, v| put(&mut o.config_path, Ok(Some(v.to_owned()))) },
    Flag { name: "--shutdown", value: "", class: Mode, help: "ask the server to drain and stop",
        set: |o, _, _| put(&mut o.req.shutdown, Ok(true)) },
    Flag { name: "--id", value: "NAME", class: Mode,
        help: "client-chosen job id (default: server-assigned)",
        set: |o, _, v| put(&mut o.req.id, Ok(Some(v.to_owned()))) },
    Flag { name: "--record", value: "FILE", class: Output,
        help: "stream flight-recorder events and write the\n\
               reassembled trace to FILE — byte-identical to\n\
               the same seed+plan run offline with --record",
        set: |o, _, v| {
            o.req.record = true;
            put(&mut o.record_out, Ok(Some(v.to_owned())))
        } },
    Flag { name: "--metrics-interval", value: "SECS", class: Collect,
        help: "stream time-series samples every SECS",
        set: |o, f, v| put(&mut o.req.metrics_interval_secs,
            secs_flag(f, v, false).map(|d| Some(d.as_secs_f64()))) },
    Flag { name: "--follow", value: "", class: Output,
        help: "print every raw frame line as it arrives",
        set: |o, _, _| put(&mut o.req.follow, Ok(true)) },
    Flag { name: "--json", value: "", class: Output, help: "print the final result as pretty JSON",
        set: |o, _, _| put(&mut o.json, Ok(true)) },
];

/// The one argv loop: applies each argument's [`Flag::set`], then checks
/// [`REQUIRES`] and [`RULES`] over the flags seen. Errors carry the
/// command's `prefix`. `Ok(None)` means `-h`/`--help` was met (only looked
/// for when `help_ok`); otherwise the flags seen, in argv order.
fn parse_flags<O>(
    prefix: &str, flags: &'static [Flag<O>], help_ok: bool, args: &[String], opts: &mut O,
) -> Result<Option<Vec<&'static Flag<O>>>, String> {
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if help_ok && (arg == "-h" || arg == "--help") {
            return Ok(None);
        }
        let flag = flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("{prefix}unknown option: {arg}"))?;
        let value = match flag.value {
            "" => "",
            _ => it.next().ok_or_else(|| format!("{prefix}{arg} requires a value"))?,
        };
        (flag.set)(opts, flag.name, value).map_err(|e| format!("{prefix}{e}"))?;
        seen.push(flag);
    }
    let has = |name: &str| seen.iter().any(|f| f.name == name);
    for (flag, needs) in REQUIRES {
        if has(flag) && !has(needs) {
            return Err(format!("{prefix}{flag} requires {needs}"));
        }
    }
    for rule in RULES.iter().filter(|r| has(r.mode)) {
        if let Some(flag) = seen.iter().find(|f| rule.refuses(f)) {
            return Err(format!(
                "{prefix}{} cannot be combined with {}: {}",
                flag.name, rule.mode, rule.reason
            ));
        }
    }
    Ok(Some(seen))
}

/// A parsed command line.
enum Cli {
    /// Show the usage text.
    Help,
    /// Run a simulation.
    Run(Box<RunOpts>),
    /// Compare two telemetry JSON files.
    TraceDiff { a: String, b: String },
    /// Run the long-running scenario server.
    Serve(ServeOptions),
    /// Submit one job (or a shutdown) to a running server.
    Submit(Box<SubmitCli>),
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("serve") => {
            let mut opts = ServeOptions::default();
            parse_flags("serve: ", SERVE, false, &args[1..], &mut opts)?;
            Ok(Cli::Serve(opts))
        }
        Some("submit") => {
            let Some(addr) = args.get(1).filter(|a| !a.starts_with('-')) else {
                return Err("usage: ddosim submit <ADDR> (--scenario <F> | --config <F> \
                            | --shutdown)".to_owned());
            };
            let mut cli = SubmitCli::default();
            cli.req.addr = addr.clone();
            parse_flags("submit: ", SUBMIT, false, &args[2..], &mut cli)?;
            // `--shutdown` already refused both; a job needs exactly one.
            if !cli.req.shutdown && cli.scenario_path.is_some() == cli.config_path.is_some() {
                return Err("submit: provide exactly one of --scenario, --config, or --shutdown"
                    .to_owned());
            }
            Ok(Cli::Submit(Box::new(cli)))
        }
        Some("trace") => match &args[1..] {
            [sub, a, b] if sub == "diff" => Ok(Cli::TraceDiff { a: a.clone(), b: b.clone() }),
            _ => Err("usage: ddosim trace diff <A.json> <B.json>".to_owned()),
        },
        _ => {
            let mut opts = RunOpts::default();
            opts.config.devs = 25;
            let Some(seen) = parse_flags("", RUN, true, args, &mut opts)? else {
                return Ok(Cli::Help);
            };
            opts.world_flag = seen.iter().find(|f| f.class == World).map(|f| f.name);
            // Cross-field checks (attack window inside the horizon, ...)
            // belong to the config; asking here reports them with the usage.
            opts.config.validate()?;
            if opts.checkpoint_at.is_some() && opts.checkpoint_out.is_none() {
                opts.checkpoint_out = Some("ddosim-checkpoint.json".to_owned());
            }
            if opts.config.telemetry.metrics_interval.is_some() && opts.metrics_out.is_none() {
                opts.metrics_out = Some("ddosim-metrics.json".to_owned());
            }
            Ok(Cli::Run(Box::new(opts)))
        }
    }
}

const USAGE_HEAD: &str = "\
ddosim — memory-error IoT botnet DDoS simulation (DSN'23 reproduction)

USAGE:
    ddosim [OPTIONS]
    ddosim trace diff <A.json> <B.json>
    ddosim serve [--listen <ADDR>] [--idle-timeout <SECS>] [--workers <N>]
    ddosim submit <ADDR> (--scenario <F> | --config <F> | --shutdown) [OPTIONS]

OPTIONS:
";

/// Appends one help row: `label` at `indent`, padded to the description
/// column (30); `help`'s continuation lines start at that column.
fn help_row(out: &mut String, indent: usize, label: &str, help: &str) {
    let mut label = format!("{:indent$}{label}", "");
    for line in help.lines() {
        out.push_str(&format!("{label:<29} {line}\n"));
        label.clear();
    }
}

/// Appends the help rows of a flag table.
fn flag_rows<O>(out: &mut String, indent: usize, flags: &[Flag<O>]) {
    for f in flags {
        let label = match f.value {
            "" => f.name.to_owned(),
            value => format!("{} <{value}>", f.name),
        };
        help_row(out, indent, &label, f.help);
    }
}

/// The `--help` text, rendered from the flag tables.
fn usage() -> String {
    let mut out = USAGE_HEAD.to_owned();
    flag_rows(&mut out, 4, RUN);
    help_row(&mut out, 4, "-h, --help", "show this help");
    out.push_str("\nSUBCOMMANDS:\n");
    help_row(
        &mut out, 4, "trace diff <A> <B>",
        "compare two telemetry JSON files entry by entry;\n\
         exit 0 if identical, print the first diverging\n\
         entry and exit 1 otherwise",
    );
    help_row(
        &mut out, 4, "serve",
        "long-running scenario server: accepts\n\
         ddosim.serve/1 NDJSON requests over TCP and\n\
         streams per-job frames (accepted/started, live\n\
         flight-recorder events, time-series samples, the\n\
         final deterministic result) to each client;\n\
         prints \"listening on ADDR\" once bound",
    );
    flag_rows(&mut out, 8, SERVE);
    help_row(
        &mut out, 4, "submit <ADDR>",
        "submit one job (or a shutdown) to a running\n\
         server and consume its frame stream; exits\n\
         non-zero if the server rejects or fails the job",
    );
    flag_rows(&mut out, 8, SUBMIT);
    out
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

/// The configuration the world and collection flags describe, fault plan loaded.
fn cli_config(opts: &RunOpts) -> Result<SimulationConfig, String> {
    let mut config = opts.config.clone();
    if let Some(path) = &opts.faults_path {
        config.faults = ddosim::FaultPlan::parse_plan(&read_file(path)?)?;
    }
    Ok(config)
}

/// Builds the world a run-mode command line describes: the one place `run`,
/// the scenario tree and (through [`cli_config`]) the sweep get theirs. One
/// source owns it — the `--resume` checkpoint, the `--scenario` plan, the
/// suffix plan's `embedded` configuration, or the world flags ([`RULES`]
/// refused any mix). Plans and embedded configurations go through
/// [`JobSpec::build`], the call a `serve` job makes, CLI telemetry on top.
fn build_world(opts: &RunOpts, embedded: Option<SimulationConfig>) -> Result<Ddosim, String> {
    let telemetry = opts.config.telemetry.clone();
    let mut world = if let Some(path) = &opts.resume_path {
        Ddosim::resume_from(ddosim::Checkpoint::parse(&read_file(path)?)?)?
    } else if let Some(path) = &opts.scenario_path {
        let plan = ddosim::scenario::ScenarioPlan::parse(&read_file(path)?)?;
        JobSpec::Scenario(plan).build(telemetry)?
    } else if let Some(config) = embedded {
        JobSpec::Config(config).build(telemetry)?
    } else {
        Ddosim::new(cli_config(opts)?)?
    };
    if let Some(at) = opts.checkpoint_at {
        world.set_checkpoint_at(at);
    }
    Ok(world)
}

/// Runs a scenario tree: one shared prefix to the fork point, then every
/// suffix on an in-memory fork, fanned out across the worker pool.
fn run_scenario_tree(opts: &RunOpts) -> Result<(), String> {
    let path = opts.suffixes_path.as_deref().expect("checked by the caller");
    let mut plan = ddosim::SuffixPlan::parse(&read_file(path)?)?;
    if let Some(at) = opts.fork_at {
        plan.fork_at = at;
    }
    if plan.suffixes.is_empty() {
        return Err(format!("suffix plan {path} has no suffixes"));
    }
    let embedded = plan.config.take();
    if embedded.is_some() {
        if let Some(sp) = &opts.scenario_path {
            return Err(format!(
                "--scenario {sp} cannot be combined with a suffix plan that \
                 embeds a configuration: exactly one of them must own the world"
            ));
        }
        if let Some(flag) = opts.world_flag {
            return Err(format!(
                "{flag} cannot be combined with --suffixes when the plan \
                 embeds a configuration: the world is built exactly from \
                 the plan (output paths such as --record are still allowed)"
            ));
        }
    }
    let mut world = build_world(opts, embedded)?;
    world.run_prefix(plan.fork_at)?;
    let outcomes = ddosim::run_suffixes_streamed(&world, &plan.suffixes, |_, _| {});
    let mut rows = Vec::new();
    for (spec, outcome) in plan.suffixes.iter().zip(&outcomes) {
        if let Ok(o) = outcome {
            for (base, doc, what) in [
                (&opts.record_out, &o.trace, "flight recorder"),
                (&opts.capture_out, &o.capture, "packet capture"),
            ] {
                if let Some(base) = base {
                    write_doc(&suffix_record_path(base, &spec.name), doc.clone(), what)?;
                }
            }
        }
        if opts.json {
            let payload = match outcome {
                Ok(o) => ("result", djson::ToJson::to_json(&o.result)),
                Err(msg) => ("error", djson::Json::Str(msg.clone())),
            };
            rows.push(djson::Json::obj([("name", djson::Json::Str(spec.name.clone())), payload]));
        } else {
            match outcome {
                Ok(o) => println!("{}: {}", spec.name, summary_line(&o.result)),
                Err(msg) => println!("{}: error: {msg}", spec.name),
            }
        }
    }
    if opts.json {
        println!("{}", djson::Json::Arr(rows).to_string_pretty());
    }
    let failures = outcomes.iter().filter(|o| o.is_err()).count();
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
fn run_sweep(opts: &RunOpts) -> Result<(), String> {
    let n = opts.sweep_seeds.expect("checked by the caller");
    let base = cli_config(opts)?;
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
        if opts.sweep_stream {
            println!("{}", row_line(i, outcome));
        }
    });
    if !opts.sweep_stream {
        for (i, outcome) in outcomes.iter().enumerate() {
            if opts.json {
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

fn run(opts: &RunOpts) -> Result<(), String> {
    if opts.sweep_seeds.is_some() {
        return run_sweep(opts);
    }
    if opts.suffixes_path.is_some() {
        return run_scenario_tree(opts);
    }
    let instance = build_world(opts, None)?;
    // Clones share the collectors, so the handle stays readable after
    // `try_run_to_completion` consumes the instance.
    let tele = instance.telemetry().clone();
    let (result, saved) = instance.try_run_to_completion()?;
    if let Some(cp) = saved {
        let path = opts.checkpoint_out.as_deref().unwrap_or("ddosim-checkpoint.json");
        std::fs::write(path, cp.to_string_pretty() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("checkpoint written to {path}");
    }
    if let Some(path) = &opts.record_out {
        write_doc(path, tele.recorder_json(), "flight recorder")?;
    }
    if let Some(path) = &opts.capture_out {
        write_doc(path, tele.capture_json(), "packet capture")?;
    }
    if let Some(path) = &opts.metrics_out {
        write_doc(path, tele.metrics_json(), "metrics")?;
    }
    if opts.json {
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
fn run_serve(opts: ServeOptions) -> Result<(), String> {
    let server = ddosim::serve::Server::bind(opts)?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()
}

/// Submits one job (or a shutdown) and reports its outcome.
fn run_submit(mut cli: SubmitCli) -> Result<(), String> {
    cli.req.scenario = cli.scenario_path.as_deref().map(read_file).transpose()?;
    cli.req.config = cli.config_path.as_deref().map(read_file).transpose()?;
    match ddosim::serve::submit(&cli.req)? {
        SubmitOutcome::ShutdownAcknowledged => {
            eprintln!("server acknowledged shutdown");
            Ok(())
        }
        SubmitOutcome::Completed { job, result, trace, events_streamed, metrics_samples } => {
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
            print!("{}", usage());
            Ok(())
        }
        Ok(Cli::TraceDiff { a, b }) => return trace_diff(&a, &b),
        Ok(Cli::Serve(opts)) => run_serve(opts),
        Ok(Cli::Submit(cli)) => run_submit(*cli),
        Ok(Cli::Run(opts)) => run(&opts),
        Err(msg) => Err(format!("{msg}\n\n{}", usage())),
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
            // Whole-seconds flags are bounded by the simulation clock, and
            // the attack window by the horizon, before anything is built.
            (&["--duration", "18446744073709551615"], "--duration must be"),
            (&["--attack-at", "18446744073709551615"], "--attack-at must be"),
            (&["--sim-time", "18446744073709551615"], "--sim-time must be"),
            (&["--duration", "2.5"], "--duration"),
            (
                &["--attack-at", "18446744073", "--duration", "18446744073"],
                "exceeds the simulation horizon",
            ),
            // A tree or a sweep refuses what it would otherwise discard.
            (
                &["--suffixes", "p.json", "--capture-filter", "udp"],
                "--capture-filter cannot be combined with --suffixes",
            ),
            (
                &["--sweep-seeds", "4", "--metrics-out", "m.json"],
                "--metrics-out cannot be combined with --sweep-seeds",
            ),
            (
                &["--sweep-seeds", "4", "--capture-filter", "udp"],
                "--capture-filter cannot be combined with --sweep-seeds",
            ),
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
        let config = &opts.config;
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
        assert!(opts.config.faults.is_empty(), "plan loads later");
    }

    #[test]
    fn telemetry_flags_build_the_config() {
        let opts = run_opts(&[
            "--record", "rec.json",
            "--capture", "cap.json",
            "--capture-filter", "udp port 80",
            "--metrics-interval", "2.5",
        ]);
        let t = &opts.config.telemetry;
        assert!(t.record && t.capture);
        assert_eq!(t.capture_filter.proto, Some("udp"));
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
        let opts = run_opts(&[
            "--suffixes", "plan.json", "--fork-at", "12.5", "--record", "t.json", "--capture",
            "c.json",
        ]);
        assert_eq!(opts.suffixes_path.as_deref(), Some("plan.json"));
        assert_eq!(opts.fork_at, Some(Duration::from_secs_f64(12.5)));
        assert_eq!(opts.record_out.as_deref(), Some("t.json"));
        assert_eq!(opts.capture_out.as_deref(), Some("c.json"));
        assert!(opts.config.telemetry.capture);
        assert_eq!(opts.world_flag, None);
        // World flags parse fine — a plan *without* an embedded config
        // uses them; run time rejects them otherwise.
        let opts = run_opts(&["--devs", "6", "--suffixes", "plan.json"]);
        assert_eq!(opts.world_flag, Some("--devs"));
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
        // The plan owns the world, not what is collected from it.
        let opts = run_opts(&[
            "--scenario", "p.json", "--metrics-interval", "5", "--metrics-out", "m.json",
            "--capture", "c.json", "--capture-filter", "udp",
        ]);
        let t = &opts.config.telemetry;
        assert_eq!(t.metrics_interval, Some(Duration::from_secs(5)));
        assert_eq!(t.capture_filter.proto, Some("udp"));
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn sweep_flags_parse_and_compose_with_world_flags() {
        // World flags shape the base config that every sweep row clones;
        // only output/state flags conflict.
        let opts = run_opts(&["--devs", "8", "--sweep-seeds", "5", "--sweep-stream", "--json"]);
        assert_eq!(opts.sweep_seeds, Some(5));
        assert!(opts.sweep_stream);
        assert!(opts.json);
        assert_eq!(opts.config.devs, 8);
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
        assert_eq!(opts.config.topology, ddosim::TopologyKind::Wifi);
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
        assert_eq!(cli.req.addr, "127.0.0.1:47001");
        assert_eq!(cli.scenario_path.as_deref(), Some("plan.json"));
        assert_eq!(cli.config_path, None);
        assert!(!cli.req.shutdown);
        assert_eq!(cli.req.id.as_deref(), Some("a1"));
        assert_eq!(cli.record_out.as_deref(), Some("t.json"));
        assert_eq!(cli.req.metrics_interval_secs, Some(5.0));
        assert!(cli.req.follow && cli.json);
        let cli = match parse(&["submit", "127.0.0.1:47001", "--shutdown"]) {
            Ok(Cli::Submit(cli)) => cli,
            _ => panic!("submit --shutdown did not parse"),
        };
        assert!(cli.req.shutdown);
        let cli = match parse(&["submit", "127.0.0.1:47001", "--config", "c.json"]) {
            Ok(Cli::Submit(cli)) => cli,
            _ => panic!("submit --config did not parse"),
        };
        assert_eq!(cli.config_path.as_deref(), Some("c.json"));
    }

    /// A value that parses for `flag`, so a generated argv gets past the
    /// setters and reaches the rule checks.
    fn sample<O>(flag: &Flag<O>) -> &'static str {
        match (flag.name, flag.value) {
            ("--churn", _) => "static",
            ("--vector" | "--capture-filter", _) => "udp",
            ("--recruitment", _) => "memory-error",
            ("--topology", _) => "wifi",
            ("--strategy", _) => "leak-rebase",
            ("--access-rate", _) => "100-200",
            (_, "N" | "SECS" | "BYTES" | "R") => "5",
            _ => "x",
        }
    }

    /// `name`'s row as argv words: the flag, plus a sample value if it
    /// takes one.
    fn words<O>(flags: &'static [Flag<O>], name: &str) -> Vec<&'static str> {
        let flag = flags.iter().find(|f| f.name == name).expect("a flag of this command");
        match flag.value {
            "" => vec![flag.name],
            _ => vec![flag.name, sample(flag)],
        }
    }

    fn error_of(args: &[&str]) -> String {
        match parse(args) {
            Err(msg) => msg,
            Ok(_) => panic!("args {args:?} unexpectedly accepted"),
        }
    }

    /// Sums a generic check over the three commands; a check takes the
    /// argv words that select the command, its error prefix and its table,
    /// and returns how many cases it covered.
    macro_rules! each_command {
        ($check:ident) => {
            $check(&[], "", RUN)
                + $check(&["serve"], "serve: ", SERVE)
                + $check(&["submit", "127.0.0.1:1"], "submit: ", SUBMIT)
        };
    }

    #[test]
    fn a_value_flag_given_last_requires_a_value() {
        fn check<O>(lead: &[&str], prefix: &str, flags: &'static [Flag<O>]) -> usize {
            let takes_value = flags.iter().filter(|f| !f.value.is_empty());
            takes_value
                .map(|f| {
                    let msg = error_of(&[lead, &[f.name]].concat());
                    assert_eq!(msg, format!("{prefix}{} requires a value", f.name));
                })
                .count()
        }
        assert_eq!(each_command!(check), 26 + 3 + 5);
    }

    #[test]
    fn every_rule_refuses_each_of_its_members_naming_both() {
        fn check<O>(lead: &[&str], prefix: &str, flags: &'static [Flag<O>]) -> usize {
            let mut pairs = 0;
            for rule in RULES.iter().filter(|r| flags.iter().any(|f| f.name == r.mode)) {
                for member in flags.iter().filter(|f| rule.refuses(f)) {
                    // A prerequisite goes last: the message names the first
                    // refused flag in argv order.
                    let needs = REQUIRES.iter().find(|(flag, _)| *flag == member.name);
                    let needs = needs.map_or(vec![], |(_, needs)| words(flags, needs));
                    let pair = [words(flags, rule.mode), words(flags, member.name), needs];
                    let msg = error_of(&[lead, &pair.concat()].concat());
                    let names_both =
                        format!("{prefix}{} cannot be combined with {}: ", member.name, rule.mode);
                    assert!(msg.starts_with(&names_both), "{msg:?} lacks {names_both:?}");
                    pairs += 1;
                }
            }
            pairs
        }
        // --resume 16, --scenario 16, --suffixes 6, --sweep-seeds 10; --shutdown 6.
        assert_eq!(each_command!(check), 48 + 6);
    }

    #[test]
    fn every_requires_pair_alone_is_refused() {
        fn check<O>(lead: &[&str], prefix: &str, flags: &'static [Flag<O>]) -> usize {
            let here = REQUIRES.iter().filter(|(flag, _)| flags.iter().any(|f| f.name == *flag));
            here.map(|(flag, needs)| {
                let msg = error_of(&[lead, &words(flags, flag)[..]].concat());
                assert_eq!(msg, format!("{prefix}{flag} requires {needs}"));
            })
            .count()
        }
        assert_eq!(each_command!(check), REQUIRES.len());
    }

    #[test]
    fn help_lists_every_flag_with_its_placeholder() {
        fn assert_listed<O>(section: &str, indent: usize, flags: &[Flag<O>]) {
            for f in flags {
                let row = match f.value {
                    "" => format!("{:indent$}{} ", "", f.name),
                    value => format!("{:indent$}{} <{value}> ", "", f.name),
                };
                assert!(section.lines().any(|l| l.starts_with(&row)), "no help row {row:?}");
            }
        }
        let usage = usage();
        let (run, rest) = usage.split_once("SUBCOMMANDS:").expect("two sections");
        let (serve, submit) = rest.split_once("    submit <ADDR>").expect("submit follows serve");
        assert_listed(run, 4, RUN);
        assert_listed(serve, 8, SERVE);
        assert_listed(submit, 8, SUBMIT);
        assert_eq!((RUN.len(), SERVE.len(), SUBMIT.len()), (28, 3, 8));
    }

    /// A change to the help text shows up in review as a diff of the golden.
    #[test]
    fn help_matches_the_golden() {
        assert_eq!(usage(), include_str!("../tests/golden/help.txt"));
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&["-h"]), Ok(Cli::Help)));
        assert!(matches!(parse(&["--devs", "3", "--help"]), Ok(Cli::Help)));
    }
}
