//! Structured fuzz of every input surface (ROADMAP item 5b): the seven
//! documents' parsers, the recorder-event reader (`event` frames, trace
//! files) and `djson` under them survive hostile input.
//!
//! Seeds are the 13 checked-in `plans/*` and one each of a checkpoint, a
//! suffix plan, a fault plan, a world document, a recorder event and two
//! `serve` submit lines (a checked-in plan, and a world document's
//! `world`/`attack`/`faults` submitted as a plan), all printed by the
//! product. Three properties:
//!
//! * a mutated seed — a key deleted, renamed or duplicated; a value
//!   replaced by a wrong-typed, negative, huge or empty one; the text
//!   truncated; the document wrapped in arrays — makes its parser return,
//!   never panic or abort;
//! * every `Err` says where: a byte offset, a member path or a quoted name;
//! * print ∘ parse ∘ print is the identity on every unmutated seed.

use ddosim::world;
use ddosim::scenario::{ScenarioPlan, SweepGridPlan};
use ddosim::serve::protocol::parse_request;
use ddosim::serve::SubmitOptions;
use ddosim::{
    Checkpoint, Ddosim, FaultEvent, FaultKind, FaultPlan, Recruitment, SimulationConfig,
    SuffixPlan, SuffixSpec, TopologyKind,
};
use djson::{Json, ToJson};
use proptest::prelude::*;
use std::io::BufRead as _;
use std::sync::OnceLock;
use std::time::Duration;
use telemetry::{Category, Event};

/// A checkpoint file first written by a build of the commit before the
/// one reader, rewritten by the build whose event queue
/// stopped recording its sweeps (which changed its `events_recorded`,
/// 664 → 648, and its `netsim.stats` digest, nothing else), again by
/// the build whose recorder stopped recording packets (`events_recorded`
/// 648 → 118, nothing else), and again by the build whose `config` became
/// the world document (`crates/core/src/world.rs`: the configuration's
/// spelling and the schema tag, `ddosim.checkpoint/1` → `/2`, no digest or
/// count), and again by the build whose routers resolve through an exact
/// route index (the route epoch left the `netsim.nodes` digest, nothing
/// else moved). Each build writes its own version, byte
/// for byte, with
///
/// ```text
/// ddosim --devs 6 --attack-at 20 --duration 15 --sim-time 45 --seed 7 \
///     --faults F --record R --capture C --capture-filter "udp port 80" \
///     --metrics-interval 1 --metrics-out M --checkpoint-at 28 --checkpoint-out OUT
/// ```
///
/// where `F` is this plan:
///
/// ```text
/// { "schema": "ddosim.faults.plan/1", "seed": 3, "faults": [
///     { "at_secs": 15, "kind": "link_down", "node": "dev-2" },
///     { "at_secs": 25, "kind": "link_up", "node": "dev-2" },
///     { "at_secs": 22, "kind": "link_loss", "node": "dev-1", "probability": 0.25 },
///     { "at_secs": 30, "kind": "cnc_outage", "duration_secs": 4.5 } ] }
/// ```
const PARENT_CHECKPOINT: &str = include_str!("fixtures/checkpoint_parent.json");

/// One input surface: a name for failure messages and its front door,
/// errors rendered the way a user sees them.
type Parser = (&'static str, fn(&str) -> Result<(), String>);

const PARSERS: [Parser; 9] = [
    ("djson", |t| Json::parse(t).map(drop).map_err(|e| e.to_string())),
    ("scenario", |t| ScenarioPlan::parse(t).map(drop).map_err(String::from)),
    ("sweepgrid", |t| SweepGridPlan::parse(t).map(drop).map_err(String::from)),
    ("faults", |t| FaultPlan::parse_plan(t).map(drop).map_err(String::from)),
    ("suffix", |t| SuffixPlan::parse(t).map(drop).map_err(String::from)),
    ("checkpoint", |t| Checkpoint::parse(t).map(drop).map_err(String::from)),
    ("config", |t| {
        let json = Json::parse(t).map_err(|e| e.to_string())?;
        world::from_json(&json).map(drop).map_err(String::from)
    }),
    ("serve", |t| parse_request(t).map(drop)),
    ("event", |t| {
        let json = Json::parse(t).map_err(|e| e.to_string())?;
        Event::from_json(&json).map(drop).map_err(|e| e.to_string())
    }),
];

fn parser(name: &str) -> Parser {
    *PARSERS.iter().find(|(n, _)| *n == name).expect("a known parser")
}

/// A configuration that exercises every optional shape the document has.
fn busy_config() -> SimulationConfig {
    let mut config = SimulationConfig { devs: 5, seed: 11, ..SimulationConfig::default() };
    config.topology = TopologyKind::Tiered { regions: 2, region_uplink_bps: 10_000_000 };
    config.attack.payload_bytes = Some(256);
    config.admin_script = vec![(Duration::from_secs(80), "stop".to_owned())];
    config.telemetry.metrics_interval = Some(Duration::from_secs(1));
    config.rng = ddosim::RngPlan::pinned(7);
    config.faults = busy_faults();
    config
}

fn busy_faults() -> FaultPlan {
    let at = Duration::from_secs;
    FaultPlan {
        seed: 9,
        faults: vec![
            FaultEvent { at: at(20), kind: FaultKind::LinkLoss { node: "dev-1".into(), probability: 0.25 } },
            FaultEvent { at: at(25), kind: FaultKind::CncOutage { duration: Some(at(15)) } },
            FaultEvent { at: at(30), kind: FaultKind::NodeCrash { node: "dev-2".into() } },
        ],
    }
}

/// The request line `ddosim submit` writes for `opts`, read off a
/// loopback socket (the client prints it nowhere else).
fn submit_line(opts: SubmitOptions) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let client = std::thread::spawn(move || ddosim::serve::submit(&SubmitOptions { addr, ..opts }));
    let (stream, _) = listener.accept().expect("the client connects");
    let mut line = String::new();
    std::io::BufReader::new(stream).read_line(&mut line).expect("the client writes its request");
    // The stream is dropped without an answer: the client reports that.
    client.join().expect("client thread").expect_err("nobody answered");
    line.trim_end().to_owned()
}

/// `(parser, text)` for every seed, built once.
fn seeds() -> &'static [(Parser, String)] {
    static SEEDS: OnceLock<Vec<(Parser, String)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mut seeds = Vec::new();
        let mut plans: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/plans"))
            .expect("plans/")
            .map(|entry| entry.expect("dir entry").path())
            .collect();
        plans.sort();
        assert_eq!(plans.len(), 13, "every checked-in plan is a seed");
        for path in plans {
            let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name");
            let kind = if name.ends_with(".sweep.json") { "sweepgrid" } else { "scenario" };
            seeds.push((parser(kind), std::fs::read_to_string(&path).expect("readable plan")));
        }
        let checkpoint = Checkpoint {
            at: Duration::from_secs(30),
            config: busy_config(),
            digests: vec![("netsim.queue".into(), 7), ("firmware".into(), u64::MAX)],
            events_recorded: 123,
        };
        let suffixes = SuffixPlan {
            fork_at: Duration::from_secs(30),
            suffixes: vec![
                SuffixSpec::identity("baseline"),
                SuffixSpec {
                    name: "late-outage".to_owned(),
                    fork_seed: 7,
                    faults: busy_faults(),
                    admin_lines: vec![(Duration::from_secs(42), "status".to_owned())],
                    horizon: Some(Duration::from_secs(90)),
                },
            ],
            config: Some(busy_config()),
        };
        seeds.push((parser("checkpoint"), checkpoint.to_string_pretty()));
        seeds.push((parser("checkpoint"), PARENT_CHECKPOINT.trim_end().to_owned()));
        seeds.push((parser("suffix"), suffixes.to_string_pretty()));
        seeds.push((parser("faults"), busy_faults().to_doc()));
        seeds.push((parser("config"), world::to_json(&busy_config()).to_string_pretty()));
        let plan = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/plans/layered_defense.scenario.json"
        ))
        .expect("readable plan");
        seeds.push((
            parser("serve"),
            submit_line(SubmitOptions {
                scenario: Some(plan),
                id: Some("job-7".to_owned()),
                record: true,
                metrics_interval_secs: Some(2.5),
                ..SubmitOptions::default()
            }),
        ));
        let Json::Obj(members) = world::to_json(&busy_config()) else { unreachable!() };
        let mut busy_plan = vec![
            ("schema".to_owned(), Json::Str("ddosim.scenario/1".to_owned())),
            ("name".to_owned(), Json::Str("busy".to_owned())),
        ];
        busy_plan.extend(members.into_iter().take(3));
        seeds.push((
            parser("serve"),
            submit_line(SubmitOptions {
                scenario: Some(Json::Obj(busy_plan).to_string_compact()),
                ..SubmitOptions::default()
            }),
        ));
        let event = Event {
            time_nanos: 28_000_000_000,
            seq: 70_001,
            node: Some(3),
            category: Category::TcpRetransmit,
            detail: "conn 2 rto fired for seq 1".to_owned(),
        };
        seeds.push((parser("event"), event.to_json().to_string_compact()));
        seeds
    })
}

/// Paths (child indices from the root) of every object member and array
/// element in `json`.
fn slots(json: &Json, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Json> = match json {
        Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
        Json::Arr(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        out.push(here.clone());
        slots(child, here, out);
        here.pop();
    }
}

fn container_mut<'a>(json: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(json, |at, &i| match at {
        Json::Obj(members) => &mut members[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("slots only descends containers"),
    })
}

/// What the value mutation puts in a slot: as text, so that what `djson`
/// itself must refuse (`1e400` is no finite number, `007` no number) gets
/// into a document too.
const REPLACEMENTS: [&str; 9] =
    ["null", "-1", "18446744073709551615", "1e308", "\"\"", "[]", "{}", "1e400", "007"];

/// A string no seed holds: the slot a replacement's text is spliced into
/// once the mutated tree is printed.
const SPLICE: &str = "\u{1}splice\u{1}";

/// Applies structural mutation `kind` (0 delete, 1 rename, 2 duplicate,
/// 3.. replace) at the slot `pick` selects; returns the mutated document
/// as text and what it touched.
fn mutate(mut doc: Json, kind: usize, pick: usize) -> (String, String) {
    let mut all = Vec::new();
    slots(&doc, &mut Vec::new(), &mut all);
    let path = &all[pick % all.len()];
    let (&index, parents) = path.split_last().expect("slot paths are non-empty");
    let splice = || Json::Str(SPLICE.to_owned());
    let what = match container_mut(&mut doc, parents) {
        Json::Obj(members) => {
            let key = members[index].0.clone();
            match kind {
                0 => drop(members.remove(index)),
                1 => members[index].0.push_str("_x"),
                2 => members.push(members[index].clone()),
                _ => members[index].1 = splice(),
            }
            format!("kind {kind} at member '{key}'")
        }
        Json::Arr(items) => {
            match kind {
                0 => drop(items.remove(index)),
                1 | 2 => items.push(items[index].clone()),
                _ => items[index] = splice(),
            }
            format!("kind {kind} at element {index}")
        }
        _ => unreachable!("slots only descends containers"),
    };
    // Kinds 0–2 left no slot behind, so the splice is a no-op for them.
    let replacement = REPLACEMENTS[kind.saturating_sub(3) % REPLACEMENTS.len()];
    (doc.to_string_compact().replace(&splice().to_string_compact(), replacement), what)
}

/// Whether an error message says where the problem is: a byte offset, a
/// member path (`scenario.world.devs`, `fault #3`), a quoted name, or the
/// document itself (`request must be an object`).
fn names_a_place(message: &str) -> bool {
    let bytes = message.as_bytes();
    let path = bytes.windows(3).any(|w| {
        (w[0].is_ascii_lowercase() && w[1] == b'.' && w[2].is_ascii_lowercase())
            || (w[0] == b' ' && w[1] == b'#' && w[2].is_ascii_digit())
    });
    message.contains(" at byte ")
        || message.contains('\'')
        || path
        || message.ends_with(" must be an object")
}

/// `SimulationConfig::validate` judges the composed world, not a member,
/// and a scenario parser hands its verdict on as it is. Recognised by
/// asking the validator for the verdicts a mutated plan can reach (a
/// deleted horizon, a deleted Dev count under worm seeds, more Devs than
/// the address plan holds), figures aside.
fn is_world_verdict(message: &str) -> bool {
    let figures_aside = |s: &str| s.replace(|c: char| c.is_ascii_digit(), "");
    let spoils: [fn(&mut SimulationConfig); 3] = [
        |c| c.sim_time = Duration::ZERO,
        |c| c.devs = usize::MAX,
        |c| {
            c.recruitment =
                Recruitment::SelfPropagating { default_credential_fraction: 0.5, seeds: usize::MAX }
        },
    ];
    spoils.iter().any(|spoil| {
        let mut config = SimulationConfig::default();
        spoil(&mut config);
        let verdict = config.validate().expect_err("a spoiled configuration");
        figures_aside(message).ends_with(&figures_aside(&verdict))
    })
}

fn check(parser: Parser, text: &str, what: &str) {
    let (name, parse) = parser;
    if let Err(message) = parse(text) {
        assert!(
            names_a_place(&message) || is_world_verdict(&message),
            "{name} ({what}): error does not say where: {message}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    /// Properties one and two, over ≥ 10,000 mutated documents.
    #[test]
    fn mutated_documents_are_parsed_or_refused_with_a_place(
        seed in any::<usize>(),
        mutation in 0usize..15,
        pick in any::<usize>(),
    ) {
        let (parser, text) = &seeds()[seed % seeds().len()];
        match mutation {
            // Truncated at a random byte (moved back onto a char boundary).
            12 => {
                let mut cut = pick % text.len();
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                check(*parser, &text[..cut], &format!("cut at {cut}"));
            }
            // Wrapped in k levels of array, on both sides of djson's cap.
            13 | 14 => {
                let k = 1 + pick % if mutation == 13 { 4 } else { 300 };
                let wrapped = format!("{}{text}{}", "[".repeat(k), "]".repeat(k));
                check(*parser, &wrapped, &format!("wrapped {k} deep"));
            }
            kind => {
                let doc = Json::parse(text).expect("seeds are valid JSON");
                let (mutated, what) = mutate(doc, kind, pick);
                check(*parser, &mutated, &what);
            }
        }
    }
}

/// Every seed is valid for its own parser, and refused — with a place —
/// by every other (`djson` takes them all).
#[test]
fn seeds_parse_where_they_belong_and_nowhere_else() {
    for ((name, parse), text) in seeds() {
        parse(text).unwrap_or_else(|e| panic!("{name} seed refused: {e}"));
        for other in PARSERS {
            if other.0 != *name && other.0 != "djson" {
                let err = (other.1)(text).expect_err("a foreign document");
                assert!(names_a_place(&err), "{} on a {name} seed: {err}", other.0);
            }
        }
    }
}

/// A node index is 32 bits: `4294967297` used to parse as node 1.
#[test]
fn an_event_node_that_does_not_fit_is_refused_by_name() {
    let (parser, text) = seeds().last().expect("the event seed");
    assert_eq!(parser.0, "event");
    for node in ["4294967296", "4294967297", "18446744073709551615"] {
        let hostile = text.replace(r#""node":3"#, &format!(r#""node":{node}"#));
        assert_ne!(&hostile, text);
        let err = (parser.1)(&hostile).expect_err("no such node");
        assert!(err.contains("event.node"), "{err}");
    }
}

/// A trace written before the event queue stopped sweeping holds
/// `queue_sweep` records, and one written before packets left the
/// recorder holds `link_drop` records: each category is refused by name,
/// so `trace diff` on such a file says which.
#[test]
fn an_event_of_a_retired_category_is_refused_by_name() {
    let (parser, text) = seeds().last().expect("the event seed");
    for retired in ["queue_sweep", "link_drop"] {
        let old = text.replace(r#""cat":"tcp_retransmit""#, &format!(r#""cat":"{retired}""#));
        assert_ne!(&old, text);
        let err = (parser.1)(&old).expect_err("no such category");
        assert!(err.contains(&format!(r#"unknown event category "{retired}""#)), "{err}");
    }
}

/// Property three, for each of the four printers and for `djson` itself.
#[test]
fn print_parse_print_is_the_identity_on_every_seed() {
    for ((name, _), text) in seeds() {
        let json = Json::parse(text).expect("seeds are valid JSON");
        for printed in [json.to_string_compact(), json.to_string_pretty()] {
            assert_eq!(Json::parse(&printed).expect("djson reads what it writes"), json);
        }
        let reprinted = match *name {
            "checkpoint" => Checkpoint::parse(text).expect("parses").to_string_pretty(),
            "suffix" => SuffixPlan::parse(text).expect("parses").to_string_pretty(),
            "faults" => FaultPlan::parse_plan(text).expect("parses").to_doc(),
            "config" => world::to_json(&world::from_json(&json).expect("parses")).to_string_pretty(),
            // Scenario, grid and request documents are only ever read.
            _ => continue,
        };
        assert_eq!(&reprinted, text, "{name}: print ∘ parse ∘ print");
    }
    // An embedded fault plan is printed by the same `to_json`.
    let plan = busy_faults();
    assert_eq!(FaultPlan::from_json(&plan.to_json()).expect("parses"), plan);
}

/// The checkpoint fixture still parses, reprints to the same bytes and
/// resumes: the verified re-run reaches the snapshot
/// with every layer digest matching, then runs on to the horizon.
#[test]
fn a_checkpoint_written_by_the_parent_commit_still_parses_and_resumes() {
    let checkpoint = Checkpoint::parse(PARENT_CHECKPOINT).expect("the parent's file parses");
    assert_eq!(checkpoint.to_string_pretty() + "\n", PARENT_CHECKPOINT, "same bytes back");
    assert_eq!(checkpoint.at, Duration::from_secs(28));
    assert_eq!(checkpoint.config.faults.faults.len(), 4);
    let world = Ddosim::resume_from(checkpoint).expect("digests match at the snapshot");
    let result = world.run_to_completion();
    assert_eq!((result.devs, result.infected), (6, 6));
    assert_eq!(result.flood_packets_received, 532, "what the parent's own resume printed");
}

/// A checkpoint written before the world document carries the old tag and
/// is refused by it, not by whichever member its old spelling trips first.
#[test]
fn a_checkpoint_of_the_old_schema_is_refused_as_a_schema_mismatch() {
    let old = PARENT_CHECKPOINT.replace(ddosim::CHECKPOINT_SCHEMA, "ddosim.checkpoint/1");
    let err = Checkpoint::parse(&old).expect_err("the old tag is refused").to_string();
    let expected = "unsupported checkpoint schema 'ddosim.checkpoint/1' (expected 'ddosim.checkpoint/2')";
    assert!(err.contains(expected), "got: {err}");
}
