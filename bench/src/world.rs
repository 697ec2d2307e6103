//! The four single-world workloads (`flood_star`, `recruit_churn`,
//! `scale_tiered`, `http_recorded`): one repetition is plan text in →
//! `ScenarioPlan::parse` → `build` → the three run phases → result JSON
//! text (and trace text, when recording) out.

use crate::drive::{drive, span_metrics, Op, REP_SPANS};
use crate::layers;
use crate::metrics::{fnv1a, median, Outcome, FNV_OFFSET};
use crate::trace::Tracer;
use ddosim::netsim::{DropReason, Stats};
use ddosim::scenario::ScenarioPlan;
use ddosim::telemetry::Category;
use ddosim::{Ddosim, RunResult, TelemetryConfig};
use djson::ToJson;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A single-world workload: its plan text and how it is observed.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// The `ddosim.scenario/1` document.
    pub plan_text: String,
    /// Observation knobs layered on, as the CLI's output flags are.
    pub telemetry: TelemetryConfig,
    /// Whether every Dev must end up recruited (the paper's R2).
    pub full_recruitment: bool,
}

/// Everything one repetition produced beyond its [`Op`].
#[derive(Debug)]
pub struct Detail {
    /// The run's result.
    pub result: RunResult,
    /// `Stats` when the attack starts, when it ends, and at the horizon.
    pub stats: [Stats; 3],
    /// Wall of the recruit, attack and drain phases.
    pub phase_s: [f64; 3],
    /// High-water mark of the event queue.
    pub peak_pending: usize,
    /// Events the flight recorder accepted.
    pub events_recorded: u64,
    /// tcp-lite retransmissions the recorder saw (traced, recording runs).
    pub retransmits: u64,
    /// The trace document, as `ddosim --record` writes it.
    pub trace_text: Option<String>,
}

/// Parses and builds the world: the set-up a user waits for before the
/// simulation starts.
pub(crate) fn build(spec: &WorldSpec, t: &mut Tracer) -> Result<(ScenarioPlan, Ddosim), String> {
    let s = t.enter("scenario.parse");
    let plan = ScenarioPlan::parse(&spec.plan_text).map_err(String::from);
    t.exit(s);
    let plan = plan?;
    let s = t.enter("scenario.build");
    let world = plan.build_with_telemetry(spec.telemetry.clone());
    t.exit(s);
    Ok((plan, world?))
}

/// One build-only set-up sample: seconds from plan text to a world ready
/// to run. The world is dropped outside the measurement.
pub fn setup_sample(spec: &WorldSpec) -> Result<f64, String> {
    let start = Instant::now();
    let built = build(spec, &mut Tracer::disabled())?;
    let took = start.elapsed().as_secs_f64();
    drop(built);
    Ok(took)
}

/// Hashes the deterministic outputs of a run: the result JSON, the
/// simulator's counters and the trace text.
pub fn sim_digest(result: &RunResult, stats: &Stats, trace_text: Option<&str>) -> u64 {
    let mut h = fnv1a(
        FNV_OFFSET,
        result
            .to_deterministic_json()
            .to_string_compact()
            .as_bytes(),
    );
    let counters = [
        stats.packets_sent,
        stats.packets_delivered,
        stats.bytes_delivered,
        stats.events_executed,
        stats.peak_buffered_bytes,
    ];
    for c in counters
        .into_iter()
        .chain(DropReason::ALL.map(|r| stats.drop_count(r)))
    {
        h = fnv1a(h, &c.to_le_bytes());
    }
    fnv1a(h, trace_text.unwrap_or("").as_bytes())
}

/// The checks every finished world must pass.
pub fn check_result(result: &RunResult, full_recruitment: bool) -> Result<(), String> {
    if result.infected > result.devs {
        return Err(format!(
            "infected {} > devs {}",
            result.infected, result.devs
        ));
    }
    if result.flood_packets_received == 0 {
        return Err("no flood packet reached TServer".to_owned());
    }
    if full_recruitment && result.infected != result.devs {
        return Err(format!(
            "recruited {} of {} Devs",
            result.infected, result.devs
        ));
    }
    Ok(())
}

/// One repetition.
pub fn rep(spec: &WorldSpec, t: &mut Tracer) -> Result<(Op, Detail), String> {
    let root = t.enter("rep");
    let start = Instant::now();
    let (plan, mut world) = build(spec, t)?;
    let config = plan.config();
    let tele = world.telemetry().clone();
    let retransmits = Rc::new(Cell::new(0u64));
    if t.is_enabled() && tele.records_events() {
        // A pure observer: the recorder stores what it would store anyway.
        let seen = Rc::clone(&retransmits);
        tele.set_event_sink(move |event| {
            if event.category == Category::TcpRetransmit {
                seen.set(seen.get() + 1);
            }
        });
    }

    let attack_end = config.attack_at + config.attack.duration;
    let marks: [(&'static str, Duration); 3] = [
        ("core.run.recruit", config.attack_at),
        ("core.run.attack", attack_end),
        ("core.run.drain", config.sim_time),
    ];
    let mut stats: [Stats; 3] = Default::default();
    let mut phase_s = [0.0; 3];
    for (i, (name, upto)) in marks.into_iter().enumerate() {
        let s = t.enter(name);
        let phase = Instant::now();
        world.run_prefix(upto)?;
        phase_s[i] = phase.elapsed().as_secs_f64();
        t.exit(s);
        stats[i] = world.sim_mut().stats().clone();
    }
    let peak_pending = world.sim_mut().peak_pending_events();
    // The horizon is already reached: this collects the result.
    let (result, _) = world.try_run_to_completion()?;
    tele.clear_event_sink();

    let s = t.enter("core.result_json");
    // What `ddosim --json` prints.
    std::hint::black_box(result.to_json().to_string_pretty());
    t.exit(s);
    let s = t.enter("telemetry.trace_json");
    let trace_text = tele
        .recorder_json()
        .map(|doc| doc.to_string_compact() + "\n");
    t.exit(s);
    let wall_s = start.elapsed().as_secs_f64();

    // Outside the timed interval, inside the span tree: the trace shows
    // what checking costs without charging it to the product.
    let s = t.enter("bench.check");
    let digest = sim_digest(&result, &stats[2], trace_text.as_deref());
    let check = check_result(&result, spec.full_recruitment);
    t.exit(s);
    t.exit(root);
    let op = Op {
        wall_s,
        run_s: phase_s.iter().sum(),
        packets: stats[2].packets_sent,
        digest,
        check,
        rows: Vec::new(),
    };
    let detail = Detail {
        result,
        stats,
        phase_s,
        peak_pending,
        events_recorded: tele.events_recorded(),
        retransmits: retransmits.get(),
        trace_text,
    };
    Ok((op, detail))
}

/// Runs a single-world workload for `seconds` and reports its metrics.
pub fn run(name: &str, spec: &WorldSpec, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if trace {
        // Before anything else has grown the heap: what building this
        // world adds to the resident set.
        layers::probe_world(&mut out, spec);
    }
    let mut last: Option<Detail> = None;
    let mut traced: Vec<([f64; 3], [Stats; 3])> = Vec::new();
    let driven = drive(
        seconds,
        trace,
        &mut out,
        || setup_sample(spec),
        |t| {
            let (op, detail) = rep(spec, t)?;
            if t.is_enabled() {
                traced.push((detail.phase_s, detail.stats.clone()));
            }
            if t.is_enabled() || last.is_none() {
                last = Some(detail);
            }
            Ok(op)
        },
    );
    let Some(last) = last else { return out };
    exact_counts(&mut out, &last);
    if !trace {
        return out;
    }

    span_metrics(&mut out, &driven, "rep", REP_SPANS);
    let end = &last.stats[2];
    let per_event = |phase: usize| {
        let ns: Vec<f64> = traced
            .iter()
            .map(|(wall, stats)| {
                let before = if phase == 0 {
                    0
                } else {
                    stats[phase - 1].events_executed
                };
                wall[phase] * 1e9 / (stats[phase].events_executed - before).max(1) as f64
            })
            .collect();
        median(&ns)
    };
    out.set("netsim.ns_per_event.recruit", per_event(0));
    out.set("netsim.ns_per_event.attack", per_event(1));
    out.set(
        "netsim.events_per_packet",
        end.events_executed as f64 / end.packets_sent.max(1) as f64,
    );
    out.set(
        "netsim.drop_share",
        end.total_dropped() as f64 / end.packets_sent.max(1) as f64,
    );
    for reason in DropReason::ALL {
        out.set(
            &format!("netsim.drops.{}", reason.as_str()),
            end.drop_count(reason) as f64,
        );
    }
    out.set("netsim.peak_pending_events", last.peak_pending as f64);
    out.set("netsim.peak_buffered_bytes", end.peak_buffered_bytes as f64);
    out.set("netsim.tcp.retransmits", last.retransmits as f64);
    out.set("telemetry.events_recorded", last.events_recorded as f64);
    out.set(
        "malware.registrations",
        last.result.total_registrations as f64,
    );
    out.set(
        "churn.rejoins",
        last.result.churn_summary.map_or(0, |c| c.rejoins) as f64,
    );

    if spec.telemetry.record {
        layers::telemetry_overhead(&mut out, spec, seconds * 0.15);
    }
    let text = last.trace_text.as_deref().unwrap_or(&spec.plan_text);
    layers::json(&mut out, text);
    layers::equeue(&mut out, last.peak_pending);
    layers::infection_chain(&mut out);
    out.spans = Some(driven.tracer.to_json(name));
    out
}

/// The deterministic counts printed beside `sim_digest`.
fn exact_counts(out: &mut Outcome, rep: &Detail) {
    let s = &rep.stats[2];
    for (name, value) in [
        ("events_executed", s.events_executed),
        ("packets_sent", s.packets_sent),
        ("packets_delivered", s.packets_delivered),
        ("packets_dropped", s.total_dropped()),
        ("infected", rep.result.infected as u64),
        ("events_recorded", rep.events_recorded),
        (
            "trace_bytes",
            rep.trace_text.as_ref().map_or(0, String::len) as u64,
        ),
    ] {
        out.exact.insert(name, value.to_string());
    }
}
