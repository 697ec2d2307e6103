//! The repetition loop the offline workloads share: sample set-up,
//! repeat the operation until the time is spent, hold every repetition
//! to the first one's `sim_digest`, and turn the timings into the
//! end-to-end metrics.

use crate::metrics::{fast_end, median, proc_status_bytes, Outcome};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Share of `--seconds` the alternating repetitions of a traced run get;
/// the rest goes to the one-call-per-layer measurements after them.
const TRACED_SHARE: f64 = 0.7;

/// The spans of a single-world repetition and the per-layer metric each
/// one's median duration is reported as.
pub const REP_SPANS: &[(&str, &str)] = &[
    ("scenario.parse_s", "scenario.parse"),
    ("scenario.build_s", "scenario.build"),
    ("core.run.recruit_s", "core.run.recruit"),
    ("core.run.attack_s", "core.run.attack"),
    ("core.run.drain_s", "core.run.drain"),
    ("core.result_json_s", "core.result_json"),
    ("telemetry.trace_json_s", "telemetry.trace_json"),
];

/// Share of an untraced run spent sampling set-up (three samples at
/// least): a world of a few Devs builds in microseconds, and only
/// hundreds of builds give a steady number at that scale.
pub const SETUP_SHARE: f64 = 0.2;

/// What one repetition reports.
#[derive(Debug)]
pub struct Op {
    /// Plan text in → result text (and trace text, when recording) out.
    pub wall_s: f64,
    /// The simulation phases alone: no parse, build or serialisation.
    pub run_s: f64,
    /// Simulated packets handed to the network.
    pub packets: u64,
    /// Hash of every deterministic output of the repetition.
    pub digest: u64,
    /// Why the repetition as a whole fails its checks, if it does.
    pub check: Result<(), String>,
    /// One verdict per row, for repetitions made of many worlds.
    pub rows: Vec<Result<(), String>>,
}

/// Runs `f`, turning a panic into an `Err` so it counts as a failed
/// operation instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", ddosim::panic_message(&*payload))))
}

/// Samples set-up for [`SETUP_SHARE`] of `seconds`: each call of `setup`
/// sets the system up from its input text, tears it down again, and
/// returns the seconds the setting up took. A failing sample counts as a
/// failed operation and ends the sampling.
pub fn sample_setup(
    seconds: f64,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < seconds * SETUP_SHARE {
        match guarded(&mut setup) {
            Ok(s) => samples.push(s),
            Err(why) => {
                out.attempt(Err(format!("set-up: {why}")));
                break;
            }
        }
    }
    out.n.insert("setup_samples", samples.len() as u64);
    samples
}

/// What [`drive`] hands back for the per-layer pass.
#[derive(Debug)]
pub struct Driven {
    /// Spans of the traced repetitions (empty with tracing off).
    pub tracer: Tracer,
    /// Walls of the untraced repetitions.
    pub untraced_walls: Vec<f64>,
    /// Walls of the traced repetitions.
    pub traced_walls: Vec<f64>,
}

/// Runs one workload for `seconds`.
///
/// With `trace` off: `setup` is sampled (each call builds the world from
/// plan text, drops it, and returns the seconds the build took), then
/// `rep` repeats untraced and the end-to-end metrics are set on `out`.
/// With `trace` on: untraced and traced repetitions alternate, so the
/// two walls compare like with like, and only the per-layer metrics that
/// come from the spans' existence are set; the caller adds the rest.
pub fn drive(
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
    setup: impl FnMut() -> Result<f64, String>,
    mut rep: impl FnMut(&mut Tracer) -> Result<Op, String>,
) -> Driven {
    let seconds = if trace {
        seconds * TRACED_SHARE
    } else {
        seconds
    };
    let start = Instant::now();
    let spent = || start.elapsed().as_secs_f64();
    let setups = if trace {
        Vec::new()
    } else {
        sample_setup(seconds, out, setup)
    };

    let mut tracer = if trace {
        Tracer::enabled(start)
    } else {
        Tracer::disabled()
    };
    let mut off = Tracer::disabled();
    let mut first_digest = None;
    let mut packets_per_s = Vec::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    // At least two repetitions, so that the digest check compares something.
    while n < 2 || spent() < seconds {
        let traced = trace && n % 2 == 1;
        tracer.set_op(n);
        let t = if traced { &mut tracer } else { &mut off };
        n += 1;
        match guarded(|| rep(t)) {
            Err(why) => {
                tracer.close_open();
                out.attempt(Err(why));
            }
            Ok(mut op) => {
                let expected = *first_digest.get_or_insert(op.digest);
                if op.check.is_ok() && op.digest != expected {
                    op.check = Err(format!(
                        "sim_digest {:016x} differs from the first repetition's {expected:016x}",
                        op.digest
                    ));
                }
                out.attempt(std::mem::replace(&mut op.check, Ok(())));
                for row in op.rows.drain(..) {
                    out.attempt(row);
                }
                (if traced {
                    &mut traced_walls
                } else {
                    &mut untraced_walls
                })
                .push(op.wall_s);
                packets_per_s.push(op.packets as f64 / op.run_s);
            }
        }
    }
    if let Some(d) = first_digest {
        out.exact.insert("sim_digest", format!("{d:016x}"));
    }
    if !trace && !untraced_walls.is_empty() && !setups.is_empty() {
        out.set("setup_s", fast_end(&setups));
        out.set("wall_s", fast_end(&untraced_walls));
        out.set("peak_rss_mb", proc_status_bytes("VmHWM:") as f64 / 1e6);
        eprintln!(
            "medians: set-up {:.6} s, repetition {:.6} s",
            median(&setups),
            median(&untraced_walls)
        );
    }
    out.n.insert("repetitions", untraced_walls.len() as u64);
    if trace {
        out.n
            .insert("traced_repetitions", traced_walls.len() as u64);
    }
    if trace && !packets_per_s.is_empty() {
        out.set("netsim.packets_per_s", median(&packets_per_s));
    }
    Driven {
        tracer,
        untraced_walls,
        traced_walls,
    }
}

/// Sets the per-layer metrics every traced workload derives the same
/// way: tracing overhead, the share of the repetition wall that named
/// spans account for, and one median duration per span name.
pub fn span_metrics(
    out: &mut Outcome,
    driven: &Driven,
    root: &'static str,
    by_span: &[(&'static str, &'static str)],
) {
    if driven.traced_walls.is_empty() || driven.untraced_walls.is_empty() {
        return;
    }
    out.set(
        "trace.overhead_share",
        fast_end(&driven.traced_walls) / fast_end(&driven.untraced_walls) - 1.0,
    );
    let totals = driven.tracer.totals();
    if let Some(root) = totals.get(root) {
        out.set(
            "trace.attributed_share",
            1.0 - root.self_ns as f64 / root.total_ns as f64,
        );
    }
    span_medians(out, &driven.tracer, by_span);
}

/// Sets each metric of `by_span` to the median duration of the spans of
/// that name, where any were recorded.
pub fn span_medians(out: &mut Outcome, tracer: &Tracer, by_span: &[(&'static str, &'static str)]) {
    for (metric, span) in by_span {
        let durations = tracer.durations(span);
        if !durations.is_empty() {
            out.set(metric, median(&durations));
        }
    }
}
