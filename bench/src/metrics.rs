//! Metric names and units (the same lists `BENCHMARK.json` declares —
//! `tests/smoke.rs` holds the two together), the statistics the runners
//! share, and the outcome of one run.

use djson::Json;
use std::collections::BTreeMap;

/// Metrics a user of the system sees; printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics of single layers; printed with `--trace 1`. A workload that
/// never reaches a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.print_mb_per_s", "MB/s"),
    ("scenario.parse_s", "s"),
    ("scenario.build_s", "s"),
    ("core.build_rss_bytes_per_device", "B"),
    ("core.run.recruit_s", "s"),
    ("core.run.attack_s", "s"),
    ("core.run.drain_s", "s"),
    ("core.result_json_s", "s"),
    ("core.fork_s", "s"),
    ("core.state_digest_s", "s"),
    ("core.checkpoint_json_s", "s"),
    ("core.sweep.parallel_efficiency", "ratio"),
    ("netsim.ns_per_event.recruit", "ns"),
    ("netsim.ns_per_event.attack", "ns"),
    ("netsim.packets_per_s", "1/s"),
    ("netsim.events_per_packet", "ratio"),
    ("netsim.drop_share", "ratio"),
    ("netsim.drops.queue_overflow", "count"),
    ("netsim.drops.node_down", "count"),
    ("netsim.drops.ttl_expired", "count"),
    ("netsim.drops.no_route", "count"),
    ("netsim.drops.port_unreachable", "count"),
    ("netsim.drops.wifi_retry_limit", "count"),
    ("netsim.drops.wifi_loss", "count"),
    ("netsim.drops.filtered", "count"),
    ("netsim.drops.link_down", "count"),
    ("netsim.drops.link_loss", "count"),
    ("netsim.peak_pending_events", "count"),
    ("netsim.peak_buffered_bytes", "B"),
    ("netsim.equeue.ops_per_s", "1/s"),
    ("netsim.route.cold_ns", "ns"),
    ("netsim.route.warm_ns", "ns"),
    ("netsim.tcp.retransmits", "count"),
    ("telemetry.events_recorded", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.trace_json_s", "s"),
    ("telemetry.overhead_share", "ratio"),
    ("tinyvm.exploit_us", "us"),
    ("attacker.chain_build_us", "us"),
    ("firmware.container_create_us", "us"),
    ("firmware.shell_exec_us", "us"),
    ("malware.registrations", "count"),
    ("churn.rejoins", "count"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_p50_s", "s"),
    ("serve.job_p95_s", "s"),
    ("serve.first_frame_p50_s", "s"),
    ("serve.accept_to_started_s", "s"),
    ("serve.frames_per_job", "count"),
    ("serve.bytes_per_job", "B"),
    ("serve.parse_request_us", "us"),
    ("serve.frame_event_ns", "ns"),
    ("serve.framing.lines_per_s", "1/s"),
];

/// Median (midpoint of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller takes at least one.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The first decile: what the timed operation costs when nothing else
/// has the machine.
///
/// On a shared two-core box interference only ever adds time, and it
/// comes in bursts that can outlast a whole run, so the median of a run's
/// repetitions moves twice as much from run to run as their fast end
/// does. The decile, not the minimum, so that no single lucky sample
/// sets the number.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fast_end(values: &[f64]) -> f64 {
    percentile(values, 0.1)
}

/// Linear-interpolated percentile, `q` in `0..=1`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Distance between the first and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` takes them (exclusive method).
/// Fewer than two values have no spread.
pub fn interquartile(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    cut(3) - cut(1)
}

/// FNV-1a over `bytes`, continuing from `state` — the `sim_digest` hash.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Seed of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A `kB` field of `/proc/self/status` in bytes (`VmHWM` is this
/// process's peak resident set, `VmRSS` the current one); 0 where the
/// file does not exist.
pub fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: repetitions, sweep rows, jobs.
    pub attempted: u64,
    /// Operations that panicked, returned an error or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact, non-gating values (`sim_digest`, deterministic counts) two
    /// commits can be compared on: a speed-only change leaves them alone.
    pub exact: BTreeMap<&'static str, String>,
    /// How many samples stand behind each timing.
    pub n: BTreeMap<&'static str, u64>,
    /// The span tree of the per-layer pass, for `bench/out/trace.*.json`.
    pub spans: Option<Json>,
}

impl Outcome {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares, or one set twice: both are
    /// bugs in the runner.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = declared.unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.metrics.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Counts one attempted operation, failed when `check` says why.
    pub fn attempt(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Counts as a failed operation every end-to-end metric the untraced
    /// pass left unmeasured, zero or not finite — the contract wants each
    /// of them, never 0. A per-layer metric the workload does not reach
    /// reads 0 and is no failure.
    pub fn require_end_to_end(&mut self) {
        for (name, _) in END_TO_END {
            match self.metrics.get(name).copied() {
                Some(v) if v.is_finite() && v > 0.0 => {}
                Some(v) => self.attempt(Err(format!("metric {name} is {v}"))),
                None => self.attempt(Err(format!("metric {name} was not measured"))),
            }
        }
    }

    /// The result object the driver reads from the last line of standard
    /// output: every per-layer metric after the traced pass, every
    /// end-to-end metric otherwise, each once. A run that failed still
    /// prints it, with `correct` false and the metrics it got to; a value
    /// that is not finite is left out, JSON having no way to write it.
    pub fn result_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut members = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => continue,
                None if traced => 0.0,
                None => continue,
            };
            members.push((
                (*name).to_owned(),
                Json::obj([
                    ("value", Json::F64(value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            ));
        }
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(members)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0], 0.95), 1.0);
        assert!((percentile(&[0.0, 10.0], 0.95) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn interquartile_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((interquartile(&ten) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((interquartile(&[4.0, 1.0, 2.0]) - 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert!((interquartile(&[1.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(interquartile(&[7.0]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn the_result_line_lists_every_metric_once_and_a_failed_run_still_prints_one() {
        let mut out = Outcome::default();
        out.attempt(Ok(()));
        out.attempt(Err("digest differs".into()));
        out.set("json.parse_mb_per_s", 12.5);
        let doc = Json::parse(&out.result_line(true)).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len(), "unreached layers read 0");

        // Nothing end-to-end was measured: the line is still printed, with
        // the metrics the run got to.
        out.set("setup_s", 0.25);
        let doc = Json::parse(&out.result_line(false)).expect("valid JSON");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), 1);
    }

    #[test]
    fn an_end_to_end_metric_that_is_missing_or_zero_is_a_failed_operation() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.0);
        }
        out.require_end_to_end();
        assert_eq!((out.attempted, out.failed), (0, 0));
        out.metrics.insert("wall_s", 0.0);
        out.metrics.remove("setup_s");
        out.require_end_to_end();
        assert_eq!(out.failed, 2);
        assert!(out.failures[0].contains("setup_s was not measured"));
        assert!(out.failures[1].contains("wall_s is 0"));
    }
}
