//! Telemetry reproducibility: with all collectors on, identical seeds
//! must give byte-identical recorder, capture, and metrics documents —
//! the property the `trace diff` tool depends on — and a perturbed run
//! must be pinpointed at its first diverging entry.

use ddosim::churn::ChurnMode;
use ddosim::{
    AttackSpec, Ddosim, SimulationBuilder, SimulationConfig, Telemetry, TelemetryConfig,
    TopologyKind,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;
use telemetry::{diff_strs, CaptureFilter, Category, Detail, Event, FlightRecorder};

fn full_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        record: true,
        capture: true,
        // Keep the stored capture small enough that serializing and
        // re-parsing it stays cheap in debug builds; `matched`/`offered`
        // still count every event past the cap.
        capture_capacity: 20_000,
        metrics_interval: Some(Duration::from_secs(1)),
        ..TelemetryConfig::default()
    }
}

/// A small scenario: 8 Devs, a 10 s flood from 25 s, a 45 s horizon.
fn world(seed: u64, telemetry: TelemetryConfig) -> Ddosim {
    SimulationBuilder::new()
        .devs(8)
        .attack(AttackSpec::udp_plain(Duration::from_secs(10)))
        .attack_at(Duration::from_secs(25))
        .sim_time(Duration::from_secs(45))
        .attack_ramp(Duration::from_secs(3))
        .seed(seed)
        .telemetry(telemetry)
        .build()
        .expect("valid configuration")
}

/// Runs the small scenario and returns the live telemetry handle.
fn run(seed: u64, telemetry: TelemetryConfig) -> Telemetry {
    let instance = world(seed, telemetry);
    let handle = instance.telemetry().clone();
    instance.run_to_completion();
    handle
}

fn documents(seed: u64, telemetry: TelemetryConfig) -> (String, String, String) {
    let handle = run(seed, telemetry);
    (
        handle.recorder_json().expect("recording").to_string_compact(),
        handle.capture_json().expect("capturing").to_string_compact(),
        handle.metrics_json().expect("sampling").to_string_compact(),
    )
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (rec_a, cap_a, met_a) = documents(42, full_telemetry());
    let (rec_b, cap_b, met_b) = documents(42, full_telemetry());
    assert_eq!(rec_a, rec_b, "flight recorder diverged across identical runs");
    assert_eq!(cap_a, cap_b, "packet capture diverged across identical runs");
    assert_eq!(met_a, met_b, "metrics diverged across identical runs");
    // And the diff tool agrees.
    assert_eq!(diff_strs(&rec_a, &rec_b), Ok(None));
    assert_eq!(diff_strs(&cap_a, &cap_b), Ok(None));
}

#[test]
fn perturbed_run_is_pinpointed_at_first_divergence() {
    let (rec_a, cap_a, _) = documents(42, full_telemetry());
    let (rec_b, cap_b, _) = documents(43, full_telemetry());
    let d = diff_strs(&rec_a, &rec_b)
        .expect("both parse")
        .expect("different seeds must diverge");
    // The divergence is a real pointer into both documents: re-rendering
    // the named index shows two different entries.
    assert!(d.a != d.b, "diff reported an index where both sides agree");
    assert!(d.render().contains(&format!("{}", d.index)));
    let dc = diff_strs(&cap_a, &cap_b).expect("both parse");
    assert!(dc.is_some(), "captures of different seeds must diverge");
}

#[test]
fn recorder_sees_every_layer() {
    let handle = run(42, full_telemetry());
    let doc = handle.recorder_json().expect("recording");
    let events = doc.get("events").and_then(|e| e.as_array()).expect("events array");
    let has = |cat: &str| {
        events.iter().any(|e| {
            e.get("cat").and_then(|c| c.as_str()).map(|s| s == cat).unwrap_or(false)
        })
    };
    // Core phases, firmware infection stages, malware C&C traffic, and
    // netsim container starts must all land in one chronological stream.
    for cat in ["phase", "container_start", "shell_exec", "curl_sh_stage", "cnc_register", "cnc_command", "infection", "flood"] {
        assert!(has(cat), "no {cat} event recorded; categories present: {:?}",
            events.iter().filter_map(|e| e.get("cat").and_then(|c| c.as_str()).map(str::to_owned)).collect::<std::collections::BTreeSet<_>>());
    }
    // Events are seq-ordered and time-monotone.
    let mut prev_t = 0;
    for e in events {
        let t = e.get("t").and_then(|t| t.as_u64()).expect("time");
        assert!(t >= prev_t, "recorder events out of order");
        prev_t = t;
    }
}

#[test]
fn capture_filter_narrows_the_capture() {
    let mut filtered = full_telemetry();
    filtered.capture_filter = CaptureFilter::parse("udp port 80").expect("valid filter");
    let all = run(42, full_telemetry());
    let only_flood = run(42, filtered);
    // Compare `matched` (counted past the storage cap) so the capped
    // buffer cannot mask the filter's effect.
    let matched = |h: &Telemetry| {
        h.capture_json()
            .and_then(|d| d.get("matched").and_then(|m| m.as_u64()))
            .expect("capture document")
    };
    let (all_n, flood_n) = (matched(&all), matched(&only_flood));
    assert!(flood_n > 0, "the flood never hit udp port 80");
    assert!(flood_n < all_n, "filter kept everything ({flood_n} of {all_n})");
    // Same offered count (the filter must not perturb the simulation).
    let offered = |h: &Telemetry| {
        h.capture_json().and_then(|d| d.get("offered").and_then(|o| o.as_u64())).unwrap()
    };
    assert_eq!(offered(&all), offered(&only_flood));

    // `node N` selects where a record happened: a Dev's capture is exactly
    // the unfiltered stream's records at that Dev, cut from the same
    // offered stream.
    let dev = world(42, full_telemetry()).devs()[0].node.index() as u32;
    let mut at_dev = full_telemetry();
    at_dev.capture_filter = CaptureFilter::parse(&format!("node {dev}")).expect("valid filter");
    let at_dev = run(42, at_dev);
    let every = run(42, TelemetryConfig { capture_capacity: usize::MAX, ..full_telemetry() });
    let records = |h: &Telemetry| h.with_capture(|c| c.records().to_vec()).expect("capturing");
    let expected: Vec<_> = records(&every).into_iter().filter(|r| r.node == dev).collect();
    assert!(!expected.is_empty(), "the Dev never sent or received a packet");
    assert_eq!(records(&at_dev), expected);
    assert_eq!(offered(&all), offered(&at_dev));
}

#[test]
fn metrics_track_the_botnet_and_the_attack() {
    let handle = run(42, full_telemetry());
    let doc = handle.metrics_json().expect("sampling");
    let series = doc.get("series").and_then(|s| s.as_array()).expect("series array");
    let samples = |name: &str| -> Vec<f64> {
        series
            .iter()
            .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|s| s.get("samples").and_then(|v| v.as_array()))
            .unwrap_or_else(|| panic!("no series {name}"))
            .iter()
            .filter_map(|v| v.as_f64())
            .collect()
    };
    let bots = samples("bot_population");
    assert!(*bots.last().expect("samples") >= 1.0, "no bots by the horizon");
    assert!(bots.windows(2).all(|w| w[1] >= w[0] || w[1] >= 0.0));
    let rx = samples("tserver_rx_bytes");
    assert!(rx.iter().any(|&b| b > 0.0), "TServer never received flood bytes");
    // Gauges exist for congestion tracking.
    samples("buffered_bytes");
    samples("tserver_queue_bytes");
    samples("tx_packets");
    samples("infected_devices");
}

/// Watching a run does not change it: the same world with and without
/// the flight recorder has equal layer digests at every pause. (The event
/// queue's sweep count once reached `netsim.stats` only while recording.)
#[test]
fn recording_leaves_every_layer_digest_unchanged() {
    let record = TelemetryConfig { record: true, ..TelemetryConfig::default() };
    let (mut plain, mut recorded) = (world(42, TelemetryConfig::default()), world(42, record));
    for secs in [5, 20, 28, 34, 45] {
        let at = Duration::from_secs(secs);
        plain.run_prefix(at).expect("runs");
        recorded.run_prefix(at).expect("runs");
        assert_eq!(plain.state_digests(), recorded.state_digests(), "at {secs} s");
    }
    assert!(recorded.telemetry().events_recorded() > 0);
}

#[test]
fn disabled_telemetry_collects_nothing() {
    let handle = run(42, TelemetryConfig::default());
    assert!(!handle.is_enabled());
    assert_eq!(handle.recorder_json(), None);
    assert_eq!(handle.capture_json(), None);
    assert_eq!(handle.metrics_json(), None);
    assert_eq!(handle.events_recorded(), 0);
}

/// The recorder keeps the botnet's story, not its packets: a 40-Dev Wi-Fi
/// world under dynamic churn and reboots (`ddosim --devs 40 --churn
/// dynamic --reboot-rate 0.5 --topology wifi --sim-time 200 --attack-at 60
/// --duration 60`) fits the default ring, so every C&C registration of
/// the run is in its trace. A per-packet recorder site wraps it.
#[test]
fn a_churning_wifi_world_keeps_every_registration() {
    let mut config = SimulationConfig {
        devs: 40,
        churn: ChurnMode::Dynamic,
        reboot_rate_per_min: 0.5,
        topology: TopologyKind::Wifi,
        sim_time: Duration::from_secs(200),
        attack_at: Duration::from_secs(60),
        telemetry: TelemetryConfig { record: true, ..TelemetryConfig::default() },
        ..SimulationConfig::default()
    };
    config.attack.duration = Duration::from_secs(60);
    let world = Ddosim::new(config).expect("valid configuration");
    let handle = world.telemetry().clone();
    let result = world.run_to_completion();

    let capacity = handle.recorder_capacity().expect("recording") as u64;
    assert!(
        handle.events_recorded() <= capacity,
        "{} events wrap a {capacity}-event ring",
        handle.events_recorded()
    );
    let registrations = handle
        .recorded_events()
        .iter()
        .filter(|e| e.category == Category::CncRegister)
        .count() as u64;
    assert!(result.total_registrations > 40, "churn re-registers bots");
    assert_eq!(registrations, result.total_registrations);
}

/// One arbitrary detail per arm, from three raw draws.
fn shape_detail(a: u64, b: u64, c: u64) -> Detail {
    match a % 2 {
        0 => Detail::Text(format!("text {b} \"quoted\" \\ {c}")),
        _ => Detail::TcpRetransmit { conn: b, seq: c },
    }
}

proptest! {
    /// The ring that keeps fields and renders late is indistinguishable
    /// from one fed every sentence up front: same document at any
    /// capacity and any number of wraps, before and after a fork, and a
    /// sink attached mid-stream sees exactly the entries stored from then on.
    #[test]
    fn lazy_ring_equals_a_ring_fed_rendered_events(
        capacity in 1usize..=64,
        draws in proptest::collection::vec(any::<u64>(), 0..900),
    ) {
        let lazy = Telemetry::from_config(&TelemetryConfig {
            record: true,
            recorder_capacity: capacity,
            ..TelemetryConfig::default()
        });
        let mut eager = FlightRecorder::new(capacity);
        let streamed: Rc<RefCell<Vec<Event>>> = Rc::default();
        let raws: Vec<&[u64]> = draws.chunks_exact(3).collect();
        let sink_from = raws.len() / 2;
        for (i, &raw) in raws.iter().enumerate() {
            let (a, b, c) = (raw[0], raw[1], raw[2]);
            if i == sink_from {
                let tap = Rc::clone(&streamed);
                lazy.set_event_sink(move |e| tap.borrow_mut().push(e.clone()));
            }
            let time_nanos = i as u64 * 10;
            let node = (a % 5 != 0).then_some(b as u32);
            let category = if a % 2 == 0 { Category::Phase } else { Category::TcpRetransmit };
            lazy.record_event(time_nanos, node, category, || shape_detail(a, b, c));
            let detail = shape_detail(a, b, c).to_string();
            eager.record(Event { time_nanos, seq: u64::MAX, node, category, detail });
        }
        let expected = eager.to_json().to_string_compact();
        let fork = lazy.deep_fork();
        prop_assert_eq!(&lazy.recorder_json().expect("recording").to_string_compact(), &expected);
        prop_assert_eq!(&fork.recorder_json().expect("recording").to_string_compact(), &expected);
        prop_assert_eq!(lazy.recorded_events(), eager.events());

        // What the sink saw, cut to the window the ring still holds.
        let streamed = streamed.borrow();
        prop_assert_eq!(streamed.len(), raws.len() - sink_from);
        let stored = eager.events();
        let kept = stored.len().min(streamed.len());
        prop_assert_eq!(&streamed[streamed.len() - kept..], &stored[stored.len() - kept..]);
    }
}
