//! `scale` — the scale gate. Verdicts that no parent-vs-change benchmark
//! can give, because they are absolute and measured inside one process:
//! the 100,000-device world fits in 2 KiB of peak RSS per device, a packet
//! costs the same events and allocations at every size (counted exactly,
//! so this one never flaps), and per-device wall cost stays flat as the
//! world grows. Takes no argument,
//! reads no environment, writes no file; exits 1 naming each verdict that
//! failed. Speed against the parent commit is `bench/`'s job, not this one's.
//! After its table it prints every reading as one NDJSON line
//! (`ddosim.scale/1`), so runs can be kept and compared by machine.
//!
//! One world shape at three sizes: a tiered fabric of 500-strong regions,
//! every device a periodic UDP sender routed dev → region router →
//! backbone → sink. The traffic is synthetic on purpose — what is gated is
//! whether a per-device structure stopped being O(1), not throughput — and
//! no link saturates at any size: a world that drops a packet measures its
//! queues, not its structures, so any drop fails the gate naming the size.

use djson::{Json, ToJson};
use netsim::topology::Fabric;
use netsim::{Application, Ctx, LinkConfig, Packet, Payload, SimTime, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Every allocation the process asks for, a growing `realloc` included.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting into [`ALLOCATIONS`].
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The promise (DESIGN.md "Memory layout at scale"): peak RSS ÷ devices at
/// [`LARGE`]. Ten runs at PR 20 read 1,903–1,905, four at PR 21 (the
/// fabric no longer lists its members) 1,860–1,861; 256 B of padding per
/// node in `Nodes` reads 2,160 and fails.
const BUDGET_BYTES_PER_DEVICE: u64 = 2048;

/// World sizes and the simulated seconds each runs for. A device sends 4
/// packets/s, each counted once sent and once delivered, so a timed run
/// moves about 160,000 packets (the large one 1,595,076): 45–100 ms of
/// wall at the least, never a 2 ms burst.
const LARGE: (usize, u64) = (100_000, 2);
const MEDIUM: (usize, u64) = (10_000, 2);
const SMALL: (usize, u64) = (500, 40);

/// The sink's backbone link. The large world offers it 100,000 devices ×
/// 4 packets/s × 540 wire bytes ≈ 1.73 Gbit/s; a 1 Gbit/s backbone
/// dropped 335,019 packets of its 2 s run. Regions offer their 100 Mbit/s
/// uplinks 8.6 Mbit/s each.
const BACKBONE_BPS: u64 = 10_000_000_000;

/// Repetitions per size; each verdict reads the best rate seen (the slower
/// ones measure the host's other tenants).
const REPS: usize = 5;

/// Floor of packets/s at [`MEDIUM`] ÷ packets/s at [`SMALL`]. Ten runs at
/// PR 20 read 0.44–0.50 (the larger world misses cache and keeps 20× the
/// timers in the event queue's heap); with `FastHasher::finish`
/// returning the raw product again (PR 14's bug: every per-device table a
/// linear scan) eight runs read 0.22–0.27.
const RUN_FLOOR: f64 = 0.35;

/// How far a size's events or allocations per packet may lie from the
/// median of the three sizes'. All three sizes read exactly 3.5000
/// events and 0.5000 allocations a packet (the one allocation is a send's);
/// without the warm-up second the 10,000-device world read 0.65
/// allocations against 0.51.
const WORK_TOLERANCE: f64 = 0.01;

/// Simulated seconds a world runs before its work per packet is counted:
/// the first sends fill tables and buffers that later ones reuse.
const WARM_UP_SECS: u64 = 1;

/// Floor of build devices/s at [`LARGE`] ÷ build devices/s at [`MEDIUM`].
/// Ten runs at PR 20 read 0.59–0.63 (0.45 beside two busy loops); with the
/// raw-product hash 0.11–0.13, the 100,000-device build taking 11 s.
const BUILD_FLOOR: f64 = 0.3;

struct Sink;
impl Application for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(9).expect("bind");
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {}
}

struct Blaster {
    dst: SocketAddr,
    interval: Duration,
    phase: Duration,
}
impl Application for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(1000).expect("bind");
        ctx.set_timer(self.phase, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        let _ = ctx.udp_send(1000, self.dst, Payload::empty(), 512);
        ctx.set_timer(self.interval, 0);
    }
}

/// A built world. The fabric stays alive beside the simulator, as it does
/// inside `Ddosim`.
struct World {
    sim: Simulator,
    _net: Fabric,
}

/// Builds a world of `devices`, reporting to `stage` after each
/// construction stage; the world and build devices per wall second.
fn build(devices: usize, mut stage: impl FnMut(&str)) -> (World, f64) {
    let start = Instant::now();
    let regions = (devices / 500).max(1);
    let mut sim = Simulator::new(17);
    let uplink = LinkConfig::new(100_000_000, Duration::from_millis(2));
    let mut net = Fabric::tiered(&mut sim, "net", regions, uplink);
    let tserver = sim.add_node("tserver");
    let backbone_link = LinkConfig::new(BACKBONE_BPS, Duration::from_millis(1));
    let sink = net.attach_core(&mut sim, tserver, backbone_link);
    let dst = SocketAddr::new(sink.addr_v4, 9);
    sim.install_app(tserver, Box::new(Sink));
    stage("fabric");
    let nodes: Vec<_> = (0..devices).map(|d| sim.add_node(format!("dev{d}"))).collect();
    stage("nodes");
    for (d, &node) in nodes.iter().enumerate() {
        let access = LinkConfig::new(1_000_000, Duration::from_millis(5));
        net.attach_dev(&mut sim, d, node, access);
    }
    stage("links");
    for (d, &node) in nodes.iter().enumerate() {
        // Modest per-device rate: the load of interest is breadth (every
        // device's timer and multi-hop forwarding decision), not one
        // saturated uplink. A stride coprime to the interval spreads the
        // senders over it.
        let interval = Duration::from_millis(250);
        let phase = Duration::from_micros((d as u64).wrapping_mul(241) % 250_000);
        sim.install_app(node, Box::new(Blaster { dst, interval, phase }));
    }
    stage("apps");
    (World { sim, _net: net }, devices as f64 / start.elapsed().as_secs_f64().max(1e-9))
}

/// Packets the world has moved: each counted once sent and once
/// delivered or dropped.
fn packets(world: &World) -> u64 {
    let s = world.sim.stats();
    s.packets_sent + s.packets_delivered + s.total_dropped()
}

/// Runs the world for `secs` simulated seconds; packets per wall second
/// and packets dropped.
fn packets_per_sec(world: &mut World, secs: u64) -> (f64, u64) {
    let start = Instant::now();
    world.sim.run_until(SimTime::from_secs(secs));
    let rate = packets(world) as f64 / start.elapsed().as_secs_f64().max(1e-9);
    (rate, world.sim.stats().total_dropped())
}

/// One untimed pass of a world of `devices`: [`WARM_UP_SECS`], then `secs`
/// counted simulated seconds; events and allocations per packet moved in
/// the counted window.
fn work_per_packet(devices: usize, secs: u64) -> (f64, f64) {
    let (mut world, _) = build(devices, |_| {});
    world.sim.run_until(SimTime::from_secs(WARM_UP_SECS));
    let count = |world: &World| {
        let events = world.sim.stats().events_executed;
        (events, ALLOCATIONS.load(Relaxed), packets(world))
    };
    let (events, allocations, moved) = count(&world);
    world.sim.run_until(SimTime::from_secs(WARM_UP_SECS + secs));
    let (events_after, allocations_after, moved_after) = count(&world);
    let per_packet = |before: u64, after: u64| (after - before) as f64 / (moved_after - moved) as f64;
    (per_packet(events, events_after), per_packet(allocations, allocations_after))
}

/// One world size's rates, one per repetition, and its untimed pass's
/// work per packet.
#[derive(Default)]
struct Readings {
    build_devices_per_s: Vec<f64>,
    packets_per_s: Vec<f64>,
    events_per_packet: f64,
    allocations_per_packet: f64,
}

/// The best of `rates`; 0 for none.
fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// The NDJSON line: the host's parallelism, the budget reading and every
/// size's rates, rounded to whole units, and work per packet, to 4
/// places. The large world runs once, as the process's first; its build
/// rates are the repetitions'.
fn ndjson(nproc: usize, bytes_per_device: Option<u64>, sizes: &[(usize, &Readings)]) -> String {
    let rounded = |rates: &[f64]| rates.iter().map(|r| r.round() as u64).collect::<Vec<_>>();
    let ratio = |r: f64| ((r * 1e4).round() / 1e4).to_json();
    let sizes = sizes.iter().map(|(devices, r)| {
        Json::obj([
            ("devices", devices.to_json()),
            ("packets_per_s", rounded(&r.packets_per_s).to_json()),
            ("build_devices_per_s", rounded(&r.build_devices_per_s).to_json()),
            ("events_per_packet", ratio(r.events_per_packet)),
            ("allocations_per_packet", ratio(r.allocations_per_packet)),
        ])
    });
    Json::obj([
        ("schema", "ddosim.scale/1".to_json()),
        ("nproc", nproc.to_json()),
        ("bytes_per_device", bytes_per_device.to_json()),
        ("sizes", Json::Arr(sizes.collect())),
    ])
    .to_string_compact()
}

/// A `/proc/self/status` field in kB; `None` where there is no such file.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find(|l| l.starts_with(field))?.split_whitespace().nth(1)?.parse().ok()
}

/// The lines of every verdict that failed; empty means the gate passes.
/// `drops` is each size's most packets dropped in one run, `work` each
/// size's events and allocations per packet.
fn verdict(
    bytes_per_device: Option<u64>,
    run_flatness: f64,
    build_flatness: f64,
    drops: &[(usize, u64)],
    work: &[(usize, f64, f64)],
) -> Vec<String> {
    let mut failed = Vec::new();
    for &(devices, dropped) in drops.iter().filter(|(_, dropped)| *dropped > 0) {
        failed.push(format!("drops: the {devices}-device world dropped {dropped} packets"));
    }
    let exact: [(&str, fn(&(usize, f64, f64)) -> f64); 2] =
        [("events", |w| w.1), ("allocations", |w| w.2)];
    for (what, read) in exact {
        let mut readings: Vec<f64> = work.iter().map(read).collect();
        readings.sort_by(f64::total_cmp);
        let Some(&median) = readings.get(readings.len() / 2) else { continue };
        for w in work {
            // NaN is a world that moved no packet: that must not pass.
            let reading = read(w);
            if !((reading - median).abs() <= WORK_TOLERANCE * median) {
                failed.push(format!(
                    "work: {what} per packet at {} devices is {reading:.4}, more than \
                     {}% off the sizes' median {median:.4}",
                    w.0,
                    WORK_TOLERANCE * 100.0
                ));
            }
        }
    }
    match bytes_per_device {
        None => failed.push("budget not measurable: no VmHWM in /proc/self/status".to_owned()),
        Some(b) if b > BUDGET_BYTES_PER_DEVICE => failed.push(format!(
            "budget: {b} bytes/device of peak RSS at {} devices exceeds {BUDGET_BYTES_PER_DEVICE}",
            LARGE.0
        )),
        Some(_) => {}
    }
    let ratios = [
        ("packets/s", run_flatness, RUN_FLOOR, MEDIUM.0, SMALL.0),
        ("build devices/s", build_flatness, BUILD_FLOOR, LARGE.0, MEDIUM.0),
    ];
    for (what, ratio, floor, larger, smaller) in ratios {
        // NaN is a world that moved nothing: that must not pass either.
        if ratio.is_nan() || ratio < floor {
            failed.push(format!(
                "flatness: {what} at {larger} devices is {ratio:.2} of that at {smaller}, \
                 under the floor {floor}"
            ));
        }
    }
    failed
}

/// There is nothing to configure: any argument is a mistake.
fn refuse_arguments(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    match args.next() {
        None => Ok(()),
        Some(arg) => Err(format!("usage: scale   (takes no argument; got '{arg}')")),
    }
}

fn main() -> ExitCode {
    if let Err(usage) = refuse_arguments(std::env::args().skip(1)) {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }
    // The large world comes first: VmHWM is a process-lifetime high-water
    // mark, so only the first world's peak is its own. The per-stage VmRSS
    // lines say which layer owns the bytes when the budget trips.
    let mut last = status_kb("VmRSS:").unwrap_or(0);
    let mut stage = |name: &str| {
        let now = status_kb("VmRSS:").unwrap_or(0);
        let grown = now.saturating_sub(last);
        let each = grown * 1024 / LARGE.0 as u64;
        println!("{name:<7} rss {now:>7} kB | +{grown:>6} kB | {each:>5} B/device");
        last = now;
    };
    let (mut world, first_build) = build(LARGE.0, &mut stage);
    let (large_pps, large_drops) = packets_per_sec(&mut world, LARGE.1);
    stage("run");
    drop(world);
    let bytes_per_device = status_kb("VmHWM:").map(|kb| kb * 1024 / LARGE.0 as u64);
    println!(
        "{} devices, first in the process: {first_build:.0} devices/s built, {large_pps:.0} packets/s",
        LARGE.0
    );
    match bytes_per_device {
        Some(b) => println!("bytes/device: {b} of peak RSS (budget {BUDGET_BYTES_PER_DEVICE})"),
        None => println!("bytes/device: not measurable"),
    }

    // The exact verdicts: one untimed pass of each size.
    let (mut large, mut medium, mut small) = (Readings::default(), Readings::default(), Readings::default());
    for (readings, (devices, secs)) in [(&mut large, LARGE), (&mut medium, MEDIUM), (&mut small, SMALL)] {
        (readings.events_per_packet, readings.allocations_per_packet) = work_per_packet(devices, secs);
        println!(
            "{devices} devices, {WARM_UP_SECS} s warm-up then {secs} s counted: {:.4} events, \
             {:.4} allocations per packet",
            readings.events_per_packet, readings.allocations_per_packet
        );
    }

    // The three sizes take turns inside each repetition, so a host that
    // speeds up or slows down mid-run moves both sides of a ratio together.
    large.packets_per_s.push(large_pps);
    let mut drops = [(LARGE.0, large_drops), (MEDIUM.0, 0), (SMALL.0, 0)];
    for _ in 0..REPS {
        large.build_devices_per_s.push(build(LARGE.0, |_| {}).1);
        for (i, readings, (devices, secs)) in [(1, &mut medium, MEDIUM), (2, &mut small, SMALL)] {
            let (mut world, built) = build(devices, |_| {});
            let (pps, dropped) = packets_per_sec(&mut world, secs);
            readings.build_devices_per_s.push(built);
            readings.packets_per_s.push(pps);
            drops[i].1 = drops[i].1.max(dropped);
        }
    }
    let (l, m, s) = (LARGE.0, MEDIUM.0, SMALL.0);
    let (large_build, medium_build) =
        (best(&large.build_devices_per_s), best(&medium.build_devices_per_s));
    let (medium_pps, small_pps) = (best(&medium.packets_per_s), best(&small.packets_per_s));
    println!("best of {REPS}, devices/s built: {large_build:.0} at {l}, {medium_build:.0} at {m}");
    println!("best of {REPS}, packets/s: {medium_pps:.0} at {m}, {small_pps:.0} at {s}");
    let (run_flatness, build_flatness) = (medium_pps / small_pps, large_build / medium_build);
    println!(
        "flatness: packets/s {run_flatness:.2} (floor {RUN_FLOOR}) | \
         build devices/s {build_flatness:.2} (floor {BUILD_FLOOR})"
    );

    println!("packets dropped (most in one run): {drops:?}");
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let sizes = [(l, &large), (m, &medium), (s, &small)];
    println!("{}", ndjson(nproc, bytes_per_device, &sizes));
    let work = sizes.map(|(devices, r)| (devices, r.events_per_packet, r.allocations_per_packet));
    let failed = verdict(bytes_per_device, run_flatness, build_flatness, &drops, &work);
    for line in &failed {
        eprintln!("scale: FAILED {line}");
    }
    if failed.is_empty() {
        println!("scale: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_budget_passes_at_2048_and_fails_at_2049() {
        assert_eq!(verdict(Some(2048), 1.0, 1.0, &[], &[]), Vec::<String>::new());
        let failed = verdict(Some(2049), 1.0, 1.0, &[], &[]);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("budget: 2049 bytes/device"), "{failed:?}");
    }

    #[test]
    fn each_floor_passes_at_the_floor_and_fails_below_it() {
        assert!(verdict(Some(0), RUN_FLOOR, BUILD_FLOOR, &[], &[]).is_empty());
        let failed = verdict(Some(0), RUN_FLOOR - 0.01, BUILD_FLOOR, &[], &[]);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("flatness: packets/s at 10000 devices is 0.34"), "{failed:?}");
        let failed = verdict(Some(0), RUN_FLOOR, BUILD_FLOOR - 0.01, &[], &[]);
        assert_eq!(failed.len(), 1);
        let expected = "flatness: build devices/s at 100000 devices is 0.29";
        assert!(failed[0].starts_with(expected), "{failed:?}");
        // The hash bug's own readings fail both, and a NaN ratio passes neither.
        assert_eq!(verdict(Some(1904), 0.25, 0.13, &[], &[]).len(), 2);
        assert_eq!(verdict(Some(1904), f64::NAN, f64::NAN, &[], &[]).len(), 2);
    }

    #[test]
    fn a_drop_at_any_size_fails_naming_it() {
        let none = [(LARGE.0, 0), (MEDIUM.0, 0), (SMALL.0, 0)];
        assert!(verdict(Some(0), 1.0, 1.0, &none, &[]).is_empty());
        let failed = verdict(Some(0), 1.0, 1.0, &[(LARGE.0, 503_538), (MEDIUM.0, 0), (SMALL.0, 1)], &[]);
        assert_eq!(
            failed,
            [
                "drops: the 100000-device world dropped 503538 packets",
                "drops: the 500-device world dropped 1 packets",
            ]
        );
    }

    #[test]
    fn work_per_packet_must_agree_within_one_percent_naming_the_size() {
        let work = |large: (f64, f64)| [(LARGE.0, large.0, large.1), (MEDIUM.0, 1.0, 0.5), (SMALL.0, 1.0, 0.5)];
        assert!(verdict(Some(0), 1.0, 1.0, &[], &work((1.0, 0.5))).is_empty());
        // 2^-7 (0.78 %) off the median passes, 2^-6 (1.56 %) fails.
        assert!(verdict(Some(0), 1.0, 1.0, &[], &work((1.0 + 1.0 / 128.0, 0.5))).is_empty());
        let failed = verdict(Some(0), 1.0, 1.0, &[], &work((1.0 + 1.0 / 64.0, 0.5)));
        let expected = "work: events per packet at 100000 devices is 1.0156, more than 1% off \
                        the sizes' median 1.0000";
        assert_eq!(failed, [expected]);
        let failed = verdict(Some(0), 1.0, 1.0, &[], &work((1.0, 0.65)));
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("work: allocations per packet at 100000 devices is 0.6500"), "{failed:?}");
        // No allocation at any size agrees; a world that moved no packet
        // fails both readings.
        let none = [(LARGE.0, 1.0, 0.0), (MEDIUM.0, 1.0, 0.0), (SMALL.0, 1.0, 0.0)];
        assert!(verdict(Some(0), 1.0, 1.0, &[], &none).is_empty());
        assert_eq!(verdict(Some(0), 1.0, 1.0, &[], &work((f64::NAN, f64::NAN))).len(), 2);
    }

    #[test]
    fn a_host_that_cannot_measure_the_budget_fails_rather_than_passes() {
        let failed = verdict(None, 1.0, 1.0, &[], &[]);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("budget not measurable"), "{failed:?}");
        if cfg!(target_os = "linux") {
            assert!(status_kb("VmHWM:").expect("VmHWM parses on Linux") > 0);
        }
        assert_eq!(status_kb("NoSuchField:"), None);
    }

    #[test]
    fn the_ndjson_line_holds_every_repetition() {
        let medium = Readings {
            build_devices_per_s: vec![120_000.4, 118_000.6],
            packets_per_s: vec![700_000.0, 690_000.0],
            events_per_packet: 3.500_04,
            allocations_per_packet: 0.5,
        };
        let line = ndjson(2, Some(1787), &[(MEDIUM.0, &medium), (SMALL.0, &Readings::default())]);
        assert!(!line.contains('\n'), "{line}");
        let doc = Json::parse(&line).expect("the line is JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ddosim.scale/1"));
        assert_eq!(doc.get("nproc").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("bytes_per_device").and_then(Json::as_u64), Some(1787));
        let sizes = doc.get("sizes").and_then(Json::as_array).expect("sizes");
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[0].get("devices").and_then(Json::as_u64), Some(10_000));
        let rates = |key| sizes[0].get(key).and_then(Json::as_array).expect(key).to_vec();
        assert_eq!(rates("build_devices_per_s"), [Json::U64(120_000), Json::U64(118_001)]);
        assert_eq!(rates("packets_per_s"), [Json::U64(700_000), Json::U64(690_000)]);
        assert_eq!(sizes[0].get("events_per_packet").and_then(Json::as_f64), Some(3.5));
        assert_eq!(sizes[0].get("allocations_per_packet").and_then(Json::as_f64), Some(0.5));
        assert_eq!(best(&medium.packets_per_s), 700_000.0);
        let unmeasured = Json::parse(&ndjson(1, None, &[])).expect("JSON");
        assert!(unmeasured.get("bytes_per_device").is_some_and(Json::is_null));
    }

    #[test]
    fn any_argument_is_a_usage_error() {
        assert_eq!(refuse_arguments(std::iter::empty()), Ok(()));
        for arg in ["--smoke", "--out", "100000", ""] {
            let usage = refuse_arguments([arg.to_owned()].into_iter()).expect_err(arg);
            assert!(usage.starts_with("usage: scale"), "{usage}");
        }
    }
}
