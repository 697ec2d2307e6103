//! Stage-by-stage resident-memory probe for the million-device world.
//!
//! Builds the same tiered topology as perfsnap's `huge_topology` gauge, but
//! reports the `VmRSS` delta after each construction stage (nodes, access
//! links, apps) and after the run, divided by the device count. Use this to
//! find which layer owns the bytes when the 2 KiB/device gate trips.
//!
//!     cargo run --release -p ddosim-bench --example memprobe -- 100000

use netsim::topology::TieredTopology;
use netsim::{Application, Ctx, LinkConfig, Packet, Payload, SimTime, Simulator};
use std::net::SocketAddr;
use std::time::Duration;

fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

struct Sink;
impl Application for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(9).expect("bind");
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {}
}

#[derive(Clone, Copy)]
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

fn main() {
    let devices: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let regions = (devices / 500).max(1);
    let mut last = rss_kb();
    let mut stage = |name: &str, devices: usize| {
        let now = rss_kb();
        let delta = now.saturating_sub(last);
        println!(
            "{name:<14} rss {now:>8} kB | hwm {:>8} kB | +{delta:>7} kB | {:>6} B/dev",
            status_kb("VmHWM:"),
            delta * 1024 / devices as u64
        );
        last = now;
    };
    stage("baseline", devices);

    let build_start = std::time::Instant::now();
    let mut sim = Simulator::new(17);
    let mut net = TieredTopology::new(
        &mut sim,
        "net",
        regions,
        LinkConfig::new(100_000_000, Duration::from_millis(2)),
    );
    let tserver = sim.add_node("tserver");
    let mt = net.attach_backbone(
        &mut sim,
        tserver,
        LinkConfig::new(1_000_000_000, Duration::from_millis(1)),
    );
    sim.install_app(tserver, Box::new(Sink));
    let target = SocketAddr::new(mt.addr_v4, 9);
    stage("fabric", devices);

    let nodes: Vec<_> = (0..devices)
        .map(|d| sim.add_node(format!("dev{d}")))
        .collect();
    stage("nodes", devices);

    for (d, &n) in nodes.iter().enumerate() {
        net.attach_region(
            &mut sim,
            d % regions,
            n,
            LinkConfig::new(1_000_000, Duration::from_millis(5)),
        );
    }
    stage("links+routes", devices);

    for (d, &n) in nodes.iter().enumerate() {
        sim.install_app(
            n,
            Box::new(Blaster {
                dst: target,
                interval: Duration::from_millis(250),
                phase: Duration::from_micros((d as u64).wrapping_mul(241) % 250_000),
            }),
        );
    }
    stage("apps", devices);
    let build = build_start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(2));
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    stage("run 2s", devices);
    let s = sim.stats();
    let packets = s.packets_sent + s.packets_delivered + s.total_dropped();
    println!(
        "built in {build:.3}s | packets: {packets} | {:.0} packets/s | peak {} B/dev",
        packets as f64 / wall,
        status_kb("VmHWM:") * 1024 / devices as u64
    );
}
