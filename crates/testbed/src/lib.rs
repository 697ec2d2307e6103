//! # testbed — the hardware-reference validation scenario
//!
//! The paper validates DDoSim by replaying the same experiment on physical
//! hardware: Raspberry Pis (Devs) associated over Wi-Fi to a Netgear
//! router, with the Attacker and TServer desktops on Ethernet, and
//! Wireshark capturing at TServer (§IV-D, Fig. 4).
//!
//! We cannot own Raspberry Pis, so this crate builds the closest synthetic
//! equivalent: the **same** Attacker/Devs/TServer software stack, but on a
//! *higher-fidelity medium* — a shared Wi-Fi channel with CSMA/CA
//! contention, random wireless loss, and per-station egress shaping to the
//! paper's 100–500 kbps IoT rates — versus DDoSim's abstract
//! point-to-point star. Agreement between the two models over the paper's
//! 1–19 Dev range reproduces Fig. 4's validation claim: the abstract link
//! model tracks a contention-based medium at IoT data rates.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use attacker::{Dhcpv6Injector, ExploitForge, FileServer, MaliciousDnsServer};
use ddosim_core::{DaemonKind, SimulationConfig, TServerSink};
use firmware::{ContainerRuntime, DnsProxyDaemon, NetMgrDaemon, ServiceCore};
use malware::{AdminConsole, CncServer};
use netsim::topology::AddrAllocator;
use netsim::{LinkConfig, NodeId, SimTime, Simulator, WifiConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;
use tinyvm::catalog;

/// Configuration of the physical-testbed model.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Shared scenario parameters (devs, attack, seed, ...). The abstract
    /// topology fields (`tserver_link_bps` etc.) are ignored — this model
    /// supplies its own physical topology.
    pub base: SimulationConfig,
    /// Wi-Fi PHY rate of the router's radio (802.11n-ish).
    pub wifi_rate_bps: u64,
    /// Random per-frame wireless loss (lab interference).
    pub wifi_loss_probability: f64,
    /// Ethernet rate for the Attacker and TServer desktops.
    pub ethernet_bps: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            base: SimulationConfig::default(),
            wifi_rate_bps: 72_000_000,
            wifi_loss_probability: 0.01,
            ethernet_bps: 1_000_000_000,
        }
    }
}

/// Result of one testbed run (mirrors the DDoSim metrics Fig. 4 needs).
#[derive(Debug, Clone)]
pub struct TestbedResult {
    /// Number of Devs.
    pub devs: usize,
    /// Eq. 2 average received data rate at TServer, kbps (what Wireshark
    /// measures in the paper's physical runs).
    pub avg_received_data_rate_kbps: f64,
    /// Devs recruited.
    pub infected: usize,
    /// Wi-Fi collisions observed on the medium.
    pub wifi_collisions: u64,
}

impl TestbedResult {
    /// The result as ordered JSON. Every field of a testbed run is
    /// simulation-derived (nothing host-measured), so the whole value is
    /// deterministic: two runs with one seed must serialize byte-identically.
    pub fn to_deterministic_json(&self) -> djson::Json {
        djson::Json::obj([
            ("devs", djson::Json::U64(self.devs as u64)),
            ("avg_received_data_rate_kbps", djson::Json::F64(self.avg_received_data_rate_kbps)),
            ("infected", djson::Json::U64(self.infected as u64)),
            ("wifi_collisions", djson::Json::U64(self.wifi_collisions)),
        ])
    }
}

/// Builds and runs the physical-testbed scenario.
///
/// Topology: every Pi is a station on one shared Wi-Fi channel whose
/// gateway is the router; the router connects over Ethernet to the Attacker
/// and TServer desktops. Pi egress is shaped to the configured IoT range.
///
/// # Errors
///
/// Returns a message if the embedded base configuration is invalid.
pub fn run_testbed(config: TestbedConfig) -> Result<TestbedResult, String> {
    config.base.validate()?;
    let base = &config.base;
    let mut sim = Simulator::new(base.rng.event_seed(base.seed));
    let mut build_rng = SmallRng::seed_from_u64(base.rng.world_seed(base.seed));
    let mut alloc = AddrAllocator::new();
    let mut runtime = ContainerRuntime::new();

    // The Netgear router: gateway between the Wi-Fi segment and Ethernet.
    let router = sim.add_node("router");
    sim.set_forwarding(router, true);
    sim.set_multicast_relay(router, true);

    let chan = sim.add_wifi_channel(WifiConfig {
        rate_bps: config.wifi_rate_bps,
        loss_probability: config.wifi_loss_probability,
        ..WifiConfig::default()
    });
    let (router_wifi_v4, router_wifi_v6) = alloc.next_pair();
    let router_wifi_if = sim.add_iface(router, vec![router_wifi_v4, router_wifi_v6]);
    sim.attach_wifi(router_wifi_if, chan).expect("fresh interface");
    sim.set_wifi_gateway(chan, router_wifi_if);

    // Ethernet desktops.
    let ethernet = |sim: &mut Simulator,
                        alloc: &mut AddrAllocator,
                        name: &str|
     -> (NodeId, IpAddr) {
        let node = sim.add_node(name);
        let (v4, v6) = alloc.next_pair();
        let (rv4, rv6) = alloc.next_pair();
        let iface = sim.add_iface(node, vec![v4, v6]);
        let r_iface = sim.add_iface(router, vec![rv4, rv6]);
        sim.connect_p2p(
            iface,
            r_iface,
            LinkConfig::new(config.ethernet_bps, Duration::from_micros(200))
                .with_queue_capacity(1 << 20),
        )
        .expect("fresh interfaces");
        sim.add_default_route(node, iface);
        sim.add_route(router, v4, 32, r_iface);
        sim.add_route(router, v6, 128, r_iface);
        (node, v4)
    };
    let (attacker_node, attacker_v4) = ethernet(&mut sim, &mut alloc, "attacker-desktop");
    let (tserver_node, tserver_v4) = ethernet(&mut sim, &mut alloc, "tserver-desktop");

    // TServer sink = the Wireshark capture.
    let sink = sim.install_app(tserver_node, Box::new(TServerSink::new(base.attack.port)));

    // Attacker stack — identical binaries to the DDoSim scenario.
    sim.install_app(attacker_node, Box::new(CncServer::new()));
    let cnc_addr = SocketAddr::new(attacker_v4, protocols::CNC_PORT);
    let stage1 = malware::stage1_command(attacker_v4);
    let served = vec![
        malware::infection_script(attacker_v4),
        malware::mirai_binary_file(base.arch, cnc_addr, base.flood_rate_bps, base.attack_ramp),
    ];
    sim.install_app(attacker_node, Box::new(FileServer::new(served)));
    let connman_forge = ExploitForge::new(
        Arc::new(catalog::connman_image(base.arch)),
        base.strategy,
        stage1.clone(),
    );
    let dnsmasq_forge = ExploitForge::new(
        Arc::new(catalog::dnsmasq_image(base.arch)),
        base.strategy,
        stage1,
    );
    sim.install_app(attacker_node, Box::new(MaliciousDnsServer::new(connman_forge)));
    sim.install_app(
        attacker_node,
        Box::new(Dhcpv6Injector::new(dnsmasq_forge, Duration::from_secs(5))),
    );

    // Raspberry Pis: stations on the shared channel, egress-shaped.
    let connman_image = Arc::new(catalog::connman_image(base.arch));
    let dnsmasq_image = Arc::new(catalog::dnsmasq_image(base.arch));
    for i in 0..base.devs {
        let node = sim.add_node(format!("rpi-{i}"));
        let (v4, v6) = alloc.next_pair();
        let iface = sim.add_iface(node, vec![v4, v6]);
        sim.attach_wifi(iface, chan).expect("fresh interface");
        let rate_kbps = build_rng
            .gen_range(*base.access_rate_kbps.start()..=*base.access_rate_kbps.end());
        sim.set_wifi_station_shaping(chan, iface, rate_kbps * 1000);
        sim.add_default_route(node, iface);
        sim.add_route(router, v4, 32, router_wifi_if);
        sim.add_route(router, v6, 128, router_wifi_if);

        let daemon = if build_rng.gen_bool(0.5) {
            DaemonKind::Connman
        } else {
            DaemonKind::Dnsmasq
        };
        let protections = base.protections.sample(&mut build_rng);
        let image = match daemon {
            DaemonKind::Connman => Arc::clone(&connman_image),
            DaemonKind::Dnsmasq => Arc::clone(&dnsmasq_image),
        };
        let container = runtime.create(
            format!("rpi-{i}"),
            base.arch,
            node,
            base.commands.clone(),
            ddosim_core::DEV_IMAGE_BASE_BYTES + image.size_bytes,
        );
        let core = ServiceCore::new(
            container.clone(),
            Arc::clone(&image),
            protections,
            image.name.clone(),
            &mut build_rng,
        );
        match daemon {
            DaemonKind::Connman => {
                sim.install_app(
                    node,
                    Box::new(NetMgrDaemon::new(
                        core,
                        SocketAddr::new(attacker_v4, protocols::DNS_PORT),
                        Duration::from_secs(5),
                    )),
                );
            }
            DaemonKind::Dnsmasq => {
                sim.install_app(node, Box::new(DnsProxyDaemon::new(core)));
            }
        }
    }

    // The attack command (telnet into the C&C).
    let command = format!(
        "{} {} {} {}",
        base.attack.vector,
        tserver_v4,
        base.attack.port,
        base.attack.duration.as_secs()
    );
    sim.install_app(
        attacker_node,
        Box::new(AdminConsole::single(
            attacker_v4,
            SimTime::ZERO + base.attack_at,
            command,
        )),
    );

    sim.run_until(SimTime::ZERO + base.sim_time);

    let sink_app = sim
        .app_ref::<TServerSink>(sink)
        .expect("sink app lives for the whole run");
    let avg = sink_app.average_received_data_rate_kbps(base.attack_at, base.attack.duration);
    Ok(TestbedResult {
        devs: base.devs,
        avg_received_data_rate_kbps: avg,
        infected: runtime.infected_count(),
        wifi_collisions: sim.stats().wifi_collisions,
    })
}

/// One paired point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Number of Devs.
    pub devs: usize,
    /// DDoSim (abstract star) average received data rate, kbps.
    pub ddosim_kbps: f64,
    /// Hardware-reference (Wi-Fi contention) average, kbps.
    pub hardware_kbps: f64,
    /// Relative difference `|d − h| / max(h, 1)`.
    pub relative_error: f64,
}

/// Figure 4: DDoSim vs the hardware-reference model over the paper's
/// 1–19 Dev range. Each point averages `replicates` seeded runs of both
/// models (the paper likewise runs multiple experiments per point).
pub fn fig4_with_replicates(
    dev_counts: &[usize],
    base_seed: u64,
    replicates: u64,
) -> Vec<Fig4Point> {
    dev_counts
        .iter()
        .map(|&devs| {
            let mut d_sum = 0.0;
            let mut h_sum = 0.0;
            for rep in 0..replicates.max(1) {
                let base = SimulationConfig {
                    devs,
                    seed: base_seed + rep,
                    sim_time: Duration::from_secs(220),
                    ..SimulationConfig::default()
                };
                let ddosim = ddosim_core::Ddosim::new(base.clone())
                    .expect("valid configuration")
                    .run_to_completion();
                let hardware = run_testbed(TestbedConfig {
                    base,
                    ..TestbedConfig::default()
                })
                .expect("valid configuration");
                d_sum += ddosim.avg_received_data_rate_kbps;
                h_sum += hardware.avg_received_data_rate_kbps;
            }
            let d = d_sum / replicates.max(1) as f64;
            let h = h_sum / replicates.max(1) as f64;
            Fig4Point {
                devs,
                ddosim_kbps: d,
                hardware_kbps: h,
                relative_error: (d - h).abs() / h.max(1.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_infects_and_measures() {
        let base = SimulationConfig {
            devs: 3,
            attack_at: Duration::from_secs(30),
            attack: ddosim_core::AttackSpec::udp_plain(Duration::from_secs(20)),
            sim_time: Duration::from_secs(60),
            attack_ramp: Duration::from_secs(2),
            seed: 5,
            ..SimulationConfig::default()
        };
        let r = run_testbed(TestbedConfig {
            base,
            ..TestbedConfig::default()
        })
        .expect("valid");
        assert_eq!(r.infected, 3, "all Pis recruited");
        assert!(r.avg_received_data_rate_kbps > 50.0, "flood measured");
    }

    #[test]
    fn contention_grows_with_station_count() {
        let run = |devs: usize| {
            let base = SimulationConfig {
                devs,
                attack_at: Duration::from_secs(30),
                attack: ddosim_core::AttackSpec::udp_plain(Duration::from_secs(30)),
                sim_time: Duration::from_secs(70),
                attack_ramp: Duration::from_secs(2),
                seed: 12,
                ..SimulationConfig::default()
            };
            run_testbed(TestbedConfig {
                base,
                ..TestbedConfig::default()
            })
            .expect("valid")
        };
        let few = run(4);
        let many = run(16);
        assert_eq!(few.infected, 4);
        assert_eq!(many.infected, 16);
        assert!(
            many.wifi_collisions > few.wifi_collisions,
            "more stations contend more: {} vs {}",
            few.wifi_collisions,
            many.wifi_collisions
        );
    }

    #[test]
    fn invalid_base_config_is_rejected() {
        let base = SimulationConfig {
            devs: 0,
            ..SimulationConfig::default()
        };
        assert!(run_testbed(TestbedConfig {
            base,
            ..TestbedConfig::default()
        })
        .is_err());
    }

    #[test]
    fn models_agree_at_small_scale() {
        for p in fig4_with_replicates(&[2, 5], 11, 1) {
            assert!(
                p.relative_error < 0.35,
                "devs={} ddosim={:.0} hardware={:.0} err={:.2}",
                p.devs,
                p.ddosim_kbps,
                p.hardware_kbps,
                p.relative_error
            );
        }
    }
}
