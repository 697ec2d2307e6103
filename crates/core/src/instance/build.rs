//! [`Ddosim::new`] as named stages over the handle record. The order of
//! the stages is observable: node ids, `AppId`s, the build RNG's draw
//! order and the seq of each scheduled `Start` all follow it, and the
//! address-plan test, `tests/golden/bench_exact.txt` and the recorded
//! traces pin them. A new install goes where its stage puts it, and a
//! stage draws from the build RNG in the order it always has.

use super::{inject, Ddosim, DevInfo, Handles, PhaseProgress};
use super::{ATTACKER_IMAGE_BYTES, DEV_IMAGE_BASE_BYTES};
use crate::config::{BinaryMix, DaemonKind, Recruitment, SimulationConfig, TopologyKind};
use crate::metrics::{start_sampler, TServerSink};
use attacker::{Dhcpv6Injector, ExploitForge, FileServer, MaliciousDnsServer};
use churn::{ChurnController, ChurnMode, FanChurnModel};
use firmware::{
    CommandSet, ContainerHandle, ContainerRuntime, DnsProxyDaemon, FileEntry, FileKind,
    FsTemplateStore, NetMgrDaemon, ServiceCore,
};
use malware::{AdminConsole, CncServer, TelnetScanner, TelnetService};
use netsim::topology::Fabric;
use netsim::{AppId, Category, LinkConfig, SimTime, Simulator, Telemetry, WifiConfig};
use protocols::{mirai_dictionary, DNS_PORT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;
use tinyvm::catalog;

/// The lab medium `--topology wifi` models (§IV-D): the router's 802.11n
/// PHY rate and the share of frames interference loses — what Fig. 4
/// compares the abstract star against.
const LAB_WIFI_RATE_BPS: u64 = 72_000_000;
const LAB_WIFI_FRAME_LOSS: f64 = 0.01;

/// The world under construction, which every stage installs into.
struct Site<'c> {
    config: &'c SimulationConfig,
    sim: Simulator,
    runtime: ContainerRuntime,
    /// Separate construction RNG: keeps topology sampling independent of
    /// the event-time RNG stream (same seed → same world). The `RngPlan`
    /// can pin this stream so CRN-paired configs build identical worlds.
    rng: SmallRng,
}

impl Ddosim {
    /// Builds the instance from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is invalid.
    pub fn new(config: SimulationConfig) -> Result<Self, String> {
        config.validate()?;
        let (mut site, fabric) = Site::fabric(&config);
        let mut h = site.core_hosts(fabric);
        site.devs(&mut h);
        site.honeypots(&mut h);
        site.attacker_services(&mut h);
        site.controllers(&mut h);
        let Site { sim, runtime, .. } = site;
        let mut world = Ddosim {
            config,
            sim,
            runtime,
            h,
            checkpoint_at: None,
            saved_checkpoint: None,
            progress: PhaseProgress::default(),
        };
        // An empty plan schedules nothing and never reaches the reseed, so
        // every RNG stream matches a plan-free run.
        let config = &world.config;
        if !config.faults.is_empty() {
            world
                .sim
                .reseed_fault_rng(config.rng.fault_seed(config.seed, config.faults.seed));
            inject::schedule(&mut world.sim, &world.h, &config.faults)?;
        }
        schedule_reconciler(&mut world.sim, &world.h, config);
        Ok(world)
    }
}

/// The 100 Mbps access of the attacker and the backup C&C hosts.
fn host_link() -> LinkConfig {
    LinkConfig::new(100_000_000, Duration::from_millis(5)).with_queue_capacity(1 << 20)
}

impl<'c> Site<'c> {
    /// Stage 1: the simulator, its telemetry, the build RNG and the fabric.
    fn fabric(config: &'c SimulationConfig) -> (Self, Fabric) {
        let mut sim = Simulator::new(config.rng.event_seed(config.seed));
        sim.set_telemetry(Telemetry::from_config(&config.telemetry));
        let rng = SmallRng::seed_from_u64(config.rng.world_seed(config.seed));
        let fabric = match config.topology {
            TopologyKind::Star => Fabric::star(&mut sim, "internet"),
            TopologyKind::Tiered {
                regions,
                region_uplink_bps,
            } => Fabric::tiered(
                &mut sim,
                "internet",
                regions,
                LinkConfig::new(region_uplink_bps, Duration::from_millis(5))
                    .with_queue_capacity(256 * 1024),
            ),
            TopologyKind::Wifi => Fabric::wifi(
                &mut sim,
                "router",
                WifiConfig {
                    rate_bps: LAB_WIFI_RATE_BPS,
                    loss_probability: LAB_WIFI_FRAME_LOSS,
                    ..WifiConfig::default()
                },
            ),
        };
        let site = Site {
            config,
            sim,
            runtime: ContainerRuntime::new(),
            rng,
        };
        (site, fabric)
    }

    /// Stage 2: the Attacker (component 1) with its C&C, TServer
    /// (component 3) with its sink, and the backup C&C hosts. The rest of
    /// the attacker's services wait for stage 5, because the served bot
    /// binaries may embed the Devs' addresses (worm mode).
    fn core_hosts(&mut self, mut fabric: Fabric) -> Handles {
        let (config, sim) = (self.config, &mut self.sim);
        let attacker_node = sim.add_node("attacker");
        let attacker = fabric.attach_core(sim, attacker_node, host_link());
        let attacker_container = self.runtime.create(
            "attacker",
            config.arch,
            attacker_node,
            CommandSet::standard(),
            ATTACKER_IMAGE_BYTES,
        );
        attacker_container.register_proc("cnc", None, vec![protocols::CNC_PORT]);
        attacker_container.register_proc("apache2", None, vec![protocols::HTTP_PORT]);
        sim.telemetry().record_event(
            0,
            Some(attacker_node.index() as u32),
            Category::ContainerStart,
            || {
                format!(
                    "container attacker ({}) started, image {ATTACKER_IMAGE_BYTES}B",
                    config.arch.suffix()
                )
            },
        );

        let tserver_node = sim.add_node("tserver");
        let tserver = fabric.attach_core(
            sim,
            tserver_node,
            LinkConfig::new(config.tserver_link_bps, Duration::from_millis(2))
                .with_queue_capacity(config.tserver_queue_bytes),
        );
        let sink = sim.install_app(tserver_node, Box::new(TServerSink::new(config.attack.port)));
        let cnc = sim.install_app(attacker_node, Box::new(CncServer::new()));

        // Takedown resilience: standby C&Cs the bots fall back to.
        let mut backup_cncs = Vec::with_capacity(usize::from(config.backup_cncs));
        for i in 0..usize::from(config.backup_cncs) {
            let node = sim.add_node(format!("cnc-backup-{i}"));
            let member = fabric.attach_core(sim, node, host_link());
            let app = sim.install_app(node, Box::new(CncServer::new()));
            let addr = SocketAddr::new(member.addr_v4, protocols::CNC_PORT);
            sim.telemetry().record_event(
                0,
                Some(node.index() as u32),
                Category::CncRegister,
                || format!("backup C&C {i} standing by at {addr}"),
            );
            backup_cncs.push((node, app, addr));
        }
        Handles {
            devs: Vec::with_capacity(config.devs),
            attacker,
            attacker_container,
            tserver,
            sink,
            cnc,
            dns_server: None,
            dhcp_injector: None,
            scanner: None,
            churn_ctl: None,
            honeypots: Vec::new(),
            backup_cncs,
            fabric,
        }
    }

    /// Stage 3: the Devs (component 2), each drawing its access rate,
    /// daemon, protections, daemon layout and telnet credential from the
    /// build RNG, in that order.
    fn devs(&mut self, h: &mut Handles) {
        let config = self.config;
        let connman_image = Arc::new(catalog::connman_image(config.arch));
        let dnsmasq_image = Arc::new(catalog::dnsmasq_image(config.arch));
        // Every dev built from the same firmware image shares one
        // content-addressed filesystem template (the daemon binary under
        // /usr/sbin); per-device filesystems are copy-on-write overlays.
        // The daemon binary's bytes are charged through the filesystem, so
        // per-container accounting is unchanged — only the storage is
        // deduplicated.
        let mut fs_templates = FsTemplateStore::new();
        let mut daemon_template = |image: &tinyvm::BinaryImage| {
            fs_templates.intern(std::collections::BTreeMap::from([(
                format!("/usr/sbin/{}", image.name),
                FileEntry {
                    kind: FileKind::Data,
                    size_bytes: image.size_bytes,
                    executable: true,
                },
            )]))
        };
        let connman_template = daemon_template(&connman_image);
        let dnsmasq_template = daemon_template(&dnsmasq_image);
        // Baseline / worm recruitment: Devs expose telnet, a fraction with
        // dictionary credentials.
        let cred_fraction = match config.recruitment {
            Recruitment::CredentialScanner {
                default_credential_fraction,
            }
            | Recruitment::SelfPropagating {
                default_credential_fraction,
                ..
            } => Some(default_credential_fraction),
            Recruitment::MemoryError => None,
        };
        let dictionary = mirai_dictionary();
        for i in 0..config.devs {
            let sim = &mut self.sim;
            let node = sim.add_node(format!("dev-{i}"));
            let rate_kbps = self
                .rng
                .gen_range(*config.access_rate_kbps.start()..=*config.access_rate_kbps.end());
            let member = h.fabric.attach_dev(
                sim,
                i,
                node,
                LinkConfig::new(rate_kbps * 1000, config.access_delay),
            );
            let daemon = match config.binary_mix {
                BinaryMix::ConnmanOnly => DaemonKind::Connman,
                BinaryMix::DnsmasqOnly => DaemonKind::Dnsmasq,
                BinaryMix::Mixed { connman_fraction } => {
                    if self.rng.gen_bool(connman_fraction.clamp(0.0, 1.0)) {
                        DaemonKind::Connman
                    } else {
                        DaemonKind::Dnsmasq
                    }
                }
            };
            let protections = config.protections.sample(&mut self.rng);
            let (image, template) = match daemon {
                DaemonKind::Connman => (&connman_image, &connman_template),
                DaemonKind::Dnsmasq => (&dnsmasq_image, &dnsmasq_template),
            };
            let container = self.runtime.create_from_template(
                format!("dev-{i}"),
                config.arch,
                node,
                config.commands.clone(),
                DEV_IMAGE_BASE_BYTES,
                Arc::clone(template),
            );
            // Reported image size still counts the daemon binary (it now
            // lives in the shared filesystem template).
            let image_bytes = DEV_IMAGE_BASE_BYTES + image.size_bytes;
            sim.telemetry().record_event(
                0,
                Some(node.index() as u32),
                Category::ContainerStart,
                || {
                    format!(
                        "container dev-{i} ({}, {daemon:?}) started, image {image_bytes}B",
                        config.arch.suffix()
                    )
                },
            );
            let core = ServiceCore::new(
                container.clone(),
                Arc::clone(image),
                protections,
                image.name.clone(),
                &mut self.rng,
            );
            let daemon_app = match daemon {
                DaemonKind::Connman => sim.install_app(
                    node,
                    Box::new(NetMgrDaemon::new(
                        core,
                        SocketAddr::new(h.attacker.addr_v4, DNS_PORT),
                        Duration::from_secs(5),
                    )),
                ),
                DaemonKind::Dnsmasq => sim.install_app(node, Box::new(DnsProxyDaemon::new(core))),
            };
            if let Some(fraction) = cred_fraction {
                let credential = self
                    .rng
                    .gen_bool(fraction.clamp(0.0, 1.0))
                    .then(|| dictionary[self.rng.gen_range(0..dictionary.len())].clone());
                sim.install_app(
                    node,
                    Box::new(TelnetService::new(container.clone(), credential)),
                );
            }
            h.devs.push(DevInfo {
                node,
                addr_v4: member.addr_v4,
                addr_v6: member.addr_v6,
                daemon,
                protections,
                access_rate_kbps: rate_kbps,
                container,
                daemon_app,
            });
        }
    }

    /// Stage 4: the honeypots (defense: attract-and-blocklist), after the
    /// Devs so they never displace worm seed targets. Their fixed link
    /// draws nothing from the build RNG, so `honeypots = 0` worlds stay
    /// bit-identical to pre-honeypot builds.
    fn honeypots(&mut self, h: &mut Handles) {
        let config = self.config;
        for i in 0..usize::from(config.honeypots) {
            let node = self.sim.add_node(format!("honeypot-{i}"));
            let member = h.fabric.attach_dev(
                &mut self.sim,
                config.devs + i,
                node,
                LinkConfig::new(500_000, config.access_delay),
            );
            let app = self
                .sim
                .install_app(node, Box::new(crate::honeypot::Honeypot::new()));
            self.sim.telemetry().record_event(
                0,
                Some(node.index() as u32),
                Category::Honeypot,
                || format!("honeypot-{i} deployed at {}", member.addr_v4),
            );
            h.honeypots.push((node, app, member.addr_v4));
        }
    }

    /// Stage 5: the attacker's file server (infection script + per-arch
    /// bot binaries) and its recruitment path.
    fn attacker_services(&mut self, h: &mut Handles) {
        let config = self.config;
        let (attacker_node, attacker_v4) = (h.attacker.node, h.attacker.addr_v4);
        let stage1 = malware::stage1_command(attacker_v4);
        // Every Dev serves telnet under the scanner and worm recruitments;
        // the honeypots sit behind them.
        let telnet_targets: Vec<IpAddr> = match config.recruitment {
            Recruitment::MemoryError => Vec::new(),
            _ => h
                .devs
                .iter()
                .map(|d| d.addr_v4)
                .chain(h.honeypots.iter().map(|&(_, _, addr)| addr))
                .collect(),
        };
        let propagation = match config.recruitment {
            Recruitment::SelfPropagating { .. } => Some(malware::PropagationConfig {
                targets: Arc::new(telnet_targets.clone()),
                dictionary: mirai_dictionary(),
                payload_command: stage1.clone(),
            }),
            _ => None,
        };
        let cnc_addr = SocketAddr::new(attacker_v4, protocols::CNC_PORT);
        let fallback_chain: Vec<SocketAddr> =
            h.backup_cncs.iter().map(|&(_, _, addr)| addr).collect();
        let mut served = vec![malware::infection_script(attacker_v4)];
        for arch in [tinyvm::Arch::X86_64, tinyvm::Arch::Arm7, tinyvm::Arch::Mips] {
            served.push(malware::mirai_binary_file_with_fallbacks(
                arch,
                cnc_addr,
                fallback_chain.clone(),
                config.flood_rate_bps,
                config.attack_ramp,
                propagation.clone(),
            ));
        }
        let sim = &mut self.sim;
        sim.install_app(attacker_node, Box::new(FileServer::new(served)));

        let mut scanner = |targets| {
            let scan = TelnetScanner::new(targets, mirai_dictionary(), stage1.clone());
            Some(sim.install_app(attacker_node, Box::new(scan)))
        };
        match config.recruitment {
            Recruitment::MemoryError => {
                let forge =
                    |image| ExploitForge::new(Arc::new(image), config.strategy, stage1.clone());
                let connman_forge = forge(catalog::connman_image(config.arch));
                let dnsmasq_forge = forge(catalog::dnsmasq_image(config.arch));
                h.dns_server = Some(sim.install_app(
                    attacker_node,
                    Box::new(MaliciousDnsServer::new(connman_forge)),
                ));
                h.dhcp_injector = Some(sim.install_app(
                    attacker_node,
                    Box::new(Dhcpv6Injector::new(dnsmasq_forge, Duration::from_secs(5))),
                ));
            }
            Recruitment::CredentialScanner { .. } => h.scanner = scanner(telnet_targets),
            // The attacker scans only the seed devices; the worm does the
            // rest.
            Recruitment::SelfPropagating { seeds, .. } => {
                h.scanner = scanner(telnet_targets.into_iter().take(seeds).collect());
            }
        }
    }

    /// Stage 6: the reboot and churn controllers (on the always-up fabric
    /// node), the admin console that issues the attack command, and the
    /// telemetry metrics sampler.
    fn controllers(&mut self, h: &mut Handles) {
        let (config, sim) = (self.config, &mut self.sim);
        if config.reboot_rate_per_min > 0.0 {
            sim.install_app(
                h.fabric.root(),
                Box::new(crate::reboot::RebootController::new(
                    h.devs
                        .iter()
                        .map(|d| (d.node, d.container.clone()))
                        .collect(),
                    config.reboot_rate_per_min,
                )),
            );
        }
        h.churn_ctl = match config.churn {
            ChurnMode::None => None,
            mode => Some(sim.install_app(
                h.fabric.root(),
                Box::new(ChurnController::new(
                    FanChurnModel::PAPER,
                    mode,
                    h.devs.iter().map(|d| d.node).collect(),
                )),
            )),
        };

        // The attack command: the admin's telnet line into the C&C (§IV-A).
        let attack_target = if config.attack_over_ipv6 {
            h.tserver.addr_v6
        } else {
            h.tserver.addr_v4
        };
        let mut command = format!(
            "{} {} {} {}",
            config.attack.vector,
            attack_target,
            config.attack.port,
            config.attack.duration.as_secs()
        );
        if let Some(len) = config.attack.payload_bytes {
            command.push_str(&format!(" {len}"));
        }
        // Reflection vectors need a reflector address; the attacker's own
        // malicious resolver doubles as the open resolver, so append it
        // (the admin syntax accepts a lone trailing IP as the reflector).
        if config.attack.vector.needs_reflector() {
            command.push_str(&format!(" {}", h.attacker.addr_v4));
        }
        let mut schedule = vec![(SimTime::ZERO + config.attack_at, command)];
        for (at, line) in &config.admin_script {
            schedule.push((SimTime::ZERO + *at, line.clone()));
        }
        sim.install_app(
            h.attacker.node,
            Box::new(AdminConsole::new(h.attacker.addr_v4, schedule)),
        );

        if let Some(interval) = config.telemetry.metrics_interval {
            let devs = h.devs.iter().map(|d| d.container.clone()).collect();
            start_sampler(sim, interval, config.sim_time, h.tserver.node, devs);
        }
    }
}

/// Every Dev the reconciler checks, with its two addresses: one list,
/// shared by every tick (a fork shares one translated copy).
type ReconcileList = Rc<[(ContainerHandle, IpAddr, IpAddr)]>;

/// Stage 7, after the fault plan: the attacker-operator reconciliation
/// loop. Every 10 s until the attack ends, devices whose bot is gone get
/// their "exploited" mark cleared so the exploit exchange restarts (covers
/// lost exploit packets and devices that churned away mid-infection).
fn schedule_reconciler(sim: &mut Simulator, h: &Handles, config: &SimulationConfig) {
    let (Some(dns), Some(dhcp)) = (h.dns_server, h.dhcp_injector) else {
        return;
    };
    let devs: ReconcileList = h
        .devs
        .iter()
        .map(|d| (d.container.clone(), d.addr_v4, d.addr_v6))
        .collect();
    // With reboots enabled, devices become susceptible again at any point,
    // so the operator keeps reconciling for the whole run.
    let horizon = if config.reboot_rate_per_min > 0.0 {
        config.sim_time
    } else {
        config.attack_at + config.attack.duration
    };
    let mut t = Duration::from_secs(10);
    while t < horizon {
        sim.schedule_forkable_call(
            SimTime::ZERO + t,
            "attacker.reconcile",
            (dns, dhcp, Rc::clone(&devs)),
            reconcile_tick,
        );
        t += Duration::from_secs(10);
    }
}

fn reconcile_tick(sim: &mut Simulator, data: (AppId, AppId, ReconcileList)) {
    let (dns, dhcp, devs) = data;
    for (container, v4, v6) in devs.iter() {
        if !container.bot_alive() {
            if let Some(srv) = sim.app_mut::<MaliciousDnsServer>(dns) {
                srv.forget(*v4);
            }
            if let Some(inj) = sim.app_mut::<Dhcpv6Injector>(dhcp) {
                inj.forget(*v6);
            }
        }
    }
}
