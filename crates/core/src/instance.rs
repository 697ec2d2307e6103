//! Assembly and execution of one DDoSim run: the Attacker, Devs, and
//! TServer components wired over the simulated network (Fig. 1 of the
//! paper).

use crate::checkpoint::{self, Checkpoint};
use crate::config::{BinaryMix, DaemonKind, Recruitment, SimulationConfig};
use crate::metrics::{bytes_to_gb, MemoryModel, TServerSink};
use crate::result::{ChurnSummary, RunResult};
use attacker::{Dhcpv6Injector, ExploitForge, FileServer, MaliciousDnsServer};
use churn::{ChurnController, ChurnMode, FanChurnModel};
use firmware::{
    CommandSet, ContainerHandle, ContainerRuntime, DnsProxyDaemon, FileEntry, FileKind,
    FsTemplateStore, NetMgrDaemon, ServiceCore,
};
use malware::{AdminConsole, CncServer, TelnetScanner, TelnetService};
use crate::config::TopologyKind;
use netsim::topology::{Fabric, Member};
use netsim::{
    AppId, Category, ForkClone, ForkMap, LinkConfig, LinkId, NodeId, SimTime, Simulator,
    Telemetry, WifiConfig,
};
use protocols::{mirai_dictionary, Credential, DNS_PORT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tinyvm::catalog;

/// Base image bytes of a Dev container (OS layers + busybox), excluding the
/// daemon binary. Calibrated so total per-Dev memory lands in the paper's
/// ≈8.5 MB/Dev regime (Table I).
pub const DEV_IMAGE_BASE_BYTES: u64 = 6_500_000;

/// Image bytes of the Attacker container (C&C, Apache, exploit tooling).
pub const ATTACKER_IMAGE_BYTES: u64 = 60_000_000;

// Per-subsystem layer tags folded into a fork's re-derived RNG seeds
// (`sim_seed ^ fork_seed ^ TAG`): distinct tags keep the event-time and
// fault streams decorrelated from each other and from the parent.
const FORK_TAG_MAIN: u64 = 0xF0_8C01;
const FORK_TAG_FAULT: u64 = 0xF0_8C02;

/// One Dev's identity and configuration within a run.
#[derive(Debug, Clone)]
pub struct DevInfo {
    /// The Dev's ghost node.
    pub node: NodeId,
    /// IPv4 address.
    pub addr_v4: IpAddr,
    /// IPv6 address.
    pub addr_v6: IpAddr,
    /// Which daemon the Dev runs.
    pub daemon: DaemonKind,
    /// Memory protections of the daemon process.
    pub protections: tinyvm::Protections,
    /// Access-link rate in kbps.
    pub access_rate_kbps: u64,
    /// The Dev's container.
    pub container: ContainerHandle,
    /// The daemon application.
    pub daemon_app: AppId,
}

/// State threaded through the self-rescheduling metrics sampler. The
/// telemetry handle is read off the simulator at each tick (not stored
/// here) so a forked world samples into *its* recorder, not the parent's.
struct SamplerState {
    interval: Duration,
    horizon: SimTime,
    tserver: NodeId,
    devs: Vec<ContainerHandle>,
    prev_sent: u64,
    prev_rx_bytes: u64,
}

impl ForkClone for SamplerState {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        SamplerState {
            interval: self.interval,
            horizon: self.horizon,
            tserver: self.tserver,
            devs: self.devs.fork_clone(map),
            prev_sent: self.prev_sent,
            prev_rx_bytes: self.prev_rx_bytes,
        }
    }
}

/// One metrics sample: fixed-interval bins of per-run rates and gauges
/// (the series Fig. 2/Fig. 3 style plots can bin directly).
fn sample_tick(sim: &mut Simulator, mut st: SamplerState) {
    let sent = sim.stats().packets_sent;
    let rx_bytes = sim.node(st.tserver).rx_bytes();
    let buffered = sim.buffered_bytes();
    let tserver_queue = sim.node_link_buffered_bytes(st.tserver);
    let bots = st.devs.iter().filter(|c| c.bot_alive()).count();
    let infected = st.devs.iter().filter(|c| c.is_infected()).count();
    sim.telemetry().with_metrics(|set| {
        set.series_mut("tx_packets").push((sent - st.prev_sent) as f64);
        set.series_mut("tserver_rx_bytes").push((rx_bytes - st.prev_rx_bytes) as f64);
        set.series_mut("buffered_bytes").push(buffered as f64);
        set.series_mut("tserver_queue_bytes").push(tserver_queue as f64);
        set.series_mut("bot_population").push(bots as f64);
        set.series_mut("infected_devices").push(infected as f64);
    });
    st.prev_sent = sent;
    st.prev_rx_bytes = rx_bytes;
    if sim.now() + st.interval <= st.horizon {
        let iv = st.interval;
        sim.schedule_forkable_call_after(iv, "metrics.sample", st, sample_tick);
    }
}

/// Records a planned fault firing in the flight recorder.
fn record_fault(sim: &Simulator, node: NodeId, detail: String) {
    let now = sim.now().as_nanos();
    sim.telemetry()
        .record_event(now, Some(node.index() as u32), Category::Fault, || detail);
}

// Fault-plan handlers: plain `fn` pointers over ForkClone data (instead of
// opaque closures) so pending faults survive `Ddosim::fork`.

fn fault_link_admin(sim: &mut Simulator, data: (NodeId, Vec<LinkId>, bool, String)) {
    let (node_id, links, up, detail) = data;
    record_fault(sim, node_id, detail);
    for link in links {
        sim.set_link_admin(link, up);
    }
}

fn fault_link_loss(sim: &mut Simulator, data: (NodeId, Vec<LinkId>, f64, String)) {
    let (node_id, links, p, detail) = data;
    record_fault(sim, node_id, detail);
    for link in links {
        sim.set_link_loss(link, p);
    }
}

fn fault_node_crash(sim: &mut Simulator, data: (NodeId, Option<ContainerHandle>, String)) {
    let (node_id, container, detail) = data;
    record_fault(sim, node_id, detail);
    // Power off first: a hard crash is silent on the wire, so the node
    // must be down (stack reset) before app removal, or removal would FIN
    // the bot's C&C connection like a graceful exit.
    sim.set_node_admin(node_id, false);
    if let Some(c) = &container {
        for app in c.reboot(sim.now(), &crate::reboot::DAEMON_NAMES) {
            sim.remove_app(app);
        }
    }
}

fn fault_node_restore(sim: &mut Simulator, data: (NodeId, String)) {
    let (node_id, detail) = data;
    record_fault(sim, node_id, detail);
    sim.set_node_admin(node_id, true);
}

fn fault_cnc_outage(sim: &mut Simulator, data: (NodeId, Option<Duration>, String)) {
    let (node_id, duration, detail) = data;
    record_fault(sim, node_id, detail);
    sim.set_node_admin(node_id, false);
    if let Some(d) = duration {
        sim.schedule_forkable_call_after(d, "fault.cnc_outage_end", node_id, fault_cnc_outage_end);
    }
}

fn fault_cnc_outage_end(sim: &mut Simulator, node_id: NodeId) {
    record_fault(
        sim,
        node_id,
        "cnc_outage ended (attacker host restarts)".to_owned(),
    );
    sim.set_node_admin(node_id, true);
}

fn fault_container_kill(sim: &mut Simulator, data: (NodeId, ContainerHandle, String)) {
    let (node_id, container, detail) = data;
    record_fault(sim, node_id, detail);
    for app in container.reboot(sim.now(), &crate::reboot::DAEMON_NAMES) {
        sim.remove_app(app);
    }
}

/// The attacker-operator reconciliation tick: devices whose bot is gone
/// get their "exploited" marks cleared so the exploit exchange restarts.
fn reconcile_tick(
    sim: &mut Simulator,
    data: (AppId, AppId, Vec<(ContainerHandle, IpAddr, IpAddr)>),
) {
    let (dns, dhcp, devs) = data;
    for (container, v4, v6) in &devs {
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

/// Compares two [`Ddosim::state_digests`] lists layer by layer and
/// describes the first difference, naming the layer — the one check
/// behind fork ≡ parent and resume ≡ checkpoint.
fn first_digest_mismatch(expected: &[(String, u64)], got: &[(String, u64)]) -> Option<String> {
    for (i, (layer, want)) in expected.iter().enumerate() {
        match got.get(i) {
            Some((l, have)) if l == layer && have == want => {}
            Some((l, have)) if l == layer => {
                return Some(format!(
                    "layer '{layer}' digests {have:#018x}, expected {want:#018x}"
                ))
            }
            _ => return Some(format!("layer '{layer}' is expected but not digested here")),
        }
    }
    (got.len() > expected.len())
        .then(|| format!("layer '{}' is digested here but not expected", got[expected.len()].0))
}

/// The lab medium `--topology wifi` models (§IV-D): the router's 802.11n
/// PHY rate and the share of frames interference loses — what Fig. 4
/// compares the abstract star against.
const LAB_WIFI_RATE_BPS: u64 = 72_000_000;
const LAB_WIFI_FRAME_LOSS: f64 = 0.01;

/// Snapshot taken when the run crosses the attack start (Table I's
/// pre-attack column and the §IV-B infection counters).
#[derive(Debug, Clone, Copy)]
struct PreAttackSnapshot {
    container_bytes: u64,
    packets: u64,
    infected: usize,
    bots: usize,
}

/// Snapshot taken when the run crosses the attack end.
#[derive(Debug, Clone, Copy)]
struct AttackSnapshot {
    container_bytes: u64,
    /// Packets sent during the attack window.
    packets: u64,
}

/// Resumable phase-walk bookkeeping: which phase boundaries have been
/// crossed (marks emitted, measurements taken). `Copy`, so a fork carries
/// its parent's progress and the continuation emits exactly the marks a
/// straight-through run would — no double marks, none missing.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseProgress {
    init_marked: bool,
    pre_attack: Option<PreAttackSnapshot>,
    attack: Option<AttackSnapshot>,
    /// Wall-clock accumulated inside the attack window (split across
    /// prefix and suffix when a fork lands mid-window).
    attack_wall: Duration,
    complete: bool,
}

/// A fully-assembled DDoSim instance (Attacker + Devs + TServer on the
/// simulated network), ready to run.
#[derive(Debug)]
pub struct Ddosim {
    config: SimulationConfig,
    sim: Simulator,
    runtime: ContainerRuntime,
    devs: Vec<DevInfo>,
    attacker_node: NodeId,
    attacker_v4: IpAddr,
    attacker_container: ContainerHandle,
    tserver_node: NodeId,
    tserver_v4: IpAddr,
    sink: AppId,
    cnc: AppId,
    dns_server: Option<AppId>,
    dhcp_injector: Option<AppId>,
    scanner: Option<AppId>,
    churn_ctl: Option<AppId>,
    honeypots: Vec<(NodeId, AppId, IpAddr)>,
    backup_cncs: Vec<(NodeId, AppId, SocketAddr)>,
    memory_model: MemoryModel,
    fabric: Fabric,
    checkpoint_at: Option<Duration>,
    saved_checkpoint: Option<Checkpoint>,
    progress: PhaseProgress,
}

impl Ddosim {
    /// Rebuilds a checkpointed run as a live world at the snapshot time:
    /// a verified re-run. The world is built from the configuration
    /// embedded in the checkpoint (telemetry live, so its collectors fill
    /// exactly as the original run's did), walked to `cp.at` with
    /// [`Ddosim::run_prefix`], and every layer's state digest and the
    /// flight-recorder count are compared against the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a message if the embedded configuration fails validation
    /// or the re-run diverges from the checkpoint (naming the layer).
    pub fn resume_from(cp: Checkpoint) -> Result<Self, String> {
        let mut instance = Self::new(cp.config)?;
        instance.run_prefix(cp.at)?;
        let diverged = |what: String| {
            format!(
                "resume diverged from the checkpoint at {:.3}s: {what} (was the \
                 world rebuilt from the same configuration and binary?)",
                cp.at.as_secs_f64()
            )
        };
        if let Some(mismatch) = first_digest_mismatch(&cp.digests, &instance.state_digests()) {
            return Err(diverged(mismatch));
        }
        let recorded = instance.telemetry().events_recorded();
        if recorded != cp.events_recorded {
            return Err(diverged(format!(
                "{recorded} flight-recorder events != checkpointed {}",
                cp.events_recorded
            )));
        }
        Ok(instance)
    }

    /// Arms a checkpoint: the next run call that reaches `at` stops the
    /// phase walk there ([`Ddosim::run_prefix`]), digests the full world
    /// state, and produces a [`Checkpoint`] alongside the run result.
    pub fn set_checkpoint_at(&mut self, at: Duration) {
        self.checkpoint_at = Some(at);
    }

    /// Builds the instance from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is invalid.
    pub fn new(config: SimulationConfig) -> Result<Self, String> {
        config.validate()?;
        let mut sim = Simulator::new(config.rng.event_seed(config.seed));
        let telemetry = Telemetry::from_config(&config.telemetry);
        sim.set_telemetry(telemetry.clone());
        // Separate construction RNG: keeps topology sampling independent of
        // the event-time RNG stream (same seed → same world). The RngPlan
        // can pin this stream so CRN-paired configs build identical worlds.
        let mut build_rng = SmallRng::seed_from_u64(config.rng.world_seed(config.seed));
        let mut fabric = match config.topology {
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
        let mut runtime = ContainerRuntime::new();

        // ---- Attacker (component 1) ----
        let attacker_node = sim.add_node("attacker");
        let attacker_m = fabric.attach_core(
            &mut sim,
            attacker_node,
            LinkConfig::new(100_000_000, Duration::from_millis(5))
                .with_queue_capacity(1 << 20),
        );
        let attacker_container = runtime.create(
            "attacker",
            config.arch,
            attacker_node,
            CommandSet::standard(),
            ATTACKER_IMAGE_BYTES,
        );
        attacker_container.register_proc("cnc", None, vec![protocols::CNC_PORT]);
        attacker_container.register_proc("apache2", None, vec![protocols::HTTP_PORT]);
        telemetry.record_event(0, Some(attacker_node.index() as u32), Category::ContainerStart, || {
            format!(
                "container attacker ({}) started, image {ATTACKER_IMAGE_BYTES}B",
                config.arch.suffix()
            )
        });

        // ---- TServer (component 3) ----
        let tserver_node = sim.add_node("tserver");
        let tserver_m = fabric.attach_core(
            &mut sim,
            tserver_node,
            LinkConfig::new(config.tserver_link_bps, Duration::from_millis(2))
                .with_queue_capacity(config.tserver_queue_bytes),
        );
        let sink = sim.install_app(
            tserver_node,
            Box::new(TServerSink::new(config.attack.port)),
        );

        // ---- Attacker services ----
        // The C&C starts now; the file server and exploit/scanner apps are
        // installed after the Devs exist, because the served bot binaries
        // may embed the subnet map (worm mode).
        let cnc = sim.install_app(attacker_node, Box::new(CncServer::new()));
        let cnc_addr = SocketAddr::new(attacker_m.addr_v4, protocols::CNC_PORT);
        let stage1 = malware::stage1_command(attacker_m.addr_v4);

        // ---- Backup C&C hosts (takedown resilience) ----
        // Created before the file server so their addresses can be
        // compiled into the served binaries as the fallback chain.
        let mut backup_cncs = Vec::with_capacity(usize::from(config.backup_cncs));
        for i in 0..usize::from(config.backup_cncs) {
            let node = sim.add_node(format!("cnc-backup-{i}"));
            let member = fabric.attach_core(
                &mut sim,
                node,
                LinkConfig::new(100_000_000, Duration::from_millis(5))
                    .with_queue_capacity(1 << 20),
            );
            let app = sim.install_app(node, Box::new(CncServer::new()));
            let addr = SocketAddr::new(member.addr_v4, protocols::CNC_PORT);
            telemetry.record_event(0, Some(node.index() as u32), Category::CncRegister, || {
                format!("backup C&C {i} standing by at {addr}")
            });
            backup_cncs.push((node, app, addr));
        }
        let fallback_chain: Vec<SocketAddr> =
            backup_cncs.iter().map(|&(_, _, addr)| addr).collect();

        // ---- Devs (component 2) ----
        let mut devs = Vec::with_capacity(config.devs);
        let connman_image = Arc::new(catalog::connman_image(config.arch));
        let dnsmasq_image = Arc::new(catalog::dnsmasq_image(config.arch));
        // Every dev built from the same firmware image shares one
        // content-addressed filesystem template (the daemon binary under
        // /usr/sbin); per-device filesystems are copy-on-write overlays.
        // The daemon binary's bytes are charged through the filesystem, so
        // per-container accounting is unchanged — only the storage is
        // deduplicated.
        let mut fs_templates = FsTemplateStore::new();
        let daemon_template = |store: &mut FsTemplateStore, image: &tinyvm::BinaryImage| {
            store.intern(std::collections::BTreeMap::from([(
                format!("/usr/sbin/{}", image.name),
                FileEntry {
                    kind: FileKind::Data,
                    size_bytes: image.size_bytes,
                    executable: true,
                },
            )]))
        };
        let connman_template = daemon_template(&mut fs_templates, &connman_image);
        let dnsmasq_template = daemon_template(&mut fs_templates, &dnsmasq_image);
        let mut telnet_targets = Vec::new();
        for i in 0..config.devs {
            let node = sim.add_node(format!("dev-{i}"));
            let rate_kbps = build_rng
                .gen_range(*config.access_rate_kbps.start()..=*config.access_rate_kbps.end());
            let member = fabric.attach_dev(
                &mut sim,
                i,
                node,
                LinkConfig::new(rate_kbps * 1000, config.access_delay),
            );
            let daemon = match config.binary_mix {
                BinaryMix::ConnmanOnly => DaemonKind::Connman,
                BinaryMix::DnsmasqOnly => DaemonKind::Dnsmasq,
                BinaryMix::Mixed { connman_fraction } => {
                    if build_rng.gen_bool(connman_fraction.clamp(0.0, 1.0)) {
                        DaemonKind::Connman
                    } else {
                        DaemonKind::Dnsmasq
                    }
                }
            };
            let protections = config.protections.sample(&mut build_rng);
            let image = match daemon {
                DaemonKind::Connman => Arc::clone(&connman_image),
                DaemonKind::Dnsmasq => Arc::clone(&dnsmasq_image),
            };
            let template = match daemon {
                DaemonKind::Connman => Arc::clone(&connman_template),
                DaemonKind::Dnsmasq => Arc::clone(&dnsmasq_template),
            };
            let container = runtime.create_from_template(
                format!("dev-{i}"),
                config.arch,
                node,
                config.commands.clone(),
                DEV_IMAGE_BASE_BYTES,
                template,
            );
            // Reported image size still counts the daemon binary (it now
            // lives in the shared filesystem template).
            let image_bytes = DEV_IMAGE_BASE_BYTES + image.size_bytes;
            telemetry.record_event(0, Some(node.index() as u32), Category::ContainerStart, || {
                format!(
                    "container dev-{i} ({}, {daemon:?}) started, image {image_bytes}B",
                    config.arch.suffix()
                )
            });
            let core = ServiceCore::new(
                container.clone(),
                Arc::clone(&image),
                protections,
                image.name.clone(),
                &mut build_rng,
            );
            let daemon_app = match daemon {
                DaemonKind::Connman => sim.install_app(
                    node,
                    Box::new(NetMgrDaemon::new(
                        core,
                        SocketAddr::new(attacker_m.addr_v4, DNS_PORT),
                        Duration::from_secs(5),
                    )),
                ),
                DaemonKind::Dnsmasq => {
                    sim.install_app(node, Box::new(DnsProxyDaemon::new(core)))
                }
            };
            // Baseline / worm recruitment: Devs expose telnet, a fraction
            // with dictionary credentials.
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
            if let Some(fraction) = cred_fraction {
                let dictionary = mirai_dictionary();
                let credential: Option<Credential> =
                    if build_rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                        let i = build_rng.gen_range(0..dictionary.len());
                        Some(dictionary[i].clone())
                    } else {
                        None
                    };
                sim.install_app(
                    node,
                    Box::new(TelnetService::new(container.clone(), credential)),
                );
                telnet_targets.push(member.addr_v4);
            }
            devs.push(DevInfo {
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

        // ---- Honeypots (defense: attract-and-blocklist) ----
        // Attached after the Devs so they never displace worm seed targets;
        // the fixed link config draws nothing from `build_rng`, keeping
        // `honeypots = 0` worlds bit-identical to pre-honeypot builds.
        let mut honeypots = Vec::with_capacity(usize::from(config.honeypots));
        for i in 0..usize::from(config.honeypots) {
            let node = sim.add_node(format!("honeypot-{i}"));
            let member = fabric.attach_dev(
                &mut sim,
                config.devs + i,
                node,
                LinkConfig::new(500_000, config.access_delay),
            );
            let app = sim.install_app(node, Box::new(crate::honeypot::Honeypot::new()));
            telemetry.record_event(0, Some(node.index() as u32), Category::Honeypot, || {
                format!("honeypot-{i} deployed at {}", member.addr_v4)
            });
            telnet_targets.push(member.addr_v4);
            honeypots.push((node, app, member.addr_v4));
        }

        // ---- File server: infection script + per-arch bot binaries ----
        let propagation = match config.recruitment {
            Recruitment::SelfPropagating { .. } => Some(malware::PropagationConfig {
                targets: Arc::new(
                    devs.iter()
                        .map(|d| d.addr_v4)
                        .chain(honeypots.iter().map(|&(_, _, addr)| addr))
                        .collect(),
                ),
                dictionary: mirai_dictionary(),
                payload_command: stage1.clone(),
            }),
            _ => None,
        };
        let mut served = vec![malware::infection_script(attacker_m.addr_v4)];
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
        sim.install_app(attacker_node, Box::new(FileServer::new(served)));

        // ---- Recruitment path ----
        let (dns_server, dhcp_injector, scanner) = match config.recruitment {
            Recruitment::MemoryError => {
                let connman_forge = ExploitForge::new(
                    Arc::new(catalog::connman_image(config.arch)),
                    config.strategy,
                    stage1.clone(),
                );
                let dnsmasq_forge = ExploitForge::new(
                    Arc::new(catalog::dnsmasq_image(config.arch)),
                    config.strategy,
                    stage1.clone(),
                );
                let dns = sim.install_app(
                    attacker_node,
                    Box::new(MaliciousDnsServer::new(connman_forge)),
                );
                let dhcp = sim.install_app(
                    attacker_node,
                    Box::new(Dhcpv6Injector::new(dnsmasq_forge, Duration::from_secs(5))),
                );
                (Some(dns), Some(dhcp), None)
            }
            Recruitment::CredentialScanner { .. } => {
                let scanner = sim.install_app(
                    attacker_node,
                    Box::new(TelnetScanner::new(
                        telnet_targets,
                        mirai_dictionary(),
                        stage1.clone(),
                    )),
                );
                (None, None, Some(scanner))
            }
            Recruitment::SelfPropagating { seeds, .. } => {
                // The attacker scans only the seed devices; the worm does
                // the rest.
                let seed_targets: Vec<_> = telnet_targets.into_iter().take(seeds).collect();
                let scanner = sim.install_app(
                    attacker_node,
                    Box::new(TelnetScanner::new(
                        seed_targets,
                        mirai_dictionary(),
                        stage1.clone(),
                    )),
                );
                (None, None, Some(scanner))
            }
        };

        // ---- Reboot controller (on the always-up fabric node) ----
        if config.reboot_rate_per_min > 0.0 {
            sim.install_app(
                fabric.root(),
                Box::new(crate::reboot::RebootController::new(
                    devs.iter().map(|d| (d.node, d.container.clone())).collect(),
                    config.reboot_rate_per_min,
                )),
            );
        }

        // ---- Churn controller (on the always-up fabric node) ----
        let churn_ctl = match config.churn {
            ChurnMode::None => None,
            mode => Some(sim.install_app(
                fabric.root(),
                Box::new(ChurnController::new(
                    FanChurnModel::PAPER,
                    mode,
                    devs.iter().map(|d| d.node).collect(),
                )),
            )),
        };

        // ---- Attack command (telnet into the C&C, §IV-A) ----
        let attack_target = if config.attack_over_ipv6 {
            tserver_m.addr_v6
        } else {
            tserver_m.addr_v4
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
            command.push_str(&format!(" {}", attacker_m.addr_v4));
        }
        let mut schedule = vec![(SimTime::ZERO + config.attack_at, command)];
        for (at, line) in &config.admin_script {
            schedule.push((SimTime::ZERO + *at, line.clone()));
        }
        sim.install_app(
            attacker_node,
            Box::new(AdminConsole::new(attacker_m.addr_v4, schedule)),
        );

        // ---- Telemetry metrics sampler ----
        // A self-rescheduling tick: each firing samples the series and
        // schedules the next, stopping at the horizon. Unexecuted ticks
        // simply stay queued past `run_until`, costing nothing.
        if let Some(iv) = config.telemetry.metrics_interval {
            let st = SamplerState {
                interval: iv,
                horizon: SimTime::ZERO + config.sim_time,
                tserver: tserver_node,
                devs: devs.iter().map(|d| d.container.clone()).collect(),
                prev_sent: 0,
                prev_rx_bytes: 0,
            };
            sim.schedule_forkable_call(SimTime::ZERO + iv, "metrics.sample", st, sample_tick);
        }

        let mut instance = Ddosim {
            config,
            sim,
            runtime,
            devs,
            attacker_node,
            attacker_v4: attacker_m.addr_v4,
            attacker_container,
            tserver_node,
            tserver_v4: tserver_m.addr_v4,
            sink,
            cnc,
            dns_server,
            dhcp_injector,
            scanner,
            churn_ctl,
            honeypots,
            backup_cncs,
            memory_model: MemoryModel::default(),
            fabric,
            checkpoint_at: None,
            saved_checkpoint: None,
            progress: PhaseProgress::default(),
        };
        // ---- Fault plan ----
        // An empty plan schedules nothing and never reaches the reseed, so
        // every RNG stream matches a plan-free run.
        if !instance.config.faults.is_empty() {
            instance.sim.reseed_fault_rng(
                instance
                    .config
                    .rng
                    .fault_seed(instance.config.seed, instance.config.faults.seed),
            );
            let plan = instance.config.faults.clone();
            instance.schedule_fault_plan(&plan)?;
        }
        instance.schedule_reconciler();
        Ok(instance)
    }

    /// Resolves a fault-plan target name to its node and container.
    fn resolve_fault_target(
        &self,
        name: &str,
    ) -> Result<(NodeId, Option<ContainerHandle>), String> {
        if name == "attacker" {
            return Ok((self.attacker_node, Some(self.attacker_container.clone())));
        }
        if name == "tserver" {
            return Ok((self.tserver_node, None));
        }
        name.strip_prefix("dev-")
            .and_then(|s| s.parse::<usize>().ok())
            .and_then(|i| self.devs.get(i))
            .map(|d| (d.node, Some(d.container.clone())))
            .ok_or_else(|| format!("fault plan targets unknown node '{name}'"))
    }

    fn fault_access_links(&self, name: &str, node: NodeId) -> Result<Vec<LinkId>, String> {
        let links = self.sim.node_p2p_links(node);
        if links.is_empty() {
            return Err(format!(
                "fault plan: node '{name}' has no point-to-point links"
            ));
        }
        Ok(links)
    }

    /// Schedules every fault of `plan` onto the event queue. Targets
    /// resolve here (names → nodes/links/containers) so a bad plan fails
    /// up front, not mid-run; the faults themselves interleave
    /// deterministically with everything else. Faults are scheduled as
    /// forkable calls, so pending ones survive [`Ddosim::fork`] — and a
    /// *suffix* fault plan can be layered onto a fork the same way
    /// (entries dated before the fork point fire immediately).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unresolvable target.
    pub(crate) fn schedule_fault_plan(&mut self, plan: &faults::FaultPlan) -> Result<(), String> {
        for fault in &plan.faults {
            let at = SimTime::ZERO + fault.at;
            let detail = fault.describe();
            match &fault.kind {
                faults::FaultKind::LinkDown { node } | faults::FaultKind::LinkUp { node } => {
                    let up = matches!(fault.kind, faults::FaultKind::LinkUp { .. });
                    let (node_id, _) = self.resolve_fault_target(node)?;
                    let links = self.fault_access_links(node, node_id)?;
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.link_admin",
                        (node_id, links, up, detail),
                        fault_link_admin,
                    );
                }
                faults::FaultKind::LinkLoss { node, probability } => {
                    let (node_id, _) = self.resolve_fault_target(node)?;
                    let links = self.fault_access_links(node, node_id)?;
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.link_loss",
                        (node_id, links, *probability, detail),
                        fault_link_loss,
                    );
                }
                faults::FaultKind::NodeCrash { node } => {
                    let (node_id, container) = self.resolve_fault_target(node)?;
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.node_crash",
                        (node_id, container, detail),
                        fault_node_crash,
                    );
                }
                faults::FaultKind::NodeRestore { node } => {
                    let (node_id, _) = self.resolve_fault_target(node)?;
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.node_restore",
                        (node_id, detail),
                        fault_node_restore,
                    );
                }
                faults::FaultKind::CncOutage { duration } => {
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.cnc_outage",
                        (self.attacker_node, *duration, detail),
                        fault_cnc_outage,
                    );
                }
                faults::FaultKind::ContainerKill { node } => {
                    let (node_id, container) = self.resolve_fault_target(node)?;
                    let Some(container) = container else {
                        return Err(format!(
                            "fault plan: container_kill targets '{node}', which has no container"
                        ));
                    };
                    self.sim.schedule_forkable_call(
                        at,
                        "fault.container_kill",
                        (node_id, container, detail),
                        fault_container_kill,
                    );
                }
            }
        }
        Ok(())
    }

    /// Attaches an extra node to the simulated Internet (e.g. a benign
    /// client for the ML-defense use case) and returns its addresses.
    pub fn attach_extra_node(&mut self, name: &str, link: LinkConfig) -> Member {
        let node = self.sim.add_node(name);
        self.fabric.attach_core(&mut self.sim, node, link)
    }

    /// The central fabric node (the simulated Internet / upstream router,
    /// or the backbone in tiered mode) — where network-level defenses are
    /// naturally deployed.
    pub fn fabric_node(&self) -> NodeId {
        self.fabric.root()
    }

    /// Schedules the attacker-operator reconciliation loop: every 10 s
    /// until the attack, devices that never registered with the C&C get
    /// their "exploited" mark cleared so the exploit exchange restarts
    /// (covers lost exploit packets and devices that churned away
    /// mid-infection).
    fn schedule_reconciler(&mut self) {
        let (Some(dns), Some(dhcp)) = (self.dns_server, self.dhcp_injector) else {
            return;
        };
        let devs: Vec<(ContainerHandle, IpAddr, IpAddr)> = self
            .devs
            .iter()
            .map(|d| (d.container.clone(), d.addr_v4, d.addr_v6))
            .collect();
        // With reboots enabled, devices become susceptible again at any
        // point, so the operator keeps reconciling for the whole run.
        let horizon = if self.config.reboot_rate_per_min > 0.0 {
            self.config.sim_time
        } else {
            self.config.attack_at + self.config.attack.duration
        };
        let mut t = Duration::from_secs(10);
        while t < horizon {
            self.sim.schedule_forkable_call(
                SimTime::ZERO + t,
                "attacker.reconcile",
                (dns, dhcp, devs.clone()),
                reconcile_tick,
            );
            t += Duration::from_secs(10);
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The underlying simulator (for custom instrumentation, e.g. trace
    /// hooks for the ML-defense use case).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The run's telemetry handle. Clone it before
    /// [`Ddosim::run_to_completion`] (which consumes the instance) to read
    /// the flight recorder, capture, and metrics afterwards — clones share
    /// the collectors.
    pub fn telemetry(&self) -> &Telemetry {
        self.sim.telemetry()
    }

    /// Records a phase-boundary marker in the flight recorder.
    fn mark_phase(&self, detail: &str) {
        let now = self.sim.now().as_nanos();
        let detail = detail.to_owned();
        self.sim.telemetry().record_event(now, None, Category::Phase, || detail);
    }

    /// The Devs of this run.
    pub fn devs(&self) -> &[DevInfo] {
        &self.devs
    }

    /// TServer's node and IPv4 address.
    pub fn tserver(&self) -> (NodeId, IpAddr) {
        (self.tserver_node, self.tserver_v4)
    }

    /// The Attacker's node and IPv4 address.
    pub fn attacker(&self) -> (NodeId, IpAddr) {
        (self.attacker_node, self.attacker_v4)
    }

    /// The container runtime (memory accounting, infection telemetry).
    pub fn runtime(&self) -> &ContainerRuntime {
        &self.runtime
    }

    /// Current number of recruited Devs.
    pub fn infected_count(&self) -> usize {
        self.runtime.infected_count()
    }

    /// Currently connected bot count, as seen by the C&C.
    pub fn connected_bots(&self) -> usize {
        self.sim
            .app_ref::<CncServer>(self.cnc)
            .map(CncServer::bot_count)
            .unwrap_or(0)
    }

    /// Honeypot nodes (empty unless [`SimulationConfig::honeypots`] > 0):
    /// node, trap app, and address of each.
    pub fn honeypots(&self) -> &[(NodeId, AppId, IpAddr)] {
        &self.honeypots
    }

    /// Total telnet connections trapped across all honeypots.
    pub fn honeypot_hits(&self) -> u64 {
        self.honeypots
            .iter()
            .filter_map(|&(_, app, _)| {
                self.sim
                    .app_ref::<crate::honeypot::Honeypot>(app)
                    .map(|h| h.hits)
            })
            .sum()
    }

    /// Backup C&C hosts (empty unless [`SimulationConfig::backup_cncs`]
    /// > 0): node, server app, and listen address of each.
    pub fn backup_cncs(&self) -> &[(NodeId, AppId, SocketAddr)] {
        &self.backup_cncs
    }

    /// Bots currently registered across the backup C&C hosts — the
    /// headline takedown-resilience metric.
    pub fn backup_connected_bots(&self) -> usize {
        self.backup_cncs
            .iter()
            .filter_map(|&(_, app, _)| {
                self.sim.app_ref::<CncServer>(app).map(CncServer::bot_count)
            })
            .sum()
    }

    /// Runs until `t` of simulated time.
    pub fn run_until(&mut self, t: Duration) {
        self.sim.run_until(SimTime::ZERO + t);
    }

    /// Every stateful layer's digest, in a stable order: the simulator's
    /// own layers (event queue, nodes, links, Wi-Fi, TCP, RNG streams,
    /// stats, apps — the latter covering the bot FSMs, C&C registry,
    /// scanners, sinks, and controllers) plus the container runtime.
    pub fn state_digests(&self) -> Vec<(String, u64)> {
        let mut digests: Vec<(String, u64)> = self
            .sim
            .state_digests()
            .into_iter()
            .map(|(layer, d)| (layer.to_owned(), d))
            .collect();
        digests.push((
            "firmware".to_owned(),
            checkpoint::firmware_digest(&self.runtime),
        ));
        digests
    }

    /// Runs the full scenario (initialization → infection → attack →
    /// drain) and collects the result, measuring per-phase wall-clock and
    /// memory as the paper's Table I does.
    ///
    /// Panics if an armed checkpoint cannot be taken; use
    /// [`Ddosim::try_run_to_completion`] when one is armed.
    pub fn run_to_completion(self) -> RunResult {
        let (result, _) = self
            .try_run_to_completion()
            .expect("no checkpoint armed, so the run cannot fail");
        result
    }

    /// Runs the full scenario like [`Ddosim::run_to_completion`], honouring
    /// an armed checkpoint ([`Ddosim::set_checkpoint_at`]); returns the
    /// saved checkpoint (if one was armed) alongside the result.
    ///
    /// # Errors
    ///
    /// Returns a message if the armed checkpoint time is already in the
    /// past or lies beyond the horizon.
    pub fn try_run_to_completion(mut self) -> Result<(RunResult, Option<Checkpoint>), String> {
        let sim_end = self.config.sim_time;
        self.run_prefix(sim_end)?;
        if let Some(at) = self.checkpoint_at {
            return Err(format!(
                "checkpoint time {:.3}s lies beyond the simulation horizon \
                 {:.3}s",
                at.as_secs_f64(),
                sim_end.as_secs_f64()
            ));
        }
        let saved = self.saved_checkpoint.take();
        let pre = self
            .progress
            .pre_attack
            .expect("validation puts the attack inside the horizon");
        let attack = self
            .progress
            .attack
            .expect("validation puts the attack inside the horizon");
        let wall = self.progress.attack_wall;
        let result = self.collect(
            pre.container_bytes,
            attack.container_bytes,
            attack.packets,
            wall,
            pre.infected,
            pre.bots,
        );
        Ok((result, saved))
    }

    /// Runs the scenario prefix up to `upto` of simulated time, emitting
    /// phase marks and taking phase measurements for every boundary
    /// crossed — the shared 0→T prefix of a checkpoint-forked scenario
    /// tree. Fork the instance here ([`Ddosim::fork_with_seed`]) and run
    /// each fork to completion; a seed-0 fork's trace is byte-identical to
    /// running this world straight through.
    ///
    /// An armed checkpoint ([`Ddosim::set_checkpoint_at`]) inside the
    /// window is taken on the way: a checkpoint at `at` *is* the world as
    /// `run_prefix(at)` leaves it, which is what lets
    /// [`Ddosim::resume_from`] verify one by walking there again.
    ///
    /// # Errors
    ///
    /// Returns a message if the armed checkpoint time is already in the
    /// past.
    pub fn run_prefix(&mut self, upto: Duration) -> Result<(), String> {
        let upto = upto.min(self.config.sim_time);
        if let Some(at) = self.checkpoint_at.filter(|&at| at <= upto) {
            let now = self.sim.now();
            if SimTime::ZERO + at < now {
                return Err(format!(
                    "checkpoint time {:.3}s is already in the past (world is at {:.3}s)",
                    at.as_secs_f64(),
                    now.as_secs_f64()
                ));
            }
            self.checkpoint_at = None;
            self.advance_phases(at);
            self.saved_checkpoint = Some(Checkpoint {
                at,
                config: self.config.clone(),
                digests: self.state_digests(),
                events_recorded: self.sim.telemetry().events_recorded(),
            });
        }
        self.advance_phases(upto);
        Ok(())
    }

    /// The resumable phase walk: advances to `upto`, crossing (at most
    /// once, in order) the attack-start, attack-end, and horizon
    /// boundaries, each with its phase mark and measurements. Progress
    /// lives in [`PhaseProgress`], so the walk can stop anywhere and be
    /// continued — by this instance or by a fork of it.
    fn advance_phases(&mut self, upto: Duration) {
        let attack_start = self.config.attack_at;
        let attack_end = attack_start + self.config.attack.duration;
        let sim_end = self.config.sim_time;
        let upto = upto.min(sim_end);
        if !self.progress.init_marked {
            self.mark_phase("phase: initialization + infection");
            self.progress.init_marked = true;
        }
        if self.progress.pre_attack.is_none() {
            if upto < attack_start {
                return self.run_until(upto);
            }
            self.run_until(attack_start);
            self.progress.pre_attack = Some(PreAttackSnapshot {
                container_bytes: self.runtime.total_memory_bytes(),
                packets: self.sim.stats().packets_sent,
                infected: self.infected_count(),
                bots: self.connected_bots(),
            });
            self.mark_phase("phase: attack window");
        }
        if self.progress.attack.is_none() {
            // The attack window's wall-clock (Table I's Attack Time)
            // accumulates across partial advances.
            let wall = Instant::now();
            self.run_until(upto.min(attack_end));
            self.progress.attack_wall += wall.elapsed();
            if upto < attack_end {
                return;
            }
            let pre = self.progress.pre_attack.expect("set above");
            self.progress.attack = Some(AttackSnapshot {
                container_bytes: self.runtime.total_memory_bytes(),
                packets: self.sim.stats().packets_sent - pre.packets,
            });
            self.mark_phase("phase: drain");
        }
        self.run_until(upto);
        if upto >= sim_end && !self.progress.complete {
            self.mark_phase("phase: run complete");
            self.progress.complete = true;
        }
    }

    /// Forks the live world without any divergence: every RNG stream keeps
    /// its exact position, so the fork's future is byte-identical to the
    /// parent's. Shorthand for [`Ddosim::fork_with_seed`] with seed 0.
    ///
    /// # Errors
    ///
    /// See [`Ddosim::fork_with_seed`].
    pub fn fork(&self) -> Result<Ddosim, String> {
        self.fork_with_seed(0)
    }

    /// Deep-clones the live world into an independent instance — the
    /// in-memory fork behind checkpoint-forked scenario trees. Nothing is
    /// replayed: containers, the network world (pending events included),
    /// and telemetry (the flight recorder carries the shared prefix) are
    /// all duplicated at the current instant, and every layer digest is
    /// verified equal to the parent's before any divergence is applied.
    ///
    /// `fork_seed` selects the divergence point: 0 keeps both RNG streams
    /// at their exact positions (the fork replays the parent's future,
    /// byte for byte), while any other value re-derives the per-subsystem
    /// streams as `sim_seed ^ fork_seed ^ LAYER_TAG`, so K forks
    /// decorrelate deterministically — same `(world, T, fork_seed)` →
    /// same suffix, different `fork_seed` → independent futures.
    ///
    /// # Errors
    ///
    /// Returns a message when the world holds unforkable state (an
    /// application without a fork path) or when the fork's digests diverge
    /// from the parent's (a bug in some layer's fork path).
    pub fn fork_with_seed(&self, fork_seed: u64) -> Result<Ddosim, String> {
        let mut map = ForkMap::new();
        let runtime = self.runtime.fork(&mut map);
        let mut sim = self.sim.fork(&map)?;
        sim.set_telemetry(self.sim.telemetry().deep_fork());
        let devs: Vec<DevInfo> = self
            .devs
            .iter()
            .map(|d| DevInfo {
                node: d.node,
                addr_v4: d.addr_v4,
                addr_v6: d.addr_v6,
                daemon: d.daemon,
                protections: d.protections,
                access_rate_kbps: d.access_rate_kbps,
                container: d.container.fork_clone(&map),
                daemon_app: d.daemon_app,
            })
            .collect();
        let mut fork = Ddosim {
            config: self.config.clone(),
            sim,
            runtime,
            devs,
            attacker_node: self.attacker_node,
            attacker_v4: self.attacker_v4,
            attacker_container: self.attacker_container.fork_clone(&map),
            tserver_node: self.tserver_node,
            tserver_v4: self.tserver_v4,
            sink: self.sink,
            cnc: self.cnc,
            dns_server: self.dns_server,
            dhcp_injector: self.dhcp_injector,
            scanner: self.scanner,
            churn_ctl: self.churn_ctl,
            honeypots: self.honeypots.clone(),
            backup_cncs: self.backup_cncs.clone(),
            memory_model: self.memory_model,
            fabric: self.fabric.clone(),
            checkpoint_at: self.checkpoint_at,
            saved_checkpoint: None,
            progress: self.progress,
        };
        // fork ≡ parent at T, layer by layer, before any reseed diverges
        // the streams.
        if let Some(mismatch) = first_digest_mismatch(&self.state_digests(), &fork.state_digests())
        {
            return Err(format!(
                "fork diverged from its parent at {:.3}s: {mismatch}",
                self.sim.now().as_secs_f64()
            ));
        }
        if fork_seed != 0 {
            fork.sim
                .reseed_rng(self.config.seed ^ fork_seed ^ FORK_TAG_MAIN);
            fork.sim
                .reseed_fault_rng(self.config.seed ^ fork_seed ^ FORK_TAG_FAULT);
        }
        Ok(fork)
    }

    /// Applies one scenario-tree suffix to this (freshly forked) world:
    /// extends or trims the horizon, layers the suffix's fault plan onto
    /// the queue, and opens a fresh attacker-console session for its extra
    /// commands. The fork seed is *not* applied here — pass it to
    /// [`Ddosim::fork_with_seed`], which reseeds before any suffix events
    /// are scheduled.
    ///
    /// Metric sampling keeps the original horizon (the sampler chain was
    /// scheduled at build time); the flight recorder and capture cover the
    /// full extended run.
    ///
    /// # Errors
    ///
    /// Returns a message when the new horizon lies before the attack end
    /// or the current instant, or when the fault plan names an unknown
    /// target.
    pub(crate) fn apply_suffix(&mut self, spec: &crate::suffix::SuffixSpec) -> Result<(), String> {
        if let Some(h) = spec.horizon {
            let attack_end = self.config.attack_at + self.config.attack.duration;
            if h < attack_end {
                return Err(format!(
                    "suffix '{}': horizon {:.3}s lies before the attack end {:.3}s",
                    spec.name,
                    h.as_secs_f64(),
                    attack_end.as_secs_f64()
                ));
            }
            if SimTime::ZERO + h < self.sim.now() {
                return Err(format!(
                    "suffix '{}': horizon {:.3}s lies before the fork point {:.3}s",
                    spec.name,
                    h.as_secs_f64(),
                    self.sim.now().as_secs_f64()
                ));
            }
            self.config.sim_time = h;
        }
        if !spec.faults.is_empty() {
            self.schedule_fault_plan(&spec.faults)?;
        }
        if !spec.admin_lines.is_empty() {
            let schedule: Vec<(SimTime, String)> = spec
                .admin_lines
                .iter()
                .map(|(at, line)| (SimTime::ZERO + *at, line.clone()))
                .collect();
            self.sim.install_app(
                self.attacker_node,
                Box::new(AdminConsole::new(self.attacker_v4, schedule)),
            );
        }
        Ok(())
    }

    fn collect(
        self,
        pre_attack_container_bytes: u64,
        attack_container_bytes: u64,
        attack_packets: u64,
        attack_wall_clock: Duration,
        infected_before_attack: usize,
        bots_at_command: usize,
    ) -> RunResult {
        let sink = self
            .sim
            .app_ref::<TServerSink>(self.sink)
            .expect("sink app lives for the whole run");
        let avg = sink.average_received_data_rate_kbps(
            self.config.attack_at,
            self.config.attack.duration,
        );
        let per_second_kbits: Vec<f64> = sink
            .per_second_bytes
            .iter()
            .map(|b| *b as f64 * 8.0 / 1000.0)
            .collect();
        let flood_packets_received = sink.flood_packets;
        let flood_bytes_received = sink.flood_bytes;

        let cnc = self
            .sim
            .app_ref::<CncServer>(self.cnc)
            .expect("C&C app lives for the whole run");
        let churn = self.churn_ctl.and_then(|id| {
            self.sim
                .app_ref::<ChurnController>(id)
                .map(|c| ChurnSummary {
                    departures: c.departures,
                    rejoins: c.rejoins,
                    down_at_end: c.down_count(),
                })
        });
        let scanner_summary = self.scanner.and_then(|id| {
            self.sim
                .app_ref::<TelnetScanner>(id)
                .map(|s| (s.successes.len(), s.attempts))
        });

        let infection_times_secs: Vec<f64> = self
            .runtime
            .infection_times()
            .iter()
            .map(|t| t.as_secs_f64())
            .collect();

        RunResult {
            devs: self.config.devs,
            churn: self.config.churn,
            attack_duration_secs: self.config.attack.duration.as_secs(),
            attack_at_secs: self.config.attack_at.as_secs(),
            seed: self.config.seed,
            avg_received_data_rate_kbps: avg,
            per_second_kbits,
            infected: self.runtime.infected_count(),
            infected_before_attack,
            bots_at_command,
            infection_rate: self.runtime.infected_count() as f64 / self.config.devs as f64,
            infection_times_secs,
            peak_bots: cnc.peak_bots,
            total_registrations: cnc.total_registrations,
            flood_packets_received,
            flood_bytes_received,
            pre_attack_mem_gb: bytes_to_gb(
                self.memory_model.pre_attack_bytes(pre_attack_container_bytes),
            ),
            attack_mem_gb: bytes_to_gb(
                self.memory_model
                    .attack_bytes(attack_container_bytes, attack_packets),
            ),
            attack_wall_clock_secs: attack_wall_clock.as_secs_f64(),
            packets_sent: self.sim.stats().packets_sent,
            packets_delivered: self.sim.stats().packets_delivered,
            packets_dropped: self.sim.stats().total_dropped(),
            churn_summary: churn,
            scanner_successes: scanner_summary.map(|(s, _)| s),
            scanner_attempts: scanner_summary.map(|(_, a)| a),
        }
    }
}
