//! Simulation configuration: one [`SimulationConfig`] describes a world.

use churn::ChurnMode;
use firmware::CommandSet;
use protocols::AttackVector;
use std::ops::RangeInclusive;
use std::time::Duration;
use tinyvm::{Arch, ProtectionMix};

pub use attacker::ExploitStrategy;

/// Which vulnerable daemon a Dev runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DaemonKind {
    /// The Connman-like network manager (DNS exploit path).
    Connman,
    /// The Dnsmasq-like DNS/DHCP daemon (DHCPv6 exploit path).
    Dnsmasq,
}

impl std::fmt::Display for DaemonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonKind::Connman => f.write_str("connman"),
            DaemonKind::Dnsmasq => f.write_str("dnsmasq"),
        }
    }
}

/// The distribution of daemons across Devs ("randomly load them with
/// vulnerable Connman or Dnsmasq binaries", §IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinaryMix {
    /// All Devs run the Connman-like daemon.
    ConnmanOnly,
    /// All Devs run the Dnsmasq-like daemon.
    DnsmasqOnly,
    /// Each Dev draws Connman with the given probability.
    Mixed {
        /// Probability a Dev runs Connman.
        connman_fraction: f64,
    },
}

impl BinaryMix {
    /// The paper's setup: Devs randomly run one of the two daemons.
    pub fn half_and_half() -> Self {
        BinaryMix::Mixed {
            connman_fraction: 0.5,
        }
    }
}

impl Default for BinaryMix {
    fn default() -> Self {
        BinaryMix::half_and_half()
    }
}

/// How Devs are recruited into the botnet.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub enum Recruitment {
    /// The paper's contribution: remote memory-error exploitation.
    #[default]
    MemoryError,
    /// The Mirai-classic baseline: telnet dictionary scanning. Each Dev
    /// exposes telnet; `default_credential_fraction` of them still use a
    /// dictionary credential.
    CredentialScanner {
        /// Fraction of Devs with default (dictionary) credentials.
        default_credential_fraction: f64,
    },
    /// Worm mode: the attacker compromises only `seeds` devices; every
    /// recruited bot then scans the subnet itself ("Botnet Malware can
    /// simultaneously scan the network for new potential victims", §II-A).
    /// Produces the exponential growth curve epidemic models describe.
    SelfPropagating {
        /// Fraction of Devs with default (dictionary) credentials.
        default_credential_fraction: f64,
        /// Devices the attacker's own scanner targets initially.
        seeds: usize,
    },
}

impl Recruitment {
    /// Parses the spec string the `--recruitment` flag and scenario plans
    /// share: `memory-error`, `scanner:<cred-fraction>`, or
    /// `worm:<cred-fraction>:<seeds>`.
    ///
    /// # Errors
    ///
    /// A message naming the part of `spec` that does not parse.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let fraction = |mode: &str, f: &str| {
            f.parse::<f64>()
                .map_err(|e| format!("{mode}: bad credential fraction in '{spec}': {e}"))
        };
        match spec.split(':').collect::<Vec<_>>()[..] {
            ["memory-error"] => Ok(Recruitment::MemoryError),
            ["scanner", f] => Ok(Recruitment::CredentialScanner {
                default_credential_fraction: fraction("scanner", f)?,
            }),
            ["worm", f, s] => Ok(Recruitment::SelfPropagating {
                default_credential_fraction: fraction("worm", f)?,
                seeds: s
                    .parse()
                    .map_err(|e| format!("worm: bad seed count in '{spec}': {e}"))?,
            }),
            _ => Err(format!("unknown recruitment spec: {spec}")),
        }
    }
}

/// Shape of the simulated Internet joining the components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// The paper's model (§III-D): one fabric node, one abstract link per
    /// component.
    #[default]
    Star,
    /// Two-tier extension (lifting the §V-C "uniform connections"
    /// limitation): Devs share regional uplinks into a backbone; the
    /// Attacker and TServer sit on the backbone.
    Tiered {
        /// Number of regional routers (Devs are assigned round-robin).
        regions: usize,
        /// Capacity of each regional uplink, bps.
        region_uplink_bps: u64,
    },
    /// The paper's physical validation setup (§IV-B): Devs associate to a
    /// router over a shared Wi-Fi medium (CSMA/CA contention) and are
    /// shaped to their IoT access rates; the Attacker and TServer connect
    /// to the router over wired links. The medium is the lab's: a 72 Mbps
    /// radio that loses 1 % of frames — Fig. 4's hardware arm.
    Wifi,
}

impl TopologyKind {
    /// Parses the spec string the `--topology` flag and scenario plans
    /// share: `star`, `wifi`, or `tiered:<regions>:<uplink-bps>`.
    ///
    /// # Errors
    ///
    /// A message naming the part of `spec` that does not parse.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.split(':').collect::<Vec<_>>()[..] {
            ["star"] => Ok(TopologyKind::Star),
            ["wifi"] => Ok(TopologyKind::Wifi),
            ["tiered", r, bps] => Ok(TopologyKind::Tiered {
                regions: r
                    .parse()
                    .map_err(|e| format!("tiered: bad region count in '{spec}': {e}"))?,
                region_uplink_bps: bps
                    .parse()
                    .map_err(|e| format!("tiered: bad uplink rate in '{spec}': {e}"))?,
            }),
            _ => Err(format!("unknown topology spec: {spec}")),
        }
    }
}

/// Per-subsystem RNG stream plan — the first-class handle on the seed
/// split that [`crate::Ddosim`] already performs internally.
///
/// A build derives three independent streams from the run seed:
///
/// * **world** — topology construction, access-rate draws, binary mix,
///   protection assignment (`seed ^ WORLD_TAG`),
/// * **event** — the simulator's event-level stream driving churn,
///   backoff jitter, scan order (`seed`),
/// * **fault** — the fault-injection plan's draws
///   (`seed ^ plan_seed ^ FAULT_TAG`).
///
/// The default plan (all `None`) reproduces those derivations exactly, so
/// it is byte-identical to the pre-`RngPlan` behaviour. Pinning a stream
/// overrides its derivation with a fixed seed, independent of the run
/// seed — which is what common-random-numbers (CRN) paired sweeps need:
/// two configs that differ only in the treatment (a defense parameter, a
/// churn mode) but share every noise stream, so their A−B difference
/// subtracts out the shared noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RngPlan {
    /// World-building stream override (`None` = derive from the run seed).
    pub world: Option<u64>,
    /// Event-level stream override (`None` = derive from the run seed).
    pub event: Option<u64>,
    /// Fault-injection stream override (`None` = derive from the run and
    /// fault-plan seeds).
    pub fault: Option<u64>,
}

impl RngPlan {
    /// Domain-separation tag of the world-building stream.
    pub const WORLD_TAG: u64 = 0xB111D;
    /// Domain-separation tag of the fault-injection stream.
    pub const FAULT_TAG: u64 = 0xFA17;

    /// Pins every stream to the derivations a plain run with
    /// `seed = noise_seed` would use. Two configs carrying the same pinned
    /// plan share all three noise streams even when their run seeds,
    /// fault-plan seeds, or treatments differ — the CRN pairing mode.
    pub fn pinned(noise_seed: u64) -> Self {
        RngPlan {
            world: Some(noise_seed ^ Self::WORLD_TAG),
            event: Some(noise_seed),
            fault: Some(noise_seed ^ Self::FAULT_TAG),
        }
    }

    /// Seed of the world-building stream for a run with `sim_seed`.
    pub fn world_seed(&self, sim_seed: u64) -> u64 {
        self.world.unwrap_or(sim_seed ^ Self::WORLD_TAG)
    }

    /// Seed of the event-level stream for a run with `sim_seed`.
    pub(crate) fn event_seed(&self, sim_seed: u64) -> u64 {
        self.event.unwrap_or(sim_seed)
    }

    /// Seed of the fault-injection stream for a run with `sim_seed` whose
    /// fault plan carries `plan_seed`.
    pub(crate) fn fault_seed(&self, sim_seed: u64, plan_seed: u64) -> u64 {
        self.fault.unwrap_or(sim_seed ^ plan_seed ^ Self::FAULT_TAG)
    }
}

/// The attack to launch once the botnet is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSpec {
    /// Flood vector.
    pub vector: AttackVector,
    /// Attack duration.
    pub duration: Duration,
    /// Payload bytes per packet (`None` = vector default, 512 for
    /// UDP-PLAIN).
    pub payload_bytes: Option<u32>,
    /// Destination port on TServer.
    pub port: u16,
}

impl AttackSpec {
    /// The paper's attack: Mirai's volumetric UDP-PLAIN flood.
    pub fn udp_plain(duration: Duration) -> Self {
        AttackSpec {
            vector: AttackVector::UdpPlain,
            duration,
            payload_bytes: None,
            port: 80,
        }
    }
}

impl Default for AttackSpec {
    fn default() -> Self {
        AttackSpec::udp_plain(Duration::from_secs(100))
    }
}

/// Full configuration of one DDoSim run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of Devs.
    pub devs: usize,
    /// Daemon distribution.
    pub binary_mix: BinaryMix,
    /// Memory-protection distribution.
    pub protections: ProtectionMix,
    /// Dev CPU architecture (the paper's experiments use x86-64).
    pub arch: Arch,
    /// Dev access-link rate range in kbps (the paper selects 100–500 kbps,
    /// the average IoT range).
    pub access_rate_kbps: RangeInclusive<u64>,
    /// Rate of the fabric→TServer bottleneck link, bps.
    pub tserver_link_bps: u64,
    /// Queue capacity of the bottleneck link, bytes.
    pub tserver_queue_bytes: u64,
    /// One-way delay of each access link.
    pub access_delay: Duration,
    /// Churn variant.
    pub churn: ChurnMode,
    /// The attack to run.
    pub attack: AttackSpec,
    /// When the C&C admin issues the attack command.
    pub attack_at: Duration,
    /// Total NS-3-style simulation horizon (the paper uses 600 s).
    pub sim_time: Duration,
    /// Exploit construction strategy.
    pub strategy: ExploitStrategy,
    /// Shell commands available in Dev images (hardening ablations remove
    /// `curl`).
    pub commands: CommandSet,
    /// Recruitment mechanism.
    pub recruitment: Recruitment,
    /// Bot flood offered rate, bps.
    pub flood_rate_bps: u64,
    /// Upper bound of the per-bot flood ramp-up delay.
    pub attack_ramp: Duration,
    /// Attack TServer's IPv6 address instead of IPv4 (the paper adds IPv6
    /// support to NS3DockerEmulator; floods work over either family).
    pub attack_over_ipv6: bool,
    /// Per-device reboot rate (expected reboots per minute; 0 disables).
    /// Mirai does not survive reboots, so rebooted Devs must be
    /// re-recruited — the recovered→susceptible loop of SEIRS models.
    pub reboot_rate_per_min: f64,
    /// Fabric shape.
    pub topology: TopologyKind,
    /// Additional admin telnet lines sent to the C&C at the given times
    /// (Mirai admin syntax, e.g. `("stop", t)` or a second
    /// `udpplain <ip> <port> <secs>`); the main attack command from
    /// [`SimulationConfig::attack`] is always issued at `attack_at`.
    pub admin_script: Vec<(Duration, String)>,
    /// What to observe: flight recorder, packet capture, metric sampling.
    /// Disabled by default so runs stay on the uninstrumented hot path.
    pub telemetry: netsim::TelemetryConfig,
    /// Faults to inject on the simulation clock (link flaps, loss,
    /// crashes, C&C outages). Empty by default, which is a strict no-op:
    /// an empty plan schedules nothing and perturbs no RNG stream.
    pub faults: faults::FaultPlan,
    /// Honeypot nodes attached alongside the Devs: they expose telnet,
    /// are included in the scanned target set, and feed every scanner
    /// that touches them into the simulator-global blocklist. 0 (the
    /// default) attaches none and changes nothing.
    pub honeypots: u16,
    /// Backup C&C hosts attached on the core fabric. Their addresses are
    /// compiled into the served bot binaries as a fallback chain: bots
    /// rotate to the next host after repeated connect failures, which is
    /// what lets the botnet ride out a C&C takedown. 0 (the default)
    /// attaches none and changes nothing.
    pub backup_cncs: u16,
    /// Per-subsystem RNG stream plan. The default derives every stream
    /// from [`SimulationConfig::seed`] exactly as before `RngPlan`
    /// existed; [`RngPlan::pinned`] shares streams across paired configs
    /// for common-random-numbers sweeps.
    pub rng: RngPlan,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            devs: 10,
            binary_mix: BinaryMix::default(),
            protections: ProtectionMix::RandomSubsets,
            arch: Arch::X86_64,
            access_rate_kbps: 100..=500,
            tserver_link_bps: 35_000_000,
            tserver_queue_bytes: 512 * 1024,
            access_delay: Duration::from_millis(10),
            churn: ChurnMode::None,
            attack: AttackSpec::default(),
            attack_at: Duration::from_secs(60),
            sim_time: Duration::from_secs(600),
            strategy: ExploitStrategy::LeakRebase,
            commands: CommandSet::standard(),
            recruitment: Recruitment::MemoryError,
            flood_rate_bps: malware::DEFAULT_FLOOD_RATE_BPS,
            attack_ramp: malware::DEFAULT_ATTACK_RAMP,
            attack_over_ipv6: false,
            reboot_rate_per_min: 0.0,
            topology: TopologyKind::Star,
            admin_script: Vec::new(),
            telemetry: netsim::TelemetryConfig::default(),
            faults: faults::FaultPlan::default(),
            honeypots: 0,
            backup_cncs: 0,
            rng: RngPlan::default(),
            seed: 42,
        }
    }
}

impl SimulationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.devs == 0 {
            return Err("at least one Dev is required".into());
        }
        if self.access_rate_kbps.is_empty() {
            return Err("access rate range is empty".into());
        }
        if *self.access_rate_kbps.start() == 0 {
            return Err("access rate must be positive".into());
        }
        if self.access_rate_kbps.end().checked_mul(1000).is_none() {
            return Err(format!(
                "access rate {} kbps exceeds {} kbps, the most a u64 of bits per second holds",
                self.access_rate_kbps.end(),
                u64::MAX / 1000
            ));
        }
        // The address plan, not a budget: every attached node takes two
        // pairs (its own and the router's end of its link), a region's
        // uplink likewise, and the attacker, the TServer and a Wi-Fi
        // fabric's gateway are always there. Checked before anything is
        // sized by these counts.
        let regions = match self.topology {
            TopologyKind::Tiered { regions, .. } => regions,
            TopologyKind::Star | TopologyKind::Wifi => 0,
        };
        let nodes = [usize::from(self.honeypots), usize::from(self.backup_cncs), regions, 3]
            .iter()
            .try_fold(self.devs, |sum, &n| sum.checked_add(n));
        let capacity = netsim::topology::AddrAllocator::CAPACITY as usize / 2;
        if nodes.is_none_or(|n| n > capacity) {
            return Err(format!(
                "world too large: {} devs, {} honeypots, {} backup_cncs and {regions} regions \
                 exceed the {capacity} nodes the address plan holds (10.0.0.0/8, two pairs each)",
                self.devs, self.honeypots, self.backup_cncs
            ));
        }
        let window_end = self.attack_at.checked_add(self.attack.duration);
        if window_end.is_none_or(|end| end > self.sim_time) {
            return Err(format!(
                "attack window ({}s at {}s) exceeds the simulation horizon ({}s)",
                self.attack.duration.as_secs(),
                self.attack_at.as_secs(),
                self.sim_time.as_secs()
            ));
        }
        if let BinaryMix::Mixed { connman_fraction } = self.binary_mix {
            if !(0.0..=1.0).contains(&connman_fraction) {
                return Err("connman fraction must be in [0, 1]".into());
            }
        }
        match self.recruitment {
            Recruitment::CredentialScanner {
                default_credential_fraction,
            }
            | Recruitment::SelfPropagating {
                default_credential_fraction,
                ..
            } => {
                if !(0.0..=1.0).contains(&default_credential_fraction) {
                    return Err("default credential fraction must be in [0, 1]".into());
                }
            }
            Recruitment::MemoryError => {}
        }
        if let Recruitment::SelfPropagating { seeds, .. } = self.recruitment {
            if seeds == 0 || seeds > self.devs {
                return Err("seed count must be in 1..=devs".into());
            }
        }
        if !(self.reboot_rate_per_min.is_finite() && self.reboot_rate_per_min >= 0.0) {
            return Err("reboot rate must be a finite non-negative number".into());
        }
        if let TopologyKind::Tiered { regions, region_uplink_bps } = self.topology {
            if regions == 0 {
                return Err("tiered topology needs at least one region".into());
            }
            if region_uplink_bps == 0 {
                return Err("regional uplinks must have positive capacity".into());
            }
        }
        self.telemetry.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimulationConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_devs_invalid() {
        let c = SimulationConfig {
            devs: 0,
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
    }

    /// A world the address plan cannot hold, or an access rate that
    /// overflows bits per second, is refused here — `Ddosim::new` used to
    /// panic on each (`capacity overflow`, `address space exhausted`,
    /// `rate_kbps * 1000`). The largest world that fits stays valid.
    #[test]
    fn a_world_too_large_to_address_is_refused_not_panicked_on() {
        let fits = netsim::topology::AddrAllocator::CAPACITY as usize / 2 - 3;
        let tiered = |regions| TopologyKind::Tiered { regions, region_uplink_bps: 1000 };
        let base = SimulationConfig::default;
        let cases = [
            (SimulationConfig { devs: usize::MAX, ..base() }, "too large: 18446744073709551615 devs"),
            (SimulationConfig { devs: fits + 1, ..base() }, "exceed the 8388607 nodes the address"),
            (SimulationConfig { devs: fits, honeypots: 1, ..base() }, "1 honeypots"),
            (SimulationConfig { devs: fits, backup_cncs: 1, ..base() }, "1 backup_cncs"),
            (
                SimulationConfig { devs: 4, topology: tiered(usize::MAX), ..base() },
                "18446744073709551615 regions",
            ),
            (SimulationConfig { devs: fits, topology: tiered(1), ..base() }, "1 regions"),
            (
                SimulationConfig { access_rate_kbps: u64::MAX..=u64::MAX, ..base() },
                "access rate 18446744073709551615 kbps exceeds 18446744073709551 kbps",
            ),
            (
                SimulationConfig { access_rate_kbps: 100..=u64::MAX / 1000 + 1, ..base() },
                "access rate 18446744073709552 kbps exceeds",
            ),
        ];
        for (config, fragment) in cases {
            let verdict = config.validate().expect_err(fragment);
            assert!(verdict.contains(fragment), "{verdict}");
        }
        let largest =
            SimulationConfig { devs: fits, access_rate_kbps: 100..=u64::MAX / 1000, ..base() };
        assert_eq!(largest.validate(), Ok(()));
    }

    #[test]
    fn attack_window_must_fit_horizon() {
        let mut c = SimulationConfig {
            attack_at: Duration::from_secs(550),
            ..SimulationConfig::default()
        };
        c.attack.duration = Duration::from_secs(100);
        assert!(c.validate().is_err());
        // A window whose end overflows `Duration` is the same error, not a
        // panic.
        c.attack.duration = Duration::MAX;
        assert!(c.validate().expect_err("overflowing window").contains("exceeds"));
    }

    #[test]
    fn fractions_validated() {
        let c = SimulationConfig {
            binary_mix: BinaryMix::Mixed {
                connman_fraction: 1.5,
            },
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimulationConfig {
            recruitment: Recruitment::CredentialScanner {
                default_credential_fraction: -0.1,
            },
            ..SimulationConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_rng_plan_matches_legacy_derivations() {
        let plan = RngPlan::default();
        assert_eq!(plan.world_seed(42), 42 ^ RngPlan::WORLD_TAG);
        assert_eq!(plan.event_seed(42), 42);
        assert_eq!(plan.fault_seed(42, 7), 42 ^ 7 ^ RngPlan::FAULT_TAG);
    }

    #[test]
    fn pinned_rng_plan_is_seed_invariant() {
        let plan = RngPlan::pinned(1234);
        // Pinned streams ignore the run seed and the fault-plan seed: the
        // same noise lands in every paired arm.
        for seed in [0, 42, u64::MAX] {
            assert_eq!(plan.world_seed(seed), 1234 ^ RngPlan::WORLD_TAG);
            assert_eq!(plan.event_seed(seed), 1234);
            assert_eq!(plan.fault_seed(seed, 9), 1234 ^ RngPlan::FAULT_TAG);
        }
        // And they equal what a plain run with seed = noise would draw.
        let legacy = RngPlan::default();
        assert_eq!(plan.world_seed(7), legacy.world_seed(1234));
        assert_eq!(plan.event_seed(7), legacy.event_seed(1234));
        assert_eq!(plan.fault_seed(7, 0), legacy.fault_seed(1234, 0));
    }

    #[test]
    fn udp_plain_spec_defaults() {
        let a = AttackSpec::udp_plain(Duration::from_secs(100));
        assert_eq!(a.vector, AttackVector::UdpPlain);
        assert_eq!(a.port, 80);
        assert_eq!(a.payload_bytes, None);
    }
}
