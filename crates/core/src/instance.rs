//! One DDoSim run: the Attacker, Devs, and TServer components wired over
//! the simulated network (Fig. 1 of the paper), the phase walk that
//! advances them, and the result it measures. The world is built in
//! stages (`build`) over one forkable handle record (`Handles`); planned
//! faults are executed by `inject`, and the telemetry sampler lives beside
//! the TServer sink in [`crate::metrics`].

mod build;
mod inject;

use crate::checkpoint::{self, Checkpoint};
use crate::config::{DaemonKind, SimulationConfig};
use crate::metrics::{attack_bytes, bytes_to_gb, pre_attack_bytes, TServerSink};
use crate::result::{ChurnSummary, RunResult};
use churn::ChurnController;
use firmware::{ContainerHandle, ContainerRuntime};
use malware::{AdminConsole, CncServer, TelnetScanner};
use netsim::topology::{Fabric, Member};
use netsim::{
    AppId, Category, ForkClone, ForkMap, LinkConfig, NodeId, SimTime, Simulator, Telemetry,
};
use std::net::{IpAddr, SocketAddr};
use std::time::{Duration, Instant};

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

impl ForkClone for DevInfo {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        DevInfo {
            container: self.container.fork_clone(map),
            ..self.clone()
        }
    }
}

/// Everything the build fixes about a world and the run later reads: the
/// nodes, addresses, containers and applications the stages installed. A
/// fork translates only the container-carrying fields through its map.
#[derive(Debug, Clone)]
struct Handles {
    devs: Vec<DevInfo>,
    attacker: Member,
    attacker_container: ContainerHandle,
    tserver: Member,
    sink: AppId,
    cnc: AppId,
    dns_server: Option<AppId>,
    dhcp_injector: Option<AppId>,
    scanner: Option<AppId>,
    churn_ctl: Option<AppId>,
    honeypots: Vec<(NodeId, AppId, IpAddr)>,
    backup_cncs: Vec<(NodeId, AppId, SocketAddr)>,
    fabric: Fabric,
}

impl ForkClone for Handles {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        Handles {
            devs: self.devs.fork_clone(map),
            attacker_container: self.attacker_container.fork_clone(map),
            ..self.clone()
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
    (got.len() > expected.len()).then(|| {
        format!(
            "layer '{}' is digested here but not expected",
            got[expected.len()].0
        )
    })
}

/// Measurements taken when the walk crosses the attack start (Table I's
/// pre-attack column and the §IV-B infection counters).
#[derive(Debug, Clone, Copy, Default)]
struct PreAttackSnapshot {
    container_bytes: u64,
    packets: u64,
    infected: usize,
    bots: usize,
}

/// Measurements taken when the walk crosses the attack end.
#[derive(Debug, Clone, Copy, Default)]
struct AttackSnapshot {
    container_bytes: u64,
    /// Packets sent during the attack window.
    packets: u64,
}

/// The phase the walk has reached; boundaries are crossed in this order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Not walked yet: the initialization mark is still to come.
    #[default]
    Unwalked,
    Infection,
    Attack,
    Drain,
    Complete,
}

/// Resumable phase-walk bookkeeping: the phase reached, and the
/// measurements of every boundary crossed so far (a snapshot is read only
/// once its boundary is behind the walk). `Copy`, so a fork carries its
/// parent's progress and the continuation emits exactly the marks a
/// straight-through run would — no double marks, none missing.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseProgress {
    phase: Phase,
    pre_attack: PreAttackSnapshot,
    attack: AttackSnapshot,
    /// Wall-clock accumulated inside the attack window (split across
    /// prefix and suffix when a fork lands mid-window).
    attack_wall: Duration,
}

/// A fully-assembled DDoSim instance (Attacker + Devs + TServer on the
/// simulated network), ready to run.
#[derive(Debug)]
pub struct Ddosim {
    config: SimulationConfig,
    sim: Simulator,
    runtime: ContainerRuntime,
    h: Handles,
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

    /// Attaches an extra node to the simulated Internet (e.g. a benign
    /// client for the ML-defense use case) and returns its addresses.
    pub fn attach_extra_node(&mut self, name: &str, link: LinkConfig) -> Member {
        let node = self.sim.add_node(name);
        self.h.fabric.attach_core(&mut self.sim, node, link)
    }

    /// The central fabric node (the simulated Internet / upstream router,
    /// or the backbone in tiered mode) — where network-level defenses are
    /// naturally deployed.
    pub fn fabric_node(&self) -> NodeId {
        self.h.fabric.root()
    }

    /// The run's configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The underlying simulator (for custom instrumentation, e.g. trace
    /// hooks for the ML-defense use case). Advance the world with
    /// [`Ddosim::run_prefix`], never the simulator's own `run_until`: only
    /// the phase walk marks the phases and takes Table I's measurements.
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
        self.sim
            .telemetry()
            .record_event(now, None, Category::Phase, || detail);
    }

    /// The Devs of this run.
    pub fn devs(&self) -> &[DevInfo] {
        &self.h.devs
    }

    /// TServer's node and IPv4 address.
    pub fn tserver(&self) -> (NodeId, IpAddr) {
        (self.h.tserver.node, self.h.tserver.addr_v4)
    }

    /// The Attacker's node and IPv4 address.
    pub fn attacker(&self) -> (NodeId, IpAddr) {
        (self.h.attacker.node, self.h.attacker.addr_v4)
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
            .app_ref::<CncServer>(self.h.cnc)
            .map(CncServer::bot_count)
            .unwrap_or(0)
    }

    /// Honeypot nodes (empty unless [`SimulationConfig::honeypots`] > 0):
    /// node, trap app, and address of each.
    pub fn honeypots(&self) -> &[(NodeId, AppId, IpAddr)] {
        &self.h.honeypots
    }

    /// Total telnet connections trapped across all honeypots.
    pub fn honeypot_hits(&self) -> u64 {
        self.h
            .honeypots
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
        &self.h.backup_cncs
    }

    /// Bots currently registered across the backup C&C hosts — the
    /// headline takedown-resilience metric.
    pub fn backup_connected_bots(&self) -> usize {
        self.h
            .backup_cncs
            .iter()
            .filter_map(|&(_, app, _)| self.sim.app_ref::<CncServer>(app).map(CncServer::bot_count))
            .sum()
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
        Ok((self.collect(), saved))
    }

    /// Runs the scenario prefix up to `upto` of simulated time, emitting
    /// phase marks and taking phase measurements for every boundary
    /// crossed. This is the one way to advance a world: pausing at any
    /// `upto` and continuing leaves every digest, the result and the trace
    /// as a straight-through run leaves them. It is also the shared 0→T
    /// prefix of a checkpoint-forked scenario tree. Fork the instance here ([`Ddosim::fork_with_seed`]) and run
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
        let run_to = |sim: &mut Simulator, t: Duration| sim.run_until(SimTime::ZERO + t);
        if self.progress.phase == Phase::Unwalked {
            self.mark_phase("phase: initialization + infection");
            self.progress.phase = Phase::Infection;
        }
        if self.progress.phase == Phase::Infection {
            if upto < attack_start {
                return run_to(&mut self.sim, upto);
            }
            run_to(&mut self.sim, attack_start);
            self.progress.pre_attack = PreAttackSnapshot {
                container_bytes: self.runtime.total_memory_bytes(),
                packets: self.sim.stats().packets_sent,
                infected: self.infected_count(),
                bots: self.connected_bots(),
            };
            self.mark_phase("phase: attack window");
            self.progress.phase = Phase::Attack;
        }
        if self.progress.phase == Phase::Attack {
            // The attack window's wall-clock (Table I's Attack Time)
            // accumulates across partial advances.
            let wall = Instant::now();
            run_to(&mut self.sim, upto.min(attack_end));
            self.progress.attack_wall += wall.elapsed();
            if upto < attack_end {
                return;
            }
            self.progress.attack = AttackSnapshot {
                container_bytes: self.runtime.total_memory_bytes(),
                packets: self.sim.stats().packets_sent - self.progress.pre_attack.packets,
            };
            self.mark_phase("phase: drain");
            self.progress.phase = Phase::Drain;
        }
        run_to(&mut self.sim, upto);
        if upto >= sim_end && self.progress.phase == Phase::Drain {
            self.mark_phase("phase: run complete");
            self.progress.phase = Phase::Complete;
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
        let mut fork = Ddosim {
            config: self.config.clone(),
            sim,
            runtime,
            h: self.h.fork_clone(&map),
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
            inject::schedule(&mut self.sim, &self.h, &spec.faults)?;
        }
        if !spec.admin_lines.is_empty() {
            let schedule: Vec<(SimTime, String)> = spec
                .admin_lines
                .iter()
                .map(|(at, line)| (SimTime::ZERO + *at, line.clone()))
                .collect();
            let attacker = self.h.attacker;
            self.sim.install_app(
                attacker.node,
                Box::new(AdminConsole::new(attacker.addr_v4, schedule)),
            );
        }
        Ok(())
    }

    /// Table I and the §IV-B counters of a world the walk has taken to
    /// its horizon.
    fn collect(self) -> RunResult {
        debug_assert_eq!(self.progress.phase, Phase::Complete);
        let PhaseProgress {
            pre_attack: pre,
            attack,
            attack_wall,
            ..
        } = self.progress;
        let sink = self
            .sim
            .app_ref::<TServerSink>(self.h.sink)
            .expect("sink app lives for the whole run");
        let avg = sink
            .average_received_data_rate_kbps(self.config.attack_at, self.config.attack.duration);
        let per_second_kbits: Vec<f64> = sink
            .per_second_bytes
            .iter()
            .map(|b| *b as f64 * 8.0 / 1000.0)
            .collect();
        let flood_packets_received = sink.flood_packets;
        let flood_bytes_received = sink.flood_bytes;

        let cnc = self
            .sim
            .app_ref::<CncServer>(self.h.cnc)
            .expect("C&C app lives for the whole run");
        let churn = self.h.churn_ctl.and_then(|id| {
            self.sim
                .app_ref::<ChurnController>(id)
                .map(|c| ChurnSummary {
                    departures: c.departures,
                    rejoins: c.rejoins,
                    down_at_end: c.down_count(),
                })
        });
        let scanner_summary = self.h.scanner.and_then(|id| {
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
            infected_before_attack: pre.infected,
            bots_at_command: pre.bots,
            infection_rate: self.runtime.infected_count() as f64 / self.config.devs as f64,
            infection_times_secs,
            peak_bots: cnc.peak_bots,
            total_registrations: cnc.total_registrations,
            flood_packets_received,
            flood_bytes_received,
            pre_attack_mem_gb: bytes_to_gb(pre_attack_bytes(pre.container_bytes)),
            attack_mem_gb: bytes_to_gb(attack_bytes(attack.container_bytes, attack.packets)),
            attack_wall_clock_secs: attack_wall.as_secs_f64(),
            packets_sent: self.sim.stats().packets_sent,
            packets_delivered: self.sim.stats().packets_delivered,
            packets_dropped: self.sim.stats().total_dropped(),
            churn_summary: churn,
            scanner_successes: scanner_summary.map(|(s, _)| s),
            scanner_attempts: scanner_summary.map(|(_, a)| a),
        }
    }
}
