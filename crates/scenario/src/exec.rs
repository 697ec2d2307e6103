//! Scenario execution: turning a parsed plan into scheduled, forkable
//! simulator work.
//!
//! Every deployment is a [`netsim::Simulator::schedule_forkable_call`] —
//! plain data plus a `fn` pointer — so a scenario-bearing world forks,
//! checkpoints, and suffix-sweeps exactly like a plain one. Randomized
//! choices (patch-wave order, rival target order) draw from the scenario's
//! own RNG stream, seeded `world_seed ^ plan_seed ^ SCENARIO_TAG`, so they
//! perturb neither the simulator's main nor fault stream.

use crate::plan::{DefenseSpec, RivalSpec, ScenarioPlan};
use analysis::RateLimiter;
use ddosim_core::reboot::DAEMON_NAMES;
use ddosim_core::Ddosim;
use firmware::{CommandSet, ContainerHandle};
use malware::{Bot, CncServer};
use netsim::{Category, FilterRule, LinkConfig, NodeId, SimTime, Simulator};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;

/// Domain-separation tag folded into the scenario RNG stream's seed, so
/// the stream can never collide with the simulator's main (`seed`), fault
/// (`seed ^ 0xFA17`), or build (`seed ^ 0xB111D`) streams.
pub const SCENARIO_TAG: u64 = 0x5CE_A210;

/// Emits a defense-category flight-recorder event from a scheduled call.
fn record_defense(sim: &Simulator, node: NodeId, detail: String) {
    let now = sim.now().as_nanos();
    sim.telemetry()
        .record_event(now, Some(node.index() as u32), Category::Defense, || detail);
}

/// Deploys the per-source rate limiter on the victim's node.
fn deploy_rate_limit(sim: &mut Simulator, data: (NodeId, u64, u64)) {
    let (node, rate_bps, burst_bytes) = data;
    record_defense(
        sim,
        node,
        format!(
            "rate limiter deployed on tserver: {rate_bps} bps, {burst_bytes} B burst per source"
        ),
    );
    sim.push_node_filter(node, RateLimiter { rate_bps, burst_bytes }.into_rule());
}

/// Deploys ISP egress filtering for the victim on the fabric node.
fn deploy_egress_filter(sim: &mut Simulator, data: (NodeId, IpAddr, Option<u16>)) {
    let (node, dst, port) = data;
    record_defense(
        sim,
        node,
        match port {
            Some(p) => format!("egress filter deployed at ISP: blocking traffic to {dst}:{p}"),
            None => format!("egress filter deployed at ISP: blocking all traffic to {dst}"),
        },
    );
    sim.push_node_filter(node, FilterRule::EgressBlock { dst, port });
}

/// Arms the honeypot-fed blocklist on the fabric node.
fn arm_blocklist(sim: &mut Simulator, node: NodeId) {
    record_defense(
        sim,
        node,
        "honeypot blocklist armed at ISP: trapped sources are dropped".to_owned(),
    );
    sim.push_node_filter(node, FilterRule::Blocklist);
}

/// Powers the C&C host off — the takedown.
fn takedown_cnc(sim: &mut Simulator, node: NodeId) {
    record_defense(sim, node, "C&C takedown: attacker host seized and powered off".to_owned());
    sim.set_node_admin(node, false);
}

/// Patches one wave of devices: the hardened command set replaces the
/// firmware's, and the device reboots (volatile malware dies; a patched
/// device cannot re-run the `curl | sh` stage-1).
fn patch_wave(sim: &mut Simulator, data: (Vec<(NodeId, ContainerHandle)>, Vec<String>, u32)) {
    let (wave, remove, wave_idx) = data;
    let removed: Vec<&str> = remove.iter().map(String::as_str).collect();
    for (node, container) in wave {
        container.state_mut().commands = CommandSet::without(&removed);
        for app in container.reboot(sim.now(), &DAEMON_NAMES) {
            sim.remove_app(app);
        }
        record_defense(
            sim,
            node,
            format!("patch wave {wave_idx}: firmware updated, {removed:?} removed, device rebooted"),
        );
    }
}

/// Installs a rival-family bot on one device. The rival carries a
/// recognizable process name (so the primary botnet's killer module can
/// hunt it), holds the single-instance port, and — like Hajime and the
/// qbot lineage — locks the door behind it: the download toolchain is
/// stripped so a later `curl | sh` stage-1 from a competitor fails.
fn install_rival(sim: &mut Simulator, data: ((NodeId, ContainerHandle), (SocketAddr, u64, String))) {
    let ((node, container), (rival_cnc, rate_bps, name)) = data;
    let now = sim.now().as_nanos();
    sim.telemetry().record_event(now, Some(node.index() as u32), Category::Infection, || {
        format!("rival family '{name}' attempts takeover (C&C {rival_cnc}); curl stripped")
    });
    container.state_mut().commands = CommandSet::without(&["curl"]);
    let exec_path = format!("/tmp/{name}");
    let pid = container.register_proc(name.clone(), None, Vec::new());
    let bot = Bot::new(container.clone(), rival_cnc, exec_path, pid, rate_bps, Duration::ZERO)
        .with_process_name(name);
    let app = sim.install_app(node, Box::new(bot));
    container.state_mut().procs.set_app(pid, app);
}

impl ScenarioPlan {
    /// Builds the plan's world and installs every scheduled deployment.
    ///
    /// # Errors
    ///
    /// Returns a message if the composed configuration fails validation.
    pub fn build(&self) -> Result<Ddosim, String> {
        self.build_with_telemetry(netsim::TelemetryConfig::default())
    }

    /// Like [`ScenarioPlan::build`], with observation knobs layered on
    /// (ORed into the plan's configuration, which never sets any itself).
    ///
    /// # Errors
    ///
    /// Returns a message if the composed configuration fails validation.
    pub fn build_with_telemetry(
        &self,
        telemetry: netsim::TelemetryConfig,
    ) -> Result<Ddosim, String> {
        let mut config = self.config();
        config.telemetry = telemetry;
        let mut world = Ddosim::new(config)?;
        self.install(&mut world)?;
        Ok(world)
    }

    /// Schedules every defense and rival deployment onto an
    /// already-built world. The world must have been built from
    /// [`ScenarioPlan::config`] (honeypot and backup-C&C counts are
    /// build-time world shape; this is checked).
    ///
    /// A plan with no defenses and no rivals schedules nothing and draws
    /// from no RNG — a strict no-op against the plain builder path.
    ///
    /// # Errors
    ///
    /// Returns a message if the world's shape does not match the plan.
    pub fn install(&self, world: &mut Ddosim) -> Result<(), String> {
        let config = world.config();
        if config.honeypots != self.config().honeypots
            || config.backup_cncs != self.config().backup_cncs
        {
            return Err(format!(
                "scenario '{}' installed on a world it did not shape: build the world \
                 from ScenarioPlan::config() (honeypots {} vs {}, backup C&Cs {} vs {})",
                self.name,
                config.honeypots,
                self.config().honeypots,
                config.backup_cncs,
                self.config().backup_cncs,
            ));
        }
        // The scenario's own stream: never constructed unless a
        // randomized feature needs it.
        let mut rng = self
            .needs_rng()
            .then(|| SmallRng::seed_from_u64(config.seed ^ self.seed ^ SCENARIO_TAG));

        let (tserver_node, tserver_v4) = world.tserver();
        let (attacker_node, _) = world.attacker();
        let fabric_node = world.fabric_node();
        for defense in &self.defenses {
            match defense {
                DefenseSpec::RateLimit { at, rate_bps, burst_bytes } => {
                    world.sim_mut().schedule_forkable_call(
                        SimTime::ZERO + *at,
                        "scenario.rate_limit",
                        (tserver_node, *rate_bps, *burst_bytes),
                        deploy_rate_limit,
                    );
                }
                DefenseSpec::EgressFilter { at, port } => {
                    world.sim_mut().schedule_forkable_call(
                        SimTime::ZERO + *at,
                        "scenario.egress_filter",
                        (fabric_node, tserver_v4, *port),
                        deploy_egress_filter,
                    );
                }
                DefenseSpec::Honeypot { blocklist_at, .. } => {
                    world.sim_mut().schedule_forkable_call(
                        SimTime::ZERO + *blocklist_at,
                        "scenario.blocklist",
                        fabric_node,
                        arm_blocklist,
                    );
                }
                DefenseSpec::CncTakedown { at, .. } => {
                    world.sim_mut().schedule_forkable_call(
                        SimTime::ZERO + *at,
                        "scenario.cnc_takedown",
                        attacker_node,
                        takedown_cnc,
                    );
                }
                DefenseSpec::PatchRollout { start, wave_interval, waves, remove } => {
                    let mut fleet: Vec<(NodeId, ContainerHandle)> = world
                        .devs()
                        .iter()
                        .map(|d| (d.node, d.container.clone()))
                        .collect();
                    let rng = rng.as_mut().expect("patch rollout implies needs_rng");
                    fleet.shuffle(rng);
                    let waves = (*waves as usize).min(fleet.len().max(1));
                    let per_wave = fleet.len().div_ceil(waves);
                    for (w, wave) in fleet.chunks(per_wave.max(1)).enumerate() {
                        world.sim_mut().schedule_forkable_call(
                            SimTime::ZERO + *start + *wave_interval * w as u32,
                            "scenario.patch_wave",
                            (wave.to_vec(), remove.clone(), w as u32),
                            patch_wave,
                        );
                    }
                }
            }
        }

        if let Some(RivalSpec { count, start, interval, process_name, flood_rate_bps }) =
            &self.rivals
        {
            // The rival family runs its own C&C on its own host.
            let member = world.attach_extra_node(
                "rival-cnc",
                LinkConfig::new(100_000_000, Duration::from_millis(5))
                    .with_queue_capacity(1 << 20),
            );
            let rival_cnc = SocketAddr::new(member.addr_v4, protocols::CNC_PORT);
            world.sim_mut().install_app(member.node, Box::new(CncServer::new()));
            let mut targets: Vec<(NodeId, ContainerHandle)> = world
                .devs()
                .iter()
                .map(|d| (d.node, d.container.clone()))
                .collect();
            let rng = rng.as_mut().expect("rivals imply needs_rng");
            targets.shuffle(rng);
            for (k, target) in targets.into_iter().take(*count as usize).enumerate() {
                world.sim_mut().schedule_forkable_call(
                    SimTime::ZERO + *start + *interval * k as u32,
                    "scenario.rival",
                    (target, (rival_cnc, *flood_rate_bps, process_name.clone())),
                    install_rival,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddosim_core::SimulationBuilder;

    fn parse(extra: &str) -> ScenarioPlan {
        ScenarioPlan::parse(&format!(
            r#"{{"schema":"ddosim.scenario/1","name":"t",
                "world":{{"devs":4,"seed":11,"sim_time_secs":40,"attack_at_secs":15}},
                "attack":{{"duration_secs":10}}{extra}}}"#
        ))
        .expect("plan parses")
    }

    /// The foundational guarantee: a scenario with no defenses and no
    /// rivals runs bit-identically to the same world built without any
    /// scenario machinery.
    #[test]
    fn empty_scenario_is_a_strict_noop() {
        let plan = parse("");
        let mut scenario_world = plan.build().expect("scenario world");
        let mut plain_world = SimulationBuilder::new()
            .devs(4)
            .seed(11)
            .sim_time(Duration::from_secs(40))
            .attack_at(Duration::from_secs(15))
            .attack(ddosim_core::AttackSpec {
                duration: Duration::from_secs(10),
                ..ddosim_core::AttackSpec::default()
            })
            .build()
            .expect("plain world");
        scenario_world.run_prefix(Duration::from_secs(40)).expect("prefix runs");
        plain_world.run_prefix(Duration::from_secs(40)).expect("prefix runs");
        let a = scenario_world.state_digests();
        let b = plain_world.state_digests();
        assert_eq!(a, b, "scenario-built world diverged from the plain builder");
    }

    /// Same plan, same seeds, two runs: digests must match layer for
    /// layer even with every defense scheduled.
    #[test]
    fn loaded_scenario_is_deterministic() {
        let extra = r#","defenses":[
            {"kind":"rate_limit","at_secs":16,"rate_bps":64000,"burst_bytes":8000},
            {"kind":"egress_filter","at_secs":20,"port":80},
            {"kind":"patch_rollout","start_secs":5,"wave_interval_secs":5,"waves":2},
            {"kind":"honeypot","count":1},
            {"kind":"cnc_takedown","at_secs":25,"backups":1}],
           "rivals":{"count":2,"start_secs":6,"interval_secs":4}"#;
        let run = || {
            let mut world = parse(extra).build().expect("world");
            world.run_prefix(Duration::from_secs(40)).expect("prefix runs");
            world.state_digests()
        };
        assert_eq!(run(), run(), "same scenario, same seed, different digests");
    }

    /// The rate limiter and egress filter must actually deploy (filter
    /// count on their nodes goes up at the scheduled times).
    #[test]
    fn defenses_deploy_on_schedule() {
        let plan = parse(
            r#","defenses":[
                {"kind":"rate_limit","at_secs":16},
                {"kind":"egress_filter","at_secs":20,"port":80}]"#,
        );
        let mut world = plan.build().expect("world");
        let (tserver_node, _) = world.tserver();
        let fabric = world.fabric_node();
        world.run_prefix(Duration::from_secs(10)).expect("prefix runs");
        assert_eq!(world.sim_mut().node_filter_count(tserver_node), 0);
        assert_eq!(world.sim_mut().node_filter_count(fabric), 0);
        world.run_prefix(Duration::from_secs(30)).expect("prefix runs");
        assert_eq!(world.sim_mut().node_filter_count(tserver_node), 1);
        assert_eq!(world.sim_mut().node_filter_count(fabric), 1);
    }

    /// A seized primary C&C orphans the bots only until the fallback
    /// chain kicks in: every bot must re-home to the backup host.
    #[test]
    fn takedown_with_backups_rehomes_the_botnet() {
        let plan = ScenarioPlan::parse(
            r#"{"schema":"ddosim.scenario/1","name":"takedown",
                "world":{"devs":4,"seed":11,"sim_time_secs":200,"attack_at_secs":30},
                "attack":{"duration_secs":10},
                "defenses":[{"kind":"cnc_takedown","at_secs":20,"backups":1}]}"#,
        )
        .expect("plan");
        let mut world = plan.build().expect("world");
        world.run_prefix(Duration::from_secs(200)).expect("prefix runs");
        assert_eq!(world.backup_cncs().len(), 1, "one backup C&C attached");
        assert_eq!(
            world.backup_connected_bots(),
            4,
            "all bots rotate to the backup after the takedown"
        );
    }

    /// Honeypots among a scanning worm's targets get probed, and every
    /// trapped source lands on the simulator-global blocklist.
    #[test]
    fn honeypots_trap_scanners_and_feed_the_blocklist() {
        let plan = ScenarioPlan::parse(
            r#"{"schema":"ddosim.scenario/1","name":"hp",
                "world":{"devs":4,"seed":11,"sim_time_secs":90,"attack_at_secs":60,
                         "recruitment":"worm:1.0:1"},
                "attack":{"duration_secs":10},
                "defenses":[{"kind":"honeypot","count":2,"blocklist_at_secs":0}]}"#,
        )
        .expect("plan");
        let mut world = plan.build().expect("world");
        world.run_prefix(Duration::from_secs(90)).expect("prefix runs");
        assert_eq!(world.honeypots().len(), 2, "two honeypot nodes attached");
        assert!(world.honeypot_hits() > 0, "scanners never probed a honeypot");
        assert!(
            world.sim_mut().blocklist_len() > 0,
            "trapped scanners never reached the blocklist"
        );
    }

    /// Worlds must be built from the plan's own config; a shape mismatch
    /// (here: no honeypot nodes) is rejected instead of silently
    /// scheduling defenses that reference missing infrastructure.
    #[test]
    fn install_rejects_mismatched_worlds() {
        let plan = parse(r#","defenses":[{"kind":"honeypot","count":2}]"#);
        let mut other = SimulationBuilder::new().devs(4).seed(11).build().expect("world");
        let err = plan.install(&mut other).expect_err("shape mismatch");
        assert!(err.contains("did not shape"), "{err}");
    }

    /// A scenario world forks cleanly mid-run with deployments pending —
    /// the whole point of forkable scheduling.
    #[test]
    fn scenario_world_forks_with_pending_deployments() {
        let plan = parse(
            r#","defenses":[{"kind":"rate_limit","at_secs":25}],
               "rivals":{"count":1,"start_secs":30}"#,
        );
        let mut world = plan.build().expect("world");
        world.run_prefix(Duration::from_secs(10)).expect("prefix runs");
        let mut fork = world.fork().expect("fork with pending scenario calls");
        fork.run_prefix(Duration::from_secs(40)).expect("prefix runs");
        world.run_prefix(Duration::from_secs(40)).expect("prefix runs");
        assert_eq!(
            world.state_digests(),
            fork.state_digests(),
            "identity fork diverged from parent"
        );
    }
}
