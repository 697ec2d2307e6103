//! Mirai self-defense behaviours observed inside live simulations: process
//! obfuscation, binary deletion, and the audit trail a researcher can
//! extract from any compromised Dev ("scrutinize compromised devices").

use ddosim::{AttackSpec, SimulationBuilder};
use firmware::ContainerEvent;
use std::time::Duration;

fn infected_instance() -> ddosim::Ddosim {
    let mut instance = SimulationBuilder::new()
        .devs(5)
        .attack(AttackSpec::udp_plain(Duration::from_secs(10)))
        .attack_at(Duration::from_secs(40))
        .sim_time(Duration::from_secs(60))
        .seed(3)
        .build()
        .expect("valid configuration");
    instance.run_prefix(Duration::from_secs(30)).expect("prefix runs");
    assert_eq!(instance.infected_count(), 5, "setup: all recruited");
    instance
}

#[test]
fn bot_obfuscates_its_process_name() {
    let instance = infected_instance();
    for dev in instance.devs() {
        let state = dev.container.state();
        let names: Vec<String> = state.procs.iter().map(|p| p.name.clone()).collect();
        assert!(
            !names.iter().any(|n| n.contains("mirai")),
            "bot name must be obfuscated, got {names:?}"
        );
        // The daemon plus the obfuscated bot (10 alphanumerics).
        assert!(
            names.iter().any(|n| n.len() == 10
                && n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())),
            "an obfuscated process must exist, got {names:?}"
        );
    }
}

#[test]
fn bot_deletes_its_binary_from_disk() {
    let instance = infected_instance();
    for dev in instance.devs() {
        assert!(
            !dev.container.state().fs.exists("/tmp/mirai"),
            "the downloaded binary must be removed"
        );
    }
}

#[test]
fn audit_trail_shows_curl_pipe_sh_chain() {
    let instance = infected_instance();
    let dev = &instance.devs()[0];
    let state = dev.container.state();
    let commands: Vec<&str> = state
        .events
        .iter()
        .filter_map(|e| match e {
            ContainerEvent::CommandRun { command, .. } => Some(command.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        commands.iter().any(|c| c.starts_with("curl -s http://") && c.ends_with("| sh")),
        "stage-1 curl-pipe-sh must be recorded (the paper's §IV-C insight), got {commands:?}"
    );
    assert!(commands.iter().any(|c| c.starts_with("wget ")));
    assert!(commands.iter().any(|c| c.starts_with("chmod +x")));
    let downloaded = state
        .events
        .iter()
        .any(|e| matches!(e, ContainerEvent::Downloaded { bytes, .. } if *bytes > 100_000));
    assert!(downloaded, "the bot binary download must be recorded");
    let executed = state
        .events
        .iter()
        .any(|e| matches!(e, ContainerEvent::Executed { path, .. } if path == "/tmp/mirai"));
    assert!(executed);
}

#[test]
fn infection_times_are_recorded_and_ordered() {
    let instance = infected_instance();
    let times = instance.runtime().infection_times();
    assert_eq!(times.len(), 5);
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
    assert!(
        times.last().expect("nonempty").as_secs_f64() < 30.0,
        "recruitment completes during the pre-attack phase"
    );
}

#[test]
fn single_instance_guard_prevents_double_bots() {
    // Run long enough that the attacker's reconciler would re-exploit if a
    // device looked uninfected; the single-instance port bind must keep
    // exactly one bot alive per device.
    let mut instance = SimulationBuilder::new()
        .devs(4)
        .attack(AttackSpec::udp_plain(Duration::from_secs(10)))
        .attack_at(Duration::from_secs(80))
        .sim_time(Duration::from_secs(100))
        .seed(6)
        .build()
        .expect("valid configuration");
    instance.run_prefix(Duration::from_secs(75)).expect("prefix runs");
    for dev in instance.devs() {
        let state = dev.container.state();
        let obfuscated = state
            .procs
            .iter()
            .filter(|p| {
                p.name.len() == 10
                    && p.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            })
            .count();
        assert_eq!(obfuscated, 1, "exactly one bot per device");
    }
}
