//! The experiment table (`ddosim-bench`) at miniature sizes: the public arm
//! builders with 2–6 Devs on the two runners, plus the table's own shape
//! and the `exp` driver's contract. `exp` runs the paper-scale versions.

use ddosim::experiment::{crn_arms, run_arms};
use ddosim::{AttackSpec, Recruitment, RunResult, SimulationBuilder, TopologyKind};
use ddosim_bench::sweeps::{
    ablation_arms, fig2_arms, fig3_arms, fig4_arms, infection_arms, recruitment_arms, Key,
};
use ddosim_bench::{exp, results_dir, usecases::table1, TABLE};
use std::path::PathBuf;
use std::time::Duration;

/// The first replicate of the arm whose key is `key`.
fn run_of<'a>(rows: &'a [(Key, Vec<RunResult>)], key: &[&str]) -> &'a RunResult {
    let row = rows.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no arm {key:?}"));
    &row.1[0]
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ddosim-{name}-{}", std::process::id()))
}

#[test]
fn fig2_sweep_produces_one_point_per_cell() {
    let rows = run_arms(fig2_arms(&[2, 4]), 1, 77);
    assert_eq!(rows.len(), 2 * 3, "dev counts × churn modes");
    for (key, runs) in &rows {
        assert_eq!(runs.len(), 1);
        assert!(runs[0].infected > 0, "{key:?}");
    }
    // More devices, more traffic (within a churn mode).
    let kbps = |devs| run_of(&rows, &[devs, "no churn"]).avg_received_data_rate_kbps;
    assert!(kbps("4") > kbps("2"));
}

#[test]
fn fig3_sweep_is_grouped_by_round() {
    let keys: Vec<Key> = fig3_arms(&[3], &[150, 300]).into_iter().map(|(key, _)| key).collect();
    assert_eq!(keys, [["3", "150"], ["3", "300"]]);
    // The same list, paired: the first arm is the baseline, and a longer
    // attack averages higher under shared noise.
    let paired = crn_arms(fig3_arms(&[3], &[60, 120]), |key| key[1].clone(), 2, 78, |r| {
        r.avg_received_data_rate_kbps
    });
    assert_eq!(paired.len(), 1);
    assert_eq!((paired[0].label.as_str(), paired[0].replicates), ("120", 2));
    assert!(paired[0].diff_mean > 0.0, "{:?}", paired[0]);
}

#[test]
fn table1_rows_are_monotone_in_memory() {
    let out = table1(&[2, 6]);
    let [csv] = out.files.as_slice() else { panic!("one artefact, got {}", out.files.len()) };
    assert_eq!(csv.lines().count(), 3);
    // The row's own claims (memory grows, attack ≥ pre-attack) hold on the
    // miniature, and the host's clock is printed but not written.
    let row = TABLE.iter().find(|row| row.name == "table1").expect("row exists");
    for verdict in row.verdicts(|_| Ok(csv.clone())) {
        verdict.expect("claim holds");
    }
    assert!(out.text.contains("attack wall-clock") && !csv.contains(':'), "{}", out.text);
}

#[test]
fn fig4_pairs_the_star_with_the_lab_medium() {
    let arms = fig4_arms(&[2]);
    assert_eq!(arms[0].1.topology, TopologyKind::Star);
    assert_eq!(arms[1].1.topology, TopologyKind::Wifi);
    let rows = run_arms(arms, 1, 79);
    assert_eq!(rows.len(), 2, "one arm per model");
    // Both media carry the same two bots' flood to within Fig. 4's bound.
    let star = run_of(&rows, &["2", "ddosim"]);
    let lab = run_of(&rows, &["2", "hardware-ref"]);
    assert_eq!((star.infected, lab.infected), (2, 2));
    let (d, h) = (star.avg_received_data_rate_kbps, lab.avg_received_data_rate_kbps);
    assert!(h > 50.0 && (d - h).abs() / h < 0.35, "star {d:.0} kbps, lab {h:.0} kbps");
}

#[test]
fn infection_matrix_covers_all_cells() {
    let rows = run_arms(infection_arms(3), 1, 80);
    assert_eq!(rows.len(), 4 * 3, "protection subsets × strategies");
    // The paper's cell: leak+rebase on the full subset is 100%.
    assert_eq!(run_of(&rows, &["w^x+aslr", "leak+rebase"]).infection_rate, 1.0);
    assert_eq!(run_of(&rows, &["w^x+aslr", "static-chain"]).infection_rate, 0.0);
}

#[test]
fn ablations_include_the_curl_and_canary_rows() {
    let rows = run_arms(ablation_arms(3, false), 1, 81);
    let labels: Vec<&str> = rows.iter().map(|(key, _)| key[0].as_str()).collect();
    assert!(labels.iter().any(|l| l.contains("canaries")));
    assert!(labels.iter().any(|l| l.contains("tiered")));
    assert_eq!(run_of(&rows, &["vendor removes curl"]).infection_rate, 0.0);
    // The CRN table pairs the hardening subset, baseline first.
    let hardening = ablation_arms(3, true);
    assert_eq!(hardening.len(), 4);
    assert_eq!(hardening[0].0, rows[0].0);
}

#[test]
fn recruitment_comparison_orders_by_prevalence() {
    let rows = run_arms(recruitment_arms(6), 1, 82);
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0].1[0].infection_rate, 1.0, "memory error recruits all");
    // Scanner rows are <= 100% (Bernoulli draws make exact values noisy).
    for (_, runs) in &rows[1..] {
        assert!(runs[0].infection_rate <= 1.0);
    }
}

#[test]
fn every_table_row_is_named_once_and_gated() {
    let mut names: Vec<&str> = TABLE.iter().map(|row| row.name).collect();
    let mut artefacts: Vec<&str> = TABLE.iter().flat_map(|row| row.artefacts).copied().collect();
    let (rows, files) = (names.len(), artefacts.len());
    names.sort_unstable();
    names.dedup();
    artefacts.sort_unstable();
    artefacts.dedup();
    assert_eq!((names.len(), artefacts.len()), (rows, files), "names and artefacts are unique");
    for row in TABLE {
        assert!(!row.artefacts.is_empty() && !row.claims.is_empty(), "{} is ungated", row.name);
        for (file, says, _) in row.claims {
            assert!(row.artefacts.contains(file), "{}: '{says}' reads a foreign {file}", row.name);
        }
    }
}

#[test]
fn exp_nonsense_exits_1_listing_the_names() {
    let dir = scratch("exp-nonsense");
    let usage = exp(&["fig2".to_owned(), "nonsense".to_owned()], &dir).expect_err("exit code 1");
    assert!(usage.starts_with("no experiment named nonsense\n"), "got: {usage}");
    for row in TABLE {
        assert!(usage.contains(&format!("| {} ", row.name)), "{} is not listed", row.name);
    }
    assert!(!dir.exists(), "an unknown name runs nothing, not even the known ones");
}

#[test]
fn a_one_row_run_writes_only_its_artefacts_and_reproduces_the_record() {
    // There is one size per experiment, so a quick look at one row cannot
    // replace paper-scale files with shrunken ones: into an empty
    // directory it writes its own artefacts and nothing else, each
    // byte-identical to the committed copy.
    let dir = scratch("exp-one-row");
    let row = TABLE.iter().find(|row| row.name == "timeseries").expect("row exists");
    exp(&[row.name.to_owned()], &dir).expect("runs and its claims hold");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("directory was created")
        .map(|entry| entry.expect("readable").file_name().into_string().expect("utf-8"))
        .collect();
    written.sort();
    assert_eq!(written, row.artefacts);
    for file in row.artefacts {
        let (fresh, committed) = (std::fs::read(dir.join(file)), std::fs::read(results_dir().join(file)));
        assert_eq!(fresh.expect("written"), committed.expect("committed"), "{file} drifted");
    }
    std::fs::remove_dir_all(&dir).expect("scratch is ours");
}

#[test]
fn kitchen_sink_every_feature_at_once() {
    // Worm recruitment + dynamic churn + reboots + tiered topology +
    // an early-stopped SYN flood over IPv6: nothing panics, the books
    // balance, and the botnet still forms.
    let r = SimulationBuilder::new()
        .devs(15)
        .recruitment(Recruitment::SelfPropagating {
            default_credential_fraction: 1.0,
            seeds: 2,
        })
        .churn(churn::ChurnMode::Dynamic)
        .reboot_rate_per_min(0.5)
        .topology(TopologyKind::Tiered {
            regions: 3,
            region_uplink_bps: 8_000_000,
        })
        .attack_over_ipv6(true)
        .attack(AttackSpec {
            vector: protocols::AttackVector::Syn,
            duration: Duration::from_secs(30),
            payload_bytes: None,
            port: 80,
        })
        .admin_command(Duration::from_secs(110), "stop")
        .attack_at(Duration::from_secs(90))
        .sim_time(Duration::from_secs(150))
        .seed(83)
        .run()
        .expect("valid configuration");
    assert!(r.infected >= 12, "the worm spreads despite churn/reboots: {}", r.infected);
    assert_eq!(
        r.packets_sent,
        r.packets_delivered + r.packets_dropped,
        "conservation holds under every feature"
    );
    assert!(r.avg_received_data_rate_kbps > 0.0, "SYN segments reach TServer over IPv6");
}
