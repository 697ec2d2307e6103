//! The paper's arm lists, and the two ways the table runs them: `sweep`
//! (arms × replicates, one table row per arm) and the `crn` variance
//! comparison that pairs the same lists under shared noise.
//!
//! An arm's key is the cells its table row starts with, so a builder
//! called with 2–6 Devs is a miniature of its paper-scale row (which is
//! how `tests/experiment_harness.rs` covers them).

use crate::Output;
use churn::ChurnMode;
use ddosim_core::experiment::{crn_arms, mean, run_arms, world, Arm};
use ddosim_core::report::{fmt_f, Table};
use ddosim_core::{
    AttackSpec, ExploitStrategy, Recruitment, RunResult, SimulationConfig, TopologyKind,
};
use firmware::CommandSet;
use std::time::Duration;
use tinyvm::{ProtectionMix, Protections};

/// The leading cells of an arm's table row.
pub type Key = Vec<String>;

/// A per-run number a table column (or a CRN comparison) is made of.
pub(crate) type Metric = fn(&RunResult) -> f64;

pub(crate) const KBPS: Metric = |r| r.avg_received_data_rate_kbps;
pub(crate) const INFECTION_RATE: Metric = |r| r.infection_rate;
pub(crate) const INFECTED: Metric = |r| r.infected as f64;
pub(crate) const TIME_TO_INFECT: Metric = |r| mean(r.infection_times_secs.iter().copied());

/// How a column prints its mean over an arm's replicates.
pub(crate) enum Cell {
    Fixed(usize),
    Percent,
}

/// Header, metric and format of one measured column.
pub(crate) type Column = (&'static str, Metric, Cell);

pub(crate) const RATE_COLUMNS: &[Column] = &[
    ("infection rate", INFECTION_RATE, Cell::Percent),
    ("avg received data rate (kbps)", KBPS, Cell::Fixed(1)),
];

/// Runs `arms` × `replicates` on the worker pool (replicate `r` under seed
/// `seed + r`): one table row per arm — its key cells under the `keys`
/// headers, then each column's metric averaged over the arm's replicates.
pub(crate) fn sweep(
    title: &str,
    arms: Vec<Arm<Key>>,
    replicates: u64,
    seed: u64,
    keys: &[&str],
    columns: &[Column],
) -> Output {
    let headers: Vec<&str> = keys.iter().copied().chain(columns.iter().map(|c| c.0)).collect();
    let mut table = Table::new(title, &headers);
    for (mut row, runs) in run_arms(arms, replicates, seed) {
        row.extend(columns.iter().map(|(_, metric, cell)| {
            let v = mean(runs.iter().map(metric));
            match cell {
                Cell::Fixed(digits) => fmt_f(v, *digits),
                Cell::Percent => format!("{:.0}%", v * 100.0),
            }
        }));
        table.push_row(row);
    }
    Output::table(&table)
}

/// Fig. 2's arms: every device count × churn level (no churn first — the
/// CRN baseline), 100 s attack; key `[devs, churn]`.
pub fn fig2_arms(dev_counts: &[usize]) -> Vec<Arm<Key>> {
    let modes = [ChurnMode::None, ChurnMode::Static, ChurnMode::Dynamic];
    let arm = |devs: usize, churn: ChurnMode| {
        (vec![devs.to_string(), churn.to_string()], world(devs, |c| c.churn = churn))
    };
    dev_counts.iter().flat_map(|&devs| modes.map(|churn| arm(devs, churn))).collect()
}

/// Fig. 3's arms: every device count × attack duration (the shortest
/// first — the CRN baseline), no churn; key `[devs, seconds]`.
pub fn fig3_arms(dev_counts: &[usize], durations_secs: &[u64]) -> Vec<Arm<Key>> {
    let arm = |devs: usize, secs: u64| {
        let attack = AttackSpec::udp_plain(Duration::from_secs(secs));
        (vec![devs.to_string(), secs.to_string()], world(devs, |c| c.attack = attack))
    };
    let round = |&devs: &usize| durations_secs.iter().map(move |&secs| arm(devs, secs));
    dev_counts.iter().flat_map(round).collect()
}

/// Fig. 4's arms: every device count on DDoSim's abstract star, then on
/// the hardware reference — the same stack behind the lab's Wi-Fi router
/// (`--topology wifi`) — with a 220 s horizon; key `[devs, model]`.
pub fn fig4_arms(dev_counts: &[usize]) -> Vec<Arm<Key>> {
    let models = [("ddosim", TopologyKind::Star), ("hardware-ref", TopologyKind::Wifi)];
    let arm = |devs: usize, (model, topology): (&str, TopologyKind)| {
        let config = world(devs, |c| {
            c.topology = topology;
            c.sim_time = Duration::from_secs(220);
        });
        (vec![devs.to_string(), model.to_owned()], config)
    };
    dev_counts.iter().flat_map(|&devs| models.map(|model| arm(devs, model))).collect()
}

/// One arm per exploit strategy (leak+rebase first — the CRN baseline)
/// against a fleet protected by `protections`; key `[fleet, strategy]`.
fn strategy_arms(devs: usize, protections: ProtectionMix) -> Vec<Arm<Key>> {
    let fleet = match protections {
        ProtectionMix::Uniform(p) => p.to_string(),
        ProtectionMix::RandomSubsets => "random subsets".to_owned(),
    };
    [ExploitStrategy::LeakRebase, ExploitStrategy::StaticChain, ExploitStrategy::CodeInjection]
        .map(|strategy| {
            let config = world(devs, |c| {
                c.protections = protections;
                c.strategy = strategy;
            });
            (vec![fleet.clone(), strategy.to_string()], config)
        })
        .into()
}

/// The R1/R2 matrix: every uniform protection subset × exploit strategy;
/// key `[protections, strategy]`.
pub fn infection_arms(devs: usize) -> Vec<Arm<Key>> {
    let subsets = Protections::ALL_SUBSETS.into_iter();
    subsets.flat_map(|p| strategy_arms(devs, ProtectionMix::Uniform(p))).collect()
}

/// The §IV-C ablation arms, baseline first; key `[label]`. With
/// `hardening_only`, just the arms the CRN table pairs (the hardening
/// measures; the rest are insight rows).
pub fn ablation_arms(devs: usize, hardening_only: bool) -> Vec<Arm<Key>> {
    let tiered = TopologyKind::Tiered { regions: 5, region_uplink_bps: 5_000_000 };
    let arm = |label: &str, hardening: bool, edit: &dyn Fn(&mut SimulationConfig)| {
        (hardening, (vec![label.to_owned()], world(devs, edit)))
    };
    let arms = [
        arm("baseline (curl present, 100-500 kbps)", true, &|_| {}),
        arm("vendor removes curl", true, &|c| c.commands = CommandSet::without(&["curl"])),
        arm("vendor removes wget (stage-2 blocked)", false, &|c| {
            c.commands = CommandSet::without(&["wget"])
        }),
        arm("device data rate capped at 100-150 kbps", true, &|c| c.access_rate_kbps = 100..=150),
        arm("device data rate 400-500 kbps", false, &|c| c.access_rate_kbps = 400..=500),
        arm("firmware rebuilt with stack canaries", true, &|c| {
            c.protections = ProtectionMix::Uniform(Protections::HARDENED)
        }),
        arm("tiered Internet (5 regions x 5 Mbps uplinks)", false, &|c| c.topology = tiered),
    ];
    let kept = arms.into_iter().filter(|(hardening, _)| *hardening || !hardening_only);
    kept.map(|(_, arm)| arm).collect()
}

/// The paper's memory-error entry point, then the Mirai-classic credential
/// scanner at three default-credential prevalence levels; key `[label]`.
pub fn recruitment_arms(devs: usize) -> Vec<Arm<Key>> {
    let paper = (vec!["memory-error exploitation (paper)".to_owned()], world(devs, |_| {}));
    let scanners = [0.2, 0.5, 0.8].map(|default_credential_fraction| {
        let label = format!(
            "credential scanner, {:.0}% default creds",
            default_credential_fraction * 100.0
        );
        let scanner = Recruitment::CredentialScanner { default_credential_fraction };
        (vec![label], world(devs, |c| c.recruitment = scanner))
    });
    std::iter::once(paper).chain(scanners).collect()
}

/// One section of the CRN table: an arm list whose first arm is the
/// baseline, how a treatment's key reads as a label, the base seed and
/// the metric compared.
type Pairing = (&'static str, fn() -> Vec<Arm<Key>>, fn(&Key) -> String, u64, Metric);

/// The figures' own arm lists at 25 Devs, so the paired design runs
/// exactly the worlds of the figure it is about.
const PAIRINGS: [Pairing; 4] = [
    ("fig2 churn", || fig2_arms(&[25]), |key| key[1].clone(), 4000, KBPS),
    (
        "fig3 duration",
        || fig3_arms(&[25], &[60, 120, 180]),
        |key| format!("{}s attack vs 60s", key[1]),
        4100,
        KBPS,
    ),
    (
        "infection strategy",
        || strategy_arms(25, ProtectionMix::RandomSubsets),
        |key| format!("{} vs {}", key[1].replace('-', " "), ExploitStrategy::LeakRebase),
        4200,
        INFECTION_RATE,
    ),
    ("hardening ablations", || ablation_arms(25, true), |key| key[0].clone(), 4300, KBPS),
];

/// The variance reduction common random numbers buy: every pairing runs
/// its arms twice, ten replicates each — under one shared noise plan per
/// replicate, and under independent seeds — and reports the sample
/// variance of the per-replicate treatment − baseline difference both
/// ways. `var ratio` (independent ÷ paired) is how many times fewer
/// replicates the paired design needs for the same standard error.
pub(crate) fn crn() -> Output {
    let mut table = Table::new(
        "CRN — paired vs independent difference variance",
        &[
            "experiment",
            "treatment",
            "base mean",
            "treat mean",
            "diff",
            "paired var",
            "indep var",
            "var ratio",
        ],
    );
    for (name, arms, label, seed, metric) in PAIRINGS {
        for c in crn_arms(arms(), label, 10, seed, metric) {
            table.push_row(vec![
                name.to_owned(),
                c.label,
                fmt_f(c.baseline_mean, 2),
                fmt_f(c.treatment_mean, 2),
                fmt_f(c.diff_mean, 2),
                fmt_f(c.paired_diff_var, 2),
                fmt_f(c.independent_diff_var, 2),
                fmt_f(c.variance_ratio, 1),
            ]);
        }
    }
    Output::table(&table)
}
