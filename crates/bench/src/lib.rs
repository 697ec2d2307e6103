//! # ddosim-bench — the experiment table
//!
//! Every table and figure of the paper's evaluation (§IV) plus the §V use
//! cases is one row of [`TABLE`]: its name, what it regenerates, how it
//! runs at paper scale, the deterministic artefacts it owns under
//! `results/`, and the paper's claims about it as checks over those
//! artefacts. `cargo run --release -p ddosim-bench --bin exp` lists the
//! rows; `… --bin exp -- fig2` (or several names, or `all`, ~75 s) prints
//! each row's table, writes its artefacts, evaluates its claims and exits 1
//! if any run or claim failed.
//!
//! There is one size per experiment — the paper's — so what is under
//! `results/` is what the code produces: CI regenerates every artefact and
//! `cmp`s it against the committed copy, and `tests/paper_fidelity.rs`
//! evaluates the same claims against the committed files. Adding or
//! changing an experiment is one row here, then `exp <name>` and committing
//! the diff under `results/`. (This package's other binary is `scale`, the
//! 100,000-device memory-budget and flatness gate; it writes no file.)

#![warn(missing_docs)]

mod claims;
pub mod sweeps;
pub mod usecases;

use claims::{each, mean_at_most, no_less, rises, rises_within};
use ddosim_core::report::Table;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use sweeps::{
    ablation_arms, fig2_arms, fig3_arms, infection_arms, recruitment_arms, sweep, Cell, INFECTED,
    INFECTION_RATE, KBPS, RATE_COLUMNS, TIME_TO_INFECT,
};

/// What running a row produced.
#[derive(Debug)]
pub struct Output {
    /// What to print: the rendered table and any notes.
    pub text: String,
    /// The content of each of the row's artefacts, in the order the row
    /// declares them. Only values derived from the seed belong here —
    /// never the host's clock.
    pub files: Vec<String>,
}

impl Output {
    /// A table printed as text and written as CSV.
    pub(crate) fn table(table: &Table) -> Output {
        Output { text: table.render(), files: vec![table.to_csv()] }
    }
}

/// One of the paper's claims about a row: the artefact it reads, the claim
/// with its tolerance, and the check — `Ok(what was observed)` or
/// `Err(the violation)` for the artefact's text.
pub type Claim = (&'static str, &'static str, fn(&str) -> Result<String, String>);

/// One experiment: everything `exp` needs to regenerate and gate it.
#[derive(Debug)]
pub struct Experiment {
    /// The name `exp` takes.
    pub name: &'static str,
    /// What it regenerates, in one line.
    pub blurb: &'static str,
    /// The files under `results/` it owns — what a run writes, in order.
    pub artefacts: &'static [&'static str],
    /// Runs it at paper scale: arms, sizes, replicates, seeds, columns.
    pub run: fn() -> Output,
    /// The paper's claims about it.
    pub claims: &'static [Claim],
}

/// Every experiment, in the paper's order.
pub const TABLE: &[Experiment] = &[
    Experiment {
        name: "fig2",
        blurb: "Fig. 2 — average received data rate vs #Devs (10–150) × churn, 100 s attack",
        artefacts: &["fig2.csv"],
        run: || {
            sweep(
                "Figure 2 — average received data rate (kbps) at TServer",
                fig2_arms(&[10, 25, 50, 75, 100, 125, 150]),
                3,
                1000,
                &["devs", "churn"],
                &[("avg kbps", KBPS, Cell::Fixed(1)), ("mean infected", INFECTED, Cell::Fixed(1))],
            )
        },
        claims: &[
            ("fig2.csv", "the received rate rises with #Devs at every churn level", |t| {
                rises_within(t, "churn", "devs", "avg kbps")
            }),
            (
                "fig2.csv",
                "the rise is non-linear: last-segment per-Dev slope below the first's",
                claims::fig2_flattens,
            ),
            (
                "fig2.csv",
                "none ≥ dynamic at every Dev count; none ≥ static ≥ dynamic summed over counts; \
                 per count static stays within 10% of the [dynamic, none] band",
                claims::fig2_churn_ordering,
            ),
        ],
    },
    Experiment {
        name: "fig3",
        blurb: "Fig. 3 — average received data rate vs attack duration (150/200/300 s), no churn",
        artefacts: &["fig3.csv"],
        run: || {
            sweep(
                "Figure 3 — average received data rate (kbps) vs attack duration",
                fig3_arms(&[50, 100, 150, 200], &[150, 200, 300]),
                3,
                2000,
                &["devs", "duration (s)"],
                &[("avg kbps", KBPS, Cell::Fixed(1))],
            )
        },
        claims: &[
            ("fig3.csv", "a longer attack averages higher at every Dev count", |t| {
                rises_within(t, "devs", "duration (s)", "avg kbps")
            }),
            (
                "fig3.csv",
                "below the bottleneck, avg ÷ (1 − ramp/2n) is one steady rate per Dev count \
                 across durations, within 0.5%",
                claims::fig3_ramp_law,
            ),
        ],
    },
    Experiment {
        name: "table1",
        blurb: "Table I — modelled memory before/during a 100 s attack vs #Devs (20–130)",
        artefacts: &["table1.csv"],
        run: || usecases::table1(&[20, 40, 70, 100, 130]),
        claims: &[(
            "table1.csv",
            "memory grows with #Devs; the attack phase needs at least the pre-attack phase's",
            |t| {
                rises(t, &[], "devs", "pre-attack mem (GB)")?;
                rises(t, &[], "devs", "attack mem (GB)")?;
                no_less(t, "devs", "attack mem (GB)", "pre-attack mem (GB)")
            },
        )],
    },
    Experiment {
        name: "fig4",
        blurb: "Fig. 4 — DDoSim vs the hardware-reference (Wi-Fi contention) model, 1–19 Devs",
        artefacts: &["fig4.csv"],
        run: usecases::fig4,
        // 15.0 % / 5.3 % when the bounds were set.
        claims: &[("fig4.csv", "the two curves agree: every point within 20%, 10% on average", |t| {
            each(t, &[], 10, "relative error", |e| e <= 20.0, "≤ 20%")?;
            mean_at_most(t, "relative error", 10.0)
        })],
    },
    Experiment {
        name: "infection",
        blurb: "R1/R2 — infection rate by protection subset × exploit strategy, 40 Devs per cell",
        artefacts: &["infection.csv"],
        run: || {
            sweep(
                "R1/R2 — infection rate by protections × exploit strategy",
                infection_arms(40),
                1,
                5000,
                &["protections", "strategy"],
                &[
                    ("infection rate", INFECTION_RATE, Cell::Percent),
                    ("mean time-to-infect (s)", TIME_TO_INFECT, Cell::Fixed(1)),
                ],
            )
        },
        claims: &[(
            "infection.csv",
            "leak+rebase recruits 100% under all four protection subsets; static chains get 0% \
             under ASLR, code injection 0% under W^X",
            |t| {
                each(t, &["leak+rebase"], 4, "infection rate", |r| r == 100.0, "100%")?;
                each(t, &["static-chain", "aslr"], 2, "infection rate", |r| r == 0.0, "0%")?;
                each(t, &["code-injection", "w^x"], 2, "infection rate", |r| r == 0.0, "0%")
            },
        )],
    },
    Experiment {
        name: "ablations",
        blurb: "§IV-C insights — curl/wget removal, data-rate bands, canaries, tiered Internet; 50 Devs",
        artefacts: &["ablations.csv"],
        run: || {
            let arms = ablation_arms(50, false);
            sweep("§IV-C insight ablations", arms, 1, 6000, &["ablation"], RATE_COLUMNS)
        },
        claims: &[(
            "ablations.csv",
            "removing curl or wget, or adding canaries, leaves 0% infected; the higher device \
             data-rate band floods harder",
            |t| {
                for hardening in ["removes curl", "removes wget", "canaries"] {
                    each(t, &[hardening], 1, "infection rate", |r| r == 0.0, "0%")?;
                }
                rises(t, &["device data rate"], "ablation", "avg received data rate (kbps)")
            },
        )],
    },
    Experiment {
        name: "recruitment",
        blurb: "memory-error recruitment vs the Mirai-classic credential scanner, 50 Devs",
        artefacts: &["recruitment.csv"],
        run: || {
            sweep(
                "Recruitment: memory-error exploitation vs credential scanning",
                recruitment_arms(50),
                1,
                7000,
                &["mechanism"],
                RATE_COLUMNS,
            )
        },
        claims: &[(
            "recruitment.csv",
            "memory-error exploitation recruits 100%; the scanner's share rises with \
             default-credential prevalence",
            |t| {
                each(t, &["memory-error"], 1, "infection rate", |r| r == 100.0, "100%")?;
                rises(t, &["credential scanner"], "mechanism", "infection rate")
            },
        )],
    },
    Experiment {
        name: "crn",
        blurb: "common random numbers — paired vs independent difference variance, 25 Devs × 10",
        artefacts: &["crn.csv"],
        run: sweeps::crn,
        // Pairing pays off where both arms co-vary with the shared noise;
        // a treatment that clamps the metric (curl removal → 0 kbps) gains
        // nothing and is not claimed.
        claims: &[(
            "crn.csv",
            "pairing cuts the difference variance (ratio > 1) on the churn and duration comparisons",
            |t| {
                each(t, &["fig2 churn"], 2, "var ratio", |r| r > 1.0, "above 1")?;
                each(t, &["fig3 duration"], 2, "var ratio", |r| r > 1.0, "above 1")
            },
        )],
    },
    Experiment {
        name: "defense",
        blurb: "§V-A — ML detector trained on flow features of simulated traffic",
        artefacts: &["defense.txt"],
        run: usecases::defense,
        claims: &[("defense.txt", "held-out accuracy and F1 ≥ 0.95", |t| {
            each(t, &[], 1, "accuracy", |a| a >= 0.95, "≥ 0.95")?;
            each(t, &[], 1, "f1", |f| f >= 0.95, "≥ 0.95")
        })],
    },
    Experiment {
        name: "mitigation",
        blurb: "deployed defenses at the upstream router: token bucket vs ML filter",
        artefacts: &["mitigation.csv"],
        run: usecases::mitigation,
        claims: &[(
            "mitigation.csv",
            "both defenses at least halve the flood; the token bucket costs ≤ 5% of benign traffic",
            |t| {
                each(t, &["token-bucket"], 1, "mitigation", |m| m >= 50.0, "≥ 50%")?;
                each(t, &["ML filter"], 1, "mitigation", |m| m >= 50.0, "≥ 50%")?;
                each(t, &["token-bucket"], 1, "benign collateral", |c| c <= 5.0, "≤ 5%")
            },
        )],
    },
    Experiment {
        name: "epidemic",
        blurb: "§V-A2 — SI-model fit of the measured infection curve of 80 Devs, attacker-driven and worm",
        artefacts: &["epidemic.csv", "epidemic_fit.txt", "epidemic_worm_fit.txt"],
        run: usecases::epidemic,
        claims: &[
            ("epidemic_fit.txt", "the SI fit's RMSE is ≤ 8 devices, 10% of the population", |t| {
                each(t, &[], 1, "rmse", |e| e <= 8.0, "≤ 8")
            }),
            ("epidemic_worm_fit.txt", "so is the worm-mode fit's", |t| {
                each(t, &[], 1, "rmse", |e| e <= 8.0, "≤ 8")
            }),
        ],
    },
    Experiment {
        name: "timeseries",
        blurb: "per-second received data rate at TServer, 80 Devs under dynamic churn",
        artefacts: &["timeseries.csv"],
        run: usecases::timeseries,
        claims: &[(
            "timeseries.csv",
            "nothing arrives before the attack command at t=60 s; the peak second falls in the \
             100 s attack window",
            |t| claims::quiet_then_peak(t, 60, 100),
        )],
    },
    Experiment {
        name: "frontier",
        blurb: "defense frontier — rate-limit budget × deploy time (plans/frontier.sweep.json)",
        artefacts: &["frontier.md"],
        run: usecases::frontier,
        claims: &[(
            "frontier.md",
            "at either budget a later deployment lets more of the flood through; collateral is 0%",
            |t| {
                each(t, &[], 5, "collateral %", |c| c == 0.0, "0")?;
                rises_within(t, "rate budget (bps)", "deploy at (s)", "mean flood pkts")
            },
        )],
    },
];

impl Experiment {
    /// Evaluates every claim, `read` supplying each artefact's text: one
    /// sentence per claim, `Err` for a violated (or unreadable) one.
    pub fn verdicts(&self, read: impl Fn(&str) -> Result<String, String>) -> Vec<claims::Verdict> {
        let verdict = |(file, says, check): &Claim| match read(file).and_then(|text| check(&text)) {
            Ok(seen) => Ok(format!("{}: {says} — {seen}", self.name)),
            Err(why) => Err(format!("{}: {says} — VIOLATED: {why}", self.name)),
        };
        self.claims.iter().map(verdict).collect()
    }

    /// Runs the row, prints its table, writes its artefacts under `dir`
    /// and evaluates its claims on what was written; returns what failed.
    fn regenerate(&self, dir: &Path) -> Vec<String> {
        println!("== {} — {}", self.name, self.blurb);
        // A row's worlds panic on a failed run (`run_configs`); that costs
        // the row, not the rows after it.
        let output = match catch_unwind(AssertUnwindSafe(self.run)) {
            Ok(output) => output,
            Err(payload) => {
                let why = ddosim_core::panic_message(&*payload);
                return vec![format!("{}: run failed: {why}", self.name)];
            }
        };
        print!("{}", output.text);
        assert_eq!(output.files.len(), self.artefacts.len(), "{} writes what it declares", self.name);
        let mut failures = Vec::new();
        for (name, content) in self.artefacts.iter().zip(&output.files) {
            match fs::create_dir_all(dir).and_then(|()| fs::write(dir.join(name), content)) {
                Ok(()) => println!("wrote {}", dir.join(name).display()),
                Err(e) => failures.push(format!("{}: writing {name}: {e}", self.name)),
            }
        }
        let written = |file: &str| fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"));
        for verdict in self.verdicts(written) {
            match verdict {
                Ok(holds) => println!("claim holds — {holds}"),
                Err(violated) => failures.push(violated),
            }
        }
        println!();
        failures
    }
}

/// The committed artefact directory, `results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir.ancestors().nth(2).expect("crates/bench sits two levels down").join("results")
}

/// The `exp` command: regenerates the named rows (`all` = every row, in
/// table order) into `dir`; with no names, prints the table of
/// experiments. `Err` — exit code 1 — lists what failed (a run, a write,
/// a claim), or the experiments when a name is unknown.
pub fn exp(names: &[String], dir: &Path) -> Result<(), String> {
    let known = |name: &String| name == "all" || TABLE.iter().any(|row| row.name == name);
    let unknown: Vec<&str> = names.iter().filter(|n| !known(n)).map(String::as_str).collect();
    if names.is_empty() || !unknown.is_empty() {
        let mut list = Table::new(
            "usage: exp <name>… | all — regenerate experiments into results/ and check their claims",
            &["name", "regenerates", "artefacts", "claims"],
        );
        for row in TABLE {
            let claims = row.claims.len().to_string();
            list.push_row(vec![row.name.into(), row.blurb.into(), row.artefacts.join(" "), claims]);
        }
        if names.is_empty() {
            println!("{}", list.render());
            return Ok(());
        }
        return Err(format!("no experiment named {}\n{}", unknown.join(", "), list.render()));
    }
    let selected = TABLE.iter().filter(|row| names.iter().any(|n| n == "all" || n == row.name));
    let failures: Vec<String> = selected.flat_map(|row| row.regenerate(dir)).collect();
    match failures.as_slice() {
        [] => Ok(()),
        _ => Err(format!("FAILED {}", failures.join("\nFAILED "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violated_claim_fails_the_row_after_writing_it() {
        // A row whose run yields a Fig. 2 with dynamic churn above none.
        let bent = Experiment {
            name: "bent",
            blurb: "a deliberately broken churn model",
            artefacts: &["fig2.csv"],
            run: || Output {
                text: String::new(),
                files: vec![
                    "devs,churn,avg kbps\n10,no churn,1.0\n10,static churn,1.0\n10,dynamic churn,2.0\n"
                        .to_owned(),
                ],
            },
            claims: &[("fig2.csv", "none ≥ dynamic", claims::fig2_churn_ordering)],
        };
        let scratch = std::env::temp_dir().join(format!("exp-unit-{}", std::process::id()));
        let failures = bent.regenerate(&scratch);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("VIOLATED: at 10 Devs dynamic churn"), "got: {}", failures[0]);
        assert!(scratch.join("fig2.csv").exists(), "the artefact is written for inspection");
        fs::remove_dir_all(&scratch).expect("scratch is ours");
    }
}
