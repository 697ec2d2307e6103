//! The table rows that are not arms × replicates: the Fig. 4 validation,
//! Table I, the §V use cases (ML defense, deployed mitigation, epidemic
//! fit), the raw time series and the defense frontier.

use crate::sweeps::{fig4_arms, KBPS};
use crate::Output;
use analysis::{
    fit_si_beta, infected_curve, label_samples, observed_curve, train_test_split, BenignClient,
    FeatureExtractor, LogisticRegression, Metrics, Mlp, MlpConfig, ModelFilter, RateLimiter,
    Sample, SirParams, SirState, TrainConfig,
};
use ddosim_core::experiment::{mean, run_arms, world};
use ddosim_core::report::{fmt_f, Table};
use ddosim_core::{AttackSpec, Ddosim, Recruitment, RunResult, SimulationConfig};
use netsim::{LinkConfig, NodeId, SimTime, Simulator, Telemetry, TelemetryConfig};
use scenario::{run_grid_streamed, DefenseSpec, GridCell, SweepGridPlan};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// Fig. 4 (§IV-D): DDoSim's abstract star against the hardware reference
/// over 1–19 Devs, three replicates per point. The paper compares against
/// physical Raspberry Pis on a Netgear router; here the same world runs
/// on the lab's contended, lossy Wi-Fi medium ([`fig4_arms`]), and each
/// count's two arms pair into one row.
pub(crate) fn fig4() -> Output {
    let mut table = Table::new(
        "Figure 4 — DDoSim vs hardware-reference average received data rate (kbps)",
        &["devs", "ddosim", "hardware-ref", "relative error"],
    );
    let arms = run_arms(fig4_arms(&[1, 3, 5, 7, 9, 11, 13, 15, 17, 19]), 3, 4000);
    for pair in arms.chunks(2) {
        let [ddosim, hardware] = [0, 1].map(|arm| mean(pair[arm].1.iter().map(KBPS)));
        table.push_row(vec![
            pair[0].0[0].clone(),
            fmt_f(ddosim, 1),
            fmt_f(hardware, 1),
            format!("{:.1}%", (ddosim - hardware).abs() / hardware.max(1.0) * 100.0),
        ]);
    }
    Output::table(&table)
}

/// The paper's Table I: Devs, pre-attack GB, attack GB, attack time.
const PAPER_TABLE1: [(usize, f64, f64, &str); 5] = [
    (20, 0.38, 0.39, "2:03"),
    (40, 0.52, 1.15, "2:43"),
    (70, 0.73, 1.47, "3:22"),
    (100, 0.94, 1.93, "3:48"),
    (130, 1.32, 3.11, "5:14"),
];

/// Table I (§IV-B): modelled memory before and during a 100 s attack,
/// next to the paper's measurements. The attack wall-clock is the host's
/// clock, so it is printed and never written; the runs are sequential so
/// they do not contend for cores while it is taken.
pub fn table1(dev_counts: &[usize]) -> Output {
    let mut table = Table::new(
        "Table I — hardware resources consumed by DDoSim (measured vs paper)",
        &["devs", "pre-attack mem (GB)", "paper", "attack mem (GB)", "paper"],
    );
    let mut clock = "attack wall-clock (this host, not recorded):".to_owned();
    for &devs in dev_counts {
        let r = Ddosim::new(world(devs, |c| c.seed = 3000))
            .expect("the default world is valid at any Dev count")
            .run_to_completion();
        let paper = PAPER_TABLE1.iter().find(|p| p.0 == devs);
        let cell = |v: Option<f64>| v.map_or("-".to_owned(), |v| fmt_f(v, 2));
        table.push_row(vec![
            devs.to_string(),
            fmt_f(r.pre_attack_mem_gb, 2),
            cell(paper.map(|p| p.1)),
            fmt_f(r.attack_mem_gb, 2),
            cell(paper.map(|p| p.2)),
        ]);
        let _ = write!(clock, " {devs} Devs {}", r.attack_time_m_ss());
        if let Some(p) = paper {
            let _ = write!(clock, " (paper {})", p.3);
        }
    }
    let mut out = Output::table(&table);
    let _ = writeln!(out.text, "{clock}");
    out
}

/// What TServer saw during a run with benign background clients — the
/// §V-A dataset.
#[derive(Debug)]
pub struct FlowDataset {
    /// The run's result.
    pub result: RunResult,
    /// Packets delivered at TServer, as the world's packet capture saw
    /// them (the Wireshark analogue).
    pub delivered: usize,
    /// How many of them came from the benign clients.
    pub benign_delivered: usize,
    /// Per-source 2 s flow windows, labelled by ground truth (the Devs'
    /// addresses).
    pub samples: Vec<Sample>,
}

/// Runs `world` with `benign` extra clients polling TServer every
/// `mean_interval` and a packet capture of everything that happens at
/// TServer's node, unbounded, whose deliveries become the dataset.
/// `deploy` sees the world after the clients are attached and before it
/// runs — where a defense under evaluation is scheduled.
///
/// # Panics
///
/// Panics if `world` was built with telemetry on: the capture is
/// installed here and would replace the world's own collectors.
pub fn flow_dataset(
    mut world: Ddosim,
    benign: usize,
    mean_interval: Duration,
    deploy: impl FnOnce(&mut Ddosim),
) -> FlowDataset {
    let (tserver_node, tserver_v4) = world.tserver();
    let attack_sources: HashSet<IpAddr> = world.devs().iter().map(|d| d.addr_v4).collect();
    let mut benign_sources = HashSet::new();
    for i in 0..benign {
        let member = world.attach_extra_node(
            &format!("benign-{i}"),
            LinkConfig::new(2_000_000, Duration::from_millis(15)),
        );
        benign_sources.insert(member.addr_v4);
        let client = BenignClient::new(SocketAddr::new(tserver_v4, 80), mean_interval);
        world.sim_mut().install_app(member.node, Box::new(client));
    }
    deploy(&mut world);
    assert!(!world.telemetry().is_enabled(), "flow_dataset installs its own capture");
    let mut at_tserver = TelemetryConfig {
        capture: true,
        capture_capacity: usize::MAX,
        ..TelemetryConfig::default()
    };
    at_tserver.capture_filter.node = Some(tserver_node.index() as u32);
    let capture = Telemetry::from_config(&at_tserver);
    world.sim_mut().set_telemetry(capture.clone());
    let result = world.run_to_completion();
    let mut fx = FeatureExtractor::new(Duration::from_secs(2));
    let (mut delivered, mut benign_delivered) = (0, 0);
    capture
        .with_capture(|cap| {
            assert_eq!(cap.matched(), cap.records().len() as u64, "the capture truncated");
            for r in cap.records().iter().filter(|r| r.kind == "delivered") {
                let (at, src) = (SimTime::from_nanos(r.time_nanos), r.src.ip());
                fx.push(at, src, r.dst.port(), r.proto == "udp", r.wire_bytes);
                delivered += 1;
                benign_delivered += usize::from(benign_sources.contains(&src));
            }
        })
        .expect("capturing");
    FlowDataset {
        result,
        delivered,
        benign_delivered,
        samples: label_samples(fx.finish(), &attack_sources),
    }
}

/// §V-A: 40 bots + 20 benign clients; flow features at TServer, a
/// logistic-regression detector trained on 70 % and scored on the rest
/// (plus the neural network the paper names as the canonical model class).
pub(crate) fn defense() -> Output {
    let world = Ddosim::new(SimulationConfig {
        devs: 40,
        attack: AttackSpec::udp_plain(Duration::from_secs(100)),
        sim_time: Duration::from_secs(200),
        seed: 8000,
        ..SimulationConfig::default()
    })
    .expect("valid configuration");
    let FlowDataset { result, delivered, samples, .. } =
        flow_dataset(world, 20, Duration::from_millis(400), |_| {});
    let n_attack = samples.iter().filter(|s| s.label).count();
    let (n, bots) = (samples.len(), result.infected);
    let (train, test) = train_test_split(samples, 0.3, 99);
    let m = Metrics::evaluate(&LogisticRegression::train(&train, TrainConfig::default()), &test);
    let scores = format!(
        "flows={} attack={} benign={}\naccuracy={:.4} precision={:.4} recall={:.4} f1={:.4}\n",
        m.tp + m.fp + m.tn + m.fn_,
        m.tp + m.fn_,
        m.tn + m.fp,
        m.accuracy(),
        m.precision(),
        m.recall(),
        m.f1()
    );
    let text = format!(
        "{bots} bots, {delivered} packets tapped at TServer, {n} flow windows ({n_attack} attack)\n\
         logistic regression on held-out flows:\n{scores}\
         neural network (8 hidden tanh units): accuracy {:.1}%\n",
        Mlp::train(&train, MlpConfig::default()).accuracy(&test) * 100.0
    );
    Output { text, files: vec![scores] }
}

/// One run of the mitigation world (40 bots + 15 benign clients, 60 s
/// flood at t = 40 s) with `deploy` arming the upstream router's defense,
/// one second before the attack.
fn defended_run(deploy: impl FnOnce(&mut Simulator, SimTime, NodeId)) -> FlowDataset {
    let world = Ddosim::new(SimulationConfig {
        devs: 40,
        attack: AttackSpec::udp_plain(Duration::from_secs(60)),
        attack_at: Duration::from_secs(40),
        sim_time: Duration::from_secs(140),
        seed: 12000,
        ..SimulationConfig::default()
    })
    .expect("valid configuration");
    flow_dataset(world, 15, Duration::from_millis(250), |world| {
        let router = world.fabric_node();
        deploy(world.sim_mut(), SimTime::from_secs(39), router);
    })
}

/// §I's "implement and evaluate defense strategies": the same world
/// undefended, behind a per-source token bucket, and behind an
/// ML-in-the-loop filter trained on the undefended run's traffic —
/// attack magnitude at TServer and benign collateral for each.
pub(crate) fn mitigation() -> Output {
    let mut undefended = defended_run(|_, _, _| {});
    let (train, _) = train_test_split(std::mem::take(&mut undefended.samples), 0.2, 3);
    let model = Arc::new(LogisticRegression::train(&train, TrainConfig::default()));
    let limited = defended_run(|sim, at, router| {
        sim.schedule_forkable_call(at, "bench.rate_limit", router, |sim, router| {
            sim.push_node_filter(router, RateLimiter::default().into_rule());
        });
    });
    let filtered = defended_run(|sim, at, router| {
        sim.schedule_forkable_call(at, "bench.model_filter", (router, model), |sim, (router, model)| {
            let filter = ModelFilter::new(Arc::unwrap_or_clone(model), Duration::from_secs(2), 0.5);
            sim.push_node_filter(router, filter.into_rule());
        });
    });
    let runs = [
        ("no defense", undefended),
        ("token-bucket rate limiter", limited),
        ("ML filter (logistic regression)", filtered),
    ];
    let base_kbps = runs[0].1.result.avg_received_data_rate_kbps;
    let base_benign = runs[0].1.benign_delivered;
    let mut table = Table::new(
        "Deployed-defense evaluation at the upstream router",
        &["defense", "attack avg (kbps)", "mitigation", "benign pkts delivered", "benign collateral"],
    );
    for (label, run) in runs {
        let (kbps, benign) = (run.result.avg_received_data_rate_kbps, run.benign_delivered);
        let lost = 1.0 - benign as f64 / base_benign.max(1) as f64;
        table.push_row(vec![
            label.to_owned(),
            fmt_f(kbps, 1),
            format!("{:.0}%", (1.0 - kbps / base_kbps.max(1e-9)) * 100.0),
            benign.to_string(),
            format!("{:.0}%", lost * 100.0),
        ]);
    }
    Output::table(&table)
}

/// §V-A2: fit a Susceptible-Infected model's contact rate to the measured
/// infection curve of 80 Devs — attacker-driven recruitment, and the worm
/// mode (one seed, every bot scans) that SI models actually describe.
pub(crate) fn epidemic() -> Output {
    const DEVS: usize = 80;
    const DT: f64 = 1.0;
    let measure = |seed: u64, recruitment: Recruitment| {
        let result = Ddosim::new(SimulationConfig {
            devs: DEVS,
            recruitment,
            attack_at: Duration::from_secs(90),
            sim_time: Duration::from_secs(200),
            seed,
            ..SimulationConfig::default()
        })
        .expect("valid configuration")
        .run_to_completion();
        let observed = observed_curve(&result.infection_times_secs, DT, 60.0);
        let (beta, rmse) = fit_si_beta(&observed, DEVS as f64, 1.0, DT);
        (result, observed, beta, rmse)
    };
    let fit_file = |beta: f64, rmse: f64| format!("beta={beta:.4}\nrmse={rmse:.4}\nn={DEVS}\n");

    let (result, observed, beta, rmse) = measure(9000, Recruitment::MemoryError);
    let worm = Recruitment::SelfPropagating { default_credential_fraction: 1.0, seeds: 1 };
    let (worm_result, _, worm_beta, worm_rmse) = measure(9001, worm);

    let start = SirState { s: DEVS as f64 - 1.0, i: 1.0, r: 0.0 };
    let model = infected_curve(start, SirParams { beta, gamma: 0.0 }, DT, observed.len() - 1);
    let mut table = Table::new(
        "Botnet growth: measured vs fitted SI model",
        &["t (s)", "measured infected", "SI model"],
    );
    for (t, (obs, si)) in observed.iter().zip(&model).enumerate().step_by(5) {
        table.push_row(vec![t.to_string(), fmt_f(*obs, 0), fmt_f(*si, 1)]);
    }
    let mut out = Output::table(&table);
    let times = &result.infection_times_secs;
    let _ = writeln!(
        out.text,
        "attacker-driven: {}/{DEVS} recruited between {:.1}s and {:.1}s; \
         beta = {beta:.3} (RMSE {rmse:.2} devices)\n\
         worm mode (1 seed, self-propagating): {}/{DEVS} recruited; \
         beta = {worm_beta:.3} (RMSE {worm_rmse:.2})",
        result.infected,
        times.first().copied().unwrap_or(0.0),
        times.last().copied().unwrap_or(0.0),
        worm_result.infected,
    );
    out.files.extend([fit_file(beta, rmse), fit_file(worm_beta, worm_rmse)]);
    out
}

/// The per-second received-data-rate series at TServer — the raw material
/// behind every figure: 80 Devs under dynamic churn, 100 s flood at
/// t = 60 s. Plot the CSV for the ramp, the plateau, the drain and the
/// churn dips; the sparkline is the quick look.
pub(crate) fn timeseries() -> Output {
    let result = Ddosim::new(SimulationConfig {
        devs: 80,
        churn: churn::ChurnMode::Dynamic,
        attack: AttackSpec::udp_plain(Duration::from_secs(100)),
        attack_at: Duration::from_secs(60),
        sim_time: Duration::from_secs(220),
        seed: 15000,
        ..SimulationConfig::default()
    })
    .expect("valid configuration")
    .run_to_completion();
    let mut table = Table::new("Per-second received data rate at TServer", &["t (s)", "kbits/s"]);
    for (t, kbits) in result.per_second_kbits.iter().enumerate() {
        table.push_row(vec![t.to_string(), format!("{kbits:.1}")]);
    }
    let peak = result.peak_received_kbits().max(1.0);
    let spark: String = result
        .per_second_kbits
        .chunks(2)
        .map(|pair| if pair.iter().sum::<f64>() / pair.len() as f64 >= peak / 120.0 { '|' } else { '.' })
        .collect();
    let text = format!(
        "t=0..{}s, peak {peak:.0} kbit/s, Eq. 2 average {:.1} kbps:\n{spark}\n",
        result.per_second_kbits.len(),
        result.avg_received_data_rate_kbps
    );
    Output { text, files: vec![table.to_csv()] }
}

/// The defense frontier: the checked-in `plans/frontier.sweep.json` grid
/// (`ddosim.sweepgrid/1`, rate-limit budget × deploy time) plus a
/// prepended no-defense cell, every cell CRN-paired by
/// [`run_grid_streamed`] so cell-to-cell differences are the defense's
/// effect alone: mitigation vs collateral vs deploy cost.
pub(crate) fn frontier() -> Output {
    let plan_path = crate::results_dir().with_file_name("plans/frontier.sweep.json");
    let text = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", plan_path.display()));
    let sweep = SweepGridPlan::parse(&text).expect("frontier sweep plan parses");

    // The frontier is measured against "do nothing": the same world and
    // noise with the defense stripped, prepended as cell 0.
    let mut baseline = sweep.base.clone();
    baseline.defenses.clear();
    let mut cells = vec![GridCell { label: "no defense".to_owned(), plan: baseline }];
    cells.extend(sweep.cells.iter().cloned());

    let mut failures = Vec::new();
    let outcomes = run_grid_streamed(&cells, sweep.replicates, sweep.base_seed, |c, r, row| {
        if let Err(e) = row {
            failures.push(format!("cell {c} replicate {r}: {e}"));
        }
    });
    assert!(failures.is_empty(), "{} grid rows failed: {}", failures.len(), failures.join("; "));

    let sim_secs = sweep.base.config().sim_time.as_secs();
    let benign = |rows: &[Result<RunResult, String>]| {
        mean(rows.iter().flatten().map(|r| (r.packets_delivered - r.flood_packets_received) as f64))
    };
    let (base_flood, base_benign) = (outcomes[0].mean_flood_packets, benign(&outcomes[0].rows));
    let lost_pct = |v: f64, base: f64| if base > 0.0 { 100.0 * (1.0 - v / base) } else { 0.0 };

    let mut md = format!(
        "# Defense frontier — rate-limit budget × deploy time\n\n\
         Generated by `cargo run --release -p ddosim-bench --bin exp -- frontier` \
         from `plans/frontier.sweep.json` (`ddosim.sweepgrid/1`, {} CRN \
         replicates per cell, base seed {}). Within a replicate every cell \
         shares its noise streams, so the columns isolate the defense's \
         effect. Deterministic byte for byte: the CI determinism stage \
         regenerates this file and `cmp`s it against the committed copy.\n\n\
         Mitigation % = flood packets suppressed vs. the no-defense \
         baseline. Collateral % = benign (non-flood) deliveries lost vs. \
         the same baseline. Deploy cost = the rate budget plus how long \
         the defense must stay active.\n\n\
         | cell | rate budget (bps) | deploy at (s) | active window (s) | \
         mean flood pkts | mitigation % | mean rate @ target (kbps) | \
         mean bots@cmd | mean benign delivered | collateral % |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
        sweep.replicates, sweep.base_seed
    );
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let (budget, deploy_at, window) = match cell.plan.defenses.first() {
            Some(DefenseSpec::RateLimit { at, rate_bps, .. }) => {
                let at = at.as_secs();
                (rate_bps.to_string(), at.to_string(), (sim_secs - at).to_string())
            }
            _ => ("—".to_owned(), "—".to_owned(), "0".to_owned()),
        };
        let cell_benign = benign(&outcome.rows);
        let _ = writeln!(
            md,
            "| {} | {budget} | {deploy_at} | {window} | {} | {} | {} | {} | {} | {} |",
            outcome.label,
            fmt_f(outcome.mean_flood_packets, 1),
            fmt_f(lost_pct(outcome.mean_flood_packets, base_flood), 1),
            fmt_f(outcome.mean_kbps, 1),
            fmt_f(outcome.mean_bots_at_command, 1),
            fmt_f(cell_benign, 1),
            fmt_f(lost_pct(cell_benign, base_benign), 1),
        );
    }
    Output { text: md.clone(), files: vec![md] }
}
