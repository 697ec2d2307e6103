//! Quantifies deployed defenses — the paper's §I use case: "researchers
//! can also utilize DDoSim to implement and evaluate defense strategies
//! against these attacks in the simulated environment, measuring their
//! effectiveness".
//!
//! Three runs of the same scenario (bots + benign clients): undefended, a
//! per-source token-bucket rate limiter at the upstream router, and an
//! ML-in-the-loop filter (logistic regression trained on traffic from the
//! undefended run, re-scoring sources every window). Reported per defense:
//! attack magnitude at TServer and benign-traffic collateral damage.

use analysis::{
    label_samples, train_test_split, BenignClient, FeatureExtractor, LogisticRegression,
    ModelFilter, RateLimiter, TrainConfig,
};
use ddosim_core::report::{fmt_f, Table};
use ddosim_core::{AttackSpec, Ddosim, SimulationBuilder};
use netsim::{LinkConfig, SimTime, TraceKind, TraceRecord};
use std::cell::RefCell;
use std::collections::HashSet;
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

struct Outcome {
    label: String,
    attack_kbps: f64,
    benign_delivered: u64,
}

enum Defense {
    None,
    RateLimiter,
    Model(LogisticRegression),
}

fn build(devs: usize, benign: usize) -> (Ddosim, HashSet<IpAddr>, HashSet<IpAddr>) {
    let mut instance = SimulationBuilder::new()
        .devs(devs)
        .attack(AttackSpec::udp_plain(Duration::from_secs(60)))
        .attack_at(Duration::from_secs(40))
        .sim_time(Duration::from_secs(140))
        .seed(12000)
        .build()
        .expect("valid configuration");
    let (_, tserver_v4) = instance.tserver();
    let attack_sources: HashSet<IpAddr> = instance.devs().iter().map(|d| d.addr_v4).collect();
    let mut benign_sources = HashSet::new();
    for i in 0..benign {
        let member = instance.attach_extra_node(
            &format!("benign-{i}"),
            LinkConfig::new(2_000_000, Duration::from_millis(15)),
        );
        benign_sources.insert(member.addr_v4);
        let node = member.node;
        instance.sim_mut().install_app(
            node,
            Box::new(BenignClient::new(
                SocketAddr::new(tserver_v4, 80),
                Duration::from_millis(250),
            )),
        );
    }
    (instance, attack_sources, benign_sources)
}

fn run(
    devs: usize,
    benign: usize,
    defense: Defense,
    label: &str,
    benign_sources_out: &mut HashSet<IpAddr>,
) -> (Outcome, Vec<TraceRecord>) {
    let (mut instance, _attack, benign_sources) = build(devs, benign);
    *benign_sources_out = benign_sources.clone();
    let (tserver_node, _) = instance.tserver();
    let fabric = instance.fabric_node();
    match defense {
        Defense::None => {}
        Defense::RateLimiter => {
            instance.sim_mut().schedule_forkable_call(
                SimTime::from_secs(39),
                "bench.rate_limit",
                fabric,
                |sim, fabric| sim.push_node_filter(fabric, RateLimiter::default().into_rule()),
            );
        }
        Defense::Model(model) => {
            instance.sim_mut().schedule_forkable_call(
                SimTime::from_secs(39),
                "bench.model_filter",
                (fabric, Arc::new(model)),
                |sim, (fabric, model)| {
                    let filter =
                        ModelFilter::new(Arc::unwrap_or_clone(model), Duration::from_secs(2), 0.5);
                    sim.push_node_filter(fabric, filter.into_rule());
                },
            );
        }
    }
    let records: Rc<RefCell<Vec<TraceRecord>>> = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&records);
    instance.sim_mut().set_trace(Box::new(move |r| {
        if r.node == tserver_node && r.kind == TraceKind::Delivered {
            tap.borrow_mut().push(r.clone());
        }
    }));
    let result = instance.run_to_completion();
    let recs = Rc::try_unwrap(records)
        .map(|c| c.into_inner())
        .unwrap_or_default();
    let benign_delivered = recs
        .iter()
        .filter(|r| benign_sources.contains(&r.src.ip()))
        .count() as u64;
    (
        Outcome {
            label: label.to_owned(),
            attack_kbps: result.avg_received_data_rate_kbps,
            benign_delivered,
        },
        recs,
    )
}

fn main() {
    let (devs, benign) = if ddosim_bench::quick_mode() { (10, 5) } else { (40, 15) };
    println!("Defense evaluation: {devs} bots + {benign} benign clients, defenses deployed at attack time");

    // Run 1: undefended baseline; its traffic trains the ML detector.
    let mut benign_sources = HashSet::new();
    let (baseline, records) = run(devs, benign, Defense::None, "no defense", &mut benign_sources);
    let attack_sources: HashSet<IpAddr> = {
        // Everything delivered that is not benign and not control traffic
        // from the attacker counts as attack for labeling purposes; the
        // ground truth is the Dev address set, reconstructed from a fresh
        // build (same seed => same world).
        let (instance, attack, _) = build(devs, benign);
        drop(instance);
        attack
    };
    let mut fx = FeatureExtractor::new(Duration::from_secs(2));
    for r in &records {
        fx.push(r);
    }
    let samples = label_samples(fx.finish(), &attack_sources);
    let (train, _test) = train_test_split(samples, 0.2, 3);
    let model = LogisticRegression::train(&train, TrainConfig::default());

    // Runs 2 and 3: deployed defenses.
    let (limited, _) = run(devs, benign, Defense::RateLimiter, "token-bucket rate limiter", &mut benign_sources);
    let (filtered, _) = run(devs, benign, Defense::Model(model), "ML filter (logistic regression)", &mut benign_sources);

    let mut table = Table::new(
        "Deployed-defense evaluation at the upstream router",
        &["defense", "attack avg (kbps)", "mitigation", "benign pkts delivered", "benign collateral"],
    );
    for o in [&baseline, &limited, &filtered] {
        table.push_row(vec![
            o.label.clone(),
            fmt_f(o.attack_kbps, 1),
            format!("{:.0}%", (1.0 - o.attack_kbps / baseline.attack_kbps.max(1e-9)) * 100.0),
            o.benign_delivered.to_string(),
            format!(
                "{:.0}%",
                (1.0 - o.benign_delivered as f64 / baseline.benign_delivered.max(1) as f64)
                    * 100.0
            ),
        ]);
    }
    println!("{}", table.render());
    ddosim_bench::write_artifact("mitigation.csv", &table.to_csv());
}
