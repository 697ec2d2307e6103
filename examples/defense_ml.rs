//! ML-defense use case (§V-A): generate mixed attack + benign traffic with
//! DDoSim, extract flow features at TServer, and train a DDoS detector.
//! `exp defense` is the paper-scale version on the same pipeline.
//!
//! ```sh
//! cargo run --release --example defense_ml
//! ```

use analysis::{train_test_split, LogisticRegression, Metrics, TrainConfig};
use ddosim::scenario::ScenarioPlan;
use ddosim_bench::usecases::flow_dataset;
use std::time::Duration;

fn main() -> Result<(), String> {
    // The world (20 Devs, UDP-PLAIN flood at t=40s) lives in a checked-in
    // scenario plan; the shared pipeline layers ten benign smart-home
    // clients on top of it and reads TServer's deliveries from a packet
    // capture restricted to TServer's node.
    let text = std::fs::read_to_string("plans/defense_ml.scenario.json")
        .map_err(|e| format!("reading plans/defense_ml.scenario.json: {e}"))?;
    let world = ScenarioPlan::parse(&text)?.build()?;
    let data = flow_dataset(world, 10, Duration::from_millis(300), |_| {});
    println!(
        "traffic generated: {} delivered packets at TServer ({} bots flooding)",
        data.delivered, data.result.infected
    );

    let attack_flows = data.samples.iter().filter(|s| s.label).count();
    println!(
        "dataset: {} flow windows ({attack_flows} attack / {} benign)",
        data.samples.len(),
        data.samples.len() - attack_flows
    );

    let (train, test) = train_test_split(data.samples, 0.3, 5);
    let model = LogisticRegression::train(&train, TrainConfig::default());
    let m = Metrics::evaluate(&model, &test);
    println!(
        "held-out detection: accuracy {:.1}%  precision {:.1}%  recall {:.1}%  F1 {:.3}",
        m.accuracy() * 100.0,
        m.precision() * 100.0,
        m.recall() * 100.0,
        m.f1()
    );
    Ok(())
}
