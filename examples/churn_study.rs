//! Churn study: how dynamic IoT network conditions (Fan et al.'s model)
//! affect attack severity — the paper's R3 answer in miniature.
//!
//! ```sh
//! cargo run --release --example churn_study
//! ```

use churn::ChurnMode;
use ddosim::report::{fmt_f, Table};
use ddosim::{Ddosim, SimulationConfig};
use std::time::Duration;

fn main() -> Result<(), String> {
    let devs = 60;
    let mut table = Table::new(
        "Attack severity under churn (60 Devs, 100 s UDP-PLAIN)",
        &["churn", "avg kbps", "recruited", "departures", "rejoins"],
    );
    for mode in [ChurnMode::None, ChurnMode::Static, ChurnMode::Dynamic] {
        // Average three seeds per mode, as the experiments do.
        let mut avg = 0.0;
        let mut infected = 0.0;
        let mut departures = 0u64;
        let mut rejoins = 0u64;
        let reps = 3u64;
        for rep in 0..reps {
            let result = Ddosim::new(SimulationConfig {
                devs,
                churn: mode,
                sim_time: Duration::from_secs(200),
                seed: 100 + rep,
                ..SimulationConfig::default()
            })?
            .run_to_completion();
            avg += result.avg_received_data_rate_kbps / reps as f64;
            infected += result.infected as f64 / reps as f64;
            if let Some(c) = result.churn_summary {
                departures += c.departures;
                rejoins += c.rejoins;
            }
        }
        table.push_row(vec![
            mode.to_string(),
            fmt_f(avg, 1),
            fmt_f(infected, 1),
            departures.to_string(),
            rejoins.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "R3: churn reduces attack severity; dynamic churn (intermittent departures,\n\
         rejoining bots that missed the attack command) reduces it the most."
    );
    Ok(())
}
