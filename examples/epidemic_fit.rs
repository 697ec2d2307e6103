//! Epidemic-model use case (§V-A2): fit an SI ODE model's contact rate to
//! DDoSim's measured botnet growth curve and compare the trajectories.
//!
//! ```sh
//! cargo run --release --example epidemic_fit
//! ```

use analysis::{fit_si_beta, infected_curve, observed_curve, SirParams, SirState};
use ddosim::{Ddosim, SimulationConfig};
use std::time::Duration;

fn main() -> Result<(), String> {
    let devs = 50;
    let result = Ddosim::new(SimulationConfig {
        devs,
        attack_at: Duration::from_secs(90),
        sim_time: Duration::from_secs(200),
        seed: 77,
        ..SimulationConfig::default()
    })?
    .run_to_completion();
    println!(
        "measured propagation: {}/{} devices recruited between {:.1}s and {:.1}s",
        result.infected,
        devs,
        result.infection_times_secs.first().copied().unwrap_or(0.0),
        result.infection_times_secs.last().copied().unwrap_or(0.0)
    );

    let dt = 1.0;
    let observed = observed_curve(&result.infection_times_secs, dt, 45.0);
    let (beta, rmse) = fit_si_beta(&observed, devs as f64, 1.0, dt);
    println!("fitted SI model: beta = {beta:.3}, RMSE = {rmse:.2} devices");

    let model = infected_curve(
        SirState {
            s: devs as f64 - 1.0,
            i: 1.0,
            r: 0.0,
        },
        SirParams { beta, gamma: 0.0 },
        dt,
        observed.len() - 1,
    );
    println!("\n  t(s)  measured  SI-model");
    for (k, (o, m)) in observed.iter().zip(&model).enumerate() {
        if k % 3 == 0 {
            let bar = "#".repeat((*o as usize).min(60));
            println!("  {k:4}  {o:8.0}  {m:8.1}  {bar}");
        }
    }
    println!(
        "\nDDoSim lets researchers check such models against realistic\n\
         propagation — infections here need a leak round-trip, a download,\n\
         and a C&C registration, which no closed-form model captures."
    );
    Ok(())
}
