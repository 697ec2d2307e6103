//! Worm-mode propagation: the attacker compromises a single seed device;
//! every recruited bot scans for new victims itself ("Botnet Malware can
//! simultaneously scan the network for new potential victims", §II-A).
//! The resulting growth curve is the exponential the epidemic-model use
//! case (§V-A2) is built to study.
//!
//! ```sh
//! cargo run --release --example worm_propagation
//! ```

use analysis::{fit_si_beta, observed_curve};
use ddosim::{AttackSpec, Recruitment, SimulationBuilder};
use std::time::Duration;

fn main() -> Result<(), String> {
    let devs = 40;
    let mut instance = SimulationBuilder::new()
        .devs(devs)
        .recruitment(Recruitment::SelfPropagating {
            default_credential_fraction: 1.0,
            seeds: 1,
        })
        .attack(AttackSpec::udp_plain(Duration::from_secs(30)))
        .attack_at(Duration::from_secs(90))
        .sim_time(Duration::from_secs(140))
        .seed(13)
        .build()?;

    println!("one seed device; every bot scans the subnet:");
    for t in [4u64, 6, 8, 10, 14, 20, 30] {
        instance.run_prefix(Duration::from_secs(t))?;
        let n = instance.infected_count();
        println!("  t={t:3}s  {n:3} bots  {}", "#".repeat(n));
    }

    let result = instance.run_to_completion();
    let observed = observed_curve(&result.infection_times_secs, 1.0, 30.0);
    let (beta, rmse) = fit_si_beta(&observed, devs as f64, 1.0, 1.0);
    println!(
        "\nworm growth fits SI with beta = {beta:.2} (RMSE {rmse:.1} devices) — \
         compare the attacker-driven mode, where all devices are hit in parallel."
    );
    println!(
        "attack from the worm-built botnet: {:.0} kbps at TServer",
        result.avg_received_data_rate_kbps
    );
    Ok(())
}
