//! Quickstart: simulate a 25-device memory-error IoT botnet and measure
//! its UDP-PLAIN flood against TServer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ddosim::{AttackSpec, Ddosim, SimulationConfig};
use std::time::Duration;

fn main() -> Result<(), String> {
    // The paper's defaults: Devs randomly run Connman- or Dnsmasq-like
    // daemons with random W^X/ASLR subsets, on 100-500 kbps access links;
    // the attacker recruits them via ROP exploits and orders Mirai's
    // UDP-PLAIN flood.
    let result = Ddosim::new(SimulationConfig {
        devs: 25,
        attack: AttackSpec::udp_plain(Duration::from_secs(100)),
        attack_at: Duration::from_secs(60),
        sim_time: Duration::from_secs(300),
        seed: 42,
        ..SimulationConfig::default()
    })?
    .run_to_completion();

    println!("== DDoSim quickstart ==");
    println!(
        "recruited           : {}/{} Devs ({:.0}% infection rate)",
        result.infected,
        result.devs,
        result.infection_rate * 100.0
    );
    println!(
        "bots at command     : {} connected to the C&C",
        result.bots_at_command
    );
    println!(
        "attack magnitude    : {:.1} kbps average received data rate (Eq. 2)",
        result.avg_received_data_rate_kbps
    );
    println!(
        "flood at TServer    : {} packets, {:.2} MB",
        result.flood_packets_received,
        result.flood_bytes_received as f64 / 1e6
    );
    println!(
        "host footprint      : {:.2} GB pre-attack, {:.2} GB during attack, {} wall-clock",
        result.pre_attack_mem_gb,
        result.attack_mem_gb,
        result.attack_time_m_ss()
    );
    Ok(())
}
