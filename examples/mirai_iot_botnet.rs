//! The paper's full experiment, narrated phase by phase: watch the
//! memory-error infection spread, inspect a compromised device's audit
//! trail, then measure the commanded flood.
//!
//! ```sh
//! cargo run --release --example mirai_iot_botnet
//! ```

use ddosim::{AttackSpec, SimulationBuilder};
use firmware::ContainerEvent;
use std::time::Duration;

fn main() -> Result<(), String> {
    let devs = 40;
    let mut instance = SimulationBuilder::new()
        .devs(devs)
        .attack(AttackSpec::udp_plain(Duration::from_secs(100)))
        .attack_at(Duration::from_secs(60))
        .sim_time(Duration::from_secs(250))
        .seed(7)
        .build()?;

    println!("== Phase 1: initialization & infection ==");
    for t in [5u64, 10, 20, 40, 60] {
        instance.run_prefix(Duration::from_secs(t))?;
        println!(
            "t={t:3}s  recruited {:2}/{devs}  ({} bots connected to C&C)",
            instance.infected_count(),
            instance.connected_bots()
        );
    }

    // Inspect one compromised device's audit trail — the "examine the
    // backdoor vulnerability" capability the paper advertises.
    println!("\n== A compromised Dev's audit trail ==");
    let dev = instance.devs()[0].clone();
    println!(
        "device: dev-0 at {} daemon={} protections={} uplink={} kbps",
        dev.addr_v4, dev.daemon, dev.protections, dev.access_rate_kbps
    );
    for event in dev.container.state().events.iter().take(12) {
        match event {
            ContainerEvent::CommandRun { time, command } => {
                println!("  [{time}] $ {command}");
            }
            ContainerEvent::Downloaded { time, path, bytes } => {
                println!("  [{time}] downloaded {path} ({bytes} bytes)");
            }
            ContainerEvent::Executed { time, path } => {
                println!("  [{time}] exec {path}");
            }
            ContainerEvent::DaemonCrashed { time, daemon } => {
                println!("  [{time}] {daemon} crashed (failed exploit)");
            }
            ContainerEvent::ExploitBlocked { time, daemon } => {
                println!("  [{time}] exploit blocked in {daemon}");
            }
            ContainerEvent::ProcessKilled { time, name } => {
                println!("  [{time}] bot killed process '{name}'");
            }
            ContainerEvent::CommandMissing { time, command } => {
                println!("  [{time}] {command}: not found");
            }
            ContainerEvent::Rebooted { time } => {
                println!("  [{time}] device rebooted (volatile state lost)");
            }
        }
    }
    println!(
        "  process table now: {:?}",
        dev.container
            .state()
            .procs
            .iter()
            .map(|p| p.name.clone())
            .collect::<Vec<_>>()
    );

    println!("\n== Phase 2: the UDP-PLAIN flood (100 s) ==");
    let result = instance.run_to_completion();
    println!(
        "average received data rate at TServer: {:.1} kbps",
        result.avg_received_data_rate_kbps
    );
    println!(
        "per-second peak: {:.1} kbits/s",
        result
            .per_second_kbits
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
    );
    println!(
        "infection rate {:.0}% — the paper's R2 answer",
        result.infection_rate * 100.0
    );
    Ok(())
}
