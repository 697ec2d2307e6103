//! # ddosim-core — the DDoSim framework
//!
//! Assembles the paper's three components over the simulated network
//! (Fig. 1): **Attacker** (exploit servers, file server, C&C), **Devs**
//! (containers running vulnerable daemons), and **TServer** (the NS-3-style
//! sink that measures the attack), then drives the full scenario:
//! initialization → memory-error infection → Mirai recruitment → commanded
//! UDP-PLAIN flood → measurement.
//!
//! # Examples
//!
//! ```no_run
//! use ddosim_core::{AttackSpec, Ddosim, SimulationConfig};
//! use std::time::Duration;
//!
//! let result = Ddosim::new(SimulationConfig {
//!     devs: 50,
//!     attack: AttackSpec::udp_plain(Duration::from_secs(100)),
//!     seed: 42,
//!     ..SimulationConfig::default()
//! })
//! .expect("valid configuration")
//! .run_to_completion();
//! println!(
//!     "average received data rate: {:.1} kbps ({}/{} Devs recruited)",
//!     result.avg_received_data_rate_kbps, result.infected, result.devs
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod experiment;
pub mod honeypot;
pub mod instance;
pub mod metrics;
pub mod reboot;
pub mod report;
pub mod result;
pub mod suffix;
pub mod world;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use config::{
    AttackSpec, BinaryMix, DaemonKind, ExploitStrategy, Recruitment, RngPlan, SimulationConfig,
    TopologyKind,
};
pub use experiment::{
    crn_compare, install_location_hook, panic_message, run_configs, run_suffixes_streamed,
    take_panic_location, try_run_configs_streamed, CrnComparison, SuffixOutcome,
};
pub use honeypot::Honeypot;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FAULT_PLAN_SCHEMA};
pub use instance::{Ddosim, DevInfo, ATTACKER_IMAGE_BYTES, DEV_IMAGE_BASE_BYTES};
pub use metrics::TServerSink;
pub use reboot::RebootController;
pub use netsim::{Telemetry, TelemetryConfig};
pub use result::{ChurnSummary, RunResult};
pub use suffix::{SuffixPlan, SuffixSpec, SUFFIX_SCHEMA};
