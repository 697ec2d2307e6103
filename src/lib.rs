//! # ddosim — facade crate
//!
//! Re-exports the whole DDoSim reproduction under one roof. See the
//! README for the architecture and `ddosim_core` for the main entry point
//! ([`SimulationBuilder`]).

#![warn(missing_docs)]

pub use ddosim_core::*;

/// DESIGN.md's Rust blocks compile as doctests of this crate, so its
/// "Public API sketch" cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../DESIGN.md")]
struct DesignDoctests;

pub use analysis;
pub use attacker;
pub use churn;
pub use faults;
pub use firmware;
pub use malware;
pub use netsim;
pub use protocols;
pub use scenario;
pub use serve;
pub use telemetry;
pub use tinyvm;
