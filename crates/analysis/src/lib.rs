//! # analysis — defense and modelling use cases
//!
//! The paper's §V use cases, implemented end to end:
//!
//! * **ML-based DDoS defense** (§V-A): extract per-flow features from
//!   TServer's packet trace ([`FeatureExtractor`]), label them, and train a
//!   [`LogisticRegression`] detector or a small neural network ([`Mlp`],
//!   the model class the paper names).
//! * **Benign traffic generation**: [`BenignClient`] produces the "normal
//!   traffic to TServer" the defense use case mixes with attack traffic.
//! * **Deployable mitigations**: [`RateLimiter`] and [`ModelFilter`]
//!   build `netsim` filter rules so defenses can be *deployed inside*
//!   the simulation and their effectiveness measured (§I).
//! * **Epidemic models of botnet spread** (§V-A2): SI/SIR ODE integrators
//!   ([`epidemic`]), plus fitting of the contact rate β to DDoSim's
//!   *measured* infection curve to test how well the mathematical model
//!   tracks the simulated propagation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benign;
pub mod classify;
pub mod epidemic;
pub mod features;
pub mod mitigation;
pub mod mlp;

pub use benign::BenignClient;
pub use classify::{
    synthetic_dataset, train_test_split, LogisticRegression, Metrics, Sample, Standardizer,
    TrainConfig,
};
pub use epidemic::{
    fit_si_beta, infected_curve, observed_curve, rmse, seirs_infected_curve, SeirsParams,
    SeirsState, SirParams, SirState,
};
pub use features::{FeatureExtractor, FlowFeatures};
pub use mitigation::{ModelFilter, RateLimiter};
pub use mlp::{Mlp, MlpConfig};

use std::collections::HashSet;
use std::net::IpAddr;

/// Labels extracted flow features by source membership in the known attack
/// set (the simulation analogue of ground-truth labels in public DDoS
/// datasets).
pub fn label_samples(features: Vec<FlowFeatures>, attack_sources: &HashSet<IpAddr>) -> Vec<Sample> {
    features
        .into_iter()
        .map(|f| Sample {
            label: attack_sources.contains(&f.src),
            features: f.vector().to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeling_by_source() {
        let f = FlowFeatures {
            src: "10.0.0.1".parse().expect("ip"),
            window: 0,
            packets: 1.0,
            bytes: 100.0,
            mean_size: 100.0,
            std_size: 0.0,
            mean_iat: 0.0,
            distinct_dst_ports: 1.0,
            udp_fraction: 1.0,
        };
        let mut attack = HashSet::new();
        attack.insert("10.0.0.1".parse::<IpAddr>().expect("ip"));
        let samples = label_samples(vec![f.clone()], &attack);
        assert!(samples[0].label);
        let samples = label_samples(vec![f], &HashSet::new());
        assert!(!samples[0].label);
    }
}
