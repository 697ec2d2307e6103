//! A small feed-forward neural network — the paper names "neural networks"
//! as the canonical model class for ML-based DDoS detection (§V-A). One
//! hidden tanh layer trained by SGD on binary cross-entropy; deterministic
//! for a given seed.

use crate::classify::{Sample, Standardizer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Training hyperparameters for the [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Passes over the data.
    pub epochs: usize,
    /// L2 penalty.
    pub l2: f64,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 8,
            learning_rate: 0.02,
            epochs: 80,
            l2: 1e-4,
            seed: 11,
        }
    }
}

/// A 1-hidden-layer tanh network with a sigmoid output.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    // w1[h][d]: input→hidden, b1[h]; w2[h]: hidden→output, b2.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    standardizer: Standardizer,
}

impl Mlp {
    /// Trains on `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or feature dimensions disagree.
    pub fn train(samples: &[Sample], config: MlpConfig) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let dim = samples[0].features.len();
        assert!(
            samples.iter().all(|s| s.features.len() == dim),
            "inconsistent feature dimensions"
        );
        let standardizer = Standardizer::fit(samples);
        let data: Vec<(Vec<f64>, f64)> = samples
            .iter()
            .map(|s| (standardizer.apply(&s.features), f64::from(u8::from(s.label))))
            .collect();

        let mut rng = rand::rngs::SmallRng::seed_from_u64(config.seed);
        let h = config.hidden.max(1);
        let scale = (1.0 / dim as f64).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
            .collect();
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<f64> = (0..h).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut b2 = 0.0;

        let mut order: Vec<usize> = (0..data.len()).collect();
        let lr = config.learning_rate;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (x, y) = &data[i];
                // Forward.
                let hidden: Vec<f64> = (0..h)
                    .map(|j| {
                        (b1[j] + w1[j].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()).tanh()
                    })
                    .collect();
                let out = sigmoid(b2 + w2.iter().zip(&hidden).map(|(w, a)| w * a).sum::<f64>());
                // Backward (cross-entropy + sigmoid => simple delta).
                let delta_out = out - y;
                for j in 0..h {
                    let grad_w2 = delta_out * hidden[j];
                    let delta_h = delta_out * w2[j] * (1.0 - hidden[j] * hidden[j]);
                    w2[j] -= lr * (grad_w2 + config.l2 * w2[j]);
                    for (w, v) in w1[j].iter_mut().zip(x) {
                        *w -= lr * (delta_h * v + config.l2 * *w);
                    }
                    b1[j] -= lr * delta_h;
                }
                b2 -= lr * delta_out;
            }
        }
        Mlp {
            w1,
            b1,
            w2,
            b2,
            standardizer,
        }
    }

    /// Attack probability for a raw (unstandardized) feature vector.
    pub(crate) fn predict_probability(&self, features: &[f64]) -> f64 {
        let x = self.standardizer.apply(features);
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(row, b)| (b + row.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>()).tanh())
            .collect();
        sigmoid(self.b2 + self.w2.iter().zip(&hidden).map(|(w, a)| w * a).sum::<f64>())
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_probability(features) >= 0.5
    }

    /// Evaluates accuracy on a labeled set.
    pub fn accuracy(&self, test: &[Sample]) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let correct = test
            .iter()
            .filter(|s| self.predict(&s.features) == s.label)
            .count();
        correct as f64 / test.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{synthetic_dataset, train_test_split};
    use rand::rngs::SmallRng;

    #[test]
    fn learns_synthetic_separation() {
        let mut rng = SmallRng::seed_from_u64(2);
        let data = synthetic_dataset(200, &mut rng);
        let (train, test) = train_test_split(data, 0.25, 3);
        let mlp = Mlp::train(&train, MlpConfig::default());
        assert!(mlp.accuracy(&test) > 0.95, "accuracy {:.3}", mlp.accuracy(&test));
    }

    #[test]
    fn learns_a_nonlinear_boundary_logistic_regression_cannot() {
        // XOR-style: label = (f0 > 0) ^ (f1 > 0). Linear models sit at
        // ~50%; the MLP must do much better.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut data = Vec::new();
        for _ in 0..600 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            data.push(Sample {
                features: vec![a, b],
                label: (a > 0.0) ^ (b > 0.0),
            });
        }
        let (train, test) = train_test_split(data, 0.25, 5);
        let mlp = Mlp::train(
            &train,
            MlpConfig {
                hidden: 12,
                epochs: 400,
                learning_rate: 0.05,
                ..MlpConfig::default()
            },
        );
        let lr = crate::classify::LogisticRegression::train(
            &train,
            crate::classify::TrainConfig::default(),
        );
        let lr_acc = crate::classify::Metrics::evaluate(&lr, &test).accuracy();
        let mlp_acc = mlp.accuracy(&test);
        assert!(mlp_acc > 0.85, "MLP solves XOR: {mlp_acc:.3}");
        assert!(
            mlp_acc > lr_acc + 0.2,
            "MLP must beat the linear model on XOR: {mlp_acc:.3} vs {lr_acc:.3}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(6);
        let data = synthetic_dataset(50, &mut rng);
        let a = Mlp::train(&data, MlpConfig::default());
        let b = Mlp::train(&data, MlpConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        let _ = Mlp::train(&[], MlpConfig::default());
    }
}
