//! A small logistic-regression classifier for the ML-defense use case
//! (§V-A): classify per-flow traffic aggregates as attack or benign.

use rand::seq::SliceRandom;
use rand::Rng;

/// A labeled sample: feature vector + attack label.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature values.
    pub features: Vec<f64>,
    /// `true` for attack traffic.
    pub label: bool,
}

/// Standardization parameters learned on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits mean/std per feature.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(samples: &[Sample]) -> Self {
        assert!(!samples.is_empty(), "cannot standardize an empty set");
        let dim = samples[0].features.len();
        let n = samples.len() as f64;
        let mut mean = vec![0.0; dim];
        for s in samples {
            for (m, v) in mean.iter_mut().zip(&s.features) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; dim];
        for s in samples {
            for ((sd, v), m) in std.iter_mut().zip(&s.features).zip(&mean) {
                *sd += (v - m).powi(2) / n;
            }
        }
        for sd in &mut std {
            *sd = sd.sqrt().max(1e-9);
        }
        Standardizer { mean, std }
    }

    /// Standardizes one vector.
    pub fn apply(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }
}

/// L2-regularized logistic regression trained by mini-batch-free SGD.
///
/// # Examples
///
/// ```
/// use analysis::{synthetic_dataset, LogisticRegression, Metrics, TrainConfig, train_test_split};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let data = synthetic_dataset(100, &mut rng);
/// let (train, test) = train_test_split(data, 0.25, 2);
/// let model = LogisticRegression::train(&train, TrainConfig::default());
/// assert!(Metrics::evaluate(&model, &test).accuracy() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    standardizer: Standardizer,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Passes over the data.
    pub epochs: usize,
    /// L2 penalty.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.05,
            epochs: 50,
            l2: 1e-4,
            seed: 7,
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Trains on `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or feature dimensions disagree.
    pub fn train(samples: &[Sample], config: TrainConfig) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let dim = samples[0].features.len();
        assert!(
            samples.iter().all(|s| s.features.len() == dim),
            "inconsistent feature dimensions"
        );
        let standardizer = Standardizer::fit(samples);
        let standardized: Vec<(Vec<f64>, f64)> = samples
            .iter()
            .map(|s| (standardizer.apply(&s.features), if s.label { 1.0 } else { 0.0 }))
            .collect();
        let mut weights = vec![0.0; dim];
        let mut bias = 0.0;
        let mut order: Vec<usize> = (0..standardized.len()).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let (x, y) = &standardized[i];
                let z = bias + weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
                let err = sigmoid(z) - y;
                for (w, v) in weights.iter_mut().zip(x) {
                    *w -= config.learning_rate * (err * v + config.l2 * *w);
                }
                bias -= config.learning_rate * err;
            }
        }
        LogisticRegression {
            weights,
            bias,
            standardizer,
        }
    }

    /// Attack probability for a raw (unstandardized) feature vector.
    pub(crate) fn predict_probability(&self, features: &[f64]) -> f64 {
        let x = self.standardizer.apply(features);
        sigmoid(self.bias + self.weights.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>())
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_probability(features) >= 0.5
    }

    /// Folds the trained parameters into a checkpoint digest.
    pub(crate) fn state_digest(&self, h: &mut netsim::StateHasher) {
        let Standardizer { mean, std } = &self.standardizer;
        h.write_usize(self.weights.len());
        for v in self.weights.iter().chain(mean).chain(std) {
            h.write_f64(*v);
        }
        h.write_f64(self.bias);
    }
}

use rand::SeedableRng;

/// Binary-classification quality metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl Metrics {
    /// Evaluates a trained model on a test set.
    pub fn evaluate(model: &LogisticRegression, test: &[Sample]) -> Self {
        let mut m = Metrics {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        for s in test {
            match (model.predict(&s.features), s.label) {
                (true, true) => m.tp += 1,
                (true, false) => m.fp += 1,
                (false, false) => m.tn += 1,
                (false, true) => m.fn_ += 1,
            }
        }
        m
    }

    /// Accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / total as f64
    }

    /// Precision (0 when no positives predicted).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

/// Deterministic train/test split.
pub fn train_test_split(mut samples: Vec<Sample>, test_fraction: f64, seed: u64) -> (Vec<Sample>, Vec<Sample>) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    samples.shuffle(&mut rng);
    let test_n = ((samples.len() as f64) * test_fraction.clamp(0.0, 1.0)).round() as usize;
    let train = samples.split_off(test_n);
    (train, samples)
}

/// Generates a synthetic separable dataset (for tests and demos): attack
/// flows have many packets of constant size; benign flows are sparse and
/// variable.
pub fn synthetic_dataset<R: Rng + ?Sized>(n_per_class: usize, rng: &mut R) -> Vec<Sample> {
    let mut out = Vec::with_capacity(n_per_class * 2);
    for _ in 0..n_per_class {
        // Attack: high pps, fixed 540-byte frames, single port.
        let packets = rng.gen_range(80.0..140.0);
        out.push(Sample {
            features: vec![
                packets,
                packets * 540.0,
                540.0,
                rng.gen_range(0.0..2.0),
                1.0 / packets,
                1.0,
                1.0,
            ],
            label: true,
        });
        // Benign: low rate, variable sizes, several ports.
        let packets = rng.gen_range(1.0..12.0);
        let mean = rng.gen_range(80.0..900.0);
        out.push(Sample {
            features: vec![
                packets,
                packets * mean,
                mean,
                rng.gen_range(50.0..300.0),
                rng.gen_range(0.05..0.9),
                rng.gen_range(1.0..5.0),
                rng.gen_range(0.3..1.0),
            ],
            label: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    #[test]
    fn learns_synthetic_separation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let data = synthetic_dataset(200, &mut rng);
        let (train, test) = train_test_split(data, 0.25, 2);
        let model = LogisticRegression::train(&train, TrainConfig::default());
        let metrics = Metrics::evaluate(&model, &test);
        assert!(
            metrics.accuracy() > 0.95,
            "accuracy {:.3} too low",
            metrics.accuracy()
        );
        assert!(metrics.f1() > 0.95);
    }

    #[test]
    fn metrics_arithmetic() {
        let m = Metrics {
            tp: 8,
            fp: 2,
            tn: 9,
            fn_: 1,
        };
        assert!((m.accuracy() - 0.85).abs() < 1e-12);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 8.0 / 9.0).abs() < 1e-12);
        assert!(m.f1() > 0.0);
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        let m = Metrics {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn split_preserves_total() {
        let mut rng = SmallRng::seed_from_u64(3);
        let data = synthetic_dataset(50, &mut rng);
        let n = data.len();
        let (train, test) = train_test_split(data, 0.2, 4);
        assert_eq!(train.len() + test.len(), n);
        assert_eq!(test.len(), (n as f64 * 0.2).round() as usize);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        let _ = LogisticRegression::train(&[], TrainConfig::default());
    }
}
