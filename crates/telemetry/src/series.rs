//! Fixed-interval time series.
//!
//! A [`TimeSeries`] is the shared currency between the metrics sampler
//! (periodic queue-depth / rate / population samples) and the figure
//! pipelines: sample index `i` covers simulated time
//! `[i * interval, (i+1) * interval)`, so binning is implicit and two
//! same-seed runs produce identical vectors.

use djson::{Json, ToJson};

/// One named metric sampled at a fixed simulated-time interval.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    interval_nanos: u64,
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series named `name` with the given sampling
    /// interval (min 1 ns).
    pub fn new(name: impl Into<String>, interval_nanos: u64) -> Self {
        TimeSeries {
            name: name.into(),
            interval_nanos: interval_nanos.max(1),
            samples: Vec::new(),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sampling interval in nanoseconds.
    pub fn interval_nanos(&self) -> u64 {
        self.interval_nanos
    }

    /// Appends the next sample.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// The samples so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("interval_nanos", Json::U64(self.interval_nanos)),
            ("samples", self.samples.to_json()),
        ])
    }
}

/// An ordered collection of series sharing one sampling interval.
/// Series are created on first use and serialized in creation order, so
/// output is deterministic as long as the sampling code path is.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    interval_nanos: u64,
    series: Vec<TimeSeries>,
}

/// Schema tag written into every serialized metrics document.
pub const METRICS_SCHEMA: &str = "ddosim.telemetry.metrics/1";

impl SeriesSet {
    /// Creates an empty set whose series all sample every
    /// `interval_nanos` (min 1 ns).
    pub fn new(interval_nanos: u64) -> Self {
        SeriesSet { interval_nanos: interval_nanos.max(1), series: Vec::new() }
    }

    /// Shared sampling interval in nanoseconds.
    pub fn interval_nanos(&self) -> u64 {
        self.interval_nanos
    }

    /// The series named `name`, created empty on first use.
    pub fn series_mut(&mut self, name: &str) -> &mut TimeSeries {
        if let Some(i) = self.series.iter().position(|s| s.name() == name) {
            return &mut self.series[i];
        }
        self.series.push(TimeSeries::new(name, self.interval_nanos));
        self.series.last_mut().expect("just pushed")
    }

    /// Looks up a series without creating it.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// All series, in creation order.
    pub fn all(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Serializes every series under the metrics schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(METRICS_SCHEMA.into())),
            ("interval_nanos", Json::U64(self.interval_nanos)),
            (
                "series",
                Json::Arr(self.series.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_set_creates_on_first_use_and_keeps_order() {
        let mut set = SeriesSet::new(500);
        set.series_mut("b").push(1.0);
        set.series_mut("a").push(2.0);
        set.series_mut("b").push(3.0);
        let names: Vec<&str> = set.all().iter().map(TimeSeries::name).collect();
        assert_eq!(names, vec!["b", "a"], "creation order, not sorted");
        assert_eq!(set.get("b").expect("b").samples(), &[1.0, 3.0]);
        assert!(set.get("missing").is_none());
    }

    #[test]
    fn serialization_is_stable() {
        let mut set = SeriesSet::new(1_000);
        set.series_mut("depth").push(4.0);
        assert_eq!(
            set.to_json().to_string_compact(),
            set.clone().to_json().to_string_compact()
        );
    }
}
