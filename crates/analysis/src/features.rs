//! Traffic feature extraction for ML-based DDoS defense (§V-A).
//!
//! "Most ML-based DDoS detection approaches rely on extracting features
//! from incoming network traffic (e.g., IP address, traffic rate) and
//! feeding them into an ML model." This module turns the simulator's packet
//! trace at TServer into per-source, per-window feature vectors.

use netsim::{TraceKind, TraceRecord, TransportProto};
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::time::Duration;

/// Features of one (source, time-window) flow aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowFeatures {
    /// Source address.
    pub src: IpAddr,
    /// Window index.
    pub window: u64,
    /// Packets in the window.
    pub packets: f64,
    /// Total wire bytes in the window.
    pub bytes: f64,
    /// Mean packet size.
    pub mean_size: f64,
    /// Packet-size standard deviation.
    pub std_size: f64,
    /// Mean inter-arrival time (seconds; 0 for single-packet windows).
    pub mean_iat: f64,
    /// Number of distinct destination ports touched.
    pub distinct_dst_ports: f64,
    /// Fraction of UDP packets.
    pub udp_fraction: f64,
}

impl FlowFeatures {
    /// The feature vector used by classifiers (fixed order).
    pub fn vector(&self) -> [f64; 7] {
        [
            self.packets,
            self.bytes,
            self.mean_size,
            self.std_size,
            self.mean_iat,
            self.distinct_dst_ports,
            self.udp_fraction,
        ]
    }

    /// Number of features in [`FlowFeatures::vector`].
    pub const DIM: usize = 7;
}

/// Aggregates delivered-packet trace records into per-source windows.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    window: Duration,
    acc: BTreeMap<(IpAddr, u64), Acc>,
}

#[derive(Debug, Clone, Default)]
struct Acc {
    sizes: Vec<f64>,
    times: Vec<f64>,
    ports: BTreeSet<u16>,
    udp: u64,
}

impl FeatureExtractor {
    /// Creates an extractor with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        FeatureExtractor {
            window,
            acc: BTreeMap::new(),
        }
    }

    /// Feeds one trace record; only `Delivered` records are used.
    pub fn push(&mut self, record: &TraceRecord) {
        if record.kind != TraceKind::Delivered {
            return;
        }
        let t = record.time.as_secs_f64();
        let w = (t / self.window.as_secs_f64()) as u64;
        let acc = self.acc.entry((record.src.ip(), w)).or_default();
        acc.sizes.push(f64::from(record.wire_bytes));
        acc.times.push(t);
        acc.ports.insert(record.dst.port());
        if record.proto == TransportProto::Udp {
            acc.udp += 1;
        }
    }

    /// Folds the accumulated observations into a checkpoint digest.
    pub(crate) fn state_digest(&self, h: &mut netsim::StateHasher) {
        h.write_usize(self.acc.len());
        for ((src, window), acc) in &self.acc {
            h.write_ip(*src);
            h.write_u64(*window);
            h.write_usize(acc.sizes.len());
            for (size, time) in acc.sizes.iter().zip(&acc.times) {
                h.write_f64(*size);
                h.write_f64(*time);
            }
            h.write_usize(acc.ports.len());
            for port in &acc.ports {
                h.write_u32(u32::from(*port));
            }
            h.write_u64(acc.udp);
        }
    }

    /// Finalizes into feature rows.
    pub fn finish(self) -> Vec<FlowFeatures> {
        self.acc
            .into_iter()
            .map(|((src, window), acc)| {
                let n = acc.sizes.len() as f64;
                let bytes: f64 = acc.sizes.iter().sum();
                let mean_size = bytes / n;
                let var = acc
                    .sizes
                    .iter()
                    .map(|s| (s - mean_size).powi(2))
                    .sum::<f64>()
                    / n;
                let mut times = acc.times;
                times.sort_by(f64::total_cmp);
                let mean_iat = if times.len() > 1 {
                    (times[times.len() - 1] - times[0]) / (times.len() - 1) as f64
                } else {
                    0.0
                };
                FlowFeatures {
                    src,
                    window,
                    packets: n,
                    bytes,
                    mean_size,
                    std_size: var.sqrt(),
                    mean_iat,
                    distinct_dst_ports: acc.ports.len() as f64,
                    udp_fraction: acc.udp as f64 / n,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeId, SimTime};
    use std::net::SocketAddr;

    fn record(t_ms: u64, src_last: u8, bytes: u32, dst_port: u16) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(t_ms),
            kind: TraceKind::Delivered,
            node: NodeId::from_index(0),
            packet_id: 0,
            src: SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, src_last)), 4000),
            dst: SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 9)), dst_port),
            proto: TransportProto::Udp,
            wire_bytes: bytes,
        }
    }

    #[test]
    fn windows_group_by_source_and_time() {
        let mut fx = FeatureExtractor::new(Duration::from_secs(1));
        fx.push(&record(100, 1, 540, 80));
        fx.push(&record(200, 1, 540, 80));
        fx.push(&record(1500, 1, 540, 80)); // next window
        fx.push(&record(100, 2, 100, 80)); // other source
        let rows = fx.finish();
        assert_eq!(rows.len(), 3);
        let first = rows
            .iter()
            .find(|r| r.window == 0 && r.src.to_string() == "10.0.0.1")
            .expect("row exists");
        assert_eq!(first.packets, 2.0);
        assert_eq!(first.bytes, 1080.0);
        assert_eq!(first.mean_size, 540.0);
        assert_eq!(first.std_size, 0.0);
        assert!((first.mean_iat - 0.1).abs() < 1e-9);
        assert_eq!(first.udp_fraction, 1.0);
    }

    #[test]
    fn non_delivered_records_ignored() {
        let mut fx = FeatureExtractor::new(Duration::from_secs(1));
        let mut r = record(0, 1, 100, 80);
        r.kind = TraceKind::Sent;
        fx.push(&r);
        assert!(fx.finish().is_empty());
    }

    #[test]
    fn vector_has_declared_dim() {
        let mut fx = FeatureExtractor::new(Duration::from_secs(1));
        fx.push(&record(0, 1, 100, 80));
        let rows = fx.finish();
        assert_eq!(rows[0].vector().len(), FlowFeatures::DIM);
    }

    #[test]
    fn distinct_ports_counted() {
        let mut fx = FeatureExtractor::new(Duration::from_secs(1));
        fx.push(&record(0, 1, 100, 80));
        fx.push(&record(10, 1, 100, 443));
        let rows = fx.finish();
        assert_eq!(rows[0].distinct_dst_ports, 2.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = FeatureExtractor::new(Duration::ZERO);
    }
}
