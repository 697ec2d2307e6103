//! Packet capture: a pcap-like, djson-serialized record of packet
//! events, with BPF-ish filter predicates.
//!
//! The capture does not tap the wire itself — netsim already has a
//! trace hook (`stats.rs`) that sees every send/deliver/drop/forward.
//! The core layer converts those trace records into [`CaptureRecord`]s
//! and offers them here; the [`CaptureFilter`] decides which are kept.

use djson::{Json, ToJson};
use std::net::{IpAddr, SocketAddr};

/// Schema tag written into every serialized capture.
pub const CAPTURE_SCHEMA: &str = "ddosim.telemetry.capture/1";

/// One captured packet event (a Wireshark-row equivalent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Simulated time in nanoseconds.
    pub time_nanos: u64,
    /// What happened: `sent`, `delivered`, `forwarded`, or
    /// `dropped:<reason>`.
    pub kind: String,
    /// Node index at which the event occurred.
    pub node: u32,
    /// Simulator-global packet id (follows a packet across hops).
    pub packet_id: u64,
    /// Source socket address.
    pub src: SocketAddr,
    /// Destination socket address.
    pub dst: SocketAddr,
    /// Transport protocol, lowercase (`udp` / `tcp`).
    pub proto: String,
    /// Total on-wire bytes.
    pub wire_bytes: u32,
}

impl ToJson for CaptureRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("t", Json::U64(self.time_nanos)),
            ("kind", Json::Str(self.kind.clone())),
            ("node", Json::U64(u64::from(self.node))),
            ("packet_id", Json::U64(self.packet_id)),
            ("src", Json::Str(self.src.to_string())),
            ("dst", Json::Str(self.dst.to_string())),
            ("proto", Json::Str(self.proto.clone())),
            ("wire_bytes", Json::U64(u64::from(self.wire_bytes))),
        ])
    }
}

/// A BPF-flavoured packet predicate: every present field must match
/// (conjunction). Addresses match either endpoint's IP as directed —
/// `src`/`dst` match that specific direction, `host` matches either.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureFilter {
    /// Transport protocol (`udp` / `tcp`), lowercase.
    pub proto: Option<String>,
    /// Matches if either endpoint uses this port.
    pub port: Option<u16>,
    /// Source IP must equal this.
    pub src: Option<IpAddr>,
    /// Destination IP must equal this.
    pub dst: Option<IpAddr>,
    /// Either endpoint IP must equal this.
    pub host: Option<IpAddr>,
}

impl CaptureFilter {
    /// Parses a BPF-ish expression: whitespace-separated clauses from
    /// `udp`, `tcp`, `port N`, `src IP`, `dst IP`, `host IP`.
    /// An empty string is the match-everything filter.
    ///
    /// ```
    /// use telemetry::CaptureFilter;
    /// let f = CaptureFilter::parse("udp port 80 dst 10.0.0.9").unwrap();
    /// assert_eq!(f.proto.as_deref(), Some("udp"));
    /// assert_eq!(f.port, Some(80));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause.
    pub fn parse(expr: &str) -> Result<CaptureFilter, String> {
        let mut filter = CaptureFilter::default();
        let mut words = expr.split_whitespace();
        while let Some(word) = words.next() {
            match word {
                "udp" | "tcp" => filter.proto = Some(word.to_string()),
                "port" => {
                    let v = words.next().ok_or("'port' needs a number")?;
                    filter.port =
                        Some(v.parse().map_err(|_| format!("bad port '{v}'"))?);
                }
                "src" | "dst" | "host" => {
                    let v = words.next().ok_or_else(|| format!("'{word}' needs an IP"))?;
                    let ip: IpAddr =
                        v.parse().map_err(|_| format!("bad IP '{v}' after '{word}'"))?;
                    match word {
                        "src" => filter.src = Some(ip),
                        "dst" => filter.dst = Some(ip),
                        _ => filter.host = Some(ip),
                    }
                }
                other => return Err(format!("unknown filter clause '{other}'")),
            }
        }
        Ok(filter)
    }

    /// Whether `rec` satisfies every clause.
    pub fn matches(&self, rec: &CaptureRecord) -> bool {
        if let Some(proto) = &self.proto {
            if rec.proto != *proto {
                return false;
            }
        }
        if let Some(port) = self.port {
            if rec.src.port() != port && rec.dst.port() != port {
                return false;
            }
        }
        if let Some(src) = self.src {
            if rec.src.ip() != src {
                return false;
            }
        }
        if let Some(dst) = self.dst {
            if rec.dst.ip() != dst {
                return false;
            }
        }
        if let Some(host) = self.host {
            if rec.src.ip() != host && rec.dst.ip() != host {
                return false;
            }
        }
        true
    }
}

/// A bounded capture sink: records matching the filter are kept up to
/// `capacity`; later matches are counted but not stored (like pcap's
/// dropped-by-kernel counter).
#[derive(Debug, Clone)]
pub struct PacketCapture {
    filter: CaptureFilter,
    capacity: usize,
    records: Vec<CaptureRecord>,
    /// Matching records seen, including those past capacity.
    matched: u64,
    /// Records offered, matching or not.
    offered: u64,
}

impl PacketCapture {
    /// Creates a capture keeping at most `capacity` matching records.
    pub fn new(filter: CaptureFilter, capacity: usize) -> Self {
        PacketCapture {
            filter,
            capacity: capacity.max(1),
            records: Vec::new(),
            matched: 0,
            offered: 0,
        }
    }

    /// Offers one packet event; keeps it if the filter matches and the
    /// buffer has room.
    pub fn offer(&mut self, rec: CaptureRecord) {
        self.offered += 1;
        if !self.filter.matches(&rec) {
            return;
        }
        self.matched += 1;
        if self.records.len() < self.capacity {
            self.records.push(rec);
        }
    }

    /// Stored records, in capture order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Matching records seen (stored or not).
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Serializes the capture; byte-stable for identical packet streams.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(CAPTURE_SCHEMA.into())),
            ("offered", Json::U64(self.offered)),
            ("matched", Json::U64(self.matched)),
            ("stored", Json::U64(self.records.len() as u64)),
            (
                "records",
                Json::Arr(self.records.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: &str, dst: &str, proto: &str) -> CaptureRecord {
        CaptureRecord {
            time_nanos: 1,
            kind: "sent".into(),
            node: 0,
            packet_id: 1,
            src: src.parse().expect("src"),
            dst: dst.parse().expect("dst"),
            proto: proto.into(),
            wire_bytes: 100,
        }
    }

    #[test]
    fn parse_and_match() {
        let f = CaptureFilter::parse("udp port 80 dst 10.0.0.9").expect("parse");
        assert!(f.matches(&rec("10.0.0.1:5000", "10.0.0.9:80", "udp")));
        assert!(!f.matches(&rec("10.0.0.1:5000", "10.0.0.9:80", "tcp")), "proto");
        assert!(!f.matches(&rec("10.0.0.1:5000", "10.0.0.8:80", "udp")), "dst");
        assert!(!f.matches(&rec("10.0.0.1:5000", "10.0.0.9:81", "udp")), "port");
    }

    #[test]
    fn host_matches_either_direction() {
        let f = CaptureFilter::parse("host 10.0.0.9").expect("parse");
        assert!(f.matches(&rec("10.0.0.9:1", "10.0.0.2:2", "udp")));
        assert!(f.matches(&rec("10.0.0.2:2", "10.0.0.9:1", "tcp")));
        assert!(!f.matches(&rec("10.0.0.2:2", "10.0.0.3:1", "tcp")));
    }

    #[test]
    fn empty_filter_matches_all() {
        let f = CaptureFilter::parse("").expect("parse");
        assert_eq!(f, CaptureFilter::default());
        assert!(f.matches(&rec("1.2.3.4:1", "5.6.7.8:2", "tcp")));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CaptureFilter::parse("icmp").is_err());
        assert!(CaptureFilter::parse("port eighty").is_err());
        assert!(CaptureFilter::parse("src not-an-ip").is_err());
        assert!(CaptureFilter::parse("port").is_err());
    }

    #[test]
    fn capture_caps_storage_but_counts_matches() {
        let mut cap = PacketCapture::new(CaptureFilter::default(), 2);
        for i in 0..5 {
            let mut r = rec("10.0.0.1:1", "10.0.0.2:2", "udp");
            r.packet_id = i;
            cap.offer(r);
        }
        assert_eq!(cap.records().len(), 2);
        assert_eq!(cap.matched(), 5);
        let json = cap.to_json();
        assert_eq!(json.get("stored").and_then(Json::as_u64), Some(2));
    }
}
