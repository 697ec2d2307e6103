//! Structured flight-recorder events.
//!
//! An [`Event`] is deliberately layer-agnostic: sim-time as raw
//! nanoseconds, the node as a raw index, and the payload as text. That
//! keeps this crate free of any dependency on netsim/firmware/malware
//! types so every layer can emit into the same recorder without a
//! dependency cycle.
//!
//! `Event` is the *rendered* form — what a sink, `events()`, a parsed
//! trace and `trace diff` see. What goes *into* the recorder is a
//! [`Detail`], whose sentence is written only when someone reads it.

use djson::{FromJson, Json, JsonError, ToJson};
use std::fmt;
use std::net::{IpAddr, SocketAddr};

/// What kind of thing happened. One variant per instrumentation site
/// class across the stack (netsim, firmware, malware, core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// A frame started serializing onto a link.
    LinkTx,
    /// A packet was dropped (any [`DropReason`-like] cause).
    LinkDrop,
    /// A Wi-Fi station drew a contention backoff.
    WifiBackoff,
    /// Two or more Wi-Fi stations collided on the medium.
    WifiCollision,
    /// tcp-lite retransmitted a segment after an RTO.
    TcpRetransmit,
    /// A node was administratively brought up or down.
    NodeAdmin,
    /// A container (device firmware) started.
    ContainerStart,
    /// A container stopped or was power-cycled.
    Reboot,
    /// The emulated shell executed a command line.
    ShellExec,
    /// One stage of the `curl | sh` infection chain completed.
    CurlShStage,
    /// A bot registered with the C&C server.
    CncRegister,
    /// The C&C server issued a command.
    CncCommand,
    /// A device transitioned infection state (e.g. clean → infected).
    Infection,
    /// A bot started or stopped flooding.
    Flood,
    /// An experiment phase marker (init / attack / drain).
    Phase,
    /// A point-to-point link changed administrative state or loss
    /// probability (the netsim mechanism underneath link faults).
    LinkAdmin,
    /// The fault-injection layer executed a planned fault.
    Fault,
    /// A scenario-scheduled defense was deployed or acted (rate limit,
    /// egress filter, patch wave, C&C takedown).
    Defense,
    /// A honeypot observed a scanner and fed the blocklist.
    Honeypot,
}

impl Category {
    /// Stable wire name (used in serialized traces; never reorder).
    pub fn as_str(self) -> &'static str {
        match self {
            Category::LinkTx => "link_tx",
            Category::LinkDrop => "link_drop",
            Category::WifiBackoff => "wifi_backoff",
            Category::WifiCollision => "wifi_collision",
            Category::TcpRetransmit => "tcp_retransmit",
            Category::NodeAdmin => "node_admin",
            Category::ContainerStart => "container_start",
            Category::Reboot => "reboot",
            Category::ShellExec => "shell_exec",
            Category::CurlShStage => "curl_sh_stage",
            Category::CncRegister => "cnc_register",
            Category::CncCommand => "cnc_command",
            Category::Infection => "infection",
            Category::Flood => "flood",
            Category::Phase => "phase",
            Category::LinkAdmin => "link_admin",
            Category::Fault => "fault",
            Category::Defense => "defense",
            Category::Honeypot => "honeypot",
        }
    }

    /// Inverse of [`Category::as_str`].
    pub fn parse(s: &str) -> Option<Category> {
        Some(match s {
            "link_tx" => Category::LinkTx,
            "link_drop" => Category::LinkDrop,
            "wifi_backoff" => Category::WifiBackoff,
            "wifi_collision" => Category::WifiCollision,
            "tcp_retransmit" => Category::TcpRetransmit,
            "node_admin" => Category::NodeAdmin,
            "container_start" => Category::ContainerStart,
            "reboot" => Category::Reboot,
            "shell_exec" => Category::ShellExec,
            "curl_sh_stage" => Category::CurlShStage,
            "cnc_register" => Category::CncRegister,
            "cnc_command" => Category::CncCommand,
            "infection" => Category::Infection,
            "flood" => Category::Flood,
            "phase" => Category::Phase,
            "link_admin" => Category::LinkAdmin,
            "fault" => Category::Fault,
            "defense" => Category::Defense,
            "honeypot" => Category::Honeypot,
            _ => return None,
        })
    }
}

/// What an event says, as handed to the recorder. The sentences that
/// dominate a recorded run (a flood's `link_tx`/`link_drop`, tcp-lite's
/// retransmits, Wi-Fi contention) arrive as the plain
/// values they are made of; `Display` is each sentence's one definition
/// and runs only where the text is read. The rest is [`Detail::Text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// An already formatted sentence (every cold site).
    Text(String),
    /// `link 2 side 0 pkt 1 58B`
    LinkTx { link: u32, side: u8, pkt: u64, wire_bytes: u32 },
    /// `queue_overflow pkt 37 10.0.0.7:80 -> 10.0.0.11:49153 (121136B)`;
    /// `(ip, port)` prints as a `SocketAddr` and two are 24 bytes smaller.
    LinkDrop { reason: &'static str, pkt: u64, src: (IpAddr, u16), dst: (IpAddr, u16), wire_bytes: u32 },
    /// `conn 2 rto fired for seq 1`
    TcpRetransmit { conn: u64, seq: u64 },
    /// `chan 0 station 1 backoff 6/16 slots, attempt at 110088000ns`
    WifiBackoff { chan: u32, station: u32, slots: u32, cw: u32, attempt_nanos: u64 },
    /// `chan 0 station 2 collided (retries exceeded: false)`
    WifiCollision { chan: u32, station: u32, retries_exceeded: bool },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Detail::Text(ref s) => f.write_str(s),
            Detail::LinkTx { link, side, pkt, wire_bytes } => {
                write!(f, "link {link} side {side} pkt {pkt} {wire_bytes}B")
            }
            Detail::LinkDrop { reason, pkt, src, dst, wire_bytes } => {
                let (src, dst) = (SocketAddr::from(src), SocketAddr::from(dst));
                write!(f, "{reason} pkt {pkt} {src} -> {dst} ({wire_bytes}B)")
            }
            Detail::TcpRetransmit { conn, seq } => write!(f, "conn {conn} rto fired for seq {seq}"),
            Detail::WifiBackoff { chan, station, slots, cw, attempt_nanos: at } => {
                write!(f, "chan {chan} station {station} backoff {slots}/{cw} slots, attempt at {at}ns")
            }
            Detail::WifiCollision { chan, station, retries_exceeded } => {
                write!(f, "chan {chan} station {station} collided (retries exceeded: {retries_exceeded})")
            }
        }
    }
}

impl Detail {
    /// The sentence; a [`Detail::Text`] gives up its string as it is.
    /// Fields are written into room for 64 bytes — all but a v6 drop in
    /// one allocation, where `to_string` grows 8 → 16 → 32 → 64 and read a
    /// sixth slower under a sink.
    pub(crate) fn into_text(self) -> String {
        #[cfg(test)]
        tests::RENDERS.with(|n| n.set(n.get() + 1));
        match self {
            Detail::Text(text) => text,
            fields => {
                let mut text = String::with_capacity(64);
                fmt::Write::write_fmt(&mut text, format_args!("{fields}"))
                    .expect("writing to a String does not fail");
                text
            }
        }
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Self {
        Detail::Text(text)
    }
}

/// One flight-recorder entry, rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in nanoseconds.
    pub time_nanos: u64,
    /// Monotonic sequence number assigned by the recorder; breaks ties
    /// between same-instant events so traces are totally ordered.
    pub seq: u64,
    /// Node index the event happened at, if any (phase markers have none).
    pub node: Option<u32>,
    /// Event class.
    pub category: Category,
    /// Human-readable payload; formatting is deterministic (no wall
    /// clock, no addresses-of, nothing platform-dependent).
    pub detail: String,
}

impl Event {
    /// The serialized entry; the text is moved into it, not copied.
    pub(crate) fn into_json(self) -> Json {
        Json::obj([
            ("t", Json::U64(self.time_nanos)),
            ("seq", Json::U64(self.seq)),
            ("node", self.node.map_or(Json::Null, |n| Json::U64(u64::from(n)))),
            ("cat", Json::Str(self.category.as_str().into())),
            ("detail", Json::Str(self.detail)),
        ])
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        self.clone().into_json()
    }
}

impl FromJson for Event {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let t = json.get("t").ok_or_else(|| JsonError::conversion("event missing 't'"))?;
        let seq = json.get("seq").ok_or_else(|| JsonError::conversion("event missing 'seq'"))?;
        let cat = json
            .get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::conversion("event missing 'cat'"))?;
        let detail = json
            .get("detail")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::conversion("event missing 'detail'"))?;
        let node = match json.get("node") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                u32::try_from(u64::from_json(v)?)
                    .map_err(|_| JsonError::conversion("event 'node' exceeds 4294967295"))?,
            ),
        };
        Ok(Event {
            time_nanos: u64::from_json(t)?,
            seq: u64::from_json(seq)?,
            node,
            category: Category::parse(cat)
                .ok_or_else(|| JsonError::conversion(format!("unknown event category {cat:?}")))?,
            detail: detail.to_string(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Sentences rendered on this thread, so a test can show the ring lazy.
    thread_local!(pub(crate) static RENDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

    #[test]
    fn category_round_trips() {
        for cat in [
            Category::LinkTx,
            Category::LinkDrop,
            Category::WifiBackoff,
            Category::WifiCollision,
            Category::TcpRetransmit,
            Category::NodeAdmin,
            Category::ContainerStart,
            Category::Reboot,
            Category::ShellExec,
            Category::CurlShStage,
            Category::CncRegister,
            Category::CncCommand,
            Category::Infection,
            Category::Flood,
            Category::Phase,
            Category::LinkAdmin,
            Category::Fault,
            Category::Defense,
            Category::Honeypot,
        ] {
            assert_eq!(Category::parse(cat.as_str()), Some(cat));
        }
        assert_eq!(Category::parse("nope"), None);
    }

    /// Every sentence below was written by the commit before the ring
    /// went lazy (from `--record` traces of the star, tiered, Wi-Fi and
    /// fault-plan worlds, and netsim's unit worlds for the three drop
    /// reasons no product world reaches): `Display` is pinned to them.
    #[test]
    fn each_arm_renders_the_sentence_the_eager_recorder_wrote() {
        fn drop(reason: &'static str, pkt: u64, src: &str, dst: &str, wire_bytes: u32) -> Detail {
            let addr = |s: &str| {
                let a: SocketAddr = s.parse().expect("socket address");
                (a.ip(), a.port())
            };
            Detail::LinkDrop { reason, pkt, src: addr(src), dst: addr(dst), wire_bytes }
        }
        let golden = [
            (Detail::Text("$ busybox wget".into()), "$ busybox wget"),
            (Detail::LinkTx { link: 2, side: 0, pkt: 1, wire_bytes: 58 }, "link 2 side 0 pkt 1 58B"),
            (
                drop("queue_overflow", 37, "10.0.0.7:80", "10.0.0.11:49153", 121_136),
                "queue_overflow pkt 37 10.0.0.7:80 -> 10.0.0.11:49153 (121136B)",
            ),
            (
                drop("node_down", 1646, "[fd00::1]:546", "[ff02::1:2]:547", 66),
                "node_down pkt 1646 [fd00::1]:546 -> [ff02::1:2]:547 (66B)",
            ),
            (
                drop("ttl_expired", 2, "10.0.0.1:1000", "10.0.0.9:9", 128),
                "ttl_expired pkt 2 10.0.0.1:1000 -> 10.0.0.9:9 (128B)",
            ),
            (
                drop("no_route", 1, "10.0.0.1:1000", "10.0.0.9:9", 128),
                "no_route pkt 1 10.0.0.1:1000 -> 10.0.0.9:9 (128B)",
            ),
            (
                drop("port_unreachable", 29, "10.0.0.19:49152", "10.0.0.1:53", 58),
                "port_unreachable pkt 29 10.0.0.19:49152 -> 10.0.0.1:53 (58B)",
            ),
            (
                drop("wifi_retry_limit", 1, "10.0.0.1:1000", "10.0.0.2:9", 128),
                "wifi_retry_limit pkt 1 10.0.0.1:1000 -> 10.0.0.2:9 (128B)",
            ),
            (
                drop("wifi_loss", 60, "[fd00::2]:546", "[fd00::8]:547", 249),
                "wifi_loss pkt 60 [fd00::2]:546 -> [fd00::8]:547 (249B)",
            ),
            (
                drop("filtered", 2192, "10.0.0.19:49152", "10.0.0.3:80", 540),
                "filtered pkt 2192 10.0.0.19:49152 -> 10.0.0.3:80 (540B)",
            ),
            (
                drop("link_down", 378, "[fd00::1]:546", "[ff02::1:2]:547", 66),
                "link_down pkt 378 [fd00::1]:546 -> [ff02::1:2]:547 (66B)",
            ),
            (
                drop("link_loss", 195, "[fd00::7]:546", "[ff02::1:2]:547", 66),
                "link_loss pkt 195 [fd00::7]:546 -> [ff02::1:2]:547 (66B)",
            ),
            (Detail::TcpRetransmit { conn: 2, seq: 1 }, "conn 2 rto fired for seq 1"),
            (
                Detail::WifiBackoff { chan: 0, station: 1, slots: 6, cw: 16, attempt_nanos: 110_088_000 },
                "chan 0 station 1 backoff 6/16 slots, attempt at 110088000ns",
            ),
            (
                Detail::WifiCollision { chan: 0, station: 2, retries_exceeded: false },
                "chan 0 station 2 collided (retries exceeded: false)",
            ),
            (
                Detail::WifiCollision { chan: 0, station: 0, retries_exceeded: true },
                "chan 0 station 0 collided (retries exceeded: true)",
            ),
        ];
        for (detail, sentence) in golden {
            assert_eq!(detail.to_string(), sentence);
            assert_eq!(detail.into_text(), sentence);
        }
    }

    #[test]
    fn node_beyond_u32_is_refused_not_truncated() {
        let doc = |node: &str| {
            let text = format!(r#"{{"t":1,"seq":0,"node":{node},"cat":"phase","detail":"x"}}"#);
            Event::from_json(&Json::parse(&text).expect("syntax"))
        };
        assert_eq!(doc("4294967295").expect("fits").node, Some(u32::MAX));
        for node in ["4294967296", "4294967297"] {
            let err = doc(node).expect_err("does not fit").to_string();
            assert!(err.contains("node"), "{err}");
        }
    }

    #[test]
    fn event_json_round_trips() {
        let e = Event {
            time_nanos: 1_500_000_000,
            seq: 7,
            node: Some(3),
            category: Category::Infection,
            detail: "dev3 infected".into(),
        };
        let back = Event::from_json(&e.to_json()).expect("round trip");
        assert_eq!(back, e);

        let phase = Event { node: None, category: Category::Phase, ..e };
        let back = Event::from_json(&phase.to_json()).expect("round trip");
        assert_eq!(back, phase);
    }
}
