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

use djson::{Json, PlanError, ToJson, Val};
use std::fmt;

/// What kind of thing happened. One variant per instrumentation site
/// class across the stack (netsim, firmware, malware, core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
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

/// What an event says, as handed to the recorder. The one sentence that
/// dominates a recorded run, tcp-lite's retransmit, arrives as the plain
/// values it is made of; `Display` is its one definition and runs only
/// where the text is read. The rest is [`Detail::Text`]. Packets are not
/// recorder events: sends, forwards and drops are the capture's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// An already formatted sentence (every cold site).
    Text(String),
    /// `conn 2 rto fired for seq 1`
    TcpRetransmit { conn: u64, seq: u64 },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Detail::Text(ref s) => f.write_str(s),
            Detail::TcpRetransmit { conn, seq } => write!(f, "conn {conn} rto fired for seq {seq}"),
        }
    }
}

impl Detail {
    /// The sentence; a [`Detail::Text`] gives up its string as it is.
    /// Fields are written into room for 64 bytes — one allocation, where
    /// `to_string` grows 8 → 16 → 32 → 64 and reads slower under a sink.
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

impl Event {
    /// Reads one serialized entry, as [`ToJson::to_json`] writes it.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] naming the member that is missing, mistyped,
    /// out of range or not one an event has.
    pub fn from_json(json: &Json) -> Result<Event, PlanError> {
        Event::read(Val::root("event", json))
    }

    pub(crate) fn read(v: Val<'_>) -> Result<Event, PlanError> {
        v.fields(|f| {
            Ok(Event {
                time_nanos: f.req("t")?,
                seq: f.req("seq")?,
                node: f.opt("node")?,
                category: f.req_with("cat", |v| {
                    v.word(|cat| {
                        Category::parse(cat).ok_or_else(|| format!("unknown event category {cat:?}"))
                    })
                })?,
                detail: f.req("detail")?,
            })
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
    /// went lazy: `Display` is pinned to them.
    #[test]
    fn each_arm_renders_the_sentence_the_eager_recorder_wrote() {
        let golden = [
            (Detail::Text("$ busybox wget".into()), "$ busybox wget"),
            (Detail::TcpRetransmit { conn: 2, seq: 1 }, "conn 2 rto fired for seq 1"),
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
