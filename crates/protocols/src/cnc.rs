//! The bot ↔ C&C wire protocol and attack vector definitions, modelled on
//! the published Mirai source: bots register with an architecture tag, keep
//! the channel alive with ping/pong, and receive attack commands naming a
//! vector, a target, and a duration.

use std::fmt;
use std::net::IpAddr;
use std::time::Duration;

/// The port Mirai's C&C listens on for bots and admin telnet sessions.
pub const CNC_PORT: u16 = 23;
/// The local port Mirai binds to guarantee a single running instance.
pub const SINGLE_INSTANCE_PORT: u16 = 48101;

/// DDoS attack vectors supported by the simulated Mirai.
///
/// # Examples
///
/// ```
/// use protocols::AttackVector;
///
/// let v = AttackVector::parse("udpplain").expect("a Mirai command name");
/// assert_eq!(v.default_payload_bytes(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// Volumetric UDP flood with a plain payload (the paper's vector).
    UdpPlain,
    /// Generic UDP flood (randomized payload sizes).
    Udp,
    /// TCP SYN flood.
    Syn,
    /// TCP ACK flood.
    Ack,
    /// GRE-encapsulated IP flood.
    GreIp,
    /// Valve Source Engine query flood (fixed 25-byte query payload).
    Vse,
    /// DNS water-torture flood (randomized-subdomain queries, usually
    /// bounced off resolvers at the victim's authoritative server).
    Dns,
    /// HTTP GET flood: persistent TCP connections to the target with a
    /// request sent per pacing tick (a layer-7 flood over the tcp-lite
    /// stack, not raw forged packets).
    Http,
    /// DNS amplification: bots forge the victim's address as the query
    /// source and aim small queries at an open resolver (the command's
    /// `reflector`), which answers the victim with much larger records.
    DnsAmp,
}

impl AttackVector {
    /// All supported vectors.
    pub const ALL: [AttackVector; 9] = [
        AttackVector::UdpPlain,
        AttackVector::Udp,
        AttackVector::Syn,
        AttackVector::Ack,
        AttackVector::GreIp,
        AttackVector::Vse,
        AttackVector::Dns,
        AttackVector::Http,
        AttackVector::DnsAmp,
    ];

    /// Default payload bytes per packet for this vector (Mirai defaults).
    pub fn default_payload_bytes(self) -> u32 {
        match self {
            AttackVector::UdpPlain => 512,
            AttackVector::Udp => 512,
            AttackVector::Syn => 0,
            AttackVector::Ack => 0,
            AttackVector::GreIp => 512,
            AttackVector::Vse => 25,
            AttackVector::Dns => 38,
            AttackVector::Http => 128,
            AttackVector::DnsAmp => 38,
        }
    }

    /// Extra per-packet header overhead beyond IP+L4 (e.g. GRE).
    pub fn extra_header_bytes(self) -> u32 {
        match self {
            AttackVector::GreIp => 24,
            _ => 0,
        }
    }

    /// Whether the flood runs over the reliable stream transport (HTTP
    /// GET floods) rather than raw forged packets.
    pub fn is_stream(self) -> bool {
        matches!(self, AttackVector::Http)
    }

    /// Whether the command needs a reflector address
    /// ([`AttackCommand::reflector`]) to be meaningful.
    pub fn needs_reflector(self) -> bool {
        matches!(self, AttackVector::DnsAmp)
    }

    /// Parses the Mirai command name (`udpplain`, `udp`, `syn`, `ack`,
    /// `greip`, `vse`, `dns`, `http`, `dnsamp`) — the spelling of the
    /// `--vector` flag and of a world document's `attack.vector`.
    ///
    /// # Errors
    ///
    /// A message quoting `s` when it names no vector.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|v| v.to_string() == s).ok_or_else(|| format!("unknown vector '{s}'"))
    }
}

impl fmt::Display for AttackVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackVector::UdpPlain => "udpplain",
            AttackVector::Udp => "udp",
            AttackVector::Syn => "syn",
            AttackVector::Ack => "ack",
            AttackVector::GreIp => "greip",
            AttackVector::Vse => "vse",
            AttackVector::Dns => "dns",
            AttackVector::Http => "http",
            AttackVector::DnsAmp => "dnsamp",
        };
        f.write_str(s)
    }
}

/// An attack order issued by the C&C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCommand {
    /// Which flood to run.
    pub vector: AttackVector,
    /// Target address.
    pub target: IpAddr,
    /// Target port.
    pub port: u16,
    /// Attack duration in whole seconds.
    pub duration_secs: u32,
    /// Payload bytes per packet (`None` = vector default).
    pub payload_bytes: Option<u32>,
    /// Open resolver bounced off by reflection vectors
    /// ([`AttackVector::DnsAmp`]); ignored by direct floods.
    pub reflector: Option<IpAddr>,
}

impl AttackCommand {
    /// The attack duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(u64::from(self.duration_secs))
    }

    /// Effective payload size per packet.
    pub fn effective_payload_bytes(&self) -> u32 {
        self.payload_bytes
            .unwrap_or_else(|| self.vector.default_payload_bytes())
    }
}

/// Messages between bots and the C&C server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CncMessage {
    /// Bot → C&C: registration after infection.
    Register {
        /// Bot identifier (derived from its obfuscated process name).
        bot_id: u64,
        /// Architecture tag of the running binary (`x86`, `arm7`, ...).
        arch: String,
        /// Version of the bot binary.
        version: u32,
    },
    /// C&C → bot: registration accepted. Until a bot sees this it cannot
    /// assume the C&C is functional — a TCP connect alone also succeeds
    /// against a half-recovered host whose control plane is still down.
    RegisterAck,
    /// Bot → C&C: keep-alive.
    Ping,
    /// C&C → bot: keep-alive answer.
    Pong,
    /// C&C → bot: run an attack.
    Attack(AttackCommand),
    /// C&C → bot: stop all attacks.
    StopAttack,
}

impl CncMessage {
    /// Approximate bytes on the wire (Mirai's binary protocol is compact).
    pub fn wire_size(&self) -> u32 {
        match self {
            CncMessage::Register { arch, .. } => 16 + arch.len() as u32,
            CncMessage::RegisterAck => 2,
            CncMessage::Ping | CncMessage::Pong => 2,
            CncMessage::Attack(_) => 32,
            CncMessage::StopAttack => 4,
        }
    }
}

/// Marker payload attached to flood packets so sinks and classifiers can
/// label attack traffic without deep inspection (the simulation analogue of
/// Wireshark filtering by pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodMarker {
    /// The vector that generated the packet.
    pub vector: AttackVector,
    /// The sending bot.
    pub bot_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn vector_roundtrip_through_names() {
        for v in AttackVector::ALL {
            assert_eq!(AttackVector::parse(&v.to_string()), Ok(v));
        }
        assert_eq!(AttackVector::parse("teardrop"), Err("unknown vector 'teardrop'".to_owned()));
    }

    #[test]
    fn vector_traits_classify_new_vectors() {
        assert!(AttackVector::Http.is_stream());
        assert!(!AttackVector::UdpPlain.is_stream());
        assert!(AttackVector::DnsAmp.needs_reflector());
        assert!(!AttackVector::Dns.needs_reflector());
    }

    #[test]
    fn udpplain_default_payload_is_512() {
        assert_eq!(AttackVector::UdpPlain.default_payload_bytes(), 512);
    }

    #[test]
    fn syn_floods_have_empty_payloads() {
        assert_eq!(AttackVector::Syn.default_payload_bytes(), 0);
    }

    #[test]
    fn gre_charges_extra_headers() {
        assert!(AttackVector::GreIp.extra_header_bytes() > 0);
        assert_eq!(AttackVector::UdpPlain.extra_header_bytes(), 0);
    }

    #[test]
    fn command_duration_and_payload() {
        let cmd = AttackCommand {
            vector: AttackVector::UdpPlain,
            target: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            port: 80,
            duration_secs: 100,
            payload_bytes: None,
            reflector: None,
        };
        assert_eq!(cmd.duration(), Duration::from_secs(100));
        assert_eq!(cmd.effective_payload_bytes(), 512);
        let cmd2 = AttackCommand {
            payload_bytes: Some(64),
            ..cmd
        };
        assert_eq!(cmd2.effective_payload_bytes(), 64);
    }

    #[test]
    fn message_sizes_are_plausible() {
        assert!(CncMessage::Ping.wire_size() < CncMessage::Attack(AttackCommand {
            vector: AttackVector::Udp,
            target: IpAddr::V4(Ipv4Addr::LOCALHOST),
            port: 1,
            duration_secs: 1,
            payload_bytes: None,
            reflector: None,
        })
        .wire_size());
    }
}
