//! Packets and typed payloads.
//!
//! `netsim` is a packet-level simulator: a [`Packet`] carries real addressing
//! and size information (which drive timing, queueing, and loss), while its
//! [`Payload`] is a typed, reference-counted simulation message rather than
//! encoded bytes. Higher layers downcast payloads to their own protocol
//! types. This is the standard packet-level-simulation compromise: wire
//! *behaviour* is faithful, wire *encoding* is elided.

use std::any::Any;
use std::fmt;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportProto {
    /// Connectionless datagrams.
    Udp,
    /// Segments of the light reliable stream transport ("tcp-lite").
    Tcp,
}

impl fmt::Display for TransportProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportProto::Udp => f.write_str("udp"),
            TransportProto::Tcp => f.write_str("tcp"),
        }
    }
}

/// An opaque, cheaply clonable, typed payload.
///
/// # Examples
///
/// ```
/// use netsim::Payload;
///
/// let p = Payload::new(String::from("hello"));
/// assert_eq!(p.get::<String>().map(String::as_str), Some("hello"));
/// assert!(p.get::<u32>().is_none());
/// ```
#[derive(Clone, Default)]
pub struct Payload(Option<Arc<dyn Any + Send + Sync>>);

impl Payload {
    /// An empty payload (e.g. pure flood filler or control segments).
    pub const fn empty() -> Self {
        Payload(None)
    }

    /// Wraps a typed message.
    pub fn new<T: Any + Send + Sync>(value: T) -> Self {
        Payload(Some(Arc::new(value)))
    }

    /// Downcasts to a concrete message type.
    pub fn get<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.0.as_deref().and_then(|v| v.downcast_ref::<T>())
    }

    /// Whether this payload carries no message.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Payload(empty)"),
            Some(_) => f.write_str("Payload(typed)"),
        }
    }
}

/// Default IPv4/IPv6-agnostic header overhead we charge per packet
/// (IP + UDP headers, rounded).
pub const DEFAULT_HEADER_BYTES: u32 = 28;

/// Default time-to-live for newly built packets.
pub const DEFAULT_TTL: u8 = 64;

/// The immutable body of a packet: addressing, protocol, payload, and the
/// byte counts that drive timing. Shared by every copy of a [`Packet`]
/// through an [`Arc`], so broadcast fan-out, Wi-Fi retransmissions, and
/// delivery all alias one allocation instead of deep-copying. Nothing in
/// it is per-packet, so a sender whose packets differ only in `id` and
/// `ttl` may also share one body *across* packets: a flood sends clones of
/// one template and [`Simulator::send_from_node`] stamps each clone's id.
///
/// [`Simulator::send_from_node`]: crate::Simulator::send_from_node
#[derive(Debug)]
pub struct PacketBody {
    /// Source address and port.
    pub src: SocketAddr,
    /// Destination address and port.
    pub dst: SocketAddr,
    /// Transport protocol.
    pub proto: TransportProto,
    /// Typed simulation payload.
    pub payload: Payload,
    /// Bytes charged for L3/L4 headers.
    pub header_bytes: u32,
    /// Bytes charged for the payload.
    pub payload_bytes: u32,
}

/// A simulated network packet.
///
/// Cloning is `O(1)`: the body is `Arc`-shared and only the per-hop state
/// (`ttl`, `id`) lives inline. The body is immutable after construction —
/// mutating a sent packet is impossible by construction, which the aliasing
/// tests rely on. Read access goes through `Deref`, so `packet.dst`,
/// `packet.payload`, etc. read naturally.
///
/// Writing a body field does not compile — there is no `DerefMut`:
///
/// ```compile_fail
/// use netsim::{Packet, Payload};
/// let mut p = Packet::udp(
///     "10.0.0.1:1".parse().unwrap(),
///     "10.0.0.2:2".parse().unwrap(),
///     Payload::empty(),
///     100,
/// );
/// p.payload_bytes = 5; // ERROR: cannot assign through the immutable body
/// ```
#[derive(Debug, Clone)]
pub struct Packet {
    body: Arc<PacketBody>,
    /// Remaining hops before the packet is dropped.
    pub ttl: u8,
    /// Unique packet id (assigned by the simulator at send time).
    pub id: u64,
}

impl std::ops::Deref for Packet {
    type Target = PacketBody;

    fn deref(&self) -> &PacketBody {
        &self.body
    }
}

impl Packet {
    /// Builds a packet with default TTL and an unassigned id.
    pub fn new(
        src: SocketAddr,
        dst: SocketAddr,
        proto: TransportProto,
        payload: Payload,
        header_bytes: u32,
        payload_bytes: u32,
    ) -> Self {
        Packet {
            body: Arc::new(PacketBody {
                src,
                dst,
                proto,
                payload,
                header_bytes,
                payload_bytes,
            }),
            ttl: DEFAULT_TTL,
            id: 0,
        }
    }

    /// Builds a UDP packet with default header overhead and TTL.
    pub fn udp(src: SocketAddr, dst: SocketAddr, payload: Payload, payload_bytes: u32) -> Self {
        Packet::new(
            src,
            dst,
            TransportProto::Udp,
            payload,
            DEFAULT_HEADER_BYTES,
            payload_bytes,
        )
    }

    /// Whether this packet shares its body allocation with `other`: true
    /// for clones of one sent packet (the wire never copies bodies) and
    /// for distinct packets a sender cloned from one template, which still
    /// differ in `id`. Packets built separately never share, however equal.
    pub fn shares_body_with(&self, other: &Packet) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Folds the packet's wire-visible identity into a checkpoint digest.
    /// The typed payload is opaque (`Arc<dyn Any>`) and excluded; the id,
    /// addressing, sizes, and TTL pin the packet down for determinism
    /// purposes because ids are assigned from a deterministic counter.
    pub(crate) fn state_digest(&self, h: &mut crate::digest::StateHasher) {
        h.write_u64(self.id);
        h.write_bytes(&[self.ttl]);
        h.write_ip(self.src.ip());
        h.write_u32(u32::from(self.src.port()));
        h.write_ip(self.dst.ip());
        h.write_u32(u32::from(self.dst.port()));
        h.write_bytes(&[match self.proto {
            TransportProto::Udp => 0,
            TransportProto::Tcp => 1,
        }]);
        h.write_u32(self.header_bytes);
        h.write_u32(self.payload_bytes);
    }
}

impl PacketBody {
    /// Total bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        self.header_bytes.saturating_add(self.payload_bytes)
    }

    /// Whether the destination is an IPv6 multicast group or the IPv4
    /// broadcast-style multicast range.
    pub fn is_multicast(&self) -> bool {
        is_multicast(self.dst.ip())
    }
}

/// Whether an address is multicast (either family).
pub fn is_multicast(addr: IpAddr) -> bool {
    match addr {
        IpAddr::V4(v4) => v4.is_multicast(),
        IpAddr::V6(v6) => v6.is_multicast(),
    }
}

/// The IPv6 "All_DHCP_Relay_Agents_and_Servers" multicast group (`ff02::1:2`),
/// used by the DHCPv6 RELAY-FORW exploit delivery path.
pub fn all_dhcp_agents_v6() -> IpAddr {
    IpAddr::V6(std::net::Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0x1, 0x2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sa(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, last)), port)
    }

    #[test]
    fn payload_downcast() {
        #[derive(Debug, PartialEq)]
        struct Msg(u32);
        let p = Payload::new(Msg(7));
        assert_eq!(p.get::<Msg>(), Some(&Msg(7)));
        assert!(p.get::<String>().is_none());
        assert!(!p.is_empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn payload_debug_nonempty() {
        assert_eq!(format!("{:?}", Payload::empty()), "Payload(empty)");
        assert_eq!(format!("{:?}", Payload::new(1u8)), "Payload(typed)");
    }

    #[test]
    fn wire_bytes_sums_headers_and_payload() {
        let p = Packet::udp(sa(1, 1000), sa(2, 2000), Payload::empty(), 512);
        assert_eq!(p.wire_bytes(), 512 + DEFAULT_HEADER_BYTES);
    }

    #[test]
    fn multicast_detection() {
        let to = |dst| Packet::udp(sa(1, 1), dst, Payload::empty(), 0);
        assert!(!to(sa(2, 2)).is_multicast());
        assert!(to(SocketAddr::new(all_dhcp_agents_v6(), 547)).is_multicast());
        assert!(!to(SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), 547)).is_multicast());
        assert!(to(SocketAddr::new(IpAddr::V4(Ipv4Addr::new(224, 0, 0, 1)), 5)).is_multicast());
    }

    #[test]
    fn payload_clone_shares_value() {
        let p = Payload::new(vec![1u8, 2, 3]);
        let q = p.clone();
        assert_eq!(q.get::<Vec<u8>>(), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn packet_clones_share_one_body() {
        let p = Packet::udp(sa(1, 1), sa(2, 2), Payload::new(7u32), 100);
        let mut q = p.clone();
        q.ttl -= 1;
        q.id = 9;
        // Per-hop state diverges; the body allocation is shared.
        assert!(p.shares_body_with(&q));
        assert_eq!(p.ttl, DEFAULT_TTL);
        assert_eq!(q.wire_bytes(), p.wire_bytes());
        assert_eq!(q.payload.get::<u32>(), Some(&7));
    }
}
