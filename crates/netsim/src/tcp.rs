//! "tcp-lite": a light reliable stream transport.
//!
//! Botnet control traffic (C&C registration, telnet sessions, HTTP
//! downloads) needs connections and reliable in-order delivery, but not a
//! full TCP implementation. tcp-lite provides: a three-way handshake,
//! per-message sequence numbers with positive acknowledgement, exponential
//! retransmission with a retry limit, in-order delivery with out-of-order
//! buffering, FIN/RST teardown, and failure notification. Flow/congestion
//! control are intentionally omitted — the data plane of the simulated
//! attacks is UDP, exactly as in the paper (Mirai UDP-PLAIN floods).

use crate::fastmap::FastMap;
use crate::ids::{AppId, NodeId};
use crate::packet::{Packet, Payload, TransportProto};
use std::collections::BTreeMap;
use std::fmt;
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;

/// Handle to a tcp-lite connection endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId {
    pub(crate) node: NodeId,
    pub(crate) id: u64,
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#c{}", self.node, self.id)
    }
}

/// Connection events delivered to applications.
#[derive(Debug, Clone)]
pub enum TcpEvent {
    /// A listener accepted a new inbound connection.
    Incoming {
        /// The new connection.
        conn: ConnId,
        /// The remote endpoint.
        from: SocketAddr,
    },
    /// An outbound connection completed its handshake.
    Connected {
        /// The connection.
        conn: ConnId,
    },
    /// In-order application data arrived.
    Data {
        /// The connection.
        conn: ConnId,
        /// The message payload.
        payload: Payload,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// The connection closed (peer FIN/RST, or local failure after
    /// exhausting retransmissions).
    Closed {
        /// The connection.
        conn: ConnId,
    },
    /// An outbound connection could not be established.
    ConnectFailed {
        /// The connection.
        conn: ConnId,
    },
}

/// Errors returned by tcp-lite operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The connection does not exist or is closed.
    NotConnected,
    /// The port is already bound by another listener.
    PortInUse,
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::NotConnected => f.write_str("connection is not established"),
            TcpError::PortInUse => f.write_str("port is already bound"),
        }
    }
}

impl std::error::Error for TcpError {}

/// Segment kinds exchanged on the wire (as typed payloads).
#[derive(Debug, Clone)]
pub(crate) enum SegKind {
    Syn,
    SynAck,
    HandshakeAck,
    Data { seq: u64, payload: Payload, bytes: u32 },
    Ack { seq: u64 },
    Fin,
    Rst,
}

#[derive(Debug, Clone)]
pub(crate) struct TcpSeg {
    pub kind: SegKind,
}

const TCP_HEADER_BYTES: u32 = 40;
const MAX_RETRIES: u32 = 6;
const BASE_RTO: Duration = Duration::from_millis(200);
const MAX_RTO: Duration = Duration::from_secs(3);

fn rto_for(retries: u32) -> Duration {
    let rto = BASE_RTO.saturating_mul(1 << retries.min(8));
    rto.min(MAX_RTO)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    SynReceived,
    Established,
}

#[derive(Debug, Clone)]
struct UnackedSeg {
    payload: Payload,
    bytes: u32,
    retries: u32,
}

#[derive(Debug, Clone)]
struct Conn {
    owner: AppId,
    local_addr: IpAddr,
    local_port: u16,
    peer: SocketAddr,
    state: ConnState,
    next_send_seq: u64,
    unacked: FastMap<u64, UnackedSeg>,
    handshake_retries: u32,
    recv_next: u64,
    recv_buffer: BTreeMap<u64, (Payload, u32)>,
}

/// Actions the stack asks the simulator to perform.
#[derive(Debug)]
pub(crate) enum TcpAction {
    Send(Packet),
    Event(AppId, TcpEvent),
    /// Arm a retransmission timer; `seq == 0` covers the handshake.
    SetRto {
        conn: u64,
        seq: u64,
        after: Duration,
    },
}

/// Per-node tcp-lite state machine.
#[derive(Debug, Default, Clone)]
pub(crate) struct TcpStack {
    node: Option<NodeId>,
    listeners: FastMap<u16, AppId>,
    /// Live connections by id. Ids count up from 1 and are never reused
    /// (they appear in traces), so ascending-id order — what the digest
    /// and `close_owned_by` walk — is opening order. Boxed as measured:
    /// B-tree nodes of eleven inline `Conn`s read `peak_rss_mb` +4–7 %.
    conns: BTreeMap<u64, Box<Conn>>,
    by_tuple: FastMap<(u16, SocketAddr), u64>,
    next_conn: u64,
    next_ephemeral: u16,
}

impl TcpStack {
    pub fn new(node: NodeId) -> Self {
        TcpStack {
            node: Some(node),
            next_ephemeral: 49152,
            next_conn: 1,
            ..TcpStack::default()
        }
    }

    fn node(&self) -> NodeId {
        self.node.expect("stack is initialized with a node")
    }

    pub fn listen(&mut self, port: u16, owner: AppId) -> Result<(), TcpError> {
        if self.listeners.contains_key(&port) {
            return Err(TcpError::PortInUse);
        }
        self.listeners.insert(port, owner);
        Ok(())
    }

    fn alloc_port(&mut self) -> u16 {
        // One full wrap of the ephemeral range, then give up loudly: an
        // unbounded loop here spins forever once every port is taken.
        let range = crate::node::EPHEMERAL_RANGE;
        let span = u32::from(*range.end() - *range.start()) + 1;
        for _ in 0..span {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 49152 } else { p + 1 };
            let in_use = self.conns.values().any(|c| c.local_port == p);
            if !in_use && !self.listeners.contains_key(&p) {
                return p;
            }
        }
        panic!(
            "node {:?}: ephemeral TCP port space exhausted (all {span} ports in {}..={} are in use)",
            self.node,
            range.start(),
            range.end()
        );
    }

    /// Initiates a connection; returns the connection handle and the actions
    /// to perform (SYN transmission + handshake timer).
    pub fn connect(
        &mut self,
        owner: AppId,
        local_addr: IpAddr,
        peer: SocketAddr,
    ) -> (ConnId, Vec<TcpAction>) {
        let id = self.next_conn;
        self.next_conn += 1;
        let local_port = self.alloc_port();
        let conn = Conn {
            owner,
            local_addr,
            local_port,
            peer,
            state: ConnState::SynSent,
            next_send_seq: 1,
            unacked: FastMap::default(),
            handshake_retries: 0,
            recv_next: 1,
            recv_buffer: BTreeMap::new(),
        };
        self.by_tuple.insert((local_port, peer), id);
        self.conns.insert(id, Box::new(conn));
        let actions = vec![
            TcpAction::Send(self.seg_packet(id, SegKind::Syn)),
            TcpAction::SetRto {
                conn: id,
                seq: 0,
                after: rto_for(0),
            },
        ];
        (ConnId { node: self.node(), id }, actions)
    }

    /// Sends application data on an established connection.
    pub fn send(
        &mut self,
        conn: ConnId,
        payload: Payload,
        bytes: u32,
    ) -> Result<Vec<TcpAction>, TcpError> {
        let c = self.conns.get_mut(&conn.id).ok_or(TcpError::NotConnected)?;
        if c.state != ConnState::Established {
            return Err(TcpError::NotConnected);
        }
        let seq = c.next_send_seq;
        c.next_send_seq += 1;
        c.unacked.insert(
            seq,
            UnackedSeg {
                payload: payload.clone(),
                bytes,
                retries: 0,
            },
        );
        Ok(vec![
            TcpAction::Send(self.seg_packet(conn.id, SegKind::Data { seq, payload, bytes })),
            TcpAction::SetRto {
                conn: conn.id,
                seq,
                after: rto_for(0),
            },
        ])
    }

    /// Closes a connection, sending a best-effort FIN.
    pub fn close(&mut self, conn: ConnId) -> Vec<TcpAction> {
        if !self.conns.contains_key(&conn.id) {
            return Vec::new();
        }
        let pkt = self.seg_packet(conn.id, SegKind::Fin);
        self.remove_conn(conn.id);
        vec![TcpAction::Send(pkt)]
    }

    /// Closes every connection owned by `owner` (best-effort FIN each) and
    /// releases its listeners — the teardown a host kernel performs when a
    /// process dies. Without it a removed app's connections linger as
    /// zombies whose ACKs keep the peer believing the app is alive.
    pub fn close_owned_by(&mut self, owner: AppId) -> Vec<TcpAction> {
        self.listeners.retain(|_, o| *o != owner);
        let node = self.node();
        // Ascending conn id: a stable, deterministic order for the FINs
        // this emits onto the wire.
        let ids: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.owner == owner)
            .map(|(id, _)| *id)
            .collect();
        ids.into_iter()
            .flat_map(|id| self.close(ConnId { node, id }))
            .collect()
    }

    /// Whether the connection exists and is established.
    pub(crate) fn is_established(&self, conn: ConnId) -> bool {
        self.conns
            .get(&conn.id)
            .is_some_and(|c| c.state == ConnState::Established)
    }

    fn remove_conn(&mut self, id: u64) -> Option<Box<Conn>> {
        let c = self.conns.remove(&id)?;
        self.by_tuple.remove(&(c.local_port, c.peer));
        Some(c)
    }

    fn seg_packet(&self, id: u64, kind: SegKind) -> Packet {
        let c = self.conns.get(&id).expect("conn exists");
        let payload_bytes = match &kind {
            SegKind::Data { bytes, .. } => *bytes,
            _ => 0,
        };
        Packet::new(
            SocketAddr::new(c.local_addr, c.local_port),
            c.peer,
            TransportProto::Tcp,
            Payload::new(TcpSeg { kind }),
            TCP_HEADER_BYTES,
            payload_bytes,
        )
    }

    fn rst_packet(local: SocketAddr, peer: SocketAddr) -> Packet {
        Packet::new(
            local,
            peer,
            TransportProto::Tcp,
            Payload::new(TcpSeg { kind: SegKind::Rst }),
            TCP_HEADER_BYTES,
            0,
        )
    }

    /// Handles an inbound segment addressed to this node.
    pub(crate) fn on_segment(&mut self, pkt: &Packet) -> Vec<TcpAction> {
        let Some(seg) = pkt.payload.get::<TcpSeg>() else {
            return Vec::new();
        };
        let local_port = pkt.dst.port();
        let peer = pkt.src;
        let tuple = (local_port, peer);
        let node = self.node();

        match (&seg.kind, self.by_tuple.get(&tuple).copied()) {
            (SegKind::Syn, existing) => {
                if let Some(id) = existing {
                    // Duplicate SYN (retransmission): re-send SYN-ACK.
                    return vec![TcpAction::Send(self.seg_packet(id, SegKind::SynAck))];
                }
                let Some(&owner) = self.listeners.get(&local_port) else {
                    return vec![TcpAction::Send(Self::rst_packet(
                        SocketAddr::new(pkt.dst.ip(), local_port),
                        peer,
                    ))];
                };
                let id = self.next_conn;
                self.next_conn += 1;
                self.conns.insert(
                    id,
                    Box::new(Conn {
                        owner,
                        local_addr: pkt.dst.ip(),
                        local_port,
                        peer,
                        state: ConnState::SynReceived,
                        next_send_seq: 1,
                        unacked: FastMap::default(),
                        handshake_retries: 0,
                        recv_next: 1,
                        recv_buffer: BTreeMap::new(),
                    }),
                );
                self.by_tuple.insert(tuple, id);
                vec![
                    TcpAction::Send(self.seg_packet(id, SegKind::SynAck)),
                    TcpAction::SetRto {
                        conn: id,
                        seq: 0,
                        after: rto_for(0),
                    },
                ]
            }
            (SegKind::SynAck, Some(id)) => {
                let mut actions = vec![TcpAction::Send(self.seg_packet(id, SegKind::HandshakeAck))];
                let c = self.conns.get_mut(&id).expect("tuple-mapped conn exists");
                if c.state == ConnState::SynSent {
                    c.state = ConnState::Established;
                    actions.push(TcpAction::Event(
                        c.owner,
                        TcpEvent::Connected {
                            conn: ConnId { node, id },
                        },
                    ));
                }
                actions
            }
            (SegKind::HandshakeAck, Some(id)) => {
                let c = self.conns.get_mut(&id).expect("tuple-mapped conn exists");
                if c.state == ConnState::SynReceived {
                    c.state = ConnState::Established;
                    vec![TcpAction::Event(
                        c.owner,
                        TcpEvent::Incoming {
                            conn: ConnId { node, id },
                            from: peer,
                        },
                    )]
                } else {
                    Vec::new()
                }
            }
            (SegKind::Data { seq, payload, bytes }, Some(id)) => {
                let seq = *seq;
                let bytes = *bytes;
                let payload = payload.clone();
                let mut actions = vec![TcpAction::Send(
                    self.seg_packet(id, SegKind::Ack { seq }),
                )];
                let c = self.conns.get_mut(&id).expect("tuple-mapped conn exists");
                // Receiving data implies the peer completed the handshake
                // (its HandshakeAck may have been lost).
                if c.state == ConnState::SynReceived {
                    c.state = ConnState::Established;
                    let owner = c.owner;
                    actions.push(TcpAction::Event(
                        owner,
                        TcpEvent::Incoming {
                            conn: ConnId { node, id },
                            from: peer,
                        },
                    ));
                }
                let c = self.conns.get_mut(&id).expect("still exists");
                if seq >= c.recv_next {
                    c.recv_buffer.entry(seq).or_insert((payload, bytes));
                    // Deliver any now-consecutive prefix.
                    while let Some((p, b)) = c.recv_buffer.remove(&c.recv_next) {
                        let owner = c.owner;
                        let conn = ConnId { node, id };
                        c.recv_next += 1;
                        actions.push(TcpAction::Event(
                            owner,
                            TcpEvent::Data {
                                conn,
                                payload: p,
                                bytes: b,
                            },
                        ));
                    }
                }
                actions
            }
            (SegKind::Ack { seq }, Some(id)) => {
                let c = self.conns.get_mut(&id).expect("tuple-mapped conn exists");
                c.unacked.remove(seq);
                Vec::new()
            }
            (SegKind::Fin, Some(id)) => {
                let c = self.remove_conn(id).expect("tuple-mapped conn exists");
                vec![TcpAction::Event(
                    c.owner,
                    TcpEvent::Closed {
                        conn: ConnId { node, id },
                    },
                )]
            }
            (SegKind::Rst, Some(id)) => {
                let c = self.remove_conn(id).expect("tuple-mapped conn exists");
                let ev = if c.state == ConnState::SynSent {
                    TcpEvent::ConnectFailed {
                        conn: ConnId { node, id },
                    }
                } else {
                    TcpEvent::Closed {
                        conn: ConnId { node, id },
                    }
                };
                vec![TcpAction::Event(c.owner, ev)]
            }
            (SegKind::Rst, None) | (SegKind::Fin, None) | (SegKind::Ack { .. }, None) => Vec::new(),
            (_, None) => {
                // Segment for an unknown connection: refuse.
                vec![TcpAction::Send(Self::rst_packet(
                    SocketAddr::new(pkt.dst.ip(), local_port),
                    peer,
                ))]
            }
        }
    }

    /// Handles a retransmission-timer expiry.
    pub(crate) fn on_rto(&mut self, conn: u64, seq: u64) -> Vec<TcpAction> {
        let node = self.node();
        let Some(c) = self.conns.get_mut(&conn) else {
            return Vec::new();
        };
        if seq == 0 {
            // Handshake timer.
            match c.state {
                ConnState::SynSent | ConnState::SynReceived => {
                    c.handshake_retries += 1;
                    if c.handshake_retries > MAX_RETRIES {
                        let c = self.remove_conn(conn).expect("exists");
                        let ev = if c.state == ConnState::SynSent {
                            TcpEvent::ConnectFailed {
                                conn: ConnId { node, id: conn },
                            }
                        } else {
                            TcpEvent::Closed {
                                conn: ConnId { node, id: conn },
                            }
                        };
                        return vec![TcpAction::Event(c.owner, ev)];
                    }
                    let retries = c.handshake_retries;
                    let kind = if c.state == ConnState::SynSent {
                        SegKind::Syn
                    } else {
                        SegKind::SynAck
                    };
                    vec![
                        TcpAction::Send(self.seg_packet(conn, kind)),
                        TcpAction::SetRto {
                            conn,
                            seq: 0,
                            after: rto_for(retries),
                        },
                    ]
                }
                ConnState::Established => Vec::new(),
            }
        } else {
            let Some(unacked) = c.unacked.get_mut(&seq) else {
                return Vec::new(); // Acked in the meantime.
            };
            unacked.retries += 1;
            if unacked.retries > MAX_RETRIES {
                let c = self.remove_conn(conn).expect("exists");
                return vec![TcpAction::Event(
                    c.owner,
                    TcpEvent::Closed {
                        conn: ConnId { node, id: conn },
                    },
                )];
            }
            let retries = unacked.retries;
            let payload = unacked.payload.clone();
            let bytes = unacked.bytes;
            vec![
                TcpAction::Send(self.seg_packet(conn, SegKind::Data { seq, payload, bytes })),
                TcpAction::SetRto {
                    conn,
                    seq,
                    after: rto_for(retries),
                },
            ]
        }
    }

    /// Tears down all connections without notifying local apps (used when the
    /// node goes down; apps learn via `on_node_down`).
    pub(crate) fn reset_all(&mut self) {
        self.conns.clear();
        self.by_tuple.clear();
    }

    /// Number of live connections (any state).
    #[cfg(test)]
    pub(crate) fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Folds the whole stack — listeners, every live connection, and the
    /// id/port allocators — into a checkpoint digest. Map-backed state is
    /// visited in sorted key order so the digest is iteration-order-free.
    pub fn state_digest(&self, h: &mut crate::digest::StateHasher) {
        let mut listeners: Vec<(u16, AppId)> =
            self.listeners.iter().map(|(p, a)| (*p, *a)).collect();
        listeners.sort_unstable_by_key(|(p, _)| *p);
        h.write_usize(listeners.len());
        for (port, owner) in listeners {
            h.write_u32(u32::from(port));
            h.write_usize(owner.node().index());
            h.write_usize(owner.slot());
        }
        h.write_usize(self.conns.len());
        for (id, conn) in &self.conns {
            h.write_u64(*id);
            h.write_usize(conn.owner.node().index());
            h.write_usize(conn.owner.slot());
            h.write_ip(conn.local_addr);
            h.write_u32(u32::from(conn.local_port));
            h.write_ip(conn.peer.ip());
            h.write_u32(u32::from(conn.peer.port()));
            h.write_bytes(&[match conn.state {
                ConnState::SynSent => 0,
                ConnState::SynReceived => 1,
                ConnState::Established => 2,
            }]);
            h.write_u64(conn.next_send_seq);
            let mut unacked: Vec<(u64, u32, u32)> = conn
                .unacked
                .iter()
                .map(|(seq, seg)| (*seq, seg.bytes, seg.retries))
                .collect();
            unacked.sort_unstable_by_key(|(seq, ..)| *seq);
            h.write_usize(unacked.len());
            for (seq, bytes, retries) in unacked {
                h.write_u64(seq);
                h.write_u32(bytes);
                h.write_u32(retries);
            }
            h.write_u32(conn.handshake_retries);
            h.write_u64(conn.recv_next);
            h.write_usize(conn.recv_buffer.len());
            for (seq, (_, bytes)) in &conn.recv_buffer {
                h.write_u64(*seq);
                h.write_u32(*bytes);
            }
        }
        h.write_u64(self.next_conn);
        h.write_u32(u32::from(self.next_ephemeral));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(node: u32) -> AppId {
        AppId {
            node: NodeId::from_index(node as usize),
            slot: 0,
        }
    }

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(
            IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, last)),
            port,
        )
    }

    /// Drives segments between two stacks until quiescent, collecting events.
    fn pump(
        a: &mut TcpStack,
        a_ip: IpAddr,
        b: &mut TcpStack,
        _b_ip: IpAddr,
        initial: Vec<TcpAction>,
    ) -> Vec<(AppId, String)> {
        let mut events = Vec::new();
        let mut pending = initial;
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 100, "handshake did not quiesce");
            let mut next = Vec::new();
            for action in pending {
                match action {
                    TcpAction::Send(pkt) => {
                        let dst_stack = if pkt.dst.ip() == a_ip { &mut *a } else { &mut *b };
                        next.extend(dst_stack.on_segment(&pkt));
                    }
                    TcpAction::Event(owner, ev) => {
                        events.push((owner, format!("{ev:?}")));
                    }
                    TcpAction::SetRto { .. } => {}
                }
            }
            pending = next;
        }
        events
    }

    #[test]
    fn handshake_and_data() {
        let a_ip = addr(1, 0).ip();
        let b_ip = addr(2, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let mut server = TcpStack::new(NodeId::from_index(1));
        server.listen(23, app(1)).expect("listen");

        let (conn, actions) = client.connect(app(0), a_ip, addr(2, 23));
        let events = pump(&mut client, a_ip, &mut server, b_ip, actions);
        assert!(events.iter().any(|(_, e)| e.contains("Connected")));
        assert!(events.iter().any(|(_, e)| e.contains("Incoming")));
        assert!(client.is_established(conn));

        let actions = client
            .send(conn, Payload::new(42u32), 4)
            .expect("established");
        let events = pump(&mut client, a_ip, &mut server, b_ip, actions);
        assert!(events.iter().any(|(_, e)| e.contains("Data")));
    }

    #[test]
    fn syn_to_closed_port_fails() {
        let a_ip = addr(1, 0).ip();
        let b_ip = addr(2, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let mut server = TcpStack::new(NodeId::from_index(1));
        let (_conn, actions) = client.connect(app(0), a_ip, addr(2, 9999));
        let events = pump(&mut client, a_ip, &mut server, b_ip, actions);
        assert!(events.iter().any(|(_, e)| e.contains("ConnectFailed")));
    }

    #[test]
    fn listen_twice_is_port_in_use() {
        let mut s = TcpStack::new(NodeId::from_index(0));
        s.listen(23, app(0)).expect("first listen");
        assert_eq!(s.listen(23, app(0)), Err(TcpError::PortInUse));
    }

    #[test]
    fn send_on_unknown_conn_errors() {
        let mut s = TcpStack::new(NodeId::from_index(0));
        let bogus = ConnId {
            node: NodeId::from_index(0),
            id: 77,
        };
        assert_eq!(
            s.send(bogus, Payload::empty(), 0).unwrap_err(),
            TcpError::NotConnected
        );
    }

    #[test]
    fn out_of_order_data_is_buffered_and_delivered_in_order() {
        let a_ip = addr(1, 0).ip();
        let b_ip = addr(2, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let mut server = TcpStack::new(NodeId::from_index(1));
        server.listen(23, app(1)).expect("listen");
        let (conn, actions) = client.connect(app(0), a_ip, addr(2, 23));
        pump(&mut client, a_ip, &mut server, b_ip, actions);

        // Craft segments 1 and 2, deliver 2 first.
        let acts1 = client.send(conn, Payload::new(1u32), 4).expect("send 1");
        let acts2 = client.send(conn, Payload::new(2u32), 4).expect("send 2");
        let pkt_of = |acts: &[TcpAction]| -> Packet {
            acts.iter()
                .find_map(|a| match a {
                    TcpAction::Send(p) => Some(p.clone()),
                    _ => None,
                })
                .expect("send action present")
        };
        let p1 = pkt_of(&acts1);
        let p2 = pkt_of(&acts2);

        let mut delivered = Vec::new();
        for acts in [server.on_segment(&p2), server.on_segment(&p1)] {
            for a in acts {
                if let TcpAction::Event(_, TcpEvent::Data { payload, .. }) = a {
                    delivered.push(*payload.get::<u32>().expect("u32 payload"));
                }
            }
        }
        assert_eq!(delivered, vec![1, 2]);
    }

    #[test]
    fn rto_retransmits_then_gives_up() {
        let a_ip = addr(1, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let (conn, _actions) = client.connect(app(0), a_ip, addr(2, 23));
        // Fire the handshake timer past the retry limit.
        let mut failed = false;
        for _ in 0..=MAX_RETRIES {
            let acts = client.on_rto(conn.id, 0);
            if acts
                .iter()
                .any(|a| matches!(a, TcpAction::Event(_, TcpEvent::ConnectFailed { .. })))
            {
                failed = true;
                break;
            }
            assert!(acts
                .iter()
                .any(|a| matches!(a, TcpAction::Send(_))), "should retransmit SYN");
        }
        assert!(failed, "connect should fail after {MAX_RETRIES} retries");
        assert_eq!(client.conn_count(), 0);
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        let a_ip = addr(1, 0).ip();
        let b_ip = addr(2, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let mut server = TcpStack::new(NodeId::from_index(1));
        server.listen(23, app(1)).expect("listen");
        let (conn, actions) = client.connect(app(0), a_ip, addr(2, 23));
        pump(&mut client, a_ip, &mut server, b_ip, actions);

        let acts = client.send(conn, Payload::new(9u8), 1).expect("send");
        let pkt = acts
            .iter()
            .find_map(|a| match a {
                TcpAction::Send(p) => Some(p.clone()),
                _ => None,
            })
            .expect("send action");
        let deliveries = |acts: &[TcpAction]| {
            acts.iter()
                .filter(|a| matches!(a, TcpAction::Event(_, TcpEvent::Data { .. })))
                .count()
        };
        assert_eq!(deliveries(&server.on_segment(&pkt)), 1);
        assert_eq!(deliveries(&server.on_segment(&pkt)), 0, "dup not redelivered");
    }

    #[test]
    fn fin_closes_peer() {
        let a_ip = addr(1, 0).ip();
        let b_ip = addr(2, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let mut server = TcpStack::new(NodeId::from_index(1));
        server.listen(23, app(1)).expect("listen");
        let (conn, actions) = client.connect(app(0), a_ip, addr(2, 23));
        pump(&mut client, a_ip, &mut server, b_ip, actions);
        assert_eq!(server.conn_count(), 1);

        let actions = client.close(conn);
        let events = pump(&mut client, a_ip, &mut server, b_ip, actions);
        assert!(events.iter().any(|(_, e)| e.contains("Closed")));
        assert_eq!(server.conn_count(), 0);
        assert_eq!(client.conn_count(), 0);
    }

    #[test]
    fn reset_all_clears_conns() {
        let a_ip = addr(1, 0).ip();
        let mut client = TcpStack::new(NodeId::from_index(0));
        let (_, _) = client.connect(app(0), a_ip, addr(2, 23));
        assert_eq!(client.conn_count(), 1);
        client.reset_all();
        assert_eq!(client.conn_count(), 0);
    }

    /// Connection order is id order whatever the open/close history:
    /// `close_owned_by` sends its FINs in ascending id, and two stacks that
    /// reach the same live set by different histories digest equal.
    #[test]
    fn connections_are_walked_in_ascending_id_whatever_the_history() {
        let node = NodeId::from_index(0);
        let owner = |id: u64| AppId { node, slot: u32::from(id.is_multiple_of(3)) };
        let stack = |history: &[i64]| {
            // A positive step opens that many connections, a negative one
            // closes that id.
            let mut s = TcpStack::new(node);
            for &step in history {
                if step > 0 {
                    for _ in 0..step {
                        let id = s.next_conn;
                        s.connect(owner(id), addr(1, 0).ip(), addr(2, 23));
                    }
                } else {
                    s.close(ConnId { node, id: step.unsigned_abs() });
                }
            }
            s
        };
        let digest = |s: &TcpStack| {
            let mut h = crate::digest::StateHasher::new();
            s.state_digest(&mut h);
            h.finish()
        };
        let mut a = stack(&[5, -2, 3, -7, -4]);
        let mut b = stack(&[8, -4, -7, -2]);
        assert_eq!(a.conn_count(), 5);
        assert_eq!(digest(&a), digest(&b));

        // Live: 1, 3, 5, 6, 8; ids 1, 5, 8 are slot 0's. Ports follow ids.
        let fins: Vec<u16> = a
            .close_owned_by(owner(1))
            .iter()
            .map(|action| match action {
                TcpAction::Send(fin) => fin.src.port(),
                other => panic!("close_owned_by only sends FINs: {other:?}"),
            })
            .collect();
        assert_eq!(fins, [49152, 49156, 49159]);
        b.close_owned_by(owner(1));
        assert_eq!(a.conn_count(), 2);
        assert_eq!(digest(&a), digest(&b));
    }
}
